"""Built-in verification suites behind the CLI's gradcheck and selftest verbs.

``gradcheck_suite`` runs central-difference checks over every differentiable
operation and loss term on small random instances. The acceptance properties
of ``tests/test_acceptance.py`` criteria 2-6 and 8 (diffeomorphic SVF
exponentials, rigidity-penalty zeros, metrics against loop oracles, exact
equivariance of a pointwise synthesis, stop-gradient routing, bitwise
training and resume) are measured here, one function each, which returns
what it measured. ``selftest_suite`` runs them on the criteria's seeds against
the criteria's bounds: its quick mode draws a prefix of each random sample,
and ``quick=False`` reproduces the criteria's numbers.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import Tensor
from . import deform as D
from . import losses as L
from . import metrics as M
from . import networks as N
from . import oracles
from .datagen import Dataset, Sample, channel_swap, procedural_image, make_pair
from .trainer import TrainConfig, Trainer


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name:<44} {self.detail}"


def _subset(rng, size, k=12):
    if size <= k:
        return None
    return sorted(int(i) for i in rng.choice(size, size=k, replace=False))


# -- gradient suite ---------------------------------------------------------------


def gradcheck_suite(seeds: int = 20, tol: float = 1e-4) -> list[CheckResult]:
    results = []

    def check(name, fn):
        worst = 0.0
        for seed in range(seeds):
            worst = max(worst, fn(np.random.default_rng(1000 + seed)))
        results.append(CheckResult(f"grad/{name}", worst < tol, f"max rel err {worst:.3e}"))

    def t(rng, *shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    def gc(f, x, eps=1e-6, rng=None, k=12):
        coords = _subset(rng, x.size, k) if rng is not None else None
        return T.grad_check(f, x, eps=eps, coords=coords)

    # elementwise / reductions
    def elementwise(rng):
        a = t(rng, 4, 4)
        b = Tensor(rng.normal(size=(4, 4)))
        f = lambda z: T.mean(T.absolute(z - b)) + T.tsum(z * b) * 0.1 + T.mean(T.tanh(z))
        return gc(f, a)
    check("elementwise_suite", elementwise)

    def log_sigmoid(rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        f = lambda z: T.mean(T.log(z)) + T.mean(T.sigmoid(z))
        return gc(f, a)
    check("log_sigmoid", log_sigmoid)

    def trig(rng):
        a = t(rng, 5)
        f = lambda z: T.mean(T.cos(z)) + T.mean(T.sin(z) * 0.5)
        return gc(f, a)
    check("cos_sin", trig)

    def conv(rng):
        x = t(rng, 2, 5, 5)
        w = t(rng, 3, 2, 3, 3)
        b = t(rng, 3)
        pert = Tensor(rng.normal(size=(3, 5, 5)))
        worst = gc(lambda z: T.mean(T.conv2d(z, w, b, 1, 1) * pert), x)
        worst = max(worst, gc(lambda z: T.mean(T.conv2d(x, z, b, 1, 1) * pert), w))
        worst = max(worst, gc(lambda z: T.mean(T.conv2d(x, w, z, 1, 1) * pert), b))
        xs = t(rng, 2, 6, 6)
        ws = t(rng, 3, 2, 2, 2)
        worst = max(worst, gc(lambda z: T.mean(T.conv2d(xs, z, b, 2, 0)), ws))
        return worst
    check("conv2d", conv)

    def convt(rng):
        x = t(rng, 3, 3, 3)
        w = t(rng, 3, 2, 2, 2)
        b = t(rng, 2)
        pert = Tensor(rng.normal(size=(2, 6, 6)))
        worst = gc(lambda z: T.mean(T.conv_transpose2d(z, w, b) * pert), x)
        worst = max(worst, gc(lambda z: T.mean(T.conv_transpose2d(x, z, b) * pert), w))
        return worst
    check("conv_transpose2d", convt)

    def dense_fn(rng):
        x = t(rng, 4)
        w = t(rng, 3, 4)
        b = t(rng, 3)
        pert = Tensor(rng.normal(size=(3,)))
        worst = gc(lambda z: T.mean(T.dense(z, w, b) * pert), x)
        worst = max(worst, gc(lambda z: T.mean(T.dense(x, z, b) * pert), w))
        worst = max(worst, gc(lambda z: T.mean(T.dense(x, w, z) * pert), b))
        return worst
    check("dense", dense_fn)

    def gap(rng):
        x = t(rng, 3, 4, 4)
        pert = Tensor(rng.normal(size=(3,)))
        return gc(lambda z: T.mean(T.global_avg_pool(z) * pert), x)
    check("global_avg_pool", gap)

    def gn(rng):
        x = t(rng, 4, 3, 3)
        gamma = t(rng, 4)
        beta = t(rng, 4)
        pert = Tensor(rng.normal(size=(4, 3, 3)))
        worst = gc(lambda z: T.mean(T.group_norm(z, 2, gamma, beta) * pert), x, eps=1e-5)
        worst = max(worst, gc(lambda z: T.mean(T.group_norm(x, 2, z, beta) * pert), gamma))
        worst = max(worst, gc(lambda z: T.mean(T.group_norm(x, 2, gamma, z) * pert), beta))
        return worst
    check("group_norm", gn)

    def leaky(rng):
        x = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.2, requires_grad=True)
        return gc(lambda z: T.mean(T.leaky_relu(z, 0.01)), x, eps=1e-7)
    check("leaky_relu", leaky)

    def bilinear(rng):
        img = t(rng, 2, 5, 5)
        coords = Tensor(D._grid_array(4, 4) * 0.9 + rng.uniform(0.2, 0.4), requires_grad=True)
        pert = Tensor(rng.normal(size=(2, 4, 4)))
        worst = gc(lambda z: T.mean(T.bilinear_sample(z, coords) * pert), img)
        worst = max(worst, gc(lambda z: T.mean(T.bilinear_sample(img, z) * pert), coords, eps=1e-6))
        return worst
    check("bilinear_sample", bilinear)

    def svfexp(rng):
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.4, requires_grad=True)
        pert = Tensor(rng.normal(size=(2, 8, 8)))
        f = lambda z: T.mean(D.svf_exp(D.Svf(z), squarings=3).coords * pert)
        return gc(f, v, eps=1e-6, rng=rng)
    check("svf_exp", svfexp)

    def rigid(rng):
        raw = t(rng, 3, scale=0.5)
        def f(z):
            p = N.rigid_head(z, math.pi / 6, 4.0, (3.5, 3.5))
            d = D.rigid_to_deformation(p)
            pert = Tensor(np.linspace(0, 1, 2 * 8 * 8).reshape(2, 8, 8))
            return T.mean(d.dense_coords(8, 8) * pert)
        return gc(f, raw, eps=1e-6)
    check("rigid_head+deformation", rigid)

    def spectral(rng):
        # the singular-value estimate is constant under backprop, so the
        # reference gradient is pert / (sigma * n), not a finite difference
        w = t(rng, 4, 4)
        state = T.PowerIterState()
        for _ in range(30):
            T.spectral_normalize(Tensor(w.data), state)
        pert = Tensor(rng.normal(size=(4, 4)))
        out = T.spectral_normalize(w, state, update=False)
        scale = float(out.data.ravel()[0] / w.data.ravel()[0])  # 1/sigma
        loss = T.mean(out * pert)
        loss.backward()
        expected = pert.data * scale / w.data.size
        denom = np.maximum(np.abs(expected), 1e-8)
        return float(np.max(np.abs(w.grad - expected) / denom))
    check("spectral_normalize", spectral)

    # loss terms
    def img_of(arr, mask=None):
        if isinstance(arr, Tensor):
            mask = D.full_mask(*arr.shape[1:]) if mask is None else mask
            return D.Image(arr, mask)
        return D.Image.from_array(arr, mask)

    def loss_masked_l1(rng):
        a = rng.uniform(0, 1, size=(2, 6, 6))
        b = img_of(rng.uniform(0, 1, size=(2, 6, 6)))
        mask = rng.uniform(size=(6, 6)) > 0.3
        f = lambda z: L.masked_l1(D.Image(z, mask), b)[0]
        return gc(f, Tensor(a, requires_grad=True))
    check("loss/masked_l1", loss_masked_l1)

    def loss_sim_default(rng):
        pred = rng.uniform(0, 1, size=(2, 8, 8))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        d = D.svf_exp(D.gaussian_svf((4, 4), (3, 3), (0.8, -0.5), 8, 8))
        f = lambda z: L.similarity_default(img_of(z), label, d)[0]
        return gc(f, Tensor(pred, requires_grad=True), rng=rng)
    check("loss/similarity_default", loss_sim_default)

    def loss_sim_eq(rng):
        pred_t = rng.uniform(0, 1, size=(2, 8, 8))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        d = D.svf_exp(D.gaussian_svf((4, 4), (3, 3), (-0.6, 0.7), 8, 8))
        t_inv = D.sample_equivariance_transform(np.random.default_rng(0), D.TransformConfig(10, False, False), 8, 8)[1]
        f = lambda z: L.similarity_equivariance(img_of(z), label, d, t_inv)[0]
        return gc(f, Tensor(pred_t, requires_grad=True), rng=rng)
    check("loss/similarity_equivariance", loss_sim_eq)

    def loss_com(rng):
        net = N.UNet(N.UnetSpec(2, 2, [2, 3], norm="none", activation="relu"), np.random.default_rng(5))
        t, _ = D.sample_equivariance_transform(np.random.default_rng(1), D.TransformConfig(12, True, True), 8, 8)
        fwd = lambda im: D.Image(net.forward(im.data), im.mask)
        f = lambda z: L.commutation_loss(fwd(img_of(z)), fwd(D.warp(img_of(z), t)), t)[0]
        return gc(f, Tensor(rng.uniform(0, 1, size=(2, 8, 8)), requires_grad=True), rng=rng)
    check("loss/commutation", loss_com)

    def loss_rigid_cross(rng):
        pred = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            p = N.rigid_head(z, math.pi / 8, 2.0, (3.5, 3.5))
            return L.cross_sim(pred, D.warp(label, D.rigid_to_deformation(p)))[0]
        return gc(f, t(rng, 3, scale=0.4), eps=1e-6)
    check("loss/cross_sim/rigid", loss_rigid_cross)

    def loss_elastic_cross(rng):
        pred = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            d_cross = D.compose(D.svf_exp(D.Svf(z), squarings=2), D.identity_affine())
            return L.cross_sim(pred, D.warp(label, d_cross))[0]
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/cross_sim/svf", loss_elastic_cross)

    def loss_nonrigidity(rng):
        base = D.svf_exp(D.gaussian_svf((5, 4), (4, 3), (0.9, -0.8), 10, 10)).coords.data
        f = lambda z: L.nonrigidity(D.Deformation.from_coords(z), L.LossWeights())
        return gc(f, Tensor(base, requires_grad=True), eps=1e-6, rng=rng)
    check("loss/nonrigidity", loss_nonrigidity)

    def exp_pair(z):
        v = D.Svf(z)
        return D.svf_exp(v), D.svf_exp(-v)

    def loss_reg_cross(rng):
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        f = lambda z: L.reg_cross(*exp_pair(z), L.LossWeights())
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/reg_cross", loss_reg_cross)

    def loss_reg_intra(rng):
        cross = exp_pair(Tensor(rng.normal(size=(2, 8, 8)) * 0.2))
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        f = lambda z: L.reg_intra(*exp_pair(z), *cross, L.LossWeights())
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/reg_intra", loss_reg_intra)

    def loss_adversarial(rng):
        dnet = N.Encoder(N.EncoderSpec(2, [3, 4], out_dim=1, spectral_norm=False, activation="leaky"),
                         np.random.default_rng(7))
        rng.uniform(0, 1, size=(2, 8, 8))  # unused input draw, so the rest match the discriminator check's
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            _, g_loss = L.adversarial_losses(dnet, None, label, img_of(z))
            return g_loss
        pred = Tensor(rng.uniform(0, 1, size=(2, 8, 8)), requires_grad=True)
        return gc(f, pred, rng=rng)
    check("loss/adversarial_generator", loss_adversarial)

    def loss_adv_disc(rng):
        dnet = N.Encoder(N.EncoderSpec(4, [3, 4], out_dim=1, spectral_norm=False, activation="leaky"),
                         np.random.default_rng(9))
        x = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        pred = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        return _disc_grad(dnet, x, label, pred)
    check("loss/adversarial_discriminator", loss_adv_disc)

    return results


def _disc_grad(dnet, x, label, pred) -> float:
    """Finite-difference check of the discriminator loss against one of the
    discriminator's own weights, the final dense layer's."""
    fc = dnet.fc

    def d_loss(w):
        kept, fc.w = fc.w, w
        try:
            return L.adversarial_losses(dnet, x, label, pred)[0]
        finally:
            fc.w = kept

    return T.grad_check(d_loss, fc.w, eps=1e-6, coords=range(min(8, fc.w.size)))


# -- acceptance properties ------------------------------------------------------------
#
# One measurement per property of acceptance criteria 2-6 and 8. Each returns
# what it measured; the criteria and ``selftest_suite`` hold the bounds.


def tiny_dataset(rng, n: int, size: int) -> Dataset:
    """``n`` SC-preset pairs of ``size`` px; val and test are the first pair."""
    params = D.PRESETS["SC"].scaled(size)
    samples = []
    for _ in range(n):
        x, y_tilde, sd = make_pair(procedural_image(rng, size, size), params, rng)
        samples.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
    return Dataset(train=samples, val=samples[:1], test=samples[:1], image_size=size)


def diffeo_errors(rng, n: int, size: int) -> tuple[float, float]:
    """Over ``n`` random Gaussian SVFs: the worst mean distance (px) of
    ``svf_exp`` from a 1000-step Euler integration, and the worst mean
    distance of exp(v) o exp(-v) from the identity on its valid pixels."""
    grid = D._grid_array(size, size)
    worst_fwd = worst_inv = 0.0
    for _ in range(n):
        mu = rng.uniform(0, size, size=2)
        sigma = rng.uniform(10, 30, size=2)
        m = rng.uniform(-10, 10, size=2)
        v = D.gaussian_svf(mu, sigma, m, size, size)
        d = D.svf_exp(v)
        ref = oracles.euler_flow(v.field.data, steps=1000)
        worst_fwd = max(worst_fwd, float(np.sqrt(((d.coords.data - ref) ** 2).sum(axis=0)).mean()))
        rt = D.compose(d, D.svf_exp(-v))
        dev = np.sqrt(((rt.coords.data - grid) ** 2).sum(axis=0))
        worst_inv = max(worst_inv, float(dev[rt.mask].mean()))
    return worst_fwd, worst_inv


def rigid_penalty(rng, n: int, size: int) -> float:
    """Worst non-rigidity penalty over ``n`` random rigid maps (any turn
    within +-90 degrees about the centre, shifts within +-6 px)."""
    centre = (size - 1) / 2
    worst = 0.0
    for _ in range(n):
        p = D.RigidParams(rng.uniform(-math.pi / 2, math.pi / 2),
                          tuple(rng.uniform(-6, 6, size=2)), (centre, centre))
        d = D.rigid_to_deformation(p)
        worst = max(worst, float(L.nonrigidity(d, L.LossWeights(), size, size).data))
    return worst


def scaling_terms(size: int) -> tuple[float, float, float]:
    """(orthogonality, properness, affinity) of a uniform scaling by 2, whose
    analytic values are 2 * (4 - 1)^2 = 18, (4 - 1)^2 = 9 and 0."""
    terms = L.nonrigidity_terms(D.Deformation.from_affine(D.Affine(2.0, 0.0, 0.0, 2.0, 0.0, 0.0)),
                                size, size)
    return tuple(float(terms[k].data) for k in ("orthogonality", "properness", "affinity"))


def metric_errors(rng, n: int, size: int) -> tuple[float, bool]:
    """The worst |metric - loop oracle| of PSNR, SSIM, NMI and MDE over ``n``
    random instances, and whether the identities nmi(x, x) = 2,
    ssim(x, x) = 1 and mde(dense identity, identity) = 0 hold exactly."""
    grid = D._grid_array(size, size)
    worst = 0.0
    for _ in range(n):
        a = rng.uniform(0, 255, size=(3, size, size))
        b = rng.uniform(0, 255, size=(3, size, size))
        worst = max(worst, abs(M.psnr(a, b, 255) - oracles.psnr_loop(a, b, 255)),
                    abs(M.ssim(a, b, 255) - oracles.ssim_loop(a, b, 255)),
                    abs(M.nmi(a, b, 16) - oracles.nmi_loop(a, b, 16)))
        d1 = rng.normal(size=(2, size, size)) * 4 + grid
        d2 = rng.normal(size=(2, size, size)) * 4 + grid
        got = M.mde(D.Deformation.from_coords(Tensor(d1)), D.Deformation.from_coords(Tensor(d2)))
        worst = max(worst, abs(got - oracles.mde_loop(d1, d2)))
    x = rng.uniform(0, 255, size=(3, size, size))
    exact = (M.nmi(x, x) == 2.0 and M.ssim(x, x, 255) == 1.0
             and M.mde(D.Deformation.from_coords(Tensor(grid)), D.identity_map(size, size)) == 0.0)
    return worst, exact


def equivariance_errors(rng, n: int, size: int) -> tuple[float, float, float]:
    """For the ground-truth pointwise synthesis ``channel_swap`` on ``n``
    noise-free images (image k from seed 50 + k): the worst commutation loss
    under flips/90-degree turns and under 15-degree rotations, and the worst
    equivariance similarity against a label made with the true deformation."""
    params = D.PRESETS["SC"].scaled(size)
    worst = (0.0, 0.0, 0.0)
    for trial in range(n):
        img = procedural_image(np.random.default_rng(50 + trial), size, size, noise_amplitude=0.0)
        pred = channel_swap(img)
        t, _ = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), size, size)
        t15, t15_inv = D.sample_equivariance_transform(rng, D.TransformConfig(15.0, False, False), size, size)
        sd = D.simulate_deformation(params, rng, size, size)
        pred_t15 = channel_swap(D.warp(img, t15))
        losses = (L.commutation_loss(pred, channel_swap(D.warp(img, t)), t),
                  L.commutation_loss(pred, pred_t15, t15),
                  L.similarity_equivariance(pred_t15, D.warp(pred, sd.deformation), sd.deformation, t15_inv))
        worst = tuple(max(w, float(loss.data)) for w, (loss, _) in zip(worst, losses))
    return worst


# loss term -> the sub-networks it may train (the paper's stop-gradients)
ROUTES = {"rig_sim": {"h_rig"}, "cross_sim": {"h_svf"}, "cross_reg": {"h_svf"},
          "intra_sim": {"g_svf", "f"}, "intra_reg": {"g_svf", "f"}, "com": {"f"},
          "adv_g": {"g_svf", "f"}, "adv_d": {"d"}}


def gradient_routes(config: str, dataset: Dataset) -> dict[str, set[str]]:
    """Loss term -> the sub-networks that get a nonzero gradient when that
    term alone is backpropagated, on the first training pair of a tiny model.

    The output heads are moved off zero first: at exactly zero velocity the
    regularisers sit on a stationary point and would report vacuous zero
    gradients.
    """
    tr = Trainer(TrainConfig(config=config, epochs=1, seed=0, features_f=(4, 8), features_reg=(4, 8),
                             features_rig=(4, 8), features_disc=(4, 8)), dataset)
    pert = np.random.default_rng(60)
    for net in (tr.models.h_svf, tr.models.g_svf):
        net.head.w.data += pert.normal(size=net.head.w.data.shape) * 0.2
        net.head.b.data += pert.normal(size=net.head.b.data.shape) * 0.2
    tr.models.h_rig.fc.w.data += pert.normal(size=tr.models.h_rig.fc.w.data.shape) * 0.1
    terms, _, _, d_loss = tr.build_losses(dataset.train[0].x, dataset.train[0].y_tilde)
    if d_loss is not None:
        terms = {**terms, "adv_d": d_loss}
    groups = {name: getattr(tr.models, name).params() for name in ("f", "h_rig", "h_svf", "g_svf", "d")
              if getattr(tr.models, name) is not None}
    routes = {}
    for term, loss in terms.items():
        for ps in groups.values():
            for p in ps:
                p.grad = None
        loss.backward()
        routes[term] = {name for name, ps in groups.items()
                        if any(p.grad is not None and np.any(p.grad) for p in ps)}
    return routes


def determinism_faults(tmp: Path, dataset_of, steps: int, **cfg) -> list[str]:
    """Train two fresh models (``TrainConfig(**cfg)`` on ``dataset_of()``) for
    ``steps`` steps and compare their loss logs byte for byte; then resume the
    first from its mid-run checkpoint and compare the rest of its log with an
    uninterrupted run. Returns the comparisons that failed."""
    def log(name, trainer, max_steps=None):
        trainer.train(tmp / name, max_steps=max_steps)
        return (tmp / name / "losses.jsonl").read_bytes()

    first = [log(f"det{run}", Trainer(TrainConfig(**cfg), dataset_of()), steps) for run in range(2)]
    full = log("full", Trainer(TrainConfig(**cfg), dataset_of())).splitlines()
    resumed = log("resumed", Trainer.from_checkpoint(tmp / "det0" / "checkpoint", dataset_of()))
    faults = []
    if not first[0] or first[0] != first[1]:
        faults.append(f"first {steps} steps differ")
    if resumed.splitlines() != full[steps:]:
        faults.append("resumed run differs")
    return faults


# -- property selftests ----------------------------------------------------------------


def selftest_suite(quick: bool = True) -> list[CheckResult]:
    """The acceptance properties, measured on the criteria's seeds. ``quick``
    draws the first sixth of each random sample; without it every count is
    the criterion's own, so the numbers are the criteria's."""
    def count(n):
        return max(1, n // 6) if quick else n

    fwd, inv = diffeo_errors(np.random.default_rng(20240), count(50), 64)
    rigid = rigid_penalty(np.random.default_rng(3), count(100), 16)
    orth, prop, aff = scaling_terms(12)
    metric, exact = metric_errors(np.random.default_rng(4), count(50), 32)
    ortho, rot, sim = equivariance_errors(np.random.default_rng(5), count(10), 64)
    tol = 0.02 * 255

    faults = []
    def_routes = {k: v for k, v in ROUTES.items() if k not in ("com", "adv_g", "adv_d")}
    for config, want in (("EqSim+Com+EqAdv", ROUTES), ("DefSim", def_routes)):
        got = gradient_routes(config, tiny_dataset(np.random.default_rng(6), 2, 32))
        faults += [f"{config}:{term}->{sorted(got.get(term, ()))}"
                   for term in sorted(want.keys() | got.keys()) if got.get(term) != want.get(term)]

    with tempfile.TemporaryDirectory() as tmp:
        det = determinism_faults(Path(tmp), lambda: tiny_dataset(np.random.default_rng(8), 4, 32), 3,
                                 config="EqSim+Com", epochs=2, seed=0, features_f=(4, 8),
                                 features_reg=(4, 8), features_rig=(4, 8))

    return [
        CheckResult("diffeo/euler_agreement", fwd < 0.05, f"max mean err {fwd:.4f} px"),
        CheckResult("diffeo/inverse_consistency", inv < 0.1, f"max mean dev {inv:.4f} px"),
        CheckResult("rigidity/zero_on_rigid", rigid < 1e-9, f"max penalty {rigid:.2e}"),
        CheckResult("rigidity/uniform_scaling_analytic",
                    abs(orth - 18.0) < 1e-6 and abs(prop - 9.0) < 1e-6 and aff < 1e-6,
                    f"orth {orth:.6f} prop {prop:.6f} aff {aff:.2e}"),
        CheckResult("metrics/brute_force_agreement", metric < 1e-9, f"max |diff| {metric:.2e}"),
        CheckResult("metrics/identity_exactness", exact, "nmi=2, ssim=1, mde=0"),
        CheckResult("equivariance/pointwise_commutation", ortho == 0.0 and rot < tol and sim < tol,
                    f"ortho {ortho:.2e}, rot {rot:.3f}, sim {sim:.3f}"),
        CheckResult("routing/per_term_stop_gradients", not faults,
                    ", ".join(faults) if faults else "every term reaches exactly its sub-networks"),
        CheckResult("determinism/first_steps_bitwise", not det,
                    "; ".join(det) if det else "3 steps compared; mid-epoch resume identical"),
    ]
