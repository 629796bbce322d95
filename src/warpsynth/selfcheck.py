"""Built-in verification suites behind the CLI's gradcheck and selftest verbs.

``gradcheck_suite`` runs central-difference checks over every differentiable
operation and loss term on small random instances. ``selftest_suite`` runs
the structural property checks: diffeomorphism quality against a brute-force
flow integration, rigidity-penalty zeros, metric agreement with naive loops,
equivariance exactness for a known pointwise synthesis map, stop-gradient
routing, and training determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def logexp(rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        f = lambda z: T.mean(T.log(z)) + T.mean(T.exp(-z)) + T.mean(T.sqrt(z)) + T.mean(T.sigmoid(z))
        return gc(f, a)
    check("log_exp_sqrt_sigmoid", logexp)

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
        worst = gc(lambda z: T.mean(T.conv_transpose2d(z, w, b, 2) * pert), x)
        worst = max(worst, gc(lambda z: T.mean(T.conv_transpose2d(x, z, b, 2) * pert), w))
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
        t, t_inv = D.sample_equivariance_transform(np.random.default_rng(1), D.TransformConfig(12, True, True), 8, 8)
        fwd = lambda im: D.Image(net.forward(im.data), im.mask)
        f = lambda z: L.commutation_loss(fwd, img_of(z), t, t_inv)[0]
        return gc(f, Tensor(rng.uniform(0, 1, size=(2, 8, 8)), requires_grad=True), rng=rng)
    check("loss/commutation", loss_com)

    def loss_rigid_cross(rng):
        pred = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            p = N.rigid_head(z, math.pi / 8, 2.0, (3.5, 3.5))
            return L.rigid_cross_sim(pred, label, D.rigid_to_deformation(p))[0]
        return gc(f, t(rng, 3, scale=0.4), eps=1e-6)
    check("loss/rigid_cross_sim", loss_rigid_cross)

    def loss_elastic_cross(rng):
        pred = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            d_cross = D.compose(D.svf_exp(D.Svf(z), squarings=2), D.identity_affine())
            return L.elastic_cross_sim(pred, label, d_cross)[0]
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/elastic_cross_sim", loss_elastic_cross)

    def loss_nonrigidity(rng):
        base = D.svf_exp(D.gaussian_svf((5, 4), (4, 3), (0.9, -0.8), 10, 10)).coords.data
        f = lambda z: L.nonrigidity(D.Deformation.from_coords(z))
        return gc(f, Tensor(base, requires_grad=True), eps=1e-6, rng=rng)
    check("loss/nonrigidity", loss_nonrigidity)

    def loss_reg_cross(rng):
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        f = lambda z: L.reg_cross(D.Svf(z), L.LossWeights())
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/reg_cross", loss_reg_cross)

    def loss_reg_intra(rng):
        vc = D.Svf(Tensor(rng.normal(size=(2, 8, 8)) * 0.2))
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        f = lambda z: L.reg_intra(D.Svf(z), vc, L.LossWeights())
        return gc(f, v, eps=1e-6, rng=rng)
    check("loss/reg_intra", loss_reg_intra)

    def loss_adversarial(rng):
        dnet = N.Encoder(N.EncoderSpec(2, [3, 4], out_dim=1, spectral_norm=False, activation="leaky"),
                         np.random.default_rng(7))
        x = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        label = img_of(rng.uniform(0, 1, size=(2, 8, 8)))
        def f(z):
            _, g_loss = L.adversarial_losses(dnet, x, label, img_of(z), None, "def-uncond-adv")
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
    discriminator's own weights."""
    probe = dnet.fc.w
    d_loss, _ = L.adversarial_losses(dnet, x, label, pred, None, "def-cond-adv")
    for p in dnet.params():
        p.grad = None
    d_loss.backward()
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)
    eps = 1e-6
    worst = 0.0
    flat = probe.data.ravel()
    for i in range(min(8, flat.size)):
        orig = flat[i]
        with T.no_grad():
            flat[i] = orig + eps
            fp = float(L.adversarial_losses(dnet, x, label, pred, None, "def-cond-adv")[0].data)
            flat[i] = orig - eps
            fm = float(L.adversarial_losses(dnet, x, label, pred, None, "def-cond-adv")[0].data)
            flat[i] = orig
        numeric = (fp - fm) / (2 * eps)
        a = analytic.ravel()[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


# -- property selftests ----------------------------------------------------------------


def selftest_suite(quick: bool = True) -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(2024)

    # diffeomorphism quality
    n_fields = 8 if quick else 50
    worst_fwd, worst_inv = 0.0, 0.0
    for _ in range(n_fields):
        mu = rng.uniform(0, 64, size=2)
        sigma = rng.uniform(10, 30, size=2)
        m = rng.uniform(-10, 10, size=2)
        v = D.gaussian_svf(mu, sigma, m, 64, 64)
        d = D.svf_exp(v)
        ref = oracles.euler_flow(v.field.data, steps=1000)
        worst_fwd = max(worst_fwd, float(np.sqrt(((d.coords.data - ref) ** 2).sum(axis=0)).mean()))
        rt = D.compose(D.svf_exp(v), D.svf_exp(-v))
        dev = np.sqrt(((rt.coords.data - D._grid_array(64, 64)) ** 2).sum(axis=0))
        worst_inv = max(worst_inv, float(dev[rt.mask].mean()))
    results.append(CheckResult("diffeo/euler_agreement", worst_fwd < 0.05, f"max mean err {worst_fwd:.4f} px"))
    results.append(CheckResult("diffeo/inverse_consistency", worst_inv < 0.1, f"max mean dev {worst_inv:.4f} px"))

    # rigidity penalty zeros and analytic values
    n_rigid = 20 if quick else 100
    worst = 0.0
    for _ in range(n_rigid):
        p = D.RigidParams(rng.uniform(-math.pi / 2, math.pi / 2), tuple(rng.uniform(-5, 5, 2)), (7.5, 7.5))
        val = float(L.nonrigidity(D.rigid_to_deformation(p), h=16, w=16).data)
        worst = max(worst, val)
    results.append(CheckResult("rigidity/zero_on_rigid", worst < 1e-9, f"max penalty {worst:.2e}"))
    scale2 = D.Deformation.from_affine(D.Affine(2.0, 0.0, 0.0, 2.0, 0.0, 0.0))
    terms = L.nonrigidity_terms(scale2, 12, 12)
    o = float(terms["orthogonality"].data)
    pr = float(terms["properness"].data)
    ok = abs(o - 18.0) < 1e-6 and abs(pr - 9.0) < 1e-6
    results.append(CheckResult("rigidity/uniform_scaling_analytic", ok, f"orth {o:.6f} prop {pr:.6f}"))

    # metrics vs brute-force loops
    n_img = 5 if quick else 50
    worst = 0.0
    for _ in range(n_img):
        a = rng.uniform(0, 255, size=(3, 16, 16))
        b = rng.uniform(0, 255, size=(3, 16, 16))
        worst = max(worst, abs(M.psnr(a, b, 255) - oracles.psnr_loop(a, b, 255)))
        worst = max(worst, abs(M.ssim(a, b, 255) - oracles.ssim_loop(a, b, 255)))
        worst = max(worst, abs(M.nmi(a, b, 16) - oracles.nmi_loop(a, b, 16)))
        d1 = rng.normal(size=(2, 16, 16)) * 3 + D._grid_array(16, 16)
        d2 = rng.normal(size=(2, 16, 16)) * 3 + D._grid_array(16, 16)
        got = M.mde(D.Deformation.from_coords(Tensor(d1)), D.Deformation.from_coords(Tensor(d2)))
        worst = max(worst, abs(got - oracles.mde_loop(d1, d2)))
    results.append(CheckResult("metrics/brute_force_agreement", worst < 1e-9, f"max |diff| {worst:.2e}"))

    x = rng.uniform(0, 255, size=(3, 16, 16))
    exact = (M.nmi(x, x) == 2.0 and M.ssim(x, x, 255) == 1.0
             and M.mde(D.Deformation.from_coords(Tensor(D._grid_array(16, 16))),
                       D.identity_map(16, 16)) == 0.0)
    results.append(CheckResult("metrics/identity_exactness", exact, "nmi=2, ssim=1, mde=0"))

    # equivariance exactness with the ground-truth pointwise synthesis
    img = procedural_image(np.random.default_rng(5), 64, 64, noise_amplitude=0.0)
    worst_ortho, worst_rot = 0.0, 0.0
    for trial in range(10):
        t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), 64, 64)
        com = float(L.commutation_loss(channel_swap, img, t, t_inv)[0].data)
        worst_ortho = max(worst_ortho, com)
        t15, t15i = D.sample_equivariance_transform(rng, D.TransformConfig(15.0, False, False), 64, 64)
        com15 = float(L.commutation_loss(channel_swap, img, t15, t15i)[0].data)
        worst_rot = max(worst_rot, com15)
    ok = worst_ortho == 0.0 and worst_rot < 0.02 * 255
    results.append(CheckResult("equivariance/pointwise_commutation", ok,
                               f"ortho {worst_ortho:.2e}, rot {worst_rot:.3f}"))

    # stop-gradient routing on a tiny bundle
    results.append(_routing_check())

    # determinism of a small training
    results.append(_determinism_check())
    return results


def _tiny_dataset(n=3, size=32, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    params = D.PRESETS["SC"].scaled(size)
    samples = []
    for _ in range(n):
        x = procedural_image(rng, size, size)
        x, y_tilde, sd = make_pair(x, params, rng)
        samples.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
    return Dataset(train=samples, val=samples[:1], test=samples[:1], image_size=size)


def _tiny_cfg(**kw) -> TrainConfig:
    base = dict(config="EqSim+Com", epochs=1, seed=0, features_f=(4, 8), features_reg=(4, 8),
                features_rig=(4, 8), features_disc=(4, 8))
    base.update(kw)
    return TrainConfig(**base)


def _routing_check() -> CheckResult:
    """Backpropagating each loss term alone must leave gradients only on the
    parameter groups its attribution allows."""
    ds = _tiny_dataset()
    tr = Trainer(_tiny_cfg(config="EqSim+Com+EqAdv"), ds)
    terms, _, _, d_loss = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)

    groups = {
        "f": tr.models.f.params(),
        "h_rig": tr.models.h_rig.params(),
        "h_svf": tr.models.h_svf.params(),
        "g_svf": tr.models.g_svf.params(),
        "d": tr.models.d.params(),
    }
    allowed = {
        "rig_sim": {"h_rig"},
        "cross_sim": {"h_svf"},
        "cross_reg": {"h_svf"},
        "intra_sim": {"g_svf", "f"},
        "intra_reg": {"g_svf", "f"},
        "com": {"f"},
        "adv_g": {"g_svf", "f"},
    }
    failures = []
    for term, tensor_ in list(terms.items()) + [("adv_d", d_loss)]:
        for p in [p for ps in groups.values() for p in ps]:
            p.grad = None
        tensor_.backward()
        ok_groups = allowed.get(term, {"d"})
        for gname, ps in groups.items():
            has = any(p.grad is not None and np.any(p.grad) for p in ps)
            if gname not in ok_groups and has:
                failures.append(f"{term}->{gname}")
    return CheckResult("routing/per_term_stop_gradients", not failures,
                       "leaks: " + ",".join(failures) if failures else "all terms routed")


def _determinism_check() -> CheckResult:
    import tempfile, shutil, json
    from pathlib import Path
    tmp = Path(tempfile.mkdtemp())
    try:
        logs = []
        for run in range(2):
            ds = _tiny_dataset()
            tr = Trainer(_tiny_cfg(), ds)
            tr.train(tmp / f"run{run}", max_steps=3)
            logs.append((tmp / f"run{run}" / "losses.jsonl").read_text())
        ok = logs[0] == logs[1] and logs[0].strip()
        return CheckResult("determinism/first_steps_bitwise", bool(ok), "3 steps compared")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
