"""Acceptance criteria.

One test per criterion; each prints a single summary line when it passes.
The desk-scale training reproduction (criterion 7) trains real models on the
CPU and dominates the suite's runtime; everything else finishes in a couple
of minutes. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from warpsynth import tensor as T
from warpsynth.tensor import Tensor
from warpsynth import deform as D
from warpsynth import losses as L
from warpsynth import metrics as M
from warpsynth import selfcheck
from warpsynth.datagen import Dataset, Sample, channel_swap, make_pair, procedural_image
from warpsynth import trainer as TR

from warpsynth import oracles


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = selfcheck.gradcheck_suite(seeds=20, tol=1e-4)
    elapsed = time.time() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"gradient checks failed: {failed}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(float(r.detail.split()[-1]) for r in results)
    report(1, f"{len(results)} op/loss checks x 20 seeds, worst rel err {worst:.2e}, {elapsed:.0f}s")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_diffeomorphism_suite():
    rng = np.random.default_rng(20240)
    worst_fwd = worst_inv = 0.0
    for _ in range(50):
        mu = rng.uniform(0, 64, size=2)
        sigma = rng.uniform(10, 30, size=2)
        m = rng.uniform(-10, 10, size=2)
        v = D.gaussian_svf(mu, sigma, m, 64, 64)
        d = D.svf_exp(v)
        ref = oracles.euler_flow(v.field.data, steps=1000)
        err = float(np.sqrt(((d.coords.data - ref) ** 2).sum(axis=0)).mean())
        worst_fwd = max(worst_fwd, err)
        rt = D.compose(D.svf_exp(v), D.svf_exp(-v))
        dev = np.sqrt(((rt.coords.data - D._grid_array(64, 64)) ** 2).sum(axis=0))
        worst_inv = max(worst_inv, float(dev[rt.mask].mean()))
    assert worst_fwd < 0.05, worst_fwd
    assert worst_inv < 0.1, worst_inv
    report(2, f"50 SVFs: max Euler deviation {worst_fwd:.4f} px, max inverse deviation {worst_inv:.4f} px")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_rigidity_penalty():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        p = D.RigidParams(rng.uniform(-math.pi / 2, math.pi / 2),
                          tuple(rng.uniform(-6, 6, size=2)), (7.5, 7.5))
        val = float(L.nonrigidity(D.rigid_to_deformation(p), h=16, w=16).data)
        worst = max(worst, val)
    assert worst < 1e-9, worst
    scale2 = D.Deformation.from_affine(D.Affine(2.0, 0.0, 0.0, 2.0, 0.0, 0.0))
    terms = L.nonrigidity_terms(scale2, 12, 12)
    orth = float(terms["orthogonality"].data)
    prop = float(terms["properness"].data)
    aff = float(terms["affinity"].data)
    assert abs(orth - 18.0) < 1e-6 and abs(prop - 9.0) < 1e-6 and aff < 1e-6
    report(3, f"100 rigid deformations max penalty {worst:.2e}; scaling-by-2 gives orth {orth:.6f}, prop {prop:.6f}")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0, 255, size=(3, 32, 32))
        b = rng.uniform(0, 255, size=(3, 32, 32))
        worst = max(worst, abs(M.psnr(a, b, 255) - oracles.psnr_loop(a, b, 255)))
        worst = max(worst, abs(M.ssim(a, b, 255) - oracles.ssim_loop(a, b, 255)))
        worst = max(worst, abs(M.nmi(a, b, 16) - oracles.nmi_loop(a, b, 16)))
        d1 = rng.normal(size=(2, 32, 32)) * 4 + D._grid_array(32, 32)
        d2 = rng.normal(size=(2, 32, 32)) * 4 + D._grid_array(32, 32)
        got = M.mde(D.Deformation.from_coords(Tensor(d1)), D.Deformation.from_coords(Tensor(d2)))
        worst = max(worst, abs(got - oracles.mde_loop(d1, d2)))
    assert worst < 1e-9, worst
    x = rng.uniform(0, 255, size=(3, 32, 32))
    assert M.nmi(x, x) == 2.0
    assert M.ssim(x, x, 255) == 1.0
    ident = D.identity_map(32, 32)
    assert M.mde(ident, D.identity_map(32, 32)) == 0.0
    report(4, f"50 random 32x32 instances, max |metric - loop oracle| {worst:.2e}; exact identities hold")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_equivariance_exactness():
    rng = np.random.default_rng(5)
    tol = 0.02 * 255
    worst_ortho = worst_rot = worst_sim = 0.0
    for trial in range(10):
        img = procedural_image(np.random.default_rng(50 + trial), 64, 64, noise_amplitude=0.0)
        t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), 64, 64)
        com = float(L.commutation_loss(channel_swap, img, t, t_inv)[0].data)
        worst_ortho = max(worst_ortho, com)
        t15, t15i = D.sample_equivariance_transform(rng, D.TransformConfig(15.0, False, False), 64, 64)
        com15 = float(L.commutation_loss(channel_swap, img, t15, t15i)[0].data)
        worst_rot = max(worst_rot, com15)

        sd = D.simulate_deformation(D.PRESETS["SC"].scaled(64), rng, 64, 64)
        y_tilde = D.warp(channel_swap(img), sd.deformation)
        pred_t = channel_swap(D.warp(img, t15))
        sim = float(L.similarity_equivariance(pred_t, y_tilde, sd.deformation, t15i)[0].data)
        worst_sim = max(worst_sim, sim)
    assert worst_ortho == 0.0, worst_ortho
    assert worst_rot < tol, worst_rot
    assert worst_sim < tol, worst_sim
    report(5, f"pointwise-swap commutation: flips/90deg exactly 0; 15deg {worst_rot:.3e}; "
              f"equivariance similarity with true deformation {worst_sim:.3f} < {tol:.1f}")


# 6 ---------------------------------------------------------------------------


def _routing_case(config, expected):
    rng = np.random.default_rng(6)
    params = D.PRESETS["SC"].scaled(32)
    samples = []
    for _ in range(2):
        x = procedural_image(rng, 32, 32)
        x, y_tilde, sd = make_pair(x, params, rng)
        samples.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
    ds = Dataset(train=samples, val=samples[:1], test=samples[:1], image_size=32)
    cfg = TR.TrainConfig(config=config, epochs=1, seed=0, features_f=(4, 8), features_reg=(4, 8),
                         features_rig=(4, 8), features_disc=(4, 8))
    tr = TR.Trainer(cfg, ds)
    # move the zero-initialized output heads to a generic point: at exactly
    # zero velocity the regularizers sit on a stationary point and would
    # report vacuous zero gradients
    pert = np.random.default_rng(60)
    for net in (tr.models.h_svf, tr.models.g_svf):
        net.head.w.data += pert.normal(size=net.head.w.data.shape) * 0.2
        net.head.b.data += pert.normal(size=net.head.b.data.shape) * 0.2
    tr.models.h_rig.fc.w.data += pert.normal(size=tr.models.h_rig.fc.w.data.shape) * 0.1
    terms, _, _, d_loss = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)
    if d_loss is not None:
        terms = {**terms, "adv_d": d_loss}

    groups = {name: net.params() for name, net in
              (("f", tr.models.f), ("h_rig", tr.models.h_rig), ("h_svf", tr.models.h_svf),
               ("g_svf", tr.models.g_svf), ("d", tr.models.d)) if net is not None}
    leaks, missing = [], []
    for term, allowed in expected.items():
        for ps in groups.values():
            for p in ps:
                p.grad = None
        terms[term].backward()
        for gname, ps in groups.items():
            has = any(p.grad is not None and np.any(p.grad) for p in ps)
            if gname in allowed and not has:
                missing.append(f"{config}:{term}->{gname}")
            if gname not in allowed and has:
                leaks.append(f"{config}:{term}->{gname}")
    return leaks, missing


def test_criterion_6_stop_gradient_routing():
    eq_expected = {
        "rig_sim": {"h_rig"},
        "cross_sim": {"h_svf"},
        "cross_reg": {"h_svf"},
        "intra_sim": {"g_svf", "f"},
        "intra_reg": {"g_svf", "f"},
        "com": {"f"},
        "adv_g": {"g_svf", "f"},
        "adv_d": {"d"},
    }
    def_expected = {k: v for k, v in eq_expected.items() if k not in ("com", "adv_g", "adv_d")}
    leaks, missing = _routing_case("EqSim+Com+EqAdv", eq_expected)
    l2, m2 = _routing_case("DefSim", def_expected)
    leaks += l2
    missing += m2
    assert not leaks, f"gradient reached excluded parameter sets: {leaks}"
    assert not missing, f"gradient missing on attributed parameter sets: {missing}"
    report(6, "per-term backward touches exactly the attributed sub-networks "
              "(EqSim+Com+EqAdv: 8 terms; DefSim: 5 terms)")


# 7 ---------------------------------------------------------------------------

SC_STYLE_96 = D.SimDeformParams(
    translation=((1, 1), (-1, -1)), rotation_deg=(-1, -1),
    mu=((28.8, 28.8), (67.2, 67.2)), sigma=((14.4, 14.4), (19.2, 19.2)),
    m=((2, 2), (-2, -2)), random=False, base_size=96)

DESK = dict(features_f=(8, 16, 32), features_reg=(8, 16, 32), features_rig=(8, 16, 32),
            lr_main=1e-3, w_reg=0.1)
MAIN_EPOCHS = 10
EXTRA_SEED_EPOCHS = 3


@pytest.fixture(scope="module")
def sc_dataset():
    rng = np.random.default_rng(7)

    def split(n):
        out = []
        for _ in range(n):
            x = procedural_image(rng, 96, 96)
            x, y_tilde, sd = make_pair(x, SC_STYLE_96, rng)
            out.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
        return out

    return Dataset(train=split(200), val=split(20), test=split(50), image_size=96)


def test_criterion_7_synthetic_reproduction(sc_dataset, tmp_path):
    t_start = time.time()
    ds = sc_dataset

    # (a) EqSim+Com converges
    tr_eq = TR.Trainer(TR.TrainConfig(config="EqSim+Com", epochs=MAIN_EPOCHS, seed=0, **DESK), ds)
    res_eq = tr_eq.train(tmp_path / "eqsim_com")
    first5 = res_eq.val_history[:5]
    assert all(a > b for a, b in zip(first5, first5[1:])), \
        f"validation not decreasing over first 5 epochs: {first5}"
    final_mde = tr_eq.validation_mde()
    assert final_mde < 1.5, f"final validation MDE {final_mde:.3f} px"

    # (b) PSNR ordering against the NoReg+Aug baseline, trained identically
    tr_nr = TR.Trainer(TR.TrainConfig(config="NoReg+Aug", epochs=MAIN_EPOCHS, seed=0, **DESK), ds)
    tr_nr.train(tmp_path / "noreg_aug")
    rep_eq, _ = TR.evaluate_model(tr_eq, ds.test)
    rep_nr, _ = TR.evaluate_model(tr_nr, ds.test)
    psnr_eq = rep_eq.aggregates()["psnr"]
    psnr_nr = rep_nr.aggregates()["psnr"]
    assert psnr_eq > psnr_nr, f"EqSim+Com PSNR {psnr_eq:.2f} !> NoReg+Aug PSNR {psnr_nr:.2f}"

    # (c) stability across seeds; DefSim outcome recorded but not asserted
    seed_mdes = [final_mde]
    for seed in (1, 2):
        tr_s = TR.Trainer(TR.TrainConfig(config="EqSim+Com", epochs=EXTRA_SEED_EPOCHS,
                                         seed=seed, **DESK), ds)
        res_s = tr_s.train(tmp_path / f"eqsim_seed{seed}")
        mde_s = tr_s.validation_mde()
        assert not res_s.diverged
        assert mde_s < 5.0, f"seed {seed} final MDE {mde_s:.3f}"
        seed_mdes.append(mde_s)

    defsim_outcome = "not run"
    try:
        tr_d = TR.Trainer(TR.TrainConfig(config="DefSim", epochs=EXTRA_SEED_EPOCHS, seed=0, **DESK), ds)
        tr_d.train(tmp_path / "defsim")
        defsim_outcome = f"converged, final MDE {tr_d.validation_mde():.3f} px"
    except TR.TrainingDiverged as exc:
        defsim_outcome = f"diverged ({exc})"

    minutes = (time.time() - t_start) / 60
    assert minutes < 60, f"criterion 7 exceeded the one-hour budget: {minutes:.1f} min"
    report(7, f"EqSim+Com val {res_eq.val_history[0]:.3f}->{res_eq.val_history[-1]:.3f}, "
              f"final MDE {final_mde:.3f} px; PSNR {psnr_eq:.2f} > NoReg+Aug {psnr_nr:.2f}; "
              f"seed MDEs {['%.2f' % m for m in seed_mdes]}; DefSim (recorded): {defsim_outcome}; "
              f"{minutes:.1f} min")


# 8 ---------------------------------------------------------------------------


def _mini_dataset():
    rng = np.random.default_rng(8)
    params = D.PRESETS["SC"].scaled(32)
    samples = []
    for _ in range(4):
        x = procedural_image(rng, 32, 32)
        x, y_tilde, sd = make_pair(x, params, rng)
        samples.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
    return Dataset(train=samples, val=samples[:1], test=samples[:1], image_size=32)


def test_criterion_8_determinism(tmp_path):
    cfg_kw = dict(config="EqSim+Com", epochs=2, seed=0, features_f=(4, 8),
                  features_reg=(4, 8), features_rig=(4, 8), deterministic=True)
    logs = []
    for run in range(2):
        tr = TR.Trainer(TR.TrainConfig(**cfg_kw), _mini_dataset())
        tr.train(tmp_path / f"det{run}", max_steps=3)
        logs.append((tmp_path / f"det{run}" / "losses.jsonl").read_bytes())
    assert logs[0] == logs[1] and logs[0]

    tr_full = TR.Trainer(TR.TrainConfig(**cfg_kw), _mini_dataset())
    tr_full.train(tmp_path / "full")
    full = (tmp_path / "full" / "losses.jsonl").read_text().splitlines()
    tr_a = TR.Trainer(TR.TrainConfig(**cfg_kw), _mini_dataset())
    tr_a.train(tmp_path / "part", max_steps=3)  # interrupts mid-epoch
    tr_b = TR.Trainer.from_checkpoint(tmp_path / "part" / "checkpoint", _mini_dataset())
    tr_b.train(tmp_path / "resumed")
    resumed = (tmp_path / "resumed" / "losses.jsonl").read_text().splitlines()
    assert resumed == full[3:]
    report(8, "first 3 steps bit-identical across runs; mid-epoch checkpoint resume bit-identical")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_epoch_selection():
    assert TR.select_best_epoch([5, 4, 3, 2, 1, 0.5, 0.4]) == 6
    assert TR.select_best_epoch([0.1, 9, 8, 7, 6, 5, 4]) == 6  # early best outside window
    assert TR.select_best_epoch([9, 9, 9, 2.0, 5.0, 2.0, 2.0]) == 3  # earliest tie inside window
    assert TR.select_best_epoch([3.0]) == 0
    assert TR.select_best_epoch([2, 1, 2, 2, 2, 2, 2, 2]) == 2  # window excludes the true optimum
    report(9, "argmin over the last six epochs with earliest-tie-wins verified on fixtures")
