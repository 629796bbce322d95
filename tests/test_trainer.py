"""Trainer: configuration parsing, patch sampling, stepping, turn-taking,
validation rules, epoch selection, determinism and checkpoint resume."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpsynth import tensor as T
from warpsynth.tensor import Tensor
from warpsynth import deform as D
from warpsynth import losses as L
from warpsynth import metrics as M
from warpsynth.datagen import Dataset, Sample, channel_swap, make_pair, procedural_image
from warpsynth import selfcheck
from warpsynth import trainer as TR

from warpsynth import oracles


def tiny_dataset(n=4, size=32, seed=0, preset="SC"):
    rng = np.random.default_rng(seed)
    params = D.PRESETS[preset].scaled(size)
    samples = []
    for _ in range(n):
        x = procedural_image(rng, size, size)
        x, y_tilde, sd = make_pair(x, params, rng)
        samples.append(Sample(x=x, y_tilde=y_tilde, d_true=sd.deformation))
    return Dataset(train=samples, val=samples[:2], test=samples[:2], image_size=size)


def tiny_cfg(**kw):
    base = dict(config="EqSim+Com", epochs=1, seed=0, features_f=(4, 8), features_reg=(4, 8),
                features_rig=(4, 8), features_disc=(4, 8))
    base.update(kw)
    return TR.TrainConfig(**base)


@st.composite
def train_configs(draw):
    """A TrainConfig with every field drawn from its default's type: any
    bool, int, non-NaN float, tuple of ints or text."""
    values = {}
    for field in dataclasses.fields(TR.TrainConfig):
        default = field.default
        if isinstance(default, bool):
            values[field.name] = draw(st.booleans())
        elif isinstance(default, int):
            values[field.name] = draw(st.integers())
        elif isinstance(default, float):
            values[field.name] = draw(st.floats(allow_nan=False))
        elif isinstance(default, tuple):
            values[field.name] = tuple(draw(st.lists(st.integers(), max_size=5)))
        else:
            values[field.name] = draw(st.text())
    return TR.TrainConfig(**values)


class TestConfig:
    def test_parse_names(self):
        plan = TR.parse_config_name("EqSim+Com")
        assert plan.registration and plan.sim_mode == "eq" and plan.use_com and plan.adv_mode is None
        plan = TR.parse_config_name("DefSim+DefUncondAdv")
        assert plan.sim_mode == "def" and plan.adv_mode == "def-uncond-adv"
        plan = TR.parse_config_name("NoReg+Aug")
        assert not plan.registration and plan.augment and plan.sim_mode == "none"
        plan = TR.parse_config_name("Com")
        assert plan.use_com and plan.sim_mode == "def"

    def test_parse_rejects_conflicts(self):
        with pytest.raises(ValueError):
            TR.parse_config_name("EqSim+DefSim")
        with pytest.raises(ValueError):
            TR.parse_config_name("NoReg+Com")
        with pytest.raises(ValueError):
            TR.parse_config_name("Bogus")

    @settings(max_examples=100, deadline=None, database=None)
    @given(train_configs())
    @example(tiny_cfg(epochs=7, lr_main=1e-4, flips=False))
    def test_kv_round_trip(self, cfg):
        assert TR.TrainConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_unknown_key(self):
        with pytest.raises(ValueError):
            TR.TrainConfig.from_kv({"not_a_key": "1"})

    def test_uncond_adv_forces_full_valid_patches(self):
        cfg = tiny_cfg(config="DefSim+DefUncondAdv")
        assert cfg.patch_threshold() == 1.0
        assert tiny_cfg().patch_threshold() == 0.40

    def test_lr_defaults(self):
        cfg = TR.TrainConfig()
        assert cfg.lr_main == 2e-4 and cfg.lr_disc == 4e-4


class TestSamplePatch:
    def test_fully_valid_always_accepted(self, rng):
        img = procedural_image(rng, 32, 32)
        out = TR.sample_patch((img, img), 16, 0.4, rng, max_retries=1)
        assert out is not None
        assert out[0].extents == (16, 16)

    def test_hole_rejected_at_full_threshold(self, rng):
        mask = np.ones((32, 32), dtype=bool)
        mask[8:24, 8:24] = False
        img = D.Image(Tensor(rng.uniform(size=(1, 32, 32))), mask)
        for _ in range(20):
            out = TR.sample_patch((img, img), 24, 1.0, rng, max_retries=10)
            assert out is None  # every 24x24 window overlaps the hole

    def test_acceptance_rate_matches_combinatorics(self, rng):
        mask = np.zeros((24, 24), dtype=bool)
        mask[:, :12] = True
        img = D.Image(Tensor(rng.uniform(size=(1, 24, 24))), mask)
        size, threshold = 8, 0.6
        p_exact = oracles.patch_acceptance_probability(mask, size, threshold)
        n = 10_000
        hits = sum(TR.sample_patch((img, img), size, threshold, rng, max_retries=1) is not None
                   for _ in range(n))
        sigma = math.sqrt(n * p_exact * (1 - p_exact))
        assert abs(hits - n * p_exact) < 3 * sigma

    def test_patch_larger_than_image(self, rng):
        img = procedural_image(rng, 32, 32)
        with pytest.raises(ValueError):
            TR.sample_patch((img, img), 40, 0.4, rng)


class TestSelectBestEpoch:
    def test_window_of_last_six(self):
        assert TR.select_best_epoch([5, 4, 3, 2, 1, 0.5, 0.4]) == 6

    def test_early_best_ignored(self):
        history = [0.1, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        assert TR.select_best_epoch(history) == 9

    def test_tie_takes_earliest(self):
        assert TR.select_best_epoch([9, 9, 9, 9, 9, 2.0, 2.0]) == 5

    def test_short_history(self):
        assert TR.select_best_epoch([3.0, 1.0]) == 1
        with pytest.raises(ValueError):
            TR.select_best_epoch([])


class TestSteps:
    def test_noreg_loss_is_plain_l1(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(config="NoReg")
        tr = TR.Trainer(cfg, ds)
        s = ds.train[0]
        _, report, total, d_loss = tr.build_losses(s.x, s.y_tilde)
        # losses run on intensity-normalized images
        direct, _ = L.masked_l1(tr._predict_scaled(tr._scaled(s.x)), tr._scaled(s.y_tilde))
        assert report.terms["sim"] == pytest.approx(direct.item(), rel=1e-12)
        assert d_loss is None

    @pytest.mark.parametrize("config, keys", [
        ("NoReg+Aug", ["sim"]),
        ("EqSim", ["rig_sim", "cross_sim", "cross_reg", "intra_sim", "intra_reg"]),
        ("EqSim+Com", ["rig_sim", "cross_sim", "cross_reg", "intra_sim", "intra_reg", "com"]),
        ("DefSim+DefCondAdv", ["rig_sim", "cross_sim", "cross_reg", "intra_sim", "intra_reg", "adv_g"]),
        ("EqSim+Com+EqAdv", ["rig_sim", "cross_sim", "cross_reg", "intra_sim", "intra_reg", "com",
                             "adv_g"]),
    ])
    def test_terms_each_config_trains(self, config, keys):
        # total_loss weights whatever it is given, so the term set each
        # configuration trains is fixed here; the order is the log's key order
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config=config), ds)
        terms, report, total, _ = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)
        assert list(terms) == keys and list(report.terms) == keys
        assert report.total == total.item()

    def test_zero_init_starts_at_identity(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        s = ds.train[0]
        pred = tr.infer(s.x)["prediction"]
        fw = tr._registration_forward(s.x, s.y_tilde, pred)
        ident = D.identity_map(*s.x.extents)
        assert np.array_equal(fw.d_intra.coords.data, ident.coords.data)
        a, b = fw.rigid.affine.as_arrays()
        assert np.array_equal(a, np.eye(2)) and np.array_equal(b, np.zeros(2))
        assert np.array_equal(fw.d_cross.dense_coords(32, 32).data, ident.coords.data)

    def test_first_step_finite_and_positive(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        report, _ = tr.generator_step(ds.train[0])
        assert math.isfinite(report.total)
        assert report.total > 0

    def test_nan_aborts(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        tr.models.f.head.w.data[:] = np.nan
        with pytest.raises(TR.TrainingDiverged):
            tr.generator_step(ds.train[0])

    def test_discriminator_turn_taking(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="EqSim+Com+EqAdv"), ds)
        gen_before = [p.data.copy() for p in tr.opt_main.params]
        disc_before = [p.data.copy() for p in tr.opt_disc.params]
        report, d_loss = tr.generator_step(ds.train[0])
        disc_mid = [p.data.copy() for p in tr.opt_disc.params]
        assert all(np.array_equal(a, b) for a, b in zip(disc_before, disc_mid))
        assert any(not np.array_equal(a, p.data) for a, p in zip(gen_before, tr.opt_main.params))
        val = tr.discriminator_step(d_loss)
        gen_mid = [p.data.copy() for p in tr.opt_main.params]
        assert math.isfinite(val)
        # discriminator update must not move generator weights
        tr_gen_after = [p.data for p in tr.opt_main.params]
        assert all(np.array_equal(a, b) for a, b in zip(gen_mid, tr_gen_after))
        assert any(not np.array_equal(a, p.data) for a, p in zip(disc_mid, tr.opt_disc.params))

    def test_detach_routing_after_steps(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="EqSim+Com+EqAdv"), ds)
        _, _, total, d_loss = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)
        for p in tr.opt_main.params + tr.opt_disc.params:
            p.grad = None
        total.backward()
        assert all(p.grad is None for p in tr.opt_disc.params)
        for p in tr.opt_main.params + tr.opt_disc.params:
            p.grad = None
        d_loss.backward()
        assert all(p.grad is None for p in tr.opt_main.params)
        assert any(p.grad is not None and np.any(p.grad) for p in tr.opt_disc.params)

    def test_disc_loss_near_two_log_two_at_init(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="DefSim+DefCondAdv"), ds)
        _, report, _, d_loss = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)
        assert abs(float(d_loss.data) - 2 * math.log(2)) < 0.5

    def test_optimal_disc_bound_for_identical_pairs(self):
        # if labels equal predictions, any p gives -(log p + log(1-p)) >= 2 log 2
        for p in np.linspace(0.01, 0.99, 23):
            assert -(math.log(p) + math.log(1 - p)) >= 2 * math.log(2) - 1e-12

    def test_augmentation_uses_equivariance_distribution(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(config="NoReg+Aug")
        tr = TR.Trainer(cfg, ds)
        s = ds.train[0]
        rng_clone = np.random.default_rng(cfg.seed)
        t, _ = D.sample_equivariance_transform(rng_clone, tr.tcfg, *s.x.extents)
        x_aug = D.warp(tr._scaled(s.x), t)
        expected, _ = L.masked_l1(
            D.Image(tr.models.f.forward(x_aug.data), x_aug.mask),
            D.warp(tr._scaled(s.y_tilde), t))
        _, report, _, _ = tr.build_losses(s.x, s.y_tilde)
        assert report.terms["sim"] == pytest.approx(expected.item(), rel=1e-12)

    def test_input_noise_magnitude(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(config="NoReg", input_noise=0.01)
        tr = TR.Trainer(cfg, ds)
        s = ds.train[0]
        _, report, _, _ = tr.build_losses(s.x, s.y_tilde)
        assert math.isfinite(report.total)

    def test_each_svf_exponential_computed_once(self, monkeypatch):
        # exp(+-v_cross) and exp(+-v_intra): four per step; infer needs no exp(v_intra)
        calls = []
        real = D.svf_exp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        assert not hasattr(L, "svf_exp")  # the regularisers take the exponentials they penalise
        for module in (D, TR):
            monkeypatch.setattr(module, "svf_exp", counting)
        ds = tiny_dataset()
        s = ds.train[0]
        for config in ("EqSim+Com", "DefSim"):
            tr = TR.Trainer(tiny_cfg(config=config), ds)
            calls.clear()
            tr.build_losses(s.x, s.y_tilde)
            assert len(calls) == 4, config
        calls.clear()
        tr.infer(s.x, s.y_tilde)
        assert len(calls) == 3

    def test_each_loss_input_warped_once(self, monkeypatch):
        # cross_sim reads the registration pass's warped label, and eq-adv
        # conditions on the transformed input that f(x_t) was made from
        calls = []
        real = D.warp

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (D, L, TR):
            monkeypatch.setattr(module, "warp", counting)
        ds = tiny_dataset()
        s = ds.train[0]
        for config, n in (("EqSim+Com", 5), ("DefSim", 3), ("EqSim+Com+EqAdv", 7),
                          ("DefSim+DefCondAdv", 3)):
            tr = TR.Trainer(tiny_cfg(config=config), ds)
            calls.clear()
            tr.build_losses(s.x, s.y_tilde)
            assert len(calls) == n, config

    def test_each_composition_built_once(self, monkeypatch):
        # eq-adv warps f(x_t) back through the compose(d_intra, t_inv) that
        # the equivariance similarity already built
        calls = []
        real = D.compose

        def counting(outer, inner):
            calls.append((outer, inner))
            return real(outer, inner)

        for module in (D, L, TR):
            monkeypatch.setattr(module, "compose", counting)
        ds = tiny_dataset()
        s = ds.train[0]
        for config, n in (("EqSim+Com", 4), ("EqSim+Com+EqAdv", 6)):
            tr = TR.Trainer(tiny_cfg(config=config), ds)
            calls.clear()
            tr.build_losses(s.x, s.y_tilde)
            assert len(calls) == n, config
            assert len({(id(a), id(b)) for a, b in calls}) == n, config


class TestValidation:
    @staticmethod
    def _drawn_trainer(ds):
        # velocity heads drawn so that neither deformation is the identity
        tr = TR.Trainer(tiny_cfg(), ds)
        rng = np.random.default_rng(3)
        for name, p in tr.named_gen:
            if name.startswith(("h_svf.head.", "g_svf.head.")):
                p.data = rng.uniform(-0.5, 0.5, p.data.shape)
        return tr

    def test_noreg_rule_ignores_deformations(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="NoReg"), ds)
        expected = []
        with T.no_grad():
            for s in ds.val:
                val, _ = L.masked_l1(tr._predict_scaled(tr._scaled(s.x)), tr._scaled(s.y_tilde))
                expected.append(val.item())
        assert tr.validation_score() == pytest.approx(float(np.mean(expected)), rel=1e-12)

    def test_deterministic_across_calls(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        assert tr.validation_score() == tr.validation_score()

    def test_registration_rule_uses_both_deformations(self):
        # the score is the masked L1 between the prediction warped by d_intra
        # and the label warped by d_cross, averaged over the val images; the
        # velocity heads are drawn so that neither deformation is the identity
        ds = tiny_dataset()
        tr = self._drawn_trainer(ds)
        by_hand = []
        with T.no_grad():
            for s in ds.val:
                x, y_tilde = tr._scaled(s.x), tr._scaled(s.y_tilde)
                pred = tr._predict_scaled(x)
                fw = tr._registration_forward(x, y_tilde, pred)
                ident = D.identity_map(*s.x.extents).coords.data
                assert not np.array_equal(fw.d_intra.coords.data, ident)
                assert not np.array_equal(fw.d_cross.dense_coords(*s.x.extents).data, ident)
                score, _ = L.masked_l1(D.warp(pred, fw.d_intra), D.warp(y_tilde, fw.d_cross))
                by_hand.append(float(score.data))
        assert tr.validation_score() == float(np.mean(by_hand))

    def test_empty_validation_set(self):
        ds = tiny_dataset()
        ds.val = []
        tr = TR.Trainer(tiny_cfg(), ds)
        with pytest.raises(ValueError):
            tr.validation_score()

    def test_validation_mde_none_without_registration(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="NoReg"), ds)
        assert tr.validation_mde() is None

    # validation_mde reuses validation_score's pass only on the same samples
    # and weights; each case compares with a trainer that never scored

    @staticmethod
    def _unscored_twin(tr, ds):
        twin = TR.Trainer(tiny_cfg(), ds)
        for (_, p), (_, q) in zip(twin.named_gen, tr.named_gen):
            p.data = q.data.copy()
        return twin

    @staticmethod
    def _count_forwards(monkeypatch, tr):
        calls = []
        for name in ("f", "h_rig", "h_svf", "g_svf"):
            net = getattr(tr.models, name)

            def counted(*args, _forward=net.forward, _name=name):
                calls.append(_name)
                return _forward(*args)
            monkeypatch.setattr(net, "forward", counted)
        return calls

    def test_mde_after_score_runs_no_network(self, monkeypatch):
        ds = tiny_dataset()
        tr = self._drawn_trainer(ds)
        tr.validation_score()
        calls = self._count_forwards(monkeypatch, tr)
        mde = tr.validation_mde()
        assert calls == []
        assert mde == self._unscored_twin(tr, ds).validation_mde()

    def test_mde_reruns_after_in_place_weight_change(self, monkeypatch):
        ds = tiny_dataset()
        tr = self._drawn_trainer(ds)
        tr.validation_score()
        stale = tr.validation_mde()
        dict(tr.named_gen)["h_svf.head.w"].data += 1e-3
        calls = self._count_forwards(monkeypatch, tr)
        mde = tr.validation_mde()
        assert sorted(calls) == sorted(["f", "h_rig", "h_svf", "g_svf"] * len(ds.val))
        assert mde != stale
        assert mde == self._unscored_twin(tr, ds).validation_mde()

    def test_mde_reruns_on_other_samples(self, monkeypatch):
        ds = tiny_dataset()
        tr = self._drawn_trainer(ds)
        tr.validation_score()
        others = ds.train[2:]
        calls = self._count_forwards(monkeypatch, tr)
        mde = tr.validation_mde(others)
        assert calls.count("f") == len(others)
        assert mde != tr.validation_mde()
        assert mde == self._unscored_twin(tr, ds).validation_mde(others)


class TestTrainLoop:
    def test_determinism_bitwise(self, tmp_path):
        logs = []
        for run in range(2):
            ds = tiny_dataset()
            tr = TR.Trainer(tiny_cfg(epochs=1), ds)
            tr.train(tmp_path / f"run{run}", max_steps=3)
            logs.append((tmp_path / f"run{run}" / "losses.jsonl").read_text())
        assert logs[0] == logs[1] and logs[0].count("\n") == 3

    def test_checkpoint_resume_bitwise(self, tmp_path):
        ds = tiny_dataset()
        tr_full = TR.Trainer(tiny_cfg(epochs=2), ds)
        tr_full.train(tmp_path / "full")
        full_log = (tmp_path / "full" / "losses.jsonl").read_text().splitlines()

        tr_a = TR.Trainer(tiny_cfg(epochs=2), ds)
        ra = tr_a.train(tmp_path / "partial", max_steps=3)
        assert ra.interrupted
        tr_b = TR.Trainer.from_checkpoint(tmp_path / "partial" / "checkpoint", ds)
        tr_b.train(tmp_path / "resumed")
        resumed_log = (tmp_path / "resumed" / "losses.jsonl").read_text().splitlines()
        assert resumed_log == full_log[3:]

    def test_history_and_best_checkpoint(self, tmp_path):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(epochs=2), ds)
        result = tr.train(tmp_path / "out")
        assert len(result.val_history) == 2
        assert result.best_epoch == TR.select_best_epoch(result.val_history)
        hist = json.loads((tmp_path / "out" / "history.json").read_text())
        assert hist["best_epoch"] == result.best_epoch
        lines = [json.loads(l) for l in (tmp_path / "out" / "losses.jsonl").read_text().splitlines()]
        assert [l["step"] for l in lines] == list(range(8))
        assert set(lines[0]["terms"]) >= {"rig_sim", "cross_sim", "intra_sim", "com"}

    def test_best_epoch_weights_restored(self, tmp_path):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(epochs=2), ds)
        result = tr.train(tmp_path / "out")
        snap = dict(tr._snapshots)[result.best_epoch]
        named = dict(tr.named_gen)
        for name, arr in snap:
            if name in named:
                assert np.array_equal(named[name].data, arr)

    def test_resume_keeps_best_epoch_snapshots(self, tmp_path):
        # the best epoch, 2, ends before the interruption at step 14 of 20, so
        # the resumed run must restore its weights from the mid-run checkpoint
        data = lambda: selfcheck.tiny_dataset(np.random.default_rng(8), 4, 32)
        cfg = TR.TrainConfig(config="NoReg+Aug", epochs=5, lr_main=0.03, seed=4, features_f=(4, 8))
        full = TR.Trainer(cfg, data()).train(tmp_path / "full")
        assert TR.Trainer(cfg, data()).train(tmp_path / "part", max_steps=14).interrupted
        part = TR.Trainer.from_checkpoint(tmp_path / "part" / "checkpoint", data())
        resumed = part.train(tmp_path / "resumed")
        assert full.best_epoch == resumed.best_epoch == 2
        for name in ("checkpoint.bin", "history.json"):
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "resumed" / name).read_bytes()

    def test_patching_loop_runs(self, tmp_path):
        ds = tiny_dataset(size=32)
        cfg = tiny_cfg(epochs=1, patch_size=16)
        tr = TR.Trainer(cfg, ds)
        result = tr.train(tmp_path / "out")
        assert len(result.val_history) == 1

    def test_divergence_dumps_state(self, tmp_path):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(epochs=1), ds)
        tr.models.f.head.w.data[:] = np.nan
        with pytest.raises(TR.TrainingDiverged) as exc_info:
            tr.train(tmp_path / "out")
        assert exc_info.value.result is not None
        assert exc_info.value.result.diverged
        assert (tmp_path / "out" / "diverged_state.bin").exists()


class TestPrecision:
    """The trainer computes in float32; the gradient checks and what the
    trainer returns to callers stay float64."""

    @pytest.mark.parametrize("config", ["EqSim+Com", "DefSim", "NoReg+Aug", "EqSim+Com+EqAdv",
                                        "DefSim+DefCondAdv", "DefSim+DefUncondAdv"])
    def test_training_tape_is_float32(self, config):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config=config), ds)
        _, _, total, d_loss = tr.build_losses(ds.train[0].x, ds.train[0].y_tilde)
        roots = [total] if d_loss is None else [total, d_loss]
        nodes = [n for root in roots for n in T._toposort(root) if n.requires_grad]
        assert nodes and {n.data.dtype for n in nodes} == {np.dtype(np.float32)}
        for root in roots:
            root.backward()
        grads = [p.grad for _, p in tr.named_gen + tr.named_disc if p.grad is not None]
        assert grads and {g.dtype for g in grads} == {np.dtype(np.float32)}

    def test_gradient_checks_compute_in_float64(self, monkeypatch):
        dtypes = set()
        make = T._make

        def recording(data, parents, grad_fn):
            dtypes.add(data.dtype)
            return make(data, parents, grad_fn)

        monkeypatch.setattr(T, "_make", recording)
        assert all(r.passed for r in selfcheck.gradcheck_suite(seeds=1))
        assert dtypes == {np.dtype(np.float64)}

    def test_public_outputs_are_float64(self):
        # evaluate_model's metrics are those of infer's float64 outputs, exactly
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        _, rows = TR.evaluate_model(tr, ds.test)
        for s, row in zip(ds.test, rows):
            out = tr.infer(s.x, s.y_tilde)
            assert out["prediction"].data.data.dtype == out["y_reg"].data.data.dtype == np.float64
            assert all(out[k].coords.data.dtype == np.float64 for k in ("d_cross", "d_intra", "overall"))
            pred = D.Image(np.clip(out["prediction"].data.data, 0.0, 255.0), out["prediction"].mask)
            assert row == {"psnr": M.psnr(pred, channel_swap(s.x), 255.0),
                           "ssim": M.ssim(pred, channel_swap(s.x), 255.0),
                           "nmi": M.nmi(s.x, pred), "mde": M.mde(out["overall"], s.d_true)}

    def test_train_casts_replaced_parameters_and_reload_is_exact(self, tmp_path):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(epochs=2), ds)
        head = dict(tr.named_gen)["h_svf.head.b"]
        head.data = np.full(head.data.shape, 1.5)  # a caller's float64 array
        assert tr.train(tmp_path, max_steps=3).interrupted
        back = TR.Trainer.from_checkpoint(tmp_path / "checkpoint", ds)
        pairs = [(p.data, q.data) for (_, p), (_, q) in zip(tr.named_gen, back.named_gen)]
        pairs += list(zip(tr.opt_main.m + tr.opt_main.v, back.opt_main.m + back.opt_main.v))
        assert all(a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes() for a, b in pairs)


class TestEvaluate:
    def test_metrics_present(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(), ds)
        report, rows = TR.evaluate_model(tr, ds.test)
        agg = report.aggregates()
        assert all(agg[k] is not None for k in ("psnr", "ssim", "nmi", "mde"))
        assert len(rows) == len(ds.test)

    def test_noreg_has_no_mde(self):
        ds = tiny_dataset()
        tr = TR.Trainer(tiny_cfg(config="NoReg"), ds)
        report, rows = TR.evaluate_model(tr, ds.test)
        assert report.aggregates()["mde"] is None
        assert all("mde" not in r for r in rows)
