"""Network construction: shape contracts, initialization, gradients through
tiny instances, encoder pooling behavior, spectral normalization."""

import math

import numpy as np
import pytest

from warpsynth import tensor as T
from warpsynth.tensor import Tensor
from warpsynth import networks as N
from warpsynth import deform as D


class TestUNet:
    def test_output_shape_matches_input(self, rng):
        net = N.UNet(N.UnetSpec(3, 2, [4, 6, 8], norm="none", activation="relu"), rng)
        out = net.forward(Tensor(rng.normal(size=(3, 64, 64))))
        assert out.shape == (2, 64, 64)

    def test_zero_head_gives_zero_output(self, rng):
        net = N.UNet(N.UnetSpec(3, 2, [4, 6], norm="none", activation="relu", zero_init_head=True), rng)
        out = net.forward(Tensor(rng.normal(size=(3, 16, 16))))
        assert np.abs(out.data).max() == 0.0

    def test_gradcheck_two_level(self, rng):
        net = N.UNet(N.UnetSpec(2, 1, [2, 3], norm="none", activation="relu"), rng)
        x = Tensor(rng.normal(size=(2, 8, 8)), requires_grad=True)
        pert = Tensor(rng.normal(size=(1, 8, 8)))
        err = T.grad_check(lambda z: T.mean(net.forward(z) * pert), x, eps=1e-6,
                           coords=range(0, 128, 11))
        assert err < 1e-4

    def test_parameter_gradcheck(self, rng):
        net = N.UNet(N.UnetSpec(1, 1, [2, 3], norm="group", activation="leaky"), rng)
        x = Tensor(rng.normal(size=(1, 8, 8)))
        w = net.enc[0].c1.w

        def f(z):
            old = w.data
            w.data = z.data
            try:
                return T.mean(net.forward(x))
            finally:
                w.data = old

        probe = Tensor(w.data.copy(), requires_grad=True)
        out = net.forward(x)
        for p in net.params():
            p.grad = None
        T.mean(out).backward()
        analytic = w.grad.copy()
        eps = 1e-6
        flat = w.data.ravel()
        worst = 0.0
        for i in range(0, flat.size, 5):
            orig = flat[i]
            with T.no_grad():
                flat[i] = orig + eps
                fp = float(T.mean(net.forward(x)).data)
                flat[i] = orig - eps
                fm = float(T.mean(net.forward(x)).data)
                flat[i] = orig
            num = (fp - fm) / (2 * eps)
            a = analytic.ravel()[i]
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
        assert worst < 1e-4

    def test_indivisible_extent_rejected(self, rng):
        net = N.UNet(N.UnetSpec(1, 1, [2, 3, 4], norm="none", activation="relu"), rng)
        with pytest.raises(ValueError):
            net.forward(Tensor(rng.normal(size=(1, 18, 18))))

    def test_single_resolution_rejected(self):
        with pytest.raises(ValueError):
            N.UnetSpec(1, 1, [4])


class TestEncoder:
    def test_output_dim(self, rng):
        enc = N.Encoder(N.EncoderSpec(2, [4, 8], out_dim=3), rng)
        out = enc.forward(Tensor(rng.normal(size=(2, 16, 16))))
        assert out.shape == (3,)

    def test_translation_invariant_without_coords(self, rng):
        enc = N.Encoder(N.EncoderSpec(1, [4, 8], out_dim=2, coord_input=False), rng)
        base = np.zeros((1, 32, 32))
        base[0, 8:12, 8:12] = 1.0
        rolled = np.roll(base, (4, 4), axis=(1, 2))
        o1 = enc.forward(Tensor(np.full((1, 16, 16), 3.0))).data
        o2 = enc.forward(Tensor(np.full((1, 16, 16), 3.0))).data
        assert np.array_equal(o1, o2)  # constant input: deterministic, pooled
        del base, rolled

    def test_coords_break_rotation_invariance(self, rng):
        enc = N.Encoder(N.EncoderSpec(1, [4, 8], out_dim=3, coord_input=True), rng)
        x = rng.normal(size=(1, 16, 16))
        r = np.ascontiguousarray(np.rot90(x, axes=(1, 2)))
        d = np.abs(enc.forward(Tensor(x)).data - enc.forward(Tensor(r)).data).max()
        assert d > 1e-9

    def test_too_small_input_rejected(self, rng):
        enc = N.Encoder(N.EncoderSpec(1, [4, 8, 8], out_dim=1), rng)
        with pytest.raises(ValueError):
            enc.forward(Tensor(rng.normal(size=(1, 4, 4))))


class TestRigidHead:
    def test_zero_raw_is_identity(self):
        p = N.rigid_head(Tensor(np.zeros(3)), math.pi / 6, 10.0, (7.5, 7.5))
        assert p.angle.item() == 0.0
        assert p.translation[0].item() == 0.0 and p.translation[1].item() == 0.0

    def test_outputs_bounded(self, rng):
        # tanh saturates to exactly 1.0 in float64, hence the closed bound
        for _ in range(50):
            raw = Tensor(rng.normal(size=3) * 10)
            p = N.rigid_head(raw, math.pi / 6, 5.0, (0, 0))
            assert abs(p.angle.item()) <= math.pi / 6
            assert abs(p.translation[0].item()) <= 5.0
        moderate = N.rigid_head(Tensor(np.array([1.0, -1.0, 0.5])), math.pi / 6, 5.0, (0, 0))
        assert abs(moderate.angle.item()) < math.pi / 6
        assert abs(moderate.translation[0].item()) < 5.0

    def test_gradients(self, rng):
        raw = Tensor(rng.normal(size=3) * 0.5, requires_grad=True)

        def f(z):
            p = N.rigid_head(z, math.pi / 6, 4.0, (3.5, 3.5))
            return T.mean(D.rigid_to_deformation(p).dense_coords(8, 8)
                          * Tensor(np.linspace(0, 1, 128).reshape(2, 8, 8)))

        assert T.grad_check(f, raw, eps=1e-6) < 1e-6


class TestSpectralDiscriminator:
    def test_effective_norm_bounded_after_warmup(self, rng):
        enc = N.Encoder(N.EncoderSpec(3, [4, 8], out_dim=1, spectral_norm=True, activation="leaky"), rng)
        x = Tensor(rng.normal(size=(3, 16, 16)))
        for _ in range(25):
            enc.forward(x)
        weights = dict(enc.named_params())
        sigmas = []
        for name, state in enc.power_states():
            w_eff = T.spectral_normalize(weights[name.removesuffix("u") + "w"], state, update=False).data
            sigmas.append(np.linalg.svd(w_eff.reshape(w_eff.shape[0], -1), compute_uv=False)[0])
        assert len(sigmas) == 7  # down0, block0.0, block0.1, down1, block1.0, block1.1, fc
        assert max(sigmas) <= 1.0 + 5e-2

    def test_frozen_forward_keeps_power_state(self, rng):
        enc = N.Encoder(N.EncoderSpec(1, [4], out_dim=1, spectral_norm=True), rng)
        x = Tensor(rng.normal(size=(1, 8, 8)))
        enc.forward(x)
        before = [s.u.copy() for _, s in enc.power_states()]
        enc.forward(x, frozen=True)
        after = [s.u for _, s in enc.power_states()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


class TestModelBundle:
    def test_channel_contracts(self, rng):
        mb = N.build_models(3, 3, 32, seed=0, features_f=[4, 8], features_reg=[4, 8],
                            features_rig=[4, 8], adversarial_mode="eq-adv")
        assert mb.f.spec.in_channels == 3 and mb.f.spec.out_channels == 3
        assert mb.h_rig.spec.out_dim == 3
        assert mb.h_svf.spec.out_channels == 2
        assert mb.h_svf.spec.in_channels == 7  # x + y_tilde + mask plane
        assert mb.g_svf.spec.in_channels == 9  # pred + y_reg + inverse displacement + mask
        assert mb.d.spec.in_channels == 6
        assert mb.d.spec.spectral_norm

    def test_unconditional_discriminator_channels(self):
        mb = N.build_models(3, 3, 32, seed=0, features_f=[4, 8],
                            adversarial_mode="def-uncond-adv")
        assert mb.d.spec.in_channels == 3

    def test_param_names_unique(self):
        mb = N.build_models(3, 3, 32, seed=0, features_f=[4, 8], features_rig=[4, 8])
        names = [n for n, _ in mb.named_params()]
        assert len(names) == len(set(names))

    def test_checkpoint_key_format(self):
        # these names key every checkpoint array; changing them breaks loading older checkpoints
        mb = N.build_models(3, 3, 32, seed=0, features_f=[4, 8], features_reg=[4, 8],
                            features_rig=[4, 8], features_disc=[4, 8], adversarial_mode="eq-adv")
        synth = """enc0.0.w enc0.0.b enc0.1.g enc0.1.b enc0.2.w enc0.2.b enc0.3.g enc0.3.b
                   enc1.0.w enc1.0.b enc1.1.g enc1.1.b enc1.2.w enc1.2.b enc1.3.g enc1.3.b
                   down0.w down0.b up0.w up0.b dec0.0.w dec0.0.b dec0.1.g dec0.1.b dec0.2.w dec0.2.b
                   dec0.3.g dec0.3.b head.w head.b"""
        velocity = """enc0.0.w enc0.0.b enc0.1.w enc0.1.b enc1.0.w enc1.0.b enc1.1.w enc1.1.b
                      down0.w down0.b up0.w up0.b dec0.0.w dec0.0.b dec0.1.w dec0.1.b head.w head.b"""
        encoder = """down0.w down0.b block0.0.w block0.0.b block0.1.w block0.1.b down1.w down1.b
                     block1.0.w block1.0.b block1.1.w block1.1.b fc.w fc.b"""
        expected = [f"{net}.{name}" for net, names in (("f", synth), ("h_rig", encoder), ("h_svf", velocity),
                                                       ("g_svf", velocity), ("d", encoder))
                    for name in names.split()]
        assert [n for n, _ in mb.named_params()] == expected
        assert [n for n, _ in mb.power_states()] == [
            "d.down0.u", "d.block0.0.u", "d.block0.1.u", "d.down1.u", "d.block1.0.u", "d.block1.1.u", "d.fc.u"]

    def test_same_seed_same_init(self, rng):
        a = N.build_models(3, 3, 32, seed=5, features_f=[4, 8])
        b = N.build_models(3, 3, 32, seed=5, features_f=[4, 8])
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb and np.array_equal(pa.data, pb.data)
