"""Deformation algebra: identity/rigid/SVF construction, composition,
warping with mask propagation, simulated transforms, derivative fields."""

import math

import numpy as np
import pytest

from warpsynth import tensor as T
from warpsynth.tensor import Tensor
from warpsynth import deform as D
from warpsynth.datagen import procedural_image
from warpsynth.metrics import mde

from warpsynth import oracles


def grid(h, w):
    return np.stack(np.meshgrid(np.arange(float(h)), np.arange(float(w)), indexing="ij"))


class TestIdentity:
    def test_warp_is_exact(self, rng):
        img = D.Image.from_array(rng.uniform(0, 255, size=(3, 12, 12)))
        out = D.warp(img, D.identity_map(12, 12))
        assert np.array_equal(out.data.data, img.data.data)
        assert out.mask.all()

    def test_zero_displacement(self):
        d = D.identity_map(6, 9)
        assert np.array_equal(d.displacement(6, 9).data, np.zeros((2, 6, 9)))

    def test_compose_with_identity(self, rng):
        v = D.gaussian_svf((5, 5), (4, 4), (1.0, -1.0), 12, 12)
        d = D.svf_exp(v)
        left = D.compose(D.identity_map(12, 12), d)
        right = D.compose(d, D.identity_map(12, 12))
        assert np.array_equal(left.coords.data, d.coords.data)
        assert np.allclose(right.coords.data, d.coords.data, atol=1e-12)


class TestRigid:
    def test_zero_params_identity(self):
        d = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 0.0), (5.5, 5.5)))
        out = d.dense_coords(12, 12).data
        assert np.array_equal(out, grid(12, 12))

    def test_translation_lookup(self):
        d = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 1.0), (7.5, 7.5)))
        c = d.dense_coords(16, 16).data
        assert np.allclose(c[0], grid(16, 16)[0])
        assert np.allclose(c[1], grid(16, 16)[1] - 1.0)

    def test_content_shifts_forward(self, rng):
        img = np.zeros((1, 8, 8))
        img[0, 3, 3] = 1.0
        d = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 1.0), (3.5, 3.5)))
        out = D.warp(D.Image.from_array(img), d)
        assert out.data.data[0, 3, 4] == 1.0

    def test_double_quarter_turn_equals_half_turn(self):
        q = D.rigid_to_deformation(D.RigidParams(math.pi / 2, (0.0, 0.0), (7.5, 7.5)))
        h = D.rigid_to_deformation(D.RigidParams(math.pi, (0.0, 0.0), (7.5, 7.5)))
        twice = D.compose(q, q)
        a1, b1 = twice.affine.as_arrays()
        a2, b2 = h.affine.as_arrays()
        assert np.allclose(a1, a2, atol=1e-12) and np.allclose(b1, b2, atol=1e-12)


class TestGaussianSvf:
    def test_zero_amplitude(self):
        v = D.gaussian_svf((3, 3), (2, 2), (0.0, 0.0), 8, 8)
        assert np.array_equal(v.field.data, np.zeros((2, 8, 8)))

    def test_value_at_center(self):
        v = D.gaussian_svf((4, 6), (3, 5), (2.5, -1.5), 12, 12)
        assert v.field.data[0, 4, 6] == 2.5
        assert v.field.data[1, 4, 6] == -1.5

    def test_value_at_one_sigma(self):
        v = D.gaussian_svf((6, 6), (4, 4), (2.0, 2.0), 16, 16)
        # distance 4 along the row axis = one sigma
        assert abs(v.field.data[0, 10, 6] - 2.0 * math.exp(-0.5)) < 1e-12

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            D.gaussian_svf((1, 1), (0.0, 1.0), (1, 1), 8, 8)


class TestSvfExp:
    def test_zero_field_gives_identity(self):
        d = D.svf_exp(D.Svf(Tensor(np.zeros((2, 10, 10)))))
        assert np.array_equal(d.coords.data, grid(10, 10))

    def test_constant_field_is_translation(self):
        v = np.tile(np.array([3.0, -2.0])[:, None, None], (1, 20, 20))
        d = D.svf_exp(D.Svf(Tensor(v)))
        disp = d.coords.data - grid(20, 20)
        assert np.abs(disp[0] - 3.0).max() < 1e-9
        assert np.abs(disp[1] + 2.0).max() < 1e-9

    def test_matches_euler_integration(self, rng):
        worst = 0.0
        for _ in range(10):
            mu = rng.uniform(0, 64, size=2)
            sigma = rng.uniform(10, 30, size=2)
            m = rng.uniform(-5, 5, size=2)
            v = D.gaussian_svf(mu, sigma, m, 64, 64)
            d = D.svf_exp(v)
            ref = oracles.euler_flow(v.field.data, steps=1000)
            worst = max(worst, float(np.sqrt(((d.coords.data - ref) ** 2).sum(axis=0)).mean()))
        assert worst < 0.05

    def test_differentiable(self, rng):
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.4, requires_grad=True)
        pert = Tensor(rng.normal(size=(2, 8, 8)))
        err = T.grad_check(lambda z: T.mean(D.svf_exp(D.Svf(z), squarings=3).coords * pert), v, eps=1e-6)
        assert err < 1e-4

    def test_negative_squarings_rejected(self):
        with pytest.raises(ValueError):
            D.svf_exp(D.Svf(Tensor(np.zeros((2, 4, 4)))), squarings=-1)


class TestCompose:
    def test_translations_add(self):
        t1 = D.rigid_to_deformation(D.RigidParams(0.0, (1.0, 0.0), (0, 0)))
        t2 = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 2.0), (0, 0)))
        both = D.compose(t1, t2)
        a, b = both.affine.as_arrays()
        assert np.allclose(a, np.eye(2))
        assert np.allclose(b, [-1.0, -2.0])  # lookup shifts opposite to content

    def test_exp_inverse_consistency(self, rng):
        worst = 0.0
        for _ in range(5):
            mu = rng.uniform(0, 64, size=2)
            sigma = rng.uniform(10, 30, size=2)
            m = rng.uniform(-10, 10, size=2)
            v = D.gaussian_svf(mu, sigma, m, 64, 64)
            rt = D.compose(D.svf_exp(v), D.svf_exp(-v))
            dev = np.sqrt(((rt.coords.data - grid(64, 64)) ** 2).sum(axis=0))
            worst = max(worst, float(dev[rt.mask].mean()))
        assert worst < 0.1

    def test_pullback_consistency(self, rng):
        img = D.Image.from_array(procedural_image(rng, 48, 48, noise_amplitude=0.0).data.data)
        v1 = D.gaussian_svf((20, 25), (12, 14), (2.0, -1.5), 48, 48)
        v2 = D.gaussian_svf((30, 15), (10, 16), (-1.0, 2.0), 48, 48)
        d1, d2 = D.svf_exp(v1), D.svf_exp(v2)
        once = D.warp(img, D.compose(d1, d2))
        twice = D.warp(D.warp(img, d2), d1)
        inter = once.mask & twice.mask
        diff = np.abs(once.data.data - twice.data.data)[:, inter]
        assert diff.mean() < 0.02 * 255

    def test_pullback_exact_when_inner_affine(self, rng):
        img = procedural_image(rng, 48, 48, noise_amplitude=0.0)
        v = D.gaussian_svf((24, 24), (14, 14), (2.0, 2.0), 48, 48)
        d1 = D.svf_exp(v)
        d2 = D.rigid_to_deformation(D.RigidParams(0.2, (1.0, -0.5), (23.5, 23.5)))
        once = D.warp(img, D.compose(d1, d2))
        twice = D.warp(D.warp(img, d2), d1)
        inter = once.mask & twice.mask
        # composing first avoids the second interpolation entirely; the
        # remaining difference is the interpolation error of the double warp
        assert np.abs(once.data.data - twice.data.data)[:, inter].mean() < 0.02 * 255

    def test_extent_mismatch(self, rng):
        d1 = D.identity_map(8, 8)
        d2 = D.identity_map(9, 9)
        with pytest.raises(ValueError):
            D.compose(d1, d2)


class TestWarpMasks:
    def test_full_shift_out_is_all_invalid(self, rng):
        img = D.Image.from_array(rng.uniform(0, 255, size=(1, 8, 8)))
        d = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 8.0), (3.5, 3.5)))
        out = D.warp(img, d)
        assert not out.mask.any()

    def test_masks_monotone(self, rng):
        mask = np.ones((16, 16), dtype=bool)
        mask[4:8, 4:8] = False
        img = D.Image(Tensor(rng.uniform(0, 255, size=(1, 16, 16))), mask)
        d = D.rigid_to_deformation(D.RigidParams(0.1, (0.5, -0.3), (7.5, 7.5)))
        out = D.warp(img, d)
        # which output pixels read only valid data is decided strictly
        coords = d.dense_coords(16, 16).data
        strict = T.sample_validity(mask, coords)
        assert np.array_equal(out.mask, strict)
        again = D.warp(out, D.identity_map(16, 16))
        assert np.array_equal(again.mask, out.mask)  # never resurrects validity

    def test_masks_carry_no_gradient(self, rng):
        img = D.Image(Tensor(rng.uniform(0, 1, size=(1, 8, 8)), requires_grad=True), D.full_mask(8, 8))
        d = D.rigid_to_deformation(D.RigidParams(0.05, (0.2, 0.2), (3.5, 3.5)))
        out = D.warp(img, d)
        before = out.mask.copy()
        T.mean(out.data).backward()
        assert out.mask.dtype == bool
        assert np.array_equal(out.mask, before)

    def test_round_trip_interpolation_error_bounded(self, rng):
        img = procedural_image(rng, 64, 64, noise_amplitude=0.0)
        t = D.rigid_to_deformation(D.RigidParams(math.radians(15), (0.0, 0.0), (31.5, 31.5)))
        t_inv = t.inverse_affine()
        rt = D.warp(D.warp(img, t), t_inv)
        inter = rt.mask & img.mask
        err = np.abs(rt.data.data - img.data.data)[:, inter].mean()
        assert err < 0.02 * 255


class TestEquivarianceTransforms:
    def test_inverse_exact(self, rng):
        worst = 0.0
        for _ in range(100):
            t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(), 32, 32)
            comp = D.compose(t, t_inv)
            cc = comp.affine.apply(D.grid_coords(32, 32)).data
            worst = max(worst, np.abs(cc - grid(32, 32)).max())
        assert worst < 1e-10

    def test_collapsed_config_is_identity(self, rng):
        t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, False, False), 16, 16)
        a, b = t.affine.as_arrays()
        assert np.array_equal(a, np.eye(2)) and np.array_equal(b, np.zeros(2))

    def test_orthogonal_round_trip_bit_exact(self, rng):
        img = D.Image.from_array(rng.uniform(0, 255, size=(3, 16, 16)))
        for _ in range(40):
            t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), 16, 16)
            rt = D.warp(D.warp(img, t), t_inv)
            assert np.array_equal(rt.data.data, img.data.data)
            assert rt.mask.all()

    def test_angle_distribution_uniform(self, rng):
        angles = []
        for _ in range(10_000):
            t, _ = D.sample_equivariance_transform(rng, D.TransformConfig(15.0, False, False), 8, 8)
            a, _ = t.affine.as_arrays()
            angles.append(math.degrees(math.atan2(a[0, 1], a[0, 0])))
        p = oracles.ks_uniform_pvalue(np.array(angles), -15.0, 15.0)
        assert p > 0.01


class TestSimulate:
    def test_sc_preset_values_at_base_size(self):
        p = D.PRESETS["SC"]
        rng = np.random.default_rng(0)
        sd = D.simulate_deformation(p, rng, 400, 400)
        assert sd.rigid_params.translation[0].item() == 1.0
        assert sd.rigid_params.translation[1].item() == -1.0
        assert sd.rigid_params.angle.item() == math.radians(-1.0)
        assert sd.velocity.field.data[0, 120, 280] == 2.0
        assert sd.velocity.field.data[1, 120, 280] == -2.0

    def test_lr_preset_uniform_translation(self):
        p = D.PRESETS["LR"].scaled(64)
        rng = np.random.default_rng(1)
        draws = [D.simulate_deformation(p, rng, 64, 64).rigid_params for _ in range(300)]
        scale = 64 / 400
        ty = np.array([d.translation[0].item() for d in draws])
        assert ty.min() >= -15 * scale and ty.max() <= 15 * scale
        assert oracles.ks_uniform_pvalue(ty, -15 * scale, 15 * scale) > 0.01

    def test_zero_ranges_give_identity(self):
        p = D.SimDeformParams(((0, 0), (0, 0)), (0, 0), ((5, 5), (5, 5)), ((4, 4), (4, 4)), ((0, 0), (0, 0)), random=False)
        sd = D.simulate_deformation(p, np.random.default_rng(0), 16, 16)
        assert np.allclose(sd.deformation.coords.data, grid(16, 16), atol=1e-12)

    def test_scaling_rule(self):
        p = D.PRESETS["SC"].scaled(96)
        assert p.translation[0] == pytest.approx((96 / 400, 96 / 400))
        assert p.rotation_deg == (-1, -1)
        assert p.mu[0] == pytest.approx((120 * 96 / 400, 120 * 96 / 400))

    def test_inverse_round_trip(self, rng):
        for preset in ("LR", "SR", "LC", "SC"):
            p = D.PRESETS[preset].scaled(64)
            sd = D.simulate_deformation(p, rng, 64, 64)
            comp = D.compose(sd.deformation, sd.inverse())
            err = mde(comp, D.identity_map(64, 64))
            assert err < 0.1, (preset, err)


class TestDerivativeFields:
    def test_identity_jacobian(self):
        j = D.jacobian_field(D.identity_map(8, 8))
        assert j.shape == (2, 2, 7, 7)
        assert np.allclose(j.data[0, 0], 1.0) and np.allclose(j.data[1, 1], 1.0)
        assert np.allclose(j.data[0, 1], 0.0) and np.allclose(j.data[1, 0], 0.0)
        for s in D.forward_diffs(j):
            assert s.shape == (2, 2, 6, 6) and np.abs(s.data).max() == 0.0

    def test_affine_jacobian_everywhere(self):
        d = D.rigid_to_deformation(D.RigidParams(0.7, (2.0, -1.0), (5.5, 5.5)))
        j = D.jacobian_field(d, 12, 12)
        a, _ = d.affine.as_arrays()
        assert np.abs(j.data - a[:, :, None, None]).max() < 1e-12

    def test_uniform_scaling_determinant(self):
        d = D.Deformation.from_affine(D.Affine(2.0, 0.0, 0.0, 2.0, 0.0, 0.0))
        j = D.jacobian_field(d, 8, 8).data
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        assert np.allclose(det, 4.0)

    def test_too_small_extent(self):
        with pytest.raises(ValueError):
            D.jacobian_field(D.identity_map(1, 5))

    def test_affine_needs_explicit_extents(self):
        with pytest.raises(ValueError, match="explicit extents"):
            D.jacobian_field(D.identity_affine())
        with pytest.raises(ValueError, match="explicit extents"):
            mde(D.identity_affine(), D.identity_affine())
        with pytest.raises(ValueError, match="extents"):
            D.jacobian_field(D.identity_map(6, 6), 8, 8)
