"""Loss terms: masking, similarity variants, commutation, registration
similarities with their stop-gradients, the non-rigidity penalty, the
adversarial pair, and the weighted total."""

import math

import numpy as np
import pytest

from warpsynth import tensor as T
from warpsynth.tensor import Tensor
from warpsynth import deform as D
from warpsynth import losses as L
from warpsynth import networks as N
from warpsynth.datagen import channel_swap, procedural_image


def img(arr, mask=None):
    arr = np.asarray(arr, dtype=np.float64)
    return D.Image(Tensor(arr), D.full_mask(*arr.shape[1:]) if mask is None else mask)


def img_var(arr, mask=None):
    arr = np.asarray(arr, dtype=np.float64)
    return D.Image(Tensor(arr, requires_grad=True), D.full_mask(*arr.shape[1:]) if mask is None else mask)


def exp_pair(v):
    return D.svf_exp(v), D.svf_exp(-v)


def reg_cross_of(v):
    return L.reg_cross(*exp_pair(v), L.LossWeights())


def reg_intra_of(v_intra, v_cross):
    return L.reg_intra(*exp_pair(v_intra), *exp_pair(v_cross), L.LossWeights())


class TestMaskedL1:
    def test_identical_images(self, rng):
        a = img(rng.uniform(size=(2, 5, 5)))
        loss, empty = L.masked_l1(a, a)
        assert loss.item() == 0.0 and not empty

    def test_half_mask(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2] = True
        a = img(np.zeros((1, 4, 4)), mask)
        b = img(np.ones((1, 4, 4)))
        loss, empty = L.masked_l1(a, b)
        assert loss.item() == 1.0 and not empty

    def test_disjoint_masks_flagged(self, rng):
        m1 = np.zeros((4, 4), dtype=bool); m1[0] = True
        m2 = np.zeros((4, 4), dtype=bool); m2[2] = True
        loss, empty = L.masked_l1(img(rng.uniform(size=(1, 4, 4)), m1), img(rng.uniform(size=(1, 4, 4)), m2))
        assert loss.item() == 0.0 and empty

    def test_empty_contributes_no_gradient(self, rng):
        m1 = np.zeros((4, 4), dtype=bool)
        a = img_var(rng.uniform(size=(1, 4, 4)), m1)
        loss, empty = L.masked_l1(a, img(rng.uniform(size=(1, 4, 4))))
        assert empty
        assert not loss.requires_grad

    def test_extent_mismatch(self, rng):
        with pytest.raises(ValueError):
            L.masked_l1(img(rng.uniform(size=(1, 4, 4))), img(rng.uniform(size=(1, 5, 5))))

    def test_invalid_pixels_get_no_gradient(self, rng):
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = False
        a = img_var(rng.uniform(size=(1, 4, 4)), mask)
        loss, _ = L.masked_l1(a, img(rng.uniform(size=(1, 4, 4)) + 2))
        loss.backward()
        assert a.data.grad[0, 1, 1] == 0.0
        assert np.any(a.data.grad)


class TestSimilarityDefault:
    def test_perfect_prediction_identity(self, rng):
        a = rng.uniform(size=(2, 6, 6))
        loss, _ = L.similarity_default(img(a), img(a), D.identity_map(6, 6))
        assert loss.item() == 0.0

    def test_matching_shift_pair(self, rng):
        base = procedural_image(rng, 32, 32, noise_amplitude=0.0)
        shift = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 1.0), (15.5, 15.5)))
        label = D.warp(base, shift)
        loss, _ = L.similarity_default(base, label, shift)
        assert loss.item() < 1e-9  # integer shift: interpolation is exact

    def test_gradient_reaches_prediction_not_label(self, rng):
        pred = img_var(rng.uniform(size=(1, 8, 8)))
        label_src = Tensor(rng.uniform(size=(1, 8, 8)), requires_grad=True)
        label = D.Image(label_src.detach(), D.full_mask(8, 8))
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.3, requires_grad=True)
        loss, _ = L.similarity_default(pred, label, D.svf_exp(D.Svf(v), squarings=2))
        loss.backward()
        assert pred.data.grad is not None and np.any(pred.data.grad)
        assert v.grad is not None and np.any(v.grad)
        assert label_src.grad is None


class TestSimilarityEquivariance:
    def test_identity_transform_reduces_to_default(self, rng):
        pred = img(rng.uniform(size=(2, 8, 8)))
        label = img(rng.uniform(size=(2, 8, 8)))
        d = D.svf_exp(D.gaussian_svf((4, 4), (3, 3), (0.5, -0.5), 8, 8))
        eq, _ = L.similarity_equivariance(pred, label, d, D.identity_affine())
        de, _ = L.similarity_default(pred, label, d)
        assert eq.item() == de.item()

    def test_pointwise_map_orthogonal_exact_zero(self, rng):
        x = procedural_image(rng, 32, 32, noise_amplitude=0.0)
        y_tilde = channel_swap(x)  # aligned label, d_true = identity
        t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), 32, 32)
        pred_t = channel_swap(D.warp(x, t))
        loss, _ = L.similarity_equivariance(pred_t, y_tilde, D.identity_map(32, 32), t_inv)
        assert loss.item() == 0.0

    def test_small_rotation_within_tolerance(self, rng):
        x = procedural_image(rng, 64, 64, noise_amplitude=0.0)
        from warpsynth.deform import PRESETS, simulate_deformation
        sd = simulate_deformation(PRESETS["SC"].scaled(64), rng, 64, 64)
        y_tilde = D.warp(channel_swap(x), sd.deformation)
        t, t_inv = D.sample_equivariance_transform(rng, D.TransformConfig(15.0, False, False), 64, 64)
        pred_t = channel_swap(D.warp(x, t))
        loss, _ = L.similarity_equivariance(pred_t, y_tilde, sd.deformation, t_inv)
        assert loss.item() < 0.02 * 255


class TestCommutation:
    @staticmethod
    def commutation(f, x, t):
        return L.commutation_loss(f(x), f(D.warp(x, t)), t)

    def test_identity_transform(self, rng):
        x = img(rng.uniform(size=(3, 16, 16)))
        loss, _ = self.commutation(channel_swap, x, D.identity_map(16, 16))
        assert loss.item() == 0.0

    def test_pointwise_map_flip_exact(self, rng):
        x = img(rng.uniform(0, 255, size=(3, 16, 16)))
        t, _ = D.sample_equivariance_transform(rng, D.TransformConfig(0.0, True, True), 16, 16)
        loss, _ = self.commutation(channel_swap, x, t)
        assert loss.item() == 0.0

    def test_translation_vs_rotation_positive(self, rng):
        x = procedural_image(rng, 32, 32, noise_amplitude=0.0)
        shift = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, 2.0), (15.5, 15.5)))

        def f(im):
            return D.warp(im, shift)  # a network that translates content

        quarter = D.Deformation.from_affine(
            D._about_center(*D._ORTHO_LOOKUPS[1], 15.5, 15.5))
        loss, _ = self.commutation(f, x, quarter)
        assert loss.item() > 1.0


class TestRegistrationSims:
    def test_rigid_aligned_identity_equals_l1(self, rng):
        pred = img(rng.uniform(size=(2, 8, 8)))
        label = img(rng.uniform(size=(2, 8, 8)))
        direct, _ = L.masked_l1(pred, label)
        via, _ = L.cross_sim(pred, label, D.identity_affine())
        assert via.item() == direct.item()

    def test_rigid_matching_shift(self, rng):
        pred = procedural_image(rng, 32, 32, noise_amplitude=0.0)
        fwd = D.rigid_to_deformation(D.RigidParams(0.0, (0.0, -5.0), (15.5, 15.5)))
        label = D.warp(pred, fwd)  # label is pred shifted by 5 columns
        undo = fwd.inverse_affine()
        loss, _ = L.cross_sim(pred, label, undo)
        assert loss.item() < 1e-9

    def test_rigid_no_gradient_to_prediction(self, rng):
        pred = img_var(rng.uniform(size=(1, 8, 8)))
        label = img(rng.uniform(size=(1, 8, 8)))
        angle = Tensor(np.array(0.1), requires_grad=True)
        r = D.rigid_to_deformation(D.RigidParams(angle, (0.0, 0.0), (3.5, 3.5)))
        loss, _ = L.cross_sim(pred, label, r)
        loss.backward()
        assert pred.data.grad is None
        assert angle.grad is not None and angle.grad != 0

    def test_elastic_matching_field(self, rng):
        pred = procedural_image(rng, 48, 48, noise_amplitude=0.0)
        v = D.gaussian_svf((24, 20), (12, 14), (2.0, -1.5), 48, 48)
        label = D.warp(pred, D.svf_exp(v))
        d_cross = D.compose(D.svf_exp(-v), D.identity_affine())
        loss, _ = L.cross_sim(pred, label, d_cross)
        assert loss.item() < 0.02 * 255

    def test_elastic_zero_field_equals_rigid_residual(self, rng):
        pred = img(rng.uniform(size=(1, 8, 8)))
        label = img(rng.uniform(size=(1, 8, 8)))
        rigid = D.identity_affine()
        d_cross = D.compose(D.svf_exp(D.Svf(Tensor(np.zeros((2, 8, 8))))), rigid)
        e, _ = L.cross_sim(pred, label, d_cross)
        r, _ = L.cross_sim(pred, label, rigid)
        assert abs(e.item() - r.item()) < 1e-12

    def test_elastic_no_gradient_to_rigid(self, rng):
        pred = img(rng.uniform(size=(1, 8, 8)))
        label = img(rng.uniform(size=(1, 8, 8)))
        angle = Tensor(np.array(0.05), requires_grad=True)
        rigid = D.rigid_to_deformation(D.RigidParams(angle, (0.0, 0.0), (3.5, 3.5)))
        v = Tensor(rng.normal(size=(2, 8, 8)) * 0.2, requires_grad=True)
        d_cross = D.compose(D.svf_exp(D.Svf(v)), rigid.detached())
        loss, _ = L.cross_sim(pred, label, d_cross)
        loss.backward()
        assert angle.grad is None
        assert v.grad is not None and np.any(v.grad)


class TestNonrigidity:
    def test_zero_on_rigid(self, rng):
        worst = 0.0
        for _ in range(25):
            p = D.RigidParams(rng.uniform(-1.5, 1.5), tuple(rng.uniform(-4, 4, 2)), (7.5, 7.5))
            d = D.rigid_to_deformation(p)
            worst = max(worst, float(L.nonrigidity(d, L.LossWeights(), 16, 16).data))
        assert worst < 1e-9

    def test_uniform_scaling_analytics(self):
        d = D.Deformation.from_affine(D.Affine(2.0, 0.0, 0.0, 2.0, 0.0, 0.0))
        t = L.nonrigidity_terms(d, 10, 10)
        assert abs(float(t["orthogonality"].data) - 18.0) < 1e-9
        assert abs(float(t["properness"].data) - 9.0) < 1e-9
        assert float(t["affinity"].data) < 1e-20

    def test_affinity_of_quadratic_map(self):
        # c_k = grid_k + a_k y^2 + b_k xy + g_k x^2 has exact forward second
        # differences 2a_k, b_k, b_k, 2g_k at every interior pixel
        a, b, g = np.array([0.3, -0.2]), np.array([0.5, 0.7]), np.array([-0.4, 0.1])
        grid = D.grid_coords(12, 10).data
        y, x = grid
        quad = a[:, None, None] * y * y + b[:, None, None] * x * y + g[:, None, None] * x * x
        t = L.nonrigidity_terms(D.Deformation.from_coords(Tensor(grid + quad)))
        want = float(np.sum(4 * a * a + 2 * b * b + 4 * g * g))
        assert float(t["affinity"].data) == pytest.approx(want, rel=1e-12)

    def test_one_call_records_at_most_71_op_nodes(self):
        coords = Tensor(D.svf_exp(D.gaussian_svf((5, 4), (4, 3), (0.9, -0.8), 10, 10)).coords.data,
                        requires_grad=True)
        out = L.nonrigidity(D.Deformation.from_coords(coords), L.LossWeights())
        ops = [n for n in T._toposort(out) if n._grad_fn is not None]
        assert len(ops) <= 71

    def test_default_weights(self):
        w = L.LossWeights()
        assert (w.affinity, w.properness, w.orthogonality) == (1.0, 0.1, 0.01)

    def test_degenerate_extent(self):
        with pytest.raises(ValueError):
            L.nonrigidity(D.identity_map(2, 5), L.LossWeights())

    def test_affine_needs_explicit_extents(self):
        with pytest.raises(ValueError, match="explicit extents"):
            L.nonrigidity(D.identity_affine(), L.LossWeights())
        assert L.nonrigidity(D.identity_affine(), L.LossWeights(), 8, 8).item() == 0.0

    def test_reg_cross_zero_field(self):
        v = D.Svf(Tensor(np.zeros((2, 8, 8))))
        assert reg_cross_of(v).item() == 0.0

    def test_reg_cross_positive_for_bump(self):
        v = D.gaussian_svf((28.8, 67.2), (14.4, 19.2), (0.48, -0.48), 96, 96)
        assert reg_cross_of(v).item() > 0.0

    def test_reg_cross_evaluates_both_signs(self, rng):
        v = D.Svf(Tensor(rng.normal(size=(2, 10, 10)) * 0.4))
        a = reg_cross_of(v).item()
        b = reg_cross_of(-v).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_reg_intra_zero_fields(self):
        z = D.Svf(Tensor(np.zeros((2, 8, 8))))
        assert reg_intra_of(z, z).item() == 0.0

    def test_reg_intra_cancelling_fields(self, rng):
        v = D.gaussian_svf((12, 12), (8, 8), (1.0, -1.0), 24, 24)
        val = reg_intra_of(D.Svf(T.neg(v.field)), v).item()
        # composition of exp(-v) with exp(v) is near identity
        assert val < 1e-3

    def test_reg_intra_no_gradient_to_cross(self, rng):
        vc = Tensor(rng.normal(size=(2, 8, 8)) * 0.2, requires_grad=True)
        vi = Tensor(rng.normal(size=(2, 8, 8)) * 0.2, requires_grad=True)
        # the cross exponentials arrive on the tape, as in the trainer
        reg_intra_of(D.Svf(vi), D.Svf(vc)).backward()
        assert vc.grad is None
        assert vi.grad is not None and np.any(vi.grad)


class _ConstantD:
    """Discriminator stub producing a fixed logit."""

    def __init__(self, logit=0.0):
        self.logit = logit

    def forward(self, x, frozen=False):
        return Tensor(np.array([self.logit]))


class TestAdversarial:
    def test_uninformative_discriminator_loss(self, rng):
        d_loss, g_loss = L.adversarial_losses(
            _ConstantD(0.0), img(rng.uniform(size=(1, 8, 8))), img(rng.uniform(size=(1, 8, 8))),
            img(rng.uniform(size=(1, 8, 8))), None, "def-cond-adv")
        assert d_loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)
        assert g_loss.item() == pytest.approx(math.log(0.5), abs=1e-12)

    def test_identity_transform_matches_plain_conditional(self, rng):
        dnet = N.Encoder(N.EncoderSpec(2, [3, 4], out_dim=1), np.random.default_rng(3))
        x = img(rng.uniform(size=(1, 8, 8)))
        label = img(rng.uniform(size=(1, 8, 8)))
        pred = img(rng.uniform(size=(1, 8, 8)))
        eq = L.adversarial_losses(dnet, x, label, pred, D.identity_map(8, 8), "eq-adv")
        plain = L.adversarial_losses(dnet, x, label, pred, None, "def-cond-adv")
        assert eq[0].item() == pytest.approx(plain[0].item(), rel=1e-12)
        assert eq[1].item() == pytest.approx(plain[1].item(), rel=1e-12)

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            L.adversarial_losses(_ConstantD(), img(rng.uniform(size=(1, 8, 8))),
                                 img(rng.uniform(size=(1, 8, 8))), img(rng.uniform(size=(1, 8, 8))),
                                 None, "wgan")

    def test_generator_gradient_routing(self, rng):
        dnet = N.Encoder(N.EncoderSpec(1, [3, 4], out_dim=1, spectral_norm=True,
                                       activation="leaky"), np.random.default_rng(3))
        pred_src = Tensor(rng.uniform(size=(1, 8, 8)), requires_grad=True)
        pred = D.Image(pred_src, D.full_mask(8, 8))
        label = img(rng.uniform(size=(1, 8, 8)))
        x = img(rng.uniform(size=(1, 8, 8)))
        d_loss, g_loss = L.adversarial_losses(dnet, x, label, pred, None, "def-uncond-adv")
        g_loss.backward()
        assert pred_src.grad is not None and np.any(pred_src.grad)
        assert all(p.grad is None for p in dnet.params())  # frozen during generator term
        d_loss.backward()
        assert any(p.grad is not None and np.any(p.grad) for p in dnet.params())
        assert np.array_equal(pred_src.grad, pred_src.grad)  # d_loss saw a detached copy

    def test_masks_gate_discriminator_input(self, rng):
        seen = {}

        class Probe:
            def forward(self, x, frozen=False):
                seen.setdefault("feeds", []).append(x.data.copy())
                return Tensor(np.array([0.0]))

        mask = np.zeros((8, 8), dtype=bool)
        mask[:4] = True
        label = img(np.ones((1, 8, 8)), mask)
        pred = img(np.full((1, 8, 8), 2.0))
        L.adversarial_losses(Probe(), img(np.full((1, 8, 8), 3.0)), label, pred, None, "def-cond-adv")
        for feed in seen["feeds"]:
            assert np.all(feed[:, 4:, :] == 0.0)  # invalid half zeroed everywhere


class TestTotalLoss:
    def test_synthetic_weights(self):
        w = L.LossWeights()
        assert (w.sim, w.com, w.reg, w.adv) == (1.0, 1.0, 0.1, 1e-4)

    def test_all_zero_terms(self):
        z = Tensor(np.array(0.0))
        terms = dict(rig_sim=z, cross_sim=z, cross_reg=z, intra_sim=z, intra_reg=z)
        assert L.total_loss(terms, L.LossWeights()).item() == 0.0

    def test_weighted_sum(self):
        # near 1e16 the float spacing is 2, so adding any two of the small
        # terms first, inside the similarity group or across groups, changes
        # the result: equality pins the order the determinism gates depend on
        vals = dict(rig_sim=1.0, cross_sim=1.0, cross_reg=2.0, intra_sim=1e16, intra_reg=0.5, com=3.0)
        terms = {k: Tensor(np.array(v)) for k, v in vals.items()}
        w = L.LossWeights(sim=1.0, reg=2.0, com=0.5)
        want = (w.sim * ((vals["rig_sim"] + vals["cross_sim"]) + vals["intra_sim"])
                + w.reg * (vals["cross_reg"] + vals["intra_reg"]) + w.com * vals["com"])
        assert L.total_loss(terms, w).item() == want

    def test_unknown_term_rejected(self):
        z = Tensor(np.array(0.0))
        with pytest.raises(ValueError, match="bogus"):
            L.total_loss({"rig_sim": z, "bogus": z}, L.LossWeights())
        with pytest.raises(ValueError):
            L.total_loss({}, L.LossWeights())
