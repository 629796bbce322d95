"""Evaluation metrics against brute-force per-pixel/per-window oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from warpsynth.tensor import Tensor
from warpsynth import deform as D
from warpsynth import metrics as M

from warpsynth import oracles


SMALL = settings(max_examples=60, deadline=None, database=None)


def img(arr, mask=None):
    return D.Image.from_array(arr, mask)


@st.composite
def masked_pairs(draw):
    """Two images of 1-3 channels on one grid of 7-24 px and a validity mask.
    Values are drawn from a few levels as often as from all of [0, 255], so
    they repeat. The mask has a rectangular hole and scattered invalid
    pixels; one drawn 7x7 window is kept valid, so some SSIM window fits."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(7, 24)), draw(st.integers(7, 24))
    value = st.one_of(st.sampled_from([0.0, 1.0, 127.5, 255.0]), st.floats(0.0, 255.0))
    a, b = (draw(hnp.arrays(np.float64, (c, h, w), elements=value)) for _ in range(2))
    mask = np.ones((h, w), dtype=bool)
    top, left = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    mask[top:top + draw(st.integers(0, h - top)), left:left + draw(st.integers(0, w - left))] = False
    for i, j in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)), max_size=6)):
        mask[i, j] = False
    i, j = draw(st.integers(0, h - 7)), draw(st.integers(0, w - 7))
    mask[i:i + 7, j:j + 7] = True
    return a, b, mask


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        a = rng.uniform(0, 255, size=(3, 8, 8))
        assert math.isinf(M.psnr(a, a, 255))

    def test_known_mse(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 2.0)  # mse = 4
        expected = 10 * math.log10(255 ** 2 / 4)
        assert M.psnr(a, b, 255) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(42.11, abs=0.01)

    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            a = rng.uniform(0, 255, size=(3, 8, 8))
            b = rng.uniform(0, 255, size=(3, 8, 8))
            assert M.psnr(a, b, 255) == pytest.approx(oracles.psnr_loop(a, b, 255), abs=1e-9)

    def test_mask_aware(self, rng):
        a = rng.uniform(0, 255, size=(1, 8, 8))
        b = rng.uniform(0, 255, size=(1, 8, 8))
        mask = rng.uniform(size=(8, 8)) > 0.4
        got = M.psnr(img(a, mask), img(b), 255)
        assert got == pytest.approx(oracles.psnr_loop(a, b, 255, mask), abs=1e-9)

    def test_monotone_in_noise(self, rng):
        base = rng.uniform(50, 200, size=(1, 16, 16))
        values = []
        for amp in (1, 2, 4, 8, 16):
            noisy = base + rng.normal(size=base.shape) * amp
            values.append(M.psnr(base, noisy, 255))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_intersection_rejected(self, rng):
        m = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ValueError):
            M.psnr(img(rng.uniform(size=(1, 8, 8)), m), img(rng.uniform(size=(1, 8, 8))), 255)


class TestSsim:
    def test_identical_is_exactly_one(self, rng):
        a = rng.uniform(0, 255, size=(3, 9, 9))
        assert M.ssim(a, a, 255) == 1.0

    def test_constant_images_formula(self):
        a = np.zeros((1, 8, 8))
        b = np.full((1, 8, 8), 255.0)
        c1 = (0.01 * 255) ** 2
        c2 = (0.03 * 255) ** 2
        expected = (c1 * c2) / ((255.0 ** 2 + c1) * c2)
        assert M.ssim(a, b, 255) == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        for _ in range(5):
            a = rng.uniform(0, 255, size=(2, 10, 10))
            b = rng.uniform(0, 255, size=(2, 10, 10))
            assert M.ssim(a, b, 255) == pytest.approx(oracles.ssim_loop(a, b, 255), abs=1e-9)

    def test_window_must_fit_mask(self, rng):
        mask = np.zeros((10, 10), dtype=bool)
        mask[:, :6] = True  # no complete 7x7 window
        with pytest.raises(ValueError):
            M.ssim(img(rng.uniform(size=(1, 10, 10)), mask), img(rng.uniform(size=(1, 10, 10))), 255)

    def test_masked_windows_match_oracle(self, rng):
        a = rng.uniform(0, 255, size=(1, 12, 12))
        b = rng.uniform(0, 255, size=(1, 12, 12))
        mask = np.ones((12, 12), dtype=bool)
        mask[0, 0] = False
        got = M.ssim(img(a, mask), img(b), 255)
        assert got == pytest.approx(oracles.ssim_loop(a, b, 255, mask=mask), abs=1e-9)

    def test_bounded(self, rng):
        for _ in range(10):
            a = rng.uniform(0, 255, size=(1, 8, 8))
            b = rng.uniform(0, 255, size=(1, 8, 8))
            assert -1.0 <= M.ssim(a, b, 255) <= 1.0

    @SMALL
    @given(masked_pairs())
    def test_matches_loop_oracle_on_masked_grids(self, case):
        a, b, mask = case
        got = M.ssim(img(a, mask), img(b), 255)
        assert got == pytest.approx(oracles.ssim_loop(a, b, 255, mask=mask), abs=1e-9)


class TestNmi:
    def test_identical_is_exactly_two(self, rng):
        a = rng.uniform(0, 255, size=(1, 10, 10))
        assert M.nmi(a, a) == 2.0

    def test_independent_noise_near_one(self, rng):
        a = rng.uniform(0, 255, size=(1, 100, 100))
        b = rng.uniform(0, 255, size=(1, 100, 100))
        assert M.nmi(a, b, bins=16) == pytest.approx(1.0, abs=0.02)

    def test_matches_loop_oracle(self, rng):
        for _ in range(5):
            a = rng.uniform(0, 255, size=(1, 12, 12))
            b = rng.uniform(0, 255, size=(1, 12, 12))
            assert M.nmi(a, b, 8) == pytest.approx(oracles.nmi_loop(a, b, 8), abs=1e-9)

    def test_monotone_relabel_invariance(self, rng):
        a = rng.uniform(0, 1, size=(1, 16, 16))
        b = rng.uniform(0, 1, size=(1, 16, 16))
        base = M.nmi(a, b, 16)
        relabeled = M.nmi(3 * a + 1, 3 * b + 1, 16)  # same bin assignment
        assert relabeled == pytest.approx(base, abs=1e-12)

    def test_constant_image_defined_as_one(self, rng):
        a = np.full((1, 8, 8), 5.0)
        b = rng.uniform(size=(1, 8, 8))
        assert M.nmi(a, b) == 1.0

    def test_non_finite_value_defined_as_one(self, rng):
        a = rng.uniform(size=(1, 8, 8))
        for bad in (math.nan, math.inf):
            b = a.copy()
            b[0, 3, 4] = bad
            assert M.nmi(a, b) == 1.0 and M.nmi(b, a) == 1.0

    @SMALL
    @given(masked_pairs(), st.integers(1, 64))
    def test_matches_loop_oracle_on_masked_grids(self, case, bins):
        a, b, mask = case
        got = M.nmi(img(a, mask), img(b), bins)
        assert got == pytest.approx(oracles.nmi_loop(a, b, bins, mask=mask), abs=1e-9)

    @pytest.mark.parametrize("lo, hi, bins", [(0.3, 7.1, 8), (-3.7, 255.0, 64), (1e5 + 0.1, 1e5 + 0.9, 13),
                                              (0.0, 1.0, 3), (-1e-7, 2e-7, 64), (2.0 ** 54, 2.0 ** 54 + 64, 64)])
    def test_values_on_bin_edges(self, lo, hi, bins):
        # every edge, the value one ULP below each interior edge, and the
        # maximum twice: each must land where searchsorted puts it. In the
        # last case a bin is narrower than the spacing of doubles near 2^54,
        # so edges repeat and the arithmetic estimate is off by up to 2
        edges = np.linspace(lo, hi, bins + 1)
        below = np.nextafter(edges[1:-1], -np.inf)
        v = np.concatenate([edges, below[below >= lo], [hi]])
        want = [oracles._bin_of(x, edges, bins) for x in v]
        assert M._bin_index(v, bins).tolist() == want
        a = v.reshape(1, 1, -1)
        b = np.roll(v, 3).reshape(1, 1, -1) ** 2
        assert M.nmi(a, b, bins) == pytest.approx(oracles.nmi_loop(a, b, bins), abs=1e-9)

    def test_bounds(self, rng):
        for _ in range(10):
            a = rng.uniform(size=(1, 12, 12))
            b = a + rng.normal(size=a.shape) * rng.uniform(0, 2)
            v = M.nmi(a, b, 12)
            assert 1.0 - 1e-12 <= v <= 2.0 + 1e-12


class TestMde:
    def test_identical_is_zero(self, rng):
        c = rng.normal(size=(2, 8, 8)) + np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij"))
        d = D.Deformation.from_coords(Tensor(c))
        assert M.mde(d, D.Deformation.from_coords(Tensor(c.copy()))) == 0.0

    def test_three_four_five(self):
        base = D.identity_map(8, 8)
        shifted = D.Deformation.from_coords(Tensor(base.coords.data + np.array([3.0, 4.0])[:, None, None]))
        assert M.mde(shifted, base) == pytest.approx(5.0, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        for _ in range(5):
            d1 = rng.normal(size=(2, 9, 9)) * 3
            d2 = rng.normal(size=(2, 9, 9)) * 3
            got = M.mde(D.Deformation.from_coords(Tensor(d1)), D.Deformation.from_coords(Tensor(d2)))
            assert got == pytest.approx(oracles.mde_loop(d1, d2), abs=1e-12)

    def test_metric_axioms(self, rng):
        ds = [D.Deformation.from_coords(Tensor(rng.normal(size=(2, 6, 6)) * 2)) for _ in range(3)]
        ab = M.mde(ds[0], ds[1])
        ba = M.mde(ds[1], ds[0])
        assert ab == pytest.approx(ba, abs=1e-14)
        ac = M.mde(ds[0], ds[2])
        cb = M.mde(ds[2], ds[1])
        assert ab <= ac + cb + 1e-12

    def test_affine_pair_needs_extents(self):
        # two affines give no grid to average over; one dense map does
        a = D.identity_affine()
        with pytest.raises(ValueError):
            M.mde(a, a)
        assert M.mde(a, D.identity_map(8, 8)) == 0.0


class TestReport:
    def test_aggregate_uses_sentinel_for_infinite_psnr(self):
        r = M.MetricReport()
        r.add(psnr_db=math.inf, ssim_val=1.0, nmi_val=2.0)
        r.add(psnr_db=30.0, ssim_val=0.5, nmi_val=1.5)
        agg = r.aggregates()
        assert agg["psnr"] == pytest.approx((M.PSNR_SENTINEL_DB + 30) / 2)
        assert agg["mde"] is None
