"""Mask-aware evaluation metrics: PSNR, SSIM, NMI and mean deformation error.

All four operate on plain numpy values (no gradient tape) and restrict
themselves to the intersection of the validity masks. SSIM only scores
windows that lie fully inside that intersection; NMI estimates entropies
from a joint histogram over the mutually valid pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deform import Deformation, Image, _resolve_extents

# identical images have infinite PSNR; aggregate tables use this stand-in
PSNR_SENTINEL_DB = 999.0
# side of SSIM's square, uniformly weighted window
SSIM_WINDOW = 7


def _as_image(x) -> Image:
    return x if isinstance(x, Image) else Image.from_array(np.asarray(x, dtype=np.float64))


def psnr(a, b, max_val: float) -> float:
    """10 log10(MAX^2 / MSE) over the valid intersection; +inf when identical."""
    a, b = _as_image(a), _as_image(b)
    if a.extents != b.extents or a.channels != b.channels:
        raise ValueError("psnr needs images of identical shape")
    if max_val <= 0:
        raise ValueError("max_val must be positive")
    inter = a.mask & b.mask
    if not inter.any():
        raise ValueError("psnr: empty mask intersection")
    diff = (a.data.data - b.data.data)[:, inter]
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / mse)


def _window_sums(maps: np.ndarray) -> np.ndarray:
    """Sums of every complete SSIM_WINDOW x SSIM_WINDOW window of the last two
    axes: row sums along x, then their sums along y, each added term by term
    in window order. That is the order in which numpy reduces a
    (..., window, window) view, so the sums equal its sums bit for bit."""
    for _ in range(2):
        n = maps.shape[-1] - SSIM_WINDOW + 1
        total = maps[..., :n] + maps[..., 1:n + 1]
        for k in range(2, SSIM_WINDOW):
            total += maps[..., k:k + n]
        maps = total.swapaxes(-1, -2)
    return maps


def ssim(a, b, max_val: float) -> float:
    """Mean structural similarity over all complete rectangular windows.

    Uses the standard stabilizers c1 = (0.01 MAX)^2, c2 = (0.03 MAX)^2 and
    population statistics inside each window; channels are averaged. The
    window moments come from separable window sums, so the cost is a few
    passes over the image.
    """
    a, b = _as_image(a), _as_image(b)
    if a.extents != b.extents or a.channels != b.channels:
        raise ValueError("ssim needs images of identical shape")
    h, w = a.extents
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"extent {(h, w)} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    area = SSIM_WINDOW * SSIM_WINDOW
    win_ok = _window_sums((a.mask & b.mask).astype(np.intp)) == area
    if not win_ok.any():
        raise ValueError("ssim: no window fully inside the valid intersection")

    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    x, y = a.data.data, b.data.data
    mu1, mu2, ex2, ey2, exy = _window_sums(np.stack((x, y, x * x, y * y, x * y))) / area
    # E[xy] - E[x]E[y] for variance too, so ssim(x, x) is exactly 1
    var1 = ex2 - mu1 * mu1
    var2 = ey2 - mu2 * mu2
    cov = exy - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * cov + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
    return float(np.mean([float(r[win_ok].mean()) for r in num / den]))


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _bin_index(v: np.ndarray, bins: int) -> np.ndarray:
    """Each value's bin among ``bins`` equal-width bins spanning [min, max],
    which must be a positive finite range: ``searchsorted(edges, v,
    side="right") - 1`` on the ``linspace`` edges, the last bin closed on the
    right, as ``np.histogram2d`` assigns them. The bin is estimated
    arithmetically, then moved against the edges until no value lies outside
    its bin."""
    lo, hi = v.min(), v.max()
    edges = np.linspace(lo, hi, bins + 1)
    i = np.minimum(np.floor((v - lo) / (hi - lo) * bins), bins - 1).astype(np.intp)
    while True:
        down = v < edges[i]
        up = (v >= edges[i + 1]) & (i < bins - 1)
        if not (down.any() or up.any()):
            return i
        i += up.astype(np.intp) - down


def nmi(a, b, bins: int = 64) -> float:
    """(H(a) + H(b)) / H(a, b) from a joint histogram of the valid pixels.

    Equal-width bins span each image's own valid-value range; a constant
    image carries no information, and a non-finite value leaves no finite
    range to bin, so in both cases the score is defined as 1.
    """
    a, b = _as_image(a), _as_image(b)
    if a.extents != b.extents:
        raise ValueError("nmi needs images of identical extents")
    inter = a.mask & b.mask
    if int(inter.sum()) * a.channels < 2:
        raise ValueError("nmi: not enough valid pixels")
    av = a.data.data[:, inter].ravel()
    bv = b.data.data[:, inter].ravel()
    if not all(0.0 < np.ptp(v) < math.inf for v in (av, bv)):
        return 1.0
    flat = _bin_index(av, bins) * bins + _bin_index(bv, bins)
    joint = np.bincount(flat, minlength=bins * bins).reshape(bins, bins)
    pj = joint / joint.sum()
    ha = _entropy(pj.sum(axis=1))
    hb = _entropy(pj.sum(axis=0))
    hab = _entropy(pj.ravel())
    if hab == 0.0:
        return 1.0
    return (ha + hb) / hab


def mde(d_pred: Deformation, d_true: Deformation) -> float:
    """Mean Euclidean distance between two coordinate maps, in pixels,
    averaged over the intersection of their validity masks; at least one of
    them must be dense, to give the grid."""
    h, w = _resolve_extents((d_pred, d_true), None, None, "mde")
    inter = d_pred.mask_array(h, w) & d_true.mask_array(h, w)
    if not inter.any():
        raise ValueError("mde: empty mask intersection")
    diff = d_pred.dense_coords(h, w).data - d_true.dense_coords(h, w).data
    dist = np.sqrt(diff[0] ** 2 + diff[1] ** 2)
    return float(dist[inter].mean())


@dataclass
class MetricReport:
    """Per-image metric values plus aggregate means (the artifact's analog of
    a results table row)."""

    psnr: list = field(default_factory=list)
    ssim: list = field(default_factory=list)
    nmi: list = field(default_factory=list)
    mde: list = field(default_factory=list)

    def add(self, psnr_db=None, ssim_val=None, nmi_val=None, mde_px=None):
        if psnr_db is not None:
            self.psnr.append(float(psnr_db))
        if ssim_val is not None:
            self.ssim.append(float(ssim_val))
        if nmi_val is not None:
            self.nmi.append(float(nmi_val))
        if mde_px is not None:
            self.mde.append(float(mde_px))

    @staticmethod
    def _agg(values):
        if not values:
            return None
        vals = [PSNR_SENTINEL_DB if math.isinf(v) else v for v in values]
        return float(np.mean(vals))

    def aggregates(self) -> dict:
        return {
            "psnr": self._agg(self.psnr),
            "ssim": self._agg(self.ssim),
            "nmi": self._agg(self.nmi),
            "mde": self._agg(self.mde),
        }
