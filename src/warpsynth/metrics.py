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


def ssim(a, b, max_val: float, window: int = 7) -> float:
    """Mean structural similarity over all complete rectangular windows.

    Uses the standard stabilizers c1 = (0.01 MAX)^2, c2 = (0.03 MAX)^2 and
    population statistics inside each window; channels are averaged.
    """
    a, b = _as_image(a), _as_image(b)
    if a.extents != b.extents or a.channels != b.channels:
        raise ValueError("ssim needs images of identical shape")
    h, w = a.extents
    if h < window or w < window:
        raise ValueError(f"extent {(h, w)} smaller than the {window}x{window} window")
    inter = a.mask & b.mask
    win_ok = np.lib.stride_tricks.sliding_window_view(inter, (window, window)).all(axis=(2, 3))
    if not win_ok.any():
        raise ValueError("ssim: no window fully inside the valid intersection")

    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    vals = []
    for ch in range(a.channels):
        wa = np.lib.stride_tricks.sliding_window_view(a.data.data[ch], (window, window))
        wb = np.lib.stride_tricks.sliding_window_view(b.data.data[ch], (window, window))
        mu1 = wa.mean(axis=(2, 3))
        mu2 = wb.mean(axis=(2, 3))
        # E[xy] - E[x]E[y] for variance too, so ssim(x, x) is exactly 1
        var1 = (wa * wa).mean(axis=(2, 3)) - mu1 * mu1
        var2 = (wb * wb).mean(axis=(2, 3)) - mu2 * mu2
        cov = (wa * wb).mean(axis=(2, 3)) - mu1 * mu2
        num = (2 * mu1 * mu2 + c1) * (2 * cov + c2)
        den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
        vals.append(float((num / den)[win_ok].mean()))
    return float(np.mean(vals))


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def nmi(a, b, bins: int = 64) -> float:
    """(H(a) + H(b)) / H(a, b) from a joint histogram of the valid pixels.

    Equal-width bins span each image's own valid-value range; a constant
    image carries no information and the score is defined as 1.
    """
    a, b = _as_image(a), _as_image(b)
    if a.extents != b.extents:
        raise ValueError("nmi needs images of identical extents")
    inter = a.mask & b.mask
    if int(inter.sum()) * a.channels < 2:
        raise ValueError("nmi: not enough valid pixels")
    av = a.data.data[:, inter].ravel()
    bv = b.data.data[:, inter].ravel()
    if av.min() == av.max() or bv.min() == bv.max():
        return 1.0
    ea = np.linspace(av.min(), av.max(), bins + 1)
    eb = np.linspace(bv.min(), bv.max(), bins + 1)
    joint, _, _ = np.histogram2d(av, bv, bins=[ea, eb])
    n = joint.sum()
    pj = joint / n
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
