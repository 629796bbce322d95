"""Correctness checks on the outputs of each workload.

Every check returns a list of failure messages; an empty list is a pass.
Metric values are recomputed here from the raw arrays, apart from
``warpsynth.metrics``: PSNR and MDE with plain numpy on every image, SSIM
and NMI with plain loops over windows and pixels on a few images.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

import numpy as np

TOLERANCE = 1e-9
MAX_VAL = 255.0


def check_losses(log_text: str, expected_steps: int) -> list[str]:
    """Every logged loss is finite, and one line is logged per configured step."""
    fails = []
    lines = [ln for ln in log_text.splitlines() if ln.strip()]
    if len(lines) != expected_steps:
        fails.append(f"{len(lines)} logged steps, {expected_steps} configured")
    for ln in lines:
        rec = json.loads(ln)
        values = [rec["total"]] + list(rec["terms"].values())
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            fails.append(f"non-finite loss at step {rec['step']}: {rec}")
    return fails


def check_val_drop(before: float, after: float) -> list[str]:
    """Training lowers the validation score on the same val split."""
    if not after < before:
        return [f"validation score {after!r} after training is not below {before!r} before"]
    return []


def check_same_params(expected, reloaded) -> list[str]:
    """Two (name, Tensor) lists hold bit-identical parameters."""
    a = {n: p.data for n, p in expected}
    b = {n: p.data for n, p in reloaded}
    if a.keys() != b.keys():
        return [f"parameter names differ: {sorted(a.keys() ^ b.keys())[:5]}"]
    bad = [n for n in a if a[n].dtype != b[n].dtype or a[n].shape != b[n].shape
           or a[n].tobytes() != b[n].tobytes()]
    return [f"reloaded parameters differ: {bad[:5]}"] if bad else []


def check_validation_values(values) -> list[str]:
    """Validation outputs are finite and non-negative."""
    bad = [v for v in values if v is not None and not (math.isfinite(v) and v >= 0.0)]
    return [f"validation values not finite and >= 0: {bad}"] if bad else []


def _close(name, i, got, want) -> list[str]:
    if math.isinf(got) and got == want:
        return []
    if not abs(got - want) <= TOLERANCE:
        return [f"image {i}: evaluate_model {name} {got!r} != recomputed {want!r}"]
    return []


# -- independent metric computations --------------------------------------------------


def psnr_numpy(pred: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> float:
    diff = (pred - ref)[:, mask]
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(MAX_VAL * MAX_VAL / mse)


def mde_numpy(coords_a, mask_a, coords_b, mask_b) -> float:
    inter = mask_a & mask_b
    dist = np.sqrt(((coords_a - coords_b) ** 2).sum(axis=0))
    return float(dist[inter].mean())


def ssim_loops(a: np.ndarray, b: np.ndarray, mask: np.ndarray, window: int = 7) -> float:
    """Mean SSIM over complete windows inside the mask, one window at a time."""
    c1, c2 = (0.01 * MAX_VAL) ** 2, (0.03 * MAX_VAL) ** 2
    _, h, w = a.shape
    per_channel = []
    for ch in range(a.shape[0]):
        vals = []
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                if not mask[i:i + window, j:j + window].all():
                    continue
                wa = a[ch, i:i + window, j:j + window]
                wb = b[ch, i:i + window, j:j + window]
                mu1, mu2 = wa.mean(), wb.mean()
                var1 = (wa * wa).mean() - mu1 * mu1
                var2 = (wb * wb).mean() - mu2 * mu2
                cov = (wa * wb).mean() - mu1 * mu2
                vals.append((2 * mu1 * mu2 + c1) * (2 * cov + c2)
                            / ((mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)))
        per_channel.append(sum(vals) / len(vals))
    return sum(per_channel) / len(per_channel)


def _entropy(counts, n) -> float:
    return -sum(c / n * math.log(c / n) for c in counts if c > 0)


def nmi_loops(a: np.ndarray, b: np.ndarray, mask: np.ndarray, bins: int = 64) -> float:
    """(H(a) + H(b)) / H(a, b) from a joint histogram filled pixel by pixel."""
    av = a[:, mask].ravel().tolist()
    bv = b[:, mask].ravel().tolist()
    if min(av) == max(av) or min(bv) == max(bv):
        return 1.0
    ea = np.linspace(min(av), max(av), bins + 1).tolist()
    eb = np.linspace(min(bv), max(bv), bins + 1).tolist()
    joint = [[0] * bins for _ in range(bins)]
    for x, y in zip(av, bv):
        # bins are half-open except the last, which includes its right edge
        joint[min(bisect_right(ea, x) - 1, bins - 1)][min(bisect_right(eb, y) - 1, bins - 1)] += 1
    n = len(av)
    ha = _entropy([sum(row) for row in joint], n)
    hb = _entropy([sum(col) for col in zip(*joint)], n)
    hab = _entropy([c for row in joint for c in row], n)
    return 1.0 if hab == 0.0 else (ha + hb) / hab


def check_eval(rows, inferred, samples, loop_images: int) -> list[str]:
    """Compare ``evaluate_model`` rows with metrics recomputed from
    ``Trainer.infer`` outputs (prediction and overall deformation)."""
    fails = []
    if len(rows) != len(samples) or len(inferred) != len(samples):
        return [f"{len(rows)} rows and {len(inferred)} inferences for {len(samples)} images"]
    for i, (row, out, s) in enumerate(zip(rows, inferred, samples)):
        x = s.x.data.data
        pred = np.clip(out["prediction"].data.data, 0.0, MAX_VAL)
        ref = x[[1, 2, 0]]  # the aligned label: the cyclic channel swap of the input
        mask = out["prediction"].mask & s.x.mask
        fails += _close("psnr", i, row["psnr"], psnr_numpy(pred, ref, mask))
        if "overall" in out:
            h, w = s.x.extents
            overall = out["overall"]
            want = mde_numpy(overall.dense_coords(h, w).data, overall.mask_array(h, w),
                             s.d_true.dense_coords(h, w).data, s.d_true.mask_array(h, w))
            fails += _close("mde", i, row.get("mde", math.nan), want)
        if i < loop_images:
            fails += _close("ssim", i, row["ssim"], ssim_loops(pred, ref, mask))
            fails += _close("nmi", i, row["nmi"], nmi_loops(x, pred, mask))
    return fails
