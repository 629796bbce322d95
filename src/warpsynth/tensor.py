"""Dense tensors with a reverse-mode gradient tape.

The tape is define-by-run: every operation that touches a gradient-requiring
tensor records a closure that propagates the upstream gradient to its inputs.
Calling ``backward`` on a scalar walks the recorded graph once in reverse
topological order and frees as it goes: each node's gradient is dropped as
soon as it has been passed on, so only leaves (tensors no op produced) end up
with a ``.grad``, and intermediates carry none. The graph itself survives the
pass, so repeated backward calls accumulate into the leaves' ``.grad``.

The dtype follows the data: a tensor keeps float32 data as float32 and
stores anything else as float64, and each op computes, and builds its
gradients, in its inputs' dtype. An op that mixes the two computes in float32,
so a float64 constant (an identity grid, a mask, a Python scalar) never
promotes a float32 graph. The trainer runs in float32; the gradient checks and
the oracles pass float64 arrays and stay in float64.

Only two broadcasting patterns are supported for binary ops: equal shapes,
and scalar-vs-tensor. That covers every loss and network in this package and
keeps gradient bookkeeping trivial.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

DTYPE = np.float64

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None

    # -- bookkeeping -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, no tape participation. Shares the data buffer."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._grad_fn = None
        return t

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- backward ----------------------------------------------------------------

    def backward(self):
        """Accumulate dSelf/dLeaf into ``.grad`` of every reachable leaf.

        Only scalar roots are supported. Each node's gradient lives in a
        scratch map only until it is spent: an interior node's is dropped once
        its ``grad_fn`` has run, and a leaf's is added to its ``.grad``, so
        intermediates get no ``.grad``. The recorded graph is kept, and
        repeated calls accumulate leaf gradients as a running sum.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        if not self.requires_grad:
            return
        scratch: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(_toposort(self)):
            g = scratch.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is None:
                if node.grad is None:
                    node.grad = g
                else:
                    node.grad += g
                continue
            for parent, pg in node._grad_fn(g):
                if not parent.requires_grad:
                    continue
                acc = scratch.get(id(parent))
                if acc is None:
                    # own the buffer: closures may hand back views, read-only
                    # broadcasts, or the upstream gradient itself
                    if pg is g or pg.base is not None or not pg.flags.writeable:
                        pg = np.array(pg, dtype=parent.data.dtype)
                    scratch[id(parent)] = pg
                else:
                    acc += pg


def _toposort(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _common(*tensors):
    """The tensors' data in one dtype: float32 if any of them is float32,
    else float64."""
    dtype = np.float32 if any(t.data.dtype == np.float32 for t in tensors) else DTYPE
    return [t.data.astype(dtype, copy=False) for t in tensors]


def _make(data: np.ndarray, parents, grad_fn) -> Tensor:
    """Build an op result; record on the tape only if some input needs grad."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _reduce_to(grad: np.ndarray, shape) -> np.ndarray:
    # inverse of scalar-vs-tensor broadcasting: the scalar side sums
    if grad.shape == tuple(shape):
        return grad
    return np.asarray(grad.sum()).reshape(shape)


# -- elementwise suite ------------------------------------------------------------


def _binary(a, b, value, grad_a, grad_b):
    """Shared core of the arithmetic ops, which broadcast a scalar against a
    tensor and nothing else. ``grad_a(g, x, y)`` and ``grad_b`` give each
    side's gradient from the upstream gradient and both operands' data; a side
    gets one only if it requires it, so a constant operand costs nothing."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(f"unsupported broadcast: {a.data.shape} vs {b.data.shape}")
    x, y = _common(a, b)

    def grad_fn(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _reduce_to(grad_a(g, x, y), a.data.shape)))
        if b.requires_grad:
            grads.append((b, _reduce_to(grad_b(g, x, y), b.data.shape)))
        return grads

    return _make(value(x, y), (a, b), grad_fn)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, np.true_divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def neg(a):
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: ((a, -g),))


def absolute(a):
    a = _wrap(a)
    # subgradient at exactly 0 takes the negative branch, matching leaky_relu
    sign = (a.data > 0).astype(a.data.dtype) * 2 - 1
    return _make(np.abs(a.data), (a,), lambda g: ((a, g * sign),))


def log(a):
    a = _wrap(a)
    return _make(np.log(a.data), (a,), lambda g: ((a, g / a.data),))


def tanh(a):
    a = _wrap(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


def sigmoid(a):
    a = _wrap(a)
    z = a.data
    out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))

    def grad_fn(g):
        return ((a, g * out * (1.0 - out)),)

    return _make(out, (a,), grad_fn)


def cos(a):
    a = _wrap(a)
    return _make(np.cos(a.data), (a,), lambda g: ((a, -g * np.sin(a.data)),))


def sin(a):
    a = _wrap(a)
    return _make(np.sin(a.data), (a,), lambda g: ((a, g * np.cos(a.data)),))


def clamp(a, lo: float, hi: float):
    a = _wrap(a)
    out = np.clip(a.data, lo, hi)
    passthrough = (a.data >= lo) & (a.data <= hi)
    return _make(out, (a,), lambda g: ((a, g * passthrough),))


def mean(a):
    a = _wrap(a)
    n = a.data.size
    out = np.asarray(a.data.mean())
    return _make(out, (a,), lambda g: ((a, np.broadcast_to(g / n, a.data.shape)),))


def tsum(a):
    a = _wrap(a)
    out = np.asarray(a.data.sum())
    return _make(out, (a,), lambda g: ((a, np.broadcast_to(g, a.data.shape)),))


def getitem(a, idx):
    a = _wrap(a)
    out = a.data[idx]

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return ((a, ga),)

    return _make(np.array(out), (a,), grad_fn)


def stack(tensors, axis: int = 0):
    tensors = [_wrap(t) for t in tensors]
    out = np.stack(_common(*tensors), axis=axis)

    def grad_fn(g):
        slabs = np.split(g, len(tensors), axis=axis)
        return tuple((t, s.reshape(t.data.shape)) for t, s in zip(tensors, slabs))

    return _make(out, tuple(tensors), grad_fn)


def concat(tensors, axis: int = 0):
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate(_common(*tensors), axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        pieces = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            pieces.append((t, g[tuple(sl)]))
        return tuple(pieces)

    return _make(out, tuple(tensors), grad_fn)


# -- activations -------------------------------------------------------------------


def leaky_relu(a, slope: float = 0.01):
    """x for x > 0, slope*x otherwise; slope 0 gives plain ReLU.

    The branch at exactly 0 is the negative one, so the subgradient there is
    ``slope`` (deterministic tests depend on this).
    """
    a = _wrap(a)
    pos = a.data > 0
    return _make(np.where(pos, a.data, a.data * slope), (a,),
                 lambda g: ((a, np.where(pos, g, g * slope)),))


# -- dense / pooling / normalization ------------------------------------------------


def dense(x, w, b):
    """w @ x + b for 1-d x; w is (n_out, n_in)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 1 or w.data.ndim != 2 or w.data.shape[1] != x.data.shape[0]:
        raise ValueError(f"dense shape mismatch: w{w.data.shape} x{x.data.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise ValueError(f"dense bias shape {b.data.shape} != ({w.data.shape[0]},)")
    out = w.data @ x.data + b.data

    def grad_fn(g):
        return ((x, w.data.T @ g), (w, np.outer(g, x.data)), (b, g))

    return _make(out, (x, w, b), grad_fn)


def global_avg_pool(x):
    """(C,H,W) -> (C,) per-channel spatial mean."""
    x = _wrap(x)
    c, h, w = x.data.shape
    out = x.data.mean(axis=(1, 2))

    def grad_fn(g):
        return ((x, np.broadcast_to(g[:, None, None] / (h * w), x.data.shape)),)

    return _make(out, (x,), grad_fn)


def group_norm(x, groups: int, gamma, beta, eps: float = 1e-5):
    """Zero mean / unit variance per channel group, then per-channel affine."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    c, h, w = x.data.shape
    if c % groups != 0:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    cg = c // groups
    xg = x.data.reshape(groups, cg, h, w)
    mu = xg.mean(axis=(1, 2, 3), keepdims=True)
    var = xg.var(axis=(1, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(c, h, w)
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def grad_fn(g):
        dbeta = g.sum(axis=(1, 2))
        dgamma = (g * xhat).sum(axis=(1, 2))
        dxhat = (g * gamma.data[:, None, None]).reshape(groups, cg, h, w)
        xh = xhat.reshape(groups, cg, h, w)
        m1 = dxhat.mean(axis=(1, 2, 3), keepdims=True)
        m2 = (dxhat * xh).mean(axis=(1, 2, 3), keepdims=True)
        dx = (inv * (dxhat - m1 - xh * m2)).reshape(c, h, w)
        return ((x, dx), (gamma, dgamma), (beta, dbeta))

    return _make(out, (x, gamma, beta), grad_fn)


# -- convolutions --------------------------------------------------------------------


def _blocks(x: np.ndarray, k: int) -> np.ndarray:
    """The non-overlapping k x k blocks of (C,H,W) as a (C*k*k, H/k * W/k)
    matrix, in one reshape/transpose copy: the patch matrix of a stride-k
    convolution, whose patches tile the image."""
    c, h, w = x.shape
    return x.reshape(c, h // k, k, w // k, k).transpose(0, 2, 4, 1, 3).reshape(c * k * k, -1)


def _flat_padded(x: np.ndarray, k: int, padding: int):
    """Zero-pad (C,H,W) by ``padding`` into one flat (C, Hp*P + k-1) buffer,
    P = W + 2*padding being the row pitch. Kernel offset (a, b) of a stride-1
    k x k correlation then reads the contiguous column window
    [a*P + b, a*P + b + Ho*P) (``_windows``); its columns j >= P-k+1 of each
    output row wrap into the next row and are dropped. Returns the buffer, Ho
    and P."""
    c, h, w = x.shape
    hp, pitch = h + 2 * padding, w + 2 * padding
    flat = np.zeros((c, hp * pitch + k - 1), dtype=x.dtype)
    flat[:, :hp * pitch].reshape(c, hp, pitch)[:, padding:padding + h, padding:padding + w] = x
    return flat, hp - k + 1, pitch


def _windows(flat: np.ndarray, k: int, ho: int, pitch: int) -> list[np.ndarray]:
    """The k*k (C, Ho*P) column windows of a flat padded buffer, in (a, b) order."""
    return [flat[:, a * pitch + b:a * pitch + b + ho * pitch] for a in range(k) for b in range(k)]


def _correlate(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlate (C_in,H,W) with (C_out,C_in,k,k) over the input
    zero-padded by ``padding``, for the two layouts ``conv2d`` accepts. At
    stride = k it is one GEMM on the block matrix. At stride 1 it is k*k
    shifted GEMMs, w[:, :, a, b] @ window(a, b), summed in (a, b) order over
    one flat padded buffer. Only when C_out >= 2*C_in, where k*k thin GEMMs
    and their sums cost more than a copy of the input's windows (3->8, 8->16
    and 16->32 in tools/convbench.py; 7->8 and 8->9 do not), are the windows
    stacked for one GEMM."""
    c_out, c_in, k, _ = w.shape
    if stride == k:
        h, wd = x.shape[1:]
        return (w.reshape(c_out, -1) @ _blocks(x, k)).reshape(c_out, h // k, wd // k)
    flat, ho, pitch = _flat_padded(x, k, padding)
    windows = _windows(flat, k, ho, pitch)
    if c_out >= 2 * c_in:
        acc = w.transpose(0, 2, 3, 1).reshape(c_out, -1) @ np.concatenate(windows)
    else:
        taps = w.transpose(2, 3, 0, 1).reshape(k * k, c_out, c_in)
        acc = taps[0] @ windows[0]
        part = np.empty_like(acc)
        for tap, window in zip(taps[1:], windows[1:]):
            acc += np.matmul(tap, window, out=part)
    return acc.reshape(c_out, ho, pitch)[:, :, :pitch - k + 1]


def _correlate_adjoint(g: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Adjoint of ``_correlate`` in its input, for the two layouts ``conv2d``
    accepts. At stride = k (padding 0) the patches tile the image without
    overlap, so the patch-space product w.T @ g goes back block by block with
    one reshape. At stride 1 the adjoint is itself a correlation: g against
    the flipped kernel with in/out roles swapped, padded by k-1-padding."""
    c_out, c_in, k, _ = w.shape
    if stride == k:
        ho, wo = g.shape[1:]
        cols = w.reshape(c_out, -1).T @ g.reshape(c_out, -1)
        return cols.reshape(c_in, k, k, ho, wo).transpose(0, 3, 1, 4, 2).reshape(c_in, ho * k, wo * k)
    return _correlate(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, k - 1 - padding)


def _correlate_weight_grad(x: np.ndarray, g: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Gradient of ``_correlate`` in its (C_out,C_in,k,k) weight, for the
    upstream gradient g. At stride = k it is g @ blocks.T. At stride 1, g
    zero-extended to the row pitch makes gw[:, :, a, b] = g_ext @ window.T,
    k*k GEMMs that read the flat padded buffer in place: the extension's
    zero columns cancel the wrapped-around ones."""
    c_out, ho, wo = g.shape
    if stride == k:
        return (g.reshape(c_out, -1) @ _blocks(x, k).T).reshape(c_out, -1, k, k)
    flat, _, pitch = _flat_padded(x, k, padding)
    g_ext = np.zeros((c_out, ho, pitch), dtype=g.dtype)
    g_ext[:, :, :wo] = g
    g_ext = g_ext.reshape(c_out, -1)
    gw = np.empty((k, k, c_out, x.shape[0]), dtype=g.dtype)
    for tap, window in zip(gw.reshape(k * k, c_out, -1), _windows(flat, k, ho, pitch)):
        np.matmul(g_ext, window.T, out=tap)
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


def conv2d(x, w, b, stride: int = 1, padding: int = 0):
    """Cross-correlation of (C_in,H,W) with (C_out,C_in,k,k), zero padding.

    Two layouts are supported, the ones the networks use: stride 1 with
    padding 0..k-1 (3x3/pad 1, 1x1), whose input gradient is again a
    correlation, and stride = k with no padding (the 2x2/stride-2
    down-convs), whose patches do not overlap. Any other layout raises
    ``ValueError``.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    c_out, c_in, k, k2 = w.data.shape
    if k != k2:
        raise ValueError("only square kernels supported")
    if not ((stride == 1 and 0 <= padding <= k - 1) or (stride == k and padding == 0)):
        raise ValueError(f"unsupported layout k={k}, stride={stride}, padding={padding}: "
                         "only stride 1 with padding <= k-1, or stride k without padding")
    if x.data.ndim != 3 or x.data.shape[0] != c_in:
        raise ValueError(f"conv2d input {x.data.shape} incompatible with weight {w.data.shape}")
    h, wd = x.data.shape[1:]
    if h % stride or wd % stride or min(h, wd) + 2 * padding < k:
        raise ValueError(f"input {x.data.shape} gives no whole, non-empty output for k={k}, "
                         f"stride={stride}, padding={padding}")

    # adding the bias also copies the stride-1 result out of its padded rows
    out = _correlate(x.data, w.data, stride, padding) + b.data[:, None, None]

    def grad_fn(g):
        # only the gradients some input needs: a network's first layer reads
        # a constant image, whose input gradient would be a wasted GEMM
        grads = []
        if x.requires_grad:
            grads.append((x, _correlate_adjoint(g, w.data, stride, padding)))
        if w.requires_grad:
            grads.append((w, _correlate_weight_grad(x.data, g, k, stride, padding)))
        if b.requires_grad:
            grads.append((b, g.sum(axis=(1, 2))))
        return grads

    return _make(out, (x, w, b), grad_fn)


def conv_transpose2d(x, w, b):
    """Exact adjoint of the matching 2x2/stride-2 conv2d (plus bias): the
    U-Net's 2x upsampling, and the only layout supported.

    Weight layout is (C_in, C_out, 2, 2), i.e. the same array that the paired
    conv2d would use with its in/out roles swapped: the forward pass is that
    conv2d's input gradient, and the input gradient is that conv2d's forward.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    c_in, c_out, k, k2 = w.data.shape
    if not k == k2 == 2:
        raise ValueError(f"unsupported kernel {k}x{k2}: "
                         "only the U-Net's 2x2/stride-2 upsampling is implemented")
    if x.data.ndim != 3 or x.data.shape[0] != c_in:
        raise ValueError(f"conv_transpose2d input {x.data.shape} incompatible with weight {w.data.shape}")

    out = _correlate_adjoint(x.data, w.data, 2, 0)
    out += b.data[:, None, None]

    def grad_fn(g):
        grads = []
        if x.requires_grad or w.requires_grad:
            cols = _blocks(g, 2)
            if x.requires_grad:
                grads.append((x, (w.data.reshape(c_in, -1) @ cols).reshape(x.data.shape)))
            if w.requires_grad:
                # gw[c, o, a, b] = sum_ij x[c, i, j] * g[o, i*s + a, j*s + b]; a
                # contiguous (HW, C_out*k*k) operand keeps BLAS's summation order
                gw = x.data.reshape(c_in, -1) @ np.ascontiguousarray(cols.T)
                grads.append((w, gw.reshape(w.data.shape)))
        if b.requires_grad:
            grads.append((b, g.sum(axis=(1, 2))))
        return grads

    return _make(out, (x, w, b), grad_fn)


# -- bilinear sampling ----------------------------------------------------------------


def _sampling_plan(coords: np.ndarray, h: int, w: int, border: str):
    """Bilinear corners of a (2,H',W') coordinate map on an h×w grid.

    Returns ``corners``, one (flat index, in-bounds flag, weight) triple per
    corner in the order (y0,x0), (y0,x1), (y1,x0), (y1,x1), and the
    fractional offsets ``fy``, ``fx``. Indices are clipped into the grid, so
    they are safe to gather with; the flag says whether the corner is real.
    """
    cy, cx = coords[0], coords[1]
    if border == "clamp":
        cy = np.clip(cy, 0.0, h - 1.0)
        cx = np.clip(cx, 0.0, w - 1.0)
    y0 = np.floor(cy)
    x0 = np.floor(cx)
    fy, fx = cy - y0, cx - x0
    y0 = y0.astype(np.int64)
    x0 = x0.astype(np.int64)
    rows = [(np.clip(y, 0, h - 1) * w, (y >= 0) & (y < h), wy)
            for y, wy in ((y0, 1.0 - fy), (y0 + 1, fy))]
    cols = [(np.clip(x, 0, w - 1), (x >= 0) & (x < w), wx)
            for x, wx in ((x0, 1.0 - fx), (x0 + 1, fx))]
    corners = [(row + col, in_row & in_col, wy * wx)
               for row, in_row, wy in rows for col, in_col, wx in cols]
    return corners, fy, fx


def bilinear_sample(image, coords, border: str = "zeros"):
    """Sample (C,H,W) at pixel coordinates (2,H',W'), order (row, col).

    ``border="zeros"``: out-of-range corners contribute zero (validity is the
    caller's concern, tracked by masks). ``border="clamp"``: coordinates are
    clipped to the grid first; used for resampling displacement fields, where
    constant extension is the right model. Gradients flow to both the image
    values and the coordinates.
    """
    image, coords = _wrap(image), _wrap(coords)
    img, cdata = _common(image, coords)
    c, h, w = img.shape
    corners, fy, fx = _sampling_plan(cdata, h, w, border)

    # img[:, idx] leaves the channel axis innermost in memory (np.take would
    # not), and later reductions over the sampled map sum in that order
    img = img.reshape(c, -1)
    v00, v01, v10, v11 = (img[:, idx] * inb for idx, inb, _ in corners)
    (_, _, w00), (_, _, w01), (_, _, w10), (_, _, w11) = corners
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11

    def grad_fn(g):
        # warps of constant images and warps along constant maps are common:
        # each side's gradient is computed only when it is needed
        grads = []
        if image.requires_grad:
            # one bincount per corner over all channels: channel ch's bins
            # sit at offset ch*h*w, and each bin sums its reads in the same
            # order as a per-channel bincount would
            npix = h * w
            offsets = (np.arange(c) * npix)[:, None]
            gimg = np.zeros(c * npix, dtype=img.dtype)
            for idx, inb, wt in corners:
                gimg += np.bincount((offsets + idx.ravel()).ravel(),
                                    weights=(g * (wt * inb)).ravel(), minlength=c * npix)
            grads.append((image, gimg.reshape(c, h, w)))
        if coords.requires_grad:
            d_dy = (v10 - v00) * (1.0 - fx) + (v11 - v01) * fx
            d_dx = (v01 - v00) * (1.0 - fy) + (v11 - v10) * fy
            gcy = (g * d_dy).sum(axis=0)
            gcx = (g * d_dx).sum(axis=0)
            if border == "clamp":
                # flat beyond the border: no coordinate gradient where we clipped
                cy, cx = cdata
                gcy = gcy * ((cy > 0.0) & (cy < h - 1.0))
                gcx = gcx * ((cx > 0.0) & (cx < w - 1.0))
            grads.append((coords, np.stack([gcy, gcx])))
        return grads

    return _make(out, (image, coords), grad_fn)


def sample_validity(mask: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Strict mask lookup: every interpolation corner that would carry weight
    must be in bounds and valid. Returns a boolean (H',W') array; no tape."""
    h, w = mask.shape
    corners, fy, fx = _sampling_plan(coords, h, w, "zeros")
    m = mask.astype(bool).ravel()
    need_y1, need_x1 = fy > 0, fx > 0
    (i00, in00, _), *rest = corners
    ok = in00 & m[i00]
    for (idx, inb, _), need in zip(rest, (need_x1, need_y1, need_y1 & need_x1)):
        ok &= ~need | (inb & m[idx])
    return ok


# -- optimizer ---------------------------------------------------------------------


class Adam:
    """In-place Adam with bias correction (Kingma & Ba 2015) over one
    parameter list. The training description names the optimizer but not its
    betas, so they follow common practice. ``t`` counts steps; the first
    and second moments ``m`` and ``v`` are allocated at the first step."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []

    def step(self):
        """One update from each parameter's ``.grad`` (None counts as zero)."""
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in self.params]
            self.v = [np.zeros_like(p.data) for p in self.params]
        if len(self.m) != len(self.params) or len(self.v) != len(self.params):
            raise ValueError("parameter/moment count mismatch")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# -- spectral normalization ----------------------------------------------------------


@dataclass
class PowerIterState:
    u: np.ndarray | None = None


def spectral_normalize(w: Tensor, state: PowerIterState, update: bool = True) -> Tensor:
    """Divide w by its leading singular value, estimated by power iteration.

    The weight is viewed as (out_features, rest). One iteration runs per call
    when ``update`` is true; the u-vector persists in ``state``. The estimate
    is treated as a constant during backprop.
    """
    w = _wrap(w)
    mat = w.data.reshape(w.data.shape[0], -1)
    if state.u is None:
        u = np.ones(mat.shape[0], dtype=mat.dtype)
        state.u = u / np.linalg.norm(u)
    v = mat.T @ state.u
    v /= np.linalg.norm(v) + 1e-12
    if update:
        u = mat @ v
        u /= np.linalg.norm(u) + 1e-12
        state.u = u
    else:
        u = state.u
    sigma = float(u @ (mat @ v))
    return mul(w, 1.0 / max(sigma, 1e-12))


# -- gradient checking ----------------------------------------------------------------


def grad_check(f, x: Tensor, eps: float = 1e-5, coords=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a tensor to a scalar Tensor and must be deterministic. When
    ``coords`` is given, only those flat indices are probed (keeps big checks
    cheap). Relative error uses an absolute floor of 1e-8 on the denominator.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = x.data.copy().ravel()
    if coords is None:
        coords = range(flat.size)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        with no_grad():
            fp = float(f(Tensor(flat.reshape(x.data.shape))).data)
        flat[i] = orig - eps
        with no_grad():
            fm = float(f(Tensor(flat.reshape(x.data.shape))).data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        a = analytic.ravel()[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
