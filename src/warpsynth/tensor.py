"""Dense tensors with a reverse-mode gradient tape.

The tape is define-by-run: every operation that touches a gradient-requiring
tensor records a closure that propagates the upstream gradient to its inputs.
Calling ``backward`` on a scalar walks the recorded graph once in reverse
topological order and frees as it goes: each node's gradient is dropped as
soon as it has been passed on, so only leaves (tensors no op produced) end up
with a ``.grad``, and intermediates carry none. The graph itself survives the
pass, so repeated backward calls accumulate into the leaves' ``.grad``.

Everything is float64. Only two broadcasting patterns are supported for
binary ops: equal shapes, and scalar-vs-tensor. That covers every loss and
network in this package and keeps gradient bookkeeping trivial.
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
        self.data = np.asarray(data, dtype=DTYPE)
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

    def zero_grad(self):
        self.grad = None

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
                        pg = np.array(pg, dtype=DTYPE)
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
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=DTYPE))


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
    return np.asarray(grad.sum(), dtype=DTYPE).reshape(shape)


# -- elementwise suite ------------------------------------------------------------


def _binary(a, b, value, grad_a, grad_b):
    """Shared core of the arithmetic ops, which broadcast a scalar against a
    tensor and nothing else. ``grad_a(g, x, y)`` and ``grad_b`` give each
    side's gradient from the upstream gradient and both operands' data; a side
    gets one only if it requires it, so a constant operand costs nothing."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(f"unsupported broadcast: {a.data.shape} vs {b.data.shape}")

    def grad_fn(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _reduce_to(grad_a(g, a.data, b.data), a.data.shape)))
        if b.requires_grad:
            grads.append((b, _reduce_to(grad_b(g, a.data, b.data), b.data.shape)))
        return grads

    return _make(value(a.data, b.data), (a, b), grad_fn)


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
    sign = np.where(a.data > 0, 1.0, -1.0)
    return _make(np.abs(a.data), (a,), lambda g: ((a, g * sign),))


def log(a):
    a = _wrap(a)
    return _make(np.log(a.data), (a,), lambda g: ((a, g / a.data),))


def exp(a):
    a = _wrap(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: ((a, g * out),))


def sqrt(a):
    a = _wrap(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: ((a, g * (0.5 / out)),))


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

    return _make(np.array(out, dtype=DTYPE), (a,), grad_fn)


def stack(tensors, axis: int = 0):
    tensors = [_wrap(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def grad_fn(g):
        slabs = np.split(g, len(tensors), axis=axis)
        return tuple((t, s.reshape(t.data.shape)) for t, s in zip(tensors, slabs))

    return _make(out, tuple(tensors), grad_fn)


def concat(tensors, axis: int = 0):
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
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


def detach(a: Tensor) -> Tensor:
    return _wrap(a).detach()


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


def _im2col(x: np.ndarray, k: int, stride: int):
    """Unfold (C,H,W) into a (C*k*k, Ho*Wo) patch matrix for BLAS matmuls.

    Copies one kernel offset at a time; each copy is a plain strided 3-d
    block, which is much cheaper than transposing a 5-d window view.
    """
    c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    cols = np.empty((c, k, k, ho * wo), dtype=x.dtype)
    for a in range(k):
        for b in range(k):
            src = x[:, a:a + (ho - 1) * stride + 1:stride, b:b + (wo - 1) * stride + 1:stride]
            np.copyto(cols[:, a, b].reshape(c, ho, wo), src)
    return cols.reshape(c * k * k, ho * wo), ho, wo


def _fold_range(a: int, n: int, stride: int, padding: int, size: int):
    """Source positions i in [0, n) of kernel offset a that land inside an
    axis of ``size`` after dropping ``padding`` (padded position a + i*stride),
    as a (source, destination) pair of slices."""
    lo = max(0, -((a - padding) // stride))
    hi = min(n - 1, (size - 1 + padding - a) // stride)
    if hi < lo:
        return slice(0, 0), slice(0, 0)
    start = a + lo * stride - padding
    return slice(lo, hi + 1), slice(start, start + (hi - lo) * stride + 1, stride)


def _patches(x: np.ndarray, k: int, stride: int, padding: int):
    """``_im2col`` of the (C,H,W) input zero-padded by ``padding``."""
    if padding:
        c, h, wd = x.shape
        xp = np.zeros((c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + wd] = x
        x = xp
    return _im2col(x, k, stride)


def _correlate(x: np.ndarray, w: np.ndarray, stride: int, padding: int):
    """Cross-correlate (C_in,H,W) with (C_out,C_in,k,k) over the input
    zero-padded by ``padding``. Returns the (C_out,Ho,Wo) output and the
    im2col patch matrix, for a caller that needs it in the same pass."""
    c_out = w.shape[0]
    cols, ho, wo = _patches(x, w.shape[2], stride, padding)
    return (w.reshape(c_out, -1) @ cols).reshape(c_out, ho, wo), cols


def _correlate_adjoint(g: np.ndarray, w: np.ndarray, stride: int, padding: int,
                       h: int, wd: int) -> np.ndarray:
    """Adjoint of ``_correlate`` in its input: the patch-space product w.T @ g
    folded back (col2im) onto the unpadded (C_in, h, wd) image, summing where
    patches overlap. What falls on the padding is dropped, not summed and cropped."""
    c_out, c_in, k, _ = w.shape
    ho, wo = g.shape[1:]
    cols = (w.reshape(c_out, -1).T @ g.reshape(c_out, -1)).reshape(c_in, k, k, ho, wo)
    out = np.zeros((c_in, h, wd), dtype=cols.dtype)
    for a in range(k):
        ys, yd = _fold_range(a, ho, stride, padding, h)
        for b in range(k):
            xs, xd = _fold_range(b, wo, stride, padding, wd)
            out[:, yd, xd] += cols[:, a, b, ys, xs]
    return out


def conv2d(x, w, b, stride: int = 1, padding: int = 0):
    """Cross-correlation of (C_in,H,W) with (C_out,C_in,k,k), zero padding."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    c_out, c_in, k, k2 = w.data.shape
    if k != k2:
        raise ValueError("only square kernels supported")
    if x.data.ndim != 3 or x.data.shape[0] != c_in:
        raise ValueError(f"conv2d input {x.data.shape} incompatible with weight {w.data.shape}")
    h, wd = x.data.shape[1:]
    if (h + 2 * padding - k) % stride or (wd + 2 * padding - k) % stride:
        raise ValueError(f"non-integral output extent for input {x.data.shape}, k={k}, stride={stride}, padding={padding}")

    out, _ = _correlate(x.data, w.data, stride, padding)
    out += b.data[:, None, None]

    def grad_fn(g):
        # only the gradients some input needs: a network's first layer reads
        # a constant image, whose input gradient would be a wasted fold
        grads = []
        if x.requires_grad:
            grads.append((x, _correlate_adjoint(g, w.data, stride, padding, h, wd)))
        if w.requires_grad:
            # the patch matrix (k*k times the input at stride 1) is rebuilt
            # here from the input the graph keeps anyway, rather than held
            # from the forward pass until backward
            cols, _, _ = _patches(x.data, k, stride, padding)
            grads.append((w, (g.reshape(c_out, -1) @ cols.T).reshape(w.data.shape)))
        if b.requires_grad:
            grads.append((b, g.sum(axis=(1, 2))))
        return grads

    return _make(out, (x, w, b), grad_fn)


def conv_transpose2d(x, w, b, stride: int = 2):
    """Exact adjoint of the matching strided conv2d (plus bias).

    Weight layout is (C_in, C_out, k, k), i.e. the same array that the paired
    conv2d would use with its in/out roles swapped: the forward pass is that
    conv2d's input gradient, and the input gradient is that conv2d's forward.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    c_in, c_out, k, k2 = w.data.shape
    if k != k2:
        raise ValueError("only square kernels supported")
    if stride != 2:
        raise ValueError(f"unsupported stride {stride}: only the U-Net's 2x upsampling is implemented")
    if x.data.ndim != 3 or x.data.shape[0] != c_in:
        raise ValueError(f"conv_transpose2d input {x.data.shape} incompatible with weight {w.data.shape}")

    hi, wi = x.data.shape[1:]
    out = _correlate_adjoint(x.data, w.data, stride, 0, (hi - 1) * stride + k, (wi - 1) * stride + k)
    out += b.data[:, None, None]

    def grad_fn(g):
        grads = []
        if x.requires_grad or w.requires_grad:
            gx, cols = _correlate(g, w.data, stride, 0)
            if x.requires_grad:
                grads.append((x, gx))
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
    c, h, w = image.data.shape
    corners, fy, fx = _sampling_plan(coords.data, h, w, border)

    # img[:, idx] leaves the channel axis innermost in memory (np.take would
    # not), and later reductions over the sampled map sum in that order
    img = image.data.reshape(c, -1)
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
            gimg = np.zeros(c * npix, dtype=DTYPE)
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
                cy, cx = coords.data
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
        u = np.ones(mat.shape[0], dtype=DTYPE)
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
