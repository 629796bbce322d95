"""Time each desk-scale convolution layer: forward, input gradient and weight
gradient, at one BLAS thread.

    python3 tools/convbench.py                    # this tree's src/
    python3 tools/convbench.py --src OTHER/src    # another checkout
    python3 tools/convbench.py --repeats 50       # more calls per median

Builds the synthesis U-Net f and the registration networks (h_svf, g_svf,
h_rig) at criterion 7's desk scale (96 px, 3-channel images and labels,
features (8, 16, 32)), runs each network forward once to record the
(C_in, C_out, k, stride, padding, H, W) of every conv2d and
conv_transpose2d call, and prints one line per distinct layer with the
median milliseconds of its forward pass, of its input gradient alone and of
its weight gradient alone. Operands are float32, the precision the trainer
runs in; the header says which dtype the tensors held, since a tree whose
tensors store only float64 runs float64 whatever it is given. Each gradient
is timed by calling the recorded tape closure with only that input requiring
a gradient, so the same harness runs on any tree whose ``tensor.conv2d``/
``conv_transpose2d`` keep their signatures. Repeats alternate over the
layers, so a slow spell of the
machine spreads over all of them. Run it on two trees, one after the other,
and compare the columns.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZE = 96
FEATURES = (8, 16, 32)


def layers(T, networks):
    """(op name, C_in, C_out, k, stride, padding, H, W) of every distinct
    conv call one forward pass of each desk-scale network makes, in order,
    with the first network and call index that used it."""
    import numpy as np

    models = networks.build_models(3, 3, SIZE, 0, features_f=FEATURES, features_reg=FEATURES,
                                   features_rig=FEATURES)
    seen = {}
    calls = []
    conv2d, conv_t = T.conv2d, T.conv_transpose2d

    def rec_conv(x, w, b, stride=1, padding=0):
        calls.append(("conv2d", x.shape[0], w.shape[0], w.shape[2], stride, padding) + x.shape[1:])
        return conv2d(x, w, b, stride, padding)

    def rec_convt(x, w, b):
        calls.append(("conv_transpose2d", w.shape[0], w.shape[1], 2, 2, 0) + x.shape[1:])
        return conv_t(x, w, b)

    T.conv2d, T.conv_transpose2d = rec_conv, rec_convt
    try:
        with T.no_grad():
            for name, net in (("f", models.f), ("h_svf", models.h_svf), ("g_svf", models.g_svf),
                              ("h_rig", models.h_rig)):
                cin = net.spec.in_channels
                calls.clear()
                net.forward(T.Tensor(np.zeros((cin, SIZE, SIZE))))
                for i, call in enumerate(calls):
                    seen.setdefault(call, f"{name}#{i}")
    finally:
        T.conv2d, T.conv_transpose2d = conv2d, conv_t
    return seen


def timers(T, layer, rng):
    """Three zero-argument callables: forward, input gradient, weight gradient."""
    op, cin, cout, k, stride, padding, h, w = layer
    if op == "conv2d":
        fn = lambda x, wt, b: T.conv2d(x, wt, b, stride, padding)
        wshape = (cout, cin, k, k)
    else:
        fn = T.conv_transpose2d
        wshape = (cin, cout, k, k)
    x = rng.normal(size=(cin, h, w)).astype("float32")
    wt = (rng.normal(size=wshape) * 0.1).astype("float32")
    b = rng.normal(size=cout).astype("float32")

    def forward():
        with T.no_grad():
            fn(T.Tensor(x), T.Tensor(wt), T.Tensor(b))

    def grad_of(which):
        ts = [T.Tensor(a, requires_grad=i == which) for i, a in enumerate((x, wt, b))]
        out = fn(*ts)
        g = rng.normal(size=out.shape).astype(out.data.dtype)
        return lambda: out._grad_fn(g)

    return forward, grad_of(0), grad_of(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the warpsynth package")
    ap.add_argument("--repeats", type=int, default=30, help="timed calls per median")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WARPSYNTH_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    from warpsynth import networks, tensor as T

    rng = np.random.default_rng(0)
    found = layers(T, networks)
    runs = {layer: timers(T, layer, rng) for layer in found}
    held = T.Tensor(np.zeros(1, dtype=np.float32)).data.dtype
    times = {layer: ([], [], []) for layer in found}
    for fns in runs.values():  # warm-up
        for fn in fns:
            fn()
    for _ in range(args.repeats):
        for layer, fns in runs.items():
            for fn, acc in zip(fns, times[layer]):
                t0 = time.perf_counter()
                fn()
                acc.append(time.perf_counter() - t0)
    print(f"numpy {np.__version__}, 1 BLAS thread, float32 operands held as {held}, "
          f"{args.repeats} calls per median, milliseconds")
    print(f"{'first use':<10} {'op':<17} {'Cin':>3} {'Cout':>4} {'k':>1} {'s':>1} {'p':>1} "
          f"{'HxW':>5}  {'fwd':>6} {'dx':>6} {'dw':>6}")
    for layer, first in found.items():
        op, cin, cout, k, stride, padding, h, w = layer
        fwd, dx, dw = (1e3 * statistics.median(t) for t in times[layer])
        print(f"{first:<10} {op:<17} {cin:>3} {cout:>4} {k:>1} {stride:>1} {padding:>1} "
              f"{h:>2}x{w:<2}  {fwd:6.3f} {dx:6.3f} {dw:6.3f}", flush=True)


if __name__ == "__main__":
    main()
