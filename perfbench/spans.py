"""Span tracer for the benchmark's per-layer table.

The tracer wraps warpsynth's public functions and methods from outside the
package: every module-level name is replaced in each warpsynth namespace
that bound it (``svf_exp`` lives in ``deform``, ``losses``, ``trainer`` and
the package root), methods are replaced on their class, and the gradient
closure that an op leaves on its result is wrapped so that its backward time
is measured too. Spans are kept in memory and written out when the run ends.
While ``active`` is false every wrapper calls straight through.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# -- the per-layer metrics, in the order they are reported ------------------------
#
# scope "unit": per training step (train-*) or per image handed to an entry
# point (eval-infer), over the traced rounds; scope "setup": per set-up.

TIMED_SPANS = [
    # span name, total metric, self metric, scope
    ("trainer.step", "trainer.step_s", "trainer.step_self_s", "unit"),
    ("trainer.forward", "trainer.forward_s", "trainer.forward_self_s", "unit"),
    ("trainer.backward", "trainer.backward_s", "trainer.backward_self_s", "unit"),
    ("trainer.update", "trainer.update_s", "trainer.update_self_s", "unit"),
    ("trainer.validation", "trainer.validation_s", "trainer.validation_self_s", "unit"),
    ("trainer.checkpoint_save", "trainer.checkpoint_save_s", "trainer.checkpoint_save_self_s", "unit"),
    ("trainer.checkpoint_load", "trainer.checkpoint_load_s", "trainer.checkpoint_load_self_s", "setup"),
] + [
    (f"networks.{n}.fwd", f"networks.{n}.fwd_s", f"networks.{n}.fwd_self_s", "unit")
    for n in ("f", "h_rig", "h_svf", "g_svf")
] + [
    (f"tensor.{op}.{d}", f"tensor.{op}.{d}_s", f"tensor.{op}.{d}_self_s", "unit")
    for op in ("conv2d", "conv_transpose2d", "group_norm", "bilinear_sample") for d in ("fwd", "bwd")
] + [
    (f"{layer}.{fn}", f"{layer}.{fn}.s", f"{layer}.{fn}.self_s", "unit")
    for layer, fn in (("tensor", "sample_validity"), ("deform", "svf_exp"), ("deform", "compose"),
                      ("deform", "warp"), ("losses", "reg_cross"), ("losses", "reg_intra"),
                      ("losses", "masked_l1"), ("metrics", "psnr"), ("metrics", "ssim"),
                      ("metrics", "nmi"), ("metrics", "mde"))
] + [
    ("datagen.generate", "datagen.generate.s", "datagen.generate.self_s", "setup"),
    ("datagen.load", "datagen.load.s", "datagen.load.self_s", "setup"),
]

CALL_SPANS = [
    # span name, metric (calls per unit)
    ("networks.f.fwd", "networks.f.calls"),
    ("networks.h_rig.fwd", "networks.h_rig.calls"),
    ("networks.h_svf.fwd", "networks.h_svf.calls"),
    ("networks.g_svf.fwd", "networks.g_svf.calls"),
    ("tensor.conv2d.fwd", "tensor.conv2d.calls"),
    ("tensor.bilinear_sample.fwd", "tensor.bilinear_sample.calls"),
    ("deform.svf_exp", "deform.svf_exp.calls"),
    ("deform.compose", "deform.compose.calls"),
    ("deform.warp", "deform.warp.calls"),
]

OTHER_METRICS = [
    ("deform.svf_exp.squarings", "count", "lower"),
    ("tensor.peak_traced_mb", "MB", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for _, total, own, _ in TIMED_SPANS:
        out += [(total, "s", "lower"), (own, "s", "lower")]
    out += [(metric, "count", "lower") for _, metric in CALL_SPANS]
    return out + OTHER_METRICS


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = None
        # [name, start, end, parent index, unit, phase]
        self.spans: list[list] = []
        self.squarings = defaultdict(int)  # phase -> squarings used by svf_exp
        self.mem_peaks: list[int] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._unit = None
        self._step = -1
        self._images: dict[int, str] = {}
        self._net_names: dict[int, str] = {}
        self._restore: list = []

    # -- spans ----------------------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call's
        arguments; ``before`` sees the arguments, ``after`` the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            label = name if isinstance(name, str) else name(args)
            idx = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None, self._unit, self.phase])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _wrap_grad(self, name):
        def after(out):
            try:
                grad_fn = out._grad_fn
            except AttributeError:
                self.missing.add(name)
                return
            if grad_fn is not None:
                out._grad_fn = self._timed(name, grad_fn)
        return after

    # -- units and memory ------------------------------------------------------------

    def _start_step(self, args, kwargs):
        self._step += 1
        self._unit = f"step:{self._step}"
        self._reset_peak(args, kwargs)

    def _end_step(self, out):
        self._record_peak(out)
        self._unit = None

    def _reset_peak(self, args, kwargs):
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    def _record_peak(self, out):
        if tracemalloc.is_tracing():
            self.mem_peaks.append(tracemalloc.get_traced_memory()[1])

    def _net_name(self, args):
        return f"networks.{self._net_names.get(id(args[0]), 'other')}.fwd"

    def _net_before(self, args, kwargs):
        # outside a training step, an f forward starts work on one image; the
        # same input seen again (validation_mde after validation_score, infer
        # after evaluate_model) belongs to the same image
        if self._net_names.get(id(args[0])) == "f" and not (self._unit or "").startswith("step:"):
            key = hash(args[1].data.tobytes())
            self._unit = self._images.setdefault(key, f"image:{len(self._images)}")

    def _count_squarings(self, args, kwargs):
        from warpsynth import deform
        n = kwargs.get("squarings", args[1] if len(args) > 1 else None)
        self.squarings[self.phase] += deform.default_squarings(args[0]) if n is None else n

    # -- installation ----------------------------------------------------------------

    def _rebind(self, module, attr, wrapped_of):
        """Replace ``module.attr`` in every warpsynth namespace bound to it."""
        orig = getattr(module, attr)
        new = wrapped_of(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("warpsynth") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)
                self._restore.append((mod, attr, orig))

    def _patch_method(self, cls, attr, wrapped_of):
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(wrapped_of(raw.__func__))
        else:
            new = wrapped_of(raw)
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def install(self):
        from warpsynth import datagen, deform, losses, metrics, networks, tensor, trainer

        for op in ("conv2d", "conv_transpose2d", "group_norm", "bilinear_sample"):
            self._rebind(tensor, op, lambda fn, op=op: self._timed(
                f"tensor.{op}.fwd", fn, after=self._wrap_grad(f"tensor.{op}.bwd")))
        self._rebind(tensor, "sample_validity", lambda fn: self._timed("tensor.sample_validity", fn))
        self._rebind(deform, "svf_exp", lambda fn: self._timed("deform.svf_exp", fn,
                                                               before=self._count_squarings))
        for fn_name in ("compose", "warp"):
            self._rebind(deform, fn_name, lambda fn, n=fn_name: self._timed(f"deform.{n}", fn))
        for fn_name in ("reg_cross", "reg_intra", "masked_l1"):
            self._rebind(losses, fn_name, lambda fn, n=fn_name: self._timed(f"losses.{n}", fn))
        for fn_name in ("psnr", "ssim", "nmi", "mde"):
            self._rebind(metrics, fn_name, lambda fn, n=fn_name: self._timed(f"metrics.{n}", fn))
        self._rebind(datagen, "generate_dataset", lambda fn: self._timed("datagen.generate", fn))
        self._rebind(datagen, "load_dataset", lambda fn: self._timed("datagen.load", fn))
        self._rebind(trainer, "evaluate_model", lambda fn: self._timed(
            "trainer.evaluate", fn, before=self._reset_peak, after=self._record_peak))

        for cls in (networks.UNet, networks.Encoder):
            self._patch_method(cls, "forward", lambda fn: self._timed(
                self._net_name, fn, before=self._net_before))
        self._patch_method(tensor.Tensor, "backward", lambda fn: self._timed("trainer.backward", fn))
        self._patch_method(tensor.Adam, "step", lambda fn: self._timed("trainer.update", fn))

        tr = trainer.Trainer
        self._patch_method(tr, "__init__", self._registering_init)
        self._patch_method(tr, "train", lambda fn: self._timed("trainer.train", fn))
        self._patch_method(tr, "generator_step", lambda fn: self._timed(
            "trainer.step", fn, before=self._start_step, after=self._end_step))
        self._patch_method(tr, "build_losses", lambda fn: self._timed("trainer.forward", fn))
        for meth in ("validation_score", "validation_mde"):
            self._patch_method(tr, meth, lambda fn: self._timed(
                "trainer.validation", fn, before=self._reset_peak, after=self._record_peak))
        self._patch_method(tr, "infer", lambda fn: self._timed(
            "trainer.infer", fn, before=self._reset_peak, after=self._record_peak))
        self._patch_method(tr, "save_checkpoint", lambda fn: self._timed("trainer.checkpoint_save", fn))
        self._patch_method(tr, "from_checkpoint", lambda fn: self._timed("trainer.checkpoint_load", fn))

    def _registering_init(self, init):
        # network names come from the bundle each Trainer builds or restores
        @functools.wraps(init)
        def wrapper(trainer_self, *args, **kwargs):
            init(trainer_self, *args, **kwargs)
            mb = trainer_self.models
            for name in ("f", "h_rig", "h_svf", "g_svf"):
                net = getattr(mb, name)
                if net is not None:
                    self._net_names[id(net)] = name
        return wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def _totals(self):
        """Per (phase, span name): total time, self time and call count."""
        n = len(self.spans)
        child = [0.0] * n
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, t0, t1, _, _, phase) in enumerate(self.spans):
            total[phase, name] += t1 - t0
            own[phase, name] += t1 - t0 - child[i]
            calls[phase, name] += 1
        return total, own, calls

    def layer_metrics(self, units: int, setups: int, rounds_wall: float, overhead_pct: float) -> dict:
        """Every per-layer metric whose column could be measured.

        ``units`` are the training steps or images of the traced rounds,
        ``setups`` the traced set-ups and ``rounds_wall`` the wall time of
        the traced rounds.
        """
        total, own, calls = self._totals()
        out = {}
        for span, total_name, self_name, scope in TIMED_SPANS:
            if span in self.missing:
                continue
            phase, denom = ("setup", setups) if scope == "setup" else ("rounds", units)
            out[total_name] = (total[phase, span] / denom, "s")
            out[self_name] = (own[phase, span] / denom, "s")
        for span, metric in CALL_SPANS:
            out[metric] = (calls["rounds", span] / units, "count")
        out["deform.svf_exp.squarings"] = (self.squarings["rounds"] / units, "count")
        if self.mem_peaks:
            out["tensor.peak_traced_mb"] = (max(self.mem_peaks) / 2**20, "MB")
        covered = sum(t1 - t0 for _, t0, t1, parent, _, phase in self.spans
                      if phase == "rounds" and parent is not None
                      and self.spans[parent][3] is None)
        out["trace.coverage_pct"] = (100.0 * covered / rounds_wall, "%")
        out["trace.overhead_pct"] = (overhead_pct, "%")
        return out

    def calls_per_image(self, images_per_root: dict) -> dict:
        """Network and svf_exp calls per image, split by entry point;
        ``images_per_root`` maps a root span name to the images it handled."""
        roots = {}
        for i, s in enumerate(self.spans):
            parent = s[3]
            roots[i] = i if parent is None else roots[parent]
        counts = defaultdict(lambda: defaultdict(int))
        for i, s in enumerate(self.spans):
            if s[5] == "rounds" and (s[0].startswith("networks.") or s[0] == "deform.svf_exp"):
                counts[self.spans[roots[i]][0]][s[0]] += 1
        return {root: {name: n / images_per_root[root] for name, n in sorted(c.items())}
                for root, c in counts.items() if images_per_root.get(root)}

    def write_spans(self, path, t_origin: float):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, unit, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - t_origin, "end": t1 - t_origin,
                                     "parent": parent, "unit": unit, "phase": phase}) + "\n")
