"""warpsynth benchmark: one workload per process.

    python3 perfbench/run.py --workload train-eqsim-com --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; warpsynth is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, measured with tracing off; with ``--trace 1`` it
holds the per-layer metrics of a separate traced run. The lines before it
record the environment and, when traced, the per-layer table. A result file
and, when traced, the spans go to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TMP = HERE / "tmp"

WORKLOAD_NAMES = ("train-eqsim-com", "train-noreg-aug", "eval-infer")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1, help="BLAS threads (set before numpy loads)")
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "warpsynth" / "__init__.py").is_file():
        print(f"perfbench: no warpsynth sources under {SRC}", file=sys.stderr)
        return 2
    # the thread count must be in place before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WARPSYNTH_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(SRC))

    import envinfo
    import workloads as WL

    env = envinfo.collect(ROOT, args.threads)
    print("env: " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] not in (None, args.threads):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads, {args.threads} requested",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = TMP / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = WL.Runner(args.workload, args.seed, work, args.quick)
        metrics, rounds, extra = (traced_run if args.trace else untraced_run)(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in runner.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.units(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, quick=args.quick, env=env, loss_sha256=runner.loss_sha256,
                  failures=runner.failures, **extra)
    stem = f"{args.workload}-seed{args.seed}-threads{args.threads}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def untraced_run(runner, args):
    import workloads as WL

    runner.setup()
    rounds = runner.rounds(args.seconds, WL.SETUPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = WL.end_to_end(runner, runner.setup_records, rounds, peak_rss_mb)
    return metrics, rounds, {"round_s": [r.seconds for r in rounds]}


def traced_run(runner, args):
    """Set up with tracing on, then alternate untraced and traced rounds for
    ``--seconds``, then run one round under tracemalloc for the memory peak."""
    import statistics
    import tracemalloc

    import spans
    import workloads as WL

    tracer = spans.Tracer()
    tracer.install()
    t_origin = time.perf_counter()
    plain, traced = [], []
    try:
        tracer.phase, tracer.active = "setup", True
        runner.setups(WL.SETUPS)
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < args.seconds:
            tracer.phase, tracer.active = "rounds", len(traced) < len(plain)
            (traced if tracer.active else plain).append(runner.round())
        tracer.phase, tracer.active = "memory", True
        tracemalloc.start()
        try:
            memory = [runner.round()]
        finally:
            tracemalloc.stop()
            tracer.active = False
    finally:
        tracer.uninstall()

    overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                        / statistics.median(r.seconds for r in plain) - 1.0)
    units = runner.units(traced)
    metrics = tracer.layer_metrics(units, WL.SETUPS, sum(r.seconds for r in traced), overhead)
    per_image = tracer.calls_per_image({k: v * len(traced) for k, v in runner.images_per_round().items()})
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path, t_origin)

    unit = "step" if runner.wl.trains else "image"
    print(f"per-layer table ({len(traced)} traced rounds, {units} {unit}s; setup metrics per set-up):")
    for name, (value, u) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {u}")
    for name in sorted(tracer.missing):
        print(f"  {name:36s} {'missing':>14s} (no gradient closure on the op's result)")
    print("calls per image, by entry point: " + json.dumps(per_image, sort_keys=True))
    extra = {"spans": str(spans_path.relative_to(ROOT)), "calls_per_image": per_image,
             "missing": sorted(tracer.missing)}
    return metrics, plain + traced + memory, extra


if __name__ == "__main__":
    sys.exit(main())
