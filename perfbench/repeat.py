"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads train-eqsim-com,eval-infer --seeds 1-10
    python3 perfbench/repeat.py --workloads train-eqsim-com,train-noreg-aug --seeds 1-10 --threads 1,2

Runs ``run.py`` once per workload, seed and thread count, one after another
(with several thread counts, the order alternates from seed to seed), and
prints the median, the quartiles and the quartile spread as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them. With several
thread counts it also prints, between the first and the last, the ratio of
the medians and the ratio within each seed's pair of runs, and checks that
each seed's ``losses.jsonl`` is byte-identical across thread counts (by
SHA-256).
Exits with 1 if a run is not correct or a loss log differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, threads: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                           "--threads", str(threads)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} threads {threads} exited {proc.returncode}:\n{proc.stderr}")
    stem = f"{workload}-seed{seed}-threads{threads}-trace0"
    return json.loads((HERE / "out" / f"{stem}.json").read_text())


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  spread {(q3 - q1) / med:.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="train-eqsim-com,train-noreg-aug,eval-infer")
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--threads", default="1", help="comma list of BLAS thread counts")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    threads = [int(t) for t in args.threads.split(",")]

    ok = True
    for workload in args.workloads.split(","):
        records = {t: [] for t in threads}
        for i, seed in enumerate(seeds):
            hashes = set()
            for t in (threads if i % 2 == 0 else threads[::-1]):
                rec = run_once(workload, seed, t, args.seconds)
                records[t].append(rec)
                hashes.add(rec["loss_sha256"])
                ok &= rec["correct"]
                print(f"{workload} seed {seed} threads {t} (BLAS reports {rec['env']['blas_threads']}): "
                      f"correct={rec['correct']} attempted={rec['attempted']} failed={rec['failed']} "
                      + json.dumps({k: round(v["value"], 6) for k, v in rec["metrics"].items()}), flush=True)
            if len(threads) > 1 and None not in hashes:
                ok &= len(hashes) == 1
                print(f"{workload} seed {seed}: losses.jsonl "
                      f"{'identical' if len(hashes) == 1 else 'DIFFERS'} across threads {threads}")
        for t, recs in records.items():
            print(f"== {workload}, {t} BLAS thread(s), {len(recs)} runs; env {json.dumps(recs[0]['env'])}")
            print(f"   failed/attempted: {sorted({(r['failed'], r['attempted']) for r in recs})}")
            for name in recs[0]["metrics"]:
                print(f"   {name:32s} {summary([r['metrics'][name]['value'] for r in recs])}")
        if len(threads) > 1:
            lo, hi = threads[0], threads[-1]
            for name in records[lo][0]["metrics"]:
                meds = [statistics.median(r["metrics"][name]["value"] for r in records[t]) for t in (lo, hi)]
                pairs = [b["metrics"][name]["value"] / a["metrics"][name]["value"]
                         for a, b in zip(records[lo], records[hi])]
                print(f"   {name:32s} median at {hi} threads / at {lo}: {meds[1] / meds[0]:.3f}; "
                      f"per seed {[round(x, 3) for x in pairs]}, above 1 in {sum(x > 1 for x in pairs)}"
                      f" of {len(pairs)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
