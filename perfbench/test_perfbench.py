"""The benchmark's own test: every workload runs to its end at tiny sizes, and
every correctness check fails when it is fed a corrupted value.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as WL  # noqa: E402
from warpsynth import trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--quick"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_to_its_end(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload != "train-noreg-aug":
        assert result["metrics"]["deform.svf_exp.squarings"]["value"] > 0


def test_per_layer_spec_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.per_layer_spec()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tmp", "__pycache__"))
    proc = _run("eval-infer", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- each check rejects a corrupted value ------------------------------------------------


def _log(totals):
    return "".join(json.dumps({"step": i, "epoch": 0, "terms": {"sim": t}, "total": t,
                               "empty_masks": []}) + "\n" for i, t in enumerate(totals))


def test_check_losses():
    assert checks.check_losses(_log([0.5, 0.4]), 2) == []
    assert checks.check_losses(_log([0.5, math.nan]), 2)
    assert checks.check_losses(_log([0.5, math.inf]), 2)
    assert checks.check_losses(_log([0.5]), 2)


def test_check_val_drop():
    assert checks.check_val_drop(0.7, 0.2) == []
    assert checks.check_val_drop(0.7, 0.7)
    assert checks.check_val_drop(0.7, math.nan)


def test_check_validation_values():
    assert checks.check_validation_values([0.2, 1.5, None]) == []
    assert checks.check_validation_values([0.2, math.nan])
    assert checks.check_validation_values([-1e-3, 1.5])


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A tiny EqSim+Com model, its evaluate_model rows and its inferences."""
    runner = WL.Runner("eval-infer", 5, tmp_path_factory.mktemp("eval"), quick=True)
    prepared = runner.setups(1)[0]
    tr, ds = prepared.trainer, prepared.dataset
    _, rows = trainer.evaluate_model(tr, ds.test)
    inferred = [tr.infer(s.x, s.y_tilde) for s in ds.test]
    return tr, ds, rows, inferred


def test_check_same_params(evaluated):
    tr = evaluated[0]
    assert checks.check_same_params(tr.named_gen, tr.named_gen) == []
    name, p = tr.named_gen[0]
    bumped = p.data.copy()
    bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)
    corrupted = [(name, trainer.Tensor(bumped))] + tr.named_gen[1:]
    assert checks.check_same_params(tr.named_gen, corrupted)


@pytest.mark.parametrize("key", ["psnr", "mde", "ssim", "nmi"])
def test_check_eval(evaluated, key):
    _, ds, rows, inferred = evaluated
    assert checks.check_eval(rows, inferred, ds.test, loop_images=1) == []
    corrupted = [dict(r) for r in rows]
    corrupted[0][key] += 1e-6
    assert checks.check_eval(corrupted, inferred, ds.test, loop_images=1)
