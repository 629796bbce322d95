"""CLI: verbs end to end on a miniature dataset, exit codes, snapshots, and
the BLAS thread cap a process gets from importing the package."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warpsynth
from warpsynth import cli
from warpsynth import fileio
from warpsynth import selfcheck


TINY_TRAIN = ["--set", "config=EqSim+Com", "--set", "epochs=1",
              "--set", "features_f=4 8", "--set", "features_reg=4 8",
              "--set", "features_rig=4 8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = cli.run(["gen-data", "--out", str(root / "data"), "--seed", "5",
                    "--set", "size=32", "--set", "train_count=3",
                    "--set", "val_count=1", "--set", "test_count=2"])
    assert code == 0
    code = cli.run(["train", "--out", str(root / "run"), "--seed", "0",
                    "--set", f"data_manifest={root / 'data' / 'manifest.json'}"] + TINY_TRAIN)
    assert code == 0
    return root


class TestGenData:
    def test_outputs_and_snapshot(self, workspace):
        assert (workspace / "data" / "manifest.json").exists()
        snap = fileio.read_config(workspace / "data" / "resolved_config.txt")
        assert snap["verb"] == "gen-data" and snap["seed"] == "5"

    def test_reproducible_from_snapshot(self, workspace, tmp_path):
        code = cli.run(["gen-data", "--out", str(tmp_path / "again"), "--seed", "5",
                        "--set", "size=32", "--set", "train_count=3",
                        "--set", "val_count=1", "--set", "test_count=2"])
        assert code == 0
        for f in sorted((workspace / "data").glob("*.bin")):
            assert (tmp_path / "again" / f.name).read_bytes() == f.read_bytes()

    def test_unknown_key_fails(self, tmp_path):
        assert cli.run(["gen-data", "--out", str(tmp_path), "--set", "sizes=32"]) == 1


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace / "run"
        assert sorted(p.name for p in run.glob("checkpoint*")) == ["checkpoint.bin"]
        assert (run / "losses.jsonl").exists()
        assert (run / "history.json").exists()
        record = json.loads((run / "losses.jsonl").read_text().splitlines()[0])
        assert {"step", "epoch", "terms", "total"} <= set(record)

    def test_unknown_key_exit_one(self, workspace, tmp_path):
        code = cli.run(["train", "--out", str(tmp_path), "--set", "nonsense=1",
                        "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"])
        assert code == 1

    @pytest.mark.parametrize("setting", ["config=Bogus", "config=EqSim+DefSim", "epochs=0"])
    def test_untrainable_config_exit_one_writes_nothing(self, workspace, tmp_path, capsys, setting):
        code = cli.run(["train", "--out", str(tmp_path / "run")] + TINY_TRAIN
                       + ["--set", setting, "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_manifest_exit_one(self, tmp_path):
        assert cli.run(["train", "--out", str(tmp_path)] + TINY_TRAIN) == 1


class TestEval:
    def test_csv_columns_fixed(self, workspace, tmp_path):
        code = cli.run(["eval", "--out", str(tmp_path),
                        "--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                        "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"])
        assert code == 0
        with open(tmp_path / "eval.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["config", "psnr", "ssim", "nmi", "mde"]
        assert len(rows) == 2 + 1  # two test images + aggregate
        assert all(r[0] == "EqSim+Com" for r in rows)
        agg = json.loads((tmp_path / "eval.json").read_text())["aggregates"]
        assert float(rows[-1][1]) == pytest.approx(agg["psnr"])

    def test_matches_library_metrics(self, workspace, tmp_path):
        from warpsynth import datagen, trainer
        ds = datagen.load_dataset(workspace / "data" / "manifest.json")
        tr = trainer.Trainer.from_checkpoint(workspace / "run" / "checkpoint", ds)
        report, _ = trainer.evaluate_model(tr, ds.test)
        code = cli.run(["eval", "--out", str(tmp_path),
                        "--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                        "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"])
        assert code == 0
        agg = json.loads((tmp_path / "eval.json").read_text())["aggregates"]
        expect = report.aggregates()
        for key in ("psnr", "ssim", "nmi", "mde"):
            assert agg[key] == pytest.approx(expect[key], rel=1e-12)


    @pytest.mark.parametrize("split", ["image_size", "bogus"])
    def test_unknown_split_is_a_configuration_error(self, workspace, tmp_path, capsys, split):
        code = cli.run(["eval", "--out", str(tmp_path), "--set", f"split={split}",
                        "--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                        "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err


class TestInfer:
    def test_writes_prediction_and_deformations(self, workspace, tmp_path):
        code = cli.run(["infer", "--out", str(tmp_path),
                        "--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                        "--set", f"x={workspace / 'data' / 'test_00000_x.bin'}",
                        "--set", f"y_tilde={workspace / 'data' / 'test_00000_y.bin'}"])
        assert code == 0
        pred, kind = fileio.read_array(tmp_path / "prediction.bin")
        assert kind == "image" and pred.shape == (3, 32, 32)
        assert (tmp_path / "prediction.ppm").exists()
        for name in ("d_cross", "d_intra", "overall"):
            arr, kind = fileio.read_array(tmp_path / f"{name}.bin")
            assert kind == "deformation" and arr.shape == (2, 32, 32)

    def test_ppm_input_accepted(self, workspace, tmp_path):
        arr, _ = fileio.read_array(workspace / "data" / "test_00000_x.bin")
        fileio.write_pnm(tmp_path / "x.ppm", arr)
        code = cli.run(["infer", "--out", str(tmp_path / "out"),
                        "--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                        "--set", f"x={tmp_path / 'x.ppm'}"])
        assert code == 0
        assert (tmp_path / "out" / "prediction.bin").exists()

    def test_missing_checkpoint_config_error(self, tmp_path):
        assert cli.run(["infer", "--out", str(tmp_path), "--set", "x=whatever.bin"]) == 1


class TestDeterministicFlag:
    """Every verb accepts ``--deterministic`` and ignores it; only train, whose
    configuration has the key, records it."""

    @pytest.mark.parametrize("verb", ["gen-data", "train", "eval", "infer"])
    def test_accepted_by_every_verb(self, workspace, tmp_path, verb):
        keys = {
            "gen-data": ["--set", "size=32", "--set", "train_count=1", "--set", "val_count=1",
                         "--set", "test_count=1"],
            "train": TINY_TRAIN + ["--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"],
            "eval": ["--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                     "--set", f"data_manifest={workspace / 'data' / 'manifest.json'}"],
            "infer": ["--set", f"checkpoint={workspace / 'run' / 'checkpoint'}",
                      "--set", f"x={workspace / 'data' / 'test_00000_x.bin'}"],
        }[verb]
        assert cli.run([verb, "--deterministic", "--out", str(tmp_path)] + keys) == 0
        snap = fileio.read_config(tmp_path / "resolved_config.txt")
        assert ("deterministic" in snap) == (verb == "train")


class TestVerificationVerbs:
    def test_gradcheck_passes(self, tmp_path, capsys):
        code = cli.run(["gradcheck", "--out", str(tmp_path), "--set", "seeds=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_gradcheck_strict_tolerance_fails(self, tmp_path, capsys):
        code = cli.run(["gradcheck", "--out", str(tmp_path), "--set", "seeds=1",
                        "--set", "tolerance=1e-12"])
        capsys.readouterr()
        assert code == 3

    def test_selftest_passes(self, tmp_path, capsys):
        code = cli.run(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 9 and "FAIL" not in out

    def test_selftest_measurement_past_bound_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(selfcheck, "rigid_penalty", lambda rng, n, size: 1.0)
        code = cli.run(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.count("FAIL") == 1 and "FAIL  rigidity/zero_on_rigid" in out

    def test_config_file_and_override(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("config = EqSim+Com\nepochs = 1\nfeatures_f = 4 8\n"
                       "features_reg = 4 8\nfeatures_rig = 4 8\n"
                       f"data_manifest = {workspace / 'data' / 'manifest.json'}\n")
        code = cli.run(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                        "--set", "epochs=1", "--seed", "1"])
        assert code == 0
        snap = fileio.read_config(tmp_path / "run" / "resolved_config.txt")
        assert snap["seed"] == "1" and snap["epochs"] == "1"


class TestBlasThreadCap:
    def test_applies_when_numpy_is_imported_first(self):
        if warpsynth._openblas() is None:
            pytest.skip("numpy has no bundled OpenBLAS to ask")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["WARPSYNTH_THREADS"] = "1"
        env["PYTHONPATH"] = str(Path(warpsynth.__file__).parents[1])
        script = ("import numpy, warpsynth; "
                  "print(warpsynth._openblas().scipy_openblas_get_num_threads64_())")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"
