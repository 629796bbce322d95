"""Command-line entry point: data generation, training, evaluation,
inference, and the built-in verification suites.

Every run resolves its configuration from an optional flat key=value file
plus repeatable ``--set key=value`` overrides, then writes the resolved
snapshot next to its outputs so any result can be reproduced from the
snapshot alone. Exit codes: 0 success, 1 bad configuration, 2 runtime
failure, 3 gradcheck/selftest tolerance violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from . import datagen
from . import selfcheck
from .deform import Deformation, Image
from .metrics import PSNR_SENTINEL_DB
from .trainer import Trainer, TrainConfig, TrainingDiverged, evaluate_model, parse_config_name

_GEN_KEYS = {"preset", "size", "train_count", "val_count", "test_count",
             "noise_amplitude", "image_dir", "seed"}
_EVAL_KEYS = {"checkpoint", "data_manifest", "max_val", "split"}
_INFER_KEYS = {"checkpoint", "x", "y_tilde"}
_GRADCHECK_KEYS = {"seeds", "tolerance"}
_SELFTEST_KEYS = {"quick"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="warpsynth", description=__doc__)
    p.add_argument("verb", choices=["gen-data", "train", "eval", "infer", "gradcheck", "selftest"])
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a configuration key (repeatable)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deterministic", action="store_true",
                   help="accepted and ignored: every run is deterministic given its seed")
    return p


def _resolve_kv(args) -> dict:
    kv = {}
    if args.config:
        kv.update(fileio.read_config(args.config))
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        kv[k.strip()] = v.strip()
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    if args.deterministic and args.verb == "train":
        kv["deterministic"] = "true"
    return kv


def _check_keys(kv: dict, allowed: set, verb: str):
    unknown = sorted(set(kv) - allowed)
    if unknown:
        raise ValueError(f"unknown config key for {verb}: {unknown[0]!r}")


def _snapshot(out: Path, verb: str, kv: dict):
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_config(out / "resolved_config.txt", {"verb": verb, **kv})


def _load_input_image(path: str) -> Image:
    p = Path(path)
    if p.suffix in (".ppm", ".pgm"):
        return Image.from_array(fileio.read_pnm(p))
    arr, kind = fileio.read_array(p)
    if kind != "image":
        raise ValueError(f"{path}: expected an image file, found kind={kind}")
    return Image.from_array(arr)


def _write_deformation(out: Path, name: str, d: Deformation, h: int, w: int):
    fileio.write_array(out / f"{name}.bin", d.dense_coords(h, w).data, "deformation")
    fileio.write_array(out / f"{name}_mask.bin", d.mask_array(h, w), "mask")


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)
    try:
        kv = _resolve_kv(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.verb == "gen-data":
            _check_keys(kv, _GEN_KEYS, args.verb)
            params = dict(
                preset=kv.get("preset", "SC"),
                size=int(kv.get("size", 96)),
                counts=(int(kv.get("train_count", 200)), int(kv.get("val_count", 20)),
                        int(kv.get("test_count", 50))),
                seed=int(kv.get("seed", 0)),
                noise_amplitude=float(kv.get("noise_amplitude", 1.5)),
                image_dir=kv.get("image_dir") or None,
            )
        elif args.verb == "train":
            cfg = TrainConfig.from_kv(kv)
            parse_config_name(cfg.config)
            if cfg.epochs < 1:
                raise ValueError(f"epochs must be at least 1, got {cfg.epochs}")
            if not cfg.data_manifest:
                raise ValueError("train requires a data_manifest key")
        elif args.verb == "eval":
            _check_keys(kv, _EVAL_KEYS, args.verb)
            if "checkpoint" not in kv or "data_manifest" not in kv:
                raise ValueError("eval requires checkpoint and data_manifest keys")
            if kv.get("split", "test") not in datagen.Dataset.SPLITS:
                raise ValueError(f"eval split must be train, val or test, got {kv['split']!r}")
        elif args.verb == "infer":
            _check_keys(kv, _INFER_KEYS, args.verb)
            if "checkpoint" not in kv or "x" not in kv:
                raise ValueError("infer requires checkpoint and x keys")
        elif args.verb == "gradcheck":
            _check_keys(kv, _GRADCHECK_KEYS, args.verb)
        elif args.verb == "selftest":
            _check_keys(kv, _SELFTEST_KEYS, args.verb)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        _snapshot(out, args.verb, kv)
        if args.verb == "gen-data":
            manifest = datagen.generate_dataset(out, **params)
            print(f"dataset manifest: {manifest}")
            return 0

        if args.verb == "train":
            dataset = datagen.load_dataset(cfg.data_manifest)
            trainer = Trainer(cfg, dataset)
            try:
                result = trainer.train(out)
            except TrainingDiverged as exc:
                print(f"training diverged: {exc}", file=sys.stderr)
                return 2
            print(f"best epoch: {result.best_epoch}; checkpoint: {result.checkpoint}")
            return 0

        if args.verb == "eval":
            dataset = datagen.load_dataset(kv["data_manifest"])
            trainer = Trainer.from_checkpoint(kv["checkpoint"], dataset)
            samples = dataset.split(kv.get("split", "test"))
            max_val = float(kv.get("max_val", 255.0))
            report, rows = evaluate_model(trainer, samples, max_val)
            agg = report.aggregates()
            config_name = trainer.cfg.config
            with open(out / "eval.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=["config", "psnr", "ssim", "nmi", "mde"])
                writer.writeheader()
                for row in rows:
                    psnr = row.get("psnr")
                    writer.writerow({
                        "config": config_name,
                        "psnr": PSNR_SENTINEL_DB if psnr is not None and math.isinf(psnr) else psnr,
                        "ssim": row.get("ssim"), "nmi": row.get("nmi"), "mde": row.get("mde"),
                    })
                writer.writerow({"config": config_name, **{k: agg[k] for k in ("psnr", "ssim", "nmi", "mde")}})
            (out / "eval.json").write_text(json.dumps({"config": config_name, "aggregates": agg,
                                                       "per_image": rows}, indent=1, default=float))
            print(json.dumps({"config": config_name, **agg}, default=float))
            return 0

        if args.verb == "infer":
            trainer = Trainer.from_checkpoint(kv["checkpoint"])
            x = _load_input_image(kv["x"])
            y_tilde = _load_input_image(kv["y_tilde"]) if kv.get("y_tilde") else None
            outputs = trainer.infer(x, y_tilde)
            pred = outputs["prediction"]
            fileio.write_array(out / "prediction.bin", pred.data.data, "image")
            fileio.write_pnm(out / "prediction.ppm", pred.data.data)
            h, w = x.extents
            for key in ("d_cross", "d_intra", "overall"):
                if key in outputs:
                    _write_deformation(out, key, outputs[key], h, w)
            print(f"wrote prediction (+deformations) to {out}")
            return 0

        if args.verb == "gradcheck":
            seeds = int(kv.get("seeds", 20))
            tol = float(kv.get("tolerance", 1e-4))
            results = selfcheck.gradcheck_suite(seeds=seeds, tol=tol)
            for r in results:
                print(r.line())
            return 0 if all(r.passed for r in results) else 3

        if args.verb == "selftest":
            quick = kv.get("quick", "true").lower() in ("true", "1")
            results = selfcheck.selftest_suite(quick=quick)
            for r in results:
                print(r.line())
            return 0 if all(r.passed for r in results) else 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
