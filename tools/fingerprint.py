"""Fingerprint short training runs, to show that a change leaves results
byte-identical.

    python3 tools/fingerprint.py                    # this tree's src/
    python3 tools/fingerprint.py --src OTHER/src    # another checkout

Trains six configurations for 2 epochs on four 32 px SC-preset pairs (tiny
networks, features (4, 8); input noise 0.01; velocity-head weights and biases
moved off zero so every registration path does work) and prints one line per
configuration with the SHA-256 of the run's ``losses.jsonl``, of its final
checkpoint's content and of its ``history.json``, followed by
``repr((validation_score(), validation_mde()))`` of the trained model (the
best epoch's weights, restored at the end of training) and the ``repr`` of
its ``evaluate_model`` rows (PSNR, SSIM, NMI and, with registration, MDE)
over the four training pairs. The checkpoint hash covers what
``fileio.load_checkpoint`` returns, not the file's bytes: each array's name,
dtype, shape and bytes in key order, then ``json.dumps(meta,
sort_keys=True)``. So it compares trees that store checkpoints in different
file layouts. Run it on two trees and compare the outputs; equal lines mean
equal loss logs, weights, optimizer state, checkpoint metadata, validation
histories, post-training validation values and evaluation metrics. Takes a
few seconds on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = ("EqSim+Com", "DefSim", "NoReg+Aug", "EqSim+Com+EqAdv", "DefSim+DefCondAdv",
           "DefSim+DefUncondAdv")


def checkpoint_sha256(stem) -> str:
    from warpsynth import fileio

    arrays, meta = fileio.load_checkpoint(stem)
    h = hashlib.sha256()
    for name, arr in arrays.items():
        h.update(repr((name, arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def fingerprint(config: str, out_dir: Path) -> tuple[dict, str, str]:
    import numpy as np
    from warpsynth import selfcheck
    from warpsynth.trainer import TrainConfig, Trainer, evaluate_model

    small = (4, 8)
    cfg = TrainConfig(config=config, epochs=2, seed=0, lr_main=1e-3, input_noise=0.01,
                      features_f=small, features_reg=small, features_rig=small, features_disc=small)
    data = selfcheck.tiny_dataset(np.random.default_rng(8), 4, 32)
    tr = Trainer(cfg, data)
    rng = np.random.default_rng(60)
    for net in (tr.models.h_svf, tr.models.g_svf):
        if net is not None:
            net.head.w.data += rng.normal(size=net.head.w.data.shape) * 0.2
            net.head.b.data += rng.normal(size=net.head.b.data.shape) * 0.5
    tr.train(out_dir)
    hashes = {"losses.jsonl": hashlib.sha256((out_dir / "losses.jsonl").read_bytes()).hexdigest(),
              "checkpoint": checkpoint_sha256(out_dir / "checkpoint"),
              "history.json": hashlib.sha256((out_dir / "history.json").read_bytes()).hexdigest()}
    _, rows = evaluate_model(tr, data.train)
    return hashes, repr((tr.validation_score(), tr.validation_mde())), repr(rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the warpsynth package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(CONFIGS):
            hashes, val, rows = fingerprint(config, Path(tmp) / str(i))
            print(f"{config:<20} " + "  ".join(f"{n}={h}" for n, h in hashes.items())
                  + f"  val={val}  eval={rows}", flush=True)


if __name__ == "__main__":
    main()
