"""Synthetic "multimodal" dataset generation.

Source images are procedural (layered gradients, soft-edged shapes, mild
texture), so no external data is needed; a directory of user photos can be
substituted for fidelity runs. The misaligned label of an image is its
cyclic channel swap pushed through a simulated rigid + elastic deformation,
and the ground-truth deformation is stored next to each pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .deform import (Deformation, Image, PRESETS, SimDeformParams, SimulatedDeformation,
                     full_mask, simulate_deformation, warp)
from .tensor import Tensor, sample_validity


def procedural_image(rng: np.random.Generator, h: int, w: int, noise_amplitude: float = 1.5) -> Image:
    """Random smooth RGB test image in [0, 255], fully valid.

    Layers: per-channel linear gradients, a few large smooth blobs, 5 to 20
    soft-edged elliptical shapes in random colors, then low uniform noise.
    Channels are built independently enough that a channel swap is visible.
    """
    if h < 32 or w < 32:
        raise ValueError("procedural images need extents >= 32")
    ys = np.linspace(0.0, 1.0, h)[:, None]
    xs = np.linspace(0.0, 1.0, w)[None, :]
    img = np.empty((3, h, w))
    for c in range(3):
        base = rng.uniform(40, 215)
        img[c] = base + rng.uniform(-80, 80) * ys + rng.uniform(-80, 80) * xs
    for _ in range(3):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sig = rng.uniform(0.15, 0.5) * min(h, w)
        blob = np.exp(-0.5 * ((ys * h - cy) ** 2 + (xs * w - cx) ** 2) / sig**2)
        img += rng.uniform(-60, 60, size=(3, 1, 1)) * blob

    n_shapes = int(rng.integers(8, 21))
    for _ in range(n_shapes):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(0.04, 0.28, size=2) * min(h, w)
        theta = rng.uniform(0, math.pi)
        color = rng.uniform(0, 255, size=3)
        soft = rng.uniform(0.03, 0.12)
        dy = ys * h - cy
        dx = xs * w - cx
        u = np.cos(theta) * dy + np.sin(theta) * dx
        v = -np.sin(theta) * dy + np.cos(theta) * dx
        q = (u / ry) ** 2 + (v / rx) ** 2
        alpha = 1.0 / (1.0 + np.exp(np.clip((q - 1.0) / soft, -50.0, 50.0)))
        img = img * (1.0 - alpha) + color[:, None, None] * alpha

    if noise_amplitude > 0:
        img += rng.uniform(-noise_amplitude, noise_amplitude, size=img.shape)
    return Image.from_array(np.clip(img, 0.0, 255.0))


def channel_swap(img: Image) -> Image:
    """Cyclic channel relabeling (R,G,B) -> (G,B,R); order-3 involution."""
    if img.channels != 3:
        raise ValueError("channel swap expects 3 channels")
    data = img.data.data[[1, 2, 0]]
    return Image(Tensor(np.ascontiguousarray(data)), img.mask)


def make_pair(x: Image, params: SimDeformParams, rng: np.random.Generator):
    """Build (x, misaligned label, simulated deformation) for one sample."""
    h, w = x.extents
    sd = simulate_deformation(params, rng, h, w)
    y_tilde = warp(channel_swap(x), sd.deformation)
    return x, y_tilde, sd


@dataclass
class DatasetManifest:
    preset: str
    size: int
    counts: dict
    seed: int
    samples: dict
    root: Path = None
    format_version: int = 1

    @staticmethod
    def load(path) -> "DatasetManifest":
        path = Path(path)
        raw = json.loads(path.read_text())
        return DatasetManifest(preset=raw["preset"], size=int(raw["size"]), counts=raw["counts"],
                               seed=int(raw["seed"]), samples=raw["samples"], root=path.parent,
                               format_version=int(raw.get("format_version", 1)))


def generate_dataset(out_dir, preset: str = "SC", size: int = 96,
                     counts=(200, 20, 50), seed: int = 0, image_dir=None,
                     noise_amplitude: float = 1.5) -> Path:
    """Write a reproducible dataset and return the manifest path.

    Per sample: input image, misaligned label, ground-truth deformation and
    its validity mask, all in the flat-binary format. The manifest is written
    last, so its presence marks a complete dataset. Failures clean up any
    partial output. Sample rngs are derived per split and index, so the same
    seed regenerates byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    params = PRESETS[preset].scaled(size)
    counts = {"train": int(counts[0]), "val": int(counts[1]), "test": int(counts[2])}

    sources = None
    if image_dir is not None:
        sources = sorted(Path(image_dir).glob("*.ppm")) + sorted(Path(image_dir).glob("*.pgm"))
        if not sources:
            raise ValueError(f"no PPM/PGM images found in {image_dir}")

    split_seeds = dict(zip(("train", "val", "test"), np.random.SeedSequence(seed).spawn(3)))
    split_offset = {"train": 0, "val": 1, "test": 2}
    written = []
    manifest_samples = {}
    try:
        for split, n in counts.items():
            child_seeds = split_seeds[split].spawn(n)
            entries = []
            for i in range(n):
                rng = np.random.default_rng(child_seeds[i])
                if sources is None:
                    x = procedural_image(rng, size, size, noise_amplitude)
                else:
                    x = _load_source(sources[(i * 3 + split_offset[split]) % len(sources)], size)
                x, y_tilde, sd = make_pair(x, params, rng)
                stem = f"{split}_{i:05d}"
                entry = {
                    "x": f"{stem}_x.bin",
                    "y_tilde": f"{stem}_y.bin",
                    "d_true": f"{stem}_d.bin",
                    "d_mask": f"{stem}_dmask.bin",
                }
                fileio.write_array(out_dir / entry["x"], x.data.data, "image")
                fileio.write_array(out_dir / entry["y_tilde"], y_tilde.data.data, "image")
                d = sd.deformation
                fileio.write_array(out_dir / entry["d_true"], d.coords.data, "deformation")
                fileio.write_array(out_dir / entry["d_mask"], d.mask_array(size, size), "mask")
                for key in entry.values():
                    written.extend([out_dir / key, out_dir / (key + ".hdr")])
                entries.append(entry)
            manifest_samples[split] = entries
        manifest = {"preset": preset, "size": size, "counts": counts, "seed": seed,
                    "format_version": 1, "samples": manifest_samples}
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        return manifest_path
    except BaseException:
        for p in written:
            try:
                p.unlink()
            except OSError:
                pass
        raise


def _load_source(path, size: int) -> Image:
    arr = fileio.read_pnm(path)
    if arr.shape[0] == 1:
        arr = np.repeat(arr, 3, axis=0)
    c, h, w = arr.shape
    if h < size or w < size:
        raise ValueError(f"source image {path} smaller than {size}")
    r0, c0 = (h - size) // 2, (w - size) // 2
    return Image.from_array(arr[:, r0:r0 + size, c0:c0 + size])


# -- loading -----------------------------------------------------------------------


@dataclass
class Sample:
    x: Image
    y_tilde: Image
    d_true: Deformation | None = None


@dataclass
class Dataset:
    train: list
    val: list
    test: list
    image_size: int = 0
    in_channels: int = 3
    label_channels: int = 3
    SPLITS = ("train", "val", "test")

    def split(self, name: str):
        if name not in self.SPLITS:
            raise ValueError(f"unknown split {name!r}: expected one of {self.SPLITS}")
        return getattr(self, name)


def load_sample(manifest: DatasetManifest, split: str, index: int) -> Sample:
    entry = manifest.samples[split][index]
    root = manifest.root
    x_arr, kind = fileio.read_array(root / entry["x"])
    if kind != "image":
        raise ValueError(f"{entry['x']}: expected image, found {kind}")
    y_arr, _ = fileio.read_array(root / entry["y_tilde"])
    coords, kind = fileio.read_array(root / entry["d_true"])
    if kind != "deformation":
        raise ValueError(f"{entry['d_true']}: expected deformation, found {kind}")
    dmask, _ = fileio.read_array(root / entry["d_mask"])
    d_true = Deformation.from_coords(Tensor(coords), dmask.astype(bool))

    x = Image.from_array(x_arr)
    # the label mask is implied by the stored deformation: a label pixel is
    # valid where the deformation is valid and sampled fully in bounds
    h, w = y_arr.shape[1:]
    y_mask = sample_validity(full_mask(h, w), coords) & d_true.mask
    return Sample(x=x, y_tilde=Image.from_array(y_arr, y_mask), d_true=d_true)


def load_dataset(manifest_path) -> Dataset:
    manifest = DatasetManifest.load(manifest_path)
    splits = {}
    for split in Dataset.SPLITS:
        splits[split] = [load_sample(manifest, split, i) for i in range(len(manifest.samples[split]))]
    return Dataset(train=splits["train"], val=splits["val"], test=splits["test"],
                   image_size=manifest.size)
