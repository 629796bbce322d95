"""Serialization: flat binary buffers with sidecar text headers, single-file
checkpoints, flat key=value config files, and 8-bit PPM/PGM for eyeballing.

Array files are a raw little-endian buffer at ``<name>`` plus a
``<name>.hdr`` sidecar declaring dtype, shape and kind (image, deformation,
mask or svf). A checkpoint is one file, ``<stem>.bin``: a JSON header line
with the array table and the non-array state, then the arrays as float64,
which holds float32 values exactly.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

KINDS = ("image", "deformation", "mask", "svf", "tensor")

_DTYPES = {"float64": "<f8", "float32": "<f4", "uint8": "|u1"}


def write_array(path, arr: np.ndarray, kind: str):
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    path = Path(path)
    arr = np.asarray(arr)
    name = {np.dtype(np.float64): "float64", np.dtype(np.float32): "float32",
            np.dtype(np.uint8): "uint8", np.dtype(bool): "uint8"}.get(arr.dtype)
    if name is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    if arr.dtype == bool:
        arr = arr.astype(np.uint8)
    buf = np.ascontiguousarray(arr.astype(_DTYPES[name]))
    path.write_bytes(buf.tobytes())
    hdr = f"dtype={name}\nshape={' '.join(str(s) for s in arr.shape)}\nkind={kind}\n"
    Path(str(path) + ".hdr").write_text(hdr)


def read_array(path):
    """Read an array file and its ``.hdr`` sidecar as ``(array, kind)``. A
    header without its dtype, shape or kind line, or a data file whose size is
    not the header's, raises ValueError naming the file."""
    path = Path(path)
    try:
        hdr = {}
        for line in Path(str(path) + ".hdr").read_text().splitlines():
            if line.strip():
                k, v = line.split("=", 1)
                hdr[k.strip()] = v.strip()
        missing = [k for k in ("dtype", "shape", "kind") if k not in hdr]
        if missing:
            raise ValueError(f"the header has no {' or '.join(missing)} line")
        if hdr["dtype"] not in _DTYPES:
            raise ValueError(f"unknown dtype {hdr['dtype']!r}")
        dtype = np.dtype(_DTYPES[hdr["dtype"]])
        shape = tuple(int(s) for s in hdr["shape"].split())
        raw = path.read_bytes()
        if len(raw) != dtype.itemsize * math.prod(shape):
            raise ValueError(f"{len(raw)} bytes, the header declares {hdr['dtype']} of shape {shape}")
    except ValueError as exc:
        raise ValueError(f"{path}: not an array file: {exc}") from exc
    return np.frombuffer(raw, dtype).reshape(shape).copy(), hdr["kind"]


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(stem, named_arrays, meta: dict):
    """Write (name, float ndarray) pairs and ``meta`` to ``<stem>.bin``: one
    compact JSON line ``{"arrays": [[name, shape, offset], ...], "meta": meta}``,
    then the arrays in order as little-endian float64, which holds float32
    values exactly. It goes to a ``.tmp`` first and into place with
    one ``os.replace``, so a checkpoint is wholly the old one or the new one."""
    path = Path(f"{stem}.bin")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        table, bufs, offset = [], [], 0
        for name, arr in named_arrays:
            bufs.append(np.ascontiguousarray(arr, dtype="<f8"))
            table.append([name, np.shape(arr), offset])
            offset += bufs[-1].nbytes
        header = json.dumps({"arrays": table, "meta": meta}, sort_keys=True, separators=(",", ":"))
        with open(tmp, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.writelines(bufs)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(stem):
    """Read ``<stem>.bin`` as ``(arrays, meta)``. A file whose first line is not
    a checkpoint header, or whose size is not the header's, raises ValueError."""
    path = Path(f"{stem}.bin")
    raw = path.read_bytes()
    start = raw.find(b"\n") + 1
    try:
        header = json.loads(raw[:start])
        if not (isinstance(header, dict) and header.keys() == {"arrays", "meta"}):
            raise ValueError("no checkpoint header line")
        sizes = [8 * int(np.prod(shape)) for _, shape, _ in header["arrays"]]
        if len(raw) - start != sum(sizes):
            raise ValueError(f"{len(raw) - start} bytes follow the header, which declares {sum(sizes)}")
        arrays, at = {}, 0
        for (name, shape, offset), size in zip(header["arrays"], sizes):
            if offset != at:
                raise ValueError(f"array {name!r} at byte {offset}, expected {at}")
            arrays[name] = np.frombuffer(raw, "<f8", size // 8, start + at).reshape(shape).copy()
            at += size
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: not a checkpoint: {exc}") from exc
    return arrays, header["meta"]


# -- flat key=value config ------------------------------------------------------------


def parse_kv(text: str) -> dict:
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def read_config(path) -> dict:
    return parse_kv(Path(path).read_text())


def write_config(path, values: dict):
    lines = [f"{k} = {values[k]}" for k in values]
    Path(path).write_text("\n".join(lines) + "\n")


# -- portable 8-bit images -------------------------------------------------------------


def write_pnm(path, arr: np.ndarray):
    """(3,H,W) -> binary PPM, (H,W) or (1,H,W) -> binary PGM; values clipped
    to [0, 255]."""
    arr = np.asarray(arr)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    data = np.clip(np.round(arr), 0, 255).astype(np.uint8)
    if data.ndim == 2:
        magic, h, w = b"P5", *data.shape
        body = data.tobytes()
    elif data.ndim == 3 and data.shape[0] == 3:
        magic, h, w = b"P6", data.shape[1], data.shape[2]
        body = data.transpose(1, 2, 0).tobytes()
    else:
        raise ValueError(f"cannot write shape {arr.shape} as PPM/PGM")
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode())
        fh.write(body)


def read_pnm(path) -> np.ndarray:
    """Binary PPM/PGM -> float64 array, (3,H,W) or (1,H,W)."""
    raw = Path(path).read_bytes()
    if not raw[:2] in (b"P5", b"P6"):
        raise ValueError("only binary PGM (P5) / PPM (P6) supported")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while raw[pos:pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only 8-bit PPM/PGM supported")
    body = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    if raw[:2] == b"P5":
        return body[: h * w].reshape(1, h, w).astype(np.float64)
    return body[: h * w * 3].reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64)
