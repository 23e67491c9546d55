"""Raw f32 matrix files and parameter checkpoints.

Matrices are raw little-endian float32 with a JSON sidecar carrying
{frames, dim} plus whatever extra metadata the writer adds. Checkpoints
are one f32 blob plus a manifest listing (name, shape, offset) per array
and a free-form meta object (config snapshot, step, rng state, ...).
"""
from __future__ import annotations

import json
import os

import numpy as np


def _is_count(value) -> bool:
    # bool is an int subclass, not a count
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_matrix(path, arr: np.ndarray, **meta) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    with open(path, "wb") as fh:
        fh.write(arr.astype("<f4").tobytes())
    sidecar = {"frames": int(arr.shape[0]), "dim": int(arr.shape[1]), **meta}
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)


def load_matrix(path):
    """Returns (float32 array (frames, dim), sidecar metadata dict).

    The width key may be 'dim' or 'F' (external feature files use F).
    """
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not (isinstance(meta, dict) and "frames" in meta and ("dim" in meta or "F" in meta)):
        raise ValueError(f"{path}: sidecar must be an object declaring 'frames' and 'dim' (or 'F')")
    frames, dim = meta["frames"], meta.get("dim", meta.get("F"))
    if not (_is_count(frames) and _is_count(dim)):
        raise ValueError(f"{path}: sidecar 'frames' and 'dim' (or 'F') must be non-negative ints")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != frames * dim:
        raise ValueError(f"{path}: expected {frames * dim} floats, found {raw.size}")
    return raw.reshape(frames, dim), meta


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write <path> (f32 blob) and <path>.json (manifest), atomically.

    Both are written to temporary files in the same directory and then moved
    into place with os.replace, the manifest last. A write that fails leaves
    any earlier pair untouched and removes its temporary files.
    """
    path = str(path)
    blob_tmp, manifest_tmp = path + ".tmp", path + ".json.tmp"
    entries = []
    offset = 0
    try:
        with open(blob_tmp, "wb") as fh:
            for name, arr in arrays.items():
                blob = np.asarray(arr).astype("<f4").tobytes()
                fh.write(blob)
                entries.append({"name": name, "shape": list(np.asarray(arr).shape), "offset": offset})
                offset += len(blob)
        with open(manifest_tmp, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "params": entries}, fh)
        os.replace(blob_tmp, path)
        os.replace(manifest_tmp, path + ".json")
    finally:
        for tmp in (blob_tmp, manifest_tmp):
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(path):
    """Returns (dict name -> float32 array, meta dict)."""
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("meta"), dict)
            and isinstance(manifest.get("params"), list)):
        raise ValueError(f"{path}: not a checkpoint manifest")
    with open(path, "rb") as fh:
        blob = fh.read()
    arrays = {}
    for i, entry in enumerate(manifest["params"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: manifest params[{i}] must be an object")
        if not isinstance(entry.get("name"), str):
            raise ValueError(f"{path}: manifest params[{i}] 'name' must be a string")
        shape, offset = entry.get("shape"), entry.get("offset")
        if not (isinstance(shape, list) and all(map(_is_count, shape))):
            raise ValueError(f"{path}: manifest params[{i}] 'shape' must list non-negative ints")
        if not _is_count(offset):
            raise ValueError(f"{path}: manifest params[{i}] 'offset' must be a non-negative int")
        count = int(np.prod(shape)) if shape else 1
        piece = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if piece.size != count:
            raise ValueError(f"{path}: truncated checkpoint at '{entry['name']}'")
        arrays[entry["name"]] = piece.reshape(shape).copy()
    return arrays, manifest["meta"]
