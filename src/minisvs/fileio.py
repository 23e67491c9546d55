"""The atomic file writer every output goes through, raw f32 matrix files
and parameter checkpoints.

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


def write_files(*files) -> None:
    """Write each (path, chunks) pair, chunks an iterable of bytes, to
    path + ".tmp"; once all are written, os.replace them into place in the
    order given. A write that fails leaves every earlier file as it was and
    removes the temporary files."""
    tmps = []
    try:
        for path, chunks in files:
            tmps.append(str(path) + ".tmp")
            with open(tmps[-1], "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def write_json(path, payload) -> None:
    """Indented strict JSON: a NaN or an infinity raises ValueError before any write."""
    write_files((path, [json.dumps(payload, indent=1, allow_nan=False).encode()]))


def save_matrix(path, arr: np.ndarray, **meta) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    sidecar = {"frames": int(arr.shape[0]), "dim": int(arr.shape[1]), **meta}
    write_files((path, [arr.astype("<f4").tobytes()]),
                (str(path) + ".json", [json.dumps(sidecar).encode()]))


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
    """Write <path> (f32 blob, streamed one array at a time), then <path>.json (manifest)."""
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(np.shape(arr)), "offset": offset})
        offset += 4 * int(np.size(arr))
    write_files((path, (np.asarray(arr).astype("<f4").tobytes() for arr in arrays.values())),
                (str(path) + ".json", [json.dumps({"meta": meta, "params": entries}).encode()]))


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
