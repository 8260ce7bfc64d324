"""Versioned binary container for parameter tensors and run metadata.

Layout: 8 magic bytes, little-endian uint32 format version, little-endian
uint64 header length, a UTF-8 JSON header (metadata plus per-tensor name,
shape, offset, count, and a payload digest), then the payload: each tensor
as 64-bit little-endian reals in first-mode-fastest order.  Round trips
are bit-exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from math import prod
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "save_tensor",
    "load_tensor",
    "save_tt",
]

MAGIC = b"RGTNCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """File is not a readable checkpoint of a supported version."""


def save_checkpoint(path: str, arrays: Mapping[str, np.ndarray], meta: dict) -> None:
    """Write ``arrays`` and ``meta``; ``meta`` enters the header as it is, so it is plain JSON.

    The file is written whole to ``<path>.<pid>.tmp`` beside it, then moved
    onto ``path`` by ``os.replace``, so a process killed or failing mid-write
    leaves the checkpoint that was at ``path`` as it was.  On an exception
    the temporary file is removed and the exception raised again; a killed
    process leaves it behind.  There is no ``fsync``: this guards against a
    killed or failing process, not a power loss, and the benchmark's set-up
    saves three checkpoints per unit, whose time a flush to disk would add to.
    """
    entries = []
    chunks = []
    digest = hashlib.sha256()
    offset = 0
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype="<f8")
        # one byte string per tensor, written on its own, so the payload is held once
        chunks.append(a.tobytes(order="F"))
        digest.update(chunks[-1])
        entries.append(
            {"name": name, "shape": list(a.shape), "offset": offset, "count": int(a.size)}
        )
        offset += a.size
    header = {
        "version": VERSION,
        "meta": meta,
        "params": entries,
        "payload_sha256": digest.hexdigest(),
    }
    head_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(head_bytes)))
            fh.write(head_bytes)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        # open may have failed before making the file
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _header_problem(header, payload_bytes: int) -> str | None:
    """What makes a parsed header unreadable, or None if it is well formed.

    The entries must tile a payload of ``payload_bytes`` in order, as
    ``save_checkpoint`` lays them out: each starts where the one before it
    ends, the first at 0, and the last ends at the payload's end.  So no two
    entries read the same payload values, and no payload byte goes unread.
    """
    if not isinstance(header, dict):
        return "header is not a JSON object"
    if not isinstance(header.get("meta"), dict) or not isinstance(header.get("params"), list):
        return "header lacks its meta object or params list"
    end = 0
    for entry in header["params"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            return "a params entry is not an object with a name"
        shape, count = entry.get("shape"), entry.get("count")
        if not (
            _is_index(entry.get("offset"))
            and _is_index(count)
            and isinstance(shape, list)
            and all(_is_index(d) for d in shape)
        ):
            return f"entry {entry['name']!r} needs non-negative integer offset, count and shape"
        if prod(shape) != count:
            return f"entry {entry['name']!r} has count {count} but shape {shape}"
        if entry["offset"] != end:
            return (f"entry {entry['name']!r} starts at value {entry['offset']}, not at {end} "
                    f"where the entry before it ends")
        end += count
    if 8 * end > payload_bytes:
        return f"truncated payload: the entries need {8 * end} bytes, it holds {payload_bytes}"
    if 8 * end < payload_bytes:
        return f"the entries end at byte {8 * end} of a {payload_bytes}-byte payload"
    return None


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and meta ``save_checkpoint`` wrote, with ``format_version`` added to meta.

    Each array is a fresh, writable float64 array in C order, whatever
    layout it was saved from: ``predict``'s last bits depend on its
    parameters' layout, and a model trains on C-order arrays, so a loaded
    model predicts the bits of the one that was saved.  A malformed or
    corrupted file raises ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic bytes)")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version} is not the supported {VERSION}")
    (head_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    try:
        header = json.loads(blob[pos : pos + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupted header ({exc})") from None
    # a view, not a slice of the bytes: a slice would copy the payload
    payload = memoryview(blob)[pos + head_len :]
    problem = _header_problem(header, len(payload))
    if problem is not None:
        raise CheckpointError(f"{path}: malformed header: {problem}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload digest mismatch, file corrupted")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        start = entry["offset"] * 8
        stop = start + entry["count"] * 8
        flat = np.frombuffer(payload[start:stop], dtype="<f8")
        # the one copy of each array, and the one that makes it C order
        arrays[entry["name"]] = flat.reshape(entry["shape"], order="F").astype(np.float64,
                                                                               order="C")
    meta = dict(header["meta"])
    meta["format_version"] = version
    return arrays, meta


def save_tensor(path: str, array: np.ndarray) -> None:
    save_checkpoint(path, {"tensor": np.asarray(array)}, {"kind": "tensor"})


def load_tensor(path: str) -> np.ndarray:
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "tensor" or "tensor" not in arrays:
        raise CheckpointError(f"{path}: not a tensor file")
    return arrays["tensor"]


def save_tt(path: str, cores: Sequence[np.ndarray], meta: dict | None = None) -> None:
    arrays = {f"core{k}": core for k, core in enumerate(cores)}
    info = {"kind": "tt", "n_cores": len(cores)}
    info.update(meta or {})
    save_checkpoint(path, arrays, info)

