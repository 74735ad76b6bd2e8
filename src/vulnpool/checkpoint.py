"""Binary checkpoint container: manifest + raw little-endian arrays.

Layout:
    b"mulvuln-ckpt-v1\\n"
    8-byte little-endian manifest length
    canonical JSON manifest {"meta": {...}, "arrays": [{name, shape, dtype, offset}]}
    concatenated raw array bytes (C order, little-endian), in manifest order

The manifest is serialized with sorted keys and no whitespace, and arrays
are stored in sorted-name order, so save -> load -> save is byte-identical.
A save writes a temporary file beside the target and renames it over the
target, so a failed or killed save leaves the previous file intact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

FORMAT_VERSION = "mulvuln-ckpt-v1"
_MAGIC = (FORMAT_VERSION + "\n").encode("ascii")

_DTYPES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4"), "<i8": np.dtype("<i8")}


class CheckpointError(RuntimeError):
    pass


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict):
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])  # not ascontiguousarray: it makes 0-d arrays 1-d
        dtype = arr.dtype.newbyteorder("<")
        if dtype.str not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")
        raw = arr.astype(dtype, copy=False).tobytes(order="C")
        entries.append(
            {"name": name, "shape": list(arr.shape), "dtype": dtype.str, "offset": offset}
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps(
        {"meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<Q", len(manifest)))
            f.write(manifest)
            for raw in blobs:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _entry(e) -> tuple[str, str, tuple[int, ...], int]:
    """(name, dtype, shape, offset) of one manifest array entry."""
    name, dtype, shape, offset = e["name"], e["dtype"], e["shape"], e["offset"]
    if not (isinstance(name, str) and isinstance(dtype, str) and isinstance(shape, list)
            and all(type(n) is int for n in shape) and type(offset) is int):
        raise TypeError(f"malformed array entry {e!r}")
    return name, dtype, tuple(shape), offset


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back. Any damage to it (truncation, a bad manifest,
    array ranges outside the data or overlapping) raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(_MAGIC):
        found = raw[: len(_MAGIC)].split(b"\n", 1)[0].decode("ascii", errors="replace")
        raise CheckpointError(
            f"{path}: format version mismatch: expected {FORMAT_VERSION!r}, found {found!r}"
        )
    manifest_start = len(_MAGIC) + 8
    if len(raw) < manifest_start:
        raise CheckpointError(f"{path}: truncated header")
    (manifest_len,) = struct.unpack_from("<Q", raw, len(_MAGIC))
    data_start = manifest_start + manifest_len
    if data_start > len(raw):
        raise CheckpointError(
            f"{path}: manifest length {manifest_len} exceeds the {len(raw)}-byte file"
        )
    try:
        manifest = json.loads(raw[manifest_start:data_start].decode("utf-8"))
        meta = manifest.get("meta", {})
        entries = [_entry(e) for e in manifest["arrays"]]
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest: {exc!r}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: corrupt manifest: meta is not an object")

    data = memoryview(raw)[data_start:]
    arrays = {}
    spans = []
    for name, dtype_str, shape, start in entries:
        dtype = _DTYPES.get(dtype_str)
        if dtype is None:
            raise CheckpointError(f"{path}: unsupported dtype {dtype_str!r}")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate array {name!r}")
        if start < 0 or any(n < 0 for n in shape):
            raise CheckpointError(f"{path}: negative offset or shape for array {name!r}")
        stop = start + math.prod(shape) * dtype.itemsize
        if stop > len(data):
            raise CheckpointError(f"{path}: truncated data for array {name!r}")
        arrays[name] = np.frombuffer(data[start:stop], dtype=dtype).reshape(shape).copy()
        spans.append((start, stop, name))
    spans.sort()
    for (_, prev_stop, prev), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_stop:
            raise CheckpointError(f"{path}: arrays {prev!r} and {name!r} overlap")
    return arrays, meta


def check_shapes(arrays: dict[str, np.ndarray], expected: dict[str, tuple], where: str):
    """Verify that `arrays` carries exactly the expected names and shapes."""
    problems = []
    for name, shape in expected.items():
        if name not in arrays:
            problems.append(f"missing {name} {tuple(shape)}")
        elif tuple(arrays[name].shape) != tuple(shape):
            problems.append(
                f"{name}: expected {tuple(shape)}, found {tuple(arrays[name].shape)}"
            )
    extra = sorted(set(arrays) - set(expected))
    if extra:
        problems.append(f"unexpected arrays: {', '.join(extra)}")
    if problems:
        raise CheckpointError(f"{where}: shape mismatch: " + "; ".join(problems))
