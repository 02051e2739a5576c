"""On-disk tensor formats.

Single tensor (little-endian throughout)::

    magic "GTT1" | dtype u8 (0 = float64) | rank u8 | rank x u64 dims | payload

Multi-tensor container::

    magic "GTTC" | u32 section count | sections of
        (u16 name length | name utf-8 | single-tensor blob)

CSV files are comma-separated decimal floats, one row per sample, no header
unless the caller skips one. All tensors are float64; integer-valued data
(labels, instance ids) is stored as float64 and converted back by the caller.

Every writer goes through :func:`save_bytes`, which writes a temporary file
next to the target and renames it into place, so an interrupted or failed
write never leaves a truncated artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .errors import DataError, FormatError, IoError

_MAGIC = b"GTT1"
_CONTAINER_MAGIC = b"GTTC"
_DTYPE_F64 = 0


def as_tensor(data) -> np.ndarray:
    """Validate and return ``data`` as a float64 tensor.

    Rank must be >= 1, every dimension >= 1, every element finite.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        raise FormatError("scalar (rank-0) tensors are not allowed")
    if any(s == 0 for s in arr.shape):
        raise FormatError(f"zero-element dimension in shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("tensor contains NaN or Inf")
    return np.ascontiguousarray(arr)


def dumps_tensor(t) -> bytes:
    arr = as_tensor(t)
    header = _MAGIC + struct.pack("<BB", _DTYPE_F64, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype("<f8").tobytes()
    return header + dims + payload


def _header_rank(head: bytes) -> int:
    """The rank named by a 6-byte tensor header, after checking magic and dtype."""
    if head[:4] != _MAGIC:
        raise FormatError("bad magic, not a GTT tensor")
    if len(head) < 6:
        raise FormatError("truncated header")
    dtype_code, rank = head[4], head[5]
    if dtype_code != _DTYPE_F64:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    if rank == 0:
        raise FormatError("rank 0 is not allowed")
    return rank


def _payload_size(shape) -> int:
    if any(s == 0 for s in shape):
        raise FormatError(f"zero-element dimension in shape {shape}")
    count = 1
    for s in shape:
        count *= s
    return 8 * count


def loads_tensor(blob: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one tensor starting at ``offset``; return (tensor, next offset)."""
    rank = _header_rank(blob[offset : offset + 6])
    dims_end = offset + 6 + 8 * rank
    if len(blob) < dims_end:
        raise FormatError("truncated dimension list")
    shape = struct.unpack_from(f"<{rank}Q", blob, offset + 6)
    payload_end = dims_end + _payload_size(shape)
    if len(blob) < payload_end:
        raise FormatError("truncated payload")
    arr = np.frombuffer(blob[dims_end:payload_end], dtype="<f8").astype(
        np.float64, copy=True
    ).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DataError("tensor payload contains NaN or Inf")
    return arr, payload_end


def read_tensor(read) -> np.ndarray:
    """Read one tensor through ``read(n)``, which returns exactly ``n`` bytes.

    The header, the dimensions and the payload are asked for one after the
    other, each only once the part before it has been checked, so ``read``
    can take a stream's bytes as they arrive instead of trusting a size the
    header names.
    """
    head = read(6)
    rank = _header_rank(head)
    dims = read(8 * rank)
    payload = read(_payload_size(struct.unpack(f"<{rank}Q", dims)))
    return loads_tensor(head + dims + payload)[0]


def save_bytes(data: bytes, path) -> None:
    """Write ``data`` to ``path`` through a temporary file and an atomic rename.

    The temporary file sits in the target's directory, so the rename never
    crosses file systems. A failed write leaves any earlier file at ``path``
    whole and removes the temporary file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def save_json(obj, path) -> None:
    """Write ``obj`` as sorted, indented JSON with a final newline."""
    save_bytes((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), path)


def save_tensor(t, path) -> None:
    save_bytes(dumps_tensor(t), path)


def load_tensor(path, header: bool = False) -> np.ndarray:
    """Load a tensor from a GTT binary file or a CSV file.

    The format is sniffed from the first four bytes. ``header`` skips one
    CSV header line and is ignored for binary files.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if blob[:4] == _MAGIC:
        tensor, end = loads_tensor(blob)
        if end != len(blob):
            raise FormatError(f"{len(blob) - end} trailing bytes after payload")
        return tensor
    return _parse_csv(blob, header=header)


def _parse_csv(blob: bytes, header: bool) -> np.ndarray:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not a GTT file and not valid CSV text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if header:
        lines = lines[1:]
    if not lines:
        raise FormatError("empty CSV file")
    rows = []
    width = None
    for i, ln in enumerate(lines):
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise FormatError(f"CSV line {i + 1}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"CSV line {i + 1}: expected {width} columns, got {len(row)}")
        rows.append(row)
    arr = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("CSV contains NaN or Inf")
    return arr


def save_container(sections: dict[str, np.ndarray], path) -> None:
    """Write named tensors to one file, in insertion order."""
    parts = [_CONTAINER_MAGIC, struct.pack("<I", len(sections))]
    for name, tensor in sections.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"section name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(dumps_tensor(tensor))
    save_bytes(b"".join(parts), path)


def load_container(path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _CONTAINER_MAGIC:
        raise FormatError("bad magic, not a GTT container")
    if len(blob) < 8:
        raise FormatError("truncated container header")
    (count,) = struct.unpack_from("<I", blob, 4)
    sections: dict[str, np.ndarray] = {}
    offset = 8
    for _ in range(count):
        if len(blob) < offset + 2:
            raise FormatError("truncated section name length")
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if len(blob) < offset + name_len:
            raise FormatError("truncated section name")
        try:
            name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"section name is not UTF-8: {exc}") from None
        offset += name_len
        tensor, offset = loads_tensor(blob, offset)
        sections[name] = tensor
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after last section")
    return sections


def content_hash(path) -> str:
    """SHA-256 hex digest of a file, for provenance records."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()
