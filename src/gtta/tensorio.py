"""On-disk tensor formats.

Single tensor (little-endian throughout)::

    magic "GTT1" | dtype u8 (0 = float64) | rank u8 | rank x u64 dims | payload

Multi-tensor container::

    magic "GTTC" | u32 section count | sections of
        (u16 name length | name utf-8 | single-tensor blob)

Every tensor, whether a file, a container section or a reply on a pipe, is
parsed by :func:`read_tensor`.

CSV files are comma-separated decimal floats, one row per sample, parsed by
``np.loadtxt``; blank lines are skipped, and there is no header unless the
caller skips one. All tensors are float64; integer-valued data (labels,
instance ids) is stored as float64 and converted back by the caller.

Every writer goes through :func:`save_bytes`, which makes the target's
directory, writes a temporary file next to the target and renames it into
place, so an interrupted or failed write never leaves a truncated artifact.

While a :func:`recording` is open, every file read through a loader here and
every file written through :func:`save_bytes` is noted, so a command's
provenance names exactly the files it touched, and a file read in it may not
be overwritten. The SHA-256 of the bytes read or written is taken then, from
those bytes, on a worker thread, so no file is read a second time to hash it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
import queue
import struct
import threading

import numpy as np

from .errors import DataError, FormatError, IoError, ParamError

_MAGIC = b"GTT1"
_CONTAINER_MAGIC = b"GTTC"
_DTYPE_F64 = 0

# (record, digest jobs) of the open recording, if any
_record: contextvars.ContextVar[tuple | None] = contextvars.ContextVar("record", default=None)


class _Digest(threading.Event):
    """The SHA-256 hex digest of some bytes, set once the worker thread has taken it."""

    hexdigest: str | None = None


def _take_digests(jobs: queue.SimpleQueue) -> None:
    """Take the SHA-256 of each queued ``(digest, bytes)`` job in order, until a None.

    hashlib releases the GIL while it hashes a large buffer, so the digests
    run on a second core while the command computes.
    """
    for pending, data in iter(jobs.get, None):
        pending.hexdigest = hashlib.sha256(data).hexdigest()
        pending.set()
        del pending, data  # keep no file's bytes while waiting for the next


@contextlib.contextmanager
def recording():
    """Note, for the length of a ``with`` block, the files read and written, and their digests.

    Yields ``{"inputs": ..., "outputs": ...}``, two dicts whose keys are the
    paths as strings, in the order first touched. Each maps to the pending
    digest of the bytes last read from or written to its path, which
    :func:`content_hash` waits for. The digests are taken on one worker
    thread, which hashes what is queued and ends when the block does.
    """
    record, jobs = {"inputs": {}, "outputs": {}}, queue.SimpleQueue()
    worker = threading.Thread(target=_take_digests, args=(jobs,), name="gtta-sha256", daemon=True)
    worker.start()
    token = _record.set((record, jobs))
    try:
        yield record
    finally:
        _record.reset(token)
        jobs.put(None)
        worker.join()


def _note(role: str, path, data: bytes) -> None:
    """Note ``path`` as read or written, with the digest of its bytes ``data`` queued."""
    opened = _record.get()
    if opened is not None:
        record, jobs = opened
        record[role][os.fspath(path)] = pending = _Digest()
        jobs.put((pending, data))


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


def read_tensor(read) -> np.ndarray:
    """Read one tensor through ``read(n)``, which returns exactly ``n`` bytes.

    The header, the dimensions and the payload are asked for one after the
    other, each only once the part before it has been checked, so ``read``
    can take a stream's bytes as they arrive instead of trusting a size the
    header names.
    """
    head = read(6)
    if head[:4] != _MAGIC:
        raise FormatError("bad magic, not a GTT tensor")
    dtype_code, rank = head[4], head[5]
    if dtype_code != _DTYPE_F64:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    if rank == 0:
        raise FormatError("rank 0 is not allowed")
    shape = struct.unpack(f"<{rank}Q", read(8 * rank))
    if 0 in shape:
        raise FormatError(f"zero-element dimension in shape {shape}")
    size = 8 * math.prod(shape)
    if size >> 64:  # no file or pipe holds it, and the number would not even print
        raise FormatError(f"a shape of {rank} dimensions names over 2**64 payload bytes")
    payload = read(size)
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DataError("tensor payload contains NaN or Inf")
    return arr


class _Cursor:
    """A file's bytes, read front to back, exactly as many as each call asks for."""

    def __init__(self, blob: bytes, path):
        self._view, self._pos, self._path = memoryview(blob), 0, path

    def read(self, n: int) -> memoryview:
        left = len(self._view) - self._pos
        if n > left:
            raise FormatError(f"{self._path} is truncated: {n} bytes wanted at byte "
                              f"{self._pos}, {left} left")
        self._pos += n
        return self._view[self._pos - n : self._pos]

    def end(self, what: str) -> None:
        """Refuse bytes after the last part read."""
        if self._pos != len(self._view):
            raise FormatError(f"{len(self._view) - self._pos} trailing bytes after {what}")


def save_bytes(data: bytes, path) -> None:
    """Write ``data`` to ``path`` through a temporary file and an atomic rename.

    The temporary file sits in the target's directory, so the rename never
    crosses file systems. A failed write leaves any earlier file at ``path``
    whole and removes the temporary file. Inside a :func:`recording`, a
    ``path`` that names a file read so far is refused with a ``ParamError``.
    """
    opened = _record.get()
    if opened is not None and os.path.realpath(path) in map(os.path.realpath, opened[0]["inputs"]):
        raise ParamError(f"{path} was read by this command and may not be overwritten")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    _note("outputs", path, data)


def save_json(obj, path) -> None:
    """Write ``obj`` as sorted, indented JSON with a final newline."""
    save_bytes((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), path)


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    _note("inputs", path, blob)
    return blob


def load_json(path) -> dict:
    """Read a file that must hold one JSON object."""
    try:
        obj = json.loads(_read(path))
    except ValueError as exc:
        raise FormatError(f"{path} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    return obj


def save_tensor(t, path) -> None:
    save_bytes(dumps_tensor(t), path)


def load_tensor(path, header: bool = False) -> np.ndarray:
    """Load a tensor from a GTT binary file or a CSV file.

    The format is sniffed from the first four bytes. ``header`` skips one
    CSV header line and is ignored for binary files.
    """
    blob = _read(path)
    if blob[:4] != _MAGIC:
        return _parse_csv(blob, header=header)
    cursor = _Cursor(blob, path)
    tensor = read_tensor(cursor.read)
    cursor.end("payload")
    return tensor


def _parse_csv(blob: bytes, header: bool) -> np.ndarray:
    """The [n, d] table of CSV text; ``header`` drops its first non-blank line."""
    try:
        lines = [ln for ln in blob.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"not a GTT file and not valid CSV text: {exc}") from exc
    if header:
        lines = lines[1:]
    if not lines:  # np.loadtxt only warns of an empty table
        raise FormatError("empty CSV file")
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"not a numeric CSV table: {exc}") from exc
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
    cursor = _Cursor(_read(path), path)
    if cursor.read(4) != _CONTAINER_MAGIC:
        raise FormatError("bad magic, not a GTT container")
    (count,) = struct.unpack("<I", cursor.read(4))
    sections: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", cursor.read(2))
        try:
            name = str(cursor.read(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"section name is not UTF-8: {exc}") from None
        sections[name] = read_tensor(cursor.read)
    cursor.end("last section")
    return sections


def content_hash(path, seen: _Digest | None = None) -> str:
    """SHA-256 hex digest of a file, for provenance records.

    ``seen`` is a :func:`recording`'s digest of the bytes last read from or
    written to ``path``; it is waited for, and the file is read only without one.
    """
    if seen is not None:
        seen.wait()
        return seen.hexdigest
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()
