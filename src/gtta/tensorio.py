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

A file is read once, front to back, in parts: a header, then each payload as
its own ``bytes`` object of the size the header names, checked against the
file's size before it is allocated (a pipe, whose size is known only once it
is read, is read whole first). A loaded GTT tensor is a read-only view of its
payload's bytes, not a copy; a loaded CSV table is read-only too.

While a :func:`recording` is open, every file read through a loader here and
every file written through :func:`save_bytes` is noted, so a command's
provenance names exactly the files it touched, and a file read in it may not
be overwritten. The SHA-256 of the bytes read or written is taken then, on a
worker thread, from the very parts read or written, so no file is read a
second time to hash it, and a load's digest is of exactly the bytes its
tensors view.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import io
import json
import math
import os
import queue
import stat
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
    """Take the SHA-256 of each queued ``(digest, parts)`` job in order, until a None.

    A job's parts are a file's bytes in order. hashlib releases the GIL while
    it hashes a large buffer, so the digests run on a second core while the
    command computes.
    """
    for pending, parts in iter(jobs.get, None):
        pending.hexdigest = _sha256(parts)
        pending.set()
        del pending, parts  # keep no file's bytes while waiting for the next


def _sha256(parts) -> str:
    """The SHA-256 hex digest of the bytes ``parts`` yield, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


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


def _note(role: str, path, parts) -> None:
    """Note ``path`` as read or written, with the digest of its bytes, ``parts`` in order, queued."""
    opened = _record.get()
    if opened is not None:
        record, jobs = opened
        record[role][os.fspath(path)] = pending = _Digest()
        jobs.put((pending, parts))


def _finite(arr: np.ndarray) -> bool:
    """Whether every element of a non-empty ``arr`` is finite, with no mask of its size:
    NaN propagates through the min and max without a floating-point error."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def as_tensor(data) -> np.ndarray:
    """Validate and return ``data`` as a float64 tensor.

    Rank must be >= 1, every dimension >= 1, every element finite.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        raise FormatError("scalar (rank-0) tensors are not allowed")
    if any(s == 0 for s in arr.shape):
        raise FormatError(f"zero-element dimension in shape {arr.shape}")
    if not _finite(arr):
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
    header names. The tensor views the payload ``read`` returns, a buffer of
    its own, so it is 8-byte aligned, read-only for ``bytes`` and writable
    for a ``bytearray``.
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
    arr = np.frombuffer(read(size), dtype="<f8").reshape(shape)
    if not _finite(arr):
        raise DataError("tensor payload contains NaN or Inf")
    return arr


class _Cursor:
    """An open file's bytes, read front to back, exactly as many as each call asks for.

    Each part is checked against the bytes the file has left before it is
    read, so a size that a header names is refused before anything of that
    size is allocated. ``parts`` keeps every part read, in order, each a
    ``bytes`` of its own, so every payload is 8-byte aligned; a product with
    an unaligned view into one whole-file blob takes two to three times as long.
    """

    def __init__(self, fh, path):
        info = os.fstat(fh.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):  # a pipe's size is known only once it is read
            blob = fh.read()
            fh, size = io.BufferedReader(io.BytesIO(blob)), len(blob)
        self._fh, self._path, self._pos, self._size, self.parts = fh, path, 0, size, []

    def magic(self) -> bytes:
        """The first four bytes, left unread."""
        return self._fh.peek(4)[:4]

    @property
    def left(self) -> int:
        return self._size - self._pos

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise FormatError(f"{self._path} is truncated: {n} bytes wanted at byte "
                              f"{self._pos}, {self.left} left")
        try:
            part = self._fh.read(n)
        except OSError as exc:
            raise IoError(f"cannot read {self._path}: {exc}") from exc
        if len(part) != n:
            raise FormatError(f"{self._path} shrank while it was read")
        self._pos += n
        self.parts.append(part)
        return part

    def end(self, what: str) -> None:
        """Refuse bytes after the last part read."""
        if self.left:
            raise FormatError(f"{self.left} trailing bytes after {what}")


@contextlib.contextmanager
def _reading(path):
    """A :class:`_Cursor` over the file at ``path``, noted as read when the block ends."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    with fh:
        cursor = _Cursor(fh, path)
        yield cursor
    _note("inputs", path, cursor.parts)


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
    _note("outputs", path, (data,))


def save_json(obj, path) -> None:
    """Write ``obj`` as sorted, indented JSON with a final newline."""
    save_bytes((json.dumps(obj, sort_keys=True, indent=2) + "\n").encode(), path)


def load_json(path) -> dict:
    """Read a file that must hold one JSON object."""
    with _reading(path) as cursor:
        blob = cursor.read(cursor.left)
    try:
        obj = json.loads(blob)
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
    CSV header line and is ignored for binary files. The tensor is read-only.
    """
    with _reading(path) as cursor:
        if cursor.magic() != _MAGIC:
            return _parse_csv(cursor.read(cursor.left), header=header)
        tensor = read_tensor(cursor.read)
        cursor.end("payload")
    return tensor


def _parse_csv(blob: bytes, header: bool) -> np.ndarray:
    """The read-only [n, d] table of CSV text; ``header`` drops its first non-blank line."""
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
    if not _finite(arr):
        raise DataError("CSV contains NaN or Inf")
    arr.flags.writeable = False
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
    """The named, read-only tensors of a container file, in file order."""
    sections: dict[str, np.ndarray] = {}
    with _reading(path) as cursor:
        if cursor.read(4) != _CONTAINER_MAGIC:
            raise FormatError("bad magic, not a GTT container")
        (count,) = struct.unpack("<I", cursor.read(4))
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
    try:
        with open(path, "rb") as fh:
            return _sha256(iter(lambda: fh.read(1 << 20), b""))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
