"""GTT tensor files read and written with numpy and the standard library only.

Single tensor (little-endian)::

    magic "GTT1" | dtype u8 (0 = float64) | rank u8 | rank x u64 dims | f64 payload

Container: magic "GTTC" | u32 count | (u16 name length | name | tensor)...

The benchmark keeps its own reader so that its checks and the external model
child do not go through the package under test.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"GTT1"
CONTAINER_MAGIC = b"GTTC"


def dumps(arr) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    header = MAGIC + struct.pack("<BB", 0, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + arr.tobytes()


def loads(blob: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one tensor at ``offset``; return it and the offset after it."""
    if blob[offset:offset + 4] != MAGIC:
        raise ValueError("not a GTT tensor")
    dtype, rank = struct.unpack_from("<BB", blob, offset + 4)
    if dtype != 0 or rank == 0:
        raise ValueError(f"unsupported GTT header: dtype {dtype}, rank {rank}")
    shape = struct.unpack_from(f"<{rank}Q", blob, offset + 6)
    start = offset + 6 + 8 * rank
    end = start + 8 * int(np.prod(shape))
    if len(blob) < end:
        raise ValueError("truncated GTT payload")
    return np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy(), end


def load(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    arr, end = loads(blob)
    if end != len(blob):
        raise ValueError(f"{path}: {len(blob) - end} trailing bytes")
    return arr


def save(arr, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps(arr))


def load_container(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CONTAINER_MAGIC:
        raise ValueError(f"{path}: not a GTT container")
    (count,) = struct.unpack_from("<I", blob, 4)
    sections, offset = {}, 8
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2:offset + 2 + name_len].decode("utf-8")
        sections[name], offset = loads(blob, offset + 2 + name_len)
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after the last section")
    return sections


def read_stream(stream) -> np.ndarray | None:
    """Read the next tensor from a binary stream; ``None`` at a clean EOF."""
    head = stream.read(6)
    if not head:
        return None
    if len(head) < 6 or head[:4] != MAGIC:
        raise ValueError("bad GTT header on stream")
    rank = head[5]
    dims = stream.read(8 * rank)
    shape = struct.unpack(f"<{rank}Q", dims)
    payload = stream.read(8 * int(np.prod(shape)))
    arr, _ = loads(head + dims + payload)
    return arr
