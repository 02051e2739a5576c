"""Deterministic, splittable random number streams.

Every stochastic operation in the package draws from an :class:`RngStream`
value. Streams are derived, never mutated, so parallel work that derives one
stream per task is bit-identical to a serial run regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(z):
    """One SplitMix64 step of a Python int, or of every entry of a uint64 array, which wraps."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A (master_seed, stream_id) pair naming one independent random stream."""

    master_seed: int
    stream_id: int = 0

    def derive(self, key: int) -> "RngStream":
        """Child stream for subtask ``key``; distinct keys give independent streams."""
        mixed = _splitmix64((self.stream_id ^ _splitmix64(key & _MASK)) & _MASK)
        return RngStream(self.master_seed, mixed)

    def rows(self, n: int) -> list:
        """One child stream per input row: ``derive(0)`` to ``derive(n - 1)``."""
        return [self.derive(i) for i in range(n)]

    def generator(self) -> np.random.Generator:
        """A Philox generator keyed on both fields, at the start of its stream."""
        key = np.array([self.stream_id & _MASK, self.master_seed & _MASK], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _derived_ids(streams, keys) -> np.ndarray:
    """The [len(streams), len(keys)] uint64 ids of ``streams[b].derive(keys[k])``, all at once."""
    ids = np.array([stream.stream_id & _MASK for stream in streams], dtype=np.uint64)
    mixed = _splitmix64(np.array([int(key) & _MASK for key in keys], dtype=np.uint64))
    return _splitmix64(ids[:, None] ^ mixed)


def standard_normal(streams, keys, size: int) -> np.ndarray:
    """Standard normal draws, shape [len(streams), len(keys), size].

    Entry (b, k) is drawn from ``streams[b].derive(keys[k])``, so a draw is
    named by its (row stream, key) pair and never depends on which other rows
    or keys are drawn alongside it. One Philox generator is re-keyed for
    every draw: Philox is counter-based, so a new key with a zero counter and
    an empty buffer gives the same bits as a new generator, at a lower cost.
    """
    out = np.empty((len(streams), len(keys), size))
    if not out.size:
        return out
    ids = _derived_ids(streams, keys)
    gen = RngStream(streams[0].master_seed, int(ids[0, 0])).generator()
    key = np.empty(2, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for b, stream in enumerate(streams):
        key[1] = stream.master_seed & _MASK
        for k in range(len(keys)):
            key[0] = ids[b, k]
            gen.bit_generator.state = state
            gen.standard_normal(size, out=out[b, k])
    return out
