"""Deterministic, splittable random number streams.

Every stochastic operation in the package draws from an :class:`RngStream`
value. Streams are derived, never mutated, so parallel work that derives one
stream per task is bit-identical to a serial run regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
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

    def generator(self, reuse: np.random.Generator | None = None) -> np.random.Generator:
        """A Philox generator keyed on both fields, at the start of its stream.

        Given ``reuse``, a Philox-backed generator, re-key it in place and
        return it instead of building a new one. Philox is counter-based: a
        new key with a zero counter and an empty buffer gives the same bits
        as a new generator, at a lower cost per draw.
        """
        key = np.array([self.stream_id & _MASK, self.master_seed & _MASK], dtype=np.uint64)
        if reuse is None:
            return np.random.Generator(np.random.Philox(key=key))
        reuse.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        return reuse


def standard_normal(streams, keys, size: int) -> np.ndarray:
    """Standard normal draws, shape [len(streams), len(keys), size].

    Entry (b, k) is drawn from ``streams[b].derive(keys[k])``, so a draw is
    named by its (row stream, key) pair and never depends on which other rows
    or keys are drawn alongside it. One generator is re-keyed for every draw.
    """
    out = np.empty((len(streams), len(keys), size))
    gen = None
    for b, stream in enumerate(streams):
        for k, key in enumerate(keys):
            gen = stream.derive(int(key)).generator(gen)
            gen.standard_normal(size, out=out[b, k])
    return out
