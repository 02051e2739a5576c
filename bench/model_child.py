"""External per-pixel model for ``gtta predict --model-cmd``.

Usage: model_child.py HxW

Reads GTT tensors of shape [b, H*W] from stdin until EOF and answers each
with one [b, H, W] tensor of foreground probabilities on stdout. The model is
a fixed logistic threshold at 0.5, so its output is a pure function of its
input. Looping until EOF serves both a one-shot caller (one request per
process) and a persistent one (many requests per process).
"""

from __future__ import annotations

import sys

import numpy as np

import gtt

SHARPNESS = 10.0


def probabilities(batch: np.ndarray, height: int, width: int) -> np.ndarray:
    """Per-pixel foreground probability, in the logistic form that cannot overflow."""
    z = SHARPNESS * (np.asarray(batch, dtype=np.float64) - 0.5)
    return (0.5 * (1.0 + np.tanh(0.5 * z))).reshape(-1, height, width)


def main(argv) -> int:
    height, width = (int(v) for v in argv[1].lower().split("x"))
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while (batch := gtt.read_stream(stdin)) is not None:
        if batch.ndim != 2 or batch.shape[1] != height * width:
            print(f"expected [b, {height * width}] input, got {batch.shape}", file=sys.stderr)
            return 1
        stdout.write(gtt.dumps(probabilities(batch, height, width)))
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
