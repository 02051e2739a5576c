"""Independent numpy references the benchmark checks the program's outputs against.

They follow the documented contracts, not the package's code paths:

* candidate j of input row i draws its noise from the Philox stream keyed on
  ``(seed, derive(derive(0, i), j))`` (``RngStream(seed, 0).derive(i).derive(j)``);
* constant-strategy noise std along component k is
  ``range_k * sigma / max(var_k, 1e-6)``, zero for near-zero-variance components;
* a candidate is ``mean + (project(x) + noise) @ components``; the ensemble
  output is the mean and the population std over the N model outputs;
* segmentation sigma selection maximizes the number of pixels whose mean lies
  above the cutoff or below one minus it, ties to the smaller sigma;
* counting thresholds, erodes with a zero-padded square, labels 8-connected
  components and drops those below the minimum area.

A batched engine may sum in another order, so ensembles compare within
``ENSEMBLE_TOL``; counts and areas compare exactly.
"""

from __future__ import annotations

import numpy as np

import gtt

MASK = (1 << 64) - 1
VAR_FLOOR = 1e-6
DEAD_RATIO = 1e-12
ENSEMBLE_TOL = 1e-9


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def derive(stream_id: int, key: int) -> int:
    return _splitmix64((stream_id ^ _splitmix64(key & MASK)) & MASK)


def standard_normal(seed: int, stream_id: int, n: int) -> np.ndarray:
    key = ((seed & MASK) << 64) | (stream_id & MASK)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


class Subspace:
    def __init__(self, path):
        sections = gtt.load_container(path)
        self.mean = sections["mean"].reshape(-1)
        self.components = sections["components"]
        self.ratios = sections["variance_ratios"].reshape(-1)
        self.ranges = sections["ranges"].reshape(-1)
        self.dead = self.ratios < DEAD_RATIO


def mlp(path):
    """The checkpointed ReLU MLP with a per-pixel logistic head, as a function."""
    sections = gtt.load_container(path)
    layers = sum(1 for name in sections if name.startswith("w"))
    weights = [sections[f"w{i}"] for i in range(layers)]
    biases = [sections[f"b{i}"].reshape(-1) for i in range(layers)]

    def predict(batch):
        z = np.asarray(batch, dtype=np.float64)
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = z @ w + b
            if i < layers - 1:
                z = np.maximum(z, 0.0)
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    return predict


def ensemble(predict, s: Subspace, x, seed: int, row: int, sigma: float, n: int):
    """Mean and population std of the N-candidate ensemble for input row ``row``."""
    p = s.components @ (np.asarray(x, dtype=np.float64) - s.mean)
    sig = s.ranges * sigma / np.maximum(s.ratios, VAR_FLOOR)
    sig[s.dead] = 0.0
    row_stream = derive(0, row)
    latents = np.empty((n, p.size))
    for j in range(1, n + 1):
        noise = sig * standard_normal(seed, derive(row_stream, j), p.size) if np.any(sig > 0) else 0.0
        latents[j - 1] = p + noise
    outputs = np.asarray(predict(s.mean + latents @ s.components))
    return outputs.mean(axis=0), outputs.std(axis=0)


def select_sigma(predict, s, x, seed, row, grid, n, cutoff):
    """(sigma, mean, std) of the most confident grid point for input row ``row``."""
    best = None
    for sigma in grid:
        mean, std = ensemble(predict, s, x, seed, row, sigma, n)
        score = int(np.count_nonzero((mean > cutoff) | (mean < 1 - cutoff)))
        if best is None or score > best[0]:
            best = (score, float(sigma), mean, std)
    return best[1:]


# --------------------------------------------------------------------------
# counting


_NEIGHBORS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def _shift(a, di, dj, fill):
    """``out[i, j] = a[i + di, j + dj]``, ``fill`` outside the grid."""
    h, w = a.shape
    out = np.full_like(a, fill)
    out[max(0, -di):h - max(0, di), max(0, -dj):w - max(0, dj)] = \
        a[max(0, di):h - max(0, -di), max(0, dj):w - max(0, -dj)]
    return out


def erode(mask, side: int, iterations: int):
    r = side // 2
    for _ in range(iterations):
        out = mask.copy()
        for di in range(-r, r + 1):
            for dj in range(-r, r + 1):
                out &= _shift(mask, di, dj, False)
        mask = out
    return mask


def component_areas(mask) -> list[int]:
    """Areas of the 8-connected components, in raster order of their first pixel.

    Every pixel starts with its own raster index and repeatedly takes the
    smallest label among its neighbors, then the label of the pixel its label
    names (pointer jumping), so a component ends labeled by its first pixel.
    """
    big = mask.size
    labels = np.where(mask, np.arange(big).reshape(mask.shape), big)
    while True:
        low = labels
        for di, dj in _NEIGHBORS:
            low = np.minimum(low, _shift(labels, di, dj, big))
        low = np.where(mask, low, big)
        low = np.append(low.ravel(), big)[low]
        if np.array_equal(low, labels):
            break
        labels = low
    _, areas = np.unique(labels[mask], return_counts=True)
    return [int(a) for a in areas]


def count(prob, threshold=0.5, side=3, iterations=1, min_area=4):
    """(count, areas) of the components that survive erosion and the area filter."""
    areas = [a for a in component_areas(erode(np.asarray(prob) > threshold, side, iterations))
             if a >= min_area]
    return len(areas), areas
