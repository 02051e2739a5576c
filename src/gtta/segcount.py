"""Counting objects by eroding segmentation maps.

The predicted map is thresholded, eroded by a square to break thin bridges
(in one pass, however many iterations are asked for), and the surviving
connected components are counted. Components are labeled
by a run-based two-scan (He, Chao and Suzuki 2008) that works on the
foreground runs of each row rather than on pixels, and numbers them in
raster order of their first pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError


def erode(mask, side: int, iterations: int) -> np.ndarray:
    """Erosion by a ``side`` x ``side`` square with zero padding, ``iterations`` times.

    Erosions chain by dilating their elements (Serra 1982), so t erosions by a
    square of half-width r are one erosion by the square of half-width t*r. A
    square erodes as a row window and then a column window, in one pass for any
    ``iterations``; a square wider than the mask's smaller side erodes it all.
    """
    if side < 1 or side % 2 == 0:
        raise ParamError(f"element side must be a positive odd number, got {side}")
    if iterations < 1:
        raise ParamError(f"iterations must be >= 1, got {iterations}")
    grid = np.asarray(mask).astype(bool)
    h, w = grid.shape
    r = iterations * (side // 2)
    if 2 * r + 1 > min(h, w):
        return np.zeros((h, w), dtype=bool)
    padded = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
    padded[r : r + h, r : r + w] = grid
    rows = np.ones((h + 2 * r, w), dtype=bool)
    for dj in range(2 * r + 1):
        rows &= padded[:, dj : dj + w]
    out = np.ones((h, w), dtype=bool)
    for di in range(2 * r + 1):
        out &= rows[di : di + h]
    return out


def label_components(mask, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected foreground components 1..K with a run-based two-scan.

    The first scan finds each row's foreground runs and joins every run to
    the runs of the row above that touch it (widened by one pixel on each
    side for 8-connectivity) in a union-find over run indices whose root is
    always the smaller index. The second scan numbers each component by its
    root run and paints the labels back. Runs are indexed in raster order, so
    components are numbered in raster order of their first pixel. See He,
    Chao and Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP
    17(5), 2008. Returns the label grid and K. Connectivity is 4 or 8.
    """
    if connectivity not in (4, 8):
        raise ParamError(f"connectivity must be 4 or 8, got {connectivity}")
    grid = np.asarray(mask).astype(bool)
    h, w = grid.shape
    stride = w + 2
    padded = np.zeros((h, stride), dtype=np.int8)
    padded[:, 1:-1] = grid
    edges = np.diff(padded, axis=1)
    row, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1]  # one past the run's last pixel
    # Keyed by row * stride + column, the runs of the row above that touch a
    # run are the slice [lo, hi); the searches never leave that row.
    reach = int(connectivity == 8)
    above = (row - 1) * stride
    lo = np.searchsorted(row * stride + end, above + start - reach, side="right")
    hi = np.searchsorted(row * stride + start, above + end + reach, side="left")
    touching = hi - lo
    upper = np.repeat(lo - np.cumsum(touching) + touching, touching) + np.arange(touching.sum())
    lower = np.repeat(np.arange(row.size), touching)

    parent = list(range(row.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joined = []
    for a, b in zip(upper.tolist(), lower.tolist()):
        ra, rb = sorted((find(a), find(b)))
        if ra != rb:
            joined.append(rb)
            parent[rb] = ra
    # In ascending order, a joined run's parent is a root or already points at one.
    for r in sorted(joined):
        parent[r] = parent[parent[r]]
    root = np.asarray(parent, dtype=np.int64)
    is_root = root == np.arange(row.size)
    labels = np.zeros((h, w), dtype=np.int64)
    labels[grid] = np.repeat(np.cumsum(is_root)[root], end - start)
    return labels, int(is_root.sum())


@dataclass(frozen=True)
class CountResult:
    count: int
    areas: list[int]


def count(seg_prob, threshold: float, side: int, iterations: int, *,
          min_area: int = 4, connectivity: int = 8) -> CountResult:
    """Threshold, erode, drop specks, count components."""
    if not 0 < threshold < 1:
        raise ParamError(f"threshold must lie in (0, 1), got {threshold}")
    if min_area < 0:
        raise ParamError(f"min_area must be >= 0, got {min_area}")
    binary = np.asarray(seg_prob) > threshold
    eroded = erode(binary, side, iterations)
    labels, k = label_components(eroded, connectivity=connectivity)
    area = np.bincount(labels.ravel(), minlength=k + 1)
    keep = area >= min_area
    keep[0] = False
    areas = area[keep].tolist()
    return CountResult(count=len(areas), areas=areas)


def evaluate_counting(predicted, truth) -> float:
    """Mean absolute count error."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise DataError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.mean(np.abs(predicted - truth)))
