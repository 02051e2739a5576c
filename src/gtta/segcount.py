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


def label_components(mask, connectivity: int = 8) -> tuple[np.ndarray, int, np.ndarray]:
    """Label connected foreground components 1..K with a run-based two-scan.

    The first scan finds each row's foreground runs and joins every run to
    the runs of the row above that touch it (widened by one pixel on each
    side for 8-connectivity) in a union-find over run indices whose root is
    always the smaller index. The second scan numbers each component by its
    root run and paints the labels back. Runs are indexed in raster order, so
    components are numbered in raster order of their first pixel. See He,
    Chao and Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP
    17(5), 2008. Returns the label grid, K and the K components' areas in
    pixels, summed from their runs. Connectivity is 4 or 8.
    """
    if connectivity not in (4, 8):
        raise ParamError(f"connectivity must be 4 or 8, got {connectivity}")
    grid = np.asarray(mask).astype(bool)
    h, w = grid.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = grid
    # Each row is zero-padded, so its edges alternate between a run's start
    # and one past its end, and so do all edges in raster order. A run is
    # keyed by the flat indices of its two edges in the [h, w + 1] edge map.
    stride = w + 1
    start, end = np.flatnonzero(np.diff(padded, axis=1)).reshape(-1, 2).T
    # A key less the stride is the same column in the row above, whose runs
    # that touch a run are the slice [lo, hi); the searches never leave that row.
    reach = int(connectivity == 8)
    lo = np.searchsorted(end, start - stride - reach, side="right")
    hi = np.searchsorted(start, end - stride + reach, side="left")
    touching = hi - lo
    upper = np.repeat(lo - np.cumsum(touching) + touching, touching) + np.arange(touching.sum())
    lower = np.repeat(np.arange(start.size), touching)

    parent = list(range(start.size))

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
    is_root = root == np.arange(start.size)
    label, length = np.cumsum(is_root)[root], end - start
    k = int(is_root.sum())
    labels = np.zeros((h, w), dtype=np.int64)
    labels[grid] = np.repeat(label, length)
    areas = np.bincount(label, weights=length, minlength=k + 1)[1:].astype(np.int64)
    return labels, k, areas


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
    _, _, area = label_components(eroded, connectivity=connectivity)
    areas = area[area >= min_area].tolist()
    return CountResult(count=len(areas), areas=areas)


def evaluate_counting(predicted, truth) -> float:
    """Mean absolute count error."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise DataError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.mean(np.abs(predicted - truth)))
