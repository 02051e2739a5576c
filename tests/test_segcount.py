import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gtta.errors import DataError, ParamError
from gtta.rng import RngStream
from gtta.segcount import (
    CountResult,
    count,
    erode,
    evaluate_counting,
    label_components,
)


def erosion_oracle(mask, side, iterations):
    """Brute-force double loop over a square, one erosion per iteration, no shifting tricks."""
    mask = np.asarray(mask).astype(bool)
    h, w = mask.shape
    c = side // 2
    out = mask.copy()
    for _ in range(iterations):
        nxt = np.zeros_like(out)
        for i in range(h):
            for j in range(w):
                keep = True
                for di in range(side):
                    for dj in range(side):
                        ni, nj = i + di - c, j + dj - c
                        inside = 0 <= ni < h and 0 <= nj < w
                        if not (inside and out[ni, nj]):
                            keep = False
                            break
                    if not keep:
                        break
                nxt[i, j] = keep
        out = nxt
    return out


def flood_fill_labels(mask, connectivity):
    """Stack-based flood fill, independent of the run-based labeling.

    Seeds are taken in raster order, so components are numbered 1..K in
    raster order of their first pixel.
    """
    mask = np.asarray(mask).astype(bool)
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    if connectivity == 4:
        neigh = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        neigh = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    comps = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or labels[i, j]:
                continue
            comps += 1
            stack = [(i, j)]
            labels[i, j] = comps
            while stack:
                ci, cj = stack.pop()
                for di, dj in neigh:
                    ni, nj = ci + di, cj + dj
                    if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] and not labels[ni, nj]:
                        labels[ni, nj] = comps
                        stack.append((ni, nj))
    return labels


def flood_fill_oracle(mask, connectivity):
    """Number of components found by the flood fill."""
    return int(flood_fill_labels(mask, connectivity).max(initial=0))


def test_solid_square_erodes_to_interior():
    mask = np.zeros((7, 7), dtype=bool)
    mask[1:6, 1:6] = True
    out = erode(mask, 3, 1)
    expected = np.zeros((7, 7), dtype=bool)
    expected[2:5, 2:5] = True
    assert np.array_equal(out, expected)


def test_single_cell_element_is_identity():
    gen = RngStream(0).generator()
    mask = gen.random((9, 9)) > 0.5
    out = erode(mask, 1, 1)
    assert np.array_equal(out, mask)


def test_thin_mask_vanishes():
    mask = np.zeros((6, 8), dtype=bool)
    mask[3] = True  # one pixel thick
    assert not erode(mask, 3, 1).any()


def test_border_treated_as_background():
    mask = np.ones((4, 4), dtype=bool)
    out = erode(mask, 3, 1)
    expected = np.zeros((4, 4), dtype=bool)
    expected[1:3, 1:3] = True
    assert np.array_equal(out, expected)


def test_element_validation():
    mask = np.ones((5, 5), dtype=bool)
    for side in (2, 0, -3):
        with pytest.raises(ParamError, match=f"^element side must be a positive odd number, got {side}$"):
            erode(mask, side, 1)
    with pytest.raises(ParamError, match="^iterations must be >= 1, got 0$"):
        erode(mask, 3, 0)


@pytest.mark.parametrize("side", [1, 3], ids=["side-1", "side-3"])
def test_erosion_stops_once_nothing_changes(side):
    mask = RngStream(12).generator().random((11, 17)) > 0.15
    start = time.perf_counter()
    out = erode(mask, side, 10**9)
    assert time.perf_counter() - start < 5.0
    assert np.array_equal(out, erosion_oracle(mask, side, max(mask.shape) + 1))


@settings(max_examples=60, deadline=None)
@given(
    mask=st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
        lambda shape: arrays(bool, shape, elements=st.booleans())),
    side=st.sampled_from([1, 3, 5, 7]),
    iters=st.integers(1, 6),
)
@example(mask=np.ones((16, 16), dtype=bool), side=7, iters=2)  # a 4x4 core survives
@example(mask=np.ones((5, 16), dtype=bool), side=5, iters=1)   # the square just fits
@example(mask=np.ones((4, 16), dtype=bool), side=5, iters=1)   # one row too narrow
def test_erosion_matches_oracle_and_is_antiextensive(mask, side, iters):
    out = erode(mask, side, iters)
    assert np.array_equal(out, erosion_oracle(mask, side, iters))
    assert not (out & ~mask).any()  # anti-extensive


@settings(max_examples=25, deadline=None)
@given(
    a=arrays(bool, (7, 7), elements=st.booleans()),
    b=arrays(bool, (7, 7), elements=st.booleans()),
)
def test_erosion_monotone(a, b):
    small = a & b
    big = a | b
    assert not (erode(small, 3, 1) & ~erode(big, 3, 1)).any()


@pytest.mark.parametrize("connectivity", [4, 8])
def test_labeling_matches_flood_fill(connectivity):
    for seed in range(25):
        gen = RngStream(seed).generator()
        h, w = int(gen.integers(3, 30)), int(gen.integers(3, 30))
        mask = gen.random((h, w)) > 0.6
        _, k, _ = label_components(mask, connectivity=connectivity)
        assert k == flood_fill_oracle(mask, connectivity)


@st.composite
def label_cases(draw):
    """A 0/1 grid, drawn random or from a fixed pattern, stored in some dtype and layout."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pattern = draw(st.sampled_from(["random", "ones", "zeros", "checker"]))
    if pattern == "random":
        grid = draw(arrays(bool, (h, w), elements=st.booleans()))
    elif pattern == "checker":  # every component touches the next one only diagonally
        grid = (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(bool)
    else:
        grid = np.full((h, w), pattern == "ones")
    dtype = draw(st.sampled_from([bool, np.int32, np.float64]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    return grid, _stored(grid.astype(dtype), layout), draw(st.sampled_from([4, 8]))


def _stored(grid, layout):
    if layout == "F":
        return np.asfortranarray(grid)
    if layout == "C":
        return np.ascontiguousarray(grid)
    h, w = grid.shape
    base = np.full((2 * h, 2 * w), 7, dtype=grid.dtype)  # junk between the viewed cells
    base[::2, ::-2] = grid
    return base[::2, ::-2]


CHECKER = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)


@settings(max_examples=150, deadline=None)
@given(case=label_cases())
@example(case=(np.ones((1, 9), bool), np.ones((1, 9), np.int32), 4))
@example(case=(np.zeros((7, 1), bool), np.zeros((7, 1), np.float64), 8))
@example(case=(np.ones((5, 6), bool), np.ones((5, 6), np.float64, order="F"), 8))
@example(case=(np.zeros((4, 5), bool), _stored(np.zeros((4, 5), np.int32), "strided"), 4))
@example(case=(CHECKER, _stored(CHECKER.astype(np.float64), "strided"), 4))
@example(case=(CHECKER, np.asfortranarray(CHECKER.astype(np.int32)), 8))
def test_label_grid_matches_flood_fill_numbering(case):
    grid, stored, connectivity = case
    assert np.array_equal(stored, grid)
    labels, k, _ = label_components(stored, connectivity=connectivity)
    expected = flood_fill_labels(grid, connectivity)
    assert labels.shape == grid.shape
    assert np.array_equal(labels, expected)
    assert k == int(expected.max(initial=0))


EDGE_CASES = [
    (np.ones((1, 9), bool), 0),
    (np.zeros((7, 1), bool), 0),
    (np.ones((5, 6), bool), 4),
    (np.zeros((4, 5), bool), 1),
    (CHECKER, 1),
    (CHECKER, 2),
]


def _edge_examples(test):
    """Each of EDGE_CASES under both connectivities, as an explicit example."""
    for grid, min_area in EDGE_CASES:
        for connectivity in (4, 8):
            test = example(case=(grid, grid, connectivity), min_area=min_area)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(case=label_cases(), min_area=st.integers(0, 8))
@_edge_examples
def test_count_areas_are_the_label_grid_areas(case, min_area):
    # Erosion by a 1x1 square keeps the map, so count labels the grid itself.
    grid, _, connectivity = case
    labels, k, areas = label_components(grid, connectivity=connectivity)
    area = np.bincount(labels.ravel(), minlength=k + 1)[1:]
    assert areas.tolist() == area.tolist()
    result = count(grid.astype(np.float64), 0.5, 1, 1, min_area=min_area,
                   connectivity=connectivity)
    assert result.areas == area[area >= min_area].tolist()
    assert result.count == len(result.areas)


def test_labels_are_contiguous_ids():
    mask = np.array([
        [1, 0, 1],
        [0, 0, 0],
        [1, 0, 1],
    ], dtype=bool)
    labels, k, _ = label_components(mask, connectivity=4)
    assert k == 4
    assert sorted(np.unique(labels).tolist()) == [0, 1, 2, 3, 4]


def test_diagonal_connectivity_difference():
    mask = np.array([[1, 0], [0, 1]], dtype=bool)
    assert label_components(mask, connectivity=4)[1] == 2
    assert label_components(mask, connectivity=8)[1] == 1


def test_count_two_blobs():
    prob = np.zeros((9, 18))
    prob[1:8, 1:8] = 0.9
    prob[1:8, 10:17] = 0.9
    result = count(prob, 0.5, 3, 1, min_area=1)
    assert result.count == 2
    assert result.areas == [25, 25]


def test_count_empty_map():
    result = count(np.zeros((6, 6)), 0.5, 3, 1)
    assert result.count == 0
    assert result.areas == []


def test_bridge_is_cut_by_erosion():
    prob = np.zeros((11, 25))
    prob[1:10, 1:10] = 0.9
    prob[1:10, 15:24] = 0.9
    prob[5, 10:15] = 0.9  # one-pixel bridge
    assert flood_fill_oracle(prob > 0.5, 8) == 1
    result = count(prob, 0.5, 3, 1, min_area=1)
    assert result.count == 2


def test_min_area_drops_specks():
    prob = np.zeros((12, 12))
    prob[1:8, 1:8] = 0.9   # survives erosion with a large core
    prob[9:12, 9:12] = 0.9  # erodes to a single pixel
    relaxed = count(prob, 0.5, 3, 1, min_area=1)
    strict = count(prob, 0.5, 3, 1, min_area=4)
    assert relaxed.count == 2
    assert strict.count == 1
    assert relaxed.areas == [25, 1]
    assert strict.areas == [25]


def test_count_translation_invariant():
    gen = RngStream(3).generator()
    base = gen.random((10, 10)) > 0.55
    padded = np.zeros((20, 20))
    shifted = np.zeros((20, 20))
    padded[2:12, 2:12] = base
    shifted[7:17, 5:15] = base
    for conn in (4, 8):
        a = count(padded, 0.5, 3, 1, min_area=1, connectivity=conn)
        b = count(shifted, 0.5, 3, 1, min_area=1, connectivity=conn)
        assert a.count == b.count
        assert sorted(a.areas) == sorted(b.areas)


def test_count_threshold_validation():
    with pytest.raises(ParamError):
        count(np.zeros((3, 3)), 0.0, 3, 1)
    with pytest.raises(ParamError):
        count(np.zeros((3, 3)), 1.0, 3, 1)


def test_count_result_invariant():
    prob = np.zeros((9, 9))
    prob[1:8, 1:8] = 1.0
    result = count(prob, 0.5, 3, 1, min_area=1)
    assert isinstance(result, CountResult)
    assert result.count == len(result.areas)


def test_mae_values():
    assert evaluate_counting([3, 5], [3, 5]) == 0.0
    assert evaluate_counting([4, 3], [3, 5]) == pytest.approx(1.5)
    with pytest.raises(DataError):
        evaluate_counting([1, 2], [1])
