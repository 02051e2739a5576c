import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtta.errors import DataError, FormatError, ParamError, ShapeError
from gtta.rng import RngStream
from gtta.subspace import (
    Subspace,
    fit,
    load_subspace,
    project,
    reconstruct,
    save_subspace,
)


def gram_oracle(X):
    """Eigendecomposition of the d x d sample covariance, the slow route."""
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order].T


def test_single_axis_variance():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    s = fit(X, "all")
    assert np.allclose(s.mean, [0.0, 0.0])
    assert np.allclose(np.abs(s.components[0]), [1.0, 0.0])
    assert s.components[0][0] == 1.0  # sign convention
    assert s.variance_ratios[0] == pytest.approx(1.0)


def test_matches_gram_oracle():
    for seed in range(10):
        gen = RngStream(seed).generator()
        n, d = int(gen.integers(4, 20)), int(gen.integers(2, 12))
        X = gen.standard_normal((n, d))
        s = fit(X, "all")
        evals, evecs = gram_oracle(X)
        rank = s.n_u
        total = evals.sum()
        assert np.allclose(s.variance_ratios, evals[:rank] / total, atol=1e-8)
        for i in range(rank):
            if s.variance_ratios[i] < 1e-9:
                continue  # eigenvectors of near-null eigenvalues are arbitrary
            dot = abs(np.dot(s.components[i], evecs[i]))
            assert dot == pytest.approx(1.0, abs=1e-8)


def _matrix_with_ratios(ratios, n, d, seed):
    """Centered data whose covariance eigenvalue ratios are exactly `ratios`."""
    gen = RngStream(seed).generator()
    k = len(ratios)
    left = gen.standard_normal((n, k))
    left -= left.mean(axis=0)          # keep the matrix centered
    left, _ = np.linalg.qr(left)
    right, _ = np.linalg.qr(gen.standard_normal((d, k)))
    svals = np.sqrt(np.asarray(ratios))
    return (left * svals) @ right.T


def test_retain_fraction_boundary():
    X = _matrix_with_ratios([0.6, 0.35, 0.05], n=8, d=5, seed=3)
    s = fit(X, 0.99)
    assert s.n_u == 3
    assert fit(X, 0.95).n_u == 2
    assert fit(X, 0.5).n_u == 1


def test_retain_count_and_all():
    X = RngStream(5).generator().standard_normal((6, 10))
    assert fit(X, 2).n_u == 2
    assert fit(X, "all").n_u == 5  # min(n - 1, d)
    with pytest.raises(ParamError):
        fit(X, 9)
    with pytest.raises(ParamError):
        fit(X, 0)
    with pytest.raises(ParamError):
        fit(X, 0.0)
    with pytest.raises(ParamError):
        fit(X, 1.5)
    with pytest.raises(ParamError):
        fit(X, "most")


def test_too_few_rows():
    with pytest.raises(DataError):
        fit(np.ones((1, 4)), "all")


def test_project_centering():
    X = RngStream(6).generator().standard_normal((8, 4))
    s = fit(X, "all")
    assert np.allclose(project(s, s.mean), 0.0, atol=1e-12)


def test_project_is_dot_product():
    s = Subspace(
        mean=np.zeros(2),
        components=np.array([[1.0, 0.0]]),
        variance_ratios=np.array([1.0]),
        ranges=np.array([1.0]),
    )
    assert project(s, np.array([2.0, 0.0]))[0] == 2.0


def test_full_rank_round_trip():
    gen = RngStream(7).generator()
    X = gen.standard_normal((12, 6))
    s = fit(X, "all")
    x = gen.standard_normal(6)
    assert np.abs(reconstruct(s, project(s, x)) - x).max() < 1e-8


def test_reconstruct_zero_coordinates_is_mean():
    X = RngStream(8).generator().standard_normal((9, 4))
    s = fit(X, "all")
    assert np.array_equal(reconstruct(s, np.zeros(s.n_u)), s.mean)
    assert np.array_equal(reconstruct(s, np.zeros((3, s.n_u))), np.tile(s.mean, (3, 1)))


def test_truncation_error_is_discarded_projection():
    gen = RngStream(9).generator()
    X = gen.standard_normal((20, 8))
    x = gen.standard_normal(8)
    full = fit(X, "all")
    coords = project(full, x)
    for k in (2, 4, 6):
        small = fit(X, k)
        err = np.linalg.norm(reconstruct(small, project(small, x)) - x)
        # discarded = coordinates beyond k plus the out-of-span residual
        recon_full = reconstruct(full, coords)
        discarded = np.sqrt(
            np.sum(coords[k:] ** 2) + np.sum((x - recon_full) ** 2)
        )
        assert err == pytest.approx(discarded, abs=1e-8)


def test_reconstruction_error_nonincreasing_in_rank():
    gen = RngStream(10).generator()
    X = gen.standard_normal((16, 10))
    x = gen.standard_normal(10)
    errs = []
    for k in range(1, 10):
        s = fit(X, k)
        errs.append(np.linalg.norm(reconstruct(s, project(s, x)) - x))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), d=st.integers(2, 8))
def test_components_always_orthonormal(seed, n, d):
    X = RngStream(seed).generator().standard_normal((n, d))
    s = fit(X, "all")
    gram = s.components @ s.components.T
    assert np.abs(gram - np.eye(s.n_u)).max() < 1e-8


def test_shape_errors():
    X = RngStream(11).generator().standard_normal((6, 4))
    s = fit(X, "all")
    with pytest.raises(ShapeError):
        project(s, np.zeros(5))
    with pytest.raises(ShapeError):
        reconstruct(s, np.zeros(s.n_u + 1))
    with pytest.raises(ShapeError):
        reconstruct(s, np.zeros((2, 1, s.n_u)))


def test_save_load_round_trip(tmp_path):
    X = RngStream(12).generator().standard_normal((10, 5))
    s = fit(X, "all")
    path = tmp_path / "sub.gtt"
    save_subspace(s, path)
    back = load_subspace(path)
    assert np.array_equal(back.mean, s.mean)
    assert np.array_equal(back.components, s.components)
    assert np.array_equal(back.variance_ratios, s.variance_ratios)
    assert np.array_equal(back.ranges, s.ranges)
    gram = back.components @ back.components.T
    assert np.abs(gram - np.eye(back.n_u)).max() < 1e-8


def test_load_corrupted_header(tmp_path):
    path = tmp_path / "sub.gtt"
    X = RngStream(13).generator().standard_normal((6, 3))
    save_subspace(fit(X, "all"), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"WHAT"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_subspace(path)


def test_gram_path_matches_svd_path():
    gen = RngStream(15).generator()
    X = gen.standard_normal((5, 40))  # wide: d >> n
    s = fit(X, "all")
    assert s.n_u == 4
    gram = s.components @ s.components.T
    assert np.abs(gram - np.eye(4)).max() < 1e-8
    evals, _ = gram_oracle(X)
    assert np.allclose(s.variance_ratios, evals[:4] / evals.sum(), atol=1e-8)


# Six rank-1 rows with d = 40 > 4n, a wide fit; "all" keeps four dead
# components whose singular values are rounding noise, and the one live ratio
# may round to just above 1.
RANK1 = np.ones((6, 40))
RANK1[:3] += np.arange(40)


@pytest.mark.parametrize("X", [
    RngStream(16).generator().standard_normal((30, 8)),
    RngStream(16).generator().standard_normal((6, 40)),
    np.repeat(np.arange(12.0)[:, None], 8, axis=1),
    RANK1,
], ids=["svd", "gram", "svd-rank1", "gram-rank1"])
@pytest.mark.parametrize("retain", [0.99, "all", 3])
def test_fit_output_passes_load_checks(tmp_path, X, retain):
    s = fit(X, retain)
    save_subspace(s, tmp_path / "s.gtt")
    back = load_subspace(tmp_path / "s.gtt")
    assert np.array_equal(back.components, s.components)


def test_gram_path_dead_components_are_zero_rows():
    s = fit(RANK1, "all")
    norms = np.linalg.norm(s.components, axis=1)
    assert s.dead.tolist() == [False, True, True, True, True]
    assert np.abs(norms - 1).max() < 1e-12
    gen = RngStream(17).generator()
    for x in (gen.standard_normal(40), 100 * gen.standard_normal(40)):
        assert np.linalg.norm(reconstruct(s, project(s, x)) - s.mean) <= np.linalg.norm(x - s.mean)


def test_zero_dead_row_of_an_earlier_file_loads(tmp_path):
    # Earlier versions wrote zero rows for the dead components of wide fits.
    s = fit(RANK1, "all")
    save_subspace(Subspace(s.mean, np.r_[s.components[:1], np.zeros((4, 40))],
                           s.variance_ratios, s.ranges), tmp_path / "s.gtt")
    back = load_subspace(tmp_path / "s.gtt")
    assert back.dead.tolist() == [False, True, True, True, True]
    assert not back.components[1:].any()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16), n=st.integers(2, 24), d=st.integers(1, 160))
def test_fit_of_any_shape_and_rank_loads_with_unit_rows(tmp_path_factory, data, seed, n, d):
    # From tall to d >> n, down to rank 1; dead rows must be unit rows too.
    rank = data.draw(st.integers(1, min(n, d)), label="rank")
    retain = data.draw(st.one_of(st.floats(0.05, 1.0), st.integers(1, min(n - 1, d)),
                                 st.just("all")), label="retain")
    gen = RngStream(seed).generator()
    X = gen.standard_normal((n, rank)) @ gen.standard_normal((rank, d))
    path = tmp_path_factory.mktemp("fit") / "s.gtt"
    save_subspace(fit(X, retain), path)
    s = load_subspace(path)
    assert np.abs(s.components @ s.components.T - np.eye(s.n_u)).max() < 1e-12
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (n - 1)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.abs(s.variance_ratios * np.trace(cov) - evals[:s.n_u]).max() < 1e-8
