from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gtta.errors import DataError, ParamError, ShapeError
from gtta.perturb import (
    NoiseSchedule,
    draw_latents,
    latent_candidates,
    latent_sample_covariance,
    make_candidates,
    per_component_sigma,
)
from gtta.rng import RngStream
from gtta.subspace import Subspace, fit, project, reconstruct


def toy_subspace(ranges, ratios):
    k = len(ranges)
    return Subspace(
        mean=np.zeros(k),
        components=np.eye(k),
        variance_ratios=np.asarray(ratios, dtype=np.float64),
        ranges=np.asarray(ranges, dtype=np.float64),
    )


def test_constant_formula():
    s = toy_subspace([2.0, 2.0], [0.5, 0.5])
    sched = NoiseSchedule("constant", 0.1, 4)
    sig = per_component_sigma(sched, s)
    assert sig[0, 0] == pytest.approx(0.4)
    assert np.array_equal(sig[0], sig[3])


def test_incremental_formula():
    s = toy_subspace([1.0, 1.0], [0.5, 0.5])
    sched = NoiseSchedule("incremental", 0.2, 4)
    assert np.array_equal(per_component_sigma(sched, s)[0], np.zeros(2))
    assert per_component_sigma(sched, s)[2, 0] == pytest.approx(0.2)


def test_one_sigma_row_per_candidate():
    s = toy_subspace([1.0, 2.0], [0.5, 0.5])
    assert per_component_sigma(NoiseSchedule("constant", 0.1, 3), s).shape == (3, 2)
    assert per_component_sigma(NoiseSchedule("incremental", 0.1, 5), s).shape == (5, 2)


def test_variance_floor_caps_noise():
    s = toy_subspace([1.0, 1.0], [1.0, 1e-9])
    sched = NoiseSchedule("constant", 0.1, 2)
    assert per_component_sigma(sched, s)[0, 1] == pytest.approx(0.1 / 1e-6)


def test_dead_components_get_no_noise():
    s = toy_subspace([1.0, 1.0], [1.0, 1e-15])
    sched = NoiseSchedule("constant", 0.1, 2)
    assert per_component_sigma(sched, s)[0, 1] == 0.0


def test_sigma_cap():
    s = toy_subspace([2.0], [0.01])
    sched = NoiseSchedule("constant", 0.5, 2, sigma_cap=1.0)
    assert per_component_sigma(sched, s)[0, 0] == pytest.approx(2.0)  # cap * range


def test_schedule_validation():
    with pytest.raises(ParamError):
        NoiseSchedule("linear", 0.1, 4)
    with pytest.raises(ParamError):
        NoiseSchedule("constant", -0.1, 4)
    with pytest.raises(ParamError):
        NoiseSchedule("constant", 0.1, 0)


def test_zero_sigma_full_rank_returns_input_exactly():
    X = RngStream(1).generator().standard_normal((12, 5))
    s = fit(X, "all")
    x = X[3]
    sig = per_component_sigma(NoiseSchedule("constant", 0.0, 4), s)
    cands = make_candidates(sig, s, draw_latents(sig, s, x[None], [RngStream(2)]))[0]
    for j in range(4):
        assert np.array_equal(cands[j], x)


def test_zero_sigma_truncated_is_projection_round_trip():
    X = RngStream(3).generator().standard_normal((12, 6))
    s = fit(X, 3)
    x = X[0]
    expected = reconstruct(s, project(s, x))
    sig = per_component_sigma(NoiseSchedule("constant", 0.0, 3), s)
    cands = make_candidates(sig, s, draw_latents(sig, s, x[None], [RngStream(4)]))[0]
    for j in range(3):
        assert np.array_equal(cands[j], expected)


def test_incremental_first_candidate_is_noiseless():
    X = RngStream(5).generator().standard_normal((10, 4))
    s = fit(X, 3)
    x = X[1]
    sig = per_component_sigma(NoiseSchedule("incremental", 0.3, 5), s)
    cands = make_candidates(sig, s, draw_latents(sig, s, x[None], [RngStream(6)]))[0]
    assert np.array_equal(cands[0], reconstruct(s, project(s, x)))
    assert not np.array_equal(cands[1], cands[0])


def test_latent_noise_std_matches_formula():
    # With 1e4 draws the sample std concentrates within 3% (about 4 se).
    X = RngStream(7).generator().standard_normal((40, 6))
    s = fit(X, "all")
    sched = NoiseSchedule("constant", 0.1, 10_000)
    target = per_component_sigma(sched, s)
    latents = latent_candidates(target, draw_latents(target, s, X[0][None], [RngStream(8)]))[0]
    target = target[0]
    sample_std = latents.std(axis=0, ddof=1)
    assert np.all(np.abs(sample_std - target) / target < 0.03)


def test_candidates_match_any_execution_order():
    X = RngStream(9).generator().standard_normal((10, 4))
    s = fit(X, "all")
    sched = NoiseSchedule("incremental", 0.2, 8)
    rng = RngStream(10, 3)
    sig = per_component_sigma(sched, s)
    serial_latents = latent_candidates(sig, draw_latents(sig, s, X[2][None], [rng]))[0]
    serial = make_candidates(sig, s, draw_latents(sig, s, X[2][None], [rng]))[0]

    def one(j):
        noise = sig[j - 1] * rng.derive(j).generator().standard_normal(s.n_u)
        return project(s, X[2]) + noise

    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(one, range(1, 9)))
    for j in range(8):
        # stream-per-candidate makes the draws identical bit for bit
        assert np.array_equal(serial_latents[j], parallel[j])
        assert np.allclose(serial[j], reconstruct(s, parallel[j]), atol=1e-12)


def test_incremental_distance_nondecreasing():
    X = RngStream(11).generator().standard_normal((14, 5))
    s = fit(X, "all")
    sched = NoiseSchedule("incremental", 0.2, 6)
    base = X[0]
    reps = 300
    sig = per_component_sigma(sched, s)
    draws = draw_latents(sig, s, np.tile(base, (reps, 1)), [RngStream(12).derive(r) for r in range(reps)])
    cands = make_candidates(sig, s, draws)
    dist = np.linalg.norm(cands - base, axis=2).mean(axis=0)
    assert all(b >= a - 1e-9 for a, b in zip(dist, dist[1:]))


def test_covariance_of_constant_rows_is_zero():
    latents = np.tile(np.array([1.0, 2.0, 3.0]), (50, 1))
    cov, eigs = latent_sample_covariance(latents)
    assert np.array_equal(cov, np.zeros((3, 3)))
    assert np.array_equal(eigs, np.zeros(3))


def test_covariance_needs_two_rows():
    with pytest.raises(DataError):
        latent_sample_covariance(np.ones((1, 3)))


def test_equal_noise_gives_diagonal_covariance():
    n, n_u, s_level = 10_000, 4, 0.3
    X = RngStream(13).generator().standard_normal((30, n_u))
    sub = fit(X, "all")
    flat = Subspace(
        mean=sub.mean,
        components=sub.components,
        variance_ratios=np.full(sub.n_u, 1.0 / sub.n_u),
        ranges=np.full(sub.n_u, s_level / (0.3 / (1.0 / sub.n_u))),
    )
    # ranges chosen so every per-component std equals s_level at sigma=0.3
    sched = NoiseSchedule("constant", 0.3, n)
    sig = per_component_sigma(sched, flat)
    latents = latent_candidates(sig, draw_latents(sig, flat, X[0][None], [RngStream(14)]))[0]
    cov, eigs = latent_sample_covariance(latents)
    se = s_level**2 / np.sqrt(n - 1)
    off = cov[~np.eye(n_u, dtype=bool)]
    assert np.abs(off).max() < 3 * se
    assert np.all(np.abs(np.diag(cov) - s_level**2) < 0.05 * s_level**2)
    assert np.all(np.abs(eigs - s_level**2) < 0.05 * s_level**2)


def test_two_component_eigenvalues():
    n = 10_000
    a, b = 0.5, 0.2
    s = Subspace(
        mean=np.zeros(2),
        components=np.eye(2),
        variance_ratios=np.array([0.5, 0.5]),
        ranges=np.array([a * 0.5 / 1.0, b * 0.5 / 1.0]),
    )
    # constant rule gives std (a, b) at sigma = 1.0 with var ratios 0.5
    sched = NoiseSchedule("constant", 1.0, n)
    sig = per_component_sigma(sched, s)
    assert np.allclose(sig[0], [a, b])
    latents = latent_candidates(sig, draw_latents(sig, s, np.zeros((1, 2)), [RngStream(15)]))[0]
    _, eigs = latent_sample_covariance(latents)
    assert abs(eigs[0] - a**2) < 0.05 * a**2
    assert abs(eigs[1] - b**2) < 0.05 * b**2


def test_decorrelation_on_random_subspaces():
    n = 10_000
    for seed in range(3):
        gen = RngStream(900 + seed).generator()
        X = gen.standard_normal((25, 5))
        s = fit(X, "all")
        sched = NoiseSchedule("constant", 0.05, n)
        target = per_component_sigma(sched, s)
        draws = draw_latents(target, s, X[0][None], [RngStream(1900 + seed)])
        latents = latent_candidates(target, draws)[0]
        cov, _ = latent_sample_covariance(latents)
        target = target[0]
        for i in range(s.n_u):
            for j in range(i + 1, s.n_u):
                se = target[i] * target[j] / np.sqrt(n - 1)
                assert abs(cov[i, j]) < 3 * se


def test_block_latents_equal_one_row_latents_bit_for_bit():
    X = RngStream(16).generator().standard_normal((37, 7))
    s = fit(X, 5)
    streams = [RngStream(17).derive(i) for i in range(len(X))]
    for sched in (NoiseSchedule("constant", 0.2, 6), NoiseSchedule("incremental", 0.2, 6)):
        sig = per_component_sigma(sched, s)
        draws = draw_latents(sig, s, X, streams)
        block, cands = latent_candidates(sig, draws), make_candidates(sig, s, draws)
        for i in range(len(X)):
            one_row = draw_latents(sig, s, X[i:i + 1], streams[i:i + 1])
            assert np.array_equal(block[i], latent_candidates(sig, one_row)[0])
            # reconstruction is one GEMM per block, so only its bits may move
            one = make_candidates(sig, s, one_row)[0]
            assert np.allclose(cands[i], one, rtol=0, atol=1e-12)


def test_project_takes_one_row_or_a_block():
    X = RngStream(18).generator().standard_normal((9, 4))
    s = fit(X, 3)
    block = project(s, X)
    for i in range(len(X)):
        assert np.array_equal(block[i], project(s, X[i]))
    with pytest.raises(ShapeError):
        project(s, X[:, :3])
