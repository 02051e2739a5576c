import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gtta.rng import RngStream, _derived_ids, standard_normal


def normals(rng, n):
    return rng.generator().standard_normal(n)


def test_same_stream_same_draws():
    rng = RngStream(7, 1)
    assert np.array_equal(normals(rng, 16), normals(rng, 16))


def test_distinct_streams_differ():
    a = normals(RngStream(7, 1), 16)
    b = normals(RngStream(7, 2), 16)
    c = normals(RngStream(8, 1), 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_is_deterministic_and_splits():
    rng = RngStream(3, 9)
    assert rng.derive(4) == rng.derive(4)
    assert rng.derive(4) != rng.derive(5)
    assert rng.derive(4).master_seed == 3
    # Derivation paths that differ anywhere give different streams.
    assert rng.derive(1).derive(2) != rng.derive(2).derive(1)


def test_large_sample_std_matches_sigma():
    # Sample std of n draws concentrates at sigma with se = sigma / sqrt(2n).
    draws = 2.0 * normals(RngStream(123, 0), 10**6)
    assert 1.99 <= draws.std(ddof=1) <= 2.01


def test_moments_converge_at_five_sigma():
    n = 10**6
    draws = 1.5 * normals(RngStream(77, 5), n)
    mean_bound = 5 * 1.5 / np.sqrt(n)
    std_bound = 5 * 1.5 / np.sqrt(2 * n)
    assert abs(draws.mean()) < mean_bound
    assert abs(draws.std(ddof=1) - 1.5) < std_bound


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 2**63 - 1))
def test_reproducible_for_any_ids(seed, stream):
    rng = RngStream(seed, stream)
    assert np.array_equal(normals(rng, 8), normals(rng, 8))


def test_rekeyed_generator_draws_like_a_new_one():
    # standard_normal re-keys one generator for every draw. Odd sizes leave
    # part of Philox's four-word buffer unused between keys; re-keying must
    # leave no buffered state behind.
    streams = [RngStream(2**63 + 11, 2**64 - 1), RngStream(2**64 - 1, 0), RngStream(5, 2**63)]
    for size in (1, 3, 7):
        draws = standard_normal(streams, [2, 1, 2], size)
        for b, stream in enumerate(streams):
            for k, key in enumerate([2, 1, 2]):
                assert np.array_equal(draws[b, k], stream.derive(key).generator().standard_normal(size))


def test_standard_normal_is_named_by_row_stream_and_key():
    streams = [RngStream(2**63 + 1, 2**64 - 1), RngStream(9, 4)]
    draws = standard_normal(streams, [3, 1], 6)
    for b, stream in enumerate(streams):
        for k, key in enumerate([3, 1]):
            assert np.array_equal(draws[b, k], stream.derive(key).generator().standard_normal(6))


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3),
       keys=st.lists(st.integers(-2**64, -1) | st.integers(2**63, 2**65) | st.integers(0, 20),
                     min_size=1, max_size=4))
def test_vectorised_derive_matches_derive_for_any_ids_and_keys(ids, seeds, keys):
    # The uint64 splitmix64 wraps mod 2**64 where derive masks Python ints.
    streams = [RngStream(seed, stream_id) for seed, stream_id in zip(seeds, ids)]
    derived = _derived_ids(streams, keys)
    assert derived.dtype == np.uint64
    draws = standard_normal(streams, keys, 3)
    for b, stream in enumerate(streams):
        for k, key in enumerate(keys):
            assert int(derived[b, k]) == stream.derive(key).stream_id
            assert np.array_equal(draws[b, k], stream.derive(key).generator().standard_normal(3))
