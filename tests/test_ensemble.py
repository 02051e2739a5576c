from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import run_bias_variance
from gtta import ensemble, perturb
from gtta.data import OutputKind
from gtta.ensemble import (
    DEFAULT_SIGMA_GRID, FoldedLayer, run_gtta, select_sigma,
)
from gtta.errors import ParamError, ShapeError, UnsupportedTaskError
from gtta.perturb import NoiseSchedule, per_component_sigma
from gtta.predictor import MlpModel
from gtta.rng import RngStream
from gtta.subspace import fit, project, reconstruct


def full_rank_subspace(seed=0, n=20, d=6):
    return fit(RngStream(seed).generator().standard_normal((n, d)), "all")


def sigma_grid(sigmas, n, strategy="constant", **kw):
    return [NoiseSchedule(strategy, float(sigma), n, **kw) for sigma in sigmas]


class FixedOutputs:
    """Returns pre-set rows regardless of input, one per candidate.

    The rows are handed out in candidate order across calls, from the first
    again once all are used, so an ensemble predicted in two halves gets them
    as one predicted whole would.
    """

    def __init__(self, rows, output_kind):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.output_kind = output_kind
        self.next = 0

    def predict(self, batch):
        picks = (self.next + np.arange(np.atleast_2d(batch).shape[0])) % len(self.rows)
        self.next = (picks[-1] + 1) % len(self.rows)
        return self.rows[picks]


class RadialConfidence:
    """Binary probabilities peaked when the squared norm sits at a target."""

    def __init__(self, target_sq, width=4.0):
        self.target_sq = target_sq
        self.width = width
        self.output_kind = OutputKind.probabilities(2)

    def predict(self, batch):
        batch = np.atleast_2d(batch)
        sq = (batch**2).sum(axis=1)
        p1 = 0.55 + 0.4 * np.exp(-((sq - self.target_sq) ** 2) / (2 * self.width**2))
        return np.stack([p1, 1.0 - p1], axis=1)


def test_zero_noise_reproduces_model_bit_for_bit():
    s = full_rank_subspace()
    x = RngStream(1).generator().standard_normal(6)
    specs = [
        (OutputKind.probabilities(3), [6, 8, 3]),
        (OutputKind.real_values(), [6, 8, 1]),
        (OutputKind.per_pixel(2, 2), [6, 8, 4]),
    ]
    for kind, sizes in specs:
        model = MlpModel(sizes, kind, RngStream(2))
        result = run_gtta(model, s, NoiseSchedule("constant", 0.0, 5), x[None], [RngStream(3)])
        base = model.predict(x[None])[0]
        assert np.array_equal(result.mean_prediction[0], base)
        assert not result.std_map.any()


def test_two_candidate_aggregation():
    s = full_rank_subspace(seed=4)
    model = FixedOutputs([[0.4, 0.6], [0.6, 0.4]], OutputKind.probabilities(2))
    sched = NoiseSchedule("constant", 0.2, 2)
    result = run_gtta(model, s, sched, (np.zeros(6) + s.mean)[None], [RngStream(5)])
    assert np.allclose(result.mean_prediction[0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(result.std_map[0], [0.1, 0.1], atol=1e-12)


def test_mean_matches_independent_summation():
    s = full_rank_subspace(seed=6)
    gen = RngStream(7).generator()
    rows = gen.random((9, 4))
    model = FixedOutputs(rows, OutputKind.probabilities(4))
    result = run_gtta(model, s, NoiseSchedule("constant", 0.3, 9), s.mean[None], [RngStream(8)])
    slow = np.zeros(4)
    for row in rows:  # the model's outputs for the 9 candidates
        slow = slow + row
    assert np.abs(result.mean_prediction[0] - slow / 9).max() < 1e-12


def one_pass_aggregate(outputs):
    """Bytes of the mean and std of [b, N, *out] outputs, taken together in one pass."""
    mean, std = outputs.mean(axis=1), outputs.std(axis=1)
    same = np.all(outputs == outputs[:, :1], axis=tuple(range(1, outputs.ndim)))
    mean[same] = outputs[same, 0]
    std[same] = 0.0
    return mean.tobytes(), std.tobytes()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), out=st.sampled_from([(), (3,), (2, 3)]),
       rows=st.lists(st.sampled_from(["random", "all agree", "first two agree"]),
                     min_size=1, max_size=5),
       saturated=st.booleans(), seed=st.integers(0, 2**16))
@example(n=1, out=(3,), rows=["random", "all agree"], saturated=False, seed=0)
@example(n=4, out=(2, 3), rows=["first two agree", "all agree", "random"], saturated=True, seed=1)
def test_split_aggregation_matches_one_pass(n, out, rows, saturated, seed):
    outputs = RngStream(seed).generator().standard_normal((len(rows), n, *out))
    if saturated:  # a sigmoid head far past its range: many candidates are exactly 0 or 1
        outputs = 0.5 * (1.0 + np.tanh(0.5 * 80.0 * outputs))
    for i, kind in enumerate(rows):
        if kind == "all agree":
            outputs[i] = outputs[i, 0]
        elif kind == "first two agree" and n > 1:
            outputs[i, 1] = outputs[i, 0]
            if n > 2:
                outputs[i, -1] = outputs[i, 0]
                outputs[i, -1].flat[0] += 1.0  # only a later candidate differs
    ref = one_pass_aggregate(outputs)
    assert aggregate([outputs], None) == ref
    # After a quiet grid point, whose one candidate per row stands for all N,
    # whichever point wins aggregates as alone.
    quiet = outputs[:, :1]
    for first, ref_won in ((True, one_pass_aggregate(quiet)), (False, ref)):
        scores = iter([np.full(len(rows), 1.0 * first), np.full(len(rows), 0.5)])
        assert aggregate([quiet.copy(), outputs], lambda mean: next(scores)) == ref_won


def aggregate(points, score):
    """Bytes of the mean and std ensemble._block keeps over grid points of [b, N, *out] outputs.

    Each grid point's candidate outputs stand in for the ones _point would predict.
    """
    s, b = full_rank_subspace(), len(points[0])
    sigs = np.ones((len(points), 1, s.n_u))
    outputs = iter(points)
    with mock.patch.object(ensemble, "_point", lambda *args: next(outputs)):
        mean, std, _ = ensemble._block(None, s, None, sigs, None, score, None,
                                       np.zeros((b, s.d)), RngStream(0).rows(b))
    return mean.tobytes(), std.tobytes()


BOUND_KINDS = {"probabilities": (OutputKind.probabilities(3), (3,)),
               "per-pixel": (OutputKind.per_pixel(2, 3), (2, 3))}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(BOUND_KINDS)), n=st.integers(1, 16), rows=st.integers(1, 4),
       threshold=st.sampled_from([0.75, 0.8]) | st.floats(0.5, 1.0, exclude_min=True,
                                                           exclude_max=True),
       fill=st.sampled_from(["random", "saturated", "at the band's edge"]),
       seed=st.integers(0, 2**16))
@example(kind="per-pixel", n=15, rows=2, threshold=0.8, fill="at the band's edge", seed=0)
@example(kind="per-pixel", n=15, rows=2, threshold=0.75, fill="saturated", seed=1)
@example(kind="probabilities", n=2, rows=1, threshold=0.8, fill="saturated", seed=2)
def test_confidence_bound_never_falls_below_the_final_score(kind, n, rows, threshold, fill, seed):
    kind, out = BOUND_KINDS[kind]
    gen = RngStream(seed).generator()
    outputs = gen.random((rows, n, *out))
    if fill == "saturated":
        outputs = np.round(outputs)
    elif fill == "at the band's edge":
        # Each element's mean lands within an ulp or so of t or 1 - t: m of
        # its n outputs are 1, the rest one value c, in a random order.
        edge = gen.choice([threshold, 1 - threshold], size=(rows, *out))
        edge = np.nextafter(edge, gen.choice([-np.inf, np.inf], size=edge.shape))
        ones = gen.integers(0, n, size=edge.shape)
        c = (edge * n - ones) / (n - ones)
        ones[c < 0] = 0
        c = np.where(c < 0, edge, c)
        candidate = np.arange(n).reshape(n, *[1] * len(out))
        outputs = np.where(candidate < ones[:, None], 1.0, c[:, None])
        outputs = gen.permuted(outputs, axis=1)
    mean, _ = ensemble._mean(outputs)
    final = ensemble._confidence(mean, kind, threshold)
    first = outputs[:, :-(-n // 2)]
    assert np.all(ensemble._confidence_bound(first, n, kind, threshold) >= final)


def test_single_point_grid_returns_base():
    s = full_rank_subspace(seed=9)
    model = MlpModel([6, 8, 2], OutputKind.probabilities(2), RngStream(10))
    x = RngStream(11).generator().standard_normal(6)
    result = select_sigma(model, s, sigma_grid((0.0,), 4), x[None], [RngStream(12)])
    assert result.chosen_sigma[0] == 0.0
    assert np.array_equal(result.mean_prediction[0], model.predict(x[None])[0])


def test_ties_break_toward_smaller_sigma():
    s = full_rank_subspace(seed=13)
    model = FixedOutputs(np.tile([0.7, 0.3], (8, 1)), OutputKind.probabilities(2))
    result = select_sigma(model, s, sigma_grid((0.0, 0.1, 0.2), 8), s.mean[None],
                          [RngStream(14)])
    assert result.chosen_sigma[0] == 0.0


def test_selection_matches_brute_force_oracle():
    s = full_rank_subspace(seed=15, n=30, d=6)
    x = s.mean + 0.1 * s.components[0]
    model = RadialConfidence(target_sq=float((x**2).sum()) + 10.0, width=6.0)
    grid = (0.0, 0.05, 0.1, 0.15, 0.2)
    rng = RngStream(16)
    sigma = select_sigma(model, s, sigma_grid(grid, 25), x[None], [rng]).chosen_sigma[0]

    scores = []
    for g in grid:
        sched = NoiseSchedule("constant", float(g), 25)
        result = run_gtta(model, s, sched, x[None], [rng])
        scores.append(float(result.mean_prediction.max()))
    best = min(
        (i for i in range(len(scores))),
        key=lambda i: (-scores[i], grid[i]),
    )
    assert sigma == grid[best]
    assert sigma > 0.0  # the planted optimum needs real perturbation


def test_regression_selection_unsupported():
    s = full_rank_subspace(seed=17)
    model = MlpModel([6, 4, 1], OutputKind.real_values(), RngStream(18))
    with pytest.raises(UnsupportedTaskError):
        select_sigma(model, s, sigma_grid(DEFAULT_SIGMA_GRID, 15), s.mean, RngStream(19))


def test_bad_grids_rejected():
    s = full_rank_subspace()
    model = MlpModel([6, 4, 2], OutputKind.probabilities(2), RngStream(19))
    empty, unsorted = [], sigma_grid((0.2, 0.1), 4)
    mixed = sigma_grid((0.0,), 4) + sigma_grid((0.1,), 4, strategy="incremental")
    for grid in (empty, unsorted, mixed):
        with pytest.raises(ParamError):
            select_sigma(model, s, grid, s.mean[None], [RngStream(20)])


def test_segmentation_confidence_counts_both_sides():
    s = full_rank_subspace(seed=20)
    rows = np.stack([
        np.full((2, 2), 0.95), np.full((2, 2), 0.05),
    ])

    class TwoMaps:
        output_kind = OutputKind.per_pixel(2, 2)

        def predict(self, batch):
            return rows[: np.atleast_2d(batch).shape[0]].copy()

    result = select_sigma(TwoMaps(), s, sigma_grid((0.0,), 2), s.mean[None], [RngStream(21)],
                          threshold=0.8)
    # mean map is flat 0.5: nothing confident; the call still succeeds
    assert result.mean_prediction[0].shape == (2, 2)


def test_default_thresholds_by_strategy():
    # Off the mean every pixel reads 0.78: confident at a 0.75 cutoff, not at
    # 0.8. At sigma 0 every candidate sits on the mean and reads 0.5. Under
    # incremental the first of the 20 candidates gets no noise, so the noisy
    # ensemble's mean is 0.766, still above 0.75.
    s = full_rank_subspace(seed=22)

    class OffMean:
        output_kind = OutputKind.per_pixel(1, 2)

        def predict(self, batch):
            off = np.abs(np.atleast_2d(batch) - s.mean).max(axis=1) > 1e-9
            return np.repeat(np.where(off, 0.78, 0.5)[:, None, None], 2, axis=2)

    def chosen(strategy, threshold=None):
        result = select_sigma(OffMean(), s, sigma_grid((0.0, 0.3), 20, strategy),
                              s.mean[None], [RngStream(23)], threshold=threshold)
        return result.chosen_sigma[0]

    assert chosen("constant") == 0.0        # default 0.8
    assert chosen("constant", 0.75) == 0.3
    assert chosen("incremental") == 0.3     # default 0.75
    assert chosen("incremental", 0.8) == 0.0


# --------------------------------------------------------------------------
# ensembles help on the structured-distractor task


def test_distractor_task_mean_accuracy_over_seeds():
    accs_base, accs_gtta = [], []
    for seed in range(20):
        model, s, eval_ds = run_bias_variance.setup(seed)  # c09's classifier and eval rows
        sched = NoiseSchedule("constant", 0.01, 15)
        base = model.predict(eval_ds.inputs).argmax(axis=1)
        streams = [RngStream(seed, 53).derive(i) for i in range(eval_ds.n)]
        ens = run_gtta(model, s, sched, eval_ds.inputs, streams).mean_prediction.argmax(axis=1)
        y = eval_ds.targets.astype(int)
        accs_base.append(np.mean(base == y))
        accs_gtta.append(np.mean(ens == y))
    assert np.mean(accs_gtta) >= np.mean(accs_base)


def test_block_rows_match_one_row_ensembles():
    # 19 rows span three engine blocks; each row's noise is named by its own
    # stream, so only the block GEMMs can move its last bits.
    from gtta.ensemble import BLOCK_ROWS

    X = RngStream(30).generator().standard_normal((19, 6))
    s = fit(X, 4)
    model = MlpModel([6, 8, 3], OutputKind.probabilities(3), RngStream(31))
    streams = RngStream(32).rows(len(X))
    assert len(X) > 2 * BLOCK_ROWS
    for sigma in (0.0, 0.2):
        sched = NoiseSchedule("incremental", sigma, 5)
        block = run_gtta(model, s, sched, X, streams)
        for i in range(len(X)):
            one = run_gtta(model, s, sched, X[i:i + 1], streams[i:i + 1])
            assert np.allclose(block.mean_prediction[i], one.mean_prediction[0], rtol=0, atol=1e-12)
            assert np.allclose(block.std_map[i], one.std_map[0], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        run_gtta(model, s, sched, X, streams[:-1])


@pytest.mark.parametrize("strategy", ["constant", "incremental"])
def test_sigma_grid_draws_once_and_keeps_plain_ensembles(strategy, monkeypatch):
    # 19 rows span three blocks. Every grid point rescales the same draws, so
    # one select_sigma draws each row's noisy candidates once, in one
    # standard_normal call per block, not once per grid point. Each call
    # builds one generator and re-keys it for every (row, candidate). Each
    # row's winner is the plain ensemble at the chosen sigma, bit for bit.
    X = RngStream(40).generator().standard_normal((19, 6))
    s = fit(X, 4)
    model = MlpModel([6, 8, 3], OutputKind.probabilities(3), RngStream(41))
    streams = RngStream(42).rows(len(X))
    grid, clamp = (0.0, 0.1, 0.2, 0.4), (-1.0, 1.0)
    keys = np.flatnonzero(per_component_sigma(NoiseSchedule(strategy, 0.1, 5), s).any(axis=1)) + 1
    calls, generators = [], []
    standard_normal, generator = perturb.standard_normal, RngStream.generator

    def counted(streams, keys, size):
        calls.append([(stream, int(key)) for stream in streams for key in keys])
        return standard_normal(streams, keys, size)

    monkeypatch.setattr(perturb, "standard_normal", counted)
    monkeypatch.setattr(RngStream, "generator", lambda self: generators.append(self) or generator(self))
    result = select_sigma(model, s, sigma_grid(grid, 5, strategy, sigma_cap=0.3), X,
                          streams, clamp=clamp)
    monkeypatch.undo()
    pairs = [pair for call in calls for pair in call]
    assert len(generators) == len(calls) == -(-len(X) // ensemble.BLOCK_ROWS)
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {(stream, int(key)) for stream in streams for key in keys}
    assert len(set(result.chosen_sigma)) > 1
    for sigma in grid:
        sched = NoiseSchedule(strategy, sigma, 5, sigma_cap=0.3)
        plain = run_gtta(model, s, sched, X, streams, clamp=clamp)
        won = result.chosen_sigma == sigma
        assert np.array_equal(result.mean_prediction[won], plain.mean_prediction[won])
        assert np.array_equal(result.std_map[won], plain.std_map[won])


def test_schedule_grid_needs_one_size_and_a_score():
    s = full_rank_subspace()
    model = RadialConfidence(1.0)
    grid = [NoiseSchedule("constant", 0.1, 4), NoiseSchedule("constant", 0.2, 4)]
    with pytest.raises(ParamError):
        run_gtta(model, s, grid, s.mean[None], [RngStream(43)])
    with pytest.raises(ParamError):
        run_gtta(model, s, [grid[0], NoiseSchedule("constant", 0.2, 5)], s.mean[None],
                 [RngStream(43)], score=lambda mean: mean.max(axis=1))


# --------------------------------------------------------------------------
# the folded first layer of a built-in MLP


class InputSpace:
    """An MLP behind a plain predictor, so the engine reconstructs its candidates."""

    def __init__(self, model):
        self.model = model
        self.output_kind = model.output_kind

    def predict(self, batch):
        return self.model.predict(batch)


# (rows, d, retain) of the fit: every row kept, a tall fit cut short, a wide fit (d > 4n).
FITS = {"full-rank": (20, 6, "all"), "svd": (30, 6, 4), "gram": (5, 24, "all")}
HEADS = {"probabilities": (OutputKind.probabilities(3), 3),
         "per-pixel": (OutputKind.per_pixel(2, 2), 4),
         "real": (OutputKind.real_values(), 1)}


@settings(max_examples=60, deadline=None)
@given(hidden=st.lists(st.integers(1, 9), max_size=2), head=st.sampled_from(sorted(HEADS)),
       fit_kind=st.sampled_from(sorted(FITS)), strategy=st.sampled_from(["constant", "incremental"]),
       sigma=st.floats(0.01, 0.5), cap=st.sampled_from([None, 0.3]), seed=st.integers(0, 2**16))
@example(hidden=[], head="probabilities", fit_kind="full-rank", strategy="incremental",
         sigma=0.2, cap=None, seed=0)
def test_folded_first_layer_matches_input_space(hidden, head, fit_kind, strategy, sigma, cap,
                                                seed):
    n, d, retain = FITS[fit_kind]
    X = RngStream(seed).generator().standard_normal((n, d))
    s = fit(X, retain)
    kind, width = HEADS[head]
    model = MlpModel([d, *hidden, width], kind, RngStream(seed, 1))
    sched = NoiseSchedule(strategy, sigma, 5, sigma_cap=cap)
    rows = X[:ensemble.BLOCK_ROWS + 3]
    streams = RngStream(seed, 2).rows(len(rows))
    folded = run_gtta(model, s, sched, rows, streams)
    plain = run_gtta(InputSpace(model), s, sched, rows, streams)
    assert np.abs(folded.mean_prediction - plain.mean_prediction).max() <= 1e-12
    assert np.abs(folded.std_map - plain.std_map).max() <= 1e-12


def test_only_a_noisy_unclamped_mlp_takes_the_folded_layer(monkeypatch):
    # make_candidates is where candidates are built, so the maps it is given
    # show which path each schedule took. A quiet point never takes the fold:
    # on a full-rank subspace it predicts the row itself, and on a projecting
    # one the row's reconstruction.
    s = full_rank_subspace(seed=50)
    projecting = fit(RngStream(55).generator().standard_normal((20, 6)), 4)
    x = s.mean[None] + 0.1
    maps = []
    make_candidates = ensemble.make_candidates
    monkeypatch.setattr(ensemble, "make_candidates",
                        lambda sig, m, draws: maps.append(type(m)) or make_candidates(sig, m, draws))
    for hidden in ([], [8]):
        model = MlpModel([6, *hidden, 3], OutputKind.probabilities(3), RngStream(51))
        for target, subspace, clamp, sigma, path in [
            (model, s, None, 0.2, FoldedLayer),
            (model, s, (-1.0, 1.0), 0.2, type(s)),
            (model, s, None, 0.0, type(s)),
            (InputSpace(model), s, None, 0.2, type(s)),
            (model, projecting, None, 0.0, type(s)),
            (model, projecting, (-1.0, 1.0), 0.0, type(s)),
        ]:
            maps.clear()
            result = run_gtta(target, subspace, NoiseSchedule("constant", sigma, 4), x,
                              [RngStream(52)], clamp=clamp)
            assert maps == [path] * (1 if sigma == 0.0 else 2)  # a noisy ensemble in two halves
            if sigma == 0.0 and subspace is s:
                assert np.array_equal(result.mean_prediction, model.predict(x))
            elif sigma == 0.0 and clamp is None:
                quiet = model.predict(reconstruct(projecting, project(projecting, x[0]))[None])
                assert np.abs(result.mean_prediction - quiet).max() <= 1e-12
    with pytest.raises(ShapeError):
        run_gtta(MlpModel([5, 4, 3], OutputKind.probabilities(3), RngStream(53)), s,
                 NoiseSchedule("constant", 0.2, 4), x, [RngStream(54)])


@pytest.mark.parametrize("strategy", ["constant", "incremental"])
def test_sigma_grid_through_the_folded_layer_keeps_plain_ensembles(strategy):
    # The folded twin of test_sigma_grid_draws_once_and_keeps_plain_ensembles:
    # without --clamp each row's winner is the plain ensemble at its sigma, bit for bit.
    X = RngStream(60).generator().standard_normal((19, 6))
    s = fit(X, 4)
    model = MlpModel([6, 8, 3], OutputKind.probabilities(3), RngStream(61))
    streams = RngStream(62).rows(len(X))
    grid = (0.0, 0.1, 0.2, 0.4)
    result = select_sigma(model, s, sigma_grid(grid, 5, strategy, sigma_cap=0.3), X, streams)
    assert len(set(result.chosen_sigma)) > 1
    for sigma in grid:
        plain = run_gtta(model, s, NoiseSchedule(strategy, sigma, 5, sigma_cap=0.3), X, streams)
        won = result.chosen_sigma == sigma
        assert np.array_equal(result.mean_prediction[won], plain.mean_prediction[won])
        assert np.array_equal(result.std_map[won], plain.std_map[won])
