"""End-to-end perturbation ensembles: candidates, aggregation, uncertainty.

The ensemble mean is the final prediction and the per-element population
standard deviation of the candidate outputs is its uncertainty. The engine,
:func:`run_gtta`, takes a block of input rows with one random stream per row
and one noise schedule, or a grid of them for sigma selection. A grid point
is scored from its ensemble means alone: only each row's winning candidate
outputs are kept, and their std is taken once. A noisy ensemble predicts
its candidates in two fixed halves, and sigma selection skips the second
half of a grid point that provably cannot win a row. A built-in MLP takes the
noisy latents through its first layer folded into reconstruction, so no
input-space candidate is built for it unless ``clamp`` needs one. For
probability-valued outputs the std never exceeds 0.5, so the consensus
weight 1 - std stays in [0.5, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import perturb
from .data import PROBABILITIES
from .errors import ParamError, ShapeError, UnsupportedTaskError
from .perturb import NoiseSchedule, make_candidates
from .predictor import MlpModel
from .subspace import Subspace

# Version of the engine's arithmetic, recorded in every provenance.json. It
# moves when the last bits of the ensemble outputs do: engine 2 folds a
# built-in MLP's first layer into reconstruction, and engine 3 predicts the
# quiet candidates of a projecting subspace in one model call per block.
ENGINE = 3

# Noise grid bracketing the useful range for unit-scale data.
DEFAULT_SIGMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)

# Pixel-confidence cutoffs for the segmentation selection rule, per strategy.
CONFIDENCE_THRESHOLDS = {"constant": 0.8, "incremental": 0.75}

# Slack of a confidence bound for the rounding of a computed ensemble mean.
BOUND_SLACK = 1e-9


# Input rows per engine step; the model sees BLOCK_ROWS * N candidate rows per
# block, in two calls of about half each. Fixed, so the bytes of a run depend
# only on its inputs. Measured on a 200-row, d = 1024, N = 15 predict (one
# BLAS thread): 8 rows ran fastest of 1 to 32, and peak memory grows with the
# block.
BLOCK_ROWS = 8


@dataclass(frozen=True)
class EnsembleResult:
    mean_prediction: np.ndarray  # [B, *out]
    std_map: np.ndarray          # [B, *out], population std over the N candidates
    chosen_sigma: np.ndarray     # [B]


@dataclass(frozen=True)
class FoldedLayer:
    """An MLP's first layer composed with reconstruction, an affine map of latents.

    ``(mean + p C) W1 + b1 = (mean W1 + b1) + p (C W1)``, so the first layer
    takes latents p directly: n_u x h multiply-adds per candidate instead of
    n_u x d + d x h. It has a :class:`Subspace`'s ``mean`` and ``components``,
    which is all :func:`make_candidates` reads of it.
    """

    mean: np.ndarray        # [h], mean W1 + b1
    components: np.ndarray  # [n_u, h], C W1


def _fold(model: MlpModel, s: Subspace) -> tuple[FoldedLayer, MlpModel]:
    """The model's first layer folded into ``s``, and the model after that layer."""
    if model.layer_sizes[0] != s.d:
        raise ShapeError(f"the model takes {model.layer_sizes[0]} inputs, "
                         f"the subspace reconstructs {s.d}")
    w, b = model.weights[0], model.biases[0]
    tail = MlpModel.from_parameters(model.layer_sizes[1:], model.output_kind,
                                    model.weights[1:], model.biases[1:])
    return FoldedLayer(s.mean @ w + b, s.components @ w), tail


def _mean(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the candidate axis of [b, N, *out] outputs, and the rows whose candidates agree.

    Such a row aggregates exactly: its mean is the common value and its std
    exactly zero, with no float summation wobble. Only the rows whose
    candidate 1 equals candidate 0 are compared in full.
    """
    flat = outputs.reshape(len(outputs), outputs.shape[1], -1)
    same = np.all(flat[:, min(1, flat.shape[1] - 1)] == flat[:, 0], axis=1)
    same[same] = np.all(flat[same] == flat[same, :1], axis=(1, 2))
    mean = outputs.mean(axis=1)
    mean[same] = outputs[same, 0]
    return mean, same


def _setup(model, s: Subspace, scheds, X, streams, clamp):
    """The checked rows, the [G, N, n_u] noise matrices of ``scheds`` and the folded layer, if any."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or len(streams) != X.shape[0]:
        raise ShapeError(f"need a non-empty [B, d] block and one stream per row, "
                         f"got shape {X.shape} and {len(streams)} streams")
    if len({sc.ensemble_size for sc in scheds}) != 1:
        raise ParamError("a schedule grid needs one ensemble size")
    sigs = np.stack([perturb.per_component_sigma(sc, s) for sc in scheds])
    # Clipping happens in input space, so --clamp keeps the reconstruction.
    fold = _fold(model, s) if isinstance(model, MlpModel) and clamp is None and sigs.any() else None
    return X, sigs, fold


def run_gtta(model, s: Subspace, sched, X: np.ndarray, streams,
             clamp: tuple | None = None, score=None, bound=None) -> EnsembleResult:
    """Perturb every row of ``X`` N times, predict every candidate, aggregate.

    ``sched`` is one :class:`NoiseSchedule` or a grid of schedules with one
    ensemble size. On a grid, ``score`` maps the [b, *out] ensemble means of
    b rows to one score per row, and each row keeps its best-scoring
    ensemble; ties go to the earlier schedule. Row i draws its noise from
    ``streams[i]`` on every schedule, so each row is projected and its
    standard normals are drawn once, and the schedules only rescale them.
    Only the winning candidate outputs are kept, and the std is taken from
    them once per block.

    Rows run BLOCK_ROWS at a time, and a noisy schedule predicts each block
    in two halves of its candidates (:func:`_point`). With a ``bound`` that
    maps the [b, k, *out] first-half outputs and N to an upper bound on each
    row's final score, a later schedule whose bound beats no row's best
    score skips its second half; it could not have won, so no result changes.
    ``clamp=(lo, hi)`` clips reconstructed candidates into the valid input
    range before prediction; off by default. When no candidate of a
    schedule gets noise the N candidates coincide, so each row has one. On a
    full-rank subspace that candidate is the row itself, predicted alone, and
    the result equals the plain model output bit for bit; on a projecting one
    the block's reconstructions are predicted in one call. Otherwise an
    :class:`MlpModel` without ``clamp`` maps each noisy latent through its
    folded first layer, built once per call, and the rest of the model; its
    last bits differ from an input-space reconstruction's.
    """
    scheds = [sched] if isinstance(sched, NoiseSchedule) else list(sched)
    if len(scheds) > 1 and score is None:
        raise ParamError("a schedule grid needs a score")
    X, sigs, fold = _setup(model, s, scheds, X, streams, clamp)
    parts = [_block(model, s, fold, sigs, clamp, score, bound,
                    X[lo:lo + BLOCK_ROWS], streams[lo:lo + BLOCK_ROWS])
             for lo in range(0, len(X), BLOCK_ROWS)]
    mean, std, pick = (np.concatenate(p) for p in zip(*parts))
    return EnsembleResult(mean, std, np.array([sc.sigma for sc in scheds])[pick])


def grid_means(model, s: Subspace, scheds, X: np.ndarray, streams) -> list[np.ndarray]:
    """The [B, *out] ensemble means of ``X`` under each schedule of a grid of one ensemble size.

    Each row is drawn once for the whole grid, so on a grid of one strategy
    each equals ``run_gtta(model, s, sched, X, streams).mean_prediction`` bit for bit.
    """
    X, sigs, fold = _setup(model, s, scheds, X, streams, None)
    blocks = []
    for lo in range(0, len(X), BLOCK_ROWS):
        draws = perturb.draw_latents(sigs, s, X[lo:lo + BLOCK_ROWS], streams[lo:lo + BLOCK_ROWS])
        blocks.append([_mean(_point(model, s, fold, sig, draws, None))[0] for sig in sigs])
    return [np.concatenate(means) for means in zip(*blocks)]


def _block(model, s, fold, sigs, clamp, score, bound, X, streams):
    """Mean, std and the winning grid point's index for each row of one block.

    The rows are projected and drawn once, for every noise matrix of
    ``sigs``. A later point wins a row only with a strictly greater score,
    so it stops after its first half of candidates when ``bound`` caps no
    row above its best score. ``out`` holds the winning candidate outputs of
    the rows whose candidates disagree; every other row's std is zero.
    """
    draws = perturb.draw_latents(sigs, s, X, streams)
    out = _point(model, s, fold, sigs[0], draws, clamp)
    mean, same = _mean(out)
    pick = np.zeros(len(mean), dtype=np.intp)
    best = score(mean) if len(sigs) > 1 else None
    for g, sig in enumerate(sigs[1:], 1):
        if (new_out := _point(model, s, fold, sig, draws, clamp, bound, best)) is None:
            continue
        new_mean, new_same = _mean(new_out)
        new_score = score(new_mean)
        better = new_score > best
        best = np.where(better, new_score, best)
        if out.shape[1] < new_out.shape[1]:
            out = new_out  # the rows that keep a quiet winner agree, whatever it holds for them
        else:
            out[better] = new_out[better]
        mean[better], same[better] = new_mean[better], new_same[better]
        pick[better] = g
    std = np.zeros_like(mean)
    if not same.all():
        differ = ~same if same.any() else slice(None)  # a mask would copy all of out
        std[differ] = out[differ].std(axis=1)
    return mean, std, pick


def _point(model, s, fold, sig, draws, clamp, bound=None, best=None):
    """The [b, N, *out] candidate outputs of one noise matrix over one block, or None.

    A quiet matrix's candidates coincide, so each row has one, into
    [b, 1, *out]. On a full-rank subspace that is the row itself, predicted
    alone, so that it is the plain model's output for the row; on a
    projecting one the block's reconstructions go in one model call. A noisy
    matrix predicts candidates 1..ceil(N/2), then the rest, one model call
    each; a block whose half would hold a single model row runs in one call,
    since a one-row product rounds differently from a many-row one. The
    point stops after its first half and returns None when ``bound`` of
    those outputs exceeds ``best`` in no row. With ``fold`` the noisy latents
    go through the folded first layer, its activation and the rest of the
    model instead of input space.
    """
    n, k, quiet = len(sig), -(-len(sig) // 2), not sig.any()
    halves = [slice(0, k), slice(k, n)] if len(draws.X) * (n - k) > 1 else [slice(0, n)]
    if quiet:
        fold, halves = None, [slice(0, 1)]
    layer, net = (s, model) if fold is None else fold
    parts = []
    for half in halves:
        if parts and bound is not None and not np.any(bound(parts[0], n) > best):
            return None
        cands = make_candidates(sig[half], layer, replace(draws, z=draws.z[:, half]))
        if clamp is not None:
            np.clip(cands, clamp[0], clamp[1], out=cands)
        elif fold is not None and net.weights:  # the folded layer was hidden, so its ReLU applies
            np.maximum(cands, 0.0, out=cands)
        if quiet and s.full_rank:
            parts.append(np.stack([net.predict(c) for c in cands]))
        else:
            out = np.asarray(net.predict(cands.reshape(-1, cands.shape[-1])))
            parts.append(out.reshape(cands.shape[:2] + out.shape[1:]))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _selection_rule(output_kind, threshold: float):
    """Sigma selection's ``(score, bound)`` for a probability-valued ``output_kind``.

    ``score`` maps [B, *out] ensemble means to a confidence per row: the
    top-class mean, or the count of pixels whose mean is beyond ``threshold``
    on either side. ``bound`` maps the first k of each row's N outputs,
    [B, k, *out], and N to an upper bound on its final score. Every output
    lies in [0, 1], so with S the sum of the first k the mean lies in
    [S / N, (S + N - k) / N]; the bound widens that by BOUND_SLACK for rounding.
    """
    if output_kind.kind == PROBABILITIES:
        def bound(first, n):
            return (first.sum(axis=1).max(axis=1) + (n - first.shape[1])) / n + BOUND_SLACK
        return (lambda mean: mean.max(axis=1)), bound

    def score(mean):
        return np.count_nonzero((mean > threshold) | (mean < 1 - threshold), axis=(1, 2))

    def bound(first, n):
        # A pixel can end confident unless (1 - t) N <= S and S + N - k <= t N:
        # count the S outside that band, narrowed by N * BOUND_SLACK on each side.
        rest = n - first.shape[1]
        lo, hi = (1 - threshold + BOUND_SLACK) * n, (threshold - BOUND_SLACK) * n - rest
        total = first.sum(axis=1)
        total -= (lo + hi) / 2
        np.abs(total, out=total)
        return np.count_nonzero(total > (hi - lo) / 2, axis=(1, 2))
    return score, bound


def select_sigma(model, s: Subspace, scheds, X: np.ndarray, streams, *,
                 clamp: tuple | None = None,
                 threshold: float | None = None) -> EnsembleResult:
    """Pick, per row of ``X``, the grid schedule whose ensemble is most confident.

    ``scheds`` is the grid: a non-empty list of schedules of one strategy,
    sorted by sigma. Classification maximizes the top-class probability of
    the mean prediction; segmentation maximizes the number of pixels whose
    mean foreground probability clears ``threshold`` on either side, by
    default the strategy's entry in ``CONFIDENCE_THRESHOLDS``; it must lie
    in (0.5, 1). Ties go to the smaller sigma. The whole grid is one engine
    call on the same streams, so candidates differ only in noise scale, and
    a row's winner equals its plain ensemble at the chosen sigma bit for
    bit, even though a point stops after half its candidates once the
    bound of :func:`_selection_rule` shows it cannot win a row. Returns the
    ensembles that won; ``chosen_sigma`` holds each row's sigma.
    """
    sigmas = [sc.sigma for sc in scheds]
    if not sigmas or sigmas != sorted(sigmas) or len({sc.strategy for sc in scheds}) != 1:
        raise ParamError("a sigma grid must be non-empty, sorted by sigma and of one strategy")
    if not model.output_kind.is_probabilistic:
        raise UnsupportedTaskError(
            f"no uncertainty rule for output kind {model.output_kind.kind!r}"
        )
    if threshold is None:
        threshold = CONFIDENCE_THRESHOLDS[scheds[0].strategy]
    if not 0.5 < threshold < 1:  # a NaN fails too
        raise ParamError(f"the confidence threshold must lie in (0.5, 1), got {threshold}")
    score, bound = _selection_rule(model.output_kind, threshold)
    return run_gtta(model, s, scheds, X, streams, clamp=clamp, score=score, bound=bound)
