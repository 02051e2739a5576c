"""End-to-end perturbation ensembles: candidates, aggregation, uncertainty.

The ensemble mean is the final prediction and the per-element population
standard deviation of the candidate outputs is its uncertainty. The engine,
:func:`run_gtta`, takes a block of input rows with one random stream per row
and one noise schedule, or a grid of them for sigma selection. A grid point
is scored from its ensemble means alone: only each row's winning candidate
outputs are kept, and their std is taken once. A built-in MLP takes the
noisy latents through its first layer folded into reconstruction, so no
input-space candidate is built for it unless ``clamp`` needs one. For
probability-valued outputs the std never exceeds 0.5, so the consensus
weight 1 - std stays in [0.5, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perturb
from .data import PER_PIXEL, PROBABILITIES
from .errors import ParamError, ShapeError, UnsupportedTaskError
from .perturb import NoiseSchedule, make_candidates
from .predictor import MlpModel
from .subspace import Subspace

# Version of the engine's arithmetic, recorded in every provenance.json. It
# moves when the last bits of the ensemble outputs do: engine 2 folds a
# built-in MLP's first layer into reconstruction.
ENGINE = 2

# Noise grid bracketing the useful range for unit-scale data.
DEFAULT_SIGMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)

# Pixel-confidence cutoffs for the segmentation selection rule, per strategy.
CONFIDENCE_THRESHOLDS = {"constant": 0.8, "incremental": 0.75}


# Input rows per engine step; the model sees BLOCK_ROWS * N candidate rows per
# call. Fixed, so the bytes of a run depend only on its inputs. Measured on a
# 200-row, d = 1024, N = 15 predict (one BLAS thread): 8 rows ran fastest of
# 1 to 32, and peak memory grows with the block.
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

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def n_u(self) -> int:
        return self.components.shape[0]


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


def _grid(model, s: Subspace, scheds, X, streams, clamp):
    """Per block of BLOCK_ROWS rows, an iterator over its :func:`_ensemble` per schedule.

    A block's rows are projected and drawn once, when its iterator is made.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or len(streams) != X.shape[0]:
        raise ShapeError(f"need a non-empty [B, d] block and one stream per row, "
                         f"got shape {X.shape} and {len(streams)} streams")
    if len({sc.ensemble_size for sc in scheds}) != 1:
        raise ParamError("a schedule grid needs one ensemble size")
    sigs = np.stack([perturb.per_component_sigma(sc, s) for sc in scheds])
    # Clipping happens in input space, so --clamp keeps the reconstruction.
    fold = _fold(model, s) if isinstance(model, MlpModel) and clamp is None and sigs.any() else None
    return (_block(model, s, fold, sigs, X[lo:lo + BLOCK_ROWS], streams[lo:lo + BLOCK_ROWS], clamp)
            for lo in range(0, X.shape[0], BLOCK_ROWS))


def _block(model, s, fold, sigs, X, streams, clamp):
    """The ensembles of one block of rows, one per noise matrix of ``sigs``."""
    draws = perturb.draw_latents(sigs, s, X, streams)
    return (_ensemble(model, s, fold, sig, draws, clamp) for sig in sigs)


def run_gtta(model, s: Subspace, sched, X: np.ndarray, streams,
             clamp: tuple | None = None, score=None) -> EnsembleResult:
    """Perturb every row of ``X`` N times, predict every candidate, aggregate.

    ``sched`` is one :class:`NoiseSchedule` or a grid of schedules with one
    ensemble size. On a grid, ``score`` maps the [b, *out] ensemble means of
    b rows to one score per row, and each row keeps its best-scoring
    ensemble; ties go to the earlier schedule. Row i draws its noise from
    ``streams[i]`` on every schedule, so each row is projected and its
    standard normals are drawn once, and the schedules only rescale them.
    Only the winning candidate outputs are kept, and the std is taken from
    them once per block.

    Rows run BLOCK_ROWS at a time, one model call per block and schedule.
    ``clamp=(lo, hi)`` clips reconstructed candidates into the valid input
    range before prediction; off by default. When no candidate of a
    schedule gets noise the N candidates coincide, so each row is predicted
    once, alone, and the result equals the plain model output bit for bit.
    Otherwise an :class:`MlpModel` without ``clamp`` maps each noisy latent
    through its folded first layer, built once per call, and the rest of the
    model; its last bits differ from an input-space reconstruction's.
    """
    scheds = [sched] if isinstance(sched, NoiseSchedule) else list(sched)
    if len(scheds) > 1 and score is None:
        raise ParamError("a schedule grid needs a score")
    parts = [_best_ensembles(points, score) for points in _grid(model, s, scheds, X, streams, clamp)]
    mean, std, pick = (np.concatenate(p) for p in zip(*parts))
    return EnsembleResult(mean, std, np.array([sc.sigma for sc in scheds])[pick])


def grid_means(model, s: Subspace, scheds, X: np.ndarray, streams) -> list[np.ndarray]:
    """The [B, *out] ensemble means of ``X`` under each schedule of a grid of one ensemble size.

    Each row is drawn once for the whole grid, so on a grid of one strategy
    each equals ``run_gtta(model, s, sched, X, streams).mean_prediction`` bit for bit.
    """
    blocks = [[mean for _, mean, _ in points] for points in _grid(model, s, scheds, X, streams, None)]
    return [np.concatenate(means) for means in zip(*blocks)]


def _best_ensembles(points, score):
    """Mean, std and the winning schedule's index for each row of one block.

    ``out`` holds each row's winning candidate outputs; a quiet schedule's
    one candidate per row stands for all N of them.
    """
    out, mean, same = next(points)
    pick = np.zeros(len(mean), dtype=np.intp)
    for g, (new_out, new_mean, new_same) in enumerate(points, 1):
        if g == 1:
            best_score = score(mean)
        if out.shape[1] < new_out.shape[1]:
            out = np.broadcast_to(out, new_out.shape).copy()
        new_score = score(new_mean)
        better = new_score > best_score
        best_score = np.where(better, new_score, best_score)
        out[better], mean[better], same[better] = new_out[better], new_mean[better], new_same[better]
        pick[better] = g
    std = out.std(axis=1)
    std[same] = 0.0
    return mean, std, pick


def _ensemble(model, s, fold, sig, draws, clamp):
    """Candidate outputs of one noise matrix over one block, their mean and agreement.

    The outputs are [b, N, *out], or [b, 1, *out] for a quiet schedule,
    whose candidates coincide. A quiet schedule, or one without ``fold``,
    predicts input-space candidates; otherwise the folded first layer's
    pre-activations go through its activation and the rest of the model.
    """
    quiet = not sig.any()
    if fold is None or quiet:
        cands = make_candidates(sig[:1] if quiet else sig, s, draws)
        if clamp is not None:
            cands = np.clip(cands, clamp[0], clamp[1])
    else:
        layer, model = fold
        cands = make_candidates(sig, layer, draws)
        if model.weights:  # the folded layer was hidden, so its ReLU applies
            np.maximum(cands, 0.0, out=cands)
    if quiet:
        out = np.stack([model.predict(c) for c in cands])
    else:
        out = np.asarray(model.predict(cands.reshape(-1, cands.shape[-1])))
        out = out.reshape(cands.shape[:2] + out.shape[1:])
    return out, *_mean(out)


def _confidence(mean: np.ndarray, output_kind, threshold: float) -> np.ndarray:
    """Per-row confidence of [B, *out] mean predictions, shape [B]."""
    if output_kind.kind == PROBABILITIES:
        return mean.max(axis=1)
    if output_kind.kind == PER_PIXEL:
        # A pixel counts as confident when the ensemble commits to either
        # class, foreground or background.
        return np.count_nonzero((mean > threshold) | (mean < 1 - threshold), axis=(1, 2))
    raise UnsupportedTaskError("sigma selection needs probability-valued outputs")


def select_sigma(model, s: Subspace, scheds, X: np.ndarray, streams, *,
                 clamp: tuple | None = None,
                 threshold: float | None = None) -> EnsembleResult:
    """Pick, per row of ``X``, the grid schedule whose ensemble is most confident.

    ``scheds`` is the grid: a non-empty list of schedules of one strategy,
    sorted by sigma. Classification maximizes the top-class probability of
    the mean prediction; segmentation maximizes the number of pixels whose
    mean foreground probability clears ``threshold`` on either side, by
    default the strategy's entry in ``CONFIDENCE_THRESHOLDS``. Ties go to the
    smaller sigma. The whole grid is one engine call on the same streams, so
    candidates differ only in noise scale, and a row's winner equals its
    plain ensemble at the chosen sigma bit for bit. Returns the ensembles
    that won; ``chosen_sigma`` holds each row's sigma.
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
    return run_gtta(model, s, scheds, X, streams, clamp=clamp,
                    score=lambda mean: _confidence(mean, model.output_kind, threshold))


def uncertainty_weights(result: EnsembleResult, output_kind) -> np.ndarray:
    """Consensus weights 1 - std, clamped into [0, 1]."""
    if not output_kind.is_probabilistic:
        raise UnsupportedTaskError(
            f"uncertainty weights need probability outputs, got {output_kind.kind!r}"
        )
    return np.clip(1.0 - result.std_map, 0.0, 1.0)
