"""End-to-end perturbation ensembles: candidates, aggregation, uncertainty.

The ensemble mean is the final prediction and the per-element population
standard deviation of the candidate outputs is its uncertainty. For
probability-valued outputs the std never exceeds 0.5, so the consensus
weight 1 - std stays in [0.5, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PER_PIXEL, PROBABILITIES
from .errors import ParamError, UnsupportedTaskError
from .perturb import NoiseSchedule, make_candidates
from .rng import RngStream
from .subspace import Subspace

# Noise grid bracketing the useful range for unit-scale data.
DEFAULT_SIGMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)

# Pixel-confidence cutoffs for the segmentation selection rule, per strategy.
CONFIDENCE_THRESHOLDS = {"constant": 0.8, "incremental": 0.75}


@dataclass(frozen=True)
class EnsembleResult:
    candidates: np.ndarray       # [N, *out]
    mean_prediction: np.ndarray  # [*out]
    std_map: np.ndarray          # [*out], population std over candidates
    chosen_sigma: float
    schedule: NoiseSchedule


def _aggregate(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Identical candidates aggregate exactly: the mean is the common value
    # and the std is exactly zero, with no float summation wobble.
    if np.all(outputs == outputs[0]):
        return outputs[0].copy(), np.zeros_like(outputs[0])
    return outputs.mean(axis=0), outputs.std(axis=0)


def run_gtta(model, s: Subspace, sched: NoiseSchedule, x: np.ndarray,
             rng: RngStream, clamp: tuple | None = None) -> EnsembleResult:
    """Perturb ``x`` N times, predict every candidate, aggregate.

    ``clamp=(lo, hi)`` clips reconstructed candidates into the valid input
    range before prediction; off by default. When all candidates coincide
    (zero noise) the model runs once and the result equals the plain model
    output bit for bit.
    """
    cands = make_candidates(sched, s, x, rng)
    if clamp is not None:
        cands = np.clip(cands, clamp[0], clamp[1])
    if np.all(cands == cands[0]):
        single = model.predict(cands[:1])
        outputs = np.broadcast_to(single[0], (sched.ensemble_size,) + single[0].shape).copy()
    else:
        outputs = np.asarray(model.predict(cands))
    mean, std = _aggregate(outputs)
    return EnsembleResult(
        candidates=outputs,
        mean_prediction=mean,
        std_map=std,
        chosen_sigma=sched.sigma,
        schedule=sched,
    )


@dataclass(frozen=True)
class SigmaSearchConfig:
    grid: tuple = DEFAULT_SIGMA_GRID
    ensemble_size: int = 15
    confidence_threshold: float | None = None  # default depends on strategy
    var_floor: float = 1e-6
    sigma_cap: float | None = None
    clamp: tuple | None = None

    def __post_init__(self):
        if len(self.grid) == 0:
            raise ParamError("sigma grid is empty")
        g = list(self.grid)
        if any(v < 0 for v in g) or g != sorted(g):
            raise ParamError("sigma grid must be sorted and nonnegative")

    def threshold_for(self, strategy: str) -> float:
        if self.confidence_threshold is not None:
            return self.confidence_threshold
        return CONFIDENCE_THRESHOLDS[strategy]


def _confidence(result: EnsembleResult, output_kind, threshold: float) -> float:
    if output_kind.kind == PROBABILITIES:
        return float(result.mean_prediction.max())
    if output_kind.kind == PER_PIXEL:
        p = result.mean_prediction
        # A pixel counts as confident when the ensemble commits to either
        # class, foreground or background.
        return float(np.count_nonzero((p > threshold) | (p < 1 - threshold)))
    raise UnsupportedTaskError("sigma selection needs probability-valued outputs")


def select_sigma(model, s: Subspace, strategy: str, x: np.ndarray,
                 cfg: SigmaSearchConfig, rng: RngStream) -> tuple[float, EnsembleResult]:
    """Pick the grid noise level whose ensemble output is most confident.

    Classification maximizes the top-class probability of the mean
    prediction; segmentation maximizes the number of pixels whose mean
    foreground probability clears the confidence threshold on either side.
    Ties go to the smaller sigma. Every grid point is evaluated with the
    same stream, so candidates differ only in noise scale.
    """
    if not model.output_kind.is_probabilistic:
        raise UnsupportedTaskError(
            f"no uncertainty rule for output kind {model.output_kind.kind!r}"
        )
    threshold = cfg.threshold_for(strategy)
    best = None
    for sigma in cfg.grid:
        sched = NoiseSchedule(
            strategy, float(sigma), cfg.ensemble_size,
            var_floor=cfg.var_floor, sigma_cap=cfg.sigma_cap,
        )
        result = run_gtta(model, s, sched, x, rng, clamp=cfg.clamp)
        score = _confidence(result, model.output_kind, threshold)
        if best is None or score > best[0]:
            best = (score, float(sigma), result)
    _, sigma, result = best
    return sigma, result


def uncertainty_weights(result: EnsembleResult, output_kind) -> np.ndarray:
    """Consensus weights 1 - std, clamped into [0, 1]."""
    if not output_kind.is_probabilistic:
        raise UnsupportedTaskError(
            f"uncertainty weights need probability outputs, got {output_kind.kind!r}"
        )
    return np.clip(1.0 - result.std_map, 0.0, 1.0)
