"""Statistical diagnostics for perturbation ensembles.

Four experiments: the bias/variance/error decomposition across noise levels,
latent covariance spectra against a low-rank jitter baseline, the relation
between ensemble spread and true error, and how well reconstruction under
latent noise scrubs a fixed structured distractor from the input.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .ensemble import grid_means, run_gtta
from .errors import DataError, ParamError, ShapeError, UnsupportedTaskError, refuse_unindexable
from .perturb import (
    NoiseSchedule,
    draw_latents,
    latent_candidates,
    latent_sample_covariance,
    make_candidates,
    per_component_sigma,
)
from .rng import RngStream, standard_normal
from .subspace import Subspace, fit, project

# Scales (a, b) of the brightness/contrast baseline (1 + a z_a) x + b z_b.
JITTER_SCALE = (0.1, 0.1)

# Equal-width ensemble-std bins of the spread/error experiment.
STD_ERROR_BINS = 10


def report_dict(report) -> dict:
    """The fields of an experiment report as JSON values; arrays become lists."""
    return {f.name: v.tolist() if isinstance(v := getattr(report, f.name), np.ndarray) else v
            for f in dataclasses.fields(report)}


# --------------------------------------------------------------------------
# bias / variance / error across noise levels


@dataclass(frozen=True)
class BiasVarianceReport:
    rows: list            # dicts: strategy, sigma, bias2, variance, error
    ensemble_size: int
    repeats: int


def _mean_square(gap: np.ndarray) -> float:
    """The mean of ``gap ** 2``, taken over a power-of-two scale so that its sum cannot overflow.

    With ``max |gap| < 2**k``, the mean of ``(gap / 2**k) ** 2`` is at most 1,
    and only scaling it back by ``2**(2k)`` can overflow. Scaling by a power
    of two is exact outside the subnormal range, so the bytes are those of
    the plain mean.
    """
    k = int(np.frexp(np.abs(gap).max())[1])
    return float(np.ldexp(np.mean(np.ldexp(gap, -k) ** 2), 2 * k))


def bias_variance_sweep(model, s: Subspace, scheds, eval_data: Dataset, M: int,
                        rng: RngStream) -> BiasVarianceReport:
    """Monte Carlo decomposition of the ensemble error per noise schedule.

    ``scheds`` is the grid: a non-empty list of schedules of one ensemble
    size N. For each, each evaluation input gets M independent N-candidate
    ensembles. With grand = mean of the M ensemble means:

      bias2    = (grand - target)^2
      variance = mean_m (mean_m' - grand)^2
      error    = mean_m (mean_m' - target)^2

    so error == bias2 + variance identically, all averaged over inputs and
    output elements. Repeat m of input i draws from rng.derive(i).derive(m)
    once, and every schedule rescales those draws. The targets are laid out
    as the model's rows before the first draw. A moment too large for float64
    is a :class:`DataError`.
    """
    if M < 2:
        raise ParamError(f"need at least 2 repeats, got {M}")
    targets = model.output_kind.target_rows(eval_data.targets)
    n = eval_data.n
    refuse_unindexable((n * M, eval_data.inputs.shape[1]), f"a sweep of {M} repeats of {n} rows")
    X = np.repeat(eval_data.inputs, M, axis=0)
    streams = [stream for row in rng.rows(n) for stream in row.rows(M)]
    grid = grid_means(model, s, scheds, X, streams)
    # Every other kind's rows fit by now; a real-valued model's width shows only here.
    if grid[0].shape[1:] != targets.shape[1:]:
        raise ShapeError(f"targets of shape {eval_data.targets.shape} do not fit the ensemble "
                         f"means, of shape {(n, *grid[0].shape[1:])}")
    y = targets[:, None]
    rows = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for sched, means in zip(scheds, grid):
                ens_means = means.reshape((n, M) + means.shape[1:])
                grand = ens_means.mean(axis=1, keepdims=True)
                rows.append({
                    "strategy": sched.strategy,
                    "sigma": float(sched.sigma),
                    "bias2": _mean_square(grand - y),
                    "variance": _mean_square(ens_means - grand),
                    "error": _mean_square(ens_means - y),
                })
    except FloatingPointError:
        raise DataError(f"the ensemble error at sigma {sched.sigma} overflows float64; "
                        "the targets or the model's outputs are too large") from None
    return BiasVarianceReport(rows=rows, ensemble_size=scheds[0].ensemble_size, repeats=M)


# --------------------------------------------------------------------------
# latent covariance spectra


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray                # latent-noise ensemble, descending
    baseline_eigenvalues: np.ndarray | None
    n_inputs: int
    ensemble_size: int


def _global_jitter(X: np.ndarray, streams, N: int) -> np.ndarray:
    """N brightness/contrast jitters (1 + a z_a) x + b z_b of each row, [B, N, d]."""
    z = standard_normal(streams, range(1, N + 1), 2)
    sa, sb = JITTER_SCALE
    return (1.0 + sa * z[..., :1]) * X[:, None, :] + sb * z[..., 1:]


def covariance_spectrum_experiment(s: Subspace, sched: NoiseSchedule,
                                   inputs: np.ndarray, rng: RngStream, *,
                                   baseline: str = "none",
                                   equal_sigma: float | None = None) -> SpectrumReport:
    """Eigenvalues of the averaged latent sample covariance over the inputs.

    Each input row of ``inputs`` [n, d] gets an ensemble of
    ``sched.ensemble_size`` latent candidates.
    ``equal_sigma`` overrides the schedule with one shared noise std on
    every component. ``baseline="global_jitter"`` also reports the spectrum
    of a two-parameter brightness/contrast transform projected into the
    same latent space.
    """
    N = sched.ensemble_size
    if N < 2:
        raise ParamError(f"need N >= 2, got {N}")
    if baseline not in ("none", "global_jitter"):
        raise ParamError(f"unknown baseline {baseline!r}")
    if equal_sigma is not None and not 0 <= equal_sigma < np.inf:  # a NaN fails too
        raise ParamError(f"equal_sigma must be finite and nonnegative, got {equal_sigma}")
    X, n = inputs, len(inputs)

    streams = rng.derive(1).rows(n)
    sig = per_component_sigma(sched, s)
    if equal_sigma is not None:
        sig = np.full_like(sig, float(equal_sigma))
    latents = latent_candidates(sig, draw_latents(sig, s, X, streams))
    eigenvalues = latent_sample_covariance(latents)[1]

    baseline_eigs = None
    if baseline == "global_jitter":
        jittered = _global_jitter(X, rng.derive(2).rows(n), N)
        baseline_eigs = latent_sample_covariance(
            project(s, jittered.reshape(-1, s.d)).reshape(n, N, s.n_u))[1]

    return SpectrumReport(
        eigenvalues=eigenvalues,
        baseline_eigenvalues=baseline_eigs,
        n_inputs=n,
        ensemble_size=N,
    )


# --------------------------------------------------------------------------
# ensemble spread vs true error


@dataclass(frozen=True)
class CorrelationReport:
    bin_edges: np.ndarray
    bin_mae: list            # mean absolute error per bin, None where empty
    bin_counts: np.ndarray
    pearson: float | None
    degenerate: bool
    n_elements: int


def _pearson_r(x, y) -> float | None:
    """Pearson correlation, or None when either side is constant."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd**2).sum() * (yd**2).sum())
    if denom == 0:
        return None
    return float((xd * yd).sum() / denom)


def std_error_correlation(model, s: Subspace, sched: NoiseSchedule,
                          eval_data: Dataset, rng: RngStream) -> CorrelationReport:
    """Pool per-element (ensemble std, absolute error) pairs over the inputs."""
    if not model.output_kind.is_probabilistic:
        raise UnsupportedTaskError("spread/error correlation needs probability outputs")
    targets = model.output_kind.target_rows(eval_data.targets)
    result = run_gtta(model, s, sched, eval_data.inputs, rng.rows(eval_data.n))
    std = result.std_map.ravel()
    err = np.abs(result.mean_prediction - targets).ravel()

    lo, hi = float(std.min()), float(std.max())
    degenerate = hi - lo < 1e-12
    bins = STD_ERROR_BINS
    edges = np.linspace(lo, hi if not degenerate else lo + 1.0, bins + 1)
    idx = np.clip(((std - edges[0]) / (edges[-1] - edges[0]) * bins).astype(int), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    mae = [
        float(err[idx == b].mean()) if counts[b] else None
        for b in range(bins)
    ]
    return CorrelationReport(
        bin_edges=edges,
        bin_mae=mae,
        bin_counts=counts,
        pearson=None if degenerate else _pearson_r(std, err),
        degenerate=degenerate,
        n_elements=int(std.size),
    )


# --------------------------------------------------------------------------
# structured distractor removal


@dataclass(frozen=True)
class StructuredNoiseReport:
    correlation: float             # mean |cos(residual, pattern)| under latent noise
    baseline_correlation: float    # same statistic for the global jitter
    per_row: list = field(repr=False, default_factory=list)


def _pattern_correlation(residuals: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Mean |cos(residual, pattern)| over the candidates of each row of [B, N, d]."""
    pnorm = np.linalg.norm(pattern)
    if pnorm == 0:
        return np.zeros(residuals.shape[0])
    rnorm = np.linalg.norm(residuals, axis=-1)
    safe = np.where(rnorm == 0, 1.0, rnorm)
    cos = np.abs(residuals @ pattern) / (safe * pnorm)
    return np.where(rnorm == 0, 0.0, cos).mean(axis=-1)


def structured_noise_removal(carrier: np.ndarray, pattern: np.ndarray,
                             sched: NoiseSchedule, rng: RngStream, *,
                             inject_fraction: float = 0.5,
                             retain="all",
                             test_count: int | None = None) -> StructuredNoiseReport:
    """How much of a fixed additive pattern survives noisy reconstruction.

    The [n, d] rows of ``carrier`` are split into fit and held-out rows.
    The pattern is injected into ``inject_fraction`` of the fit rows, the
    subspace is fit on that contaminated set, and held-out rows carrying the
    pattern are perturbed and reconstructed. The report compares the mean
    normalized correlation between (reconstruction - clean input) and the
    pattern against the same statistic for a two-parameter global jitter.
    """
    pattern = np.asarray(pattern, dtype=np.float64)
    n, d = carrier.shape
    if pattern.shape != (d,):
        raise ParamError(f"pattern must have shape ({d},), got {pattern.shape}")
    if not 0 <= inject_fraction <= 1:
        raise ParamError(f"inject_fraction must lie in [0, 1], got {inject_fraction}")

    if test_count is None:
        test_count = max(1, n // 5)
    if test_count >= n - 1:
        raise ParamError("not enough rows to hold out a test split")
    order = rng.derive(1).generator().permutation(n)
    test_rows = carrier[order[:test_count]]
    fit_rows = carrier[order[test_count:]].copy()

    n_inject = int(round(inject_fraction * fit_rows.shape[0]))
    fit_rows[:n_inject] += pattern
    s = fit(fit_rows, retain)

    x_pat = test_rows + pattern
    clean = test_rows[:, None, :]
    sig = per_component_sigma(sched, s)
    cands = make_candidates(sig, s, draw_latents(sig, s, x_pat, rng.derive(2).rows(test_count)))
    jittered = _global_jitter(x_pat, rng.derive(3).rows(test_count), sched.ensemble_size)
    gtta_corr = _pattern_correlation(cands - clean, pattern)
    base_corr = _pattern_correlation(jittered - clean, pattern)

    return StructuredNoiseReport(
        correlation=float(np.mean(gtta_corr)),
        baseline_correlation=float(np.mean(base_corr)),
        per_row=[{"latent_noise": float(g), "global_jitter": float(b)}
                 for g, b in zip(gtta_corr, base_corr)],
    )
