"""Noisy latent candidate generation.

Each ensemble candidate is the input's subspace projection plus independent
Gaussian noise per component, reconstructed back to input space. The noise
std along component i scales with the coordinate range and inversely with
the explained-variance ratio:

* constant policy:     sigma_i = range_i * sigma / var_i
* incremental policy:  sigma_i = (j - 1) * range_i * sigma / (N * var_i)

for candidate j of N. Variance ratios are floored at VAR_FLOOR so trailing
components cannot blow the noise up, and components flagged
near-zero-variance get no noise at all. Candidates are made for a block of
input rows [B, d] at once, with one random stream per row; the rows are
projected and their standard normals drawn once, and each noise scale only
rescales those draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, refuse_unindexable
from .rng import standard_normal
from .subspace import Subspace, project, reconstruct

CONSTANT = "constant"
INCREMENTAL = "incremental"
VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class NoiseSchedule:
    strategy: str
    sigma: float
    ensemble_size: int
    sigma_cap: float | None = None

    def __post_init__(self):
        if self.strategy not in (CONSTANT, INCREMENTAL):
            raise ParamError(f"strategy must be constant or incremental, got {self.strategy!r}")
        if not 0 <= self.sigma < math.inf:  # a NaN fails too
            raise ParamError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.ensemble_size < 1:
            raise ParamError(f"ensemble size must be >= 1, got {self.ensemble_size}")
        if self.sigma_cap is not None and not 0 < self.sigma_cap < math.inf:
            raise ParamError(f"sigma_cap must be finite and positive, got {self.sigma_cap}")


def per_component_sigma(sched: NoiseSchedule, s: Subspace) -> np.ndarray:
    """Noise std per candidate and component, shape [N, n_u].

    Row j - 1 holds the stds of candidate j. A row of zeros marks a candidate
    that gets no noise; this matrix is the one place that decides so. An
    ``N x n_u`` matrix of more bytes than numpy can index is a ``ParamError``.
    """
    N, n_u = sched.ensemble_size, s.n_u
    refuse_unindexable((N, n_u), f"an ensemble of N={N} candidates over n_u={n_u} components")
    var = np.maximum(s.variance_ratios, VAR_FLOOR)
    out = np.tile(s.ranges * sched.sigma / var, (N, 1))
    if sched.strategy == INCREMENTAL:
        out = out * np.arange(N)[:, None] / N
    if sched.sigma_cap is not None:
        out = np.minimum(out, sched.sigma_cap * s.ranges)
    out[:, s.dead] = 0.0
    return out


@dataclass(frozen=True)
class LatentDraws:
    """A block of input rows with their projections and standard-normal draws.

    Only the noise scale depends on sigma, so one set of draws serves every
    point of a sigma grid.
    """

    X: np.ndarray     # [B, d]
    base: np.ndarray  # [B, n_u], project(s, X)
    z: np.ndarray     # [B, N, n_u], zero for candidates that get no noise


def draw_latents(sig: np.ndarray, s: Subspace, X: np.ndarray, streams) -> LatentDraws:
    """Project the rows of ``X`` and draw their standard normals, once.

    ``sig`` is one [N, n_u] matrix of :func:`per_component_sigma` or a stack
    [G, N, n_u] of them. Candidate j of row b draws from
    ``streams[b].derive(j)`` when any matrix gives it noise, so a row's draws
    never depend on the rows it is blocked with or on the other noise scales;
    other candidates draw nothing.
    """
    X = np.asarray(X, dtype=np.float64)
    sig = np.asarray(sig)
    noisy = np.flatnonzero(sig.reshape(-1, *sig.shape[-2:]).any(axis=(0, 2)))
    z = np.zeros((len(streams), sig.shape[-2], s.n_u))
    z[:, noisy] = standard_normal(streams, noisy + 1, s.n_u)
    return LatentDraws(X, project(s, X), z)


def latent_candidates(sig: np.ndarray, draws: LatentDraws) -> np.ndarray:
    """The perturbed latent vectors of the drawn rows, shape [B, N, n_u].

    ``sig`` is the [N, n_u] matrix of :func:`per_component_sigma` that scales
    the draws.
    """
    out = sig * draws.z
    out += draws.base[:, None, :]
    return out


def make_candidates(sig: np.ndarray, s, draws: LatentDraws) -> np.ndarray:
    """The candidates of the drawn rows through the affine map ``s``, shape [B, N, d].

    Through a :class:`Subspace` they are reconstructed inputs: a candidate
    whose row of ``sig`` is zero is the input itself when the subspace is
    full rank, so a zero-noise ensemble reproduces the unperturbed input bit
    for bit, else ``reconstruct(project(x))``, one product for the block.
    ``s`` may instead be any map with a ``mean`` [d] and ``components``
    [n_u, d], such as a model's first layer folded into reconstruction
    (``ensemble.FoldedLayer``); there every candidate, quiet or not, is
    ``mean + latents @ components``.
    """
    n_u, d = s.components.shape
    quiet = ~sig.any(axis=1) if isinstance(s, Subspace) else np.zeros(len(sig), dtype=bool)
    out = np.empty((len(draws.X), sig.shape[0], d))
    if not quiet.all():
        latents = latent_candidates(sig, draws).reshape(-1, n_u)
        np.matmul(latents, s.components, out=out.reshape(-1, d))
        out += s.mean
    if quiet.any():
        base = draws.X if s.full_rank else reconstruct(s, draws.base)
        out[:, quiet] = base[:, None]
    return out


def latent_sample_covariance(latents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample covariance of latent rows [N, n_u] and its eigenvalues (descending).

    A stack [B, N, n_u] gives the mean of its B covariances, averaged as
    matrices before the eigendecomposition: averaging sorted eigenvalues
    instead would inflate the spread through the sorting bias. N identical
    rows contribute exactly zero, with no mean wobble.
    """
    latents = np.asarray(latents, dtype=np.float64)
    stack = latents[None] if latents.ndim == 2 else latents
    if stack.ndim != 3 or stack.shape[1] < 2:
        raise DataError(f"need a [N, n_u] matrix with N >= 2, got shape {latents.shape}")
    cov = np.zeros((stack.shape[2], stack.shape[2]))
    for rows in stack:
        if not np.all(rows == rows[0]):
            cov += np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
    cov /= stack.shape[0]
    return cov, np.sort(np.linalg.eigvalsh(cov))[::-1]
