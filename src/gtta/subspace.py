"""Principal-subspace fitting, projection, and reconstruction.

A fitted :class:`Subspace` holds the mean, orthonormal component rows, the
fraction of total variance each component explains, and the range (max minus
min) of the fit set's coordinates along each component. Projection
always centers by the mean and reconstruction always adds it back, so the
full-rank round trip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, FormatError, ParamError, ShapeError
from .tensorio import load_container, save_container

# Components explaining less than this fraction of variance are numerically
# unreliable; they are kept only under retain="all" and get zero noise later.
DEAD_RATIO = 1e-12


@dataclass(frozen=True)
class Subspace:
    mean: np.ndarray             # [d]
    components: np.ndarray       # [n_u, d], orthonormal rows
    variance_ratios: np.ndarray  # [n_u], non-increasing, each in [0, 1]
    ranges: np.ndarray           # [n_u], nonnegative

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def n_u(self) -> int:
        return self.components.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.n_u == self.d

    @property
    def dead(self) -> np.ndarray:
        """[n_u] bool: the components of near-zero variance."""
        return self.variance_ratios < DEAD_RATIO


def fit(reference, retain) -> Subspace:
    """Fit the principal subspace of ``reference``.

    ``retain`` selects how many components to keep:

    * a float in (0, 1]: the smallest count whose cumulative variance ratio
      reaches that fraction (near-zero-variance components never count);
    * an int: exactly that many components;
    * ``"all"``: every computable component, i.e. min(n - 1, d).

    Coordinate ranges are measured over the fit set itself.
    """
    X = np.asarray(reference, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"reference must be [n, d], got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 reference rows, got {n}")

    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, comps = np.linalg.svd(centered, full_matrices=False)

    computable = min(n - 1, d)
    svals = svals[:computable]
    comps = comps[:computable]

    eigvals = svals**2 / (n - 1)
    total_var = float(np.sum(centered**2)) / (n - 1)
    ratios = eigvals / total_var if total_var > 0 else np.zeros_like(eigvals)
    n_alive = int(np.sum(ratios >= DEAD_RATIO))

    n_u = _resolve_retain(retain, ratios, computable, n_alive)
    comps = comps[:n_u]
    ratios = ratios[:n_u]

    # Deterministic sign: largest-magnitude entry of each component positive.
    flip = comps[np.arange(n_u), np.argmax(np.abs(comps), axis=1)] < 0
    comps = np.where(flip[:, None], -comps, comps)

    proj = centered @ comps.T
    ranges = proj.max(axis=0) - proj.min(axis=0)
    return Subspace(mean=mean, components=comps, variance_ratios=ratios, ranges=ranges)


def _resolve_retain(retain, ratios, computable: int, n_alive: int) -> int:
    if isinstance(retain, str):
        if retain != "all":
            raise ParamError(f"retain must be a fraction, a count, or 'all', got {retain!r}")
        return computable
    if isinstance(retain, (int, np.integer)) and not isinstance(retain, bool):
        if not 1 <= retain <= computable:
            raise ParamError(f"component count must lie in [1, {computable}], got {retain}")
        return int(retain)
    k = float(retain)
    if not 0 < k <= 1:
        raise ParamError(f"variance fraction must lie in (0, 1], got {k}")
    cum = np.cumsum(ratios)
    idx = int(np.searchsorted(cum, k - 1e-12)) + 1
    return max(1, min(idx, n_alive if n_alive > 0 else 1))


def project(s: Subspace, x: np.ndarray) -> np.ndarray:
    """Centered coordinates of ``x`` along the components: p_i = (x - mean) . u_i.

    ``x`` is one input [d] or a block of inputs [B, d]. Each row is its own
    matrix-vector product, so a row's coordinates never depend on the rows
    it is blocked with.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != s.d:
        raise ShapeError(f"expected input of shape ({s.d},) or (B, {s.d}), got {x.shape}")
    if x.ndim == 1:
        return s.components @ (x - s.mean)
    return np.array([s.components @ (row - s.mean) for row in x]).reshape(len(x), s.n_u)


def reconstruct(s: Subspace, p: np.ndarray) -> np.ndarray:
    """Return mean + sum_i p_i u_i, for one coordinate vector [n_u] or a block [B, n_u] of them.

    A block is one matrix product, so its rows may round differently from
    rows reconstructed alone.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != s.n_u:
        raise ShapeError(f"expected coordinates of shape ({s.n_u},) or (B, {s.n_u}), got {p.shape}")
    return s.mean + p @ s.components


def save_subspace(s: Subspace, path) -> None:
    """Write one section per field of ``s``, named after it, in field order."""
    save_container({f.name: getattr(s, f.name) for f in fields(s)}, path)


def load_subspace(path) -> Subspace:
    """Read a subspace whose ratios lie in [0, 1] and do not increase, whose
    ranges are not negative, and whose component rows are orthonormal (a dead
    component's row may be zero instead, as files of earlier versions hold it)."""
    sections = load_container(path)
    missing = sorted(f.name for f in fields(Subspace) if f.name not in sections)
    if missing:
        raise FormatError(f"subspace file missing sections: {missing}")
    mean, components, ratios, ranges = (sections[f.name] for f in fields(Subspace))
    ratios, ranges = ratios.reshape(-1), ranges.reshape(-1)
    if (mean.ndim != 1 or components.shape[1:] != mean.shape
            or ratios.shape != components.shape[:1] or ranges.shape != ratios.shape):
        raise FormatError(f"subspace {path}: mean {mean.shape}, components {components.shape}, "
                          f"ratios {ratios.shape} and ranges {ranges.shape} are not "
                          "[d], [n_u, d], [n_u] and [n_u]")
    # A rank-1 fit's one ratio may round to 1 + 7e-16.
    if not np.all((ratios >= 0) & (ratios <= 1 + 1e-9)) or np.any(np.diff(ratios) > 0):
        raise FormatError(f"subspace {path}: variance ratios must lie in [0, 1] and not increase")
    if np.any(ranges < 0):
        raise FormatError(f"subspace {path}: coordinate ranges must not be negative")
    s = Subspace(mean=mean, components=components, variance_ratios=ratios, ranges=ranges)
    # Rows of huge entries overflow the Gram; that is a malformed file, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = components @ components.T
    norms = np.diag(gram)
    if (not np.all(np.isfinite(gram))
            or np.any((np.abs(norms - 1) > 1e-6) & ~(s.dead & (norms <= 1e-6)))
            or np.abs(gram - np.diag(norms)).max() > 1e-6):
        raise FormatError(f"subspace {path}: component rows are not orthonormal "
                          "(only a dead component's row may be zero)")
    return s
