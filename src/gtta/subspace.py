"""Principal-subspace fitting, projection, and reconstruction.

A fitted :class:`Subspace` holds the mean, orthonormal component rows, the
fraction of total variance each component explains, and the range (max minus
min) of the reference set's coordinates along each component. Projection
always centers by the mean and reconstruction always adds it back, so the
full-rank round trip is the identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, FormatError, ParamError, ShapeError
from .tensorio import load_container, save_container, save_json

# Components explaining less than this fraction of variance are numerically
# unreliable; they are kept only under retain="all" and get zero noise later.
DEAD_RATIO = 1e-12


@dataclass(frozen=True)
class Subspace:
    mean: np.ndarray             # [d]
    components: np.ndarray       # [n_u, d], orthonormal rows
    variance_ratios: np.ndarray  # [n_u], non-increasing, each in [0, 1]
    ranges: np.ndarray           # [n_u], nonnegative
    dead: np.ndarray = field(default=None)  # [n_u] bool, near-zero variance
    fit_fingerprint: str | None = None
    range_source: str = "fit_set"

    def __post_init__(self):
        if self.dead is None:
            object.__setattr__(self, "dead", self.variance_ratios < DEAD_RATIO)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def n_u(self) -> int:
        return self.components.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.n_u == self.d


def _as_matrix(reference) -> np.ndarray:
    if isinstance(reference, Dataset):
        return reference.inputs
    arr = np.asarray(reference, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"reference must be [n, d], got shape {arr.shape}")
    return arr


def _decompose(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (singular values, component rows) of the centered data matrix."""
    n, d = centered.shape
    if d > 4 * n:
        # Gram path: eigendecompose the small n x n matrix instead of
        # running an SVD on a very wide matrix.
        gram = centered @ centered.T
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        evals = np.clip(evals[order], 0.0, None)
        svals = np.sqrt(evals)
        comps = np.zeros((len(svals), d))
        nonzero = svals > 0
        comps[nonzero] = (centered.T @ evecs[:, order][:, nonzero]).T / svals[nonzero, None]
        return svals, comps
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    return svals, vt


def fit(reference, retain, range_reference=None) -> Subspace:
    """Fit the principal subspace of ``reference``.

    ``retain`` selects how many components to keep:

    * a float in (0, 1]: the smallest count whose cumulative variance ratio
      reaches that fraction (near-zero-variance components never count);
    * an int: exactly that many components;
    * ``"all"``: every computable component, i.e. min(n - 1, d).

    Coordinate ranges are measured over ``range_reference`` when given, else
    over the fit set itself.
    """
    X = _as_matrix(reference)
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 reference rows, got {n}")

    mean = X.mean(axis=0)
    centered = X - mean
    svals, comps = _decompose(centered)

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

    ref = _as_matrix(range_reference) if range_reference is not None else X
    if ref.shape[1] != d:
        raise ShapeError(f"range reference has d={ref.shape[1]}, fit set has d={d}")
    proj = (ref - mean) @ comps.T
    ranges = proj.max(axis=0) - proj.min(axis=0)

    fingerprint = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()
    return Subspace(
        mean=mean,
        components=comps,
        variance_ratios=ratios,
        ranges=ranges,
        fit_fingerprint=fingerprint,
        range_source="external" if range_reference is not None else "fit_set",
    )


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
    """Return mean + sum_i p_i u_i."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (s.n_u,):
        raise ShapeError(f"expected coordinates of shape ({s.n_u},), got {p.shape}")
    return s.mean + p @ s.components


def save_subspace(s: Subspace, path) -> None:
    """Write the subspace and a JSON metadata sidecar next to it."""
    save_container(
        {
            "mean": s.mean,
            "components": s.components,
            "variance_ratios": s.variance_ratios,
            "ranges": s.ranges,
        },
        path,
    )
    meta = {
        "d": s.d,
        "n_u": s.n_u,
        "dead_components": int(s.dead.sum()),
        "fit_fingerprint": s.fit_fingerprint,
        "range_source": s.range_source,
    }
    save_json(meta, str(path) + ".json")


def _load_sidecar(path) -> dict:
    """The metadata sidecar as a dict; a missing sidecar is allowed and gives {}."""
    try:
        with open(path, "rb") as fh:
            meta = json.loads(fh.read())
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise FormatError(f"subspace sidecar {path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"subspace sidecar {path} is not a JSON object")
    if not isinstance(meta.get("fit_fingerprint"), (str, type(None))):
        raise FormatError(f"subspace sidecar {path}: fit_fingerprint must be a string or null")
    if meta.get("range_source", "fit_set") not in ("fit_set", "external"):
        raise FormatError(f"subspace sidecar {path}: range_source must be fit_set or external")
    return meta


def load_subspace(path) -> Subspace:
    sections = load_container(path)
    missing = {"mean", "components", "variance_ratios", "ranges"} - sections.keys()
    if missing:
        raise FormatError(f"subspace file missing sections: {sorted(missing)}")
    mean, components = sections["mean"], sections["components"]
    ratios = sections["variance_ratios"].reshape(-1)
    ranges = sections["ranges"].reshape(-1)
    if (mean.ndim != 1 or components.shape[1:] != mean.shape
            or ratios.shape != components.shape[:1] or ranges.shape != ratios.shape):
        raise FormatError(f"subspace {path}: mean {mean.shape}, components {components.shape}, "
                          f"ratios {ratios.shape} and ranges {ranges.shape} are not "
                          "[d], [n_u, d], [n_u] and [n_u]")
    meta = _load_sidecar(str(path) + ".json")
    s = Subspace(
        mean=mean,
        components=components,
        variance_ratios=ratios,
        ranges=ranges,
        fit_fingerprint=meta.get("fit_fingerprint"),
        range_source=meta.get("range_source", "fit_set"),
    )
    # The sizes a sidecar records must be the tensors' own, or it belongs to another fit.
    for name, actual in (("d", s.d), ("n_u", s.n_u), ("dead_components", int(s.dead.sum()))):
        if name in meta and (type(meta[name]) is not int or meta[name] != actual):
            raise FormatError(f"subspace sidecar {path}.json gives {name} = {meta[name]!r}, "
                              f"but the tensors give {actual}")
    return s
