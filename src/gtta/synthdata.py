"""Deterministic desk-scale fixtures.

Every generator is a pure function of its spec: the same spec yields the
same bits on every run. Fixtures ship as specs, never as data files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import Dataset, OutputKind
from .errors import ParamError, refuse_unindexable
from .rng import RngStream


# --------------------------------------------------------------------------
# tabular regression


@dataclass(frozen=True)
class TabularSpec:
    n: int = 240
    dim: int = 36
    noise: float = 0.1
    nonlinear_scale: float = 0.5
    splits: tuple = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        n_train, n_val = self.split_rows()
        for name, rows in (("train", n_train), ("val", n_val), ("test", self.n - n_train - n_val)):
            if rows < 1:
                raise ParamError(f"splits {list(self.splits)} leave the {name} split of "
                                 f"n = {self.n} rows empty")

    def split_rows(self) -> tuple[int, int]:
        """Rows in the train and val splits; the test split takes the rest."""
        return int(round(self.splits[0] * self.n)), int(round(self.splits[1] * self.n))


@dataclass(frozen=True)
class TabularData:
    train: Dataset
    val: Dataset
    test: Dataset
    coefficients: np.ndarray


def tabular_target(inputs, coefficients, nonlinear_scale: float) -> np.ndarray:
    """The noiseless generating function: linear plus a mild sine term."""
    inputs = np.asarray(inputs, dtype=np.float64)
    return inputs @ coefficients + nonlinear_scale * np.sin(inputs[:, 0])


def gen_tabular(spec: TabularSpec) -> TabularData:
    refuse_unindexable((spec.n, spec.dim), f"a fixture of {spec.n} rows of width {spec.dim}")
    root = RngStream(spec.seed)
    X = root.derive(1).generator().standard_normal((spec.n, spec.dim))
    coeff = root.derive(2).generator().standard_normal(spec.dim) / np.sqrt(spec.dim)
    y = tabular_target(X, coeff, spec.nonlinear_scale)
    if spec.noise > 0:
        y = y + spec.noise * root.derive(3).generator().standard_normal(spec.n)
    kind = OutputKind.real_values()
    n_train, n_val = spec.split_rows()
    train = Dataset(X[:n_train], y[:n_train], kind)
    val = Dataset(X[n_train : n_train + n_val], y[n_train : n_train + n_val], kind)
    test = Dataset(X[n_train + n_val :], y[n_train + n_val :], kind)
    return TabularData(train, val, test, coeff)


# --------------------------------------------------------------------------
# two-class blobs with an optional structured distractor


@dataclass(frozen=True)
class BlobsSpec:
    n: int = 200
    dim: int = 16
    class_sep: float = 3.0
    cluster_std: float = 1.0
    distractor_amplitude: float = 0.0
    distractor_fraction: float = 0.5
    # Per-class injection rates; None means class-independent injection.
    distractor_fractions: tuple | None = None
    # The pattern derives from this seed, so different row draws can share it.
    pattern_seed: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class BlobsData:
    data: Dataset
    pattern: np.ndarray   # the fixed distractor vector, zero-amplitude allowed
    injected: np.ndarray  # [n] bool, rows that received the pattern


def gen_blobs(spec: BlobsSpec) -> BlobsData:
    refuse_unindexable((spec.n, spec.dim), f"a fixture of {spec.n} rows of width {spec.dim}")
    root = RngStream(spec.seed)
    half = spec.n // 2
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(spec.n - half, dtype=int)])
    labels = labels[root.derive(1).generator().permutation(spec.n)]
    means = np.zeros((2, spec.dim))
    means[0, 0] = -spec.class_sep / 2.0
    means[1, 0] = +spec.class_sep / 2.0
    X = means[labels] + spec.cluster_std * root.derive(2).generator().standard_normal(
        (spec.n, spec.dim)
    )
    # The distractor lives off the class axis so it carries no label signal
    # by itself; per-class injection rates can still make it spurious.
    pattern_root = RngStream(spec.seed if spec.pattern_seed is None else spec.pattern_seed)
    raw = pattern_root.derive(3).generator().standard_normal(spec.dim)
    raw[0] = 0.0
    norm = np.linalg.norm(raw)
    pattern = spec.distractor_amplitude * (raw / norm if norm > 0 else raw)
    draws = root.derive(4).generator().random(spec.n)
    if spec.distractor_fractions is None:
        injected = draws < spec.distractor_fraction
    else:
        rates = np.asarray(spec.distractor_fractions, dtype=np.float64)
        injected = draws < rates[labels]
    if spec.distractor_amplitude != 0:
        X[injected] += pattern
    data = Dataset(X, labels.astype(np.float64), OutputKind.probabilities(2))
    return BlobsData(data, pattern, injected)


# --------------------------------------------------------------------------
# blob images with instance maps and exact counts


# Distance checks that placing one image's blobs may take at worst. A check
# took about 2 us on a 2-core VM, so this is some 2 s; it admits blobs_max <= 100.
_PLACEMENT_CHECKS = 10**6


@dataclass(frozen=True)
class BlobImagesSpec:
    n_images: int = 60
    height: int = 24
    width: int = 24
    blobs_min: int = 1
    blobs_max: int = 3
    radius_min: float = 3.0
    radius_max: float = 4.5
    gap: float = 2.0            # minimum pixel separation between blobs
    overlap: float = 0.0        # > 0 relaxes the separation requirement
    boundary_noise: float = 0.0  # probability of flipping a target pixel near edges
    input_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.radius_min < 1 or self.radius_max < self.radius_min:
            raise ParamError("need 1 <= radius_min <= radius_max")
        if not 1 <= self.blobs_min <= self.blobs_max:
            raise ParamError("need 1 <= blobs_min <= blobs_max")
        if not 0 <= self.overlap < 1:
            raise ParamError(f"overlap must lie in [0, 1), got {self.overlap}")
        # Blob i checks its distance to at most i others on each of its 200 attempts.
        if 100 * self.blobs_max * (self.blobs_max - 1) > _PLACEMENT_CHECKS:
            raise ParamError(f"blobs_max {self.blobs_max} could take 100 * blobs_max * "
                             f"(blobs_max - 1) distance checks to place one image's blobs, "
                             f"over the limit of {_PLACEMENT_CHECKS:g}")
        if min(self.height, self.width) < 2 * self.radius_max + 3:
            raise ParamError(f"{self.height}x{self.width} images cannot hold a blob of "
                             f"radius {self.radius_max}; need height and width "
                             f">= 2 * radius_max + 3")


@dataclass(frozen=True)
class BlobImagesData:
    data: Dataset                 # inputs [n, H*W], targets [n, H, W]
    instance_maps: list           # [H, W] int arrays, 0 background
    counts: np.ndarray            # [n] true object counts
    clean_targets: np.ndarray     # [n, H, W] targets before boundary noise


def _place_blobs(spec: BlobImagesSpec, gen) -> list[tuple]:
    """Blobs ``(cy, cx, r1, r2, theta)``, each kept apart from those placed before it.

    Each of k blobs, k drawn from [blobs_min, blobs_max], gets up to 200
    attempts; one whose attempts all fail is left out. An attempt takes five
    uniform doubles in one draw and maps each as ``low + (high - low) * u``,
    numpy's own formula for ``gen.uniform``, so the stream and every double
    are those of five ``uniform`` calls.
    """
    k = int(gen.integers(spec.blobs_min, spec.blobs_max + 1))
    span = spec.radius_max - spec.radius_min
    placed = []
    for _ in range(k):
        for _attempt in range(200):
            u1, u2, u3, u4, u5 = gen.random(5).tolist()
            r1, r2 = spec.radius_min + span * u1, spec.radius_min + span * u2
            theta = np.pi * u3
            rmax = max(r1, r2)
            cy = (rmax + 1) + ((spec.height - rmax - 2) - (rmax + 1)) * u4
            cx = (rmax + 1) + ((spec.width - rmax - 2) - (rmax + 1)) * u5
            ok = all(
                np.hypot(cy - oy, cx - ox)
                >= (rmax + max(orr1, orr2) + spec.gap) * (1.0 - spec.overlap)
                for oy, ox, orr1, orr2, _ in placed
            )
            if ok:
                placed.append((cy, cx, r1, r2, theta))
                break
    return placed


def _ellipse_box(height, width, cy, cx, r1, r2, theta) -> tuple[tuple, np.ndarray]:
    """The ellipse's bounding box, as two slices, and its mask on that box.

    The box is ``[floor(c - r), ceil(c + r)]`` along each axis, with
    ``r = max(r1, r2)``, clipped to the image. A pixel is in the ellipse when
    ``(u / r1)**2 + (v / r2)**2 <= 1``, where (u, v) is its offset from the
    centre rotated by ``theta``; the box evaluates that on its own integer
    coordinates only, with the same elementwise operations as over the whole
    image, so every bit inside the box is that of the full-image mask.

    Nothing outside the box is in the ellipse. A pixel outside lies at least
    ``r + 1`` from the centre along one axis, and the rotation keeps
    ``u**2 + v**2 = dx**2 + dy**2``, so its quadratic form is at least
    ``(u**2 + v**2) / r**2 >= ((r + 1) / r)**2 > 1``: a margin of more than
    ``2 / r``, far wider than rounding.
    """
    r = max(r1, r2)
    y0, y1 = max(int(np.floor(cy - r)), 0), min(int(np.ceil(cy + r)), height - 1)
    x0, x1 = max(int(np.floor(cx - r)), 0), min(int(np.ceil(cx + r)), width - 1)
    dy = np.arange(y0, y1 + 1)[:, None] - cy
    dx = np.arange(x0, x1 + 1) - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (slice(y0, y1 + 1), slice(x0, x1 + 1)), (u / r1) ** 2 + (v / r2) ** 2 <= 1.0


def _boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Pixels within one step of the foreground boundary, either side."""
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    interior = np.ones((h, w), dtype=bool)
    dilated = np.zeros((h, w), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            window = padded[1 + di : 1 + di + h, 1 + dj : 1 + dj + w]
            interior &= window
            dilated |= window
    return dilated & ~interior


def gen_blob_images(spec: BlobImagesSpec) -> BlobImagesData:
    refuse_unindexable((spec.n_images, spec.height, spec.width),
                       f"a fixture of {spec.n_images} {spec.height}x{spec.width} images")
    root = RngStream(spec.seed)
    inputs = np.empty((spec.n_images, spec.height * spec.width))
    targets = np.empty((spec.n_images, spec.height, spec.width))
    clean_targets = np.empty_like(targets)
    instance_maps = []
    counts = np.empty(spec.n_images, dtype=int)

    for i in range(spec.n_images):
        gen = root.derive(10).derive(i).generator()
        placed = _place_blobs(spec, gen)
        instances = np.zeros((spec.height, spec.width), dtype=np.int64)
        for obj_id, (cy, cx, r1, r2, theta) in enumerate(placed, start=1):
            box, mask = _ellipse_box(spec.height, spec.width, cy, cx, r1, r2, theta)
            instances[box][mask] = obj_id
        foreground = instances > 0
        clean = foreground.astype(np.float64)
        noisy = clean.copy()
        if spec.boundary_noise > 0:
            band = _boundary_pixels(foreground)
            flips = band & (gen.random(foreground.shape) < spec.boundary_noise)
            noisy[flips] = 1.0 - noisy[flips]
        image = clean + spec.input_noise * gen.standard_normal(foreground.shape)
        inputs[i] = image.ravel()
        targets[i] = noisy
        clean_targets[i] = clean
        instance_maps.append(instances)
        counts[i] = len(placed)

    data = Dataset(inputs, targets, OutputKind.per_pixel(spec.height, spec.width))
    return BlobImagesData(data, instance_maps, counts, clean_targets)


# --------------------------------------------------------------------------
# JSON spec plumbing for the command line


_SPEC_TYPES = {"tabular": TabularSpec, "blobs": BlobsSpec, "images": BlobImagesSpec}
# Tuple fields and their lengths (one distractor rate per blob class); the
# fields whose values are counts, are not negative, or lie in [0, 1].
_LENGTHS = {"splits": 3, "distractor_fractions": 2}
_COUNTS = {"n", "dim", "n_images", "height", "width", "blobs_min", "blobs_max"}
_NONNEGATIVE = {"noise", "cluster_std", "input_noise"}
_UNIT = {"splits", "distractor_fraction", "distractor_fractions", "boundary_noise"}


def _checked(kind: str, field: dataclasses.Field, value):
    """``value`` for ``field`` of a ``kind`` spec, a tuple for a tuple field."""
    if value is None and field.default is None:
        return None
    name, integer = field.name, field.type.startswith("int")
    items = value if name in _LENGTHS and isinstance(value, list) else [value]
    lo = 1 if name in _COUNTS else 0 if name in _NONNEGATIVE | _UNIT else -np.inf
    hi = 1 if name in _UNIT else np.inf
    if len(items) != _LENGTHS.get(name, 1) or not all(
            isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
            and lo <= v <= hi and -np.inf < v < np.inf for v in items):
        what = "integer" if integer else "finite number"
        what = (f"a list of {_LENGTHS[name]} {what}s" if name in _LENGTHS
                else f"{'an' if integer else 'a'} {what}")
        span = f" in [{lo}, {hi}]" if lo > -np.inf else ""
        raise ParamError(f"{kind} spec field {name!r} must be {what}{span}, got {value!r}")
    return tuple(items) if name in _LENGTHS else value


def spec_from_dict(kind: str, params: dict):
    """The ``kind`` spec of ``params``; each field must hold a value of its type and range."""
    if kind not in _SPEC_TYPES:
        raise ParamError(f"unknown fixture kind {kind!r}")
    fields = {f.name: f for f in dataclasses.fields(_SPEC_TYPES[kind])}
    unknown = set(params) - fields.keys()
    if unknown:
        raise ParamError(f"unknown {kind} spec fields: {sorted(unknown)}")
    return _SPEC_TYPES[kind](**{k: _checked(kind, fields[k], v) for k, v in params.items()})
