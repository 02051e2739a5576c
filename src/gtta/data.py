"""Datasets and the output kind that decides how model outputs and targets are read.

Output conventions by kind, for a batch of ``b`` inputs:

* ``probabilities``: [b, num_classes] rows in [0, 1] summing to 1
* ``real_values``: [b] for one value per row, else [b, k]
* ``per_pixel_probabilities``: [b, H, W] foreground probabilities in [0, 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, PredictorError, ShapeError, refuse_unindexable

PROBABILITIES = "probabilities"
REAL_VALUES = "real_values"
PER_PIXEL = "per_pixel_probabilities"

# Tolerance on the row sums of class probabilities.
ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class OutputKind:
    """What a model emits per input row; invalid kinds fail on construction."""

    kind: str
    num_classes: int | None = None
    image_shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind == PROBABILITIES:
            if self.num_classes is None or self.num_classes < 2:
                raise ParamError(f"probabilities need num_classes >= 2, got {self.num_classes}")
        elif self.kind == PER_PIXEL:
            shape = self.image_shape
            if shape is None or len(shape) != 2 or min(shape) < 1:
                raise ParamError(f"per-pixel outputs need a positive (H, W), got {shape}")
        elif self.kind != REAL_VALUES:
            raise ParamError(f"unknown output kind {self.kind!r}")

    @staticmethod
    def probabilities(num_classes: int) -> "OutputKind":
        return OutputKind(PROBABILITIES, num_classes=num_classes)

    @staticmethod
    def real_values() -> "OutputKind":
        return OutputKind(REAL_VALUES)

    @staticmethod
    def per_pixel(height: int, width: int) -> "OutputKind":
        return OutputKind(PER_PIXEL, image_shape=(height, width))

    @property
    def is_probabilistic(self) -> bool:
        return self.kind in (PROBABILITIES, PER_PIXEL)

    @property
    def head_width(self) -> int | None:
        """Values per row a model of this kind emits; None when any width will do."""
        if self.kind == PROBABILITIES:
            return self.num_classes
        if self.kind == PER_PIXEL:
            h, w = self.image_shape
            return h * w
        return None

    def check_outputs(self, out: np.ndarray, b: int) -> np.ndarray:
        """``out`` if it is ``b`` valid outputs, one real value a row as [b]; else PredictorError."""
        if self.kind == REAL_VALUES:
            if out.ndim not in (1, 2) or out.shape[0] != b:
                raise PredictorError(f"expected [{b}] or [{b}, k] real values, got shape {out.shape}")
            return out[:, 0] if out.ndim == 2 and out.shape[1] == 1 else out
        expected = (b, self.num_classes) if self.kind == PROBABILITIES else (b, *self.image_shape)
        if out.shape != expected:
            raise PredictorError(f"expected {self.kind} of shape {expected}, got {out.shape}")
        if out.size and not (out.min() >= 0 and out.max() <= 1):  # a NaN fails both
            raise PredictorError(f"{self.kind} outside [0, 1]")
        if self.kind == PROBABILITIES and not np.all(np.abs(out.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
            raise PredictorError(f"class probabilities do not sum to 1 within {ROW_SUM_TOL}")
        return out

    def target_rows(self, targets: np.ndarray) -> np.ndarray:
        """``targets`` as the [n, *out] rows a perfect model of this kind would emit.

        Row i is read as the values of ``targets[i]`` in order, whatever its
        shape: one class index in [0, C), one-hot as [n, C]; H*W values in
        [0, 1], as [n, H, W]; or one real value, as [n]. Another count of
        values per row is a :class:`ShapeError` and a value out of range a
        :class:`DataError`.
        """
        t = np.asarray(targets, dtype=np.float64)
        n = t.shape[0]
        shape = (n, *self.image_shape) if self.kind == PER_PIXEL else (n,)
        if t.size != math.prod(shape):
            per_row = math.prod(shape[1:])
            raise ShapeError(f"{self.kind} targets need {per_row} value{'s' * (per_row > 1)} "
                             f"per row, as in shape {shape}; got shape {t.shape}")
        t = t.reshape(shape)
        if self.kind == PROBABILITIES:
            if not np.all(t == np.round(t)):
                raise DataError("classification targets must be integers")
            if t.min() < 0 or t.max() >= self.num_classes:
                raise DataError(f"class indices must lie in [0, {self.num_classes})")
            return one_hot(t, self.num_classes)
        if self.kind == PER_PIXEL and not (t.min() >= 0 and t.max() <= 1):
            raise DataError(f"per-pixel targets must lie in [0, 1], "
                            f"got values in [{t.min()}, {t.max()}]")
        return t


@dataclass(frozen=True)
class Dataset:
    """Rows of flattened samples and their aligned targets.

    Targets are whatever :meth:`OutputKind.target_rows` accepts for the output
    kind, checked on construction: ``[n]`` class indices, ``[n, H, W]`` masks
    or ``[n]`` real values, or the same values per row in another shape.
    """

    inputs: np.ndarray
    targets: np.ndarray
    output_kind: OutputKind

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise DataError(f"inputs must be [n, d] with n >= 1, got shape {self.inputs.shape}")
        if self.targets.shape[0] != self.n:
            raise DataError(f"targets first dimension {self.targets.shape[0]} != n {self.n}")
        self.output_kind.target_rows(self.targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    n = labels.shape[0]
    refuse_unindexable((n, num_classes), f"a one-hot layout of {n} rows by {num_classes} classes")
    out = np.zeros((n, num_classes))
    out[np.arange(n), labels.astype(int)] = 1.0
    return out

