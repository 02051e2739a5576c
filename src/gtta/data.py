"""Datasets and the output kind that decides how a model's rows are read.

Output conventions by kind, for a batch of ``b`` inputs:

* ``probabilities``: [b, num_classes] rows in [0, 1] summing to 1
* ``real_values``: [b] or [b, k]
* ``per_pixel_probabilities``: [b, H, W] foreground probabilities in [0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, PredictorError
from .tensorio import load_tensor

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

    def check_outputs(self, out: np.ndarray, b: int) -> None:
        """Raise :class:`PredictorError` unless ``out`` is a valid batch of ``b`` outputs."""
        if self.kind == REAL_VALUES:
            if out.ndim not in (1, 2) or out.shape[0] != b:
                raise PredictorError(f"expected [{b}] or [{b}, k] real values, got shape {out.shape}")
            return
        expected = (b, self.num_classes) if self.kind == PROBABILITIES else (b, *self.image_shape)
        if out.shape != expected:
            raise PredictorError(f"expected {self.kind} of shape {expected}, got {out.shape}")
        if out.size and not (out.min() >= 0 and out.max() <= 1):  # a NaN fails both
            raise PredictorError(f"{self.kind} outside [0, 1]")
        if self.kind == PROBABILITIES and not np.all(np.abs(out.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
            raise PredictorError(f"class probabilities do not sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class Dataset:
    """Rows of flattened samples, with optional aligned targets.

    Targets are ``[n]`` class indices, ``[n]`` real values, or ``[n, H, W]``
    per-pixel masks depending on the output kind.
    """

    inputs: np.ndarray
    targets: np.ndarray | None
    output_kind: OutputKind

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise DataError(f"inputs must be [n, d] with n >= 1, got shape {self.inputs.shape}")
        if self.targets is not None:
            if self.targets.shape[0] != self.n:
                raise DataError(
                    f"targets first dimension {self.targets.shape[0]} != n {self.n}"
                )
            if self.output_kind.kind == PROBABILITIES:
                t = self.targets
                if not np.all(t == np.round(t)):
                    raise DataError("classification targets must be integers")
                if t.min() < 0 or t.max() >= self.output_kind.num_classes:
                    raise DataError(
                        f"class indices must lie in [0, {self.output_kind.num_classes})"
                    )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def subset(self, index) -> "Dataset":
        targets = None if self.targets is None else self.targets[index]
        return Dataset(self.inputs[index], targets, self.output_kind)


def load_dataset(inputs_path, output_kind: OutputKind, targets=None, *,
                 target_col_last: bool = False, header: bool = False) -> Dataset:
    """Load a dataset's inputs from a GTT/CSV file.

    With ``target_col_last`` the final column of ``inputs_path`` becomes the
    target and the rest are inputs; otherwise all columns are inputs and
    ``targets`` is the already loaded target tensor, or None.
    """
    raw = load_tensor(inputs_path, header=header)
    if raw.ndim == 1:
        raw = raw[None, :]
    if target_col_last:
        if raw.shape[1] < 2:
            raise DataError("need at least 2 columns to split off a target column")
        return Dataset(np.ascontiguousarray(raw[:, :-1]), raw[:, -1].copy(), output_kind)
    if targets is not None and output_kind.kind != PER_PIXEL:
        targets = targets.reshape(-1)
    return Dataset(raw, targets, output_kind)
