"""Exception types shared across the package, and the size check that raises one."""

import math
import sys


class GttaError(Exception):
    """Base class for all library errors."""


class FormatError(GttaError):
    """Malformed, truncated, or otherwise unreadable on-disk artifact."""


class DataError(GttaError):
    """Input data violates a documented precondition."""


class ParamError(GttaError):
    """Invalid parameter value."""


def refuse_unindexable(shape, what: str) -> None:
    """Raise a ParamError naming ``what`` if a float64 array of ``shape`` has more
    bytes than numpy can index, before numpy is asked to make it."""
    if math.prod(int(n) for n in shape) * 8 > sys.maxsize:
        raise ParamError(f"{what} needs more bytes than numpy can index")


class ShapeError(GttaError):
    """Array dimensions do not match the operation's contract."""


class IoError(GttaError):
    """Filesystem read or write failure."""


class TrainingDivergedError(GttaError):
    """Loss became non-finite during training."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}")
        self.step = step


class UnsupportedTaskError(GttaError):
    """The operation is not defined for this task kind."""


class PredictorError(GttaError):
    """A predictor failed, or its output breaks the conventions of its output kind."""
