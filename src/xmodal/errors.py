"""Exception types shared across the package, and the field check the configs share."""

import dataclasses
import math
import numbers


class XmodalError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(XmodalError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateInputError(XmodalError):
    """A vector with (near-)zero norm was passed where a direction is required: an
    archive record whose features are all zero (``data.load_dataset``), or a zero
    embedding in retrieval. The training losses take a zero row as a dead row."""


class ContractError(XmodalError):
    """A documented precondition of an operation was violated."""


class DatasetFormatError(XmodalError):
    """Dataset file is malformed or internally inconsistent."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CheckpointError(XmodalError):
    """Checkpoint file is malformed, truncated, or incompatible."""


class TrainingDivergedError(XmodalError):
    """Training produced a non-finite loss, parameter or Adam moment."""


def check_fields(config):
    """ContractError for a float that is not finite, a value of an int field that is not
    an integer (such as 2.0 in a checkpoint header), or a seed below 0."""
    for field in dataclasses.fields(config):
        name, value = field.name, getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractError(f"{type(config).__name__} {name}={value} must be finite")
        if field.type is int and not isinstance(value, numbers.Integral):
            raise ContractError(f"{type(config).__name__} {name}={value!r} is not an int")
        if name == "seed" and value < 0:
            raise ContractError(f"{type(config).__name__} seed={value} must be >= 0")
