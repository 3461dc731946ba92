"""Exception types shared across the library, and the checks that raise
them from more than one module: :func:`check_int` for an argument and
:func:`check_fields` for a settings record."""

import functools
import math
import numbers
from collections.abc import Sequence
from types import UnionType
from typing import get_args, get_type_hints


class SpikeDriveError(Exception):
    """Base class for all library errors."""


class ShapeError(SpikeDriveError, ValueError):
    """Operand shapes are incompatible."""


class EmptyTensorError(SpikeDriveError, ValueError):
    """Operation is undefined on a zero-element tensor."""


class InvalidEventError(SpikeDriveError, ValueError):
    """Event record violates the event-list invariants."""


class ParseError(SpikeDriveError, ValueError):
    """Malformed input file. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FoldError(SpikeDriveError, ValueError):
    """Convolution branches cannot be folded into a single kernel."""


class KindError(SpikeDriveError, TypeError):
    """Tensor kind is wrong for the requested shortcut."""


class ConfigError(SpikeDriveError, ValueError):
    """Invalid or inconsistent configuration."""


class CheckpointError(SpikeDriveError, RuntimeError):
    """Checkpoint file is corrupt or incompatible."""


class ReportError(SpikeDriveError, RuntimeError):
    """Firing-rate report does not cover the model."""


class TapeError(SpikeDriveError, RuntimeError):
    """Computation tape was used incorrectly (e.g. consumed twice)."""


class ArgError(SpikeDriveError, ValueError):
    """Argument outside the operation's domain."""


class DivergenceError(SpikeDriveError, RuntimeError):
    """Training produced a non-finite loss."""


class OutputError(SpikeDriveError, OSError):
    """A run's outputs (report, metrics, checkpoint, array) cannot be written."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer: numpy integers are, ``bool`` is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, low: int):
    """Raise ``ArgError`` unless ``value`` is an integer (:func:`is_int`)
    >= ``low``."""
    if not is_int(value):
        raise ArgError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ArgError(f"{name} must be >= {low}, got {value}")


# each class's resolved field annotations, in field order; read, never mutate
field_types = functools.cache(get_type_hints)

# the rule a value of an int or a float field must pass, and its name; a value
# of any other annotated class must be an instance of it
_RULES = {int: (is_int, "an integer"),
          float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                  "a real number")}


def check_fields(record):
    """Raise ``ConfigError``, naming the field, unless each field of the
    dataclass ``record`` holds its annotated type: an int by :func:`is_int`,
    a float any finite real number but a ``bool``, a ``tuple[int, ...]`` a
    sequence of such ints, and any other field (str, bool, a dataclass) an
    instance of its class. None passes only where the annotation allows it.
    Every settings record calls this first in its ``__post_init__``."""
    for name, t in field_types(type(record)).items():
        value, allowed = getattr(record, name), get_args(t) if isinstance(t, UnionType) else (t,)
        if value is None and type(None) in allowed:
            continue
        t, values = allowed[0], (value,)
        if t == tuple[int, ...]:
            if not isinstance(value, Sequence):
                raise ConfigError(f"{name}: {value!r} is not a sequence of integers")
            t, values = int, value
        fits, what = _RULES.get(t) or (lambda v: isinstance(v, t), f"a {t.__name__}")
        for v in values:
            if not fits(v):
                raise ConfigError(f"{name}: {v!r} is not {what}")
        if t is float and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
