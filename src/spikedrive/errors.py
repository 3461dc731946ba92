"""Exception types shared across the library, and the checks that raise
them from more than one module: :func:`check_int` for an argument and
:func:`check_fields` for a settings record.

What a setting may hold is declared once, beside its field: its annotated
type, and, for a field built by :func:`setting`, an interval or the choices
of a str field. :func:`check_fields` enforces both for every settings record
(``config.ModelConfig`` and ``TrainConfig``, ``neuron.LIFParams``,
``attention.SDSAConfig``), field by field in declaration order: type, then
finiteness for a float or ``check_int``'s upper bound for an int, then the
declared values, each refusal a ``ConfigError`` naming the field. A
record's ``__post_init__`` keeps only the rules that join fields or are not
a per-field range."""

import functools
import math
import numbers
import operator
import sys
from collections.abc import Sequence
from dataclasses import field, fields
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


def _shown(value) -> str:
    """``repr(value)``, or, for an int too long for Python to print (more
    digits than ``sys.get_int_max_str_digits()``), its sign and digit count,
    so a message about any value can be built."""
    try:
        return repr(value)
    except ValueError:
        n = abs(value)
        d = int(n.bit_length() * math.log10(2))  # the digit count, or one less
        return f"{'a negative' if value < 0 else 'an'} integer of {d + (n >= 10 ** d)} digits"


def check_int(name: str, value, low: int):
    """Raise ``ArgError`` unless ``value`` is an integer (:func:`is_int`)
    from ``low`` to ``sys.maxsize``, the largest that numpy and the standard
    library take as a size or an index."""
    if not is_int(value):
        raise ArgError(f"{name} must be an integer, got {_shown(value)}")
    if value < low:
        raise ArgError(f"{name} must be >= {low}, got {_shown(value)}")
    if value > sys.maxsize:
        raise ArgError(f"{name} must be <= {sys.maxsize}, got {_shown(value)}")


# each class's resolved field annotations, in field order; read, never mutate
field_types = functools.cache(get_type_hints)

# the rule a value of an int or a float field must pass, and its name; a value
# of any other annotated class must be an instance of it
_RULES = {int: (is_int, "an integer"),
          float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                  "a real number")}
# the comparison that keeps a value inside each interval end, lower end first
_INSIDE = {"(": operator.lt, "[": operator.le, ")": operator.lt, "]": operator.le}


def setting(default, allowed):
    """A settings-record field holding ``default`` whose values lie in
    ``allowed``: an interval such as ``"[1, inf)"`` or ``"(0, 1)"``, or a
    tuple of a str field's choices. Each element of a ``tuple[int, ...]``
    field must lie in it, and None, where the field may hold it, skips it.
    The class attribute stays ``default``; :func:`check_fields` enforces
    ``allowed``."""
    if isinstance(allowed, tuple):
        inside, what = allowed.__contains__, f"one of {allowed}"
    else:  # a malformed interval fails here, as its class is defined
        lo, hi = allowed[1:-1].split(", ")
        above, below, low, high = _INSIDE[allowed[0]], _INSIDE[allowed[-1]], float(lo), float(hi)
        inside = lambda v: above(low, v) and below(v, high)
        what = f"{'>' if allowed[0] == '(' else '>='} {lo}" if hi == "inf" else f"in {allowed}"
    return field(default=default, metadata={"allowed": (inside, what)})


def _is_finite(value) -> bool:
    """``math.isfinite``, with an int too large to convert to a float not
    finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# the limit every value of an int or a float field must keep, and its name:
# check_int's bound, and finiteness
_LIMITS = {int: (lambda v: v <= sys.maxsize, f"<= {sys.maxsize}"),
           float: (_is_finite, "finite")}


@functools.cache
def _checks(cls) -> tuple:
    """Per field of the dataclass ``cls``: its name, whether None passes,
    whether it holds a sequence, the rule each value must pass and its name,
    the limit of an int or a float value (``_LIMITS``) or None, and the
    values :func:`setting` allows (a test and its wording) or None."""
    checks = []
    for f in fields(cls):
        t = field_types(cls)[f.name]
        allowed = get_args(t) if isinstance(t, UnionType) else (t,)
        many = allowed[0] == tuple[int, ...]
        t = int if many else allowed[0]
        fits, what = _RULES.get(t) or ((lambda v, t=t: isinstance(v, t)), f"a {t.__name__}")
        checks.append((f.name, type(None) in allowed, many, fits, what, _LIMITS.get(t),
                       f.metadata.get("allowed")))
    return tuple(checks)


def check_fields(record):
    """Raise ``ConfigError``, naming the field, unless each field of the
    dataclass ``record`` holds a value its annotation and its :func:`setting`
    allow. Field by field, in declaration order, each value must first be of
    its type: an int by :func:`is_int`, a float any real number but a
    ``bool``, a ``tuple[int, ...]`` a sequence of such ints, and any other
    field (str, bool, a dataclass) an instance of its class. A float must
    then be finite and an int at most ``sys.maxsize``, as for
    :func:`check_int`, and last, each value must lie in the field's declared
    interval or choices. None passes where the annotation allows it. Every
    settings record calls this first in its ``__post_init__``."""
    for name, none_ok, many, fits, what, limit, allowed in _checks(type(record)):
        value = getattr(record, name)
        if value is None and none_ok:
            continue
        if many and not isinstance(value, Sequence):
            raise ConfigError(f"{name}: {_shown(value)} is not a sequence of integers")
        for v in value if many else (value,):
            if not fits(v):
                raise ConfigError(f"{name}: {_shown(v)} is not {what}")
            if limit and not limit[0](v):
                raise ConfigError(f"{name} must be {limit[1]}, got {_shown(v)}")
            if allowed and not allowed[0](v):
                raise ConfigError(f"{name} must be {allowed[1]}, got {_shown(v)}")
