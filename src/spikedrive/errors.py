"""Exception types shared across the library."""


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
