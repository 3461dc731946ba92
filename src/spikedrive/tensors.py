"""Core tensor carriers: dense floats, binary spikes, integer counts, and the
address-event representation used for sparse interchange.

The entry points that take an array of values from a caller --
``DenseTensor``, ``train.check_images`` and ``Model.forward`` -- convert it
with :func:`real_array`, which refuses ragged, complex and non-numeric input
with ``ArgError`` before numpy would raise or warn.

Two facts about a tensor are decided here and nowhere else:
:func:`kind_of` says whether it holds binary spikes, non-negative integers
(SEW sums) or dense values, and :func:`firing_rate` gives its fraction of
non-zero elements. The carrier constructors and the spike-path audit of
``instrument.Probe`` both call them.

All carriers are immutable after construction (the wrapped arrays are marked
read-only) so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgError, EmptyTensorError, InvalidEventError, ParseError, ShapeError,
                     check_int, is_int)

__all__ = [
    "DenseTensor",
    "SpikeTensor",
    "IntTensor",
    "EventList",
    "kind_of",
    "firing_rate",
    "real_array",
    "to_events",
    "from_events",
    "load_event_file",
]


def kind_of(a) -> str:
    """``"binary"`` if every element is 0 or 1 (an empty array too),
    ``"integer"`` if every element is a finite non-negative whole number,
    else ``"dense"``."""
    a = np.asarray(a)
    if a.size == 0 or a.dtype == bool:
        return "binary"
    mn, mx = a.min(), a.max()
    whole = np.issubdtype(a.dtype, np.integer)
    if mn >= 0 and mx <= 1 and (whole or np.isin(a, (0.0, 1.0)).all()):
        return "binary"
    if mn >= 0 and mx < np.inf and (whole or np.array_equal(a, np.round(a))):
        return "integer"
    return "dense"


def real_array(name: str, data) -> np.ndarray:
    """``data`` as a float64 array. Raises ``ArgError`` naming ``name`` for a
    ragged sequence and for anything but booleans, integers and real floats
    (text, complex numbers, objects), where numpy would raise its own error
    or drop an imaginary part."""
    try:
        a = np.asarray(data)
    except ValueError as exc:  # a ragged nesting of sequences
        raise ArgError(f"{name} must be a rectangular array ({exc})") from None
    if a.dtype.kind not in "biuf":
        raise ArgError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


class _Carrier:
    """A read-only array with a shape; equal to a carrier of the same class
    holding the same values."""

    __slots__ = ("data",)

    def __init__(self, a: np.ndarray):
        a.flags.writeable = False
        self.data = a

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other):
        return isinstance(other, type(self)) and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape})"


class DenseTensor(_Carrier):
    """Row-major real-valued tensor. All values must be finite."""

    __slots__ = ()

    def __init__(self, data):
        a = real_array("DenseTensor values", data)
        if not np.all(np.isfinite(a)):
            raise ArgError("DenseTensor values must be finite")
        super().__init__(a.copy() if a.base is not None or a.flags.writeable else a)


class SpikeTensor(_Carrier):
    """Binary activation tensor; every element is exactly 0 or 1."""

    __slots__ = ()

    def __init__(self, data):
        a = np.asarray(data)
        if kind_of(a) != "binary":
            raise ArgError("SpikeTensor values must be exactly 0 or 1")
        super().__init__(a.astype(np.uint8))


class IntTensor(_Carrier):
    """Non-negative integer tensor; arises from sums/products of spikes."""

    __slots__ = ()

    def __init__(self, data):
        a = np.asarray(data)
        if kind_of(a) == "dense":
            whole = np.array_equal(a, np.round(a))
            raise ArgError(f"IntTensor values must be {'non-negative' if whole else 'integers'}")
        super().__init__(a.astype(np.int64))


def _slices(shape) -> tuple[int, int]:
    """(number of t slices, elements per slice) of an event origin shape."""
    return (shape[0], int(np.prod(shape[1:]))) if len(shape) > 1 else (1, int(shape[0]))


@dataclass(frozen=True)
class EventList:
    """Sparse carrier: one (t, flat_index) record per spike.

    ``t`` indexes the leading axis of the origin tensor; ``flat_index`` is the
    position within that timestep's slice. Records are sorted by
    (t, flat_index) and contain no duplicates. For rank-1 tensors the whole
    tensor is a single t=0 slice.
    """

    records: tuple[tuple[int, int], ...]
    shape: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.shape:
            raise InvalidEventError("EventList requires the origin tensor shape")
        n_slices, slice_size = _slices(self.shape)
        prev = (-1, -1)
        for t, flat in self.records:
            if not (0 <= t < n_slices and 0 <= flat < slice_size):
                raise InvalidEventError(f"event ({t}, {flat}) out of bounds for shape {self.shape}")
            if (t, flat) <= prev:
                raise InvalidEventError("events must be strictly sorted by (t, flat_index)")
            prev = (t, flat)

    def __len__(self):
        return len(self.records)


def firing_rate(s) -> float:
    """Fraction of non-zero elements of a carrier or an array."""
    a = s.data if isinstance(s, _Carrier) else np.asarray(s)
    if a.size == 0:
        raise EmptyTensorError("firing rate of a zero-element tensor is undefined")
    return float(np.count_nonzero(a)) / a.size


def to_events(s: SpikeTensor) -> EventList:
    """Enumerate the nonzero positions of a spike tensor as sorted events."""
    ts, idx = np.nonzero(s.data.reshape(_slices(s.shape)))
    return EventList(records=tuple(zip(ts.tolist(), idx.tolist())), shape=tuple(s.shape))


def from_events(e: EventList) -> SpikeTensor:
    """Inverse of :func:`to_events`; reconstructs the exact spike tensor."""
    flat = np.zeros(_slices(e.shape), dtype=np.uint8)
    for t, i in e.records:
        flat[t, i] = 1
    return SpikeTensor(flat.reshape(e.shape))


def load_event_file(path, bins: int, resolution: tuple[int, int],
                    channels: int = 1) -> SpikeTensor:
    """Read a DVS-style text event stream and accumulate it into spike frames.

    Each line is ``timestamp_us,x,y,polarity`` (unsigned integers, polarity in
    {0, 1}). Events are split into ``bins`` equal-duration windows by
    timestamp and binarized per pixel: a pixel is 1 in a bin if at least one
    event fell there. With ``channels=2`` polarity selects the channel;
    with ``channels=1`` polarity is ignored.

    Returns a ``(T, 1, C, H, W)`` spike tensor. An empty file yields the
    all-zero tensor. ``bins`` and each side of ``resolution`` = (H, W) must
    be integers >= 1 (``errors.check_int``), and ``channels`` 1 or 2; any
    other value raises ``ArgError``.
    """
    check_int("bins", bins, 1)
    if not (is_int(channels) and channels in (1, 2)):
        raise ArgError("channels must be 1 or 2")
    try:
        h, w = resolution
    except (TypeError, ValueError):
        raise ArgError("resolution must be a (height, width) pair") from None
    check_int("resolution height", h, 1)
    check_int("resolution width", w, 1)
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 comma-separated fields, got {len(parts)}", lineno)
            try:
                ts, x, y, pol = (int(p) for p in parts)
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno) from None
            if ts < 0 or x < 0 or y < 0:
                raise ParseError("fields must be unsigned", lineno)
            if pol not in (0, 1):
                raise ParseError(f"polarity must be 0 or 1, got {pol}", lineno)
            if x >= w or y >= h:
                raise ParseError(f"pixel ({x}, {y}) outside {w}x{h} sensor", lineno)
            events.append((ts, x, y, pol))

    frames = np.zeros((bins, 1, channels, h, w), dtype=np.uint8)
    if not events:
        return SpikeTensor(frames)

    t0 = min(e[0] for e in events)
    t1 = max(e[0] for e in events)
    span = t1 - t0
    for ts, x, y, pol in events:
        b = min(bins - 1, int((ts - t0) * bins / span)) if span > 0 else 0
        c = pol if channels == 2 else 0
        frames[b, 0, c, y, x] = 1
    return SpikeTensor(frames)


def check_same_shape(a, b, what: str = "operands"):
    if a.shape != b.shape:
        raise ShapeError(f"{what} must share a shape, got {a.shape} vs {b.shape}")
