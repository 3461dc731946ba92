"""The firing-rate table: one row per (charged op, timestep) holding the input
firing rate of that op and, when measured on a forward pass, the kind of
tensor it consumed (the spike-path audit).

``Probe.observe`` fills the table from a forward pass, measuring each input
with ``tensors.firing_rate`` and ``tensors.kind_of``; ``Probe.add`` fills it
from a rate file. ``energy.FiringRateReport`` is the same class, and
``energy.estimate_energy`` reads it through ``series``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReportError
from .tensors import firing_rate, kind_of

__all__ = ["Observation", "Probe"]


@dataclass(frozen=True)
class Observation:
    layer: str
    t: int
    rate: float
    kind: str | None  # binary | integer | dense; None when read from a rate file


class Probe:
    """Firing rates keyed by (layer, timestep), in the order they were added.
    Every rate lies in [0, 1] and each key is added once."""

    def __init__(self):
        self._rows: dict[tuple[str, int], Observation] = {}

    @property
    def entries(self) -> list[Observation]:
        return list(self._rows.values())

    def observe(self, layer: str, t: int, a: np.ndarray, kind: str | None = None,
                rate: float | None = None):
        self.add(layer, t, firing_rate(a) if rate is None else rate, kind or kind_of(a))

    def add(self, layer: str, t: int, rate: float, kind: str | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ReportError(f"rate out of [0,1] for {layer} t={t}: {rate}")
        if (layer, t) in self._rows:
            raise ReportError(f"firing rate for {layer} at t={t} given twice")
        self._rows[(layer, t)] = Observation(layer, t, rate, kind)

    def get(self, layer: str, t: int) -> float:
        try:
            return self._rows[(layer, t)].rate
        except KeyError:
            raise ReportError(f"no firing rate recorded for {layer} at t={t}") from None

    def series(self, layer: str, timesteps: int) -> list[float]:
        return [self.get(layer, t) for t in range(1, timesteps + 1)]

    def layers(self) -> list[str]:
        return list(dict.fromkeys(layer for layer, _ in self._rows))
