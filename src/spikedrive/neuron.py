"""Leaky Integrate-and-Fire neuron layer.

Dynamics per timestep: the membrane integrates the input current on top of
the carried state, fires wherever it reaches the (scaled) threshold, resets
fired positions and decays the rest:

    U[t] = H[t-1] + X[t]
    S[t] = Hea(U[t] - s * u_th)          (Hea(x) = 1 for x >= 0)
    H[t] = v_reset * S[t] + beta * U[t] * (1 - S[t])

The Heaviside is non-differentiable; training uses a rectangular surrogate
window of half-width ``w`` around the threshold.

:func:`lif` is the one implementation of this update. With a tape, and in
smooth mode, it is built from autodiff ops that record their vjps. With no
tape in spike mode (eval ``blocks.SN.step``, :func:`lif_step` and
:func:`sn_forward`) it is plain numpy that records nothing: U is a new array,
scaled by beta in place, with v_reset written where it fired. Both routes
fire on the same test: the taped route computes ``U + (-theta)``, which IEEE
arithmetic rounds exactly as the branch's ``U - theta``. The taped reset
``v_reset * S + (beta*U) * (1 - S)`` is v_reset on fired entries and beta*U on
silent ones, up to the sign of a zero, which changes no later spike or
nonzero value. So spikes and membranes are equal for every finite or NaN
potential; only U = +inf differs (the taped route gives NaN from inf * 0,
the branch v_reset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeError
from .tensors import DenseTensor, SpikeTensor

__all__ = ["LIFParams", "LIFState", "lif", "lif_step", "sn_forward", "surrogate_grad",
           "heaviside"]


@dataclass(frozen=True)
class LIFParams:
    u_th: float = 1.0
    beta: float = 0.5
    v_reset: float = 0.0
    threshold_scale: float = 1.0
    surrogate_window: float | None = None  # defaults to 0.5 * u_th

    def __post_init__(self):
        for name in ("u_th", "beta", "v_reset", "threshold_scale", "surrogate_window"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.u_th > 0:
            raise ValueError(f"u_th must be > 0, got {self.u_th}")
        if not 0 < self.beta < 1:
            raise ValueError(f"decay factor beta must be in (0, 1), got {self.beta}")
        if self.threshold_scale <= 0:
            raise ValueError(f"threshold_scale must be > 0, got {self.threshold_scale}")
        if self.surrogate_window is not None and self.surrogate_window <= 0:
            raise ValueError("surrogate_window must be > 0")

    @property
    def window(self) -> float:
        return self.surrogate_window if self.surrogate_window is not None else 0.5 * self.u_th

    @property
    def threshold(self) -> float:
        return self.threshold_scale * self.u_th

    def scaled(self, s: float) -> "LIFParams":
        return replace(self, threshold_scale=s)


@dataclass
class LIFState:
    """Carried membrane state H[t-1], shaped like the layer's features."""

    h: DenseTensor

    @classmethod
    def initial(cls, shape, params: LIFParams) -> "LIFState":
        return cls(h=DenseTensor(np.full(shape, params.v_reset, dtype=np.float64)))


def heaviside(x: np.ndarray) -> np.ndarray:
    """Step function with Hea(0) = 1."""
    return (x >= 0).astype(np.float64)


def lif(tape, h: Var, x: Var, threshold: Var | None, params: LIFParams,
        smooth: bool = False) -> tuple[Var, Var]:
    """One timestep from membrane ``h`` and input ``x``: returns the spikes
    S[t] and the new membrane H[t].

    ``threshold`` is a learnable threshold, or None for ``params.threshold``.
    The ops record on ``tape``. With ``tape=None`` in spike mode nothing is
    recorded and only new arrays are written, never ``h`` or ``x`` (see the
    module docstring for why both routes agree).
    """
    if tape is None and not smooth:
        theta = params.threshold if threshold is None else threshold.data
        shape = np.broadcast_shapes(h.shape, x.shape)
        u, spikes = np.empty(shape), np.empty(shape)
        np.add(h.data, x.data, out=u)
        np.subtract(u, theta, out=spikes)
        fired = spikes >= 0
        np.copyto(spikes, fired)
        u *= params.beta
        np.copyto(u, params.v_reset, where=fired)
        return Var(spikes), Var(u)
    u = ad.add(tape, h, x)
    if threshold is not None:
        pre = ad.sub(tape, u, threshold)
    else:
        pre = ad.shift(tape, u, -params.threshold)
    s = ad.spike(tape, pre, params.window, smooth=smooth)
    silent = ad.shift(tape, ad.scale(tape, s, -1.0), 1.0)
    h_new = ad.add(tape, ad.scale(tape, s, params.v_reset),
                   ad.mul(tape, ad.scale(tape, u, params.beta), silent))
    return s, h_new


def lif_step(params: LIFParams, state: LIFState, x: DenseTensor):
    """Advance the neuron one timestep.

    Returns ``(spike, new_state)``. Firing resets the membrane to v_reset;
    silent positions decay by beta.
    """
    if state.h.shape != x.shape:
        raise ShapeError(f"state shape {state.h.shape} != input shape {x.shape}")
    s, h_new = lif(None, Var(state.h.data), Var(x.data), None, params)
    return SpikeTensor(s.data.astype(np.uint8)), LIFState(h=DenseTensor(h_new.data))


def sn_forward(params: LIFParams, x_seq: DenseTensor) -> SpikeTensor:
    """Run the neuron over a (T, ...) input sequence from the reset state."""
    if x_seq.data.ndim < 1 or x_seq.data.shape[0] < 1:
        raise ShapeError("x_seq must have a leading time axis with T >= 1")
    state = LIFState.initial(x_seq.data.shape[1:], params)
    out = np.empty(x_seq.data.shape, dtype=np.uint8)
    for t in range(x_seq.data.shape[0]):
        spike, state = lif_step(params, state, DenseTensor(x_seq.data[t]))
        out[t] = spike.data
    return SpikeTensor(out)


def surrogate_grad(params: LIFParams, u) -> np.ndarray | float:
    """Rectangular surrogate derivative of the firing nonlinearity.

    Returns 1/(2w) where |u - s*u_th| < w and 0 elsewhere.
    """
    g = ad.window_grad(np.asarray(u, dtype=np.float64) - params.threshold, params.window)
    return float(g) if g.ndim == 0 else g
