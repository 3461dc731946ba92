"""Leaky Integrate-and-Fire neuron layer.

Dynamics per timestep: the membrane integrates the input current on top of
the carried state, fires wherever it reaches the (scaled) threshold, resets
fired positions and decays the rest:

    U[t] = H[t-1] + X[t]
    S[t] = Hea(U[t] - s * u_th)          (Hea(x) = 1 for x >= 0)
    H[t] = v_reset * S[t] + beta * U[t] * (1 - S[t])

The Heaviside is non-differentiable; training uses a rectangular surrogate
window of half-width ``w`` around the threshold.

The settings are :class:`LIFParams`, whose fields declare their ranges with
``errors.setting``; ``errors.check_fields`` enforces them.

:func:`lif` is the one implementation of this update, with or without a
tape, in spike and in smooth mode. Its forward is plain numpy: U = h + x and
U - theta are new arrays, and the spikes are made in place in the second.
The new membrane is beta*U with v_reset written where it fired; with no tape
it is written into U's array. Smooth mode (for finite-difference checks)
fires the clamped-linear relaxation clip((U - theta) / 2w + 1/2, 0, 1) and
blends ``v_reset * S + (beta*U) * (1 - S)``. With a tape, :func:`lif` pushes
one record whose outputs are S and H. Its vjp recomputes U - theta and
beta*U and accumulates the gradients in the order of the same update
composed of nine single-output autodiff ops (add, sub or shift, spike,
scale, shift, scale, scale, mul, add), so they equal that composition's bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeError, check_fields, setting
from .tensors import DenseTensor, SpikeTensor

__all__ = ["LIFParams", "LIFState", "lif", "lif_step", "sn_forward", "surrogate_grad",
           "heaviside"]


@dataclass(frozen=True)
class LIFParams:
    """The neuron settings, the ``[lif]`` section of a model config. Each
    field's range is declared beside it and enforced by
    ``errors.check_fields`` (type, finiteness, then range); no rule joins
    two fields."""

    u_th: float = setting(1.0, "(0, inf)")
    beta: float = setting(0.5, "(0, 1)")
    v_reset: float = 0.0
    threshold_scale: float = setting(1.0, "(0, inf)")
    surrogate_window: float | None = setting(None, "(0, inf)")  # defaults to 0.5 * u_th

    def __post_init__(self):
        check_fields(self)

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
    Only new arrays are written, never ``h`` or ``x``. With a tape, one record
    of both outputs is pushed; with none, H is written into U's array.
    """
    theta = params.threshold if threshold is None else threshold.data
    beta, v_reset, w = params.beta, params.v_reset, params.window
    shape = np.broadcast_shapes(h.shape, x.shape)
    u = np.add(h.data, x.data, out=np.empty(shape))
    s = np.subtract(u, theta, out=np.empty(shape))
    if smooth:
        np.clip(s / (2.0 * w) + 0.5, 0.0, 1.0, out=s)
        h_new = s * v_reset + (u * beta) * (s * -1.0 + 1.0)
    else:
        fired = s >= 0
        np.copyto(s, fired)
        h_new = np.multiply(u, beta, out=u if tape is None else np.empty(shape))
        np.copyto(h_new, v_reset, where=fired)
    out = Var(s), Var(h_new)
    if tape is not None:
        def vjp(g_s, g_h):
            if g_h is not None:
                g_u = (g_h * (s * -1.0 + 1.0)) * beta
                g_s = g_h * v_reset if g_s is None else g_s + g_h * v_reset
                g_s = g_s + (g_h * (u * beta)) * -1.0
            g_pre = g_s * ad.window_grad(u - theta, w)
            g_u = g_pre if g_h is None else g_u + g_pre
            return g_u, g_u, -g_pre

        tape.push(out, (h, x) if threshold is None else (h, x, threshold), vjp)
    return out


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
