"""Reverse-mode differentiation over an explicit op tape.

The forward pass appends one record per op; ``backward`` replays the records
in exact reverse order and accumulates vector-Jacobian products into each
``Var``'s ``grad``. The firing nonlinearity is the only non-smooth op: its
backward uses the rectangular surrogate window, either as a straight-through
estimator (spike mode) or as the true derivative of a clamped-linear
relaxation (smooth-check mode, used for finite-difference validation).
"""

from __future__ import annotations

import numpy as np

from .errors import TapeError
from .kernels import conv2d_core

__all__ = ["Var", "Tape", "backward"]

# the variance offset of every batch normalization, on the tape and folded
BN_EPS = 1e-5


class Var:
    """A float64 array node in the computation graph."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Var(shape={self.data.shape}, name={self.name!r})"


class Tape:
    """Ordered op records; one backward pass consumes the tape.

    :func:`backward` pops each record as its vjp runs, so a consumed tape is
    empty and holds no operand, closure or gradient. What the caller holds
    itself (parameters, inputs, any intermediate Var) keeps its ``grad``.

    A record is ``(outputs, inputs, vjp)``: a tuple of the op's output Vars,
    a tuple of its input Vars, and ``vjp(*output_grads)``, which returns one
    gradient per input (None for an input it leaves out). Most ops have one
    output; ``neuron.lif`` has two, the spikes and the new membrane.

    ``frozen`` holds the ids of the leaf Vars that get no gradient. It is
    empty until :func:`backward` is given ``params``; then it holds every
    leaf input that is not one of them, and a vjp may skip that input's
    gradient (``conv2d`` does, for the raw image into the encoding conv).
    A vjp holds the set itself, never the tape: a tape its own records
    reach is a reference cycle, which keeps every activation alive until
    the cyclic garbage collector runs."""

    def __init__(self):
        self.records: list[tuple[tuple[Var, ...], tuple[Var, ...], callable]] = []
        self.consumed = False
        self.frozen: set[int] = set()

    def push(self, outs: tuple[Var, ...], inputs: tuple[Var, ...], vjp):
        self.records.append((outs, inputs, vjp))

    def __len__(self):
        return len(self.records)


def _accum(var: Var, g: np.ndarray):
    if g is None:
        return
    if g.shape != var.data.shape:  # undo numpy broadcasting
        extra = g.ndim - var.data.ndim
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        keep = tuple(i for i, n in enumerate(var.data.shape) if n == 1 and g.shape[i] != 1)
        if keep:
            g = g.sum(axis=keep, keepdims=True)
    var.grad = g if var.grad is None else var.grad + g


def backward(tape: Tape, loss: Var, params=None) -> dict[Var, np.ndarray]:
    """Propagate d(loss)/d(everything) through the tape, newest record first.

    Returns a mapping for ``params`` (every listed parameter gets a slot,
    zero-filled if the loss does not depend on it) and leaves ``grad`` set on
    all touched Vars. A record is skipped when none of its outputs has a
    gradient; otherwise its vjp gets every output's gradient, None for the
    ungraded ones. Given ``params``, a leaf Var that is not one of them gets
    no gradient (see ``Tape.frozen``); with ``params=None`` every leaf does.
    Each record leaves the tape as its vjp runs: the tape ends empty, and a
    Var the caller does not hold is freed once backward has passed it.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.consumed = True
    if params is not None:
        keep = {id(o) for outs, _, _ in tape.records for o in outs} | {id(p) for p in params}
        tape.frozen.update({id(v) for _, inputs, _ in tape.records for v in inputs} - keep)
    loss.grad = np.ones_like(loss.data)
    while tape.records:
        outs, inputs, vjp = tape.records.pop()
        grads = [out.grad for out in outs]
        if any(g is not None for g in grads):
            for var, g in zip(inputs, vjp(*grads)):
                if id(var) not in tape.frozen:
                    _accum(var, g)
    grads: dict[Var, np.ndarray] = {}
    for p in params or ():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        grads[p] = p.grad
    return grads


# ---------------------------------------------------------------------------
# ops: each computes forward and, when a tape is supplied, records its vjp


def _push(tape, out, inputs, vjp):
    if tape is not None:
        tape.push((out,), inputs, vjp)
    return out


def add(tape, a: Var, b: Var) -> Var:
    out = Var(a.data + b.data)
    return _push(tape, out, (a, b), lambda g: (g, g))


def sub(tape, a: Var, b: Var) -> Var:
    out = Var(a.data - b.data)
    return _push(tape, out, (a, b), lambda g: (g, -g))


def mul(tape, a: Var, b: Var) -> Var:
    out = Var(a.data * b.data)
    return _push(tape, out, (a, b), lambda g: (g * b.data, g * a.data))


def scale(tape, a: Var, c: float) -> Var:
    out = Var(a.data * c)
    return _push(tape, out, (a,), lambda g: (g * c,))


def shift(tape, a: Var, c: float) -> Var:
    out = Var(a.data + c)
    return _push(tape, out, (a,), lambda g: (g,))


def reshape(tape, a: Var, shape) -> Var:
    old = a.data.shape
    out = Var(a.data.reshape(shape))
    return _push(tape, out, (a,), lambda g: (g.reshape(old),))


def transpose(tape, a: Var, axes) -> Var:
    inv = np.argsort(axes)
    out = Var(a.data.transpose(axes))
    return _push(tape, out, (a,), lambda g: (g.transpose(inv),))


def matmul(tape, a: Var, b: Var) -> Var:
    out = Var(a.data @ b.data)

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return _push(tape, out, (a, b), vjp)


def mean_axes(tape, a: Var, axes: tuple[int, ...]) -> Var:
    n = int(np.prod([a.data.shape[i] for i in axes]))
    out = Var(a.data.mean(axis=axes))

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axes), a.data.shape) / n,)

    return _push(tape, out, (a,), vjp)


def sum_axes(tape, a: Var, axes: tuple[int, ...], keepdims: bool = True) -> Var:
    out = Var(a.data.sum(axis=axes, keepdims=keepdims))

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape),)

    return _push(tape, out, (a,), vjp)


def window_grad(x: np.ndarray, window: float) -> np.ndarray:
    """The surrogate derivative of firing at x >= 0: 1/(2w) on |x| < w, else 0."""
    return (np.abs(x) < window) / (2.0 * window)


def spike(tape, x: Var, window: float, smooth: bool = False) -> Var:
    """Fire where x >= 0. Backward is :func:`window_grad`. In smooth mode the
    forward is the clamped-linear relaxation whose true derivative equals
    that window."""
    if smooth:
        out = Var(np.clip(x.data / (2.0 * window) + 0.5, 0.0, 1.0))
    else:
        out = Var((x.data >= 0).astype(np.float64))
    return _push(tape, out, (x,), lambda g: (g * window_grad(x.data, window),))


def conv2d(tape, x: Var, w: Var, b: Var | None, stride: int, padding: int,
           groups: int = 1) -> Var:
    """Batched (B, C, H, W) convolution (:func:`kernels.conv2d_core`); exact
    adjoints, with no input gradient when ``x`` is frozen."""
    out, adjoint = conv2d_core(x.data, w.data, stride, padding, groups)
    frozen = () if tape is None else tape.frozen

    def vjp(g):
        return adjoint(g, id(x) not in frozen)

    if b is None:
        return _push(tape, Var(out), (x, w), vjp)
    out += b.data[None, :, None, None]
    return _push(tape, Var(out), (x, w, b), lambda g: vjp(g) + (g.sum(axis=(0, 2, 3)),))


def _shifted(tape, x: Var, gamma: Var, beta: Var | None, y: np.ndarray, vjp) -> Var:
    """Add the per-channel shift ``beta`` to the scaled ``y`` in place and
    record the normalization: ``vjp`` gives the gradients of ``x``, ``gamma``
    and the shift, the last being the output gradient summed per channel.
    With ``beta`` None (a depthwise ``blocks.ConvBN``) nothing is added, and
    the record has two inputs and hands back two gradients."""
    if beta is None:
        return _push(tape, Var(y), (x, gamma), lambda g: vjp(g)[:2])
    y += beta.data[None, :, None, None]
    return _push(tape, Var(y), (x, gamma, beta), vjp)


def batch_norm(tape, x: Var, gamma: Var,
               beta: Var | None) -> tuple[Var, np.ndarray, np.ndarray]:
    """Per-channel normalization of ``x`` over (B, H, W) by its own batch
    statistics; returns ``(out, mu, var)``, the statistics per channel and
    equal to ``np.mean`` and ``np.var`` over those axes. One centring pass
    serves both the variance and x-hat, and the output reuses the buffer the
    variance was summed from. The backward differentiates through the
    statistics (Ioffe & Szegedy, arXiv 1502.03167) from two per-channel sums,
    sum(g) and sum(g * x-hat), which are also the gradients of ``beta`` and
    ``gamma``. ``beta`` None means no shift."""
    axes = (0, 2, 3)
    m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    mu = x.data.sum(axis=axes, keepdims=True) / m
    xhat = x.data - mu
    y = np.multiply(xhat, xhat)
    var = y.sum(axis=axes) / m
    inv = 1.0 / np.sqrt(var[None, :, None, None] + BN_EPS)
    xhat *= inv
    gm = gamma.data[None, :, None, None]
    np.multiply(xhat, gm, out=y)

    def vjp(g):
        gsum = np.einsum("bchw->c", g)
        ggamma = np.einsum("bchw,bchw->c", g, xhat)
        # gx = (gamma * inv / m) * (m * g - sum(g) - xhat * ggamma), built in one buffer
        gx = xhat * (ggamma / m)[None, :, None, None]
        gx += (gsum / m)[None, :, None, None]
        np.subtract(g, gx, out=gx)
        gx *= gm * inv
        return gx, ggamma, gsum

    return _shifted(tape, x, gamma, beta, y, vjp), mu.reshape(-1), var


def normalize_affine(tape, x: Var, gamma: Var, beta: Var | None,
                     mu: np.ndarray, var: np.ndarray) -> Var:
    """Affine normalization with frozen statistics (finetune / inference):
    ``(x - mu) * (gamma / sqrt(var + eps)) + beta`` per channel, with no
    ``+ beta`` when it is None. The result is one new array, the later steps
    done in place on it, so it is bit-identical with or without a tape; ``x``
    is never written."""
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat_scale = (gamma.data * inv)[None, :, None, None]
    y = x.data - mu[None, :, None, None]
    y *= xhat_scale

    def vjp(g):
        xhat = (x.data - mu[None, :, None, None]) * inv[None, :, None, None]
        return g * xhat_scale, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return _shifted(tape, x, gamma, beta, y, vjp)


def cross_entropy(tape, logits: Var, labels: np.ndarray, smoothing: float = 0.0) -> Var:
    """Mean label-smoothed cross-entropy over a (B, K) logit batch."""
    z = logits.data
    bsz, k = z.shape
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    q = np.full((bsz, k), smoothing / k)
    q[np.arange(bsz), labels] += 1.0 - smoothing
    out = Var(-(q * logp).sum() / bsz)

    def vjp(g):
        p = np.exp(logp)
        return (g * (p - q) / bsz,)

    return _push(tape, out, (logits,), vjp)
