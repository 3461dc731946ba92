"""Reverse-mode differentiation over an explicit op tape.

The forward pass appends one record per op; ``backward`` replays the records
in exact reverse order and accumulates vector-Jacobian products into each
``Var``'s ``grad``. The firing nonlinearity is the only non-smooth op: its
backward uses the rectangular surrogate window, either as a straight-through
estimator (spike mode) or as the true derivative of a clamped-linear
relaxation (smooth-check mode, used for finite-difference validation).

What the tape keeps is split from what the forward computes. A ``Var``
carries its array and a small :class:`Node`, which holds only its gradient
and its shape; a record holds the nodes of its op, never a ``Var``. So an op
output is freed as soon as the forward drops it, unless a vjp captured its
array because the gradient formula reads it. Each vjp captures exactly what
its formula reads: an array, a shape, or the ``Var`` whose array it reads.
"""

from __future__ import annotations

import numpy as np

from .errors import TapeError
from .kernels import conv2d_core

__all__ = ["Var", "Node", "Tape", "backward"]

# the variance offset of every batch normalization, on the tape and folded
BN_EPS = 1e-5


class Node:
    """What the tape keeps of a ``Var``: its gradient and its shape."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad = None
        self.shape = shape


class Var:
    """A float64 array in the computation graph.

    ``grad`` lives on ``node``, which the tape's records hold in place of the
    Var; reading or setting ``Var.grad`` reads or sets ``node.grad``. The
    node is made on first use, so a Var that no tape records and whose
    gradient nobody reads makes none: neither a tape-free forward nor
    building a model does (eager nodes slowed the 15M net's build by about
    12%). Its shape is the array's shape at that moment; an array put in
    ``data`` later must have that shape."""

    __slots__ = ("data", "name", "_node")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        self._node = None

    @property
    def node(self) -> Node:
        if self._node is None:
            self._node = Node(self.data.shape)
        return self._node

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.node.grad = None

    def __repr__(self):
        return f"Var(shape={self.data.shape}, name={self.name!r})"


class Tape:
    """Ordered op records; one backward pass consumes the tape.

    A record is ``(outputs, inputs, vjp)``: a tuple of the nodes of the op's
    output Vars, a tuple of the nodes of its input Vars, and
    ``vjp(*output_grads)``, which returns one gradient per input (None for an
    input it leaves out). Most ops have one output; ``neuron.lif`` has two,
    the spikes and the new membrane. :meth:`push` takes the Vars and stores
    their nodes. A record keeps alive only those nodes (a gradient, None
    until backward reaches it, and a shape) and what its vjp captured; an
    array no vjp reads is freed once the forward drops its Var.

    :func:`backward` pops each record as its vjp runs, so a consumed tape is
    empty and holds no node, closure or gradient. What the caller holds
    itself (parameters, inputs, any intermediate Var) keeps its ``grad``. A
    consumed tape refuses new records: no backward could run on them, and
    they would keep their arrays alive for nothing.

    ``frozen`` holds the ids of the leaf nodes that get no gradient. It is
    empty until :func:`backward` is given ``params``; then it holds every
    leaf input node that is not a parameter's, and a vjp may skip that
    input's gradient (``conv2d`` does, for the raw image into the encoding
    conv). The ids stay valid because the records keep those nodes alive;
    an id of a Var would not, since a Var the forward dropped is freed and
    a new one can reuse its id. A vjp holds the set itself, never the tape:
    a tape its own records reach is a reference cycle, which keeps every
    activation alive until the cyclic garbage collector runs."""

    def __init__(self):
        self.records: list[tuple[tuple[Node, ...], tuple[Node, ...], callable]] = []
        self.consumed = False
        self.frozen: set[int] = set()

    def push(self, outs: tuple[Var, ...], inputs: tuple[Var, ...], vjp):
        if self.consumed:
            raise TapeError("cannot record on a tape already consumed by a backward pass")
        self.records.append((tuple(o.node for o in outs), tuple(v.node for v in inputs), vjp))

    def __len__(self):
        return len(self.records)


def _accum(node: Node, g: np.ndarray):
    if g is None:
        return
    if g.shape != node.shape:  # undo numpy broadcasting
        extra = g.ndim - len(node.shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        keep = tuple(i for i, n in enumerate(node.shape) if n == 1 and g.shape[i] != 1)
        if keep:
            g = g.sum(axis=keep, keepdims=True)
    node.grad = g if node.grad is None else node.grad + g


def backward(tape: Tape, loss: Var, params=None) -> dict[Var, np.ndarray]:
    """Propagate d(loss)/d(everything) through the tape, newest record first.

    Returns a mapping for ``params`` (every listed parameter gets a slot,
    zero-filled if the loss does not depend on it) and leaves ``grad`` set on
    all touched Vars. A record is skipped when none of its output nodes has a
    gradient; otherwise its vjp gets every output's gradient, None for the
    ungraded ones. Given ``params``, a leaf node that is not a parameter's
    gets no gradient (see ``Tape.frozen``, which holds node ids); with
    ``params=None`` every leaf does. Each record leaves the tape as its vjp
    runs: the tape ends empty, and a node or captured array the caller does
    not hold is freed once backward has passed it.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.consumed = True
    if params is not None:
        keep = {id(o) for outs, _, _ in tape.records for o in outs} | {id(p.node) for p in params}
        tape.frozen.update({id(n) for _, inputs, _ in tape.records for n in inputs} - keep)
    loss.grad = np.ones_like(loss.data)
    while tape.records:
        outs, inputs, vjp = tape.records.pop()
        grads = [out.grad for out in outs]
        if any(g is not None for g in grads):
            for node, g in zip(inputs, vjp(*grads)):
                if id(node) not in tape.frozen:
                    _accum(node, g)
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
    shape = a.data.shape
    n = int(np.prod([shape[i] for i in axes]))
    out = Var(a.data.mean(axis=axes))

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape) / n,)

    return _push(tape, out, (a,), vjp)


def sum_axes(tape, a: Var, axes: tuple[int, ...], keepdims: bool = True) -> Var:
    shape = a.data.shape
    out = Var(a.data.sum(axis=axes, keepdims=keepdims))

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

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
    adjoints, with no input gradient when ``x``'s node is frozen. The vjp
    holds that node's id, not ``x``: ``x.data`` stays alive only where the
    adjoint reads it."""
    out, adjoint = conv2d_core(x.data, w.data, stride, padding, groups)
    frozen = () if tape is None else tape.frozen
    xid = None if tape is None else id(x.node)

    def vjp(g):
        return adjoint(g, xid not in frozen)

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
