"""Spike-driven self-attention operators and the float reference attention.

All four spike-driven variants take binary Q/K/V and emit binary output with
no softmax and no scale multiplication:

* variant 1 masks Q's channels by the fired channel totals of K AND V
* variant 2 masks V's channels by the fired channel totals of Q alone
* variant 3 fires the integer product Q (K^T V) against a scaled threshold;
  with K^T V computed first it stays linear in the token count N = H*W
* variant 4 is variant 3 with the threshold as a trainable scalar

What each variant is made of is stated here once. ``VARIANTS`` lists, per
variant, the Q/K/V maps it reads (variant 2 has no K) and the maps whose
firing rates sum to its R_hat in the energy model: K and V for variant 1, Q
for variant 2, and Q, K, V, K^T V and Q K^T V for variants 3 and 4.
``blocks.TransformerBlock`` builds a K stream only where it is read, and
``energy.charged_ops`` charges the Q/K/V convs and R_hat from the same
table. The rules on the SDSA settings (the variant, the heads, the threshold
scale and a width the matmul variants can split into heads) are
``SDSAConfig``'s, the ranges declared on its fields, and
``config.ModelConfig`` checks its SDSA settings by building one.

Each variant is written once, in :func:`attend`, from the autodiff ops on
the (B, D, H, W) spike maps of the conv layout; the caller supplies ``fire``,
which turns the integer sums into spikes. ``blocks.TransformerBlock`` passes
the maps its Q/K/V neurons fire and the step of its one attention neuron,
and records on its tape. The functional forms ``sdsa1``..``sdsa4`` are the
only token boundary: each (N, D) operand goes in as a (1, D, N, 1) map and
the output comes back as (N, D). They fire a Heaviside at a fixed threshold
with no tape, so they implement single-timestep semantics (the neuron state
starts from reset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ArgError, ConfigError, ShapeError, check_fields, check_int, setting
from .kernels import conv2d_raw
from .neuron import LIFParams, heaviside, sn_forward
from .tensors import DenseTensor, SpikeTensor, check_same_shape

__all__ = [
    "VARIANTS",
    "SDSAConfig",
    "attend",
    "gen_qkv",
    "sdsa1",
    "sdsa2",
    "sdsa3",
    "sdsa4",
    "vsa_reference",
    "split_heads",
    "merge_heads",
]

DEFAULT_THRESHOLD_SCALE = 0.125

# per variant: the Q/K/V maps it reads, and the maps whose firing rates sum
# to its R_hat (``energy.sdsa_flops``)
_MATMUL = ("qkv", ("q", "k", "v", "ktv", "qktv"))
VARIANTS = {1: ("qkv", ("k", "v")), 2: ("qv", ("q",)), 3: _MATMUL, 4: _MATMUL}


@dataclass(frozen=True)
class SDSAConfig:
    """One transformer stage's attention settings, and the one statement of
    their rules; a value out of range is named by its ``[model]`` config key
    (``sdsa_variant`` for ``variant``). The ranges of ``heads`` and
    ``threshold_scale`` are declared beside them and enforced by
    ``errors.check_fields`` (type, finiteness, then range); ``__post_init__``
    adds that the variant is a key of ``VARIANTS`` and that a matmul
    variant's width splits into its heads. ``dim`` is the stage width, or 0
    for none to check."""

    variant: int = 3
    heads: int = setting(8, "[1, inf)")
    dim: int = 0
    threshold_scale: float = setting(DEFAULT_THRESHOLD_SCALE, "(0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"sdsa_variant must be 1..4, got {self.variant}")
        if self.dim and self.variant in (3, 4) and self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by {self.heads} heads")


def _check_heads(d: int, heads):
    """Raise ``ArgError`` unless ``heads`` is an integer >= 1
    (``errors.check_int``), and ``ShapeError`` unless it divides the width
    ``d``."""
    check_int("heads", heads, 1)
    if d % heads:
        raise ShapeError(f"dim {d} not divisible by {heads} heads")


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(N, D) -> (heads, N, D/heads), for ``heads`` that :func:`_check_heads`
    passes."""
    n, d = x.shape
    _check_heads(d, heads)
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def gen_qkv(u: DenseTensor, rep1, rep2, rep3, params: LIFParams | None = None):
    """Generate binary Q/K/V from a (T, B, C, H, W) membrane tensor.

    Each stream is conv -> stateful spiking neuron, then reshaped to token
    layout (T, B, N, D) with N = H*W and D = C.
    """
    if u.data.ndim != 5:
        raise ShapeError(f"gen_qkv expects (T, B, C, H, W), got {u.shape}")
    params = params or LIFParams()
    t_len, b = u.data.shape[:2]
    outs = []
    for kern in (rep1, rep2, rep3):
        cur = np.stack([conv2d_raw(u.data[t], kern.weights, kern.bias, kern.stride,
                                   kern.padding, kern.groups) for t in range(t_len)])
        spikes = sn_forward(params, DenseTensor(cur)).data
        d_out, h, w = spikes.shape[2:]
        tokens = spikes.reshape(t_len, b, d_out, h * w).transpose(0, 1, 3, 2)
        outs.append(SpikeTensor(tokens))
    return tuple(outs)


def attend(tape, variant: int, q: Var, k: Var | None, v: Var, heads: int, fire):
    """One spike-driven self-attention step on (B, D, H, W) spike maps.

    ``fire`` turns the integer sums a variant thresholds into spikes: the
    (B, D, 1, 1) map totals of variants 1 and 2, or the (B, D, H, W) map of
    Q (K^T V) of variants 3 and 4. ``k`` is None for variant 2. The ops record
    on ``tape``. Returns the output spikes, then the per-head K^T V
    (B, heads, D/heads, D/heads) and (Q K^T V)^T (B, heads, D/heads, H*W) of
    variants 3 and 4 (None for variants 1 and 2).
    """
    if variant == 1:
        return ad.mul(tape, q, fire(ad.sum_axes(tape, ad.mul(tape, k, v), (2, 3)))), None, None
    if variant == 2:
        return ad.mul(tape, fire(ad.sum_axes(tape, q, (2, 3))), v), None, None
    b, d, h, w = q.shape
    qh, kh, vh = (ad.reshape(tape, z, (b, heads, d // heads, h * w)) for z in (q, k, v))
    ktv = ad.matmul(tape, kh, ad.transpose(tape, vh, (0, 1, 3, 2)))
    qktv = ad.matmul(tape, ad.transpose(tape, ktv, (0, 1, 3, 2)), qh)
    return fire(ad.reshape(tape, qktv, (b, d, h, w))), ktv, qktv


def _functional(variant, q, k, v, threshold, heads=1) -> SpikeTensor:
    """:func:`attend` on (N, D) spike tensors from the reset state: (1, D, N, 1)
    maps, no tape, and firing wherever a sum reaches ``threshold``, which
    must be finite, with ``heads`` checked by :func:`_check_heads`."""
    for z in (k, v):
        if z is not None:
            check_same_shape(q, z)
    if q.data.ndim != 2:
        raise ShapeError(f"SDSA expects (N, D) operands, got {q.shape}")
    _check_heads(q.shape[1], heads)
    if not np.isfinite(threshold):
        raise ArgError(f"SDSA threshold must be finite, got {threshold}")
    maps = [None if z is None else Var(z.data.T[None, :, :, None]) for z in (q, k, v)]
    out, _, _ = attend(None, variant, *maps, heads, lambda z: Var(heaviside(z.data - threshold)))
    return SpikeTensor(out.data[0, :, :, 0].T.astype(np.uint8))


def sdsa1(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, u_th: float = 1.0) -> SpikeTensor:
    """Mask Q by the fired column totals of K AND V (hydra-style, O(ND))."""
    return _functional(1, q, k, v, u_th)


def sdsa2(q: SpikeTensor, v: SpikeTensor, u_th: float = 1.0) -> SpikeTensor:
    """Mask V by the fired column totals of Q; K plays no part."""
    return _functional(2, q, None, v, u_th)


def sdsa3(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor,
          threshold: float = DEFAULT_THRESHOLD_SCALE, heads: int = 1) -> SpikeTensor:
    """Fire the integer attention product against a scaled threshold.

    Computes K^T V first (linear in token count), multiplies by Q, and
    thresholds; per-head when ``heads`` > 1.
    """
    return _functional(3, q, k, v, threshold, heads)


def sdsa4(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor,
          learnable_threshold: float, heads: int = 1) -> SpikeTensor:
    """Variant 3 with the firing threshold supplied by a trainable scalar."""
    return _functional(4, q, k, v, float(learnable_threshold), heads)


def vsa_reference(q: DenseTensor, k: DenseTensor, v: DenseTensor, heads: int = 1) -> DenseTensor:
    """Scaled dot-product softmax attention; oracle and energy baseline only."""
    check_same_shape(q, k)
    check_same_shape(q, v)
    if q.data.ndim != 2:
        raise ShapeError(f"vsa_reference expects (N, D), got {q.shape}")
    qs = split_heads(q.data, heads)
    ks = split_heads(k.data, heads)
    vs = split_heads(v.data, heads)
    d = qs.shape[-1]
    outs = np.empty_like(qs)
    for i in range(heads):
        scores = qs[i] @ ks[i].T / np.sqrt(d)
        scores -= scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=1, keepdims=True)
        outs[i] = w @ vs[i]
    return DenseTensor(merge_heads(outs))
