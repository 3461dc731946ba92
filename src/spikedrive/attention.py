"""Spike-driven self-attention operators and the float reference attention.

All four spike-driven variants take binary Q/K/V and emit binary output with
no softmax and no scale multiplication:

* variant 1 masks V's columns by a fired column-sum of K AND V
* variant 2 masks V's columns by a fired column-sum of Q alone
* variant 3 fires the integer product Q (K^T V) against a scaled threshold
* variant 4 is variant 3 with the threshold as a trainable scalar

These functional forms implement single-timestep semantics (the neuron state
starts from reset); the stateful multi-timestep behaviour lives in the block
layer that owns the operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import binary_matmul, conv2d_raw, hadamard_mask, sum_columns
from .neuron import LIFParams, heaviside, sn_forward
from .tensors import DenseTensor, SpikeTensor, check_same_shape

__all__ = [
    "SDSAConfig",
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


@dataclass(frozen=True)
class SDSAConfig:
    variant: int = 3
    heads: int = 8
    dim: int = 0
    threshold_scale: float = DEFAULT_THRESHOLD_SCALE

    def __post_init__(self):
        if self.variant not in (1, 2, 3, 4):
            raise ValueError(f"unknown SDSA variant {self.variant}")
        if self.heads < 1:
            raise ValueError("head count must be >= 1")
        if self.threshold_scale <= 0:
            raise ValueError("threshold_scale must be > 0")
        if self.dim and self.variant in (3, 4) and self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by {self.heads} heads")


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(N, D) -> (heads, N, D/heads)."""
    n, d = x.shape
    if d % heads:
        raise ShapeError(f"dim {d} not divisible by {heads} heads")
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


def _fire(x: np.ndarray, threshold: float) -> np.ndarray:
    return heaviside(x.astype(np.float64) - threshold).astype(np.uint8)


def sdsa1(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, u_th: float = 1.0) -> SpikeTensor:
    """Mask Q by the fired column totals of K AND V (hydra-style, O(ND))."""
    check_same_shape(q, k)
    check_same_shape(q, v)
    kv = hadamard_mask(k, v)
    col = sum_columns(kv)  # (1, D)
    gate = _fire(col.data, u_th)
    return SpikeTensor(q.data & gate)


def sdsa2(q: SpikeTensor, v: SpikeTensor, u_th: float = 1.0) -> SpikeTensor:
    """Mask V by the fired column totals of Q; K plays no part."""
    check_same_shape(q, v)
    gate = _fire(sum_columns(q).data, u_th)
    return SpikeTensor(gate & v.data)


def sdsa3(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor,
          threshold: float = DEFAULT_THRESHOLD_SCALE, heads: int = 1) -> SpikeTensor:
    """Fire the integer attention product against a scaled threshold.

    Computes K^T V first (linear in token count), multiplies by Q, and
    thresholds; per-head when ``heads`` > 1.
    """
    check_same_shape(q, k)
    check_same_shape(q, v)
    if q.data.ndim != 2:
        raise ShapeError(f"sdsa3 expects (N, D) operands, got {q.shape}")
    qs = split_heads(q.data, heads)
    ks = split_heads(k.data, heads)
    vs = split_heads(v.data, heads)
    out = np.empty_like(qs, dtype=np.int64)
    for i in range(heads):
        kv = binary_matmul(SpikeTensor(ks[i].T), SpikeTensor(vs[i]))  # (d, d) K^T V
        out[i] = qs[i].astype(np.int64) @ kv.data
    return SpikeTensor(_fire(merge_heads(out), threshold))


def sdsa4(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor,
          learnable_threshold: float, heads: int = 1) -> SpikeTensor:
    """Variant 3 with the firing threshold supplied by a trainable scalar."""
    return sdsa3(q, k, v, threshold=float(learnable_threshold), heads=heads)


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
