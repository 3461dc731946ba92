"""Compute kernels.

Two execution routes exist for every linear op on spikes:

* event route -- iterate the nonzero (spike) positions and scatter weight
  rows/columns into the output. Only additions are performed per event,
  mirroring addressable accumulation on neuromorphic hardware.
* dense route -- textbook float matmul/convolution, used as the reference
  oracle and as the training substrate.

The two must agree: exactly for integer weights, within 1e-5 absolute for
floats (the event path accumulates in float32, the oracles in float64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensors import DenseTensor, IntTensor, SpikeTensor, check_same_shape

__all__ = [
    "ConvKernel",
    "OpCounter",
    "event_matmul",
    "binary_matmul",
    "event_conv2d",
    "dense_matmul",
    "dense_conv2d",
    "hadamard_mask",
    "sum_columns",
    "conv2d_raw",
    "conv_output_size",
]

ARTIFACT_KERNEL_SIZES = (1, 3, 7)


@dataclass
class ConvKernel:
    """2-D convolution weights with 'same'-style padding (k // 2)."""

    weights: np.ndarray  # (c_out, c_in_per_group, k, k)
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int | None = None
    groups: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ShapeError(f"conv weights must be (c_out, c_in, k, k), got {self.weights.shape}")
        if self.k not in ARTIFACT_KERNEL_SIZES:
            raise ShapeError(f"kernel size {self.k} not in {ARTIFACT_KERNEL_SIZES}")
        if self.padding is None:
            self.padding = self.k // 2
        if self.bias is None:
            self.bias = np.zeros(self.c_out, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.c_out,):
            raise ShapeError(f"bias must be ({self.c_out},), got {self.bias.shape}")

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1] * self.groups

    @property
    def k(self) -> int:
        return self.weights.shape[2]


@dataclass
class OpCounter:
    """Accumulates the additions actually performed on the event route."""

    adds: int = 0
    per_op: dict = field(default_factory=dict)

    def count(self, name: str, n: int):
        self.adds += n
        self.per_op[name] = self.per_op.get(name, 0) + n


def conv_output_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def dense_matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot matmul {a.shape} x {b.shape}")
    return DenseTensor(a.data @ b.data)


def event_matmul(s: SpikeTensor, w: DenseTensor, counter: OpCounter | None = None) -> DenseTensor:
    """Matmul driven by the spike events of ``s``.

    For each event (n, d) the weight row w[d, :] is accumulated into
    out[n, :]; total additions are (number of events) * M.
    """
    if s.data.ndim != 2 or w.data.ndim != 2 or s.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot matmul {s.shape} x {w.shape}")
    n, _ = s.shape
    m = w.shape[1]
    out = np.zeros((n, m), dtype=np.float32)
    w32 = w.data.astype(np.float32)
    rows, cols = np.nonzero(s.data)
    for i, d in zip(rows, cols):
        out[i] += w32[d]
    if counter is not None:
        counter.count("event_matmul", int(rows.size) * m)
    return DenseTensor(out.astype(np.float64))


def binary_matmul(a: SpikeTensor, b: SpikeTensor) -> IntTensor:
    """Exact integer product of two binary matrices; entries are bounded by
    the inner dimension."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot matmul {a.shape} x {b.shape}")
    return IntTensor(a.data.astype(np.int64) @ b.data.astype(np.int64))


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p)))


def im2col_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Bias-free convolution of a (B, C, H, W) array with zero padding: one
    matmul per group over the (B, C, k, k, Ho, Wo) patch tensor. Returns the
    output and the patch tensor (the autodiff adjoint reuses it)."""
    b, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    xp = _pad2d(x, padding)
    cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    out = np.empty((b, c_out, ho, wo), dtype=np.float64)
    og = c_out // groups
    for g in range(groups):
        cg = cols[:, g * c_in_g:(g + 1) * c_in_g].reshape(b, c_in_g * k * k, ho * wo)
        wg = weights[g * og:(g + 1) * og].reshape(og, c_in_g * k * k)
        out[:, g * og:(g + 1) * og] = (wg @ cg).reshape(b, og, ho, wo)
    return out, cols


def conv2d_raw(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, groups: int = 1) -> np.ndarray:
    """im2col convolution over a batched (B, C, H, W) float array."""
    _, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    if c != c_in_g * groups:
        raise ShapeError(f"input has {c} channels, kernel expects {c_in_g * groups}")
    if conv_output_size(h, k, stride, padding) <= 0 or \
            conv_output_size(w, k, stride, padding) <= 0:
        raise ShapeError(f"conv output would be empty for input {x.shape}")
    out, _ = im2col_conv(x, weights, stride, padding, groups)
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def dense_conv2d(x: DenseTensor, kern: ConvKernel) -> DenseTensor:
    """Reference convolution on a (C, H, W) input, float64 accumulation."""
    if x.data.ndim != 3:
        raise ShapeError(f"dense_conv2d expects (C, H, W), got {x.shape}")
    out = conv2d_raw(x.data[None].astype(np.float64), kern.weights, kern.bias,
                     kern.stride, kern.padding, kern.groups)
    return DenseTensor(out[0])


def event_conv2d(s: SpikeTensor, kern: ConvKernel, counter: OpCounter | None = None) -> DenseTensor:
    """Convolution driven by input events: each spike scatter-accumulates the
    kernel taps it touches into the output map. float32 accumulation."""
    if s.data.ndim != 3:
        raise ShapeError(f"event_conv2d expects (C, H, W), got {s.shape}")
    c, h, w = s.shape
    if c != kern.c_in:
        raise ShapeError(f"input has {c} channels, kernel expects {kern.c_in}")
    k, p, st = kern.k, kern.padding, kern.stride
    ho = conv_output_size(h, k, st, p)
    wo = conv_output_size(w, k, st, p)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv output would be empty for input {s.shape}")
    cig = kern.weights.shape[1]
    og = kern.c_out // kern.groups
    w32 = kern.weights.astype(np.float32)
    out = np.zeros((kern.c_out, ho, wo), dtype=np.float32)
    # compensated summation keeps the float32 route inside the 1e-5 band even
    # for 7x7 kernels with hundreds of contributions per output element
    comp = np.zeros_like(out)
    adds = 0
    cs, ys, xs = np.nonzero(s.data)
    for ci, y, x in zip(cs, ys, xs):
        g = ci // cig
        osl = slice(g * og, (g + 1) * og)
        wslice = w32[osl, ci % cig]  # (og, k, k)
        for ky in range(k):
            oy, rem = divmod(y + p - ky, st)
            if rem or not (0 <= oy < ho):
                continue
            for kx in range(k):
                ox, rem = divmod(x + p - kx, st)
                if rem or not (0 <= ox < wo):
                    continue
                contrib = wslice[:, ky, kx] - comp[osl, oy, ox]
                total = out[osl, oy, ox] + contrib
                comp[osl, oy, ox] = (total - out[osl, oy, ox]) - contrib
                out[osl, oy, ox] = total
                adds += og
    out += kern.bias.astype(np.float32)[:, None, None]
    if counter is not None:
        counter.count("event_conv2d", adds)
    return DenseTensor(out.astype(np.float64))


def hadamard_mask(a: SpikeTensor, b: SpikeTensor) -> SpikeTensor:
    """Elementwise AND of two spike tensors (the zero-cost mask op)."""
    check_same_shape(a, b, "mask operands")
    return SpikeTensor(a.data & b.data)


def sum_columns(s: SpikeTensor) -> IntTensor:
    """Column totals of an (N, D) spike matrix, kept as a (1, D) row."""
    if s.data.ndim != 2:
        raise ShapeError(f"sum_columns expects (N, D), got {s.shape}")
    return IntTensor(s.data.astype(np.int64).sum(axis=0, keepdims=True))
