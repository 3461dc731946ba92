"""Compute kernels.

Two execution routes exist for every linear op on spikes:

* event route -- scatter the weights each spike touches into the output.
  Only additions are performed per event, mirroring addressable
  accumulation on neuromorphic hardware. It runs one kernel tap at a time:
  for each tap it locates every event's output position and adds the
  gathered weights into a float64 map (:func:`_scatter`).
  :func:`event_matmul` is its 1x1 case, on the transposed (D, N, 1) map.
* dense route -- textbook float matmul/convolution, used as the reference
  oracle and as the training substrate.

The two must agree: exactly for integer weights, within 1e-5 absolute for
floats (both routes accumulate in float64, in different orders).

The dense convolution (:func:`conv2d_core`, behind ``conv2d_raw``,
``dense_conv2d`` and ``autodiff.conv2d``) has two algorithms, picked by the
shape of the weights, each with its adjoint and neither looping over groups:

* depthwise (``groups == C_in == C_out``) -- k*k shifted multiply-adds over
  the padded input, with no patch tensor (:func:`depthwise_conv`);
* every other conv -- the (B, C, k, k, Ho, Wo) patch tensor times the
  weights in one matmul batched over the group axis (:func:`im2col_conv`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    out = _scatter(s.data.T[:, :, None], ConvKernel(weights=w.data.T[:, :, None, None]), counter)
    return DenseTensor(out[:, :, 0].T)


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


def _unpad2d(x: np.ndarray, p: int) -> np.ndarray:
    return x[..., p:x.shape[-2] - p, p:x.shape[-1] - p] if p else x


def _taps(k: int, stride: int, ho: int, wo: int):
    """The k*k taps (i, j) of a kernel, each with the window of the padded
    input it reads: rows i, i + stride, ... (ho of them), likewise columns."""
    for i in range(k):
        for j in range(k):
            yield i, j, (slice(None), slice(None), slice(i, i + stride * ho, stride),
                         slice(j, j + stride * wo, stride))


def depthwise_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int):
    """Depthwise convolution (one (1, k, k) filter per channel) as k*k shifted
    multiply-adds over the padded input; no patch tensor is built. Returns
    the output and its adjoint ``g -> (gx, gw)``."""
    b, c, h, w = x.shape
    k = weights.shape[2]
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    taps = weights[:, 0, :, :, None, None]  # (C, k, k, 1, 1)
    xp = _pad2d(x, padding)
    out = np.zeros((b, c, ho, wo))
    tmp = np.empty_like(out)
    for i, j, win in _taps(k, stride, ho, wo):
        out += np.multiply(xp[win], taps[:, i, j], out=tmp)

    def adjoint(g):
        xp = _pad2d(x, padding)  # padded again, not held from the forward
        gxp = np.zeros(xp.shape)
        gw = np.empty(weights.shape)
        tmp = np.empty(g.shape)
        for i, j, win in _taps(k, stride, ho, wo):
            gw[:, 0, i, j] = np.einsum("bchw,bchw->c", g, xp[win])
            gxp[win] += np.multiply(g, taps[:, i, j], out=tmp)
        return _unpad2d(gxp, padding), gw

    return out, adjoint


def im2col_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Grouped convolution as one batched matmul over the group axis: the
    (B, C, k, k, Ho, Wo) patch tensor, viewed as (B, G, C/G*k*k, Ho*Wo), is
    multiplied by the weights viewed as (G, C_out/G, C/G*k*k). A 1x1,
    stride-1, unpadded conv uses ``x`` itself as the patch tensor. Returns
    the output and its adjoint ``g -> (gx, gw)``."""
    b, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    pointwise = k == 1 and stride == 1 and padding == 0
    if pointwise:
        cols = x
    else:
        xp = _pad2d(x, padding)
        cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
        for i, j, win in _taps(k, stride, ho, wo):
            cols[:, :, i, j] = xp[win]
    cols = cols.reshape(b, groups, c_in_g * k * k, ho * wo)
    wg = weights.reshape(groups, c_out // groups, c_in_g * k * k)
    out = np.matmul(wg, cols).reshape(b, c_out, ho, wo)

    def adjoint(g):
        gg = g.reshape(b, groups, c_out // groups, ho * wo)
        gw = np.matmul(gg, cols.swapaxes(-1, -2)).sum(axis=0).reshape(weights.shape)
        gcols = np.matmul(wg.swapaxes(-1, -2), gg)
        if pointwise:
            return gcols.reshape(x.shape), gw
        gcols = gcols.reshape(b, c, k, k, ho, wo)
        gxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
        for i, j, win in _taps(k, stride, ho, wo):
            gxp[win] += gcols[:, :, i, j]
        return _unpad2d(gxp, padding), gw

    return out, adjoint


def conv2d_core(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Bias-free convolution of a (B, C, H, W) array with zero padding.

    Returns the output and its adjoint ``g -> (gx, gw)``. A depthwise conv
    (``groups == C_in == C_out``) runs :func:`depthwise_conv`; every other
    conv runs :func:`im2col_conv`.
    """
    if groups == x.shape[1] == weights.shape[0]:
        return depthwise_conv(x, weights, stride, padding)
    return im2col_conv(x, weights, stride, padding, groups)


def conv2d_raw(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, groups: int = 1) -> np.ndarray:
    """Convolution plus bias over a batched (B, C, H, W) float array."""
    _, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    if c != c_in_g * groups:
        raise ShapeError(f"input has {c} channels, kernel expects {c_in_g * groups}")
    if conv_output_size(h, k, stride, padding) <= 0 or \
            conv_output_size(w, k, stride, padding) <= 0:
        raise ShapeError(f"conv output would be empty for input {x.shape}")
    out, _ = conv2d_core(x, weights, stride, padding, groups)
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


def _scatter(s: np.ndarray, kern: ConvKernel, counter: OpCounter | None) -> np.ndarray:
    """Event-driven convolution of a binary (C, H, W) map, one kernel tap at a
    time. Event (c, y, x) feeds output (oy, ox) at tap (ky, kx) when
    y + padding - ky == oy * stride, likewise x; every valid (event, tap)
    pair adds the C_out/G weights of its group, summed in float64."""
    c_out, cig, k, _ = kern.weights.shape
    p, st = kern.padding, kern.stride
    ho = conv_output_size(s.shape[1], k, st, p)
    wo = conv_output_size(s.shape[2], k, st, p)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv output would be empty for input {s.shape}")
    og = c_out // kern.groups
    cs, ys, xs = np.nonzero(s)
    group, c_local = np.divmod(cs, cig)
    rows = group * og * ho * wo  # flat index of out[first channel of the group, 0, 0]
    fanout = np.arange(og) * ho * wo  # offsets of the group's C_out/G output channels
    wg = kern.weights.reshape(kern.groups, og, cig, k, k)
    out = np.zeros(c_out * ho * wo)
    for ky in range(k):
        oy, ry = np.divmod(ys + p - ky, st)
        for kx in range(k):
            ox, rx = np.divmod(xs + p - kx, st)
            hit = (ry == 0) & (rx == 0) & (oy >= 0) & (oy < ho) & (ox >= 0) & (ox < wo)
            idx = rows[hit] + oy[hit] * wo + ox[hit]
            vals = wg[group[hit], :, c_local[hit], ky, kx]  # (events, og)
            out += np.bincount((idx[:, None] + fanout).ravel(), weights=vals.ravel(),
                               minlength=out.size)
            if counter is not None:
                counter.adds += int(idx.size) * og
    return out.reshape(c_out, ho, wo) + kern.bias[:, None, None]


def event_conv2d(s: SpikeTensor, kern: ConvKernel, counter: OpCounter | None = None) -> DenseTensor:
    """Convolution driven by input events: each spike scatter-accumulates the
    kernel taps it touches into the output map. float64 accumulation."""
    if s.data.ndim != 3:
        raise ShapeError(f"event_conv2d expects (C, H, W), got {s.shape}")
    if s.shape[0] != kern.c_in:
        raise ShapeError(f"input has {s.shape[0]} channels, kernel expects {kern.c_in}")
    return DenseTensor(_scatter(s.data, kern, counter))


def hadamard_mask(a: SpikeTensor, b: SpikeTensor) -> SpikeTensor:
    """Elementwise AND of two spike tensors (the zero-cost mask op)."""
    check_same_shape(a, b, "mask operands")
    return SpikeTensor(a.data & b.data)


def sum_columns(s: SpikeTensor) -> IntTensor:
    """Column totals of an (N, D) spike matrix, kept as a (1, D) row."""
    if s.data.ndim != 2:
        raise ShapeError(f"sum_columns expects (N, D), got {s.shape}")
    return IntTensor(s.data.astype(np.int64).sum(axis=0, keepdims=True))
