"""Compute kernels.

Two execution routes exist for every linear op on spikes:

* event route -- scatter the weights each spike touches into the output.
  Only additions are performed per event, mirroring addressable
  accumulation on neuromorphic hardware. It runs one kernel tap at a time
  on the events taken position-major, so each tap's output rows come in
  non-decreasing order: it gathers each event's C_out/G weights as one
  contiguous row, ``SCATTER_BLOCK`` weight entries at a time, sums each run
  of rows bound for one output with ``np.add.reduceat`` (:func:`_add_runs`)
  and adds the sums into a channel-last float64 map (:func:`_scatter`).
  :func:`event_matmul` is its 1x1 case, on the transposed (D, N, 1) map.
* dense route -- textbook float matmul/convolution, used as the reference
  oracle and as the training substrate.

The two must agree: exactly for integer weights, within 1e-5 absolute for
floats (both routes accumulate in float64, in different orders).

The dense convolution (:func:`conv2d_core`, behind ``conv2d_raw``,
``dense_conv2d`` and ``autodiff.conv2d``) has four algorithms, picked by the
shapes of the weights and the input (:func:`_conv`), none looping over
groups. Each returns its output and an adjoint ``(g, need_x=True) -> (gx,
gw)`` with its own gw. Every gx is the same conv (:func:`_input_grad`): the
stride-1 conv of g, spread onto the stride grid with zeros between, with
the kernel flipped in space and each group's channels swapped, run through
the same dispatch as the forward; it is None, and not computed, when
``need_x`` is false. Two algorithms take the depthwise convs (``groups ==
C_in == C_out``):

* on a small map, H*W <= B*k*k, so that its operator has no more entries
  than the k*k taps do multiply-adds -- one matmul batched over channels
  against each channel's (H*W, Ho*Wo) Toeplitz operator, ``OPERATOR_BLOCK``
  operator entries at a time (:func:`toeplitz_conv`);
* on every other map -- one matmul batched over (B, C) per kernel row and
  block of ``ROW_BLOCK`` output columns: the padded input's rows, a strided
  view, times a banded operator that holds the row's k weights
  (:func:`_band_operators`), with no patch tensor (:func:`depthwise_conv`).

The Toeplitz operator is made of those row bands, one at each (input row,
output row) pair a kernel row joins, and both algorithms reduce their
weight gradient from x^T g in band layout (:func:`_band_weights`). Two take
the rest:

* ungrouped, stride 1, k > 1 and C_out < C_in -- one matmul of the k*k
  stacked taps against the padded input, then k*k shifted adds of its
  product, which is smaller than the patch tensor (:func:`kn2row_conv`);
* every other conv -- the (B, C, k, k, Ho, Wo) patch tensor times the
  weights in one matmul batched over the group axis (:func:`im2col_conv`),
  the only algorithm that builds a patch tensor.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgError, ShapeError, is_int
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
# most weight entries one gathered block of the event route holds (more only
# when a single event feeds more outputs than this), so its gather buffer
# stays at 512 KB however wide the fan-out; smaller blocks make more numpy
# calls per tap. On scripts/event_profile.py's summed pass (2-CPU Xeon, 1 BLAS
# thread, medians of five interleaved runs), 2^14 to 2^17 read alike, 362-371
# ms, and 2^18 read 405 ms; 2^16 is the middle of that flat range
SCATTER_BLOCK = 1 << 16
# most operator entries one channel block of toeplitz_conv builds (more only
# when a single channel's operator is larger), so its operator and its x^T g
# product stay at 8 MB each however many channels there are
OPERATOR_BLOCK = 1 << 20
# output columns per block of depthwise_conv (fewer in a map's last block):
# the banded operators of an n-column block do (stride*(n-1) + k) / k times
# the multiply-adds of the k*k taps, so wider blocks waste more on the band's
# zeros and narrower ones make more matmul calls; 8 beat 16 and 32 on the
# 15M net's depthwise convs in its T=1 forward
ROW_BLOCK = 8


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
        _check_groups(self.c_out, self.groups)
        if self.padding is None:
            self.padding = self.k // 2
        _check_geometry(self.stride, self.padding)
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


def _check_groups(c_out: int, groups: int):
    if not is_int(groups) or groups < 1 or c_out % groups:
        raise ShapeError(f"groups must be a positive divisor of the {c_out} output "
                         f"channels, got {groups}")


def _check_geometry(stride: int, padding: int):
    """Raise ``ShapeError`` unless ``stride`` and ``padding`` are integers
    (``errors.is_int``, so numpy ints pass), at most ``sys.maxsize``, with
    stride >= 1 and padding >= 0."""
    if not (is_int(stride) and is_int(padding) and 1 <= stride <= sys.maxsize
            and 0 <= padding <= sys.maxsize):
        raise ShapeError(f"conv needs integer stride >= 1 and padding >= 0, at most "
                         f"sys.maxsize, got stride {stride}, padding {padding}")


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
    out[n, :]; total additions are (number of events) * M. Raises
    ``ArgError`` unless ``s`` is a ``SpikeTensor``.
    """
    _check_spikes(s)
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


def _band_operators(weights: np.ndarray, stride: int, block: int) -> np.ndarray:
    """Each kernel row's banded operator per channel, (k, C, stride*(block-1)
    + k, block): band[i, c, stride*q + j, q] = weights[c, 0, i, j]. A block of
    n < ``block`` columns uses its top-left (stride*(n-1) + k, n) corner."""
    c, _, k, _ = weights.shape
    q = np.arange(block)
    bands = np.zeros((k, c, stride * (block - 1) + k, block))
    for j in range(k):
        bands[:, :, stride * q + j, q] = weights[:, 0, :, j].T[:, :, None]
    return bands


def _band_weights(xg: np.ndarray, stride: int) -> np.ndarray:
    """The (C, 1, k, k) weight gradient from x^T g laid out as the bands of
    :func:`_band_operators`, (k, C, rows, n): each weight's entries summed."""
    k, c, _, n = xg.shape
    q, j = np.arange(n), np.arange(k)[:, None]
    return xg[:, :, stride * q + j, q].sum(axis=-1).transpose(1, 0, 2).reshape(c, 1, k, k)


def depthwise_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int):
    """Depthwise convolution (one (1, k, k) filter per channel) as one matmul
    per kernel row i and block of ``ROW_BLOCK`` output columns, batched over
    (B, C): the padded input's rows i, i + stride, ... and the stride*(n-1) +
    k columns that the block's n outputs read, a strided view with no copy,
    times row i's banded operator (:func:`_band_operators`). The k products
    are summed in a contiguous buffer, then copied into the block. Returns
    the output and its adjoint ``(g, need_x=True) -> (gx, gw)``, which pads
    the input again rather than keeping the forward's padded copy: gw sums
    the band diagonals of each kernel row's x^T g, summed over the blocks,
    and gx is :func:`_input_grad`."""
    b, c, h, w = x.shape
    k = weights.shape[2]
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    block = min(ROW_BLOCK, wo)
    rows = [slice(i, i + stride * ho, stride) for i in range(k)]  # read by kernel row i
    blocks = [(slice(o0, o0 + n), slice(stride * o0, stride * (o0 + n - 1) + k))
              for o0 in range(0, wo, block) for n in [min(block, wo - o0)]]
    # in this order: other orders of the same four arrays left up to 13 MB
    # more heap fragmentation at the peak RSS of the 15M net's T=4 eval
    # forward and T=1 training step
    xp = _pad2d(x, padding)
    out = np.empty((b, c, ho, wo))
    bands = _band_operators(weights, stride, block)
    buf = np.empty((2, b * c * ho * block))
    for cols, span in blocks:
        n, m = cols.stop - cols.start, span.stop - span.start
        acc, tmp = buf[:, :b * c * ho * n].reshape(2, b, c, ho, n)
        for i, r in enumerate(rows):
            np.matmul(xp[:, :, r, span], bands[i, :, :m, :n], out=tmp if i else acc)
            if i:
                acc += tmp
        out[..., cols] = acc

    def adjoint(g, need_x=True):
        gx = _input_grad(g, weights, stride, padding, c, (b, c, h, w), need_x)
        xp = _pad2d(x, padding)  # padded again, not held from the forward
        xg = np.zeros((k, c, stride * (block - 1) + k, block))  # x^T g per kernel row
        for cols, span in blocks:
            gb = g[..., cols]
            n, m = cols.stop - cols.start, span.stop - span.start
            for i, r in enumerate(rows):
                xg[i, :, :m, :n] += np.matmul(xp[:, :, r, span].swapaxes(-1, -2), gb).sum(axis=0)
        return gx, _band_weights(xg, stride)

    return out, adjoint


def toeplitz_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int):
    """Depthwise convolution as one matmul batched over channels: each
    channel's (B, H*W) input times its (H*W, Ho*Wo) Toeplitz operator, made
    of the row bands of :func:`_band_operators` cropped to the unpadded
    columns: kernel row i puts its band at (input row y, output row oy) for
    each y = oy*stride + i - padding inside the map. Channels go
    ``OPERATOR_BLOCK`` operator entries at a time. Returns the output and its
    adjoint ``(g, need_x=True) -> (gx, gw)``: gw sums x^T g over the same
    (y, oy) pairs into band layout and then each weight's band diagonal
    (:func:`_band_weights`), and gx is :func:`_input_grad`."""
    b, c, h, w = x.shape
    k = weights.shape[2]
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    oy = np.arange(ho)
    ys = oy * stride + np.arange(k)[:, None] - padding  # the input rows kernel row i reads
    pairs = [(y[inside], oy[inside]) for y, inside in zip(ys, (ys >= 0) & (ys < h))]
    cols = slice(padding, padding + w)  # the band rows of the unpadded columns
    per = max(1, OPERATOR_BLOCK // (h * w * ho * wo))  # channels per block
    blocks = [slice(c0, min(c0 + per, c)) for c0 in range(0, c, per)]
    xc = x.reshape(b, c, h * w).transpose(1, 0, 2)  # (C, B, H*W)

    def operator(blk):
        a = np.zeros((blk.stop - blk.start, h, w, ho, wo))
        for band, (y, oy) in zip(_band_operators(weights[blk], stride, wo)[:, :, cols], pairs):
            a[:, y, :band.shape[1], oy] = band
        return a.reshape(-1, h * w, ho * wo)

    out = np.empty((b, c, ho * wo))
    outc = out.transpose(1, 0, 2)  # written through this (C, B, Ho*Wo) view
    for blk in blocks:
        np.matmul(xc[blk], operator(blk), out=outc[blk])

    def adjoint(g, need_x=True):
        gx = _input_grad(g, weights, stride, padding, c, (b, c, h, w), need_x)
        gc = g.reshape(b, c, ho * wo).transpose(1, 0, 2)
        gw = np.empty(weights.shape)
        for blk in blocks:
            xg = np.matmul(xc[blk].transpose(0, 2, 1), gc[blk]).reshape(-1, h, w, ho, wo)
            xgb = np.zeros((k, xg.shape[0], stride * (wo - 1) + k, wo))  # x^T g as bands
            for band, (y, oy) in zip(xgb[:, :, cols], pairs):
                band += xg[:, y, :band.shape[1], oy].sum(axis=0)
            gw[blk] = _band_weights(xgb, stride)
        return gx, gw

    return out.reshape(b, c, ho, wo), adjoint


def im2col_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Grouped convolution as one batched matmul over the group axis: the
    (B, C, k, k, Ho, Wo) patch tensor, viewed as (B, G, C/G*k*k, Ho*Wo), is
    multiplied by the weights viewed as (G, C_out/G, C/G*k*k). A 1x1,
    stride-1, unpadded conv uses ``x`` itself as the patch tensor. Returns
    the output and its adjoint ``(g, need_x=True) -> (gx, gw)``, which keeps
    the patch tensor and the shapes, not ``x`` (only a 1x1 conv's patch
    tensor is ``x`` itself): gw is g times the patch tensor, and gx is
    :func:`_input_grad`."""
    b, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    if k == 1 and stride == 1 and padding == 0:
        cols = x
    else:
        xp = _pad2d(x, padding)
        cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    cols = cols.reshape(b, groups, c_in_g * k * k, ho * wo)
    out = np.matmul(weights.reshape(groups, c_out // groups, c_in_g * k * k),
                    cols).reshape(b, c_out, ho, wo)

    def adjoint(g, need_x=True):
        gx = _input_grad(g, weights, stride, padding, groups, (b, c, h, w), need_x)
        gg = g.reshape(b, groups, c_out // groups, ho * wo)
        return gx, np.matmul(gg, cols.swapaxes(-1, -2)).sum(axis=0).reshape(weights.shape)

    return out, adjoint


def kn2row_conv(x: np.ndarray, weights: np.ndarray, padding: int):
    """Ungrouped stride-1 convolution lowered on its output side (kn2row;
    Anderson et al., arXiv 1709.03395). One matmul of the (k*k*C_out, C_in)
    stacked taps against the padded input viewed as (B, C_in, Hp*Wp); then
    the k*k tap slices of its product are added into a (B, C_out, Ho*Wp)
    buffer. Output pixel q reads tap (i, j) at q + i*Wp + j, so each slice is
    contiguous; the Wp - Wo wrap-around columns of each row are cropped. It
    moves C_out*k*k values per output pixel where :func:`im2col_conv` moves
    C_in*k*k. Returns the output and its adjoint ``(g, need_x=True) ->
    (gx, gw)``, which keeps only the padded input (not ``x``, when padding
    made a copy): gw is one matmul per tap on the flat slices of the input,
    and gx is :func:`_input_grad`."""
    b, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    xp = _pad2d(x, padding)
    hp, wp = xp.shape[2:]
    ho, wo = hp - k + 1, wp - k + 1
    n = ho * wp - k + 1  # buffer entries through the last output pixel
    offsets = [i * wp + j for i in range(k) for j in range(k)]
    xf = xp.reshape(b, c, hp * wp)
    stacked = weights.transpose(2, 3, 0, 1).reshape(k * k * c_out, c)
    prod = np.matmul(stacked, xf).reshape(b, k * k, c_out, hp * wp)
    buf = np.empty((b, c_out, ho * wp))
    buf[:, :, :n] = prod[:, 0, :, :n]
    for t in range(1, k * k):
        buf[:, :, :n] += prod[:, t, :, offsets[t]:offsets[t] + n]
    out = np.ascontiguousarray(buf.reshape(b, c_out, ho, wp)[..., :wo])

    def adjoint(g, need_x=True):
        gx = _input_grad(g, weights, 1, padding, 1, (b, c, h, w), need_x)
        gbuf = np.zeros((b, c_out, ho, wp))  # g on the buffer's grid, 0 past Wo
        gbuf[..., :wo] = g
        gf = gbuf.reshape(b, c_out, ho * wp)[:, :, :n]
        gw = np.empty((k * k, c_out, c))
        for t, off in enumerate(offsets):
            gw[t] = np.matmul(gf, xf[:, :, off:off + n].swapaxes(1, 2)).sum(axis=0)
        return gx, gw.reshape(k, k, c_out, c).transpose(2, 3, 0, 1).copy()

    return out, adjoint


def conv2d_core(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Bias-free convolution of a (B, C, H, W) array with zero padding.

    Returns the output and its adjoint ``(g, need_x=True) -> (gx, gw)``, gx
    None when ``need_x`` is false. Raises
    ``ShapeError`` when the channels or groups do not fit the weights or the
    output would be empty. Four algorithms, picked by shape (:func:`_conv`):

    * a depthwise conv (``groups == C_in == C_out``) runs :func:`toeplitz_conv`
      when H*W <= B*k*k (its operator has no more entries than the k*k taps
      do multiply-adds) and the row bands of :func:`depthwise_conv`
      otherwise; the operator is made of those row bands;
    * an ungrouped stride-1 conv with k > 1 runs :func:`kn2row_conv` when
      C_out < C_in (its tap product is smaller than the patch tensor) and
      :func:`im2col_conv` otherwise;
    * every other conv runs :func:`im2col_conv`.

    Every gx is one more conv by the same rule (:func:`_input_grad`): from
    C_out to C_in channels at stride 1, so a kn2row conv's gx runs
    :func:`im2col_conv` and an expanding conv's gx may run kn2row.
    """
    _check_conv(x.shape, weights.shape, stride, padding, groups)
    return _conv(x, weights, stride, padding, groups)


def _check_conv(shape, weights_shape, stride: int, padding: int, groups: int):
    """Raise ``ShapeError`` unless weights of ``weights_shape`` can convolve an
    input of ``shape`` (..., C, H, W): the groups divide C_out, the geometry
    is computable, the channels fit the weights and the output is not empty.
    Both the dense and the event route check through here."""
    c, h, w = shape[-3:]
    c_out, c_in_g, k, _ = weights_shape
    _check_groups(c_out, groups)
    _check_geometry(stride, padding)
    if c != c_in_g * groups:
        raise ShapeError(f"input has {c} channels, kernel expects {c_in_g * groups}")
    if min(conv_output_size(n, k, stride, padding) for n in (h, w)) <= 0:
        raise ShapeError(f"conv output would be empty for input {shape}")


def _conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int, groups: int):
    """The algorithm :func:`conv2d_core` picks for these shapes, run with no
    argument checks; each input gradient runs through it too."""
    b, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    if groups == c == c_out:
        if h * w <= b * k * k:
            return toeplitz_conv(x, weights, stride, padding)
        return depthwise_conv(x, weights, stride, padding)
    if groups == 1 and stride == 1 and k > 1 and c_out < c:
        return kn2row_conv(x, weights, padding)
    return im2col_conv(x, weights, stride, padding, groups)


def _input_grad(g: np.ndarray, weights: np.ndarray, stride: int, padding: int, groups: int,
                shape: tuple, need_x: bool):
    """The input gradient of a conv of a ``shape`` input, or None when
    ``need_x`` is false: the transposed conv (Dumoulin & Visin, arXiv
    1603.07285), run as the stride-1 conv (:func:`_conv`) of g spread onto
    the stride grid, zeros between, with each group's kernel flipped in space
    and its channels swapped, at padding k - 1 - padding (g cropped when that
    is negative)."""
    if not need_x:
        return None
    b, _, h, w = shape
    c_out, c_in_g, k, _ = weights.shape
    if stride > 1:
        spread = np.zeros((b, c_out, h + 2 * padding - k + 1, w + 2 * padding - k + 1))
        spread[..., ::stride, ::stride] = g
        g = spread
    q = k - 1 - padding
    flipped = weights.reshape(groups, c_out // groups, c_in_g, k, k)[..., ::-1, ::-1]
    flipped = flipped.swapaxes(1, 2).reshape(groups * c_in_g, c_out // groups, k, k)
    return _conv(_unpad2d(g, max(-q, 0)), flipped, 1, max(q, 0), groups)[0]


def conv2d_raw(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, groups: int = 1) -> np.ndarray:
    """Convolution plus bias over a batched (B, C, H, W) float array."""
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


def _copy_tap(hits: int, c_in: int) -> bool:
    """Whether a kernel tap that gathers ``hits`` weight rows first copies its
    (C_in, C_out/G) weights contiguous: only when it gathers more rows than
    the copy has. Otherwise it gathers from the stored layout, each row a
    strided read. Both gather the same values."""
    return hits > c_in


def _add_runs(out: np.ndarray, rows: np.ndarray, vals: np.ndarray):
    """Add each row of ``vals`` into ``out`` at the row ``rows`` names, for a
    non-empty, non-decreasing ``rows``: each run of equal rows is summed first
    (``np.add.reduceat``), so every output row is written once. Where every
    row is distinct, the block is added directly."""
    new = np.empty(rows.size, dtype=bool)
    new[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    if starts.size == rows.size:
        out[rows] += vals
    else:
        out[rows[starts]] += np.add.reduceat(vals, starts, axis=0)


def _scatter(s: np.ndarray, kern: ConvKernel, counter: OpCounter | None) -> np.ndarray:
    """Event-driven convolution of a binary (C, H, W) map, one kernel tap at a
    time. Event (c, y, x) feeds output (oy, ox) at tap (ky, kx) when
    y + padding - ky == oy * stride, likewise x; every valid (event, tap)
    pair adds the C_out/G weights of its group, summed in float64.

    The events are taken position-major, (y, x, c), and the output is held
    channel-last as (Ho*Wo*G, C_out/G), so that each tap's output rows
    (oy*Wo + ox)*G + group come non-decreasing. Each tap gathers its hit
    events' weight rows, at most ``SCATTER_BLOCK`` weight entries per block
    (from a contiguous copy of the tap when :func:`_copy_tap` says so), and
    :func:`_add_runs` adds them in. The map is returned as a (C_out, Ho, Wo)
    view of the channel-last array. An output with no entries (no rows,
    columns or channels) is returned as zeros with no adds counted."""
    c_out, cig, k, _ = kern.weights.shape
    groups, p, st = kern.groups, kern.padding, kern.stride
    ho = conv_output_size(s.shape[1], k, st, p)
    wo = conv_output_size(s.shape[2], k, st, p)
    if min(c_out, ho, wo) == 0:
        return np.zeros((c_out, ho, wo))
    og = c_out // groups
    ys, xs, cs = np.nonzero(s.transpose(1, 2, 0))
    group, c_local = np.divmod(cs, cig)
    wg = kern.weights.reshape(groups, og, cig, k, k)
    block = max(1, SCATTER_BLOCK // og)  # events per gathered block
    buf = np.empty(min(block, cs.size) * og)  # the copied gathers' rows, reused
    out = np.zeros((ho * wo * groups, og))
    for ky in range(k):
        oy, ry = np.divmod(ys + p - ky, st)
        row_ok = (ry == 0) & (oy >= 0) & (oy < ho)
        for kx in range(k):
            ox, rx = np.divmod(xs + p - kx, st)
            hit = np.flatnonzero(row_ok & (rx == 0) & (ox >= 0) & (ox < wo))
            rows = (oy[hit] * wo + ox[hit]) * groups + group[hit]
            w = wg[..., ky, kx]  # (G, C_out/G, C_in/G), strided
            tap = np.ascontiguousarray(w.transpose(0, 2, 1)).reshape(-1, og) \
                if _copy_tap(hit.size, cig * groups) else None
            for b0 in range(0, hit.size, block):
                e = hit[b0:b0 + block]
                if tap is None:
                    vals = w[group[e], :, c_local[e]]
                else:  # "clip": the default "raise" buffers ``out``, at about 3x the time
                    vals = np.take(tap, cs[e], axis=0, mode="clip",
                                   out=buf[:e.size * og].reshape(e.size, og))
                _add_runs(out, rows[b0:b0 + block], vals)
            if counter is not None:
                counter.adds += int(hit.size) * og
    out = out.reshape(ho, wo, c_out)
    out += kern.bias
    return out.transpose(2, 0, 1)


def _check_spikes(s):
    if not isinstance(s, SpikeTensor):
        raise ArgError(f"s must be a SpikeTensor, got {type(s).__name__}")


def event_conv2d(s: SpikeTensor, kern: ConvKernel, counter: OpCounter | None = None) -> DenseTensor:
    """Convolution driven by input events: each spike scatter-accumulates the
    kernel taps it touches into the output map. float64 accumulation.
    Raises ``ArgError`` unless ``s`` is a ``SpikeTensor``."""
    _check_spikes(s)
    if s.data.ndim != 3:
        raise ShapeError(f"event_conv2d expects (C, H, W), got {s.shape}")
    _check_conv(s.shape, kern.weights.shape, kern.stride, kern.padding, kern.groups)
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
