"""Compute kernels.

Two execution routes exist for every linear op on spikes:

* event route -- scatter the weights each spike touches into the output.
  Only additions are performed per event, mirroring addressable
  accumulation on neuromorphic hardware. It runs one kernel tap at a time:
  for each tap it locates every event's output position and adds the
  gathered weights into a float64 map, ``SCATTER_BLOCK`` (event, output)
  pairs at a time (:func:`_scatter`).
  :func:`event_matmul` is its 1x1 case, on the transposed (D, N, 1) map.
* dense route -- textbook float matmul/convolution, used as the reference
  oracle and as the training substrate.

The two must agree: exactly for integer weights, within 1e-5 absolute for
floats (both routes accumulate in float64, in different orders).

The dense convolution (:func:`conv2d_core`, behind ``conv2d_raw``,
``dense_conv2d`` and ``autodiff.conv2d``) has four algorithms, picked by the
shapes of the weights and the input, each with its adjoint and none looping
over groups. Each adjoint ``(g, need_x=True) -> (gx, gw)`` returns gx None,
having skipped its work, when ``need_x`` is false. Two take the depthwise
convs (``groups == C_in == C_out``):

* on a small map, H*W <= B*k*k, so that its operator has no more entries
  than the shifted taps do multiply-adds -- one matmul batched over channels
  against each channel's (H*W, Ho*Wo) Toeplitz operator, ``OPERATOR_BLOCK``
  operator entries at a time (:func:`toeplitz_conv`);
* on every other map -- k*k shifted multiply-adds over the padded input,
  with no patch tensor, ``DEPTHWISE_BLOCK`` output entries at a time
  (:func:`depthwise_conv`).

Two take the rest:

* ungrouped, stride 1, k > 1 and C_out < C_in -- one matmul of the k*k
  stacked taps against the padded input, then k*k shifted adds of its
  product, which is smaller than the patch tensor (:func:`kn2row_conv`);
* every other conv -- the (B, C, k, k, Ho, Wo) patch tensor times the
  weights in one matmul batched over the group axis (:func:`im2col_conv`).
"""

from __future__ import annotations

import functools
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
# most (event, output) pairs one np.bincount call of the event route takes
# (more only when a single event feeds more outputs than this), so its index
# and weight arrays stay at 8 MB each however wide the fan-out
SCATTER_BLOCK = 1 << 20
# most operator entries one channel block of toeplitz_conv builds (more only
# when a single channel's operator is larger), so its operator and its x^T g
# product stay at 8 MB each however many channels there are
OPERATOR_BLOCK = 1 << 20
# most output entries one channel block of depthwise_conv's forward holds
# (more only when a single channel's map is larger), so that the block's
# input, output and product, 0.5 MB each, stay in a 2 MB L2 cache
DEPTHWISE_BLOCK = 1 << 16


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
    if groups < 1 or c_out % groups:
        raise ShapeError(f"groups must be a positive divisor of the {c_out} output "
                         f"channels, got {groups}")


def _check_geometry(stride: int, padding: int):
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv needs stride >= 1 and padding >= 0, got stride {stride}, "
                         f"padding {padding}")


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
    multiply-adds over the padded input; no patch tensor is built. The
    forward runs all taps over one channel block before the next, at most
    ``DEPTHWISE_BLOCK`` output entries a block, so that the block's input,
    output and product stay in cache across the taps; each output entry sees
    the same multiply-adds in the same order whatever the block size. Returns
    the output and its adjoint ``(g, need_x=True) -> (gx, gw)``."""
    b, c, h, w = x.shape
    k = weights.shape[2]
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    taps = weights[:, 0, :, :, None, None]  # (C, k, k, 1, 1)
    xp = _pad2d(x, padding)
    per = max(1, DEPTHWISE_BLOCK // (b * ho * wo))  # channels per block
    out = np.zeros((b, c, ho, wo))
    tmp = np.empty((b, min(per, c), ho, wo))
    for c0 in range(0, c, per):
        blk = slice(c0, c0 + per)
        outb, xpb = out[:, blk], xp[:, blk]
        tmpb = tmp[:, :outb.shape[1]]
        for i, j, win in _taps(k, stride, ho, wo):
            outb += np.multiply(xpb[win], taps[blk, i, j], out=tmpb)

    def adjoint(g, need_x=True):
        xp = _pad2d(x, padding)  # padded again, not held from the forward
        gw = np.empty(weights.shape)
        for i, j, win in _taps(k, stride, ho, wo):
            gw[:, 0, i, j] = np.einsum("bchw,bchw->c", g, xp[win])
        if not need_x:
            return None, gw
        gxp = np.zeros(xp.shape)
        tmp = np.empty(g.shape)
        for i, j, win in _taps(k, stride, ho, wo):
            gxp[win] += np.multiply(g, taps[:, i, j], out=tmp)
        return _unpad2d(gxp, padding), gw

    return out, adjoint


@functools.lru_cache(maxsize=64)
def _toeplitz_index(h: int, w: int, k: int, stride: int, padding: int):
    """Where a k*k kernel's taps sit in its (H*W, Ho*Wo) operator. For every
    (tap, output pixel) pair whose input pixel lies inside the map, in tap
    order: the flat operator entry (input pixel * Ho*Wo + output pixel) and
    the tap. Also the taps with at least one entry and where each one's run
    of entries starts. A tap puts at most one entry in each output column,
    so the entries are distinct. Cached and read-only: callers share them."""
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    ky, kx, oy, ox = np.meshgrid(np.arange(k), np.arange(k), np.arange(ho), np.arange(wo),
                                 indexing="ij")
    y, x = oy * stride + ky - padding, ox * stride + kx - padding
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    entry = ((y * w + x) * (ho * wo) + oy * wo + ox)[inside]
    tap = (ky * k + kx)[inside]
    taps, starts = np.unique(tap, return_index=True)
    for a in (entry, tap, taps, starts):
        a.setflags(write=False)
    return entry, tap, taps, starts


def toeplitz_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int):
    """Depthwise convolution as one matmul batched over channels: each
    channel's (B, H*W) input times its (H*W, Ho*Wo) Toeplitz operator, built
    by scattering the k*k weights at the entries of :func:`_toeplitz_index`.
    Channels go ``OPERATOR_BLOCK`` operator entries at a time; the adjoint
    rebuilds each block's operator instead of keeping it. Returns the output
    and its adjoint ``(g, need_x=True) -> (gx, gw)``: gx = g A^T, and gw sums,
    per tap, the entries of x^T g at that tap's operator entries."""
    b, c, h, w = x.shape
    k = weights.shape[2]
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    entry, tap, taps, starts = _toeplitz_index(h, w, k, stride, padding)
    size = h * w * ho * wo
    per = max(1, OPERATOR_BLOCK // size)  # channels per block
    blocks = [slice(c0, min(c0 + per, c)) for c0 in range(0, c, per)]
    wf = weights.reshape(c, k * k)
    xc = x.reshape(b, c, h * w).transpose(1, 0, 2)  # (C, B, H*W)

    def operator(blk):
        a = np.zeros((blk.stop - blk.start, size))
        a[:, entry] = wf[blk, tap]
        return a.reshape(-1, h * w, ho * wo)

    out = np.empty((b, c, ho * wo))
    outc = out.transpose(1, 0, 2)  # written through this (C, B, Ho*Wo) view
    for blk in blocks:
        np.matmul(xc[blk], operator(blk), out=outc[blk])

    def adjoint(g, need_x=True):
        gc = g.reshape(b, c, ho * wo).transpose(1, 0, 2)
        gx = np.empty((b, c, h * w)) if need_x else None
        gw = np.zeros((c, k * k))
        for blk in blocks:
            if need_x:
                np.matmul(gc[blk], operator(blk).transpose(0, 2, 1),
                          out=gx.transpose(1, 0, 2)[blk])
            xg = np.matmul(xc[blk].transpose(0, 2, 1), gc[blk]).reshape(-1, size)
            gw[blk, taps] = np.add.reduceat(xg[:, entry], starts, axis=1)
        return gx if gx is None else gx.reshape(x.shape), gw.reshape(weights.shape)

    return out.reshape(b, c, ho, wo), adjoint


def im2col_conv(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Grouped convolution as one batched matmul over the group axis: the
    (B, C, k, k, Ho, Wo) patch tensor, viewed as (B, G, C/G*k*k, Ho*Wo), is
    multiplied by the weights viewed as (G, C_out/G, C/G*k*k). A 1x1,
    stride-1, unpadded conv uses ``x`` itself as the patch tensor. Returns
    the output and its adjoint ``(g, need_x=True) -> (gx, gw)``."""
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

    def adjoint(g, need_x=True):
        gg = g.reshape(b, groups, c_out // groups, ho * wo)
        gw = np.matmul(gg, cols.swapaxes(-1, -2)).sum(axis=0).reshape(weights.shape)
        if not need_x:
            return None, gw
        gcols = np.matmul(wg.swapaxes(-1, -2), gg)
        if pointwise:
            return gcols.reshape(x.shape), gw
        gcols = gcols.reshape(b, c, k, k, ho, wo)
        gxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
        for i, j, win in _taps(k, stride, ho, wo):
            gxp[win] += gcols[:, :, i, j]
        return _unpad2d(gxp, padding), gw

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
    (gx, gw)``, which keeps only the padded input: gx runs one matmul on the
    k*k shifted copies of g, and gw one matmul per tap on the flat slices of
    the input."""
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
        gbuf = np.zeros((b, c_out, ho, wp))  # g on the buffer's grid, 0 past Wo
        gbuf[..., :wo] = g
        gf = gbuf.reshape(b, c_out, ho * wp)[:, :, :n]
        gw = np.empty((k * k, c_out, c))
        for t, off in enumerate(offsets):
            gw[t] = np.matmul(gf, xf[:, :, off:off + n].swapaxes(1, 2)).sum(axis=0)
        gw = gw.reshape(k, k, c_out, c).transpose(2, 3, 0, 1).copy()
        if not need_x:
            return None, gw
        # gx[y, x] sums tap (i, j) against g[y + padding - i, x + padding - j]:
        # with g padded by k - 1 - padding, the window at (k-1-i, k-1-j)
        q = k - 1 - padding
        gq = _pad2d(g, q) if q >= 0 else _unpad2d(g, -q)
        shifted = np.empty((b, k, k, c_out, h, w))
        for i, j, win in _taps(k, 1, h, w):
            shifted[:, k - 1 - i, k - 1 - j] = gq[win]
        gx = np.matmul(stacked.T, shifted.reshape(b, k * k * c_out, h * w))
        return gx.reshape(x.shape), gw

    return out, adjoint


def conv2d_core(x: np.ndarray, weights: np.ndarray, stride: int, padding: int,
                groups: int = 1):
    """Bias-free convolution of a (B, C, H, W) array with zero padding.

    Returns the output and its adjoint ``(g, need_x=True) -> (gx, gw)``, gx
    None when ``need_x`` is false. Raises
    ``ShapeError`` when the channels or groups do not fit the weights or the
    output would be empty. Four algorithms, picked by shape:

    * a depthwise conv (``groups == C_in == C_out``) runs :func:`toeplitz_conv`
      when H*W <= B*k*k (its operator has no more entries than
      :func:`depthwise_conv` does multiply-adds) and :func:`depthwise_conv`
      otherwise;
    * an ungrouped stride-1 conv with k > 1 runs :func:`kn2row_conv` when
      C_out < C_in (its tap product is smaller than the patch tensor) and
      :func:`im2col_conv` otherwise;
    * every other conv runs :func:`im2col_conv`.
    """
    b, c, h, w = x.shape
    c_out, c_in_g, k, _ = weights.shape
    _check_groups(c_out, groups)
    _check_geometry(stride, padding)
    if c != c_in_g * groups:
        raise ShapeError(f"input has {c} channels, kernel expects {c_in_g * groups}")
    if conv_output_size(h, k, stride, padding) <= 0 or \
            conv_output_size(w, k, stride, padding) <= 0:
        raise ShapeError(f"conv output would be empty for input {x.shape}")
    if groups == c == c_out:
        if h * w <= b * k * k:
            return toeplitz_conv(x, weights, stride, padding)
        return depthwise_conv(x, weights, stride, padding)
    if groups == 1 and stride == 1 and k > 1 and c_out < c:
        return kn2row_conv(x, weights, padding)
    return im2col_conv(x, weights, stride, padding, groups)


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


def _scatter(s: np.ndarray, kern: ConvKernel, counter: OpCounter | None) -> np.ndarray:
    """Event-driven convolution of a binary (C, H, W) map, one kernel tap at a
    time. Event (c, y, x) feeds output (oy, ox) at tap (ky, kx) when
    y + padding - ky == oy * stride, likewise x; every valid (event, tap)
    pair adds the C_out/G weights of its group, summed in float64, at most
    ``SCATTER_BLOCK`` (event, output) pairs per ``np.bincount`` call."""
    c_out, cig, k, _ = kern.weights.shape
    p, st = kern.padding, kern.stride
    _check_geometry(st, p)
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
    block = max(1, SCATTER_BLOCK // og)  # events per bincount call
    out = np.zeros(c_out * ho * wo)
    for ky in range(k):
        oy, ry = np.divmod(ys + p - ky, st)
        row_ok = (ry == 0) & (oy >= 0) & (oy < ho)
        for kx in range(k):
            ox, rx = np.divmod(xs + p - kx, st)
            hit = np.flatnonzero(row_ok & (rx == 0) & (ox >= 0) & (ox < wo))
            for e in np.split(hit, range(block, hit.size, block)):
                idx = rows[e] + oy[e] * wo + ox[e]
                vals = wg[group[e], :, c_local[e], ky, kx]  # (events, og)
                out += np.bincount((idx[:, None] + fanout).ravel(), weights=vals.ravel(),
                                   minlength=out.size)
            if counter is not None:
                counter.adds += int(hit.size) * og
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
