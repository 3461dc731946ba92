"""Network building blocks.

Every conv and linear in both block kinds consumes the output of a spiking
neuron layer (or, under the SEW shortcut, an integer spike sum), so the
multiply side of each synaptic op is weight-by-{0,1}: sparse addition. The
only exception is the stage-1 encoding conv, which reads raw pixels.

The depthwise 7x7 and the pointwise conv that follows it form one fused
spike-driven unit (no neuron between them); instrumentation and the energy
model treat the pair at that granularity. Because the pointwise conv's batch
norm directly follows, every depthwise conv (in ``SepConv`` and in
``RepConv``) normalizes with a scale and no shift (see :class:`ConvBN`).

Each of the three spiking mixers (:class:`SepConv`, :class:`ChannelConv`
and :class:`ChannelMLP`) is described once, by its ``NAME`` and its
``STAGES`` table: per stage, the key its input spikes are recorded under and
the convs that follow, each with its kernel size and its widths in units of
the block's dim. :class:`Mixer` builds the layers from that table and runs
them in one forward, and ``energy.charged_ops`` charges one op per stage
from the same table. The stage-building order (``sn1``, the first stage's
convs, ``sn2``, the second's) is the order of the random draws and of the
checkpoint.

``TransformerBlock`` runs its attention through :func:`attention.attend`,
the one definition of the SDSA variants, on the (B, D, H, W) Q/K/V spike
maps its neurons fire, with a K stream only where ``attention.VARIANTS``
lists K among the maps the variant reads; the output map feeds ``rep4`` as
it is. One attention neuron, ``sn_attn``, fires every variant: at the LIF
threshold for SDSA-1/2, at the scaled threshold for SDSA-3/4, and with that
threshold trainable for SDSA-4.

Every layer derives from :class:`Module`, which finds what a layer holds by
walking its public instance attributes in assignment order: a ``Var`` is a
parameter (saved under its own ``.name``), a float array is a buffer named
``<layer name>.<attribute>``, and a ``Module`` -- or a flat list of them -- is
a child walked in turn. Anything else, ``None`` and attributes whose name
starts with an underscore are skipped. Assignment order is therefore
checkpoint order. A neuron's membrane is not a layer attribute: it lives in
the pass's :class:`ForwardContext`, so each new context starts every neuron
from reset, and the membranes are freed when the pass returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .attention import VARIANTS, SDSAConfig, attend
from .autodiff import BN_EPS, Var
from .errors import ArgError, FoldError, KindError, ShapeError
from .kernels import ConvKernel
from .neuron import LIFParams, lif
from .tensors import DenseTensor, IntTensor, SpikeTensor

__all__ = [
    "ForwardContext",
    "Module",
    "SN",
    "ConvBN",
    "RepConv",
    "Mixer",
    "SepConv",
    "ChannelConv",
    "ChannelMLP",
    "ConvBlock",
    "TransformerBlock",
    "Downsample",
    "repconv_fold",
    "apply_shortcut",
    "fold_bn",
]

SHORTCUTS = ("MS", "SEW", "VS")
BN_MOMENTUM = 0.1


@dataclass
class ForwardContext:
    """Per-forward options threaded through the layer stack, and the pass's
    own state: ``t`` is the timestep running (from 1; ``observe`` records
    under it), and ``state`` maps each :class:`SN` to its membrane after the
    last timestep it ran. One context serves all T timesteps of a pass, and
    the membranes are freed with it."""

    tape: object | None = None
    probe: object | None = None
    training: bool = False
    smooth: bool = False
    t: int = field(default=0, init=False)
    state: dict[SN, Var] = field(default_factory=dict, init=False)

    def observe(self, layer: str, x: Var | np.ndarray, kind: str | None = None,
                rate: float | None = None):
        if self.probe is not None:
            a = x.data if isinstance(x, Var) else np.asarray(x)
            self.probe.observe(layer, self.t, a, kind=kind, rate=rate)


class Module:
    """Base of every layer: parameters, buffers and child layers are found by
    walking the public instance attributes (see the module docstring)."""

    def _members(self):
        for attr, value in vars(self).items():
            if not attr.startswith("_"):
                for item in value if isinstance(value, list) else (value,):
                    yield attr, item

    def named_params(self):
        for _, m in self._members():
            if isinstance(m, Var):
                yield m.name, m
            elif isinstance(m, Module):
                yield from m.named_params()

    def named_buffers(self):
        for attr, m in self._members():
            if isinstance(m, np.ndarray) and m.dtype.kind == "f":
                yield f"{self.name}.{attr}", m
            elif isinstance(m, Module):
                yield from m.named_buffers()

    def parameters(self) -> list[Var]:
        return [v for _, v in self.named_params()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def apply(self, u: DenseTensor) -> DenseTensor:
        """Single-step eval-mode pass for the typed functional surface."""
        a = np.asarray(u.data, dtype=np.float64)
        squeeze = a.ndim == 3
        if squeeze:
            a = a[None]
        if a.ndim != 4:
            raise ShapeError(f"expected (C, H, W) or (B, C, H, W), got {u.shape}")
        out = self.forward(Var(a), ForwardContext()).data
        return DenseTensor(out[0] if squeeze else out)


class SN(Module):
    """Spiking neuron layer over arbitrary feature shapes. Its membrane is
    per-pass state: ``step`` reads it from ``ctx.state`` (the reset membrane
    when the context has none yet) and writes the new one back."""

    def __init__(self, params: LIFParams, name: str = "sn", learnable: bool = False):
        self.params = params
        self.name = name
        self.threshold = Var(np.asarray(params.threshold), name=f"{name}.threshold") \
            if learnable else None

    def step(self, x: Var, ctx: ForwardContext) -> Var:
        h = ctx.state.get(self)
        if h is None:  # the reset membrane, broadcast by lif
            h = Var(self.params.v_reset)
        elif h.shape != x.shape:
            raise ShapeError(f"{self.name}: state {h.shape} vs input {x.shape}")
        s, ctx.state[self] = lif(ctx.tape, h, x, self.threshold, self.params, ctx.smooth)
        return s


class ConvBN(Module):
    """Bias-free convolution followed by per-channel normalization.

    In training, ``autodiff.batch_norm`` normalizes by the batch statistics
    it computes and hands back, and the running statistics move toward them
    by ``BN_MOMENTUM``; in eval, ``autodiff.normalize_affine`` normalizes by
    the running statistics.

    A depthwise one (``groups == cin == cout > 1``) normalizes with a scale
    ``gamma`` and no shift: ``beta`` is None. Each one the library builds --
    the 7x7 of ``SepConv`` and the 3x3 of ``RepConv`` -- feeds a
    batch-normalized pointwise conv directly, with no neuron between. In
    training that conv's normalization subtracts each channel's batch mean,
    which cancels any per-channel shift before it, so such a shift gets an
    exact gradient of zero; in eval mode the pointwise conv's running mean
    absorbs it. A neuron placed between the two would make the shift live
    again, and it would have to come back.
    """

    def __init__(self, rng, cin, cout, k, stride=1, groups=1, name="conv"):
        fan_in = (cin // groups) * k * k
        self.w = Var(rng.normal(0.0, np.sqrt(2.0 / fan_in), (cout, cin // groups, k, k)),
                     name=f"{name}.w")
        self.gamma = Var(np.ones(cout), name=f"{name}.gamma")
        self.beta = None if groups == cin == cout > 1 else Var(np.zeros(cout), name=f"{name}.beta")
        self.run_mean = np.zeros(cout)
        self.run_var = np.ones(cout)
        self.stride, self.groups, self.name = stride, groups, name
        self.padding = k // 2

    def forward(self, x: Var, ctx: ForwardContext, finite: bool = False) -> Var:
        """With ``finite``, an output, or in training a batch statistic, that
        is not finite raises ``ArgError`` before the running statistics move."""
        y = ad.conv2d(ctx.tape, x, self.w, None, self.stride, self.padding, self.groups)
        if ctx.training:
            out, *stats = ad.batch_norm(ctx.tape, y, self.gamma, self.beta)
        else:
            out, stats = ad.normalize_affine(ctx.tape, y, self.gamma, self.beta,
                                             self.run_mean, self.run_var), ()
        if finite and not all(np.isfinite(a).all() for a in (out.data, *stats)):
            raise ArgError(f"x is too large: {self.name}'s output is not finite")
        if stats:
            mu, var = stats
            self.run_mean[...] = (1 - BN_MOMENTUM) * self.run_mean + BN_MOMENTUM * mu
            self.run_var[...] = (1 - BN_MOMENTUM) * self.run_var + BN_MOMENTUM * var
        return out

    def folded_kernel(self) -> ConvKernel:
        """Inference kernel with the normalization folded into weights."""
        beta = None if self.beta is None else self.beta.data
        return fold_bn(self.w.data, self.gamma.data, beta,
                       self.run_mean, self.run_var, self.stride, self.padding, self.groups)


def fold_bn(w, gamma, beta, mean, var, stride=1, padding=None, groups=1) -> ConvKernel:
    """The kernel of a conv and its normalization: weights scaled by
    a = gamma / sqrt(var + eps), bias beta - mean * a (-mean * a when
    ``beta`` is None)."""
    a = gamma / np.sqrt(var + BN_EPS)
    bias = -mean * a if beta is None else beta - mean * a
    return ConvKernel(weights=w * a[:, None, None, None], bias=bias,
                      stride=stride, padding=padding, groups=groups)


class RepConv(Module):
    """Re-parameterizable 3x3 unit: pointwise, depthwise 3x3, pointwise.

    Deploys as one dense 3x3 kernel (see :meth:`fold`); the training form
    costs ~2*D^2 parameters instead of the dense 9*D^2.
    """

    def __init__(self, rng, dim, name="repconv"):
        self.pw1 = Var(rng.normal(0.0, np.sqrt(2.0 / dim), (dim, dim, 1, 1)),
                       name=f"{name}.pw1.w")
        self.dw = ConvBN(rng, dim, dim, 3, groups=dim, name=f"{name}.dw")
        self.pw2 = ConvBN(rng, dim, dim, 1, name=f"{name}.pw2")
        self.name = name

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        y = ad.conv2d(ctx.tape, x, self.pw1, None, 1, 0)
        y = self.dw.forward(y, ctx)
        return self.pw2.forward(y, ctx)

    def fold(self) -> ConvKernel:
        """Collapse pw1 -> dw3x3+BN -> pw2+BN into a single dense 3x3 kernel.

        Exact on every input (boundaries included) because only the depthwise
        stage has spatial support; uses the running normalization statistics.
        """
        kd = self.dw.folded_kernel()      # (D, 1, 3, 3) + bias
        kp = self.pw2.folded_kernel()     # (D, D, 1, 1) + bias
        w1 = self.pw1.data[:, :, 0, 0]    # (D, D)
        p2 = kp.weights[:, :, 0, 0]       # (D, D)
        chain = p2[:, :, None, None] * kd.weights[None, :, 0]   # (D_out, D_mid, 3, 3)
        weights = np.einsum("omuv,mi->oiuv", chain, w1, optimize=True)
        bias = p2 @ kd.bias + kp.bias
        return ConvKernel(weights=weights, bias=bias, stride=1, padding=1)


class Mixer(Module):
    """Base of the spiking mixers, built and run from the class's ``STAGES``.

    Each stage is ``(key, convs)``: neuron ``sn<i>`` fires the input, the
    spikes are recorded under ``<name>.<key>``, then the convs run in turn.
    Each conv is ``(attribute, k, c_in, c_out, depthwise)``, its widths in
    units of the block's dim; a depthwise one has one channel per group.
    ``NAME`` is the mixer's default name, and the one its block gives it.
    """

    def __init__(self, rng, dim, lif: LIFParams, name=None):
        self.name = name = name or self.NAME
        for i, (_, convs) in enumerate(self.STAGES, 1):
            setattr(self, f"sn{i}", SN(lif, name=f"{name}.sn{i}"))
            for attr, k, c_in, c_out, depthwise in convs:
                setattr(self, attr, ConvBN(rng, c_in * dim, c_out * dim, k,
                                           groups=c_in * dim if depthwise else 1,
                                           name=f"{name}.{attr}"))

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        for i, (key, convs) in enumerate(self.STAGES, 1):
            x = getattr(self, f"sn{i}").step(x, ctx)
            ctx.observe(f"{self.name}.{key}", x)
            for attr, *_ in convs:
                x = getattr(self, attr).forward(x, ctx)
        return x


class SepConv(Mixer):
    """Inverted separable token mixer: expand 1x1, depthwise 7x7, project 1x1."""

    NAME = "sepconv"
    STAGES = (("pw1", (("pw1", 1, 1, 2, False),)),
              ("dwpw2", (("dw", 7, 2, 2, True), ("pw2", 1, 2, 1, False))))


class ChannelConv(Mixer):
    """Channel mixer for conv stages: two 3x3 convs around an expansion."""

    NAME = "chconv"
    STAGES = (("conv1", (("conv1", 3, 1, 4, False),)),
              ("conv2", (("conv2", 3, 4, 1, False),)))


class ChannelMLP(Mixer):
    """Token-wise two-layer MLP, realized as 1x1 convs on the spatial layout."""

    NAME = "mlp"
    STAGES = (("fc1", (("fc1", 1, 1, 4, False),)),
              ("fc2", (("fc2", 1, 4, 1, False),)))

    def apply(self, u: DenseTensor) -> DenseTensor:
        """Token-layout (N, D) convenience entry."""
        a = np.asarray(u.data, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"expected (N, D) tokens, got {a.shape}")
        n, d = a.shape
        spatial = DenseTensor(a.T.reshape(d, n, 1))
        out = super().apply(spatial)
        return DenseTensor(out.data.reshape(d, n).T)


def _residual(block, x: Var, ctx: ForwardContext, mixer, channel) -> Var:
    """Run a block's token mixer then its channel mixer around the configured
    shortcut: MS adds membrane potentials, SEW adds the fired branch output to
    the block input, VS fires the membrane-plus-spike sum at the block
    boundary."""
    tape = ctx.tape
    if block.shortcut == "MS":
        u1 = ad.add(tape, x, mixer(x, ctx))
        return ad.add(tape, u1, channel(u1, ctx))
    if block.shortcut == "SEW":
        s1 = block.out_sn1.step(mixer(x, ctx), ctx)
        y1 = ad.add(tape, s1, x)
        s2 = block.out_sn2.step(channel(y1, ctx), ctx)
        return ad.add(tape, s2, y1)
    s1 = block.out_sn1.step(ad.add(tape, mixer(x, ctx), x), ctx)
    return block.out_sn2.step(ad.add(tape, channel(s1, ctx), s1), ctx)


def _out_neurons(lif: LIFParams, shortcut: str, name: str):
    """The two block-boundary neurons a shortcut fires through: none under MS.
    An unknown shortcut is an ``ArgError``."""
    if shortcut not in SHORTCUTS:
        raise ArgError(f"shortcut must be one of {SHORTCUTS}, got {shortcut!r}")
    if shortcut == "MS":
        return None, None
    return SN(lif, name=f"{name}.out_sn1"), SN(lif, name=f"{name}.out_sn2")


class ConvBlock(Module):
    """Stage-1/2 block: separable token mixer plus channel convs, with the
    configured residual style."""

    def __init__(self, rng, dim, lif: LIFParams, shortcut="MS", name="convblock"):
        self.token = SepConv(rng, dim, lif, name=f"{name}.{SepConv.NAME}")
        self.channel = ChannelConv(rng, dim, lif, name=f"{name}.{ChannelConv.NAME}")
        self.shortcut = shortcut
        self.name = name
        self.out_sn1, self.out_sn2 = _out_neurons(lif, shortcut, name)

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        return _residual(self, x, ctx, self.token.forward, self.channel.forward)


class TransformerBlock(Module):
    """Stage-3/4 block: spike Q/K/V generation, the configured spike-driven
    attention operator, an output RepConv, and a channel MLP."""

    def __init__(self, rng, dim, lif: LIFParams, sdsa: SDSAConfig, shortcut="MS",
                 name="block"):
        self.sdsa = replace(sdsa, dim=dim)
        has_k = "k" in VARIANTS[sdsa.variant][0]
        self.sn_in = SN(lif, name=f"{name}.sn_in")
        self.rep_q = RepConv(rng, dim, name=f"{name}.rep_q")
        self.rep_k = RepConv(rng, dim, name=f"{name}.rep_k") if has_k else None
        self.rep_v = RepConv(rng, dim, name=f"{name}.rep_v")
        self.sn_q = SN(lif, name=f"{name}.sn_q")
        self.sn_k = SN(lif, name=f"{name}.sn_k") if has_k else None
        self.sn_v = SN(lif, name=f"{name}.sn_v")
        self.sn_attn = SN(lif if sdsa.variant < 3 else lif.scaled(sdsa.threshold_scale),
                          name=f"{name}.sn_attn", learnable=sdsa.variant == 4)
        self.rep4 = RepConv(rng, dim, name=f"{name}.rep4")
        self.mlp = ChannelMLP(rng, dim, lif, name=f"{name}.{ChannelMLP.NAME}")
        self.shortcut = shortcut
        self.out_sn1, self.out_sn2 = _out_neurons(lif, shortcut, name)
        self.name = name

    def _attend(self, x: Var, ctx: ForwardContext) -> Var:
        s_in = self.sn_in.step(x, ctx)
        ctx.observe(f"{self.name}.qkv", s_in)

        def stream(leaf):  # conv, fire and record the Q, K or V map
            rep, sn = getattr(self, f"rep_{leaf}"), getattr(self, f"sn_{leaf}")
            if rep is None:
                return None
            s = sn.step(rep.forward(s_in, ctx), ctx)
            ctx.observe(f"{self.name}.{leaf}", s)
            return s

        q, v, k = stream("q"), stream("v"), stream("k")
        attn, ktv, qktv = attend(ctx.tape, self.sdsa.variant, q, k, v, self.sdsa.heads,
                                 lambda z: self.sn_attn.step(z, ctx))
        if ktv is not None:
            ctx.observe(f"{self.name}.ktv", ktv)
            ctx.observe(f"{self.name}.qktv", qktv)
        ctx.observe(f"{self.name}.repconv4", attn)
        return self.rep4.forward(attn, ctx)

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        return _residual(self, x, ctx, self._attend, self.mlp.forward)


class Downsample(Module):
    """Strided conv stage entry; fires the input first except for the raw-pixel
    encoding layer."""

    def __init__(self, rng, cin, cout, k, stride, lif: LIFParams, first=False,
                 name="ds"):
        self.sn = None if first else SN(lif, name=f"{name}.sn")
        self.conv = ConvBN(rng, cin, cout, k, stride=stride, name=f"{name}.conv")
        self.name = name

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        if self.sn is None:
            # raw-pixel encoding: charged as dense MAC at rate 1. The only layer
            # that reads raw values, so the one place a finite input can overflow
            ctx.observe(self.name, x, kind="dense", rate=1.0)
            return self.conv.forward(x, ctx, finite=True)
        s = self.sn.step(x, ctx)
        ctx.observe(self.name, s)
        return self.conv.forward(s, ctx)


def repconv_fold(branch3x3: ConvKernel | None, branch1x1: ConvKernel | None,
                 identity_flag: bool = False,
                 per_branch_scales: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> ConvKernel:
    """Fold parallel {3x3, 1x1, identity} conv branches into one 3x3 kernel.

    The 1x1 branch embeds at the kernel center; the identity branch becomes a
    center-tap delta. Branches must share stride 1 and channel counts.
    """
    branches = [b for b in (branch3x3, branch1x1) if b is not None]
    if not branches and not identity_flag:
        raise FoldError("nothing to fold")
    s3, s1, sid = per_branch_scales
    if branch3x3 is not None:
        c_out, c_in = branch3x3.c_out, branch3x3.c_in
    elif branch1x1 is not None:
        c_out, c_in = branch1x1.c_out, branch1x1.c_in
    else:
        raise FoldError("identity-only fold needs explicit channels; pass a zero 1x1 branch")
    for b in branches:
        if b.stride != 1:
            raise FoldError("folding requires stride-1 branches")
        if b.groups != 1:
            raise FoldError("folding requires ungrouped branches")
        if (b.c_out, b.c_in) != (c_out, c_in):
            raise FoldError(f"branch channels {(b.c_out, b.c_in)} != {(c_out, c_in)}")
    if branch3x3 is not None and branch3x3.k != 3:
        raise FoldError(f"3x3 branch has kernel size {branch3x3.k}")
    if branch1x1 is not None and branch1x1.k != 1:
        raise FoldError(f"1x1 branch has kernel size {branch1x1.k}")
    if identity_flag and c_out != c_in:
        raise FoldError(f"identity branch needs square channels, got {c_out}x{c_in}")

    weights = np.zeros((c_out, c_in, 3, 3))
    bias = np.zeros(c_out)
    if branch3x3 is not None:
        weights += s3 * branch3x3.weights
        bias += s3 * branch3x3.bias
    if branch1x1 is not None:
        weights[:, :, 1, 1] += s1 * branch1x1.weights[:, :, 0, 0]
        bias += s1 * branch1x1.bias
    if identity_flag:
        weights[np.arange(c_out), np.arange(c_in), 1, 1] += sid
    return ConvKernel(weights=weights, bias=bias, stride=1, padding=1)


def apply_shortcut(kind: str, x, branch_out):
    """Residual combination of a block input with its branch output.

    MS sums two membrane potentials, SEW sums spike/integer tensors into an
    integer tensor, VS sums a potential with a spike tensor.
    """
    if kind not in SHORTCUTS:
        raise KindError(f"unknown shortcut kind {kind!r}")
    if x.shape != branch_out.shape:
        raise ShapeError(f"shortcut operands differ: {x.shape} vs {branch_out.shape}")
    if kind == "MS":
        if isinstance(x, SpikeTensor) or isinstance(branch_out, SpikeTensor):
            raise KindError("membrane shortcut does not apply to spike tensors")
        if not isinstance(x, DenseTensor) or not isinstance(branch_out, DenseTensor):
            raise KindError("membrane shortcut needs two potential tensors")
        return DenseTensor(x.data + branch_out.data)
    if kind == "SEW":
        if not isinstance(x, (SpikeTensor, IntTensor)) or \
                not isinstance(branch_out, (SpikeTensor, IntTensor)):
            raise KindError("SEW shortcut needs spike or integer operands")
        return IntTensor(x.data.astype(np.int64) + branch_out.data.astype(np.int64))
    # VS: membrane potential + spike, in either argument order
    pair = (x, branch_out)
    dense = [p for p in pair if isinstance(p, DenseTensor)]
    spikes = [p for p in pair if isinstance(p, SpikeTensor)]
    if len(dense) != 1 or len(spikes) != 1:
        raise KindError("VS shortcut needs one potential and one spike tensor")
    return DenseTensor(dense[0].data + spikes[0].data.astype(np.float64))
