"""Model assembly: pyramid of conv stages feeding transformer stages, with a
fired time-averaged readout, plus parameter counting and checkpoint I/O."""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .blocks import SN, ConvBlock, Downsample, ForwardContext, Module, TransformerBlock
from .config import ModelConfig, TrainConfig, config_to_text, parse_config_text, stages
from .errors import ArgError, CheckpointError, ConfigError, ShapeError, check_int
from .instrument import Probe
from .tensors import DenseTensor, real_array

__all__ = ["Model", "build_model", "count_params", "forward",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"MSF2"
CHECKPOINT_VERSION = 2


class Linear(Module):
    def __init__(self, rng, cin, cout, name="fc"):
        self.w = Var(rng.normal(0.0, 1.0 / np.sqrt(cin), (cin, cout)), name=f"{name}.w")
        self.b = Var(np.zeros(cout), name=f"{name}.b")
        self.name = name

    def forward(self, x: Var, ctx: ForwardContext) -> Var:
        return ad.add(ctx.tape, ad.matmul(ctx.tape, x, self.w), self.b)


# attribute holding the block list of each pyramid row; row i's downsample
# is attribute ``ds{i}``
BLOCK_LISTS = ("stage1a", "stage1b", "stage2", "stage3", "stage4")


class Model(Module):
    """The assembled network. Construction is deterministic given the config
    seed; parameters are float64 throughout."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        lif, sc = cfg.lif, cfg.shortcut
        for i, (st, attr) in enumerate(zip(stages(cfg), BLOCK_LISTS), 1):
            setattr(self, f"ds{i}", Downsample(rng, st.c_in, st.dim, st.k, st.stride, lif,
                                               first=i == 1, name=st.ds))
            if i == 1:
                self.stem_sn = SN(lif, name="stem.sn") if sc != "MS" else None
            if st.kind == "conv":
                blocks = [ConvBlock(rng, st.dim, lif, sc, name=b) for b in st.blocks]
            else:
                blocks = [TransformerBlock(rng, st.dim, lif, cfg.sdsa(st.dim), sc, name=b)
                          for b in st.blocks]
            setattr(self, attr, blocks)
        self.head_sn = SN(lif, name="head.sn")
        self.head = Linear(rng, cfg.dims[4], cfg.num_classes, name="head.fc")

    def forward(self, x, timesteps: int | None = None, tape: Tape | None = None,
                probe: Probe | None = None, training: bool = False,
                smooth: bool = False) -> Var:
        """Run the network over T timesteps and average the per-step logits.

        ``x`` is either a static (B, C, H, W) batch, replicated along T, or a
        pre-binned (T, B, C, H, W) event tensor, with B >= 1 and C, H and W
        those of the config; other shapes raise ``ShapeError``. A static batch
        runs ``timesteps`` steps (``cfg.timesteps`` when None); an event tensor
        runs its T, and a ``timesteps`` other than that T raises ``ArgError``,
        as do a ``timesteps`` that is not an integer >= 1, values that are not
        real numbers (``tensors.real_array``) or not finite, and values so large
        that the encoding conv's output is not finite (``Downsample.forward``).
        """
        a = x.data if isinstance(x, (DenseTensor, Var)) else real_array("x", x)
        if timesteps is not None:
            check_int("timesteps", timesteps, 1)
        if a.ndim == 4:
            seq = [a] * (self.cfg.timesteps if timesteps is None else timesteps)
        elif a.ndim == 5:
            seq = list(a)
        else:
            raise ShapeError(f"expected (B, C, H, W) or (T, B, C, H, W), got {a.shape}")
        t_len = len(seq)
        want = (self.cfg.in_channels, self.cfg.resolution, self.cfg.resolution)
        if t_len < 1 or a.shape[-4] < 1 or a.shape[-3:] != want:
            raise ShapeError(f"expected T >= 1 frames of (B >= 1, {want[0]}, {want[1]}, "
                             f"{want[2]}), got {a.shape}")
        if timesteps not in (None, t_len):
            raise ArgError(f"timesteps {timesteps} differs from the event tensor's "
                           f"T = {t_len}")
        if not np.isfinite(a).all():
            raise ArgError("input must be finite")
        ctx = ForwardContext(tape=tape, probe=probe, training=training, smooth=smooth)
        logits = None
        for t, frame in enumerate(seq, 1):
            ctx.t = t
            z = Var(np.asarray(frame, dtype=np.float64))
            for i, attr in enumerate(BLOCK_LISTS, 1):
                z = getattr(self, f"ds{i}").forward(z, ctx)
                if i == 1 and self.stem_sn is not None:
                    z = self.stem_sn.step(z, ctx)
                for b in getattr(self, attr):
                    z = b.forward(z, ctx)
            s = self.head_sn.step(z, ctx)
            ctx.observe("head.fc", s)
            pooled = ad.mean_axes(tape, s, (2, 3))
            step_logits = self.head.forward(pooled, ctx)
            logits = step_logits if logits is None else ad.add(tape, logits, step_logits)
        return ad.scale(tape, logits, 1.0 / t_len)


def build_model(cfg: ModelConfig) -> Model:
    return Model(cfg)


def count_params(model: Model) -> int:
    """Number of trainable scalars (normalization affine included, running
    statistics excluded)."""
    return int(sum(v.data.size for _, v in model.named_params()))


def forward(model: Model, x, timesteps: int | None = None) -> DenseTensor:
    """Inference-mode logits for a static batch or an event tensor."""
    return DenseTensor(model.forward(x, timesteps=timesteps).data)


# the one tensor dtype a checkpoint holds (every parameter and buffer is
# float64), and its code in the tensor table
_DTYPE, _DTYPE_CODE = np.dtype("<f8"), 0


def _tensor_table(model: Model) -> dict[str, np.ndarray]:
    """The live array of every parameter and buffer by name, in checkpoint
    order."""
    return {n: v.data for n, v in model.named_params()} | dict(model.named_buffers())


def save_checkpoint(model: Model, path, train_cfg: TrainConfig | None = None):
    """Binary checkpoint: magic, version, config text, tensor table, CRC32.
    The file is replaced atomically."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    cfg_text = config_to_text(model.cfg, train_cfg).encode("utf-8")
    buf += struct.pack("<I", len(cfg_text))
    buf += cfg_text
    tensors = _tensor_table(model)
    buf += struct.pack("<I", len(tensors))
    for name, data in tensors.items():
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<BB", _DTYPE_CODE, data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape)
        buf += np.asarray(data, dtype=_DTYPE).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    # write beside the target, then rename over it: a failed write leaves the
    # previous checkpoint in place
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(buf))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(buf, offset, fmt):
    size = struct.calcsize(fmt)
    if offset + size > len(buf):
        raise CheckpointError("truncated checkpoint")
    return struct.unpack_from(fmt, buf, offset), offset + size


def _check_config(cfg: ModelConfig, raw: bytes):
    """Refuse a checkpoint whose stored model config differs from ``cfg`` in
    any field but ``seed``: the loaded weights replace the seed's draw."""
    try:
        stored, _ = parse_config_text(raw.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"unreadable config text: {exc}") from None
    ours, _ = parse_config_text(config_to_text(cfg))
    differ = [f.name for f in fields(ModelConfig)
              if f.name != "seed" and getattr(stored, f.name) != getattr(ours, f.name)]
    if differ:
        raise CheckpointError(f"checkpoint config differs from the model's in {differ}")


def load_checkpoint(model: Model, path) -> Model:
    """Restore every parameter and buffer bit-exactly into ``model``.

    The stored config must equal the model's in every field but ``seed``, and
    the checkpoint must cover exactly the model's tensor table.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    (stored_crc,), _ = _read(buf, len(buf) - 4, "<I")
    if zlib.crc32(buf[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("checksum mismatch; file corrupt")
    off = 4
    (version,), off = _read(buf, off, "<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,), off = _read(buf, off, "<I")
    (cfg_text,), off = _read(buf, off, f"{cfg_len}s")
    _check_config(model.cfg, cfg_text)
    (n_tensors,), off = _read(buf, off, "<I")
    loaded = {}
    for _ in range(n_tensors):
        (name_len,), off = _read(buf, off, "<H")
        (name,), off = _read(buf, off, f"{name_len}s")
        (code, ndim), off = _read(buf, off, "<BB")
        shape, off = _read(buf, off, f"<{ndim}I")
        if code != _DTYPE_CODE:
            raise CheckpointError(f"unknown dtype code {code}")
        (raw,), off = _read(buf, off, f"{int(np.prod(shape)) * _DTYPE.itemsize}s")
        loaded[name.decode("utf-8")] = np.frombuffer(raw, dtype=_DTYPE).reshape(shape)

    expected = _tensor_table(model)
    if set(loaded) != set(expected):
        missing = set(expected) - set(loaded)
        extra = set(loaded) - set(expected)
        raise CheckpointError(f"tensor table mismatch (missing={sorted(missing)[:3]}, "
                              f"extra={sorted(extra)[:3]})")
    for name, live in expected.items():
        if loaded[name].shape != live.shape:
            raise CheckpointError(f"{name}: shape {loaded[name].shape} != {live.shape}")
        live[...] = loaded[name]
    return model
