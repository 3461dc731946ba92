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
from .attention import SDSAConfig
from .autodiff import Tape, Var
from .blocks import SN, ConvBlock, Downsample, ForwardContext, Module, TransformerBlock
from .config import ModelConfig, TrainConfig, config_to_text, parse_config_text, stages
from .errors import ArgError, CheckpointError, ConfigError, ShapeError
from .instrument import Probe
from .tensors import DenseTensor

__all__ = ["Model", "build_model", "count_params", "forward",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"MSF2"
CHECKPOINT_VERSION = 1


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
                sdsa = SDSAConfig(variant=cfg.sdsa_variant, heads=cfg.heads, dim=st.dim,
                                  threshold_scale=cfg.threshold_scale)
                blocks = [TransformerBlock(rng, st.dim, lif, sdsa, sc, name=b)
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
        those of the config; other shapes raise ``ShapeError``, and
        ``timesteps < 1`` or non-finite values ``ArgError``.
        """
        a = x.data if isinstance(x, (DenseTensor, Var)) else np.asarray(x, dtype=np.float64)
        if a.ndim == 4:
            t_len = self.cfg.timesteps if timesteps is None else timesteps
            if t_len < 1:
                raise ArgError(f"timesteps must be >= 1, got {t_len}")
            seq = [a] * t_len
        elif a.ndim == 5:
            t_len = a.shape[0]
            seq = [a[t] for t in range(t_len)]
        else:
            raise ShapeError(f"expected (B, C, H, W) or (T, B, C, H, W), got {a.shape}")
        want = (self.cfg.in_channels, self.cfg.resolution, self.cfg.resolution)
        if t_len < 1 or a.shape[-4] < 1 or a.shape[-3:] != want:
            raise ShapeError(f"expected T >= 1 frames of (B >= 1, {want[0]}, {want[1]}, "
                             f"{want[2]}), got {a.shape}")
        if not np.isfinite(a).all():
            raise ArgError("input must be finite")
        ctx = ForwardContext(tape=tape, probe=probe, training=training, smooth=smooth)
        self.reset_state()
        logits = None
        for t, frame in enumerate(seq):
            if probe is not None:
                probe.t = t + 1
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


_DTYPES = {0: np.float64, 1: np.float32, 2: np.int64, 3: np.uint8}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def save_checkpoint(model: Model, path, train_cfg: TrainConfig | None = None):
    """Binary checkpoint: magic, version, config text, tensor table, CRC32.
    The file is replaced atomically."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    cfg_text = config_to_text(model.cfg, train_cfg).encode("utf-8")
    buf += struct.pack("<I", len(cfg_text))
    buf += cfg_text
    tensors = list(model.named_params()) + [(n, b) for n, b in model.named_buffers()]
    buf += struct.pack("<I", len(tensors))
    for name, t in tensors:
        data = t.data if isinstance(t, Var) else np.asarray(t)
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<BB", _DTYPE_CODES[np.dtype(data.dtype)], data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape)
        buf += np.ascontiguousarray(data).astype(data.dtype, copy=False).tobytes()
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
    _check_config(model.cfg, buf[off:off + cfg_len])
    off += cfg_len
    (n_tensors,), off = _read(buf, off, "<I")
    loaded = {}
    for _ in range(n_tensors):
        (name_len,), off = _read(buf, off, "<H")
        name = buf[off:off + name_len].decode("utf-8")
        off += name_len
        (code, ndim), off = _read(buf, off, "<BB")
        shape, off = _read(buf, off, f"<{ndim}I")
        dtype = np.dtype(_DTYPES.get(code))
        if code not in _DTYPES:
            raise CheckpointError(f"unknown dtype code {code}")
        nbytes = int(np.prod(shape)) * dtype.itemsize if ndim else dtype.itemsize
        raw = buf[off:off + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError("truncated tensor data")
        off += nbytes
        loaded[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    expected = {n: (t.data if isinstance(t, Var) else np.asarray(t))
                for n, t in list(model.named_params()) + list(model.named_buffers())}
    if set(loaded) != set(expected):
        missing = set(expected) - set(loaded)
        extra = set(loaded) - set(expected)
        raise CheckpointError(f"tensor table mismatch (missing={sorted(missing)[:3]}, "
                              f"extra={sorted(extra)[:3]})")
    for name, t in model.named_params():
        if loaded[name].shape != t.data.shape:
            raise CheckpointError(f"{name}: shape {loaded[name].shape} != {t.data.shape}")
        t.data = loaded[name].astype(np.float64)
    for name, arr in model.named_buffers():
        if loaded[name].shape != arr.shape:
            raise CheckpointError(f"{name}: shape mismatch")
        arr[...] = loaded[name]  # the yielded array is the live buffer
    return model
