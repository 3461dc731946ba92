"""Config file handling: sectioned key = value text, strict about unknown keys."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .kernels import conv_output_size
from .neuron import LIFParams

__all__ = ["ModelConfig", "TrainConfig", "parse_config", "parse_config_text",
           "config_to_text", "stage_dims", "Stage", "stages"]

STAGE4_TABLE = {32: 360, 48: 480, 64: 640}

# The stage pyramid, one row per downsampling conv and the blocks after it:
# (stage number, downsample label, kernel, stride, block kind). Rows share a
# stage number when a stage has two downsamples; its blocks number on.
PYRAMID = (
    (1, "ds1", 7, 2, "conv"),
    (1, "ds2", 3, 2, "conv"),
    (2, "ds", 3, 2, "conv"),
    (3, "ds", 3, 2, "transformer"),
    (4, "ds", 3, 1, "transformer"),
)


@dataclass(frozen=True)
class ModelConfig:
    base_channels: int = 32
    num_classes: int = 1000
    in_channels: int = 3
    resolution: int = 224
    timesteps: int = 1
    depths: tuple[int, ...] = (1, 1, 2, 6, 2)
    sdsa_variant: int = 3
    heads: int = 8
    threshold_scale: float = 0.125
    shortcut: str = "MS"
    stage4_dim: int | None = None
    seed: int = 0
    lif: LIFParams = field(default_factory=LIFParams)

    def __post_init__(self):
        if self.base_channels < 1 or self.num_classes < 1 or self.resolution < 16:
            raise ConfigError("base_channels/num_classes must be >= 1, resolution >= 16")
        if self.in_channels < 1:
            raise ConfigError("in_channels must be >= 1")
        if self.timesteps < 1:
            raise ConfigError("timesteps must be >= 1")
        if len(self.depths) != 5 or any(d < 0 for d in self.depths):
            raise ConfigError("depths must be five non-negative block counts")
        if self.sdsa_variant not in (1, 2, 3, 4):
            raise ConfigError(f"sdsa_variant must be 1..4, got {self.sdsa_variant}")
        if self.shortcut not in ("MS", "SEW", "VS"):
            raise ConfigError(f"shortcut must be MS, SEW or VS, got {self.shortcut!r}")
        if self.sdsa_variant in (3, 4):
            for d in self.dims[3:]:
                if d % self.heads:
                    raise ConfigError(f"stage dim {d} not divisible by {self.heads} heads")

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return stage_dims(self.base_channels, self.stage4_dim)


def stage_dims(c: int, stage4: int | None = None) -> tuple[int, int, int, int, int]:
    """Channel widths per stage: (C, 2C, 4C, 8C, stage-4 width).

    Stage 4 widens to the published table value for the three reference
    channel counts and to 10C otherwise.
    """
    return (c, 2 * c, 4 * c, 8 * c, stage4 or STAGE4_TABLE.get(c, 10 * c))


@dataclass(frozen=True)
class Stage:
    """One pyramid row: a downsampling conv and the blocks that follow it."""

    ds: str  # layer id of the downsampling conv
    k: int
    stride: int
    c_in: int
    dim: int
    size: int  # feature-map side after the downsample
    blocks: tuple[str, ...]  # layer ids of the blocks
    kind: str  # conv | transformer


def stages(cfg: ModelConfig) -> tuple[Stage, ...]:
    """The pyramid of ``cfg`` in forward order; the raw-pixel encoding conv
    is the first row's downsample."""
    rows, c_in, size, numbered = [], cfg.in_channels, cfg.resolution, {}
    for (st, label, k, stride, kind), dim, depth in zip(PYRAMID, cfg.dims, cfg.depths):
        size = conv_output_size(size, k, stride, k // 2)
        first = numbered.get(st, 0)
        numbered[st] = first + depth
        blocks = tuple(f"stage{st}.block{first + i}" for i in range(1, depth + 1))
        rows.append(Stage(f"stage{st}.{label}", k, stride, c_in, dim, size, blocks, kind))
        c_in = dim
    return tuple(rows)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 5e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    label_smoothing: float = 0.1
    seed: int = 0
    augment_flip: bool = False
    schedule: str = "constant"

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not 0 <= self.label_smoothing < 1:
            raise ConfigError("label_smoothing must be in [0, 1)")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"schedule must be constant or cosine, got {self.schedule!r}")


_MODEL_KEYS = {
    "base_channels": int, "num_classes": int, "in_channels": int, "resolution": int,
    "timesteps": int, "depths": "depths", "sdsa_variant": int, "heads": int,
    "threshold_scale": float, "shortcut": str, "stage4_dim": int, "seed": int,
}
_LIF_KEYS = {"u_th": float, "beta": float, "v_reset": float,
             "surrogate_window": float, "threshold_scale": float}
_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig)}


def _convert(section: str, key: str, raw: str, spec):
    if spec == "depths":
        return tuple(int(p) for p in raw.replace(",", " ").split())
    caster = {int: int, float: float, str: str, bool: None}.get(spec, None)
    try:
        if spec is bool or spec == "bool":
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if caster is str or spec == "str":
            return raw.strip()
        if caster is int or spec == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def parse_config_text(text: str) -> tuple[ModelConfig, TrainConfig]:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from None
    known = {"model": _MODEL_KEYS, "lif": _LIF_KEYS, "train": _TRAIN_KEYS}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    model_kw = {k: _convert("model", k, cp["model"][k], spec)
                for k, spec in _MODEL_KEYS.items() if cp.has_option("model", k)}
    lif_kw = {k: _convert("lif", k, cp["lif"][k], spec)
              for k, spec in _LIF_KEYS.items()
              if cp.has_section("lif") and cp.has_option("lif", k)}
    train_kw = {k: _convert("train", k, cp["train"][k], spec)
                for k, spec in _TRAIN_KEYS.items()
                if cp.has_section("train") and cp.has_option("train", k)}
    try:
        lif = LIFParams(**lif_kw) if lif_kw else LIFParams()
        model = ModelConfig(lif=lif, **model_kw)
        train = TrainConfig(**train_kw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return model, train


def parse_config(path) -> tuple[ModelConfig, TrainConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def config_to_text(cfg: ModelConfig, train: TrainConfig | None = None) -> str:
    cp = configparser.ConfigParser()
    cp["model"] = {
        "base_channels": str(cfg.base_channels),
        "num_classes": str(cfg.num_classes),
        "in_channels": str(cfg.in_channels),
        "resolution": str(cfg.resolution),
        "timesteps": str(cfg.timesteps),
        "depths": " ".join(str(d) for d in cfg.depths),
        "sdsa_variant": str(cfg.sdsa_variant),
        "heads": str(cfg.heads),
        "threshold_scale": repr(cfg.threshold_scale),
        "shortcut": cfg.shortcut,
        "seed": str(cfg.seed),
    }
    if cfg.stage4_dim is not None:
        cp["model"]["stage4_dim"] = str(cfg.stage4_dim)
    cp["lif"] = {
        "u_th": repr(cfg.lif.u_th),
        "beta": repr(cfg.lif.beta),
        "v_reset": repr(cfg.lif.v_reset),
        "threshold_scale": repr(cfg.lif.threshold_scale),
    }
    if cfg.lif.surrogate_window is not None:
        cp["lif"]["surrogate_window"] = repr(cfg.lif.surrogate_window)
    if train is not None:
        cp["train"] = {
            "epochs": str(train.epochs),
            "batch_size": str(train.batch_size),
            "lr": repr(train.lr),
            "weight_decay": repr(train.weight_decay),
            "beta1": repr(train.beta1),
            "beta2": repr(train.beta2),
            "eps": repr(train.eps),
            "label_smoothing": repr(train.label_smoothing),
            "seed": str(train.seed),
            "augment_flip": str(train.augment_flip),
            "schedule": train.schedule,
        }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
