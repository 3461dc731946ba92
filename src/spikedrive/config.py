"""Config file handling: sectioned key = value text, strict about unknown keys.

The dataclasses are the schema: the text holds one key per field, in field
order, parsed and written by the ``_CODECS`` entry of the field's annotated
type.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, is_dataclass
from typing import get_type_hints

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
    seed: int = 0
    stage4_dim: int | None = None
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
        if not (math.isfinite(self.threshold_scale) and self.threshold_scale > 0):
            raise ConfigError(f"threshold_scale must be finite and > 0, "
                              f"got {self.threshold_scale}")
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
    epochs: int = 10
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
        for name, value in (("lr", self.lr), ("eps", self.eps)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"schedule must be constant or cosine, got {self.schedule!r}")


# parse and format for each annotated field type; an ``X | None`` field uses
# X's entry and holds None when its key is absent
_CODECS = {
    int: (int, str),
    float: (float, lambda v: repr(float(v))),
    str: (str, str),
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], str),
    tuple[int, ...]: (lambda raw: tuple(int(p) for p in raw.replace(",", " ").split()),
                      lambda v: " ".join(str(d) for d in v)),
}
_CODECS.update({t | None: codec for t, codec in _CODECS.items()})
# the top-level sections; a field holding a dataclass is a section of its own,
# named after the field
_ROOTS = (("model", ModelConfig), ("train", TrainConfig))


def _build(cp, section: str, cls, seen: set):
    """``cls`` from the keys of ``section``; a dataclass field is built from
    the section named after it. Adds each section read to ``seen``."""
    seen.add(section)
    types = get_type_hints(cls)
    kw = {name: _build(cp, name, t, seen) for name, t in types.items() if is_dataclass(t)}
    for key, raw in cp[section].items() if cp.has_section(section) else ():
        if types.get(key) not in _CODECS:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        try:
            kw[key] = _CODECS[types[key]][0](raw)
        except (ValueError, KeyError):
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    return cls(**kw)


def parse_config_text(text: str) -> tuple[ModelConfig, TrainConfig]:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from None
    seen: set[str] = set()
    try:
        model, train = (_build(cp, *root, seen) for root in _ROOTS)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    for section in cp.sections():
        if section not in seen:
            raise ConfigError(f"unknown section [{section}]")
    return model, train


def parse_config(path) -> tuple[ModelConfig, TrainConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _write(cp, section: str, obj):
    cp[section] = {}
    for name, t in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(t):
            _write(cp, name, value)
        elif value is not None:
            cp[section][name] = _CODECS[t][1](value)


def config_to_text(cfg: ModelConfig, train: TrainConfig | None = None) -> str:
    cp = configparser.ConfigParser()
    for (section, _), obj in zip(_ROOTS, (cfg, train)):
        if obj is not None:
            _write(cp, section, obj)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
