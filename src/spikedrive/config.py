"""Config file handling: sectioned key = value text, strict about unknown keys.

The dataclasses are the schema: the text holds one key per field, in field
order, parsed and written by the ``_CODECS`` entry of the field's annotated
type.

Each rule on a setting is written once. A field's range, or a str field's
choices (the shortcut's are ``blocks.SHORTCUTS``), is declared beside it
with :func:`errors.setting`, and :func:`errors.check_fields`, which every
settings record calls first, enforces it after the field's type and
finiteness. ``ModelConfig.__post_init__`` adds only that ``depths`` has
five entries and that no stage width exceeds ``sys.maxsize``. The SDSA
settings' defaults and rules are ``attention.SDSAConfig``'s:
``ModelConfig.sdsa`` builds one per transformer stage instead of restating
them. The neuron settings' are ``neuron.LIFParams``'s. :func:`fields_of`
picks a record's settings out of a wider set of named values, so a caller
that holds them under the same names (``estimator.SpikingClassifier``,
``train.OptimState``) passes them on without listing them again.
"""

from __future__ import annotations

import configparser
import io
import sys
from dataclasses import dataclass, field, fields, is_dataclass

from .attention import SDSAConfig
from .blocks import SHORTCUTS
from .errors import ConfigError, check_fields, field_types, setting
from .kernels import conv_output_size
from .neuron import LIFParams

__all__ = ["ModelConfig", "TrainConfig", "parse_config", "parse_config_text",
           "config_to_text", "fields_of", "stage_dims", "Stage", "stages"]

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
    """The ``[model]`` section. ``sdsa_variant``, ``heads`` and
    ``threshold_scale`` are the SDSA settings of every transformer stage:
    their defaults are ``attention.SDSAConfig``'s class attributes and their
    rules its checks, run on each stage's :meth:`sdsa` record as the config
    is built. ``lif`` is the ``[lif]`` section."""

    base_channels: int = setting(32, "[1, inf)")
    num_classes: int = setting(1000, "[1, inf)")
    in_channels: int = setting(3, "[1, inf)")
    resolution: int = setting(224, "[16, inf)")
    timesteps: int = setting(1, "[1, inf)")
    depths: tuple[int, ...] = setting((1, 1, 2, 6, 2), "[0, inf)")
    sdsa_variant: int = SDSAConfig.variant
    heads: int = SDSAConfig.heads
    threshold_scale: float = SDSAConfig.threshold_scale
    shortcut: str = setting("MS", SHORTCUTS)
    seed: int = setting(0, "[0, inf)")
    stage4_dim: int | None = setting(None, "[1, inf)")
    lif: LIFParams = field(default_factory=LIFParams)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "depths", tuple(self.depths))
        if len(self.depths) != 5:
            raise ConfigError("depths must be five non-negative block counts")
        if max(self.dims) > sys.maxsize:
            raise ConfigError(f"base_channels {self.base_channels} makes a stage wider "
                              f"than {sys.maxsize}")
        for d in self.dims[3:]:  # the SDSA rules, checked on each transformer stage
            self.sdsa(d)

    def sdsa(self, dim: int) -> SDSAConfig:
        """The attention settings of a transformer stage of width ``dim``."""
        return SDSAConfig(self.sdsa_variant, self.heads, dim, self.threshold_scale)

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return stage_dims(self.base_channels, self.stage4_dim)


def fields_of(cls, values) -> dict:
    """The entries of the mapping ``values`` that name a field of the
    dataclass ``cls``, for building a ``cls`` from a wider set of values."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


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
    epochs: int = setting(10, "[0, inf)")
    batch_size: int = setting(32, "[1, inf)")
    lr: float = setting(5e-3, "(0, inf)")
    weight_decay: float = setting(0.0, "[0, inf)")
    beta1: float = setting(0.9, "[0, 1)")
    beta2: float = setting(0.999, "[0, 1)")
    eps: float = setting(1e-8, "(0, inf)")
    label_smoothing: float = setting(0.1, "[0, 1)")
    seed: int = setting(0, "[0, inf)")
    augment_flip: bool = False
    schedule: str = setting("constant", ("constant", "cosine"))

    def __post_init__(self):
        check_fields(self)


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
    types = field_types(cls)
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
    for name, t in field_types(type(obj)).items():
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
