"""FLOPs accounting and the theoretical energy model.

Rates come from the one firing-rate table, ``instrument.Probe`` (named
``FiringRateReport`` here): ``record_rates`` fills it from a forward pass and
``load_rate_fixture`` from a rate file; ``estimate_energy`` charges every op
of ``charged_ops`` from it.

Costing rules:

* spike-driven conv / linear layers cost E_AC * (sum of per-timestep input
  firing rates) * FLOPs, with FLOPs computed at the layer's deployed form
  (re-parameterized convs count as their folded dense 3x3);
* each spiking mixer is charged one op per stage of its ``STAGES`` table
  (see ``blocks.Mixer``), with the FLOPs of all the stage's convs (a
  depthwise conv counts one input channel per output): the table that
  builds the layers also lists what they cost;
* the stage-1 encoding conv reads raw pixels, so it is charged per timestep
  at E_MAC with rate 1;
* the attention operator costs E_AC * T * R_hat * N * D (mask variants) or
  * N * D^2 (matmul variants), where R_hat sums the measured firing rates of
  the maps ``attention.VARIANTS`` lists for the variant, and its Q/K/V
  convs are charged for the maps the variant reads;
* Hadamard masks and the neuron updates themselves are charged nothing.

Energies are the standard 45nm per-op figures: 0.9 pJ per accumulate and
4.6 pJ per multiply-accumulate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources

from .attention import VARIANTS
from .blocks import ChannelConv, ChannelMLP, SepConv
from .config import ModelConfig, stages
from .errors import ArgError, ParseError, ReportError, check_int
from .instrument import Probe

__all__ = [
    "E_AC_PJ",
    "E_MAC_PJ",
    "FiringRateReport",
    "EnergyReport",
    "ChargedOp",
    "flops_conv",
    "flops_mlp",
    "flops_conv_dw",
    "sdsa_flops",
    "vsa_flops",
    "charged_ops",
    "record_rates",
    "estimate_energy",
    "load_rate_fixture",
    "packaged_fixture_path",
]

E_AC_PJ = 0.9
E_MAC_PJ = 4.6


def flops_conv(k: int, h: int, w: int, c_in: int, c_out: int) -> int:
    """Multiply-accumulates of a dense conv layer: k^2 * h * w * c_in * c_out
    with (h, w) the output feature map size. The one statement of the FLOPs
    formula and its dimension rule: each argument is an integer >= 1
    (``errors.check_int``, ``ArgError`` naming it)."""
    for name, value in zip(("k", "h", "w", "c_in", "c_out"), (k, h, w, c_in, c_out)):
        check_int(name, value, 1)
    return k * k * h * w * c_in * c_out


def flops_conv_dw(k: int, h: int, w: int, c: int) -> int:
    """Depthwise conv: :func:`flops_conv` with one input channel per output
    channel."""
    return flops_conv(k, h, w, 1, c)


def flops_mlp(i: int, o: int) -> int:
    """Linear layer of ``i`` inputs and ``o`` outputs: :func:`flops_conv` of
    a 1x1 conv on a 1x1 map, so a bad ``i`` or ``o`` is named ``c_in`` or
    ``c_out``."""
    return flops_conv(1, 1, 1, i, o)


def sdsa_flops(variant: int, n: int, d: int, timesteps: int, rates) -> int:
    """Operator cost per Table-of-operators row: T * R_hat * N * D for the
    mask variants, T * R_hat * N * D^2 for the matmul variants. ``rates`` is
    the measured firing rate(s) whose sum forms R_hat. ``n`` and ``d`` are
    integers >= 0 and ``timesteps`` one >= 1 (``errors.check_int``)."""
    if variant not in VARIANTS:
        raise ArgError(f"unknown SDSA variant {variant}")
    check_int("n", n, 0)
    check_int("d", d, 0)
    check_int("timesteps", timesteps, 1)
    r_hat = float(sum(rates)) if hasattr(rates, "__iter__") else float(rates)
    base = n * d if variant in (1, 2) else n * d * d
    return int(round(timesteps * r_hat * base))


def vsa_flops(n: int, d: int) -> int:
    """Float attention baseline: QKV projections, two matmuls, scale, softmax.
    ``n`` and ``d`` are integers >= 0 (``errors.check_int``)."""
    check_int("n", n, 0)
    check_int("d", d, 0)
    if n == 0:
        return 0
    return 3 * n * d * d + 2 * n * n * d + 3 * n * n


# The one firing-rate table, filled by a forward pass or a rate file.
FiringRateReport = Probe


@dataclass(frozen=True)
class EnergyRow:
    layer: str
    flops: int
    rate: float  # mean over timesteps
    op_kind: str  # AC | MAC
    energy_pj: float


@dataclass
class EnergyReport:
    rows: list[EnergyRow]

    @property
    def total_pj(self) -> float:
        return sum(r.energy_pj for r in self.rows)

    @property
    def total_mj(self) -> float:
        return self.total_pj / 1e9

    def to_text(self) -> str:
        out = ["# layer flops rate op_kind energy_pj"]
        for r in self.rows:
            out.append(f"{r.layer} {r.flops} {r.rate:.6f} {r.op_kind} {r.energy_pj:.3f}")
        out.append(f"total_mj {self.total_mj:.3f}")
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["layer", "flops", "rate", "op_kind", "energy_pj"])
        for r in self.rows:
            w.writerow([r.layer, r.flops, f"{r.rate:.6f}", r.op_kind, f"{r.energy_pj:.3f}"])
        w.writerow(["total_mj", f"{self.total_mj:.3f}", "", "", ""])
        return buf.getvalue()


@dataclass(frozen=True)
class ChargedOp:
    """One energy-bearing op: a conv/linear with a single input-rate key, the
    raw-pixel encoding conv, or an attention operator with its matrix keys."""

    layer: str
    kind: str  # encoding | conv | mlp | sdsa
    flops: int  # per-pass FLOPs (conv/mlp); N*D base handled via sdsa_flops
    rate_keys: tuple[str, ...]
    n: int = 0
    d: int = 0
    variant: int = 0


def _mixer_ops(mixer, block: str, h: int, dim: int, kind: str):
    """One op per stage of a mixer class's ``STAGES`` table, charged the
    FLOPs of the stage's convs on the block's h x h map."""
    for key, convs in mixer.STAGES:
        layer = f"{block}.{mixer.NAME}.{key}"
        flops = sum(flops_conv(k, h, h, 1 if depthwise else c_in * dim, c_out * dim)
                    for _, k, c_in, c_out, depthwise in convs)
        yield ChargedOp(layer, kind, flops, (layer,))


def _transformer_ops(name: str, h: int, dim: int, variant: int):
    n = h * h
    rep = flops_conv(3, h, h, dim, dim)  # folded deployed form
    reads, rates = VARIANTS[variant]
    yield ChargedOp(f"{name}.qkv", "conv", len(reads) * rep, (f"{name}.qkv",))
    keys = tuple(f"{name}.{m}" for m in rates)
    yield ChargedOp(f"{name}.sdsa", "sdsa", 0, keys, n=n, d=dim, variant=variant)
    yield ChargedOp(f"{name}.repconv4", "conv", rep, (f"{name}.repconv4",))
    yield from _mixer_ops(ChannelMLP, name, h, dim, "mlp")


def charged_ops(cfg: ModelConfig) -> list[ChargedOp]:
    """Enumerate every energy-bearing op of a model config, in forward order.

    Layer ids match the names the forward pass reports to its probe, so a
    measured report and this enumeration join directly on the id.
    """
    ops: list[ChargedOp] = []
    for i, st in enumerate(stages(cfg)):
        h = st.size
        ops.append(ChargedOp(st.ds, "conv" if i else "encoding",
                             flops_conv(st.k, h, h, st.c_in, st.dim), (st.ds,)))
        for name in st.blocks:
            if st.kind == "conv":
                for mixer in (SepConv, ChannelConv):
                    ops.extend(_mixer_ops(mixer, name, h, st.dim, "conv"))
            else:
                ops.extend(_transformer_ops(name, h, st.dim, cfg.sdsa_variant))
    ops.append(ChargedOp("head.fc", "mlp", flops_mlp(cfg.dims[4], cfg.num_classes),
                         ("head.fc",)))
    return ops


def record_rates(model, x, timesteps: int | None = None) -> FiringRateReport:
    """Measure per-layer, per-timestep input firing rates over one forward;
    returns the probe the forward filled."""
    probe = FiringRateReport()
    model.forward(x, timesteps=timesteps, probe=probe)
    return probe


def estimate_energy(model_cfg: ModelConfig, rates: FiringRateReport,
                    timesteps: int) -> EnergyReport:
    """Theoretical energy of one inference at the given timestep count.

    Spike-driven layers are charged from the measured rates; missing rates
    raise. The encoding conv ignores the report and charges dense MACs.
    A ``timesteps`` that is not an integer >= 1 raises ``ArgError``.
    """
    check_int("timesteps", timesteps, 1)
    rows = []
    for op in charged_ops(model_cfg):
        if op.kind == "encoding":
            rows.append(EnergyRow(op.layer, op.flops, 1.0, "MAC", E_MAC_PJ * timesteps * op.flops))
        elif op.kind == "sdsa":
            means = [sum(rates.series(k, timesteps)) / timesteps for k in op.rate_keys]
            fl = sdsa_flops(op.variant, op.n, op.d, timesteps, means)
            rows.append(EnergyRow(op.layer, fl, sum(means), "AC", E_AC_PJ * fl))
        else:
            total = sum(rates.series(op.rate_keys[0], timesteps))
            rows.append(EnergyRow(op.layer, op.flops, total / timesteps, "AC",
                                  E_AC_PJ * op.flops * total))
    return EnergyReport(rows=rows)


def packaged_fixture_path():
    """The firing-rate table shipped with the library (31M-scale model, T=4)."""
    return resources.files("spikedrive.data") / "firing_rates_31m_t4.txt"


def load_rate_fixture(path=None) -> FiringRateReport:
    """Parse a structured firing-rate table keyed by (stage, block, layer, t).

    Lines are ``stage block layer t rate`` with ``t`` >= 1; '#' starts a
    comment. ``block`` is a block label or a downsampling label; stage
    ``head`` carries the classifier row.
    """
    source = packaged_fixture_path() if path is None else path
    report = FiringRateReport()
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ParseError(f"expected 5 fields, got {len(parts)}", lineno)
            stage, block, layer, t_str, rate_str = parts
            try:
                t, rate = int(t_str), float(rate_str)
            except ValueError:
                raise ParseError(f"bad numeric field in {line!r}", lineno) from None
            if t < 1:
                raise ParseError(f"timestep must be >= 1 in {line!r}", lineno)
            if stage == "head":
                layer_id = f"head.{layer}"
            elif block.startswith("ds"):
                layer_id = f"stage{stage}.{block}"
            else:
                layer_id = f"stage{stage}.{block}.{layer}"
            try:
                report.add(layer_id, t, rate)
            except ReportError as exc:
                raise ParseError(str(exc), lineno) from None
    return report
