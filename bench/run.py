"""spikedrive benchmark runner.

    python3 bench/run.py --workload {train_toy,infer_15m,event_route} \
        --seed N --seconds S --trace {0,1} [--tiny] [--out DIR]

Run from the root of a checkout. It builds nothing: it imports ``src/spikedrive``
from the checkout and fails (exit 2, no result line) when that is missing.

One process, one closed-loop client. Set-up is timed several times and the
median reported. With ``--trace 0`` requests run untraced for ``--seconds`` of
request time and the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` the first half of the time runs
untraced, the second half with every public entry point wrapped in a span,
and the last line holds the per-layer metrics. The line before it is a report
that names each metric as ``bench/spec.json`` does for the workload, with
its tail and sample count, the output checks run and the environment. The
same report, plus the spans when traced, is written under ``--out``.

BLAS runs single-threaded: at two OpenBLAS threads the optimizer step of the
toy net switches between two speeds across identical processes. The process
pins itself to the usable CPU that runs a short probe loop fastest: on a
shared machine one CPU can run this code 40% slower than another for
minutes, and an unpinned process lands on either.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import OP_FAMILY, Tracer, durations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1
SETUP_REPEATS = (3, 9)  # at least 3 set-ups, more while they take under 2 s in all
SETUP_BUDGET_S = 2.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_S, PROBE_ROUNDS, PROBE_MAX_CPUS = 0.05, 2, 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train_toy", "infer_15m", "event_route"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="C=4 at 16x16: the runner's self-test sizes")
    p.add_argument("--out", type=Path, default=BENCH / "out",
                   help="directory for the result file (default bench/out)")
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def load_program():
    """Import spikedrive from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spikedrive" / "__init__.py").is_file():
        raise ImportError(f"no spikedrive package under {src}")
    sys.path.insert(0, str(src))
    import spikedrive
    if Path(spikedrive.__file__).resolve().parent != (src / "spikedrive").resolve():
        raise ImportError(f"spikedrive imported from {spikedrive.__file__}, not {src}")


def pin_to_fastest_cpu() -> dict[int, int]:
    """Pin this process to the usable CPU that counts furthest in a short
    pure-Python loop (best of a few rounds); returns the counts per CPU."""
    counts: dict[int, int] = {}
    cpus = sorted(os.sched_getaffinity(0))[:PROBE_MAX_CPUS]
    for _ in range(PROBE_ROUNDS):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            n, t_end = 0, time.perf_counter() + PROBE_S
            while time.perf_counter() < t_end:
                n += 1
            counts[cpu] = max(counts.get(cpu, 0), n)
    os.sched_setaffinity(0, {max(counts, key=counts.get)})
    return counts


def environment(np, probe) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_probe": probe,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- measuring -------------------------------------------------------------------


@dataclass
class Sample:
    rid: int
    kind: str
    total: float  # request time, s
    parts: dict   # timed parts of the request, s
    work: float   # samples, images or counted adds
    ok: bool      # passed every check


def measure(wl, seconds: float, rid: int, tracer=None) -> tuple[list[Sample], int]:
    """Closed loop: the next request starts when the previous one and its
    checks are done. Runs until the summed request time reaches ``seconds``
    and every request kind has run."""
    samples, busy, first = [], 0.0, rid
    while True:
        kind = wl.kind(rid)
        inp = wl.prepare(rid)
        if tracer is not None:
            tracer.rid, tracer.tag = rid, "req"
            span = tracer.open(kind, "request")
        err = None
        t0 = time.perf_counter()
        try:
            out, parts, work = wl.request(rid, inp)
        except Exception:  # a failed request is counted, never dropped
            err = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.tag = "chk"
        if err is None:
            try:
                wl.check(rid, inp, out)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            wl.checks("request.completed", rid, False, err)
            parts, work = {}, 0
        samples.append(Sample(rid, kind, t1 - t0, parts, work, rid not in wl.checks.failed))
        busy += t1 - t0
        rid += 1
        if busy >= seconds and rid - first >= len(wl.kinds):
            return samples, rid


def tail(values) -> dict:
    """The highest percentile of the ladder with at least ten samples beyond
    it (nearest rank), or none when there are too few samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            ranked = sorted(values)
            return {"p": p, "value": ranked[min(n - 1, int(p / 100.0 * n))], "n": n}
    return {"p": None, "value": None, "n": n}


def kind_medians(samples, kinds, value) -> list[float]:
    """Median of ``value`` per request kind, for the kinds that have samples."""
    groups = [[value(s) for s in samples if s.kind == k] for k in kinds]
    return [statistics.median(g) for g in groups if g]


def end_to_end(wl, setup_times, samples) -> tuple[dict, dict]:
    """Slot values and their tails."""
    good = [s for s in samples if s.ok]
    values, tails = {"setup_s": statistics.median(setup_times)}, {"setup_s": tail(setup_times)}
    for slot, (kind, part) in wl.slots.items():
        kinds = wl.kinds if kind is None else (kind,)
        meds = kind_medians(good, kinds, lambda s: s.parts[part] if part else s.total)
        values[slot] = statistics.fmean(meds) if meds else float("nan")
        tails[slot] = tail([s.parts[part] if part else s.total
                            for s in good if s.kind in kinds])
    # one median request of each kind: its work over its time
    work = kind_medians(good, wl.kinds, lambda s: s.work)
    busy = kind_medians(good, wl.kinds, lambda s: s.total)
    values["work_per_s"] = sum(work) / sum(busy) if busy else float("nan")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, tails


# -- per-layer metrics from spans ---------------------------------------------------

FAMILIES = sorted(set(OP_FAMILY.values()))
# per-layer metric -> span category whose total time it sums
SPAN_CATS = {
    "blocks.SN.step_s": "blocks.SN.step", "blocks.SepConv_s": "blocks.SepConv",
    "blocks.ChannelConv_s": "blocks.ChannelConv", "blocks.ChannelMLP_s": "blocks.ChannelMLP",
    "blocks.RepConv_s": "blocks.RepConv", "blocks.attend_s": "blocks.TransformerBlock.attend",
    "blocks.Downsample_s": "blocks.Downsample",
    "autodiff.backward_s": "autodiff.backward", "train.step_s": "train.step",
    "train.loss_s": "train.loss", "instrument.observe_s": "instrument.observe",
    "energy.record_rates_s": "energy.record_rates",
    "energy.estimate_energy_s": "energy.estimate_energy",
    "kernels.event_conv2d_s": "kernels.event_conv2d",
    "kernels.event_matmul_s": "kernels.event_matmul", "attention.sdsa_s": "attention.sdsa3",
}


def install_tracer(tracer, wl):
    from spikedrive import attention, autodiff, energy, instrument, kernels, train
    tracer.patch_autodiff(autodiff)
    for mod, names in ((train, ("loss", "step")),
                       (energy, ("record_rates", "estimate_energy", "charged_ops")),
                       (kernels, ("event_conv2d", "event_matmul", "dense_conv2d",
                                  "dense_matmul")),
                       (attention, ("sdsa3",))):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.patch(mod, name, f"{short}.{name}")
    tracer.patch(instrument.Probe, "observe", "instrument.observe")
    if getattr(wl, "model", None) is not None:
        tracer.patch_layers(wl.model)


def span_sums(spans, totals, selfs, rids, tag="req"):
    """Summed total and self time per category over the given requests."""
    tot, slf = {}, {}
    for s, t, u in zip(spans, totals, selfs):
        if s[5] in rids and s[6] == tag:
            tot[s[1]] = tot.get(s[1], 0.0) + t
            slf[s[1]] = slf.get(s[1], 0.0) + u
    return tot, slf


def layer_values(tracer, rids, units, totals, selfs) -> dict:
    """Per-layer times and counts per unit (train step, inference cycle or
    event pass) over the traced requests ``rids``."""
    spans = tracer.spans
    tot, slf = span_sums(spans, totals, selfs, rids)
    m = {}
    for fam in FAMILIES:
        m[f"autodiff.{fam}.fwd_s"] = slf.get(f"autodiff.{fam}.fwd", 0.0)
        m[f"autodiff.{fam}.bwd_s"] = slf.get(f"autodiff.{fam}.bwd", 0.0)
    for name, cat in SPAN_CATS.items():
        m[name] = tot.get(cat, 0.0)
    m["kernels.dense_conv2d_s"] = span_sums(spans, totals, selfs, rids, "chk")[0].get(
        "kernels.dense_conv2d", 0.0)
    for key in ("autodiff.tape_records", "autodiff.conv2d.group_matmuls"):
        m[key] = sum(v for (rid, k), v in tracer.counts.items() if k == key and rid in rids)
    stages = {f"model.stage{k}_s": f"stage{k}." for k in range(1, 5)}
    stages["model.head_s"] = "head."
    for name in stages:
        m[name] = 0.0
    m["model.encoding_conv_s"] = 0.0
    for s, t in zip(spans, totals):
        if s[5] not in rids or s[6] != "req" or s[4] < 0:
            continue
        if spans[s[4]][1] == "model.Model":
            for name, prefix in stages.items():
                if s[0].startswith(prefix):
                    m[name] += t
        if s[0] == "stage1.ds1" and s[1] == "blocks.Downsample":
            m["model.encoding_conv_s"] += t
    return {k: v / units for k, v in m.items()}


def trace_metrics(tracer, wl, untraced, traced) -> tuple[dict, dict]:
    spans = tracer.spans
    totals, selfs = durations(spans)
    rids = {s.rid for s in traced}
    units = len(traced) / len(wl.kinds)
    m = layer_values(tracer, rids, units, totals, selfs)
    per_kind = {k: layer_values(tracer, {s.rid for s in traced if s.kind == k},
                                sum(s.kind == k for s in traced), totals, selfs)
                for k in wl.kinds}
    for key in ("energy.total_mj", "model.mean_firing_rate", "kernels.events",
                "kernels.event_adds", "kernels.adds_over_model", "kernels.event_maxdiff"):
        m[key] = wl.values.get(key, 0.0)

    def total(samples):  # one median request of each kind
        return sum(kind_medians(samples, wl.kinds, lambda s: s.total))

    m["trace.overhead_frac"] = total(traced) / total(untraced) - 1.0
    req = [i for i, s in enumerate(spans) if s[1] == "request"]
    covered = sum(t for s, t in zip(spans, totals) if s[4] >= 0 and spans[s[4]][1] == "request")
    m["trace.coverage_frac"] = covered / sum(totals[i] for i in req)
    return m, per_kind


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    probe = pin_to_fastest_cpu()
    sys.dont_write_bytecode = True
    try:
        spec = json.loads((BENCH / "spec.json").read_text())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_program()
    except (OSError, ImportError, ValueError) as exc:
        return fail(f"cannot load the program or the benchmark definition: {exc}")

    import numpy as np
    import workloads

    make = {"train_toy": workloads.TrainToy, "infer_15m": workloads.Infer15M,
            "event_route": workloads.EventRoute}[args.workload]
    traced_run = bool(args.trace)

    setup_times, wl = [], None
    least, most = (1, 1) if traced_run else SETUP_REPEATS
    while len(setup_times) < least or (len(setup_times) < most
                                       and sum(setup_times) < SETUP_BUDGET_S):
        wl = None
        gc.collect()
        wl = make(args.seed, args.tiny)
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    wl.warmup()

    tracer = None
    if traced_run:
        untraced, rid = measure(wl, args.seconds / 2, 0)
        tracer = Tracer()
        install_tracer(tracer, wl)
        try:
            traced, _ = measure(wl, args.seconds / 2, rid, tracer)
        finally:
            tracer.unpatch()
        samples = untraced + traced
    else:
        samples, _ = measure(wl, args.seconds, 0)
    wl.finish(traced_run)

    extra = {}
    if traced_run:
        layer, per_kind = trace_metrics(tracer, wl, untraced, traced)
        extra = {"per_layer": layer, "per_kind": per_kind, "spans": tracer.spans,
                 "span_fields": ["name", "cat", "start", "end", "parent", "rid", "tag"]}
        if isinstance(wl, workloads.Infer15M) and wl.first_profile is not None:
            t1 = {s.rid for s in traced if s.kind == "t1"}
            rows, unmatched = workloads.charged_op_table(
                wl.cfg, tracer.spans, *durations(tracer.spans), t1, wl.first_profile[1])
            wl.checks("trace.op_table_join", min(t1), not unmatched, ", ".join(unmatched[:5]))
            extra["charged_op_table"] = rows

    attempted = len(samples)
    failed = sum(1 for s in samples if s.rid in wl.checks.failed)
    names = spec["workloads"][args.workload]["metrics"]
    values, tails = end_to_end(wl, setup_times, samples)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": environment(np, probe),
        "metrics": {names[k]["name"]: {"value": v, "unit": names[k]["unit"], "slot": k,
                                      "tail": tails.get(k)}
                    for k, v in values.items()},
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "checks": wl.checks.runs, "failures": wl.checks.notes[:20],
        "setup_times_s": setup_times,
    }
    extra["samples"] = [[s.rid, s.kind, s.total, s.parts, s.ok] for s in samples]

    args.out.mkdir(parents=True, exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    out_file = args.out / f"{args.workload}{tag}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**report, **extra}))
    report["result_file"] = str(out_file)

    if traced_run:
        listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
        got = extra["per_layer"]
    else:
        listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        got = values
    missing = sorted(set(listed) - set(got))
    if missing:
        return fail(f"runner does not compute {missing}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": got[k], "unit": u} for k, u in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
