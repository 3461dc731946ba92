"""Measure what one training step holds and how high its resident memory peaks.

    python scripts/memory_profile.py --label NAME [--src DIR] [--out FILE] [--runs CASE ...]

Four cases, each a training step with no gradient accumulation, built by
``profiling.build_case``:

* ``toy`` -- the toy net (C=8, 32x32, B=32, T=1, the shapes of the
  benchmark's ``train_toy``);
* ``15m_224_t1``, ``15m_112_t4``, ``15m_224_t4`` -- the 15M net at B=1, at
  224x224 or 112x112 and T=1 or T=4.

Each case runs twice, each time in a fresh process (``profiling.run``, BLAS
on one thread):

* ``step`` -- one taped forward, backward and optimizer step, the tape held
  through the optimizer step as ``train_toy`` holds it. It reports the
  process's peak RSS (``ru_maxrss``) before the step and after it, and the
  forward (model and loss) and backward seconds.
* ``held`` -- one taped forward, then a walk over the tape's records. It sums
  the unique base arrays the records reach: through their vjp closures
  ("held by vjps"), and through their output and input entries alone ("held
  only through record entries"). The parameters and the input batch are
  left out, since the caller holds them. It also reports the share of those
  bytes in float64 arrays whose entries are all 0 or 1 (spike maps), and
  the record count. Apart from the tape, it sums the arrays the model itself
  still reaches ("held by layers"), less its parameters and buffers.

The options, the runner and ``profiling.store`` are described in
``profiling.py``: the result is stored under ``--label`` in the JSON file
``--out`` (default ``BENCH_memory.json`` beside this directory).
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import types

import numpy as np

import profiling

MIB = 1 << 20


def peak_rss_mb() -> float:
    """The process's peak RSS so far, in the benchmark's unit (KiB / 1024)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_step(case) -> dict:
    from spikedrive import autodiff, train

    model, params, x, y, timesteps = profiling.build_case(case)
    optim = train.OptimState(lr=1e-2)
    before = peak_rss_mb()
    t0 = time.perf_counter()
    tape = autodiff.Tape()
    loss = train.loss(model.forward(x, timesteps=timesteps, tape=tape, training=True), y,
                      0.0, tape=tape)
    t1 = time.perf_counter()
    autodiff.backward(tape, loss, params=params)
    t2 = time.perf_counter()
    train.step(optim, params)
    peak = peak_rss_mb()
    return {"peak_rss_before_step_mb": round(before, 1), "peak_rss_mb": round(peak, 1),
            "forward_s": round(t1 - t0, 3), "backward_s": round(t2 - t1, 3),
            "loss": float(loss.data)}


def reachable_arrays(roots) -> dict[int, object]:
    """The unique base ndarrays reachable from ``roots``, keyed by id. A
    function is followed through its closure cells and defaults only, never
    its globals; classes and modules are not followed."""
    found, seen, todo = {}, set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
            continue
        if isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ()
                        if c.cell_contents is not None)
            todo.extend(obj.__defaults__ or ())
            todo.extend((obj.__kwdefaults__ or {}).values())
            continue
        todo.extend(gc.get_referents(obj))
    return found


def _is_binary(a) -> bool:
    return a.dtype == np.float64 and bool(np.all((a == 0) | (a == 1)))


def run_held(case) -> dict:
    from spikedrive import autodiff, train

    model, params, x, y, timesteps = profiling.build_case(case)
    tape = autodiff.Tape()
    train.loss(model.forward(x, timesteps=timesteps, tape=tape, training=True), y, 0.0,
               tape=tape)
    by_vjps = reachable_arrays(vjp for _, _, vjp in tape.records)
    by_entries = reachable_arrays(e for outs, ins, _ in tape.records for e in outs + ins)
    # parameters and the input batch are held by the caller, not by the tape
    owned = reachable_arrays([x] + [p.data for p in params])
    by_vjps = {i: a for i, a in by_vjps.items() if i not in owned}
    only_entries = {i: a for i, a in by_entries.items() if i not in by_vjps and i not in owned}
    held = {**by_vjps, **only_entries}
    # the model's own arrays apart from its parameters and running buffers
    owned.update(reachable_arrays(b for _, b in model.named_buffers()))
    by_layers = [a for i, a in reachable_arrays([model]).items() if i not in owned]
    total = sum(a.nbytes for a in held.values())
    binary = sum(a.nbytes for a in held.values() if _is_binary(a))
    return {"records": len(tape),
            "held_mib": round(total / MIB, 1),
            "held_by_vjps_mib": round(sum(a.nbytes for a in by_vjps.values()) / MIB, 1),
            "held_only_by_entries_mib": round(
                sum(a.nbytes for a in only_entries.values()) / MIB, 1),
            "held_by_layers_mib": round(sum(a.nbytes for a in by_layers) / MIB, 1),
            "binary_float64_share": round(binary / total, 3) if total else 0.0}


def main(argv=None) -> int:
    p = profiling.options(__doc__, "BENCH_memory.json")
    p.add_argument("--runs", nargs="+", choices=list(profiling.CASES),
                   default=list(profiling.CASES), help="cases to run (default: all)")
    args = profiling.parse_args(p, argv)
    cases = {}
    for case in args.runs:
        step = profiling.run(args, f"{case} step", run_step, case)
        held = profiling.run(args, f"{case} held", run_held, case)
        cases[case] = {"step": step, "held": held}
        print(f"{case:11s} peak {step['peak_rss_mb']:8.1f} MB  fwd {step['forward_s']:6.2f} s  "
              f"bwd {step['backward_s']:6.2f} s  held {held['held_mib']:7.1f} MiB "
              f"(vjps {held['held_by_vjps_mib']:.1f}, entries only "
              f"{held['held_only_by_entries_mib']:.1f}, 0/1 float64 "
              f"{held['binary_float64_share']:.1%}; layers {held['held_by_layers_mib']:.1f})")
    profiling.store(args.out, args.label, {"cases": cases})
    return 0


if __name__ == "__main__":
    sys.exit(main())
