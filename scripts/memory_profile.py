"""Measure what one training step holds and how high its resident memory peaks.

    python scripts/memory_profile.py --label NAME [--src DIR] [--out FILE] [--runs CASE ...]

Four cases, each a training step with no gradient accumulation:

* ``toy`` -- the toy net (C=8, 32x32, B=32, T=1, the shapes of the
  benchmark's ``train_toy``);
* ``15m_224_t1``, ``15m_112_t4``, ``15m_224_t4`` -- the 15M net at B=1, at
  224x224 or 112x112 and T=1 or T=4.

Each case runs twice, each time in a fresh process with BLAS on one thread:

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

The result is stored under ``--label`` in the JSON file ``--out`` (default
``BENCH_memory.json`` beside this directory), with the machine it ran on, and
other labels already in that file are kept (:func:`store`, which
``conv_profile.py`` also writes with). ``--src`` imports ``spikedrive`` from
another checkout's ``src/``, so the same script can measure two versions of
the library.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
MIB = 1 << 20
# case -> (resolution, timesteps); the toy case is the benchmark's toy net
CASES = {"toy": (32, 1), "15m_224_t1": (224, 1), "15m_112_t4": (112, 4),
         "15m_224_t4": (224, 4)}
PARTS = ("step", "held")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", help="name of this result in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the spikedrive package (default: this checkout's)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_memory.json")
    p.add_argument("--runs", nargs="+", choices=list(CASES), default=list(CASES),
                   help="cases to run (default: all)")
    p.add_argument("--child", nargs=2, metavar=("CASE", "PART"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and args.label is None:
        p.error("--label is required")
    return args


def build_case(case):
    """The model, its parameters, the batch and T of one case."""
    from spikedrive import train
    from spikedrive.config import ModelConfig
    from spikedrive.model import build_model
    from spikedrive.neuron import LIFParams

    resolution, timesteps = CASES[case]
    if case == "toy":
        model = build_model(ModelConfig(base_channels=8, num_classes=2, resolution=32,
                                        depths=(1, 1, 1, 2, 1), heads=2, seed=3, timesteps=1,
                                        lif=LIFParams(surrogate_window=1.0)))
        data = train.make_blobs(32, resolution=32, classes=2, seed=0)
        x, y = data.images, data.labels
    else:
        model = build_model(ModelConfig(base_channels=32, resolution=resolution,
                                        num_classes=1000, seed=0))
        x = np.random.default_rng(0).random((1, 3, resolution, resolution))
        y = np.array([7])
    return model, model.parameters(), x, y, timesteps


def peak_rss_mb() -> float:
    """The process's peak RSS so far, in the benchmark's unit (KiB / 1024)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_step(case) -> dict:
    from spikedrive import autodiff, train

    model, params, x, y, timesteps = build_case(case)
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

    model, params, x, y, timesteps = build_case(case)
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


def child(args) -> int:
    sys.path.insert(0, str(args.src.resolve()))
    case, part = args.child
    result = (run_step if part == "step" else run_held)(case)
    print(json.dumps(result))
    return 0


def measure(args, case, part) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src",
                           str(args.src), "--child", case, part],
                          capture_output=True, text=True, env=env)
    if done.returncode:
        sys.exit(f"the {part} run of case {case} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child(args)
    cases = {}
    for case in args.runs:
        cases[case] = {part: measure(args, case, part) for part in PARTS}
        step, held = cases[case]["step"], cases[case]["held"]
        print(f"{case:11s} peak {step['peak_rss_mb']:8.1f} MB  fwd {step['forward_s']:6.2f} s  "
              f"bwd {step['backward_s']:6.2f} s  held {held['held_mib']:7.1f} MiB "
              f"(vjps {held['held_by_vjps_mib']:.1f}, entries only "
              f"{held['held_only_by_entries_mib']:.1f}, 0/1 float64 "
              f"{held['binary_float64_share']:.1%}; layers {held['held_by_layers_mib']:.1f})")
    store(args.out, args.label, {"blas_threads": BLAS_THREADS, "cases": cases})
    return 0


def store(out: Path, label, result):
    """Put ``result``, with the BLAS, machine, Python and numpy it ran on, under
    ``label`` in the JSON file ``out``, keeping the file's other labels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"blas": f"{blas.get('name')} {blas.get('version')}",
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(), "numpy": np.__version__, **result}
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[label] = result
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {label} to {out}")


if __name__ == "__main__":
    sys.exit(main())
