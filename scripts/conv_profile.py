"""Time every dense convolution of two fixed runs, by algorithm and shape.

    python scripts/conv_profile.py --label NAME [--src DIR] [--repeats N] [--out FILE]

The two runs are one T=1 forward of the 15M net (224x224, B=1) and one
training step of the toy net (C=8, 32x32, B=32, the shapes of the
benchmark's ``train_toy``), built as the ``15m_224_t1`` and ``toy`` cases of
``memory_profile.build_case``. Each runs once to warm up and then
``--repeats`` times. Every ``kernels.conv2d_core`` call is timed, forward
and adjoint apart, and keyed by run, the algorithm that ran, phase and
shape. A key reports its calls per pass and the minimum over the passes of
their summed time; so does each (run, algorithm, phase) total. BLAS runs on
one thread.

The result is stored under ``--label`` in the JSON file ``--out`` (default
``BENCH_conv.json`` beside this directory), and other labels already in that
file are kept. ``--src`` imports ``spikedrive`` from another checkout's
``src/``, so the same script can time two versions of the library.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
ALGORITHMS = ("toeplitz_conv", "depthwise_conv", "kn2row_conv", "im2col_conv")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="name of this result in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the spikedrive package (default: this checkout's)")
    p.add_argument("--repeats", type=int, default=5, help="timed passes per run (default 5)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_conv.json")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    return args


class ConvTimer:
    """Wraps ``conv2d_core`` and the algorithms it dispatches to. Each call's
    wall time (and its adjoint's) is added to ``totals[key]`` of the current
    pass, keyed by the run, the algorithm, the phase and the shape."""

    def __init__(self, kernels, autodiff):
        self.run = None
        self.totals = defaultdict(float)
        self.calls = defaultdict(int)
        self._ran = None
        core = kernels.conv2d_core

        def timed_core(x, weights, stride, padding, groups=1):
            t0 = time.perf_counter()
            out, adjoint = core(x, weights, stride, padding, groups)
            key = (self.run, self._ran, x.shape, weights.shape, stride, padding, groups)
            self._add(key + ("forward",), time.perf_counter() - t0)

            def timed_adjoint(g, *need):
                t0 = time.perf_counter()
                grads = adjoint(g, *need)
                self._add(key + ("adjoint",), time.perf_counter() - t0)
                return grads

            return out, timed_adjoint

        for name in ALGORITHMS:
            if hasattr(kernels, name):  # older versions lack some algorithms
                setattr(kernels, name, self._tagging(name, getattr(kernels, name)))
        kernels.conv2d_core = autodiff.conv2d_core = timed_core

    def _tagging(self, name, fn):
        def tagged(*args, **kwargs):
            self._ran = name
            return fn(*args, **kwargs)
        return tagged

    def _add(self, key, seconds):
        self.totals[key] += seconds
        self.calls[key] += 1

    def passes(self, run, fn, repeats):
        """Run ``fn`` once untimed, then ``repeats`` times; returns the totals
        of each timed pass and the calls of the last one."""
        self.run = run
        fn()
        results = []
        for _ in range(repeats):
            self.totals.clear()
            self.calls.clear()
            fn()
            results.append(dict(self.totals))
        return results, dict(self.calls)


def summarize(passes, calls):
    """Rows per key and per (run, algorithm, phase), each with its calls per
    pass and the least summed time over the passes, slowest first."""
    rows, groups = [], defaultdict(list)
    for key in calls:
        run, algorithm, x, w, stride, padding, groups_, phase = key
        best = min(p[key] for p in passes)
        rows.append({"run": run, "algorithm": algorithm, "phase": phase, "x": list(x),
                     "w": list(w), "stride": stride, "padding": padding, "groups": groups_,
                     "calls": calls[key], "min_s": best})
        groups[(run, algorithm, phase)].append(key)
    totals = [{"run": run, "algorithm": algorithm, "phase": phase,
               "calls": sum(calls[k] for k in keys),
               "min_s": min(sum(p[k] for k in keys) for p in passes)}
              for (run, algorithm, phase), keys in groups.items()]
    slowest = lambda r: -r["min_s"]  # noqa: E731
    return sorted(rows, key=slowest), sorted(totals, key=slowest)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(args.src.resolve()))
    from memory_profile import build_case, store  # imports numpy: after the BLAS variables
    from spikedrive import autodiff, kernels, train

    timer = ConvTimer(kernels, autodiff)

    big, _, image, _, timesteps = build_case("15m_224_t1")
    rows, totals = summarize(*timer.passes(
        "infer_15m_t1", lambda: big.forward(image, timesteps=timesteps), args.repeats))

    toy, params, images, labels, _ = build_case("toy")
    optim = train.OptimState(lr=1e-2)

    def toy_step():
        tape = autodiff.Tape()
        toy.zero_grad()
        loss = train.loss(toy.forward(images, tape=tape, training=True), labels, 0.0,
                          tape=tape)
        autodiff.backward(tape, loss, params=params)
        train.step(optim, params)

    toy_rows, toy_totals = summarize(*timer.passes("train_toy_step", toy_step, args.repeats))
    rows, totals = rows + toy_rows, totals + toy_totals

    for r in totals:
        print(f"{r['run']:15s} {r['algorithm']:15s} {r['phase']:8s} {r['calls']:4d} calls "
              f"{1e3 * r['min_s']:9.2f} ms")
    store(args.out, args.label, {"repeats": args.repeats, "blas_threads": BLAS_THREADS,
                                 "totals": totals, "convs": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
