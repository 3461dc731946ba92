"""Time every dense convolution of two fixed runs, by algorithm and shape.

    python scripts/conv_profile.py --label NAME [--src DIR] [--repeats N] [--out FILE]

The two runs are one T=1 forward of the 15M net (224x224, B=1) and one
training step of the toy net (C=8, 32x32, B=32, the shapes of the
benchmark's ``train_toy``), built as the ``15m_224_t1`` and ``toy`` cases of
``profiling.build_case``. Each runs in its own fresh process
(``profiling.run``, BLAS on one thread), once to warm up and then
``--repeats`` times. Every ``kernels.conv2d_core`` call is timed, forward
and adjoint apart, and keyed by run, the algorithm that ran, phase and
shape. A key reports its calls per pass and the minimum over the passes of
their summed time; so does each (run, algorithm, phase) total.

The options, the runner and ``profiling.store`` are described in
``profiling.py``: the result is stored under ``--label`` in the JSON file
``--out`` (default ``BENCH_conv.json`` beside this directory).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import profiling

ALGORITHMS = ("toeplitz_conv", "depthwise_conv", "kn2row_conv", "im2col_conv")
# run -> the profiling case it times
RUNS = {"infer_15m_t1": "15m_224_t1", "train_toy_step": "toy"}


class ConvTimer:
    """Wraps ``conv2d_core`` and the algorithms it dispatches to. Each call's
    wall time (and its adjoint's) is added to ``totals[key]`` of the current
    pass, keyed by the algorithm, the shape and the phase."""

    def __init__(self, kernels, autodiff):
        self.totals = defaultdict(float)
        self.calls = defaultdict(int)
        self._ran = None
        core = kernels.conv2d_core

        def timed_core(x, weights, stride, padding, groups=1):
            t0 = time.perf_counter()
            out, adjoint = core(x, weights, stride, padding, groups)
            key = (self._ran, x.shape, weights.shape, stride, padding, groups)
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

    def passes(self, fn, repeats):
        """Run ``fn`` once untimed, then ``repeats`` times; returns the totals
        of each timed pass and the calls of the last one."""
        fn()
        results = []
        for _ in range(repeats):
            self.totals.clear()
            self.calls.clear()
            fn()
            results.append(dict(self.totals))
        return results, dict(self.calls)


def summarize(run, passes, calls):
    """Rows per key and per (run, algorithm, phase), each with its calls per
    pass and the least summed time over the passes, slowest first."""
    rows, groups = [], defaultdict(list)
    for key in calls:
        algorithm, x, w, stride, padding, groups_, phase = key
        rows.append({"run": run, "algorithm": algorithm, "phase": phase, "x": list(x),
                     "w": list(w), "stride": stride, "padding": padding, "groups": groups_,
                     "calls": calls[key], "min_s": min(p[key] for p in passes)})
        groups[(algorithm, phase)].append(key)
    totals = [{"run": run, "algorithm": algorithm, "phase": phase,
               "calls": sum(calls[k] for k in keys),
               "min_s": min(sum(p[k] for k in keys) for p in passes)}
              for (algorithm, phase), keys in groups.items()]
    slowest = lambda r: -r["min_s"]  # noqa: E731
    return sorted(rows, key=slowest), sorted(totals, key=slowest)


def profile(run, repeats):
    """One process's measurement: the rows and totals of ``run``."""
    from spikedrive import autodiff, kernels, train

    timer = ConvTimer(kernels, autodiff)
    model, params, x, y, timesteps = profiling.build_case(RUNS[run])
    if run == "infer_15m_t1":
        return summarize(run, *timer.passes(lambda: model.forward(x, timesteps=timesteps),
                                            repeats))
    optim = train.OptimState(lr=1e-2)

    def toy_step():
        tape = autodiff.Tape()
        model.zero_grad()
        loss = train.loss(model.forward(x, tape=tape, training=True), y, 0.0, tape=tape)
        autodiff.backward(tape, loss, params=params)
        train.step(optim, params)

    return summarize(run, *timer.passes(toy_step, repeats))


def main(argv=None) -> int:
    args = profiling.parse_args(profiling.options(__doc__, "BENCH_conv.json", repeats=5), argv)
    rows, totals = [], []
    for run in RUNS:
        run_rows, run_totals = profiling.run(args, run, profile, run, args.repeats)
        rows, totals = rows + run_rows, totals + run_totals
    for r in totals:
        print(f"{r['run']:15s} {r['algorithm']:15s} {r['phase']:8s} {r['calls']:4d} calls "
              f"{1e3 * r['min_s']:9.2f} ms")
    profiling.store(args.out, args.label, {"repeats": args.repeats, "totals": totals,
                                           "convs": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
