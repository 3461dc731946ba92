"""Time the event route on every distinct conv and matmul shape of the 31M net.

    python scripts/event_profile.py --label NAME [--src DIR] [--repeats N] [--out FILE]

The shapes are those of the benchmark's ``event_route`` config,
``ModelConfig(base_channels=48, resolution=32, sdsa_variant=3)``: every
charged conv and mlp op but the raw-pixel encoding conv, derived from
``config.stages`` and the mixers' ``STAGES`` tables as
``energy._mixer_ops`` derives them. A mixer stage's first conv reads its
spikes; a transformer block's Q/K/V convs (one per map the SDSA variant
reads) and its RepConv are folded 3x3 convs; the channel MLP and the head
are matmuls. Ops of one shape form one row: its spikes are drawn at the
mean of their fixture rates (``energy.load_rate_fixture``, t = 1..4), and
it reports the ops per pass, the counted adds and the largest difference
from the dense route of one call, and the least time of one call over
``--repeats`` calls after one untimed call. ``pass_s`` is that time times
the ops, and the sums add it up per function and in all. The whole pass
runs in one fresh process (``profiling.run``, BLAS on one thread).

The options, the runner and ``profiling.store`` are described in
``profiling.py``: the result is stored under ``--label`` in the JSON file
``--out`` (default ``BENCH_event.json`` beside this directory).
"""

from __future__ import annotations

import sys
import time

import numpy as np

import profiling

SEED = 27


def event_shapes(cfg):
    """{shape: layer ids, one per event-route call of a pass}, in forward
    order. A conv shape is ("event_conv2d", C_in, H, C_out, k, stride,
    groups) on an H x H map; a matmul shape is ("event_matmul", N, D, M)."""
    from spikedrive.attention import VARIANTS
    from spikedrive.blocks import ChannelConv, ChannelMLP, SepConv
    from spikedrive.config import stages

    shapes = {}
    size = cfg.resolution
    for i, st in enumerate(stages(cfg)):
        h, dim = st.size, st.dim
        if i:  # the first downsample reads raw pixels
            shapes.setdefault(("event_conv2d", st.c_in, size, dim, st.k, st.stride, 1),
                              []).append(st.ds)
        size = h
        for name in st.blocks:
            if st.kind == "transformer":
                rep = ("event_conv2d", dim, h, dim, 3, 1, 1)
                shapes.setdefault(rep, []).extend(
                    [f"{name}.qkv"] * len(VARIANTS[cfg.sdsa_variant][0]) + [f"{name}.repconv4"])
            for mixer in (SepConv, ChannelConv) if st.kind == "conv" else (ChannelMLP,):
                for key, convs in mixer.STAGES:
                    _, k, c_in, c_out, depthwise = convs[0]  # reads the stage's spikes
                    shape = ("event_matmul", h * h, c_in * dim, c_out * dim) if mixer is ChannelMLP \
                        else ("event_conv2d", c_in * dim, h, c_out * dim, k, 1,
                              c_in * dim if depthwise else 1)
                    shapes.setdefault(shape, []).append(f"{name}.{mixer.NAME}.{key}")
    shapes.setdefault(("event_matmul", 1, cfg.dims[4], cfg.num_classes), []).append("head.fc")
    return shapes


def time_shape(sd, shape, rate, seed, repeats):
    """One row: the counted adds and the largest difference from the dense
    route of one call, and its least time over ``repeats`` calls."""
    kernels = sd.kernels
    rng = np.random.default_rng([SEED, seed])
    if shape[0] == "event_conv2d":
        _, c_in, h, c_out, k, stride, groups = shape
        kern = kernels.ConvKernel(weights=rng.normal(0, 1, (c_out, c_in // groups, k, k)),
                                  bias=rng.normal(0, 1, c_out), stride=stride, groups=groups)
        s = sd.SpikeTensor(rng.random((c_in, h, h)) < rate)
        call = lambda counter=None: kernels.event_conv2d(s, kern, counter)  # noqa: E731
        dense = kernels.dense_conv2d(sd.DenseTensor(s.data), kern)
    else:
        _, n, d, m = shape
        w = sd.DenseTensor(rng.normal(0, 1, (d, m)))
        s = sd.SpikeTensor(rng.random((n, d)) < rate)
        call = lambda counter=None: kernels.event_matmul(s, w, counter)  # noqa: E731
        dense = kernels.dense_matmul(sd.DenseTensor(s.data), w)
    counter = kernels.OpCounter()
    maxdiff = float(np.abs(call(counter).data - dense.data).max(initial=0.0))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return {"adds": counter.adds, "maxdiff": maxdiff, "min_s": best}


def profile(repeats):
    """One process's measurement: the rows of every shape, in forward order,
    and the sums of their ``pass_s``."""
    import spikedrive as sd
    from spikedrive import energy

    cfg = sd.ModelConfig(base_channels=48, resolution=32, sdsa_variant=3)
    fixture = energy.load_rate_fixture()
    rows, sums = [], {"event_conv2d": 0.0, "event_matmul": 0.0}
    for i, (shape, layers) in enumerate(event_shapes(cfg).items()):
        rates = [r for layer in layers for r in fixture.series(layer, 4)]
        rate = sum(rates) / len(rates)
        row = {"function": shape[0], "shape": list(shape[1:]), "ops": len(layers),
               "rate": rate, **time_shape(sd, shape, rate, i, repeats)}
        row["pass_s"] = row["ops"] * row["min_s"]
        sums[shape[0]] += row["pass_s"]
        rows.append(row)
    sums["total"] = sums["event_conv2d"] + sums["event_matmul"]
    return rows, sums


def main(argv=None) -> int:
    args = profiling.parse_args(profiling.options(__doc__, "BENCH_event.json", repeats=7), argv)
    rows, sums = profiling.run(args, "event_pass", profile, args.repeats)
    for row in rows:
        print(f"{row['function']:13s} {str(tuple(row['shape'])):28s} {row['ops']:3d} ops "
              f"rate {row['rate']:.3f} {1e3 * row['min_s']:8.2f} ms")
    print(" ".join(f"{k} {1e3 * v:.1f} ms" for k, v in sums.items()))
    profiling.store(args.out, args.label, {"repeats": args.repeats, "sums_pass_s": sums,
                                           "shapes": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
