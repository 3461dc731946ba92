"""The three benchmark workloads. Each is a closed loop with one client: the
runner asks for request ``rid``'s input (``prepare``, untimed), times the
request, then checks its output (``check``, untimed). ``finish`` runs the
checks that need the whole run. Inputs depend only on the workload seed.

The workloads drive spikedrive through its public functions, looked up on
the module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import time

import numpy as np

from spikedrive import attention, blocks, energy, instrument, kernels, train
from spikedrive import autodiff as ad
from spikedrive.config import ModelConfig
from spikedrive.model import build_model
from spikedrive.neuron import LIFParams
from spikedrive.tensors import DenseTensor, SpikeTensor

from tracer import discover_layers

EVENT_TOL = 1e-5  # event vs dense route, the library's own oracle bound
WARMUP_RID = 2**31  # input stream of the untimed warm-up request


class Checks:
    """Counts each output check run and the requests that failed one."""

    def __init__(self):
        self.runs: dict[str, int] = {}
        self.failed: set[int] = set()
        self.notes: list[str] = []

    def __call__(self, name: str, rid: int, ok: bool, detail: str = ""):
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.failed.add(rid)
            self.notes.append(f"{name} failed on request {rid}: {detail}")


class Workload:
    kinds: tuple[str, ...]
    # end-to-end slot -> (request kind, or None for the mean of the per-kind
    #                     medians; timed part, or None for the whole request)
    slots: dict[str, tuple[str, str | None]]

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.checks = Checks()
        self.values: dict[str, float] = {}  # per-layer values the workload knows itself

    def kind(self, rid: int) -> str:
        return self.kinds[rid % len(self.kinds)]

    def warmup(self):
        pass

    def finish(self, traced: bool):
        pass


# ---------------------------------------------------------------------------


class TrainToy(Workload):
    """T=1 training steps of the criterion-9 net on B=32 make_blobs batches."""

    kinds = ("step",)
    slots = {"request_p50_s": ("step", None), "part_b_p50_s": ("step", "fwd"),
             "part_c_p50_s": ("step", "bwd")}
    LR = 1e-2
    REPLAY = 3
    WARMUP = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cfg = ModelConfig(base_channels=4 if tiny else 8, num_classes=2,
                               resolution=16 if tiny else 32, depths=(1, 1, 1, 2, 1),
                               heads=2, seed=3, timesteps=1,
                               lif=LIFParams(surrogate_window=1.0))
        self.batch = 8 if tiny else 32
        self.n_batches = 2 if tiny else 8
        self.losses: dict[int, float] = {}

    def _fresh(self):
        model = build_model(self.cfg)
        return model, train.OptimState(lr=self.LR), model.parameters()

    def setup(self):
        self.data = train.make_blobs(self.batch * self.n_batches,
                                     resolution=self.cfg.resolution, classes=2, seed=self.seed)
        self.model, self.optim, self.params = self._fresh()

    def prepare(self, rid):
        j = (rid % self.n_batches) * self.batch
        return self.data.images[j:j + self.batch], self.data.labels[j:j + self.batch]

    @staticmethod
    def _step(model, optim, params, x, y):
        t0 = time.perf_counter()
        tape = ad.Tape()
        model.zero_grad()
        logits = model.forward(x, tape=tape, training=True)
        loss = train.loss(logits, y, 0.0, tape=tape)
        t1 = time.perf_counter()
        ad.backward(tape, loss, params=params)
        train.step(optim, params)
        t2 = time.perf_counter()
        return float(loss.data), {"fwd": t1 - t0, "bwd": t2 - t1}, len(y)

    def warmup(self):
        # steps on a throwaway model: the first steps of a process run up to
        # half slower while the allocator settles
        model, optim, params = self._fresh()
        for rid in range(self.WARMUP):
            self._step(model, optim, params, *self.prepare(rid))

    def request(self, rid, inp):
        return self._step(self.model, self.optim, self.params, *inp)

    def check(self, rid, inp, out):
        self.checks("train.loss_finite", rid, math.isfinite(out), f"loss {out}")
        self.losses[rid] = out

    def finish(self, traced):
        model, optim, params = self._fresh()
        for rid in sorted(self.losses)[:self.REPLAY]:
            loss = self._step(model, optim, params, *self.prepare(rid))[0]
            self.checks("train.replay_identical", rid, loss == self.losses[rid],
                        f"replayed loss {loss!r} != {self.losses[rid]!r}")
        if traced:
            probe = instrument.Probe()
            self.model.forward(self.prepare(0)[0], probe=probe)
            self.values["model.mean_firing_rate"] = _mean_rate(
                (e.layer, e.rate) for e in probe.entries)


def _mean_rate(pairs) -> float:
    """Mean input firing rate of the spike-driven ops (the raw-pixel
    encoding conv reads at rate 1 and is left out)."""
    rates = [r for layer, r in pairs if layer != "stage1.ds1"]
    return float(np.mean(rates)) if rates else 0.0


# ---------------------------------------------------------------------------


class Infer15M(Workload):
    """The 15M net at 224x224, B=1, no tape: plain T=1, plain T=4 and a
    profiled T=1 request (record_rates + estimate_energy) per cycle."""

    kinds = ("t1", "t4", "profile")
    slots = {"request_p50_s": ("t1", None), "part_b_p50_s": ("t4", None),
             "part_c_p50_s": ("profile", None)}

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cfg = ModelConfig(base_channels=4 if tiny else 32,
                               resolution=16 if tiny else 224,
                               num_classes=10 if tiny else 1000, seed=0)
        self.first_profile = None
        self.replayed = False

    def setup(self):
        self.model = build_model(self.cfg)
        # record_rates returns only the rates; keep the logits of the forward
        # it runs so the profiled request's output can be checked too
        forward = self.model.forward

        def capture(*args, **kwargs):
            self._last = forward(*args, **kwargs)
            return self._last

        self.model.forward = capture

    def _image(self, rid):
        rng = np.random.default_rng([self.seed, rid])
        return rng.random((1, self.cfg.in_channels, self.cfg.resolution, self.cfg.resolution))

    def warmup(self):
        self.model.forward(self._image(WARMUP_RID), timesteps=1)

    def prepare(self, rid):
        return self._image(rid)

    def request(self, rid, x):
        kind = self.kind(rid)
        if kind == "profile":
            rates = energy.record_rates(self.model, x, timesteps=1)
            report = energy.estimate_energy(self.cfg, rates, 1)
            return (self._last.data, rates, report), {}, 1
        return self.model.forward(x, timesteps=1 if kind == "t1" else 4).data, {}, 1

    def _plain_t1(self, x):
        return self.model.forward(x, timesteps=1).data

    def check(self, rid, x, out):
        kind = self.kind(rid)
        logits = out[0] if kind == "profile" else out
        self.checks("infer.logits_finite", rid, bool(np.isfinite(logits).all()))
        if kind == "t1" and not self.replayed:
            self.replayed = True
            self.checks("infer.replay_identical", rid, np.array_equal(self._plain_t1(x), logits))
        if kind == "profile":
            _, rates, report = out
            again = energy.estimate_energy(self.cfg, rates, 1).total_mj
            self.checks("energy.total_matches_report", rid, again == report.total_mj,
                        f"{again!r} != {report.total_mj!r}")
            self.checks("infer.profile_equals_plain", rid,
                        np.array_equal(self._plain_t1(x), logits))
            if self.first_profile is None:
                self.first_profile = (rates, report)
                self.values["energy.total_mj"] = report.total_mj
                self.values["model.mean_firing_rate"] = _mean_rate(
                    (e.layer, e.rate) for e in rates.entries)


def charged_op_table(cfg, spans, totals, selfs, t1_rids, report):
    """One row per ``energy.charged_ops`` id: wall time (median over the
    traced plain T=1 requests of the summed total and self time of the spans
    that make up the op), input firing rate, FLOPs and energy of the first
    profiled request. Returns (rows, ids with no span)."""
    rows, unmatched = [], []
    by_rid = {rid: [] for rid in t1_rids}
    for i, s in enumerate(spans):
        if s[5] in by_rid and s[6] == "req":
            by_rid[s[5]].append(i)
    energy_rows = {r.layer: r for r in report.rows}
    for op in energy.charged_ops(cfg):
        names = _op_span_names(op.layer)
        per_total, per_self = [], []
        for rid, idx in by_rid.items():
            members = [i for i in idx if _is_member(spans, i, op.layer, names)]
            per_total.append(sum(totals[i] for i in members))
            per_self.append(sum(selfs[i] for i in members))
            if not members:
                unmatched.append(op.layer)
        r = energy_rows[op.layer]
        rows.append({"layer": op.layer, "kind": op.kind, "wall_total_s": float(np.median(per_total)),
                     "wall_self_s": float(np.median(per_self)), "rate": r.rate,
                     "flops": r.flops, "energy_pj": r.energy_pj})
    return rows, sorted(set(unmatched))


def _op_span_names(layer: str) -> set[str]:
    """Layer instances whose spans make up a charged op."""
    prefix, leaf = layer.rsplit(".", 1) if "." in layer else ("", layer)
    if leaf.startswith("ds"):
        return {f"{layer}.conv"}
    if leaf == "dwpw2":
        return {f"{prefix}.dw", f"{prefix}.pw2"}
    if leaf == "qkv":
        return {f"{prefix}.rep_q", f"{prefix}.rep_k", f"{prefix}.rep_v"}
    if leaf == "repconv4":
        return {f"{prefix}.rep4"}
    if leaf == "sdsa":  # the operator: the attention neuron plus the tape ops
        return {f"{prefix}.sn_attn", f"{prefix}.sn_gate"}
    return {layer}


def _is_member(spans, i, layer, names) -> bool:
    s = spans[i]
    if s[0] in names:
        return True
    # tape ops run directly by the block's attention, outside any sub-layer
    parent = spans[s[4]] if s[4] >= 0 else None
    return (layer.endswith(".sdsa") and parent is not None and s[1].startswith("autodiff.")
            and parent[1] == "blocks.TransformerBlock.attend"
            and parent[0] == layer.rsplit(".", 1)[0])


# ---------------------------------------------------------------------------


class EventRoute(Workload):
    """The charged conv/mlp ops and SDSA operators of the 31M config at 32x32
    on the event route, one timestep per request, inputs drawn at the packaged
    fixture's per-layer rates."""

    # pass r runs timestep r mod 4 + 1 of the fixture; t=1 fires about a
    # quarter less than t=2..4, so slots average the per-timestep medians
    kinds = ("t1", "t2", "t3", "t4")
    slots = {"request_p50_s": (None, None), "part_b_p50_s": (None, "stages12"),
             "part_c_p50_s": (None, "stages34")}

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cfg = ModelConfig(base_channels=4 if tiny else 48,
                               resolution=16 if tiny else 32, sdsa_variant=3, seed=0)
        self.maxdiff = 0.0

    def setup(self):
        model = build_model(self.cfg)
        layers = discover_layers(model)
        self.fixture = energy.load_rate_fixture()
        self.plan = _event_plan(self.cfg, layers)

    def prepare(self, rid):
        t = rid % len(self.kinds) + 1
        rng = np.random.default_rng([self.seed, rid])
        inputs = []
        for step in self.plan:
            inputs.append([SpikeTensor(rng.random(shape) < self.fixture.get(key, t))
                           for key, shape in step["inputs"]])
        return inputs

    def request(self, rid, inputs):
        counter = kernels.OpCounter()
        outs, adds = [], []
        parts = {"stages12": 0.0, "stages34": 0.0}
        t_prev = time.perf_counter()
        for step, spk in zip(self.plan, inputs):
            a0 = counter.adds
            kind = step["kind"]
            if kind == "conv":
                out = [kernels.event_conv2d(spk[0], k, counter) for k in step["kernels"]]
            elif kind == "dwpw":
                y = kernels.event_conv2d(spk[0], step["kernels"][0], counter)
                out = [y, kernels.dense_conv2d(y, step["kernels"][1])]
            elif kind == "mlp":
                out = [kernels.event_matmul(spk[0], step["w"], counter)]
            else:
                out = [attention.sdsa3(*spk, threshold=step["threshold"], heads=step["heads"])]
            outs.append(out)
            adds.append(counter.adds - a0)
            now = time.perf_counter()
            parts[step["part"]] += now - t_prev
            t_prev = now
        return (outs, adds), parts, counter.adds

    def check(self, rid, inputs, out):
        outs, adds = out
        worst, bad_counts, sdsa_ok = 0.0, [], True
        events = 0
        model_adds = 0.0
        for step, spk, o, n_adds in zip(self.plan, inputs, outs, adds):
            kind = step["kind"]
            if kind == "sdsa":
                ref = _sdsa_dense(*(s.data for s in spk), step["threshold"], step["heads"])
                sdsa_ok &= np.array_equal(o[0].data, ref)
                continue
            s = spk[0]
            nnz = int(np.count_nonzero(s.data))
            rate = nnz / s.data.size
            events += nnz * len(step["kernels"]) if kind == "conv" else nnz
            model_adds += step["flops"] * rate
            if kind == "mlp":
                ref = kernels.dense_matmul(DenseTensor(s.data), step["w"]).data
                worst = max(worst, float(np.abs(o[0].data - ref).max()))
                exact = nnz * step["w"].shape[1]
            else:
                for kern, y in zip(step["kernels"], o):
                    ref = kernels.dense_conv2d(DenseTensor(s.data), kern).data
                    worst = max(worst, float(np.abs(y.data - ref).max()))
                    if kind == "dwpw":
                        break  # the pointwise half reads a non-binary map
                k = step["kernels"][0]
                exact = nnz * k.c_out if kind == "conv" and k.k == 1 and k.stride == 1 \
                    and k.groups == 1 and len(step["kernels"]) == 1 else None
            if exact is not None and n_adds != exact:
                bad_counts.append(f"{step['layer']}: {n_adds} adds != {exact}")
        self.maxdiff = max(self.maxdiff, worst)
        self.checks("kernels.event_vs_dense", rid, worst <= EVENT_TOL, f"max diff {worst:.3g}")
        self.checks("kernels.adds_exact", rid, not bad_counts, "; ".join(bad_counts[:3]))
        self.checks("attention.sdsa_vs_dense", rid, sdsa_ok)
        if "kernels.events" not in self.values:  # the first pass: repeats exactly per seed
            rates = [float(np.count_nonzero(s.data)) / s.data.size for spk in inputs for s in spk]
            self.values.update({
                "kernels.events": events, "kernels.event_adds": sum(adds),
                "kernels.adds_over_model": sum(adds) / model_adds,
                "model.mean_firing_rate": float(np.mean(rates))})
        self.values["kernels.event_maxdiff"] = self.maxdiff


def _sdsa_dense(q, k, v, threshold, heads):
    """Float reference for variant 3: per head, fire Q (K^T V) >= threshold."""
    n, d = q.shape
    dh = d // heads
    out = np.empty((n, d), dtype=np.uint8)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        prod = q[:, sl].astype(np.float64) @ (k[:, sl].T.astype(np.float64) @ v[:, sl])
        out[:, sl] = prod >= threshold
    return out


def deployed_repconv(rep) -> kernels.ConvKernel:
    """The dense 3x3 kernel ``RepConv.fold`` deploys, composed from the same
    folded parts with one BLAS contraction. ``fold`` itself contracts with an
    unoptimised einsum, about 1.2 s per 384-wide unit, which would make the
    31M set-up take some 45 s."""
    kd, kp = rep.dw.folded_kernel(), rep.pw2.folded_kernel()
    p2 = kp.weights[:, :, 0, 0]
    chain = p2[:, :, None, None] * kd.weights[None, :, 0]
    weights = np.einsum("omuv,mi->oiuv", chain, rep.pw1.data[:, :, 0, 0], optimize=True)
    return kernels.ConvKernel(weights=weights, bias=p2 @ kd.bias + kp.bias, stride=1, padding=1)


def _event_plan(cfg, layers):
    """The charged ops in forward order with their deployed (folded) weights,
    input shapes and fixture rate keys. The encoding conv reads raw pixels
    and is not on the event route."""
    plan = []
    h = cfg.resolution
    for op in energy.charged_ops(cfg):
        inst = layers.get(op.layer)
        prefix = op.layer.rsplit(".", 1)[0]
        part = "stages12" if op.layer.startswith(("stage1.", "stage2.")) else "stages34"
        step = {"layer": op.layer, "part": part, "flops": op.flops}
        if isinstance(inst, blocks.Downsample):
            kern = inst.conv.folded_kernel()
            h_in, h = h, kernels.conv_output_size(h, kern.k, kern.stride, kern.padding)
            if op.kind == "encoding":
                continue
            step.update(kind="conv", kernels=[kern],
                        inputs=[(op.layer, (kern.c_in, h_in, h_in))])
        elif op.kind == "sdsa":
            blk = layers[prefix]
            step.update(kind="sdsa", threshold=blk.sn_attn.params.threshold,
                        heads=cfg.heads,
                        inputs=[(f"{prefix}.{m}", (op.n, op.d)) for m in ("q", "k", "v")])
        elif op.kind == "mlp":
            w = inst.w.data if op.layer == "head.fc" else \
                inst.folded_kernel().weights[:, :, 0, 0].T
            n = 1 if op.layer == "head.fc" else h * h
            step.update(kind="mlp", w=DenseTensor(w), inputs=[(op.layer, (n, w.shape[0]))])
        else:
            leaf = op.layer.rsplit(".", 1)[1]
            if leaf == "dwpw2":
                dw, pw = layers[f"{prefix}.dw"], layers[f"{prefix}.pw2"]
                kerns = [dw.folded_kernel(), pw.folded_kernel()]
                step.update(kind="dwpw", flops=energy.flops_conv_dw(7, h, h, dw.w.shape[0]))
            elif leaf == "qkv":
                blk = layers[prefix]
                kerns = [deployed_repconv(r) for r in (blk.rep_q, blk.rep_k, blk.rep_v)
                         if r is not None]
                step.update(kind="conv")
            elif leaf == "repconv4":
                kerns = [deployed_repconv(layers[prefix].rep4)]
                step.update(kind="conv")
            else:
                kerns = [inst.folded_kernel()]
                step.update(kind="conv")
            step.update(kernels=kerns, inputs=[(op.layer, (kerns[0].c_in, h, h))])
        plan.append(step)
    return plan
