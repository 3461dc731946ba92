"""Self-check suites runnable from the CLI: each re-derives its expectations
from an independent route (brute-force loops, finite differences, dense
composition) and compares against the library path."""

from __future__ import annotations

import numpy as np

from . import attention, blocks, energy, kernels
from .autodiff import Tape, Var, backward
from .config import ModelConfig, TrainConfig
from .errors import SpikeDriveError
from .kernels import ConvKernel
from .model import build_model
from .neuron import LIFParams
from .tensors import DenseTensor, IntTensor, SpikeTensor
from .train import loss as ce_loss

__all__ = ["SUITES", "run_suite"]


def _random_kernel(rng, cin, cout, k, stride=1, groups=1) -> ConvKernel:
    return ConvKernel(weights=rng.normal(0, 1, (cout, cin // groups, k, k)),
                      bias=rng.normal(0, 1, cout), stride=stride, groups=groups)


def _cycled_kernel(rng, case: int) -> tuple[ConvKernel, int]:
    """A random kernel with groups 1, 2 and C_in in turn (C_out/G up to 2 when
    grouped, so a depthwise multiplier too), and an input side to run it on."""
    k = int(rng.choice([1, 3, 7]))
    stride = int(rng.choice([1, 2]))
    cin = 2 * int(rng.integers(1, 4))
    groups = (1, 2, cin)[case % 3]
    cout = groups * int(rng.integers(1, 3)) if groups > 1 else int(rng.integers(1, 5))
    kern = _random_kernel(rng, cin, cout, k, stride=stride, groups=groups)
    return kern, int(rng.integers(max(k, 3), 10))


def _direct_conv2d(x: np.ndarray, kern: ConvKernel) -> np.ndarray:
    """Gather-form convolution of a (C, H, W) array, one output channel,
    input channel and tap at a time."""
    _, h, w = x.shape
    k, p, st = kern.k, kern.padding, kern.stride
    ho = kernels.conv_output_size(h, k, st, p)
    wo = kernels.conv_output_size(w, k, st, p)
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    cig = kern.weights.shape[1]
    og = kern.c_out // kern.groups
    out = np.empty((kern.c_out, ho, wo))
    for o in range(kern.c_out):
        acc = np.full((ho, wo), kern.bias[o])
        for ci in range(cig):
            src = xp[(o // og) * cig + ci]
            for ky in range(k):
                for kx in range(k):
                    acc += kern.weights[o, ci, ky, kx] * src[ky:ky + st * ho:st,
                                                             kx:kx + st * wo:st]
        out[o] = acc
    return out


def suite_kernels(cases: int = 200, seed: int = 7):
    rng = np.random.default_rng(seed)
    lines = []
    worst_mm = 0.0
    for _ in range(cases):
        n, kdim, m = rng.integers(1, 24, size=3)
        s = SpikeTensor((rng.random((n, kdim)) < rng.uniform(0.05, 0.9)).astype(np.uint8))
        w_int = DenseTensor(rng.integers(-4, 5, size=(kdim, m)).astype(np.float64))
        if not np.array_equal(kernels.event_matmul(s, w_int).data,
                              kernels.dense_matmul(DenseTensor(s.data.astype(float)), w_int).data):
            return False, ["event_matmul diverged from dense oracle on integer weights"]
        w = DenseTensor(rng.normal(0, 1, (kdim, m)))
        diff = np.abs(kernels.event_matmul(s, w).data
                      - kernels.dense_matmul(DenseTensor(s.data.astype(float)), w).data).max()
        worst_mm = max(worst_mm, float(diff))
    if worst_mm > 1e-5:
        return False, [f"event_matmul float deviation {worst_mm:.2e} > 1e-5"]
    lines.append(f"event_matmul vs dense oracle: {cases} cases, max |diff| {worst_mm:.2e}")

    worst_conv = 0.0
    for case in range(cases):
        kern, h = _cycled_kernel(rng, case)
        s = SpikeTensor((rng.random((kern.c_in, h, h)) < 0.4).astype(np.uint8))
        diff = np.abs(kernels.event_conv2d(s, kern).data - kernels.dense_conv2d(
            DenseTensor(s.data.astype(float)), kern).data).max()
        worst_conv = max(worst_conv, float(diff))
    if worst_conv > 1e-5:
        return False, [f"event_conv2d deviation {worst_conv:.2e} > 1e-5"]
    lines.append(f"event_conv2d vs dense oracle (groups 1, 2, C): {cases} cases, "
                 f"max |diff| {worst_conv:.2e}")

    # both dense algorithms (depthwise and batched patch matmul) against a
    # direct loop, at groups 1, 2 and C, with a depthwise multiplier too
    worst_dense = 0.0
    for case in range(cases):
        kern, h = _cycled_kernel(rng, case)
        x = rng.normal(0, 1, (kern.c_in, h, h))
        diff = np.abs(kernels.dense_conv2d(DenseTensor(x), kern).data
                      - _direct_conv2d(x, kern)).max()
        worst_dense = max(worst_dense, float(diff))
    if worst_dense > 1e-10:
        return False, [f"dense_conv2d deviation {worst_dense:.2e} > 1e-10"]
    lines.append(f"dense_conv2d vs direct loop (groups 1, 2, C): {cases} cases, "
                 f"max |diff| {worst_dense:.2e}")

    for _ in range(cases):
        a = SpikeTensor((rng.random((6, 5)) < 0.5).astype(np.uint8))
        b = SpikeTensor((rng.random((5, 7)) < 0.5).astype(np.uint8))
        want = np.zeros((6, 7), dtype=np.int64)
        for i in range(6):
            for j in range(7):
                for kk in range(5):
                    want[i, j] += int(a.data[i, kk]) * int(b.data[kk, j])
        if not np.array_equal(kernels.binary_matmul(a, b).data, want):
            return False, ["binary_matmul diverged from the triple-loop oracle"]
    lines.append(f"binary_matmul vs triple-loop oracle: {cases} cases exact")
    return True, lines


def suite_sdsa(seed: int = 11):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(500):
        n, d = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        q, k, v = (SpikeTensor((rng.random((n, d)) < 0.5).astype(np.uint8)) for _ in range(3))
        qi, ki, vi = (z.data.astype(np.int64) for z in (q, k, v))
        left = qi @ (ki.T @ vi)
        right = (qi @ ki.T) @ vi
        if not np.array_equal(left, right):
            return False, ["matrix-product associativity violated"]
        thr = float(rng.uniform(0.1, 3.0))
        got = attention.sdsa3(q, k, v, threshold=thr).data
        want = (left >= thr).astype(np.uint8)
        if not np.array_equal(got, want):
            return False, ["sdsa3 diverged from the direct-formula oracle"]
    lines.append("sdsa3 associativity + formula oracle: 500 cases exact")
    for _ in range(200):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        q, k, v = (SpikeTensor((rng.random((n, d)) < 0.5).astype(np.uint8)) for _ in range(3))
        m1 = attention.sdsa1(q, k, v).data
        gate = ((k.data & v.data).sum(axis=0, keepdims=True) >= 1.0).astype(np.uint8)
        if not np.array_equal(m1, q.data & gate):
            return False, ["sdsa1 diverged from the formula oracle"]
        m2 = attention.sdsa2(q, v).data
        gate2 = (q.data.sum(axis=0, keepdims=True) >= 1.0).astype(np.uint8)
        if not np.array_equal(m2, gate2 & v.data):
            return False, ["sdsa2 diverged from the formula oracle"]
    lines.append("sdsa1/sdsa2 formula oracles: 200 cases exact")
    return True, lines


def suite_blocks(seed: int = 13):
    rng = np.random.default_rng(seed)
    lines = []
    lif = LIFParams()
    block = blocks.ConvBlock(rng, 6, lif, "MS", name="chk")
    for conv in (block.token.pw2, block.channel.conv2):
        conv.w.data = np.zeros_like(conv.w.data)
    u = DenseTensor(rng.normal(0, 1, (6, 8, 8)))
    out = block.apply(u)
    if not np.allclose(out.data, u.data, atol=1e-12):
        return False, ["zeroed MS conv block is not the identity"]
    lines.append("MS conv block with zeroed branch tails: exact identity")

    for _ in range(20):
        k3 = _random_kernel(rng, 4, 4, 3)
        k1 = _random_kernel(rng, 4, 4, 1)
        folded = blocks.repconv_fold(k3, k1, identity_flag=True)
        x = DenseTensor(rng.normal(0, 1, (4, 6, 6)))
        want = (kernels.dense_conv2d(x, k3).data + kernels.dense_conv2d(x, k1).data
                + x.data)
        got = kernels.dense_conv2d(x, folded).data
        if np.abs(got - want).max() > 1e-5:
            return False, ["repconv_fold output diverges from the branch sum"]
    lines.append("repconv_fold vs unfolded branch sum: 20 cases within 1e-5")

    ones = SpikeTensor(np.ones((2, 2), dtype=np.uint8))
    sew = blocks.apply_shortcut("SEW", ones, ones)
    if not isinstance(sew, IntTensor) or sew.data.max() != 2:
        return False, ["SEW shortcut failed to produce integer sums"]
    lines.append("SEW shortcut emits integer values > 1")
    return True, lines


def suite_energy():
    lines = []
    checks = [
        (energy.flops_conv(3, 4, 4, 2, 4), 1152),
        (energy.flops_conv(1, 1, 1, 1, 1), 1),
        (energy.flops_conv(7, 112, 112, 3, 32), 59006976),
        (energy.flops_mlp(384, 1536), 589824),
        (energy.sdsa_flops(3, 196, 384, 1, [1.0]), 28901376),
        (energy.vsa_flops(1, 1), 8),
    ]
    for got, want in checks:
        if got != want:
            return False, [f"FLOPs formula returned {got}, expected {want}"]
    lines.append("FLOPs formulas match hand evaluations exactly")
    rates = energy.load_rate_fixture()
    cfg = ModelConfig(base_channels=48)
    keys = {key for op in energy.charged_ops(cfg) for key in op.rate_keys}
    for key in sorted(keys):
        rates.series(key, 4)  # raises naming the first missing (layer, t)
    extra = sorted(set(rates.layers()) - keys)
    if extra or len(rates.entries) != 4 * len(keys):
        return False, lines + [f"fixture holds {len(rates.entries)} rates, expected "
                               f"{4 * len(keys)}; layers no op charges: {extra}"]
    lines.append(f"fixture holds one rate per rate key ({len(keys)}) and t = 1..4")
    total = energy.estimate_energy(cfg, rates, timesteps=4).total_mj
    lines.append(f"31M-scale fixture estimate at T=4: {total:.3f} mJ")
    if not (total > 0):
        return False, lines
    return True, lines


def suite_gradcheck(samples: int = 40, seed: int = 5):
    cfg = ModelConfig(base_channels=4, num_classes=3, in_channels=2, resolution=16,
                      timesteps=2, depths=(1, 0, 1, 1, 1), heads=2, seed=seed)
    model = build_model(cfg)
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (2, 2, 16, 16))
    y = rng.integers(0, 3, size=2)

    def loss_value():
        return float(ce_loss(model.forward(x, training=False, smooth=True), y).data)

    tape = Tape()
    model.zero_grad()
    logits = model.forward(x, tape=tape, training=False, smooth=True)
    backward(tape, ce_loss(logits, y, tape=tape), params=model.parameters())

    params = model.parameters()
    worst = 0.0
    h = 1e-6
    for _ in range(samples):
        p = params[int(rng.integers(0, len(params)))]
        idx = np.unravel_index(int(rng.integers(0, p.data.size)), p.data.shape)
        orig = p.data[idx]
        p.data = p.data.copy()
        p.data[idx] = orig + h
        up = loss_value()
        p.data[idx] = orig - h
        down = loss_value()
        p.data[idx] = orig
        fd = (up - down) / (2 * h)
        ad_g = p.grad[idx]
        rel = abs(ad_g - fd) / max(abs(ad_g), abs(fd), 1.0)
        worst = max(worst, rel)
    ok = worst <= 1e-4
    return ok, [f"gradcheck max relative error {worst:.2e} over {samples} parameters "
                f"({'<=' if ok else '>'} 1e-4)"]


SUITES = {
    "kernels": suite_kernels,
    "sdsa": suite_sdsa,
    "blocks": suite_blocks,
    "energy": suite_energy,
    "gradcheck": suite_gradcheck,
}


def run_suite(name: str, log=print) -> bool:
    names = list(SUITES) if name == "all" else [name]
    if any(n not in SUITES for n in names):
        raise SpikeDriveError(f"unknown suite {name!r}; choose from "
                              f"{', '.join([*SUITES, 'all'])}")
    all_ok = True
    for n in names:
        try:
            ok, lines = SUITES[n]()
        except SpikeDriveError as exc:
            ok, lines = False, [f"error: {exc}"]
        for line in lines:
            log(f"[{n}] {line}")
        log(f"[{n}] {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return all_ok
