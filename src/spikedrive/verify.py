"""Self-check suites runnable from the CLI: each re-derives its expectations
from an independent route (brute-force loops, finite differences, dense
composition) and compares against the library path."""

from __future__ import annotations

import itertools

import numpy as np

from . import attention, blocks, energy, kernels
from .autodiff import Tape, Var, backward, batch_norm, mul, sum_axes
from .config import ModelConfig
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


def suite_kernels():
    cases = 200
    rng = np.random.default_rng(7)
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

    # the dense conv against a direct loop, at groups 1, 2 and C, with a
    # depthwise multiplier too; each depthwise case also runs both depthwise
    # algorithms directly, and each ungrouped stride-1 case with k > 1 both
    # dense ones, whichever one the dispatch picks for its shape
    worst = {"dense_conv2d": 0.0, "depthwise_conv": 0.0, "toeplitz_conv": 0.0,
             "im2col_conv": 0.0, "kn2row_conv": 0.0}
    depthwise_cases = ungrouped_cases = 0
    for case in range(cases):
        kern, h = _cycled_kernel(rng, case)
        x = rng.normal(0, 1, (kern.c_in, h, h))
        want = _direct_conv2d(x, kern)
        got = {"dense_conv2d": kernels.dense_conv2d(DenseTensor(x), kern).data}
        if kern.groups == kern.c_in == kern.c_out:
            depthwise_cases += 1
            runs = {fn.__name__: fn(x[None], kern.weights, kern.stride, kern.padding)
                    for fn in (kernels.depthwise_conv, kernels.toeplitz_conv)}
        elif kern.groups == 1 and kern.stride == 1 and kern.k > 1:
            ungrouped_cases += 1
            runs = {"im2col_conv": kernels.im2col_conv(x[None], kern.weights, 1, kern.padding),
                    "kn2row_conv": kernels.kn2row_conv(x[None], kern.weights, kern.padding)}
        else:
            runs = {}
        for name, (out, _) in runs.items():
            got[name] = out[0] + kern.bias[:, None, None]
        for name, out in got.items():
            worst[name] = max(worst[name], float(np.abs(out - want).max()))
    # fixed depthwise cases wider than one ROW_BLOCK column block, whose
    # output width is not a multiple of it
    wide = np.random.default_rng(8)
    wide_cases = 0
    for (h, w), stride, k in itertools.product(((37, 37), (20, 37)), (1, 2), (3, 7)):
        kern = _random_kernel(wide, 3, 3, k, stride=stride, groups=3)
        x = wide.normal(0, 1, (3, h, w))
        out, _ = kernels.depthwise_conv(x[None], kern.weights, stride, kern.padding)
        diff = np.abs(out[0] + kern.bias[:, None, None] - _direct_conv2d(x, kern)).max()
        worst["depthwise_conv"] = max(worst["depthwise_conv"], float(diff))
        wide_cases += 1
    for name, diff in worst.items():
        if diff > 1e-10:
            return False, [f"{name} deviation {diff:.2e} > 1e-10"]
    lines.append(f"dense_conv2d vs direct loop (groups 1, 2, C): {cases} cases, "
                 f"max |diff| {worst['dense_conv2d']:.2e}")
    lines.append(f"depthwise_conv / toeplitz_conv vs direct loop: {depthwise_cases} "
                 f"depthwise cases each, {wide_cases} wider depthwise_conv cases, max "
                 f"|diff| {worst['depthwise_conv']:.2e} / {worst['toeplitz_conv']:.2e}")
    lines.append(f"im2col_conv / kn2row_conv vs direct loop: {ungrouped_cases} ungrouped "
                 f"stride-1 k > 1 cases each, max |diff| {worst['im2col_conv']:.2e} / "
                 f"{worst['kn2row_conv']:.2e}")

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


def suite_sdsa():
    rng = np.random.default_rng(11)
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


def suite_blocks():
    rng = np.random.default_rng(13)
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


def _fd_error(p: Var, idx, grad: float, loss_value, h: float = 1e-6) -> float:
    """Relative error of ``grad``, the gradient at entry ``idx`` of ``p``,
    against a central difference of ``loss_value()``."""
    orig = p.data[idx]
    p.data[idx] = orig + h
    up = loss_value()
    p.data[idx] = orig - h
    down = loss_value()
    p.data[idx] = orig
    fd = (up - down) / (2 * h)
    return abs(grad - fd) / max(abs(grad), abs(fd), 1.0)


def _batch_norm_gradcheck(rng) -> tuple[float, int]:
    """The training-mode ``batch_norm`` op, with and without the shift, at
    every entry of x (through the batch statistics), gamma and beta. Returns
    the worst relative error and the number of entries."""
    worst, entries = 0.0, 0
    for shift in (True, False):
        x = Var(rng.normal(0.5, 2.0, (3, 4, 5, 5)))
        gamma = Var(rng.normal(1.0, 0.5, 4))
        beta = Var(rng.normal(0.0, 0.5, 4)) if shift else None
        weight = Var(rng.normal(0.0, 1.0, x.shape))
        params = [v for v in (x, gamma, beta) if v is not None]

        def loss(tape=None):
            out = batch_norm(tape, x, gamma, beta)[0]
            return sum_axes(tape, mul(tape, out, weight), (0, 1, 2, 3), keepdims=False)

        tape = Tape()
        grads = backward(tape, loss(tape), params=params)
        for p in params:
            for idx in np.ndindex(p.shape):
                worst = max(worst, _fd_error(p, idx, grads[p][idx], lambda: float(loss().data)))
                entries += 1
    return worst, entries


def suite_gradcheck():
    samples = 40
    cfg = ModelConfig(base_channels=4, num_classes=3, in_channels=2, resolution=16,
                      timesteps=2, depths=(1, 0, 1, 1, 1), heads=2, seed=5)
    model = build_model(cfg)
    rng = np.random.default_rng(5)
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
    for _ in range(samples):
        p = params[int(rng.integers(0, len(params)))]
        idx = np.unravel_index(int(rng.integers(0, p.data.size)), p.data.shape)
        p.data = p.data.copy()
        worst = max(worst, _fd_error(p, idx, p.grad[idx], loss_value))
    bn_worst, bn_entries = _batch_norm_gradcheck(rng)
    lines = [f"gradcheck max relative error {err:.2e} over {what} "
             f"({'<=' if err <= 1e-4 else '>'} 1e-4)"
             for what, err in ((f"{samples} parameters", worst),
                               (f"{bn_entries} entries of training-mode batch_norm", bn_worst))]
    return max(worst, bn_worst) <= 1e-4, lines


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
