import itertools

import numpy as np
import pytest

from spikedrive.attention import (SDSAConfig, attend, gen_qkv, merge_heads, sdsa1, sdsa2,
                                  sdsa3, sdsa4, split_heads, vsa_reference)
from spikedrive import autodiff as ad
from spikedrive.autodiff import Tape, Var, backward
from spikedrive.errors import ArgError, ShapeError
from spikedrive.kernels import ConvKernel, conv2d_raw
from spikedrive.neuron import LIFParams
from spikedrive.tensors import DenseTensor, SpikeTensor


def spikes(a):
    return SpikeTensor(np.asarray(a, dtype=np.uint8))


def random_spikes(rng, shape, density=None):
    density = rng.uniform(0.1, 0.9) if density is None else density
    return SpikeTensor((rng.random(shape) < density).astype(np.uint8))


def oracle_sdsa1(q, k, v, u_th=1.0):
    gate = ((k * v).sum(axis=0, keepdims=True) - u_th >= 0).astype(np.uint8)
    return q * gate


def oracle_sdsa2(q, v, u_th=1.0):
    gate = (q.sum(axis=0, keepdims=True) - u_th >= 0).astype(np.uint8)
    return gate * v


def oracle_sdsa3(q, k, v, threshold, heads=1):
    n, d = q.shape
    dh = d // heads
    out = np.zeros((n, d), dtype=np.int64)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qi = q[:, sl].astype(np.int64)
        ki = k[:, sl].astype(np.int64)
        vi = v[:, sl].astype(np.int64)
        out[:, sl] = qi @ (ki.T @ vi)
    return (out - threshold >= 0).astype(np.uint8)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SDSAConfig(variant=5)
        with pytest.raises(ValueError):
            SDSAConfig(heads=0)
        with pytest.raises(ValueError):
            SDSAConfig(variant=3, heads=3, dim=8)
        SDSAConfig(variant=1, heads=3, dim=8)  # mask variants are full-width


class TestSDSA1:
    def test_zero_v_masks_everything(self):
        rng = np.random.default_rng(0)
        q = random_spikes(rng, (4, 6))
        k = random_spikes(rng, (4, 6))
        out = sdsa1(q, k, SpikeTensor(np.zeros((4, 6))))
        assert out.data.sum() == 0

    def test_saturated_gate_passes_q(self):
        rng = np.random.default_rng(1)
        q = random_spikes(rng, (5, 3))
        ones = SpikeTensor(np.ones((5, 3)))
        assert sdsa1(q, ones, ones) == q  # column sums = 5 >= threshold

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q, k, v = (random_spikes(rng, (4, 6)) for _ in range(3))
            got = sdsa1(q, k, v)
            assert np.array_equal(got.data, oracle_sdsa1(q.data, k.data, v.data))

    def test_output_bounded_by_q(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q, k, v = (random_spikes(rng, (6, 4)) for _ in range(3))
            assert np.all(sdsa1(q, k, v).data <= q.data)


class TestSDSA2:
    def test_zero_q_masks_everything(self):
        rng = np.random.default_rng(4)
        v = random_spikes(rng, (4, 6))
        assert sdsa2(SpikeTensor(np.zeros((4, 6))), v).data.sum() == 0

    def test_saturated_columns_pass_v(self):
        rng = np.random.default_rng(5)
        v = random_spikes(rng, (4, 6))
        assert sdsa2(SpikeTensor(np.ones((4, 6))), v) == v

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            q, v = (random_spikes(rng, (4, 6)) for _ in range(2))
            assert np.array_equal(sdsa2(q, v).data, oracle_sdsa2(q.data, v.data))

    def test_independent_of_k(self):
        # the operator has no K input at all; signature enforces the claim
        rng = np.random.default_rng(7)
        q, v = (random_spikes(rng, (5, 5)) for _ in range(2))
        assert sdsa2(q, v) == sdsa2(q, v)


class TestSDSA3:
    def test_zero_k_zero_output(self):
        rng = np.random.default_rng(8)
        q, v = (random_spikes(rng, (4, 4)) for _ in range(2))
        out = sdsa3(q, SpikeTensor(np.zeros((4, 4))), v, threshold=0.5)
        assert out.data.sum() == 0

    def test_identity_case(self):
        eye = spikes(np.eye(2))
        out = sdsa3(eye, eye, eye, threshold=1.0)
        assert np.array_equal(out.data, np.eye(2, dtype=np.uint8))

    def test_associativity_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q, k, v = (random_spikes(rng, (n, d)) for _ in range(3))
            qi, ki, vi = (z.data.astype(np.int64) for z in (q, k, v))
            assert np.array_equal(qi @ (ki.T @ vi), (qi @ ki.T) @ vi)

    def test_matches_oracle_with_heads(self):
        rng = np.random.default_rng(10)
        for heads in (1, 2, 4):
            for _ in range(50):
                q, k, v = (random_spikes(rng, (6, 8)) for _ in range(3))
                thr = float(rng.uniform(0.1, 4))
                got = sdsa3(q, k, v, threshold=thr, heads=heads)
                assert np.array_equal(got.data, oracle_sdsa3(q.data, k.data, v.data,
                                                             thr, heads))

    def test_head_split_then_concat_equals_full_width_when_one_head(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (5, 6))
        assert np.array_equal(merge_heads(split_heads(x, 1)), x)
        q, k, v = (random_spikes(rng, (5, 6)) for _ in range(3))
        assert sdsa3(q, k, v, 0.5, heads=1) == sdsa3(q, k, v, 0.5)


class TestSDSA4:
    def test_equals_sdsa3_at_initialization(self):
        rng = np.random.default_rng(12)
        s, u_th = 0.125, 1.0
        for _ in range(50):
            q, k, v = (random_spikes(rng, (5, 4)) for _ in range(3))
            assert sdsa4(q, k, v, learnable_threshold=s * u_th) == \
                sdsa3(q, k, v, threshold=s * u_th)

    def test_huge_threshold_silences_output(self):
        rng = np.random.default_rng(13)
        q, k, v = (random_spikes(rng, (5, 4), density=0.9) for _ in range(3))
        assert sdsa4(q, k, v, learnable_threshold=1e9).data.sum() == 0

    def test_threshold_sweep_matches_heaviside_pattern(self):
        rng = np.random.default_rng(14)
        q, k, v = (random_spikes(rng, (6, 6), density=0.6) for _ in range(3))
        prod = q.data.astype(np.int64) @ (k.data.astype(np.int64).T
                                          @ v.data.astype(np.int64))
        positives = np.unique(prod[prod > 0])
        if positives.size:
            eps = 0.5
            thr = float(positives.min()) - eps
            got = sdsa4(q, k, v, learnable_threshold=thr)
            assert np.array_equal(got.data, (prod - thr >= 0).astype(np.uint8))


class TestExhaustiveTinySpace:
    def test_all_4096_triples_n2_d2(self):
        patterns = [np.array(bits, dtype=np.uint8).reshape(2, 2)
                    for bits in itertools.product((0, 1), repeat=4)]
        thr = 1.0
        for qa in patterns:
            for ka in patterns:
                for va in patterns:
                    q, k, v = spikes(qa), spikes(ka), spikes(va)
                    assert np.array_equal(sdsa1(q, k, v).data,
                                          oracle_sdsa1(qa, ka, va))
                    assert np.array_equal(sdsa2(q, v).data, oracle_sdsa2(qa, va))
                    assert np.array_equal(sdsa3(q, k, v, thr).data,
                                          oracle_sdsa3(qa, ka, va, thr))
                    assert np.array_equal(sdsa4(q, k, v, thr).data,
                                          oracle_sdsa3(qa, ka, va, thr))


class TestBinaryOutputs:
    def test_all_variants_emit_binary(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            q, k, v = (random_spikes(rng, (7, 4)) for _ in range(3))
            for out in (sdsa1(q, k, v), sdsa2(q, v), sdsa3(q, k, v, 0.125),
                        sdsa4(q, k, v, 0.125)):
                assert set(np.unique(out.data)) <= {0, 1}


def naive_vsa(q, k, v):
    n, d = q.shape
    scores = q @ k.T / np.sqrt(d)
    out = np.zeros_like(v)
    for i in range(n):
        row = np.exp(scores[i] - scores[i].max())
        row /= row.sum()
        out[i] = row @ v
    return out


class TestVSA:
    def test_single_token_returns_v(self):
        rng = np.random.default_rng(16)
        q, k, v = (DenseTensor(rng.normal(0, 1, (1, 4))) for _ in range(3))
        assert np.allclose(vsa_reference(q, k, v).data, v.data)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(17)
        k = DenseTensor(np.tile(rng.normal(0, 1, (1, 4)), (5, 1)))
        q = DenseTensor(rng.normal(0, 1, (5, 4)))
        v = DenseTensor(rng.normal(0, 1, (5, 4)))
        out = vsa_reference(q, k, v)
        assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (5, 1)))

    def test_matches_second_independent_implementation(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            q, k, v = (DenseTensor(rng.normal(0, 1, (3, 4))) for _ in range(3))
            assert np.allclose(vsa_reference(q, k, v).data,
                               naive_vsa(q.data, k.data, v.data), atol=1e-12)


class TestGenQKV:
    def _kernels(self, rng, c):
        return [ConvKernel(weights=rng.normal(0, 0.5, (c, c, 3, 3))) for _ in range(3)]

    def test_zero_membrane_gives_zero_spikes(self):
        rng = np.random.default_rng(19)
        kerns = self._kernels(rng, 3)
        u = DenseTensor(np.zeros((2, 1, 3, 4, 4)))
        for s in gen_qkv(u, *kerns):
            assert s.data.sum() == 0
            assert s.shape == (2, 1, 16, 3)

    def test_saturated_input_with_identity_convs(self):
        c = 2
        eye = np.zeros((c, c, 3, 3))
        for i in range(c):
            eye[i, i, 1, 1] = 1.0
        kerns = [ConvKernel(weights=eye.copy()) for _ in range(3)]
        u = DenseTensor(np.full((1, 1, c, 3, 3), 50.0))
        for s in gen_qkv(u, *kerns):
            assert s.data.min() == 1

    def test_matches_conv_plus_threshold_oracle(self):
        rng = np.random.default_rng(20)
        kerns = self._kernels(rng, 1)
        params = LIFParams()
        u = rng.normal(0, 2, (1, 1, 1, 4, 4))
        q, k, v = gen_qkv(DenseTensor(u), *kerns, params=params)
        for kern, out in zip(kerns, (q, k, v)):
            cur = conv2d_raw(u[0], kern.weights, kern.bias, 1, 1)
            want = (cur - params.u_th >= 0).astype(np.uint8)
            want_tokens = want.reshape(1, 1, 16).transpose(0, 2, 1)  # (B, N, D)
            assert np.array_equal(out.data[0], want_tokens)

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            gen_qkv(DenseTensor(np.zeros((1, 3, 4, 4))), None, None, None)


def _map(tokens, h, w):
    """(B, N, D) tokens -> the (B, D, H, W) map attend takes, N = H*W."""
    b, n, d = tokens.shape
    return tokens.transpose(0, 2, 1).reshape(b, d, h, w)


def _tokens(a):
    """(B, D, H, W) map -> (B, N, D) tokens."""
    b, d = a.shape[:2]
    return a.reshape(b, d, -1).transpose(0, 2, 1)


class TestAttend:
    def _fire(self, thr):
        return lambda z: Var((z.data - thr >= 0).astype(np.float64))

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_batch_rows_match_the_functional_forms(self, variant):
        rng = np.random.default_rng(21)
        for heads in (1, 2, 4):
            q, k, v = ((rng.random((3, 6, 8)) < 0.5).astype(np.float64) for _ in range(3))
            thr = float(rng.uniform(0.5, 3))
            out, ktv, qktv = attend(None, variant, Var(_map(q, 2, 3)),
                                    None if variant == 2 else Var(_map(k, 2, 3)),
                                    Var(_map(v, 2, 3)), heads, self._fire(thr))
            assert (ktv is None) == (qktv is None) == (variant in (1, 2))
            for b in range(3):
                qb, kb, vb = (SpikeTensor(z[b]) for z in (q, k, v))
                want = {1: lambda: sdsa1(qb, kb, vb, thr), 2: lambda: sdsa2(qb, vb, thr),
                        3: lambda: sdsa3(qb, kb, vb, thr, heads),
                        4: lambda: sdsa4(qb, kb, vb, thr, heads)}[variant]()
                assert np.array_equal(_tokens(out.data)[b], want.data)
                if ktv is not None:  # attend returns (Q K^T V)^T per head
                    assert np.array_equal(qktv.data[b].transpose(0, 2, 1), np.stack(
                        [split_heads(q[b], heads)[i] @ split_heads(k[b], heads)[i].T
                         @ split_heads(v[b], heads)[i] for i in range(heads)]))

    def test_records_on_the_tape_and_differentiates(self):
        # smooth stand-in for the neuron: the gradient reaches q, k and v
        rng = np.random.default_rng(22)
        q, k, v = (Var(_map((rng.random((1, 4, 4)) < 0.6).astype(np.float64), 2, 2))
                   for _ in range(3))
        tape = Tape()
        out, _, _ = attend(tape, 3, q, k, v, 2, lambda z: z)
        backward(tape, ad.sum_axes(tape, out, (0, 1, 2, 3), keepdims=False))
        qd, kd, vd = (_tokens(z.data).reshape(4, 2, 2).transpose(1, 0, 2) for z in (q, k, v))
        ones = np.ones((4, 2))
        # d/dQ sum(Q K^T V) = 1 (K^T V)^T per head
        want_q = np.stack([ones @ (kd[i].T @ vd[i]).T for i in range(2)])
        assert np.allclose(_tokens(q.grad).reshape(4, 2, 2).transpose(1, 0, 2), want_q)
        assert k.grad is not None and v.grad is not None

    def test_functional_forms_keep_their_errors(self):
        a = SpikeTensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            sdsa1(a, SpikeTensor(np.ones((2, 4))), a)
        with pytest.raises(ShapeError):
            sdsa2(SpikeTensor(np.ones((2, 3, 4))), SpikeTensor(np.ones((2, 3, 4))))
        with pytest.raises(ShapeError, match="not divisible by 3 heads"):
            sdsa3(a, a, a, heads=3)
        with pytest.raises(ValueError):
            sdsa4(a, a, SpikeTensor(np.ones((3, 5))), 0.5)
        assert sdsa3(a, a, a).data.dtype == np.uint8

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_functional_forms_refuse_a_non_finite_threshold(self, threshold):
        a = SpikeTensor(np.ones((3, 4)))
        calls = (lambda: sdsa1(a, a, a, threshold), lambda: sdsa2(a, a, threshold),
                 lambda: sdsa3(a, a, a, threshold, 2), lambda: sdsa4(a, a, a, threshold, 2))
        for call in calls:
            with pytest.raises(ArgError, match="finite"):
                call()
