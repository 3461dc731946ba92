import numpy as np
import pytest

from spikedrive import autodiff as ad
from spikedrive import kernels
from spikedrive.errors import ArgError, ShapeError
from spikedrive.kernels import (ConvKernel, OpCounter, binary_matmul, dense_conv2d,
                                dense_matmul, event_conv2d, event_matmul,
                                hadamard_mask, sum_columns)
from spikedrive.tensors import DenseTensor, IntTensor, SpikeTensor


def naive_matmul(a, b):
    """Second, independently coded matmul."""
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, kern: ConvKernel):
    """Direct sliding-window convolution (gather form)."""
    c_in, h, w = x.shape
    k, p, st = kern.k, kern.padding, kern.stride
    ho = (h + 2 * p - k) // st + 1
    wo = (w + 2 * p - k) // st + 1
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    cig = kern.weights.shape[1]
    og = kern.c_out // kern.groups
    out = np.zeros((kern.c_out, ho, wo))
    for o in range(kern.c_out):
        g = o // og
        for oy in range(ho):
            for ox in range(wo):
                acc = kern.bias[o]
                for ci in range(cig):
                    for ky in range(k):
                        for kx in range(k):
                            acc += kern.weights[o, ci, ky, kx] * \
                                xp[g * cig + ci, oy * st + ky, ox * st + kx]
                out[o, oy, ox] = acc
    return out


def random_spikes(rng, shape, density=None):
    density = rng.uniform(0.05, 0.95) if density is None else density
    return SpikeTensor((rng.random(shape) < density).astype(np.uint8))


class TestDenseOracles:
    def test_one_by_one(self):
        assert dense_matmul(DenseTensor([[2.0]]), DenseTensor([[3.0]])).data[0, 0] == 6.0

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (4, 4))
        out = dense_matmul(DenseTensor(np.eye(4)), DenseTensor(a))
        assert np.allclose(out.data, a)

    def test_matmul_matches_independent_naive_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(0, 1, (4, 4))
            b = rng.normal(0, 1, (4, 4))
            got = dense_matmul(DenseTensor(a), DenseTensor(b)).data
            assert np.allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_conv_matches_independent_naive_loop(self):
        rng = np.random.default_rng(2)
        for k, stride in ((1, 1), (3, 1), (3, 2), (7, 1), (7, 2)):
            x = rng.normal(0, 1, (2, 9, 9))
            kern = ConvKernel(weights=rng.normal(0, 1, (3, 2, k, k)),
                              bias=rng.normal(0, 1, 3), stride=stride)
            got = dense_conv2d(DenseTensor(x), kern).data
            assert np.allclose(got, naive_conv2d(x, kern), atol=1e-10)

    def test_grouped_conv_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (4, 6, 6))
        kern = ConvKernel(weights=rng.normal(0, 1, (4, 1, 3, 3)), groups=4)
        got = dense_conv2d(DenseTensor(x), kern).data
        assert np.allclose(got, naive_conv2d(x, kern), atol=1e-10)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense_matmul(DenseTensor(np.zeros((2, 3))), DenseTensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            dense_conv2d(DenseTensor(np.zeros((2, 4, 4))),
                         ConvKernel(weights=np.zeros((1, 3, 3, 3))))

    @pytest.mark.parametrize("groups", [2, 0, -2])
    def test_groups_must_divide_the_output_channels(self, groups):
        with pytest.raises(ShapeError, match="groups"):
            ConvKernel(weights=np.ones((3, 2, 3, 3)), groups=groups)
        with pytest.raises(ShapeError, match="groups"):
            kernels.conv2d_raw(np.ones((1, 4, 4, 4)), np.ones((3, 2, 3, 3)), None, 1, 1, groups)


class TestEventMatmul:
    def test_identity_pattern_gathers_rows(self):
        rng = np.random.default_rng(4)
        w = DenseTensor(rng.normal(0, 1, (5, 7)))
        s = SpikeTensor(np.eye(5, dtype=np.uint8))
        assert np.allclose(event_matmul(s, w).data, w.data, atol=1e-6)

    def test_all_zero_input(self):
        w = DenseTensor(np.random.default_rng(5).normal(0, 1, (4, 3)))
        out = event_matmul(SpikeTensor(np.zeros((2, 4))), w)
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_exact_on_integer_weights(self):
        rng = np.random.default_rng(6)
        s = random_spikes(rng, (16, 32))
        w = DenseTensor(rng.integers(-7, 8, (32, 8)).astype(np.float64))
        dense = dense_matmul(DenseTensor(s.data.astype(np.float64)), w)
        assert np.array_equal(event_matmul(s, w).data, dense.data)

    def test_close_on_float_weights(self):
        rng = np.random.default_rng(7)
        s = random_spikes(rng, (16, 32))
        w = DenseTensor(rng.normal(0, 1, (32, 8)))
        dense = dense_matmul(DenseTensor(s.data.astype(np.float64)), w)
        err = np.abs(event_matmul(s, w).data - dense.data)
        scale = np.maximum(np.abs(dense.data), 1.0)
        assert (err / scale).max() < 1e-6

    def test_only_spikes_are_taken(self):
        w = DenseTensor(np.ones((4, 3)))
        for s in (np.eye(4), DenseTensor(np.eye(4)), IntTensor(np.eye(4))):
            with pytest.raises(ArgError, match="^s must be a SpikeTensor"):
                event_matmul(s, w)

    def test_counter_reports_events_times_fanout(self):
        rng = np.random.default_rng(8)
        s = random_spikes(rng, (6, 9))
        w = DenseTensor(rng.normal(0, 1, (9, 4)))
        counter = OpCounter()
        event_matmul(s, w, counter=counter)
        assert counter.adds == int(s.data.sum()) * 4


class TestBinaryMatmul:
    def test_identity(self):
        eye = SpikeTensor(np.eye(2, dtype=np.uint8))
        assert np.array_equal(binary_matmul(eye, eye).data, np.eye(2, dtype=np.int64))

    def test_all_ones_counts_inner_dim(self):
        a = SpikeTensor(np.ones((2, 3), dtype=np.uint8))
        b = SpikeTensor(np.ones((3, 2), dtype=np.uint8))
        assert np.array_equal(binary_matmul(a, b).data, np.full((2, 2), 3))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = random_spikes(rng, (8, 8))
            b = random_spikes(rng, (8, 8))
            want = naive_matmul(a.data.astype(float), b.data.astype(float))
            got = binary_matmul(a, b)
            assert isinstance(got, IntTensor)
            assert np.array_equal(got.data, want.astype(np.int64))

    def test_bounded_by_inner_dim(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n, k, m = rng.integers(1, 12, 3)
            out = binary_matmul(random_spikes(rng, (n, k)), random_spikes(rng, (k, m)))
            assert out.data.max(initial=0) <= k


class TestEventConv:
    def test_identity_1x1(self):
        rng = np.random.default_rng(11)
        s = random_spikes(rng, (1, 5, 5))
        kern = ConvKernel(weights=np.ones((1, 1, 1, 1)))
        assert np.array_equal(event_conv2d(s, kern).data, s.data.astype(np.float64))

    def test_zero_input_gives_bias_map(self):
        kern = ConvKernel(weights=np.ones((2, 1, 3, 3)), bias=np.array([1.5, -2.0]))
        out = event_conv2d(SpikeTensor(np.zeros((1, 4, 4))), kern)
        assert np.allclose(out.data[0], 1.5) and np.allclose(out.data[1], -2.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        s = random_spikes(rng, (2, 5, 5), density=0.5)
        kern = ConvKernel(weights=rng.normal(0, 1, (3, 2, 3, 3)), bias=rng.normal(0, 1, 3))
        dense = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
        assert np.abs(event_conv2d(s, kern).data - dense.data).max() < 1e-5

    def test_strides_and_large_kernels(self):
        rng = np.random.default_rng(13)
        for k, stride in ((1, 2), (3, 2), (7, 1), (7, 2)):
            s = random_spikes(rng, (3, 10, 10))
            kern = ConvKernel(weights=rng.normal(0, 1, (2, 3, k, k)),
                              bias=rng.normal(0, 1, 2), stride=stride)
            dense = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
            assert np.abs(event_conv2d(s, kern).data - dense.data).max() < 1e-5

    def test_counter_counts_actual_scattered_adds(self):
        rng = np.random.default_rng(14)
        s = random_spikes(rng, (2, 6, 6))
        kern = ConvKernel(weights=rng.normal(0, 1, (3, 2, 3, 3)), stride=1)
        counter = OpCounter()
        event_conv2d(s, kern, counter=counter)
        # independent count: per event, its clipped kernel footprint times c_out
        h = w = 6
        expected = 0
        for _, y, x in zip(*np.nonzero(s.data)):
            for ky in range(3):
                for kx in range(3):
                    oy, ox = y + 1 - ky, x + 1 - kx
                    if 0 <= oy < h and 0 <= ox < w:
                        expected += 3
        assert counter.adds == expected

    def test_only_spikes_are_taken(self):
        x = np.zeros((1, 4, 4))
        x[0, 1, 2] = 2.0  # the dense conv reads a 2 here; a spike cannot be one
        kern = ConvKernel(weights=np.ones((1, 1, 3, 3)))
        for s in (x, DenseTensor(x), IntTensor(x)):
            with pytest.raises(ArgError, match="^s must be a SpikeTensor"):
                event_conv2d(s, kern)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            event_conv2d(SpikeTensor(np.zeros((2, 4, 4))),
                         ConvKernel(weights=np.zeros((1, 3, 3, 3))))


class TestMaskAndColumns:
    def test_mask_with_zeros_and_ones(self):
        rng = np.random.default_rng(15)
        a = random_spikes(rng, (4, 6))
        zeros = SpikeTensor(np.zeros((4, 6)))
        ones = SpikeTensor(np.ones((4, 6)))
        assert np.array_equal(hadamard_mask(a, zeros).data, zeros.data)
        assert hadamard_mask(a, ones) == a

    def test_mask_matches_elementwise_multiply(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            a = random_spikes(rng, (5, 5))
            b = random_spikes(rng, (5, 5))
            assert np.array_equal(hadamard_mask(a, b).data, a.data * b.data)

    def test_sum_columns_trivial(self):
        assert np.array_equal(sum_columns(SpikeTensor(np.zeros((3, 4)))).data,
                              np.zeros((1, 4), dtype=np.int64))
        assert np.array_equal(sum_columns(SpikeTensor(np.ones((3, 4)))).data,
                              np.full((1, 4), 3))

    def test_hydra_identity_on_column_vectors(self):
        # summed mask of two columns equals their scalar product
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            a = random_spikes(rng, (n, 1))
            b = random_spikes(rng, (n, 1))
            masked = hadamard_mask(a, b)
            lhs = sum_columns(masked).data[0, 0]
            rhs = int(a.data[:, 0] @ b.data[:, 0])
            assert lhs == rhs


class TestAutodiffConv:
    """``autodiff.conv2d``: forward against the naive loop, adjoints by the
    dot-product test. The conv is bilinear, so <conv(x, w), g> equals both
    <x, gx> and <w, gw>; the bias adds <b, gb>."""

    C = 4

    def _case(self, rng, k, groups, c_out=None):
        c_out = self.C if c_out is None else c_out
        x = rng.normal(0, 1, (2, self.C, 8, 8))
        w = rng.normal(0, 1, (c_out, self.C // groups, k, k))
        b = rng.normal(0, 1, c_out)
        return x, w, b

    @staticmethod
    def _run(x, w, b, stride, groups):
        tape = ad.Tape()
        xv, wv = ad.Var(x), ad.Var(w)
        bv = None if b is None else ad.Var(b)
        y = ad.conv2d(tape, xv, wv, bv, stride, w.shape[2] // 2, groups)
        assert len(tape) == 1
        return y.data, tape.records[0][2]

    @pytest.mark.parametrize("groups", [1, 2, C])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_forward_matches_naive_loop(self, k, stride, groups):
        rng = np.random.default_rng(100 + 10 * k + stride + groups)
        x, w, b = self._case(rng, k, groups)
        got, _ = self._run(x, w, b, stride, groups)
        kern = ConvKernel(weights=w, bias=b, stride=stride, groups=groups)
        for i in range(x.shape[0]):
            assert np.allclose(got[i], naive_conv2d(x[i], kern), atol=1e-10)

    @pytest.mark.parametrize("groups", [1, 2, C])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_adjoint_dot_product(self, k, stride, groups):
        rng = np.random.default_rng(200 + 10 * k + stride + groups)
        x, w, b = self._case(rng, k, groups)
        y, vjp = self._run(x, w, None, stride, groups)
        g = rng.normal(0, 1, y.shape)
        gx, gw = vjp(g)
        assert gx.shape == x.shape and gw.shape == w.shape
        lhs = np.vdot(y, g)
        assert abs(np.vdot(x, gx) - lhs) <= 1e-10 * abs(lhs)
        assert abs(np.vdot(w, gw) - lhs) <= 1e-10 * abs(lhs)
        yb, vjp = self._run(x, w, b, stride, groups)
        gxb, gwb, gb = vjp(g)
        assert np.array_equal(gxb, gx) and np.array_equal(gwb, gw)
        assert abs(np.vdot(x, gx) + np.vdot(b, gb) - np.vdot(yb, g)) <= 1e-10 * abs(lhs)

    def test_depthwise_multiplier_takes_the_batched_path(self, monkeypatch):
        # groups = C_in with C_out = 2 * C_in is not depthwise: the batched
        # patch matmul must run it, so the depthwise kernel is made to fail
        def refuse(*args):
            raise AssertionError("depthwise path taken")

        monkeypatch.setattr(kernels, "depthwise_conv", refuse)
        rng = np.random.default_rng(300)
        x, w, b = self._case(rng, 3, self.C, c_out=2 * self.C)
        y, vjp = self._run(x, w, b, 1, self.C)
        kern = ConvKernel(weights=w, bias=b, groups=self.C)
        for i in range(x.shape[0]):
            assert np.allclose(y[i], naive_conv2d(x[i], kern), atol=1e-10)
        g = rng.normal(0, 1, y.shape)
        gx, gw, _ = vjp(g)
        lhs = np.vdot(y - b[None, :, None, None], g)
        assert abs(np.vdot(x, gx) - lhs) <= 1e-10 * abs(lhs)
        assert abs(np.vdot(w, gw) - lhs) <= 1e-10 * abs(lhs)

    def test_depthwise_takes_the_depthwise_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("batched path taken")

        monkeypatch.setattr(kernels, "im2col_conv", refuse)
        rng = np.random.default_rng(301)
        x, w, b = self._case(rng, 7, self.C)
        y, _ = self._run(x, w, b, 1, self.C)
        kern = ConvKernel(weights=w, bias=b, groups=self.C)
        assert np.allclose(y[0], naive_conv2d(x[0], kern), atol=1e-10)


    @pytest.mark.parametrize("x_shape,w_shape,padding,groups,match", [
        ((1, 4, 3, 3), (4, 4, 7, 7), 0, 1, "empty"),
        ((1, 4, 8, 8), (4, 3, 3, 3), 1, 1, "channels"),
        ((1, 4, 8, 8), (3, 2, 3, 3), 1, 2, "groups")])
    def test_shape_errors_through_the_tape(self, x_shape, w_shape, padding, groups, match):
        # autodiff.conv2d calls conv2d_core directly, so the checks live there
        with pytest.raises(ShapeError, match=match):
            ad.conv2d(ad.Tape(), ad.Var(np.ones(x_shape)), ad.Var(np.ones(w_shape)), None,
                      1, padding, groups)


class TestEventRouteGroupedStrided:
    """The event route on grouped, depthwise and strided kernels: values
    against the dense route to float64 rounding, and counted additions
    against a per-event loop that finds each event's outputs by scanning
    the output map."""

    C = 4
    # (groups, c_out): two groups, depthwise, and depthwise with multiplier 2
    GROUPINGS = [(2, 4), (C, C), (C, 2 * C)]

    def _case(self, seed, k, stride, groups, c_out):
        rng = np.random.default_rng(seed)
        s = random_spikes(rng, (self.C, 9, 9), density=0.4)
        kern = ConvKernel(weights=rng.normal(0, 1, (c_out, self.C // groups, k, k)),
                          bias=rng.normal(0, 1, c_out), stride=stride, groups=groups)
        return s, kern

    @pytest.mark.parametrize("groups,c_out", GROUPINGS)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_dense_to_float64_rounding(self, k, stride, groups, c_out):
        s, kern = self._case(400 + 10 * k + stride + groups, k, stride, groups, c_out)
        dense = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
        assert np.abs(event_conv2d(s, kern).data - dense.data).max() < 1e-12

    @pytest.mark.parametrize("groups,c_out", GROUPINGS)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_counter_matches_per_event_loop(self, k, stride, groups, c_out):
        s, kern = self._case(500 + 10 * k + stride + groups, k, stride, groups, c_out)
        counter = OpCounter()
        out = event_conv2d(s, kern, counter=counter)
        _, ho, wo = out.shape
        p = kern.padding
        expected = 0
        for _, y, x in zip(*np.nonzero(s.data)):
            for oy in range(ho):
                for ox in range(wo):
                    # the tap of output (oy, ox) that reads input (y, x)
                    ky, kx = y + p - oy * stride, x + p - ox * stride
                    if 0 <= ky < k and 0 <= kx < k:
                        expected += c_out // groups
        assert counter.adds == expected

    def test_matmul_matches_dense_to_float64_rounding(self):
        rng = np.random.default_rng(600)
        for n, d, m in ((16, 32, 8), (1, 96, 40), (50, 7, 3)):
            s = random_spikes(rng, (n, d))
            w = DenseTensor(rng.normal(0, 1, (d, m)))
            dense = dense_matmul(DenseTensor(s.data.astype(np.float64)), w)
            assert np.abs(event_matmul(s, w).data - dense.data).max() < 1e-12

    def test_matmul_does_not_call_event_conv2d(self, monkeypatch):
        # the bench times the two event functions as separate spans
        def refuse(*args):
            raise AssertionError("event_matmul ran through event_conv2d")

        monkeypatch.setattr(kernels, "event_conv2d", refuse)
        rng = np.random.default_rng(601)
        s = random_spikes(rng, (3, 5))
        w = DenseTensor(rng.normal(0, 1, (5, 2)))
        counter = OpCounter()
        assert event_matmul(s, w, counter).shape == (3, 2)
        assert counter.adds == int(s.data.sum()) * 2

    def test_empty_output_is_a_shape_error(self):
        kern = ConvKernel(weights=np.ones((1, 1, 7, 7)), padding=0)
        with pytest.raises(ShapeError):
            event_conv2d(SpikeTensor(np.ones((1, 3, 3))), kern)

    @pytest.mark.parametrize("size, k", [(2, 3), (3, 7), (0, 1)])  # output side 0, -3, 0
    def test_both_routes_refuse_an_output_with_no_positions(self, size, k):
        kern = ConvKernel(weights=np.ones((1, 1, k, k)), padding=0)
        s = np.ones((1, size, 4), dtype=np.uint8)
        for call in (lambda: dense_conv2d(DenseTensor(s.astype(np.float64)), kern),
                     lambda: event_conv2d(SpikeTensor(s), kern)):
            with pytest.raises(ShapeError, match="conv output would be empty"):
                call()

    @pytest.mark.parametrize("n, d, m", [(2, 3, 0), (0, 4, 3)])
    def test_zero_size_matmul_matches_dense(self, n, d, m):
        s = SpikeTensor(np.ones((n, d), dtype=np.uint8))
        w = DenseTensor(np.ones((d, m)))
        counter = OpCounter()
        got = event_matmul(s, w, counter)
        want = dense_matmul(DenseTensor(s.data.astype(np.float64)), w)
        assert got.shape == want.shape == (n, m)
        assert np.array_equal(got.data, want.data) and counter.adds == 0

    def test_zero_output_channels_match_dense(self):
        kern = ConvKernel(weights=np.ones((0, 2, 3, 3)))
        s = SpikeTensor(np.ones((2, 4, 4), dtype=np.uint8))
        counter = OpCounter()
        got = event_conv2d(s, kern, counter)
        want = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
        assert got.shape == want.shape == (0, 4, 4)
        assert counter.adds == 0


class TestScatterBlocks:
    """The event route gathers at most SCATTER_BLOCK weight entries per
    block: tiny blocks give the same values and counts, and a wide fan-out
    stays small in memory. A tap gathers its rows from a contiguous copy or
    from the stored layout, with bit-identical outputs, and integer weights
    match the dense route exactly on small and large maps."""

    C = 4
    GROUPINGS = [(1, 6), (2, 4), (C, C), (C, 2 * C)]

    @pytest.mark.parametrize("groups,c_out", GROUPINGS)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_tiny_blocks_match_dense_with_equal_counts(self, monkeypatch, k, stride,
                                                       groups, c_out):
        rng = np.random.default_rng(700 + 10 * k + stride + groups)
        s = random_spikes(rng, (self.C, 9, 9), density=0.4)
        kern = ConvKernel(weights=rng.normal(0, 1, (c_out, self.C // groups, k, k)),
                          bias=rng.normal(0, 1, c_out), stride=stride, groups=groups)
        whole = OpCounter()
        event_conv2d(s, kern, whole)
        monkeypatch.setattr(kernels, "SCATTER_BLOCK", 5)
        blocked = OpCounter()
        out = event_conv2d(s, kern, blocked)
        dense = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
        assert np.abs(out.data - dense.data).max() < 1e-12
        assert blocked.adds == whole.adds > 0

    def test_tiny_blocks_split_the_gathered_rows(self, monkeypatch):
        sizes = []
        real = kernels._add_runs

        def spy(out, rows, vals):
            sizes.append(vals.size)
            return real(out, rows, vals)

        rng = np.random.default_rng(710)
        s = random_spikes(rng, (6, 5), density=0.5)
        w = DenseTensor(rng.normal(0, 1, (5, 2)))
        whole = OpCounter()
        want = event_matmul(s, w, whole).data
        monkeypatch.setattr(kernels, "SCATTER_BLOCK", 5)
        monkeypatch.setattr(kernels, "_add_runs", spy)
        blocked = OpCounter()
        out = event_matmul(s, w, blocked)
        assert max(sizes) <= 5 and sum(sizes) == int(s.data.sum()) * 2
        assert blocked.adds == whole.adds == int(s.data.sum()) * 2
        assert np.abs(out.data - want).max() < 1e-12
        assert np.abs(out.data - s.data @ w.data).max() < 1e-12

    # (input shape, c_out, k, stride, groups): wide 2x2 maps, a 16x16 map,
    # grouped, depthwise and stride 2
    MAPS = [((24, 2, 2), 24, 3, 1, 1), ((16, 2, 2), 32, 1, 1, 1), ((12, 2, 2), 12, 3, 2, 3),
            ((8, 16, 16), 12, 3, 1, 1), ((8, 16, 16), 8, 7, 1, 8), ((8, 16, 16), 16, 3, 2, 2),
            ((8, 16, 16), 6, 1, 2, 1)]

    @pytest.mark.parametrize("shape,c_out,k,stride,groups", MAPS)
    def test_copied_and_stored_gathers_are_bit_identical(self, monkeypatch, shape, c_out, k,
                                                         stride, groups):
        rng = np.random.default_rng(730 + k + stride + groups)
        s = random_spikes(rng, shape, density=0.4)
        kern = ConvKernel(weights=rng.normal(0, 1, (c_out, shape[0] // groups, k, k)),
                          bias=rng.normal(0, 1, c_out), stride=stride, groups=groups)
        outs, counts = [], []
        for copy in (True, False):
            monkeypatch.setattr(kernels, "_copy_tap", lambda hits, c_in, copy=copy: copy)
            counter = OpCounter()
            outs.append(event_conv2d(s, kern, counter).data)
            counts.append(counter.adds)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("shape,c_out,k,stride,groups", MAPS)
    def test_integer_weights_match_dense_exactly(self, shape, c_out, k, stride, groups):
        rng = np.random.default_rng(740 + k + stride + groups)
        s = random_spikes(rng, shape, density=0.4)
        kern = ConvKernel(weights=rng.integers(-7, 8, (c_out, shape[0] // groups, k, k)),
                          bias=rng.integers(-3, 4, c_out), stride=stride, groups=groups)
        dense = dense_conv2d(DenseTensor(s.data.astype(np.float64)), kern)
        assert np.array_equal(event_conv2d(s, kern).data, dense.data)

    def test_wide_matmul_peak_memory(self):
        import tracemalloc

        rng = np.random.default_rng(720)
        s = random_spikes(rng, (196, 384), density=0.3)
        w = DenseTensor(rng.normal(0, 1, (384, 1536)))
        tracemalloc.start()
        try:
            event_matmul(s, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestSmallMapDepthwise:
    """The two depthwise algorithms, row bands (``depthwise_conv``) and
    the per-channel Toeplitz operator (``toeplitz_conv``), each against the
    naive loop and by the adjoint dot-product test, and the dispatch between
    them: the operator runs iff H*W <= B*k*k."""

    C = 2
    ALGORITHMS = ("depthwise_conv", "toeplitz_conv")
    MAPS = [(n, n) for n in range(1, 10)] + [(1, 9), (9, 2), (3, 7)]

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_both_algorithms_match_naive_and_adjoint(self, k, stride, batch):
        rng = np.random.default_rng(800 + 10 * k + stride + batch)
        for h, w in self.MAPS:
            x = rng.normal(0, 1, (batch, self.C, h, w))
            kern = ConvKernel(weights=rng.normal(0, 1, (self.C, 1, k, k)), stride=stride,
                              groups=self.C)
            want = np.stack([naive_conv2d(xi, kern) for xi in x])
            g = rng.normal(0, 1, want.shape)
            lhs = np.vdot(want, g)
            for name in self.ALGORITHMS:
                y, vjp = getattr(kernels, name)(x, kern.weights, stride, kern.padding)
                assert np.abs(y - want).max() <= 1e-12, (name, h, w)
                gx, gw = vjp(g)
                assert gx.shape == x.shape and gw.shape == kern.weights.shape
                tol = 1e-10 * max(abs(lhs), 1.0)
                assert abs(np.vdot(x, gx) - lhs) <= tol, (name, h, w)
                assert abs(np.vdot(kern.weights, gw) - lhs) <= tol, (name, h, w)

    @staticmethod
    def _refusing(monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(kernels, name, refuse)

    @pytest.mark.parametrize("batch,k,h,w", [
        (1, 3, 3, 3), (1, 3, 3, 4), (1, 7, 7, 7), (1, 7, 7, 8), (2, 3, 3, 6),
        (2, 3, 4, 5), (8, 3, 8, 9), (8, 3, 9, 9), (32, 7, 16, 16), (1, 1, 1, 1),
        (1, 1, 1, 2), (4, 1, 2, 2), (4, 1, 2, 3)])
    def test_dispatch_on_map_size(self, monkeypatch, batch, k, h, w):
        rng = np.random.default_rng(900)
        x = rng.normal(0, 1, (batch, self.C, h, w))
        weights = rng.normal(0, 1, (self.C, 1, k, k))
        runs, skipped = self.ALGORITHMS[::-1] if h * w <= batch * k * k else self.ALGORITHMS
        with monkeypatch.context() as m:
            self._refusing(m, skipped)
            y, vjp = kernels.conv2d_core(x, weights, 1, k // 2, self.C)
            vjp(np.ones_like(y))
        with monkeypatch.context() as m:
            self._refusing(m, runs)
            with pytest.raises(AssertionError, match=runs):
                kernels.conv2d_core(x, weights, 1, k // 2, self.C)

    def test_no_15m_inference_depthwise_takes_the_operator(self, monkeypatch):
        from spikedrive.config import ModelConfig
        from spikedrive.model import build_model

        seen = []
        real = kernels.depthwise_conv

        def record(x, weights, stride, padding):
            seen.append((x.shape, weights.shape[2]))
            return real(x, weights, stride, padding)

        self._refusing(monkeypatch, "toeplitz_conv")
        monkeypatch.setattr(kernels, "depthwise_conv", record)
        model = build_model(ModelConfig(base_channels=32, resolution=224, num_classes=1000,
                                        seed=0))
        model.forward(np.random.default_rng(901).random((1, 3, 224, 224)), timesteps=1)
        assert {k for _, k in seen} == {3, 7}
        assert min(shape[2] for shape, _ in seen) == 14

    def test_channel_blocks_give_identical_results(self, monkeypatch):
        rng = np.random.default_rng(910)
        x = rng.normal(0, 1, (4, 7, 5, 5))
        weights = rng.normal(0, 1, (7, 1, 3, 3))
        g = rng.normal(0, 1, (4, 7, 3, 3))
        y, vjp = kernels.toeplitz_conv(x, weights, 2, 1)
        whole = (y, *vjp(g))
        calls = []
        real = np.matmul

        def spy(*args, **kw):
            calls.append(args[0].shape[0])
            return real(*args, **kw)

        # room for two channels' (25, 9) operators per block: blocks of 2, 2, 2, 1
        monkeypatch.setattr(kernels, "OPERATOR_BLOCK", 2 * 25 * 9 + 1)
        monkeypatch.setattr(kernels.np, "matmul", spy)
        y, vjp = kernels.toeplitz_conv(x, weights, 2, 1)
        assert calls == [2, 2, 2, 1]
        blocked = (y, *vjp(g))
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)

    def test_blocked_operator_peak_memory(self):
        import tracemalloc

        # 64 channels of a 16x16 7x7 conv at B=8 take the operator; all 64
        # (256, 256) operators together would be 32 MB, one block is 8 MB
        rng = np.random.default_rng(920)
        x = rng.normal(0, 1, (8, 64, 16, 16))
        weights = rng.normal(0, 1, (64, 1, 7, 7))
        g = rng.normal(0, 1, x.shape)
        assert 64 * 256 * 256 > kernels.OPERATOR_BLOCK
        tracemalloc.start()
        try:
            y, vjp = kernels.conv2d_core(x, weights, 1, 3, 64)
            vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the operator and the x^T g product of one block, plus the 1 MB maps
        assert peak < 24 * 2 ** 20


class TestKn2row:
    """The output-side lowering (``kn2row_conv``) of ungrouped stride-1 convs
    with k > 1 against the naive loop and by the adjoint dot-product test, and
    the dispatch that gives it those convs with C_out < C_in."""

    MAPS = [(n, n) for n in range(1, 10)] + [(1, 9), (9, 2)]

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("pad_half", [False, True])
    @pytest.mark.parametrize("k", [3, 7])
    def test_matches_naive_and_adjoint(self, k, pad_half, batch):
        rng = np.random.default_rng(1000 + 10 * k + 2 * pad_half + batch)
        padding = k // 2 if pad_half else 0
        runs = 0
        for h, w in self.MAPS:
            if min(h, w) + 2 * padding < k:
                continue
            for c_in, c_out in ((4, 2), (2, 3)):
                x = rng.normal(0, 1, (batch, c_in, h, w))
                kern = ConvKernel(weights=rng.normal(0, 1, (c_out, c_in, k, k)), padding=padding)
                want = np.stack([naive_conv2d(xi, kern) for xi in x])
                y, vjp = kernels.kn2row_conv(x, kern.weights, padding)
                assert y.flags.c_contiguous
                assert np.abs(y - want).max() <= 1e-12, (h, w, c_in, c_out)
                g = rng.normal(0, 1, want.shape)
                gx, gw = vjp(g)
                assert gx.shape == x.shape and gw.shape == kern.weights.shape
                lhs = np.vdot(want, g)
                tol = 1e-10 * max(abs(lhs), 1.0)
                assert abs(np.vdot(x, gx) - lhs) <= tol, (h, w, c_in, c_out)
                assert abs(np.vdot(kern.weights, gw) - lhs) <= tol, (h, w, c_in, c_out)
                runs += 1
        assert runs >= 2

    @staticmethod
    def _refusing(monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(kernels, name, refuse)

    @pytest.mark.parametrize("c_in,c_out,k,stride,groups,runs", [
        (8, 4, 3, 1, 1, "kn2row_conv"), (8, 7, 7, 1, 1, "kn2row_conv"),
        (2, 1, 3, 1, 1, "kn2row_conv"), (8, 8, 3, 1, 1, "im2col_conv"),
        (4, 8, 3, 1, 1, "im2col_conv"), (8, 4, 1, 1, 1, "im2col_conv"),
        (8, 4, 3, 2, 1, "im2col_conv"), (8, 4, 3, 1, 2, "im2col_conv")])
    def test_dispatch_on_channels(self, monkeypatch, c_in, c_out, k, stride, groups, runs):
        rng = np.random.default_rng(1100)
        x = rng.normal(0, 1, (2, c_in, 9, 9))
        weights = rng.normal(0, 1, (c_out, c_in // groups, k, k))
        skipped = ({"kn2row_conv", "im2col_conv"} - {runs}).pop()
        with monkeypatch.context() as m:
            self._refusing(m, skipped)
            y, vjp = kernels.conv2d_core(x, weights, stride, k // 2, groups)
        # an adjoint asked for gx makes one dispatched stride-1 conv from C_out
        # to C_in channels, on g or on its zero-spread map (here both 9x9);
        # one that is not makes none
        calls = []
        with monkeypatch.context() as m:
            for name in TestToyStepTraffic.ALGORITHMS:
                def spy(*args, name=name, real=getattr(kernels, name)):
                    calls.append((name, args[0].shape))
                    return real(*args)
                m.setattr(kernels, name, spy)
            assert vjp(np.ones_like(y), need_x=False)[0] is None and calls == []
            vjp(np.ones_like(y))
        grad = "kn2row_conv" if groups == 1 and k > 1 and c_in < c_out else "im2col_conv"
        assert calls == [(grad, (2, c_out, 9, 9))]
        with monkeypatch.context() as m:
            self._refusing(m, runs)
            with pytest.raises(AssertionError, match=runs):
                kernels.conv2d_core(x, weights, stride, k // 2, groups)

    def test_15m_inference_runs_the_channel_conv_outputs_on_it(self, monkeypatch):
        from spikedrive.config import ModelConfig
        from spikedrive.model import build_model

        seen = []
        real = kernels.kn2row_conv

        def record(x, weights, padding):
            seen.append(weights)
            return real(x, weights, padding)

        monkeypatch.setattr(kernels, "kn2row_conv", record)
        model = build_model(ModelConfig(base_channels=32, resolution=224, num_classes=1000,
                                        seed=0))
        model.forward(np.random.default_rng(902).random((1, 3, 224, 224)), timesteps=1)
        conv2 = [v.data for name, v in model.named_params() if name.endswith("chconv.conv2.w")]
        assert len(conv2) == 4
        assert len(seen) == 4 and all(any(w is c for c in conv2) for w in seen)

    def test_peak_memory_of_the_widest_channel_conv_output(self):
        import tracemalloc

        # the 15M net's stage-1 chconv.conv2: im2col_conv's patch tensor
        # alone is 116 MB here, the stacked-tap product 30 MB
        rng = np.random.default_rng(1300)
        x = (rng.random((1, 128, 112, 112)) < 0.2).astype(np.float64)
        weights = rng.normal(0, 1, (32, 128, 3, 3))
        tracemalloc.start()
        try:
            kernels.conv2d_core(x, weights, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def naive_conv_grads(x, weights, g, stride, padding, groups):
    """gx and gw of a grouped conv by the direct loop over output channels
    and pixels: each g[:, o, oy, ox] scales the window of the padded input
    that the output reads into gw[o], and weights[o] into that window of gx."""
    _, _, h, w = x.shape
    c_out, cig, k, _ = weights.shape
    og = c_out // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros(xp.shape)
    gw = np.zeros(weights.shape)
    for o in range(c_out):
        ch = slice(o // og * cig, (o // og + 1) * cig)
        for oy in range(g.shape[2]):
            for ox in range(g.shape[3]):
                win = (slice(None), ch, slice(oy * stride, oy * stride + k),
                       slice(ox * stride, ox * stride + k))
                go = g[:, o, oy, ox]
                gw[o] += np.tensordot(go, xp[win], axes=(0, 0))
                gxp[win] += go[:, None, None, None] * weights[o]
    return gxp[:, :, padding:padding + h, padding:padding + w], gw


class TestGradientOracle:
    """gx and gw of all four conv algorithms, entry by entry, against the
    direct loop of :func:`naive_conv_grads`, within 1e-12 relative error, at
    strides 1-3: depthwise weights on ``toeplitz_conv``, ``depthwise_conv``
    and ``im2col_conv``; grouped, depthwise-multiplier and ungrouped weights
    (C_out below and above C_in) on ``im2col_conv`` and, ungrouped at stride
    1, ``kn2row_conv``. Every gx is a conv from C_out to C_in channels, so
    each mix also runs another algorithm's forward on g or its spread map."""

    # (C_in, C_out, groups)
    CHANNELS = ((2, 2, 2), (3, 2, 1), (4, 6, 2), (2, 4, 2), (2, 3, 1))

    @staticmethod
    def _algorithms(stride, padding, c_in, c_out, groups):
        yield "im2col_conv", lambda x, w: kernels.im2col_conv(x, w, stride, padding, groups)
        if groups == c_in == c_out:
            for name in ("toeplitz_conv", "depthwise_conv"):
                yield name, lambda x, w, f=getattr(kernels, name): f(x, w, stride, padding)
        elif groups == 1 and stride == 1:
            yield "kn2row_conv", lambda x, w: kernels.kn2row_conv(x, w, padding)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_gradients_match_the_direct_loop(self, k, stride):
        rng = np.random.default_rng(1700 + 10 * k + stride)
        ran = set()
        for h, w in TestSmallMapDepthwise.MAPS:
            for padding in sorted({0, k // 2, k}):
                if min(h, w) + 2 * padding < k:
                    continue
                for c_in, c_out, groups in self.CHANNELS:
                    x = rng.normal(0, 1, (2, c_in, h, w))
                    weights = rng.normal(0, 1, (c_out, c_in // groups, k, k))
                    ho = kernels.conv_output_size(h, k, stride, padding)
                    wo = kernels.conv_output_size(w, k, stride, padding)
                    g = rng.normal(0, 1, (2, c_out, ho, wo))
                    want = naive_conv_grads(x, weights, g, stride, padding, groups)
                    for name, conv in self._algorithms(stride, padding, c_in, c_out, groups):
                        got = conv(x, weights)[1](g)
                        for a, b in zip(got, want):
                            assert a.shape == b.shape
                            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), \
                                (name, h, w, padding)
                        ran.add(name)
        assert ran == {"im2col_conv", "toeplitz_conv", "depthwise_conv"} | \
            ({"kn2row_conv"} if stride == 1 else set())


class TestToyStepTraffic:
    """The convs of one bench ``train_toy`` step (C=8, 32x32, B=32): every
    depthwise conv takes the Toeplitz operator and every ungrouped stride-1
    conv with k > 1 and C_out < C_in takes kn2row. In the backward, every
    conv but the frozen encoding conv makes one dispatched conv for its gx."""

    ALGORITHMS = ("toeplitz_conv", "depthwise_conv", "kn2row_conv", "im2col_conv")

    def test_dispatch_and_adjoints_of_one_step(self, monkeypatch):
        from spikedrive import train
        from spikedrive.config import ModelConfig
        from spikedrive.model import build_model
        from spikedrive.neuron import LIFParams

        model = build_model(ModelConfig(base_channels=8, num_classes=2, resolution=32,
                                        depths=(1, 1, 1, 2, 1), heads=2, seed=3,
                                        timesteps=1, lif=LIFParams(surrogate_window=1.0)))
        data = train.make_blobs(32, resolution=32, classes=2, seed=0)
        calls, convs = [], []
        for name in self.ALGORITHMS:
            def tagged(*args, name=name, real=getattr(kernels, name)):
                calls.append((name, args[1].shape[0]))
                return real(*args)
            monkeypatch.setattr(kernels, name, tagged)
        core = kernels.conv2d_core

        def record(x, weights, stride, padding, groups=1):
            n = len(calls)
            out = core(x, weights, stride, padding, groups)
            convs.append((calls[n][0], x.shape[1], weights.shape, stride, groups))
            return out

        monkeypatch.setattr(ad, "conv2d_core", record)
        tape = ad.Tape()
        loss = train.loss(model.forward(data.images, tape=tape, training=True), data.labels,
                          0.0, tape=tape)
        forward = [name for name, _ in calls]
        assert {n: forward.count(n) for n in set(forward)} == \
            {"toeplitz_conv": 15, "kn2row_conv": 3, "im2col_conv": 44}
        assert len(convs) == len(forward)
        for ran, c_in, (c_out, _, k, _), stride, groups in convs:
            if groups == c_in == c_out:
                assert ran == "toeplitz_conv"
            elif groups == 1 and stride == 1 and k > 1 and c_out < c_in:
                assert ran == "kn2row_conv"
            else:
                assert ran == "im2col_conv"
        ad.backward(tape, loss, params=model.parameters())
        # a gx conv is stride 1 and swaps the channel counts, so the gx of
        # each expanding 3x3 conv and stride-2 downsample takes kn2row
        backward = [name for name, _ in calls[len(forward):]]
        assert {n: backward.count(n) for n in set(backward)} == \
            {"toeplitz_conv": 15, "kn2row_conv": 7, "im2col_conv": 39}
        # no gx conv makes the encoding conv's 3 input channels
        assert all(c_out != 3 for _, c_out in calls[len(forward):])


class TestRowBandDepthwise:
    """``depthwise_conv`` on maps wider than one ``ROW_BLOCK`` column block,
    whose width is not a multiple of it, and with ``ROW_BLOCK`` patched
    small: against the naive loop and by the adjoint dot-product test, with
    and without gx; and the memory it holds on a 15M-net stage-1 map."""

    C = 2
    MAPS = [(17, 17), (37, 37), (20, 37), (37, 20)]

    @staticmethod
    def _check(rng, x, k, stride):
        c = x.shape[1]
        kern = ConvKernel(weights=rng.normal(0, 1, (c, 1, k, k)), stride=stride, groups=c)
        want = np.stack([naive_conv2d(xi, kern) for xi in x])
        y, vjp = kernels.depthwise_conv(x, kern.weights, stride, kern.padding)
        assert np.abs(y - want).max() <= 1e-12
        g = rng.normal(0, 1, want.shape)
        gx, gw = vjp(g)
        assert gx.shape == x.shape and gw.shape == kern.weights.shape
        lhs = np.vdot(want, g)
        tol = 1e-10 * max(abs(lhs), 1.0)
        assert abs(np.vdot(x, gx) - lhs) <= tol
        assert abs(np.vdot(kern.weights, gw) - lhs) <= tol
        gx_none, gw_only = vjp(g, need_x=False)
        assert gx_none is None and np.array_equal(gw_only, gw)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_wide_maps_match_naive_and_adjoint(self, k, stride, batch):
        rng = np.random.default_rng(1400 + 10 * k + stride + batch)
        for h, w in self.MAPS:
            self._check(rng, rng.normal(0, 1, (batch, self.C, h, w)), k, stride)

    def test_column_blocks_match_naive_and_adjoint(self, monkeypatch):
        rng = np.random.default_rng(1500)
        widths = []
        real = np.matmul

        def spy(a, b, **kw):
            widths.append(b.shape[-1])
            return real(a, b, **kw)

        for block in (3, 5):
            monkeypatch.setattr(kernels, "ROW_BLOCK", block)
            for stride in (1, 2, 3):
                for k in (3, 7):
                    x = rng.normal(0, 1, (2, self.C, 11, 13))
                    self._check(rng, x, k, stride)
                    widths.clear()
                    with monkeypatch.context() as m:  # the forward's products only
                        m.setattr(kernels.np, "matmul", spy)
                        kernels.depthwise_conv(x, np.ones((self.C, 1, k, k)), stride, k // 2)
                    wo = kernels.conv_output_size(13, k, stride, k // 2)
                    blocks = [block] * (wo // block) + [wo % block] * (wo % block > 0)
                    assert widths == [n for n in blocks for _ in range(k)]

    def test_large_map_memory(self):
        import tracemalloc

        # the 15M net's stage-1 SepConv: its padded input is 7.1 MB, its output 6.1 MB
        rng = np.random.default_rng(1600)
        x = rng.normal(0, 1, (1, 64, 112, 112))
        weights = rng.normal(0, 1, (64, 1, 7, 7))
        tracemalloc.start()
        try:
            y, vjp = kernels.depthwise_conv(x, weights, 1, 3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the padded input, the output, two 0.5 MB block buffers and the 0.4 MB bands
        assert peak < 16 * 2 ** 20
        # the adjoint keeps x and the weights, allocated before, but no padded copy
        assert kept - y.nbytes < 2 ** 20
        assert vjp(np.ones_like(y))[0].shape == x.shape


class TestConvGeometry:
    """A stride below 1 or a negative padding cannot be computed: every conv
    entry point refuses it with ShapeError, the dense and the event route
    alike."""

    BAD = [(0, 1), (-1, 1), (1, -1), (2, -2)]  # (stride, padding)

    @pytest.mark.parametrize("stride,padding", BAD)
    def test_kernel_refuses(self, stride, padding):
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            ConvKernel(weights=np.ones((2, 1, 3, 3)), stride=stride, padding=padding)

    @pytest.mark.parametrize("stride,padding", BAD)
    def test_array_entry_points_refuse(self, stride, padding):
        x, w = np.ones((1, 2, 6, 6)), np.ones((2, 2, 3, 3))
        calls = [lambda: kernels.conv2d_core(x, w, stride, padding),
                 lambda: kernels.conv2d_raw(x, w, None, stride, padding),
                 lambda: ad.conv2d(None, ad.Var(x), ad.Var(w), None, stride, padding),
                 lambda: ad.conv2d(ad.Tape(), ad.Var(x), ad.Var(w), None, stride, padding)]
        for call in calls:
            with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
                call()

    # the last case's 3 groups do not divide the 2 output channels; the input
    # has the 6 channels the kernel then expects
    @pytest.mark.parametrize(
        "stride,padding,groups,match",
        [(s, p, 1, "stride >= 1 and padding >= 0") for s, p in BAD]
        + [(1, 1, 3, "groups must be a positive divisor of the 2 output channels")],
        ids=[f"{s}-{p}" for s, p in BAD] + ["groups"])
    def test_both_routes_refuse_a_kernel_changed_after_construction(self, stride, padding,
                                                                     groups, match):
        kern = ConvKernel(weights=np.ones((2, 2, 3, 3)))
        kern.stride, kern.padding, kern.groups = stride, padding, groups
        s = np.ones((kern.c_in, 6, 6), dtype=np.uint8)
        for call in (lambda: dense_conv2d(DenseTensor(s.astype(np.float64)), kern),
                     lambda: event_conv2d(SpikeTensor(s), kern)):
            with pytest.raises(ShapeError, match=match):
                call()

    def test_zero_padding_and_large_stride_still_run(self):
        kern = ConvKernel(weights=np.ones((1, 1, 3, 3)), stride=5, padding=0)
        s = np.ones((1, 7, 7), dtype=np.uint8)
        dense = dense_conv2d(DenseTensor(s.astype(np.float64)), kern).data
        assert dense.shape == (1, 1, 1) and dense[0, 0, 0] == 9.0
        assert np.array_equal(event_conv2d(SpikeTensor(s), kern).data, dense)
