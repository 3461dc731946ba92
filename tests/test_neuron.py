import numpy as np
import pytest

from spikedrive import autodiff as ad
from spikedrive.autodiff import Tape, Var
from spikedrive.blocks import SN, ForwardContext
from spikedrive.errors import ShapeError
from spikedrive.neuron import LIFParams, LIFState, lif, lif_step, sn_forward, surrogate_grad
from spikedrive.tensors import DenseTensor


def scalar_lif_sim(xs, u_th=1.0, beta=0.5, v_reset=0.0, s=1.0):
    """Independent scalar simulator of the membrane recurrence."""
    h = v_reset
    spikes = []
    for x in xs:
        u = h + x
        fired = 1 if u - s * u_th >= 0 else 0
        h = v_reset * fired + beta * u * (1 - fired)
        spikes.append(fired)
    return spikes


class TestLIFParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LIFParams(u_th=0.0)
        with pytest.raises(ValueError):
            LIFParams(beta=1.0)
        with pytest.raises(ValueError):
            LIFParams(beta=0.0)
        with pytest.raises(ValueError):
            LIFParams(threshold_scale=0.0)

    def test_default_window_tracks_threshold(self):
        assert LIFParams(u_th=2.0).window == 1.0
        assert LIFParams(u_th=2.0, surrogate_window=0.3).window == 0.3


class TestLifStep:
    def test_fire_and_reset(self):
        p = LIFParams(u_th=1.0, beta=0.5, v_reset=0.0)
        state = LIFState.initial((1,), p)
        s, new = lif_step(p, state, DenseTensor(np.array([1.5])))
        assert s.data[0] == 1
        assert new.h.data[0] == 0.0

    def test_subthreshold_decay(self):
        p = LIFParams(u_th=1.0, beta=0.5, v_reset=0.0)
        s, new = lif_step(p, LIFState.initial((1,), p), DenseTensor(np.array([0.4])))
        assert s.data[0] == 0
        assert new.h.data[0] == pytest.approx(0.2)

    def test_exact_threshold_fires(self):
        p = LIFParams(u_th=1.0)
        s, _ = lif_step(p, LIFState.initial((1,), p), DenseTensor(np.array([1.0])))
        assert s.data[0] == 1  # step function includes zero

    def test_nonzero_reset(self):
        p = LIFParams(u_th=1.0, beta=0.5, v_reset=0.3)
        state = LIFState.initial((1,), p)
        assert state.h.data[0] == 0.3
        s, new = lif_step(p, state, DenseTensor(np.array([2.0])))
        assert s.data[0] == 1 and new.h.data[0] == pytest.approx(0.3)

    def test_shape_mismatch(self):
        p = LIFParams()
        with pytest.raises(ShapeError):
            lif_step(p, LIFState.initial((2,), p), DenseTensor(np.zeros(3)))

    def test_monotone_in_input(self):
        # raising any input element never turns a spike off
        rng = np.random.default_rng(0)
        p = LIFParams()
        for _ in range(50):
            x = rng.normal(0, 1, 6)
            s0, _ = lif_step(p, LIFState.initial((6,), p), DenseTensor(x))
            bigger = x + rng.uniform(0, 1, 6)
            s1, _ = lif_step(p, LIFState.initial((6,), p), DenseTensor(bigger))
            assert np.all(s1.data >= s0.data)


class TestSnForward:
    def test_t1_equals_single_step(self):
        p = LIFParams()
        x = np.random.default_rng(1).normal(0, 1, (1, 3, 3))
        seq = sn_forward(p, DenseTensor(x))
        one, _ = lif_step(p, LIFState.initial((3, 3), p), DenseTensor(x[0]))
        assert np.array_equal(seq.data[0], one.data)

    def test_constant_drive_fires_on_third_step(self):
        # hand simulation of the recurrence: U = 0.6, 0.9, 1.05 -> fire last
        p = LIFParams(u_th=1.0, beta=0.5, v_reset=0.0)
        x = DenseTensor(np.full((3, 1), 0.6))
        got = sn_forward(p, x).data[:, 0]
        assert scalar_lif_sim([0.6, 0.6, 0.6]) == [0, 0, 1]
        assert got.tolist() == [0, 0, 1]

    def test_matches_scalar_simulator_on_random_sequences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = int(rng.integers(1, 8))
            beta = float(rng.uniform(0.1, 0.9))
            u_th = float(rng.uniform(0.3, 2.0))
            v_reset = float(rng.uniform(-0.2, 0.4))
            xs = rng.normal(0, 1, t)
            p = LIFParams(u_th=u_th, beta=beta, v_reset=v_reset)
            got = sn_forward(p, DenseTensor(xs.reshape(t, 1))).data[:, 0].tolist()
            assert got == scalar_lif_sim(xs, u_th, beta, v_reset)

    def test_zero_input_never_spikes(self):
        p = LIFParams()
        out = sn_forward(p, DenseTensor(np.zeros((5, 2, 2))))
        assert out.data.sum() == 0

    def test_output_is_binary_for_any_scale(self):
        rng = np.random.default_rng(3)
        out = sn_forward(LIFParams(), DenseTensor(rng.normal(0, 100, (4, 5))))
        assert set(np.unique(out.data)) <= {0, 1}

    def test_scaled_threshold_single_step_identity(self):
        # Hea(X - s*u_th) == Hea(X/s - u_th) for a single memoryless step
        rng = np.random.default_rng(4)
        for s in (0.125, 0.5, 2.0):
            x = rng.normal(0, 2, (1, 16))
            a = sn_forward(LIFParams(threshold_scale=s), DenseTensor(x))
            b = sn_forward(LIFParams(), DenseTensor(x / s))
            assert np.array_equal(a.data, b.data)


class TestSurrogate:
    def test_center_of_window(self):
        p = LIFParams(u_th=1.0, surrogate_window=0.5)
        assert surrogate_grad(p, 1.0) == pytest.approx(1.0)

    def test_outside_window(self):
        p = LIFParams(u_th=1.0, surrogate_window=0.5)
        assert surrogate_grad(p, 2.0) == 0.0
        assert surrogate_grad(p, 1.0 + 2 * p.window) == 0.0

    def test_symmetry(self):
        p = LIFParams(u_th=1.0, surrogate_window=0.5)
        for delta in (0.1, 0.25, 0.49):
            assert surrogate_grad(p, 1.0 + delta) == surrogate_grad(p, 1.0 - delta)

    def test_scaled_threshold_moves_center(self):
        p = LIFParams(u_th=1.0, threshold_scale=0.25, surrogate_window=0.1)
        assert surrogate_grad(p, 0.25) == pytest.approx(5.0)
        assert surrogate_grad(p, 1.0) == 0.0

    def test_vector_input(self):
        p = LIFParams(surrogate_window=0.5)
        g = surrogate_grad(p, np.array([1.0, 9.0]))
        assert g.tolist() == [1.0, 0.0]


class TestOneUpdate:
    @pytest.mark.parametrize("learnable", [False, True])
    def test_tape_and_numpy_routes_agree_bit_for_bit(self, learnable):
        p = LIFParams(u_th=0.7, beta=0.6, v_reset=0.2, threshold_scale=0.5)
        xs = np.random.default_rng(6).normal(0.3, 1.0, (4, 2, 3, 5, 5))
        sn = SN(p, learnable=learnable)
        state = LIFState.initial(xs.shape[1:], p)
        for x in xs:
            s_tape = sn.step(Var(x), ForwardContext(tape=Tape()))
            s_np, state = lif_step(p, state, DenseTensor(x))
            assert s_tape.data.tobytes() == s_np.data.astype(np.float64).tobytes()
            assert sn._state.data.tobytes() == state.h.data.tobytes()
        assert 0 < s_np.data.mean() < 1


class TestTapeFreeUpdate:
    """With no tape, spike-mode ``lif`` runs fused numpy; it must equal the
    taped autodiff route entry for entry and never write its inputs."""

    @staticmethod
    def _both(h, x, threshold, p):
        h0, x0 = h.copy(), x.copy()
        s_free, h_free = lif(None, Var(h), Var(x), threshold, p)
        tape = Tape()
        s_tape, h_tape = lif(tape, Var(h), Var(x), threshold, p)
        assert len(tape) == 9
        assert np.array_equal(h, h0, equal_nan=True) and np.array_equal(x, x0, equal_nan=True)
        return (s_free.data, h_free.data), (s_tape.data, h_tape.data)

    @staticmethod
    def _draw(rng, p, theta, shape=(3, 4, 6, 6)):
        h = rng.normal(0.0, 1.0, shape)
        x = rng.normal(theta, 1.5, shape)
        flat_h, flat_x = h.reshape(-1), x.reshape(-1)
        flat_h[:30] = 0.0
        flat_x[:20] = theta  # potentials exactly at the threshold
        flat_x[20:30] = np.nextafter(theta, -np.inf)  # one ulp below it
        flat_h[30:40] = p.v_reset
        return h, x

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3, -0.7])
    def test_fixed_threshold_matches_tape(self, beta, v_reset):
        p = LIFParams(u_th=0.8, beta=beta, v_reset=v_reset, threshold_scale=0.6)
        h, x = self._draw(np.random.default_rng(17), p, p.threshold)
        (s, hn), (s_ref, hn_ref) = self._both(h, x, None, p)
        assert np.array_equal(s, s_ref) and np.array_equal(hn, hn_ref)
        assert s.dtype == np.float64 and hn.dtype == np.float64
        assert s.reshape(-1)[:20].all() and not s.reshape(-1)[20:30].any()

    @pytest.mark.parametrize("theta", [0.05, 1.0, 2.5])
    def test_learnable_threshold_matches_tape(self, theta):
        p = LIFParams(beta=0.6, v_reset=0.2)
        h, x = self._draw(np.random.default_rng(23), p, theta)
        (s, hn), (s_ref, hn_ref) = self._both(h, x, Var(np.asarray(theta)), p)
        assert np.array_equal(s, s_ref) and np.array_equal(hn, hn_ref)
        assert 0 < s.mean() < 1

    def test_nan_potential_matches_tape(self):
        # +inf is left out: there the taped reset computes inf * 0 = NaN
        p = LIFParams(beta=0.5, v_reset=0.1)
        h, x = self._draw(np.random.default_rng(29), p, p.threshold)
        x.reshape(-1)[50:60] = np.nan
        h.reshape(-1)[60:65] = np.nan
        x.reshape(-1)[80:85] = -np.inf
        (s, hn), (s_ref, hn_ref) = self._both(h, x, None, p)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(hn, hn_ref, equal_nan=True)
        assert np.isnan(hn).sum() == 15 and not s.reshape(-1)[50:65].any()

    def test_scalar_neuron(self):
        p = LIFParams()
        for x in (0.4, 1.0, 3.0):
            (s, hn), (s_ref, hn_ref) = self._both(np.array(0.2), np.array(x), None, p)
            assert s.shape == () and np.array_equal(s, s_ref) and np.array_equal(hn, hn_ref)

    def test_sn_forward_matches_taped_steps(self):
        p = LIFParams(u_th=0.9, beta=0.7, v_reset=0.25, threshold_scale=0.8)
        xs = np.random.default_rng(31).normal(0.4, 1.0, (5, 2, 3, 7, 7))
        xs[1, 0, 0, 0, :3] = p.threshold - p.v_reset  # lands exactly on theta
        h = Var(np.full(xs.shape[1:], p.v_reset))
        want = []
        for x in xs:
            s, h = lif(Tape(), h, Var(x), None, p)
            want.append(s.data)
        got = sn_forward(p, DenseTensor(xs))
        assert got.data.dtype == np.uint8
        assert np.array_equal(got.data, np.stack(want))
        assert 0 < got.data.mean() < 1

    def test_smooth_mode_keeps_the_autodiff_route(self, monkeypatch):
        calls = []
        real = ad.spike
        monkeypatch.setattr(ad, "spike", lambda *a, **k: calls.append(1) or real(*a, **k))
        p = LIFParams()
        h, x = np.zeros(4), np.array([0.2, 0.9, 1.0, 1.4])
        s, _ = lif(None, Var(h), Var(x), None, p, smooth=True)
        lif(None, Var(h), Var(x), None, p)
        assert calls == [1]
        assert np.array_equal(s.data, np.clip((x - 1.0) / (2 * p.window) + 0.5, 0, 1))


class TestNonFiniteSettings:
    @pytest.mark.parametrize("name", ["u_th", "beta", "v_reset", "threshold_scale",
                                      "surrogate_window"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LIFParams(**{name: value})
