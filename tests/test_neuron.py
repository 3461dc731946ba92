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
        ctx = ForwardContext(tape=Tape())
        for x in xs:
            s_tape = sn.step(Var(x), ctx)
            s_np, state = lif_step(p, state, DenseTensor(x))
            assert s_tape.data.tobytes() == s_np.data.astype(np.float64).tobytes()
            assert ctx.state[sn].data.tobytes() == state.h.data.tobytes()
        assert 0 < s_np.data.mean() < 1


def composed_lif(tape, h, x, threshold, params, smooth=False):
    """Reference oracle: the LIF update as nine single-output autodiff ops,
    which ``lif``'s one record must equal bit for bit, forward and backward
    (save the membrane at U = +inf, where this gives inf * 0 = NaN)."""
    u = ad.add(tape, h, x)
    if threshold is not None:
        pre = ad.sub(tape, u, threshold)
    else:
        pre = ad.shift(tape, u, -params.threshold)
    s = ad.spike(tape, pre, params.window, smooth=smooth)
    silent = ad.shift(tape, ad.scale(tape, s, -1.0), 1.0)
    h_new = ad.add(tape, ad.scale(tape, s, params.v_reset),
                   ad.mul(tape, ad.scale(tape, u, params.beta), silent))
    return s, h_new


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


class TestTapeFreeUpdate:
    """``lif`` without a tape, ``lif`` with one, and :func:`composed_lif`
    agree bit for bit: spikes, membranes and the gradients of h, x and a
    learnable threshold, in spike and smooth mode, with the spikes, the
    membrane or both graded. ``lif`` pushes one record and never writes its
    inputs."""

    GRADED = [(True, False), (False, True), (True, True)]

    @staticmethod
    def _route(fn, tape, h, x, theta, p, smooth, graded):
        hv, xv = Var(h), Var(x)
        tv = None if theta is None else Var(np.asarray(theta))
        s, hn = fn(tape, hv, xv, tv, p, smooth)
        if tape is None:
            return s.data, hn.data, None, 0
        records = len(tape)
        rng = np.random.default_rng(5)
        terms = [ad.sum_axes(tape, ad.mul(tape, out, Var(rng.normal(0, 1, out.shape))),
                             tuple(range(out.data.ndim)), keepdims=False)
                 for out, on in zip((s, hn), graded) if on]
        ad.backward(tape, terms[0] if len(terms) == 1 else ad.add(tape, *terms))
        return s.data, hn.data, [v.grad for v in (hv, xv, tv) if v is not None], records

    def _check(self, h, x, theta, p, finite_membrane=True):
        """Runs the three routes in both modes under each grading; returns
        the tape-free and the reference spike-mode (S, H)."""
        h0, x0 = h.copy(), x.copy()
        for smooth in (False, True):
            s_free, h_free, _, _ = self._route(lif, None, h, x, theta, p, smooth, None)
            for graded in self.GRADED:
                s, hn, grads, n = self._route(lif, Tape(), h, x, theta, p, smooth, graded)
                s_ref, h_ref, grads_ref, n_ref = self._route(composed_lif, Tape(), h, x, theta,
                                                             p, smooth, graded)
                assert n == 1 and n_ref == 9
                assert _same(s, s_free) and _same(hn, h_free) and _same(s, s_ref)
                if finite_membrane:
                    assert _same(hn, h_ref)
                assert len(grads) == len(grads_ref) == (2 if theta is None else 3)
                assert all(_same(g, g_ref) for g, g_ref in zip(grads, grads_ref))
            if not smooth:
                spike_mode = (s_free, h_free), (s_ref, h_ref)
        assert np.array_equal(h, h0, equal_nan=True) and np.array_equal(x, x0, equal_nan=True)
        return spike_mode

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
        (s, hn), _ = self._check(h, x, None, p)
        assert s.dtype == np.float64 and hn.dtype == np.float64
        assert s.reshape(-1)[:20].all() and not s.reshape(-1)[20:30].any()

    @pytest.mark.parametrize("theta", [0.05, 1.0, 2.5])
    def test_learnable_threshold_matches_tape(self, theta):
        p = LIFParams(beta=0.6, v_reset=0.2)
        h, x = self._draw(np.random.default_rng(23), p, theta)
        (s, _), _ = self._check(h, x, theta, p)
        assert 0 < s.mean() < 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_potential_matches_tape(self):
        p = LIFParams(beta=0.5, v_reset=0.1)
        h, x = self._draw(np.random.default_rng(29), p, p.threshold)
        x.reshape(-1)[50:60] = np.nan
        h.reshape(-1)[60:65] = np.nan
        x.reshape(-1)[80:85] = -np.inf
        (s, hn), _ = self._check(h, x, None, p)
        assert np.isnan(hn).sum() == 15 and not s.reshape(-1)[50:65].any()

    def test_scalar_neuron(self):
        p = LIFParams()
        for x in (0.4, 1.0, 3.0):
            for theta in (None, 0.9):
                (s, hn), _ = self._check(np.array(0.2), np.array(x), theta, p)
                assert s.shape == () and hn.shape == ()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_potential_resets_with_and_without_a_tape(self):
        p = LIFParams(beta=0.5, v_reset=0.3)
        h, x = np.zeros(4), np.array([np.inf, 2.0, 0.2, np.inf])
        (s, hn), (s_ref, h_ref) = self._check(h, x, None, p, finite_membrane=False)
        _, h_taped = lif(Tape(), Var(h), Var(x), None, p)
        for got in (hn, h_taped.data):
            assert got.tolist() == [0.3, 0.3, 0.1, 0.3]
        assert s.tolist() == s_ref.tolist() == [1.0, 1.0, 0.0, 1.0]
        assert np.isnan(h_ref[[0, 3]]).all()  # the composition's inf * 0

    def test_one_record_of_both_outputs_on_a_fresh_tape(self):
        tape = Tape()
        assert not tape  # an empty tape is falsy, yet it must record
        h, x, theta = Var(np.zeros(3)), Var(np.array([0.5, 1.0, 2.0])), Var(np.asarray(0.9))
        s, hn = lif(tape, h, x, theta, LIFParams())
        assert len(tape) == 1
        outs, inputs, _ = tape.records[0]
        assert outs == (s.node, hn.node) and inputs == (h.node, x.node, theta.node)
        lif(tape, hn, x, None, LIFParams())
        assert len(tape) == 2 and tape.records[1][1] == (hn.node, x.node)

    def test_membrane_only_loss_reaches_x_and_theta_through_params(self):
        # x comes from a parameter, and only the second step's membrane is
        # graded: every gradient flows through the first step's outputs
        p = LIFParams(u_th=0.8, beta=0.7, v_reset=0.1, surrogate_window=1.0)
        inp = np.random.default_rng(41).normal(0.6, 0.5, (2, 3, 4, 4))
        grads = []
        for fn in (lif, composed_lif):
            tape = Tape()
            w, theta = Var(np.full((3, 1, 1), 0.9)), Var(np.asarray(p.threshold))
            xs = [ad.mul(tape, Var(a), w) for a in inp]
            h = Var(np.asarray(p.v_reset))
            for x in xs:
                _, h = fn(tape, h, x, theta, p)
            loss = ad.sum_axes(tape, h, (0, 1, 2), keepdims=False)
            got = ad.backward(tape, loss, params=[w, theta])
            assert all(x.grad is not None for x in xs)
            grads.append([got[w], got[theta], xs[0].grad, xs[1].grad])
        assert all(_same(a, b) for a, b in zip(*grads))
        assert np.abs(grads[0][0]).sum() > 0 and grads[0][1] != 0
        assert np.abs(grads[0][2]).sum() > 0

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

    def test_smooth_mode_fires_the_clamped_relaxation(self):
        p = LIFParams()
        h, x = np.zeros(4), np.array([0.2, 0.9, 1.0, 1.4])
        want = np.clip((x - 1.0) / (2 * p.window) + 0.5, 0, 1)
        for tape in (None, Tape()):
            s, _ = lif(tape, Var(h), Var(x), None, p, smooth=True)
            assert np.array_equal(s.data, want)


class TestResetMembrane:
    def test_first_step_starts_from_a_0d_reset_and_matches_a_full_one(self):
        p = LIFParams(v_reset=0.3)
        x = np.random.default_rng(43).normal(0.8, 1.0, (2, 3, 5, 5))
        sn, ctx = SN(p), ForwardContext()
        s = sn.step(Var(x), ctx)
        s_ref, h_ref = lif(None, Var(np.full(x.shape, 0.3)), Var(x), None, p)
        assert np.array_equal(s.data, s_ref.data) and np.array_equal(ctx.state[sn].data, h_ref.data)
        assert ctx.state[sn].shape == x.shape

    def test_carried_state_of_another_shape_is_refused(self):
        sn, ctx = SN(LIFParams(), name="sn7"), ForwardContext()
        sn.step(Var(np.zeros((2, 3))), ctx)
        with pytest.raises(ShapeError, match="sn7"):
            sn.step(Var(np.zeros((2, 4))), ctx)


class TestPassState:
    def test_interleaved_contexts_run_as_two_separate_passes(self):
        p = LIFParams(u_th=0.7, beta=0.6, v_reset=0.2)
        xs = np.random.default_rng(44).normal(0.5, 1.0, (3, 2, 3, 4))
        sn, ctx1, ctx2 = SN(p), ForwardContext(), ForwardContext()
        got = []
        for x, ctx in zip(xs, (ctx1, ctx2, ctx1)):
            got.append((sn.step(Var(x), ctx).data, ctx.state[sn].data))
        want, states = [], {}
        for x, pass_id in zip(xs, (1, 2, 1)):
            state = states.get(pass_id, LIFState.initial(x.shape, p))
            s, states[pass_id] = lif_step(p, state, DenseTensor(x))
            want.append((s.data, states[pass_id].h.data))
        for (s, h), (s_ref, h_ref) in zip(got, want):
            assert s.tobytes() == s_ref.astype(np.float64).tobytes()
            assert h.tobytes() == h_ref.tobytes()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("name", ["u_th", "beta", "v_reset", "threshold_scale",
                                      "surrogate_window"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LIFParams(**{name: value})
