import gc
import weakref

import numpy as np
import pytest

from spikedrive import autodiff as ad
from spikedrive import blocks, kernels, train
from spikedrive.autodiff import Tape, Var
from spikedrive.config import ModelConfig
from spikedrive.errors import TapeError
from spikedrive.model import build_model
from spikedrive.neuron import LIFParams


def firing_model(**kw):
    """A small model whose eval pass fires past stage 1: its running
    variance is shrunk and its normalization widened and shifted."""
    model = build_model(ModelConfig(base_channels=4, resolution=16, num_classes=3, heads=2,
                                    seed=5, **kw))
    for name, buf in model.named_buffers():
        if name.endswith("run_var"):
            buf[...] = 0.02
    for name, p in model.named_params():
        if name.endswith("gamma"):
            p.data *= 3
        elif name.endswith("beta"):
            p.data += 0.3
    return model


class TestNormalizeAffine:
    def test_tape_free_is_bit_identical_and_leaves_x(self):
        rng = np.random.default_rng(3)
        x = Var(rng.normal(0.5, 2.0, (3, 6, 5, 7)))
        x0 = x.data.copy()
        gamma, beta = Var(rng.normal(1.0, 0.5, 6)), Var(rng.normal(0.0, 0.5, 6))
        mu, var = rng.normal(0.0, 1.0, 6), rng.uniform(0.01, 3.0, 6)
        free = ad.normalize_affine(None, x, gamma, beta, mu, var)
        tape = Tape()
        taped = ad.normalize_affine(tape, x, gamma, beta, mu, var)
        assert len(tape) == 1
        assert free.data.tobytes() == taped.data.tobytes()
        assert np.array_equal(x.data, x0)
        inv = gamma.data * (1.0 / np.sqrt(var + ad.BN_EPS))
        want = (x0 - mu[None, :, None, None]) * inv[None, :, None, None] \
            + beta.data[None, :, None, None]
        assert free.data.tobytes() == want.tobytes()


class TestNormalizationWithoutShift:
    """``beta`` None adds no shift and records no shift gradient."""

    @staticmethod
    def _operands():
        rng = np.random.default_rng(4)
        x = Var(rng.normal(0.5, 2.0, (3, 6, 5, 7)))
        gamma = Var(rng.normal(1.0, 0.5, 6))
        mu, var = rng.normal(0.0, 1.0, 6), rng.uniform(0.01, 3.0, 6)
        return rng, x, gamma, mu, var

    @staticmethod
    def _normalize(op, tape, x, gamma, beta, mu, var):
        """The op's output; ``batch_norm`` computes its own statistics."""
        if op is ad.batch_norm:
            return op(tape, x, gamma, beta)[0]
        return op(tape, x, gamma, beta, mu, var)

    @pytest.mark.parametrize("op", [ad.batch_norm, ad.normalize_affine])
    def test_equals_a_zero_shift_with_two_inputs_and_two_gradients(self, op):
        rng, x, gamma, mu, var = self._operands()
        g = rng.normal(0, 1, x.shape)
        tape0, tape1 = Tape(), Tape()
        zero = self._normalize(op, tape0, x, gamma, Var(np.zeros(6)), mu, var)
        none = self._normalize(op, tape1, x, gamma, None, mu, var)
        assert np.array_equal(none.data, zero.data)
        (_, inputs0, vjp0), = tape0.records
        (outs1, inputs1, vjp1), = tape1.records
        assert outs1 == (none.node,) and inputs1 == (x.node, gamma.node) and len(inputs0) == 3
        grads0, grads1 = vjp0(g), vjp1(g)
        assert len(grads1) == 2
        for a, b in zip(grads1, grads0[:2]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("op", [ad.batch_norm, ad.normalize_affine])
    def test_backward_matches_a_zero_shift(self, op):
        _, x, gamma, mu, var = self._operands()
        got = []
        for beta in (Var(np.zeros(6)), None):
            x.grad = gamma.grad = None
            tape = Tape()
            out = self._normalize(op, tape, x, gamma, beta, mu, var)
            loss = ad.mean_axes(tape, ad.mul(tape, out, out), (0, 1, 2, 3))
            grads = ad.backward(tape, loss, params=[x, gamma])
            got.append((grads[x], grads[gamma]))
        (gx0, gg0), (gx1, gg1) = got
        assert np.array_equal(gx0, gx1) and np.array_equal(gg0, gg1)
        assert np.abs(gg1).max() > 0


def three_step_batch_norm(x, gamma, beta):
    """Reference oracle: training-mode batch normalization in three steps --
    ``np.mean``, ``np.var``, then a third centring -- whose vjp runs four full
    reductions. Returns the output, the statistics and the vjp, which gives
    the gradients of x, gamma and (with a shift) beta."""
    axes = (0, 2, 3)
    mu, var = x.mean(axis=axes), x.var(axis=axes)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    inv = 1.0 / np.sqrt(var[None, :, None, None] + ad.BN_EPS)
    xhat = (x - mu[None, :, None, None]) * inv
    gm = gamma[None, :, None, None]
    out = gm * xhat
    if beta is not None:
        out += beta[None, :, None, None]

    def vjp(g):
        gxhat = g * gm
        gx = (inv / m) * (m * gxhat - gxhat.sum(axis=axes, keepdims=True)
                          - xhat * (gxhat * xhat).sum(axis=axes, keepdims=True))
        grads = (gx, (g * xhat).sum(axis=axes))
        return grads if beta is None else grads + (g.sum(axis=axes),)

    return out, mu, var, vjp


# the batch-norm inputs of one step of the bench's toy net (B=32, C=8, 32x32)
TOY_BN_SHAPES = [(32, 8, 16, 16), (32, 16, 8, 8), (32, 16, 16, 16), (32, 32, 4, 4),
                 (32, 32, 8, 8), (32, 32, 16, 16), (32, 64, 2, 2), (32, 64, 4, 4),
                 (32, 64, 8, 8), (32, 80, 2, 2), (32, 128, 4, 4), (32, 256, 2, 2),
                 (32, 320, 2, 2)]


class TestTrainingBatchNorm:
    """``batch_norm`` computes its own batch statistics and differentiates
    through them."""

    @pytest.mark.parametrize("shift", [True, False])
    @pytest.mark.parametrize("shape", TOY_BN_SHAPES, ids=str)
    def test_layer_matches_the_three_step_oracle(self, shape, shift):
        """Through a 1x1 ``ConvBN`` (depthwise when unshifted): output and
        running statistics bit for bit, gradients within 1e-9 max|g| + 1e-11."""
        c = shape[1]
        rng = np.random.default_rng(c + shift)
        layer = blocks.ConvBN(rng, c, c, 1, groups=1 if shift else c)
        assert (layer.beta is not None) == shift
        layer.gamma.data = rng.normal(1.0, 0.5, c)
        if shift:
            layer.beta.data = rng.normal(0.0, 0.5, c)
        layer.run_mean[...] = rng.normal(0.0, 1.0, c)
        layer.run_var[...] = rng.uniform(0.5, 2.0, c)
        mean0, var0 = layer.run_mean.copy(), layer.run_var.copy()
        x = Var(rng.normal(0.3, 2.0, shape))
        y = ad.conv2d(None, x, layer.w, None, 1, 0, layer.groups).data
        want, mu, var, vjp_ref = three_step_batch_norm(
            y, layer.gamma.data, layer.beta.data if shift else None)

        tape = Tape()
        out = layer.forward(x, blocks.ForwardContext(tape=tape, training=True))
        assert np.array_equal(out.data, want)
        m = blocks.BN_MOMENTUM
        assert np.array_equal(layer.run_mean, (1 - m) * mean0 + m * mu)
        assert np.array_equal(layer.run_var, (1 - m) * var0 + m * var)
        outs, inputs, vjp = tape.records[-1]
        assert outs == (out.node,) and len(inputs) == 2 + shift
        g = rng.normal(0.0, 1.0, shape)
        got, ref = vjp(g), vjp_ref(g)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max() + 1e-11

    @pytest.mark.parametrize("shift", [True, False])
    def test_gradients_match_central_differences(self, shift):
        """Every entry of x (through the batch statistics), gamma and beta."""
        rng = np.random.default_rng(9)
        x = Var(rng.normal(0.5, 2.0, (3, 6, 5, 7)))
        gamma = Var(rng.normal(1.0, 0.5, 6))
        beta = Var(rng.normal(0.0, 0.5, 6)) if shift else None
        weight = rng.normal(0.0, 1.0, x.shape)
        tape = Tape()
        out = ad.batch_norm(tape, x, gamma, beta)[0]
        loss = ad.sum_axes(tape, ad.mul(tape, out, Var(weight)), (0, 1, 2, 3), keepdims=False)
        params = [v for v in (x, gamma, beta) if v is not None]
        grads = ad.backward(tape, loss, params=params)
        h = 1e-6
        for p in params:
            fd = np.empty_like(p.data)
            for idx in np.ndindex(p.shape):
                orig = p.data[idx]
                sides = []
                for value in (orig + h, orig - h):
                    p.data[idx] = value
                    sides.append((ad.batch_norm(None, x, gamma, beta)[0].data * weight).sum())
                p.data[idx] = orig
                fd[idx] = (sides[0] - sides[1]) / (2 * h)
            assert np.abs(grads[p] - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_statistics_are_handed_back(self):
        x = Var(np.random.default_rng(2).normal(0.5, 2.0, (3, 6, 5, 7)))
        x0 = x.data.copy()
        _, mu, var = ad.batch_norm(None, x, Var(np.ones(6)), None)
        assert np.array_equal(mu, x0.mean(axis=(0, 2, 3)))
        assert np.array_equal(var, x0.var(axis=(0, 2, 3)))
        assert np.array_equal(x.data, x0)


class TestVjpLeavesItsGradientAlone:
    """A gradient may reach several vjps (``add`` hands one array to both
    inputs) and ``backward`` stores it by reference, so no vjp writes into
    its incoming gradient: a read-only one must go through."""

    @pytest.mark.parametrize("shift", [True, False])
    @pytest.mark.parametrize("op", [ad.batch_norm, ad.normalize_affine])
    def test_read_only_gradient(self, op, shift):
        rng = np.random.default_rng(6)
        x = Var(rng.normal(0.5, 2.0, (3, 6, 5, 7)))
        gamma = Var(rng.normal(1.0, 0.5, 6))
        beta = Var(rng.normal(0.0, 0.5, 6)) if shift else None
        tape = Tape()
        if op is ad.batch_norm:
            op(tape, x, gamma, beta)
        else:
            op(tape, x, gamma, beta, rng.normal(0.0, 1.0, 6), rng.uniform(0.1, 2.0, 6))
        (_, inputs, vjp), = tape.records
        g = rng.normal(0.0, 1.0, x.shape)
        g0 = g.copy()
        g.flags.writeable = False
        grads = vjp(g)
        assert len(grads) == len(inputs) and np.array_equal(g, g0)
        assert not any(np.shares_memory(gr, g) for gr in grads)


class TestWholeModelWithoutTape:
    @pytest.mark.parametrize("shortcut", ["MS", "SEW", "VS"])
    @pytest.mark.parametrize("variant", [1, 3, 4])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_eval_logits_match_the_taped_forward(self, shortcut, variant, smooth):
        model = firing_model(shortcut=shortcut, sdsa_variant=variant, timesteps=2,
                             lif=LIFParams(v_reset=0.1))
        x = np.random.default_rng(8).random((2, 3, 16, 16))
        free = model.forward(x, smooth=smooth)
        taped = model.forward(x, smooth=smooth, tape=Tape())
        assert np.array_equal(free.data, taped.data)
        assert np.abs(free.data).sum() > 0


class TestFrozenLeaves:
    def _step(self, params_given):
        model = build_model(ModelConfig(base_channels=4, resolution=16, num_classes=2,
                                        depths=(1, 1, 1, 1, 1), heads=2, seed=2,
                                        lif=LIFParams(surrogate_window=1.0)))
        data = train.make_blobs(8, resolution=16, classes=2, seed=1)
        tape = Tape()
        conv_inputs = []
        conv2d = ad.conv2d

        def spying(tape, x, *args):
            conv_inputs.append(x)
            return conv2d(tape, x, *args)

        ad.conv2d = spying
        try:
            loss = train.loss(model.forward(data.images, tape=tape, training=True), data.labels,
                              0.0, tape=tape)
        finally:
            ad.conv2d = conv2d
        params = model.parameters()
        # backward empties the tape, so read the records first
        image = tape.records[0][1][0]  # the raw-pixel input node of the encoding conv
        assert image is conv_inputs[0].node
        made = {id(out) for outs, _, _ in tape.records for out in outs}
        inputs = {id(v): v for _, ins, _ in tape.records for v in ins}
        ad.backward(tape, loss, params=params if params_given else None)
        assert np.array_equal(conv_inputs[0].data, data.images)
        return image, tape, params, made, inputs

    def test_parameter_gradients_unchanged_and_input_gradient_skipped(self):
        x, tape, params, _, _ = self._step(True)
        x_ref, tape_ref, params_ref, _, _ = self._step(False)
        assert id(x) in tape.frozen and not tape_ref.frozen
        assert x.grad is None and x_ref.grad is not None
        assert len(params) == len(params_ref)
        for p, q in zip(params, params_ref):
            assert p.name == q.name and p.grad.tobytes() == q.grad.tobytes()

    @pytest.mark.parametrize("params_given", [False, True])
    def test_only_the_encoding_conv_skips_its_input_gradient(self, params_given, monkeypatch):
        asked = []
        core = ad.conv2d_core

        def recording(*args):
            out, adjoint = core(*args)

            def wrapped(g, need_x=True):
                asked.append(need_x)
                return adjoint(g, need_x)

            return out, wrapped

        monkeypatch.setattr(ad, "conv2d_core", recording)
        self._step(params_given)
        assert len(asked) > 10
        assert asked[-1] is not params_given and all(asked[:-1])  # the vjps run newest first

    def test_a_tape_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            _, tape, *_ = self._step(True)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()

    def test_frozen_holds_only_leaves_that_are_not_parameters(self):
        _, tape, params, made, inputs = self._step(True)
        assert tape.frozen and not tape.frozen & made
        assert not tape.frozen & {id(p.node) for p in params}
        assert all(inputs[i].grad is None for i in tape.frozen)


class TestBackwardConsumesTheTape:
    """``backward`` pops each record as its vjp runs: the tape ends empty,
    an intermediate the caller dropped is freed by reference counting alone,
    and one the caller holds keeps its gradient."""

    @staticmethod
    def _chain(tape):
        x = Var(np.random.default_rng(4).normal(size=(3, 4)))
        w = Var(np.random.default_rng(5).normal(size=(4, 2)))
        mid = ad.matmul(tape, x, w)
        loss = ad.sum_axes(tape, ad.mul(tape, mid, mid), (0, 1), keepdims=False)
        return x, w, mid, loss

    def test_a_consumed_tape_holds_no_records(self):
        tape = Tape()
        _, w, _, loss = self._chain(tape)
        assert len(tape) == 3
        ad.backward(tape, loss, params=[w])
        assert len(tape) == 0 and tape.records == []

    def test_an_intermediate_the_caller_dropped_is_freed(self):
        gc.disable()
        try:
            tape = Tape()
            _, w, mid, loss = self._chain(tape)
            ref = weakref.ref(mid.data)  # a Var has slots and no weakref slot
            del mid
            assert ref() is not None  # the tape still holds it
            ad.backward(tape, loss, params=[w])
            assert ref() is None
        finally:
            gc.enable()

    def test_a_held_intermediate_keeps_its_gradient(self):
        tape = Tape()
        x, w, mid, loss = self._chain(tape)
        ad.backward(tape, loss)
        assert np.array_equal(mid.grad, 2 * mid.data)
        assert np.allclose(w.grad, x.data.T @ (2 * mid.data))
        assert np.allclose(x.grad, (2 * mid.data) @ w.data.T)


class TestRecordsOfSeveralOutputs:
    """A record holds a tuple of outputs; ``backward`` hands its vjp every
    output's gradient (None where there is none) and skips the record only
    when no output has one."""

    @staticmethod
    def _record(tape, x):
        seen = []
        a, b = Var(x.data * 2.0), Var(x.data * 3.0)

        def vjp(ga, gb):
            seen.append((ga is None, gb is None))
            return ((0.0 if ga is None else ga * 2.0) + (0.0 if gb is None else gb * 3.0),)

        tape.push((a, b), (x,), vjp)
        return a, b, seen

    @pytest.mark.parametrize("graded", [(True, False), (False, True), (True, True)])
    def test_vjp_gets_each_output_gradient(self, graded):
        tape, x = Tape(), Var(np.array([1.0, -2.0]))
        a, b, seen = self._record(tape, x)
        terms = [ad.sum_axes(tape, out, (0,), keepdims=False)
                 for out, on in zip((a, b), graded) if on]
        ad.backward(tape, terms[0] if len(terms) == 1 else ad.add(tape, *terms))
        assert seen == [tuple(not on for on in graded)]
        assert x.grad.tolist() == [2.0 * graded[0] + 3.0 * graded[1]] * 2

    def test_record_with_no_graded_output_is_skipped(self):
        tape, x = Tape(), Var(np.array([1.0]))
        _, _, seen = self._record(tape, x)
        y = Var(np.array([4.0]))
        ad.backward(tape, ad.sum_axes(tape, ad.scale(tape, y, 2.0), (0,), keepdims=False))
        assert seen == [] and x.grad is None and y.grad.tolist() == [2.0]

    def test_every_output_is_kept_from_the_frozen_set(self):
        tape, x = Tape(), Var(np.array([1.0, 2.0]), name="w")
        a, b, _ = self._record(tape, x)
        c = ad.mul(tape, a, b)
        grads = ad.backward(tape, ad.sum_axes(tape, c, (0,), keepdims=False), params=[x])
        assert not tape.frozen & {id(a.node), id(b.node), id(c.node)}
        assert grads[x].tolist() == [12.0, 24.0]  # d(6 x^2)/dx


class TestAdjointWithoutInputGradient:
    # (x shape, w shape, stride, groups): one case per conv2d_core algorithm
    CASES = {
        "toeplitz_conv": ((4, 6, 3, 3), (6, 1, 3, 3), 1, 6),
        "depthwise_conv": ((2, 6, 9, 9), (6, 1, 3, 3), 2, 6),
        "kn2row_conv": ((2, 8, 6, 6), (4, 8, 3, 3), 1, 1),
        "im2col_conv": ((2, 3, 9, 9), (5, 3, 7, 7), 2, 1),
    }

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_gw_identical_and_gx_skipped(self, algorithm, monkeypatch):
        xs, ws, stride, groups = self.CASES[algorithm]
        ran = []
        real = getattr(kernels, algorithm)
        monkeypatch.setattr(kernels, algorithm, lambda *a: ran.append(1) or real(*a))
        rng = np.random.default_rng(4)
        x, w = rng.normal(size=xs), rng.normal(size=ws)
        y, adjoint = kernels.conv2d_core(x, w, stride, ws[2] // 2, groups)
        assert ran == [1]
        g = rng.normal(size=y.shape)
        gx, gw = adjoint(g)
        gx_none, gw_only = adjoint(g, False)
        assert gx.shape == x.shape and gx_none is None
        assert gw_only.tobytes() == gw.tobytes()


@pytest.fixture
def no_cycle_collector():
    """Frees by reference counting alone: what a test sees freed is not
    owed to the cyclic garbage collector."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def reaches_an_array(root) -> bool:
    """Whether ``root`` reaches an ndarray through object references,
    following no class."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        if isinstance(obj, np.ndarray):
            return True
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


@pytest.mark.usefixtures("no_cycle_collector")
class TestRecordsHoldNodes:
    """A record holds the nodes of its op's Vars, not the Vars: an op output
    that no vjp reads is freed once the forward drops it."""

    def test_an_output_no_vjp_reads_is_dead_before_backward(self):
        rng = np.random.default_rng(12)
        layer = blocks.ConvBN(rng, 6, 8, 3)
        x = Var(rng.normal(size=(2, 6, 8, 8)))
        made = []
        conv2d = ad.conv2d

        def spying(*args):
            out = conv2d(*args)
            made.append(weakref.ref(out.data))
            return out

        tape = Tape()
        ad.conv2d = spying
        try:
            out = layer.forward(x, blocks.ForwardContext(tape=tape, training=True))
        finally:
            ad.conv2d = conv2d
        assert len(made) == 1 and len(tape) == 2
        assert made[0]() is None  # batch_norm's vjp reads its own centred copy
        ad.backward(tape, ad.sum_axes(tape, ad.mul(tape, out, out), (0, 1, 2, 3),
                                      keepdims=False))
        assert layer.w.grad is not None and x.grad.shape == x.shape

    def test_no_record_entry_of_the_bench_toy_step_reaches_an_array(self):
        model = build_model(ModelConfig(base_channels=8, num_classes=2, resolution=32,
                                        depths=(1, 1, 1, 2, 1), heads=2, seed=3, timesteps=1,
                                        lif=LIFParams(surrogate_window=1.0)))
        data = train.make_blobs(32, resolution=32, classes=2, seed=0)
        tape = Tape()
        loss = train.loss(model.forward(data.images, tape=tape, training=True), data.labels,
                          0.0, tape=tape)
        assert len(tape) > 100
        for outs, inputs, _ in tape.records:
            for entry in outs + inputs:
                assert not reaches_an_array(entry) and isinstance(entry, ad.Node)
        ad.backward(tape, loss, params=model.parameters())
        assert all(p.grad is not None for p in model.parameters())

    # (x shape, w shape, padding): both copy x before the adjoint needs it
    FREED_INPUT = {"im2col_conv": ((2, 3, 8, 8), (5, 3, 3, 3), 1),
                   "kn2row_conv": ((2, 8, 6, 6), (4, 8, 3, 3), 1)}

    def _conv_grads(self, algorithm, hold):
        """gx, gw and the output of one conv through a loss; the input Var is
        dropped right after the forward unless ``hold``. Returns whether its
        array was alive while the tape was."""
        xs, ws, padding = self.FREED_INPUT[algorithm]
        rng = np.random.default_rng(13)
        x, w = Var(rng.normal(size=xs)), Var(rng.normal(size=ws))
        tape = Tape()
        out = ad.conv2d(tape, x, w, None, 1, padding)
        node, ref = x.node, weakref.ref(x.data)
        if not hold:
            del x
        alive = ref() is not None
        weight = Var(rng.normal(size=out.shape))
        loss = ad.sum_axes(tape, ad.mul(tape, out, weight), (0, 1, 2, 3), keepdims=False)
        ad.backward(tape, loss)
        return alive, node.grad, w.grad, out.data

    @pytest.mark.parametrize("algorithm", sorted(FREED_INPUT))
    def test_a_conv_input_is_freed_while_the_tape_lives(self, algorithm, monkeypatch):
        ran = []
        real = getattr(kernels, algorithm)
        monkeypatch.setattr(kernels, algorithm, lambda *a: ran.append(1) or real(*a))
        alive, gx, gw, out = self._conv_grads(algorithm, hold=False)
        held_alive, gx_held, gw_held, out_held = self._conv_grads(algorithm, hold=True)
        assert ran == [1, 1]
        assert not alive and held_alive
        for a, b in ((gx, gx_held), (gw, gw_held), (out, out_held)):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def _chain(hold):
        """A 40-step chain whose sums and bias leaves no vjp reads; unless
        ``hold``, they are dropped as soon as the next op has read them.
        Returns the gradients of x and w and the ids of every Var made."""
        rng = np.random.default_rng(14)
        x, w = Var(rng.normal(size=(3, 4))), Var(rng.normal(0.0, 0.3, (4, 4)))
        tape, held, ids = Tape(), [], []
        h = x
        for i in range(40):
            bias = Var(np.full((1, 4), 0.01 * i))  # a leaf that is not a parameter
            total = ad.add(tape, ad.matmul(tape, h, w), bias)
            h = ad.scale(tape, total, 0.9)
            ids += [id(bias), id(total)]
            if hold:
                held += [bias, total]
            del bias, total
        loss = ad.sum_axes(tape, ad.mul(tape, h, h), (0, 1), keepdims=False)
        grads = ad.backward(tape, loss, params=[x, w])
        return grads[x], grads[w], tape.frozen, ids

    def test_reused_ids_give_the_gradients_of_a_run_that_holds_every_var(self):
        gx, gw, frozen, ids = self._chain(hold=False)
        gx_held, gw_held, frozen_held, ids_held = self._chain(hold=True)
        assert len(set(ids)) < len(ids)  # dropped Vars were freed and their ids reused
        assert len(set(ids_held)) == len(ids_held)
        assert len(frozen) == len(frozen_held) == 40  # every bias node
        assert gx.tobytes() == gx_held.tobytes() and gw.tobytes() == gw_held.tobytes()
        assert np.abs(gx).max() > 0


class TestConsumedTapeRefusesRecords:
    def test_an_op_after_backward_raises_and_records_nothing(self):
        tape, x = Tape(), Var(np.array([1.0, 2.0]))
        ad.backward(tape, ad.sum_axes(tape, ad.mul(tape, x, x), (0,), keepdims=False))
        assert len(tape) == 0
        with pytest.raises(TapeError, match="consumed"):
            ad.add(tape, x, x)
        with pytest.raises(TapeError, match="consumed"):
            tape.push((Var(np.ones(2)),), (x,), lambda g: (g,))
        assert len(tape) == 0

    def test_a_failed_backward_leaves_the_tape_open(self):
        tape, x = Tape(), Var(np.array([1.0, 2.0]))
        y = ad.mul(tape, x, x)
        with pytest.raises(TapeError, match="scalar"):
            ad.backward(tape, y)
        ad.sum_axes(tape, y, (0,), keepdims=False)
        assert len(tape) == 2
