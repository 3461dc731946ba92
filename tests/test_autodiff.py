import gc
import weakref

import numpy as np
import pytest

from spikedrive import autodiff as ad
from spikedrive import kernels, train
from spikedrive.autodiff import Tape, Var
from spikedrive.config import ModelConfig
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
        loss = train.loss(model.forward(data.images, tape=tape, training=True), data.labels,
                          0.0, tape=tape)
        params = model.parameters()
        ad.backward(tape, loss, params=params if params_given else None)
        image = tape.records[0][1][0]  # the raw-pixel input of the encoding conv
        assert np.array_equal(image.data, data.images)
        return image, tape, params

    def test_parameter_gradients_unchanged_and_input_gradient_skipped(self):
        x, tape, params = self._step(True)
        x_ref, tape_ref, params_ref = self._step(False)
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
            _, tape, _ = self._step(True)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()

    def test_frozen_holds_only_leaves_that_are_not_parameters(self):
        _, tape, params = self._step(True)
        made = {id(out) for outs, _, _ in tape.records for out in outs}
        assert tape.frozen and not tape.frozen & made
        assert not tape.frozen & {id(p) for p in params}
        inputs = {id(v): v for _, ins, _ in tape.records for v in ins}
        assert all(inputs[i].grad is None for i in tape.frozen)


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
        assert not tape.frozen & {id(a), id(b), id(c)}
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
