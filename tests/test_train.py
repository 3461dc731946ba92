import math

import numpy as np
import pytest

import spikedrive as sd
from spikedrive import autodiff as ad
from spikedrive.autodiff import Tape, Var, backward
from spikedrive.errors import ArgError, DivergenceError, TapeError
from spikedrive.neuron import LIFParams
from spikedrive.train import (Dataset, OptimState, _lr_at, evaluate, finetune_timesteps,
                              loss, make_blobs, step, train_toy)


def toy_cfg(**kw):
    base = dict(base_channels=4, num_classes=3, resolution=32, depths=(1, 1, 1, 1, 1),
                heads=2, seed=42, timesteps=1, lif=LIFParams(surrogate_window=1.0))
    base.update(kw)
    return sd.ModelConfig(**base)


class TestLoss:
    def test_uniform_logits_give_log_classes(self):
        for k in (2, 5, 10):
            l = loss(np.zeros((3, k)), np.zeros(3, dtype=int), smoothing=0.0)
            assert float(l.data) == pytest.approx(math.log(k))

    def test_confident_correct_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        l = loss(logits, np.array([2]), smoothing=0.0)
        assert float(l.data) == pytest.approx(0.0, abs=1e-12)

    def test_smoothed_two_class_hand_case(self):
        # q = [0.95, 0.05]; p = softmax([1, 0])
        p0 = math.exp(1) / (math.exp(1) + 1)
        want = -(0.95 * math.log(p0) + 0.05 * math.log(1 - p0))
        l = loss(np.array([[1.0, 0.0]]), np.array([0]), smoothing=0.1)
        assert float(l.data) == pytest.approx(want, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ArgError):
            loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ArgError):
            loss(np.zeros((2, 3)), np.array([-1, 0]))

    def test_labels_are_checked_as_a_datasets_are(self):
        logits = np.array([[0.5, -1.0], [2.0, 0.25]])
        want = loss(logits, np.array([1, 0])).data
        assert loss(logits, [1.0, 0.0]).data == want
        for labels, message in (([0.5, 1.0], "labels must be integers"),
                                ([1, 0, 1], "expected 2 labels")):
            with pytest.raises(ArgError, match=message):
                loss(logits, labels)

    def test_gradient_matches_softmax_minus_target(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 1, (4, 5))
        labels = rng.integers(0, 5, 4)
        tape = Tape()
        logits = Var(z)
        l = loss(logits, labels, smoothing=0.1, tape=tape)
        backward(tape, l)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        q = np.full((4, 5), 0.1 / 5)
        q[np.arange(4), labels] += 0.9
        assert np.allclose(logits.grad, (p - q) / 4, atol=1e-12)


class TestBackward:
    def test_linear_plus_ce_matches_analytic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (6, 3))
        w = Var(rng.normal(0, 1, (3, 4)))
        labels = rng.integers(0, 4, 6)
        tape = Tape()
        logits = ad.matmul(tape, Var(x), w)
        l = loss(logits, labels, tape=tape)
        backward(tape, l)
        z = x @ w.data
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        q = np.eye(4)[labels]
        assert np.allclose(w.grad, x.T @ ((p - q) / 6), atol=1e-12)

    def test_tape_consumed_twice_raises(self):
        tape = Tape()
        v = Var(np.ones(3))
        out = ad.scale(tape, v, 2.0)
        l = ad.mean_axes(tape, out, (0,))
        backward(tape, l)
        with pytest.raises(TapeError):
            backward(tape, l)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        v = Var(np.ones(3))
        out = ad.scale(tape, v, 2.0)
        with pytest.raises(TapeError):
            backward(tape, out)

    def test_zero_loss_config_gives_zero_grads(self):
        # loss independent of the parameter -> its slot is zero-filled
        tape = Tape()
        used = Var(np.ones(2))
        unused = Var(np.ones(2))
        l = ad.mean_axes(tape, ad.mul(tape, used, Var(np.zeros(2))), (0,))
        grads = backward(tape, l, params=[used, unused])
        assert np.allclose(grads[used], 0.0)
        assert np.allclose(grads[unused], 0.0)

    def test_finite_differences_on_tiny_smooth_model(self):
        cfg = sd.ModelConfig(base_channels=4, num_classes=2, resolution=16,
                             depths=(1, 0, 0, 1, 0), heads=2, seed=7, timesteps=2)
        model = sd.build_model(cfg)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 2, (2, 3, 16, 16))
        y = np.array([0, 1])

        tape = Tape()
        model.zero_grad()
        logits = model.forward(x, tape=tape, smooth=True)
        backward(tape, loss(logits, y, tape=tape), params=model.parameters())

        def f():
            return float(loss(model.forward(x, smooth=True), y).data)

        h = 1e-6
        worst = 0.0
        params = model.parameters()
        for _ in range(25):
            p = params[int(rng.integers(0, len(params)))]
            idx = np.unravel_index(int(rng.integers(0, p.data.size)), p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = f()
            p.data[idx] = orig - h
            down = f()
            p.data[idx] = orig
            fd = (up - down) / (2 * h)
            rel = abs(p.grad[idx] - fd) / max(abs(p.grad[idx]), abs(fd), 1.0)
            worst = max(worst, rel)
        assert worst <= 1e-4


class TestOptimizer:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Var(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        optim = OptimState(lr=0.1, weight_decay=0.0)
        step(optim, [p])
        assert np.array_equal(p.data, np.array([1.0, -2.0]))

    def test_two_steps_match_hand_trace(self):
        # independent replay of the update rule on a scalar parameter
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        w = 2.0
        grads = [0.5, -0.3]
        m = v = 0.0
        expect = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            upd = m_hat / (math.sqrt(v_hat) + eps) + wd * w
            trust = abs(w) / abs(upd)
            w = w - lr * trust * upd
            expect.append(w)

        p = Var(np.array(2.0))
        optim = OptimState(lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
        for g, want in zip(grads, expect):
            p.grad = np.asarray(g)
            step(optim, [p])
            assert float(p.data) == pytest.approx(want, rel=1e-12)

    def test_defaults_are_the_train_config_defaults(self):
        assert OptimState() == OptimState.from_config(sd.TrainConfig())
        assert OptimState(lr=0.1) == OptimState.from_config(sd.TrainConfig(lr=0.1))

    def test_decay_only_step_shrinks_norm(self):
        p = Var(np.array([3.0, -4.0]))
        p.grad = np.zeros(2)
        optim = OptimState(lr=0.1, weight_decay=0.1)
        before = np.linalg.norm(p.data)
        step(optim, [p])
        assert np.linalg.norm(p.data) < before


class TestLrSchedule:
    """Under ``cosine`` every epoch trains: the lr starts at the base and
    falls strictly, but never to 0."""

    @pytest.mark.parametrize("epochs", [2, 3, 10])
    def test_cosine_falls_from_the_base_and_stays_above_zero(self, epochs):
        tc = sd.TrainConfig(schedule="cosine")
        lrs = [_lr_at(tc, 0.1, e, epochs) for e in range(1, epochs + 1)]
        assert lrs[0] == 0.1
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] > 0

    def test_one_epoch_and_constant_give_the_base(self):
        assert _lr_at(sd.TrainConfig(schedule="cosine"), 0.1, 1, 1) == 0.1
        assert [_lr_at(sd.TrainConfig(), 0.1, e, 5) for e in range(1, 6)] == [0.1] * 5


class TestToyTraining:
    def test_blobs_are_linearly_separable_by_probe(self):
        # oracle first: a linear model must separate the synthetic task
        sklearn = pytest.importorskip("sklearn.linear_model")
        data = make_blobs(128, resolution=32, classes=2, seed=0)
        flat = data.images.reshape(len(data), -1)
        probe = sklearn.LogisticRegression(max_iter=200).fit(flat, data.labels)
        assert probe.score(flat, data.labels) == 1.0

    def test_reaches_high_accuracy_fast(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(96, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=14, batch_size=32, lr=1e-2, label_smoothing=0.0, seed=0)
        history = train_toy(model, data, 14, tc=tc)
        assert history[-1]["accuracy"] >= 0.95

    def test_label_shuffle_gives_chance_accuracy(self):
        rng = np.random.default_rng(3)
        data = make_blobs(96, resolution=32, classes=2, seed=0)
        shuffled = Dataset(images=data.images, labels=rng.permutation(data.labels))
        model = sd.build_model(toy_cfg(num_classes=2))
        tc = sd.TrainConfig(epochs=3, batch_size=32, lr=1e-2, label_smoothing=0.0, seed=0)
        history = train_toy(model, shuffled, 3, tc=tc)
        assert abs(history[-1]["accuracy"] - 0.5) <= 0.25

    def test_same_seed_gives_identical_curves(self):
        data = make_blobs(64, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=2, batch_size=32, lr=1e-2, seed=5)
        h1 = train_toy(sd.build_model(toy_cfg(num_classes=2)), data, 2, tc=tc)
        h2 = train_toy(sd.build_model(toy_cfg(num_classes=2)), data, 2, tc=tc)
        assert h1 == h2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way
    def test_diverged_loss_raises(self):
        # at lr = 1e6 the weights grow a millionfold per step until the loss
        # overflows; the run must stop there instead of returning
        model = sd.build_model(toy_cfg(num_classes=2, resolution=16))
        data = make_blobs(32, resolution=16, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=20, batch_size=8, lr=1e6, seed=0)
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            train_toy(model, data, 20, tc=tc)

    def test_metrics_records_have_the_contracted_fields(self):
        data = make_blobs(32, resolution=32, classes=2, seed=0)
        model = sd.build_model(toy_cfg(num_classes=2))
        tc = sd.TrainConfig(epochs=1, batch_size=16, seed=0)
        history = train_toy(model, data, 1, tc=tc)
        assert set(history[0]) == {"epoch", "split", "loss", "accuracy"}


    @pytest.mark.parametrize("epochs", [-1, 2.5, True])
    def test_epochs_that_are_not_counts_are_refused(self, epochs):
        # -1 used to return [] silently, and 2.5 died in range
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        with pytest.raises(ArgError, match="epochs must be"):
            train_toy(model, data, epochs)

    def test_zero_epochs_train_nothing(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        assert train_toy(model, data, 0) == []


class TestFinetune:
    @pytest.mark.parametrize("epochs", [-1, 2.5, True])
    @pytest.mark.parametrize("t_to", [1, 2])
    def test_epochs_that_are_not_counts_are_refused(self, epochs, t_to):
        # refused before the no-op shortcut for t_to == t_from
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        with pytest.raises(ArgError, match="epochs must be"):
            finetune_timesteps(model, 1, t_to, epochs, data)

    def test_rejects_bad_timesteps(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        with pytest.raises(ArgError):
            finetune_timesteps(model, 1, 0, 1, data)

    @pytest.mark.parametrize("t", [2.5, True, "2"])
    def test_equal_timesteps_that_are_not_counts_are_refused(self, t):
        # refused before the no-op shortcut for t_to == t_from, as (1, t) is
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        for t_from, t_to in ((t, t), (1, t)):
            with pytest.raises(ArgError, match="timestep count must be an integer"):
                finetune_timesteps(model, t_from, t_to, 1, data)

    def test_same_timesteps_is_a_noop(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        before = {n: v.data.copy() for n, v in model.named_params()}
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        assert finetune_timesteps(model, 1, 1, 5, data) == []
        for n, v in model.named_params():
            assert np.array_equal(before[n], v.data)

    def test_shape_audit_t2(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0)
        history = finetune_timesteps(model, 1, 2, 1, data, tc=tc)
        assert len(history) == 1
        logits = model.forward(data.images, timesteps=2)
        assert logits.data.shape == (16, 2)

    def test_bn_statistics_frozen_during_finetune(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(16, resolution=32, classes=2, seed=0)
        stats_before = {n: b.copy() for n, b in model.named_buffers()}
        tc = sd.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0)
        finetune_timesteps(model, 1, 2, 1, data, tc=tc)
        for n, b in model.named_buffers():
            assert np.array_equal(stats_before[n], b)


class TestTrainingModes:
    def test_sew_mode_trains_without_error(self):
        model = sd.build_model(toy_cfg(num_classes=2, shortcut="SEW"))
        data = make_blobs(32, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0)
        history = train_toy(model, data, 1, tc=tc)
        assert math.isfinite(history[0]["loss"])

    def test_vs_mode_trains_without_error(self):
        model = sd.build_model(toy_cfg(num_classes=2, shortcut="VS"))
        data = make_blobs(32, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0)
        history = train_toy(model, data, 1, tc=tc)
        assert math.isfinite(history[0]["loss"])


class TestDivergenceBound:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_blow_up_raises_at_the_first_bad_batch(self):
        # at lr = 1e6 the second batch loss is about 5e6, finite but far
        # above DIVERGENCE_FACTOR * max(first loss, ln 2)
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(64, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=2, batch_size=16, lr=1e6, seed=0)
        with pytest.raises(DivergenceError, match=r"at epoch 1, batch 2$"):
            train_toy(model, data, 2, tc=tc)

    def test_same_run_at_a_sane_rate_returns(self):
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(64, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=0)
        assert len(train_toy(model, data, 2, tc=tc)) == 2

    def test_bound_is_floored_at_chance_loss(self, monkeypatch):
        # a run whose first loss is near zero may rise to about ln K without
        # diverging; the losses are scaled here, 1e-6 on the first batch and
        # 0.1 after it, so the rise is 1e5-fold but stays below ln 2
        scales = iter([1e-6, 0.1, 0.1, 0.1])
        real = sd.train.loss

        def scaled(logits, labels, smoothing=0.0, tape=None):
            out = real(logits, labels, smoothing, tape=tape)
            return out if tape is None else ad.scale(tape, out, next(scales))

        monkeypatch.setattr(sd.train, "loss", scaled)
        model = sd.build_model(toy_cfg(num_classes=2))
        data = make_blobs(64, resolution=32, classes=2, seed=0)
        tc = sd.TrainConfig(epochs=1, batch_size=16, lr=1e-2, seed=0)
        assert len(train_toy(model, data, 1, tc=tc)) == 1


class TestDatasetChecks:
    @pytest.mark.parametrize("classes", [0, -2])
    def test_blobs_need_at_least_one_class(self, classes):
        with pytest.raises(ArgError, match="classes must be >= 1"):
            make_blobs(4, resolution=16, classes=classes)

    def test_blob_classes_cycle_over_the_four_quadrants(self):
        data = make_blobs(64, resolution=16, classes=6, seed=0, channels=1)
        quadrant = data.images[:, 0].reshape(64, 2, 8, 2, 8).mean(axis=(2, 4)).reshape(64, 4)
        lit = quadrant.argmax(axis=1)  # corners in order (0,0) (0,h) (h,0) (h,h)
        want = np.array([0, 3, 1, 2])[data.labels % 4]
        assert np.array_equal(lit, want) and set(data.labels) == set(range(6))

    def test_zero_samples_are_refused(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset(images=np.zeros((0, 3, 32, 32)), labels=np.zeros(0, dtype=np.int64))

    def test_images_and_labels_are_checked(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(images=np.full((2, 3, 16, 16), np.inf), labels=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="expected 2 labels"):
            Dataset(images=np.zeros((2, 3, 16, 16)), labels=np.zeros(3, dtype=np.int64))
        data = Dataset(images=np.zeros((2, 3, 16, 16), dtype=np.float32), labels=[1.0, 0.0])
        assert data.images.dtype == np.float64 and data.labels.dtype == np.int64


class TestFlipAugment:
    def test_each_batch_mirrors_exactly_the_drawn_images(self):
        from spikedrive.train import _iter_batches

        data = make_blobs(20, resolution=8, classes=2, seed=3)
        source = data.images.copy()
        batches = list(_iter_batches(data, 8, np.random.default_rng(5), flip=True))
        twin = np.random.default_rng(5)  # replays the draws: the order, then each batch's flips
        order, mirrored = twin.permutation(20), 0
        for start, (x, y) in zip(range(0, 20, 8), batches):
            idx = order[start:start + 8]
            flips = twin.random(len(idx)) < 0.5
            want = source[idx]
            want[flips] = want[flips, :, :, ::-1]
            assert np.array_equal(x, want) and np.array_equal(y, data.labels[idx])
            mirrored += int(flips.sum())
        assert 0 < mirrored < 20
        assert np.array_equal(data.images, source)
