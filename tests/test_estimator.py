import numpy as np
import pytest

from spikedrive.errors import ConfigError
from spikedrive.estimator import SpikingClassifier, check_images, check_labels
from spikedrive.train import make_blobs


class TestValidationHelpers:
    def test_check_images_shapes(self):
        with pytest.raises(ValueError):
            check_images(np.zeros((4, 32, 32)))
        with pytest.raises(ValueError):
            check_images(np.zeros((4, 3, 32, 16)))
        with pytest.raises(ValueError):
            check_images(np.full((1, 3, 32, 32), np.nan))
        out = check_images(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.dtype == np.float64

    def test_check_labels(self):
        with pytest.raises(ValueError):
            check_labels(np.zeros((3, 1)), 3)
        with pytest.raises(ValueError):
            check_labels(np.array([0.5, 1.0]), 2)
        assert check_labels([1, 0], 2).dtype == np.int64


class TestEstimatorApi:
    def test_get_set_params_roundtrip(self):
        clf = SpikingClassifier(epochs=3, lr=0.02)
        params = clf.get_params()
        assert params["epochs"] == 3 and params["lr"] == 0.02
        clf2 = SpikingClassifier().set_params(**params)
        assert clf2.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            SpikingClassifier().set_params(banana=1)

    def test_predict_before_fit_fails(self):
        with pytest.raises(ConfigError):
            SpikingClassifier().predict(np.zeros((1, 3, 32, 32)))

    def test_fit_predict_score_on_blobs(self):
        data = make_blobs(96, resolution=32, classes=2, seed=0)
        clf = SpikingClassifier(base_channels=4, depths=(1, 1, 1, 1, 1), heads=2,
                                epochs=12, batch_size=32, lr=1e-2, seed=42)
        # widen the surrogate for fast toy convergence
        clf.fit(data.images, data.labels)
        preds = clf.predict(data.images)
        assert preds.shape == (96,)
        assert set(np.unique(preds)) <= {0, 1}
        score = clf.score(data.images, data.labels)
        assert score == clf.history_[-1]["accuracy"] or score >= 0.5

    def test_label_remapping(self):
        # labels need not be 0..K-1
        data = make_blobs(48, resolution=32, classes=2, seed=1)
        labels = np.where(data.labels == 0, 7, 42)
        clf = SpikingClassifier(base_channels=4, depths=(1, 0, 1, 1, 1), heads=2,
                                epochs=1, batch_size=16, lr=1e-3, seed=0)
        clf.fit(data.images, labels)
        preds = clf.predict(data.images[:4])
        assert set(np.unique(preds)) <= {7, 42}

    def test_predict_proba_rows_sum_to_one(self):
        data = make_blobs(32, resolution=32, classes=2, seed=2)
        clf = SpikingClassifier(base_channels=4, depths=(1, 0, 1, 1, 1), heads=2,
                                epochs=1, batch_size=16, lr=1e-3, seed=0)
        clf.fit(data.images, data.labels)
        proba = clf.predict_proba(data.images[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestFitChecks:
    def test_fit_on_zero_images_is_refused(self):
        clf = SpikingClassifier(base_channels=4, depths=(1, 0, 1, 1, 1), heads=2, epochs=1)
        with pytest.raises(ValueError, match="at least one sample"):
            clf.fit(np.zeros((0, 3, 32, 32)), np.zeros(0, dtype=np.int64))

    def test_check_functions_live_in_train(self):
        from spikedrive import estimator, train

        assert estimator.check_images is train.check_images
        assert estimator.check_labels is train.check_labels
