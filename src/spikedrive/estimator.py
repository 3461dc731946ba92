"""Scikit-learn-compatible classifier wrapper around toy-scale training.

Duck-typed against the estimator API (``get_params`` / ``set_params`` /
``fit`` / ``predict`` / ``score``) so the network slots into pipelines and
model-selection utilities without importing scikit-learn here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import ModelConfig, TrainConfig, fields_of
from .errors import ArgError, ConfigError
from .model import Model, build_model
from .neuron import LIFParams
from .train import Dataset, check_images, check_labels, train_toy

__all__ = ["SpikingClassifier", "check_images", "check_labels"]


@dataclass(eq=False)
class SpikingClassifier:
    """Image classifier with the estimator interface.

    Each parameter is a setting of ``ModelConfig``, ``TrainConfig`` or
    ``LIFParams`` under its field name (``seed`` seeds both configs), with a
    toy-scale default; ``fit`` passes each to the records that have it, by
    name (``config.fields_of``), and takes the class count, channels and
    resolution from the data. The parameters are the init fields, so
    ``get_params`` round-trips; the fitted attributes (ending in ``_``) are
    set by ``fit`` and are not parameters.
    """

    base_channels: int = 8
    depths: tuple = (1, 1, 1, 2, 1)
    timesteps: int = 1
    sdsa_variant: int = 3
    heads: int = 2
    shortcut: str = "MS"
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-2
    label_smoothing: float = 0.0
    seed: int = 0
    surrogate_window: float = 1.0
    model_: Model | None = field(default=None, init=False)
    classes_: np.ndarray | None = field(default=None, init=False)
    history_: list[dict] | None = field(default=None, init=False)

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def set_params(self, **params):
        names = self.get_params()
        for k, v in params.items():
            if k not in names:
                raise ArgError(f"invalid parameter {k!r} for SpikingClassifier")
            setattr(self, k, v)
        return self

    def fit(self, X, y):
        data = Dataset(X, y)
        self.classes_, data.labels = np.unique(data.labels, return_inverse=True)
        params = self.get_params()
        cfg = ModelConfig(**fields_of(ModelConfig, params), num_classes=len(self.classes_),
                          in_channels=data.images.shape[1], resolution=data.images.shape[2],
                          lif=LIFParams(**fields_of(LIFParams, params)))
        tc = TrainConfig(**fields_of(TrainConfig, params))
        self.model_ = build_model(cfg)
        self.history_ = train_toy(self.model_, data, self.epochs, tc=tc)
        return self

    def _logits(self, X) -> np.ndarray:
        if self.model_ is None:
            raise ConfigError("SpikingClassifier is not fitted; call fit first")
        return self.model_.forward(check_images(X)).data

    def predict(self, X):
        return self.classes_[self._logits(X).argmax(axis=1)]

    def predict_proba(self, X):
        z = self._logits(X)
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        return p / p.sum(axis=1, keepdims=True)

    def score(self, X, y):
        labels = check_labels(y, np.asarray(X).shape[0])
        return float((self.predict(X) == labels).mean())
