"""Training: loss, layerwise-adaptive optimizer, toy-scale fitting, and the
short re-fit used when changing the timestep count."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var, backward
from .config import TrainConfig, fields_of
from .errors import ArgError, DivergenceError, check_int
from .model import Model
from .tensors import real_array

__all__ = ["loss", "OptimState", "step", "train_toy", "finetune_timesteps",
           "evaluate", "Dataset", "check_images", "check_labels", "make_blobs",
           "DIVERGENCE_FACTOR"]

# a batch loss above this multiple of max(first batch loss, ln K) for K
# classes is divergence: chance-level cross-entropy is ln K, and a healthy
# run stays near or below its first loss
DIVERGENCE_FACTOR = 1e3


def loss(logits, labels, smoothing: float = 0.0, tape: Tape | None = None) -> Var:
    """Label-smoothed cross-entropy over a (B, classes) logit batch. The
    labels go through :func:`check_labels`, as a ``Dataset``'s do, and must
    lie in [0, classes); any failure raises ``ArgError``."""
    logits = logits if isinstance(logits, Var) else Var(np.asarray(logits, dtype=np.float64))
    if logits.data.ndim != 2:
        raise ArgError(f"logits must be (B, classes), got {logits.data.shape}")
    labels = check_labels(labels, logits.data.shape[0])
    if labels.size and (labels.min() < 0 or labels.max() >= logits.data.shape[1]):
        raise ArgError("label out of range")
    return ad.cross_entropy(tape, logits, labels, smoothing)


@dataclass
class OptimState:
    """Per-parameter moment accumulators for the layerwise-adaptive update."""

    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eps: float = TrainConfig.eps
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, tc: TrainConfig) -> "OptimState":
        return cls(**fields_of(cls, vars(tc)))


def step(optim: OptimState, params: list[Var], lr: float | None = None):
    """One optimizer step: Adam-style moments with bias correction, decoupled
    weight decay, and a per-parameter trust ratio on the update norm."""
    optim.step_count += 1
    t = optim.step_count
    lr = optim.lr if lr is None else lr
    for p in params:
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if g.shape != p.data.shape:
            raise ArgError(f"gradient shape {g.shape} != param shape {p.data.shape}")
        key = id(p)
        m = optim.m.get(key)
        v = optim.v.get(key)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = optim.beta1 * m + (1 - optim.beta1) * g
        v = optim.beta2 * v + (1 - optim.beta2) * g * g
        optim.m[key], optim.v[key] = m, v
        m_hat = m / (1 - optim.beta1 ** t)
        v_hat = v / (1 - optim.beta2 ** t)
        update = m_hat / (np.sqrt(v_hat) + optim.eps) + optim.weight_decay * p.data
        w_norm = float(np.linalg.norm(p.data))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        p.data = p.data - lr * trust * update


def check_images(x) -> np.ndarray:
    """Validate and coerce input to a float64 (N, C, H, W) image batch
    (``tensors.real_array``); any failure raises ``ArgError``."""
    a = real_array("images", x)
    if a.ndim != 4:
        raise ArgError(f"expected (N, C, H, W) images, got shape {a.shape}")
    if a.shape[2] != a.shape[3]:
        raise ArgError("images must be square")
    if not np.all(np.isfinite(a)):
        raise ArgError("images must be finite")
    return a


def check_labels(y, n: int) -> np.ndarray:
    """``y`` as n int64 labels; whole-number floats pass. Raises ``ArgError``
    (a ``ValueError``) for any other shape or value."""
    labels = np.asarray(y)
    if labels.shape != (n,):
        raise ArgError(f"expected {n} labels, got shape {labels.shape}")
    if not (np.issubdtype(labels.dtype, np.integer)
            or np.array_equal(labels, labels.astype(np.int64))):
        raise ArgError("labels must be integers")
    return labels.astype(np.int64)


@dataclass
class Dataset:
    """A training set: finite float64 (N, C, H, W) square images and N
    integer labels, N >= 1 (``check_images`` and ``check_labels`` coerce and
    check them; any failure is an ``ArgError``)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = check_images(self.images)
        self.labels = check_labels(self.labels, len(self.images))
        if not len(self.images):
            raise ArgError("a dataset needs at least one sample, got 0")

    def __len__(self):
        return self.images.shape[0]


def make_blobs(n: int, resolution: int = 32, classes: int = 2, seed: int = 0,
               channels: int = 3) -> Dataset:
    """Image blobs: class y lights up spatial quadrant y mod 4 on top of pixel
    noise of standard deviation 0.25. Up to four classes are linearly
    separable by quadrant; beyond four, classes share quadrants. ``n``,
    ``classes`` or ``channels`` below 1, a ``resolution`` below 2 (a
    quadrant is at least one pixel), a ``seed`` below 0, or any of them not
    an integer, raises ``ArgError`` (``errors.check_int``)."""
    check_int("n", n, 1)
    check_int("classes", classes, 1)
    check_int("resolution", resolution, 2)
    check_int("channels", channels, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    images = rng.normal(0.0, 0.25, (n, channels, resolution, resolution))
    labels = rng.integers(0, classes, size=n)
    half = resolution // 2
    corners = [(0, 0), (half, half), (0, half), (half, 0)]
    for i, y in enumerate(labels):
        cy, cx = corners[y % len(corners)]
        images[i, :, cy:cy + half, cx:cx + half] += 1.0
    return Dataset(images=images, labels=labels)


def _iter_batches(data: Dataset, batch_size: int, rng: np.random.Generator,
                  flip: bool = False):
    order = rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = order[start:start + batch_size]
        x = data.images[idx]
        if flip:
            flips = rng.random(len(idx)) < 0.5
            x = x.copy()
            x[flips] = x[flips, :, :, ::-1]
        yield x, data.labels[idx]


def evaluate(model: Model, data: Dataset, timesteps: int | None = None,
             batch_size: int = 64) -> tuple[float, float]:
    """Eval-mode (loss, accuracy) over a dataset. A ``batch_size`` that is
    not an integer >= 1 raises ``ArgError``."""
    check_int("batch_size", batch_size, 1)
    total_loss = 0.0
    correct = 0
    for start in range(0, len(data), batch_size):
        x = data.images[start:start + batch_size]
        y = data.labels[start:start + batch_size]
        logits = model.forward(x, timesteps=timesteps)
        total_loss += float(loss(logits, y).data) * len(y)
        correct += int((logits.data.argmax(axis=1) == y).sum())
    return total_loss / len(data), correct / len(data)


def train_toy(model: Model, data: Dataset, epochs: int, tc: TrainConfig | None = None,
              timesteps: int | None = None, bn_frozen: bool = False,
              log=None) -> list[dict]:
    """Direct surrogate-gradient training at toy scale.

    Returns one metrics record per epoch: epoch, split, loss, accuracy.
    Deterministic for a fixed TrainConfig seed. With ``bn_frozen`` the
    forward runs in eval mode, so batch norm keeps its running statistics.
    Raises ``DivergenceError``, naming the epoch and batch, when a batch loss
    is not finite or exceeds ``DIVERGENCE_FACTOR`` times the larger of the
    call's first batch loss and ln K, for K logits. ``epochs`` that is not an
    integer >= 0 raises ``ArgError``.
    """
    check_int("epochs", epochs, 0)
    tc = tc or TrainConfig()
    optim = OptimState.from_config(tc)
    rng = np.random.default_rng(tc.seed)
    params = model.parameters()
    history = []
    limit = None
    for epoch in range(1, epochs + 1):
        lr = _lr_at(tc, optim.lr, epoch, epochs)
        batches = _iter_batches(data, tc.batch_size, rng, tc.augment_flip)
        for batch, (x, y) in enumerate(batches, 1):
            tape = Tape()
            model.zero_grad()
            logits = model.forward(x, timesteps=timesteps, tape=tape, training=not bn_frozen)
            batch_loss = loss(logits, y, tc.label_smoothing, tape=tape)
            value = float(batch_loss.data)
            if limit is None:
                limit = DIVERGENCE_FACTOR * max(value, math.log(logits.data.shape[1]))
            if not (math.isfinite(value) and value <= limit):
                raise DivergenceError(f"training diverged: loss is {value:.4g}, limit "
                                      f"{limit:.4g}, at epoch {epoch}, batch {batch}")
            backward(tape, batch_loss, params=params)
            step(optim, params, lr=lr)
        ep_loss, ep_acc = evaluate(model, data, timesteps=timesteps,
                                   batch_size=tc.batch_size)
        record = {"epoch": epoch, "split": "train", "loss": ep_loss, "accuracy": ep_acc}
        history.append(record)
        if log is not None:
            log(f"epoch {epoch} train loss {ep_loss:.4f} accuracy {ep_acc:.4f}")
    return history


def _lr_at(tc: TrainConfig, base: float, epoch: int, epochs: int) -> float:
    """The lr of epoch ``epoch`` of ``epochs``: the base throughout, or under
    ``cosine`` the base at epoch 1 falling along a half cosine that would
    reach 0 one epoch after the last, so every epoch moves the weights."""
    if tc.schedule == "cosine":
        return base * 0.5 * (1 + np.cos(np.pi * (epoch - 1) / epochs))
    return base


def finetune_timesteps(model: Model, t_from: int, t_to: int, epochs: int,
                       data: Dataset, tc: TrainConfig | None = None,
                       log=None) -> list[dict]:
    """Briefly re-fit a model trained at ``t_from`` timesteps to run at
    ``t_to``. Batch-norm statistics stay frozen (near-converged regime).
    ``epochs`` that is not an integer >= 0, or a timestep count that is not
    an integer >= 1, raises ``ArgError``, even when there is nothing to
    adapt."""
    check_int("epochs", epochs, 0)
    check_int("target timestep count", t_to, 1)
    check_int("source timestep count", t_from, 1)
    if epochs == 0 or t_to == t_from:
        return []  # nothing to adapt
    return train_toy(model, data, epochs, tc=tc, timesteps=t_to, bn_frozen=True, log=log)
