"""The error contract: every settings record refuses a value outside its
declared range with a ``ConfigError`` naming the field, and bad arguments to
the library's own checks raise a library error."""

import sys
import warnings
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedrive.attention import SDSAConfig
from spikedrive.blocks import _out_neurons
from spikedrive.config import ModelConfig, TrainConfig
from spikedrive.energy import estimate_energy, load_rate_fixture
from spikedrive.errors import ArgError, ConfigError, SpikeDriveError, check_int
from spikedrive.estimator import SpikingClassifier
from spikedrive.model import build_model
from spikedrive.neuron import LIFParams
from spikedrive.tensors import DenseTensor, IntTensor, SpikeTensor, load_event_file
from spikedrive.train import (Dataset, OptimState, check_images, finetune_timesteps,
                              make_blobs)

TINY = np.nextafter(0.0, np.inf)
BELOW_0 = np.nextafter(0.0, -np.inf)
BELOW_1 = np.nextafter(1.0, -np.inf)

# Every declared edge, written out: (record, field, nearest value inside,
# nearest value outside, other settings the inside value needs to build).
# An outside value below the inside one is a lower bound, above it an upper.
EDGES = [
    (ModelConfig, "base_channels", 1, 0, {"heads": 2}),  # stage-4 width 10
    (ModelConfig, "num_classes", 1, 0, {}),
    (ModelConfig, "in_channels", 1, 0, {}),
    (ModelConfig, "resolution", 16, 15, {}),
    (ModelConfig, "timesteps", 1, 0, {}),
    (ModelConfig, "heads", 1, 0, {}),
    (ModelConfig, "threshold_scale", TINY, 0.0, {}),
    (ModelConfig, "seed", 0, -1, {}),
    (ModelConfig, "stage4_dim", 1, 0, {"heads": 1}),
    (TrainConfig, "epochs", 0, -1, {}),
    (TrainConfig, "batch_size", 1, 0, {}),
    (TrainConfig, "lr", TINY, 0.0, {}),
    (TrainConfig, "weight_decay", 0.0, BELOW_0, {}),
    (TrainConfig, "beta1", 0.0, BELOW_0, {}),
    (TrainConfig, "beta1", BELOW_1, 1.0, {}),
    (TrainConfig, "beta2", 0.0, BELOW_0, {}),
    (TrainConfig, "beta2", BELOW_1, 1.0, {}),
    (TrainConfig, "eps", TINY, 0.0, {}),
    (TrainConfig, "label_smoothing", 0.0, BELOW_0, {}),
    (TrainConfig, "label_smoothing", BELOW_1, 1.0, {}),
    (TrainConfig, "seed", 0, -1, {}),
    (LIFParams, "u_th", TINY, 0.0, {}),
    (LIFParams, "beta", TINY, 0.0, {}),
    (LIFParams, "beta", BELOW_1, 1.0, {}),
    (LIFParams, "threshold_scale", TINY, 0.0, {}),
    (LIFParams, "surrogate_window", TINY, 0.0, {}),
    (SDSAConfig, "heads", 1, 0, {}),
    (SDSAConfig, "threshold_scale", TINY, 0.0, {}),
]


def _edge_id(edge):
    cls, name, inside, outside, _ = edge
    return f"{cls.__name__}.{name}-{'upper' if outside > inside else 'lower'}"


class TestDeclaredEdges:
    @pytest.mark.parametrize("edge", EDGES, ids=_edge_id)
    def test_nearest_values_inside_and_outside(self, edge):
        cls, name, inside, outside, others = edge
        assert getattr(cls(**others, **{name: inside}), name) == inside
        with pytest.raises(ConfigError, match=name):
            cls(**others, **{name: outside})

    def test_depths_count_blocks(self):
        assert ModelConfig(depths=(0, 0, 0, 0, 0)).depths == (0, 0, 0, 0, 0)
        with pytest.raises(ConfigError, match="depths"):
            ModelConfig(depths=(1, 1, -1, 6, 2))

    @pytest.mark.parametrize("cls,name,choices,refused", [
        (ModelConfig, "shortcut", ("MS", "SEW", "VS"), "ms"),
        (TrainConfig, "schedule", ("constant", "cosine"), "linear")])
    def test_str_choices(self, cls, name, choices, refused):
        for choice in choices:
            assert getattr(cls(**{name: choice}), name) == choice
        with pytest.raises(ConfigError, match=name):
            cls(**{name: refused})

    def test_optimizer_defaults_are_the_config_defaults(self):
        optim, tc = OptimState(), TrainConfig()
        assert (optim.lr, optim.weight_decay, optim.beta1, optim.beta2, optim.eps) == (
            tc.lr, tc.weight_decay, tc.beta1, tc.beta2, tc.eps)


class TestHugeNumbers:
    @pytest.mark.parametrize("cls,name", [(TrainConfig, "lr"), (LIFParams, "u_th"),
                                          (SDSAConfig, "threshold_scale"),
                                          (ModelConfig, "threshold_scale")])
    def test_an_int_beyond_float_range_is_not_finite(self, cls, name):
        with pytest.raises(ConfigError, match=f"{name} must be finite, got 1000"):
            cls(**{name: 10**400})


    @pytest.mark.parametrize("cls,name,value,message", [
        (TrainConfig, "lr", 10**5000, "lr must be finite, got an integer of 5001 digits"),
        (TrainConfig, "seed", -10**5000,
         "seed must be >= 0, got a negative integer of 5001 digits"),
        (TrainConfig, "schedule", 10**5000 - 1,
         "schedule: an integer of 5000 digits is not a str")], ids=["lr", "seed", "schedule"])
    def test_an_int_too_long_to_print_is_refused_by_its_digit_count(self, cls, name, value,
                                                                   message):
        # Python refuses to print an int of more than 4300 digits
        with pytest.raises(ConfigError, match=f"^{message}"):
            cls(**{name: value})

    @pytest.mark.parametrize("value,shown", [(sys.maxsize + 1, str(sys.maxsize + 1)),
                                             (2**70, str(2**70)),
                                             (10**5000, "an integer of 5001 digits")],
                             ids=["maxsize+1", "2**70", "10**5000"])
    def test_check_int_refuses_an_int_past_maxsize(self, value, shown):
        check_int("n", sys.maxsize, 1)
        with pytest.raises(ArgError, match=f"^n must be <= {sys.maxsize}, got {shown}$"):
            check_int("n", value, 1)

    def test_check_int_names_a_huge_negative_int_by_its_digit_count(self):
        with pytest.raises(ArgError, match="^n must be >= 1, got a negative integer of 5001"):
            check_int("n", -10**5000, 1)

    def test_library_calls_refuse_an_int_past_maxsize(self):
        with pytest.raises(ArgError, match="timesteps must be <="):
            estimate_energy(ModelConfig(base_channels=48), load_rate_fixture(), 10**400)
        model = build_model(ModelConfig(base_channels=4, resolution=32, num_classes=2))
        data = make_blobs(4, resolution=32, classes=2, seed=0)
        with pytest.raises(ArgError, match="target timestep count must be <="):
            finetune_timesteps(model, 1, 2**70, 1, data)


def _numeric_fields():
    for cls in (ModelConfig, TrainConfig, LIFParams, SDSAConfig):
        for name, t in get_type_hints(cls).items():
            if t in (int, float, int | None, float | None):
                yield cls, name


# a value of each kind a caller can pass to a numeric field
VALUES = st.one_of(st.integers(-2**70, 2**70), st.integers(10**308, 10**400),
                   st.integers(-10**400, -10**308), st.booleans(),
                   st.floats(allow_nan=True, allow_infinity=True))


def _outside(cls, name, value) -> bool:
    """Whether ``value`` is a finite number beyond one of the field's edges."""
    if isinstance(value, bool) or not -np.inf < value < np.inf:
        return False
    for edge_cls, edge_name, inside, outside, _ in EDGES:
        if (edge_cls, edge_name) == (cls, name):
            if value <= outside < inside or value >= outside > inside:
                return True
    return False


class TestSettingsProperty:
    @pytest.mark.parametrize("cls,name", list(_numeric_fields()),
                             ids=lambda v: getattr(v, "__name__", v))
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(value=VALUES)
    def test_a_value_builds_or_is_refused_naming_its_field(self, cls, name, value):
        try:
            record = cls(**{name: value})
        except ConfigError as exc:
            # a width may be refused by the heads-divide-width rule instead
            assert name in str(exc) or " heads" in str(exc), str(exc)
        else:
            assert not _outside(cls, name, value), f"{cls.__name__}({name}={value}) built"
            assert getattr(record, name) is value


class TestLibraryErrors:
    """Bad arguments raise a library error that is also a ``ValueError``."""

    @pytest.mark.parametrize("call", [
        lambda tmp: make_blobs(2.5),
        lambda tmp: load_event_file(tmp, bins=2.5, resolution=(2, 2)),
        lambda tmp: load_event_file(tmp, bins=1, resolution=(2, 2), channels=3),
        lambda tmp: SpikeTensor(np.full((2, 2), 0.5)),
        lambda tmp: DenseTensor(np.full((2, 2), np.inf)),
        lambda tmp: IntTensor(np.full((2, 2), -1)),
        lambda tmp: check_images(np.zeros((2, 3, 4))),
        lambda tmp: check_images(np.zeros((2, 3, 4, 5))),
        lambda tmp: check_images(np.full((2, 3, 4, 4), np.nan)),
        lambda tmp: Dataset(images=np.zeros((0, 3, 4, 4)), labels=np.zeros(0, dtype=int)),
        lambda tmp: _out_neurons(LIFParams(), "XX", "block"),
        lambda tmp: SpikingClassifier().set_params(nonsense=1),
    ], ids=["make_blobs_n", "event_bins", "event_channels", "spike_values", "dense_values",
            "int_values", "image_rank", "image_square", "image_finite", "empty_dataset",
            "shortcut", "set_params"])
    def test_raises_a_library_value_error(self, call, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("0,0,0,1\n")
        with pytest.raises(ArgError) as caught:
            call(events)
        assert isinstance(caught.value, SpikeDriveError)
        assert isinstance(caught.value, ValueError)


# the toy net of ROADMAP item 12's probes: C=4, 16x16, depths (1, 1, 1, 2, 1)
_PROBE_NET = dict(base_channels=4, num_classes=2, resolution=16, depths=(1, 1, 1, 2, 1),
                  heads=2, seed=0, timesteps=1)


class TestOutsideArrays:
    """An array from outside the library is refused with ``ArgError`` naming
    its argument unless it is a rectangular array of real numbers, at each of
    the entry points that convert one (``tensors.real_array``), before numpy
    can raise its own error or warn."""

    @pytest.fixture
    def model(self):
        return build_model(ModelConfig(**_PROBE_NET))

    @pytest.mark.parametrize("bad,match", [
        ("abc", "must hold real numbers, got dtype <U3"),
        ([[1.0, 2.0], [3.0]], "must be a rectangular array"),
        (np.full((1, 3, 16, 16), 1 + 1j), "must hold real numbers, got dtype complex128"),
    ], ids=["text", "ragged", "complex"])
    @pytest.mark.parametrize("entry,name", [
        ("dense", "DenseTensor values"), ("images", "images"), ("forward", "x")])
    def test_refused_with_the_argument_named_and_no_warning(self, model, entry, name, bad,
                                                            match):
        call = {"dense": DenseTensor, "images": check_images, "forward": model.forward}[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning would fail the test
            with pytest.raises(ArgError, match=f"^{name} {match}"):
                call(bad)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_an_input_that_overflows_the_encoding_conv_is_refused(self, model, training):
        # finite, but the encoding conv's sums overflow to +-inf
        x = np.full((1, 3, 16, 16), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArgError, match=r"^x is too large: stage1\.ds1\.conv's output"):
                model.forward(x, training=training)

    def test_a_finite_encoding_passes_the_check(self, model):
        x = np.random.default_rng(0).random((2, 3, 16, 16))
        assert np.isfinite(model.forward(x).data).all()
