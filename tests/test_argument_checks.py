"""Integer arguments go through the library's typed checks: a value that is
not an integer in range raises ``ArgError`` (``errors.check_int``), a conv's
geometry ``ShapeError``, and an int setting above ``sys.maxsize``
``ConfigError``, each naming what it refuses. A refused forward changes
nothing that a later forward reads, and a settings record is built from
the values that name its fields."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedrive import attention, energy, kernels, train
from spikedrive.attention import SDSAConfig
from spikedrive.config import ModelConfig, TrainConfig, fields_of, parse_config_text
from spikedrive.errors import ArgError, ConfigError, ShapeError, SpikeDriveError
from spikedrive.model import build_model
from spikedrive.tensors import DenseTensor, SpikeTensor, load_event_file

# a toy net: C=4 at 16x16
_NET = dict(base_channels=4, num_classes=2, resolution=16, depths=(1, 0, 1, 1, 1), heads=2)

_Q = SpikeTensor(np.eye(4, dtype=np.uint8))
_D = DenseTensor(np.eye(4))


@pytest.fixture(scope="module")
def model():
    return build_model(ModelConfig(**_NET))


@pytest.fixture(scope="module")
def data():
    return train.make_blobs(2, resolution=16, classes=2, seed=0)


@pytest.fixture(scope="module")
def events(tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.txt"
    path.write_text("0,0,0,1\n5,1,1,0\n")
    return path


class TestOneSourcePerSetting:
    def test_fields_of_keeps_the_values_that_name_a_field(self):
        values = {"lr": 0.5, "heads": 2, "seed": 3, "eps": 1e-3}
        assert fields_of(TrainConfig, values) == {"lr": 0.5, "seed": 3, "eps": 1e-3}
        assert TrainConfig(**fields_of(TrainConfig, values)) == TrainConfig(lr=0.5, seed=3,
                                                                              eps=1e-3)

    def test_a_stage_sdsa_record_is_built_from_the_model_settings(self):
        cfg = ModelConfig(sdsa_variant=4, heads=2, threshold_scale=0.5)
        assert cfg.sdsa(12) == SDSAConfig(variant=4, heads=2, dim=12, threshold_scale=0.5)
        with pytest.raises(ConfigError, match="dim 13 not divisible by 2 heads"):
            cfg.sdsa(13)


class TestRefusedTrainingForward:
    @pytest.mark.parametrize("value", [1e308, 1e200], ids=["output-inf", "variance-inf"])
    def test_the_running_statistics_do_not_move(self, value):
        net = build_model(ModelConfig(**_NET))
        before = {name: buf.tobytes() for name, buf in net.named_buffers()}
        with np.errstate(all="ignore"):
            with pytest.raises(ArgError, match=r"^x is too large: stage1\.ds1\.conv's output"):
                net.forward(np.full((1, 3, 16, 16), value), training=True)
        assert {name: buf.tobytes() for name, buf in net.named_buffers()} == before
        x = np.random.default_rng(0).random((2, 3, 16, 16))
        assert np.isfinite(net.forward(x).data).all()


class TestHeads:
    @pytest.mark.parametrize("heads", [0, -1, 2.0, True, None])
    @pytest.mark.parametrize("call", [
        lambda h: attention.sdsa3(_Q, _Q, _Q, heads=h),
        lambda h: attention.sdsa4(_Q, _Q, _Q, 0.5, heads=h),
        lambda h: attention.split_heads(np.eye(4), h),
        lambda h: attention.vsa_reference(_D, _D, _D, heads=h),
    ], ids=["sdsa3", "sdsa4", "split_heads", "vsa_reference"])
    def test_heads_must_be_an_integer_of_at_least_one(self, call, heads):
        with pytest.raises(ArgError, match="^heads must be"):
            call(heads)


class TestIntegerArguments:
    @pytest.mark.parametrize("call,name", [
        (lambda m, d, e: energy.flops_conv(3.5, 4, 4, 1, 1), "k"),
        (lambda m, d, e: energy.flops_mlp(2.5, 3), "c_in"),
        (lambda m, d, e: energy.flops_conv_dw(3, 4, 4, 0), "c_out"),
        (lambda m, d, e: energy.sdsa_flops(3, 2, 4, 1.5, [1.0]), "timesteps"),
        (lambda m, d, e: energy.vsa_flops(2.5, 4), "n"),
        (lambda m, d, e: train.evaluate(m, d, batch_size=0), "batch_size"),
        (lambda m, d, e: train.evaluate(m, d, batch_size=2.5), "batch_size"),
        (lambda m, d, e: train.make_blobs(2, resolution=0), "resolution"),
        (lambda m, d, e: train.make_blobs(2, resolution=1), "resolution"),
        (lambda m, d, e: train.make_blobs(2, channels=0), "channels"),
        (lambda m, d, e: train.make_blobs(2, seed=-1), "seed"),
        (lambda m, d, e: load_event_file(e, 2, (2.5, 4)), "resolution height"),
        (lambda m, d, e: load_event_file(e, 2, (4, 0)), "resolution width"),
        (lambda m, d, e: load_event_file(e, 2, 4), "resolution"),
        (lambda m, d, e: load_event_file(e, 2, (4, 4), channels=1.0), "channels"),
    ], ids=["flops_conv", "flops_mlp", "flops_conv_dw", "sdsa_flops", "vsa_flops",
            "evaluate_0", "evaluate_float", "blobs_resolution_0", "blobs_resolution_1",
            "blobs_channels", "blobs_seed", "event_height", "event_width", "event_pair",
            "event_channels"])
    def test_refused_naming_the_argument(self, model, data, events, call, name):
        with pytest.raises(ArgError, match=f"^{name} must"):
            call(model, data, events)


class TestConvGeometryIntegers:
    @pytest.mark.parametrize("geometry", [dict(stride=1.5), dict(padding=0.5),
                                          dict(stride=sys.maxsize + 1),
                                          dict(padding=10**30)])
    def test_a_kernel_refuses_a_non_integer_or_huge_geometry(self, geometry):
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            kernels.ConvKernel(np.ones((1, 1, 3, 3)), **geometry)

    def test_a_kernel_refuses_non_integer_groups(self):
        with pytest.raises(ShapeError, match="groups must be a positive divisor"):
            kernels.ConvKernel(np.ones((3, 1, 3, 3)), groups=1.5)

    def test_the_array_entry_refuses_a_float_stride_and_takes_numpy_ints(self):
        x, w = np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3))
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            kernels.conv2d_core(x, w, 2.0, 1)
        out, _ = kernels.conv2d_core(x, w, np.int64(2), np.int64(1))
        assert np.array_equal(out, kernels.conv2d_core(x, w, 2, 1)[0])
        kern = kernels.ConvKernel(np.ones((1, 1, 3, 3)), stride=np.int32(2))
        assert kernels.dense_conv2d(DenseTensor(x[0]), kern).shape == (1, 2, 2)


class TestIntSettingBound:
    def test_a_huge_base_channels_is_refused_by_name(self):
        with pytest.raises(ConfigError, match="^base_channels must be <="):
            ModelConfig(base_channels=10**22)
        with pytest.raises(ConfigError, match="^base_channels must be <="):
            parse_config_text("[model]\nbase_channels = 99999999999999999999999\n")

    def test_stage_widths_above_maxsize_are_refused(self):
        with pytest.raises(ConfigError, match="^base_channels .* makes a stage wider than"):
            ModelConfig(base_channels=sys.maxsize // 4, heads=1)

    @pytest.mark.parametrize("cls,name", [(TrainConfig, "epochs"), (SDSAConfig, "dim"),
                                          (ModelConfig, "sdsa_variant")])
    def test_every_int_setting_has_the_bound(self, cls, name):
        with pytest.raises(ConfigError, match=f"^{name} must be <= {sys.maxsize}"):
            cls(**{name: sys.maxsize + 1})


# the conv of the flops_conv rows: k, h, w, c_in, c_out
_CONV = (3, 4, 4, 2, 2)
_X, _W = np.ones((1, 2, 5, 5)), np.ones((2, 2, 3, 3))

# Every argument fuzzed below, with valid values for the others: its label
# and the call of one value v, given the model m, the dataset d and the event
# file e. Small ints keep every array tiny.
_ENTRIES = {
    **{f"flops_conv.{n}": (lambda v, m, d, e, i=i: energy.flops_conv(*_CONV[:i], v,
                                                                     *_CONV[i + 1:]))
       for i, n in enumerate(("k", "h", "w", "c_in", "c_out"))},
    "flops_conv_dw.c": lambda v, m, d, e: energy.flops_conv_dw(3, 4, 4, v),
    "flops_mlp.i": lambda v, m, d, e: energy.flops_mlp(v, 3),
    "flops_mlp.o": lambda v, m, d, e: energy.flops_mlp(3, v),
    "sdsa_flops.n": lambda v, m, d, e: energy.sdsa_flops(3, v, 4, 1, [0.5]),
    "sdsa_flops.d": lambda v, m, d, e: energy.sdsa_flops(1, 4, v, 1, [0.5]),
    "sdsa_flops.timesteps": lambda v, m, d, e: energy.sdsa_flops(3, 4, 4, v, [0.5]),
    "vsa_flops.n": lambda v, m, d, e: energy.vsa_flops(v, 4),
    "vsa_flops.d": lambda v, m, d, e: energy.vsa_flops(4, v),
    "evaluate.batch_size": lambda v, m, d, e: train.evaluate(m, d, batch_size=v),
    "make_blobs.n": lambda v, m, d, e: train.make_blobs(v, resolution=4),
    "make_blobs.resolution": lambda v, m, d, e: train.make_blobs(2, resolution=v),
    "make_blobs.classes": lambda v, m, d, e: train.make_blobs(2, resolution=4, classes=v),
    "make_blobs.seed": lambda v, m, d, e: train.make_blobs(2, resolution=4, seed=v),
    "make_blobs.channels": lambda v, m, d, e: train.make_blobs(2, resolution=4, channels=v),
    "load_event_file.bins": lambda v, m, d, e: load_event_file(e, v, (2, 2)),
    "load_event_file.height": lambda v, m, d, e: load_event_file(e, 2, (v, 2)),
    "load_event_file.width": lambda v, m, d, e: load_event_file(e, 2, (2, v)),
    "load_event_file.resolution": lambda v, m, d, e: load_event_file(e, 2, v),
    "load_event_file.channels": lambda v, m, d, e: load_event_file(e, 2, (2, 2), v),
    "ConvKernel.stride": lambda v, m, d, e: kernels.ConvKernel(_W[:, :1], stride=v),
    "ConvKernel.padding": lambda v, m, d, e: kernels.ConvKernel(_W[:, :1], padding=v),
    "ConvKernel.groups": lambda v, m, d, e: kernels.ConvKernel(_W[:, :1], groups=v),
    "conv2d_core.stride": lambda v, m, d, e: kernels.conv2d_core(_X, _W, v, 1),
    "conv2d_core.padding": lambda v, m, d, e: kernels.conv2d_core(_X, _W, 1, v),
    "conv2d_core.groups": lambda v, m, d, e: kernels.conv2d_core(_X, _W[:, :1], 1, 1, v),
    "sdsa3.heads": lambda v, m, d, e: attention.sdsa3(_Q, _Q, _Q, heads=v),
    "split_heads.heads": lambda v, m, d, e: attention.split_heads(np.eye(4), v),
    "build_model.base_channels": lambda v, m, d, e: build_model(
        ModelConfig(**_NET | dict(base_channels=v, heads=1))),
    "build_model.stage4_dim": lambda v, m, d, e: build_model(
        ModelConfig(**_NET | dict(stage4_dim=v, heads=1))),
}

# a value of each kind a caller can pass where an int belongs
VALUES = st.one_of(st.integers(-3, 12), st.integers(sys.maxsize + 1, 10**30),
                   st.integers(-10**30, -sys.maxsize), st.booleans(), st.none(),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.text(max_size=3))


class TestArgumentProperty:
    """Each call returns or raises a library error, never a bare built-in
    exception or a numpy one. Budget: 34 arguments x 50 derandomized
    examples, about 3 s on 2 CPUs (4% of the suite)."""

    @pytest.mark.parametrize("label", list(_ENTRIES))
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(value=VALUES)
    def test_returns_or_raises_a_library_error(self, model, data, events, label, value):
        try:
            _ENTRIES[label](value, model, data, events)
        except SpikeDriveError:
            pass
