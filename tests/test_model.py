import gc
import struct
import weakref
import zlib

import numpy as np
import pytest

import spikedrive as sd
from spikedrive import autodiff, blocks, train
from spikedrive.blocks import fold_bn
from spikedrive.errors import ArgError, CheckpointError, ConfigError, ShapeError
from spikedrive.instrument import Probe
from spikedrive.kernels import conv2d_raw
from spikedrive.neuron import LIFParams


def toy_cfg(**kw):
    base = dict(base_channels=4, num_classes=3, resolution=32, depths=(1, 1, 1, 1, 1),
                heads=2, seed=42, timesteps=2, lif=LIFParams(u_th=0.5))
    base.update(kw)
    return sd.ModelConfig(**base)


class TestBuild:
    def test_paper_scale_stage_dims(self):
        assert sd.ModelConfig(base_channels=32).dims == (32, 64, 128, 256, 360)
        assert sd.ModelConfig(base_channels=48).dims == (48, 96, 192, 384, 480)
        assert sd.ModelConfig(base_channels=64).dims == (64, 128, 256, 512, 640)

    def test_toy_builds_and_forwards(self):
        model = sd.build_model(toy_cfg())
        x = np.zeros((1, 3, 32, 32))
        out = sd.forward(model, x)
        assert out.shape == (1, 3)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            sd.ModelConfig(base_channels=0)
        with pytest.raises(ConfigError):
            sd.ModelConfig(base_channels=4, heads=3)  # 32 % 3 != 0
        with pytest.raises(ConfigError):
            sd.ModelConfig(shortcut="XX")
        with pytest.raises(ConfigError):
            sd.ModelConfig(resolution=8)  # pyramid would collapse

    def test_spatial_flow_halves_through_stages(self):
        # input H -> H/2 -> H/4 -> H/8 -> H/16 -> H/16
        model = sd.build_model(toy_cfg(resolution=64))
        probe = Probe()
        model.forward(np.zeros((1, 3, 64, 64)), probe=probe)
        spans = {}
        for layer in (model.ds1, model.ds2, model.ds3, model.ds4, model.ds5):
            spans[layer.name] = None
        # verify via direct shape propagation
        from spikedrive.kernels import conv_output_size
        h = 64
        sizes = []
        for k, s in ((7, 2), (3, 2), (3, 2), (3, 2), (3, 1)):
            h = conv_output_size(h, k, s, k // 2)
            sizes.append(h)
        assert sizes == [32, 16, 8, 4, 4]

    def test_unique_parameter_names(self):
        model = sd.build_model(toy_cfg())
        names = [n for n, _ in model.named_params()]
        assert len(names) == len(set(names))


class TestForward:
    def test_deterministic_repeat(self):
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(0).normal(0, 3, (2, 3, 32, 32))
        a = sd.forward(model, x, timesteps=1)
        b = sd.forward(model, x, timesteps=1)
        assert np.array_equal(a.data, b.data)

    def test_zero_image_zero_head_gives_zero_logits(self):
        model = sd.build_model(toy_cfg())
        model.head.w.data = np.zeros_like(model.head.w.data)
        out = sd.forward(model, np.zeros((1, 3, 32, 32)))
        assert np.array_equal(out.data, np.zeros((1, 3)))

    def test_golden_logits_fixture(self):
        # frozen from a seeded dense-composition run of this configuration
        model = sd.build_model(toy_cfg())
        x = 3.0 * np.random.default_rng(99).normal(0, 1, (2, 3, 32, 32))
        got = sd.forward(model, x)
        want = np.array([
            [-0.39231347010428130, -0.65358175732053680, -0.14007097924056092],
            [-0.32787194074482529, -0.58037852742371943, -0.11208502514981998],
        ])
        assert np.allclose(got.data, want, atol=1e-12)

    def test_event_tensor_input(self):
        model = sd.build_model(toy_cfg(in_channels=1))
        x = (np.random.default_rng(1).random((3, 2, 1, 32, 32)) < 0.3).astype(float)
        out = sd.forward(model, x)
        assert out.shape == (2, 3)

    def test_shape_errors(self):
        model = sd.build_model(toy_cfg())
        with pytest.raises(ShapeError):
            sd.forward(model, np.zeros((3, 32, 32)))
        with pytest.raises(ShapeError):
            sd.forward(model, np.zeros((1, 2, 32, 32)))  # wrong channel count

    def test_static_input_is_replicated_across_time(self):
        # T=1 logits from a (B,C,H,W) input equal those from the stacked (1,B,C,H,W)
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(2).normal(0, 3, (1, 3, 32, 32))
        a = sd.forward(model, x, timesteps=1)
        b = sd.forward(model, x[None])
        assert np.array_equal(a.data, b.data)

    def test_empty_event_tensor_is_a_shape_error(self):
        model = sd.build_model(toy_cfg())
        with pytest.raises(ShapeError):
            sd.forward(model, np.zeros((0, 1, 3, 32, 32)))

    @pytest.mark.parametrize("shape", [(0, 3, 32, 32), (2, 0, 3, 32, 32)])
    def test_empty_batch_is_a_shape_error(self, shape):
        # an empty batch has no firing rate to record
        model = sd.build_model(toy_cfg())
        with pytest.raises(ShapeError, match="B >= 1"):
            sd.forward(model, np.zeros(shape))

    @pytest.mark.parametrize("timesteps", [0, -1])
    def test_timesteps_below_one_are_refused(self, timesteps):
        # 0 is a value, not "use the config's T=2"
        model = sd.build_model(toy_cfg())
        with pytest.raises(ArgError, match="timesteps"):
            sd.forward(model, np.zeros((1, 3, 32, 32)), timesteps=timesteps)

    @pytest.mark.parametrize("timesteps", [2.5, 2.0, True, "2"])
    def test_timesteps_that_are_not_integers_are_refused(self, timesteps):
        # 2.5 used to die in list repetition, and True ran one step
        model = sd.build_model(toy_cfg())
        with pytest.raises(ArgError, match="timesteps must be an integer"):
            sd.forward(model, np.zeros((1, 3, 32, 32)), timesteps=timesteps)

    def test_numpy_integer_timesteps_are_accepted(self):
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(3).normal(0, 3, (1, 3, 32, 32))
        assert np.array_equal(sd.forward(model, x, timesteps=np.int64(2)).data,
                              sd.forward(model, x, timesteps=2).data)

    @pytest.mark.parametrize("timesteps", [0, -1, 2, 4])
    def test_event_tensor_refuses_timesteps_other_than_its_t(self, timesteps):
        # the event tensor fixes T; a different value would be ignored
        model = sd.build_model(toy_cfg())
        with pytest.raises(ArgError, match="timesteps"):
            sd.forward(model, np.zeros((3, 1, 3, 32, 32)), timesteps=timesteps)

    def test_event_tensor_accepts_its_own_t(self):
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(3).normal(0, 3, (3, 1, 3, 32, 32))
        assert np.array_equal(sd.forward(model, x, timesteps=3).data, sd.forward(model, x).data)

    def test_other_resolution_is_a_shape_error(self):
        # rates recorded at 40x40 would not match the FLOPs charged at 32x32
        model = sd.build_model(toy_cfg())
        with pytest.raises(ShapeError, match="32, 32"):
            sd.forward(model, np.zeros((1, 3, 40, 40)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, bad):
        model = sd.build_model(toy_cfg())
        x = np.zeros((1, 3, 32, 32))
        x[0, 1, 5, 7] = bad
        with pytest.raises(ArgError, match="finite"):
            sd.forward(model, x)


class TestFoldedInferenceOracle:
    def test_encoding_plus_first_block_match_folded_route(self):
        # independent dense composition through folded kernels
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(3).normal(0, 2, (1, 3, 32, 32))
        probe = Probe()
        from spikedrive.autodiff import Var
        from spikedrive.blocks import ForwardContext
        ctx = ForwardContext(probe=probe)
        z = model.ds1.forward(Var(x), ctx)
        got = model.stage1a[0].forward(z, ctx).data

        kern = model.ds1.conv.folded_kernel()
        u = conv2d_raw(x, kern.weights, kern.bias, kern.stride, kern.padding)
        blk = model.stage1a[0]
        u1 = u[0] + blk.token.apply(sd.DenseTensor(u[0])).data
        u2 = u1 + blk.channel.apply(sd.DenseTensor(u1)).data
        assert np.abs(got[0] - u2).max() < 1e-9


class TestPassState:
    """Each neuron's membrane lives in the pass's context, so once a forward
    returns, no layer holds one: the tape keeps only what its vjps read."""

    def test_membranes_are_freed_when_the_taped_forward_returns(self, monkeypatch):
        # the bench toy net, at T=2 so that each membrane feeds a second step
        cfg = sd.ModelConfig(base_channels=8, num_classes=2, resolution=32,
                             depths=(1, 1, 1, 2, 1), heads=2, seed=3, timesteps=2,
                             lif=LIFParams(surrogate_window=1.0))
        data = train.make_blobs(4, resolution=32, classes=2, seed=0)

        def grads():
            model = sd.build_model(cfg)
            tape = autodiff.Tape()
            loss = train.loss(model.forward(data.images, tape=tape, training=True),
                              data.labels, 0.0, tape=tape)
            alive = [r for r in membranes if r() is not None]
            assert len(tape) > 0
            autodiff.backward(tape, loss, params=model.parameters())
            return alive, [p.grad for p in model.parameters()]

        membranes, lif = [], blocks.lif

        def spy(*args, **kw):
            s, h = lif(*args, **kw)
            membranes.append(weakref.ref(h.data))
            return s, h

        want = grads()[1]
        monkeypatch.setattr(blocks, "lif", spy)
        enabled = gc.isenabled()
        gc.disable()
        try:
            alive, got = grads()
        finally:
            if enabled:
                gc.enable()
        assert membranes and alive == []
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


class TestCountParams:
    def test_counts_every_trainable_scalar(self):
        model = sd.build_model(toy_cfg())
        manual = sum(v.data.size for _, v in model.named_params())
        assert sd.count_params(model) == manual

    def test_variant4_adds_threshold_scalars(self):
        base = sd.count_params(sd.build_model(toy_cfg()))
        v4 = sd.count_params(sd.build_model(toy_cfg(sdsa_variant=4)))
        assert v4 == base + 2  # one learnable threshold per transformer block


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = sd.build_model(toy_cfg())
        # perturb state so the file is not all-initial
        model.head.b.data = np.array([1.0, -2.0, 3.0])
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        other = sd.build_model(toy_cfg())
        sd.load_checkpoint(other, path)
        for (na, va), (nb, vb) in zip(model.named_params(), other.named_params()):
            assert na == nb
            assert np.array_equal(va.data, vb.data)
        for (na, ba), (nb, bb) in zip(model.named_buffers(), other.named_buffers()):
            assert np.array_equal(ba, bb)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import spikedrive.model as model_mod

        model = sd.build_model(toy_cfg())
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(model_mod, "open", lambda *a: HalfWriter(open(*a)), raising=False)
        model.head.b.data = np.array([1.0, -2.0, 3.0])
        with pytest.raises(OSError, match="disk full"):
            sd.save_checkpoint(model, path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
        assert path.read_bytes() == before
        sd.load_checkpoint(sd.build_model(toy_cfg()), path)

    def test_corrupted_magic_rejected(self, tmp_path):
        model = sd.build_model(toy_cfg())
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            sd.load_checkpoint(sd.build_model(toy_cfg()), path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        model = sd.build_model(toy_cfg())
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            sd.load_checkpoint(sd.build_model(toy_cfg()), path)

    def test_cross_config_load_rejected(self, tmp_path):
        model = sd.build_model(toy_cfg())
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        with pytest.raises(CheckpointError):
            sd.load_checkpoint(sd.build_model(toy_cfg(base_channels=6, heads=1)), path)
        with pytest.raises(CheckpointError):
            sd.load_checkpoint(sd.build_model(toy_cfg(sdsa_variant=4)), path)

    def test_learnable_thresholds_persist(self, tmp_path):
        model = sd.build_model(toy_cfg(sdsa_variant=4))
        thr = [v for n, v in model.named_params() if n.endswith("sn_attn.threshold")]
        thr[0].data = np.asarray(0.777)
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        other = sd.build_model(toy_cfg(sdsa_variant=4))
        sd.load_checkpoint(other, path)
        thr2 = [v for n, v in other.named_params() if n.endswith("sn_attn.threshold")]
        assert float(thr2[0].data) == 0.777

    def test_config_mismatch_is_refused(self, tmp_path):
        # same tensor table, different dynamics: the stored config decides
        model = sd.build_model(toy_cfg(timesteps=1, lif=LIFParams(u_th=1.0)))
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        other = sd.build_model(toy_cfg(timesteps=4, lif=LIFParams(u_th=0.3)))
        with pytest.raises(CheckpointError, match="'timesteps', 'lif'"):
            sd.load_checkpoint(other, path)

    def test_other_seed_still_loads(self, tmp_path):
        model = sd.build_model(toy_cfg(seed=1))
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        other = sd.load_checkpoint(sd.build_model(toy_cfg(seed=2)), path)
        assert np.array_equal(other.head.w.data, model.head.w.data)

    @pytest.mark.parametrize("garbage", [b"\xff", b"x"])
    def test_unreadable_config_text_is_refused(self, tmp_path, garbage):
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(sd.build_model(toy_cfg()), path)
        raw = bytearray(path.read_bytes()[:-4])
        start = raw.index(b"[model]")
        raw[start:start + 1] = garbage  # same length, valid checksum
        raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="config text"):
            sd.load_checkpoint(sd.build_model(toy_cfg()), path)


# Ordered tensor table of a SEW + SDSA-4 checkpoint: "name shape" per line,
# "-" for a scalar. Parameters come first in forward order, then buffers.
SEW_SDSA4_TABLE = """
stage1.ds1.conv.w                   4 3 7 7
stage1.ds1.conv.gamma               4
stage1.ds1.conv.beta                4
stage1.block1.sepconv.pw1.w         8 4 1 1
stage1.block1.sepconv.pw1.gamma     8
stage1.block1.sepconv.pw1.beta      8
stage1.block1.sepconv.dw.w          8 1 7 7
stage1.block1.sepconv.dw.gamma      8
stage1.block1.sepconv.pw2.w         4 8 1 1
stage1.block1.sepconv.pw2.gamma     4
stage1.block1.sepconv.pw2.beta      4
stage1.block1.chconv.conv1.w        16 4 3 3
stage1.block1.chconv.conv1.gamma    16
stage1.block1.chconv.conv1.beta     16
stage1.block1.chconv.conv2.w        4 16 3 3
stage1.block1.chconv.conv2.gamma    4
stage1.block1.chconv.conv2.beta     4
stage1.ds2.conv.w                   8 4 3 3
stage1.ds2.conv.gamma               8
stage1.ds2.conv.beta                8
stage2.ds.conv.w                    16 8 3 3
stage2.ds.conv.gamma                16
stage2.ds.conv.beta                 16
stage3.ds.conv.w                    32 16 3 3
stage3.ds.conv.gamma                32
stage3.ds.conv.beta                 32
stage3.block1.rep_q.pw1.w           32 32 1 1
stage3.block1.rep_q.dw.w            32 1 3 3
stage3.block1.rep_q.dw.gamma        32
stage3.block1.rep_q.pw2.w           32 32 1 1
stage3.block1.rep_q.pw2.gamma       32
stage3.block1.rep_q.pw2.beta        32
stage3.block1.rep_k.pw1.w           32 32 1 1
stage3.block1.rep_k.dw.w            32 1 3 3
stage3.block1.rep_k.dw.gamma        32
stage3.block1.rep_k.pw2.w           32 32 1 1
stage3.block1.rep_k.pw2.gamma       32
stage3.block1.rep_k.pw2.beta        32
stage3.block1.rep_v.pw1.w           32 32 1 1
stage3.block1.rep_v.dw.w            32 1 3 3
stage3.block1.rep_v.dw.gamma        32
stage3.block1.rep_v.pw2.w           32 32 1 1
stage3.block1.rep_v.pw2.gamma       32
stage3.block1.rep_v.pw2.beta        32
stage3.block1.sn_attn.threshold     -
stage3.block1.rep4.pw1.w            32 32 1 1
stage3.block1.rep4.dw.w             32 1 3 3
stage3.block1.rep4.dw.gamma         32
stage3.block1.rep4.pw2.w            32 32 1 1
stage3.block1.rep4.pw2.gamma        32
stage3.block1.rep4.pw2.beta         32
stage3.block1.mlp.fc1.w             128 32 1 1
stage3.block1.mlp.fc1.gamma         128
stage3.block1.mlp.fc1.beta          128
stage3.block1.mlp.fc2.w             32 128 1 1
stage3.block1.mlp.fc2.gamma         32
stage3.block1.mlp.fc2.beta          32
stage4.ds.conv.w                    40 32 3 3
stage4.ds.conv.gamma                40
stage4.ds.conv.beta                 40
head.fc.w                           40 3
head.fc.b                           3
stage1.ds1.conv.run_mean            4
stage1.ds1.conv.run_var             4
stage1.block1.sepconv.pw1.run_mean  8
stage1.block1.sepconv.pw1.run_var   8
stage1.block1.sepconv.dw.run_mean   8
stage1.block1.sepconv.dw.run_var    8
stage1.block1.sepconv.pw2.run_mean  4
stage1.block1.sepconv.pw2.run_var   4
stage1.block1.chconv.conv1.run_mean 16
stage1.block1.chconv.conv1.run_var  16
stage1.block1.chconv.conv2.run_mean 4
stage1.block1.chconv.conv2.run_var  4
stage1.ds2.conv.run_mean            8
stage1.ds2.conv.run_var             8
stage2.ds.conv.run_mean             16
stage2.ds.conv.run_var              16
stage3.ds.conv.run_mean             32
stage3.ds.conv.run_var              32
stage3.block1.rep_q.dw.run_mean     32
stage3.block1.rep_q.dw.run_var      32
stage3.block1.rep_q.pw2.run_mean    32
stage3.block1.rep_q.pw2.run_var     32
stage3.block1.rep_k.dw.run_mean     32
stage3.block1.rep_k.dw.run_var      32
stage3.block1.rep_k.pw2.run_mean    32
stage3.block1.rep_k.pw2.run_var     32
stage3.block1.rep_v.dw.run_mean     32
stage3.block1.rep_v.dw.run_var      32
stage3.block1.rep_v.pw2.run_mean    32
stage3.block1.rep_v.pw2.run_var     32
stage3.block1.rep4.dw.run_mean      32
stage3.block1.rep4.dw.run_var       32
stage3.block1.rep4.pw2.run_mean     32
stage3.block1.rep4.pw2.run_var      32
stage3.block1.mlp.fc1.run_mean      128
stage3.block1.mlp.fc1.run_var       128
stage3.block1.mlp.fc2.run_mean      32
stage3.block1.mlp.fc2.run_var       32
stage4.ds.conv.run_mean             40
stage4.ds.conv.run_var              40
"""


def _checkpoint_table(path):
    """(name, shape) of each tensor in a checkpoint file, in file order."""
    import struct

    buf = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", buf, 8)
    off = 12 + cfg_len
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    rows = []
    for _ in range(n):
        (name_len,) = struct.unpack_from("<H", buf, off)
        name = buf[off + 2:off + 2 + name_len].decode("utf-8")
        off += 2 + name_len
        _, ndim = struct.unpack_from("<BB", buf, off)
        shape = struct.unpack_from(f"<{ndim}I", buf, off + 2)
        off += 2 + 4 * ndim + 8 * int(np.prod(shape))
        rows.append((name, shape))
    return rows


class TestArchitecture:
    def test_checkpoint_tensor_table_is_pinned(self, tmp_path):
        model = sd.build_model(toy_cfg(resolution=16, depths=(1, 0, 0, 1, 0),
                                       sdsa_variant=4, shortcut="SEW", timesteps=1))
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        want = []
        for line in SEW_SDSA4_TABLE.strip().splitlines():
            name, *dims = line.split()
            want.append((name, () if dims == ["-"] else tuple(int(d) for d in dims)))
        assert _checkpoint_table(path) == want

    @pytest.mark.parametrize("shortcut", ["MS", "SEW", "VS"])
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_charged_op_keys_equal_probe_ids(self, shortcut, variant):
        from spikedrive.energy import charged_ops

        cfg = toy_cfg(resolution=16, shortcut=shortcut, sdsa_variant=variant, timesteps=1)
        probe = Probe()
        sd.build_model(cfg).forward(np.random.default_rng(4).normal(0, 3, (1, 3, 16, 16)),
                                    probe=probe)
        ops = charged_ops(cfg)
        keys = {key for op in ops for key in op.rate_keys}
        # SDSA-1 masks Q and SDSA-2 masks V with a fired gate; a Hadamard mask
        # is charged nothing, so that operand is probed but carries no charge
        masked = {1: "q", 2: "v"}.get(variant)
        extra = {f"{op.layer.rsplit('.', 1)[0]}.{masked}" for op in ops
                 if op.kind == "sdsa" and masked}
        assert {e.layer for e in probe.entries} == keys | extra


class TestNoDepthwiseShift:
    @pytest.mark.parametrize("shortcut", ["MS", "SEW", "VS"])
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_no_dw_beta_and_every_other_beta(self, shortcut, variant):
        model = sd.build_model(toy_cfg(shortcut=shortcut, sdsa_variant=variant))
        names = [n for n, _ in model.named_params()]
        scaled = {n.removesuffix(".gamma") for n in names if n.endswith(".gamma")}
        shifted = {n.removesuffix(".beta") for n in names if n.endswith(".beta")}
        depthwise = {n for n in scaled if n.endswith(".dw")}
        # one per SepConv (3 conv blocks) and per RepConv (4 or 3 per transformer block)
        assert len(depthwise) == 3 + 2 * (3 if variant == 2 else 4)
        assert shifted == scaled - depthwise


class TestCheckpointVersion:
    def test_version_1_is_refused_naming_the_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = sd.build_model(toy_cfg())
        sd.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes()[:-4])
        assert struct.unpack_from("<I", raw, 4) == (sd.model.CHECKPOINT_VERSION,) == (2,)
        struct.pack_into("<I", raw, 4, 1)
        raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 1"):
            sd.load_checkpoint(sd.build_model(toy_cfg()), path)


class TestCheckpointDtype:
    def test_every_tensor_is_written_as_float64(self, tmp_path):
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(sd.build_model(toy_cfg()), path)
        buf = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", buf, 8)
        off = 12 + cfg_len
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        codes = []
        for _ in range(n):
            (name_len,) = struct.unpack_from("<H", buf, off)
            off += 2 + name_len
            code, ndim = struct.unpack_from("<BB", buf, off)
            shape = struct.unpack_from(f"<{ndim}I", buf, off + 2)
            off += 2 + 4 * ndim + 8 * int(np.prod(shape))
            codes.append(code)
        assert set(codes) == {0} and off == len(buf) - 4

    @pytest.mark.parametrize("code", [1, 2, 3, 255])
    def test_other_dtype_code_is_refused(self, tmp_path, code):
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(sd.build_model(toy_cfg()), path)
        raw = bytearray(path.read_bytes()[:-4])
        (cfg_len,) = struct.unpack_from("<I", raw, 8)
        first = 12 + cfg_len + 4  # the first tensor's name length
        (name_len,) = struct.unpack_from("<H", raw, first)
        raw[first + 2 + name_len] = code  # its dtype code
        raw += struct.pack("<I", zlib.crc32(bytes(raw)) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unknown dtype code"):
            sd.load_checkpoint(sd.build_model(toy_cfg()), path)

    def test_load_restores_buffers_and_params_in_place(self, tmp_path):
        model = sd.build_model(toy_cfg())
        model.stage1a[0].token.pw1.run_mean[...] = 0.25
        model.head.b.data = np.array([1.0, -2.0, 3.0])
        path = tmp_path / "m.ckpt"
        sd.save_checkpoint(model, path)
        other = sd.build_model(toy_cfg())
        buffer = other.stage1a[0].token.pw1.run_mean
        sd.load_checkpoint(other, path)
        assert other.stage1a[0].token.pw1.run_mean is buffer
        assert np.all(buffer == 0.25)
        assert other.head.b.data.dtype == np.float64
        assert np.array_equal(other.head.b.data, [1.0, -2.0, 3.0])
