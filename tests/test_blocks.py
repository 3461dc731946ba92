import numpy as np
import pytest

from spikedrive.attention import SDSAConfig, sdsa1, sdsa2, sdsa4
from spikedrive.autodiff import Tape, Var
from spikedrive.blocks import (ChannelConv, ChannelMLP, ConvBlock, ConvBN, Downsample,
                               ForwardContext, Mixer, RepConv, SepConv, TransformerBlock,
                               apply_shortcut, repconv_fold)
from spikedrive.errors import FoldError, KindError, ShapeError
from spikedrive.instrument import Probe
from spikedrive.kernels import ConvKernel, conv2d_raw, dense_conv2d
from spikedrive.neuron import LIFParams
from spikedrive.tensors import DenseTensor, IntTensor, SpikeTensor

LIF = LIFParams()


def heaviside(x, th=1.0):
    return (x - th >= 0).astype(np.float64)


def run_convbn_eval(conv, x):
    """Independent route: the layer's folded kernel applied densely."""
    kern = conv.folded_kernel()
    return conv2d_raw(x[None], kern.weights, kern.bias, kern.stride, kern.padding,
                      kern.groups)[0]


class TestSepConv:
    def test_zero_membrane_gives_constant_map(self):
        rng = np.random.default_rng(0)
        layer = SepConv(rng, 4, LIF)
        out = layer.apply(DenseTensor(np.zeros((4, 6, 6))))
        # no spikes anywhere; output is the (zero-init) normalization shift
        assert np.allclose(out.data, 0.0)

    def test_matches_composed_dense_oracle(self):
        rng = np.random.default_rng(1)
        layer = SepConv(rng, 8, LIF)
        x = rng.normal(0, 2, (8, 8, 8))
        got = layer.apply(DenseTensor(x)).data

        s1 = heaviside(x)
        y = run_convbn_eval(layer.pw1, s1)
        s2 = heaviside(y)
        y = run_convbn_eval(layer.dw, s2)
        want = run_convbn_eval(layer.pw2, y)
        assert np.abs(got - want).max() < 1e-9

    def test_saturated_identityish_path_spikes(self):
        rng = np.random.default_rng(2)
        layer = SepConv(rng, 4, LIF)
        x = np.full((4, 5, 5), 100.0)
        out = layer.apply(DenseTensor(x))
        assert np.all(np.isfinite(out.data))
        # the first neuron saturates to all-ones on such drive
        from spikedrive.autodiff import Var
        from spikedrive.blocks import ForwardContext
        s = layer.sn1.step(Var(x[None]), ForwardContext())
        assert s.data.min() == 1.0


class TestChannelConvAndMLP:
    def test_channel_conv_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        layer = ChannelConv(rng, 4, LIF)
        x = rng.normal(0, 2, (4, 6, 6))
        got = layer.apply(DenseTensor(x)).data
        s1 = heaviside(x)
        y = run_convbn_eval(layer.conv1, s1)
        want = run_convbn_eval(layer.conv2, heaviside(y))
        assert np.abs(got - want).max() < 1e-9

    def test_channel_conv_zero_input(self):
        rng = np.random.default_rng(4)
        layer = ChannelConv(rng, 3, LIF)
        assert np.allclose(layer.apply(DenseTensor(np.zeros((3, 4, 4)))).data, 0.0)

    def test_mlp_token_layout_matches_oracle(self):
        rng = np.random.default_rng(5)
        layer = ChannelMLP(rng, 6, LIF)
        tokens = rng.normal(0, 2, (10, 6))
        got = layer.apply(DenseTensor(tokens)).data

        x = tokens.T.reshape(6, 10, 1)
        s1 = heaviside(x)
        y = run_convbn_eval(layer.fc1, s1)
        want = run_convbn_eval(layer.fc2, heaviside(y))
        assert np.abs(got - want.reshape(6, 10).T).max() < 1e-9

    def test_mlp_zero_input(self):
        rng = np.random.default_rng(6)
        layer = ChannelMLP(rng, 4, LIF)
        assert np.allclose(layer.apply(DenseTensor(np.zeros((5, 4)))).data, 0.0)


class TestRepConvFoldUnit:
    def test_identity_only_branch(self):
        k1 = ConvKernel(weights=np.zeros((3, 3, 1, 1)))
        folded = repconv_fold(None, k1, identity_flag=True)
        rng = np.random.default_rng(7)
        x = DenseTensor(rng.normal(0, 1, (3, 5, 5)))
        assert np.allclose(dense_conv2d(x, folded).data, x.data)

    def test_1x1_branch_embeds_at_center(self):
        rng = np.random.default_rng(8)
        w = rng.normal(0, 1, (2, 2, 1, 1))
        folded = repconv_fold(None, ConvKernel(weights=w), identity_flag=False)
        assert np.allclose(folded.weights[:, :, 1, 1], w[:, :, 0, 0])
        centerless = folded.weights.copy()
        centerless[:, :, 1, 1] = 0
        assert np.allclose(centerless, 0.0)

    def test_three_branch_fold_matches_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            k3 = ConvKernel(weights=rng.normal(0, 1, (c, c, 3, 3)),
                            bias=rng.normal(0, 1, c))
            k1 = ConvKernel(weights=rng.normal(0, 1, (c, c, 1, 1)),
                            bias=rng.normal(0, 1, c))
            scales = tuple(rng.normal(0, 1, 3))
            folded = repconv_fold(k3, k1, identity_flag=True, per_branch_scales=scales)
            x = DenseTensor(rng.normal(0, 1, (c, 6, 6)))
            want = (scales[0] * dense_conv2d(x, k3).data
                    + scales[1] * dense_conv2d(x, k1).data
                    + scales[2] * x.data)
            got = dense_conv2d(x, folded).data
            assert np.abs(got - want).max() < 1e-5

    def test_fold_errors(self):
        k3 = ConvKernel(weights=np.zeros((2, 3, 3, 3)))
        k1 = ConvKernel(weights=np.zeros((2, 2, 1, 1)))
        with pytest.raises(FoldError):
            repconv_fold(k3, k1)  # channel mismatch
        with pytest.raises(FoldError):
            repconv_fold(k3, None, identity_flag=True)  # non-square identity
        with pytest.raises(FoldError):
            repconv_fold(None, None, identity_flag=False)
        strided = ConvKernel(weights=np.zeros((2, 2, 3, 3)), stride=2)
        with pytest.raises(FoldError):
            repconv_fold(strided, None)


class TestRepConvLayerFold:
    def test_fold_matches_unfolded_on_random_inputs(self):
        rng = np.random.default_rng(10)
        layer = RepConv(rng, 5)
        # give the normalization non-trivial statistics
        layer.dw.run_mean = rng.normal(0, 0.2, 5)
        layer.dw.run_var = rng.uniform(0.5, 2.0, 5)
        layer.pw2.run_mean = rng.normal(0, 0.2, 5)
        layer.pw2.run_var = rng.uniform(0.5, 2.0, 5)
        layer.pw2.beta.data = rng.normal(0, 0.5, 5)
        layer.pw2.gamma.data = rng.uniform(0.5, 1.5, 5)
        folded = layer.fold()
        from spikedrive.autodiff import Var
        from spikedrive.blocks import ForwardContext
        for _ in range(100):
            x = rng.normal(0, 1, (1, 5, 7, 7))
            want = layer.forward(Var(x), ForwardContext()).data[0]
            got = dense_conv2d(DenseTensor(x[0]), folded).data
            assert np.abs(got - want).max() < 1e-5


class TestConvBlock:
    def test_ms_identity_with_zeroed_branch_tails(self):
        rng = np.random.default_rng(11)
        block = ConvBlock(rng, 5, LIF, "MS")
        block.token.pw2.w.data = np.zeros_like(block.token.pw2.w.data)
        block.channel.conv2.w.data = np.zeros_like(block.channel.conv2.w.data)
        x = rng.normal(0, 3, (5, 6, 6))
        out = block.apply(DenseTensor(x))
        assert np.array_equal(out.data, x)

    def test_zero_input_maps_to_zero(self):
        rng = np.random.default_rng(12)
        block = ConvBlock(rng, 4, LIF, "MS")
        assert np.allclose(block.apply(DenseTensor(np.zeros((4, 5, 5)))).data, 0.0)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(13)
        block = ConvBlock(rng, 6, LIF, "MS")
        x = rng.normal(0, 2, (6, 7, 7))
        got = block.apply(DenseTensor(x)).data
        u1 = x + block.token.apply(DenseTensor(x)).data
        want = u1 + block.channel.apply(DenseTensor(u1)).data
        assert np.abs(got - want).max() < 1e-9

    def test_sew_block_emits_growing_integers(self):
        rng = np.random.default_rng(14)
        block = ConvBlock(rng, 4, LIF, "SEW")
        x = (rng.random((4, 5, 5)) < 0.7).astype(np.float64)
        out = block.apply(DenseTensor(x)).data
        assert np.array_equal(out, np.round(out)) and out.min() >= 0
        assert out.max() >= 2  # input spike + two fired branches stack up

    def test_vs_block_emits_binary(self):
        rng = np.random.default_rng(15)
        block = ConvBlock(rng, 4, LIF, "VS")
        x = (rng.random((4, 5, 5)) < 0.7).astype(np.float64)
        out = block.apply(DenseTensor(x)).data
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestTransformerBlock:
    def _block(self, rng, variant=3, shortcut="MS", dim=4):
        cfg = SDSAConfig(variant=variant, heads=2, dim=dim, threshold_scale=0.125)
        return TransformerBlock(rng, dim, LIF, cfg, shortcut)

    def test_ms_identity_with_zeroed_tails(self):
        rng = np.random.default_rng(16)
        block = self._block(rng)
        block.rep4.pw2.w.data = np.zeros_like(block.rep4.pw2.w.data)
        block.mlp.fc2.w.data = np.zeros_like(block.mlp.fc2.w.data)
        x = rng.normal(0, 2, (4, 4, 4))
        assert np.array_equal(block.apply(DenseTensor(x)).data, x)

    def test_zero_input(self):
        rng = np.random.default_rng(17)
        block = self._block(rng)
        out = block.apply(DenseTensor(np.zeros((4, 4, 4))))
        assert np.allclose(out.data, 0.0)

    def test_matches_composed_attention_oracle(self):
        # dense recomputation of the whole attention branch, variant 3
        from spikedrive.attention import sdsa3
        rng = np.random.default_rng(18)
        block = self._block(rng)
        x = rng.normal(0, 2, (4, 4, 4))
        got = block.apply(DenseTensor(x)).data

        s_in = heaviside(x)
        def rep(layer, z):
            y = conv2d_raw(z[None], layer.pw1.data, None, 1, 0)[0]
            y = run_convbn_eval(layer.dw, y)
            return run_convbn_eval(layer.pw2, y)
        q = heaviside(rep(block.rep_q, s_in))
        k = heaviside(rep(block.rep_k, s_in))
        v = heaviside(rep(block.rep_v, s_in))
        to_tokens = lambda z: z.reshape(4, 16).T
        a = sdsa3(SpikeTensor(to_tokens(q)), SpikeTensor(to_tokens(k)),
                  SpikeTensor(to_tokens(v)), threshold=0.125, heads=2)
        a_spatial = a.data.T.reshape(4, 4, 4).astype(np.float64)
        u1 = x + rep(block.rep4, a_spatial)
        s1 = heaviside(u1)
        y = run_convbn_eval(block.mlp.fc1, s1)
        want = u1 + run_convbn_eval(block.mlp.fc2, heaviside(y))
        assert np.abs(got - want).max() < 1e-9

    def test_variant2_has_no_k_branch(self):
        rng = np.random.default_rng(19)
        block = self._block(rng, variant=2)
        assert block.rep_k is None and block.sn_k is None
        x = rng.normal(0, 1, (4, 4, 4))
        out = block.apply(DenseTensor(x))
        assert np.all(np.isfinite(out.data))

    def test_variant4_threshold_is_trainable_param(self):
        rng = np.random.default_rng(20)
        block = self._block(rng, variant=4)
        names = [n for n, _ in block.named_params()]
        assert any(n.endswith("sn_attn.threshold") for n in names)

    def test_sew_and_vs_modes_run(self):
        rng = np.random.default_rng(21)
        for shortcut, check in (("SEW", lambda o: o.max() >= 2),
                                ("VS", lambda o: set(np.unique(o)) <= {0.0, 1.0})):
            block = self._block(rng, shortcut=shortcut)
            x = (rng.random((4, 4, 4)) < 0.8).astype(np.float64)
            out = block.apply(DenseTensor(x)).data
            assert np.all(np.isfinite(out))
            if shortcut == "VS":
                assert check(out)


class TestDownsample:
    def test_stride_two_halves_spatial_dims(self):
        rng = np.random.default_rng(22)
        layer = Downsample(rng, 3, 6, 3, 2, LIF)
        out = layer.apply(DenseTensor(rng.normal(0, 1, (3, 8, 8))))
        assert out.data.shape == (6, 4, 4)

    def test_zero_input_bias_map(self):
        rng = np.random.default_rng(23)
        layer = Downsample(rng, 2, 4, 3, 2, LIF)
        out = layer.apply(DenseTensor(np.zeros((2, 6, 6))))
        assert np.allclose(out.data, 0.0)

    def test_matches_dense_strided_oracle(self):
        rng = np.random.default_rng(24)
        layer = Downsample(rng, 3, 5, 3, 2, LIF)
        x = rng.normal(0, 2, (3, 9, 9))
        got = layer.apply(DenseTensor(x)).data
        want = run_convbn_eval(layer.conv, heaviside(x))
        assert np.abs(got - want).max() < 1e-9

    def test_first_layer_skips_the_neuron(self):
        rng = np.random.default_rng(25)
        layer = Downsample(rng, 3, 4, 7, 2, LIF, first=True)
        assert layer.sn is None
        x = rng.normal(0, 1, (3, 8, 8))
        got = layer.apply(DenseTensor(x)).data
        want = run_convbn_eval(layer.conv, x)  # raw pixels, no thresholding
        assert np.abs(got - want).max() < 1e-9


class TestApplyShortcut:
    def test_ms_identity_mapping(self):
        rng = np.random.default_rng(26)
        x = DenseTensor(rng.normal(0, 1, (3, 3)))
        out = apply_shortcut("MS", x, DenseTensor(np.zeros((3, 3))))
        assert isinstance(out, DenseTensor) and np.array_equal(out.data, x.data)

    def test_ms_rejects_spikes(self):
        s = SpikeTensor(np.ones((2, 2)))
        with pytest.raises(KindError):
            apply_shortcut("MS", s, s)

    def test_sew_sums_to_integers(self):
        ones = SpikeTensor(np.ones((2, 2)))
        out = apply_shortcut("SEW", ones, ones)
        assert isinstance(out, IntTensor)
        assert np.array_equal(out.data, np.full((2, 2), 2))

    def test_sew_accepts_integer_carriers(self):
        out = apply_shortcut("SEW", IntTensor(np.full((2, 2), 3)),
                             SpikeTensor(np.ones((2, 2))))
        assert out.data.max() == 4

    def test_vs_adds_potential_to_spike(self):
        out = apply_shortcut("VS", SpikeTensor(np.array([[1]])),
                             DenseTensor(np.array([[0.3]])))
        assert isinstance(out, DenseTensor)
        assert out.data[0, 0] == pytest.approx(1.3)

    def test_vs_rejects_two_potentials(self):
        d = DenseTensor(np.zeros((2, 2)))
        with pytest.raises(KindError):
            apply_shortcut("VS", d, d)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_shortcut("MS", DenseTensor(np.zeros((2, 2))),
                           DenseTensor(np.zeros((3, 3))))


class TestTransformerBlockVariants:
    @pytest.mark.parametrize("variant", [1, 2, 4])
    def test_matches_composed_sdsa_oracle(self, variant):
        # dense recomputation of the whole block at T=1 through the functional
        # forms, as test_matches_composed_attention_oracle does for variant 3
        rng = np.random.default_rng(30)
        cfg = SDSAConfig(variant=variant, heads=2, dim=4, threshold_scale=0.125)
        block = TransformerBlock(rng, 4, LIF, cfg, "MS")
        if variant == 4:
            block.sn_attn.threshold.data = np.asarray(1.5)  # away from the 0.125 default
        x = rng.normal(0, 2, (4, 4, 4))
        got = block.apply(DenseTensor(x)).data

        s_in = heaviside(x)
        def rep(layer, z):
            y = conv2d_raw(z[None], layer.pw1.data, None, 1, 0)[0]
            y = run_convbn_eval(layer.dw, y)
            return run_convbn_eval(layer.pw2, y)
        to_tokens = lambda z: SpikeTensor(z.reshape(4, 16).T)
        q = to_tokens(heaviside(rep(block.rep_q, s_in)))
        v = to_tokens(heaviside(rep(block.rep_v, s_in)))
        if variant == 1:
            k = to_tokens(heaviside(rep(block.rep_k, s_in)))
            a = sdsa1(q, k, v, u_th=block.sn_attn.params.threshold)
        elif variant == 2:
            a = sdsa2(q, v, u_th=block.sn_attn.params.threshold)
        else:
            k = to_tokens(heaviside(rep(block.rep_k, s_in)))
            a = sdsa4(q, k, v, learnable_threshold=float(block.sn_attn.threshold.data),
                      heads=2)
        assert 0 < a.data.mean() < 1  # the comparison sees both spikes and silence
        a_spatial = a.data.T.reshape(4, 4, 4).astype(np.float64)
        u1 = x + rep(block.rep4, a_spatial)
        s1 = heaviside(u1)
        y = run_convbn_eval(block.mlp.fc1, s1)
        want = u1 + run_convbn_eval(block.mlp.fc2, heaviside(y))
        assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_one_attention_neuron_per_variant(self, variant):
        cfg = SDSAConfig(variant=variant, heads=2, threshold_scale=0.25)
        block = TransformerBlock(np.random.default_rng(33), 4, LIF, cfg)
        want = LIF if variant < 3 else LIF.scaled(0.25)
        assert block.sn_attn.params == want
        assert (block.sn_attn.threshold is not None) == (variant == 4)

    def test_heads_must_divide_the_block_width_of_the_matmul_variants(self):
        rng = np.random.default_rng(32)
        for variant in (3, 4):
            with pytest.raises(ValueError, match="dim 6 not divisible by 4 heads"):
                TransformerBlock(rng, 6, LIF, SDSAConfig(variant=variant, heads=4))
        for variant in (1, 2):  # the mask variants have no heads to split
            assert TransformerBlock(rng, 6, LIF, SDSAConfig(variant=variant, heads=4)) \
                .sdsa.variant == variant

    @pytest.mark.parametrize("variant, attention_records", [(1, 3), (2, 2), (3, 8), (4, 8)])
    def test_tape_records_of_one_forward(self, variant, attention_records):
        # the Q/K/V maps enter attend and its output enters rep4 as they are:
        # SDSA-1/2 record only their mul and sum ops; SDSA-3/4 three head
        # reshapes, two transposes, two matmuls and one reshape back
        rng = np.random.default_rng(31)
        block = TransformerBlock(rng, 4, LIF, SDSAConfig(variant=variant, heads=2), "MS")
        tape = Tape()
        block.forward(Var(rng.normal(0, 2, (2, 4, 3, 3))), ForwardContext(tape=tape))
        streams = 2 if variant == 2 else 3
        # sn_in; per stream a RepConv (5 records) and its neuron; sn_attn;
        # rep4 (5); the two shortcut adds; the MLP (two neurons, two ConvBNs)
        assert len(tape) == 1 + 6 * streams + attention_records + 1 + 5 + 2 + 6


class TestShortcutValidation:
    @pytest.mark.parametrize("make", [
        lambda rng, sc: ConvBlock(rng, 4, LIF, sc),
        lambda rng, sc: TransformerBlock(rng, 4, LIF, SDSAConfig(heads=2, dim=4), sc),
    ])
    def test_unknown_shortcut_is_refused(self, make):
        rng = np.random.default_rng(40)
        with pytest.raises(ValueError, match="shortcut must be one of"):
            make(rng, "XX")
        ms = make(rng, "MS")
        assert ms.out_sn1 is None and ms.out_sn2 is None
        for sc in ("SEW", "VS"):
            block = make(rng, sc)
            assert [block.out_sn1.name, block.out_sn2.name] == \
                [f"{block.name}.out_sn1", f"{block.name}.out_sn2"]


class TestMixerBase:
    def test_three_mixers_share_one_forward(self):
        assert SepConv.forward is ChannelConv.forward is ChannelMLP.forward is Mixer.forward

    @pytest.mark.parametrize("cls, keys", [(SepConv, ["pw1", "dwpw2"]),
                                           (ChannelConv, ["conv1", "conv2"]),
                                           (ChannelMLP, ["fc1", "fc2"])])
    def test_records_each_stage_input_under_its_key(self, cls, keys):
        rng = np.random.default_rng(41)
        layer = cls(rng, 4, LIF, name="m")
        probe = Probe()
        layer.forward(Var(rng.normal(0, 2, (1, 4, 5, 5))), ForwardContext(probe=probe))
        assert [e.layer for e in probe.entries] == [f"m.{k}" for k in keys]
        assert all(e.kind == "binary" for e in probe.entries)


class TestConvBNBatchStatistics:
    def test_training_normalizes_by_the_statistics_it_records(self):
        rng = np.random.default_rng(42)
        layer = ConvBN(rng, 3, 4, 3)
        layer.gamma.data = rng.uniform(0.5, 2.0, 4)
        layer.beta.data = rng.normal(0, 1, 4)
        x = Var(rng.normal(0, 1, (2, 3, 5, 5)))
        out = layer.forward(x, ForwardContext(tape=Tape(), training=True)).data
        y = conv2d_raw(x.data, layer.w.data, None, 1, 1)
        mu, var = y.mean(axis=(0, 2, 3)), y.var(axis=(0, 2, 3))
        assert np.allclose(layer.run_mean, 0.1 * mu)
        assert np.allclose(layer.run_var, 0.9 + 0.1 * var)
        want = (layer.gamma.data[:, None, None] * (y - mu[:, None, None])
                / np.sqrt(var[:, None, None] + 1e-5) + layer.beta.data[:, None, None])
        assert np.allclose(out, want, atol=1e-12)


class TestDepthwiseHasNoShift:
    """Every depthwise ``ConvBN`` feeds a batch-normalized pointwise conv
    directly, so in training a per-channel shift on its output cancels in
    that conv's batch mean; the layer therefore has none."""

    @pytest.mark.parametrize("make", [lambda rng: SepConv(rng, 4, LIF),
                                      lambda rng: RepConv(rng, 4)], ids=["SepConv", "RepConv"])
    def test_shift_on_the_depthwise_output_leaves_the_training_output(self, make,
                                                                       monkeypatch):
        rng = np.random.default_rng(30)
        layer = make(rng)
        x = rng.normal(0, 3, (3, 4, 6, 6))

        def run():
            return layer.forward(Var(x), ForwardContext(tape=Tape(), training=True)).data

        want = run()
        shift = rng.normal(0, 2, layer.dw.w.shape[0])[None, :, None, None]
        dw_forward, calls = layer.dw.forward, []

        def shifted(y, ctx):
            calls.append(ctx.training)
            return Var(dw_forward(y, ctx).data + shift)

        monkeypatch.setattr(layer.dw, "forward", shifted)
        got = run()
        assert calls == [True] and np.abs(want).max() > 0.1
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max() + 1e-13

    def test_only_a_grouping_of_one_channel_per_group_drops_the_shift(self):
        rng = np.random.default_rng(31)
        assert ConvBN(rng, 6, 6, 3, groups=6).beta is None
        assert ConvBN(rng, 6, 6, 3).beta is not None
        assert ConvBN(rng, 1, 1, 1).beta is not None  # a 1->1 pointwise conv
        assert ConvBN(rng, 6, 12, 3, groups=6).beta is not None

    def test_folded_depthwise_bias_is_minus_mean_times_scale(self):
        rng = np.random.default_rng(32)
        layer = ConvBN(rng, 5, 5, 3, groups=5)
        layer.gamma.data = rng.uniform(0.5, 1.5, 5)
        layer.run_mean = rng.normal(0, 0.3, 5)
        layer.run_var = rng.uniform(0.5, 2.0, 5)
        a = layer.gamma.data / np.sqrt(layer.run_var + 1e-5)
        kern = layer.folded_kernel()
        assert np.array_equal(kern.bias, -layer.run_mean * a)
        x = rng.normal(0, 1, (5, 6, 6))
        want = layer.apply(DenseTensor(x)).data
        assert np.abs(run_convbn_eval(layer, x) - want).max() < 1e-12
