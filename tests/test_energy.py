from pathlib import Path

import numpy as np
import pytest

import spikedrive as sd
from spikedrive import autodiff as ad
from spikedrive.blocks import Module
from spikedrive.energy import (E_AC_PJ, E_MAC_PJ, FiringRateReport, charged_ops,
                               estimate_energy, flops_conv, flops_conv_dw, flops_mlp,
                               load_rate_fixture, record_rates, sdsa_flops, vsa_flops)
from spikedrive.errors import ArgError, ParseError, ReportError
from spikedrive.instrument import Probe
from spikedrive.neuron import LIFParams


def toy_cfg(**kw):
    base = dict(base_channels=4, num_classes=3, resolution=32, depths=(1, 1, 1, 1, 1),
                heads=2, seed=42, timesteps=2, lif=LIFParams(u_th=0.5))
    base.update(kw)
    return sd.ModelConfig(**base)


class TestFlopsFormulas:
    def test_conv_hand_values(self):
        assert flops_conv(3, 4, 4, 2, 4) == 1152
        assert flops_conv(1, 1, 1, 1, 1) == 1
        # stage-1 encoding conv of the 15M config at 224x224 input
        assert flops_conv(7, 112, 112, 3, 32) == 59_006_976

    def test_conv_rejects_nonpositive(self):
        with pytest.raises(ArgError):
            flops_conv(0, 4, 4, 1, 1)
        with pytest.raises(ArgError):
            flops_conv(3, 4, 4, -1, 1)

    def test_mlp_hand_values(self):
        assert flops_mlp(1, 1) == 1
        assert flops_mlp(384, 1536) == 589_824  # stage-3 expansion of the 31M config
        with pytest.raises(ArgError):
            flops_mlp(0, 5)

    def test_depthwise(self):
        assert flops_conv_dw(7, 8, 8, 16) == 49 * 64 * 16

    def test_sdsa_hand_values(self):
        assert sdsa_flops(3, 196, 384, 1, [1.0]) == 196 * 384 * 384 == 28_901_376
        for variant in (1, 2, 3, 4):
            assert sdsa_flops(variant, 10, 8, 4, [0.0, 0.0]) == 0
        # variants 1 and 3 differ by a factor of D at equal inputs
        a = sdsa_flops(1, 7, 16, 2, [0.5])
        b = sdsa_flops(3, 7, 16, 2, [0.5])
        assert b == a * 16

    def test_sdsa_pairs_share_formulas(self):
        for args in ((5, 8, 2, [0.3, 0.2]), (9, 4, 1, 0.7)):
            assert sdsa_flops(1, *args) == sdsa_flops(2, *args)
            assert sdsa_flops(3, *args) == sdsa_flops(4, *args)

    def test_sdsa_rejects_unknown_variant(self):
        with pytest.raises(ArgError):
            sdsa_flops(5, 4, 4, 1, [1.0])

    def test_vsa_hand_values(self):
        assert vsa_flops(1, 1) == 3 + 2 + 3
        assert vsa_flops(0, 16) == 0
        # quadratic vs linear growth in token count
        n_small, n_big, d = 64, 256, 16
        vsa_ratio = vsa_flops(n_big, d) / vsa_flops(n_small, d)
        sdsa_ratio = sdsa_flops(3, n_big, d, 1, 1.0) / sdsa_flops(3, n_small, d, 1, 1.0)
        assert vsa_ratio > sdsa_ratio  # N^2 beats N


class TestFiringRateReport:
    def test_rates_bounded(self):
        r = FiringRateReport()
        with pytest.raises(ReportError):
            r.add("x", 1, 1.5)
        with pytest.raises(ReportError):
            r.add("x", 1, -0.1)

    def test_missing_layer_raises(self):
        r = FiringRateReport()
        r.add("a", 1, 0.5)
        with pytest.raises(ReportError):
            r.series("b", 1)
        with pytest.raises(ReportError):
            r.series("a", 2)


class TestRecordRates:
    def test_zero_input_silences_everything_downstream(self):
        model = sd.build_model(toy_cfg())
        report = record_rates(model, np.zeros((1, 3, 32, 32)))
        for e in report.entries:
            if e.layer == "stage1.ds1":
                assert e.rate == 1.0  # encoding convention
            else:
                assert e.rate == 0.0

    def test_saturated_input_fires_first_stages(self):
        model = sd.build_model(toy_cfg())
        # all-positive encoding weights turn a saturated image into wall-to-wall
        # positive drive; the first neuron then fires everywhere
        model.ds1.conv.w.data = np.abs(model.ds1.conv.w.data)
        report = record_rates(model, np.full((1, 3, 32, 32), 100.0))
        assert report.get("stage1.block1.sepconv.pw1", 1) == 1.0

    # every SDSA variant under every shortcut: a rate key that the variant's
    # forward never observes (K under SDSA-2, K^T V under SDSA-1) must fail
    @pytest.mark.parametrize("variant,shortcut",
                             [(v, sc) for v in (1, 2, 3, 4) for sc in ("MS", "SEW", "VS")])
    def test_all_rates_in_range_and_cover_charged_ops(self, variant, shortcut):
        cfg = toy_cfg(sdsa_variant=variant, shortcut=shortcut)
        model = sd.build_model(cfg)
        x = np.random.default_rng(0).normal(0, 3, (1, 3, 32, 32))
        report = record_rates(model, x, timesteps=2)
        assert all(0.0 <= e.rate <= 1.0 for e in report.entries)
        recorded = set(report.layers())
        for op in charged_ops(cfg):
            for key in op.rate_keys:
                assert key in recorded, f"missing measurement for {key}"
        # per (layer, t) exactly once
        keys = [(e.layer, e.t) for e in report.entries]
        assert len(keys) == len(set(keys))

    def test_measured_rates_match_direct_recount(self):
        model = sd.build_model(toy_cfg())
        x = np.random.default_rng(1).normal(0, 3, (1, 3, 32, 32))
        report = record_rates(model, x, timesteps=1)
        # recount one layer by hand: encoding output -> first neuron spikes
        from spikedrive.autodiff import Var
        from spikedrive.blocks import ForwardContext
        ctx = ForwardContext()
        z = model.ds1.forward(Var(x), ctx)
        s = model.stage1a[0].token.sn1.step(z, ctx)
        want = float(np.count_nonzero(s.data)) / s.data.size
        assert report.get("stage1.block1.sepconv.pw1", 1) == pytest.approx(want)


class TestEstimateEnergy:
    def test_single_conv_layer_hand_product(self):
        # 1e9 FLOPs at rate 0.5 for one timestep: 0.9 pJ * 0.5e9 = 0.45 mJ
        cfg = toy_cfg()
        ops = charged_ops(cfg)
        rates = FiringRateReport()
        for op in ops:
            for key in op.rate_keys:
                rates.add(key, 1, 0.0)
        report = estimate_energy(cfg, rates, timesteps=1)
        base = report.total_pj  # only the MAC encoding term
        enc = [r for r in report.rows if r.layer == "stage1.ds1"][0]
        assert base == pytest.approx(enc.energy_pj)
        assert enc.energy_pj == pytest.approx(E_MAC_PJ * enc.flops)

    @pytest.mark.parametrize("timesteps", [0, -1])
    def test_timesteps_below_one_are_refused(self, timesteps):
        with pytest.raises(ArgError, match="timesteps must be >= 1"):
            estimate_energy(toy_cfg(), load_rate_fixture(), timesteps)

    @pytest.mark.parametrize("timesteps", [1.5, 1.0, True])
    def test_timesteps_that_are_not_integers_are_refused(self, timesteps):
        with pytest.raises(ArgError, match="timesteps must be an integer"):
            estimate_energy(toy_cfg(), load_rate_fixture(), timesteps)

    def test_numpy_integer_timesteps_are_accepted(self):
        cfg, rates = sd.ModelConfig(base_channels=48), load_rate_fixture()
        assert (estimate_energy(cfg, rates, np.int64(4)).total_pj
                == estimate_energy(cfg, rates, 4).total_pj)

    def test_zero_rates_leave_only_encoding_charge(self):
        cfg = toy_cfg()
        rates = FiringRateReport()
        for op in charged_ops(cfg):
            for key in op.rate_keys:
                for t in (1, 2):
                    rates.add(key, t, 0.0)
        report = estimate_energy(cfg, rates, timesteps=2)
        ac_rows = [r for r in report.rows if r.op_kind == "AC"]
        assert all(r.energy_pj == 0.0 for r in ac_rows)
        assert report.total_pj > 0  # encoding MAC charge remains

    def test_monotone_in_every_rate(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(2)
        rates = FiringRateReport()
        keys = [key for op in charged_ops(cfg) for key in op.rate_keys]
        for key in keys:
            rates.add(key, 1, float(rng.uniform(0.1, 0.8)))
        base = estimate_energy(cfg, rates, 1).total_pj
        for bump_key in rng.choice(keys, size=8, replace=False):
            bumped = FiringRateReport()
            for e in rates.entries:
                bumped.add(e.layer, e.t, min(1.0, e.rate + (0.1 if e.layer == bump_key else 0.0)))
            assert estimate_energy(cfg, bumped, 1).total_pj >= base

    def test_missing_rate_raises(self):
        cfg = toy_cfg()
        with pytest.raises(ReportError):
            estimate_energy(cfg, FiringRateReport(), timesteps=1)

    def test_all_rates_one_mac_mode_equals_dense_reference(self, monkeypatch):
        # independent dense-ANN accounting of the same op graph
        cfg = toy_cfg()
        rates = FiringRateReport()
        for op in charged_ops(cfg):
            for key in op.rate_keys:
                rates.add(key, 1, 1.0)
        monkeypatch.setattr(sd.energy, "E_AC_PJ", E_MAC_PJ)  # charge every AC as a MAC
        got = estimate_energy(cfg, rates, 1).total_pj

        want = 0.0
        for op in charged_ops(cfg):
            if op.kind == "sdsa":
                want += E_MAC_PJ * len(op.rate_keys) * op.n * op.d * op.d
            else:
                want += E_MAC_PJ * op.flops
        assert got == pytest.approx(want)

    def test_cli_parity_with_measured_rates(self):
        cfg = toy_cfg()
        model = sd.build_model(cfg)
        x = np.random.default_rng(3).normal(0, 3, (1, 3, 32, 32))
        rates = record_rates(model, x, timesteps=2)
        a = estimate_energy(cfg, rates, 2).total_mj
        b = estimate_energy(cfg, rates, 2).total_mj
        assert a == b


class TestFixture:
    def test_packaged_fixture_parses(self):
        report = load_rate_fixture()
        assert len(report.entries) == 94 * 4
        assert report.get("stage1.ds1", 1) == 1.0
        assert report.get("stage3.block1.qkv", 1) == pytest.approx(0.1193)
        assert report.get("head.fc", 4) == pytest.approx(0.4545)

    def test_fixture_total_reproduces_published_power(self):
        rates = load_rate_fixture()
        cfg = sd.ModelConfig(base_channels=48)
        total = estimate_energy(cfg, rates, timesteps=4).total_mj
        assert abs(total - 32.8) / 32.8 <= 0.25

    def test_bad_fixture_lines_report_position(self, tmp_path):
        p = tmp_path / "rates.txt"
        p.write_text("1 ds1 conv 1 0.5\n1 ds1 conv oops 0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_rate_fixture(p)
        p.write_text("1 ds1 conv 1 7.5\n")
        with pytest.raises(ParseError):
            load_rate_fixture(p)

    def test_report_text_and_csv_mirror(self):
        rates = load_rate_fixture()
        cfg = sd.ModelConfig(base_channels=48)
        report = estimate_energy(cfg, rates, timesteps=4)
        text = report.to_text()
        csv_text = report.to_csv()
        assert f"total_mj {report.total_mj:.3f}" in text
        assert text.count("\n") == len(report.rows) + 2
        assert csv_text.splitlines()[0] == "layer,flops,rate,op_kind,energy_pj"
        assert str(len(report.rows) + 2) and csv_text.count("\n") == len(report.rows) + 2


class TestAudit:
    def test_every_charged_op_consumes_binary_or_integer(self):
        for shortcut in ("MS", "SEW", "VS"):
            model = sd.build_model(toy_cfg(shortcut=shortcut))
            probe = Probe()
            x = np.random.default_rng(4).normal(0, 3, (1, 3, 32, 32))
            model.forward(x, timesteps=2, probe=probe)
            for e in probe.entries:
                if e.layer == "stage1.ds1":
                    assert e.kind == "dense"  # raw-pixel encoding layer
                elif e.layer.endswith((".ktv", ".qktv")):
                    assert e.kind in ("binary", "integer")
                else:
                    assert e.kind in ("binary", "integer"), \
                        f"{e.layer} consumed a {e.kind} tensor under {shortcut}"

    def test_sew_integer_carriers_flagged_as_integer(self):
        model = sd.build_model(toy_cfg(shortcut="SEW"))
        probe = Probe()
        x = np.full((1, 3, 32, 32), 50.0)
        model.forward(x, timesteps=1, probe=probe)
        kinds = {e.layer: e.kind for e in probe.entries}
        assert "integer" in set(kinds.values())


class TestOneRateTable:
    def test_report_is_the_probe(self):
        assert FiringRateReport is Probe
        model = sd.build_model(toy_cfg())
        report = record_rates(model, np.random.default_rng(5).normal(0, 3, (1, 3, 32, 32)))
        assert isinstance(report, Probe)
        assert {e.kind for e in report.entries} <= {"binary", "integer", "dense"}

    def test_get_series_and_layers_read_one_index(self):
        r = FiringRateReport()
        for layer, t, rate in (("a", 1, 0.25), ("b", 1, 0.5), ("a", 2, 0.75)):
            r.add(layer, t, rate)
        assert r.layers() == ["a", "b"]
        assert r.series("a", 2) == [r.get("a", 1), r.get("a", 2)] == [0.25, 0.75]
        assert [(e.layer, e.t, e.rate, e.kind) for e in r.entries] == [
            ("a", 1, 0.25, None), ("b", 1, 0.5, None), ("a", 2, 0.75, None)]
        with pytest.raises(ReportError, match="no firing rate recorded for b at t=2"):
            r.series("b", 2)

    def test_repeated_layer_and_step_is_refused(self):
        r = FiringRateReport()
        r.add("a", 1, 0.25)
        with pytest.raises(ReportError, match="a at t=1 given twice"):
            r.add("a", 1, 0.75)
        assert r.get("a", 1) == r.series("a", 1)[0] == 0.25

    def test_one_probe_cannot_hold_two_forwards(self):
        model = sd.build_model(toy_cfg())
        probe = Probe()
        x = np.zeros((1, 3, 32, 32))
        model.forward(x, timesteps=1, probe=probe)
        with pytest.raises(ReportError, match="given twice"):
            model.forward(x, timesteps=1, probe=probe)

    def test_observe_measures_with_the_tensor_helpers(self):
        from spikedrive.tensors import firing_rate, kind_of
        probe = Probe()
        for layer, a in (("s", np.array([[0.0, 1.0], [1.0, 1.0]])), ("i", np.array([0, 2, 0])),
                         ("d", np.array([0.5, 0.0]))):
            probe.observe(layer, 3, a)
            e = probe.entries[-1]
            assert (e.layer, e.t, e.rate, e.kind) == (layer, 3, firing_rate(a), kind_of(a))
        assert [e.kind for e in probe.entries] == ["binary", "integer", "dense"]


class TestFixtureReportPinned:
    def test_31m_report_text_is_byte_identical(self):
        # pinned text: a change to any rate lookup, FLOPs figure or number format shows here
        want = (Path(__file__).parent / "data" / "energy_31m_t4.txt").read_text()
        got = estimate_energy(sd.ModelConfig(base_channels=48), load_rate_fixture(), 4)
        assert got.to_text() == want

    def test_repeated_row_names_its_line(self, tmp_path):
        fixture = sd.energy.packaged_fixture_path().read_text()
        p = tmp_path / "rates.txt"
        p.write_text(fixture + "3 block1 qkv 1 0.9000\n")
        line = fixture.count("\n") + 1
        with pytest.raises(ParseError, match=f"line {line}.*stage3.block1.qkv at t=1 given twice"):
            load_rate_fixture(p)


class TestFixtureTimesteps:
    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_timestep_below_one_names_its_line(self, tmp_path, t):
        p = tmp_path / "rates.txt"
        p.write_text(f"1 ds1 conv 1 0.5\n# comment\n1 ds1 conv {t} 0.5\n")
        want = f"line 3: timestep must be >= 1 in '1 ds1 conv {t} 0.5'"
        with pytest.raises(ParseError, match=want):
            load_rate_fixture(p)


class TestChargedFlopsMatchTheBuiltModel:
    """Each conv/mlp op's FLOPs in ``charged_ops`` equal those worked out
    again from a built model: its weights and the output maps its convs give
    in one forward."""

    @pytest.mark.parametrize("shortcut", ["MS", "SEW"])
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_conv_and_mlp_flops(self, monkeypatch, shortcut, variant):
        cfg = toy_cfg(shortcut=shortcut, sdsa_variant=variant, resolution=33)
        model = sd.build_model(cfg)
        maps, conv2d = {}, ad.conv2d  # weight name -> (Ho, Wo) of its conv

        def recording(tape, x, w, *args):
            out = conv2d(tape, x, w, *args)
            maps[w.name] = out.shape[2:]
            return out

        monkeypatch.setattr(ad, "conv2d", recording)
        model.forward(np.zeros((1, 3, 33, 33)), timesteps=1)
        layers = {}

        def walk(m):
            layers[getattr(m, "name", "")] = m
            for value in vars(m).values():
                for child in value if isinstance(value, list) else (value,):
                    if isinstance(child, Module):
                        walk(child)

        walk(model)

        charged = set()  # weight names of the convs an op counts

        def conv(weights, out_name):  # k^2 (C_in/G) C_out Ho Wo
            c_out, c_in_g, k, _ = weights.shape
            ho, wo = maps[out_name]
            charged.add(out_name)
            return k * k * c_in_g * c_out * ho * wo

        def conv_bn(layer):
            return conv(layers[layer].w.data, layers[layer].w.name)

        def rep_conv(layer):  # the folded 3x3, on the map of its last conv
            rep = layers[layer]
            charged.update((rep.pw1.name, rep.dw.w.name))
            return conv(rep.fold().weights, rep.pw2.w.name)

        for op in charged_ops(cfg):
            prefix, leaf = op.layer.rsplit(".", 1)
            if op.kind == "sdsa":
                continue
            if op.layer == "head.fc":
                want = layers[op.layer].w.data.size  # C * K
            elif leaf.startswith("ds"):
                want = conv_bn(f"{op.layer}.conv")
            elif leaf == "dwpw2":
                want = conv_bn(f"{prefix}.dw") + conv_bn(f"{prefix}.pw2")
            elif leaf == "qkv":
                want = sum(rep_conv(f"{prefix}.rep_{m}") for m in "qkv"
                           if layers.get(f"{prefix}.rep_{m}") is not None)
            elif leaf == "repconv4":
                want = rep_conv(f"{prefix}.rep4")
            else:
                want = conv_bn(op.layer)
            assert op.flops == want, op.layer
        assert charged == set(maps)  # no conv of the forward goes uncharged


class TestChargedOpKinds:
    """``ChargedOp.kind`` decides how an op is charged and, in the benchmark's
    event plan, which event kernel runs it: the raw-pixel conv is the
    encoding, attention its operator, the MLP and the head matmuls, and
    every other op a spike-driven conv."""

    @pytest.mark.parametrize("base_channels", [32, 48], ids=["15M", "31M"])
    def test_each_op_has_the_kind_of_its_layer(self, base_channels):
        ops = charged_ops(sd.ModelConfig(base_channels=base_channels))
        for op in ops:
            if op.layer == "stage1.ds1":
                want = "encoding"
            elif op.layer.endswith(".sdsa"):
                want = "sdsa"
            elif op.layer == "head.fc" or op.layer.endswith((".mlp.fc1", ".mlp.fc2")):
                want = "mlp"
            else:
                want = "conv"
            assert op.kind == want, op.layer
        kinds = [op.kind for op in ops]
        assert kinds.count("encoding") == 1 and kinds.count("mlp") == 2 * kinds.count("sdsa") + 1
