import configparser
import functools
import io
import re
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

import spikedrive as sd
from spikedrive import config
from spikedrive.attention import SDSAConfig
from spikedrive.cli import main
from spikedrive.config import (ModelConfig, TrainConfig, config_to_text, parse_config,
                               parse_config_text)
from spikedrive.errors import ConfigError
from spikedrive.neuron import LIFParams

TOY_CONFIG = """
[model]
base_channels = 4
num_classes = 2
resolution = 32
depths = 1 1 1 1 1
heads = 2
timesteps = 1
seed = 42

[lif]
u_th = 1.0
beta = 0.5
surrogate_window = 1.0

[train]
epochs = 1
batch_size = 16
lr = 0.01
label_smoothing = 0.0
seed = 0
"""


class TestConfigParsing:
    def test_roundtrip(self):
        cfg, tc = parse_config_text(TOY_CONFIG)
        assert cfg.base_channels == 4 and cfg.depths == (1, 1, 1, 1, 1)
        assert cfg.lif.surrogate_window == 1.0
        assert tc.batch_size == 16
        text = config_to_text(cfg, tc)
        cfg2, tc2 = parse_config_text(text)
        assert cfg2 == cfg and tc2 == tc

    def test_unknown_key_is_fatal(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[model]\nbase_channels = 4\nmystery = 1\n")

    def test_unknown_section_is_fatal(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[model]\nbase_channels = 4\n[extras]\nx = 1\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="base_channels"):
            parse_config_text("[model]\nbase_channels = soup\n")

    def test_semantic_validation_still_applies(self):
        with pytest.raises(ConfigError):
            parse_config_text("[model]\nbase_channels = 4\nheads = 3\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_every_field_has_a_codec(self):
        # a field with no codec could not be written or read back
        for cls in (ModelConfig, LIFParams, TrainConfig):
            for name, t in get_type_hints(cls).items():
                if not (cls is ModelConfig and name == "lif"):
                    assert t in config._CODECS, f"{cls.__name__}.{name}"

    def test_every_field_non_default_roundtrips(self):
        lif = LIFParams(u_th=0.7, beta=0.6, v_reset=0.1, threshold_scale=0.5,
                        surrogate_window=0.2)
        cfg = ModelConfig(base_channels=8, num_classes=5, in_channels=2, resolution=48,
                          timesteps=3, depths=(2, 1, 3, 1, 2), sdsa_variant=4, heads=4,
                          threshold_scale=0.25, shortcut="SEW", seed=11, stage4_dim=96,
                          lif=lif)
        tc = TrainConfig(epochs=3, batch_size=8, lr=0.02, weight_decay=1e-4, beta1=0.8,
                         beta2=0.99, eps=1e-7, label_smoothing=0.2, seed=5,
                         augment_flip=True, schedule="cosine")
        for obj in (cfg, lif, tc):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(type(obj)(), f.name), f.name
        assert parse_config_text(config_to_text(cfg, tc)) == (cfg, tc)

    @pytest.mark.parametrize("word", ["ture", "maybe", ""])
    def test_bad_bool_is_fatal(self, word):
        with pytest.raises(ConfigError, match="augment_flip"):
            parse_config_text(f"[model]\nbase_channels = 4\n[train]\naugment_flip = {word}\n")

    def test_bad_bool_exits_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TOY_CONFIG + "augment_flip = ture\n")
        assert main(["train", "--config", str(p), "--epochs", "0",
                     "--out-dir", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("name,value", [("timesteps", 1.5), ("seed", True),
                                            ("stage4_dim", 40.0), ("heads", "2")])
    def test_model_integer_fields_refuse_other_values(self, name, value):
        with pytest.raises(ConfigError, match=f"{name}: {value!r} is not an integer"):
            ModelConfig(**{name: value})

    def test_depths_refuse_a_float(self):
        with pytest.raises(ConfigError, match="depths: 2.0 is not an integer"):
            ModelConfig(depths=(1, 1, 2.0, 6, 2))
        cfg = ModelConfig(depths=tuple(np.arange(1, 6)), timesteps=np.int64(2),
                          stage4_dim=np.int32(320))
        assert cfg.depths == (1, 2, 3, 4, 5) and cfg.timesteps == 2

    @pytest.mark.parametrize("name,value", [("batch_size", 2.5), ("epochs", True),
                                            ("seed", 0.0)])
    def test_train_integer_fields_refuse_other_values(self, name, value):
        with pytest.raises(ConfigError, match=f"{name}: {value!r} is not an integer"):
            TrainConfig(**{name: value})
        assert TrainConfig(**{name: np.int64(1)}) == TrainConfig(**{name: 1})

    @pytest.mark.parametrize("name,value,what", [
        ("depths", 5, "a sequence of integers"), ("threshold_scale", "x", "a real number"),
        ("threshold_scale", True, "a real number"), ("shortcut", 3, "a str"),
        ("lif", "x", "a LIFParams"), ("lif", None, "a LIFParams"),
        ("timesteps", None, "an integer")])
    def test_model_fields_refuse_values_of_another_type(self, name, value, what):
        with pytest.raises(ConfigError, match=re.escape(f"{name}: {value!r} is not {what}")):
            ModelConfig(**{name: value})
        cfg = ModelConfig(depths=[1, 1, 2, 6, 2], threshold_scale=np.float32(0.25),
                          stage4_dim=None)
        assert list(cfg.depths) == [1, 1, 2, 6, 2] and cfg.threshold_scale == 0.25

    @pytest.mark.parametrize("name,value,what", [
        ("lr", "0.1", "a real number"), ("eps", True, "a real number"),
        ("weight_decay", None, "a real number"), ("augment_flip", "yes", "a bool"),
        ("augment_flip", 1, "a bool"), ("schedule", None, "a str")])
    def test_train_fields_refuse_values_of_another_type(self, name, value, what):
        with pytest.raises(ConfigError, match=re.escape(f"{name}: {value!r} is not {what}")):
            TrainConfig(**{name: value})
        assert TrainConfig(lr=1, eps=np.float64(1e-8)) == TrainConfig(lr=1.0, eps=1e-8)

    def test_numpy_floats_are_written_as_numbers(self):
        tc = TrainConfig(lr=np.float64(0.01))
        text = config_to_text(ModelConfig(), tc)
        assert "lr = 0.01\n" in text
        assert parse_config_text(text)[1] == tc

    @pytest.mark.parametrize("cls,name,value,what", [
        (LIFParams, "u_th", True, "a real number"), (LIFParams, "beta", "0.5", "a real number"),
        (LIFParams, "surrogate_window", "x", "a real number"),
        (SDSAConfig, "variant", 2.0, "an integer"), (SDSAConfig, "heads", "2", "an integer"),
        (SDSAConfig, "threshold_scale", True, "a real number")])
    def test_neuron_and_attention_fields_refuse_values_of_another_type(self, cls, name, value,
                                                                       what):
        with pytest.raises(ConfigError, match=re.escape(f"{name}: {value!r} is not {what}")):
            cls(**{name: value})

    @pytest.mark.parametrize("name,value", [("u_th", 0.0), ("beta", 1.0),
                                            ("threshold_scale", -1.0),
                                            ("surrogate_window", 0.0)])
    def test_neuron_ranges_are_config_errors(self, name, value):
        with pytest.raises(ConfigError, match=name):
            LIFParams(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("sdsa_variant", 0), ("sdsa_variant", 5), ("heads", 0), ("heads", -2), ("heads", 3),
        ("threshold_scale", 0.0), ("threshold_scale", -1.0), ("threshold_scale", np.nan),
        ("threshold_scale", np.inf)])
    def test_model_and_attention_give_one_message_per_sdsa_setting(self, name, value):
        # heads 3 does not divide the default stage-3 width, 256
        with pytest.raises(ConfigError) as model_error:
            ModelConfig(**{name: value})
        key = "variant" if name == "sdsa_variant" else name
        with pytest.raises(ConfigError) as sdsa_error:
            SDSAConfig(**{key: value}, dim=ModelConfig().dims[3])
        assert str(model_error.value) == str(sdsa_error.value)

    def test_list_depths_build_the_same_config(self):
        cfg = ModelConfig(depths=[1, 1, 2, 6, 2])
        assert cfg == ModelConfig() and hash(cfg) == hash(ModelConfig())
        assert config_to_text(cfg) == config_to_text(ModelConfig())


@pytest.fixture
def toy_config_file(tmp_path):
    p = tmp_path / "toy.ini"
    p.write_text(TOY_CONFIG)
    return p


class TestCliInfo:
    def test_info_reports_params(self, toy_config_file, capsys):
        rc = main(["info", "--config", str(toy_config_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parameters:" in out
        cfg, _ = parse_config(toy_config_file)
        assert f"{sd.count_params(sd.build_model(cfg)):,}" in out

    def test_info_paper_scale_param_count(self, tmp_path, capsys):
        p = tmp_path / "c48.ini"
        p.write_text("[model]\nbase_channels = 48\n")
        rc = main(["info", "--config", str(p)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "31,278,232" in out

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["info", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2


class TestCliProfile:
    def test_fixture_profile_matches_library_call(self, tmp_path, capsys):
        outdir = tmp_path / "prof"
        cfg_file = tmp_path / "c48.ini"
        cfg_file.write_text("[model]\nbase_channels = 48\n")
        rc = main(["profile", "--config", str(cfg_file), "-T", "4",
                   "--out-dir", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        report = sd.estimate_energy(ModelConfig(base_channels=48),
                                    sd.load_rate_fixture(), 4)
        assert f"total {report.total_mj:.3f} mJ" in out
        text = (outdir / "energy.txt").read_text()
        assert text == report.to_text()
        assert (outdir / "energy.csv").read_text() == report.to_csv()

    def test_measured_profile_runs(self, toy_config_file, tmp_path, capsys):
        rc = main(["profile", "--config", str(toy_config_file), "--measure",
                   "--seed", "0", "--out-dir", str(tmp_path / "prof")])
        assert rc == 0
        assert "total" in capsys.readouterr().out

    def test_bad_rates_file_exits_3(self, toy_config_file, tmp_path, capsys):
        bad = tmp_path / "rates.txt"
        bad.write_text("not a rate table\n")
        rc = main(["profile", "--config", str(toy_config_file), "--rates", str(bad),
                   "--out-dir", str(tmp_path / "p")])
        assert rc == 3

    def test_incomplete_rates_exit_3(self, toy_config_file, tmp_path):
        partial = tmp_path / "rates.txt"
        partial.write_text("1 ds1 conv 1 1.0\n")
        rc = main(["profile", "--config", str(toy_config_file), "--rates", str(partial),
                   "-T", "1", "--out-dir", str(tmp_path / "p")])
        assert rc == 3


class TestCliTrain:
    def test_train_writes_checkpoint_and_metrics(self, toy_config_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = main(["train", "--config", str(toy_config_file), "--data", "blobs",
                   "--epochs", "1", "--out-dir", str(outdir)])
        assert rc == 0
        assert (outdir / "model.ckpt").exists()
        metrics = (outdir / "metrics.txt").read_text()
        assert "epoch 1" in metrics and "accuracy" in metrics
        cfg, _ = parse_config(toy_config_file)
        model = sd.build_model(cfg)
        sd.load_checkpoint(model, outdir / "model.ckpt")  # reloads cleanly

    def test_finetune_timesteps_after_training(self, toy_config_file, tmp_path):
        outdir = tmp_path / "run"
        assert main(["train", "--config", str(toy_config_file), "--epochs", "2",
                     "--finetune-timesteps", "2", "--out-dir", str(outdir)]) == 0
        assert "finetuning 1 -> 2 timesteps" in (outdir / "metrics.txt").read_text()
        cfg, _ = parse_config(toy_config_file)
        sd.load_checkpoint(sd.build_model(cfg), outdir / "model.ckpt")

    def test_bad_data_path_exits_3(self, toy_config_file, tmp_path):
        rc = main(["train", "--config", str(toy_config_file),
                   "--data", str(tmp_path / "none.npz"), "--epochs", "1",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 3

    @pytest.mark.parametrize("shape", [(4, 5, 32, 32), (4, 3, 16, 16), (4, 32, 32)])
    def test_mis_shaped_data_exits_3(self, toy_config_file, tmp_path, capsys, shape):
        # the config wants 3-channel 32x32 images
        data = tmp_path / "d.npz"
        np.savez(data, images=np.zeros(shape), labels=np.zeros(shape[0], dtype=np.int64))
        rc = main(["train", "--config", str(toy_config_file), "--data", str(data),
                   "--epochs", "1", "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        assert "(N, 3, 32, 32)" in capsys.readouterr().err

    def test_non_finite_data_exits_3(self, toy_config_file, tmp_path, capsys):
        data = tmp_path / "d.npz"
        images = np.zeros((4, 3, 32, 32))
        images[2, 0, 1, 1] = np.nan
        np.savez(data, images=images, labels=np.zeros(4, dtype=np.int64))
        rc = main(["train", "--config", str(toy_config_file), "--data", str(data),
                   "--epochs", "1", "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("labels, message", [([0, 1, 5, 1], "[0, 2)"),
                                                 ([0, 1, 1], "expected 4 labels")])
    def test_bad_labels_exit_3(self, toy_config_file, tmp_path, capsys, labels, message):
        data = tmp_path / "d.npz"
        np.savez(data, images=np.zeros((4, 3, 32, 32)), labels=np.array(labels))
        rc = main(["train", "--config", str(toy_config_file), "--data", str(data),
                   "--epochs", "1", "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("classes", [5, 1000])
    def test_blobs_of_more_than_four_classes_are_refused(self, tmp_path, capsys, classes):
        p = tmp_path / "many.ini"
        p.write_text(TOY_CONFIG.replace("num_classes = 2", f"num_classes = {classes}"))
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "0",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "at most 4 classes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_blobs_of_four_classes_train(self, tmp_path):
        p = tmp_path / "four.ini"
        p.write_text(TOY_CONFIG.replace("num_classes = 2", "num_classes = 4"))
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "0",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 0 and (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way
    def test_diverged_run_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "hot.ini"
        p.write_text(TOY_CONFIG.replace("lr = 0.01", "lr = 1000000.0"))
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "10",
                   "--out-dir", str(tmp_path / "run")])
        assert rc != 0
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_seed_repeat_identical_metrics(self, toy_config_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            rc = main(["train", "--config", str(toy_config_file), "--data", "blobs",
                       "--epochs", "1", "--seed", "9", "--out-dir", str(outdir)])
            assert rc == 0
            outs.append((outdir / "metrics.txt").read_text())
        assert outs[0] == outs[1]

    def test_vs_shortcut_warns(self, tmp_path, capsys):
        p = tmp_path / "vs.ini"
        p.write_text(TOY_CONFIG.replace("[lif]", "shortcut = VS\n\n[lif]"))
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "0",
                   "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 0
        assert "VS" in err and "identity" in err


class TestCliVerify:
    def test_blocks_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "blocks"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[blocks] PASS" in out

    def test_energy_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "energy"])
        assert rc == 0

    def test_gradcheck_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "training-mode batch_norm" in out and "[gradcheck] PASS" in out

    def test_kernels_suite_checks_wide_depthwise_maps(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "kernels"]) == 0
        assert "8 wider depthwise_conv cases" in capsys.readouterr().out
        import spikedrive.kernels as kernels_mod

        real = kernels_mod.depthwise_conv

        @functools.wraps(real)  # the suite keys its results by function name
        def broken_on_wide_maps(x, weights, stride, padding):
            out, adjoint = real(x, weights, stride, padding)
            if x.shape[-1] > 9:  # wider than any of the suite's random draws
                out += 1.0
            return out, adjoint

        monkeypatch.setattr(kernels_mod, "depthwise_conv", broken_on_wide_maps)
        assert main(["verify", "--suite", "kernels"]) == 1
        assert "depthwise_conv deviation" in capsys.readouterr().out

    def test_injected_bug_fails_suite(self, monkeypatch, capsys):
        import spikedrive.kernels as kernels_mod

        real = kernels_mod.event_matmul

        def broken(s, w, counter=None):
            out = real(s, w, counter=counter)
            return sd.DenseTensor(out.data + 1.0)

        monkeypatch.setattr(kernels_mod, "event_matmul", broken)
        import spikedrive.verify as verify_mod
        monkeypatch.setattr(verify_mod.kernels, "event_matmul", broken)
        rc = main(["verify", "--suite", "kernels"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[kernels] FAIL" in out


    def test_sdsa_suite_runs_its_oracles(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "sdsa"]) == 0
        out = capsys.readouterr().out
        assert "sdsa3 associativity + formula oracle: 500 cases exact" in out
        assert "sdsa1/sdsa2 formula oracles: 200 cases exact" in out
        import spikedrive.attention as attention_mod

        real = attention_mod.sdsa3

        def one_flipped(*args, **kwargs):
            data = real(*args, **kwargs).data.copy()
            data[0, 0] ^= 1
            return sd.SpikeTensor(data)

        monkeypatch.setattr(attention_mod, "sdsa3", one_flipped)
        assert main(["verify", "--suite", "sdsa"]) == 1
        assert "sdsa3 diverged" in capsys.readouterr().out


class TestCliConvert:
    def test_convert_roundtrip(self, tmp_path, capsys):
        events = tmp_path / "ev.txt"
        events.write_text("0,0,0,1\n50,2,3,0\n99,1,1,1\n")
        out = tmp_path / "frames.npy"
        rc = main(["convert", str(events), "-T", "2", "--height", "4", "--width", "4",
                   "--out", str(out)])
        assert rc == 0
        frames = np.load(out)
        assert frames.shape == (2, 1, 1, 4, 4)
        assert frames.sum() == 3

    def test_malformed_events_exit_3(self, tmp_path):
        events = tmp_path / "ev.txt"
        events.write_text("garbage\n")
        rc = main(["convert", str(events), "--height", "4", "--width", "4",
                   "--out", str(tmp_path / "o.npy")])
        assert rc == 3

    def test_usage_error_exits_2(self):
        assert main(["convert"]) == 2


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["profile", "-T", "0"],
        ["profile", "-T", "-2"],
        ["profile", "--timesteps", "1.5"],
        ["train", "-T", "0", "--epochs", "0"],
        ["train", "--epochs", "-1"],
        ["train", "--epochs", "0", "--finetune-timesteps", "0"],
        ["convert", "ev.txt", "-T", "0", "--height", "4", "--width", "4"],
    ])
    def test_counts_out_of_range_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        # 0 is refused, not read as "use the config's T"; nothing is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ev.txt").write_text("0,0,0,1\n")
        assert main(argv) == 2
        assert "error: argument -" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.txt"]


class TestRepeatedRates:
    def test_repeated_layer_and_step_exits_3(self, tmp_path, capsys):
        # a second (stage3.block1.qkv, t=1) row would otherwise move the total
        rates = tmp_path / "rates.txt"
        rates.write_text(sd.energy.packaged_fixture_path().read_text()
                         + "3 block1 qkv 1 0.9000\n")
        cfg_file = tmp_path / "c48.ini"
        cfg_file.write_text("[model]\nbase_channels = 48\n")
        rc = main(["profile", "--config", str(cfg_file), "-T", "4", "--rates", str(rates),
                   "--out-dir", str(tmp_path / "p")])
        assert rc == 3
        assert "stage3.block1.qkv at t=1 given twice" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


class TestVerifyEnergyCoverage:
    def _run(self, monkeypatch, tmp_path, text):
        import spikedrive.verify as verify_mod
        p = tmp_path / "rates.txt"
        p.write_text(text)
        monkeypatch.setattr(verify_mod.energy, "packaged_fixture_path", lambda: p)
        lines = []
        return verify_mod.run_suite("energy", log=lines.append), lines

    def _fixture_lines(self):
        return sd.energy.packaged_fixture_path().read_text().splitlines(keepends=True)

    def test_packaged_fixture_covers_every_key(self, monkeypatch, tmp_path):
        ok, lines = self._run(monkeypatch, tmp_path, "".join(self._fixture_lines()))
        assert ok
        assert "[energy] fixture holds one rate per rate key (94) and t = 1..4" in lines

    def test_missing_row_fails(self, monkeypatch, tmp_path):
        rows = [ln for ln in self._fixture_lines() if not ln.startswith("4 block2 mlp.fc2 3 ")]
        ok, lines = self._run(monkeypatch, tmp_path, "".join(rows))
        assert not ok
        assert any("stage4.block2.mlp.fc2 at t=3" in ln for ln in lines)

    def test_extra_layer_fails(self, monkeypatch, tmp_path):
        # four more rows for a layer the 31M config does not have
        text = "".join(self._fixture_lines()) + "".join(
            f"4 block9 fc1 {t} 0.1\n" for t in range(1, 5))
        ok, lines = self._run(monkeypatch, tmp_path, text)
        assert not ok
        assert any("layers no op charges: ['stage4.block9.fc1']" in ln for ln in lines)

    def test_extra_timestep_fails(self, monkeypatch, tmp_path):
        text = "".join(self._fixture_lines()) + "head - fc 5 0.4\n"
        ok, lines = self._run(monkeypatch, tmp_path, text)
        assert not ok
        assert any("fixture holds 377 rates, expected 376" in ln for ln in lines)

    def test_timestep_outside_one_to_four_fails(self, monkeypatch, tmp_path):
        # head.fc at t = 1, 2, 3, 5: the layer set and the row count both match
        rows = [ln.replace(" 4 ", " 5 ", 1) if ln.startswith("head - fc 4 ") else ln
                for ln in self._fixture_lines()]
        ok, lines = self._run(monkeypatch, tmp_path, "".join(rows))
        assert not ok
        assert any("head.fc at t=4" in ln for ln in lines)


class TestRateTimesteps:
    def test_timestep_zero_exits_3(self, tmp_path, capsys):
        rates = tmp_path / "rates.txt"
        rates.write_text(sd.energy.packaged_fixture_path().read_text() + "1 ds1 conv 0 0.5\n")
        cfg_file = tmp_path / "c48.ini"
        cfg_file.write_text("[model]\nbase_channels = 48\n")
        rc = main(["profile", "--config", str(cfg_file), "-T", "4", "--rates", str(rates),
                   "--out-dir", str(tmp_path / "p")])
        assert rc == 3
        assert "timestep must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


class TestVerifySuiteChoices:
    def test_choices_are_the_suite_table(self, monkeypatch):
        import spikedrive.verify as verify_mod
        from spikedrive.cli import build_parser
        monkeypatch.setitem(verify_mod.SUITES, "extra", lambda: (True, ["ok"]))
        args = build_parser().parse_args(["verify", "--suite", "extra"])
        assert args.suite == "extra" and main(["verify", "--suite", "extra"]) == 0
        assert main(["verify", "--suite", "nope"]) == 2


def _checkpoint_train_config(path):
    """The [train] section stored in a checkpoint's config text."""
    import struct

    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    return parse_config_text(raw[12:12 + cfg_len].decode("utf-8"))[1]


class TestCliSettings:
    """--seed, --epochs and -T override the config in one place; -T stays out
    of the checkpoint's model config."""

    def _train(self, config, tmp_path, *extra):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config), "--data", "blobs",
                   "--out-dir", str(out), *extra])
        assert rc == 0
        epochs = sum(ln.startswith("epoch ")
                     for ln in (out / "metrics.txt").read_text().splitlines())
        return epochs, out / "model.ckpt"

    def test_config_epochs_apply_without_the_flag(self, toy_config_file, tmp_path):
        epochs, ckpt = self._train(toy_config_file, tmp_path)
        assert epochs == 1 and _checkpoint_train_config(ckpt).epochs == 1

    def test_epochs_flag_overrides_the_config(self, toy_config_file, tmp_path):
        epochs, ckpt = self._train(toy_config_file, tmp_path, "--epochs", "2")
        assert epochs == 2 and _checkpoint_train_config(ckpt).epochs == 2

    def test_seed_flag_is_stored(self, toy_config_file, tmp_path):
        _, ckpt = self._train(toy_config_file, tmp_path, "--epochs", "0", "--seed", "9")
        assert _checkpoint_train_config(ckpt).seed == 9

    def test_timesteps_flag_stays_out_of_the_checkpoint(self, toy_config_file, tmp_path):
        _, ckpt = self._train(toy_config_file, tmp_path, "--epochs", "0", "-T", "2")
        cfg, _ = parse_config(toy_config_file)
        sd.load_checkpoint(sd.build_model(cfg), ckpt)  # stored timesteps are the file's

    def test_measured_profile_is_seeded_by_the_config(self, toy_config_file, tmp_path):
        reports = []
        for name in ("a", "b"):
            assert main(["profile", "--config", str(toy_config_file), "--measure",
                         "--out-dir", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "energy.csv").read_text())
        assert reports[0] == reports[1]


class TestCliDataErrors:
    """Every way a training set fails to load exits 3 with one stderr line."""

    @staticmethod
    def _write(kind, path):
        if kind == "empty":
            np.savez(path, images=np.zeros((0, 3, 32, 32)), labels=np.zeros(0, dtype=np.int64))
        elif kind == "npy":
            np.save(path, np.zeros((4, 3, 32, 32)))
        elif kind == "corrupt":
            np.savez(path, images=np.zeros((4, 3, 32, 32)), labels=np.zeros(4, dtype=np.int64))
            path.write_bytes(path.read_bytes()[:200])
        elif kind == "not_npy_members":
            import zipfile

            with zipfile.ZipFile(path, "w") as zf:
                zf.writestr("images.npy", b"junk")
                zf.writestr("labels.npy", b"junk")
        elif kind == "no_labels":
            np.savez(path, images=np.zeros((4, 3, 32, 32)))

    @pytest.mark.parametrize("kind, name", [("empty", "d.npz"), ("npy", "d.npy"),
                                            ("corrupt", "d.npz"),
                                            ("not_npy_members", "d.npz"),
                                            ("no_labels", "d.npz")])
    def test_unloadable_data_exits_3(self, toy_config_file, tmp_path, capsys, kind, name):
        data = tmp_path / name
        self._write(kind, data)
        rc = main(["train", "--config", str(toy_config_file), "--data", str(data),
                   "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("data error: cannot load dataset") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_rates_file_exits_3(self, toy_config_file, tmp_path, capsys):
        rc = main(["profile", "--config", str(toy_config_file), "--rates",
                   str(tmp_path / "absent.txt"), "--out-dir", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert rc == 3 and "absent.txt" in err and err.count("\n") == 1


class TestConvertSizes:
    @pytest.mark.parametrize("flags", [["--height", "-1", "--width", "4"],
                                       ["--height", "4", "--width", "0"]])
    def test_non_positive_size_exits_2(self, tmp_path, capsys, flags):
        events = tmp_path / "ev.txt"
        events.write_text("")
        out = tmp_path / "o.npy"
        assert main(["convert", str(events), *flags, "--out", str(out)]) == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestCliOutputErrors:
    """A run's outputs that cannot be written exit 4 with one "output error"
    line; a missing input still exits 3."""

    @staticmethod
    def _exits_4(capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("output error: ") and err.count("\n") == 1
        return err

    def test_profile_out_dir_under_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        self._exits_4(capsys, ["profile", "--out-dir", str(afile / "p")])

    def test_profile_report_that_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "p" / "energy.csv").mkdir(parents=True)
        self._exits_4(capsys, ["profile", "--out-dir", str(tmp_path / "p")])

    def test_train_out_dir_under_a_file(self, toy_config_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        self._exits_4(capsys, ["train", "--config", str(toy_config_file), "--epochs", "0",
                               "--out-dir", str(afile / "run")])

    @pytest.mark.parametrize("name", ["metrics.txt", "model.ckpt"])
    def test_train_output_that_cannot_be_written(self, toy_config_file, tmp_path, capsys,
                                                 name):
        (tmp_path / "run" / name).mkdir(parents=True)
        self._exits_4(capsys, ["train", "--config", str(toy_config_file), "--epochs", "0",
                               "--out-dir", str(tmp_path / "run")])

    def test_convert_out_under_a_file(self, tmp_path, capsys):
        events = tmp_path / "ev.txt"
        events.write_text("0,0,0,1\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        self._exits_4(capsys, ["convert", str(events), "--height", "4", "--width", "4",
                               "--out", str(afile / "o.npy")])

    def test_missing_input_still_exits_3(self, tmp_path, capsys):
        rc = main(["convert", str(tmp_path / "absent.txt"), "--height", "4", "--width", "4",
                   "--out", str(tmp_path / "o.npy")])
        assert rc == 3 and capsys.readouterr().err.startswith("data error: ")


class TestNonFiniteNeuronSettings:
    """A neuron setting that is not finite (or a threshold scale that is not
    positive) is a config error: exit 2, nothing written."""

    CASES = [("[model]", "threshold_scale = nan"), ("[lif]", "v_reset = nan"),
             ("[model]", "threshold_scale = 0"), ("[lif]", "beta = inf"),
             ("[lif]", "surrogate_window = nan"), ("[model]", "threshold_scale = -inf")]

    @staticmethod
    def _text(section, line):
        return TOY_CONFIG.replace(f"{section}\n", f"{section}\n{line}\n", 1)

    @pytest.mark.parametrize("section,line", CASES)
    def test_parse_refuses(self, section, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config_text(self._text(section, line))

    @pytest.mark.parametrize("section,line", CASES[:3])
    def test_train_exits_2_and_writes_nothing(self, section, line, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(self._text(section, line))
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--data", "blobs", "--epochs", "1",
                     "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_model_config_refuses(self, value):
        with pytest.raises(ConfigError, match="threshold_scale"):
            ModelConfig(threshold_scale=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sdsa_config_refuses(self, value):
        with pytest.raises(ValueError, match="threshold_scale"):
            SDSAConfig(threshold_scale=value)


class TestOptimizerSettings:
    """An optimizer setting that cannot train is a config error: exit 2, no
    checkpoint written."""

    CASES = [("lr", "nan"), ("lr", "inf"), ("lr", "0.0"), ("lr", "-0.01"),
             ("weight_decay", "nan"), ("weight_decay", "inf"), ("weight_decay", "-0.0001"),
             ("beta1", "1.5"), ("beta1", "1.0"), ("beta1", "-0.1"), ("beta1", "nan"),
             ("beta2", "1.0"), ("beta2", "nan"), ("beta2", "-1.0"),
             ("eps", "0.0"), ("eps", "-1e-08"), ("eps", "nan"), ("eps", "inf"),
             ("label_smoothing", "nan")]

    @staticmethod
    def _text(key, value):
        lines = [ln for ln in TOY_CONFIG.splitlines() if not ln.startswith(f"{key} =")]
        at = lines.index("[train]") + 1
        return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"

    @pytest.mark.parametrize("key,value", CASES)
    def test_train_config_refuses(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: float(value)})

    @pytest.mark.parametrize("key,value", CASES)
    def test_train_exits_2_and_writes_no_checkpoint(self, key, value, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(self._text(key, value))
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--data", "blobs", "--epochs", "1",
                     "--out-dir", str(out)]) == 2
        assert not (out / "model.ckpt").exists()
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("lr", 1e6), ("lr", 1e-12), ("weight_decay", 0.0),
                                           ("beta1", 0.0), ("beta2", 0.0), ("eps", 1e-300)])
    def test_edges_that_can_train_are_accepted(self, key, value):
        assert getattr(TrainConfig(**{key: value}), key) == value
        _, tc = parse_config_text(self._text(key, repr(value)))
        assert getattr(tc, key) == value


class TestModelSettings:
    """Head counts, stage-4 widths and seeds that cannot build a model are
    config errors: exit 2, no traceback, no checkpoint written."""

    CASES = [("model", {"heads": "0"}), ("model", {"heads": "-2", "sdsa_variant": "1"}),
             ("model", {"stage4_dim": "-8"}), ("model", {"stage4_dim": "0"}),
             ("model", {"seed": "-1"}), ("train", {"seed": "-3"})]

    @staticmethod
    def _text(section, settings):
        cp = configparser.ConfigParser()
        cp.read_string(TOY_CONFIG)
        cp[section].update(settings)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @pytest.mark.parametrize("section,settings", CASES)
    def test_config_refuses(self, section, settings):
        key = next(iter(settings))
        cls = ModelConfig if section == "model" else TrainConfig
        with pytest.raises(ConfigError, match=f"{key} must be >= "):
            cls(**{k: int(v) for k, v in settings.items()})

    @pytest.mark.parametrize("section,settings", CASES)
    def test_train_exits_2_and_writes_no_checkpoint(self, section, settings, tmp_path,
                                                    capsys):
        p = tmp_path / "bad.ini"
        p.write_text(self._text(section, settings))
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--data", "blobs", "--epochs", "0",
                     "--out-dir", str(out)]) == 2
        assert not (out / "model.ckpt").exists()
        err = capsys.readouterr().err
        assert next(iter(settings)) in err and "Traceback" not in err

    def test_edges_are_accepted(self):
        assert ModelConfig(heads=1).heads == 1
        assert ModelConfig(stage4_dim=1, sdsa_variant=1).dims[4] == 1
        assert ModelConfig(seed=0).seed == 0 and TrainConfig(seed=0).seed == 0
        assert ModelConfig(base_channels=4, heads=2, stage4_dim=None).dims[4] == 40


class TestBlobsFlip:
    """A horizontal flip moves blobs class 0 onto class 2's quadrant and class
    1 onto class 3's, so ``--data blobs`` refuses it for more than 2 classes."""

    def test_flip_with_three_classes_exits_2_and_writes_no_checkpoint(self, tmp_path, capsys):
        p = tmp_path / "flip3.ini"
        p.write_text(TOY_CONFIG.replace("num_classes = 2", "num_classes = 3")
                     + "augment_flip = true\n")
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "1",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "augment_flip = true needs at most 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_flip_with_two_classes_trains(self, tmp_path):
        p = tmp_path / "flip2.ini"
        p.write_text(TOY_CONFIG + "augment_flip = true\n")
        rc = main(["train", "--config", str(p), "--data", "blobs", "--epochs", "1",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run" / "model.ckpt").exists()
