from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

import spikedrive as sd
from spikedrive import config
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

    def test_numpy_floats_are_written_as_numbers(self):
        tc = TrainConfig(lr=np.float64(0.01))
        text = config_to_text(ModelConfig(), tc)
        assert "lr = 0.01\n" in text
        assert parse_config_text(text)[1] == tc


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
        assert "31,292,344" in out

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
