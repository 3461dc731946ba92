"""Command-line interface.

Exit codes, decided in one place (:func:`main`): 0 success, 1 verification
failure or any other library error, 2 usage/config error, 3 data error, 4
output error. Exit 3 covers every file that cannot be read or does not hold
what the command needs: a malformed rate table or event file, a rate table
that does not cover the model, a training set that is not a readable
``.npz`` with images and labels fitting the config, and any other
``OSError``, such as a missing input. Exit 4 covers the run's own outputs: an
``--out-dir`` that cannot be made, and ``energy.txt``, ``energy.csv``,
``metrics.txt``, the checkpoint or ``convert --out`` that cannot be written
(:func:`_writing`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ModelConfig, TrainConfig, parse_config, stages
from .energy import estimate_energy, load_rate_fixture, record_rates
from .errors import ConfigError, OutputError, ParseError, ReportError, SpikeDriveError
from .model import build_model, count_params, save_checkpoint
from .tensors import load_event_file
from .train import Dataset, finetune_timesteps, make_blobs, train_toy
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_OUTPUT = 4


def _load_configs(args) -> tuple[ModelConfig, TrainConfig, int]:
    """The run's settings: the config file's model and training configs (the
    defaults without one) with ``--seed`` and ``--epochs`` applied where
    given, and the timestep count, ``-T`` or else the config's. ``-T`` stays
    out of the model config, so a checkpoint stores the file's timesteps and
    loads into a model built from the same file."""
    cfg, tc = (ModelConfig(), TrainConfig()) if args.config is None else parse_config(args.config)
    given = {k: v for k in ("seed", "epochs") if (v := getattr(args, k, None)) is not None}
    timesteps = getattr(args, "timesteps", None)
    return cfg, replace(tc, **given), cfg.timesteps if timesteps is None else timesteps


@contextlib.contextmanager
def _writing():
    """Turn an ``OSError`` from writing the run's outputs into an
    ``OutputError``, so that it exits 4 rather than 3 like a bad input."""
    try:
        yield
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def cmd_info(args) -> int:
    cfg, _, _ = _load_configs(args)
    model = build_model(cfg)
    sizes = [st.size for st in stages(cfg)]
    print(f"stage dims: {cfg.dims}")
    print(f"block counts: {cfg.depths}")
    print(f"stage feature maps: {[f'{s}x{s}' for s in sizes]}")
    print(f"tokens per transformer stage: {sizes[3] ** 2} / {sizes[4] ** 2}")
    print(f"sdsa variant: {cfg.sdsa_variant}  shortcut: {cfg.shortcut}  T: {cfg.timesteps}")
    print(f"parameters: {count_params(model):,}")
    return EXIT_OK


def cmd_profile(args) -> int:
    cfg, tc, timesteps = _load_configs(args)
    if args.measure:
        model = build_model(cfg)
        rng = np.random.default_rng(tc.seed)
        x = rng.random((1, cfg.in_channels, cfg.resolution, cfg.resolution))
        rates = record_rates(model, x, timesteps=timesteps)
    else:
        rates = load_rate_fixture(args.rates)
    report = estimate_energy(cfg, rates, timesteps)
    out_dir = Path(args.out_dir)
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "energy.txt").write_text(report.to_text(), encoding="utf-8")
        (out_dir / "energy.csv").write_text(report.to_csv(), encoding="utf-8")
    print(f"total {report.total_mj:.3f} mJ over T={timesteps} "
          f"({len(report.rows)} charged ops; reports in {out_dir})")
    return EXIT_OK


def _load_dataset(path, cfg: ModelConfig, tc: TrainConfig) -> Dataset:
    """``make_blobs`` for "blobs", else the images and labels of an ``.npz``;
    raises ``ConfigError`` for blobs of more than four classes, which share
    quadrants and cannot be told apart, or of more than two with
    ``augment_flip``, whose mirror moves class 0 onto class 2's quadrant and
    class 1 onto class 3's, and ``ParseError`` for any file that cannot give
    a training set that fits ``cfg``."""
    if path == "blobs":
        if cfg.num_classes > 4:
            raise ConfigError(f"--data blobs separates at most 4 classes, the config has "
                              f"num_classes = {cfg.num_classes}")
        if tc.augment_flip and cfg.num_classes > 2:
            raise ConfigError(f"--data blobs with augment_flip = true needs at most 2 "
                              f"classes, the config has num_classes = {cfg.num_classes}: "
                              f"a mirrored blob lies in another class's quadrant")
        return make_blobs(256, resolution=cfg.resolution, classes=cfg.num_classes,
                          seed=tc.seed, channels=cfg.in_channels)
    try:
        npz = np.load(path)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with npz:
            images, labels = npz["images"], npz["labels"]
        want = (cfg.in_channels, cfg.resolution, cfg.resolution)
        if np.shape(images)[1:] != want:  # a member that is no .npy array reads as bytes
            raise ValueError(f"images have shape {np.shape(images)}, the config needs "
                             f"(N, {want[0]}, {want[1]}, {want[2]})")
        data = Dataset(images, labels)
        if data.labels.min() < 0 or data.labels.max() >= cfg.num_classes:
            raise ValueError(f"labels must lie in [0, {cfg.num_classes}), got "
                             f"{data.labels.min()}..{data.labels.max()}")
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"cannot load dataset {path!r}: {exc}") from None
    return data


def cmd_train(args) -> int:
    cfg, tc, timesteps = _load_configs(args)
    data = _load_dataset(args.data, cfg, tc)
    if cfg.shortcut == "VS":
        print("warning: the VS shortcut cannot realize identity mappings and is "
              "expected to train poorly", file=sys.stderr)
    model = build_model(cfg)
    out_dir = Path(args.out_dir)
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.txt"
    lines = []

    def log(msg):
        print(msg)
        lines.append(msg)

    history = train_toy(model, data, tc.epochs, tc=tc, timesteps=timesteps, log=log)
    if args.finetune_timesteps is not None:
        log(f"finetuning {timesteps} -> {args.finetune_timesteps} timesteps")
        history += finetune_timesteps(model, timesteps, args.finetune_timesteps,
                                      max(1, tc.epochs // 4), data, tc=tc, log=log)
    ckpt = out_dir / "model.ckpt"
    with _writing():
        metrics_path.write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
        save_checkpoint(model, ckpt, tc)
    final = history[-1] if history else {"accuracy": float("nan")}
    print(f"final train accuracy {final['accuracy']:.4f}; checkpoint at {ckpt}")
    return EXIT_OK


def cmd_verify(args) -> int:
    return EXIT_OK if run_suite(args.suite) else EXIT_VERIFY


def cmd_convert(args) -> int:
    spikes = load_event_file(args.events, bins=args.bins, resolution=(args.height, args.width),
                             channels=args.channels)
    out = Path(args.out)
    with _writing():
        np.save(out, spikes.data)
    nz = int(spikes.data.sum())
    print(f"wrote {spikes.shape} spike tensor ({nz} active pixels) to {out}")
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``; anything else exits 2."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spikedrive",
                                description="Event-driven spiking network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="config file (key = value sections)")
        sp.add_argument("--timesteps", "-T", type=_int_at_least(1), default=None)
        sp.add_argument("--seed", type=int, default=None,
                        help="seed of the data, training and --measure input "
                             "(default: the config's [train] seed)")

    sp = sub.add_parser("info", help="print architecture summary and parameter count")
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("profile", help="estimate inference energy")
    common(sp)
    sp.add_argument("--rates", default=None, help="firing-rate fixture (default: packaged table)")
    sp.add_argument("--measure", action="store_true",
                    help="measure rates on a random input instead of a fixture")
    sp.add_argument("--out-dir", default="profile_out")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("train", help="toy-scale direct training")
    common(sp)
    sp.add_argument("--data", default="blobs", help="'blobs' or an .npz with images/labels")
    sp.add_argument("--epochs", type=_int_at_least(0), default=None,
                    help="epochs to train (default: the config's [train] epochs)")
    sp.add_argument("--finetune-timesteps", type=_int_at_least(1), default=None,
                    help="after training, briefly re-fit at this timestep count")
    sp.add_argument("--out-dir", default="train_out")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("verify", help="run self-check suites")
    sp.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("convert", help="bin a DVS event text file into spike frames")
    sp.add_argument("events", help="text file of timestamp_us,x,y,polarity lines")
    sp.add_argument("--timesteps", "-T", dest="bins", metavar="TIMESTEPS",
                    type=_int_at_least(1), default=4, help="number of time bins")
    sp.add_argument("--height", type=_int_at_least(1), required=True)
    sp.add_argument("--width", type=_int_at_least(1), required=True)
    sp.add_argument("--channels", type=int, default=1, choices=(1, 2))
    sp.add_argument("--out", default="events.npy")
    sp.set_defaults(fn=cmd_convert)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (ParseError, ReportError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpikeDriveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
