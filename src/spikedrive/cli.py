"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ModelConfig, TrainConfig, parse_config, stages
from .energy import estimate_energy, load_rate_fixture, record_rates
from .estimator import check_images, check_labels
from .errors import ConfigError, ParseError, ReportError, SpikeDriveError
from .model import build_model, count_params, load_checkpoint, save_checkpoint
from .tensors import load_event_file
from .train import Dataset, finetune_timesteps, make_blobs, train_toy

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _load_configs(path) -> tuple[ModelConfig, TrainConfig]:
    if path is None:
        return ModelConfig(), TrainConfig()
    return parse_config(path)


def cmd_info(args) -> int:
    cfg, _ = _load_configs(args.config)
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
    cfg, _ = _load_configs(args.config)
    timesteps = args.timesteps or cfg.timesteps
    if args.measure:
        model = build_model(cfg)
        rng = np.random.default_rng(args.seed)
        x = rng.random((1, cfg.in_channels, cfg.resolution, cfg.resolution))
        rates = record_rates(model, x, timesteps=timesteps)
    else:
        try:
            rates = load_rate_fixture(args.rates)
        except (OSError, ParseError) as exc:
            print(f"error: cannot load rates: {exc}", file=sys.stderr)
            return EXIT_DATA
    try:
        report = estimate_energy(cfg, rates, timesteps)
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "energy.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "energy.csv").write_text(report.to_csv(), encoding="utf-8")
    print(f"total {report.total_mj:.3f} mJ over T={timesteps} "
          f"({len(report.rows)} charged ops; reports in {out_dir})")
    return EXIT_OK


def _load_dataset(path, cfg: ModelConfig, seed: int) -> Dataset:
    if path == "blobs":
        return make_blobs(256, resolution=cfg.resolution, classes=cfg.num_classes,
                          seed=seed, channels=cfg.in_channels)
    data = np.load(path)
    images = np.asarray(data["images"], dtype=np.float64)
    want = (cfg.in_channels, cfg.resolution, cfg.resolution)
    if images.ndim != 4 or images.shape[1:] != want:
        raise ValueError(f"images have shape {images.shape}, the config needs (N, {want[0]}, "
                         f"{want[1]}, {want[2]})")
    images = check_images(images)
    labels = check_labels(data["labels"], len(images))
    if labels.size and (labels.min() < 0 or labels.max() >= cfg.num_classes):
        raise ValueError(f"labels must lie in [0, {cfg.num_classes}), got "
                         f"{labels.min()}..{labels.max()}")
    return Dataset(images=images, labels=labels)


def cmd_train(args) -> int:
    cfg, tc = _load_configs(args.config)
    if args.seed is not None:
        tc = replace(tc, seed=args.seed)
    timesteps = args.timesteps or cfg.timesteps
    try:
        data = _load_dataset(args.data, cfg, tc.seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load dataset {args.data!r}: {exc}", file=sys.stderr)
        return EXIT_DATA
    if cfg.shortcut == "VS":
        print("warning: the VS shortcut cannot realize identity mappings and is "
              "expected to train poorly", file=sys.stderr)
    model = build_model(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.txt"
    lines = []

    def log(msg):
        print(msg)
        lines.append(msg)

    history = train_toy(model, data, args.epochs, tc=tc, timesteps=timesteps, log=log)
    if args.finetune_timesteps:
        log(f"finetuning {timesteps} -> {args.finetune_timesteps} timesteps")
        history += finetune_timesteps(model, timesteps, args.finetune_timesteps,
                                      max(1, args.epochs // 4), data, tc=tc, log=log)
    metrics_path.write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
    ckpt = out_dir / "model.ckpt"
    save_checkpoint(model, ckpt, tc)
    final = history[-1] if history else {"accuracy": float("nan")}
    print(f"final train accuracy {final['accuracy']:.4f}; checkpoint at {ckpt}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    ok = run_suite(args.suite)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_convert(args) -> int:
    try:
        spikes = load_event_file(args.events, bins=args.timesteps or 4,
                                 resolution=(args.height, args.width),
                                 channels=args.channels)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    out = Path(args.out)
    np.save(out, spikes.data)
    nz = int(spikes.data.sum())
    print(f"wrote {spikes.shape} spike tensor ({nz} active pixels) to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spikedrive",
                                description="Event-driven spiking network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", default=None, help="config file (key = value sections)")
        sp.add_argument("--timesteps", "-T", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)

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
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--finetune-timesteps", type=int, default=None,
                    help="after training, briefly re-fit at this timestep count")
    sp.add_argument("--out-dir", default="train_out")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("verify", help="run self-check suites")
    sp.add_argument("--suite", default="all",
                    choices=["kernels", "sdsa", "blocks", "energy", "gradcheck", "all"])
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("convert", help="bin a DVS event text file into spike frames")
    sp.add_argument("events", help="text file of timestamp_us,x,y,polarity lines")
    sp.add_argument("--timesteps", "-T", type=int, default=4)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--width", type=int, required=True)
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
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpikeDriveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
