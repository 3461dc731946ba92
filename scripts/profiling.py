"""What the profiling scripts share: their options, their runner, the
benchmark's model cases and the file their results go to.

``conv_profile.py``, ``event_profile.py`` and ``memory_profile.py`` each
build their options with :func:`options` and :func:`parse_args`, run every
measurement through :func:`run` and write its result with :func:`store`.

* Options: ``--label`` (required), ``--src``, ``--out`` and, where a script
  repeats its timings, ``--repeats`` (at least 1). ``--src`` is the directory
  that holds the ``spikedrive`` package to measure (default: this checkout's
  ``src/``), so one script can measure two versions of the library; one
  without ``spikedrive/__init__.py`` is a usage error (exit 2).
* :func:`run` runs one measurement in a fresh Python process with BLAS on
  one thread and ``spikedrive`` imported from ``--src`` ahead of any other.
  This is the only module that sets a BLAS variable, edits ``sys.path`` or
  starts a process. A run that fails ends the script with a message naming
  it, before anything is written.
* :func:`build_case` builds the benchmark's toy net and the 15M net;
  :data:`CASES` names them.
* :func:`store` puts a result under its label in a ``BENCH_*.json`` file,
  keeping the file's other labels.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
# case -> (resolution, timesteps); the toy case is the benchmark's toy net
CASES = {"toy": (32, 1), "15m_224_t1": (224, 1), "15m_112_t4": (112, 4),
         "15m_224_t4": (224, 4)}


def options(doc: str, out: str, repeats: int | None = None) -> argparse.ArgumentParser:
    """The options every profiling script takes, described by the first
    paragraph of ``doc``; results go to ``out`` beside this directory by
    default. ``repeats``, if given, is the default of ``--repeats``."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--label", required=True, help="name of this result in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the spikedrive package (default: this checkout's)")
    p.add_argument("--out", type=Path, default=ROOT / out)
    if repeats is not None:
        p.add_argument("--repeats", type=int, default=repeats,
                       help=f"timed repetitions of each measurement (default {repeats})")
    return p


def parse_args(p: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``argv`` parsed by ``p``; exits 2 for a ``--repeats`` below 1 or a
    ``--src`` that holds no ``spikedrive`` package."""
    args = p.parse_args(argv)
    if getattr(args, "repeats", 1) < 1:
        p.error("--repeats must be >= 1")
    if not (args.src / "spikedrive" / "__init__.py").is_file():
        p.error(f"--src {args.src} holds no spikedrive package")
    return args


def run(args, name: str, fn, *params):
    """The JSON result of ``fn(*params)``, called in a fresh Python process
    with BLAS on one thread and ``spikedrive`` imported from ``args.src``.
    ``fn`` is a module-level function of a script file, and ``params`` and
    its result are JSON values. If the process fails, this one exits with a
    message naming the run ``name`` and the child's stderr."""
    script = Path(sys.modules[fn.__module__].__file__).resolve()
    env = {**os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(BLAS_THREADS))}
    done = subprocess.run([sys.executable, __file__, str(args.src.resolve()), str(script),
                           fn.__name__, json.dumps(params)],
                          capture_output=True, text=True, env=env)
    if done.returncode:
        sys.exit(f"the run {name} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _child(src: str, script: str, name: str, params: str):
    """The body of a process that :func:`run` starts: print ``name(*params)``
    of ``script`` as one JSON line."""
    sys.path[:0] = [src, str(Path(script).parent)]
    fn = getattr(importlib.import_module(Path(script).stem), name)
    print(json.dumps(fn(*json.loads(params))))


def build_case(case):
    """The model, its parameters, the batch and T of one of :data:`CASES`."""
    from spikedrive import train
    from spikedrive.config import ModelConfig
    from spikedrive.model import build_model
    from spikedrive.neuron import LIFParams

    resolution, timesteps = CASES[case]
    if case == "toy":
        model = build_model(ModelConfig(base_channels=8, num_classes=2, resolution=32,
                                        depths=(1, 1, 1, 2, 1), heads=2, seed=3, timesteps=1,
                                        lif=LIFParams(surrogate_window=1.0)))
        data = train.make_blobs(32, resolution=32, classes=2, seed=0)
        x, y = data.images, data.labels
    else:
        model = build_model(ModelConfig(base_channels=32, resolution=resolution,
                                        num_classes=1000, seed=0))
        x = np.random.default_rng(0).random((1, 3, resolution, resolution))
        y = np.array([7])
    return model, model.parameters(), x, y, timesteps


def store(out: Path, label, result):
    """Put ``result``, with the BLAS, machine, Python and numpy it ran on and
    the BLAS thread count, under ``label`` in the JSON file ``out``, keeping
    the file's other labels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"blas": f"{blas.get('name')} {blas.get('version')}",
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "python": platform.python_version(), "numpy": np.__version__,
              "blas_threads": BLAS_THREADS, **result}
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[label] = result
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {label} to {out}")


if __name__ == "__main__":
    _child(*sys.argv[1:])
