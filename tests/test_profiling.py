"""Tests of ``scripts/profiling.py``, the harness the three profiling scripts
share: the ``--src`` check, the failure rule, one fresh process per run, and
a static check that no other script does what the harness does."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
# script -> the arguments of its shortest run, and the name of its first run
RUNS = {"conv_profile.py": (["--repeats", "1"], "infer_15m_t1"),
        "event_profile.py": (["--repeats", "1"], "event_pass"),
        "memory_profile.py": (["--runs", "toy"], "toy step")}
BLAS_VARS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def run(script, src, out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPTS / script), "--label", "t", "--src",
                           str(src), "--out", str(out), *RUNS[script][0]],
                          capture_output=True, text=True, timeout=600, env=env)


@pytest.fixture
def profiling(monkeypatch):
    """The harness module, imported from ``scripts/``; it and the modules the
    tests import beside it are forgotten after each test."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("profiling")
    for name in ("profiling", "conv_profile", "probe"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("script", RUNS)
def test_a_src_without_spikedrive_is_a_usage_error_and_writes_nothing(script, tmp_path):
    (tmp_path / "empty").mkdir()
    done = run(script, tmp_path / "empty", tmp_path / "out.json")
    assert done.returncode == 2
    assert "holds no spikedrive package" in done.stderr
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("script", RUNS)
def test_a_failed_run_is_named_and_writes_nothing(script, tmp_path):
    package = tmp_path / "broken" / "spikedrive"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise RuntimeError('this tree does not import')\n")
    done = run(script, tmp_path / "broken", tmp_path / "out.json")
    assert done.returncode != 0
    assert f"the run {RUNS[script][1]} failed" in done.stderr
    assert "this tree does not import" in done.stderr
    assert not (tmp_path / "out.json").exists()


def test_each_run_is_a_fresh_process_with_one_blas_thread_and_src_first(
        profiling, tmp_path, monkeypatch):
    (tmp_path / "probe.py").write_text(
        "import os\n\n\ndef where(var):\n"
        "    import spikedrive\n"
        "    return [os.getpid(), os.environ[var], spikedrive.__file__]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    probe = importlib.import_module("probe")
    args = profiling.parse_args(profiling.options("doc", "out.json"),
                                ["--label", "t", "--src", str(ROOT / "src")])
    first, second = (profiling.run(args, "probe", probe.where, "OPENBLAS_NUM_THREADS")
                     for _ in range(2))
    assert len({first[0], second[0], os.getpid()}) == 3
    assert first[1] == second[1] == "1"
    assert Path(first[2]) == ROOT / "src" / "spikedrive" / "__init__.py"


def test_conv_profile_runs_each_run_in_its_own_process(profiling, tmp_path, monkeypatch):
    conv_profile = importlib.import_module("conv_profile")
    calls = []

    def recorded(args, name, fn, *params):
        calls.append((name, fn, params))
        return [], []

    monkeypatch.setattr(profiling, "run", recorded)
    assert conv_profile.main(["--label", "t", "--repeats", "2",
                              "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [("infer_15m_t1", conv_profile.profile, ("infer_15m_t1", 2)),
                     ("train_toy_step", conv_profile.profile, ("train_toy_step", 2))]
    assert json.loads((tmp_path / "out.json").read_text())["runs"]["t"]["repeats"] == 2


def harness_uses(source: str, scripts: set[str]) -> list[str]:
    """What ``source`` does that only the harness may do: name a BLAS
    variable, touch ``sys.path``, write a file (``write_text``,
    ``write_bytes``, ``json.dump``), import ``subprocess`` or
    ``multiprocessing``, or import one of ``scripts`` other than
    ``profiling``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in BLAS_VARS:
            found.append(f"line {node.lineno}: {node.value}")
        elif (isinstance(node, ast.Attribute) and node.attr == "path"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"line {node.lineno}: sys.path")
        elif isinstance(node, ast.Attribute) and node.attr in {"write_text", "write_bytes",
                                                                "dump"}:
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else \
                [a.name for a in node.names]
            found += [f"line {node.lineno}: import {n}" for n in names
                      if n in {"subprocess", "multiprocessing"} | (scripts - {"profiling"})]
    return found


@pytest.mark.parametrize("path", sorted(p for p in SCRIPTS.glob("*.py")
                                        if p.name != "profiling.py"), ids=lambda p: p.name)
def test_only_the_harness_pins_blas_edits_the_path_writes_or_starts_processes(path):
    scripts = {p.stem for p in SCRIPTS.glob("*.py")}
    assert harness_uses(path.read_text(encoding="utf-8"), scripts) == []


def test_the_static_check_sees_each_use():
    src = ("import os, subprocess\nimport sys\nfrom memory_profile import build_case\n"
           "import profiling\nos.environ['OMP_NUM_THREADS'] = '1'\nsys.path.insert(0, 'x')\n"
           "profiling.ROOT.write_text('')\n")
    assert sorted(harness_uses(src, {"memory_profile", "profiling"})) == [
        "line 1: import subprocess", "line 3: import memory_profile",
        "line 5: OMP_NUM_THREADS", "line 6: sys.path", "line 7: write_text"]
