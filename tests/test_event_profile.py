"""Smoke test of ``scripts/event_profile.py``, which writes ``BENCH_event.json``."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "event_profile.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=600)


def test_one_repeat_stores_every_shape_with_its_sums(tmp_path):
    out = tmp_path / "event.json"
    done = run("--label", "smoke", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())["runs"]["smoke"]
    assert result["repeats"] == 1
    shapes = result["shapes"]
    assert {r["function"] for r in shapes} == {"event_conv2d", "event_matmul"}
    assert len({(r["function"], tuple(r["shape"])) for r in shapes}) == len(shapes)
    assert all(r["adds"] > 0 and r["maxdiff"] < 1e-5 and 0 < r["rate"] < 1 for r in shapes)
    sums = result["sums_pass_s"]
    for function in ("event_conv2d", "event_matmul"):
        want = sum(r["pass_s"] for r in shapes if r["function"] == function)
        assert abs(sums[function] - want) < 1e-12
    assert abs(sums["total"] - sums["event_conv2d"] - sums["event_matmul"]) < 1e-12


def test_zero_repeats_is_a_usage_error_and_writes_nothing(tmp_path):
    out = tmp_path / "event.json"
    done = run("--label", "smoke", "--repeats", "0", "--out", str(out))
    assert done.returncode == 2
    assert not out.exists()
