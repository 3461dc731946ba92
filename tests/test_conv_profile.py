"""Smoke test of ``scripts/conv_profile.py``, which writes ``BENCH_conv.json``."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "conv_profile.py"
ALGORITHMS = {"toeplitz_conv", "depthwise_conv", "kn2row_conv", "im2col_conv"}


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=600)


def test_one_repeat_stores_the_label_with_every_algorithm(tmp_path):
    out = tmp_path / "conv.json"
    done = run("--label", "smoke", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())["runs"]["smoke"]
    assert result["repeats"] == 1
    assert {t["algorithm"] for t in result["totals"]} == ALGORITHMS
    assert {c["algorithm"] for c in result["convs"]} == ALGORITHMS


def test_zero_repeats_is_a_usage_error_and_writes_nothing(tmp_path):
    out = tmp_path / "conv.json"
    done = run("--label", "smoke", "--repeats", "0", "--out", str(out))
    assert done.returncode == 2
    assert not out.exists()
