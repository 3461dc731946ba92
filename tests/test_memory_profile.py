"""Smoke test of ``scripts/memory_profile.py``, which writes ``BENCH_memory.json``."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_profile.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=600)


def test_the_toy_case_stores_the_label_with_both_parts(tmp_path):
    out = tmp_path / "memory.json"
    out.write_text(json.dumps({"runs": {"kept": {}}}))
    done = run("--label", "smoke", "--runs", "toy", "--out", str(out))
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"kept", "smoke"}
    result = runs["smoke"]
    assert result["blas_threads"] == 1 and set(result["cases"]) == {"toy"}
    step, held = result["cases"]["toy"]["step"], result["cases"]["toy"]["held"]
    assert step["peak_rss_mb"] >= step["peak_rss_before_step_mb"] > 0
    assert step["forward_s"] > 0 and step["backward_s"] > 0
    assert held["records"] > 100 and held["held_by_vjps_mib"] > 0
    assert held["held_only_by_entries_mib"] == 0  # records hold nodes, not arrays
    assert held["held_mib"] == held["held_by_vjps_mib"]
    assert held["held_by_layers_mib"] == 0  # membranes live in the pass's context
    assert 0 < held["binary_float64_share"] < 1


def test_a_missing_label_is_a_usage_error_and_writes_nothing(tmp_path):
    out = tmp_path / "memory.json"
    done = run("--runs", "toy", "--out", str(out))
    assert done.returncode == 2
    assert not out.exists()
