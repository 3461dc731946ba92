"""Self-test of the benchmark runner at tiny sizes (C=4, 16x16, well under a
second of requests per run): every metric BENCHMARK.json names is emitted
with its unit, every output check runs, and failures are counted."""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]


def run_bench(cwd, workload, trace, out, timeout=300):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny",
           "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_every_check_run(workload, trace, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = DEFINITION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]

    names = {v["name"] for v in SPEC["workloads"][workload]["metrics"].values()}
    assert set(report["metrics"]) == names
    assert report["failed_frac"] == 0.0
    for check in SPEC["workloads"][workload]["checks"]:
        name = check.split()[0]
        if trace or "(traced run)" not in check:
            assert report["checks"].get(name, 0) >= 1, (name, report["checks"])
    written = json.loads(Path(report["result_file"]).read_text())
    assert written["checks"] == report["checks"]
    if trace:
        assert written["spans"]
        if workload == "infer_15m":
            assert written["charged_op_table"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "out", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _load_runner():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = runner
    spec.loader.exec_module(runner)
    import workloads
    return runner, workloads


def test_failed_requests_and_checks_are_counted():
    runner, workloads = _load_runner()

    class Flaky(workloads.Workload):
        kinds = ("a", "b")
        slots = {}

        def prepare(self, rid):
            return rid

        def request(self, rid, inp):
            if rid == 1:
                raise RuntimeError("refused")
            return inp, {}, 1

        def check(self, rid, inp, out):
            self.checks("flaky.even", rid, out % 4 != 2)

    wl = Flaky(seed=0, tiny=True)
    samples, next_rid = runner.measure(wl, 0.0, 0)
    assert next_rid == 2 and [s.rid for s in samples] == [0, 1]
    samples, _ = runner.measure(wl, 0.0, 2)
    assert wl.checks.failed == {1, 2}
    assert [s.ok for s in samples] == [False, True]
    assert wl.checks.runs == {"flaky.even": 3, "request.completed": 1}


def test_deployed_repconv_matches_fold():
    _, workloads = _load_runner()
    from spikedrive.blocks import RepConv

    rep = RepConv(np.random.default_rng(0), 12)
    rep.dw.run_var[...] = 2.0
    rep.pw2.run_mean[...] = 0.5
    want, got = rep.fold(), workloads.deployed_repconv(rep)
    assert abs(got.weights - want.weights).max() < 1e-12
    assert abs(got.bias - want.bias).max() < 1e-12
    assert (got.stride, got.padding, got.groups) == (want.stride, want.padding, want.groups)
