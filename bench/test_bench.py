"""Self-test of the benchmark at tiny workload sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPEATED_COUNTS = ("elasticity.series", "elasticity.days_walked", "pricing.price_calls",
                   "engine.lines")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def outputs_of(lines: list[str]) -> dict:
    return json.loads(next(line for line in lines if line.startswith("outputs "))[8:])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_correct_and_repeats(workload):
    runs = [bench(workload, 0), bench(workload, 1), bench(workload, 1)]
    for code, lines in runs:
        assert code == 0
        result = result_of(lines)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert outputs_of(runs[0][1]) == outputs_of(runs[1][1]) == outputs_of(runs[2][1])
    untraced = result_of(runs[0][1])["metrics"]
    assert set(untraced) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(untraced[name]["value"] > 0 for name in untraced)
    first, second = (result_of(lines)["metrics"] for _, lines in runs[1:])
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0


def test_layer_self_times_sum_to_at_most_run_s(tmp_path):
    for workload in run.WORKLOADS:
        work = tmp_path / workload
        (work / "inputs").mkdir(parents=True)
        runner = run.Runner(run.build_workload(workload, 3, work / "inputs", True), work,
                            None)
        metrics, _ = run.traced_batch(runner)
        run_s = metrics["trace.run_s"]
        layer_s = [metrics[name] for name in tracing.SELF_TIMES]
        assert all(value >= 0 for value in layer_s)
        assert sum(layer_s) <= run_s * (1 + 1e-9)
        assert runner.failed == 0


def test_reference_mismatch_is_a_failure(tmp_path):
    (tmp_path / "inputs").mkdir()
    commands = run.build_workload("cli-short", 0, tmp_path / "inputs", False)
    reference = run.load_reference(run.reference_key("cli-short", 0, False))
    with run.Runner(commands, tmp_path, reference) as runner:
        runner.child_batch()
    assert runner.failed == 0 and runner.attempted == len(commands)
    runner.reference = {**reference, "assess/radar.json": "0" * 64}
    runner.inprocess_batch()
    assert runner.failed == 1
    assert runner.problems == ["assess: sha256 of assess/radar.json differs from the reference"]


def test_synthetic_inputs_repeat_and_validate(tmp_path):
    first = synth.write(5, 60, tmp_path / "a")
    second = synth.write(5, 60, tmp_path / "b")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes()
    proc = subprocess.run([sys.executable, "-m", "cloudcost", "validate", str(first["model"])],
                          env={"PYTHONPATH": str(run.SRC)}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("cli-short", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_child_max_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(64 << 20)  # makes this process far larger than a bare child
    with run.Runner((), tmp_path, None) as runner:
        rss_kib = runner.child(["-c", "pass"])[3]
    assert rss_kib < 32 * 1024 < len(ballast) // 1024
