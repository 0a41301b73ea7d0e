"""Self-tests of the benchmark: exact repeats, seed sensitivity, refusal.

    python3 -m pytest perfbench -q        (about three minutes on 2 cores)

Each traced run executes only the workload's fixed panel (``--seconds 1``).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_SPEC = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from spans import is_count  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads(BENCH_SPEC.read_text())["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest_line = next(line for line in lines if line.startswith("digest "))
    digest = dict(field.split("=", 1) for field in digest_line.split()[1:])
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digest_repeat_and_seed_changes_inputs(workload):
    first, digest_a = parse(bench(workload, 1, trace=1))
    again, digest_b = parse(bench(workload, 1, trace=1))
    _, digest_c = parse(bench(workload, 2, trace=1))
    assert first["correct"] and again["correct"]

    counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
    repeat = {k: v["value"] for k, v in again["metrics"].items() if is_count(k)}
    assert counts == repeat
    assert any(counts.values())
    assert digest_a == digest_b
    assert digest_c["inputs"] != digest_a["inputs"]

    names = {m["name"] for m in json.loads(BENCH_SPEC.read_text())["per_layer"]}
    assert set(first["metrics"]) == names


def test_untraced_run_reports_every_end_to_end_metric_and_same_digest():
    result, digest = parse(bench("crt-small", 1, trace=0))
    again, _ = parse(bench("crt-small", 1, trace=0))
    _, traced_digest = parse(bench("crt-small", 1, trace=1))
    for key in ("correct", "attempted", "failed"):
        assert again[key] == result[key]
    assert again["metrics"]["recovery_rate"] == result["metrics"]["recovery_rate"]
    spec = json.loads(BENCH_SPEC.read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["attempted"] >= 1
    assert digest == traced_digest


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(BENCH_SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("crt-small", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
