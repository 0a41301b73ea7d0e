"""Benchmark of phasecode's recovery pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: large-n, montecarlo, crt-small,
masklens (see workloads.json for their parameters and rationale).

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` alternates untraced and traced passes over the workload's fixed
panel of steps and reports the per-layer metrics and the tracing overhead.
Set-up is timed in three fresh processes (two set-up-only ones and the
measuring one) and reported as the median. The metric names and units are
the ones BENCHMARK.json lists; the last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170  # the whole run, set-up processes included


class BenchError(RuntimeError):
    pass


def run_worker(args, setup_only: bool, timeout: float) -> dict:
    """Run worker.py in a fresh process group and parse its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it started
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def report_lines(args, result: dict, setups: list[float]) -> list[str]:
    rep = result["report"]
    lines = [f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    lines.append(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    if args.trace:
        lines.append(f"# passes={rep['passes']} overheads={[round(o, 3) for o in rep['overheads']]} "
                     f"spans={rep['span_count']} written to {rep['spans']}")
    else:
        lines.append(f"# trials={rep['trials']} decodes={rep['decodes']} wall_s={rep['wall_s']:.3f} "
                     f"distinct_steps={rep['distinct_steps']} repeated_steps={rep['repeated_steps']}")
        for alg in ("unicolor", "multicolor"):
            t = rep[f"decode_ms_tail.{alg}"]
            if "omitted" in t:
                lines.append(f"# decode_ms_tail.{alg}: omitted, {t['omitted']}")
            else:
                lines.append(f"# decode_ms_tail.{alg} = {t['value']:.4f} ms "
                             f"(p{t['percentile']}, {t['samples']} samples)")
        lines.append(f"# wrong_answer_rate = {rep['wrong_answer_rate']:.6f} "
                     f"({result['failed']} of {result['attempted']} decodes)")
    lines += [f"# PROBLEM: {p}" for p in rep["problems"]]
    d = rep["digest"]
    lines.append(f"digest workload={args.workload} seed={args.seed} outputs={d['outputs']} inputs={d['inputs']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "phasecode" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no phasecode sources (src/phasecode) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    t0 = time.perf_counter()
    try:
        setups = [run_worker(args, True, DEADLINE_S - (time.perf_counter() - t0))["setup_s"]
                  for _ in range(0 if args.trace else SETUP_ONLY_RUNS)]
        result = run_worker(args, False, DEADLINE_S - (time.perf_counter() - t0))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1

    for line in report_lines(args, result, setups):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
