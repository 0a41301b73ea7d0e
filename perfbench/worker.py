"""One fresh benchmark process: set-up, then the measured or traced run.

Started by run.py; prints one JSON object as its last line of output.
Set-up time runs from before ``import phasecode`` to the end of one untimed
warm-up trial, after the workload's fixed objects are built.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402  (imports phasecode)
from spans import Tracer, install, is_count, layer_metrics  # noqa: E402


def run_steps(wl, ops: int, seconds: float, tracer=None):
    """Steps 0 .. ops-1, then the same steps again from step 0 until
    ``seconds`` passed. A repeated step gets the inputs of step ``i % ops``,
    so the distinct operations of a run depend only on the seed and ``ops``."""
    steps = []
    t0 = time.perf_counter()
    while len(steps) < ops or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.trial_id = len(steps)
        steps.append(wl.step(len(steps) % ops))
    return steps, time.perf_counter() - t0


def distinct_steps(name: str, seconds: float) -> int:
    """How many distinct steps a measured run of ``seconds`` holds: as many as
    fit at the workload's nominal step time, and at least its panel."""
    spec = W.SPEC[name]
    return max(spec["panel_steps"], round(seconds / spec["step_s"]))


def panel_digests(steps, panel: int) -> dict:
    head = steps[:panel]
    return {
        "outputs": W.digest(o.output for s in head for o in s.outcomes),
        "inputs": W.digest(x for s in head for x in s.inputs),
    }


def tail(samples: list[float]):
    """Highest whole percentile above the median with >= 10 samples beyond it
    (nearest rank), as (percentile, value); None if there is none."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def peak_rss_mb(pool_workers: int) -> float:
    """This process's peak RSS plus, for a pool, workers x the largest
    worker's peak (an upper bound on the pool's concurrent peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * kids) / 1024.0


def measured(wl, panel: int, ops: int, seconds: float) -> dict:
    """Times every step of the run. Correctness counts cover the ``ops``
    distinct steps; each repeated step must give the same outputs again."""
    steps, wall = run_steps(wl, ops, seconds)
    first = [o for s in steps[:ops] for o in s.outcomes]
    outcomes = [o for s in steps for o in s.outcomes]
    metrics = {"trials_per_s": sum(s.trials for s in steps) / wall}
    report = {"trials": sum(s.trials for s in steps), "wall_s": wall, "decodes": len(outcomes),
              "distinct_steps": ops, "repeated_steps": len(steps) - ops}
    for alg in W.DECODERS:
        ms = [o.ms for o in outcomes if o.decoder == alg and o.ms is not None]
        metrics[f"decode_ms_p50.{alg}"] = statistics.median(ms)
        t = tail(ms)
        report[f"decode_ms_tail.{alg}"] = (
            {"percentile": t[0], "value": t[1], "samples": len(ms)} if t
            else {"omitted": f"{len(ms)} samples leave no percentile above the median"}
        )
    verdicts = [o.verdict for o in first]
    metrics["recovery_rate"] = verdicts.count("recovered") / len(verdicts)
    report["wrong_answer_rate"] = verdicts.count("wrong") / len(verdicts)
    metrics["peak_rss_mb"] = peak_rss_mb(wl.pool_workers)
    report["digest"] = panel_digests(steps, panel)
    report["problems"] = [p for s in steps for p in s.problems]
    for j, s in enumerate(steps[ops:], start=ops):
        if [o.output for o in s.outcomes] != [o.output for o in steps[j % ops].outcomes]:
            report["problems"].append(f"step {j % ops} gave other outputs when repeated")
    return {
        "metrics": metrics,
        "attempted": len(verdicts),
        "failed": verdicts.count("wrong"),
        "correct": not report["problems"],
        "report": report,
    }


def traced(wl, panel: int, seconds: float, spans_path: Path) -> dict:
    """Pairs of (untraced, traced) passes over the panel until ``seconds``
    passed. Counts come from the first traced pass and must repeat exactly in
    later ones; times are medians over passes."""
    passes, overheads, problems = [], [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        plain, plain_wall = run_steps(wl, panel, 0)
        tracer = Tracer()
        uninstall = install(tracer)
        wl.tracer = tracer  # montecarlo merges its pool workers' spans into it
        try:
            steps, wall = run_steps(wl, panel, 0, tracer)
        finally:
            uninstall()
            wl.tracer = None
        if panel_digests(steps, panel) != panel_digests(plain, panel):
            problems.append("tracing changed the decoded outputs")
        problems += [p for s in plain + steps for p in s.problems]
        passes.append(layer_metrics(tracer))
        overheads.append(wall / plain_wall - 1.0)
    tracer.save(spans_path)
    layers = {}
    for key, first in passes[0].items():
        values = [p[key] for p in passes]
        if is_count(key):
            if any(v != first for v in values):
                problems.append(f"{key} did not repeat: {values}")
            layers[key] = first
        else:
            layers[key] = statistics.median(values)
    layers["trace.overhead"] = statistics.median(overheads)
    outcomes = [o for s in steps for o in s.outcomes]
    return {
        "metrics": layers,
        "attempted": len(outcomes),
        "failed": sum(o.verdict == "wrong" for o in outcomes),
        "correct": not problems,
        "report": {"passes": len(passes), "overheads": overheads, "problems": problems,
                   "digest": panel_digests(steps, panel), "spans": str(spans_path),
                   "span_count": len(tracer.name)},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = W.WORKLOADS[args.workload](args.seed)
    W.warmup(wl)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    panel = W.SPEC[args.workload]["panel_steps"]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        result = traced(wl, panel, args.seconds, out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        result = measured(wl, panel, distinct_steps(args.workload, args.seconds), args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
