"""Acceptance suite: the package's exit criteria, one test per criterion.

Every test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in failure output) and then asserts. Tolerances are pinned
here, not configurable.

Criteria 1 and 2 check the design tool against the published design tables,
kept verbatim, and against an independent 40-digit solve of the defining
equations (``oracles.exact_design``). Five published values are not solutions
of their own equations; ``ERRATA`` holds their corrected values, and the tests
confirm with the oracle that each published value misses by more than its
tolerance.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest

import phasecode.analysis as analysis
from concentration import concentration_trial
from helpers import make_mergeable_case, make_resolvable_case, make_singleton_case
from oracles import (
    ExactDesign,
    exact_design,
    exact_giant_range,
    exact_instability_range,
    oracle_mergeable,
    oracle_resolvable,
    oracle_singleton,
)
from phasecode.cli import (
    ExperimentConfig,
    linear_fit,
    run_bench,
    run_crt_comparison,
    run_ff_verify,
    run_simulation,
)
from phasecode.core import align_global_phase, SparseSignal
from phasecode.decoder import process_mergeable, process_resolvable, process_singleton
from phasecode.measurement import ModulationParams
from phasecode import nonsparse as ns

pytestmark = pytest.mark.acceptance

THREADS = 2

# reference design table: left degree -> (c = M/K, error floor)
REFERENCE_DESIGN = {
    4: (3.31, 2.7e-2),
    5: (3.11, 1.1e-3),
    6: (3.18, 8e-5),
    7: (3.32, 3.2e-6),
    8: (3.48, 1e-7),
    9: (3.66, 2.9e-9),
    10: (3.85, 7e-11),
}
# reference measurement budgets per nonzero component for d = 5..10
REFERENCE_M = {5: 12.44, 6: 12.72, 7: 13.28, 8: 13.92, 9: 14.64, 10: 15.4}


class Erratum(NamedTuple):
    published: float
    corrected: float  # at the published precision
    reason: str


# Published entries that are not solutions of their own defining equations,
# keyed by (quantity, d). Each is checked against its corrected value at the
# published entry's tolerance, and only while the oracle shows that the
# published value misses the exact solution by more than that tolerance.
# The published m column is 4c, so c(d=7) and m(d=7) are one erratum.
ERRATA = {
    ("c", 7): Erratum(3.32, 3.31, "the root of 2M_s/K_s = 1 is 3.30960, 0.0104 below 3.32"),
    ("m", 7): Erratum(13.28, 13.24, "m = 4c, with c(d=7) corrected to 3.31"),
    ("p*", 4): Erratum(
        2.7e-2, 4.2e-2,
        "the smallest fixed point is 4.18e-2; 2.7e-2 is not a fixed point (f(p)/p = 1.34) "
        "but the leading-order e^{-lam(d-1)} at c = 3.31, poor where p* is not small",
    ),
    ("p*", 5): Erratum(
        1.1e-3, 1.7e-3,
        "the smallest fixed point is 1.68e-3; 1.1e-3 is not a fixed point (f(p)/p = 1.52) "
        "and is the floor only at c = 2.918, below c_min(5) = 3.105",
    ),
    ("c_max", 5): Erratum(19.24, 19.26, "the root is 19.2602; 2M_s/K_s at 19.24 is 1.00077, inside the window"),
    ("c_max", 8): Erratum(55.36, 55.39, "the root is 55.3935; 2M_s/K_s at 55.36 is 1.00052, inside the window"),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _abs_off(value: float, ref: float) -> float:
    return abs(value - ref)


def _rel_off(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


def _check(problems, key, value, exact, published, off, tol) -> None:
    """Check a program value against its published entry, or against the
    corrected value where ``ERRATA`` holds the entry. An erratum stands only
    if it names the published value it replaces and the exact value misses
    that published value by more than tol."""
    quantity, d = key
    ref, kind = published, "reference"
    erratum = ERRATA.get(key)
    if erratum is not None:
        ref, kind = erratum.corrected, "erratum"
        if erratum.published != published:
            problems.append(f"erratum {key} replaces {erratum.published}, but {published} is published")
        if off(exact, published) <= tol:
            problems.append(f"erratum {key}: published {published} is within {tol} of the exact {exact:.6g}")
    if off(value, ref) > tol:
        problems.append(f"{quantity}(d={d})={value:.6g} vs {kind} {ref} (off {off(value, ref):.4g})")


def _agree(problems, label: str, value: float, exact: float) -> None:
    if not math.isclose(value, exact, rel_tol=1e-9):
        problems.append(f"{label}={value!r} vs oracle {exact!r}")


# ---------------------------------------------------------------------------
# 1. Design tables
# ---------------------------------------------------------------------------

def test_criterion_1_design_tables():
    t0 = time.perf_counter()
    rows = {r.d: r for r in analysis.design_table(range(4, 11))}
    elapsed = time.perf_counter() - t0
    exact = {d: exact_design(d) for d in range(4, 11)}
    problems = []
    for d in range(4, 11):
        for name in ExactDesign._fields:
            _agree(problems, f"{name}(d={d})", getattr(rows[d], name), getattr(exact[d], name))
    for d in range(5, 11):
        _check(problems, ("c", d), rows[d].c, exact[d].c, REFERENCE_DESIGN[d][0], _abs_off, 0.01)
    for d in range(4, 11):
        if rows[d].m_per_k != 4.0 * rows[d].c:
            problems.append(f"m(d={d}) != 4c")
    for d, m_ref in REFERENCE_M.items():
        # 4x the c tolerance
        _check(problems, ("m", d), rows[d].m_per_k, exact[d].m_per_k, m_ref, _abs_off, 0.04)
    for d in range(4, 11):
        _check(problems, ("p*", d), rows[d].p_star, exact[d].p_star, REFERENCE_DESIGN[d][1], _rel_off, 0.20)
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = not problems
    _report(1, ok, f"design table ({elapsed:.2f}s)" + ("" if ok else ": " + "; ".join(problems)))
    assert ok, (
        "Design-table mismatches against the published tables, the ERRATA "
        "entries or the exact solutions of the defining equations: "
        + "; ".join(problems)
    )


# ---------------------------------------------------------------------------
# 2. Feasibility thresholds
# ---------------------------------------------------------------------------

def test_criterion_2_feasibility_thresholds():
    t0 = time.perf_counter()
    windows = {d: analysis.giant_component_range(d) for d in (5, 8)}
    lam_lo, lam_hi = analysis.instability_range(5)
    elapsed = time.perf_counter() - t0
    problems = []
    for d, (lo_ref, hi_ref) in {5: (3.11, 19.24), 8: (3.48, 55.36)}.items():
        lo, hi = windows[d]
        exact_lo, exact_hi = exact_giant_range(d)
        _agree(problems, f"giant c_min(d={d})", lo, exact_lo)
        _agree(problems, f"giant c_max(d={d})", hi, exact_hi)
        _check(problems, ("c_min", d), lo, exact_lo, lo_ref, _abs_off, 0.01)
        _check(problems, ("c_max", d), hi, exact_hi, hi_ref, _abs_off, 0.01)
    exact_lam_lo, exact_lam_hi = exact_instability_range(5)
    _agree(problems, "lambda_min(5)", lam_lo, exact_lam_lo)
    _agree(problems, "lambda_max(5)", lam_hi, exact_lam_hi)
    if abs(lam_lo - 0.3574) > 0.001:
        problems.append(f"lambda_min(5)={lam_lo:.5f} vs 0.3574")
    if abs(lam_hi - 2.1533) > 0.001:
        problems.append(f"lambda_max(5)={lam_hi:.5f} vs 2.1533")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = not problems
    _report(2, ok, f"feasibility thresholds ({elapsed:.2f}s)" + ("" if ok else ": " + "; ".join(problems)))
    assert ok, (
        "Threshold mismatches against the published endpoints, the ERRATA "
        "entries or the exact roots of the defining equations: " + "; ".join(problems)
    )


# ---------------------------------------------------------------------------
# 3. Monte Carlo at the headline operating point
# ---------------------------------------------------------------------------

def test_criterion_3_monte_carlo_operating_point():
    t0 = time.perf_counter()
    seed = 20260811
    uni = run_simulation(
        ExperimentConfig(n=1_000_000, K=1000, d=7, c=3.32, algorithm="unicolor",
                         trials=200, seed=seed, threads=THREADS)
    )
    threshold = 1.0 - analysis.error_floor(7 / 3.32, 7)
    multi = run_simulation(
        ExperimentConfig(n=1_000_000, K=1000, d=7, c=2.75, algorithm="multicolor",
                         trials=200, seed=seed, threads=THREADS,
                         success_threshold=threshold)
    )
    elapsed = time.perf_counter() - t0
    gap = abs(multi.error_probability - uni.error_probability)
    ok = uni.error_probability <= 0.05 and gap <= 0.05 and elapsed < 300
    _report(
        3, ok,
        f"one-color err={uni.error_probability:.3f} @ m=13.28K, "
        f"merging err={multi.error_probability:.3f} @ m=11K, gap={gap:.3f} ({elapsed:.0f}s)",
    )
    assert uni.error_probability <= 0.05
    assert gap <= 0.05
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 4. CRT vs balls-and-bins equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_crt_equivalence():
    t0 = time.perf_counter()
    rows = run_crt_comparison(
        (47, 49, 50, 53, 57, 59, 61),
        list(range(107, 171, 7)),
        trials=2000,
        seed=7,
        algorithm="unicolor",
        threads=THREADS,
    )
    elapsed = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r.gap)
    ok = all(r.gap <= 0.05 for r in rows) and elapsed < 600
    _report(
        4, ok,
        f"paired deterministic-vs-random code rates, worst gap {worst.gap:.3f} "
        f"at K={worst.K} ({elapsed:.0f}s)",
    )
    for r in rows:
        assert r.gap <= 0.05, f"K={r.K}: crt={r.rate_crt} balls={r.rate_balls}"
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 5. Linear decode scaling at n = 1e10
# ---------------------------------------------------------------------------

def test_criterion_5_linear_scaling():
    K_list = [1000, 2000, 4000, 10_000]
    rows = run_bench(n=10_000_000_000, K_list=K_list, d=7, c=3.5, trials=2, seed=11)
    times = [r.mean_decode_ms for r in rows]
    slope, _, r2 = linear_fit(K_list, times)
    # same-K decode state at a hundredfold smaller n: allocations must not
    # depend on the ambient dimension
    small = run_bench(n=100_000_000, K_list=[1000], d=7, c=3.5, trials=2, seed=11)
    state_ratio = rows[0].resident_elements / small[0].resident_elements
    _, _, r2_state = linear_fit(K_list, [r.resident_elements for r in rows])
    ratios_ok = True
    for (ka, ta), (kb, tb) in zip(zip(K_list, times), zip(K_list[1:], times[1:])):
        ratios_ok &= 0.8 * (kb / ka) <= tb / ta <= 1.3 * (kb / ka)
    ok = (
        r2 >= 0.98
        and times[-1] < 40_000
        and 0.9 <= state_ratio <= 1.1
        and r2_state >= 0.98
        and ratios_ok
    )
    _report(
        5, ok,
        f"decode ms over K {[round(t, 1) for t in times]}, fit r2={r2:.4f}, "
        f"state/K fit r2={r2_state:.4f}, n-independence ratio {state_ratio:.3f}",
    )
    assert r2 >= 0.98
    assert times[-1] < 40_000  # under 40 s at K = 1e4
    assert 0.9 <= state_ratio <= 1.1
    assert r2_state >= 0.98
    assert ratios_ok


# ---------------------------------------------------------------------------
# 6. Bin processors against brute-force oracles
# ---------------------------------------------------------------------------

CASES_PER_CLASS = 10_000


def test_criterion_6_processor_oracle_equivalence():
    t0 = time.perf_counter()
    params = ModulationParams(n=512, L=137)
    rng = np.random.default_rng(60)
    disagreements = []
    false_accepts = 0
    accepts = {"singleton": 0, "mergeable": 0, "resolvable": 0}

    for i in range(CASES_PER_CLASS):
        for true_case in (True, False):
            st, balls = make_singleton_case(rng, params, true_case)
            got = process_singleton(st, params)
            ref = oracle_singleton(st.y, params)
            if (got is None) != (ref is None) or (got is not None and got[0] != ref):
                disagreements.append(("singleton", i, true_case, got, ref))
            if got is not None:
                accepts["singleton"] += 1
                if not true_case:
                    false_accepts += 1
                elif got[0] != balls[0][0]:
                    false_accepts += 1

    for i in range(CASES_PER_CLASS):
        for true_case in (True, False):
            st, forest, expected = make_mergeable_case(rng, params, true_case)
            groups = {}
            for ell in st.discovered:
                groups.setdefault(forest.find(ell), []).append(ell)
            sums = []
            for mem in groups.values():
                s = [0j, 0j, 0j, 0j]
                for ell in mem:
                    from phasecode.measurement import modulation_coeffs

                    g = modulation_coeffs(params, ell)
                    v = forest.value(ell)
                    for k in range(4):
                        s[k] += g[k] * v
                sums.append(s)
            ref = oracle_mergeable(st.y, sums[0], sums[1])
            got = process_mergeable(st, forest, params)
            if (got is None) != (ref is None):
                disagreements.append(("mergeable", i, true_case, got, ref))
            if got is not None:
                accepts["mergeable"] += 1
                if not true_case:
                    false_accepts += 1

    for i in range(CASES_PER_CLASS):
        for true_case in (True, False):
            st, forest, knowns, unknowns = make_resolvable_case(rng, params, true_case)
            ref = oracle_resolvable(st.y, knowns, params)
            got = process_resolvable(st, forest, params)
            if (got is None) != (ref is None) or (
                got is not None and (got[0] != ref[0] or abs(got[1] - ref[1]) > 1e-6)
            ):
                disagreements.append(("resolvable", i, true_case, got, ref))
            if got is not None:
                accepts["resolvable"] += 1
                if not true_case or got[0] != unknowns[0][0]:
                    false_accepts += 1

    elapsed = time.perf_counter() - t0
    # every true case must be accepted: zero false rejects
    false_rejects = {k: CASES_PER_CLASS - v for k, v in accepts.items()}
    ok = (
        not disagreements
        and false_accepts == 0
        and all(v == 0 for v in false_rejects.values())
        and elapsed < 120
    )
    _report(
        6, ok,
        f"{3 * 2 * CASES_PER_CLASS} bins, disagreements={len(disagreements)}, "
        f"false_accepts={false_accepts}, false_rejects={false_rejects} ({elapsed:.0f}s)",
    )
    assert not disagreements, disagreements[:5]
    assert false_accepts == 0
    assert all(v == 0 for v in false_rejects.values())
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 7. Non-sparse round trips
# ---------------------------------------------------------------------------

def test_criterion_7_nonsparse_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_general = worst_ff = 0.0
    for _ in range(100):
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        while abs(x[0]) < 0.1:
            x[0] = complex(rng.normal(), rng.normal())
        meas = ns.chain_measure(x)
        assert meas.count == 3 * 256 - 2
        xhat = ns.chain_decode(meas)
        truth = SparseSignal(256, tuple((i + 1, complex(v)) for i, v in enumerate(x)))
        worst_general = max(
            worst_general,
            align_global_phase([(i + 1, complex(v)) for i, v in enumerate(xhat)], truth),
        )
    for _ in range(100):
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        while abs(x[0]) < 0.1:
            x[0] = complex(rng.normal(), rng.normal())
        meas = ns.ff_nonsparse_measure(x)
        assert meas.count == 3 * 128
        xhat = ns.ff_nonsparse_decode(meas)
        truth = SparseSignal(128, tuple((i + 1, complex(v)) for i, v in enumerate(x)))
        worst_ff = max(
            worst_ff,
            align_global_phase([(i + 1, complex(v)) for i, v in enumerate(xhat)], truth),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_general <= 1e-8 and worst_ff <= 1e-8 and elapsed < 60
    _report(
        7, ok,
        f"dense round trips: general worst {worst_general:.2e}, "
        f"mask/lens worst {worst_ff:.2e} ({elapsed:.0f}s)",
    )
    assert worst_general <= 1e-8
    assert worst_ff <= 1e-8
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 8. Fourier operator identities
# ---------------------------------------------------------------------------

def test_criterion_8_fourier_operator_identities():
    t0 = time.perf_counter()
    results = run_ff_verify(n_list=[60, 360, 2310], checks_per_case=100, seed=8)
    elapsed = time.perf_counter() - t0
    worst = max(resid for _, resid, _ in results)
    ok = all(passed for _, _, passed in results) and elapsed < 60
    _report(8, ok, f"{len(results)} identity suites, worst residual {worst:.2e} ({elapsed:.0f}s)")
    for name, resid, passed in results:
        assert passed, f"{name}: residual {resid:.3e}"
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 9. Concentration around the density-evolution trajectory
# ---------------------------------------------------------------------------

def test_criterion_9_concentration():
    K, d, c, n, sweeps, trials = 5000, 7, 3.32, 1_000_000, 50, 200
    # the decodes grow until a sweep changes nothing, well within the
    # recursion's 50 sweeps
    tasks = [(99, t, n, K, d, c) for t in range(trials)]
    with ProcessPoolExecutor(max_workers=THREADS) as pool:
        results = list(pool.map(concentration_trial, tasks, chunksize=8))
    p2_mean = float(np.mean([r[0] for r in results]))
    finals = np.array([r[1] for r in results])
    emp = float(np.mean(finals))
    se = float(np.std(finals, ddof=1) / math.sqrt(trials))
    de_val = analysis.de_trajectory(p2_mean, d / c, d, sweeps)[-1]
    diff = abs(emp - de_val)
    ok = diff <= 3 * se
    _report(
        9, ok,
        f"uncolored fraction after {sweeps} sweeps: empirical {emp:.2e} vs "
        f"recursion {de_val:.2e} (seeded at simulated p2={p2_mean:.4f}), "
        f"|diff|={diff:.2e} <= 3*SE={3 * se:.2e}",
    )
    assert diff <= 3 * se
