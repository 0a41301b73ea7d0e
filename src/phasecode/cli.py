"""Experiment harness and command line.

Subcommands:

* ``design``    density-evolution design table (CSV)
* ``simulate``  Monte Carlo recovery experiments
* ``bench``     decode runtime/memory scaling (implicit ensembles only)
* ``decode``    decode a signal/measurement file pair
* ``nonsparse`` round-trip self-tests of the deterministic dense schemes
* ``ff-verify`` Fourier operator-identity property suites
* ``ff-sim``    end-to-end sparse-spectrum mask/lens experiment
* ``crt-compare`` paired CRT vs balls-and-bins recovery rates

Every CSV output embeds its full configuration as leading ``# key=value``
comment lines, and every randomized quantity derives from the master seed,
so identical invocations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import analysis
from .core import (
    AlignmentError,
    DecodeResult,
    ParameterError,
    SparseSignal,
    align_global_phase,
    generate_signal,
    mix64,
    read_signal,
    write_signal,
)
from .decoder import ALGORITHMS, get_decoder
from .ensemble import build_balls_and_bins, build_crt
from .fourier import (
    EXPLICIT_N_LIMIT,
    alias_fold,
    build_plan,
    acquire_stage,
    ff_sparse_acquire,
    ff_sparse_acquire_implicit,
    ff_sparse_decode,
    mask_lens_measure,
)
from .measurement import (
    FOURIER,
    GENERAL,
    ModulationParams,
    encode,
    read_measurements,
    write_measurements,
)
from . import nonsparse as ns

RESIDUAL_SANITY = 1e-6  # recovered values must match truth this well


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _number(text: str, what: str, kind=int):
    """``text`` read as a ``kind`` (int or float); a ParameterError naming
    ``what`` when it is not one."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{what}: {text!r} is not a valid {kind.__name__}") from None


def _ints(text: str, what: str) -> list[int]:
    """Comma-separated integers, empty entries skipped; at least one."""
    values = [_number(v, what) for v in text.split(",") if v.strip()]
    if not values:
        raise ParameterError(f"{what}: no values in {text!r}")
    return values


@dataclass
class ExperimentConfig:
    n: int = 1_000_000
    K: int = 1000
    d: int = 7
    c: float | None = None
    M: int | None = None
    ensemble: str = "balls"  # balls | crt
    coprimes: tuple[int, ...] = ()
    alpha: int = 1
    algorithm: str = "unicolor"  # unicolor | multicolor
    trials: int = 100
    seed: int = 1
    success_threshold: float | None = None  # default: 1 - p*(d, c)
    value_model: str = "gaussian"
    threads: int = 1

    def build_ensemble(self, seed: int = 0):
        """The code matrix; ``seed`` draws a balls-and-bins code."""
        if self.ensemble == "balls":
            return build_balls_and_bins(self.n, self.M, self.d, seed)
        if self.ensemble != "crt":
            raise ParameterError(f"unknown ensemble {self.ensemble!r}; expected balls or crt")
        if not self.coprimes:
            raise ParameterError("crt ensemble needs --coprimes")
        return build_crt(self.coprimes, self.alpha)

    def resolve(self) -> "ExperimentConfig":
        """Fill in derived fields and check internal consistency."""
        if self.threads < 1:
            raise ParameterError(f"threads must be at least 1, got {self.threads}")
        if self.ensemble != "balls":
            ens = self.build_ensemble()  # the CRT code fixes n, M and d
            self.n, self.M, self.d = ens.n, ens.M, ens.d
        elif self.M is None:
            if self.c is None:
                raise ParameterError("need either --bins or --c")
            self.M = math.ceil(self.c * self.K)
        self.c = self.M / self.K if self.K else None
        get_decoder(self.algorithm)  # rejects unknown names
        if self.success_threshold is None:
            if self.K == 0:
                self.success_threshold = 1.0
            else:
                self.success_threshold = 1.0 - analysis.error_floor(self.d / self.c, self.d)
        return self

    def header_lines(self) -> list[str]:
        items = asdict(self)
        items["coprimes"] = ",".join(str(c) for c in self.coprimes)
        return [f"# {k}={v!r}" for k, v in sorted(items.items())]

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not hasattr(cfg, key):
                    raise ParameterError(f"unknown config key {key!r} in {path}")
                what = f"{key} in {path}"
                if key == "coprimes":
                    setattr(cfg, key, tuple(_ints(value, what)))
                elif key in ("c", "success_threshold"):
                    setattr(cfg, key, _number(value, what, float))
                elif key in ("ensemble", "algorithm", "value_model"):
                    setattr(cfg, key, value)
                else:
                    setattr(cfg, key, _number(value, what))
        return cfg


@dataclass
class TrialRecord:
    trial: int
    seed: int
    status: str
    fraction_recovered: float
    sweeps: int
    wall_time_ms: float
    success: bool


@dataclass
class SimulationSummary:
    trials: int
    successes: int
    error_probability: float
    wilson_low: float
    wilson_high: float
    mean_fraction: float
    records: list[TrialRecord] = field(default_factory=list)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line; returns (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def _trial_seeds(master: int, trial: int) -> tuple[int, int, int]:
    """(signal, ensemble, modulation) seeds, independent across trials."""
    return (
        mix64(master, trial, 0),
        mix64(master, trial, 1),
        mix64(master, trial, 2),
    )


def _trial_inputs(cfg: ExperimentConfig, trial: int):
    """(signal seed, signal, ensemble, modulation params) of one trial."""
    sig_seed, ens_seed, mod_seed = _trial_seeds(cfg.seed, trial)
    signal = generate_signal(cfg.n, cfg.K, sig_seed, cfg.value_model)
    return sig_seed, signal, cfg.build_ensemble(ens_seed), ModulationParams.draw(cfg.n, mod_seed)


def score_decode(
    res: DecodeResult, truth: SparseSignal, threshold: float = 1.0
) -> tuple[bool, float | None]:
    """(success, residual) of a decode against the truth.

    The residual is ``align_global_phase``'s, or None when nothing was
    recovered or a recovered index lies outside the true support. A decode
    succeeds when its recovered fraction reaches ``threshold`` and every
    recovered value lies within ``RESIDUAL_SANITY`` of the truth; an index
    off the support fails it."""
    try:
        residual = align_global_phase(res.recovered, truth) if res.recovered else None
    except AlignmentError:
        return False, None
    ok = res.fraction_recovered >= threshold - 1e-12
    return ok and (residual is None or residual <= RESIDUAL_SANITY), residual


def run_one_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    """The one general-mode trial: draw, encode, decode, score."""
    sig_seed, signal, ens, params = _trial_inputs(cfg, trial)
    meas = encode(signal, ens, params)
    decode = get_decoder(cfg.algorithm)
    t0 = time.perf_counter()
    res = decode(meas, ens, K_hint=cfg.K)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return TrialRecord(
        trial=trial,
        seed=sig_seed,
        status=res.status.value,
        fraction_recovered=res.fraction_recovered,
        sweeps=res.stats.sweeps,
        wall_time_ms=wall_ms,
        success=score_decode(res, signal, cfg.success_threshold)[0],
    )


def _trial_worker(args) -> TrialRecord:
    cfg_dict, trial = args
    cfg = ExperimentConfig(**cfg_dict)
    return run_one_trial(cfg, trial)


def run_simulation(cfg: ExperimentConfig) -> SimulationSummary:
    """Monte Carlo sweep; deterministic given the master seed, regardless of
    worker scheduling (records are merged by trial index). The pool takes
    one trial at a time, so no worker idles while another still holds a
    queued chunk."""
    cfg.resolve()
    records: list[TrialRecord] = []
    if cfg.trials > 0:
        if cfg.threads > 1:
            tasks = [(asdict(cfg), t) for t in range(cfg.trials)]
            with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
                records = list(pool.map(_trial_worker, tasks, chunksize=1))
        else:
            records = [run_one_trial(cfg, t) for t in range(cfg.trials)]
        records.sort(key=lambda r: r.trial)
    successes = sum(r.success for r in records)
    lo, hi = wilson_interval(cfg.trials - successes, cfg.trials)
    return SimulationSummary(
        trials=cfg.trials,
        successes=successes,
        error_probability=(1.0 - successes / cfg.trials) if cfg.trials else 0.0,
        wilson_low=lo,
        wilson_high=hi,
        mean_fraction=(
            sum(r.fraction_recovered for r in records) / cfg.trials if cfg.trials else 0.0
        ),
        records=records,
    )


# ---------------------------------------------------------------------------
# Runtime benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchRow:
    K: int
    mean_decode_ms: float
    resident_elements: int
    fraction_recovered: float


def run_bench(
    n: int,
    K_list: list[int],
    d: int = 7,
    c: float = 3.5,
    trials: int = 3,
    seed: int = 1,
    algorithm: str = "unicolor",
) -> list[BenchRow]:
    """Decode-time scaling over K at fixed n; implicit ensembles only, so n
    can be astronomically large. Only the decode is timed, after a garbage
    collection that keeps the set-up's garbage out of it."""
    rows = []
    decode = get_decoder(algorithm)
    for K in K_list:
        cfg = ExperimentConfig(n=n, K=K, d=d, M=math.ceil(c * K), seed=mix64(seed, K))
        times = []
        resident = 0
        fractions = []
        for t in range(trials):
            _, signal, ens, params = _trial_inputs(cfg, t)
            meas = encode(signal, ens, params)
            # a full collection owed to earlier work would land in the timing
            gc.collect()
            t0 = time.perf_counter()
            res = decode(meas, ens, K_hint=K)
            times.append((time.perf_counter() - t0) * 1e3)
            resident = max(resident, res.stats.resident_elements)
            fractions.append(res.fraction_recovered)
        rows.append(
            BenchRow(
                K=K,
                mean_decode_ms=sum(times) / len(times),
                resident_elements=resident,
                fraction_recovered=sum(fractions) / len(fractions),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# CRT vs balls-and-bins comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    K: int
    rate_crt: float
    rate_balls: float
    gap: float


def run_crt_comparison(
    coprimes,
    K_list: list[int],
    trials: int,
    seed: int = 1,
    alpha: int = 1,
    algorithm: str = "unicolor",
    threads: int = 1,
) -> list[ComparisonRow]:
    """Paired success rates: per K, two simulations on the master seed
    mix64(seed, K), so the same signals and modulation draws are decoded
    under the CRT ensemble and under fresh balls-and-bins ensembles with the
    same (n, M, d). Success means every ball recovered with its value."""
    rows = []
    for K in K_list:
        crt = ExperimentConfig(
            K=K, ensemble="crt", coprimes=tuple(coprimes), alpha=alpha, algorithm=algorithm,
            trials=trials, seed=mix64(seed, K), success_threshold=1.0, threads=threads,
        )
        rc = run_simulation(crt).successes / trials
        # run_simulation resolved crt's n, M and d to the CRT code's
        rb = run_simulation(replace(crt, ensemble="balls")).successes / trials
        rows.append(ComparisonRow(K=K, rate_crt=rc, rate_balls=rb, gap=abs(rc - rb)))
    return rows


# ---------------------------------------------------------------------------
# Fourier verification suites
# ---------------------------------------------------------------------------

FF_VERIFY_STAGES = {60: (3, 4, 5), 360: (5, 8, 9), 2310: (2, 3, 5, 7, 11)}


def _relative_residual(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest deviation of ``got`` from the non-negative ``ref``, relative to
    ``ref``'s largest entry."""
    return float(np.max(np.abs(got - ref)) / max(float(np.max(ref)), 1e-30))


def run_ff_verify(n_list=None, checks_per_case: int = 100, seed: int = 1) -> list[tuple[str, float, bool]]:
    """Operator-identity property suites; returns (name, max residual, pass).

    Residuals are relative to the reference operator's largest output entry.
    ``circulant`` and ``replica`` check the dense ``mask_lens_measure``;
    ``cosine`` and ``shifted`` check ``acquire_stage`` against the aliased
    modulated spectrum; ``acquire`` checks ``ff_sparse_acquire``, the path a
    mask/lens acquisition runs, against ``ff_sparse_acquire_implicit`` on
    sparse spectra.
    """
    if checks_per_case < 1:
        raise ParameterError(f"checks per case must be at least 1, got {checks_per_case}")
    results = []
    tol = 1e-9
    for n in n_list or sorted(FF_VERIFY_STAGES):
        factors = FF_VERIFY_STAGES.get(n)
        if factors is None:
            raise ParameterError(f"no stage factorization on file for n={n}")
        ens = build_crt(factors)
        rng = np.random.default_rng(mix64(seed, n))
        plan = build_plan(ens, mix64(seed, n, 1))
        sparse_rng = np.random.default_rng(mix64(seed, n, 2))  # the acquire suite's draws
        suites = ("circulant", "replica", "fsquared", "cosine", "shifted", "acquire")
        worst = dict.fromkeys(suites, 0.0)
        K = max(1, ens.M // 4)
        # the pure modulation each one-lens experiment applies to the spectrum
        j = np.arange(n)
        mods = {
            "plain": np.ones(n),
            "shift_fwd": np.exp(2j * np.pi * j / n),
            "shift_bwd": np.exp(-2j * np.pi * j / n),
            "check": np.exp(2j * np.pi * (j * plan.L % n) / n),
        }
        for _ in range(checks_per_case):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            X = np.fft.fft(x)
            # F^2 is n times the index-reversal permutation
            lhs = np.fft.fft(X)
            rhs = n * x[(-np.arange(n)) % n]
            worst["fsquared"] = max(
                worst["fsquared"], float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
            )
            for stage in plan.stages:
                f = stage.f
                folded = alias_fold(X, f)
                ref = np.abs(np.tile(folded, n // f))
                got = mask_lens_measure(x, stage.mask) * stage.scale
                scale = max(float(np.max(ref)), 1e-30)
                worst["circulant"] = max(
                    worst["circulant"], float(np.max(np.abs(got - ref)) / scale)
                )
                blocks = got.reshape(n // f, f)
                worst["replica"] = max(
                    worst["replica"],
                    float(np.max(np.abs(blocks - blocks[0][None, :])) / scale),
                )
                cos_ref = np.abs(2.0 * alias_fold(plan.cos_mask * X, f))
                cos_got = acquire_stage(x, plan, stage, "cosine")
                worst["cosine"] = max(worst["cosine"], _relative_residual(cos_got, cos_ref))
                for variant, mod in mods.items():
                    got = acquire_stage(x, plan, stage, variant)
                    ref = np.abs(alias_fold(mod * X, f))
                    worst["shifted"] = max(worst["shifted"], _relative_residual(got, ref))
            spectrum = generate_signal(n, K, int(sparse_rng.integers(1 << 62)))
            acq_seed = int(sparse_rng.integers(1 << 62))
            ref = ff_sparse_acquire_implicit(spectrum, ens, acq_seed).y
            got = ff_sparse_acquire(np.fft.ifft(spectrum.dense()), ens, acq_seed).y
            worst["acquire"] = max(worst["acquire"], _relative_residual(got, ref))
        for name, resid in worst.items():
            results.append((f"n={n} {name}", resid, resid <= tol))
    return results


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: str | None, header_lines: list[str], columns: list[str], rows) -> None:
    lines = list(header_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _parse_d_spec(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = _number(lo, "--d"), _number(hi, "--d")
        if hi < lo:
            raise ParameterError(f"--d: empty range {text!r}")
        return list(range(lo, hi + 1))
    return _ints(text, "--d")


def cmd_design(args) -> int:
    t0 = time.perf_counter()
    rows = analysis.design_table(_parse_d_spec(args.d))
    _write_csv(
        args.out,
        [f"# design d={args.d}"],
        ["d", "c_min", "c_max", "lambda_min", "lambda_max", "p_star", "m_per_K"],
        [
            (r.d, r.c_min_giant, r.c_max_giant, r.lam_min, r.lam_max, r.p_star, r.m_per_k)
            for r in rows
        ],
    )
    print(f"# design table in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for name in (
        "n", "K", "d", "c", "M", "ensemble", "alpha", "algorithm",
        "trials", "seed", "success_threshold", "value_model", "threads",
    ):
        val = getattr(args, name if name != "M" else "bins", None)
        if val is not None:
            setattr(cfg, name, val)
    if args.coprimes:
        cfg.coprimes = tuple(_ints(args.coprimes, "--coprimes"))
    if cfg.trials < 1:  # the flag is checked in main, a config file's value here
        raise ParameterError(f"trials must be at least 1, got {cfg.trials}")
    summary = run_simulation(cfg)
    if args.dump_dir and summary.records:
        _dump_first_trial(cfg, args.dump_dir)
    _write_csv(
        args.out,
        cfg.header_lines(),
        ["trial", "seed", "status", "fraction_recovered", "sweeps", "wall_time_ms", "success"],
        [
            (r.trial, r.seed, r.status, r.fraction_recovered, r.sweeps, r.wall_time_ms, int(r.success))
            for r in summary.records
        ],
    )
    print(
        f"error_probability={summary.error_probability:.4f} "
        f"wilson95=({summary.wilson_low:.4f},{summary.wilson_high:.4f}) "
        f"mean_fraction={summary.mean_fraction:.6f} trials={summary.trials}",
        file=sys.stderr,
    )
    return 0


def _dump_first_trial(cfg: ExperimentConfig, out_dir: str) -> None:
    import os

    os.makedirs(out_dir, exist_ok=True)
    _, signal, ens, params = _trial_inputs(cfg, 0)
    write_signal(signal, os.path.join(out_dir, "trial0.signal"))
    write_measurements(encode(signal, ens, params), os.path.join(out_dir, "trial0.meas"))


def cmd_bench(args) -> int:
    K_list = _ints(args.K_list, "--K-list")
    rows = run_bench(
        n=args.n,
        K_list=K_list,
        d=args.d,
        c=args.c,
        trials=args.trials,
        seed=args.seed,
        algorithm=args.algorithm,
    )
    slope, intercept, r2 = linear_fit([r.K for r in rows], [r.mean_decode_ms for r in rows])
    _write_csv(
        args.out,
        [f"# bench n={args.n} d={args.d} c={args.c!r} trials={args.trials} seed={args.seed}",
         f"# fit slope_ms_per_K={slope!r} intercept_ms={intercept!r} r2={r2!r}"],
        ["K", "mean_decode_ms", "resident_elements", "fraction_recovered"],
        [(r.K, r.mean_decode_ms, r.resident_elements, r.fraction_recovered) for r in rows],
    )
    print(f"slope={slope:.6f} ms/K intercept={intercept:.3f} ms r2={r2:.5f}", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    signal = read_signal(args.signal) if args.signal else None
    meas = read_measurements(args.measurements, mode=args.mode)
    if args.ensemble == "balls" and None in (args.bins, args.d, args.ens_seed):
        raise ParameterError("balls ensemble needs --bins, --d and --ens-seed")
    coprimes = tuple(_ints(args.coprimes, "--coprimes")) if args.coprimes else ()
    ens = ExperimentConfig(
        n=meas.params.n, M=args.bins, d=args.d, ensemble=args.ensemble, coprimes=coprimes,
        alpha=args.alpha,
    ).build_ensemble(args.ens_seed)
    K = args.K if args.K is not None else (signal.k if signal else 0)
    decode = get_decoder(args.algorithm)
    t0 = time.perf_counter()
    res = decode(meas, ens, K_hint=K)
    wall_ms = (time.perf_counter() - t0) * 1e3
    out = sys.stdout if not args.out else open(args.out, "w")
    try:
        for ell, v in res.recovered:
            out.write(f"{ell} {v.real!r} {v.imag!r}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    status = {
        "status": res.status.value,
        "iterations": res.stats.sweeps,
        "unexplained_bins": res.stats.unexplained_bins,
        "fraction_recovered": res.fraction_recovered,
        "wall_time_ms": wall_ms,
    }
    if signal is not None:
        status["residual"] = score_decode(res, signal)[1]
    print(json.dumps(status))
    return 0


def cmd_nonsparse(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    counts_ok = True
    for t in range(args.trials):
        x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        if args.mode == "general":
            meas = ns.chain_measure(x)
            counts_ok &= meas.count == 3 * args.n - 2
            xhat = ns.chain_decode(meas)
        else:
            meas = ns.ff_nonsparse_measure(x)
            counts_ok &= meas.count == 3 * args.n
            xhat = ns.ff_nonsparse_decode(meas)
        est = [(i + 1, xhat[i]) for i in range(args.n)]
        truth = SparseSignal(args.n, tuple((i + 1, complex(v)) for i, v in enumerate(x)))
        worst = max(worst, align_global_phase(est, truth))
    ok = counts_ok and worst <= 1e-8
    print(
        f"mode={args.mode} n={args.n} trials={args.trials} "
        f"max_residual={worst:.3e} counts_ok={counts_ok} -> {'PASS' if ok else 'FAIL'}"
    )
    if args.dump:
        x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        _dump_nonsparse(x, args.mode, args.dump)
    return 0 if ok else 3


def _dump_nonsparse(x: np.ndarray, mode: str, prefix: str) -> None:
    """Measurement dump, sparse-format flavor: header, then one value/line.

    The DFT convention for the fourier mode is the unnormalized forward
    transform.
    """
    if mode == "general":
        meas = ns.chain_measure(x)
        arrays = [("mags", meas.mags), ("sums", meas.sums), ("rotated_sums", meas.rotated_sums)]
        header = f"{len(x)} {meas.omega!r} {meas.anchor}"
    else:
        meas = ns.ff_nonsparse_measure(x)
        arrays = [("plain", meas.plain), ("boosted", meas.boosted), ("rotated", meas.rotated)]
        header = f"{len(x)} unnormalized-dft 1"
    with open(f"{prefix}.{mode}.meas", "w") as fh:
        fh.write(header + "\n")
        for name, arr in arrays:
            fh.write(f"# {name} {len(arr)}\n")
            for v in arr:
                fh.write(f"{float(v)!r}\n")


def cmd_ff_verify(args) -> int:
    n_list = _ints(args.n_list, "--n-list") if args.n_list else None
    t0 = time.perf_counter()
    results = run_ff_verify(n_list, checks_per_case=args.checks, seed=args.seed)
    ok = True
    for name, resid, passed in results:
        ok &= passed
        print(f"{name:24s} max_residual={resid:.3e} {'PASS' if passed else 'FAIL'}")
    print(f"# completed in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0 if ok else 3


def cmd_ff_sim(args) -> int:
    coprimes = tuple(_ints(args.coprimes, "--coprimes"))
    ens = build_crt(coprimes, args.alpha)
    explicit = ens.n <= EXPLICIT_N_LIMIT
    ok_ff = 0
    for t in range(args.trials):
        sig_seed, _, mod_seed = _trial_seeds(args.seed, t)
        sig = generate_signal(ens.n, args.K, sig_seed)
        if explicit:
            x = np.fft.ifft(sig.dense())
            meas = ff_sparse_acquire(x, ens, mod_seed)
        else:
            meas = ff_sparse_acquire_implicit(sig, ens, mod_seed)
        res = ff_sparse_decode(meas, ens, K_hint=args.K, algorithm=args.algorithm)
        ok_ff += score_decode(res, sig)[0]
    line = (
        f"coprimes={args.coprimes} n={ens.n} M={ens.M} K={args.K} "
        f"acquisition={'explicit' if explicit else 'implicit'} "
        f"ff_rate={ok_ff / args.trials:.4f}"
    )
    if args.paired:
        general = run_simulation(ExperimentConfig(
            K=args.K, ensemble="crt", coprimes=coprimes, alpha=args.alpha,
            algorithm=args.algorithm, trials=args.trials, seed=args.seed, success_threshold=1.0,
        ))
        line += f" general_rate={general.successes / args.trials:.4f}"
    print(line)
    return 0


def cmd_crt_compare(args) -> int:
    coprimes = tuple(_ints(args.coprimes, "--coprimes"))
    K_list = _ints(args.K_list, "--K-list")
    rows = run_crt_comparison(
        coprimes, K_list, args.trials, seed=args.seed, alpha=args.alpha,
        algorithm=args.algorithm, threads=args.threads,
    )
    _write_csv(
        args.out,
        [f"# crt-compare coprimes={args.coprimes} trials={args.trials} seed={args.seed} algorithm={args.algorithm}"],
        ["K", "rate_crt", "rate_balls", "gap"],
        [(r.K, r.rate_crt, r.rate_balls, r.gap) for r in rows],
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The flags several subcommands share; each subcommand takes only those its
# handler reads, so argparse rejects the rest.
_SHARED_FLAGS = {
    "seed": dict(type=int, default=1),
    "trials": dict(type=int, default=100),
    "out": dict(type=str, default=None, help="output path (stdout if omitted)"),
    "threads": dict(type=int, default=1, help="worker processes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phasecode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, shared: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        for flag in shared.split():
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        return p

    p = command("design", "out", help="density-evolution design table")
    p.add_argument("--d", type=str, default="4..10", help="left degrees, e.g. 4..10 or 5,7")
    p.set_defaults(func=cmd_design)

    p = command("simulate", "seed trials out threads", help="Monte Carlo recovery sweep")
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--c", type=float, default=None, help="bins per ball, M = ceil(cK)")
    p.add_argument("--bins", type=int, default=None, help="explicit bin count M")
    p.add_argument("--ensemble", choices=["balls", "crt"], default=None)
    p.add_argument("--coprimes", type=str, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.add_argument("--success-threshold", dest="success_threshold", type=float, default=None)
    p.add_argument("--value-model", dest="value_model", choices=["gaussian", "unit"], default=None)
    p.add_argument("--dump-dir", type=str, default=None, help="write trial 0 signal/measurement files here")
    # unset flags leave the config file's values (or its defaults) in place
    p.set_defaults(func=cmd_simulate, seed=None, trials=None, threads=None)

    p = command("bench", "seed trials out", help="decode runtime scaling")
    p.add_argument("--n", type=int, default=10_000_000_000)
    p.add_argument("--K-list", type=str, default="1000,2000,4000,10000")
    p.add_argument("--d", type=int, default=7)
    p.add_argument("--c", type=float, default=3.5)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="unicolor")
    p.set_defaults(func=cmd_bench, trials=3)

    p = command("decode", "out", help="decode signal/measurement files")
    p.add_argument("--signal", type=str, default=None, help="ground-truth signal file (for scoring)")
    p.add_argument("--measurements", type=str, required=True)
    p.add_argument("--mode", choices=[GENERAL, FOURIER], default=GENERAL)
    p.add_argument("--ensemble", choices=["balls", "crt"], default="balls")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--ens-seed", dest="ens_seed", type=int, default=None)
    p.add_argument("--coprimes", type=str, default=None)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="unicolor")
    p.set_defaults(func=cmd_decode)

    p = command("nonsparse", "seed trials", help="dense-scheme round-trip self-test")
    p.add_argument("--mode", choices=["general", "fourier"], default="general")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--dump", type=str, default=None, help="measurement dump file prefix")
    p.set_defaults(func=cmd_nonsparse, trials=20)

    p = command("ff-verify", "seed", help="Fourier operator-identity suites")
    p.add_argument("--n-list", type=str, default=None, help="default: 60,360,2310")
    p.add_argument("--checks", type=int, default=100)
    p.set_defaults(func=cmd_ff_verify)

    p = command("ff-sim", "seed trials", help="sparse-spectrum mask/lens experiment")
    p.add_argument("--coprimes", type=str, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="multicolor")
    p.add_argument("--paired", action="store_true", help="also run the general-mode decoder")
    p.set_defaults(func=cmd_ff_sim)

    p = command("crt-compare", "seed trials out threads", help="paired CRT vs balls-and-bins rates")
    p.add_argument("--coprimes", type=str, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--K-list", type=str, required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="unicolor")
    p.set_defaults(func=cmd_crt_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        trials = getattr(args, "trials", None)
        if trials is not None and trials < 1:
            raise ParameterError(f"--trials must be at least 1, got {trials}")
        return args.func(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
