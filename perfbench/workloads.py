"""The benchmark's four workloads, driven through phasecode's public API.

Every input derives from (workload, seed, step, role) through BLAKE2b, so one
seed always gives the same inputs and the program sees only what it is
handed. Calls go through module attributes (``core.generate_signal``, not a
copied name) so that the traced pass picks up the installed wrappers.

A workload runs in *steps*. A step is one trial on ``large-n``, ``crt-small``
and ``masklens``, and one unicolor plus one multicolor ``run_simulation``
batch on ``montecarlo``. Every decode is scored against ground truth.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phasecode import analysis, cli, core, decoder, ensemble, fourier, measurement
from spans import DECODERS

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text())
RESIDUAL_TOL = 1e-6
ACQUISITION_TOL = 1e-9  # the operator-identity tolerance of the fourier module's own checks


def derive(*parts) -> int:
    """64-bit seed for one input, independent of phasecode's own hashing."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class Outcome:
    """One scored decode. ``verdict`` is recovered, honest or wrong."""

    decoder: str
    verdict: str
    ms: float | None
    output: tuple  # what the result digest covers


@dataclass
class Step:
    trials: int
    outcomes: list[Outcome] = field(default_factory=list)
    inputs: list = field(default_factory=list)  # what the input digest covers
    problems: list[str] = field(default_factory=list)  # failed checks no decode is charged with


def score(res, signal) -> str:
    """recovered: FullRecovery with the true support and values within
    RESIDUAL_TOL after phase alignment; wrong: FullRecovery otherwise;
    honest: PartialRecovery or Failure."""
    if res.status is not core.RecoveryStatus.FULL_RECOVERY:
        return "honest"
    truth = signal.value_map()
    support = {ell for ell, _ in res.recovered}
    if len(res.recovered) != len(truth) or support != truth.keys():
        return "wrong"
    return "recovered" if core.align_global_phase(res.recovered, signal) <= RESIDUAL_TOL else "wrong"


def timed_decode(step: Step, tag: tuple, alg: str, call, signal) -> None:
    """Run one decode, time it, score it and append the outcome. A decode
    that raises is a wrong answer, recorded with its exception type."""
    t0 = time.perf_counter()
    try:
        res = call()
    except Exception as exc:  # a raising decode is a failed operation, not a crash
        step.outcomes.append(Outcome(alg, "wrong", None, tag + (alg, type(exc).__name__)))
        return
    ms = (time.perf_counter() - t0) * 1e3
    support = tuple(sorted(ell for ell, _ in res.recovered))
    step.outcomes.append(Outcome(alg, score(res, signal), ms, tag + (alg, res.status.value, support)))


def make_signal(n: int, K: int, seed: int):
    signal = core.generate_signal(n, K, seed)
    if signal.k != K or signal.n != n:
        raise RuntimeError(f"generate_signal returned n={signal.n}, K={signal.k}; asked n={n}, K={K}")
    return signal


class LargeN:
    """Balls-and-bins at n = 1e10: one encode, both decoders per trial."""

    name = "large-n"
    pool_workers = 0

    def __init__(self, seed: int):
        p = SPEC[self.name]["params"]
        self.seed = seed
        self.n, self.K, self.d = p["n"], p["K"], p["d"]
        self.M = int(np.ceil(p["c"] * self.K))

    def step(self, i) -> Step:
        s_sig, s_ens, s_mod = (derive(self.name, self.seed, i, r) for r in range(3))
        signal = make_signal(self.n, self.K, s_sig)
        ens = ensemble.build_balls_and_bins(self.n, self.M, self.d, s_ens)
        params = measurement.ModulationParams.draw(self.n, s_mod)
        meas = measurement.encode(signal, ens, params)
        step = Step(trials=1, inputs=[(i, [ell for ell, _ in signal.support], s_ens, params.L)])
        for alg in DECODERS:
            decode = getattr(decoder, f"decode_{alg}")
            timed_decode(step, (i,), alg, lambda: decode(meas, ens, params, K_hint=self.K), signal)
        return step


class CrtSmall:
    """Criterion-4 shape: each signal decoded under the CRT ensemble and under
    a balls-and-bins ensemble with the same (n, M, d), by both decoders."""

    name = "crt-small"
    pool_workers = 0

    def __init__(self, seed: int):
        p = SPEC[self.name]["params"]
        self.seed = seed
        self.crt = ensemble.build_crt(p["coprimes"])
        self.K_cycle = list(range(p["K_first"], p["K_last"] + 1, p["K_step"]))

    def step(self, i) -> Step:
        crt = self.crt
        K = self.K_cycle[i % len(self.K_cycle)]
        s_sig, s_ens, s_mod = (derive(self.name, self.seed, i, r) for r in range(3))
        signal = make_signal(crt.n, K, s_sig)
        params = measurement.ModulationParams.draw(crt.n, s_mod)
        balls = ensemble.build_balls_and_bins(crt.n, crt.M, crt.d, s_ens)
        step = Step(trials=1, inputs=[(i, K, [ell for ell, _ in signal.support], s_ens, params.L)])
        for ens in (crt, balls):
            meas = measurement.encode(signal, ens, params)
            for alg in DECODERS:
                decode = getattr(decoder, f"decode_{alg}")
                timed_decode(step, (i, ens.kind), alg,
                             lambda: decode(meas, ens, params, K_hint=K), signal)
        return step


class MaskLens:
    """Explicit mask/lens acquisition of ifft(spectrum), Fourier-mode decodes.

    Each trial acquires one spectrum through the masks and lenses and checks
    it against the implicit acquisition, which computes the same measurements
    in O(K d). ``implicit_spectra`` more spectra go through the implicit path
    only, so that a run holds enough decodes for steady decode-time medians
    and recovery rates while the FFTs still take nearly all of the time.
    """

    name = "masklens"
    pool_workers = 0

    def __init__(self, seed: int):
        p = SPEC[self.name]["params"]
        self.seed = seed
        self.K = p["K"]
        self.implicit_spectra = p["implicit_spectra"]
        self.ens = ensemble.build_crt(p["coprimes"])

    def step(self, i) -> Step:
        ens = self.ens
        step = Step(trials=1)
        for j in range(1 + self.implicit_spectra):
            s_sig, s_mod = (derive(self.name, self.seed, i, j, r) for r in range(2))
            spectrum = make_signal(ens.n, self.K, s_sig)
            meas = fourier.ff_sparse_acquire_implicit(spectrum, ens, s_mod)
            if j == 0:
                implicit = meas
                meas = fourier.ff_sparse_acquire(np.fft.ifft(spectrum.dense()), ens, s_mod)
                gap = float(np.max(np.abs(meas.y - implicit.y)))
                if gap > ACQUISITION_TOL * max(float(np.max(implicit.y)), 1.0):
                    step.problems.append(f"trial {i}: mask/lens and implicit acquisitions differ by {gap:.3e}")
            step.inputs.append((i, j, [ell for ell, _ in spectrum.support], s_mod))
            for alg in DECODERS:
                timed_decode(step, (i, j), alg,
                             lambda: fourier.ff_sparse_decode(meas, ens, K_hint=self.K, algorithm=alg),
                             spectrum)
        return step


class MonteCarlo:
    """Criterion 3 through cli.run_simulation with its process pool.

    A batch that run_simulation aborts (``align_global_phase`` raises
    AlignmentError on a false accept outside the true support) counts as
    ``batch_trials`` failed operations.
    """

    name = "montecarlo"

    def __init__(self, seed: int):
        p = SPEC[self.name]["params"]
        self.seed = seed
        self.p = p
        self.pool_workers = p["threads"]
        self.threshold = 1.0 - analysis.error_floor(p["d"] / p["threshold_c"], p["d"])
        self.tracer = None  # set by the traced pass to collect pool spans

    def config(self, alg: str, master: int, trials: int) -> cli.ExperimentConfig:
        p = self.p
        return cli.ExperimentConfig(
            n=p["n"], K=p["K"], d=p["d"], c=p[f"c_{alg}"], algorithm=alg, trials=trials,
            seed=master, threads=p["threads"],
            success_threshold=self.threshold if alg == "multicolor" else None,
        )

    def warmup(self) -> None:
        cli.run_simulation(self.config("unicolor", derive(self.name, self.seed, -1), 1))

    def step(self, i) -> Step:
        master = derive(self.name, self.seed, i)
        batch = self.p["batch_trials"]
        step = Step(trials=0, inputs=[(i, master)])
        for a, alg in enumerate(DECODERS):
            t0 = time.perf_counter()
            try:
                summary = cli.run_simulation(self.config(alg, master, batch))
            except Exception as exc:  # the harness aborts the whole batch
                step.outcomes += [Outcome(alg, "wrong", None, (i, alg, type(exc).__name__))] * batch
                continue
            wall = time.perf_counter() - t0
            step.trials += len(summary.records)
            if [r.trial for r in summary.records] != list(range(batch)):
                step.problems.append(f"step {i} {alg}: run_simulation returned trials "
                                     f"{[r.trial for r in summary.records]}")
            for rec in summary.records:
                spans = rec.__dict__.pop("bench_trace", None)
                if self.tracer is not None:
                    if spans is None:
                        raise RuntimeError("pool worker returned no spans: tracing the pool "
                                           "needs the fork start method")
                    self.tracer.merge(spans, trial_id=(i * 2 + a) * batch + rec.trial)
                full = rec.status == core.RecoveryStatus.FULL_RECOVERY.value
                verdict = "recovered" if full and rec.success else "wrong" if full else "honest"
                fields = (rec.trial, rec.seed, rec.status, rec.fraction_recovered, rec.sweeps, rec.success)
                step.outcomes.append(Outcome(alg, verdict, rec.wall_time_ms, (i, alg) + fields))
            if self.tracer is not None:
                self.tracer.count("cli.decode_busy_s", sum(r.wall_time_ms for r in summary.records) / 1e3)
                self.tracer.count("cli.pool_capacity_s", wall * self.pool_workers)
        return step


WORKLOADS = {w.name: w for w in (LargeN, MonteCarlo, CrtSmall, MaskLens)}


def warmup(wl) -> None:
    """One untimed trial on inputs no measured step uses (steps count from 0)."""
    if hasattr(wl, "warmup"):
        wl.warmup()
    else:
        wl.step(-1)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
