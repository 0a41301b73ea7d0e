"""The round engine against the scalar engine, decode for decode.

Both decoders seed on the scalar ``_Engine``; on codes with at least
``ROUND_ENGINE_MIN_BINS`` bins the public decoders hand the growth phase to
``_RoundEngine``. These tests run the growth on both engines through
``decoder._run`` on the same inputs, the round engine also below the
threshold. A round judges every bin against the state at its start and
rotates merged components eagerly, so values differ from the scalar
engine's in the last bits; statuses and supports must not, at n <= 1e10.
"""
from __future__ import annotations

import statistics

import numpy as np
import pytest

import phasecode.decoder as dec
from helpers import random_value, signal_from_pairs
from phasecode.core import RecoveryStatus, align_global_phase, generate_signal
from phasecode.ensemble import ExplicitEnsemble, build_balls_and_bins, build_crt
from phasecode.fourier import ff_sparse_acquire_implicit
from phasecode.measurement import ModulationParams, encode, modulation_coeffs
from test_reference_panel import CRITERION_4_COPRIMES, panel_inputs

FULL = RecoveryStatus.FULL_RECOVERY
VALUE_TOL = 1e-6


class _CheckedHandOver(dec._RoundEngine):
    """The round engine, checking each hand-over: the seeded balls' rows of
    ``g`` and ``bins`` equal ``modulation_coeffs`` and ``bins_of`` (zero
    padded to the table's width) bit for bit."""

    def __init__(self, seeded, roots):
        super().__init__(seeded, roots)
        ells = self.ell[1 : self.count].tolist()
        width = self.bins.shape[1]
        g = np.array([modulation_coeffs(self.params, ell) for ell in ells], dtype=np.complex128)
        rows = [self.ensemble.bins_of(ell) for ell in ells]
        bins = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.int64)
        assert self.g[1 : self.count].tobytes() == g.tobytes()
        assert self.bins[1 : self.count].tobytes() == bins.reshape(-1, width).tobytes()


SCALAR, ROUNDS = None, _CheckedHandOver  # the growth engines ``_run`` can hand over to


def _decode(grow, alg, meas, ens, K, cap=None):
    return dec._run(dec._Engine(meas, ens), K, alg == "multicolor", grow, cap=cap)


def _support(res) -> list[int]:
    return [ell for ell, _ in res.recovered]


def _recovered(res, signal) -> bool:
    return res.status is FULL and _support(res) == sorted(signal.value_map())


def _above_threshold():
    """(label, algorithm, signal, measurements, ensemble, K) on codes with
    at least ROUND_ENGINE_MIN_BINS bins."""
    for n in (10**6, 10**10):
        for seed in range(2):
            signal = generate_signal(n, 400, 10 + seed)
            ens = build_balls_and_bins(n, 1400, 7, 20 + seed)
            meas = encode(signal, ens, ModulationParams.draw(n, 30 + seed))
            for alg in dec.ALGORITHMS:
                yield f"balls n={n} seed={seed} {alg}", alg, signal, meas, ens, 400
    # Fourier mode at even n: ball ell and its alias n/2 + ell share every
    # odd-height stage and, for odd L, pass the same resynthesis, so only an
    # even-height stage's membership tells them apart
    ff = build_crt([17, 19, 21, 22, 23], alpha=2)
    for seed in range(4):
        signal = generate_signal(ff.n, 550, 40 + seed)
        meas = ff_sparse_acquire_implicit(signal, ff, 50 + seed)
        for alg in dec.ALGORITHMS:
            yield f"fourier L%2={meas.params.L % 2} seed={seed} {alg}", alg, signal, meas, ff, 550


def test_above_threshold_cases_are_above_threshold():
    cases = list(_above_threshold())
    assert len(cases) >= 8
    assert all(meas.M >= dec.ROUND_ENGINE_MIN_BINS for _, _, _, meas, _, _ in cases)
    assert {meas.params.L % 2 for label, _, _, meas, _, _ in cases if "fourier" in label} == {0, 1}


def test_round_engine_matches_the_scalar_engine():
    """Equal statuses and supports on the reference panel and above the
    threshold. Over full recoveries, each round-engine value error is within
    1e-6 and their median is no worse than the scalar engine's."""
    errors = {SCALAR: [], ROUNDS: []}
    for case_id, alg, signal, meas, ens, K in [*panel_inputs(), *_above_threshold()]:
        got = {engine: _decode(engine, alg, meas, ens, K) for engine in errors}
        scalar, rounds = got[SCALAR], got[ROUNDS]
        assert rounds.status == scalar.status, case_id
        assert _support(rounds) == _support(scalar), case_id
        assert set(_support(rounds)) <= signal.value_map().keys(), case_id
        if _recovered(scalar, signal):
            for engine, res in got.items():
                errors[engine].append(align_global_phase(res.recovered, signal))
            assert errors[ROUNDS][-1] <= VALUE_TOL, case_id
    assert len(errors[ROUNDS]) >= 20
    assert statistics.median(errors[ROUNDS]) <= statistics.median(errors[SCALAR])


def _cascade_toy():
    """Irregular explicit code (bins_many pads with zeros): bins {1,4,5},
    {3,6}, {2..6}, {1,3}; balls 1..4 active."""
    ens = ExplicitEnsemble(6, ((1, 4, 5), (3, 6), (2, 3, 4, 5, 6), (1, 3)))
    rng = np.random.default_rng(42)
    sig = signal_from_pairs(6, [(ell, random_value(rng)) for ell in (1, 2, 3, 4)])
    return sig, encode(sig, ens, ModulationParams.draw(6, 9)), ens


def _no_singleton():
    """Every bin holds two active balls."""
    ens = ExplicitEnsemble(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    rng = np.random.default_rng(7)
    sig = signal_from_pairs(4, [(ell, random_value(rng)) for ell in (1, 2, 3, 4)])
    return sig, encode(sig, ens, ModulationParams.draw(4, 3)), ens


def _large_case():
    sig = generate_signal(10**6, 400, 10)
    ens = build_balls_and_bins(10**6, 1400, 7, 20)
    return sig, encode(sig, ens, ModulationParams.draw(10**6, 30)), ens


@pytest.mark.parametrize("alg", dec.ALGORITHMS)
def test_round_engine_edge_cases(alg):
    sig, meas, ens = _cascade_toy()
    assert ens.bins_many([1, 2, 6]).min() == 0  # rows padded with zeros
    sig2, meas2, ens2 = _no_singleton()
    cases = [
        ("explicit, zero padding", meas, ens, 4),
        ("K_hint = 0", meas, ens, 0),
        ("no singleton", meas2, ens2, 4),
    ]
    for label, m, e, K in cases:
        scalar = _decode(SCALAR, alg, m, e, K)
        rounds = _decode(ROUNDS, alg, m, e, K)
        assert (rounds.status, _support(rounds)) == (scalar.status, _support(scalar)), label
    for grow in (SCALAR, ROUNDS):  # K_hint = 0 still decodes the toy and certifies it
        res = _decode(grow, alg, meas, ens, 0)
        assert (res.status, _support(res), res.stats.unexplained_bins) == (FULL, [1, 2, 3, 4], 0)
        assert align_global_phase(res.recovered, sig) <= VALUE_TOL
    assert _decode(ROUNDS, alg, meas2, ens2, 4).status is RecoveryStatus.FAILURE


@pytest.mark.parametrize("alg", dec.ALGORITHMS)
def test_max_sweeps_caps_rounds(alg):
    """``_run``'s ``cap`` caps rounds, which peel one step each where a sweep
    sees the bins it has already updated, so a capped decode is compared
    with the uncapped one and the truth rather than with the scalar engine."""
    seeding = 1 if alg == "multicolor" else 2
    for sig, meas, ens, K in (_cascade_toy() + (4,), _large_case() + (400,)):
        capped = _decode(ROUNDS, alg, meas, ens, K, 2)
        full = _decode(ROUNDS, alg, meas, ens, K)
        assert capped.stats.sweeps <= seeding + 2
        assert set(_support(capped)) <= set(_support(full)) <= sig.value_map().keys()
        if capped.stats.sweeps < full.stats.sweeps:
            assert capped.status is not RecoveryStatus.FULL_RECOVERY
    assert full.stats.sweeps > seeding + 2  # the large case needs more rounds than the cap


@pytest.mark.parametrize("alg", dec.ALGORITHMS)
def test_first_round_skips_the_bins_the_seeding_verified(alg, monkeypatch):
    """A bin the singleton judge marked exhausted holds its ball alone, so
    the round engine keeps the mark wherever it keeps that ball, and its
    first round does not judge the bin again."""
    engines = []

    class Recording(dec._RoundEngine):
        def __init__(self, seeded, roots):
            super().__init__(seeded, roots)
            kept = set(self.ell[1 : self.count].tolist())
            marked = np.flatnonzero(np.frombuffer(seeded.exhausted, dtype=bool)).tolist()
            assert all(len(seeded.discovered[b0]) == 1 for b0 in marked)
            self.verified = {b0 for b0 in marked if seeded.discovered[b0][0] in kept}
            self.judged = None
            engines.append(self)

        def round(self, allow_merge):
            if self.judged is None:
                self.judged = set(np.flatnonzero(self.dirty).tolist())
            return super().round(allow_merge)

    monkeypatch.setattr(dec, "_RoundEngine", Recording)
    _, meas, ens = _large_case()
    assert dec.get_decoder(alg)(meas, ens, K_hint=400).status is FULL
    (engine,) = engines
    assert engine.verified and engine.judged
    assert not engine.verified & engine.judged


def test_round_engine_gives_no_confident_wrong_answer_at_n_1e12():
    """At n ~ 1.25e12, round(acos(.)/omega) can land on a neighbouring index
    from a last-bit difference, so the engines may disagree on a decode; the
    round engine must never report a wrong FullRecovery."""
    crt = build_crt(CRITERION_4_COPRIMES)
    flips = {"scalar only": 0, "round only": 0}
    decodes = 0
    for trial in range(60):
        K = 107 + 7 * (trial % 10)
        signal = generate_signal(crt.n, K, 900 + trial)
        meas = encode(signal, crt, ModulationParams.draw(crt.n, 1900 + trial))
        for alg in dec.ALGORITHMS:
            scalar = _decode(SCALAR, alg, meas, crt, K)
            rounds = _decode(ROUNDS, alg, meas, crt, K)
            decodes += 1
            if rounds.status is FULL:
                assert _recovered(rounds, signal), (trial, alg)
                assert align_global_phase(rounds.recovered, signal) <= VALUE_TOL, (trial, alg)
            ok_scalar, ok_round = _recovered(scalar, signal), _recovered(rounds, signal)
            if ok_scalar != ok_round:
                flips["scalar only" if ok_scalar else "round only"] += 1
    print(f"\n[round engine, n={crt.n}] full-recovery flips over {decodes} decodes: {flips}")
    assert sum(flips.values()) <= decodes // 20


def test_round_engine_counts_live_state_only():
    # per bin 5, per ball 13 plus its d bins and its d member-table entries
    sig, meas, ens = _large_case()
    for alg in dec.ALGORITHMS:
        res = dec.get_decoder(alg)(meas, ens, meas.params, K_hint=400)
        assert res.status is FULL
        assert res.stats.resident_elements == 5 * ens.M + (13 + 2 * ens.d) * 400


def test_public_decoders_pick_the_engine_by_code_size(monkeypatch):
    grown = []

    class Recording(dec._RoundEngine):
        def __init__(self, seeded, roots):
            super().__init__(seeded, roots)
            grown.append(seeded.M)

    monkeypatch.setattr(dec, "_RoundEngine", Recording)
    for M in (dec.ROUND_ENGINE_MIN_BINS - 1, dec.ROUND_ENGINE_MIN_BINS):
        sig = generate_signal(10**6, 50, 1)
        ens = build_balls_and_bins(10**6, M, 7, 2)
        meas = encode(sig, ens, ModulationParams.draw(10**6, 3))
        for decode in (dec.decode_unicolor, dec.decode_multicolor):
            decode(meas, ens, meas.params, K_hint=50)
    assert grown == [dec.ROUND_ENGINE_MIN_BINS] * 2
