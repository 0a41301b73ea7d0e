"""Reference panel: fixed decodes whose outputs are pinned in a golden file.

Both decoders run on balls-and-bins codes (general mode), on the criterion-4
CRT code (general mode) and on a CRT code in Fourier mode with implicit
acquisition. Every case must reproduce the golden status and support
exactly, and every recovered value to 1e-12 relative. Work counters (sweeps,
processor calls, resident elements) are deliberately not pinned.

Regenerate the golden file only when a change is meant to alter decodes:

    PYTHONPATH=src python tests/test_reference_panel.py --write

A refactor that must keep decodes byte for byte compares digests of a
larger panel (more than 1000 decodes) before and after:

    PYTHONPATH=src python tests/test_reference_panel.py --digest

It prints one line per part: the decode count, the statuses and a SHA-256
over each decode's status, support, value bits and every ``DecodeStats``
field.
"""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import pytest

from phasecode.core import generate_signal, mix64
from phasecode.decoder import decode_multicolor, decode_unicolor
from phasecode.ensemble import build_balls_and_bins, build_crt
from phasecode.fourier import ff_sparse_acquire, ff_sparse_acquire_implicit, ff_sparse_decode
from phasecode.measurement import FOURIER, ModulationParams, encode

GOLDEN = Path(__file__).with_name("reference_panel.json")
VALUE_RTOL = 1e-12

DECODERS = {"unicolor": decode_unicolor, "multicolor": decode_multicolor}
CRITERION_4_COPRIMES = (47, 49, 50, 53, 57, 59, 61)
FOURIER_COPRIMES = (13, 17, 19, 23, 25)


def _seeds(tag: int, trial: int) -> tuple[int, int, int]:
    return tuple(mix64(0x9A7E1, tag, trial, r) for r in range(3))


def panel_inputs():
    """Yield (case id, algorithm, signal, measurements, ensemble, K) per case."""
    for n, K, c in ((1_000_000, 30, 3.32), (10_000_000_000, 30, 2.9), (1_000_000, 60, 0.5)):
        for trial in range(3):
            s_sig, s_ens, s_mod = _seeds(K, trial)
            signal = generate_signal(n, K, s_sig)
            ens = build_balls_and_bins(n, int(c * K + 0.999999), 7, s_ens)
            params = ModulationParams.draw(n, s_mod)
            meas = encode(signal, ens, params)
            for alg in DECODERS:
                yield f"balls n={n} K={K} c={c} trial={trial} {alg}", alg, signal, meas, ens, K
    crt = build_crt(CRITERION_4_COPRIMES)
    for K, trial in ((107, 0), (170, 0), (170, 1)):
        s_sig, _, s_mod = _seeds(K, 100 + trial)
        signal = generate_signal(crt.n, K, s_sig)
        params = ModulationParams.draw(crt.n, s_mod)
        meas = encode(signal, crt, params)
        for alg in DECODERS:
            yield f"crt K={K} trial={trial} {alg}", alg, signal, meas, crt, K
    ff = build_crt(FOURIER_COPRIMES)
    for K in (16, 24):
        for trial in range(2):
            s_sig, _, s_mod = _seeds(K, 200 + trial)
            signal = generate_signal(ff.n, K, s_sig)
            meas = ff_sparse_acquire_implicit(signal, ff, s_mod)
            for alg in DECODERS:
                yield f"fourier K={K} trial={trial} {alg}", alg, signal, meas, ff, K


def _cases():
    """Yield (case id, thunk returning a DecodeResult)."""
    for case_id, alg, _, meas, ens, K in panel_inputs():
        if meas.params.mode == FOURIER:
            yield case_id, lambda a=alg, m=meas, e=ens, k=K: ff_sparse_decode(m, e, K_hint=k, algorithm=a)
        else:
            yield case_id, lambda a=alg, m=meas, e=ens, k=K: DECODERS[a](m, e, m.params, K_hint=k)


def _record(res) -> dict:
    # 15 significant digits pin a value far inside VALUE_RTOL and keep the file small
    return {
        "status": res.status.value,
        "recovered": [
            [ell, float(f"{v.real:.15g}"), float(f"{v.imag:.15g}")] for ell, v in res.recovered
        ],
    }


def panel() -> dict[str, dict]:
    return {case_id: _record(run()) for case_id, run in _cases()}


def test_reference_panel_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = panel()
    assert sorted(got) == sorted(golden)
    for case_id, want in golden.items():
        have = got[case_id]
        assert have["status"] == want["status"], case_id
        assert [r[0] for r in have["recovered"]] == [r[0] for r in want["recovered"]], case_id
        for (ell, re, im), (_, wre, wim) in zip(have["recovered"], want["recovered"]):
            assert abs(complex(re, im) - complex(wre, wim)) <= VALUE_RTOL * abs(complex(wre, wim)), (
                f"{case_id}: value of ball {ell}"
            )


def test_reference_panel_covers_every_outcome():
    statuses = {case["status"] for case in json.loads(GOLDEN.read_text()).values()}
    assert statuses == {"FullRecovery", "PartialRecovery", "Failure"}


MASKLENS_COPRIMES = (7, 11, 13, 17, 19)


def digest_parts():
    """Yield (part, list of (algorithm, measurements, ensemble, K)) for the
    digest panel: the pinned panel above, the mask/lens code in Fourier mode
    (K = 12, the first 16 spectra through explicit mask/lens acquisition),
    both criterion-4-shaped codes (K cycling 107..170), and balls-and-bins
    codes at n = 1e6, K = 1000 and at n = 1e10, K = 4000."""
    yield "reference", [(alg, meas, ens, K) for _, alg, _, meas, ens, K in panel_inputs()]
    ff = build_crt(MASKLENS_COPRIMES)
    cases = []
    for trial in range(300):
        s_sig, _, s_mod = _seeds(300, trial)
        spectrum = generate_signal(ff.n, 12, s_sig)
        if trial < 16:
            meas = ff_sparse_acquire(np.fft.ifft(spectrum.dense()), ff, s_mod)
        else:
            meas = ff_sparse_acquire_implicit(spectrum, ff, s_mod)
        cases += [(alg, meas, ff, 12) for alg in DECODERS]
    yield "masklens", cases
    crt = build_crt(CRITERION_4_COPRIMES)
    crt_cases, balls_cases = [], []
    for trial in range(100):
        K = 107 + 7 * (trial % 10)
        s_sig, s_ens, s_mod = _seeds(400, trial)
        signal = generate_signal(crt.n, K, s_sig)
        params = ModulationParams.draw(crt.n, s_mod)
        balls = build_balls_and_bins(crt.n, crt.M, crt.d, s_ens)
        crt_cases += [(alg, encode(signal, crt, params), crt, K) for alg in DECODERS]
        balls_cases += [(alg, encode(signal, balls, params), balls, K) for alg in DECODERS]
    yield "crt-small crt", crt_cases
    yield "crt-small balls", balls_cases
    for label, n, K, c, signals in (("1e6", 10**6, 1000, 3.32, 20), ("1e10", 10**10, 4000, 3.5, 4)):
        cases = []
        for trial in range(signals):
            s_sig, s_ens, s_mod = _seeds(K, 500 + trial)
            signal = generate_signal(n, K, s_sig)
            ens = build_balls_and_bins(n, int(c * K + 0.999999), 7, s_ens)
            meas = encode(signal, ens, ModulationParams.draw(n, s_mod))
            cases += [(alg, meas, ens, K) for alg in DECODERS]
        yield f"n={label} K={K}", cases


def _fingerprint(res) -> bytes:
    stats = [getattr(res.stats, f.name) for f in dataclasses.fields(res.stats)]
    values = [(ell, v.real.hex(), v.imag.hex()) for ell, v in res.recovered]
    return repr((res.status.value, values, res.fraction_recovered.hex(), stats)).encode()


def print_digests() -> None:
    total = 0
    for part, cases in digest_parts():
        h = hashlib.sha256()
        statuses = collections.Counter()
        for alg, meas, ens, K in cases:
            res = DECODERS[alg](meas, ens, K_hint=K)
            h.update(_fingerprint(res))
            statuses[res.status.value] += 1
        total += len(cases)
        print(f"{part:16s} decodes={len(cases):4d} {dict(sorted(statuses.items()))} sha256={h.hexdigest()[:16]}")
    print(f"total decodes={total}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        print_digests()
        sys.exit(0)
    if sys.argv[1:] != ["--write"]:
        pytest.exit("usage: test_reference_panel.py --write | --digest")
    cases = panel()
    GOLDEN.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(cases[k])}" for k in sorted(cases)) + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
