"""Reference panel: fixed decodes whose outputs are pinned in a golden file.

Both decoders run on balls-and-bins codes (general mode), on the criterion-4
CRT code (general mode) and on a CRT code in Fourier mode with implicit
acquisition. Every case must reproduce the golden status and support
exactly, and every recovered value to 1e-12 relative. Work counters (sweeps,
processor calls, resident elements) are deliberately not pinned.

Regenerate the golden file only when a change is meant to alter decodes:

    PYTHONPATH=src python tests/test_reference_panel.py --write
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from phasecode.core import generate_signal, mix64
from phasecode.decoder import decode_multicolor, decode_unicolor
from phasecode.ensemble import build_balls_and_bins, build_crt
from phasecode.fourier import ff_sparse_acquire_implicit, ff_sparse_decode
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        pytest.exit("usage: test_reference_panel.py --write")
    cases = panel()
    GOLDEN.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(cases[k])}" for k in sorted(cases)) + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
