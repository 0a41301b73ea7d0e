"""The benchmark's trace hooks still fit the package.

``perfbench/spans.py`` wraps the package's layer boundaries by name and
restores them afterwards. This test loads it by path, installs it around one
decode per growth engine, and checks that the wrapped layers counted the
decodes and that uninstalling leaves every name as it was.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from phasecode import cli, decoder, ensemble, fourier
from phasecode.core import generate_signal
from phasecode.ensemble import build_balls_and_bins
from phasecode.measurement import ModulationParams, encode

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# every attribute install() replaces, as (owner, name)
PATCHED = [(decoder, name) for name in (
    "decode_unicolor", "decode_multicolor", "_resolvable_full", "process_mergeable",
    "process_singleton", "modulation_coeffs")]
PATCHED += [(decoder.ColorForest, "find"), (decoder.ColorForest, "union")]
PATCHED += [(ensemble.BallsAndBinsEnsemble, "bins_of"), (ensemble.CrtEnsemble, "bins_of")]
PATCHED += [(fourier, "np"), (cli, "_trial_worker")]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict[str, dict]:
    """A copy of every phasecode module's globals and of each patched class's
    attributes."""
    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.partition(".")[0] == "phasecode"}
    for owner, _ in PATCHED:
        if isinstance(owner, type):
            spaces[owner.__qualname__] = dict(vars(owner))
    return spaces


def _case(K: int, c: float, seed: int):
    n = 10**6
    ens = build_balls_and_bins(n, int(c * K), 7, seed=seed)
    meas = encode(generate_signal(n, K, seed=seed + 1), ens, ModulationParams.draw(n, seed + 2))
    return meas, ens, K


def _outcome(res):
    return res.status, res.recovered, res.stats


def test_the_trace_installs_counts_and_uninstalls():
    spans = _load_spans()
    scalar = _case(100, 3.5, 1)
    rounds = _case(400, 3.5, 2)
    assert scalar[1].M < decoder.ROUND_ENGINE_MIN_BINS <= rounds[1].M
    plain = [_outcome(decoder.decode_unicolor(*scalar[:2], K_hint=scalar[2])),
             _outcome(decoder.decode_multicolor(*rounds[:2], K_hint=rounds[2]))]
    before = _namespaces()
    originals = [getattr(owner, name) for owner, name in PATCHED]

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert all(getattr(owner, name) is not orig
                   for (owner, name), orig in zip(PATCHED, originals))
        traced = [_outcome(decoder.get_decoder("unicolor")(*scalar[:2], K_hint=scalar[2])),
                  _outcome(decoder.get_decoder("multicolor")(*rounds[:2], K_hint=rounds[2]))]
    finally:
        uninstall()

    assert traced == plain
    metrics = spans.layer_metrics(tracer)
    assert metrics["decoder.singleton.calls.unicolor"] > 0
    assert metrics["decoder.resolvable.calls.unicolor"] > 0
    assert metrics["decoder.sweeps.multicolor"] == plain[1][2].sweeps
    for (owner, name), orig in zip(PATCHED, originals):
        assert getattr(owner, name) is orig, name
    after = _namespaces()
    for space, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[space].get(k) is not v]
        assert not changed, (space, changed)
