"""What the round engine's rounds cost, per decoder and shape.

    python tests/round_cost.py

Run it with ``src`` on ``PYTHONPATH`` (or another checkout's ``src``, to
compare two trees). For each decoder at the Monte Carlo shapes (n = 1e6,
K = 1000, d = 7, c = 3.32 for Unicolor and 2.75 for Multicolor) and at
n = 1e10, K = 4000 (c = 3.5, d = 7), on fixed seeds, it decodes every input
``REPEATS`` times and prints

- ``decode``: the median over inputs of each input's fastest decode, ms;
- ``rounds``: the growth rounds per decode, the confirming one included;
- ``hand-over``: the median over inputs of the fastest ``_RoundEngine``
  construction, ms;
- ``fit``: the least-squares line round time = fixed ms + us per dirty bin,
  over every round of every input, each round timed as the fastest of its
  repeats (a decode is a function of its inputs, so a repeat runs the same
  rounds on the same dirty bins);
- ``small``: the median time of the rounds that judge fewer than
  ``SMALL`` bins, ms, a direct reading of a round's fixed cost. The fit's
  intercept is not one where rounds differ in kind: a Multicolor decode's
  first round costs more per bin than its later ones, which pulls the
  intercept down, below 0 at n = 1e10.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

import phasecode.decoder as dec
from phasecode.core import generate_signal
from phasecode.ensemble import build_balls_and_bins
from phasecode.measurement import ModulationParams, encode

REPEATS = 5
SMALL = 300  # dirty bins
# (label, n, K, d, c per decoder, inputs)
SHAPES = [
    ("n=1e6 K=1000", 10**6, 1000, 7, {"unicolor": 3.32, "multicolor": 2.75}, 8),
    ("n=1e10 K=4000", 10**10, 4000, 7, {"unicolor": 3.5, "multicolor": 3.5}, 3),
]


class _Timed(dec._RoundEngine):
    """The round engine, recording its construction time and, per round,
    the dirty bins it judges and its time."""

    log: list = []

    def __init__(self, seeded):
        t0 = time.perf_counter()
        super().__init__(seeded)
        _Timed.log.append(("hand-over", 0, time.perf_counter() - t0))

    def round(self):
        dirty = int(np.count_nonzero(self.dirty))
        t0 = time.perf_counter()
        changed = super().round()
        _Timed.log.append(("round", dirty, time.perf_counter() - t0))
        return changed


def _inputs(n, K, d, c, count, seed):
    M = math.ceil(c * K)
    for i in range(count):
        signal = generate_signal(n, K, seed + i)
        ens = build_balls_and_bins(n, M, d, seed + 100 + i)
        yield encode(signal, ens, ModulationParams.draw(n, seed + 200 + i)), ens


def measure(alg, n, K, d, c, count, seed=7000):
    """(decode ms, rounds per decode, hand-over ms, [(dirty bins, round s)])."""
    decode = dec.get_decoder(alg)
    decode_ms, rounds, hand_over, points = [], [], [], []
    for meas, ens in _inputs(n, K, d, c, count, seed):
        best, logs = math.inf, []
        for _ in range(REPEATS):
            _Timed.log = []
            t0 = time.perf_counter()
            decode(meas, ens, K_hint=K)
            best = min(best, time.perf_counter() - t0)
            logs.append(_Timed.log)
        decode_ms.append(best * 1e3)
        hand_over.append(min(log[0][2] for log in logs) * 1e3)
        steps = [entry for entry in logs[0] if entry[0] == "round"]
        rounds.append(len(steps))
        for k, (_, dirty, _) in enumerate(steps):
            points.append((dirty, min(log[k + 1][2] for log in logs)))
    return statistics.median(decode_ms), statistics.mean(rounds), statistics.median(hand_over), points


def fit(points):
    """(fixed ms, us per dirty bin) of the least-squares line."""
    x = np.array([p[0] for p in points], dtype=float)
    t = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, t, 1)
    return intercept * 1e3, slope * 1e6


def main() -> None:
    dec._RoundEngine = _Timed
    print(f"{'shape':14} {'decoder':10} {'decode ms':>9} {'rounds':>6} {'hand-over ms':>12} {'small ms':>8}   fit")
    for label, n, K, d, cs, count in SHAPES:
        for alg in dec.ALGORITHMS:
            ms, rounds, hand_over, points = measure(alg, n, K, d, cs[alg], count)
            fixed, per_bin = fit(points)
            small = [t for dirty, t in points if dirty < SMALL]
            small = f"{statistics.median(small) * 1e3:8.3f}" if small else f"{'-':>8}"
            print(f"{label:14} {alg:10} {ms:9.2f} {rounds:6.1f} {hand_over:12.3f} {small}   "
                  f"{fixed:.3f} ms + {per_bin:.3f} us/dirty bin")


if __name__ == "__main__":
    main()
