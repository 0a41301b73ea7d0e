"""Worker for the decoding-vs-density-evolution concentration experiment."""
from __future__ import annotations

import math

import phasecode.decoder as dec
from phasecode.core import generate_signal, mix64
from phasecode.ensemble import build_balls_and_bins
from phasecode.measurement import ModulationParams, encode


def concentration_trial(args) -> tuple[float, float]:
    """One single-color decode, instrumented between the cluster-seeding
    phase and the growth sweeps.

    Returns (p2, final): the fraction of balls outside the surviving cluster
    right after seeding, and the uncolored fraction once the growth stops."""
    master, trial, n, K, d, c = args
    M = math.ceil(c * K)
    signal = generate_signal(n, K, mix64(master, trial, 0))
    ens = build_balls_and_bins(n, M, d, mix64(master, trial, 1))
    params = ModulationParams.draw(n, mix64(master, trial, 2))
    meas = encode(signal, ens, params)
    engine = dec._Engine(meas, ens)
    engine.phase_singletons()
    engine.phase_doubletons()
    root = engine.largest_root()
    if root is None:
        return 1.0, 1.0
    p2 = 1.0 - len(engine.forest.members(root)) / K
    engine.restrict_to_component(root)
    dec._grow(engine)
    final = 1.0 - engine.forest.ball_count / K
    return p2, final
