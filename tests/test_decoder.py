import cmath
import math

import numpy as np
import pytest

from helpers import (
    bin_measurements,
    make_mergeable_case,
    make_resolvable_case,
    make_singleton_case,
    random_value,
    signal_from_pairs,
)
from phasecode.core import ParameterError, RecoveryStatus, align_global_phase, generate_signal
from phasecode.decoder import (
    ALGORITHMS,
    BinState,
    ColorForest,
    decode_multicolor,
    decode_unicolor,
    get_decoder,
    location_candidates,
    process_mergeable,
    process_resolvable,
    process_singleton,
)
from phasecode.ensemble import ExplicitEnsemble, build_balls_and_bins
from phasecode.measurement import FOURIER, ModulationParams, encode


# ---------------------------------------------------------------------------
# ColorForest
# ---------------------------------------------------------------------------

def test_forest_value_ratio_survives_merges():
    rng = np.random.default_rng(0)
    forest = ColorForest()
    forest.add_root(1, 2 + 1j)
    forest.add_member(2, 1 - 1j, 1)
    ratio = forest.value(1) / forest.value(2)
    # merge into a chain of other components with random rotations
    for k in range(3, 10):
        forest.add_root(k, random_value(rng))
        forest.union(forest.find(1), k, rng.uniform(0, 2 * math.pi))
    assert abs(forest.value(1) / forest.value(2) - ratio) < 1e-12


def test_forest_union_semantics():
    forest = ColorForest()
    forest.add_root(1, 1 + 0j)
    forest.add_root(2, 1 + 0j)
    psi = 0.7
    forest.union(1, 2, psi)  # frame(1) value = e^{i psi} * frame(2) value
    v1, v2 = forest.value(1), forest.value(2)
    assert abs(v2 / v1 - cmath.exp(1j * psi)) < 1e-12 or abs(v1 / v2 - cmath.exp(-1j * psi)) < 1e-12
    assert forest.find(1) == forest.find(2)
    assert forest.size(forest.find(1)) == 2


def test_forest_members_tracking():
    forest = ColorForest()
    for k in range(1, 6):
        forest.add_root(k, 1 + 0j)
    forest.union(1, 2, 0.1)
    forest.union(forest.find(1), 3, 0.2)
    root = forest.find(3)
    assert sorted(forest.members(root)) == [1, 2, 3]
    assert len(forest.roots()) == 3


# ---------------------------------------------------------------------------
# Singleton processor
# ---------------------------------------------------------------------------

def test_singleton_detects_constructed_ball():
    rng = np.random.default_rng(1)
    params = ModulationParams(n=512, L=101)
    for _ in range(300):
        st, balls = make_singleton_case(rng, params, true_case=True)
        got = process_singleton(st, params)
        assert got is not None
        ell, mag = got
        assert ell == balls[0][0]
        assert abs(mag - abs(balls[0][1])) < 1e-9


def test_singleton_rejects_empty_bin():
    params = ModulationParams(n=512, L=101)
    assert process_singleton(BinState(1, (0.0, 0.0, 0.0, 0.0), []), params) is None


def test_singleton_rejects_two_ball_bins():
    rng = np.random.default_rng(2)
    params = ModulationParams(n=512, L=101)
    for _ in range(500):
        st, _ = make_singleton_case(rng, params, true_case=False)
        assert process_singleton(st, params) is None


def test_singleton_fourier_mode_uses_membership():
    # |cos| is four-to-one under omega = 2pi/n; the bin membership constraint
    # must pick out the true index
    rng = np.random.default_rng(3)
    n = 4095  # odd: only the n - ell alias is integral
    params = ModulationParams(n=n, L=1001, mode=FOURIER)
    hits = 0
    for _ in range(200):
        ell = int(rng.integers(1, n + 1))
        v = random_value(rng)
        st = BinState(1, bin_measurements(params, [(ell, v)]), [])
        got = process_singleton(st, params, membership=lambda c, t=ell: c == t)
        if got is not None:
            assert got[0] == ell
            hits += 1
    assert hits >= 195  # the rare n-ell alias sharing membership may reject


# ---------------------------------------------------------------------------
# Mergeable processor
# ---------------------------------------------------------------------------

def test_mergeable_recovers_relative_phase():
    rng = np.random.default_rng(4)
    params = ModulationParams(n=512, L=77)
    for _ in range(300):
        st, forest, expected = make_mergeable_case(rng, params, true_case=True)
        psi = process_mergeable(st, forest, params)
        assert psi is not None
        assert abs(cmath.exp(1j * (psi - expected)) - 1) < 1e-9
        # after the merge all discovered balls share one component
        roots = {forest.find(ell) for ell in st.discovered}
        assert len(roots) == 1


def test_mergeable_rejects_hidden_ball():
    rng = np.random.default_rng(5)
    params = ModulationParams(n=512, L=77)
    for _ in range(500):
        st, forest, _ = make_mergeable_case(rng, params, true_case=False)
        assert process_mergeable(st, forest, params) is None


def test_mergeable_rejects_degenerate_class_sum():
    # two balls engineered so the class's e^{i w ell} sum cancels
    params = ModulationParams(n=512, L=77)
    g = lambda ell: cmath.exp(1j * params.omega * ell)
    v1 = 1.0 + 0.5j
    v2 = -v1 * g(10) / g(20)  # makes v1 g(10) + v2 g(20) = 0
    forest = ColorForest()
    forest.add_root(10, v1)
    forest.add_member(20, v2, 10)
    forest.add_root(30, 0.8 - 0.1j)
    true_balls = [(10, v1), (20, v2), (30, (0.8 - 0.1j) * cmath.exp(0.3j))]
    st = BinState(1, bin_measurements(params, true_balls), [10, 20, 30])
    assert process_mergeable(st, forest, params) is None


def test_mergeable_multi_ball_classes():
    rng = np.random.default_rng(6)
    params = ModulationParams(n=512, L=77)
    for _ in range(200):
        st, forest, expected = make_mergeable_case(rng, params, true_case=True, sizes=(2, 3))
        psi = process_mergeable(st, forest, params)
        assert psi is not None
        assert abs(cmath.exp(1j * (psi - expected)) - 1) < 1e-9


# ---------------------------------------------------------------------------
# Resolvable processor
# ---------------------------------------------------------------------------

def test_resolvable_recovers_single_unknown():
    rng = np.random.default_rng(7)
    params = ModulationParams(n=512, L=333)
    for _ in range(300):
        st, forest, knowns, unknowns = make_resolvable_case(rng, params, true_case=True)
        got = process_resolvable(st, forest, params)
        assert got is not None
        ell, value = got
        true_ell, true_val = unknowns[0]
        assert ell == true_ell
        assert abs(value - true_val) <= 1e-8 * max(1.0, abs(true_val))


def test_resolvable_rejects_two_unknowns():
    rng = np.random.default_rng(8)
    params = ModulationParams(n=512, L=333)
    for _ in range(500):
        st, forest, _, _ = make_resolvable_case(rng, params, true_case=False)
        assert process_resolvable(st, forest, params) is None


def test_resolvable_guards_vanishing_cosine_sum():
    # knowns whose 2 cos(w ell) sums cancel: the k-variable construction
    # divides by that sum, so the processor must decline
    params = ModulationParams(n=512, L=333)
    c1 = 2 * math.cos(params.omega * 100)
    c2 = 2 * math.cos(params.omega * 200)
    v1 = 1.2 - 0.3j
    v2 = -v1 * c1 / c2
    forest = ColorForest()
    forest.add_root(100, v1)
    forest.add_member(200, v2, 100)
    unknown = (400, 0.9 + 1.1j)
    st = BinState(
        1,
        bin_measurements(params, [(100, v1), (200, v2), unknown]),
        [100, 200],
    )
    assert process_resolvable(st, forest, params) is None


def test_resolvable_skips_already_colored_candidates():
    rng = np.random.default_rng(9)
    params = ModulationParams(n=512, L=333)
    st, forest, knowns, unknowns = make_resolvable_case(rng, params, true_case=True)
    # color the true unknown elsewhere first: the hypothesis is contradictory
    forest.add_root(unknowns[0][0], 1 + 1j)
    assert process_resolvable(st, forest, params) is None


# ---------------------------------------------------------------------------
# Location candidates
# ---------------------------------------------------------------------------

def test_location_candidates_general_single():
    params = ModulationParams(n=1000, L=3)
    for ell in (1, 250, 999, 1000):
        cands = location_candidates(math.cos(params.omega * ell), params)
        assert cands == [ell]


def test_location_candidates_fourier_enumerates_aliases():
    n = 1000
    params = ModulationParams(n=n, L=3, mode=FOURIER)
    ell = 123
    cands = location_candidates(abs(math.cos(params.omega * ell)), params)
    assert set(cands) == {123, 377, 623, 877}  # ell, n/2 +- ell, n - ell


# ---------------------------------------------------------------------------
# Whole decodes: toy instances
# ---------------------------------------------------------------------------

def _cascade_toy_instance():
    """4-sparse length-6 signal; components 5 and 6 are zero. Bin membership
    is {1,4,5}, {3,6}, {2..6}, {1,3}; active members {1,4}, {3}, {2,3,4}, {1,3}."""
    ens = ExplicitEnsemble(6, ((1, 4, 5), (3, 6), (2, 3, 4, 5, 6), (1, 3)))
    rng = np.random.default_rng(42)
    sig = signal_from_pairs(6, [(ell, random_value(rng)) for ell in (1, 2, 3, 4)])
    params = ModulationParams.draw(6, 9)
    return sig, ens, params


def test_unicolor_colors_cascade_toy():
    sig, ens, params = _cascade_toy_instance()
    meas = encode(sig, ens, params)
    res = decode_unicolor(meas, ens, params, K_hint=4)
    assert res.status == RecoveryStatus.FULL_RECOVERY
    assert [ell for ell, _ in res.recovered] == [1, 2, 3, 4]
    assert align_global_phase(res.recovered, sig) < 1e-9


def _contrast_toy_instance(seed=0):
    """K=4, M=5, bins {1},{1,2},{3},{3,4},{2,3,4}."""
    ens = ExplicitEnsemble(4, ((1,), (1, 2), (3,), (3, 4), (2, 3, 4)))
    rng = np.random.default_rng(seed)
    sig = signal_from_pairs(4, [(ell, random_value(rng)) for ell in (1, 2, 3, 4)])
    params = ModulationParams.draw(4, 11)
    return sig, ens, params


def test_unicolor_recovers_two_of_four_on_contrast_toy():
    sig, ens, params = _contrast_toy_instance()
    meas = encode(sig, ens, params)
    res = decode_unicolor(meas, ens, params, K_hint=4)
    assert res.status == RecoveryStatus.PARTIAL_RECOVERY
    assert [ell for ell, _ in res.recovered] == [1, 2]
    assert res.fraction_recovered == 0.5


def test_multicolor_recovers_all_on_contrast_toy():
    sig, ens, params = _contrast_toy_instance()
    meas = encode(sig, ens, params)
    res = decode_multicolor(meas, ens, params, K_hint=4)
    assert res.status == RecoveryStatus.FULL_RECOVERY
    assert [ell for ell, _ in res.recovered] == [1, 2, 3, 4]
    assert align_global_phase(res.recovered, sig) < 1e-9


def test_zero_sparsity_decodes_to_full_recovery():
    ens = build_balls_and_bins(100, 20, 3, seed=1)
    params = ModulationParams.draw(100, 2)
    meas = encode(generate_signal(100, 0, seed=3), ens, params)
    for decode in (decode_unicolor, decode_multicolor):
        res = decode(meas, ens, params, K_hint=0)
        assert res.status == RecoveryStatus.FULL_RECOVERY
        assert res.recovered == []
        assert res.fraction_recovered == 1.0


def test_single_ball_signal_decodes_in_phase_one():
    ens = build_balls_and_bins(1000, 30, 3, seed=4)
    params = ModulationParams.draw(1000, 5)
    sig = generate_signal(1000, 1, seed=6)
    meas = encode(sig, ens, params)
    res = decode_multicolor(meas, ens, params, K_hint=1)
    assert res.status == RecoveryStatus.FULL_RECOVERY
    assert res.stats.sweeps <= 2


# ---------------------------------------------------------------------------
# Whole decodes: randomized properties
# ---------------------------------------------------------------------------

def _random_instance(seed, n=4096, K=25, d=7, c=3.5):
    sig = generate_signal(n, K, seed)
    ens = build_balls_and_bins(n, math.ceil(c * K), d, seed + 1)
    params = ModulationParams.draw(n, seed + 2)
    return sig, ens, params, encode(sig, ens, params)


def test_no_false_coloring_and_correct_values():
    for seed in range(40):
        sig, ens, params, meas = _random_instance(seed * 1000)
        truth = sig.value_map()
        for decode in (decode_unicolor, decode_multicolor):
            res = decode(meas, ens, params, K_hint=sig.k)
            assert all(ell in truth for ell, _ in res.recovered)
            if res.recovered:
                assert align_global_phase(res.recovered, sig) <= 1e-8


def test_multicolor_dominates_unicolor():
    # any instance fully decoded by the single-color pass is fully decoded by
    # the merging pass
    dominated = 0
    for seed in range(150):
        sig, ens, params, meas = _random_instance(seed * 77, K=20)
        uni = decode_unicolor(meas, ens, params, K_hint=sig.k)
        multi = decode_multicolor(meas, ens, params, K_hint=sig.k)
        if uni.status == RecoveryStatus.FULL_RECOVERY:
            dominated += 1
            assert multi.status == RecoveryStatus.FULL_RECOVERY
    assert dominated > 50  # the property must actually have been exercised


def test_work_bounds():
    sig, ens, params, meas = _random_instance(123, K=50)
    res = decode_unicolor(meas, ens, params, K_hint=sig.k)
    assert res.stats.sweeps <= sig.k + 2
    # processor invocations are bounded by one call per bin per sweep
    assert res.stats.processor_calls <= res.stats.sweeps * ens.M
    assert res.stats.resident_elements > 0


def test_decode_rejects_mismatched_ensemble():
    sig, ens, params, meas = _random_instance(5)
    from phasecode.core import ParameterError

    other = build_balls_and_bins(4096, ens.M + 1, 7, seed=1)
    with pytest.raises(ParameterError):
        decode_unicolor(meas, other, params, K_hint=sig.k)


def test_decoder_lookup_names_both_decoders_and_rejects_others():
    assert [get_decoder(name) for name in ALGORITHMS] == [decode_unicolor, decode_multicolor]
    for bad in ("uni", "Multicolor", ""):
        with pytest.raises(ParameterError):
            get_decoder(bad)
