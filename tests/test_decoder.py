import cmath
import math
from dataclasses import replace

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
import phasecode.decoder as dec
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
from phasecode.ensemble import ExplicitEnsemble, build_balls_and_bins, build_crt
from phasecode.fourier import ff_sparse_acquire, ff_sparse_acquire_implicit
from phasecode.measurement import FOURIER, MeasurementSet, ModulationParams, encode, modulation_coeffs


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


def _bits(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("sizes", [(3, 2), (2, 3), (2, 2), (1, 4)])
def test_union_rotates_the_smaller_class_exactly(sizes):
    rng = np.random.default_rng(sum(sizes) * 10 + sizes[0])
    forest = ColorForest()
    classes = []
    for size in sizes:
        start = forest.ball_count + 1
        root = forest.add_root(start, random_value(rng))
        for ell in range(start + 1, start + size):
            forest.add_member(ell, random_value(rng), root)
        classes.append(list(range(start, start + size)))
    root_a, root_b = classes[0][0], classes[1][0]
    before = {ell: forest.value(ell) for ell in range(1, forest.ball_count + 1)}
    psi = float(rng.uniform(-math.pi, math.pi))
    a_survives = sizes[0] >= sizes[1]  # a tie keeps root_a
    new_root, moved = forest.union(root_a, root_b, psi)
    assert new_root == (root_a if a_survives else root_b)
    absorbed = classes[1] if a_survives else classes[0]
    factor = cmath.exp(1j * psi) if a_survives else cmath.exp(-1j * psi)
    assert list(moved) == absorbed
    for ell, old in before.items():
        want = old * factor if ell in absorbed else old
        assert _bits(forest.value(ell)) == _bits(want), ell
        assert forest.find(ell) == new_root
    assert forest.roots() == [new_root]


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
# Lazy weights: the judges compute the weights they test and cache only hits
# ---------------------------------------------------------------------------

def _assert_cache_is_exact(cache, params):
    for ell, g in cache.items():
        assert repr(g) == repr(modulation_coeffs(params, ell)), ell


@pytest.mark.parametrize("mode", [dec.GENERAL, FOURIER])
def test_scalar_judges_agree_bytewise_with_no_cold_or_warm_cache(mode):
    # the singleton judge takes no cache; the resolvable judge's verdict
    # must not depend on one
    rng = np.random.default_rng(21)
    params = ModulationParams(n=4095, L=1001, mode=mode)
    resolved = 0
    for trial in range(400):
        true_case = trial % 3 != 0
        st, forest, knowns, unknowns = make_resolvable_case(
            rng, params, true_case, known_count=1 + trial % 3
        )
        truth = {ell for ell, _ in unknowns}
        member = truth.__contains__
        plain = dec._resolvable_full(st, forest, params, membership=member)
        cold: dict = {}
        warm = {ell: modulation_coeffs(params, ell) for ell, _ in knowns + unknowns}
        assert repr(dec._resolvable_full(st, forest, params, membership=member, coeff_cache=cold)) == repr(plain)
        assert repr(dec._resolvable_full(st, forest, params, membership=member, coeff_cache=warm)) == repr(plain)
        # the members' weights, and a candidate's only once it passes every test
        hits = {plain[1][0]} if plain[0] == "resolved" else set()
        assert cold.keys() <= {ell for ell, _ in knowns} | truth
        assert cold.keys() - {ell for ell, _ in knowns} <= hits | truth
        _assert_cache_is_exact(cold, params)
        _assert_cache_is_exact(warm, params)
        resolved += plain[0] == "resolved"
    assert resolved > 150


def test_engine_cache_holds_exact_weights_of_colored_balls_only(monkeypatch):
    # on real decodes every cached weight equals modulation_coeffs bit for
    # bit, and the candidates the judges reject stay out of the cache
    engines = []

    class RecordingEngine(dec._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ever_colored = set()
            engines.append(self)

        def color_ball(self, ell, value, root):
            self.ever_colored.add(ell)
            super().color_ball(ell, value, root)

    monkeypatch.setattr(dec, "_Engine", RecordingEngine)
    for label, meas, ens, K in _cache_panel():
        if ens.M >= dec.ROUND_ENGINE_MIN_BINS:
            continue
        for alg in ALGORITHMS:
            get_decoder(alg)(meas, ens, meas.params, K_hint=K)
            engine = engines.pop()
            _assert_cache_is_exact(engine.coeff_cache, meas.params)
            assert engine.coeff_cache.keys() <= engine.ever_colored, (label, alg)


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


def _probe_inputs(trial):
    """(signal, ensemble, params, measurements) of one trial at n = 1e6,
    K = 1000, c = 3.32: a code the round engine grows."""
    from phasecode.cli import ExperimentConfig, _trial_inputs

    cfg = ExperimentConfig(n=10**6, K=1000, d=7, c=3.32, seed=2024).resolve()
    _, sig, ens, params = _trial_inputs(cfg, trial)
    return sig, ens, params, encode(sig, ens, params)


@pytest.mark.parametrize("trial", [0, 1])
def test_k_hint_neither_stops_nor_grades_a_decode(trial):
    # a K_hint below K must neither stop the peeling or the merges early nor
    # decide the status
    sig, ens, params, meas = _probe_inputs(trial)
    for alg in ALGORITHMS:
        for K_hint in (999, 500):
            res = get_decoder(alg)(meas, ens, params, K_hint=K_hint)
            assert res.status == RecoveryStatus.FULL_RECOVERY, (alg, K_hint)
            assert [ell for ell, _ in res.recovered] == sorted(sig.value_map()), (alg, K_hint)
            assert res.stats.unexplained_bins == 0
            assert res.fraction_recovered == 1000 / K_hint


def test_a_perturbed_decode_is_never_a_confident_wrong_answer():
    sig, ens, params, meas = _probe_inputs(1)
    y = meas.y
    noise = 1e-8 * np.sqrt(np.mean(y**2)) * np.random.default_rng(1).normal(size=y.shape)
    noisy = MeasurementSet(np.abs(y + noise), params)
    truth = sig.value_map()
    for alg in ALGORITHMS:
        res = get_decoder(alg)(noisy, ens, params, K_hint=500)
        wrong = [ell for ell, _ in res.recovered if ell not in truth]
        assert not (wrong and res.status == RecoveryStatus.FULL_RECOVERY), alg
        assert (res.stats.unexplained_bins == 0) == (res.status == RecoveryStatus.FULL_RECOVERY)


# ---------------------------------------------------------------------------
# Whole decodes: randomized properties
# ---------------------------------------------------------------------------

def _random_instance(seed, n=4096, K=25, d=7, c=3.5):
    sig = generate_signal(n, K, seed)
    ens = build_balls_and_bins(n, math.ceil(c * K), d, seed + 1)
    params = ModulationParams.draw(n, seed + 2)
    return sig, ens, params, encode(sig, ens, params)


def _instances():
    """40 small codes, then one with at least ROUND_ENGINE_MIN_BINS bins, which
    the public decoders hand to the round engine."""
    for seed in range(40):
        yield _random_instance(seed * 1000)
    yield _random_instance(41_000, n=10**6, K=400)


def test_no_false_coloring_and_correct_values():
    for sig, ens, params, meas in _instances():
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
    for K in (50, 400):  # the scalar engine, then the round engine
        sig, ens, params, meas = _random_instance(123, K=K)
        assert (ens.M >= dec.ROUND_ENGINE_MIN_BINS) == (K == 400)
        res = decode_unicolor(meas, ens, params, K_hint=sig.k)
        assert res.stats.sweeps <= sig.k + 2
        # processor invocations are bounded by one call per bin per sweep
        assert res.stats.processor_calls <= res.stats.sweeps * ens.M
        assert res.stats.resident_elements > 0


def test_resident_elements_counts_the_engine_caches():
    sig, ens, params, meas = _random_instance(123, K=50)
    engine = dec._Engine(meas, ens)
    engine.phase_singletons()
    dec._grow(engine)
    state = 5 * ens.M + sum(map(len, engine.discovered)) + 3 * engine.forest.ball_count
    caches = 4 * len(engine.coeff_cache) + (ens.d + 1) * len(engine.bins)
    assert len(engine.bins) >= engine.forest.ball_count > 0 and len(engine.coeff_cache) > 0
    assert engine.resident_elements() == state + caches


def test_decode_rejects_mismatched_ensemble():
    sig, ens, params, meas = _random_instance(5)
    from phasecode.core import ParameterError

    other = build_balls_and_bins(4096, ens.M + 1, 7, seed=1)
    with pytest.raises(ParameterError):
        decode_unicolor(meas, other, params, K_hint=sig.k)


def _malformed_probe_instance():
    ens = build_crt([5, 7, 9, 11])
    sig = generate_signal(ens.n, 4, 31)
    return ens, sig, ff_sparse_acquire_implicit(sig, ens, 77)


def _with_y(meas, edit):
    y = meas.y.copy()
    edit(y)
    return y


MALFORMED_PROBES = {
    "K_hint=-1": lambda ens, sig, meas: decode_unicolor(meas, ens, K_hint=-1),
    "K_hint=1.5": lambda ens, sig, meas: decode_multicolor(meas, ens, K_hint=1.5),
    "K_hint=None": lambda ens, sig, meas: decode_unicolor(meas, ens, K_hint=None),
    "params other than the measurements'": lambda ens, sig, meas: decode_multicolor(
        meas, ens, replace(meas.params, L=meas.params.L % (meas.params.n - 1) + 1), K_hint=4
    ),
    "y with a NaN": lambda ens, sig, meas: MeasurementSet(
        _with_y(meas, lambda y: y.__setitem__((0, 2), np.nan)), meas.params
    ),
    "y with a negative entry": lambda ens, sig, meas: MeasurementSet(
        _with_y(meas, lambda y: y.__setitem__((3, 0), -1e-3)), meas.params
    ),
    "y of shape (M, 3)": lambda ens, sig, meas: MeasurementSet(meas.y[:, :3].copy(), meas.params),
    "acquisition seed 'a'": lambda ens, sig, meas: ff_sparse_acquire(np.fft.ifft(sig.dense()), ens, "a"),
    "acquisition seed 1.5": lambda ens, sig, meas: ff_sparse_acquire(np.fft.ifft(sig.dense()), ens, 1.5),
    "x holding a NaN": lambda ens, sig, meas: ff_sparse_acquire(
        np.where(np.arange(ens.n) == 5, np.nan, np.fft.ifft(sig.dense())), ens, 3
    ),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED_PROBES))
def test_malformed_decode_inputs_raise_parameter_error(probe):
    ens, sig, meas = _malformed_probe_instance()
    assert decode_unicolor(meas, ens, K_hint=4).status == RecoveryStatus.FULL_RECOVERY
    with pytest.raises(ParameterError):
        MALFORMED_PROBES[probe](ens, sig, meas)


def test_decoder_lookup_names_both_decoders_and_rejects_others():
    assert [get_decoder(name) for name in ALGORITHMS] == [decode_unicolor, decode_multicolor]
    for bad in ("uni", "Multicolor", ""):
        with pytest.raises(ParameterError):
            get_decoder(bad)


# ---------------------------------------------------------------------------
# Engine caches
# ---------------------------------------------------------------------------

def _reference_sums(mem, forest, params):
    """A plain member-order re-sum through ``find`` and ``modulation_coeffs``,
    which the sums the sweep hands to ``_resolvable_full`` must equal."""
    a = b = c = dd = 0j
    for ell in mem:
        v = forest.value(ell)
        g1, g2, g3, g4 = modulation_coeffs(params, ell)
        a += g1 * v
        b += g2 * v
        c += g3 * v
        dd += g4 * v
    return a, b, c, dd


class _CountingEnsemble:
    """An ensemble that counts ``bins_of`` queries per ball."""

    def __init__(self, ens):
        self.ens, self.n, self.M = ens, ens.n, ens.M
        self.calls: dict[int, int] = {}

    def bins_of(self, ell):
        self.calls[ell] = self.calls.get(ell, 0) + 1
        return self.ens.bins_of(ell)


def _cache_panel():
    """(label, measurements, ensemble, K) over balls-and-bins (including the
    merge-heavy c = 2.75 load), the criterion-4 CRT code and Fourier mode."""
    for seed in range(4):
        sig = generate_signal(10**6, 200, seed)
        params = ModulationParams.draw(10**6, seed + 100)
        for c in (3.5, 2.75):
            ens = build_balls_and_bins(10**6, math.ceil(c * 200), 7, seed + 200)
            yield f"balls c={c} seed={seed}", encode(sig, ens, params), ens, 200
    crt = build_crt([47, 49, 50, 53, 57, 59, 61])
    for seed, K in ((1, 107), (2, 142), (3, 170)):
        sig = generate_signal(crt.n, K, seed)
        yield f"crt K={K}", encode(sig, crt, ModulationParams.draw(crt.n, seed + 100)), crt, K
    fourier_code = build_crt([7, 11, 13, 17, 19])
    for seed in range(4):
        spectrum = generate_signal(fourier_code.n, 12, seed)
        yield f"fourier seed={seed}", ff_sparse_acquire_implicit(spectrum, fourier_code, seed + 100), fourier_code, 12


def test_engine_caches_equal_a_fresh_resum_and_bins_of(monkeypatch):
    checked = {"calls": 0, "merges": 0}
    original_resolvable = dec._resolvable_full
    original_mergeable = dec.process_mergeable

    def checked_resolvable(bin, forest, params, *args, sums=None, **kwargs):
        assert sums is not None, "the sweep must hand its members' one-color sums over"
        assert sums == _reference_sums(bin.discovered, forest, params)
        checked["calls"] += 1
        return original_resolvable(bin, forest, params, *args, sums=sums, **kwargs)

    def counted_mergeable(*args, **kwargs):
        psi = original_mergeable(*args, **kwargs)
        checked["merges"] += psi is not None
        return psi

    monkeypatch.setattr(dec, "_resolvable_full", checked_resolvable)
    monkeypatch.setattr(dec, "process_mergeable", counted_mergeable)
    engines = []

    class RecordingEngine(dec._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(dec, "_Engine", RecordingEngine)
    for label, meas, ens, K in _cache_panel():
        for alg in ALGORITHMS:
            counting = _CountingEnsemble(ens)
            get_decoder(alg)(meas, counting, meas.params, K_hint=K)
            engine = engines.pop()
            assert max(counting.calls.values()) == 1, (label, alg)  # one query per ball
            assert engine.bins == {ell: tuple(ens.bins_of(ell)) for ell in counting.calls}, (label, alg)
            colored = {ell for root in engine.forest.roots() for ell in engine.forest.members(root)}
            assert colored <= engine.bins.keys(), (label, alg)
    assert checked["calls"] > 1000
    assert checked["merges"] > 100  # multicolor merges, which re-root members


def _lookup_timing_panel():
    """(measurements, ensemble, K): the criterion-4 CRT code at n ~ 1.25e12,
    where a last-bit difference can move a location, and the mask/lens
    benchmark's Fourier-mode code."""
    crt = build_crt([47, 49, 50, 53, 57, 59, 61])
    for trial in range(20):
        K = 107 + 7 * (trial % 10)
        sig = generate_signal(crt.n, K, 700 + trial)
        yield encode(sig, crt, ModulationParams.draw(crt.n, 1700 + trial)), crt, K
    masklens = build_crt([7, 11, 13, 17, 19])
    for trial in range(20):
        spectrum = generate_signal(masklens.n, 12, 800 + trial)
        yield ff_sparse_acquire_implicit(spectrum, masklens, 1800 + trial), masklens, 12


def test_a_decode_does_not_depend_on_when_roots_are_looked_up(monkeypatch):
    # every merge first looks up the root of every colored ball; a forest
    # whose values depended on when find runs would decode differently
    cases = list(_lookup_timing_panel())

    def outcome(res):
        return res.status, [(ell, _bits(v)) for ell, v in res.recovered]

    plain = [outcome(get_decoder(alg)(m, e, m.params, K_hint=K)) for m, e, K in cases for alg in ALGORITHMS]
    original = dec.process_mergeable
    lookups = {"merges": 0}

    def after_finding_every_root(bin, forest, *args, **kwargs):
        for root in forest.roots():
            for ell in forest.members(root):
                forest.find(ell)
        lookups["merges"] += 1
        return original(bin, forest, *args, **kwargs)

    monkeypatch.setattr(dec, "process_mergeable", after_finding_every_root)
    looked_up = [outcome(get_decoder(alg)(m, e, m.params, K_hint=K)) for m, e, K in cases for alg in ALGORITHMS]
    assert len(looked_up) == 80 and lookups["merges"] > 1000
    for k, (got, want) in enumerate(zip(looked_up, plain)):
        assert got == want, k


def test_a_merge_revisits_the_bins_of_the_component_it_absorbed(monkeypatch):
    # union absorbs the second color of a bin on equal sizes; the sweep must
    # re-mark the bins of whichever component union actually absorbed
    events = []
    original_union = ColorForest.union
    original_revisit = dec._Engine.revisit

    def union(self, root_a, root_b, psi):
        tie = self.size(root_a) == self.size(root_b)
        big, moved = original_union(self, root_a, root_b, psi)
        events.append(("union", tuple(moved), tie))
        return big, moved

    def revisit(self, balls):
        events.append(("revisit", tuple(balls)))
        original_revisit(self, balls)
        assert all(self.dirty[b - 1] for ell in balls for b in self.bins_of(ell))

    monkeypatch.setattr(ColorForest, "union", union)
    monkeypatch.setattr(dec._Engine, "revisit", revisit)
    for label, meas, ens, K in _cache_panel():
        if ens.M < dec.ROUND_ENGINE_MIN_BINS:
            decode_multicolor(meas, ens, meas.params, K_hint=K)
    # every merge of a multicolor sweep is followed by the revisit of the
    # balls it moved, and by nothing else
    assert len(events) % 2 == 0
    unions, revisits = events[::2], events[1::2]
    assert all(kind == "union" for kind, *_ in unions)
    for (_, moved, _), (kind, balls) in zip(unions, revisits):
        assert kind == "revisit" and balls == moved
    assert sum(tie for _, _, tie in unions) > 20


def test_an_engine_is_freed_when_its_decode_returns(monkeypatch):
    # a reference cycle through the engine would keep its per-bin lists and
    # caches alive until a full collection, which raises a process's peak
    # memory with every decode
    import gc
    import weakref

    engines = []
    original_init = dec._Engine.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(dec._Engine, "__init__", init)
    gc.disable()
    try:
        for K in (50, 400):  # the scalar engine, then the round engine
            sig, ens, params, meas = _random_instance(123, K=K)
            for alg in ALGORITHMS:
                get_decoder(alg)(meas, ens, params, K_hint=sig.k)
        assert len(engines) == 4
        assert all(ref() is None for ref in engines)
    finally:
        gc.enable()
