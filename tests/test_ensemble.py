import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from phasecode.core import ParameterError, generate_signal, mix64
from phasecode.ensemble import ExplicitEnsemble, build_balls_and_bins, build_crt
from oracles import dense_matrix, induce_graph

# reference two-stage layout: f1=2, f2=3, n=6
CRT_EXAMPLE_MATRIX = np.array(
    [
        [1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ],
    dtype=np.int8,
)


def test_saturated_balls_and_bins():
    ens = build_balls_and_bins(10, 3, 3, seed=1)
    for ell in range(1, 11):
        assert sorted(ens.bins_of(ell)) == [1, 2, 3]


def test_bins_of_is_deterministic_and_distinct():
    ens = build_balls_and_bins(10**6, 777, 8, seed=42)
    for ell in (1, 17, 10**6):
        bins = ens.bins_of(ell)
        assert bins == ens.bins_of(ell)
        assert len(set(bins)) == 8
        assert all(1 <= b <= 777 for b in bins)


def test_huge_n_queries_stay_cheap():
    # no O(n) table may exist: querying a 1e10-ball ensemble must be instant
    ens = build_balls_and_bins(10**10, 14000, 8, seed=3)
    t0 = time.perf_counter()
    for ell in range(10**9, 10**9 + 2000):
        ens.bins_of(ell)
    assert time.perf_counter() - t0 < 2.0


def test_degree_exceeding_bins_rejected():
    with pytest.raises(ParameterError):
        build_balls_and_bins(10, 3, 4, seed=0)


def test_ball_out_of_range_rejected():
    ens = build_balls_and_bins(10, 5, 2, seed=0)
    with pytest.raises(ParameterError):
        ens.bins_of(0)
    with pytest.raises(ParameterError):
        ens.bins_of(11)


def test_numpy_integer_ball_indices_match_python_ints():
    balls = build_balls_and_bins(10**10, 500, 7, seed=12)
    crt = build_crt([5, 7, 9, 11])
    for ens in (balls, crt):
        for ell in (1, 5, 1234, ens.n):
            want = ens.bins_of(ell)
            assert ens.bins_of(np.int64(ell)) == want
            assert ens.bins_of(np.uint64(ell)) == want
        support = np.array([3, 17, 2025])
        got = induce_graph(ens, support).bins
        assert got == induce_graph(ens, support.tolist()).bins
        for bad in (5.0, np.float64(5.0), 2.5, "5"):
            with pytest.raises(ParameterError):
                ens.bins_of(bad)


def test_right_degrees_approach_poisson():
    # K=1e4 active balls, M=3.48K bins, d=8: degree histogram ~ Poisson(2.299)
    K, d, c = 10_000, 8, 3.48
    M = math.ceil(c * K)
    lam = K * d / M
    ens = build_balls_and_bins(10**8, M, d, seed=11)
    support = [ell for ell, _ in generate_signal(10**8, K, seed=12).support]
    graph = induce_graph(ens, support)
    degrees = np.array([len(b) for b in graph.bins])
    assert degrees.sum() == K * d
    top = 10
    observed = np.array([(degrees == i).sum() for i in range(top)] + [(degrees >= top).sum()])
    pmf = np.array([lam**i * math.exp(-lam) / math.factorial(i) for i in range(top)])
    expected = np.append(pmf, 1 - pmf.sum()) * M
    _, p = chisquare(observed, expected)
    assert p > 0.01


def test_bin_choice_uniform_over_seeds():
    # one fixed ball, many seeds: each bin equally likely
    M, d = 30, 2
    counts = np.zeros(M)
    reps = 6000
    for seed in range(reps):
        ens = build_balls_and_bins(100, M, d, seed=seed)
        for b in ens.bins_of(17):
            counts[b - 1] += 1
    _, p = chisquare(counts)
    assert p > 0.01


def test_crt_matches_reference_matrix():
    ens = build_crt([2, 3])
    assert ens.n == 6
    assert ens.M == 5
    assert np.array_equal(dense_matrix(ens), CRT_EXAMPLE_MATRIX)


def test_crt_reference_bin_count():
    ens = build_crt([47, 49, 50, 53, 57, 59, 61])
    assert ens.M == 376
    assert ens.n == 47 * 49 * 50 * 53 * 57 * 59 * 61


def test_crt_first_ball_hits_stage_heads():
    ens = build_crt([3, 4, 5])
    assert ens.bins_of(1) == [1, 4, 8]  # residue 0 of each stage


def test_crt_stage_residues():
    ens = build_crt([3, 4, 5])
    for ell in range(1, ens.n + 1):
        bins = ens.bins_of(ell)
        assert bins[0] - 1 == (ell - 1) % 3
        assert bins[1] - 4 == (ell - 1) % 4
        assert bins[2] - 8 == (ell - 1) % 5


def test_crt_residue_vectors_unique():
    ens = build_crt([3, 4, 5])
    seen = set()
    for ell in range(1, ens.n + 1):
        key = tuple(ens.bins_of(ell))
        assert key not in seen
        seen.add(key)


def test_crt_round_trip_reconstruction():
    # rebuild ell from its residues with modular inverses
    cop = [5, 7, 9, 11]
    ens = build_crt(cop)
    n = ens.n
    for ell in (1, 2, 100, 1234, n):
        residues = [b - off - 1 for b, off in zip(ens.bins_of(ell), ens.stage_offsets)]
        acc = 0
        for f, r in zip(cop, residues):
            rest = n // f
            acc += r * rest * pow(rest, -1, f)
        assert acc % n == ell - 1


def test_crt_tall_stages():
    ens = build_crt([2, 3, 5], alpha=2)
    assert ens.stage_heights == (6, 15, 10)
    assert ens.M == 31
    assert ens.n == 30
    # residues still pin the ball uniquely
    seen = {tuple(ens.bins_of(ell)) for ell in range(1, 31)}
    assert len(seen) == 30


def test_crt_rejects_non_coprime():
    with pytest.raises(ParameterError):
        build_crt([4, 6])
    with pytest.raises(ParameterError):
        build_crt([2, 3], alpha=3)


def test_induce_graph_empty_support():
    ens = build_balls_and_bins(50, 20, 3, seed=1)
    graph = induce_graph(ens, [])
    assert all(not b for b in graph.bins)


def test_induce_graph_single_ball():
    ens = build_balls_and_bins(50, 20, 3, seed=1)
    graph = induce_graph(ens, [13])
    occupied = [b for b in graph.bins if b]
    assert len(occupied) == 3
    assert all(b == [13] for b in occupied)


def test_toy_graph_reproduces_membership():
    # bins {x1,x4},{x3},{x2,x3,x4},{x1,x3} over 4 variables
    ens = ExplicitEnsemble(4, ((1, 4), (3,), (2, 3, 4), (1, 3)))
    graph = induce_graph(ens, [1, 2, 3, 4])
    assert graph.bins == [[1, 4], [3], [2, 3, 4], [1, 3]]
    graph = induce_graph(ens, [1, 3])
    assert graph.bins == [[1], [3], [3], [1, 3]]


def test_left_regularity_edge_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = int(rng.integers(1, 40))
        M = int(rng.integers(10, 60))
        d = int(rng.integers(1, min(M, 6) + 1))
        ens = build_balls_and_bins(10_000, M, d, seed=int(rng.integers(1 << 32)))
        support = [ell for ell, _ in generate_signal(10_000, K, seed=int(rng.integers(1 << 32))).support]
        assert induce_graph(ens, support).edge_count == K * d


def test_dense_export_guard():
    ens = build_balls_and_bins(10**6, 100, 3, seed=1)
    with pytest.raises(ParameterError):
        dense_matrix(ens)


def _assert_bins_many_equals_bins_of(ens, ells):
    got = ens.bins_many(ells)
    assert got.dtype == np.int64
    assert got.tolist() == [ens.bins_of(int(ell)) for ell in ells]


def test_bins_many_equals_bins_of_on_2e5_keys():
    rng = np.random.default_rng(11)
    for n, M, d, seed, count in (
        (10**10, 14000, 7, 2**63 + 3, 120_000),
        (1251977471850, 376, 7, 2**64 - 1, 60_000),
        (10**6, 3320, 7, 5, 20_000),
    ):
        ens = build_balls_and_bins(n, M, d, seed)
        ells = np.concatenate(([1, n], rng.integers(1, n + 1, count)))
        _assert_bins_many_equals_bins_of(ens, ells)


def test_bins_many_falls_back_on_rows_with_a_repeated_draw():
    # 7 draws among 10 bins repeat a bin in most rows
    ens = build_balls_and_bins(5000, 10, 7, seed=2**63 + 1)
    ells = np.arange(1, 5001)
    repeated = sum(
        len({1 + mix64(ens.seed, int(ell), a) % ens.M for a in range(ens.d)}) < ens.d for ell in ells
    )
    assert repeated > 4000
    _assert_bins_many_equals_bins_of(ens, ells)


def test_bins_many_crt_and_explicit():
    crt = build_crt((47, 49, 50, 53, 57, 59, 61))
    _assert_bins_many_equals_bins_of(crt, [1, 2, 47, 12345678901, crt.n - 1, crt.n])
    ens = ExplicitEnsemble(4, ((1, 4), (3,), (2, 3, 4), (1, 3)))
    # rows are padded with zeros where a ball sits in fewer bins
    assert ens.bins_many([1, 2, 3, 4]).tolist() == [[1, 4, 0], [3, 0, 0], [2, 3, 4], [1, 3, 0]]
    for e in (crt, ens, build_balls_and_bins(10, 5, 2, seed=0)):
        assert e.bins_many([]).shape[0] == 0
        for bad in ([0], [1, e.n + 1], [2**70]):
            with pytest.raises(ParameterError):
                e.bins_many(bad)
