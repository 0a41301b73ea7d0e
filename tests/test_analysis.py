import math

import numpy as np
import pytest

from phasecode.analysis import (
    de_step,
    de_trajectory,
    design_table,
    edge_degree_pmf,
    edge_degree_poly,
    error_floor,
    giant_component_range,
    giant_fraction,
    instability_c_range,
    instability_range,
    seed_edge_ratio,
    singleton_ball_prob,
)
from phasecode.core import ParameterError, generate_signal
from phasecode.ensemble import build_balls_and_bins, induce_graph
from oracles import exact_giant_range, exact_seed_ratio


def test_edge_degree_poly_normalization():
    for lam in (0.5, 1.0, 2.0, 3.7):
        assert edge_degree_poly(1.0, lam) == 1.0
        assert abs(edge_degree_poly(0.0, lam) - edge_degree_pmf(1, lam)) < 1e-15


def test_edge_degree_pmf_value():
    assert abs(edge_degree_pmf(2, 2.0) - 0.2706705664732254) < 1e-15


def test_edge_degree_pmf_sums_to_one():
    lam = 2.3
    assert abs(sum(edge_degree_pmf(i, lam) for i in range(1, 60)) - 1.0) < 1e-12


def test_de_step_fixed_point_at_one():
    for lam, d in ((0.5, 4), (2.0, 5), (3.0, 8)):
        assert de_step(1.0, lam, d) == 1.0


def test_de_step_at_zero_is_the_approximation():
    for lam, d in ((0.7, 4), (2.0, 5), (2.3, 8)):
        assert abs(de_step(0.0, lam, d) - math.exp(-lam * (d - 1))) < 1e-12


def test_trajectory_escapes_quickly():
    # lambda=2, d=5 from p=0.9: below 1e-3 after 13 steps
    traj = de_trajectory(0.9, 2.0, 5, 20)
    below = next(j for j, p in enumerate(traj) if p < 1e-3)
    assert below == 13
    assert traj[20] < 1e-3


def test_error_floor_near_approximation_at_large_lambda():
    p = error_floor(5.0, 5)
    approx = math.exp(-5.0 * 4)
    assert abs(p / approx - 1.0) < 1e-4


def test_error_floor_within_factor_three_of_approximation():
    for d in range(4, 11):
        gmin, _ = giant_component_range(d)
        lam = d / gmin
        p = error_floor(lam, d)
        approx = math.exp(-lam * (d - 1))
        assert approx / 3 <= p <= approx * 3
        assert 0 < p < 1


def test_error_floor_reports_stagnation_outside_range():
    # lambda below the instability window: the map cannot escape 1
    lam_lo, _ = instability_range(5)
    p = error_floor(lam_lo * 0.5, 5)
    assert p > 0.99


def test_instability_range_reference_values_d5():
    lo, hi = instability_range(5)
    assert abs(lo - 0.3574) < 1e-3
    assert abs(hi - 2.1533) < 1e-3


def test_instability_range_reference_values_d8():
    lo, hi = instability_range(8)
    assert abs(lo - 0.17) < 0.01
    assert abs(hi - 3.06) < 0.01


def test_instability_roots_satisfy_equation():
    for d in (4, 5, 8, 10):
        for lam in instability_range(d):
            assert abs((d - 1) * lam * math.exp(-lam) - 1.0) < 1e-9


def test_instability_infeasible_for_small_degree():
    assert instability_range(3) is None
    with pytest.raises(ParameterError):
        instability_range(2)


def test_instability_c_range_inverts_lambda():
    lo, hi = instability_range(5)
    clo, chi = instability_c_range(5)
    assert abs(clo - 5 / hi) < 1e-12
    assert abs(chi - 5 / lo) < 1e-12


def test_giant_range_roots_sit_on_threshold():
    for d in (5, 8):
        cmin, cmax = giant_component_range(d)
        assert abs(seed_edge_ratio(cmin, d) - 1.0) < 1e-6
        assert abs(seed_edge_ratio(cmax, d) - 1.0) < 1e-6
        assert seed_edge_ratio((cmin + cmax) / 2, d) > 1.0


def test_giant_range_reference_lower_bounds():
    cmin5, _ = giant_component_range(5)
    cmin8, _ = giant_component_range(8)
    assert abs(cmin5 - 3.11) < 0.01
    assert abs(cmin8 - 3.48) < 0.01


def test_giant_range_for_large_degree_matches_oracle():
    # the peak of the seed-edge ratio moves with d (near c = d), so a fixed
    # interior bracket misses the window for large degrees
    for d in (22, 25, 40):
        for got, want in zip(giant_component_range(d), exact_giant_range(d)):
            assert abs(got - want) <= 1e-9 * want
    for d in (3, 101):  # no window; a window reaching past c = 1e4
        with pytest.raises(ParameterError):
            giant_component_range(d)


def test_seed_edge_ratio_matches_oracle_at_extreme_loads():
    # (1.05, 40): lam ~ 38, where 1 - (1 - e^-lam)^d cancels to 0 in floats;
    # (45000, 150): lam ~ 3e-3, where (1 - rho1)^d underflows and the old
    # ratio of d-th powers was 0/0; the rest are ordinary design points
    for c, d in ((1.05, 40), (45000.0, 150), (3.5, 7), (1.5, 4), (20.0, 10), (1e4, 100)):
        want = exact_seed_ratio(c, d)
        assert abs(seed_edge_ratio(c, d) - want) <= 1e-9 * want, (c, d)
    assert giant_fraction(1.05, 40) == 0.0
    assert giant_fraction(45000.0, 150) == 0.0  # ratio ~ 0.498, below the threshold
    assert seed_edge_ratio(0.1, 100) == 0.0  # e^-lam underflows at lam = 1000


def test_giant_fraction_threshold_behavior():
    d = 5
    cmin, cmax = giant_component_range(d)
    assert giant_fraction(cmin - 0.05, d) == 0.0
    assert 0.0 < giant_fraction(cmin + 0.01, d) < 0.1
    # a deep-inside point has a large seed component of singleton balls
    mid = 6.0
    z = giant_fraction(mid, d)
    assert 0.5 < z < 1.0
    # zeta solves its defining equation
    ratio = seed_edge_ratio(mid, d)
    assert abs(z + math.exp(-z * ratio) - 1.0) < 1e-10


def _seed_graph_stats(d, c, K, n, seed):
    """Simulate the phase-2 seed graph: singleton balls joined by doubletons.

    Returns (singleton ball count, edge count, giant fraction of the seed
    graph's nodes)."""
    M = math.ceil(c * K)
    support = [ell for ell, _ in generate_signal(n, K, seed).support]
    ens = build_balls_and_bins(n, M, d, seed + 100)
    graph = induce_graph(ens, support)
    singleton_balls = {b[0] for b in graph.bins if len(b) == 1}
    parent = {ell: ell for ell in singleton_balls}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = 0
    for members in graph.bins:
        if len(members) == 2:
            a, b = members
            if a in parent and b in parent:
                edges += 1
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    sizes = {}
    for ell in singleton_balls:
        r = find(ell)
        sizes[r] = sizes.get(r, 0) + 1
    return len(singleton_balls), edges, max(sizes.values()) / len(singleton_balls)


def test_giant_fraction_against_monte_carlo():
    # The seed graph is not Erdos-Renyi: its degrees are under-dispersed
    # (each node has at most d doubleton slots and singleton bins consume
    # slots), so the closed-form zeta upper-bounds the simulated giant and
    # the gap narrows as c moves deep into the window. What must hold: the
    # ordering zeta_bayes > zeta_other > simulated > 0 inside the window,
    # and ~no giant below the other-bins threshold.
    from phasecode.analysis import OTHER_BINS

    d, K, n = 5, 10_000, 10**8
    for c in (4.0, 4.5):
        frac = np.mean([_seed_graph_stats(d, c, K, n, s)[2] for s in (1, 2, 3)])
        z_other = giant_fraction(c, d, conditioning=OTHER_BINS)
        z_bayes = giant_fraction(c, d)
        assert z_bayes > z_other > frac > 0.01
    # below the other-bins threshold (3.46 for d=5) only dust remains
    frac_sub = np.mean([_seed_graph_stats(d, 3.3, K, n, s)[2] for s in (1, 2)])
    assert frac_sub < 0.01
    assert giant_fraction(3.3, d, conditioning=OTHER_BINS) == 0.0


def test_seed_edge_count_matches_other_bins_conditioning():
    # the decisive experiment behind the two q conventions: count the
    # doubleton edges directly and compare both predictions
    from phasecode.analysis import OTHER_BINS, seed_edge_ratio

    d, c, K, n = 5, 3.5, 10_000, 10**8
    nodes, edges, _ = _seed_graph_stats(d, c, K, n, seed=1)
    ratio_emp = 2 * edges / nodes
    ratio_other = seed_edge_ratio(c, d, conditioning=OTHER_BINS)
    ratio_bayes = seed_edge_ratio(c, d)
    assert abs(ratio_emp - ratio_other) < 0.03
    assert ratio_bayes - ratio_emp > 0.1  # clearly off, kept only for the
    # published feasibility windows


def test_monotone_contraction_inside_feasible_ranges():
    # f(p) < p on (p* + eps, 1 - eps) for operating points inside both ranges
    for d, c in ((5, 4.0), (7, 3.5)):
        lam = d / c
        p_star = error_floor(lam, d)
        grid = np.linspace(p_star + 1e-6, 1 - 1e-6, 10_000)
        vals = (1.0 + math.exp(-lam) - np.exp(-lam * grid)) ** (d - 1)
        assert np.all(vals < grid)


def test_report_bundles_a_design_point():
    from phasecode.analysis import report

    rep = report(7, 3.32, trajectory_start=0.9, steps=30)
    assert rep.lam == 7 / 3.32
    assert rep.fixed_points[0] == 1.0
    assert rep.fixed_points[1] == rep.error_floor
    assert rep.trajectory[0] == 0.9
    assert rep.trajectory[-1] < 1e-5  # converged towards the floor
    lo, hi = rep.instability_range_lambda
    assert lo < rep.lam < hi
    gmin, gmax = rep.giant_range_c
    assert gmin < 3.5 < gmax


def test_design_table_structure():
    rows = design_table(range(4, 11))
    assert [r.d for r in rows] == list(range(4, 11))
    for row in rows:
        assert row.m_per_k == 4.0 * row.c  # m = 4M exactly
        assert row.c == max(row.c_min_giant, row.d / row.lam_max)
    # error floor strictly decreases with the left degree
    floors = [r.p_star for r in rows]
    assert all(a > b for a, b in zip(floors, floors[1:]))


def test_design_table_rejects_tiny_degree():
    with pytest.raises(ParameterError):
        design_table([3])


def test_singleton_prob_matches_simulation():
    d, c, K, n = 5, 3.5, 10_000, 10**8
    M = math.ceil(c * K)
    support = [ell for ell, _ in generate_signal(n, K, 9).support]
    ens = build_balls_and_bins(n, M, d, 10)
    graph = induce_graph(ens, support)
    singles = {b[0] for b in graph.bins if len(b) == 1}
    assert abs(len(singles) / K - singleton_ball_prob(d / c, d)) < 0.02
