"""Density-evolution calculator and code-design tool.

Everything here is K-free: feasibility and error floors are solved in terms of
the bins-per-ball ratio c = M/K (equivalently the mean bin load
lambda = d/c), so the designer never needs a concrete sparsity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.optimize import brentq

from .core import ParameterError


# ---------------------------------------------------------------------------
# Degree distributions and the recursion
# ---------------------------------------------------------------------------

def edge_degree_pmf(i: int, lam: float) -> float:
    """Probability that a random edge sees right-node degree i (Poisson load)."""
    if i < 1:
        raise ParameterError("edge degrees start at 1")
    return lam ** (i - 1) * math.exp(-lam) / math.factorial(i - 1)


def edge_degree_poly(t: float, lam: float) -> float:
    """Generating polynomial of the right edge-degree distribution: e^{-lam(1-t)}."""
    return math.exp(-lam * (1.0 - t))


def de_step(p: float, lam: float, d: int) -> float:
    """One step of the uncolored-fraction recursion:
    p_{j+1} = (1 + e^{-lam} - e^{-lam p_j})^(d-1).

    The exponentials are differenced before the 1 is added, which keeps the
    all-uncolored fixed point exact in floating point."""
    return (1.0 + (math.exp(-lam) - math.exp(-lam * p))) ** (d - 1)


def de_trajectory(p0: float, lam: float, d: int, steps: int) -> list[float]:
    """p0 followed by ``steps`` applications of de_step."""
    out = [p0]
    p = p0
    for _ in range(steps):
        p = de_step(p, lam, d)
        out.append(p)
    return out


def error_floor(lam: float, d: int, tol: float = 1e-15, max_iter: int = 100_000) -> float:
    """Smallest fixed point of the recursion in (0, 1].

    Iterating upward from 0 is monotone (the map is increasing with
    f(0) > 0), so it converges to the smallest fixed point from below; outside
    the feasible parameter range this simply reports the stagnation point.
    """
    p = 0.0
    for _ in range(max_iter):
        nxt = de_step(p, lam, d)
        if abs(nxt - p) <= tol:
            return nxt
        p = nxt
    return p


# ---------------------------------------------------------------------------
# Feasibility ranges
# ---------------------------------------------------------------------------

def instability_range(d: int) -> tuple[float, float] | None:
    """Lambda range on which the all-uncolored fixed point is unstable:
    the two roots of (d-1) * lam * e^{-lam} = 1. None if d is too small
    (the map's maximum at lam=1 never reaches 1)."""
    if d < 3:
        raise ParameterError("left degree must be at least 3")
    if (d - 1) / math.e <= 1.0:
        return None

    def g(lam):
        return (d - 1) * lam * math.exp(-lam) - 1.0

    lam_lo = brentq(g, 1e-12, 1.0, xtol=1e-12)
    # the upper root is below lam where (d-1)*lam*e^-lam has decayed; bracket generously
    hi = 1.0
    while g(hi) > 0:
        hi *= 2.0
    lam_hi = brentq(g, 1.0, hi, xtol=1e-12)
    return lam_lo, lam_hi


def instability_c_range(d: int) -> tuple[float, float] | None:
    """The instability range expressed as c = d/lambda."""
    rng = instability_range(d)
    if rng is None:
        return None
    lam_lo, lam_hi = rng
    return d / lam_hi, d / lam_lo


def singleton_ball_prob(lam: float, d: int) -> float:
    """q_s: probability that a ball touches at least one singleton bin."""
    return -math.expm1(d * _log1mexp(lam))


def _log1mexp(lam: float) -> float:
    """log(1 - e^{-lam}) without cancellation at either end (Maechler's split)."""
    if lam < math.log(2.0):
        return math.log(-math.expm1(-lam))
    return math.log1p(-math.exp(-lam))


#: q conventions for the seed-graph edge count, see ``seed_edge_ratio``
POPULATION_BAYES = "population-bayes"
OTHER_BINS = "other-bins"


def _singleton_given_doubleton(lam: float, d: int, conditioning: str) -> float:
    """q: probability that a ball occupying a doubleton slot also touches a
    singleton bin.

    ``population-bayes`` computes P(singleton | in some doubleton) over the
    ball population via Bayes on the d bins; ``other-bins`` conditions on the
    doubleton occupying one bin and asks the ball's remaining d-1 bins. The
    two differ measurably (the Bayes variant overestimates, since "in some
    doubleton" is a weaker condition than pinning one bin), and simulation
    matches ``other-bins``; the published feasibility windows derive from the
    Bayes variant, so both are kept.

    With rho1 = e^{-lam} (a bin holds no other ball) and rho2 = lam e^{-lam}
    (exactly one other), the Bayes q is P(S and D) / P(D), where
    P(S and D) = 1 - (1-rho1)^d - (1-rho2)^d + (1-rho1-rho2)^d. That
    inclusion-exclusion cancels catastrophically at both extreme loads, so it
    is evaluated as P(S) P(D) - ((1-rho1)(1-rho2))^d (1 - (1 - t)^d) with
    t = rho1 rho2 / ((1-rho1)(1-rho2)), every factor by log1p/expm1.
    """
    log_no_single = _log1mexp(lam)  # log(1 - rho1)
    if conditioning == OTHER_BINS:
        return -math.expm1((d - 1) * log_no_single)
    if conditioning != POPULATION_BAYES:
        raise ParameterError(f"unknown conditioning {conditioning!r}")
    rho1 = math.exp(-lam)
    rho2 = lam * rho1
    log_no_double = math.log1p(-rho2)  # log(1 - rho2)
    has_single = -math.expm1(d * log_no_single)
    has_double = -math.expm1(d * log_no_double)
    log_neither_pair = log_no_single + log_no_double
    t = rho1 * rho2 / math.exp(log_neither_pair)
    has_both = has_single * has_double - math.exp(d * log_neither_pair) * -math.expm1(
        d * math.log1p(-t)
    )
    return has_both / has_double


def seed_edge_ratio(c: float, d: int, conditioning: str = POPULATION_BAYES) -> float:
    """2 M_s / K_s for the seed graph of singleton balls linked by doubletons.

    M_s = M * (lam^2 e^-lam / 2) * q^2 counts doubletons with both balls in
    singletons, K_s = K q_s counts the nodes; a giant component exists when
    this ratio exceeds 1. It is 0.0 where e^{-lam} underflows (lam > ~745).
    """
    lam = d / c
    qs = singleton_ball_prob(lam, d)
    if qs == 0.0:
        return 0.0
    q = _singleton_given_doubleton(lam, d, conditioning)
    return c * lam * lam * math.exp(-lam) * q * q / qs


def giant_component_range(d: int, conditioning: str = POPULATION_BAYES) -> tuple[float, float]:
    """c interval on which the seed graph grows a linear-size component."""
    if not 3 <= d <= 100:
        raise ParameterError(f"left degree must be in 3..100 (c_max ~ d^2 <= 1e4), got {d}")

    def g(c):
        return seed_edge_ratio(c, d, conditioning) - 1.0

    # the ratio rises from ~0 (tiny c: hardly any singletons), peaks near c = d,
    # then falls (huge c: hardly any doubletons); bracket both crossings at the
    # best point of a log-spaced scan that stops where lam = d/c exceeds 30
    lo, hi = max(1.05, d / 30), 1e4
    peak = max((lo * (hi / lo) ** (i / 96) for i in range(97)), key=g)
    if g(peak) <= 0:
        raise ParameterError(f"no giant-component range for d={d}")
    c_min = brentq(g, lo, peak, xtol=1e-10)
    c_max = brentq(g, peak, hi, xtol=1e-10)
    return c_min, c_max


def giant_fraction(c: float, d: int, conditioning: str = POPULATION_BAYES) -> float:
    """zeta: asymptotic fraction of singleton balls inside the giant seed
    component, the root of zeta + exp(-zeta * 2 M_s/K_s) = 1. Zero outside
    the feasible range.

    For agreement with simulation use ``conditioning="other-bins"``; the
    default matches the published windows (see ``seed_edge_ratio``).
    """
    ratio = seed_edge_ratio(c, d, conditioning)
    if ratio <= 1.0:
        return 0.0

    def g(z):
        return z + math.exp(-z * ratio) - 1.0

    return brentq(g, 1e-12, 1.0 - 1e-15, xtol=1e-13)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class DensityEvolutionReport:
    d: int
    c: float
    lam: float
    error_floor: float
    fixed_points: tuple[float, float]
    giant_range_c: tuple[float, float]
    instability_range_lambda: tuple[float, float] | None
    trajectory: list[float] = field(default_factory=list)


@dataclass
class DesignRow:
    d: int
    c: float  # binding lower bound on M/K
    c_min_giant: float
    c_max_giant: float
    lam_min: float
    lam_max: float
    p_star: float
    m_per_k: float  # measurements per nonzero component, m = 4cK


def report(d: int, c: float, trajectory_start: float | None = None, steps: int = 60) -> DensityEvolutionReport:
    lam = d / c
    p_star = error_floor(lam, d)
    traj = []
    if trajectory_start is not None:
        traj = de_trajectory(trajectory_start, lam, d, steps)
    return DensityEvolutionReport(
        d=d,
        c=c,
        lam=lam,
        error_floor=p_star,
        fixed_points=(1.0, p_star),
        giant_range_c=giant_component_range(d),
        instability_range_lambda=instability_range(d),
        trajectory=traj,
    )


def design_table(d_list) -> list[DesignRow]:
    """Operating points: for each left degree, the binding lower bound on c
    (giant-component seeding vs fixed-point instability) and the resulting
    error floor and measurement cost."""
    rows = []
    for d in d_list:
        if d < 4:
            raise ParameterError("design table needs d >= 4")
        gmin, gmax = giant_component_range(d)
        lam_lo, lam_hi = instability_range(d)
        c = max(gmin, d / lam_hi)
        p_star = error_floor(d / c, d)
        rows.append(
            DesignRow(
                d=d,
                c=c,
                c_min_giant=gmin,
                c_max_giant=gmax,
                lam_min=lam_lo,
                lam_max=lam_hi,
                p_star=p_star,
                m_per_k=4.0 * c,
            )
        )
    return rows
