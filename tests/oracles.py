"""Independent oracles for the three bin processors and the design tool.

These deliberately avoid the production code paths: locations come from an
exhaustive index search, values from circle intersection, and rotations from
a dense grid plus golden-section refinement. They share nothing with the
decoder's cosine-law / quadratic derivation beyond the measurement model.

The density-evolution oracle at the end solves the design tool's three
defining equations in 40-digit ``decimal`` arithmetic by plain bisection and
fixed-point iteration; it shares no code with ``phasecode.analysis``.
"""
from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from phasecode.measurement import ModulationParams, modulation_coeffs


@lru_cache(maxsize=8)
def _coeff_table(params: ModulationParams) -> np.ndarray:
    """4 x n table of modulation weights (small n only)."""
    n = params.n
    G = np.zeros((4, n), dtype=np.complex128)
    for ell in range(1, n + 1):
        G[:, ell - 1] = modulation_coeffs(params, ell)
    return G


def oracle_singleton(y, params: ModulationParams, tol: float = 1e-6):
    """Exhaustive search over lone-ball hypotheses (ell, magnitude = y1).

    Returns the accepted index or None; acceptance means every one of the
    four resynthesized measurements matches within tol * max(y).
    """
    y1, y2, y3, y4 = y
    scale = max(y)
    if scale <= 0 or y1 <= 0:
        return None
    G = _coeff_table(params)
    synth3 = np.abs(G[2]) * y1
    resid = np.maximum(
        np.maximum(abs(y1 - y2), abs(y1 - y4)),
        np.abs(synth3 - y3),
    )
    best = int(np.argmin(resid))
    if resid[best] <= tol * scale:
        if np.sum(resid <= tol * scale) != 1:
            return None  # ambiguous
        return best + 1
    return None


def oracle_mergeable(y, group_sums_r, group_sums_b, tol: float = 1e-6, grid: int = 8192):
    """Dense rotation grid + local refinement over the merge hypothesis.

    ``group_sums_*`` are the four modulated sums of each color class in its
    local frame. Returns the minimizing rotation if the residual clears tol,
    else None.
    """
    y = np.asarray(y, dtype=float)
    scale = float(np.max(y))
    if scale <= 0:
        return None
    rs = np.asarray(group_sums_r, dtype=np.complex128)
    bs = np.asarray(group_sums_b, dtype=np.complex128)

    def residual(psi: float) -> float:
        e = cmath.exp(1j * psi)
        return max(abs(abs(rs[k] + e * bs[k]) - y[k]) for k in range(4)) / scale

    psis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    synth = np.abs(rs[:, None] + np.exp(1j * psis)[None, :] * bs[:, None])
    coarse = np.max(np.abs(synth - y[:, None]), axis=0) / scale
    best = int(np.argmin(coarse))
    width = 2.0 * math.pi / grid
    ref = minimize_scalar(
        residual,
        bounds=(psis[best] - 2 * width, psis[best] + 2 * width),
        method="bounded",
        options={"xatol": 1e-14},
    )
    if ref.fun <= tol:
        return float(ref.x)
    return None


def oracle_resolvable(y, knowns, params: ModulationParams, tol: float = 1e-6):
    """Exhaustive index search with circle-intersection value recovery.

    ``knowns`` is a list of (ell, value) pairs in the component frame. For
    every candidate index, the y1 and y2 constraints intersect as circles in
    the unknown's value plane; surviving points face the full 4-measurement
    check. Returns (ell, value) when exactly one hypothesis survives.
    """
    y1, y2, y3, y4 = y
    scale = max(y)
    if scale <= 0:
        return None
    G = _coeff_table(params)
    a = sum(G[0, ell - 1] * v for ell, v in knowns)
    b = sum(G[1, ell - 1] * v for ell, v in knowns)
    c = sum(G[2, ell - 1] * v for ell, v in knowns)
    dd = sum(G[3, ell - 1] * v for ell, v in knowns)
    taken = {ell for ell, _ in knowns}

    # circle centers per candidate index: |a + g1 x| = y1 means x lies on a
    # circle around -a * conj(g1) of radius y1 (|g1| = 1), likewise for y2
    p1 = -a * np.conj(G[0])
    p2 = -b * np.conj(G[1])
    delta = p2 - p1
    dist = np.abs(delta)
    ok = dist > 1e-300
    along = np.zeros_like(dist)
    along[ok] = (dist[ok] ** 2 + y1 * y1 - y2 * y2) / (2.0 * dist[ok])
    h2 = y1 * y1 - along**2
    ok &= h2 > -1e-9 * max(y1 * y1, 1.0)
    h = np.sqrt(np.maximum(h2, 0.0))
    u = np.zeros_like(delta)
    u[ok] = delta[ok] / dist[ok]
    base = p1 + along * u
    hits = []
    for x_all in (base + 1j * h * u, base - 1j * h * u):
        resid = np.maximum(
            np.abs(np.abs(a + G[0] * x_all) - y1),
            np.abs(np.abs(b + G[1] * x_all) - y2),
        )
        resid = np.maximum(resid, np.abs(np.abs(c + G[2] * x_all) - y3))
        resid = np.maximum(resid, np.abs(np.abs(dd + G[3] * x_all) - y4))
        resid = np.where(ok, resid, np.inf)
        for idx in np.flatnonzero(resid <= tol * scale):
            ell = int(idx) + 1
            if ell in taken:
                continue
            x = complex(x_all[idx])
            if not any(h_[0] == ell and abs(h_[1] - x) <= 1e-9 * max(1.0, abs(x)) for h_ in hits):
                hits.append((ell, x))
    if len(hits) != 1:
        return None
    return hits[0]


# ---------------------------------------------------------------------------
# Density evolution in 40-digit decimal arithmetic
# ---------------------------------------------------------------------------

DIGITS = 40
# convergence target of every solve: far below the 1e-9 agreement checked
_REL = Decimal(10) ** -(DIGITS - 8)


def _bisect(f, lo: Decimal, hi: Decimal) -> Decimal:
    """Root of f in [lo, hi], where f changes sign, to relative _REL."""
    f_lo = f(lo)
    if f_lo == 0:
        return lo
    if (f_lo > 0) == (f(hi) > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > _REL * hi:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _instability_roots(d: int) -> tuple[Decimal, Decimal]:
    """Both roots of (d-1) lam e^{-lam} = 1; the left side peaks at lam = 1."""
    def g(lam):
        return (d - 1) * lam * (-lam).exp() - 1

    one = Decimal(1)
    hi = Decimal(2)
    while g(hi) > 0:
        hi *= 2
    return _bisect(g, Decimal(0), one), _bisect(g, one, hi)


def _seed_ratio(c: Decimal, d: int) -> Decimal:
    """2 M_s / K_s under the population-Bayes convention, from its definition.

    With load lam = d/c, each of a ball's d bins independently holds no other
    ball (a singleton) with probability r1 = e^{-lam} and exactly one other
    ball (a doubleton) with probability r2 = lam e^{-lam}. q = P(the ball has
    a singleton bin | it has a doubleton bin), by inclusion-exclusion;
    q_s = P(it has a singleton bin). The seed graph has K_s = K q_s nodes and
    M_s = M (lam^2 e^{-lam} / 2) q^2 edges.
    """
    lam = d / c
    r1 = (-lam).exp()
    r2 = lam * r1
    has_doubleton = 1 - (1 - r2) ** d
    has_both = has_doubleton - (1 - r1) ** d + (1 - r1 - r2) ** d
    q = has_both / has_doubleton
    q_s = 1 - (1 - r1) ** d
    return c * lam * lam * r1 * q * q / q_s


def _giant_roots(d: int) -> tuple[Decimal, Decimal]:
    """The two crossings of 2 M_s / K_s = 1, bracketed by a geometric scan of
    c over [1/2, 1e4]."""
    def g(c):
        return _seed_ratio(c, d) - 1

    grid = [Decimal(1) / 2]
    while grid[-1] < 10_000:
        grid.append(grid[-1] * Decimal("1.05"))
    crossings = [
        (a, b) for a, b in zip(grid, grid[1:]) if (g(a) > 0) != (g(b) > 0)
    ]
    if len(crossings) != 2:
        raise ValueError(f"expected two crossings for d={d}, found {len(crossings)}")
    return tuple(_bisect(g, a, b) for a, b in crossings)


def _smallest_fixed_point(lam: Decimal, d: int) -> Decimal:
    """Smallest fixed point of p <- (1 + e^{-lam} - e^{-lam p})^(d-1): the map
    is increasing with a positive value at 0, so iterating from 0 climbs
    monotonically to it."""
    base = 1 + (-lam).exp()
    p = Decimal(0)
    for _ in range(100_000):
        nxt = (base - (-lam * p).exp()) ** (d - 1)
        if nxt - p <= _REL * nxt:
            return nxt
        p = nxt
    raise ValueError(f"no convergence for lam={lam}, d={d}")


class ExactDesign(NamedTuple):
    c: float
    c_min_giant: float
    c_max_giant: float
    lam_min: float
    lam_max: float
    p_star: float
    m_per_k: float


def exact_instability_range(d: int) -> tuple[float, float]:
    """Lambda window on which (d-1) lam e^{-lam} > 1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return tuple(float(x) for x in _instability_roots(d))


def exact_seed_ratio(c: float, d: int) -> float:
    """2 M_s / K_s at the float c, population-Bayes convention."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(_seed_ratio(Decimal(c), d))


def exact_giant_range(d: int) -> tuple[float, float]:
    """c window on which the seed graph has 2 M_s / K_s > 1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return tuple(float(x) for x in _giant_roots(d))


def exact_design(d: int) -> ExactDesign:
    """The design point for left degree d: c is the larger of the two lower
    bounds (giant-component seeding, lam below the upper instability root),
    p* the smallest fixed point at lam = d/c, and m = 4c."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam_min, lam_max = _instability_roots(d)
        c_min, c_max = _giant_roots(d)
        c = max(c_min, d / lam_max)
        p_star = _smallest_fixed_point(d / c, d)
        return ExactDesign(
            float(c), float(c_min), float(c_max), float(lam_min),
            float(lam_max), float(p_star), float(4 * c),
        )
