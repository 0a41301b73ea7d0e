"""Merge-and-color decoding: bin processors plus two decode engines.

The decoder never sees the signal support. It discovers balls through three
guess-and-check processors, each of which hypothesizes a bin composition,
solves the resulting trigonometric puzzle, and validates against the
measurements (most importantly the independent check row y4). Unicolor and
Multicolor are one pipeline, ``_decode``, that differs only in its seeding:
both color the singletons; Unicolor then merges across doubleton bins once
and keeps only the largest cluster (``restrict_to_component``), Multicolor
keeps every cluster. The growth phase that follows (``_grow``) takes no
policy: each round resolves one-color bins and merges two-color bins, and
since Unicolor's growth holds a single component, it never meets a
two-color bin.

Two engines carry the growth phase, chosen by the code's size. The scalar
``_Engine`` always seeds and, below ``ROUND_ENGINE_MIN_BINS`` bins, also
grows. From that size on, ``_RoundEngine`` takes over every component the
seeding kept and grows them. Median decode ms, seeding included, with the
engine forced either way through ``ROUND_ENGINE_MIN_BINS`` and the two
engines timed decode by decode in alternating order (7 repetitions, one
process on a 2-core VM; M = 67 is the Fourier-mode mask/lens code at
K = 12 over 64 signals, M = 376 the criterion-4 CRT code at K = 140 over
40, M = 3320 balls-and-bins at n = 1e6, K = 1000 over 4, and M = 14000
balls-and-bins at n = 1e10, K = 4000 over 2, both with d = 7; ranges over
four runs for M <= 376 and two above):

    M        unicolor scalar / round    multicolor scalar / round
    67          0.66-0.70 / 2.0-2.1        0.50-0.57 / 2.1-2.3
    376         7.7-8.3   / 5.9-6.7        5.8-6.2   / 5.2-5.8
    3320       55-60      / 23-24         36-38      / 22
    14000     268-287     / 97-100          170      / 86-94

A round's numpy calls, like the hand-over's, cost about the same whatever
the code's size: at M = 67 the round engine spends 1.3 to 1.7 ms more per
decode over 3.6 (unicolor) or 4.4 (multicolor) growth rounds, so rounds
lose on the smallest codes and win from a few hundred bins on. The median
of each decode's round / scalar time ratio is 2.9 (unicolor) and 4.0-4.1
(multicolor) at M = 67 and 0.86-0.89 and 0.95 at M = 376, so both decoders
cross over between those sizes. The constant sits above the crossover so that
every code the reference panel and criterion 4 pin (M <= 376) keeps the
scalar engine byte for byte; that, not speed, holds it at 1024. The scalar
engine and the scalar processors are also the reference the round engine
is tested against.

The scalar engine peels in place: it sweeps the bins in order, one Python
call per visit, so a bin sees what earlier bins of the same sweep colored.
Accepted balls live in a ``ColorForest``, where each ball holds its class's
root and its value in the root's frame. A merge rotates the smaller class's
values by the relative phase the two-color bin yields, as the paper's merge
step rotates a whole color class, so a value never depends on when it is
read. Each ball's bins are computed once per decode (``bins``), for every
candidate the membership test asks about, colored or not: an alias is asked
about again from each of its ball's d bins, and a bin that does not resolve
asks about the same candidates at every revisit, so caching only colored
balls doubled the ``ensemble.bins_of`` calls on the mask/lens code and made
its decodes slower. A visit re-sums its bin's members in member order, with
each member's four weights computed once per decode (``coeff_cache``). The
judges compute only the weights they test: the singleton judge the cosine
weight g3 of each location candidate, the resolvable judge g1, g2 and g3 of
each candidate and the check weight only for a candidate that rows 1-3
accept. A candidate enters ``coeff_cache`` only once it has passed every
test, so the cache holds colored balls (and the rare hit a bin rejects as
ambiguous), not every index ever tried. The engine hands every visit the
same ``BinState``, re-pointed at the bin.

The round engine runs the parallel rounds that density evolution models.
Its state is numpy arrays: per ball its index, its value in the frame of its
component's root, its root, its four weights and its bins; per bin its
member table in discovery order. It takes the seeded components from the
scalar engine's forest and computes their balls' weights and bins in one
batch. A round

- takes every dirty bin that is not exhausted and judges it against the
  state at the start of the round, in batches: the exhausted test, the
  one-unknown quadratic and its ``acos`` candidates (four per root in
  Fourier mode), their weights, the resynthesis, and membership through
  ``bins_many``, for one-color bins; the cosine-law merge for two-color bins;
- colors the resolved balls in bin order, each in its bin's component. A
  ball found through two bins keeps the lowest bin's value; a verdict whose
  bin received another ball earlier in the round waits for the next round.
  A bin that lost a verdict to an alias is judged again once the alias is
  colored, since colored candidates are skipped;
- then merges, best-conditioned verdict first, rotating the smaller
  component's values. A merge whose bin received a ball this round, or one
  of whose roots an earlier merge of this round absorbed, waits for the next
  round. Several bins often offer the same pair of components; taking the
  verdict whose cosine law is best conditioned (sin(gamma) times the class
  magnitudes) rather than the lowest bin cut the worst multicolor value
  error at n = 1e6, K = 1000, c = 2.75 from 6.5e-6 to 5.3e-7 over 200 seeds.

Seeding stays scalar although it could be batched too: a prototype that
batched it ran the n = 1e10, K = 4000 unicolor decode in ~75 ms when the
scalar-seeded decode took ~160 ms (it takes about 90 ms now), but Unicolor
grows from a small seed cluster in 8 to 12 rounds, so at K = 1000 the
rounds' fixed cost was ~40% of the decode and criterion 5's
K = 1000 -> 2000 time ratio fell to the floor of its band (median 1.62 over
8 runs, 4 of them failing). With the scalar seeding the ratios sit where the
scalar engine's did.

``_grow`` runs the growth phase on either engine, one ``round`` at a time
(a sweep on the scalar engine), until a round changes nothing. That round
always comes: each round that changes something colors a new index or joins
two components. The round engine skips its two-color detection while it
holds one component; running it on every Unicolor round cost a median
0.5 ms per decode at n = 1e6, K = 1000. The ``sweeps`` statistic counts the
seeding phases and the rounds, the last, confirming one included. A sweep
sees the bins it has already updated, a round does not, so a decode needs
more rounds than sweeps: over four signals at n = 1e10, K = 4000 the
``sweeps`` statistic is 11 to 14 for Unicolor where the scalar engine
reports 7 or 8, and 8 for Multicolor where it reports 4.
Supports equal the scalar engine's up to the ill-conditioned locations of
very large n; values differ in the last bits.

The decode is graded on what it observed, by one rule for both engines
(``_result``). The judges mark a bin exhausted when its members reproduce
its four measurements: the resolvable judge directly, and the singleton
judge, a resolving bin and a two-color merge as they verify it; a ball
joining the bin clears the mark. The round engine takes over the marks the
seeding set on the bins of the balls it keeps. A bin is lit when its
largest measurement exceeds ``DEFAULT_TOL`` times the largest of the set
(explicit mask/lens acquisition leaves about 1e-16 in empty bins).
FullRecovery means that one component holds every colored ball and every
lit bin is exhausted, Failure that nothing was recovered, PartialRecovery
anything else; ``unexplained_bins`` counts the bins that keep a decode from
FullRecovery. ``K_hint`` neither stops nor grades a decode: it only scales
``fraction_recovered``.

A decode is a function of the measurements and the code alone: the
modulation is ``meas.params``, and ``DEFAULT_TOL`` is the one relative
tolerance of every accept test, margin and lit-bin threshold.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DecodeResult,
    DecodeStats,
    ParameterError,
    RecoveryStatus,
)
from .measurement import (
    FOURIER,
    GENERAL,
    MeasurementSet,
    ModulationParams,
    _coeffs_many,
    modulation_coeffs,
)

DEFAULT_TOL = 1e-6
ALGORITHMS = ("unicolor", "multicolor")
# Codes with at least this many bins grow on the round engine, smaller ones
# on the scalar engine (measured crossover in the module docstring).
ROUND_ENGINE_MIN_BINS = 1024

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_SIGNS = np.array([[1.0], [-1.0]])  # the two signs of an arccos, as a column


# ---------------------------------------------------------------------------
# Color bookkeeping
# ---------------------------------------------------------------------------

class ColorForest:
    """Color classes of discovered balls, each value kept in its class's frame.

    A class is named by its root: the ball that founded it, or the root of
    the larger class it was merged into. Every ball stores its root and its
    value in the root's frame, so ``find`` and ``value`` are one lookup each
    and a value never depends on when it is read. A merge rotates the
    smaller class's values by exp(+-i psi) and re-roots them; with union by
    size a ball is rotated at most log2(K) times.
    """

    def __init__(self):
        self._root: dict[int, int] = {}
        self._val: dict[int, complex] = {}
        self._members: dict[int, Sequence[int]] = {}

    # -- queries ------------------------------------------------------------

    @property
    def ball_count(self) -> int:
        return len(self._val)

    def has(self, ell: int) -> bool:
        return ell in self._val

    def find(self, ell: int) -> int:
        return self._root[ell]

    def value(self, ell: int) -> complex:
        """Ball value expressed in its component root's frame."""
        return self._val[ell]

    def size(self, root: int) -> int:
        return len(self._members[root])

    def members(self, root: int) -> Sequence[int]:
        return self._members[root]

    def roots(self) -> list[int]:
        return list(self._members.keys())

    def component_items(self, root: int) -> list[tuple[int, complex]]:
        return [(ell, self.value(ell)) for ell in self._members[root]]

    # -- mutation -----------------------------------------------------------

    def add_root(self, ell: int, value: complex) -> int:
        if ell in self._val:
            raise ParameterError(f"ball {ell} already colored")
        self._root[ell] = ell
        self._val[ell] = value
        self._members[ell] = (ell,)  # a list once the component grows, see _grown
        return ell

    def add_member(self, ell: int, value: complex, root: int) -> None:
        """Color ``ell`` into an existing component; ``value`` is expressed in
        the frame of ``root``."""
        if ell in self._val:
            raise ParameterError(f"ball {ell} already colored")
        if root not in self._members:
            raise ParameterError(f"{root} is not a component root")
        self._root[ell] = root
        self._val[ell] = value
        self._grown(root).append(ell)

    def _grown(self, root: int) -> list[int]:
        """The members of ``root`` as a list. A one-ball component keeps a
        tuple, which the garbage collector stops tracking; a list per
        singleton made large decodes set off full collections."""
        mem = self._members[root]
        if type(mem) is tuple:
            mem = self._members[root] = list(mem)
        return mem

    def union(self, root_a: int, root_b: int, psi: float) -> tuple[int, Sequence[int]]:
        """Merge components so that a-frame value = exp(i*psi) * b-frame value.

        The smaller class (``root_b``'s on a tie) moves into the larger one's
        frame: each of its values is multiplied by exp(i*psi), or by
        exp(-i*psi) when ``root_b``'s class is the larger. Returns (new root,
        balls whose root changed).
        """
        if root_a == root_b:
            raise ParameterError("cannot union a component with itself")
        if len(self._members[root_a]) >= len(self._members[root_b]):
            big, small, rot = root_a, root_b, psi
        else:
            big, small, rot = root_b, root_a, -psi
        e = cmath.exp(1j * rot)
        root, val = self._root, self._val
        moved = self._members.pop(small)
        for ell in moved:
            root[ell] = big
            val[ell] *= e
        self._grown(big).extend(moved)
        return big, moved


@dataclass
class BinState:
    """Decoder-side view of one bin: measurements plus discovered members."""

    bin_id: int  # 1-based, aligned with the ensemble's global bin indexing
    y: tuple[float, float, float, float]
    discovered: Sequence[int] = ()


# ---------------------------------------------------------------------------
# Location candidates
# ---------------------------------------------------------------------------

def location_candidates(cos_abs: float, params: ModulationParams) -> list[int]:
    """Integer indices ell with |cos(omega*ell)| = cos_abs.

    General mode (omega = pi/2n): cos is nonnegative and injective over the
    index range, so there is a single candidate. Fourier mode (omega = 2pi/n):
    |cos| is four-to-one over (0, 2pi], so up to four candidates come back and
    the caller must disambiguate via the check measurements and the bin
    membership constraint.
    """
    return _candidates(cos_abs, params.omega, params.n, params.mode == FOURIER)


def _candidates(cos_abs: float, omega: float, n: int, fourier: bool) -> list[int]:
    """``location_candidates`` for a judge that has read omega already."""
    a = math.acos(0.0 if cos_abs < 0.0 else 1.0 if cos_abs > 1.0 else cos_abs)
    if not fourier:
        ell = round(a / omega)
        return [ell] if 1 <= ell <= n else []
    out: list[int] = []
    for theta in (a, _PI - a, _PI + a, _TWO_PI - a):
        ell = round(theta / omega) or n  # theta ~ 0 and theta ~ 2pi name the same ball
        if ell <= n and ell not in out:  # theta >= 0, so ell >= 1
            out.append(ell)
    return out


def _locations(cos_abs: np.ndarray, params: ModulationParams) -> np.ndarray:
    """``location_candidates`` over an array: the candidates of each entry
    along a new last axis, in the same order, with 0 where a slot holds no
    candidate or repeats an earlier one."""
    a = np.arccos(np.clip(cos_abs, 0.0, 1.0))
    n = params.n
    if params.mode == GENERAL:
        theta = a[..., None]
    else:
        theta = np.stack((a, math.pi - a, math.pi + a, _TWO_PI - a), axis=-1)
    ell = np.rint(theta / params.omega)
    if params.mode == FOURIER:
        ell[ell == 0] = n  # theta ~ 0 and theta ~ 2pi name the same ball
    ell = np.where((ell >= 1) & (ell <= n), ell, 0).astype(np.int64)
    for k in range(1, ell.shape[-1]):
        ell[..., k][(ell[..., k : k + 1] == ell[..., :k]).any(axis=-1)] = 0
    return ell


def _padded(a: np.ndarray, size: int, axis: int) -> np.ndarray:
    """``a`` zero-padded along ``axis`` to at least ``size`` entries, growing
    at least twofold so that repeated growth stays linear."""
    have = a.shape[axis]
    if have >= size:
        return a
    shape = list(a.shape)
    shape[axis] = max(size, 2 * have)
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(slice(0, k) for k in a.shape)] = a
    return out


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct value.
    (``np.unique`` would do, but its first call imports ``numpy.ma``, some
    15 ms that would land in a process's first decode.)"""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return np.sort(order[first])


# ---------------------------------------------------------------------------
# Bin processors
# ---------------------------------------------------------------------------

def _member_sums(
    mem: list[int],
    forest: ColorForest,
    params: ModulationParams,
    coeff_cache: dict | None,
) -> tuple[complex, complex, complex, complex]:
    """The four bin sums g_k(ell) * value(ell) over ``mem``, added in member
    order, each value in the frame of its component's root."""
    a = b = c = dd = 0j
    val = forest._val
    for ell in mem:
        v = val[ell]
        g = coeff_cache.get(ell) if coeff_cache is not None else None
        if g is None:
            g = modulation_coeffs(params, ell)
            if coeff_cache is not None:
                coeff_cache[ell] = g
        g1, g2, g3, g4 = g
        a += g1 * v
        b += g2 * v
        c += g3 * v
        dd += g4 * v
    return a, b, c, dd


def process_singleton(
    bin: BinState,
    params: ModulationParams,
    membership: Callable[[int], bool] | None = None,
) -> Optional[tuple[int, float]]:
    """Guess: the bin holds exactly one ball. Returns (index, magnitude).

    Detection: y1 = y2 = y4 (all unit-modulus rows see the same lone
    magnitude), location from arccos(y3 / 2 y1), acceptance only if the full
    4-measurement resynthesis for a lone ball matches within tolerance. For a
    lone ball that resynthesis reduces to |g3| y1 = y3, so only g3 is
    computed.
    """
    y1, y2, y3, y4 = bin.y
    if y1 <= 0.0:
        return None
    margin = DEFAULT_TOL * y1
    if abs(y1 - y2) > margin or abs(y1 - y4) > margin:
        return None
    omega = params.omega
    hits: list[int] = []
    for ell in _candidates(y3 / (2.0 * y1), omega, params.n, params.mode == FOURIER):
        # g3 alone, computed as modulation_coeffs does
        if abs(abs(2.0 * math.cos(omega * ell)) * y1 - y3) > margin:
            continue
        if membership is not None and not membership(ell):
            continue
        hits.append(ell)
    if len(hits) != 1:
        return None  # nothing consistent, or an unresolvable alias
    return hits[0], y1


def process_mergeable(
    bin: BinState,
    forest: ColorForest,
    params: ModulationParams,
    coeff_cache: dict | None = None,
) -> Optional[float]:
    """Guess: the bin holds exactly its discovered members, which form two
    color classes. On success the classes are merged in the forest and the
    applied rotation is returned.

    The relative rotation comes from the cosine law on the two class sums;
    both arccos signs are candidates and the check row plus the remaining
    measurements pick the (at most one) consistent rotation.
    """
    groups: dict[int, list[int]] = {}
    for ell in bin.discovered:
        groups.setdefault(forest.find(ell), []).append(ell)
    if len(groups) != 2:
        return None
    (root_r, mem_r), (root_b, mem_b) = groups.items()
    y = bin.y
    scale = max(y)
    if scale <= 0.0:
        return None

    rs = _member_sums(mem_r, forest, params, coeff_cache)
    bs = _member_sums(mem_b, forest, params, coeff_cache)
    r1, b1 = rs[0], bs[0]
    mag_r, mag_b = abs(r1), abs(b1)
    margin = DEFAULT_TOL * scale
    if mag_r <= margin or mag_b <= margin:
        return None  # degenerate geometry: a class sums to zero in this bin
    carg = (y[0] * y[0] - mag_r**2 - mag_b**2) / (2.0 * mag_r * mag_b)
    if abs(carg) > 1.0 + DEFAULT_TOL:
        return None  # guess wrong: the bin must hold hidden balls
    gamma = math.acos(min(max(carg, -1.0), 1.0))
    base = cmath.phase(r1) - cmath.phase(b1)
    accepted: list[float] = []
    for sign in (1.0, -1.0):
        psi = sign * gamma + base
        e = cmath.exp(1j * psi)
        if (
            abs(abs(rs[0] + e * bs[0]) - y[0]) <= margin
            and abs(abs(rs[1] + e * bs[1]) - y[1]) <= margin
            and abs(abs(rs[2] + e * bs[2]) - y[2]) <= margin
            and abs(abs(rs[3] + e * bs[3]) - y[3]) <= margin
        ):
            if not any(abs(cmath.exp(1j * (psi - p)) - 1.0) <= 1e-9 for p in accepted):
                accepted.append(psi)
    if len(accepted) != 1:
        return None
    psi = accepted[0]
    forest.union(root_r, root_b, psi)
    return psi


def _one_unknown_quadratic(z, zb_a, c, kk):
    """Coefficients (qa, qb, qc) of the quadratic in u = cos^2(omega*ell)
    whose roots place one unknown ball on top of a bin's known members.

    With a, b and c the members' sums in rows 1-3, ``z`` is the ratio y1/y2
    rotated by either sign of the angle between rows 1 and 2, ``zb_a`` is
    z*b - a and ``kk`` is (y3/|c|)**2. Squaring k5 cos^2 + k6 sin^2 =
    k7 sin cos with sin^2 = 1 - cos^2 gives the quadratic. Built only from
    operators, so that it serves Python numbers (the scalar judge) and numpy
    arrays (the round engine) alike; ``** 2`` stays, since Python's float
    power is libm ``pow``, which can differ from ``x * x`` in the last bit."""
    k1 = 1.0 - z + 2.0 * zb_a / c
    k2 = 1.0 + z
    k3 = 1.0 - z
    k5 = abs(k1) ** 2 - kk * abs(k3) ** 2
    k6 = abs(k2) ** 2 * (1.0 - kk)
    k7 = 2.0 * (k2.conjugate() * (kk * k3 - k1)).imag
    qa = (k5 - k6) ** 2 + k7 * k7
    qb = 2.0 * k6 * (k5 - k6) - k7 * k7
    return qa, qb, k6 * k6


def _resolvable_full(
    bin: BinState,
    forest: ColorForest,
    params: ModulationParams,
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
    sums: tuple[complex, complex, complex, complex] | None = None,
) -> tuple[str, Optional[tuple[int, complex]]]:
    """Resolvable-multiton engine; returns (status, payload) with status in
    {"resolved", "exhausted", "none"}. "exhausted" means the discovered
    members alone already reproduce all four measurements.

    ``sums`` are the members' one-color sums when the caller holds them (the
    engine's sweep, which has checked that they share one color); otherwise
    the members are checked and summed here."""
    mem = bin.discovered
    if not mem:
        return "none", None
    if sums is None:
        root = forest.find(mem[0])
        if any(forest.find(ell) != root for ell in mem):
            return "none", None  # more than one color: not this processor's job
        sums = _member_sums(mem, forest, params, coeff_cache)
    a, b, c, dd = sums
    y = bin.y
    y1, y2, y3, y4 = y
    scale = max(y)
    if scale <= 0.0:
        return "none", None
    margin = DEFAULT_TOL * scale
    if (
        abs(abs(a) - y1) <= margin
        and abs(abs(b) - y2) <= margin
        and abs(abs(c) - y3) <= margin
        and abs(abs(dd) - y4) <= margin
    ):
        return "exhausted", None

    # Guess: exactly one unknown ball on top of the knowns.
    if y1 <= margin or y2 <= margin:
        return "none", None
    if abs(c) <= margin:
        return "none", None  # the k-variable construction divides by c
    carg = (y3 * y3 - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
    if abs(carg) > 1.0 + DEFAULT_TOL:
        return "none", None
    alpha0 = math.acos(min(max(carg, -1.0), 1.0))
    k4 = y3 / abs(c)
    kk = k4 * k4
    omega = params.omega
    fourier = params.mode == FOURIER
    colored = forest._val
    hits: list[tuple[int, complex]] = []
    for sign in (1.0, -1.0):
        z = (y1 / y2) * cmath.exp(1j * sign * alpha0)
        zb_a = z * b - a
        qa, qb, qc = _one_unknown_quadratic(z, zb_a, c, kk)
        if qa <= 0.0:
            continue
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            if disc < -DEFAULT_TOL * max(qb * qb, abs(4.0 * qa * qc), 1e-300):
                continue
            disc = 0.0
        sq = math.sqrt(disc)
        for u in ((-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)):
            if u < -1e-9 or u > 1.0 + 1e-9:
                continue
            cos_abs = math.sqrt(min(max(u, 0.0), 1.0))
            for ell in _candidates(cos_abs, omega, params.n, fourier):
                if ell in colored:
                    continue
                # the weights as modulation_coeffs computes them; the check
                # row's only for a candidate that rows 1-3 accept
                w = omega * ell
                g1 = cmath.exp(1j * w)
                g2 = g1.conjugate()
                denom = g1 - z * g2
                if abs(denom) <= 1e-14:
                    continue
                x = zb_a / denom
                g3 = 2.0 * math.cos(w)
                if (
                    abs(abs(a + g1 * x) - y1) > margin
                    or abs(abs(b + g2 * x) - y2) > margin
                    or abs(abs(c + g3 * x) - y3) > margin
                ):
                    continue
                g4 = cmath.exp(1j * params.check_phase(ell))
                if abs(abs(dd + g4 * x) - y4) > margin:
                    continue
                # membership is the costly filter; apply it last
                if membership is not None and not membership(ell):
                    continue
                if coeff_cache is not None:
                    coeff_cache[ell] = (g1, g2, g3, g4)
                if not any(
                    ell == h[0] and abs(x - h[1]) <= 1e-9 * max(1.0, abs(x))
                    for h in hits
                ):
                    hits.append((ell, x))
    if len(hits) != 1:
        return "none", None
    return "resolved", hits[0]


def process_resolvable(
    bin: BinState,
    forest: ColorForest,
    params: ModulationParams,
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
) -> Optional[tuple[int, complex]]:
    """Guess: the bin holds its discovered members (one color) plus exactly
    one unknown ball. On success the ball is colored into the component and
    (index, value in the component's coordinate) is returned."""
    status, payload = _resolvable_full(bin, forest, params, membership, coeff_cache)
    if status != "resolved":
        return None
    ell, x = payload
    root = forest.find(bin.discovered[0])
    forest.add_member(ell, x, root)
    return ell, x


# ---------------------------------------------------------------------------
# Decode engine
# ---------------------------------------------------------------------------

def _largest(components: dict[int, list], index_of: Callable[[list], list[int]]):
    """The root of the largest component, ties going to the one holding the
    smallest ball index; None when nothing is colored."""
    if not components:
        return None
    size = max(map(len, components.values()))
    tied = [root for root, mem in components.items() if len(mem) == size]
    return min(tied, key=lambda root: min(index_of(components[root])))


def _result(engine, K_hint: int, sweeps: int) -> DecodeResult:
    """The decode's outcome on either engine, graded by one rule. A bin is
    lit when its largest measurement exceeds ``DEFAULT_TOL`` times the
    largest of the set. The reported component leaves a bin unexplained
    when the bin is lit and no judge has marked it exhausted, or when it
    holds a ball of another component. FullRecovery means no bin is left
    unexplained, Failure that nothing was recovered, PartialRecovery
    anything else; ``K_hint`` only scales ``fraction_recovered``."""
    recovered, foreign = engine.reported()
    stats = engine.stats
    stats.sweeps = sweeps
    stats.resident_elements = engine.resident_elements()
    scale = engine.y.max(axis=1, initial=0.0)
    unexplained = (scale > DEFAULT_TOL * scale.max(initial=0.0)) & ~np.frombuffer(engine.exhausted, dtype=bool)
    stats.unexplained_bins = int(np.count_nonzero(unexplained | foreign))
    if stats.unexplained_bins == 0:
        status = RecoveryStatus.FULL_RECOVERY
    elif not recovered:
        status = RecoveryStatus.FAILURE
    else:
        status = RecoveryStatus.PARTIAL_RECOVERY
    return DecodeResult(
        recovered=recovered,
        status=status,
        fraction_recovered=len(recovered) / K_hint if K_hint > 0 else 1.0,
        stats=stats,
    )


class _Engine:
    def __init__(self, meas: MeasurementSet, ensemble):
        params = meas.params
        if params.n != ensemble.n:
            raise ParameterError(
                f"dimension mismatch: params n={params.n}, ensemble n={ensemble.n}"
            )
        if meas.M != ensemble.M:
            raise ParameterError(
                f"bin count mismatch: measurements M={meas.M}, ensemble M={ensemble.M}"
            )
        self.y = meas.y
        self.ensemble = ensemble
        self.params = params
        self.M = meas.M
        # No Python container per bin or ball that the garbage collector has
        # to keep tracking: the measurements as one flat list of floats, each
        # bin's members and each cached ``bins_of`` answer as a tuple (tuples
        # of ints leave the collector's books, lists stay). Lists living as
        # long as the decode made large decodes set off full collections of
        # the whole process's heap.
        self.yflat: list[float] = meas.y.ravel().tolist()
        self.discovered: list[tuple[int, ...]] = [()] * self.M
        self.dirty = bytearray(self.M)
        self.exhausted = bytearray(self.M)
        self.forest = ColorForest()
        self.stats = DecodeStats()
        self.coeff_cache: dict[int, tuple] = {}
        self.bins: dict[int, tuple[int, ...]] = {}
        # one BinState for every visit, which ``bin_state`` points at the bin
        self.visit = BinState(0, (0.0, 0.0, 0.0, 0.0))

    @property
    def ball_count(self) -> int:
        return self.forest.ball_count

    @property
    def components(self) -> dict[int, Sequence[int]]:
        """Root -> members of every color class."""
        return self.forest._members

    # -- helpers ------------------------------------------------------------

    def bins_of(self, ell: int) -> tuple[int, ...]:
        got = self.bins.get(ell)
        if got is None:  # a tuple, for the same reason as the members in __init__
            got = self.bins[ell] = tuple(self.ensemble.bins_of(ell))
        return got

    def color_ball(self, ell: int, value: complex, root: int | None) -> None:
        """Color ``ell`` (into a new component if ``root`` is None) in the forest and its bins."""
        if root is None:
            self.forest.add_root(ell, value)
        else:
            self.forest.add_member(ell, value, root)
        discovered, dirty, exhausted = self.discovered, self.dirty, self.exhausted
        for b in self.bins_of(ell):
            b0 = b - 1
            discovered[b0] += (ell,)
            dirty[b0] = 1
            exhausted[b0] = 0

    def revisit(self, balls: Sequence[int]) -> None:
        """Mark the bins of ``balls`` dirty: a merge rotated their values."""
        dirty = self.dirty
        for ell in balls:
            for b in self.bins_of(ell):
                dirty[b - 1] = 1

    def visited_bin_test(self) -> Callable[[int], bool]:
        """Membership in the bin ``bin_state`` last pointed at: one test per
        phase, not per visit. It is never stored on the engine, which it
        refers to, so an engine is freed as soon as its decode returns."""
        visit, bins, bins_of = self.visit, self.bins, self.bins_of
        return lambda ell: visit.bin_id in (bins.get(ell) or bins_of(ell))

    def bin_state(self, b0: int) -> BinState:
        """The engine's one BinState, pointed at bin ``b0`` (0-based)."""
        visit = self.visit
        visit.bin_id = b0 + 1
        visit.y = tuple(self.yflat[4 * b0 : 4 * b0 + 4])
        visit.discovered = self.discovered[b0]
        return visit

    # -- phases ---------------------------------------------------------------

    def phase_singletons(self) -> None:
        y = self.y
        y1 = y[:, 0]
        margin = DEFAULT_TOL * y1
        candidate = (y1 > 0) & (np.abs(y1 - y[:, 1]) <= margin) & (np.abs(y1 - y[:, 3]) <= margin)
        params, forest, stats = self.params, self.forest, self.stats
        in_visited_bin = self.visited_bin_test()
        for b0 in np.flatnonzero(candidate).tolist():
            stats.processor_calls += 1
            hit = process_singleton(self.bin_state(b0), params, membership=in_visited_bin)
            if hit is None:
                continue
            ell, mag = hit
            if not forest.has(ell):  # else found through another of its bins already
                self.color_ball(ell, complex(mag), None)
            if self.discovered[b0] == (ell,):
                self.exhausted[b0] = 1  # the judge has just verified that the bin holds ell alone

    def phase_doubletons(self) -> None:
        """Unicolor step 2: merge across bins holding two singleton-found balls
        (only singletons are colored when this runs)."""
        forest = self.forest
        for b0 in range(self.M):
            mem = self.discovered[b0]
            if len(mem) != 2:
                continue
            ball_a, ball_b = mem
            if forest.find(ball_a) == forest.find(ball_b):
                continue
            self.stats.processor_calls += 1
            process_mergeable(self.bin_state(b0), forest, self.params, self.coeff_cache)

    def largest_root(self) -> int | None:
        return _largest(self.components, lambda mem: mem)

    def restrict_to_component(self, root: int) -> None:
        """Uncolor every ball outside ``root``'s component and forget its value.
        The survivors are colored again in the component's order, which sets
        their order in each bin. Only singleton bins are marked exhausted
        while seeding, so a mark stands where its ball survives."""
        survivors = self.forest.component_items(root)
        settled = self.exhausted
        self.forest = ColorForest()
        self.discovered = [()] * self.M
        exhausted = self.exhausted = bytearray(self.M)
        first = survivors[0][0]
        for ell, val in survivors:
            self.color_ball(ell, val, None if ell == first else first)
            for b in self.bins[ell]:  # color_ball cleared the seeding's mark
                exhausted[b - 1] = settled[b - 1]

    def round(self) -> bool:
        """One sweep: an ascending pass over the dirty bins that sees what
        earlier bins of the same sweep colored. Returns whether anything
        changed."""
        forest = self.forest
        root_of = forest._root
        # color_ball and the merges update these in place
        discovered, dirty, exhausted = self.discovered, self.dirty, self.exhausted
        in_visited_bin = self.visited_bin_test()
        changed = False
        for b0 in range(self.M):
            if exhausted[b0] or not dirty[b0]:
                continue
            dirty[b0] = 0
            mem = discovered[b0]
            if not mem:
                continue
            roots = {root_of[ell] for ell in mem}
            if len(roots) == 1:
                self.stats.processor_calls += 1
                status, payload = _resolvable_full(
                    self.bin_state(b0),
                    forest,
                    self.params,
                    membership=in_visited_bin,
                    coeff_cache=self.coeff_cache,
                    sums=_member_sums(mem, forest, self.params, self.coeff_cache),
                )
                if status == "exhausted":
                    exhausted[b0] = 1
                elif status == "resolved":
                    ell, x = payload
                    self.color_ball(ell, x, roots.pop())
                    exhausted[b0] = 1  # the members and ell reproduce the bin
                    changed = True
            elif len(roots) == 2:
                self.stats.processor_calls += 1
                ra, rb = roots
                # union pops the absorbed root's members unchanged
                mem_a, mem_b = forest.members(ra), forest.members(rb)
                psi = process_mergeable(self.bin_state(b0), forest, self.params, self.coeff_cache)
                if psi is not None:
                    exhausted[b0] = 1
                    self.revisit(mem_a if root_of[ra] != ra else mem_b)
                    changed = True
        return changed

    # -- results --------------------------------------------------------------

    def resident_elements(self) -> int:
        """Per-bin state, discovered members and the forest (a root, a value
        and a member entry per ball), plus the caches: 4 weights per
        ``coeff_cache`` entry and a ball's key and bins per ``bins`` entry."""
        return (
            5 * self.M
            + sum(len(d) for d in self.discovered)
            + 3 * self.forest.ball_count
            + 4 * len(self.coeff_cache)
            + sum(len(b) + 1 for b in self.bins.values())
        )

    def reported(self) -> tuple[list, np.ndarray]:
        """The largest component's balls by index, and a mask of the bins
        that hold a ball of another component."""
        root = self.largest_root()
        recovered = [] if root is None else sorted(self.forest.component_items(root))
        others = [ell for r, mem in self.components.items() if r != root for ell in mem]
        foreign = np.zeros(self.M, dtype=bool)
        foreign[[b - 1 for ell in others for b in self.bins_of(ell)]] = True
        return recovered, foreign


class _RoundEngine:
    """Round-synchronous peeling over numpy state; see the module docstring.

    Balls live in slots 1..count-1 of per-ball arrays: index, value in the
    frame of its component's root, root slot, the four modulation weights (a
    row per ball) and its bins; ``colored`` holds the colored indices.
    Slot 0 is an all-zero sentinel that pads ``table``, the member slots of
    each bin in discovery order (``load`` of them per bin). ``dirty`` marks
    the bins the next round judges: bins with members, none exhausted."""

    def __init__(self, seeded: _Engine):
        """Take over every component the scalar engine ``seeded`` kept from
        its seeding; their balls' weights and bins come from the batch
        queries ``_coeffs_many`` and ``bins_many``, and the seeding's
        exhausted marks stand."""
        self.ensemble = seeded.ensemble
        self.params = seeded.params
        self.M = seeded.M
        self.y = seeded.y
        y1, y2, y3 = self.y[:, 0], self.y[:, 1], self.y[:, 2]
        scale = self.y.max(axis=1, initial=0.0)
        self.nonzero = scale > 0.0  # bins with a nonzero measurement
        self.t = DEFAULT_TOL * scale  # per-bin acceptance margin
        with np.errstate(divide="ignore", invalid="ignore"):
            carg = (y3 * y3 - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
            # the bins whose measurements admit "members plus one unknown",
            # and the two z = (y1/y2) exp(+-i alpha0) of _resolvable_full
            self.open = (y1 > self.t) & (y2 > self.t) & (np.abs(carg) <= 1.0 + DEFAULT_TOL)
            self.z = (y1 / y2) * np.exp(1j * _SIGNS * np.arccos(carg.clip(-1.0, 1.0)))
        self.stats = seeded.stats
        slots = self.M // 2 + 1  # room for M/2 balls before the first growth
        self.count = 1
        self.ell = np.zeros(slots, dtype=np.int64)
        self.colored: set[int] = set()
        self.val = np.zeros(slots, dtype=np.complex128)
        self.root = np.zeros(slots, dtype=np.int64)
        self.root[0] = -1
        self.g = np.zeros((slots, 4), dtype=np.complex128)
        self.gv = np.zeros((slots, 4), dtype=np.complex128)  # g * value, per ball
        self.bins = np.zeros((slots, 0), dtype=np.int64)
        self.components: dict[int, list[int]] = {}  # root slot -> member slots
        self.table = np.zeros((self.M, 8), dtype=np.int32)
        self.load = np.zeros(self.M, dtype=np.int64)
        self.dirty = np.zeros(self.M, dtype=bool)
        self.exhausted = np.zeros(self.M, dtype=bool)
        comps = [seeded.forest.component_items(root) for root in seeded.forest.roots()]
        ells = np.array([ell for comp in comps for ell, _ in comp], dtype=np.int64)
        sizes = [len(comp) for comp in comps]
        self.add_balls(
            ells,
            np.array([value for comp in comps for _, value in comp], dtype=np.complex128),
            np.repeat(np.cumsum([1] + sizes[:-1]), sizes),  # each component's first slot is its root
            _coeffs_many(self.params, ells).T,
            self.ensemble.bins_many(ells),
        )
        # every seeding mark sits on a bin holding one kept ball
        self.exhausted = np.frombuffer(seeded.exhausted, dtype=bool).copy()
        self.dirty &= ~self.exhausted

    @property
    def ball_count(self) -> int:
        return self.count - 1

    def is_colored(self, ells: np.ndarray) -> np.ndarray:
        colored = self.colored
        return np.array([ell in colored for ell in ells.tolist()], dtype=bool)

    def add_balls(self, ells, vals, roots, g, bins) -> None:
        """Color balls into the components ``roots`` (root slots); row i of
        ``g`` and ``bins`` holds ball i's weights and bins, 0 padding the
        bins."""
        start, end = self.count, self.count + len(ells)
        self.ell = _padded(self.ell, end, 0)
        self.val = _padded(self.val, end, 0)
        self.root = _padded(self.root, end, 0)
        self.g = _padded(self.g, end, 0)
        self.gv = _padded(self.gv, end, 0)
        self.bins = _padded(_padded(self.bins, end, 0), bins.shape[1], 1)
        slots = np.arange(start, end)
        self.ell[start:end] = ells
        self.val[start:end] = vals
        self.root[start:end] = roots
        self.g[start:end] = g
        self.gv[start:end] = g * self.val[start:end, None]
        self.bins[start:end, : bins.shape[1]] = bins
        self.count = end
        self.colored.update(ells.tolist())
        for r, slot in zip(roots.tolist(), slots.tolist()):
            self.components.setdefault(r, []).append(slot)
        # enter each ball in its bins, after the members already there
        flat = bins.ravel()
        entered = flat > 0
        b0 = flat[entered] - 1
        owner = np.repeat(slots, bins.shape[1])[entered]
        count = np.bincount(b0, minlength=self.M)
        pos = self.load[b0]
        if count.max(initial=0) > 1:  # balls of the batch share a bin: rank them in it
            order = np.argsort(b0, kind="stable")
            b0, owner = b0[order], owner[order]
            pos = self.load[b0] + np.arange(len(b0)) - b0.searchsorted(b0)
        self.table = _padded(self.table, int(pos.max(initial=-1)) + 1, 1)
        self.table[b0, pos] = owner
        self.load += count
        self.dirty[b0] = True
        self.exhausted[b0] = False

    # -- vectorized bin processors -------------------------------------------

    def _resolve(self, B: np.ndarray, sums: np.ndarray):
        """``_resolvable_full`` over the one-color bins ``B`` (0-based) whose
        members sum to ``sums`` (a row of four per bin). Returns the exhausted
        mask over ``B``; per resolved bin its position in ``B``, the new ball,
        its value, its weights and its bins; and the (bin, ball) pairs of the
        hits that bins rejected as aliases of another hit."""
        y = self.y[B]
        t = self.t[B]
        mag = np.abs(sums)
        exhausted = (np.abs(mag - y) <= t[:, None]).all(axis=1) & self.nonzero[B]
        p = np.flatnonzero(self.open[B] & (mag[:, 2] > t) & ~exhausted)
        kk = (y[p, 2] / mag[p, 2]) ** 2
        a, b, c = sums[p, 0], sums[p, 1], sums[p, 2]
        z = self.z[:, B[p]]  # rows: both signs of alpha0
        with np.errstate(divide="ignore", invalid="ignore"):
            qa, qb, qc = _one_unknown_quadratic(z, z * b - a, c, kk)
            disc = qb * qb - 4.0 * qa * qc
            ok = (qa > 0.0) & (disc >= -DEFAULT_TOL * np.maximum(np.maximum(qb * qb, np.abs(4.0 * qa * qc)), 1e-300))
            # axes: sign, root of the quadratic (+sqrt first), bin
            u = (-qb[:, None] + _SIGNS.T[:, :, None] * np.sqrt(np.maximum(disc, 0.0))[:, None]) / (2.0 * qa)[:, None]
            ok = ok[:, None] & (u >= -1e-9) & (u <= 1.0 + 1e-9)
            cand = _locations(np.sqrt(u.clip(0.0, 1.0)), self.params)
            cand[~ok] = 0
            # per bin: sign, then root, then location, as in _resolvable_full
            per_sign = 2 * cand.shape[-1]
            cand = cand.transpose(2, 0, 1, 3).reshape(len(p), 2 * per_sign)
            i, j = cand.nonzero()
            ells = cand[i, j]
            zc = z[j // per_sign, i]
            # the three rows that need only g1 = exp(i omega ell) first, as in
            # _coeffs_many; the check row, the colored test and membership
            # then run on the few candidates left
            g1 = np.exp(1j * (self.params.omega * ells))
            g2 = np.conj(g1)
            denom = g1 - zc * g2
            x = (zc * b[i] - a[i]) / denom
            bi, ti = p[i], t[p[i]]
            keep = (
                (np.abs(denom) > 1e-14)
                & (np.abs(np.abs(sums[bi, 0] + g1 * x) - y[bi, 0]) <= ti)
                & (np.abs(np.abs(sums[bi, 1] + g2 * x) - y[bi, 1]) <= ti)
                & (np.abs(np.abs(sums[bi, 2] + 2.0 * g1.real * x) - y[bi, 2]) <= ti)
            )
        i, ells, x = i[keep], ells[keep], x[keep]
        g = _coeffs_many(self.params, ells).T
        bi = p[i]
        keep = ~self.is_colored(ells) & (np.abs(np.abs(sums[bi, 3] + g[:, 3] * x) - y[bi, 3]) <= t[bi])
        i, ells, x, g = i[keep], ells[keep], x[keep], g[keep]
        # membership is the costly filter; apply it last
        rows = self.ensemble.bins_many(ells)
        keep = (rows == B[p[i], None] + 1).any(axis=1)
        i, ells, x, g, rows = i[keep], ells[keep], x[keep], g[keep], rows[keep]
        hits = (p[i], ells, x, g, rows)
        aliased = np.zeros(0, dtype=np.int64)
        if (i[1:] == i[:-1]).any():
            # exactly one hit per bin: every hit must repeat the bin's first one
            first = np.concatenate(([True], i[1:] != i[:-1]))
            lead = np.maximum.accumulate(np.where(first, np.arange(len(i)), 0))
            same = (ells == ells[lead]) & (np.abs(x - x[lead]) <= 1e-9 * np.maximum(1.0, np.abs(x)))
            alias = np.zeros(len(p), dtype=bool)
            alias[i[~same]] = True
            take = np.flatnonzero(first & ~alias[i])
            hits = tuple(v[take] for v in hits)
            aliased = np.flatnonzero(alias[i])
        return exhausted, hits, (B[p[i[aliased]]], ells[aliased])

    def _merge(self, B: np.ndarray, rs: np.ndarray, bs: np.ndarray):
        """``process_mergeable`` over the two-color bins ``B`` with class sums
        ``rs`` and ``bs`` (a row of four per bin each). Returns the accepted
        mask; psi, such that the b-class values times exp(i psi) are in the
        r-class frame; and how well each psi is conditioned, sin(gamma) times
        the two class magnitudes over y1**2 (the cosine law loses precision
        as gamma nears 0 or pi, or a class sum nears 0)."""
        y = self.y[B]
        t = self.t[B]
        r1, b1 = np.abs(rs[:, 0]), np.abs(bs[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            carg = (y[:, 0] * y[:, 0] - r1**2 - b1**2) / (2.0 * r1 * b1)
            ok = self.nonzero[B] & (r1 > t) & (b1 > t) & (np.abs(carg) <= 1.0 + DEFAULT_TOL)
        psi = _SIGNS * np.arccos(carg.clip(-1.0, 1.0)) + (np.angle(rs[:, 0]) - np.angle(bs[:, 0]))
        synth = np.abs(rs + np.exp(1j * psi)[:, :, None] * bs)
        passes = (np.abs(synth - y) <= t[:, None]).all(axis=2)
        same = np.abs(np.exp(1j * (psi[1] - psi[0])) - 1.0) <= 1e-9
        ok &= (passes[0] ^ passes[1]) | (passes[0] & passes[1] & same)
        conditioning = np.sqrt(np.maximum(1.0 - carg * carg, 0.0)) * r1 * b1 / (y[:, 0] * y[:, 0])
        return ok, np.where(passes[0], psi[0], psi[1]), conditioning

    # -- rounds ---------------------------------------------------------------

    def round(self) -> bool:
        """One round: every dirty bin judged against the state at its start,
        then the verdicts applied. Returns whether anything changed. While
        the engine holds one component no bin can hold two colors, so the
        round does not look for them."""
        B = np.flatnonzero(self.dirty)
        self.dirty[B] = False
        slots = self.table[B, : self.load[B].max(initial=0)]
        at, col = slots.nonzero()  # bin-major, members in discovery order
        members = slots[at, col]
        starts = np.flatnonzero(col == 0)
        contrib = self.gv[members]
        roots = self.root[members]
        first = roots[starts]
        one, two = np.ones(len(B), dtype=bool), np.zeros(len(B), dtype=bool)
        if len(self.components) > 1:
            in_first = roots == first[at]
            second = np.full(len(B), -1, dtype=np.int64)
            np.maximum.at(second, at, np.where(in_first, -1, roots))
            one = second < 0
            two = ~one
            two[at[~in_first & (roots != second[at])]] = False  # three or more colors
        self.stats.processor_calls += int(one.sum() + two.sum())
        changed = False
        joined = np.zeros(self.M, dtype=bool)
        if one.any():
            R = np.flatnonzero(one)
            sums = np.add.reduceat(contrib, starts)[R]
            exhausted, (pos, ells, x, g, rows), (alias_bins, aliases) = self._resolve(B[R], sums)
            self.exhausted[B[R[exhausted]]] = True
            changed = self._color(B[R[pos]], ells, x, first[R[pos]], g, rows, joined)
            # colored candidates are skipped, so coloring an alias can settle its bin
            self.dirty[alias_bins[self.is_colored(aliases)]] = True
        if two.any():
            T = np.flatnonzero(two)
            rs = np.add.reduceat(np.where(in_first[:, None], contrib, 0), starts)[T]
            bs = np.add.reduceat(np.where(in_first[:, None], 0, contrib), starts)[T]
            ok, psi, conditioning = self._merge(B[T], rs, bs)
            # best-conditioned verdicts first: a pair of components that
            # several bins would merge takes the most precise rotation
            order = np.flatnonzero(ok)[np.argsort(-conditioning[ok], kind="stable")]
            T = T[order]
            changed |= self._union(B[T], first[T], second[T], psi[order], joined)
        return changed

    def _color(self, bins0, ells, x, roots, g, rows, joined) -> bool:
        """Apply resolved balls in bin order. A ball found through two bins
        keeps the lowest bin's value; a verdict whose bin an earlier ball of
        this round joins waits for the next round. A resolving bin that no
        other ball of the round joins is exhausted."""
        keep = _first_occurrences(ells)
        if (np.bincount(rows[keep].ravel(), minlength=self.M + 1)[bins0[keep] + 1] > 1).any():
            touched: set[int] = set()
            kept = []
            for k, b, row in zip(keep.tolist(), bins0[keep].tolist(), rows[keep].tolist()):
                if b + 1 not in touched:
                    kept.append(k)
                    touched.update(row)
            keep = np.array(kept, dtype=np.int64)
        if not len(keep):
            return False
        self.add_balls(ells[keep], x[keep], roots[keep], g[keep], rows[keep])
        joined[rows[keep][rows[keep] > 0] - 1] = True
        settled = bins0[keep][np.bincount(rows[keep].ravel(), minlength=self.M + 1)[bins0[keep] + 1] == 1]
        self.exhausted[settled] = True
        self.dirty[settled] = False
        return True

    def _union(self, bins0, roots_r, roots_b, psi, joined) -> bool:
        """Apply accepted merges in the given order, rotating the smaller
        component eagerly. A merge whose bin a ball joined this round, or one
        of whose roots an earlier merge of this round absorbed, waits for the
        next."""
        comp = self.components
        moved, factors, targets, merged, waiting = [], [], [], [], []
        for b, r, q, angle in zip(bins0.tolist(), roots_r.tolist(), roots_b.tolist(), psi.tolist()):
            if joined[b] or r not in comp or q not in comp:
                waiting.append(b)
                continue
            if len(comp[r]) >= len(comp[q]):
                big, small, rot = r, q, angle
            else:
                big, small, rot = q, r, -angle
            members = comp.pop(small)
            comp[big].extend(members)
            moved.append(members)
            factors.append(cmath.exp(1j * rot))
            targets.append(big)
            merged.append(b)
        self.dirty[waiting] = True
        if not merged:
            return False
        self.exhausted[merged] = True
        # the rotations, in merge order: a ball moved twice takes both, and
        # the root of its last move
        sizes = [len(members) for members in moved]
        slots = np.fromiter(itertools.chain.from_iterable(moved), dtype=np.int64, count=sum(sizes))
        np.multiply.at(self.val, slots, np.repeat(factors, sizes))
        last = np.zeros(self.count, dtype=np.int64)
        np.maximum.at(last, slots, np.arange(len(slots)))
        self.root[slots] = np.repeat(targets, sizes)[last[slots]]
        self.gv[slots] = self.g[slots] * self.val[slots, None]
        rows = self.bins[slots].ravel()
        rows = rows[rows > 0] - 1
        self.dirty[rows[~self.exhausted[rows]]] = True  # their values rotated: revisit their bins
        return True

    # -- results --------------------------------------------------------------

    def resident_elements(self) -> int:
        """Live entries only: 5 per bin (measurements and flags), one per
        member-table entry, and per ball its index, value, root, component
        and colored-set entries, four weights, four weighted values and one
        per bin it occupies."""
        return (
            5 * self.M
            + int(self.load.sum())
            + 13 * self.ball_count
            + int(np.count_nonzero(self.bins[1 : self.count]))
        )

    def reported(self) -> tuple[list, np.ndarray]:
        """As ``_Engine.reported``; the engine always holds a component,
        since the seeding hands it over only when a ball is colored."""
        root = _largest(self.components, lambda mem: self.ell[mem])
        mem = np.array(self.components[root])
        mem = mem[np.argsort(self.ell[mem])]
        rows = self.bins[1 : self.count][self.root[1 : self.count] != root].ravel()
        foreign = np.zeros(self.M, dtype=bool)
        foreign[rows[rows > 0] - 1] = True
        return list(zip(self.ell[mem].tolist(), self.val[mem].tolist())), foreign


def _grow(engine) -> int:
    """The growth phase on either engine: rounds (sweeps on the scalar
    engine) until one changes nothing. Returns the rounds run, the
    confirming one included."""
    done = 1
    while engine.round():
        done += 1
    return done


def _count(value, name: str) -> int:
    """``value`` as a nonnegative Python int."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def _decode(meas, ensemble, params, K_hint, multicolor: bool) -> DecodeResult:
    """Both decoders: the scalar engine seeds with the singletons, and for
    Unicolor also one doubleton pass after which only the largest cluster
    stays colored; Multicolor keeps every cluster. The growth phase is the
    same for both, on the round engine from ``ROUND_ENGINE_MIN_BINS`` bins
    on."""
    K_hint = _count(K_hint, "K_hint")
    if params is not None and params != meas.params:
        raise ParameterError(f"params {params} differ from the measurements' {meas.params}")
    engine = _Engine(meas, ensemble)
    engine.phase_singletons()
    if engine.ball_count == 0:
        return _result(engine, K_hint, 1)
    if not multicolor:
        engine.phase_doubletons()
        engine.restrict_to_component(engine.largest_root())
    engine = _RoundEngine(engine) if engine.M >= ROUND_ENGINE_MIN_BINS else engine
    return _result(engine, K_hint, (1 if multicolor else 2) + _grow(engine))


def decode_unicolor(
    meas: MeasurementSet,
    ensemble,
    params: ModulationParams | None = None,
    K_hint: int = 0,
) -> DecodeResult:
    """Single-cluster decode: singletons, one doubleton-merge pass to seed the
    largest cluster, uncolor everything else, then the growth phase both
    decoders share, until a sweep changes nothing. Since one cluster grows,
    the growth only resolves multitons: no bin ever holds two colors.

    FullRecovery means that the cluster explains every lit bin (see the
    module docstring); ``K_hint`` only scales ``fraction_recovered``, 1.0
    when it is 0. ``stats.sweeps`` counts the sweep that confirmed the
    decode, so a full decode reports one more than the sweeps that colored
    its balls.

    The decode depends on ``meas`` and ``ensemble`` alone: the modulation is
    ``meas.params``, and a ``params`` other than None must equal it."""
    return _decode(meas, ensemble, params, K_hint, multicolor=False)


def decode_multicolor(
    meas: MeasurementSet,
    ensemble,
    params: ModulationParams | None = None,
    K_hint: int = 0,
) -> DecodeResult:
    """Many-cluster decode: singletons, each a cluster of its own, then the
    growth phase both decoders share: sweeps that resolve multitons and
    merge two-color bins until one changes nothing. The largest cluster is
    reported.

    FullRecovery means that one cluster holds every colored ball and
    explains every lit bin (see the module docstring); ``K_hint`` only
    scales ``fraction_recovered``, 1.0 when it is 0. ``stats.sweeps`` counts
    the sweep that confirmed the decode, so a full decode reports one more
    than the sweeps that colored and merged its balls.

    The decode depends on ``meas`` and ``ensemble`` alone: the modulation is
    ``meas.params``, and a ``params`` other than None must equal it."""
    return _decode(meas, ensemble, params, K_hint, multicolor=True)


def get_decoder(algorithm: str) -> Callable[..., DecodeResult]:
    """The decode function named ``algorithm``, read from the module namespace
    at call time so that a wrapper installed there is honoured."""
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return globals()[f"decode_{algorithm}"]
