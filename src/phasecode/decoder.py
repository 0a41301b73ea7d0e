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
    67          0.55-0.75 / 1.6-2.1        0.39-0.49 / 1.7-2.1
    376         7.5-8.5   / 5.3-6.3        5.4-6.2   / 4.6-5.5
    3320          58      / 20            38-55      / 17-25
    14000     290-457     / 76-126          173      / 66-68

A round's numpy calls, like the hand-over's, cost about the same whatever
the code's size: at M = 67 the round engine spends 1.0 to 1.3 ms more per
decode over 3.6 (unicolor) or 1.4 to 1.6 ms over 4.4 (multicolor) growth
rounds, so rounds lose on the smallest codes and win from a few hundred
bins on. The median of each decode's round / scalar time ratio is 2.7-2.8
(unicolor) and 4.4 (multicolor) at M = 67 and 0.71-0.75 and 0.86-0.88 at
M = 376, so both decoders cross over between those sizes. At n = 1e6,
K = 1000, c = 2.75, a multicolor round that judges fewer than 300 bins
takes a median 0.28 ms while one component is left and 0.49 ms while
several are; ``tests/round_cost.py`` prints each decoder's rounds, its
hand-over and a fit of round time against dirty bins. The constant sits
above the crossover so that every code the reference panel and criterion 4
pin (M <= 376) keeps the scalar engine byte for byte; that, not speed,
holds it at 1024. The scalar
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
ambiguous), not every index ever tried.

The round engine runs the parallel rounds that density evolution models.
Its state is numpy arrays: per ball its index, its value in the frame of its
component's root, its root's slot, its four weights and its bins; per
component its size, at its root's slot; per bin its member table in
discovery order. The hand-over lays the seeded forest out in slots straight
from its member lists, components in ``roots()`` order and each one's
members in order, and computes their balls' weights and bins in one batch.
A round

- takes every dirty bin that is not exhausted and judges it against the
  state at the start of the round, in batches. A bin holds one color when
  its members' smallest and largest root agree and two when every member
  holds one of those two (``minimum``/``maximum.reduceat``), and the class
  sums of a two-color bin are taken over its own members only. One-color
  bins get the exhausted test, the one-unknown quadratic and its ``acos``
  candidates (four per root in Fourier mode), their weights, the
  resynthesis, and membership through ``bins_many``; two-color bins the
  cosine-law merge;
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
  A loop over the round's accepted verdicts settles which merge absorbs
  which root; ``_merge_chains`` then applies the rotations with gathers. A ball that several merges of the round move takes their factors
  one at a time in merge order, each product written out as CPython's
  complex product, so values and roots equal those of ``ColorForest.union``
  applied merge by merge, bit for bit.

The engine holds only state and scheduling. Its two judges are module-level
functions of the bins they judge, ``_judge_one_color`` and
``_judge_two_color``. The two-color judge computes its bins' margins from
their measurements; the one-color judge gathers its bins' margins,
admissibility and z from ``_bin_terms``, which computes them once per decode
for every bin. A test runs both one bin at a time against criterion 6's
oracles.

Both engines' judges take what a bin offers, its measurements and its
members' sums (one set per color class), and return a verdict without
touching the engine's state: the scalar judges ``process_singleton``,
``_resolvable_full`` and ``process_mergeable`` one bin per call, the batch
judges many. Each engine groups a bin's members by root, sums them, and
applies the verdicts itself: it colors a resolved ball, or merges two
classes and revisits the bins of the balls the merge rotated.

Seeding stays scalar although it could be batched too, because of how the
benchmark's memory reading couples to speed until its steps stop keeping
every outcome (ROADMAP item 1a). A ``large-n`` run keeps each step's
results, so its ``peak_rss_mb`` grows with ``trials_per_s``: about 0.49 MB
per step over a floor of about 51 MB. A numpy singleton phase would take
about 29 of the 32 ms per decode that the scalar one costs there, roughly
+37 % trials/s, and its peak RSS would rise past the +10 % the benchmark
allows.

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
very large n and, in Fourier mode at odd n, the half-integer alias
candidates, which the two engines can round to neighbouring indices (numpy's
``arccos`` and libm's ``acos`` differ by an ulp there); values differ in the
last bits.

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
from typing import Callable, Container, NamedTuple, Optional, Sequence

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
    _check_weights,
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

    def roots(self) -> list[int]:
        return list(self._members.keys())

    def component_items(self, root: int) -> list[tuple[int, complex]]:
        return [(ell, self.value(ell)) for ell in self._members[root]]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ball's index and value, components in ``roots()`` order and
        each one's members in order (its root first), and each component's
        size."""
        comps = list(map(self._members.__getitem__, self.roots()))
        ells = np.fromiter(itertools.chain.from_iterable(comps), dtype=np.int64, count=self.ball_count)
        vals = np.fromiter(map(self._val.__getitem__, ells.tolist()), dtype=np.complex128, count=len(ells))
        return ells, vals, np.fromiter(map(len, comps), dtype=np.int64, count=len(comps))

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


# ---------------------------------------------------------------------------
# Location candidates
# ---------------------------------------------------------------------------

def _candidates(cos_abs: float, omega: float, n: int, fourier: bool) -> list[int]:
    """Integer indices ell in [1, n] with |cos(omega*ell)| = cos_abs.

    General mode (omega = pi/2n): cos is nonnegative and injective over the
    index range, so there is a single candidate. Fourier mode (omega = 2pi/n):
    |cos| is four-to-one over (0, 2pi], so up to four candidates come back and
    the caller must disambiguate via the check measurements and the bin
    membership constraint.
    """
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
    """``_candidates`` over an array: the candidates of each entry
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


def _row_max(y: np.ndarray) -> np.ndarray:
    """The largest of each bin's four measurements (``y.max(axis=1)`` is some
    twenty times slower on rows of four)."""
    return np.maximum(np.maximum(y[:, 0], y[:, 1]), np.maximum(y[:, 2], y[:, 3]))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` entries starts."""
    return np.cumsum(counts) - counts


def _all4(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=-1)`` over a last axis of four, some five times faster."""
    return mask[..., 0] & mask[..., 1] & mask[..., 2] & mask[..., 3]


def _class_sums(rows: np.ndarray, in_r: np.ndarray, starts: np.ndarray):
    """Per run of ``rows`` (the runs start at ``starts``), the sum of its
    rows that ``in_r`` marks and the sum of the others, each in row order."""
    in_r = in_r[:, None]
    return np.add.reduceat(np.where(in_r, rows, 0), starts), np.add.reduceat(np.where(in_r, 0, rows), starts)


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
    mem: Sequence[int],
    val: dict[int, complex],
    params: ModulationParams,
    coeff_cache: dict,
) -> tuple[complex, complex, complex, complex]:
    """The four bin sums g_k(ell) * val[ell] over ``mem``, added in member
    order, each value in the frame of its component's root; a member's
    weights enter ``coeff_cache`` the first time they are summed."""
    a = b = c = dd = 0j
    for ell in mem:
        v = val[ell]
        g = coeff_cache.get(ell)
        if g is None:
            g = coeff_cache[ell] = modulation_coeffs(params, ell)
        g1, g2, g3, g4 = g
        a += g1 * v
        b += g2 * v
        c += g3 * v
        dd += g4 * v
    return a, b, c, dd


def process_singleton(
    y: Sequence[float],
    params: ModulationParams,
    membership: Callable[[int], bool] | None = None,
) -> Optional[tuple[int, float]]:
    """Guess: the bin measuring ``y`` holds exactly one ball, and
    ``membership`` (None: any index) says which indices the bin can hold.
    Returns (index, magnitude).

    Detection: y1 = y2 = y4 (all unit-modulus rows see the same lone
    magnitude), location from arccos(y3 / 2 y1), acceptance only if the full
    4-measurement resynthesis for a lone ball matches within tolerance. For a
    lone ball that resynthesis reduces to |g3| y1 = y3, so only g3 is
    computed.
    """
    y1, y2, y3, y4 = y
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
    y: Sequence[float],
    rs: Sequence[complex],
    bs: Sequence[complex],
) -> Optional[float]:
    """Guess: the bin measuring ``y`` holds exactly two color classes, whose
    members sum to ``rs`` and ``bs`` (four sums each, in the frame of each
    class's root). Returns psi such that the b-class values times
    exp(i psi) are in the r-class frame, or None.

    The relative rotation comes from the cosine law on the two class sums;
    both arccos signs are candidates and the check row plus the remaining
    measurements pick the (at most one) consistent rotation.
    """
    scale = max(y)
    if scale <= 0.0:
        return None
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
    return accepted[0] if len(accepted) == 1 else None


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
    y: Sequence[float],
    sums: Sequence[complex],
    params: ModulationParams,
    colored: Container[int],
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
) -> tuple[str, Optional[tuple[int, complex]]]:
    """Guess: the bin measuring ``y`` holds members of one color, which sum
    to ``sums``, plus at most one unknown ball, which is neither in
    ``colored`` nor refused by ``membership``. Returns (status, payload)
    with status in {"resolved", "exhausted", "none"}: "exhausted" means the
    members alone already reproduce all four measurements, and a resolved
    payload is (index, value in the members' frame), whose weights enter
    ``coeff_cache``."""
    a, b, c, dd = sums
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
    y: Sequence[float],
    mem: Sequence[int],
    forest: ColorForest,
    params: ModulationParams,
) -> Optional[tuple[int, complex]]:
    """``_resolvable_full`` on a bin measuring ``y`` whose members ``mem``
    are colored in ``forest``: (index, value in the members' frame) of the
    one unknown ball, or None, also when the members are of two colors."""
    if not mem or len({forest.find(ell) for ell in mem}) != 1:
        return None
    sums = _member_sums(mem, forest._val, params, {})
    status, payload = _resolvable_full(y, sums, params, forest._val)
    return payload if status == "resolved" else None


def _is_colored(colored: set[int], ells: np.ndarray) -> np.ndarray:
    """Which of ``ells`` are in the set ``colored``."""
    return np.array([ell in colored for ell in ells.tolist()], dtype=bool)


class _BinTerms(NamedTuple):
    """What the one-color judge needs of a code's measurements alone, one
    entry per bin: the measurements ``y`` (a row of four), their largest
    ``scale``, the margin ``t``, whether they admit "members plus one
    unknown", and the two z = (y1/y2) exp(+-i alpha0) of
    ``_resolvable_full`` (a row per sign)."""

    y: np.ndarray
    scale: np.ndarray
    t: np.ndarray
    admissible: np.ndarray
    z: np.ndarray


def _bin_terms(y: np.ndarray) -> _BinTerms:
    """The ``_BinTerms`` of the measurements ``y``, computed once per decode."""
    y1, y2, y3 = y[:, 0], y[:, 1], y[:, 2]
    scale = _row_max(y)
    t = DEFAULT_TOL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        carg = (y3 * y3 - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
        admissible = (y1 > t) & (y2 > t) & (np.abs(carg) <= 1.0 + DEFAULT_TOL)
        e = np.exp(1j * np.arccos(carg.clip(-1.0, 1.0)))  # exp(-i alpha0) is its conjugate
        z = (y1 / y2) * np.stack((e, e.conj()))
    return _BinTerms(y, scale, t, admissible, z)


def _one_unknown_candidates(z, a, b, c, kk, params: ModulationParams):
    """The location candidates of "members plus one unknown" in the bins
    whose members sum to ``a``, ``b`` and ``c`` in rows 1-3, with ``z`` and
    ``kk`` as in ``_one_unknown_quadratic``: per candidate the position of
    its bin, its index and its z, bin by bin, then by sign, root and
    location, as in ``_resolvable_full``. A function of its own, so that its
    intermediate arrays are gone before the candidates are tested."""
    qa, qb, qc = _one_unknown_quadratic(z, z * b - a, c, kk)
    disc = qb * qb - 4.0 * qa * qc
    ok = (qa > 0.0) & (disc >= -DEFAULT_TOL * np.maximum(np.maximum(qb * qb, np.abs(4.0 * qa * qc)), 1e-300))
    # axes: sign, root of the quadratic (+sqrt first), bin
    u = (-qb[:, None] + _SIGNS.T[:, :, None] * np.sqrt(np.maximum(disc, 0.0))[:, None]) / (2.0 * qa)[:, None]
    ok = ok[:, None] & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    cand = _locations(np.sqrt(u.clip(0.0, 1.0)), params)
    cand[~ok] = 0
    per_sign = 2 * cand.shape[-1]
    cand = cand.transpose(2, 0, 1, 3).reshape(len(kk), 2 * per_sign)
    i, j = cand.nonzero()
    return i, cand[i, j], z[j // per_sign, i]


def _judge_one_color(terms: _BinTerms, sums, B, params: ModulationParams, ensemble, colored: set[int]):
    """``_resolvable_full`` over the one-color bins ``B`` (0-based) of the
    code whose measurements give ``terms``; the members of ``B`` sum to
    ``sums`` (a row of four per bin of ``B``); no candidate in ``colored``
    is taken, and membership is ``ensemble.bins_many``. Returns the
    exhausted mask over ``B``; per resolved bin its position in ``B``, the
    new ball, its value, its weights and its bins; and the (bin, ball)
    pairs of the hits that bins rejected as aliases of another hit."""
    y, t = terms.y.take(B, axis=0), terms.t[B]
    mag = np.abs(sums)
    exhausted = _all4(np.abs(mag - y) <= t[:, None]) & (terms.scale[B] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.flatnonzero(terms.admissible[B] & (mag[:, 2] > t) & ~exhausted)
        kk = (y[:, 2][p] / mag[:, 2][p]) ** 2
        a, b, c = sums.take(p, axis=0).T[:3]
        i, ells, zc = _one_unknown_candidates(terms.z.take(B[p], axis=1), a, b, c, kk, params)
        # the three rows that need only g1 = exp(i omega ell) first, as in
        # _coeffs_many; the check row, the colored test and membership
        # then run on the few candidates left, and the weights of the hits
        # are put together from g1 and the check weight g4
        g1 = np.exp(1j * (params.omega * ells))
        g2 = np.conj(g1)
        denom = g1 - zc * g2
        x = (zc * b[i] - a[i]) / denom
        bi = p[i]
        ti = t[bi]
        keep = (
            (np.abs(denom) > 1e-14)
            & (np.abs(np.abs(sums[:, 0][bi] + g1 * x) - y[:, 0][bi]) <= ti)
            & (np.abs(np.abs(sums[:, 1][bi] + g2 * x) - y[:, 1][bi]) <= ti)
            & (np.abs(np.abs(sums[:, 2][bi] + 2.0 * g1.real * x) - y[:, 2][bi]) <= ti)
        )
    i, ells, x, g1 = i[keep], ells[keep], x[keep], g1[keep]
    g4 = _check_weights(params, ells)
    bi = p[i]
    keep = np.abs(np.abs(sums[:, 3][bi] + g4 * x) - y[:, 3][bi]) <= t[bi]
    keep[keep] = ~_is_colored(colored, ells[keep])
    i, ells, x, g1, g4 = i[keep], ells[keep], x[keep], g1[keep], g4[keep]
    # membership is the costly filter; apply it last
    rows = ensemble.bins_many(ells)
    keep = (rows == B[p[i], None] + 1).any(axis=1)
    i, ells, x, g1, g4 = i[keep], ells[keep], x[keep], g1[keep], g4[keep]
    rows = rows.take(np.flatnonzero(keep), axis=0)
    hits = (p[i], ells, x, np.stack((g1, np.conj(g1), 2.0 * g1.real, g4), axis=1), rows)
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


def _judge_two_color(y: np.ndarray, rs: np.ndarray, bs: np.ndarray):
    """``process_mergeable`` over two-color bins with measurements ``y`` and
    class sums ``rs`` and ``bs`` (a row of four per bin each). Returns the
    accepted mask; psi, such that the b-class values times exp(i psi) are in
    the r-class frame (where the mask accepts); and how well each psi is conditioned, sin(gamma)
    times the two class magnitudes over y1**2 (the cosine law loses
    precision as gamma nears 0 or pi, or a class sum nears 0)."""
    scale = _row_max(y)
    t = DEFAULT_TOL * scale
    r1, b1 = np.abs(rs[:, 0]), np.abs(bs[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        carg = (y[:, 0] * y[:, 0] - r1**2 - b1**2) / (2.0 * r1 * b1)
        ok = (scale > 0.0) & (r1 > t) & (b1 > t) & (np.abs(carg) <= 1.0 + DEFAULT_TOL)
    psi = _SIGNS * np.arccos(carg.clip(-1.0, 1.0)) + (np.angle(rs[:, 0]) - np.angle(bs[:, 0]))
    # the resynthesis, on the bins the cosine law admits
    k = np.flatnonzero(ok)
    synth = np.abs(rs.take(k, axis=0) + np.exp(1j * psi[:, k])[:, :, None] * bs.take(k, axis=0))
    passes = _all4(np.abs(synth - y.take(k, axis=0)) <= t[k, None])
    one_psi = passes[0] ^ passes[1]
    both = np.flatnonzero(passes[0] & passes[1])
    if len(both):  # two passing signs count as one psi when they name the same rotation
        one_psi[both] = np.abs(np.exp(1j * (psi[1, k[both]] - psi[0, k[both]])) - 1.0) <= 1e-9
    ok[k] = one_psi
    second = k[~passes[0]]
    psi[0, second] = psi[1, second]
    conditioning = np.sqrt(np.maximum(1.0 - carg * carg, 0.0)) * r1 * b1 / (y[:, 0] * y[:, 0])
    return ok, psi[0], conditioning


# ---------------------------------------------------------------------------
# Decode engine
# ---------------------------------------------------------------------------

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
    scale = np.maximum(_row_max(engine.y), 0.0)
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
        # to keep tracking: the measurements, once a sweep reads them, as one
        # flat list of floats (``yflat``), each bin's members and each cached
        # ``bins_of`` answer as a tuple (tuples of ints leave the collector's
        # books, lists stay). Lists living as long as the decode made large
        # decodes set off full collections of the whole process's heap.
        self.yflat: list[float] | None = None
        self.discovered: list[tuple[int, ...]] = [()] * self.M
        self.dirty = bytearray(self.M)
        self.exhausted = bytearray(self.M)
        self.forest = ColorForest()
        self.stats = DecodeStats()
        self.coeff_cache: dict[int, tuple] = {}
        self.bins: dict[int, tuple[int, ...]] = {}

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

    # -- phases ---------------------------------------------------------------

    def phase_singletons(self) -> None:
        y = self.y
        y1 = y[:, 0]
        margin = DEFAULT_TOL * y1
        candidate = (y1 > 0) & (np.abs(y1 - y[:, 1]) <= margin) & (np.abs(y1 - y[:, 3]) <= margin)
        params, forest, stats = self.params, self.forest, self.stats
        visit = np.flatnonzero(candidate)
        for b0, row in zip(visit.tolist(), y.take(visit, axis=0).tolist()):
            stats.processor_calls += 1
            hit = process_singleton(row, params, lambda ell, b=b0 + 1: b in self.bins_of(ell))
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
        forest, params, cache = self.forest, self.params, self.coeff_cache
        visit = [b0 for b0, mem in enumerate(self.discovered) if len(mem) == 2]
        for b0, row in zip(visit, self.y.take(visit, axis=0).tolist()):
            mem = self.discovered[b0]
            root_a, root_b = forest.find(mem[0]), forest.find(mem[1])
            if root_a == root_b:
                continue
            self.stats.processor_calls += 1
            psi = process_mergeable(
                row,
                _member_sums(mem[:1], forest._val, params, cache),
                _member_sums(mem[1:], forest._val, params, cache),
            )
            if psi is not None:
                forest.union(root_a, root_b, psi)

    def largest_root(self) -> int | None:
        """The root of the largest component, ties going to the one holding
        the smallest ball index; None when nothing is colored."""
        comps = self.components
        if not comps:
            return None
        size = max(map(len, comps.values()))
        return min((root for root, mem in comps.items() if len(mem) == size), key=lambda root: min(comps[root]))

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
        if self.yflat is None:  # built by the first sweep: the seeding phases read only the rows they visit
            self.yflat = self.y.ravel().tolist()
        forest, params, cache, yflat = self.forest, self.params, self.coeff_cache, self.yflat
        root_of, val = forest._root, forest._val
        # color_ball and the merges update these in place
        discovered, dirty, exhausted = self.discovered, self.dirty, self.exhausted
        changed = False
        for b0 in range(self.M):
            if exhausted[b0] or not dirty[b0]:
                continue
            dirty[b0] = 0
            mem = discovered[b0]
            roots = {root_of[ell] for ell in mem}
            if not 1 <= len(roots) <= 2:
                continue
            self.stats.processor_calls += 1
            y = yflat[4 * b0 : 4 * b0 + 4]
            if len(roots) == 1:
                status, payload = _resolvable_full(
                    y, _member_sums(mem, val, params, cache), params, val,
                    lambda ell, b=b0 + 1: b in self.bins_of(ell), cache,
                )
                if status == "exhausted":
                    exhausted[b0] = 1
                elif status == "resolved":
                    self.color_ball(*payload, roots.pop())
                    exhausted[b0] = 1  # the members and ell reproduce the bin
                    changed = True
                continue
            root_r = root_of[mem[0]]  # the r class holds the bin's first member
            (root_b,) = roots - {root_r}
            rs = _member_sums([ell for ell in mem if root_of[ell] == root_r], val, params, cache)
            bs = _member_sums([ell for ell in mem if root_of[ell] != root_r], val, params, cache)
            psi = process_mergeable(y, rs, bs)
            if psi is not None:
                self.revisit(forest.union(root_r, root_b, psi)[1])
                exhausted[b0] = 1
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


def _rotated(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """v * e, computed as Python's complex product is: numpy's complex
    multiply may fuse a multiply and an add, and differ in the last bit."""
    out = np.empty(v.shape, dtype=np.complex128)
    out.real = v.real * e.real - v.imag * e.imag
    out.imag = v.real * e.imag + v.imag * e.real
    return out


def _merge_chains(val, root, count, absorbed, into, factors) -> np.ndarray:
    """Apply a round's merges, in place, to the values ``val`` and root
    slots ``root`` of balls 1..count-1: merge k moves the component of root
    slot ``absorbed[k]`` into that of ``into[k]``, multiplying its values by
    ``factors[k]``, as ``ColorForest.union`` does. A ball that several
    merges move takes their factors one at a time, in merge order, and the
    root of the last; each pass of the loop follows every moved ball one
    merge further. Returns the slots of the moved balls."""
    hop = np.full(count, -1, dtype=np.int64)  # per root slot, the merge that absorbed it
    hop[absorbed] = np.arange(len(absorbed))
    moved = np.flatnonzero(hop[root[1:count]] >= 0) + 1
    slots, k = moved, hop[root[moved]]
    while len(slots):
        val[slots] = _rotated(val[slots], factors[k])
        root[slots] = into[k]
        k = hop[into[k]]  # a later merge of this round absorbed the new root
        slots, k = slots[k >= 0], k[k >= 0]
    return moved


class _RoundEngine:
    """Round-synchronous peeling over numpy state; see the module docstring.

    Balls live in slots 1..count-1 of per-ball arrays: index, value in the
    frame of its component's root, root slot, the four modulation weights (a
    row per ball) and its bins; ``colored`` holds the colored indices.
    A component is named by its root slot, the slot of its root ball (after
    a merge the larger side's, as in ``ColorForest``); ``size`` holds each
    root slot's component size (0 elsewhere) and ``live`` counts the
    components. Slot 0 is an all-zero sentinel that pads
    ``table``, the member slots of each bin in discovery order (``load`` of
    them per bin). ``dirty`` marks the bins the next round judges: bins with
    members, none exhausted."""

    def __init__(self, seeded: _Engine):
        """Take over every component the scalar engine ``seeded`` kept from
        its seeding, in slot order: components in the forest's ``roots()``
        order, each one's members in order. Their balls' weights and bins
        come from the batch queries ``_coeffs_many`` and ``bins_many``, and
        the seeding's exhausted marks stand."""
        self.ensemble = seeded.ensemble
        self.params = seeded.params
        self.M = seeded.M
        self.y = seeded.y
        self.terms = _bin_terms(seeded.y)
        self.stats = seeded.stats
        slots = self.M // 2 + 1  # room for M/2 balls before the first growth
        self.count = 1
        self.ell = np.zeros(slots, dtype=np.int64)
        self.colored: set[int] = set()
        self.val = np.zeros(slots, dtype=np.complex128)
        self.root = np.zeros(slots, dtype=np.int64)
        self.root[0] = -1
        self.size = np.zeros(slots, dtype=np.int64)
        self.g = np.zeros((slots, 4), dtype=np.complex128)
        self.gv = np.zeros((slots, 4), dtype=np.complex128)  # g * value, per ball
        self.bins = np.zeros((slots, 0), dtype=np.int64)
        self.table = np.zeros((self.M, 8), dtype=np.int32)
        self.load = np.zeros(self.M, dtype=np.int64)
        self.dirty = np.zeros(self.M, dtype=bool)
        self.exhausted = np.zeros(self.M, dtype=bool)
        ells, vals, sizes = seeded.forest.arrays()
        self.live = len(sizes)
        self.add_balls(
            ells,
            vals,
            np.repeat(np.cumsum(sizes) - sizes + 1, sizes),  # each component's first slot is its root
            _coeffs_many(self.params, ells).T,
            self.ensemble.bins_many(ells),
        )
        # every seeding mark sits on a bin holding one kept ball
        self.exhausted = np.frombuffer(seeded.exhausted, dtype=bool).copy()
        self.dirty &= ~self.exhausted

    @property
    def ball_count(self) -> int:
        return self.count - 1

    def add_balls(self, ells, vals, roots, g, bins) -> None:
        """Color balls into the components ``roots`` (root slots); row i of
        ``g`` and ``bins`` holds ball i's weights and bins, 0 padding the
        bins."""
        start, end = self.count, self.count + len(ells)
        self.ell = _padded(self.ell, end, 0)
        self.val = _padded(self.val, end, 0)
        self.root = _padded(self.root, end, 0)
        self.size = _padded(self.size, end, 0)
        self.g = _padded(self.g, end, 0)
        self.gv = _padded(self.gv, end, 0)
        self.bins = _padded(_padded(self.bins, end, 0), bins.shape[1], 1)
        self.ell[start:end] = ells
        self.val[start:end] = vals
        self.root[start:end] = roots
        self.size += np.bincount(roots, minlength=len(self.size))
        self.g[start:end] = g
        self.gv[start:end] = g * self.val[start:end, None]
        self.bins[start:end, : bins.shape[1]] = bins
        self.count = end
        self.colored.update(ells.tolist())
        # enter each ball in its bins, after the members already there
        flat = bins.ravel()
        entered = flat > 0
        b0 = flat[entered] - 1
        owner = np.repeat(np.arange(start, end), bins.shape[1])[entered]
        count = np.bincount(b0, minlength=self.M)
        pos = self.load[b0]
        if count.max(initial=0) > 1:  # balls of the batch share a bin: rank them in it
            # by bin, then in batch order: a plain sort of unique keys beats
            # a stable argsort of the bins many times over
            b0, entry = np.divmod(np.sort(b0 * len(b0) + np.arange(len(b0))), len(b0))
            owner = owner[entry]
            pos = self.load[b0] + np.arange(len(b0)) - (np.cumsum(count) - count)[b0]
        self.table = _padded(self.table, int(pos.max(initial=-1)) + 1, 1)
        self.table[b0, pos] = owner
        self.load += count
        self.dirty[b0] = True
        self.exhausted[b0] = False

    # -- rounds ---------------------------------------------------------------

    def round(self) -> bool:
        """One round: every dirty bin judged against the state at its start,
        then the verdicts applied. Returns whether anything changed. A bin
        holds one color when its members' smallest and largest root agree,
        and two when every member holds one of those two roots. While the
        engine holds one component no bin can hold two colors, so the round
        does not look for them."""
        B = np.flatnonzero(self.dirty)
        self.dirty[:] = False
        counts = self.load[B]
        members = self.table.take(B, axis=0)
        members = members[members > 0]  # bin-major, in discovery order
        at = np.repeat(np.arange(len(B)), counts)
        starts = _starts(counts)
        roots = self.root[members]
        first = roots[starts]
        if self.live == 1:
            R, T = np.arange(len(B)), np.zeros(0, dtype=np.int64)
        else:
            low, high = np.minimum.reduceat(roots, starts), np.maximum.reduceat(roots, starts)
            one = low == high
            two = ~one
            two[at[(roots != low[at]) & (roots != high[at])]] = False  # three or more colors
            R, T = np.flatnonzero(one), np.flatnonzero(two)
        self.stats.processor_calls += len(R) + len(T)
        changed = False
        joined = np.zeros(self.M, dtype=bool)
        if len(R):
            picked = members if len(R) == len(B) else members[one[at]]  # of one-color bins only
            sums = np.add.reduceat(self.gv.take(picked, axis=0), _starts(counts[R]))
            verdicts = _judge_one_color(self.terms, sums, B[R], self.params, self.ensemble, self.colored)
            exhausted, (pos, ells, x, g, rows), (alias_bins, aliases) = verdicts
            self.exhausted[B[R[exhausted]]] = True
            changed = self._color(B[R[pos]], ells, x, first[R[pos]], g, rows, joined)
            # colored candidates are skipped, so coloring an alias can settle its bin
            self.dirty[alias_bins[_is_colored(self.colored, aliases)]] = True
        if len(T):
            # class sums over the members of two-color bins only; the r
            # class holds the bin's first member
            keep = two[at]
            in_r = roots[keep] == first[at[keep]]
            rs, bs = _class_sums(self.gv.take(members[keep], axis=0), in_r, _starts(counts[T]))
            ok, psi, conditioning = _judge_two_color(self.y.take(B[T], axis=0), rs, bs)
            # best-conditioned verdicts first: a pair of components that
            # several bins would merge takes the most precise rotation
            order = np.flatnonzero(ok)[np.argsort(-conditioning[ok], kind="stable")]
            T = T[order]
            second = low[T] + high[T] - first[T]  # the b class's root: the other of the two
            changed |= self._union(B[T], first[T], second, psi[order], joined)
        return changed

    def _color(self, bins0, ells, x, roots, g, rows, joined) -> bool:
        """Apply resolved balls in bin order. A ball found through two bins
        keeps the lowest bin's value; a verdict whose bin an earlier ball of
        this round joins waits for the next round. A resolving bin that no
        other ball of the round joins is exhausted."""
        keep = _first_occurrences(ells)
        kept_rows = rows.take(keep, axis=0)
        joins = np.bincount(kept_rows.ravel(), minlength=self.M + 1)[bins0[keep] + 1]
        if (joins > 1).any():
            touched: set[int] = set()
            kept = []
            for k, b, row in zip(keep.tolist(), bins0[keep].tolist(), kept_rows.tolist()):
                if b + 1 not in touched:
                    kept.append(k)
                    touched.update(row)
            keep = np.array(kept, dtype=np.int64)
            kept_rows = rows.take(keep, axis=0)
            joins = np.bincount(kept_rows.ravel(), minlength=self.M + 1)[bins0[keep] + 1]
        if not len(keep):
            return False
        self.add_balls(ells[keep], x[keep], roots[keep], g.take(keep, axis=0), kept_rows)
        joined[kept_rows[kept_rows > 0] - 1] = True
        settled = bins0[keep][joins == 1]
        self.exhausted[settled] = True
        self.dirty[settled] = False
        return True

    def _union(self, bins0, roots_r, roots_b, psi, joined) -> bool:
        """Apply accepted merges in the given order: the smaller component
        (``roots_b``'s on a tie) moves into the larger one's frame, as
        ``ColorForest.union`` moves it. A merge whose bin a ball joined this
        round, or one of whose roots an earlier merge of this round
        absorbed, waits for the next. The loop over the merges settles which
        merge absorbs which root, and at which rotation; ``_merge_chains``
        applies the rotations with gathers."""
        ready = np.flatnonzero(~joined[bins0])
        r, q = roots_r[ready], roots_b[ready]
        involved = np.concatenate((r, q)).tolist()
        size = dict(zip(involved, self.size[involved].tolist()))  # 0 once absorbed
        taken, absorbed, into, factors = [], [], [], []
        for k, a, b, angle in zip(ready.tolist(), r.tolist(), q.tolist(), psi[ready].tolist()):
            size_a, size_b = size[a], size[b]
            if size_a and size_b:
                big, small, rot = (a, b, angle) if size_a >= size_b else (b, a, -angle)
                size[big], size[small] = size_a + size_b, 0
                taken.append(k)
                absorbed.append(small)
                into.append(big)
                factors.append(cmath.exp(1j * rot))
        waiting = np.ones(len(bins0), dtype=bool)
        waiting[taken] = False
        self.dirty[bins0[waiting]] = True
        if not taken:
            return False
        self.exhausted[bins0[taken]] = True
        self.size[list(size)] = list(size.values())
        self.live -= len(taken)
        moved = _merge_chains(self.val, self.root, self.count, absorbed, np.array(into), np.array(factors))
        self.gv[moved] = self.g.take(moved, axis=0) * self.val[moved][:, None]
        rows = self.bins.take(moved, axis=0).ravel()
        rows = rows[rows > 0] - 1
        self.dirty[rows[~self.exhausted[rows]]] = True  # their values rotated: revisit their bins
        return True

    # -- results --------------------------------------------------------------

    def resident_elements(self) -> int:
        """Live entries only: 10 per bin (measurements, flags and the five
        ``_bin_terms`` entries), one per member-table entry, per ball its
        index, value, root and colored-set entries, four weights, four
        weighted values and one per bin it occupies, and one size per
        component."""
        return (
            10 * self.M
            + int(self.load.sum())
            + 12 * self.ball_count
            + self.live
            + int(np.count_nonzero(self.bins[1 : self.count]))
        )

    def reported(self) -> tuple[list, np.ndarray]:
        """As ``_Engine.reported``; the engine always holds a component,
        since the seeding hands it over only when a ball is colored."""
        roots, ells = self.root[1 : self.count], self.ell[1 : self.count]
        largest = self.size[roots] == self.size.max()
        root = roots[largest][np.argmin(ells[largest])]  # ties: the smallest ball index
        mem = np.flatnonzero(roots == root)
        mem = mem[np.argsort(ells[mem])] + 1
        rows = self.bins[1 : self.count][roots != root].ravel()
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
