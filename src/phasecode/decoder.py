"""Merge-and-color decoding: bin processors plus one decode engine.

The decoder never sees the signal support. It discovers balls through three
guess-and-check processors, each of which hypothesizes a bin composition,
solves the resulting trigonometric puzzle, and validates against the
measurements (most importantly the independent check row y4). Accepted balls
are tracked in a union-find forest whose edges carry phase rotations, so a
merge rotates an entire color class in O(1). Unicolor and Multicolor run
one engine with two seeding policies: Unicolor keeps only the largest
doubleton-merged cluster of singletons, Multicolor keeps every cluster.

The engine keeps two per-decode caches so that a discovered ball costs O(d)
work rather than O(d * bin load) per visit of each of its bins:

- ``bins``: each ball's bins, computed once by ``ensemble.bins_of`` (at its
  membership check or its coloring) and read by every later coloring,
  re-coloring and dirty marking.
- ``sums``: per bin, the four one-color sums of its first ``count``
  members, tagged with the component root they were summed in. An entry is
  valid while that root is still the root of the bin's members: once
  ``find`` has pointed a member straight at a root, neither its parent link
  nor its rotation changes until that root is absorbed, and an absorbed root
  never becomes a root again. A valid entry is extended by the members it
  does not cover yet, in member order, so it equals a fresh member-order
  re-sum bit for bit; a merge needs no work, because the absorbed root's
  entries go stale by themselves. ``restrict_to_component`` builds a new
  forest and therefore drops every entry; a bin found exhausted drops its
  entry too, since only a ball joining it would bring the sweep back.

The sweep still finds the root of every member of a bin before choosing a
processor. That scan fixes when path compression runs, and a compressed
rotation is a floating-point sum whose association depends on that timing.
Rotating the cached sums eagerly on merge instead (and dropping the scan)
agrees with a re-sum only to ~1e-15, which at n ~ 1e12 is enough to move
``round(acos(.)/omega)`` to a neighbouring index and change a decode.

The scan, and ``_member_sums``, skip ``find`` on a member that is a root or
whose parent is a root. On such a member ``find`` compresses nothing: its
parent stays, and its rotation is rewritten as ``0.0 + rot``, the same
number (up to the sign of a zero, which ``exp(1j * rot)`` and every later
``0.0 + ...`` accumulation ignore). Every ``find`` that does compress a path
still runs at the moment it ran before, so the timing above is unchanged and
decodes stay byte-identical.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    DecodeResult,
    DecodeStats,
    ParameterError,
    RecoveryStatus,
)
from .measurement import FOURIER, GENERAL, MeasurementSet, ModulationParams, modulation_coeffs

DEFAULT_TOL = 1e-6
ALGORITHMS = ("unicolor", "multicolor")

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Color bookkeeping
# ---------------------------------------------------------------------------

class ColorForest:
    """Union-find over discovered balls with lazy phase rotations.

    Each ball stores a complex value expressed in the frame its component had
    at discovery time; parent links carry the rotation from a node's frame to
    its parent's frame. Merging two components therefore costs O(1) and keeps
    every relative phase inside a component fixed forever.
    """

    def __init__(self):
        self._parent: dict[int, int] = {}
        self._rot: dict[int, float] = {}
        self._val: dict[int, complex] = {}
        self._size: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}

    # -- queries ------------------------------------------------------------

    @property
    def ball_count(self) -> int:
        return len(self._val)

    def has(self, ell: int) -> bool:
        return ell in self._val

    def find(self, ell: int) -> int:
        parent = self._parent
        rot = self._rot
        chain = []
        node = ell
        while parent[node] != node:
            chain.append(node)
            node = parent[node]
        # path compression, recomputing rotations straight to the root
        acc = 0.0
        for link in reversed(chain):
            acc += rot[link]
            rot[link] = acc
            parent[link] = node
        return node

    def value(self, ell: int) -> complex:
        """Ball value expressed in its component root's frame."""
        root = self.find(ell)
        if ell == root:
            return self._val[ell]
        return self._val[ell] * cmath.exp(1j * self._rot[ell])

    def size(self, root: int) -> int:
        return self._size[root]

    def members(self, root: int) -> list[int]:
        return self._members[root]

    def roots(self) -> list[int]:
        return list(self._members.keys())

    def component_items(self, root: int) -> list[tuple[int, complex]]:
        return [(ell, self.value(ell)) for ell in self._members[root]]

    # -- mutation -----------------------------------------------------------

    def add_root(self, ell: int, value: complex) -> int:
        if ell in self._val:
            raise ParameterError(f"ball {ell} already colored")
        self._parent[ell] = ell
        self._rot[ell] = 0.0
        self._val[ell] = value
        self._size[ell] = 1
        self._members[ell] = [ell]
        return ell

    def add_member(self, ell: int, value: complex, root: int) -> None:
        """Color ``ell`` into an existing component; ``value`` is expressed in
        the current frame of ``root``."""
        if ell in self._val:
            raise ParameterError(f"ball {ell} already colored")
        if self._parent.get(root) != root:
            raise ParameterError(f"{root} is not a component root")
        self._parent[ell] = root
        self._rot[ell] = 0.0
        self._val[ell] = value
        self._size[root] += 1
        self._members[root].append(ell)

    def union(self, root_a: int, root_b: int, psi: float) -> tuple[int, list[int]]:
        """Merge components so that a-frame value = exp(i*psi) * b-frame value.

        Returns (new root, balls whose root changed). Union by size.
        """
        if root_a == root_b:
            raise ParameterError("cannot union a component with itself")
        if self._size[root_a] >= self._size[root_b]:
            big, small, rot_small = root_a, root_b, psi
        else:
            big, small, rot_small = root_b, root_a, -psi
        self._parent[small] = big
        self._rot[small] = rot_small
        moved = self._members.pop(small)
        self._members[big].extend(moved)
        self._size[big] += self._size.pop(small)
        return big, moved


@dataclass
class BinState:
    """Decoder-side view of one bin: measurements plus discovered members."""

    bin_id: int  # 1-based, aligned with the ensemble's global bin indexing
    y: tuple[float, float, float, float]
    discovered: list[int] = field(default_factory=list)


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
    v = min(max(cos_abs, 0.0), 1.0)
    a = math.acos(v)
    omega = params.omega
    n = params.n
    if params.mode == GENERAL:
        ell = round(a / omega)
        return [ell] if 1 <= ell <= n else []
    out: list[int] = []
    for theta in (a, math.pi - a, math.pi + a, _TWO_PI - a):
        ell = round(theta / omega)
        if ell == 0 and params.mode == FOURIER:
            ell = n  # theta ~ 0 and theta ~ 2pi name the same ball
        if 1 <= ell <= n and ell not in out:
            out.append(ell)
    return out


def _coeffs(params: ModulationParams, ell: int, cache: dict | None):
    if cache is None:
        return modulation_coeffs(params, ell)
    got = cache.get(ell)
    if got is None:
        got = modulation_coeffs(params, ell)
        cache[ell] = got
    return got


def _passes(bin_y, synth, tol: float, scale: float) -> bool:
    return (
        abs(synth[0] - bin_y[0]) <= tol * scale
        and abs(synth[1] - bin_y[1]) <= tol * scale
        and abs(synth[2] - bin_y[2]) <= tol * scale
        and abs(synth[3] - bin_y[3]) <= tol * scale
    )


# ---------------------------------------------------------------------------
# Bin processors
# ---------------------------------------------------------------------------

def _member_sums(
    mem: list[int],
    forest: ColorForest,
    params: ModulationParams,
    coeff_cache: dict | None,
    start: int = 0,
    sums: tuple[complex, complex, complex, complex] = (0j, 0j, 0j, 0j),
) -> tuple[complex, complex, complex, complex]:
    """The four bin sums g_k(ell) * value(ell) over ``mem[start:]``, added in
    member order onto ``sums`` (the sums of ``mem[:start]``)."""
    a, b, c, dd = sums
    parent, rot, val = forest._parent, forest._rot, forest._val
    for ell in mem[start:]:
        p = parent[ell]
        if p == ell:
            v = val[ell]
        elif parent[p] == p:  # find(ell) would not change a thing, see the module docstring
            v = val[ell] * cmath.exp(1j * rot[ell])
        else:
            v = forest.value(ell)
        g1, g2, g3, g4 = _coeffs(params, ell, coeff_cache)
        a += g1 * v
        b += g2 * v
        c += g3 * v
        dd += g4 * v
    return a, b, c, dd


def process_singleton(
    bin: BinState,
    params: ModulationParams,
    tol: float = DEFAULT_TOL,
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
) -> Optional[tuple[int, float]]:
    """Guess: the bin holds exactly one ball. Returns (index, magnitude).

    Detection: y1 = y2 = y4 (all unit-modulus rows see the same lone
    magnitude), location from arccos(y3 / 2 y1), acceptance only if the full
    4-measurement resynthesis for a lone ball matches within tolerance.
    """
    y1, y2, y3, y4 = bin.y
    if y1 <= 0.0:
        return None
    if abs(y1 - y2) > tol * y1 or abs(y1 - y4) > tol * y1:
        return None
    hits: list[int] = []
    for ell in location_candidates(y3 / (2.0 * y1), params):
        g3 = _coeffs(params, ell, coeff_cache)[2]
        if abs(abs(g3) * y1 - y3) > tol * y1:
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
    tol: float = DEFAULT_TOL,
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
    if abs(r1) <= tol * scale or abs(b1) <= tol * scale:
        return None  # degenerate geometry: a class sums to zero in this bin
    carg = (y[0] * y[0] - abs(r1) ** 2 - abs(b1) ** 2) / (2.0 * abs(r1) * abs(b1))
    if abs(carg) > 1.0 + tol:
        return None  # guess wrong: the bin must hold hidden balls
    gamma = math.acos(min(max(carg, -1.0), 1.0))
    base = cmath.phase(r1) - cmath.phase(b1)
    accepted: list[float] = []
    for sign in (1.0, -1.0):
        psi = sign * gamma + base
        e = cmath.exp(1j * psi)
        synth = (
            abs(rs[0] + e * bs[0]),
            abs(rs[1] + e * bs[1]),
            abs(rs[2] + e * bs[2]),
            abs(rs[3] + e * bs[3]),
        )
        if _passes(y, synth, tol, scale):
            if not any(abs(cmath.exp(1j * (psi - p)) - 1.0) <= 1e-9 for p in accepted):
                accepted.append(psi)
    if len(accepted) != 1:
        return None
    psi = accepted[0]
    forest.union(root_r, root_b, psi)
    return psi


def _resolvable_full(
    bin: BinState,
    forest: ColorForest,
    params: ModulationParams,
    tol: float = DEFAULT_TOL,
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
    sums: tuple[complex, complex, complex, complex] | None = None,
) -> tuple[str, Optional[tuple[int, complex]]]:
    """Resolvable-multiton engine; returns (status, payload) with status in
    {"resolved", "exhausted", "none"}. "exhausted" means the discovered
    members alone already reproduce all four measurements.

    ``sums`` are the members' one-color sums when the caller holds them (the
    engine's cache, for members it has checked share one color); otherwise
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
    if (
        abs(abs(a) - y1) <= tol * scale
        and abs(abs(b) - y2) <= tol * scale
        and abs(abs(c) - y3) <= tol * scale
        and abs(abs(dd) - y4) <= tol * scale
    ):
        return "exhausted", None

    # Guess: exactly one unknown ball on top of the knowns.
    if y1 <= tol * scale or y2 <= tol * scale:
        return "none", None
    if abs(c) <= tol * scale:
        return "none", None  # the k-variable construction divides by c
    carg = (y3 * y3 - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
    if abs(carg) > 1.0 + tol:
        return "none", None
    alpha0 = math.acos(min(max(carg, -1.0), 1.0))
    k4 = y3 / abs(c)
    hits: list[tuple[int, complex]] = []
    for sign in (1.0, -1.0):
        z = (y1 / y2) * cmath.exp(1j * sign * alpha0)
        k1 = 1.0 - z + 2.0 * (z * b - a) / c
        k2 = 1.0 + z
        k3 = 1.0 - z
        k5 = abs(k1) ** 2 - k4 * k4 * abs(k3) ** 2
        k6 = abs(k2) ** 2 * (1.0 - k4 * k4)
        k7 = 2.0 * (k2.conjugate() * (k4 * k4 * k3 - k1)).imag
        # squaring k5 cos^2 + k6 sin^2 = k7 sin cos with sin^2 = 1 - cos^2
        # gives a quadratic in u = cos^2(omega*ell)
        qa = (k5 - k6) ** 2 + k7 * k7
        qb = 2.0 * k6 * (k5 - k6) - k7 * k7
        qc = k6 * k6
        if qa <= 0.0:
            continue
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            if disc < -tol * max(qb * qb, abs(4.0 * qa * qc), 1e-300):
                continue
            disc = 0.0
        sq = math.sqrt(disc)
        for u in ((-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)):
            if u < -1e-9 or u > 1.0 + 1e-9:
                continue
            cos_abs = math.sqrt(min(max(u, 0.0), 1.0))
            for ell in location_candidates(cos_abs, params):
                if forest.has(ell):
                    continue
                g1, g2, g3, g4 = _coeffs(params, ell, coeff_cache)
                denom = g1 - z * g2
                if abs(denom) <= 1e-14:
                    continue
                x = (z * b - a) / denom
                synth = (
                    abs(a + g1 * x),
                    abs(b + g2 * x),
                    abs(c + g3 * x),
                    abs(dd + g4 * x),
                )
                if _passes(y, synth, tol, scale):
                    # membership is the costly filter; apply it last
                    if membership is not None and not membership(ell):
                        continue
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
    tol: float = DEFAULT_TOL,
    membership: Callable[[int], bool] | None = None,
    coeff_cache: dict | None = None,
) -> Optional[tuple[int, complex]]:
    """Guess: the bin holds its discovered members (one color) plus exactly
    one unknown ball. On success the ball is colored into the component and
    (index, value in the component's coordinate) is returned."""
    status, payload = _resolvable_full(bin, forest, params, tol, membership, coeff_cache)
    if status != "resolved":
        return None
    ell, x = payload
    root = forest.find(bin.discovered[0])
    forest.add_member(ell, x, root)
    return ell, x


# ---------------------------------------------------------------------------
# Decode engine
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, meas: MeasurementSet, ensemble, params: ModulationParams, tol: float):
        if params.n != ensemble.n:
            raise ParameterError(
                f"dimension mismatch: params n={params.n}, ensemble n={ensemble.n}"
            )
        if meas.M != ensemble.M:
            raise ParameterError(
                f"bin count mismatch: measurements M={meas.M}, ensemble M={ensemble.M}"
            )
        self.meas = meas
        self.ensemble = ensemble
        self.params = params
        self.tol = tol
        self.M = meas.M
        self.ybins: list[tuple[float, float, float, float]] = [
            tuple(row) for row in meas.y.tolist()
        ]
        self.discovered: list[list[int]] = [[] for _ in range(self.M)]
        self.dirty = bytearray(self.M)
        self.exhausted = bytearray(self.M)
        self.forest = ColorForest()
        self.stats = DecodeStats()
        self.coeff_cache: dict[int, tuple] = {}
        self.bins: dict[int, list[int]] = {}
        # per bin: None or (root, count, a, b, c, dd), see the module docstring
        self.sums: list[tuple | None] = [None] * self.M

    # -- helpers ------------------------------------------------------------

    def bins_of(self, ell: int) -> list[int]:
        got = self.bins.get(ell)
        if got is None:
            got = self.bins[ell] = self.ensemble.bins_of(ell)
        return got

    def membership(self, bin_id: int) -> Callable[[int], bool]:
        bins_of = self.bins_of
        return lambda ell: bin_id in bins_of(ell)

    def bin_sums(self, b0: int, root: int) -> tuple[complex, complex, complex, complex]:
        """One-color sums of bin ``b0``, whose members all lie in ``root``'s
        component: the cached entry extended by the members it does not
        cover, or a full re-sum when the entry was summed under another root."""
        mem = self.discovered[b0]
        entry = self.sums[b0]
        if entry is not None and entry[0] == root:
            count, sums = entry[1], entry[2:]
            if count == len(mem):
                return sums
        else:
            count, sums = 0, (0j, 0j, 0j, 0j)
        sums = _member_sums(mem, self.forest, self.params, self.coeff_cache, count, sums)
        self.sums[b0] = (root, len(mem), *sums)
        return sums

    def color_ball(self, ell: int, value: complex, root: int | None) -> None:
        """Color ``ell`` (into a new component if ``root`` is None) in the forest and its bins."""
        if root is None:
            self.forest.add_root(ell, value)
        else:
            self.forest.add_member(ell, value, root)
        for b in self.bins_of(ell):
            b0 = b - 1
            self.discovered[b0].append(ell)
            self.dirty[b0] = 1
            self.exhausted[b0] = 0

    def bin_state(self, b0: int) -> BinState:
        return BinState(bin_id=b0 + 1, y=self.ybins[b0], discovered=self.discovered[b0])

    # -- phases ---------------------------------------------------------------

    def phase_singletons(self) -> None:
        y = self.meas.y
        y1 = y[:, 0]
        tol = self.tol
        candidate = (y1 > 0) & (np.abs(y1 - y[:, 1]) <= tol * y1) & (
            np.abs(y1 - y[:, 3]) <= tol * y1
        )
        for b0 in np.flatnonzero(candidate):
            b0 = int(b0)
            self.stats.processor_calls += 1
            hit = process_singleton(
                self.bin_state(b0),
                self.params,
                tol,
                membership=self.membership(b0 + 1),
                coeff_cache=self.coeff_cache,
            )
            if hit is None:
                continue
            ell, mag = hit
            if self.forest.has(ell):
                continue  # already found through another of its bins
            self.color_ball(ell, complex(mag), None)

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
            process_mergeable(self.bin_state(b0), forest, self.params, self.tol, self.coeff_cache)

    def largest_root(self) -> int | None:
        best = None
        best_key = None
        for root in self.forest.roots():
            mem = self.forest.members(root)
            key = (len(mem), -min(mem))
            if best_key is None or key > best_key:
                best, best_key = root, key
        return best

    def restrict_to_component(self, root: int) -> None:
        """Uncolor every ball outside ``root``'s component and forget its value."""
        survivors = self.forest.component_items(root)
        self.forest = ColorForest()
        self.discovered = [[] for _ in range(self.M)]
        self.sums = [None] * self.M
        (first_ell, first_val), rest = survivors[0], survivors[1:]
        self.color_ball(first_ell, first_val, None)
        for ell, val in rest:
            self.color_ball(ell, val, first_ell)

    def decoded_fully(self, K_hint: int, allow_merge: bool) -> bool:
        """All balls colored, and (for the merging decoder) in one component."""
        if self.forest.ball_count < K_hint:
            return False
        return not allow_merge or len(self.forest.roots()) == 1

    def sweeps(self, K_hint: int, allow_merge: bool, max_sweeps: int) -> int:
        """Repeated ascending passes over dirty bins; returns sweeps executed.

        The single-color decoder is done once K balls are colored; the
        merging decoder must keep sweeping until no change, since colors can
        still combine after every ball is found.
        """
        forest = self.forest
        parent = forest._parent
        done = 0
        while done < max_sweeps and not self.decoded_fully(K_hint, allow_merge):
            done += 1
            changed = False
            for b0 in range(self.M):
                if self.exhausted[b0] or not self.dirty[b0]:
                    continue
                self.dirty[b0] = 0
                mem = self.discovered[b0]
                if not mem:
                    continue
                roots = set()
                for ell in mem:  # find(ell), skipped where it would be a no-op
                    p = parent[ell]
                    roots.add(p if parent[p] == p else forest.find(ell))
                if len(roots) == 1:
                    root = next(iter(roots))
                    if forest.ball_count >= K_hint:
                        continue  # nothing left to resolve, only merges remain
                    self.stats.processor_calls += 1
                    status, payload = _resolvable_full(
                        self.bin_state(b0),
                        forest,
                        self.params,
                        self.tol,
                        membership=self.membership(b0 + 1),
                        coeff_cache=self.coeff_cache,
                        sums=self.bin_sums(b0, root),
                    )
                    if status == "exhausted":
                        self.exhausted[b0] = 1
                        self.sums[b0] = None
                    elif status == "resolved":
                        ell, x = payload
                        self.color_ball(ell, x, root)
                        changed = True
                        if not allow_merge and forest.ball_count >= K_hint:
                            return done
                elif len(roots) == 2 and allow_merge:
                    self.stats.processor_calls += 1
                    ra, rb = roots
                    smaller = ra if forest.size(ra) <= forest.size(rb) else rb
                    moved = list(forest.members(smaller))
                    psi = process_mergeable(
                        self.bin_state(b0), forest, self.params, self.tol, self.coeff_cache
                    )
                    if psi is not None:
                        self.exhausted[b0] = 1
                        for ell in moved:  # their values rotated: revisit their bins
                            for b in self.bins_of(ell):
                                self.dirty[b - 1] = 1
                        changed = True
            if not changed:
                break
        return done

    # -- results --------------------------------------------------------------

    def resident_elements(self) -> int:
        """Per-bin state, discovered members and the forest, plus the caches:
        4 weights per ``coeff_cache`` entry, a ball's key and bins per
        ``bins`` entry, and 6 values per live ``sums`` entry."""
        return (
            5 * self.M
            + sum(len(d) for d in self.discovered)
            + 4 * self.forest.ball_count
            + 4 * len(self.coeff_cache)
            + sum(len(b) + 1 for b in self.bins.values())
            + 6 * sum(entry is not None for entry in self.sums)
        )

    def result(self, K_hint: int, sweeps: int) -> DecodeResult:
        root = self.largest_root()
        recovered = [] if root is None else sorted(self.forest.component_items(root))
        if K_hint > 0:
            fraction = len(recovered) / K_hint
        else:
            fraction = 1.0
        if not recovered and K_hint > 0:
            status = RecoveryStatus.FAILURE
        elif len(recovered) >= K_hint:
            status = RecoveryStatus.FULL_RECOVERY
        else:
            status = RecoveryStatus.PARTIAL_RECOVERY
        self.stats.sweeps = sweeps
        self.stats.resident_elements = self.resident_elements()
        return DecodeResult(
            recovered=recovered,
            status=status,
            fraction_recovered=fraction,
            stats=self.stats,
        )


def _decode(meas, ensemble, params, K_hint, tol, max_sweeps, merge: bool) -> DecodeResult:
    """Both decoders: ``merge`` keeps every singleton cluster and merges in the
    sweeps; otherwise one doubleton pass seeds a single cluster."""
    engine = _Engine(meas, ensemble, params or meas.params, tol)
    if K_hint == 0:
        return engine.result(0, 0)
    engine.phase_singletons()
    if engine.forest.ball_count == 0:
        return engine.result(K_hint, 1)
    if not merge:
        engine.phase_doubletons()
        engine.restrict_to_component(engine.largest_root())
    cap = max_sweeps if max_sweeps is not None else K_hint + 2
    done = engine.sweeps(K_hint, allow_merge=merge, max_sweeps=cap)
    return engine.result(K_hint, (1 if merge else 2) + done)


def decode_unicolor(
    meas: MeasurementSet,
    ensemble,
    params: ModulationParams | None = None,
    K_hint: int = 0,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
) -> DecodeResult:
    """Single-cluster decode: singletons, one doubleton-merge pass to seed the
    largest cluster, uncolor everything else, then grow that cluster with
    resolvable multitons until nothing changes."""
    return _decode(meas, ensemble, params, K_hint, tol, max_sweeps, merge=False)


def decode_multicolor(
    meas: MeasurementSet,
    ensemble,
    params: ModulationParams | None = None,
    K_hint: int = 0,
    tol: float = DEFAULT_TOL,
    max_sweeps: int | None = None,
) -> DecodeResult:
    """Many-cluster decode: singletons, then repeated sweeps that both resolve
    multitons and merge two-color bins, finally reporting the largest cluster."""
    return _decode(meas, ensemble, params, K_hint, tol, max_sweeps, merge=True)


def get_decoder(algorithm: str) -> Callable[..., DecodeResult]:
    """The decode function named ``algorithm``, read from the module namespace
    at call time so that a wrapper installed there is honoured."""
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return globals()[f"decode_{algorithm}"]
