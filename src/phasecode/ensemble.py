"""Implicit binary code matrices: balls-and-bins, CRT and explicit ensembles.

The M x n matrix H is never materialized. Both ensembles answer
``bins_of(ell)`` (the d bins occupied by ball ``ell``) in O(d) time with O(1)
per-query memory, which is what makes O(K) decoding of signals with n ~ 1e10
possible. ``bins_many(ells)`` answers a whole batch of balls at once in numpy:
row i equals ``bins_of(ells[i])``, padded with zeros (which name no bin)
where a ball of an irregular explicit ensemble has fewer bins than another.

``ExplicitEnsemble`` lists each bin's members by hand, for toy graphs; it is
the only ensemble whose balls can sit in different numbers of bins. The dense
copy of H and a support's per-bin member lists, which only the tests read,
are built in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ParameterError, mix64, mix_round


@dataclass(frozen=True)
class BallsAndBinsEnsemble:
    """d-left-regular random ensemble: ball ell occupies d distinct bins,
    chosen by a seeded pseudorandom function of (seed, ell)."""

    n: int
    M: int
    d: int
    seed: int

    kind = "balls"

    def bins_of(self, ell: int) -> list[int]:
        """Draw ``1 + mix64(seed, ell, attempt) % M`` for attempt = 0, 1, ...
        and keep the first d distinct bins; (seed, ell) is hashed once."""
        ell = _ball_index(ell, self.n)
        h = mix64(self.seed, ell)
        bins: list[int] = []
        attempt = 0
        while len(bins) < self.d:
            b = 1 + mix_round(h, attempt) % self.M
            attempt += 1
            if b not in bins:
                bins.append(b)
        return bins

    def bins_many(self, ells) -> np.ndarray:
        """``bins_of`` for a batch: the first d draws of every ball at once,
        with ``bins_of`` itself for the rare row that repeats a bin."""
        ells = _check_balls(ells, self.n)
        h = mix64(self.seed, ells.astype(np.uint64))
        attempts = np.arange(self.d, dtype=np.uint64)
        out = (1 + mix_round(h[:, None], attempts) % np.uint64(self.M)).astype(np.int64)
        drawn = np.sort(out, axis=1)
        for i in np.flatnonzero((drawn[:, 1:] == drawn[:, :-1]).any(axis=1)):
            out[i] = self.bins_of(int(ells[i]))
        return out


@dataclass(frozen=True)
class CrtEnsemble:
    """Deterministic ensemble: stage j holds ``stage_heights[j]`` bins and
    ball ell lands on residue (ell - 1) mod stage height.

    ``stage_heights`` are the alpha-fold cyclic products of the pairwise
    coprime base set, so n = prod(coprimes) while the number of bins scales
    like n**(alpha/d)."""

    coprimes: tuple[int, ...]
    alpha: int
    n: int
    stage_heights: tuple[int, ...]
    stage_offsets: tuple[int, ...]
    M: int

    kind = "crt"

    @property
    def d(self) -> int:
        return len(self.stage_heights)

    def bins_of(self, ell: int) -> list[int]:
        ell = _ball_index(ell, self.n)
        r = ell - 1
        return [off + (r % f) + 1 for off, f in zip(self.stage_offsets, self.stage_heights)]

    def bins_many(self, ells) -> np.ndarray:
        r = _check_balls(ells, self.n)[:, None] - 1
        return np.asarray(self.stage_offsets) + r % np.asarray(self.stage_heights) + 1


@dataclass(frozen=True)
class ExplicitEnsemble:
    """Hand-specified bin membership, for toy graphs and debugging only."""

    n: int
    members: tuple[tuple[int, ...], ...]  # members[i] = balls in bin i+1

    kind = "explicit"

    @property
    def M(self) -> int:
        return len(self.members)

    @property
    def d(self) -> int:
        counts = [len(self.bins_of(ell)) for ell in range(1, self.n + 1)]
        return max(counts) if counts else 0

    def bins_of(self, ell: int) -> list[int]:
        ell = _ball_index(ell, self.n)
        return [i + 1 for i, balls in enumerate(self.members) if ell in balls]

    def bins_many(self, ells) -> np.ndarray:
        rows = [self.bins_of(ell) for ell in _check_balls(ells, self.n).tolist()]
        out = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.int64)
        for i, bins in enumerate(rows):
            out[i, : len(bins)] = bins
        return out


def _ball_index(ell, n: int) -> int:
    """``ell`` as a Python int in [1, n]; numpy integers are accepted, and a
    float or other non-integer raises rather than being truncated."""
    try:
        ell = operator.index(ell)
    except TypeError:
        raise ParameterError(f"ball index {ell!r} is not an integer") from None
    if not 1 <= ell <= n:
        raise ParameterError(f"ball index {ell} outside [1, {n}]")
    return ell


def _check_balls(ells, n: int) -> np.ndarray:
    """``ells`` as an int64 array, every index in [1, n]."""
    try:
        ells = np.asarray(ells, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ParameterError("batched ensemble queries need ball indices below 2**63") from None
    if len(ells) and not (1 <= ells.min() and ells.max() <= n):
        bad = ells[(ells < 1) | (ells > n)][0]
        raise ParameterError(f"ball index {bad} outside [1, {n}]")
    return ells


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_balls_and_bins(n: int, M: int, d: int, seed: int) -> BallsAndBinsEnsemble:
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if d < 1 or d > M:
        raise ParameterError(f"need 1 <= d <= M, got d={d}, M={M}")
    return BallsAndBinsEnsemble(n=n, M=M, d=d, seed=seed)


def build_crt(coprimes: Sequence[int], alpha: int = 1) -> CrtEnsemble:
    cop = tuple(int(c) for c in coprimes)
    d = len(cop)
    if d < 1 or any(c < 2 for c in cop):
        raise ParameterError(f"coprime heights must all be >= 2, got {cop}")
    for i in range(d):
        for j in range(i + 1, d):
            if math.gcd(cop[i], cop[j]) != 1:
                raise ParameterError(f"{cop[i]} and {cop[j]} are not coprime")
    if not 1 <= alpha <= d:
        raise ParameterError(f"need 1 <= alpha <= d, got alpha={alpha}")
    heights = tuple(
        math.prod(cop[(i + j) % d] for j in range(alpha)) for i in range(d)
    )
    offsets = tuple(int(v) for v in np.cumsum((0,) + heights[:-1]))
    n = math.prod(cop)
    return CrtEnsemble(
        coprimes=cop,
        alpha=alpha,
        n=n,
        stage_heights=heights,
        stage_offsets=offsets,
        M=sum(heights),
    )
