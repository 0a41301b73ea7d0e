"""Implicit binary code matrices: balls-and-bins and CRT ensembles.

The M x n matrix H is never materialized. Both ensembles answer
``bins_of(ell)`` (the d bins occupied by ball ``ell``) in O(d) time with O(1)
per-query memory, which is what makes O(K) decoding of signals with n ~ 1e10
possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ParameterError, mix64

# Hard cap for any operation that materializes an M x n matrix.
DENSE_EXPORT_LIMIT = 10_000


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
        if not 1 <= ell <= self.n:
            raise ParameterError(f"ball index {ell} outside [1, {self.n}]")
        bins: list[int] = []
        attempt = 0
        while len(bins) < self.d:
            b = 1 + mix64(self.seed, ell, attempt) % self.M
            attempt += 1
            if b not in bins:
                bins.append(b)
        return bins

    def describe(self) -> str:
        return f"balls(n={self.n},M={self.M},d={self.d},seed={self.seed})"


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
        if not 1 <= ell <= self.n:
            raise ParameterError(f"ball index {ell} outside [1, {self.n}]")
        r = ell - 1
        return [off + (r % f) + 1 for off, f in zip(self.stage_offsets, self.stage_heights)]

    def describe(self) -> str:
        cop = ",".join(str(c) for c in self.coprimes)
        return f"crt(coprimes={cop},alpha={self.alpha})"


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
        if not 1 <= ell <= self.n:
            raise ParameterError(f"ball index {ell} outside [1, {self.n}]")
        return [i + 1 for i, balls in enumerate(self.members) if ell in balls]

    def describe(self) -> str:
        return f"explicit(n={self.n},M={self.M})"


@dataclass
class InducedGraph:
    """Bipartite graph restricted to the signal's support: per-bin member lists."""

    M: int
    bins: list[list[int]]

    @property
    def edge_count(self) -> int:
        return sum(len(b) for b in self.bins)


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


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def induce_graph(ensemble, support: Iterable[int]) -> InducedGraph:
    """Per-bin member lists restricted to ``support`` (edge count = K*d)."""
    bins: list[list[int]] = [[] for _ in range(ensemble.M)]
    for ell in support:
        for b in ensemble.bins_of(ell):
            bins[b - 1].append(ell)
    return InducedGraph(M=ensemble.M, bins=bins)


def dense_matrix(ensemble) -> np.ndarray:
    """Explicit M x n copy of H, for debugging and doc examples only."""
    if ensemble.n > DENSE_EXPORT_LIMIT:
        raise ParameterError(
            f"dense export refused for n={ensemble.n} > {DENSE_EXPORT_LIMIT}"
        )
    H = np.zeros((ensemble.M, ensemble.n), dtype=np.int8)
    for ell in range(1, ensemble.n + 1):
        for b in ensemble.bins_of(ell):
            H[b - 1, ell - 1] = 1
    return H
