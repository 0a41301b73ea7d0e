"""Shared constructors for synthetic bins and toy instances."""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from phasecode.core import SparseSignal
from phasecode.decoder import ColorForest
from phasecode.measurement import ModulationParams, modulation_coeffs


class Bin(NamedTuple):
    """A synthetic bin: its four measurements and the members the decoder
    has discovered in it."""

    y: tuple[float, float, float, float]
    discovered: list[int]


def random_value(rng) -> complex:
    v = complex(rng.normal(), rng.normal())
    while abs(v) < 1e-3:
        v = complex(rng.normal(), rng.normal())
    return v


def bin_sums(params: ModulationParams, balls: list[tuple[int, complex]]):
    """The four sums g_k(ell) * v over ``balls``, added in their order."""
    sums = [0j, 0j, 0j, 0j]
    for ell, v in balls:
        g = modulation_coeffs(params, ell)
        for k in range(4):
            sums[k] += g[k] * v
    return tuple(sums)


def bin_measurements(params: ModulationParams, balls: list[tuple[int, complex]]):
    """The 4-tuple a bin holding ``balls`` would measure."""
    return tuple(abs(s) for s in bin_sums(params, balls))


def class_sums(st: Bin, forest: ColorForest, params: ModulationParams):
    """The ``bin_sums`` of each color class among the bin's members, in the
    frame of the class's root; the class of the first member comes first,
    as the decoder groups a two-color bin."""
    groups: dict[int, list] = {}
    for ell in st.discovered:
        groups.setdefault(forest.find(ell), []).append((ell, forest.value(ell)))
    return [bin_sums(params, balls) for balls in groups.values()]


def distinct_indices(rng, n: int, count: int) -> list[int]:
    out: set[int] = set()
    while len(out) < count:
        out.add(int(rng.integers(1, n + 1)))
    return sorted(out)


def make_singleton_case(rng, params: ModulationParams, true_case: bool):
    """A 1-ball bin (true) or a generic 2-ball bin (false)."""
    count = 1 if true_case else 2
    idx = distinct_indices(rng, params.n, count)
    balls = [(ell, random_value(rng)) for ell in idx]
    return Bin(bin_measurements(params, balls), []), balls


def make_resolvable_case(rng, params: ModulationParams, true_case: bool, known_count: int = 2):
    """Knowns in one component plus 1 unknown (true) or 2 unknowns (false).

    Returns (bin, forest, knowns, unknowns); the bin's discovered list holds
    the knowns, whose component carries a random hidden global rotation (the
    decoder works in the component's local frame).
    """
    unknown_count = 1 if true_case else 2
    idx = distinct_indices(rng, params.n, known_count + unknown_count)
    rng.shuffle(idx)
    known_idx = idx[:known_count]
    unknown_idx = idx[known_count:]
    phase = rng.uniform(0, 2 * math.pi)
    rot = cmath.exp(1j * phase)
    knowns_local = [(ell, random_value(rng)) for ell in known_idx]
    true_balls = [(ell, v * rot) for ell, v in knowns_local]
    unknowns_true = [(ell, random_value(rng)) for ell in unknown_idx]
    bin_y = bin_measurements(params, true_balls + unknowns_true)
    forest = ColorForest()
    root = forest.add_root(knowns_local[0][0], knowns_local[0][1])
    for ell, v in knowns_local[1:]:
        forest.add_member(ell, v, root)
    st = Bin(bin_y, [ell for ell, _ in knowns_local])
    # the unknown's value expressed in the knowns' local frame
    unknowns_local = [(ell, v / rot) for ell, v in unknowns_true]
    return st, forest, knowns_local, unknowns_local


def make_mergeable_case(rng, params: ModulationParams, true_case: bool, sizes=(1, 1)):
    """Two colored classes filling a bin (true) or with one hidden extra ball.

    Returns (bin, forest, expected_rotation): the rotation that maps the
    second class's local frame into the first's.
    """
    extra = 0 if true_case else 1
    idx = distinct_indices(rng, params.n, sizes[0] + sizes[1] + extra)
    rng.shuffle(idx)
    idx_r = idx[: sizes[0]]
    idx_b = idx[sizes[0] : sizes[0] + sizes[1]]
    idx_hidden = idx[sizes[0] + sizes[1] :]
    rot_r = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    rot_b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    local_r = [(ell, random_value(rng)) for ell in idx_r]
    local_b = [(ell, random_value(rng)) for ell in idx_b]
    true_balls = [(ell, v * rot_r) for ell, v in local_r]
    true_balls += [(ell, v * rot_b) for ell, v in local_b]
    true_balls += [(ell, random_value(rng)) for ell in idx_hidden]
    bin_y = bin_measurements(params, true_balls)
    forest = ColorForest()
    root_r = forest.add_root(local_r[0][0], local_r[0][1])
    for ell, v in local_r[1:]:
        forest.add_member(ell, v, root_r)
    root_b = forest.add_root(local_b[0][0], local_b[0][1])
    for ell, v in local_b[1:]:
        forest.add_member(ell, v, root_b)
    st = Bin(bin_y, idx_r + idx_b)
    expected = cmath.phase(rot_b / rot_r)
    return st, forest, expected


def signal_from_pairs(n: int, pairs) -> SparseSignal:
    return SparseSignal(n, tuple(sorted((ell, complex(v)) for ell, v in pairs)))
