"""Shared domain types: sparse signals, decode results, seeding, phase alignment.

Conventions used throughout the package:

* signal indices are 1-based, ``ell`` in ``[1, n]``;
* complex values are double precision;
* every randomized construction is a pure function of (parameters, seed).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Gaussian values whose magnitude falls below this fraction of the model RMS
# are pushed back up, so "nonzero" components stay resolvable at tolerance.
MIN_MAGNITUDE_FRACTION = 1e-3


class ParameterError(ValueError):
    """Invalid argument combination (bad dimensions, ranges, coprimality...)."""


class AlignmentError(ValueError):
    """Global-phase alignment is undefined (no overlapping support)."""


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def mix64(*words: int) -> int:
    """Mix integer words into one 64-bit value (splitmix64 finalizer chain).

    Deterministic, order-sensitive, and statistically uniform; used both to
    derive independent per-trial seeds and as the pseudorandom function behind
    the implicit balls-and-bins ensemble.
    """
    h = 0
    for w in words:
        h = (h ^ (w & _MASK64)) & _MASK64
        h = (h + _GOLDEN) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = h ^ (h >> 31)
    return h


def rng_from_seed(seed: int) -> np.random.Generator:
    """Stable numpy generator for value draws."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class RecoveryStatus(Enum):
    FULL_RECOVERY = "FullRecovery"
    PARTIAL_RECOVERY = "PartialRecovery"
    FAILURE = "Failure"


@dataclass(frozen=True)
class SparseSignal:
    """Exactly K-sparse complex signal of ambient dimension ``n``.

    ``support`` holds (index, value) pairs with strictly increasing 1-based
    indices and nonzero values.
    """

    n: int
    support: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError(f"n must be nonnegative, got {self.n}")
        prev = 0
        for ell, value in self.support:
            if not 1 <= ell <= self.n:
                raise ParameterError(f"support index {ell} outside [1, {self.n}]")
            if ell <= prev:
                raise ParameterError("support indices must be strictly increasing")
            if value == 0:
                raise ParameterError(f"support value at index {ell} is zero")
            prev = ell

    @property
    def k(self) -> int:
        return len(self.support)

    def value_map(self) -> dict[int, complex]:
        return dict(self.support)

    def dense(self) -> np.ndarray:
        """Materialize the full vector; intended for small ``n`` only."""
        x = np.zeros(self.n, dtype=np.complex128)
        for ell, value in self.support:
            x[ell - 1] = value
        return x

    def rotated(self, phi: float) -> "SparseSignal":
        rot = cmath.exp(1j * phi)
        return SparseSignal(self.n, tuple((ell, v * rot) for ell, v in self.support))


@dataclass
class DecodeResult:
    """Outcome of a merge-and-color decode.

    ``recovered`` values live in the decoder's global coordinate, i.e. they
    match the true signal only up to one shared rotation.
    """

    recovered: list[tuple[int, complex]]
    status: RecoveryStatus
    fraction_recovered: float
    stats: DecodeStats


@dataclass
class DecodeStats:
    """Work/memory instrumentation, all O(K); ``sweeps`` includes the seeding phases."""

    sweeps: int = 0
    processor_calls: int = 0
    resident_elements: int = 0


# ---------------------------------------------------------------------------
# Signal generation
# ---------------------------------------------------------------------------

def generate_signal(n: int, K: int, seed: int, value_model: str = "gaussian") -> SparseSignal:
    """Draw a K-sparse signal: support uniform without replacement, values per model.

    value_model: "gaussian" (complex normal, magnitude clamped away from 0)
    or "unit" (uniform phase on the unit circle).
    """
    if not 0 <= K <= n:
        raise ParameterError(f"need 0 <= K <= n, got K={K}, n={n}")
    if value_model not in ("gaussian", "unit"):
        raise ParameterError(f"unknown value model {value_model!r}")
    if K == 0:
        return SparseSignal(n, ())

    # Rejection sampling keeps this O(K) even for n ~ 1e10.
    chosen: set[int] = set()
    counter = 0
    while len(chosen) < K:
        v = 1 + mix64(seed, 0xA11CE, counter) % n
        counter += 1
        chosen.add(v)
    indices = sorted(chosen)

    rng = rng_from_seed(mix64(seed, 0x7A1))
    if value_model == "unit":
        phases = rng.uniform(0.0, 2.0 * math.pi, size=K)
        values = np.exp(1j * phases)
    else:
        raw = rng.normal(size=K) + 1j * rng.normal(size=K)
        values = raw / math.sqrt(2.0)  # CN(0, 1): unit RMS
        mags = np.abs(values)
        floor = MIN_MAGNITUDE_FRACTION  # model RMS is 1
        small = mags < floor
        if np.any(small):
            # keep the phase, push the magnitude up to the floor
            phases = np.where(mags > 0, values / np.where(mags == 0, 1, mags), 1.0)
            values = np.where(small, phases * floor, values)
    return SparseSignal(n, tuple((ell, complex(v)) for ell, v in zip(indices, values)))


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def align_global_phase(estimate: Sequence[tuple[int, complex]], truth: SparseSignal) -> float:
    """Residual of ``estimate`` against ``truth`` modulo one global rotation.

    The rotation is fixed in closed form from the first matched component
    (lowest index); the returned residual is the max relative component error
    after applying it. Estimated indices must lie inside the true support.
    """
    truth_map = truth.value_map()
    matched = sorted((ell, v) for ell, v in estimate)
    if not matched:
        raise AlignmentError("empty estimate: alignment undefined")
    for ell, _ in matched:
        if ell not in truth_map:
            raise AlignmentError(f"estimated index {ell} not in true support")
    first_ell, first_val = matched[0]
    if first_val == 0:
        raise AlignmentError("estimated value of the anchor component is zero")
    rot = truth_map[first_ell] / first_val
    rot /= abs(rot)  # unit modulus: correct phase only
    worst = 0.0
    for ell, v in matched:
        t = truth_map[ell]
        worst = max(worst, abs(v * rot - t) / abs(t))
    return worst


# ---------------------------------------------------------------------------
# Signal file format: header "n K", then K lines "index re im"
# ---------------------------------------------------------------------------

def write_signal(signal: SparseSignal, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{signal.n} {signal.k}\n")
        for ell, v in signal.support:
            fh.write(f"{ell} {v.real!r} {v.imag!r}\n")


def read_table(path: str, what: str, header_width: int, count_at: int, row_kinds: tuple):
    """Header and data rows of a whitespace-separated ``what`` file.

    The header is ``header_width`` nonnegative integers; ``header[count_at]``
    rows follow, each with one field per entry of ``row_kinds`` (int or
    float) and parsed by it, then nothing but blank lines. Returns
    (header, rows, fail), where ``fail(lineno, why)`` raises the
    ParameterError that every malformed file gets instead of a traceback.
    """
    with open(path) as fh:
        lines = [line.split() for line in fh]

    def fail(lineno: int, why: str):
        raise ParameterError(f"{path}, line {lineno}: bad {what} file: {why}")

    def parse(kind, text: str, lineno: int):
        try:
            value = kind(text)
        except ValueError:
            fail(lineno, f"{text!r} is not {'an integer' if kind is int else 'a number'}")
        if kind is float and not math.isfinite(value):
            fail(lineno, f"{text!r} is not finite")
        return value

    if not lines or len(lines[0]) != header_width:
        fail(1, f"the header needs {header_width} integers")
    header = [parse(int, f, 1) for f in lines[0]]
    if min(header) < 0:
        fail(1, "header values must be nonnegative")
    count = header[count_at]
    if len(lines) - 1 < count:
        fail(len(lines) + 1, f"the header announces {count} rows, the file holds {len(lines) - 1}")
    rows = []
    for lineno, parts in enumerate(lines[1 : 1 + count], start=2):
        if len(parts) != len(row_kinds):
            fail(lineno, f"expected {len(row_kinds)} fields, found {len(parts)}")
        rows.append([parse(kind, f, lineno) for kind, f in zip(row_kinds, parts)])
    for lineno, parts in enumerate(lines[1 + count :], start=2 + count):
        if parts:
            fail(lineno, f"data after the {count} announced rows")
    return header, rows, fail


def read_signal(path: str) -> SparseSignal:
    (n, _), rows, _ = read_table(path, "signal", 2, 1, (int, float, float))
    return SparseSignal(n, tuple((ell, complex(re, im)) for ell, re, im in rows))
