"""Trigonometric modulation and the magnitude-only encoder.

Each bin of the code matrix contributes four scalar measurements, taken with
the modulation weights

    g1(ell) = exp(+i*omega*ell)
    g2(ell) = exp(-i*omega*ell)
    g3(ell) = 2*cos(omega*ell)
    g4(ell) = exp(+i*omega'*ell)             (the "check" row)

so the total measurement count is m = 4*M. In the general mode
omega = pi/(2n), which keeps cos(omega*ell) positive and injective over the
index range; in the Fourier-friendly mode omega = 2*pi/n (the only modulation
an integer circular shift can realize).

The measurement matrix is the row tensor product A = G (x) H of these
weights and the code matrix, and the program never forms it: ``encode``
adds each ball's weighted value into its bins. The dense A, which only the
tests build, comes from ``tests/oracles.py``.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
import numpy as np

from .core import ParameterError, SparseSignal, mix64, read_table

GENERAL = "general"
FOURIER = "fourier"


@dataclass(frozen=True)
class ModulationParams:
    """Modulation frequencies for one measurement set.

    ``L`` is the integer behind the check row, omega' = 2*pi*L/n; it is
    drawn once per measurement set and recorded for reproducibility.
    """

    n: int
    L: int
    mode: str = GENERAL

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.L <= self.n - 1:
            raise ParameterError(f"check shift L={self.L} outside [1, {self.n - 1}]")
        if self.mode not in (GENERAL, FOURIER):
            raise ParameterError(f"unknown modulation mode {self.mode!r}")

    @property
    def omega(self) -> float:
        if self.mode == GENERAL:
            return math.pi / (2.0 * self.n)
        return 2.0 * math.pi / self.n

    def check_phase(self, ell: int) -> float:
        """omega' * ell reduced mod 2*pi using exact integer arithmetic.

        For n ~ 1e10 the raw product overflows double precision long before
        the trig call; (L*ell) mod n keeps full accuracy. A numpy integer
        ``ell`` is taken as a Python int, whose product cannot wrap.
        """
        return 2.0 * math.pi * ((self.L * operator.index(ell)) % self.n) / self.n

    @staticmethod
    def draw(n: int, seed: int, mode: str = GENERAL) -> "ModulationParams":
        """Draw L uniformly from {1..n-1}; the degenerate L=0 is redrawn."""
        if n < 2:
            raise ParameterError("modulation needs n >= 2")
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ParameterError(f"seed must be an integer, got {seed!r}") from None
        attempt = 0
        while True:
            L = mix64(seed, 0xC4EC, attempt) % n
            attempt += 1
            if L != 0:
                return ModulationParams(n=n, L=L, mode=mode)


@dataclass(frozen=True)
class MeasurementSet:
    """M bins x 4 nonnegative magnitudes plus the modulation parameters."""

    y: np.ndarray  # shape (M, 4), float64
    params: ModulationParams

    def __post_init__(self):
        y = self.y
        if not (isinstance(y, np.ndarray) and y.ndim == 2 and y.shape[1] == 4 and y.dtype.kind in "iuf"):
            raise ParameterError(f"measurements must be a real (M, 4) array, got {np.shape(y)}")
        if not (np.isfinite(y).all() and (y >= 0).all()):
            raise ParameterError("measurements must be finite and nonnegative")

    @property
    def M(self) -> int:
        return self.y.shape[0]


def modulation_coeffs(params: ModulationParams, ell: int) -> tuple[complex, complex, float, complex]:
    """The four modulation weights (g1, g2, g3, g4) for ball ``ell``."""
    if not 1 <= ell <= params.n:
        raise ParameterError(f"index {ell} outside [1, {params.n}]")
    w = params.omega * ell
    g1 = cmath.exp(1j * w)
    g3 = 2.0 * math.cos(w)
    g4 = cmath.exp(1j * params.check_phase(ell))
    return g1, g1.conjugate(), g3, g4


def _coeffs_many(params: ModulationParams, ells: list[int]) -> np.ndarray:
    """4 x K array whose column k is ``modulation_coeffs(params, ells[k])``,
    bit for bit: numpy's complex exp of an imaginary argument is libm's cos
    and sin, exactly as in ``cmath.exp``, so g3 = 2 cos is read off g1, and g3
    carries a 0.0 imaginary part, as a float does in CPython's complex
    product."""
    w = params.omega * np.array(ells, dtype=np.float64)
    g = np.empty((4, len(ells)), dtype=np.complex128)
    g[0] = np.exp(1j * w)
    g[1] = np.conj(g[0])
    g[2] = 2.0 * g[0].real
    # the check phase, reduced mod n in exact integer arithmetic (see check_phase)
    residues = _mulmod(params.L, ells, params.n).astype(np.float64)
    g[3] = np.exp(1j * (2.0 * math.pi * residues / params.n))
    return g


def _mulmod(L: int, ells, n: int) -> np.ndarray:
    """(L * ell) % n for every ell in ``ells`` (0 <= L, ell <= n), exactly.

    Horner's rule over s-bit chunks of ell, with s = 64 - bitlength(n), keeps
    every intermediate below 2**64: the running residue shifted by s bits,
    and L times a chunk. For n >= 2**63 no chunk fits, and the residues are
    taken with Python ints."""
    bits = n.bit_length()
    s = 64 - bits
    if s < 1:
        return np.array([(L * operator.index(ell)) % n for ell in ells], dtype=object)
    e = np.asarray(ells, dtype=np.int64).astype(np.uint64)
    n64, L64, width, mask = np.uint64(n), np.uint64(L), np.uint64(s), np.uint64((1 << s) - 1)
    acc = np.zeros(e.shape, dtype=np.uint64)
    for shift in range(s * ((bits - 1) // s), -1, -s):
        chunk = (e >> np.uint64(shift)) & mask
        acc = ((acc << width) % n64 + (L64 * chunk) % n64) % n64
    return acc


def encode(signal: SparseSignal, ensemble, params: ModulationParams) -> MeasurementSet:
    """y = |A x| for A = G (x) H, computed implicitly in O(K*d) time.

    One numpy pass whose output is byte-identical to the plain loop: for
    every ball in support order, add ``g_k(ell) * value`` onto the four sums
    of each of its bins with Python complex arithmetic, then take ``abs``.
    Each product is CPython's complex product written out in real arithmetic
    (numpy's complex multiply can differ in the last bit), ``np.add.at``
    accumulates in ball order, and ``np.hypot`` is the complex ``abs``.
    Bins with no active ball carry explicit zeros so bin indexing stays
    aligned with the ensemble.
    """
    if signal.n != ensemble.n or signal.n != params.n:
        raise ParameterError(
            f"dimension mismatch: signal n={signal.n}, ensemble n={ensemble.n}, params n={params.n}"
        )
    # rows 0-3: the real parts of every bin's four sums; rows 4-7: the imaginary parts
    sums = np.zeros((8, ensemble.M), dtype=np.float64)
    if signal.support:
        ells = [ell for ell, _ in signal.support]
        v = np.array([value for _, value in signal.support], dtype=np.complex128)
        g = _coeffs_many(params, ells)
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i, as CPython computes it
        prod = np.vstack((g.real * v.real - g.imag * v.imag, g.real * v.imag + g.imag * v.real))
        bins = ensemble.bins_many(ells)
        ball, slot = np.nonzero(bins)  # row-major: ball order, zero padding skipped
        rows = bins[ball, slot] - 1
        for total, terms in zip(sums, prod):
            np.add.at(total, rows, terms[ball])
    y = np.ascontiguousarray(np.hypot(sums[:4], sums[4:]).T)
    return MeasurementSet(y=y, params=params)


# ---------------------------------------------------------------------------
# Measurement file format: header "M n L", then M lines "y1 y2 y3 y4"
# ---------------------------------------------------------------------------

def write_measurements(meas: MeasurementSet, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{meas.M} {meas.params.n} {meas.params.L}\n")
        for row in meas.y:
            fh.write(f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r} {float(row[3])!r}\n")


def read_measurements(path: str, mode: str = GENERAL) -> MeasurementSet:
    (M, n, L), rows, fail = read_table(path, "measurement", 3, 0, (float,) * 4)
    for lineno, row in enumerate(rows, start=2):
        if min(row) < 0:
            fail(lineno, "magnitudes must be nonnegative")
    y = np.array(rows, dtype=np.float64).reshape(M, 4)
    return MeasurementSet(y=y, params=ModulationParams(n=n, L=L, mode=mode))
