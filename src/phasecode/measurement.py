"""Trigonometric modulation and the magnitude-only encoder.

Each bin of the code matrix contributes four scalar measurements, taken with
the modulation weights

    g1(ell) = exp(+i*omega*ell)
    g2(ell) = exp(-i*omega*ell)
    g3(ell) = 2*cos(omega*ell)
    g4(ell) = exp(+i*omega_prime*ell)        (the "check" row)

so the total measurement count is m = 4*M. In the general mode
omega = pi/(2n), which keeps cos(omega*ell) positive and injective over the
index range; in the Fourier-friendly mode omega = 2*pi/n (the only modulation
an integer circular shift can realize).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
import numpy as np

from .core import ParameterError, SparseSignal, mix64, read_table

GENERAL = "general"
FOURIER = "fourier"


@dataclass(frozen=True)
class ModulationParams:
    """Modulation frequencies for one measurement set.

    ``L`` is the integer behind the check row, omega_prime = 2*pi*L/n; it is
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

    @property
    def omega_prime(self) -> float:
        return 2.0 * math.pi * self.L / self.n

    def check_phase(self, ell: int) -> float:
        """omega_prime * ell reduced mod 2*pi using exact integer arithmetic.

        For n ~ 1e10 the raw product overflows double precision long before
        the trig call; (L*ell) mod n keeps full accuracy.
        """
        return 2.0 * math.pi * ((self.L * ell) % self.n) / self.n

    @staticmethod
    def draw(n: int, seed: int, mode: str = GENERAL) -> "ModulationParams":
        """Draw L uniformly from {1..n-1}; the degenerate L=0 is redrawn."""
        if n < 2:
            raise ParameterError("modulation needs n >= 2")
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
    ensemble_ref: str = ""

    @property
    def M(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return 4 * self.M


def modulation_coeffs(params: ModulationParams, ell: int) -> tuple[complex, complex, float, complex]:
    """The four modulation weights (g1, g2, g3, g4) for ball ``ell``."""
    if not 1 <= ell <= params.n:
        raise ParameterError(f"index {ell} outside [1, {params.n}]")
    w = params.omega * ell
    g1 = cmath.exp(1j * w)
    g3 = 2.0 * math.cos(w)
    g4 = cmath.exp(1j * params.check_phase(ell))
    return g1, g1.conjugate(), g3, g4


def encode(signal: SparseSignal, ensemble, params: ModulationParams) -> MeasurementSet:
    """y = |A x| for A = G (x) H, computed implicitly in O(K*d) time.

    Bins with no active ball carry explicit zeros so bin indexing stays
    aligned with the ensemble.
    """
    if signal.n != ensemble.n or signal.n != params.n:
        raise ParameterError(
            f"dimension mismatch: signal n={signal.n}, ensemble n={ensemble.n}, params n={params.n}"
        )
    sums: dict[int, list[complex]] = {}
    for ell, value in signal.support:
        g1, g2, g3, g4 = modulation_coeffs(params, ell)
        for b in ensemble.bins_of(ell):
            acc = sums.get(b)
            if acc is None:
                acc = [0j, 0j, 0j, 0j]
                sums[b] = acc
            acc[0] += g1 * value
            acc[1] += g2 * value
            acc[2] += g3 * value
            acc[3] += g4 * value
    y = np.zeros((ensemble.M, 4), dtype=np.float64)
    for b, acc in sums.items():
        y[b - 1] = [abs(acc[0]), abs(acc[1]), abs(acc[2]), abs(acc[3])]
    return MeasurementSet(y=y, params=params, ensemble_ref=ensemble.describe())


def row_tensor_product(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Stacked blocks A = [A_1; ...; A_M] with A_i(j, k) = G(j, k) * H(i, k).

    Dense helper for documentation and oracle tests; intended for small n.
    """
    G = np.asarray(G)
    H = np.asarray(H)
    if G.ndim != 2 or H.ndim != 2 or G.shape[1] != H.shape[1]:
        raise ParameterError(
            f"column mismatch: G is {G.shape}, H is {H.shape}"
        )
    blocks = [G * H[i, :][None, :] for i in range(H.shape[0])]
    return np.vstack(blocks)


def modulation_matrix(params: ModulationParams) -> np.ndarray:
    """Dense 4 x n modulation matrix (small-n helper for the dense oracle)."""
    if params.n > 100_000:
        raise ParameterError("dense modulation matrix refused for large n")
    G = np.zeros((4, params.n), dtype=np.complex128)
    for ell in range(1, params.n + 1):
        G[:, ell - 1] = modulation_coeffs(params, ell)
    return G


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
