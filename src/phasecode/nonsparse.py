"""Deterministic phase retrieval for non-sparse signals.

Two schemes:

* the general chain scheme with 3n-2 scalar measurements: component
  magnitudes plus plain and rotated anchor sums, decoded by the cosine law
  with a rotated-sum sign check;
* the Fourier-friendly variant with 3n measurements realized by three
  diagonal masks and one lens, which chains the spectrum against the first
  time sample.

DFT convention: unnormalized forward transform (numpy.fft.fft), so
sum |X|^2 = n * sum |x|^2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError

# components whose magnitude falls below RELATIVE_ZERO * rms are treated as 0
RELATIVE_ZERO = 1e-9


class DegenerateAnchorError(ValueError):
    """The anchor component is (numerically) zero, so chaining is undefined."""


class UnresolvableSpectrumError(ValueError):
    """Frequency bins with (numerically) zero magnitude block the chaining."""

    def __init__(self, bins: list[int]):
        self.bins = bins
        super().__init__(f"spectrum bins too small to chain: {bins}")


class InconsistentMeasurementsError(ValueError):
    """No admissible solution exists; the measurements are not a valid triple."""


# ---------------------------------------------------------------------------
# General scheme: 3n - 2 measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMeasurements:
    """|x_a| for all components, |x_a + x_ell| and |x_a + e^{i w (ell-1)} x_ell|
    for every other component, anchored at index ``anchor``. 3n-2 scalars."""

    mags: np.ndarray          # n magnitudes
    sums: np.ndarray          # n-1 anchor sums
    rotated_sums: np.ndarray  # n-1 rotated anchor sums
    omega: float
    anchor: int = 1

    @property
    def n(self) -> int:
        return len(self.mags)

    @property
    def count(self) -> int:
        return len(self.mags) + len(self.sums) + len(self.rotated_sums)


def chain_measure(x: np.ndarray, anchor: int = 1) -> ChainMeasurements:
    """Magnitude-only chain measurements of a dense complex vector, rotated
    at omega = pi/2n."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    if n < 2:
        raise ParameterError("chain scheme needs n >= 2")
    if not 1 <= anchor <= n:
        raise ParameterError(f"anchor {anchor} outside [1, {n}]")
    omega = math.pi / (2.0 * n)
    others = np.array([ell for ell in range(1, n + 1) if ell != anchor])
    xa = x[anchor - 1]
    xo = x[others - 1]
    # rotation indexed by measurement row (1 .. n-1), never zero; for the
    # default anchor this is exactly exp(i w (ell - 1))
    rot = np.exp(1j * omega * np.arange(1, n))
    return ChainMeasurements(
        mags=np.abs(x),
        sums=np.abs(xa + xo),
        rotated_sums=np.abs(xa + rot * xo),
        omega=omega,
        anchor=anchor,
    )


def _resolve_phase(y1: float, y2: float, y_sum: float, y_rot: float, rot_angle: float) -> float:
    """Relative phase of a component against the anchor.

    cos(phi) comes from the plain sum via the cosine law; the rotated sum
    decides between +-acos by matching cos(phi + rot_angle).
    """
    carg = (y_sum * y_sum - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
    phi0 = math.acos(min(max(carg, -1.0), 1.0))
    target = (y_rot * y_rot - y1 * y1 - y2 * y2) / (2.0 * y1 * y2)
    best_phi, best_err = 0.0, math.inf
    for phi in (phi0, -phi0):
        err = abs(math.cos(phi + rot_angle) - target)
        if err < best_err:
            best_phi, best_err = phi, err
    return best_phi


def chain_decode(meas: ChainMeasurements) -> np.ndarray:
    """Recover the signal (anchor set real positive) from chain measurements.

    Components whose magnitude is below RELATIVE_ZERO of the signal RMS are
    returned as exact zeros; an anchor below that threshold is an error since
    every other phase is defined relative to it.
    """
    n = meas.n
    mags = meas.mags
    rms = math.sqrt(float(np.mean(mags**2)))
    tiny = RELATIVE_ZERO * rms
    y1 = float(mags[meas.anchor - 1])
    if y1 <= tiny:
        raise DegenerateAnchorError(
            f"anchor |x_{meas.anchor}| = {y1:.3e} too small to chain against"
        )
    x = np.zeros(n, dtype=np.complex128)
    x[meas.anchor - 1] = y1
    others = [ell for ell in range(1, n + 1) if ell != meas.anchor]
    for pos, ell in enumerate(others):
        y2 = float(mags[ell - 1])
        if y2 <= tiny:
            continue  # a true zero needs no phase
        phi = _resolve_phase(
            y1,
            y2,
            float(meas.sums[pos]),
            float(meas.rotated_sums[pos]),
            meas.omega * (pos + 1),
        )
        x[ell - 1] = y2 * cmath.exp(1j * phi)
    return x


# ---------------------------------------------------------------------------
# Fourier-friendly scheme: 3n measurements, three masks and one lens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FfNonsparseMeasurements:
    """|F M1 x|, |F M2 x|, |F M3 x| with M1 = I, M2 = diag(2,1,...,1),
    M3 = diag(1+i,1,...,1). 3n scalars."""

    plain: np.ndarray    # |X|
    boosted: np.ndarray  # |X + x_1 * ones|
    rotated: np.ndarray  # |X + i * x_1 * ones|

    @property
    def n(self) -> int:
        return len(self.plain)

    @property
    def count(self) -> int:
        return 3 * len(self.plain)


def ff_nonsparse_measure(x: np.ndarray) -> FfNonsparseMeasurements:
    x = np.asarray(x, dtype=np.complex128)
    if len(x) < 2:
        raise ParameterError("scheme needs n >= 2")
    X = np.fft.fft(x)
    x1 = x[0]
    return FfNonsparseMeasurements(
        plain=np.abs(X),
        boosted=np.abs(X + x1),
        rotated=np.abs(X + 1j * x1),
    )


def solve_anchor_magnitude(y1: float, y2: float, y3: float) -> list[float]:
    """Candidates for |x_1|^2 from one frequency bin's measurement triple.

    With t = |x_1|^2 the triple satisfies
    (y2^2 - y1^2 - t)^2 + (y3^2 - y1^2 - t)^2 = 4 y1^2 t, a quadratic in t;
    the nonnegative real roots are returned (at most two).
    """
    if y1 <= 0.0:
        raise ParameterError("anchor solve needs |X_1| > 0")
    A = y2 * y2 - y1 * y1
    B = y3 * y3 - y1 * y1
    # 2 t^2 - (2A + 2B + 4 y1^2) t + A^2 + B^2 = 0
    qb = -(2.0 * A + 2.0 * B + 4.0 * y1 * y1)
    qc = A * A + B * B
    disc = qb * qb - 8.0 * qc
    if disc < 0.0:
        if disc < -1e-9 * max(qb * qb, 1.0):
            raise InconsistentMeasurementsError(
                "no real anchor magnitude explains this measurement triple"
            )
        disc = 0.0
    sq = math.sqrt(disc)
    roots = [(-qb + sq) / 4.0, (-qb - sq) / 4.0]
    return [t for t in roots if t >= 0.0]


def ff_nonsparse_decode(meas: FfNonsparseMeasurements) -> np.ndarray:
    """Recover x from the three mask measurements, up to a global phase.

    The anchor magnitude |x_1| is intersected across all n per-bin candidate
    pairs (majority vote); each X_i is then chained against x_1 through the
    boosted (cosine) and rotated (sine) sums, and the signal is the inverse
    DFT. Requires |x_1| > 0 and every |X_i| > 0, both numerically.
    """
    n = meas.n
    rms = math.sqrt(float(np.mean(meas.plain**2)) / n)
    tiny = RELATIVE_ZERO * rms
    bad = [i + 1 for i in range(n) if meas.plain[i] <= tiny * math.sqrt(n)]
    if bad:
        raise UnresolvableSpectrumError(bad)

    # anchor magnitude: per-bin candidates, scored across all bins
    per_bin = [
        solve_anchor_magnitude(
            float(meas.plain[i]), float(meas.boosted[i]), float(meas.rotated[i])
        )
        for i in range(n)
    ]
    if not per_bin[0]:
        raise InconsistentMeasurementsError("first bin admits no anchor magnitude")
    scale = max((max(c) for c in per_bin if c), default=1.0) or 1.0
    best = None  # (votes, -total_err, t)
    for t in per_bin[0]:
        votes = 0
        total_err = 0.0
        for cands in per_bin:
            err = min((abs(t - u) for u in cands), default=math.inf)
            total_err += min(err, scale)
            if err <= 1e-8 * scale:
                votes += 1
        cand = (votes, -total_err, t)
        if best is None or cand > best:
            best = cand
    best_t = best[2]
    if best_t <= tiny * tiny:
        raise DegenerateAnchorError("anchor |x_1| is numerically zero")
    x1 = math.sqrt(best_t)

    # chain every spectrum bin against the (real, positive) anchor:
    # boosted gives cos, rotated gives sin of the bin's phase
    X = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        mag = float(meas.plain[i])
        cos_term = (float(meas.boosted[i]) ** 2 - mag * mag - best_t) / (2.0 * x1 * mag)
        sin_term = (float(meas.rotated[i]) ** 2 - mag * mag - best_t) / (2.0 * x1 * mag)
        phi = math.atan2(sin_term, cos_term)
        X[i] = mag * cmath.exp(1j * phi)
    return np.fft.ifft(X)
