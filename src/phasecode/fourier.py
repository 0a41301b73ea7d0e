"""Mask + lens acquisition for sparse spectra.

Each CRT stage's code rows expand to an n x n binary circulant C that aliases
the spectrum modulo the stage height. Because circulants diagonalize in the
Fourier basis, |C X| is physically measurable as |F M x| for a binary
diagonal mask M (one mask, one lens); the shifted variants realize the
exp(+-i w ell) and check modulations via circular shifts, and the cosine
variant uses the two-mask / three-lens cascade |F M F D F x|.

The effective modulation frequency is w = 2*pi/n: integer shifts can realize
nothing finer, so the decoder runs in its Fourier mode where |cos| location
ambiguity is settled by the check row and the stage membership constraint.

Prefer all-odd stage heights (odd n). When n is even, a lone ball at ell and
one at ell + n/2 produce identical bin measurements AND share the residue of
every odd stage height, so odd-stage singleton bins are genuinely ambiguous
and get (correctly) rejected; only even stages can then seed the decoder and
the recovery rate drops well below the unconstrained pipeline's. With odd n
the spurious candidates round to half-integers and recovery matches the
unconstrained pipeline.

Every stage mask is an impulse train that passes only the f samples on its
n/f lattice, so its lens output is exactly n/f-periodic (the replica
property): the length-n transform of the masked field equals the length-f
transform of the f passed samples, repeated n/f times. The simulator
therefore detects each stage from those f samples with one length-f FFT, and
the scalar measurement count stays 4*M. A mask that passes any sample off
its lattice raises ``ReplicaMismatchError``. ``mask_lens_measure`` stays the
dense one-mask, one-lens primitive that the operator-identity checks use as
the reference.

Because w = 2*pi/n, the optics (the stage masks and the cosine mask) depend
only on the code, never on the seed: ``build_plan`` takes them from a cache
that holds the most recent code, S read-only ``bool`` stage masks and one
float cosine mask of length n for S stages, and only draws the seed's
``ModulationParams``. The experiments of a variant differ only after the
light field reaches the stage mask, so ``ff_sparse_acquire`` prepares each
variant's field once (a circular shift, or the two-lens cosine field
F(cos o F x)) and detects it through all S stage masks: 2 length-n FFTs (the
cosine lenses) and 4*S length-f FFTs per acquisition, with the same bytes
out as running every stage's experiments separately (``acquire_stage``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ParameterError, SparseSignal
from .decoder import get_decoder
from .ensemble import CrtEnsemble
from .measurement import FOURIER, MeasurementSet, ModulationParams, encode

EXPLICIT_N_LIMIT = 1 << 22  # largest n whose length-n fields we materialize

VARIANTS = ("plain", "shift_fwd", "shift_bwd", "cosine", "check")

# physical cost of one stage acquisition, (masks, lenses)
VARIANT_COST = {
    "plain": (1, 1),
    "shift_fwd": (1, 1),
    "shift_bwd": (1, 1),
    "check": (1, 1),
    "cosine": (2, 3),
}


class ReplicaMismatchError(RuntimeError):
    """A stage mask passes samples off its n/f lattice: wrong mask derivation."""


# ---------------------------------------------------------------------------
# Stage plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagePlan:
    f: int                  # stage height (unique measurements per shot)
    offset: int             # global bin offset of this stage
    mask: np.ndarray        # bool time-domain mask (period n/f impulse train)
    scale: float            # n/f: calibration from |F mask x| to |C X|


@dataclass(frozen=True)
class MaskLensPlan:
    n: int
    stages: tuple[StagePlan, ...]
    cos_mask: np.ndarray    # frequency-plane mask diag(cos(w*ell)), real
    params: ModulationParams

    @property
    def L(self) -> int:
        return self.params.L


def stage_circulant_eigenvalues(n: int, f: int) -> np.ndarray:
    """DFT eigenvalues of the stage circulant (first column = impulse train)."""
    pattern = np.zeros(n)
    pattern[::f] = 1.0
    return np.fft.fft(pattern)


def _index_reversal(a: np.ndarray) -> np.ndarray:
    """``a[(-j) % n]`` for j = 0..n-1: slot 0 stays, the rest run backwards."""
    return np.concatenate((a[:1], a[:0:-1]))


def stage_mask(n: int, f: int) -> np.ndarray:
    """Binary diagonal mask M with F M = (f/n) C F for the stage circulant.

    Derived from the circulant's eigenvalues: the diagonal of F^-1 C F is the
    eigenvalue vector read through the index-reversal permutation, and for an
    impulse-train circulant that vector is (n/f) times a binary impulse train.
    """
    mask = _index_reversal(stage_circulant_eigenvalues(n, f)) * (f / n)
    if np.max(np.abs(mask.imag)) > 1e-10:
        raise ReplicaMismatchError(f"stage mask for f={f} is not real")
    mask = mask.real
    if np.max(np.abs(mask - np.round(mask))) > 1e-10:
        raise ReplicaMismatchError(f"stage mask for f={f} is not binary")
    return np.round(mask).astype(bool)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=1)
def _code_optics(
    n: int, heights: tuple[int, ...], offsets: tuple[int, ...], omega: float
) -> tuple[tuple[StagePlan, ...], np.ndarray]:
    """The stages and the cosine mask of one code, shared by every plan of it.

    Only the most recent code is kept; its arrays are read-only because every
    plan of the code hands out the same objects.
    """
    stages = tuple(
        StagePlan(f=f, offset=off, mask=_read_only(stage_mask(n, f)), scale=n / f)
        for f, off in zip(heights, offsets)
    )
    # frequency-plane cosine weights for ball ell = j + 1 at array slot j
    cos_mask = np.cos(omega * np.arange(1, n + 1))
    return stages, _read_only(cos_mask)


def build_plan(ensemble: CrtEnsemble, seed: int) -> MaskLensPlan:
    n = ensemble.n
    if n > EXPLICIT_N_LIMIT:
        raise ParameterError(
            f"explicit mask/lens simulation refused for n={n}; "
            "use the implicit acquisition instead"
        )
    params = ModulationParams.draw(n, seed, mode=FOURIER)
    stages, cos_mask = _code_optics(
        n, ensemble.stage_heights, ensemble.stage_offsets, params.omega
    )
    return MaskLensPlan(n=n, stages=stages, cos_mask=cos_mask, params=params)


# ---------------------------------------------------------------------------
# Physical primitives
# ---------------------------------------------------------------------------

def _signal(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as a complex field; anything but a 1-D array of length n is refused."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ParameterError(f"signal must be a 1-D array of length {n}, got shape {x.shape}")
    return x


def mask_lens_measure(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One mask, one lens, magnitude detector: |F (mask o x)|."""
    return np.abs(np.fft.fft(mask * _signal(x, len(mask))))


def alias_fold(X: np.ndarray, f: int) -> np.ndarray:
    """(C X) restricted to its f unique values: per-residue spectrum sums.

    Dense-free oracle for the stage circulant: (C X)[j] = sum over k = j mod f.
    """
    n = len(X)
    if n % f:
        raise ParameterError(f"stage height {f} must divide n={n}")
    return X.reshape(n // f, f).sum(axis=0)


def _prepare_field(x: np.ndarray, plan: MaskLensPlan, variant: str) -> np.ndarray:
    """The light field of an experiment as it reaches the stage mask; it does
    not depend on the stage."""
    if variant == "cosine":
        # x -> lens -> cos mask -> lens
        spectrum = np.fft.fft(x)
        spectrum *= plan.cos_mask
        return np.fft.fft(spectrum)
    if variant == "plain":
        return x
    if variant == "shift_fwd":
        return np.roll(x, -1)
    if variant == "shift_bwd":
        return np.roll(x, 1)
    return np.roll(x, -plan.L)  # check


def _detect(field: np.ndarray, stage: StagePlan, variant: str) -> np.ndarray:
    """Stage mask -> lens -> detector, calibrated; returns the f unique values.

    The mask passes only the samples on its n/f lattice, so the length-n lens
    output is the length-f transform of those samples, repeated n/f times.
    """
    n = len(field)
    if len(stage.mask) != n:
        raise ParameterError("mask length must match the signal")
    taps = stage.mask[:: n // stage.f]
    if np.count_nonzero(taps) != np.count_nonzero(stage.mask):
        raise ReplicaMismatchError(f"stage mask for f={stage.f} passes samples off its n/f lattice")
    z = np.abs(np.fft.fft(taps * field[:: n // stage.f]))
    if variant == "cosine":
        # the double transform reverses indices; undo it, then calibrate
        return 2.0 * _index_reversal(z) / stage.f
    return z * stage.scale


def acquire_stage(x: np.ndarray, plan: MaskLensPlan, stage: StagePlan, variant: str) -> np.ndarray:
    """Run one physical experiment for a stage; returns its f unique magnitudes.

    plain      |C X|
    shift_fwd  |C diag(e^{+i w ell}) X|   (signal advanced by one sample)
    shift_bwd  |C diag(e^{-i w ell}) X|   (signal delayed by one sample)
    check      |C diag(e^{+i w' ell}) X|  (signal advanced by L samples)
    cosine     2 |C diag(cos(w ell)) X|   (two masks, three lenses)

    All outputs are calibrated to the code-matrix convention (global unit
    phases dropped, binary-mask attenuation undone).
    """
    x = _signal(x, plan.n)
    if variant not in VARIANTS:
        raise ParameterError(f"unknown stage variant {variant!r}")
    return _detect(_prepare_field(x, plan, variant), stage, variant)


# ---------------------------------------------------------------------------
# End-to-end acquisition
# ---------------------------------------------------------------------------

def ff_sparse_acquire(x: np.ndarray, ensemble: CrtEnsemble, seed: int) -> MeasurementSet:
    """Acquire the 4M sparse-spectrum measurements with masks and lenses.

    ``x`` is the time-domain signal whose spectrum X = F x is sparse; the
    returned set is bin-aligned with the CRT ensemble over X and decodes with
    the Fourier-mode pipeline. Each variant's field is prepared once and
    detected through every stage; the values equal per-stage
    ``acquire_stage`` calls byte for byte.
    """
    if not isinstance(ensemble, CrtEnsemble):
        raise ParameterError("mask/lens acquisition requires a CRT ensemble")
    x = _signal(x, ensemble.n)
    plan = build_plan(ensemble, seed)
    y = np.zeros((ensemble.M, 4), dtype=np.float64)
    for col, variant in enumerate(("shift_fwd", "shift_bwd", "cosine", "check")):
        field = _prepare_field(x, plan, variant)
        for stage in plan.stages:
            y[stage.offset : stage.offset + stage.f, col] = _detect(field, stage, variant)
    return MeasurementSet(y=y, params=plan.params)


def ff_sparse_acquire_implicit(
    spectrum: SparseSignal, ensemble: CrtEnsemble, seed: int
) -> MeasurementSet:
    """Large-n acquisition path: same measurement values as the mask/lens
    chain (their equality is the verified operator identity), computed in
    O(K d) straight from the sparse spectrum."""
    if not isinstance(ensemble, CrtEnsemble):
        raise ParameterError("implicit acquisition requires a CRT ensemble")
    params = ModulationParams.draw(ensemble.n, seed, mode=FOURIER)
    return encode(spectrum, ensemble, params)


def ff_sparse_decode(meas: MeasurementSet, ensemble, K_hint: int, algorithm: str = "multicolor"):
    """Decode a sparse spectrum from Fourier-friendly measurements."""
    decode = get_decoder(algorithm)
    if meas.params.mode != FOURIER:
        raise ParameterError("measurements were not taken in Fourier mode")
    return decode(meas, ensemble, meas.params, K_hint)
