"""Compressive phase retrieval with sparse-graph codes.

Submodules:

* ``core``        sparse signals, seeding, phase alignment
* ``ensemble``    implicit code matrices (balls-and-bins, CRT)
* ``measurement`` trigonometric modulation and the magnitude encoder
* ``decoder``     merge-and-color decoding (one- and many-color variants)
* ``analysis``    density evolution and code design
* ``nonsparse``   deterministic 3n-2 scheme and its mask/lens variant
* ``fourier``     mask + lens acquisition simulator for sparse spectra
* ``cli``         experiment harness and command line
"""
from .core import (
    AlignmentError,
    DecodeResult,
    DecodeStats,
    ParameterError,
    RecoveryStatus,
    SparseSignal,
    align_global_phase,
    generate_signal,
    mix64,
    read_signal,
    write_signal,
)
from .ensemble import (
    BallsAndBinsEnsemble,
    CrtEnsemble,
    ExplicitEnsemble,
    build_balls_and_bins,
    build_crt,
)
from .measurement import (
    MeasurementSet,
    ModulationParams,
    encode,
    modulation_coeffs,
)
from .decoder import decode_multicolor, decode_unicolor

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
