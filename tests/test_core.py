import cmath
import math

import numpy as np
import pytest

from phasecode.core import (
    AlignmentError,
    ParameterError,
    SparseSignal,
    align_global_phase,
    generate_signal,
    mix64,
    read_signal,
    write_signal,
)


def test_zero_sparsity_gives_empty_support():
    sig = generate_signal(6, 0, seed=1)
    assert sig.support == ()
    assert sig.k == 0


def test_full_sparsity_forces_whole_support():
    sig = generate_signal(6, 6, seed=7)
    assert [ell for ell, _ in sig.support] == [1, 2, 3, 4, 5, 6]


def test_same_seed_same_signal():
    a = generate_signal(2048, 5, seed=123)
    b = generate_signal(2048, 5, seed=123)
    assert a == b
    c = generate_signal(2048, 5, seed=124)
    assert c != a


def test_k_larger_than_n_rejected():
    with pytest.raises(ParameterError):
        generate_signal(4, 5, seed=0)


def test_unit_model_magnitudes():
    sig = generate_signal(500, 40, seed=9, value_model="unit")
    for _, v in sig.support:
        assert abs(abs(v) - 1.0) < 1e-12


def test_gaussian_magnitudes_clamped():
    # over many draws no stored magnitude dips below the clamp floor
    for seed in range(30):
        sig = generate_signal(1000, 50, seed=seed)
        assert min(abs(v) for _, v in sig.support) >= 1e-3 - 1e-15


def test_support_sampling_is_uniform():
    # each index equally likely over many seeds (chi^2 at 1%)
    from scipy.stats import chisquare

    n, K, reps = 20, 5, 4000
    counts = np.zeros(n)
    for seed in range(reps):
        for ell, _ in generate_signal(n, K, seed=seed).support:
            counts[ell - 1] += 1
    _, p = chisquare(counts)
    assert p > 0.01


def test_alignment_invariant_under_global_rotation():
    sig = generate_signal(300, 12, seed=5)
    for k in range(10):
        phi = 2 * math.pi * k / 10 + 0.1
        rotated = [(ell, v * cmath.exp(1j * phi)) for ell, v in sig.support]
        assert align_global_phase(rotated, sig) < 1e-12


def test_alignment_identity_is_zero():
    sig = generate_signal(64, 8, seed=2)
    assert align_global_phase(list(sig.support), sig) == 0.0


def test_alignment_reports_single_perturbation():
    sig = generate_signal(64, 8, seed=3)
    est = list(sig.support)
    ell, v = est[3]
    est[3] = (ell, v * (1 + 1e-3))
    resid = align_global_phase(est, sig)
    assert abs(resid - 1e-3) < 1e-9


def test_alignment_empty_estimate_rejected():
    sig = generate_signal(10, 2, seed=1)
    with pytest.raises(AlignmentError):
        align_global_phase([], sig)


def test_alignment_foreign_index_rejected():
    sig = generate_signal(10, 2, seed=1)
    bad = [(ell + 1 if (ell + 1) not in sig.value_map() else ell + 2, v) for ell, v in sig.support[:1]]
    with pytest.raises(AlignmentError):
        align_global_phase(bad, sig)


def test_sparse_signal_validation():
    with pytest.raises(ParameterError):
        SparseSignal(5, ((1, 1 + 0j), (1, 2 + 0j)))  # duplicate index
    with pytest.raises(ParameterError):
        SparseSignal(5, ((3, 1 + 0j), (2, 2 + 0j)))  # not increasing
    with pytest.raises(ParameterError):
        SparseSignal(5, ((2, 0j),))  # zero value
    with pytest.raises(ParameterError):
        SparseSignal(5, ((6, 1 + 0j),))  # out of range


def test_signal_file_round_trip(tmp_path):
    sig = generate_signal(1 << 40, 20, seed=77)
    path = tmp_path / "sig.txt"
    write_signal(sig, str(path))
    back = read_signal(str(path))
    assert back == sig


@pytest.mark.parametrize("body", [
    "10 2\n3 1.0 0.5\n",  # short file
    "10 1\n3 1.0\n",  # row without three fields
    "10 1\n3 1.0 0.5 7\n",
    "10 1\nthree 1.0 0.5\n",  # non-numeric fields
    "10 1\n3 x 0.5\n",
    "10 1\n3 nan 0.5\n",  # non-finite value
    "10 1\n3 1.0 inf\n",
    "10 1\n3 1.0 0.5\n4 1.0 0.5\n",  # more rows than announced
    "ten 1\n3 1.0 0.5\n",  # malformed header
    "10\n",
    "",
    "10 -1\n",
    "10 2\n4 1.0 0.5\n3 1.0 0.5\n",  # unsorted indices
    "10 2\n3 1.0 0.5\n3 1.0 0.5\n",  # duplicate index
])
def test_read_signal_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "sig.txt"
    path.write_text(body)
    with pytest.raises(ParameterError):
        read_signal(str(path))


def test_read_signal_ignores_trailing_blank_lines(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("10 1\n3 1.0 0.5\n\n")
    assert read_signal(str(path)) == SparseSignal(10, ((3, 1 + 0.5j),))


def test_mix64_spreads_and_is_deterministic():
    vals = {mix64(1, i) for i in range(1000)}
    assert len(vals) == 1000
    assert mix64(3, 4, 5) == mix64(3, 4, 5)
    assert mix64(3, 4, 5) != mix64(3, 5, 4)
