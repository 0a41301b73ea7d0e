import cmath
import math

import numpy as np
import pytest

from phasecode.core import ParameterError, generate_signal
from phasecode.ensemble import build_balls_and_bins
from phasecode.measurement import (
    FOURIER,
    GENERAL,
    ModulationParams,
    encode,
    modulation_coeffs,
    modulation_matrix,
    read_measurements,
    row_tensor_product,
    write_measurements,
)

# reference row-tensor-product worked example: 3x3 H and 2x3 G
EXAMPLE_H = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
EXAMPLE_G = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
EXAMPLE_A = np.array(
    [
        [0, 0.2, 0],
        [0, 0.5, 0],
        [0.1, 0.2, 0],
        [0.4, 0.5, 0],
        [0, 0, 0.3],
        [0, 0, 0.6],
    ]
)


def test_euler_identity_g1_plus_g2_is_g3():
    for mode in (GENERAL, FOURIER):
        params = ModulationParams(n=300, L=7, mode=mode)
        for ell in (1, 2, 150, 299, 300):
            g1, g2, g3, g4 = modulation_coeffs(params, ell)
            assert abs((g1 + g2) - g3) < 1e-12


def test_unit_modulus_rows():
    params = ModulationParams(n=1000, L=321)
    for ell in (1, 500, 1000):
        g1, g2, g3, g4 = modulation_coeffs(params, ell)
        assert abs(abs(g1) - 1) < 1e-15
        assert abs(abs(g2) - 1) < 1e-15
        assert abs(abs(g4) - 1) < 1e-15
        assert g1.conjugate() == g2


def test_cosine_row_positive_in_general_mode():
    params = ModulationParams(n=64, L=5)
    assert params.omega == math.pi / 128
    for ell in range(1, 65):
        assert modulation_coeffs(params, ell)[2] >= 0


def test_phase_product_identity():
    params = ModulationParams(n=64, L=5)
    for ell in (1, 13, 64):
        g1, g2, _, _ = modulation_coeffs(params, ell)
        assert abs(g1 * g2.conjugate() - cmath.exp(2j * params.omega * ell)) < 1e-12


def test_check_phase_reduced_exactly_at_huge_n():
    n = 10**10
    params = ModulationParams(n=n, L=987654321)
    ell = 9_999_999_937
    expected = 2 * math.pi * ((params.L * ell) % n) / n
    assert params.check_phase(ell) == expected


def test_degenerate_check_shift_rejected():
    with pytest.raises(ParameterError):
        ModulationParams(n=10, L=0)
    for seed in range(50):
        assert ModulationParams.draw(100, seed).L != 0


def test_row_tensor_product_matches_reference():
    A = row_tensor_product(EXAMPLE_G, EXAMPLE_H)
    assert np.allclose(A, EXAMPLE_A)


def test_row_tensor_product_identity_row():
    H = np.ones((1, 4))
    G = np.arange(8, dtype=float).reshape(2, 4)
    assert np.allclose(row_tensor_product(G, H), G)


def test_row_tensor_product_dimension_mismatch():
    with pytest.raises(ParameterError):
        row_tensor_product(np.ones((2, 3)), np.ones((2, 4)))


def test_presentation_modulation_ratio_tests():
    # 2-sparse x = [1, -2i, 0, 0, 0], omega = pi/10, presentation-only G
    omega = math.pi / 10
    x = np.array([1.0, -2.0j, 0.0, 0.0, 0.0])
    H = np.array([[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]], dtype=float)
    ells = np.arange(5)
    G = np.vstack([np.ones(5), np.exp(1j * omega * ells), np.cos(omega * ells)])
    A = row_tensor_product(G, H)
    y = np.abs(A @ x)
    y11, y12, y13 = y[0:3]
    assert abs(y11 - y12) < 1e-12  # singleton signature
    assert abs(y13 / y11 - math.cos(0)) < 1e-12  # locates column 1
    y21, y22, y23 = y[3:6]
    assert abs(y23 / y21 - math.cos(omega)) < 1e-12  # locates column 2


def test_encode_zero_signal():
    ens = build_balls_and_bins(100, 20, 3, seed=2)
    sig = generate_signal(100, 0, seed=1)
    params = ModulationParams.draw(100, 3)
    meas = encode(sig, ens, params)
    assert np.all(meas.y == 0.0)
    assert meas.m == 80


def test_encode_single_ball_pattern():
    n = 100
    ens = build_balls_and_bins(n, 20, 3, seed=2)
    params = ModulationParams.draw(n, 3)
    sig = generate_signal(n, 1, seed=10)
    ell, v = sig.support[0]
    meas = encode(sig, ens, params)
    touched = set(ens.bins_of(ell))
    for b in range(1, 21):
        y1, y2, y3, y4 = meas.y[b - 1]
        if b in touched:
            assert abs(y1 - abs(v)) < 1e-12
            assert abs(y2 - abs(v)) < 1e-12
            assert abs(y4 - abs(v)) < 1e-12
            assert abs(y3 - 2 * abs(v) * math.cos(params.omega * ell)) < 1e-12
        else:
            assert y1 == y2 == y3 == y4 == 0.0


def test_encode_matches_dense_oracle():
    n, K = 512, 8
    ens = build_balls_and_bins(n, 40, 4, seed=5)
    params = ModulationParams.draw(n, 6)
    sig = generate_signal(n, K, seed=7)
    meas = encode(sig, ens, params)
    from phasecode.ensemble import dense_matrix

    A = row_tensor_product(modulation_matrix(params), dense_matrix(ens).astype(float))
    y_dense = np.abs(A @ sig.dense()).reshape(40, 4)
    assert np.max(np.abs(y_dense - meas.y)) < 1e-12


def test_encode_blind_to_global_phase():
    n, K = 256, 10
    ens = build_balls_and_bins(n, 40, 4, seed=1)
    params = ModulationParams.draw(n, 2)
    sig = generate_signal(n, K, seed=3)
    base = encode(sig, ens, params)
    for phi in (0.3, 1.7, math.pi):
        rot = encode(sig.rotated(phi), ens, params)
        assert np.max(np.abs(rot.y - base.y)) < 1e-12


def test_singleton_signature_equalities():
    n = 1000
    ens = build_balls_and_bins(n, 50, 3, seed=9)
    params = ModulationParams.draw(n, 4)
    sig = generate_signal(n, 1, seed=5)
    meas = encode(sig, ens, params)
    for b in ens.bins_of(sig.support[0][0]):
        y1, y2, _, y4 = meas.y[b - 1]
        assert abs(y1 - y2) < 1e-12 * y1
        assert abs(y1 - y4) < 1e-12 * y1


def test_dimension_mismatch_rejected():
    ens = build_balls_and_bins(100, 20, 3, seed=2)
    sig = generate_signal(99, 5, seed=1)
    with pytest.raises(ParameterError):
        encode(sig, ens, ModulationParams.draw(99, 3))


def test_measurement_file_round_trip(tmp_path):
    n = 300
    ens = build_balls_and_bins(n, 25, 3, seed=8)
    params = ModulationParams.draw(n, 9)
    meas = encode(generate_signal(n, 6, seed=10), ens, params)
    path = tmp_path / "y.txt"
    write_measurements(meas, str(path))
    back = read_measurements(str(path))
    assert back.M == meas.M
    assert back.params.n == n
    assert back.params.L == params.L
    assert np.array_equal(back.y, meas.y)


@pytest.mark.parametrize("body", [
    "2 300 7\n1.0 1.0 0.5 1.0\n",  # short file
    "1 300 7\n1.0 1.0 0.5\n",  # row without four fields
    "1 300 7\n1.0 1.0 0.5 1.0 1.0\n",
    "1 300 7\n1.0 one 0.5 1.0\n",  # non-numeric field
    "1 300 7\n1.0 nan 0.5 1.0\n",  # non-finite magnitude
    "1 300 7\n1.0 1.0 inf 1.0\n",
    "1 300 7\n1.0 1.0 0.5 -1\n",  # negative magnitude
    "1 300 7\n1.0 1.0 0.5 1.0\n1.0 1.0 0.5 1.0\n",  # more rows than announced
    "1 300\n1.0 1.0 0.5 1.0\n",  # malformed header
    "1 300 7.5\n1.0 1.0 0.5 1.0\n",
    "-1 300 7\n",
    "1 300 300\n1.0 1.0 0.5 1.0\n",  # check shift outside [1, n-1]
])
def test_read_measurements_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "y.txt"
    path.write_text(body)
    with pytest.raises(ParameterError):
        read_measurements(str(path))
