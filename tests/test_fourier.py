import math

import numpy as np
import pytest

from phasecode.core import ParameterError, RecoveryStatus, align_global_phase, generate_signal
from phasecode.ensemble import build_balls_and_bins, build_crt
from phasecode.fourier import (
    ReplicaMismatchError,
    _index_reversal,
    acquire_stage,
    alias_fold,
    build_plan,
    ff_sparse_acquire,
    ff_sparse_acquire_implicit,
    ff_sparse_decode,
    mask_lens_measure,
    stage_mask,
)
from phasecode.measurement import ModulationParams, encode


def _random_spectrum_signal(ens, K, seed):
    sig = generate_signal(ens.n, K, seed)
    x = np.fft.ifft(sig.dense())
    return sig, x


def test_stage_masks_are_binary_subsampling_patterns():
    for n, f in ((60, 5), (360, 9), (2310, 7)):
        mask = stage_mask(n, f)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        # the time mask keeps every (n/f)-th sample
        expected = np.zeros(n)
        expected[:: n // f] = 1.0
        assert np.array_equal(mask, expected)


def test_all_ones_mask_gives_plain_spectrum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    assert np.allclose(mask_lens_measure(x, np.ones(60)), np.abs(np.fft.fft(x)))


def test_mask_lens_equals_circulant_on_spectrum():
    # |F M x| reproduces |C X| (up to the known binary-mask scale) where C is
    # the stage's aliasing circulant, checked against a dense circulant multiply
    rng = np.random.default_rng(1)
    n, f = 60, 5
    pattern = np.zeros(n)
    pattern[::f] = 1.0
    C = np.stack([np.roll(pattern, j) for j in range(n)])  # C[j,k]=1 iff f | (k-j)
    mask = stage_mask(n, f)
    for _ in range(25):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = np.fft.fft(x)
        lhs = mask_lens_measure(x, mask) * (n / f)
        rhs = np.abs(C @ X)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(rhs))


def test_impulse_signal_flat_magnitude():
    n, f = 60, 5
    mask = stage_mask(n, f)
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    out = mask_lens_measure(x, mask)
    assert np.allclose(out, 1.0)  # the DFT of the kept impulse is flat


def test_fft_twice_is_index_reversal():
    rng = np.random.default_rng(2)
    for n in (60, 360):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.fft.fft(np.fft.fft(x))
        rhs = n * x[(-np.arange(n)) % n]
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_two_stage_toy_replicas():
    # f = {2, 3}, n = 6: stage 1 output is 3 identical replicas of 2 values
    ens = build_crt([2, 3])
    plan = build_plan(ens, seed=5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    X = np.fft.fft(x)
    full = mask_lens_measure(x, plan.stages[0].mask) * plan.stages[0].scale
    assert np.allclose(full[:2], full[2:4])
    assert np.allclose(full[:2], full[4:6])
    expected = np.abs(alias_fold(X, 2))
    got = acquire_stage(x, plan, plan.stages[0], "plain")
    assert np.allclose(got, expected)


def test_cosine_cascade_matches_dense_oracle():
    ens = build_crt([3, 4, 5])  # n = 60
    plan = build_plan(ens, seed=7)
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=60) + 1j * rng.normal(size=60)
        X = np.fft.fft(x)
        for stage in plan.stages:
            ref = np.abs(2.0 * alias_fold(plan.cos_mask * X, stage.f))
            got = acquire_stage(x, plan, stage, "cosine")
            assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, np.max(ref))


def test_shift_variants_apply_pure_modulations():
    ens = build_crt([3, 4, 5])
    plan = build_plan(ens, seed=8)
    rng = np.random.default_rng(5)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    X = np.fft.fft(x)
    j = np.arange(60)
    mods = {
        "shift_fwd": np.exp(2j * math.pi * j / 60),
        "shift_bwd": np.exp(-2j * math.pi * j / 60),
        "check": np.exp(2j * math.pi * j * plan.L / 60),
    }
    for variant, mod in mods.items():
        for stage in plan.stages:
            ref = np.abs(alias_fold(mod * X, stage.f))
            got = acquire_stage(x, plan, stage, variant)
            assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, np.max(ref))


def test_physical_experiment_costs(monkeypatch):
    # shifted/plain/check variants spend one lens of length f; the cosine
    # cascade spends three: its first lens at length n, then two at length f
    from phasecode.fourier import VARIANT_COST

    ens = build_crt([3, 4, 5])
    plan = build_plan(ens, seed=4)
    stage = plan.stages[0]
    rng = np.random.default_rng(44)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    lengths = _count_ffts(monkeypatch)
    expected = {"cosine": [60, stage.f, stage.f]}
    for variant, (_, lenses) in VARIANT_COST.items():
        lengths.clear()
        acquire_stage(x, plan, stage, variant)
        assert lengths == expected.get(variant, [stage.f]), variant
        assert len(lengths) == lenses, variant


def _count_ffts(monkeypatch):
    """Record the input length of every ``np.fft.fft`` call."""
    lengths = []
    real_fft = np.fft.fft

    def counting_fft(a, *args, **kwargs):
        lengths.append(len(a))
        return real_fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    return lengths


def test_shared_field_acquisition_equals_per_stage_experiments_bytewise():
    # ff_sparse_acquire shares each variant's field across stages; the
    # unshared chain (one acquire_stage call per stage and variant) must give
    # the same bytes, at odd and even n
    for coprimes in ([5, 7, 9, 11], [4, 5, 7, 9], [3, 4, 5], [13, 17, 19]):
        ens = build_crt(coprimes)
        for seed in (1, 2, 3):
            _, x = _random_spectrum_signal(ens, 4, seed=600 + seed)
            plan = build_plan(ens, seed)
            y = np.zeros((ens.M, 4))
            for stage in plan.stages:
                rows = slice(stage.offset, stage.offset + stage.f)
                for col, variant in enumerate(("shift_fwd", "shift_bwd", "cosine", "check")):
                    y[rows, col] = acquire_stage(x, plan, stage, variant)
            assert ff_sparse_acquire(x, ens, seed).y.tobytes() == y.tobytes()


def _dense_fields(x, plan):
    """Each experiment's light field as it reaches the stage mask."""
    return {
        "plain": x,
        "shift_fwd": np.roll(x, -1),
        "shift_bwd": np.roll(x, 1),
        "check": np.roll(x, -plan.L),
        "cosine": np.fft.fft(plan.cos_mask * np.fft.fft(x)),
    }


def _dense_chain(field, stage, variant):
    """Stage mask -> length-n lens -> detector: calibrated, checked
    n/f-periodic, and read out at its f unique values."""
    f = stage.f
    z = mask_lens_measure(field, stage.mask)
    full = 2.0 * _index_reversal(z) / f if variant == "cosine" else z * stage.scale
    blocks = full.reshape(len(field) // f, f)
    assert np.max(np.abs(blocks - blocks[0])) <= 1e-12 * np.max(full)
    return blocks[0]


def test_pruned_detection_matches_the_dense_chain():
    # each stage is detected from the f samples its mask passes, with a
    # length-f lens; the dense length-n chain gives the same numbers
    rng = np.random.default_rng(12)
    for coprimes, fields in (([7, 11, 13, 17, 19], 2), ([4, 5, 7, 9], 3), ([13, 17, 19, 23, 25], 1)):
        ens = build_crt(coprimes)
        plan = build_plan(ens, seed=3)
        for _ in range(fields):
            x = rng.normal(size=ens.n) + 1j * rng.normal(size=ens.n)
            for variant, field in _dense_fields(x, plan).items():
                for stage in plan.stages:
                    ref = _dense_chain(field, stage, variant)
                    got = acquire_stage(x, plan, stage, variant)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref), (coprimes, variant, stage.f)


def test_repeated_acquisition_spends_one_length_n_and_5s_length_f_ffts(monkeypatch):
    # only the cosine cascade's first lens runs at length n, once per
    # acquisition; every stage's cosine second lens and every detection run
    # at length f
    ens = build_crt([5, 7, 9, 11])
    heights = ens.stage_heights
    _, x = _random_spectrum_signal(ens, 4, seed=61)
    ff_sparse_acquire(x, ens, seed=1)  # fills the optics cache
    lengths = _count_ffts(monkeypatch)
    for seed in (1, 2):
        lengths.clear()
        ff_sparse_acquire(x, ens, seed)
        assert sorted(lengths) == sorted([ens.n] + list(heights) * 5)


def test_plans_of_a_cached_code_share_read_only_optics(monkeypatch):
    ens = build_crt([3, 4, 5])
    first = build_plan(ens, seed=1)
    lengths = _count_ffts(monkeypatch)
    second = build_plan(ens, seed=2)
    assert len(lengths) == 0
    assert second.params != first.params
    assert second.cos_mask is first.cos_mask
    for a, b in zip(first.stages, second.stages):
        assert a.mask is b.mask
    for arr in (first.cos_mask, first.stages[0].mask):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # only the most recent code is kept: a new code evicts the first
    other = build_plan(build_crt([5, 7]), seed=1)
    assert len(lengths) == 2
    assert len(other.cos_mask) == 35
    build_plan(ens, seed=3)
    assert len(lengths) == 2 + 3


def test_replica_violation_detected():
    ens = build_crt([3, 4, 5])
    plan = build_plan(ens, seed=9)
    bad_stage = plan.stages[0]
    corrupted = bad_stage.mask.copy()
    corrupted[1] = 1.0  # no longer a pure subsampling pattern
    bad = type(bad_stage)(
        f=bad_stage.f,
        offset=bad_stage.offset,
        mask=corrupted,
        scale=bad_stage.scale,
    )
    rng = np.random.default_rng(6)
    x = rng.normal(size=60) + 1j * rng.normal(size=60)
    with pytest.raises(ReplicaMismatchError):
        acquire_stage(x, plan, bad, "plain")


def test_acquisition_rejects_a_signal_that_is_not_1d():
    ens = build_crt([3, 4, 5])
    plan = build_plan(ens, seed=1)
    for bad in (np.zeros((60, 1)), np.zeros((1, 60)), np.zeros(59), np.zeros(())):
        with pytest.raises(ParameterError):
            ff_sparse_acquire(bad, ens, seed=1)
        with pytest.raises(ParameterError):
            acquire_stage(bad, plan, plan.stages[0], "plain")
        with pytest.raises(ParameterError):
            mask_lens_measure(bad, plan.stages[0].mask)


def test_mask_length_must_match_the_field():
    ens = build_crt([3, 4, 5])
    plan = build_plan(ens, seed=1)
    stage = plan.stages[0]
    short = type(stage)(f=stage.f, offset=stage.offset, mask=stage.mask[:30], scale=stage.scale)
    x = np.ones(60, dtype=complex)
    for variant in ("plain", "cosine"):
        with pytest.raises(ParameterError):
            acquire_stage(x, plan, short, variant)
    with pytest.raises(ParameterError):
        mask_lens_measure(x, stage.mask[:30])


def test_acquire_matches_implicit_encoder():
    ens = build_crt([5, 7, 9, 11])
    sig, x = _random_spectrum_signal(ens, 8, seed=31)
    seed = 77
    phys = ff_sparse_acquire(x, ens, seed)
    impl = ff_sparse_acquire_implicit(sig, ens, seed)
    assert phys.params.L == impl.params.L
    assert np.max(np.abs(phys.y - impl.y)) < 1e-9 * max(1.0, np.max(impl.y))


def test_zero_spectrum_acquires_zeros():
    ens = build_crt([3, 4, 5])
    meas = ff_sparse_acquire(np.zeros(60, dtype=complex), ens, seed=1)
    assert np.all(meas.y == 0.0)


def test_single_spectral_line_singleton_signature_and_decode():
    ens = build_crt([5, 7, 9, 11])
    sig, x = _random_spectrum_signal(ens, 1, seed=5)
    meas = ff_sparse_acquire(x, ens, seed=6)
    ell, v = sig.support[0]
    for b in ens.bins_of(ell):
        y1, y2, y3, y4 = meas.y[b - 1]
        assert abs(y1 - abs(v)) < 1e-9
        assert abs(y2 - y1) < 1e-9
        assert abs(y4 - y1) < 1e-9
    res = ff_sparse_decode(meas, ens, K_hint=1)
    assert res.status == RecoveryStatus.FULL_RECOVERY
    assert align_global_phase(res.recovered, sig) < 1e-8


def test_end_to_end_explicit_small_instance():
    # K=4 on a 32-bin code is often graph-disconnected; this exercises the
    # full physical chain on instances known to be connected (rates are the
    # paired test's job)
    ens = build_crt([5, 7, 9, 11])  # odd n: singleton aliases are half-integral
    for s in (2, 3, 4, 6):
        sig, x = _random_spectrum_signal(ens, 4, seed=3000 + s)
        meas = ff_sparse_acquire(x, ens, seed=5000 + s)
        res = ff_sparse_decode(meas, ens, K_hint=4)
        assert res.status == RecoveryStatus.FULL_RECOVERY
        assert align_global_phase(res.recovered, sig) < 1e-8


def test_paired_rates_match_general_mode_with_odd_n():
    # all-odd heights make n odd, which collapses the |cos| alias set to the
    # (membership-filtered) n - ell alias; recovery then tracks the
    # unconstrained pipeline within a few points
    ens = build_crt([13, 17, 19, 23, 25])
    K = 24
    trials = 120
    ok_ff = ok_gen = 0
    for t in range(trials):
        sig = generate_signal(ens.n, K, 4000 + t)
        meas = ff_sparse_acquire_implicit(sig, ens, 8000 + t)
        res = ff_sparse_decode(meas, ens, K_hint=K)
        ok_ff += res.status == RecoveryStatus.FULL_RECOVERY
        params = ModulationParams.draw(ens.n, 8000 + t)
        from phasecode.decoder import decode_multicolor

        res = decode_multicolor(encode(sig, ens, params), ens, params, K_hint=K)
        ok_gen += res.status == RecoveryStatus.FULL_RECOVERY
    assert ok_ff / trials >= ok_gen / trials - 0.03


def test_even_n_loses_odd_stage_singletons():
    # with n even the ell vs ell + n/2 alias shares every odd stage's
    # residue, so odd-stage singleton bins are honestly ambiguous; decoding
    # degrades but never colors falsely
    ens = build_crt([4, 5, 7, 9])  # n even
    K = 8
    false_colorings = 0
    fulls = 0
    for t in range(60):
        sig = generate_signal(ens.n, K, 100 + t)
        truth = sig.value_map()
        meas = ff_sparse_acquire_implicit(sig, ens, 200 + t)
        res = ff_sparse_decode(meas, ens, K_hint=K)
        fulls += res.status == RecoveryStatus.FULL_RECOVERY
        false_colorings += sum(1 for ell, _ in res.recovered if ell not in truth)
    assert false_colorings == 0
    assert fulls < 60  # the ambiguity genuinely bites at even n


def test_acquire_requires_crt_ensemble():
    balls = build_balls_and_bins(60, 12, 3, seed=1)
    with pytest.raises(ParameterError):
        ff_sparse_acquire(np.zeros(60, dtype=complex), balls, seed=1)


def test_explicit_acquisition_size_guard():
    ens = build_crt([47, 49, 50, 53, 57, 59, 61])
    with pytest.raises(ParameterError):
        build_plan(ens, seed=1)


def test_decode_rejects_general_mode_measurements():
    ens = build_crt([5, 7, 9, 11])
    sig, _ = _random_spectrum_signal(ens, 3, seed=9)
    params = ModulationParams.draw(ens.n, 10)  # general mode
    meas = encode(sig, ens, params)
    with pytest.raises(ParameterError):
        ff_sparse_decode(meas, ens, K_hint=3)


def test_decode_rejects_unknown_algorithm():
    ens = build_crt([7, 11, 13])
    sig = generate_signal(ens.n, 3, 5)
    meas = ff_sparse_acquire_implicit(sig, ens, 9)
    for bad in ("Multicolor", "uni"):
        with pytest.raises(ParameterError):
            ff_sparse_decode(meas, ens, K_hint=3, algorithm=bad)
