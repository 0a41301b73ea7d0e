import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasecode
from phasecode.cli import (
    ExperimentConfig,
    linear_fit,
    main,
    run_bench,
    run_crt_comparison,
    run_ff_verify,
    run_simulation,
    wilson_interval,
)
from phasecode.core import ParameterError


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(90, 100)
    assert lo < 0.9 < hi
    assert 0.8 < lo and hi < 0.97


def test_linear_fit_recovers_line():
    xs = [1, 2, 3, 4]
    ys = [2.5 * x + 1.0 for x in xs]
    slope, intercept, r2 = linear_fit(xs, ys)
    assert abs(slope - 2.5) < 1e-9
    assert abs(intercept - 1.0) < 1e-9
    assert r2 == 1.0


def test_config_resolution_and_threshold():
    cfg = ExperimentConfig(n=10_000, K=100, d=7, c=3.32, trials=0).resolve()
    assert cfg.M == math.ceil(3.32 * 100)
    assert 0.999990 < cfg.success_threshold < 0.999999


def test_config_requires_bin_information():
    with pytest.raises(ParameterError):
        ExperimentConfig(n=100, K=10, c=None, M=None).resolve()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "n=5000\nK=40\nd=7\nc=3.4\nalgorithm=multicolor\ntrials=3\nseed=9\n"
    )
    cfg = ExperimentConfig.from_file(str(path))
    assert (cfg.n, cfg.K, cfg.d, cfg.c) == (5000, 40, 7, 3.4)
    assert cfg.algorithm == "multicolor"
    assert cfg.trials == 3


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate=1\n")
    with pytest.raises(ParameterError):
        ExperimentConfig.from_file(str(path))


def test_unknown_names_are_config_errors(tmp_path):
    with pytest.raises(ParameterError):
        ExperimentConfig(n=1000, K=10, c=3.5, ensemble="Crt", coprimes=(7, 9)).resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(n=1000, K=10, c=3.5, algorithm="uni").resolve()
    with pytest.raises(ParameterError):
        run_bench(n=10**6, K_list=[10], trials=1, algorithm="uni")
    with pytest.raises(ParameterError):
        run_crt_comparison((7, 9, 11), [5], trials=1, algorithm="uni")
    for line in ("ensemble=foo", "mode=simulate"):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n=1000\nK=10\nc=3.5\ntrials=1\n{line}\n")
        assert main(["simulate", "--config", str(path)]) == 2


MALFORMED_NUMBERS = {
    "simulate config K=abc": ["simulate", "--config", "{config}"],
    "simulate --coprimes 7,x": ["simulate", "--ensemble", "crt", "--coprimes", "7,x", "--K", "5", "--trials", "1"],
    "bench --K-list 10,x": ["bench", "--K-list", "10,x"],
    "design --d 4..x": ["design", "--d", "4..x"],
    "ff-verify --n-list 60,x": ["ff-verify", "--n-list", "60,x"],
    "crt-compare --K-list 5,x": ["crt-compare", "--coprimes", "7,9,11", "--K-list", "5,x"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_numbers_are_config_errors(case, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("n=1000\nK=abc\nc=3.5\ntrials=1\n")
    argv = [arg.format(config=config) for arg in MALFORMED_NUMBERS[case]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and ("'x'" in err or "'abc'" in err), err


MALFORMED_COUNTS = {
    "simulate --trials 0": ["simulate", "--n", "1000", "--K", "10", "--c", "3.5", "--trials", "0"],
    "simulate config trials=0": ["simulate", "--config", "{config}"],
    "bench --trials 0": ["bench", "--K-list", "10", "--trials", "0"],
    "crt-compare --trials 0": ["crt-compare", "--coprimes", "7,9,11", "--K-list", "5", "--trials", "0"],
    "crt-compare --trials -2": ["crt-compare", "--coprimes", "7,9,11", "--K-list", "5", "--trials", "-2"],
    "ff-sim --trials 0": ["ff-sim", "--coprimes", "7,11,13", "--K", "2", "--trials", "0"],
    "ff-sim --trials -1": ["ff-sim", "--coprimes", "7,11,13", "--K", "2", "--trials", "-1"],
    "nonsparse --trials 0": ["nonsparse", "--trials", "0"],
    "bench --K-list ,": ["bench", "--K-list", ","],
    "crt-compare --K-list ,": ["crt-compare", "--coprimes", "7,9,11", "--K-list", ","],
    "ff-verify --n-list ,": ["ff-verify", "--n-list", ","],
    "design --d 10..4": ["design", "--d", "10..4"],
    "ff-verify --checks 0": ["ff-verify", "--n-list", "60", "--checks", "0"],
    "ff-verify --checks -5": ["ff-verify", "--checks", "-5"],
    "simulate --threads 0": ["simulate", "--n", "1000", "--K", "10", "--c", "3.5", "--trials", "1", "--threads", "0"],
    "simulate --threads -4": ["simulate", "--n", "1000", "--K", "10", "--c", "3.5", "--trials", "1", "--threads", "-4"],
    "simulate config threads=0": ["simulate", "--config", "{threads_config}"],
    "crt-compare --threads 0": [
        "crt-compare", "--coprimes", "7,9,11", "--K-list", "5", "--trials", "1", "--threads", "0"
    ],
    "simulate --c -1": ["simulate", "--n", "100", "--K", "5", "--c", "-1", "--trials", "1"],
    "simulate --c 0": ["simulate", "--n", "100", "--K", "5", "--c", "0", "--trials", "1"],
    "simulate --c nan": ["simulate", "--n", "100", "--K", "5", "--c", "nan", "--trials", "1"],
    "simulate --c inf": ["simulate", "--n", "100", "--K", "5", "--c", "inf", "--trials", "1"],
    "simulate --bins 0": ["simulate", "--n", "100", "--K", "5", "--bins", "0", "--trials", "1"],
    "simulate config M=0": ["simulate", "--config", "{bins_config}"],
    "simulate --success-threshold 2": [
        "simulate", "--n", "100", "--K", "5", "--c", "3.5", "--trials", "1", "--success-threshold", "2"
    ],
    "simulate --success-threshold nan": [
        "simulate", "--n", "100", "--K", "5", "--c", "3.5", "--trials", "1", "--success-threshold", "nan"
    ],
    "bench --c nan": ["bench", "--K-list", "10", "--c", "nan"],
    "bench --c inf": ["bench", "--K-list", "10", "--c", "inf"],
    "nonsparse --n -3": ["nonsparse", "--n", "-3"],
    "nonsparse --mode fourier --n -3": ["nonsparse", "--mode", "fourier", "--n", "-3"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
def test_malformed_counts_are_config_errors(case, tmp_path, capsys):
    # a trial, check or thread count below 1, an empty list, a reversed
    # range, a size or load out of range or a threshold outside [0, 1] is
    # refused before any work, never run as zero trials, serially, with the
    # default sizes or as a run of failed trials
    config, threads_config = tmp_path / "zero.cfg", tmp_path / "threads.cfg"
    bins_config = tmp_path / "bins.cfg"
    config.write_text("n=1000\nK=10\nc=3.5\ntrials=0\n")
    threads_config.write_text("n=1000\nK=10\nc=3.5\ntrials=1\nthreads=0\n")
    bins_config.write_text("n=100\nK=5\nM=0\ntrials=1\n")
    argv = [
        arg.format(config=config, threads_config=threads_config, bins_config=bins_config)
        for arg in MALFORMED_COUNTS[case]
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("count", [0, -3])
def test_library_calls_refuse_counts_below_one(count):
    with pytest.raises(ParameterError, match="at least 1"):
        run_ff_verify(n_list=[60], checks_per_case=count)
    with pytest.raises(ParameterError, match="at least 1"):
        run_simulation(ExperimentConfig(n=1000, K=10, c=3.5, trials=1, threads=count))


def test_simulate_config_file_keeps_its_seed_and_trials(tmp_path):
    path, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    path.write_text("n=20000\nK=20\nd=7\nc=3.5\ntrials=2\nseed=9\n")
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# seed=9" in lines and "# trials=2" in lines
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 2  # header, 2 trials
    assert main(["simulate", "--config", str(path), "--trials", "1", "--out", str(out)]) == 0
    assert "# trials=1" in out.read_text().splitlines()


def test_simulation_zero_trials_is_empty_success():
    cfg = ExperimentConfig(n=1000, K=10, d=5, c=3.5, trials=0, seed=1)
    summary = run_simulation(cfg)
    assert summary.trials == 0
    assert summary.records == []
    assert summary.error_probability == 0.0


def test_simulation_deterministic_and_thread_invariant():
    base = dict(n=20_000, K=60, d=7, c=3.4, trials=6, seed=42)
    a = run_simulation(ExperimentConfig(**base))
    b = run_simulation(ExperimentConfig(**base))
    assert [r.__dict__ for r in a.records] != []
    strip = lambda recs: [
        {k: v for k, v in r.__dict__.items() if k != "wall_time_ms"} for r in recs
    ]
    assert strip(a.records) == strip(b.records)
    c = run_simulation(ExperimentConfig(**base, threads=2))
    assert strip(c.records) == strip(a.records)


def test_a_recovered_index_off_the_support_is_a_failed_trial(monkeypatch):
    # a decoder that reports one ball at a wrong index gives a failed trial,
    # not an AlignmentError that aborts the simulation
    import phasecode.cli as cli_module

    real = cli_module.get_decoder

    def off_support(name):
        decode = real(name)

        def wrapped(*args, **kwargs):
            res = decode(*args, **kwargs)
            taken = {ell for ell, _ in res.recovered}
            ell, v = res.recovered[0]
            while ell in taken:
                ell += 1
            res.recovered[0] = (ell, v)
            return res

        return wrapped

    base = dict(n=20_000, K=60, d=7, c=3.4, trials=4, seed=42)
    honest = run_simulation(ExperimentConfig(**base))
    assert honest.successes == 4
    monkeypatch.setattr(cli_module, "get_decoder", off_support)
    summary = run_simulation(ExperimentConfig(**base))
    assert [r.status for r in summary.records] == [r.status for r in honest.records]
    assert summary.successes == 0
    assert summary.error_probability == 1.0


def test_crt_comparison_rates_are_paired_counts_of_true_recoveries():
    # the rates count decodes that recover every ball with its value, on the
    # signals and modulations of master seed mix64(seed, K), trial t
    from phasecode.core import RecoveryStatus, align_global_phase, generate_signal, mix64
    from phasecode.decoder import decode_unicolor
    from phasecode.ensemble import build_balls_and_bins, build_crt
    from phasecode.measurement import ModulationParams, encode

    coprimes, K_list, trials, seed = (47, 49, 50, 53, 57, 59, 61), [121, 142, 163], 40, 7
    crt = build_crt(coprimes)
    rows = run_crt_comparison(coprimes, K_list, trials=trials, seed=seed)
    for row, K in zip(rows, K_list):
        counts, master = [0, 0], mix64(seed, K)
        for t in range(trials):
            signal = generate_signal(crt.n, K, mix64(master, t, 0))
            params = ModulationParams.draw(crt.n, mix64(master, t, 2))
            balls = build_balls_and_bins(crt.n, crt.M, crt.d, mix64(master, t, 1))
            for i, ens in enumerate((crt, balls)):
                res = decode_unicolor(encode(signal, ens, params), ens, params, K_hint=K)
                counts[i] += (
                    res.status == RecoveryStatus.FULL_RECOVERY
                    and {ell for ell, _ in res.recovered} == set(signal.value_map())
                    and align_global_phase(res.recovered, signal) <= 1e-6
                )
        assert (row.K, row.rate_crt, row.rate_balls) == (K, counts[0] / trials, counts[1] / trials)
    assert 0.0 < rows[-1].rate_crt < rows[0].rate_crt < 1.0


def test_ff_sim_pairs_fourier_and_general_rates(capsys):
    assert main(["ff-sim", "--coprimes", "7,11,13,17,19", "--K", "12", "--trials", "60",
                 "--paired", "--seed", "3"]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["ff_rate=0.8000", "general_rate=0.8167"]


def test_simulate_csv_reproducible(tmp_path):
    args = [
        "simulate", "--n", "20000", "--K", "50", "--d", "7", "--c", "3.4",
        "--trials", "4", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = out1.read_text()
    # wall-clock differs between runs; everything else must be byte-identical
    scrub = lambda text: [
        ",".join(col for i, col in enumerate(line.split(",")) if i != 5)
        for line in text.splitlines()
    ]
    assert scrub(a) == scrub(out2.read_text())
    assert any(line.startswith("# K=50") for line in a.splitlines())


def test_design_subcommand_csv(tmp_path, capsys):
    out = tmp_path / "design.csv"
    assert main(["design", "--d", "5,7", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["d", "c_min", "c_max", "lambda_min", "lambda_max", "p_star", "m_per_K"]
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["5", "7"]
    for r in rows:
        # m/K is 4c with c the binding lower bound
        c = max(float(r[1]), int(r[0]) / float(r[4]))
        assert abs(float(r[6]) - 4 * c) < 1e-9


def test_decode_subcommand_round_trip(tmp_path, capsys):
    dump = tmp_path / "dump"
    assert main([
        "simulate", "--n", "30000", "--K", "40", "--d", "7", "--c", "3.5",
        "--trials", "1", "--seed", "5", "--dump-dir", str(dump),
        "--out", str(tmp_path / "sim.csv"),
    ]) == 0
    capsys.readouterr()
    from phasecode.core import mix64

    ens_seed = mix64(5, 0, 1)
    rec = tmp_path / "rec.txt"
    code = main([
        "decode", "--signal", str(dump / "trial0.signal"),
        "--measurements", str(dump / "trial0.meas"),
        "--ensemble", "balls", "--bins", "140", "--d", "7",
        "--ens-seed", str(ens_seed), "--out", str(rec),
    ])
    assert code == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["status"] == "FullRecovery"
    assert status["residual"] < 1e-8
    assert len(rec.read_text().splitlines()) == 40


def test_decode_needs_neither_k_nor_the_signal(tmp_path, capsys):
    # --K only scales fraction_recovered, so decode runs without it and without --signal
    dump = tmp_path / "dump"
    assert main([
        "simulate", "--n", "100000", "--K", "50", "--d", "7", "--c", "3.5",
        "--trials", "1", "--seed", "5", "--dump-dir", str(dump),
        "--out", str(tmp_path / "sim.csv"),
    ]) == 0
    capsys.readouterr()
    from phasecode.core import mix64

    code = main([
        "decode", "--measurements", str(dump / "trial0.meas"),
        "--ensemble", "balls", "--bins", "175", "--d", "7", "--ens-seed", str(mix64(5, 0, 1)),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    status = json.loads(lines[-1])
    assert (status["status"], status["unexplained_bins"]) == ("FullRecovery", 0)
    assert len(lines) - 1 == 50
    assert "residual" not in status and "fraction_recovered" not in status


def test_decode_without_k_reports_no_fraction_of_a_partial(tmp_path, capsys):
    # at c = 2 the unicolor decode stops after one ball of 40: a fraction of
    # an unknown K is no number at all, while --K 40 scales it
    dump = tmp_path / "dump"
    assert main([
        "simulate", "--n", "30000", "--K", "40", "--d", "7", "--c", "2.0",
        "--trials", "1", "--seed", "5", "--dump-dir", str(dump),
        "--out", str(tmp_path / "sim.csv"),
    ]) == 0
    capsys.readouterr()
    from phasecode.core import mix64

    args = [
        "decode", "--measurements", str(dump / "trial0.meas"),
        "--ensemble", "balls", "--bins", "80", "--d", "7", "--ens-seed", str(mix64(5, 0, 1)),
    ]
    statuses = []
    for extra in ([], ["--K", "40"]):
        assert main(args + extra) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        statuses.append(json.loads(lines[-1]))
        assert len(lines) - 1 == 1
    assert [s["status"] for s in statuses] == ["PartialRecovery"] * 2
    assert "fraction_recovered" not in statuses[0]
    assert statuses[1]["fraction_recovered"] == 1 / 40


def test_decode_against_another_signal_reports_no_residual(tmp_path, capsys):
    # a truth file whose support the recovered indices miss has no residual
    for seed in (5, 6):
        assert main([
            "simulate", "--n", "30000", "--K", "40", "--d", "7", "--c", "3.5",
            "--trials", "1", "--seed", str(seed), "--dump-dir", str(tmp_path / str(seed)),
            "--out", str(tmp_path / "sim.csv"),
        ]) == 0
    capsys.readouterr()
    from phasecode.core import mix64

    code = main([
        "decode", "--signal", str(tmp_path / "6" / "trial0.signal"),
        "--measurements", str(tmp_path / "5" / "trial0.meas"),
        "--ensemble", "balls", "--bins", "140", "--d", "7",
        "--ens-seed", str(mix64(5, 0, 1)), "--out", str(tmp_path / "rec.txt"),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    status = json.loads(lines[0])
    assert status["status"] == "FullRecovery" and status["residual"] is None


def test_decode_rejects_malformed_measurements_via_subprocess(tmp_path):
    meas = tmp_path / "y.txt"
    meas.write_text("2 300 7\n1.0 1.0 0.5 1.0\n1.0 nan 0.5 1.0\n")  # a nan magnitude on line 3
    proc = _run_phasecode(
        "decode", "--measurements", str(meas),
        "--ensemble", "balls", "--bins", "3", "--d", "2", "--ens-seed", "1", "--K", "1",
    )
    assert proc.returncode == 2
    assert "line 3" in proc.stderr and "Traceback" not in proc.stderr


def _assert_refused_naming(path, err):
    lines = err.splitlines()
    assert len(lines) == 1 and str(path) in lines[0] and "Traceback" not in err, err


def test_decode_refuses_a_missing_or_directory_measurements_path(tmp_path, capsys):
    for path in (tmp_path / "missing.meas", tmp_path):
        argv = ["decode", "--measurements", str(path), "--bins", "3", "--d", "2", "--ens-seed", "1"]
        assert main(argv) == 2
        _assert_refused_naming(path, capsys.readouterr().err)


def test_simulate_refuses_an_unwritable_out_path_before_any_trial(tmp_path, capsys, monkeypatch):
    import phasecode.cli as cli

    def no_trials(cfg):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "run_simulation", no_trials)
    out = tmp_path / "missing_dir" / "x.csv"
    argv = ["simulate", "--n", "100", "--K", "5", "--c", "3.5", "--trials", "1", "--out", str(out)]
    assert main(argv) == 2
    _assert_refused_naming(out, capsys.readouterr().err)


def test_bench_runs_small(tmp_path):
    rows = run_bench(n=10**8, K_list=[100, 200], d=5, c=3.5, trials=1, seed=3)
    assert [r.K for r in rows] == [100, 200]
    assert all(r.mean_decode_ms > 0 for r in rows)
    assert rows[1].resident_elements > rows[0].resident_elements


def test_bench_state_at_n_1e10():
    rows = run_bench(n=10_000_000_000, K_list=[300, 600], trials=2, seed=11)
    assert [(r.resident_elements, r.fraction_recovered) for r in rows] == [(13350, 1.0), (26700, 1.0)]


def test_bench_trivial_sparsity_is_instant():
    rows = run_bench(n=10**10, K_list=[1], d=2, c=4.0, trials=1, seed=4)
    assert rows[0].mean_decode_ms < 10.0
    assert rows[0].fraction_recovered == 1.0


def test_crt_comparison_overloaded_code_fails_both_ways():
    # K > M: far more balls than bins, both ensembles must collapse
    rows = run_crt_comparison((7, 9, 11, 13), [120], trials=10, seed=2)
    assert rows[0].rate_crt <= 0.1
    assert rows[0].rate_balls <= 0.1


def test_ff_verify_all_pass():
    results = run_ff_verify(n_list=[60], checks_per_case=10, seed=1)
    assert results
    assert all(ok for _, _, ok in results)


def test_ff_verify_checks_the_shared_field_acquisition(monkeypatch):
    # the acquire suite is the one that runs ff_sparse_acquire, the path a
    # mask/lens acquisition takes; a skew there must fail it alone
    import phasecode.cli as cli_module
    from phasecode.measurement import MeasurementSet

    real = cli_module.ff_sparse_acquire

    def skewed(x, ens, seed):
        meas = real(x, ens, seed)
        return MeasurementSet(meas.y * (1.0 + 1e-7), meas.params)

    monkeypatch.setattr(cli_module, "ff_sparse_acquire", skewed)
    results = {name: ok for name, _, ok in run_ff_verify(n_list=[60], checks_per_case=3, seed=1)}
    assert results.pop("n=60 acquire") is False
    assert all(results.values())


def test_ff_verify_unknown_size_is_config_error():
    assert main(["ff-verify", "--n-list", "61"]) == 2


def test_nonsparse_subcommand(tmp_path, capsys):
    assert main(["nonsparse", "--mode", "general", "--n", "64", "--trials", "3"]) == 0
    assert main(["nonsparse", "--mode", "fourier", "--n", "64", "--trials", "3",
                 "--dump", str(tmp_path / "dm")]) == 0
    dumped = (tmp_path / "dm.fourier.meas").read_text().splitlines()
    assert dumped[0].startswith("64 ")
    capsys.readouterr()


def _run_python(*args):
    """``python ARGS`` in a child that finds the package where this process
    did, installed or not."""
    paths = [str(Path(phasecode.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_phasecode(*args):
    return _run_python("-m", "phasecode", *args)


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only the design tool's root finders need it, and every importing
    # process (each Monte Carlo pool worker) would pay ~0.5 s for it
    proc = _run_python("-c", "import sys, phasecode.cli; print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_subcommands_reject_flags_they_do_not_read():
    for args in (
        ("design", "--d", "5", "--seed", "3"),
        ("bench", "--K-list", "10", "--threads", "2"),
        ("decode", "--measurements", "y.txt", "--trials", "5"),
        ("nonsparse", "--n", "8", "--out", "r.csv"),
        ("ff-verify", "--n-list", "60", "--trials", "3"),
        ("ff-sim", "--coprimes", "7,11", "--K", "2", "--out", "r.csv"),
    ):
        proc = _run_phasecode(*args)
        assert proc.returncode == 2, args
        assert "unrecognized arguments: " + " ".join(args[-2:]) in proc.stderr, args


def test_cli_smoke_via_subprocess():
    proc = _run_phasecode("design", "--d", "5,6")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("d,")
