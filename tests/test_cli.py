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


def test_decode_rejects_malformed_measurements_via_subprocess(tmp_path):
    meas = tmp_path / "y.txt"
    meas.write_text("2 300 7\n1.0 1.0 0.5 1.0\n1.0 nan 0.5 1.0\n")  # a nan magnitude on line 3
    proc = _run_phasecode(
        "decode", "--measurements", str(meas),
        "--ensemble", "balls", "--bins", "3", "--d", "2", "--ens-seed", "1", "--K", "1",
    )
    assert proc.returncode == 2
    assert "line 3" in proc.stderr and "Traceback" not in proc.stderr


def test_bench_runs_small(tmp_path):
    rows = run_bench(n=10**8, K_list=[100, 200], d=5, c=3.5, trials=1, seed=3)
    assert [r.K for r in rows] == [100, 200]
    assert all(r.mean_decode_ms > 0 for r in rows)
    assert rows[1].resident_elements > rows[0].resident_elements


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


def test_ff_verify_unknown_size_is_config_error():
    assert main(["ff-verify", "--n-list", "61"]) == 2


def test_nonsparse_subcommand(tmp_path, capsys):
    assert main(["nonsparse", "--mode", "general", "--n", "64", "--trials", "3"]) == 0
    assert main(["nonsparse", "--mode", "fourier", "--n", "64", "--trials", "3",
                 "--dump", str(tmp_path / "dm")]) == 0
    dumped = (tmp_path / "dm.fourier.meas").read_text().splitlines()
    assert dumped[0].startswith("64 ")
    capsys.readouterr()


def _run_phasecode(*args):
    """``python -m phasecode ARGS`` in a child that finds the package where
    this process did, installed or not."""
    paths = [str(Path(phasecode.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "phasecode", *args], capture_output=True, text=True, env=env)


def test_cli_smoke_via_subprocess():
    proc = _run_phasecode("design", "--d", "5,6")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("d,")
