"""Experiment driver and CLI tests: configs, manifests, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

from aqec import cli
from aqec.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultManifest,
    _derive_seed,
    _read_csv,
    binomial_error_set,
    fig6_cutoff,
    parse_config,
    run,
    verify,
)
from aqec.lindblad import TruncatedOscillator


def _write(path, text):
    path.write_text(text)
    return str(path)


# -- configuration ------------------------------------------------------------------


def test_parse_config_full(tmp_path):
    cfg = parse_config(_write(tmp_path / "c.cfg", """
        # comment line
        experiment = fig3
        seed = 99
        workers = 2
        out_dir = somewhere
        samples = 1000   # inline comment
        t_values = 1.0, 2.0, 3.5
    """))
    assert cfg.experiment == "fig3"
    assert cfg.seed == 99
    assert cfg.workers == 2
    assert cfg.out_dir == "somewhere"
    assert cfg.params["samples"] == 1000
    assert cfg.params["t_values"] == (1.0, 2.0, 3.5)
    # untouched keys resolve to schema defaults
    assert cfg.params["ell"] == 6


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path / "c.cfg", "experiment = appH\n"))
    assert cfg.out_dir == os.path.join("results", "appH")
    assert cfg.full_scale is False
    assert cfg.params["l_values"] == (3, 5, 7)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path / "c.cfg", "experiment = fig3\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_config(path)


def test_parse_config_rejects_duplicate_and_missing(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(_write(tmp_path / "a.cfg", "experiment = fig3\nseed = 1\nseed = 2\n"))
    with pytest.raises(ValueError, match="experiment"):
        parse_config(_write(tmp_path / "b.cfg", "seed = 1\n"))
    with pytest.raises(ValueError, match="unknown experiment"):
        parse_config(_write(tmp_path / "c.cfg", "experiment = fig99\n"))


def test_full_scale_switches_defaults():
    desk = ExperimentConfig(experiment="figE7")
    full = ExperimentConfig(experiment="figE7", full_scale=True)
    assert len(full.params["n_values"]) > len(desk.params["n_values"])
    assert max(full.params["n_values"]) == 10_000_000
    # explicit overrides win over the full-scale defaults
    pinned = ExperimentConfig(experiment="figE7", full_scale=True,
                              params={"n_values": (100,)})
    assert pinned.params["n_values"] == (100,)


def test_unknown_experiment_and_params():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig(experiment="fig2", params={"bogus": 3})


def test_derive_seed_stable_and_distinct():
    a = _derive_seed(7, "fig4a", 3, 0.06)
    assert a == _derive_seed(7, "fig4a", 3, 0.06)
    assert a != _derive_seed(7, "fig4a", 3, 0.08)
    assert a != _derive_seed(8, "fig4a", 3, 0.06)


def test_every_experiment_has_runner_and_verifier():
    from aqec.experiments import _RUNNERS, _VERIFIERS
    assert set(_RUNNERS) == set(EXPERIMENTS) == set(_VERIFIERS)


# -- runs, manifests, determinism ---------------------------------------------------


def _run_tiny_fig3(tmp_path, name, seed=123, workers=1):
    cfg = ExperimentConfig(experiment="fig3", seed=seed, workers=workers,
                           out_dir=str(tmp_path / name),
                           params={"samples": 140_000})
    return cfg, run(cfg)


def test_run_writes_manifest_and_verify_passes(tmp_path):
    cfg, manifest = _run_tiny_fig3(tmp_path, "out")
    assert set(manifest.files) == {"fig3_theorem2.csv", "fig3_theorem4.csv",
                                   "fig3_mc.csv", "fig3_asymptotic.csv"}
    path = os.path.join(cfg.out_dir, "manifest.json")
    loaded = ResultManifest.load(path)
    assert loaded.experiment == "fig3"
    assert loaded.files == manifest.files
    assert loaded.version == manifest.version
    report = verify(path)
    assert report.ok
    assert any(name.startswith("checksum:") for name, _, _ in report.checks)
    assert all(line.startswith("PASS") for line in report.lines())


def test_rerun_is_byte_identical(tmp_path):
    cfg1, _ = _run_tiny_fig3(tmp_path, "a")
    cfg2, _ = _run_tiny_fig3(tmp_path, "b")
    for name in os.listdir(cfg1.out_dir):
        if not name.endswith(".csv"):
            continue
        b1 = open(os.path.join(cfg1.out_dir, name), "rb").read()
        b2 = open(os.path.join(cfg2.out_dir, name), "rb").read()
        assert b1 == b2, name


def test_worker_count_invariance(tmp_path):
    # 140k samples spans multiple shards, so the merge order actually matters
    cfg1, _ = _run_tiny_fig3(tmp_path, "w1", workers=1)
    cfg2, _ = _run_tiny_fig3(tmp_path, "w2", workers=2)
    b1 = open(os.path.join(cfg1.out_dir, "fig3_mc.csv"), "rb").read()
    b2 = open(os.path.join(cfg2.out_dir, "fig3_mc.csv"), "rb").read()
    assert b1 == b2


def test_seed_changes_monte_carlo_output(tmp_path):
    cfg1, _ = _run_tiny_fig3(tmp_path, "s1", seed=1)
    cfg2, _ = _run_tiny_fig3(tmp_path, "s2", seed=2)
    c1 = _read_csv(os.path.join(cfg1.out_dir, "fig3_mc.csv"))
    c2 = _read_csv(os.path.join(cfg2.out_dir, "fig3_mc.csv"))
    assert not np.array_equal(c1["y"], c2["y"])


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("AQEC_WORKERS", "3")
    cfg = ExperimentConfig(experiment="appH", out_dir=str(tmp_path / "h"))
    manifest = run(cfg)
    assert manifest.workers == 3


def test_verify_flags_corrupted_csv(tmp_path):
    cfg = ExperimentConfig(experiment="appH", out_dir=str(tmp_path / "h"))
    run(cfg)
    target = os.path.join(cfg.out_dir, "appH_table.csv")
    body = open(target).read()
    open(target, "w").write(body.replace("-12", "-13"))
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    assert not report.ok
    failed = [name for name, ok, _ in report.checks if not ok]
    assert "checksum:appH_table.csv" in failed
    # assertions are skipped rather than run on tampered data
    assert any(name == "assertions" for name in failed)


def test_verify_flags_missing_file(tmp_path):
    cfg = ExperimentConfig(experiment="appH", out_dir=str(tmp_path / "h"))
    run(cfg)
    os.remove(os.path.join(cfg.out_dir, "appH_table.csv"))
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    assert not report.ok


def test_fig2_and_fig5b_verify_clean(tmp_path):
    for exp in ("fig2", "fig5b"):
        cfg = ExperimentConfig(experiment=exp, out_dir=str(tmp_path / exp))
        run(cfg)
        report = verify(os.path.join(cfg.out_dir, "manifest.json"))
        assert report.ok, report.lines()


def test_fig5a_zero_estimate_verifies_at_seed_1(tmp_path):
    # seed 1 samples no failure at t = 0.01, where the exact value is 2.6e-5:
    # the 4-sigma comparison needs the zero estimate's error bar to be nonzero
    cfg = ExperimentConfig(experiment="fig5a", seed=1, out_dir=str(tmp_path / "f5"))
    run(cfg)
    mc = _read_csv(os.path.join(cfg.out_dir, "fig5a_mc.csv"))
    assert mc["y"][0] == 0.0 and mc["stderr"][0] > 0
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    assert report.ok, report.lines()


def test_figE8_verify_clean(tmp_path):
    cfg = ExperimentConfig(experiment="figE8", out_dir=str(tmp_path / "e8"),
                           params={"n_values": (1000, 3162, 10_000, 31_623, 100_000)})
    run(cfg)
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    assert report.ok, report.lines()


def test_fig6_and_figE7_verify_use_gate_criteria(tmp_path):
    reports = {}
    for exp in ("fig6", "figE7"):
        cfg = ExperimentConfig(experiment=exp, out_dir=str(tmp_path / exp))
        run(cfg)
        reports[exp] = verify(os.path.join(cfg.out_dir, "manifest.json"))
        assert reports[exp].ok, reports[exp].lines()
    details = {name: detail for name, _, detail in reports["fig6"].checks}
    assert details["fig6_l2:rate_scaling_exponent_within_5pct"].startswith(
        "leading exponent")
    details = {name: detail for name, _, detail in reports["figE7"].checks}
    assert details["figE7:saturated_slope_within_5pct_of_limit"].endswith(
        "vs -0.4047")


def test_verify_reports_out_of_domain_criteria(tmp_path):
    cfg = ExperimentConfig(experiment="fig6", out_dir=str(tmp_path / "f6"),
                           params={"ell_values": (1,), "delta_values": (0.001, 0.002)})
    run(cfg)
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    failed = {name: detail for name, ok, detail in report.checks if not ok}
    assert "three distinct" in failed["fig6_l1:rate_scaling_exponent_within_5pct"]

    cfg = ExperimentConfig(experiment="figE7", out_dir=str(tmp_path / "e7"),
                           params={"n_values": (1000, 3162), "h_fraction": 0.5})
    run(cfg)
    report = verify(os.path.join(cfg.out_dir, "manifest.json"))
    failed = {name: detail for name, ok, detail in report.checks if not ok}
    assert "h_fraction" in failed["figE7:saturated_slope_within_5pct_of_limit"]


def test_csv_numeric_formatting(tmp_path):
    cfg = ExperimentConfig(experiment="fig2", out_dir=str(tmp_path / "f2"))
    run(cfg)
    lines = open(os.path.join(cfg.out_dir, "fig2_minima.csv")).read().splitlines()
    assert lines[0] == "x,y,ell_min,ell_predicted"
    cells = lines[1].split(",")
    assert len(cells) == 4
    float(cells[0]), float(cells[1])  # numeric cells parse
    assert cells[2] == str(int(cells[2]))  # integer column stays integral


# -- binomial helper ----------------------------------------------------------------


def test_binomial_error_set_dedup():
    osc = TruncatedOscillator(12)
    e1 = binomial_error_set(osc, 1)
    assert len(e1) == 4  # identity, loss, gain, dephase
    assert np.allclose(e1[0], np.eye(12))
    e2 = binomial_error_set(osc, 2)
    # 9 weight-2 products minus the duplicate gain-then-loss == number
    assert len(e2) == 12
    keys = {np.round(op, 10).tobytes() for op in e2}
    assert len(keys) == len(e2)


def test_fig6_cutoff_defaults():
    assert fig6_cutoff(1, False) == 15
    assert fig6_cutoff(2, False) == 35
    assert fig6_cutoff(3, False) == 77  # no reduced setting; falls back to full
    assert fig6_cutoff(1, True) == 21
    assert fig6_cutoff(2, True) == 45


# -- CLI ----------------------------------------------------------------------------


def test_cli_run_and_verify_roundtrip(tmp_path, capsys):
    cfg_path = _write(tmp_path / "h.cfg",
                      f"experiment = appH\nout_dir = {tmp_path / 'out'}\n")
    assert cli.main(["run", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "appH_table.csv" in out and "manifest.json" in out
    manifest = str(tmp_path / "out" / "manifest.json")
    assert cli.main(["verify", manifest]) == 0
    out = capsys.readouterr().out
    assert "PASS checksum:appH_table.csv" in out
    assert "PASS appH:trace_oracle_matches_closed_form" in out


def test_cli_verify_corrupted_exits_2(tmp_path, capsys):
    cfg_path = _write(tmp_path / "h.cfg",
                      f"experiment = appH\nout_dir = {tmp_path / 'out'}\n")
    cli.main(["run", cfg_path])
    capsys.readouterr()
    target = tmp_path / "out" / "appH_table.csv"
    target.write_text(target.read_text() + "tamper\n")
    assert cli.main(["verify", str(tmp_path / "out" / "manifest.json")]) == 2
    out = capsys.readouterr().out
    assert "FAIL checksum:appH_table.csv" in out


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1
    bad = _write(tmp_path / "bad.cfg", "experiment = fig3\nwrong_key = 1\n")
    assert cli.main(["run", bad]) == 1
    assert "wrong_key" in capsys.readouterr().err
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 1
    broken = _write(tmp_path / "broken.json", "{not json")
    assert cli.main(["verify", broken]) == 1
    assert cli.main(["not-a-command"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0


def test_cli_recurrence_output(capsys):
    assert cli.main(["recurrence", "--h", "1", "--n", "2", "--p1", "0.6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "v,s,log_s"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    # absorbing walk with one interior site: s_1 = p1 * (1 - 1/n)
    assert float(rows[1][1]) == pytest.approx(0.3, rel=1e-12)
    assert float(rows[2][1]) == 1.0


def test_cli_bounds_grid(tmp_path, capsys):
    grid = _write(tmp_path / "g.csv",
                  "op,ell,h,xi,kappa,delta,n_channels,t,z\n"
                  "f_ell,1,,,,,,,1.0\n"
                  "delta_eff,6,,,1.0,1.0,1,,\n"
                  "theorem2,,6,0.0,1.0,1.0,1,2.0,\n")
    assert cli.main(["bounds", "--grid", grid]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("value,extra")
    values = [float(line.split(",")[-2]) for line in lines[1:]]
    assert values[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert values[1] == pytest.approx(2.0 ** -7, rel=1e-12)
    assert values[2] == pytest.approx(-np.expm1(-2.0 / 64.0), rel=1e-12)


def test_cli_bounds_unknown_op_exits_1(tmp_path, capsys):
    grid = _write(tmp_path / "g.csv", "op,t\nwat,1.0\n")
    assert cli.main(["bounds", "--grid", grid]) == 1
    assert "unknown op" in capsys.readouterr().err


def test_cli_bounds_fractional_integer_column_exits_1(tmp_path, capsys):
    grid = _write(tmp_path / "g.csv",
                  "op,ell,kappa,delta,n_channels,t\n"
                  "p_exact_quadrature,2.5,1.0,1.0,1,1.0\n")
    assert cli.main(["bounds", "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert "'ell'" in err and "2.5" in err
    whole = _write(tmp_path / "w.csv",
                   "op,ell,kappa,delta,n_channels,t\n"
                   "p_exact_quadrature,2.0,1.0,1.0,1,1.0\n")
    assert cli.main(["bounds", "--grid", whole]) == 0


def test_cli_missing_required_flag_exits_1():
    assert cli.main(["recurrence", "--h", "1", "--n", "2"]) == 1
    assert cli.main(["bounds"]) == 1
