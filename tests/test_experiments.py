"""Experiment driver and CLI tests: configs, manifests, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from aqec import cli
from aqec.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultManifest,
    _coerce,
    _derive_seed,
    _params_sha256,
    _read_csv,
    _sha256,
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


def test_parse_config_coerces_each_type(tmp_path):
    cfg = parse_config(_write(tmp_path / "c.cfg", """
        experiment = fig4a
        full_scale = yes
        out_dir = there
        samples = 300
        delta = 2
        l_values = 3, 5
        tau_values = 0.1, 1
    """))
    got = {k: cfg.params[k] for k in ("samples", "delta", "l_values", "tau_values")}
    assert (cfg.full_scale, cfg.out_dir) == (True, "there")
    assert got == {"samples": 300, "delta": 2.0, "l_values": (3, 5), "tau_values": (0.1, 1.0)}
    assert [type(v) for v in (cfg.full_scale, cfg.out_dir, got["samples"], got["delta"])] \
        == [bool, str, int, float]
    assert [type(v) for v in got["l_values"] + got["tau_values"]] == [int, int, float, float]
    assert _coerce(True, " No ") is False
    for example, raw in ((True, "maybe"), (1, "2.5"), (1.0, "abc"), ((1,), "1, 2.5")):
        with pytest.raises(ValueError):
            _coerce(example, raw)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_default_config_parses_back_to_defaults(tmp_path, experiment):
    defaults = ExperimentConfig(experiment=experiment).params
    lines = [f"experiment = {experiment}"]
    for key, value in defaults.items():
        items = value if isinstance(value, tuple) else (value,)
        lines.append(f"{key} = " + ", ".join(repr(v) for v in items))
    params = parse_config(_write(tmp_path / "c.cfg", "\n".join(lines) + "\n")).params
    assert params == defaults
    assert [repr(v) for v in params.values()] == [repr(v) for v in defaults.values()]


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


def test_manifest_save_load_save_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(experiment="fig4b", out_dir=str(tmp_path / "f4b"),
                           params={"t_values": (0.05,), "m_values": (2,), "samples": 200})
    run(cfg)
    first = tmp_path / "f4b" / "manifest.json"
    again = tmp_path / "again.json"
    ResultManifest.load(str(first)).save(str(again))
    assert again.read_bytes() == first.read_bytes()


def test_verify_checks_params_checksum(tmp_path):
    cfg = ExperimentConfig(experiment="fig3", out_dir=str(tmp_path / "f3"))
    manifest = run(cfg)
    assert manifest.params_sha256 == _params_sha256(cfg.params)
    target = tmp_path / "f3" / "manifest.json"
    path = str(target)
    body = json.loads(target.read_text())
    assert ("checksum:params", True, "") in verify(path).checks
    # an edited value fails the check, and the assertions are not run on it
    edited = dict(body, params=dict(body["params"], kappa=body["params"]["kappa"] * 2))
    target.write_text(json.dumps(edited))
    failed = [name for name, ok, _ in verify(path).checks if not ok]
    assert failed == ["checksum:params", "assertions"]
    # a manifest without the params checksum is rejected: it would turn the check off
    del body["params_sha256"]
    target.write_text(json.dumps(body))
    with pytest.raises(ValueError, match="lacks key\\(s\\) params_sha256"):
        ResultManifest.load(path)


# sha256 of every CSV the desk defaults write, recorded before the Pauli and
# decoder layer was consolidated, and for the frame Monte Carlo CSVs (fig4a,
# fig4b, fig5a_mc) again when the draw order and the DP's cap changed; a pure
# refactor keeps all of them.  fig6 is
# left out: its digits come from an adaptive ODE solve and can move with the
# scipy or BLAS build.
_DESK_SHA256 = {
    "fig2": {
        "fig2_minima.csv": "c9ba23ad4a9f1e1fc2272b0d81d5598c233c0b564a16a1e9eb60b5ae0de9ac8a",
        "fig2_rate_r0.005.csv": "36f66007087c5613ee59bd9aa4ff0e9017c808b2d823fe212d07ec359b428686",
        "fig2_rate_r0.01.csv": "74af03873b2a32ad6e3b7a1816a69852569d18099b381c842737d9a83fd3fffc",
        "fig2_rate_r0.02.csv": "a22d9a7940afa8cd5f266f3fd7909acbedac0385594a44d3880e14d9e9abc719",
    },
    "fig3": {
        "fig3_asymptotic.csv": "3ca9519859842607edad369eab0c79d01bd0284c1ec6d7c164098b4d9b30751d",
        "fig3_mc.csv": "328b77b27ead04fb4177fbdf73b183d3e234bb7641107209c69cce7ae0f7ad51",
        "fig3_theorem2.csv": "e50de74bc438e217ee005b0a6424a7278dcc2ccd92d487020c724b4a8d591be4",
        "fig3_theorem4.csv": "29e4da044f97283c4935a30ad4751e7928ada60568a2322e78b6285e565bcf4c",
    },
    "fig4a": {
        "fig4a_L3.csv": "f419608b11deaab57217965ea16919d3a1dd43470b3c6b839df7555bb3f42227",
        "fig4a_L4.csv": "d27b87d30373fddb718313541b3a26333d64077c723ba81381ab24acd4bc7bbc",
    },
    "fig4b": {
        "fig4b_interleaving.csv": "9425b21f4ca482a8834a1b5fa4f16611560b30405b9992afc42d881a97fa7bf7",
    },
    "fig5a": {
        "fig5a_exact.csv": "81c89dd64558626ab56202fc0dac42774d8eac3cb7c66585ff391a05f745ab85",
        "fig5a_mc.csv": "efeb154914b9f3605dc69256aa80e9d291c83fd11365b034b99c84de2e2b3ca8",
        "fig5a_theorem4.csv": "1d606581cd705c7a4893b6b9ed367ee6e1ec438f3550df7a7fe2e550c2b51155",
    },
    "fig5b": {
        "fig5b_theorem2_L4.csv": "cd5299376dabf736175cce629170e141bedc8d2a87f571e069b6b7d4531a7fd4",
        "fig5b_theorem2_L6.csv": "9e02a3502ee6b0089819e9c710775a9e83347336581d7da03574530ea59f4e7b",
        "fig5b_theorem2_L8.csv": "6679980143bc482eda71dd503e2cdc6602fb69eff6450b9800b4fd9d5fd850a2",
        "fig5b_theorem3_L4.csv": "5ccb0a6eb84c30d6c056864a50277e261f61bd6471c8d9ea4f83c9e4b132f028",
        "fig5b_theorem3_L6.csv": "602fbd9562c05deb3e43dae2308b53aa612ba85e158956d094fc6e77355e65c2",
        "fig5b_theorem3_L8.csv": "379928a8237859bc51875d426d9040b613215bd659af43862c1eb6660a2b11d2",
    },
    "figE7": {
        "figE7_ratio_kd2.csv": "0d0b2431b75ed6de7f0a9f201087427009fc8775373a992679a72d1ac5b1a3c4",
        "figE7_ratio_kd4.csv": "b6d004653faf28a4f2435d37c39ae73a6c2dee439dd4ed4c176bc182fd346bf7",
        "figE7_ratio_kd8.csv": "24ea32f10366f3a45a70994c6c0f9f35c053a336ca426d7b93aab5d715258688",
        "figE7_saturated.csv": "44490fdc62498d7e4a0f6305147c10ef21b1dce6ed6b06794d4bc4f65b1f0696",
    },
    "figE8": {
        "figE8_exponents.csv": "956be129609a1203332c72f3902650619af5b843797627ee1d15f22f56c09998",
        "figE8_ratio_kd2.csv": "5f2940c8b225e8f29f74e2fcde244521b22cbd074dc6dc2885b9c3f5bfd83c30",
        "figE8_ratio_kd4.csv": "636918b6cdcaaa725242f9b94736e8b44e59fde51846cc7f388cd02c8004768d",
        "figE8_ratio_kd8.csv": "eba5890bf5a71a39c4fc0e250864411520af53ac44105e20f929ca08689db72c",
    },
    "appH": {
        "appH_table.csv": "0dd8c527385fe4c059881d3e1f4cdcfd34dca35f9f33d8268094fdd72d3c397d",
    },
}


@pytest.mark.parametrize("experiment", sorted(_DESK_SHA256))
def test_desk_checksums_pinned(tmp_path, experiment):
    cfg = ExperimentConfig(experiment=experiment, out_dir=str(tmp_path / experiment))
    assert run(cfg).files == _DESK_SHA256[experiment]
    assert verify(os.path.join(cfg.out_dir, "manifest.json")).ok


def test_read_csv_parses_true_false_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,holds,label\n1,true,a\n2,false,b\n")
    with pytest.raises(ValueError, match="column 'label' is neither numeric nor true/false"):
        _read_csv(str(path))
    path.write_text("x,holds\n1,true\n2,false\n")
    cols = _read_csv(str(path))
    assert cols["x"].tolist() == [1.0, 2.0]
    assert cols["holds"].tolist() == [True, False]


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


def test_cli_run_zero_workers_exits_1(tmp_path, capsys):
    cfg_path = _write(tmp_path / "h.cfg",
                      f"experiment = appH\nworkers = 0\nout_dir = {tmp_path / 'out'}\n")
    assert cli.main(["run", cfg_path]) == 1
    assert capsys.readouterr().err == "error: workers must be positive\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_nan_rate_exits_1(tmp_path):
    # a NaN rate used to reach solve_ivp, which spun until it was killed; a
    # subprocess with a timeout turns such a hang into a failure
    cfg_path = _write(tmp_path / "f6.cfg",
                      "experiment = fig6\nell_values = 1\n"
                      "delta_values = nan, 0.001, 0.002\nt_points = 4\n"
                      f"out_dir = {tmp_path / 'out'}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "aqec.cli", "run", cfg_path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: rates must be finite and nonnegative")


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test-only oracle; the package matches with its own blossom
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import aqec.cli; "
         "print('networkx' in sys.modules)", src],
        capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


_FIGE8_WINDOW = "n_values within one decade of the largest"


@pytest.mark.parametrize("body,key,distinct", [
    # fit_start past t_max leaves no fit point; it used to leak a TypeError
    ("experiment = fig6\nfit_start = 100.0\n", "fit_start", 0),
    # one N or one kappa/Delta used to write a rank-deficient fit to the CSV
    ("experiment = figE8\nn_values = 1000\n", _FIGE8_WINDOW, 1),
    ("experiment = figE7\nkd_values = 2.0\n", "kd_values", 1),
    # two N more than a decade apart leave one N in the fit window
    ("experiment = figE8\nn_values = 1000, 100000\n", _FIGE8_WINDOW, 1),
], ids=["fig6_fit_past_t_max", "figE8_one_n", "figE7_one_kd", "figE8_n_decades_apart"])
def test_cli_run_degenerate_fit_exits_1(tmp_path, capsys, body, key, distinct):
    cfg_path = _write(tmp_path / "c.cfg", body + f"out_dir = {tmp_path / 'out'}\n")
    assert cli.main(["run", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key}: need at least two distinct x, got {distinct}\n"


@pytest.mark.parametrize("body,table", [
    # the first two used to crash verify with an IndexError, the other four
    # to pass verify with no science check
    ("experiment = fig4a\ntau_values =\n", "fig4a_L3.csv"),
    ("experiment = fig5b\nt_points = 0\n", "fig5b_theorem2_L4.csv"),
    ("experiment = fig4a\nl_values =\n", "fig4a: the config gives no table"),
    ("experiment = appH\nl_values =\n", "appH_table.csv"),
    ("experiment = fig2\nr_grid_points = 0\n", "fig2_minima.csv"),
    ("experiment = fig6\ndelta_values =\n", "fig6_rates.csv"),
    # these two used to name no key: min() and numpy's max() of nothing
    ("experiment = fig2\nr_values =\n", "r_values"),
    ("experiment = figE8\nn_values =\n", "n_values"),
], ids=["fig4a_no_tau", "fig5b_no_t", "fig4a_no_l", "appH_no_l", "fig2_no_grid",
        "fig6_no_delta", "fig2_no_r", "figE8_no_n"])
def test_cli_run_empty_grid_exits_1(tmp_path, capsys, body, table):
    cfg_path = _write(tmp_path / "c.cfg", body + f"out_dir = {tmp_path / 'out'}\n")
    assert cli.main(["run", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and table in err
    assert not (tmp_path / "out").exists()


_MANIFEST_BODY = {"experiment": "appH", "params": {}, "seed": 1, "workers": 1,
                  "full_scale": False, "version": "0", "files": {}, "wall_clock_s": 0.0,
                  "params_sha256": "0" * 64}


@pytest.mark.parametrize("body,named", [
    (dict(_MANIFEST_BODY, experiment="nope"), "unknown experiment 'nope'"),
    (dict(_MANIFEST_BODY, experiment=["appH"]), "unknown experiment ['appH']"),
    ({k: v for k, v in _MANIFEST_BODY.items() if k != "params"}, "lacks key(s) params"),
    ([_MANIFEST_BODY], "not a JSON object"),
    (dict(_MANIFEST_BODY, params=[]), "params are not a JSON object"),
    (dict(_MANIFEST_BODY, experiment="figE7",
          params={"n_values": [1000], "kd_values": [2.0]}), "params lack key(s) h_fraction"),
    (dict(_MANIFEST_BODY, files=["appH_table.csv"]), "files are not an object of string"),
    (dict(_MANIFEST_BODY, files={"appH_table.csv": 5}), "files are not an object of string"),
    # a listed file outside the manifest's directory used to pass its checksum
    (dict(_MANIFEST_BODY, files={"/etc/hostname": "0" * 64}), "not plain names"),
    (dict(_MANIFEST_BODY, files={"sub/appH_table.csv": "0" * 64}), "not plain names"),
    (dict(_MANIFEST_BODY, files={"../appH_table.csv": "0" * 64}), "not plain names"),
    (dict(_MANIFEST_BODY, files={"..": "0" * 64}), "not plain names"),
    (dict(_MANIFEST_BODY, files={".": "0" * 64}), "not plain names"),
], ids=["unknown_experiment", "list_experiment", "missing_params", "json_list",
        "params_list", "figE7_missing_h_fraction", "files_list", "files_int_digest",
        "files_absolute", "files_separator", "files_parent_path", "files_dotdot",
        "files_dot"])
def test_cli_verify_malformed_manifest_exits_1(tmp_path, capsys, body, named):
    path = _write(tmp_path / "manifest.json", json.dumps(body))
    assert cli.main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_cli_verify_unlisted_table_exits_2(tmp_path, capsys):
    cfg = ExperimentConfig(experiment="fig2", out_dir=str(tmp_path / "f2"))
    run(cfg)
    target = tmp_path / "f2" / "manifest.json"
    target.write_text(json.dumps(dict(json.loads(target.read_text()), files={})))
    assert cli.main(["verify", str(target)]) == 2
    out = capsys.readouterr().out
    assert "FAIL table:fig2_minima.csv" in out
    assert "Traceback" not in out


@pytest.mark.parametrize("experiment,keep,missing", [
    # a theorem2-only fig5b manifest used to crash verify with KeyError: 4
    ("fig5b", ("fig5b_theorem2_",), "fig5b_theorem3_L4.csv"),
    # the other three used to pass verify with no science check
    ("fig5b", (), "fig5b_theorem2_L4.csv"),
    ("fig4a", (), "fig4a_L3.csv"),
    ("fig2", ("fig2_minima",), "fig2_rate_r0.005.csv"),
], ids=["fig5b_theorem2_only", "fig5b_no_files", "fig4a_no_files", "fig2_minima_only"])
def test_cli_verify_stripped_manifest_exits_2(tmp_path, capsys, experiment, keep, missing):
    # the verifier reads the tables its checksummed params name, whatever
    # the manifest lists
    run(ExperimentConfig(experiment=experiment, out_dir=str(tmp_path / "out")))
    target = tmp_path / "out" / "manifest.json"
    body = json.loads(target.read_text())
    body["files"] = {k: v for k, v in body["files"].items() if k.startswith(keep)}
    target.write_text(json.dumps(body))
    assert cli.main(["verify", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"FAIL table:{missing}: needed but not listed in the manifest" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _rewrite_table(run_dir, name, edit):
    """Apply edit to a run's CSV text, then write the new sha256 into its manifest,
    so verify passes the checksums and reads the edited table."""
    table = run_dir / name
    table.write_text(edit(table.read_text()))
    manifest = run_dir / "manifest.json"
    body = json.loads(manifest.read_text())
    body["files"][name] = _sha256(str(table))
    manifest.write_text(json.dumps(body))
    return str(manifest)


def test_cli_verify_missing_column_exits_2(tmp_path, capsys):
    run(ExperimentConfig(experiment="fig2", out_dir=str(tmp_path / "f2")))
    manifest = _rewrite_table(tmp_path / "f2", "fig2_minima.csv",
                              lambda text: text.replace("x,y,", "x,yy,", 1))
    assert cli.main(["verify", manifest]) == 2
    captured = capsys.readouterr()
    assert "FAIL table:fig2_minima.csv:y: column not in the file" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_short_row_exits_1(tmp_path, capsys):
    run(ExperimentConfig(experiment="figE7", out_dir=str(tmp_path / "e7")))
    manifest = _rewrite_table(tmp_path / "e7", "figE7_saturated.csv",
                              lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n")
    assert cli.main(["verify", manifest]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "cells" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_non_numeric_cell_exits_1(tmp_path, capsys):
    run(ExperimentConfig(experiment="figE7", out_dir=str(tmp_path / "e7")))
    manifest = _rewrite_table(tmp_path / "e7", "figE7_saturated.csv",
                              lambda text: text.replace("\n2,", "\nabc,", 1))
    assert cli.main(["verify", manifest]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "column 'x'" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_mistyped_param_exits_1(tmp_path, capsys):
    run(ExperimentConfig(experiment="figE7", out_dir=str(tmp_path / "e7")))
    manifest = tmp_path / "e7" / "manifest.json"
    body = json.loads(manifest.read_text())
    body["params"]["h_fraction"] = "abc"
    manifest.write_text(json.dumps(body))
    assert cli.main(["verify", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "h_fraction" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_manifest_without_params_checksum_exits_1(tmp_path, capsys):
    # with the digest gone, edited params used to pass verify with no params check
    run(ExperimentConfig(experiment="figE7", out_dir=str(tmp_path / "e7")))
    manifest = tmp_path / "e7" / "manifest.json"
    body = json.loads(manifest.read_text())
    del body["params_sha256"]
    body["params"].update(kd_values=[99.0], n_values=[7])
    manifest.write_text(json.dumps(body))
    assert cli.main(["verify", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "params_sha256" in captured.err
    assert "PASS" not in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_manifest_params_types_follow_the_schema(tmp_path):
    body = dict(_MANIFEST_BODY, experiment="figE7",
                params={"n_values": [1000], "kd_values": [2, 4.5], "h_fraction": 0})
    path = _write(tmp_path / "ok.json", json.dumps(body))
    assert ResultManifest.load(path).params["kd_values"] == [2, 4.5]
    for key, bad in (("n_values", [1000.0]), ("n_values", 1000), ("kd_values", [True]),
                     ("h_fraction", None), ("h_fraction", [0.4])):
        params = dict(body["params"], **{key: bad})
        path = _write(tmp_path / "bad.json", json.dumps(dict(body, params=params)))
        with pytest.raises(ValueError, match=f"wrong type: {key}"):
            ResultManifest.load(path)


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


def test_cli_bounds_soft_threshold_small_ratio(tmp_path, capsys):
    # at delta = 1e-4 the raw-rate scan used to leak an OverflowError
    # traceback, and at 1e-9 it would scan a billion ell
    grid = _write(tmp_path / "g.csv", "op,kappa,delta,r0\n"
                  "soft_threshold,1.0,1e-4,1.0\nsoft_threshold,1.0,1e-9,1.0\n")
    start = time.monotonic()
    assert cli.main(["bounds", "--grid", grid]) == 0
    assert time.monotonic() - start < 5.0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[0] == "soft_threshold,1.0,1e-4,1.0,0,ell_min=3678"
    ell = int(rows[1].rsplit("=", 1)[1])

    def log_rate(ell):
        return (ell + 1) * math.log(ell * 1e-9)

    assert log_rate(ell - 1) > log_rate(ell) <= log_rate(ell + 1)  # the first minimum


@pytest.mark.parametrize("t", ["", "-1.0", "nan"])
def test_cli_bounds_bad_time_exits_1(tmp_path, capsys, t):
    grid = _write(tmp_path / "g.csv",
                  "op,ell,h,xi,kappa,delta,n_channels,t\n"
                  f"theorem2,,6,0.0,1.0,1.0,1,{t}\n")
    assert cli.main(["bounds", "--grid", grid]) == 1
    assert capsys.readouterr().err.startswith("error: t must be finite and nonnegative")


_FINITE_CELL_ROWS = {  # op: (header, row with {} in the cell that goes bad)
    "theorem1": ("ell,chi,kappa,delta,l_e_norm,t", "2,1.0,1.0,{},1.0,1.0"),
    "theorem2": ("h,xi,kappa,delta,n_channels,t", "6,0.0,{},1.0,1,1.0"),
    "theorem3": ("h,xi,kappa,delta,n_channels,t", "3,{},1.0,0.001,1000,1.0"),
    "theorem4": ("ell,kappa,delta,n_channels,t", "2,1.0,{},1,1.0"),
    "delta_eff": ("ell,kappa,delta,n_channels", "6,{},1.0,1"),
    "theorem5_lower": ("a,tau_c,kappa,t", "0.5,{},1.0,1.0"),
    "toric_perturbative": ("side,kappa,delta,dims", "3,1.0,{},1D"),
    "f_ell": ("ell,z", "2,{}"),
    "p_exact_quadrature": ("ell,kappa,delta,n_channels,t", "2,1.0,{},1,1.0"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("op", sorted(_FINITE_CELL_ROWS))
def test_cli_bounds_nonfinite_cell_exits_1(tmp_path, capsys, op, value):
    header, row = _FINITE_CELL_ROWS[op]
    good = _write(tmp_path / "good.csv", f"op,{header}\n{op},{row.format('0.5')}\n")
    assert cli.main(["bounds", "--grid", good]) == 0
    capsys.readouterr()
    grid = _write(tmp_path / "g.csv", f"op,{header}\n{op},{row.format(value)}\n")
    assert cli.main(["bounds", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be finite and nonnegative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("row,status", [
    ("401,1.0,0.01,1D", 0),  # L!/j! and (delta/kappa)^(j+1) overflow; the shift fits
    ("101,1.0,1e10,1D", 1),  # the shift itself is past the float range
])
def test_cli_bounds_toric_perturbative_range(tmp_path, capsys, row, status):
    # both rows used to leak an OverflowError traceback
    grid = _write(tmp_path / "g.csv", f"op,side,kappa,delta,dims\ntoric_perturbative,{row}\n")
    assert cli.main(["bounds", "--grid", grid]) == status
    captured = capsys.readouterr()
    if status == 0:
        value = float(captured.out.splitlines()[1].split(",")[-2])
        assert value == pytest.approx(-6.511782795572901e94, rel=1e-11)
    else:
        assert captured.err.startswith("error: ") and "float range" in captured.err


@pytest.mark.parametrize("op,header,row,named", [
    ("toric_perturbative", "side,kappa,delta,dims", ",1.0,0.01,2D", "side"),
    ("f_ell", "ell,z", ",1.0", "ell"),
])
def test_cli_bounds_missing_count_exits_1(tmp_path, capsys, op, header, row, named):
    # an empty count cell used to leak a TypeError traceback
    grid = _write(tmp_path / "g.csv", f"op,{header}\n{op},{row}\n")
    assert cli.main(["bounds", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {named} must be a nonnegative integer, got None\n"
    assert captured.out == ""


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
    assert "ell must be a nonnegative integer, got 2.5" in err
    whole = _write(tmp_path / "w.csv",
                   "op,ell,kappa,delta,n_channels,t\n"
                   "p_exact_quadrature,2.0,1.0,1.0,1,1.0\n")
    assert cli.main(["bounds", "--grid", whole]) == 0


def test_cli_missing_required_flag_exits_1():
    assert cli.main(["recurrence", "--h", "1", "--n", "2"]) == 1
    assert cli.main(["bounds"]) == 1
