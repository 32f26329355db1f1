"""Reproducible experiment drivers: configs, runners, manifests, verification.

Each experiment id maps to a runner that writes one CSV per curve plus a JSON
manifest recording resolved parameters, the root seed, the toolkit version,
and a sha256 checksum of the parameters and of each output file.  Runs are
deterministic: rerunning a config reproduces every CSV byte for byte, for any
worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .bounds import (
    BoundInputs,
    leading_exponent,
    ols_line,
    p_asymptotic,
    recurrence_slope_limit,
    solve_recurrence,
    soft_threshold,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    toric_1d_trace_oracle,
    toric_perturbative,
)
from .decoders import MwpmDecoder, build_lookup
from .lindblad import (
    TruncatedOscillator,
    binomial_codewords,
    build_lindbladian,
    build_recovery,
    epsilon_exact,
    recovery_lindbladian,
)
from .paulis import five_qubit_code, toric_code
from .trajectories import (
    NoiseModel,
    PoissonParams,
    check_assumption2,
    estimate_alpha,
    estimate_epsilon,
    estimate_faithful_violation,
    frame_chain_rates,
)

__all__ = [
    "ExperimentConfig",
    "ResultManifest",
    "VerifyReport",
    "parse_config",
    "run",
    "verify",
    "EXPERIMENTS",
]

DEFAULT_SEED = 20240817


# -- parameter schemas --------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One experiment parameter with desk and optional full-scale defaults.  The
    desk default's type is the parameter's: bool, int, float, str or a tuple."""

    default: object
    full_default: object = None

    def resolve(self, full_scale: bool):
        if full_scale and self.full_default is not None:
            return self.full_default
        return self.default


@dataclass(frozen=True)
class _Experiment:
    """One experiment id: its runner, its verifier and its parameter schema."""

    runner: object  # (params, seed, workers, full_scale) -> {filename: (header, rows)}
    verifier: object  # (tables, params) -> [(check name, ok, detail)]
    schema: dict  # parameter name -> ParamSpec


def _coerce(example, raw: str):
    """raw as a value of example's type; a tuple's items take example[0]'s."""
    raw = raw.strip()
    if isinstance(example, tuple):
        return tuple(_coerce(example[0], x) for x in raw.split(",") if x.strip())
    if isinstance(example, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return type(example)(raw)


def _fits(example, value) -> bool:
    """Whether a JSON value has example's type; any number fits a float."""
    if isinstance(example, tuple):
        return isinstance(value, list) and all(_fits(example[0], v) for v in value)
    return type(value) in ((int, float) if type(example) is float else (type(example),))


# -- configuration ------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = DEFAULT_SEED
    workers: int = 1
    out_dir: str = None
    full_scale: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"known: {', '.join(sorted(EXPERIMENTS))}")
        schema = EXPERIMENTS[self.experiment].schema
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            raise ValueError(f"unknown parameter keys for {self.experiment}: "
                             + ", ".join(unknown))
        resolved = {k: spec.resolve(self.full_scale) for k, spec in schema.items()}
        resolved.update(self.params)
        object.__setattr__(self, "params", resolved)
        if self.out_dir is None:
            object.__setattr__(self, "out_dir", os.path.join("results", self.experiment))


# the ExperimentConfig fields a config file sets, each with a value of its type
_COMMON_EXAMPLES = {"seed": DEFAULT_SEED, "workers": 1, "out_dir": "", "full_scale": False}


def parse_config(path) -> ExperimentConfig:
    """Flat key = value file; '#' starts a comment; unknown keys are errors."""
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = raw.strip()
    if "experiment" not in pairs:
        raise ValueError(f"{path}: missing required key 'experiment'")
    experiment = pairs.pop("experiment")
    schema = EXPERIMENTS[experiment].schema if experiment in EXPERIMENTS else {}
    common = {}
    params = {}
    for key, raw in pairs.items():
        if key in _COMMON_EXAMPLES:
            common[key] = _coerce(_COMMON_EXAMPLES[key], raw)
        else:
            # unknown keys pass through raw; ExperimentConfig rejects them
            params[key] = _coerce(schema[key].default, raw) if key in schema else raw
    return ExperimentConfig(experiment=experiment, params=params, **common)


def _derive_seed(root_seed: int, *parts) -> int:
    text = ":".join(["aqec-exp", str(root_seed)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# -- CSV and manifest plumbing ------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class _Missing(Exception):
    """A verifier read a table or column that the run lacks; args: (check, detail)."""


class _Strict(dict):
    """A dict whose missing key raises _Missing(check.format(key), detail)."""

    def __init__(self, items, check: str, detail: str):
        super().__init__(items)
        self.check, self.detail = check, detail

    def __missing__(self, key):
        raise _Missing(self.check.format(key), self.detail)


def _read_csv(path) -> dict:
    """Columns by header name, true/false ones as bool arrays and numeric ones
    as float arrays; ValueError for a row of the wrong width or any other cell."""
    with open(path) as fh:
        header, *cells = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()] or [[]]
    widths = {len(row) for row in cells} - {len(header)}
    if widths:
        raise ValueError(f"{path}: a row has {widths.pop()} cells, the header {len(header)}")
    out = {}
    for j, name in enumerate(header):
        col = [row[j] for row in cells]
        if set(col) <= {"true", "false"}:
            out[name] = np.array([x == "true" for x in col])
            continue
        try:
            out[name] = np.array([float(x) for x in col])
        except ValueError:
            raise ValueError(f"{path}: column {name!r} is neither numeric nor "
                             f"true/false") from None
    return _Strict(out, f"table:{os.path.basename(path)}:{{}}", "column not in the file")


def _params_sha256(params: dict) -> str:
    """sha256 of the canonical params: sorted-key JSON, tuples as lists."""
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class ResultManifest:
    experiment: str
    params: dict
    seed: int
    workers: int
    full_scale: bool
    version: str
    files: dict  # relative filename -> sha256 hex digest
    wall_clock_s: float
    params_sha256: str  # _params_sha256 of params at run time; verify recomputes it

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)  # tuples as lists
            fh.write("\n")

    @staticmethod
    def load(path) -> "ResultManifest":
        with open(path) as fh:
            body = json.load(fh)
        if not isinstance(body, dict):
            raise ValueError(f"{path}: manifest is not a JSON object")
        keys = [f.name for f in fields(ResultManifest)]
        missing = [k for k in keys if k not in body]
        if missing:
            raise ValueError(f"{path}: manifest lacks key(s) {', '.join(missing)}")
        if not isinstance(body["experiment"], str) or body["experiment"] not in EXPERIMENTS:
            raise ValueError(f"{path}: unknown experiment {body['experiment']!r}")
        files = body["files"]
        if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
            raise ValueError(f"{path}: manifest files are not an object of string digests")
        outside = [k for k in files if k in ("", ".", "..") or os.path.basename(k) != k]
        if outside:
            raise ValueError(f"{path}: manifest files are not plain names in its "
                             f"directory: {', '.join(map(repr, outside))}")
        params = body["params"]
        if not isinstance(params, dict):
            raise ValueError(f"{path}: manifest params are not a JSON object")
        schema = EXPERIMENTS[body["experiment"]].schema
        missing = [k for k in schema if k not in params]
        if missing:
            raise ValueError(f"{path}: manifest params lack key(s) {', '.join(missing)}")
        wrong = [k for k, spec in schema.items() if not _fits(spec.default, params[k])]
        if wrong:
            raise ValueError(f"{path}: manifest params of the wrong type: {', '.join(wrong)}")
        if not isinstance(body["params_sha256"], str):
            raise ValueError(f"{path}: manifest params_sha256 is not a string")
        return ResultManifest(**{k: body[k] for k in keys})


# -- runners ------------------------------------------------------------------------
# Each runner returns {filename: (header, rows)}; run() writes and hashes them.


def _run_fig2(p, seed, workers, full_scale):
    out = {}
    for r in p["r_values"]:
        kappa, r0 = p["kappa"], p["r0"]
        ells = np.arange(1, p["ell_max"] + 1)
        rates = kappa * (ells * r / r0) ** (ells + 1.0)
        rows = [(int(l), rate, r) for l, rate in zip(ells, rates)]
        out[f"fig2_rate_r{_fmt(float(r))}.csv"] = (("x", "y", "r"), rows)
    r_lo, r_hi = min(p["r_values"]), max(p["r_values"])
    grid = np.geomspace(r_lo, r_hi, p["r_grid_points"])
    rows = []
    for r in grid:
        st = soft_threshold(BoundInputs(kappa=p["kappa"], delta=r * p["kappa"],
                                        r0=p["r0"]))
        rows.append((float(r), st.gamma_min, int(st.ell_min), st.ell_predicted))
    out["fig2_minima.csv"] = (("x", "y", "ell_min", "ell_predicted"), rows)
    return out


def _run_fig3(p, seed, workers, full_scale):
    ell, kappa, delta, n = p["ell"], p["kappa"], p["delta"], p["n_channels"]
    ts = np.asarray(p["t_values"], dtype=float)
    inputs2 = BoundInputs(xi=0.0, h=ell, kappa=kappa, delta=delta, n_channels=n)
    inputs4 = BoundInputs(ell=ell, kappa=kappa, delta=delta, n_channels=n)
    params = PoissonParams(kappa=kappa, delta=delta, n_channels=n)
    mc = estimate_faithful_violation(ell, params, ts, p["samples"],
                                     _derive_seed(seed, "fig3", "mc"), workers)
    tail = ("ell", "kappa", "delta", "n_channels")
    const = (ell, kappa, delta, n)
    out = {
        "fig3_theorem2.csv": (("x", "y") + tail,
                              [(t, theorem2_bound(inputs2, t)) + const for t in ts]),
        "fig3_theorem4.csv": (("x", "y") + tail,
                              [(t, theorem4_bound(inputs4, t)) + const for t in ts]),
        "fig3_mc.csv": (("x", "y", "stderr", "samples") + tail,
                        [(t, e, s, p["samples"]) + const
                         for t, e, s in zip(ts, mc.estimate, mc.stderr)]),
        "fig3_asymptotic.csv": (("x", "y") + tail,
                                [(t, p_asymptotic(inputs4, t)) + const for t in ts]),
    }
    return out


def _run_fig4a(p, seed, workers, full_scale):
    out = {}
    for L in p["l_values"]:
        code = toric_code(L)
        decoder = MwpmDecoder(code)
        noise = NoiseModel.bit_flip(code.n)
        rows = []
        for tau in p["tau_values"]:
            est = estimate_alpha(code, decoder, noise, float(tau), p["samples"],
                                 _derive_seed(seed, "fig4a", L, tau), workers,
                                 delta=p["delta"])
            rows.append((float(tau), float(est.estimate[0]), float(est.stderr[0]),
                         L, p["samples"]))
        out[f"fig4a_L{L}.csv"] = (("x", "y", "stderr", "side", "samples"), rows)
    return out


def _run_fig4b(p, seed, workers, full_scale):
    code = toric_code(p["side"])
    decoder = MwpmDecoder(code)
    noise = NoiseModel.bit_flip(code.n)
    params = noise.params(p["kappa"], p["delta"])
    rows = []
    for t in p["t_values"]:
        for m in p["m_values"]:
            res = check_assumption2(code, decoder, noise, params, float(t), int(m),
                                    p["samples"], _derive_seed(seed, "fig4b", t, m),
                                    workers)
            rows.append((float(t), int(m), res.lhs, res.rhs, res.sigma,
                         bool(res.holds), p["side"], p["samples"]))
    header = ("x", "m", "y", "rhs", "sigma", "holds", "side", "samples")
    return {"fig4b_interleaving.csv": (header, rows)}


def _run_fig5a(p, seed, workers, full_scale):
    kappa, delta = p["kappa"], p["delta"]
    ts = np.asarray(p["t_values"], dtype=float)
    code = five_qubit_code()
    decoder = build_lookup(code)
    noise = NoiseModel.depolarizing(code.n)
    params = noise.params(kappa, delta)
    eps = frame_chain_rates(code, decoder, noise, params, ts).max(axis=0)
    mc = estimate_epsilon(code, decoder, noise, params, ts,
                          p["mc_samples"], _derive_seed(seed, "fig5a", "mc"), workers)
    inputs = BoundInputs(ell=1, kappa=kappa, delta=delta, n_channels=noise.n_channels)
    tail = ("kappa", "delta", "n_channels")
    const = (kappa, delta, noise.n_channels)
    return {
        "fig5a_exact.csv": (("x", "y") + tail,
                            [(t, e) + const for t, e in zip(ts, eps)]),
        "fig5a_mc.csv": (("x", "y", "stderr", "samples") + tail,
                         [(t, e, s, p["mc_samples"]) + const
                          for t, e, s in zip(ts, mc.estimate, mc.stderr)]),
        "fig5a_theorem4.csv": (("x", "y") + tail,
                               [(t, theorem4_bound(inputs, t)) + const for t in ts]),
    }


def _run_fig5b(p, seed, workers, full_scale):
    ts = np.geomspace(p["t_min"], p["t_max"], p["t_points"])
    out = {}
    for L in p["l_values"]:
        n = 2 * L * L
        h = int(round(p["h_fraction"] * n))
        kappa = p["kappa_per_qubit"] * n
        inputs = BoundInputs(xi=p["xi"], h=h, kappa=kappa, delta=p["delta"],
                             n_channels=n)
        tail = ("side", "h", "kappa", "delta", "n_channels")
        const = (L, h, kappa, p["delta"], n)
        out[f"fig5b_theorem2_L{L}.csv"] = (
            ("x", "y") + tail, [(t, theorem2_bound(inputs, t)) + const for t in ts])
        out[f"fig5b_theorem3_L{L}.csv"] = (
            ("x", "y") + tail, [(t, theorem3_bound(inputs, t)) + const for t in ts])
    return out


def binomial_error_set(osc: TruncatedOscillator, ell: int) -> list:
    """Identity plus the distinct products of up to ell loss/gain/dephase factors."""
    ops = [osc.a, osc.adag, osc.number]
    eye = np.eye(osc.d_max, dtype=complex)
    errors = [eye]
    seen = set()
    for weight in range(1, ell + 1):
        for combo in itertools.product(range(3), repeat=weight):
            op = eye
            for i in combo:
                op = ops[i] @ op
            key = np.round(op, 10).tobytes()
            if key not in seen:
                seen.add(key)
                errors.append(op)
    return errors


_FIG6_REDUCED_CUTOFF = {1: 15, 2: 35}


def fig6_cutoff(ell: int, full_scale: bool) -> int:
    if not full_scale and ell in _FIG6_REDUCED_CUTOFF:
        return _FIG6_REDUCED_CUTOFF[ell]
    s = 2 * ell + 1
    return s * s + 4 * s


def _fit(x, y, key: str) -> tuple:
    """ols_line, naming the config key that chose the points of a degenerate fit."""
    try:
        return ols_line(x, y)
    except ValueError as err:
        raise ValueError(f"{key}: {err}") from None


def _run_fig6(p, seed, workers, full_scale):
    kappa = p["kappa"]
    ts = np.linspace(0.0, p["t_max"], p["t_points"])
    fit = ts >= p["fit_start"]
    out = {}
    rate_rows = []
    for ell in p["ell_values"]:
        cutoff = fig6_cutoff(int(ell), full_scale)
        osc = TruncatedOscillator(cutoff)
        codewords = binomial_codewords(int(ell), cutoff)
        recovery = build_recovery(codewords, binomial_error_set(osc, int(ell)))
        for delta in p["delta_values"]:
            rate = delta / 3.0
            jumps = [(osc.a, rate), (osc.adag, rate), (osc.number, rate)]
            lind = build_lindbladian(jumps) + recovery_lindbladian(recovery, kappa)
            eps = epsilon_exact(lind, recovery, codewords, ts,
                                directions=np.array([[0.0, 0.0, 1.0]]))
            name = f"fig6_eps_l{ell}_d{_fmt(float(delta))}.csv"
            out[name] = (("x", "y", "ell", "delta", "cutoff"),
                         [(t, e, int(ell), float(delta), cutoff)
                          for t, e in zip(ts, eps)])
            slope, _ = _fit(ts[fit], eps[fit], "fit_start")
            c_prime = slope ** (1.0 / (ell + 1.0)) / delta
            rate_rows.append((float(delta), float(slope), int(ell),
                              float(c_prime), cutoff))
    out["fig6_rates.csv"] = (("x", "y", "ell", "c_prime", "cutoff"), rate_rows)
    return out


def _ratio_tables(p, fig: str):
    """Per-kd recurrence-vs-power CSVs and their (N, h, ln_ratio) rows by kd."""
    out = {}
    by_kd = {}
    for kd in p["kd_values"]:
        sub = []
        for n in p["n_values"]:
            p1 = 1.0 / (1.0 + kd / n)
            h = int(round(p["h_fraction"] * n))
            sol = solve_recurrence(h, int(n), p1)
            sub.append((int(n), h, float(sol.log_s1 - h * math.log(p1))))
        out[f"{fig}_ratio_kd{_fmt(float(kd))}.csv"] = (
            ("x", "y", "ln_ratio", "h", "kd"),
            [(n, math.exp(lr), lr, h, float(kd)) for n, h, lr in sub])
        by_kd[kd] = sub
    return out, by_kd


def _run_figE7(p, seed, workers, full_scale):
    out, by_kd = _ratio_tables(p, "figE7")
    sat = {kd: max(sub)[2] for kd, sub in by_kd.items()}  # ln_ratio at the largest N
    kds = np.array(sorted(sat))
    lns = np.array([sat[k] for k in kds])
    slope, intercept = _fit(kds, lns, "kd_values")
    out["figE7_saturated.csv"] = (
        ("x", "y", "fit_slope", "fit_intercept"),
        [(float(k), float(v), slope, intercept) for k, v in zip(kds, lns)])
    return out


def _run_figE8(p, seed, workers, full_scale):
    out, by_kd = _ratio_tables(p, "figE8")
    exp_rows = []
    for kd, sub in by_kd.items():
        ns = np.array([n for n, _, _ in sub], dtype=float)
        lns = np.array([lr for _, _, lr in sub])
        window = ns >= ns.max() / 10.0  # fit over the largest decade computed
        slope, _ = _fit(np.log(ns[window]), lns[window],
                        "n_values within one decade of the largest")
        exp_rows.append((float(kd), float(slope), -kd / 4.0))
    out["figE8_exponents.csv"] = (("x", "y", "target"), exp_rows)
    return out


def _run_appH(p, seed, workers, full_scale):
    rows = []
    for L in p["l_values"]:
        j = (L - 1) // 2
        oracle = toric_1d_trace_oracle(int(L), j + 1)
        shift_1d = toric_perturbative(int(L), p["kappa"], p["delta"], "1D")
        shift_2d = toric_perturbative(int(L), p["kappa"], p["delta"], "2D")
        rows.append((int(L), shift_1d, shift_2d, oracle.value,
                     oracle.closed_form, bool(oracle.match)))
    header = ("x", "y", "shift_2d", "trace_value", "closed_form", "match")
    return {"appH_table.csv": (header, rows)}


MANIFEST_NAME = "manifest.json"


def run(config: ExperimentConfig) -> ResultManifest:
    """Execute one experiment, writing CSVs and a manifest into config.out_dir."""
    if config.workers < 1:
        raise ValueError("workers must be positive")
    start = time.monotonic()
    runner = EXPERIMENTS[config.experiment].runner
    tables = runner(config.params, config.seed, config.workers, config.full_scale)
    if not tables:
        raise ValueError(f"{config.experiment}: the config gives no table")
    for name in sorted(tables):
        if not tables[name][1]:
            raise ValueError(f"{name}: the config gives the table no rows")
    os.makedirs(config.out_dir, exist_ok=True)
    files = {}
    for name in sorted(tables):
        header, rows = tables[name]
        path = os.path.join(config.out_dir, name)
        _write_csv(path, header, rows)
        files[name] = _sha256(path)
    manifest = ResultManifest(
        experiment=config.experiment, params=config.params, seed=config.seed,
        workers=config.workers, full_scale=config.full_scale, version=__version__,
        files=files, wall_clock_s=time.monotonic() - start,
        params_sha256=_params_sha256(config.params))
    manifest.save(os.path.join(config.out_dir, MANIFEST_NAME))
    return manifest


# -- verification -------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        return [f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
                for name, ok, detail in self.checks]


def _monotone_within(y, slack):
    return bool(np.all(np.diff(y) >= -np.asarray(slack)))


def _crossing(x, y, level):
    """First linear-interpolation crossing of the level; None if the curve stays below."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    above = np.nonzero(y >= level)[0]
    if len(above) == 0:
        return None
    i = above[0]
    if i == 0:
        return float(x[0])
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return float(x[i - 1] + frac * (x[i] - x[i - 1]))


def _verify_fig2(tables, params):
    checks = []
    for name, cols in tables.items():
        if not name.startswith("fig2_rate"):
            continue
        idx = int(np.argmin(cols["y"]))
        interior = 0 < idx < len(cols["y"]) - 1
        checks.append((f"{name}:interior_minimum", interior, f"argmin index {idx}"))
    minima = tables["fig2_minima.csv"]
    increasing = bool(np.all(np.diff(minima["y"]) > 0))
    checks.append(("fig2_minima:gamma_min_increasing_in_r", increasing, ""))
    nonincreasing = bool(np.all(np.diff(minima["ell_min"]) <= 0))
    checks.append(("fig2_minima:ell_min_nonincreasing_in_r", nonincreasing, ""))
    return checks


def _verify_fig3(tables, params):
    mc = tables["fig3_mc.csv"]
    rate_bound = tables["fig3_theorem2.csv"]
    envelope = tables["fig3_theorem4.csv"]
    checks = [
        ("fig3:mc_positive", bool(np.all(mc["y"] > 0)),
         f"min {mc['y'].min():.3g}"),
        ("fig3:mc_below_theorem2", bool(np.all(mc["y"] <= rate_bound["y"])),
         f"max excess {np.max(mc['y'] - rate_bound['y']):.3g}"),
        ("fig3:mc_below_theorem4_within_4_sigma",
         bool(np.all(mc["y"] <= envelope["y"] + 4 * mc["stderr"])), ""),
        ("fig3:mc_nondecreasing_within_4_sigma",
         _monotone_within(mc["y"], 4 * (mc["stderr"][1:] + mc["stderr"][:-1])), ""),
    ]
    return checks


def _verify_fig4a(tables, params):
    checks = []
    for name, cols in sorted(tables.items()):
        slack = 4 * (cols["stderr"][1:] + cols["stderr"][:-1])
        checks.append((f"{name}:nondecreasing_within_4_sigma",
                       _monotone_within(cols["y"], slack), ""))
        checks.append((f"{name}:final_value_above_0.4",
                       bool(cols["y"][-1] > 0.4), f"final {cols['y'][-1]:.3f}"))
        cross = _crossing(cols["x"], cols["y"], 0.25)
        ok = cross is not None and 0.08 <= cross <= 0.16
        checks.append((f"{name}:quarter_crossing_in_window", ok,
                       f"crossing {cross}"))
    return checks


def _verify_fig4b(tables, params):
    ok = bool(np.all(tables["fig4b_interleaving.csv"]["holds"]))
    return [("fig4b:interleaving_holds_all", ok, "")]


def _verify_fig5a(tables, params):
    exact = tables["fig5a_exact.csv"]
    mc = tables["fig5a_mc.csv"]
    bound = tables["fig5a_theorem4.csv"]
    gap_mc = mc["y"] - bound["y"] - 3 * mc["stderr"]
    gap_pair = np.abs(mc["y"] - exact["y"]) - 4 * mc["stderr"]
    return [
        ("fig5a:exact_below_theorem4", bool(np.all(exact["y"] <= bound["y"] + 1e-9)),
         f"max excess {np.max(exact['y'] - bound['y']):.3g}"),
        ("fig5a:mc_below_theorem4_within_3_sigma", bool(np.all(gap_mc <= 0)),
         f"max excess {gap_mc.max():.3g}"),
        ("fig5a:mc_matches_exact_within_4_sigma", bool(np.all(gap_pair <= 0)),
         f"max excess {gap_pair.max():.3g}"),
    ]


def _verify_fig5b(tables, params):
    checks = []
    power_bound = {}
    recurrence = {}
    for name, cols in sorted(tables.items()):
        in_range = bool(np.all((cols["y"] >= 0) & (cols["y"] <= 1)))
        checks.append((f"{name}:values_in_unit_interval", in_range, ""))
        checks.append((f"{name}:nondecreasing", _monotone_within(cols["y"], 0.0), ""))
        side = int(cols["side"][0])
        (power_bound if "theorem2" in name else recurrence)[side] = cols["y"]
    for side in sorted(power_bound):
        ok = bool(np.all(recurrence[side] <= power_bound[side] * (1 + 1e-9) + 1e-15))
        checks.append((f"fig5b_L{side}:recurrence_below_power_bound", ok, ""))
    return checks


_FIG6_C_PRIME = {1: 2.57, 2: 9.51, 3: 28.54}


def _verify_fig6(tables, params):
    cols = tables["fig6_rates.csv"]
    checks = []
    for ell in sorted(set(int(e) for e in cols["ell"])):
        mask = cols["ell"] == ell
        name = f"fig6_l{ell}:rate_scaling_exponent_within_5pct"
        # acceptance criterion 6: the leading exponent, not the log-log secant
        try:
            exponent, _, _ = leading_exponent(cols["x"][mask], cols["y"][mask])
        except ValueError as exc:
            checks.append((name, False, str(exc)))
        else:
            ok = abs(exponent / (ell + 1.0) - 1.0) <= 0.05
            checks.append((name, ok, f"leading exponent {exponent:.4f} vs {ell + 1}"))
        c_mean = float(np.mean(cols["c_prime"][mask]))
        ref = _FIG6_C_PRIME.get(ell)
        if ref is not None:
            ok = abs(c_mean / ref - 1.0) <= 0.15
            checks.append((f"fig6_l{ell}:c_prime_within_15pct", ok,
                           f"mean {c_mean:.3f} vs {ref}"))
    return checks


def _verify_figE7(tables, params):
    cols = tables["figE7_saturated.csv"]
    slope = float(cols["fit_slope"][0])
    name = "figE7:saturated_slope_within_5pct_of_limit"
    # acceptance criterion 7(a): the large-N closed form at h = h_fraction N
    try:
        target = recurrence_slope_limit(params["h_fraction"])
    except ValueError as exc:
        return [(name, False, str(exc))]
    ok = abs(slope / target - 1.0) <= 0.05
    return [(name, ok, f"slope {slope:.4f} vs {target:.4f}")]


def _verify_figE8(tables, params):
    cols = tables["figE8_exponents.csv"]
    checks = []
    for kd, got, target in zip(cols["x"], cols["y"], cols["target"]):
        ok = abs(got / target - 1.0) <= 0.10
        checks.append((f"figE8_kd{_fmt(float(kd))}:exponent_within_10pct", ok,
                       f"fit {got:.4f} vs {target:.4f}"))
    return checks


def _verify_appH(tables, params):
    cols = tables["appH_table.csv"]
    all_match = bool(np.all(cols["match"]))
    negative = bool(np.all(cols["y"] < 0)) and bool(np.all(cols["shift_2d"] < 0))
    return [
        ("appH:trace_oracle_matches_closed_form", all_match, ""),
        ("appH:energy_shifts_negative", negative, ""),
    ]


# -- registry ----------------------------------------------------------------------
# One entry per experiment id: config parsing, run() and verify() all read it.

_RATIO_SCHEMA = {  # figE7 and figE8 differ only in h_fraction
    "n_values": ParamSpec(
        (1000, 3162, 10_000, 31_623, 100_000),
        (1000, 3162, 10_000, 31_623, 100_000, 316_228, 1_000_000, 3_162_278, 10_000_000)),
    "kd_values": ParamSpec((2.0, 4.0, 8.0)),
}

EXPERIMENTS = {
    "fig2": _Experiment(_run_fig2, _verify_fig2, {
        "r0": ParamSpec(1.0),
        "kappa": ParamSpec(1.0),
        "r_values": ParamSpec((0.005, 0.01, 0.02)),
        "ell_max": ParamSpec(100),
        "r_grid_points": ParamSpec(24),
    }),
    "fig3": _Experiment(_run_fig3, _verify_fig3, {
        "ell": ParamSpec(6),
        "kappa": ParamSpec(1.0),
        "delta": ParamSpec(1.0),
        "n_channels": ParamSpec(1),
        "t_values": ParamSpec((1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0, 11.5)),
        "samples": ParamSpec(200_000, 2_000_000),
    }),
    "fig4a": _Experiment(_run_fig4a, _verify_fig4a, {
        "l_values": ParamSpec((3, 4), (3, 4, 6, 8)),
        "delta": ParamSpec(1.0),
        "tau_values": ParamSpec((0.06, 0.08, 0.10, 0.115, 0.13, 0.16, 0.20, 0.30)),
        "samples": ParamSpec(10_000, 100_000),
    }),
    "fig4b": _Experiment(_run_fig4b, _verify_fig4b, {
        "side": ParamSpec(4, 8),
        "kappa": ParamSpec(0.0),
        "delta": ParamSpec(1.0),
        "t_values": ParamSpec((0.05, 0.1, 0.2)),
        "m_values": ParamSpec((2, 4, 8)),
        "samples": ParamSpec(20_000, 200_000),
    }),
    "fig5a": _Experiment(_run_fig5a, _verify_fig5a, {
        "kappa": ParamSpec(1.0),
        "delta": ParamSpec(1.0 / 15.0),
        "t_values": ParamSpec((
            0.01, 0.0167, 0.0278, 0.0464, 0.0774, 0.129, 0.215, 0.359, 0.599,
            1.0, 1.5, 2.714, 3.929, 5.143, 6.357, 7.571, 8.786, 10.0)),
        "mc_samples": ParamSpec(20_000, 100_000),
    }),
    "fig5b": _Experiment(_run_fig5b, _verify_fig5b, {
        "l_values": ParamSpec((4, 6, 8)),
        "kappa_per_qubit": ParamSpec(0.1),
        "h_fraction": ParamSpec(0.1031),
        "delta": ParamSpec(1.0),
        "xi": ParamSpec(0.0),
        "t_min": ParamSpec(1e-3),
        "t_max": ParamSpec(10.0),
        "t_points": ParamSpec(25),
    }),
    "fig6": _Experiment(_run_fig6, _verify_fig6, {
        "ell_values": ParamSpec((1, 2), (1, 2, 3)),
        "kappa": ParamSpec(1.0),
        "delta_values": ParamSpec((0.0005, 0.001, 0.002)),
        "t_max": ParamSpec(15.0),
        "t_points": ParamSpec(16),
        "fit_start": ParamSpec(5.0),
    }),
    "figE7": _Experiment(_run_figE7, _verify_figE7,
                         {**_RATIO_SCHEMA, "h_fraction": ParamSpec(0.4)}),
    "figE8": _Experiment(_run_figE8, _verify_figE8,
                         {**_RATIO_SCHEMA, "h_fraction": ParamSpec(0.5)}),
    "appH": _Experiment(_run_appH, _verify_appH, {
        "l_values": ParamSpec((3, 5, 7)),
        "kappa": ParamSpec(1.0),
        "delta": ParamSpec(0.01),
    }),
}


def verify(manifest_path) -> VerifyReport:
    """Recompute checksums, then run the acceptance assertions for the experiment."""
    manifest = ResultManifest.load(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    checks = []
    tables = _Strict({}, "table:{}", "needed but not listed in the manifest")
    intact = _params_sha256(manifest.params) == manifest.params_sha256
    checks.append(("checksum:params", intact, "" if intact else "sha256 mismatch"))
    for name in sorted(manifest.files):
        path = os.path.join(base, name)
        if not os.path.exists(path):
            checks.append((f"checksum:{name}", False, "file missing"))
            intact = False
            continue
        digest = _sha256(path)
        ok = digest == manifest.files[name]
        checks.append((f"checksum:{name}", ok, "" if ok else "sha256 mismatch"))
        intact = intact and ok
        if ok and name.endswith(".csv"):
            tables[name] = _read_csv(path)
    if intact:
        try:
            checks.extend(EXPERIMENTS[manifest.experiment].verifier(tables, manifest.params))
        except _Missing as exc:
            name, detail = exc.args
            checks.append((name, False, detail))
    else:
        checks.append(("assertions", False, "skipped: checksum failures above"))
    return VerifyReport(checks=tuple(checks))
