"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, makes one round of
program calls in ``run_round`` and checks a round's outputs in ``check``.  An
operation is one checked program output: an experiment run with its verify
report, an estimator call, a decode, a recurrence solve, or one row of the
``aqec bounds`` grid (each row is evaluated and checked on its own, so a fault
in one row fails one operation).  ``run_round`` returns {operation: result}
with results that compare with ``==``, so later rounds can be checked against
the first.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os

import numpy as np

from aqec import bounds, cli, decoders, experiments, paulis, trajectories

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


def derive_seed(seed: int, *parts) -> int:
    text = ":".join(["aqec-bench", str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


def read_csv(path) -> dict:
    """Columns by header name; numeric columns as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = {}
    for j, name in enumerate(rows[0]):
        col = [r[j] for r in rows[1:]]
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = np.array(col)
    return out


# Monte Carlo outputs are compared with exact references at 5 sigma: a run
# makes about ten such comparisons, and at 4 sigma one run in a thousand or
# so would fail by chance, which would change the failed share between runs.
MC_SIGMAS = 5.0


def verify_failures(result) -> list:
    """FAIL lines of the verify report inside a run-and-verify result."""
    _, lines = result
    return [line for line in lines if not line.startswith("PASS")]


class Workload:
    name = ""
    known_faults = {}  # operation -> fault id, for operations that fail today

    def __init__(self, out_dir: str, seed: int):
        self.out_dir = out_dir
        self.seed = seed

    def _experiment(self, config_file: str) -> experiments.ExperimentConfig:
        config = experiments.parse_config(os.path.join(CONFIG_DIR, config_file))
        return dataclasses.replace(config, seed=self.seed, workers=1,
                                   out_dir=os.path.join(self.out_dir, config.experiment))

    @staticmethod
    def _run_and_verify(config) -> tuple:
        manifest = experiments.run(config)
        report = experiments.verify(os.path.join(config.out_dir, experiments.MANIFEST_NAME))
        return tuple(sorted(manifest.files.items())), tuple(report.lines())

    @staticmethod
    def _table(config, name) -> dict:
        return read_csv(os.path.join(config.out_dir, name))


class ToricMwpm(Workload):
    """Toric code, bit-flip noise, MWPM recovery: fig4a, fig4b, epsilon, decodes."""

    name = "toric_mwpm"
    EPS_SIDE = 4
    EPS_KAPPA = 20.0
    EPS_DELTA = 0.25
    EPS_TIMES = (0.25, 0.5, 1.0)
    EPS_SAMPLES = 4000
    FRAMES_PER_POINT = 25  # decoded frames per (L, tau) of the fig4a grid

    def setup(self):
        self.fig4a = self._experiment("toric_fig4a.cfg")
        self.fig4b = self._experiment("toric_fig4b.cfg")
        p = self.fig4a.params
        self.codes = {L: paulis.toric_code(L) for L in p["l_values"]}
        self.decoders = {L: decoders.MwpmDecoder(code) for L, code in self.codes.items()}
        self.noise = trajectories.NoiseModel.bit_flip(self.codes[self.EPS_SIDE].n)
        self.eps_params = self.noise.params(self.EPS_KAPPA, self.EPS_DELTA)
        # kappa = 0 frames: a qubit ends flipped with probability (1 - e^(-2 delta tau)) / 2
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "frames"))
        self.frames = []
        for L, code in self.codes.items():
            for tau in p["tau_values"]:
                flip = -math.expm1(-2 * p["delta"] * tau) / 2
                for _ in range(self.FRAMES_PER_POINT):
                    qubits = np.nonzero(rng.random(code.n) < flip)[0]
                    self.frames.append((L, sum(1 << int(q) for q in qubits)))

    def run_round(self) -> dict:
        out = {"fig4a": self._run_and_verify(self.fig4a),
               "fig4b": self._run_and_verify(self.fig4b)}
        L = self.EPS_SIDE
        est = trajectories.estimate_epsilon(
            self.codes[L], self.decoders[L], self.noise, self.eps_params, self.EPS_TIMES,
            self.EPS_SAMPLES, derive_seed(self.seed, self.name, "epsilon"), workers=1)
        out["epsilon"] = (est.estimate.tolist(), est.per_family.tolist())
        for i, (L, x_bits) in enumerate(self.frames):
            out[f"decode_{i}"] = self.decoders[L].correction_masks(x_bits, 0)
        return out

    def check(self, results: dict) -> dict:
        import refs  # only the checks load mpmath, after peak_rss_mb is read

        errors = {op: [] for op in results}
        n = self.fig4a.params["samples"]
        errors["fig4a"] += verify_failures(results["fig4a"])
        for L in self.fig4a.params["l_values"]:
            y = self._table(self.fig4a, f"fig4a_L{L}.csv")["y"]
            errors["fig4a"] += refs.check_nondecreasing(
                f"alpha L={L}", y, np.sqrt(y * (1 - y) / n))

        errors["fig4b"] += verify_failures(results["fig4b"])
        cols = self._table(self.fig4b, "fig4b_interleaving.csv")
        n = self.fig4b.params["samples"]
        for lhs, rhs, sigma, holds in zip(cols["y"], cols["rhs"], cols["sigma"], cols["holds"]):
            # the paired sigma never exceeds the sum of the marginal sigmas
            cap = (math.sqrt(lhs * (1 - lhs)) + math.sqrt(rhs * (1 - rhs))) / math.sqrt(n)
            if not (holds == "true" and lhs <= rhs + 3 * sigma and 0 <= sigma <= cap + 1e-12):
                errors["fig4b"].append(f"interleaving lhs {lhs} rhs {rhs} sigma {sigma} "
                                       f"(cap {cap}) holds {holds}")

        est, family = (np.array(v) for v in results["epsilon"])
        e = errors["epsilon"]
        # bit-flip jumps never flip a Z-type logical, so X-basis states never fail
        # and Y-basis failures are exactly the Z-basis ones
        if np.any(family[1] != 0) or np.any(family[2] != family[0]):
            e.append(f"per-family rates {family.tolist()} break the bit-flip structure")
        if np.any(est != family.max(axis=0)) or np.any((est < 0) | (est > 1)):
            e.append(f"estimate {est.tolist()} is not the worst family rate in [0, 1]")
        e += refs.check_nondecreasing("epsilon(t)", est,
                                      np.sqrt(est * (1 - est) / self.EPS_SAMPLES))

        masks = {}
        for L, code in self.codes.items():
            stars = L * L - 1
            masks[L] = ([g.z_bits for g in code.generators[:stars]],
                        [g.x_bits for g in code.generators[stars:]])
        for i, (L, x_bits) in enumerate(self.frames):
            op = f"decode_{i}"
            errors[op] += refs.check_toric_decode(L, *masks[L], x_bits, results[op])
        return errors


class ExactDynamics(Workload):
    """fig5a (five-qubit exact, lookup Monte Carlo, Theorem 4) and fig6."""

    name = "exact_dynamics"
    REFERENCE_STEP = 0.5  # every fig5a time is a multiple of it

    def setup(self):
        self.fig5a = self._experiment("exact_fig5a.cfg")
        self.fig6 = self._experiment("exact_fig6.cfg")

    def run_round(self) -> dict:
        return {"fig5a": self._run_and_verify(self.fig5a),
                "fig6": self._run_and_verify(self.fig6)}

    def check(self, results: dict) -> dict:
        import refs

        errors = {op: verify_failures(result) for op, result in results.items()}
        p = self.fig5a.params
        exact = self._table(self.fig5a, "fig5a_exact.csv")
        mc = self._table(self.fig5a, "fig5a_mc.csv")
        bound = self._table(self.fig5a, "fig5a_theorem4.csv")
        n_delta = 15 * p["delta"]  # 15 single-qubit Pauli channels
        reference = refs.five_qubit_epsilon(p["kappa"], p["delta"], exact["x"],
                                            self.REFERENCE_STEP)
        e = errors["fig5a"]
        for t, got, want, sampled, thm4 in zip(exact["x"], exact["y"], reference,
                                               mc["y"], bound["y"]):
            e += refs.check_absolute(f"epsilon_exact t={t:g}", got, want, 1e-7)
            e += refs.check_within_sigma(f"Monte Carlo t={t:g}", sampled, want,
                                         p["mc_samples"], MC_SIGMAS)
            own = refs.theorem4(1, p["kappa"], n_delta, t)
            e += refs.check_relative(f"theorem4 t={t:g}", thm4, own, 1e-9)
            if not got <= own + 1e-9:
                e.append(f"epsilon_exact t={t:g}: {got} above Theorem 4 {own}")

        rates = self._table(self.fig6, "fig6_rates.csv")
        for ell in sorted(set(rates["ell"].astype(int))):
            mask = rates["ell"] == ell
            m = refs.leading_exponent(rates["x"][mask], rates["y"][mask])
            if not abs(m / (ell + 1) - 1) <= 0.05:
                errors["fig6"].append(f"ell={ell}: leading exponent {m:.4f} not within "
                                      f"5% of {ell + 1}")
        return errors


def _grid_op(op: str, ell: int, t: float) -> str:
    return f"bounds:{op}:l{ell}:t{t:g}"


class RareViolation(Workload):
    """aqec bounds grid, fig3's run-length sampler, figE7 and figE8."""

    name = "rare_violation"
    ELLS = (2, 6, 10)
    TIMES = (0.1, 1.0, 4.0, 11.5)
    FALLBACK = (6, 12.0)  # the one point past 40 recovery rounds
    KAPPA = DELTA = 1.0
    # theorem3 needs h < N: its rows keep N Delta = 1 with N = 1000 channels
    T3_CHANNELS = 1000
    RECURRENCE_N = 100_000
    known_faults = {
        _grid_op("p_exact_quadrature", 6, 0.1): "F1",
        _grid_op("p_exact_quadrature", 10, 0.1): "F1",
        _grid_op("p_exact_quadrature", 10, 1.0): "F1",
        _grid_op("p_exact_quadrature", 6, 12.0): "F2",
    }

    def setup(self):
        os.makedirs(self.out_dir, exist_ok=True)
        k, d = self.KAPPA, self.DELTA
        grid = []
        for ell in self.ELLS:
            for t in self.TIMES + (self.FALLBACK[1],):
                grid.append(("theorem2", ell, ell, 0.0, k, d, 1, t))
                grid.append(("theorem3", ell, ell, 0.0, k, d / self.T3_CHANNELS,
                             self.T3_CHANNELS, t))
                grid.append(("theorem4", ell, "", "", k, d, 1, t))
                grid.append(("p_asymptotic", ell, "", "", k, d, 1, t))
            for t in self.TIMES:
                grid.append(("p_exact_quadrature", ell, "", "", k, d, 1, t))
        grid.append(("p_exact_quadrature", self.FALLBACK[0], "", "", k, d, 1, self.FALLBACK[1]))
        self.grid = grid
        self.grid_path = os.path.join(self.out_dir, "bounds_grid.csv")
        with open(self.grid_path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("op", "ell", "h", "xi", "kappa", "delta", "n_channels", "t"))
            out.writerows(grid)
        self.fig3 = self._experiment("rare_fig3.cfg")
        self.figE7 = self._experiment("rare_figE7.cfg")
        self.figE8 = self._experiment("rare_figE8.cfg")
        n = self.RECURRENCE_N
        self.recurrences = [(round(x * n), n, 1.0 / (1.0 + kd / n))
                            for kd in (2.0, 4.0, 8.0) for x in (0.4, 0.5)]

    def run_round(self) -> dict:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            status = cli.main(["bounds", "--grid", self.grid_path])
        rows = list(csv.DictReader(io.StringIO(text.getvalue())))
        out = {}
        for i, (op, ell, *_, t) in enumerate(self.grid):
            ok = status == 0 and len(rows) == len(self.grid)
            out[_grid_op(op, ell, t)] = float(rows[i]["value"]) if ok else f"exit {status}"
        out["fig3"] = self._run_and_verify(self.fig3)
        out["figE7"] = self._run_and_verify(self.figE7)
        out["figE8"] = self._run_and_verify(self.figE8)
        for h, n, p1 in self.recurrences:
            out[f"recurrence:h{h}:n{n}:p1={p1!r}"] = bounds.solve_recurrence(h, n, p1).log_s1
        return out

    def check(self, results: dict) -> dict:
        import refs

        errors = {op: [] for op in results}
        reference = {}

        def p_ref(ell, t):
            if (ell, t) not in reference:
                reference[ell, t] = refs.violation_probability(ell, self.KAPPA, self.DELTA, t)
            return reference[ell, t]

        k, nd = self.KAPPA, self.DELTA
        for op, ell, h, xi, _, delta, n_channels, t in self.grid:
            name = _grid_op(op, ell, t)
            got = results[name]
            e = errors[name]
            if isinstance(got, str):
                e.append(f"aqec bounds failed: {got}")
                continue
            if op == "theorem2":
                e += refs.check_relative(name, got, refs.theorem2(h, xi, k, nd, t), 1e-10)
                e += refs.check_at_least(name, got, p_ref(ell, t))
            elif op == "theorem3":
                n_delta = n_channels * delta
                s1 = math.exp(refs.recurrence_log_s1(h, n_channels, n_delta / (k + n_delta)))
                e += refs.check_relative(name, got, refs.theorem3(s1, xi, k, n_delta, t), 1e-10)
            elif op == "theorem4":
                e += refs.check_relative(name, got, refs.theorem4(ell, k, nd, t), 1e-9)
                e += refs.check_at_least(name, got, p_ref(ell, t))
            elif op == "p_asymptotic":
                e += refs.check_relative(name, got, refs.p_asymptotic(ell, k, nd, t), 1e-10)
            else:
                e += refs.check_relative(name, got, p_ref(ell, t), 1e-6)

        p = self.fig3.params
        errors["fig3"] += verify_failures(results["fig3"])
        mc = self._table(self.fig3, "fig3_mc.csv")
        thm2 = self._table(self.fig3, "fig3_theorem2.csv")
        thm4 = self._table(self.fig3, "fig3_theorem4.csv")
        for t, sampled, b2, b4 in zip(mc["x"], mc["y"], thm2["y"], thm4["y"]):
            exact = refs.violation_probability(p["ell"], p["kappa"], p["n_channels"] * p["delta"], t)
            errors["fig3"] += refs.check_within_sigma(f"sampler t={t:g}", sampled, exact,
                                                      p["samples"], MC_SIGMAS)
            errors["fig3"] += refs.check_at_least(f"fig3 theorem2 t={t:g}", b2, exact)
            errors["fig3"] += refs.check_at_least(f"fig3 theorem4 t={t:g}", b4, exact)

        errors["figE7"] += verify_failures(results["figE7"])
        slope = self._table(self.figE7, "figE7_saturated.csv")["fit_slope"][0]
        target = refs.recurrence_slope_limit(self.figE7.params["h_fraction"])
        if not abs(slope / target - 1) <= 0.05:
            errors["figE7"].append(f"saturated slope {slope} not within 5% of {target}")

        errors["figE8"] += verify_failures(results["figE8"])
        cols = self._table(self.figE8, "figE8_exponents.csv")
        for kd, got in zip(cols["x"], cols["y"]):
            if not abs(got / (-kd / 4) - 1) <= 0.10:
                errors["figE8"].append(f"kd={kd:g}: exponent {got} not within 10% of {-kd / 4}")

        for h, n, p1 in self.recurrences:
            name = f"recurrence:h{h}:n{n}:p1={p1!r}"
            errors[name] += refs.check_relative(name, results[name],
                                                refs.recurrence_log_s1(h, n, p1), 1e-12)
        return errors


WORKLOADS = {w.name: w for w in (ToricMwpm, ExactDynamics, RareViolation)}
