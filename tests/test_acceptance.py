"""Acceptance gate: one test per numbered criterion, printing a PASS/FAIL line each.

Every quantitative target here was either computed independently during
development or comes from the project contract.  Two criteria measure
leading-order statements and say so in what they compute:
  - criterion 6: the paper's rate law eps/t ~ (Delta/kappa)^(ell+1) holds to
    leading order in Delta.  The binomial ell = 2 codewords have <n^2> = 187.5,
    so the codespace jump rate (Delta/3)(<a+a> + <aa+> + <n^2>) is about
    71 Delta, 0.36 kappa at the largest pinned Delta.  A two-parameter log-log
    line over the pinned grid is therefore a secant dominated by the next
    order (it reads 2.83; local exponents climb to 2.987 as Delta shrinks,
    with 3 - m_loc ~ 70 Delta, identically at Fock cutoffs 35 and 45).  The
    exponent is taken from ln r = c + m ln Delta + b Delta instead, exact on
    the three pinned Delta: m = 2.001 (ell = 1) and 2.987 (ell = 2), with
    b = -11.5 and -61.6 against -(<a+a> + <aa+> + <n^2>)/3 = -12.3 and -71.2.
  - criterion 7(a): the saturated slope of ln(s1 / p1^h) in kappa/Delta at
    h = 0.4 N is checked against its large-N closed form
    -[ln(1/(1-2x)) - 2x]/2 at x = 0.4, i.e. -0.404719; the exact solver gives
    -0.3778, -0.4017, -0.4044, -0.4047 at N = 1e3 .. 1e6.  The same expansion
    at x = 1/2 gives part (b)'s -(kappa/Delta)/4 ln N law.
"""

import itertools
import math

import numpy as np
import pytest

from aqec.bounds import (
    BoundInputs,
    leading_exponent,
    ols_line,
    p_exact_quadrature,
    solve_recurrence,
    theorem2_bound,
    theorem4_bound,
    theorem5_lower,
)
from aqec.decoders import MwpmDecoder, _blossom_min_matching, _dp_matchings, build_lookup
from aqec.experiments import binomial_error_set, fig6_cutoff
from aqec.lindblad import (
    TruncatedOscillator,
    binomial_codewords,
    build_lindbladian,
    build_recovery,
    codespace_basis,
    delta_exact,
    epsilon_exact,
    kl_matrix,
    pauli_matrix,
    recovery_lindbladian,
    stabilizer_recovery,
)
from aqec.paulis import PauliOperator, commutes, five_qubit_code, multiply, toric_code
from aqec.trajectories import (
    NoiseModel,
    PoissonParams,
    check_assumption2,
    estimate_alpha,
    estimate_epsilon,
    estimate_faithful_violation,
)


# conftest.py echoes these in the terminal summary, where pytest's capture
# of passing-test stdout would otherwise hide them
REPORT_LINES: list = []


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {index}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line)


# -- shared fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def five_qubit():
    code = five_qubit_code()
    decoder = build_lookup(code)
    noise = NoiseModel.depolarizing(code.n)
    kappa, delta = 1.0, 1.0 / 15.0  # total error rate N * delta = kappa
    recovery = stabilizer_recovery(code, decoder)
    jumps = [(pauli_matrix(e), delta) for e in noise.jumps]
    lind = build_lindbladian(jumps) + recovery_lindbladian(recovery, kappa)
    return {"code": code, "decoder": decoder, "noise": noise, "kappa": kappa,
            "delta": delta, "recovery": recovery, "lind": lind,
            "codewords": codespace_basis(code)}


@pytest.fixture(scope="module")
def toric_alpha_curves():
    """Flip-probability curves for L in {3, 4}, shared by criteria 3 and 9."""
    taus = np.array([0.06, 0.08, 0.10, 0.115, 0.13, 0.16, 0.20, 0.30])
    curves = {}
    for L, seed in ((3, 31), (4, 32)):
        code = toric_code(L)
        decoder = MwpmDecoder(code)
        noise = NoiseModel.bit_flip(code.n)
        vals = np.array([
            float(estimate_alpha(code, decoder, noise, float(tau), 10_000,
                                 seed * 100 + i).estimate[0])
            for i, tau in enumerate(taus)])
        curves[L] = vals
    return taus, curves


# -- criteria -----------------------------------------------------------------------


def test_exact_versus_frame_monte_carlo_five_qubit(five_qubit):
    # criterion 1: exact integration vs Pauli-frame sampling, 3 combined sigma
    ts = np.geomspace(0.01, 10.0, 6)
    exact = epsilon_exact(five_qubit["lind"], five_qubit["recovery"],
                          five_qubit["codewords"], ts)
    n = 100_000
    mc = estimate_epsilon(five_qubit["code"], five_qubit["decoder"],
                          five_qubit["noise"],
                          five_qubit["noise"].params(five_qubit["kappa"],
                                                     five_qubit["delta"]),
                          ts, n, seed=11)
    sigma = np.sqrt(np.maximum(exact * (1 - exact),
                               mc.estimate * (1 - mc.estimate)) / n)
    z = np.abs(mc.estimate - exact) / sigma
    ok = bool(np.all(z <= 3.0))
    _report(1, "exact_vs_frame_monte_carlo", ok, f"max |z| = {z.max():.2f}")
    assert ok, f"worst z-score {z.max():.2f} exceeds 3"


def test_rare_violation_sampler_slope_and_quadrature():
    # criterion 2: sampler vs exact chain values, then the late-time slope
    inputs = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    rels = {}
    for t, n, seed in ((1.0, 600_000_000, 21), (5.0, 10_000_000, 22),
                       (10.0, 10_000_000, 23)):
        exact = float(p_exact_quadrature(inputs, t))
        mc = estimate_faithful_violation(6, params, [t], n, seed)
        rels[t] = abs(float(mc.estimate[0]) / exact - 1.0)
    ok_quad = max(rels.values()) <= 0.02

    grid = np.array([1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0, 11.5])
    mc = estimate_faithful_violation(6, params, grid, 4_000_000, 24)
    bound = np.array([theorem2_bound(
        BoundInputs(xi=0.0, h=6, kappa=1.0, delta=1.0, n_channels=1), t)
        for t in grid])
    ok_box = bool(np.all(mc.estimate > 0) and np.all(mc.estimate <= bound))
    window = grid >= 8.0
    slope, _ = ols_line(grid[window], -np.log1p(-mc.estimate[window]))
    target = 2.0 ** -7
    ok_slope = abs(slope / target - 1.0) <= 0.10

    ok = ok_quad and ok_box and ok_slope
    _report(2, "rare_violation_sampler", ok,
            f"max rel dev {max(rels.values()):.4f}, slope {slope:.6f} vs {target:.6f}")
    assert ok_quad, f"sampler vs exact relative deviations {rels}"
    assert ok_box, "sampled curve must stay positive and below the power bound"
    assert ok_slope, f"late slope {slope:.6f} vs {target:.6f} outside 10%"


def test_toric_flip_threshold_window(toric_alpha_curves):
    # criterion 3: the 0.25 crossing sits in [0.08, 0.16] and alpha(0.3) > 0.4
    taus, curves = toric_alpha_curves
    crossings = {}
    ok = True
    for L, vals in sorted(curves.items()):
        cross = float(np.interp(0.25, vals, taus))
        crossings[L] = cross
        ok = ok and 0.08 <= cross <= 0.16 and vals[-1] > 0.4
    _report(3, "toric_flip_threshold",
            ok, ", ".join(f"L={L}: crossing {c:.3f}" for L, c in crossings.items()))
    assert ok, f"crossings {crossings}"


def test_toric_interleaving_inequality():
    # criterion 4: periodic recovery never loses to a single final recovery
    code = toric_code(4)
    decoder = MwpmDecoder(code)
    noise = NoiseModel.bit_flip(code.n)
    params = PoissonParams(kappa=0.0, delta=1.0, n_channels=noise.n_channels)
    worst = np.inf
    ok = True
    for t in (0.05, 0.1, 0.2):
        for m in (2, 4, 8):
            res = check_assumption2(code, decoder, noise, params, t, m, 20_000,
                                    seed=41_000 + int(t * 1000) * 10 + m)
            margin = res.rhs + 3 * res.sigma - res.lhs
            worst = min(worst, margin)
            ok = ok and res.holds
    _report(4, "toric_interleaving", ok, f"worst margin {worst:+.4f}")
    assert ok, f"interleaving inequality violated; worst margin {worst:+.4f}"


def test_five_qubit_envelope_and_early_slope(five_qubit):
    # criterion 5: exact curve below the order-(ell+1) envelope, quadratic onset
    ts = np.array([0.01, 0.0167, 0.0278, 0.0464, 0.0774, 0.129, 0.215, 0.359,
                   0.599, 1.0, 1.5, 2.714, 3.929, 5.143, 6.357, 7.571, 8.786,
                   10.0])
    eps = epsilon_exact(five_qubit["lind"], five_qubit["recovery"],
                        five_qubit["codewords"], ts)
    inputs = BoundInputs(ell=1, kappa=five_qubit["kappa"],
                         delta=five_qubit["delta"],
                         n_channels=five_qubit["noise"].n_channels)
    bound = np.array([theorem4_bound(inputs, t) for t in ts])
    ok_env = bool(np.all(eps <= bound + 1e-12))
    early = ts <= 0.1
    slope, _ = ols_line(np.log(ts[early]), np.log(eps[early]))
    ok_slope = abs(slope / 2.0 - 1.0) <= 0.05
    ok = ok_env and ok_slope
    _report(5, "five_qubit_envelope", ok,
            f"max eps/bound {np.max(eps / bound):.3f}, early slope {slope:.3f}")
    assert ok_env, f"exact curve exceeds the envelope by {np.max(eps - bound):.3g}"
    assert ok_slope, f"early log-log slope {slope:.3f} outside 2 +- 5%"


def test_binomial_rate_scaling_and_coefficients():
    # criterion 6: saturated rate eps/t over the pinned Delta grid; the
    # exponent is the leading-order one, fitted with its O(Delta) correction
    # (see module note)
    deltas = np.array([1e-3, 2e-3, 5e-3])
    ts = np.linspace(0.0, 15.0, 16)
    c_ref = {1: 2.57, 2: 9.51}
    results = {}
    for ell in (1, 2):
        cutoff = fig6_cutoff(ell, full_scale=False)
        osc = TruncatedOscillator(cutoff)
        codewords = binomial_codewords(ell, cutoff)
        recovery = build_recovery(codewords, binomial_error_set(osc, ell))
        rates = []
        for d in deltas:
            jumps = [(osc.a, d / 3), (osc.adag, d / 3), (osc.number, d / 3)]
            lind = build_lindbladian(jumps) + recovery_lindbladian(recovery, 1.0)
            eps = epsilon_exact(lind, recovery, codewords, ts,
                                directions=np.array([[0.0, 0.0, 1.0]]))
            rates.append(eps[-1] / ts[-1])
        rates = np.array(rates)
        exponent, _, correction = leading_exponent(deltas, rates)
        c_prime = float(np.mean(rates ** (1.0 / (ell + 1)) / deltas))
        results[ell] = (exponent, correction, c_prime)
    ok_exps = {l: abs(m / (l + 1) - 1.0) <= 0.05 for l, (m, _, _) in results.items()}
    ok_coeffs = {l: abs(c / c_ref[l] - 1.0) <= 0.15 for l, (_, _, c) in results.items()}
    ok = all(ok_exps.values()) and all(ok_coeffs.values())
    detail = ", ".join(f"ell={l}: exponent {m:.4f} (b {b:.1f}), c' {c:.3f}"
                       for l, (m, b, c) in results.items())
    _report(6, "binomial_rate_scaling", ok, detail)
    for ell in (1, 2):
        exponent, _, c_prime = results[ell]
        assert ok_coeffs[ell], \
            f"ell={ell}: c' {c_prime:.3f} outside 15% of {c_ref[ell]}"
        assert ok_exps[ell], \
            f"ell={ell}: leading exponent {exponent:.4f} outside (ell+1) +- 5%"


def test_recurrence_saturated_slope_and_size_exponent():
    # criterion 7: (a) the saturated slope at h = 0.4 N against its large-N
    # closed form; (b) the -kd/4 size exponent at h = N/2 (see module note).
    # To first order in 1 - p1 the ratios s_v/s_{v+1} sit at
    # 1 - (1 - p1)/(1 - 2v/N), so ln(s1/p1^h) -> -kd 2 int_0^x u/(1-2u) du.
    n_values = (1_000, 10_000, 100_000)
    kds = (2.0, 4.0, 8.0)

    def ln_ratio(n, kd, frac):
        p1 = 1.0 / (1.0 + kd / n)
        h = int(round(frac * n))
        return solve_recurrence(h, n, p1).log_s1 - h * math.log(p1)

    x = 0.4
    target_a = -0.5 * (math.log(1.0 / (1.0 - 2.0 * x)) - 2.0 * x)
    saturated = [ln_ratio(max(n_values), kd, x) for kd in kds]
    slope_a, _ = ols_line(np.array(kds), np.array(saturated))
    ok_a = abs(slope_a / target_a - 1.0) <= 0.05

    ok_b = True
    exps = {}
    for kd in kds:
        lns = np.array([ln_ratio(n, kd, 0.5) for n in n_values])
        slope_b, _ = ols_line(np.log(np.array(n_values, float)), lns)
        exps[kd] = slope_b
        ok_b = ok_b and abs(slope_b / (-kd / 4.0) - 1.0) <= 0.10

    ok = ok_a and ok_b
    _report(7, "recurrence_slope_and_exponent", ok,
            f"saturated slope {slope_a:.4f} vs {target_a:.4f}; "
            + ", ".join(f"kd={k}: {v:.4f}" for k, v in exps.items()))
    assert ok_b, f"size exponents {exps} outside 10% of -kd/4"
    assert ok_a, f"saturated slope {slope_a:.4f} outside {target_a:.4f} +- 5%"


def _brute_min_matching_weight(dist):
    idx = list(range(len(dist)))

    def best(rest):
        if not rest:
            return 0.0
        first, rest = rest[0], rest[1:]
        return min(dist[first][rest[i]] + best(rest[:i] + rest[i + 1:])
                   for i in range(len(rest)))

    return best(idx)


def _walk_absorption_mc(h, n, p1, walks, rng):
    wins = 0
    for _ in range(walks):
        v = 1
        while 0 < v <= h:
            u = rng.random()
            if u >= p1:
                v = 0  # the event was a recovery; the excursion dies
            elif u < (v / n) * p1:
                v -= 1
            else:
                v += 1
        wins += v > h
    return wins / walks


def test_property_suite_cross_checks(five_qubit):
    # criterion 8: property batch with no quantitative anchor
    oks = {}

    # (a) exhaustive Pauli algebra vs dense matrices, n <= 3
    n = 3
    letters = ["I", "X", "Y", "Z"]
    paulis = [PauliOperator.from_string("".join(c))
              for c in itertools.product(letters, repeat=n)]
    mats = [pauli_matrix(p) for p in paulis]
    ok = True
    for (pa, ma), (pb, mb) in itertools.product(zip(paulis, mats), repeat=2):
        # pauli_matrix already carries the accumulated product phase
        ok = ok and np.allclose(pauli_matrix(multiply(pa, pb)), ma @ mb)
        comm_dense = np.allclose(ma @ mb, mb @ ma)
        ok = ok and commutes(pa, pb) == comm_dense
        if not ok:
            break
    oks["pauli_algebra"] = ok

    # (b) matching engines vs exhaustive pairing enumeration, <= 6 defects
    ok = True
    for L in (3, 4):
        rng = np.random.default_rng(80 + L)
        for _ in range(20):
            k = int(rng.choice([2, 4, 6]))
            cells = rng.choice(L * L, size=k, replace=False)
            pts = [(int(c) // L, int(c) % L) for c in cells]
            dist = np.array([[min(abs(r1 - r2), L - abs(r1 - r2))
                              + min(abs(c1 - c2), L - abs(c1 - c2))
                              for (r2, c2) in pts] for (r1, c1) in pts], float)
            target = _brute_min_matching_weight(dist.tolist())
            for pairs in (_dp_matchings(dist[None])[0], _blossom_min_matching(dist)):
                got = sum(dist[i][j] for i, j in pairs)
                ok = ok and math.isclose(got, target)
    oks["mwpm_optimality"] = ok

    # (c) recovery idempotence and the Knill-Laflamme identity
    rng = np.random.default_rng(88)
    dim = 2 ** 5
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rec5 = five_qubit["recovery"]
    once = rec5.apply(rho)
    oks["recovery_idempotent"] = bool(np.abs(rec5.apply(once) - once).max() < 1e-10)

    errors5 = [pauli_matrix(PauliOperator.identity(5))] + [
        pauli_matrix(e) for e in NoiseModel.depolarizing(5).jumps]
    _, sat5 = kl_matrix(five_qubit["codewords"], errors5)
    osc = TruncatedOscillator(15)
    cw = binomial_codewords(1, 15)
    _, sat_bin = kl_matrix(cw, binomial_error_set(osc, 1))
    rec_bin = build_recovery(cw, binomial_error_set(osc, 1))
    g = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    once = rec_bin.apply(rho)
    oks["kl_identity"] = bool(sat5 and sat_bin)
    oks["recovery_idempotent"] = oks["recovery_idempotent"] and bool(
        np.abs(rec_bin.apply(once) - once).max() < 1e-10)

    # (d) distinguishability never loses more than twice the worst infidelity
    ts = np.array([0.1, 1.0, 5.0])
    eps = epsilon_exact(five_qubit["lind"], rec5, five_qubit["codewords"], ts)
    dlt = delta_exact(five_qubit["lind"], rec5, five_qubit["codewords"], ts)
    oks["delta_le_2eps"] = bool(np.all(dlt <= 2 * eps + 1e-9))

    # (e) recurrence solver vs a direct random-walk simulation
    h, n_wells, p1, walks = 4, 12, 0.8, 20_000
    s1 = float(solve_recurrence(h, n_wells, p1).s[1])
    est = _walk_absorption_mc(h, n_wells, p1, walks, np.random.default_rng(89))
    sigma = math.sqrt(max(s1 * (1 - s1), 1e-12) / walks)
    oks["recurrence_vs_walk"] = abs(est - s1) <= 3 * sigma

    ok = all(oks.values())
    _report(8, "property_cross_checks", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in oks.items()))
    assert ok, oks


def test_flip_onset_lower_bound_consistency(toric_alpha_curves):
    # criterion 9: measured (a, tau_c) feed the flip-onset lower bound, which
    # must stay below the sampled error probability at 3 sigma
    taus, curves = toric_alpha_curves
    a = 0.25
    tau_c = float(np.interp(a, curves[4], taus))
    code = toric_code(4)
    decoder = MwpmDecoder(code)
    noise = NoiseModel.bit_flip(code.n)
    ts = np.array([0.25, 0.5, 1.0])
    worst = -np.inf
    ok = True
    for kappa, seed in ((0.0, 91), (1.0, 92), (5.0, 93)):
        est = estimate_epsilon(code, decoder, noise, noise.params(kappa, 1.0),
                               ts, 10_000, seed)
        lower = np.array([theorem5_lower(a, tau_c, kappa, t) for t in ts])
        excess = np.max(lower - est.estimate - 3 * est.stderr)
        worst = max(worst, float(excess))
        ok = ok and excess <= 0
    _report(9, "flip_onset_lower_bound", ok,
            f"tau_c {tau_c:.3f}, worst excess {worst:+.4f}")
    assert ok, f"lower bound exceeds sampled error probability by {worst:.4f}"
