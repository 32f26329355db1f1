"""Oracle tests for the closed-form bound evaluators."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import gammainc

from aqec.bounds import (
    BoundInputs,
    delta_eff,
    f_ell,
    leading_exponent,
    ols_line,
    p_asymptotic,
    p_exact_quadrature,
    recurrence_slope_limit,
    soft_threshold,
    solve_recurrence,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    theorem4_late_slope,
    theorem5_delta_eff,
    theorem5_lower,
    toric_1d_trace_oracle,
    toric_perturbative,
)
from aqec.trajectories import PoissonParams, estimate_faithful_violation


def test_f_ell_known_values():
    assert f_ell(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert f_ell(1, 0.0) == 0.0
    # leading Taylor term z^(ell+1)/(ell+1)!
    ratio = f_ell(6, 1e-3) / 1e-3 ** 7
    assert ratio == pytest.approx(1.0 / math.factorial(7), abs=1e-6)
    out = f_ell(3, np.array([0.0, 1.0, 4.0]))
    assert out.shape == (3,) and out[0] == 0.0 and np.all(np.diff(out) > 0)


def test_f_ell_never_exceeds_z():
    for ell in range(1, 9):
        z = np.linspace(0.0, 60.0, 400)
        assert np.all(f_ell(ell, z) <= z + 1e-12)


def test_f_ell_matches_integral_definition():
    # F_ell(z) = integral_0^z g(ell, x) dx
    for ell in (1, 2, 5, 12, 20):
        for z in (0.3, 3.0, 17.0, 50.0):
            ref, err = quad(lambda x: gammainc(ell, x), 0.0, z,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-11
            assert f_ell(ell, z) == pytest.approx(ref, abs=1e-10)


def test_f_ell_domain_errors():
    with pytest.raises(ValueError):
        f_ell(0, 1.0)
    with pytest.raises(ValueError):
        f_ell(2, -0.5)


def test_theorem1_zero_noise_and_late_linear():
    base = dict(ell=2, chi=1.0, kappa=2.0, delta=0.0, l_e_norm=3.0)
    assert theorem1_bound(BoundInputs(**base), 5.0) == 0.0
    # eta = 1: late-time bound grows as kappa t / (chi + 1)
    for ell in (1, 4):
        chi, kappa = 1.0, 2.0
        bi = BoundInputs(ell=ell, chi=chi, kappa=kappa,
                         delta=kappa / (chi + 1), l_e_norm=1.0)
        t = 100.0
        expected = kappa * t / (chi + 1)
        assert theorem1_bound(bi, t) == pytest.approx(
            expected * (1 - ell / (kappa * t)), rel=1e-9)


def test_theorem1_missing_inputs_named():
    with pytest.raises(ValueError, match="l_e_norm"):
        theorem1_bound(BoundInputs(ell=1, chi=0.0, kappa=1.0, delta=0.1), 1.0)


def test_bound_inputs_validation():
    with pytest.raises(ValueError, match="delta"):
        BoundInputs(delta=-0.1)
    with pytest.raises(ValueError, match="xi"):
        BoundInputs(xi=1.5)
    with pytest.raises(ValueError):
        BoundInputs(ell=4, h=2)


def test_bound_inputs_reject_fractional_ell_and_h():
    # theorem3 used to truncate h = 3.5 to 3; delta_eff and theorem4's late
    # slope raised (1 + kappa/N Delta) to fractional powers at ell = 2.5
    rates = dict(kappa=1.0, delta=0.001, n_channels=1000)
    with pytest.raises(ValueError, match="h must be a nonnegative integer"):
        theorem3_bound(BoundInputs(xi=0.0, h=3.5, **rates), 1.0)
    with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
        delta_eff(BoundInputs(ell=2.5, **rates))
    with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
        theorem4_late_slope(BoundInputs(ell=2.5, **rates))
    # integral floats stay accepted and read as their integers
    assert theorem3_bound(BoundInputs(xi=0.0, h=3.0, **rates), 1.0) \
        == theorem3_bound(BoundInputs(xi=0.0, h=3, **rates), 1.0)
    assert delta_eff(BoundInputs(ell=6.0, **rates)) == delta_eff(BoundInputs(ell=6, **rates))
    # theorem3 used to truncate N = 1000.9 to 1000 and walk the N = 1000 chain
    with pytest.raises(ValueError, match="n_channels must be a nonnegative integer"):
        theorem3_bound(BoundInputs(xi=0.0, h=3, kappa=1.0, delta=1 / 1000.9,
                                   n_channels=1000.9), 1.0)
    assert theorem3_bound(BoundInputs(xi=0.0, h=3, kappa=1.0, delta=0.001,
                                      n_channels=1000.0), 1.0) \
        == theorem3_bound(BoundInputs(xi=0.0, h=3, **rates), 1.0)


def test_soft_threshold_scan():
    # The integer argmin sits next to r0/(e r).  The continuous minimizer is
    # r0/(e r) - 1 + O(r/r0), so the scan result trails the prediction by up
    # to ~1.5 once r0/r is large; it is a true local minimum either way.
    for r0, r, window in ((1.0, 0.01, 1.0), (2.0, 0.003, 2.0)):
        st = soft_threshold(BoundInputs(kappa=1.0, delta=r, r0=r0))
        assert st.ell_min <= st.ell_predicted
        assert abs(st.ell_min - st.ell_predicted) <= window
        rate = lambda ell: (ell * r / r0) ** (ell + 1)
        assert rate(st.ell_min) <= rate(st.ell_min - 1)
        assert rate(st.ell_min) <= rate(st.ell_min + 1)
        # minimal rate ~ kappa e^-(ell_pred + 1)
        assert math.log(st.gamma_min) == pytest.approx(
            -(st.ell_predicted + 1), abs=0.5)
        assert st.gamma_min < 1.0
    ell_min, gamma_min, pred = soft_threshold(
        BoundInputs(kappa=2.0, delta=0.02, r0=1.0))
    assert gamma_min < 2.0 and ell_min >= 1 and pred > 0


def test_soft_threshold_matches_a_full_log_scan():
    # the raw-rate scan used to underflow to 0 and stop early (ell_min 413
    # against 919 at r = 4e-4), and to overflow at r = 1e-4
    for r in np.geomspace(1e-5, 2.0, 400):
        st = soft_threshold(BoundInputs(kappa=1.0, delta=float(r), r0=1.0))
        ells = np.arange(1, int(3 / (math.e * r)) + 20)
        assert st.ell_min == 1 + int(np.argmin((ells + 1) * np.log(ells * r)))
        assert st.gamma_min == (st.ell_min * r) ** (st.ell_min + 1)
    # an r0 / (e r) past the float range used to leak an OverflowError
    with pytest.raises(ValueError, match="too small for the scan"):
        soft_threshold(BoundInputs(kappa=1e10, delta=1e-300, r0=1.0))


def test_theorem2_limits():
    bi = BoundInputs(xi=0.0, h=4, ell=2, kappa=0.0, delta=0.3, n_channels=5)
    t = np.array([0.1, 1.0, 10.0])
    assert theorem2_bound(bi, t) == pytest.approx(-np.expm1(-1.5 * t), rel=1e-12)
    bi2 = BoundInputs(xi=0.0, h=3, kappa=1.0, delta=0.5, n_channels=4)
    assert theorem2_bound(bi2, 1e9) == pytest.approx(1.0)
    bi3 = BoundInputs(xi=1.0, h=3, kappa=1.0, delta=0.5, n_channels=4)
    assert theorem2_bound(bi3, 2.0) == pytest.approx(-math.expm1(-3.0 * 2.0))


def test_theorem2_small_t_matches_late_slope_linearization():
    bi = BoundInputs(ell=3, h=3, xi=0.0, kappa=1.5, delta=0.2, n_channels=4)
    t = 1e-9
    assert theorem2_bound(bi, t) / t == pytest.approx(
        theorem4_late_slope(bi), rel=1e-5)


def test_solve_recurrence_small_cases():
    for p1 in (0.3, 0.7, 1.0):
        sol = solve_recurrence(1, 2, p1)
        assert sol.s[1] == pytest.approx(p1 / 2, rel=1e-14)
    sol0 = solve_recurrence(0, 5, 0.4)
    assert sol0.s.tolist() == [0.0, 1.0] and sol0.log_s1 == 0.0
    with pytest.raises(ValueError):
        solve_recurrence(5, 5, 0.5)
    with pytest.raises(ValueError):
        solve_recurrence(1, 4, 0.0)
    # integral floats read as their integers; fractional sizes are rejected
    want = solve_recurrence(3, 10, 0.5).log_s
    assert solve_recurrence(3.0, 10, 0.5).log_s.tolist() == want.tolist()
    assert solve_recurrence(3, 10.0, 0.5).log_s.tolist() == want.tolist()
    for h, n in ((3.5, 10), (3, 10.5), (math.nan, 10)):
        with pytest.raises(ValueError, match="must be a nonnegative integer, got"):
            solve_recurrence(h, n, 0.5)


def test_solve_recurrence_monotone_unit_interval():
    for h, n, p1 in ((3, 10, 0.6), (6, 20, 0.95), (40, 200, 0.99), (400, 1000, 0.999)):
        sol = solve_recurrence(h, n, p1)
        assert sol.s[0] == 0.0
        assert sol.s[-1] == pytest.approx(1.0)
        assert np.all(sol.s >= 0.0) and np.all(sol.s <= 1.0 + 1e-12)
        finite = sol.log_s[1:]
        assert np.all(np.diff(finite) >= -1e-12)


def _walk_absorption_mc(h, n, p1, n_walks, rng):
    # step down w.p. (v/n) p1, up w.p. (1 - v/n) p1, else the walk dies
    wins = 0
    for _ in range(n_walks):
        v = 1
        while 0 < v <= h:
            u = rng.random()
            if u < (v / n) * p1:
                v -= 1
            elif u < p1:
                v += 1
            else:
                break
        wins += v == h + 1
    return wins / n_walks


def test_solve_recurrence_matches_walk_mc():
    rng = np.random.default_rng(20240811)
    for h, n, p1 in ((3, 10, 0.85), (6, 20, 0.9)):
        want = math.exp(solve_recurrence(h, n, p1).log_s1)
        n_walks = 20000
        got = _walk_absorption_mc(h, n, p1, n_walks, rng)
        sigma = math.sqrt(want * (1 - want) / n_walks)
        assert abs(got - want) <= 3 * sigma + 1e-9


def _banded_log_s(h, n, p1):
    # s_v - (v/n) p1 s_{v-1} - (1 - v/n) p1 s_{v+1} = 0 for v = 1..h, with
    # s_0 = 0 and s_{h+1} = 1 moved to the right-hand side
    v = np.arange(1, h + 1)
    bands = np.zeros((3, h))
    bands[0, 1:] = -(1 - v[:-1] / n) * p1
    bands[1] = 1.0
    bands[2, :-1] = -(v[1:] / n) * p1
    rhs = np.zeros(h)
    rhs[-1] = (1 - h / n) * p1
    return np.log(solve_banded((1, 1), bands, rhs))


def test_solve_recurrence_matches_banded_solve():
    cases = [(3, 10, 0.85), (40, 200, 0.99), (400, 1000, 0.6)]
    cases += [(2000, 5000, 1.0 / (1.0 + kd / 5000)) for kd in (2.0, 8.0)]
    for h, n, p1 in cases:
        want = _banded_log_s(h, n, p1)
        got = solve_recurrence(h, n, p1).log_s[1:h + 1]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_recurrence_slope_limit_closed_form():
    for x in (0.1, 0.25, 0.4, 0.45):
        integral, _ = quad(lambda u: u / (1 - 2 * u), 0.0, x)
        assert recurrence_slope_limit(x) == pytest.approx(-2 * integral, rel=1e-10)
    assert recurrence_slope_limit(0.0) == 0.0
    assert recurrence_slope_limit(0.4) == pytest.approx(-0.404719, abs=1e-6)
    for bad in (-0.1, 0.5, 0.7):
        with pytest.raises(ValueError):
            recurrence_slope_limit(bad)


def test_saturated_slope_converges_to_closed_form():
    # the exact solver approaches the large-N limit monotonically, and moves
    # away from -0.4957, a value no expansion at h = 0.4 N produces
    limit = recurrence_slope_limit(0.4)
    kds = np.array([2.0, 4.0, 8.0])
    gaps = []
    for n in (1_000, 10_000, 100_000):
        h = int(round(0.4 * n))
        lns = [solve_recurrence(h, n, 1 / (1 + kd / n)).log_s1
               + h * math.log1p(kd / n) for kd in kds]
        slope, _ = ols_line(kds, lns)
        gaps.append(slope - limit)
    assert 0 < gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-3
    assert abs((limit + gaps[2]) / -0.4957 - 1.0) > 0.10


def test_theorem3_closed_form():
    bi = BoundInputs(xi=0.1, h=3, kappa=2.0, delta=0.25, n_channels=8)
    nd = 2.0
    gamma = 4.0
    s1 = math.exp(solve_recurrence(3, 8, nd / gamma).log_s1)
    want = -math.expm1(-(0.9 * nd * s1 + 0.1 * gamma) * 1.7)
    assert theorem3_bound(bi, 1.7) == pytest.approx(want, rel=1e-12)
    # kappa = 0 gives p1 = 1 but the walk still has both absorbing ends;
    # for h = 2, N = 4: s1 = 3/5 by hand
    bi0 = BoundInputs(xi=0.0, h=2, kappa=0.0, delta=0.5, n_channels=4)
    assert theorem3_bound(bi0, 0.8) == pytest.approx(-math.expm1(-2.0 * 0.6 * 0.8))


def test_theorem4_edges_and_ordering():
    bi = BoundInputs(ell=2, kappa=1.0, delta=0.2, n_channels=3)
    assert theorem4_bound(bi, 0.0) == 0.0
    assert theorem4_bound(BoundInputs(ell=2, kappa=1.0, delta=0.0,
                                      n_channels=3), 4.0) == 0.0
    # with chi = 0 and the generator norm equal to N, the early-time bound
    # is never above the generic bound
    for ell, kap, nd, t in itertools.product(
            (1, 3, 6), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (0.1, 1.0, 5.0, 20.0)):
        b = BoundInputs(ell=ell, chi=0.0, kappa=kap, delta=nd,
                        n_channels=1, l_e_norm=1.0)
        assert theorem4_bound(b, t) <= theorem1_bound(b, t) + 1e-15


def test_theorem5_lower_basics():
    assert theorem5_lower(1e-12, 1.0, 1.0, 5.0) <= 1e-11
    vals = theorem5_lower(0.3, 0.5, 2.0, np.array([0.5, 1.0, 4.0]))
    assert np.all(np.diff(vals) > 0) and np.all(vals < 0.5)
    deff = theorem5_delta_eff(0.3, 0.5, 2.0)
    assert vals[1] == pytest.approx(-math.expm1(-deff) / 2)
    with pytest.raises(ValueError):
        theorem5_delta_eff(1.2, 0.5, 1.0)


def _theorem5_asymptote(a, tau_c, kappa):
    """Large-kappa form (a / tau_c) e^(-kappa tau_c) of theorem5_delta_eff."""
    return (a / tau_c) * math.exp(-kappa * tau_c)


def test_theorem5_asymptotic_correction():
    # The exact rate differs from the large-kappa form by the factor
    # kappa tau_c / (kappa tau_c + log 2) (up to O(a e^-kappa tau_c)), so the
    # gap at kappa tau_c = 10 is 6.5%, not below 5%; 5% is reached only for
    # kappa tau_c >= ~13.3.  Both facts are pinned here.
    for ktc in (10.0, 14.0):
        tau_c, a = 2.0, 0.3
        kappa = ktc / tau_c
        exact = theorem5_delta_eff(a, tau_c, kappa)
        asym = _theorem5_asymptote(a, tau_c, kappa)
        x = a * math.exp(-ktc)
        predicted = (-math.log1p(-x) / x) * ktc / (ktc + math.log(2))
        assert exact / asym == pytest.approx(predicted, abs=1e-9)
    gap10 = abs(theorem5_delta_eff(0.3, 2.0, 5.0)
                / _theorem5_asymptote(0.3, 2.0, 5.0) - 1)
    assert 0.05 < gap10 < 0.08
    gap14 = abs(theorem5_delta_eff(0.3, 2.0, 7.0)
                / _theorem5_asymptote(0.3, 2.0, 7.0) - 1)
    assert gap14 < 0.05


def test_delta_eff_values():
    assert delta_eff(BoundInputs(ell=6, kappa=1.0, delta=1.0,
                                 n_channels=1)) == 2.0 ** -7
    # tolerable-weight variant with an additive floor
    v = delta_eff(BoundInputs(h=6, xi=1e-3, kappa=1.0, delta=1.0, n_channels=1))
    assert v == pytest.approx(2.0 ** -7 + 1e-3, rel=1e-12)
    assert delta_eff(BoundInputs(ell=3, kappa=0.0, delta=1.0, n_channels=1)) == 0.0
    assert delta_eff(BoundInputs(ell=3, kappa=1.0, delta=0.0, n_channels=1)) == 0.0


def _violation_uniformized(ell, kappa, nd, t):
    # the run-length chain uniformized at rate kappa + N Delta: p(t) is
    # sum_m Poisson(m; rate t) [P^m]_(0, ell+1), a sum of nonnegative terms
    rate = kappa + nd
    step = np.zeros((ell + 2, ell + 2))
    for k in range(ell + 1):
        step[k, k + 1] = nd / rate
        step[k, 0] += kappa / rate
    step[ell + 1, ell + 1] = 1.0
    row = np.zeros(ell + 2)
    row[0] = 1.0
    lam = rate * t
    terms = []
    for m in range(int(lam + 20 * math.sqrt(lam)) + 60):
        terms.append(math.exp(m * math.log(lam) - lam - math.lgamma(m + 1)) * row[-1])
        row = row @ step
    return math.fsum(terms)


def test_p_exact_quadrature_matches_uniformization():
    # p down to 2e-19, and horizons of up to 60 mean recovery times
    bi = {ell: BoundInputs(ell=ell, kappa=1.0, delta=1.0, n_channels=1) for ell in (6, 10)}
    for ell, t in ((6, 0.1), (10, 0.1), (10, 1.0), (6, 12.0), (6, 60.0)):
        want = _violation_uniformized(ell, 1.0, 1.0, t)
        assert p_exact_quadrature(bi[ell], t) == pytest.approx(want, rel=1e-6, abs=0)
    assert _violation_uniformized(10, 1.0, 1.0, 0.1) < 1e-18
    times = np.array([0.5, 3.0, 9.0])
    bi2 = BoundInputs(ell=3, kappa=2.5, delta=0.3, n_channels=2)
    want = [_violation_uniformized(3, 2.5, 0.6, t) for t in times]
    assert p_exact_quadrature(bi2, times) == pytest.approx(want, rel=1e-6, abs=0)


def test_p_exact_quadrature_relative_accuracy_at_tiny_p():
    # p from 2e-19 down to 2.5e-41: relative, not absolute, accuracy
    bi = BoundInputs(ell=10, kappa=1.0, delta=1.0, n_channels=1)
    times = np.array([0.1, 0.03, 0.001])
    want = [_violation_uniformized(10, 1.0, 1.0, t) for t in times]
    assert want[-1] < 1e-40
    # abs=0: pytest.approx would otherwise accept anything within 1e-12
    assert p_exact_quadrature(bi, times) == pytest.approx(want, rel=1e-10, abs=0)
    for t, w in zip(times, want):
        assert p_exact_quadrature(bi, float(t)) == pytest.approx(w, rel=1e-10, abs=0)


def test_p_exact_quadrature_rejects_fractional_ell():
    rates = dict(kappa=1.0, delta=1.0, n_channels=1)
    with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
        p_exact_quadrature(BoundInputs(ell=2.5, **rates), 1.0)
    for t in (-1.0, math.nan, [2.0, math.nan]):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            p_exact_quadrature(BoundInputs(ell=2, **rates), t)
    assert p_exact_quadrature(BoundInputs(ell=2.0, **rates), 1.0) \
        == p_exact_quadrature(BoundInputs(ell=2, **rates), 1.0)


def test_p_exact_quadrature_at_ell_20_matches_uniformization():
    # p = 3.7e-27: the old scaled matrix exponential was 4.2e-5 off here
    bi = BoundInputs(ell=20, kappa=1.0, delta=1.0, n_channels=1)
    want = _violation_uniformized(20, 1.0, 1.0, 0.5)
    assert p_exact_quadrature(bi, 0.5) == pytest.approx(want, rel=1e-10, abs=0)


def test_p_exact_quadrature_is_a_probability_at_late_times():
    bi = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    late = p_exact_quadrature(bi, np.array([1e3, 1e9]))
    assert np.all((0.99 < late) & (late <= 1.0))
    # ell = 0 is the first error: 1 - e^(-N Delta t), here with N t ~ 1000
    # events before it
    bi0 = BoundInputs(ell=0, kappa=1.0, delta=1e-4, n_channels=1)
    assert p_exact_quadrature(bi0, 1e3) == pytest.approx(-math.expm1(-0.1), rel=1e-10)


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5, 1e6])
def test_p_exact_quadrature_first_error_at_large_event_counts(t):
    # ell = 0 with N Delta t = 0.1 among ~t recoveries: the Poisson weights
    # share the rounding error of ln(gamma t); summed unscaled they were off
    # by up to 9.7e-10 relative at t = 1e6
    bi = BoundInputs(ell=0, kappa=1.0, delta=0.1 / t, n_channels=1)
    assert p_exact_quadrature(bi, t) == pytest.approx(-math.expm1(-0.1), rel=1e-12, abs=0)


@pytest.mark.parametrize("t", [-1.0, math.nan, None, [2.0, -0.5]])
def test_evaluators_reject_bad_times(t):
    bi = BoundInputs(ell=2, h=2, xi=0.1, chi=1.0, kappa=1.0, delta=0.5,
                     n_channels=3, l_e_norm=1.0)
    calls = [theorem1_bound, theorem2_bound, theorem3_bound, theorem4_bound,
             p_asymptotic, p_exact_quadrature,
             lambda _, t: theorem5_lower(0.5, 1.0, 1.0, t)]
    for call in calls:
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            call(bi, t)


def test_p_exact_quadrature_rejects_infinite_time():
    bi = BoundInputs(ell=2, kappa=1.0, delta=1.0, n_channels=1)
    for t in (math.inf, [1.0, math.inf]):
        with pytest.raises(ValueError, match="t must be finite"):
            p_exact_quadrature(bi, t)


def test_p_exact_quadrature_closed_forms():
    # ell = 0 collapses to 1 - e^(-N Delta t) for every recovery rate
    for kappa in (0.0, 0.7, 3.0):
        bi = BoundInputs(ell=0, kappa=kappa, delta=0.4, n_channels=2)
        for t in (0.3, 1.0, 3.0):
            assert p_exact_quadrature(bi, t) == pytest.approx(
                -math.expm1(-0.8 * t), rel=1e-9)
    # kappa = 0: exactly the probability of more than ell errors
    bi0 = BoundInputs(ell=3, kappa=0.0, delta=0.5, n_channels=2)
    ts = np.array([0.0, 0.5, 2.0, 8.0])
    assert p_exact_quadrature(bi0, ts) == pytest.approx(
        gammainc(4, 1.0 * ts), rel=1e-12)
    assert p_exact_quadrature(bi0, 2.0) == pytest.approx(gammainc(4, 2.0))
    # no errors and no recoveries: no violation, and no 0/0 in the scaling
    still = BoundInputs(ell=3, kappa=0.0, delta=0.0, n_channels=2)
    assert p_exact_quadrature(still, ts).tolist() == [0.0] * 4
    with pytest.raises(ValueError):
        p_exact_quadrature(bi0, -1.0)
    with pytest.raises(ValueError, match="n_channels"):
        p_exact_quadrature(BoundInputs(ell=2, kappa=1.0, delta=0.1), 1.0)


def test_p_exact_quadrature_matches_sampler():
    bi = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    times = [1.0, 5.0, 10.0]
    vals = p_exact_quadrature(bi, np.array(times))
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    mc = estimate_faithful_violation(6, params, times, 1 << 22, seed=4242)
    for v, est, se in zip(vals, mc.estimate, mc.stderr):
        assert abs(v - est) <= 4 * se


def test_p_exact_quadrature_matches_thinned_sampler():
    # at t = 0.5 only q = P[N > 6] = 8e-5 of the trajectories hold enough
    # events to violate; the sampler draws only those
    bi = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    assert gammainc(7, 1.0) == pytest.approx(8.3e-5, rel=1e-2)
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    mc = estimate_faithful_violation(6, params, [0.5], 1 << 27, seed=31)
    assert mc.estimate[0] > 0
    assert abs(p_exact_quadrature(bi, 0.5) - mc.estimate[0]) <= 4 * mc.stderr[0]


def test_p_exact_quadrature_past_forty_rounds_matches_sampler():
    # a horizon of 20 mean recovery times; p(20) is exact, so sigma is the
    # sampler's alone
    bi = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    far = p_exact_quadrature(bi, 20.0)
    near = p_exact_quadrature(bi, 11.0)
    assert far > near
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    mc = estimate_faithful_violation(6, params, [20.0], 1 << 22, seed=99)
    assert abs(far - mc.estimate[0]) <= 4 * mc.stderr[0]


def test_p_asymptotic_late_agreement():
    # 1 - e^(-Delta_eff t) overshoots the true violation probability by ~30%
    # at kappa t = 10 and approaches it from above; the 10% band is reached
    # near kappa t = 21.  Checked against the exact chain at 10 and against
    # the sampler at 25.
    bi = BoundInputs(ell=6, kappa=1.0, delta=1.0, n_channels=1)
    gap10 = p_asymptotic(bi, 10.0) / p_exact_quadrature(bi, 10.0) - 1
    assert 0.25 < gap10 < 0.35
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    mc = estimate_faithful_violation(6, params, [25.0], 1 << 22, seed=555)
    rel25 = p_asymptotic(bi, 25.0) / mc.estimate[0] - 1
    assert 0.0 < rel25 < 0.10


def test_delta_eff_matches_late_slope_rare_regime():
    # When violations are rare the closed-form rate agrees with the late
    # logarithmic slope of the exact violation probability to within 5%.
    cases = [
        (1.0, 6, 8.0, 11.5),
        (2.0, 5, 7.0, 11.0),
        (4.0, 2, 7.0, 11.0),
    ]
    for ratio, ell, t1, t2 in cases:
        bi = BoundInputs(ell=ell, kappa=1.0, delta=1.0 / ratio, n_channels=1)
        p = p_exact_quadrature(bi, np.array([t1, t2]))
        slope = (np.log1p(-p[0]) - np.log1p(-p[1])) / (t2 - t1)
        assert slope == pytest.approx(delta_eff(bi), rel=0.05)


def test_delta_eff_understates_slope_when_violations_frequent():
    # At kappa/(N Delta) = 1/2 and ell = 2 the exact asymptotic decay rate
    # is ~80% above the closed-form rate: the closed form is a rare-event
    # approximation and no 5% agreement holds in this corner.
    bi = BoundInputs(ell=2, kappa=1.0, delta=2.0, n_channels=1)
    p = p_exact_quadrature(bi, np.array([7.0, 11.0]))
    slope = (np.log1p(-p[0]) - np.log1p(-p[1])) / 4.0
    assert 0.70 < slope / delta_eff(bi) - 1 < 0.90


def test_ols_line_exact():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept = ols_line(x, -2.5 * x + 0.75)
    assert slope == pytest.approx(-2.5, abs=1e-12)
    assert intercept == pytest.approx(0.75, abs=1e-12)
    # two points fit exactly; fewer distinct x leave the line undetermined
    assert ols_line([1.0, 3.0], [2.0, 6.0]) == pytest.approx((2.0, 0.0), abs=1e-12)
    for x in ([], [2.0], [2.0, 2.0, 2.0]):
        with pytest.raises(ValueError, match="need at least two distinct x"):
            ols_line(x, [1.0] * len(x))


_PINNED_DELTAS = np.array([1e-3, 2e-3, 5e-3])


def test_leading_exponent_recovers_corrected_power_law():
    rates = 4.0 * _PINNED_DELTAS ** 3 * np.exp(-70.0 * _PINNED_DELTAS)
    m, c, b = leading_exponent(_PINNED_DELTAS, rates)
    assert m == pytest.approx(3.0, abs=1e-9)
    assert c == pytest.approx(math.log(4.0), abs=1e-8)
    assert b == pytest.approx(-70.0, rel=1e-6)
    # a plain log-log line over the same points is the biased secant
    secant, _ = ols_line(np.log(_PINNED_DELTAS), np.log(rates))
    assert secant < 2.85
    # more points than parameters: least squares, still exact on clean data
    more = np.geomspace(1e-4, 5e-3, 7)
    m, _, b = leading_exponent(more, 4.0 * more ** 3 * np.exp(-70.0 * more))
    assert m == pytest.approx(3.0, abs=1e-9)
    assert b == pytest.approx(-70.0, rel=1e-6)


def test_leading_exponent_rejects_a_wrong_law():
    m, _, b = leading_exponent(_PINNED_DELTAS, _PINNED_DELTAS ** 2.8)
    assert m == pytest.approx(2.8, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-6)
    assert abs(m / 3.0 - 1.0) > 0.05


def test_leading_exponent_domain_errors():
    with pytest.raises(ValueError, match="three distinct"):
        leading_exponent([1e-3, 2e-3], [1.0, 2.0])
    with pytest.raises(ValueError, match="three distinct"):
        leading_exponent([1e-3, 1e-3, 2e-3], [1.0, 1.1, 2.0])
    with pytest.raises(ValueError, match="positive"):
        leading_exponent(_PINNED_DELTAS, [1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        leading_exponent(_PINNED_DELTAS, [1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        leading_exponent(_PINNED_DELTAS, [1.0, 2.0])


def test_toric_perturbative_values():
    assert toric_perturbative(3, 1.0, 0.0, "1D") == 0.0
    # L = 3, j = 1: -2 (3!/1!) (delta/kappa)^2 kappa
    assert toric_perturbative(3, 2.0, 0.1, "1D") == pytest.approx(
        -12.0 * 0.1 ** 2 / 2.0, rel=1e-12)
    assert toric_perturbative(3, 2.0, 0.1, "2D") == pytest.approx(
        3 * toric_perturbative(3, 2.0, 0.1, "1D"), rel=1e-12)
    with pytest.raises(ValueError):
        toric_perturbative(4, 1.0, 0.1, "1D")
    # even 2D sides too: at L = 4 the exact coefficient is 48, not the formula's 192
    with pytest.raises(ValueError, match="odd side"):
        toric_perturbative(4, 1.0, 0.1, "2D")
    with pytest.raises(ValueError):
        toric_perturbative(3, 1.0, 0.1, "3D")
    # an integral float side reads as its integer, as ell and h do in BoundInputs
    assert toric_perturbative(3.0, 2.0, 0.1, "2D") == toric_perturbative(3, 2.0, 0.1, "2D")
    with pytest.raises(ValueError, match="side must be a nonnegative integer"):
        toric_perturbative(3.5, 2.0, 0.1, "2D")


def test_toric_perturbative_past_float_intermediates():
    # L!/j! and (delta/kappa)^(j+1) each leave the float range; the shift,
    # -6.511782795572901e94 in exact rationals (fractions.Fraction), does not
    assert toric_perturbative(401, 1.0, 0.01, "1D") == pytest.approx(-6.511782795572901e94,
                                                                    rel=1e-12)
    with pytest.raises(ValueError, match="out of the float range"):
        toric_perturbative(101, 1.0, 1e10, "1D")
    # a huge side costs no more than a small one
    with pytest.raises(ValueError, match="out of the float range"):
        toric_perturbative(400001, 1.0, 0.01, "1D")


def test_toric_perturbative_thermodynamic_decay():
    # with kappa growing linearly in L the magnitude of the shift shrinks
    mags = [abs(toric_perturbative(L, 1.0 * L, 0.05, "2D"))
            for L in (3, 5, 7, 9, 11, 13)]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_toric_1d_trace_oracle_matches_closed_form():
    for side, want in ((3, -12), (5, -120), (7, -1680)):
        res = toric_1d_trace_oracle(side, (side - 1) // 2 + 1)
        assert res.value == want
        assert res.closed_form == want
        assert res.match
    res3 = toric_1d_trace_oracle(3, 2)
    assert res3.t_values[0] == 1 and res3.t_values[1] == 3
    res7 = toric_1d_trace_oracle(7, 4)
    assert res7.t_values[:4] == (1, 7, 49, 343)
    with pytest.raises(ValueError):
        toric_1d_trace_oracle(4, 2)
    with pytest.raises(ValueError):
        toric_1d_trace_oracle(5, 2)
