"""Tests of the benchmark's references: each reproduces a known closed form or an
independent computation, and each check rejects a perturbed value.

    python3 -m pytest bench/test_refs.py
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

import refs


@pytest.mark.parametrize("ell", [0, 2, 6])
@pytest.mark.parametrize("t", [0.1, 1.0, 7.5])
def test_violation_chain_without_recovery_is_regularized_gamma(ell, t):
    # kappa = 0: violation is the (ell+1)-th error of a rate-N*Delta process
    n_delta = 1.5
    got = refs.violation_probability(ell, 0.0, n_delta, t)
    with mpmath.workdps(30):
        want = float(mpmath.gammainc(ell + 1, 0, n_delta * t, regularized=True))
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 4.0])
def test_violation_chain_at_ell_zero_is_the_first_error(kappa):
    for t in (0.1, 2.0, 12.0):
        want = -math.expm1(-1.0 * t)
        assert refs.violation_probability(0, kappa, 1.0, t) == pytest.approx(want, rel=1e-14)


def test_violation_chain_matches_the_renewal_sum_at_ell_one():
    # ell = 1, kappa = N Delta = 1: survival obeys a two-state linear ODE whose
    # solution is e^(-3t/2) [cosh(r t) + (3/2) sinh(r t) / r], r = sqrt(5)/2
    t = 2.0
    r = math.sqrt(5) / 2
    survival = math.exp(-1.5 * t) * (math.cosh(r * t) + 1.5 * math.sinh(r * t) / r)
    assert refs.violation_probability(1, 1.0, 1.0, t) == pytest.approx(1 - survival, rel=1e-13)


def test_f_ell_closed_form_at_ell_one():
    for z in (0.01, 0.7, 9.0):
        assert refs.f_ell(1, z) == pytest.approx(z - 1 + math.exp(-z), rel=1e-12)
        assert 0 <= refs.f_ell(3, z) <= z


def test_recurrence_ratio_form_against_a_linear_solve():
    h, n, p1 = 20, 50, 0.6
    # unknowns s_1..s_h with s_0 = 0 and s_{h+1} = 1
    a = np.zeros((h, h))
    rhs = np.zeros(h)
    for v in range(1, h + 1):
        a[v - 1, v - 1] = 1.0
        if v > 1:
            a[v - 1, v - 2] = -(v / n) * p1
        if v < h:
            a[v - 1, v] = -(1 - v / n) * p1
        else:
            rhs[v - 1] = (1 - v / n) * p1
    s = np.linalg.solve(a, rhs)
    assert refs.recurrence_log_s1(h, n, p1) == pytest.approx(math.log(s[0]), rel=1e-12)
    assert refs.recurrence_log_s1(1, n, p1) == pytest.approx(math.log((1 - 1 / n) * p1))


def test_recurrence_slope_limit_is_the_integral():
    x = 0.4
    integral = -2 * mpmath.quad(lambda u: u / (1 - 2 * u), [0, x])
    assert refs.recurrence_slope_limit(x) == pytest.approx(float(integral), rel=1e-12)
    assert refs.recurrence_slope_limit(x) == pytest.approx(-0.404719, abs=1e-6)


def test_leading_exponent_recovers_a_synthetic_law():
    x = np.array([1e-3, 2e-3, 5e-3])
    y = 3.0 * x ** 2.5 * np.exp(-40 * x)
    assert refs.leading_exponent(x, y) == pytest.approx(2.5, rel=1e-9)


def _five_qubit_pauli_channel(delta, t):
    """Logical Pauli channel after a final lookup recovery, kappa = 0.

    Each qubit suffers X, Y or Z with probability (1 - e^(-4 delta t)) / 4
    each; the weight-one correction with the same syndrome is applied and the
    residual's logical class read from its commutation with XXXXX and ZZZZZ.
    """
    def anticommute(p, q):
        return sum(a != b and "I" not in (a, b) for a, b in zip(p, q)) % 2

    def product(p, q):
        table = {("I", c): c for c in "IXYZ"}
        table.update({(c, "I"): c for c in "IXYZ"})
        table.update({(c, c): "I" for c in "XYZ"})
        table.update({("X", "Y"): "Z", ("Y", "X"): "Z", ("Y", "Z"): "X",
                      ("Z", "Y"): "X", ("X", "Z"): "Y", ("Z", "X"): "Y"})
        return "".join(table[a, b] for a, b in zip(p, q))

    def syndrome(p):
        return tuple(anticommute(p, s) for s in refs.FIVE_QUBIT_STABILIZERS)

    correction = {syndrome("IIIII"): "IIIII"}
    for q in range(5):
        for a in "XYZ":
            e = "I" * q + a + "I" * (4 - q)
            correction[syndrome(e)] = e
    flip = -math.expm1(-4 * delta * t) / 4
    logical = dict.fromkeys("IXYZ", 0.0)
    for e in itertools.product("IXYZ", repeat=5):
        e = "".join(e)
        prob = math.prod(1 - 3 * flip if c == "I" else flip for c in e)
        residual = product(correction[syndrome(e)], e)
        x_flip = anticommute(residual, "ZZZZZ")
        z_flip = anticommute(residual, "XXXXX")
        logical["IXZY"[x_flip + 2 * z_flip]] += prob
    return logical


def test_five_qubit_reference_matches_the_pauli_channel_without_recovery():
    delta = 0.1
    times = [0.5, 1.0]
    got = refs.five_qubit_epsilon(0.0, delta, times, step=0.5)
    for t, eps in zip(times, got):
        p = _five_qubit_pauli_channel(delta, t)
        want = max(p["X"] + p["Y"], p["X"] + p["Z"], p["Y"] + p["Z"])
        assert eps == pytest.approx(want, rel=1e-10)


def test_toroidal_matching_against_enumeration():
    side = 6
    rng = np.random.default_rng(5)

    def brute(defects):
        if not defects:
            return 0
        a, rest = defects[0], defects[1:]
        return min(refs.toroidal_distance(side, a, b) + brute(rest[:i] + rest[i + 1:])
                   for i, b in enumerate(rest))

    assert refs.toroidal_distance(side, 0, side - 1) == 1
    for _ in range(20):
        defects = sorted(rng.choice(side * side, size=8, replace=False).tolist())
        assert refs.min_matching_cost(side, defects) == brute(defects)


def _toric_masks(side):
    def h(r, c):
        return (r % side) * side + c % side

    def v(r, c):
        return side * side + (r % side) * side + c % side

    cells = [(r, c) for r in range(side) for c in range(side)][:-1]
    stars = [(1 << h(r, c - 1)) | (1 << h(r, c)) | (1 << v(r - 1, c)) | (1 << v(r, c))
             for r, c in cells]
    plaquettes = [(1 << h(r, c)) | (1 << h(r + 1, c)) | (1 << v(r, c)) | (1 << v(r, c + 1))
                  for r, c in cells]
    return stars, plaquettes, h, v


def test_toric_decode_check_accepts_the_minimum_and_rejects_perturbations():
    side = 4
    stars, plaquettes, h, v = _toric_masks(side)
    frame = (1 << h(0, 0)) | (1 << h(0, 1)) | (1 << v(2, 2))
    assert refs.check_toric_decode(side, stars, plaquettes, frame, (frame, 0)) == []
    # the other way round the torus is just as short, so it passes too
    other_way = (1 << h(0, 2)) | (1 << h(0, 3)) | (1 << v(2, 2))
    assert refs.check_toric_decode(side, stars, plaquettes, frame, (other_way, 0)) == []
    bad = [
        (frame ^ (1 << h(3, 3)), 0),           # leaves a syndrome
        (frame ^ stars[5], 0),                 # right syndrome, heavier
        (frame, 1 << h(1, 1)),                 # stray Z correction
    ]
    for correction in bad:
        assert refs.check_toric_decode(side, stars, plaquettes, frame, correction)


def test_value_checks_reject_perturbed_values():
    assert refs.check_relative("x", 1.0 + 1e-7, 1.0, 1e-6) == []
    assert refs.check_relative("x", 1.0 + 1e-5, 1.0, 1e-6)
    assert refs.check_relative("x", math.nan, 1.0, 1e-6)
    assert refs.check_absolute("x", 0.3 + 5e-8, 0.3, 1e-7) == []
    assert refs.check_absolute("x", 0.3 + 2e-7, 0.3, 1e-7)
    p, n = 0.04, 10_000
    sigma = math.sqrt(p * (1 - p) / n)
    assert refs.check_within_sigma("x", p + 4.9 * sigma, p, n, 5) == []
    assert refs.check_within_sigma("x", p - 5.1 * sigma, p, n, 5)
    # sigma comes from the exact value, so an estimate of 0 is judged by how
    # many events were expected, not by a stderr of 0
    assert refs.check_within_sigma("x", 0.0, 1e-5, 1000, 5) == []
    assert refs.check_within_sigma("x", 0.0, 1e-3, 1_000_000, 5)
    assert refs.check_at_least("x", 0.2, 0.2) == []
    assert refs.check_at_least("x", 0.2 * (1 - 1e-9), 0.2)
    assert refs.check_nondecreasing("x", [0.1, 0.09, 0.3], [0.01] * 3) == []
    assert refs.check_nondecreasing("x", [0.1, 0.01, 0.3], [0.01] * 3)
