"""Reference computations and checks for the benchmark, made apart from aqec.

Nothing here imports aqec.  Each reference recomputes a quantity by another
method than the program's: the run-length violation probability by a
50-digit matrix exponential of its Markov chain, the absorbing-walk recurrence
by the ratio sweep, the five-qubit infidelity by a dense matrix exponential
of a generator assembled here, minimum-weight matching by networkx blossom on
distances computed here, and the closed-form bounds from their formulas.
Each ``check_*`` function returns a list of failure messages, empty when the
value passes.
"""

from __future__ import annotations

import math
from functools import reduce

import mpmath
import networkx as nx
import numpy as np
import scipy.linalg

MP_DIGITS = 50


# -- run-length violation chain ------------------------------------------------


def violation_probability(ell: int, kappa: float, n_delta: float, t: float) -> float:
    """p(t) of a run of more than ell consecutive errors, from the chain.

    States 0..ell hold the current run length since the last recovery and
    state ell+1 is the absorbing violation.  Errors arrive at rate N*Delta
    (k -> k+1), recoveries at rate kappa (k -> 0).  p(t) is the (0, ell+1)
    entry of exp(Q t), evaluated with mpmath at MP_DIGITS digits.
    """
    if ell < 0 or kappa < 0 or n_delta < 0 or t < 0:
        raise ValueError("ell, rates and t must be nonnegative")
    with mpmath.workdps(MP_DIGITS):
        size = ell + 2
        q = mpmath.zeros(size, size)
        for k in range(ell + 1):
            q[k, k + 1] += n_delta
            q[k, k] -= n_delta
            if k:
                q[k, 0] += kappa
                q[k, k] -= kappa
        return float(mpmath.expm(q * mpmath.mpf(t))[0, size - 1])


def f_ell(ell: int, z: float) -> float:
    """Growth profile z P(ell, z) - ell P(ell+1, z) of Theorems 1 and 4."""
    with mpmath.workdps(MP_DIGITS):
        p = lambda a: mpmath.gammainc(a, 0, z, regularized=True)  # noqa: E731
        return float(z * p(ell) - ell * p(ell + 1))


def theorem2(h: int, xi: float, kappa: float, n_delta: float, t: float) -> float:
    gamma = kappa + n_delta
    rate = (1 - xi) * n_delta * (n_delta / gamma) ** h + xi * gamma
    return -math.expm1(-rate * t)


def theorem3(s1: float, xi: float, kappa: float, n_delta: float, t: float) -> float:
    rate = (1 - xi) * n_delta * s1 + xi * (kappa + n_delta)
    return -math.expm1(-rate * t)


def theorem4(ell: int, kappa: float, n_delta: float, t: float) -> float:
    return f_ell(ell, (kappa + n_delta) * t) / (1 + kappa / n_delta) ** (ell + 1)


def p_asymptotic(ell: int, kappa: float, n_delta: float, t: float) -> float:
    rate = kappa / (1 + kappa / n_delta) ** (ell + 1)
    return -math.expm1(-rate * t)


# -- absorbing-walk recurrence -------------------------------------------------


def recurrence_log_s1(h: int, n: int, p1: float) -> float:
    """log s_1 of s_v = (v/n) p1 s_{v-1} + (1 - v/n) p1 s_{v+1}, s_0 = 0, s_{h+1} = 1.

    Ratio form: q_v = s_v / s_{v+1} obeys q_v = b_v / (1 - a_v q_{v-1}) with
    a_v = (v/n) p1, b_v = (1 - v/n) p1 and q_0 = 0, so log s_1 = sum log q_v.
    Every term is positive, so the sweep has no cancellation.
    """
    if not 0 <= h < n or not 0 < p1 <= 1:
        raise ValueError("need 0 <= h < n and 0 < p1 <= 1")
    q = 0.0
    log_s1 = 0.0
    for v in range(1, h + 1):
        q = (1 - v / n) * p1 / (1 - (v / n) * p1 * q)
        log_s1 += math.log(q)
    return log_s1


def recurrence_slope_limit(x: float) -> float:
    """Large-N slope of ln(s_1 / p1^h) in kappa/Delta at h = x N."""
    return -0.5 * (math.log(1 / (1 - 2 * x)) - 2 * x)


def leading_exponent(x, y) -> float:
    """m of ln y = c + m ln x + b x, by least squares (exact on three points)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    design = np.column_stack([np.ones_like(x), np.log(x), x])
    (_, m, _), *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
    return float(m)


# -- five-qubit code under depolarizing jumps ------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def pauli_string(letters: str) -> np.ndarray:
    return reduce(np.kron, (_PAULI[c] for c in letters))


def bloch_directions(n_fib: int = 32) -> np.ndarray:
    """The six cardinal axes, then the n_fib-point Fibonacci sphere grid."""
    cardinal = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    i = np.arange(n_fib)
    z = 1.0 - (2 * i + 1.0) / n_fib
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1 - z * z)
    return np.vstack([cardinal, np.column_stack([r * np.cos(phi), r * np.sin(phi), z])])


def five_qubit_epsilon(kappa: float, delta: float, times, step: float) -> np.ndarray:
    """Worst recovery infidelity over the Bloch grid, by dense matrix exponential.

    Assembles the 1024 x 1024 generator of 15 single-qubit Pauli jumps at rate
    delta plus kappa (R - 1), where R projects onto each syndrome sector and
    applies the unique weight-one Pauli with that syndrome, then propagates
    with exp(L step).  Every time must be a multiple of step.
    """
    n = 5
    dim = 2 ** n
    eye = np.eye(dim, dtype=complex)
    stabilizers = [pauli_string(s) for s in FIVE_QUBIT_STABILIZERS]
    singles = [("I" * q + a + "I" * (n - q - 1)) for q in range(n) for a in "XYZ"]

    def syndrome(letters):
        # single-qubit Paulis anticommute unless equal or one is the identity
        return tuple(sum(a != b and "I" not in (a, b) for a, b in zip(letters, s)) % 2
                     for s in FIVE_QUBIT_STABILIZERS)

    correction = {syndrome("I" * n): eye}
    for letters in singles:
        correction[syndrome(letters)] = pauli_string(letters)
    if len(correction) != 16:
        raise AssertionError("five-qubit code is perfect: 16 distinct syndromes")

    def superop(a):
        # vec(A rho A^dag) = kron(A, conj(A)) vec(rho), row-major
        return np.kron(a, a.conj())

    recovery = np.zeros((dim * dim, dim * dim), dtype=complex)
    for bits, corr in correction.items():
        proj = eye
        for g, bit in zip(stabilizers, bits):
            proj = proj @ (eye + (-1) ** bit * g) / 2
        recovery += superop(corr @ proj)
    ident = np.eye(dim * dim)
    gen = kappa * (recovery - ident)
    for letters in singles:
        gen += delta * (superop(pauli_string(letters)) - ident)

    proj0 = eye
    for g in stabilizers + [pauli_string("Z" * n)]:
        proj0 = proj0 @ (eye + g) / 2
    zero = proj0[:, np.argmax(np.linalg.norm(proj0, axis=0))]
    zero = zero / np.linalg.norm(zero)
    one = pauli_string("X" * n) @ zero
    d = bloch_directions()
    theta = np.arccos(np.clip(d[:, 2], -1, 1))
    phi = np.arctan2(d[:, 1], d[:, 0])
    states = (np.cos(theta / 2)[:, None] * zero[None, :]
              + (np.exp(1j * phi) * np.sin(theta / 2))[:, None] * one[None, :])
    vecs = np.stack([np.outer(s, s.conj()).reshape(-1) for s in states], axis=1)

    prop = scipy.linalg.expm(gen * step)
    out = []
    reached = 0
    for t in times:
        steps = round(t / step)
        if abs(steps * step - t) > 1e-12 * max(t, 1.0):
            raise ValueError(f"time {t} is not a multiple of {step}")
        for _ in range(steps - reached):
            vecs = prop @ vecs
        reached = steps
        recovered = recovery @ vecs
        fid = [np.vdot(s, recovered[:, m].reshape(dim, dim) @ s).real
               for m, s in enumerate(states)]
        out.append(1.0 - min(fid))
    return np.array(out)


# -- toric code matching ---------------------------------------------------------


def toric_star_defects(generator_masks, side: int, x_bits: int) -> list:
    """Vertices whose star anticommutes with an X frame.

    generator_masks holds the z masks of the L^2 - 1 star generators, in
    row-major vertex order with the last vertex dropped; that vertex is
    restored by parity.
    """
    defects = [a for a, mask in enumerate(generator_masks) if (mask & x_bits).bit_count() & 1]
    if len(defects) & 1:
        defects.append(side * side - 1)
    return defects


def toroidal_distance(side: int, a: int, b: int) -> int:
    (r1, c1), (r2, c2) = divmod(a, side), divmod(b, side)
    dr, dc = abs(r1 - r2), abs(c1 - c2)
    return min(dr, side - dr) + min(dc, side - dc)


def min_matching_cost(side: int, defects) -> int:
    """Minimum total toroidal distance over perfect matchings, by networkx blossom."""
    if not defects:
        return 0
    g = nx.Graph()
    for i, a in enumerate(defects):
        for b in defects[i + 1:]:
            g.add_edge(a, b, weight=toroidal_distance(side, a, b))
    matching = nx.min_weight_matching(g)
    return sum(toroidal_distance(side, a, b) for a, b in matching)


# -- checks ----------------------------------------------------------------------


def check_relative(name: str, got: float, want: float, rtol: float) -> list:
    got, want = float(got), float(want)
    if not math.isfinite(got) or abs(got - want) > rtol * abs(want):
        rel = abs(got - want) / abs(want) if want else math.inf
        return [f"{name}: {got!r} vs reference {want!r} (relative error {rel:.3g} > {rtol:g})"]
    return []


def check_absolute(name: str, got: float, want: float, atol: float) -> list:
    got, want = float(got), float(want)
    if not math.isfinite(got) or abs(got - want) > atol:
        return [f"{name}: {got!r} vs reference {want!r} (difference {abs(got - want):.3g} > {atol:g})"]
    return []


def check_within_sigma(name: str, estimate: float, exact: float, n: int, k: float) -> list:
    """|estimate - exact| <= k sigma, with sigma from the exact value, not the estimate."""
    estimate, exact = float(estimate), float(exact)
    sigma = math.sqrt(exact * (1 - exact) / n)
    if not abs(estimate - exact) <= k * sigma:
        return [f"{name}: estimate {estimate!r} vs exact {exact!r}, "
                f"{abs(estimate - exact) / sigma if sigma else math.inf:.2f} sigma > {k:g}"]
    return []


def check_at_least(name: str, bound: float, value: float, rtol: float = 1e-12) -> list:
    bound, value = float(bound), float(value)
    if not bound >= value * (1 - rtol):
        return [f"{name}: bound {bound!r} below reference {value!r}"]
    return []


def check_nondecreasing(name: str, values, sigmas, k: float = 4.0) -> list:
    values = np.asarray(values, float)
    sigmas = np.asarray(sigmas, float)
    drops = np.diff(values) + k * (sigmas[1:] + sigmas[:-1])
    bad = np.nonzero(drops < 0)[0]
    return [f"{name}: drops from {values[i]!r} to {values[i + 1]!r} beyond {k:g} sigma"
            for i in bad]


def check_toric_decode(side: int, star_masks, plaquette_masks, x_bits: int, correction) -> list:
    """Checks on the correction (x, z) of an X frame.

    star_masks and plaquette_masks are the generators' z and x masks.  The
    residual syndrome must be zero, the correction no heavier than the frame
    and free of Z.  With at most 12 star defects, its weight must equal the
    minimum matching cost: an edge set with the defects as boundary is never
    lighter than that cost, and the union of the matched paths is never
    heavier.
    """
    cx, cz = correction
    residual = x_bits ^ cx
    errors = []
    if any((m & residual).bit_count() & 1 for m in star_masks) \
            or any((m & cz).bit_count() & 1 for m in plaquette_masks):
        errors.append(f"frame {x_bits:#x}: residual syndrome is not zero")
    if cz:
        errors.append(f"frame {x_bits:#x}: Z correction for an X frame")
    if cx.bit_count() > x_bits.bit_count():
        errors.append(f"frame {x_bits:#x}: correction heavier than the frame")
    defects = toric_star_defects(star_masks, side, x_bits)
    if len(defects) <= 12:
        cost = min_matching_cost(side, defects)
        if cx.bit_count() != cost:
            errors.append(f"frame {x_bits:#x}: correction weight {cx.bit_count()} "
                          f"!= minimum matching cost {cost}")
    return errors
