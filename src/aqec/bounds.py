"""Closed-form evaluators for the analytic error-rate results.

Covers the generic decoder bound and its soft-threshold scan, the tolerable-
weight bound, the absorbing-walk recurrence, its large-N slope and its bound,
the early-time bound, the flip-probability lower bound, the effective
late-time rates, the run-length violation probability (asymptote, and the
exact value: a Poisson-weighted sum over the first-run table), and the
perturbative dephasing shift for ring and torus recoveries with a brute-force
enumeration oracle.  The first-run table and its size rule also serve the
run-length sampler in trajectories.

All evaluators are pure, accept scalar or array time arguments, and raise
ValueError for missing or out-of-domain parameters or times, never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = [
    "BoundInputs",
    "f_ell",
    "theorem1_bound",
    "soft_threshold",
    "SoftThreshold",
    "theorem2_bound",
    "solve_recurrence",
    "RecurrenceSolution",
    "theorem3_bound",
    "theorem4_bound",
    "theorem4_late_slope",
    "theorem5_lower",
    "theorem5_delta_eff",
    "delta_eff",
    "p_asymptotic",
    "p_exact_quadrature",
    "toric_perturbative",
    "toric_1d_trace_oracle",
    "TraceOracleResult",
    "ols_line",
    "leading_exponent",
    "recurrence_slope_limit",
]

FIRST_RUN_CAP = 1 << 24  # most entries of a first-run or Poisson-count table


def _require_count(name: str, v) -> int:
    """v as an int; raises ValueError unless v is a nonnegative integer
    (integral floats such as 15.0 pass; None does not)."""
    if v is None or not (v >= 0 and float(v).is_integer()):  # a NaN fails the comparison
        raise ValueError(f"{name} must be a nonnegative integer, got {v}")
    return int(v)


def _require_finite(name: str, v) -> np.ndarray:
    """v as a float array; raises ValueError unless v, a number or an array,
    is finite and nonnegative throughout.  None reads as NaN."""
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0) & (v < math.inf)):  # a NaN fails both comparisons
        raise ValueError(f"{name} must be finite and nonnegative")
    return v


def readout_times(times) -> np.ndarray:
    """times as a float array; raises unless nonempty, finite, nondecreasing
    and nonnegative.  The frame estimators and lindblad's integrator share it."""
    times = np.asarray(times, dtype=float)
    # phrased so that a NaN fails the comparisons
    if not (len(times) and np.all(np.diff(times) >= 0) and 0 <= times[0] <= times[-1] < math.inf):
        raise ValueError("times must be finite, nondecreasing and nonnegative")
    return times


@dataclass(frozen=True)
class BoundInputs:
    """Shared parameter bag; each evaluator validates the fields it needs.

    ell: error radius; h: tolerable error weight; xi: tolerable-weight
    failure probability; chi: bound prefactor; kappa: recovery rate; delta:
    per-channel error rate; n_channels: N; l_e_norm: the induced
    error-generator norm; r0: soft-threshold scale.  A given field must be
    finite and nonnegative, and an integer if it is one of COUNT_FIELDS.
    """

    COUNT_FIELDS = ("ell", "h", "n_channels")

    ell: int = None
    h: int = None
    xi: float = None
    chi: float = None
    kappa: float = None
    delta: float = None
    n_channels: int = None
    l_e_norm: float = None
    r0: float = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                check = _require_count if f.name in self.COUNT_FIELDS else _require_finite
                check(f.name, v)
        if self.xi is not None and self.xi > 1:
            raise ValueError("xi must lie in [0, 1]")
        if self.h is not None and self.ell is not None and self.h < self.ell:
            raise ValueError("h must be at least ell")

    def require(self, *names) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing required inputs: {', '.join(missing)}")

    @property
    def total_rate(self) -> float:
        return self.n_channels * self.delta


def f_ell(ell: int, z):
    """Growth profile z g(ell, z) - ell g(ell+1, z), g the regularized
    lower incomplete gamma function.  Satisfies 0 <= F_ell(z) <= z."""
    if _require_count("ell", ell) < 1:
        raise ValueError("ell must be a positive integer")
    z = _require_finite("z", z)
    out = z * gammainc(ell, z) - ell * gammainc(ell + 1, z)
    return out if out.ndim else float(out)


def theorem1_bound(inputs: BoundInputs, t):
    """Generic decoder bound: eta^(ell+1) F_ell(kappa t) / (chi + 1)."""
    inputs.require("ell", "chi", "kappa", "delta", "l_e_norm")
    if inputs.kappa <= 0:
        raise ValueError("kappa must be positive")
    eta = (inputs.chi + 1) * inputs.delta * inputs.l_e_norm / inputs.kappa
    z = inputs.kappa * _require_finite("t", t)
    return eta ** (inputs.ell + 1) * f_ell(inputs.ell, z) / (inputs.chi + 1)


@dataclass(frozen=True)
class SoftThreshold:
    """Integer-scan minimum of the late-time rate, with the continuous
    prediction r0/(e r) reported alongside."""

    ell_min: int
    gamma_min: float
    ell_predicted: float

    def __iter__(self):
        return iter((self.ell_min, self.gamma_min, self.ell_predicted))


def soft_threshold(inputs: BoundInputs) -> SoftThreshold:
    """Minimize the late-time rate kappa (ell r / r0)^(ell+1) over integer ell.

    r = delta / kappa.  The continuous minimizer is ell = r0 / (e r) and the
    minimal rate is O(kappa exp(-r0 / r)).  The log-rate (ell + 1) ln(ell r / r0)
    is convex in ell >= 1 and its integer argmin lies within two of r0 / (e r),
    so only the integers from floor(r0 / (e r)) - 2 to ceil(r0 / (e r)) + 2,
    and none below 1, are compared, in log space: the rates themselves
    underflow or overflow at small r.  Ties keep the smallest ell.
    ``gamma_min`` is the rate at ``ell_min``, 0.0 where it is below the float
    range; a rate above the float range (large delta / kappa) raises
    ``ValueError``.
    """
    inputs.require("kappa", "delta", "r0")
    if inputs.kappa <= 0 or inputs.r0 <= 0:
        raise ValueError("kappa and r0 must be positive")
    r = inputs.delta / inputs.kappa
    if r == 0:
        raise ValueError("delta must be positive for the scan")
    predicted = inputs.r0 / (math.e * r)
    if math.isinf(predicted):
        raise ValueError("delta / kappa is too small for the scan")
    lo = max(1, math.floor(predicted) - 2)
    ell = min(range(lo, math.ceil(predicted) + 3),
              key=lambda ell: (ell + 1) * math.log(ell * r / inputs.r0))
    try:
        gamma = inputs.kappa * (ell * r / inputs.r0) ** (ell + 1)
    except OverflowError:
        gamma = math.inf
    if math.isinf(gamma):
        raise ValueError("the minimal rate kappa (ell r / r0)^(ell+1) is past the float range")
    return SoftThreshold(ell_min=ell, gamma_min=gamma, ell_predicted=predicted)


def theorem2_bound(inputs: BoundInputs, t):
    """Tolerable-weight bound:
    1 - exp(-(1-xi) N Delta (N Delta / (kappa + N Delta))^h t - xi (kappa + N Delta) t).
    """
    inputs.require("xi", "h", "kappa", "delta", "n_channels")
    t = _require_finite("t", t)
    nd = inputs.total_rate
    gamma = inputs.kappa + nd
    surv = (nd / gamma) ** inputs.h if gamma > 0 else 0.0
    rate = (1 - inputs.xi) * nd * surv + inputs.xi * gamma
    out = -np.expm1(-rate * t)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RecurrenceSolution:
    """Absorption probabilities s_v normalized to s_{h+1} = 1.

    s underflows to zero for deep levels at large N; log_s carries the
    logarithms, summed from the ratios q_v = s_v / s_{v+1}, which never
    underflow.  log_s1 = log_s[1].
    """

    s: np.ndarray
    log_s: np.ndarray

    @property
    def log_s1(self) -> float:
        return float(self.log_s[1])


def solve_recurrence(h: int, n: int, p1: float) -> RecurrenceSolution:
    """Solve s_v = (v/n) p1 s_{v-1} + (1 - v/n) p1 s_{v+1}, s_0 = 0, s_{h+1} = 1.

    Ratio sweep: q_v = s_v / s_{v+1} obeys q_0 = 0 and
    q_v = (1 - v/n) p1 / (1 - (v/n) p1 q_{v-1}), every term positive and
    q_v <= 1, so there is no cancellation; log s_v = sum_{u >= v} log q_u.
    """
    h, n = _require_count("h", h), _require_count("n", n)
    if h >= n:
        raise ValueError("need 0 <= h < n")
    if not 0 < p1 <= 1:
        raise ValueError("p1 must lie in (0, 1]")
    log_q = []
    q = 0.0
    for v in range(1, h + 1):
        down = (v / n) * p1
        q = (p1 - down) / (1.0 - down * q)
        log_q.append(math.log(q))
    log_s = np.zeros(h + 2)
    log_s[0] = -math.inf
    log_s[1:h + 1] = np.cumsum(log_q[::-1])[::-1]
    with np.errstate(under="ignore"):
        s = np.exp(log_s)
    return RecurrenceSolution(s=s, log_s=log_s)


def theorem3_bound(inputs: BoundInputs, t):
    """Walk bound: 1 - exp(-(1-xi) N Delta s_1 t - xi (kappa + N Delta) t)."""
    inputs.require("xi", "h", "kappa", "delta", "n_channels")
    nd = inputs.total_rate
    gamma = inputs.kappa + nd
    p1 = nd / gamma if gamma > 0 else 0.0
    if p1 == 0.0:
        s1 = 0.0
    else:
        with np.errstate(under="ignore"):
            s1 = math.exp(solve_recurrence(inputs.h, inputs.n_channels, p1).log_s1)
    rate = (1 - inputs.xi) * nd * s1 + inputs.xi * gamma
    out = -np.expm1(-rate * _require_finite("t", t))
    return out if out.ndim else float(out)


def theorem4_bound(inputs: BoundInputs, t):
    """Early-time bound: F_ell((kappa + N Delta) t) / (1 + kappa / N Delta)^(ell+1)."""
    inputs.require("ell", "kappa", "delta", "n_channels")
    t = _require_finite("t", t)
    nd = inputs.total_rate
    if nd == 0:
        out = np.zeros_like(t)
        return out if out.ndim else 0.0
    out = f_ell(inputs.ell, (inputs.kappa + nd) * t) / (1 + inputs.kappa / nd) ** (inputs.ell + 1)
    return out if np.ndim(out) else float(out)


def theorem4_late_slope(inputs: BoundInputs) -> float:
    """Late-time linearized rate N Delta / (1 + kappa / N Delta)^ell."""
    inputs.require("ell", "kappa", "delta", "n_channels")
    nd = inputs.total_rate
    if nd == 0:
        return 0.0
    return nd / (1 + inputs.kappa / nd) ** inputs.ell


def theorem5_delta_eff(a: float, tau_c: float, kappa: float) -> float:
    """-kappa log(1 - a e^(-kappa tau_c)) / (kappa tau_c + log 2)."""
    for name, v in (("a", a), ("tau_c", tau_c), ("kappa", kappa)):
        _require_finite(name, v)
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    if tau_c == 0:
        raise ValueError("tau_c must be positive")
    return -kappa * math.log1p(-a * math.exp(-kappa * tau_c)) / (kappa * tau_c + math.log(2))


def theorem5_lower(a: float, tau_c: float, kappa: float, t):
    """Flip lower bound (1 - exp(-Delta_eff t)) / 2."""
    deff = theorem5_delta_eff(a, tau_c, kappa)
    out = -np.expm1(-deff * _require_finite("t", t)) / 2
    return out if out.ndim else float(out)


def delta_eff(inputs: BoundInputs) -> float:
    """Late-time effective rate kappa / (1 + kappa / N Delta)^(ell+1).

    When h and xi are supplied the tolerable-weight variant is used instead:
    kappa / (1 + kappa / N Delta)^(h+1) + xi.
    """
    inputs.require("kappa", "delta", "n_channels")
    nd = inputs.total_rate
    if inputs.h is not None:
        inputs.require("xi")
        power, extra = inputs.h + 1, inputs.xi
    else:
        inputs.require("ell")
        power, extra = inputs.ell + 1, 0.0
    if nd == 0:
        return extra
    return inputs.kappa / (1 + inputs.kappa / nd) ** power + extra


def p_asymptotic(inputs: BoundInputs, t):
    """Late-time violation probability 1 - exp(-Delta_eff t)."""
    out = -np.expm1(-delta_eff(inputs) * _require_finite("t", t))
    return out if out.ndim else float(out)


def _first_run_cdf(ell: int, p0: float, p1: float, size: int) -> np.ndarray:
    """F[j] = P[M <= ell + 1 + j] for j < size, where label M completes the
    first run of ell + 1 error labels among i.i.d. labels (error with
    probability p1, recovery with p0); the table ends early, after its last
    growing entry, once F stops growing in floating point.

    A run first completes at label m > ell + 1 iff labels m - ell .. m are
    errors, label m - ell - 1 is a recovery and no run completed by label
    m - ell - 2, so F[j] = F[j - 1] + p0 p1^(ell+1) (1 - F[j - ell - 2]),
    with F = 0 before index 0.  The increments never grow, so once one
    rounds away every later one does.
    """
    run = p1 ** (ell + 1)
    step = p0 * run
    f = [run + step * j for j in range(min(ell + 2, size))]  # these read F = 0
    for j in range(len(f), size):
        x = f[j - 1] + step * (1.0 - f[j - ell - 2])
        if x == f[j - 1]:
            break
        f.append(x)
    return np.array(f)


def _first_run_sizes(ell: int, p1: float, lam: float) -> tuple:
    """(n_hi, top) for labels counted by N ~ Poisson(lam).

    Past n_hi labels lies less than the Poisson tail 40 sigma out.  Past
    `blocks` blocks of ell + 1 labels, each a run with probability
    p1^(ell+1), the first run is still to come with probability < 2^-53, so
    the first-run table stops at label top, the earlier of the two.
    """
    run = p1 ** (ell + 1)
    n_hi = math.ceil(max(ell + 1, lam) + 40 * math.sqrt(lam) + 60)
    blocks = 53 * math.log(2) / -math.log1p(-run) if 0 < run < 1 else 1
    return n_hi, min(n_hi, (ell + 1) * math.ceil(min(blocks, n_hi)))


def _require_table_size(size: int, ell: int, p1: float, lam: float) -> None:
    """Raises ValueError for a run-length table of more than FIRST_RUN_CAP entries."""
    if size > FIRST_RUN_CAP:
        raise ValueError(f"the run-length tables for ell = {ell}, p1 = {p1:.3g} and "
                         f"gamma t = {lam:.3g} need {size:.3g} entries, more than "
                         f"{FIRST_RUN_CAP}")


def _poisson_weights(lam: float, counts: np.ndarray) -> np.ndarray:
    """Poisson(lam) probabilities of the counts, for lam > 0."""
    return np.exp(counts * math.log(lam) - lam - gammaln(counts + 1.0))


def p_exact_quadrature(inputs: BoundInputs, t):
    """Exact run-length violation probability p(t) = P[M <= N(t)].

    The labels are independent of the Poisson((kappa + N Delta) t) event
    count N(t), so p(t) = sum_N Pois(N) F[N - ell - 1] over the first-run
    table F, a sum of nonnegative terms, plus F[-1] P[N > end] past the
    table's end; one table, sized for the largest time, serves every time.
    Against a 50-digit evaluation of the run-length chain at
    kappa = N Delta = 1, ell in {2, 6, 10, 20} and t in [0.001, 60], the
    relative error is below 1e-14.  Domain: t must be finite, and a table of
    more than FIRST_RUN_CAP entries raises ValueError, as in the run-length
    sampler (for example ell = 20, kappa = N Delta = 1, t = 1e9).
    """
    inputs.require("ell", "kappa", "delta", "n_channels")
    times = np.atleast_1d(_require_finite("t", t))
    ell = int(inputs.ell)
    nd, gamma = inputs.total_rate, inputs.kappa + inputs.total_rate
    out = np.zeros(times.shape)
    if nd == 0:  # no errors, no violation
        return out if np.ndim(t) else 0.0
    lam, p1 = gamma * times, nd / gamma
    _, top = _first_run_sizes(ell, p1, lam.max())
    _require_table_size(top - ell, ell, p1, lam.max())
    f = _first_run_cdf(ell, inputs.kappa / gamma, p1, top - ell)
    counts = np.arange(ell + 1.0, ell + 1.0 + len(f))
    for i in np.flatnonzero(lam):  # p(0) = 0
        tail = gammainc(counts[-1] + 1, lam[i])  # P[N > counts[-1]]
        # rescaled to sum to P[ell + 1 <= N <= counts[-1]]: rounding ln(lam)
        # gives every weight the same relative error, about N ln(lam) 2^-53
        w = _poisson_weights(lam[i], counts)
        if w.sum() > 0:  # when every weight underflows, the tail term is p
            w *= (gammainc(ell + 1, lam[i]) - tail) / w.sum()
        out[i] = w @ f + f[-1] * tail
    return out if np.ndim(t) else float(out[0])


def ols_line(x, y) -> tuple:
    """Least squares line (slope, intercept); ValueError for fewer than two distinct x."""
    x = np.asarray(x, float)
    if len(np.unique(x)) < 2:
        raise ValueError(f"need at least two distinct x, got {len(np.unique(x))}")
    slope, intercept = np.polyfit(x, np.asarray(y, float), 1)
    return float(slope), float(intercept)


def leading_exponent(x, y) -> tuple:
    """Leading power-law exponent of y(x), fitted with its first correction.

    Fits ln y = c + m ln x + b x: exactly on three distinct x, by least
    squares on more.  Returns (m, c, b).  A plain log-log line is a secant
    whose slope carries the b x term; m is the x -> 0 exponent.  Raises
    ValueError for fewer than three distinct x or for x or y that is not
    positive and finite.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    distinct = len(np.unique(x))
    if distinct < 3:
        raise ValueError(f"need at least three distinct x, got {distinct}")
    if not np.all(np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)):
        raise ValueError("x and y must be positive and finite")
    design = np.column_stack([np.ones_like(x), np.log(x), x])
    (c, m, b), *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
    return float(m), float(c), float(b)


def recurrence_slope_limit(h_fraction: float) -> float:
    """Large-N slope of ln(s_1 / p1^h) in kappa/Delta at h = h_fraction N.

    With p1 = 1 / (1 + (kappa/Delta)/N) and u = v/N, the ratios
    q_v = s_v / s_{v+1} sit at 1 - (1 - p1) / (1 - 2u) to first order in
    1 - p1, so ln(s_1 / p1^h) -> -(kappa/Delta) 2 int_0^x u / (1 - 2u) du
    with x = h_fraction, which is -(kappa/Delta) [ln(1/(1-2x)) - 2x] / 2.
    The integral diverges at x = 1/2, where the sum grows as
    -(kappa/Delta)/4 ln N instead.
    """
    if not 0 <= h_fraction < 0.5:
        raise ValueError("h_fraction must lie in [0, 1/2)")
    return h_fraction + 0.5 * math.log1p(-2 * h_fraction)


def toric_perturbative(side: int, kappa: float, delta: float, dims: str = "2D") -> float:
    """Leading perturbative eigenvalue shift of the dephasing-ring problem.

    1D ring of odd length L: shift = -2 (L! / j!) (delta/kappa)^(j+1) kappa
    with j = (L-1)/2; the 2D torus carries an extra factor L.  The shift is
    real and negative; its magnitude estimates the logical rate.  Even sides
    are rejected in both geometries: at L = 4 in 2D the exact leading
    coefficient is 48, not the formula's 192.  The shift is computed in log
    space; one beyond the float range raises ValueError.
    """
    side = _require_count("side", side)
    _require_finite("kappa", kappa)
    _require_finite("delta", delta)
    if kappa == 0:
        raise ValueError("kappa must be positive")
    if dims not in ("1D", "2D"):
        raise ValueError("dims must be '1D' or '2D'")
    if side % 2 == 0:
        raise ValueError("closed form needs an odd side")
    if delta == 0:
        return 0.0
    j = (side - 1) // 2
    # in log space, as L!/j! and (delta/kappa)^(j+1) overflow floats first
    ln_shift = math.log(2 * (side if dims == "2D" else 1)) + math.lgamma(side + 1) \
        - math.lgamma(j + 1) + (j + 1) * math.log(delta) - j * math.log(kappa)
    if ln_shift > math.log(np.finfo(float).max):
        raise ValueError(f"the toric_perturbative shift at side {side}, kappa {kappa} "
                         f"and delta {delta} is out of the float range")
    return -math.exp(ln_shift)


@dataclass(frozen=True)
class TraceOracleResult:
    """Exact enumeration value vs the closed form, with the per-order sums."""

    value: int
    closed_form: int
    match: bool
    t_values: tuple


def toric_1d_trace_oracle(side: int, order: int) -> TraceOracleResult:
    """Brute-force the order-(j+1) perturbation trace on the dephasing ring.

    Site-label sequences in [0, L)^i flip ring sites; a sequence contributes
    (-1)^w where w = 1 iff the minimal correction of its odd-support set winds
    the ring (support heavier than its complement).  T_i sums the signs; the
    trace is sum_i C(order, i) (-L)^(order-i) T_i, compared against -2 L!/j!.
    """
    if side < 3 or side > 7 or side % 2 == 0:
        raise ValueError("oracle supports odd side in [3, 7]")
    j = (side - 1) // 2
    if order != j + 1:
        raise ValueError(f"oracle is defined at order j+1 = {j + 1}")
    t_values = []
    for i in range(order + 1):
        total = 0
        for seq in product(range(side), repeat=i):
            supp = 0
            for site in seq:
                supp ^= 1 << site
            heavy = 2 * supp.bit_count() > side
            total += -1 if heavy else 1
        t_values.append(total)
    value = sum(math.comb(order, i) * (-side) ** (order - i) * t_values[i]
                for i in range(order + 1))
    closed = -2 * math.factorial(side) // math.factorial(j)
    return TraceOracleResult(value=value, closed_form=closed,
                             match=value == closed, t_values=tuple(t_values))
