"""Exact master-equation machinery for small Hilbert spaces.

Builds error and recovery generators as structured superoperators, integrates
rho(t) with an adaptive Runge-Kutta method, constructs recovery channels from
the Knill-Laflamme data by polar decomposition, and evaluates the recovery
infidelity and distinguishability loss over sampled logical initial states.

Vectorization convention is row-major throughout: vec(A rho B) corresponds to
kron(A, B.T) acting on rho.reshape(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np
from scipy.integrate import solve_ivp

from .bounds import _require_finite, readout_times
from .paulis import PauliOperator, StabilizerCode

__all__ = [
    "Superoperator",
    "KrausChannel",
    "TruncatedOscillator",
    "pauli_matrix",
    "codespace_basis",
    "build_lindbladian",
    "recovery_lindbladian",
    "stabilizer_recovery",
    "kl_matrix",
    "build_recovery",
    "binomial_codewords",
    "cardinal_directions",
    "fibonacci_directions",
    "default_directions",
    "logical_states",
    "epsilon_exact",
    "delta_exact",
]

KL_TOL = 1e-9
D_ALPHA_CUTOFF = 1e-10  # relative to the largest eigenvalue
INTEGRATOR_RTOL = 1e-8
INTEGRATOR_ATOL = 1e-10

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense matrix with qubit 0 as the leftmost tensor factor."""
    m = np.ones((1, 1), dtype=complex)
    for q in range(p.n):
        m = np.kron(m, _PAULI_1Q[p.letter(q)])
    return p.phase * m


# -- structured superoperators -----------------------------------------------


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Lindblad generator on dim x dim matrices:

        sum_mu rate_mu (E_mu rho E_mu^dag - 1/2 {E_mu^dag E_mu, rho})
        + sum_c kappa_c (R_c(rho) - rho)

    jumps holds (E, rate) pairs and recoveries (KrausChannel, kappa) pairs.
    apply is batched over leading axes; to_dense is the row-major matrix.
    """

    dim: int
    jumps: tuple = ()
    recoveries: tuple = ()
    decay: np.ndarray = field(init=False, repr=False)  # sum_mu rate_mu E_mu^dag E_mu

    def __post_init__(self):
        jumps = tuple((np.asarray(op, dtype=complex), float(r)) for op, r in self.jumps)
        recoveries = tuple((ch, float(k)) for ch, k in self.recoveries)
        _require_finite("rates", [r for _, r in jumps])
        _require_finite("kappa", [k for _, k in recoveries])
        if any(op.shape != (self.dim, self.dim) for op, _ in jumps):
            raise ValueError("jump operators must share a square dimension")
        if any(ch.dim != self.dim for ch, _ in recoveries):
            raise ValueError("dimension mismatch")
        decay = sum((r * op.conj().T @ op for op, r in jumps),
                    np.zeros((self.dim, self.dim), dtype=complex))
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "recoveries", recoveries)
        object.__setattr__(self, "decay", decay)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -0.5 * (self.decay @ rho + rho @ self.decay)
        for op, r in self.jumps:
            out += r * (op @ rho @ op.conj().T)
        for channel, kappa in self.recoveries:
            out += kappa * (channel.apply(rho) - rho)
        return out

    def to_dense(self) -> np.ndarray:
        eye = np.eye(self.dim)
        out = -0.5 * (np.kron(self.decay, eye) + np.kron(eye, self.decay.T))
        for op, r in self.jumps:
            out += r * np.kron(op, op.conj())
        for channel, kappa in self.recoveries:
            out += kappa * (channel.to_dense() - np.eye(self.dim ** 2))
        return out

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.jumps + other.jumps,
                             self.recoveries + other.recoveries)


def build_lindbladian(jumps) -> Superoperator:
    """Error generator sum_mu rate_mu (E rho E^dag - 1/2 {E^dag E, rho})."""
    if not jumps:
        raise ValueError("at least one jump required")
    return Superoperator(np.asarray(jumps[0][0]).shape[0], tuple(jumps))


def recovery_lindbladian(channel: "KrausChannel", kappa: float) -> Superoperator:
    """Recovery generator kappa (R - identity)."""
    return Superoperator(channel.dim, recoveries=((channel, kappa),))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus map plus an optional undecidable-subspace completion.

    apply(rho) = sum_a K_a rho K_a^dag + Tr(P_perp rho) sigma.  The completion
    pair (p_perp, sigma) accounts for any completeness defect of the Kraus set.
    """

    kraus: tuple
    p_perp: np.ndarray = None
    sigma: np.ndarray = None

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if (self.p_perp is None) != (self.sigma is None):
            raise ValueError("completion needs both p_perp and sigma")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def completeness_defect(self) -> float:
        total = sum(k.conj().T @ k for k in self.kraus)
        if self.p_perp is not None:
            total = total + self.p_perp
        return float(np.abs(total - np.eye(self.dim)).max())

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        if self.p_perp is not None:
            w = np.einsum("ij,...ji->...", self.p_perp, rho)
            out += np.multiply.outer(w, self.sigma)
        return out

    def to_dense(self) -> np.ndarray:
        d = self.dim
        out = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus:
            out += np.kron(k, k.conj())
        if self.p_perp is not None:
            out += np.outer(self.sigma.reshape(-1), self.p_perp.T.reshape(-1))
        return out


def _sector_projector(eye: np.ndarray, checks, bits: int) -> np.ndarray:
    """prod_j (I +- g_j) / 2: the projector onto g_j = (-1)^(bit j) for every dense check."""
    proj = eye
    for j, g in enumerate(checks):
        sign = -1.0 if (bits >> j) & 1 else 1.0
        proj = proj @ (eye + sign * g) / 2
    return proj


def codespace_basis(code: StabilizerCode) -> tuple:
    """Dense codewords (|0>, |1>) of a single-logical stabilizer code.

    |0> is the +1 eigenvector of all generators and of logical Z; |1> = X|0>,
    which fixes the relative phase.
    """
    if code.k != 1:
        raise ValueError("codespace_basis supports exactly one logical qubit")
    checks = [pauli_matrix(g) for g in code.generators + code.logical_z]
    proj = _sector_projector(np.eye(2**code.n, dtype=complex), checks, 0)
    # proj has rank 1; take its dominant column and normalize
    col = proj[:, np.argmax(np.linalg.norm(proj, axis=0))]
    zero = col / np.linalg.norm(col)
    one = pauli_matrix(code.logical_x[0]) @ zero
    return zero, one


def stabilizer_recovery(code: StabilizerCode, decoder) -> KrausChannel:
    """Syndrome-conditioned correction channel A_s = C(s) P(s).

    P(s) projects onto the syndrome-s sector and C(s) is the decoder's
    correction, so the Kraus set resolves the identity exactly.
    """
    gens = [pauli_matrix(g) for g in code.generators]
    eye = np.eye(2**code.n, dtype=complex)
    kraus = []
    for s, corr in enumerate(decoder.corrections(range(1 << len(gens)))):
        kraus.append(pauli_matrix(corr) @ _sector_projector(eye, gens, s))
    return KrausChannel(tuple(kraus))


# -- integration ------------------------------------------------------------------


def _integrate_stack(lind: Superoperator, stack: np.ndarray, times) -> np.ndarray:
    """States (m, D, D) propagated to each time; returns (T, m, D, D)."""
    times = readout_times(times)  # a NaN or infinite time would integrate forever
    stack = np.asarray(stack, dtype=complex)
    shape = stack.shape

    def rhs(_, y):
        return lind.apply(y.reshape(shape)).reshape(-1)

    if times[-1] == 0.0:
        return np.broadcast_to(stack, (len(times),) + shape).copy()
    sol = solve_ivp(rhs, (0.0, times[-1]), stack.reshape(-1), method="DOP853",
                    t_eval=times, rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol.y.T.reshape((len(times),) + shape)


# -- Knill-Laflamme recovery -------------------------------------------------------


def kl_matrix(codewords, errors) -> tuple:
    """(C, satisfied): C_{mu nu} = <w|K_mu^dag K_nu|w>, codeword-independent.

    satisfied is true iff every block W^dag K_mu^dag K_nu W equals C_{mu nu} I
    on the codespace within tolerance.
    """
    w = np.column_stack([np.asarray(c, dtype=complex).ravel() for c in codewords])
    gram = w.conj().T @ w
    if np.abs(gram - np.eye(w.shape[1])).max() > 1e-9:
        raise ValueError("codewords must be orthonormal")
    q = w.shape[1]
    m = len(errors)
    kw = [np.asarray(k, dtype=complex) @ w for k in errors]
    c = np.zeros((m, m), dtype=complex)
    satisfied = True
    eye = np.eye(q)
    for i in range(m):
        for j in range(m):
            block = kw[i].conj().T @ kw[j]
            c[i, j] = np.trace(block) / q
            if np.abs(block - c[i, j] * eye).max() > KL_TOL:
                satisfied = False
    return c, satisfied


def build_recovery(codewords, errors) -> KrausChannel:
    """Recovery channel from the Knill-Laflamme data.

    Diagonalize C = u Chat u^dag, form F_alpha = sum_nu conj(u_{nu alpha}) K_nu,
    keep R_alpha = P U_alpha^dag for eigenvalues above the relative cutoff, and
    complete with rho -> Tr(P_perp rho) P/q on the undecidable subspace.
    """
    c, _ = kl_matrix(codewords, errors)
    c = (c + c.conj().T) / 2
    d_alpha, u = np.linalg.eigh(c)
    if d_alpha.min() < -1e-9 * max(d_alpha.max(), 1.0):
        raise ValueError("Knill-Laflamme matrix is not positive semidefinite")
    w = np.column_stack([np.asarray(cw, dtype=complex).ravel() for cw in codewords])
    dim, q = w.shape
    cutoff = D_ALPHA_CUTOFF * d_alpha.max()
    kraus = []
    decided = []  # orthonormal basis of the recoverable subspace
    errs = [np.asarray(k, dtype=complex) for k in errors]
    for a in range(len(errs)):
        if d_alpha[a] <= cutoff:
            continue
        f = sum(u[nu, a] * errs[nu] for nu in range(len(errs)))
        wa = (f @ w) / sqrt(d_alpha[a])  # columns |w_i^alpha>
        kraus.append(w @ wa.conj().T)  # R_alpha = sum_i |w_i><w_i^alpha|
        decided.append(wa)
    span = np.column_stack(decided) if decided else np.zeros((dim, 0))
    p_perp = np.eye(dim) - span @ span.conj().T
    sigma = (w @ w.conj().T) / q
    chan = KrausChannel(tuple(kraus), p_perp=p_perp, sigma=sigma)
    if chan.completeness_defect() > 1e-8:
        raise ValueError("recovery Kraus set fails completeness; "
                         "eigenvectors of C are not isometric on the codespace")
    return chan


def binomial_codewords(ell: int, d_max: int) -> tuple:
    """Binomial codewords with Fock spacing 2*ell+1 in d_max Fock levels.

    |0> holds even binomial indices, |1> odd, amplitudes sqrt(C(2ell+1, p))/2^ell
    at Fock level p*(2ell+1).  d_max must exceed the top codeword level
    (2ell+1)^2; experiments.fig6_cutoff gives the cutoff fig6 uses.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    s = 2 * ell + 1
    if d_max <= s * s:
        raise ValueError(f"cutoff {d_max} too small for top Fock level {s * s}")
    zero = np.zeros(d_max, dtype=complex)
    one = np.zeros(d_max, dtype=complex)
    for p in range(s + 1):
        amp = sqrt(comb(s, p)) / 2**ell
        (zero if p % 2 == 0 else one)[p * s] = amp
    return zero, one


@dataclass(frozen=True, eq=False)
class TruncatedOscillator:
    """Fock-space ladder operators at cutoff d_max."""

    d_max: int
    a: np.ndarray = field(init=False)
    adag: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.d_max < 2:
            raise ValueError("cutoff must be at least 2")
        root = np.sqrt(np.arange(1, self.d_max, dtype=float))
        object.__setattr__(self, "a", np.diag(root, k=1).astype(complex))
        object.__setattr__(self, "adag", np.diag(root, k=-1).astype(complex))

    @property
    def number(self) -> np.ndarray:
        return self.adag @ self.a


# -- logical-state samplers and the epsilon / delta evaluators ---------------------


def cardinal_directions() -> np.ndarray:
    """The six Bloch axes +-x, +-y, +-z."""
    return np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                     [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)


def fibonacci_directions(n: int = 32) -> np.ndarray:
    """Deterministic Fibonacci sphere grid: z_i = 1 - (2i+1)/n, golden-angle phi."""
    i = np.arange(n)
    z = 1.0 - (2 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    r = np.sqrt(np.clip(1 - z * z, 0, None))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def default_directions(n_fib: int = 32) -> np.ndarray:
    return np.vstack([cardinal_directions(), fibonacci_directions(n_fib)])


def logical_states(codewords, directions) -> np.ndarray:
    """Pure logical states cos(t/2)|0> + e^{i phi} sin(t/2)|1> for Bloch directions."""
    zero, one = (np.asarray(c, dtype=complex).ravel() for c in codewords)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    x, y, z = directions.T
    theta = np.arccos(np.clip(z, -1, 1))
    phi = np.arctan2(y, x)
    amp0 = np.cos(theta / 2)
    amp1 = np.exp(1j * phi) * np.sin(theta / 2)
    return amp0[:, None] * zero[None, :] + amp1[:, None] * one[None, :]


def _recovered_outputs(lind, recovery, codewords, times, directions):
    states = logical_states(codewords, directions)
    stack = np.einsum("mi,mj->mij", states, states.conj())
    evolved = _integrate_stack(lind, stack, times)
    return states, recovery.apply(evolved)


def epsilon_exact(lind: Superoperator, recovery: KrausChannel, codewords, times,
                  directions=None) -> np.ndarray:
    """Worst-case recovery infidelity over the sampled logical states.

    epsilon(t) = 1 - min over sampled pure states of <psi| R(rho_psi(t)) |psi>.
    The default sampler is the 6 cardinal states plus a 32-point Fibonacci grid.
    times must be nonempty, finite, nonnegative and nondecreasing.

    At t = 0 nothing is integrated, and epsilon(0) = 1 - <psi|R(rho_psi)|psi>
    is the recovery's own round-off: -2.63e-13 for build_recovery's binomial
    ell = 2 channel at cutoff 35 (the first row of fig6_eps_l2_d0.0005.csv).
    """
    if directions is None:
        directions = default_directions()
    states, recovered = _recovered_outputs(lind, recovery, codewords, times, directions)
    fid = np.einsum("mi,tmij,mj->tm", states.conj(), recovered, states).real
    return 1.0 - fid.min(axis=1)


def delta_exact(lind: Superoperator, recovery: KrausChannel, codewords, times,
                directions=None) -> np.ndarray:
    """Worst-case distinguishability loss over sampled antipodal pairs.

    delta(t) = 1 - min over pairs of the trace distance between the recovered
    evolutions of two initially orthogonal logical states.
    """
    if directions is None:
        directions = default_directions()
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    both = np.vstack([directions, -directions])
    _, recovered = _recovered_outputs(lind, recovery, codewords, times, both)
    m = len(directions)
    diff = recovered[:, :m] - recovered[:, m:]
    dist = np.abs(np.linalg.eigvalsh(diff)).sum(axis=2) / 2
    return 1.0 - dist.min(axis=1)
