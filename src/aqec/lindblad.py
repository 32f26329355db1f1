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

from .paulis import PauliOperator, StabilizerCode

__all__ = [
    "DensityMatrix",
    "Superoperator",
    "KrausChannel",
    "TruncatedOscillator",
    "pauli_matrix",
    "codespace_basis",
    "build_lindbladian",
    "recovery_lindbladian",
    "stabilizer_recovery",
    "evolve",
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

TRACE_TOL = 1e-9
PSD_TOL = 1e-9
EVOLVE_TRACE_TOL = 1e-8
EVOLVE_PSD_TOL = 1e-7
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix."""

    matrix: np.ndarray
    trace_tol: float = TRACE_TOL
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(m - m.conj().T).max() > 10 * self.trace_tol:
            raise ValueError("density matrix must be Hermitian")
        drift = abs(np.trace(m).real - 1.0)
        if drift > self.trace_tol:
            raise ValueError(f"trace drift {drift:.2e} exceeds {self.trace_tol:.0e}")
        low = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
        if low < -self.psd_tol:
            raise ValueError(f"negative eigenvalue {low:.2e} below -{self.psd_tol:.0e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# -- structured superoperators -----------------------------------------------


class _JumpTerm:
    """sum_mu rate_mu (E rho E^dag - 1/2 {E^dag E, rho})."""

    def __init__(self, jumps):
        self.ops = [np.asarray(op, dtype=complex) for op, _ in jumps]
        self.rates = [float(r) for _, r in jumps]
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be nonnegative")
        d = self.ops[0].shape[0]
        for op in self.ops:
            if op.shape != (d, d):
                raise ValueError("jump operators must share a square dimension")
        self.dim = d
        self.m = sum(r * op.conj().T @ op for op, r in zip(self.ops, self.rates))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -0.5 * (self.m @ rho + rho @ self.m)
        for op, r in zip(self.ops, self.rates):
            out += r * (op @ rho @ op.conj().T)
        return out

    def dense(self) -> np.ndarray:
        d = self.dim
        eye = np.eye(d)
        out = -0.5 * (np.kron(self.m, eye) + np.kron(eye, self.m.T))
        for op, r in zip(self.ops, self.rates):
            out += r * np.kron(op, op.conj())
        return out


class _ChannelTerm:
    """kappa (R(rho) - rho) for a Kraus channel R."""

    def __init__(self, channel: "KrausChannel", kappa: float):
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")
        self.channel = channel
        self.kappa = float(kappa)
        self.dim = channel.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.kappa * (self.channel.apply(rho) - rho)

    def dense(self) -> np.ndarray:
        d = self.dim
        return self.kappa * (self.channel.to_dense() - np.eye(d * d))


@dataclass(frozen=True)
class Superoperator:
    """Structured Lindblad generator: a sum of jump and recovery terms.

    apply is batched over leading axes.  A recovery channel enters only as
    the generator kappa (R - identity); the channel itself is a KrausChannel.
    """

    dim: int
    terms: tuple

    def __post_init__(self):
        for t in self.terms:
            if t.dim != self.dim:
                raise ValueError("term dimension mismatch")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for t in self.terms:
            out += t.apply(rho)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim**2, self.dim**2), dtype=complex)
        for t in self.terms:
            out += t.dense()
        return out

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.terms + other.terms)


def build_lindbladian(jumps) -> Superoperator:
    """Error generator sum_mu rate_mu (E rho E^dag - 1/2 {E^dag E, rho})."""
    if not jumps:
        raise ValueError("at least one jump required")
    term = _JumpTerm(jumps)
    return Superoperator(term.dim, (term,))


def recovery_lindbladian(channel: "KrausChannel", kappa: float) -> Superoperator:
    """Recovery generator kappa (R - identity)."""
    term = _ChannelTerm(channel, kappa)
    return Superoperator(term.dim, (term,))


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
            out += np.multiply.outer(w, self.sigma) if rho.ndim > 2 else w * self.sigma
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
    for s in range(1 << len(gens)):
        corr = pauli_matrix(decoder.correction(s))
        kraus.append(corr @ _sector_projector(eye, gens, s))
    return KrausChannel(tuple(kraus))


# -- integration ------------------------------------------------------------------


def _integrate_stack(lind: Superoperator, stack: np.ndarray, times) -> np.ndarray:
    """States (m, D, D) propagated to each time; returns (T, m, D, D)."""
    times = np.asarray(times, dtype=float)
    # a NaN or infinite time would integrate forever
    if not np.all(np.isfinite(times) & (times >= 0)) or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
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


def evolve(lind: Superoperator, rho0, t: float) -> DensityMatrix:
    """rho(t) under the generator, with trace and positivity guards."""
    m0 = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    DensityMatrix(m0)  # validate the input
    out = _integrate_stack(lind, m0[None], [float(t)])[0, 0]
    try:
        return DensityMatrix(out, trace_tol=EVOLVE_TRACE_TOL, psd_tol=EVOLVE_PSD_TOL)
    except ValueError as e:
        raise RuntimeError(f"integrator output violates state invariants: {e}")


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


def binomial_codewords(ell: int, d_max: int = None) -> tuple:
    """Binomial codewords with Fock spacing 2*ell+1.

    |0> holds even binomial indices, |1> odd, amplitudes sqrt(C(2ell+1, p))/2^ell
    at Fock level p*(2ell+1).  Default cutoff (2ell+1)^2 + 4*(2ell+1) leaves
    room for gain errors above the top codeword level.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    s = 2 * ell + 1
    if d_max is None:
        d_max = s * s + 4 * s
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
