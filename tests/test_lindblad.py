import numpy as np
import pytest
from scipy.linalg import expm

from aqec.decoders import MajorityDecoder, build_lookup
from aqec.experiments import binomial_error_set
from aqec.lindblad import (
    KrausChannel,
    TruncatedOscillator,
    _integrate_stack,
    binomial_codewords,
    build_lindbladian,
    build_recovery,
    codespace_basis,
    delta_exact,
    epsilon_exact,
    kl_matrix,
    logical_states,
    pauli_matrix,
    recovery_lindbladian,
    stabilizer_recovery,
)
from aqec.paulis import PauliOperator, five_qubit_code, repetition_code
from aqec.trajectories import NoiseModel, PoissonParams, estimate_epsilon

RNG = np.random.default_rng(1234)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_matrix_matches_kron_oracle():
    table = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
    for _ in range(30):
        n = int(RNG.integers(1, 4))
        letters = "".join(RNG.choice(list("IXYZ")) for _ in range(n))
        p = PauliOperator.from_string(letters)
        want = np.ones((1, 1), dtype=complex)
        for ch in letters:
            want = np.kron(want, table[ch])
        assert np.allclose(pauli_matrix(p), want)


def test_identity_jump_is_zero_generator():
    lind = build_lindbladian([(I2, 1.7)])
    rho = random_density(2)
    assert np.abs(lind.apply(rho)).max() < 1e-14
    assert np.abs(lind.to_dense()).max() < 1e-14


def test_dephasing_coherence_decay():
    # qubit dephasing at rate 1: off-diagonal decays at rate 2
    lind = build_lindbladian([(SZ, 1.0)])
    rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    times = (0.2, 1.0, 2.5)
    for t, rho in zip(times, _integrate_stack(lind, rho0[None], times)[:, 0]):
        assert rho[0, 1] == pytest.approx(0.3 * np.exp(-2 * t), abs=1e-8)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-8)


def test_generator_annihilates_trace_channel_preserves_it():
    lind = build_lindbladian([(SX, 0.4), (SZ + 0.5j * SY, 0.9)])
    chan = KrausChannel((np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex),
                         np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)))
    assert chan.completeness_defect() < 1e-12
    for _ in range(100):
        rho = random_density(2)
        assert abs(np.trace(lind.apply(rho))) < 1e-9
        assert abs(np.trace(chan.apply(rho)) - 1) < 1e-9


def test_epsilon_exact_rejects_bad_times():
    code = repetition_code(3)
    rec = stabilizer_recovery(code, MajorityDecoder(code))
    jumps = [(pauli_matrix(PauliOperator.single(3, q, "X")), 0.2) for q in range(3)]
    lind = build_lindbladian(jumps) + recovery_lindbladian(rec, 1.0)
    words = codespace_basis(code)
    rho0 = random_density(8)
    assert np.array_equal(_integrate_stack(lind, rho0[None], [0.0])[0, 0], rho0)
    # NaN and inf used to integrate without end; empty times leaked an IndexError
    for times in ([-1.0], [np.nan], [np.inf], [0.5, np.nan], [1.0, 0.5], []):
        for exact in (epsilon_exact, delta_exact):
            with pytest.raises(ValueError, match="times must be finite"):
                exact(lind, rec, words, times)


def test_pure_recovery_closed_form():
    # kappa (R - I) alone: rho(t) = e^{-kt} rho0 + (1 - e^{-kt}) R(rho0)
    code = repetition_code(3)
    dec = MajorityDecoder(code)
    rec = stabilizer_recovery(code, dec)
    kappa = 1.3
    lind = recovery_lindbladian(rec, kappa)
    zero, _ = codespace_basis(code)
    err = pauli_matrix(PauliOperator.single(3, 1, "X"))
    rho0 = np.outer(err @ zero, (err @ zero).conj())
    times = (0.3, 1.2)
    for t, got in zip(times, _integrate_stack(lind, rho0[None], times)[:, 0]):
        want = np.exp(-kappa * t) * rho0 + (1 - np.exp(-kappa * t)) * rec.apply(rho0)
        assert np.abs(got - want).max() < 1e-8


def test_evolve_matches_expm_oracle():
    # dims <= 16: dense exponential as the oracle
    ops = [(np.kron(SZ, I2), 0.3), (np.kron(SX, SX), 0.7), (np.kron(I2, SY), 0.2)]
    lind = build_lindbladian(ops)
    dense = lind.to_dense()
    rho0 = random_density(4)
    times = (0.5, 1.7)
    for t, got in zip(times, _integrate_stack(lind, rho0[None], times)[:, 0]):
        want = (expm(dense * t) @ rho0.reshape(-1)).reshape(4, 4)
        assert np.abs(got - want).max() < 1e-7


def test_composed_generator_dense_consistency():
    code = repetition_code(3)
    rec = stabilizer_recovery(code, MajorityDecoder(code))
    jumps = [(pauli_matrix(PauliOperator.single(3, q, "X")), 0.2) for q in range(3)]
    le = build_lindbladian(jumps)
    lr = recovery_lindbladian(rec, 0.9)
    total = le + lr
    assert np.abs(total.to_dense() - le.to_dense() - lr.to_dense()).max() < 1e-12
    rho = random_density(8)
    assert np.abs(total.apply(rho) - le.apply(rho) - lr.apply(rho)).max() < 1e-12


def test_generator_rejects_negative_rates_and_mismatched_dims():
    code = repetition_code(3)
    rec = stabilizer_recovery(code, MajorityDecoder(code))
    with pytest.raises(ValueError, match="rates must be finite and nonnegative"):
        build_lindbladian([(SX, 0.5), (SZ, -0.1)])
    with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
        recovery_lindbladian(rec, -1.0)
    # a NaN or infinite rate used to pass and hang the integrator
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rates must be finite and nonnegative"):
            build_lindbladian([(SX, 0.5), (SZ, bad)])
        with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
            recovery_lindbladian(rec, bad)
    with pytest.raises(ValueError, match="square dimension"):
        build_lindbladian([(SX, 0.5), (np.eye(4), 0.5)])
    with pytest.raises(ValueError, match="at least one jump"):
        build_lindbladian([])
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_lindbladian([(SX, 0.5)]) + recovery_lindbladian(rec, 1.0)


def test_codespace_basis_five_qubit():
    code = five_qubit_code()
    zero, one = codespace_basis(code)
    assert abs(np.linalg.norm(zero) - 1) < 1e-12
    assert abs(np.vdot(zero, one)) < 1e-12
    for g in code.generators:
        gm = pauli_matrix(g)
        assert np.allclose(gm @ zero, zero)
        assert np.allclose(gm @ one, one)
    zl = pauli_matrix(code.logical_z[0])
    assert np.allclose(zl @ zero, zero)
    assert np.allclose(zl @ one, -one)


def test_kl_matrix_cases():
    code = five_qubit_code()
    zero, one = codespace_basis(code)
    c, ok = kl_matrix([zero, one], [np.eye(32, dtype=complex)])
    assert ok and np.allclose(c, [[1.0]])
    errors = [np.eye(32, dtype=complex)] + [
        pauli_matrix(PauliOperator.single(5, q, letter))
        for q in range(5) for letter in "XYZ"
    ]
    c, ok = kl_matrix([zero, one], errors)
    assert ok
    assert np.abs(c - c.conj().T).max() < 1e-12
    # repetition code does not satisfy the condition for Z errors
    rep = repetition_code(3)
    z0, o0 = codespace_basis(rep)
    _, ok = kl_matrix([z0, o0], [np.eye(8, dtype=complex),
                                 pauli_matrix(PauliOperator.single(3, 0, "Z"))])
    assert not ok


def test_kl_matrix_rejects_nonorthonormal():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    with pytest.raises(ValueError):
        kl_matrix([v, v], [np.eye(4, dtype=complex)])


def test_kl_matrix_scales_each_block():
    # fig6's full-scale ell = 3 set: blocks reach 8.7e8, so an absolute 1e-9
    # tolerance read the 2.4e-7 round-off of a KL code as a violation
    osc = TruncatedOscillator(77)
    c, ok = kl_matrix(binomial_codewords(3, 77), binomial_error_set(osc, 3))
    assert ok
    assert np.abs(c).max() > 1e8


def test_recovery_defining_identity_complex_coefficients():
    # R(K_mu rho K_nu^dag) = C_{nu mu} rho, including a complex C to pin the
    # eigenvector conjugation convention
    code = five_qubit_code()
    zero, one = codespace_basis(code)
    eye = np.eye(32, dtype=complex)
    x0 = pauli_matrix(PauliOperator.single(5, 0, "X"))
    y3 = pauli_matrix(PauliOperator.single(5, 3, "Y"))
    errors = [eye, 0.5j * eye + 0.8 * x0, 0.3 * x0 + (0.2 - 0.6j) * y3]
    c, ok = kl_matrix([zero, one], errors)
    assert ok
    assert np.abs(c.imag).max() > 0.1  # genuinely complex case
    rec = build_recovery([zero, one], errors)
    rng = np.random.default_rng(7)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = (a[0] * zero + a[1] * one)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    for mu in range(3):
        for nu in range(3):
            got = rec.apply(errors[mu] @ rho0 @ errors[nu].conj().T)
            assert np.abs(got - c[nu, mu] * rho0).max() < 1e-9


def test_recovery_idempotent_and_trace_preserving():
    code = five_qubit_code()
    zero, one = codespace_basis(code)
    eye = np.eye(32, dtype=complex)
    errors = [eye] + [pauli_matrix(PauliOperator.single(5, q, letter))
                      for q in range(5) for letter in "XYZ"]
    rec = build_recovery([zero, one], errors)
    dense = rec.to_dense()
    assert np.abs(dense @ dense - dense).max() < 1e-8
    for _ in range(20):
        rho = random_density(32)
        assert abs(np.trace(rec.apply(rho)) - 1) < 1e-9


def test_stabilizer_recovery_five_qubit():
    code = five_qubit_code()
    rec = stabilizer_recovery(code, build_lookup(code))
    assert len(rec.kraus) == 16
    assert rec.completeness_defect() < 1e-12
    dense = rec.to_dense()
    assert np.abs(dense @ dense - dense).max() < 1e-8
    # weight-1 corrupted logical state is restored exactly
    zero, _ = codespace_basis(code)
    for q in range(5):
        bad = pauli_matrix(PauliOperator.single(5, q, "Y")) @ zero
        out = rec.apply(np.outer(bad, bad.conj()))
        assert np.vdot(zero, out @ zero).real > 1 - 1e-10


def test_binomial_codewords():
    zero, one = binomial_codewords(1, d_max=12)
    want0 = np.zeros(12)
    want0[0], want0[6] = 0.5, np.sqrt(3) / 2
    want1 = np.zeros(12)
    want1[3], want1[9] = np.sqrt(3) / 2, 0.5
    assert np.allclose(zero, want0) and np.allclose(one, want1)
    for ell in (1, 2, 3):
        z, o = binomial_codewords(ell, (2 * ell + 1) ** 2 + 1)
        assert abs(np.vdot(z, o)) == 0.0
        assert abs(np.linalg.norm(z) - 1) < 1e-12
        n_op = np.arange(len(z))
        mean0 = np.sum(n_op * np.abs(z) ** 2)
        mean1 = np.sum(n_op * np.abs(o) ** 2)
        assert abs(mean0 - mean1) < 1e-9
    with pytest.raises(ValueError):
        binomial_codewords(1, d_max=9)


def test_oscillator_commutator_truncation():
    osc = TruncatedOscillator(10)
    comm = osc.a @ osc.adag - osc.adag @ osc.a
    assert np.abs(comm[:-2, :-2] - np.eye(8)).max() < 1e-12
    assert np.allclose(np.diag(osc.number).real, np.arange(10))


def test_binomial_recovery_restores_photon_loss():
    zero, one = binomial_codewords(1, 21)
    osc = TruncatedOscillator(len(zero))
    errors = [np.eye(len(zero), dtype=complex), osc.a, osc.adag, osc.number]
    c, ok = kl_matrix([zero, one], errors)
    assert ok
    rec = build_recovery([zero, one], errors)
    bad = osc.a @ zero
    bad = bad / np.linalg.norm(bad)
    out = rec.apply(np.outer(bad, bad.conj()))
    assert np.vdot(zero, out @ zero).real > 1 - 1e-9
    # idempotence on the dense map
    dense = rec.to_dense()
    assert np.abs(dense @ dense - dense).max() < 1e-8


def test_logical_states_cardinal():
    zero, one = binomial_codewords(1, 21)
    states = logical_states([zero, one], [[0, 0, 1], [0, 0, -1], [1, 0, 0]])
    assert np.allclose(states[0], zero)
    assert np.allclose(states[1], one, atol=1e-15) or np.allclose(np.abs(states[1]), np.abs(one))
    assert np.allclose(states[2], (zero + one) / np.sqrt(2))


@pytest.mark.parametrize("directions", [[[1, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 0, 2]],
                                        [[1, 0, 0], [np.nan, 0, 1]], [1, 0]])
def test_logical_states_rejects_malformed_directions(directions):
    # the first three used to become |+x>, |0> and a NaN state without a word
    words = binomial_codewords(1, 21)
    with pytest.raises(ValueError, match=r"directions (row 1 .* not a finite unit vector"
                                         r"|must have shape \(m, 3\), not \(1, 2\))"):
        logical_states(words, directions)


def _five_qubit_setup(kappa, delta):
    code = five_qubit_code()
    rec = stabilizer_recovery(code, build_lookup(code))
    jumps = [(pauli_matrix(PauliOperator.single(5, q, letter)), delta)
             for q in range(5) for letter in "XYZ"]
    lind = build_lindbladian(jumps) + recovery_lindbladian(rec, kappa)
    return code, rec, lind


def test_epsilon_delta_exact_basics():
    code, rec, lind = _five_qubit_setup(kappa=1.0, delta=1.0 / 15.0)
    words = codespace_basis(code)
    times = [0.0, 0.4, 1.2]
    eps = epsilon_exact(lind, rec, words, times)
    dlt = delta_exact(lind, rec, words, times)
    assert eps[0] == pytest.approx(0.0, abs=1e-8)
    assert dlt[0] == pytest.approx(0.0, abs=1e-8)
    assert np.all(np.diff(eps) > 0)
    assert np.all(dlt <= 2 * eps + 1e-8)
    assert np.all(dlt >= -1e-8)


def test_epsilon_exact_matches_trajectory_mc():
    code, rec, lind = _five_qubit_setup(kappa=1.0, delta=1.0 / 15.0)
    words = codespace_basis(code)
    times = [0.5, 1.5]
    eps = epsilon_exact(lind, rec, words, times)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=1.0 / 15.0, n_channels=15)
    mc = estimate_epsilon(code, build_lookup(code), noise, params, times,
                          n_samples=20000, seed=77)
    for i in range(len(times)):
        assert abs(mc.estimate[i] - eps[i]) < 3 * mc.stderr[i] + 1e-12


def test_pauli_axes_are_the_worst_states_dense_oracle():
    # epsilon_exact and delta_exact default to the three Pauli axes.  Under
    # anisotropic Pauli jumps on the five-qubit code, a dense Bloch grid
    # propagated by expm of the dense generator finds no state worse than
    # the worst axis, and the defaults match the axes' expm values
    code = five_qubit_code()
    rec = stabilizer_recovery(code, build_lookup(code))
    rates = {"X": 0.1, "Y": 0.02, "Z": 0.05}
    jumps = [(pauli_matrix(PauliOperator.single(5, q, letter)), rate)
             for q in range(5) for letter, rate in rates.items()]
    lind = build_lindbladian(jumps) + recovery_lindbladian(rec, 1.0)
    words = codespace_basis(code)
    theta, phi = np.meshgrid(np.linspace(0, np.pi, 13),
                             np.linspace(0, 2 * np.pi, 24, endpoint=False))
    grid = np.column_stack([np.sin(theta).ravel() * np.cos(phi).ravel(),
                            np.sin(theta).ravel() * np.sin(phi).ravel(),
                            np.cos(theta).ravel()])
    states = logical_states(words, np.vstack([np.eye(3), grid]))  # the axes first
    proj = sum(np.outer(w, w.conj()) for w in words)
    rho = np.concatenate([np.einsum("mi,mj->mij", states, states.conj()), proj[None]])
    step = expm(lind.to_dense() * 0.5)
    times = (0.5, 1.0, 2.0)
    eps_axes, dlt_axes = [], []
    for t in times:
        prop = np.linalg.matrix_power(step, round(t / 0.5))
        out = rec.apply((rho.reshape(len(rho), -1) @ prop.T).reshape(rho.shape))
        fid = np.einsum("mi,mij,mj->m", states.conj(), out[:-1], states).real
        # the state at -n is proj minus the one at n, so the recovered pair
        # differs by 2 out_n - out_proj
        dist = np.abs(np.linalg.eigvalsh(2 * out[:-1] - out[-1])).sum(axis=1) / 2
        assert np.ptp(fid[:3]) > 1e-3  # the axes differ, so the grid check has teeth
        assert fid[3:].min() >= fid[:3].min() - 1e-12
        assert dist[3:].min() >= dist[:3].min() - 1e-12
        eps_axes.append(1 - fid[:3].min())
        dlt_axes.append(1 - dist[:3].min())
    assert np.abs(epsilon_exact(lind, rec, words, times) - eps_axes).max() < 1e-7
    assert np.abs(delta_exact(lind, rec, words, times) - dlt_axes).max() < 1e-7
