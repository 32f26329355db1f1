"""Pauli algebra: dense Kronecker oracle, code invariants, syndromes."""

import itertools

import numpy as np
import pytest

from aqec.paulis import (
    PauliOperator,
    anticommutation_bits,
    commutes,
    five_qubit_code,
    logical_class,
    multiply,
    repetition_code,
    syndrome_of,
    toric_code,
)

_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(p: PauliOperator) -> np.ndarray:
    """Dense-matrix oracle; qubit 0 is the leftmost Kronecker factor."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        m = np.kron(m, _1Q[p.letter(q)])
    return p.phase * m


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield PauliOperator.from_string("".join(letters))


def test_single_qubit_table():
    x1 = PauliOperator.single(2, 1, "X")
    assert str(x1) == "+IX"
    assert str(multiply(x1, x1)) == "+II"
    x = PauliOperator.from_string("X")
    z = PauliOperator.from_string("Z")
    assert str(multiply(x, z)) == "-iY"
    assert str(multiply(z, x)) == "+iY"
    y = PauliOperator.from_string("Y")
    assert np.allclose(dense(y), _1Q["Y"])
    assert str(multiply(y, y)) == "+I"


def test_parser_printer_roundtrip():
    for s in ("+XZZXI", "-IXZZX", "+iYIX", "-iZZY", "XIX"):
        p = PauliOperator.from_string(s)
        canonical = p.to_string()
        assert PauliOperator.from_string(canonical) == p
        # parsing is sign-normalizing but support-preserving
        assert canonical.lstrip("+-i") == s.lstrip("+-i")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_matches_dense_oracle(n):
    ops = list(all_paulis(n))
    for a in ops:
        for b in ops:
            got = dense(multiply(a, b))
            want = dense(a) @ dense(b)
            assert np.allclose(got, want), f"{a} * {b}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutes_matches_dense_oracle(n):
    ops = list(all_paulis(n))
    for a in ops:
        for b in ops:
            ab = dense(a) @ dense(b)
            ba = dense(b) @ dense(a)
            assert commutes(a, b) == np.allclose(ab, ba)


def test_square_has_real_phase_and_empty_support():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        sq = multiply(p, p)
        assert sq.weight == 0
        assert sq.phase in (1 + 0j, -1 + 0j)


def test_five_qubit_code_shape():
    code = five_qubit_code()
    assert code.n == 5 and code.k == 1
    assert code.distance == 3 and code.error_radius == 1
    assert [str(g)[1:] for g in code.generators] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def _random_pauli(rng, n):
    x, z = (int(b) for b in rng.integers(0, 1 << n, size=2))
    return PauliOperator(n, x, z, int(rng.integers(4)))


@pytest.mark.parametrize("make", [five_qubit_code, lambda: toric_code(3)])
def test_anticommutation_bits_matches_commutes(make):
    # bit j against an independent commutes() loop, for generators, logicals
    # and random checks, and as the syndrome against the generators
    code = make()
    rng = np.random.default_rng(29)
    for _ in range(200):
        op = _random_pauli(rng, code.n)
        for checks in (code.generators, code.logical_z + code.logical_x,
                       [_random_pauli(rng, code.n) for _ in range(7)]):
            want = sum((not commutes(c, op)) << j for j, c in enumerate(checks))
            assert anticommutation_bits(checks, op) == want
        assert syndrome_of(code, op) == anticommutation_bits(code.generators, op)
    assert anticommutation_bits((), PauliOperator.identity(code.n)) == 0


def test_five_qubit_syndrome_of_x0():
    code = five_qubit_code()
    # X0 anticommutes only with ZXIXZ, generator 3
    assert syndrome_of(code, PauliOperator.single(5, 0, "X")) == 0b1000


def test_five_qubit_syndromes_cover_weight_one():
    # perfect code: 16 syndromes are exactly identity + 15 single-qubit errors
    code = five_qubit_code()
    seen = {syndrome_of(code, PauliOperator.identity(5))}
    for q in range(5):
        for letter in "XYZ":
            seen.add(syndrome_of(code, PauliOperator.single(5, q, letter)))
    assert seen == set(range(16))


@pytest.mark.parametrize("make", [five_qubit_code, lambda: repetition_code(5),
                                  lambda: toric_code(3), lambda: toric_code(4)])
def test_code_invariants(make):
    code = make()
    for g in code.generators:
        assert syndrome_of(code, g) == 0
    for lx, lz in zip(code.logical_x, code.logical_z):
        assert syndrome_of(code, lx) == 0
        assert syndrome_of(code, lz) == 0
        assert not commutes(lx, lz)


def test_logical_class_basics():
    code = five_qubit_code()
    assert logical_class(code, PauliOperator.identity(5)) == "I"
    assert logical_class(code, code.logical_x[0]) == "X"
    assert logical_class(code, code.logical_z[0]) == "Z"
    stab = multiply(code.generators[0], code.generators[2])
    assert logical_class(code, stab) == "I"
    with pytest.raises(ValueError):
        logical_class(code, PauliOperator.single(5, 0, "X"))


def test_logical_class_coset_invariance():
    rng = np.random.default_rng(11)
    for code in (five_qubit_code(), toric_code(3)):
        reps = [PauliOperator.identity(code.n)] + list(code.logical_x) + list(code.logical_z)
        for rep in reps:
            base = logical_class(code, rep)
            for _ in range(50):
                s = PauliOperator.identity(code.n)
                for g in code.generators:
                    if rng.random() < 0.5:
                        s = multiply(s, g)
                assert logical_class(code, multiply(rep, s)) == base


def test_toric_code_shape():
    code = toric_code(4)
    assert code.n == 32 and code.k == 2
    assert code.distance == 4
    assert len(code.generators) == 30
    # stars are Z-products of weight 4, plaquettes X-products of weight 4
    star, plaq = code.generators[0], code.generators[15]
    assert star.x_bits == 0 and star.weight == 4
    assert plaq.z_bits == 0 and plaq.weight == 4


def test_toric_logical_loops_classify():
    code = toric_code(4)
    assert logical_class(code, code.logical_z[0]) == "ZI"
    assert logical_class(code, code.logical_z[1]) == "IZ"
    assert logical_class(code, code.logical_x[0]) == "XI"
    assert logical_class(code, multiply(code.logical_x[0], code.logical_z[1])) == "XZ"


def test_repetition_code_shape():
    code = repetition_code(3)
    assert [str(g)[1:] for g in code.generators] == ["ZZI", "IZZ"]
    assert str(code.logical_x[0])[1:] == "XXX"
    with pytest.raises(ValueError):
        repetition_code(4)
