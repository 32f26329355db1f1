"""Bit-packed n-qubit Pauli algebra, stabilizer codes, and syndrome extraction.

Operators are stored in symplectic form: an n-qubit Pauli is ``i^p * X^x Z^z``
where ``x`` and ``z`` are n-bit integers (bit q = qubit q) and ``p`` tracks the
phase mod 4.  Multiplication, commutation, weight, and syndromes then reduce to
XOR and popcount, which is what the Monte Carlo inner loop needs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PauliOperator",
    "StabilizerCode",
    "multiply",
    "commutes",
    "anticommutation_bits",
    "syndrome_of",
    "logical_class",
    "five_qubit_code",
    "repetition_code",
    "toric_code",
]

# letter -> (x bit, z bit); Y = i * X * Z in the internal normal form
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_SIGN_TOKENS = {"+": 0, "-": 2, "+i": 1, "i": 1, "-i": 3}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_VALUE = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli ``i^phase_exp * X^x_bits Z^z_bits``.

    ``phase_exp`` is the exponent of i in the X-then-Z normal form, not the
    printed sign: Y is stored as phase_exp=1, x=1, z=1 and prints as "+Y".
    """

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("support bits exceed qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PauliOperator":
        return PauliOperator(n, 0, 0, 0)

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliOperator":
        """Single-qubit X, Y, or Z (or I) embedded in n qubits."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        x, z = _LETTER_BITS[letter]
        p = 1 if letter == "Y" else 0
        return PauliOperator(n, x << qubit, z << qubit, p)

    @staticmethod
    def from_support(n: int, x_support=(), z_support=()) -> "PauliOperator":
        """Pauli with X on ``x_support`` and Z on ``z_support`` (Y where both)."""
        x = 0
        for q in x_support:
            x |= 1 << q
        z = 0
        for q in z_support:
            z |= 1 << q
        return PauliOperator(n, x, z, (x & z).bit_count())

    @staticmethod
    def from_string(s: str) -> "PauliOperator":
        """Parse e.g. "XZZXI", "-iYIX".  Leftmost letter is qubit 0."""
        s = s.strip()
        sign = 0
        for tok in ("-i", "+i", "-", "+", "i"):
            if s.startswith(tok):
                sign = _SIGN_TOKENS[tok]
                s = s[len(tok):]
                break
        if not s or any(c not in _LETTER_BITS for c in s):
            raise ValueError(f"invalid Pauli string {s!r}")
        n = len(s)
        x = z = 0
        n_y = 0
        for q, c in enumerate(s):
            xb, zb = _LETTER_BITS[c]
            x |= xb << q
            z |= zb << q
            n_y += c == "Y"
        # printed sign refers to the letter form; convert to X-Z normal form
        return PauliOperator(n, x, z, (sign + n_y) % 4)

    # -- queries -----------------------------------------------------------

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def phase(self) -> complex:
        """Phase in front of the letter (I/X/Y/Z tensor) form."""
        n_y = (self.x_bits & self.z_bits).bit_count()
        return _PHASE_VALUE[(self.phase_exp - n_y) % 4]

    def letter(self, qubit: int) -> str:
        return _BITS_LETTER[((self.x_bits >> qubit) & 1, (self.z_bits >> qubit) & 1)]

    def to_string(self) -> str:
        n_y = (self.x_bits & self.z_bits).bit_count()
        sign = _PHASE_STR[(self.phase_exp - n_y) % 4]
        return sign + "".join(self.letter(q) for q in range(self.n))

    def __str__(self):
        return self.to_string()


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product a*b with exact phase tracking."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    # moving X^xb past Z^za picks up (-1)^|za & xb|
    p = (a.phase_exp + b.phase_exp + 2 * (a.z_bits & b.x_bits).bit_count()) % 4
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, p)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic form <x_a,z_b> + <z_a,x_b> is even."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


@dataclass(frozen=True)
class StabilizerCode:
    """Stabilizer code with fixed generator order and canonical logicals.

    Generator order is part of the public contract: syndrome bit alpha always
    refers to ``generators[alpha]``.  ``logical_x[i]``/``logical_z[i]`` are the
    canonical anticommuting pair of logical qubit i.
    """

    name: str
    n: int
    generators: tuple
    logical_x: tuple
    logical_z: tuple
    distance: int

    def __post_init__(self):
        k = self.k
        if len(self.generators) != self.n - k:
            raise ValueError("expected n-k independent generators")
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1:]:
                if not commutes(g, h):
                    raise ValueError("generators must commute")
        for i, lx in enumerate(self.logical_x):
            lz = self.logical_z[i]
            if commutes(lx, lz):
                raise ValueError(f"logical pair {i} must anticommute")
            for g in self.generators:
                if not (commutes(lx, g) and commutes(lz, g)):
                    raise ValueError(f"logical {i} must commute with generators")
            for jx in self.logical_x[:i]:
                if not commutes(jx, lz) or not commutes(jx, lx):
                    raise ValueError("logical operators of distinct qubits must commute")
            for jz in self.logical_z[:i]:
                if not commutes(jz, lz) or not commutes(jz, lx):
                    raise ValueError("logical operators of distinct qubits must commute")

    @property
    def k(self) -> int:
        return len(self.logical_x)

    @property
    def error_radius(self) -> int:
        # largest weight with guaranteed correction: floor((d-1)/2)
        return (self.distance - 1) // 2


def anticommutation_bits(checks, op: PauliOperator) -> int:
    """Bit j set iff ``op`` anticommutes with ``checks[j]``.

    Against a code's generators this is the syndrome of ``op``; against its
    logical operators, its logical parity.  ``checks`` and ``op`` share n.
    """
    x, z = op.x_bits, op.z_bits
    bits = 0
    for j, c in enumerate(checks):
        bits |= (((c.x_bits & z).bit_count() + (c.z_bits & x).bit_count()) & 1) << j
    return bits


def syndrome_of(code: StabilizerCode, err: PauliOperator) -> int:
    """Syndrome of ``err``: bit alpha set iff it anticommutes with generator alpha."""
    if err.n != code.n:
        raise ValueError("qubit count mismatch")
    return anticommutation_bits(code.generators, err)


def logical_class(code: StabilizerCode, residual: PauliOperator) -> str:
    """Logical class of a zero-syndrome residual, one letter per logical qubit.

    Letter i is determined by anticommutation with the stored logical pair:
    anticommuting with logical_z[i] marks an X-type flip, with logical_x[i] a
    Z-type flip, with both a Y.  The result is coset-invariant: multiplying
    ``residual`` by any stabilizer element does not change it.
    """
    if syndrome_of(code, residual):
        raise ValueError("residual has nonzero syndrome; not a logical representative")
    fx = anticommutation_bits(code.logical_z, residual)
    fz = anticommutation_bits(code.logical_x, residual)
    return "".join(_BITS_LETTER[((fx >> i) & 1, (fz >> i) & 1)] for i in range(code.k))


# -- concrete codes --------------------------------------------------------


def five_qubit_code() -> StabilizerCode:
    """The [[5,1,3]] code; generators XZZXI, IXZZX, XIXZZ, ZXIXZ in that order."""
    gens = tuple(PauliOperator.from_string(s)
                 for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))
    return StabilizerCode(
        name="five_qubit",
        n=5,
        generators=gens,
        logical_x=(PauliOperator.from_string("XXXXX"),),
        logical_z=(PauliOperator.from_string("ZZZZZ"),),
        distance=3,
    )


def repetition_code(n: int) -> StabilizerCode:
    """[[n,1]] bit-flip repetition code, n odd; Z_i Z_{i+1} generators.

    ``distance`` refers to the protected X (bit-flip) basis, so the majority
    radius is (n-1)/2.  Phase errors are undetected by construction.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("repetition code needs odd n >= 3")
    gens = tuple(PauliOperator.from_support(n, z_support=(i, i + 1))
                 for i in range(n - 1))
    return StabilizerCode(
        name=f"repetition_{n}",
        n=n,
        generators=gens,
        logical_x=(PauliOperator.from_support(n, x_support=range(n)),),
        logical_z=(PauliOperator.from_support(n, z_support=(0,)),),
        distance=n,
    )


def _toric_edges(L: int):
    """Edge indexing shared with the MWPM decoder: h(r,c)=r*L+c, v(r,c)=L^2+r*L+c."""
    def h(r: int, c: int) -> int:
        return (r % L) * L + (c % L)

    def v(r: int, c: int) -> int:
        return L * L + (r % L) * L + (c % L)

    return h, v


def toric_code(L: int) -> StabilizerCode:
    """L x L toric code: n = 2L^2 edge qubits, two logical qubits.

    Stars (Z-products on the four edges at a vertex) detect X errors;
    plaquettes (X-products around a face) detect Z errors.  Generator order:
    stars row-major over vertices (r, c) with the last vertex dropped, then
    plaquettes row-major with the last face dropped (the dropped ones are
    products of the rest).  Canonical logicals: X1 on row-0 horizontal edges,
    Z1 on column-0 horizontal edges, X2 on column-0 vertical edges, Z2 on
    row-0 vertical edges.
    """
    if L < 2:
        raise ValueError("toric code needs L >= 2")
    n = 2 * L * L
    h, v = _toric_edges(L)
    gens = []
    for r in range(L):
        for c in range(L):
            if (r, c) == (L - 1, L - 1):
                continue  # dependent: product of all stars is identity
            gens.append(PauliOperator.from_support(
                n, z_support=(h(r, c - 1), h(r, c), v(r - 1, c), v(r, c))))
    for r in range(L):
        for c in range(L):
            if (r, c) == (L - 1, L - 1):
                continue
            gens.append(PauliOperator.from_support(
                n, x_support=(h(r, c), h(r + 1, c), v(r, c), v(r, c + 1))))
    lx1 = PauliOperator.from_support(n, x_support=[h(0, c) for c in range(L)])
    lz1 = PauliOperator.from_support(n, z_support=[h(r, 0) for r in range(L)])
    lx2 = PauliOperator.from_support(n, x_support=[v(r, 0) for r in range(L)])
    lz2 = PauliOperator.from_support(n, z_support=[v(0, c) for c in range(L)])
    return StabilizerCode(
        name=f"toric_{L}",
        n=n,
        generators=tuple(gens),
        logical_x=(lx1, lx2),
        logical_z=(lz1, lz2),
        distance=L,
    )
