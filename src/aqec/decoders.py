"""Recovery maps: syndrome -> minimum-weight correction.

Three decoder kinds: exhaustive lookup tables for small codes, exact
minimum-weight perfect matching for the toric code (X and Z sectors decoded
independently), and closed-form majority vote for the repetition code.
A syndrome is an int in generator order: bit alpha is set iff the error
anticommutes with generator alpha (``paulis.syndrome_of``).  The contract is
held in ``Decoder.correction``: it accepts any s in [0, 2^(n-k)), raises
``ValueError`` outside it, and returns a Hermitian Pauli whose syndrome is
exactly s, so the frame after recovery is a zero-syndrome logical
representative.  A subclass maps an in-range syndrome to the correction's
(x, z) masks in ``_masks``.  The raw-frame methods ``correction_masks``,
``star_defects`` and ``plaquette_defects`` stay only because
``bench/layers.py`` and ``bench/workloads.py`` call them.

All tie-breaking is deterministic: lookup enumerates candidates by
(weight, x_bits, z_bits) ascending; matching follows two rules, the subset DP
up to 12 defects keeping the lowest-index partner among equal-cost pairings,
and above 12 the pairs of networkx 3.6.1's blossom, whose scan and tie order
``_blossom.py`` transcribes and freezes; paths run the vertical leg first,
then the horizontal leg, and wrap toward increasing coordinates on exact-half
ties.
"""

from __future__ import annotations

import itertools

from ._blossom import max_weight_matching
from .paulis import PauliOperator, StabilizerCode, _toric_edges, syndrome_of

__all__ = [
    "Decoder",
    "build_lookup",
    "MwpmDecoder",
    "MajorityDecoder",
]

_LOOKUP_SYNDROME_CAP = 24  # 2^(n-k) table entries; hard memory budget


class Decoder:
    """Base: bind a code and map syndromes to corrections."""

    def __init__(self, code: StabilizerCode):
        self.code = code

    def correction(self, s: int) -> PauliOperator:
        """Hermitian correction (phase i^|x&z|) whose syndrome is exactly s."""
        if not 0 <= s < 1 << len(self.code.generators):
            raise ValueError(f"syndrome {s} outside [0, 2^{len(self.code.generators)})")
        cx, cz = self._masks(s)
        return PauliOperator(self.code.n, cx, cz, (cx & cz).bit_count())

    def _masks(self, s: int) -> tuple:
        """(x, z) masks of the correction for a syndrome s already in range."""
        raise NotImplementedError

    def correction_masks(self, x_bits: int, z_bits: int) -> tuple:
        """Correction (x, z) masks for a raw frame, decoded from its syndrome."""
        c = self.correction(syndrome_of(self.code, PauliOperator(self.code.n, x_bits, z_bits)))
        return c.x_bits, c.z_bits


class LookupDecoder(Decoder):
    def __init__(self, code: StabilizerCode, table: dict):
        super().__init__(code)
        self.table = table  # syndrome bits -> (corr_x, corr_z)

    def _masks(self, s: int) -> tuple:
        return self.table[s]

    # bound in the class dict so tracers can wrap it per decoder class
    correction_masks = Decoder.correction_masks


def build_lookup(code: StabilizerCode) -> LookupDecoder:
    """Exhaustive minimum-weight lookup table over n-qubit Paulis.

    Enumeration is breadth-first over error weight; within a weight, candidates
    are visited in ascending (x_bits, z_bits) order, so the stored
    representative is the lexicographically smallest minimum-weight coset
    leader.  The generators are independent, so every syndrome in [0, 2^(n-k))
    is reached and the table is complete.  Raises if it would exceed 2^24
    entries.
    """
    n_gen = len(code.generators)
    if n_gen > _LOOKUP_SYNDROME_CAP:
        raise ValueError(f"lookup table with 2^{n_gen} entries exceeds budget")
    n = code.n
    table = {0: (0, 0)}
    target = 1 << n_gen
    for w in range(1, n + 1):
        if len(table) == target:
            break
        candidates = []
        for qubits in itertools.combinations(range(n), w):
            for assign in itertools.product("XYZ", repeat=w):
                ex = ez = 0
                for q, letter in zip(qubits, assign):
                    if letter != "Z":
                        ex |= 1 << q
                    if letter != "X":
                        ez |= 1 << q
                candidates.append((ex, ez))
        for ex, ez in sorted(candidates):
            s = syndrome_of(code, PauliOperator(n, ex, ez))
            if s not in table:
                table[s] = (ex, ez)
    return LookupDecoder(code, table)


class MajorityDecoder(Decoder):
    """Closed-form majority vote for the bit-flip repetition code."""

    def __init__(self, code: StabilizerCode):
        if not code.name.startswith("repetition"):
            raise ValueError("majority decoding requires a repetition code")
        super().__init__(code)
        self._full = (1 << code.n) - 1

    def _masks(self, s: int) -> tuple:
        # reconstruct the X-error pattern with e_0 = 0 from boundary parities,
        # then pick the lighter of the two cosets (n odd => never a tie)
        n = self.code.n
        e = 0
        cur = 0
        for i in range(n - 1):
            cur ^= (s >> i) & 1
            e |= cur << (i + 1)
        if e.bit_count() > n // 2:
            e ^= self._full
        return e, 0


# -- toric MWPM --------------------------------------------------------------

_DP_DEFECT_CAP = 12  # subset DP up to 12 defects (233 reachable subsets); blossom above


def _dp_min_matching(dist) -> list:
    """Exact minimum-weight perfect matching by subset DP.

    Returns pairs (i, j).  Solves, top-down with a memo, only the subsets
    reachable from the full set by removing the lowest set bit (the anchor)
    and one partner: Fibonacci F(m+1) of them, 233 at m = 12.  Deterministic:
    partners are scanned from the low bits up and the first one achieving the
    minimum is kept.  ``dist`` is any m x m indexable, a numpy array included.
    """
    best = {0: 0}
    choice = {}

    def solve(s):
        low = s & -s
        i = low.bit_length() - 1
        row = dist[i]
        rest = s ^ low
        b = None
        t = rest
        while t:
            bit = t & -t
            t ^= bit
            sub = rest ^ bit
            c = best.get(sub)
            if c is None:
                c = solve(sub)
            j = bit.bit_length() - 1
            c = row[j] + c
            if b is None or c < b:
                b, ch = c, j
        best[s] = b
        choice[s] = ch
        return b

    s = (1 << len(dist)) - 1
    if s:
        solve(s)
    pairs = []
    while s:
        i = (s & -s).bit_length() - 1
        j = choice[s]
        pairs.append((i, j))
        s ^= (1 << i) | (1 << j)
    return pairs


def _blossom_min_matching(dist) -> list:
    """Exact minimum-weight perfect matching by blossom (``_blossom``).

    Maximum-cardinality maximum-weight matching on weights 1 + max(w) - w,
    the graph networkx's ``min_weight_matching`` would build, so the pairs
    are the ones networkx 3.6.1 returns.
    """
    m = len(dist)
    top = 1 + max(dist[i][j] for i in range(m) for j in range(i + 1, m))
    mate = max_weight_matching([[top - d for d in row] for row in dist])
    return [(i, j) for i, j in enumerate(mate) if i < j]


class MwpmDecoder(Decoder):
    """Exact MWPM for the L x L toric code, X and Z sectors independent.

    Star defects (from X-type frame bits) are paired by toroidal Manhattan
    distance and joined with X-strings on the primal lattice; plaquette
    defects (from Z-type bits) are paired the same way on the dual lattice
    and joined with Z-strings.
    """

    def __init__(self, code: StabilizerCode):
        super().__init__(code)
        L = round((code.n / 2) ** 0.5)
        if 2 * L * L != code.n or not code.name.startswith("toric"):
            raise ValueError("MwpmDecoder requires a toric code")
        self.L = L
        self._h, self._v = _toric_edges(L)
        self._n_sites = L * L
        # toroidal Manhattan distance between sites, row-major: one table
        ring = [min(d, L - d) for d in range(L)]
        self._dist = [[ring[(r1 - r2) % L] + ring[(c1 - c2) % L]
                       for r2 in range(L) for c2 in range(L)]
                      for r1 in range(L) for c1 in range(L)]

    # -- defect extraction ---------------------------------------------------

    def star_defects(self, x_bits: int) -> list:
        s = syndrome_of(self.code, PauliOperator(self.code.n, x_bits, 0))
        return self._defects_from_syndrome(s, "star")

    def plaquette_defects(self, z_bits: int) -> list:
        s = syndrome_of(self.code, PauliOperator(self.code.n, 0, z_bits))
        return self._defects_from_syndrome(s, "plaquette")

    def _defects_from_syndrome(self, bits: int, sector: str) -> list:
        # generator order drops the last vertex/face; restore it by parity
        n_stars = self._n_sites - 1
        offset = 0 if sector == "star" else n_stars
        defects = [i for i in range(n_stars) if (bits >> (offset + i)) & 1]
        if len(defects) & 1:
            defects.append(self._n_sites - 1)
        return defects

    # -- geometry --------------------------------------------------------------

    def _leg(self, a: int, b: int) -> tuple:
        """Signed step count from coordinate a to b on the ring (shorter way).

        Exact half-distance ties resolve toward increasing coordinates.
        """
        L = self.L
        fwd = (b - a) % L
        bwd = (a - b) % L
        return (fwd, +1) if fwd <= bwd else (bwd, -1)

    def _path(self, s1: int, s2: int, vert, horiz, shift: int) -> int:
        """Edge mask of the canonical path between sites: vertical leg, then horizontal.

        Primal paths join vertices and pass (v, h, 0); dual paths join faces
        and pass (h, v, 1).  A step from coordinate a toward a + sgn crosses
        edge a + shift - (sgn < 0) of the leg's edge family.
        """
        r1, c1 = divmod(s1, self.L)
        r2, c2 = divmod(s2, self.L)
        mask = 0
        steps, sgn = self._leg(r1, r2)
        r = r1
        for _ in range(steps):
            mask ^= 1 << vert(r + shift - (sgn < 0), c1)
            r += sgn
        steps, sgn = self._leg(c1, c2)
        c = c1
        for _ in range(steps):
            mask ^= 1 << horiz(r2, c + shift - (sgn < 0))
            c += sgn
        return mask

    # -- matching ---------------------------------------------------------------

    def _match(self, defects: list) -> list:
        m = len(defects)
        if m == 0:
            return []
        if m % 2:
            raise ValueError("odd defect count; syndrome not error-generated")
        rows = [self._dist[a] for a in defects]
        dist = [[row[b] for b in defects] for row in rows]
        pairs = _dp_min_matching(dist) if m <= _DP_DEFECT_CAP else _blossom_min_matching(dist)
        return [(defects[i], defects[j]) for i, j in pairs]

    def sector_correction_mask(self, defects: list, sector: str) -> int:
        geometry = (self._v, self._h, 0) if sector == "star" else (self._h, self._v, 1)
        mask = 0
        for a, b in self._match(defects):
            mask ^= self._path(a, b, *geometry)
        return mask

    # bound in the class dict so tracers can wrap it per decoder class
    correction_masks = Decoder.correction_masks

    def _masks(self, s: int) -> tuple:
        cx = self.sector_correction_mask(self._defects_from_syndrome(s, "star"), "star")
        cz = self.sector_correction_mask(self._defects_from_syndrome(s, "plaquette"), "plaquette")
        return cx, cz
