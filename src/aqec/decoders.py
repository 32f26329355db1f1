"""Recovery maps: syndrome -> minimum-weight correction.

Three decoder kinds: exhaustive lookup tables for small codes, exact
minimum-weight perfect matching for the toric code (X and Z sectors decoded
independently), and closed-form majority vote for the repetition code.
A syndrome is an int in generator order: bit alpha is set iff the error
anticommutes with generator alpha (``paulis.syndrome_of``).  The contract is
held in ``Decoder.corrections``, which decodes a batch of syndromes: it
accepts any s in [0, 2^(n-k)), raises ``ValueError`` outside it, and returns
for each s a Hermitian Pauli whose syndrome is exactly s, so the frame after
recovery is a zero-syndrome logical representative.  ``correction(s)`` is
that batch on one syndrome.  A subclass has one hook, ``_batch_masks``,
which maps a batch of in-range syndromes to their corrections' (x, z)
masks.  The raw-frame methods ``correction_masks``,
``star_defects`` and ``plaquette_defects`` stay only because
``bench/layers.py`` and ``bench/workloads.py`` call them.

The MWPM decoder solves a batch together: its syndromes are grouped by
defect count, each group up to 16 defects is matched by one subset DP that
takes one numpy step per popcount level over the whole group, and a group's
corrections are one XOR reduction over its pairs' path masks, gathered from
a table of every site pair that the decoder builds once.

All tie-breaking is deterministic: lookup enumerates candidates by
(weight, x_bits, z_bits) ascending; matching follows two rules, the subset DP
up to 16 defects keeping the lowest-index partner among equal-cost pairings,
and above 16 the pairs of networkx 3.6.1's blossom, whose scan and tie order
``_blossom.py`` transcribes and freezes; paths run the vertical leg first,
then the horizontal leg, and wrap toward increasing coordinates on exact-half
ties.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

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

    def corrections(self, syndromes) -> list:
        """Hermitian corrections (phase i^|x&z|), one per syndrome s of the
        sequence syndromes, each with syndrome exactly s."""
        r = len(self.code.generators)
        for s in syndromes:
            if not 0 <= s < 1 << r:
                raise ValueError(f"syndrome {s} outside [0, 2^{r})")
        n = self.code.n
        return [PauliOperator(n, cx, cz, (cx & cz).bit_count())
                for cx, cz in self._batch_masks(syndromes)]

    def correction(self, s: int) -> PauliOperator:
        """Hermitian correction (phase i^|x&z|) whose syndrome is exactly s."""
        return self.corrections([s])[0]

    def _batch_masks(self, syndromes) -> list:
        """(x, z) masks of the corrections for syndromes already in range."""
        raise NotImplementedError

    def correction_masks(self, x_bits: int, z_bits: int) -> tuple:
        """Correction (x, z) masks for a raw frame, decoded from its syndrome."""
        c = self.correction(syndrome_of(self.code, PauliOperator(self.code.n, x_bits, z_bits)))
        return c.x_bits, c.z_bits


class LookupDecoder(Decoder):
    def __init__(self, code: StabilizerCode, table: dict):
        super().__init__(code)
        self.table = table  # syndrome bits -> (corr_x, corr_z)

    def _batch_masks(self, syndromes) -> list:
        return [self.table[s] for s in syndromes]

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

    def _batch_masks(self, syndromes) -> list:
        # reconstruct each X-error pattern with e_0 = 0 from boundary parities,
        # then pick the lighter of the two cosets (n odd => never a tie)
        n = self.code.n
        masks = []
        for s in syndromes:
            e = cur = 0
            for i in range(n - 1):
                cur ^= (s >> i) & 1
                e |= cur << (i + 1)
            masks.append((e ^ self._full if e.bit_count() > n // 2 else e, 0))
        return masks


# -- toric MWPM --------------------------------------------------------------

_DP_DEFECT_CAP = 16  # batched subset DP up to 16 defects (1,597 reachable subsets); blossom above
_DP_CHUNK_ENTRIES = 1 << 17  # (row, subset, partner) entries one DP step holds: bounds its memory


@functools.cache
def _dp_plan(m: int) -> list:
    """The subset DP's steps for m points, one per popcount level 2, 4, ..., m.

    Only the subsets reachable from the full set by removing the lowest set
    bit (the anchor) and one partner are solved: Fibonacci F(m+1) of them,
    1,597 at m = 16, whose widest level holds 3,465 (subset, partner)
    entries.  A level is (anchors, partners, subs): for its i-th subset,
    the anchor, the partners in ascending order, and for each partner the
    index, in the level below, of the subset left after removing the pair.
    """
    def pairs_of(s):
        rest = s & (s - 1)  # s without its anchor
        return [(j, rest & ~(1 << j)) for j in range(m) if rest >> j & 1]

    levels = [[(1 << m) - 1]]  # popcount m, m - 2, ..., 0
    while levels[-1][0]:
        levels.append(sorted({sub for s in levels[-1] for _, sub in pairs_of(s)}))
    plan = []
    for lower, upper in zip(levels[:0:-1], levels[-2::-1]):
        index = {s: i for i, s in enumerate(lower)}
        steps = [pairs_of(s) for s in upper]
        plan.append((np.array([(s & -s).bit_length() - 1 for s in upper]),
                     np.array([[j for j, _ in p] for p in steps]),
                     np.array([[index[sub] for _, sub in p] for p in steps])))
    return plan


def _dp_matchings(dist: np.ndarray) -> np.ndarray:
    """Exact minimum-weight perfect matchings of a batch by subset DP.

    ``dist`` has shape (g, m, m), m even and positive; returns the pairs
    (i, j), shape (g, m / 2, 2), in the order the anchors i are removed.
    The batch is solved in chunks of rows, each small enough that a level's
    (rows, subsets, partners) array holds at most _DP_CHUNK_ENTRIES entries.
    """
    plan = _dp_plan(dist.shape[1])
    rows = max(1, _DP_CHUNK_ENTRIES // max(partners.size for _, partners, _ in plan))
    return np.concatenate([_dp_chunk(dist[lo:lo + rows], plan)
                           for lo in range(0, len(dist), rows)])


def _dp_chunk(dist: np.ndarray, plan: list) -> np.ndarray:
    """_dp_matchings on one chunk of rows.

    Bottom-up over the plan's levels, one numpy step per level solves every
    subset of the level for the whole chunk.  Deterministic: a subset keeps
    the first partner, in ascending order, that achieves the minimum
    (``argmin``'s first occurrence).  A subset has m - 1 partners at most,
    far fewer than 256 at any m whose plan fits in memory, so the choices
    are stored as uint8.
    """
    g = len(dist)
    cost = np.zeros((g, 1), dtype=dist.dtype)
    choices = []
    for anchors, partners, subs in plan:
        c = dist[:, anchors[:, None], partners] + cost[:, subs]
        choices.append(c.argmin(axis=2).astype(np.uint8))
        cost = c.min(axis=2)
    rows = np.arange(g)
    at = np.zeros(g, dtype=np.intp)  # each row's subset on the current level
    pairs = np.empty((g, len(plan), 2), dtype=np.intp)
    for t, ((anchors, partners, subs), choice) in enumerate(zip(plan[::-1], choices[::-1])):
        k = choice[rows, at]
        pairs[:, t, 0] = anchors[at]
        pairs[:, t, 1] = partners[at, k]
        at = subs[at, k]
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
        self._n_sites = L * L
        # toroidal Manhattan distance between sites, row-major: one table
        ring = [min(d, L - d) for d in range(L)]
        self._dist_array = np.array([[ring[(r1 - r2) % L] + ring[(c1 - c2) % L]
                                      for r2 in range(L) for c2 in range(L)]
                                     for r1 in range(L) for c1 in range(L)], dtype=np.int32)
        # sector -> paths[a, b], the edge mask (a Python int) of _path from site a to b
        h, v = _toric_edges(L)
        sites = range(L * L)
        self._paths = {sector: np.array([[self._path(a, b, *geometry) for b in sites]
                                         for a in sites], dtype=object)
                       for sector, geometry in (("star", (v, h, 0)), ("plaquette", (h, v, 1)))}

    # -- defect extraction ---------------------------------------------------

    def star_defects(self, x_bits: int) -> list:
        s = syndrome_of(self.code, PauliOperator(self.code.n, x_bits, 0))
        return self._defects_from_syndrome(s, "star")

    def plaquette_defects(self, z_bits: int) -> list:
        s = syndrome_of(self.code, PauliOperator(self.code.n, 0, z_bits))
        return self._defects_from_syndrome(s, "plaquette")

    def _defects_from_syndrome(self, bits: int, sector: str) -> list:
        return np.flatnonzero(self._defect_bits([bits])[int(sector == "plaquette"), 0]).tolist()

    def _defect_bits(self, syndromes) -> np.ndarray:
        """Shape (2, len(syndromes), L^2) of 0/1: [0, i, a] is 1 iff vertex a
        is a star defect of syndromes[i], and [1, i, a] iff face a is a
        plaquette defect."""
        n_stars = self._n_sites - 1
        width = (2 * n_stars + 7) // 8
        raw = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in syndromes),
                            dtype=np.uint8).reshape(len(syndromes), width)
        bits = np.unpackbits(raw, axis=1, count=2 * n_stars, bitorder="little")
        bits = bits.reshape(len(syndromes), 2, n_stars).transpose(1, 0, 2)
        # generator order drops the last vertex/face; restore it by parity
        return np.concatenate((bits, np.bitwise_xor.reduce(bits, axis=2, keepdims=True)), axis=2)

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

    def _matched_masks(self, defects: np.ndarray, sector: str) -> list:
        """Correction masks of one sector, one per row of defects (site
        lists of one length m): the XOR of the tabled paths between the pairs
        of the row's minimum-weight matching, by subset DP up to
        _DP_DEFECT_CAP defects and by blossom above."""
        g, m = defects.shape
        if m % 2:
            raise ValueError("odd defect count; syndrome not error-generated")
        if m == 0:
            return [0] * g
        dist = self._dist_array[defects[:, :, None], defects[:, None, :]]
        if m <= _DP_DEFECT_CAP:
            pairs = _dp_matchings(dist)
        else:
            pairs = np.array([_blossom_min_matching(d) for d in dist.tolist()])
        ends = np.take_along_axis(defects, pairs.reshape(g, m), axis=1)
        paths = self._paths[sector][ends[:, 0::2], ends[:, 1::2]]
        return np.bitwise_xor.reduce(paths, axis=1).tolist()

    # bound in the class dict so tracers can wrap it per decoder class
    correction_masks = Decoder.correction_masks

    def _batch_masks(self, syndromes) -> list:
        """Decodes each sector's syndromes grouped by defect count, one
        _matched_masks call per group."""
        sectors = []
        for bits, sector in zip(self._defect_bits(syndromes), ("star", "plaquette")):
            counts = bits.sum(axis=1)
            masks = [0] * len(bits)
            for m in np.unique(counts[counts > 0]).tolist():
                rows = np.flatnonzero(counts == m)
                defects = np.nonzero(bits[rows])[1].reshape(len(rows), m)
                for i, mask in zip(rows.tolist(), self._matched_masks(defects, sector)):
                    masks[i] = mask
            sectors.append(masks)
        return list(zip(*sectors))
