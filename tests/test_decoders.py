"""Decoders: lookup minimality, MWPM exactness vs brute force, fuzz invariants."""

import hashlib
import itertools

import numpy as np
import pytest

from aqec import decoders
from aqec._blossom import max_weight_matching
from aqec.decoders import (
    MajorityDecoder,
    MwpmDecoder,
    _DP_DEFECT_CAP,
    _blossom_min_matching,
    _dp_matchings,
    build_lookup,
)
from aqec.paulis import (
    PauliOperator,
    _toric_edges,
    five_qubit_code,
    logical_class,
    multiply,
    repetition_code,
    syndrome_of,
    toric_code,
)


def apply_recovery(dec, frame):
    """Correct a frame from its syndrome: (residual, class), where the residual
    correction * frame has zero syndrome and class has one letter per logical
    qubit."""
    residual = multiply(dec.correction(syndrome_of(dec.code, frame)), frame)
    return residual, logical_class(dec.code, residual)


def random_pauli(rng, n, letters="XYZ", p=0.2):
    ex = ez = 0
    for q in range(n):
        if rng.random() < p:
            letter = letters[rng.integers(len(letters))]
            if letter != "Z":
                ex |= 1 << q
            if letter != "X":
                ez |= 1 << q
    return PauliOperator(n, ex, ez, (ex & ez).bit_count())


# -- lookup ------------------------------------------------------------------


def test_lookup_five_qubit_table():
    code = five_qubit_code()
    dec = build_lookup(code)
    assert len(dec.table) == 16
    assert dec.table[0] == (0, 0)
    # perfect code: every nontrivial syndrome decodes to a weight-1 error
    weights = [PauliOperator(5, cx, cz).weight for s, (cx, cz) in dec.table.items() if s]
    assert weights == [1] * 15
    x0 = PauliOperator.single(5, 0, "X")
    corr = dec.correction(syndrome_of(code, x0))
    assert (corr.x_bits, corr.z_bits) == (x0.x_bits, x0.z_bits)


def test_lookup_correction_syndrome_postcondition():
    code = five_qubit_code()
    dec = build_lookup(code)
    for s in range(16):
        assert syndrome_of(code, dec.correction(s)) == s


def test_lookup_correction_rejects_out_of_range_syndrome():
    # the contract is the base class's, so every decoder kind raises alike
    for dec in (build_lookup(five_qubit_code()), MwpmDecoder(toric_code(3)),
                MajorityDecoder(repetition_code(5))):
        r = len(dec.code.generators)
        for s in (-1, 1 << r):
            with pytest.raises(ValueError, match=rf"^syndrome {s} outside \[0, 2\^{r}\)$"):
                dec.correction(s)
            # a batch raises alike for the one syndrome out of range
            with pytest.raises(ValueError, match=rf"^syndrome {s} outside \[0, 2\^{r}\)$"):
                dec.corrections([0, 1, s, (1 << r) - 1])


def test_lookup_weight_le_radius_corrects():
    # operational Knill-Laflamme: weight <= ell errors recover to class I
    code = five_qubit_code()
    dec = build_lookup(code)
    for q in range(5):
        for letter in "XYZ":
            err = PauliOperator.single(5, q, letter)
            residual, cls = apply_recovery(dec, err)
            assert cls == "I"
            assert syndrome_of(code, residual) == 0


def test_lookup_x_basis_repetition():
    # the Pauli table of a bit-flip code holds X-only corrections within the
    # majority radius, for every syndrome
    for n in (3, 5, 7):
        dec = build_lookup(repetition_code(n))
        assert len(dec.table) == 1 << (n - 1)
        for s, (cx, cz) in dec.table.items():
            assert cz == 0
            assert cx.bit_count() <= n // 2


def test_lookup_weight2_coset_class_is_definite():
    code = five_qubit_code()
    dec = build_lookup(code)
    frame = PauliOperator.from_support(5, x_support=(0, 1))
    residual, cls = apply_recovery(dec, frame)
    assert syndrome_of(code, residual) == 0
    # weight 2 exceeds the radius; class must be a fixed nontrivial letter
    assert cls in ("X", "Y", "Z")
    again = apply_recovery(dec, frame)[1]
    assert again == cls


def test_majority_matches_lookup():
    for n in (3, 5, 7):
        code = repetition_code(n)
        maj = MajorityDecoder(code)
        lut = build_lookup(code)
        for s in range(1 << (n - 1)):
            assert maj.correction(s) == lut.correction(s)


def test_majority_radius():
    code = repetition_code(7)
    dec = MajorityDecoder(code)
    # any <=3 flips recover; 4 flips give a logical X
    frame = PauliOperator.from_support(7, x_support=(0, 2, 5))
    assert apply_recovery(dec, frame)[1] == "I"
    frame = PauliOperator.from_support(7, x_support=(0, 2, 5, 6))
    assert apply_recovery(dec, frame)[1] == "X"


# -- MWPM ---------------------------------------------------------------------


def brute_force_match_cost(dist):
    m = len(dist)
    best = None
    idx = list(range(m))

    def rec(rem, acc):
        nonlocal best
        if not rem:
            best = acc if best is None else min(best, acc)
            return
        i = rem[0]
        for j in rem[1:]:
            rest = [k for k in rem if k not in (i, j)]
            rec(rest, acc + dist[i][j])

    rec(idx, 0)
    return best


@pytest.mark.parametrize("L", [3, 4])
def test_mwpm_cost_matches_brute_force(L):
    code = toric_code(L)
    dec = MwpmDecoder(code)
    rng = np.random.default_rng(5)
    sites = L * L
    for _ in range(60):
        m = int(rng.choice([2, 4, 6]))
        defects = list(rng.choice(sites, size=m, replace=False))
        dist = dec._dist_array[np.ix_(defects, defects)].tolist()
        mask = dec._matched_masks(np.array([defects]), "star")[0]
        assert mask.bit_count() == brute_force_match_cost(dist)


def _matching_cost(dist, pairs):
    assert sorted(k for p in pairs for k in p) == list(range(len(dist)))
    return sum(dist[i][j] for i, j in pairs)


_NEAR_THE_CAP = (14, 16, 18)


@pytest.mark.parametrize("m", _NEAR_THE_CAP)
def test_dp_matches_blossom_above_the_cap(m):
    # two independent exact engines on the same toroidal matrices, up to and
    # past the defect count at which the decoder switches from one to the other
    assert max(_NEAR_THE_CAP) > _DP_DEFECT_CAP
    dec = MwpmDecoder(toric_code(6))
    rng = np.random.default_rng(140 + m)
    for _ in range(5):
        defects = [int(d) for d in rng.choice(36, size=m, replace=False)]
        dist = dec._dist_array[np.ix_(defects, defects)].tolist()
        assert _matching_cost(dist, _dp_matchings(np.array(dist)[None])[0]) == \
            _matching_cost(dist, _blossom_min_matching(dist))


@pytest.mark.parametrize("L", [6, 8])
def test_dp_cost_equals_blossom_cost_up_to_the_cap(L):
    # the DP took 13-16 defects over from the blossom: on toroidal distances,
    # where equal-cost pairings are common, both reach the same minimum
    dec = MwpmDecoder(toric_code(L))
    rng = np.random.default_rng(900 + L)
    differ = 0
    for m in (14, 16):
        dist = np.array([dec._dist_array[np.ix_(d, d)]
                         for d in (rng.choice(L * L, size=m, replace=False) for _ in range(64))])
        batch = _dp_matchings(dist)  # more than one chunk of rows at m = 16
        for d, pairs in zip(dist.tolist(), batch.tolist()):
            assert pairs == _dp_matchings(np.array(d)[None]).tolist()[0]
            blossom = _blossom_min_matching(d)
            assert _matching_cost(d, pairs) == _matching_cost(d, blossom)
            differ += sorted(tuple(sorted(p)) for p in pairs) != blossom
    assert differ > 10  # the two tie rules part ways on many of the instances


def _port_instances():
    """Seeded matching instances: (W, dist), with dist None for tie-heavy random
    weights W and the toric distances themselves otherwise (W is then None)."""
    rng = np.random.default_rng(1986)
    toric = {L: MwpmDecoder(toric_code(L)) for L in (4, 6, 8, 11)}
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        upper = np.triu(rng.integers(0, int(rng.choice([1, 2, 3, 10])) + 1, size=(m, m)), 1)
        yield (upper + upper.T).tolist(), None
    for i in range(1000):
        dec = toric[(4, 6, 8, 11)[i % 4]]
        m = 2 * int(rng.integers(7, min(30, dec._n_sites // 2) + 1))
        defects = rng.choice(dec._n_sites, size=m, replace=False).tolist()
        yield None, dec._dist_array[np.ix_(defects, defects)].tolist()


def test_blossom_port_returns_networkx_pairs():
    # equal-cost ties are common on toroidal distances, so an exact matcher of
    # another design would pick other pairs and move the decoder's output
    import networkx as nx  # the test extra's oracle
    count = 0
    for W, dist in _port_instances():
        g = nx.Graph()
        if dist is None:
            m = len(W)
            g.add_weighted_edges_from((i, j, W[i][j]) for i in range(m) for j in range(i + 1, m))
            want = nx.max_weight_matching(g, maxcardinality=True)
            got = [(i, j) for i, j in enumerate(max_weight_matching(W)) if j is not None and i < j]
        else:
            m = len(dist)
            g.add_weighted_edges_from((i, j, dist[i][j]) for i in range(m) for j in range(i + 1, m))
            want = nx.min_weight_matching(g)
            got = _blossom_min_matching(dist)
        assert got == sorted(tuple(sorted(p)) for p in want)
        count += 1
    assert count == 2000


def _recursive_dp_min_matching(dist, last_tie=False) -> list:
    """Top-down subset DP with a memo, the engine the batched DP replaced: the
    reference for its pairs.  Partners are scanned from the low bits up, and
    the first one achieving the minimum is kept (the last one with last_tie)."""
    best = {0: 0}
    choice = {}

    def solve(s):
        low = s & -s
        i = low.bit_length() - 1
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
            c = dist[i][j] + c
            if b is None or c < b or (last_tie and c == b):
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


@pytest.mark.parametrize("L", [4, 6, 8])
def test_batched_dp_keeps_the_recursive_dp_pairs(L):
    # toroidal distances tie often, so another partner order or tie rule
    # picks other pairs of equal cost
    dec = MwpmDecoder(toric_code(L))
    rng = np.random.default_rng(700 + L)
    ties = 0
    for m in range(2, _DP_DEFECT_CAP + 1, 2):
        dist = [dec._dist_array[np.ix_(defects, defects)].tolist()
                for defects in (rng.choice(L * L, size=m, replace=False) for _ in range(40))]
        want = [_recursive_dp_min_matching(d) for d in dist]
        assert [list(map(tuple, _dp_matchings(np.array(d)[None]).tolist()[0]))
                for d in dist] == want  # batches of one
        assert [list(map(tuple, p)) for p in _dp_matchings(np.array(dist)).tolist()] == want
        ties += sum(_recursive_dp_min_matching(d, last_tie=True) != w for d, w in zip(dist, want))
    assert ties > 40


def test_batched_dp_keeps_the_recursive_dp_pairs_on_floats():
    rng = np.random.default_rng(23)
    for m in range(2, _DP_DEFECT_CAP + 1, 2):
        a = rng.uniform(0.0, 5.0, size=(20, m, m))
        dist = a + a.transpose(0, 2, 1)
        want = [_recursive_dp_min_matching(d) for d in dist]
        assert [list(map(tuple, p)) for p in _dp_matchings(dist).tolist()] == want


def _walked_path(L, s1, s2, vert, horiz, shift):
    """Edge mask of the canonical path between sites, walked step by step:
    the vertical leg from s1's row to s2's row in s1's column, then the
    horizontal leg in s2's row.  Each leg goes the shorter way round the
    ring, up on an exact-half tie; a step from coordinate a toward a + sgn
    crosses edge a + shift - (sgn < 0) of the leg's edge family."""
    def leg(a, b):
        fwd, bwd = (b - a) % L, (a - b) % L
        return (fwd, +1) if fwd <= bwd else (bwd, -1)

    r1, c1 = divmod(s1, L)
    r2, c2 = divmod(s2, L)
    mask = 0
    steps, sgn = leg(r1, r2)
    r = r1
    for _ in range(steps):
        mask ^= 1 << vert(r + shift - (sgn < 0), c1)
        r += sgn
    steps, sgn = leg(c1, c2)
    c = c1
    for _ in range(steps):
        mask ^= 1 << horiz(r2, c + shift - (sgn < 0))
        c += sgn
    return mask


def _geometries(L):
    """(sector, (vert, horiz, shift)): primal paths join vertices on (v, h, 0),
    dual paths join faces on (h, v, 1)."""
    h, v = _toric_edges(L)
    return (("star", (v, h, 0)), ("plaquette", (h, v, 1)))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8, 11])
def test_path_table_matches_walked_paths(L):
    dec = MwpmDecoder(toric_code(L))
    sites = range(L * L)
    for sector, geometry in _geometries(L):
        paths = dec._paths[sector]
        assert paths.shape == (L * L, L * L) and paths.dtype == object
        for a in sites:
            for b in sites:
                assert paths[a, b] == _walked_path(L, a, b, *geometry)
                assert paths[a, b].bit_count() == dec._dist_array[a, b]


def _reference_masks(dec, s):
    """(x, z) correction masks of syndrome s from the recursive DP (blossom
    above the cap) and freshly walked paths."""
    masks = []
    for sector, geometry in _geometries(dec.L):
        defects = dec._defects_from_syndrome(s, sector)
        dist = dec._dist_array[np.ix_(defects, defects)].tolist()
        match = _recursive_dp_min_matching if len(defects) <= _DP_DEFECT_CAP else _blossom_min_matching
        mask = 0
        for i, j in match(dist) if defects else []:
            mask ^= _walked_path(dec.L, defects[i], defects[j], *geometry)
        masks.append(mask)
    return tuple(masks)


@pytest.mark.parametrize("L", [4, 6])
def test_corrections_batch_mixes_defect_counts(L):
    # one corrections call holds syndromes of every defect count in both
    # sectors, up to all 16 sites at L = 4 and past the cap at L = 6, so DP
    # groups and blossom decodes share it
    dec = MwpmDecoder(toric_code(L))
    rng = np.random.default_rng(800 + L)
    last = L * L - 1  # the site generator order drops
    top = min(L * L, _DP_DEFECT_CAP + 2)

    def bits(sites, offset):
        return sum(1 << (offset + a) for a in sites if a != last)

    syndromes = []
    for _ in range(150):
        star, plaquette = (rng.choice(L * L, size=2 * int(rng.integers(0, top // 2 + 1)),
                                      replace=False)
                           for _ in range(2))
        syndromes.append(bits(star.tolist(), 0) | bits(plaquette.tolist(), last))
    counts = {len(dec._defects_from_syndrome(s, "star")) for s in syndromes}
    assert counts == set(range(0, top + 1, 2))
    got = dec.corrections(syndromes)
    assert [(c.x_bits, c.z_bits) for c in got] == [_reference_masks(dec, s) for s in syndromes]
    assert [c.x_bits for c in dec.corrections(syndromes[:1])] == [got[0].x_bits]


def test_dp_accepts_numpy_float_matrix():
    rng = np.random.default_rng(21)
    for m in (2, 4, 6, 8):
        a = rng.uniform(0.0, 5.0, size=(m, m))
        dist = a + a.T
        pairs = _dp_matchings(dist[None])[0]
        assert _matching_cost(dist, pairs) == pytest.approx(brute_force_match_cost(dist), rel=1e-12)


def test_mwpm_single_pair_adjacent():
    code = toric_code(4)
    dec = MwpmDecoder(code)
    # defects at vertices (0,0) and (0,1) are joined by the single edge h(0,0)
    mask = dec._matched_masks(np.array([[0, 1]]), "star")[0]
    assert mask == 1 << 0


def test_mwpm_row_path_tie_break():
    code = toric_code(4)
    dec = MwpmDecoder(code)
    # vertices (0,0) and (0,2): canonical correction is the row-0 path via h(0,0), h(0,1)
    mask = dec._matched_masks(np.array([[0, 2]]), "star")[0]
    assert mask == (1 << 0) | (1 << 1)


@pytest.mark.parametrize("L", [3, 4])
def test_mwpm_residual_syndrome_zero_fuzz(L):
    code = toric_code(L)
    dec = MwpmDecoder(code)
    rng = np.random.default_rng(13)
    n = code.n
    for _ in range(400):
        frame = random_pauli(rng, n, p=float(rng.uniform(0.02, 0.4)))
        cx, cz = dec.correction_masks(frame.x_bits, frame.z_bits)
        rx, rz = frame.x_bits ^ cx, frame.z_bits ^ cz
        assert syndrome_of(code, PauliOperator(n, rx, rz)) == 0


def test_mwpm_from_syndrome_matches_masks():
    code = toric_code(3)
    dec = MwpmDecoder(code)
    rng = np.random.default_rng(3)
    for _ in range(200):
        frame = random_pauli(rng, code.n, p=0.15)
        s = syndrome_of(code, frame)
        via_syndrome = dec.correction(s)
        cx, cz = dec.correction_masks(frame.x_bits, frame.z_bits)
        assert (via_syndrome.x_bits, via_syndrome.z_bits) == (cx, cz)


def _incidence_defects(L, x_bits, z_bits):
    """Star and plaquette defects read off the edge incidence of each vertex and
    face, with edges h(r, c) = rL + c and v(r, c) = L^2 + rL + c."""
    def h(r, c):
        return (r % L) * L + c % L

    def v(r, c):
        return L * L + (r % L) * L + c % L

    def odd(edges, bits):
        return sum((bits >> e) & 1 for e in edges) % 2 == 1

    sites = [(r, c) for r in range(L) for c in range(L)]
    stars = [i for i, (r, c) in enumerate(sites)
             if odd((h(r, c - 1), h(r, c), v(r - 1, c), v(r, c)), x_bits)]
    plaquettes = [i for i, (r, c) in enumerate(sites)
                  if odd((h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)), z_bits)]
    return stars, plaquettes


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_defects_match_edge_incidence(L):
    code = toric_code(L)
    dec = MwpmDecoder(code)
    rng = np.random.default_rng(60 + L)
    for _ in range(200):
        frame = random_pauli(rng, code.n, p=float(rng.uniform(0.05, 0.5)))
        stars, plaquettes = _incidence_defects(L, frame.x_bits, frame.z_bits)
        assert dec.star_defects(frame.x_bits) == stars
        assert dec.plaquette_defects(frame.z_bits) == plaquettes
        s = syndrome_of(code, frame)
        assert dec._defects_from_syndrome(s, "star") == stars
        assert dec._defects_from_syndrome(s, "plaquette") == plaquettes


def test_mwpm_decode_sectors():
    # a star syndrome is corrected by an X string, a plaquette one by a Z string
    code = toric_code(4)
    dec = MwpmDecoder(code)
    x_err = PauliOperator.single(code.n, 5, "X")
    s = syndrome_of(code, x_err)
    corr = dec.correction(s)
    assert corr.z_bits == 0
    assert syndrome_of(code, corr) == s
    z_err = PauliOperator.single(code.n, 5, "Z")
    s = syndrome_of(code, z_err)
    corr = dec.correction(s)
    assert corr.x_bits == 0
    assert syndrome_of(code, corr) == s


def test_mwpm_weight_one_corrects():
    code = toric_code(4)
    dec = MwpmDecoder(code)
    for q in range(code.n):
        for letter in "XYZ":
            _, cls = apply_recovery(dec, PauliOperator.single(code.n, q, letter))
            assert cls == "II"


def test_mwpm_undetectable_logical_loop():
    code = toric_code(4)
    dec = MwpmDecoder(code)
    residual, cls = apply_recovery(dec, code.logical_z[0])
    assert residual == code.logical_z[0]
    assert cls == "ZI"


def test_mwpm_many_defects_uses_blossom(monkeypatch):
    code = toric_code(6)
    dec = MwpmDecoder(code)
    rng = np.random.default_rng(99)
    matched = []
    blossom = decoders._blossom_min_matching
    monkeypatch.setattr(decoders, "_blossom_min_matching",
                        lambda dist: matched.append(len(dist)) or blossom(dist))
    # force more defects than the DP takes so the blossom branch runs; verify
    # residual is clean
    for _ in range(20):
        x_bits = 0
        for q in range(code.n):
            if rng.random() < 0.45:
                x_bits |= 1 << q
        if len(dec.star_defects(x_bits)) <= _DP_DEFECT_CAP:
            continue
        cx, _ = dec.correction_masks(x_bits, 0)
        assert syndrome_of(code, PauliOperator(code.n, x_bits ^ cx, 0)) == 0
    assert matched and min(matched) > _DP_DEFECT_CAP


def test_mwpm_decodes_every_toric4_star_syndrome_without_blossom(monkeypatch):
    # toric L = 4 has 16 vertices, so no star syndrome passes the DP's cap
    code = toric_code(4)
    dec = MwpmDecoder(code)

    def refuse(dist):
        raise AssertionError(f"blossom called on {len(dist)} defects")

    monkeypatch.setattr(decoders, "_blossom_min_matching", refuse)
    syndromes = range(1 << 15)  # the 15 star generators come first
    got = dec.corrections(syndromes)
    assert [syndrome_of(code, c) for c in got] == list(syndromes)
    assert not any(c.z_bits for c in got)  # star defects take X strings only


# -- fuzz across decoders --------------------------------------------------------


@pytest.mark.parametrize("make,basis", [
    (five_qubit_code, "pauli"),
    (lambda: repetition_code(5), "x"),
])
def test_lookup_fuzz_zero_residual_syndrome(make, basis):
    # basis is the letter set of the random frames; the table is the Pauli one
    code = make()
    dec = build_lookup(code)
    rng = np.random.default_rng(17)
    letters = "XYZ" if basis == "pauli" else basis.upper()
    for _ in range(2000):
        frame = random_pauli(rng, code.n, letters=letters, p=0.3)
        residual, cls = apply_recovery(dec, frame)
        assert syndrome_of(code, residual) == 0
        assert len(cls) == code.k


# -- pinned matchings ----------------------------------------------------------


def _pinned_defect_lists():
    """Seeded defect lists: L = 4 and 6, m in {2..12}, and {14, 16, 18} at L = 6."""
    for L, sizes in ((4, (2, 4, 6, 8, 10, 12)), (6, (2, 4, 6, 8, 10, 12, 14, 16, 18))):
        rng = np.random.default_rng(4000 + L)
        for _ in range(200):
            m = int(rng.choice(sizes))
            yield L, [int(d) for d in rng.choice(L * L, size=m, replace=False)]


# sha256 of every star and plaquette correction mask over _pinned_defect_lists,
# recorded when the DP's cap went from 12 to 16 defects; it moves if any
# tie-break drifts
_PINNED_MASKS_SHA256 = "c3824956bf9e7300a663d84d0e09739e858a68358551a65b9166de9566b0a5c3"


def test_mwpm_masks_pinned():
    decoders = {L: MwpmDecoder(toric_code(L)) for L in (4, 6)}
    h = hashlib.sha256()
    for L, defects in _pinned_defect_lists():
        for sector in ("star", "plaquette"):
            h.update(f"{L}:{sector}:{decoders[L]._matched_masks(np.array([defects]), sector)[0]:x}\n".encode())
    assert h.hexdigest() == _PINNED_MASKS_SHA256
