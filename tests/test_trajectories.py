import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

from aqec import trajectories
from aqec.bounds import BoundInputs, _first_run_cdf, p_exact_quadrature
from aqec.decoders import MajorityDecoder, MwpmDecoder, build_lookup
from aqec.lindblad import (
    build_lindbladian,
    codespace_basis,
    epsilon_exact,
    pauli_matrix,
    recovery_lindbladian,
    stabilizer_recovery,
)
from aqec.paulis import (
    PauliOperator,
    five_qubit_code,
    multiply,
    repetition_code,
    syndrome_of,
    toric_code,
)
from aqec.trajectories import (
    BLOCK_EVENTS,
    FRAME_SHARD,
    POISSON_LAM_MAX,
    NoiseModel,
    PoissonParams,
    _block_rows,
    _blocks,
    _draw_block,
    _FrameEngine,
    _label_thresholds,
    _with_recoveries,
    check_assumption2,
    estimate_alpha,
    estimate_epsilon,
    estimate_faithful_violation,
    frame_chain_rates,
    shard_rng,
)

from test_decoders import apply_recovery  # the whole-Pauli recovery oracle


def test_params_properties():
    p = PoissonParams(kappa=1.0, delta=0.2, n_channels=15)
    assert p.gamma == pytest.approx(4.0)
    assert p.p0 == pytest.approx(0.25)
    assert p.p1 == pytest.approx(0.75)
    assert PoissonParams(0.0, 0.0, 0).gamma == 0.0
    assert PoissonParams(0.0, 0.0, 0).p0 == 0.0
    with pytest.raises(ValueError):
        PoissonParams(-1.0, 0.1, 3)


def test_noise_model_constructors():
    dep = NoiseModel.depolarizing(5)
    assert dep.n_channels == 15
    letters = {e.to_string() for e in dep.jumps}
    assert len(letters) == 15
    assert all(e.weight == 1 for e in dep.jumps)
    bf = NoiseModel.bit_flip(3)
    assert [e.letter(q) for q, e in enumerate(bf.jumps)] == ["X", "X", "X"]
    dz = NoiseModel.dephasing(2)
    assert [e.letter(q) for q, e in enumerate(dz.jumps)] == ["Z", "Z"]
    with pytest.raises(ValueError, match="jump qubit count mismatch"):
        NoiseModel("bad", 4, dep.jumps[:2])


def test_shard_rng_streams():
    a = shard_rng(7, "epsilon", 0).random(4)
    b = shard_rng(7, "epsilon", 0).random(4)
    c = shard_rng(7, "epsilon", 1).random(4)
    d = shard_rng(7, "alpha", 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _padded(block, pad, width=None):
    """A block as (times, labels) arrays of shape (rows, width): each row's
    events, then time inf and label pad; width defaults to the longest row."""
    counts, ev_t, ev_l = block
    filled = np.arange(counts.max(initial=0) if width is None else width) < counts[:, None]
    times = np.full(filled.shape, np.inf)
    times[filled] = ev_t
    labels = np.full(filled.shape, pad)
    labels[filled] = ev_l
    return times, labels


def _block_of(times, labels):
    """The block of padded (times, labels) arrays: the entries of finite time."""
    drawn = np.isfinite(times)
    return drawn.sum(axis=1), times[drawn], labels[drawn]


def test_trajectory_moments_and_labels():
    # counts ~ Poisson(gamma t); recovery fraction ~ p0; each channel ~ 1/15
    # of the error labels
    noise = NoiseModel.depolarizing(5)
    params = noise.params(kappa=1.0, delta=1.0 / 15.0)
    rng = shard_rng(11, "traj", 0)
    horizon = 2.0
    cum = _label_thresholds(params, noise)
    reps = 2000
    counts = rng.poisson(params.gamma * horizon, reps)
    times, labels = _padded(_draw_block(rng, counts, horizon, cum), 16)
    assert times.shape == labels.shape and times.shape[0] == reps
    assert np.array_equal(np.sort(times, axis=1), times)
    drawn = np.isfinite(times)
    assert np.all((times[drawn] >= 0) & (times[drawn] <= horizon))
    assert np.all((labels[drawn] >= 0) & (labels[drawn] <= 15))
    assert np.all(labels[~drawn] == 16)  # padding names no event
    total = int(drawn.sum())
    recov = int((labels == 0).sum())
    mean = params.gamma * horizon * reps
    assert abs(total - mean) < 3 * np.sqrt(mean)
    frac = recov / total
    assert abs(frac - params.p0) < 3 * np.sqrt(params.p0 * (1 - params.p0) / total)
    per_channel = np.bincount(labels[drawn], minlength=16)[1:]
    errors = total - recov
    assert per_channel.sum() == errors
    p = 1.0 / 15.0
    assert np.all(np.abs(per_channel / errors - p) < 4 * np.sqrt(p * (1 - p) / errors))


def _one_block(rng, rows, params, noise, horizon):
    """The block _blocks draws for a shard of rows trajectories, which must
    fit in one block."""
    (block,) = _blocks(rng, rows, params, noise, horizon)
    return block


def test_trajectory_degenerate():
    rng = shard_rng(0, "traj", 2)
    noise = NoiseModel.bit_flip(2)
    params = noise.params(0.0, 0.0)
    times, labels = _padded(_one_block(rng, 3, params, noise, 5.0), 3)
    assert times.shape == labels.shape == (3, 0)
    params = noise.params(1.0, 1.0)
    times, _ = _padded(_one_block(rng, 3, params, noise, 0.0), 3)
    assert times.shape == (3, 0)
    # kappa = 0 draws no recovery label
    params = noise.params(0.0, 0.5)
    times, labels = _padded(_one_block(rng, 50, params, noise, 4.0), 3)
    assert set(labels[np.isfinite(times)].tolist()) == {1, 2}


def _reference_draws(rng, n, gamma, horizon, cum):
    """n trajectories drawn in stream order: all n Poisson counts first, then
    per trajectory its k uniform times (sorted, scaled) and its k uniform
    labels through the thresholds."""
    if gamma == 0 or horizon == 0:
        return [(np.empty(0), np.empty(0, dtype=np.int64))] * n
    out = []
    for k in rng.poisson(gamma * horizon, n).tolist():
        times = np.sort(rng.random(k)) * horizon
        out.append((times, np.searchsorted(cum, rng.random(k), side="right")))
    return out


@pytest.mark.parametrize("kappa,delta,horizon", [
    (1.0, 0.2, 1.5),   # gamma H = 3: the inversion Poisson sampler, zero-event rows
    (2.0, 0.5, 4.0),   # gamma H = 20: the rejection sampler
    (0.0, 0.0, 2.0),   # gamma = 0
    (1.0, 0.2, 0.0),   # H = 0
])
def test_draw_block_matches_sequential_draws(kappa, delta, horizon, monkeypatch):
    noise = NoiseModel.depolarizing(2)
    params = noise.params(kappa, delta)
    cum = _label_thresholds(params, noise)
    want = _reference_draws(shard_rng(71, "draw", 0), 300, params.gamma, horizon, cum)
    rng = shard_rng(71, "draw", 0)
    # two blocks from one stream: splitting a shard into blocks changes no draw
    monkeypatch.setattr(trajectories, "_block_rows", lambda gamma, horizon: 200)
    got = [_padded(block, noise.n_channels + 1)
           for block in _blocks(rng, 300, params, noise, horizon)]
    rows = [(t, lab) for times, labels in got for t, lab in zip(times, labels)]
    assert len(rows) == len(want)
    for (times, labels), (ref_t, ref_l) in zip(rows, want):
        k = ref_t.size
        assert np.array_equal(times[:k], ref_t) and np.all(times[k:] == np.inf)
        assert np.array_equal(labels[:k], ref_l)
        assert np.all(labels[k:] == noise.n_channels + 1)  # padding names no event
    widths = [times.shape[1] for times, _ in got]
    counts = [t.size for t, _ in want]
    assert widths == [max(counts[:200]), max(counts[200:])]
    if params.gamma * horizon == 0:
        assert widths == [0, 0]
        # nothing was drawn, so the stream is where it started
        assert rng.random() == shard_rng(71, "draw", 0).random()
    elif params.gamma * horizon < 10:
        assert 0 in counts
    else:
        assert min(counts) >= 1


def test_long_horizons_draw_smaller_blocks(monkeypatch):
    # a block's arrays grow with rows * gamma * horizon, so blocks shrink to
    # keep their expected event count near BLOCK_EVENTS
    assert _block_rows(0.0, 5.0) == BLOCK_EVENTS
    assert _block_rows(1.0, 0.5) == BLOCK_EVENTS  # a row counts as at least one event
    assert _block_rows(2.0, 10.0) == BLOCK_EVENTS // 20
    assert _block_rows(1.0, 1e7) == 1
    # and no estimate depends on the block size
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 0.1)
    kw = dict(n_samples=1500, seed=73)

    def run():
        return (estimate_epsilon(code, dec, noise, params, [0.5, 2.0], **kw).per_family,
                check_assumption2(code, dec, noise, params, t=0.4, m=3, **kw).rhs)

    default = run()
    monkeypatch.setattr(trajectories, "BLOCK_EVENTS", 40)
    assert _block_rows(params.gamma, 2.0) == 8  # gamma H = 5
    small = run()
    assert np.array_equal(default[0], small[0]) and default[1] == small[1]


def test_epsilon_no_noise_is_zero():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=0.0, n_channels=15)
    res = estimate_epsilon(code, dec, noise, params, [0.5, 1.0], 500, seed=1)
    assert np.all(res.estimate == 0.0)
    # the error bar of a zero estimate is the half-count floor, not 0
    floor = math.sqrt((0.5 / 500) * (1 - 0.5 / 500) / 500)
    assert res.stderr == pytest.approx([floor, floor], rel=1e-12)


def test_epsilon_basic_shape_and_growth():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=1.0 / 15.0, n_channels=15)
    res = estimate_epsilon(code, dec, noise, params, [0.2, 1.0, 3.0], 4000, seed=5)
    assert res.per_family.shape == (3, 3)
    assert np.all(res.estimate >= 0) and np.all(res.estimate <= 1)
    assert res.estimate[2] > res.estimate[0] > 0
    # estimate is the worst family at each time
    assert np.allclose(res.estimate, res.per_family.max(axis=0))
    assert res.times[0] == 0.2 and res.n_samples == 4000


def test_epsilon_deterministic_and_worker_invariant():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=1.0 / 15.0, n_channels=15)
    # two shards so the pool actually splits work
    kw = dict(times=[0.5, 1.5], n_samples=5000, seed=42)
    a = estimate_epsilon(code, dec, noise, params, **kw, workers=1)
    b = estimate_epsilon(code, dec, noise, params, **kw, workers=1)
    c = estimate_epsilon(code, dec, noise, params, **kw, workers=2)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.estimate, c.estimate)
    assert np.array_equal(a.per_family, c.per_family)


def test_epsilon_rejects_bad_times():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    with pytest.raises(ValueError):
        estimate_epsilon(code, dec, noise, params, [1.0, 0.5], 10, seed=0)


def test_alpha_matches_repetition_closed_form():
    # kappa = 0 bit flips on the 3-qubit repetition code: each qubit is
    # flipped with q = (1 - exp(-2 delta tau)) / 2, majority vote fails
    # when at least two qubits flipped
    code = repetition_code(3)
    dec = MajorityDecoder(code)
    noise = NoiseModel.bit_flip(3)
    tau, delta = 0.5, 1.0
    q = (1 - np.exp(-2 * delta * tau)) / 2
    expect = 3 * q**2 * (1 - q) + q**3
    res = estimate_alpha(code, dec, noise, tau, 20000, seed=9, delta=delta)
    assert abs(res.estimate[0] - expect) < 3 * res.stderr[0] + 1e-12


def test_assumption2_m0_and_m1():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=1.0 / 15.0, n_channels=15)
    r0 = check_assumption2(code, dec, noise, params, t=0.3, m=0, n_samples=100, seed=2)
    assert (r0.lhs, r0.rhs, r0.sigma, r0.holds) == (1.0, 1.0, 0.0, True)
    # m = 1: the paired construction makes both sides identical sample by sample
    r1 = check_assumption2(code, dec, noise, params, t=0.3, m=1, n_samples=2000, seed=2)
    assert r1.lhs == r1.rhs
    assert r1.sigma == 0.0
    assert r1.holds


def test_assumption2_holds_at_m4():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = PoissonParams(kappa=1.0, delta=1.0 / 15.0, n_channels=15)
    r = check_assumption2(code, dec, noise, params, t=0.4, m=4, n_samples=4000, seed=8)
    assert 0 < r.lhs <= 1 and 0 < r.rhs <= 1
    assert r.holds


def test_violation_ell0_closed_form():
    # ell = 0: any error event violates, p(t) = 1 - exp(-N delta t)
    params = PoissonParams(kappa=1.0, delta=0.5, n_channels=2)
    ts = [0.3, 1.0, 2.5]
    res = estimate_faithful_violation(0, params, ts, 65536, seed=13)
    expect = 1 - np.exp(-1.0 * np.asarray(ts))
    assert np.all(np.abs(res.estimate - expect) < 3 * res.stderr + 1e-12)


def test_violation_kappa0_closed_form():
    # kappa = 0: violation at the (ell+1)-th error, p(t) = P[Poisson(N delta t) > ell]
    ell = 2
    params = PoissonParams(kappa=0.0, delta=1.0, n_channels=1)
    ts = np.array([0.5, 2.0, 5.0])
    res = estimate_faithful_violation(ell, params, ts, 65536, seed=21)
    expect = gammainc(ell + 1, ts)
    assert np.all(np.abs(res.estimate - expect) < 3 * res.stderr + 1e-12)


def test_violation_no_noise_and_monotone():
    params = PoissonParams(kappa=2.0, delta=0.0, n_channels=4)
    res = estimate_faithful_violation(3, params, [1.0, 2.0], 1000, seed=4)
    assert np.all(res.estimate == 0.0)
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    res = estimate_faithful_violation(1, params, [0.5, 1.0, 4.0, 9.0], 65536, seed=4)
    assert np.all(np.diff(res.estimate) >= 0)
    assert res.estimate[-1] > 0


def test_zero_and_interior_estimates_error_bars():
    n = 20000
    params = PoissonParams(kappa=1.0, delta=0.0, n_channels=1)
    zero = estimate_faithful_violation(3, params, [1.0], n, seed=4)
    assert zero.estimate[0] == 0.0
    assert zero.stderr[0] > 0
    assert zero.stderr[0] == pytest.approx(math.sqrt(0.5) / n, rel=1e-4)
    # a real miss stays a miss: an exact 1e-3 is ~28 sigma from 0 of 20000
    assert 1e-3 / zero.stderr[0] > 25
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    res = estimate_faithful_violation(1, params, [1.0], n, seed=4)
    est = res.estimate[0]
    assert 0 < est < 1
    assert res.stderr[0] == np.sqrt(est * (1 - est) / n)


def test_violation_deterministic_and_worker_invariant():
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    kw = dict(times=[1.0, 3.0], n_samples=131072, seed=99)
    a = estimate_faithful_violation(2, params, **kw, workers=1)
    b = estimate_faithful_violation(2, params, **kw, workers=2)
    assert np.array_equal(a.estimate, b.estimate)


def test_violation_worker_invariant_when_thinned():
    # q = P[N > ell] < 1/2: counts come from the truncated Poisson table
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    assert gammainc(7, params.gamma * 0.5) < 0.5
    kw = dict(times=[0.25, 0.5], n_samples=1 << 22, seed=7)
    a = estimate_faithful_violation(6, params, **kw, workers=1)
    b = estimate_faithful_violation(6, params, **kw, workers=2)
    assert a.estimate[-1] > 0
    assert np.array_equal(a.estimate, b.estimate)


def _first_run_brute(ell, p1, m):
    """P[some run of ell + 1 errors among m i.i.d. labels], by enumeration."""
    total = 0.0
    for labels in itertools.product((0, 1), repeat=m):
        run = longest = 0
        for error in labels:
            run = run + 1 if error else 0
            longest = max(longest, run)
        if longest > ell:
            errors = sum(labels)
            total += p1 ** errors * (1 - p1) ** (m - errors)
    return total


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("p1", [0.3, 0.5, 1.0])
def test_first_run_cdf_matches_enumeration(ell, p1):
    # F[j] = P[M <= ell + 1 + j]; a table that stopped growing holds its last value
    table = _first_run_cdf(ell, 1.0 - p1, p1, 12 - ell)
    for m in range(ell + 1, 13):
        got = table[min(m - ell - 1, len(table) - 1)]
        assert got == pytest.approx(_first_run_brute(ell, p1, m), abs=1e-12)


@pytest.mark.parametrize("p1", [1e-4, 0.3])
def test_first_run_cdf_at_ell_0_is_geometric(p1):
    # the first error label: F[j] = 1 - p0^(j+1); at p1 = 1e-4 the table
    # stops growing after about 2.8e5 entries
    table = _first_run_cdf(0, 1.0 - p1, p1, 400_000)
    assert len(table) < 400_000
    j = np.arange(len(table))
    assert table == pytest.approx(-np.expm1((j + 1) * np.log1p(-p1)), rel=1e-12, abs=0)


def test_violation_tables_are_bounded():
    params = PoissonParams(kappa=1.0, delta=1.0, n_channels=1)
    # a first run expected after 2^22 labels, within 2e9 events: raise, not fill
    with pytest.raises(ValueError, match="more than 16777216"):
        estimate_faithful_violation(20, params, [1e9], 100, seed=1)
    with pytest.raises(ValueError, match="more than 16777216"):
        p_exact_quadrature(BoundInputs(ell=20, kappa=1.0, delta=1.0, n_channels=1), 1e9)
    # a first run expected after 2^8 labels: the table stops growing early
    assert estimate_faithful_violation(6, params, [1e12], 100, seed=1).estimate[0] == 1.0


def test_epsilon_toric_memoized_decode():
    # toric frames go through the same decode memo as small codes
    code = toric_code(3)
    dec = MwpmDecoder(code)
    noise = NoiseModel.bit_flip(code.n)
    params = PoissonParams(kappa=1.0, delta=0.05, n_channels=code.n)
    res = estimate_epsilon(code, dec, noise, params, [0.5], 200, seed=3)
    assert 0 <= res.estimate[0] <= 1


# -- pinned counts: the draw order and the frame walk must not drift ----------


def test_epsilon_pinned_counts():
    code = five_qubit_code()
    noise = NoiseModel.depolarizing(5)
    n = 3000
    res = estimate_epsilon(code, build_lookup(code), noise, noise.params(1.0, 0.1),
                           [0.0, 0.5, 1.0, 3.0], n, seed=17)
    assert np.rint(res.per_family * n).astype(int).tolist() == [
        [0, 234, 549, 1251], [0, 249, 545, 1250], [0, 231, 550, 1211]]


def test_alpha_pinned_count():
    code = toric_code(3)
    n = 2000
    res = estimate_alpha(code, MwpmDecoder(code), NoiseModel.depolarizing(code.n),
                         0.1, n, seed=23)
    assert round(res.estimate[0] * n) == 911


def test_assumption2_pinned_counts():
    # kappa = 2 puts recoveries inside the paired loop on most samples
    code = toric_code(3)
    noise = NoiseModel.depolarizing(code.n)
    n = 1500
    r = check_assumption2(code, MwpmDecoder(code), noise, noise.params(2.0, 0.3),
                          t=0.1, m=4, n_samples=n, seed=29)
    assert (round(r.lhs * n), round(r.rhs * n)) == (769, 1130)
    assert r.sigma == pytest.approx(0.013631977656041506, rel=1e-12)
    assert r.holds


def test_wide_phi_pinned_counts():
    # toric L = 6 packs phi into 70 + 4 bits, past int64: the walk runs on
    # Python ints.  Bit flips at small tau keep the matcher on its DP.
    code = toric_code(6)
    noise = NoiseModel.bit_flip(code.n)
    assert _FrameEngine(code, MwpmDecoder(code), noise).dtype is object
    n = 2000
    res = estimate_alpha(code, MwpmDecoder(code), noise, 0.1, n, seed=61)
    assert round(res.estimate[0] * n) == 430
    n = 1500
    r = check_assumption2(code, MwpmDecoder(code), noise, noise.params(2.0, 0.3),
                          t=0.1, m=4, n_samples=n, seed=67)
    assert (round(r.lhs * n), round(r.rhs * n)) == (1156, 1464)
    assert r.sigma == pytest.approx(0.01096980367156097, rel=1e-12)


def test_assumption2_worker_invariant():
    code = five_qubit_code()
    noise = NoiseModel.depolarizing(5)
    kw = dict(params=noise.params(1.0, 1.0 / 15.0), t=0.3, m=3, n_samples=5000, seed=31)
    a = check_assumption2(code, build_lookup(code), noise, **kw, workers=1)
    b = check_assumption2(code, build_lookup(code), noise, **kw, workers=2)
    assert (a.lhs, a.rhs, a.sigma, a.holds) == (b.lhs, b.rhs, b.sigma, b.holds)


def test_zero_rates_draw_nothing_and_do_not_warn():
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times, labels = _padded(_one_block(shard_rng(0, "traj", 3), 4, params, noise, 2.0), 16)
        assert times.shape == labels.shape == (4, 0)
        res = estimate_epsilon(code, dec, noise, params, [0.5, 1.0], 100, seed=1)
        assert np.all(res.estimate == 0.0)
        r = check_assumption2(code, dec, noise, params, t=0.5, m=3, n_samples=100, seed=1)
        assert (r.lhs, r.rhs, r.sigma, r.holds) == (1.0, 1.0, 0.0, True)


def test_epsilon_toric_worker_invariant():
    # the pool pickles the MWPM decoder with the shard function
    code = toric_code(3)
    noise = NoiseModel.bit_flip(code.n)
    kw = dict(params=noise.params(1.0, 0.02), times=[0.5, 1.0],
              n_samples=FRAME_SHARD + 100, seed=37)
    a = estimate_epsilon(code, MwpmDecoder(code), noise, **kw, workers=1)
    b = estimate_epsilon(code, MwpmDecoder(code), noise, **kw, workers=2)
    assert np.array_equal(a.per_family, b.per_family)
    assert a.estimate[1] > 0


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("shards", [1, 3, 5])
def test_run_shards_pool_never_outnumbers_its_shards(workers, shards, monkeypatch):
    # a stand-in pool records its size and its tasks and maps in this process
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            jobs = list(zip(*iterables))
            self.tasks = len(range(0, len(jobs), chunksize))  # one per chunk
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(trajectories, "ProcessPoolExecutor", SerialPool)

    def shard(n, rng):
        return np.array([n, rng.integers(1 << 40)])

    n_samples = 10 * shards - 3
    want = trajectories._run_shards(shard, n_samples, 10, 5, "pool", workers=1)
    got = trajectories._run_shards(shard, n_samples, 10, 5, "pool", workers=workers)
    assert np.array_equal(got, want) and want[0] == n_samples
    if shards == 1:
        assert pools == []
    else:
        [pool] = pools
        assert pool.max_workers == min(workers, shards)
        assert 1 < pool.tasks <= pool.max_workers


@pytest.mark.parametrize("n_samples", [0, -3])
def test_estimators_reject_nonpositive_sample_counts(n_samples):
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    calls = [
        lambda: estimate_epsilon(code, dec, noise, params, [0.5], n_samples, seed=1),
        lambda: estimate_alpha(code, dec, noise, 0.5, n_samples, seed=1),
        lambda: check_assumption2(code, dec, noise, params, t=0.3, m=2,
                                  n_samples=n_samples, seed=1),
        lambda: check_assumption2(code, dec, noise, params, t=0.3, m=0,
                                  n_samples=n_samples, seed=1),
        lambda: estimate_faithful_violation(2, params, [0.5], n_samples, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_samples must be positive"):
            call()


def test_estimators_reject_bad_times_before_sampling(monkeypatch):
    # each bad time names its argument, and no shard is ever started
    def no_shards(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(trajectories, "_run_shards", no_shards)
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    # an infinite tau or t used to leak numpy's "lam value too large"
    for tau in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            estimate_alpha(code, dec, noise, tau, 100, seed=1)
    for t, m in ((-0.3, 0), (-0.3, 2), (math.nan, 2), (math.inf, 2)):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            check_assumption2(code, dec, noise, params, t=t, m=m, n_samples=100, seed=1)
    for times in ([math.nan], [0.5, math.nan], [math.nan, 0.5]):
        with pytest.raises(ValueError, match="times must be"):
            estimate_epsilon(code, dec, noise, params, times, 100, seed=1)
        with pytest.raises(ValueError, match="times must be finite, nondecreasing"):
            estimate_faithful_violation(2, params, times + [2.0], 100, seed=1)
    for times in ([math.inf], [1.0, math.inf], [], [2.0, 1.0]):
        with pytest.raises(ValueError, match="times must be finite, nondecreasing"):
            estimate_faithful_violation(6, noise.params(1.0, 1e-3), times, 100, seed=1)
    # huge finite times used to leak numpy's "lam value too large" from _draw_block
    with pytest.raises(ValueError, match="exceeds the Poisson sampler's limit"):
        estimate_epsilon(code, dec, noise, params, [0.5, 1e300], 100, seed=1)
    with pytest.raises(ValueError, match="exceeds the Poisson sampler's limit"):
        estimate_alpha(code, dec, noise, 1e300, 100, seed=1)
    with pytest.raises(ValueError, match="exceeds the Poisson sampler's limit"):
        check_assumption2(code, dec, noise, params, t=1e200, m=3, n_samples=100, seed=1)
    # gamma * horizon exactly at the limit is still drawable (params.gamma = 2)
    with pytest.raises(AssertionError, match="a shard ran"):
        estimate_epsilon(code, dec, noise, params, [POISSON_LAM_MAX / 2], 100, seed=1)


def test_estimators_take_integral_sample_counts():
    # fractional counts raise; integral floats run as their int
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    calls = [
        lambda n: estimate_epsilon(code, dec, noise, params, [0.5], n, seed=1),
        lambda n: estimate_alpha(code, dec, noise, 0.5, n, seed=1),
        lambda n: check_assumption2(code, dec, noise, params, t=0.3, m=2, n_samples=n, seed=1),
        lambda n: check_assumption2(code, dec, noise, params, t=0.3, m=0, n_samples=n, seed=1),
        lambda n: estimate_faithful_violation(2, params, [0.5], n, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_samples must be a nonnegative integer"):
            call(2.5)
        a, b = call(10.0), call(10)
        assert a.n_samples == 10 and type(a.n_samples) is int
        for field in ("estimate", "per_family", "lhs", "rhs", "sigma"):
            assert np.array_equal(getattr(a, field, None), getattr(b, field, None))


@pytest.mark.parametrize("kappa,delta,n_channels", [
    (1.0, math.nan, 1), (math.nan, 1.0, 1), (1.0, math.inf, 1), (math.inf, 1.0, 1),
    (1.0, 1.0, 2.5), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, -1),
])
def test_params_reject_nonfinite_rates_and_fractional_channels(kappa, delta, n_channels):
    with pytest.raises(ValueError, match="finite|integer|nonnegative"):
        PoissonParams(kappa, delta, n_channels)
    assert PoissonParams(1.0, 0.1, 15.0).gamma == pytest.approx(2.5)
    # an integral float channel count draws as its integer
    noise = NoiseModel.depolarizing(5)
    assert np.array_equal(_label_thresholds(PoissonParams(1.0, 0.1, 15.0), noise),
                          _label_thresholds(noise.params(1.0, 0.1), noise))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["xi", "chi", "kappa", "delta", "l_e_norm", "r0"])
def test_bound_inputs_reject_nonfinite_fields(name, value):
    # delta_eff, the theorems and p_exact_quadrature used to return NaN, or
    # leak an OverflowError, on such inputs
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        BoundInputs(**{name: value})
    assert getattr(BoundInputs(**{name: 0.5}), name) == 0.5


def test_estimators_reject_fractional_ell_and_m():
    code = five_qubit_code()
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
        estimate_faithful_violation(2.5, params, [1.0], 100, seed=1)
    with pytest.raises(ValueError, match="m must be a nonnegative integer"):
        check_assumption2(code, build_lookup(code), noise, params, t=0.3, m=2.5,
                          n_samples=100, seed=1)


# -- the exact frame chain ----------------------------------------------------------


def test_frame_chain_matches_lindblad_epsilon_exact():
    # independent oracle: DOP853 on the Pauli axes' three stacked 32x32 states
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    kappa, delta = 1.0, 1.0 / 15.0
    ts = [0.05, 0.5, 2.0]
    recovery = stabilizer_recovery(code, dec)
    jumps = [(pauli_matrix(e), delta) for e in noise.jumps]
    lind = build_lindbladian(jumps) + recovery_lindbladian(recovery, kappa)
    want = epsilon_exact(lind, recovery, codespace_basis(code), ts)
    got = frame_chain_rates(code, dec, noise, noise.params(kappa, delta), ts)
    assert got.shape == (3, 3)
    assert np.max(np.abs(got.max(axis=0) - want)) <= 1e-8


@pytest.mark.parametrize("name", ["five_lookup", "rep5_majority"])
def test_frame_chain_matches_sampled_families(name):
    decoder, noise, (kappa, delta) = _walk_setup(name)
    params = noise.params(kappa, delta)
    ts, n = [0.25, 1.0, 3.0], 20000
    exact = frame_chain_rates(decoder.code, decoder, noise, params, ts)
    mc = estimate_epsilon(decoder.code, decoder, noise, params, ts, n, seed=53)
    sigma = np.sqrt(exact * (1 - exact) / n)
    assert np.all(np.abs(mc.per_family - exact) <= 4 * sigma + 1e-12)
    assert exact.min() >= 0 and exact.max() > 0.01


def test_frame_chain_repetition_closed_form_at_kappa_0():
    # each qubit is flipped with p = (1 - exp(-2 delta tau)) / 2, and the
    # majority vote fails when at least two of the three flipped
    code = repetition_code(3)
    noise = NoiseModel.bit_flip(3)
    delta = 1.0
    taus = np.array([0.0, 0.1, 0.5, 2.0, 10.0])
    rates = frame_chain_rates(code, MajorityDecoder(code), noise,
                              noise.params(0.0, delta), taus)
    p = (1 - np.exp(-2 * delta * taus)) / 2
    assert np.max(np.abs(rates[0] - (3 * p**2 * (1 - p) + p**3))) <= 1e-14
    assert np.all(rates[1] == 0)  # no Z-type logical under bit flips


def test_frame_chain_domain():
    code = toric_code(4)
    noise = NoiseModel.depolarizing(code.n)
    with pytest.raises(ValueError, match=f"{2 ** 34} states"):
        frame_chain_rates(code, MwpmDecoder(code), noise, noise.params(1.0, 0.01), [1.0])
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(5)
    params = noise.params(1.0, 1.0 / 15.0)
    for times in ([math.nan], [1.0, math.inf], [math.inf], [-0.5, 1.0], [1.0, 0.5], []):
        with pytest.raises(ValueError, match="times must be"):
            frame_chain_rates(code, dec, noise, params, times)


# -- the phi walk against Pauli products ------------------------------------------


def _reference_walk(decoder, noise, ev_t, ev_l, readouts, commit):
    """The frame walk on whole Pauli frames, decoded by apply_recovery.

    Returns the (x, z) class bitmasks at each readout and the set of
    syndromes decoded on the way.
    """
    code = decoder.code
    frame = PauliOperator.identity(code.n)
    seen = set()

    def recover(f):
        seen.add(syndrome_of(code, f))
        return apply_recovery(decoder, f)

    out = []
    ev = 0
    for t_read in readouts:
        while ev < len(ev_t) and ev_t[ev] <= t_read:
            lab = int(ev_l[ev])
            ev += 1
            frame = multiply(noise.jumps[lab - 1], frame) if lab else recover(frame)[0]
        residual, letters = recover(frame)
        out.append((sum((c in "XY") << i for i, c in enumerate(letters)),
                    sum((c in "ZY") << i for i, c in enumerate(letters))))
        if commit:
            frame = residual
    return out, seen


def _walk_setup(name):
    """(decoder, noise, (kappa, delta)) of one oracle setup."""
    if name == "five_lookup":
        code = five_qubit_code()
        return build_lookup(code), NoiseModel.depolarizing(5), (1.0, 0.1)
    if name == "rep5_majority":
        return MajorityDecoder(repetition_code(5)), NoiseModel.bit_flip(5), (1.0, 0.3)
    code = toric_code(3)
    return MwpmDecoder(code), NoiseModel.depolarizing(code.n), (2.0, 0.05)


def _rows_of(block):
    """The (times, labels) of each row of a block."""
    counts, ev_t, ev_l = block
    cuts = np.cumsum(counts)[:-1]
    return list(zip(np.split(ev_t, cuts), np.split(ev_l, cuts)))


def _walked(engine, block, readouts, commit):
    """The engine's classes at readouts; with commit, a recovery event is
    merged in at each readout, as the reference walk commits one there."""
    if commit:
        return engine.walk_block(*_with_recoveries(*block, readouts), readouts)
    return engine.walk_block(*block, readouts)


@pytest.mark.parametrize("commit", [False, True])
@pytest.mark.parametrize("name", ["five_lookup", "rep5_majority", "toric3_mwpm"])
def test_phi_walk_matches_pauli_reference(name, commit):
    dec, noise, rates = _walk_setup(name)
    params = noise.params(*rates)
    engine = _FrameEngine(dec.code, dec, noise)
    rng = shard_rng(54, name, int(commit))
    cum = _label_thresholds(params, noise)
    readouts = [0.3, 0.7, 1.0, 1.0, 1.6]
    block = _draw_block(rng, rng.poisson(params.gamma * readouts[-1], 150), readouts[-1], cum)
    tx, tz = _walked(engine, block, readouts, commit)
    assert tx.shape == tz.shape == (150, len(readouts))
    classes = set()
    for i, (t, lab) in enumerate(_rows_of(block)):
        want, _ = _reference_walk(dec, noise, t, lab, readouts, commit)
        assert list(zip(tx[i].tolist(), tz[i].tolist())) == want
        classes.update(want)
    assert len(classes) > 1  # some draws end in a logical flip
    counts = [t.size for t, _ in _rows_of(block)]
    assert min(counts) < max(counts)  # rows hold different event counts
    if name == "toric3_mwpm":
        assert any(x and z for x, z in classes)  # both sectors, and Y
    else:
        assert 0 in counts  # and some rows draw no event


@pytest.mark.parametrize("commit", [False, True])
def test_wide_phi_walk_matches_pauli_reference(commit):
    # toric L = 6 packs phi into 74 bits: the prefix XORs run on Python ints
    code = toric_code(6)
    noise = NoiseModel.depolarizing(code.n)
    params = noise.params(2.0, 0.1)
    engine = _FrameEngine(code, MwpmDecoder(code), noise)
    assert engine.dtype is object
    readouts = [0.3, 0.7, 1.0, 1.0, 1.6]
    rng = shard_rng(79, "wide", int(commit))
    block = _draw_block(rng, rng.poisson(params.gamma * readouts[-1], 60), readouts[-1],
                        _label_thresholds(params, noise))
    tx, tz = _walked(engine, block, readouts, commit)
    ref_dec = MwpmDecoder(code)
    classes = set()
    for i, (t, lab) in enumerate(_rows_of(block)):
        want, _ = _reference_walk(ref_dec, noise, t, lab, readouts, commit)
        assert list(zip(tx[i].tolist(), tz[i].tolist())) == want
        classes.update(want)
    assert np.count_nonzero(block[2] == 0) > 100  # many recoveries mid-row
    assert any(x and z for x, z in classes)


@pytest.mark.parametrize("commit", [False, True])
def test_phi_walk_edge_cases_match_pauli_reference(commit):
    # rep-3 majority under bit flips: two flips between recoveries are a
    # logical X.  Rows: no events; a recovery first; two recoveries in a
    # row; two flips at t = 0.  Readouts at 0 and at event times.
    code = repetition_code(3)
    dec = MajorityDecoder(code)
    noise = NoiseModel.bit_flip(3)
    engine = _FrameEngine(code, dec, noise)
    rows = [
        ([], []),
        ([0.0, 0.0, 0.3], [0, 1, 2]),
        ([0.1, 0.3, 0.3, 0.5, 0.5], [1, 0, 0, 2, 3]),
        ([0.0, 0.0], [1, 2]),
    ]
    block = (np.array([len(t) for t, _ in rows]),
             np.array([x for t, _ in rows for x in t]),
             np.array([x for _, lab in rows for x in lab], dtype=np.int64))
    readouts = [0.0, 0.1, 0.3, 0.5, 1.0]
    tx, tz = _walked(engine, block, readouts, commit)
    got = [list(zip(x, z)) for x, z in zip(tx.tolist(), tz.tolist())]
    want = [_reference_walk(dec, noise, t, lab, readouts, commit)[0] for t, lab in rows]
    assert got == want
    assert {c for row in want[1:] for c in row} == {(0, 0), (1, 0)}
    # a block with no events reads the identity class everywhere
    empty = (np.zeros(3, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))
    tx, tz = _walked(engine, empty, readouts, commit)
    assert tx.shape == tz.shape == (3, len(readouts))
    assert not tx.any() and not tz.any()
    assert _reference_walk(dec, noise, [], [], readouts, commit)[0] == [(0, 0)] * len(readouts)


def test_frame_engine_rejects_noise_on_another_qubit_count():
    # depolarizing(7) on the five-qubit code: the two extra qubits' jumps
    # commute with every check, and were walked as identity
    code = five_qubit_code()
    dec = build_lookup(code)
    noise = NoiseModel.depolarizing(7)
    params = noise.params(1.0, 0.1)
    calls = [
        lambda: estimate_epsilon(code, dec, noise, params, [1.0], 100, seed=1),
        lambda: estimate_alpha(code, dec, noise, 0.5, 100, seed=1),
        lambda: check_assumption2(code, dec, noise, params, t=0.3, m=2, n_samples=100, seed=1),
        lambda: frame_chain_rates(code, dec, noise, params, [1.0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="acts on 7 qubits, the code five_qubit on 5"):
            call()


def test_forced_recovery_follows_an_error_at_its_time():
    # X0 at 0.5, then X1 and a forced recovery both at 1.0.  Error first, the
    # majority vote completes a logical X; recovery first, it would undo X0
    # and the readout's recovery would undo X1.
    code = repetition_code(3)
    dec = MajorityDecoder(code)
    noise = NoiseModel.bit_flip(3)
    engine = _FrameEngine(code, dec, noise)
    ev_t, ev_l = np.array([[0.5, 1.0, np.inf]]), np.array([[1, 2, 4]])  # 4 pads
    merged = _with_recoveries(*_block_of(ev_t, ev_l), [1.0])
    merged_t, merged_l = _padded(merged, 4, width=4)
    assert merged_t.tolist() == [[0.5, 1.0, 1.0, np.inf]]
    assert merged_l.tolist() == [[1, 2, 0, 4]]
    tx, tz = engine.walk_block(*merged, [1.0, 2.0])
    assert (tx.tolist(), tz.tolist()) == ([[1, 1]], [[0, 0]])
    want, _ = _reference_walk(dec, noise, [0.5, 1.0], [1, 2], [1.0, 2.0], True)
    assert want == [(1, 0), (1, 0)]
    swapped = _block_of(merged_t, np.array([[1, 0, 2, 4]]))
    assert engine.walk_block(*swapped, [2.0])[0].tolist() == [[0]]


def test_phi_walk_decodes_once_per_distinct_syndrome():
    dec, noise, rates = _walk_setup("toric3_mwpm")
    ref_dec = _walk_setup("toric3_mwpm")[0]  # its decodes are not counted
    params = noise.params(*rates)
    calls = []
    corrections = dec.corrections

    def counted(syndromes):
        calls.extend(syndromes)
        return corrections(syndromes)

    dec.corrections = counted
    engine = _FrameEngine(dec.code, dec, noise)  # one engine, as in one shard
    rng = shard_rng(59, "count", 0)
    cum = _label_thresholds(params, noise)
    readouts = [0.5, 1.0, 1.5]
    seen = set()
    # two blocks, one with recoveries merged in at the readouts, share the memo
    for rows, commit in ((120, True), (80, False)):
        block = _draw_block(rng, rng.poisson(params.gamma * readouts[-1], rows), readouts[-1],
                            cum)
        _walked(engine, block, readouts, commit)
        for t, lab in _rows_of(block):
            seen |= _reference_walk(ref_dec, noise, t, lab, readouts, commit)[1]
    assert len(calls) == len(set(calls))
    assert set(calls) == seen
    assert len(seen) > 10


def _counted_toric3():
    """toric L=3 MWPM setup whose decoder records every syndrome it decodes."""
    dec, noise, rates = _walk_setup("toric3_mwpm")
    calls = []
    corrections = dec.corrections

    def counted(syndromes):
        calls.extend(syndromes)
        return corrections(syndromes)

    dec.corrections = counted
    return dec, noise, noise.params(*rates), calls


def test_estimators_decode_once_per_distinct_syndrome_per_decoder():
    dec, noise, params, calls = _counted_toric3()
    kw = dict(times=[0.5, 1.0], n_samples=2 * FRAME_SHARD + 100, seed=61)
    first = estimate_epsilon(dec.code, dec, noise, params, **kw)  # three shards
    assert len(calls) == len(set(calls)) > 10
    decoded = len(calls)
    again = estimate_epsilon(dec.code, dec, noise, params, **kw)
    assert len(calls) == decoded  # every syndrome of the second call is memoized
    assert np.array_equal(first.per_family, again.per_family)
    estimate_epsilon(dec.code, dec, noise, params, **dict(kw, seed=62))
    assert len(calls) == len(set(calls)) > decoded


def test_decode_memo_cap_keeps_outputs(monkeypatch):
    kw = dict(times=[0.5, 1.0], n_samples=FRAME_SHARD + 100, seed=63)
    dec, noise, params, _ = _counted_toric3()
    want = estimate_epsilon(dec.code, dec, noise, params, **kw).per_family
    monkeypatch.setattr(trajectories, "DECODE_MEMO_CAP", 4)
    dec, noise, params, calls = _counted_toric3()
    got = estimate_epsilon(dec.code, dec, noise, params, **kw).per_family
    assert np.array_equal(got, want)
    assert len(trajectories._decode_memos[dec]) <= 4
    assert len(calls) > len(set(calls))  # cleared memos decoded some syndromes again


# -- pinned estimator outputs: a pure refactor keeps every one of them -----------


def test_estimator_outputs_pinned():
    code = toric_code(3)
    noise = NoiseModel.depolarizing(code.n)
    n = FRAME_SHARD + 100  # two shards
    res = estimate_epsilon(code, MwpmDecoder(code), noise, noise.params(2.0, 0.02),
                           [0.25, 1.0, 2.0], n, seed=43)
    assert np.rint(res.per_family * n).astype(int).tolist() == [
        [6, 79, 216], [3, 87, 226], [9, 154, 381]]
    code = five_qubit_code()
    noise = NoiseModel.depolarizing(5)
    r = check_assumption2(code, build_lookup(code), noise, noise.params(1.0, 0.1),
                          t=0.3, m=3, n_samples=n, seed=47)
    assert (r.lhs, r.rhs, r.sigma) == (
        0.8367492850333651, 0.9034795042897998, 0.00496097058503356)
    # MWPM with forced recoveries at m - 1 = 4 interior times, and alpha
    code = toric_code(3)
    noise = NoiseModel.bit_flip(code.n)
    r = check_assumption2(code, MwpmDecoder(code), noise, noise.params(2.0, 0.05),
                          t=0.2, m=5, n_samples=n, seed=71)
    assert (r.lhs, r.rhs, r.sigma, r.holds) == (
        0.967349857006673, 0.9897521448999047, 0.002381960878588515, True)
    a = estimate_alpha(code, MwpmDecoder(code), noise, 0.3, n, seed=73)
    assert (a.estimate[0], a.stderr[0]) == (0.6012869399428027, 0.007558809086348611)
    # toric L=6 alpha, where 4 to 26 defects split one batch between the DP
    # and the blossom
    code = toric_code(6)
    noise = NoiseModel.bit_flip(code.n)
    flips = [estimate_alpha(code, MwpmDecoder(code), noise, tau, 1000, seed=seed).estimate[0] * 1000
             for tau, seed in ((0.2, 83), (0.3, 89))]
    assert np.rint(flips).astype(int).tolist() == [591, 716]
