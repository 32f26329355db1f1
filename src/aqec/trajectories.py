"""Poisson point-process Monte Carlo for dissipative error correction.

The dynamics is unravelled as a homogeneous Poisson process with total rate
gamma = kappa + N*Delta: each event is a recovery (probability kappa/gamma)
or one of N error jumps.  For stabilizer codes under Pauli jumps the state is
always (Pauli frame) x (codeword), so trajectories are simulated on the
frame's syndrome and logical parity, and recoveries reduce to syndrome
decoding.

Every frame estimator draws a shard's samples in blocks of rows (_blocks:
first every row's Poisson event count in one call, then per block one call
for the uniforms, each row's times followed by its labels; about
BLOCK_EVENTS events, and so at most BLOCK_EVENTS rows).  A block is flat:
each row's event count, then every row's events one row after another, with
no padding.  One frame walk (_FrameEngine.walk_block) reads the logical class
out of a whole block at given times, with no loop over rows or events: prefix
XORs carry each frame as phi = (syndrome, logical parity), one int that each
error event XORs, and one batched decode serves all of the block's
recoveries, each distinct syndrome decoded once per decoder (_decode_memos):
the syndromes the memo misses go to the decoder together, in one
Decoder.corrections call, which the MWPM decoder solves as a batch.
A forced recovery, such as Assumption 2's recovery at every j*t, is one more
label-0 event inserted into every row.

The run-length violation sampler (estimate_faithful_violation) draws no
event sequence.  A trajectory violates by t iff the label completing its
first run of ell + 1 errors comes no later than its last event before t, so
per trajectory it draws a Poisson event count, that first-run index by
inverse CDF from the first-run table (bounds._first_run_cdf, whose
Poisson-weighted sum is the exact p(t) of bounds.p_exact_quadrature), and the
violation time as a Beta order statistic of the event times; binomial
thinning first drops the trajectories with too few events to violate.

Determinism contract: every estimator draws from per-shard streams keyed by
(root seed, estimator tag, shard index) and merges shard statistics in shard
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm
from scipy.special import gammainc

from .bounds import (
    _first_run_cdf,
    _first_run_sizes,
    _poisson_weights,
    _require_count,
    _require_finite,
    _require_table_size,
    readout_times,
)
from .decoders import Decoder
from .paulis import PauliOperator, StabilizerCode, anticommutation_bits

__all__ = [
    "PoissonParams",
    "NoiseModel",
    "shard_rng",
    "estimate_epsilon",
    "frame_chain_rates",
    "estimate_alpha",
    "check_assumption2",
    "estimate_faithful_violation",
]

FRAME_SHARD = 4096       # samples per shard in frame-tracking estimators
BLOCK_EVENTS = 8192      # expected events per block; bounds a block's arrays
VIOLATION_SHARD = 65536  # samples per shard in the run-length sampler
CHAIN_MAX_STATES = 4096  # largest phi space frame_chain_rates exponentiates
DECODE_MEMO_CAP = 200_000  # syndromes per decoder memo, cleared when full: 28 MB at toric L=8
# numpy's largest Poisson mean; a row's event count is Poisson(gamma * horizon)
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class PoissonParams:
    """Rates of the unravelled process: recovery kappa, N error channels at Delta."""

    kappa: float
    delta: float
    n_channels: int

    def __post_init__(self):
        _require_finite("kappa", self.kappa)
        _require_finite("delta", self.delta)
        _require_count("n_channels", self.n_channels)

    @property
    def gamma(self) -> float:
        return self.kappa + self.n_channels * self.delta

    @property
    def p0(self) -> float:
        return self.kappa / self.gamma if self.gamma > 0 else 0.0

    @property
    def p1(self) -> float:
        """Probability that a given event is an error jump."""
        return 1.0 - self.p0 if self.gamma > 0 else 0.0


@dataclass(frozen=True)
class NoiseModel:
    """Pauli jump set {E_mu}: N channels, each at rate delta (total N * delta)."""

    name: str
    n: int
    jumps: tuple

    def __post_init__(self):
        for e in self.jumps:
            if e.n != self.n:
                raise ValueError("jump qubit count mismatch")

    @property
    def n_channels(self) -> int:
        return len(self.jumps)

    def params(self, kappa: float, delta: float) -> PoissonParams:
        return PoissonParams(kappa=kappa, delta=delta, n_channels=self.n_channels)

    @staticmethod
    def depolarizing(n: int) -> "NoiseModel":
        jumps = tuple(PauliOperator.single(n, q, letter)
                      for q in range(n) for letter in "XYZ")
        return NoiseModel("depolarizing", n, jumps)

    @staticmethod
    def bit_flip(n: int) -> "NoiseModel":
        return NoiseModel("bit_flip", n, tuple(PauliOperator.single(n, q, "X") for q in range(n)))

    @staticmethod
    def dephasing(n: int) -> "NoiseModel":
        return NoiseModel("dephasing", n, tuple(PauliOperator.single(n, q, "Z") for q in range(n)))


def shard_rng(root_seed: int, tag: str, shard: int) -> np.random.Generator:
    """Counter-based stream for one shard; streams never overlap across tags."""
    key = hashlib.blake2b(f"{root_seed}:{tag}:{shard}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))


def _label_rates(params: PoissonParams, noise: NoiseModel) -> np.ndarray:
    """Rate of each event label: [kappa, delta, ..., delta], N deltas."""
    if noise.n_channels != params.n_channels:
        raise ValueError("noise model and params disagree on channel count")
    return np.array([params.kappa] + [params.delta] * noise.n_channels, dtype=float)


def _label_thresholds(params: PoissonParams, noise: NoiseModel) -> np.ndarray:
    """Cumulative label probabilities [p0, p0+p_1, ..., 1]; None when gamma = 0."""
    rates = _label_rates(params, noise)
    if params.gamma == 0:
        return None  # no event is ever drawn, and 0/0 thresholds would be NaN
    cum = np.cumsum(rates) / rates.sum()
    cum[-1] = 1.0  # guard against float shortfall mapping a draw out of range
    return cum


def _draw_block(rng: np.random.Generator, counts: np.ndarray, horizon: float,
                cum) -> tuple:
    """(counts, times, labels) of len(counts) trajectories on [0, horizon],
    the i-th with counts[i] events.

    One call draws 2 * sum(counts) uniforms, row by row: each row's k times
    (sorted, then scaled by the horizon), then its k labels mapped through
    the thresholds cum.  times and labels hold the rows' events one row
    after another, sum(counts) of each.  Nothing is drawn when no row has an
    event.
    """
    total = int(counts.sum())
    if total == 0:
        return counts, np.empty(0), np.empty(0, dtype=np.int64)
    flat = rng.random(2 * total)
    # a row whose events start at event s holds its k times from flat[2s] on,
    # then its k label uniforms
    at = np.arange(total) + np.repeat(np.cumsum(counts) - counts, counts)
    # sorting each row is cheapest on a padded copy, dropped once sorted
    filled = np.arange(counts.max()) < counts[:, None]
    times = np.full(filled.shape, np.inf)
    times[filled] = flat[at]
    times.sort(axis=1)
    labels = np.searchsorted(cum, flat[at + np.repeat(counts, counts)], side="right")
    return counts, times[filled] * horizon, labels


def _require_drawable(gamma: float, horizon: float) -> None:
    """Raises unless _blocks can draw Poisson(gamma * horizon) counts."""
    if not gamma * horizon <= POISSON_LAM_MAX:
        raise ValueError(f"gamma * horizon = {gamma * horizon:.3g} expected events per "
                         f"trajectory exceeds the Poisson sampler's limit {POISSON_LAM_MAX:.3g}")


def _block_rows(gamma: float, horizon: float) -> int:
    """Rows per block: as many as keep the block's expected event count
    within BLOCK_EVENTS, counting a row as at least one event (so at most
    BLOCK_EVENTS rows), and at least 1."""
    return max(1, int(BLOCK_EVENTS // max(gamma * horizon, 1.0)))


def _blocks(rng: np.random.Generator, n_samples: int, params: PoissonParams,
            noise: NoiseModel, horizon: float):
    """The (counts, times, labels) blocks of n_samples trajectories on [0, horizon].

    One call draws every row's Poisson(gamma * horizon) event count, then
    each block draws its rows' times and labels (_draw_block), in row order;
    the stream is the same for any block size, so splitting a shard into
    blocks changes no output.  Nothing is drawn when gamma or the horizon
    is 0.
    """
    cum = _label_thresholds(params, noise)
    counts = rng.poisson(params.gamma * horizon, n_samples)  # a mean of 0 reads no stream
    rows = _block_rows(params.gamma, horizon)
    for start in range(0, n_samples, rows):
        yield _draw_block(rng, counts[start:start + rows], horizon, cum)


def _ends_at(counts: np.ndarray, ev_t: np.ndarray, times) -> np.ndarray:
    """Shape (rows, len(times)): the flat index just past each row's events
    at or before each of the nondecreasing times."""
    rows, width = len(counts), len(times)
    bins = np.repeat(np.arange(rows) * (width + 1), counts)
    bins += np.searchsorted(times, ev_t, side="left")  # the first time at or after the event
    # a row's events sit in time order, so its events up to a time come first
    ends = np.cumsum(np.bincount(bins, minlength=rows * (width + 1)))
    return ends.reshape(rows, width + 1)[:, :width]


def _xor_prefix(a: np.ndarray) -> np.ndarray:
    """[0, a[0], a[0] ^ a[1], ...]: XORs of a's first 0, 1, ..., len(a) entries."""
    return np.concatenate((np.zeros(1, dtype=a.dtype), np.bitwise_xor.accumulate(a)))


def _with_recoveries(counts: np.ndarray, ev_t: np.ndarray, ev_l: np.ndarray,
                     times) -> tuple:
    """The block with a recovery (label 0) inserted into every row at each of
    the nondecreasing times, after the row's events at that time."""
    at = _ends_at(counts, ev_t, times).ravel()
    return (counts + len(times), np.insert(ev_t, at, np.tile(times, len(counts))),
            np.insert(ev_l, at, 0))


# -- frame Monte Carlo core ---------------------------------------------------

# decoder -> {syndrome: phi of its correction}.  phi of a correction depends
# only on the code, the decoder and the logicals, so every engine on one
# decoder shares a memo.  It lives here, not on the decoder, so a decoder
# pickled to a worker carries none: each worker task starts empty.
_decode_memos = weakref.WeakKeyDictionary()


class _FrameEngine:
    """The frame walk on phi, with one decode per distinct syndrome.

    Under Pauli jumps a syndrome-only recovery sees a frame only through
    phi = (syndrome, logical parity), which is linear in the frame.  phi
    packs into one int: the low r = n - k bits are the syndrome in generator
    order; above them, k bits mark anticommutation with logical_z[i] (an X
    flip), then k bits with logical_x[i] (a Z flip).  Arrays of phi are
    int64 up to 62 bits and Python ints (dtype object) beyond; toric L = 6
    has 74.
    """

    def __init__(self, code: StabilizerCode, decoder: Decoder, noise: NoiseModel):
        if decoder.code is not code and decoder.code.name != code.name:
            raise ValueError("decoder bound to a different code")
        if noise.n != code.n:
            raise ValueError(f"noise model {noise.name} acts on {noise.n} qubits, "
                             f"the code {code.name} on {code.n}")
        self.decoder = decoder
        self.r = len(code.generators)
        self.k = code.k
        self.logicals = code.logical_z + code.logical_x
        checks = code.generators + self.logicals
        self.jump_phi = [anticommutation_bits(checks, e) for e in noise.jumps]
        self.dtype = np.int64 if self.r + 2 * self.k < 63 else object
        # indexed by event label: a recovery (label 0) XORs nothing
        self._label_phi = np.array([0, *self.jump_phi], dtype=self.dtype)
        self._memo = _decode_memos.setdefault(decoder, {})

    def _recover(self, phi: np.ndarray) -> np.ndarray:
        """phi after one recovery: each entry XORs its syndrome's correction phi.

        Each distinct syndrome is looked up once, and the ones no earlier
        walk on this decoder decoded are decoded together, in one
        corrections call.  A correction has the syndrome it corrects, so only
        its logical parity is computed.  The memo is cleared when the misses
        would take it past DECODE_MEMO_CAP, and stores at most that many.
        """
        syndromes, inverse = np.unique(phi & ((1 << self.r) - 1), return_inverse=True)
        memo = self._memo
        keys = syndromes.tolist()
        corr = [memo.get(s) for s in keys]
        missing = [s for s, c in zip(keys, corr) if c is None]
        if missing:
            fresh = {s: s | anticommutation_bits(self.logicals, c) << self.r
                     for s, c in zip(missing, self.decoder.corrections(missing))}
            corr = [fresh[s] if c is None else c for s, c in zip(keys, corr)]
            if len(memo) + len(fresh) > DECODE_MEMO_CAP:
                memo.clear()
            memo.update(itertools.islice(fresh.items(), DECODE_MEMO_CAP))
        corr = np.array(corr, dtype=self.dtype)
        return phi ^ corr[inverse.reshape(phi.shape)]

    def classes(self, phi: np.ndarray) -> tuple:
        """Logical classes (x, z) of phi, int64 bitmasks over the k logicals."""
        return (((phi >> self.r) & ((1 << self.k) - 1)).astype(np.int64),
                (phi >> (self.r + self.k)).astype(np.int64))

    def walk_block(self, counts: np.ndarray, ev_t: np.ndarray, ev_l: np.ndarray,
                   readouts) -> tuple:
        """Logical classes (x, z) of a block (counts, ev_t, ev_l), each an
        int64 array of shape (rows, len(readouts)).

        Each row's events are in time order.  An error event XORs the jump's
        phi into the frame's.  A recovery (label 0) multiplies the frame by
        the correction of its syndrome, i.e. XORs the correction's phi; the
        syndrome bits clear and the logical bits keep the residual's class,
        which is coset-invariant (coset linearity).  A readout, at one of the
        nondecreasing readouts, reads the class of the frame after one more
        recovery, which it does not apply; it takes phi after the row's
        events up to and at its time.

        The walk runs on the flat events with prefix XORs and no loop.  A
        correction has the syndrome it corrects, so a recovery leaves
        syndrome 0 and sees the syndrome of the jumps since the row's
        previous recovery (or its start).  One _recover call decodes every
        recovery of the block, one more every readout; phi at a readout is
        the prefix XOR of the row's jumps and corrections.
        """
        starts = np.cumsum(counts) - counts
        steps = self._label_phi[ev_l]
        jumps = _xor_prefix(steps)
        rec = np.flatnonzero(ev_l == 0)
        # the row's previous recovery (whose step is 0), or else the row's start
        since = np.maximum(np.concatenate(([0], rec))[:-1], np.repeat(starts, counts)[rec])
        seen = jumps[rec] ^ jumps[since]
        steps[rec] = seen ^ self._recover(seen)  # the correction's phi
        phi = _xor_prefix(steps)
        ends = _ends_at(counts, ev_t, readouts)
        return self.classes(self._recover(phi[ends] ^ phi[starts, None]))


def _family_fails(tx: np.ndarray, tz: np.ndarray) -> np.ndarray:
    """Z, X and Y basis family failures on a new first axis: flipped by any X
    logical, by any Z logical, and by exactly one type per logical."""
    return np.array([tx != 0, tz != 0, (tx ^ tz) != 0])


def _epsilon_shard(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                   params: PoissonParams, times: list, n_samples: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Failure counts, shape (3 families, len(times))."""
    engine = _FrameEngine(code, decoder, noise)
    fails = np.zeros((3, len(times)), dtype=np.int64)
    for block in _blocks(rng, n_samples, params, noise, times[-1]):
        fails += np.count_nonzero(_family_fails(*engine.walk_block(*block, times)), axis=1)
    return fails


@dataclass
class MonteCarloEstimate:
    """Per-time-point estimates with standard errors and reproduction info."""

    times: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int
    per_family: np.ndarray = None  # (3, T) family failure rates, epsilon only


def _binomial_stderr(est, n_samples: int) -> np.ndarray:
    """Binomial standard error sqrt(p (1 - p) / n), p clipped to [1/2n, 1 - 1/2n].

    Unclipped, an estimate of 0 or 1 reports 0 and a sigma comparison turns
    into an equality test; half a count keeps the error bar near sqrt(1/2)/n
    there.  Estimates strictly inside (0, 1) are at least 1/n from either end
    and keep their value.
    """
    p = np.clip(est, 0.5 / n_samples, 1 - 0.5 / n_samples)
    return np.sqrt(p * (1 - p) / n_samples)


def _sample_count(n_samples) -> int:
    """n_samples as an int; raises unless it is a positive integer (integral
    floats such as 10.0 pass)."""
    if not n_samples > 0:  # a NaN fails the comparison
        raise ValueError("n_samples must be positive")
    return _require_count("n_samples", n_samples)


def _run_shards(fn, n_samples: int, shard_size: int, seed: int, tag: str,
                workers: int):
    """Sum of fn(n, shard_rng(seed, tag, i)) over the shards of n_samples
    (shard_size each, the last one shorter), merged in shard order.

    With workers > 1 and more than one shard, a pool of min(workers, shards)
    processes runs them as at most that many tasks, each one contiguous run
    of shards, so no process starts without a shard to run and fn (a partial
    of a module-level function) is pickled once per task, not per shard."""
    sizes = [min(shard_size, n_samples - i) for i in range(0, n_samples, shard_size)]
    rngs = [shard_rng(seed, tag, i) for i in range(len(sizes))]
    pool_size = min(workers, len(sizes))
    if pool_size <= 1:
        return sum(map(fn, sizes, rngs))
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return sum(pool.map(fn, sizes, rngs, chunksize=-(-len(sizes) // pool_size)))


def _family_rates(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                  params: PoissonParams, times, n_samples: int, seed: int, tag: str,
                  workers: int) -> tuple:
    """(times, n_samples, family failure rates of shape (3, len(times))),
    each input checked, from the shards of stream tag."""
    times = readout_times(times)
    _require_drawable(params.gamma, times[-1])
    n_samples = _sample_count(n_samples)
    shard = partial(_epsilon_shard, code, decoder, noise, params, times.tolist())
    fails = _run_shards(shard, n_samples, FRAME_SHARD, seed, tag, workers)
    return times, n_samples, fails / n_samples


def estimate_epsilon(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                     params: PoissonParams, times, n_samples: int, seed: int,
                     workers: int = 1) -> MonteCarloEstimate:
    """Logical error probability curve by Pauli-frame Monte Carlo.

    Per trajectory, error jumps multiply the frame, recovery jumps decode and
    accumulate the logical class, and each readout time applies a fresh final
    recovery.  The estimate at each time is the worst failure probability over
    the three cardinal initial-state families (Z, X, Y logical bases); the
    minimization over initial states is approximated by that worst case, which
    is exact for effective logical Pauli channels.
    """
    times, n_samples, rates = _family_rates(code, decoder, noise, params, times,
                                            n_samples, seed, "epsilon", workers)
    est = rates.max(axis=0)
    return MonteCarloEstimate(times=times, estimate=est, stderr=_binomial_stderr(est, n_samples),
                              n_samples=n_samples, seed=seed, per_family=rates)


def frame_chain_rates(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                      params: PoissonParams, times) -> np.ndarray:
    """Exact family failure rates, shape (3, len(times)): the expectation of
    estimate_epsilon's per_family.

    The frame walk's phi is a continuous-time Markov chain on the
    2^(r + 2k) ints that _FrameEngine packs.  Jump mu XORs its phi at rate
    delta; a recovery XORs the correction's phi of the current syndrome at
    rate kappa.  Row 0 of expm(Q t) is the law of phi at t, and
    the readout reads the class after one more recovery, as the walk's does.

    For one logical qubit the max over the three rows is epsilon_exact's
    1 - min over its 38 sampled states.  The recovered logical channel is a
    Pauli channel, so 1 - F at Bloch vector n is linear in
    (n_x^2, n_y^2, n_z^2), which ranges over a simplex; its maximum is at a
    vertex, a cardinal state, and the sampled states hold all six.
    """
    times = readout_times(times)
    rates = _label_rates(params, noise)
    engine = _FrameEngine(code, decoder, noise)
    size = 1 << (engine.r + 2 * engine.k)
    if size > CHAIN_MAX_STATES:
        raise ValueError(f"the frame chain of {code.name} has {size} states, "
                         f"more than {CHAIN_MAX_STATES}")
    phi = np.arange(size)
    recovered = engine._recover(phi)
    q = np.zeros((size, size))
    for jp, rate in zip(engine.jump_phi, rates[1:]):
        q[phi, phi ^ jp] += rate  # phi -> phi ^ jp is a permutation
    q[phi, recovered] += rates[0]
    q[phi, phi] -= q.sum(axis=1)  # a self-loop (zero phi) cancels here
    fails = _family_fails(*engine.classes(recovered)).astype(float)
    law = np.array([expm(q * t)[0] for t in times])
    return fails @ law.T


def estimate_alpha(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                   tau: float, n_samples: int, seed: int, workers: int = 1,
                   delta: float = 1.0) -> MonteCarloEstimate:
    """Flip probability under pure noise (kappa = 0) followed by one recovery.

    Estimates the probability that a Z-basis logical state is flipped, i.e.
    that decoding the accumulated frame at time tau yields a nonzero X-type
    class on any logical qubit.  For multi-logical codes, such as the toric
    code's k = 2, this counts a flip of the joint Z-basis codeword, and no
    per-logical marginal is reported: the rows of estimate_epsilon's
    ``per_family`` are joint over all k logicals too (the Z, X and Y families
    fail on any X-type class, on any Z-type class, and on a logical with
    exactly one of the two types).
    """
    _require_finite("tau", tau)
    params = PoissonParams(kappa=0.0, delta=delta, n_channels=noise.n_channels)
    times, n_samples, rates = _family_rates(code, decoder, noise, params, [tau],
                                            n_samples, seed, "alpha", workers)
    est = rates[0]  # Z-family row
    return MonteCarloEstimate(times=times, estimate=est, stderr=_binomial_stderr(est, n_samples),
                              n_samples=n_samples, seed=seed)


# -- Assumption 2 ----------------------------------------------------------------


@dataclass
class Assumption2Result:
    lhs: float
    rhs: float
    sigma: float
    holds: bool
    n_samples: int


def _assumption2_shard(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                       params: PoissonParams, t: float, m: int, n_samples: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Survival counts [lhs, rhs, both] of the paired interleaving design.

    One noise realization is read out at m*t twice: as drawn (lhs), and with
    a forced recovery merged in at every j*t, j < m (rhs).
    """
    engine = _FrameEngine(code, decoder, noise)
    forced = [j * t for j in range(1, m)]
    counts = np.zeros(3, dtype=np.int64)  # both: joint survivals, for the paired variance
    for block in _blocks(rng, n_samples, params, noise, m * t):
        sl = engine.walk_block(*block, [m * t])[0][:, 0] == 0
        sr = engine.walk_block(*_with_recoveries(*block, forced), [m * t])[0][:, 0] == 0
        counts += np.count_nonzero([sl, sr, sl & sr], axis=1)
    return counts


def check_assumption2(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                      params: PoissonParams, t: float, m: int, n_samples: int,
                      seed: int, workers: int = 1) -> Assumption2Result:
    """Interleaving check: survival with one final recovery vs m periodic ones.

    Both sides are estimated from the same sampled noise trajectories (paired),
    so the comparison noise is the variance of the per-sample difference.
    holds = lhs <= rhs + 3 sigma_diff.
    """
    m = _require_count("m", m)
    _require_finite("t", t)
    n_samples = _sample_count(n_samples)
    _require_drawable(params.gamma, m * t)
    shard = partial(_assumption2_shard, code, decoder, noise, params, t, m)
    tot = _run_shards(shard, n_samples, FRAME_SHARD, seed, "assumption2", workers)
    lhs, rhs, both = tot / n_samples
    # var(d) with d = 1[lhs survives] - 1[rhs survives]
    var_d = lhs + rhs - 2 * both - (lhs - rhs) ** 2
    sigma = float(np.sqrt(max(var_d, 0.0) / n_samples))
    return Assumption2Result(lhs=float(lhs), rhs=float(rhs), sigma=sigma,
                             holds=bool(lhs <= rhs + 3 * sigma), n_samples=n_samples)


# -- faithful-trajectory violation ------------------------------------------------


def _violation_shard(ell: int, lam: float, q: float, n_cdf, m_cdf, horizon: float,
                     times, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Per-time violation counts; reducing here keeps the merge O(len(times)).

    Only rows with more than ell events can violate: their number is
    Binomial(n_samples, q).  Each draws its event count N from Poisson(lam)
    conditioned on N > ell (by rejection, or by n_cdf over ell + 1, ... when
    q < 1/2), then its first-run label M from m_cdf.  A row with M <= N
    violates at the M-th of N uniform event times, horizon * Beta(M, N-M+1).
    """
    rows = rng.binomial(n_samples, q)
    if rows == 0:
        return np.zeros(len(times), dtype=np.int64)
    if n_cdf is None:
        events = rng.poisson(lam, rows)
        low = np.flatnonzero(events <= ell)
        while low.size:
            events[low] = rng.poisson(lam, low.size)
            low = low[events[low] <= ell]
    else:
        events = ell + 1 + np.searchsorted(n_cdf, rng.random(rows), side="right")
    # a draw past m_cdf's end names a label past the table, which ends at
    # the largest likely N or where F stops growing
    first = ell + 1 + np.searchsorted(m_cdf, rng.random(rows), side="right")
    hit = first <= events
    tv = horizon * rng.beta(first[hit], events[hit] - first[hit] + 1)
    tv.sort()
    return np.searchsorted(tv, times, side="right")


def estimate_faithful_violation(ell: int, params: PoissonParams, times,
                                n_samples: int, seed: int,
                                workers: int = 1) -> MonteCarloEstimate:
    """p(t): fraction of trajectories containing a run of > ell consecutive errors.

    Event labels are i.i.d. and independent of the Poisson(gamma) event
    times, so a trajectory has violated by t iff M <= N(t), where label M
    completes the first run of ell + 1 errors and N(t) counts the events in
    [0, t].  Per trajectory the sampler draws N = N(horizon) from its
    Poisson law, M by inverse CDF from the first-run table
    (bounds._first_run_cdf, which also gives p_exact_quadrature), and the
    violation time as the M-th of N uniform event times, a Beta order
    statistic; binomial thinning skips the trajectories with N <= ell, which
    cannot violate.  The cost per trajectory does not grow with the number
    of events.  The tables hold at most bounds.FIRST_RUN_CAP entries;
    parameters that need more raise ValueError.
    """
    ell = _require_count("ell", ell)
    times = readout_times(times)
    n_samples = _sample_count(n_samples)
    horizon = float(times[-1])
    _require_drawable(params.gamma, horizon)
    lam = params.gamma * horizon
    run = params.p1 ** (ell + 1)
    # no errors (gamma or Delta is 0), or runs so rare (below the smallest
    # normal float) that none completes within POISSON_LAM_MAX events
    q = float(gammainc(ell + 1, lam)) if run >= np.finfo(float).tiny else 0.0
    n_cdf = m_cdf = None
    if q > 0:
        n_hi, top = _first_run_sizes(ell, params.p1, lam)
        # the count table serves q < 1/2, where lam < ell + 2 keeps it short
        _require_table_size((n_hi if q < 0.5 else top) - ell, ell, params.p1, lam)
        if q < 0.5:
            pmf = _poisson_weights(lam, np.arange(ell + 1.0, n_hi + 1.0))
            n_cdf = np.cumsum(pmf) / pmf.sum()
            n_cdf[-1] = 1.0  # a draw never lands past the table
        m_cdf = _first_run_cdf(ell, params.p0, params.p1, top - ell)
    shard = partial(_violation_shard, ell, lam, q, n_cdf, m_cdf, horizon, times)
    counts = _run_shards(shard, n_samples, VIOLATION_SHARD, seed, "violation", workers)
    est = counts / n_samples
    stderr = _binomial_stderr(est, n_samples)
    return MonteCarloEstimate(times=times, estimate=est, stderr=stderr,
                              n_samples=n_samples, seed=seed)
