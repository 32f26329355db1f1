"""Poisson point-process Monte Carlo for dissipative error correction.

The dynamics is unravelled as a homogeneous Poisson process with total rate
gamma = kappa + N*Delta: each event is a recovery (probability kappa/gamma)
or one of N error jumps.  For stabilizer codes under Pauli jumps the state is
always (Pauli frame) x (codeword), so trajectories are simulated on packed
frame bits and recoveries reduce to syndrome decoding.

Determinism contract: every estimator draws from per-shard streams keyed by
(root seed, estimator tag, shard index) and merges shard statistics in shard
order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decoders import Decoder
from .paulis import PauliOperator, StabilizerCode

__all__ = [
    "PoissonParams",
    "NoiseModel",
    "Trajectory",
    "shard_rng",
    "sample_trajectory",
    "estimate_epsilon",
    "estimate_alpha",
    "check_assumption2",
    "estimate_faithful_violation",
]

FRAME_SHARD = 4096       # samples per shard in frame-tracking estimators
VIOLATION_SHARD = 65536  # samples per shard in the vectorized run-length sampler

_FAMILIES = ("Z", "X", "Y")  # initial-state families for the epsilon estimator


@dataclass(frozen=True)
class PoissonParams:
    """Rates of the unravelled process: recovery kappa, N error channels at Delta."""

    kappa: float
    delta: float
    n_channels: int

    def __post_init__(self):
        if self.kappa < 0 or self.delta < 0 or self.n_channels < 0:
            raise ValueError("rates must be nonnegative")

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
    """Pauli jump set {E_mu} with weights lambda_mu (sum = N, uniform default)."""

    name: str
    n: int
    jumps: tuple
    weights: tuple = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", (1.0,) * len(self.jumps))
        if len(self.weights) != len(self.jumps):
            raise ValueError("one weight per jump")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        # lambda_mu convention: weights sum to the channel count, so delta is
        # the mean per-channel rate and the total error rate is N * delta
        scale = len(self.jumps) / sum(self.weights)
        object.__setattr__(self, "weights", tuple(w * scale for w in self.weights))
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


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered events in [0, horizon]; label 0 = recovery, mu >= 1 = error."""

    times: np.ndarray
    labels: np.ndarray
    horizon: float


def shard_rng(root_seed: int, tag: str, shard: int) -> np.random.Generator:
    """Counter-based stream for one shard; streams never overlap across tags."""
    key = hashlib.blake2b(f"{root_seed}:{tag}:{shard}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))


def _label_thresholds(params: PoissonParams, noise: NoiseModel = None) -> np.ndarray:
    """Cumulative label probabilities [p0, p0+p_1, ..., 1]."""
    if noise is None:
        w = np.ones(params.n_channels)
    else:
        if noise.n_channels != params.n_channels:
            raise ValueError("noise model and params disagree on channel count")
        w = np.asarray(noise.weights, dtype=float)
    probs = np.concatenate(([params.kappa], w * params.delta))
    cum = np.cumsum(probs) / probs.sum()
    cum[-1] = 1.0  # guard against float shortfall mapping a draw out of range
    return cum


def sample_trajectory(params: PoissonParams, horizon: float,
                      rng: np.random.Generator, noise: NoiseModel = None) -> Trajectory:
    """One trajectory: event count ~ Poisson(gamma*t), labels i.i.d. by rates."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    gamma = params.gamma
    if gamma == 0 or horizon == 0:
        return Trajectory(np.empty(0), np.empty(0, dtype=np.int64), horizon)
    k = int(rng.poisson(gamma * horizon))
    times = np.sort(rng.random(k)) * horizon
    cum = _label_thresholds(params, noise)
    labels = np.searchsorted(cum, rng.random(k), side="right")
    return Trajectory(times, labels.astype(np.int64), horizon)


# -- frame Monte Carlo core ---------------------------------------------------


class _FrameEngine:
    """Precomputed masks and memoized decode for the per-sample event loop."""

    def __init__(self, code: StabilizerCode, decoder: Decoder, noise: NoiseModel):
        if decoder.code is not code and decoder.code.name != code.name:
            raise ValueError("decoder bound to a different code")
        self.code = code
        self.decoder = decoder
        self.jump_x = [e.x_bits for e in noise.jumps]
        self.jump_z = [e.z_bits for e in noise.jumps]
        # logical masks: class bit i set iff residual anticommutes with the mask
        self.lz_masks = [(l.x_bits, l.z_bits) for l in code.logical_z]
        self.lx_masks = [(l.x_bits, l.z_bits) for l in code.logical_x]
        # memoize frame -> class only when the key space is small
        self._cache = {} if code.n <= 12 else None

    def decode_class(self, fx: int, fz: int) -> tuple:
        """Logical class bits (x flips, z flips) after decoding frame (fx, fz)."""
        if self._cache is not None:
            hit = self._cache.get((fx, fz))
            if hit is not None:
                return hit
        cx, cz = self.decoder.correction_masks(fx, fz)
        rx, rz = fx ^ cx, fz ^ cz
        clsx = clsz = 0
        for i, (mx, mz) in enumerate(self.lz_masks):
            if ((rx & mz).bit_count() + (rz & mx).bit_count()) & 1:
                clsx |= 1 << i
        for i, (mx, mz) in enumerate(self.lx_masks):
            if ((rx & mz).bit_count() + (rz & mx).bit_count()) & 1:
                clsz |= 1 << i
        if self._cache is not None:
            self._cache[(fx, fz)] = (clsx, clsz)
        return clsx, clsz


def _epsilon_shard(engine: _FrameEngine, params: PoissonParams, noise: NoiseModel,
                   times, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Failure counts, shape (3 families, len(times))."""
    times = np.asarray(times, dtype=float)
    horizon = float(times[-1])
    gamma = params.gamma
    cum = _label_thresholds(params, noise)
    jump_x, jump_z = engine.jump_x, engine.jump_z
    decode = engine.decode_class
    fails = np.zeros((3, len(times)), dtype=np.int64)
    for _ in range(n_samples):
        k = int(rng.poisson(gamma * horizon)) if gamma > 0 else 0
        ev_t = np.sort(rng.random(k)) * horizon
        ev_l = np.searchsorted(cum, rng.random(k), side="right")
        fx = fz = accx = accz = 0
        ev = 0
        for j, t_read in enumerate(times):
            while ev < k and ev_t[ev] <= t_read:
                lab = int(ev_l[ev])
                if lab == 0:
                    # recovery resets the frame to a logical representative;
                    # tracking class bits + zero frame is exact by coset linearity
                    cx, cz = decode(fx, fz)
                    accx ^= cx
                    accz ^= cz
                    fx = fz = 0
                else:
                    fx ^= jump_x[lab - 1]
                    fz ^= jump_z[lab - 1]
                ev += 1
            # readout applies a fresh final recovery on a copy of the frame
            cx, cz = decode(fx, fz)
            tx, tz = accx ^ cx, accz ^ cz
            if tx:
                fails[0, j] += 1          # Z-basis states flipped by any X-type logical
            if tz:
                fails[1, j] += 1          # X-basis states flipped by any Z-type logical
            if tx ^ tz:
                fails[2, j] += 1          # Y-basis flips: exactly one type per logical
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

    def rows(self):
        for i, t in enumerate(self.times):
            yield {"t": float(t), "estimate": float(self.estimate[i]),
                   "stderr": float(self.stderr[i]),
                   "n_samples": self.n_samples, "seed": self.seed}


def _binomial_stderr(est, n_samples: int) -> np.ndarray:
    """Binomial standard error sqrt(p (1 - p) / n), p clipped to [1/2n, 1 - 1/2n].

    Unclipped, an estimate of 0 or 1 reports 0 and a sigma comparison turns
    into an equality test; half a count keeps the error bar near sqrt(1/2)/n
    there.  Estimates strictly inside (0, 1) are at least 1/n from either end
    and keep their value.
    """
    n = max(n_samples, 1)
    p = np.clip(est, 0.5 / n, 1 - 0.5 / n)
    return np.sqrt(p * (1 - p) / n)


def _shard_sizes(n_samples: int, shard: int):
    full, rem = divmod(n_samples, shard)
    return [shard] * full + ([rem] if rem else [])


def _run_shards(worker, n_shards: int, workers: int):
    """Ordered shard results, inline or via a process pool."""
    if workers <= 1 or n_shards <= 1:
        return [worker(i) for i in range(n_shards)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_shards)))


class _EpsilonWorker:
    """Picklable shard closure for estimate_epsilon."""

    def __init__(self, code, decoder, noise, params, times, sizes, seed, tag):
        self.code, self.decoder, self.noise = code, decoder, noise
        self.params, self.times, self.sizes = params, times, sizes
        self.seed, self.tag = seed, tag

    def __call__(self, shard: int) -> np.ndarray:
        engine = _FrameEngine(self.code, self.decoder, self.noise)
        rng = shard_rng(self.seed, self.tag, shard)
        return _epsilon_shard(engine, self.params, self.noise, self.times,
                              self.sizes[shard], rng)


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
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be nondecreasing and nonnegative")
    sizes = _shard_sizes(n_samples, FRAME_SHARD)
    worker = _EpsilonWorker(code, decoder, noise, params, times, sizes, seed, "epsilon")
    fails = sum(_run_shards(worker, len(sizes), workers))
    rates = fails / n_samples
    family = np.argmax(rates, axis=0)
    est = rates[family, np.arange(len(times))]
    stderr = _binomial_stderr(est, n_samples)
    return MonteCarloEstimate(times=times, estimate=est, stderr=stderr,
                              n_samples=n_samples, seed=seed, per_family=rates)


def estimate_alpha(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                   tau: float, n_samples: int, seed: int, workers: int = 1,
                   delta: float = 1.0) -> MonteCarloEstimate:
    """Flip probability under pure noise (kappa = 0) followed by one recovery.

    Estimates the probability that a Z-basis logical state is flipped, i.e.
    that decoding the accumulated frame at time tau yields a nonzero X-type
    class on any logical qubit.  For multi-logical codes this counts a flip of
    the joint Z-basis codeword; single-logical marginals are available from
    ``per_family`` of estimate_epsilon if needed.
    """
    params = PoissonParams(kappa=0.0, delta=delta, n_channels=noise.n_channels)
    sizes = _shard_sizes(n_samples, FRAME_SHARD)
    worker = _EpsilonWorker(code, decoder, noise, params, np.asarray([tau], float),
                            sizes, seed, "alpha")
    fails = sum(_run_shards(worker, len(sizes), workers))
    est = fails[0] / n_samples  # Z-family row
    stderr = _binomial_stderr(est, n_samples)
    return MonteCarloEstimate(times=np.asarray([tau]), estimate=est, stderr=stderr,
                              n_samples=n_samples, seed=seed)


# -- Assumption 2 ----------------------------------------------------------------


@dataclass
class Assumption2Result:
    lhs: float
    rhs: float
    sigma: float
    holds: bool
    n_samples: int


class _A2Worker:
    def __init__(self, code, decoder, noise, params, t, m, sizes, seed):
        self.code, self.decoder, self.noise = code, decoder, noise
        self.params, self.t, self.m, self.sizes, self.seed = params, t, m, sizes, seed

    def __call__(self, shard: int):
        engine = _FrameEngine(self.code, self.decoder, self.noise)
        rng = shard_rng(self.seed, "assumption2", shard)
        params, t, m = self.params, self.t, self.m
        horizon = m * t
        gamma = params.gamma
        cum = _label_thresholds(params, self.noise)
        jump_x, jump_z = engine.jump_x, engine.jump_z
        decode = engine.decode_class
        surv_l = surv_r = 0
        both = 0  # joint survivals, for the paired variance
        for _ in range(self.sizes[shard]):
            k = int(rng.poisson(gamma * horizon)) if gamma > 0 else 0
            ev_t = np.sort(rng.random(k)) * horizon
            ev_l = np.searchsorted(cum, rng.random(k), side="right")
            # one shared noise realization processed two ways (paired design)
            fx = fz = accx = 0
            gx = gz = baccx = 0
            ev = 0
            for j in range(1, m + 1):
                t_edge = j * t
                while ev < k and ev_t[ev] <= t_edge:
                    lab = int(ev_l[ev])
                    if lab == 0:
                        cx, _ = decode(fx, fz)
                        accx ^= cx
                        fx = fz = 0
                        cx, _ = decode(gx, gz)
                        baccx ^= cx
                        gx = gz = 0
                    else:
                        fx ^= jump_x[lab - 1]
                        fz ^= jump_z[lab - 1]
                        gx ^= jump_x[lab - 1]
                        gz ^= jump_z[lab - 1]
                    ev += 1
                # rhs: forced recovery at every boundary j*t
                cx, _ = decode(gx, gz)
                baccx ^= cx
                gx = gz = 0
            # lhs: single final recovery at m*t
            cx, _ = decode(fx, fz)
            accx ^= cx
            sl = accx == 0
            sr = baccx == 0
            surv_l += sl
            surv_r += sr
            both += sl and sr
        return np.array([surv_l, surv_r, both], dtype=np.int64)


def check_assumption2(code: StabilizerCode, decoder: Decoder, noise: NoiseModel,
                      params: PoissonParams, t: float, m: int, n_samples: int,
                      seed: int, workers: int = 1) -> Assumption2Result:
    """Interleaving check: survival with one final recovery vs m periodic ones.

    Both sides are estimated from the same sampled noise trajectories (paired),
    so the comparison noise is the variance of the per-sample difference.
    holds = lhs <= rhs + 3 sigma_diff.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return Assumption2Result(1.0, 1.0, 0.0, True, n_samples)
    sizes = _shard_sizes(n_samples, FRAME_SHARD)
    worker = _A2Worker(code, decoder, noise, params, t, m, sizes, seed)
    tot = sum(_run_shards(worker, len(sizes), workers))
    lhs = tot[0] / n_samples
    rhs = tot[1] / n_samples
    both = tot[2] / n_samples
    # var(d) with d = 1[lhs survives] - 1[rhs survives]
    var_d = lhs + rhs - 2 * both - (lhs - rhs) ** 2
    sigma = float(np.sqrt(max(var_d, 0.0) / n_samples))
    return Assumption2Result(lhs=float(lhs), rhs=float(rhs), sigma=sigma,
                             holds=bool(lhs <= rhs + 3 * sigma), n_samples=n_samples)


# -- faithful-trajectory violation ------------------------------------------------


class _ViolationWorker:
    def __init__(self, ell, params, horizon, sizes, seed, times):
        self.ell, self.params, self.horizon = ell, params, horizon
        self.sizes, self.seed, self.times = sizes, seed, times

    def __call__(self, shard: int) -> np.ndarray:
        rng = shard_rng(self.seed, "violation", shard)
        tv = _violation_times_shard(self.ell, self.params, self.horizon,
                                    self.sizes[shard], rng)
        # reduce to per-time counts here so the merge is O(len(times)) per
        # shard; holding every sample's violation time does not scale
        return np.array([(tv <= t).sum() for t in self.times], dtype=np.int64)


def _violation_times_shard(ell: int, params: PoissonParams, horizon: float,
                           n: int, rng: np.random.Generator) -> np.ndarray:
    """First time a run of more than ell consecutive error labels completes.

    Gap construction: between recoveries, labels are i.i.d. with error
    probability p1.  A gap violates iff its first ell+1 events are all errors
    (probability p1^(ell+1)); the violation completes at the (ell+1)-th event
    time, Gamma(ell+1)/gamma after the gap start.  Otherwise the gap holds
    k <= ell errors then a recovery, with k truncated-geometric and duration
    Gamma(k+1)/gamma.  Returns +inf where no violation occurs before horizon.
    """
    gamma = params.gamma
    out = np.full(n, np.inf)
    if gamma == 0 or params.p1 == 0.0:
        return out
    p1 = params.p1
    p_viol = p1 ** (ell + 1)
    acc = np.zeros(n)
    active = np.arange(n)
    while active.size:
        u = rng.random(active.size)
        viol = u < p_viol
        iv = active[viol]
        if iv.size:
            out[iv] = acc[iv] + rng.gamma(ell + 1, 1.0, size=iv.size) / gamma
        isafe = active[~viol]
        if isafe.size:
            # k errors before the recovery, conditioned on k <= ell:
            # P[K <= j] proportional to 1 - p1^(j+1)
            uu = (u[~viol] - p_viol) / (1.0 - p_viol)
            k = np.ceil(np.log1p(-uu * (1.0 - p_viol)) / np.log(p1) - 1.0).astype(np.int64)
            k = np.clip(k, 0, ell)
            acc[isafe] += rng.gamma(k + 1.0, 1.0) / gamma
            isafe = isafe[acc[isafe] <= horizon]
        active = isafe
    return out


def estimate_faithful_violation(ell: int, params: PoissonParams, times,
                                n_samples: int, seed: int,
                                workers: int = 1) -> MonteCarloEstimate:
    """p(t): fraction of trajectories containing a run of > ell consecutive errors."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    times = np.asarray(times, dtype=float)
    horizon = float(times.max()) if len(times) else 0.0
    sizes = _shard_sizes(n_samples, VIOLATION_SHARD)
    worker = _ViolationWorker(ell, params, horizon, sizes, seed, times)
    parts = _run_shards(worker, len(sizes), workers)
    counts = sum(parts) if parts else np.zeros(len(times), dtype=np.int64)
    est = counts / n_samples if n_samples else np.zeros(len(times))
    stderr = _binomial_stderr(est, n_samples)
    return MonteCarloEstimate(times=times, estimate=est, stderr=stderr,
                              n_samples=n_samples, seed=seed)
