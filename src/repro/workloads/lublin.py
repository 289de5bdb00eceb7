"""The Lublin-Feitelson workload model (JPDC 2003).

The paper's two synthetic traces, Lublin-1 and Lublin-2, come from this
model ("a widely used workload model proposed in [18]").  We implement the
model's three components from the published description:

* **Job size** (processor count): a job is serial with probability
  ``serial_prob``; otherwise its log2-size is drawn from a two-stage
  uniform distribution over ``[ulow, umed]`` (with probability ``uprob``)
  or ``[umed, uhi]``, and rounded to a power of two with probability
  ``pow2_prob``.  ``uhi = log2(cluster size)``, ``umed = uhi - 2.5``.
* **Runtime**: a hyper-gamma distribution — a mixture of two gamma
  distributions whose mixing weight depends linearly on the job size
  (``p = pa * nodes + pb``), capturing the correlation between large jobs
  and long runtimes.
* **Arrivals**: gamma inter-arrival times modulated by a daily cycle.  The
  original model weights arrival intensity per time-of-day bucket; we
  implement the cycle as rate-proportional thinning with a smooth daily
  profile peaking in working hours, which preserves the diurnal burstiness
  the model exists to capture.

Requested (estimated) runtimes follow the common archive observation that
users over-estimate: the estimate is the runtime multiplied by a random
factor >= 1, clipped to the model's runtime upper bound.

The canonical parameter values below are those of the published model
(lublin99.c).  The two presets ``LUBLIN_1`` / ``LUBLIN_2`` are calibrated
so the generated traces match the Table II characteristics the paper
reports (cluster 256; mean inter-arrival ~771s vs ~460s; mean runtime
~4862s vs ~1695s; mean size ~22 vs ~39 procs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .job import Job
from .swf import SWFHeader, SWFTrace

__all__ = ["LublinParams", "LUBLIN_1", "LUBLIN_2", "generate_lublin_trace"]

_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class LublinParams:
    """Parameters of the Lublin-Feitelson model."""

    n_procs: int = 256

    # --- job size -------------------------------------------------------
    serial_prob: float = 0.244
    pow2_prob: float = 0.576
    ulow: float = 0.8          # log2 of smallest parallel size
    umed_offset: float = 2.5   # umed = uhi - offset
    uprob: float = 0.86        # P(first uniform stage)

    # --- runtime (hyper-gamma) -------------------------------------------
    runtime_a1: float = 4.2    # gamma shape, short-job component
    runtime_b1: float = 0.94   # gamma scale (of log runtime seconds)
    runtime_a2: float = 312.0  # gamma shape, long-job component
    runtime_b2: float = 0.03
    runtime_pa: float = -0.0054  # mixing weight slope vs job size
    runtime_pb: float = 0.78
    mean_runtime: float | None = None  # rescale sample mean to this (seconds)
    max_runtime: float = 60.0 * 60.0 * 36.0  # 36h cap, matches archive caps

    # --- arrivals ---------------------------------------------------------
    interarrival_shape: float = 2.0   # gamma shape of inter-arrival times
    mean_interarrival: float = 771.0  # target mean inter-arrival (seconds)
    daily_cycle_strength: float = 0.6  # 0 = flat; 1 = full diurnal swing

    def __post_init__(self) -> None:
        if self.n_procs < 2:
            raise ValueError("cluster must have at least 2 processors")
        if not 0.0 <= self.serial_prob <= 1.0:
            raise ValueError("serial_prob must be a probability")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 <= self.daily_cycle_strength < 1.0:
            raise ValueError("daily_cycle_strength must be in [0, 1)")

    @property
    def uhi(self) -> float:
        return math.log2(self.n_procs)

    @property
    def umed(self) -> float:
        return max(self.ulow, self.uhi - self.umed_offset)


#: Preset matching the paper's Lublin-1 trace (longer, narrower jobs):
#: Table II targets — it ≈ 771 s, rt ≈ 4862 s, nt ≈ 22 procs.
LUBLIN_1 = LublinParams(
    n_procs=256,
    mean_interarrival=771.0,
    mean_runtime=4862.0,
    serial_prob=0.10,
    umed_offset=3.2,
)

#: Preset matching the paper's Lublin-2 trace (shorter, wider jobs):
#: Table II targets — it ≈ 460 s, rt ≈ 1695 s, nt ≈ 39 procs.
LUBLIN_2 = LublinParams(
    n_procs=256,
    mean_interarrival=460.0,
    mean_runtime=1695.0,
    serial_prob=0.05,
    uprob=0.80,
    umed_offset=2.0,
)


def _sample_sizes(params: LublinParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorised two-stage-uniform / power-of-two job sizes."""
    serial = rng.random(n) < params.serial_prob
    first_stage = rng.random(n) < params.uprob
    log_size = np.where(
        first_stage,
        rng.uniform(params.ulow, params.umed, n),
        rng.uniform(params.umed, params.uhi, n),
    )
    round_pow2 = rng.random(n) < params.pow2_prob
    sizes = np.where(
        round_pow2,
        2.0 ** np.round(log_size),
        np.ceil(2.0 ** log_size),
    )
    sizes = np.where(serial, 1.0, sizes)
    return np.clip(sizes, 1, params.n_procs).astype(np.int64)


def _sample_runtimes(
    params: LublinParams, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Hyper-gamma runtimes with size-dependent mixing (vectorised)."""
    n = len(sizes)
    p = np.clip(params.runtime_pa * sizes + params.runtime_pb, 0.05, 0.95)
    use_first = rng.random(n) < p
    # The gamma samples model log2(runtime); exponentiate to seconds, as in
    # the published model where runtime spans several orders of magnitude.
    g1 = rng.gamma(params.runtime_a1, params.runtime_b1, n)
    g2 = rng.gamma(params.runtime_a2, params.runtime_b2, n)
    log_rt = np.where(use_first, g1, g2)
    runtimes = np.exp2(log_rt)
    if params.mean_runtime is not None:
        # Calibrate the sample mean to the preset target (Table II `rt`)
        # while preserving the hyper-gamma *shape*; a multiplicative rescale
        # keeps relative runtime ratios intact.
        runtimes = calibrate_mean(runtimes, params.mean_runtime, params.max_runtime)
    return np.clip(runtimes, 1.0, params.max_runtime)


def calibrate_mean(
    samples: np.ndarray, target: float, cap: float, iterations: int = 8
) -> np.ndarray:
    """Rescale positive samples so the *clipped* mean hits ``target``.

    A single multiplicative rescale undershoots when the cap truncates the
    heavy tail, so rescale-then-clip is iterated to a fixed point.
    """
    if target >= cap:
        raise ValueError(f"target mean {target} must be below the cap {cap}")
    out = samples.astype(float)
    for _ in range(iterations):
        clipped = np.clip(out, 1.0, cap)
        mean = clipped.mean()
        if abs(mean - target) / target < 1e-3:
            break
        out = out * (target / mean)
    return np.clip(out, 1.0, cap)


def _daily_rate(t: np.ndarray | float, strength: float) -> np.ndarray | float:
    """Relative arrival intensity at absolute time ``t`` (peak ~2pm)."""
    phase = 2.0 * math.pi * ((np.asarray(t) / _SECONDS_PER_DAY) % 1.0)
    # peak at 14:00 => shift so cos() maximises there
    return 1.0 + strength * np.cos(phase - 2.0 * math.pi * 14.0 / 24.0)


def _sample_arrivals(
    params: LublinParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Gamma inter-arrivals thinned by the daily cycle.

    Candidates are drawn a chunk at a time and thinned with one mask per
    chunk.  ``cumsum`` adds the gaps left to right from the running
    time, as a loop over them would, so the arrivals (and the generator
    state afterwards) are those of the per-candidate loop bit for bit
    (``tests/reference.py::sample_arrivals_loop``).
    """
    shape = params.interarrival_shape
    # The thinning below keeps a fraction ~ 1/(1+strength) of candidate
    # arrivals on average, so oversample the base process accordingly.
    base_mean = params.mean_interarrival / (1.0 + params.daily_cycle_strength)
    scale = base_mean / shape
    peak = 1.0 + params.daily_cycle_strength
    chunks: list[np.ndarray] = []
    t = 0.0
    count = 0
    while count < n:
        gaps = rng.gamma(shape, scale, size=max(64, n - count))
        accept = rng.random(len(gaps))
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        kept = times[accept * peak <= _daily_rate(times, params.daily_cycle_strength)]
        chunks.append(kept[: n - count])
        count += len(kept)
        t = times[-1]
    return np.concatenate(chunks)


def _sample_estimates(
    runtimes: np.ndarray, max_runtime: float, rng: np.random.Generator
) -> np.ndarray:
    """Requested runtimes: user over-estimation factor in [1, ~10]."""
    factor = 1.0 + rng.lognormal(mean=0.0, sigma=1.0, size=len(runtimes))
    return np.minimum(runtimes * factor, max_runtime * 4)


def generate_lublin_trace(
    params: LublinParams = LUBLIN_1,
    n_jobs: int = 10_000,
    seed: int | None = 0,
    name: str = "lublin",
    n_users: int = 64,
) -> SWFTrace:
    """Generate an SWF trace from the Lublin model.

    Users are assigned with a Zipf-like skew (a handful of heavy users),
    consistent with what archive traces show; the model itself does not
    specify user identities.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    rng = np.random.default_rng(seed)

    sizes = _sample_sizes(params, n_jobs, rng)
    runtimes = _sample_runtimes(params, sizes, rng)
    arrivals = _sample_arrivals(params, n_jobs, rng)
    estimates = _sample_estimates(runtimes, params.max_runtime, rng)

    user_weights = 1.0 / np.arange(1, n_users + 1) ** 1.2
    user_weights /= user_weights.sum()
    users = rng.choice(n_users, size=n_jobs, p=user_weights)

    # Columns as Python numbers in one pass each.  The executable id stays
    # one scalar draw per job: an array draw consumes the stream differently.
    jobs = [
        Job(
            job_id=job_id,
            submit_time=submit,
            run_time=run,
            requested_procs=procs,
            requested_time=estimate,
            user_id=user,
            group_id=user % 8,
            executable_id=int(rng.integers(1, 50)),
        )
        for job_id, (submit, run, procs, estimate, user) in enumerate(
            zip(arrivals.tolist(), runtimes.tolist(), sizes.tolist(),
                estimates.tolist(), users.tolist()),
            start=1,
        )
    ]
    header = SWFHeader(max_procs=params.n_procs, max_nodes=params.n_procs)
    return SWFTrace(jobs=jobs, header=header, name=name)
