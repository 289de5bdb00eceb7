"""Reference implementations the goldens compare ``src/`` against.

:func:`build_observation_loop` is the executable specification of the
observation encoding — one Python loop, one job per iteration, scalar
math only — and the padded window it returns is the oracle every ragged
wave is checked against, bit for bit.  :func:`pad_window` builds that
window from ragged observations an observation at a time: the padded
side of every "ragged equals padded" comparison.
:func:`sample_arrivals_loop` is the Lublin arrival process one candidate
per iteration, as ``workloads/lublin.py`` generated it before it thinned
a chunk at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.config import EnvConfig
from repro.sim.cluster import mem_demand
from repro.sim.env import RUNTIME_SCALE, WAIT_SCALE, stable_user_hash
from repro.workloads.job import Job
from repro.workloads.lublin import LublinParams, _daily_rate


def build_observation_loop(
    pending: Sequence[Job],
    now: float,
    free_procs: int,
    n_procs: int,
    config: EnvConfig,
    free_mem: float = math.inf,
    total_mem: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, list[Job]]:
    """``(observation, action_mask, visible_jobs)`` of a waiting queue:
    FCFS order, cut off at ``max_obsv_size``, missing slots zero rows."""
    visible = sorted(pending, key=lambda j: (j.submit_time, j.job_id))
    visible = visible[: config.max_obsv_size]

    obs = np.zeros(config.observation_shape, dtype=np.float32)
    free_frac = free_procs / n_procs
    log_cap = math.log(RUNTIME_SCALE)
    for i, job in enumerate(visible):
        wait = now - job.submit_time
        obs[i, 0] = wait / (wait + WAIT_SCALE)
        obs[i, 1] = min(math.log(max(job.requested_time, 1.0)) / log_cap, 1.0)
        obs[i, 2] = job.requested_procs / n_procs
        obs[i, 3] = free_frac
        obs[i, 4] = 1.0 if job.requested_procs <= free_procs else 0.0
        obs[i, 5] = stable_user_hash(job.user_id)
        obs[i, 6] = 1.0
        if config.memory_features:
            obs[i, config.MEM_DEMAND_COL] = min(mem_demand(job) / total_mem, 1.0)
            obs[i, config.MEM_FREE_COL] = (
                1.0 if math.isinf(total_mem) else free_mem / total_mem
            )

    mask = np.zeros(config.max_obsv_size, dtype=bool)
    mask[: len(visible)] = True
    return obs, mask, visible


def pad_window(
    rows: np.ndarray, counts: Sequence[int], max_obsv_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged observations as ``(n, M, F)`` zero-padded windows and their
    ``(n, M)`` action masks: observation ``i`` owns the next ``counts[i]``
    of ``rows``, in its leading slots."""
    obs = np.zeros((len(counts), max_obsv_size, rows.shape[1]), rows.dtype)
    masks = np.zeros((len(counts), max_obsv_size), dtype=bool)
    lo = 0
    for i, k in enumerate(counts):
        obs[i, :k] = rows[lo : lo + k]
        masks[i, :k] = True
        lo += k
    return obs, masks


def sample_arrivals_loop(
    params: LublinParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Gamma inter-arrivals thinned by the daily cycle, candidate by
    candidate: the arrivals, and the state ``rng`` is left in, that the
    chunk-wise ``_sample_arrivals`` must reproduce bit for bit."""
    shape = params.interarrival_shape
    base_mean = params.mean_interarrival / (1.0 + params.daily_cycle_strength)
    scale = base_mean / shape
    arrivals = np.empty(n)
    t = 0.0
    count = 0
    peak = 1.0 + params.daily_cycle_strength
    while count < n:
        gaps = rng.gamma(shape, scale, size=max(64, n - count))
        accept = rng.random(len(gaps))
        for gap, u in zip(gaps, accept):
            t += gap
            if u * peak <= _daily_rate(t, params.daily_cycle_strength):
                arrivals[count] = t
                count += 1
                if count == n:
                    break
    return arrivals
