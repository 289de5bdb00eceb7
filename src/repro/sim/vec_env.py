"""VecSchedGym: many scheduling runs stepped in lock-step.

The RL loops are dominated by per-decision overhead: a policy forward
and an observation build per decision.  Stepping every run of a batch
together amortises both — one network call and one observation build
serve a whole *wave*, one decision per unfinished run, and the
Python-side event simulation is the only per-run cost left.  Training's
rollout (:mod:`repro.rl.trainer`) and every batch run of a deployed RL
policy (:meth:`repro.schedulers.RLSchedulerPolicy.run_lockstep`: RL
evaluation, and the trainer's validation) step through this class.

Observation type
----------------
A wave is ragged, ``(rows, counts)``: the float32 feature rows of every
unfinished run's visible jobs, one run after the other in run order, and
the number of rows each of them owns.  ``reset`` builds one
:class:`~repro.sim.env.FeatureCache` over every run's jobs, each run's
rows after the previous run's (the table is read by row only, never by
job id); a wave is one gather from it and one
:func:`~repro.sim.env.fill_dynamic_features` pass over all rows.
Features are encoded against the one ``n_procs`` the stepper is built
with — the training cluster's, or a deployed policy's — and one total
memory, so a reset's runs must share it.  Nothing here pads; a network
that wants the fixed window pads at its own input
(:func:`~repro.nn.ragged.pad_observations`).

Protocol
--------
::

    vec = VecSchedGym(n_procs, config)
    rows, counts = vec.reset([(jobs, cluster, backfill), ...])
    while len(counts):
        runs = vec.runs                # whose decisions this wave holds
        actions = <one per run of the wave, in wave order>
        rows, counts, finished = vec.step(actions)
        # finished: the runs that just completed their last job; they
        # leave the wave
    completed = [engine.completed for engine in vec.engines]

Each run is a plain :class:`~repro.sim.simulator.SchedulingEngine`, and
a job's row depends on nothing but the job and its own run's state, so a
run's waves are step for step what a lone :class:`~repro.sim.env.SchedGym`
shows for it, whichever runs step beside it — the property the golden
equivalence tests pin down.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.config import EnvConfig

from .env import FeatureCache, check_actions, observation_rows
from .simulator import SchedulingEngine

__all__ = ["VecSchedGym", "VecStepResult"]


class VecStepResult(NamedTuple):
    """Outcome of one lock-step: the next wave, and which runs finished."""

    rows: np.ndarray       # (K, F) float32: the next wave's job rows
    counts: np.ndarray     # rows per unfinished run, in run order
    finished: np.ndarray   # int64 indices of the runs that just ended


class VecSchedGym:
    """Scheduling runs advanced in lock-step, observed against ``n_procs``."""

    def __init__(self, n_procs: int, config: EnvConfig | None = None):
        self.n_procs = n_procs
        self.config = config or EnvConfig()
        #: one engine per run of the last ``reset``, in run order
        self.engines: list[SchedulingEngine] = []
        self._live: list[int] = []  # the wave's runs, in run order
        self._counts = np.zeros(0, dtype=np.int64)

    @property
    def runs(self) -> np.ndarray:
        """Run index of each decision of the current wave, in wave order."""
        return np.array(self._live, dtype=np.int64)

    # ------------------------------------------------------------------
    def reset(self, runs: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Start one engine per ``(jobs, cluster, backfill)`` run and run
        each to its first decision; returns the first wave."""
        if not runs:
            raise ValueError("reset() needs at least one run")
        engines = [SchedulingEngine(jobs, cluster, backfill=backfill)
                   for jobs, cluster, backfill in runs]
        total_mems = {engine.cluster.total_mem for engine in engines}
        if len(total_mems) > 1:
            raise ValueError(
                f"runs on clusters of different total memory {sorted(total_mems)} "
                "cannot share a wave; reset them separately"
            )
        (self._total_mem,) = total_mems
        self.engines = engines
        self._cache = FeatureCache(
            [job for engine in engines for job in engine.jobs],
            self.n_procs, self.config, total_mem=self._total_mem,
        )
        self._offsets = np.cumsum([0] + [e.n_jobs for e in engines[:-1]])
        self._live = [i for i, engine in enumerate(engines)
                      if engine.advance_until_decision()]
        return self._wave()

    def step(self, actions) -> VecStepResult:
        """Start each run's chosen job and run it to its next decision.

        ``actions`` has one visible-slot index per run of the wave, in
        wave order.  The whole vector is checked before any run moves, so
        a rejected step leaves every engine — and the wave — as it was.
        The step that ends the last run releases the reset's feature
        table; :attr:`engines` keep the runs' results until the next
        reset.
        """
        live = self._live
        if not live:
            raise RuntimeError("every run is done; call reset()")
        actions = np.asarray(actions)
        if actions.shape != (len(live),):
            raise ValueError(
                f"expected {len(live)} actions (one per run of the wave), "
                f"got shape {actions.shape}"
            )
        check_actions(actions, self._counts, self.config.max_obsv_size)
        finished = []
        for i, action in zip(live, actions.tolist()):
            engine = self.engines[i]
            engine.commit(engine.pending[action])
            if not engine.advance_until_decision():
                finished.append(i)
        if finished:
            done = set(finished)
            self._live = [i for i in live if i not in done]
        wave = self._wave()
        if not self._live:
            self._cache = None
        return VecStepResult(*wave, np.array(finished, dtype=np.int64))

    # ------------------------------------------------------------------
    def _wave(self) -> tuple[np.ndarray, np.ndarray]:
        """The observation of every unfinished run, as one ``(rows,
        counts)`` pair (empty once all are done)."""
        m = self.config.max_obsv_size
        idx: list[int] = []
        counts, now, free_procs, free_mem = [], [], [], []
        for i in self._live:
            engine = self.engines[i]
            visible = engine.pending_rows[:m]
            idx += visible
            counts.append(len(visible))
            now.append(engine.now)
            free_procs.append(engine.cluster.free_procs)
            free_mem.append(engine.cluster.free_mem)
        counts = self._counts = np.array(counts, dtype=np.int64)
        rows = observation_rows(
            self._cache,
            np.array(idx, dtype=np.intp)
            + np.repeat(self._offsets[self._live], counts),
            np.repeat(now, counts),
            np.repeat(free_procs, counts),
            self.n_procs,
            self.config,
            free_mem=np.repeat(free_mem, counts),
            total_mem=self._total_mem,
        )
        return rows, counts
