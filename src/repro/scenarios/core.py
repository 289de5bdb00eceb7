"""Declarative scenarios: ``name → WorkloadSpec + ClusterSpec + EvalProtocol``.

A *scenario* packages everything that defines one evaluation setting of
the paper's protocol — which workload to generate (or replay), which
cluster to run it on, and how to score schedulers on it — behind a single
registered name, following the environment-variant-registry pattern of
gym-style suites.  Scenarios are plain frozen dataclasses of plain data:
they pickle to pool workers, serialize to JSON (``to_dict`` /
``from_dict``) for artifacts, and compose with the seeding convention of
:mod:`repro.runtime.seeding` so every derived random stream is keyed by
``(seed, stream tag, index)``.

Layers
------
:class:`WorkloadSpec`
    names a trace generator (any :func:`repro.workloads.load_trace` name,
    so real ``.swf`` replays work via ``swf_dir``) plus declarative
    parameter overrides for arrival/shape variants (bursty, diurnal,
    small clusters) and an optional synthetic memory-demand model for
    memory-constrained scenarios.
:class:`~repro.sim.cluster.ClusterSpec`
    the multi-resource cluster (processors + optional memory capacity).
:class:`EvalProtocol`
    the paper's test protocol knobs (sequences × length, metric,
    backfill), turned into an :class:`repro.config.EvalConfig` on demand.
:class:`Scenario`
    the named bundle, held in a process-wide registry
    (:func:`register_scenario` / :func:`get_scenario` /
    :func:`available_scenarios`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.config import EnvConfig, EvalConfig, ScenarioConfig
from repro.runtime.seeding import stream_rng
from repro.sim.cluster import ClusterSpec
from repro.workloads.archive import TRACE_SPECS, generate_archive_trace, load_trace
from repro.workloads.lublin import LUBLIN_1, LUBLIN_2, generate_lublin_trace
from repro.workloads.swf import SWFTrace

__all__ = [
    "WorkloadSpec",
    "EvalProtocol",
    "Scenario",
    "attach_memory_demands",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "resolve_scenario_config",
    "DEFAULT_SCENARIO",
]

#: RNG stream tag for synthetic memory demands (see runtime.seeding: every
#: derived stream is keyed [seed, tag, *indices] so sibling streams never
#: collide with sequence-sampling or action streams)
_MEM_STREAM = 15_485_863

#: the scenario equivalent to the historical hard-coded setup — pinned
#: bit-identical to the pre-scenario code paths by the golden tests
DEFAULT_SCENARIO = "lublin-256"


def attach_memory_demands(
    trace: SWFTrace,
    mean_per_proc: float,
    sigma: float = 0.5,
    seed: int = 0,
    cap_total: float | None = None,
) -> SWFTrace:
    """Copy ``trace`` with synthetic per-processor memory requests.

    Archive traces mostly carry the SWF "unknown" sentinel for
    ``requested_mem``, so memory-constrained scenarios synthesise demands:
    lognormal per-processor requests with mean ``mean_per_proc`` (abstract
    units), drawn from the dedicated ``(seed, mem-stream)`` RNG stream.
    ``cap_total`` clamps each job's *total* demand (``per_proc * procs``)
    so every job still fits an idle cluster of that capacity.
    """
    if mean_per_proc <= 0:
        raise ValueError(f"mean_per_proc must be positive, got {mean_per_proc}")
    rng = stream_rng(seed, _MEM_STREAM)
    mu = math.log(mean_per_proc) - 0.5 * sigma * sigma
    per_proc = rng.lognormal(mean=mu, sigma=sigma, size=len(trace))
    jobs = []
    for j, m in zip(trace.jobs, per_proc):
        c = j.copy()
        if cap_total is not None:
            m = min(m, cap_total / c.requested_procs)
            # The division can round up so that m * procs overshoots the
            # cap by an ulp, which the engine would reject; step the
            # per-proc figure down until the *total* demand fits.
            while m * c.requested_procs > cap_total:
                m = math.nextafter(m, 0.0)
        c.requested_mem = float(m)
        jobs.append(c)
    return SWFTrace(jobs=jobs, header=trace.header, name=trace.name)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one workload.

    ``trace`` is any name :func:`repro.workloads.load_trace` accepts
    (``Lublin-1``/``Lublin-2``, the archive calibrations, or a real
    ``.swf`` replay when ``swf_dir`` holds ``<trace>.swf``).  ``params``
    are generator-parameter overrides applied with ``dataclasses.replace``
    to the named :class:`~repro.workloads.lublin.LublinParams` /
    :class:`~repro.workloads.archive.ArchiveTraceSpec` — how arrival
    variants (bursty, diurnal) and resized clusters are expressed without
    code.  ``mem_mean_per_proc`` switches on the synthetic memory-demand
    model of :func:`attach_memory_demands`.
    """

    trace: str
    n_jobs: int = 10_000
    seed: int = 0
    params: tuple = ()             # sorted (key, value) generator overrides
    mem_mean_per_proc: float | None = None
    mem_sigma: float = 0.5
    swf_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.trace:
            raise ValueError("workload trace name must be non-empty")
        if self.n_jobs <= 0:
            raise ValueError(f"n_jobs must be positive, got {self.n_jobs}")
        if isinstance(self.params, Mapping):  # accept dicts, store canonical
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple(self.params))

    # ------------------------------------------------------------------
    def build(
        self,
        n_jobs: int | None = None,
        seed: int | None = None,
        mem_cap_total: float | None = None,
    ) -> SWFTrace:
        """Generate (or load) the trace this spec describes."""
        n = self.n_jobs if n_jobs is None else n_jobs
        s = self.seed if seed is None else seed
        overrides = dict(self.params)
        name = self.trace
        if overrides and name in ("Lublin-1", "Lublin-2"):
            base = LUBLIN_1 if name == "Lublin-1" else LUBLIN_2
            trace = generate_lublin_trace(
                dataclasses.replace(base, **overrides),
                n_jobs=n, seed=s, name=name,
            )
        elif overrides and name in TRACE_SPECS:
            trace = generate_archive_trace(
                dataclasses.replace(TRACE_SPECS[name], **overrides),
                n_jobs=n, seed=s,
            )
        elif overrides:
            raise ValueError(
                f"workload {name!r} accepts no generator overrides "
                f"(got {sorted(overrides)})"
            )
        else:
            # No overrides: delegate to load_trace so the default path —
            # including real-.swf replays — is byte-identical to calling
            # load_trace() directly (the golden-equivalence property).
            trace = load_trace(name, n_jobs=n, seed=s, swf_dir=self.swf_dir)
        if self.mem_mean_per_proc is not None:
            trace = attach_memory_demands(
                trace, self.mem_mean_per_proc, sigma=self.mem_sigma,
                seed=s, cap_total=mem_cap_total,
            )
        return trace

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "params": dict(self.params),
            "mem_mean_per_proc": self.mem_mean_per_proc,
            "mem_sigma": self.mem_sigma,
            "swf_dir": self.swf_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            trace=data["trace"],
            n_jobs=data.get("n_jobs", 10_000),
            seed=data.get("seed", 0),
            params=data.get("params", ()),
            mem_mean_per_proc=data.get("mem_mean_per_proc"),
            mem_sigma=data.get("mem_sigma", 0.5),
            swf_dir=data.get("swf_dir"),
        )


@functools.lru_cache(maxsize=8)
def _generated(
    workload: WorkloadSpec, n_jobs: int, seed: int, mem_cap_total: float | None
) -> SWFTrace:
    """Memoised :meth:`WorkloadSpec.build` for generated workloads; bounded,
    so a long-lived process holds at most a handful of traces."""
    return workload.build(n_jobs, seed, mem_cap_total)


@dataclass(frozen=True)
class EvalProtocol:
    """The paper's test-time protocol for one scenario (§V-C2 defaults)."""

    n_sequences: int = 10
    sequence_length: int = 1024
    seed: int = 42
    metric: str = "bsld"
    backfill: bool | str = False

    def __post_init__(self) -> None:
        if self.n_sequences <= 0 or self.sequence_length <= 0:
            raise ValueError("n_sequences and sequence_length must be positive")

    def eval_config(self) -> EvalConfig:
        """Materialise the protocol as an :class:`repro.config.EvalConfig`."""
        return EvalConfig(
            n_sequences=self.n_sequences,
            sequence_length=self.sequence_length,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "n_sequences": self.n_sequences,
            "sequence_length": self.sequence_length,
            "seed": self.seed,
            "metric": self.metric,
            "backfill": self.backfill,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalProtocol":
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One named workload × cluster × protocol setting."""

    name: str
    description: str
    workload: WorkloadSpec
    cluster: ClusterSpec
    protocol: EvalProtocol = field(default_factory=EvalProtocol)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")

    # ------------------------------------------------------------------
    def build_trace(
        self, n_jobs: int | None = None, seed: int | None = None
    ) -> SWFTrace:
        """The scenario's workload, memory demands clamped to its cluster.

        The returned :class:`SWFTrace` is **read-only**: a generated
        workload is a pure function of the frozen ``(WorkloadSpec, n_jobs,
        seed, cluster.memory)``, so repeated calls share one memoised
        trace (every consumer — the sequence sampler, the engines,
        :func:`attach_memory_demands` — copies the jobs it touches).  A
        real ``.swf`` replay (``swf_dir`` set) is re-read on every call,
        because the file can change.
        """
        workload = self.workload
        n = workload.n_jobs if n_jobs is None else n_jobs
        s = workload.seed if seed is None else seed
        if workload.swf_dir is not None:
            return workload.build(n, s, self.cluster.memory)
        return _generated(workload, n, s, self.cluster.memory)

    def env_config(self, base: EnvConfig | None = None) -> EnvConfig:
        """An :class:`EnvConfig` suited to this scenario.

        Memory-constrained clusters get the per-resource observation
        columns, and a protocol that evaluates with backfilling trains
        with the same backfill mode (otherwise a policy learns a
        different environment than it is scored in).  A ``base`` that
        already enables either setting is left alone; the default
        scenario changes nothing, so its observations stay bit-identical
        to the pre-scenario layout.
        """
        base = base or EnvConfig()
        updates: dict = {}
        if self.cluster.memory is not None and not base.memory_features:
            updates["memory_features"] = True
        if self.protocol.backfill and not base.backfill:
            updates["backfill"] = self.protocol.backfill
        return dataclasses.replace(base, **updates) if updates else base

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload.to_dict(),
            "cluster": self.cluster.to_dict(),
            "protocol": self.protocol.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            workload=WorkloadSpec.from_dict(data["workload"]),
            cluster=ClusterSpec.from_dict(data["cluster"]),
            protocol=EvalProtocol.from_dict(data.get("protocol", {})),
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the process-wide registry (returned unchanged)."""
    if not overwrite and scenario.name in _REGISTRY:
        raise ValueError(
            f"scenario {scenario.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: "str | Scenario") -> Scenario:
    """Look up a registered scenario (a Scenario passes through)."""
    if isinstance(name, Scenario):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {available_scenarios()}"
        ) from None


def available_scenarios() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def resolve_scenario_config(
    config: ScenarioConfig, trace: SWFTrace | None = None
) -> tuple[Scenario, SWFTrace]:
    """Resolve a :class:`repro.config.ScenarioConfig` into the scenario
    and its built trace, honouring the config's size/seed overrides.

    An explicitly passed ``trace`` wins over the scenario's workload and
    comes back as is; the scenario still supplies the cluster and the
    protocol (evaluation and training apply this one rule alike)."""
    scenario = get_scenario(config.name)
    if trace is None:
        trace = scenario.build_trace(n_jobs=config.n_jobs, seed=config.seed)
    return scenario, trace
