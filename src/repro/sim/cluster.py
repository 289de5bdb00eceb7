"""Multi-resource cluster model (processors + memory as a resource vector).

The paper targets homogeneous HPC platforms, so the original resource
state reduced to a count of free processors.  The scenario subsystem
(:mod:`repro.scenarios`) additionally expresses *memory-constrained*
clusters, so the model now tracks a two-component resource vector:

* **processors** — always finite, the paper's only resource;
* **memory** — abstract capacity units, ``None`` meaning *unconstrained*
  (internally ``inf``), which makes every memory check vacuously true and
  keeps the homogeneous case bit-identical to the processor-only model.

A job's memory demand follows the SWF convention: ``requested_mem`` is a
per-processor figure, so the demand is ``requested_mem * requested_procs``
(zero when the trace carries no request — the SWF ``-1`` sentinel).

The class still tracks per-job allocations so that invariants (no
double-release, conservation of both resources) are checked at every
transition — errors in resource accounting would silently corrupt every
scheduling metric downstream.  :meth:`Cluster._check` is the single home
of those invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.job import Job

__all__ = ["Cluster", "ClusterSpec", "mem_demand"]


def mem_demand(job: Job) -> float:
    """Total memory units ``job`` occupies while running.

    SWF's ``requested_mem`` is per processor; traces without memory
    requests carry the ``-1`` sentinel, which maps to zero demand so
    processor-only workloads are unaffected by memory accounting.
    """
    if job.requested_mem <= 0:
        return 0.0
    return job.requested_mem * job.requested_procs


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative, serializable description of a cluster.

    ``memory=None`` means unconstrained (the paper's processor-only
    machine); a float is the total memory capacity in abstract units.
    The spec is what scenario definitions, config objects and runtime
    workers ship around; :meth:`build` turns it into live state.
    """

    n_procs: int
    memory: float | None = None

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError(
                f"cluster needs a positive processor count, got {self.n_procs}"
            )
        if self.memory is not None and not self.memory > 0:
            raise ValueError(
                f"cluster memory must be positive (or None), got {self.memory}"
            )

    @property
    def total_mem(self) -> float:
        """Memory capacity with ``None`` normalised to ``inf``."""
        return math.inf if self.memory is None else float(self.memory)

    def build(self) -> "Cluster":
        return Cluster(self.n_procs, memory=self.memory)

    def to_dict(self) -> dict:
        return {"n_procs": self.n_procs, "memory": self.memory}

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        return cls(n_procs=data["n_procs"], memory=data.get("memory"))

    @classmethod
    def coerce(cls, value: "int | ClusterSpec") -> "ClusterSpec":
        """Accept the historical bare processor count or a full spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(
                f"expected a processor count or ClusterSpec, got {value!r}"
            )
        return cls(n_procs=value)


class Cluster:
    """Resource accounting for a homogeneous machine (procs + memory)."""

    def __init__(self, n_procs: int, memory: float | None = None):
        spec = ClusterSpec(n_procs, memory)  # validates both components
        self.n_procs = spec.n_procs
        self.free_procs = spec.n_procs
        self.total_mem = spec.total_mem
        self.free_mem = self.total_mem
        # Memory demands are floats, so releases reassemble the free pool
        # in a different rounding order than allocations consumed it; the
        # invariant bound carries a relative tolerance to separate that
        # ulp-level drift from real accounting bugs (which the exact
        # processor check also catches).  Precomputed: _check runs on
        # every transition.
        self._mem_bound = self.total_mem + 1e-9 * max(1.0, self.total_mem)
        self._allocations: dict[int, tuple[int, float]] = {}  # job_id -> held

    # ------------------------------------------------------------------
    def fits(self, n_procs: int, mem: float = 0.0) -> bool:
        """True if a ``(procs, mem)`` request fits the free resources.

        The single resource-vector check behind every admission decision
        (``can_allocate`` delegates here); with unconstrained memory the
        second comparison is against ``inf`` and never binds.
        """
        return n_procs <= self.free_procs and mem <= self.free_mem

    def can_allocate(self, job: Job) -> bool:
        """True if the job's full resource request fits right now."""
        return self.fits(job.requested_procs, mem_demand(job))

    def allocate(self, job: Job) -> float:
        """Take ``job``'s request out of the free pool; returns the memory
        units it now holds."""
        procs = job.requested_procs
        need_mem = mem_demand(job)
        # One test admits the request; total_mem is in it because free_mem
        # may sit an ulp above the capacity (see _mem_bound).
        if (
            procs > self.free_procs
            or need_mem > self.free_mem
            or need_mem > self.total_mem
            or job.job_id in self._allocations
        ):
            self._refuse(job, need_mem)
        self.free_procs -= procs
        self.free_mem -= need_mem
        self._allocations[job.job_id] = (procs, need_mem)
        self._check()
        return need_mem

    def _refuse(self, job: Job, need_mem: float) -> None:
        """Raise for a request :meth:`allocate` cannot grant: one the
        cluster could never hold, a double allocation, then a lack of free
        resources, in that order."""
        if job.requested_procs > self.n_procs:
            raise ValueError(
                f"job {job.job_id} requests {job.requested_procs} procs; "
                f"cluster only has {self.n_procs}"
            )
        if need_mem > self.total_mem:
            raise ValueError(
                f"job {job.job_id} needs {need_mem:g} memory units; "
                f"cluster only has {self.total_mem:g}"
            )
        if job.job_id in self._allocations:
            raise RuntimeError(f"job {job.job_id} is already allocated")
        raise RuntimeError(
            f"job {job.job_id} needs {job.requested_procs} procs "
            f"(+{need_mem:g} mem); only {self.free_procs} free "
            f"({self.free_mem:g} mem free)"
        )

    def release(self, job: Job) -> None:
        held = self._allocations.pop(job.job_id, None)
        if held is None:
            raise RuntimeError(f"job {job.job_id} holds no allocation")
        procs, mem = held
        self.free_procs += procs
        self.free_mem += mem
        if not self._allocations:
            # Idle cluster: snap to capacity so float rounding from
            # out-of-allocation-order releases cannot accumulate (and an
            # unconstrained pool is ``inf`` before and after).
            self.free_mem = self.total_mem
        self._check()

    def _check(self) -> None:
        """Conservation invariants, asserted at every transition."""
        assert 0 <= self.free_procs <= self.n_procs, (
            "processor conservation violated"
        )
        assert 0.0 <= self.free_mem <= self._mem_bound, (
            "memory conservation violated"
        )

    # ------------------------------------------------------------------
    @property
    def spec(self) -> ClusterSpec:
        return ClusterSpec(
            self.n_procs,
            None if math.isinf(self.total_mem) else self.total_mem,
        )

    @property
    def used_procs(self) -> int:
        return self.n_procs - self.free_procs

    @property
    def used_mem(self) -> float:
        return 0.0 if math.isinf(self.total_mem) else self.total_mem - self.free_mem

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of processors in use."""
        return self.used_procs / self.n_procs

    @property
    def mem_utilization(self) -> float:
        """Fraction of memory in use (0 when memory is unconstrained)."""
        if math.isinf(self.total_mem):
            return 0.0
        return self.used_mem / self.total_mem

    @property
    def n_running(self) -> int:
        return len(self._allocations)

    def reset(self) -> None:
        self.free_procs = self.n_procs
        self.free_mem = self.total_mem
        self._allocations.clear()

    def __repr__(self) -> str:
        mem = "" if math.isinf(self.total_mem) else (
            f", mem={self.free_mem:g}/{self.total_mem:g}"
        )
        return (
            f"Cluster(procs={self.n_procs}, free={self.free_procs}, "
            f"running={self.n_running}{mem})"
        )
