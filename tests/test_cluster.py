"""Unit tests for the cluster resource model (allocation invariants)."""

import pytest

from repro.sim import Cluster
from repro.workloads import Job


def job(jid=1, procs=4, mem=-1.0):
    return Job(job_id=jid, submit_time=0.0, run_time=10.0, requested_procs=procs,
               requested_mem=mem)


class TestConstruction:
    def test_starts_idle(self):
        c = Cluster(64)
        assert c.free_procs == 64
        assert c.used_procs == 0
        assert c.utilization == 0.0
        assert c.n_running == 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(-4)


class TestAllocate:
    def test_allocate_and_release(self):
        c = Cluster(8)
        j = job(procs=5)
        assert c.can_allocate(j)
        c.allocate(j)
        assert c.free_procs == 3
        assert c.utilization == pytest.approx(5 / 8)
        c.release(j)
        assert c.free_procs == 8

    def test_cannot_overallocate(self):
        c = Cluster(8)
        c.allocate(job(1, 6))
        j2 = job(2, 4)
        assert not c.can_allocate(j2)
        with pytest.raises(RuntimeError, match="only 2 free"):
            c.allocate(j2)

    def test_job_larger_than_cluster(self):
        c = Cluster(8)
        with pytest.raises(ValueError, match="cluster only has"):
            c.allocate(job(1, 16))

    def test_double_allocate_rejected(self):
        c = Cluster(8)
        j = job()
        c.allocate(j)
        with pytest.raises(RuntimeError, match="already allocated"):
            c.allocate(j)

    def test_release_without_allocation_rejected(self):
        c = Cluster(8)
        with pytest.raises(RuntimeError, match="holds no allocation"):
            c.release(job())

    def test_fits(self):
        c = Cluster(8)
        assert c.fits(8)
        assert not c.fits(9)

    def test_reset(self):
        c = Cluster(8)
        c.allocate(job())
        c.reset()
        assert c.free_procs == 8
        assert c.n_running == 0

    def test_conservation_across_many_ops(self):
        c = Cluster(16)
        jobs = [job(i, 1 + i % 4) for i in range(8)]
        for j in jobs:
            if c.can_allocate(j):
                c.allocate(j)
        total_held = sum(
            j.requested_procs for j in jobs if j.job_id in c._allocations
        )
        assert c.free_procs + total_held == 16


class TestAllocateRefusals:
    """``allocate`` admits with one test; a refused request is diagnosed
    in a fixed precedence — could never fit (``ValueError``), already held
    (``RuntimeError``), does not fit now (``RuntimeError``) — and leaves
    the cluster as it was."""

    @staticmethod
    def busy():
        """8 procs / 16 memory units with job 1 holding 6 procs / 12."""
        c = Cluster(8, memory=16.0)
        c.allocate(job(1, 6, mem=2.0))
        return c

    @pytest.mark.parametrize(
        "request_, error, message",
        [
            # over capacity wins over everything, procs before memory
            (job(1, 16, mem=4.0), ValueError,
             "job 1 requests 16 procs; cluster only has 8"),
            (job(1, 6, mem=3.0), ValueError,
             "job 1 needs 18 memory units; cluster only has 16"),
            # a held job is a double allocation even when it would not fit
            (job(1, 6, mem=2.0), RuntimeError, "job 1 is already allocated"),
            (job(1, 1), RuntimeError, "job 1 is already allocated"),
            # lack of free resources, by either component
            (job(2, 3), RuntimeError,
             r"job 2 needs 3 procs \(\+0 mem\); only 2 free \(4 mem free\)"),
            (job(2, 2, mem=2.5), RuntimeError,
             r"job 2 needs 2 procs \(\+5 mem\); only 2 free \(4 mem free\)"),
        ],
    )
    def test_refusal_precedence_and_untouched_state(self, request_, error, message):
        c = self.busy()
        with pytest.raises(error, match=message):
            c.allocate(request_)
        assert (c.free_procs, c.free_mem, c.n_running) == (2, 4.0, 1)
        assert c._allocations == {1: (6, 12.0)}
        c.allocate(job(2, 2, mem=2.0))  # and what fits is still granted
        assert (c.free_procs, c.free_mem, c.n_running) == (0, 0.0, 2)

    def test_allocate_returns_the_memory_held(self):
        c = Cluster(8, memory=16.0)
        assert c.allocate(job(1, 2, mem=1.5)) == 3.0
        assert c.allocate(job(2, 2)) == 0.0
        assert Cluster(8).allocate(job(3, 2, mem=1.5)) == 3.0

    def test_release_of_the_last_job_snaps_memory_to_capacity(self):
        c = Cluster(8, memory=1.0)
        jobs = [job(i, 1, mem=m) for i, m in enumerate((0.1, 0.2, 0.3), 1)]
        for j in jobs:
            c.allocate(j)
        for j in jobs:  # released in allocation order: the sum rounds
            c.release(j)
        assert c.free_mem == 1.0 and c.free_procs == 8
        unconstrained = Cluster(8)
        unconstrained.allocate(jobs[0])
        unconstrained.release(jobs[0])
        assert unconstrained.free_mem == float("inf")
