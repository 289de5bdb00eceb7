"""Tests for the serving layer: wire protocol, per-tenant service,
multi-tenant router, selector-loop socket daemon, load generator, and graceful
shutdown (the SIGTERM subprocess test mirrors ``TestNoLeakedWorkers``)."""

import contextlib
import gc
import json
import logging
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EnvConfig, ServeConfig, TenantConfig
from repro.nn import KernelPolicy
from repro.schedulers import RLSchedulerPolicy
from repro.serve import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    SchedulerRouter,
    SchedulerService,
    ServeClient,
    ServeDaemon,
    ServeError,
    ServiceError,
    job_from_wire,
    job_to_wire,
    replay_swf,
    run_closed_loop,
    trace_jobs,
)
from repro.serve.protocol import decode, encode, error_response, ok_response
from repro.serve.server import _MAX_LINE_BYTES as MAX_LINE
from repro.workloads import Job, SWFTrace, load_trace, write_swf


def wire_job(jid, run=10.0, procs=1, **extra):
    payload = {"job_id": jid, "run_time": run, "requested_procs": procs}
    payload.update(extra)
    return payload


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=200, seed=3)


@pytest.fixture(scope="module")
def policy_path(tmp_path_factory):
    env_config = EnvConfig(max_obsv_size=16)
    policy = KernelPolicy(env_config.job_features, seed=0)
    sched = RLSchedulerPolicy(policy, n_procs=64, env_config=env_config)
    path = tmp_path_factory.mktemp("policy") / "policy.npz"
    sched.save(str(path))
    return str(path)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        msg = {"v": PROTOCOL_VERSION, "op": "submit", "job": wire_job(7)}
        line = encode(msg)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode(line) == msg

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_decode_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="version"):
            decode(encode({"v": 99, "op": "ping"}))
        with pytest.raises(ProtocolError, match="version"):
            decode(b'{"op": "ping"}\n')

    def test_decode_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="op"):
            decode(encode({"v": PROTOCOL_VERSION, "op": "reboot"}))

    def test_every_op_is_known(self):
        assert set(OPS) == {"submit", "status", "stats", "advance",
                            "drain", "ping"}

    def test_responses_carry_version_and_ok(self):
        assert ok_response(x=1) == {"v": PROTOCOL_VERSION, "ok": True, "x": 1}
        err = error_response("boom")
        assert err["ok"] is False and err["error"] == "boom"

    def test_job_from_wire_requires_core_fields(self):
        for missing in ("job_id", "run_time", "requested_procs"):
            payload = wire_job(1)
            del payload[missing]
            with pytest.raises(ProtocolError, match=missing):
                job_from_wire(payload)

    def test_job_from_wire_defaults(self):
        job = job_from_wire(wire_job(3, run=25.0, procs=4))
        assert job.job_id == 3
        assert job.submit_time == 0.0
        assert job.requested_time == 25.0  # defaults to run_time

    def test_job_from_wire_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="priority"):
            job_from_wire(wire_job(1, priority=99))

    def test_job_round_trip(self):
        job = Job(job_id=11, submit_time=5.0, run_time=30.0,
                  requested_procs=8, requested_time=40.0)
        assert job_from_wire(job_to_wire(job)) == job
        full = Job(job_id=12, submit_time=0.0, run_time=1.0,
                   requested_procs=1, requested_mem=2.5, user_id=4)
        assert job_from_wire(job_to_wire(full)) == full

    def test_decode_rejects_bytes_that_are_not_utf8(self):
        """The parent let ``UnicodeDecodeError`` through to the daemon's
        catch-all (traceback in the log, "internal server error")."""
        with pytest.raises(ProtocolError, match="not valid JSON.*0xc3"):
            decode(b'{"v":1,"op":"ping","x":"\xc3\x28"}\n')

    def test_decode_rejects_bottomless_nesting(self):
        """As above, for the ``RecursionError`` of the C scanner."""
        with pytest.raises(ProtocolError, match="nested too deeply"):
            decode(b"[" * 60_000 + b"\n")

    @pytest.mark.parametrize("field", ["job_id", "requested_procs", "user_id"])
    def test_job_from_wire_rejects_an_overflowing_integer(self, field):
        """``1e400`` parses to ``inf``; the parent let ``int(inf)``'s
        ``OverflowError`` through as an internal error."""
        payload = wire_job(1)
        payload[field] = json.loads("1e400")
        with pytest.raises(ProtocolError, match=f"{field}.*finite.*inf"):
            job_from_wire(payload)

    @pytest.mark.parametrize("field", ["job_id", "requested_procs", "user_id"])
    @pytest.mark.parametrize("literal", ["1.5", "true", '"7"', "null", "[7]"])
    def test_job_from_wire_rejects_what_is_not_an_integer(self, field, literal):
        """Regression: ``int()`` ran over these fields, so ``1.5`` became
        job 1, ``true`` job 1 and ``"7"`` job 7 — silently."""
        payload = wire_job(1)
        payload[field] = json.loads(literal)
        with pytest.raises(ProtocolError, match=f"'{field}'.*integer") as info:
            job_from_wire(payload)
        assert repr(payload[field]) in str(info.value)

    def test_job_from_wire_accepts_integral_floats(self):
        job = job_from_wire({"job_id": 4.0, "run_time": 1,
                             "requested_procs": 2.0, "user_id": 7.0})
        assert (job.job_id, job.requested_procs, job.user_id) == (4, 2, 7)
        assert all(type(v) is int
                   for v in (job.job_id, job.requested_procs, job.user_id))

    @pytest.mark.parametrize("field", ["run_time", "submit_time",
                                       "requested_time", "requested_mem"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_job_from_wire_rejects_non_finite_floats(self, field, literal):
        """The parent admitted them: ``Job(run_time=nan)`` entered the
        event heap, an infinite submit time lifted the horizon for good."""
        payload = wire_job(1)
        payload[field] = json.loads(literal)
        with pytest.raises(ProtocolError) as info:
            job_from_wire(payload)
        assert field in str(info.value)
        assert repr(payload[field]) in str(info.value)

    def test_job_from_wire_reports_the_first_bad_field_in_schema_order(self):
        with pytest.raises(ProtocolError, match="'run_time'.*'abc'"):
            job_from_wire({"job_id": 1, "run_time": "abc", "user_id": None})

    def test_encode_is_the_stdlib_compact_dump(self):
        """One kept encoder, same bytes: ``json.dumps`` with compact
        separators is the oracle, over every response shape the router
        returns (and the float / unicode / nesting cases in them)."""
        router = make_router(
            TenantConfig(name="a", n_procs=8, backfill="easy"),
            TenantConfig(name="b\u00e9", scheduler="SJF", n_procs=4),
        )
        shapes = [router.dispatch(m) for m in (
            msg("ping"),
            msg("stats"),
            msg("submit", tenant="a", job=wire_job(1, run=1e-7, procs=8)),
            msg("submit", tenant="a",
                job=wire_job(2, run=2.5, procs=8, requested_mem=0.1,
                             user_id=3, submit_time=1 / 3)),
            msg("status", tenant="a", job_id=2),
            msg("advance", tenant="a", until=1e22),
            msg("status", tenant="a", job_id=2),
            msg("stats", tenant="a"),
            msg("drain", tenant="a"),
            msg("drain", stop=True),
        )]
        shapes.append(error_response('unknown tenant \'zz\'; "quoted" \u2713'))
        shapes.append({"nan": float("nan"), "inf": float("inf"), "none": None})
        for shape in shapes:
            assert encode(shape) == (
                json.dumps(shape, separators=(",", ":")) + "\n"
            ).encode()


# ---------------------------------------------------------------------------
# per-tenant service
# ---------------------------------------------------------------------------
class TestSchedulerService:
    def make(self, **overrides):
        defaults = dict(name="t", scheduler="FCFS", n_procs=8)
        defaults.update(overrides)
        return SchedulerService(TenantConfig(**defaults))

    def test_submit_starts_fitting_job(self):
        svc = self.make()
        out = svc.submit(wire_job(1, procs=4))
        assert out["state"] == "running"
        assert out["decisions"] == 1

    def test_submit_rejects_oversized_job(self):
        svc = self.make()
        with pytest.raises(ServiceError, match="requests 16 procs"):
            svc.submit(wire_job(1, procs=16))

    def test_tenant_memory_is_per_processor(self):
        """A 4-processor tenant with 2.0 memory per processor holds 8.0:
        a full-width job asking 1.0 per processor runs, 3.0 cannot fit."""
        svc = self.make(n_procs=4, memory=2.0)
        out = svc.submit(wire_job(1, procs=4, requested_mem=1.0))
        assert out["state"] == "running"
        with pytest.raises(ServiceError, match="memory"):
            svc.submit(wire_job(2, procs=4, requested_mem=3.0))

    def test_submit_rejects_duplicate_id(self):
        svc = self.make()
        svc.submit(wire_job(1))
        with pytest.raises(ServiceError, match="already known"):
            svc.submit(wire_job(1))

    def test_status_tracks_lifecycle(self):
        svc = self.make()
        svc.submit(wire_job(1, run=10.0, procs=8))
        svc.submit(wire_job(2, run=5.0, procs=8, submit_time=1.0))
        assert svc.status(1)["job"]["state"] == "running"
        assert svc.status(2)["job"]["state"] == "pending"
        svc.advance(100.0)
        record = svc.status(2)["job"]
        assert record["state"] == "finished"
        assert record["start_time"] == 10.0
        assert record["wait_time"] == pytest.approx(9.0)

    def test_status_follows_starts_the_service_did_not_commit(self):
        """Records are kept from the engine's start deltas: a backfilled
        job and one started by a resumed commit read ``running`` with
        their start time, as they did when every pump walked the
        running set."""
        svc = self.make(backfill="easy")
        svc.submit(wire_job(1, run=50.0, procs=6))
        assert svc.submit(wire_job(2, run=10.0, procs=8,
                                   submit_time=1.0))["state"] == "pending"
        out = svc.submit(wire_job(3, run=5.0, procs=2, submit_time=2.0))
        assert out["state"] == "running"  # backfilled beside job 1
        assert svc.status(3)["job"]["start_time"] == 2.0
        assert svc.status(2)["job"]["state"] == "pending"
        svc.advance(55.0)  # job 1 ends at 50: the stalled commit resumes
        record = svc.status(2)["job"]
        assert (record["state"], record["start_time"]) == ("running", 50.0)
        assert list(svc.status(3)["job"]) == [
            "job_id", "tenant", "state", "submit_time", "requested_procs",
            "start_time", "finish_time", "wait_time",
        ]

    def test_status_unknown_job(self):
        svc = self.make()
        with pytest.raises(ServiceError, match="unknown job 9"):
            svc.status(9)
        with pytest.raises(ServiceError, match="integer job_id"):
            svc.status("abc")
        with pytest.raises(ServiceError, match="integer job_id.*inf"):
            svc.status(float("inf"))  # "job_id": 1e400 on the wire
        svc.submit(wire_job(1))
        for not_job_1 in (1.5, True, "1"):  # int() read all three as job 1
            with pytest.raises(ServiceError, match="integer job_id"):
                svc.status(not_job_1)
        assert svc.status(1.0)["job"]["job_id"] == 1

    def test_drain_reports_delta_not_cumulative(self):
        svc = self.make()
        svc.submit(wire_job(1, procs=8))   # starts: decision 1
        svc.submit(wire_job(2, procs=8))   # selected, stalls: decision 2
        svc.submit(wire_job(3, procs=8))   # queued behind the stall
        out = svc.drain()                  # resumes 2, then selects 3
        assert out["decisions"] == 1       # only job 3's commit is new
        assert svc.stats()["decisions"] == 3   # cumulative
        assert svc.engine.idle

    def test_drained_tenant_counts_backfilled_starts(self):
        """``started`` counts every start, backfilled ones included: a
        drained tenant has started and finished all it was sent."""
        trace = load_trace("Lublin-1", n_jobs=800, seed=3)
        svc = self.make(n_procs=trace.max_procs, backfill="easy")
        for job in trace_jobs(trace, 600, seed=1, max_procs=trace.max_procs):
            svc.submit(job_to_wire(job))
        svc.drain()
        stats = svc.stats()
        assert stats["submitted"] == stats["started"] == stats["finished"] == 600

    def test_advance_validates_until(self):
        svc = self.make()
        with pytest.raises(ServiceError, match="numeric"):
            svc.advance("soon")
        with pytest.raises(ServiceError, match="numeric"):
            svc.advance(float("nan"))

    def test_stats_shape(self):
        svc = self.make()
        svc.submit(wire_job(1))
        stats = svc.stats()
        assert stats["tenant"] == "t"
        assert stats["scheduler"] == "FCFS"
        assert stats["submitted"] == 1 and stats["started"] == 1
        lat = stats["decision_latency_sec"]
        assert lat["count"] == 1
        assert lat["p50"] > 0 and lat["p99"] >= lat["p50"]

    def test_finished_history_is_capped(self):
        svc = SchedulerService(
            TenantConfig(name="t", n_procs=8), completed_history=5
        )
        for jid in range(12):
            svc.submit(wire_job(jid, run=1.0, procs=8))
        svc.drain()
        assert svc.n_finished == 12
        assert len(svc._history) == 5
        with pytest.raises(ServiceError, match="unknown job 0"):
            svc.status(0)  # evicted from history
        assert svc.status(11)["job"]["state"] == "finished"


class TestServiceWithRLPolicy:
    def test_policy_tenant_decides_and_evicts(self, policy_path):
        svc = SchedulerService(TenantConfig(
            name="rl", n_procs=64, policy_path=policy_path
        ))
        assert svc.policy.name == "RL:rl"
        for jid in range(20):
            svc.submit(wire_job(jid, run=5.0, procs=4))
        svc.drain()
        assert svc.n_finished == 20
        # the drained tenant's picker holds no departed job's row
        assert svc._pick.table.size == 0 and not svc._pick.slot

    def test_picker_table_stays_bounded(self, policy_path):
        """5 000 jobs streamed through an RL tenant: its picker's table
        never holds more than the compaction bound (a fixed number of
        observation windows), and after ``drain`` no more than the live
        queue."""
        trace = load_trace("Lublin-1", n_jobs=5000, seed=3)
        svc = SchedulerService(TenantConfig(
            name="rl", n_procs=trace.max_procs, policy_path=policy_path,
            backfill="easy",
        ))
        picker = svc._pick
        assert picker.bound == picker.COMPACT_AT * 16
        compactions = deepest = 0
        for job in trace_jobs(trace, 5000, seed=2, max_procs=trace.max_procs):
            size = picker.table.size
            svc.submit(job_to_wire(job))
            assert picker.table.size <= picker.bound
            compactions += picker.table.size < size
            deepest = max(deepest, len(svc.engine.pending))
        # the table was compacted over and over, through queues deeper
        # than the 16-job window
        assert compactions >= 10 and deepest > 16
        svc.drain()
        assert svc.n_finished == 5000
        assert svc._pick.table.size <= len(svc.engine.pending) == 0

    def test_policy_is_retargeted_to_tenant_cluster(self, policy_path):
        svc = SchedulerService(TenantConfig(
            name="big", n_procs=128, policy_path=policy_path
        ))
        assert svc.policy.n_procs == 128


# ---------------------------------------------------------------------------
# finished-job history
# ---------------------------------------------------------------------------
class OrderedDictService(SchedulerService):
    """The finished history as an ``OrderedDict`` of the live records,
    capped at ``completed_history`` ids, a re-finished id moved to the
    end; ``last_finishes`` holds the ids of the last ``completed_history``
    finishes, the jobs a ring of that many slots holds."""

    def __init__(self, tenant, completed_history):
        super().__init__(tenant, completed_history)
        self.cap = completed_history
        self.finished = OrderedDict()
        self.last_finishes = deque(maxlen=completed_history)

    def _reconcile(self):
        for job in self.engine.take_started():
            record = self._records[job.job_id]
            record["state"] = "running"
            record["start_time"] = job.start_time
        finished = self.engine.take_completed()
        self.n_finished += len(finished)
        for job in finished:
            record = self._records.pop(job.job_id)
            record.update(
                state="finished",
                start_time=job.start_time,
                finish_time=job.end_time,
                wait_time=job.start_time - job.submit_time,
            )
            self.finished[job.job_id] = record
            self.finished.move_to_end(job.job_id)
            self.last_finishes.append(job.job_id)
        while len(self.finished) > self.cap:
            self.finished.popitem(last=False)

    def status(self, job_id):
        record = self._records.get(job_id) or self.finished.get(job_id)
        if record is None:
            raise ServiceError(
                f"unknown job {job_id} on tenant {self.tenant.name!r} "
                "(never submitted, or evicted from the finished history)"
            )
        return {"job": dict(record)}

    def _state_of(self, job_id):
        record = self._records.get(job_id) or self.finished.get(job_id)
        return record["state"] if record else "unknown"


def _answer(call, *args):
    """One request's encoded response, or its ``ServiceError`` message
    (a drain's latency summary is wall time, so it is left out)."""
    try:
        out = call(*args)
    except ServiceError as exc:
        return str(exc)
    out.pop("decision_latency_sec", None)
    return encode(ok_response(**out))


_history_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 5),
                  st.sampled_from([0.0, 1.0, 2.5, 7.0]), st.integers(1, 8)),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0, 10.0])),
        st.tuples(st.just("drain")),
        # status twice: a third of the ops ask
        st.tuples(st.just("status"), st.integers(0, 5)),
        st.tuples(st.just("status"), st.integers(0, 5)),
    ),
    min_size=10,
    max_size=60,
)


class TestFinishedHistory:
    @settings(max_examples=150, deadline=None)
    @given(cap=st.integers(0, 5), backfill=st.sampled_from([False, "easy"]),
           ops=_history_ops)
    def test_ring_answers_as_the_ordered_dict(self, cap, backfill, ops):
        """Random submit / advance / drain / status sequences over six
        reused job ids: every response is byte-identical to the
        ``OrderedDict`` history's, except that a status the ring cannot
        answer is one of a job outside the last ``cap`` finishes — an id
        finishing again holds a second slot until it is overwritten."""
        tenant = TenantConfig(name="t", n_procs=8, backfill=backfill)
        ring = SchedulerService(tenant, completed_history=cap)
        ref = OrderedDictService(tenant, completed_history=cap)
        now = 0.0
        for op, *args in ops:
            if op == "submit":
                jid, run, procs = args
                args = (wire_job(jid, run=run, procs=procs, submit_time=now),)
            elif op == "advance":
                now += args[0]
                args = (now,)
            got = _answer(getattr(ring, op), *args)
            want = _answer(getattr(ref, op), *args)
            if op != "status" or args[0] in ref._records:
                assert got == want
            elif args[0] in ref.last_finishes:
                assert isinstance(got, bytes) and got == want
            else:
                assert got.startswith(f"unknown job {args[0]} ")
                # the OrderedDict still answering means an id finished
                # twice within the last ``cap`` finishes
                assert isinstance(want, str) or \
                    len(set(ref.last_finishes)) < len(ref.last_finishes)
            assert len(ring._history) <= cap and len(ring._history._ids) <= cap

    def test_reused_id_keeps_its_newer_finish(self):
        """A re-finished id takes a new slot: overwriting its older slot
        leaves the newer entry, which is evicted only in its own turn."""
        svc = SchedulerService(TenantConfig(name="t", n_procs=8),
                               completed_history=3)
        for jid in (1, 2, 1):  # job 1 again, once the engine forgot it
            svc.submit(wire_job(jid, run=1.0, procs=8))
            svc.drain()
        svc.submit(wire_job(3, run=1.0, procs=8))
        svc.drain()  # overwrites job 1's first slot
        assert svc.status(1)["job"]["start_time"] == 2.0
        assert len(svc._history) == 3
        for jid in (4, 5):
            svc.submit(wire_job(jid, run=1.0, procs=8))
            svc.drain()
        with pytest.raises(ServiceError, match="unknown job 1 "):
            svc.status(1)  # its newer slot was the oldest
        assert [svc.status(j)["job"]["job_id"] for j in (3, 4, 5)] == [3, 4, 5]

    def test_empty_ring_holds_nothing_per_slot(self):
        svc = SchedulerService(TenantConfig(name="t", n_procs=8))
        ring = svc._history
        assert ring.capacity == 10_000
        assert len(ring._ids) == len(ring._submit) == len(ring._procs) == 0
        svc.submit(wire_job(1, run=1.0))
        svc.drain()
        assert len(ring._ids) == len(ring._finish) == 1

    def test_retained_bytes_per_finished_job(self):
        """10 000 jobs through a tenant that keeps 5 000: what it holds
        beyond an identical tenant that keeps none is at most 250 B per
        retained job (an ``OrderedDict`` of 8-key dicts held ≈ 480 B)."""

        def held(history):
            gc.collect()
            tracemalloc.start()
            try:
                svc = SchedulerService(TenantConfig(name="t", n_procs=64),
                                       completed_history=history)
                for i in range(10_000):  # ids made while traced
                    svc.submit(wire_job(i, run=1.0 + i % 7, procs=1 + i % 8,
                                        submit_time=float(i)))
                svc.drain()
                assert len(svc._history) == history
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        per_job = (held(5000) - held(0)) / 5000
        assert 0 < per_job <= 250, per_job


# ---------------------------------------------------------------------------
# multi-tenant router
# ---------------------------------------------------------------------------
def make_router(*tenants):
    tenants = tenants or (TenantConfig(name="a", n_procs=8),
                          TenantConfig(name="b", scheduler="SJF", n_procs=4))
    return SchedulerRouter(ServeConfig(port=0, tenants=tuple(tenants)))


def msg(op, **fields):
    out = {"v": PROTOCOL_VERSION, "op": op}
    out.update(fields)
    return out


class TestSchedulerRouter:
    def test_single_tenant_is_implicit(self):
        router = make_router(TenantConfig(name="only", n_procs=8))
        out = router.dispatch(msg("submit", job=wire_job(1)))
        assert out["ok"] and out["state"] == "running"

    def test_default_tenant_is_implicit(self):
        router = make_router(TenantConfig(name="default", n_procs=8),
                             TenantConfig(name="other", n_procs=8))
        out = router.dispatch(msg("submit", job=wire_job(1)))
        assert router.services["default"].engine.n_submitted == 1
        assert router.services["other"].engine.n_submitted == 0
        assert out["ok"]

    def test_ambiguous_tenant_must_be_named(self):
        with pytest.raises(ServiceError, match="must name a tenant"):
            make_router().dispatch(msg("submit", job=wire_job(1)))

    def test_unknown_tenant(self):
        with pytest.raises(ServiceError, match="unknown tenant 'zz'"):
            make_router().dispatch(msg("stats", tenant="zz"))

    def test_tenant_isolation(self):
        router = make_router()
        router.dispatch(msg("submit", tenant="a", job=wire_job(1)))
        router.dispatch(msg("submit", tenant="b", job=wire_job(1)))
        assert router.services["a"].engine.n_submitted == 1
        assert router.services["b"].engine.n_submitted == 1

    def test_missing_operands_are_protocol_errors(self):
        router = make_router()
        with pytest.raises(ProtocolError, match="'job'"):
            router.dispatch(msg("submit", tenant="a"))
        with pytest.raises(ProtocolError, match="'job_id'"):
            router.dispatch(msg("status", tenant="a"))
        with pytest.raises(ProtocolError, match="'until'"):
            router.dispatch(msg("advance", tenant="a"))
        with pytest.raises(ProtocolError, match="tenant must be a string"):
            router.dispatch(msg("stats", tenant=7))

    def test_stats_without_tenant_reports_all(self):
        out = make_router().dispatch(msg("stats"))
        assert set(out["tenants"]) == {"a", "b"}

    def test_drain_without_tenant_drains_all_and_echoes_stop(self):
        router = make_router()
        router.dispatch(msg("submit", tenant="a", job=wire_job(1)))
        out = router.dispatch(msg("drain", stop=True))
        assert out["stop"] is True
        assert set(out["tenants"]) == {"a", "b"}
        assert all(s.engine.idle for s in router.services.values())

    def test_ping_lists_tenants(self):
        out = make_router().dispatch(msg("ping"))
        assert out["tenants"] == ["a", "b"]


# ---------------------------------------------------------------------------
# live socket daemon (in-process, ephemeral port)
# ---------------------------------------------------------------------------
TWO_TENANTS = ServeConfig(port=0, tenants=(
    TenantConfig(name="alpha", scheduler="FCFS", n_procs=64, backfill="easy"),
    TenantConfig(name="beta", scheduler="SJF", n_procs=32),
))


@contextlib.contextmanager
def serving(config=TWO_TENANTS):
    """A daemon on its own thread; on exit it has stopped and returned 0."""
    daemon = ServeDaemon(config)
    result = daemon.result = {}

    def run():
        result["rc"] = daemon.run()

    thread = daemon.thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 15
    while daemon.address is None and time.monotonic() < deadline:
        if not thread.is_alive():
            raise RuntimeError("daemon thread died before binding")
        time.sleep(0.01)
    assert daemon.address is not None, "daemon never bound"
    try:
        yield daemon
    finally:
        daemon.request_stop("test over")  # a no-op if the test stopped it
        thread.join(timeout=15)
    assert not thread.is_alive()
    assert result.get("rc") == 0  # graceful exit


@pytest.fixture()
def live_server():
    with serving() as daemon:
        yield daemon


@contextlib.contextmanager
def quiet_logs():
    """On exit, no record logged meanwhile may carry a traceback or be
    a WARNING or worse."""
    records = []

    class Collect(logging.Handler):
        def emit(self, record):
            records.append(record)

    collect = Collect(level=logging.DEBUG)
    # "repro" stops propagating once any test has run the CLI
    watched = [logging.getLogger(), logging.getLogger("repro")]
    for log in watched:
        log.addHandler(collect)
    try:
        yield
    finally:
        for log in watched:
            log.removeHandler(collect)
    assert [
        r.getMessage() for r in records
        if r.exc_info or r.levelno >= logging.WARNING
    ] == []


def connections(daemon):
    """White box: the daemon's records of its live connections."""
    keys = list(daemon._selector.get_map().values())
    return [key.data for key in keys if key.data is not None]


def raw_connection(address, rcvbuf=None):
    """A bare client socket that sends each write as its own segment."""
    sock = socket.socket()
    sock.settimeout(15)
    if rcvbuf is not None:  # before connect: it sizes the offered window
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.connect(address)
    return sock


def exchange(address, chunks):
    """Send ``chunks`` one ``sendall`` each, half-close, and return every
    byte the daemon sent back up to its hang-up."""
    with raw_connection(address) as sock:
        for chunk in chunks:
            sock.sendall(chunk)
        sock.shutdown(socket.SHUT_WR)
        return sock.makefile("rb").read()


def reference_answers(lines, config=TWO_TENANTS):
    """What a fresh daemon must send back for ``lines``: the frames of
    ``decode -> dispatch -> encode`` made in-process, no socket."""
    router = SchedulerRouter(config)
    frames = []
    for line in lines:
        try:
            frames.append(encode(router.dispatch(decode(line))))
        except (ProtocolError, ServiceError) as exc:
            frames.append(encode(error_response(str(exc))))
    return frames


class TestLiveServer:
    def test_request_response_over_socket(self, live_server):
        host, port = live_server.address
        with ServeClient(host, port) as client:
            assert client.ping()["tenants"] == ["alpha", "beta"]
            out = client.submit(wire_job(1, run=30.0, procs=16),
                                tenant="alpha")
            assert out["state"] == "running"
            assert client.status(1, tenant="alpha")["job"]["state"] == "running"
            out = client.advance(100.0, tenant="alpha")
            assert out["now"] == 30.0
            assert client.stats(tenant="alpha")["finished"] == 1

    def test_bad_requests_do_not_kill_the_connection(self, live_server):
        host, port = live_server.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown tenant"):
                client.stats(tenant="nope")
            with pytest.raises(ServeError, match="version"):
                client.request("submit", v=99)  # overridden version field
            # same connection still serves good requests
            assert client.ping()["ok"]

    def test_oversized_request_line_gets_a_typed_error(self, live_server, caplog):
        """Regression: a line over asyncio's 64 KiB stream limit raised
        ``ValueError`` out of ``readline`` — traceback in the log, empty
        reply.  Now: one error response naming the limit, that connection
        closed, the daemon and its other connections unharmed."""
        host, port = live_server.address
        line = encode({"v": PROTOCOL_VERSION, "op": "ping", "pad": "x" * 70_000})
        with caplog.at_level(logging.WARNING), \
                ServeClient(host, port) as other, \
                socket.create_connection((host, port), timeout=10) as sock:
            assert other.ping()["ok"]
            sock.sendall(line)
            reply = sock.makefile("rb").read()  # up to the daemon's hang-up
            response = json.loads(reply)
            assert response["ok"] is False
            assert "65536" in response["error"]
            assert other.ping()["ok"]  # the bystander keeps its connection
        with ServeClient(host, port) as fresh:
            assert fresh.ping()["ok"]
        assert [r for r in caplog.records if r.exc_info] == []

    def test_submit_job_object(self, live_server, trace):
        host, port = live_server.address
        job = trace_jobs(trace, 1, seed=9, max_procs=32)[0]
        with ServeClient(host, port) as client:
            out = client.submit(job, tenant="beta")
            assert out["job"]["job_id"] == job.job_id

    def test_drain_stop_shuts_daemon_down(self, live_server):
        host, port = live_server.address
        with ServeClient(host, port) as client:
            out = client.drain(stop=True)
            assert out["stop"] is True
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                ServeClient(host, port, timeout=1.0).close()
                time.sleep(0.05)
            except ServeError:
                break  # listener gone
        else:
            pytest.fail("daemon kept listening after drain stop")
        # the daemon logs its tenant drains after closing the listener:
        # join here, while this test's output is still captured
        live_server.thread.join(timeout=15)
        assert not live_server.thread.is_alive()


    @pytest.mark.parametrize("how", ["drain-stop", "signal"])
    def test_stop_with_a_second_live_connection_is_clean(
        self, live_server, how
    ):
        """Regression: a stop arriving while another client was still
        connected left that connection's handler task parked in
        ``readline``; the loop's teardown cancelled it and asyncio logged
        the ``CancelledError`` traceback — and, once fixed, still did
        about once in 25 runs under CPU contention, the stop racing the
        idle handler.  The selector loop has no handler tasks: a stop has
        nothing to cancel, it closes the sockets it owns."""
        with quiet_logs():
            host, port = live_server.address
            with ServeClient(host, port) as idle, \
                    ServeClient(host, port) as active:
                assert idle.ping()["ok"] and active.ping()["ok"]
                if how == "drain-stop":
                    assert active.drain(stop=True)["stop"] is True
                else:  # what the SIGTERM/SIGINT handler calls, from here
                    live_server.request_stop("SIGTERM")
                live_server.thread.join(timeout=15)
                assert not live_server.thread.is_alive()
                # the daemon hung up on the idle client, it did not vanish
                with pytest.raises(ServeError):
                    idle.ping()

    def test_stop_flushes_an_unsent_answer_before_the_hang_up(self):
        """A stop with answers still waiting for a slow reader: they are
        delivered in full (within ``_HANGUP_GRACE_SEC``), then the daemon
        hangs up.  The parent's ``writer.close()`` flushed its transport
        buffer the same way; kept.  64 tenants make one ``stats`` answer
        ~14 KB, so a few hundred requests — one segment, one read — owe
        the peer more than the kernel's socket buffers take."""
        config = ServeConfig(port=0, tenants=tuple(
            TenantConfig(name=f"t{i:02d}", n_procs=8) for i in range(64)
        ))
        n_requests = 512
        with quiet_logs(), serving(config) as daemon, \
                ServeClient(*daemon.address) as other, \
                raw_connection(daemon.address, rcvbuf=4096) as peer:
            peer.sendall(encode(msg("ping")))
            assert json.loads(peer.recv(4096))["ok"]  # accepted and watched
            peer.sendall(encode(msg("stats")) * n_requests)
            # two round trips on another connection: the first is answered
            # in the loop iteration that reads the peer's segment, or a
            # later one; the second after that iteration has ended
            assert other.ping()["ok"] and other.ping()["ok"]
            owed = sum(len(c.outbuf) for c in connections(daemon))
            assert owed > 0, "nothing was unsent: the case is not exercised"
            daemon.request_stop("SIGTERM")
            answers = peer.makefile("rb").read().splitlines()
            assert len(answers) == n_requests
            assert all(set(json.loads(a)["tenants"]) == set(
                t.name for t in config.tenants) for a in answers)
            daemon.thread.join(timeout=15)
            assert not daemon.thread.is_alive()
            with pytest.raises(ServeError):
                other.ping()

    def test_signal_on_the_main_thread_stops_a_blocked_loop(self):
        """``select`` is retried after a Python signal handler returns, so
        a handler that only set a flag would leave the loop asleep: the
        handler ``run`` installs wakes it through its socketpair.  On
        return the handlers it replaced are back."""
        def previous(signum, frame):
            raise AssertionError("the daemon's handler was not installed")

        daemon = ServeDaemon(TWO_TENANTS)

        def kill_when_listening():
            while daemon.address is None:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGTERM)

        before = signal.signal(signal.SIGTERM, previous)
        try:
            killer = threading.Thread(target=kill_when_listening, daemon=True)
            killer.start()
            with quiet_logs():
                assert daemon.run() == 0
            killer.join(timeout=15)
            assert signal.getsignal(signal.SIGTERM) is previous
        finally:
            signal.signal(signal.SIGTERM, before)
        assert daemon._stop_reason == "SIGTERM"

    def test_hostile_bytes_and_numbers_get_typed_errors(self, live_server):
        """Each of these reached the catch-all in the parent (logged
        traceback, "internal server error") or was admitted; now: a typed
        ``ok: false`` reply naming the field, nothing admitted, nothing
        logged, and the connection keeps serving."""
        def submit(**fields):
            job = encode(wire_job(1, **fields))[:-1]
            return (b'{"v":1,"op":"submit","tenant":"alpha","job":'
                    + job + b"}\n")

        cases = [
            (b'{"v":1,"op":"ping","x":"\xc3\x28"}\n', "not valid JSON"),
            (b"[" * 60_000 + b"\n", "nested too deeply"),
            (submit(job_id=0).replace(b'"job_id":0', b'"job_id":1e400'),
             "'job_id' must be a finite number, got inf"),
            (submit(run=0).replace(b'"run_time":0', b'"run_time":NaN'),
             "'run_time' must be a finite number, got nan"),
            (submit(submit_time=0).replace(b'"submit_time":0',
                                           b'"submit_time":Infinity'),
             "'submit_time' must be a finite number, got inf"),
            (b'{"v":1,"op":"status","tenant":"alpha","job_id":1e400}\n',
             "status needs an integer job_id, got inf"),
        ]
        with quiet_logs(), raw_connection(live_server.address) as sock:
            replies = sock.makefile("rb")
            for line, complaint in cases:
                sock.sendall(line)
                reply = json.loads(replies.readline())
                assert reply["ok"] is False
                assert complaint in reply["error"], reply
            sock.sendall(encode(msg("stats", tenant="alpha")))
            stats = json.loads(replies.readline())
            assert stats["ok"] and stats["submitted"] == 0
            sock.sendall(encode(msg("ping")))
            assert json.loads(replies.readline())["ok"] is True


# ---------------------------------------------------------------------------
# framing, back-pressure and disconnects, over the live socket
# ---------------------------------------------------------------------------
#: one session of every kind of line, each answered from state the
#: lines before it made (so order shows) and free of measured latencies
SESSION = [
    encode(msg("ping")),
    encode(msg("stats")),
    encode(msg("submit", tenant="alpha", job=wire_job(1, run=30.0, procs=64))),
    encode(msg("submit", tenant="alpha",
               job=wire_job(2, run=5.0, procs=8, submit_time=1.0))),
    encode(msg("status", tenant="alpha", job_id=2)),
    b"{nope\n",
    b"\n",
    b'  {"v": 1, "op": "advance",\r "tenant": "alpha", "until": 40} \r\n',
    encode(msg("status", tenant="alpha", job_id=2)),
    encode(msg("status", tenant="beta", job_id=2)),
    encode(msg("submit", tenant="alpha", job=wire_job(2))),
    encode(msg("stats", tenant="nope")),
    encode({"v": 99, "op": "ping"}),
    encode(msg("ping")),
]


class TestWire:
    def test_pipelined_requests_are_answered_in_order(self, live_server):
        """N requests in one segment -> N responses, in order, each the
        frame ``decode -> dispatch -> encode`` makes in-process.  The
        parent answered the same bytes, one ``write`` + ``drain`` per
        line; here they leave in one ``send`` per read."""
        expected = reference_answers(SESSION)
        assert len(expected) == len(SESSION)
        assert json.loads(expected[8])["job"]["state"] == "finished"
        assert exchange(live_server.address, [b"".join(SESSION)]) \
            == b"".join(expected)

    def test_one_byte_per_send_gets_the_same_bytes_back(self, live_server):
        """Framing is invisible: the same session cut into one-byte
        segments (kept from the parent, where asyncio's stream buffer
        did the reassembly)."""
        stream = b"".join(SESSION)
        chunks = [stream[i:i + 1] for i in range(len(stream))]
        assert exchange(live_server.address, chunks) \
            == b"".join(reference_answers(SESSION))

    def test_unterminated_last_line_is_answered_at_end_of_stream(
        self, live_server
    ):
        """``shutdown(SHUT_WR)`` after a line without its newline: the
        line is answered as it stands, then the daemon hangs up (kept:
        the parent served ``IncompleteReadError.partial``).  An empty
        line gets the "not valid JSON" reply (kept)."""
        unterminated = encode(msg("ping"))[:-1]
        reply = exchange(live_server.address, [b"\n" + unterminated])
        empty, ping = map(json.loads, reply.splitlines())
        assert empty["ok"] is False and "not valid JSON" in empty["error"]
        assert ping["ok"] is True and ping["tenants"] == ["alpha", "beta"]
        # end of stream with nothing buffered: hung up, nothing sent
        assert exchange(live_server.address, [encode(msg("ping"))]) \
            == encode(ok_response(tenants=["alpha", "beta"]))
        assert exchange(live_server.address, []) == b""

    @staticmethod
    def padded_ping(length):
        """A ``ping`` line of exactly ``length`` bytes before its newline."""
        bare = len(encode(msg("ping", pad=""))) - 1
        line = encode(msg("ping", pad="x" * (length - bare)))
        assert len(line) == length + 1
        return line

    def test_line_limit_boundary(self, live_server):
        """``_MAX_LINE_BYTES`` bytes before the newline are accepted, one
        more is refused — asyncio's ``readuntil`` limit, kept to the
        byte — however the line is cut into segments."""
        address = live_server.address
        fits = self.padded_ping(MAX_LINE)
        for cut in (len(fits), 1024):
            chunks = [fits[i:i + cut] for i in range(0, len(fits), cut)]
            reply = exchange(address, chunks + [encode(msg("ping"))])
            assert [json.loads(r)["ok"] for r in reply.splitlines()] \
                == [True, True]
        over = self.padded_ping(MAX_LINE + 1)
        for cut in (len(over), 1024):
            chunks = [over[i:i + cut] for i in range(0, len(over), cut)]
            reply = json.loads(exchange(address, chunks))
            assert reply["ok"] is False and str(MAX_LINE) in reply["error"]

    def test_requests_around_an_over_limit_line(self, live_server):
        """Good requests before the over-limit line, in its very segment,
        are answered first; the line is swallowed to its newline and
        answered once; what follows it — here in the segment that ends
        it — is dropped with the connection (the parent left it unread
        in asyncio's stream buffer: kept).  A line that never ends is
        refused at end of stream (kept).  Other connections and the
        daemon are unharmed, nothing is logged."""
        over = self.padded_ping(3 * MAX_LINE)
        head, body, tail = over[:1000], over[1000:-1000], over[-1000:]
        status = encode(msg("status", tenant="beta", job_id=1))
        with quiet_logs(), ServeClient(*live_server.address) as other:
            reply = exchange(live_server.address, [
                encode(msg("ping")) + status + head,
                *(body[i:i + 8192] for i in range(0, len(body), 8192)),
                tail + encode(msg("ping")) + status,
            ])
            answers = [json.loads(r) for r in reply.splitlines()]
            assert [a["ok"] for a in answers] == [True, False, False]
            assert "unknown job 1" in answers[1]["error"]
            assert str(MAX_LINE) in answers[2]["error"]
            assert other.ping()["ok"]  # the bystander keeps its connection
            endless = exchange(live_server.address, [over[:-1]])
            assert str(MAX_LINE) in json.loads(endless)["error"]
            assert other.ping()["ok"]

    #: a request heavy enough that a few hundred fill the socket buffers
    HEAVY = encode(msg("stats", pad="x" * 1000))

    def pipeline_until_blocked(self, peer):
        """Pipeline ``HEAVY`` without reading until a ``send`` makes no
        progress for a second; returns the bytes that were taken."""
        block = self.HEAVY * 64
        sent = 0
        peer.settimeout(1.0)
        with contextlib.suppress(socket.timeout):
            while sent < 64 * 2 ** 20:
                sent += peer.send(block[sent % len(block):])
        peer.settimeout(15)
        assert sent < 64 * 2 ** 20, "the daemon never stopped reading"
        return sent

    def test_a_peer_that_stops_reading_is_not_read_from(self, live_server):
        """Back-pressure: a peer that pipelines requests and never reads
        is owed at most one read's worth of answers — the daemon stops
        reading it, so its ``send`` eventually blocks — while a second
        client is served; once it reads, it gets exactly one response
        per request it sent.  (The parent's ``await writer.drain()``
        parked that connection's handler task the same way; kept.)"""
        with quiet_logs(), ServeClient(*live_server.address) as other, \
                raw_connection(live_server.address, rcvbuf=4096) as peer:
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            answer = len(encode(other.request("stats", pad="")))
            sent = self.pipeline_until_blocked(peer)
            (conn,) = [c for c in connections(live_server) if c.outbuf]
            assert len(conn.outbuf) <= answer * (MAX_LINE // len(self.HEAVY) + 2)
            assert other.ping()["ok"] and other.stats()["ok"]
            # start reading; meanwhile finish the line the block cut
            answers = []
            reader = threading.Thread(
                target=lambda: answers.extend(peer.makefile("rb")), daemon=True
            )
            reader.start()
            if sent % len(self.HEAVY):
                peer.sendall(self.HEAVY[sent % len(self.HEAVY):])
            peer.shutdown(socket.SHUT_WR)
            reader.join(timeout=15)
            assert not reader.is_alive()
            assert len(answers) == -(-sent // len(self.HEAVY))
            assert all(json.loads(a)["ok"] for a in answers)
            assert other.ping()["ok"]

    def test_a_reset_with_answers_unsent_is_silent(self, live_server):
        """A peer that resets the connection (``SO_LINGER`` 0) while the
        daemon still owes it answers: the connection is dropped, nothing
        is logged at WARNING or above, the others are unharmed.  (The
        parent swallowed ``ConnectionResetError`` / ``BrokenPipeError``
        in the handler; kept.)"""
        with quiet_logs(), ServeClient(*live_server.address) as other:
            peer = raw_connection(live_server.address, rcvbuf=4096)
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            self.pipeline_until_blocked(peer)
            assert any(c.outbuf for c in connections(live_server))
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            peer.close()  # RST, not FIN
            deadline = time.monotonic() + 15
            while len(connections(live_server)) > 1:
                assert time.monotonic() < deadline, "reset connection kept"
                assert other.ping()["ok"]
            assert other.stats(tenant="alpha")["ok"]


class TestLoadGenerator:
    def test_trace_jobs_clamps_and_sorts(self, trace):
        jobs = trace_jobs(trace, 50, seed=1, max_procs=32)
        assert len(jobs) == 50
        assert max(j.requested_procs for j in jobs) <= 32
        keys = [(j.submit_time, j.job_id) for j in jobs]
        assert keys == sorted(keys)

    def test_closed_loop_two_tenants(self, live_server, trace):
        host, port = live_server.address
        jobs = {"alpha": trace_jobs(trace, 30, seed=1, max_procs=64),
                "beta": trace_jobs(trace, 30, seed=2, max_procs=32)}
        report = run_closed_loop(host, port, jobs)
        assert report["requests"] == 60
        assert report["requests_per_sec"] > 0
        assert report["request_latency_sec"]["p99"] > 0
        assert report["decision_latency_sec"]["p99"] > 0
        # every job decided exactly once per commit; totals reconcile
        assert report["decisions"] == sum(
            t["decisions"] for t in report["per_tenant"].values()
        )
        for name in ("alpha", "beta"):
            assert report["tenants"][name]["finished"] == 30
            assert report["tenants"][name]["pending"] == 0

    def test_replay_swf_shares_the_wire(self, live_server, trace, tmp_path):
        host, port = live_server.address
        path = tmp_path / "stream.swf"
        stream = SWFTrace(jobs=trace_jobs(trace, 20, seed=4, max_procs=32))
        write_swf(stream, str(path))
        with ServeClient(host, port) as client:
            summary = replay_swf(client, str(path), tenant="beta")
        assert summary["submitted"] == 20
        assert summary["stats"]["finished"] == 20


# ---------------------------------------------------------------------------
# graceful shutdown (subprocess; mirrors TestNoLeakedWorkers)
# ---------------------------------------------------------------------------
class TestGracefulShutdown:
    """SIGTERM must finish in-flight work, drain every tenant, flush the
    telemetry sink, and exit 0."""

    @contextlib.contextmanager
    def daemon(self, tmp_path, *tenant_args):
        """``(proc, host, port)`` of a listening daemon; on exit the
        process is gone and both its pipes are closed."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *tenant_args, "--telemetry", str(tmp_path / "serve.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                match = re.match(r"repro-serve listening on (\S+):(\d+)", line)
                assert match, f"no readiness line, got {line!r}"
                yield proc, match.group(1), int(match.group(2))
            finally:
                if proc.poll() is None:
                    proc.kill()

    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        with self.daemon(
            tmp_path, "--tenant", "alpha:FCFS:16:easy", "--tenant",
            "beta:SJF:8",
        ) as (proc, host, port):
            with ServeClient(host, port) as client:
                client.submit(wire_job(1, run=50.0, procs=16), tenant="alpha")
                client.submit(wire_job(2, run=10.0, procs=8), tenant="alpha")
                client.submit(wire_job(3, run=5.0, procs=8), tenant="beta")
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 0, proc.stderr.read()

        # the sink was flushed and is schema-valid
        from repro.telemetry.sink import validate_jsonl
        stats = validate_jsonl(str(tmp_path / "serve.jsonl"))
        assert stats["events"]["snapshot"] == 1
        snapshot = stats["snapshot"]
        counters = snapshot["counters"]
        # SIGTERM arrived with job 2 still queued behind job 1: the drain
        # made that decision after the signal, and the flush recorded it
        assert counters["serve.decisions{tenant=alpha}"] == 2
        assert counters["serve.decisions{tenant=beta}"] == 1
        assert counters["serve.requests"] == 3
        assert "serve.request_latency_sec" in snapshot["histograms"]
        assert "serve.decision_latency_sec{tenant=alpha}" in snapshot["histograms"]

    def test_drain_stop_request_also_exits_zero(self, tmp_path):
        with self.daemon(tmp_path, "--tenant", "solo:FCFS:8") as (
            proc, host, port,
        ):
            with ServeClient(host, port) as client:
                client.submit(wire_job(1, run=5.0), tenant="solo")
                out = client.drain(tenant="solo", stop=True)
                assert out["stop"] is True
            rc = proc.wait(timeout=30)
            assert rc == 0, proc.stderr.read()
