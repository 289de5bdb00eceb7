"""Tests for the serving layer: wire protocol, per-tenant service,
multi-tenant router, asyncio socket daemon, load generator, and graceful
shutdown (the SIGTERM subprocess test mirrors ``TestNoLeakedWorkers``)."""

import asyncio
import contextlib
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

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

    def test_status_unknown_job(self):
        svc = self.make()
        with pytest.raises(ServiceError, match="unknown job 9"):
            svc.status(9)
        with pytest.raises(ServiceError, match="integer job_id"):
            svc.status("abc")

    def test_drain_reports_delta_not_cumulative(self):
        svc = self.make()
        svc.submit(wire_job(1, procs=8))   # starts: decision 1
        svc.submit(wire_job(2, procs=8))   # selected, stalls: decision 2
        svc.submit(wire_job(3, procs=8))   # queued behind the stall
        out = svc.drain()                  # resumes 2, then selects 3
        assert out["decisions"] == 1       # only job 3's commit is new
        assert svc.stats()["decisions"] == 3   # cumulative
        assert svc.engine.idle

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
        assert len(svc._finished) == 5
        with pytest.raises(ServiceError, match="unknown job 0"):
            svc.status(0)  # evicted from history
        assert svc.status(11)["job"]["state"] == "finished"

    def test_forget_jobs_called_on_completion(self):
        svc = self.make()
        forgotten = []
        svc.policy.forget_jobs = forgotten.extend  # duck-typed hook
        svc.submit(wire_job(1, run=3.0))
        svc.submit(wire_job(2, run=3.0))
        svc.drain()
        assert sorted(forgotten) == [1, 2]


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
        # departed jobs left the deploy feature cache (satellite 1 wiring)
        cache = svc.policy._cache
        assert cache is None or cache.size == 0

    def test_policy_is_retargeted_to_tenant_cluster(self, policy_path):
        svc = SchedulerService(TenantConfig(
            name="big", n_procs=128, policy_path=policy_path
        ))
        assert svc.policy.n_procs == 128


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
@pytest.fixture()
def live_server():
    config = ServeConfig(port=0, tenants=(
        TenantConfig(name="alpha", scheduler="FCFS", n_procs=64,
                     backfill="easy"),
        TenantConfig(name="beta", scheduler="SJF", n_procs=32),
    ))
    daemon = ServeDaemon(config)
    result = daemon.result = {}

    async def serve():
        daemon.loop = asyncio.get_running_loop()
        return await daemon.run_async()

    def run():
        result["rc"] = asyncio.run(serve())

    thread = daemon.thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 15
    while daemon.address is None and time.monotonic() < deadline:
        if not thread.is_alive():
            raise RuntimeError("daemon thread died before binding")
        time.sleep(0.01)
    assert daemon.address is not None, "daemon never bound"
    yield daemon
    if thread.is_alive():
        try:
            with ServeClient(*daemon.address) as client:
                client.drain(stop=True)
        except ServeError:
            pass  # test already stopped it
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert result.get("rc") == 0  # graceful exit


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


    @pytest.mark.parametrize("how", ["drain-stop", "signal"])
    def test_stop_with_a_second_live_connection_is_clean(
        self, live_server, how
    ):
        """Regression: a stop arriving while another client was still
        connected left that connection's handler parked in ``readline``;
        the loop's teardown cancelled it and asyncio logged the
        ``CancelledError`` traceback."""
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
            host, port = live_server.address
            with ServeClient(host, port) as idle, \
                    ServeClient(host, port) as active:
                assert idle.ping()["ok"] and active.ping()["ok"]
                if how == "drain-stop":
                    assert active.drain(stop=True)["stop"] is True
                else:  # what the SIGTERM/SIGINT handler calls, on the loop
                    live_server.loop.call_soon_threadsafe(
                        live_server.request_stop, "SIGTERM"
                    )
                live_server.thread.join(timeout=15)
                assert not live_server.thread.is_alive()
                # the daemon hung up on the idle client, it did not vanish
                with pytest.raises(ServeError):
                    idle.ping()
        finally:
            for log in watched:
                log.removeHandler(collect)
        assert live_server.result.get("rc") == 0
        noisy = [
            r.getMessage() for r in records
            if r.exc_info or r.levelno >= logging.WARNING
        ]
        assert noisy == []


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
