"""The shared-memory array plane: pool, codec, failure modes, identity.

Three layers of pinning:

* :class:`repro.runtime.SharedArrayPool` — span allocation, refcounted
  leases, owner-pid crash reclaim, and segment teardown;
* :class:`repro.runtime.ArrayCodec` — the protocol-5 wire format and its
  *lossless* fallbacks (small payloads, exhausted pool, non-contiguous
  arrays), plus the serialize-once broadcast channel;
* transport equivalence — where the arrays travel changes no result bit:
  training and evaluation are identical on the pool, on the inline
  fallback a host without ``/dev/shm`` gets, and on the serial runtime;
  and no run ever leaks ``/dev/shm`` segments (``TestNoLeakedSegments``,
  the sibling of ``TestNoLeakedWorkers``).
"""

import logging
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import EnvConfig, TrainConfig, load_trace, train
from repro.config import EvalConfig, RuntimeConfig
from repro.api import evaluate
from repro.runtime import (
    ActorRuntime,
    ArrayCodec,
    ProcessPoolBackend,
    SharedArrayPool,
    WorkerError,
)
from repro.runtime import actor as actor_mod
from repro.runtime import process_pool as process_pool_mod
from repro.schedulers import SJF
from repro.telemetry import core as telemetry


# ----------------------------------------------------------------------
# worker task functions (top-level so the process backend can pickle them)
# ----------------------------------------------------------------------
def echo_sum(state, arr):
    return float(np.asarray(arr).sum())


def make_array(state, n):
    return np.arange(n, dtype=np.float64)


def concat_shared(state, shared_arr, k):
    return float(shared_arr.sum()) + k


def mutate_result(state, n):
    # decoded arrays must be writable in the parent; return one to check
    return np.zeros(n, dtype=np.float64)


def lease_then_die(state, nbytes):
    if not nbytes:  # this worker survives
        return None
    pool = state["_shm_pool"]
    start = pool.put([b"x" * nbytes], refcount=1)
    assert start is not None
    os._exit(17)  # crash mid-lease: the parent must reclaim the span


@pytest.fixture
def pool():
    p = SharedArrayPool(n_slots=16, slot_bytes=1024)
    yield p
    p.destroy()


class TestSharedArrayPool:
    def test_put_read_release_roundtrip(self, pool):
        payload = os.urandom(3000)
        start = pool.put([payload])
        assert start is not None
        view = pool.read(start, len(payload))
        assert bytes(view) == payload
        view.release()
        assert pool.n_leases == 1 and pool.occupancy == 3 / 16
        pool.release(start)
        assert pool.n_leases == 0 and pool.occupancy == 0.0

    def test_multi_buffer_spans_are_consecutive(self, pool):
        bufs = [b"a" * 1500, b"b" * 700, b"c" * 100]
        start = pool.put(bufs)
        view = pool.read(start, 2300)
        assert bytes(view) == b"".join(bufs)
        view.release()
        pool.release(start)

    def test_refcount_frees_on_last_release(self, pool):
        start = pool.put([b"z" * 100], refcount=3)
        pool.release(start)
        pool.release(start)
        assert pool.n_leases == 1
        pool.release(start)
        assert pool.occupancy == 0.0
        # releasing a free span is a no-op, not an error
        pool.release(start)

    def test_exhaustion_returns_none(self, pool):
        # 16 slots x 1KiB: an 8KiB span fits twice, then never again
        starts = [pool.put([b"x" * 8192]) for _ in range(2)]
        assert None not in starts
        assert pool.put([b"x" * 8192]) is None
        assert pool.put([b"y" * (17 * 1024)]) is None  # bigger than the pool
        pool.release(starts[0])
        assert pool.put([b"x" * 8192]) is not None  # freed span is reusable

    def test_release_owner_reclaims_everything(self, pool):
        a = pool.put([b"a" * 100], refcount=5)
        b = pool.put([b"b" * 2000])
        assert a is not None and b is not None
        assert pool.release_owner(os.getpid()) == 2
        assert pool.occupancy == 0.0
        assert pool.release_owner(os.getpid()) == 0

    def test_state_roundtrip_attaches_without_ownership(self, pool):
        # __getstate__/__setstate__ back the spawn-context Process-args
        # path (the lock itself only pickles mid-spawn, so drive the
        # attach logic directly with the same lock object)
        start = pool.put([b"q" * 500])
        state = pool.__getstate__()
        clone = SharedArrayPool.__new__(SharedArrayPool)
        clone.__setstate__(state)
        view = clone.read(start, 500)
        assert bytes(view) == b"q" * 500
        view.release()
        assert clone._owner is False
        clone.close()  # must not unlink: the owner still reads fine
        view = pool.read(start, 500)
        assert bytes(view) == b"q" * 500
        view.release()

    def test_destroy_unlinks_segments(self):
        p = SharedArrayPool(n_slots=4, slot_bytes=1024)
        names = (p._ctl.name, p._data.name)
        p.destroy()
        p.destroy()  # idempotent
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestArrayCodec:
    def test_pipe_codec_is_plain_pickle(self):
        codec = ArrayCodec(None)
        obj = {"a": np.arange(10000.0), "b": "text"}
        wire, lease = codec.dumps(obj)
        assert wire[:1] == b"P" and lease is None
        out = codec.loads(wire)
        np.testing.assert_array_equal(out["a"], obj["a"])

    def test_shm_spills_large_arrays(self, pool):
        codec = ArrayCodec(pool)
        obj = {"big": np.arange(1000, dtype=np.float64), "s": 7}
        wire, lease = codec.dumps(obj)
        assert wire[:1] == b"S" and lease == (lease[0], 1)
        assert len(wire) < 1000  # descriptor, not 8KB of array bytes
        out = codec.loads(wire)
        np.testing.assert_array_equal(out["big"], obj["big"])
        assert out["s"] == 7
        assert pool.n_leases == 0  # decode consumed the lease

    def test_decoded_arrays_are_writable_copies(self, pool):
        codec = ArrayCodec(pool)
        src = np.arange(1000, dtype=np.float64)
        out = codec.loads(codec.dumps(src)[0])
        assert out.flags.writeable
        out += 1  # in-place ops must work (optimizer-state pattern)
        np.testing.assert_array_equal(out, src + 1)

    def test_small_payloads_stay_inline(self, pool):
        codec = ArrayCodec(pool)
        wire, lease = codec.dumps(np.arange(4, dtype=np.float64))
        assert wire[:1] == b"P" and lease is None and pool.n_leases == 0
        # above the buffer threshold but under the pool threshold: the
        # buffer rides the wire in-band (kind B), still no lease
        arr = np.arange(200, dtype=np.float64)  # 1600B
        wire, lease = codec.dumps(arr)
        assert wire[:1] == b"B" and lease is None and pool.n_leases == 0
        np.testing.assert_array_equal(codec.loads(wire), arr)

    def test_exhausted_pool_falls_back_inband_lossless(self, pool):
        codec = ArrayCodec(pool)
        hog = pool.put([b"x" * (16 * 1024)])  # fill the whole pool
        assert hog is not None
        arr = np.arange(2000, dtype=np.float64)
        wire, lease = codec.dumps(arr)
        assert wire[:1] == b"B" and lease is None
        np.testing.assert_array_equal(codec.loads(wire), arr)
        pool.release(hog)

    def test_dtype_shape_order_roundtrip(self, pool):
        codec = ArrayCodec(pool)
        cases = [
            np.arange(600, dtype=np.int32).reshape(20, 30),
            np.asfortranarray(np.arange(400.0).reshape(20, 20)),
            np.arange(300, dtype=np.float32)[::2],  # non-contiguous
            np.array([], dtype=np.float64),
            np.arange(500, dtype=np.uint8),
        ]
        out = codec.loads(codec.dumps(cases)[0])
        for got, want in zip(out, cases):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and got.shape == want.shape
        assert pool.n_leases == 0

    def test_multi_receiver_lease_refcount(self, pool):
        codec = ArrayCodec(pool)
        wire, lease = codec.dumps(np.arange(1000.0), receivers=3)
        assert lease[1] == 3
        for expected in (1, 1, 0):
            codec.loads(wire)
            assert pool.n_leases == expected

    def test_discard_refunds_undelivered_receivers(self, pool):
        codec = ArrayCodec(pool)
        wire, lease = codec.dumps(np.arange(1000.0), receivers=3)
        codec.loads(wire)
        codec.discard(lease, 2)  # 2 receivers never got the wire
        assert pool.n_leases == 0

    def test_unpicklable_raises_without_leaking(self, pool):
        codec = ArrayCodec(pool)
        with pytest.raises(Exception):
            codec.dumps({"arr": np.arange(1000.0), "bad": lambda: None})
        assert pool.n_leases == 0


class TestShmBackendFailureModes:
    def test_pool_exhaustion_degrades_to_inline(self, monkeypatch):
        # A pool far too small for the payloads: every message falls back
        # to in-band transport; results stay correct, nothing deadlocks.
        monkeypatch.setattr(
            process_pool_mod, "SharedArrayPool",
            lambda: SharedArrayPool(n_slots=2, slot_bytes=1024),
        )
        with ProcessPoolBackend(2) as b:
            arrs = [np.arange(50_000, dtype=np.float64) for _ in range(2)]
            assert b.map(echo_sum, arrs, chunksize=1) == [
                float(a.sum()) for a in arrs
            ]
            got = b.map(make_array, [30_000, 40_000])
            np.testing.assert_array_equal(got[1], np.arange(40_000.0))
            assert b._pool.n_leases == 0

    def test_worker_crash_mid_lease_releases_segments(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died") as err:
                b.map(lease_then_die, [8192, 0], chunksize=1)
            assert err.value.worker_id == 0
            assert b._pool.n_leases == 0  # crash reclaim freed the span

    def test_worker_crash_under_broadcast_is_a_worker_error(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died") as err:
                b.broadcast(lease_then_die, 8192)
            assert err.value.worker_id == 0  # the first in worker order
            assert b._pool.n_leases == 0  # both workers' spans reclaimed

    def test_broadcast_past_a_dead_worker_refunds_and_drains(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died"):
                b.map(lease_then_die, [0, 8192], chunksize=1)
            w = np.arange(10_000, dtype=np.float64)
            with pytest.raises(WorkerError) as err:
                b.broadcast(echo_sum, w)
            assert err.value.worker_id == 1
            # worker 0 decoded its copy, worker 1's was refunded ...
            assert b._pool.n_leases == 0
            # ... and worker 0's reply was drained: its pipe is in sync
            assert b.map(echo_sum, [w], chunksize=1) == [float(w.sum())]

    def test_broadcast_serializes_once(self):
        with ProcessPoolBackend(2) as b:
            w = np.arange(10_000, dtype=np.float64)
            before = b._pool._n_puts
            out = b.broadcast(concat_shared, w, 1)
            assert out == [w.sum() + 1] * 2
            assert b._pool._n_puts == before + 1  # one span, two workers
            assert b._pool.n_leases == 0

    def test_broadcast_single_dumps_on_pipe(self, monkeypatch, no_shm_pool):
        # Serialize-once holds on the inline fallback too: one dumps()
        # call per broadcast, not one per worker.
        with ProcessPoolBackend(3) as b:
            assert b._pool is None
            calls = []
            real_dumps = b._codec.dumps

            def counting_dumps(obj, receivers=1):
                calls.append(receivers)
                return real_dumps(obj, receivers)

            monkeypatch.setattr(b._codec, "dumps", counting_dumps)
            assert len(b.broadcast(make_array, 5)) == 3
            assert calls == [3]


class TestNoLeakedSegments:
    """Sibling of TestNoLeakedWorkers: shm segments must never outlive
    the run — clean close, mid-training exception, or abnormal exit."""

    @staticmethod
    def _live_segments():
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # non-Linux: nothing to scan
            return set()
        return {n for n in os.listdir(shm_dir) if n.startswith("repro-")}

    def test_clean_close_removes_segments(self):
        b = ProcessPoolBackend(2)
        b.start()
        names = {b._pool._ctl.name, b._pool._data.name}
        assert names <= self._live_segments()
        b.close()
        assert not names & self._live_segments()

    def test_exception_mid_training_leaves_no_segments(self, tmp_path):
        trace = load_trace("Lublin-1", n_jobs=400, seed=3)
        cfg = TrainConfig(
            epochs=2, trajectories_per_epoch=2, trajectory_length=16,
            seed=0, runtime=RuntimeConfig.from_workers(2),
        )
        before = self._live_segments()
        with pytest.raises(RuntimeError, match="sentinel"):
            from repro.rl.trainer import Trainer

            with Trainer(
                trace, env_config=EnvConfig(max_obsv_size=8),
                train_config=cfg,
            ) as t:
                t.run_epoch(0)
                raise RuntimeError("sentinel")
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
        assert self._live_segments() <= before

    def test_abnormal_parent_exit_unlinks_via_atexit(self, tmp_path):
        # A parent that dies on an uncaught exception never reaches
        # close(); the pool's atexit hook must still unlink the segments.
        script = tmp_path / "crash.py"
        script.write_text(
            "import sys\n"
            "from repro.runtime import SharedArrayPool\n"
            "p = SharedArrayPool(n_slots=4, slot_bytes=1024)\n"
            "p.put([b'x' * 2000])\n"
            "print(p._ctl.name, p._data.name)\n"
            "sys.stdout.flush()\n"
            "raise RuntimeError('abnormal exit')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert proc.returncode != 0
        names = set(proc.stdout.split())
        assert len(names) == 2
        assert not names & self._live_segments()


class TestTransportEquivalence:
    """Where the arrays travel is a pure bytes matter: training,
    evaluation, and the weights they
    produce are bit-identical on the shared-memory pool, on the inline
    fallback of a host that cannot create one, and on the serial runtime."""

    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace("Lublin-1", n_jobs=400, seed=3)

    def _train(self, trace, workers):
        """``(result, out-of-band bytes, segments left behind)``."""
        before = TestNoLeakedSegments._live_segments()
        with telemetry.session() as reg:
            result = train(
                trace,
                env_config=EnvConfig(max_obsv_size=8),
                train_config=TrainConfig(
                    epochs=2, trajectories_per_epoch=2, trajectory_length=16,
                    seed=0,
                    runtime=RuntimeConfig.from_workers(workers),
                ),
            )
            counters = reg.snapshot().aggregated().counters
        leaked = TestNoLeakedSegments._live_segments() - before
        return result, counters.get("runtime.ipc.bytes_shm", 0), leaked

    def test_training_bit_identical(self, trace, request):
        serial, _, _ = self._train(trace, 1)
        shm, shm_bytes, shm_leaked = self._train(trace, 2)
        request.getfixturevalue("no_shm_pool")
        pipe, pipe_bytes, pipe_leaked = self._train(trace, 2)
        assert shm_bytes > 0 and pipe_bytes == 0
        assert not shm_leaked and not pipe_leaked
        for run in (shm, pipe):
            np.testing.assert_array_equal(
                run.metric_curve(), serial.metric_curve()
            )
            for net in ("policy", "value"):
                for got, want in zip(getattr(run, net).parameters(),
                                     getattr(serial, net).parameters()):
                    np.testing.assert_array_equal(got.data, want.data)

    def test_evaluation_bit_identical(self, trace, request):
        def run():
            return evaluate(
                SJF(), trace,
                config=EvalConfig(
                    n_sequences=2, sequence_length=24,
                    runtime=RuntimeConfig.from_workers(2),
                ),
            )

        shm = run()
        request.getfixturevalue("no_shm_pool")
        pipe = run()
        np.testing.assert_array_equal(shm.values, pipe.values)


class TestEpisodeWire:
    """An ``EpisodeSlice`` crosses the process boundary as it is stored:
    its ragged ``rows`` are a view into the buffer a whole chunk of
    episodes was regrouped in, and only the view may travel."""

    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace("Lublin-1", n_jobs=400, seed=3)

    @pytest.fixture(scope="class")
    def sequences(self, trace):
        from repro.workloads import SequenceSampler

        return SequenceSampler(trace, 48, seed=2).sample_many(4)

    def test_only_the_episodes_own_rows_are_leased_and_shipped(
        self, trace, sequences
    ):
        from repro.nn import ValueMLP, make_policy

        config = EnvConfig(max_obsv_size=32)
        state = {}
        actor_mod._actor_init(
            state, trace.max_procs, "bsld", config, 2,
            make_policy("kernel", 32, 7, seed=0), ValueMLP(32, 7, seed=1),
            0, 7919, 0,
        )
        episodes = actor_mod._actor_episodes(state, (0, list(enumerate(sequences))))
        episode = episodes[1]
        shared = episode.rows.base
        assert shared is not None and shared.nbytes > 3 * episode.rows.nbytes
        assert all(ep.rows.base is shared for ep in episodes)

        big_pool = SharedArrayPool(n_slots=256, slot_bytes=1024)
        try:
            codec = ArrayCodec(big_pool)
            with telemetry.session() as reg:
                wire, lease = codec.dumps(episode)
                shipped = reg.snapshot().counters["runtime.ipc.bytes_shm"]
            columns = (episode.rows, episode.counts, episode.actions,
                       episode.log_probs, episode.values)
            assert shipped == sum(
                c.nbytes for c in columns if c.nbytes >= codec.min_buffer_bytes
            )
            assert episode.rows.nbytes <= shipped < shared.nbytes
            assert lease is not None and wire[:1] == b"S"
            leased = round(big_pool.occupancy * big_pool.n_slots)
            assert leased == -(-shipped // big_pool.slot_bytes)
            got = codec.loads(wire)
            assert big_pool.n_leases == 0
            for name in ("rows", "counts", "actions", "log_probs", "values"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(episode, name)
                )
            assert got.rows.dtype == np.float32 and got.rows.base is not shared
        finally:
            big_pool.destroy()

    def _pipe_bytes(self, trace, sequences):
        """Bytes the actor training flow writes to the pipes of a
        one-worker process backend (``run_perf.py::bench_ipc``, small)."""
        from repro.nn import ValueMLP, make_policy

        policy, value = make_policy("kernel", 32, 7, seed=0), ValueMLP(32, 7, seed=1)
        with telemetry.session() as reg:
            actors = ActorRuntime(
                trace.max_procs, "bsld", config=EnvConfig(max_obsv_size=32),
                runtime=RuntimeConfig(backend="process", workers=1), n_envs=4,
            )
            with actors:
                actors.install(policy, value)
                for epoch in range(2):
                    actors.rollout(epoch, list(enumerate(sequences)))
            return reg.snapshot().aggregated().counters["runtime.ipc.bytes_inline"]

    def test_pool_still_keeps_the_episodes_off_the_pipes(
        self, trace, sequences, request
    ):
        """The CI gate's ratio, measured here on the ragged wire format:
        pipe bytes with the pool over pipe bytes without it, <= 0.25."""
        with_pool = self._pipe_bytes(trace, sequences)
        request.getfixturevalue("no_shm_pool")
        without_pool = self._pipe_bytes(trace, sequences)
        assert with_pool / without_pool <= 0.25


class TestPoolUnavailable:
    """A host that cannot create the pool still runs — inline, after one
    warning — and a half-built pool leaves nothing behind."""

    def test_backend_warns_once_and_runs_inline(self, no_shm_pool):
        # a handler of our own, straight on the module's logger: "repro"
        # stops propagating to the root (where caplog listens) once any
        # test has run the CLI
        records = []
        handler = logging.Handler(level=logging.DEBUG)
        handler.emit = records.append
        log = logging.getLogger("repro.runtime.process_pool")
        log.addHandler(handler)
        try:
            with ProcessPoolBackend(2) as b:
                assert b._pool is None
                arr = np.arange(50_000, dtype=np.float64)
                assert b.broadcast(echo_sum, arr) == [arr.sum()] * 2
        finally:
            log.removeHandler(handler)
        warnings = [r for r in records if "pool unavailable" in r.getMessage()]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING

    def test_half_built_pool_unlinks_its_control_segment(self, monkeypatch):
        from repro.runtime import shm as shm_mod

        real = shm_mod.shared_memory.SharedMemory

        def data_segment_fails(*args, name=None, **kwargs):
            if name and name.startswith("repro-dat-"):
                raise OSError(28, "No space left on device")
            return real(*args, name=name, **kwargs)

        monkeypatch.setattr(
            shm_mod.shared_memory, "SharedMemory", data_segment_fails
        )
        before = TestNoLeakedSegments._live_segments()
        with pytest.raises(OSError):
            SharedArrayPool()
        assert TestNoLeakedSegments._live_segments() == before
