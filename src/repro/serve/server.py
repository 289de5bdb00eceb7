"""Selector front end: the long-lived scheduler daemon.

One process, one thread, one ``selectors`` readiness loop the daemon
owns, N tenants.  Connections speak the NDJSON protocol
(:mod:`repro.serve.protocol`); requests are dispatched synchronously
inside the loop — decisions are sub-millisecond, so the loop itself is
the concurrency model and the service layer needs no locks.

**One read.**  A readable connection is read once (one bounded
``recv``); every complete line in it goes through ``decode →
SchedulerRouter.dispatch → encode`` in order (the
``serve.request_latency_sec`` histogram times that; decisions have the
per-tenant ``serve.decision_latency_sec`` ones) and the answers of that
read leave in one ``send``: a client that pipelines is answered per
batch.  A trailing partial line waits for its newline; at end of stream
it is answered as it stands, then the daemon hangs up.

**Back-pressure.**  What the kernel does not take of a ``send`` waits in
the connection's output buffer, and until the peer has taken it that
connection is watched for writability only: a peer that stops reading
is not read from, so it is owed at most one read's worth of answers.

**The line limit.**  A request line longer than ``_MAX_LINE_BYTES`` is
swallowed up to its newline (never buffered), answered once with a typed
error naming the limit — after the answers to the requests before it —
and that connection alone is closed; what followed the line is dropped.

**Stop.**  SIGTERM/SIGINT, :meth:`ServeDaemon.request_stop` from any
thread, or a ``drain`` request with ``"stop": true`` end the loop.  In
order: the listener closes; answers still unsent are flushed and every
remaining connection is hung up, within ``_HANGUP_GRACE_SEC``; every
tenant engine drains to quiescence; the final telemetry snapshot is
written (flushing the JSONL sink); ``run`` returns 0.

The one line on stdout, ``repro-serve listening on 127.0.0.1:7653``, is
how callers binding port 0 (tests, CI) discover the ephemeral port;
everything else goes through the ``repro.serve`` logger on stderr.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import signal
import socket
import threading
from time import monotonic, perf_counter

from repro.config import ServeConfig
from repro.telemetry import core as _telemetry
from repro.telemetry.sink import telemetry_run

from .protocol import ProtocolError, decode, encode, error_response
from .service import SchedulerRouter, ServiceError

__all__ = ["ServeDaemon", "serve"]

logger = logging.getLogger("repro.serve")

#: how long a stop keeps flushing unsent answers before it hangs up
#: regardless (a client that never reads could hold the daemon open)
_HANGUP_GRACE_SEC = 5.0

#: longest request line the daemon accepts, newline excluded (named so
#: the error response can quote it); also the size of one read
_MAX_LINE_BYTES = 64 * 1024

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Connection:
    """One client socket and what is buffered for it in either direction."""

    __slots__ = ("sock", "inbuf", "outbuf", "swallowing", "closing", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = b""          # the partial line a read ended in
        self.outbuf = b""         # answers the kernel has not taken yet
        self.swallowing = False   # inside an over-limit line
        self.closing = False      # hang up once outbuf is flushed
        self.events = _READ       # what the selector watches it for


class ServeDaemon:
    """Lifecycle owner: bind, serve, drain, flush, exit."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.router: SchedulerRouter | None = None
        self.address: tuple[str, int] | None = None
        self._stop_reason: str | None = None
        #: write end of the socketpair that wakes the loop for a stop
        self._wake: socket.socket | None = None
        #: the loop's registry: every live connection is a key in its map
        self._selector: selectors.BaseSelector | None = None
        self._tel_latency = self._tel_requests = None

    # ------------------------------------------------------------------
    def request_stop(self, reason: str) -> None:
        """Ask the loop to stop (the first reason given is the one
        logged), from any thread or a signal handler.  The flag alone
        would not do: ``select`` is retried after a handler returns, so
        the loop is woken through a socket it watches."""
        if self._stop_reason is None:
            self._stop_reason = reason
        if self._wake is not None:
            # full (a stop is pending) or closed (the loop has ended)
            with contextlib.suppress(OSError):
                self._wake.send(b"\0")

    def _answer(self, conn: _Connection, line: bytes) -> bytes:
        """One request line in, its response frame out."""
        t0 = perf_counter()
        try:
            msg = decode(line)
            response = self.router.dispatch(msg)
            if msg["op"] == "drain" and msg.get("stop"):
                # answered, flushed and hung up by the stop it asks for;
                # what this connection pipelined behind it is dropped
                conn.closing = True
                self.request_stop("drain request")
        except (ProtocolError, ServiceError) as exc:
            response = error_response(str(exc))
        except Exception:  # a bad request must not kill the daemon
            logger.exception("internal error handling request")
            response = error_response("internal server error")
        if self._tel_latency is not None:
            self._tel_latency.record(perf_counter() - t0)
            self._tel_requests.add()
        return encode(response)

    def _refuse_line(self, conn: _Connection) -> bytes:
        conn.closing = True
        message = f"request line exceeds {_MAX_LINE_BYTES} bytes"
        return encode(error_response(message))

    def _feed(self, conn: _Connection, data: bytes) -> None:
        """Answer every complete line of one read into ``conn.outbuf``."""
        data = conn.inbuf + data
        answers = []
        start = 0
        while not conn.closing:
            end = data.find(b"\n", start)
            if end < 0:
                break
            if conn.swallowing or end - start > _MAX_LINE_BYTES:
                answers.append(self._refuse_line(conn))
            else:
                answers.append(self._answer(conn, data[start:end + 1]))
            start = end + 1
        # the partial line waits for its newline, unless it is already
        # over the limit: then none of it is buffered
        conn.swallowing |= len(data) - start > _MAX_LINE_BYTES
        conn.inbuf = b"" if conn.swallowing or conn.closing else data[start:]
        conn.outbuf += b"".join(answers)

    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_MAX_LINE_BYTES)
        except BlockingIOError:
            return
        except OSError:  # reset: the client died, nothing to answer
            self._close(conn)
            return
        if data:
            self._feed(conn, data)
        else:  # end of stream: answer what it ended in, then hang up
            if conn.swallowing:
                conn.outbuf += self._refuse_line(conn)
            elif conn.inbuf:
                conn.outbuf += self._answer(conn, conn.inbuf)
            conn.closing = True
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what is buffered; watch for whichever comes next."""
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except BlockingIOError:
                sent = 0
            except OSError:  # the peer is gone with answers unsent
                self._close(conn)
                return
            conn.outbuf = conn.outbuf[sent:]
        if conn.outbuf or not conn.closing:
            # a peer that has not taken its answers is not read from
            events = _WRITE if conn.outbuf else _READ
            if events != conn.events:
                conn.events = events
                self._selector.modify(conn.sock, events, conn)
        else:
            self._close(conn)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            # the client gave up while queued; or descriptors ran out and
            # the loop spins until a connection closes (no bound yet: ROADMAP)
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, _READ, _Connection(sock))

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _hang_up(self) -> None:
        """Flush the answers still unsent at stop, then close every
        connection: a client blocked in a read sees end of stream, not a
        daemon that vanished."""
        deadline = monotonic() + _HANGUP_GRACE_SEC
        # the listener and the wake socket are out: connections only
        live = self._selector.get_map()
        for key in list(live.values()):
            key.data.closing = True
            self._flush(key.data)
        # those with unsent bytes are left, watched for write
        while live and (timeout := deadline - monotonic()) > 0:
            for key, _ in self._selector.select(timeout):
                self._flush(key.data)
        for key in list(live.values()):
            self._close(key.data)

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped; blocks the calling thread."""
        config = self.config
        with contextlib.ExitStack() as stack:
            enter = stack.enter_context
            enter(telemetry_run(config.telemetry, meta={"entry": "serve"}))
            # build services inside the telemetry session so per-tenant
            # instruments bind to the live registry
            self.router = SchedulerRouter(config)
            reg = _telemetry.current()
            if reg.enabled:
                self._tel_latency = reg.histogram("serve.request_latency_sec")
                self._tel_requests = reg.counter("serve.requests")
            self._selector = enter(selectors.DefaultSelector())
            wake_r, self._wake = map(enter, socket.socketpair())
            self._wake.setblocking(False)
            self._selector.register(wake_r, _READ, None)
            if threading.current_thread() is threading.main_thread():
                # signal handlers belong to the main thread; a daemon
                # hosted on another one is stopped through request_stop
                def on_signal(signum, _frame):
                    self.request_stop(signal.Signals(signum).name)
                for sig in (signal.SIGTERM, signal.SIGINT):
                    previous = signal.signal(sig, on_signal)
                    stack.callback(signal.signal, sig, previous)
            bind = (config.host, config.port)
            family = socket.getaddrinfo(*bind, type=socket.SOCK_STREAM)[0][0]
            listener = enter(socket.create_server(bind, family=family))
            listener.setblocking(False)
            self._selector.register(listener, _READ, None)
            host, port = self.address = listener.getsockname()[:2]
            tenants = ", ".join(sorted(self.router.services))
            logger.info("serving tenants [%s] on %s:%s", tenants, host, port)
            print(f"repro-serve listening on {host}:{port}", flush=True)
            try:
                while self._stop_reason is None:
                    for key, events in self._selector.select():
                        if key.data is None:
                            # or the wake socket: its byte stays unread,
                            # the loop condition sees the reason
                            if key.fileobj is listener:
                                self._accept(listener)
                        elif events & _READ:
                            self._on_readable(key.data)
                        else:
                            self._flush(key.data)
            finally:
                self._selector.unregister(listener)
                listener.close()
                self._selector.unregister(wake_r)
                self._hang_up()
            logger.info("shutting down (%s): draining %d tenant(s)",
                        self._stop_reason, len(self.router.services))
            for name, stats in self.router.drain_all().items():
                logger.info(
                    "tenant %s drained: %d submitted, %d finished, "
                    "%d decisions", name, stats["submitted"],
                    stats["finished"], stats["decisions"],
                )
        # telemetry_run wrote the final snapshot and closed the sink
        return 0

    async def run_async(self) -> int:
        """:meth:`run`, awaitable (it blocks the caller's event loop)."""
        return self.run()


def serve(config: ServeConfig) -> int:
    """Blocking entry point (the ``repro serve`` CLI)."""
    return ServeDaemon(config).run()
