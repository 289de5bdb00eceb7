"""Asyncio front end: the long-lived scheduler daemon.

One process, one event loop, N tenants.  Connections speak the NDJSON
protocol (:mod:`repro.serve.protocol`); requests are dispatched
synchronously inside the loop — decisions are sub-millisecond, so the
loop itself is the concurrency model and the service layer needs no
locks.  Request handling is wrapped in the
``serve.request_latency_sec`` telemetry histogram; per-decision costs
land in the per-tenant ``serve.decision_latency_sec`` histograms.

Shutdown is graceful by construction: SIGTERM/SIGINT (or a ``drain``
request with ``"stop": true``) stops accepting connections, finishes any
in-flight request, hangs up on the clients still connected, drains every
tenant engine to quiescence, writes the final telemetry snapshot
(flushing the JSONL sink), and exits 0.

The daemon prints exactly one readiness line to stdout::

    repro-serve listening on 127.0.0.1:7653

so callers binding port 0 (tests, CI) can discover the ephemeral port.
Everything else goes through the ``repro.serve`` logger on stderr.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
from time import perf_counter

from repro.config import ServeConfig
from repro.telemetry import core as _telemetry
from repro.telemetry.sink import telemetry_run

from .protocol import ProtocolError, decode, encode, error_response
from .service import SchedulerRouter, ServiceError

__all__ = ["ServeDaemon", "serve"]

logger = logging.getLogger("repro.serve")

#: how long a stop waits for the remaining connections' handlers to see
#: the hang-up and return (a client that never reads can hold one open)
_HANGUP_GRACE_SEC = 5.0

#: longest request line the daemon reads (asyncio's own stream default,
#: named so the error response can quote it)
_MAX_LINE_BYTES = 64 * 1024


async def _discard_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Drop the rest of an over-limit line: the ``consumed`` bytes the
    failed read left buffered, then everything up to the newline (or EOF)."""
    while consumed:
        await reader.readexactly(consumed)
        consumed = 0
        try:
            await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            pass


class ServeDaemon:
    """Lifecycle owner: bind, serve, drain, flush, exit."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.router: SchedulerRouter | None = None
        self.address: tuple[str, int] | None = None
        self._stop: asyncio.Event | None = None
        self._stop_reason: str | None = None
        #: live connections: handler task -> its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    def request_stop(self, reason: str) -> None:
        if self._stop is not None and not self._stop.is_set():
            self._stop_reason = reason
            self._stop.set()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        reg = _telemetry.current()
        tel_latency = (
            reg.histogram("serve.request_latency_sec") if reg.enabled else None
        )
        tel_requests = reg.counter("serve.requests") if reg.enabled else None
        stop_after = False
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not stop_after:
                # readline(), spelled out: it would turn an over-limit
                # line into a bare ValueError and clear the buffer.
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF
                except asyncio.LimitOverrunError as exc:
                    # Swallow the rest of the line (so the close below is
                    # a clean FIN, not a reset that could eat the reply),
                    # answer once, then hang up on this connection only.
                    await _discard_line(reader, exc.consumed)
                    writer.write(encode(error_response(
                        f"request line exceeds {_MAX_LINE_BYTES} bytes"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break  # client hung up
                t0 = perf_counter()
                try:
                    msg = decode(line)
                    response = self.router.dispatch(msg)
                    if msg["op"] == "drain" and msg.get("stop"):
                        stop_after = True
                except (ProtocolError, ServiceError) as exc:
                    response = error_response(str(exc))
                except Exception:  # a bad request must not kill the daemon
                    logger.exception("internal error handling request")
                    response = error_response("internal server error")
                if tel_latency is not None:
                    tel_latency.record(perf_counter() - t0)
                    tel_requests.add()
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client died mid-request; nothing to answer
        finally:
            del self._connections[task]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
        if stop_after:
            self.request_stop("drain request")

    async def _hang_up(self) -> None:
        """Close the connections still open at stop and let their handlers
        return.  Dispatch is synchronous, so a handler is parked in
        ``readline`` (or flushing a finished response): closing its
        transport flushes, then feeds the reader EOF, and the handler
        leaves through its normal path — left parked, the loop's teardown
        would cancel it and asyncio would log the ``CancelledError``."""
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=_HANGUP_GRACE_SEC
            )

    # ------------------------------------------------------------------
    async def run_async(self) -> int:
        with telemetry_run(self.config.telemetry,
                           meta={"entry": "serve"}):
            # build services inside the telemetry session so per-tenant
            # instruments bind to the live registry
            self.router = SchedulerRouter(self.config)
            self._stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(
                        sig, self.request_stop, signal.Signals(sig).name
                    )
            server = await asyncio.start_server(
                self._handle, self.config.host, self.config.port,
                limit=_MAX_LINE_BYTES,
            )
            host, port = server.sockets[0].getsockname()[:2]
            self.address = (host, port)
            tenants = ", ".join(sorted(self.router.services))
            logger.info("serving tenants [%s] on %s:%s", tenants, host, port)
            print(f"repro-serve listening on {host}:{port}", flush=True)
            try:
                await self._stop.wait()
            finally:
                server.close()
                await self._hang_up()
                await server.wait_closed()
            logger.info("shutting down (%s): draining %d tenant(s)",
                        self._stop_reason, len(self.router.services))
            summary = self.router.drain_all()
            for name, stats in summary.items():
                logger.info(
                    "tenant %s drained: %d submitted, %d finished, "
                    "%d decisions", name, stats["submitted"],
                    stats["finished"], stats["decisions"],
                )
        # telemetry_run wrote the final snapshot and closed the sink
        return 0


def serve(config: ServeConfig) -> int:
    """Blocking entry point (the ``repro serve`` CLI)."""
    daemon = ServeDaemon(config)
    return asyncio.run(daemon.run_async())
