"""The asyncio front end of the evaluation service: one loop, two transports.

``EvaluationService`` is deliberately single-threaded: continuous batching
happens *inside* a drain, which keeps the determinism contract auditable.
This module owns everything that is not -- transports, concurrent clients,
admission under load -- and feeds the service whole batches.  A TCP
connection (:meth:`EvaluationServer.start`) and stdin/stdout
(:meth:`EvaluationServer.serve_stdio`, connection 0) run the same
per-connection handler, so everything below holds on both:

* **Framing** (:mod:`repro.serving.jsonl` owns the schema): one JSON
  request per line; a **blank line** flushes the connection's buffered
  frames into the server's pending batch, so clients that stream several
  lines before a blank line get full continuous-batching throughput.  EOF
  and the ``stats`` op flush too.  Lines flushed while a drain runs join
  the next drain.
* **Admission control** is server-wide: ``max_pending`` bounds the pending
  batch, and an overflowing frame is answered immediately with
  ``{"status": "rejected", "error": "admission queue full"}`` -- shed,
  never dropped.  ``max_inflight`` is per-connection flow control: the
  server stops *reading* a connection whose unanswered admissions reach
  the bound, so backpressure propagates to the client through the
  transport itself.
* **Priorities and deadlines** ride on the request schema
  (``"priority"``, ``"deadline_ms"``).  Each dispatched batch is ordered
  by ``(-priority, arrival)`` before it reaches the service, whose
  priority-aware miss dispatch admits high-priority lanes into
  ``run_continuous`` slots first; responses are written in that dispatch
  order, so completion is observably out-of-order under mixed priorities
  (match responses by ``id``).  A request's deadline covers its time in
  the *server's* queue too: the dispatcher subtracts the queue wait from
  ``deadline_ms`` before submission, and the service's cancellation seams
  evict lanes that expire mid-roll at the next inference boundary.
* **Hot reload**: :meth:`EvaluationServer.reload` stages a new trained
  pair; the dispatcher swaps in a fresh service at the next batch boundary
  (sharing the same :class:`~repro.serving.cache.ResultCache`), so
  in-flight batches finish on the old weights while new admissions roll --
  and cache -- under the new ``policy_digest``.  Both digests' entries
  coexist in the cache; neither can serve the other's results.
* **Fault injection** (:class:`~repro.reliability.faults.FaultPlan`
  domains 13/14): ``connection_drop_rate`` closes a doomed connection at
  accept, ``frame_corrupt_rate`` mangles individual frames -- both keyed
  and budget-free, both survivable by contract: a dropped connection or a
  mangled frame never disturbs its neighbours.

Determinism contract: a response is byte-identical to the same request
answered by the in-process service -- and therefore to
``evaluate_system(workers=1)`` -- because every response line is produced
by :func:`~repro.serving.jsonl.response_to_json` over the service's own
results.  ``tests/test_server.py`` asserts this end to end on both
transports.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.core.fleet import DEFAULT_FLEET_SIZE
from repro.serving.cache import ResultCache, policy_digest
from repro.serving.jsonl import request_from_json, response_to_json
from repro.serving.service import EpisodeRequest, EvaluationService

__all__ = ["EvaluationServer", "ServerHandle", "start_server_thread"]

MAX_LINE_BYTES = 1 << 20
"""Default per-line byte bound; an oversized frame errors and closes its
connection (the tail of the line is unrecoverable framing state)."""

_REJECTED = {"status": "rejected", "error": "admission queue full"}


class _Stdio:
    """The ``StreamReader``/``StreamWriter`` calls the handler makes, over
    blocking stdin/stdout files: a pipe, a regular file or a text stream.

    Each :meth:`readline` reads one line on a fresh daemon thread, so stdin
    is read only when the handler asks (flow control and the line bound hold
    as on a socket) and a read still blocked at exit holds nothing up.  The
    caller owns both streams.
    """

    def __init__(self, stdin, stdout, limit: int):
        self._stdin = stdin
        self._stdout = stdout
        self._text_out = isinstance(stdout, io.TextIOBase)
        self._limit = limit

    async def readline(self) -> bytes:
        loop = asyncio.get_running_loop()
        arrived = loop.create_future()

        def read() -> None:
            try:
                outcome = self._stdin.readline(self._limit + 1)
            except Exception as error:  # an unreadable stdin ends the session
                outcome = ConnectionError(f"stdin: {error}")
            with contextlib.suppress(RuntimeError):  # the loop closed first
                loop.call_soon_threadsafe(_fulfil, arrived, outcome)

        threading.Thread(target=read, name="repro-serve-stdin", daemon=True).start()
        line = await arrived
        if isinstance(line, ConnectionError):
            raise line
        if isinstance(line, str):
            line = line.encode()
        if len(line) > self._limit and not line.endswith(b"\n"):
            raise ValueError(f"line exceeds {self._limit} bytes")
        return line

    def write(self, data: bytes) -> None:
        self._stdout.write(data.decode() if self._text_out else data)

    async def drain(self) -> None:
        self._stdout.flush()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _fulfil(future: asyncio.Future, value) -> None:
    if not future.done():
        future.set_result(value)


class _Connection:
    """Per-connection state: frame buffer, inflight accounting, identity."""

    def __init__(self, index: int, writer: asyncio.StreamWriter):
        self.index = index
        self.writer = writer
        self.buffer: list[tuple[object, EpisodeRequest]] = []
        self.frames = 0
        self.inflight = 0
        self.closed = False
        self.gate = asyncio.Condition()


@dataclass
class _PendingEntry:
    """One admitted request waiting for the dispatcher."""

    seq: int
    connection: _Connection
    request_id: object
    request: EpisodeRequest
    enqueued_at: float


class EvaluationServer:
    """Serve the JSONL evaluation protocol over TCP or stdin/stdout.

    ::

        server = EvaluationServer(policies, "127.0.0.1", 0, slots=8)
        await server.start()          # server.port now holds the bound port
        ...
        await server.close()

    ``await server.serve_stdio(stdin, stdout)`` serves one stdin/stdout
    connection in place of ``start()``.

    One dispatcher task drains the server-wide pending batch through the
    wrapped :class:`EvaluationService` on a dedicated single-thread
    executor (the service is single-threaded by design; the executor keeps
    the event loop reading its connections while a batch rolls).  ``clock`` is the
    single monotonic time source for queue-wait accounting *and* the
    service's deadline checks -- injectable, so deadline tests advance a
    fake clock instead of sleeping.

    ``batch_started`` / ``before_drain`` are test seams: the first fires on
    the event loop when a batch is handed to the executor (dispatch order
    already fixed), the second inside the executor thread immediately
    before the service drains -- blocking there holds a batch "mid-drain"
    deterministically, which is how the hot-reload and shedding tests
    sequence themselves without sleeps.
    """

    def __init__(
        self,
        policies,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        slots: int = DEFAULT_FLEET_SIZE,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        max_pending: int | None = None,
        max_inflight: int | None = None,
        retry=None,
        chunk_timeout: float | None = None,
        fault_plan=None,
        max_line_bytes: int = MAX_LINE_BYTES,
        clock: Callable[[], float] = time.monotonic,
        batch_started: Callable[[list], None] | None = None,
        before_drain: Callable[[list], None] | None = None,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.host = host
        self.port = port
        self.workers = workers
        self.slots = slots
        self.use_cache = use_cache
        self.max_pending = max_pending
        self.max_inflight = max_inflight
        self.retry = retry
        self.chunk_timeout = chunk_timeout
        self.fault_plan = fault_plan
        self.max_line_bytes = max_line_bytes
        self.batch_started = batch_started
        self.before_drain = before_drain
        self._clock = clock
        # One cache instance outlives every service swap, so results rolled
        # under different policy digests coexist (hot reload keeps both).
        self.cache = (
            (cache if cache is not None else ResultCache(fault_plan=fault_plan))
            if use_cache else None
        )
        self._service = self._make_service(policies)
        self._pending: list[_PendingEntry] = []
        self._seq = 0
        self._accepted = 0
        self.connections_dropped = 0
        self.frames_corrupted = 0
        self.shed = 0
        self.batches = 0
        self.reloads = 0
        self._reload_mutex = threading.Lock()
        self._staged_policies = None
        self._wake = asyncio.Event()
        self._done = asyncio.Event()
        self._closing = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None

    def _make_service(self, policies) -> EvaluationService:
        return EvaluationService(
            policies,
            workers=self.workers,
            slots=self.slots,
            cache=self.cache,
            use_cache=self.use_cache,
            retry=self.retry,
            chunk_timeout=self.chunk_timeout,
            fault_plan=self.fault_plan,
            clock=self._clock,
        )

    # -- lifecycle -------------------------------------------------------------

    def _start_dispatcher(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-drain"
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def start(self) -> "EvaluationServer":
        """Bind the socket and start the dispatcher; resolves ``self.port``."""
        self._start_dispatcher()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.max_line_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_stdio(self, stdin, stdout) -> None:
        """Serve ``stdin``/``stdout`` as connection 0 until stdin ends.

        Returns once every admission from stdin has been answered; call
        :meth:`close` afterwards.  The streams may be binary or text.
        """
        self._start_dispatcher()
        stdio = _Stdio(stdin, stdout, self.max_line_bytes)
        await self._handle(stdio, stdio)

    async def close(self) -> None:
        """Stop accepting, drain what is pending, release engines."""
        if self._closing:
            await self._done.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._service.close()
        self._done.set()

    async def wait_closed(self) -> None:
        await self._done.wait()

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- hot reload ------------------------------------------------------------

    def reload(self, policies) -> str:
        """Stage new policy weights; returns their ``policy_digest``.

        Thread-safe.  The swap happens at the dispatcher's next batch
        boundary: batches already in the executor finish on the old
        weights, every batch dispatched afterwards rolls -- and caches --
        under the returned digest.  The shared cache carries both result
        sets; content addressing keeps them distinct.
        """
        digest = policy_digest(policies)
        with self._reload_mutex:
            self._staged_policies = policies
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._wake.set)
        return digest

    def _apply_staged_reload(self) -> None:
        with self._reload_mutex:
            fresh, self._staged_policies = self._staged_policies, None
        if fresh is None:
            return
        retired = self._service
        self._service = self._make_service(fresh)
        retired.close()
        self.reloads += 1

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict:
        """Server counters merged over the live service's (and cache's)."""
        return {
            "connections": self._accepted,
            "connections_dropped": self.connections_dropped,
            "frames_corrupted": self.frames_corrupted,
            "shed": self.shed,
            "batches": self.batches,
            "reloads": self.reloads,
            "policy": policy_digest(self._service.policies),
            **self._service.stats(),
        }

    # -- dispatcher ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._apply_staged_reload()
            if not self._pending:
                if self._closing:
                    return
                continue
            batch, self._pending = self._pending, []
            batch.sort(key=lambda entry: (-entry.request.priority, entry.seq))
            self.batches += 1
            if self.batch_started is not None:
                self.batch_started(list(batch))
            service = self._service
            try:
                payloads = await self._loop.run_in_executor(
                    self._executor, self._drain, service, batch
                )
            except Exception as error:  # the batch dies, the server must not
                message = str(error) or type(error).__name__
                payloads = [
                    self._with_id(entry.request_id, {"status": "error", "error": message})
                    for entry in batch
                ]
            for entry, payload in zip(batch, payloads):
                await self._respond(entry.connection, payload)
            if self._closing:
                # Keep the loop runnable: close() set the wake event once,
                # and this iteration consumed it.
                self._wake.set()

    def _drain(self, service: EvaluationService, batch: list[_PendingEntry]) -> list[dict]:
        """Executor-side: adjust deadlines for queue wait, drain, serialize.

        Responses are produced by :func:`response_to_json`, the serializer
        the in-process comparisons use too -- that shared serializer *is*
        the wire-level byte-identity guarantee the protocol tests pin.
        """
        if self.before_drain is not None:
            self.before_drain([entry.request for entry in batch])
        now = self._clock()
        requests = []
        for entry in batch:
            request = entry.request
            if request.deadline_ms is not None:
                waited_ms = (now - entry.enqueued_at) * 1000.0
                request = dataclasses.replace(
                    request, deadline_ms=max(0.0, request.deadline_ms - waited_ms)
                )
            requests.append(request)
        results = service.serve(requests)
        return [
            response_to_json(result, entry.request_id)
            for entry, result in zip(batch, results)
        ]

    # -- connection handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        index = self._accepted
        self._accepted += 1
        if self.fault_plan is not None and self.fault_plan.drops_connection(index):
            self.connections_dropped += 1
            await self._hang_up(writer)
            return
        connection = _Connection(index, writer)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # The line outgrew the stream limit; the unread tail is
                    # unrecoverable framing state, so error and hang up --
                    # this connection only, the server keeps accepting.
                    await self._send(connection, self._with_id(None, {
                        "status": "error",
                        "error": f"request line exceeds {self.max_line_bytes} bytes",
                    }))
                    break
                except ConnectionError:
                    break
                if not raw:
                    break
                await self._frame(connection, raw)
                if self.max_inflight is not None:
                    async with connection.gate:
                        while (
                            connection.inflight >= self.max_inflight
                            and not connection.closed
                        ):
                            await connection.gate.wait()
            await self._flush(connection)  # EOF flushes, like a blank line
            async with connection.gate:
                while connection.inflight > 0:
                    await connection.gate.wait()
        finally:
            connection.closed = True
            async with connection.gate:
                connection.gate.notify_all()
            await self._hang_up(writer)

    async def _frame(self, connection: _Connection, raw: bytes) -> None:
        """One received line: flush marker, op, or a buffered request."""
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as error:
            await self._send(connection, self._with_id(None, {
                "status": "error", "error": f"undecodable frame: {error}",
            }))
            return
        if not line:
            await self._flush(connection)
            return
        frame_index = connection.frames
        connection.frames += 1
        if self.fault_plan is not None and self.fault_plan.corrupts_frame(
            connection.index, frame_index
        ):
            self.frames_corrupted += 1
            line = self.fault_plan.mangle_line(line)
        request_id = None
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("a request frame must be a JSON object")
            request_id = obj.get("id")
            op = obj.get("op")
            if op == "stats":
                await self._stats_op(connection)
                return
            if op == "reload":
                await self._reload_op(connection, obj)
                return
            request = request_from_json(obj)
        except Exception as error:
            await self._send(connection, self._with_id(request_id, {
                "status": "error", "error": str(error) or type(error).__name__,
            }))
            return
        connection.buffer.append((request_id, request))

    async def _flush(self, connection: _Connection) -> None:
        """Admit this connection's buffered frames into the pending batch.

        Admission is decided synchronously frame by frame (no awaits
        between decisions), so shedding under a full ``max_pending`` batch
        is deterministic; shed frames are answered immediately with a
        ``rejected`` envelope.
        """
        if not connection.buffer:
            return
        frames, connection.buffer = connection.buffer, []
        rejected: list[dict] = []
        admitted = 0
        for request_id, request in frames:
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                self.shed += 1
                rejected.append(self._with_id(request_id, dict(_REJECTED)))
                continue
            self._pending.append(_PendingEntry(
                self._seq, connection, request_id, request, self._clock()
            ))
            self._seq += 1
            connection.inflight += 1
            admitted += 1
        if admitted:
            self._wake.set()
        for payload in rejected:
            await self._send(connection, payload)

    async def _stats_op(self, connection: _Connection) -> None:
        """Flush, wait for this connection's admissions to answer, report."""
        await self._flush(connection)
        async with connection.gate:
            while connection.inflight > 0:
                await connection.gate.wait()
        await self._send(connection, {"stats": self.stats()})

    async def _reload_op(self, connection: _Connection, obj: dict) -> None:
        """``{"op": "reload", "archive": PATH}``: stage weights from disk.

        The ack carries the staged digest; it means "staged", not
        "swapped" -- the swap lands at the next batch boundary, which is
        exactly the in-flight-finishes-on-old-weights contract.
        """
        await self._flush(connection)
        try:
            path = obj.get("archive")
            if not path:
                raise ValueError("reload needs 'archive': path to a policy archive")
            from repro.analysis.parallel import load_archive, restore_policies

            digest = self.reload(restore_policies(load_archive(path)))
        except Exception as error:
            await self._send(connection, self._with_id(obj.get("id"), {
                "status": "error", "error": str(error) or type(error).__name__,
            }))
            return
        await self._send(connection, self._with_id(obj.get("id"), {"reloaded": digest}))

    # -- response plumbing -----------------------------------------------------

    @staticmethod
    def _with_id(request_id, payload: dict) -> dict:
        return payload if request_id is None else {"id": request_id, **payload}

    async def _send(self, connection: _Connection, payload: dict) -> None:
        if connection.closed:
            return
        try:
            connection.writer.write((json.dumps(payload) + "\n").encode())
            await connection.writer.drain()
        except (ConnectionError, RuntimeError):
            connection.closed = True

    async def _respond(self, connection: _Connection, payload: dict) -> None:
        await self._send(connection, payload)
        async with connection.gate:
            connection.inflight -= 1
            connection.gate.notify_all()

    @staticmethod
    async def _hang_up(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- thread harness ------------------------------------------------------------


@dataclass
class ServerHandle:
    """A running server on a background thread (tests, benches, examples)."""

    host: str
    port: int
    server: EvaluationServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop = field(repr=False)

    def stop(self) -> None:
        """Gracefully close the server and join its thread (idempotent)."""
        if not self.thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(
            timeout=60
        )
        self.thread.join(timeout=60)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(policies, **kwargs) -> ServerHandle:
    """Run an :class:`EvaluationServer` on a daemon thread; returns when the
    socket is bound.  Keyword arguments pass through to the server."""
    ready = threading.Event()
    box: dict = {}

    def _run() -> None:
        async def _main() -> None:
            server = EvaluationServer(policies, **kwargs)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await server.wait_closed()

        try:
            asyncio.run(_main())
        except BaseException as error:  # surface bind/start failures to the caller
            box.setdefault("error", error)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-serving-tcp", daemon=True)
    thread.start()
    if not ready.wait(timeout=120):
        raise RuntimeError("evaluation server failed to start within 120 s")
    if "error" in box:
        raise RuntimeError("evaluation server failed to start") from box["error"]
    server = box["server"]
    return ServerHandle(server.host, server.port, server, thread, box["loop"])
