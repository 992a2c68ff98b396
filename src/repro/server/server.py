"""The asyncio sketch-server daemon behind ``repro serve``.

:class:`SketchServer` accepts length-framed requests (see
:mod:`repro.server.protocol`), dispatches them against a shared
:class:`~repro.server.registry.SketchRegistry`, and writes length-framed
responses.  Connections are independent: a malformed request gets an
error response on its own connection; a mid-frame disconnect, oversized
length prefix, or garbage framing closes *that* connection only.  The
registry and every other client are untouched either way.

Overload protection and durability (PR 9): a ``max_connections`` cap
answers excess connections with one ``BUSY`` response and hangs up; an
``idle_timeout`` reclaims connections that stop sending requests; and
:meth:`SketchServer.shutdown` drains gracefully -- the listener closes,
connections waiting between requests close at once, and requests that
have started to arrive finish and are answered before their connections
close.
With a :class:`~repro.server.persistence.PersistentStore` attached,
every acknowledged mutation is WAL-logged before the ack leaves.

:func:`serve_in_thread` hosts a server on a daemon thread with its own
event loop -- the harness used by the blocking CLI tests and any caller
who wants a resident server without adopting asyncio.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
import threading
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import ProtocolError, ReproError
from . import protocol
from .registry import SketchRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistence import PersistentStore

__all__ = ["SketchServer", "serve_in_thread", "ServerHandle"]


class SketchServer:
    """A resident sketch server speaking the IFSK socket protocol.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read the
        chosen one from :attr:`port` after :meth:`start`.
    max_frame_bytes:
        Cap on one request/response body.  A request declaring a larger
        length is answered with an error and the connection is closed
        (the stream position can no longer be trusted).
    registry:
        Share a prebuilt registry (e.g. preloaded from files); by
        default a fresh empty one is created.
    rng:
        Randomness for merge-on-collision, forwarded to the registry.
    max_connections:
        Cap on simultaneously served connections; connection number
        ``max_connections + 1`` is answered with one ``BUSY`` response
        and closed, so a client sees a retryable signal instead of an
        unbounded accept queue.  ``None`` (default) means uncapped.
    idle_timeout:
        Seconds a connection may sit between bytes before the server
        hangs up on it (both between requests and mid-frame).  ``None``
        (default) waits forever.
    store:
        A recovered :class:`~repro.server.persistence.PersistentStore`
        to own: the server triggers its auto-compaction between
        requests and closes it on shutdown.  Attach it to the registry
        via ``store.recover(registry)`` *before* serving.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        *,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        registry: SketchRegistry | None = None,
        rng: np.random.Generator | int | None = None,
        max_connections: int | None = None,
        idle_timeout: float | None = None,
        store: "PersistentStore | None" = None,
    ) -> None:
        if max_frame_bytes < 1:
            raise ProtocolError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        if max_connections is not None and max_connections < 1:
            raise ProtocolError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ProtocolError(
                f"idle_timeout must be positive, got {idle_timeout}"
            )
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.store = store
        self.registry = (
            registry
            if registry is not None
            else SketchRegistry(rng=rng, max_frame_bytes=max_frame_bytes)
        )
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # Connections waiting for the first byte of their next request:
        # a drain closes these at once instead of waiting out the grace.
        self._idle_writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._compacting = False

    @property
    def active_connections(self) -> int:
        """Connections currently being served (excludes BUSY-shed ones)."""
        return len(self._conn_tasks)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections; updates :attr:`port`."""
        self._draining = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting and close listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self, grace: float | None = 10.0) -> None:
        """Graceful drain: refuse new work, finish in-flight, then stop.

        The listener closes first (new connections are refused), and
        connections waiting between requests close at once.  A
        connection whose request has started to arrive gets up to
        ``grace`` seconds to finish it -- it hangs up after that
        response -- and any straggler past the grace period is
        cancelled.  The attached store (if any) is closed last, after
        the final journal append.
        """
        self._draining = True
        # Close idle connections before awaiting the listener's close,
        # which on newer Pythons waits for open connections to finish.
        for writer in self._idle_writers:
            writer.close()  # the pending read ends at EOF; the task exits
        await self.close()
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            _done, stragglers = await asyncio.wait(pending, timeout=grace)
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self.store is not None:
            self.store.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            # Shutdown already started; refuse silently, like a closed
            # listener would have.
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        if (
            self.max_connections is not None
            and len(self._conn_tasks) >= self.max_connections
        ):
            # Shed load with one explicit, retryable answer instead of
            # queueing unboundedly.
            with contextlib.suppress(Exception):
                await self._send(
                    writer,
                    protocol.encode_busy(
                        f"server at capacity ({self.max_connections} connections)"
                    ),
                )
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                # The first byte separates an idle connection (which a
                # drain closes at once) from a request that has started
                # to arrive (which a drain answers).
                self._idle_writers.add(writer)
                try:
                    header = await self._read_exactly(reader, 1)
                except asyncio.IncompleteReadError:
                    break  # clean EOF between messages, or closed by a drain
                except asyncio.TimeoutError:
                    break  # idle past the timeout: reclaim the slot
                finally:
                    self._idle_writers.discard(writer)
                try:
                    header += await self._read_exactly(reader, 3)
                except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                    break  # disconnect or stall mid-prefix
                (length,) = struct.unpack(">I", header)
                if not 1 <= length <= self.max_frame_bytes:
                    # The framing itself is broken; answer once and hang
                    # up -- we cannot resynchronize on this stream.
                    await self._send(
                        writer,
                        protocol.encode_error(
                            f"message of {length} bytes outside "
                            f"[1, {self.max_frame_bytes}]"
                        ),
                    )
                    break
                try:
                    body = await self._read_exactly(reader, length)
                except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                    break  # mid-frame disconnect or stall: drop this client
                response = self._dispatch(body)
                await self._send(writer, response)
                if self.store is not None:
                    await self._maybe_compact()
                if self._draining:
                    break  # answered the in-flight request; now drain
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # peer vanished; nothing shared is affected
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_exactly(self, reader: asyncio.StreamReader, n: int) -> bytes:
        if self.idle_timeout is None:
            return await reader.readexactly(n)
        # The timeout is *idle* time between bytes, not a total deadline:
        # it resets on every chunk of progress, so a large frame arriving
        # steadily over a slow link is never dropped mid-request.
        buf = bytearray()
        while len(buf) < n:
            chunk = await asyncio.wait_for(
                reader.read(n - len(buf)), self.idle_timeout
            )
            if not chunk:
                raise asyncio.IncompleteReadError(bytes(buf), n)
            buf.extend(chunk)
        return bytes(buf)

    async def _send(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        writer.write(protocol.frame_message(body, self.max_frame_bytes))
        await writer.drain()

    async def _maybe_compact(self) -> None:
        """Run due compaction on a worker thread, never the event loop.

        Compacting a large registry encodes every resident frame and
        fsyncs a snapshot; doing that inline would stall every other
        connection past its own timeouts.  Single-flight: while one
        compaction runs, other connections skip the check (the op
        counter keeps accruing, so the next check catches up).  The
        store's locks order any concurrent WAL append correctly, and a
        failed compaction is reported but never kills the connection --
        the WAL keeps the registry durable without the snapshot.
        """
        if self._compacting:
            return
        self._compacting = True
        try:
            loop = asyncio.get_running_loop()
            assert self.store is not None
            await loop.run_in_executor(None, self.store.maybe_compact)
        except (ReproError, OSError) as exc:
            import sys

            print(f"snapshot compaction failed: {exc}", file=sys.stderr)
        finally:
            self._compacting = False

    def _dispatch(self, body: bytes) -> bytes:
        """One request in, one response body out; never raises ReproError."""
        try:
            request = protocol.parse_request(body)
            return self._answer(request)
        except ReproError as exc:
            return protocol.encode_error(str(exc))

    def _answer(self, request: protocol.Request) -> bytes:
        registry = self.registry
        op = request.op
        if op == protocol.OP_LOAD:
            assert request.name is not None
            codec, size, merged = registry.load(request.name, request.frame)
            return protocol.encode_load_ok(codec, size, merged)
        if op == protocol.OP_ESTIMATE:
            assert request.name is not None
            values = registry.estimate(request.name, request.itemsets)
            return protocol.encode_estimates(values)
        if op == protocol.OP_INDICATE:
            assert request.name is not None
            values = registry.indicate(request.name, request.itemsets)
            return protocol.encode_indicators(values)
        if op == protocol.OP_STAT:
            assert request.name is not None
            return protocol.encode_stat(registry.stat(request.name))
        if op == protocol.OP_LIST:
            return protocol.encode_entries(registry.entries())
        if op == protocol.OP_DROP:
            assert request.name is not None
            registry.drop(request.name)
            return protocol.encode_empty_ok()
        if op == protocol.OP_PING:
            return protocol.encode_empty_ok()
        if op == protocol.OP_INGEST:
            assert request.name is not None and request.items is not None
            length, size = registry.ingest(request.name, request.items)
            return protocol.encode_ingest_ok(length, size)
        if op == protocol.OP_LOAD_MANY:
            # One chunk of a fleet load: a complete standalone frame, the
            # same decode/merge/journal path as LOAD.  The echoed index is
            # the client's per-chunk backpressure ack.
            assert request.name is not None
            codec, size, merged = registry.load(request.name, request.frame)
            return protocol.encode_load_many_ok(request.index, codec, size, merged)
        raise ProtocolError(f"unknown request op {op}")


class ServerHandle:
    """A running :func:`serve_in_thread` server: address plus shutdown."""

    def __init__(
        self,
        server: SketchServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def registry(self) -> SketchRegistry:
        return self.server.registry

    @property
    def store(self) -> "PersistentStore | None":
        return self.server.store

    def close(self, grace: float | None = 10.0) -> None:
        """Drain the server and join its thread (idempotent).

        In-flight requests finish (up to ``grace`` seconds) before the
        loop stops, and the attached store -- if any -- is closed after
        its final journal append, so no acknowledged op is lost.
        """
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.shutdown(grace), self._loop
            ).result(timeout=30)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_in_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    registry: SketchRegistry | None = None,
    rng: np.random.Generator | int | None = None,
    max_connections: int | None = None,
    idle_timeout: float | None = None,
    data_dir: "str | None" = None,
    store: "PersistentStore | None" = None,
    startup_timeout: float = 10.0,
) -> ServerHandle:
    """Start a :class:`SketchServer` on a daemon thread and wait for bind.

    Returns a :class:`ServerHandle` (also a context manager) whose
    ``host``/``port`` are ready for blocking clients.  The default
    ``port=0`` picks an ephemeral port, so parallel test runs never
    collide.  Passing ``data_dir`` builds a
    :class:`~repro.server.persistence.PersistentStore` there and
    recovers the registry from it before serving (``store`` passes a
    prebuilt store instead, e.g. to tune compaction; if already
    recovered it must be bound to the registry being served).

    Raises
    ------
    TimeoutError
        If the server thread does not finish binding within
        ``startup_timeout`` seconds; the half-started loop is stopped
        rather than leaked behind a dead handle.
    """
    server = SketchServer(
        host,
        port,
        max_frame_bytes=max_frame_bytes,
        registry=registry,
        rng=rng,
        max_connections=max_connections,
        idle_timeout=idle_timeout,
    )
    if data_dir is not None or store is not None:
        if store is None:
            from .persistence import PersistentStore

            store = PersistentStore(data_dir, max_frame_bytes=max_frame_bytes)
        if store.registry is None:
            store.recover(server.registry)
        elif store.registry is not server.registry:
            raise ProtocolError(
                "store was recovered into a different registry than the "
                "one being served"
            )
        server.store = store
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failures must reach the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-sketch-server", daemon=True)
    thread.start()
    if not started.wait(timeout=startup_timeout):
        # A hung startup must not hand back a half-initialized handle.
        if store is not None:
            store.close()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        raise TimeoutError(
            f"sketch server failed to start within {startup_timeout}s"
        )
    if failure:
        if store is not None:
            store.close()
        raise failure[0]
    return ServerHandle(server, loop, thread)


def preload_files(
    registry: SketchRegistry,
    paths: Iterable[str],
    *,
    skip_resident: bool = False,
) -> list[str]:
    """Load frame files into a registry, named by file stem.

    The ``repro serve --load`` helper; returns the names actually
    loaded, in input order.  With ``skip_resident`` a name that is
    already resident is left untouched (and omitted from the return),
    which makes preloading idempotent across durable restarts: a
    ``--data-dir`` recovery already replayed the journaled preload, so
    re-loading the file would merge-fold the sketch into itself and
    double its counts.

    A multi-frame v3 container preloads every shard it manifests, named
    by manifest entry (anonymous shards fall back to ``<stem>-<index>``);
    each shard is spliced out lazily, so only one record is resident at
    a time.  Single-frame files (any wire version) load under the file
    stem as before.
    """
    import io
    import pathlib

    from ..wire import WIRE_V3, ContainerReader, peek_wire_version

    names = []
    for raw in paths:
        path = pathlib.Path(raw)
        data = path.read_bytes()
        if peek_wire_version(data) == WIRE_V3:
            reader = ContainerReader.open(io.BytesIO(data))
            if len(reader) != 1 or reader.entries[0].name:
                # Fleet container: one lazy extract per shard, so only
                # one record is duplicated in memory at a time.
                for i, entry in enumerate(reader.entries):
                    name = entry.name or f"{path.stem}-{i}"
                    if skip_resident and name in registry:
                        continue
                    registry.load(name, reader.extract(entry))
                    names.append(name)
                continue
        name = path.stem
        if skip_resident and name in registry:
            continue
        registry.load(name, data)
        names.append(name)
    return names
