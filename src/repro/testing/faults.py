"""Seeded, deterministic fault injection: sockets and files.

Two harnesses, one per failure domain the robustness layer covers:

:class:`FaultyProxy`
    A TCP proxy that forwards bytes between a client and an upstream
    server in seeded short-read chunks, optionally delaying each chunk,
    and cuts the connection after a per-direction byte budget -- a
    mid-frame disconnect / truncation at a *chosen, reproducible* byte.
    With ``then_clean=True`` (default) the fault fires once and later
    connections pass through untouched, which is exactly the shape a
    retry policy must survive: fail, reconnect, succeed.

:class:`FaultyFile`
    A binary-file wrapper that dies partway through a ``write`` after a
    byte budget, leaving a prefix of the attempted bytes on disk -- the
    torn-append signature a SIGKILL or power cut leaves in a WAL.  The
    injected :class:`OSError` stands in for the crash; everything before
    the budget is real, durable file I/O.

Determinism: every byte schedule derives from an explicit ``seed``; no
harness consults wall-clock time or global randomness.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from typing import IO

__all__ = ["FaultPlan", "FaultyFile", "FaultyProxy"]


class FaultPlan:
    """The seeded schedule a :class:`FaultyProxy` follows.

    Parameters
    ----------
    seed:
        Seeds the per-direction chunk-size streams; the same seed and
        traffic reproduce the same cut points.
    max_chunk:
        Upper bound on one forwarded chunk (short reads: each relay hop
        moves ``uniform[1, max_chunk]`` bytes, so frame boundaries never
        align with packet boundaries).
    delay_s:
        Sleep before forwarding each chunk -- a slow network, for driving
        client/server timeouts.
    c2s_budget / s2c_budget:
        Total bytes allowed client->server / server->client before the
        connection is cut mid-stream.  ``None`` means never cut.
    then_clean:
        After a budget trips once, later connections relay untouched
        (the "transient fault" shape retries must survive).  ``False``
        re-arms the budget for every new connection.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        max_chunk: int = 1024,
        delay_s: float = 0.0,
        c2s_budget: int | None = None,
        s2c_budget: int | None = None,
        then_clean: bool = True,
    ) -> None:
        if max_chunk < 1:
            raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
        for label, budget in (("c2s", c2s_budget), ("s2c", s2c_budget)):
            if budget is not None and budget < 0:
                raise ValueError(f"{label}_budget must be >= 0, got {budget}")
        self.seed = seed
        self.max_chunk = max_chunk
        self.delay_s = delay_s
        self.c2s_budget = c2s_budget
        self.s2c_budget = s2c_budget
        self.then_clean = then_clean


class _Budget:
    """Thread-safe byte allowance shared by one direction's relays."""

    def __init__(self, limit: int | None) -> None:
        self._limit = limit
        self._lock = threading.Lock()
        self.tripped = False

    def take(self, wanted: int) -> int:
        """Bytes of ``wanted`` that may pass; trips at exhaustion."""
        with self._lock:
            if self._limit is None:
                return wanted
            allowed = min(wanted, self._limit)
            self._limit -= allowed
            if allowed < wanted:
                self.tripped = True
            return allowed

    def disarm(self) -> None:
        with self._lock:
            self._limit = None

    def rearm(self, limit: int | None) -> None:
        with self._lock:
            self._limit = limit


class FaultyProxy:
    """A deterministic fault-injecting TCP proxy in front of one server.

    Usage::

        with FaultyProxy("127.0.0.1", server_port,
                         plan=FaultPlan(seed=7, s2c_budget=6)) as proxy:
            client = Client(proxy.host, proxy.port, retry=RetryPolicy())
            ...  # first response dies after 6 bytes; the retry succeeds

    The proxy listens on an ephemeral port (:attr:`port` after
    :meth:`start`), accepts any number of connections, and applies the
    :class:`FaultPlan` budgets across them (fault counters are shared,
    so "cut after N response bytes total" means total).  Counters:
    :attr:`connections` accepted so far, :attr:`faults` budget trips.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        plan: FaultPlan | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan if plan is not None else FaultPlan()
        self.host = host
        self.port = 0
        self.connections = 0
        self.faults = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._relays: list[threading.Thread] = []
        self._open_sockets: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = False
        self._c2s = _Budget(self.plan.c2s_budget)
        self._s2c = _Budget(self.plan.s2c_budget)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "FaultyProxy":
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(16)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-faulty-proxy", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting and tear down every live relay (idempotent)."""
        self._closing = True
        if self._listener is not None:
            # Shutdown before close: a bare close() from this thread does
            # not wake the accept() blocked on the listener in the accept
            # thread, which would leave the join below to time out.
            _shutdown_quietly(self._listener)
        with self._lock:
            sockets = list(self._open_sockets)
        for sock in sockets:
            _shutdown_quietly(sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for relay in self._relays:
            relay.join(timeout=5)

    def __enter__(self) -> "FaultyProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        index = 0
        while not self._closing:
            try:
                downstream, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if not self.plan.then_clean:
                self._c2s.rearm(self.plan.c2s_budget)
                self._s2c.rearm(self.plan.s2c_budget)
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=10
                )
            except OSError:
                _shutdown_quietly(downstream)
                continue
            self.connections += 1
            with self._lock:
                self._open_sockets.update((downstream, upstream))
            pair = index
            index += 1
            for lane, (direction, src, dst, budget) in enumerate((
                ("c2s", downstream, upstream, self._c2s),
                ("s2c", upstream, downstream, self._s2c),
            )):
                # Deterministic per-connection, per-direction stream
                # (never hash(): string hashing is salted per process).
                chunk_seed = self.plan.seed * 1_000_003 + pair * 2 + lane
                relay = threading.Thread(
                    target=self._relay,
                    args=(src, dst, budget, random.Random(chunk_seed)),
                    name=f"repro-faulty-proxy-{direction}",
                    daemon=True,
                )
                relay.start()
                self._relays.append(relay)

    def _relay(
        self,
        src: socket.socket,
        dst: socket.socket,
        budget: _Budget,
        rng: random.Random,
    ) -> None:
        try:
            while True:
                chunk = src.recv(rng.randint(1, self.plan.max_chunk))
                if not chunk:
                    break
                if self.plan.delay_s:
                    time.sleep(self.plan.delay_s)
                allowed = budget.take(len(chunk))
                if allowed:
                    dst.sendall(chunk[:allowed])
                if allowed < len(chunk):
                    # Budget exhausted mid-chunk: a truncated frame on
                    # the wire, then a hard cut of both halves.
                    self.faults += 1
                    if self.plan.then_clean:
                        budget.disarm()
                    break
        except OSError:
            pass
        finally:
            _shutdown_quietly(src)
            _shutdown_quietly(dst)
            with self._lock:
                self._open_sockets.discard(src)
                self._open_sockets.discard(dst)


def _shutdown_quietly(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class FaultyFile:
    """A binary file wrapper that crashes after a byte budget.

    Wrap an open binary file and every :meth:`write` passes through
    until cumulative written bytes would exceed ``fail_after_bytes``;
    the excess write lands only partially (prefix flushed to the real
    file) and raises :class:`OSError` -- the on-disk state is exactly
    what a power cut mid-append leaves: a torn final record.  Reads,
    seeks, and metadata calls always pass through.
    """

    def __init__(self, file: IO[bytes], fail_after_bytes: int | None = None) -> None:
        if fail_after_bytes is not None and fail_after_bytes < 0:
            raise ValueError(
                f"fail_after_bytes must be >= 0, got {fail_after_bytes}"
            )
        self._file = file
        self.fail_after_bytes = fail_after_bytes
        self.written = 0
        self.tripped = False

    def write(self, data: bytes) -> int:
        budget = self.fail_after_bytes
        if budget is None or self.written + len(data) <= budget:
            self.written += len(data)
            return self._file.write(data)
        keep = budget - self.written
        if keep > 0:
            self._file.write(data[:keep])
            self.written += keep
        # Make the torn prefix durable before "crashing", like the real
        # page cache surviving the process that died.
        self._file.flush()
        os.fsync(self._file.fileno())
        self.tripped = True
        raise OSError(
            f"injected crash after {self.written} bytes "
            f"({len(data) - keep} bytes of this write lost)"
        )

    def __getattr__(self, name: str):
        return getattr(self._file, name)
