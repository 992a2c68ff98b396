"""Client retry/backoff and the fault-injection harness itself.

Three contracts pinned here:

* :class:`~repro.testing.FaultyProxy` is deterministic -- the same seed
  and traffic reproduce the same relayed bytes and the same cut point --
  because a fault a test cannot replay is a fault it cannot debug;
* a desynchronized connection is never reused: after any transport
  fault mid-round-trip the client marks itself broken and refuses the
  next call outright, instead of reading a stale frame and silently
  answering the *wrong request* (the regression the stalling fake
  server reproduces);
* :class:`~repro.server.client.RetryPolicy` retries exactly what it
  may: idempotent verbs and refused connects always, mutating verbs
  only on explicit opt-in, definitive server errors never, all under a
  decorrelated-jitter backoff bounded by ``deadline``.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import wire
from repro.errors import ProtocolError, ServerBusyError, ServerError
from repro.server import Client, protocol, serve_in_thread
from repro.server.client import RetryPolicy
from repro.streaming import MisraGries
from repro.testing import FaultyProxy
from repro.testing.faults import FaultPlan

from repro.db import Itemset


def _misra_gries(seed: int = 0, universe: int = 48, k: int = 6) -> MisraGries:
    mg = MisraGries(universe, k)
    rng = np.random.default_rng(seed)
    mg.update_many(rng.integers(0, universe, 400))
    return mg


@pytest.fixture()
def server():
    with serve_in_thread() as handle:
        yield handle


# ----------------------------------------------------------------------
# The proxy harness itself.
# ----------------------------------------------------------------------
class TestFaultyProxy:
    def test_clean_passthrough(self, server):
        with FaultyProxy(server.host, server.port) as proxy:
            with Client(proxy.host, proxy.port) as client:
                client.ping()
                client.load("mg", wire.dump(_misra_gries()))
                assert [e.name for e in client.entries()] == ["mg"]
            assert proxy.connections == 1
            assert proxy.faults == 0

    def test_deterministic_cut_point(self, server):
        """Same seed, same traffic -> byte-identical delivery and cut."""

        def run(seed: int) -> bytes:
            plan = FaultPlan(seed=seed, max_chunk=2, s2c_budget=3)
            with FaultyProxy(server.host, server.port, plan=plan) as proxy:
                raw = socket.create_connection(
                    (proxy.host, proxy.port), timeout=10
                )
                try:
                    raw.sendall(
                        protocol.frame_message(
                            protocol.encode_request(protocol.OP_PING)
                        )
                    )
                    got = b""
                    while chunk := raw.recv(4096):
                        got += chunk
                    return got
                finally:
                    raw.close()

        first = run(3)
        assert len(first) == 3  # exactly the budget, then the cut
        assert run(3) == first
        # A different seed still cuts at the byte budget (the budget is
        # exact, not chunk-granular), so delivery stays identical here.
        assert run(4) == first

    def test_budget_trips_once_then_clean(self, server):
        plan = FaultPlan(seed=1, s2c_budget=3)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            with pytest.raises((OSError, ProtocolError)):
                with Client(proxy.host, proxy.port) as client:
                    client.ping()
            assert proxy.faults == 1
            with Client(proxy.host, proxy.port) as client:
                client.ping()  # the fault was transient
            assert proxy.faults == 1
            assert proxy.connections == 2

    def test_rearmed_budget_cuts_every_connection(self, server):
        plan = FaultPlan(seed=1, s2c_budget=3, then_clean=False)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            for _ in range(3):
                with pytest.raises((OSError, ProtocolError)):
                    with Client(proxy.host, proxy.port) as client:
                        client.ping()
            assert proxy.faults == 3


# ----------------------------------------------------------------------
# Satellite: a desynchronized connection is never reused.
# ----------------------------------------------------------------------
class _StallingServer:
    """Accepts one connection, answers with a *delayed split* response.

    It reads the first request, sends half the PING response, stalls past
    the client's timeout, then sends the second half plus one complete
    extra response.  A client that kept the connection after its timeout
    would find those stale bytes and hand them to the *next* caller.
    """

    def __init__(self, stall_s: float = 0.6) -> None:
        self.stall_s = stall_s
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        try:
            length = struct.unpack(">I", conn.recv(4))[0]
            while length:
                length -= len(conn.recv(length))
            response = protocol.frame_message(bytes([protocol.STATUS_OK]))
            conn.sendall(response[: len(response) // 2])
            time.sleep(self.stall_s)
            conn.sendall(response[len(response) // 2 :])
            conn.sendall(response)  # a whole stale frame beyond that
            time.sleep(self.stall_s)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


class TestDesynchronizedConnection:
    def test_timeout_marks_broken_and_refuses_reuse(self):
        stalling = _StallingServer()
        try:
            client = Client(stalling.host, stalling.port, timeout=0.15)
            with pytest.raises(OSError):
                client.ping()
            assert client.broken
            # The stalled bytes are now in flight; a reused connection
            # would read them as the answer to this second ping.  The
            # client must refuse outright instead.
            with pytest.raises(ConnectionError, match="broken"):
                client.ping()
            client.close()
        finally:
            stalling.close()

    def test_disconnect_mid_response_marks_broken(self, server):
        plan = FaultPlan(seed=2, s2c_budget=2)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            client = Client(proxy.host, proxy.port)
            with pytest.raises((OSError, ProtocolError)):
                client.ping()
            assert client.broken
            with pytest.raises(ConnectionError, match="broken"):
                client.entries()
            client.close()


# ----------------------------------------------------------------------
# Retry policy.
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=42)
        first = [next(iter_) for iter_ in [policy.delays()] for _ in range(20)]
        second_iter = policy.delays()
        second = [next(second_iter) for _ in range(20)]
        assert first == second  # same seed, same jitter stream
        assert all(0.1 <= d <= 1.0 for d in first)

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    def test_idempotent_verb_survives_transient_cut(self, server):
        with Client(server.host, server.port) as direct:
            direct.load("mg", wire.dump(_misra_gries()))
            expected = direct.estimate("mg", [Itemset([3])])
        plan = FaultPlan(seed=5, s2c_budget=4)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            policy = RetryPolicy(retries=3, base_delay=0.01, max_delay=0.05, seed=0)
            with Client(proxy.host, proxy.port, retry=policy) as client:
                assert client.estimate("mg", [Itemset([3])]) == expected
            assert proxy.faults == 1
            assert proxy.connections >= 2  # reconnected after the cut

    def test_mutating_verb_fails_fast_without_opt_in(self, server):
        plan = FaultPlan(seed=6, s2c_budget=4)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            policy = RetryPolicy(retries=3, base_delay=0.01, max_delay=0.05, seed=0)
            with Client(proxy.host, proxy.port, retry=policy) as client:
                with pytest.raises((OSError, ProtocolError)):
                    client.load("fresh", wire.dump(_misra_gries(1)))
            assert proxy.connections == 1  # no retry happened

    def test_mutating_verb_retries_with_opt_in(self, server):
        plan = FaultPlan(seed=7, s2c_budget=4)
        with FaultyProxy(server.host, server.port, plan=plan) as proxy:
            policy = RetryPolicy(
                retries=3, base_delay=0.01, max_delay=0.05,
                retry_mutating=True, seed=0,
            )
            with Client(proxy.host, proxy.port, retry=policy) as client:
                client.load("opt-in", wire.dump(_misra_gries(2)))
                assert "opt-in" in [e.name for e in client.entries()]
            assert proxy.connections >= 2

    def test_server_error_is_never_retried(self, server):
        calls = []
        policy = RetryPolicy(retries=5, base_delay=0.01, seed=0)
        with Client(server.host, server.port, retry=policy) as client:
            began = time.monotonic()
            with pytest.raises(ServerError, match="no sketch named"):
                client.stat("ghost")
            calls.append(time.monotonic() - began)
        assert calls[0] < 0.5  # one attempt, no backoff sleeps

    def test_refused_connect_is_retryable_then_recovers(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        # Construction defers the failed connect instead of raising...
        policy = RetryPolicy(retries=8, base_delay=0.05, max_delay=0.2, seed=1)
        client = Client(host, port, retry=policy)
        assert client.broken

        def bring_up() -> None:
            time.sleep(0.3)
            handle = serve_in_thread(host=host, port=port)
            done.append(handle)

        done: list = []
        thread = threading.Thread(target=bring_up, daemon=True)
        thread.start()
        try:
            client.ping()  # ...and the verb retries until the server is up
        finally:
            thread.join(timeout=10)
            client.close()
            if done:
                done[0].close()

    def test_deadline_bounds_total_retry_time(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        policy = RetryPolicy(
            retries=1000, deadline=0.4, base_delay=0.05, max_delay=0.1, seed=2
        )
        client = Client(host, port, retry=policy)
        began = time.monotonic()
        with pytest.raises(OSError):
            client.ping()
        assert time.monotonic() - began < 2.0
        client.close()

    def test_no_policy_fails_fast_exactly_as_before(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            Client(host, port)


# ----------------------------------------------------------------------
# BUSY shedding interacts with retries.
# ----------------------------------------------------------------------
class TestBusyRetry:
    def test_busy_is_retryable_even_for_mutating_ops(self):
        with serve_in_thread(max_connections=1) as handle:
            occupant = Client(handle.host, handle.port)
            occupant.ping()
            policy = RetryPolicy(retries=10, base_delay=0.05, max_delay=0.2, seed=3)
            client = Client(handle.host, handle.port, retry=policy)

            def vacate() -> None:
                time.sleep(0.3)
                occupant.close()

            thread = threading.Thread(target=vacate, daemon=True)
            thread.start()
            try:
                # LOAD is mutating, but BUSY means the server never read
                # the request, so the policy retries it regardless.
                client.load("after-busy", wire.dump(_misra_gries()))
                assert "after-busy" in [e.name for e in client.entries()]
            finally:
                thread.join(timeout=10)
                client.close()

    def test_busy_without_policy_raises(self):
        with serve_in_thread(max_connections=1) as handle:
            with Client(handle.host, handle.port) as occupant:
                occupant.ping()
                with pytest.raises(ServerBusyError, match="capacity"):
                    shed = Client(handle.host, handle.port)
                    try:
                        shed.ping()
                    finally:
                        shed.close()
