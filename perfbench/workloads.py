"""The shared set-up and the three closed-loop timed phases.

Each caller waits for its reply before sending the next request (the
repository's :class:`~repro.server.Client` is blocking), so every loop
is closed: a slower server receives proportionally less load.  The
generator is one process with at most two load threads, each on its
own connection.  Every answer is checked; a failed request counts as
attempted and enters the latency sample as ``inf``.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.db import Itemset
from repro.errors import ReproError
from repro.server import Client

from .inputs import Plan, Write, apply_write
from .spans import Recorder

#: Which latency group each workload gates with ``p50_ms`` / ``tail_ms``.
GATED = {"query": "read", "ingest": "write", "mixed": "read"}

#: The percentile behind ``tail_ms``, by the cost-class rule: it must land
#: well inside one kind of request's cost range.  On ``ingest`` p99 is the
#: middle of the LOAD class (the top 2% of writes).  On ``query`` and
#: ``mixed`` host stalls move the reads' p95 about twice as much as their
#: p90, and their p99 more still, so p90 is used.
TAIL_PERCENTILE = {"query": 90.0, "ingest": 99.0, "mixed": 90.0}

CLIENT_TIMEOUT = 60.0


def request_class(op: str, name: str | None) -> str:
    """Cost class of one request: reads by verb, writes by verb and target."""
    return op if op in ("ESTIMATE", "INDICATE") else f"{op} {name}"


def group_of(cls: str) -> str:
    return "read" if cls in ("ESTIMATE", "INDICATE") else "write"


@dataclass
class Tally:
    """One load thread's record of the timed phase."""

    latency: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "write": []}
    )
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    acked: list[Write] = field(default_factory=list)
    reads: list[tuple[int, int, list[float]]] = field(default_factory=list)

    def call(
        self, cls: str, fn: Callable[[], Any], recorder: Recorder | None
    ) -> Any:
        """Time one blocking request; ``None`` if it failed."""
        self.attempted += 1
        group = group_of(cls)
        index = recorder.begin("client.request", "begin", cls=cls) if recorder else -1
        start = time.perf_counter()
        try:
            result = fn()
        except (ReproError, OSError) as exc:
            self.failed += 1
            self.latency[group].append(float("inf"))
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: {exc}")
            return None
        else:
            self.latency[group].append(time.perf_counter() - start)
            return result
        finally:
            if recorder:
                recorder.end(index, "end")

    def merge(self, other: "Tally") -> None:
        for group, values in other.latency.items():
            self.latency[group].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)
        self.wrong.extend(other.wrong)
        self.acked.extend(other.acked)
        self.reads.extend(other.reads)


@dataclass
class Phase:
    """The merged record of one timed phase."""

    tally: Tally
    start: float
    end: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def point_itemsets(plan: Plan) -> list[Itemset]:
    return [Itemset([item]) for item in plan.point_items]


def _check_fleet_answer(tally: Tally, plan: Plan, name: str, indicate: bool, values) -> None:
    if values is None:
        return
    want = plan.expected[name][1 if indicate else 0]
    if list(values) != want:
        tally.wrong.append(f"{'INDICATE' if indicate else 'ESTIMATE'} {name} differs")


def set_up(plan: Plan, port: int) -> Tally:
    """Fleet load plus warm-up of every shard any timed phase reads.

    The same for every workload, so ``setup_s`` compares across them;
    the first kernel call per shard fills its lazy packed caches here.
    """
    tally = Tally()
    with Client(port=port, timeout=CLIENT_TIMEOUT) as client:
        loaded = tally.call("LOAD_MANY fleet", lambda: client.load_many(plan.fleet), None)
        if loaded is not None and [row[0] for row in loaded] != plan.fleet_names:
            tally.wrong.append("LOAD_MANY acknowledged the wrong shards")
        for name in plan.fleet_names:
            for indicate in (False, True):
                verb = client.indicate if indicate else client.estimate
                values = tally.call(
                    "INDICATE" if indicate else "ESTIMATE",
                    lambda: verb(name, plan.itemsets), None,
                )
                _check_fleet_answer(tally, plan, name, indicate, values)
        points = point_itemsets(plan)
        for name in ("cm", "res"):
            tally.call("ESTIMATE", lambda: client.estimate(name, points), None)
    return tally


# ----------------------------------------------------------------------
# Timed phases.
# ----------------------------------------------------------------------
def _run_threads(targets: list[Callable[[], None]]) -> tuple[float, float, float]:
    go = threading.Event()
    threads = [
        threading.Thread(target=lambda t=t: (go.wait(), t()), name=f"load-{i}", daemon=True)
        for i, t in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    start = time.perf_counter()
    go.set()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return start, end, time.process_time() - cpu0


def run_query(plan: Plan, port: int, recorder: Recorder | None) -> Phase:
    """One connection: ESTIMATE/INDICATE of all 276 pairs, shards in rotation."""
    tally = Tally()
    names = plan.fleet_names
    with Client(port=port, timeout=CLIENT_TIMEOUT) as client:

        def loop() -> None:
            for i in range(plan.ops):
                name = names[i % len(names)]
                indicate = (i // len(names)) % 2 == 1
                if indicate:
                    values = tally.call(
                        "INDICATE", lambda: client.indicate(name, plan.itemsets), recorder
                    )
                else:
                    values = tally.call(
                        "ESTIMATE", lambda: client.estimate(name, plan.itemsets), recorder
                    )
                _check_fleet_answer(tally, plan, name, indicate, values)

        start, end, cpu = _run_threads([loop])
    return Phase(tally, start, end, cpu)


def _write(client: Client, write: Write) -> Any:
    if write.op == "LOAD":
        return client.load(write.name, write.frame)
    return client.ingest(write.name, write.items)


def _writer(
    client: Client, writes, tally: Tally, recorder: Recorder | None,
    progress: dict[str, int] | None = None,
) -> None:
    for write in writes:
        if progress is not None:
            progress["sent"] += 1
        reply = tally.call(
            request_class(write.op, write.name), lambda: _write(client, write), recorder
        )
        if reply is None:
            continue
        if write.op == "LOAD" and not reply[2]:
            tally.wrong.append("a colliding LOAD was installed, not merged")
        tally.acked.append(write)
        if progress is not None:
            progress["acked"] += 1


def run_ingest(plan: Plan, port: int, recorder: Recorder | None) -> Phase:
    """Two writers splitting the fixed 50-op cycle, even and odd ops."""
    tallies = [Tally(), Tally()]
    clients = [Client(port=port, timeout=CLIENT_TIMEOUT) for _ in tallies]
    try:
        start, end, cpu = _run_threads([
            lambda w=w: _writer(clients[w], plan.writes[w::2], tallies[w], recorder)
            for w in range(2)
        ])
    finally:
        for client in clients:
            client.close()
    tallies[0].merge(tallies[1])
    return Phase(tallies[0], start, end, cpu)


def run_mixed(plan: Plan, port: int, recorder: Recorder | None) -> Phase:
    """One writer (fixed count) and one reader (seeded think times) that
    samples read latency until the writes are done."""
    reader_tally, writer_tally = Tally(), Tally()
    progress = {"sent": 0, "acked": 0}
    done = threading.Event()
    points = point_itemsets(plan)
    reader, writer = (Client(port=port, timeout=CLIENT_TIMEOUT) for _ in range(2))

    def read_loop() -> None:
        for pause in itertools.cycle(plan.read_pauses):
            time.sleep(pause)
            if done.is_set():
                return
            low = progress["acked"]
            values = reader_tally.call(
                "ESTIMATE", lambda: reader.estimate("cm", points), recorder
            )
            if values is not None:
                reader_tally.reads.append((low, progress["sent"], values))

    def write_loop() -> None:
        try:
            _writer(writer, plan.writes, writer_tally, recorder, progress)
        finally:
            done.set()

    try:
        start, end, cpu = _run_threads([read_loop, write_loop])
    finally:
        reader.close()
        writer.close()
    reader_tally.merge(writer_tally)
    return Phase(reader_tally, start, end, cpu)


RUNNERS = {"query": run_query, "ingest": run_ingest, "mixed": run_mixed}


# ----------------------------------------------------------------------
# Post-phase answer checks (untimed).
# ----------------------------------------------------------------------
def _answers(model, points: list[Itemset]) -> list[float]:
    return [model.estimate_frequency(s.items[0]) for s in points]


def check_final_state(plan: Plan, port: int, phase: Phase) -> list[str]:
    """Resident summaries equal the prepared state plus acknowledged writes.

    Count-Min folds commute, so the model ignores how two writers
    interleaved.  Stream lengths are read back through one extra
    single-item INGEST per summary, sent after the comparison.  On
    ``mixed`` the same fold also checks every read.
    """
    if plan.workload == "query":
        return []
    points = point_itemsets(plan)
    model = copy.deepcopy(plan.cm_model)
    states = [_answers(model, points)]
    cm_items = res_items = 0
    for write in phase.tally.acked:
        if write.name == "res":
            res_items += len(write.items)
            continue
        model = apply_write(model, write)
        cm_items += len(write.items) if write.op == "INGEST" else write.shard.stream_length
        if phase.tally.reads:
            states.append(_answers(model, points))
    wrong = reads_outside(phase.tally.reads, states)
    with Client(port=port, timeout=CLIENT_TIMEOUT) as client:
        if client.estimate("cm", points) != _answers(model, points):
            wrong.append("count-min answers differ from the acknowledged fold")
        probe = [plan.point_items[0]]
        cm_length = client.ingest("cm", probe)[0]
        res_length = client.ingest("res", probe)[0]
    if cm_length != plan.cm_model.stream_length + cm_items + 1:
        wrong.append(f"count-min stream_length {cm_length - 1} != prepared + acknowledged")
    if res_length != plan.res_length + res_items + 1:
        wrong.append(f"reservoir stream_length {res_length - 1} != prepared + acknowledged")
    return wrong


def reads_outside(reads: list[tuple[int, int, list[float]]], states: list[list[float]]) -> list[str]:
    """Reads that match no state of the single writer's fold they overlapped.

    ``states[k]`` is the answer after ``k`` acknowledged writes.  A read
    sent after ``low`` acknowledgements and answered before the
    ``high``-th write was sent may see any state ``low..high``.
    """
    bad = sum(1 for low, high, values in reads if values not in states[low:high + 1])
    return [f"{bad} mixed reads match no acknowledged state"] if bad else []
