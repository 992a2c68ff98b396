"""Seeded inputs: the data dir, the fleet container and each workload's ops.

Everything here runs before any clock starts.  The data dir is written
through the repository's own :class:`~repro.server.SketchRegistry` and
:class:`~repro.server.persistence.PersistentStore`, so it always has the
on-disk format of the commit under test.  The program under test
receives only these inputs; the expected answers stay in the generator.
"""

from __future__ import annotations

import copy
import io
import itertools
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import ReleaseDbSketcher, SubsampleSketcher, Task
from repro.db import Itemset, random_database
from repro.db.generators import zipf_weights
from repro.params import SketchParams
from repro.server import SketchRegistry
from repro.server.persistence import PersistentStore
from repro.streaming import CountMinSketch, MisraGries, ReservoirSample, SpaceSaving
from repro.streaming.merge import merge_summaries
from repro.wire import ContainerReader, ContainerWriter, dump

WORKLOADS = ("query", "ingest", "mixed")

# -- the shared fleet -------------------------------------------------------
FLEET_SHARDS = 16
FLEET_PARAMS = SketchParams(n=65_536, d=24, k=2, epsilon=0.05, delta=0.1)
FLEET_TASK = Task.FORALL_ESTIMATOR  # Lemma 9 gives 3,447 rows at these params

# -- the data dir ---------------------------------------------------------
UNIVERSE = 1 << 20           # item ids of the streaming summaries
ZIPF_ITEMS = 50_000          # Zipf(1.2) traffic over ids [0, ZIPF_ITEMS)
CM_WIDTH, CM_DEPTH = 4096, 4
RESERVOIR_SLOTS = 1024
COUNTER_SLOTS = 256          # Misra-Gries / Space-Saving capacity
SNAPSHOT_SHARDS = {"mg": 16, "ss": 16, "rdb": 12}
WAL_TAIL_RECORDS = 200       # below the 256-op auto-compaction trigger
WAL_TAIL_ITEMS = 1_000

# -- timed-phase shapes ------------------------------------------------------
INGEST_CYCLE = 50            # 40 count-min INGESTs, 9 reservoir, 1 LOAD
INGEST_BATCH = 100
MIXED_BATCH = 65_536
MIXED_LOAD_EVERY = 4
POINT_ITEMS = 16             # singletons per mixed-workload ESTIMATE
MIXED_THINK_S = 0.002        # mean reader pause, uniform on [0, 2x mean]

#: Timed requests per second of ``--seconds``: fixed op counts, sized so
#: each timed phase lasts about ``--seconds`` on a 2-vCPU host.  On
#: ``mixed`` the count is of writes; the reader samples until they end.
OPS_PER_SECOND = {"query": 350, "ingest": 300, "mixed": 75}
#: The smallest sample that supports a p99 (ten requests beyond it).
MIN_OPS = 1_000


@dataclass
class Write:
    """One timed write: an INGEST batch or a colliding count-min LOAD."""

    op: str                  # "INGEST" or "LOAD"
    name: str                # "cm" or "res"
    items: np.ndarray | None = None
    frame: bytes = b""
    shard: Any = None        # decoded LOAD shard, for the answer model


@dataclass
class Plan:
    """All seeded inputs of one run, plus what the answers must be."""

    workload: str
    seed: int
    ops: int
    fleet: bytes
    fleet_names: list[str]
    itemsets: list[Itemset]
    expected: dict[str, tuple[list[float], list[bool]]]
    point_items: list[int]
    cm_model: CountMinSketch
    res_length: int
    template: Path
    writes: list[Write] = field(default_factory=list)
    read_pauses: list[float] = field(default_factory=list)  # cycled by the reader

    def data_dir_copy(self, dest: Path) -> Path:
        """A fresh copy of the prepared data dir for one server."""
        shutil.copytree(self.template, dest)
        return dest


def _zipf(gen: np.random.Generator, size: int) -> np.ndarray:
    weights = zipf_weights(ZIPF_ITEMS, 1.2)
    return gen.choice(ZIPF_ITEMS, size=size, p=weights).astype(np.int64)


def _fleet(gen: np.random.Generator) -> tuple[bytes, list[str], dict[str, Any]]:
    sketcher = SubsampleSketcher(FLEET_TASK)
    out = io.BytesIO()
    writer = ContainerWriter(out)
    names = [f"s{i:02d}" for i in range(FLEET_SHARDS)]
    for name in names:
        db = random_database(FLEET_PARAMS.n, FLEET_PARAMS.d, rng=gen)
        writer.add(name, sketcher.sketch(db, FLEET_PARAMS, rng=gen))
    writer.close()
    data = out.getvalue()
    reader = ContainerReader.open(io.BytesIO(data))
    decoded = {entry.name: reader.load(entry) for entry in reader.entries}
    return data, names, decoded


def _count_min(seed: int) -> CountMinSketch:
    # One hash seed per run, so every LOAD shard collides and merges.
    return CountMinSketch(UNIVERSE, CM_WIDTH, CM_DEPTH, rng=seed)


def _write_data_dir(
    path: Path, gen: np.random.Generator, hash_seed: int
) -> tuple[CountMinSketch, int]:
    """Snapshot of a mixed fleet plus a WAL tail of count-min INGESTs."""
    cm = _count_min(hash_seed)
    cm.update_many(_zipf(gen, 200_000))
    res = ReservoirSample(UNIVERSE, RESERVOIR_SLOTS, rng=gen)
    res.update_many(_zipf(gen, 20_000))
    shards: list[tuple[str, Any]] = [("cm", cm), ("res", res)]
    for i in range(SNAPSHOT_SHARDS["mg"]):
        mg = MisraGries(UNIVERSE, COUNTER_SLOTS)
        mg.update_many(_zipf(gen, 20_000))
        shards.append((f"mg{i:02d}", mg))
    for i in range(SNAPSHOT_SHARDS["ss"]):
        ss = SpaceSaving(UNIVERSE, COUNTER_SLOTS)
        ss.update_many(_zipf(gen, 20_000))
        shards.append((f"ss{i:02d}", ss))
    release = ReleaseDbSketcher(FLEET_TASK)
    params = SketchParams(n=4096, d=24, k=2, epsilon=0.05, delta=0.1)
    for i in range(SNAPSHOT_SHARDS["rdb"]):
        db = random_database(params.n, params.d, rng=gen)
        shards.append((f"rdb{i:02d}", release.sketch(db, params)))

    # The build itself need not be durable; the format is the same.
    store = PersistentStore(path, sync=False, compact_every=None)
    registry = SketchRegistry(rng=int(gen.integers(1 << 31)))
    store.recover(registry)
    try:
        for name, obj in shards:
            registry.load(name, dump(obj))
        store.compact()
        model = copy.deepcopy(cm)
        for _ in range(WAL_TAIL_RECORDS):
            batch = _zipf(gen, WAL_TAIL_ITEMS)
            registry.ingest("cm", batch)
            model.update_many(batch)
    finally:
        store.close()
    return model, res.stream_length


def _cm_shards(gen: np.random.Generator, hash_seed: int, count: int) -> list[Write]:
    loads = []
    for _ in range(count):
        shard = _count_min(hash_seed)
        shard.update_many(_zipf(gen, 5_000))
        loads.append(Write("LOAD", "cm", frame=dump(shard), shard=shard))
    return loads


def _ingest_writes(gen: np.random.Generator, hash_seed: int, ops: int) -> list[Write]:
    """The fixed 50-op cycle: every 5th write hits the reservoir, the
    50th is a colliding count-min LOAD, the other 40 feed the count-min."""
    items = _zipf(gen, ops * INGEST_BATCH).reshape(ops, INGEST_BATCH)
    loads = itertools.cycle(_cm_shards(gen, hash_seed, 8))
    writes = []
    for i in range(ops):
        slot = i % INGEST_CYCLE
        if slot == INGEST_CYCLE - 1:
            writes.append(next(loads))
        elif slot % 5 == 4:
            writes.append(Write("INGEST", "res", items=items[i]))
        else:
            writes.append(Write("INGEST", "cm", items=items[i]))
    return writes


def _mixed_pool(gen: np.random.Generator, hash_seed: int) -> list[Write]:
    """One cycle of the mixed writer: big INGESTs, every 4th a LOAD."""
    batches = iter([Write("INGEST", "cm", items=_zipf(gen, MIXED_BATCH)) for _ in range(6)])
    loads = iter(_cm_shards(gen, hash_seed, 2))
    return [
        next(loads) if i % MIXED_LOAD_EVERY == MIXED_LOAD_EVERY - 1 else next(batches)
        for i in range(8)
    ]


def build(workload: str, seed: int, seconds: int, work: Path) -> Plan:
    """Every input of one run, derived from ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # The shared set-up depends on the seed alone, so setup_s compares
    # across workloads; each workload's ops draw from their own stream.
    gen = np.random.default_rng([seed])
    hash_seed = int(gen.integers(1 << 31))
    fleet, names, decoded = _fleet(gen)
    itemsets = [Itemset(list(pair)) for pair in itertools.combinations(range(FLEET_PARAMS.d), 2)]
    expected = {
        name: (
            [float(v) for v in decoded[name].estimate_batch(itemsets)],
            [bool(v) for v in decoded[name].indicate_batch(itemsets)],
        )
        for name in names
    }
    template = work / "template"
    cm_model, res_length = _write_data_dir(template, gen, hash_seed)
    heavy = list(range(POINT_ITEMS // 2))
    rare = sorted(int(x) for x in gen.choice(np.arange(POINT_ITEMS, ZIPF_ITEMS),
                                             size=POINT_ITEMS // 2, replace=False))
    plan = Plan(
        workload=workload, seed=seed,
        ops=max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload])),
        fleet=fleet, fleet_names=names, itemsets=itemsets, expected=expected,
        point_items=heavy + rare, cm_model=cm_model, res_length=res_length,
        template=template,
    )
    gen = np.random.default_rng([seed, 1 + WORKLOADS.index(workload)])
    if workload == "ingest":
        plan.writes = _ingest_writes(gen, hash_seed, plan.ops)
    elif workload == "mixed":
        # A fixed write count fixes the compaction schedule too: with a
        # free-running writer, faster runs compacted more often and the
        # read tail moved with the host's speed.
        pool = _mixed_pool(gen, hash_seed)
        plan.writes = [pool[i % len(pool)] for i in range(plan.ops)]
        # Random think times decorrelate read arrivals from the write
        # cycle; without them the two closed loops phase-lock and the
        # read p50 flips between the queued and the idle case.
        plan.read_pauses = gen.uniform(0, 2 * MIXED_THINK_S, size=4096).tolist()
    return plan


def apply_write(model: CountMinSketch, write: Write) -> CountMinSketch:
    """The count-min after one acknowledged write (folds commute)."""
    if write.op == "LOAD":
        return merge_summaries(model, write.shard)
    model.update_many(write.items)
    return model
