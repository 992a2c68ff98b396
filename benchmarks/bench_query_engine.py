"""Packed-bitset query engine: old-vs-new throughput regression bench.

Measures the batch frequency-query hot path before and after the packed
kernel (PR 1): the *seed* path answered each of the ``C(d, k)`` queries of
``all_frequencies`` independently -- per-column Python-loop packing, a
fresh k-way intersection per query, a full-mask AND on every support call
-- while the packed engine shares ``(k-1)``-prefix intersections and
evaluates whole batches in single vectorized kernel calls.

PR 2 adds two cases: ``row_containment`` (the row-major ``PackedRows``
mask-matrix kernel vs the naive unpacked row walk) and ``parallel_sweep``
(the sharded ``workers=`` evaluator vs the PR-1 serial path, with a smoke
assertion that auto-sharding never regresses serial by more than 25%).

``parallel_sweep_backends`` times one large ``C(d, k)`` sweep inline
(``workers=1``) and sharded on threads, the only executor a query sweep
has, with a smoke assertion that on a multi-core host (>= 4 CPUs) the
threads are never slower than serial.  The committed JSON is only a real
multi-core record when regenerated on such a host -- CI's query-engine
smoke step measures it on multi-vCPU runners and uploads the artifact.

PR 6 adds ``kernel_tiers``: the cffi-compiled native C kernels vs the
numpy kernels on the large ``combination_supports`` sweep (plus
native+thread, since the C calls release the GIL), asserting native is
never slower and recording the tier speedups.  The numpy tier is reached
the way the tests reach it: by making the native loader fail, as on a
host without cffi or a compiler.  All cases draw their
database from the bench conftest's shared ``(n, d, density)`` cache
(``config.shared_database``), so the generator and the packed kernels
are paid once per shape, not once per case.

Writes ``BENCH_query_engine.json`` (repo root) with before/after
throughput in queries/sec and rows x queries/sec so subsequent PRs have a
perf trajectory.  Run directly::

    PYTHONPATH=src python benchmarks/bench_query_engine.py [--quick]

or through pytest (``pytest benchmarks/bench_query_engine.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from conftest import shared_database  # noqa: E402

from repro.db import (  # noqa: E402
    BinaryDatabase,
    Itemset,
    all_frequencies,
    all_itemsets,
)
from repro.db import _native  # noqa: E402
from repro.db.packed import popcount_words, resolve_workers  # noqa: E402
from repro.db.queries import FrequencyOracle  # noqa: E402
from repro.mining import eclat  # noqa: E402
from repro.streaming import MisraGries  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_query_engine.json"

#: Acceptance floor for the PR-1 tentpole: packed all_frequencies vs seed path.
MIN_SPEEDUP = 10.0

#: Smoke ceiling for the PR-2 sharded sweep: the auto-sharded path must
#: never be slower than this multiple of the serial (workers=1) path.
MAX_SHARDED_SLOWDOWN = 1.25


# ----------------------------------------------------------------------
# Faithful reimplementation of the seed (pre-PR1) per-query path.
# ----------------------------------------------------------------------
class _SeedFrequencyOracle:
    """The seed FrequencyOracle, preserved verbatim as the baseline.

    Per-column Python-loop packing; every ``support`` call intersects the
    packed columns from scratch and re-ANDs the padded full mask.
    """

    def __init__(self, db: BinaryDatabase) -> None:
        self._db = db
        n = db.n
        n_words = (n + 63) // 64
        packed = np.zeros((db.d, n_words), dtype=np.uint64)
        padded = np.zeros((db.d, n_words * 64), dtype=bool)
        padded[:, :n] = db.rows.T
        for j in range(db.d):
            words = np.packbits(padded[j]).view(np.uint8)
            packed[j] = np.frombuffer(words.tobytes(), dtype=np.uint64)
        self._packed = packed
        self._full_mask = self._intersection(())

    def _intersection(self, items) -> np.ndarray:
        if len(items) == 0:
            n = self._db.n
            n_words = self._packed.shape[1]
            mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
            excess = n_words * 64 - n
            if excess:
                pad = np.unpackbits(mask[-1:].view(np.uint8))
                pad[-excess:] = 0
                mask[-1] = np.frombuffer(np.packbits(pad).tobytes(), dtype=np.uint64)[0]
            return mask
        mask = self._packed[items[0]].copy()
        for j in items[1:]:
            mask &= self._packed[j]
        return mask

    def support(self, itemset: Itemset) -> int:
        mask = self._intersection(itemset.items) & self._full_mask
        # popcount_words is the version-portable popcount (the seed used
        # np.bitwise_count directly, which needs numpy >= 2.0).
        return int(popcount_words(mask).sum())

    def frequency(self, itemset: Itemset) -> float:
        return self.support(itemset) / self._db.n


def _seed_all_frequencies(db: BinaryDatabase, k: int) -> dict[Itemset, float]:
    """RELEASE-ANSWERS' precomputation as the seed implemented it."""
    oracle = _SeedFrequencyOracle(db)
    return {t: oracle.frequency(t) for t in all_itemsets(db.d, k)}


def _time(fn, repeats: int = 1):
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _throughput(n_rows: int, n_queries: int, seconds: float) -> dict:
    return {
        "seconds": seconds,
        "queries_per_sec": n_queries / seconds,
        "row_queries_per_sec": n_rows * n_queries / seconds,
    }


def bench_all_frequencies(n: int, d: int, k: int, repeats: int) -> dict:
    """The tentpole comparison: seed per-query path vs packed engine."""
    db = shared_database(n, d, 0.3)
    n_queries = comb(d, k)
    seed_time, seed_result = _time(lambda: _seed_all_frequencies(db, k), repeats)
    new_time, new_result = _time(lambda: all_frequencies(db, k), repeats)
    assert seed_result == new_result, "packed engine disagrees with seed path"
    return {
        "config": {"n": n, "d": d, "k": k, "queries": n_queries},
        "seed": _throughput(n, n_queries, seed_time),
        "packed": _throughput(n, n_queries, new_time),
        "speedup": seed_time / new_time,
    }


def bench_batch_supports(n: int, d: int, k: int, repeats: int) -> dict:
    """supports_batch vs one support() call per query (same new kernel)."""
    db = shared_database(n, d, 0.3)
    oracle = FrequencyOracle(db)
    itemsets = list(all_itemsets(d, k))
    loop_time, loop_result = _time(
        lambda: np.array([oracle.support(t) for t in itemsets]), repeats
    )
    batch_time, batch_result = _time(lambda: oracle.supports_batch(itemsets), repeats)
    assert np.array_equal(loop_result, batch_result)
    return {
        "config": {"n": n, "d": d, "k": k, "queries": len(itemsets)},
        "per_query": _throughput(n, len(itemsets), loop_time),
        "batched": _throughput(n, len(itemsets), batch_time),
        "speedup": loop_time / batch_time,
    }


def bench_eclat(n: int, d: int, threshold: float, repeats: int) -> dict:
    """Packed-tidset Eclat vs the seed's boolean-mask DFS."""

    def seed_eclat(db, min_frequency, max_size=None):
        # Seed implementation: boolean row-mask tidsets, one Python-level
        # AND + sum per extension.
        min_count = max(int(np.ceil(min_frequency * db.n - 1e-9)), 1)
        if max_size is None:
            max_size = db.d
        out: dict[Itemset, float] = {}

        def extend(prefix, rows_mask, tail):
            for idx, (item, item_mask) in enumerate(tail):
                mask = rows_mask & item_mask
                count = int(mask.sum())
                if count < min_count:
                    continue
                itemset = prefix + (item,)
                out[Itemset(itemset)] = count / db.n
                if len(itemset) < max_size:
                    extend(itemset, mask, tail[idx + 1 :])

        columns = [(j, db.column(j).copy()) for j in range(db.d)]
        extend((), np.ones(db.n, dtype=bool), columns)
        return out

    db = shared_database(n, d, 0.4)
    seed_time, seed_result = _time(lambda: seed_eclat(db, threshold), repeats)
    new_time, new_result = _time(lambda: eclat(db, threshold), repeats)
    assert seed_result == new_result, "packed eclat disagrees with seed eclat"
    return {
        "config": {"n": n, "d": d, "threshold": threshold, "itemsets": len(new_result)},
        "seed": {"seconds": seed_time},
        "packed": {"seconds": new_time},
        "speedup": seed_time / new_time,
    }


def bench_row_containment(n: int, d: int, k: int, repeats: int) -> dict:
    """PackedRows batched containment masks vs the naive unpacked row walk.

    The seed path answered ``support_mask`` by gathering unpacked boolean
    columns per query (``rows[:, items].all(axis=1)``); the row-major
    kernel answers the whole batch as chunked packed AND + mask-equality
    sweeps.  The kernel is cached per database (``db.packed_rows``), so
    packing happens once outside the timed region, as in production.
    """
    db = shared_database(n, d, 0.3)
    rows = db.rows
    itemsets = [t.items for t in all_itemsets(d, k)]
    kernel = db.packed_rows  # built once, cached for the db's lifetime

    def naive():
        return np.stack([rows[:, list(t)].all(axis=1) for t in itemsets])

    def packed():
        return kernel.contains_batch(itemsets)

    naive_time, naive_result = _time(naive, repeats)
    packed_time, packed_result = _time(packed, repeats)
    assert np.array_equal(naive_result, packed_result), (
        "row-containment kernel disagrees with naive path"
    )
    return {
        "config": {"n": n, "d": d, "k": k, "queries": len(itemsets)},
        "naive": _throughput(n, len(itemsets), naive_time),
        "packed_rows": _throughput(n, len(itemsets), packed_time),
        "speedup": naive_time / packed_time,
    }


def bench_parallel_sweep(n: int, d: int, k: int, repeats: int) -> dict:
    """Sharded ``C(d, k)`` sweep: workers=1 vs workers=auto vs workers=2.

    ``workers=1`` runs the exact PR-1 serial code path inline (the shard
    runner is called once over the full range), so its throughput doubles
    as the serial baseline.  The smoke contract: the auto-sharded path is
    never slower than :data:`MAX_SHARDED_SLOWDOWN` x serial -- the auto
    heuristic stays serial when sharding cannot pay.
    """
    db = shared_database(n, d, 0.3)
    kernel = db.packed
    n_queries = comb(d, k)
    auto_workers = resolve_workers(None, 2 * n_queries * kernel.n_words)
    repeats = max(repeats, 3)  # amortize thread-pool startup jitter

    serial_time, serial_counts = _time(
        lambda: kernel.combination_supports(k, workers=1)[1], repeats
    )
    auto_time, auto_counts = _time(
        lambda: kernel.combination_supports(k)[1], repeats
    )
    two_time, two_counts = _time(
        lambda: kernel.combination_supports(k, workers=2)[1], repeats
    )
    assert np.array_equal(serial_counts, auto_counts)
    assert np.array_equal(serial_counts, two_counts)
    return {
        "config": {
            "n": n,
            "d": d,
            "k": k,
            "queries": n_queries,
            "cpu_count": os.cpu_count(),
            "auto_workers": auto_workers,
        },
        "serial": _throughput(n, n_queries, serial_time),
        "sharded_auto": _throughput(n, n_queries, auto_time),
        "sharded_two": _throughput(n, n_queries, two_time),
        "speedup": serial_time / auto_time,
    }


def bench_backend_sweep(n: int, d: int, k: int, repeats: int) -> dict:
    """One large ``C(d, k)`` sweep inline and sharded on threads.

    ``serial`` is the single-worker inline path; ``thread`` runs the same
    kernel on ``min(4, cpu_count)`` thread shards, the executor every
    multi-worker query sweep gets.  Both must produce bit-identical
    counts.  Best-of-``repeats`` timing.
    """
    db = shared_database(n, d, 0.3)
    kernel = db.packed
    n_queries = comb(d, k)
    workers = max(1, min(4, os.cpu_count() or 1))
    repeats = max(repeats, 3)  # amortize thread startup and cache warmup

    serial_time, serial_counts = _time(
        lambda: kernel.combination_supports(k, workers=1)[1], repeats
    )
    thread_time, thread_counts = _time(
        lambda: kernel.combination_supports(k, workers=workers)[1], repeats
    )
    assert np.array_equal(serial_counts, thread_counts)
    return {
        "config": {
            "n": n,
            "d": d,
            "k": k,
            "queries": n_queries,
            "cpu_count": os.cpu_count(),
            "workers": workers,
        },
        "serial": _throughput(n, n_queries, serial_time),
        "thread": _throughput(n, n_queries, thread_time),
        "speedup": serial_time / thread_time,
    }


def bench_kernel_tiers(n: int, d: int, k: int, repeats: int) -> dict:
    """Numpy vs native C kernels on the large ``combination_supports`` sweep.

    Both tiers run serially (workers=1) so the comparison isolates the
    kernel implementation, then ``native_thread`` adds thread sharding on
    ``min(4, cpu_count)`` workers -- the native calls release the GIL, so
    this is where the thread backend finally scales.  All tiers must be
    bit-identical.  On a host without the compiled module the case
    records ``native_available: false`` and only times numpy.
    """
    db = shared_database(n, d, 0.3)
    kernel = db.packed
    n_queries = comb(d, k)
    workers = max(1, min(4, os.cpu_count() or 1))
    repeats = max(repeats, 3)  # amortize the one-time native build/load
    native_available = _native.available()

    with _native._forced_unavailable_for_tests():
        numpy_time, numpy_counts = _time(
            lambda: kernel.combination_supports(k, workers=1)[1], repeats
        )
    result = {
        "config": {
            "n": n,
            "d": d,
            "k": k,
            "queries": n_queries,
            "cpu_count": os.cpu_count(),
            "thread_workers": workers,
            "native_available": native_available,
            "native_unavailable_reason": _native.unavailable_reason(),
        },
        "numpy": _throughput(n, n_queries, numpy_time),
    }
    if not native_available:
        result["speedup"] = 1.0
        return result
    native_time, native_counts = _time(
        lambda: kernel.combination_supports(k, workers=1)[1], repeats
    )
    thread_time, thread_counts = _time(
        lambda: kernel.combination_supports(k, workers=workers)[1], repeats
    )
    assert np.array_equal(numpy_counts, native_counts), (
        "native kernel disagrees with numpy on the combination sweep"
    )
    assert np.array_equal(numpy_counts, thread_counts)
    result["native"] = _throughput(n, n_queries, native_time)
    result["native_thread"] = _throughput(n, n_queries, thread_time)
    result["speedup"] = numpy_time / native_time
    result["speedup_native_thread"] = numpy_time / thread_time
    return result


def bench_stream_updates(length: int, universe: int, k: int, repeats: int) -> dict:
    """update_many bulk ingestion vs one update() call per element.

    The bulk call folds the whole stream through the Misra-Gries merge
    rule, so both answers are checked against the certificate rather
    than against each other: every estimate undercounts by at most
    ``m / (k + 1)``.
    """
    rng = np.random.default_rng(3)
    stream = (rng.zipf(1.3, length) % universe).astype(np.int64)

    def itemwise():
        mg = MisraGries(universe, k=k)
        for item in stream.tolist():
            mg.update(item)
        return mg

    def bulk():
        mg = MisraGries(universe, k=k)
        mg.update_many(stream)
        return mg

    item_time, a = _time(itemwise, repeats)
    bulk_time, b = _time(bulk, repeats)
    true = np.bincount(stream, minlength=universe)
    for mg in (a, b):
        est = np.zeros_like(true)
        est[list(mg._counters)] = list(mg._counters.values())
        deficit = true - est
        assert 0 <= deficit.min() and deficit.max() <= mg.max_undercount(), (
            "Misra-Gries estimate outside its undercount certificate"
        )
    return {
        "config": {"length": length, "universe": universe, "k": k},
        "itemwise": {"seconds": item_time, "updates_per_sec": length / item_time},
        "bulk": {"seconds": bulk_time, "updates_per_sec": length / bulk_time},
        "speedup": item_time / bulk_time,
    }


def run(quick: bool = False, out_path: Path = DEFAULT_OUT) -> dict:
    """Run the full suite and write the JSON trajectory record."""
    repeats = 1 if quick else 3
    # Warm the native kernel tier outside every timed region: the
    # one-time build/import is a per-process cost, not a per-sweep cost,
    # and auto-kernel cases would otherwise charge it to their first call.
    _native.load()
    if quick:
        results = {
            "all_frequencies": bench_all_frequencies(512, 14, 3, repeats),
            "batch_supports": bench_batch_supports(512, 14, 2, repeats),
            "eclat": bench_eclat(512, 12, 0.1, repeats),
            "stream_updates": bench_stream_updates(20_000, 500, 50, repeats),
            "row_containment": bench_row_containment(512, 14, 2, repeats),
            # The sweep configs are pinned at full size even in quick mode:
            # the sharded-vs-serial and backend comparisons are the point,
            # and CI's quick run on 4-vCPU runners IS the multi-core record.
            "parallel_sweep": bench_parallel_sweep(4096, 24, 3, repeats),
            "parallel_sweep_backends": bench_backend_sweep(65536, 28, 4, repeats),
            # Pinned at full size like the sweeps above: the tier
            # comparison at the acceptance config is the point.
            "kernel_tiers": bench_kernel_tiers(65536, 28, 4, repeats),
        }
    else:
        results = {
            "all_frequencies": bench_all_frequencies(4096, 24, 3, repeats),
            "batch_supports": bench_batch_supports(4096, 24, 2, repeats),
            "eclat": bench_eclat(4096, 18, 0.05, repeats),
            "stream_updates": bench_stream_updates(200_000, 2000, 100, repeats),
            "row_containment": bench_row_containment(4096, 24, 3, repeats),
            "parallel_sweep": bench_parallel_sweep(4096, 24, 3, repeats),
            "parallel_sweep_heavy": bench_parallel_sweep(4096, 24, 4, repeats),
            "parallel_sweep_backends": bench_backend_sweep(65536, 28, 4, repeats),
            "kernel_tiers": bench_kernel_tiers(65536, 28, 4, repeats),
        }
    sweep = results["parallel_sweep"]
    # Smoke contract: auto-sharding never costs more than 25% over serial
    # (the heuristic must fall back to serial whenever threads cannot pay).
    assert (
        sweep["sharded_auto"]["seconds"]
        <= MAX_SHARDED_SLOWDOWN * sweep["serial"]["seconds"] + 1e-3
    ), (
        f"auto-sharded sweep {sweep['sharded_auto']['seconds']:.4f}s slower than "
        f"{MAX_SHARDED_SLOWDOWN}x serial {sweep['serial']['seconds']:.4f}s"
    )
    backends = results["parallel_sweep_backends"]
    # Smoke contract: with real cores to shard over, the thread shards
    # must at minimum not lose to serial on the large sweep.
    if (os.cpu_count() or 1) >= 4:
        assert backends["thread"]["seconds"] <= backends["serial"]["seconds"], (
            f"thread shards {backends['thread']['seconds']:.3f}s slower than "
            f"serial {backends['serial']['seconds']:.3f}s on the large sweep"
        )
    tiers = results["kernel_tiers"]
    # Smoke contract (PR 6): when the compiled tier loaded, native must
    # never lose to numpy on the large sweep (it exists to win; a tie
    # would already be a regression signal).
    if tiers["config"]["native_available"]:
        assert tiers["native"]["seconds"] <= tiers["numpy"]["seconds"], (
            f"native kernel {tiers['native']['seconds']:.3f}s slower than "
            f"numpy {tiers['numpy']['seconds']:.3f}s on the large sweep"
        )
    record = {
        "benchmark": "query_engine",
        "pr": 6,
        "quick": quick,
        "config": {
            # All cases draw from the bench conftest's shared per-(n, d,
            # density) database cache instead of regenerating per case.
            "shared_database": True,
        },
        "results": results,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: bench_* files are opt-in).
# ----------------------------------------------------------------------
def test_packed_engine_speedup_full(tmp_path):
    record = run(quick=False, out_path=tmp_path / "BENCH_query_engine.json")
    tentpole = record["results"]["all_frequencies"]
    print(
        f"\nall_frequencies (n=4096, d=24, k=3): "
        f"seed {tentpole['seed']['queries_per_sec']:.0f} q/s -> "
        f"packed {tentpole['packed']['queries_per_sec']:.0f} q/s "
        f"({tentpole['speedup']:.1f}x)"
    )
    assert tentpole["speedup"] >= MIN_SPEEDUP
    assert record["results"]["eclat"]["speedup"] > 1.0
    assert record["results"]["row_containment"]["speedup"] > 1.0
    sweep = record["results"]["parallel_sweep"]
    # The PR-2 acceptance target (>= 2x from sharding) only makes sense
    # with real cores to shard over; the heavy sweep has enough work.
    if (os.cpu_count() or 1) >= 4:
        heavy = record["results"]["parallel_sweep_heavy"]
        print(
            f"parallel_sweep_heavy (k=4): "
            f"{heavy['speedup']:.2f}x with {heavy['config']['auto_workers']} workers"
        )
        assert heavy["speedup"] >= 2.0
        # PR-4 acceptance target, on the executor that now runs the sweep:
        # thread shards give a real multi-core speedup on the large sweep.
        backends = record["results"]["parallel_sweep_backends"]
        print(
            f"parallel_sweep_backends (n=65536, d=28, k=4): "
            f"thread {backends['speedup']:.2f}x over serial with "
            f"{backends['config']['workers']} workers"
        )
        assert backends["speedup"] >= 2.0
    # workers=1 runs the serial code path inline; it must stay within 5%
    # of the unsharded kernel (here: of the auto path when auto == serial).
    if sweep["config"]["auto_workers"] == 1:
        assert sweep["speedup"] >= 0.95
    tiers = record["results"]["kernel_tiers"]
    if tiers["config"]["native_available"]:
        print(
            f"kernel_tiers (n=65536, d=28, k=4): native {tiers['speedup']:.2f}x "
            f"numpy serial, native+thread "
            f"{tiers.get('speedup_native_thread', 1.0):.2f}x"
        )
        # PR-6 acceptance: the native tier is never slower than numpy, and
        # beats it >= 2x on the large combination sweep.
        assert tiers["native"]["seconds"] <= tiers["numpy"]["seconds"]
        assert tiers["speedup"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration (CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick, out_path=args.out)
    for name, res in record["results"].items():
        print(f"{name}: speedup {res['speedup']:.1f}x")
    sweep = record["results"]["parallel_sweep"]
    print(
        f"parallel_sweep (n={sweep['config']['n']}, d={sweep['config']['d']}, "
        f"k={sweep['config']['k']}, workers=auto->{sweep['config']['auto_workers']} "
        f"of {sweep['config']['cpu_count']} cpus): "
        f"serial {sweep['serial']['queries_per_sec']:.0f} -> "
        f"sharded {sweep['sharded_auto']['queries_per_sec']:.0f} queries/sec "
        f"({sweep['speedup']:.2f}x)"
    )
    backends = record["results"]["parallel_sweep_backends"]
    print(
        f"parallel_sweep_backends (n={backends['config']['n']}, "
        f"d={backends['config']['d']}, k={backends['config']['k']}, "
        f"workers={backends['config']['workers']} of "
        f"{backends['config']['cpu_count']} cpus): serial "
        f"{backends['serial']['seconds']:.3f}s, thread "
        f"{backends['thread']['seconds']:.3f}s ({backends['speedup']:.2f}x)"
    )
    tiers = record["results"]["kernel_tiers"]
    if tiers["config"]["native_available"]:
        print(
            f"kernel_tiers (n={tiers['config']['n']}, d={tiers['config']['d']}, "
            f"k={tiers['config']['k']}): numpy {tiers['numpy']['seconds']:.3f}s, "
            f"native {tiers['native']['seconds']:.3f}s ({tiers['speedup']:.2f}x), "
            f"native+thread {tiers['native_thread']['seconds']:.3f}s "
            f"({tiers['speedup_native_thread']:.2f}x)"
        )
    else:
        print(
            "kernel_tiers: native tier unavailable "
            f"({tiers['config']['native_unavailable_reason']}); numpy only"
        )
    tentpole = record["results"]["all_frequencies"]
    print(
        f"all_frequencies throughput: "
        f"{tentpole['seed']['queries_per_sec']:.0f} -> "
        f"{tentpole['packed']['queries_per_sec']:.0f} queries/sec "
        f"({tentpole['seed']['row_queries_per_sec']:.3g} -> "
        f"{tentpole['packed']['row_queries_per_sec']:.3g} row-queries/sec)"
    )
    print(f"wrote {args.out}")
    if not args.quick and tentpole["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {tentpole['speedup']:.1f}x < {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
