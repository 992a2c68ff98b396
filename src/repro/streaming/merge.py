"""Merging streaming summaries (the distributed / parallel setting).

Itemset sketches are useful precisely because they can be computed where
the data lives and shipped; the streaming literature's summaries support
the same workflow through *merge* operations.  Implemented here:

* :func:`merge_misra_gries` -- the Agarwal et al. mergeable-summaries
  rule: add counters, then subtract the (k+1)-st largest value and drop
  non-positive counters.  The merged deficit bound is the sum of the
  parts' bounds, preserving the ``m/(k+1)`` guarantee over the combined
  stream.
* :func:`merge_space_saving` -- the standard k-counter SpaceSaving merge
  (the parallel SpaceSaving rule): counts of items tracked on both sides
  add; an item tracked on one side only picks up the other side's
  minimum counter as its worst-case hidden count; keep the ``k`` largest.
  Estimates still never undercount and the per-item error certificates
  sum, so the merged overcount bound is ``m_a/k + m_b/k`` -- the summed
  bound over the combined stream.
* :func:`merge_count_min` -- entrywise addition (requires identical hash
  functions), exact for the CM invariant.
* :func:`merge_reservoirs` -- hypergeometric subsampling so the merged
  reservoir is a uniform sample of the concatenated streams.
* :func:`merge_row_reservoirs` -- the same for row reservoirs, yielding a
  distributed SUBSAMPLE: sketch shards independently, merge, and the
  result is distributed exactly as a single-pass uniform row sample.
* :func:`merge_summaries` -- the object-level entry point: dispatch two
  already-decoded summaries to the matching rule by concrete type (what
  the sketch server's registry uses to fold a pushed shard into a
  resident one).
* :func:`merge_payloads` -- the wire-format entry point: shards arrive
  as serialized frames (:mod:`repro.wire`) -- byte strings, open shard
  *files*, or one iterable yielding either -- are reconstructed one at a
  time, and folded left-to-right by whichever rule matches their type.
  This is the full distributed-ingest story: ``S`` runs next to the
  data, ships a bit string, and the coordinator merges bit strings
  alone, never holding more than one undecoded frame.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from ..db.generators import as_rng
from ..errors import StreamError
from .count_min import CountMinSketch
from .misra_gries import MisraGries
from .reservoir import ReservoirSample, RowReservoir
from .space_saving import SpaceSaving

__all__ = [
    "merge_misra_gries",
    "merge_space_saving",
    "merge_count_min",
    "merge_reservoirs",
    "merge_row_reservoirs",
    "merge_summaries",
    "merge_payloads",
]


def merge_misra_gries(a: MisraGries, b: MisraGries) -> MisraGries:
    """Merge two Misra-Gries summaries with the same ``k`` and universe.

    The classic mergeable-summaries construction: sum counters, keep the
    top ``k`` after subtracting the (k+1)-st largest combined count.
    """
    if a.universe != b.universe or a.k != b.k:
        raise StreamError("can only merge summaries with equal universe and k")
    combined: dict[int, int] = dict(a._counters)
    for item, count in b._counters.items():
        combined[item] = combined.get(item, 0) + count
    out = MisraGries(a.universe, a.k)
    out.stream_length = a.stream_length + b.stream_length
    if len(combined) > a.k:
        cutoff = sorted(combined.values(), reverse=True)[a.k]
        combined = {
            item: count - cutoff
            for item, count in combined.items()
            if count - cutoff > 0
        }
    out._counters = combined
    return out


def merge_space_saving(a: SpaceSaving, b: SpaceSaving) -> SpaceSaving:
    """Merge two SpaceSaving summaries with the same ``k`` and universe.

    The standard k-counter merge rule (parallel SpaceSaving): for each
    item tracked on either side, add its two counts; an item tracked only
    on one side contributes the *other* side's minimum counter in place of
    its unknown count there (zero while that side still has spare
    counters, since then every seen item is tracked).  The ``k`` largest
    merged counters are kept, ties broken by item id for determinism.

    The SpaceSaving invariants survive the merge:

    * counts never undercount -- an untracked item's true count is at most
      the substituted minimum;
    * the per-item error certificates add, so every kept counter
      overcounts by at most ``m_a/k + m_b/k``, the merged summary's
      :meth:`~repro.streaming.space_saving.SpaceSaving.max_overcount`;
    * dropped items have counts at most the smallest kept counter, as
      after an ordinary eviction.
    """
    if a.universe != b.universe or a.k != b.k:
        raise StreamError("can only merge summaries with equal universe and k")
    # A side with spare counters tracks everything it has seen, so the
    # hidden count of an item untracked there is exactly zero.
    min_a = min(a._counts.values()) if len(a._counts) >= a.k else 0
    min_b = min(b._counts.values()) if len(b._counts) >= b.k else 0
    combined: dict[int, tuple[int, int]] = {}
    for item in a._counts.keys() | b._counts.keys():
        count_a, count_b = a._counts.get(item), b._counts.get(item)
        if count_a is None:
            count = min_a + count_b
            error = min_a + b._errors[item]
        elif count_b is None:
            count = count_a + min_b
            error = a._errors[item] + min_b
        else:
            count = count_a + count_b
            error = a._errors[item] + b._errors[item]
        combined[item] = (count, error)
    kept = sorted(combined.items(), key=lambda kv: (-kv[1][0], kv[0]))[: a.k]
    out = SpaceSaving(a.universe, a.k)
    out.stream_length = a.stream_length + b.stream_length
    out._counts = {item: count for item, (count, _) in kept}
    out._errors = {item: error for item, (_, error) in kept}
    return out


def merge_count_min(a: CountMinSketch, b: CountMinSketch) -> CountMinSketch:
    """Merge two Count-Min sketches sharing dimensions and hash seeds."""
    if (
        a.universe != b.universe
        or a.width != b.width
        or a.depth != b.depth
        or not np.array_equal(a._a, b._a)
        or not np.array_equal(a._b, b._b)
    ):
        raise StreamError(
            "Count-Min merge requires identical dimensions and hash functions"
        )
    if a.conservative or b.conservative:
        raise StreamError(
            "conservative-update sketches are not mergeable by addition"
        )
    out = CountMinSketch(a.universe, a.width, a.depth)
    out._a = a._a.copy()
    out._b = a._b.copy()
    out._table = a._table + b._table
    out.stream_length = a.stream_length + b.stream_length
    return out


def merge_reservoirs(
    a: ReservoirSample,
    b: ReservoirSample,
    rng: np.random.Generator | int | None = None,
) -> ReservoirSample:
    """Merge two reservoirs into a uniform sample of the combined stream.

    Each output slot draws from ``a``'s reservoir with probability
    ``m_a / (m_a + m_b)`` (without replacement within each side), which
    makes the merged reservoir a uniform ``size``-subset of the
    concatenated streams -- the standard distributed reservoir rule.
    """
    if a.universe != b.universe or a.size != b.size:
        raise StreamError("can only merge reservoirs with equal universe and size")
    gen = as_rng(rng)
    total = a.stream_length + b.stream_length
    out = ReservoirSample(a.universe, a.size, rng=gen)
    out.stream_length = total
    if total == 0:
        return out
    pool_a = list(a.sample)
    pool_b = list(b.sample)
    gen.shuffle(pool_a)
    gen.shuffle(pool_b)
    merged: list[int] = []
    target = min(a.size, len(pool_a) + len(pool_b))
    for _ in range(target):
        take_a = gen.random() < a.stream_length / total if pool_b else True
        if take_a and not pool_a:
            take_a = False
        merged.append(pool_a.pop() if take_a else pool_b.pop())
    out._reservoir = merged
    return out


def merge_row_reservoirs(
    a: RowReservoir,
    b: RowReservoir,
    rng: np.random.Generator | int | None = None,
) -> RowReservoir:
    """Merge two row reservoirs: distributed SUBSAMPLE sketching."""
    if a.d != b.d or a.size != b.size:
        raise StreamError("can only merge row reservoirs with equal d and size")
    gen = as_rng(rng)
    total = a.rows_seen + b.rows_seen
    out = RowReservoir(a.d, a.size, rng=gen)
    out.rows_seen = total
    # Reservoir slots hold packed row words; merging moves words, not bools.
    pool_a = [row.copy() for row in a._words]
    pool_b = [row.copy() for row in b._words]
    gen.shuffle(pool_a)
    gen.shuffle(pool_b)
    merged: list[np.ndarray] = []
    target = min(a.size, len(pool_a) + len(pool_b))
    for _ in range(target):
        take_a = gen.random() < a.rows_seen / max(total, 1) if pool_b else True
        if take_a and not pool_a:
            take_a = False
        merged.append(pool_a.pop() if take_a else pool_b.pop())
    out._words = merged
    return out


def merge_summaries(
    left: Any,
    right: Any,
    rng: np.random.Generator | int | None = None,
):
    """Merge two *decoded* summaries of the same concrete type.

    The object-level entry point behind :func:`merge_payloads`: dispatch
    to the matching merge rule by concrete type.  This is what callers
    holding live summaries -- the sketch server's registry folding a
    pushed shard into a resident one -- use directly, skipping the frame
    decode that :func:`merge_payloads` performs.  ``rng`` feeds the
    sampling-based rules (reservoirs) and is ignored by the
    deterministic ones.

    Raises
    ------
    StreamError
        If the two summaries' concrete types differ or their type has no
        merge rule (the naive :class:`~repro.core.base.FrequencySketch`
        types are not mergeable -- a sketch of ``A`` and a sketch of
        ``B`` carry no rule for reconstructing a sketch of ``A ∪ B``).
    """
    return _merge_pair(left, right, as_rng(rng))


def _merge_pair(left: Any, right: Any, rng: np.random.Generator):
    """Fold one decoded shard into the running merge by concrete type."""
    if type(left) is not type(right):
        raise StreamError(
            f"cannot merge {type(left).__name__} with {type(right).__name__}"
        )
    if isinstance(left, MisraGries):
        return merge_misra_gries(left, right)
    if isinstance(left, SpaceSaving):
        return merge_space_saving(left, right)
    if isinstance(left, CountMinSketch):
        return merge_count_min(left, right)
    if isinstance(left, ReservoirSample):
        return merge_reservoirs(left, right, rng=rng)
    if isinstance(left, RowReservoir):
        return merge_row_reservoirs(left, right, rng=rng)
    raise StreamError(f"no merge rule for {type(left).__name__} shards")


def _iter_shard(shard: Any) -> Iterator[Any]:
    """Decode one shard into summaries, one at a time.

    A shard is a frame byte string or a readable binary stream.  Either
    may hold a wire-v3 *container*, in which case every contained frame
    is yielded in container order -- decoded sequentially through
    :func:`repro.wire.iter_container_objects`, so even a fleet container
    contributes at most one undecoded frame at a time.
    """
    import io

    from ..wire import (
        WIRE_V3,
        iter_container_objects,
        load,
        load_from,
        peek_wire_version,
    )

    if isinstance(shard, (bytes, bytearray, memoryview)):
        data = bytes(shard)
        if peek_wire_version(data) == WIRE_V3:
            yield from iter_container_objects(io.BytesIO(data))
        else:
            yield load(data)
        return
    if hasattr(shard, "read"):
        head = shard.read(5)
        if peek_wire_version(head) == WIRE_V3:
            yield from iter_container_objects(_Resumed(head, shard))
        else:
            yield load_from(_Resumed(head, shard))
        return
    raise StreamError(
        f"shard must be frame bytes or a binary stream, got {type(shard).__name__}"
    )


class _Resumed:
    """A binary reader that replays peeked prefix bytes, then delegates.

    Lets :func:`_iter_shard` sniff a stream's wire version without
    requiring ``seek`` -- shard streams may be sockets or pipes.
    """

    def __init__(self, prefix: bytes, stream: Any) -> None:
        self._prefix = prefix
        self._stream = stream

    def read(self, size: int = -1) -> bytes:
        if not self._prefix:
            return self._stream.read(size)
        if size is None or size < 0:
            taken, self._prefix = self._prefix, b""
            return taken + self._stream.read(size)
        taken, self._prefix = self._prefix[:size], self._prefix[size:]
        if len(taken) < size:
            taken += self._stream.read(size - len(taken))
        return taken


def merge_payloads(
    *shards: Any,
    rng: np.random.Generator | int | None = None,
):
    """Merge serialized summary shards by their wire frames.

    Each shard is a frame byte string or a readable binary file object
    (an open shard file); alternatively pass a *single iterable* yielding
    shards -- e.g. a generator over shard files -- which is consumed
    lazily.  Shards are decoded with :func:`repro.wire.load` /
    :func:`repro.wire.load_from` one at a time and folded left-to-right
    by the matching merge rule, so a fleet of shard files merges while
    holding at most one undecoded frame (and v2 frames stream straight
    out of their files without materializing).  A shard holding
    a wire-v3 *container* (``repro pack`` output) contributes each of
    its frames in container order under the same bound, decoded
    sequentially via :func:`repro.wire.iter_container_objects` -- a
    64-shard container and 64 shard files merge identically.  ``rng``
    feeds the sampling-based merges (reservoirs); the deterministic
    merges ignore it.

    Raises
    ------
    repro.errors.WireFormatError
        If any shard is not a valid frame.
    StreamError
        If fewer than two shards arrive, the shards' types differ, or
        their type has no merge rule.
    """
    source: Iterator[Any]
    if len(shards) == 1 and not isinstance(
        shards[0], (bytes, bytearray, memoryview)
    ) and not hasattr(shards[0], "read"):
        if not isinstance(shards[0], Iterable):
            raise StreamError(
                f"shard must be frame bytes or a binary stream, "
                f"got {type(shards[0]).__name__}"
            )
        source = iter(shards[0])
    else:
        source = iter(shards)
    gen = as_rng(rng)
    merged = None
    count = 0
    for shard in source:
        for decoded in _iter_shard(shard):
            count += 1
            merged = (
                decoded if merged is None else _merge_pair(merged, decoded, gen)
            )
    if count < 2:
        raise StreamError(f"need at least two shards to merge, got {count}")
    return merged
