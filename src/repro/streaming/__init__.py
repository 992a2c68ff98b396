"""Streaming baselines (Section 1.2's heavy-hitters and itemset literature)."""

from .base import COUNT_BITS, EXTEND_CHUNK_ITEMS, StreamSummary, item_id_bits
from .count_min import CountMinSketch
from .itemset_stream import StreamingItemsetMiner
from .lossy_counting import LossyCounting
from .merge import (
    merge_count_min,
    merge_misra_gries,
    merge_payloads,
    merge_reservoirs,
    merge_row_reservoirs,
    merge_space_saving,
)
from .misra_gries import MisraGries
from .pipeline import (
    PipelineStats,
    StreamPipeline,
    SUMMARY_KINDS,
    SummarySpec,
    batches_from_binary,
    batches_from_text,
)
from .reservoir import ReservoirSample, RowReservoir
from .space_saving import SpaceSaving
from .sticky_sampling import StickySampling

#: Resolved on first access (module ``__getattr__``), so that
#: ``python -m repro.streaming.traffic`` does not find its own module
#: already imported by this package.
_TRAFFIC_NAMES = frozenset({"adversarial_traffic", "bursty_traffic", "zipf_traffic"})


def __getattr__(name: str):
    if name in _TRAFFIC_NAMES:
        from . import traffic

        return getattr(traffic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "StreamSummary",
    "COUNT_BITS",
    "EXTEND_CHUNK_ITEMS",
    "item_id_bits",
    "StreamPipeline",
    "SummarySpec",
    "PipelineStats",
    "SUMMARY_KINDS",
    "batches_from_text",
    "batches_from_binary",
    "zipf_traffic",
    "bursty_traffic",
    "adversarial_traffic",
    "MisraGries",
    "SpaceSaving",
    "LossyCounting",
    "StickySampling",
    "CountMinSketch",
    "ReservoirSample",
    "RowReservoir",
    "StreamingItemsetMiner",
    "merge_misra_gries",
    "merge_space_saving",
    "merge_count_min",
    "merge_reservoirs",
    "merge_row_reservoirs",
    "merge_payloads",
]
