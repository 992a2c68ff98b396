"""Where the traced run records spans: one place per layer boundary.

Server side (installed by the launcher before ``repro serve`` starts):

==================  =====================================================
span                wrapped callable
==================  =====================================================
protocol.parse      ``server.protocol.parse_request`` (starts a request)
protocol.encode     every ``server.protocol.encode_*`` response encoder
                    (ends the request)
registry.<verb>     ``SketchRegistry.estimate/indicate/ingest/load/restore``
registry.size_bits  ``wire.payload_size_bits`` as the registry calls it
wire.decode         ``wire.load_from`` (registry) and ``ContainerReader.extract``
wire.encode         ``wire.dump`` as the registry calls it
merge               ``streaming.merge.merge_summaries`` (registry)
summary.update      ``StreamSummary.update_many``
kernel.eval         ``estimate_batch`` / ``indicate_batch`` of the sketches
wal.append          ``WriteAheadLog.append`` (fsync included)
compact             ``PersistentStore.compact``
recover             ``PersistentStore.recover``
==================  =====================================================

Counts: ``point_reads`` (``StreamSummary.estimate_frequency`` calls) and
``fsyncs`` (``os.fsync`` calls) land on the innermost open span.

Client side (installed by the generator for the traced timed phase
only): ``client.encode`` around ``protocol.encode_request`` and
``client.decode`` around the response parsers, inside the generator's own
``client.request`` span per :class:`~repro.server.Client` call.
"""

from __future__ import annotations

import os

from .spans import Recorder

RESPONSE_ENCODERS = (
    "encode_load_ok", "encode_estimates", "encode_indicators", "encode_ingest_ok",
    "encode_load_many_ok", "encode_error", "encode_empty_ok", "encode_stat",
    "encode_entries",
)
RESPONSE_PARSERS = (
    "parse_load_ok", "parse_estimates", "parse_indicators", "parse_ingest_ok",
    "parse_load_many_ok", "parse_empty_ok", "parse_stat", "parse_entries",
)


def _request_attrs(protocol):
    names = {getattr(protocol, n): n[3:] for n in protocol.__all__ if n.startswith("OP_")}

    def attrs(args, kwargs, request) -> dict:
        return {"op": names.get(request.op, str(request.op)), "name": request.name,
                "bytes": len(args[0])}
    return attrs


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _stream_bytes(args, kwargs, result) -> dict:
    return {"bytes": args[0].getbuffer().nbytes}


def _arg_len(key: str):
    def attrs(args, kwargs, result) -> dict:
        return {key: len(args[1])}
    return attrs


def install_server(recorder: Recorder) -> None:
    """Wrap the public server-side entry points of every layer."""
    from repro.core.release_db import ReleaseDbSketch
    from repro.core.subsample import SubsampleSketch
    from repro.server import protocol
    from repro.server import registry as registry_module
    from repro.server.persistence import PersistentStore, WriteAheadLog
    from repro.server.registry import SketchRegistry
    from repro.streaming.base import StreamSummary
    from repro.wire import ContainerReader

    recorder.wrap(protocol, "parse_request", "protocol.parse",
                  request="begin", attrs=_request_attrs(protocol))
    for encoder in RESPONSE_ENCODERS:
        recorder.wrap(protocol, encoder, "protocol.encode",
                      request="end", attrs=_result_bytes)
    for verb in ("estimate", "indicate", "ingest", "load", "restore"):
        recorder.wrap(SketchRegistry, verb, f"registry.{verb}")
    recorder.wrap(registry_module, "payload_size_bits", "registry.size_bits")
    recorder.wrap(registry_module, "load_from", "wire.decode", attrs=_stream_bytes)
    recorder.wrap(ContainerReader, "extract", "wire.decode", attrs=_result_bytes)
    recorder.wrap(registry_module, "dump", "wire.encode", attrs=_result_bytes)
    recorder.wrap(registry_module, "merge_summaries", "merge")
    recorder.wrap(StreamSummary, "update_many", "summary.update", attrs=_arg_len("n"))
    recorder.count_calls(StreamSummary, "estimate_frequency", "point_reads")
    for sketch in (SubsampleSketch, ReleaseDbSketch):
        for method in ("estimate_batch", "indicate_batch"):
            recorder.wrap(sketch, method, "kernel.eval", attrs=_arg_len("n"), flatten=True)
    recorder.wrap(WriteAheadLog, "append", "wal.append", attrs=_arg_len("bytes"))
    recorder.count_calls(os, "fsync", "fsyncs")
    recorder.wrap(PersistentStore, "compact", "compact", attrs=_snapshot_bytes)
    recorder.wrap(PersistentStore, "recover", "recover", attrs=_recovery)


def _snapshot_bytes(args, kwargs, result) -> dict:
    return {"bytes": args[0].snapshot_path.stat().st_size}


def _recovery(args, kwargs, info) -> dict:
    return {"replayed_ops": info.replayed_ops, "snapshot_entries": info.snapshot_entries}


def install_client(recorder: Recorder) -> None:
    """Wrap the client's request encoder and response parsers."""
    from repro.server import protocol

    recorder.wrap(protocol, "encode_request", "client.encode")
    for parser in RESPONSE_PARSERS:
        recorder.wrap(protocol, parser, "client.decode")
