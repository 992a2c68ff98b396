"""Per-layer metrics and blocking-path breakdowns from a traced run.

Inputs are the server's spans (written by the launcher), the
generator's client spans, and the timed-phase window.  Only requests
that start and finish inside the window count; set-up spans feed the
``recover.*`` metrics alone.

For each request class the mean latency splits exactly into::

    latency = client.encode + client.decode + server.busy + server.wait

``server.busy`` runs from ``parse_request`` entry to the response
encoder's exit; ``server.wait`` is the rest -- socket transit, framing,
and time queued behind other requests on the event loop.  ``busy``
splits further into the self time of each server-side span plus an
unattributed remainder (dispatch glue outside every span).
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean
from typing import Any, Sequence

from .spans import ATTRS, END, NAME, PARENT, REQ, START, self_times
from .workloads import group_of, request_class

#: Server-side layers in blocking-path order.
SERVER_LAYERS = (
    "protocol.parse", "registry.estimate", "registry.indicate", "registry.ingest",
    "registry.load", "kernel.eval", "summary.update", "registry.size_bits",
    "wire.decode", "wire.encode", "merge", "wal.append", "protocol.encode",
)

MS = 1e3


def _mean(values: Sequence[float]) -> float:
    return fmean(values) if values else 0.0


def _server_requests(spans, selfs, start, end) -> list[dict[str, Any]]:
    """One record per server request inside the window."""
    by_request: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[REQ] is not None:
            by_request[span[REQ]].append(i)
    requests = []
    for members in by_request.values():
        first, last = spans[members[0]], spans[members[-1]]
        if first[NAME] != "protocol.parse" or last[NAME] != "protocol.encode":
            continue
        if first[START] < start or last[END] > end:
            continue
        attrs = first[ATTRS]
        layers: dict[str, float] = defaultdict(float)
        for i in members:
            layers[spans[i][NAME]] += selfs[i]
        requests.append({
            "cls": request_class(attrs.get("op", "?"), attrs.get("name")),
            "busy": last[END] - first[START],
            "request_bytes": attrs.get("bytes", 0),
            "response_bytes": last[ATTRS].get("bytes", 0),
            "layers": layers,
        })
    return requests


def _client_requests(spans, selfs) -> list[dict[str, Any]]:
    records: dict[int, dict[str, Any]] = {}
    for i, span in enumerate(spans):
        if span[NAME] == "client.request":
            records[i] = {"cls": span[ATTRS]["cls"], "latency": span[END] - span[START],
                          "client.encode": 0.0, "client.decode": 0.0}
    for i, span in enumerate(spans):
        if span[NAME] in ("client.encode", "client.decode") and span[PARENT] in records:
            records[span[PARENT]][span[NAME]] += selfs[i]
    return list(records.values())


def analyze(
    server_spans: list[list[Any]],
    client_spans: list[list[Any]],
    window: tuple[float, float],
    acked_writes: int,
    import_s: float,
    gated: str,
) -> dict[str, Any]:
    """Per-layer metrics (with sample counts) and per-class breakdowns."""
    start, end = window
    s_self = self_times(server_spans)
    c_self = self_times(client_spans)
    requests = _server_requests(server_spans, s_self, start, end)
    clients = _client_requests(client_spans, c_self)
    in_window = [
        i for i, span in enumerate(server_spans)
        if start <= span[START] <= end
    ]

    def spans_named(name: str) -> list[int]:
        return [i for i in in_window if server_spans[i][NAME] == name]

    def duration(i: int) -> float:
        return server_spans[i][END] - server_spans[i][START]

    metrics: dict[str, tuple[float, int]] = {}

    def per_call(metric: str, name: str, self_time: bool = False) -> None:
        idx = spans_named(name)
        values = [s_self[i] if self_time else duration(i) for i in idx]
        metrics[metric] = (_mean(values) * MS, len(values))

    def per_call_attr(metric: str, name: str, key: str) -> None:
        idx = spans_named(name)
        metrics[metric] = (_mean([server_spans[i][ATTRS].get(key, 0) for i in idx]), len(idx))

    metrics["client.encode_ms"] = (_mean([c["client.encode"] for c in clients]) * MS, len(clients))
    metrics["client.decode_ms"] = (_mean([c["client.decode"] for c in clients]) * MS, len(clients))
    metrics["protocol.parse_ms"] = (
        _mean([r["layers"]["protocol.parse"] for r in requests]) * MS, len(requests))
    metrics["protocol.encode_ms"] = (
        _mean([r["layers"]["protocol.encode"] for r in requests]) * MS, len(requests))
    metrics["protocol.request_bytes"] = (
        _mean([r["request_bytes"] for r in requests]), len(requests))
    metrics["protocol.response_bytes"] = (
        _mean([r["response_bytes"] for r in requests]), len(requests))

    classes = breakdown(requests, clients)
    gated_rows = [row for cls, row in classes.items() if group_of(cls) == gated]
    n_gated = sum(row["requests"] for row in gated_rows)

    def gated_mean(key: str) -> float:
        if not n_gated:
            return 0.0
        return sum(row[key] * row["requests"] for row in gated_rows) / n_gated

    metrics["server.busy_ms"] = (gated_mean("server.busy_ms"), n_gated)
    metrics["server.wait_ms"] = (gated_mean("server.wait_ms"), n_gated)

    for verb in ("estimate", "indicate", "ingest", "load"):
        per_call(f"registry.{verb}_ms", f"registry.{verb}", self_time=True)
    per_call("registry.size_bits_ms", "registry.size_bits")
    applies = len(spans_named("summary.update")) + len(spans_named("merge"))
    metrics["registry.applies_per_write"] = (
        applies / acked_writes if acked_writes else 0.0, acked_writes)

    per_call("kernel.eval_ms", "kernel.eval")
    per_call_attr("kernel.itemsets_per_call", "kernel.eval", "n")
    per_call("summary.update_ms", "summary.update")
    updates = spans_named("summary.update")
    busy_s = sum(duration(i) for i in updates)
    items = sum(server_spans[i][ATTRS].get("n", 0) for i in updates)
    metrics["summary.items_per_busy_s"] = (items / busy_s if busy_s else 0.0, len(updates))
    estimates = spans_named("registry.estimate")
    point_reads = sum(server_spans[i][ATTRS].get("point_reads", 0) for i in estimates)
    metrics["summary.point_reads_per_request"] = (
        point_reads / len(estimates) if estimates else 0.0, len(estimates))

    per_call("wire.decode_ms", "wire.decode")
    per_call_attr("wire.decode_bytes", "wire.decode", "bytes")
    per_call("wire.encode_ms", "wire.encode")
    per_call_attr("wire.encode_bytes", "wire.encode", "bytes")
    per_call("merge.ms", "merge")

    per_call("wal.append_ms", "wal.append")
    appends = spans_named("wal.append")
    wal_bytes = sum(server_spans[i][ATTRS].get("bytes", 0) for i in appends)
    fsyncs = sum(server_spans[i][ATTRS].get("fsyncs", 0) for i in appends)
    metrics["wal.bytes_per_write"] = (wal_bytes / acked_writes if acked_writes else 0.0, acked_writes)
    metrics["wal.fsyncs_per_write"] = (fsyncs / acked_writes if acked_writes else 0.0, acked_writes)

    compactions = spans_named("compact")
    metrics["compact.count"] = (float(len(compactions)), len(compactions))
    per_call("compact.ms", "compact")
    per_call_attr("compact.snapshot_bytes", "compact", "bytes")

    recovers = [s for s in server_spans if s[NAME] == "recover"]
    if recovers:
        rec = recovers[0]
        metrics["recover.ms"] = ((rec[END] - rec[START]) * MS, 1)
        metrics["recover.replayed_ops"] = (float(rec[ATTRS].get("replayed_ops", 0)), 1)
        metrics["recover.snapshot_entries"] = (float(rec[ATTRS].get("snapshot_entries", 0)), 1)
    metrics["startup.import_s"] = (import_s, 1)
    return {"metrics": metrics, "classes": classes}


def breakdown(
    requests: list[dict[str, Any]], clients: list[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Mean self time per layer along each request class's blocking path."""
    server_by: dict[str, list[dict]] = defaultdict(list)
    client_by: dict[str, list[dict]] = defaultdict(list)
    for r in requests:
        server_by[r["cls"]].append(r)
    for c in clients:
        client_by[c["cls"]].append(c)
    rows = {}
    for cls in sorted(set(server_by) & set(client_by)):
        srv, cli = server_by[cls], client_by[cls]
        latency = _mean([c["latency"] for c in cli])
        encode = _mean([c["client.encode"] for c in cli])
        decode = _mean([c["client.decode"] for c in cli])
        busy = _mean([r["busy"] for r in srv])
        layers = {
            name: _mean([r["layers"].get(name, 0.0) for r in srv]) for name in SERVER_LAYERS
        }
        layers = {name: value for name, value in layers.items() if value > 0}
        unattributed = busy - sum(layers.values())
        rows[cls] = {
            "requests": len(cli),
            "server_requests": len(srv),
            "latency_ms": latency * MS,
            "client.encode_ms": encode * MS,
            "client.decode_ms": decode * MS,
            "server.busy_ms": busy * MS,
            "server.wait_ms": (latency - encode - decode - busy) * MS,
            "self_ms": {name: value * MS for name, value in layers.items()},
            "unattributed_ms": unattributed * MS,
            "unattributed_share": unattributed / latency if latency else 0.0,
        }
    return rows
