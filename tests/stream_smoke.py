"""CI smoke for the stream pipeline: 10^7 items, bounded memory, exact result.

Exercises the real ingestion path across process boundaries, the way the
PR-8 acceptance criteria state it:

1. a traffic-generator subprocess (``python -m repro.streaming.traffic``)
   pipes a 10^7-item Zipf stream as raw little-endian u64s into a
   ``repro stream`` subprocess (``--format u64``, small micro-batches);
2. peak RSS of the streaming processes must stay *flat* in the stream
   length: the 10x-longer run may not grow past a small multiple of the
   calibration run's peak (a buffered stream would add ~80 MB alone);
3. the emitted frame must be bit-identical to a count-min reference built
   in this parent from the same traffic schedule -- plain CMS ingestion
   commutes with any batching, so the pipeline's batch boundaries must
   be unobservable in the final bytes;
4. a ``repro serve`` daemon plus ``repro stream --connect`` must leave the
   resident summary answering exactly like the locally built reference
   (socket INGEST == file-path answers);
5. SIGTERM must shut the daemon down cleanly (exit code 0).

Run with:  PYTHONPATH=src python tests/stream_smoke.py
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.server import Client  # noqa: E402
from repro.streaming import CountMinSketch  # noqa: E402
from repro.streaming.traffic import zipf_traffic  # noqa: E402

UNIVERSE = 100_000
WIDTH, DEPTH, SEED = 2048, 4, 7
TRAFFIC_BATCH = 16_384  # pinned: the reference must see identical batches
SHORT_ITEMS = 1_000_000
LONG_ITEMS = 10_000_000

#: The long run streams 10x the items (80 MB of raw u64s); a pipeline that
#: buffered the stream would blow its peak RSS past this multiple of the
#: short run's peak.  Bounded ingestion keeps the peaks nearly identical.
MAX_RSS_GROWTH = 1.4


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _stream_args(out: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "stream", "-", "--format", "u64",
        "--summary", "count-min", "--universe", str(UNIVERSE),
        "--width", str(WIDTH), "--depth", str(DEPTH), "--seed", str(SEED),
        "--max-batch-items", "65536", "--out", str(out),
    ]


def run_piped(items: int, out: Path) -> float:
    """traffic | repro stream; returns peak child RSS in KB so far."""
    generator = subprocess.Popen(
        [
            sys.executable, "-m", "repro.streaming.traffic", "zipf",
            "--d", str(UNIVERSE), "--items", str(items),
            "--batch-items", str(TRAFFIC_BATCH),
            "--format", "u64", "--seed", "9",
        ],
        stdout=subprocess.PIPE,
        env=_env(),
    )
    began = time.perf_counter()
    stream = subprocess.run(
        _stream_args(out),
        stdin=generator.stdout,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    generator.stdout.close()
    if generator.wait(timeout=60) != 0:
        raise SystemExit("traffic generator failed")
    if stream.returncode != 0:
        raise SystemExit(f"repro stream failed:\n{stream.stderr}")
    elapsed = time.perf_counter() - began
    print(
        f"streamed {items} items in {elapsed:.1f}s "
        f"({items / elapsed:,.0f} items/sec): {stream.stdout.strip()}"
    )
    # Linux reports ru_maxrss in KB; it is the max over all reaped children.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def reference_sketch(items: int) -> CountMinSketch:
    reference = CountMinSketch(UNIVERSE, WIDTH, DEPTH, rng=SEED)
    for batch in zipf_traffic(
        UNIVERSE, batch_items=TRAFFIC_BATCH, total_items=items, rng=9
    ):
        reference.update_many(batch)
    return reference


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_stream_smoke_") as tmp:
        tmp_path = Path(tmp)

        # 1+2: bounded memory, calibrated on the short run.  The short
        # run's peak includes the interpreter + numpy baseline, so the
        # growth bound isolates what scales with the stream.
        short_out = tmp_path / "short.bin"
        short_rss = run_piped(SHORT_ITEMS, short_out)
        long_out = tmp_path / "long.bin"
        long_rss = run_piped(LONG_ITEMS, long_out)
        print(
            f"peak child RSS: {short_rss / 1024:.0f} MB after {SHORT_ITEMS} "
            f"items, {long_rss / 1024:.0f} MB after {LONG_ITEMS}"
        )
        if long_rss > MAX_RSS_GROWTH * short_rss:
            raise SystemExit(
                f"RSS grew with the stream: {long_rss} KB > "
                f"{MAX_RSS_GROWTH} x {short_rss} KB -- ingestion is not bounded"
            )

        # 3: the long frame decodes to exactly the reference sketch.  The
        # file writer may chunk large frames, so compare canonical
        # re-encodings, not raw file bytes.
        from repro.wire import load_as

        reference = reference_sketch(LONG_ITEMS)
        decoded = load_as(CountMinSketch, long_out.read_bytes())
        if decoded.to_bytes() != reference.to_bytes():
            raise SystemExit(
                "streamed frame differs from the one-shot reference sketch"
            )
        print(f"frame bit-identical to reference ({reference.stream_length} items)")

        # 4: socket ingestion answers like the local reference.
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            addr = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = server.stdout.readline()
                if not line:
                    raise SystemExit("server exited before announcing its port")
                if line.startswith("serving on "):
                    addr = line.split("serving on ", 1)[1].strip()
                    break
            if addr is None:
                raise SystemExit("server never announced its port")
            print(f"daemon up at {addr}")

            generator = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.streaming.traffic", "zipf",
                    "--d", str(UNIVERSE), "--items", str(SHORT_ITEMS),
                    "--batch-items", str(TRAFFIC_BATCH),
                    "--format", "u64", "--seed", "9",
                ],
                stdout=subprocess.PIPE,
                env=_env(),
            )
            pushed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "stream", "-",
                    "--format", "u64", "--summary", "count-min",
                    "--universe", str(UNIVERSE), "--width", str(WIDTH),
                    "--depth", str(DEPTH), "--seed", str(SEED),
                    "--connect", addr, "--name", "live",
                ],
                stdin=generator.stdout,
                env=_env(),
                capture_output=True,
                text=True,
                timeout=600,
            )
            generator.stdout.close()
            generator.wait(timeout=60)
            if pushed.returncode != 0:
                raise SystemExit(f"stream --connect failed:\n{pushed.stderr}")
            print(pushed.stdout.strip())

            from repro.db import Itemset

            short_reference = reference_sketch(SHORT_ITEMS)
            probes = [0, 1, 2, 10, 1000, UNIVERSE - 1]
            host, port_text = addr.rsplit(":", 1)
            with Client(host, int(port_text)) as client:
                got = client.estimate("live", [Itemset([i]) for i in probes])
            expected = [short_reference.estimate_frequency(i) for i in probes]
            if got != expected:
                raise SystemExit(
                    f"socket INGEST answers diverged from the reference:\n"
                    f"  socket: {got}\n  local:  {expected}"
                )
            print(f"socket INGEST == local reference on {len(probes)} probes")
        finally:
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=60)
        if code != 0:
            raise SystemExit(f"server exited {code} on SIGTERM")
        print("stream smoke OK")


if __name__ == "__main__":
    main()
