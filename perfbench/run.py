#!/usr/bin/env python3
"""End-to-end serving benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {query,ingest,mixed} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run sets the server up several times (reporting
the median ``setup_s``), then drives one closed-loop timed phase and
prints every end-to-end metric.  With ``--trace 1`` it runs the same
phase twice -- against a plain server and against one whose layers are
wrapped in spans -- and prints every per-layer metric; the difference
between the two phases is the tracing overhead.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the full report.  Exit code 0 means every answer checked
out; any wrong answer or failed request exits 1, and a tree without the
program (no ``src/repro``) exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: Server set-ups per plain run; ``setup_s`` is their median.
SETUPS = 7
#: Launchers importing at once (the host has two vCPUs).
SPAWN_BATCH = 2


def _parse_args(argv: list[str], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "ingest", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict[str, str]:
    """Child environment: the checkout's sources, caches kept inside it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _commit() -> str:
    """The git HEAD when the tree is a clone, else a digest of ``src/``."""
    # The ceiling keeps git from finding a repository above the tree.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        out = None
    if out is not None and out.returncode == 0:
        toplevel, head = out.stdout.splitlines()
        if Path(toplevel).resolve() == ROOT:
            return head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _calibrate() -> float:
    """Fixed CPU work in the generator (ms), median of five: host drift."""
    import numpy as np

    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        arr = np.arange(1 << 20, dtype=np.int64)
        int((arr * 3 % 7).sum())
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _cpu_ticks() -> tuple[int, int]:
    """Host-wide (steal, total) CPU ticks from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        ticks = [int(x) for x in stat.readline().split()[1:]]
    return ticks[7], sum(ticks)


class Run:
    """One benchmark invocation: its servers, work dir and results."""

    def __init__(self, args: argparse.Namespace, env: dict[str, str]) -> None:
        from perfbench import inputs

        self.args = args
        self.env = env
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.servers: list = []
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.work.mkdir(parents=True)
        self.plan = inputs.build(args.workload, args.seed, args.seconds, self.work)

    def spawn(self, count: int, traced: bool = False) -> list:
        """Start ``count`` launchers, importing at most two at a time."""
        from perfbench.servers import ServerProcess

        new = []
        for i in range(count):
            n = len(self.servers)
            trace_out = self.work / f"spans-{n}.json" if traced else None
            proc = ServerProcess(
                ROOT, self.plan.data_dir_copy(self.work / f"data-{n}"),
                self.work / f"server-{n}.log", self.env, trace_out,
            )
            self.servers.append(proc)
            new.append(proc)
            if len(new) % SPAWN_BATCH == 0 or i == count - 1:
                for started in new[-SPAWN_BATCH:]:
                    if started.import_s is None:
                        started.wait_imported()
        return new

    def set_up(self, server) -> float:
        """Go signal to warm fleet: recovery, bind, LOAD_MANY, warm-up."""
        from perfbench.workloads import set_up

        start = time.perf_counter()
        server.go()
        port = server.wait_serving()
        tally = set_up(self.plan, port)
        elapsed = time.perf_counter() - start
        self._absorb(tally)
        return elapsed

    def _absorb(self, tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.wrong.extend(tally.wrong)
        self.errors.extend(tally.errors)

    def timed_phase(self, server, recorder=None) -> dict:
        """Calibrate, run the workload, read memory, check the final state."""
        from perfbench import stats
        from perfbench.workloads import GATED, RUNNERS, TAIL_PERCENTILE, check_final_state

        calibration_ms = _calibrate()
        steal0, total0 = _cpu_ticks()
        phase = RUNNERS[self.args.workload](self.plan, server.port, recorder)
        steal1, total1 = _cpu_ticks()
        rss = server.peak_rss_mb()
        self._absorb(phase.tally)
        self.wrong.extend(check_final_state(self.plan, server.port, phase))
        gated = phase.tally.latency[GATED[self.args.workload]]
        tail = TAIL_PERCENTILE[self.args.workload]
        ok = phase.tally.attempted - phase.tally.failed
        groups = {}
        for group, values in phase.tally.latency.items():
            if values:
                highest = stats.highest_supported(len(values))
                groups[group] = {
                    "samples": len(values),
                    **{f"p{p}_ms": stats.percentile(values, p) * 1e3
                       for p in (50, 90, 95) if stats.supports(p, len(values))},
                    "highest_percentile": highest,
                    "highest_ms": stats.percentile(values, highest) * 1e3 if highest else None,
                }
        return {
            "phase": phase,
            "end_to_end": {
                "requests_per_s": ok / phase.wall_s,
                "p50_ms": stats.percentile(gated, 50) * 1e3,
                "tail_ms": stats.percentile(gated, tail) * 1e3,
                "peak_rss_mb": rss,
            },
            "report": {
                "gated_group": GATED[self.args.workload],
                "tail_percentile": tail,
                "groups": groups,
                "attempted": phase.tally.attempted,
                "failed": phase.tally.failed,
                "acknowledged_writes": len(phase.tally.acked),
                "wall_s": phase.wall_s,
                "generator_cpu_share": phase.cpu_s / phase.wall_s,
                "calibration_ms": calibration_ms,
                "steal_share": (steal1 - steal0) / max(1, total1 - total0),
            },
        }

    # -- the two modes -----------------------------------------------------
    def plain(self) -> tuple[dict, dict]:
        servers = self.spawn(SETUPS)
        setups = []
        for i, server in enumerate(servers):
            setups.append(self.set_up(server))
            if i < len(servers) - 1:
                server.stop()
        result = self.timed_phase(servers[-1])
        servers[-1].stop()
        metrics = {"setup_s": statistics.median(setups), **result["end_to_end"]}
        report = {
            "setup_s_samples": setups,
            "startup.import_s": [s.import_s for s in servers],
            **result["report"],
        }
        return metrics, report

    def traced(self) -> tuple[dict, dict]:
        from perfbench import layers
        from perfbench.spans import Recorder
        from perfbench.tracepoints import install_client
        from perfbench.workloads import GATED

        plain, traced = self.spawn(1) + self.spawn(1, traced=True)
        plain_setup = self.set_up(plain)
        untraced = self.timed_phase(plain)
        plain.stop()

        traced_setup = self.set_up(traced)
        recorder = Recorder()
        install_client(recorder)
        try:
            result = self.timed_phase(traced, recorder)
        finally:
            recorder.restore()
        traced.stop()
        with open(traced.trace_out) as spans_file:
            server_spans = json.load(spans_file)["spans"]
        phase = result["phase"]
        analysis = layers.analyze(
            server_spans, recorder.spans,
            (phase.start, phase.end), len(phase.tally.acked), traced.import_s,
            GATED[self.args.workload],
        )
        e2e_untraced = {"setup_s": plain_setup, **untraced["end_to_end"]}
        e2e_traced = {"setup_s": traced_setup, **result["end_to_end"]}
        report = {
            "per_layer_samples": {k: n for k, (_, n) in analysis["metrics"].items()},
            "blocking_path": analysis["classes"],
            "end_to_end_untraced": e2e_untraced,
            "end_to_end_traced": e2e_traced,
            "tracing_overhead": {k: e2e_traced[k] - e2e_untraced[k] for k in e2e_traced},
            "untraced_phase": untraced["report"],
            **result["report"],
        }
        metrics = {k: value for k, (value, _) in analysis["metrics"].items()}
        return metrics, report

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def _metadata() -> dict:
    import numpy as np

    from repro.db import _native

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "native_kernels": _native.available(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec["run_seconds"])
    # A terminated run still drains and reaps its servers on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    env = _environment()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({k: env[k] for k in ("REPRO_NATIVE_CACHE", "TMPDIR")})
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    metadata = _metadata()  # builds the native kernel cache before any clock

    run = Run(args, env)
    try:
        metrics, report = run.traced() if args.trace else run.plain()
    finally:
        run.close()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    correct = not run.wrong and run.failed == 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": metadata, "wrong": run.wrong[:20],
        "errors": run.errors[:20], **report,
    }, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
