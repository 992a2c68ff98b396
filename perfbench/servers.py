"""Child server processes: spawn, go signal, readiness, drain, memory."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class ServerProcess:
    """One ``perfbench.launcher`` child running ``repro serve --data-dir``."""

    def __init__(
        self, root: Path, data_dir: Path, log: Path, env: dict[str, str],
        trace_out: Path | None = None,
    ) -> None:
        cmd = [sys.executable, "-m", "perfbench.launcher"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--data-dir", str(data_dir)]
        self.trace_out = trace_out
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self._buffer = b""
        self.import_s: float | None = None
        self.port: int | None = None

    def _line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("server did not answer in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited with code {self.proc.wait()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def wait_imported(self) -> float:
        line = self._line(time.monotonic() + START_TIMEOUT)
        if not line.startswith("imported "):
            raise RuntimeError(f"unexpected launcher output {line!r}")
        self.import_s = float(line.split()[1])
        return self.import_s

    def go(self) -> None:
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.close()

    def wait_serving(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            line = self._line(deadline)
            if line.startswith("serving on "):
                self.port = int(line.rsplit(":", 1)[1])
                return self.port

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM drain, then wait; kill only if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        self._log.close()
        return self.proc.returncode
