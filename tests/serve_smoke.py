"""CI smoke for the sketch server: socket answers == file answers.

Exercises the real daemon across process boundaries:

1. build a transaction file and `repro sketch` it to a frame file;
2. start `repro serve --port 0` as a subprocess and read its port;
3. `repro push` the frame into the registry;
4. `repro query --connect` over the socket and `repro query` on the
   file must print the identical estimate and indicator;
5. a batched socket query must be bit-identical to the decoded frame's
   own `estimate_batch`;
6. SIGTERM must shut the daemon down cleanly (exit code 0).

Run with:  PYTHONPATH=src python tests/serve_smoke.py
"""

from __future__ import annotations

import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro import wire  # noqa: E402
from repro.db import Itemset, planted_database, write_transactions  # noqa: E402
from repro.server import Client  # noqa: E402


def run_cli(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}"
        )
    return proc.stdout


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_serve_smoke_") as tmp:
        tmp_path = Path(tmp)
        db = planted_database(
            400, 8, [(Itemset([0, 1]), 0.5)], background=0.05, rng=5
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        frame_file = tmp_path / "resident.bin"
        print(run_cli("sketch", str(baskets), "--out", str(frame_file)), end="")

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
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

            print(run_cli("push", str(frame_file), "--connect", addr), end="")

            file_out = run_cli("query", str(frame_file), "0", "1")
            sock_out = run_cli("query", "resident", "0", "1", "--connect", addr)
            file_answer = file_out.split("bits): ", 1)[1]
            sock_answer = sock_out.split("bits): ", 1)[1]
            if file_answer != sock_answer:
                raise SystemExit(
                    f"socket answer diverged from file answer:\n"
                    f"  file:   {file_answer!r}\n  socket: {sock_answer!r}"
                )
            print(f"file == socket: {sock_answer.strip()}")

            # Batched differential straight against the decoded frame.
            sketch = wire.load(frame_file.read_bytes())
            itemsets = [Itemset([0]), Itemset([0, 1]), Itemset([2, 5])]
            host, port_text = addr.rsplit(":", 1)
            with Client(host, int(port_text)) as client:
                got = client.estimate("resident", itemsets)
            expected = [float(v) for v in sketch.estimate_batch(itemsets)]
            if [struct.pack(">d", v) for v in got] != [
                struct.pack(">d", v) for v in expected
            ]:
                raise SystemExit(
                    f"batched socket estimates diverged: {got} != {expected}"
                )
            print(f"batched socket estimates bit-identical: {got}")
        finally:
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=60)
        if code != 0:
            raise SystemExit(f"server exited {code} on SIGTERM")
        print("serve smoke OK")


if __name__ == "__main__":
    main()
