"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import wire
from repro.cli import build_parser, main
from repro.db import Itemset, planted_database, write_transactions
from repro.errors import WireFormatError

FIXTURES = Path(__file__).resolve().parent / "fixtures"

class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["experiments"],
            ["bounds", "--d", "16"],
            ["validate", "--task", "for-each-estimator"],
            ["attack", "--theorem", "15"],
            ["mine", "some.txt", "--threshold", "0.2"],
            ["sketch", "some.txt", "--out", "s.bin"],
            ["query", "s.bin", "0", "1"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_workers_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["validate", "--workers", "2"]).workers == 2
        assert parser.parse_args(["mine", "f.txt", "--workers", "3"]).workers == 3
        assert parser.parse_args(["validate"]).workers is None


class TestCommands:
    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E-T13" in out and "bench_thm13_encoding.py" in out

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "1000", "--d", "16", "--k", "2", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        for token in ("for-all-indicator", "release-db", "upper (min)", "lower bound"):
            assert token in out

    def test_validate_passes_for_valid_sketcher(self, capsys):
        code = main(
            [
                "validate", "--task", "for-each-estimator", "--sketcher", "subsample",
                "--n", "2000", "--d", "10", "--eps", "0.15", "--delta", "0.2",
                "--trials", "4",
            ]
        )
        assert code == 0
        assert "failure rate" in capsys.readouterr().out

    def test_attack_thm13(self, capsys):
        code = main(
            ["attack", "--theorem", "13", "--d", "16", "--m", "8",
             "--sketcher", "release-db"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered 64/64" in out

    def test_attack_thm15(self, capsys):
        code = main(
            ["attack", "--theorem", "15", "--d", "32", "--k", "2",
             "--sketcher", "release-db"]
        )
        assert code == 0

    def test_mine_exact_and_sketched(self, tmp_path, capsys):
        db = planted_database(
            800, 8, [(Itemset([0, 1]), 0.5)], background=0.02, rng=0
        )
        path = tmp_path / "baskets.txt"
        write_transactions(db, path)

        assert main(["mine", str(path), "--threshold", "0.4"]) == 0
        exact_out = capsys.readouterr().out
        assert "0 1" in exact_out

        assert main(
            ["mine", str(path), "--threshold", "0.4", "--via-sketch"]
        ) == 0
        sketch_out = capsys.readouterr().out
        assert "0 1" in sketch_out

    def test_mine_workers_matches_serial(self, tmp_path, capsys):
        db = planted_database(
            600, 8, [(Itemset([2, 3]), 0.6)], background=0.05, rng=1
        )
        path = tmp_path / "baskets.txt"
        write_transactions(db, path)
        assert main(["mine", str(path), "--threshold", "0.5"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["mine", str(path), "--threshold", "0.5", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_mine_backend_matches_serial(self, tmp_path, capsys, monkeypatch):
        """The sharded sweep backend prints what the inline one prints.

        Four reported cores keep ``--workers 2`` from being clamped back
        to one inline shard on a single-core host.
        """
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        db = planted_database(
            600, 8, [(Itemset([2, 3]), 0.6)], background=0.05, rng=1
        )
        path = tmp_path / "baskets.txt"
        write_transactions(db, path)
        assert main(["mine", str(path), "--threshold", "0.5", "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["mine", str(path), "--threshold", "0.5", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_mine_kernel_tiers_match(self, tmp_path, capsys, native_unavailable):
        """The numpy and native kernel tiers print identical mining output."""
        db = planted_database(
            600, 8, [(Itemset([2, 3]), 0.6)], background=0.05, rng=1
        )
        path = tmp_path / "baskets.txt"
        write_transactions(db, path)
        with native_unavailable():
            assert main(["mine", str(path), "--threshold", "0.5"]) == 0
        numpy_out = capsys.readouterr().out
        assert main(["mine", str(path), "--threshold", "0.5"]) == 0
        assert capsys.readouterr().out == numpy_out

    def test_validate_workers(self, capsys):
        code = main(
            [
                "validate", "--task", "for-each-estimator", "--sketcher", "subsample",
                "--n", "1500", "--d", "10", "--eps", "0.15", "--delta", "0.2",
                "--trials", "3", "--workers", "2",
            ]
        )
        assert code == 0
        assert "failure rate" in capsys.readouterr().out

    def test_sketch_then_query_separate_processes(self, tmp_path, capsys):
        """The (S, Q) split across a file: sketch writes, query answers."""
        db = planted_database(
            900, 8, [(Itemset([0, 1]), 0.55)], background=0.02, rng=3
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"

        for sketcher in ("release-db", "release-answers", "subsample", "best"):
            assert main(
                ["sketch", str(baskets), "--out", str(out),
                 "--sketcher", sketcher, "--eps", "0.05", "--seed", "5"]
            ) == 0
            sketch_msg = capsys.readouterr().out
            assert "payload" in sketch_msg and "bits" in sketch_msg

            assert main(["query", str(out), "0", "1"]) == 0
            query_msg = capsys.readouterr().out
            assert "estimate[0 1]" in query_msg
            assert "indicate = 1" in query_msg

    def test_query_wrong_size_reports_cleanly(self, tmp_path, capsys):
        """Stored-answer sketches only answer k-itemsets: no traceback."""
        db = planted_database(
            300, 6, [(Itemset([0, 1]), 0.5)], background=0.1, rng=6
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(
            ["sketch", str(baskets), "--out", str(out),
             "--sketcher", "release-answers", "--k", "2"]
        ) == 0
        capsys.readouterr()
        assert main(["query", str(out)]) == 1  # empty itemset, k=2 table
        err = capsys.readouterr().err
        assert "cannot answer" in err and "2-itemsets" in err

    def test_sketch_bad_inputs_report_cleanly(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        assert main(["sketch", str(tmp_path / "missing.txt"), "--out", str(out)]) == 1
        assert "cannot sketch" in capsys.readouterr().err

    def test_query_unreadable_file_reports_cleanly(self, tmp_path, capsys):
        not_a_frame = tmp_path / "baskets.txt"
        not_a_frame.write_text("0 1 2\n")
        assert main(["query", str(not_a_frame), "0"]) == 1
        assert "cannot read sketch file" in capsys.readouterr().err
        assert main(["query", str(tmp_path / "missing.bin"), "0"]) == 1
        assert "cannot read sketch file" in capsys.readouterr().err

    def test_query_negative_item_reports_cleanly(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "any.bin"), "-1"]) == 1
        assert "invalid itemset" in capsys.readouterr().err

    def test_query_empty_itemset(self, tmp_path, capsys):
        db = planted_database(
            400, 6, [(Itemset([0]), 0.5)], background=0.1, rng=4
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", str(out)]) == 0
        assert "estimate[(empty)] = 1" in capsys.readouterr().out


class TestWireV2Cli:
    """--compress plumbing and the merge/inspect commands."""

    def _sketch_file(self, tmp_path, *extra):
        db = planted_database(
            500, 8, [(Itemset([0, 1]), 0.5)], background=0.02, rng=2
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(
            ["sketch", str(baskets), "--out", str(out), "--seed", "4", *extra]
        ) == 0
        return out

    def test_wire_flags_parse(self):
        parser = build_parser()
        assert not parser.parse_args(["sketch", "f.txt", "--out", "s"]).compress
        assert parser.parse_args(["sketch", "f.txt", "--out", "s", "--compress"]).compress
        assert parser.parse_args(["merge", "a", "b", "--out", "m", "--compress"]).compress
        assert parser.parse_args(
            ["stream", "-", "--universe", "10", "--out", "o", "--compress"]
        ).compress
        assert parser.parse_args(["inspect", "s.bin"]).path == "s.bin"

    def test_sketch_writes_plain_v2_and_round_trips(self, tmp_path, capsys):
        out = self._sketch_file(tmp_path)
        data = out.read_bytes()
        frame = wire.decode_frame(data)
        assert data[4] == wire.WIRE_V2 and not frame.chunked and not frame.compressed
        capsys.readouterr()
        assert main(["query", str(out), "0", "1"]) == 0
        assert "estimate[0 1]" in capsys.readouterr().out

    def test_sketch_compress_keeps_charged_bits(self, tmp_path, capsys):
        plain = self._sketch_file(tmp_path)
        plain_msg = capsys.readouterr().out
        squeezed = tmp_path / "squeezed.bin"
        baskets = tmp_path / "baskets.txt"
        assert main(
            ["sketch", str(baskets), "--out", str(squeezed), "--seed", "4",
             "--compress"]
        ) == 0
        squeezed_msg = capsys.readouterr().out
        # Same payload bits reported, smaller file on disk.
        assert plain_msg.split("payload")[1].split("bits")[0] == \
            squeezed_msg.split("payload")[1].split("bits")[0]
        assert squeezed.stat().st_size < plain.stat().st_size
        assert main(["query", str(squeezed), "0", "1"]) == 0
        assert "estimate[0 1]" in capsys.readouterr().out

    def test_inspect_reports_header(self, tmp_path, capsys):
        out = self._sketch_file(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "codec: subsample" in msg
        assert "wire version:" in msg
        assert "bits" in msg and "crc: ok" in msg

    def test_merge_shard_files(self, tmp_path, capsys):
        import numpy as np

        from repro.streaming import MisraGries, merge_misra_gries

        rng = np.random.default_rng(3)
        shards, paths = [], []
        for index in range(3):
            mg = MisraGries(60, 8)
            mg.update_many(rng.integers(0, 60, 400))
            shards.append(mg)
            path = tmp_path / f"shard{index}.bin"
            path.write_bytes(mg.to_bytes())
            paths.append(str(path))
        merged_path = tmp_path / "merged.bin"
        assert main(["merge", *paths, "--out", str(merged_path)]) == 0
        assert "merged from 3 shards" in capsys.readouterr().out
        from repro.streaming import StreamSummary

        merged = StreamSummary.from_bytes(merged_path.read_bytes())
        local = merge_misra_gries(merge_misra_gries(shards[0], shards[1]), shards[2])
        assert merged._counters == local._counters

    def test_merge_mismatched_shards_reports_cleanly(self, tmp_path, capsys):
        from repro.streaming import MisraGries

        sketch_file = self._sketch_file(tmp_path)
        capsys.readouterr()
        mg_file = tmp_path / "mg.bin"
        mg_file.write_bytes(MisraGries(60, 8).to_bytes())
        out = tmp_path / "m.bin"
        assert main(
            ["merge", str(mg_file), str(sketch_file), "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot merge shards" in err and "Traceback" not in err


class TestCorruptedFilesCli:
    """Corrupted/truncated sketch files: one-line error, nonzero exit."""

    @pytest.fixture
    def sketch_file(self, tmp_path, capsys):
        db = planted_database(
            400, 8, [(Itemset([0, 1]), 0.5)], background=0.02, rng=5
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def _one_line_error(self, capsys, needle):
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_query_corrupted_payload(self, sketch_file, tmp_path, capsys):
        buf = bytearray(sketch_file.read_bytes())
        buf[len(buf) // 2] ^= 0x40
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(bytes(buf))
        assert main(["query", str(bad), "0"]) == 1
        self._one_line_error(capsys, "cannot read sketch file")

    def test_query_truncated_file(self, sketch_file, tmp_path, capsys):
        for cut in (3, 20, len(sketch_file.read_bytes()) - 2):
            bad = tmp_path / "trunc.bin"
            bad.write_bytes(sketch_file.read_bytes()[:cut])
            assert main(["query", str(bad), "0"]) == 1
            self._one_line_error(capsys, "cannot read sketch file")

    def test_inspect_corrupted_payload_flags_crc(self, sketch_file, tmp_path, capsys):
        buf = bytearray(sketch_file.read_bytes())
        buf[-6] ^= 0x08  # payload byte: header still parses
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(bytes(buf))
        assert main(["inspect", str(bad)]) == 1
        assert "crc: MISMATCH" in capsys.readouterr().out

    def test_inspect_truncated_file(self, sketch_file, tmp_path, capsys):
        bad = tmp_path / "trunc.bin"
        bad.write_bytes(sketch_file.read_bytes()[:25])
        assert main(["inspect", str(bad)]) == 1
        self._one_line_error(capsys, "cannot inspect")

    def test_inspect_missing_and_non_frame(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing.bin")]) == 1
        self._one_line_error(capsys, "cannot inspect")
        not_frame = tmp_path / "not_frame.bin"
        not_frame.write_text("0 1 2\n")
        assert main(["inspect", str(not_frame)]) == 1
        self._one_line_error(capsys, "cannot inspect")

    @pytest.fixture
    def shard_bytes(self):
        import numpy as np

        from repro.streaming import MisraGries

        mg = MisraGries(60, 8)
        mg.update_many(np.random.default_rng(1).integers(0, 60, 200))
        return mg.to_bytes()

    def test_merge_truncated_shard(self, shard_bytes, tmp_path, capsys):
        good = tmp_path / "good.bin"
        good.write_bytes(shard_bytes)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(shard_bytes[:30])
        out = tmp_path / "m.bin"
        assert main(["merge", str(good), str(good), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["merge", str(good), str(bad), "--out", str(out)]) == 1
        self._one_line_error(capsys, "cannot merge shards")


class TestCorruptedV1FilesCli(TestCorruptedFilesCli):
    """The same damage done to committed, decode-only v1 files."""

    @pytest.fixture
    def sketch_file(self, tmp_path):
        out = tmp_path / "sketch.bin"
        out.write_bytes((FIXTURES / "v1" / "release-db.ifsk").read_bytes())
        return out

    @pytest.fixture
    def shard_bytes(self):
        return (FIXTURES / "v1" / "misra-gries.ifsk").read_bytes()


class TestOutputFileSafety:
    """Failed writes must not clobber an existing good sketch file."""

    def test_failed_sketch_preserves_existing_output(
        self, tmp_path, capsys, monkeypatch
    ):
        db = planted_database(
            300, 6, [(Itemset([0, 1]), 0.5)], background=0.05, rng=7
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        good = out.read_bytes()

        def torn_dump_to(obj, stream, *, compress=False):
            stream.write(wire.dump(obj)[:10])
            raise WireFormatError("encode failed mid-frame")

        # An encode that fails after writing part of a frame ...
        monkeypatch.setattr(wire, "dump_to", torn_dump_to)
        assert main(["sketch", str(baskets), "--out", str(out)]) == 1
        assert "cannot sketch" in capsys.readouterr().err
        # ... and the previously written sketch survives, byte for byte.
        assert out.read_bytes() == good
        assert not (tmp_path / "sketch.bin.tmp").exists()

    def test_query_rejects_trailing_garbage(self, tmp_path, capsys):
        db = planted_database(
            300, 6, [(Itemset([0, 1]), 0.5)], background=0.05, rng=8
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "sketch.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        padded = tmp_path / "padded.bin"
        padded.write_bytes(out.read_bytes() + b"GARBAGE")
        assert main(["query", str(padded), "0"]) == 1
        err = capsys.readouterr().err
        assert "trailing garbage" in err and "Traceback" not in err

    def test_merge_rejects_trailing_garbage_shard(self, tmp_path, capsys):
        import numpy as np

        from repro.streaming import MisraGries

        rng = np.random.default_rng(4)
        mg_a, mg_b = MisraGries(40, 6), MisraGries(40, 6)
        mg_a.update_many(rng.integers(0, 40, 200))
        mg_b.update_many(rng.integers(0, 40, 200))
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(mg_a.to_bytes())
        b.write_bytes(mg_b.to_bytes() + b"\x00\x01")
        out = tmp_path / "m.bin"
        assert main(["merge", str(a), str(b), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "trailing garbage" in err and str(b) in err
        assert not out.exists()


class TestServeCli:
    """The socket verbs: serve, push, and query --connect."""

    def test_serve_and_push_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--max-frame-bytes", "1024",
             "--load", "a.bin", "b.bin"]
        )
        assert (args.command, args.port, args.max_frame_bytes) == ("serve", 0, 1024)
        assert args.load == ["a.bin", "b.bin"]
        assert parser.parse_args(["serve"]).port is None
        args = parser.parse_args(
            ["push", "s.bin", "--connect", "h:1", "--name", "mg"]
        )
        assert (args.command, args.connect, args.name) == ("push", "h:1", "mg")
        args = parser.parse_args(["query", "s", "0", "1", "--connect", "h:1"])
        assert args.connect == "h:1"
        with pytest.raises(SystemExit):
            parser.parse_args(["push", "s.bin"])  # --connect is required

    def test_parse_connect(self):
        from repro.cli import _parse_connect
        from repro.errors import ProtocolError

        assert _parse_connect("127.0.0.1:7337") == ("127.0.0.1", 7337)
        assert _parse_connect("[::1]:80") == ("[::1]", 80)
        for bad in ("nohost", ":1", "h:", "h:abc", "h:0", "h:70000"):
            with pytest.raises(ProtocolError):
                _parse_connect(bad)

    @pytest.fixture
    def sketch_file(self, tmp_path, capsys):
        db = planted_database(
            300, 8, [(Itemset([0, 1]), 0.5)], background=0.05, rng=5
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "resident.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_push_and_socket_query_match_file_query(self, sketch_file, capsys):
        from repro.server import serve_in_thread

        assert main(["query", str(sketch_file), "0", "1"]) == 0
        file_out = capsys.readouterr().out
        with serve_in_thread() as handle:
            addr = f"{handle.host}:{handle.port}"
            assert main(["push", str(sketch_file), "--connect", addr]) == 0
            push_out = capsys.readouterr().out
            assert "new entry" in push_out and "resident" in push_out
            assert main(
                ["query", "resident", "0", "1", "--connect", addr]
            ) == 0
            socket_out = capsys.readouterr().out
            # Same answer through the socket as from the file: everything
            # after the size label (estimate and indicator) is identical.
            assert socket_out.split("bits): ")[1] == file_out.split("bits): ")[1]
            # Pushing the same name again must report the merge failure
            # (naive sketches are not mergeable) without touching state.
            assert main(["push", str(sketch_file), "--connect", addr]) == 1
            err = capsys.readouterr().err
            assert "cannot push" in err and "Traceback" not in err
            assert main(
                ["query", "resident", "0", "1", "--connect", addr]
            ) == 0
            assert capsys.readouterr().out == socket_out

    def test_socket_query_errors_are_one_line(self, sketch_file, capsys):
        from repro.server import serve_in_thread

        with serve_in_thread() as handle:
            addr = f"{handle.host}:{handle.port}"
            assert main(["query", "ghost", "0", "--connect", addr]) == 1
            err = capsys.readouterr().err
            assert "no sketch named" in err and "Traceback" not in err
        assert main(["query", "x", "0", "--connect", "not-an-address"]) == 1
        err = capsys.readouterr().err
        assert "HOST:PORT" in err and "Traceback" not in err
        # A dead endpoint is a one-line connection error, not a traceback.
        assert main(["query", "x", "0", "--connect", "127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert "cannot query" in err and "Traceback" not in err

    def test_push_missing_file_fails_cleanly(self, capsys):
        assert main(
            ["push", "/nonexistent/s.bin", "--connect", "127.0.0.1:1"]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot push" in err and "Traceback" not in err

    def test_serve_daemon_subprocess_roundtrip(self, sketch_file, capsys, tmp_path):
        """The real daemon: spawn `repro serve`, push, query, SIGTERM."""
        import os
        import signal
        import subprocess
        import sys as _sys
        import time
        from pathlib import Path

        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                _sys.executable, "-m", "repro", "serve", "--port", "0",
                "--load", str(sketch_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            addr = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.startswith("serving on "):
                    addr = line.split("serving on ", 1)[1].strip()
                    break
                assert line, "server exited before announcing its address"
            assert addr, "server never announced its address"
            # The preloaded sketch answers immediately, named by stem.
            assert main(["query", "resident", "0", "1", "--connect", addr]) == 0
            socket_out = capsys.readouterr().out
            assert main(["query", str(sketch_file), "0", "1"]) == 0
            file_out = capsys.readouterr().out
            assert socket_out.split("bits): ")[1] == file_out.split("bits): ")[1]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0


class TestStreamCli:
    """``repro stream``: bounded-memory ingestion from files and stdin."""

    def test_stream_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["stream", "-", "--summary", "count-min", "--universe", "64",
             "--format", "u64", "--max-batch-items", "128",
             "--queue-depth", "2", "--max-items", "1000",
             "--out", "s.bin"]
        )
        assert (args.command, args.source, args.summary) == ("stream", "-", "count-min")
        assert (args.format, args.max_batch_items, args.queue_depth) == ("u64", 128, 2)
        args = parser.parse_args(
            ["stream", "items.txt", "--universe", "8",
             "--connect", "h:1", "--name", "live"]
        )
        assert (args.connect, args.name) == ("h:1", "live")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "-", "--universe", "8",
                                       "--summary", "bogus", "--out", "s.bin"])

    def test_stream_text_file_to_frame_bit_identical(self, tmp_path, capsys):
        import numpy as np

        from repro.streaming import MisraGries
        from repro.wire import load_as

        rng = np.random.default_rng(3)
        items = rng.integers(0, 32, 5000)
        src = tmp_path / "items.txt"
        src.write_text(" ".join(map(str, items.tolist())))
        out = tmp_path / "mg.bin"
        assert main(
            ["stream", str(src), "--summary", "misra-gries", "--universe", "32",
             "--k", "7", "--max-batch-items", "512", "--out", str(out)]
        ) == 0
        msg = capsys.readouterr().out
        assert "5000 items" in msg and "items/sec" in msg
        # The pipeline folds each 512-item micro-batch once.
        reference = MisraGries(32, 7)
        for lo in range(0, items.size, 512):
            reference.update_many(items[lo : lo + 512])
        assert out.read_bytes() == reference.to_bytes()
        got = load_as(MisraGries, out.read_bytes())
        assert got.stream_length == 5000

    def test_stream_u64_file_matches_text_path(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(4)
        items = rng.integers(0, 16, 3000)
        text_src = tmp_path / "items.txt"
        text_src.write_text(" ".join(map(str, items.tolist())))
        u64_src = tmp_path / "items.u64"
        u64_src.write_bytes(items.astype("<u8").tobytes())
        common = ["--summary", "count-min", "--universe", "16",
                  "--width", "32", "--depth", "3", "--seed", "5"]
        text_out, u64_out = tmp_path / "t.bin", tmp_path / "b.bin"
        assert main(["stream", str(text_src), *common, "--out", str(text_out)]) == 0
        assert main(["stream", str(u64_src), "--format", "u64", *common,
                     "--out", str(u64_out)]) == 0
        capsys.readouterr()
        assert text_out.read_bytes() == u64_out.read_bytes()

    def test_stream_to_server_then_query(self, tmp_path, capsys):
        import numpy as np

        from repro.server import Client, serve_in_thread
        from repro.streaming import CountMinSketch

        rng = np.random.default_rng(6)
        items = rng.integers(0, 24, 4000)
        src = tmp_path / "items.txt"
        src.write_text(" ".join(map(str, items.tolist())))
        reference = CountMinSketch(24, 64, 4, rng=2)
        reference.update_many(items)
        with serve_in_thread() as handle:
            addr = f"{handle.host}:{handle.port}"
            assert main(
                ["stream", str(src), "--summary", "count-min", "--universe", "24",
                 "--width", "64", "--depth", "4", "--seed", "2",
                 "--max-batch-items", "512", "--connect", addr, "--name", "live"]
            ) == 0
            msg = capsys.readouterr().out
            assert "streamed 4000 items" in msg and "stream_length 4000" in msg
            with Client(handle.host, handle.port) as client:
                got = client.estimate("live", [Itemset([i]) for i in range(24)])
        expected = [reference.estimate_frequency(i) for i in range(24)]
        assert got == expected

    def test_stream_requires_exactly_one_sink(self, tmp_path, capsys):
        src = tmp_path / "items.txt"
        src.write_text("1 2 3")
        assert main(["stream", str(src), "--universe", "8"]) == 1
        assert "exactly one sink" in capsys.readouterr().err
        assert main(
            ["stream", str(src), "--universe", "8",
             "--out", str(tmp_path / "s.bin"), "--connect", "h:1"]
        ) == 1
        assert "exactly one sink" in capsys.readouterr().err

    def test_stream_bad_inputs_report_cleanly(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        assert main(
            ["stream", str(tmp_path / "missing.txt"), "--universe", "8",
             "--out", str(out)]
        ) == 1
        assert "cannot stream" in capsys.readouterr().err
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("1 2 three 4")
        assert main(
            ["stream", str(garbage), "--universe", "8", "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot stream" in err and len(err.strip().splitlines()) == 1
        # Out-of-universe items are a stream error, not a traceback.
        big = tmp_path / "big.txt"
        big.write_text("1 2 99")
        assert main(
            ["stream", str(big), "--universe", "8", "--out", str(out)]
        ) == 1
        assert "cannot stream" in capsys.readouterr().err

    def test_stream_stdin_text(self, tmp_path, capsys, monkeypatch):
        import io

        out = tmp_path / "s.bin"
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 2 1 2"))
        assert main(
            ["stream", "-", "--summary", "space-saving", "--universe", "8",
             "--k", "3", "--out", str(out)]
        ) == 0
        assert "6 items" in capsys.readouterr().out

        from repro.streaming import SpaceSaving
        from repro.wire import load_as

        got = load_as(SpaceSaving, out.read_bytes())
        assert got.stream_length == 6

    def test_query_streamed_frame_file_matches_socket(self, tmp_path, capsys):
        """File-path Q on a streamed summary == the socket answer."""
        import numpy as np

        from repro.server import serve_in_thread

        rng = np.random.default_rng(8)
        items = rng.integers(0, 12, 2000)
        src = tmp_path / "items.txt"
        src.write_text(" ".join(map(str, items.tolist())))
        out = tmp_path / "cms.bin"
        common = ["--summary", "count-min", "--universe", "12",
                  "--width", "32", "--depth", "3", "--seed", "4"]
        assert main(["stream", str(src), *common, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", str(out), "3"]) == 0
        file_out = capsys.readouterr().out
        assert "estimate[3]" in file_out and "indicate = n/a" in file_out
        with serve_in_thread() as handle:
            addr = f"{handle.host}:{handle.port}"
            assert main(["stream", str(src), *common,
                         "--connect", addr, "--name", "cms"]) == 0
            capsys.readouterr()
            assert main(["query", "cms", "3", "--connect", addr]) == 0
        sock_out = capsys.readouterr().out
        assert file_out.split("bits): ")[1] == sock_out.split("bits): ")[1]
        # Multi-item queries against a summary explain themselves.
        assert main(["query", str(out), "3", "4"]) == 1
        assert "1-itemsets only" in capsys.readouterr().err


class TestDurabilityCli:
    """``--data-dir`` serving, ``repro compact``, and retry flags."""

    @pytest.fixture
    def sketch_file(self, tmp_path, capsys):
        db = planted_database(
            300, 8, [(Itemset([0, 1]), 0.5)], background=0.05, rng=5
        )
        baskets = tmp_path / "baskets.txt"
        write_transactions(db, baskets)
        out = tmp_path / "resident.bin"
        assert main(["sketch", str(baskets), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_durability_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--data-dir", "/tmp/d", "--max-connections", "4",
             "--idle-timeout", "30"]
        )
        assert (args.data_dir, args.max_connections, args.idle_timeout) == (
            "/tmp/d", 4, 30.0
        )
        args = build_parser().parse_args(["compact", "/tmp/d", "--seed", "7"])
        assert (args.command, args.data_dir, args.seed) == ("compact", "/tmp/d", 7)
        for command in (
            ["query", "s.bin", "0", "--connect", "h:1"],
            ["push", "s.bin", "--connect", "h:1"],
            ["stream", "-", "--universe", "8", "--connect", "h:1"],
        ):
            args = build_parser().parse_args(
                [*command, "--retries", "2", "--deadline", "5"]
            )
            assert (args.retries, args.deadline) == (2, 5.0)

    def _data_dir_with_ops(self, tmp_path):
        import numpy as np

        from repro.server import SketchRegistry
        from repro.server.persistence import PersistentStore
        from repro.streaming import MisraGries

        mg = MisraGries(32, 5)
        mg.update_many(np.arange(200, dtype=np.int64) % 32)
        data_dir = tmp_path / "data"
        store = PersistentStore(data_dir)
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(mg))
        registry.ingest("mg", np.arange(64, dtype=np.int64) % 32)
        store.close()
        return data_dir

    def test_compact_folds_wal_into_snapshot(self, tmp_path, capsys):
        data_dir = self._data_dir_with_ops(tmp_path)
        assert main(["compact", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "2 WAL ops" in out
        # The log is now empty and the snapshot carries the entry.
        from repro.server.persistence import WriteAheadLog, read_snapshot

        assert WriteAheadLog(data_dir / "wal.log").scan().records == ()
        entries, last_seq = read_snapshot(data_dir / "snapshot.bin")
        assert [name for name, _ in entries] == ["mg"]
        assert last_seq == 2
        # Idempotent: compacting an already-compact dir is a no-op.
        assert main(["compact", str(data_dir)]) == 0

    def test_compact_refuses_corruption_cleanly(self, tmp_path, capsys):
        data_dir = self._data_dir_with_ops(tmp_path)
        path = data_dir / "wal.log"
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["compact", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert "cannot compact" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_refuses_corrupt_data_dir_cleanly(self, tmp_path, capsys):
        data_dir = self._data_dir_with_ops(tmp_path)
        path = data_dir / "wal.log"
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        # Recovery fails before any socket binds, so this returns fast.
        assert main(["serve", "--port", "0", "--data-dir", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert "cannot start server" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_refuses_non_container_snapshot_cleanly(self, tmp_path, capsys):
        data_dir = self._data_dir_with_ops(tmp_path)
        # The pre-container snapshot layout: magic, version, last_seq, count.
        (data_dir / "snapshot.bin").write_bytes(b"IFSN\x01\x00\x00")
        assert main(["serve", "--port", "0", "--data-dir", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert "not a wire-v3 container" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_push_with_retries_through_clean_server(self, sketch_file, capsys):
        from repro.server import serve_in_thread

        with serve_in_thread() as handle:
            addr = f"{handle.host}:{handle.port}"
            assert main(
                ["push", str(sketch_file), "--connect", addr,
                 "--retries", "2", "--deadline", "10"]
            ) == 0
            assert "new entry" in capsys.readouterr().out

    def test_push_retries_recover_from_transient_cut(self, tmp_path, capsys):
        import numpy as np

        from repro.server import serve_in_thread
        from repro.streaming import MisraGries
        from repro.testing import FaultyProxy
        from repro.testing.faults import FaultPlan

        # A summary with a merge rule: if the cut lands *after* the
        # server applied the LOAD, the retried LOAD folds into it
        # instead of failing -- the duplicate-apply hazard --retries on
        # mutating verbs explicitly signs up for.
        mg = MisraGries(32, 5)
        mg.update_many(np.arange(300, dtype=np.int64) % 32)
        frame_file = tmp_path / "mg.bin"
        frame_file.write_bytes(wire.dump(mg))

        with serve_in_thread() as handle:
            plan = FaultPlan(seed=4, s2c_budget=2)
            with FaultyProxy(handle.host, handle.port, plan=plan) as proxy:
                addr = f"{proxy.host}:{proxy.port}"
                # --retries on push opts its mutating LOAD into retry.
                assert main(
                    ["push", str(frame_file), "--connect", addr, "--retries", "3"]
                ) == 0
                assert proxy.faults == 1
            assert "resident" in capsys.readouterr().out


class TestContainerCli:
    """`repro pack` / container-aware `inspect` and `merge`."""

    @pytest.fixture()
    def shard_files(self, tmp_path):
        import numpy as np

        from repro.streaming import MisraGries

        paths = []
        for index in range(3):
            mg = MisraGries(60, 8)
            mg.update_many(
                np.random.default_rng(index).integers(0, 60, 400)
            )
            path = tmp_path / f"shard{index}.bin"
            path.write_bytes(mg.to_bytes())
            paths.append(str(path))
        return paths

    def test_pack_then_inspect(self, shard_files, tmp_path, capsys):
        out_path = tmp_path / "fleet.bin"
        assert main(["pack", *shard_files, "--out", str(out_path)]) == 0
        packed = capsys.readouterr().out
        assert "container of 3 shards" in packed
        assert main(["inspect", str(out_path)]) == 0
        inspected = capsys.readouterr().out
        assert "shards: 3" in inspected
        assert "wire version: 3" in inspected
        assert "crc: ok" in inspected
        for index in range(3):
            assert f"shard{index}: misra-gries" in inspected

    def test_pack_repacks_containers(self, shard_files, tmp_path, capsys):
        first = tmp_path / "fleet.bin"
        assert main(["pack", *shard_files, "--out", str(first)]) == 0
        second = tmp_path / "refleet.bin"
        assert main(["pack", str(first), "--out", str(second)]) == 0
        assert "container of 3 shards" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    def test_merge_container_counts_and_matches_files(
        self, shard_files, tmp_path, capsys
    ):
        fleet = tmp_path / "fleet.bin"
        assert main(["pack", *shard_files, "--out", str(fleet)]) == 0
        capsys.readouterr()
        from_files = tmp_path / "from_files.bin"
        assert main(["merge", *shard_files, "--out", str(from_files)]) == 0
        assert "merged from 3 shards" in capsys.readouterr().out
        from_fleet = tmp_path / "from_fleet.bin"
        assert main(["merge", str(fleet), "--out", str(from_fleet)]) == 0
        # The count reflects contributed shards, not input paths, and
        # the fold itself is bit-identical either way.
        assert "merged from 3 shards" in capsys.readouterr().out
        assert from_fleet.read_bytes() == from_files.read_bytes()

    def test_pack_v1_files_like_their_v2_twins(self, tmp_path, capsys):
        """Decode-only v1 shard files pack into the same container bytes
        as the committed plain v2 frames of the same objects."""
        names = sorted(p.name for p in (FIXTURES / "v1").glob("*.ifsk"))
        assert len(names) == 12
        packed = []
        for layout in ("v1", "v2"):
            paths = [str(FIXTURES / layout / name) for name in names]
            out = tmp_path / f"{layout}.bin"
            assert main(["pack", *paths, "--out", str(out)]) == 0
            packed.append(out.read_bytes())
        assert "container of 12 shards" in capsys.readouterr().out
        assert packed[0] == packed[1]
