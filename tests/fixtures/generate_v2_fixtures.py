"""Golden wire-format fixtures: frozen frames for every codec and layout.

Every frame an earlier build wrote (files, WAL records, snapshots) must
decode bit-identically forever, and the one single-frame writer,
``wire.dump``, must keep emitting the same bytes for the same object.
This script pins both promises to bytes on disk.  It builds one
deterministic summary per registered codec (fixed seeds, fixed
parameters) and covers four layouts per codec:

* ``v2/<codec>.ifsk``    -- plain v2 frame (``dump(obj)``);
* ``v2/<codec>.z.ifsk``  -- zlib payload (``dump(obj, compress=True)``);
* ``v2/<codec>.c.ifsk``  -- chunked + zlib stream layout (64-byte
  chunks), decode-only;
* ``v1/<codec>.ifsk``    -- the original v1 container, decode-only.

The plain and ``.z`` frames are regenerated from the seeds and must match
the committed bytes exactly.  Nothing writes the decode-only layouts any
more, so each of those frames is decoded and re-``dump``ed instead: the
result must equal the codec's committed plain v2 frame byte for byte.

Run it from the repo root:

* ``python tests/fixtures/generate_v2_fixtures.py`` -- (re)write the
  plain and ``.z`` frames; only ever needed when *adding* a codec, never
  for existing ones.  Decode-only frames and their manifest entries are
  left as they are.
* ``python tests/fixtures/generate_v2_fixtures.py --check`` -- the CI
  drift gate: rebuild everything in memory and fail (exit 1) if any byte
  differs.  A failure means ``dump``, a codec's canonical payload, or a
  decoder changed -- a compatibility break, not a fixture refresh.

``tests/test_wire_fixtures.py`` runs the same checks frame by frame.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

FIXTURE_DIR = Path(__file__).resolve().parent / "v2"
MANIFEST = FIXTURE_DIR / "manifest.json"
V1_FIXTURE_DIR = Path(__file__).resolve().parent / "v1"
V1_MANIFEST = V1_FIXTURE_DIR / "manifest.json"

#: The codecs registered when the v1 and chunked v2 writers were removed.
#: Exactly these have decode-only frames; a codec added later has none.
DECODE_ONLY_CODECS = frozenset({
    "count-min", "importance-sample", "itemset-miner", "lossy-counting",
    "misra-gries", "release-answers", "release-db", "reservoir",
    "row-reservoir", "space-saving", "sticky-sampling", "subsample",
})


def build_fixture_objects() -> dict[str, object]:
    """One deterministic summary per codec, keyed by codec name.

    Everything is seeded: the database, every sketcher draw, every
    stream, every summary's internal rng.  Parameters are chosen so the
    frames stay small (a few hundred bytes) but exercise non-trivial
    state (tracked counters, partial reservoirs, quantized answers).
    """
    from repro.core import (
        ImportanceSampleSketcher,
        ReleaseAnswersSketcher,
        ReleaseDbSketcher,
        SubsampleSketcher,
        Task,
    )
    from repro.db import random_database
    from repro.params import SketchParams
    from repro.streaming import (
        CountMinSketch,
        LossyCounting,
        MisraGries,
        ReservoirSample,
        RowReservoir,
        SpaceSaving,
        StickySampling,
        StreamingItemsetMiner,
    )

    db = random_database(48, 10, 0.35, rng=1234)
    params = SketchParams(n=48, d=10, k=2, epsilon=0.125, delta=0.1)
    stream = np.random.default_rng(99).integers(0, 60, size=400, dtype=np.int64)

    objects: dict[str, object] = {
        "release-db": ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(
            db, params, rng=1
        ),
        "release-answers": ReleaseAnswersSketcher(Task.FORALL_INDICATOR).sketch(
            db, params, rng=2
        ),
        "subsample": SubsampleSketcher(Task.FORALL_ESTIMATOR, sample_count=16).sketch(
            db, params, rng=3
        ),
        "importance-sample": ImportanceSampleSketcher(
            Task.FORALL_ESTIMATOR, sample_count=16
        ).sketch(db, params, rng=4),
    }

    cms = CountMinSketch(60, 16, 3, rng=5)
    cms.update_many(stream)
    objects["count-min"] = cms

    # Misra-Gries, Space-Saving and the reservoir fold a whole batch per
    # update_many call; these three fixtures pin the classic itemwise
    # algorithms, so they are built one update() at a time.
    mg = MisraGries(60, 6)
    for item in stream.tolist():
        mg.update(item)
    objects["misra-gries"] = mg

    ss = SpaceSaving(60, 6)
    for item in stream.tolist():
        ss.update(item)
    objects["space-saving"] = ss

    lc = LossyCounting(60, 0.05)
    lc.update_many(stream)
    objects["lossy-counting"] = lc

    st = StickySampling(60, 0.05, 0.125, rng=6)
    st.update_many(stream)
    objects["sticky-sampling"] = st

    rs = ReservoirSample(60, 10, rng=7)
    for item in stream.tolist():
        rs.update(item)
    objects["reservoir"] = rs

    rr = RowReservoir(10, 12, rng=8)
    rr.extend(db)
    objects["row-reservoir"] = rr

    miner = StreamingItemsetMiner(10, 0.05, 2)
    miner.extend(db)
    objects["itemset-miner"] = miner

    return objects


def build_fixture_frames() -> dict[str, bytes]:
    """The regenerated golden byte strings: plain and zlib per codec."""
    from repro import wire

    frames: dict[str, bytes] = {}
    objects = build_fixture_objects()
    for name, obj in objects.items():
        frames[name] = wire.dump(obj)
        frames[f"{name}+zlib"] = wire.dump(obj, compress=True)
    missing = set(wire.codec_names()) - set(objects)
    if missing:
        raise AssertionError(f"no fixture built for codecs: {sorted(missing)}")
    return frames


def _redump_drift(name: str, frame: bytes, plain: bytes | None) -> list[str]:
    """A decode-only frame must re-``dump`` to its codec's plain v2 frame."""
    from repro import wire
    from repro.errors import WireFormatError

    try:
        again = wire.dump(wire.load(frame))
    except WireFormatError as exc:
        return [f"{name}: no longer decodes ({exc})"]
    if again != plain:
        return [f"{name}: decodes to a different object than the plain v2 frame"]
    return []


def _fixture_file(name: str) -> str:
    return name.replace("+zlib", ".z") + ".ifsk"


def write_fixtures() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name, frame in sorted(build_fixture_frames().items()):
        path = FIXTURE_DIR / _fixture_file(name)
        path.write_bytes(frame)
        manifest[name] = {
            "file": path.name,
            "bytes": len(frame),
            "sha256": hashlib.sha256(frame).hexdigest(),
        }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} manifest entries to {FIXTURE_DIR}")


def _committed(
    directory: Path, manifest: dict, failures: list[str]
) -> dict[str, bytes]:
    """Committed frames by manifest name, checked against their hashes."""
    frames = {}
    for name, entry in sorted(manifest.items()):
        frames[name] = (directory / entry["file"]).read_bytes()
        if hashlib.sha256(frames[name]).hexdigest() != entry["sha256"]:
            failures.append(f"{name}: committed file disagrees with manifest hash")
    return frames


def v2_drift() -> list[str]:
    """Regenerate the plain and ``.z`` frames; re-dump the ``.c`` frames.

    Every codec has a plain and a ``.z`` frame; only the
    :data:`DECODE_ONLY_CODECS` have a ``.c`` frame.
    """
    failures: list[str] = []
    committed = _committed(FIXTURE_DIR, json.loads(MANIFEST.read_text()), failures)
    built = build_fixture_frames()
    chunked = {f"{codec}+chunked" for codec in DECODE_ONLY_CODECS}
    if set(committed) != set(built) | chunked:
        failures.append(
            f"fixture set drifted: manifest {sorted(committed)} vs "
            f"expected {sorted(set(built) | chunked)}"
        )
    for name, frame in sorted(built.items()):
        if name in committed and frame != committed[name]:
            failures.append(
                f"{name}: regenerated frame differs from committed bytes "
                f"({len(frame)} vs {len(committed[name])} bytes) -- "
                "dump or a canonical payload changed"
            )
    for name in sorted(chunked & set(committed)):
        plain = committed.get(name.split("+")[0])
        failures += _redump_drift(name, committed[name], plain)
    return failures


def v1_drift() -> list[str]:
    """Re-dump every v1 frame: each must equal its codec's plain v2 frame.

    Exactly the :data:`DECODE_ONLY_CODECS` have a v1 frame.
    """
    failures: list[str] = []
    committed = _committed(
        V1_FIXTURE_DIR, json.loads(V1_MANIFEST.read_text()), failures
    )
    manifest = json.loads(MANIFEST.read_text())
    if set(committed) != DECODE_ONLY_CODECS:
        failures.append(f"v1 codec set drifted: manifest {sorted(committed)}")
    for codec, frame in sorted(committed.items()):
        plain = None
        if codec in manifest:
            plain = (FIXTURE_DIR / manifest[codec]["file"]).read_bytes()
        failures += _redump_drift(f"v1 {codec}", frame, plain)
    return failures


def check_fixtures() -> int:
    """Exit nonzero if any committed fixture drifted."""
    for manifest in (MANIFEST, V1_MANIFEST):
        if not manifest.exists():
            print(f"missing manifest {manifest}")
            return 1
    failures = v2_drift() + v1_drift()
    for failure in failures:
        print(f"FIXTURE DRIFT: {failure}")
    if not failures:
        print("v1 and v2 fixtures match (no drift)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify committed fixtures instead of writing them",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_fixtures()
    write_fixtures()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
