"""Golden fixture compatibility: committed v1 and v2 frames decode forever.

``tests/fixtures/v1/`` holds one frozen wire-v1 frame per codec and
``tests/fixtures/v2/`` three frozen v2 frames per codec -- plain, zlib,
and chunked+zlib layouts (see ``tests/fixtures/generate_v2_fixtures.py``).
These tests are the compatibility contract for every frame ever written
by a v1 or v2 build:

* the committed bytes decode through the *current* code path (``load``
  auto-dispatches by version byte);
* ``dump`` -- the one single-frame writer -- regenerates the plain and
  zlib v2 frames from their seeds byte for byte;
* the decode-only layouts (v1, chunked v2) carry the same object as the
  plain v2 frame: decoding one and re-``dump``ing it reproduces the
  committed plain v2 frame exactly.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro import wire

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "v1"
MANIFEST = json.loads((FIXTURE_DIR / "manifest.json").read_text())

V2_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "v2"
V2_MANIFEST = json.loads((V2_FIXTURE_DIR / "manifest.json").read_text())


@pytest.fixture(scope="module")
def generator():
    path = FIXTURE_DIR.parent / "generate_v2_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_v2_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plain_v2(codec: str) -> bytes:
    return (V2_FIXTURE_DIR / V2_MANIFEST[codec]["file"]).read_bytes()


class TestGoldenV1Frames:
    def test_one_fixture_per_codec(self, generator):
        """One v1 frame per codec registered when the v1 writer went."""
        assert set(MANIFEST) == generator.DECODE_ONLY_CODECS
        assert generator.DECODE_ONLY_CODECS <= set(wire.codec_names())

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_committed_bytes_match_manifest(self, codec):
        frame = (FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes()
        assert len(frame) == MANIFEST[codec]["bytes"]
        assert hashlib.sha256(frame).hexdigest() == MANIFEST[codec]["sha256"]
        assert frame[:4] == wire.MAGIC and frame[4] == wire.WIRE_V1

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_decodes_and_reencodes_bit_identically(self, codec):
        """load() dispatches by version; re-dumping gives the plain v2 frame."""
        committed = (FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes()
        frame = wire.decode_frame(committed)
        assert frame.version == wire.WIRE_V1 and frame.codec == codec
        obj = wire.load(committed)
        assert obj.size_in_bits() == frame.n_bits
        assert wire.dump(obj) == _plain_v2(codec)

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    @pytest.mark.parametrize("compress", [False, True])
    def test_v2_path_carries_the_same_object(self, codec, compress):
        """v1 -> obj -> v2 -> obj re-dumps to the committed plain v2 frame."""
        committed = (FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes()
        obj = wire.load(committed)
        v2 = wire.dump(obj, compress=compress)
        assert v2[4] == wire.WIRE_V2
        clone = wire.load(v2)
        assert type(clone) is type(obj)
        assert clone.size_in_bits() == obj.size_in_bits()
        assert wire.dump(clone) == _plain_v2(codec)

    def test_regeneration_matches_committed(self, generator):
        """The fixed seeds still build the objects the v1 frames carry."""
        for codec, obj in generator.build_fixture_objects().items():
            committed = (FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes()
            assert wire.dump(obj) == wire.dump(wire.load(committed)), (
                f"{codec} fixture drifted"
            )

    def test_check_mode_passes(self, generator):
        assert generator.v1_drift() == []


class TestGoldenV2Frames:
    def test_three_fixtures_per_codec(self, generator):
        """Plain and zlib frames for every codec; chunked frames for the
        codecs registered when the chunked writer went."""
        plain = {name for name in V2_MANIFEST if "+" not in name}
        assert plain == set(wire.codec_names())
        chunked = {f"{n}+chunked" for n in generator.DECODE_ONLY_CODECS}
        assert set(V2_MANIFEST) == plain | {f"{n}+zlib" for n in plain} | chunked

    @pytest.mark.parametrize("name", sorted(V2_MANIFEST))
    def test_committed_bytes_match_manifest(self, name):
        frame = (V2_FIXTURE_DIR / V2_MANIFEST[name]["file"]).read_bytes()
        assert len(frame) == V2_MANIFEST[name]["bytes"]
        assert hashlib.sha256(frame).hexdigest() == V2_MANIFEST[name]["sha256"]
        assert frame[:4] == wire.MAGIC and frame[4] == wire.WIRE_V2

    @pytest.mark.parametrize("name", sorted(V2_MANIFEST))
    def test_decodes_and_reencodes_bit_identically(self, name):
        """load() dispatches by version; every layout re-dumps to the plain frame."""
        committed = (V2_FIXTURE_DIR / V2_MANIFEST[name]["file"]).read_bytes()
        codec = name.split("+")[0]
        frame = wire.decode_frame(committed)
        assert frame.version == wire.WIRE_V2 and frame.codec == codec
        assert frame.chunked is name.endswith("+chunked")
        obj = wire.load(committed)
        assert obj.size_in_bits() == frame.n_bits
        assert wire.dump(obj) == _plain_v2(codec)

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_v1_path_carries_the_same_object(self, codec):
        """The v2 and v1 fixtures of a codec decode to the same object."""
        v2_obj = wire.load(_plain_v2(codec))
        v1_obj = wire.load((FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes())
        assert type(v1_obj) is type(v2_obj)
        assert wire.dump(v1_obj) == wire.dump(v2_obj)

    def test_regeneration_matches_committed(self, generator):
        for name, frame in generator.build_fixture_frames().items():
            committed = (V2_FIXTURE_DIR / V2_MANIFEST[name]["file"]).read_bytes()
            assert frame == committed, f"{name} fixture drifted"

    def test_check_mode_passes(self, generator):
        assert generator.check_fixtures() == 0
