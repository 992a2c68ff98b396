"""Tests for repro.db.serialize: bit streams and frequency quantization."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.serialize import (
    BitReader,
    BitWriter,
    dequantize_frequency,
    encode_svarint,
    encode_uvarint,
    frequency_bits,
    quantize_frequency,
    read_svarint,
    read_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import SketchSizeError


class TestFrequencyBits:
    def test_monotone_in_precision(self):
        assert frequency_bits(0.5) <= frequency_bits(0.1) <= frequency_bits(0.01)

    def test_matches_log(self):
        assert frequency_bits(0.25) == 3  # ceil(log2 4) + 1

    def test_bad_epsilon(self):
        with pytest.raises(SketchSizeError):
            frequency_bits(0.0)
        with pytest.raises(SketchSizeError):
            frequency_bits(1.0)


class TestQuantization:
    def test_error_at_most_half_eps(self):
        eps = 0.1
        for value in np.linspace(0, 1, 97):
            code = quantize_frequency(value, eps)
            assert abs(dequantize_frequency(code, eps) - value) <= eps / 2 + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(SketchSizeError):
            quantize_frequency(1.5, 0.1)

    @given(st.floats(0, 1), st.sampled_from([0.5, 0.25, 0.1, 0.03, 0.01]))
    def test_property_quantization_error(self, value, eps):
        code = quantize_frequency(value, eps)
        assert abs(dequantize_frequency(code, eps) - value) <= eps / 2 + 1e-9
        # And the code always fits the advertised bit budget.
        assert code < 2 ** frequency_bits(eps)


class TestBitStream:
    def test_mixed_roundtrip(self):
        writer = BitWriter()
        writer.write_bit(True)
        writer.write_uint(300, 10)
        writer.write_bits(np.array([1, 0, 1], dtype=bool))
        writer.write_quantized(0.37, 0.05)
        payload, n_bits = writer.getvalue(), writer.n_bits

        reader = BitReader(payload, n_bits)
        assert reader.read_bit() is True
        assert reader.read_uint(10) == 300
        assert reader.read_bits(3).tolist() == [True, False, True]
        assert reader.read_quantized(0.05) == pytest.approx(0.35, abs=0.026)
        assert reader.remaining == 0

    def test_n_bits_counts_everything(self):
        writer = BitWriter()
        writer.write_uint(7, 5)
        writer.write_bit(False)
        assert writer.n_bits == len(writer) == 6

    def test_empty_payload(self):
        writer = BitWriter()
        assert writer.getvalue() == b""
        assert writer.n_bits == 0

    def test_overread_raises(self):
        writer = BitWriter()
        writer.write_bit(True)
        reader = BitReader(writer.getvalue(), 1)
        reader.read_bit()
        with pytest.raises(SketchSizeError):
            reader.read_bit()

    @given(st.lists(st.integers(0, 1023), max_size=40))
    def test_property_uint_stream_roundtrip(self, values):
        writer = BitWriter()
        for v in values:
            writer.write_uint(v, 10)
        reader = BitReader(writer.getvalue(), writer.n_bits)
        assert [reader.read_uint(10) for _ in values] == values

    @given(st.lists(st.integers(0, 2**40 - 1), max_size=30))
    def test_property_batched_uints_match_itemwise(self, values):
        batched = BitWriter()
        batched.write_uints(values, 41)
        itemwise = BitWriter()
        for v in values:
            itemwise.write_uint(v, 41)
        assert batched.getvalue() == itemwise.getvalue()
        assert batched.n_bits == itemwise.n_bits == 41 * len(values)
        reader = BitReader(batched.getvalue(), batched.n_bits)
        assert reader.read_uints(len(values), 41).tolist() == values

    @given(
        st.lists(st.floats(0, 1), max_size=30),
        st.sampled_from([0.25, 0.1, 0.03]),
    )
    def test_property_batched_quantized_match_itemwise(self, values, eps):
        batched = BitWriter()
        batched.write_quantized_batch(values, eps)
        itemwise = BitWriter()
        for v in values:
            itemwise.write_quantized(v, eps)
        assert batched.getvalue() == itemwise.getvalue()
        reader = BitReader(batched.getvalue(), batched.n_bits)
        decoded = reader.read_quantized_batch(len(values), eps)
        for value, got in zip(values, decoded):
            assert abs(got - value) <= eps / 2 + 1e-9

    def test_batched_uint_overflow_rejected(self):
        with pytest.raises(SketchSizeError):
            BitWriter().write_uints([8], 3)

    def test_write_bits_copies_its_input(self):
        # Callers may reuse scratch buffers: mutation after a write must
        # not reach the payload.
        writer = BitWriter()
        scratch = np.ones(8, dtype=bool)
        writer.write_bits(scratch)
        scratch[:] = False
        assert writer.getvalue() == b"\xff"


class TestReaderHardening:
    """The strict reader contract the wire format relies on."""

    def test_rejects_short_buffer(self):
        with pytest.raises(SketchSizeError):
            BitReader(b"\x00", 9)

    def test_rejects_oversized_buffer(self):
        # A buffer longer than ceil(n_bits / 8) smuggles uncounted bits.
        with pytest.raises(SketchSizeError):
            BitReader(b"\x00\x00", 8)

    def test_rejects_nonzero_padding(self):
        # 3 declared bits leave 5 padding bits that must be zero.
        with pytest.raises(SketchSizeError):
            BitReader(b"\xff", 3)
        # The same leading bits with clean padding are accepted.
        assert BitReader(b"\xe0", 3).read_bits(3).all()

    def test_rejects_negative_n_bits(self):
        with pytest.raises(SketchSizeError):
            BitReader(b"", -1)

    def test_empty_is_fine(self):
        assert BitReader(b"", 0).remaining == 0


class TestVarints:
    """LEB128 + zigzag primitives: the v2 frame header's integers."""

    def test_known_encodings(self):
        assert encode_uvarint(0) == b"\x00"
        assert encode_uvarint(127) == b"\x7f"
        assert encode_uvarint(128) == b"\x80\x01"
        assert encode_uvarint(300) == b"\xac\x02"
        assert encode_svarint(0) == b"\x00"
        assert encode_svarint(-1) == b"\x01"
        assert encode_svarint(1) == b"\x02"
        assert encode_svarint(-2) == b"\x03"

    def test_rejects_negative_uvarint(self):
        with pytest.raises(SketchSizeError):
            encode_uvarint(-1)

    @given(st.integers(0, 2**64 - 1))
    def test_property_uvarint_round_trip(self, value):
        assert read_uvarint(io.BytesIO(encode_uvarint(value))) == value

    @given(st.integers(-(2**63), 2**63 - 1))
    def test_property_svarint_round_trip(self, value):
        assert read_svarint(io.BytesIO(encode_svarint(value))) == value
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_truncated_varint(self):
        with pytest.raises(SketchSizeError, match="truncated"):
            read_uvarint(io.BytesIO(b"\x80"))

    def test_non_canonical_rejected(self):
        # 0 padded to two groups decodes to 0 but is not canonical.
        with pytest.raises(SketchSizeError, match="non-canonical"):
            read_uvarint(io.BytesIO(b"\x80\x00"))

    def test_oversized_rejected(self):
        with pytest.raises(SketchSizeError, match="exceeds"):
            read_uvarint(io.BytesIO(b"\xff" * 11))

    def test_reads_stop_at_value_boundary(self):
        stream = io.BytesIO(encode_uvarint(300) + b"\x05tail")
        assert read_uvarint(stream) == 300
        assert stream.read(1) == b"\x05"


class TestWindowedReader:
    """BitReader.windowed: sequential reads over a chunk iterator."""

    def _payload(self, n_bits=4000, seed=1):
        rng = np.random.default_rng(seed)
        writer = BitWriter()
        writer.write_bits(rng.random(n_bits) < 0.4)
        return writer.getvalue(), n_bits

    def _chunks(self, buf, size):
        return (buf[i : i + size] for i in range(0, len(buf), size))

    def test_matches_eager_reader(self):
        buf, n_bits = self._payload()
        eager = BitReader(buf, n_bits)
        lazy = BitReader.windowed(self._chunks(buf, 17), n_bits)
        np.testing.assert_array_equal(
            eager.read_bits(n_bits), lazy.read_bits(n_bits)
        )
        assert lazy.remaining == 0

    def test_mixed_field_reads_match(self):
        writer = BitWriter()
        writer.write_uint(301, 10)
        writer.write_bits(np.array([1, 0, 1], dtype=bool))
        writer.write_uints(np.arange(50, dtype=np.uint64), 13)
        writer.write_quantized(0.37, 0.05)
        buf, n_bits = writer.getvalue(), writer.n_bits
        lazy = BitReader.windowed(self._chunks(buf, 5), n_bits)
        assert lazy.read_uint(10) == 301
        np.testing.assert_array_equal(
            lazy.read_bits(3), np.array([1, 0, 1], dtype=bool)
        )
        np.testing.assert_array_equal(
            lazy.read_uints(50, 13), np.arange(50, dtype=np.uint64)
        )
        expected = dequantize_frequency(quantize_frequency(0.37, 0.05), 0.05)
        assert lazy.read_quantized(0.05) == expected

    def test_buffered_bits_stay_windowed(self):
        buf, n_bits = self._payload()
        window = 32  # bytes
        lazy = BitReader.windowed(self._chunks(buf, window), n_bits)
        while lazy.remaining:
            lazy.read_bits(min(64, lazy.remaining))
            assert lazy.buffered_bits <= 8 * window

    def test_short_source_raises(self):
        buf, n_bits = self._payload()
        lazy = BitReader.windowed(self._chunks(buf[:-10], 16), n_bits)
        with pytest.raises(SketchSizeError, match="disagrees"):
            lazy.read_bits(n_bits)

    def test_oversized_source_raises(self):
        buf, n_bits = self._payload()
        lazy = BitReader.windowed(self._chunks(buf + b"\x00", 16), n_bits)
        with pytest.raises(SketchSizeError):
            lazy.read_bits(n_bits)

    def test_overread_raises(self):
        buf, n_bits = self._payload(n_bits=64)
        lazy = BitReader.windowed(self._chunks(buf, 4), n_bits)
        lazy.read_bits(64)
        with pytest.raises(SketchSizeError, match="exhausted"):
            lazy.read_bit()

    def test_nonzero_padding_rejected_lazily(self):
        lazy = BitReader.windowed(iter([b"\xff"]), 3)
        with pytest.raises(SketchSizeError, match="padding"):
            lazy.read_bits(3)

    def test_final_window_exhausts_source(self):
        """Pulling the last chunk also drives the producer to its end."""
        buf, n_bits = self._payload(n_bits=128)
        finalized = []

        def producer():
            yield from self._chunks(buf, 4)
            finalized.append(True)

        lazy = BitReader.windowed(producer(), n_bits)
        lazy.read_bits(n_bits)
        assert finalized == [True]

    def test_empty_payload(self):
        lazy = BitReader.windowed(iter([]), 0)
        assert lazy.remaining == 0
        with pytest.raises(SketchSizeError):
            lazy.read_bit()
