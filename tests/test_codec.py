import hashlib
import itertools

import numpy as np
import pytest

from octpcc.coder import (BITSTREAM_VERSION, HEADER_BYTES, MAX_BITS_PAST_END,
                          ArithmeticDecoder, ArithmeticEncoder, Bitstream,
                          BitstreamHeader, FREQ_TOTAL, quantize_dist)
from octpcc.errors import CorruptStream, InvalidInput, ParseError

from conftest import payload_past_the_table, v1_layout_stream


def random_dist(rng, concentration=1.0):
    q = rng.dirichlet(np.full(255, concentration))
    return q / q.sum()


def quantize_row_reference(q) -> np.ndarray:
    """The rule for one row in Python integers: 1 + the scaled entry rounded
    half to even, then the deficit to the first of the likeliest classes."""
    q = [float(x) for x in q]
    freq = [1 + round(x * (FREQ_TOTAL - 255)) for x in q]
    deficit = FREQ_TOTAL - sum(freq)
    assert abs(deficit) <= 127
    freq[q.index(max(q))] += deficit
    assert min(freq) >= 1
    return np.array([0, *itertools.accumulate(freq)], dtype=np.int64)


def deficit_row(deficit) -> np.ndarray:
    """A row whose scaled entries are whole numbers near 256, chosen so that
    its table's deficit is `deficit`."""
    counts = np.full(255, 256)  # sums to 2**16 - 256: a deficit of 1
    change = 1 - deficit
    counts[:abs(change)] += np.sign(change)
    return counts / (FREQ_TOTAL - 255)


def block_rows(rng) -> dict:
    """(n, 255) blocks of the row kinds the codec meets."""
    one_hot = np.zeros((4, 255))
    one_hot[np.arange(4), [0, 17, 200, 254]] = 1.0
    # the model's floor mixing over a softmax with underflowed classes:
    # most entries of a row are exactly equal, so remainders tie, and rows
    # with k equal classes tie at the cut
    p = np.zeros((12, 255))
    p[:4, :3] = rng.dirichlet(np.ones(3), size=4)
    for row, k in enumerate((1, 2, 3, 5, 7, 64, 128, 255), start=4):
        p[row, :k] = 1.0 / k
    floored = p * (1.0 - 1e-6) + 1e-6 / 255.0
    return {"random": rng.dirichlet(np.ones(255), size=300),
            "peaked": rng.dirichlet(np.full(255, 0.01), size=50),
            "uniform": np.full((3, 255), 1.0 / 255.0),
            "floor_dominated": floored,
            "one_hot": one_hot}


UNIFORM = quantize_dist(np.full(255, 1.0 / 255.0))


def random_table(rng):
    return quantize_dist(random_dist(rng))


def encode_stream(symbols, tables) -> bytes:
    """Occupancy symbols (1..255), each coded against its table."""
    enc = ArithmeticEncoder()
    for sym, cum in zip(symbols, tables, strict=True):
        enc.encode(cum, sym - 1)
    return enc.finish()


def decode_stream(payload, tables) -> list:
    dec = ArithmeticDecoder(payload)
    return [dec.decode(cum) + 1 for cum in tables]


class TestQuantizeDist:
    def test_uniform_within_one(self):
        freq = np.diff(quantize_dist(np.full(255, 1.0 / 255.0)))
        assert int(freq.sum()) == FREQ_TOTAL
        assert freq.max() - freq.min() <= 1

    def test_peaked_floor_behavior(self):
        q = np.full(255, 1e-12)
        q[123] = 1.0 - 254e-12
        freq = np.diff(quantize_dist(q))
        assert freq[123] == FREQ_TOTAL - 254
        others = np.delete(freq, 123)
        assert (others == 1).all()

    def test_random_dists_total_and_kl(self, rng):
        """Quantization keeps the full 2**16 mass and loses < 1e-3 bits."""
        for _ in range(1000):
            q = random_dist(rng)
            freq = np.diff(quantize_dist(q))
            assert int(freq.sum()) == FREQ_TOTAL
            assert freq.min() >= 1
            p_hat = freq / FREQ_TOTAL
            kl = float((q * np.log2(q / p_hat)).sum())
            assert kl < 1e-3

    def test_deterministic(self, rng):
        q = random_dist(rng)
        np.testing.assert_array_equal(quantize_dist(q), quantize_dist(q.copy()))

    def test_cumulative_consistency(self, rng):
        cum = random_table(rng)
        assert cum.shape == (256,) and cum.dtype == np.int64
        assert cum[0] == 0
        assert (np.diff(cum) >= 1).all()
        assert cum[255] == FREQ_TOTAL

    def test_bad_shapes(self):
        with pytest.raises(InvalidInput):
            quantize_dist(np.ones(10) / 10)
        with pytest.raises(InvalidInput):
            quantize_dist(np.ones((3, 10)) / 10)
        with pytest.raises(InvalidInput):
            quantize_dist(np.empty((0, 255)))

    @pytest.mark.parametrize("kind", ["random", "peaked", "uniform",
                                      "floor_dominated", "one_hot"])
    def test_block_equals_row_by_row(self, rng, kind):
        """A block's tables are its rows' own tables, which are the per-row
        reference's; a tie for the likeliest class goes to the lower one."""
        q = block_rows(rng)[kind]
        block = quantize_dist(q)
        assert block.shape == (len(q), 256) and block.dtype == np.int64
        for row, table in zip(q, block):
            np.testing.assert_array_equal(table, quantize_dist(row))
            np.testing.assert_array_equal(table, quantize_row_reference(row))
        mixed = np.stack([q[:2], q[-2:]])  # any leading shape, any layout
        for layout in (mixed, np.asfortranarray(mixed), mixed[::-1, ::-1]):
            np.testing.assert_array_equal(
                quantize_dist(layout), quantize_dist(layout.copy()))
        np.testing.assert_array_equal(
            quantize_dist(mixed), np.stack([block[:2], block[-2:]]))

    def test_tie_for_likeliest_gives_deficit_to_lower_class(self):
        q = np.full(255, 0.5 / 253)
        q[[40, 90]] = 0.25
        freq = np.diff(quantize_dist(q))
        base = 1 + np.rint(q * (FREQ_TOTAL - 255)).astype(np.int64)
        deficit = FREQ_TOTAL - int(base.sum())
        assert deficit == 4  # every entry rounds down
        assert freq[40] == base[40] + deficit and freq[90] == base[90]
        np.testing.assert_array_equal(np.delete(freq, 40), np.delete(base, 40))

    @pytest.mark.parametrize("deficit", [127, -127])
    def test_deficit_at_the_bound_accepted(self, deficit):
        q = deficit_row(deficit)
        top = int(q.argmax())
        freq = np.diff(quantize_dist(q))
        want = np.rint(q * (FREQ_TOTAL - 255)) + 1
        want[top] += deficit
        np.testing.assert_array_equal(freq, want)
        np.testing.assert_array_equal(quantize_dist(q),
                                      quantize_row_reference(q))

    @pytest.mark.parametrize("deficit", [128, -128])
    def test_deficit_past_the_bound_refused(self, deficit):
        with pytest.raises(InvalidInput, match="sums to"):
            quantize_dist(deficit_row(deficit))

    @pytest.mark.parametrize("case", ["nan", "negative", "sum_over_one",
                                      "sum_zero"])
    def test_one_bad_row_refuses_the_block(self, rng, case):
        q = rng.dirichlet(np.ones(255), size=5)
        q[3] = {"nan": np.where(np.arange(255) == 0, np.nan, q[3]),
                "negative": np.where(np.arange(255) == 0, -0.01, q[3]),
                "sum_over_one": q[3] * 1.01,
                "sum_zero": q[3] * 0.0}[case]
        with pytest.raises(InvalidInput):
            quantize_dist(q)

    @pytest.mark.parametrize("case", ["nan", "negative", "entry_over_one",
                                      "sum_over_one", "sum_zero"])
    def test_unquantizable_rejected(self, rng, case):
        """Entries outside [0, 1], floors over the 2**16 budget, or too little
        mass for one correction per class to reach it."""
        q = random_dist(rng)
        first = np.arange(255) == 0
        q = {"nan": np.where(first, np.nan, q),
             "negative": np.where(first, -0.01, q),
             "entry_over_one": np.where(first, 2.0, q),
             "sum_over_one": q * 1.01,
             "sum_zero": q * 0.0}[case]
        with pytest.raises(InvalidInput):
            quantize_dist(q)

    def test_float32_row_equals_its_float64_copy(self, rng):
        """The decoder passes the step's float32 row, the encoder a float64
        copy inside a block: both get one table, the per-row reference's."""
        for concentration in (0.01, 0.3, 1.0, 30.0):
            rows = rng.dirichlet(np.full(255, concentration),
                                 size=40).astype(np.float32)
            rows /= rows.sum(axis=1, keepdims=True)  # sums to 1 in float32
            block = quantize_dist(rows.astype(np.float64))
            for row, table in zip(rows, block):
                alone = quantize_dist(row)
                assert alone.dtype == np.int64
                np.testing.assert_array_equal(alone, quantize_dist(
                    row.astype(np.float64)))
                np.testing.assert_array_equal(alone, table)
                np.testing.assert_array_equal(alone, quantize_row_reference(row))

    @pytest.mark.parametrize("case,message", [
        ("nan", r"^distribution entries must lie in \[0, 1\]$"),
        ("negative", r"^distribution entries must lie in \[0, 1\]$"),
        ("entry_over_one", r"^distribution entries must lie in \[0, 1\]$"),
        ("sum_over_one", r"^distribution sums to [0-9.]+, not 1$"),
        ("sum_zero", r"^distribution sums to 0\.0, not 1$")])
    def test_unquantizable_float32_row_rejected(self, rng, case, message):
        """A float32 row meets the float64 row's checks and messages."""
        q = random_dist(rng)
        first = np.arange(255) == 0
        q = {"nan": np.where(first, np.nan, q),
             "negative": np.where(first, -0.01, q),
             "entry_over_one": np.where(first, 2.0, q),
             "sum_over_one": q * 1.01,
             "sum_zero": q * 0.0}[case].astype(np.float32)
        with pytest.raises(InvalidInput, match=message) as exc:
            quantize_dist(q)
        with pytest.raises(InvalidInput) as want:
            quantize_dist(q.astype(np.float64))
        assert str(exc.value) == str(want.value)


class TestRoundTrip:
    def test_all_symbols_many_tables(self, rng):
        tables = [random_table(rng) for _ in range(20)]
        for table in tables:
            symbols = list(range(1, 256))
            payload = encode_stream(symbols, [table] * 255)
            assert decode_stream(payload, [table] * 255) == symbols

    def test_alternating_tables_long_stream(self, rng):
        ta, tb = random_table(rng), random_table(rng)
        symbols = rng.integers(1, 256, size=10000).tolist()
        tables = [ta if i % 2 == 0 else tb for i in range(len(symbols))]
        payload = encode_stream(symbols, tables)
        assert decode_stream(payload, tables) == symbols

    def test_empty_stream_small_flush(self):
        payload = encode_stream([], [])
        assert len(payload) < 8

    def test_single_confident_symbol_tiny_payload(self):
        q = np.zeros(255)
        q[77] = 1.0
        table = quantize_dist(q)
        assert table[78] - table[77] == FREQ_TOTAL - 254
        payload = encode_stream([78], [table])
        assert len(payload) <= 2

    # SHA-256 of each payload as the range coder of versions 5 and 6 writes
    # it: the tables are closed-form, so the bytes depend on integer
    # arithmetic alone.
    # The first three tables are the same under version 1's largest-remainder
    # rule; "square" is not: its rounding leaves a deficit of 2 on class 254.
    PINNED = {
        "uniform": "b8991b74fbb0628ffd7343feb8744fc578df84e362df7b2526c6a1fbfb3c76b5",
        "one_hot": "b98628ecfe80fd779b37b00e3a9d24bd2b827d8e882112da7efd9ed56bedaf82",
        "ramp": "496ec4d1b6330b4bdf2f940bfdf3a804c378e2749d94210a44f83c3c3ea38093",
        "square": "d0321424eaf2776b5dd8016ad6c4994f27ed7d9b0f21ef1b2d213afe45b8c3b7",
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_payload_bytes_pinned(self, case):
        q = {"uniform": np.full(255, 1.0 / 255.0),
             "one_hot": np.arange(255) == 100,
             "ramp": np.arange(1, 256) / 32640,
             "square": np.arange(255) ** 2 / 5494655}[case]
        table = quantize_dist(q)
        symbols = [(7 * i) % 255 + 1 for i in range(3000)]
        payload = encode_stream(symbols, [table] * len(symbols))
        assert hashlib.sha256(payload).hexdigest() == self.PINNED[case]
        assert decode_stream(payload, [table] * len(symbols)) == symbols


class TestOptimality:
    def test_uniform_tables_near_ideal(self, rng):
        table = quantize_dist(np.full(255, 1.0 / 255.0))
        freq = np.diff(table)
        n = 1000
        symbols = rng.integers(1, 256, size=n).tolist()
        payload = encode_stream(symbols, [table] * n)
        ideal = sum(-np.log2(freq[s - 1] / FREQ_TOTAL) for s in symbols)
        assert len(payload) * 8 <= 1.01 * ideal + 64
        assert abs(ideal / n - np.log2(255)) < 0.01

    def test_random_streams_within_one_percent(self, rng):
        for trial in range(5):
            n = 1500
            tables = [random_table(rng) for _ in range(5)]
            use = [tables[int(i)] for i in rng.integers(0, 5, size=n)]
            symbols = [int(rng.integers(1, 256)) for _ in range(n)]
            payload = encode_stream(symbols, use)
            ideal = sum(-np.log2((t[s] - t[s - 1]) / FREQ_TOTAL)
                        for s, t in zip(symbols, use))
            assert len(payload) * 8 <= 1.01 * ideal + 64
            assert decode_stream(payload, use) == symbols


class TestEncoderState:
    def test_bits_emitted_monotone(self, rng):
        table = random_table(rng)
        enc = ArithmeticEncoder()
        last = 0
        for s in rng.integers(0, 255, size=200):
            enc.encode(table, int(s))
            assert enc.bits_emitted >= last
            last = enc.bits_emitted
        enc.finish()
        with pytest.raises(InvalidInput, match="already finished"):
            enc.encode(table, 0)

    def test_zero_frequency_symbol_rejected(self):
        table = np.zeros(256, dtype=np.int64)
        table[2:] = FREQ_TOTAL
        enc = ArithmeticEncoder()
        enc.encode(table, 1)
        with pytest.raises(InvalidInput, match="zero frequency"):
            enc.encode(table, 0)

    @pytest.mark.parametrize("symbol", [-1, 255])
    def test_symbol_outside_the_table_rejected(self, rng, symbol):
        with pytest.raises(InvalidInput, match="outside"):
            ArithmeticEncoder().encode(random_table(rng), symbol)

    def test_decoder_refuses_reading_past_64_bits_of_padding(self):
        """The payload's end reads as zeros for MAX_BITS_PAST_END bits, the
        most an encoder's stream is overread: the symbol that reads one byte
        more is refused."""
        payload = b"\x80"
        dec = ArithmeticDecoder(payload)  # the first read: 56 bits past
        decoded = 0
        with pytest.raises(CorruptStream, match="^decoding read past the end "
                           "of the 1-byte payload$"):
            while True:
                dec.decode(UNIFORM)
                decoded += 1
        # the first symbol reads no byte, the second the last zero byte
        # allowed, and the third would read one more
        assert decoded == 2
        assert dec._pos == len(payload) + MAX_BITS_PAST_END // 8


def coded(seed, n, zero=0.0, steer=0.0):
    """A seeded stream of n symbols coded against the uniform table, and the
    number of 0xFF bytes each carry walked back over.  A symbol is 0 with
    probability `zero`, and while 2**64 lies inside [low, low + range), the
    symbol whose step holds it with probability `steer`: a renormalisation
    then shifts out a 0xFF byte that waits on a carry.  Otherwise the symbol
    is uniform."""
    rng = np.random.default_rng(seed)
    enc, symbols, walked = ArithmeticEncoder(), [], []

    def carry():
        k = 0
        while enc._out[-1 - k] == 0xFF:
            k += 1
        walked.append(k)
        ArithmeticEncoder._carry(enc)

    enc._carry = carry
    for _ in range(n):
        edge = (1 << 64) - enc._low
        if rng.random() < zero:
            symbol = 0
        elif edge < enc._range and rng.random() < steer:
            step = edge // (enc._range >> 16)
            symbol = min(254, int(np.searchsorted(UNIFORM, step, side="right")) - 1)
        else:
            symbol = int(rng.integers(0, 255))
        enc.encode(UNIFORM, symbol)
        symbols.append(symbol + 1)
    return enc, symbols, walked


class TestRangeCoderPaths:
    """Seeded searches for streams that take the coder's rarer paths; each
    found stream round-trips."""

    def test_carry_walks_back_over_0xff_bytes(self):
        for seed in range(100):
            enc, symbols, walked = coded(seed, 300, steer=0.9)
            if max(walked, default=0) >= 2:
                break
        assert max(walked) >= 2
        payload = enc.finish()
        assert decode_stream(payload, [UNIFORM] * len(symbols)) == symbols

    @pytest.mark.parametrize("tail,zero,tail_bytes", [
        ("carry", 0.0, 0), ("low 0", 0.8, 0), ("one byte", 0.0, 1)])
    def test_finish_writes_the_shortest_tail(self, tail, zero, tail_bytes):
        """finish writes no byte when 2**64 lies in [low, low + range), which
        it adds as a carry, and none when low is 0; otherwise one byte."""
        for seed in range(1000):
            enc, symbols, _ = coded(seed, 1 + seed % 40, zero=zero)
            low, end, out = enc._low, enc._low + enc._range, bytes(enc._out)
            took = ("carry" if end > 1 << 64 else "low 0" if low == 0
                    else "one byte")
            if took == tail and any(s > 1 for s in symbols):
                break
        assert took == tail
        payload = enc.finish()
        assert len(payload) == len(out) + tail_bytes
        if tail == "carry":
            assert int.from_bytes(payload, "big") == int.from_bytes(out, "big") + 1
        else:
            assert payload[:len(out)] == out
        assert decode_stream(payload, [UNIFORM] * len(symbols)) == symbols

    def test_value_past_the_table_refused(self, rng):
        """A value in [r * 2**16, range), the sliver a step's table leaves
        unused, is where no encoder puts the stream: decode refuses it."""
        symbols = rng.integers(1, 256, size=50).tolist()
        payload, k = payload_past_the_table([UNIFORM] * 50, symbols)
        dec = ArithmeticDecoder(payload)
        assert [dec.decode(UNIFORM) + 1 for _ in range(k)] == symbols[:k]
        with pytest.raises(CorruptStream, match="outside the coding interval"):
            dec.decode(UNIFORM)

    def test_random_bytes_keep_the_state_below_range(self, rng):
        """Fed random bytes, the decoder refuses them or keeps code < range
        after every symbol, so its state never grows with the bytes read."""
        for _ in range(50):
            dec = ArithmeticDecoder(rng.bytes(int(rng.integers(0, 40))))
            table = random_table(rng)
            while True:  # it ends: reading 64 bits past the payload refuses
                try:
                    dec.decode(table)
                except CorruptStream:
                    break
                assert 0 <= dec._code < dec._range <= 1 << 64


class TestBitstreamContainer:
    def make(self, payload=b"\xaa\xbb"):
        header = BitstreamHeader(
            depth=6, coded_levels=5, origin=np.array([0.1, -0.2, 0.3]),
            scale=0.015625, raw_point_count=1000, voxel_count=900,
            node_count=1500, model_digest=bytes(range(32)), flags=3,
            checksum=0x89abcdef)
        return Bitstream(header=header, payload=payload)

    def test_roundtrip(self):
        bs = self.make()
        back = Bitstream.from_bytes(bs.to_bytes())
        h = back.header
        assert (h.depth, h.coded_levels, h.raw_point_count, h.voxel_count,
                h.node_count, h.flags) == (6, 5, 1000, 900, 1500, 3)
        np.testing.assert_array_equal(h.origin, [0.1, -0.2, 0.3])
        assert h.scale == 0.015625
        assert h.model_digest == bytes(range(32))
        assert h.checksum == 0x89abcdef
        assert back.payload == b"\xaa\xbb"

    def test_header_parses_without_payload(self):
        blob = self.make().to_bytes()
        header, payload_len = BitstreamHeader.unpack(blob[:len(blob) - 2])
        assert (header.depth, payload_len) == (6, 2)

    def test_truncated_payload_rejected(self):
        blob = self.make().to_bytes()
        with pytest.raises(CorruptStream):
            Bitstream.from_bytes(blob[:-1])

    def test_bad_magic(self):
        blob = bytearray(self.make().to_bytes())
        blob[0] = ord("X")
        with pytest.raises(ParseError):
            Bitstream.from_bytes(bytes(blob))

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 7, 0xFFFF])
    def test_other_versions_refused_as_corrupt(self, version):
        """A stream of any version but 6 fails as CorruptStream naming both
        versions, also a version-1 stream whose shorter header (no checksum)
        and payload make fewer bytes than a version-6 header."""
        blob = v1_layout_stream(version, payload=b"\x5a")
        assert len(blob) < HEADER_BYTES
        with pytest.raises(CorruptStream,
                           match=f"^bitstream version {version}; this decoder "
                                 f"reads version {BITSTREAM_VERSION} only$"):
            Bitstream.from_bytes(blob)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "stream.bin"
        bs = self.make(payload=b"\x01\x02\x03")
        bs.write(path)
        assert Bitstream.read(path).payload == b"\x01\x02\x03"
