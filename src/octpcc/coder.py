"""Adaptive arithmetic coding and the container bitstream format.

The coder is a classic 32-bit integer arithmetic coder (Witten/Neal/Cleary
lineage): the encoder narrows [low, high] by cumulative frequencies and
emits bits as the interval settles, tracking straddle cases as pending
bits; the decoder mirrors the arithmetic exactly.  Frequency tables are
integers summing to exactly 2**16, derived deterministically from model
distributions: identical distribution bits in, identical table out, which
is what keeps encoder and decoder synchronized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStream, InvalidInput, ParseError

FREQ_TOTAL = 1 << 16

_STATE_BITS = 32
_MAX_RANGE = 1 << _STATE_BITS
_MIN_RANGE = (_MAX_RANGE >> 2) + 2
_MASK = _MAX_RANGE - 1
_TOP = _MAX_RANGE >> 1
_SECOND = _TOP >> 1

assert FREQ_TOTAL <= _MIN_RANGE

# Decoding reads 32 bits, then one per renormalisation; encoding writes one or
# more per renormalisation, then a final 1: a true stream is overread <= 31 bits.
MAX_BITS_PAST_END = 32


@dataclass
class FreqTable:
    """255 positive integer frequencies with their cumulative array."""

    freq: np.ndarray  # (255,) int64, every entry >= 1
    cum: np.ndarray   # (256,) int64, cum[0] = 0, cum[255] = total
    total: int

    @classmethod
    def from_freq(cls, freq: np.ndarray) -> "FreqTable":
        freq = np.asarray(freq, dtype=np.int64)
        if freq.shape != (255,) or freq.min() < 1:
            raise InvalidInput("need 255 frequencies, all >= 1")
        cum = np.zeros(256, dtype=np.int64)
        np.cumsum(freq, out=cum[1:])
        total = int(cum[255])
        if total > FREQ_TOTAL:
            raise InvalidInput(f"total frequency {total} exceeds {FREQ_TOTAL}")
        return cls(freq=freq, cum=cum, total=total)


def quantize_dist(q: np.ndarray) -> FreqTable:
    """Deterministic 2**16-total integer quantization of a 255-way distribution.

    Every class is first granted frequency 1; the remaining mass is
    apportioned by floor with a largest-remainder correction (ties broken
    toward lower class index), so the total is exactly 2**16.  InvalidInput
    unless the entries lie in [0, 1] and sum to 1.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (255,):
        raise InvalidInput("distribution must have 255 entries")
    if not 0.0 <= q.min() <= q.max() <= 1.0:  # also false for NaN
        raise InvalidInput("distribution entries must lie in [0, 1]")
    scaled = q * (FREQ_TOTAL - 255)
    base = np.floor(scaled)
    freq = base.astype(np.int64) + 1
    deficit = FREQ_TOTAL - int(freq.sum())
    if not 0 <= deficit <= 255:
        raise InvalidInput(f"distribution sums to {q.sum()!r}, not 1")
    order = np.argsort(base - scaled, kind="stable")  # frac desc, index asc
    freq[order[:deficit]] += 1
    cum = np.zeros(256, dtype=np.int64)
    np.cumsum(freq, out=cum[1:])
    return FreqTable(freq=freq, cum=cum, total=FREQ_TOTAL)


class _BitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._cur = 0
        self._fill = 0
        self.bits_written = 0

    def write(self, bit: int) -> None:
        self._cur = (self._cur << 1) | bit
        self._fill += 1
        self.bits_written += 1
        if self._fill == 8:
            self._bytes.append(self._cur)
            self._cur = 0
            self._fill = 0

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._fill:
            out.append(self._cur << (8 - self._fill))
        return bytes(out)


class _BitReader:
    def __init__(self, payload: bytes):
        self._payload = payload
        self._pos = 0
        self.bits_past_end = 0  # zeros read beyond the payload

    def read(self) -> int:
        byte, bit = divmod(self._pos, 8)
        if byte >= len(self._payload):
            self.bits_past_end += 1
            return 0
        self._pos += 1
        return (self._payload[byte] >> (7 - bit)) & 1


class ArithmeticEncoder:
    def __init__(self):
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._out = _BitWriter()
        self._finished = False

    @property
    def bits_emitted(self) -> int:
        return self._out.bits_written

    def encode(self, table: FreqTable, symbol: int) -> None:
        if self._finished:
            raise InvalidInput("encoder already finished")
        low, high = self._low, self._high
        span = high - low + 1
        total = table.total
        sym_lo = int(table.cum[symbol])
        sym_hi = int(table.cum[symbol + 1])
        if sym_lo == sym_hi:
            raise InvalidInput("symbol has zero frequency")
        self._high = low + sym_hi * span // total - 1
        self._low = low + sym_lo * span // total
        while True:
            if (self._low ^ self._high) & _TOP == 0:
                bit = self._low >> (_STATE_BITS - 1)
                self._out.write(bit)
                for _ in range(self._pending):
                    self._out.write(bit ^ 1)
                self._pending = 0
                self._low = (self._low << 1) & _MASK
                self._high = ((self._high << 1) & _MASK) | 1
            elif self._low & ~self._high & _SECOND:
                self._pending += 1
                self._low = (self._low << 1) & (_MASK >> 1)
                self._high = ((self._high << 1) & (_MASK >> 1)) | _TOP | 1
            else:
                break

    def finish(self) -> bytes:
        if not self._finished:
            self._out.write(1)
            for _ in range(self._pending):
                self._out.write(0)
            self._finished = True
        return self._out.getvalue()


class ArithmeticDecoder:
    def __init__(self, payload: bytes):
        self.reader = _BitReader(payload)
        self._low = 0
        self._high = _MASK
        self._code = 0
        for _ in range(_STATE_BITS):
            self._code = (self._code << 1) | self.reader.read()

    def decode(self, table: FreqTable) -> int:
        low, high = self._low, self._high
        span = high - low + 1
        total = table.total
        offset = self._code - low
        value = ((offset + 1) * total - 1) // span
        symbol = int(np.searchsorted(table.cum, value, side="right")) - 1
        sym_lo = int(table.cum[symbol])
        sym_hi = int(table.cum[symbol + 1])
        self._high = low + sym_hi * span // total - 1
        self._low = low + sym_lo * span // total
        while True:
            if (self._low ^ self._high) & _TOP == 0:
                self._code = ((self._code << 1) & _MASK) | self.reader.read()
                self._low = (self._low << 1) & _MASK
                self._high = ((self._high << 1) & _MASK) | 1
            elif self._low & ~self._high & _SECOND:
                self._code = (self._code & _TOP) | ((self._code << 1) & (_MASK >> 1)) \
                    | self.reader.read()
                self._low = (self._low << 1) & (_MASK >> 1)
                self._high = ((self._high << 1) & (_MASK >> 1)) | _TOP | 1
            else:
                break
        return symbol


def encode_symbols(symbols, tables) -> bytes:
    """Code occupancy symbols (1..255) against their matching tables."""
    symbols = list(symbols)
    tables = list(tables)
    if len(symbols) != len(tables):
        raise InvalidInput("one table per symbol required")
    enc = ArithmeticEncoder()
    for sym, table in zip(symbols, tables):
        if not (1 <= sym <= 255):
            raise InvalidInput(f"occupancy symbol {sym} outside [1, 255]")
        enc.encode(table, sym - 1)
    return enc.finish()


def decode_symbols(payload: bytes, tables) -> list:
    dec = ArithmeticDecoder(payload)
    return [dec.decode(t) + 1 for t in tables]


# ---------------------------------------------------------------------------
# Container format
# ---------------------------------------------------------------------------

BITSTREAM_MAGIC = b"OPCB"
BITSTREAM_VERSION = 1
FLAG_RESIDUAL = 1
FLAG_BRANCH = 2

_HEADER_FMT = "<4sHBBddddQQQ32sBQ"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)


@dataclass
class BitstreamHeader:
    depth: int
    coded_levels: int
    origin: np.ndarray       # (3,) float64
    scale: float
    raw_point_count: int
    voxel_count: int
    node_count: int          # nodes in the coded levels
    model_digest: bytes      # 32 bytes
    flags: int               # bit 0: residual enabled, bit 1: branch enabled

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT, BITSTREAM_MAGIC, BITSTREAM_VERSION, self.depth,
            self.coded_levels, float(self.origin[0]), float(self.origin[1]),
            float(self.origin[2]), float(self.scale), self.raw_point_count,
            self.voxel_count, self.node_count, self.model_digest, self.flags,
            self._payload_len)

    @classmethod
    def unpack(cls, blob: bytes):
        if len(blob) < HEADER_BYTES:
            raise ParseError("bitstream shorter than its header")
        (magic, version, depth, coded_levels, ox, oy, oz, scale, raw_count,
         voxel_count, node_count, digest, flags, payload_len) = \
            struct.unpack_from(_HEADER_FMT, blob)
        if magic != BITSTREAM_MAGIC:
            raise ParseError("not an octpcc bitstream (bad magic)")
        if version != BITSTREAM_VERSION:
            raise ParseError(f"unsupported bitstream version {version}")
        hdr = cls(depth=depth, coded_levels=coded_levels,
                  origin=np.array([ox, oy, oz]), scale=scale,
                  raw_point_count=raw_count, voxel_count=voxel_count,
                  node_count=node_count, model_digest=digest, flags=flags)
        hdr._payload_len = payload_len
        return hdr

    _payload_len: int = 0


@dataclass
class Bitstream:
    header: BitstreamHeader
    payload: bytes

    def to_bytes(self) -> bytes:
        self.header._payload_len = len(self.payload)
        return self.header.pack() + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Bitstream":
        header = BitstreamHeader.unpack(blob)
        payload = blob[HEADER_BYTES:]
        if len(payload) != header._payload_len:
            raise CorruptStream("payload length disagrees with header")
        if not np.isfinite(header.origin).all():
            raise CorruptStream(f"header origin {header.origin} must be finite")
        if not (np.isfinite(header.scale) and header.scale > 0):
            raise CorruptStream(f"header scale {header.scale} must be finite "
                                "and positive")
        return cls(header=header, payload=payload)

    def write(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def read(cls, path) -> "Bitstream":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())
