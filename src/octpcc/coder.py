"""Adaptive range coding and the container bitstream format.

The coder is a byte-wise range coder (G. N. N. Martin, 1979) over 64-bit
integers: the encoder narrows [low, low + range) by cumulative frequencies,
shifts out the top byte of low whenever range falls below 2**56, and adds a
carry out of low into the bytes already out; the decoder keeps only the
distance of the stream's value from low and mirrors the arithmetic exactly.
A frequency table is the (256,) cumulative array of 255 positive integer
frequencies summing to exactly 2**16, derived deterministically from a
model distribution: identical distribution bits in, identical table out,
which is what keeps encoder and decoder synchronized.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStream, InvalidInput, ParseError

FREQ_TOTAL = 1 << 16

_TOP = 1 << 64     # range is at most this, low below it: a low past it carries
_MASK = _TOP - 1
_BOTTOM = 1 << 56  # range stays >= this between symbols

# Decoding reads 8 bytes, then one per renormalisation; encoding writes one per
# renormalisation, then at most one: a true stream is overread 56 or 64 bits.
MAX_BITS_PAST_END = 64


def _not_summing_to_one(row) -> InvalidInput:
    return InvalidInput(f"distribution sums to {float(row.sum())!r}, not 1")


def quantize_dist(q: np.ndarray) -> np.ndarray:
    """Deterministic 2**16-total integer quantization of 255-way distributions.

    Each class gets frequency 1 + rint(q * (2**16 - 255)); the deficit
    2**16 minus their sum goes to the likeliest class, the first argmax(q).
    Maps q of shape (..., 255) to int64 cumulative tables of shape
    (..., 256), row by row: cum[0] = 0, cum[255] = FREQ_TOTAL, every step
    >= 1; a row's table does not depend on the other rows.  InvalidInput
    unless every entry lies in [0, 1] and every row's deficit lies within
    +-127, which a row summing to 1 always meets: each of its 255 roundings
    is off by at most 1/2.  The likeliest class then holds >= 129.  One
    row (the decoder's call) is summed in float, the deficit added past its
    likeliest class: every partial sum is an integer below 2**24, so exact.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (255,) or q.size == 0:
        raise InvalidInput("distribution must have 255 entries")
    if not 0.0 <= q.min() <= q.max() <= 1.0:  # also false for NaN
        raise InvalidInput("distribution entries must lie in [0, 1]")
    scaled = np.rint(q * (FREQ_TOTAL - 255))
    if q.ndim == 1:  # the decoder's call: fewer numpy calls, the same table
        cum = np.zeros(256)
        np.add.accumulate(scaled + 1, out=cum[1:])
        deficit = FREQ_TOTAL - cum[255]
        if abs(deficit) > 127:
            raise _not_summing_to_one(q)
        cum[q.argmax() + 1:] += deficit
        return cum.astype(np.int64)
    freq = scaled.astype(np.int64, order="C") + 1
    deficit = FREQ_TOTAL - freq.sum(axis=-1)
    bad = np.abs(deficit) > 127
    if bad.any():
        raise _not_summing_to_one(q[bad][0])
    rows = freq.reshape(-1, 255)  # C order, so a view: the scatter lands in freq
    rows[np.arange(len(rows)), q.reshape(-1, 255).argmax(axis=1)] += deficit.ravel()
    cum = np.zeros(q.shape[:-1] + (256,), dtype=np.int64)
    np.cumsum(freq, axis=-1, out=cum[..., 1:])
    return cum


class ArithmeticEncoder:
    """Codes symbols 0..254, each against its cumulative table."""

    def __init__(self):
        self._low = 0
        self._range = _TOP
        self._out = bytearray()
        self._finished = False

    @property
    def bits_emitted(self) -> int:
        return 8 * len(self._out)

    def _carry(self) -> None:
        """Add one to the bytes out, walking back over 0xFF bytes."""
        out, i = self._out, len(self._out) - 1
        while out[i] == 0xFF:
            out[i] = 0
            i -= 1
        out[i] += 1

    def encode(self, cum: np.ndarray, symbol: int) -> None:
        if self._finished:
            raise InvalidInput("encoder already finished")
        if not 0 <= symbol < 255:
            raise InvalidInput(f"symbol {symbol} outside [0, 254]")
        sym_lo = int(cum[symbol])
        freq = int(cum[symbol + 1]) - sym_lo
        if freq <= 0:
            raise InvalidInput("symbol has zero frequency")
        r = self._range >> 16
        low = self._low + r * sym_lo
        rng = r * freq
        if low >= _TOP:
            low -= _TOP
            self._carry()
        while rng < _BOTTOM:
            self._out.append(low >> 56)
            low = (low << 8) & _MASK
            rng <<= 8
        self._low, self._range = low, rng

    def finish(self) -> bytes:
        """The bytes out and the shortest tail whose value, zero-padded, lies
        in [low, low + range): 2**64 as a carry, else low rounded up to a
        multiple of 2**56, whose top byte is none for low = 0."""
        if not self._finished:
            low = self._low
            if low + self._range > _TOP:
                self._carry()
            elif low:
                self._out.append((low + _BOTTOM - 1) >> 56)
            self._finished = True
        return bytes(self._out)


class ArithmeticDecoder:
    def __init__(self, payload: bytes):
        self._payload = payload
        self._pos = 8
        self._range = _TOP
        self._code = int.from_bytes(payload[:8].ljust(8, b"\0"), "big")  # value - low

    @property
    def bits_past_end(self) -> int:
        """Zeros read beyond the payload."""
        return 8 * max(0, self._pos - len(self._payload))

    def decode(self, cum: np.ndarray) -> int:
        """The next symbol; CorruptStream if the stream's value lies past
        the table's 2**16 steps, where no encoder puts it."""
        r = self._range >> 16
        value = self._code // r
        if value >> 16:
            raise CorruptStream("the payload's value lies outside the coding "
                                "interval")
        symbol = int(np.searchsorted(cum, value, side="right")) - 1
        sym_lo = int(cum[symbol])
        code = self._code - r * sym_lo
        rng = r * (int(cum[symbol + 1]) - sym_lo)
        payload, pos = self._payload, self._pos
        while rng < _BOTTOM:
            code = (code << 8) | (payload[pos] if pos < len(payload) else 0)
            pos += 1
            rng <<= 8
        self._code, self._range, self._pos = code, rng, pos
        return symbol


# ---------------------------------------------------------------------------
# Container format
# ---------------------------------------------------------------------------

BITSTREAM_MAGIC = b"OPCB"
BITSTREAM_VERSION = 6
FLAG_RESIDUAL = 1
FLAG_BRANCH = 2

_HEADER_FMT = "<4sHBBddddQQQ32sBQI"
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
    checksum: int            # u32, see crc()

    def pack(self, payload_len: int) -> bytes:
        return struct.pack(
            _HEADER_FMT, BITSTREAM_MAGIC, BITSTREAM_VERSION, self.depth,
            self.coded_levels, float(self.origin[0]), float(self.origin[1]),
            float(self.origin[2]), float(self.scale), self.raw_point_count,
            self.voxel_count, self.node_count, self.model_digest, self.flags,
            payload_len, self.checksum)

    def crc(self, payload_len: int, occupancy: np.ndarray) -> int:
        """CRC32 of the packed fields before the checksum, then of the coded
        occupancy bytes in stream order."""
        fields = zlib.crc32(self.pack(payload_len)[:-4])
        return zlib.crc32(occupancy.astype(np.uint8), fields)

    @classmethod
    def unpack(cls, blob: bytes) -> tuple["BitstreamHeader", int]:
        """The header and the payload length it declares."""
        if blob[:4] != BITSTREAM_MAGIC:
            raise ParseError("not an octpcc bitstream (bad magic)")
        if len(blob) >= 6:  # another version is refused even if shorter
            (version,) = struct.unpack_from("<H", blob, 4)
            if version != BITSTREAM_VERSION:
                raise CorruptStream(f"bitstream version {version}; this decoder "
                                    f"reads version {BITSTREAM_VERSION} only")
        if len(blob) < HEADER_BYTES:
            raise ParseError("bitstream shorter than its header")
        (_, _, depth, coded_levels, ox, oy, oz, scale, raw_count, voxel_count,
         node_count, digest, flags, payload_len, checksum) = \
            struct.unpack_from(_HEADER_FMT, blob)
        return cls(depth=depth, coded_levels=coded_levels,
                   origin=np.array([ox, oy, oz]), scale=scale,
                   raw_point_count=raw_count, voxel_count=voxel_count,
                   node_count=node_count, model_digest=digest,
                   flags=flags, checksum=checksum), payload_len


@dataclass
class Bitstream:
    header: BitstreamHeader
    payload: bytes

    def to_bytes(self) -> bytes:
        return self.header.pack(len(self.payload)) + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Bitstream":
        header, payload_len = BitstreamHeader.unpack(blob)
        payload = blob[HEADER_BYTES:]
        if len(payload) != payload_len:
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
