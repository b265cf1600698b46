"""End-to-end encode and decode drivers.

Both directions run one walk, `_walk`: it takes the model's codec weights,
lowered once per parameter state (a `KVCache` holds them), grows the tree
from the root level by level, in breadth-first order, and runs the model's step
`ContextModel.predict` (which attends each target's row over the K/V rows
the cache keeps for its window's already-coded nodes), then hands the
distributions to the direction's callback.  The decoder steps one node at a
time, quantizes its distribution and decodes its symbol at once, since the
next node's window needs it.  The encoder knows every symbol in advance: it
steps runs of a level's nodes, whether their windows are full or still
growing, buffers up to ENCODE_BLOCK distributions, then quantizes them in
one call and codes their symbols in node order.  A one-node step takes the
step's one-target form, a run its stacked form, and both run a node's ops
in the same order, so a node's distribution has the same bits in a run as
alone, and `quantize_dist` rounds each row on its own, elementwise, and puts
the row's deficit on its likeliest class, so the decoder sees bit-identical
frequency tables.  Model weights travel out of band (checkpoint file); the
bitstream carries a digest so a mismatched model is rejected, and a header
the model cannot decode, or whose node count the payload cannot hold, is
refused as corrupt before any symbol is read.  The header's CRC32 covers its
other fields and the coded occupancy bytes; the decoder checks it once the
tree is decoded, after the node and voxel counts, so a flipped frame or a
payload that decodes to another tree fails as corrupt instead of returning a
wrong cloud.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coder import (FREQ_TOTAL, MAX_BITS_PAST_END, ArithmeticDecoder,
                    ArithmeticEncoder, Bitstream, BitstreamHeader, FLAG_BRANCH,
                    FLAG_RESIDUAL, HEADER_BYTES, quantize_dist)
from .context import GrowingContext
from .errors import CorruptStream, InvalidInput, ModelMismatch
from .geometry import MAX_DEPTH, QuantizedPointCloud, RawPointCloud, quantize
from .model import ContextModel, KVCache
from .octree import ROOT_PARENT, NodeSequence, build, children, reconstruct

# Each class keeps a frequency >= 1, so the likeliest gets at most
# FREQ_TOTAL - 254 and a node costs >= 0.0056 bits: 178.5 nodes a payload bit.
MAX_NODES_PER_BIT = 1 / np.log2(FREQ_TOTAL / (FREQ_TOTAL - 254))

# Nodes the encoder steps, quantizes and codes together, at most.  A fixed
# block bounds the (block, 255) temporaries: a whole cloud's would reach
# megabytes each.
ENCODE_BLOCK = 256


@dataclass
class EncodeReport:
    total_bits: int
    header_bits: int
    payload_bits: int
    bpip: float                  # total bits / raw input point count
    per_level_bits: list         # payload bits attributed to each coded level
    per_level_ideal_bits: list   # ideal bits of each coded level's nodes
    ideal_bits: float            # sum of -log2 q(x_i | c_i) over coded nodes
    wall_time: float
    node_count: int
    raw_point_count: int
    voxel_count: int

    def to_text(self, timing: bool = True) -> str:
        """key = value record; pass timing=False for byte-reproducible output."""
        lines = [
            f"total_bits = {self.total_bits}",
            f"header_bits = {self.header_bits}",
            f"payload_bits = {self.payload_bits}",
            f"bpip = {self.bpip:.6f}",
            f"per_level_bits = {','.join(str(b) for b in self.per_level_bits)}",
            "per_level_ideal_bits = "
            f"{','.join(f'{b:.3f}' for b in self.per_level_ideal_bits)}",
            f"ideal_bits = {self.ideal_bits:.3f}",
            f"node_count = {self.node_count}",
            f"raw_point_count = {self.raw_point_count}",
            f"voxel_count = {self.voxel_count}",
        ]
        if timing:
            lines.append(f"wall_time = {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


def _model_flags(model: ContextModel) -> int:
    return ((FLAG_RESIDUAL if model.cfg.enable_residual else 0)
            | (FLAG_BRANCH if model.cfg.enable_branch else 0))


def _walk(model: ContextModel, depth: int, coded_levels: int, node_limit: int,
          code, known=None) -> NodeSequence:
    """Grow the tree from the root through `coded_levels` levels, predicting
    the nodes in stream order; both directions run this.

    A level's nodes enter the window table together, once the level above is
    coded.  `code(level, i, q)` takes the distributions q of nodes i, i + 1,
    ... (one row each) and returns their occupancies.  Without `known`, the
    decoder's case, a step predicts one node (`predict`'s one-target form),
    whose occupancy the next window needs.  With `known`, every node's
    occupancy in stream order (the encoder's), a level's occupancies are set
    as it enters the table, and a step predicts a run of its nodes, up to
    ENCODE_BLOCK and the cache's batch (the run form), from the level's
    first node on, growing windows (the stream's first N - 1 nodes)
    included.  A level that would take the tree past `node_limit` nodes is
    refused, so the K/V cache holds at most `node_limit` rows.  The cache
    takes the model's codec weights as of the parameters now: the model
    lowers them again after any write, so no walk runs stale ones.
    """
    ctx = GrowingContext(model.cfg.ctx)
    cache = KVCache(model, ctx, node_limit)
    run = 1 if known is None else min(ENCODE_BLOCK, cache.batch)
    levels = []
    parent, octant = np.full(1, ROOT_PARENT), np.zeros(1, dtype=np.int64)
    for lvl in range(1, coded_levels + 1):
        first = ctx.count
        if first + len(parent) > node_limit:
            raise CorruptStream(
                f"level {lvl - 1}, node {parent[node_limit - first]}: decoded "
                f"tree exceeds the declared node count {node_limit}")
        ctx.add_node(lvl, parent, octant)
        end = ctx.count
        if known is not None:
            ctx.set_occupancy(slice(first, end), known[first:end])
        occ = np.empty(end - first, dtype=np.int32)
        i = first
        while i < end:
            j = min(i + run, end)
            _, q, _ = model.predict(cache, i, j)
            occ[i - first:j - first] = sym = code(lvl, i, q)
            if known is None:
                ctx.set_occupancy(i, sym)
            i = j
        levels.append((occ, parent, octant))
        parent, octant = children(occ)
        parent += first
    return NodeSequence.from_levels(depth, levels)


def encode(pc: RawPointCloud, depth: int, coded_levels: int,
           model: ContextModel, table_log=None):
    """Compress a raw cloud; returns (Bitstream, EncodeReport)."""
    t0 = time.perf_counter()
    if not (1 <= coded_levels <= depth):
        raise InvalidInput("need 1 <= coded_levels <= depth")
    qpc = quantize(pc, depth)
    seq = build(qpc)
    enc = ArithmeticEncoder()
    ideal = 0.0
    marks = []        # bits emitted before each coded level
    level_ideal = []  # ideal bits of each coded level
    dists = np.empty((ENCODE_BLOCK, 255))  # q of the nodes from `coded` on
    coded = 0         # nodes whose symbols are encoded

    def flush(stop):
        """Quantize the distributions of nodes coded, ..., stop - 1 and
        encode their symbols in node order."""
        nonlocal ideal, coded
        n = stop - coded
        tables = quantize_dist(dists[:n])
        if table_log is not None:
            table_log.extend(tables)
        syms = seq.occupancy[coded:stop]
        bits = -np.log2(dists[np.arange(n), syms - 1])
        for level, sym, table, b in zip(seq.level[coded:stop].tolist(),
                                        syms.tolist(), tables, bits.tolist()):
            if level > len(marks):
                marks.append(enc.bits_emitted)
                level_ideal.append(0.0)
            enc.encode(table, sym - 1)
            ideal += b  # summed node by node, in stream order
            level_ideal[-1] += b
        coded = stop

    def code(level, i, q):
        if i + len(q) - coded > ENCODE_BLOCK:
            flush(i)
        dists[i - coded:i + len(q) - coded] = q
        return seq.occupancy[i:i + len(q)]

    n_coded = len(_walk(model, depth, coded_levels, len(seq), code,
                        seq.occupancy))
    if n_coded > coded:
        flush(n_coded)
    payload = enc.finish()
    header = BitstreamHeader(
        depth=depth, coded_levels=coded_levels, origin=qpc.origin,
        scale=qpc.scale, raw_point_count=len(pc), voxel_count=len(qpc),
        node_count=n_coded, model_digest=model.digest(),
        flags=_model_flags(model), checksum=0)
    header.checksum = header.crc(len(payload), seq.occupancy[:n_coded])
    bs = Bitstream(header=header, payload=payload)
    total_bits = HEADER_BYTES * 8 + len(payload) * 8
    report = EncodeReport(
        total_bits=total_bits, header_bits=HEADER_BYTES * 8,
        payload_bits=len(payload) * 8, bpip=total_bits / len(pc),
        per_level_bits=np.diff(marks + [len(payload) * 8]).tolist(),
        per_level_ideal_bits=level_ideal, ideal_bits=float(ideal),
        wall_time=time.perf_counter() - t0, node_count=n_coded,
        raw_point_count=len(pc), voxel_count=len(qpc))
    return bs, report


def decode(bs: Bitstream, model: ContextModel,
           table_log=None) -> QuantizedPointCloud:
    """Reconstruct the voxel set from a bitstream, level by level."""
    if isinstance(bs, (bytes, bytearray)):
        bs = Bitstream.from_bytes(bytes(bs))
    header = bs.header
    if model.digest() != header.model_digest:
        raise ModelMismatch("bitstream was produced with a different model")
    if not (1 <= header.coded_levels <= header.depth <= MAX_DEPTH):
        raise CorruptStream(
            f"header declares depth {header.depth} with {header.coded_levels} "
            f"coded levels; the codec needs 1 <= coded levels <= depth <= "
            f"{MAX_DEPTH}")
    most = int((8 * len(bs.payload) + MAX_BITS_PAST_END) * MAX_NODES_PER_BIT)
    if not 1 <= header.node_count <= most:
        raise CorruptStream(
            f"header declares {header.node_count} nodes; a coded tree has at "
            f"least its root, and a {len(bs.payload)}-byte payload at most {most}")
    if header.flags != _model_flags(model):
        raise CorruptStream(f"header flags {header.flags:#x} disagree with the "
                            f"model's {_model_flags(model):#x}")
    coded_levels = header.coded_levels
    dec = ArithmeticDecoder(bs.payload)

    def code(level, i, q):
        table = quantize_dist(q[0])
        if table_log is not None:
            table_log.append(table)
        try:
            sym = dec.decode(table) + 1
        except CorruptStream as exc:
            raise CorruptStream(f"level {level}, node {i}: {exc}") from None
        if dec.bits_past_end > MAX_BITS_PAST_END:
            raise CorruptStream(f"level {level}, node {i}: decoding read past the "
                                f"end of the {len(bs.payload)}-byte payload")
        return sym

    seq = _walk(model, header.depth, coded_levels, header.node_count, code)
    n = len(seq)
    if n != header.node_count:
        raise CorruptStream(
            f"level {coded_levels}, node {n - 1}: decoded {n} nodes; the "
            f"header declares {header.node_count}")
    voxels = reconstruct(seq, coded_levels)
    if coded_levels == header.depth and voxels.shape[0] != header.voxel_count:
        raise CorruptStream(
            f"level {coded_levels}, node {n - 1}: decoded {voxels.shape[0]} "
            f"voxels; the header declares {header.voxel_count}")
    crc = header.crc(len(bs.payload), seq.occupancy)
    if crc != header.checksum:
        raise CorruptStream(
            f"level {coded_levels}, node {n - 1}: checksum {crc:#010x} of the "
            f"header and decoded occupancy disagrees with the header's "
            f"{header.checksum:#010x}")
    return QuantizedPointCloud(depth=header.depth, voxels=voxels,
                               origin=header.origin, scale=header.scale)
