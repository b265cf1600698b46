"""End-to-end encode and decode drivers.

Both directions run the same per-node routine (the model's cached step
`ContextModel.predict`, which embeds and projects the target's row and
attends over the K/V rows it keeps for the window's already-coded nodes;
then quantize the distribution and code one symbol) in the same
breadth-first order, so the decoder sees bit-identical frequency tables.
Model weights travel out of band (checkpoint file); the bitstream carries a
digest so a mismatched model is rejected, and a header the model cannot
decode is refused as corrupt, before any symbol is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coder import (MAX_BITS_PAST_END, ArithmeticDecoder, ArithmeticEncoder,
                    Bitstream, BitstreamHeader, FLAG_BRANCH, FLAG_RESIDUAL,
                    HEADER_BYTES, quantize_dist)
from .context import ContextAssembler, GrowingContext
from .errors import ConfigError, CorruptStream, InvalidInput, ModelMismatch
from .geometry import MAX_DEPTH, QuantizedPointCloud, RawPointCloud, quantize
from .model import ContextModel, KVCache
from .octree import ROOT_PARENT, NodeSequence, build, reconstruct


@dataclass
class EncodeReport:
    total_bits: int
    header_bits: int
    payload_bits: int
    bpip: float                  # total bits / raw input point count
    per_level_bits: list         # payload bits attributed to each coded level
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


def encode(pc: RawPointCloud, depth: int, coded_levels: int,
           model: ContextModel, table_log=None):
    """Compress a raw cloud; returns (Bitstream, EncodeReport)."""
    t0 = time.perf_counter()
    if not (1 <= coded_levels <= depth):
        raise InvalidInput("need 1 <= coded_levels <= depth")
    if depth > MAX_DEPTH:
        raise ConfigError(
            f"depth {depth} exceeds the octree depth limit {MAX_DEPTH}")
    qpc = quantize(pc, depth)
    seq = build(qpc)
    if coded_levels < seq.levels_present:
        n_coded = int(seq.level_offsets[coded_levels])
    else:
        n_coded = len(seq)
    cache = KVCache(model.cfg, ContextAssembler(seq, model.cfg.ctx))
    enc = ArithmeticEncoder()
    ideal = 0.0
    per_level = []
    level_mark = 0
    cur_level = 1
    for i in range(n_coded):
        lvl = int(seq.level[i])
        if lvl != cur_level:
            per_level.append(enc.bits_emitted - level_mark)
            level_mark = enc.bits_emitted
            cur_level = lvl
        _, q, _ = model.predict(cache, i)
        table = quantize_dist(q)
        if table_log is not None:
            table_log.append(table.freq.copy())
        sym = int(seq.occupancy[i])
        enc.encode(table, sym - 1)
        ideal += -np.log2(q[sym - 1])
    payload = enc.finish()
    per_level.append(len(payload) * 8 - level_mark)
    header = BitstreamHeader(
        depth=depth, coded_levels=coded_levels, origin=qpc.origin,
        scale=qpc.scale, raw_point_count=len(pc), voxel_count=len(qpc),
        node_count=n_coded, model_digest=model.digest(),
        flags=_model_flags(model))
    bs = Bitstream(header=header, payload=payload)
    total_bits = HEADER_BYTES * 8 + len(payload) * 8
    report = EncodeReport(
        total_bits=total_bits, header_bits=HEADER_BYTES * 8,
        payload_bits=len(payload) * 8, bpip=total_bits / len(pc),
        per_level_bits=per_level, ideal_bits=float(ideal),
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
    if header.flags != _model_flags(model):
        raise CorruptStream(f"header flags {header.flags:#x} disagree with the "
                            f"model's {_model_flags(model):#x}")
    coded_levels = header.coded_levels
    grow = GrowingContext(model.cfg.ctx)
    cache = KVCache(model.cfg, grow)
    dec = ArithmeticDecoder(bs.payload)
    occupancy: list[int] = []
    levels: list[int] = []
    octants: list[int] = []
    parents: list[int] = []
    level_offsets = [0]
    grow.add_node(level=1, octant=0, parent=ROOT_PARENT)
    levels.append(1)
    octants.append(0)
    parents.append(ROOT_PARENT)
    level_nodes = [0]
    for lvl in range(1, coded_levels + 1):
        for i in level_nodes:
            _, q, _ = model.predict(cache, i)
            table = quantize_dist(q)
            if table_log is not None:
                table_log.append(table.freq.copy())
            sym = dec.decode(table) + 1
            if dec.reader.bits_past_end > MAX_BITS_PAST_END:
                raise CorruptStream(f"level {lvl}, node {i}: decoding read past the "
                                    f"end of the {len(bs.payload)}-byte payload")
            grow.set_occupancy(i, sym)
            occupancy.append(sym)
        if lvl == coded_levels:
            break
        next_nodes = []
        for i in level_nodes:
            occ = occupancy[i]
            for octant in range(8):
                if occ >> octant & 1:
                    j = grow.add_node(level=lvl + 1, octant=octant, parent=i)
                    levels.append(lvl + 1)
                    octants.append(octant)
                    parents.append(i)
                    next_nodes.append(j)
            if len(levels) > header.node_count:
                raise CorruptStream(
                    f"level {lvl}, node {i}: decoded tree exceeds the declared "
                    f"node count {header.node_count}")
        level_offsets.append(len(level_nodes) + level_offsets[-1])
        level_nodes = next_nodes
    if len(occupancy) != header.node_count:
        raise CorruptStream(
            f"level {coded_levels}, node {len(occupancy) - 1}: decoded "
            f"{len(occupancy)} nodes; the header declares {header.node_count}")
    seq = NodeSequence(
        depth=header.depth,
        occupancy=np.array(occupancy, dtype=np.int32),
        level=np.array(levels, dtype=np.int32),
        octant=np.array(octants, dtype=np.int32),
        parent=np.array(parents, dtype=np.int64),
        level_offsets=np.array(level_offsets, dtype=np.int64))
    voxels = reconstruct(seq, coded_levels)
    if coded_levels == header.depth and voxels.shape[0] != header.voxel_count:
        raise CorruptStream(
            f"level {coded_levels}, node {len(occupancy) - 1}: decoded "
            f"{voxels.shape[0]} voxels; the header declares {header.voxel_count}")
    return QuantizedPointCloud(depth=header.depth, voxels=voxels,
                               origin=header.origin, scale=header.scale)
