"""Octree construction and breadth-first serialization.

Levels are numbered 1 (root) .. depth.  A node at level L owns a cube of
side 2**(depth-L+1) voxels; its occupancy byte marks which of the 8 child
octants are non-empty.  Bit j of the occupancy corresponds to octant
j = 4*x_half + 2*y_half + z_half (LSB = octant 0); the conventional string
form "b7...b0" is MSB first, so '11111110' = 254 = octant 0 empty.

Nodes are serialized level by level; within a level, children of earlier
parents precede children of later parents and siblings appear in ascending
octant order.  That ordering equals sorting by the interleaved (x, y, z)
bit key built below, which is what lets construction stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geometry import QuantizedPointCloud


ROOT_PARENT = -1


@dataclass
class NodeSequence:
    """Breadth-first node stream of an octree.

    `depth` is the full resolution of the voxel grid; `level_offsets[L-1]`
    is the index of the first node of level L.  A truncated sequence (from
    a partial decode) simply carries fewer levels than `depth`.
    """

    depth: int
    occupancy: np.ndarray      # (n,) int32, values 1..255
    level: np.ndarray          # (n,) int32
    octant: np.ndarray         # (n,) int32
    parent: np.ndarray         # (n,) int64, ROOT_PARENT for the root
    level_offsets: np.ndarray  # (levels_present,) int64

    def __len__(self):
        return self.occupancy.shape[0]

    @property
    def levels_present(self) -> int:
        return self.level_offsets.shape[0]

    def level_slice(self, lvl: int) -> slice:
        if not (1 <= lvl <= self.levels_present):
            raise InvalidInput(f"level {lvl} not present")
        start = int(self.level_offsets[lvl - 1])
        end = int(self.level_offsets[lvl]) if lvl < self.levels_present else len(self)
        return slice(start, end)


def occupancy_code(child_mask) -> int:
    """Pack 8 child-occupied booleans into the occupancy byte (LSB = octant 0)."""
    mask = np.asarray(child_mask, dtype=bool)
    if mask.shape != (8,):
        raise InvalidInput("child mask must have exactly 8 entries")
    if not mask.any():
        raise InvalidInput("all-empty child mask has no occupancy code")
    return int((mask * (1 << np.arange(8))).sum())


def _interleave(voxels: np.ndarray, depth: int) -> np.ndarray:
    """Bit-interleaved sort key: per level a 3-bit octant digit, x highest."""
    key = np.zeros(voxels.shape[0], dtype=np.uint64)
    x, y, z = (voxels[:, 0].astype(np.uint64), voxels[:, 1].astype(np.uint64),
               voxels[:, 2].astype(np.uint64))
    for b in range(depth - 1, -1, -1):
        digit = (((x >> b) & 1) << 2) | (((y >> b) & 1) << 1) | ((z >> b) & 1)
        key = (key << np.uint64(3)) | digit
    return key


def build(qpc: QuantizedPointCloud) -> NodeSequence:
    """Serialize the voxel set of `qpc` into breadth-first octree nodes."""
    depth = qpc.depth
    keys = np.sort(_interleave(qpc.voxels, depth))
    occ_parts, lvl_parts, oct_parts, par_parts = [], [], [], []
    offsets = np.zeros(depth, dtype=np.int64)
    total = 0
    prev_prefixes = None
    prev_offset = 0
    for lvl in range(1, depth + 1):
        prefix = keys >> np.uint64(3 * (depth - lvl + 1))
        digit = (keys >> np.uint64(3 * (depth - lvl))) & np.uint64(7)
        starts = np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])
        node_prefix = prefix[starts]
        occ = np.bitwise_or.reduceat(
            (np.uint64(1) << digit).astype(np.uint64), starts)
        if lvl == 1:
            parent = np.full(1, ROOT_PARENT, dtype=np.int64)
            octant = np.zeros(1, dtype=np.int32)
        else:
            parent = prev_offset + np.searchsorted(prev_prefixes,
                                                   node_prefix >> np.uint64(3))
            octant = (node_prefix & np.uint64(7)).astype(np.int32)
        occ_parts.append(occ.astype(np.int32))
        lvl_parts.append(np.full(len(starts), lvl, dtype=np.int32))
        oct_parts.append(octant)
        par_parts.append(parent.astype(np.int64))
        offsets[lvl - 1] = total
        prev_prefixes = node_prefix
        prev_offset = total
        total += len(starts)
    return NodeSequence(
        depth=depth,
        occupancy=np.concatenate(occ_parts),
        level=np.concatenate(lvl_parts),
        octant=np.concatenate(oct_parts),
        parent=np.concatenate(par_parts),
        level_offsets=offsets,
    )


_OCT_OFFSETS = np.array([[(j >> 2) & 1, (j >> 1) & 1, j & 1] for j in range(8)],
                        dtype=np.int64)


def node_cells(seq: NodeSequence, levels: int) -> np.ndarray:
    """Cube coordinates (at resolution 2**(levels-1)) of the level-`levels` nodes."""
    cells = np.zeros((1, 3), dtype=np.int64)
    for lvl in range(2, levels + 1):
        sl = seq.level_slice(lvl)
        offset = int(seq.level_offsets[lvl - 2])
        cells = cells[seq.parent[sl] - offset] * 2 + _OCT_OFFSETS[seq.octant[sl]]
    return cells


def _expand_children(cells: np.ndarray, occ: np.ndarray):
    """Child cells (next resolution) implied by occupancy bytes, in node order."""
    bits = (occ[:, None] >> np.arange(8)) & 1
    counts = bits.sum(axis=1)
    parents = np.repeat(np.arange(len(occ)), counts)
    octants = np.tile(np.arange(8), len(occ))[bits.astype(bool).ravel()]
    return cells[parents] * 2 + _OCT_OFFSETS[octants], parents, octants


def reconstruct(seq: NodeSequence, levels: int) -> np.ndarray:
    """Voxel set (full resolution 2**depth) encoded by levels 1..`levels`.

    At full depth the result is the exact voxel set.  When truncated, the
    occupancy bytes of level `levels` give the occupied cells at resolution
    2**levels and each contributes its center voxel (floor of the midpoint).
    """
    if not (1 <= levels <= seq.levels_present):
        raise InvalidInput(f"levels must be in [1, {seq.levels_present}]")
    cells = node_cells(seq, levels)
    sl = seq.level_slice(levels)
    child_cells, _, _ = _expand_children(cells, seq.occupancy[sl])
    side = 1 << (seq.depth - levels)
    return child_cells * side + side // 2


def reconstruct_cloud(seq: NodeSequence, levels: int, origin, scale,
                      source_id: str = "") -> QuantizedPointCloud:
    """`reconstruct` wrapped back into a QuantizedPointCloud."""
    return QuantizedPointCloud(depth=seq.depth, voxels=reconstruct(seq, levels),
                               origin=origin, scale=scale, source_id=source_id)
