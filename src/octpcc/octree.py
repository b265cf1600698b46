"""Octree construction and breadth-first serialization.

Levels are numbered 1 (root) .. depth.  A node at level L owns a cube of
side 2**(depth-L+1) voxels; its occupancy byte marks which of the 8 child
octants are non-empty.  Bit j of the occupancy corresponds to octant
j = 4*x_half + 2*y_half + z_half (LSB = octant 0); the conventional string
form "b7...b0" is MSB first, so '11111110' = 254 = octant 0 empty.

Nodes are serialized level by level; within a level, children of earlier
parents precede children of later parents and siblings appear in ascending
octant order.  `children` is the one statement of that order: `build` reads
each level's occupancy bytes off the sorted interleaved (x, y, z) bit key
and takes every parent and octant from `children`, as the codec walk does,
and `reconstruct` grows the occupied cells through it.
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

    @classmethod
    def from_levels(cls, depth: int, levels) -> "NodeSequence":
        """The stream of per-level (occupancy, parent, octant) arrays, level 1
        first; parents are stream indices, as in the result."""
        occ, parent, octant = (np.concatenate(part) for part in zip(*levels))
        sizes = [len(level[0]) for level in levels]
        return cls(depth=depth, occupancy=occ.astype(np.int32),
                   level=np.repeat(np.arange(1, len(levels) + 1, dtype=np.int32),
                                   sizes),
                   octant=octant.astype(np.int32), parent=parent.astype(np.int64),
                   level_offsets=np.cumsum([0] + sizes[:-1], dtype=np.int64))

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
    levels = []
    parent, octant = np.full(1, ROOT_PARENT), np.zeros(1, dtype=np.int64)
    first = 0  # stream index of the level's first node
    for lvl in range(1, depth + 1):
        prefix = keys >> np.uint64(3 * (depth - lvl + 1))
        digit = (keys >> np.uint64(3 * (depth - lvl))) & np.uint64(7)
        starts = np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])
        occ = np.bitwise_or.reduceat(np.uint64(1) << digit, starts).astype(np.int64)
        levels.append((occ, parent, octant))
        parent, octant = children(occ)
        parent += first
        first += len(occ)
    return NodeSequence.from_levels(depth, levels)


_OCT_OFFSETS = np.array([[(j >> 2) & 1, (j >> 1) & 1, j & 1] for j in range(8)],
                        dtype=np.int64)


def children(occ: np.ndarray):
    """(parent, octant) of the nodes that occupancy bytes `occ` imply on the
    next level, in stream order: parents in order, each one's octants
    ascending.  `parent` indexes `occ`."""
    return np.nonzero((occ[:, None] >> np.arange(8)) & 1)


def occupied_cells(seq: NodeSequence, levels: int) -> np.ndarray:
    """Cube coordinates (at resolution 2**levels) of the cells that the
    occupancy bytes of levels 1..`levels` mark occupied, in stream order."""
    cells = np.zeros((1, 3), dtype=np.int64)
    for lvl in range(1, levels + 1):
        parent, octant = children(seq.occupancy[seq.level_slice(lvl)])
        cells = cells[parent] * 2 + _OCT_OFFSETS[octant]
    return cells


def reconstruct(seq: NodeSequence, levels: int) -> np.ndarray:
    """Voxel set (full resolution 2**depth) encoded by levels 1..`levels`.

    At full depth the result is the exact voxel set.  When truncated, the
    occupancy bytes of level `levels` give the occupied cells at resolution
    2**levels and each contributes its center voxel (floor of the midpoint).
    """
    if not (1 <= levels <= seq.levels_present):
        raise InvalidInput(f"levels must be in [1, {seq.levels_present}]")
    side = 1 << (seq.depth - levels)
    return occupied_cells(seq, levels) * side + side // 2
