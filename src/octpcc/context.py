"""Context window assembly for the autoregressive occupancy model.

For a target node i the model sees N slots: the N-1 most recent nodes of
the global breadth-first order (each expanded with its K ancestors) and,
in the final slot, the target's own ancestor chain with the target's
occupancy zeroed out (it is exactly what is being predicted, unknown at
decode time).  Slots that would refer to nodes before the
start of the stream are zero-padded and masked.

GrowingContext is the one window table.  The decoder fills it node by
node as symbols arrive; ContextAssembler fills it from a whole sequence
through the same add_node/set_occupancy calls, in the same order, for the
encoder, the trainer and analysis.  Every feature visible in window i is a
function of nodes decoded strictly before i (plus the target's ancestors,
which are decoded before any node of the target's level), so the decoder
rebuilds the identical window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .octree import ROOT_PARENT, NodeSequence

PAD = 0  # padding value for occupancy / level / octant


@dataclass(frozen=True)
class ContextConfig:
    """N window slots, K ancestors per slot.

    strict_level masks predecessors from earlier levels out of the window
    (same-level siblings only); the default keeps the global window.
    """

    n_window: int = 64
    k_ancestors: int = 2
    strict_level: bool = False

    def __post_init__(self):
        if self.n_window < 1 or self.k_ancestors < 0:
            raise InvalidInput("need n_window >= 1 and k_ancestors >= 0")


@dataclass
class ContextWindow:
    slots: np.ndarray        # (N, K+1, 3) int32: (occupancy, level, octant)
    valid: np.ndarray        # (N,) bool
    target_index: int


class GrowingContext:
    """Per-node ancestor chains, appended in breadth-first order.

    Nodes are appended as soon as their level/octant/parent are known (when
    the parent's occupancy is decoded); each node's own occupancy is filled
    in once it is decoded.
    """

    def __init__(self, cfg: ContextConfig):
        self.cfg = cfg
        self._cap = 1024
        k = cfg.k_ancestors
        self.chains = np.zeros((self._cap, k + 1, 3), dtype=np.int32)
        self.level_start = np.zeros(self._cap, dtype=np.int64)
        self.count = 0
        self._cur_level = 0
        self._cur_level_start = 0

    def add_node(self, level: int, octant: int, parent: int) -> int:
        if self.count == self._cap:
            self._cap *= 2
            self.chains = np.resize(self.chains, (self._cap,) + self.chains.shape[1:])
            self.level_start = np.resize(self.level_start, self._cap)
        i = self.count
        if level != self._cur_level:
            self._cur_level = level
            self._cur_level_start = i
        k = self.cfg.k_ancestors
        if parent != ROOT_PARENT and k:
            self.chains[i, 1:] = self.chains[parent, :k]
        self.chains[i, 0] = (PAD, level, octant)
        self.level_start[i] = self._cur_level_start
        self.count += 1
        return i

    def set_occupancy(self, i: int, occ: int) -> None:
        self.chains[i, 0, 0] = occ

    def window(self, i: int) -> ContextWindow:
        if not (0 <= i < self.count):
            raise InvalidInput(f"node index {i} out of range")
        n = self.cfg.n_window
        slots = np.zeros((n, self.cfg.k_ancestors + 1, 3), dtype=np.int32)
        valid = np.zeros(n, dtype=bool)
        lo = max(0, i - (n - 1))
        if self.cfg.strict_level:
            lo = max(lo, int(self.level_start[i]))
        m = i - lo
        if m:
            slots[n - 1 - m:n - 1] = self.chains[lo:i]
            valid[n - 1 - m:n - 1] = True
        slots[n - 1] = self.chains[i]
        slots[n - 1, 0, 0] = PAD  # target occupancy is the unknown
        valid[n - 1] = True
        return ContextWindow(slots=slots, valid=valid, target_index=i)

    def window_block(self, start: int, stop: int):
        """Stacked slots/valid for targets [start, stop); order preserved."""
        if not (0 <= start < stop <= self.count):
            raise InvalidInput("empty or out-of-range window batch")
        count = stop - start
        n = self.cfg.n_window
        slots = np.zeros((count, n, self.cfg.k_ancestors + 1, 3), dtype=np.int32)
        valid = np.zeros((count, n), dtype=bool)
        for b, i in enumerate(range(start, stop)):
            w = self.window(i)
            slots[b] = w.slots
            valid[b] = w.valid
        return slots, valid


class ContextAssembler(GrowingContext):
    """The window table of a whole, known sequence (encode / training side)."""

    def __init__(self, seq: NodeSequence, cfg: ContextConfig):
        super().__init__(cfg)
        for level, octant, parent, occ in zip(
                seq.level.tolist(), seq.octant.tolist(), seq.parent.tolist(),
                seq.occupancy.tolist()):
            self.set_occupancy(self.add_node(level, octant, parent), occ)
