"""Context window assembly for the autoregressive occupancy model.

For a target node i the model sees N slots: the N-1 most recent nodes of
the global breadth-first order (each expanded with its K ancestors) and,
in the final slot, the target's own ancestor chain with the target's
occupancy zeroed out (it is exactly what is being predicted, unknown at
decode time).  Slots that would refer to nodes before the start of the
stream are masked.

GrowingContext is the one window table; it grows a level at a time.  The
codec walk adds a level once the level above is coded and sets each
occupancy as its node is coded, on both sides; ContextAssembler adds a whole
sequence's levels the same way, setting each level's occupancies at once,
for the trainer and analysis.  Every feature visible in window i is a
function of nodes decoded strictly before i (plus the target's ancestors,
which are decoded before any node of the target's level), so the decoder
rebuilds the identical window.

A window is not copied slot by slot: it is a run of per-node rows (each
node's chain, or the target's with occupancy PAD).  The codec's step
(`model.ContextModel.predict`) asks `window` once a step for the rows of the
history nodes it has not cached yet (usually the previous node, or a run of
targets but its last) and the step's last target; its K/V cache embeds the
target rows straight from `chains`, a block of nodes at a time.
`window_block` gives training and analysis a block's rows once and its
windows as a band mask over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geometry import MAX_DEPTH
from .octree import NodeSequence

PAD = 0  # padding value for occupancy / level / octant
# The nodes of a full depth-MAX_DEPTH octree: a wider window sees no more, and
# every window bound fits in int64.
_TREE_NODES = (8 ** MAX_DEPTH - 1) // 7
# `window`'s valid up to 1,024 rows (the full-scale window): a slice, no copy.
_ALL_VALID = np.ones(1024, dtype=bool)
_ALL_VALID.flags.writeable = False


@dataclass(frozen=True)
class ContextConfig:
    """N window slots, K ancestors per slot."""

    n_window: int = 64
    k_ancestors: int = 2

    def __post_init__(self):
        if not 1 <= self.n_window <= _TREE_NODES or self.k_ancestors < 0:
            raise InvalidInput(f"need 1 <= n_window <= {_TREE_NODES} and "
                               "k_ancestors >= 0")


class GrowingContext:
    """Per-node ancestor chains, appended in breadth-first order.

    A level's nodes are appended together once their parents' occupancies
    are known (when the level above is coded); each node's own occupancy is
    filled in once it is coded.
    """

    def __init__(self, cfg: ContextConfig):
        self.cfg = cfg
        self.chains = np.zeros((0, cfg.k_ancestors + 1, 3), dtype=np.int32)
        self.count = 0

    def add_node(self, level: int, parent, octant) -> None:
        """Append one level's nodes, node j under stream node parent[j] at
        octant[j]; its ancestors are the parent's chain but the last (PAD
        on the root level)."""
        rows = np.zeros((len(octant),) + self.chains.shape[1:], dtype=np.int32)
        if level > 1:
            rows[:, 1:] = self.chains[parent, :-1]
        rows[:, 0, 1] = level
        rows[:, 0, 2] = octant
        self.chains = np.concatenate((self.chains, rows))
        self.count = len(self.chains)

    def set_occupancy(self, i, occ) -> None:
        """Node i's occupancy; or, with i a slice, its nodes'."""
        self.chains[i, 0, 0] = occ

    def window_start(self, i):
        """First node of target i's window history: nodes [lo, i) fill its
        slots.  Elementwise over an array of targets; the builtin max keeps
        one target's call cheap."""
        clip = np.maximum if isinstance(i, np.ndarray) else max
        return clip(0, i - (self.cfg.n_window - 1))

    def window(self, i: int, start: int):
        """(rows, valid): the chains of history nodes [start, i), then the
        target's with its occupancy PAD; every row is valid.  The caller
        passes start >= window_start(i), which it has already computed."""
        if not (0 <= start <= i < self.count):
            raise InvalidInput(f"node {i} with slot start {start} out of range")
        rows = self.chains[start:i + 1].copy()
        rows[-1, 0, 0] = PAD  # target occupancy is the unknown
        n = len(rows)
        return rows, (_ALL_VALID[:n] if n <= len(_ALL_VALID)
                      else np.ones(n, dtype=bool))

    def window_block(self, start: int, stop: int):
        """(rows, band) for targets [start, stop), order preserved.

        rows: the chains of nodes [window_start(start), stop - 1), then each
        target's with its occupancy PAD.  band[b, j] holds if row j is in
        target b's window: a history node in [window_start(t), t), or b's
        own row.
        """
        if not (0 <= start < stop <= self.count):
            raise InvalidInput("empty or out-of-range window batch")
        targets = np.arange(start, stop)
        lo = self.window_start(targets)
        first = int(lo[0])  # window_start never decreases along the stream
        own = self.chains[start:stop].copy()
        own[:, 0, 0] = PAD  # target occupancy is the unknown
        rows = np.concatenate((self.chains[first:stop - 1], own))
        nodes = np.arange(first, stop - 1)
        history = (nodes >= lo[:, None]) & (nodes < targets[:, None])
        band = np.concatenate((history, np.eye(len(targets), dtype=bool)), axis=1)
        return rows, band


class ContextAssembler(GrowingContext):
    """The window table of a whole, known sequence (training and analysis)."""

    def __init__(self, seq: NodeSequence, cfg: ContextConfig):
        super().__init__(cfg)
        for level in range(1, seq.levels_present + 1):
            nodes = seq.level_slice(level)
            self.add_node(level, seq.parent[nodes], seq.octant[nodes])
            self.chains[nodes, 0, 0] = seq.occupancy[nodes]
