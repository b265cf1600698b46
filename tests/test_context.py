import numpy as np
import pytest

from conftest import FORWARD_CONFIGS
from octpcc.context import ContextAssembler, ContextConfig, GrowingContext
from octpcc.errors import InvalidInput
from octpcc.geometry import QuantizedPointCloud, quantize, synth
from octpcc.octree import ROOT_PARENT, build


def tiny_tree():
    """Depth-2 tree with four nodes, occupancies known by hand.

    voxels (0,0,0) (0,0,1) (0,3,0) (3,3,3):
      root: children at octants 0, 2, 7        -> occupancy 133
      child at octant 0: voxels at octants 0,1 -> occupancy 3
      child at octant 2: voxel at octant 2     -> occupancy 4
      child at octant 7: voxel at octant 7     -> occupancy 128
    """
    voxels = np.array([[0, 0, 0], [0, 0, 1], [0, 3, 0], [3, 3, 3]])
    return build(QuantizedPointCloud(depth=2, voxels=voxels,
                                     origin=np.zeros(3), scale=1.0))


def right_aligned(chains, n):
    """n slots holding chains in the last len(chains), zero before; and
    the mask of the filled slots."""
    slots = np.zeros((n,) + chains.shape[1:], dtype=chains.dtype)
    slots[n - len(chains):] = chains
    return slots, np.arange(n) >= n - len(chains)


def window(ctx, i):
    """Target i's N slots (the rows its band keeps, right-aligned) and
    their mask."""
    rows, band = ctx.window_block(i, i + 1)
    return right_aligned(rows[band[0]], ctx.cfg.n_window)


class TestWindowFor:
    def test_tiny_tree_hand_enumeration(self):
        seq = tiny_tree()
        assert seq.occupancy.tolist() == [133, 3, 4, 128]
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        slots, valid = window(ContextAssembler(seq, cfg), 3)
        assert valid.all()
        expect = np.array([
            [[133, 1, 0], [0, 0, 0]],    # root; ancestor padded
            [[3, 2, 0], [133, 1, 0]],
            [[4, 2, 2], [133, 1, 0]],
            [[0, 2, 7], [133, 1, 0]],    # target: own occupancy hidden
        ], dtype=np.int32)
        np.testing.assert_array_equal(slots, expect)

    def test_root_window_fully_padded(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        asm = ContextAssembler(seq, cfg)
        rows, band = asm.window_block(0, 1)
        assert band.tolist() == [[True]]
        assert len(rows) == 1  # no history row: the pad slots hold nothing
        np.testing.assert_array_equal(rows[0], [[0, 1, 0], [0, 0, 0]])
        assert window(asm, 0)[1].tolist() == [False, False, False, True]

    def test_sliding_property(self):
        """Adjacent windows share all predecessor content shifted by one."""
        qpc = quantize(synth("uniform", 300, seed=1), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=8, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        for i in range(10, 14):
            a, _ = window(asm, i)
            b, _ = window(asm, i + 1)
            np.testing.assert_array_equal(a[1:cfg.n_window - 1],
                                          b[0:cfg.n_window - 2])
            # the one new predecessor slot is node i with its true occupancy
            assert b[cfg.n_window - 2, 0, 0] == seq.occupancy[i]

    def test_out_of_range(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        asm = ContextAssembler(seq, cfg)
        with pytest.raises(InvalidInput):
            window(asm, 4)
        with pytest.raises(InvalidInput):
            window(asm, -1)

    def test_decode_time_availability(self):
        """Windows depend only on nodes before the target (plus its ancestors).

        Scrambling every occupancy at indices >= i must leave window i
        untouched: ancestors of i sit strictly before i in breadth-first
        order and the target's own occupancy is already masked to 0.
        """
        qpc = quantize(synth("gaussian_clusters", 400, seed=7), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=6, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        for i in (0, 3, 17, len(seq) - 1):
            scrambled = build(qpc)
            scrambled.occupancy[i:] = 199
            for clean, dirty in zip(
                    window(asm, i), window(ContextAssembler(scrambled, cfg), i)):
                np.testing.assert_array_equal(clean, dirty)

    def test_deterministic(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        a, _ = window(ContextAssembler(seq, cfg), 2)
        b, _ = window(ContextAssembler(seq, cfg), 2)
        np.testing.assert_array_equal(a, b)


class TestWindowBatch:
    def test_matches_individual_calls(self):
        qpc = quantize(synth("uniform", 200, seed=3), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=8, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        rows, band = asm.window_block(5, 8)
        assert band.shape == (3, len(rows))
        for b, i in enumerate(range(5, 8)):
            slots, single_valid = window(asm, i)
            np.testing.assert_array_equal(rows[band[b]], slots[single_valid])

    @pytest.mark.parametrize("cfg", [
        ContextConfig(n_window=8, k_ancestors=2),
        ContextConfig(n_window=1, k_ancestors=0)],
        ids=["global", "target_only"])
    def test_matches_padded_reference(self, cfg):
        """Each window vs a padded slot array built one target at a time."""
        seq = build(quantize(synth("uniform", 300, seed=3), 4))
        asm = ContextAssembler(seq, cfg)
        rows, band = asm.window_block(3, len(seq))
        n = cfg.n_window
        for b, i in enumerate(range(3, len(seq))):
            lo = max(0, i - (n - 1))
            chains = asm.chains[lo:i + 1].copy()
            chains[-1, 0, 0] = 0
            want = np.zeros((n,) + chains.shape[1:], dtype=np.int32)
            want[n - len(chains):] = chains
            slots, valid = right_aligned(rows[band[b]], n)
            np.testing.assert_array_equal(valid,
                                          np.arange(n) >= n - len(chains))
            np.testing.assert_array_equal(slots, want)

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_band_keeps_exactly_each_window(self, case):
        """Brute force over blocks that start at 0, mid-level and at a
        level boundary: the rows target t's band keeps are `window(t,
        window_start(t))`'s, in order, for every target."""
        cfg = FORWARD_CONFIGS[case].ctx
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        asm = ContextAssembler(seq, cfg)
        boundary = int(seq.level_offsets[3])
        for start, stop in ((0, len(seq)), (7, 40), (boundary - 2, boundary + 5)):
            rows, band = asm.window_block(start, stop)
            for b, t in enumerate(range(start, stop)):
                want, _ = asm.window(t, int(asm.window_start(t)))
                np.testing.assert_array_equal(rows[band[b]], want)

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_window_start_one_target_equals_elementwise(self, case):
        """One rule for a single node (the codec step) and for an array of
        targets (window_block)."""
        cfg = FORWARD_CONFIGS[case].ctx
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        asm = ContextAssembler(seq, cfg)
        every = asm.window_start(np.arange(len(seq)))
        assert [asm.window_start(t) for t in range(len(seq))] == every.tolist()

    @pytest.mark.parametrize("case", ["residual+branch", "target_only",
                                      "default_size"])
    def test_band_counts_match_slot_mask(self, case):
        """band.sum() is the number of filled slots of the (B, N) slot mask
        and band.shape[0] its number of windows: the benchmark harness's
        window_block probe reads both."""
        cfg = FORWARD_CONFIGS[case].ctx
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        asm = ContextAssembler(seq, cfg)
        for start, stop in ((0, 1), (0, 64), (30, 158), (len(seq) - 5, len(seq))):
            targets = np.arange(start, stop)
            _, band = asm.window_block(start, stop)
            filled = (targets - asm.window_start(targets) + 1).sum()
            assert band.sum() == filled
            assert band.shape[0] == stop - start

    def test_chunked_equals_one_by_one(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        asm = ContextAssembler(seq, cfg)

        def windows(start, stop):
            rows, band = asm.window_block(start, stop)
            return [rows[keep] for keep in band]

        whole = windows(0, len(seq))
        parts = windows(0, 2) + windows(2, 4)
        assert len(whole) == len(parts) == len(seq)
        for a, b in zip(whole, parts):
            np.testing.assert_array_equal(a, b)

    def test_level_feature_tracks_level_boundary(self):
        qpc = quantize(synth("uniform", 300, seed=2), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        boundary = int(seq.level_offsets[2])  # first node of level 3
        rows, band = ContextAssembler(seq, cfg).window_block(boundary - 1,
                                                             boundary + 1)
        for b, i in enumerate(range(boundary - 1, boundary + 1)):
            assert rows[band[b]][-1, 0, 1] == seq.level[i]
            assert rows[len(rows) - 2 + b, 0, 1] == seq.level[i]

    def test_empty_range_rejected(self):
        seq = tiny_tree()
        asm = ContextAssembler(seq, ContextConfig(n_window=4, k_ancestors=1))
        with pytest.raises(InvalidInput):
            asm.window_block(2, 2)


def per_node_table(seq, k):
    """The chains of a builder that appends one node at a time: a node's
    ancestors are its parent's first k chain rows (the root's stay PAD)."""
    chains = np.zeros((len(seq), k + 1, 3), dtype=np.int32)
    for i, (level, octant, parent, occ) in enumerate(zip(
            seq.level.tolist(), seq.octant.tolist(), seq.parent.tolist(),
            seq.occupancy.tolist())):
        if parent != ROOT_PARENT and k:
            chains[i, 1:] = chains[parent, :k]
        chains[i, 0] = (occ, level, octant)
    return chains


class TestGrowingContext:
    def test_matches_static_assembler(self):
        """Decoder-side windows, with the table grown a level at a time and
        each occupancy set once its node is coded, are bit-identical to
        encode-side."""
        qpc = quantize(synth("lidar_rings", 500, seed=5), 5)
        seq = build(qpc)
        cfg = ContextConfig(n_window=6, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        grow = GrowingContext(cfg)
        for level in range(1, seq.levels_present + 1):
            nodes = seq.level_slice(level)
            grow.add_node(level, seq.parent[nodes], seq.octant[nodes])
            assert grow.count == nodes.stop
            for i in range(nodes.start, nodes.stop):
                for a, g in zip(asm.window_block(i, i + 1),
                                grow.window_block(i, i + 1)):
                    np.testing.assert_array_equal(a, g)
                grow.set_occupancy(i, int(seq.occupancy[i]))

    def test_window_valid_is_all_true_at_every_length(self):
        """`window`'s valid slices one shared read-only array up to the
        full-scale window, and is still one True a row past it: a 2,500-row
        window is longer than any shared buffer."""
        seq = build(quantize(synth("lidar_rings", 20000, seed=1), 7))
        asm = ContextAssembler(seq, ContextConfig(n_window=4096, k_ancestors=1))
        last = len(seq) - 1
        for length in (1, 2, 64, 1023, 1024, 1025, 2500):
            rows, valid = asm.window(last, last + 1 - length)
            assert len(valid) == len(rows) == length
            assert valid.dtype == bool and valid.all()
            if length <= 1024:
                assert not valid.flags.writeable

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_table_matches_per_node_builder(self, k):
        """The level-at-a-time table equals one built node by node, over
        the 3,503 nodes of lidar_rings at depth 7."""
        seq = build(quantize(synth("lidar_rings", 20000, seed=1), 7))
        assert len(seq) == 3503
        asm = ContextAssembler(seq, ContextConfig(n_window=64, k_ancestors=k))
        chains = per_node_table(seq, k)
        assert asm.count == len(seq)
        assert asm.chains.dtype == chains.dtype
        np.testing.assert_array_equal(asm.chains, chains)
