import numpy as np
import pytest

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


class TestWindowFor:
    def test_tiny_tree_hand_enumeration(self):
        seq = tiny_tree()
        assert seq.occupancy.tolist() == [133, 3, 4, 128]
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        w = ContextAssembler(seq, cfg).window(3)
        assert w.valid.all()
        expect = np.array([
            [[133, 1, 0], [0, 0, 0]],    # root; ancestor padded
            [[3, 2, 0], [133, 1, 0]],
            [[4, 2, 2], [133, 1, 0]],
            [[0, 2, 7], [133, 1, 0]],    # target: own occupancy hidden
        ], dtype=np.int32)
        np.testing.assert_array_equal(w.slots, expect)

    def test_root_window_fully_padded(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        w = ContextAssembler(seq, cfg).window(0)
        assert w.valid.tolist() == [False, False, False, True]
        assert (w.slots[:3] == 0).all()
        np.testing.assert_array_equal(w.slots[3], [[0, 1, 0], [0, 0, 0]])

    def test_sliding_property(self):
        """Adjacent windows share all predecessor content shifted by one."""
        qpc = quantize(synth("uniform", 300, seed=1), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=8, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        for i in range(10, 14):
            a = asm.window(i)
            b = asm.window(i + 1)
            np.testing.assert_array_equal(a.slots[1:cfg.n_window - 1],
                                          b.slots[0:cfg.n_window - 2])
            # the one new predecessor slot is node i with its true occupancy
            assert b.slots[cfg.n_window - 2, 0, 0] == seq.occupancy[i]

    def test_out_of_range(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        asm = ContextAssembler(seq, cfg)
        with pytest.raises(InvalidInput):
            asm.window(4)
        with pytest.raises(InvalidInput):
            asm.window(-1)

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
            w_clean = asm.window(i)
            w_dirty = ContextAssembler(scrambled, cfg).window(i)
            np.testing.assert_array_equal(w_clean.slots, w_dirty.slots)
            np.testing.assert_array_equal(w_clean.valid, w_dirty.valid)

    def test_deterministic(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        a = ContextAssembler(seq, cfg).window(2)
        b = ContextAssembler(seq, cfg).window(2)
        np.testing.assert_array_equal(a.slots, b.slots)

    def test_strict_level_masks_earlier_levels(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1, strict_level=True)
        asm = ContextAssembler(seq, cfg)
        w = asm.window(1)  # first node of level 2: no same-level prior
        assert w.valid.tolist() == [False, False, False, True]
        w = asm.window(2)  # one same-level predecessor (node 1)
        assert w.valid.tolist() == [False, False, True, True]
        assert w.slots[2, 0, 0] == 3


class TestWindowBatch:
    def test_matches_individual_calls(self):
        qpc = quantize(synth("uniform", 200, seed=3), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=8, k_ancestors=2)
        asm = ContextAssembler(seq, cfg)
        slots, valid = asm.window_block(5, 8)
        assert slots.shape[0] == valid.shape[0] == 3
        for b, i in enumerate(range(5, 8)):
            single = asm.window(i)
            np.testing.assert_array_equal(slots[b], single.slots)
            np.testing.assert_array_equal(valid[b], single.valid)

    def test_chunked_equals_one_by_one(self):
        seq = tiny_tree()
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        asm = ContextAssembler(seq, cfg)
        whole = asm.window_block(0, len(seq))
        parts = [asm.window_block(0, 2), asm.window_block(2, 4)]
        for a, b in zip(whole, zip(*parts)):
            np.testing.assert_array_equal(a, np.concatenate(b))

    def test_level_feature_tracks_level_boundary(self):
        qpc = quantize(synth("uniform", 300, seed=2), 4)
        seq = build(qpc)
        cfg = ContextConfig(n_window=4, k_ancestors=1)
        boundary = int(seq.level_offsets[2])  # first node of level 3
        slots, _ = ContextAssembler(seq, cfg).window_block(boundary - 1,
                                                           boundary + 1)
        for b, i in enumerate(range(boundary - 1, boundary + 1)):
            assert slots[b, -1, 0, 1] == seq.level[i]

    def test_empty_range_rejected(self):
        seq = tiny_tree()
        asm = ContextAssembler(seq, ContextConfig(n_window=4, k_ancestors=1))
        with pytest.raises(InvalidInput):
            asm.window_block(2, 2)


class TestGrowingContext:
    def test_matches_static_assembler(self):
        """Decoder-side incremental windows are bit-identical to encode-side."""
        qpc = quantize(synth("lidar_rings", 500, seed=5), 5)
        seq = build(qpc)
        for cfg in (ContextConfig(n_window=6, k_ancestors=2),
                    ContextConfig(n_window=6, k_ancestors=2, strict_level=True)):
            asm = ContextAssembler(seq, cfg)
            grow = GrowingContext(cfg)
            grow.add_node(1, 0, ROOT_PARENT)
            next_node = 1
            for i in range(len(seq)):
                a = asm.window(i)
                g = grow.window(i)
                np.testing.assert_array_equal(a.slots, g.slots)
                np.testing.assert_array_equal(a.valid, g.valid)
                grow.set_occupancy(i, int(seq.occupancy[i]))
                # children become known once their parent's byte is decoded
                while next_node < len(seq) and seq.parent[next_node] == i:
                    grow.add_node(int(seq.level[next_node]),
                                  int(seq.octant[next_node]), i)
                    next_node += 1
