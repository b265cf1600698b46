import numpy as np
import pytest

from octpcc.errors import InvalidInput
from octpcc.geometry import QuantizedPointCloud, quantize, synth
from octpcc.octree import (ROOT_PARENT, NodeSequence, build, children,
                           occupied_cells, reconstruct)

from conftest import brute_force_level_occupancies


def qpc_from_voxels(voxels, depth):
    return QuantizedPointCloud(depth=depth, voxels=np.asarray(voxels),
                               origin=np.zeros(3), scale=1.0)


def as_set(voxels):
    return set(map(tuple, np.asarray(voxels)))


class TestBuild:
    def test_full_root(self):
        """All 8 children occupied encodes as the single byte 255."""
        voxels = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        seq = build(qpc_from_voxels(voxels, 1))
        assert len(seq) == 1
        assert seq.occupancy[0] == 255
        assert seq.level[0] == 1 and seq.octant[0] == 0 and seq.parent[0] == -1

    def test_single_voxel_chain(self):
        seq = build(qpc_from_voxels([(0, 0, 0)], 3))
        assert len(seq) == 3
        assert (seq.occupancy == 1).all()
        assert (seq.octant == 0).all()
        assert seq.level.tolist() == [1, 2, 3]
        assert seq.parent.tolist() == [-1, 0, 1]

    def test_roundtrip_random(self, rng):
        voxels = np.unique(rng.integers(0, 32, size=(500, 3)), axis=0)
        qpc = qpc_from_voxels(voxels, 5)
        seq = build(qpc)
        assert as_set(reconstruct(seq, 5)) == as_set(qpc.voxels)

    def test_breadth_first_order(self, rng):
        qpc = quantize(synth("gaussian_clusters", 800, seed=4), 5)
        seq = build(qpc)
        assert (np.diff(seq.level) >= 0).all()
        for lvl in range(2, 6):
            sl = seq.level_slice(lvl)
            parents = seq.parent[sl]
            assert (np.diff(parents) >= 0).all()  # earlier parents first
            same = np.diff(parents) == 0
            assert (np.diff(seq.octant[sl])[same] > 0).all()  # siblings ascend

    def test_node_count_identity(self, rng):
        qpc = quantize(synth("uniform", 2000, seed=5), 6)
        seq = build(qpc)
        popcount = np.unpackbits(seq.occupancy.astype(np.uint8)[:, None],
                                 axis=1).sum(axis=1)
        for lvl in range(1, 6):
            children = (seq.level == lvl + 1).sum()
            assert children == popcount[seq.level == lvl].sum()

    def test_occupancies_match_set_oracle(self, rng):
        qpc = quantize(synth("sphere", 1500, seed=6), 5)
        seq = build(qpc)
        for lvl in (2, 4, 5):
            cells = occupied_cells(seq, lvl - 1)
            sl = seq.level_slice(lvl)
            want = brute_force_level_occupancies(qpc.voxels, 5, lvl)
            got = {tuple(c): int(o) for c, o in zip(cells, seq.occupancy[sl])}
            assert got == want

    def test_independent_of_voxel_order(self, rng):
        voxels = np.unique(rng.integers(0, 16, size=(200, 3)), axis=0)
        a = build(qpc_from_voxels(voxels, 4))
        b = build(qpc_from_voxels(voxels[rng.permutation(len(voxels))], 4))
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        np.testing.assert_array_equal(a.parent, b.parent)

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_children_and_from_levels_reproduce_build(self, rng, depth):
        """Growing the tree from the root with `children` visits build's
        nodes in build's order (the encoder indexes build's occupancy by the
        codec walk's node index), and from_levels reassembles the stream.
        build takes its parents and octants from `children`, so the first
        half holds by construction; test_occupancies_match_set_oracle guards
        that `children`'s order agrees with build's sort key."""
        voxels = np.unique(rng.integers(0, 1 << depth, size=(300, 3)), axis=0)
        seq = build(qpc_from_voxels(voxels, depth))
        parent, octant = [ROOT_PARENT], [0]
        for lvl in range(1, depth):
            sl = seq.level_slice(lvl)
            p, o = children(seq.occupancy[sl])
            parent.extend(sl.start + p)
            octant.extend(o)
        np.testing.assert_array_equal(seq.parent, parent)
        np.testing.assert_array_equal(seq.octant, octant)
        slices = [seq.level_slice(lvl) for lvl in range(1, depth + 1)]
        again = NodeSequence.from_levels(depth, [
            (seq.occupancy[sl], seq.parent[sl], seq.octant[sl]) for sl in slices])
        assert again.depth == seq.depth
        for field in ("occupancy", "level", "octant", "parent", "level_offsets"):
            got, want = getattr(again, field), getattr(seq, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestOccupancyCode:
    def test_msb_first_string_convention(self):
        # '11111110' -> octant 0 empty, octants 1..7 occupied
        parent, octant = children(np.array([254]))
        np.testing.assert_array_equal(parent, 0)
        np.testing.assert_array_equal(octant, np.arange(1, 8))

    def test_octant_zero_only(self):
        parent, octant = children(np.array([1]))
        np.testing.assert_array_equal(parent, [0])
        np.testing.assert_array_equal(octant, [0])


class TestReconstruct:
    def test_full_depth_exact(self, rng):
        qpc = quantize(synth("lidar_rings", 3000, seed=2), 6)
        seq = build(qpc)
        assert as_set(reconstruct(seq, 6)) == as_set(qpc.voxels)

    def test_corner_block_truncation(self):
        """A dense 2x2x2 corner block collapses to the hand-computed center."""
        voxels = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        seq = build(qpc_from_voxels(voxels, 3))
        assert as_set(reconstruct(seq, 2)) == {(1, 1, 1)}
        # one level higher: cell side 4, center voxel (2, 2, 2)
        assert as_set(reconstruct(seq, 1)) == {(2, 2, 2)}

    def test_truncation_monotone(self, rng):
        qpc = quantize(synth("uniform", 1200, seed=8), 6)
        seq = build(qpc)
        counts = [reconstruct(seq, lvl).shape[0] for lvl in range(1, 7)]
        assert counts == sorted(counts)

    def test_levels_out_of_range(self):
        seq = build(qpc_from_voxels([(0, 0, 0)], 3))
        with pytest.raises(InvalidInput):
            reconstruct(seq, 0)
        with pytest.raises(InvalidInput):
            reconstruct(seq, 4)
