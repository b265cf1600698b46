import numpy as np
import pytest

from octpcc.context import ContextAssembler
from octpcc.errors import InsufficientClasses, InvalidInput
from octpcc.geometry import QuantizedPointCloud, quantize, synth
from octpcc.metrics import (ClassFeatureBank, bpip, chamfer,
                            collect_features, d1_psnr, interclass_stats)
from octpcc.model import ContextModel, ModelConfig
from octpcc.octree import build


def qpc_from_voxels(voxels, depth, scale=1.0):
    return QuantizedPointCloud(depth=depth, voxels=np.asarray(voxels),
                               origin=np.zeros(3), scale=scale)


def brute_force_nn_sq(pa, pb):
    """O(n^2) symmetric mean squared nearest-neighbor distance."""
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)
    return (d2.min(axis=1).mean() + d2.min(axis=0).mean()) / 2.0


def tiny_model(seed=3, **overrides):
    return ContextModel.create(ModelConfig.tiny(seed=seed, **overrides))


class TestInterClassStats:
    def test_two_class_hand_computation(self):
        bank = ClassFeatureBank(
            counts=np.array([1, 1] + [0] * 253, dtype=np.int64),
            means=np.vstack([[1.0, 0.0], [0.0, 1.0], np.zeros((253, 2))]))
        stats = interclass_stats(bank)
        # ordered pairs incl. diagonal: (0 + sqrt2 + sqrt2 + 0) / 4
        assert abs(stats.ad - np.sqrt(2) / 2) < 1e-12
        assert abs(stats.acos - 0.5) < 1e-12  # (1 + 0 + 0 + 1) / 4
        assert stats.classes_present == 2

    def test_identical_vectors(self):
        counts = np.zeros(255, dtype=np.int64)
        counts[:5] = 3
        means = np.zeros((255, 4))
        means[:5] = [1.0, 2.0, 3.0, 4.0]
        stats = interclass_stats(ClassFeatureBank(counts=counts, means=means))
        assert stats.ad == 0.0
        assert abs(stats.acos - 1.0) < 1e-12

    def test_label_permutation_invariant(self, rng):
        counts = np.zeros(255, dtype=np.int64)
        idx = rng.choice(255, size=6, replace=False)
        counts[idx] = 1
        means = np.zeros((255, 8))
        means[idx] = rng.normal(size=(6, 8))
        a = interclass_stats(ClassFeatureBank(counts=counts, means=means))
        perm = rng.permutation(255)
        b = interclass_stats(ClassFeatureBank(counts=counts[perm],
                                              means=means[perm]))
        assert abs(a.ad - b.ad) < 1e-12
        assert abs(a.acos - b.acos) < 1e-12

    def test_scale_covariance(self, rng):
        counts = np.zeros(255, dtype=np.int64)
        counts[10:14] = 2
        means = np.zeros((255, 6))
        means[10:14] = rng.normal(size=(4, 6))
        base = interclass_stats(ClassFeatureBank(counts=counts, means=means))
        scaled = interclass_stats(ClassFeatureBank(counts=counts,
                                                   means=3.0 * means))
        assert abs(scaled.ad - 3.0 * base.ad) < 1e-9
        assert abs(scaled.acos - base.acos) < 1e-12

    def test_needs_two_classes(self):
        counts = np.zeros(255, dtype=np.int64)
        counts[0] = 4
        with pytest.raises(InsufficientClasses):
            interclass_stats(ClassFeatureBank(counts=counts,
                                              means=np.zeros((255, 3))))


class TestCollectFeatures:
    def test_single_class_corpus(self):
        # full cube: every node's occupancy is 255
        side = np.arange(4)
        voxels = np.array(np.meshgrid(side, side, side)).reshape(3, -1).T
        seq = build(qpc_from_voxels(voxels, 2))
        assert (seq.occupancy == 255).all()
        bank = collect_features(tiny_model(), [seq])
        assert bank.classes_present == 1
        assert bank.counts[254] == len(seq)

    def test_mean_of_identical_contexts_is_the_vector(self):
        model = tiny_model()
        voxels = np.array(np.meshgrid(*[np.arange(4)] * 3)).reshape(3, -1).T
        seq = build(qpc_from_voxels(voxels, 2))
        bank = collect_features(model, [seq])
        _, a1 = model.distributions(seq)
        row = bank.means[254]
        np.testing.assert_allclose(row, a1.mean(axis=0), atol=1e-12)

    def test_matches_per_node_recomputation(self):
        """Bank means vs brute-force forward of each context independently."""
        model = tiny_model(seed=8)
        seq = build(quantize(synth("gaussian_clusters", 200, seed=5), 4))
        bank = collect_features(model, [seq])
        asm = ContextAssembler(seq, model.cfg.ctx)
        sums = np.zeros((255, model.cfg.d_hidden_main))
        counts = np.zeros(255, dtype=np.int64)
        wc_prev = None
        for i in range(len(seq)):
            w = asm.window(i)
            x = model._embed(w.slots)
            wc = model._attend(x, w.valid)
            r = (wc - wc_prev) if (model.cfg.enable_residual
                                   and wc_prev is not None) else np.zeros_like(wc)
            _, _, a1 = model._heads(wc, r)
            cls = int(seq.occupancy[i]) - 1
            sums[cls] += a1
            counts[cls] += 1
            wc_prev = wc
        present = counts > 0
        np.testing.assert_array_equal(bank.counts, counts)
        np.testing.assert_allclose(bank.means[present],
                                   sums[present] / counts[present, None],
                                   atol=1e-9)

    def test_empty_corpus(self):
        with pytest.raises(InvalidInput):
            collect_features(tiny_model(), [])


class TestChamfer:
    def test_identical_clouds_zero(self):
        q = quantize(synth("uniform", 200, seed=1), 4)
        assert chamfer(q, q) == 0.0

    def test_single_voxel_pair(self):
        a = qpc_from_voxels([[0, 0, 0]], 3)
        b = qpc_from_voxels([[1, 0, 0]], 3)
        assert abs(chamfer(a, b) - 1.0) < 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(3):
            va = np.unique(rng.integers(0, 32, size=(100, 3)), axis=0)
            vb = np.unique(rng.integers(0, 32, size=(100, 3)), axis=0)
            scale = 0.03125
            a = qpc_from_voxels(va, 5, scale)
            b = qpc_from_voxels(vb, 5, scale)
            want = brute_force_nn_sq(va * scale, vb * scale)
            assert abs(chamfer(a, b) - want) < 1e-9

    def test_symmetry(self, rng):
        a = quantize(synth("plane", 150, seed=3), 5)
        b = quantize(synth("sphere", 150, seed=3), 5)
        b = QuantizedPointCloud(depth=5, voxels=b.voxels, origin=a.origin,
                                scale=a.scale)
        assert chamfer(a, b) == chamfer(b, a)

    def test_frame_mismatch(self):
        a = qpc_from_voxels([[0, 0, 0]], 3, scale=1.0)
        b = qpc_from_voxels([[0, 0, 0]], 3, scale=2.0)
        with pytest.raises(InvalidInput):
            chamfer(a, b)


class TestD1Psnr:
    def test_identical_clouds_sentinel(self):
        q = quantize(synth("uniform", 100, seed=2), 4)
        assert d1_psnr(q, q) == float("inf")

    def test_unit_distance_closed_form(self):
        a = qpc_from_voxels([[0, 0, 0]], 10)
        b = qpc_from_voxels([[1, 0, 0]], 10)
        want = 10 * np.log10(3 * 1023 ** 2)
        got = d1_psnr(a, b)
        assert abs(got - want) < 1e-9
        assert abs(got - 64.97) < 0.01

    def test_matches_brute_force(self, rng):
        va = np.unique(rng.integers(0, 16, size=(100, 3)), axis=0)
        vb = np.unique(rng.integers(0, 16, size=(100, 3)), axis=0)
        a = qpc_from_voxels(va, 4)
        b = qpc_from_voxels(vb, 4)
        mse = brute_force_nn_sq(va.astype(float), vb.astype(float))
        want = 10 * np.log10(3 * 15 ** 2 / mse)
        assert abs(d1_psnr(a, b) - want) < 1e-6

    def test_symmetry(self, rng):
        va = np.unique(rng.integers(0, 16, size=(60, 3)), axis=0)
        vb = np.unique(rng.integers(0, 16, size=(60, 3)), axis=0)
        a = qpc_from_voxels(va, 4)
        b = qpc_from_voxels(vb, 4)
        assert d1_psnr(a, b) == d1_psnr(b, a)


class TestBpip:
    def test_simple_ratio(self):
        assert bpip(1000, 500) == 2.0

    def test_zero_points_rejected(self):
        with pytest.raises(InvalidInput):
            bpip(100, 0)
