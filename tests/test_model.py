import numpy as np
import pytest

from conftest import MALFORMED_CONFIGS, write_malformed_checkpoint
from octpcc import nn
from octpcc.context import ContextAssembler
from octpcc.errors import ConfigError, InvalidInput
from octpcc.geometry import quantize, synth
from octpcc.model import (ContextModel, ModelConfig, TrainSchedule, loss_ce,
                          loss_mse, occupancy_bits, train, zero_head_layers)
from octpcc.octree import build

LOG2_255 = np.log2(255.0)

def tiny_model(seed=3, **overrides):
    return ContextModel.create(ModelConfig.tiny(seed=seed, **overrides))


def tiny_corpus(n=60, seed=2, depth=3):
    return [build(quantize(synth("gaussian_clusters", n, seed=seed), depth))]


class TestForward:
    def test_identical_windows_give_zero_residual_and_same_dist(self):
        model = tiny_model()
        seq = tiny_corpus()[0]
        w = ContextAssembler(seq, model.cfg.ctx).window(2)
        wc1, q1, _ = model.predict(w.slots, w.valid, None)
        wc2, q2, _ = model.predict(w.slots, w.valid, wc1)
        np.testing.assert_array_equal(wc1, wc2)
        np.testing.assert_array_equal(q1, q2)  # wc - wc_prev is exactly zero

    def test_zeroed_output_layers_give_uniform(self):
        model = zero_head_layers(tiny_model())
        seq = tiny_corpus()[0]
        w = ContextAssembler(seq, model.cfg.ctx).window(1)
        _, dist, branch = model.predict(w.slots, w.valid, None)
        np.testing.assert_allclose(dist, 1.0 / 255.0, atol=1e-12)
        np.testing.assert_allclose(branch, 0.5, atol=1e-12)
        assert abs(dist.sum() - 1.0) < 1e-6

    def test_residual_matches_independent_recomputation(self):
        """r for adjacent windows equals separately computed wc_i - wc_{i-1}."""
        model = tiny_model()
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        wa = asm.window(4)
        wb = asm.window(5)
        wc_a = model._attend(model._embed(wa.slots), wa.valid)
        wc_b = model._attend(model._embed(wb.slots), wb.valid)
        r_oracle = wc_b - wc_a
        assert np.linalg.norm(r_oracle) > 0
        # drive the public path and recover r from the head input equivalence
        wc1, q1, _ = model.predict(wa.slots, wa.valid, None)
        wc2, q2, _ = model.predict(wb.slots, wb.valid, wc1)
        q_manual, _, _ = model._heads(wc_b, r_oracle)
        np.testing.assert_allclose(q2, q_manual, rtol=0, atol=1e-12)

    def test_distribution_valid_for_random_windows(self):
        model = tiny_model(seed=9)
        seq = tiny_corpus(200, seed=5, depth=4)[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        wc_prev = None
        for i in range(0, len(seq), 7):
            w = asm.window(i)
            wc_prev, q, o = model.predict(w.slots, w.valid, wc_prev)
            assert abs(q.sum() - 1.0) < 1e-6
            assert q.min() > 0
            assert (o > 0).all() and (o < 1).all()

    def test_batched_path_agrees_with_per_node_path(self):
        """Training-side batched forward vs the codec's per-node chain."""
        model = tiny_model(seed=7)
        seq = tiny_corpus(120, seed=8, depth=4)[0]
        q_batch, _ = model.distributions(seq)
        asm = ContextAssembler(seq, model.cfg.ctx)
        wc_prev = None
        for i in range(len(seq)):
            w = asm.window(i)
            wc_prev, q, _ = model.predict(w.slots, w.valid, wc_prev)
            np.testing.assert_allclose(q, q_batch[i], rtol=0, atol=1e-9)

    def test_tape_ce_matches_inference_chain(self):
        model = tiny_model(seed=4)
        seq = tiny_corpus(80, seed=3)[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        n = min(12, len(seq))
        slots, valid = asm.window_block(0, n)
        labels = seq.occupancy[:n]
        ce, mse = model.batch_losses(model.params.tape(), slots, valid,
                                     labels, False)
        wc_prev = None
        bits = []
        for i in range(n):
            w = asm.window(i)
            wc_prev, q, o = model.predict(w.slots, w.valid, wc_prev)
            bits.append(loss_ce(q, int(labels[i])))
        assert abs(float(ce.data) - np.mean(bits)) < 1e-9


class TestLosses:
    def test_ce_uniform_closed_form(self):
        q = np.full(255, 1.0 / 255.0)
        assert abs(loss_ce(q, 17) - LOG2_255) < 1e-12
        assert abs(LOG2_255 - 7.9944) < 1e-3

    def test_ce_confident_correct_near_zero(self):
        eps = 1e-9
        q = np.full(255, eps / 254.0)
        q[41] = 1.0 - eps
        assert loss_ce(q, 42) < 1e-8

    def test_ce_blind_to_off_class_mass(self):
        """Equal true-class probability means exactly equal loss, no matter
        how the remaining mass is distributed."""
        true_class = 200
        p_true = 0.3
        qa = np.full(255, (1.0 - p_true) / 254.0)
        qa[true_class - 1] = p_true
        qb = np.zeros(255)
        qb[true_class - 1] = p_true
        qb[0] = 1.0 - p_true  # all remaining mass on one distant class
        assert loss_ce(qa, true_class) == loss_ce(qb, true_class)

    def test_mse_exact_match(self):
        l = occupancy_bits(170).astype(float)
        assert loss_mse(l, l) == 0.0

    def test_mse_all_half(self):
        o = np.full(8, 0.5)
        assert abs(loss_mse(o, occupancy_bits(99)) - 0.25) < 1e-12

    def test_mse_matches_direct_formula(self, rng):
        o = rng.uniform(0.01, 0.99, size=8)
        l = occupancy_bits(rng.integers(1, 256))
        want = sum((float(li) - oi) ** 2 for li, oi in zip(l, o)) / 8.0
        assert abs(loss_mse(o, l) - want) < 1e-12


class TestFusion:
    def test_branch_off_main_head_ignores_branch_params(self):
        """With the branch disabled, CE gradients for branch weights vanish."""
        model = tiny_model(seed=5, enable_branch=False)
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        slots, valid = asm.window_block(0, 6)
        labels = seq.occupancy[:6]
        tape = model.params.tape()
        ce, _ = model.batch_losses(tape, slots, valid, labels, False)
        ce.backward()
        for name in model.params.names():
            if name.startswith("branch."):
                g = tape[name].grad
                assert g is None or not g.any(), name

    def test_branch_on_main_head_uses_branch_params(self):
        model = tiny_model(seed=5, enable_branch=True)
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        slots, valid = asm.window_block(0, 6)
        labels = seq.occupancy[:6]
        tape = model.params.tape()
        ce, _ = model.batch_losses(tape, slots, valid, labels, False)
        ce.backward()
        assert tape["branch.w2"].grad is not None
        assert np.abs(tape["branch.w2"].grad).max() > 0


class TestTrain:
    def test_zero_lr_leaves_params_and_losses_flat(self):
        model = tiny_model(seed=1)
        before = {n: model.params[n].copy() for n in model.params.names()}
        corpus = tiny_corpus()
        sched = TrainSchedule(branch_epochs=2, main_epochs=2, lr=0.0)
        trace = train(model, corpus, sched)
        for name, val in before.items():
            np.testing.assert_array_equal(model.params[name], val)
        # identical parameters -> each epoch repeats the same loss values
        stage2 = [r.ce_loss for r in trace if r.stage == 2]
        half = len(stage2) // 2
        assert stage2[:half] == stage2[half:]

    def test_fixed_seed_bit_identical_trace(self):
        sched = TrainSchedule(branch_epochs=1, main_epochs=1)
        traces = []
        for _ in range(2):
            model = tiny_model(seed=13)
            traces.append(train(model, tiny_corpus(), sched))
        assert traces[0] == traces[1]

    def test_stage_freezes(self):
        """Stage 1 only moves branch params; stage 2 only the rest."""
        model = tiny_model(seed=2)
        corpus = tiny_corpus()
        start = {n: model.params[n].copy() for n in model.params.names()}
        train(model, corpus, TrainSchedule(branch_epochs=1, main_epochs=0))
        after1 = {n: model.params[n].copy() for n in model.params.names()}
        for name in model.params.names():
            if name.startswith("branch."):
                assert not np.array_equal(after1[name], start[name]), name
            else:
                np.testing.assert_array_equal(after1[name], start[name])
        train(model, corpus, TrainSchedule(branch_epochs=0, main_epochs=1))
        for name in model.params.names():
            if name.startswith("branch."):
                np.testing.assert_array_equal(model.params[name], after1[name])
            else:
                assert not np.array_equal(model.params[name], after1[name]), name

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInput):
            train(tiny_model(), [], TrainSchedule())

    def test_loss_decreases_on_structured_data(self):
        model = tiny_model(seed=21)
        corpus = [build(quantize(synth("plane", 600, seed=4), 5))]
        trace = train(model, corpus,
                      TrainSchedule(branch_epochs=1, main_epochs=4))
        stage2 = [r.ce_loss for r in trace if r.stage == 2]
        k = len(stage2) // 4
        assert np.mean(stage2[-k:]) < np.mean(stage2[:k])

    def test_degenerate_corpus_drives_ce_toward_zero(self):
        """A single-symbol corpus is learned to well under a bit per node."""
        side = np.arange(32)
        voxels = np.array(np.meshgrid(side, side, side)).reshape(3, -1).T
        from octpcc.geometry import QuantizedPointCloud
        seq = build(QuantizedPointCloud(depth=5, voxels=voxels,
                                        origin=np.zeros(3), scale=1.0))
        model = tiny_model(seed=1)
        trace = train(model, [seq],
                      TrainSchedule(branch_epochs=2, main_epochs=12, lr=0.01))
        stage2 = [r.ce_loss for r in trace if r.stage == 2]
        assert np.mean(stage2[-20:]) < 0.5
        assert model.sequence_entropy(seq) / len(seq) < 0.5


class TestSequenceEntropy:
    def test_uniform_model_closed_form(self):
        model = zero_head_layers(tiny_model())
        seq = tiny_corpus(100, seed=6)[0]
        got = model.sequence_entropy(seq)
        assert abs(got - len(seq) * LOG2_255) < 1e-6 * len(seq)

    def test_nonnegative(self):
        model = tiny_model(seed=30)
        seq = tiny_corpus(50, seed=7)[0]
        assert model.sequence_entropy(seq) >= 0.0


class TestCheckpointing:
    def test_save_load_digest_roundtrip(self, tmp_path):
        model = tiny_model(seed=15)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = ContextModel.load(path)
        assert loaded.digest() == model.digest()
        assert loaded.cfg == model.cfg
        for name in model.params.names():
            np.testing.assert_array_equal(loaded.params[name],
                                          model.params[name])

    def test_ablation_lattice_shares_schema(self, tmp_path):
        digests = set()
        names = None
        for res in (False, True):
            for br in (False, True):
                m = tiny_model(seed=1, enable_residual=res, enable_branch=br)
                if names is None:
                    names = m.params.names()
                assert m.params.names() == names
                digests.add(m.digest())
        assert len(digests) == 4  # config echo distinguishes the variants

    def test_fresh_model_digest_is_stable(self):
        """Parameter order, initialization and the config echo (including
        the fixed attn_layers/layer_norm keys) are all part of the digest
        that existing checkpoints and bitstreams were written with."""
        cfg = ModelConfig.tiny(seed=0)
        assert cfg.to_dict()["attn_layers"] == 1
        assert cfg.to_dict()["layer_norm"] is False
        assert ContextModel.create(cfg).digest().hex() == (
            "4568fc4c99584990c1db7cf3b58579b79c977351a75a84041a6e603a1ace8606")

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_rejected(self, tmp_path, case):
        path = tmp_path / "bad.ckpt"
        write_malformed_checkpoint(path, case)
        with pytest.raises(ConfigError):
            ContextModel.load(path)

    def test_tensor_missing_from_checkpoint_rejected(self, tmp_path):
        model = tiny_model(seed=15)
        params = nn.ParamStore()
        for name, value in model.params.items():
            if name != "attn0.wo":
                params.add(name, value)
        path = tmp_path / "bad.ckpt"
        nn.save_checkpoint(path, params, model.cfg.to_dict())
        with pytest.raises(ConfigError, match="attn0.wo"):
            ContextModel.load(path)

    def test_variant_names(self):
        assert ModelConfig.tiny(enable_residual=False,
                                enable_branch=False).variant == "plain"
        assert ModelConfig.tiny(enable_residual=True,
                                enable_branch=False).variant == "residual"
        assert ModelConfig.tiny(enable_residual=False,
                                enable_branch=True).variant == "branch"
        assert ModelConfig.tiny().variant == "residual+branch"
