import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import FORWARD_CONFIGS, MALFORMED_CONFIGS, write_malformed_checkpoint
from octpcc import nn
from octpcc.coder import quantize_dist
from octpcc.context import ContextAssembler, GrowingContext
from octpcc.errors import ConfigError, InvalidInput, NumericalError, ParseError
from octpcc.geometry import quantize, synth
from octpcc.model import (ANALYSIS_CHUNK, CodecWeights, ContextModel, KVCache,
                          ModelConfig, _attend_one, _attend_step, _windows,
                          TraceRecord, TrainSchedule, branch_param_names,
                          main_param_names, train, write_trace,
                          zero_head_layers)
from octpcc.octree import ROOT_PARENT, build
from octpcc.pipeline import ENCODE_BLOCK

LOG2_255 = np.log2(255.0)

def tiny_model(seed=3, **overrides):
    return ContextModel.create(ModelConfig.tiny(seed=seed, **overrides))


def tiny_corpus(n=60, seed=2, depth=3):
    return [build(quantize(synth("gaussian_clusters", n, seed=seed), depth))]


def predict_one(model, cache, i):
    """The codec's step for target i alone: its (wc, q, o) rows."""
    wc, q, o = model.predict(cache, i, i + 1)
    return wc[0], q[0], None if o is None else o[0]


def predict_all(model, seq, upto=None, step=1, nodes=None):
    """The codec's cached step over nodes range(0, upto, step), one target
    a step: (wc, q, o) per node, through a cache sized for `nodes` nodes
    (default: all of seq)."""
    cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx),
                    len(seq) if nodes is None else nodes)
    nodes = range(0, len(seq) if upto is None else upto, step)
    return [predict_one(model, cache, i) for i in nodes]


def assert_batched_matches_cached(model, seq):
    """The batched pass runs in float64 and the cached step in float32, so
    q agrees to float32 rounding (measured up to 4e-7 relative), and a
    table the analysis' q would give is at most one count off the step's;
    analysis feeds no coder."""
    q_batch = model.distributions(seq)[0]
    for i, (_, q, _) in enumerate(predict_all(model, seq)):
        np.testing.assert_allclose(q, q_batch[i], rtol=2e-6, atol=0)
        assert np.abs(quantize_dist(q) - quantize_dist(q_batch[i])).max() <= 1


def gather_attention(model, asm, start, stop):
    """Weighted contexts of targets [start, stop) by the gather form the
    band replaced, in plain numpy: each target's window rows copied into N
    right-aligned slots, pad slots masked, and attention batched over
    (target, head)."""
    rows, _ = asm.window_block(start, stop)
    P, cfg = model.params, model.cfg
    n, heads, d = cfg.ctx.n_window, cfg.heads, cfg.d_model
    dh = d // heads
    targets = np.arange(start, stop)
    lo = asm.window_start(targets)
    nodes = targets[:, None] + np.arange(1 - n, 1)
    valid = nodes >= lo[:, None]
    index = np.where(valid, nodes - int(lo[0]), 0)
    index[:, -1] = len(rows) - len(targets) + np.arange(len(targets))
    x = model._embed(rows)
    k = x @ P["attn0.wk"] + P["attn0.bk"]
    v = x @ P["attn0.wv"] + P["attn0.bv"]

    def split(t):  # (B, slots, d) -> (B, H, slots, dh)
        return t.reshape(len(t), -1, heads, dh).swapaxes(1, 2)

    q = split(x[index[:, -1:]] @ P["attn0.wq"] + P["attn0.bq"])
    scores = q @ split(k[index]).swapaxes(-1, -2) / np.sqrt(dh)
    weights = nn.softmax_np(np.where(valid[:, None, None], scores, -np.inf))
    ctx = (weights @ split(v[index])).swapaxes(1, 2).reshape(len(targets), d)
    return ctx @ P["attn0.wo"] + P["attn0.bo"]


def numpy_and_blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} with {blas['name']} {blas['version']}"


@pytest.mark.parametrize("size", ["tiny", "default", "full_scale"])
def test_codec_ops_are_batch_invariant(size):
    """The numpy behaviour the codec step rests on: every matmul of the
    step gives a target's row the same bits inside a run of targets as
    alone, the decoder's call, and as a plain vector @ matrix.  Runs are as
    long as the encoder's (ENCODE_BLOCK, capped by the cache's batch), the
    window is full, rows are sliced as the step slices them, and every
    input has the weights' dtype, float32, as in the step.  A change in
    numpy's or the BLAS's dispatch fails here first, not as a
    CorruptStream."""
    base = {"tiny": ModelConfig.tiny(), "default": ModelConfig(),
            "full_scale": ModelConfig.full_scale()}[size]
    why = f"{numpy_and_blas()}: a target's floats depend on its run"
    rng = np.random.default_rng(5)
    cache = KVCache(ContextModel.create(base), GrowingContext(base.ctx), 1)
    run = min(256, cache.batch)
    dtype = cache.weights.kvq.dtype
    assert dtype == np.float32

    def draw(shape, uniform=False):
        x = rng.uniform(size=shape) if uniform else rng.normal(size=shape)
        return x.astype(dtype)

    def rows_alone_equal(x, w):  # x: (run, 1, m), sliced as in the step
        together = x @ w
        for b in range(run):
            np.testing.assert_array_equal(together[b], (x[b:b + 1] @ w)[0],
                                          err_msg=why)
            np.testing.assert_array_equal(together[b, 0], x[b, 0] @ w,
                                          err_msg=why)

    d, hm = base.d_model, base.d_hidden_main
    rows_alone_equal(draw((run, 1, d)), cache.weights.kvq)
    for residual in (False, True):
        for branch in (False, True):
            w = CodecWeights(ContextModel.create(
                replace(base, enable_residual=residual, enable_branch=branch)))
            rows_alone_equal(draw((run, 1, len(w.w1))), w.w1)
            a = draw((run, 1, w.w1.shape[1]))
            rows_alone_equal(a[..., :hm], w.w2_main)
            if branch:
                rows_alone_equal(a[..., hm:], w.branch_w2)
                rows_alone_equal(draw((run, 1, 8), uniform=True), w.w2_branch)

    n = base.ctx.n_window - 1
    buffer = draw((run + n + 3, 2 * d))
    own = draw((run, 3 * d))
    query = own[:, 2 * d:].reshape(run, base.heads, 1, -1)
    own_score = draw((run, base.heads, 1, 1))
    together = _attend_step(query, own_score, own[:, d:2 * d],
                            _windows(buffer, 2, run, n))
    for b in range(run):
        alone = _attend_step(query[b:b + 1], own_score[b:b + 1],
                             own[b:b + 1, d:2 * d], _windows(buffer, 2 + b, 1, n))
        np.testing.assert_array_equal(together[b], alone[0], err_msg=why)
        # the decoder's form: no target axis, the history a transposed slice
        one = _attend_one(query[b], own_score[b], own[b, d:2 * d],
                          buffer[2 + b:2 + b + n].T)
        np.testing.assert_array_equal(together[b, 0], one, err_msg=why)


class TestForward:
    def test_identical_windows_give_zero_residual_and_same_dist(self):
        model = tiny_model()
        seq = tiny_corpus()[0]
        # the same weights with residuals off: r = 0 always
        plain = ContextModel(replace(model.cfg, enable_residual=False),
                             model.params)
        steps = []
        for m in (model, plain):
            cache = KVCache(m, ContextAssembler(seq, m.cfg.ctx), len(seq))
            for i in range(3):
                predict_one(m, cache, i)
            # node 2 twice more, its row embedded alone both times
            steps.append([predict_one(m, cache, 2) for _ in range(2)])
        (wc1, _, _), (wc2, q2, _) = steps[0]
        # the same wc, so wc - wc_prev is exactly zero the second time, and
        # q is the one residuals off give
        np.testing.assert_array_equal(wc1, wc2)
        np.testing.assert_array_equal(wc2, steps[1][1][0])
        np.testing.assert_array_equal(q2, steps[1][1][1])

    def test_zeroed_output_layers_give_uniform(self):
        model = zero_head_layers(tiny_model())
        seq = tiny_corpus()[0]
        _, dist, branch = predict_all(model, seq, 2)[1]
        np.testing.assert_allclose(dist, 1.0 / 255.0, atol=1e-12)
        np.testing.assert_allclose(branch, 0.5, atol=1e-12)
        assert abs(dist.sum() - 1.0) < 1e-6

    def test_residual_matches_independent_recomputation(self):
        """r for adjacent windows equals separately computed wc_i - wc_{i-1}."""
        model = tiny_model()
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        wc_a = model._attend_block(asm.window_block(4, 5))[0]
        wc_b = model._attend_block(asm.window_block(5, 6))[0]
        r_oracle = wc_b - wc_a
        assert np.linalg.norm(r_oracle) > 0
        # drive the public path and recover r from the head input equivalence
        _, q2, _ = predict_all(model, seq, 6)[5]
        q_manual, _, _ = model._heads(wc_b, r_oracle)
        np.testing.assert_allclose(q2, q_manual, rtol=2e-6, atol=0)  # float32

    def test_distribution_valid_for_random_windows(self):
        model = tiny_model(seed=9)
        seq = tiny_corpus(200, seed=5, depth=4)[0]
        for _, q, o in predict_all(model, seq):
            assert abs(q.sum() - 1.0) < 1e-6
            assert q.min() > 0
            assert (o > 0).all() and (o < 1).all()

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_batched_path_agrees_with_per_node_path(self, case):
        """The codec's cached step vs the batched forward of training and
        analysis.  It rests on the slot embedding having no positional term
        and the target being the only query."""
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=7))
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        assert len(seq) >= 3 * model.cfg.ctx.n_window
        assert_batched_matches_cached(model, seq)

    @pytest.mark.parametrize("case", ["residual+branch", "default_size"])
    def test_batched_path_agrees_across_analysis_chunks(self, case):
        """As above on a sequence of several ANALYSIS_CHUNK blocks, where
        each block after the first recomputes the window before it to seed
        its first residual."""
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=7))
        seq = build(quantize(synth("plane", 20000, seed=1), 6))
        assert len(seq) > 2 * ANALYSIS_CHUNK
        assert_batched_matches_cached(model, seq)

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_band_attention_matches_gather_reference(self, case):
        """Every block's wc, lead blocks (one extra window first) included,
        against the gathered-window attention."""
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=7))
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        asm = ContextAssembler(seq, model.cfg.ctx)
        leads = set()
        for start, stop, block, lead in model.blocks(asm, 48):
            np.testing.assert_allclose(
                model._attend_block(block),
                gather_attention(model, asm, start - lead, stop),
                rtol=0, atol=1e-13)
            leads.add(lead)
        assert leads == ({False, True} if model.cfg.enable_residual
                         else {False})

    def test_skipped_nodes_are_cached_in_one_batch(self):
        """Predicting every fifth node makes each step cache five history
        rows at once, across the compactions of a 2N-1 row buffer (N=8).
        Without residuals q depends on the window alone, so it equals, bit
        for bit, the q of one-target steps over every node through a cache
        that never compacts."""
        model = tiny_model(seed=7, enable_residual=False)
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        n = model.cfg.ctx.n_window
        every = predict_all(model, seq)[::5]
        skipping = predict_all(model, seq, step=5, nodes=2 * n - 1)
        for (_, want, _), (_, got, _) in zip(every, skipping, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS) + ["full_scale"])
    def test_runs_of_targets_equal_one_target_steps(self, case):
        """Stepping in runs, as the encoder does (from node 0 on, up to
        ENCODE_BLOCK and the cache's batch, within a level), gives every
        target's c, q and o bit for bit as stepping one target at a time, as
        the decoder does: the run form and the one-target form have no op
        whose floats depend on the run.  The runs cover growing windows (the
        stream's first N - 1 nodes), so some run's windows differ in length,
        as well as the run that straddles into full windows and runs of full
        ones.  At full scale (N = 1,024, runs of 16) the stream is plane
        1,000 at depth 7, 2,044 nodes, so runs of full windows form too;
        tables alone would round away a difference in the last bits."""
        if case == "full_scale":
            model = ContextModel.create(ModelConfig.full_scale(seed=7))
            seq = build(quantize(synth("plane", 1000, seed=3), 7))
            assert len(seq) == 2044
        else:
            model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=7))
            seq = build(quantize(synth("lidar_rings", 1500, seed=8), 6))
        cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
        run = min(ENCODE_BLOCK, cache.batch)
        nodes = np.arange(len(seq))
        lengths = nodes - cache.ctx.window_start(nodes)
        full = model.cfg.ctx.n_window - 1
        steps, runs, i = [], [], 0
        while i < len(seq):
            j = min(i + run, seq.level_slice(seq.level[i]).stop)
            steps.append(model.predict(cache, i, j))
            runs.append(set(lengths[i:j]))
            i = j
        assert len(steps) < len(seq)
        assert any(r == {full} for r in runs)  # a run of full windows
        if full:  # N = 1 has no growing window
            assert any(len(r) > 1 and full in r for r in runs)  # straddles
        for got, want in zip(zip(*steps), zip(*predict_all(model, seq))):
            if want[0] is None:  # o with the branch off
                assert set(got) == {None}
            else:
                np.testing.assert_array_equal(np.concatenate(got),
                                              np.stack(want))

    def test_codec_step_runs_in_float32(self):
        """Every float the codec's step keeps or returns is float32: the
        lowered weights, the K/V buffer, and c, q and o of one-target steps
        and of runs, the one that straddles from growing into full windows
        (whose contexts reach the heads through a buffer of their own)
        included.  A float64 array anywhere would run the step's products in
        float64."""
        model = tiny_model(seed=7)
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
        arrays = {name: value.dtype
                  for name, value in vars(cache.weights).items()
                  if isinstance(value, np.ndarray)}
        assert arrays.pop("offsets") == np.int32
        assert len(arrays) == 11
        assert set(arrays.values()) == {np.dtype(np.float32)}
        assert cache.kv.dtype == np.float32
        n = model.cfg.ctx.n_window
        for i, j in [(0, 1), (n - 4, n + 4), (n + 4, n + 12), (n + 12, n + 13)]:
            for out in model.predict(cache, i, j):
                assert out.dtype == np.float32 and len(out) == j - i

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_cache_size_does_not_change_predictions(self, case):
        """A cache that holds the whole stream and one of 2N-1 rows, which
        compacts, attend over the same rows: wc and q agree bit for bit."""
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=7))
        seq = build(quantize(synth("gaussian_clusters", 300, seed=8), 5))
        n = model.cfg.ctx.n_window
        assert len(seq) >= 3 * n
        whole = predict_all(model, seq)
        compacting = predict_all(model, seq, nodes=2 * n - 1)
        for (wc_a, q_a, _), (wc_b, q_b, _) in zip(whole, compacting, strict=True):
            np.testing.assert_array_equal(wc_a, wc_b)
            np.testing.assert_array_equal(q_a, q_b)
            np.testing.assert_array_equal(quantize_dist(q_a), quantize_dist(q_b))

    def test_cache_holds_no_more_rows_than_the_stream(self):
        """A full-scale window (N=1024) over a lidar cloud at depth 5 (about
        270 nodes) keeps one row a node, not 2(N-1) + batch."""
        model = ContextModel.create(ModelConfig.full_scale())
        cfg = model.cfg
        seq = build(quantize(synth("lidar_rings", 20000, seed=1), 5))
        cache = KVCache(model, ContextAssembler(seq, cfg.ctx), len(seq))
        assert cache.kv.shape == (len(seq), 2 * cfg.d_model)
        assert len(seq) < 2 * (cfg.ctx.n_window - 1) + cache.batch

    def test_cached_step_needs_nodes_in_order(self):
        model = tiny_model()
        cache = KVCache(model, GrowingContext(model.cfg.ctx), 3)
        cache.ctx.add_node(1, np.array([ROOT_PARENT]), np.array([0]))
        cache.ctx.add_node(2, np.array([0, 0]), np.array([0, 3]))
        model.predict(cache, 0, 1)
        with pytest.raises(InvalidInput, match="not coded"):
            model.predict(cache, 1, 2)  # node 0's occupancy is still unknown
        cache.ctx.set_occupancy(0, 9)
        cache.ctx.set_occupancy(1, 5)
        model.predict(cache, 2, 3)  # node 1 unpredicted: its row is still added
        with pytest.raises(InvalidInput, match="next node"):
            model.predict(cache, 1, 2)
        with pytest.raises(InvalidInput, match="next node"):
            model.predict(cache, 3, 4)  # not in the context table

    def test_run_is_at_most_the_cache_batch(self):
        """A run of batch + 1 targets is refused, which keeps its stacked
        (targets, heads, N) float32 scores within 256 KB; a run of batch
        targets whose growing windows differ in length is a step, and gives
        each target's q as one-target steps do."""
        model = ContextModel.create(ModelConfig.full_scale(seed=7))
        seq = build(quantize(synth("lidar_rings", 20000, seed=1), 5))
        cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
        batch = cache.batch
        assert batch == 16
        model.predict(cache, 0, 1)
        with pytest.raises(InvalidInput, match=f"more than {batch}"):
            model.predict(cache, 1, 2 + batch)
        _, q, _ = model.predict(cache, 1, 1 + batch)
        np.testing.assert_array_equal(
            q, [q for _, q, _ in predict_all(model, seq, 1 + batch)[1:]])

    def test_tape_ce_matches_inference_chain(self):
        model = tiny_model(seed=4)
        seq = tiny_corpus(80, seed=3)[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        n = min(12, len(seq))
        block = asm.window_block(0, n)
        labels = seq.occupancy[:n]
        ce, mse = model.batch_losses(model.params.tape(), block, labels, False)
        bits = [-np.log2(q[int(labels[i]) - 1])
                for i, (_, q, _) in enumerate(predict_all(model, seq, n))]
        assert abs(float(ce.data) - np.mean(bits)) < 1e-9


def zero_head_losses():
    """batch_losses of a zero-head model (uniform q, branch outputs 0.5)."""
    model = zero_head_layers(tiny_model())
    seq = tiny_corpus()[0]
    block = ContextAssembler(seq, model.cfg.ctx).window_block(0, 10)
    return model.batch_losses(model.params.tape(), block, seq.occupancy[:10],
                              False)


class TestLosses:
    def test_ce_uniform_closed_form(self):
        ce, _ = zero_head_losses()
        assert abs(float(ce.data) - LOG2_255) < 1e-12
        assert abs(LOG2_255 - 7.9944) < 1e-3

    def test_mse_all_half(self):
        _, mse = zero_head_losses()
        assert abs(float(mse.data) - 0.25) < 1e-12

    def test_mse_matches_direct_formula(self):
        """The tape's MSE against bit j = octant j of each label, computed
        per node from the codec's branch outputs."""
        model = tiny_model(seed=4)
        seq = tiny_corpus(80, seed=3)[0]
        n = min(12, len(seq))
        block = ContextAssembler(seq, model.cfg.ctx).window_block(0, n)
        labels = seq.occupancy[:n]
        _, mse = model.batch_losses(model.params.tape(), block, labels, False)
        want = [sum((((int(labels[i]) >> j) & 1) - o[j]) ** 2
                    for j in range(8)) / 8.0
                for i, (_, _, o) in enumerate(predict_all(model, seq, n))]
        assert abs(float(mse.data) - np.mean(want)) < 1e-12


class TestFusion:
    def test_branch_off_main_head_ignores_branch_params(self):
        """With the branch disabled, CE gradients for branch weights vanish."""
        model = tiny_model(seed=5, enable_branch=False)
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        block = asm.window_block(0, 6)
        labels = seq.occupancy[:6]
        tape = model.params.tape()
        ce, _ = model.batch_losses(tape, block, labels, False)
        ce.backward()
        for name in model.params.names():
            if name.startswith("branch."):
                g = tape[name].grad
                assert g is None or not g.any(), name

    def test_branch_on_main_head_uses_branch_params(self):
        model = tiny_model(seed=5, enable_branch=True)
        seq = tiny_corpus()[0]
        asm = ContextAssembler(seq, model.cfg.ctx)
        block = asm.window_block(0, 6)
        labels = seq.occupancy[:6]
        tape = model.params.tape()
        ce, _ = model.batch_losses(tape, block, labels, False)
        ce.backward()
        assert tape["branch.w2"].grad is not None
        assert np.abs(tape["branch.w2"].grad).max() > 0


def train_on_full_tape(model, corpus, schedule):
    """`train` with every batch backpropagated into every parameter and only
    the stage's group passed to Adam: the reference for the stage-scoped
    tape."""
    cfg = model.cfg
    trace = []
    for stage in (1, 2):
        epochs = schedule.branch_epochs if stage == 1 else schedule.main_epochs
        group = (branch_param_names if stage == 1 else main_param_names)(
            model.params)
        for epoch in range(epochs):
            lr = schedule.lr * schedule.lr_decay ** epoch
            for seq in corpus:
                asm = ContextAssembler(seq, cfg.ctx)
                for start in range(0, len(seq), schedule.batch_size):
                    stop = min(start + schedule.batch_size, len(seq))
                    lead = cfg.enable_residual and start > 0
                    block = asm.window_block(start - (1 if lead else 0), stop)
                    tape = model.params.tape()
                    ce, mse = model.batch_losses(tape, block,
                                                 seq.occupancy[start:stop], lead)
                    (mse if stage == 1 else ce).backward()
                    nn.adam_step(model.params,
                                 {name: tape[name].grad for name in group
                                  if tape[name].grad is not None}, lr)
                    trace.append(TraceRecord(stage, len(trace), float(ce.data),
                                             float(mse.data), lr))
    return trace


class TestTrain:
    def test_stage_one_tape_leaves_non_branch_gradients_unformed(self):
        """On a stage-1 tape the frozen prefix runs on plain arrays: the
        weighted contexts are an ndarray and only branch.* get gradients."""
        model = tiny_model(seed=6)
        seq = tiny_corpus()[0]
        block = ContextAssembler(seq, model.cfg.ctx).window_block(0, 8)
        tape = model.params.tape(branch_param_names(model.params))
        assert type(model._attend_block(block, tape)) is np.ndarray
        _, mse = model.batch_losses(tape, block, seq.occupancy[:8], False)
        mse.backward()
        for name, t in tape.items():
            if name.startswith("branch."):
                assert t.grad is not None, name
            else:
                assert t is model.params[name], name

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_stage_scoped_tape_matches_full_tape(self, case):
        """Trace, weights and Adam moments bit for bit against the trainer
        that backpropagates into every parameter."""
        cfg = replace(FORWARD_CONFIGS[case], seed=11)
        corpus = [tiny_corpus(60, seed=2)[0], tiny_corpus(40, seed=9)[0]]
        sched = TrainSchedule(branch_epochs=1, main_epochs=2, lr=0.01,
                              batch_size=8)
        scoped, full = ContextModel.create(cfg), ContextModel.create(cfg)
        assert train(scoped, corpus, sched) == train_on_full_tape(full, corpus,
                                                                  sched)
        for name in scoped.params.names():
            np.testing.assert_array_equal(scoped.params[name], full.params[name])
            np.testing.assert_array_equal(scoped.params._m[name],
                                          full.params._m[name])
            np.testing.assert_array_equal(scoped.params._v[name],
                                          full.params._v[name])
            assert scoped.params._steps.get(name) == full.params._steps.get(name)

    @pytest.mark.parametrize("name,branch_epochs,match", [
        ("main.w1", 1, "non-finite"), ("branch.w2", 1, "branch.w2"),
        ("main.w2", 0, "main.w2")],
        ids=["frozen", "learned_stage1", "learned_stage2"])
    def test_nan_weight_stops_training_before_adam(self, name, branch_epochs,
                                                   match):
        """A NaN in a weight the stage freezes (it reaches only the recorded
        CE) or learns (it reaches the backpropagated loss, and the error
        names it) raises before any parameter, moment or step count
        changes."""
        model = tiny_model(seed=7)
        corpus = tiny_corpus()
        train(model, corpus, TrainSchedule(branch_epochs=1, main_epochs=1,
                                           lr=0.01, batch_size=8))
        w = model.params[name].copy()
        w[0, 0] = np.nan
        model.params[name] = w
        P = model.params
        before = {n: (P[n].copy(), P._m[n].copy(), P._v[n].copy(), P._steps.get(n))
                  for n in P.names()}
        with pytest.raises(NumericalError, match=match):
            train(model, corpus, TrainSchedule(branch_epochs=branch_epochs,
                                               main_epochs=1, lr=0.01,
                                               batch_size=8))
        for n, (p, m, v, steps) in before.items():
            np.testing.assert_array_equal(P[n], p)
            np.testing.assert_array_equal(P._m[n], m)
            np.testing.assert_array_equal(P._v[n], v)
            assert P._steps.get(n) == steps, n

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

    def test_trace_csv_records_stage_and_lr(self, tmp_path):
        model = tiny_model(seed=1)
        sched = TrainSchedule(branch_epochs=1, main_epochs=2, lr=0.01,
                              lr_decay=0.5)
        trace = train(model, tiny_corpus(), sched)
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0])[:3] == ["batch_index", "ce_loss", "mse_loss"]
        assert len(rows) == len(trace)
        for row, rec in zip(rows, trace):
            assert int(row["batch_index"]) == rec.batch_index
            assert int(row["stage"]) == rec.stage
            assert float(row["lr"]) == rec.lr
        assert {(int(r["stage"]), float(r["lr"])) for r in rows} == {
            (1, 0.01), (2, 0.01), (2, 0.005)}

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
        assert ideal_bits(model, seq) / len(seq) < 0.5


def ideal_bits(model, seq):
    """Sum of -log2 q(x_i | c_i) over the sequence, from the batched forward."""
    q = model.distributions(seq)[0]
    return float(-np.log2(q[np.arange(len(seq)), seq.occupancy - 1]).sum())


class TestSequenceEntropy:
    def test_uniform_model_closed_form(self):
        model = zero_head_layers(tiny_model())
        seq = tiny_corpus(100, seed=6)[0]
        got = ideal_bits(model, seq)
        assert abs(got - len(seq) * LOG2_255) < 1e-6 * len(seq)

    def test_nonnegative(self):
        model = tiny_model(seed=30)
        seq = tiny_corpus(50, seed=7)[0]
        assert ideal_bits(model, seq) >= 0.0


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

    def test_non_finite_tensor_rejected(self, tmp_path):
        model = tiny_model(seed=15)
        bias = model.params["main.b2"].copy()
        bias[3] = np.nan
        model.params["main.b2"] = bias
        path = tmp_path / "nan.ckpt"
        model.save(path)
        with pytest.raises(ParseError, match="main.b2"):
            ContextModel.load(path)

    def test_variant_names(self):
        assert ModelConfig.tiny(enable_residual=False,
                                enable_branch=False).variant == "plain"
        assert ModelConfig.tiny(enable_residual=True,
                                enable_branch=False).variant == "residual"
        assert ModelConfig.tiny(enable_residual=False,
                                enable_branch=True).variant == "branch"
        assert ModelConfig.tiny().variant == "residual+branch"


def assert_kept_state_is_fresh(model):
    """The model's kept lowering and digest equal ones made afresh now."""
    kept, fresh = model.codec_weights(), CodecWeights(model)
    assert vars(kept).keys() == vars(fresh).keys()
    for name, value in vars(fresh).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(kept, name), value,
                                          err_msg=name)
        else:
            assert getattr(kept, name) == value, name
    assert model.digest() == nn.checkpoint_digest(model.params,
                                                  model.cfg.to_dict())


def shift_slot_bias(model):
    model.params["slot.b"] = model.params["slot.b"] + 0.5


class TestParameterState:
    """The lowering and the digest are made once per parameter state and
    remade after any write."""

    @pytest.mark.parametrize("write", ["assignment", "train",
                                       "zero_head_layers", "new_store"])
    def test_each_write_path_remakes_lowering_and_digest(self, write):
        model = tiny_model()
        lowering, digest = model.codec_weights(), model.digest()
        assert model.codec_weights() is lowering
        if write == "assignment":
            shift_slot_bias(model)
        elif write == "train":  # through adam_step alone
            train(model, tiny_corpus(n=30), TrainSchedule(1, 1, batch_size=8))
        elif write == "zero_head_layers":
            zero_head_layers(model)
        else:  # a store with as many writes as the old one
            model.params = tiny_model(seed=4).params
        assert model.codec_weights() is not lowering
        assert model.digest() != digest
        assert_kept_state_is_fresh(model)

    @pytest.mark.parametrize("writer", [0, 1])
    def test_models_on_one_store_lower_apart_and_see_each_write(self, writer):
        full = tiny_model()
        plain = ContextModel(replace(full.cfg, enable_residual=False,
                                     enable_branch=False), full.params)
        assert full.codec_weights().w1.shape != plain.codec_weights().w1.shape
        assert full.digest() != plain.digest()
        assert_kept_state_is_fresh(full)
        assert_kept_state_is_fresh(plain)
        shift_slot_bias((full, plain)[writer])
        assert_kept_state_is_fresh(full)
        assert_kept_state_is_fresh(plain)

    def test_training_a_copy_leaves_the_original(self):
        model = tiny_model()
        lowering, digest = model.codec_weights(), model.digest()
        copy = ContextModel(model.cfg, model.params.copy())
        assert copy.digest() == digest
        copy.codec_weights()
        train(copy, tiny_corpus(n=30), TrainSchedule(1, 1, batch_size=8))
        assert copy.digest() != digest
        assert_kept_state_is_fresh(copy)
        assert model.codec_weights() is lowering
        assert model.digest() == digest
        assert_kept_state_is_fresh(model)

    def test_in_place_writes_raise(self, tmp_path):
        model = tiny_model()
        train(model, tiny_corpus(n=30), TrainSchedule(1, 1, batch_size=8))
        model.save(tmp_path / "m.ckpt")
        for store in (model.params, model.params.copy(),
                      ContextModel.load(tmp_path / "m.ckpt").params):
            for _, value in store.items():
                with pytest.raises(ValueError, match="read-only"):
                    value.flat[0] = 1.0
        for value in vars(model.codec_weights()).values():
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value.flat[0] = 1
