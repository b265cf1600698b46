"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  The directional claims (residual separability, early-training
ordering) use budgets at which the models demonstrably exit the
marginal-distribution regime; at smaller budgets every variant just learns
class frequencies and the mechanisms under test never engage.
"""

import time

import numpy as np
import pytest

from conftest import grad
from octpcc.coder import (ArithmeticDecoder, ArithmeticEncoder, FREQ_TOTAL,
                          quantize_dist)
from octpcc.context import ContextAssembler, ContextConfig
from octpcc.geometry import (QuantizedPointCloud, SYNTH_KINDS, quantize,
                             synth)
from octpcc.metrics import chamfer, collect_features, d1_psnr, interclass_stats
from octpcc.model import (ContextModel, ModelConfig, TrainSchedule, train,
                          zero_head_layers)
from octpcc.octree import build
from octpcc.pipeline import decode, encode

LOG2_255 = np.log2(255.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def full_cube_sequence(depth=5):
    side = np.arange(1 << depth)
    voxels = np.array(np.meshgrid(side, side, side)).reshape(3, -1).T
    qpc = QuantizedPointCloud(depth=depth, voxels=voxels,
                              origin=np.zeros(3), scale=1.0)
    return build(qpc)


@pytest.fixture(scope="module")
def direction_matrix():
    """base / residual / residual+branch trained per seed on one corpus.

    Matched budgets and shared-seed initialization; the corpus is a densely
    sampled plane where serialized neighbors are strongly predictive, so
    all variants learn real context structure within the budget.
    """
    corpus = [build(quantize(synth("plane", 30000, seed=100), 6))]
    sched = TrainSchedule(branch_epochs=4, main_epochs=16, lr=3e-3)
    variants = {"base": (False, False), "residual": (True, False),
                "full": (True, True)}
    rows = []
    for seed in range(5):
        row = {}
        for name, (res, br) in variants.items():
            cfg = ModelConfig(ctx=ContextConfig(n_window=32, k_ancestors=2),
                              d_embed=8, d_model=32, d_hidden_main=64,
                              d_hidden_branch=32, heads=4, seed=seed,
                              enable_residual=res, enable_branch=br)
            model = ContextModel.create(cfg)
            trace = train(model, corpus, sched)
            stage2 = [r.ce_loss for r in trace if r.stage == 2]
            k = max(1, len(stage2) // 10)
            stats = interclass_stats(collect_features(model, corpus))
            row[name] = {"early_ce": float(np.mean(stage2[:k])),
                         "ad": stats.ad, "acos": stats.acos}
        rows.append(row)
    return rows


def test_c01_losslessness_matrix():
    """100 seeded clouds x 4 ablation configs, untrained models, exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    clouds = []
    for i in range(100):
        kind = SYNTH_KINDS[i % len(SYNTH_KINDS)]
        n = int(np.exp(rng.uniform(np.log(20), np.log(5000))))
        depth = int(rng.integers(2, 7))
        clouds.append((synth(kind, n, seed=1000 + i), depth))
    for j in range(5):  # pin a few worst-case sizes
        clouds[j] = (synth(SYNTH_KINDS[j], 5000, seed=2000 + j), 6)
    models = [ContextModel.create(ModelConfig.tiny(
        seed=7, enable_residual=r, enable_branch=b))
        for r in (False, True) for b in (False, True)]
    failures = 0
    for pc, depth in clouds:
        ref = quantize(pc, depth)
        for m in models:
            bs, _ = encode(pc, depth, depth, m)
            if not decode(bs, m).same_voxels(ref):
                failures += 1
    elapsed = time.perf_counter() - t0
    report("losslessness 100x4", failures == 0 and elapsed < 600,
           f"{failures} failures, {elapsed:.0f}s (budget 600s)")


def test_c02_coder_near_optimality():
    """50 random streams: payload <= 1.01 * ideal + 64 bits, exact round trip."""
    rng = np.random.default_rng(77)
    worst = -np.inf
    for trial in range(50):
        conc = float(rng.uniform(0.05, 2.0))
        cum = quantize_dist(rng.dirichlet(np.full(255, conc)))
        n = int(rng.integers(1000, 2000))
        probs = np.diff(cum) / FREQ_TOTAL
        symbols = (rng.choice(255, size=n, p=probs) + 1).tolist()
        enc = ArithmeticEncoder()
        for s in symbols:
            enc.encode(cum, s - 1)
        payload = enc.finish()
        ideal = sum(-np.log2(probs[s - 1]) for s in symbols)
        dec = ArithmeticDecoder(payload)
        assert [dec.decode(cum) + 1 for _ in range(n)] == symbols
        excess = len(payload) * 8 - (1.01 * ideal + 64)
        worst = max(worst, excess)
    report("coder near-optimality", worst <= 0,
           f"worst margin over bound: {worst:.1f} bits (<= 0 required)")


def test_c03_uniform_model_codelength():
    """Zero-initialized output layers: bits per node == log2 255 +- 0.01."""
    model = zero_head_layers(ContextModel.create(ModelConfig.tiny(seed=1)))
    pc = synth("uniform", 2500, seed=5)
    _, rep = encode(pc, 6, 6, model)
    per_node = rep.payload_bits / rep.node_count
    report("uniform-model codelength", abs(per_node - LOG2_255) <= 0.01,
           f"{per_node:.4f} bits/node vs log2(255) = {LOG2_255:.4f}")


def test_c04_gradient_correctness():
    """Reverse-mode vs central differences (eps 1e-4), every parameter,
    relative error < 1e-4, both losses, toy config N=8 K=1 d_model=16."""
    cfg = ModelConfig.tiny(seed=58)
    assert (cfg.ctx.n_window, cfg.ctx.k_ancestors, cfg.d_model) == (8, 1, 16)
    model = ContextModel.create(cfg)
    seq = build(quantize(synth("uniform", 40, seed=0), 3))
    asm = ContextAssembler(seq, cfg.ctx)
    block = asm.window_block(0, 2)
    labels = seq.occupancy[:2]

    def loss(tape, _):
        ce, mse = model.batch_losses(tape, block, labels, False)
        return ce + mse

    analytic = grad(loss, model.params, None)
    eps = 1e-4
    worst = 0.0
    checked = 0
    for name in model.params.names():
        value = model.params[name].copy()  # float64, unrounded when perturbed
        flat = value.reshape(-1)
        an = analytic[name].ravel()
        for ix in range(flat.size):
            orig = flat[ix]
            flat[ix] = orig + eps
            ce, mse = model.batch_losses({**model.params.tape(), name: value},
                                         block, labels, False)
            up = float(ce.data + mse.data)
            flat[ix] = orig - eps
            ce, mse = model.batch_losses({**model.params.tape(), name: value},
                                         block, labels, False)
            dn = float(ce.data + mse.data)
            flat[ix] = orig
            fd = (up - dn) / (2 * eps)
            rel = abs(fd - an[ix]) / max(abs(fd), abs(an[ix]), 1e-6)
            worst = max(worst, rel)
            checked += 1
    report("gradient correctness", worst < 1e-4,
           f"{checked} parameters, worst relative error {worst:.2e}")


def test_c05_two_stage_freezes():
    """Stage 1 never touches main parameters; stage 2 never touches branch."""
    model = ContextModel.create(ModelConfig.tiny(seed=2))
    corpus = [build(quantize(synth("gaussian_clusters", 400, seed=3), 4))]
    start = {n: model.params[n].copy() for n in model.params.names()}
    train(model, corpus, TrainSchedule(branch_epochs=1, main_epochs=0))
    mid = {n: model.params[n].copy() for n in model.params.names()}
    stage1_ok = all(
        np.array_equal(mid[n], start[n]) for n in start
        if not n.startswith("branch."))
    branch_moved = any(
        not np.array_equal(mid[n], start[n]) for n in start
        if n.startswith("branch."))
    train(model, corpus, TrainSchedule(branch_epochs=0, main_epochs=1))
    stage2_ok = all(
        np.array_equal(model.params[n], mid[n]) for n in start
        if n.startswith("branch."))
    main_moved = any(
        not np.array_equal(model.params[n], mid[n]) for n in start
        if not n.startswith("branch."))
    report("two-stage freezes",
           stage1_ok and stage2_ok and branch_moved and main_moved,
           f"stage1 main frozen: {stage1_ok}, stage2 branch frozen: {stage2_ok}")


def test_c06_learning_effect():
    """Trained full model beats the uniform model by >= 20% BPIP on a
    planar cloud (depth 8, ~20k points) within the wall-clock budget."""
    t0 = time.perf_counter()
    pc = synth("plane", 20000, seed=42)
    seq = build(quantize(pc, 8))
    uniform = zero_head_layers(ContextModel.create(ModelConfig(seed=0)))
    _, rep_u = encode(pc, 8, 8, uniform)
    model = ContextModel.create(ModelConfig(seed=0))
    train(model, [seq], TrainSchedule(branch_epochs=1, main_epochs=3))
    _, rep_t = encode(pc, 8, 8, model)
    elapsed = time.perf_counter() - t0
    ratio = rep_t.bpip / rep_u.bpip
    report("learning effect", ratio <= 0.80 and elapsed < 900,
           f"trained {rep_t.bpip:.3f} vs uniform {rep_u.bpip:.3f} bpip, "
           f"ratio {ratio:.3f} (<= 0.80), {elapsed:.0f}s (budget 900s)")


def test_c07_residual_separability_direction(direction_matrix):
    """Residual variant: larger mean inter-class distance and no larger
    cosine similarity than base, on >= 4 of 5 seeds."""
    good = 0
    for row in direction_matrix:
        ad_up = row["residual"]["ad"] > row["base"]["ad"]
        cos_dn = row["residual"]["acos"] <= row["base"]["acos"]
        good += ad_up and cos_dn
    detail = "; ".join(
        f"seed{i}: ad {r['base']['ad']:.2f}->{r['residual']['ad']:.2f}, "
        f"acos {r['base']['acos']:.3f}->{r['residual']['acos']:.3f}"
        for i, r in enumerate(direction_matrix))
    report("residual separability direction", good >= 4,
           f"{good}/5 seeds ({detail})")


def test_c08_branch_convergence():
    """All-255 corpus: branch outputs >= 0.99 everywhere, MSE < 1e-3."""
    seq = full_cube_sequence(depth=5)
    assert (seq.occupancy == 255).all()
    model = ContextModel.create(ModelConfig.tiny(seed=0))
    # lr 0.01: with the default 1e-3 the total Adam displacement over any
    # schedule this size is bounded well short of the ~4.6 logit offset
    # that sigmoid(x) >= 0.99 requires
    train(model, [seq], TrainSchedule(branch_epochs=16, main_epochs=0, lr=0.01))
    _, o, _ = model.distributions(seq)
    mse = float(((1.0 - o) ** 2).mean())
    report("branch convergence", o.min() >= 0.99 and mse < 1e-3,
           f"min output {o.min():.4f} (>= 0.99), MSE {mse:.2e} (< 1e-3)")


def test_c09_cross_entropy_blindness():
    """Two distributions with equal true-class mass have exactly equal CE,
    wherever the remaining mass sits."""
    true_class = 255  # '11111111'
    near_class = 254  # '11111110': differs in one child
    far_class = 1     # '00000001': differs in seven
    p_true = 0.4
    qa = np.full(255, 1e-12)
    qa[true_class - 1] = p_true
    qa[near_class - 1] = 0.6 - 254e-12  # mass on the similar class
    qb = np.full(255, 1e-12)
    qb[true_class - 1] = p_true
    qb[far_class - 1] = 0.6 - 254e-12   # mass on a distant class
    ce_a = -np.log2(qa[true_class - 1])
    ce_b = -np.log2(qb[true_class - 1])
    report("cross-entropy blindness", ce_a == ce_b,
           f"CE(A) = CE(B) = {ce_a:.6f} exactly")


def test_c10_metric_oracles():
    """chamfer / d1_psnr vs O(n^2) oracles; lossless decode gives CD = 0."""
    rng = np.random.default_rng(31)
    worst_cd, worst_db = 0.0, 0.0
    for _ in range(20):
        va = np.unique(rng.integers(0, 64, size=(100, 3)), axis=0)
        vb = np.unique(rng.integers(0, 64, size=(100, 3)), axis=0)
        scale = float(rng.uniform(0.01, 1.0))
        a = QuantizedPointCloud(6, va, np.zeros(3), scale)
        b = QuantizedPointCloud(6, vb, np.zeros(3), scale)
        d2 = ((va[:, None, :] - vb[None, :, :]) ** 2).sum(-1)
        mse_vox = (d2.min(1).mean() + d2.min(0).mean()) / 2.0
        want_cd = mse_vox * scale * scale
        worst_cd = max(worst_cd, abs(chamfer(a, b) - want_cd))
        want_db = 10 * np.log10(3 * 63 ** 2 / mse_vox)
        worst_db = max(worst_db, abs(d1_psnr(a, b) - want_db))
    pc = synth("sphere", 800, seed=12)
    model = ContextModel.create(ModelConfig.tiny(seed=3))
    bs, _ = encode(pc, 5, 5, model)
    cd_zero = chamfer(quantize(pc, 5), decode(bs, model))
    report("metric oracles",
           worst_cd < 1e-9 and worst_db < 1e-6 and cd_zero == 0.0,
           f"chamfer err {worst_cd:.1e} (< 1e-9), psnr err {worst_db:.1e} "
           f"(< 1e-6 dB), lossless CD {cd_zero}")


def test_c11_early_training_ordering(direction_matrix):
    """Mean CE over the first 10% of batches: full model <= base, >= 4/5 seeds."""
    good = sum(r["full"]["early_ce"] <= r["base"]["early_ce"]
               for r in direction_matrix)
    detail = "; ".join(
        f"seed{i}: {r['base']['early_ce']:.3f} vs {r['full']['early_ce']:.3f}"
        for i, r in enumerate(direction_matrix))
    report("early-training ordering", good >= 4, f"{good}/5 seeds ({detail})")
