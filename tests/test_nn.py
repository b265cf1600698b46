import numpy as np
import pytest

from octpcc import nn
from octpcc.errors import InvalidInput, NumericalError
from octpcc.model import ContextModel, ModelConfig


def attention_model(rng, d, heads, identity_out=False):
    """A width-d model with random attention projections and zero biases."""
    model = ContextModel.create(ModelConfig.tiny(d_model=d, heads=heads))
    for nm in ("wq", "wk", "wv", "wo"):
        model.params[f"attn0.{nm}"] = rng.normal(0, 0.5, size=(d, d))
    if identity_out:
        model.params["attn0.wo"] = np.eye(d)
    return model


class TestAttention:
    def test_single_unmasked_slot_returns_its_value_projection(self, rng):
        d, n = 8, 5
        model = attention_model(rng, d, heads=2, identity_out=True)
        x = rng.normal(size=(n, d))
        valid = np.zeros(n, dtype=bool)
        valid[2] = True
        out = model._attend(x, valid)
        want = x[2] @ model.params["attn0.wv"]  # softmax over one element is 1
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_two_identical_slots_split_attention_evenly(self, rng):
        """Two slots with equal keys but different values get half each."""
        d, n = 8, 4
        model = attention_model(rng, d, heads=2, identity_out=True)
        wk = model.params["attn0.wk"].copy()
        wk[0] = 0.0  # feature 0 reaches the values but not the keys
        model.params["attn0.wk"] = wk
        x = rng.normal(size=(n, d))
        x[3] = x[1]
        x[3, 0] += 1.0
        valid = np.array([False, True, False, True])
        wv = model.params["attn0.wv"]
        assert not np.allclose(x[1] @ wv, x[3] @ wv)
        out = model._attend(x, valid)
        np.testing.assert_allclose(out, 0.5 * (x[1] @ wv + x[3] @ wv),
                                   atol=1e-12)

    def test_weights_match_direct_formula(self, rng):
        """Output vs an independently coded softmax(qK/sqrt(dh)) V per head;
        the tape path gives the same floats as the plain one."""
        d, n, heads = 8, 4, 2
        dh = d // heads
        model = attention_model(rng, d, heads)
        P = model.params
        for nm in ("bq", "bk", "bv", "bo"):
            P[f"attn0.{nm}"] = rng.normal(size=d)
        x = rng.normal(size=(n, d))
        valid = np.ones(n, dtype=bool)
        q = x[-1] @ P["attn0.wq"] + P["attn0.bq"]
        k = x @ P["attn0.wk"] + P["attn0.bk"]
        v = x @ P["attn0.wv"] + P["attn0.bv"]
        ctx = []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = k[:, cols] @ q[cols] / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            ctx.append((e / e.sum()) @ v[:, cols])
        want = np.concatenate(ctx) @ P["attn0.wo"] + P["attn0.bo"]
        out = model._attend(x, valid)
        np.testing.assert_allclose(out, want, atol=1e-9)
        taped = model._attend(nn.constant(x), valid, P.tape())
        np.testing.assert_array_equal(taped.data, out)

    def test_width_must_divide_heads(self):
        with pytest.raises(InvalidInput):
            ModelConfig.tiny(d_model=6, heads=4)


class TestActivations:
    def test_softmax_rows_normalized(self, rng):
        x = rng.normal(scale=20, size=(50, 17))
        s = nn.softmax_np(x)
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)

    def test_sigmoid_strictly_inside_unit_interval(self, rng):
        x = rng.uniform(-30, 30, size=1000)
        s = nn.sigmoid_np(x)
        assert (s > 0).all() and (s < 1).all()


class TestGrad:
    def test_half_squared_norm(self, rng):
        store = nn.ParamStore()
        store.add("p", rng.normal(size=(7,)).astype(np.float32))

        def loss(tape, _):
            t = tape["p"]
            return (t * t).sum() * 0.5

        g = nn.grad(loss, store, None)
        np.testing.assert_allclose(g["p"], store["p"], atol=1e-12)

    def test_softmax_cross_entropy_closed_form(self, rng):
        """d(-log softmax(z)[y])/dz = softmax(z) - onehot(y)."""
        store = nn.ParamStore()
        z = rng.normal(size=(6,)).astype(np.float32)
        store.add("z", z)
        y = 2

        def loss(tape, _):
            p = nn.softmax(tape["z"].reshape(1, 6), axis=-1)
            return -(nn.take_along_last(p, np.array([y])).log().sum())

        g = nn.grad(loss, store, None)
        want = nn.softmax_np(store["z"])
        want[y] -= 1.0
        np.testing.assert_allclose(g["z"], want, atol=1e-9)

    def test_composite_matches_finite_differences(self, rng):
        """embedding -> attention -> mlp -> both heads, spot-checked by FD."""
        from octpcc.context import ContextAssembler
        from octpcc.geometry import quantize, synth
        from octpcc.octree import build

        # seed picked so no relu pre-activation sits within the FD step of 0
        cfg = ModelConfig.tiny(seed=58)
        model = ContextModel.create(cfg)
        seq = build(quantize(synth("uniform", 40, seed=0), 3))
        asm = ContextAssembler(seq, cfg.ctx)
        slots, valid = asm.window_block(0, 2)
        labels = seq.occupancy[:2]

        def loss(tape, _):
            ce, mse = model.batch_losses(tape, slots, valid, labels, False)
            return ce + mse

        analytic = nn.grad(loss, model.params, None)
        eps = 1e-4
        check_rng = np.random.default_rng(0)
        for name in model.params.names():
            flat = model.params[name].ravel()
            for ix in check_rng.choice(flat.size, size=min(3, flat.size),
                                       replace=False):
                orig = flat[ix]
                flat[ix] = orig + eps
                ce, mse = model.batch_losses(model.params.tape(), slots, valid,
                                             labels, False)
                up = float(ce.data + mse.data)
                flat[ix] = orig - eps
                ce, mse = model.batch_losses(model.params.tape(), slots, valid,
                                             labels, False)
                dn = float(ce.data + mse.data)
                flat[ix] = orig
                fd = (up - dn) / (2 * eps)
                a = analytic[name].ravel()[ix]
                rel = abs(fd - a) / max(abs(fd), abs(a), 1e-6)
                assert rel < 1e-4, f"{name}[{ix}]: fd={fd} analytic={a}"

    def test_nonfinite_raises_with_op_identity(self):
        with pytest.raises(NumericalError, match="log"):
            nn.constant(np.zeros(3)).log()


class TestAdam:
    def test_zero_gradient_from_fresh_state(self):
        store = nn.ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        nn.adam_step(store, {"w": np.zeros(3)}, lr=0.1)
        np.testing.assert_array_equal(store["w"], [1.0, -2.0, 3.0])
        assert store.step_of("w") == 1

    def test_zero_lr(self, rng):
        store = nn.ParamStore()
        store.add("w", rng.normal(size=4))
        before = store["w"].copy()
        nn.adam_step(store, {"w": rng.normal(size=4)}, lr=0.0)
        np.testing.assert_array_equal(store["w"], before)

    def test_constant_gradient_matches_scalar_recurrence(self):
        """Adam with constant g vs an independently coded recurrence."""
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        store = nn.ParamStore()
        store.add("w", np.array([1.0]))
        # independent scalar re-implementation
        w, m, v = np.float64(np.float32(1.0)), 0.0, 0.0
        for t in range(1, 26):
            nn.adam_step(store, {"w": np.array([g])}, lr=lr, betas=(b1, b2),
                         eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            w = np.float64(np.float32(w - lr * mh / (np.sqrt(vh) + eps)))
            assert abs(store["w"][0] - w) < 1e-12, t

    def test_shape_mismatch(self):
        store = nn.ParamStore()
        store.add("w", np.zeros((2, 2)))
        with pytest.raises(InvalidInput):
            nn.adam_step(store, {"w": np.zeros(3)}, lr=0.1)


class TestCheckpoint:
    def test_save_load_bit_exact(self, tmp_path, rng):
        store = nn.ParamStore()
        store.add("a.w", rng.normal(size=(5, 3)))
        store.add("a.b", rng.normal(size=(3,)))
        config = {"alpha": 1, "beta": [2, 3], "name": "x"}
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, store, config)
        loaded, config2 = nn.load_checkpoint(path)
        assert config2 == config
        for name in store.names():
            np.testing.assert_array_equal(loaded[name], store[name])
        assert nn.checkpoint_digest(loaded, config2) == \
            nn.checkpoint_digest(store, config)
        # saving the loaded store reproduces the file byte for byte
        assert nn.checkpoint_bytes(loaded, config2) == path.read_bytes()

    def test_digest_sensitive_to_values(self, rng):
        a = nn.ParamStore()
        a.add("w", np.ones(4))
        b = nn.ParamStore()
        b.add("w", np.ones(4) * 2)
        assert nn.checkpoint_digest(a, {}) != nn.checkpoint_digest(b, {})
