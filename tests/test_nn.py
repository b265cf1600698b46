import numpy as np
import pytest

from conftest import grad
from octpcc import nn
from octpcc.errors import InvalidInput, NumericalError
from octpcc.model import ContextModel, ModelConfig


def attend(model, x, valid, params=None):
    """The attention layer over slot vectors x (n, d), target last: one
    target whose (1, n) band is valid."""
    k, v = model._project_kv(x, params)
    return model._attend_core(x[-1:], k, v, valid[None], params)[0]


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
        out = attend(model, x, valid)
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
        out = attend(model, x, valid)
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
        out = attend(model, x, valid)
        np.testing.assert_allclose(out, want, atol=1e-9)
        taped = attend(model, x, valid, P.tape())
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

    def test_sigmoid_matches_masked_two_branch_form(self, rng):
        """The one-pass form gives the bits of the form that evaluated each
        sign's branch on its own entries only."""
        def reference(x):
            out = np.empty_like(x, dtype=np.float64)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.concatenate(([0.0, -0.0, 800.0, -800.0, np.nan],
                            rng.normal(scale=10, size=2000),
                            rng.uniform(-40, 40, size=2000)))
        np.testing.assert_array_equal(nn.sigmoid_np(x), reference(x))
        grid = x[5:].reshape(40, 100)
        np.testing.assert_array_equal(nn.sigmoid_np(grid), reference(grid))


class TestGrad:
    def test_half_squared_norm(self, rng):
        store = nn.ParamStore()
        store.add("p", rng.normal(size=(7,)).astype(np.float32))

        def loss(tape, _):
            t = tape["p"]
            return (t * t).sum() * 0.5

        g = grad(loss, store, None)
        np.testing.assert_allclose(g["p"], store["p"], atol=1e-12)

    def test_softmax_cross_entropy_closed_form(self, rng):
        """d(-log softmax(z)[y])/dz = softmax(z) - onehot(y)."""
        store = nn.ParamStore()
        z = rng.normal(size=(6,)).astype(np.float32)
        store.add("z", z)
        y = 2

        def loss(tape, _):
            p = nn.softmax(tape["z"].reshape(1, 6), axis=-1)
            return nn.log(nn.take_along_last(p, np.array([y]))).sum() * -1.0

        g = grad(loss, store, None)
        want = nn.softmax_np(store["z"])
        want[y] -= 1.0
        np.testing.assert_allclose(g["z"], want, atol=1e-9)

    def test_repeated_index_gradient_matches_embedding(self, rng):
        """A row picked twice by t[[0, 0, 2]] gets both gradients, as it
        does through nn.embedding."""
        store = nn.ParamStore()
        store.add("t", rng.normal(size=(3, 2)))
        w = rng.normal(size=(3, 2))

        def by_index(tape, _):
            return (tape["t"][[0, 0, 2]] * w).sum()

        def by_embedding(tape, _):
            return (nn.embedding(tape["t"], np.array([0, 0, 2])) * w).sum()

        g = grad(by_index, store, None)["t"]
        np.testing.assert_array_equal(g, grad(by_embedding, store, None)["t"])
        np.testing.assert_array_equal(g, [w[0] + w[1], [0, 0], w[2]])

    def test_gradient_shared_by_two_inputs_is_copied(self, rng):
        """a + b passes one upstream array to both inputs; b's second
        gradient must not reach a's."""
        store = nn.ParamStore()
        store.add("a", rng.normal(size=3))
        store.add("b", rng.normal(size=3))
        w, u = rng.normal(size=3), rng.normal(size=3)

        def loss(tape, _):
            return (tape["b"] * u).sum() + ((tape["a"] + tape["b"]) * w).sum()

        g = grad(loss, store, None)
        np.testing.assert_array_equal(g["a"], w)
        np.testing.assert_array_equal(g["b"], w + u)

    @pytest.mark.parametrize("idx", [np.array([4, 0, 4, 2, 4]),
                                     np.array([[1, 3, 1, 0], [3, 3, 2, 1]])],
                             ids=["1d", "2d_repeated"])
    @pytest.mark.parametrize("prefilled", [False, True])
    def test_embedding_backward_matches_add_at(self, rng, idx, prefilled):
        """The table gradient is np.add.at's, bit for bit; a gradient the
        table already holds gets the fresh scatter added to it."""
        table = nn.Tensor(rng.normal(size=(5, 3)))
        w = rng.normal(size=idx.shape + (3,))
        before = rng.normal(size=(5, 3)) if prefilled else np.zeros((5, 3))
        if prefilled:
            table.grad = before.copy()
        (nn.embedding(table, idx) * w).sum().backward()
        scattered = np.zeros((5, 3))
        np.add.at(scattered, idx, w)
        np.testing.assert_array_equal(table.grad, before + scattered)

    @pytest.mark.parametrize("key", [
        2, -1, slice(1, None), slice(None, -1), slice(-3, None),
        slice(0, 5, 2), (slice(1, 4), slice(None, 2)), (3, slice(1, None)),
        np.int64(4), np.array([4, 0, 4, 2])],
        ids=["int", "neg_int", "tail", "head", "last3", "step", "2d", "int_slice",
             "np_int", "repeated_index_array"])
    def test_getitem_backward_matches_add_at(self, rng, key):
        """Indexing twice accumulates the gradient of each element as
        np.add.at does, bit for bit."""
        x = nn.Tensor(rng.normal(size=(6, 3)))
        w1 = rng.normal(size=x.data[key].shape)
        w2 = rng.normal(size=x.data[key].shape)
        ((x[key] * w1).sum() + (x[key] * w2).sum()).backward()
        want = np.zeros((6, 3))
        np.add.at(want, key, w2)
        np.add.at(want, key, w1)
        np.testing.assert_array_equal(x.grad, want)

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
        block = asm.window_block(0, 2)
        labels = seq.occupancy[:2]

        def loss(tape, _):
            ce, mse = model.batch_losses(tape, block, labels, False)
            return ce + mse

        analytic = grad(loss, model.params, None)
        eps = 1e-4
        check_rng = np.random.default_rng(0)
        for name in model.params.names():
            value = model.params[name].copy()  # float64, unrounded when perturbed
            flat = value.reshape(-1)
            for ix in check_rng.choice(flat.size, size=min(3, flat.size),
                                       replace=False):
                orig = flat[ix]
                flat[ix] = orig + eps
                ce, mse = model.batch_losses(
                    {**model.params.tape(), name: value}, block, labels, False)
                up = float(ce.data + mse.data)
                flat[ix] = orig - eps
                ce, mse = model.batch_losses(
                    {**model.params.tape(), name: value}, block, labels, False)
                dn = float(ce.data + mse.data)
                flat[ix] = orig
                fd = (up - dn) / (2 * eps)
                a = analytic[name].ravel()[ix]
                rel = abs(fd - a) / max(abs(fd), abs(a), 1e-6)
                assert rel < 1e-4, f"{name}[{ix}]: fd={fd} analytic={a}"

    def test_nonfinite_raises_with_op_identity(self):
        loss = nn.log(nn.Tensor(np.zeros(3))).sum()
        with pytest.raises(NumericalError, match="log"):
            loss.backward()


class TestAdam:
    def test_writes_count_one_per_add_assignment_and_step(self):
        store = nn.ParamStore()
        store.add("w", np.zeros(3))
        store.add("b", np.zeros(2))
        store["w"] = np.ones(3)
        assert store.writes == 3
        nn.adam_step(store, {"w": np.ones(3), "b": np.ones(2)}, lr=0.1)
        assert store.writes == 4
        with pytest.raises(InvalidInput):
            nn.adam_step(store, {"w": np.ones(2)}, lr=0.1)
        assert store.writes == 4
        assert store.copy().writes == 2

    def test_zero_gradient_from_fresh_state(self):
        store = nn.ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        nn.adam_step(store, {"w": np.zeros(3)}, lr=0.1)
        np.testing.assert_array_equal(store["w"], [1.0, -2.0, 3.0])
        assert store._steps["w"] == 1

    def test_zero_lr(self, rng):
        store = nn.ParamStore()
        store.add("w", rng.normal(size=4))
        before = store["w"].copy()
        nn.adam_step(store, {"w": rng.normal(size=4)}, lr=0.0)
        np.testing.assert_array_equal(store["w"], before)

    def test_constant_gradient_matches_scalar_recurrence(self):
        """Adam with constant g vs an independently coded recurrence."""
        lr, (b1, b2), eps = 0.01, nn.ADAM_BETAS, nn.ADAM_EPS
        g = 0.37
        store = nn.ParamStore()
        store.add("w", np.array([1.0]))
        # independent scalar re-implementation
        w, m, v = np.float64(np.float32(1.0)), 0.0, 0.0
        for t in range(1, 26):
            nn.adam_step(store, {"w": np.array([g])}, lr=lr)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_raises_before_any_update(self, rng, bad):
        store = nn.ParamStore()
        store.add("a", rng.normal(size=3))
        store.add("b", rng.normal(size=2))
        nn.adam_step(store, {"a": rng.normal(size=3), "b": rng.normal(size=2)},
                     lr=0.1)
        state = {name: (store[name].copy(), store._m[name].copy(),
                        store._v[name].copy(), store._steps[name])
                 for name in store.names()}
        with pytest.raises(NumericalError, match="'b'"):
            nn.adam_step(store, {"a": rng.normal(size=3),
                                 "b": np.array([0.5, bad])}, lr=0.1)
        for name, (p, m, v, steps) in state.items():
            np.testing.assert_array_equal(store[name], p)
            np.testing.assert_array_equal(store._m[name], m)
            np.testing.assert_array_equal(store._v[name], v)
            assert store._steps[name] == steps


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
