"""The enhanced occupancy context model.

Pipeline per node: feature embeddings -> one masked multi-head attention
layer whose only query is the target slot -> weighted context wc_i ->
context feature residual r_i = wc_i - wc_{i-1} -> both heads consume
[wc_i ; r_i].  The main head is a two-layer MLP ending in a 255-way
softmax; the branch head is an MLP ending in 8 sigmoids (per-child
occupancy).  The branch output is fused into the main head by
concatenation with the main MLP's penultimate activation before the final
linear layer.

The slot embedding has no positional term and the target is the only
query, so each history slot's keys and values depend on its node alone,
and every path embeds and projects each node's row once: the codec
(`predict`) keeps coded nodes' K/V rows in a `KVCache`, each its node's
target row plus its occupancy's delta, and training and analysis attend
each target of a window block to the block's rows through a band mask that
keeps its own window's rows.

The codec's step runs on `CodecWeights`, the parameters lowered once per
parameter state (embeddings folded through the slot projection, K/V/Q
joined, the attention output projection folded into both heads' first
layers, which are joined) and rounded to float32: the same function as the
float64 unfolded forward of training and analysis, to float32 rounding.
Every float of the step, the cached K/V rows included, is float32, which
halves the bytes a full-scale step reads.  It steps one target (the
decoder) on 1-D arrays, or a run of targets (the encoder) through
row-invariant stacked ops that are the one-target step's per target,
attending target by target where the run's windows still grow, so a
target's floats do not depend on the run it is in.

Ablation toggles: enable_residual feeds a zero vector instead of r_i;
enable_branch feeds zeros into the fusion slot.  All four combinations
share one checkpoint schema.

Training is two-stage: first only the branch parameters learn (MSE loss),
then the branch is frozen and everything else learns (cross-entropy).
Training and analysis run one batched pass: `blocks` cuts a sequence into
window blocks in node order, each past the first leading with the window
before it, and `_block_heads` pairs residuals as the codec does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import nn
from .context import PAD, ContextAssembler, ContextConfig, GrowingContext
from .errors import ConfigError, InvalidInput, NumericalError
from .geometry import MAX_DEPTH
from .octree import NodeSequence

PROB_FLOOR = 1e-6  # uniform mixing weight; keeps every class strictly positive
LOG2 = math.log(2.0)


# Checkpoint config keys and their JSON types.
_CTX_KEYS = {"n_window": int, "k_ancestors": int}
_MODEL_KEYS = {"d_embed": int, "d_model": int, "d_hidden_main": int,
               "d_hidden_branch": int, "heads": int, "enable_residual": bool,
               "enable_branch": bool, "seed": int}
# Kept in every config for checkpoint compatibility; no other value loads.
_FIXED_KEYS = {"attn_layers": 1, "layer_norm": False, "max_depth": MAX_DEPTH,
               "strict_level": False}


@dataclass(frozen=True)
class ModelConfig:
    ctx: ContextConfig = field(default_factory=ContextConfig)
    d_embed: int = 16
    d_model: int = 64
    d_hidden_main: int = 128
    d_hidden_branch: int = 64
    heads: int = 4
    enable_residual: bool = True
    enable_branch: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.d_embed, self.d_model, self.d_hidden_main,
               self.d_hidden_branch, self.heads) < 1:
            raise InvalidInput("model dimensions must be positive")
        if self.d_model % self.heads:
            raise InvalidInput("d_model must be divisible by heads")
        if self.seed < 0:
            raise InvalidInput("seed must be >= 0")

    @property
    def variant(self) -> str:
        """What the ablation toggles actually enable."""
        names = {(False, False): "plain", (True, False): "residual",
                 (False, True): "branch", (True, True): "residual+branch"}
        return names[(self.enable_residual, self.enable_branch)]

    def to_dict(self) -> dict:
        return {**{k: getattr(self.ctx, k) for k in _CTX_KEYS},
                **{k: getattr(self, k) for k in _MODEL_KEYS}, **_FIXED_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict; ConfigError for a missing, ill-typed or unsupported key."""
        if not isinstance(d, dict):
            raise ConfigError("model config is not a JSON object")
        for k, kind in {**_CTX_KEYS, **_MODEL_KEYS}.items():
            if k not in d:
                raise ConfigError(f"model config lacks {k!r}")
            if type(d[k]) is not kind:
                raise ConfigError(f"model config {k!r} must be {kind.__name__}")
        for k, want in _FIXED_KEYS.items():
            if type(d.get(k)) is not type(want) or d[k] != want:
                raise ConfigError(f"model config {k!r} must be {want!r}")
        try:
            ctx = ContextConfig(**{k: d[k] for k in _CTX_KEYS})
            return cls(ctx=ctx, **{k: d[k] for k in _MODEL_KEYS})
        except InvalidInput as exc:
            raise ConfigError(f"model config: {exc}") from None

    @classmethod
    def full_scale(cls, **overrides) -> "ModelConfig":
        """Production-sized preset (1024-slot window, 4 ancestors, 552 hidden)."""
        base = cls(ctx=ContextConfig(n_window=1024, k_ancestors=4),
                   d_embed=32, d_model=128, d_hidden_main=552,
                   d_hidden_branch=128)
        return replace(base, **overrides) if overrides else base

    @classmethod
    def tiny(cls, **overrides) -> "ModelConfig":
        base = cls(ctx=ContextConfig(n_window=8, k_ancestors=1),
                   d_embed=4, d_model=16, d_hidden_main=32,
                   d_hidden_branch=16, heads=4)
        return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class TrainSchedule:
    branch_epochs: int = 1
    main_epochs: int = 3
    lr: float = 1e-3
    lr_decay: float = 0.95
    batch_size: int = 32

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be >= 1")
        if min(self.branch_epochs, self.main_epochs) < 0:
            raise InvalidInput("epoch counts must be >= 0")
        if not all(math.isfinite(x) and x >= 0 for x in (self.lr, self.lr_decay)):
            raise InvalidInput("lr and lr_decay must be finite and >= 0")


class TraceRecord(NamedTuple):
    stage: int        # 1 = branch/MSE, 2 = main/cross-entropy
    batch_index: int  # global batch counter
    ce_loss: float    # bits per node
    mse_loss: float
    lr: float


def _glorot(rng, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def param_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape of every parameter, in initialization and checkpoint order."""
    e, d = cfg.d_embed, cfg.d_model
    hm, hb = cfg.d_hidden_main, cfg.d_hidden_branch
    shapes = {"embed.occupancy": (256, e), "embed.level": (MAX_DEPTH + 1, e),
              "embed.octant": (8, e),
              "slot.w": ((cfg.ctx.k_ancestors + 1) * 3 * e, d), "slot.b": (d,)}
    shapes.update({f"attn0.{nm}": (d, d) for nm in ("wq", "wk", "wv", "wo")})
    shapes.update({f"attn0.{nm}": (d,) for nm in ("bq", "bk", "bv", "bo")})
    shapes.update({"main.w1": (2 * d, hm), "main.b1": (hm,),
                   "main.w2": (hm + 8, 255), "main.b2": (255,),
                   "branch.w1": (2 * d, hb), "branch.b1": (hb,),
                   "branch.w2": (hb, 8), "branch.b2": (8,)})
    return shapes


def init_params(cfg: ModelConfig) -> nn.ParamStore:
    """Embeddings ~ N(0, 0.02), weight matrices Glorot-uniform, biases zero."""
    rng = np.random.default_rng(cfg.seed)
    p = nn.ParamStore()
    for name, shape in param_shapes(cfg).items():
        if name.startswith("embed."):
            p.add(name, rng.normal(0.0, 0.02, size=shape))
        elif len(shape) == 1:
            p.add(name, np.zeros(shape))
        else:
            p.add(name, _glorot(rng, *shape))
    return p


def branch_param_names(params: nn.ParamStore):
    return [n for n in params.names() if n.startswith("branch.")]


def main_param_names(params: nn.ParamStore):
    return [n for n in params.names() if not n.startswith("branch.")]


def zero_head_layers(model: "ContextModel") -> "ContextModel":
    """Zero both output layers; the main head then emits the uniform 1/255."""
    for name in ("main.w2", "main.b2", "branch.w2", "branch.b2"):
        model.params[name] = np.zeros_like(model.params[name])
    return model


def _windows(buffer, first: int, targets: int, n: int):
    """The n history rows of each of `targets` targets, target b's from
    buffer row first + b on, as one zero-copy (targets, width, n) view whose
    blocks have the strides of one target's rows."""
    row, col = buffer.strides
    return np.ndarray((targets, buffer.shape[1], n), buffer.dtype, buffer,
                      first * row, (row, col, row))


def _attend_step(query, own_score, own_v, history):
    """Attention contexts (targets, 1, d) of the codec's step.

    Each target's per-head queries (H, 1, d/H) score its n history keys,
    the first half of history (targets, 2d, n) read as (targets, 2H, d/H, n),
    and own_score (targets, H, 1, 1) holds their scores against its own key;
    the weights then mix the history values and its own values own_v
    (targets, d).  Every product is one target's and one head's, stacked.
    """
    targets, heads, _, dh = query.shape
    n = history.shape[2]
    history = history.reshape(targets, 2 * heads, dh, n)
    weights = nn.softmax_np(np.concatenate(
        (query @ history[:, :heads], own_score), axis=3))
    c = (weights[..., :n] @ history[:, heads:].swapaxes(2, 3)
         + weights[..., n:] * own_v.reshape(targets, heads, 1, dh))
    return c.reshape(targets, 1, heads * dh)


def _attend_one(query, own_score, own_v, history):
    """`_attend_step`'s ops for one target without the target axis: query
    (H, 1, d/H), own_score (H, 1, 1), own_v (d,) and history (2d, n), a
    transposed slice of the K/V buffer, give the same context (d,)."""
    heads, _, dh = query.shape
    history = history.reshape(2 * heads, dh, -1)
    weights = np.concatenate((query @ history[:heads], own_score), axis=2)
    weights -= weights.max(axis=2, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=2, keepdims=True)
    c = weights[..., :-1] @ history[heads:].swapaxes(1, 2)
    c += weights[..., -1:] * own_v.reshape(heads, 1, dh)
    return c.reshape(-1)


# Targets per window block in `distributions`.  Every target scores all of
# the block's chunk + N - 1 rows, so the band's cost grows with the chunk;
# 64-128 targets ran fastest at both N=64 and N=1024.
ANALYSIS_CHUNK = 128


class ContextModel:
    """Bundles a ModelConfig with its ParamStore; encoder and decoder share it.

    The forward pass is written once, as `_embed`, `_project_kv`,
    `_attend_core` and `_heads`.  Each reads its weights from `params`: the
    ParamStore by default (plain ndarrays, used by analysis) or a training
    tape (used by `batch_losses`), on which only the learned weights are
    Tensors.  Both runs perform the same ops in the same order.  The codec's
    `predict` runs on the lowered `CodecWeights` instead.
    """

    def __init__(self, cfg: ModelConfig, params: nn.ParamStore):
        self.cfg = cfg
        self.params = params
        self._made = {}  # what -> ((store, writes, cfg), value)

    @classmethod
    def create(cls, cfg: ModelConfig) -> "ContextModel":
        return cls(cfg, init_params(cfg))

    @classmethod
    def load(cls, path) -> "ContextModel":
        """Read a checkpoint; ConfigError unless its tensors fit its config."""
        params, config = nn.load_checkpoint(path)
        cfg = ModelConfig.from_dict(config)
        want = param_shapes(cfg)
        got = {name: value.shape for name, value in params.items()}
        if got.keys() != want.keys():
            missing = sorted(want.keys() - got.keys())
            extra = sorted(got.keys() - want.keys())
            raise ConfigError(f"checkpoint parameters do not match its config "
                              f"(missing {missing}, unexpected {extra})")
        for name, shape in want.items():
            if got[name] != shape:
                raise ConfigError(f"parameter {name!r} has shape {got[name]}; "
                                  f"the config implies {shape}")
        return cls(cfg, params)

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.params, self.cfg.to_dict())

    def _once(self, what: str, make):
        """make(), kept until the store, its write count or the config
        differs from when it was made."""
        state = (self.params, self.params.writes, self.cfg)
        made = self._made.get(what)
        if made is None or made[0] != state:
            made = self._made[what] = (state, make())
        return made[1]

    def digest(self) -> bytes:
        return self._once("digest", lambda: nn.checkpoint_digest(
            self.params, self.cfg.to_dict()))

    def codec_weights(self) -> "CodecWeights":
        return self._once("codec_weights", lambda: CodecWeights(self))

    def _embed(self, slots: np.ndarray, params=None):
        """Chains (..., K+1, 3) -> slot vectors (..., d)."""
        P = self.params if params is None else params
        occ = nn.embedding(P["embed.occupancy"], slots[..., 0])
        lvl = nn.embedding(P["embed.level"], slots[..., 1])
        octn = nn.embedding(P["embed.octant"], slots[..., 2])
        feat = nn.concat((occ, lvl, octn), axis=-1)
        feat = feat.reshape(*slots.shape[:-2], -1)
        return feat @ P["slot.w"] + P["slot.b"]

    def _project_kv(self, x, params=None):
        """Slot vectors x (..., n, d) -> attention keys and values (..., n, d)."""
        P = self.params if params is None else params
        return (x @ P["attn0.wk"] + P["attn0.bk"],
                x @ P["attn0.wv"] + P["attn0.bv"])

    def _attend_core(self, x_t, k, v, band, params=None):
        """Target rows x_t (B, d) over key/value rows k, v (R, d) ->
        weighted contexts (B, d).

        One multi-head attention layer whose only query is the target row.
        Target b attends to row j where band[b, j].
        """
        P = self.params if params is None else params
        heads = self.cfg.heads
        d = k.shape[-1]
        dh = d // heads

        def split(t):  # (rows, d) -> (H, rows, dh)
            return t.reshape(t.shape[0], heads, dh).swapaxes(0, 1)

        q = split(x_t @ P["attn0.wq"] + P["attn0.bq"])
        scores = (q @ split(k).swapaxes(-1, -2)) * (1.0 / math.sqrt(dh))
        scores = scores + nn.mask_bias(band)
        weights = nn.softmax(scores, axis=-1)
        ctx = (weights @ split(v)).swapaxes(0, 1).reshape(x_t.shape[0], d)
        return ctx @ P["attn0.wo"] + P["attn0.bo"]

    def _attend_block(self, block, params=None):
        """Weighted contexts (B, d) of a `GrowingContext.window_block`: each
        row is embedded and projected once, the targets' own rows (the last
        B) give the queries, and the band keeps each target's window."""
        rows, band = block
        x = self._embed(rows, params)
        k, v = self._project_kv(x, params)
        return self._attend_core(x[-len(band):], k, v, band, params)

    def _heads(self, wc, r, params=None):
        """(q, o, a1): floored 255-way distribution, 8 branch sigmoids and
        the main MLP's first-layer activation, from [wc ; r]."""
        P = self.params if params is None else params
        h = nn.concat((wc, r), axis=-1)
        a1 = nn.relu(h @ P["main.w1"] + P["main.b1"])
        hb = nn.relu(h @ P["branch.w1"] + P["branch.b1"])
        o = nn.sigmoid(hb @ P["branch.w2"] + P["branch.b2"])
        fusion = o if self.cfg.enable_branch else np.zeros(o.shape)
        z = nn.concat((a1, fusion), axis=-1) @ P["main.w2"] + P["main.b2"]
        p = nn.softmax(z, axis=-1)
        q = p * (1.0 - PROB_FLOOR) + PROB_FLOOR / 255.0
        return q, o, a1

    def _block_heads(self, block, lead: bool, params=None):
        """_heads of a window block's targets, with r_i = wc_i - wc_{i-1}.

        With lead, the first window only seeds the first residual; otherwise
        r_0 = 0; r = 0 with residuals off.  r slices wc_all afresh: reusing
        wc would reorder the tape's gradient sums and change trained bits.
        """
        wc_all = self._attend_block(block, params)
        wc = wc_all[1:] if lead else wc_all
        if not self.cfg.enable_residual:
            r = np.zeros(wc.shape)
        elif lead:
            r = wc_all[1:] - wc_all[:-1]
        else:
            r = nn.concat((np.zeros((1, wc.shape[1])), wc[1:] - wc[:-1]), axis=0)
        return self._heads(wc, r, params)

    def predict(self, cache: "KVCache", i: int, j: int):
        """The codec's step for targets i, ..., j - 1: (c, q, o), one row
        a target, c the attention output before wo (`CodecWeights` folds wo
        into the heads); o is None with the branch off, which it skips.

        Encoder and decoder step through nodes 0, 1, 2, ... in order, the
        decoder one target a call and the encoder in runs of at most the
        cache's batch.  A run stacks its targets' products, each of the
        one-target call's shape, never a GEMM across targets.  Where its
        windows have one length it reads the histories as a strided view of
        the cache; where they differ (growing windows: the stream's first
        N - 1 nodes) each target attends alone over its own slice, through
        `_attend_one`.  One target (every decoder step) runs the same ops on
        arrays without the target axis (`_attend_one`, `_heads_one`), so a
        target's floats, and therefore its frequency table, depend neither
        on the run it is in nor on the form.  Each target's query scores the
        history rows of its window and its own row (its chain with occupancy
        PAD).  A history row is a node's own row plus its occupancy's delta,
        stored once the node's occupancy is set, so no row is embedded
        twice.  The step runs on the cache's `CodecWeights`, not on
        `params`.
        """
        ctx, w = cache.ctx, cache.weights
        if not (cache.next_node <= i < j <= ctx.count):
            raise InvalidInput(f"nodes {i}..{j - 1} are not the next nodes "
                               "to predict")
        if j - i > cache.batch:
            raise InvalidInput(f"targets {i}..{j - 1} are more than "
                               f"{cache.batch}")
        lo = ctx.window_start(i)
        n = i - lo  # history rows of target i
        start = max(lo, cache.next_node)
        occ = ctx.window(j - 1, start)[0][:-1, 0, 0]
        if not occ.all():
            raise InvalidInput(f"a history node of node {j - 1} is not "
                               "coded yet")
        kv, query, own_score = cache.targets(start, j)
        first = cache.rows(lo, start, kv[:j - 1 - start], occ)
        if j - i == 1:
            return self._heads_one(cache, _attend_one(
                query[-1], own_score[-1], kv[-1, w.d:],
                cache.kv[first:first + n].T))
        query, own_score, own_v = (query[i - start:], own_score[i - start:],
                                   kv[i - start:, w.d:])
        targets = np.arange(i, j)
        los = ctx.window_start(targets)
        if (targets - los == n).all():
            c = _attend_step(query, own_score, own_v,
                             _windows(cache.kv, first, j - i, n))
        else:  # growing windows: each target attends over its own slice
            c = np.empty((j - i, 1, w.d), dtype=np.float32)
            for b, lo_t in enumerate(los.tolist()):
                history = cache.kv[first + lo_t - lo:first + n + b].T
                c[b, 0] = _attend_one(query[b], own_score[b], own_v[b],
                                      history)
        h = c  # one (1, width) row a target from here on
        if self.cfg.enable_residual:  # r_0 = 0 at the stream's start
            prev = np.concatenate((c[:1] if cache.c_prev is None
                                   else cache.c_prev[None, None], c[:-1]))
            h = np.concatenate((c, c - prev), axis=2)
        a = np.maximum(h @ w.w1 + w.b1, 0.0)
        z = a[..., :w.hidden_main] @ w.w2_main + w.b2
        o = None
        if self.cfg.enable_branch:
            hb = a[..., w.hidden_main:] @ w.branch_w2 + w.branch_b2
            o = 0.5 * np.tanh(0.5 * hb) + 0.5  # the sigmoid, without overflow
            z += o @ w.w2_branch
            o = o[:, 0]
        z -= z.max(axis=2, keepdims=True)
        q = np.exp(z, out=z)
        q *= (1.0 - PROB_FLOOR) / q.sum(axis=2, keepdims=True)
        q += PROB_FLOOR / 255.0
        cache.c_prev = c[-1, 0]
        return c[:, 0], q[:, 0], o

    def _heads_one(self, cache: "KVCache", c):
        """`predict`'s residual and heads for one target from its attention
        output c (d,): the run form's ops in its order on 1-D vectors, so
        every float is the same; one row each, as a run returns them."""
        w = cache.weights
        prev = c if cache.c_prev is None else cache.c_prev  # r_0 = 0
        h = np.concatenate((c, c - prev)) if self.cfg.enable_residual else c
        a = h @ w.w1
        a += w.b1
        np.maximum(a, 0.0, out=a)
        z = a[:w.hidden_main] @ w.w2_main
        z += w.b2
        o = None
        if self.cfg.enable_branch:
            o = 0.5 * np.tanh(0.5 * (a[w.hidden_main:] @ w.branch_w2
                                     + w.branch_b2)) + 0.5
            z += o @ w.w2_branch
            o = o[None]
        z -= z.max()
        np.exp(z, out=z)
        # an array, as in the run form: NumPy 1.x would divide by a float32
        # scalar in float64
        z *= (1.0 - PROB_FLOOR) / z.sum(keepdims=True)
        z += PROB_FLOOR / 255.0
        cache.c_prev = c
        return c[None], z[None], o

    def blocks(self, asm: ContextAssembler, size: int):
        """(start, stop, block, lead) for consecutive runs of `size` targets.
        With residuals on, each block past the first leads with one extra
        window (lead) whose wc seeds the first residual."""
        for start in range(0, asm.count, size):
            stop = min(start + size, asm.count)
            lead = self.cfg.enable_residual and start > 0
            yield start, stop, asm.window_block(start - lead, stop), lead

    def distributions(self, seq: NodeSequence):
        """(q, o, a1) of `_heads` for every node of a sequence, batched
        (analysis use; not the codec)."""
        asm = ContextAssembler(seq, self.cfg.ctx)
        heads = [self._block_heads(block, lead)
                 for _, _, block, lead in self.blocks(asm, ANALYSIS_CHUNK)]
        return tuple(np.concatenate(part) for part in zip(*heads))

    def batch_losses(self, tape, block, labels, lead: bool):
        """(ce, mse) for one training batch: the mean over targets
        of -log2 q[occupancy - 1] in bits, and the mean squared error of the
        8 branch outputs against the occupancy's bits (bit j = octant j).
        block and lead are as `blocks` yields them.  A loss that no learned
        parameter of `tape` reaches is a plain scalar.
        """
        q, o, _ = self._block_heads(block, lead, tape)
        picked = nn.take_along_last(q, np.asarray(labels, dtype=np.int64) - 1)
        ce = nn.mean(nn.log(picked)) * (-1.0 / LOG2)
        bits = ((np.asarray(labels)[:, None] >> np.arange(8)) & 1).astype(np.float64)
        diff = o - bits
        mse = nn.mean(diff * diff)
        return ce, mse


class CodecWeights:
    """A model's weights lowered once for the codec's step, folded in
    float64 and then rounded to float32, the dtype the step runs in.

    table: each embedding table through its block of slot.w, one
    ((K+1) * 286, d) array written in place, slot.b added to its first
    block, so a row's slot vector is the sum of its 3(K+1) table rows at
    chain + offsets.  kvq is [wk | wv | wq] with the query columns scaled by
    1/sqrt(d/H).  w1 is [main.w1 | branch.w1] (the main columns alone with
    the branch off, and only the wc rows with residuals off) with wo folded
    into each d-row block, and b1 takes bo through the wc rows: wc = c wo +
    bo for the attention output c, and r = wc - wc_prev = (c - c_prev) wo.
    main.w2 is split into its a1 rows and its branch rows.  occ_delta[o] is
    what occupancy o adds to a row's keys and values over the occupancy
    PAD: a history row is its node's target row plus occ_delta of its
    occupancy.
    """

    def __init__(self, model: ContextModel):
        cfg, P = model.cfg, model.params
        e, d, dh = cfg.d_embed, cfg.d_model, cfg.d_model // cfg.heads
        self.d, self.hidden_main = d, cfg.d_hidden_main
        embeds = [P[f"embed.{nm}"] for nm in ("occupancy", "level", "octant")]
        first = np.cumsum([0] + [len(t) for t in embeds])
        slots = cfg.ctx.k_ancestors + 1
        self.offsets = (np.arange(slots)[:, None] * first[-1]
                        + first[:-1]).astype(np.int32)
        self.table = np.empty((slots * first[-1], d))
        slot_w = P["slot.w"]
        for block, lo in enumerate(self.offsets.ravel()):
            table = embeds[block % 3]
            np.matmul(table, slot_w[block * e:(block + 1) * e],
                      out=self.table[lo:lo + len(table)])
        self.table[:first[1]] += P["slot.b"]
        scale = 1.0 / math.sqrt(dh)
        self.kvq = np.concatenate((P["attn0.wk"], P["attn0.wv"],
                                   P["attn0.wq"] * scale), axis=1)
        self.kvq_b = np.concatenate((P["attn0.bk"], P["attn0.bv"],
                                     P["attn0.bq"] * scale))
        occ = P["embed.occupancy"]
        self.occ_delta = (occ - occ[PAD]) @ slot_w[:e] @ self.kvq[:, :2 * d]
        self.heads = cfg.heads
        heads = ("main", "branch") if cfg.enable_branch else ("main",)
        rows = 2 * d if cfg.enable_residual else d
        w1 = np.concatenate([P[f"{nm}.w1"][:rows] for nm in heads], axis=1)
        wo = P["attn0.wo"]
        self.w1 = np.concatenate([wo @ w1[k:k + d] for k in range(0, rows, d)])
        self.b1 = (np.concatenate([P[f"{nm}.b1"] for nm in heads])
                   + P["attn0.bo"] @ w1[:d])
        self.w2_main = P["main.w2"][:self.hidden_main]
        self.w2_branch = P["main.w2"][self.hidden_main:]
        self.b2 = P["main.b2"]
        self.branch_w2, self.branch_b2 = P["branch.w2"], P["branch.b2"]
        # every cache of the model reads them; the step runs in float32
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                if value.dtype == np.float64:
                    value = vars(self)[name] = value.astype(np.float32)
                value.flags.writeable = False


class KVCache:
    """Attention keys and values of coded nodes, the target rows of the
    nodes to come, and the model's `CodecWeights` as of the cache's making,
    for `ContextModel.predict`.

    Buffer row j of `kv` holds node base + j's history row [k | v], so the
    histories of a run of targets are one strided view in node order, or,
    where the run's windows differ in length, one slice each.  A step
    takes at most `batch` targets, as many as keep its (targets, heads, N)
    float32 scores within 256 KB: 256 at the default size, 16 at full
    scale.  The buffer, float32 like every float of the step, holds
    min(2(N-1) + batch, nodes) rows for a stream of `nodes` nodes: one that
    holds the whole stream never compacts, and otherwise, when a step's rows
    would not fit, the rows of the first target's history nodes move to the
    front first, so memory is O(N d) however many nodes are coded.  (A ring
    that wraps would break the view.)  A target row depends on its node's
    ancestors alone, so `targets` embeds and projects the rows of `batch`
    nodes at a time, as far as the window table reaches (larger blocks ran
    slower per row).
    """

    def __init__(self, model: ContextModel, ctx: GrowingContext, nodes: int):
        self.ctx = ctx
        self.weights = model.codec_weights()
        cfg = model.cfg
        n = cfg.ctx.n_window
        self.batch = max(1, (1 << 18) // (4 * cfg.heads * n))
        self.kv = np.empty((min(2 * (n - 1) + self.batch, nodes),
                            2 * cfg.d_model), dtype=np.float32)
        self.base = 0       # node held by buffer row 0
        self.next_node = 0  # the first node whose history row is not cached
        self.c_prev = None  # the last target's attention output
        self.held = (0, 0, None)  # nodes [first, stop) and their target rows

    def targets(self, start: int, stop: int):
        """(kv, query, own_score) of nodes start, ..., stop - 1 as targets,
        their occupancy PAD: the rows [k | v] (targets, 2d), the queries
        split by head (targets, H, 1, d/H) and each head's query score
        against its own key (targets, H, 1, 1)."""
        first, end, rows = self.held
        if not first <= start <= stop <= end:
            w = self.weights
            end = min(max(stop, start + self.batch), self.ctx.count)
            index = self.ctx.chains[start:end] + w.offsets
            index[:, 0, 0] = PAD  # the occupancy block starts the table
            x = w.table[index].reshape(end - start, -1, w.d).sum(
                axis=1, keepdims=True)
            kvq = x @ w.kvq + w.kvq_b
            split = (end - start, w.heads, 1, -1)
            query = kvq[..., 2 * w.d:].reshape(split)
            rows = (kvq[:, 0, :2 * w.d], query,
                    (query * kvq[..., :w.d].reshape(split)).sum(
                        axis=3, keepdims=True))
            first, self.held = start, (start, end, rows)
        kv, query, own_score = rows
        a, b = start - first, stop - first
        return kv[a:b], query[a:b], own_score[a:b]

    def rows(self, lo: int, start: int, kv, occ) -> int:
        """Store the history rows of nodes start, ..., stop - 1, their
        target rows kv plus the deltas of their occupancies occ, and return
        the buffer row of node lo; the rows of nodes lo, ..., stop - 1
        follow it in node order.  If node stop - 1 would fall past the
        buffer's end, the rows of nodes [lo, start) move to the front
        first."""
        stop = start + len(kv)
        if stop - self.base > len(self.kv):
            self.kv[:start - lo] = self.kv[lo - self.base:start - self.base]
            self.base = lo
        np.add(kv, self.weights.occ_delta[occ],
               out=self.kv[start - self.base:stop - self.base])
        self.next_node = stop
        return lo - self.base


def train(model: ContextModel, corpus, schedule: TrainSchedule = TrainSchedule()):
    """Two-stage training; returns the per-batch loss trace.

    Stage 1 updates only branch parameters against the MSE loss; stage 2
    freezes them and updates everything else against cross-entropy.  Each
    batch backpropagates into its stage's parameters alone, and the frozen
    rest runs on plain arrays.  The per-epoch learning rate is
    lr * lr_decay**epoch within each stage.  A non-finite loss raises
    NumericalError before Adam changes anything.
    No shuffling: residual pairing needs the serialized node order.
    """
    if not corpus:
        raise InvalidInput("training corpus is empty")
    assemblers = [ContextAssembler(seq, model.cfg.ctx) for seq in corpus]
    trace: list[TraceRecord] = []
    for stage in (1, 2):
        epochs = schedule.branch_epochs if stage == 1 else schedule.main_epochs
        names = branch_param_names if stage == 1 else main_param_names
        group = set(names(model.params))
        for epoch in range(epochs):
            lr = schedule.lr * schedule.lr_decay ** epoch
            for seq, asm in zip(corpus, assemblers):
                for start, stop, block, lead in model.blocks(
                        asm, schedule.batch_size):
                    tape = model.params.tape(group)
                    ce, mse = model.batch_losses(tape, block,
                                                 seq.occupancy[start:stop], lead)
                    loss, recorded = (mse, ce) if stage == 1 else (ce, mse)
                    loss.backward()  # NumericalError naming the first bad op
                    if not math.isfinite(float(recorded)):
                        raise NumericalError("non-finite training loss")
                    grads = {name: tape[name].grad for name in group
                             if tape[name].grad is not None}
                    nn.adam_step(model.params, grads, lr)
                    trace.append(TraceRecord(stage, len(trace), float(ce),
                                             float(mse), lr))
    return trace


def write_trace(path, trace) -> None:
    """CSV loss trace: batch_index, ce_loss, mse_loss, stage, lr.

    New columns go after the first three, which readers may rely on.
    """
    with open(path, "w") as f:
        f.write("batch_index,ce_loss,mse_loss,stage,lr\n")
        for rec in trace:
            f.write(f"{rec.batch_index},{rec.ce_loss:.6f},{rec.mse_loss:.6f},"
                    f"{rec.stage},{rec.lr:.6g}\n")
