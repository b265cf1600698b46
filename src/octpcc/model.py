"""The enhanced occupancy context model.

Pipeline per node: feature embeddings -> one masked multi-head attention
layer whose only query is the target slot -> weighted context wc_i ->
context feature residual r_i = wc_i - wc_{i-1} -> both heads consume
[wc_i ; r_i].  The main head is a two-layer MLP ending in a 255-way
softmax; the branch head is an MLP ending in 8 sigmoids (per-child
occupancy).  The branch output is fused into the main head by
concatenation with the main MLP's penultimate activation before the final
linear layer.

Ablation toggles: enable_residual feeds a zero vector instead of r_i;
enable_branch feeds zeros into the fusion slot.  All four combinations
share one checkpoint schema.

Training is two-stage: first only the branch parameters learn (MSE loss),
then the branch is frozen and everything else learns (cross-entropy).
Batches preserve the breadth-first node order so residual pairing during
training matches what the codec does at encode time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import nn
from .context import ContextAssembler, ContextConfig
from .errors import ConfigError, InvalidInput, NumericalError
from .octree import NodeSequence

PROB_FLOOR = 1e-6  # uniform mixing weight; keeps every class strictly positive
LOG2 = math.log(2.0)
MAX_TREE_DEPTH = 21


# Checkpoint config keys and their JSON types.
_CTX_KEYS = {"n_window": int, "k_ancestors": int, "strict_level": bool}
_MODEL_KEYS = {"d_embed": int, "d_model": int, "d_hidden_main": int,
               "d_hidden_branch": int, "heads": int, "enable_residual": bool,
               "enable_branch": bool, "max_depth": int, "seed": int}
# Kept in every config for checkpoint compatibility; no other value loads.
_FIXED_KEYS = {"attn_layers": 1, "layer_norm": False}


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
    max_depth: int = MAX_TREE_DEPTH
    seed: int = 0

    def __post_init__(self):
        if min(self.d_embed, self.d_model, self.d_hidden_main,
               self.d_hidden_branch, self.heads) < 1:
            raise InvalidInput("model dimensions must be positive")
        if self.d_model % self.heads:
            raise InvalidInput("d_model must be divisible by heads")

    @property
    def variant(self) -> str:
        """What the ablation toggles actually enable."""
        names = {(False, False): "plain", (True, False): "residual",
                 (False, True): "branch", (True, True): "residual+branch"}
        return names[(self.enable_residual, self.enable_branch)]

    def to_dict(self) -> dict:
        return {
            "n_window": self.ctx.n_window, "k_ancestors": self.ctx.k_ancestors,
            "strict_level": self.ctx.strict_level, "d_embed": self.d_embed,
            "d_model": self.d_model, "d_hidden_main": self.d_hidden_main,
            "d_hidden_branch": self.d_hidden_branch, "heads": self.heads,
            "enable_residual": self.enable_residual,
            "enable_branch": self.enable_branch, "max_depth": self.max_depth,
            "seed": self.seed, **_FIXED_KEYS,
        }

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
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8


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
    shapes = {"embed.occupancy": (256, e), "embed.level": (cfg.max_depth + 1, e),
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


# Targets per batched forward in weighted_contexts: bounds the
# (chunk, N, slot features) intermediates.
ANALYSIS_CHUNK = 512


class ContextModel:
    """Bundles a ModelConfig with its ParamStore; encoder and decoder share it.

    The forward pass is written once, as `_embed`, `_attend` and `_heads`.
    Each reads its weights from `params`: the ParamStore by default (plain
    ndarrays, used by the codec and analysis) or a training tape of Tensors
    (used by `batch_losses`).  Both runs perform the same ops in the same
    order.
    """

    def __init__(self, cfg: ModelConfig, params: nn.ParamStore):
        self.cfg = cfg
        self.params = params

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

    def digest(self) -> bytes:
        return nn.checkpoint_digest(self.params, self.cfg.to_dict())

    def _embed(self, slots: np.ndarray, params=None):
        """slots (..., N, K+1, 3) -> slot vectors (..., N, d)."""
        P = self.params if params is None else params
        occ = nn.embedding(P["embed.occupancy"], slots[..., 0])
        lvl = nn.embedding(P["embed.level"], slots[..., 1])
        octn = nn.embedding(P["embed.octant"], slots[..., 2])
        feat = nn.concat((occ, lvl, octn), axis=-1)
        feat = feat.reshape(*slots.shape[:-2], -1)
        return feat @ P["slot.w"] + P["slot.b"]

    def _attend(self, x, valid: np.ndarray, params=None):
        """x (..., N, d) -> weighted context (..., d) at the target slot.

        One masked multi-head attention layer whose only query is the
        target (last) slot.
        """
        P = self.params if params is None else params
        heads = self.cfg.heads
        n, d = x.shape[-2], x.shape[-1]
        dh = d // heads
        lead = x.shape[:-2]

        def split(t, rows):  # (..., rows, d) -> (..., H, rows, dh)
            return t.reshape(*lead, rows, heads, dh).swapaxes(-3, -2)

        q = split(x[..., -1:, :] @ P["attn0.wq"] + P["attn0.bq"], 1)
        k = split(x @ P["attn0.wk"] + P["attn0.bk"], n)
        v = split(x @ P["attn0.wv"] + P["attn0.bv"], n)
        bias = nn.mask_bias(valid).reshape(*lead, 1, 1, n)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(dh)) + bias
        weights = nn.softmax(scores, axis=-1)
        ctx = (weights @ v).swapaxes(-3, -2).reshape(*lead, 1, d)
        out = ctx @ P["attn0.wo"] + P["attn0.bo"]
        return out[..., -1, :]

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

    def _residuals_from_wc(self, wc, leading_prev: bool = False):
        """r_i = wc_i - wc_{i-1} for consecutive targets (rows of wc).

        With leading_prev, row 0 only seeds the first residual and gets no
        residual of its own; otherwise the first row's residual is zero.
        Zero throughout when residuals are disabled.
        """
        rows = wc.shape[0] - (1 if leading_prev else 0)
        if not self.cfg.enable_residual:
            return np.zeros((rows, self.cfg.d_model))
        if leading_prev:
            return wc[1:] - wc[:-1]
        if rows == 1:
            return np.zeros((1, self.cfg.d_model))
        return nn.concat((np.zeros((1, self.cfg.d_model)), wc[1:] - wc[:-1]),
                         axis=0)

    def predict(self, slots: np.ndarray, valid: np.ndarray, wc_prev):
        """Single-window forward: (wc, dist, branch) as raw arrays.

        The codec calls exactly this on both sides, one node at a time, so
        the float sequence, and therefore every frequency table, is
        identical during encode and decode.
        """
        wc = self._attend(self._embed(slots), valid)
        if self.cfg.enable_residual and wc_prev is not None:
            r = wc - wc_prev
        else:
            r = np.zeros_like(wc)
        q, o, _ = self._heads(wc, r)
        return wc, q, o

    def weighted_contexts(self, seq: NodeSequence) -> np.ndarray:
        """wc for every node, batched (training/analysis use; not the codec)."""
        asm = ContextAssembler(seq, self.cfg.ctx)
        out = np.empty((len(seq), self.cfg.d_model))
        for start in range(0, len(seq), ANALYSIS_CHUNK):
            stop = min(start + ANALYSIS_CHUNK, len(seq))
            slots, valid = asm.window_block(start, stop)
            out[start:stop] = self._attend(self._embed(slots), valid)
        return out

    def distributions(self, seq: NodeSequence):
        """(dists (n,255), first-layer activations (n,hidden)) for a sequence."""
        wc = self.weighted_contexts(seq)
        q, _, a1 = self._heads(wc, self._residuals_from_wc(wc))
        return q, a1

    def sequence_entropy(self, seq: NodeSequence) -> float:
        """Ideal codelength in bits: sum of -log2 q(x_i | c_i) in encode order."""
        q, _ = self.distributions(seq)
        picked = q[np.arange(len(seq)), seq.occupancy - 1]
        return float(-np.log2(picked).sum())

    def batch_losses(self, tape, slots, valid, labels, leading_prev: bool):
        """(ce, mse) Tensors for one training batch.

        slots/valid cover the batch targets plus, when leading_prev, one
        extra leading window whose wc seeds the first residual.
        """
        wc_all = self._attend(self._embed(slots, tape), valid, tape)
        wc = wc_all[1:] if leading_prev else wc_all
        q, o, _ = self._heads(wc, self._residuals_from_wc(wc_all, leading_prev),
                              tape)
        picked = nn.take_along_last(q, np.asarray(labels, dtype=np.int64) - 1)
        ce = picked.log().mean() * (-1.0 / LOG2)
        bits = ((np.asarray(labels)[:, None] >> np.arange(8)) & 1).astype(np.float64)
        diff = nn.constant(bits) - o
        mse = (diff * diff).mean()
        return ce, mse


def loss_ce(q: np.ndarray, occupancy: int) -> float:
    """Cross-entropy against the one-hot label, in bits: -log2 q[occ-1]."""
    if not (1 <= occupancy <= 255):
        raise InvalidInput("occupancy must be in [1, 255]")
    return float(-np.log2(q[occupancy - 1]))


def loss_mse(o: np.ndarray, l) -> float:
    """Mean squared error between branch output and the 8 child-occupied bits."""
    l = np.asarray(l, dtype=np.float64)
    o = np.asarray(o, dtype=np.float64)
    if o.shape != (8,) or l.shape != (8,):
        raise InvalidInput("branch vector and label must both have 8 entries")
    return float(((l - o) ** 2).mean())


def occupancy_bits(occ) -> np.ndarray:
    """8 child-occupied booleans of an occupancy code (bit j = octant j)."""
    return ((np.asarray(occ)[..., None] >> np.arange(8)) & 1).astype(bool)


def train(model: ContextModel, corpus, schedule: TrainSchedule = TrainSchedule()):
    """Two-stage training; returns the per-batch loss trace.

    Stage 1 updates only branch parameters against the MSE loss; stage 2
    freezes them and updates everything else against cross-entropy.  The
    per-epoch learning rate is lr * lr_decay**epoch within each stage.
    No shuffling: residual pairing needs the serialized node order.
    """
    if not corpus:
        raise InvalidInput("training corpus is empty")
    cfg = model.cfg
    assemblers = [ContextAssembler(seq, cfg.ctx) for seq in corpus]
    trace: list[TraceRecord] = []
    batch_counter = 0
    for stage in (1, 2):
        epochs = schedule.branch_epochs if stage == 1 else schedule.main_epochs
        if stage == 1:
            group = set(branch_param_names(model.params))
        else:
            group = set(main_param_names(model.params))
        for epoch in range(epochs):
            lr = schedule.lr * schedule.lr_decay ** epoch
            for seq, asm in zip(corpus, assemblers):
                for start in range(0, len(seq), schedule.batch_size):
                    stop = min(start + schedule.batch_size, len(seq))
                    lead = cfg.enable_residual and start > 0
                    slots, valid = asm.window_block(start - (1 if lead else 0), stop)
                    labels = seq.occupancy[start:stop]
                    tape = model.params.tape()
                    ce, mse = model.batch_losses(tape, slots, valid, labels, lead)
                    loss = mse if stage == 1 else ce
                    if not np.isfinite(loss.data):
                        raise NumericalError("non-finite training loss")
                    loss.backward()
                    grads = {name: tape[name].grad for name in group
                             if tape[name].grad is not None}
                    nn.adam_step(model.params, grads, lr, schedule.betas,
                                 schedule.eps)
                    trace.append(TraceRecord(stage, batch_counter,
                                             float(ce.data), float(mse.data), lr))
                    batch_counter += 1
    return trace


def write_trace(path, trace) -> None:
    """CSV-like loss trace: batch_index, ce_loss, mse_loss."""
    with open(path, "w") as f:
        f.write("batch_index,ce_loss,mse_loss\n")
        for rec in trace:
            f.write(f"{rec.batch_index},{rec.ce_loss:.6f},{rec.mse_loss:.6f}\n")
