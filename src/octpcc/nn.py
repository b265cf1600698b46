"""Dense-tensor compute layer with reverse-mode gradients.

Just enough machinery for the occupancy model: float64 numpy arrays on a
tape (embeddings, matmul, masked softmax, sigmoid, relu, concat/slice/
reshape), an Adam optimizer with per-parameter moments, and a versioned
checkpoint container.  The functional ops (`embedding`, `concat`,
`softmax`, `relu`, `sigmoid`) return a plain ndarray when given plain
ndarrays, so one forward definition serves both inference and training.

Parameters are kept float32-representable at all times (initialization and
every optimizer step round through float32) so that the float32 checkpoint
round trip is bit-exact and an in-memory parameter store can never drift
from its own saved file; the encoder/decoder agreement hinges on that.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .errors import InvalidInput, NumericalError, ParseError

_NEG_INF = -1e30  # additive mask value; exp underflows to exactly 0


def _check(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericalError(f"non-finite values produced by op {op!r}")
    return data


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus the tape hooks for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None,
                 op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _check(self.data, op)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise InvalidInput("backward() needs a scalar loss")
        topo, seen = [], set()

        def visit(t):
            if id(t) in seen:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.requires_grad and t.grad is not None:
                t._backward(t.grad)

    # -- elementwise / structural ops -------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.shape))

        return Tensor(self.data + other.data, parents=(self, other),
                      backward=back, op="add")

    def __sub__(self, other):
        other = _as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g, other.shape))

        return Tensor(self.data - other.data, parents=(self, other),
                      backward=back, op="sub")

    def __mul__(self, other):
        other = _as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor(self.data * other.data, parents=(self, other),
                      backward=back, op="mul")

    __rmul__ = __mul__

    def __neg__(self):
        def back(g):
            if self.requires_grad:
                self._accum(-g)

        return Tensor(-self.data, parents=(self,), backward=back, op="neg")

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise InvalidInput("matmul operands must be at least 2-D")

        def back(g):
            if self.requires_grad:
                da = np.matmul(g, other.data.swapaxes(-1, -2))
                self._accum(_unbroadcast(da, self.shape))
            if other.requires_grad:
                db = np.matmul(self.data.swapaxes(-1, -2), g)
                other._accum(_unbroadcast(db, other.shape))

        return Tensor(np.matmul(self.data, other.data), parents=(self, other),
                      backward=back, op="matmul")

    def log(self):
        def back(g):
            if self.requires_grad:
                self._accum(g / self.data)

        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(self.data)
        return Tensor(out, parents=(self,), backward=back, op="log")

    def sum(self, axis=None, keepdims=False):
        def back(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accum(np.broadcast_to(g, self.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(gg, self.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), backward=back, op="sum")

    def mean(self, axis=None, keepdims=False):
        denom = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def reshape(self, *shape):
        def back(g):
            if self.requires_grad:
                self._accum(g.reshape(self.shape))

        return Tensor(self.data.reshape(*shape), parents=(self,),
                      backward=back, op="reshape")

    def swapaxes(self, a, b):
        def back(g):
            if self.requires_grad:
                self._accum(g.swapaxes(a, b))

        return Tensor(self.data.swapaxes(a, b), parents=(self,),
                      backward=back, op="swapaxes")

    def __getitem__(self, key):
        def back(g):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[key] += g

        return Tensor(self.data[key], parents=(self,), backward=back, op="slice")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def concat(tensors, axis: int):
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tuple(tensors), backward=back, op="concat")


def embedding(table, idx: np.ndarray):
    if not isinstance(table, Tensor):
        return table[idx]
    idx = np.asarray(idx)

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return Tensor(table.data[idx], parents=(table,), backward=back, op="embedding")


def softmax(x, axis: int = -1):
    if not isinstance(x, Tensor):
        return softmax_np(x, axis=axis)
    out = softmax_np(x.data, axis=axis)

    def back(g):
        if x.requires_grad:
            inner = (g * out).sum(axis=axis, keepdims=True)
            x._accum(out * (g - inner))

    return Tensor(out, parents=(x,), backward=back, op="softmax")


def relu(x):
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)
    keep = x.data > 0

    def back(g):
        if x.requires_grad:
            x._accum(g * keep)

    return Tensor(np.maximum(x.data, 0.0), parents=(x,), backward=back,
                  op="relu")


def sigmoid(x):
    if not isinstance(x, Tensor):
        return sigmoid_np(x)
    out = sigmoid_np(x.data)

    def back(g):
        if x.requires_grad:
            x._accum(g * out * (1.0 - out))

    return Tensor(out, parents=(x,), backward=back, op="sigmoid")


def take_along_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    idx = np.asarray(idx, dtype=np.int64)
    picked = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def back(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
            x._accum(full)

    return Tensor(picked, parents=(x,), backward=back, op="take_along_last")


def mask_bias(valid: np.ndarray) -> np.ndarray:
    """Additive attention bias: 0 where valid, a large negative otherwise."""
    return np.where(np.asarray(valid, dtype=bool), 0.0, _NEG_INF)


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax for plain arrays (inference paths)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _f32_exact(a: np.ndarray) -> np.ndarray:
    """Round to the nearest float32-representable value, kept as float64."""
    return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)


class ParamStore:
    """Named parameter tensors plus per-parameter Adam state."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._steps: dict[str, int] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._params:
            raise InvalidInput(f"duplicate parameter {name!r}")
        self._params[name] = _f32_exact(value)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._params:
            raise InvalidInput(f"unknown parameter {name!r}")
        if np.shape(value) != self._params[name].shape:
            raise InvalidInput(f"shape mismatch for {name!r}")
        self._params[name] = _f32_exact(value)

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def step_of(self, name: str) -> int:
        return self._steps.get(name, 0)

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, value in self._params.items():
            out.add(name, value.copy())
        return out

    def tape(self) -> dict[str, Tensor]:
        """Fresh differentiable views of every parameter."""
        return {name: Tensor(value, requires_grad=True)
                for name, value in self._params.items()}


def grad(loss_fn, params: ParamStore, inputs) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of loss_fn(tape, inputs) for every parameter.

    loss_fn receives a dict of name -> Tensor and must return a scalar
    Tensor built from the ops in this module.
    """
    tape = params.tape()
    loss = loss_fn(tape, inputs)
    loss.backward()
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in tape.items()}


def adam_step(params: ParamStore, grads: dict, lr: float,
              betas=(0.9, 0.999), eps: float = 1e-8) -> None:
    """One Adam update (with bias correction) for every named gradient."""
    b1, b2 = betas
    for name, g in grads.items():
        if name not in params._params:
            raise InvalidInput(f"gradient for unknown parameter {name!r}")
        p = params._params[name]
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise InvalidInput(f"gradient shape mismatch for {name!r}")
        m = params._m.get(name)
        if m is None:
            m = np.zeros_like(p)
            params._m[name] = m
            params._v[name] = np.zeros_like(p)
        v = params._v[name]
        t = params._steps.get(name, 0) + 1
        params._steps[name] = t
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        params._params[name] = _f32_exact(p - lr * m_hat / (np.sqrt(v_hat) + eps))


# ---------------------------------------------------------------------------
# Checkpoint container: magic, version, config echo, named float32 tensors
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"OPCK"
CHECKPOINT_VERSION = 1


def checkpoint_bytes(params: ParamStore, config: dict) -> bytes:
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    out = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION),
           struct.pack("<I", len(cfg)), cfg,
           struct.pack("<I", len(params.names()))]
    for name, value in params.items():
        nm = name.encode()
        out.append(struct.pack("<H", len(nm)))
        out.append(nm)
        out.append(struct.pack("<B", value.ndim))
        out.append(struct.pack(f"<{value.ndim}I", *value.shape))
        out.append(np.ascontiguousarray(value, dtype="<f4").tobytes())
    return b"".join(out)


def checkpoint_digest(params: ParamStore, config: dict) -> bytes:
    return hashlib.sha256(checkpoint_bytes(params, config)).digest()


def save_checkpoint(path, params: ParamStore, config: dict) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(params, config))


def load_checkpoint(path):
    """Returns (ParamStore, config dict); bit-exact with what was saved."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError("not an octpcc checkpoint (bad magic)")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack_from("<I", blob, 6)
    pos = 10
    config = json.loads(blob[pos:pos + cfg_len].decode())
    pos += cfg_len
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    params = ParamStore()
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        name = blob[pos:pos + nlen].decode()
        pos += nlen
        (ndim,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", blob, pos)
        pos += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(blob, dtype="<f4", count=size, offset=pos)
        pos += 4 * size
        params.add(name, data.reshape(shape))
    if pos != len(blob):
        raise ParseError("trailing bytes after checkpoint payload")
    return params, config
