"""Dense-tensor compute layer with reverse-mode gradients.

Just enough machinery for the occupancy model: float64 numpy arrays on a
tape (embeddings, matmul, masked softmax, sigmoid, relu, log, mean,
concat/slice/reshape), an Adam optimizer with per-parameter moments, and a
versioned checkpoint container.  A `Tensor` is what learns: a trained
parameter or an op on one.  Ops take plain ndarrays too, and the functional
ones return a plain ndarray when given only plain ones, so one forward
serves inference and training, and frozen weights run as plain arrays.

Parameters are kept float32-representable at all times (initialization and
every optimizer step round through float32) so that the float32 checkpoint
round trip is bit-exact and an in-memory parameter store can never drift
from its own saved file; the encoder/decoder agreement hinges on that.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import InvalidInput, NumericalError, ParseError

_NEG_INF = -1e30  # additive mask value; exp underflows to exactly 0


def _data(x):
    """The array behind a Tensor or a plain operand."""
    return x.data if isinstance(x, Tensor) else x


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A float64 array that receives a gradient, plus its tape hooks."""

    __slots__ = ("data", "grad", "_parents", "_backward", "op")
    __array_ufunc__ = None  # `ndarray @ Tensor` calls __rmatmul__, not numpy

    def __init__(self, data, parents=(), backward=None, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def __float__(self):
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # g may be a view of another grad
        else:
            self.grad += g

    def backward(self):
        """NumericalError if the loss is not finite, naming the first op in
        tape order to go non-finite; else fill the grad of every Tensor."""
        if self.data.size != 1:
            raise InvalidInput("backward() needs a scalar loss")
        topo, seen = [], set()

        def visit(t):
            if not isinstance(t, Tensor) or id(t) in seen:  # plain operand
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        if not np.isfinite(self.data).all():
            bad = next(t for t in topo if not np.isfinite(t.data).all())
            raise NumericalError(f"non-finite values produced by op {bad.op!r}")
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # -- elementwise / structural ops -------------------------------------

    def __add__(self, other):
        def back(g):
            self._accum(_unbroadcast(g, self.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(g, other.shape))

        return Tensor(self.data + _data(other), parents=(self, other),
                      backward=back, op="add")

    def __sub__(self, other):
        def back(g):
            self._accum(_unbroadcast(g, self.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(-g, other.shape))

        return Tensor(self.data - _data(other), parents=(self, other),
                      backward=back, op="sub")

    def __mul__(self, other):
        def back(g):
            self._accum(_unbroadcast(g * _data(other), self.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor(self.data * _data(other), parents=(self, other),
                      backward=back, op="mul")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def sum(self):
        def back(g):
            self._accum(np.broadcast_to(g, self.shape).copy())

        return Tensor(self.data.sum(), parents=(self,), backward=back, op="sum")

    def reshape(self, *shape):
        def back(g):
            self._accum(g.reshape(self.shape))

        return Tensor(self.data.reshape(*shape), parents=(self,),
                      backward=back, op="reshape")

    def swapaxes(self, a, b):
        def back(g):
            self._accum(g.swapaxes(a, b))

        return Tensor(self.data.swapaxes(a, b), parents=(self,),
                      backward=back, op="swapaxes")

    def __getitem__(self, key):
        def back(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, key, g)  # an index array may repeat an element

        return Tensor(self.data[key], parents=(self,), backward=back, op="slice")


def _matmul(a, b) -> Tensor:
    """a @ b with at least one Tensor operand."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise InvalidInput("matmul operands must be at least 2-D")

    def back(g):
        if isinstance(a, Tensor):
            a._accum(_unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), a.shape))
        if isinstance(b, Tensor):
            b._accum(_unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), b.shape))

    return Tensor(np.matmul(ad, bd), parents=(a, b), backward=back, op="matmul")


def concat(tensors, axis: int):
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    data = [_data(t) for t in tensors]
    splits = np.cumsum([d.shape[axis] for d in data])[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if isinstance(t, Tensor):
                t._accum(piece)

    return Tensor(np.concatenate(data, axis=axis), parents=tuple(tensors),
                  backward=back, op="concat")


def scatter_add(idx, values, shape) -> np.ndarray:
    """out[idx[j]] += values[j] into a zero array of `shape`, by one bincount.

    values has shape idx.shape + shape[1:].  Each row's contributions are
    summed in index order, so the result equals np.add.at on zeros bit for bit.
    """
    idx = np.asarray(idx, dtype=np.int64).ravel()
    width = math.prod(shape[1:])
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=np.asarray(values).ravel(),
                      minlength=math.prod(shape))
    return out.reshape(shape)


def embedding(table, idx: np.ndarray):
    if not isinstance(table, Tensor):
        return table[idx]
    idx = np.asarray(idx)

    def back(g):
        table._accum(scatter_add(idx, g, table.shape))

    return Tensor(table.data[idx], parents=(table,), backward=back, op="embedding")


def softmax(x, axis: int = -1):
    if not isinstance(x, Tensor):
        return softmax_np(x, axis=axis)
    out = softmax_np(x.data, axis=axis)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        x._accum(out * (g - inner))

    return Tensor(out, parents=(x,), backward=back, op="softmax")


def relu(x):
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)
    keep = x.data > 0

    def back(g):
        x._accum(g * keep)

    return Tensor(np.maximum(x.data, 0.0), parents=(x,), backward=back,
                  op="relu")


def sigmoid(x):
    if not isinstance(x, Tensor):
        return sigmoid_np(x)
    out = sigmoid_np(x.data)

    def back(g):
        x._accum(g * out * (1.0 - out))

    return Tensor(out, parents=(x,), backward=back, op="sigmoid")


def log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(_data(x))
    if not isinstance(x, Tensor):
        return out

    def back(g):
        x._accum(g / x.data)

    return Tensor(out, parents=(x,), backward=back, op="log")


def mean(x):
    """sum() * (1 / size) on either path, so both give the same bits."""
    return x.sum() * (1.0 / _data(x).size)


def take_along_last(x, idx: np.ndarray):
    """Pick one entry along the last axis per leading position."""
    idx = np.asarray(idx, dtype=np.int64)[..., None]
    picked = np.take_along_axis(_data(x), idx, axis=-1)[..., 0]
    if not isinstance(x, Tensor):
        return picked

    def back(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx, g[..., None], axis=-1)
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
    """1 / (1 + e^-x), with exp only of -|x| so that it never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _f32_exact(a: np.ndarray) -> np.ndarray:
    """A fresh read-only float64 array of the nearest float32 values."""
    out = np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)
    out.flags.writeable = False
    return out


class ParamStore:
    """Named parameter tensors plus per-parameter Adam state.  The arrays
    are read-only; `writes` counts `add`s, assignments and `adam_step`s."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._steps: dict[str, int] = {}
        self.writes = 0

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._params:
            raise InvalidInput(f"duplicate parameter {name!r}")
        self._params[name] = _f32_exact(value)
        self.writes += 1

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._params:
            raise InvalidInput(f"unknown parameter {name!r}")
        if np.shape(value) != self._params[name].shape:
            raise InvalidInput(f"shape mismatch for {name!r}")
        self._params[name] = _f32_exact(value)
        self.writes += 1

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, value in self._params.items():
            out.add(name, value)
        return out

    def tape(self, learn=None) -> dict:
        """Every parameter for one forward pass: a fresh Tensor named after
        it for each name in `learn` (all of them by default), the stored
        array for the rest, which the forward then runs on plainly."""
        return {name: Tensor(value, op=name)
                if learn is None or name in learn else value
                for name, value in self._params.items()}


ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8


def adam_step(params: ParamStore, grads: dict, lr: float) -> None:
    """One Adam update (with bias correction) for every named gradient.

    Every gradient is checked before any parameter or Adam state changes:
    InvalidInput for an unknown name or a wrong shape, NumericalError for a
    NaN or inf.
    """
    b1, b2 = ADAM_BETAS
    grads = {name: np.asarray(g, dtype=np.float64) for name, g in grads.items()}
    for name, g in grads.items():
        if name not in params._params:
            raise InvalidInput(f"gradient for unknown parameter {name!r}")
        if g.shape != params._params[name].shape:
            raise InvalidInput(f"gradient shape mismatch for {name!r}")
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
    params.writes += 1
    for name, g in grads.items():
        p = params._params[name]
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
        params._params[name] = _f32_exact(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


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
    """Returns (ParamStore, config dict); bit-exact with what was saved.

    ParseError for any blob that is short, garbled or not a checkpoint.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise ParseError(f"checkpoint truncated at byte {pos}")
        pos += n
        return blob[pos - n:pos]

    def text(n: int) -> str:
        try:
            return take(n).decode()
        except UnicodeDecodeError:
            raise ParseError(
                f"checkpoint text at byte {pos - n} is not UTF-8") from None

    if take(4) != CHECKPOINT_MAGIC:
        raise ParseError("not an octpcc checkpoint (bad magic)")
    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = json.loads(text(cfg_len))
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint config is not JSON: {exc}") from None
    (count,) = struct.unpack("<I", take(4))
    params = ParamStore()
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = text(nlen)
        if name in params:
            raise ParseError(f"checkpoint repeats parameter {name!r}")
        (ndim,) = struct.unpack("<B", take(1))
        if ndim > 32:  # numpy's array rank limit
            raise ParseError(f"parameter {name!r} has {ndim} dimensions")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        if not np.isfinite(data).all():
            raise ParseError(f"parameter {name!r} holds non-finite values")
        params.add(name, data.reshape(shape))
    if pos != len(blob):
        raise ParseError("trailing bytes after checkpoint payload")
    return params, config
