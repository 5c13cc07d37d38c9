"""Dense float64 tensors with a dynamic reverse-mode tape.

Implements exactly the operations the fusion models and the losses
need: 2-D/3-D matrix products, linear layers, elementwise arithmetic
with suffix broadcasting, softmax / log-softmax, layer normalization,
the exact erf form of GeLU, row gathering/slicing/concatenation,
dropout, and row L2-normalization. Every value is float64 and every
operation checks its output for non-finite entries. A linear layer
``x @ w + b`` records one node instead of a matmul and a bias add,
because the cost of this core is Python overhead per node, not FLOPs.

Ops append to the innermost active ``Tape`` whenever at least one
input requires gradients. The tape is a flat list in execution order,
which is already a topological order, so ``backward`` is one reverse
sweep that applies each recorded backward rule exactly once.
Gradients accumulate into ``Tensor.grad``; calling ``backward`` again
without resetting keeps accumulating.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A float64 array plus an optional accumulated-gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        """Same values, detached from gradient tracking."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        if self.grad is None:
            # one fresh array with the bits of zeros + g (-0.0 becomes +0.0)
            self.grad = np.asarray(g + 0.0)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("name", "inputs", "output", "backward_fn")

    def __init__(self, name, inputs, output, backward_fn):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable operations."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every recorded input's grad."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss was not recorded on any tape; nothing to differentiate")
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"operation '{name}' produced non-finite values")
    return arr


def _record(name, inputs, out_data, backward_fn) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.nodes.append(_Node(name, inputs, out, backward_fn))
    return out


def _check_suffix(sa: tuple, sb: tuple) -> None:
    # allowed: identical shapes, or one shape a trailing suffix of the
    # other (covers scalars, per-channel rows, and per-batch tables)
    if sa == sb:
        return
    la, lb = len(sa), len(sb)
    if la >= lb and sa[la - lb:] == sb:
        return
    if lb > la and sb[lb - la:] == sa:
        return
    raise ShapeError(f"shapes {sa} and {sb} neither match nor suffix-broadcast")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


# ---- elementwise arithmetic ----


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape)
    out = _finite("add", a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g, b.shape))

    return _record("add", (a, b), out, bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape)
    out = _finite("sub", a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(-g, b.shape))

    return _record("sub", (a, b), out, bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape)
    out = _finite("mul", a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g * a.data, b.shape))

    return _record("mul", (a, b), out, bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape)
    out = _finite("div", a.data / b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g / b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(-g * a.data / (b.data * b.data), b.shape))

    return _record("div", (a, b), out, bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _record("neg", (a,), -a.data, bwd)


# ---- linear algebra ----


def matmul(a, b) -> Tensor:
    """Matrix product: 2-D x 2-D or batched 3-D x 3-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    if a.ndim == 2 and b.ndim == 2:
        if sa[1] != sb[0]:
            raise ShapeError(f"matmul mismatch: {sa} x {sb}")
        out = a.data @ b.data

        def bwd(g):
            if a.requires_grad:
                a.accumulate(g @ b.data.T)
            if b.requires_grad:
                b.accumulate(a.data.T @ g)

    elif a.ndim == 3 and b.ndim == 3:
        if sa[0] != sb[0] or sa[2] != sb[1]:
            raise ShapeError(f"matmul mismatch: {sa} x {sb}")
        out = a.data @ b.data

        def bwd(g):
            if a.requires_grad:
                a.accumulate(g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b.accumulate(np.swapaxes(a.data, -1, -2) @ g)

    else:
        raise ShapeError(f"unsupported matmul ranks: {sa} x {sb}")
    return _record("matmul", (a, b), _finite("matmul", out), bwd)


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: 2-D or 3-D x, a shared 2-D w, a 1-D b.

    The backward gives the bits of a matmul node followed by a bias add
    node: the bias gradient first, then x's, then w's.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    sx, sw = x.shape, w.shape
    if x.ndim not in (2, 3) or w.ndim != 2 or sx[-1] != sw[0]:
        raise ShapeError(f"linear mismatch: {sx} x {sw}")
    if b.shape != (sw[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match weight {sw}")
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        if b.requires_grad:
            b.accumulate(_reduce_to(g, b.shape))
        if x.requires_grad:
            x.accumulate(g @ w.data.T)
        if w.requires_grad:
            if x.ndim == 2:
                w.accumulate(x.data.T @ g)
            else:
                w.accumulate(np.tensordot(x.data, g, axes=([0, 1], [0, 1])))

    return _record("linear", (x, w, b), _finite("linear", out), bwd)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose needs a 2-D or 3-D tensor, got {a.shape}")
    out = np.swapaxes(a.data, -1, -2).copy()

    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.swapaxes(g, -1, -2))

    return _record("transpose", (a,), out, bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape).copy()

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _record("reshape", (a,), out, bwd)


def narrow(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last or second-to-last axis."""
    a = _as_tensor(a)
    ax = axis if axis >= 0 else a.ndim + axis
    if ax not in (a.ndim - 1, a.ndim - 2):
        raise ShapeError(f"narrow supports the last two axes only, got axis {axis}")
    if not 0 <= start < stop <= a.shape[ax]:
        raise ContractError(f"narrow range [{start}, {stop}) invalid for axis size {a.shape[ax]}")
    sl = [slice(None)] * a.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    out = a.data[sl].copy()

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[sl] = g
            a.accumulate(full)

    return _record("narrow", (a,), out, bwd)


def concat(parts, axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat of zero tensors")
    nd = parts[0].ndim
    ax = axis if axis >= 0 else nd + axis
    if any(p.ndim != nd for p in parts) or ax not in (nd - 1, nd - 2):
        raise ShapeError("concat supports equal-rank tensors along the last two axes")
    out = np.concatenate([p.data for p in parts], axis=ax)
    sizes = [p.shape[ax] for p in parts]

    def bwd(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * nd
                sl[ax] = slice(offset, offset + size)
                p.accumulate(g[tuple(sl)])
            offset += size

    return _record("concat", tuple(parts), out, bwd)


def gather_rows(table, idx) -> Tensor:
    """Select rows of a 2-D table; gradient scatter-adds back."""
    table = _as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    if table.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows needs 2-D table and 1-D index, got {table.shape}, {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("gather_rows index out of range")
    out = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            table.accumulate(acc)

    return _record("gather_rows", (table,), out, bwd)


def expand_batch(a, batch: int) -> Tensor:
    """Tile a tensor along a new leading batch axis; gradient sums back."""
    a = _as_tensor(a)
    out = np.broadcast_to(a.data, (batch,) + a.shape).copy()

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.sum(axis=0))

    return _record("expand_batch", (a,), out, bwd)


# ---- reductions and nonlinearities ----


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum())

    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.shape).copy())

    return _record("sum", (a,), _finite("sum", out), bwd)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = _finite("exp", np.exp(a.data))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * out)

    return _record("exp", (a,), out, bwd)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if (a.data <= 0.0).any():
        raise NumericError("log of a non-positive value")
    out = np.log(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _record("log", (a,), out, bwd)


def clamp_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); zero gradient where the floor is active."""
    a = _as_tensor(a)
    out = np.maximum(a.data, floor)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > floor))

    return _record("clamp_min", (a,), out, bwd)


def gelu(a) -> Tensor:
    """Exact GeLU: x * Phi(x) with the Gaussian CDF via erf."""
    a = _as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _finite("gelu", a.data * cdf)

    def bwd(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
            a.accumulate(g * (cdf + a.data * pdf))

    return _record("gelu", (a,), out, bwd)


def softmax(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a.accumulate(out * (g - dot))

    return _record("softmax", (a,), _finite("softmax", out), bwd)


def log_softmax(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g - probs * g.sum(axis=axis, keepdims=True))

    return _record("log_softmax", (a,), _finite("log_softmax", out), bwd)


def layernorm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (population variance), then scale and shift."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    width = a.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layernorm gain/bias must have shape ({width},), got {gain.shape}, {bias.shape}"
        )
    # sum / width is what np.mean computes, bit for bit, without its overhead
    mu = a.data.sum(axis=-1, keepdims=True) / width
    centered = a.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = _finite("layernorm", xhat * gain.data + bias.data)

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, width).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, width).sum(axis=0))
        if a.requires_grad:
            gg = g * gain.data
            m1 = gg.sum(axis=-1, keepdims=True) / width
            m2 = (gg * xhat).sum(axis=-1, keepdims=True) / width
            a.accumulate(inv * (gg - m1 - xhat * m2))

    return _record("layernorm", (a, gain, bias), out, bwd)


def normalize_rows(a, eps: float = 1e-12) -> Tensor:
    """Scale each row of a 2-D matrix to unit L2 norm."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"normalize_rows needs a 2-D tensor, got {a.shape}")
    norm = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True) + eps)
    out = a.data / norm

    def bwd(g):
        if a.requires_grad:
            dot = (out * g).sum(axis=1, keepdims=True)
            a.accumulate((g - out * dot) / norm)

    return _record("normalize_rows", (a,), _finite("normalize_rows", out), bwd)


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted-scale Bernoulli dropout; identity when rng is None or p == 0."""
    a = _as_tensor(a)
    if rng is None or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    out = a.data * keep

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * keep)

    return _record("dropout", (a,), out, bwd)


# ---- gradient checking ----


def fd_gradient(f: Callable[[], float | Sequence[float]], param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of f() w.r.t. param, element by element.

    f returns one loss, or several losses from one forward; the result
    has param's shape, behind one leading axis per loss in the latter
    case. Mutates param.data in place and restores it. f must
    re-evaluate the losses from the current parameter values on every
    call.
    """
    flat = param.data.reshape(-1)
    columns = []
    for i in range(flat.size):
        kept = flat[i]
        flat[i] = kept + h
        hi = np.asarray(f(), dtype=np.float64)
        flat[i] = kept - h
        lo = np.asarray(f(), dtype=np.float64)
        flat[i] = kept
        columns.append((hi - lo) / (2.0 * h))
    grad = np.stack(columns, axis=-1)
    return grad.reshape(grad.shape[:-1] + param.data.shape)


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0
