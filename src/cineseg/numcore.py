"""Dense float64 tensors with a dynamic reverse-mode tape.

Implements exactly the operations the fusion models and the losses
need: linear layers ``x @ w + b`` (a plain product takes a zero
bias), elementwise addition and multiplication with suffix
broadcasting, exp, softmax, layer normalization, the exact erf form
of GeLU, row gathering, slicing and concatenation, a mean over one
axis, dropout, row L2-normalization, scaled dot-product attention and
temperature-scaled similarities.
Every value is float64. Each loss (a cross-entropy or a KL divergence)
and each linear layer ``x @ w + b`` records one node, not a chain of
them, because the cost of this core is Python overhead per node, not
FLOPs.

For the same reason the fusion model runs its M modality towers as one
``[... x M x L x C]`` tensor: ``linear`` and ``layernorm`` also take
stacks of M weights, gains and biases, one per slice of axis -3, with
the bits of one node per slice.

Attention's L x L arrays are the only large ones. A recorded call keeps
one fresh L x L array, its unnormalized softmax weights, plus its
scaled q and softmax row sums; the backward reads k and v
from the input. Unrecorded calls and every backward use workspaces
instead: one grow-only float64 buffer per slot (``scores`` for an
unrecorded forward's weights, ``gs`` for the backward's score
gradients), private to this module, never returned nor saved on a node
(each ``fd_gradient`` worker, forked from the caller, has its own).

Each op is its numpy forward plus a module-level backward rule
``rule(g, inputs, out, saved)``; ``_emit`` does the rest. It checks the
output of every op that can turn finite inputs into non-finite values,
and appends a node to the innermost active ``Tape`` only when at least
one input requires gradients. Without a tape an op builds no node and
no closure. The one exception to the output check is a finite-difference
job: ``fd_gradient`` sets it as a module global, and the pool workers it
forks inherit it and run every evaluation. There NaN and inf propagate
through every op, and only the losses that come back are checked.

The tape is a flat list in execution order, which is already a
topological order, so ``backward`` is one reverse sweep that applies
each recorded backward rule exactly once. Gradients accumulate into
the ``Tensor.grad`` of the tape's inputs; calling ``backward`` again
without resetting keeps accumulating, so a second pass over one tape
doubles them. A node output's gradient is dropped once its rule has
run: every consumer was swept before it, and a later pass starts it
afresh.

Only this module turns arrays into Tensors: every op takes numpy
arrays or Tensors and wraps the arrays itself, so callers pass their
arrays straight in and create Tensors only for parameters.

GeLU's erf is SciPy's own ufunc, loaded at the first ``gelu`` call
from the one extension module that defines it,
``scipy/special/_special_ufuncs``, found beside SciPy's package without
running SciPy's ``__init__`` (or SciPy's own module, once imported).
The ``scipy.special`` package is not imported: its array-API backends
cost about 0.3 s and 16 MB per process, and the ufunc is the very
object ``scipy.special.erf`` names, so every bit is the same. The load
leaves no ``sys.modules`` entry, so a later ``import scipy.special``
binds the module as usual. A SciPy whose layout lacks that file, or
defines erf elsewhere, is served by ``from scipy.special import erf``
at the full import's cost. A process that runs no model loads no SciPy
at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

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

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        if self.grad is None:
            # one fresh array with the bits of zeros + g (-0.0 becomes +0.0)
            g = g + 0.0
            self.grad = g if type(g) is np.ndarray else np.asarray(g)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("name", "inputs", "output", "rule", "saved")

    def __init__(self, name, inputs, output, rule, saved):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule
        self.saved = saved


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

# ops whose output can be non-finite although every input is finite; the
# rest (reshape, narrow, concat, gather_rows, merge_channels, dropout) only
# move, select or scale finite values
_CHECKED = frozenset({
    "add", "mul", "linear", "scaled_scores", "mean", "exp", "gelu", "softmax",
    "cross_entropy", "kl_div", "layernorm", "normalize_rows", "attention",
})
LAYERNORM_EPS = 1e-5  # added to layernorm's variances
NORMALIZE_EPS = 1e-12  # added to normalize_rows' squared norms
REL_ERROR_FLOOR = 1e-6  # max_rel_error's least denominator
# fd_gradient's job (f, flat, h) while it runs, inherited by its forked
# workers; ops skip their output checks while it is set
_fd_job = None


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every recorded input's grad."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss was not recorded on any tape; nothing to differentiate")
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        out = node.output
        if out.grad is None:
            continue
        node.rule(out.grad, node.inputs, out.data, node.saved)
        out.grad = None  # read by no later rule; see the module docstring


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(name: str, rule, inputs: tuple, out, saved=None) -> Tensor:
    """Wrap an op's forward output: check it, and record a node when a
    tape is active and some input requires gradients, so the rule of a
    one-input op accumulates without asking."""
    # a finite sum has finite entries; only one that is not (or overflowed) needs the full test
    if (_fd_job is None and name in _CHECKED and not math.isfinite(np.add.reduce(out, axis=None))
            and not np.isfinite(out).all()):
        raise NumericError(f"operation '{name}' produced non-finite values")
    # Tensor(out) without __init__'s call overhead: ops on float64 inputs
    # give float64, and only 0-d results come back as numpy scalars
    result = Tensor.__new__(Tensor)
    result.data = out if type(out) is np.ndarray else np.asarray(out, dtype=np.float64)
    result.requires_grad = False
    result.grad = None
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                result.requires_grad = True
                _TAPE_STACK[-1].nodes.append(_Node(name, inputs, result, rule, saved))
                break
    return result


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


@functools.lru_cache(maxsize=1024)
def _reduce_axes(gshape: tuple, shape: tuple) -> tuple:
    extra = len(gshape) - len(shape)
    broadcast = (extra + i for i, n in enumerate(shape) if n == 1 < gshape[extra + i])
    return tuple(range(extra)) + tuple(broadcast)


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """g summed over its extra leading axes and over the axes where shape
    has a 1 that g broadcast, in index order."""
    if g.shape == shape:
        return g
    return np.add.reduce(g, axis=_reduce_axes(g.shape, shape)).reshape(shape)


def _binary(a, b) -> tuple[Tensor, Tensor]:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.data.shape, b.data.shape)
    return a, b


# ---- elementwise arithmetic ----


def _add_back(g, inputs, out, saved):
    a, b = inputs
    if a.requires_grad:
        a.accumulate(_reduce_to(g, a.shape))
    if b.requires_grad:
        b.accumulate(_reduce_to(g, b.shape))


def add(a, b) -> Tensor:
    a, b = _binary(a, b)
    return _emit("add", _add_back, (a, b), a.data + b.data)


def _mul_back(g, inputs, out, saved):
    a, b = inputs
    if a.requires_grad:
        a.accumulate(_reduce_to(g * b.data, a.shape))
    if b.requires_grad:
        b.accumulate(_reduce_to(g * a.data, b.shape))


def mul(a, b) -> Tensor:
    a, b = _binary(a, b)
    return _emit("mul", _mul_back, (a, b), a.data * b.data)


# ---- linear algebra ----


def _linear_back(g, inputs, out, saved):
    x, w, b = inputs
    xd, wd = x.data, w.data
    if b.requires_grad:
        b.accumulate(_reduce_to(g, b.data.shape))
    if x.requires_grad:
        x.accumulate(g @ wd.swapaxes(-1, -2))
    if w.requires_grad:
        if xd.ndim == 2:
            w.accumulate(xd.T @ g)
            return
        # per slice of a stack, a shared w being a stack of one: the operands
        # np.tensordot(x, g, axes=([0, 1], [0, 1])) builds, without its overhead
        if wd.ndim == 2:
            xd, g = xd[..., None, :, :], g[..., None, :, :]
        nd, m = xd.ndim, xd.shape[-3]
        xt = xd.transpose(nd - 3, nd - 1, *range(nd - 3), nd - 2).reshape(m, xd.shape[-1], -1)
        gt = g.transpose(nd - 3, *range(nd - 3), nd - 2, nd - 1).reshape(m, -1, g.shape[-1])
        w.accumulate(np.matmul(xt, gt).reshape(wd.shape))


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: a [C x N] w and [N] b shared by every row of
    a 2-D or higher x, or stacks [M x C x N] and [M x 1 x N] of one per
    slice of x's axis -3 ([... x M x L x C]).

    The backward gives the bits of a matmul node followed by a bias add
    node, per modality for a stack: the bias gradient first, then x's,
    then w's.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    sx, sw = x.data.shape, w.data.shape
    stacked = len(sw) == 3
    if (len(sw) not in (2, 3) or len(sx) < len(sw) or sx[-1] != sw[-2]
            or (stacked and sx[-3] != sw[0])):
        raise ShapeError(f"linear mismatch: {sx} x {sw}")
    if b.data.shape != ((sw[0], 1) if stacked else ()) + sw[-1:]:
        raise ShapeError(f"linear bias shape {b.data.shape} does not match weight {sw}")
    out = x.data @ w.data
    out += b.data
    return _emit("linear", _linear_back, (x, w, b), out)


def _scaled_scores_back(g, inputs, out, saved):
    u, v, tau = inputs
    vt, scores = saved
    if tau.requires_grad:
        tau.accumulate(_reduce_to(-g * scores / (tau.data * tau.data), ()))
    g = g / tau.data
    if u.requires_grad:
        u.accumulate(g @ vt.T)
    if v.requires_grad:
        v.accumulate((u.data.T @ g).T)


def scaled_scores(u, v, tau, offset=None) -> Tensor:
    """(u @ v.T) / tau + offset as one node, for [N x P] u, [K x P] v, a
    scalar tau and an optional constant [N x K] offset, with the bits of
    the transpose, matmul, divide and add chain."""
    u, v, tau = _as_tensor(u), _as_tensor(v), _as_tensor(tau)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1] or tau.ndim:
        raise ShapeError(f"scaled_scores mismatch: {u.shape} x {v.shape} / {tau.shape}")
    vt = v.data.T.copy()
    scores = u.data @ vt
    out = scores / tau.data
    if offset is not None:
        if np.shape(offset) != out.shape:
            raise ShapeError(f"scaled_scores offset {np.shape(offset)} does not match {out.shape}")
        out += offset
    return _emit("scaled_scores", _scaled_scores_back, (u, v, tau), out, (vt, scores))


def _reshape_back(g, inputs, out, saved):
    (a,) = inputs
    a.accumulate(g.reshape(a.shape))


def reshape(a, shape) -> Tensor:
    """a with a new shape, a view of a's values wherever numpy can give
    one; a tensor that already has the shape is returned as it is, with
    no node."""
    a = _as_tensor(a)
    if a.data.shape == tuple(shape):
        return a
    return _emit("reshape", _reshape_back, (a,), a.data.reshape(shape))


def _narrow_back(g, inputs, out, sl):
    (a,) = inputs
    full = np.zeros_like(a.data)
    full[sl] = g
    a.accumulate(full)


def narrow(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last or second-to-last axis."""
    a = _as_tensor(a)
    shape = a.data.shape
    nd = len(shape)
    ax = axis if axis >= 0 else nd + axis
    if ax not in (nd - 1, nd - 2):
        raise ShapeError(f"narrow supports the last two axes only, got axis {axis}")
    if not 0 <= start < stop <= shape[ax]:
        raise ContractError(f"narrow range [{start}, {stop}) invalid for axis size {shape[ax]}")
    sl = [slice(None)] * nd
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    return _emit("narrow", _narrow_back, (a,), a.data[sl].copy(), sl)


def _concat_back(g, parts, out, ax):
    offset = 0
    sl = [slice(None)] * g.ndim
    for p in parts:
        size = p.shape[ax]
        if p.requires_grad:
            sl[ax] = slice(offset, offset + size)
            p.accumulate(_reduce_to(g[tuple(sl)], p.shape))
        offset += size


def concat(parts, axis: int) -> Tensor:
    """Join equal-rank tensors along one axis; along one of the last two,
    parts broadcast over the leading axes. A single part is returned as
    it is, with no node."""
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts:
        raise ContractError("concat of zero tensors")
    if len(parts) == 1:
        return parts[0]
    arrays = [p.data for p in parts]
    nd = arrays[0].ndim
    ax = axis if axis >= 0 else nd + axis
    try:
        lead = arrays[0].shape[:-2]
        if ax >= nd - 2 and any(a.shape[:-2] != lead for a in arrays):
            if any(a.ndim != nd for a in arrays):
                raise ValueError  # caught below
            lead = np.broadcast_shapes(*(a.shape[:-2] for a in arrays))
            arrays = [np.broadcast_to(a, lead + a.shape[-2:]) for a in arrays]
        out = np.concatenate(arrays, axis=ax)
    except ValueError:  # ranks, axis or shapes that do not fit
        raise ShapeError(f"cannot concat {[a.shape for a in arrays]} on axis {axis}") from None
    return _emit("concat", _concat_back, parts, out, ax)


def _gather_rows_back(g, inputs, out, idx):
    (table,) = inputs
    acc = np.zeros_like(table.data)
    np.add.at(acc, idx, g)
    table.accumulate(acc)


def gather_rows(table, idx) -> Tensor:
    """Select rows of a 2-D table; gradient scatter-adds back."""
    table = _as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    if table.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows needs 2-D table and 1-D index, got {table.shape}, {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("gather_rows index out of range")
    return _emit("gather_rows", _gather_rows_back, (table,), table.data[idx], idx)


def _merge_channels_back(g, inputs, out, saved):
    (a,) = inputs
    *lead, m, length, c = a.shape
    a.accumulate(g.reshape(*lead, length, m, c).swapaxes(-2, -3))


def merge_channels(a) -> Tensor:
    """[... x M x L x C] -> [... x L x M*C]: the M slices of axis -3 side
    by side on the last axis, as concat along -1 joins them; a view of
    a when M = 1."""
    a = _as_tensor(a)
    if a.ndim < 3:
        raise ShapeError(f"merge_channels needs 3-D or more, got {a.shape}")
    *lead, m, length, c = a.shape
    out = a.data.swapaxes(-3, -2).reshape(*lead, length, m * c)
    return _emit("merge_channels", _merge_channels_back, (a,), out)


# ---- reductions and nonlinearities ----


def _mean_back(g, inputs, out, axis):
    (a,) = inputs
    a.accumulate(np.broadcast_to(g * (1.0 / a.shape[axis]), a.shape))


def mean(a, axis: int) -> Tensor:
    """Mean over one axis, kept with size 1: the sum in index order times
    1 / n, the bits of a chain of adds and one multiply."""
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=True) * (1.0 / a.data.shape[axis])
    return _emit("mean", _mean_back, (a,), out, axis)


def _exp_back(g, inputs, out, saved):
    (a,) = inputs
    a.accumulate(g * out)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    return _emit("exp", _exp_back, (a,), np.exp(a.data))


def _gelu_back(g, inputs, out, cdf):
    (a,) = inputs
    pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
    a.accumulate(g * (cdf + a.data * pdf))


# the extension module that defines SciPy's erf ufunc
_ERF_MODULE = "_special_ufuncs"


@functools.cache
def _erf():
    """SciPy's erf ufunc, without importing scipy.special; see the module
    docstring."""
    name = f"scipy.special.{_ERF_MODULE}"
    module = sys.modules.get(name)  # SciPy's own, when scipy.special came first
    if module is None:
        special = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "special")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(special, _ERF_MODULE + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # a single-phase extension registers itself; without that entry a
                # later `import scipy.special` loads it again and binds its attribute
                sys.modules.pop(name, None)
                break
    if hasattr(module, "erf"):
        return module.erf
    from scipy.special import erf  # another SciPy layout: the full import
    return erf


def gelu(a) -> Tensor:
    """Exact GeLU: x * Phi(x) with the Gaussian CDF via SciPy's erf."""
    a = _as_tensor(a)
    cdf = 0.5 * (1.0 + _erf()(a.data * _INV_SQRT2))
    return _emit("gelu", _gelu_back, (a,), a.data * cdf, cdf)


def _softmax_back(g, inputs, out, axis):
    (a,) = inputs
    dot = (g * out).sum(axis=axis, keepdims=True)
    a.accumulate(out * (g - dot))


def softmax(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return _emit("softmax", _softmax_back, (a,), e / e.sum(axis=axis, keepdims=True), axis)


def _cross_entropy_back(g, inputs, out, saved):
    (a,) = inputs
    logp, target, axis = saved
    gt = target * -g
    a.accumulate(gt - np.exp(logp) * gt.sum(axis=axis, keepdims=True))


def cross_entropy(logits, target, axis: int) -> Tensor:
    """-sum(target * log_softmax(logits, axis)) as one scalar node, with
    the bits of the log-softmax, multiply, sum and negate chain; target
    is a constant array of the logits' shape."""
    a = _as_tensor(logits)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != a.data.shape:
        raise ShapeError(f"cross_entropy target {target.shape} does not match logits {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = np.asarray(-(logp * target).sum())
    return _emit("cross_entropy", _cross_entropy_back, (a,), out, (logp, target, axis))


def _kl_div_back(g, inputs, out, saved):
    o, p = inputs
    floor, floored_o, floored_p, diff = saved
    if o.requires_grad:
        o.accumulate(g * diff)
    g = g * o.data
    if p.requires_grad:
        p.accumulate(-g / floored_p * (p.data > floor))
    if o.requires_grad:
        o.accumulate(g / floored_o * (o.data > floor))


def kl_div(o, p, floor: float) -> Tensor:
    """sum(o * (log max(o, floor) - log max(p, floor))), KL(o || p) with
    both distributions floored before the logs, as one scalar node with
    the bits of the clamp, log, subtract, multiply and sum chain; no
    gradient flows through a floored entry's log."""
    o, p = _as_tensor(o), _as_tensor(p)
    if o.shape != p.shape:
        raise ShapeError(f"kl_div of distributions of shapes {o.shape} and {p.shape}")
    floored_o, floored_p = np.maximum(o.data, floor), np.maximum(p.data, floor)
    diff = np.log(floored_o) - np.log(floored_p)
    out = np.asarray((o.data * diff).sum())
    return _emit("kl_div", _kl_div_back, (o, p), out, (floor, floored_o, floored_p, diff))


def _layernorm_back(g, inputs, out, saved):
    a, gain, bias = inputs
    xhat, inv = saved
    width = a.shape[-1]
    if gain.requires_grad:
        gain.accumulate(_reduce_to(g * xhat, gain.shape))
    if bias.requires_grad:
        bias.accumulate(_reduce_to(g, bias.shape))
    if a.requires_grad:
        # inv * (gg - m1 - xhat * m2), in place on gg and gg * xhat
        gg = g * gain.data
        ggx = gg * xhat
        gg -= np.add.reduce(gg, axis=-1, keepdims=True) / width
        gg -= np.multiply(xhat, np.add.reduce(ggx, axis=-1, keepdims=True) / width, out=ggx)
        gg *= inv
        a.accumulate(gg)


def layernorm(a, gain, bias) -> Tensor:
    """Normalize the last axis (population variance), then scale and
    shift by [C] gains and biases, or by [M x 1 x C] ones, one per slice
    of a's axis -3 ([... x M x L x C])."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    shape = a.data.shape
    width = shape[-1]
    if bias.data.shape != gain.data.shape or gain.data.shape not in (
        (width,), shape[-3:-2] + (1, width)
    ):
        raise ShapeError(f"layernorm gain/bias {gain.shape}, {bias.shape} do not fit input {shape}")
    # sum / width is what np.mean computes, bit for bit, without its overhead
    xhat = a.data - np.add.reduce(a.data, axis=-1, keepdims=True) / width
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / width
    var += LAYERNORM_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    return _emit("layernorm", _layernorm_back, (a, gain, bias), out, (xhat, inv))


def _normalize_rows_back(g, inputs, out, norm):
    (a,) = inputs
    dot = (out * g).sum(axis=1, keepdims=True)
    a.accumulate((g - out * dot) / norm)


def normalize_rows(a) -> Tensor:
    """Scale each row of a 2-D matrix to unit L2 norm."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"normalize_rows needs a 2-D tensor, got {a.shape}")
    norm = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True) + NORMALIZE_EPS)
    return _emit("normalize_rows", _normalize_rows_back, (a,), a.data / norm, norm)


def _dropout_back(g, inputs, out, keep):
    (a,) = inputs
    a.accumulate(g * keep)


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted-scale Bernoulli dropout; identity when rng is None or p == 0."""
    a = _as_tensor(a)
    if rng is None or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return _emit("dropout", _dropout_back, (a,), a.data * keep, keep)


# ---- attention ----

# attention's workspaces, one per slot; see the module docstring
_WORKSPACES: dict[str, np.ndarray] = {}
# bound on |scaled score| within which attention's exp skips the row-max
# shift: exp(+-300) is a normal float64, and L of them sum far below overflow
_UNSHIFTED_MAX = 300.0


def _workspace(slot: str, shape: tuple) -> np.ndarray:
    size = math.prod(shape)
    buf = _WORKSPACES.get(slot)
    if buf is None or buf.size < size:
        buf = _WORKSPACES[slot] = np.empty(size)
    return buf[:size].reshape(shape)


def _attention_back(g, inputs, out, saved):
    (qkv,) = inputs
    scale, qs, e, z = saved
    width = out.shape[-1]
    qc, kc, vc = (slice(lo, lo + width) for lo in range(0, 3 * width, width))
    # the weights e / z are never formed: 1 / z and the scale go on the
    # [L x C] operands, and softmax's row dot products sum_j g_ij w_ij are
    # rowsum(g o out)
    grad = np.empty_like(qkv.data)
    gz = g / z
    np.matmul(np.swapaxes(e, -1, -2), gz, out=grad[..., vc])
    gs = np.matmul(gz, np.swapaxes(qkv.data[..., vc], -1, -2), out=_workspace("gs", e.shape))
    gs -= np.add.reduce(gz * out, axis=-1, keepdims=True)
    gs *= e
    np.multiply(gs @ qkv.data[..., kc], scale, out=grad[..., qc])
    np.matmul(np.swapaxes(gs, -1, -2), qs, out=grad[..., kc])
    qkv.accumulate(grad)


def attention(qkv) -> Tensor:
    """Single-head scaled dot-product attention as one node over an
    [... x L x 3C] input that holds q, k and v side by side in columns
    [0, C), [C, 2C) and [2C, 3C); returns [... x L x C]. The result
    equals the chain of narrow, transpose, matmul, scale, softmax and
    matmul nodes up to rounding.

    q is scaled by 1 / sqrt(C) before the product, and the output rows,
    not the weights, are divided by the softmax row sums. By
    Cauchy-Schwarz no scaled score exceeds max |q_i| max |k_j| / sqrt(C)
    in size; while that bound is at most _UNSHIFTED_MAX, exp can neither
    overflow nor underflow, so the scores go to exp as they are. Past the
    bound (or when it is not finite) they are checked for non-finite
    values and shifted by their row max first."""
    qkv = _as_tensor(qkv)
    shape = qkv.data.shape
    if len(shape) < 3 or shape[-1] % 3:
        raise ShapeError(f"attention needs a 3-D+ [... x L x 3C] input, got {shape}")
    width = shape[-1] // 3
    recorded = bool(_TAPE_STACK) and qkv.requires_grad
    scale = 1.0 / math.sqrt(width)
    # the bound squared, from the squared q and k row norms; einsum gives an
    # overflowing norm as inf without a warning, and inf or NaN fails the gate
    qk = qkv.data[..., :2 * width].reshape(shape[:-1] + (2, width))
    norms = np.einsum("...i,...i->...", qk, qk)
    bound_sq = float(norms[..., 0].max()) * float(norms[..., 1].max()) / width
    qs = np.multiply(qkv.data[..., :width], scale)
    ws = None if recorded else _workspace("scores", shape[:-1] + shape[-2:-1])
    e = np.matmul(qs, np.swapaxes(qkv.data[..., width:2 * width], -1, -2), out=ws)
    if not bound_sq <= _UNSHIFTED_MAX * _UNSHIFTED_MAX:
        # within the bound the scores are finite; past it, finite shifted
        # scores give finite softmax weights
        if _fd_job is None and not np.isfinite(e).all():
            raise NumericError("operation 'attention' produced non-finite scores")
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    z = np.add.reduce(e, axis=-1, keepdims=True)
    out = e @ qkv.data[..., 2 * width:]
    out /= z
    saved = (scale, qs, e, z) if recorded else None
    return _emit("attention", _attention_back, (qkv,), out, saved)


# ---- gradient checking ----


def _fd_columns(indices) -> list:
    """One central difference of the job's f per index; each loss is
    checked for non-finite values in place of the per-op output checks."""
    f, flat, h = _fd_job
    columns = []
    for i in indices:
        kept = flat[i]
        try:
            flat[i] = kept + h
            hi = np.asarray(f(), dtype=np.float64)
            flat[i] = kept - h
            lo = np.asarray(f(), dtype=np.float64)
        finally:
            flat[i] = kept
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise NumericError(f"finite-difference loss is non-finite at element {i}")
        columns.append((hi - lo) / (2.0 * h))
    return columns


def fd_gradient(f: Callable[[], float | Sequence[float]], param, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of f() w.r.t. param, element by element.

    param is a Tensor or a float64 array. f returns one loss, or several
    losses from one forward; the result has param's shape, behind one
    leading axis per loss in the latter case. f must re-evaluate the
    losses from the current parameter values on every call.

    The elements are split into min(usable CPUs, elements) contiguous
    chunks, and a process pool forked from this process runs each chunk
    in a worker, which perturbs its own copy of param: param here is
    never written, and f's side effects never come back. The columns are
    joined in element order, the same bits as one serial loop on any
    number of CPUs. Ops skip their output checks during the evaluations;
    a non-finite loss raises NumericError instead. An exception that a
    worker raises is raised here, and a worker that ends without a
    result raises ContractError.
    """
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    global _fd_job
    data = param.data if isinstance(param, Tensor) else param
    # writes through .flat reach the values whatever their memory layout
    flat = data.flat
    workers = max(1, min(len(os.sched_getaffinity(0)), len(flat)))
    chunks = np.array_split(np.arange(len(flat)), workers)
    previous, _fd_job = _fd_job, (f, flat, h)
    try:
        # fork, not spawn: f is usually a closure, which pickle cannot send,
        # so the workers inherit the job; the pool forks every worker
        # before it starts its own thread
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            columns = [column for part in pool.map(_fd_columns, chunks) for column in part]
    except BrokenProcessPool:
        raise ContractError("a finite-difference worker ended without a result") from None
    finally:
        _fd_job = previous
    grad = np.stack(columns, axis=-1)
    return grad.reshape(grad.shape[:-1] + data.shape)


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, REL_ERROR_FLOOR)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERROR_FLOOR)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0
