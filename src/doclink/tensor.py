"""Dense float64 tensors with reverse-mode differentiation.

A Tensor wraps a numpy array plus an optional graph node recording the
producing operation and its parents.  Graphs are built eagerly during the
forward pass; :func:`backward` walks them in one pass, newest node first,
so each hook runs once, after every consumer has added its gradient.
Everything is 64-bit: the models here are desk-scale and gradient checks
against central finite differences demand the precision.

Primitives, each with a backward hook: add, neg, mul, power, relu, exp,
log, matmul, swapaxes, reshape, take, concat, tsum, max_reduce, softmax
and layernorm (whose ``residual`` form normalises ``x + residual``), plus
the fused ops of the encoder (linear, attention, feed_forward and
masked_mean), each one node with a hand-written backward.  Compositions of
them: embedding, transpose (``Tensor.T``), sqrt, stack and tmean
(``Tensor.mean``).  Other modules build their own ops with :func:`_make`
(the encoder's ``cosine``, the objective's ``tk`` and ``batch_scores``).

Convention at non-differentiable points: the subgradient of the
first-encountered / left branch is used (``relu'(0) == 0``, ties in ``max``
route to the lowest index), so finite-difference checks should avoid kinks.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools

import numpy as np

from .errors import InvalidMaskError, NonFiniteError, ShapeMismatchError

_grad_enabled = True
_created = itertools.count()  # Node.index: a node is always newer than its parents


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Node:
    """Producing operation of a tensor: parents plus a vector-Jacobian hook."""

    __slots__ = ("parents", "backward_fn", "name", "index")

    def __init__(self, parents, backward_fn, name):
        self.parents = parents
        self.backward_fn = backward_fn
        self.name = name
        self.index = next(_created)


class Tensor:
    __slots__ = ("data", "grad", "node", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.node = None
        self.requires_grad = bool(requires_grad)

    # ---- basic introspection -------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    # ---- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        return mul(self, power(other, -1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def relu(self):
        return relu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def backward(self):
        backward(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn, name) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.node = Node(tuple(parents), backward_fn, name)
        out.requires_grad = True
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that broadcasting added or stretched."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out_data, (a, b), backward_fn, "add")


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out_data, (a, b), backward_fn, "mul")


def power(a, exponent: float) -> Tensor:
    a = _wrap(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward_fn(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _make(out_data, (a,), backward_fn, "pow")


def relu(a) -> Tensor:
    a = _wrap(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        return (g * (a.data > 0.0),)

    return _make(out_data, (a,), backward_fn, "relu")


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward_fn(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward_fn, "exp")


def log(a) -> Tensor:
    a = _wrap(a)
    out_data = np.log(a.data)

    def backward_fn(g):
        return (g / a.data,)

    return _make(out_data, (a,), backward_fn, "log")


def sqrt(a) -> Tensor:
    return power(a, 0.5)


# ---- linear algebra -------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul needs operands with ndim >= 2, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    out_data = np.matmul(a.data, b.data)

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(out_data, (a, b), backward_fn, "matmul")


def transpose(a) -> Tensor:
    """Reverse all axes (the matrix transpose in 2-D)."""
    a = _wrap(a)
    for i in range(a.ndim // 2):
        a = swapaxes(a, i, a.ndim - 1 - i)
    return a


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _wrap(a)
    out_data = np.swapaxes(a.data, ax1, ax2)

    def backward_fn(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out_data, (a,), backward_fn, "swapaxes")


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(a.data.shape),)

    return _make(out_data, (a,), backward_fn, "reshape")


def take(a, idx) -> Tensor:
    """Indexing/slicing; gradients scatter-add back (duplicates accumulate).
    A basic index (ints and slices) never repeats a cell, so its gradient
    is a plain assignment."""
    a = _wrap(a)
    out_data = a.data[idx]
    parts = idx if isinstance(idx, tuple) else (idx,)
    basic = all(isinstance(i, (int, np.integer, slice)) for i in parts)

    def backward_fn(g):
        buf = np.zeros_like(a.data)
        if basic:
            buf[idx] = g
        else:
            np.add.at(buf, idx, g)
        return (buf,)

    return _make(out_data, (a,), backward_fn, "take")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward_fn(g):
        return tuple(np.split(g, offsets[1:-1], axis=axis))

    return _make(out_data, tuple(tensors), backward_fn, "concat")


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    return concat([reshape(t, np.expand_dims(t.data, axis).shape) for t in tensors], axis)


def embedding(table, ids) -> Tensor:
    """Row lookup ``table[ids]``; backward scatter-adds into the table."""
    return take(table, np.asarray(ids, dtype=np.int64))


# ---- reductions -----------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out_data, (a,), backward_fn, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    """The sum scaled by out.size / in.size; an empty input gives nan."""
    a = _wrap(a)
    out = tsum(a, axis=axis, keepdims=keepdims)
    return out * (out.data.size / a.data.size if a.data.size else np.nan)


def max_reduce(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum along an axis; ties route gradient to the lowest index."""
    a = _wrap(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            buf = np.zeros_like(a.data)
            buf.reshape(-1)[np.argmax(a.data)] = g
            return (buf,)
        sel = np.argmax(a.data, axis=axis)
        onehot = np.zeros_like(a.data)
        np.put_along_axis(onehot, np.expand_dims(sel, axis), 1.0, axis=axis)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (onehot * gg,)

    return _make(out_data, (a,), backward_fn, "max")


# ---- fused neural ops ------------------------------------------------------


def softmax(x, mask=None, axis: int = -1) -> Tensor:
    """Numerically-stable softmax; masked-out entries are exactly zero.

    ``mask`` is a boolean array broadcastable to ``x``; True marks admissible
    entries.  Every row (along ``axis``) must keep at least one admissible
    entry, otherwise :class:`InvalidMaskError` is raised.
    """
    x = _wrap(x)
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
        if not mask.any(axis=axis).all():
            raise InvalidMaskError("softmax mask leaves at least one row fully masked")
        out_data = _softmax_(np.where(mask, x.data, -np.inf), axis)
    else:
        out_data = _softmax_(x.data.copy(), axis)

    def backward_fn(g):
        return (_softmax_backward_(g.copy(), out_data, axis),)

    return _make(out_data, (x,), backward_fn, "softmax")


def _softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overwrite ``x`` with its softmax along ``axis``; -inf entries become
    exact zeros.  Each slice needs one finite entry."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _softmax_backward_(g: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overwrite ``g``, the gradient at softmax output ``probs``, with the
    gradient at its input: probs * (g - sum(g * probs))."""
    g -= (g * probs).sum(axis=axis, keepdims=True)
    g *= probs
    return g


def linear(x, w, b) -> Tensor:
    """``x @ w.T + b`` over the last axis of ``x``, with ``w`` stored (out, in).

    One 2-D product on ``x`` flattened to rows, forward and backward, so the
    weight gradient is one product too, with no per-batch temporaries.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[1:] \
            or b.data.shape != w.data.shape[:1]:
        raise ShapeMismatchError(
            f"linear needs x (..., in), w (out, in) and b (out,), got "
            f"{x.data.shape}, {w.data.shape} and {b.data.shape}"
        )
    out_dim, in_dim = w.data.shape
    rows = x.data.reshape(-1, in_dim)
    out_data = rows @ w.data.T
    out_data += b.data

    def backward_fn(g):
        g = g.reshape(-1, out_dim)
        gx = (g @ w.data).reshape(x.data.shape) if x.requires_grad else None
        return gx, g.T @ rows, g.sum(axis=0)

    out_data = out_data.reshape(x.data.shape[:-1] + (out_dim,))
    return _make(out_data, (x, w, b), backward_fn, "linear")


def attention(x, weights, biases, heads: int, mask=None) -> Tensor:
    """Multi-head self-attention over ``x`` (B, L, d) as one op.

    ``weights`` holds the (d, d) query, key, value and output projections,
    stored (out, in), and ``biases`` their (d,) offsets.  Each of ``heads``
    heads scores its queries against its keys, scaled by 1/sqrt(d / heads),
    softmaxes over the keys and mixes the values; the merged heads go
    through the output projection.  ``mask`` (B, L) marks real keys: padded
    keys get exactly zero weight, and a batch row with no real key raises
    :class:`InvalidMaskError`.
    """
    x = _wrap(x)
    weights = [_wrap(w) for w in weights]
    biases = [_wrap(b) for b in biases]
    batch, length, dim = x.data.shape
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(head_dim)
    key_bias = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch, length):
            raise ShapeMismatchError(
                f"attention mask must be ({batch}, {length}), got {mask.shape}"
            )
        if not mask.any(axis=-1).all():
            raise InvalidMaskError("attention mask leaves at least one row fully masked")
        if not mask.all():
            key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]

    rows = x.data.reshape(-1, dim)
    w_qkv = np.concatenate([w.data for w in weights[:3]])
    qkv = rows @ w_qkv.T
    qkv += np.concatenate([b.data for b in biases[:3]])
    # Views of shape (B, heads, L, head_dim) into the one projection.
    q, k, v = qkv.reshape(batch, length, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
    probs = q @ k.swapaxes(-1, -2)
    probs *= scale
    if key_bias is not None:
        probs += key_bias
    _softmax_(probs)
    merged = (probs @ v).swapaxes(1, 2).reshape(-1, dim)
    w_out = weights[3].data
    out_data = merged @ w_out.T
    out_data += biases[3].data

    def backward_fn(g):
        g = g.reshape(-1, dim)
        g_mixed = (g @ w_out).reshape(batch, length, heads, head_dim).swapaxes(1, 2)
        g_qkv = np.empty((batch, length, 3, heads, head_dim))
        gq, gk, gv = g_qkv.transpose(2, 0, 3, 1, 4)
        gv[...] = probs.swapaxes(-1, -2) @ g_mixed
        g_scores = _softmax_backward_(g_mixed @ v.swapaxes(-1, -2), probs)
        g_scores *= scale
        gq[...] = g_scores @ k
        gk[...] = g_scores.swapaxes(-1, -2) @ q
        g_qkv = g_qkv.reshape(-1, 3 * dim)
        gx = (g_qkv @ w_qkv).reshape(x.data.shape) if x.requires_grad else None
        return (
            gx,
            *np.split(g_qkv.T @ rows, 3),
            g.T @ merged,
            *np.split(g_qkv.sum(axis=0), 3),
            g.sum(axis=0),
        )

    parents = (x, *weights, *biases)
    return _make(out_data.reshape(x.data.shape), parents, backward_fn, "attention")


def masked_mean(x, mask) -> Tensor:
    """Mean of ``x`` (..., L, d) over the positions ``mask`` (..., L) marks
    real; a slot with no real position gives zeros."""
    x = _wrap(x)
    mask = np.asarray(mask, dtype=bool)
    if x.data.shape[:-1] != mask.shape:
        raise ShapeMismatchError(f"mask {mask.shape} does not cover x {x.data.shape}")
    # Per-position weights 1/count, with count clamped to one.
    weights = (mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1))[..., None, :]
    out_data = (weights @ x.data)[..., 0, :]

    def backward_fn(g):
        return (np.swapaxes(weights, -1, -2) * g[..., None, :],)

    return _make(out_data, (x,), backward_fn, "masked_mean")


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one op, with ``w1``
    (hidden, in) and ``w2`` (out, hidden).

    The node keeps one (rows, hidden) activation, relu'd in place, and its
    backward masks the hidden gradient in place with ``hidden > 0``.
    """
    x, w1, b1, w2, b2 = (_wrap(t) for t in (x, w1, b1, w2, b2))
    if w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.shape[-1:] != w1.data.shape[1:] \
            or b1.data.shape != w1.data.shape[:1] or w2.data.shape[1:] != w1.data.shape[:1] \
            or b2.data.shape != w2.data.shape[:1]:
        raise ShapeMismatchError(
            f"feed_forward needs x (..., in), w1 (hidden, in), b1 (hidden,), "
            f"w2 (out, hidden) and b2 (out,), got {x.data.shape}, {w1.data.shape}, "
            f"{b1.data.shape}, {w2.data.shape} and {b2.data.shape}"
        )
    out_dim = w2.data.shape[0]
    rows = x.data.reshape(-1, x.data.shape[-1])
    hidden = rows @ w1.data.T
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out_data = hidden @ w2.data.T
    out_data += b2.data

    def backward_fn(g):
        g = g.reshape(-1, out_dim)
        g_hidden = g @ w2.data
        g_hidden *= hidden > 0.0
        gx = (g_hidden @ w1.data).reshape(x.data.shape) if x.requires_grad else None
        return gx, g_hidden.T @ rows, g_hidden.sum(axis=0), g.T @ hidden, g.sum(axis=0)

    out_data = out_data.reshape(x.data.shape[:-1] + (out_dim,))
    return _make(out_data, (x, w1, b1, w2, b2), backward_fn, "feed_forward")


def layernorm(x, gain, bias, eps: float = 1e-5, residual=None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    With ``residual``, a tensor of ``x``'s shape, the input is ``x + residual``
    in the same node: the post-norm residual sum.  A row whose statistics
    overflow raises NonFiniteError.
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ShapeMismatchError("layernorm requires a non-empty last axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine parameters must have shape ({d},), "
            f"got {gain.data.shape} and {bias.data.shape}"
        )
    parents = (x, gain, bias)
    if residual is not None:
        residual = _wrap(residual)
        if residual.data.shape != x.data.shape:
            raise ShapeMismatchError(
                f"layernorm residual must have x's shape {x.data.shape}, got {residual.data.shape}"
            )
        parents += (residual,)
    # Row means and variances as matrix-vector products on the 2-D row view.
    rows = x.data.reshape(-1, d)
    average = np.full(d, 1.0 / d)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if residual is None:
                xhat = rows - (rows @ average)[:, None]
            else:
                xhat = rows + residual.data.reshape(-1, d)
                xhat -= (xhat @ average)[:, None]
            inv = 1.0 / np.sqrt((xhat * xhat) @ average + eps)[:, None]
    except FloatingPointError:
        raise NonFiniteError("layernorm: a row's variance overflows") from None
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward_fn(g):
        g = g.reshape(-1, d)
        g_xhat = g * xhat
        g_gain = g_xhat.sum(axis=0)
        spread = gain.data / d
        dx = g * gain.data
        dx -= (g @ spread)[:, None]
        dx -= np.multiply(xhat, (g_xhat @ spread)[:, None], out=g_xhat)
        dx *= inv
        dx = dx.reshape(x.data.shape)
        return (dx, g_gain, g.sum(axis=0)) + (() if residual is None else (dx,))

    return _make(out_data.reshape(x.data.shape), parents, backward_fn, "layernorm")


# ---- backward engine -------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable tensor.

    ``loss`` must be scalar.  Repeated calls without clearing grads
    accumulate, which is also why interior nodes of a reused graph add up.
    """
    if loss.data.shape != ():
        raise ShapeMismatchError(
            f"backward expects a scalar loss, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        return
    seed = np.ones((), dtype=np.float64)
    if loss.grad is None:
        loss.grad = seed.copy()
    else:
        loss.grad = loss.grad + seed
    # Pop the newest pending node: all of its consumers are newer, so its
    # gradient is complete by the time its own backward hook runs.
    local = {id(loss): seed}
    pending = [] if loss.node is None else [(-loss.node.index, loss)]
    while pending:
        t = heapq.heappop(pending)[1]
        g = local.pop(id(t))
        for parent, pg in zip(t.node.parents, t.node.backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if parent.node is None:
                # Leaf: persist into .grad so optimizers can read it.
                parent.grad = np.array(pg) if parent.grad is None else parent.grad + pg
            elif pid in local:
                local[pid] = local[pid] + pg
            else:
                local[pid] = np.array(pg)
                heapq.heappush(pending, (-parent.node.index, parent))
