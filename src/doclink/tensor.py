"""Dense float64 tensors with reverse-mode differentiation.

A Tensor wraps a numpy array plus an optional graph node recording the
producing operation and its parents.  Graphs are built eagerly during the
forward pass; :func:`backward` walks them in one pass, newest node first,
so each hook runs once, after every consumer has added its gradient.
Everything is 64-bit: the models here are desk-scale and gradient checks
against central finite differences demand the precision.

Primitives, each with a backward hook: add, neg, mul, power, relu, exp,
log, matmul, swapaxes, reshape, take, concat, tsum, max_reduce, softmax
and layernorm, plus the fused ops of the encoder, each one node with a
hand-written backward: linear, masked_mean, the two post-norm residual
sublayers attention_sublayer and feed_forward_sublayer, and
segment_tokens, the image tower's input.  The attention, feed-forward and
layer-norm math each live in one private forward pass returning its
backward, which the fused ops share.  Compositions of the primitives:
embedding, transpose (``Tensor.T``), sqrt, stack and tmean
(``Tensor.mean``).  Other modules build their own ops with :func:`_make`
(the encoder's ``cosine``, the objective's ``tk``, ``batch_scores`` and
``hinge``).

A graph is consumed by its backward: each node's hook is dropped as it
runs, and with it the arrays it captured (attention probabilities,
layer-norm statistics, hidden activations), so a step's memory falls as
backward proceeds.  Because a hook runs at most once, even one that fails
partway, the attention, feed-forward and layer-norm backwards write their
gradients over those arrays instead of allocating fresh ones.
``Node.parents`` and ``Node.name`` stay, so the graph can still be walked;
a second backward that reaches a consumed node raises
:class:`ConsumedGraphError`.  To differentiate again, build the
graph again.

Graph construction is off inside :func:`no_grad`, which sets the current
``contextvars`` context's grad mode: a thread started bare has grad mode on,
and one run in a copy of its caller's context has the caller's.

On glibc, importing this module sets the allocator once: arrays up to
32 MiB come from the heap, and freed heap memory is kept by the process
until more than MAX_WORD_TABLE_BYTES of it is free.  Each training step
then reuses the pages of the last instead of faulting them in afresh; the
cost is that the resident size stays at the run's high-water mark.  Every
thread allocates from that one heap, so the worker threads of a split's
encoding reuse the pages training freed instead of each faulting in an
arena of its own.

Convention at non-differentiable points: the subgradient of the
first-encountered / left branch is used (``relu'(0) == 0``, ties in ``max``
route to the lowest index), so finite-difference checks should avoid kinks.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import heapq
import itertools
import os

import numpy as np

from .errors import (
    ConfigError,
    ConsumedGraphError,
    InvalidMaskError,
    NonFiniteError,
    ShapeMismatchError,
)

# Largest word table, model and attention score array of one pass, in bytes;
# training holds four copies of the model (parameters, m, v, gradient).
MAX_WORD_TABLE_BYTES = 2**30
# Scores whose softmax gradient an attention backward takes at once; a
# Python iteration per image instead slows a small training step by a tenth.
SOFTMAX_CHUNK_BYTES = 2**20
# Added to each row's variance by every layer norm.
LAYERNORM_EPS = 1e-5
# glibc's mallopt parameters (malloc.h).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8


def _keep_freed_pages() -> None:
    """On glibc, heap-allocate arrays up to 32 MiB from one arena for every
    thread, and trim the heap only past MAX_WORD_TABLE_BYTES free; elsewhere,
    or without mallopt, nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(M_TRIM_THRESHOLD, MAX_WORD_TABLE_BYTES)
    mallopt(M_ARENA_MAX, 1)


_keep_freed_pages()
# Grad mode is context state, as np.errstate is: each thread has its own.
_grad_mode = contextvars.ContextVar("grad_mode", default=True)
_created = itertools.count()  # Node.index: a node is always newer than its parents


@contextlib.contextmanager
def no_grad():
    """Disable graph construction in this context for the block (evaluation mode)."""
    token = _grad_mode.set(False)
    try:
        yield
    finally:
        _grad_mode.reset(token)


def is_grad_enabled() -> bool:
    return _grad_mode.get()


class Node:
    """Producing operation of a tensor: parents plus a vector-Jacobian hook,
    which :func:`backward` drops (``backward_fn = None``) as it runs it."""

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
    if _grad_mode.get() and any(p.requires_grad for p in parents):
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


def _attention(x, weights, biases, heads, mask):
    """Multi-head self-attention over ``x`` (B, L, d), the forward pass of
    :func:`attention_sublayer`: the fresh output array and the backward that
    maps its gradient to those of x (None unless x requires one), the
    weights and the biases.

    ``weights`` holds the (d, d) query, key, value and output projections,
    stored (out, in), and ``biases`` their (d,) offsets.  Each of ``heads``
    heads scores its queries against its keys, scaled by 1/sqrt(d / heads),
    softmaxes over the keys and mixes the values; the merged heads go
    through the output projection.  ``mask`` (B, L) marks real keys: padded
    keys get exactly zero weight, and a batch row with no real key raises
    :class:`InvalidMaskError`.  A width that ``heads`` does not divide raises
    :class:`ConfigError`.

    The backward writes the scores' gradient over the probabilities, taking
    the softmax's per-row dots SOFTMAX_CHUNK_BYTES of scores at a time, so it
    makes no (B, heads, L, L) temporary.
    """
    batch, length, dim = x.data.shape
    if heads < 1 or dim % heads != 0:
        raise ConfigError(f"attention width {dim} is not divisible by {heads} heads")
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
    chunk = max(1, SOFTMAX_CHUNK_BYTES // max(1, probs[:1].nbytes))

    def backward_fn(g):
        g = g.reshape(-1, dim)
        g_mixed = (g @ w_out).reshape(batch, length, heads, head_dim).swapaxes(1, 2)
        g_qkv = np.empty((batch, length, 3, heads, head_dim))
        gq, gk, gv = g_qkv.transpose(2, 0, 3, 1, 4)
        gv[...] = probs.swapaxes(-1, -2) @ g_mixed
        for i in range(0, batch, chunk):
            part = slice(i, i + chunk)
            probs[part] = _softmax_backward_(g_mixed[part] @ v[part].swapaxes(-1, -2),
                                             probs[part])
        np.multiply(probs, scale, out=probs)  # now the gradient of the scaled scores
        gq[...] = probs @ k
        gk[...] = probs.swapaxes(-1, -2) @ q
        g_qkv = g_qkv.reshape(-1, 3 * dim)
        gx = (g_qkv @ w_qkv).reshape(x.data.shape) if x.requires_grad else None
        return (
            gx,
            *np.split(g_qkv.T @ rows, 3),
            g.T @ merged,
            *np.split(g_qkv.sum(axis=0), 3),
            g.sum(axis=0),
        )

    return out_data.reshape(x.data.shape), backward_fn


def pad(pieces, dtype=np.float64, fill=0) -> tuple:
    """``(padded, mask)``: ``pieces`` stacked on a new first axis, each filled
    out with ``fill`` to the longest (trailing dimensions must agree), and the
    (pieces, longest) mask, True at real entries as :func:`masked_mean` reads."""
    lengths = np.array([len(piece) for piece in pieces])
    mask = np.arange(lengths.max()) < lengths[:, None]
    flat = np.concatenate(pieces)
    padded = np.full(mask.shape + flat.shape[1:], fill, dtype=dtype)
    padded[mask] = flat
    return padded, mask


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


def _feed_forward(x, w1, b1, w2, b2):
    """``linear(relu(linear(x, w1, b1)), w2, b2)``, with ``w1`` (hidden, in)
    and ``w2`` (out, hidden), the forward pass of
    :func:`feed_forward_sublayer`: the fresh output array and the backward
    that maps its gradient to those of x (None unless x requires one), w1,
    b1, w2 and b2.

    It keeps one (rows, hidden) activation, relu'd in place; once the ``w2``
    gradient is taken, the backward writes the hidden gradient over it.
    """
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
        g_w2 = g.T @ hidden
        active = hidden > 0.0
        g_hidden = np.matmul(g, w2.data, out=hidden)
        g_hidden *= active
        gx = (g_hidden @ w1.data).reshape(x.data.shape) if x.requires_grad else None
        return gx, g_hidden.T @ rows, g_hidden.sum(axis=0), g_w2, g.sum(axis=0)

    return out_data.reshape(x.data.shape[:-1] + (out_dim,)), backward_fn


def layernorm(x, gain, bias, eps: float = LAYERNORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    A row whose statistics overflow raises NonFiniteError."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    out_data, backward_fn = _layernorm(x.data, gain, bias, eps)
    return _make(out_data, (x, gain, bias), backward_fn, "layernorm")


def _layernorm(x, gain, bias, eps, residual=None):
    """:func:`layernorm`'s checks and forward pass on the array ``x``, or on
    ``x + residual`` summed into ``residual``, a fresh array of x's shape that
    the caller gives up: the output and the backward that maps its gradient to
    those of the input, the gain and the bias."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeMismatchError("layernorm requires a non-empty last axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine parameters must have shape ({d},), "
            f"got {gain.data.shape} and {bias.data.shape}"
        )
    if residual is not None and residual.shape != x.shape:
        raise ShapeMismatchError(
            f"layernorm residual must have x's shape {x.shape}, got {residual.shape}"
        )
    # Row means and variances as matrix-vector products on the 2-D row view.
    rows = x.reshape(-1, d)
    average = np.full(d, 1.0 / d)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if residual is None:
                xhat = rows - (rows @ average)[:, None]
            else:
                xhat = residual.reshape(-1, d)
                xhat += rows
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
        along = (g_xhat @ spread)[:, None]
        del g_xhat
        dx = g * gain.data
        dx -= (g @ spread)[:, None]
        dx -= np.multiply(xhat, along, out=xhat)  # xhat is not read again
        dx *= inv
        return dx.reshape(x.shape), g_gain, g.sum(axis=0)

    return out_data.reshape(x.shape), backward_fn


def attention_sublayer(x, weights, biases, heads: int, gain, bias, mask=None) -> Tensor:
    """``layernorm(x + attention(x, weights, biases, heads, mask), gain, bias)``
    as one op, the post-norm residual attention sublayer, with the bits of
    that composition; the attention, its mask and its heads are those of
    :func:`_attention`."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    weights = [_wrap(w) for w in weights]
    biases = [_wrap(b) for b in biases]
    return _residual_norm(_attention, (x, weights, biases, heads, mask), gain, bias,
                          (x, *weights, *biases, gain, bias), "attention_sublayer")


def feed_forward_sublayer(x, w1, b1, w2, b2, gain, bias) -> Tensor:
    """``layernorm(x + feed_forward(x, w1, b1, w2, b2), gain, bias)`` as one
    op, the post-norm residual feed-forward sublayer, with the bits of that
    composition; the feed-forward is :func:`_feed_forward`."""
    x, w1, b1, w2, b2 = _wrap(x), _wrap(w1), _wrap(b1), _wrap(w2), _wrap(b2)
    gain, bias = _wrap(gain), _wrap(bias)
    return _residual_norm(_feed_forward, (x, w1, b1, w2, b2), gain, bias,
                          (x, w1, b1, w2, b2, gain, bias), "feed_forward_sublayer")


def _residual_norm(sublayer, args, gain, bias, parents, name) -> Tensor:
    """The one node of ``layernorm(x + sublayer(*args), gain, bias)``, where
    x is ``args[0]`` and ``sublayer`` a private forward pass.  Its fresh
    output becomes the norm's input in place; without a graph, its backward
    state is dropped before the norm runs.  The backward runs the norm's,
    then the sublayer's, and hands x the sum of both paths."""
    x = args[0]
    out_data, sublayer_backward = sublayer(*args)
    if not _grad_mode.get():
        sublayer_backward = None
    out_data, norm_backward = _layernorm(x.data, gain, bias, LAYERNORM_EPS, residual=out_data)

    def backward_fn(g):
        dx, g_gain, g_bias = norm_backward(g)
        gx, *grads = sublayer_backward(dx)
        if gx is not None:
            gx += dx
        return (gx, *grads, g_gain, g_bias)

    return _make(out_data, parents, backward_fn, name)


def segment_tokens(sides, segments) -> Tensor:
    """The image tower's input as one op, with the bits of the composition:
    side i of ``sides``, a tuple ``(x, gain, bias, seg_gain, seg_bias)``,
    becomes ``(layernorm(x, gain, bias) + layernorm(segments[i], seg_gain,
    seg_bias)) * 0.5``, written into its slice along axis -2 of one
    (..., len(sides) * n, d) output, for sides of one shape (..., n, d) and
    a (rows, d) ``segments`` table with a row per side.  Without a graph,
    each side's backward state is dropped before the next side runs."""
    sides = [tuple(_wrap(t) for t in side) for side in sides]
    segments = _wrap(segments)
    shape = sides[0][0].data.shape if sides else ()
    if len(shape) < 2 or any(x.data.shape != shape for x, *_ in sides):
        raise ShapeMismatchError(
            f"segment_tokens needs sides of one shape (..., n, d), "
            f"got {[x.data.shape for x, *_ in sides]}"
        )
    n, d = shape[-2:]
    if segments.data.ndim != 2 or segments.data.shape[1] != d or len(segments.data) < len(sides):
        raise ShapeMismatchError(
            f"segment_tokens needs a (rows, {d}) segments table with a row per side, "
            f"{len(sides)} or more, got {segments.data.shape}"
        )
    out_data = np.empty(shape[:-2] + (len(sides) * n, d))
    hooks = []
    for i, (x, gain, bias, seg_gain, seg_bias) in enumerate(sides):
        tokens, token_backward = _layernorm(x.data, gain, bias, LAYERNORM_EPS)
        segment, segment_backward = _layernorm(segments.data[i], seg_gain, seg_bias,
                                               LAYERNORM_EPS)
        part = out_data[..., i * n : (i + 1) * n, :]
        np.add(tokens, segment, out=part)
        part *= 0.5
        if _grad_mode.get():
            hooks.append((token_backward, segment_backward))
        del tokens, token_backward, segment_backward

    def backward_fn(g):
        grads, g_segments = [], np.zeros_like(segments.data)
        for i, (token_backward, segment_backward) in enumerate(hooks):
            g_side = g[..., i * n : (i + 1) * n, :] * 0.5
            dx, g_gain, g_bias = token_backward(g_side)
            g_segments[i], g_seg_gain, g_seg_bias = segment_backward(_unbroadcast(g_side, (d,)))
            grads += [dx, g_gain, g_bias, g_seg_gain, g_seg_bias]
        return (*grads, g_segments)

    parents = (*(t for side in sides for t in side), segments)
    return _make(out_data, parents, backward_fn, "segment_tokens")


# ---- backward engine -------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable tensor.

    ``loss`` must be scalar.  Leaf gradients accumulate across calls until
    cleared.  The graph is consumed: each hook is dropped as it runs,
    freeing what it captured.  A backward that reaches a node an earlier
    backward consumed raises :class:`ConsumedGraphError` naming its op;
    leaves it reached first keep what was added to them.
    """
    if loss.data.shape != ():
        raise ShapeMismatchError(
            f"backward expects a scalar loss, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        return
    seed = np.ones((), dtype=np.float64)
    # Pop the newest pending node: all of its consumers are newer, so its
    # gradient is complete by the time its own backward hook runs.
    local = {id(loss): seed}
    pending = [] if loss.node is None else [(-loss.node.index, loss)]
    while pending:
        t = heapq.heappop(pending)[1]
        node, g = t.node, local.pop(id(t))
        if node.backward_fn is None:
            raise ConsumedGraphError(
                f"backward reached a {node.name!r} node that an earlier backward consumed; "
                "rebuild the graph to differentiate it again"
            )
        # Dropped before it runs: a hook that fails partway, having written
        # over what it captured, cannot run again.
        hook, node.backward_fn = node.backward_fn, None
        grads = hook(g)
        for parent, pg in zip(node.parents, grads):
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
    loss.grad = seed.copy() if loss.grad is None else loss.grad + seed
