"""Dense float64 tensors with reverse-mode differentiation.

A Tensor wraps a numpy array plus an optional graph node recording the
producing operation and its parents.  Graphs are built eagerly during the
forward pass and walked once, in reverse topological order, by
:func:`backward`.  Everything is 64-bit: the models here are desk-scale and
gradient checks against central finite differences demand the precision.

Primitives, each with a backward hook: add, neg, mul, power, relu, exp,
log, matmul, swapaxes, reshape, take, concat, tsum, max_reduce, softmax,
layernorm, normalize_rows and block_tk.  Compositions of them: embedding,
transpose (``Tensor.T``), sqrt, stack and tmean (``Tensor.mean``).

Convention at non-differentiable points: the subgradient of the
first-encountered / left branch is used (``relu'(0) == 0``, ties in ``max``
route to the lowest index), so finite-difference checks should avoid kinks.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError, InvalidMaskError, ShapeMismatchError

_grad_enabled = True


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

    __slots__ = ("parents", "backward_fn", "name")

    def __init__(self, parents, backward_fn, name):
        self.parents = parents
        self.backward_fn = backward_fn
        self.name = name


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
    """Indexing/slicing; gradients scatter-add back (duplicates accumulate)."""
    a = _wrap(a)
    out_data = a.data[idx]

    def backward_fn(g):
        buf = np.zeros_like(a.data)
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
        shifted = np.where(mask, x.data, -np.inf)
    else:
        shifted = x.data
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    out_data = expd / expd.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _make(out_data, (x,), backward_fn, "softmax")


def layernorm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ShapeMismatchError("layernorm requires a non-empty last axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine parameters must have shape ({d},), "
            f"got {gain.data.shape} and {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _make(out_data, (x, gain, bias), backward_fn, "layernorm")


def normalize_rows(a) -> Tensor:
    """Scale each row (last axis) to unit L2 norm, the cosine preparation.

    Callers reject zero rows first.  The backward projects the incoming
    gradient off each output row and divides by the row's norm.
    """
    a = _wrap(a)
    inv = ((a.data**2.0).sum(axis=-1, keepdims=True) ** 0.5) ** -1.0
    out_data = a.data * inv

    def backward_fn(g):
        return (inv * (g - out_data * (g * out_data).sum(axis=-1, keepdims=True)),)

    return _make(out_data, (a,), backward_fn, "normalize")


def _block_offsets(offsets, size: int, side: str) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != size:
        raise ShapeMismatchError(f"{side} offsets must run from 0 to {size}, got {offsets}")
    if (np.diff(offsets) < 1).any():
        raise ShapeMismatchError(f"{side} blocks must be non-empty, got offsets {offsets}")
    return offsets


def _strongest(best: np.ndarray, offsets: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Mask over ``best`` (n, m): per column, the entries whose descending
    rank inside their own block of axis 0 is below ``limit`` (n, m); ties
    rank the lower index first."""
    sizes = np.diff(offsets)
    block = np.repeat(np.arange(len(sizes)), sizes)
    if (limit >= sizes[block][:, None]).all():
        return np.ones(best.shape, dtype=bool)
    order = np.lexsort((-best, np.broadcast_to(block[:, None], best.shape)), axis=0)
    # Blocks sort in place, so sorted position p holds the entry ranked
    # p - (its block's start) inside the block.
    rank = np.empty_like(order)
    rank[order, np.arange(best.shape[1])] = (np.arange(len(block)) - offsets[block])[:, None]
    return rank < limit


def block_tk(s, row_offsets, col_offsets, k=None, diagonal: bool = False) -> Tensor:
    """tk of every (row block, column block) sub-matrix of ``s`` in one op.

    Block (I, J) spans rows ``row_offsets[I]:row_offsets[I+1]`` and columns
    ``col_offsets[J]:col_offsets[J+1]``.  Its tk averages the strongest
    min(k, rows) of its per-row maxima and the strongest min(k, cols) of its
    per-column maxima; ties pick the lower index, and a cell chosen by both
    sides counts twice.  ``k=None`` takes min(rows, cols) per block; an int
    must satisfy 1 <= k <= max(rows, cols) on every returned block, else
    :class:`ConfigError` names the block shape.  Returns the (row blocks,
    column blocks) table, or with ``diagonal`` the vector of blocks (I, I).

    The selection is a constant of the backward pass, so the gradient is a
    fixed scatter: each selected cell receives 1/(kr + kc) of its block's
    upstream gradient per selection.
    """
    s = _wrap(s)
    data = s.data
    rows, cols = data.shape
    row_off = _block_offsets(row_offsets, rows, "row")
    col_off = _block_offsets(col_offsets, cols, "column")
    n_r, n_c = np.diff(row_off), np.diff(col_off)
    if diagonal and len(n_r) != len(n_c):
        raise ShapeMismatchError(
            f"diagonal blocks need equal block counts, got {len(n_r)} rows and {len(n_c)} columns"
        )
    wanted = np.eye(len(n_r), dtype=bool) if diagonal else np.ones((len(n_r), len(n_c)), bool)
    if k is None:
        k_table = np.minimum.outer(n_r, n_c)
    else:
        bad = np.argwhere(wanted & ((k < 1) | (k > np.maximum.outer(n_r, n_c))))
        if len(bad):
            i, j = bad[0]
            raise ConfigError(
                f"k={k} invalid for a {n_r[i]}x{n_c[j]} matrix; "
                f"need 1 <= k <= {max(n_r[i], n_c[j])}"
            )
        k_table = np.full(wanted.shape, k)
    k_rows = np.minimum(k_table, n_r[:, None])
    k_cols = np.minimum(k_table, n_c[None, :])
    scale = 1.0 / (k_rows + k_cols)
    row_block = np.repeat(np.arange(len(n_r)), n_r)
    col_block = np.repeat(np.arange(len(n_c)), n_c)

    # Row side: each row's best value and first best column inside every
    # column block; keep the strongest k_rows rows of each block.
    row_best = np.maximum.reduceat(data, col_off[:-1], axis=1)
    first = np.where(data == row_best[:, col_block], np.arange(cols), cols)
    row_arg = np.minimum.reduceat(first, col_off[:-1], axis=1)
    row_kept = _strongest(row_best, row_off, k_rows[row_block]) & wanted[row_block]
    # Column side, the same over the row blocks.
    col_best = np.maximum.reduceat(data, row_off[:-1], axis=0).T
    first = np.where(data == col_best[:, row_block].T, np.arange(rows)[:, None], rows)
    col_arg = np.minimum.reduceat(first, row_off[:-1], axis=0).T
    col_kept = _strongest(col_best, col_off, k_cols.T[col_block]) & wanted.T[col_block]

    row_sums = np.add.reduceat(np.where(row_kept, row_best, 0.0), row_off[:-1], axis=0)
    col_sums = np.add.reduceat(np.where(col_kept, col_best, 0.0), col_off[:-1], axis=0)
    out_data = (row_sums + col_sums.T) * scale
    if diagonal:
        out_data = np.diagonal(out_data).copy()

    weights = np.zeros_like(data)
    r, j = np.nonzero(row_kept)
    weights[r, row_arg[r, j]] += 1.0
    c, i = np.nonzero(col_kept)
    weights[col_arg[c, i], c] += 1.0

    def backward_fn(g):
        per_block = (np.diag(g) if diagonal else g) * scale
        return (weights * per_block[row_block][:, col_block],)

    return _make(out_data, (s,), backward_fn, "block_tk")


# ---- backward engine -------------------------------------------------------


def _toposort(root: Tensor):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
    return order


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
    order = _toposort(loss)
    seed = np.ones((), dtype=np.float64)
    if loss.grad is None:
        loss.grad = seed.copy()
    else:
        loss.grad = loss.grad + seed
    # Walk children before parents; grads for interior nodes were populated
    # by the time their own backward hook runs.
    local = {id(loss): seed}
    for t in reversed(order):
        g = local.pop(id(t), None)
        if g is None or t.node is None:
            continue
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
