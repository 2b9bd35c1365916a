"""Gradient and semantics checks for the tensor core.

Every differentiable op is compared against a central finite-difference
oracle (step 1e-5, float64).  Inputs are chosen away from kinks (relu at 0,
max ties) because the library takes the left-branch subgradient there.
"""

import contextlib
import contextvars
import functools
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doclink import nn, tensor
from doclink.errors import (
    ConfigError,
    ConsumedGraphError,
    InvalidMaskError,
    NonFiniteError,
    ShapeMismatchError,
)
from doclink.tensor import Tensor


def central_diff(f, x: Tensor, step: float = 1e-5) -> np.ndarray:
    """d f() / d x.data by central differences, one entry at a time."""
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        with tensor.no_grad():
            hi = f().item()
        flat[i] = keep - step
        with tensor.no_grad():
            lo = f().item()
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def check_grads(build, leaves, rtol=1e-4, atol=1e-7):
    """Reverse-mode grads of the scalar build() must match the oracle."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = build()
    tensor.backward(loss)
    for leaf in leaves:
        fd = central_diff(build, leaf)
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        np.testing.assert_allclose(got, fd, rtol=rtol, atol=atol)


def leaf(rng, *shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestArithmetic:
    def test_add_mul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        np.testing.assert_allclose((a + b).data, [[11.0, 22.0], [13.0, 24.0]])
        np.testing.assert_allclose((a * 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
        np.testing.assert_allclose((a - b).data, [[-9.0, -18.0], [-7.0, -16.0]])

    def test_broadcast_gradients(self):
        """Gradients sum over broadcast axes back to the leaf shape."""
        rng = np.random.default_rng(0)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        check_grads(lambda: ((a * b) + b).sum(), [a, b], rtol=1e-6)

    def test_div_pow_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)), requires_grad=True)
        check_grads(lambda: (a / b).sum(), [a, b], rtol=1e-6)
        check_grads(lambda: (a**3.0).sum(), [a], rtol=1e-6)
        check_grads(lambda: (a**-0.5).sum(), [a], rtol=1e-6)

    def test_scalar_operand_promotion(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = (3.0 * a + 1.0).sum()
        tensor.backward(loss)
        np.testing.assert_allclose(a.grad, [3.0, 3.0])


class TestMatmul:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = tensor.matmul(Tensor(np.eye(2)), x)
        np.testing.assert_allclose(out.data, x.data)

    def test_worked_example(self):
        out = tensor.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_gradients_3x4_by_4x2(self):
        rng = np.random.default_rng(2)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: (tensor.matmul(a, b) * w).sum(), [a, b], rtol=1e-6)

    def test_batched_gradients(self):
        """Stacked operands with a broadcast batch dimension."""
        rng = np.random.default_rng(3)
        a = leaf(rng, 5, 3, 4)
        b = leaf(rng, 4, 2)
        check_grads(lambda: tensor.matmul(a, b.reshape(1, 4, 2)).sum(), [a, b], rtol=1e-6)

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            tensor.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestReductions:
    def test_sum_mean_gradients(self):
        rng = np.random.default_rng(4)
        a = leaf(rng, 3, 4)
        check_grads(lambda: a.sum(), [a], rtol=1e-6)
        check_grads(lambda: (a.sum(axis=1) ** 2.0).sum(), [a], rtol=1e-6)
        check_grads(lambda: (a.mean(axis=0, keepdims=True) ** 2.0).sum(), [a], rtol=1e-6)
        check_grads(lambda: a.mean(), [a], rtol=1e-6)

    def test_mean_tuple_axis_and_keepdims(self):
        rng = np.random.default_rng(14)
        a = leaf(rng, 2, 3, 4)
        for axis, keepdims in (((0, 2), False), ((0, 2), True), (1, True), (None, True)):
            np.testing.assert_allclose(
                a.mean(axis=axis, keepdims=keepdims).data,
                a.data.mean(axis=axis, keepdims=keepdims),
                rtol=1e-15,
            )
        w = Tensor(rng.normal(size=(1, 3, 1)))
        check_grads(lambda: (a.mean(axis=(0, 2), keepdims=True) * w).sum(), [a], rtol=1e-6)
        check_grads(lambda: (a.mean(axis=(0, 2)) ** 2.0).sum(), [a], rtol=1e-6)

    def test_mean_of_empty_input_is_nan(self):
        empty = Tensor(np.zeros((0, 3)))
        assert np.isnan(empty.mean().item())
        assert np.isnan(empty.mean(axis=0).data).all()

    def test_max_values_and_gradients(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 5))
        base += np.arange(20.0).reshape(4, 5) * 0.001  # separate entries from ties
        a = Tensor(base, requires_grad=True)
        out = tensor.max_reduce(a, axis=1)
        np.testing.assert_allclose(out.data, base.max(axis=1))
        check_grads(lambda: tensor.max_reduce(a, axis=1).sum(), [a], rtol=1e-6)
        check_grads(lambda: tensor.max_reduce(a, axis=0).sum(), [a], rtol=1e-6)
        check_grads(lambda: tensor.max_reduce(a), [a], rtol=1e-6)

    def test_max_tie_routes_to_first(self):
        a = Tensor([3.0, 7.0, 7.0], requires_grad=True)
        tensor.backward(tensor.max_reduce(a))
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_indexing_gradients(self):
        rng = np.random.default_rng(6)
        a = leaf(rng, 4, 3)
        check_grads(lambda: a[1:3].sum(), [a], rtol=1e-6)
        check_grads(lambda: (a[2] ** 2.0).sum(), [a], rtol=1e-6)

    def test_basic_index_gradient_is_placed(self):
        """Ints and slices select each cell once: the gradient lands on
        exactly the selected cells, zero elsewhere."""
        rng = np.random.default_rng(8)
        a = leaf(rng, 4, 5)
        g = rng.normal(size=(2, 5))
        tensor.backward((a[1:3] * Tensor(g)).sum() + a[0, 2:4].sum() + a[(3, slice(None))][4])
        want = np.zeros((4, 5))
        want[1:3] = g
        want[0, 2:4] = 1.0
        want[3, 4] = 1.0
        np.testing.assert_array_equal(a.grad, want)

    def test_duplicate_fancy_index_accumulates(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tensor.backward(a[np.array([0, 0, 2])].sum())
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0])

    def test_concat_stack_gradients(self):
        rng = np.random.default_rng(7)
        a = leaf(rng, 2, 3)
        b = leaf(rng, 4, 3)
        w = Tensor(rng.normal(size=(6, 3)))
        check_grads(lambda: (tensor.concat([a, b], axis=0) * w).sum(), [a, b], rtol=1e-6)
        c = leaf(rng, 2, 3)
        check_grads(lambda: (tensor.stack([a, c], axis=1) ** 2.0).sum(), [a, c], rtol=1e-6)

    def test_transpose_reshape_gradients(self):
        rng = np.random.default_rng(8)
        a = leaf(rng, 2, 3, 4)
        w = Tensor(rng.normal(size=(4, 3, 2)))
        check_grads(lambda: (tensor.transpose(a) * w).sum(), [a], rtol=1e-6)
        check_grads(lambda: (tensor.swapaxes(a, 0, 2) * w).sum(), [a], rtol=1e-6)
        check_grads(lambda: (a.reshape(6, 4) ** 2.0).sum(), [a], rtol=1e-6)

    def test_embedding_lookup_and_gradient(self):
        table = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        ids = np.array([[2, 0], [0, 1]])
        out = tensor.embedding(table, ids)
        np.testing.assert_allclose(out.data[0, 0], [5.0, 6.0])
        tensor.backward(out.sum())
        np.testing.assert_allclose(table.grad, [[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])


    def test_embedding_and_take_agree_bitwise_on_duplicate_ids(self):
        """Equal bits forward and backward, and the table gradient equals a
        scatter-add over the flattened ids."""
        ids = np.array([[3, 1, 3], [0, 3, 1]])
        g = np.random.default_rng(10).normal(size=(2, 3, 4))
        results = []
        for op in (tensor.embedding, tensor.take):
            table = leaf(np.random.default_rng(11), 5, 4)
            out = op(table, ids)
            tensor.backward((out * Tensor(g)).sum())
            results.append((out.data, table.grad))
        (emb_out, emb_grad), (take_out, take_grad) = results
        flat = np.zeros((5, 4))
        np.add.at(flat, ids.reshape(-1), g.reshape(-1, 4))
        assert np.array_equal(emb_out, take_out)
        assert np.array_equal(emb_grad, take_grad)
        assert np.array_equal(emb_grad, flat)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (2, 1, 3, 2)])
    def test_transpose_matches_numpy(self, shape):
        rng = np.random.default_rng(12)
        a = leaf(rng, *shape)
        w = Tensor(rng.normal(size=shape[::-1]))
        assert np.array_equal(tensor.transpose(a).data, np.transpose(a.data))
        assert np.array_equal(a.T.data, np.transpose(a.data))
        check_grads(lambda: (tensor.transpose(a) * w).sum(), [a], rtol=1e-6)

    def test_stack_negative_axis(self):
        rng = np.random.default_rng(13)
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 3)
        for axis in (-1, -2, -3):
            got = tensor.stack([a, b], axis=axis).data
            assert np.array_equal(got, np.stack([a.data, b.data], axis=axis))
        w = Tensor(rng.normal(size=(2, 3, 2)))
        check_grads(lambda: (tensor.stack([a, b], axis=-1) * w).sum(), [a, b], rtol=1e-6)


class TestActivations:
    def test_relu_value_and_gradient(self):
        a = Tensor([-2.0, -0.5, 0.5, 3.0], requires_grad=True)
        out = tensor.relu(a)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.5, 3.0])
        check_grads(lambda: (tensor.relu(a) * Tensor([1.0, 2.0, 3.0, 4.0])).sum(), [a], rtol=1e-6)

    def test_exp_log_sqrt_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)), requires_grad=True)
        check_grads(lambda: tensor.exp(a).sum(), [a], rtol=1e-6)
        check_grads(lambda: tensor.log(a).sum(), [a], rtol=1e-6)
        check_grads(lambda: tensor.sqrt(a).sum(), [a], rtol=1e-6)


class TestSoftmax:
    def test_symmetric_pair(self):
        out = tensor.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_saturation(self):
        out = tensor.softmax(Tensor([100.0, 0.0]))
        assert abs(out.data[0] - 1.0) < 1e-30
        assert out.data[1] < 1e-30

    def test_mask_gives_exact_zeros(self):
        out = tensor.softmax(Tensor([[5.0, 1.0, 2.0]]), mask=np.array([[True, False, True]]))
        assert out.data[0, 1] == 0.0
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(InvalidMaskError):
            tensor.softmax(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_gradient_random_row(self):
        rng = np.random.default_rng(10)
        a = leaf(rng, 6)
        w = Tensor(rng.normal(size=6))
        check_grads(lambda: (tensor.softmax(a) * w).sum(), [a], rtol=1e-6)

    def test_gradient_with_mask(self):
        rng = np.random.default_rng(11)
        a = leaf(rng, 2, 5)
        mask = np.array([[True, True, False, True, False], [True, True, True, True, True]])
        w = Tensor(rng.normal(size=(2, 5)))
        check_grads(lambda: (tensor.softmax(a, mask=mask) * w).sum(), [a], rtol=1e-6)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = tensor.softmax(Tensor(np.array(row)))
        assert abs(out.data.sum() - 1.0) <= 1e-12


# ---- the compositions that linear, attention and masked_mean replaced -------


def composed_linear(x, w, b):
    return tensor.matmul(x, tensor.transpose(w)) + b


def composed_attention(x, weights, biases, heads, mask=None):
    batch, length, dim = x.shape
    head_dim = dim // heads

    def split_heads(y):
        return tensor.swapaxes(tensor.reshape(y, (batch, length, heads, head_dim)), 1, 2)

    qh, kh, vh = (split_heads(composed_linear(x, w, b)) for w, b in zip(weights[:3], biases[:3]))
    scores = tensor.matmul(qh, tensor.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(head_dim))
    key_mask = None if mask is None else mask[:, None, None, :]
    mixed = tensor.matmul(tensor.softmax(scores, mask=key_mask, axis=-1), vh)
    merged = tensor.reshape(tensor.swapaxes(mixed, 1, 2), (batch, length, dim))
    return composed_linear(merged, weights[3], biases[3])


def composed_masked_mean(x, mask):
    weights = mask.astype(np.float64)[..., None]
    counts = np.maximum(mask.sum(axis=-1), 1).astype(np.float64)
    summed = (x * Tensor(weights)).sum(axis=mask.ndim - 1)
    return summed * Tensor((1.0 / counts)[..., None])


def composed_feed_forward(x, w1, b1, w2, b2):
    return tensor.linear(tensor.relu(tensor.linear(x, w1, b1)), w2, b2)


def composed_segment_tokens(x, gain, bias, segments, index, seg_gain, seg_bias):
    tokens = tensor.layernorm(x, gain, bias)
    return (tokens + tensor.layernorm(segments[index], seg_gain, seg_bias)) * 0.5


def attention_node(x, weights, biases, heads, mask=None):
    """Attention alone as one node, from attention_sublayer's forward pass."""
    out_data, backward_fn = tensor._attention(x, weights, biases, heads, mask)
    return tensor._make(out_data, (x, *weights, *biases), backward_fn, "attention")


def feed_forward_node(x, w1, b1, w2, b2):
    """The feed-forward alone as one node, from feed_forward_sublayer's
    forward pass."""
    out_data, backward_fn = tensor._feed_forward(x, w1, b1, w2, b2)
    return tensor._make(out_data, (x, w1, b1, w2, b2), backward_fn, "feed_forward")


def feed_forward_leaves(rng, shape, hidden, out):
    dim = shape[-1]
    return [leaf(rng, *shape), leaf(rng, hidden, dim), leaf(rng, hidden),
            leaf(rng, out, hidden), leaf(rng, out)]


def feed_forward_sublayer_leaves(rng, shape, hidden):
    """x, w1, b1, w2, b2, gain and bias of a sublayer as wide as x."""
    dim = shape[-1]
    return feed_forward_leaves(rng, shape, hidden, dim) + [leaf(rng, dim), leaf(rng, dim)]


def segment_tokens_leaves(rng, shape):
    """Two sides of ``shape``, each (x, gain, bias, seg_gain, seg_bias), and
    a two-row segment table."""
    dim = shape[-1]
    sides = [(leaf(rng, *shape), leaf(rng, dim), leaf(rng, dim), leaf(rng, dim), leaf(rng, dim))
             for _ in range(2)]
    return sides, leaf(rng, 2, dim)


def composed_image_input(sides, segments):
    """The three nodes that segment_tokens replaced: each side's tokens,
    concatenated."""
    return tensor.concat([composed_segment_tokens(x, gain, bias, segments, i, seg_gain, seg_bias)
                          for i, (x, gain, bias, seg_gain, seg_bias) in enumerate(sides)], axis=-2)


def attention_leaves(rng, batch, length, dim):
    x = leaf(rng, batch, length, dim)
    weights = [leaf(rng, dim, dim) for _ in range(4)]
    biases = [leaf(rng, dim) for _ in range(4)]
    return x, weights, biases


def unit_norm(dim):
    """A layer norm's gain and bias that leave the normalized rows as they are."""
    return Tensor(np.ones(dim)), Tensor(np.zeros(dim))


RAGGED = np.array([[True, True, False, True], [True, False, False, False], [True] * 4])


class TestFusedOps:
    """linear, attention (through attention_sublayer) and masked_mean: finite
    differences, parity with the primitive compositions they replaced, and
    their edge cases."""

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear_gradients(self, shape):
        rng = np.random.default_rng(30)
        x, w, b = leaf(rng, *shape), leaf(rng, 3, 4), leaf(rng, 3)
        up = Tensor(rng.normal(size=shape[:-1] + (3,)))
        check_grads(lambda: (tensor.linear(x, w, b) * up).sum(), [x, w, b], rtol=1e-6)

    @pytest.mark.parametrize("mask", [RAGGED, np.ones((3, 4), bool), None])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_gradients(self, mask, heads):
        rng = np.random.default_rng(31)
        x, weights, biases = attention_leaves(rng, 3, 4, 4)
        gain, bias = leaf(rng, 4), leaf(rng, 4)
        up = Tensor(rng.normal(size=(3, 4, 4)))

        def build():
            return (tensor.attention_sublayer(x, weights, biases, heads, gain, bias, mask=mask)
                    * up).sum()

        # The key bias cancels in the softmax, so its gradient is rounding
        # noise; every other leaf is checked against finite differences.
        check_grads(build, [x, *weights, *biases[:1], *biases[2:], gain, bias], rtol=1e-6)
        np.testing.assert_allclose(biases[1].grad, 0.0, atol=1e-12)

    def test_masked_mean_gradients_and_empty_slot(self):
        rng = np.random.default_rng(32)
        x = leaf(rng, 2, 3, 4, 5)
        mask = rng.uniform(size=(2, 3, 4)) < 0.6
        mask[0, 1] = False
        up = Tensor(rng.normal(size=(2, 3, 5)))
        check_grads(lambda: (tensor.masked_mean(x, mask) * up).sum(), [x], rtol=1e-6)
        np.testing.assert_array_equal(tensor.masked_mean(x, mask).data[0, 1], 0.0)
        np.testing.assert_array_equal(x.grad[0, 1], 0.0)

    @pytest.mark.parametrize("op", ["linear", "attention", "masked_mean"])
    def test_parity_with_composition(self, op):
        """Forward values and every gradient agree to 1e-12; attention is
        attention_sublayer against ``layernorm(x + composed_attention(x))``."""
        rng = np.random.default_rng(33)
        if op == "linear":
            x, w, b = leaf(rng, 3, 5, 6), leaf(rng, 4, 6), leaf(rng, 4)
            leaves = [x, w, b]
            fused, composed = tensor.linear(x, w, b), composed_linear(x, w, b)
        elif op == "attention":
            x, weights, biases = attention_leaves(rng, 3, 4, 6)
            gain, bias = leaf(rng, 6), leaf(rng, 6)
            leaves = [x, *weights, *biases, gain, bias]
            fused = tensor.attention_sublayer(x, weights, biases, 3, gain, bias, mask=RAGGED)
            composed = tensor.layernorm(x + composed_attention(x, weights, biases, 3, mask=RAGGED),
                                        gain, bias)
        else:
            x = leaf(rng, 3, 4, 6)
            mask = RAGGED.copy()
            mask[1] = False
            leaves = [x]
            fused, composed = tensor.masked_mean(x, mask), composed_masked_mean(x, mask)
        np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
        up = Tensor(rng.normal(size=fused.shape))
        grads = []
        for out in (fused, composed):
            for t in leaves:
                t.zero_grad()
            tensor.backward((out * up).sum())
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_attention_row_without_real_key_rejected(self):
        rng = np.random.default_rng(34)
        x, weights, biases = attention_leaves(rng, 3, 4, 4)
        mask = RAGGED.copy()
        mask[2] = False
        with pytest.raises(InvalidMaskError):
            tensor.attention_sublayer(x, weights, biases, 2, *unit_norm(4), mask=mask)

    def test_all_real_mask_matches_no_mask(self):
        rng = np.random.default_rng(35)
        x, weights, biases = attention_leaves(rng, 3, 4, 4)
        gain, bias = leaf(rng, 4), leaf(rng, 4)
        full = tensor.attention_sublayer(x, weights, biases, 2, gain, bias,
                                         mask=np.ones((3, 4), bool))
        np.testing.assert_array_equal(
            full.data, tensor.attention_sublayer(x, weights, biases, 2, gain, bias).data)

    def test_shape_errors(self):
        rng = np.random.default_rng(37)
        x, w, b = leaf(rng, 2, 3), leaf(rng, 4, 3), leaf(rng, 4)
        with pytest.raises(ShapeMismatchError, match="linear"):
            tensor.linear(x, w.T, b)
        with pytest.raises(ShapeMismatchError, match="linear"):
            tensor.linear(x, w, leaf(rng, 3))
        with pytest.raises(ShapeMismatchError):
            tensor.masked_mean(x, np.ones(3, bool))
        x, weights, biases = attention_leaves(rng, 3, 4, 4)
        with pytest.raises(ShapeMismatchError, match="attention mask"):
            tensor.attention_sublayer(x, weights, biases, 2, *unit_norm(4),
                                      mask=np.ones((3, 5), bool))

    @pytest.mark.parametrize("heads", [3, 0, -2])
    def test_attention_heads_must_divide_the_width(self, heads):
        """The op itself refuses heads that do not split the width evenly,
        before it projects or reshapes anything."""
        x, weights, biases = attention_leaves(np.random.default_rng(38), 1, 2, 4)
        with pytest.raises(ConfigError, match=f"width 4 is not divisible by {heads} heads"):
            tensor.attention_sublayer(x, weights, biases, heads, *unit_norm(4))


class TestTransformerFusedOps:
    """The two post-norm residual sublayers, their feed-forward, and
    segment_tokens: finite differences, and bit parity with the compositions
    they replace in the encoder, which stay here as their oracles."""

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_feed_forward_gradients(self, shape):
        """feed_forward_sublayer's forward pass alone, one node."""
        rng = np.random.default_rng(40)
        leaves = feed_forward_leaves(rng, shape, hidden=6, out=3)
        up = Tensor(rng.normal(size=shape[:-1] + (3,)))
        check_grads(lambda: (feed_forward_node(*leaves) * up).sum(), leaves, rtol=1e-6)

    @pytest.mark.parametrize("shape", [(6,), (4, 5), (2, 3, 5)])
    def test_residual_layernorm_gradients(self, shape):
        """The layer norm of a residual sum, as feed_forward_sublayer takes it:
        every leaf, x through both the sum and the feed-forward."""
        rng = np.random.default_rng(41)
        leaves = feed_forward_sublayer_leaves(rng, shape, hidden=7)
        up = Tensor(rng.normal(size=shape))
        check_grads(lambda: (tensor.feed_forward_sublayer(*leaves) * up).sum(),
                    leaves, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("shape", [(3, 6), (4, 5), (2, 3, 5)])
    def test_segment_tokens_gradients(self, shape):
        """Every leaf of both sides, and both rows of the segment table."""
        rng = np.random.default_rng(45)
        sides, segments = segment_tokens_leaves(rng, shape)
        up = Tensor(rng.normal(size=shape[:-2] + (2 * shape[-2], shape[-1])))
        check_grads(lambda: (tensor.segment_tokens(sides, segments) * up).sum(),
                    [t for side in sides for t in side] + [segments], rtol=1e-5, atol=1e-6)
        assert (segments.grad != 0.0).all()

    @pytest.mark.parametrize("shape", [(7, 6), (3, 5, 6)])
    @pytest.mark.parametrize("op", ["feed_forward", "residual_layernorm", "segment_tokens"])
    def test_bit_parity_with_composition(self, op, shape):
        """One node, and the forward values and every gradient equal the
        composition's bit for bit; some hidden units are off, some on.
        ``feed_forward`` is feed_forward_sublayer against
        ``layernorm(x + composed_feed_forward(x))``, ``residual_layernorm``
        against ``layernorm(x + feed_forward_node(x))``, and segment_tokens is
        set against each side's composed tokens, concatenated."""
        rng = np.random.default_rng(42)
        if op == "segment_tokens":
            sides, segments = segment_tokens_leaves(rng, shape)
            leaves = [t for side in sides for t in side] + [segments]
            fused, composed = (tensor.segment_tokens(sides, segments),
                               composed_image_input(sides, segments))
        else:
            leaves = feed_forward_sublayer_leaves(rng, shape, hidden=24)
            x, gain, bias = leaves[0], *leaves[5:]
            feed_forward = composed_feed_forward if op == "feed_forward" else feed_forward_node
            fused = tensor.feed_forward_sublayer(*leaves)
            composed = tensor.layernorm(x + feed_forward(*leaves[:5]), gain, bias)
        if op != "segment_tokens":
            hidden = leaves[0].data @ leaves[1].data.T + leaves[2].data
            assert (hidden > 0).any() and (hidden < 0).any()
        assert all(p.node is None for p in fused.node.parents)
        np.testing.assert_array_equal(fused.data, composed.data)
        up = Tensor(rng.normal(size=fused.shape))
        grads = []
        for out in (fused, composed):
            for t in leaves:
                t.zero_grad()
            tensor.backward((out * up).sum())
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mask", [None, RAGGED], ids=["no-mask", "ragged"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_sublayer_bit_parity(self, mask, heads):
        """attention_sublayer is one node whose output and every gradient equal
        ``layernorm(x + attention_node(x))`` bit for bit."""
        rng = np.random.default_rng(46)
        x, weights, biases = attention_leaves(rng, 3, 4, 6)
        gain, bias = leaf(rng, 6), leaf(rng, 6)
        leaves = [x, *weights, *biases, gain, bias]
        fused = tensor.attention_sublayer(x, weights, biases, heads, gain, bias, mask=mask)
        composed = tensor.layernorm(x + attention_node(x, weights, biases, heads, mask=mask),
                                    gain, bias)
        assert all(p.node is None for p in fused.node.parents)
        np.testing.assert_array_equal(fused.data, composed.data)
        up = Tensor(rng.normal(size=fused.shape))
        grads = []
        for out in (fused, composed):
            for t in leaves:
                t.zero_grad()
            tensor.backward((out * up).sum())
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_same_tensor_as_input_and_residual(self):
        """x is both the attention's input and the residual: the sublayer sums
        both gradient paths into x, and every other leaf's gradient holds,
        as finite differences see them."""
        rng = np.random.default_rng(43)
        x, weights, biases = attention_leaves(rng, 2, 3, 4)
        gain, bias = leaf(rng, 4), leaf(rng, 4)
        up = Tensor(rng.normal(size=(2, 3, 4)))
        # As in test_attention_gradients, the key bias cancels in the softmax.
        check_grads(
            lambda: (tensor.attention_sublayer(x, weights, biases, 2, gain, bias, mask=RAGGED[:2, :3])
                     * up).sum(),
            [x, *weights, biases[0], *biases[2:], gain, bias], rtol=1e-5, atol=1e-6,
        )

    def test_attention_backward_in_chunks_keeps_the_bits(self, monkeypatch):
        """Scores of one image per chunk, or of all at once: the same gradients."""
        rng = np.random.default_rng(47)
        x, weights, biases = attention_leaves(rng, 5, 4, 6)
        gain, bias = leaf(rng, 6), leaf(rng, 6)
        leaves = [x, *weights, *biases, gain, bias]
        up = Tensor(rng.normal(size=(5, 4, 6)))
        grads = []
        for chunk in (1, 2**30):
            monkeypatch.setattr(tensor, "SOFTMAX_CHUNK_BYTES", chunk)
            for t in leaves:
                t.zero_grad()
            out = tensor.attention_sublayer(x, weights, biases, 3, gain, bias, mask=None)
            tensor.backward((out * up).sum())
            grads.append([t.grad for t in leaves])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
    def test_no_grad_frees_the_sublayer_state_before_the_norm(self, monkeypatch, grad):
        """Without a graph, the attention's probabilities and projections and
        the feed-forward's hidden activation are freed before the norm runs:
        what is allocated when it starts is less than one hidden activation.
        With a graph, the backward keeps them, and more is allocated."""
        rng = np.random.default_rng(48)
        x, weights, biases = attention_leaves(rng, 8, 24, 16)
        gain, bias = leaf(rng, 16), leaf(rng, 16)
        w1, b1, w2, b2 = feed_forward_leaves(rng, (16,), hidden=64, out=16)[1:]
        hidden_bytes = 8 * 24 * 64 * 8
        layernorm, allocated = tensor._layernorm, []

        def spy(*args, **kwargs):
            allocated.append(tracemalloc.get_traced_memory()[0] - start)
            return layernorm(*args, **kwargs)

        monkeypatch.setattr(tensor, "_layernorm", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with tensor.no_grad() if not grad else contextlib.nullcontext():
                tensor.attention_sublayer(x, weights, biases, 4, gain, bias)
                tensor.feed_forward_sublayer(x, w1, b1, w2, b2, gain, bias)
        finally:
            tracemalloc.stop()
        assert len(allocated) == 2
        assert all((size > hidden_bytes) == grad for size in allocated), allocated

    @pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
    def test_segment_tokens_frees_each_side_before_the_next(self, monkeypatch, grad):
        """Without a graph, the first side's normalized tokens are freed
        before the second side's norm starts: what is allocated then is the
        output and less than half a side more.  With a graph, the backward
        keeps them, and a whole side more is allocated."""
        shape = (8, 24, 16)
        sides, segments = segment_tokens_leaves(np.random.default_rng(49), shape)
        side_bytes = 8 * np.prod(shape)
        layernorm, allocated = tensor._layernorm, []

        def spy(x, *args, **kwargs):
            if x.shape == shape:
                allocated.append(tracemalloc.get_traced_memory()[0] - start)
            return layernorm(x, *args, **kwargs)

        monkeypatch.setattr(tensor, "_layernorm", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with tensor.no_grad() if not grad else contextlib.nullcontext():
                tensor.segment_tokens(sides, segments)
        finally:
            tracemalloc.stop()
        assert len(allocated) == 2
        assert (allocated[1] - 2 * side_bytes > side_bytes / 2) == grad, allocated

    def test_segment_tokens_holds_less_than_the_composition(self):
        """After the forward, the one node holds less than the three-node
        composition it replaced, which keeps each side's tokens beside their
        concatenation."""
        sides, segments = segment_tokens_leaves(np.random.default_rng(50), (8, 24, 16))

        def held(build):
            tracemalloc.start()
            try:
                out = build(sides, segments)
                return tracemalloc.get_traced_memory()[0], out.shape
            finally:
                tracemalloc.stop()

        fused, composed = held(tensor.segment_tokens), held(composed_image_input)
        assert fused[1] == composed[1] and fused[0] < composed[0], (fused, composed)

    @pytest.mark.parametrize("case", ["unequal-sides", "too-few-rows", "table-width",
                                      "no-token-axis", "no-sides"])
    def test_segment_tokens_refuses_bad_input(self, case):
        """Sides of unequal shape, a segment table with fewer rows than sides
        (once a raw IndexError) or of another width, sides without a token
        axis and no sides at all raise ShapeMismatchError naming the op."""
        rng = np.random.default_rng(51)
        sides, segments = segment_tokens_leaves(rng, (3, 4, 5))
        if case == "unequal-sides":
            sides[1] = (leaf(rng, 3, 2, 5), *sides[1][1:])
        elif case == "too-few-rows":
            segments = leaf(rng, 1, 5)
        elif case == "table-width":
            segments = leaf(rng, 2, 4)
        elif case == "no-token-axis":
            sides = [(leaf(rng, 5), *side[1:]) for side in sides]
        else:
            sides = []
        with pytest.raises(ShapeMismatchError, match="^segment_tokens needs"):
            tensor.segment_tokens(sides, segments)

    def test_shape_errors(self):
        rng = np.random.default_rng(44)
        x, w1, b1, w2, b2 = feed_forward_leaves(rng, (2, 3), hidden=5, out=4)
        gain, bias = leaf(rng, 3), leaf(rng, 3)
        for args in ((x, w1.T, b1, w2, b2), (x, w1, b2, w2, b2), (x, w1, b1, w2.T, b2),
                     (x, w1, b1, w2, b1)):
            with pytest.raises(ShapeMismatchError, match="feed_forward needs"):
                tensor.feed_forward_sublayer(*args, gain, bias)
        with pytest.raises(ShapeMismatchError, match="residual"):
            tensor.feed_forward_sublayer(x, w1, b1, w2, b2, gain, bias)

    @pytest.mark.parametrize("x,offset", [
        ([[1e300, -1e300, 0.0], [1.0, 2.0, 3.0]], None),
        (np.full((2, 3), 1e308), np.full(3, 1e308)),
    ], ids=["variance", "residual-sum"])
    def test_overflowing_variance_is_non_finite_error(self, x, offset):
        """Finite rows whose variance, or whose residual sum in a sublayer,
        overflows raise NonFiniteError and no numpy warning."""
        gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="variance overflows"):
                if offset is None:
                    tensor.layernorm(x, gain, bias)
                else:  # feed_forward(x) is the offset, so x + feed_forward(x) overflows
                    zero = Tensor(np.zeros((3, 3)))
                    tensor.feed_forward_sublayer(x, zero, Tensor(np.zeros(3)), zero,
                                                 Tensor(offset), gain, bias)


class TestLayernorm:
    def test_constant_vector_collapses_to_bias(self):
        out = tensor.layernorm(
            Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0])

    def test_already_normalized_pair(self):
        out = tensor.layernorm(
            Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12
        )
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-9)

    def test_pre_affine_statistics(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(7, 9)) * 3.0 + 1.0)
        out = tensor.layernorm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)), eps=1e-12)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-9
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 4, 5)
        gain = Tensor(rng.normal(size=5), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)))
        check_grads(
            lambda: (tensor.layernorm(x, gain, bias) * w).sum(),
            [x, gain, bias],
            rtol=1e-5,
            atol=1e-6,
        )

    def test_affine_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            tensor.layernorm(Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3)))

    def test_matches_the_last_axis_formula(self):
        """Output and all three gradients agree with the formula written as
        last-axis means, on 1-D, 2-D and 3-D inputs."""

        def reference(x, gain, bias, g, eps=1e-5):
            mu = x.mean(axis=-1, keepdims=True)
            centered = x - mu
            inv = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)
            xhat = centered * inv
            lead = tuple(range(g.ndim - 1))
            dxhat = g * gain
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return xhat * gain + bias, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

        rng = np.random.default_rng(14)
        for shape in ((6,), (4, 6), (3, 5, 6)):
            x = Tensor(rng.normal(size=shape) * 2.0 + 0.5, requires_grad=True)
            gain = Tensor(rng.normal(size=6), requires_grad=True)
            bias = Tensor(rng.normal(size=6), requires_grad=True)
            g = rng.normal(size=shape)
            out = tensor.layernorm(x, gain, bias)
            tensor.backward((out * Tensor(g)).sum())
            want = reference(x.data, gain.data, bias.data, g)
            for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


class TestBackwardEngine:
    def test_sum_gives_ones(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        tensor.backward(p.sum())
        np.testing.assert_allclose(p.grad, np.ones((2, 3)))

    def test_zero_times_param_gives_zeros(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        tensor.backward((p * 0.0).sum())
        np.testing.assert_allclose(p.grad, [0.0, 0.0])

    def test_repeated_backward_accumulates(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        tensor.backward((p * 3.0).sum())
        tensor.backward((p * 3.0).sum())
        np.testing.assert_allclose(p.grad, [6.0, 6.0])

    def test_leaf_gradient_is_an_exact_private_sum(self):
        """A leaf read by three consumers gets the exact sum of their
        contributions in a writable array that shares memory neither with
        its data nor with any gradient a backward hook returned."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        hook_grads = []

        def recording(hook):
            def run(g):
                grads = hook(g)
                hook_grads.extend(grads)
                return grads

            return run

        consumers = [x.reshape(3, 2), x * 2.0, tensor.concat([x, Tensor(np.ones((1, 3)))])]
        for c in consumers:
            c.node.backward_fn = recording(c.node.backward_fn)
        tensor.backward(sum((c * float(i + 1)).sum() for i, c in enumerate(consumers)))
        assert np.array_equal(x.grad, np.full((2, 3), 1.0 + 4.0 + 3.0))
        assert x.grad.flags.writeable
        for other in [x.data] + [g for g in hook_grads if g is not None]:
            assert not np.shares_memory(x.grad, other)

        y = Tensor(np.ones((2, 3)), requires_grad=True)
        view = y.reshape(3, 2)
        view.node.backward_fn = recording(view.node.backward_fn)
        tensor.backward(view.sum())
        assert y.grad.flags.writeable
        assert not any(np.shares_memory(y.grad, g) for g in hook_grads[-1:])

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            tensor.backward(p * 1.0)

    def test_diamond_graph(self):
        """A value consumed twice contributes both path gradients."""
        p = Tensor(2.0, requires_grad=True)
        y = p * p + p * 3.0
        tensor.backward(y)
        np.testing.assert_allclose(p.grad, 7.0)

    def test_deep_chain_avoids_recursion_limit(self):
        p = Tensor(1.0, requires_grad=True)
        y = p
        for _ in range(5000):
            y = y + 1.0
        tensor.backward(y)
        np.testing.assert_allclose(p.grad, 1.0)

    def test_unused_parameter_keeps_no_grad(self):
        used = Tensor(1.0, requires_grad=True)
        unused = Tensor(1.0, requires_grad=True)
        tensor.backward(used * 2.0)
        assert unused.grad is None

    def test_no_grad_blocks_graph(self):
        p = Tensor([1.0], requires_grad=True)
        with tensor.no_grad():
            y = p * 2.0
        assert y.node is None and not y.requires_grad

    def test_no_grad_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with tensor.no_grad():
                raise RuntimeError("boom")
        assert tensor.is_grad_enabled()


def run_threads(*targets) -> None:
    """Run each target on a thread of its own, started bare (no context
    copy), and join them; the first error a target raised is raised here."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # raised again on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def builds_a_graph() -> bool:
    p = Tensor([1.0, 2.0], requires_grad=True)
    loss = (p * p).sum()
    if not loss.requires_grad:
        return False
    tensor.backward(loss)
    return np.array_equal(p.grad, [2.0, 4.0])


class TestGradModePerThread:
    """Grad mode is context state: no thread's no_grad reaches another."""

    def test_a_step_builds_its_graph_while_another_thread_is_in_no_grad(self):
        """A training step on one thread while another evaluates."""
        evaluating, stepped = threading.Event(), threading.Event()
        built = []

        def evaluate():
            with tensor.no_grad():
                evaluating.set()
                assert stepped.wait(10)
                assert not tensor.is_grad_enabled()

        def step():
            assert evaluating.wait(10)
            built.append(builds_a_graph())
            stepped.set()

        run_threads(evaluate, step)
        assert built == [True]

    def test_overlapping_no_grad_blocks_leave_grad_mode_on(self):
        """Thread a enters no_grad, then b; a leaves, then b."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

        def a():
            with tensor.no_grad():
                a_in.set()
                assert b_in.wait(10)
            a_out.set()

        def b():
            assert a_in.wait(10)
            with tensor.no_grad():
                b_in.set()
                assert a_out.wait(10)

        run_threads(a, b)
        assert tensor.is_grad_enabled() and builds_a_graph()
        later = []
        run_threads(lambda: later.append(tensor.is_grad_enabled() and builds_a_graph()))
        assert later == [True]

    def test_a_bare_thread_starts_with_grad_mode_on(self):
        """Started inside no_grad: a bare thread builds graphs; one run in a
        copy of the starter's context does not."""
        seen = []

        def record():
            seen.append((tensor.is_grad_enabled(), builds_a_graph()))

        with tensor.no_grad():
            run_threads(record)
            copied = contextvars.copy_context()
            run_threads(lambda: copied.run(record))
        assert seen == [(True, True), (False, False)]

    def test_threads_switching_every_microsecond_each_keep_their_own_mode(self):
        """Eight threads, more than this host's CPUs, half of them stepping
        in and out of no_grad: each sees only its own grad mode."""
        def worker(evaluating):
            for _ in range(200):
                with tensor.no_grad() if evaluating else contextlib.nullcontext():
                    p = Tensor(1.0, requires_grad=True)
                    assert tensor.is_grad_enabled() != evaluating
                    assert (p * 2.0).requires_grad != evaluating

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads(*(functools.partial(worker, i % 2 == 0) for i in range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert tensor.is_grad_enabled()


def reference_backward(loss: Tensor) -> None:
    """The engine before the one-pass walk, kept as its oracle: a
    depth-first topological sort, then the hooks in reverse order.  Writes
    leaf gradients as :func:`tensor.backward` does."""
    order, visited, stack = [], set(), [(loss, False)]
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
            stack.extend((p, False) for p in t.node.parents
                         if p.requires_grad and id(p) not in visited)
    local = {id(loss): np.ones(())}
    for t in reversed(order):
        g = local.pop(id(t), None)
        if g is None or t.node is None:
            continue
        for parent, pg in zip(t.node.parents, t.node.backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node is None:
                parent.grad = np.array(pg) if parent.grad is None else parent.grad + pg
            elif id(parent) in local:
                local[id(parent)] = local[id(parent)] + pg
            else:
                local[id(parent)] = np.array(pg)


def record_hooks(root: Tensor) -> list:
    """Wrap the hook of every node below ``root``; each call appends the
    node's tensor to the returned list."""
    calls, seen, todo = [], set(), [root]
    while todo:
        t = todo.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        todo.extend(t.node.parents)

        def run(g, t=t, hook=t.node.backward_fn):
            calls.append(t)
            return hook(g)

        t.node.backward_fn = run
    return calls


def random_dag(rng, nodes: int):
    """Leaves and the scalar loss of a random graph of (3, 3) ops over
    earlier values; ``hub`` feeds three ops besides the loss's own read."""
    leaves = [leaf(rng, 3, 3) for _ in range(3)]
    values = list(leaves)
    ops = (
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: (a @ b) * 0.3,
        lambda a, b: tensor.relu(a - b),
        lambda a, b: tensor.softmax(a),
    )
    for _ in range(nodes):
        a, b = (values[i] for i in rng.integers(len(values), size=2))
        values.append(ops[rng.integers(len(ops))](a, b))
    hub = values[len(values) // 2]
    values += [hub * 2.0, tensor.relu(hub), hub @ values[-1]]
    loss = sum((v * Tensor(rng.normal(size=(3, 3)))).sum() for v in values)
    return leaves, loss


class TestOnePassBackward:
    def test_each_hook_runs_once_after_all_its_consumers(self):
        """``a`` reaches the loss through paths of one, two and three ops,
        and ``a * a`` lists it twice."""
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        a = x * 2.0
        square = a * a
        shifted = tensor.relu(a) * 3.0
        loss = (square + shifted).sum() + a.sum()
        calls = record_hooks(loss)
        tensor.backward(loss)
        assert len(calls) == len({id(t) for t in calls}) == 8
        position = {id(t): i for i, t in enumerate(calls)}
        for t in calls:
            for parent in t.node.parents:
                if parent.node is not None:
                    assert position[id(parent)] > position[id(t)]
        np.testing.assert_array_equal(x.grad, 8.0 * x.data + 6.0 * (x.data > 0) + 2.0)

    def test_scalar_leaf_loss_gets_grad_one(self):
        p = Tensor(3.0, requires_grad=True)
        tensor.backward(p)
        assert p.grad.shape == () and p.grad == 1.0

    def test_acceptance_step_bit_identical_to_reference(self):
        from test_objective import TestTotalLoss

        grads = []
        for engine in (reference_backward, tensor.backward):
            _, loss, params = TestTotalLoss.acceptance_step()
            engine(loss)
            grads.append({name: p.grad for name, p in params.named_parameters().items()})
        assert grads[0].keys() == grads[1].keys()
        for name, want in grads[0].items():
            np.testing.assert_array_equal(grads[1][name], want, err_msg=name)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dag_matches_reference(self, seed):
        """Hooks run in another order than depth first, so a value with
        three or more consumers may add them in another order: 1e-12."""
        results = []
        for engine in (reference_backward, tensor.backward):
            leaves, loss = random_dag(np.random.default_rng(seed), 12)
            calls = record_hooks(loss)
            engine(loss)
            assert len(calls) == len({id(t) for t in calls})
            results.append([np.zeros((3, 3)) if p.grad is None else p.grad for p in leaves])
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def on_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def graph_nodes(root: Tensor) -> dict:
    """{id(tensor): (node, name, parents)} for every node below ``root``."""
    nodes, todo = {}, [root]
    while todo:
        t = todo.pop()
        if t.node is not None and id(t) not in nodes:
            nodes[id(t)] = (t.node, t.node.name, t.node.parents)
            todo.extend(t.node.parents)
    return nodes


class TestConsumedGraph:
    def test_backward_drops_every_hook_and_keeps_the_graph(self):
        """After backward no node keeps its hook; each keeps its name and
        parents, so a walk after backward counts the same nodes."""
        from test_objective import TestTotalLoss

        _, loss, _ = TestTotalLoss.acceptance_step()
        before = graph_nodes(loss)
        assert all(node.backward_fn is not None for node, _, _ in before.values())
        tensor.backward(loss)
        after = graph_nodes(loss)
        assert after.keys() == before.keys() and len(after) == 21
        for key, (node, name, parents) in before.items():
            assert node.backward_fn is None
            assert after[key] == (node, name, parents)

    def test_second_backward_raises_naming_the_op(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        y = p * 3.0
        loss = y.sum()
        tensor.backward(loss)
        np.testing.assert_array_equal(p.grad, [3.0, 3.0])
        with pytest.raises(ConsumedGraphError, match=r"^backward reached a 'sum' node that an "
                           r"earlier backward consumed; rebuild the graph to differentiate "
                           r"it again$"):
            tensor.backward(loss)
        # A new graph over a consumed one stops at the first consumed node.
        with pytest.raises(ConsumedGraphError, match="'mul' node"):
            tensor.backward((y * 2.0).sum())
        np.testing.assert_array_equal(p.grad, [3.0, 3.0])
        assert loss.grad == 1.0
        tensor.backward((p * 3.0).sum())  # a rebuilt graph differentiates again
        np.testing.assert_array_equal(p.grad, [6.0, 6.0])

    def test_hook_that_fails_partway_is_not_run_again(self):
        """A hook may have written over what it captured before it failed, so
        a later backward through its node raises instead of running it."""
        p = Tensor([1.0, 2.0], requires_grad=True)
        y = p * 3.0

        def fails(g):
            raise MemoryError("partway")

        y.node.backward_fn = fails
        with pytest.raises(MemoryError, match="partway"):
            tensor.backward(y.sum())
        assert y.node.backward_fn is None
        with pytest.raises(ConsumedGraphError, match="'mul' node"):
            tensor.backward((y * 2.0).sum())
        assert p.grad is None

    def test_backward_frees_what_the_hooks_held(self):
        """A transformer layer over 66 images of 72 tokens at width 64 (the
        image tower of the ``pipeline`` benchmark step): with the loss still
        referenced, the graph holds under half of what its forward kept."""
        rng = np.random.default_rng(0)
        params = nn.TransformerLayerParams(64)
        for t in params.named_parameters().values():
            t.data = rng.normal(scale=0.1, size=t.data.shape)
        x = leaf(rng, 66, 72, 64)
        weights = Tensor(rng.normal(size=x.shape))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = (nn.transformer_layer(x, params, heads=4) * weights).sum()
            forward = tracemalloc.get_traced_memory()[0] - start
            tensor.backward(loss)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert forward > 40e6
        assert held < forward / 2
        assert loss.node.parents and x.grad.shape == x.shape

    @pytest.mark.skipif(not on_glibc(), reason="the allocator is set on glibc only")
    def test_allocator_keeps_freed_pages_on_glibc(self):
        library = mock.Mock()
        with mock.patch("ctypes.CDLL", return_value=library) as cdll:
            tensor._keep_freed_pages()
        cdll.assert_called_once_with(None)
        assert library.mallopt.call_args_list == [
            mock.call(tensor.M_MMAP_THRESHOLD, 32 * 2**20),
            mock.call(tensor.M_TRIM_THRESHOLD, tensor.MAX_WORD_TABLE_BYTES),
            mock.call(tensor.M_ARENA_MAX, 1),
        ]


class TestRngStream:
    def test_same_seed_same_sequence(self):
        from doclink.rng import RngStream

        a = RngStream(123).normal(size=5)
        b = RngStream(123).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_named_children_are_deterministic_and_distinct(self):
        from doclink.rng import RngStream

        root = RngStream(7)
        one = root.child("batching").uniform(size=4)
        two = RngStream(7).child("batching").uniform(size=4)
        other = RngStream(7).child("dropout").uniform(size=4)
        np.testing.assert_array_equal(one, two)
        assert not np.array_equal(one, other)

    def test_state_round_trip(self):
        from doclink.rng import RngStream

        s = RngStream(99)
        s.normal(size=3)
        snapshot = s.state()
        ahead = s.normal(size=4)
        s2 = RngStream(99)
        s2.set_state(snapshot)
        np.testing.assert_array_equal(ahead, s2.normal(size=4))
