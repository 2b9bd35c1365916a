"""Attention and transformer-layer behavior checks."""

import tracemalloc

import numpy as np
import pytest

from doclink import tensor
from doclink.encoder import draw_parameters
from doclink.errors import ConfigError
from doclink.nn import (
    AttentionParams,
    TransformerLayerParams,
    multihead_attention,
    transformer_layer,
)
from doclink.rng import RngStream
from doclink.tensor import Tensor, linear

from test_objective import count_nodes
from test_tensor import RAGGED, central_diff


def make_attention(dim, seed=0):
    return drawn(AttentionParams(dim), seed)


def make_layer(dim, seed):
    return drawn(TransformerLayerParams(dim), seed)


def drawn(params, seed):
    draw_parameters(params, RngStream(seed))
    return params


def composed_layer(x, p, heads, mask=None):
    """The eight-node layer that ``transformer_layer`` replaced: attention,
    add, layernorm, linear, relu, linear, add, layernorm."""
    x = tensor.layernorm(x + multihead_attention(x, p.attn, heads, mask=mask),
                         p.ln_attn.gain, p.ln_attn.bias)
    hidden = tensor.relu(linear(x, p.ff_w1, p.ff_b1))
    return tensor.layernorm(x + linear(hidden, p.ff_w2, p.ff_b2), p.ln_ff.gain, p.ln_ff.bias)


def glorot(rng, fan_out, fan_in):
    """One Glorot-uniform (out, in) matrix from ``rng``: the oracle of the draw."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


class TestShapesAndDraw:
    def test_constructors_take_shapes_only(self):
        """Weights and biases start at zero and layer-norm gains at one;
        nothing is drawn until draw_parameters runs."""
        p = TransformerLayerParams(4)
        named = p.named_parameters()
        assert named["attn.wq"].shape == (4, 4) and named["ff_w1"].shape == (16, 4)
        for name, t in named.items():
            np.testing.assert_array_equal(t.data, 1.0 if name.endswith("gain") else 0.0)

    def test_draw_gives_the_same_values_for_the_same_seed(self):
        """The shared draw fills the matrices in checkpoint order from one
        stream, so a seed pins their values: wq, wk, wv, wo, then ff_w1 and
        ff_w2, each Glorot-uniform; vectors keep zeros and ones."""
        rng = RngStream(9)
        want = {name: glorot(rng, 6, 6) for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo")}
        want["ff_w1"], want["ff_w2"] = glorot(rng, 24, 6), glorot(rng, 6, 24)
        named = make_layer(6, seed=9).named_parameters()
        for name, t in named.items():
            if name in want:
                np.testing.assert_array_equal(t.data, want.pop(name))
            else:
                np.testing.assert_array_equal(t.data, 1.0 if name.endswith("gain") else 0.0)
        assert not want
        attention = make_attention(4, seed=3)
        rng = RngStream(3)
        for w in (attention.wq, attention.wk, attention.wv, attention.wo):
            np.testing.assert_array_equal(w.data, glorot(rng, 4, 4))


class TestMultiheadAttention:
    def test_single_token_passes_through_value_path(self):
        """With one token the attention weight is 1, so the output is just
        the value projection followed by the output projection."""
        dim = 4
        p = make_attention(dim)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, dim)))
        out = multihead_attention(x, p, heads=2)
        value = linear(x, p.wv, p.bv)
        expected = linear(value, p.wo, p.bo)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        dim, length = 6, 5
        p = make_attention(dim, seed=3)
        x = rng.normal(size=(2, length, dim))
        perm = rng.permutation(length)
        out = multihead_attention(Tensor(x), p, heads=3)
        out_perm = multihead_attention(Tensor(x[:, perm]), p, heads=3)
        np.testing.assert_allclose(out.data[:, perm], out_perm.data, atol=1e-12)

    def test_permutation_equivariance_with_mask(self):
        rng = np.random.default_rng(2)
        dim, length = 4, 6
        p = make_attention(dim, seed=4)
        x = rng.normal(size=(2, length, dim))
        mask = np.array([[True, True, False, True, False, True],
                         [True, False, True, True, True, False]])
        perm = rng.permutation(length)
        out = multihead_attention(Tensor(x), p, heads=2, mask=mask)
        out_perm = multihead_attention(Tensor(x[:, perm]), p, heads=2, mask=mask[:, perm])
        np.testing.assert_allclose(out.data[:, perm], out_perm.data, atol=1e-12)

    def test_masked_keys_have_no_influence(self):
        """Changing a masked key's features leaves unmasked outputs alone."""
        rng = np.random.default_rng(3)
        dim = 4
        p = make_attention(dim, seed=5)
        x = rng.normal(size=(2, 3, dim))
        mask = np.array([[True, True, False], [True, False, True]])
        base = multihead_attention(Tensor(x), p, heads=2, mask=mask)
        x2 = x.copy()
        x2[~mask] = 99.0
        bumped = multihead_attention(Tensor(x2), p, heads=2, mask=mask)
        np.testing.assert_allclose(base.data[mask], bumped.data[mask], atol=1e-12)

    def test_gradients_tiny_instance(self):
        """B=2, L=3, d=4, heads=2 gradient check against finite differences."""
        rng = np.random.default_rng(4)
        p = make_attention(4, seed=6)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 4)))
        mask = np.array([[True, True, True], [True, False, True]])
        leaves = [x, p.wq, p.wk, p.wv, p.wo, p.bq, p.bk, p.bv, p.bo]

        def build():
            return (multihead_attention(x, p, heads=2, mask=mask) * w).sum()

        loss = build()
        tensor.backward(loss)
        for leaf in leaves:
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-4, atol=1e-7)

    def test_batched_matches_loop(self):
        """Each batch row attends only within itself: the batched output
        equals one call per row."""
        rng = np.random.default_rng(5)
        dim = 4
        p = make_attention(dim, seed=7)
        xs = rng.normal(size=(3, 5, dim))
        mask = rng.uniform(size=(3, 5)) < 0.8
        mask[:, 0] = True
        batched = multihead_attention(Tensor(xs), p, heads=2, mask=mask)
        for b in range(3):
            single = multihead_attention(Tensor(xs[b:b + 1]), p, heads=2, mask=mask[b:b + 1])
            np.testing.assert_allclose(batched.data[b], single.data[0], atol=1e-12)

    def test_indivisible_heads_rejected(self):
        p = make_attention(4, seed=8)
        x = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ConfigError):
            multihead_attention(x, p, heads=3)


class TestTransformerLayer:
    def test_shape_preserved_and_deterministic(self):
        rng = np.random.default_rng(6)
        p = make_layer(6, seed=9)
        x = Tensor(rng.normal(size=(2, 4, 6)))
        one = transformer_layer(x, p, heads=2)
        two = transformer_layer(x, p, heads=2)
        assert one.shape == (2, 4, 6)
        np.testing.assert_array_equal(one.data, two.data)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        p = make_layer(4, seed=10)
        x = rng.normal(size=(1, 5, 4))
        perm = rng.permutation(5)
        out = transformer_layer(Tensor(x), p, heads=2)
        out_perm = transformer_layer(Tensor(x[:, perm]), p, heads=2)
        np.testing.assert_allclose(out.data[:, perm], out_perm.data, atol=1e-10)

    def test_gradients_through_layer(self):
        rng = np.random.default_rng(8)
        p = make_layer(4, seed=11)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 3, 4)))
        leaves = [x, p.ff_w1, p.ff_b2, p.ln_attn.gain, p.ln_ff.bias, p.attn.wq]

        def build():
            return (transformer_layer(x, p, heads=2) * w).sum()

        tensor.backward(build())
        for leaf in leaves:
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-4, atol=1e-7)

    def test_named_parameters_unique_and_complete(self):
        p = make_layer(4, seed=12)
        names = list(p.named_parameters("layer0."))
        assert all(name.startswith("layer0.") for name in names)
        assert len(names) == len(set(names))
        assert len(names) == 8 + 2 + 4 + 2  # attention, ln_attn, ffn, ln_ff


class TestFusedLayer:
    """``transformer_layer`` against :func:`composed_layer`, its oracle."""

    def test_four_nodes_instead_of_eight(self):
        p = make_layer(4, seed=13)
        x = Tensor(np.random.default_rng(14).normal(size=(2, 3, 4)), requires_grad=True)
        assert count_nodes(transformer_layer(x, p, heads=2)) == 4
        assert count_nodes(composed_layer(x, p, heads=2)) == 8

    @pytest.mark.parametrize("mask", [None, RAGGED], ids=["no-mask", "ragged"])
    def test_bit_parity_with_the_eight_node_layer(self, mask):
        """The output and the gradients of the input and of every parameter
        equal the composed layer's bit for bit."""
        rng = np.random.default_rng(15)
        p = make_layer(6, seed=16)
        x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
        up = Tensor(rng.normal(size=(3, 4, 6)))
        leaves = [x, *p.named_parameters().values()]
        results = []
        for layer in (transformer_layer, composed_layer):
            for t in leaves:
                t.zero_grad()
            out = layer(x, p, 3, mask=mask)
            tensor.backward((out * up).sum())
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_peak_memory_below_the_eight_node_layer(self):
        """tracemalloc's peak over one forward and backward pass at a
        moderate shape: the fused layer holds less than the composed one."""
        data = np.random.default_rng(17).normal(size=(16, 24, 32))
        p = make_layer(32, seed=18)

        def peak(layer):
            x = Tensor(data.copy(), requires_grad=True)
            p.zero_grads()
            tracemalloc.start()
            try:
                tensor.backward(layer(x, p, 4).sum())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fused, composed = peak(transformer_layer), peak(composed_layer)
        assert fused < composed, (fused, composed)
