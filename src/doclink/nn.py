"""Attention and transformer building blocks on top of the tensor core.

Layers follow the post-layer-norm residual arrangement with a 4x-wide ReLU
feed-forward sublayer.  Weights are stored (out_dim, in_dim) so a projection
reads ``x @ W.T + b``.  Inputs are batches of shape (B, L, d), and
attention is self-attention only.  Masks are key-padding masks of shape
(B, L): boolean, True where a position is real.  Each sublayer with its
post-norm residual sum is one op of the tensor core,
``attention_sublayer`` or ``feed_forward_sublayer``, so a layer adds two
graph nodes.

Parameter containers subclass :class:`Params`: their parameters are the
tensors their constructors assign, named by attribute, in that order.  A
constructor takes shapes only and makes zero tensors (unit layer-norm
gains); :func:`doclink.encoder.draw_parameters` draws fresh values.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, attention_sublayer, feed_forward_sublayer


def zeros(*shape: int) -> Tensor:
    """A learnable tensor of zeros; numpy maps a large one lazily."""
    return Tensor(np.zeros(shape), requires_grad=True)


class Params:
    """Learnable tensors named by attribute: Tensor attributes are parameters,
    ``Params`` attributes and lists of them add theirs under dotted names
    (``sent_layers.0.attn.wq``), and other attributes, such as a config, are not."""

    def named_parameters(self, prefix: str = "") -> dict:
        """Name -> tensor, in attribute assignment order."""
        named = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                named[prefix + attr] = value
            elif isinstance(value, Params):
                named.update(value.named_parameters(f"{prefix}{attr}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    named.update(item.named_parameters(f"{prefix}{attr}.{i}."))
        return named

    def zero_grads(self) -> None:
        for t in self.named_parameters().values():
            t.grad = None


class LayerNormParams(Params):
    """Learned affine of one named layer norm."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = zeros(dim)


class AttentionParams(Params):
    def __init__(self, dim: int):
        self.wq = zeros(dim, dim)
        self.wk = zeros(dim, dim)
        self.wv = zeros(dim, dim)
        self.wo = zeros(dim, dim)
        self.bq = zeros(dim)
        self.bk = zeros(dim)
        self.bv = zeros(dim)
        self.bo = zeros(dim)


class TransformerLayerParams(Params):
    """Self-attention sublayer + feed-forward sublayer, each post-normed."""

    def __init__(self, dim: int):
        self.attn = AttentionParams(dim)
        self.ln_attn = LayerNormParams(dim)
        self.ff_w1 = zeros(4 * dim, dim)
        self.ff_b1 = zeros(4 * dim)
        self.ff_w2 = zeros(dim, 4 * dim)
        self.ff_b2 = zeros(dim)
        self.ln_ff = LayerNormParams(dim)


def transformer_layer(x: Tensor, params: TransformerLayerParams, heads: int, mask=None) -> Tensor:
    """One encoder layer over (B, L, d): post-norm residual attention, then
    post-norm FFN, one node each."""
    p, a = params, params.attn
    x = attention_sublayer(x, (a.wq, a.wk, a.wv, a.wo), (a.bq, a.bk, a.bv, a.bo), heads,
                           p.ln_attn.gain, p.ln_attn.bias, mask=mask)
    return feed_forward_sublayer(x, p.ff_w1, p.ff_b1, p.ff_w2, p.ff_b2,
                                 p.ln_ff.gain, p.ln_ff.bias)
