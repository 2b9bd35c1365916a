"""Encoder behavior: pooling, sharing, permutation symmetry, gradients,
and the one check that a corpus fits the model."""

import itertools
import os
import re
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doclink import tensor
from doclink.corpus import Corpus, Document, ImageRecord, SynthConfig, generate_synthetic
from doclink.diagnostics import bias_report
import doclink.encoder
from doclink.encoder import (
    MAX_WORD_TABLE_BYTES,
    ModelConfig,
    ModelParams,
    DOCS_PER_PASS,
    Representations,
    batch_representations,
    check_fit,
    encode_images,
    encode_sentences,
    init_params,
    similarity_matrix,
    split_representations,
)
from doclink.errors import (
    ConfigError,
    CorpusValidationError,
    DegenerateEmbeddingError,
    DoclinkError,
    MissingGoldEdgesError,
    NonFiniteError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
)
from doclink.evalmetrics import evaluate
from doclink.nn import transformer_layer
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.tensor import Tensor, linear, pad
from doclink.trainer import TrainConfig, train

from test_tensor import central_diff


def tiny_model(vocab=30, obj_dim=5, embed=8, heads=2, word_dim=6, max_len=12):
    config = ModelConfig(
        vocab_size=vocab,
        obj_dim=obj_dim,
        embed_dim=embed,
        sentence_layers=1,
        image_layers=1,
        heads=heads,
        word_dim=word_dim,
        max_sentence_len=max_len,
    )
    return config, init_params(config, RngStream(42))


def make_image(rng, obj_dim=5, mu=2, vocab=30, concept_len=2):
    return ImageRecord(
        objects=rng.normal(size=(mu, obj_dim)),
        concepts=[[int(t) for t in rng.integers(0, vocab, size=concept_len)] for _ in range(mu)],
    )


# ---- the hand-written padding that pad replaced, kept as oracles ------------


def padded_sentences(sentences):
    lengths = np.array([len(tokens) for tokens in sentences])
    length = lengths.max()
    mask = np.arange(length) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = np.concatenate(sentences)
    return ids, mask


def padded_objects(images):
    counts = np.array([img.objects.shape[0] for img in images])
    obj_mask = np.arange(counts.max()) < counts[:, None]
    feats = np.zeros(obj_mask.shape + images[0].objects.shape[1:])
    feats[obj_mask] = np.concatenate([img.objects for img in images])
    return feats, obj_mask


def padded_concepts(images):
    counts = np.array([img.objects.shape[0] for img in images])
    obj_mask = np.arange(counts.max()) < counts[:, None]
    concepts = [c for img in images for c in img.concepts]
    concept_lens = np.zeros(obj_mask.shape, dtype=np.int64)
    concept_lens[obj_mask] = [len(c) for c in concepts]
    concept_mask = np.arange(concept_lens.max()) < concept_lens[..., None]
    concept_ids = np.zeros(concept_mask.shape, dtype=np.int64)
    concept_ids[concept_mask] = np.concatenate(concepts)
    return concept_ids, concept_mask


def padded_index(groups: list, fill: int):
    """The objective's block index: one row per index group, filled out with
    ``fill`` to the longest, and the group sizes."""
    sizes = np.array([len(group) for group in groups])
    out = np.full((len(groups), sizes.max()), fill)
    out[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(groups)
    return out, sizes


def assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w, strict=True)


RAGGED = st.lists(st.lists(st.integers(0, 2**40), max_size=6), min_size=1, max_size=6)


class TestPad:
    """pad against the padding it replaced: values, masks and dtypes equal."""

    @given(RAGGED)
    @settings(max_examples=60, deadline=None)
    def test_ragged_lists_match_the_sentence_padding(self, pieces):
        """Empty pieces included: each gives an all-False mask row."""
        ids, mask = pad(pieces, np.int64)
        assert_same((ids, mask), padded_sentences(pieces))
        assert not mask[[len(p) == 0 for p in pieces]].any()

    @given(RAGGED, st.integers(-3, 50))
    @settings(max_examples=60, deadline=None)
    def test_fill_sentinel_matches_the_block_index(self, pieces, fill):
        groups = [np.array(p, dtype=np.int64) for p in pieces]
        index, mask = pad(groups, np.int64, fill=fill)
        want, sizes = padded_index(groups, fill)
        assert_same((index, mask.sum(axis=1)), (want, sizes))

    @pytest.mark.parametrize("counts", [(2, 4, 1), (3,), (2, 0, 3)])
    def test_trailing_dimensions_match_the_object_padding(self, counts):
        rng = np.random.default_rng(sum(counts))
        images = [ImageRecord(objects=rng.normal(size=(n, 5)), concepts=[]) for n in counts]
        feats, obj_mask = pad([img.objects for img in images])
        assert_same((feats, obj_mask), padded_objects(images))

    def test_encode_images_pads_concepts_as_before(self, monkeypatch):
        """The (images, objects, tokens) concept ids and mask encode_images
        builds with pad equal the old per-object-length construction."""
        rng = np.random.default_rng(7)
        images = [make_image(rng, mu=mu, concept_len=n) for mu, n in ((2, 3), (4, 1), (1, 2))]
        images[1].concepts[2] = [5, 6, 7, 8]
        seen = []
        real = doclink.encoder.masked_mean
        monkeypatch.setattr("doclink.encoder.embedding",
                            lambda table, ids: seen.append(ids) or tensor.embedding(table, ids))
        monkeypatch.setattr("doclink.encoder.masked_mean",
                            lambda x, mask: seen.append(mask) or real(x, mask))
        config, params = tiny_model()
        encode_images(images, params, config)
        assert_same(seen[:2], padded_concepts(images))


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, obj_dim=4, embed_dim=10, heads=4)

    def test_depths_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, obj_dim=4, embed_dim=8, sentence_layers=0)

    @pytest.mark.parametrize("field", ["embed_dim", "word_dim"])
    def test_widths_of_one_refused(self, field):
        """A width-1 layer norm maps every row to its bias, so every
        representation would be equal; the config names the width instead."""
        settings = dict(vocab_size=10, obj_dim=4, embed_dim=2, heads=1, word_dim=2)
        ModelConfig(**settings)
        with pytest.raises(ConfigError, match=f"^{field} must be >= 2, got 1$"):
            ModelConfig(**dict(settings, **{field: 1}))


class TestInit:
    def test_embedding_ranges(self):
        config, params = tiny_model()
        for table in (params.pos_embed, params.word_embed, params.seg_embed):
            assert np.abs(table.data).max() <= 0.02

    def test_same_seed_identical(self):
        config = ModelConfig(vocab_size=20, obj_dim=4, embed_dim=8, heads=2,
                             sentence_layers=1, image_layers=1, word_dim=6)
        a = init_params(config, RngStream(3))
        b = init_params(config, RngStream(3))
        for name, t in a.named_parameters().items():
            np.testing.assert_array_equal(t.data, b.named_parameters()[name].data)

    def test_draw_order_and_ranges_are_pinned(self):
        """Every matrix is drawn in checkpoint order from one stream: the
        three embedding tables Uniform(-0.02, 0.02), every other matrix
        Glorot-uniform over its (out, in) shape; vectors are not drawn."""
        config = ModelConfig(vocab_size=9, obj_dim=3, embed_dim=4, heads=2,
                             sentence_layers=2, image_layers=1, word_dim=5, max_sentence_len=6)
        rng = RngStream(7)

        def glorot(fan_out, fan_in):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_out, fan_in))

        want = {
            "word_embed": rng.uniform(-0.02, 0.02, size=(9, 5)),
            "pos_embed": rng.uniform(-0.02, 0.02, size=(6, 5)),
            "text_proj_w": glorot(4, 5),
            "obj_proj_w": glorot(4, 3),
            "seg_embed": rng.uniform(-0.02, 0.02, size=(2, 4)),
        }
        for stack, depth in (("sent_layers", 2), ("img_layers", 1)):
            for i in range(depth):
                for w in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
                    want[f"{stack}.{i}.{w}"] = glorot(4, 4)
                want[f"{stack}.{i}.ff_w1"] = glorot(16, 4)
                want[f"{stack}.{i}.ff_w2"] = glorot(4, 16)
        named = init_params(config, RngStream(7)).named_parameters()
        for name, t in named.items():
            if name in want:
                np.testing.assert_array_equal(t.data, want.pop(name))
            else:
                np.testing.assert_array_equal(t.data, 1.0 if name.endswith("gain") else 0.0)
        assert not want

    def test_model_params_hold_shapes_only(self):
        config = ModelConfig(vocab_size=9, obj_dim=3, embed_dim=4, heads=2, word_dim=5)
        with mock.patch.object(RngStream, "uniform", side_effect=AssertionError("drew")):
            params = ModelParams(config)
        for name, t in params.named_parameters().items():
            np.testing.assert_array_equal(t.data, 1.0 if name.endswith("gain") else 0.0)

    def test_parameter_count_matches_the_built_model(self):
        grid = itertools.product((1, 7), (1, 5), (2, 3), ((2, 1), (6, 3)), (1, 4), (1, 2), (1, 3))
        for vocab, max_len, word_dim, (embed, heads), obj_dim, sent, img in grid:
            config = ModelConfig(vocab_size=vocab, obj_dim=obj_dim, embed_dim=embed,
                                 sentence_layers=sent, image_layers=img, heads=heads,
                                 word_dim=word_dim, max_sentence_len=max_len)
            built = sum(t.data.size for t in ModelParams(config).named_parameters().values())
            assert config.parameter_count() == built

    def test_pretrained_rows_copied_verbatim(self):
        config = ModelConfig(vocab_size=20, obj_dim=4, embed_dim=8, heads=2, word_dim=6)
        rows = {3: np.arange(6.0), 19: np.ones(6)}
        params = init_params(config, RngStream(4), pretrained=rows)
        np.testing.assert_array_equal(params.word_embed.data[3], np.arange(6.0))
        np.testing.assert_array_equal(params.word_embed.data[19], np.ones(6))

    def test_pretrained_width_mismatch_rejected(self):
        config = ModelConfig(vocab_size=20, obj_dim=4, embed_dim=8, heads=2, word_dim=6)
        rng = RngStream(5)
        with mock.patch.object(rng, "uniform", side_effect=AssertionError("drew")):
            with pytest.raises(ConfigError, match=r"width \(7,\), expected \(6,\)"):
                init_params(config, rng, pretrained={0: np.zeros(7)})

    def test_word_table_over_the_bound_is_refused_before_drawing(self):
        """10**6 x 300 float64 is 2.4 GB, over MAX_WORD_TABLE_BYTES: the
        table is refused from its shape, before numpy allocates or draws."""
        config = ModelConfig(vocab_size=10**6, obj_dim=4, embed_dim=8, heads=2, word_dim=300)
        assert 10**6 * 300 * 8 > MAX_WORD_TABLE_BYTES
        rng = RngStream(5)
        with mock.patch.object(rng, "uniform", side_effect=AssertionError("drew the table")):
            with pytest.raises(ConfigError, match=r"vocab_size=1000000, word_dim=300: more than"):
                init_params(config, rng)

    @pytest.mark.parametrize("size", [{"max_sentence_len": 10**12}, {"embed_dim": 2**20}],
                             ids=["positions", "width"])
    def test_model_over_the_bound_is_refused_before_allocating(self, size):
        """A model whose parameters alone pass MAX_WORD_TABLE_BYTES (2.1 PiB
        of positions, 576 TiB of layers) is refused from its shapes, naming
        them, before a tensor is made."""
        config = ModelConfig(vocab_size=20, obj_dim=4, **size)
        assert 8 * config.parameter_count() > MAX_WORD_TABLE_BYTES
        with mock.patch.object(doclink.encoder, "zeros", side_effect=AssertionError("allocated")):
            with pytest.raises(ConfigError, match=(
                    r"^cannot allocate the model: max_sentence_len=\d+, embed_dim=\d+, "
                    r"sentence_layers=3, image_layers=3, obj_dim=4, vocab_size=20, word_dim=300: "
                    rf"more than {MAX_WORD_TABLE_BYTES} bytes$")) as caught:
                ModelParams(config)
        key, value = next(iter(size.items()))
        assert f"{key}={value}," in str(caught.value)

    def test_default_model_fits_the_bound(self):
        """The default widths and layers with a 30k vocabulary and 2048-wide
        object features: 87M parameters, 0.70 GB, are built."""
        config = ModelConfig(vocab_size=30000, obj_dim=2048)
        assert 8 * config.parameter_count() <= MAX_WORD_TABLE_BYTES
        params = ModelParams(config)
        sizes = [t.data.size for t in params.named_parameters().values()]
        assert sum(sizes) == config.parameter_count()

    def test_named_parameters_stable_and_unique(self):
        _, params = tiny_model()
        names = list(params.named_parameters())
        assert len(names) == len(set(names))
        assert names == list(params.named_parameters())

    def test_named_parameters_pin_the_checkpoint_layout(self):
        """Names and order are the checkpoint layout: attribute assignment
        order, dotted below layer norms and transformer layers."""
        config = ModelConfig(vocab_size=10, obj_dim=3, embed_dim=4, heads=2,
                             sentence_layers=2, image_layers=1, word_dim=4)
        layer = [
            "attn.wq", "attn.wk", "attn.wv", "attn.wo",
            "attn.bq", "attn.bk", "attn.bv", "attn.bo",
            "ln_attn.gain", "ln_attn.bias",
            "ff_w1", "ff_b1", "ff_w2", "ff_b2",
            "ln_ff.gain", "ln_ff.bias",
        ]
        want = [
            "word_embed", "pos_embed",
            "text_proj_w", "text_proj_b", "obj_proj_w", "obj_proj_b", "seg_embed",
            "ln_token.gain", "ln_token.bias",
            "ln_obj_feat.gain", "ln_obj_feat.bias",
            "ln_obj_seg.gain", "ln_obj_seg.bias",
            "ln_concept_feat.gain", "ln_concept_feat.bias",
            "ln_concept_seg.gain", "ln_concept_seg.bias",
            *[f"sent_layers.0.{name}" for name in layer],
            *[f"sent_layers.1.{name}" for name in layer],
            *[f"img_layers.0.{name}" for name in layer],
        ]
        assert list(init_params(config, RngStream(0)).named_parameters()) == want


class TestSentenceEncoder:
    def test_single_token_pooling_is_identity(self):
        """lambda=1: pooling over one element returns that element."""
        config, params = tiny_model()
        tokens = [7]
        out = encode_sentences([tokens], params, config)[0]

        words = params.word_embed.data[[7]]
        pos = params.pos_embed.data[[0]]
        h = Tensor((words + pos)[None])  # a batch of one sentence
        h = tensor.layernorm(h, params.ln_token.gain, params.ln_token.bias)
        x = linear(h, params.text_proj_w, params.text_proj_b)
        x = transformer_layer(x, params.sent_layers[0], config.heads)
        np.testing.assert_allclose(out.data, x.data[0, 0], atol=1e-12)

    def test_positions_break_permutation_symmetry(self):
        config, params = tiny_model()
        a = encode_sentences([[1, 2, 3, 4]], params, config)[0]
        b = encode_sentences([[4, 3, 2, 1]], params, config)[0]
        assert np.abs(a.data - b.data).max() > 1e-8

    def test_batched_matches_single(self):
        config, params = tiny_model()
        sents = [[1, 2, 3], [4, 5], [6]]
        batch = encode_sentences(sents, params, config)
        for i, s in enumerate(sents):
            single = encode_sentences([s], params, config)[0]
            np.testing.assert_allclose(batch.data[i], single.data, atol=1e-12)

    def test_length_and_vocab_validation(self):
        config, params = tiny_model(max_len=4)
        with pytest.raises(SequenceLengthError, match="length 5 exceeds max_sentence_len 4"):
            encode_sentences([[1, 2], [1, 2, 3, 4, 5]], params, config)
        with pytest.raises(SequenceLengthError, match="no tokens"):
            encode_sentences([[1], []], params, config)
        with pytest.raises(VocabularyError, match="token id 999 outside vocabulary of size 30"):
            encode_sentences([[1, 2, 3], [999]], params, config)
        with pytest.raises(VocabularyError, match="token id -1 "):
            encode_sentences([[1, -1]], params, config)

    def test_word_embedding_gradient(self):
        config, params = tiny_model()
        w = Tensor(np.random.default_rng(0).normal(size=8))

        def build():
            return (encode_sentences([[1, 2], [3, 1]], params, config) * w).sum()

        params.zero_grads()
        tensor.backward(build())
        fd = central_diff(build, params.word_embed)
        np.testing.assert_allclose(params.word_embed.grad, fd, rtol=1e-4, atol=1e-7)


class TestImageEncoder:
    def test_joint_permutation_invariance(self):
        """Shuffling (object, concept) pairs together leaves the output."""
        config, params = tiny_model()
        rng = np.random.default_rng(1)
        img = make_image(rng, mu=4)
        perm = rng.permutation(4)
        shuffled = ImageRecord(
            objects=img.objects[perm], concepts=[img.concepts[p] for p in perm]
        )
        a = encode_images([img], params, config)[0]
        b = encode_images([shuffled], params, config)[0]
        np.testing.assert_allclose(a.data, b.data, atol=1e-10)

    def test_identical_images_identical_outputs(self):
        config, params = tiny_model()
        rng = np.random.default_rng(2)
        img = make_image(rng, mu=1)
        twin = ImageRecord(objects=img.objects.copy(), concepts=[list(c) for c in img.concepts])
        a = encode_images([img], params, config)[0]
        b = encode_images([twin], params, config)[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_batched_matches_single(self):
        config, params = tiny_model()
        rng = np.random.default_rng(3)
        imgs = [make_image(rng, mu=2), make_image(rng, mu=4), make_image(rng, mu=1)]
        batch = encode_images(imgs, params, config)
        for i, img in enumerate(imgs):
            single = encode_images([img], params, config)[0]
            np.testing.assert_allclose(batch.data[i], single.data, atol=1e-12)

    def test_width_mismatch_rejected(self):
        """The object projection refuses rows of the wrong width; the
        run-level check names the document (TestCheckFit)."""
        config, params = tiny_model(obj_dim=5)
        bad = ImageRecord(objects=np.zeros((2, 4)), concepts=[[1], [2]])
        with pytest.raises(ShapeMismatchError, match=r"linear needs .* \(8, 5\)"):
            encode_images([bad], params, config)

    @pytest.mark.parametrize(
        "objects,concepts,error,message",
        [
            (np.zeros((2, 5)), [[1], []], CorpusValidationError, "empty concept"),
            (np.zeros((2, 5)), [[1], [2, 30]], VocabularyError, "concept token id 30 "),
            (np.zeros((1, 5)), [[-4]], VocabularyError, "concept token id -4 "),
        ],
    )
    def test_malformed_image_rejected(self, objects, concepts, error, message):
        config, params = tiny_model(obj_dim=5)
        good = make_image(np.random.default_rng(0), obj_dim=5, mu=3, concept_len=3)
        with pytest.raises(error, match=message):
            encode_images([good, ImageRecord(objects=objects, concepts=concepts)], params, config)

    @pytest.mark.parametrize(
        "objects,concepts,message",
        [
            (np.zeros((3, 5)), [[1]], "has 3 object rows and 1 concept entries"),
            (np.zeros((1, 5)), [[1], [2]], "has 1 object rows and 2 concept entries"),
            (np.zeros((0, 5)), [], "has 0 object rows and 0 concept entries"),
        ],
        ids=["one-concept-list-for-three-rows", "extra-concept-list", "no-rows"],
    )
    def test_count_mismatch_rejected(self, objects, concepts, message):
        """Concept lists that do not pair one to one with object rows, or an
        image without rows, are named by their position in the batch."""
        config, params = tiny_model(obj_dim=5)
        good = make_image(np.random.default_rng(0), obj_dim=5, mu=3)
        bad = ImageRecord(objects=objects, concepts=concepts)
        with pytest.raises(CorpusValidationError, match=f"^image 1 of the batch {message}"):
            encode_images([good, bad, good], params, config)

    def test_object_projection_gradient(self):
        config, params = tiny_model()
        rng = np.random.default_rng(4)
        imgs = [make_image(rng, mu=2), make_image(rng, mu=3)]
        w = Tensor(rng.normal(size=(2, 8)))

        def build():
            return (encode_images(imgs, params, config) * w).sum()

        params.zero_grads()
        tensor.backward(build())
        for leaf in (params.obj_proj_w, params.seg_embed, params.text_proj_w):
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-4, atol=1e-7)


class TestSharedTable:
    def test_word_row_feeds_both_encoders(self):
        """Mutating one word-embedding row moves sentences containing that
        token and images whose concepts contain it.  The bump is a single
        entry, not a whole-row constant: the sentence path layer-norms the
        raw embedding, and layer norm is exactly invariant to constant
        shifts of a vector."""
        config, params = tiny_model()
        rng = np.random.default_rng(5)
        img = ImageRecord(objects=rng.normal(size=(2, 5)), concepts=[[9, 1], [2]])
        s_before = encode_sentences([[9, 3]], params, config)[0].data.copy()
        v_before = encode_images([img], params, config)[0].data.copy()
        other_before = encode_sentences([[4, 5]], params, config)[0].data.copy()

        params.word_embed.data[9, 0] += 0.5
        s_after = encode_sentences([[9, 3]], params, config)[0].data
        v_after = encode_images([img], params, config)[0].data
        other_after = encode_sentences([[4, 5]], params, config)[0].data

        assert np.abs(s_after - s_before).max() > 1e-6
        assert np.abs(v_after - v_before).max() > 1e-6
        np.testing.assert_array_equal(other_after, other_before)

    def test_concept_gradient_reaches_word_table(self):
        config, params = tiny_model()
        rng = np.random.default_rng(6)
        img = ImageRecord(objects=rng.normal(size=(1, 5)), concepts=[[11, 12]])
        params.zero_grads()
        tensor.backward(encode_images([img], params, config)[0].sum())
        grad_rows = np.abs(params.word_embed.grad).sum(axis=1)
        assert grad_rows[11] > 0 and grad_rows[12] > 0
        assert grad_rows[0] == 0


class TestSimilarityMatrix:
    def test_identical_and_orthogonal(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
        m = similarity_matrix(a, b)
        np.testing.assert_allclose(m.data, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=(3, 6))
        v = rng.normal(size=(4, 6))
        m = similarity_matrix(Tensor(s), Tensor(v))
        for i in range(3):
            for j in range(4):
                want = s[i] @ v[j] / (np.linalg.norm(s[i]) * np.linalg.norm(v[j]))
                np.testing.assert_allclose(m.data[i, j], want, atol=1e-12)
        assert np.all(m.data <= 1 + 1e-12) and np.all(m.data >= -1 - 1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            similarity_matrix(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_side(self, bad):
        finite = np.ones((2, 3))
        broken = finite.copy()
        broken[1, 2] = bad
        with pytest.raises(NonFiniteError, match="non-finite sentence representation"):
            similarity_matrix(Tensor(broken), Tensor(finite))
        with pytest.raises(NonFiniteError, match="non-finite image representation"):
            similarity_matrix(Tensor(finite), Tensor(broken))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        s = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))

        def build():
            return (similarity_matrix(s, v) * w).sum()

        tensor.backward(build())
        for leaf in (s, v):
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-5, atol=1e-7)


class TestSplitRepresentations:
    def test_ragged_split_matches_per_document_encoding(self):
        """Groups of DOCS_PER_PASS documents padded to their longest
        sentence, object count and concept give every document the
        representations it gets when encoded alone."""
        config, params = tiny_model(max_len=12)
        rng = np.random.default_rng(11)
        docs = []
        for d in range(2 * DOCS_PER_PASS + 3):
            sentences = [
                [int(t) for t in rng.integers(0, 30, size=rng.integers(1, 13))]
                for _ in range(rng.integers(1, 5))
            ]
            images = [
                make_image(rng, mu=int(rng.integers(1, 5)), concept_len=int(rng.integers(1, 4)))
                for _ in range(rng.integers(1, 4))
            ]
            docs.append(Document(id=f"d{d}", sentences=sentences, images=images))

        corpus = Corpus(docs, vocab_size=30, obj_dim=5, splits={"test": [d.id for d in docs]})
        reps = split_representations(corpus, "test", params, config)
        assert len(reps) == len(docs)
        for doc, (sent, img) in zip(docs, reps):
            assert sent.node is None and img.node is None
            alone_sent = encode_sentences(doc.sentences, params, config)
            alone_img = encode_images(doc.images, params, config)
            np.testing.assert_allclose(sent.data, alone_sent.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(img.data, alone_img.data, rtol=0, atol=1e-12)

    def test_empty_split_has_no_representations(self):
        config, params = tiny_model()
        corpus = Corpus([], vocab_size=30, obj_dim=5, splits={"test": []})
        with pytest.raises(CorpusValidationError, match="split 'test' has no documents"):
            split_representations(corpus, "test", params, config)


class TestOneFlatSplit:
    """A split encodes to one flat Representations: its passes' rows joined
    verbatim, with each document's offsets."""

    def test_offsets_are_the_counts_and_rows_are_each_pass(self):
        config, params = tiny_model(max_len=12)
        rng = np.random.default_rng(12)
        docs = [
            Document(
                id=f"d{d}",
                sentences=[[int(t) for t in rng.integers(0, 30, size=rng.integers(1, 13))]
                           for _ in range(rng.integers(1, 5))],
                images=[make_image(rng, mu=int(rng.integers(1, 5)),
                                   concept_len=int(rng.integers(1, 4)))
                        for _ in range(rng.integers(1, 4))],
            )
            for d in range(2 * DOCS_PER_PASS + 3)
        ]
        corpus = Corpus(docs, vocab_size=30, obj_dim=5, splits={"test": [d.id for d in docs]})
        reps = split_representations(corpus, "test", params, config)
        assert isinstance(reps, Representations) and len(reps) == len(docs)
        assert reps.sentences.node is None and reps.images.node is None
        np.testing.assert_array_equal(
            reps.sentence_offsets, np.cumsum([0] + [len(d.sentences) for d in docs]))
        np.testing.assert_array_equal(
            reps.image_offsets, np.cumsum([0] + [len(d.images) for d in docs]))
        for start in range(0, len(docs), DOCS_PER_PASS):
            end = min(start + DOCS_PER_PASS, len(docs))
            with tensor.no_grad():
                batch = batch_representations(docs[start:end], params, config)
            for side, offsets, rows in (
                ("sentences", reps.sentence_offsets, batch.sentences.data),
                ("images", reps.image_offsets, batch.images.data),
            ):
                flat = getattr(reps, side).data
                np.testing.assert_array_equal(flat[offsets[start] : offsets[end]], rows)

    def test_empty_split_names_the_split_for_every_reader(self):
        """Encoding, evaluation and the bias probe on any of its three
        feature sources refuse a split with no documents."""
        config, params = tiny_model()
        corpus = Corpus([], vocab_size=30, obj_dim=5, splits={"test": []})
        for read in (
            lambda: evaluate(corpus, "test", params, config),
            lambda: bias_report(corpus, "test"),
            lambda: bias_report(corpus, "test", params=params, config=config),
            lambda: bias_report(corpus, "test", image_reps=np.zeros((0, 8))),
        ):
            with pytest.raises(CorpusValidationError, match="split 'test' has no documents"):
                read()

    def test_gold_less_document_is_named_alike_by_every_reader(self):
        """Evaluation and the bias probe on any of its three feature sources
        refuse a split with a document without gold edges in one message,
        before anything is encoded."""
        config, params = tiny_model()
        corpus = ragged_corpus(13, 3)
        for doc in corpus.documents:
            doc.gold_edges = {(0, 0)}
        corpus.documents[1].gold_edges = None
        images = sum(len(doc.images) for doc in corpus.documents)
        messages = set()
        with mock.patch.object(doclink.encoder, "batch_representations",
                               side_effect=AssertionError("encoded")):
            for read in (
                lambda: evaluate(corpus, "test", params, config),
                lambda: bias_report(corpus, "test"),
                lambda: bias_report(corpus, "test", params=params, config=config),
                lambda: bias_report(corpus, "test", image_reps=np.zeros((images, 8))),
            ):
                with pytest.raises(MissingGoldEdgesError, match="'d1'") as err:
                    read()
                messages.add(str(err.value))
        assert len(messages) == 1


def ragged_corpus(seed: int, docs: int) -> Corpus:
    """A test split of ``docs`` documents of 1-4 sentences of 1-12 tokens and
    1-3 images of 1-4 objects, vocabulary 30, object width 5."""
    rng = np.random.default_rng(seed)
    documents = [
        Document(
            id=f"d{d}",
            sentences=[[int(t) for t in rng.integers(0, 30, size=rng.integers(1, 13))]
                       for _ in range(rng.integers(1, 5))],
            images=[make_image(rng, mu=int(rng.integers(1, 5)),
                               concept_len=int(rng.integers(1, 4)))
                    for _ in range(rng.integers(1, 4))],
        )
        for d in range(docs)
    ]
    return Corpus(documents, vocab_size=30, obj_dim=5,
                  splits={"test": [doc.id for doc in documents]})


def encode_split(corpus, params, config, threads: bool):
    """split_representations on worker threads for any pass size (8 CPUs,
    one BLAS thread), or serially; the result's bytes and the threads its
    passes ran on, or the error it raised."""
    ran_on = set()
    encode = doclink.encoder.batch_representations

    def spied(*args):
        ran_on.add(threading.get_ident())
        return encode(*args)

    with mock.patch.multiple(doclink.encoder, batch_representations=spied,
                             THREADED_PASS_VALUES=0 if threads else float("inf"),
                             usable_cpus=lambda: 8, blas_threads=lambda: 1):
        try:
            reps = split_representations(corpus, "test", params, config)
        except DoclinkError as exc:
            return exc, ran_on
    return reps.sentences.data.tobytes() + reps.images.data.tobytes(), ran_on


# A split of three pipeline-shaped passes (36 objects, width 64, four heads),
# encoded serially and on worker threads at this process's BLAS thread count;
# prints whether the bytes are equal and how many threads ran passes.
THREADED_BYTES = """
import threading
import doclink.encoder as encoder
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig, init_params, split_representations
from doclink.rng import RngStream

corpus = generate_synthetic(SynthConfig(
    train_docs=2, val_docs=0, test_docs=2 * encoder.DOCS_PER_PASS + 1, sentences_per_doc=8,
    images_per_doc=6, vocab_size=400, obj_dim=64, objects_per_image=36, sentence_len=10,
    tokens_per_cluster=4), RngStream(3))
config = ModelConfig(vocab_size=400, obj_dim=64, embed_dim=64, sentence_layers=1,
                     image_layers=1, heads=4, word_dim=32, max_sentence_len=16)
params = init_params(config, RngStream(3))
ran_on, encode = set(), encoder.batch_representations

def spied(*args):
    ran_on.add(threading.get_ident())
    return encode(*args)

encoder.batch_representations = spied
encoder.usable_cpus = lambda: 2 * encoder.blas_threads()
out = []
for threshold in (float("inf"), 0):
    encoder.THREADED_PASS_VALUES = threshold
    reps = split_representations(corpus, "test", params, config)
    out.append(reps.sentences.data.tobytes() + reps.images.data.tobytes())
print(out[0] == out[1], len(ran_on))
"""


class TestThreadedSplit:
    """A split's passes on worker threads give the serial loop's bytes and
    raise its errors."""

    def test_bytes_equal_the_serial_loop(self):
        """Nine ragged passes on eight workers, more than this host's CPUs,
        switching threads every microsecond: the serial loop's bytes."""
        config, params = tiny_model(max_len=12)
        corpus = ragged_corpus(13, 8 * DOCS_PER_PASS + 2)
        serial, serial_threads = encode_split(corpus, params, config, threads=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, worker_threads = encode_split(corpus, params, config, threads=True)
        finally:
            sys.setswitchinterval(interval)
        assert serial_threads == {threading.get_ident()}
        assert threading.get_ident() not in worker_threads and len(worker_threads) >= 2
        assert threaded == serial

    @pytest.mark.parametrize("blas", ["1", "2"])
    def test_bytes_equal_the_serial_loop_at_each_blas_thread_count(self, blas):
        src = os.path.dirname(os.path.dirname(doclink.encoder.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", THREADED_BYTES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        same, threads = done.stdout.split()
        assert same == "True" and int(threads) >= 3  # the main thread and two workers

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        """Each worker runs in a copy of the caller's context: the caller's
        np.errstate holds there, and so does the grad mode no_grad sets."""
        modes, encode = [], doclink.encoder.batch_representations

        def spied(*args):
            modes.append((np.geterr()["divide"], tensor.is_grad_enabled()))
            return encode(*args)

        monkeypatch.setattr(doclink.encoder, "batch_representations", spied)
        config, params = tiny_model(max_len=12)
        with np.errstate(divide="raise"):
            _, worker_threads = encode_split(ragged_corpus(13, 3 * DOCS_PER_PASS + 2),
                                             params, config, threads=True)
        assert len(worker_threads) >= 2 and modes == [("raise", False)] * 4

    def test_first_failing_pass_raises_the_serial_error(self):
        """Stray tokens in a document of the second pass and one of the
        third: both paths name the second pass's document, in the same words."""
        config, params = tiny_model(max_len=12)
        corpus = ragged_corpus(14, 3 * DOCS_PER_PASS + 2)
        docs = corpus.split_documents("test")
        for d in (DOCS_PER_PASS + 2, 2 * DOCS_PER_PASS + 1):
            docs[d].sentences[0][0] = 77
        serial, _ = encode_split(corpus, params, config, threads=False)
        threaded, worker_threads = encode_split(corpus, params, config, threads=True)
        assert len(worker_threads) >= 2
        for err in (serial, threaded):
            assert isinstance(err, CorpusValidationError)
            assert str(err).startswith(f"document 'd{DOCS_PER_PASS + 2}': sentence 0 token 77 ")
        assert str(threaded) == str(serial)

    def test_overflowing_parameters_name_the_serial_document_without_a_warning(self):
        """Object projections of 1e300 overflow every pass's layer norm: the
        threaded path raises the serial path's NonFiniteError, naming the
        split's first document, and no worker lets numpy warn."""
        config, params = tiny_model(max_len=12)
        params.obj_proj_w.data *= 1e300
        corpus = ragged_corpus(15, 3 * DOCS_PER_PASS + 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="warn"):
                serial, _ = encode_split(corpus, params, config, threads=False)
                threaded, worker_threads = encode_split(corpus, params, config, threads=True)
        assert len(worker_threads) >= 2
        for err in (serial, threaded):
            assert isinstance(err, NonFiniteError)
            assert str(err).startswith("non-finite image representation of document 'd0': ")
        assert str(threaded) == str(serial)
        assert caught == []


def fit_corpus() -> Corpus:
    """A 3x3-document corpus: sentences of 4 tokens, object width 4,
    vocabulary 60; two train, one val and two test documents."""
    return generate_synthetic(SynthConfig(
        train_docs=2, val_docs=1, test_docs=2, sentences_per_doc=3, images_per_doc=3,
        density=0.34, vocab_size=60, obj_dim=4, objects_per_image=2, sentence_len=4,
        concept_len=2, tokens_per_cluster=4,
    ), RngStream(7))


def fit_model(**kw) -> ModelConfig:
    base = dict(vocab_size=60, obj_dim=4, embed_dim=8, sentence_layers=1, image_layers=1,
                heads=2, word_dim=8, max_sentence_len=8)
    return ModelConfig(**{**base, **kw})


def largest_token(doc) -> int:
    concepts = [t for img in doc.images for concept in img.concepts for t in concept]
    return max(concepts + [t for tokens in doc.sentences for t in tokens])


# (model setting, does a document of fit_corpus() not fit it?)  With a
# vocabulary of 57 the first misfits are val-0000 and test-0001.
MISFITS = [
    ({"max_sentence_len": 3}, lambda doc: max(map(len, doc.sentences)) > 3),
    ({"vocab_size": 57}, lambda doc: largest_token(doc) >= 57),
    ({"obj_dim": 5}, lambda doc: doc.images[0].objects.shape[1] != 5),
]


class TestCheckFit:
    """train(), evaluate() and bias_report(params=...) reject a corpus the
    model cannot encode by naming its first such document and the model's
    limits; a corpus that fits is not walked."""

    def test_attention_scores_over_the_bound_are_refused_before_encoding(self, monkeypatch):
        """Four documents of three images of 6000 objects fit the corpus
        budget, but a pass over their 12000-token images at heads=2 would
        form 9 x 2 x 12000**2 float64 scores (20.7 GB) in a training batch of
        up to batch_size + 1 = 3 documents, and 3 x 2 x 12000**2 (6.9 GB)
        over the one test document: train and split_representations refuse
        them, naming the document, heads and the bytes, before any attention
        call."""
        corpus = generate_synthetic(SynthConfig(
            train_docs=2, val_docs=1, test_docs=1, sentences_per_doc=3, images_per_doc=3,
            density=0.34, vocab_size=60, obj_dim=2, objects_per_image=6000, sentence_len=4,
            concept_len=2, tokens_per_cluster=4,
        ), RngStream(7))
        config = fit_model(obj_dim=2)
        monkeypatch.setattr("doclink.nn.attention_sublayer",
                            lambda *a, **kw: pytest.fail("attention"))

        def refusal(doc_id, docs_per_pass, images):
            return re.escape(
                f"document {doc_id!r}: its longest image (12000 tokens) makes a pass of up to "
                f"{docs_per_pass} documents form {8 * images * 2 * 12000**2} bytes of "
                f"attention scores at heads=2, more than {MAX_WORD_TABLE_BYTES} bytes")

        with pytest.raises(ConfigError, match=f"^{refusal('train-0000', 3, 9)}$"):
            train(corpus, config, ObjectiveConfig(), TrainConfig(batch_size=2, max_epochs=1))
        with pytest.raises(ConfigError, match=f"^{refusal('test-0000', DOCS_PER_PASS, 3)}$"):
            split_representations(corpus, "test", init_params(config, RngStream(0)), config)
        docs = corpus.split_documents("train")
        with pytest.raises(ConfigError, match=f"^{refusal('train-0000', 1, 3)}$"):
            check_fit(corpus, docs, config, docs_per_pass=1)

    @pytest.mark.parametrize("setting,misfit", MISFITS, ids=["length", "vocab", "width"])
    def test_train_rejects_before_any_step(self, setting, misfit):
        corpus = fit_corpus()
        config = fit_model(**setting)
        docs = corpus.split_documents("train") + corpus.split_documents("val")
        first = next(doc.id for doc in docs if misfit(doc))
        with mock.patch("doclink.trainer._batch_loss", side_effect=AssertionError("a step ran")):
            with pytest.raises(CorpusValidationError) as err:
                train(corpus, config, ObjectiveConfig(), TrainConfig(batch_size=2, max_epochs=1))
        key, value = next(iter(setting.items()))
        assert str(err.value).startswith(f"document {first!r}: ")
        assert f"{key}={value}" in str(err.value)
        assert str(err.value).endswith(
            f"(model vocab_size={config.vocab_size}, obj_dim={config.obj_dim})")

    @pytest.mark.parametrize("setting,misfit", MISFITS, ids=["length", "vocab", "width"])
    def test_split_callers_name_first_test_document(self, setting, misfit):
        corpus = fit_corpus()
        config = fit_model(**setting)
        params = init_params(config, RngStream(0))
        first = next(doc.id for doc in corpus.split_documents("test") if misfit(doc))
        for run in (
            lambda: evaluate(corpus, "test", params, config),
            lambda: bias_report(corpus, "test", params=params, config=config),
        ):
            with pytest.raises(CorpusValidationError, match=f"^document {first!r}: "):
                run()

    def test_encoding_failure_names_the_document(self):
        """A stray token in a corpus whose declared vocabulary matches the
        model passes check_fit unwalked; the encoder's VocabularyError comes
        back as the error naming the document, from split_representations
        and from a training step."""
        config = fit_model()
        named = re.escape("token 77 outside vocabulary of size 60 (model vocab_size=60, obj_dim=4)")
        corpus = fit_corpus()
        corpus.split_documents("test")[1].sentences[0][1] = 77
        params = init_params(config, RngStream(0))
        with pytest.raises(CorpusValidationError, match=f"^document 'test-0001': sentence 0 {named}"):
            split_representations(corpus, "test", params, config)
        corpus = fit_corpus()
        corpus.split_documents("train")[1].sentences[2][0] = 77
        with pytest.raises(CorpusValidationError, match=f"^document 'train-0001': sentence 2 {named}"):
            train(corpus, config, ObjectiveConfig(), TrainConfig(batch_size=2, max_epochs=1))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_features_name_the_document(self):
        """Finite object features so large that a layer norm's variance
        overflows: NonFiniteError naming that document (the second of the
        test split's pass), from split_representations and from a training
        step, and no numpy warning."""
        config = fit_model()
        named = "^non-finite image representation of document '{}': layernorm: a row's variance overflows$"
        corpus = fit_corpus()
        corpus.split_documents("test")[1].images[1].objects *= 1e300
        with pytest.raises(NonFiniteError, match=named.format("test-0001")):
            split_representations(corpus, "test", init_params(config, RngStream(0)), config)
        corpus = fit_corpus()
        corpus.split_documents("train")[1].images[1].objects *= 1e300
        with pytest.raises(NonFiniteError, match=named.format("train-0001")):
            train(corpus, config, ObjectiveConfig(), TrainConfig(batch_size=2, max_epochs=1))

    def test_width_misfit_names_image_and_setting(self):
        """A width misfit names the document, the image and the model's limits."""
        corpus = fit_corpus()
        config = fit_model(obj_dim=5)
        with pytest.raises(CorpusValidationError) as err:
            check_fit(corpus, corpus.split_documents("test"), config)
        assert str(err.value) == (
            "document 'test-0000': image 0 object width 4 != object dimension 5 "
            "(model vocab_size=60, obj_dim=5)"
        )

    def test_fitting_corpus_walks_no_document(self):
        """At the train-small benchmark shape (420 documents of 5x5), train,
        evaluate and bias_report never validate a document again."""
        corpus = generate_synthetic(SynthConfig(
            train_docs=220, val_docs=100, test_docs=100, sentences_per_doc=5,
            images_per_doc=5, density=0.2, vocab_size=200, obj_dim=16, objects_per_image=3,
            sentence_len=8, concept_len=2, tokens_per_cluster=4, token_noise=0.1,
        ), RngStream(1))
        config = ModelConfig(vocab_size=200, obj_dim=16, embed_dim=16, sentence_layers=1,
                             image_layers=1, heads=2, word_dim=16, max_sentence_len=12)
        with mock.patch("doclink.encoder.validate_document") as validate:
            params = train(corpus, config, ObjectiveConfig(), TrainConfig(max_epochs=0)).params
            evaluate(corpus, "test", params, config)
            bias_report(corpus, "test", params=params, config=config)
        validate.assert_not_called()
