"""Encoder behavior: pooling, sharing, permutation symmetry, gradients."""

import numpy as np
import pytest

from doclink import tensor
from doclink.corpus import Document, ImageRecord
from doclink.encoder import (
    ModelConfig,
    DOCS_PER_PASS,
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
    NonFiniteError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
)
from doclink.nn import linear, transformer_layer
from doclink.rng import RngStream
from doclink.tensor import Tensor

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


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, obj_dim=4, embed_dim=10, heads=4)

    def test_depths_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, obj_dim=4, embed_dim=8, sentence_layers=0)


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

    def test_pretrained_rows_copied_verbatim(self):
        config = ModelConfig(vocab_size=20, obj_dim=4, embed_dim=8, heads=2, word_dim=6)
        rows = {3: np.arange(6.0), 19: np.ones(6)}
        params = init_params(config, RngStream(4), pretrained=rows)
        np.testing.assert_array_equal(params.word_embed.data[3], np.arange(6.0))
        np.testing.assert_array_equal(params.word_embed.data[19], np.ones(6))

    def test_pretrained_width_mismatch_rejected(self):
        config = ModelConfig(vocab_size=20, obj_dim=4, embed_dim=8, heads=2, word_dim=6)
        with pytest.raises(ConfigError):
            init_params(config, RngStream(5), pretrained={0: np.zeros(7)})

    def test_named_parameters_stable_and_unique(self):
        _, params = tiny_model()
        names = list(params.named_parameters())
        assert len(names) == len(set(names))
        assert names == list(params.named_parameters())


class TestSentenceEncoder:
    def test_single_token_pooling_is_identity(self):
        """lambda=1: pooling over one element returns that element."""
        config, params = tiny_model()
        tokens = [7]
        out = encode_sentences([tokens], params, config)[0]

        words = params.word_embed.data[[7]]
        pos = params.pos_embed.data[[0]]
        h = tensor.layernorm(Tensor(words + pos), params.ln_token.gain, params.ln_token.bias)
        x = linear(h, params.text_proj_w, params.text_proj_b)
        x = transformer_layer(x, params.sent_layers[0], config.heads)
        np.testing.assert_allclose(out.data, x.data[0], atol=1e-12)

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
        config, params = tiny_model(obj_dim=5)
        bad = ImageRecord(objects=np.zeros((2, 4)), concepts=[[1], [2]])
        with pytest.raises(ShapeMismatchError, match="width 4 != configured obj_dim 5"):
            encode_images([bad], params, config)

    @pytest.mark.parametrize(
        "objects,concepts,error,message",
        [
            (np.zeros((0, 5)), [], ShapeMismatchError, "at least one object"),
            (np.zeros(5), [[1]], ShapeMismatchError, "at least one object"),
            (np.zeros((2, 5)), [[1]], CorpusValidationError, "2 objects but 1 concepts"),
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

        reps = split_representations(docs, params, config)
        assert len(reps) == len(docs)
        for doc, (sent, img) in zip(docs, reps):
            assert sent.node is None and img.node is None
            alone_sent = encode_sentences(doc.sentences, params, config)
            alone_img = encode_images(doc.images, params, config)
            np.testing.assert_allclose(sent.data, alone_sent.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(img.data, alone_img.data, rtol=0, atol=1e-12)

    def test_empty_split_has_no_representations(self):
        config, params = tiny_model()
        assert split_representations([], params, config) == []
