"""Encoder behavior: pooling, sharing, permutation symmetry, gradients,
and the one check that a corpus fits the model."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest

from doclink import tensor
from doclink.corpus import Corpus, Document, ImageRecord, SynthConfig, generate_synthetic
from doclink.diagnostics import bias_report
from doclink.encoder import (
    MAX_WORD_TABLE_BYTES,
    ModelConfig,
    ModelParams,
    DOCS_PER_PASS,
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
    NonFiniteError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
)
from doclink.evalmetrics import evaluate
from doclink.nn import transformer_layer
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.tensor import Tensor, linear
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
        grid = itertools.product((1, 7), (1, 5), (1, 3), ((2, 1), (6, 3)), (1, 4), (1, 2), (1, 3))
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
        assert split_representations(corpus, "test", params, config) == []


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
