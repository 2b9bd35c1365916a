"""Corpus model, formats, and synthetic generator checks."""

import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_edit import jsonl_bytes, rewrite_zip
from doclink import corpus as corpus_module
from doclink.corpus import (
    Corpus,
    Document,
    ImageRecord,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_pretrained_embeddings,
    load_split_manifest,
    raw_feature_views,
    save_corpus,
    save_split_manifest,
    token_overlap_scores,
    validate_corpus,
    validate_document,
)
from doclink.errors import ConfigError, CorpusFormatError, CorpusValidationError, DoclinkError
from doclink.rng import RngStream


def tiny_config(**overrides):
    base = dict(
        train_docs=3,
        val_docs=1,
        test_docs=1,
        sentences_per_doc=4,
        images_per_doc=4,
        density=0.25,
        vocab_size=120,
        obj_dim=6,
        objects_per_image=2,
        sentence_len=5,
        concept_len=2,
        tokens_per_cluster=5,
        sigma=0.1,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestRoundTrip:
    def test_save_load_equality_and_bytes(self, tmp_path):
        corpus = generate_synthetic(tiny_config(), RngStream(5))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path, vocab_size=corpus.vocab_size, splits=corpus.splits)
        assert loaded == corpus
        path2 = tmp_path / "again.jsonl"
        save_corpus(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_many_documents_preserve_gold_edges(self, tmp_path):
        config = tiny_config(
            train_docs=100, val_docs=0, test_docs=0, obj_dim=3, objects_per_image=1
        )
        corpus = generate_synthetic(config, RngStream(6))
        path = tmp_path / "big.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path, vocab_size=corpus.vocab_size, splits=corpus.splits)
        for before, after in zip(corpus.documents, loaded.documents):
            assert before.gold_edges == after.gold_edges

    def test_manifest_and_embedding_files(self, tmp_path):
        splits = {"train": ["a", "b"], "val": ["c"], "test": []}
        mpath = tmp_path / "splits.json"
        save_split_manifest(splits, mpath)
        assert load_split_manifest(mpath) == splits

        rng = np.random.default_rng(0)
        rows = {0: rng.normal(size=4), 7: rng.normal(size=4)}
        epath = tmp_path / "emb.jsonl"
        epath.write_text(
            "".join(json.dumps({"id": i, "vec": v.tolist()}) + "\n" for i, v in rows.items())
        )
        loaded = load_pretrained_embeddings(epath)
        assert set(loaded) == {0, 7}
        np.testing.assert_array_equal(loaded[7], rows[7])


class TestEquality:
    @staticmethod
    def document(**changes):
        fields = dict(
            id="d0",
            sentences=[[1, 2]],
            images=[ImageRecord(np.ones((1, 3)), [[4]])],
            gold_edges={(0, 0)},
        )
        return Document(**{**fields, **changes})

    def corpus(self, **changes):
        fields = dict(documents=[self.document()], vocab_size=5, obj_dim=3, splits={"train": ["d0"]})
        return Corpus(**{**fields, **changes})

    def test_any_single_field_difference_breaks_equality(self):
        """Equality compares every field, each on its own."""
        for make, changes in (
            (self.document, dict(
                id="d1",
                sentences=[[1, 3]],
                images=[ImageRecord(np.zeros((1, 3)), [[4]])],
                gold_edges=None,
            )),
            (self.corpus, dict(
                documents=[self.document(id="d1")],
                vocab_size=6,
                obj_dim=4,
                splits={"test": ["d0"]},
            )),
        ):
            assert make() == make()
            assert set(changes) == {f.name for f in dataclasses.fields(make())}
            for name, value in changes.items():
                assert make() != make(**{name: value}), name
            assert make() != "d0"


class TestLoadErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusValidationError, match="no documents"):
            load_corpus(path)
        save_corpus(Corpus(documents=[], vocab_size=5, obj_dim=3), path)
        with pytest.raises(CorpusValidationError, match="no documents"):
            load_corpus(path)

    def test_bad_json_reports_line_number(self, tmp_path):
        corpus = generate_synthetic(tiny_config(), RngStream(1))
        path = tmp_path / "broken.jsonl"
        lines = jsonl_bytes(corpus.documents).decode().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "field.jsonl"
        path.write_text(json.dumps({"id": "x", "sentences": []}) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 1

    def test_invariant_violation_names_document(self, tmp_path):
        record = {
            "id": "doc-7",
            "sentences": [{"tokens": [0, 999]}],
            "images": [{"objects": [[0.0, 0.0]], "concepts": [[1]]}],
        }
        path = tmp_path / "invalid.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusValidationError, match="doc-7"):
            load_corpus(path, vocab_size=10)

    def test_concept_object_count_mismatch(self, tmp_path):
        record = {
            "id": "doc-8",
            "sentences": [{"tokens": [0]}],
            "images": [{"objects": [[0.0], [1.0]], "concepts": [[1]]}],
            "gold_edges": [[0, 0]],
        }
        path = tmp_path / "mismatch.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusValidationError, match="doc-8"):
            load_corpus(path, vocab_size=10)

    def test_gold_edge_out_of_range(self, tmp_path):
        record = {
            "id": "doc-9",
            "sentences": [{"tokens": [0]}],
            "images": [{"objects": [[0.0]], "concepts": [[1]]}],
            "gold_edges": [[0, 5]],
        }
        path = tmp_path / "edge.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusValidationError, match="doc-9"):
            load_corpus(path, vocab_size=10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_object_features_name_document_and_image(self, tmp_path, bad):
        record = {
            "id": "doc-11",
            "sentences": [{"tokens": [0]}],
            "images": [
                {"objects": [[0.0, 1.0]], "concepts": [[1]]},
                {"objects": [[0.5, 0.5], [0.0, bad]], "concepts": [[1], [2]]},
            ],
            "gold_edges": [[0, 0]],
        }
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusValidationError, match="'doc-11': image 1 has non-finite"):
            load_corpus(path, vocab_size=10)

    def test_missing_gold_edges_warns(self, tmp_path):
        record = {
            "id": "doc-10",
            "sentences": [{"tokens": [0]}],
            "images": [{"objects": [[0.0]], "concepts": [[1]]}],
        }
        path = tmp_path / "nogold.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.warns(UserWarning, match="gold edges"):
            load_corpus(path, vocab_size=10)


class TestValidateDocument:
    """An image fault is named with its document and image by the check that
    load and the model-fit check share."""

    @pytest.mark.parametrize(
        "objects,concepts,problem",
        [
            (np.zeros((0, 5)), [], "image 1 needs at least one object row"),
            (np.zeros(5), [[1]], "image 1 needs at least one object row"),
            (np.zeros((2, 5)), [[1]], "image 1 has 2 objects but 1 concept entries"),
            (np.zeros((2, 4)), [[1], [2]], "image 1 object width 4 != object dimension 5"),
        ],
    )
    def test_malformed_image_names_document(self, objects, concepts, problem):
        good = ImageRecord(objects=np.ones((3, 5)), concepts=[[1], [2], [3]])
        doc = Document("d", sentences=[[1]], images=[good, ImageRecord(objects, concepts)])
        with pytest.raises(CorpusValidationError) as err:
            validate_document(doc, vocab_size=30, obj_dim=5)
        assert str(err.value) == f"document 'd': {problem}"
        with pytest.raises(CorpusValidationError) as err:  # against a model's limits
            validate_document(doc, vocab_size=30, obj_dim=5, max_sentence_len=8)
        assert str(err.value) == f"document 'd': {problem} (model vocab_size=30, obj_dim=5)"


def small_corpus() -> Corpus:
    """A generated corpus whose second document has no gold edges and whose
    third has an empty gold set."""
    corpus = generate_synthetic(tiny_config(), RngStream(12))
    corpus.documents[1].gold_edges = None
    corpus.documents[2].gold_edges = set()
    return corpus


def load_quietly(path, **kwargs) -> Corpus:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_corpus(path, **kwargs)


class TestColumnar:
    def test_same_corpus_same_bytes(self, tmp_path, monkeypatch):
        """No wall-clock time reaches the file."""
        blobs = []
        for clock in (1e9, 2e9):
            monkeypatch.setattr(time, "time", lambda: clock)
            path = tmp_path / f"{clock}.jsonl"
            save_corpus(small_corpus(), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].startswith(b"PK\x03\x04")
        assert sorted(os.listdir(tmp_path)) == ["1000000000.0.jsonl", "2000000000.0.jsonl"]

    def test_none_and_empty_gold_sets_round_trip_apart(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        loaded = load_quietly(path, vocab_size=corpus.vocab_size, splits=corpus.splits)
        assert loaded.documents[1].gold_edges is None
        assert loaded.documents[2].gold_edges == set()
        assert loaded == corpus

    def test_zip_and_its_jsonl_rendering_load_equal(self, tmp_path):
        corpus = small_corpus()
        binary, text = tmp_path / "corpus.zip", tmp_path / "corpus.jsonl"
        save_corpus(corpus, binary)
        text.write_bytes(jsonl_bytes(corpus.documents))
        from_zip, from_text = load_quietly(binary), load_quietly(text)
        assert from_zip == from_text
        assert from_zip.vocab_size == from_text.vocab_size
        assert all(
            type(t) is int for doc in from_zip.documents for s in doc.sentences for t in s
        )

    def test_inferred_vocab_counts_an_id_found_only_in_a_concept(self, tmp_path):
        """Both formats infer vocab_size as the largest id plus one, over
        sentence and concept tokens."""
        corpus = small_corpus()
        largest = max(t for doc in corpus.documents for s in doc.sentences for t in s)
        corpus.documents[3].images[1].concepts[0] = [largest + 7]
        binary, text = tmp_path / "corpus.zip", tmp_path / "corpus.jsonl"
        save_corpus(corpus, binary)
        text.write_bytes(jsonl_bytes(corpus.documents))
        assert load_quietly(binary).vocab_size == largest + 8
        assert load_quietly(text).vocab_size == largest + 8

    @pytest.mark.parametrize(
        "edit,members,message",
        [
            (lambda h: h.pop("format"), {}, "member 'header.json' lacks the 'doclink-corpus-v2'"),
            (lambda h: h["ids"].__setitem__(1, h["ids"][0]), {},
             "member 'header.json' ids must be a list of unique strings"),
            (lambda h: h["ids"].pop(), {}, "member 'sentences_per_doc' has 5 entries for 4"),
            (None, {"tokens": None}, "member 'tokens' is missing"),
            (None, {"header": b"{"}, "member 'header.json' is not JSON"),
            (None, {"objects": np.zeros((1, 6), np.float32)},
             "member 'objects' has dtype <f4 and 2 dimensions, expected <f8 and 2"),
            (None, {"edges": np.zeros(4, "<i8")},
             "member 'edges' has dtype <i8 and 1 dimensions, expected <i8 and 2"),
            (None, {"concept_tokens": np.array([{"x": 1}], dtype=object)},
             "member 'concept_tokens' is malformed: Object arrays cannot be loaded"),
            (None, {"sentence_lengths": np.full(20, -1, "<i8")},
             "member 'sentence_lengths' holds a count below 0"),
            (None, {"tokens": np.zeros(99, "<i8")},
             "member 'tokens' has 99 rows, but sentence_lengths sums to 100"),
        ],
    )
    def test_malformed_zip_names_file_and_member(self, tmp_path, edit, members, message):
        source, path = tmp_path / "corpus.jsonl", tmp_path / "bad.jsonl"
        save_corpus(small_corpus(), source)
        rewrite_zip(source, path, edit, **members)
        with pytest.raises(CorpusFormatError, match=f"corpus {path} {message}"):
            load_quietly(path)


# JSON Lines bytes of generated corpora over sentences x images x density x
# seed, with token noise and document centers on; the grid holds n > m, n < m
# and m == 1.
PINNED_GRID_SHA256 = "55c497bc9ce6bfa6b4f0dbe16cf416b10a2d15e7876c12ce8d7ffc4fba85f7e3"


class TestGenerator:
    def test_split_sizes_match_config(self):
        corpus = generate_synthetic(tiny_config(), RngStream(2))
        assert len(corpus.splits["train"]) == 3
        assert len(corpus.splits["val"]) == 1
        assert len(corpus.splits["test"]) == 1
        assert len(corpus.documents) == 5

    def test_same_seed_identical(self):
        a = generate_synthetic(tiny_config(), RngStream(11))
        b = generate_synthetic(tiny_config(), RngStream(11))
        assert a == b

    def test_story_shape_gives_perfect_matching(self):
        """5 sentences, 5 images, density 0.2: exactly 5 edges, a bijection."""
        config = tiny_config(sentences_per_doc=5, images_per_doc=5, density=0.2)
        corpus = generate_synthetic(config, RngStream(3))
        for doc in corpus.documents:
            assert len(doc.gold_edges) == 5
            assert len({m for m, _ in doc.gold_edges}) == 5
            assert len({n for _, n in doc.gold_edges}) == 5

    def test_noiseless_prototypes_and_shared_tokens(self):
        """sigma=0: object rows of different matched pairs differ, and every
        matched pair shares at least one token with its sentence."""
        config = tiny_config(sigma=0.0, sentences_per_doc=3, images_per_doc=3, density=1 / 3)
        corpus = generate_synthetic(config, RngStream(4))
        doc = corpus.documents[0]
        edges = sorted(doc.gold_edges)
        rows = [doc.images[j].objects[0] for _, j in edges]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                assert not np.array_equal(rows[a], rows[b])
        for m, n in edges:
            sent = set(doc.sentences[m])
            img_tokens = {t for c in doc.images[n].concepts for t in c}
            assert sent & img_tokens

    def test_token_overlap_separates_edges(self):
        """Within the star regime, overlap is positive exactly on gold edges."""
        config = tiny_config(sentences_per_doc=4, images_per_doc=6, density=0.25)
        corpus = generate_synthetic(config, RngStream(7))
        for doc in corpus.documents:
            scores = token_overlap_scores(doc)
            for m in range(len(doc.sentences)):
                for n in range(len(doc.images)):
                    if (m, n) in doc.gold_edges:
                        assert scores[m, n] >= 1
                    else:
                        assert scores[m, n] == 0

    def test_density_validation(self):
        with pytest.raises(ConfigError):
            generate_synthetic(tiny_config(density=0.0), RngStream(0))
        with pytest.raises(ConfigError):
            generate_synthetic(tiny_config(density=1.5), RngStream(0))

    def test_cluster_budget_validation(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            generate_synthetic(tiny_config(vocab_size=10), RngStream(0))

    def test_bytes_are_pinned(self):
        """The same seed and settings give the same corpus; a change to the
        edge layout, the match groups or the draw order shows here."""
        digest = hashlib.sha256()
        grid = itertools.product((1, 3, 8), (1, 4, 9), (0.05, 0.3, 0.6, 1.0), (0, 1))
        for n, m, density, seed in grid:
            config = tiny_config(
                train_docs=2, val_docs=0, test_docs=1, sentences_per_doc=n, images_per_doc=m,
                density=density, obj_dim=3, token_noise=0.2, doc_center_scale=1.5,
            )
            digest.update(jsonl_bytes(generate_synthetic(config, RngStream(seed)).documents))
        assert digest.hexdigest() == PINNED_GRID_SHA256

    def test_document_invariants_hold(self):
        corpus = generate_synthetic(tiny_config(token_noise=0.3), RngStream(8))
        for doc in corpus.documents:
            for sent in doc.sentences:
                assert all(0 <= t < corpus.vocab_size for t in sent)
            for img in doc.images:
                assert img.objects.shape == (2, corpus.obj_dim)
                assert len(img.concepts) == 2

    def test_generated_corpora_pass_validation(self):
        """The generator runs no validation walk of its own: its draws keep
        every invariant of validate_corpus, which check_fit's shortcut
        relies on for a corpus generated in memory.  Checked on a grid."""
        grid = itertools.product((1, 3), (1, 4), (0.1, 1.0), (1, 3), (1, 6),
                                 (0.0, 0.5), (0.0, 3.0))
        for n, m, density, objects, length, token_noise, center in grid:
            config = tiny_config(sentences_per_doc=n, images_per_doc=m, density=density,
                                 objects_per_image=objects, sentence_len=length,
                                 token_noise=token_noise, doc_center_scale=center)
            validate_corpus(generate_synthetic(config, RngStream(n * m + objects)))

    @pytest.mark.parametrize("key", ["sigma", "doc_center_scale"])
    def test_overflowing_object_rows_are_config_error(self, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="sigma=.* and doc_center_scale=.* overflow"):
                generate_synthetic(tiny_config(**{key: 1e308}), RngStream(0))


def reference_generate_document(doc_id: str, config: SynthConfig, rng: RngStream) -> Document:
    """The generator with one ``integers`` call per object and per flipped
    token: the oracle for the batched draws of ``_generate_document``."""
    n, m = config.sentences_per_doc, config.images_per_doc
    edge_count = int(round(config.density * n * m))
    edge_count = max(1, min(edge_count, n * m))

    base = corpus_module._edge_cells(n, m, edge_count)
    row_perm = rng.permutation(n)
    col_perm = rng.permutation(m)
    edges = {(int(row_perm[i]), int(col_perm[j])) for i, j in base}

    parent = list(range(n + m))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ra, rb = root(i), root(n + j)
        parent[max(ra, rb)] = min(ra, rb)
    matched = {i for i, _ in edges} | {n + j for _, j in edges}
    keys = [(node not in matched, root(node)) for node in range(n + m)]
    number = {key: c for c, key in enumerate(sorted(set(keys)))}
    cluster = [number[key] for key in keys]

    clusters = len(number)
    if clusters * config.tokens_per_cluster > config.vocab_size:
        raise ConfigError(
            f"vocab_size={config.vocab_size} cannot hold {clusters} disjoint "
            f"token subsets of {config.tokens_per_cluster}"
        )

    pool = rng.choice(config.vocab_size, size=clusters * config.tokens_per_cluster, replace=False)
    subsets = pool.reshape(clusters, config.tokens_per_cluster)
    center = rng.normal(size=config.obj_dim) * config.doc_center_scale
    prototypes = center[None, :] + rng.normal(size=(clusters, config.obj_dim))

    def draw(subset, size: int) -> list:
        return subset[rng.integers(0, len(subset), size)].tolist()

    sentences = []
    for i in range(n):
        tokens = draw(subsets[cluster[i]], config.sentence_len)
        if config.token_noise > 0.0:
            flips = rng.uniform(size=config.sentence_len) < config.token_noise
            for pos in np.flatnonzero(flips):
                tokens[pos] = int(rng.integers(0, config.vocab_size))
        sentences.append(tokens)

    images = []
    for j in range(m):
        proto = prototypes[cluster[n + j]]
        noise = rng.normal(size=(config.objects_per_image, config.obj_dim)) * config.sigma
        concepts = [
            draw(subsets[cluster[n + j]], config.concept_len)
            for _ in range(config.objects_per_image)
        ]
        images.append(ImageRecord(objects=proto[None, :] + noise, concepts=concepts))

    match_lists = {}
    for i, j in sorted(edges):
        match_lists.setdefault(i, []).append(j)
    for i, js in match_lists.items():
        for pos, j in enumerate(js[: config.sentence_len]):
            sentences[i][pos] = int(images[j].concepts[0][0])

    return Document(id=doc_id, sentences=sentences, images=images, gold_edges=edges)


class CountingStream(RngStream):
    """An RngStream that counts its ``integers`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.integer_calls = 0

    def integers(self, low, high=None, size=None):
        self.integer_calls += 1
        return super().integers(low, high, size)


class TestBatchedDraws:
    @pytest.mark.parametrize(
        "concept_len,tokens_per_cluster,token_noise,objects_per_image",
        list(itertools.product((1, 3), (4, 7), (0.0, 0.5, 1.0), (1, 5))),
    )
    def test_same_documents_and_stream_end_as_per_object_draws(
        self, monkeypatch, concept_len, tokens_per_cluster, token_noise, objects_per_image
    ):
        """tokens_per_cluster 7 is not a power of two, so bounded-integer
        rejection can occur; the stream must still end in the same place."""
        config = tiny_config(
            concept_len=concept_len, tokens_per_cluster=tokens_per_cluster,
            token_noise=token_noise, objects_per_image=objects_per_image, doc_center_scale=0.5,
        )
        for seed in range(3):
            rng = RngStream(seed)
            corpus = generate_synthetic(config, rng)
            with monkeypatch.context() as patch:
                patch.setattr(corpus_module, "_generate_document", reference_generate_document)
                reference_rng = RngStream(seed)
                reference = generate_synthetic(config, reference_rng)
            assert corpus == reference
            assert rng.state() == reference_rng.state()

    @pytest.mark.parametrize("token_noise", [0.0, 0.4])
    def test_one_integers_call_per_sentence_draw_and_per_image(self, token_noise):
        config = tiny_config(objects_per_image=5, token_noise=token_noise)
        rng = CountingStream(6)
        generate_synthetic(config, rng)
        docs = config.train_docs + config.val_docs + config.test_docs
        per_sentence = 2 if token_noise > 0 else 1
        expected = docs * (config.sentences_per_doc * per_sentence + config.images_per_doc)
        assert rng.integer_calls == expected


class TestFeatureViews:
    def test_single_token_sentence_is_embedding_row(self):
        table = np.arange(12.0).reshape(4, 3)
        doc = Document(
            id="d",
            sentences=[[2]],
            images=[ImageRecord(objects=np.ones((1, 5)), concepts=[[0]])],
        )
        sent, img = raw_feature_views(doc, table)
        np.testing.assert_array_equal(sent[0], table[2])

    def test_identical_object_rows_pass_through(self):
        row = np.array([1.0, 2.0, 3.0])
        doc = Document(
            id="d",
            sentences=[[0]],
            images=[ImageRecord(objects=np.stack([row, row]), concepts=[[0], [1]])],
        )
        _, img = raw_feature_views(doc, np.zeros((2, 4)))
        np.testing.assert_array_equal(img[0], row)

    def test_random_document_matches_brute_force(self):
        corpus = generate_synthetic(tiny_config(), RngStream(9))
        doc = corpus.documents[0]
        table = np.random.default_rng(1).normal(size=(corpus.vocab_size, 7))
        sent, img = raw_feature_views(doc, table)
        for i, tokens in enumerate(doc.sentences):
            manual = sum(table[t] for t in tokens) / len(tokens)
            np.testing.assert_allclose(sent[i], manual, atol=1e-12)
        for j, rec in enumerate(doc.images):
            manual = rec.objects.sum(axis=0) / rec.objects.shape[0]
            np.testing.assert_allclose(img[j], manual, atol=1e-12)


# ---- fuzzed JSONL files -----------------------------------------------------

RECORD_KEYS = ["id", "sentences", "tokens", "images", "objects", "concepts", "gold_edges", "vec"]
INDEX = st.integers(-1, 6)
SPECIAL = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])
ANY = st.recursive(
    st.one_of(INDEX, SPECIAL, st.floats(), st.booleans(), st.none(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(RECORD_KEYS), inner, max_size=3),
    max_leaves=8,
)
VALUE = st.integers(-2, 6) | st.floats(-1e3, 1e3)


def mostly(common, rare=ANY, one_in=8):
    """``common``, or one time in ``one_in`` ``rare`` in its place."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == one_in else common)


def rarely_odd(common, rare=ANY):
    """``mostly`` for leaves: a record holds dozens, so each is replaced
    one time in forty."""
    return mostly(common, rare, one_in=40)


def items(strategy, count):
    """``count`` items, or one time in eight an empty list or any JSON value."""
    return mostly(st.lists(strategy, min_size=count, max_size=count), st.just([]) | ANY)


def some(strategy):
    """One to three ``items``."""
    return st.integers(1, 3).flatmap(lambda count: items(strategy, count))


def document(width):
    """Corpus records whose object rows mostly hold ``width`` numbers."""
    row = items(rarely_odd(VALUE, SPECIAL | ANY), width)  # ragged when a row is replaced
    image = st.integers(1, 3).flatmap(
        lambda count: st.fixed_dictionaries(
            {"objects": items(row, count), "concepts": items(some(rarely_odd(INDEX)), count)}
        )
    )
    return st.fixed_dictionaries(
        {
            "id": mostly(st.text(max_size=2)),
            "sentences": some(mostly(st.fixed_dictionaries({"tokens": some(rarely_odd(INDEX))}))),
            "images": some(mostly(image)),
        },
        optional={"gold_edges": some(items(mostly(INDEX), 2))},
    )


def embedding_row(width):
    return st.fixed_dictionaries(
        {"id": mostly(INDEX), "vec": items(rarely_odd(VALUE, SPECIAL | ANY), width)}
    )


def jsonl_lines(record):
    """Up to three lines: a JSON record, any JSON value, or raw bytes."""
    line = mostly(mostly(record).map(lambda r: json.dumps(r).encode()), st.binary(max_size=6))
    return st.lists(line, max_size=3)


@pytest.mark.parametrize(
    "loader,record",
    [(load_corpus, document), (load_pretrained_embeddings, embedding_row)],
    ids=["corpus", "embeddings"],
)
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_loader_returns_or_raises_doclink_error(loader, record, data):
    """Wrong types, empty and ragged lists, NaN and ints beyond the float
    range load or raise a DoclinkError; never another exception."""
    width = data.draw(mostly(st.integers(1, 2), st.just(0)))
    lines = data.draw(jsonl_lines(record(width)))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "fuzz.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                loader(path)
            except DoclinkError:
                pass


# ---- fuzzed corpus zips ----------------------------------------------------

MEMBER_EDITS = st.sampled_from([
    lambda a: None,
    lambda a: a.astype(np.float32),
    lambda a: a.astype(a.dtype.newbyteorder(">")),
    lambda a: a.astype(object),
    lambda a: np.array([{"x": 1}], dtype=object),
    lambda a: a.reshape(1, -1),
    lambda a: a[:-1],
    lambda a: np.concatenate([a, a[:1]]),
    lambda a: b"not an array",
])
COUNTS = [name for name, _ in corpus_module.COUNTED]


@functools.lru_cache(maxsize=None)
def small_corpus_zip() -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "corpus.jsonl")
        save_corpus(small_corpus(), path)
        with open(path, "rb") as fh:
            return fh.read()


def mutate_header(header: dict, data) -> None:
    """The format tag or the ids: missing, duplicated, or not strings."""
    key = data.draw(st.sampled_from(["format", "ids"]))
    how = data.draw(st.sampled_from(["missing", "duplicated", "not strings"]))
    if how == "missing":
        del header[key]
    elif key == "format":
        header[key] = data.draw(st.sampled_from([1, None, "doclink-checkpoint-v2", ["x"]]))
    elif how == "duplicated":
        header[key].append(header[key][0])
    else:
        index = data.draw(st.integers(0, len(header[key]) - 1))
        header[key][index] = data.draw(st.sampled_from([1, None, 2.5, ["a"]]))


def _never_unpickle(*args, **kwargs):
    raise AssertionError("the corpus reader unpickled")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_corpus_zip_reader_returns_or_raises_doclink_error(data):
    """A mutated header, a replaced or missing member, a wrong count or a
    truncated file loads or raises a DoclinkError, and nothing is
    unpickled."""
    blob = small_corpus_zip()
    target = data.draw(st.sampled_from(["header", "member", "count", "truncate"]))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "corpus.jsonl")
        if target == "header":
            rewrite_zip(io.BytesIO(blob), path, lambda header: mutate_header(header, data))
        elif target in ("member", "count"):
            name = data.draw(st.sampled_from(COUNTS if target == "count" else sorted(
                corpus_module.MEMBERS)))
            with np.load(io.BytesIO(blob)) as npz:
                stored = npz[name]
            if target == "member":
                stored = data.draw(MEMBER_EDITS)(stored)
            else:
                stored = stored.copy()
                index = data.draw(st.integers(0, len(stored) - 1))
                stored[index] = data.draw(st.sampled_from([-2, -1, stored[index] - 1,
                                                           stored[index] + 1]))
            rewrite_zip(io.BytesIO(blob), path, **{name: stored})
        else:
            with open(path, "wb") as fh:
                fh.write(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with mock.patch("pickle.load", _never_unpickle), \
                mock.patch("pickle.loads", _never_unpickle):
            try:
                load_quietly(path)
            except DoclinkError:
                pass
