"""Corpus model, formats, and synthetic generator checks."""

import dataclasses
import json

import numpy as np
import pytest

from doclink.corpus import (
    Corpus,
    Document,
    ImageRecord,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_pretrained_embeddings,
    load_split_manifest,
    load_vocab,
    raw_feature_views,
    save_corpus,
    save_pretrained_embeddings,
    save_split_manifest,
    save_vocab,
    token_overlap_scores,
)
from doclink.errors import ConfigError, CorpusFormatError, CorpusValidationError
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

    def test_vocab_manifest_embedding_files(self, tmp_path):
        vocab = {"cat": 0, "sat": 1, "mat": 2}
        vpath = tmp_path / "vocab.json"
        save_vocab(vocab, vpath)
        assert load_vocab(vpath) == vocab

        splits = {"train": ["a", "b"], "val": ["c"], "test": []}
        mpath = tmp_path / "splits.json"
        save_split_manifest(splits, mpath)
        assert load_split_manifest(mpath) == splits

        rng = np.random.default_rng(0)
        rows = {0: rng.normal(size=4), 7: rng.normal(size=4)}
        epath = tmp_path / "emb.jsonl"
        save_pretrained_embeddings(rows, epath)
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

    def test_bad_json_reports_line_number(self, tmp_path):
        corpus = generate_synthetic(tiny_config(), RngStream(1))
        path = tmp_path / "broken.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text().splitlines()
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
        with pytest.raises(ConfigError, match="clusters_per_doc"):
            generate_synthetic(tiny_config(clusters_per_doc=1), RngStream(0))
        with pytest.raises(ConfigError, match="vocab_size"):
            generate_synthetic(tiny_config(vocab_size=10), RngStream(0))

    def test_document_invariants_hold(self):
        corpus = generate_synthetic(tiny_config(token_noise=0.3), RngStream(8))
        for doc in corpus.documents:
            for sent in doc.sentences:
                assert all(0 <= t < corpus.vocab_size for t in sent)
            for img in doc.images:
                assert img.objects.shape == (2, corpus.obj_dim)
                assert len(img.concepts) == 2


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
