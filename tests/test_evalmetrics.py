"""Link-prediction metric checks against brute-force oracles."""

import numpy as np
import pytest

from doclink.corpus import SynthConfig, generate_synthetic, token_overlap_scores
from doclink.encoder import ModelConfig, init_params
from doclink.errors import ConfigError, MissingGoldEdgesError
from doclink.evalmetrics import (
    _average_ranks,
    document_auc,
    document_precision_at_k,
    evaluate,
    evaluate_matrices,
)
from doclink.rng import RngStream


def pairwise_auc_oracle(scores, gold):
    """O(P*N) count: wins 1, ties 0.5."""
    flat, labels = [], []
    for m in range(scores.shape[0]):
        for n in range(scores.shape[1]):
            flat.append(scores[m, n])
            labels.append((m, n) in gold)
    pos = [s for s, l in zip(flat, labels) if l]
    neg = [s for s, l in zip(flat, labels) if not l]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def loop_ranks_oracle(values):
    """Average ranks by walking tie runs of a stable sort."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestScipyOracles:
    def test_average_ranks_match_loop_and_rankdata(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(30)
        for _ in range(300):
            values = np.round(rng.normal(size=rng.integers(1, 80)), 1)  # force ties
            ranks = _average_ranks(values)
            np.testing.assert_array_equal(ranks, loop_ranks_oracle(values))
            np.testing.assert_array_equal(ranks, stats.rankdata(values))

    def test_auc_is_normalised_mann_whitney_u(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(31)
        for _ in range(200):
            rows, cols = rng.integers(1, 7, size=2)
            scores = np.round(rng.uniform(size=(rows, cols)), 1)
            labels = rng.uniform(size=(rows, cols)) < 0.4
            if labels.all() or not labels.any():
                continue
            gold = {(int(m), int(n)) for m, n in zip(*np.nonzero(labels))}
            u = stats.mannwhitneyu(scores[labels], scores[~labels]).statistic
            assert document_auc(scores, gold) == u / (labels.sum() * (~labels).sum())


class TestDocumentAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert document_auc(scores, {(0, 0), (1, 1)}) == 1.0

    def test_inverted_scores(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert document_auc(scores, {(0, 0), (1, 1)}) == 0.0

    def test_undefined_when_one_class(self):
        scores = np.ones((2, 2))
        assert document_auc(scores, set()) is None
        assert document_auc(scores, {(m, n) for m in range(2) for n in range(2)}) is None

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = np.round(rng.uniform(size=(5, 5)), 1)  # force ties
            gold = {
                (int(m), int(n))
                for m, n in zip(rng.integers(0, 5, size=5), rng.integers(0, 5, size=5))
            }
            got = document_auc(scores, gold)
            want = pairwise_auc_oracle(scores, gold)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(4, 6))
        gold = {(0, 1), (2, 3), (3, 5)}
        base = document_auc(scores, gold)
        warped = document_auc(np.exp(3.0 * scores), gold)
        np.testing.assert_allclose(base, warped, atol=1e-12)


class TestPrecisionAtK:
    def test_top_cell_gold(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert document_precision_at_k(scores, {(0, 0)}, 1) == 1.0

    def test_empty_gold_scores_zero(self):
        scores = np.ones((2, 2))
        assert document_precision_at_k(scores, set(), 1) == 0.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = np.round(rng.uniform(size=(5, 5)), 1)
            gold = {(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(5)}
            for k in (1, 3, 5, 25):
                cells = sorted(
                    ((m, n) for m in range(5) for n in range(5)),
                    key=lambda mn: (-scores[mn], mn[0], mn[1]),
                )
                want = sum(1 for mn in cells[:k] if mn in gold) / k
                assert document_precision_at_k(scores, gold, k) == want

    def test_tie_takes_lower_index_pair(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.5]])
        # all tied: order must be (0,0),(0,1),(1,0),(1,1)
        assert document_precision_at_k(scores, {(0, 0)}, 1) == 1.0
        assert document_precision_at_k(scores, {(0, 1)}, 1) == 0.0
        assert document_precision_at_k(scores, {(0, 1)}, 2) == 0.5

    def test_k_bounds(self):
        scores = np.ones((2, 2))
        with pytest.raises(ConfigError):
            document_precision_at_k(scores, set(), 0)
        with pytest.raises(ConfigError):
            document_precision_at_k(scores, set(), 5)


class TestEvaluate:
    def synth(self, **kw):
        base = dict(
            train_docs=2,
            val_docs=1,
            test_docs=3,
            sentences_per_doc=4,
            images_per_doc=4,
            density=0.25,
            vocab_size=150,
            obj_dim=6,
            objects_per_image=2,
            sentence_len=5,
            concept_len=2,
            tokens_per_cluster=5,
            sigma=0.1,
        )
        base.update(kw)
        return generate_synthetic(SynthConfig(**base), RngStream(4))

    def test_oracle_scores_reach_perfect_auc(self):
        """Token-overlap scores on a separable corpus: macro AUC 1."""
        corpus = self.synth()
        docs = corpus.split_documents("test")
        mats = {d.id: token_overlap_scores(d) for d in docs}
        golds = {d.id: d.gold_edges for d in docs}
        report = evaluate_matrices(mats, golds)
        assert report.macro_auc == 1.0
        assert report.skipped == []
        assert set(report.p_at) == {1, 5}

    def test_skipped_document_excluded_from_auc_only(self):
        mats = {
            "a": np.array([[0.9, 0.1], [0.3, 0.7]]),
            "b": np.ones((1, 2)),
        }
        golds = {"a": {(0, 0), (1, 1)}, "b": {(0, 0), (0, 1)}}  # b: all cells gold
        report = evaluate_matrices(mats, golds, ks=(1,))
        assert report.skipped == ["b"]
        np.testing.assert_allclose(report.macro_auc, 1.0)
        np.testing.assert_allclose(report.p_at[1], 1.0)  # both documents counted
        assert len(report.per_document) == 2

    def test_small_documents_skip_large_k(self):
        mats = {"a": np.array([[1.0, 0.0]])}
        golds = {"a": {(0, 0)}}
        report = evaluate_matrices(mats, golds, ks=(1, 5))
        assert 5 not in report.p_at
        assert report.p_at[1] == 1.0

    def test_missing_gold_edges_rejected(self):
        corpus = self.synth()
        corpus.documents[0].gold_edges = None
        doc_id = corpus.documents[0].id
        config = ModelConfig(
            vocab_size=corpus.vocab_size,
            obj_dim=corpus.obj_dim,
            embed_dim=8,
            sentence_layers=1,
            image_layers=1,
            heads=2,
            word_dim=6,
        )
        params = init_params(config, RngStream(1))
        with pytest.raises(MissingGoldEdgesError, match=doc_id):
            evaluate(corpus, "train", params, config)

    def test_model_evaluation_runs_detached(self):
        corpus = self.synth(test_docs=2)
        config = ModelConfig(
            vocab_size=corpus.vocab_size,
            obj_dim=corpus.obj_dim,
            embed_dim=8,
            sentence_layers=1,
            image_layers=1,
            heads=2,
            word_dim=6,
        )
        params = init_params(config, RngStream(2))
        report = evaluate(corpus, "test", params, config)
        assert report.macro_auc is not None
        assert 0.0 <= report.macro_auc <= 1.0
        for entry in report.per_document:
            assert entry["n_pairs"] == 16
        # no graph was retained on parameters
        assert params.word_embed.grad is None
