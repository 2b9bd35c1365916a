"""Distance-bias and spread-regression diagnostics against direct oracles."""

import numpy as np
import pytest

from doclink.corpus import (
    Corpus,
    Document,
    ImageRecord,
    SynthConfig,
    generate_synthetic,
)
from doclink.diagnostics import (
    bias_report,
    distance_samples,
    document_spreads,
    ks_two_sample,
    spread_regression,
)
from doclink.encoder import ModelConfig, init_params
from doclink.errors import ConfigError, MissingGoldEdgesError, NonFiniteError
from doclink.rng import RngStream


def ks_oracle(a, b):
    """Exhaustive ECDF-difference scan over every sample point."""
    best = 0.0
    for t in np.concatenate([a, b]):
        best = max(best, abs(np.mean(a <= t) - np.mean(b <= t)))
    return best


class TestKs:
    def test_identical_samples(self):
        a = np.array([0.3, 1.0, 2.5])
        assert ks_two_sample(a, a.copy()) == (0.0, 1.0)

    def test_disjoint_supports(self):
        d, p = ks_two_sample([0.0, 0.1, 0.2], [5.0, 6.0])
        assert d == 1.0
        assert 0.0 <= p <= 1.0  # tiny samples: asymptotic p stays weak even at D=1

    def test_statistic_matches_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = np.round(rng.normal(size=rng.integers(1, 40)), 1)
            b = np.round(rng.normal(loc=0.4, size=rng.integers(1, 40)), 1)
            d, p = ks_two_sample(a, b)
            assert d == ks_oracle(a, b)
            assert 0.0 <= p <= 1.0

    def test_separated_gaussians_reject(self):
        rng = np.random.default_rng(11)
        a = rng.normal(loc=0.0, size=100)
        b = rng.normal(loc=2.0, size=100)
        d, p = ks_two_sample(a, b)
        assert p < 0.01
        assert d == ks_oracle(a, b)

    def test_same_distribution_accepts(self):
        rng = np.random.default_rng(12)
        d, p = ks_two_sample(rng.normal(size=150), rng.normal(size=150))
        assert p > 0.1

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=30)
        b = rng.normal(loc=0.5, size=45)
        d1, _ = ks_two_sample(a, b)
        d2, _ = ks_two_sample(np.exp(a), np.exp(b))
        assert d1 == d2

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            ks_two_sample([], [1.0])

    def test_matches_scipy_statistic_and_kolmogorov_tail(self):
        """D against ks_2samp; p against scipy's Kolmogorov survival
        function at the same effective-size-corrected lambda."""
        stats = pytest.importorskip("scipy.stats")
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(14)
        for _ in range(300):
            a = np.round(rng.normal(size=rng.integers(1, 60)), 1)  # force ties
            b = np.round(rng.normal(loc=rng.uniform(0, 1.5), size=rng.integers(1, 60)), 1)
            d, p = ks_two_sample(a, b)
            assert abs(d - stats.ks_2samp(a, b).statistic) <= 1e-15  # ECDF gaps round apart
            n_eff = a.size * b.size / (a.size + b.size)
            lam = d * (np.sqrt(n_eff) + 0.12 + 0.11 / np.sqrt(n_eff))
            assert abs(p - special.kolmogorov(lam)) <= 1e-12


def diag_corpus(sigma=0.1, doc_center_scale=0.0, seed=5, density=1 / 3, docs=6):
    config = SynthConfig(
        train_docs=docs,
        val_docs=2,
        test_docs=2,
        sentences_per_doc=3,
        images_per_doc=3,
        density=density,
        vocab_size=150,
        obj_dim=6,
        objects_per_image=2,
        sentence_len=4,
        concept_len=2,
        tokens_per_cluster=4,
        sigma=sigma,
        doc_center_scale=doc_center_scale,
    )
    return generate_synthetic(config, RngStream(seed))


class TestDistanceSamples:
    def test_intra_and_matched_match_brute_force(self):
        corpus = diag_corpus()
        intra, cross, matched = distance_samples(
            corpus, "train", samples_per_sentence=2, rng=RngStream(1).child("d")
        )
        want_intra, want_matched = [], []
        for doc in corpus.split_documents("train"):
            feats = np.stack([img.objects.mean(axis=0) for img in doc.images])
            per_sent = {}
            for m, n in doc.gold_edges:
                per_sent.setdefault(m, set()).add(n)
            for m in sorted(per_sent):
                anchor = feats[min(per_sent[m])]
                for n in sorted(per_sent[m] - {min(per_sent[m])}):
                    want_matched.append(np.linalg.norm(anchor - feats[n]))
                for n in range(len(doc.images)):
                    if n not in per_sent[m]:
                        want_intra.append(np.linalg.norm(anchor - feats[n]))
        np.testing.assert_allclose(intra, want_intra, atol=1e-12)
        np.testing.assert_allclose(matched, want_matched, atol=1e-12)

    def test_cross_distances_are_real_outside_distances(self):
        corpus = diag_corpus()
        docs = corpus.split_documents("train")
        _, cross, _ = distance_samples(
            corpus, "train", samples_per_sentence=3, rng=RngStream(2).child("d")
        )
        all_feats = [
            np.stack([img.objects.mean(axis=0) for img in doc.images]) for doc in docs
        ]
        candidates = set()
        for d, doc in enumerate(docs):
            anchors = {min(ns for m2, ns in [(m, n) for m, n in doc.gold_edges if m == s])
                       for s in {m for m, _ in doc.gold_edges}}
            for a_idx in anchors:
                for d2 in range(len(docs)):
                    if d2 == d:
                        continue
                    for row in all_feats[d2]:
                        candidates.add(
                            round(float(np.linalg.norm(all_feats[d][a_idx] - row)), 9)
                        )
        assert all(round(float(c), 9) in candidates for c in cross)

    def test_matched_distance_zero_in_single_cluster_noiseless_corpus(self):
        corpus = diag_corpus(sigma=0.0, density=1.0)
        _, _, matched = distance_samples(
            corpus, "train", samples_per_sentence=1, rng=RngStream(3).child("d")
        )
        assert matched.size > 0
        np.testing.assert_allclose(matched, 0.0, atol=1e-12)

    def test_cross_count_is_config_times_matched_sentences(self):
        corpus = diag_corpus()
        n_matched_sentences = sum(
            len({m for m, _ in doc.gold_edges})
            for doc in corpus.split_documents("train")
        )
        _, cross, _ = distance_samples(
            corpus, "train", samples_per_sentence=5, rng=RngStream(4).child("d")
        )
        assert cross.size == 5 * n_matched_sentences

    def test_zero_samples_gives_empty_cross(self):
        corpus = diag_corpus()
        _, cross, _ = distance_samples(
            corpus, "train", samples_per_sentence=0, rng=RngStream(5).child("d")
        )
        assert cross.size == 0

    def test_deterministic_given_stream(self):
        corpus = diag_corpus()
        a = distance_samples(corpus, "train", 4, RngStream(6).child("d"))
        b = distance_samples(corpus, "train", 4, RngStream(6).child("d"))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_missing_gold_names_document(self):
        corpus = diag_corpus()
        corpus.split_documents("train")[1].gold_edges = None
        with pytest.raises(MissingGoldEdgesError, match="train-0001"):
            distance_samples(corpus, "train", 2, RngStream(7).child("d"))

    def test_overflowing_distance_names_the_document(self):
        """Finite features so large that a distance overflows raise, with
        numpy's overflow warning kept in."""
        corpus = diag_corpus()
        for img in corpus.split_documents("train")[1].images:
            img.objects *= 1e300
        with pytest.raises(NonFiniteError, match="document 'train-0001': an image distance is inf"):
            distance_samples(corpus, "train", 0, RngStream(7).child("d"))

    def test_learned_mode_uses_encoder_space(self):
        corpus = diag_corpus()
        config = ModelConfig(
            vocab_size=corpus.vocab_size,
            obj_dim=corpus.obj_dim,
            embed_dim=8,
            sentence_layers=1,
            image_layers=1,
            heads=2,
            word_dim=6,
            max_sentence_len=8,
        )
        params = init_params(config, RngStream(8))
        raw = distance_samples(corpus, "train", 2, RngStream(9).child("d"))
        learned = distance_samples(
            corpus, "train", 2, RngStream(9).child("d"), params=params, config=config
        )
        assert raw[0].shape == learned[0].shape
        assert not np.allclose(raw[0], learned[0])


class TestBiasReport:
    def test_histogram_counts_sum_to_sample_sizes(self):
        report = bias_report(diag_corpus(), "train", rng=RngStream(10).child("d"))
        assert sum(report.intra_counts) == report.n_intra
        assert sum(report.cross_counts) == report.n_cross
        assert 0.0 <= report.ks_statistic <= 1.0
        assert 0.0 <= report.ks_p_value <= 1.0
        assert len(report.bin_edges) == len(report.intra_counts) + 1

    def test_clustered_documents_show_bias_unclustered_do_not(self):
        clustered = bias_report(
            diag_corpus(doc_center_scale=3.0, sigma=0.5, docs=20),
            "train",
            rng=RngStream(11).child("d"),
        )
        unclustered = bias_report(
            diag_corpus(doc_center_scale=0.0, sigma=0.5, docs=20),
            "train",
            rng=RngStream(11).child("d"),
        )
        assert clustered.ks_p_value < 0.01
        assert unclustered.ks_statistic < clustered.ks_statistic

    def test_json_round_trips_stable_keys(self):
        import json

        report = bias_report(diag_corpus(), "train", rng=RngStream(12).child("d"))
        decoded = json.loads(json.dumps(report.to_json_dict()))
        assert decoded["n_intra"] == report.n_intra
        assert list(decoded) == list(report.to_json_dict())


def hand_corpus(n_docs=1):
    """Documents whose features are fully controlled by the test."""
    docs = []
    for d in range(n_docs):
        images = [
            ImageRecord(objects=np.ones((2, 3)), concepts=[[1], [2]]),
            ImageRecord(objects=np.ones((2, 3)), concepts=[[3], [4]]),
        ]
        docs.append(
            Document(
                id=f"doc-{d}",
                sentences=[[5, 6], [5, 6]],
                images=images,
                gold_edges={(0, 0), (1, 1)},
            )
        )
    return Corpus(
        documents=docs,
        vocab_size=10,
        obj_dim=3,
        splits={"train": [doc.id for doc in docs], "val": [], "test": []},
    )


class TestSpreads:
    def test_identical_features_spread_zero(self):
        table = np.random.default_rng(0).normal(size=(10, 4))
        rows = document_spreads(hand_corpus(), "train", table)
        assert rows[0][1] == 0.0
        assert rows[0][2] == 0.0

    def test_matches_brute_force(self):
        corpus = diag_corpus()
        table = np.random.default_rng(1).normal(size=(corpus.vocab_size, 5))
        rows = document_spreads(corpus, "train", table)
        doc = corpus.split_documents("train")[0]
        img = np.stack([im.objects.mean(axis=0) for im in doc.images])
        want = np.mean([np.sum((v - img.mean(axis=0)) ** 2) for v in img])
        np.testing.assert_allclose(rows[0][1], want, atol=1e-12)


    @pytest.mark.parametrize("side", ["image", "text"])
    def test_overflowing_spread_names_the_document(self, side):
        corpus = diag_corpus()
        table = np.random.default_rng(1).normal(size=(corpus.vocab_size, 5))
        if side == "image":
            for img in corpus.split_documents("train")[2].images:
                img.objects *= 1e300
        else:
            table *= 1e300
        doc = "train-0002" if side == "image" else "train-0000"
        with pytest.raises(NonFiniteError, match=f"document '{doc}': the {side} spread is inf"):
            document_spreads(corpus, "train", table)


class TestSpreadRegression:
    def test_exact_linear_recovers_coefficients(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 4, size=50)
        txt = rng.uniform(0, 4, size=50)
        auc = 0.3 + 2.0 * img - 1.5 * txt
        rows = [(f"d{i}", img[i], txt[i], auc[i]) for i in range(50)]
        report = spread_regression(rows)
        np.testing.assert_allclose(report.coefficients, (0.3, 2.0, -1.5), atol=1e-8)
        assert report.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 4, size=50)
        txt = rng.uniform(0, 4, size=50)
        auc = rng.uniform(0, 1, size=50)
        rows = [(f"d{i}", img[i], txt[i], auc[i]) for i in range(50)]
        report = spread_regression(rows)
        x = np.column_stack([np.ones(50), img, txt])
        want = np.linalg.pinv(x) @ auc
        np.testing.assert_allclose(report.coefficients, want, atol=1e-8)
        residuals = auc - x @ np.array(report.coefficients)
        np.testing.assert_allclose(x.T @ residuals, 0.0, atol=1e-8)
        assert 0.0 <= report.r_squared <= 1.0

    def test_constant_target_undefined_r_squared(self):
        rows = [(f"d{i}", float(i), float(2 * i), 0.5) for i in range(10)]
        assert spread_regression(rows).r_squared is None

    def test_rank_deficient_design_uses_pseudo_inverse(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 4, size=20)
        rows = [(f"d{i}", img[i], img[i], rng.uniform()) for i in range(20)]
        report = spread_regression(rows)
        assert np.isfinite(report.coefficients).all()
        assert 0.0 <= report.r_squared <= 1.0

    def test_overflowing_design_names_the_largest_spread(self):
        """Finite spreads whose squares overflow: no LAPACK call on an
        infinite matrix, and the document with the largest spread named."""
        rows = [(f"d{i}", 1e160 * (1 + i % 4), 1.0, 0.1 * i) for i in range(8)]
        with pytest.raises(NonFiniteError, match="document 'd3' has the largest spread, 4e\\+160"):
            spread_regression(rows)

    def test_too_few_documents_rejected(self):
        with pytest.raises(ConfigError):
            spread_regression([("a", 1.0, 2.0, 0.5), ("b", 2.0, 1.0, 0.6)])
