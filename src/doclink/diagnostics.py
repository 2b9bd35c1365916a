"""Bias analyses: distance-distribution divergence and spread regression.

Two read-only studies of why intra-document negatives behave differently
from cross-document ones:

* distance_samples / bias_report measure, for every gold-matched sentence,
  L2 distances from its matched image to same-document non-matched images
  (intra negatives) and to images sampled from other documents (cross
  negatives), then compare the two samples with a Kolmogorov-Smirnov test.
  A significant gap means in-document negatives live closer to the positive
  than the negatives the ranking objective actually trains against.
* document_spreads / spread_regression quantify per-document feature
  diversity (mean squared distance to the centroid) and regress linking
  AUC on image and text spread; a high R-squared says document diversity,
  not content, predicts how easy a document is.

Both default to raw features (object vectors, mean word embeddings), since
the phenomenon under study exists before any training.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus, raw_feature_views
from .encoder import ModelConfig, ModelParams, split_representations
from .errors import ConfigError, MissingGoldEdgesError, NonFiniteError
from .rng import RngStream


def _finite(value: float, doc, what: str) -> float:
    """``value``, or NonFiniteError naming ``doc`` when it overflowed."""
    if not math.isfinite(value):
        raise NonFiniteError(f"document {doc.id!r}: {what} is {value}; the features are too large")
    return value


# Finite but huge features overflow a distance or a spread; _finite rejects it.
@np.errstate(over="ignore", invalid="ignore")
def distance_samples(
    corpus: Corpus,
    split: str,
    samples_per_sentence: int = 5,
    rng: RngStream | None = None,
    params: ModelParams | None = None,
    config: ModelConfig | None = None,
    image_reps: list | None = None,
):
    """Distance samples around each gold-matched sentence.

    Returns (intra, cross, matched) float arrays.  For every sentence with
    at least one gold image, the lowest-index matched image anchors the
    comparison: intra holds distances from the anchor to same-document
    images outside the gold set, cross holds distances to
    samples_per_sentence images drawn without replacement from the other
    documents of the split, and matched holds distances to the sentence's
    remaining gold images.  Distances are between raw image features (mean
    object rows), or between encoder outputs: ``image_reps``, one
    (images, d) array per split document, or else the encoding by
    ``params``.  A distance that is not finite raises NonFiniteError naming
    the anchor's document.
    """
    if samples_per_sentence < 0:
        raise ConfigError(
            f"samples_per_sentence must be >= 0, got {samples_per_sentence}"
        )
    if rng is None:
        rng = RngStream(0).child("diagnostics")
    docs = corpus.split_documents(split)
    for doc in docs:
        if doc.gold_edges is None:
            raise MissingGoldEdgesError(f"document {doc.id!r} has no gold edges")

    # One vector per image.
    if image_reps is not None:
        feats = image_reps
    elif params is None:
        feats = [np.stack([img.objects.mean(axis=0) for img in doc.images]) for doc in docs]
    else:
        feats = [img.data for _, img in split_representations(corpus, split, params, config)]
    pool_owner = np.concatenate(
        [np.full(len(doc.images), d, dtype=int) for d, doc in enumerate(docs)]
    )
    pool_feats = np.concatenate(feats, axis=0)

    intra, cross, matched = [], [], []
    for d, doc in enumerate(docs):
        def distance(a, b):
            return _finite(float(np.linalg.norm(a - b)), doc, "an image distance")

        by_sentence = {}
        for m, n in doc.gold_edges:
            by_sentence.setdefault(m, set()).add(n)
        outside = np.flatnonzero(pool_owner != d)
        for m in sorted(by_sentence):
            gold = by_sentence[m]
            anchor = feats[d][min(gold)]
            for n in sorted(gold - {min(gold)}):
                matched.append(distance(anchor, feats[d][n]))
            for n in range(len(doc.images)):
                if n not in gold:
                    intra.append(distance(anchor, feats[d][n]))
            take = min(samples_per_sentence, outside.size)
            picks = rng.choice(outside.size, size=take, replace=False)
            for idx in np.sort(outside[np.asarray(picks, dtype=int)]):
                cross.append(distance(anchor, pool_feats[idx]))
    return np.array(intra), np.array(cross), np.array(matched)


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the supremum ECDF gap, found by evaluating both step functions at
    every sample point.  The p-value uses the Kolmogorov series
    Q(lam) = 2 * sum_j (-1)^(j-1) exp(-2 j^2 lam^2) with the standard
    effective-size correction; terms below 1e-12 are dropped.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ConfigError("ks_two_sample requires non-empty samples")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    if d == 0.0:
        return 0.0, 1.0
    n_eff = a.size * b.size / (a.size + b.size)
    lam = d * (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff))
    total = 0.0
    for j in range(1, 1000):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return d, float(min(1.0, max(0.0, total)))


@dataclass
class BiasReport:
    ks_statistic: float
    ks_p_value: float
    n_intra: int
    n_cross: int
    n_matched: int
    bin_edges: list
    intra_counts: list
    cross_counts: list

    def to_json_dict(self):
        return asdict(self)


def bias_report(
    corpus: Corpus,
    split: str,
    samples_per_sentence: int = 5,
    bins: int = 20,
    rng: RngStream | None = None,
    params: ModelParams | None = None,
    config: ModelConfig | None = None,
    image_reps: list | None = None,
) -> BiasReport:
    """KS comparison of intra- versus cross-document negative distances,
    with shared-bin histograms of both samples; the image vectors are
    chosen as in :func:`distance_samples`."""
    intra, cross, matched = distance_samples(
        corpus, split, samples_per_sentence, rng, params, config, image_reps
    )
    d, p = ks_two_sample(intra, cross)
    combined = np.concatenate([intra, cross])
    edges = np.histogram_bin_edges(combined, bins=bins)
    intra_counts, _ = np.histogram(intra, bins=edges)
    cross_counts, _ = np.histogram(cross, bins=edges)
    return BiasReport(
        ks_statistic=d,
        ks_p_value=p,
        n_intra=int(intra.size),
        n_cross=int(cross.size),
        n_matched=int(matched.size),
        bin_edges=[float(x) for x in edges],
        intra_counts=[int(x) for x in intra_counts],
        cross_counts=[int(x) for x in cross_counts],
    )


@np.errstate(over="ignore", invalid="ignore")
def document_spreads(corpus: Corpus, split: str, word_table: np.ndarray):
    """Per-document (id, image_spread, text_spread) on raw features.

    Spread is the mean squared L2 distance of a document's vectors to
    their centroid; identical vectors give exactly 0.  A spread that is not
    finite raises NonFiniteError naming its document.
    """
    rows = []
    for doc in corpus.split_documents(split):
        sent, img = raw_feature_views(doc, word_table)
        img_spread = float(np.mean(np.sum((img - img.mean(axis=0)) ** 2, axis=1)))
        txt_spread = float(np.mean(np.sum((sent - sent.mean(axis=0)) ** 2, axis=1)))
        rows.append((doc.id, _finite(img_spread, doc, "the image spread"),
                     _finite(txt_spread, doc, "the text spread")))
    return rows


@dataclass
class SpreadReport:
    coefficients: tuple
    r_squared: float | None
    per_document: list

    def to_json_dict(self):
        return {
            "coefficients": {
                "intercept": self.coefficients[0],
                "image_spread": self.coefficients[1],
                "text_spread": self.coefficients[2],
            },
            "r_squared": self.r_squared,
            "per_document": [
                {"id": doc_id, "image_spread": i, "text_spread": t, "auc": a}
                for doc_id, i, t, a in self.per_document
            ],
        }


def spread_regression(per_document) -> SpreadReport:
    """OLS of AUC on (1, image spread, text spread) via normal equations.

    ``per_document`` holds (id, image_spread, text_spread, auc) rows; at
    least 3 are needed for the 3 coefficients.  A rank-deficient design
    falls back to the pseudo-inverse.  A constant AUC target has no
    variance to explain, so r_squared is reported as None.  Spreads whose
    squares overflow raise NonFiniteError naming the largest one's document.
    """
    rows = list(per_document)
    if len(rows) < 3:
        raise ConfigError(f"spread regression needs >= 3 documents, got {len(rows)}")
    x = np.array([[1.0, r[1], r[2]] for r in rows])
    y = np.array([r[3] for r in rows], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = x.T @ x
    if not np.isfinite(xtx).all():
        doc_id = rows[int(x.max(axis=1).argmax())][0]
        raise NonFiniteError(f"spread regression overflows: document {doc_id!r} has the "
                             f"largest spread, {x.max():.3g}; the features are too large")
    xty = x.T @ y
    if np.linalg.matrix_rank(xtx) < 3:
        beta = np.linalg.pinv(x) @ y
    else:
        beta = np.linalg.solve(xtx, xty)
    residuals = y - x @ beta
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = None if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return SpreadReport(
        coefficients=tuple(float(b) for b in beta),
        r_squared=r_squared,
        per_document=rows,
    )
