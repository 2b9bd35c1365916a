"""Intra-document link prediction metrics: AUC and precision@k.

Every (sentence, image) cell of a document's similarity matrix is a
candidate link; gold edges are the positives.  AUC is the Mann-Whitney
statistic with average-rank tie handling, computed per document and
macro-averaged.  Documents whose cells are all positive or all negative
have no defined AUC and are reported as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .encoder import (ModelConfig, ModelParams, Representations, similarity_matrix,
                      split_representations)
from .errors import ConfigError


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[inverse]


def document_auc(scores: np.ndarray, gold: set) -> float | None:
    """Mann-Whitney AUC over all cells; None when undefined."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.zeros(scores.shape, dtype=bool)
    for m, n in gold:
        labels[m, n] = True
    flat = scores.reshape(-1)
    pos = labels.reshape(-1)
    n_pos = int(pos.sum())
    n_neg = int(flat.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(flat)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def document_precision_at_k(scores: np.ndarray, gold: set, k: int) -> float:
    """Fraction of the k best-scored cells that are gold edges.

    Ties break toward the lower (sentence, image) index pair.
    """
    scores = np.asarray(scores, dtype=np.float64)
    cells = scores.size
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > cells:
        raise ConfigError(f"k={k} exceeds the {cells} cells of the document")
    if not gold:
        return 0.0
    rows, cols = np.unravel_index(np.arange(cells), scores.shape)
    order = np.lexsort((cols, rows, -scores.reshape(-1)))
    hits = sum(1 for idx in order[:k] if (rows[idx], cols[idx]) in gold)
    return hits / k


@dataclass
class EvalReport:
    macro_auc: float | None
    p_at: dict  # {k: macro precision over documents with >= k cells}
    per_document: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # ids with undefined AUC

    def to_json_dict(self) -> dict:
        return {
            "macro_auc": self.macro_auc,
            "p_at": {str(k): v for k, v in sorted(self.p_at.items())},
            "per_document": self.per_document,
            "skipped": self.skipped,
        }


def evaluate_matrices(matrices: dict, golds: dict, ks=(1, 5)) -> EvalReport:
    """Aggregate metrics from precomputed score matrices.

    ``matrices``: {doc_id: (n, m) array}; ``golds``: {doc_id: edge set}.
    A document with all cells positive (or no positives) is skipped for AUC
    but still scored for p@k; p@k skips documents with fewer than k cells.
    """
    per_document = []
    skipped = []
    aucs = []
    p_sums = {k: [] for k in ks}
    for doc_id in matrices:
        scores = matrices[doc_id]
        gold = golds[doc_id]
        auc = document_auc(scores, gold)
        p_at = {}
        for k in ks:
            if k <= scores.size:
                p_at[k] = document_precision_at_k(scores, gold, k)
                p_sums[k].append(p_at[k])
        entry = {
            "id": doc_id,
            "auc": auc,
            "p_at_k": {str(k): v for k, v in sorted(p_at.items())},
            "n_pairs": int(scores.size),
            "n_positive": len(gold),
        }
        per_document.append(entry)
        if auc is None:
            skipped.append(doc_id)
        else:
            aucs.append(auc)
    return EvalReport(
        macro_auc=float(np.mean(aucs)) if aucs else None,
        p_at={k: float(np.mean(v)) for k, v in p_sums.items() if v},
        per_document=per_document,
        skipped=skipped,
    )


def evaluate(
    corpus: Corpus,
    split: str,
    params: ModelParams,
    config: ModelConfig,
    ks=(1, 5),
) -> EvalReport:
    """Encode a split graph-free with :func:`split_representations` and
    score every document; the split is read by :meth:`Corpus.gold_documents`."""
    docs = corpus.gold_documents(split)
    matrices = similarity_matrices(docs, split_representations(corpus, split, params, config))
    return evaluate_matrices(matrices, {doc.id: doc.gold_edges for doc in docs}, ks=ks)


def similarity_matrices(docs: list, reps: Representations) -> dict:
    """{doc id: (n, m) cosine array} of each document's rows of ``reps``, the
    flat encoding of ``docs`` that :func:`split_representations` returns."""
    return {doc.id: similarity_matrix(*reps[d]).data for d, doc in enumerate(docs)}
