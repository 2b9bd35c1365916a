"""Document-level similarity (top-k edge averages) and the three
unsupervised objectives: cross-document, intra-document, and dropout
sub-document, summed into the per-document total by :func:`total_loss`,
their only implementation.

Document similarity: each row's best column defines one candidate edge and
each column's best row another; the strongest k of each side are averaged
(2k values, duplicates counted twice).  The negative variant scores the
least-likely edges through the identity neg_tk(M) = -tk(-M).

All losses are hinge-based with hard negative mining inside the mini-batch:
the most offending other document supplies the gradient.

Batched design: :func:`total_loss` concatenates the batch's sentence
representations and its image representations, normalises each side once
and takes one (all sentences) x (all images) cosine matrix.  Block
(i, j) of that matrix pairs document i's sentences with document j's
images.  One ``batch_scores`` op takes tk of every block (the B x B
table), neg_tk of each own block and tk of each sub-document draw in one
selection pass, and returns the positive and negative operand of every
hinge term.  Hardest negatives are maxima over the table's off-diagonal
(ties go to the lowest document index).  One ``hinge`` call with a margin
per term covers all terms, so the graph size does not grow with the
batch.  Each term is read per document from the ``parts`` that
:func:`total_loss` returns:
``total_loss(...)[1]["l_cross" | "l_intra" | "l_sub"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import similarity_matrix
from .errors import BatchError, ConfigError, check_settings, setting
from .rng import RngStream
from .tensor import Tensor, batch_scores, concat, neg, relu, tk


@dataclass
class ObjectiveConfig:
    alpha: float = setting(0.2, above=0)
    p_sub: float = setting(0.6, above=0, high=1)
    k_override: int | None = setting(None, low=1)  # None: k = min(rows, cols) per matrix

    def __post_init__(self):
        check_settings(self)


def hinge(m, n, margin) -> Tensor:
    """max(0, n - m + margin), elementwise with a scalar or per-term
    ``margin``; zero subgradient on the flat branch."""
    m = m if isinstance(m, Tensor) else Tensor(m)
    n = n if isinstance(n, Tensor) else Tensor(n)
    return relu(n - m + margin)


def neg_tk(M: Tensor, k: int) -> Tensor:
    """Mean similarity of the least-likely edges: exactly -tk(-M, k)."""
    return neg(tk(neg(M), k))


def _keep_count(count: int, p_sub: float) -> int:
    return int(np.floor(p_sub * count))


def _sample_subdocument(count: int, p_sub: float, rng: RngStream) -> np.ndarray:
    keep = _keep_count(count, p_sub)
    if keep < 1:
        return np.array([], dtype=np.int64)
    return np.sort(rng.choice(count, size=keep, replace=False))


def degenerate_subdocuments(shapes: list, p_sub: float) -> list:
    """Ids among ``shapes`` (document id, sentences, images) whose every
    sub-document draw is empty, keeping no sentence or no image
    (floor(p_sub * count) < 1); such a document contributes zero
    sub-document loss."""
    return [
        doc_id
        for doc_id, n, m in shapes
        if min(_keep_count(n, p_sub), _keep_count(m, p_sub)) < 1
    ]


def check_k_override(shapes: list, config: ObjectiveConfig, use_sub: bool = True) -> None:
    """Reject a ``k_override`` that some block of a batch drawn from these
    documents could not satisfy, before any training step runs.

    ``shapes`` holds (document id, sentences, images) for the documents of
    one split; any two of them may share a batch.  Checked blocks: each
    document's own matrix, its sub-document draw (when ``use_sub``), and
    the cross-document pairing of the fewest sentences with the fewest
    images.
    """
    k = config.k_override
    if k is None or not shapes:
        return

    def check(rows: int, cols: int, what: str) -> None:
        if k > max(rows, cols):
            raise ConfigError(
                f"k_override={k} exceeds the {rows}x{cols} {what}; "
                f"need k_override <= {max(rows, cols)}"
            )

    for doc_id, n, m in shapes:
        check(n, m, f"matrix of document {doc_id!r}")
        rows, cols = _keep_count(n, config.p_sub), _keep_count(m, config.p_sub)
        if use_sub and rows >= 1 and cols >= 1:
            check(rows, cols, f"sub-document of document {doc_id!r} (p_sub={config.p_sub})")
    fewest_sent = min(shapes, key=lambda s: s[1])
    fewest_img = min(shapes, key=lambda s: s[2])
    check(
        fewest_sent[1],
        fewest_img[2],
        f"pairing of document {fewest_sent[0]!r} sentences with document "
        f"{fewest_img[0]!r} images",
    )


def _offsets(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def total_loss(
    batch: list,
    config: ObjectiveConfig,
    rng: RngStream | None,
    use_cross: bool = True,
    use_intra: bool = True,
    use_sub: bool = True,
):
    """``(batch_mean, parts)``: the mean per-document total over the batch,
    the only graph node, and the per-document values as plain arrays.

    ``batch`` holds (sentence_reps, image_reps) tensor pairs, one per
    document.  ``rng`` drives the sub-document draws and may be None when
    ``use_sub`` is off.  ``parts`` maps ``l_cross``, ``l_intra``,
    ``l_sub``, their sum ``total``, and the own matrix's ``s_pos`` (tk) and
    ``s_neg`` (neg_tk) to (B,) float64 arrays; a disabled objective reads
    zero.
    """
    size = len(batch)
    if size < 2:
        raise BatchError(f"hard negative mining needs >= 2 documents, got {size}")
    row_off = _offsets([sent.shape[0] for sent, _ in batch])
    col_off = _offsets([img.shape[0] for _, img in batch])
    S = similarity_matrix(concat([s for s, _ in batch]), concat([v for _, v in batch]))
    subs = []  # (document, rows, columns) of each non-degenerate draw
    for i in range(size if use_sub else 0):  # rows then columns, in batch order
        rows = _sample_subdocument(row_off[i + 1] - row_off[i], config.p_sub, rng)
        cols = _sample_subdocument(col_off[i + 1] - col_off[i], config.p_sub, rng)
        if rows.size and cols.size:
            subs.append((i, rows + row_off[i], cols + col_off[i]))
    pairs, s_pos, s_neg = batch_scores(
        S, row_off, col_off, config.k_override, use_cross, use_intra, subs
    )

    alpha, half = config.alpha, config.alpha / 2.0
    margins = np.repeat([alpha, half, half], [2 * size * use_cross, size * use_intra, 2 * len(subs)])
    losses = hinge(pairs[0], pairs[1], margins)
    h = losses.data
    parts = {name: np.zeros(size) for name in ("l_cross", "l_intra", "l_sub")}
    at = 0
    if use_cross:
        parts["l_cross"] = h[:size] + h[size : 2 * size]
        at = 2 * size
    if use_intra:
        parts["l_intra"] = h[at : at + size]
        at += size
    if subs:
        parts["l_sub"][[doc for doc, _, _ in subs]] = h[at : at + len(subs)] + h[at + len(subs) :]

    batch_mean = losses.sum() * (1.0 / size) if h.size else Tensor(0.0)
    parts["total"] = parts["l_cross"] + parts["l_intra"] + parts["l_sub"]
    parts["s_pos"] = s_pos
    parts["s_neg"] = s_neg
    return batch_mean, parts
