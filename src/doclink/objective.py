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
images.  One ``block_tk`` op turns it into the B x B table of tk values;
the same op on the negated matrix gives the own documents' neg_tk, and on
the gathered sub-document rows and columns of the diagonal blocks it gives
the dropout positives.  Hardest negatives are maxima over the table's
off-diagonal (ties go to the lowest document index), and every hinge is a
B-vector, so the graph size does not grow with the batch.  Each term is
read per document from the ``parts`` that :func:`total_loss` returns:
``total_loss(...)[1]["l_cross" | "l_intra" | "l_sub"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import similarity_matrix
from .errors import BatchError, ConfigError, check_settings, setting
from .rng import RngStream
from .tensor import Tensor, block_tk, concat, max_reduce, neg, relu, take


@dataclass
class ObjectiveConfig:
    alpha: float = setting(0.2, above=0)
    p_sub: float = setting(0.6, above=0, high=1)
    k_override: int | None = setting(None, low=1)  # None: k = min(rows, cols) per matrix

    def __post_init__(self):
        check_settings(self)


def hinge(m, n, margin: float) -> Tensor:
    """max(0, n - m + margin); zero subgradient on the flat branch."""
    m = m if isinstance(m, Tensor) else Tensor(m)
    n = n if isinstance(n, Tensor) else Tensor(n)
    return relu(n - m + margin)


def tk(M: Tensor, k: int) -> Tensor:
    """Mean similarity of the selected edge multiset.

    Selected edges: per-row maxima (strongest min(k, rows) of them) plus
    per-column maxima (strongest min(k, cols)).  Ties break toward the lower
    index; a cell selected by both sides counts twice.  The selection is a
    constant of the backward pass: the gradient puts 1/(number selected) on
    each selection.
    """
    rows, cols = M.shape
    return block_tk(M, (0, rows), (0, cols), k).reshape(())


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


def _subdoc_positives(S: Tensor, row_off, col_off, config: ObjectiveConfig, rng: RngStream):
    """tk of each document's sub-document draw from its diagonal block of
    ``S``, plus the indices of the documents whose draw is not degenerate.
    Draw order: rows then columns, per document, in batch order."""
    rows, cols, kept = [], [], []
    for i in range(len(row_off) - 1):
        r = _sample_subdocument(row_off[i + 1] - row_off[i], config.p_sub, rng)
        c = _sample_subdocument(col_off[i + 1] - col_off[i], config.p_sub, rng)
        if r.size == 0 or c.size == 0:
            continue
        rows.append(r + row_off[i])
        cols.append(c + col_off[i])
        kept.append(i)
    if not kept:
        return None, np.array([], dtype=np.int64)
    sub = take(S, np.ix_(np.concatenate(rows), np.concatenate(cols)))
    positives = block_tk(
        sub,
        _offsets([r.size for r in rows]),
        _offsets([c.size for c in cols]),
        config.k_override,
        diagonal=True,
    )
    return positives, np.array(kept, dtype=np.int64)


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
    ``use_sub`` is off.  The B x B tk table is computed once and shared by
    all three objectives.  ``parts`` maps ``l_cross``, ``l_intra``,
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
    table = block_tk(S, row_off, col_off, config.k_override)
    diag = np.arange(size)
    s_pos = take(table, (diag, diag))
    s_neg = neg(block_tk(neg(S), row_off, col_off, config.k_override, diagonal=True))

    # Hardest negatives: row i pairs document i's sentences with the other
    # documents' images, column i its images with their sentences.
    others = table + Tensor(np.where(np.eye(size, dtype=bool), -np.inf, 0.0))
    hardest_for_sentences = max_reduce(others, axis=1)
    hardest_for_images = max_reduce(others, axis=0)

    terms = []
    parts = {name: np.zeros(size) for name in ("l_cross", "l_intra", "l_sub")}
    if use_cross:
        l_cross = hinge(s_pos, hardest_for_sentences, config.alpha) + hinge(
            s_pos, hardest_for_images, config.alpha
        )
        terms.append(l_cross)
        parts["l_cross"] = l_cross.data
    if use_intra:
        l_intra = hinge(s_pos, s_neg, config.alpha / 2.0)
        terms.append(l_intra)
        parts["l_intra"] = l_intra.data
    if use_sub:
        positives, kept = _subdoc_positives(S, row_off, col_off, config, rng)
        if positives is not None:
            half = config.alpha / 2.0
            l_sub = hinge(positives, take(hardest_for_sentences, kept), half) + hinge(
                positives, take(hardest_for_images, kept), half
            )
            terms.append(l_sub)
            parts["l_sub"][kept] = l_sub.data

    batch_mean = concat(terms).sum() * (1.0 / size) if terms else Tensor(0.0)
    parts["total"] = parts["l_cross"] + parts["l_intra"] + parts["l_sub"]
    parts["s_pos"] = s_pos.data
    parts["s_neg"] = s_neg.data
    return batch_mean, parts

