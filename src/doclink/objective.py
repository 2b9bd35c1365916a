"""Document-level similarity (top-k edge averages) and the three
unsupervised objectives: cross-document, intra-document, and dropout
sub-document, summed into the per-document total by :func:`total_loss`,
their only implementation.

Document similarity: each row's best column defines one candidate edge and
each column's best row another; the strongest k of each side are averaged
(2k values, duplicates counted twice).  The negative variant scores the
least-likely edges through the identity neg_tk(M) = -tk(-M).  The ops
:func:`tk` (one matrix) and :func:`batch_scores` (a batch) share one
selection pass, :func:`_top_edges`.

All losses are hinge-based with hard negative mining inside the mini-batch:
the most offending other document supplies the gradient.

Batched design: :func:`total_loss` takes one (all sentences) x (all
images) cosine matrix of the batch's :class:`~doclink.encoder.Representations`,
flat as the encoder pooled them.  Block (i, j) of that matrix, cut by the
stored offsets, pairs document i's sentences with document j's images.
One ``batch_scores`` op takes tk of every block (the B x B table), neg_tk
of each own block and tk of each sub-document draw in one selection pass,
and returns the positive and negative operand of every hinge term as one
(2, H) node, with the term's kind and document.  Hardest negatives are
maxima over the table's off-diagonal (ties go to the lowest document
index).  One ``hinge`` op over that node, with a margin per term
set by its kind, covers all terms, so the objective is five nodes
(``cosine``, ``batch_scores``, ``hinge``, ``sum``, ``mul``) at any batch
size.  Each objective is read per document from the ``parts`` that
:func:`total_loss` returns:
``total_loss(...)[1]["l_cross" | "l_intra" | "l_sub"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Representations, similarity_matrix
from .errors import BatchError, ConfigError, ShapeMismatchError, check_settings, setting
from .rng import RngStream
from .tensor import Tensor, _make, _wrap, neg, pad

# Hinge term kinds, indexing TERM_PARTS and TERM_MARGINS (times alpha).
CROSS, INTRA, SUB = 0, 1, 2
TERM_PARTS = ("l_cross", "l_intra", "l_sub")
TERM_MARGINS = np.array([1.0, 0.5, 0.5])


@dataclass
class ObjectiveConfig:
    alpha: float = setting(0.2, above=0)
    p_sub: float = setting(0.6, above=0, high=1)
    k_override: int | None = setting(None, low=1)  # None: k = min(rows, cols) per matrix

    def __post_init__(self):
        check_settings(self)


def _top_edges(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, k):
    """tk of every padded block in one selection pass.

    Block b fills the first ``rows[b]`` x ``cols[b]`` corner of
    ``blocks[b]``; the rest is -inf.  Each row's first best column and each
    column's first best row are candidate edges; the strongest min(k, rows)
    of the first and min(k, cols) of the second are averaged, ties to the
    lower index.  ``k=None`` takes min(rows, cols) per block; an int outside
    1..max(rows, cols) of some block raises :class:`ConfigError` naming the
    first such block.  Returns the (n,) values, the times each cell was
    selected (a cell chosen by both sides counts twice) and the (n,) scale
    1 / (number selected).
    """
    if k is None:
        k = np.minimum(rows, cols)
    elif (bad := np.flatnonzero((k < 1) | (k > np.maximum(rows, cols)))).size:
        r, c = rows[bad[0]], cols[bad[0]]
        raise ConfigError(f"k={k} invalid for a {r}x{c} matrix; need 1 <= k <= {max(r, c)}")
    counts = np.zeros(blocks.shape, dtype=np.int64)
    sums = []
    for axis, real in ((2, rows), (1, cols)):
        keep = np.minimum(k, real)
        arg, best = blocks.argmax(axis=axis), blocks.max(axis=axis)
        # A block keeping all its real maxima keeps its first `real`, the
        # finite ones; otherwise rank them, stable so ties go to the lower index.
        kept = np.arange(best.shape[1]) < keep[:, None]
        if (keep < real).any():
            ranked = np.empty_like(kept)
            np.put_along_axis(ranked, np.argsort(-best, axis=1, kind="stable"), kept, axis=1)
            kept = ranked
        sums.append(np.add.reduceat(np.where(kept, best, 0.0), [0], axis=1)[:, 0])
        b, i = np.nonzero(kept)
        counts[(b, i, arg[b, i]) if axis == 2 else (b, arg[b, i], i)] += 1
    scale = 1.0 / (np.minimum(k, rows) + np.minimum(k, cols))
    return (sums[0] + sums[1]) * scale, counts, scale


def tk(s, k=None) -> Tensor:
    """Mean similarity of the selected edge multiset of one matrix.

    Selected edges: per-row maxima (strongest min(k, rows) of them) plus
    per-column maxima (strongest min(k, cols)).  Ties break toward the lower
    index; a cell selected by both sides counts twice.  ``k=None`` takes
    min(rows, cols).  The selection is a constant of the backward pass: the
    gradient puts 1/(number selected) on each selection.
    """
    s = _wrap(s)
    rows, cols = s.data.shape
    value, counts, scale = _top_edges(s.data[None], np.array([rows]), np.array([cols]), k)

    def backward_fn(g):
        return (counts[0] * (g * scale[0]),)

    return _make(value.reshape(()), (s,), backward_fn, "tk")


def neg_tk(M: Tensor, k: int) -> Tensor:
    """Mean similarity of the least-likely edges: exactly -tk(-M, k)."""
    return neg(tk(neg(M), k))


def batch_scores(s, row_offsets, col_offsets, k=None, cross=True, intra=True, subs=()):
    """The operands of every hinge term of a batch's objective, as one op.

    Document i owns rows ``row_offsets[i]:row_offsets[i+1]`` and columns
    ``col_offsets[i]:col_offsets[i+1]`` of the cosine matrix ``s``.  One
    :func:`_top_edges` pass over padded blocks takes tk of every (i, j)
    block (the B x B table), of each own block of -s (neg_tk = -tk(-M)) and
    of each sub-document block ``subs`` names as (document, rows, columns)
    of ``s``.  The hardest negatives are the first maxima over the table's
    off-diagonal: per row for a document's sentences, per column for its
    images.

    Returns ``(pairs, (kind, doc))``: the (2, H) node of positive (row 0)
    and negative (row 1) hinge operands, and each term's kind (CROSS, INTRA
    or SUB) and document as (H,) arrays.  Columns, in order: with ``cross``, B
    sentence-side then B image-side terms of own tk against the hardest
    negative; with ``intra``, B terms of tk against neg_tk; then per
    sub-document a sentence-side and, after all of those, an image-side
    term of its tk against its document's hardest negatives.

    Backward: one bincount sums each block's upstream values into its
    coefficient, a second scatters the coefficients onto the selected
    cells, neg_tk blocks first, then the table, then the sub-documents.
    """
    s = _wrap(s)
    n_rows, n_cols = s.data.shape
    size = len(row_offsets) - 1
    spans = [range(a, b) for a, b in zip(row_offsets[:-1], row_offsets[1:])]
    row_index, row_mask = pad(spans + [rows for _, rows, _ in subs], np.int64, fill=n_rows)
    spans = [range(a, b) for a, b in zip(col_offsets[:-1], col_offsets[1:])]
    col_index, col_mask = pad(spans + [cols for _, _, cols in subs], np.int64, fill=n_cols)
    # Blocks: own blocks (negated), the table row-major, the sub-documents.
    docs = np.arange(size)
    extra = size + np.arange(len(subs))
    block_r = np.concatenate([docs, np.repeat(docs, size), extra])
    block_c = np.concatenate([docs, np.tile(docs, size), extra])
    cells = (row_index[block_r] * (n_cols + 1))[:, :, None] + col_index[block_c][:, None, :]
    padded = np.full((n_rows + 1, n_cols + 1), -np.inf)
    padded[:-1, :-1] = s.data
    blocks = padded.reshape(-1)[cells]
    own = blocks[:size]
    np.negative(own, out=own)
    own[own == np.inf] = -np.inf
    values, counts, scale = _top_edges(blocks, row_mask.sum(1)[block_r], col_mask.sum(1)[block_c], k)

    table_block = size + np.arange(size * size).reshape(size, size)
    others = values[table_block]
    np.fill_diagonal(others, -np.inf)
    diag = table_block[docs, docs]
    hardest_for_sentences = table_block[docs, others.argmax(axis=1)]
    hardest_for_images = table_block[others.argmax(axis=0), docs]

    def term(positive, negative, kind, doc):
        return np.stack([positive, negative, np.full_like(doc, kind), doc])

    # (positive block, negative block, kind, document) of each hinge term.
    terms = [np.zeros((4, 0), dtype=np.int64)]
    if cross:
        terms += [term(diag, hardest_for_sentences, CROSS, docs),
                  term(diag, hardest_for_images, CROSS, docs)]
    if intra:
        terms.append(term(diag, docs, INTRA, docs))
    if subs:
        sub_docs = np.array([doc for doc, _, _ in subs])
        sub = extra + size * size
        terms += [term(sub, hardest_for_sentences[sub_docs], SUB, sub_docs),
                  term(sub, hardest_for_images[sub_docs], SUB, sub_docs)]
    operand, kind, doc = np.split(np.concatenate(terms, axis=1), [2, 3])
    sel_block, sel_r, sel_c = np.nonzero(counts)
    sel_cells = cells[sel_block, sel_r, sel_c]
    sel_counts = counts[sel_block, sel_r, sel_c]

    def backward_fn(g):
        coef = np.bincount(operand.ravel(), g.ravel(), len(values)) * scale
        grad = np.bincount(sel_cells, sel_counts * coef[sel_block], (n_rows + 1) * (n_cols + 1))
        return (grad.reshape(n_rows + 1, n_cols + 1)[:-1, :-1],)

    out_data = values[operand] * np.where(operand < size, -1.0, 1.0)
    pairs = _make(out_data, (s,), backward_fn, "batch_scores")
    return pairs, (kind[0], doc[0])


def hinge(pairs, margin) -> Tensor:
    """max(0, pairs[1] - pairs[0] + margin) as one op over batch_scores' (2, H)
    positives and negatives, with a scalar or per-term ``margin``; zero
    subgradient on the flat branch."""
    pairs = _wrap(pairs)
    if pairs.data.shape[:1] != (2,):
        raise ShapeMismatchError(f"hinge needs (2, ...) pairs, got {pairs.data.shape}")
    out_data = np.maximum(pairs.data[1] - pairs.data[0] + margin, 0.0)
    return _make(out_data, (pairs,), lambda g: (np.stack([-g, g]) * (out_data > 0.0),), "hinge")


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


def total_loss(
    reps: Representations,
    config: ObjectiveConfig,
    rng: RngStream | None,
    use_cross: bool = True,
    use_intra: bool = True,
    use_sub: bool = True,
):
    """``(batch_mean, parts)``: the mean per-document total over the batch,
    the only graph node, and the per-document values as plain arrays.

    ``reps`` is the batch as :func:`~doclink.encoder.batch_representations`
    returns it: the pooled sentences and images with each document's
    offsets; their cosine matrix is taken whole.  ``rng`` drives the
    sub-document draws and may be None only when ``use_sub`` is off; with
    it on, None raises ConfigError.  ``parts`` maps ``l_cross``,
    ``l_intra``, ``l_sub`` and their sum ``total`` to (B,) float64 arrays;
    a disabled objective reads zero.
    """
    size = len(reps)
    if size < 2:
        raise BatchError(f"hard negative mining needs >= 2 documents, got {size}")
    if use_sub and rng is None:
        raise ConfigError("the sub-document objective draws from an rng; got None")
    row_off, col_off = reps.sentence_offsets, reps.image_offsets
    S = similarity_matrix(reps.sentences, reps.images)
    subs = []  # (document, rows, columns) of each non-degenerate draw
    for i in range(size if use_sub else 0):  # rows then columns, in batch order
        rows = _sample_subdocument(row_off[i + 1] - row_off[i], config.p_sub, rng)
        cols = _sample_subdocument(col_off[i + 1] - col_off[i], config.p_sub, rng)
        if rows.size and cols.size:
            subs.append((i, rows + row_off[i], cols + col_off[i]))
    pairs, (kind, doc) = batch_scores(
        S, row_off, col_off, config.k_override, use_cross, use_intra, subs
    )
    losses = hinge(pairs, config.alpha * TERM_MARGINS[kind])
    h = losses.data
    parts = {name: np.bincount(doc[kind == code], h[kind == code], size)
             for code, name in enumerate(TERM_PARTS)}

    with np.errstate(over="ignore"):  # an overflowing sum is the trainer's non-finite loss
        batch_mean = losses.sum() * (1.0 / size) if h.size else Tensor(0.0)
    parts["total"] = parts["l_cross"] + parts["l_intra"] + parts["l_sub"]
    return batch_mean, parts
