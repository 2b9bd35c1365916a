"""Objective-function semantics against brute-force oracles."""

import itertools
import re
import warnings

import numpy as np
import pytest

from doclink import tensor
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig, Representations, batch_representations, init_params
from doclink.errors import BatchError, ConfigError, ShapeMismatchError
from doclink.objective import (
    ObjectiveConfig,
    batch_scores,
    check_k_override,
    hinge,
    neg_tk,
    tk,
    total_loss,
)
from doclink.rng import RngStream
from doclink.encoder import similarity_matrix
from doclink.objective import _sample_subdocument
from doclink.tensor import (
    Tensor, _make, _wrap, concat, matmul, max_reduce, neg, relu, take, transpose,
)

from test_tensor import check_grads, central_diff


def oracle_tk(data: np.ndarray, k: int) -> float:
    """Independent top-k edge average: sort row and column maxima."""
    rows, cols = data.shape
    row_top = np.sort(data.max(axis=1))[::-1][: min(k, rows)]
    col_top = np.sort(data.max(axis=0))[::-1][: min(k, cols)]
    return float(np.concatenate([row_top, col_top]).mean())


def oracle_tk_weights(data: np.ndarray, k: int) -> np.ndarray:
    """d tk / d data, by rule: the strongest min(k, n) rows (columns) by
    their maximum, lower index first among ties, each put 1 on its first
    best cell; the counts are divided by their total."""
    rows, cols = data.shape
    weights = np.zeros_like(data)
    for i in sorted(range(rows), key=lambda i: (-data[i].max(), i))[: min(k, rows)]:
        weights[i, list(data[i]).index(data[i].max())] += 1.0
    for j in sorted(range(cols), key=lambda j: (-data[:, j].max(), j))[: min(k, cols)]:
        weights[list(data[:, j]).index(data[:, j].max()), j] += 1.0
    return weights / weights.sum()


def offsets(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def representations(batch) -> Representations:
    """Per-document (sentences, images) pairs concatenated back into one
    flat batch, with offsets taken from their shapes: the composition
    ``total_loss`` ran before it read the encoder's flat output."""
    return Representations(
        concat([s for s, _ in batch]), concat([v for _, v in batch]),
        offsets([s.shape[0] for s, _ in batch]), offsets([v.shape[0] for _, v in batch]),
    )


def _block_offsets(offsets, size: int, side: str) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != size:
        raise ShapeMismatchError(f"{side} offsets must run from 0 to {size}, got {offsets}")
    if (offsets[1:] <= offsets[:-1]).any():
        raise ShapeMismatchError(f"{side} blocks must be non-empty, got offsets {offsets}")
    return offsets


def _strongest(best: np.ndarray, offsets: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Mask over ``best`` (n, m): per column, the entries whose descending
    rank inside their own block of axis 0 is below ``limit`` (n, m); ties
    rank the lower index first."""
    sizes = np.diff(offsets)
    block = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((-best, np.broadcast_to(block[:, None], best.shape)), axis=0)
    rank = np.empty_like(order)
    rank[order, np.arange(best.shape[1])] = (np.arange(len(block)) - offsets[block])[:, None]
    return rank < limit


def reference_block_tk(s, row_offsets, col_offsets, k=None, diagonal: bool = False) -> Tensor:
    """The objective's former block op, kept as the oracle of
    :func:`doclink.objective.batch_scores`: tk of every (row block, column
    block) sub-matrix of ``s`` as a (row blocks, column blocks) table, or
    with ``diagonal`` the vector of blocks (I, I).  ``k=None`` takes
    min(rows, cols) per block; an int must satisfy 1 <= k <= max(rows,
    cols) on every returned block.  The gradient puts 1/(kr + kc) of a
    block's upstream value on each of its selections."""
    data = s.data
    rows, cols = data.shape
    row_off = _block_offsets(row_offsets, rows, "row")
    col_off = _block_offsets(col_offsets, cols, "column")
    n_r, n_c = np.diff(row_off), np.diff(col_off)
    wanted = np.eye(len(n_r), dtype=bool) if diagonal else np.ones((len(n_r), len(n_c)), bool)
    if k is None:
        k_table = np.minimum.outer(n_r, n_c)
    else:
        bad = np.argwhere(wanted & ((k < 1) | (k > np.maximum.outer(n_r, n_c))))
        if len(bad):
            i, j = bad[0]
            raise ConfigError(
                f"k={k} invalid for a {n_r[i]}x{n_c[j]} matrix; "
                f"need 1 <= k <= {max(n_r[i], n_c[j])}"
            )
        k_table = np.full(wanted.shape, k)
    k_rows = np.minimum(k_table, n_r[:, None])
    k_cols = np.minimum(k_table, n_c[None, :])
    scale = 1.0 / (k_rows + k_cols)
    row_block = np.repeat(np.arange(len(n_r)), n_r)
    col_block = np.repeat(np.arange(len(n_c)), n_c)

    row_best = np.maximum.reduceat(data, col_off[:-1], axis=1)
    first = np.where(data == row_best[:, col_block], np.arange(cols), cols)
    row_arg = np.minimum.reduceat(first, col_off[:-1], axis=1)
    row_kept = _strongest(row_best, row_off, k_rows[row_block]) & wanted[row_block]
    col_best = np.maximum.reduceat(data, row_off[:-1], axis=0).T
    first = np.where(data == col_best[:, row_block].T, np.arange(rows)[:, None], rows)
    col_arg = np.minimum.reduceat(first, row_off[:-1], axis=0).T
    col_kept = _strongest(col_best, col_off, k_cols.T[col_block]) & wanted.T[col_block]

    row_sums = np.add.reduceat(np.where(row_kept, row_best, 0.0), row_off[:-1], axis=0)
    col_sums = np.add.reduceat(np.where(col_kept, col_best, 0.0), col_off[:-1], axis=0)
    out_data = (row_sums + col_sums.T) * scale
    if diagonal:
        out_data = np.diagonal(out_data).copy()

    weights = np.zeros_like(data)
    r, j = np.nonzero(row_kept)
    weights[r, row_arg[r, j]] += 1.0
    c, i = np.nonzero(col_kept)
    weights[col_arg[c, i], c] += 1.0

    def backward_fn(g):
        per_block = (np.diag(g) if diagonal else g) * scale
        return (weights * per_block[row_block][:, col_block],)

    return _make(out_data, (s,), backward_fn, "block_tk")


def composed_hinge(m, n, margin) -> Tensor:
    """``relu(n - m + margin)`` from generic nodes: the oracle of the one-node
    :func:`doclink.objective.hinge`."""
    return relu(_wrap(n) - _wrap(m) + margin)


def reference_total_loss(batch, config, rng, use_cross=True, use_intra=True, use_sub=True):
    """The objective as composed before :func:`batch_scores`: the table,
    the own neg_tk and the sub-document positives from
    :func:`reference_block_tk`, hardest negatives from ``max_reduce``, one
    :func:`composed_hinge` per term; the same draws from ``rng``."""
    size = len(batch)
    reps = representations(batch)
    row_off, col_off = reps.sentence_offsets, reps.image_offsets
    S = similarity_matrix(reps.sentences, reps.images)
    table = reference_block_tk(S, row_off, col_off, config.k_override)
    diag = np.arange(size)
    s_pos = take(table, (diag, diag))
    s_neg = neg(reference_block_tk(neg(S), row_off, col_off, config.k_override, diagonal=True))
    others = table + Tensor(np.where(np.eye(size, dtype=bool), -np.inf, 0.0))
    hardest_for_sentences = max_reduce(others, axis=1)
    hardest_for_images = max_reduce(others, axis=0)

    terms = []
    parts = {name: np.zeros(size) for name in ("l_cross", "l_intra", "l_sub")}
    if use_cross:
        l_cross = composed_hinge(s_pos, hardest_for_sentences, config.alpha) + composed_hinge(
            s_pos, hardest_for_images, config.alpha
        )
        terms.append(l_cross)
        parts["l_cross"] = l_cross.data
    if use_intra:
        l_intra = composed_hinge(s_pos, s_neg, config.alpha / 2.0)
        terms.append(l_intra)
        parts["l_intra"] = l_intra.data
    if use_sub:
        rows, cols, kept = [], [], []
        for i in range(size):
            r = _sample_subdocument(row_off[i + 1] - row_off[i], config.p_sub, rng)
            c = _sample_subdocument(col_off[i + 1] - col_off[i], config.p_sub, rng)
            if r.size and c.size:
                rows.append(r + row_off[i])
                cols.append(c + col_off[i])
                kept.append(i)
        if kept:
            sub = take(S, np.ix_(np.concatenate(rows), np.concatenate(cols)))
            positives = reference_block_tk(
                sub, offsets([r.size for r in rows]), offsets([c.size for c in cols]),
                config.k_override, diagonal=True,
            )
            half = config.alpha / 2.0
            l_sub = composed_hinge(positives, take(hardest_for_sentences, kept), half) + composed_hinge(
                positives, take(hardest_for_images, kept), half
            )
            terms.append(l_sub)
            parts["l_sub"][kept] = l_sub.data

    batch_mean = concat(terms).sum() * (1.0 / size) if terms else Tensor(0.0)
    parts["total"] = parts["l_cross"] + parts["l_intra"] + parts["l_sub"]
    return batch_mean, parts


def oracle_cosine(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    sn = s / np.linalg.norm(s, axis=1, keepdims=True)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    return sn @ vn.T


def normalize(a) -> Tensor:
    """Each row scaled to unit L2 norm, as one node with its own backward."""
    a = _wrap(a)
    inv = ((a.data**2.0).sum(axis=-1, keepdims=True) ** 0.5) ** -1.0
    out_data = a.data * inv

    def backward_fn(g):
        return (inv * (g - out_data * (g * out_data).sum(axis=-1, keepdims=True)),)

    return _make(out_data, (a,), backward_fn, "normalize")


def reference_cosine(s, v) -> Tensor:
    """The cosine matrix as four composed nodes (two normalizes, a transpose
    and a matmul): the oracle of the one-node ``similarity_matrix``."""
    return matmul(normalize(s), transpose(normalize(v)))


def random_reps(rng, n, m, dim=6):
    return Tensor(rng.normal(size=(n, dim))), Tensor(rng.normal(size=(m, dim)))


def terms(batch, config, rng=None):
    """Per-document ``parts`` of total_loss on the pairs of ``batch``; the
    sub-document term is on only when ``rng`` is given to drive its draws."""
    return total_loss(representations(batch), config, rng, use_sub=rng is not None)[1]


class TestHinge:
    def test_worked_examples(self):
        assert hinge([0.5, 0.1], 0.2).item() == 0.0
        np.testing.assert_allclose(hinge([0.1, 0.5], 0.2).item(), 0.6)
        np.testing.assert_allclose(hinge([0.37, 0.37], 0.2).item(), 0.2)

    def test_flat_branch_zero_subgradient(self):
        pairs = Tensor([1.0, 0.0], requires_grad=True)
        tensor.backward(hinge(pairs, 0.2))
        np.testing.assert_array_equal(pairs.grad, [0.0, 0.0])

    def test_active_branch_gradient(self):
        pairs = Tensor([0.0, 1.0], requires_grad=True)
        tensor.backward(hinge(pairs, 0.2))
        np.testing.assert_array_equal(pairs.grad, [-1.0, 1.0])

    def test_finite_differences(self):
        """Per-term margins, with every term away from the kink at 0."""
        rng = np.random.default_rng(30)
        pairs = Tensor(rng.normal(size=(2, 12)), requires_grad=True)
        margin = rng.choice([0.1, 0.05], size=12)
        assert np.abs(pairs.data[1] - pairs.data[0] + margin).min() > 1e-3
        w = Tensor(rng.normal(size=12))
        check_grads(lambda: (hinge(pairs, margin) * w).sum(), [pairs], rtol=1e-6)

    def test_matches_the_composed_oracle(self):
        """Value and gradient bit for bit against :func:`composed_hinge` on
        both rows of the pairs, active and flat terms and exact zeros alike."""
        rng = np.random.default_rng(31)
        data = rng.choice([-0.3, 0.0, 0.1, 0.25], size=(2, 40))
        margin = rng.choice([0.1, 0.05], size=40)
        w = Tensor(rng.normal(size=40))
        results = []
        for build in (lambda p: hinge(p, margin), lambda p: composed_hinge(p[0], p[1], margin)):
            pairs = Tensor(data, requires_grad=True)
            out = build(pairs)
            tensor.backward((out * w).sum())
            results.append((out.data, pairs.grad))
        (value, grad), (want_value, want_grad) = results
        assert (want_value == 0.0).any() and (want_value > 0.0).any()
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grad, want_grad)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 4), (3, 4)])
    def test_first_axis_other_than_two_is_refused(self, shape):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"got {shape}")):
            hinge(Tensor(np.ones(shape)), 0.2)


class TestTk:
    def test_constant_matrix(self):
        M = Tensor(np.full((3, 4), 0.7))
        for k in (1, 2, 3, 4):
            np.testing.assert_allclose(tk(M, k).item(), 0.7)

    def test_worked_example(self):
        M = Tensor([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(tk(M, 2).item(), 0.85)
        np.testing.assert_allclose(neg_tk(M, 2).item(), 0.15)

    def test_perfect_diagonal(self):
        M = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(tk(M, 1).item(), 1.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            data = rng.normal(size=(rows, cols))
            for k in range(1, max(rows, cols) + 1):
                np.testing.assert_allclose(
                    tk(Tensor(data), k).item(), oracle_tk(data, k), atol=1e-12
                )

    def test_neg_tk_identity_and_ordering(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            data = rng.normal(size=(rows, cols))
            k = int(rng.integers(1, max(rows, cols) + 1))
            M = Tensor(data)
            low = neg_tk(M, k).item()
            high = tk(M, k).item()
            assert low == -tk(Tensor(-data), k).item()
            assert data.min() - 1e-12 <= low <= high <= data.max() + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 5))
        for k in (1, 3, 5):
            base = tk(Tensor(data), k).item()
            for _ in range(5):
                p = rng.permutation(4)
                q = rng.permutation(5)
                np.testing.assert_allclose(tk(Tensor(data[p][:, q]), k).item(), base, atol=1e-12)

    def test_k_between_min_and_max(self):
        """k above the short side keeps all of that side's maxima."""
        data = np.array([[0.5, 0.9, 0.1, 0.3, 0.2], [0.4, 0.0, 0.8, 0.6, 0.7]])
        got = tk(Tensor(data), 4).item()
        row_top = [0.9, 0.8]
        col_top = [0.9, 0.8, 0.7, 0.6]
        np.testing.assert_allclose(got, np.mean(row_top + col_top))

    def test_k_validation(self):
        M = Tensor(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            tk(M, 0)
        with pytest.raises(ConfigError):
            tk(M, 4)

    def test_tie_breaks_toward_lower_index(self):
        """Equal row maxima: the earlier row's edge is selected."""
        M = Tensor([[0.5, 0.1], [0.5, 0.1], [0.4, 0.3]], requires_grad=True)
        tensor.backward(tk(M, 1))
        # one row edge (row 0 wins the tie) and one column edge (cell 0,0 again)
        np.testing.assert_allclose(M.grad, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

    def test_gradient_support_and_total(self):
        rng = np.random.default_rng(3)
        data = rng.permutation(20).reshape(4, 5) / 10.0  # distinct entries
        M = Tensor(data, requires_grad=True)
        out = tk(M, 2)
        tensor.backward(out)
        grad = M.grad
        assert (grad >= 0).all()
        np.testing.assert_allclose(grad.sum(), 1.0)
        selected = grad > 0
        assert selected.sum() <= 4
        fd = central_diff(lambda: tk(M, 2), M)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_duplicate_selection_counts_twice(self):
        """A cell that is both the best row edge and best column edge gets
        double weight."""
        M = Tensor([[0.9, 0.1], [0.2, 0.8]], requires_grad=True)
        tensor.backward(tk(M, 1))
        np.testing.assert_allclose(M.grad, [[1.0, 0.0], [0.0, 0.0]])


class TestCrossDocument:
    def config(self, **kw):
        return ObjectiveConfig(**{"alpha": 0.2, **kw})

    def test_identical_documents_cost_two_margins(self):
        rng = np.random.default_rng(4)
        s, v = random_reps(rng, 3, 3)
        losses = terms([(s, v), (s, v)], self.config())["l_cross"]
        np.testing.assert_allclose(losses, [0.4, 0.4], atol=1e-12)

    def test_satisfied_margin_is_free(self):
        """Positives at 1, negatives far below the margin: zero loss."""
        s0 = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        v0 = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        s1 = Tensor(np.array([[0.0, 1.0], [0.0, 1.0]]))
        v1 = Tensor(np.array([[0.0, 1.0], [0.0, 1.0]]))
        losses = terms([(s0, v0), (s1, v1)], self.config())["l_cross"]
        np.testing.assert_allclose(losses, [0.0, 0.0])

    def test_three_document_brute_force(self):
        rng = np.random.default_rng(5)
        batch = [random_reps(rng, n, m) for n, m in ((3, 4), (2, 5), (4, 2))]
        config = self.config()
        losses = terms(batch, config)["l_cross"]

        mats = {}
        for i, (s, _) in enumerate(batch):
            for j, (_, v) in enumerate(batch):
                mats[i, j] = oracle_cosine(s.data, v.data)
        for i in range(3):
            pos = oracle_tk(mats[i, i], min(mats[i, i].shape))
            sent = max(
                max(0.0, oracle_tk(mats[i, j], min(mats[i, j].shape)) - pos + 0.2)
                for j in range(3)
                if j != i
            )
            img = max(
                max(0.0, oracle_tk(mats[j, i], min(mats[j, i].shape)) - pos + 0.2)
                for j in range(3)
                if j != i
            )
            np.testing.assert_allclose(losses[i], sent + img, atol=1e-12)

    def test_small_batch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(BatchError):
            terms([random_reps(rng, 2, 2)], self.config())


class TestIntraDocument:
    """Document 0's own cosine matrix is set through its representations;
    document 1 only completes the batch."""

    def test_constant_matrix_costs_half_margin(self):
        s = Tensor(np.tile([1.0, 0.0], (3, 1)))
        v = Tensor(np.tile([0.4, np.sqrt(1.0 - 0.16)], (3, 1)))
        np.testing.assert_allclose(oracle_cosine(s.data, v.data), np.full((3, 3), 0.4))
        batch = [(s, v), random_reps(np.random.default_rng(23), 3, 3, dim=2)]
        losses = terms(batch, ObjectiveConfig(alpha=0.2))["l_intra"]
        np.testing.assert_allclose(losses[0], 0.1)

    def test_large_gap_is_free(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0]])  # cosine matrix [[1, -1], [-1, 1]]
        batch = [(Tensor(e), Tensor(e)), random_reps(np.random.default_rng(24), 2, 2, dim=2)]
        losses = terms(batch, ObjectiveConfig(alpha=0.2, k_override=1))["l_intra"]
        np.testing.assert_allclose(losses[0], 0.0)

    def test_random_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        config = ObjectiveConfig(alpha=0.2)
        for _ in range(50):
            batch = [random_reps(rng, 4, 5), random_reps(rng, 5, 4)]
            losses = terms(batch, config)["l_intra"]
            k = 4
            for (s, v), loss in zip(batch, losses):
                data = oracle_cosine(s.data, v.data)
                want = max(0.0, -oracle_tk(-data, k) - oracle_tk(data, k) + 0.1)
                np.testing.assert_allclose(loss, want, atol=1e-12)
                assert (loss > 0) == (oracle_tk(data, k) + oracle_tk(-data, k) < 0.1)


class TestDropoutSubdocument:
    def test_identity_dropout_matches_cross_at_half_margin(self):
        rng = np.random.default_rng(8)
        batch = [random_reps(rng, 3, 4), random_reps(rng, 4, 3), random_reps(rng, 2, 2)]
        full = terms(batch, ObjectiveConfig(alpha=0.2, p_sub=1.0), RngStream(0))["l_sub"]
        halved = terms(batch, ObjectiveConfig(alpha=0.1))["l_cross"]
        np.testing.assert_allclose(full, halved, atol=1e-12)

    def test_keep_counts_floor(self):
        from doclink.objective import _sample_subdocument

        kept = _sample_subdocument(5, 0.6, RngStream(1))
        assert kept.size == 3
        assert (np.diff(kept) > 0).all()
        kept = _sample_subdocument(5, 0.8, RngStream(2))
        assert kept.size == 4

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(9)
        batch = [random_reps(rng, 5, 5), random_reps(rng, 5, 5)]
        config = ObjectiveConfig(alpha=0.2, p_sub=0.6)
        a = terms(batch, config, RngStream(77))["l_sub"]
        b = terms(batch, config, RngStream(77))["l_sub"]
        np.testing.assert_array_equal(a, b)

    def test_degenerate_draw_zeroes_without_warning(self):
        """The per-run warning comes from train(); the step stays silent."""
        rng = np.random.default_rng(10)
        batch = [random_reps(rng, 1, 3), random_reps(rng, 3, 3)]
        config = ObjectiveConfig(alpha=0.2, p_sub=0.6)  # floor(0.6*1)=0 sentences
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses = terms(batch, config, RngStream(3))["l_sub"]
        assert losses[0] == 0.0
        assert losses[1] >= 0.0


class TestTotalLoss:
    def test_additivity_and_mean(self):
        rng = np.random.default_rng(11)
        batch = [random_reps(rng, 3, 3), random_reps(rng, 4, 2), random_reps(rng, 2, 4)]
        mean_loss, parts = total_loss(
            representations(batch), ObjectiveConfig(alpha=0.2, p_sub=0.8), RngStream(5)
        )
        np.testing.assert_allclose(
            parts["total"], parts["l_cross"] + parts["l_intra"] + parts["l_sub"], atol=1e-12
        )
        for name in ("l_cross", "l_intra", "l_sub"):
            assert (parts[name] >= 0).all()
        np.testing.assert_allclose(mean_loss.item(), np.mean(parts["total"]), atol=1e-12)

    def test_toggles_disable_components(self):
        rng = np.random.default_rng(12)
        batch = [random_reps(rng, 3, 3), random_reps(rng, 3, 3)]
        mean_loss, parts = total_loss(
            representations(batch),
            ObjectiveConfig(alpha=0.2),
            RngStream(6),
            use_cross=False,
            use_intra=False,
            use_sub=False,
        )
        assert mean_loss.item() == 0.0
        np.testing.assert_array_equal(parts["total"], np.zeros(2))

    def test_sub_document_objective_needs_an_rng(self):
        """With ``use_sub`` on, a None rng is refused before the first draw;
        with it off, None stays the documented way to call."""
        rng = np.random.default_rng(13)
        reps = representations([random_reps(rng, 3, 3), random_reps(rng, 3, 3)])
        with pytest.raises(ConfigError, match="sub-document objective draws from an rng; got None"):
            total_loss(reps, ObjectiveConfig(), None)
        _, parts = total_loss(reps, ObjectiveConfig(), None, use_sub=False)
        np.testing.assert_array_equal(parts["l_sub"], np.zeros(2))

    def test_gradient_reaches_representations(self):
        rng = np.random.default_rng(14)
        s0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        s1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        batch = [(s0, v0), (s1, v1)]
        config = ObjectiveConfig(alpha=0.5, p_sub=0.7)

        def build():
            mean_loss, _ = total_loss(representations(batch), config, RngStream(9))
            return mean_loss

        tensor.backward(build())
        for leaf in (s0, v0, s1, v1):
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-4, atol=1e-7)

    @staticmethod
    def acceptance_step():
        """The representations, loss and parameters of one training step at
        the acceptance shape: 11 documents of 5x5, 3 objects of width 16,
        embed 16, one layer per tower."""
        corpus = generate_synthetic(
            SynthConfig(
                train_docs=11, val_docs=0, test_docs=0,
                sentences_per_doc=5, images_per_doc=5, density=0.2,
                vocab_size=200, obj_dim=16, objects_per_image=3,
                sentence_len=8, concept_len=2, tokens_per_cluster=4, sigma=0.1,
            ),
            RngStream(100),
        )
        config = ModelConfig(
            vocab_size=200, obj_dim=16, embed_dim=16, sentence_layers=1,
            image_layers=1, heads=2, word_dim=16, max_sentence_len=12,
        )
        params = init_params(config, RngStream(0))
        reps = batch_representations(corpus.split_documents("train"), params, config)
        loss, _ = total_loss(reps, ObjectiveConfig(), RngStream(1))
        return reps, loss, params

    def test_training_graph_uses_only_the_primitives(self):
        """One training step at the acceptance shape builds its graph from
        exactly these ops; the composed ones (embedding, transpose, mean, ...)
        leave no node of their own, and the fused encoder ops leave no
        softmax or reshape."""
        _, loss, params = self.acceptance_step()
        names, seen, todo = set(), set(), [loss]
        while todo:
            t = todo.pop()
            if t.node is not None and id(t) not in seen:
                seen.add(id(t))
                names.add(t.node.name)
                todo.extend(t.node.parents)
        assert names == {
            "add", "attention_sublayer", "batch_scores", "cosine",
            "feed_forward_sublayer", "layernorm", "hinge", "linear", "masked_mean", "mul",
            "segment_tokens", "sum", "take",
        }
        tensor.backward(loss)
        assert all(p.grad is not None for p in params.named_parameters().values())

    def test_step_graph_size_at_b11(self):
        """At the acceptance shape a step's graph has 21 nodes: 16 from the
        encoder (the two pooled representations and everything below them;
        128 before linear, attention and masked_mean were fused, 60 before
        each transformer layer went from eight nodes to four, 52 while the
        batch was sliced per document, 30 before each layer became two
        sublayer nodes and each image side's tokens one segment_tokens
        node, 18 before one segment_tokens node built both sides, with no
        concat to join them) and the objective's 5 (43 before batch_scores,
        15 before the cosine became one node, 12 while it concatenated the
        slices back, 10 before the hinge became one node)."""
        reps, loss, _ = self.acceptance_step()
        encoder = count_nodes(reps.sentences, reps.images)
        assert (encoder, count_nodes(loss)) == (16, 21)

    def test_flat_matches_the_per_document_pairs(self):
        """The encoder's flat representations and its per-document pairs
        concatenated back give the same loss, parts and parameter
        gradients, bit for bit.  A backward consumes its graph, so each form
        is encoded into its own graph from the same seed."""
        results = []
        for form in (lambda reps: reps, lambda reps: representations(list(reps))):
            reps, _, params = self.acceptance_step()
            loss, parts = total_loss(form(reps), ObjectiveConfig(), RngStream(1))
            tensor.backward(loss)
            grads = {name: p.grad for name, p in params.named_parameters().items()}
            results.append((loss.data, parts, grads))
        (loss, parts, grads), (old_loss, old_parts, old_grads) = results
        np.testing.assert_array_equal(loss, old_loss)
        assert sorted(parts) == sorted(old_parts)
        for name in parts:
            np.testing.assert_array_equal(parts[name], old_parts[name], err_msg=name)
        for name in grads:
            np.testing.assert_array_equal(grads[name], old_grads[name], err_msg=name)

    def test_representations_slice_per_document(self):
        """``len`` counts documents and ``reps[i]`` is document i's slice of
        each side, as the encoder's per-document loop cut it; an index past
        the end raises IndexError, which ends iteration."""
        reps, _, _ = self.acceptance_step()
        assert len(reps) == 11
        for i in range(11):
            sent, img = reps[i]
            np.testing.assert_array_equal(sent.data, reps.sentences.data[5 * i : 5 * i + 5])
            np.testing.assert_array_equal(img.data, reps.images.data[5 * i : 5 * i + 5])
        with pytest.raises(IndexError):
            reps[11]
        assert len(list(reps)) == 11
        batch = ragged_batch(np.random.default_rng(27), 4)
        flat = representations(batch)
        assert len(flat) == 4
        for (sent, img), (s, v) in zip(flat, batch):
            np.testing.assert_array_equal(sent.data, s.data)
            np.testing.assert_array_equal(img.data, v.data)
        with pytest.raises(IndexError):
            flat[4]


def ragged_batch(rng, size, least=1, most=6, dim=6):
    return [
        random_reps(rng, int(rng.integers(least, most + 1)), int(rng.integers(least, most + 1)), dim)
        for _ in range(size)
    ]


def count_nodes(*roots) -> int:
    seen, stack = set(), list(roots)
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.node.parents)
    return len(seen)


class TestBlockTk:
    """:func:`reference_block_tk`, the oracle of ``batch_scores``, against
    the brute-force ``oracle_tk``; and ``tk``, the one-block case of the
    same selection as ``batch_scores``."""

    def test_every_block_matches_oracle(self):
        """Ragged blocks, rounded entries (ties), default k and k_override."""
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = rng.integers(1, 7, size=int(rng.integers(1, 6)))
            m = rng.integers(1, 7, size=int(rng.integers(1, 6)))
            data = np.round(rng.normal(size=(n.sum(), m.sum())), 1)
            ro, co = offsets(n), offsets(m)
            smallest = int(np.maximum.outer(n, m).min())
            for k in (None, *range(1, smallest + 1)):
                table = reference_block_tk(Tensor(data), ro, co, k).data
                assert table.shape == (len(n), len(m))
                for i in range(len(n)):
                    for j in range(len(m)):
                        block = data[ro[i]:ro[i + 1], co[j]:co[j + 1]]
                        want = oracle_tk(block, min(block.shape) if k is None else k)
                        np.testing.assert_allclose(table[i, j], want, atol=1e-12)

    def test_single_block_matches_oracle(self):
        """One block (``tk``): the oracle's value, and the gradient
        1/(kr + kc) per selection, where ties pick the lower index and a
        cell chosen by both sides counts twice."""
        rng = np.random.default_rng(23)
        for _ in range(150):
            rows, cols = (int(n) for n in rng.integers(1, 9, size=2))
            data = np.round(rng.normal(size=(rows, cols)))  # many ties
            for k in (None, *range(1, max(rows, cols) + 1)):
                kk = min(rows, cols) if k is None else k
                S = Tensor(data, requires_grad=True)
                out = tk(S, k)
                assert out.shape == ()
                np.testing.assert_allclose(out.item(), oracle_tk(data, kk), atol=1e-12)
                tensor.backward(out)
                np.testing.assert_allclose(S.grad, oracle_tk_weights(data, kk), atol=1e-12)
        with pytest.raises(ConfigError, match=r"^k=4 invalid for a 2x3 matrix; need 1 <= k <= 3$"):
            tk(Tensor(np.zeros((2, 3))), 4)

    def test_gradient_is_the_per_block_tk_gradient(self):
        rng = np.random.default_rng(16)
        n, m = np.array([2, 4, 1]), np.array([3, 2, 5])
        data = np.round(rng.normal(size=(7, 10)), 1)
        upstream = rng.normal(size=(3, 3))
        S = Tensor(data, requires_grad=True)
        tensor.backward((reference_block_tk(S, offsets(n), offsets(m), 2) * Tensor(upstream)).sum())
        ro, co = offsets(n), offsets(m)
        for i in range(3):
            for j in range(3):
                block = Tensor(data[ro[i]:ro[i + 1], co[j]:co[j + 1]], requires_grad=True)
                tensor.backward(tk(block, 2) * upstream[i, j])
                np.testing.assert_allclose(
                    S.grad[ro[i]:ro[i + 1], co[j]:co[j + 1]], block.grad, atol=1e-12
                )

    def test_diagonal_is_the_table_diagonal(self):
        rng = np.random.default_rng(17)
        n, m = np.array([3, 1, 4]), np.array([2, 5, 4])
        data = rng.normal(size=(8, 11))
        table = reference_block_tk(Tensor(data), offsets(n), offsets(m)).data
        diag = reference_block_tk(Tensor(data), offsets(n), offsets(m), diagonal=True).data
        np.testing.assert_array_equal(diag, np.diagonal(table))

    def test_k_checked_only_on_returned_blocks(self):
        """Off-diagonal 1x1 blocks do not bound k when only diagonals are asked for."""
        data = np.arange(16.0).reshape(4, 4)
        ro, co = [0, 1, 4], [0, 3, 4]  # diagonal blocks 1x3 and 3x1
        assert reference_block_tk(Tensor(data), ro, co, 3, diagonal=True).shape == (2,)
        with pytest.raises(ConfigError, match="1x1"):
            reference_block_tk(Tensor(data), ro, co, 3)

    @pytest.mark.parametrize("row_offsets,message", [
        ([0, 2, 2, 4], "row blocks must be non-empty"),
        ([0, 3, 2, 4], "row blocks must be non-empty"),
        ([1, 4], "row offsets must run from 0 to 4"),
        ([0, 3], "row offsets must run from 0 to 4"),
        ([0], "row offsets must run from 0 to 4"),
    ])
    def test_bad_offsets_rejected(self, row_offsets, message):
        with pytest.raises(ShapeMismatchError, match=message):
            reference_block_tk(Tensor(np.zeros((4, 3))), row_offsets, [0, 3])

    def test_finite_differences(self):
        rng = np.random.default_rng(18)
        S = Tensor(rng.permutation(48).reshape(6, 8) / 10.0, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: (reference_block_tk(S, [0, 2, 3, 6], [0, 5, 8]) * w).sum(), [S], rtol=1e-6)
        check_grads(lambda: reference_block_tk(S, [0, 4, 6], [0, 3, 8], 2, diagonal=True).sum(), [S])


class TestCosine:
    """``similarity_matrix``, one ``cosine`` node, against finite
    differences and against :func:`reference_cosine`, bit for bit."""

    def test_finite_differences(self):
        """Both inputs in float64; a cosine does not see a row's scale, so
        each row's gradient is orthogonal to the row."""
        rng = np.random.default_rng(19)
        s = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)))
        check_grads(lambda: (similarity_matrix(s, v) * w).sum(), [s, v], rtol=1e-6)
        for leaf in (s, v):
            np.testing.assert_allclose((leaf.grad * leaf.data).sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n,m,dim", [(1, 1, 1), (4, 7, 5), (55, 55, 16), (9, 3, 64)])
    def test_bit_identical_to_the_composed_ops(self, n, m, dim):
        rng = np.random.default_rng(n * m * dim)
        data = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
        w = rng.normal(size=(n, m))
        results = []
        for build in (reference_cosine, similarity_matrix):
            s, v = (Tensor(x, requires_grad=True) for x in data)
            out = build(s, v)
            tensor.backward((out * w).sum())
            results.append((out.data, s.grad, v.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_array_equal(got, want)

    def test_acceptance_step_bit_identical_to_the_composed_ops(self, monkeypatch):
        """Every parameter gradient of a training step, through the
        objective's consumers of the matrix."""
        grads = []
        for cosine in (reference_cosine, similarity_matrix):
            monkeypatch.setattr("doclink.objective.similarity_matrix", cosine)
            _, loss, params = TestTotalLoss.acceptance_step()
            tensor.backward(loss)
            grads.append({name: p.grad for name, p in params.named_parameters().items()})
        for name, want in grads[0].items():
            np.testing.assert_array_equal(grads[1][name], want, err_msg=name)

    def test_one_node_over_both_inputs(self):
        s = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor(np.ones((4, 3)), requires_grad=True)
        out = similarity_matrix(s, v)
        assert out.node.name == "cosine" and out.node.parents == (s, v)
        assert count_nodes(out) == 1

    def test_arrays_are_accepted(self):
        np.testing.assert_array_equal(similarity_matrix(np.eye(2), np.eye(2)).data, np.eye(2))

    @pytest.mark.parametrize("s_shape,v_shape", [
        ((2, 3), (4, 5)), ((3,), (3,)), ((3,), (2, 3)), ((2, 3), (1, 2, 3)), ((), (2, 3)),
    ])
    def test_shape_mismatch_names_both_shapes(self, s_shape, v_shape):
        message = re.escape(f"got {s_shape} and {v_shape}")
        with pytest.raises(ShapeMismatchError, match=message):
            similarity_matrix(Tensor(np.ones(s_shape)), Tensor(np.ones(v_shape)))


class TestBatchedTotalLoss:
    def test_graph_size_at_b11(self):
        """The objective's graph does not grow with B: 5 nodes at B = 11 on
        5x5 documents (the per-pair graph had 2268, the block-op one 43, the
        four-node cosine one 15, the one that concatenated per-document
        pairs back 12, the composed hinge one 10): the cosine, batch_scores,
        hinge, and the sum and scale of the batch mean."""
        rng = np.random.default_rng(20)
        reps = Representations(
            Tensor(rng.normal(size=(55, 16)), requires_grad=True),
            Tensor(rng.normal(size=(55, 16)), requires_grad=True),
            offsets([5] * 11), offsets([5] * 11),
        )
        loss, _ = total_loss(reps, ObjectiveConfig(), RngStream(1))
        nodes = count_nodes(loss)
        assert nodes == 5

    @pytest.mark.parametrize("k_override,least", [(None, 1), (1, 1), (2, 3)])
    def test_per_document_terms_match_pairwise_oracle(self, k_override, least):
        rng = np.random.default_rng(21)
        alpha, p_sub = 0.3, 0.7
        config = ObjectiveConfig(alpha=alpha, p_sub=p_sub, k_override=k_override)
        for trial in range(15):
            batch = ragged_batch(rng, int(rng.integers(2, 7)), least=least, most=5)
            size = len(batch)
            _, parts = total_loss(representations(batch), config, RngStream(trial))

            def k_for(block):
                return min(block.shape) if k_override is None else k_override

            mats = {(i, j): oracle_cosine(batch[i][0].data, batch[j][1].data)
                    for i in range(size) for j in range(size)}
            pair_tk = {key: oracle_tk(mat, k_for(mat)) for key, mat in mats.items()}
            draws = RngStream(trial)
            for i in range(size):
                own = mats[i, i]
                pos, low = pair_tk[i, i], -oracle_tk(-own, k_for(own))
                np.testing.assert_allclose(parts["l_intra"][i],
                                           max(0.0, low - pos + alpha / 2), atol=1e-12)
                kept = []
                for count in own.shape:  # rows, then columns
                    keep = int(np.floor(p_sub * count))
                    kept.append(np.sort(draws.choice(count, size=keep, replace=False))
                                if keep >= 1 else np.array([], dtype=int))
                if min(len(kept[0]), len(kept[1])) == 0:
                    assert parts["l_sub"][i] == 0.0
                    continue
                sub = own[np.ix_(kept[0], kept[1])]
                sub_pos = oracle_tk(sub, k_for(sub))
                hard_s = max(pair_tk[i, j] for j in range(size) if j != i)
                hard_v = max(pair_tk[j, i] for j in range(size) if j != i)
                want = max(0.0, hard_s - sub_pos + alpha / 2) + max(0.0, hard_v - sub_pos + alpha / 2)
                np.testing.assert_allclose(parts["l_sub"][i], want, atol=1e-12)

    def test_breakdowns_add_no_graph_nodes(self):
        rng = np.random.default_rng(22)
        batch = [random_reps(rng, 3, 4), random_reps(rng, 4, 3)]
        for s, v in batch:
            s.requires_grad = v.requires_grad = True
        loss, parts = total_loss(representations(batch), ObjectiveConfig(), RngStream(2))
        assert loss.node is not None
        assert sorted(parts) == ["l_cross", "l_intra", "l_sub", "total"]
        for value in parts.values():
            assert type(value) is np.ndarray and value.shape == (2,)


def tied_batch(rng, size, least, most):
    """Ragged documents whose 2-D representations take few values, so the
    cosine matrix is full of exact ties."""
    def reps(count):
        return Tensor(rng.choice([-1.0, 1.0, 2.0], size=(count, 2)), requires_grad=True)

    return [
        (reps(int(rng.integers(least, most + 1))), reps(int(rng.integers(least, most + 1))))
        for _ in range(size)
    ]


class TestBatchScores:
    @pytest.mark.parametrize("k_override,least", [(None, 1), (1, 1), (2, 3)])
    def test_matches_the_composed_reference(self, k_override, least):
        """Every toggle combination on ragged, tied batches: the same parts,
        loss and representation gradients as :func:`reference_total_loss`;
        parts and gradients bit for bit."""
        rng = np.random.default_rng(25)
        config = ObjectiveConfig(alpha=0.3, p_sub=0.7, k_override=k_override)
        for trial in range(12):
            batch = tied_batch(rng, int(rng.integers(2, 7)), least, 5)
            leaves = [t for pair in batch for t in pair]
            for toggles in itertools.product((True, False), repeat=3):
                results = []
                for fn, arg in ((total_loss, representations(batch)),
                                (reference_total_loss, batch)):
                    for leaf in leaves:
                        leaf.zero_grad()
                    loss, parts = fn(arg, config, RngStream(trial), *toggles)
                    tensor.backward(loss)
                    grads = [np.zeros(t.shape) if t.grad is None else t.grad for t in leaves]
                    results.append((loss.item(), parts, grads))
                (loss, parts, grads), (ref_loss, ref_parts, ref_grads) = results
                np.testing.assert_allclose(loss, ref_loss, rtol=0, atol=1e-12)
                assert sorted(parts) == sorted(ref_parts)
                for name in parts:
                    np.testing.assert_array_equal(parts[name], ref_parts[name])
                for got, want in zip(grads, ref_grads):
                    np.testing.assert_array_equal(got, want)

    def test_finite_differences(self):
        """Distinct entries keep every selection and argmax away from a tie."""
        rng = np.random.default_rng(26)
        S = Tensor(rng.permutation(99).reshape(9, 11) / 10.0, requires_grad=True)
        row_off, col_off = [0, 2, 5, 9], [0, 4, 7, 11]
        subs = [(0, np.array([0, 1]), np.array([1, 3])), (2, np.array([5, 7, 8]), np.array([8, 10]))]
        w = Tensor(rng.normal(size=(2, 13)))

        def build():
            pairs, _ = batch_scores(S, row_off, col_off, 2, subs=subs)
            return (pairs * w).sum()

        check_grads(build, [S], rtol=1e-6)

    def test_k_outside_a_block_is_named(self):
        S = Tensor(np.zeros((3, 3)))
        with pytest.raises(ConfigError, match=r"^k=3 invalid for a 1x2 matrix; need 1 <= k <= 2$"):
            batch_scores(S, [0, 1, 3], [0, 2, 3], 3)


class TestKOverrideCheck:
    def test_cross_pairing_named(self):
        shapes = [("a", 2, 5), ("b", 5, 1)]
        with pytest.raises(ConfigError, match=r"2x1 pairing of document 'a' sentences"):
            check_k_override(shapes, ObjectiveConfig(k_override=3, p_sub=1.0))
        check_k_override(shapes, ObjectiveConfig(k_override=2, p_sub=1.0))

    def test_sub_document_only_when_used(self):
        shapes = [("d0", 5, 5), ("d1", 5, 5)]
        config = ObjectiveConfig(k_override=4, p_sub=0.6)
        with pytest.raises(ConfigError, match=r"3x3 sub-document of document 'd0'"):
            check_k_override(shapes, config)
        check_k_override(shapes, config, use_sub=False)
