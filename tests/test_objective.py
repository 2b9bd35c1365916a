"""Objective-function semantics against brute-force oracles."""

import warnings

import numpy as np
import pytest

from doclink import tensor
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig, batch_representations, init_params
from doclink.errors import BatchError, ConfigError
from doclink.objective import (
    ObjectiveConfig,
    check_k_override,
    hinge,
    neg_tk,
    tk,
    total_loss,
)
from doclink.rng import RngStream
from doclink.tensor import Tensor, block_tk, normalize_rows

from test_tensor import check_grads, central_diff


def oracle_tk(data: np.ndarray, k: int) -> float:
    """Independent top-k edge average: sort row and column maxima."""
    rows, cols = data.shape
    row_top = np.sort(data.max(axis=1))[::-1][: min(k, rows)]
    col_top = np.sort(data.max(axis=0))[::-1][: min(k, cols)]
    return float(np.concatenate([row_top, col_top]).mean())


def oracle_cosine(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    sn = s / np.linalg.norm(s, axis=1, keepdims=True)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    return sn @ vn.T


def random_reps(rng, n, m, dim=6):
    return Tensor(rng.normal(size=(n, dim))), Tensor(rng.normal(size=(m, dim)))


def terms(batch, config, rng=None):
    """Per-document ``parts`` of total_loss; the sub-document term is on
    only when ``rng`` is given to drive its draws."""
    return total_loss(batch, config, rng, use_sub=rng is not None)[1]


class TestHinge:
    def test_worked_examples(self):
        assert hinge(0.5, 0.1, 0.2).item() == 0.0
        np.testing.assert_allclose(hinge(0.1, 0.5, 0.2).item(), 0.6)
        np.testing.assert_allclose(hinge(0.37, 0.37, 0.2).item(), 0.2)

    def test_flat_branch_zero_subgradient(self):
        m = Tensor(1.0, requires_grad=True)
        n = Tensor(0.0, requires_grad=True)
        tensor.backward(hinge(m, n, 0.2))
        assert m.grad == 0.0 and n.grad == 0.0

    def test_active_branch_gradient(self):
        m = Tensor(0.0, requires_grad=True)
        n = Tensor(1.0, requires_grad=True)
        tensor.backward(hinge(m, n, 0.2))
        assert m.grad == -1.0 and n.grad == 1.0


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
        mean_loss, parts = total_loss(batch, ObjectiveConfig(alpha=0.2, p_sub=0.8), RngStream(5))
        np.testing.assert_allclose(
            parts["total"], parts["l_cross"] + parts["l_intra"] + parts["l_sub"], atol=1e-12
        )
        for name in ("l_cross", "l_intra", "l_sub"):
            assert (parts[name] >= 0).all()
        assert (-1.0 <= parts["s_neg"]).all() and (parts["s_neg"] <= parts["s_pos"]).all()
        assert (parts["s_pos"] <= 1.0).all()
        np.testing.assert_allclose(mean_loss.item(), np.mean(parts["total"]), atol=1e-12)

    def test_toggles_disable_components(self):
        rng = np.random.default_rng(12)
        batch = [random_reps(rng, 3, 3), random_reps(rng, 3, 3)]
        mean_loss, parts = total_loss(
            batch,
            ObjectiveConfig(alpha=0.2),
            RngStream(6),
            use_cross=False,
            use_intra=False,
            use_sub=False,
        )
        assert mean_loss.item() == 0.0
        np.testing.assert_array_equal(parts["total"], np.zeros(2))

    def test_gradient_reaches_representations(self):
        rng = np.random.default_rng(14)
        s0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        s1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        batch = [(s0, v0), (s1, v1)]
        config = ObjectiveConfig(alpha=0.5, p_sub=0.7)

        def build():
            mean_loss, _ = total_loss(batch, config, RngStream(9))
            return mean_loss

        tensor.backward(build())
        for leaf in (s0, v0, s1, v1):
            fd = central_diff(build, leaf)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-4, atol=1e-7)

    def test_training_graph_uses_only_the_primitives(self):
        """One training step at the acceptance shape (11 documents of 5x5,
        3 objects of width 16, embed 16) builds its graph from exactly these
        ops; the composed ones (embedding, transpose, mean, ...) leave no
        node of their own."""
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
        names, seen, todo = set(), set(), [loss]
        while todo:
            t = todo.pop()
            if t.node is not None and id(t) not in seen:
                seen.add(id(t))
                names.add(t.node.name)
                todo.extend(t.node.parents)
        assert names == {
            "add", "block_tk", "concat", "layernorm", "matmul", "max", "mul", "neg",
            "normalize", "relu", "reshape", "softmax", "sum", "swapaxes", "take",
        }
        tensor.backward(loss)
        assert all(p.grad is not None for p in params.named_parameters().values())


def ragged_batch(rng, size, least=1, most=6, dim=6):
    return [
        random_reps(rng, int(rng.integers(least, most + 1)), int(rng.integers(least, most + 1)), dim)
        for _ in range(size)
    ]


def offsets(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def count_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.node.parents)
    return len(seen)


class TestBlockTk:
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
                table = block_tk(Tensor(data), ro, co, k).data
                assert table.shape == (len(n), len(m))
                for i in range(len(n)):
                    for j in range(len(m)):
                        block = data[ro[i]:ro[i + 1], co[j]:co[j + 1]]
                        want = oracle_tk(block, min(block.shape) if k is None else k)
                        np.testing.assert_allclose(table[i, j], want, atol=1e-12)

    def test_gradient_is_the_per_block_tk_gradient(self):
        rng = np.random.default_rng(16)
        n, m = np.array([2, 4, 1]), np.array([3, 2, 5])
        data = np.round(rng.normal(size=(7, 10)), 1)
        upstream = rng.normal(size=(3, 3))
        S = Tensor(data, requires_grad=True)
        tensor.backward((block_tk(S, offsets(n), offsets(m), 2) * Tensor(upstream)).sum())
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
        table = block_tk(Tensor(data), offsets(n), offsets(m)).data
        diag = block_tk(Tensor(data), offsets(n), offsets(m), diagonal=True).data
        np.testing.assert_array_equal(diag, np.diagonal(table))

    def test_k_checked_only_on_returned_blocks(self):
        """Off-diagonal 1x1 blocks do not bound k when only diagonals are asked for."""
        data = np.arange(16.0).reshape(4, 4)
        ro, co = [0, 1, 4], [0, 3, 4]  # diagonal blocks 1x3 and 3x1
        assert block_tk(Tensor(data), ro, co, 3, diagonal=True).shape == (2,)
        with pytest.raises(ConfigError, match="1x1"):
            block_tk(Tensor(data), ro, co, 3)

    def test_finite_differences(self):
        rng = np.random.default_rng(18)
        S = Tensor(rng.permutation(48).reshape(6, 8) / 10.0, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: (block_tk(S, [0, 2, 3, 6], [0, 5, 8]) * w).sum(), [S], rtol=1e-6)
        check_grads(lambda: block_tk(S, [0, 4, 6], [0, 3, 8], 2, diagonal=True).sum(), [S])

    def test_normalize_rows_finite_differences(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)))
        np.testing.assert_allclose(
            np.linalg.norm(normalize_rows(x).data, axis=1), np.ones(4), atol=1e-12
        )
        check_grads(lambda: (normalize_rows(x) * w).sum(), [x], rtol=1e-6)


class TestBatchedTotalLoss:
    def test_graph_size_at_b11(self):
        """The objective's graph no longer grows with B^2: 43 nodes at B = 11
        on 5x5 documents (the per-pair graph had 2268)."""
        rng = np.random.default_rng(20)
        batch = [
            (Tensor(rng.normal(size=(5, 16)), requires_grad=True),
             Tensor(rng.normal(size=(5, 16)), requires_grad=True))
            for _ in range(11)
        ]
        loss, _ = total_loss(batch, ObjectiveConfig(), RngStream(1))
        nodes = count_nodes(loss)
        assert nodes <= 480
        assert nodes == 43

    @pytest.mark.parametrize("k_override,least", [(None, 1), (1, 1), (2, 3)])
    def test_per_document_terms_match_pairwise_oracle(self, k_override, least):
        rng = np.random.default_rng(21)
        alpha, p_sub = 0.3, 0.7
        config = ObjectiveConfig(alpha=alpha, p_sub=p_sub, k_override=k_override)
        for trial in range(15):
            batch = ragged_batch(rng, int(rng.integers(2, 7)), least=least, most=5)
            size = len(batch)
            _, parts = total_loss(batch, config, RngStream(trial))

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
        loss, parts = total_loss(batch, ObjectiveConfig(), RngStream(2))
        assert loss.node is not None
        assert sorted(parts) == ["l_cross", "l_intra", "l_sub", "s_neg", "s_pos", "total"]
        for value in parts.values():
            assert type(value) is np.ndarray and value.shape == (2,)


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
