"""Optimizer, schedule, and training-loop checks."""

import json
import warnings

import numpy as np
import pytest

from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig
from doclink.errors import BatchError, ConfigError, NonFiniteError
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.tensor import Tensor
from doclink.trainer import (
    OptimizerState,
    TrainConfig,
    TrainState,
    adam_step,
    load_checkpoint,
    lr_at,
    make_batches,
    save_checkpoint,
    train,
)


def tiny_corpus(seed=0, train_docs=6):
    config = SynthConfig(
        train_docs=train_docs,
        val_docs=2,
        test_docs=2,
        sentences_per_doc=3,
        images_per_doc=3,
        density=1 / 3,
        vocab_size=120,
        obj_dim=8,
        objects_per_image=2,
        sentence_len=4,
        concept_len=2,
        tokens_per_cluster=4,
        sigma=0.05,
    )
    return generate_synthetic(config, RngStream(seed))


def tiny_model_config():
    return ModelConfig(
        vocab_size=120,
        obj_dim=8,
        embed_dim=8,
        sentence_layers=1,
        image_layers=1,
        heads=2,
        word_dim=8,
        max_sentence_len=8,
    )


def tiny_train_config(**kw):
    base = dict(max_lr=5e-3, warmup_steps=5, batch_size=4, max_epochs=3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_warmup_endpoints_and_midpoint(self):
        config = tiny_train_config(max_lr=1e-3, warmup_steps=100)
        assert lr_at(0, config) == 1e-7
        assert lr_at(100, config) == 1e-3
        np.testing.assert_allclose(lr_at(50, config), (1e-7 + 1e-3) / 2)
        assert lr_at(5000, config) == 1e-3

    def test_decays_divide(self):
        config = tiny_train_config(max_lr=1e-3, warmup_steps=0, decay_factor=5.0)
        np.testing.assert_allclose(lr_at(10, config, decays=2), 1e-3 / 25)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_train_config(max_lr=1e-8)  # below start_lr
        with pytest.raises(ConfigError):
            tiny_train_config(decay_factor=1.0)
        with pytest.raises(ConfigError):
            tiny_train_config(batch_size=1)


@pytest.mark.parametrize(
    "cls,field",
    [
        (ObjectiveConfig, "alpha"),
        (ObjectiveConfig, "p_sub"),
        (TrainConfig, "start_lr"),
        (TrainConfig, "max_lr"),
        (TrainConfig, "decay_factor"),
    ],
)
def test_nan_setting_rejected(cls, field):
    with pytest.raises(ConfigError, match="nan"):
        cls(**{field: float("nan")})


class TestAdam:
    def test_single_step_closed_form(self):
        """Hand-computed Adam update on a scalar quadratic 0.2*p^2."""
        p = Tensor(1.0, requires_grad=True)
        g = 0.4  # d(0.2 p^2)/dp at p=1
        p.grad = np.array(g)
        state = OptimizerState({"p": p})
        adam_step({"p": p}, state, lr=0.1, t=1)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(float(p.data), want, rtol=1e-15)
        assert p.grad is None

    def test_zero_gradients_leave_parameters(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        state = OptimizerState({"p": p})
        adam_step({"p": p}, state, lr=0.1, t=1)  # grad is None
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_constant_gradient_moves_against_sign(self):
        p = Tensor([0.0, 0.0], requires_grad=True)
        state = OptimizerState({"p": p})
        for t in range(1, 51):
            p.grad = np.array([1.0, -2.0])
            adam_step({"p": p}, state, lr=0.01, t=t)
        assert p.data[0] < 0 and p.data[1] > 0

    def test_nan_gradient_names_parameter(self):
        p = Tensor(1.0, requires_grad=True)
        p.grad = np.array(np.nan)
        with pytest.raises(NonFiniteError, match="word_embed"):
            adam_step({"word_embed": p}, OptimizerState({"word_embed": p}), lr=0.1, t=1)


class TestBatching:
    def test_two_documents_one_batch(self):
        batches = make_batches(2, 11, RngStream(0))
        assert len(batches) == 1 and sorted(batches[0]) == [0, 1]

    def test_short_tail_merges(self):
        batches = make_batches(12, 11, RngStream(1))
        assert [len(b) for b in batches] == [12]
        batches = make_batches(13, 11, RngStream(2))
        assert [len(b) for b in batches] == [11, 2]

    def test_single_document_rejected(self):
        with pytest.raises(BatchError):
            make_batches(1, 11, RngStream(3))

    def test_every_document_appears_once(self):
        batches = make_batches(25, 11, RngStream(4))
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(25))


class TestTrainLoop:
    def test_two_document_corpus_single_step_epochs(self):
        corpus = tiny_corpus(train_docs=2)
        result = train(
            corpus,
            tiny_model_config(),
            ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1, batch_size=11),
        )
        assert result.step == 1
        assert len(result.history) == 1

    def test_validation_loss_descends(self):
        corpus = tiny_corpus()
        result = train(
            corpus,
            tiny_model_config(),
            ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=5),
        )
        assert result.history[4]["val_loss"] < result.history[0]["val_loss"]

    def test_toggles_off_leave_parameters_at_init(self):
        corpus = tiny_corpus()
        config = tiny_train_config(max_epochs=2, use_cross=False, use_intra=False, use_sub=False)
        result = train(corpus, tiny_model_config(), ObjectiveConfig(), config)
        from doclink.encoder import init_params

        fresh = init_params(tiny_model_config(), RngStream(config.seed).child("init"))
        for name, t in result.params.named_parameters().items():
            np.testing.assert_array_equal(t.data, fresh.named_parameters()[name].data)

    def test_deterministic_history(self):
        corpus = tiny_corpus()
        kwargs = dict(
            model_config=tiny_model_config(),
            objective_config=ObjectiveConfig(alpha=0.2, p_sub=0.7),
            train_config=tiny_train_config(max_epochs=3),
        )
        a = train(corpus, **kwargs)
        b = train(corpus, **kwargs)
        assert a.history == b.history
        for name, t in a.params.named_parameters().items():
            np.testing.assert_array_equal(t.data, b.params.named_parameters()[name].data)

    def test_plateau_decay_counts_stalled_epochs(self):
        """With every objective off the validation loss is constant, so the
        first epoch sets the best value and each later epoch stalls."""
        corpus = tiny_corpus()
        config = tiny_train_config(
            max_epochs=4,
            plateau_patience_epochs=1,
            use_cross=False,
            use_intra=False,
            use_sub=False,
        )
        result = train(corpus, tiny_model_config(), ObjectiveConfig(), config)
        assert [h["decays"] for h in result.history] == [0, 1, 2, 3]
        assert result.history[3]["lr"] == pytest.approx(
            lr_at(result.step, config, decays=3)
        )

    def test_empty_train_split_rejected(self):
        corpus = tiny_corpus()
        corpus.splits["train"] = []
        with pytest.raises(BatchError):
            train(corpus, tiny_model_config(), ObjectiveConfig(), tiny_train_config())

    def test_degenerate_subdocuments_warned_once_by_id(self):
        """floor(0.6 * 1) = 0: a one-sentence train document and a
        one-image validation document never draw a sub-document.  Both are
        named in one warning before the first step, not once per step."""
        corpus = tiny_corpus()
        short_text = corpus.split_documents("train")[2]
        short_text.sentences = short_text.sentences[:1]
        short_text.gold_edges = {(0, n) for n in range(3)}
        one_image = corpus.split_documents("val")[1]
        one_image.images = one_image.images[:1]
        one_image.gold_edges = {(m, 0) for m in range(3)}
        config = tiny_train_config(max_epochs=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = train(corpus, tiny_model_config(), ObjectiveConfig(p_sub=0.6), config)
        assert result.step == 4
        assert len(caught) == 1
        message = str(caught[0].message)
        assert repr([short_text.id, one_image.id]) in message and "p_sub=0.6" in message

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train(corpus, tiny_model_config(), ObjectiveConfig(p_sub=0.6),
                  tiny_train_config(max_epochs=1, use_sub=False))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_parameters_are_non_finite_error(self):
        """An lr of 1e200 overflows the parameters at step 0; step 1 then
        stops at the non-finite representations."""
        corpus = tiny_corpus()
        config = tiny_train_config(max_lr=1e200, warmup_steps=0)
        with pytest.raises(NonFiniteError, match="non-finite (sentence|image) representation"):
            train(corpus, tiny_model_config(), ObjectiveConfig(), config)

    def test_non_finite_loss_aborts(self, monkeypatch):
        corpus = tiny_corpus()

        def poisoned(*args, **kwargs):
            return Tensor(np.nan), []

        monkeypatch.setattr("doclink.trainer.total_loss", poisoned)
        with pytest.raises(NonFiniteError, match="step 0"):
            train(corpus, tiny_model_config(), ObjectiveConfig(), tiny_train_config())


class TestCheckpoint:
    def test_resume_matches_unbroken_run(self, tmp_path):
        corpus = tiny_corpus()
        model_config = tiny_model_config()
        objective_config = ObjectiveConfig(alpha=0.2, p_sub=0.7)

        full = train(
            corpus, model_config, objective_config,
            tiny_train_config(max_epochs=4),
            checkpoint_path=str(tmp_path / "full.json"),
        )

        ckpt = str(tmp_path / "half.json")
        train(
            corpus, model_config, objective_config,
            tiny_train_config(max_epochs=2),
            checkpoint_path=ckpt,
        )
        resumed = train(
            corpus, model_config, objective_config,
            tiny_train_config(max_epochs=4),
            checkpoint_path=ckpt,
            resume_from=ckpt,
        )

        assert len(resumed.history) == 4
        for a, b in zip(full.history, resumed.history):
            np.testing.assert_allclose(a["total"], b["total"], atol=1e-10)
            np.testing.assert_allclose(a["val_loss"], b["val_loss"], atol=1e-10)
        for name, t in full.params.named_parameters().items():
            np.testing.assert_allclose(
                t.data, resumed.params.named_parameters()[name].data, atol=1e-10
            )

    def test_resume_rejects_changed_settings(self, tmp_path):
        """Any stored objective or train field but max_epochs must match."""
        corpus = tiny_corpus()
        model_config = tiny_model_config()
        objective_config = ObjectiveConfig(alpha=0.2, p_sub=0.7)
        ckpt = str(tmp_path / "c.json")
        train(corpus, model_config, objective_config,
              tiny_train_config(max_epochs=1), checkpoint_path=ckpt)
        changes = [
            (objective_config, tiny_train_config(max_epochs=2, batch_size=3),
             "train batch_size=4, but batch_size=3"),
            (objective_config, tiny_train_config(max_epochs=2, seed=2), "train seed=1, but seed=2"),
            (objective_config, tiny_train_config(max_epochs=2, use_sub=False),
             "train use_sub=True, but use_sub=False"),
            (ObjectiveConfig(alpha=0.3, p_sub=0.7), tiny_train_config(max_epochs=2),
             "objective alpha=0.2, but alpha=0.3"),
        ]
        for objective, train_config, message in changes:
            with pytest.raises(ConfigError, match=message):
                train(corpus, model_config, objective, train_config, resume_from=ckpt)

    def test_round_trip_preserves_exact_values(self, tmp_path):
        corpus = tiny_corpus()
        model_config = tiny_model_config()
        result = train(
            corpus, model_config, ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1),
        )
        path = str(tmp_path / "ckpt.json")
        state = TrainState(
            step=result.step,
            epoch=1,
            decays=2,
            best_val=0.125,
            stall=1,
            history=result.history,
            rng={"batching": RngStream(9).state(), "dropout": RngStream(10).state()},
        )
        save_checkpoint(
            path,
            result.params,
            result.optimizer,
            state,
            model_config,
            ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1),
        )
        params, optimizer, loaded = load_checkpoint(path, model_config)
        for name, t in result.params.named_parameters().items():
            np.testing.assert_array_equal(t.data, params.named_parameters()[name].data)
        for name in optimizer.m:
            np.testing.assert_array_equal(optimizer.m[name], result.optimizer.m[name])
            np.testing.assert_array_equal(optimizer.v[name], result.optimizer.v[name])
        with open(path, encoding="utf-8") as fh:
            adam = json.load(fh)["adam"]
        # Format v1 keeps Adam's step count and constants beside the moments.
        assert [adam[k] for k in ("step", "beta1", "beta2", "eps")] == [
            state.step, 0.9, 0.999, 1e-8
        ]
        assert loaded == state
        assert params.config == model_config

    @pytest.mark.parametrize(
        "moment,entry,message",
        [("m", {"shape": [1], "data": [0.0]}, r"Adam m of 'seg_embed' has shape \(1,\)"),
         ("v", None, "lacks the 'seg_embed' entry")],
    )
    def test_bad_adam_moment_rejected(self, tmp_path, moment, entry, message):
        """Every parameter has both moments, of its own shape."""
        ckpt = tmp_path / "c.json"
        train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1), checkpoint_path=str(ckpt),
        )
        payload = json.loads(ckpt.read_text())
        if entry is None:
            del payload["adam"][moment]["seg_embed"]
        else:
            payload["adam"][moment]["seg_embed"] = entry
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(str(ckpt))

    def test_wrong_model_config_rejected(self, tmp_path):
        corpus = tiny_corpus()
        model_config = tiny_model_config()
        ckpt = str(tmp_path / "c.json")
        train(
            corpus, model_config, ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1), checkpoint_path=ckpt,
        )
        other = ModelConfig(
            vocab_size=120, obj_dim=8, embed_dim=16, sentence_layers=1,
            image_layers=1, heads=2, word_dim=8, max_sentence_len=8,
        )
        with pytest.raises(ConfigError):
            load_checkpoint(ckpt, other)
