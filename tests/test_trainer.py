"""Optimizer, schedule, and training-loop checks."""

import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkpoint_edit import rewrite_checkpoint
from test_tensor import on_glibc
import doclink
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig, init_params
from doclink.errors import BatchError, ConfigError, DoclinkError, NonFiniteError
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.tensor import Tensor
from doclink import trainer
from doclink.trainer import (
    BETA1,
    BETA2,
    EPS,
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

    def test_decays_past_the_float_range_give_zero(self):
        """5.0**442 overflows a float; the rate is 0.0, not an OverflowError."""
        assert lr_at(10, TrainConfig(), decays=442) == 0.0

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

    @pytest.mark.parametrize("bad", ["a", "b", "c"])
    def test_non_finite_gradient_aborts_before_anything_moves(self, bad):
        """The error names the tensor holding the first non-finite value,
        and no parameter, moment or gradient has changed."""
        named = {"a": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor([1.0, -2.0]),
                 "c": Tensor(0.5)}
        state = OptimizerState(named)
        for p in named.values():
            p.grad = np.full(p.data.shape, 0.25)
        adam_step(named, state, lr=0.1, t=1)  # moments become non-zero
        for name, p in named.items():
            p.grad = np.full(p.data.shape, -0.5)
            if name == bad:
                p.grad.flat[-1] = np.nan
        if bad == "b":  # a later one too: the first is named
            named["c"].grad = np.array(np.inf)
        before = {key: state.flat[key].copy() for key in trainer.ARRAYS}
        grads = [p.grad for p in named.values()]
        with pytest.raises(NonFiniteError, match=f"parameter '{bad}'"):
            adam_step(named, state, lr=0.1, t=2)
        for key in trainer.ARRAYS:
            assert state.flat[key].tobytes() == before[key].tobytes()
        assert all(p.grad is g for p, g in zip(named.values(), grads))

    def test_overflowing_update_aborts_before_anything_moves(self):
        """An lr that would push a parameter past the float range names the
        parameter, the step and the lr, and changes nothing, without a warning."""
        named = {"a": Tensor([0.0, 1.0]), "b": Tensor([-1e308, 2.0])}
        state = OptimizerState(named)
        for p in named.values():
            p.grad = np.ones(p.data.shape)
        before = {key: state.flat[key].copy() for key in trainer.ARRAYS}
        with pytest.raises(NonFiniteError, match=r"^the update at step 0 with lr=1e\+308 "
                                                 r"makes parameter 'b' non-finite$"):
            adam_step(named, state, lr=1e308, t=1)
        for key in trainer.ARRAYS:
            assert state.flat[key].tobytes() == before[key].tobytes()


def reference_adam_step(params: dict, m: dict, v: dict, lr: float, t: int) -> None:
    """The per-tensor Adam loop that the flat update replaced: the oracle
    for its bits."""
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * g**2
        m_hat = m[name] / (1.0 - BETA1**t)
        v_hat = v[name] / (1.0 - BETA2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_views(named: dict, optimizer: OptimizerState):
    """Every parameter's .data and both its moments are the views of the
    flat vectors at the offset and shape that _layout gives them."""
    for name, (offset, shape) in trainer._layout(named).items():
        for key, array in (("params", named[name].data), ("m", optimizer.m[name]),
                           ("v", optimizer.v[name])):
            flat = optimizer.flat[key]
            assert np.shares_memory(array, flat), (name, key)
            assert array.shape == tuple(shape), (name, key)
            assert array.ctypes.data == flat.ctypes.data + offset * flat.itemsize, (name, key)


class TestFlatStore:
    def test_flat_step_matches_per_tensor_reference_bit_for_bit(self):
        """50 steps on the acceptance-shape model plus a 0-d tensor, with
        random gradients of many scales, some of them missing."""
        config = ModelConfig(vocab_size=200, obj_dim=16, embed_dim=16, sentence_layers=1,
                             image_layers=1, heads=2, word_dim=16, max_sentence_len=12)
        named = dict(init_params(config, RngStream(4)).named_parameters(),
                     scalar=Tensor(0.75, requires_grad=True))
        reference = {name: Tensor(t.data.copy()) for name, t in named.items()}
        m = {name: np.zeros_like(t.data) for name, t in named.items()}
        v = {name: np.zeros_like(t.data) for name, t in named.items()}
        state = OptimizerState(named)
        rng = np.random.default_rng(5)
        for t in range(1, 51):
            for name, p in named.items():
                if rng.random() < 0.2:
                    continue
                g = rng.normal(size=p.data.shape) * 10.0 ** rng.uniform(-6, 2)
                p.grad, reference[name].grad = g, g.copy()
            lr = 1e-3 * rng.uniform(0.1, 2.0)
            adam_step(named, state, lr, t)
            reference_adam_step(reference, m, v, lr, t)
        assert all(p.grad is None for p in named.values())
        for name, p in named.items():
            assert_same_bits(p.data, reference[name].data)
            assert_same_bits(state.m[name], m[name])
            assert_same_bits(state.v[name], v[name])
        assert_views(named, state)

    def test_parameters_stay_views_through_train_and_load(self, tmp_path):
        named = init_params(tiny_model_config(), RngStream(0)).named_parameters()
        assert_views(named, OptimizerState(named))

        ckpt = str(tmp_path / "c.json")
        result = train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=2), checkpoint_path=ckpt,
        )
        assert_views(result.params.named_parameters(), result.optimizer)

        params, optimizer, _ = load_checkpoint(ckpt)
        named = params.named_parameters()
        assert_views(named, optimizer)
        before = {name: t.data.copy() for name, t in named.items()}
        for t in named.values():
            t.grad = np.ones(t.data.shape)
        adam_step(named, optimizer, lr=1e-3, t=3)
        # A fresh walk of the model sees every value moved.
        for name, t in params.named_parameters().items():
            assert (t.data != before[name]).all(), name


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


# One epoch at a ``pipeline``-like image shape (36 objects, width 64, four
# heads), printing the process's minor page faults between Adam steps.
FAULTS_PER_STEP = """
import json, resource
from doclink import trainer
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream

faults, adam_step = [], trainer.adam_step

def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return adam_step(*args, **kwargs)

trainer.adam_step = counted
corpus = generate_synthetic(SynthConfig(
    train_docs=12, val_docs=0, test_docs=0, sentences_per_doc=8, images_per_doc=6,
    vocab_size=400, obj_dim=64, objects_per_image=36, sentence_len=10,
    tokens_per_cluster=4), RngStream(0))
model = ModelConfig(vocab_size=400, obj_dim=64, embed_dim=64, sentence_layers=1,
                    image_layers=1, heads=4, word_dim=32, max_sentence_len=16)
trainer.train(corpus, model, ObjectiveConfig(), trainer.TrainConfig(batch_size=3, max_epochs=2))
print(json.dumps([b - a for a, b in zip(faults, faults[1:])]))
"""


def subprocess_env(**extra) -> dict:
    """This environment with doclink's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(doclink.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


@pytest.mark.skipif(not on_glibc(), reason="the allocator is set on glibc only")
def test_steps_reuse_the_pages_of_the_last():
    """With the allocator keeping freed pages, every step after the second
    takes under 100 minor faults; with glibc's defaults, thousands.  Python's
    own small-object arenas, which mallopt does not govern, are sent to
    malloc too, so a fresh arena mapped mid-run adds no spike."""
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP],
                          env=subprocess_env(PYTHONMALLOC="malloc"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert len(faults) == 7
    assert max(faults[1:]) < 100, faults


# One training step at the ``pipeline`` shape, then three encodings of a
# 33-document split on two worker threads, printing each one's minor page faults.
FAULTS_PER_ENCODE = """
import json, resource
from doclink import encoder, trainer
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream

encoder.usable_cpus = lambda: 2 * encoder.blas_threads()
corpus = generate_synthetic(SynthConfig(
    train_docs=11, val_docs=0, test_docs=33, sentences_per_doc=8, images_per_doc=6,
    vocab_size=400, obj_dim=64, objects_per_image=36, sentence_len=10,
    tokens_per_cluster=4), RngStream(0))
model = ModelConfig(vocab_size=400, obj_dim=64, embed_dim=64, sentence_layers=1,
                    image_layers=1, heads=4, word_dim=32, max_sentence_len=16)
params = trainer.train(corpus, model, ObjectiveConfig(),
                       trainer.TrainConfig(batch_size=11, max_epochs=1)).params
assert encoder.check_fit(corpus, corpus.split_documents("test"), model)[1] >= (
    encoder.THREADED_PASS_VALUES)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    encoder.split_representations(corpus, "test", params, model)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not on_glibc(), reason="the allocator is set on glibc only")
def test_threaded_encode_reuses_the_pages_training_freed():
    """The worker threads of a split's encoding allocate from the one heap
    that holds the pages a training step freed: three encodings take under
    2,000 minor faults together, mostly their threads' stacks and buffers.
    With an arena per thread, the first alone takes about 9,000."""
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_ENCODE],
                          env=subprocess_env(PYTHONMALLOC="malloc", OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert len(faults) == 3 and sum(faults) < 2000, faults


# Two epochs at seed 1 of a benchmark shape, printing the sha256 prefixes of
# the trained parameters, both Adam moments and the history.
TWO_EPOCHS = """
import hashlib, json, sys
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.trainer import TrainConfig, train

synth, model = json.loads(sys.argv[1])
corpus = generate_synthetic(SynthConfig(**synth), RngStream(1))
config = ModelConfig(vocab_size=corpus.vocab_size, obj_dim=corpus.obj_dim, **model)
result = train(corpus, config, ObjectiveConfig(), TrainConfig(
    seed=1, max_lr=5e-3, warmup_steps=50, batch_size=11, max_epochs=2))
digests = [result.optimizer.flat[key].tobytes() for key in ("params", "m", "v")]
digests.append(json.dumps(result.history).encode())
print(" ".join(hashlib.sha256(d).hexdigest()[:8] for d in digests))
"""
SHARED_SYNTH = dict(density=0.2, concept_len=2, sigma=0.1, token_noise=0.1)
PINNED_TRAINING = {
    "train-small": (
        dict(SHARED_SYNTH, train_docs=220, val_docs=100, test_docs=100, sentences_per_doc=5,
             images_per_doc=5, vocab_size=200, obj_dim=16, objects_per_image=3,
             sentence_len=8, tokens_per_cluster=4),
        dict(embed_dim=16, sentence_layers=1, image_layers=1, heads=2, word_dim=16,
             max_sentence_len=12),
        "f67c27e4 56d6923e 0563e2d2 6635e6ab",
    ),
    "pipeline": (
        dict(SHARED_SYNTH, train_docs=22, val_docs=11, test_docs=33, sentences_per_doc=8,
             images_per_doc=6, vocab_size=400, obj_dim=64, objects_per_image=36,
             sentence_len=10, tokens_per_cluster=4),
        dict(embed_dim=64, sentence_layers=1, image_layers=1, heads=4, word_dim=32,
             max_sentence_len=16),
        "c2aa06e3 5ee0ac6e 00e484dc a0b8d4cc",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_TRAINING))
def test_training_bytes_are_pinned(shape):
    """Two epochs at the benchmark's train-small and pipeline shapes, seed 1,
    with one BLAS thread: the parameters, both Adam moments and the history
    hash as pinned.  A change that moves any bit of training shows here, and
    must update the pin on purpose."""
    synth, model, pinned = PINNED_TRAINING[shape]
    done = subprocess.run([sys.executable, "-c", TWO_EPOCHS, json.dumps([synth, model])],
                          env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == pinned


class TestTrainLoop:
    def test_a_step_drops_its_graph_before_the_update(self, monkeypatch):
        """The step's loss is gone once backward returns, before Adam runs
        and before the next step's forward: two graphs never coexist."""
        losses = []
        backward, adam_step = trainer.tensor.backward, trainer.adam_step

        def recorded_backward(loss):
            backward(loss)
            losses.append(weakref.ref(loss.data))

        def checked_adam_step(*args, **kwargs):
            assert losses and all(ref() is None for ref in losses)
            adam_step(*args, **kwargs)

        monkeypatch.setattr(trainer.tensor, "backward", recorded_backward)
        monkeypatch.setattr(trainer, "adam_step", checked_adam_step)
        result = train(tiny_corpus(), tiny_model_config(), ObjectiveConfig(),
                       tiny_train_config(max_epochs=1))
        assert len(losses) == result.step == 2

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

    def test_overflowing_parameters_are_non_finite_error(self):
        """An lr of 1e200 overflows the parameters at step 0; step 1 then
        stops at the non-finite representations."""
        corpus = tiny_corpus()
        config = tiny_train_config(max_lr=1e200, warmup_steps=0)
        with pytest.raises(NonFiniteError, match="non-finite (sentence|image) representation"):
            train(corpus, tiny_model_config(), ObjectiveConfig(), config)

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_overflow_the_starting_parameters_do_not_repeat_names_max_lr(self, tmp_path,
                                                                        resumed):
        """An lr of 1e150 overflows the encoding at step 1, of a batch the
        parameters the run started from encode: the error names max_lr, the
        step and the lr.  A fresh run draws those parameters again; a
        resumed one reads its checkpoint again and draws nothing."""
        corpus, model_config = tiny_corpus(), tiny_model_config()
        overflowing = dict(max_lr=1e150, warmup_steps=0, start_lr=0)
        resume_from = None
        if resumed:
            resume_from = str(tmp_path / "start.ckpt")
            train(corpus, model_config, ObjectiveConfig(),
                  tiny_train_config(max_epochs=0, **overflowing), checkpoint_path=resume_from)
        with mock.patch("doclink.trainer.init_params", wraps=init_params) as init, \
                pytest.raises(NonFiniteError) as err:
            train(corpus, model_config, ObjectiveConfig(),
                  tiny_train_config(max_epochs=1, **overflowing), resume_from=resume_from)
        assert re.fullmatch(r"non-finite (sentence|image) representation at step 1, after an "
                            r"update with lr=1e\+150: the parameters the run started from "
                            r"encode this batch, so max_lr=1e\+150 is too large", str(err.value))
        assert init.call_count == (0 if resumed else 2)

    def test_document_at_fault_after_updates_is_still_named(self):
        """A validation document with object features near 1e300, first
        encoded after epoch 0's updates: the starting parameters overflow on
        it too, so the error names the document, as at step 0."""
        corpus = tiny_corpus()
        for img in corpus.split_documents("val")[0].images:
            img.objects *= 1e300
        with mock.patch("doclink.trainer.init_params", wraps=init_params) as init, \
                pytest.raises(NonFiniteError) as err:
            train(corpus, tiny_model_config(), ObjectiveConfig(), tiny_train_config(max_epochs=1))
        assert str(err.value) == ("non-finite image representation of document 'val-0000': "
                                  "layernorm: a row's variance overflows")
        assert init.call_count == 2  # the run's start, then the starting parameters again

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

    def test_zero_epoch_run_writes_a_resumable_start(self, tmp_path):
        """With no epoch to run, the starting state is checkpointed, in the
        bytes pinned here, and resuming it gives the bytes of an unbroken
        run; a resume already at max_epochs writes its checkpoint's bytes."""
        corpus, model_config, objective_config = tiny_corpus(), tiny_model_config(), ObjectiveConfig()
        start, unbroken = tmp_path / "start.ckpt", tmp_path / "unbroken.ckpt"
        train(corpus, model_config, objective_config, tiny_train_config(max_epochs=0),
              checkpoint_path=str(start))
        assert load_checkpoint(start)[2].epoch == 0
        assert hashlib.sha256(start.read_bytes()).hexdigest() == \
            "6f0ebecb47a819c5063e6566ddd25e6174481117bc17fbc3e89b7e21f4613431"
        train(corpus, model_config, objective_config, tiny_train_config(max_epochs=2),
              checkpoint_path=str(unbroken))
        train(corpus, model_config, objective_config, tiny_train_config(max_epochs=2),
              checkpoint_path=str(start), resume_from=str(start))
        assert start.read_bytes() == unbroken.read_bytes()
        again = tmp_path / "again.ckpt"
        train(corpus, model_config, objective_config, tiny_train_config(max_epochs=2),
              checkpoint_path=str(again), resume_from=str(unbroken))
        assert again.read_bytes() == unbroken.read_bytes()

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

    def test_non_finite_validation_loss_aborts(self, tmp_path, monkeypatch):
        """A run never stores a non-finite best_val, which no checkpoint
        could load back."""
        ckpt = tmp_path / "c.json"
        monkeypatch.setattr(trainer, "_split_loss", lambda *args: float("nan"))
        with pytest.raises(NonFiniteError, match="non-finite validation loss in epoch 0"):
            train(
                tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
                tiny_train_config(max_epochs=1), checkpoint_path=str(ckpt),
            )
        assert not ckpt.exists()

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
        with zipfile.ZipFile(path) as zf:
            assert json.loads(zf.read("header.json"))["format"] == "doclink-checkpoint-v2"
        assert loaded == state
        assert params.config == model_config

    def test_load_draws_nothing(self, tmp_path):
        """A checkpoint is adopted into a shape-only model: no random draw."""
        ckpt = tmp_path / "c.json"
        result = train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1), checkpoint_path=str(ckpt),
        )
        with mock.patch.object(RngStream, "uniform", side_effect=AssertionError("drew")):
            params, _, _ = load_checkpoint(str(ckpt))
        for name, t in result.params.named_parameters().items():
            np.testing.assert_array_equal(params.named_parameters()[name].data, t.data)

    def test_same_state_same_bytes(self, tmp_path, monkeypatch):
        """No wall-clock time reaches the file."""
        result = train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1),
        )
        state = TrainState(step=result.step, epoch=1, history=result.history)
        blobs = []
        for clock in (1e9, 2e9):
            monkeypatch.setattr(time, "time", lambda: clock)
            path = tmp_path / f"{clock}.json"
            save_checkpoint(
                path, result.params, result.optimizer, state, tiny_model_config(),
                ObjectiveConfig(alpha=0.2, p_sub=0.7), tiny_train_config(max_epochs=1),
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "moment,entry,message",
        [("m", np.zeros(1), "member 'm' has 1 values, but the model has"),
         ("v", None, "member 'v' is missing")],
    )
    def test_bad_adam_moment_rejected(self, tmp_path, moment, entry, message):
        """Both moments are stored, each as long as the parameters."""
        ckpt = tmp_path / "c.json"
        train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1), checkpoint_path=str(ckpt),
        )
        rewrite_checkpoint(ckpt, ckpt.with_name("bad.json"), **{moment: entry})
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(str(ckpt.with_name("bad.json")))

    def test_table_entry_must_fit_the_model(self, tmp_path):
        ckpt = tmp_path / "c.json"
        train(
            tiny_corpus(), tiny_model_config(), ObjectiveConfig(alpha=0.2, p_sub=0.7),
            tiny_train_config(max_epochs=1), checkpoint_path=str(ckpt),
        )
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, lambda h: h["table"].update(seg_embed=[0, [1]]))
        with pytest.raises(ConfigError, match="table does not match the model's parameters"):
            load_checkpoint(str(bad))

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


# ---- fuzzed checkpoints -------------------------------------------------------

FUZZ_OBJECTIVE = ObjectiveConfig(alpha=0.2, p_sub=0.7)
STATE_FIELDS = ["step", "epoch", "decays", "best_val", "stall", "history", "rng"]
SPECIAL = st.sampled_from([float("nan"), float("inf"), 10**400, -1, 2**64])
JUNK = st.recursive(
    st.one_of(SPECIAL, st.integers(0, 3), st.floats(), st.booleans(), st.none(),
              st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["state", "inc", "shape", "data"]), inner, max_size=2),
    max_leaves=6,
)
# Three times in four a scalar, which often leaves the file loadable.
VALUE = st.one_of(st.integers(0, 3), st.floats(-2, 2), SPECIAL, JUNK)
# Replacements for one stored array, given the stored one.
ARRAY_EDITS = st.sampled_from([
    lambda a: a,
    lambda a: None,
    lambda a: a.astype(np.float32),
    lambda a: a.astype(">f8"),
    lambda a: a.astype(object),
    lambda a: np.array([{"x": 1}], dtype=object),
    lambda a: a.reshape(1, -1),
    lambda a: a[:-1],
    lambda a: np.append(a, 0.0),
    lambda a: b"not an array",
    lambda a: npy_claiming(10**12),
])


def npy_claiming(count: int) -> bytes:
    """A .npy member whose header claims ``count`` float64 values but that
    holds one."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": (count,)})
    return buffer.getvalue() + bytes(8)


@functools.lru_cache(maxsize=None)
def small_checkpoint() -> bytes:
    """The bytes of a one-epoch checkpoint of the tiny model."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "c.json")
        train(tiny_corpus(), tiny_model_config(), FUZZ_OBJECTIVE,
              tiny_train_config(max_epochs=1), checkpoint_path=path)
        with open(path, "rb") as fh:
            return fh.read()


def mutate(header: dict, data) -> None:
    """One mutation of a run-state field, a history record, an rng state, a
    table entry or the format tag; the stored configs are never touched,
    since a fuzzed model size could ask for gigabytes."""
    target = data.draw(st.sampled_from(["state", "record", "rng", "table", "format"]))
    if target == "state":
        parent, key = header, data.draw(st.sampled_from(STATE_FIELDS))
    elif target == "record":
        parent = header["history"][0]
        key = data.draw(st.sampled_from(sorted(parent)))
    elif target == "rng":
        parent = header["rng"][data.draw(st.sampled_from(["batching", "dropout"]))]
        if data.draw(st.booleans()):
            parent = parent["state"]
        key = data.draw(st.sampled_from(sorted(parent)))
    elif target == "table":
        parent, key = header, "table"
        if data.draw(st.booleans()):
            parent, key = parent["table"], data.draw(st.sampled_from(sorted(parent["table"])))
            if data.draw(st.booleans()):
                parent, key = parent[key], data.draw(st.sampled_from([0, 1]))
    else:
        parent, key = header, "format"
    if data.draw(st.integers(0, 4)) == 0 and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = data.draw(VALUE)


def _never_unpickle(*args, **kwargs):
    raise AssertionError("the checkpoint reader unpickled")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_checkpoint_reader_returns_or_raises_doclink_error(data):
    """A mutated header, a replaced or missing array, or a truncated file
    loads or raises a DoclinkError, and nothing is unpickled; a state that
    loads resumes to its own epoch without error."""
    blob = small_checkpoint()
    target = data.draw(st.sampled_from(["header", "array", "truncate"]))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "c.json")
        if target == "header":
            rewrite_checkpoint(io.BytesIO(blob), path, lambda header: mutate(header, data))
        elif target == "array":
            key = data.draw(st.sampled_from(trainer.ARRAYS))
            with np.load(io.BytesIO(blob)) as npz:
                stored = npz[key]
            rewrite_checkpoint(io.BytesIO(blob), path, **{key: data.draw(ARRAY_EDITS)(stored)})
        else:
            with open(path, "wb") as fh:
                fh.write(blob[: data.draw(st.integers(0, len(blob) - 1))])
        try:
            with mock.patch("pickle.load", _never_unpickle), \
                    mock.patch("pickle.loads", _never_unpickle):
                params, _, state = load_checkpoint(path)
        except DoclinkError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = train(tiny_corpus(), params.config, FUZZ_OBJECTIVE,
                            tiny_train_config(max_epochs=state.epoch), resume_from=path)
        assert resumed.step == state.step
