"""The benchmark's three workloads.

Every pass of every workload walks the user path of the paper's method:
generate a corpus, train one epoch (with the validation pass and the
per-epoch checkpoint), evaluate the test split, and run the bias
diagnostics on it.  The workloads differ in size and entry point, because
each size has a different bottleneck:

train-small
    The acceptance-test shape (docs of 5x5, 3 objects of dim 16, embed 16,
    1+1 layers, B=11, all three objectives) on 220/100/100 docs.  The objective's
    O(B^2) graph and the backward pass over it take about 90% of a step;
    BLAS, checkpoints and corpus I/O almost none.  ``objective.*`` and
    ``tensor.*`` should move ``train_docs_per_s`` here; ``test_auc``
    guards quality after one deterministic epoch.
train-large
    The paper's image features (36 objects of dim 256), 16-token sentences,
    embed 128, 2+2 layers, 4 heads, word_dim 64, B=11 (about 1M params),
    on 44/11/22 docs of 5x5.  Encoder forward and backward take about 90%
    of a step and the objective about 3%, so an objective-only change
    should show no gain here; the 60 MB JSON checkpoint is about half of
    the four-step epoch.
    ``encoder.*``, ``nn.transformer_layer_ms`` and ``trainer.*`` should
    move ``train_docs_per_s``; ``trainer.checkpoint_save_ms`` and
    ``trainer.checkpoint_bytes_per_value`` also move ``checkpoint_mb``.
    It is not in BENCHMARK.json: a run holds only two of its ten-second
    epochs, and across runs on a shared 2-CPU host its phase times spread
    up to the bounds.  Run it by name (or with ``all``) for encoder work.
pipeline
    ``doclink gen`` -> ``train`` (1 epoch, 22 docs) -> ``eval`` ->
    ``diagnose --learned`` on 33 test docs of 8x6 with 36 objects of dim
    64, through ``doclink.cli.main``.  Time goes to JSONL corpus I/O (a
    17 MB corpus, loaded by each command), checkpoint load, no-grad
    encoding, metrics and diagnostics.  ``corpus.*`` moves ``gen_s`` and
    the other phases; ``trainer.checkpoint_load_ms``, ``evalmetrics.*``,
    ``diagnostics.*``, ``encoder.*`` and ``cli.self_ms.*`` move ``eval_s``
    and ``diagnose_s``; ``trainer.checkpoint_save_ms`` moves ``train_s``.

The two train workloads call the library directly, with the corpus held in
memory, so that ``train_docs_per_s`` is the epoch alone; after the timed
phases each pass reads back the checkpoint and a few documents through the
corpus file format, for the output checks and the traced I/O layers.  The
pipeline workload goes through the command line and the files it writes.  Set-up
writes the configs and generates the corpus once in memory, as the
reference the pass's corpus is checked against.  doclink sees only the
generated corpus and configs; every input derives from ``--seed``.

The sizes keep passes short, so that a run holds several of them, and each
phase several samples spread over the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import doclink.cli
import doclink.corpus
import doclink.diagnostics
import doclink.encoder
import doclink.evalmetrics
import doclink.objective
import doclink.trainer
from doclink.rng import RngStream

import tracing

TRAIN = {"max_lr": 5e-3, "warmup_steps": 50, "batch_size": 11, "max_epochs": 1}
SYNTH = {"density": 0.2, "concept_len": 2, "sigma": 0.1, "token_noise": 0.1}

SHAPES = {
    "train-small": {
        "synth": dict(SYNTH, train_docs=220, val_docs=100, test_docs=100,
                      sentences_per_doc=5, images_per_doc=5, vocab_size=200,
                      obj_dim=16, objects_per_image=3, sentence_len=8,
                      tokens_per_cluster=4),
        "model": dict(embed_dim=16, sentence_layers=1, image_layers=1, heads=2,
                      word_dim=16, max_sentence_len=12),
        "min_passes": 5,
    },
    "train-large": {
        "synth": dict(SYNTH, train_docs=44, val_docs=11, test_docs=22,
                      sentences_per_doc=5, images_per_doc=5, vocab_size=400,
                      obj_dim=256, objects_per_image=36, sentence_len=16,
                      tokens_per_cluster=6),
        "model": dict(embed_dim=128, sentence_layers=2, image_layers=2, heads=4,
                      word_dim=64, max_sentence_len=16),
        "min_passes": 2,
    },
    "pipeline": {
        "synth": dict(SYNTH, train_docs=22, val_docs=11, test_docs=33,
                      sentences_per_doc=8, images_per_doc=6, vocab_size=400,
                      obj_dim=64, objects_per_image=36, sentence_len=10,
                      tokens_per_cluster=4),
        "model": dict(embed_dim=64, sentence_layers=1, image_layers=1, heads=4,
                      word_dim=32, max_sentence_len=16),
        "min_passes": 3,
    },
}

# Smoke sizes: the same code paths in well under a second per pass.
SMOKE = {
    "train-small": {"train_docs": 22, "val_docs": 11, "test_docs": 6},
    "train-large": {"train_docs": 22, "val_docs": 11, "test_docs": 6,
                    "obj_dim": 32, "objects_per_image": 4},
    "pipeline": {"train_docs": 22, "val_docs": 11, "test_docs": 8,
                 "obj_dim": 8, "objects_per_image": 3},
}
SMOKE_MODEL = {
    "train-large": {"embed_dim": 16, "heads": 2, "word_dim": 8},
    "pipeline": {"embed_dim": 16, "heads": 2, "word_dim": 8},
}

PHASES = ("gen", "train", "eval", "diagnose")
# Test documents a library workload writes and reads back per pass.
ROUND_TRIP_DOCS = 4
# Untraced and at full size, a library phase shorter than this is repeated
# in each pass, and every call is a sample.
MIN_PHASE_SECONDS = 0.5


def shape(name: str, smoke: bool) -> dict:
    base = SHAPES[name]
    synth = dict(base["synth"], **(SMOKE[name] if smoke else {}))
    model = dict(base["model"], **(SMOKE_MODEL.get(name, {}) if smoke else {}))
    return {"synth": synth, "model": model, "train": dict(TRAIN),
            "min_passes": 1 if smoke else base.get("min_passes", 1)}


@dataclass
class PassResult:
    """Wall seconds per phase plus what the output checks need."""

    seconds: dict = field(default_factory=dict)  # phase -> [seconds per call]
    history: str = ""
    test_auc: float = float("nan")
    checkpoint_bytes: int = 0
    checks: dict = field(default_factory=dict)  # name -> passed


def phase_span(tracer, phase: str):
    """The span of one phase of a pass, named after the command that runs it
    (``cli.gen`` ...); its self time is ``cli.self_ms.<phase>``.  On the
    library workloads the phase stands in for the command, and its self time
    is what the phase does outside every wrapped doclink call."""
    return tracer.span(tracing.CLI_PREFIX + phase) if tracer else contextlib.nullcontext()


@contextlib.contextmanager
def timed(seconds: dict, phase: str):
    start = time.perf_counter()
    yield
    seconds.setdefault(phase, []).append(time.perf_counter() - start)


def repeated(seconds: dict, phase: str, call, repeat: bool):
    """Closed loop of ``call`` for MIN_PHASE_SECONDS (once when not
    ``repeat``); records every call's time and returns the last output."""
    start = time.perf_counter()
    while True:
        with timed(seconds, phase):
            out = call()
        if not repeat or time.perf_counter() - start >= MIN_PHASE_SECONDS:
            return out


def _history_bytes(history) -> str:
    return json.dumps(history, sort_keys=True)


def _finite_history(history) -> bool:
    return bool(history) and all(
        math.isfinite(value)
        for epoch in history
        for value in epoch.values()
        if isinstance(value, float)
    )


def _macro_auc_recomputes(report: dict) -> bool:
    aucs = [row["auc"] for row in report["per_document"] if row["auc"] is not None]
    return bool(aucs) and math.isclose(
        report["macro_auc"], float(np.mean(aucs)), rel_tol=1e-12, abs_tol=1e-15)


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def corpus_digest(corpus) -> str:
    """sha256 over every document's ids, tokens, feature bits and edges."""
    h = hashlib.sha256()
    for doc in corpus.documents:
        edges = sorted(doc.gold_edges) if doc.gold_edges is not None else None
        h.update(json.dumps([doc.id, doc.sentences, edges]).encode())
        for image in doc.images:
            h.update(json.dumps([image.objects.shape, image.concepts]).encode())
            h.update(np.ascontiguousarray(image.objects, dtype=np.float64).tobytes())
    return h.hexdigest()


def _fresh_folder(workdir: str) -> str:
    """An empty folder for one pass; the previous pass's files go."""
    folder = os.path.join(workdir, "pass")
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    return folder


def _files(folder: str) -> dict:
    return {n: os.path.getsize(os.path.join(folder, n)) for n in os.listdir(folder)}


def _largest_file(folder: str) -> str:
    """The main artifact a command wrote, found without assuming its name."""
    sizes = _files(folder)
    return os.path.join(folder, max(sizes, key=sizes.get))


def _json_outputs(folder: str, skip: str | None = None) -> list:
    """Every JSON payload a command wrote, except ``skip``."""
    out = []
    for name in sorted(os.listdir(folder)):
        path = os.path.join(folder, name)
        if path == skip:
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                out.append(json.load(fh))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
    return out


def _find(payloads: list, *keys):
    for payload in payloads:
        if isinstance(payload, dict) and all(k in payload for k in keys):
            return payload
    return None


class Workload:
    """What both kinds of workload share: shape, seed and the set-up that
    builds, in memory, the corpus the pass must generate (its digest is the
    reference of the regeneration check)."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.shape = shape(name, smoke)
        self.smoke = smoke
        self.train_docs = self.shape["synth"]["train_docs"]

    def _generate(self):
        return doclink.corpus.generate_synthetic(
            doclink.corpus.SynthConfig(**self.shape["synth"]), RngStream(self.seed))

    def setup(self) -> None:
        reference = self._generate()
        self.digest = corpus_digest(reference)
        self.obj_dim = reference.obj_dim
        self.vocab_size = reference.vocab_size


class LibraryWorkload(Workload):
    """train-small and train-large: the library API, the corpus in memory."""

    def setup(self) -> None:
        super().setup()
        self.model = doclink.encoder.ModelConfig(
            vocab_size=self.vocab_size, obj_dim=self.obj_dim, **self.shape["model"])
        self.objective = doclink.objective.ObjectiveConfig()
        self.train_config = doclink.trainer.TrainConfig(seed=self.seed, **self.shape["train"])

    def run_pass(self, tracer=None) -> tuple:
        """Generate, train one epoch, evaluate, diagnose, then read back the
        checkpoint and a sample of the corpus: (PassResult, state)."""
        folder = _fresh_folder(self.workdir)
        path = os.path.join(folder, "model.ckpt")
        result = PassResult()
        repeat = tracer is None and not self.smoke
        with phase_span(tracer, "gen"):
            self.corpus = repeated(result.seconds, "gen", self._generate, repeat)
        with phase_span(tracer, "train"), timed(result.seconds, "train"):
            trained = doclink.trainer.train(
                self.corpus, self.model, self.objective, self.train_config,
                checkpoint_path=path)
        with phase_span(tracer, "eval"):
            report = repeated(result.seconds, "eval", lambda: doclink.evalmetrics.evaluate(
                self.corpus, "test", trained.params, self.model, ks=(1, 5)), repeat)
        with phase_span(tracer, "diagnose"):
            bias, _ = repeated(result.seconds, "diagnose",
                               lambda: self._diagnose(trained.params), repeat)
        result.history = _history_bytes(trained.history)
        result.test_auc = report.macro_auc
        result.checkpoint_bytes = sum(_files(folder).values())
        reloaded = self._read_back(path, folder)
        return result, (trained, reloaded, report, bias)

    def _read_back(self, path: str, folder: str) -> tuple:
        """The checkpoint train wrote, loaded as ``doclink eval`` loads it,
        and the first ROUND_TRIP_DOCS test documents written and read back
        in the corpus file format.  This is the workload's only checkpoint
        and corpus I/O: untimed, but inside the pass, so the traced run
        records it for ``trainer.checkpoint_load_ms`` and ``corpus.*``."""
        checkpoint = doclink.trainer.load_checkpoint(path, self.model)
        docs = self.corpus.split_documents("test")[:ROUND_TRIP_DOCS]
        sample = doclink.corpus.Corpus(
            documents=docs, vocab_size=self.corpus.vocab_size, obj_dim=self.corpus.obj_dim,
            splits={"train": [], "val": [], "test": [d.id for d in docs]})
        sample_path = os.path.join(folder, "sample.jsonl")
        doclink.corpus.save_corpus(sample, sample_path)
        loaded = doclink.corpus.load_corpus(
            sample_path, vocab_size=sample.vocab_size, splits=sample.splits)
        return checkpoint, sample, loaded

    def _diagnose(self, params):
        """The `doclink diagnose --learned` flow on the test split."""
        bias = doclink.diagnostics.bias_report(
            self.corpus, "test", rng=RngStream(self.seed).child("diagnostics"),
            params=params, config=self.model)
        spreads = doclink.diagnostics.document_spreads(
            self.corpus, "test", params.word_embed.data)
        report = doclink.evalmetrics.evaluate(
            self.corpus, "test", params, self.model, ks=(1,))
        auc = {row["id"]: row["auc"] for row in report.per_document}
        rows = [(i, img, txt, auc[i]) for i, img, txt in spreads if auc.get(i) is not None]
        return bias, doclink.diagnostics.spread_regression(rows)

    def check(self, result: PassResult, state) -> None:
        trained, (checkpoint, sample, reread), report, bias = state
        result.checks["corpus_regenerates_equal"] = corpus_digest(self.corpus) == self.digest
        result.checks["corpus_round_trips_exactly"] = (
            corpus_digest(reread) == corpus_digest(sample) and reread.obj_dim == sample.obj_dim)
        result.checks["loss_finite"] = _finite_history(trained.history)
        params, optimizer, _ = checkpoint
        saved = trained.params.named_parameters()
        loaded = params.named_parameters()
        exact = saved.keys() == loaded.keys() and all(
            _same_bits(saved[n].data, loaded[n].data) for n in saved)
        for moments in ("m", "v"):
            before = getattr(trained.optimizer, moments, {})
            after = getattr(optimizer, moments, {})
            exact = exact and all(_same_bits(before[n], after.get(n)) for n in before)
        result.checks["checkpoint_reloads_exactly"] = exact
        result.checks["macro_auc_recomputes"] = _macro_auc_recomputes(report.to_json_dict())
        result.checks["ks_p_in_unit_interval"] = 0.0 <= bias.ks_p_value <= 1.0


class PipelineWorkload(Workload):
    """pipeline: the four CLI commands, each reading what the last wrote."""

    def setup(self) -> None:
        super().setup()
        inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        self.gen_config = os.path.join(inputs, "gen.json")
        self.train_config = os.path.join(inputs, "train.json")
        with open(self.gen_config, "w", encoding="utf-8") as fh:
            json.dump({"synth": self.shape["synth"]}, fh)
        with open(self.train_config, "w", encoding="utf-8") as fh:
            json.dump({"model": self.shape["model"], "train": self.shape["train"]}, fh)

    def _command(self, result: PassResult, phase: str, argv: list, tracer) -> None:
        """Run one CLI command in-process, its console output captured."""
        sink = io.StringIO()
        with timed(result.seconds, phase), phase_span(tracer, phase), \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = doclink.cli.main(argv)
        result.checks[f"{phase}_exits_0"] = code == 0
        if code != 0:
            raise RuntimeError(f"doclink {phase} exited {code}: {sink.getvalue().strip()}")

    def run_pass(self, tracer=None) -> tuple:
        base = _fresh_folder(self.workdir)
        gen, train, evald, diag = (os.path.join(base, p) for p in PHASES)
        seed = str(self.seed)
        result = PassResult()
        self._command(result, "gen",
                      ["gen", "--out", gen, "--config", self.gen_config, "--seed", seed],
                      tracer)
        corpus = _largest_file(gen)
        self._command(result, "train",
                      ["train", "--corpus", corpus, "--out", train,
                       "--config", self.train_config, "--seed", seed], tracer)
        checkpoint = _largest_file(train)
        self._command(result, "eval",
                      ["eval", "--corpus", corpus, "--checkpoint", checkpoint,
                       "--split", "test", "--ks", "1,5", "--out", evald], tracer)
        self._command(result, "diagnose",
                      ["diagnose", "--corpus", corpus, "--checkpoint", checkpoint,
                       "--learned", "--split", "test", "--seed", seed, "--out", diag],
                      tracer)
        histories = [p for p in _json_outputs(train, skip=checkpoint) if isinstance(p, list)]
        result.history = _history_bytes(histories[0] if histories else None)
        report = _find(_json_outputs(evald), "macro_auc", "per_document")
        result.test_auc = report["macro_auc"]
        result.checkpoint_bytes = os.path.getsize(checkpoint)
        return result, (corpus, report, _find(_json_outputs(diag), "ks_p_value"))

    def check(self, result: PassResult, state) -> None:
        corpus_path, report, bias = state
        loaded = doclink.corpus.load_corpus(corpus_path)
        result.checks["corpus_reloads_equal"] = (
            corpus_digest(loaded) == self.digest and loaded.obj_dim == self.obj_dim)
        result.checks["loss_finite"] = _finite_history(json.loads(result.history))
        result.checks["macro_auc_recomputes"] = _macro_auc_recomputes(report)
        result.checks["ks_p_in_unit_interval"] = (
            bias is not None and 0.0 <= bias["ks_p_value"] <= 1.0)


WORKLOADS = {
    "train-small": LibraryWorkload,
    "train-large": LibraryWorkload,
    "pipeline": PipelineWorkload,
}
