"""Every input the command line accepts works or fails with a documented exit
code: 0 success, 1 usage, 2 data, 3 numeric.

Each example starts from one tiny run and overrides a single setting or flag
with a boundary or extreme value, then runs ``gen -> train (one epoch) ->
eval -> diagnose --learned`` in-process through ``main``.  A non-zero exit
prints one line and stops the run; no exception escapes and no numpy
``RuntimeWarning`` is raised along the way.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
import typing
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doclink.cli import main
from doclink.corpus import SynthConfig
from doclink.encoder import ModelConfig
from doclink.objective import ObjectiveConfig
from doclink.trainer import TrainConfig

BASE = {
    "synth": dict(train_docs=4, val_docs=2, test_docs=3, sentences_per_doc=2, images_per_doc=2,
                  density=0.5, vocab_size=30, obj_dim=3, objects_per_image=2, sentence_len=3,
                  concept_len=1, tokens_per_cluster=2, sigma=0.1),
    "model": dict(embed_dim=4, sentence_layers=1, image_layers=1, heads=1, word_dim=4,
                  max_sentence_len=4),
    "objective": {},
    # Without warm-up, max_lr itself drives the first update.
    "train": dict(max_lr=5e-3, warmup_steps=0, batch_size=2, max_epochs=1, seed=0),
}
FLAGS = {"--ks": "1,5", "--samples": "2", "--bins": "4"}
SECTIONS = {"synth": SynthConfig, "model": ModelConfig, "objective": ObjectiveConfig,
            "train": TrainConfig}
EXTREMES = (0, 1, 1e200, 1e308, 10**12, 2**63 - 1)


def boundary_values(cls, field) -> list:
    """A field's declared bounds and the first value past each of them."""
    hint = typing.get_type_hints(cls)[field.name]
    kinds = typing.get_args(hint) or (hint,)
    if bool in kinds:
        return [False, True]
    real = float in kinds

    def step(value, direction):
        return float(np.nextafter(value, direction * np.inf)) if real else value + direction

    bounds = field.metadata
    values = []
    if bounds.get("low") is not None:
        values += [bounds["low"], step(bounds["low"], -1)]
    if bounds.get("above") is not None:
        values += [bounds["above"], step(bounds["above"], 1)]
    if bounds.get("high") is not None:
        values += [bounds["high"], step(bounds["high"], 1)]
    return values


OVERRIDES = sorted(
    {(section, field.name, value)
     for section, cls in SECTIONS.items()
     for field in dataclasses.fields(cls)
     if field.name != "max_epochs"  # one epoch keeps every example short
     for value in boundary_values(cls, field) + list(EXTREMES)}
    # Each flag's lower bound is 1, so 0 is one past it.  The largest --bins
    # accepted (2**27 - 1) is left out: its histogram takes the 1 GiB it allows.
    | {(flag, None, value) for flag in FLAGS for value in EXTREMES},
    key=repr,
)


def run(section: str, key: str | None, value) -> list:
    """The (exit code, stderr) of each command, up to the first that fails."""
    sections = {name: dict(values) for name, values in BASE.items()}
    flags = dict(FLAGS)
    if key is None:
        flags[section] = str(value)
    else:
        sections[section][key] = value
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        def path(*parts):
            return os.path.join(tmp, *parts)

        for name, payload in (("gen.json", {"synth": sections.pop("synth")}),
                              ("train.json", sections)):
            with open(path(name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        corpus, checkpoint = path("data", "corpus.jsonl"), path("run", "checkpoint.json")
        for argv in (
            ["gen", "--out", path("data"), "--config", path("gen.json")],
            ["train", "--corpus", corpus, "--out", path("run"), "--config", path("train.json")],
            ["eval", "--corpus", corpus, "--checkpoint", checkpoint, "--ks", flags["--ks"],
             "--out", path("eval")],
            ["diagnose", "--corpus", corpus, "--checkpoint", checkpoint, "--learned",
             "--samples", flags["--samples"], "--bins", flags["--bins"], "--out", path("diag")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            outcomes.append((code, err.getvalue()))
            if code != 0:
                break
    return outcomes


@given(st.sampled_from(OVERRIDES))
@example(("train", "max_lr", 1e308))
@example(("train", "max_lr", 1e150))
@example(("objective", "alpha", 1e308))
@example(("model", "embed_dim", 1))
@example(("model", "word_dim", 1))
@example(("synth", "test_docs", 1))
@example(("synth", "images_per_doc", 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_accepted_input_works_or_exits_with_a_documented_code(override):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = run(*override)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    for code, err in outcomes:
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), err
