"""One fault list for both readers of doclink's zip container.

A corpus zip (read by ``load_corpus``) and a checkpoint (read by
``load_checkpoint``) get the same fault, and the two messages must read the
same after their ``corpus {path} `` / ``checkpoint {path} `` prefix, once the
damaged member's name, its expected dtype and ndim and the reader's own
format tag are put in placeholders.
"""

import io
import json
import zipfile

import numpy as np
import pytest

from checkpoint_edit import rewrite_checkpoint
from doclink import trainer
from doclink.cli import main
from doclink.corpus import CORPUS_FORMAT, MEMBERS, load_corpus
from doclink.errors import ConfigError, CorpusFormatError


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(corpus zip, checkpoint) of a one-epoch run on a 3x3-document corpus."""
    root = tmp_path_factory.mktemp("archive")
    gen, run = root / "gen.json", root / "run.json"
    gen.write_text(json.dumps({"synth": dict(
        train_docs=4, val_docs=1, test_docs=1, sentences_per_doc=3, images_per_doc=3,
        density=0.34, vocab_size=60, obj_dim=4, objects_per_image=2, sentence_len=4,
        concept_len=2, tokens_per_cluster=4, sigma=0.1,
    )}))
    run.write_text(json.dumps({
        "model": dict(embed_dim=8, sentence_layers=1, image_layers=1, heads=2, word_dim=8,
                      max_sentence_len=8),
        "train": dict(batch_size=4, max_epochs=1),
    }))
    assert main(["gen", "--out", str(root / "data"), "--config", str(gen)]) == 0
    corpus = root / "data" / "corpus.jsonl"
    assert main(["train", "--corpus", str(corpus), "--config", str(run),
                 "--out", str(root / "run")]) == 0
    return corpus, root / "run" / "checkpoint.json"


def header_bytes(path) -> bytes:
    with zipfile.ZipFile(path) as zf:
        return zf.read("header.json")


def truncated_npy() -> bytes:
    """A .npy of four float64 values that holds only one."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.zeros(4))
    return buffer.getvalue()[:-24]


def cut(src, dst, member, other) -> None:
    with open(src, "rb") as fh:
        blob = fh.read()
    with open(dst, "wb") as fh:
        fh.write(blob[: len(blob) // 2])


def rewritten(**change):
    """A fault that rewrites the source zip: ``change`` maps ``header`` or
    ``member`` (the reader's damaged array) to the new content, or to a
    function of the other format's file."""

    def build(src, dst, member, other):
        members = {}
        for key, value in change.items():
            value = value(other) if callable(value) else value
            members["header" if key == "header" else member] = value
        rewrite_checkpoint(src, dst, **members)

    return build


# (fault, builder, the message after the prefix with placeholders, or its start)
FAULTS = [
    ("cut-zip", cut, "is malformed: "),
    ("header-not-json", rewritten(header=b"{truncated"),
     "member 'header.json' is not JSON: "),
    ("header-list", rewritten(header=b'["doclink"]'),
     "member 'header.json' lacks the '<tag>' format tag"),
    ("other-format", rewritten(header=header_bytes),
     "member 'header.json' lacks the '<tag>' format tag"),
    ("missing-member", rewritten(member=None), "member '<member>' is missing"),
    ("hello-member", rewritten(member=b"hello"),
     "member '<member>' has dtype |S5 and 0 dimensions, expected <spec>"),
    ("truncated-member", rewritten(member=truncated_npy()), "member '<member>' is malformed: "),
    ("pickled-member", rewritten(member=np.array([{"x": 1}], dtype=object)),
     "member '<member>' is malformed: Object arrays cannot be loaded"),
    ("f4-member", rewritten(member=np.zeros(3, "<f4")),
     "member '<member>' has dtype <f4 and 1 dimensions, expected <spec>"),
]

# label -> (format tag, damaged member, its (dtype, ndim), error type, reader)
READERS = {
    "corpus": (CORPUS_FORMAT, "tokens", MEMBERS["tokens"], CorpusFormatError, load_corpus),
    "checkpoint": (trainer.CHECKPOINT_FORMAT, "m", trainer.MEMBERS["m"], ConfigError,
                   trainer.load_checkpoint),
}


@pytest.mark.parametrize("fault,build,expected", FAULTS, ids=[f[0] for f in FAULTS])
def test_both_readers_word_a_fault_alike(files, tmp_path, fault, build, expected):
    corpus, checkpoint = files
    sources = {"corpus": (corpus, checkpoint), "checkpoint": (checkpoint, corpus)}
    wording = {}
    for label, (tag, member, (dtype, ndim), error, read) in READERS.items():
        src, other = sources[label]
        bad = tmp_path / f"{label}.bin"
        build(src, bad, member, other)
        with pytest.raises(error) as info:
            read(str(bad))
        message = str(info.value)
        assert message.startswith(f"{label} {bad} ")
        assert "object has no attribute" not in message
        wording[label] = (
            message[len(f"{label} {bad} "):]
            .replace(f"'{member}'", "'<member>'")
            .replace(f"expected {dtype} and {ndim}", "expected <spec>")
            .replace(repr(tag), "'<tag>'")
        )
    assert wording["corpus"] == wording["checkpoint"]
    assert wording["corpus"].startswith(expected)


def test_a_file_of_the_other_format_is_named_by_its_tag(files, tmp_path, capsys):
    """Each command exits 2, naming the format tag it expected."""
    corpus, checkpoint = files
    splits = str(corpus.parent / "splits.json")
    for argv, tag in (
        (["eval", "--corpus", str(corpus), "--checkpoint", str(corpus)],
         trainer.CHECKPOINT_FORMAT),
        (["train", "--corpus", str(checkpoint), "--splits", splits], CORPUS_FORMAT),
    ):
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 2, argv[0]
        assert f"member 'header.json' lacks the {tag!r} format tag" in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()
