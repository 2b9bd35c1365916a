"""End-to-end command-line runs via main(); exit codes and file outputs."""

import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkpoint_edit import rewrite_checkpoint
from corpus_edit import rewrite_corpus, rewrite_zip
import doclink.encoder
from doclink.cli import UsageError, _build_config, main
from doclink.corpus import MAX_CORPUS_BYTES, SynthConfig, load_corpus, load_split_manifest
from doclink.diagnostics import bias_report
from doclink.encoder import ModelConfig
from doclink.evalmetrics import evaluate
from doclink.nn import TransformerLayerParams
from doclink.objective import ObjectiveConfig
from doclink.rng import RngStream
from doclink.trainer import TrainConfig, load_checkpoint


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def synth_section(**kw):
    base = dict(
        train_docs=8,
        val_docs=2,
        test_docs=4,
        sentences_per_doc=3,
        images_per_doc=3,
        density=0.34,
        vocab_size=150,
        obj_dim=6,
        objects_per_image=2,
        sentence_len=4,
        concept_len=2,
        tokens_per_cluster=4,
        sigma=0.1,
    )
    base.update(kw)
    return base


def train_sections(**train_kw):
    train = dict(max_lr=5e-3, warmup_steps=5, batch_size=4, max_epochs=2, seed=3)
    train.update(train_kw)
    return {
        "model": dict(
            embed_dim=8,
            sentence_layers=1,
            image_layers=1,
            heads=2,
            word_dim=8,
            max_sentence_len=8,
        ),
        "train": train,
    }


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "gen.json"
    write_json(config, {"synth": synth_section()})
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--config", str(config), "--seed", "7"]) == 0
    return tmp_path


def huge_corpus(tmp_path):
    """A generated corpus whose object features are finite but near 1e300."""
    config = tmp_path / "huge.json"
    write_json(config, {"synth": synth_section(sigma=1e300)})
    assert main(["gen", "--out", str(tmp_path / "huge"), "--config", str(config),
                 "--seed", "7"]) == 0
    return tmp_path / "huge" / "corpus.jsonl"


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def as_flags(files: dict) -> list:
    """``["--flag", "path", ...]`` for every flag given a path."""
    return [arg for flag, path in files.items() if path for arg in (flag, str(path))]


class TestGen:
    def test_emits_corpus_manifest_and_config(self, workspace, capsys):
        data = workspace / "data"
        assert sorted(os.listdir(data)) == ["corpus.jsonl", "gen-config.json", "splits.json"]

    def test_same_seed_same_bytes(self, workspace, tmp_path):
        config = tmp_path / "gen2.json"
        write_json(config, {"synth": synth_section()})
        other = tmp_path / "data2"
        assert main(["gen", "--out", str(other), "--config", str(config), "--seed", "7"]) == 0
        for name in ("corpus.jsonl", "splits.json"):
            assert read_bytes(workspace / "data" / name) == read_bytes(other / name)

    def test_reported_density_matches_recount(self, workspace, capsys, tmp_path):
        config = tmp_path / "gen3.json"
        write_json(config, {"synth": synth_section()})
        out = tmp_path / "data3"
        main(["gen", "--out", str(out), "--config", str(config), "--seed", "9"])
        printed = capsys.readouterr().out
        corpus = load_corpus(str(out / "corpus.jsonl"))
        densities = [
            len(d.gold_edges) / (len(d.sentences) * len(d.images))
            for d in corpus.documents
        ]
        assert f"gold density={np.mean(densities):.3f}" in printed

    def test_refuses_overwrite_without_force(self, workspace, tmp_path):
        config = tmp_path / "gen.json"
        code = main(["gen", "--out", str(workspace / "data"), "--config", str(config), "--seed", "7"])
        assert code == 1
        assert main(
            ["gen", "--out", str(workspace / "data"), "--config", str(config),
             "--seed", "7", "--force"]
        ) == 0

    def test_unknown_section_and_key_rejected(self, tmp_path):
        bad_section = tmp_path / "bad1.json"
        write_json(bad_section, {"synthesis": {}})
        assert main(["gen", "--out", str(tmp_path / "o1"), "--config", str(bad_section)]) == 1
        bad_key = tmp_path / "bad2.json"
        write_json(bad_key, {"synth": {"sentence_count": 3}})
        assert main(["gen", "--out", str(tmp_path / "o2"), "--config", str(bad_key)]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "key,value",
        [("sigma", float("nan")), ("token_noise", 1.5), ("doc_center_scale", -1.0),
         ("train_docs", float("nan")), ("train_docs", 2.5), ("clusters_per_doc", 0),
         ("density", "0.2"), ("sigma", "0.1"), ("sigma", float("inf"))],
    )
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.json"
        write_json(config, {"synth": synth_section(**{key: value})})
        code = main(["gen", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o" / "corpus.jsonl").exists()


    @pytest.mark.parametrize(
        "synth,message",
        [({"vocab_size": 10}, "vocab_size=10 cannot hold 5 disjoint token subsets of 6"),
         # numpy refuses an 8 TB prototype at once, before writing anything
         ({"obj_dim": 10**12}, f"cannot allocate the corpus: synth obj_dim={10**12}"),
         # an 8 TB token block for one sentence, or a 16 TB concept block for one image
         ({"train_docs": 1, "val_docs": 0, "test_docs": 0, "obj_dim": 4,
           "objects_per_image": 2, "sentence_len": 10**12},
          "cannot allocate the corpus: synth obj_dim=4, objects_per_image=2, "
          f"sentence_len={10**12}, concept_len=2"),
         ({"train_docs": 1, "val_docs": 0, "test_docs": 0, "obj_dim": 4,
           "objects_per_image": 2, "concept_len": 10**12},
          "cannot allocate the corpus: synth obj_dim=4, objects_per_image=2, "
          f"sentence_len=8, concept_len={10**12}")],
    )
    def test_setting_rejected_during_generation_is_usage_error(
        self, tmp_path, capsys, synth, message
    ):
        config = tmp_path / "bad.json"
        write_json(config, {"synth": synth})
        code = main(["gen", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "corpus.jsonl").exists()


    @pytest.mark.parametrize("key", ["sigma", "doc_center_scale"])
    def test_overflowing_object_features_are_usage_error(self, tmp_path, capsys, key):
        """A scale that overflows the drawn object rows is a setting the
        generator cannot honour: exit 1 naming both scales, no numpy warning
        and no file written."""
        config = tmp_path / "bad.json"
        write_json(config, {"synth": {key: 1e308}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma=" in err and "doc_center_scale=" in err and f"{key}=1e+308" in err
        assert "Warning" not in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("key", ["train_docs", "sentences_per_doc", "images_per_doc",
                                     "objects_per_image"])
    def test_corpus_over_the_budget_is_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def no_draw(*args):
            raise AssertionError("a document was drawn")

        monkeypatch.setattr("doclink.corpus._generate_document", no_draw)
        config = tmp_path / "big.json"
        write_json(config, {"synth": {key: 10**12}})
        code = main(["gen", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot allocate the corpus: synth obj_dim=2048, objects_per_image=" in err
        assert f"{key}={10**12}" in err and f"more than {MAX_CORPUS_BYTES}" in err
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_writes_checkpoint_history_and_echo(self, workspace, tmp_path):
        config = tmp_path / "train.json"
        write_json(config, train_sections())
        out = tmp_path / "run"
        code = main(
            ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(out), "--config", str(config)]
        )
        assert code == 0
        history = json.loads(read_bytes(out / "history.json"))
        assert len(history) == 2
        for record in history:
            for key in ("total", "l_cross", "l_intra", "l_sub", "val_loss", "lr"):
                assert key in record
        echo = json.loads(read_bytes(out / "train-config.json"))
        assert echo["train"]["seed"] == 3
        assert echo["model"]["vocab_size"] == 150

    def test_seed_flag_beats_config_file(self, workspace, tmp_path):
        config = tmp_path / "train.json"
        write_json(config, train_sections(seed=3))
        out = tmp_path / "run-seedflag"
        main(
            ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(out), "--config", str(config), "--seed", "12"]
        )
        echo = json.loads(read_bytes(out / "train-config.json"))
        assert echo["train"]["seed"] == 12

    def test_objective_toggles(self, workspace, tmp_path):
        config = tmp_path / "train.json"
        write_json(config, train_sections())
        out = tmp_path / "run-conly"
        main(
            ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(out), "--config", str(config), "--objectives", "C"]
        )
        echo = json.loads(read_bytes(out / "train-config.json"))
        assert echo["train"]["use_cross"] is True
        assert echo["train"]["use_intra"] is False
        assert echo["train"]["use_sub"] is False
        history = json.loads(read_bytes(out / "history.json"))
        assert all(h["l_intra"] == 0.0 and h["l_sub"] == 0.0 for h in history)

    def test_invalid_toggle_is_usage_error(self, workspace, tmp_path):
        code = main(
            ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(tmp_path / "x"), "--objectives", "C,Q"]
        )
        assert code == 1

    def test_config_turning_every_objective_off_is_usage_error(self, workspace, tmp_path, capsys):
        """A config file can switch off all three objectives, which would
        train at zero loss and leave the model at its initial values."""
        config = tmp_path / "train.json"
        write_json(config, train_sections(use_cross=False, use_intra=False, use_sub=False))
        out = tmp_path / "off"
        code = main(["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(out), "--config", str(config)])
        assert code == 1
        assert "use_cross, use_intra and use_sub" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_runs_identical_history_bytes(self, workspace, tmp_path):
        config = tmp_path / "train.json"
        write_json(config, train_sections())
        corpus = str(workspace / "data" / "corpus.jsonl")
        a, b = tmp_path / "run-a", tmp_path / "run-b"
        assert main(["train", "--corpus", corpus, "--out", str(a), "--config", str(config)]) == 0
        assert main(["train", "--corpus", corpus, "--out", str(b), "--config", str(config)]) == 0
        assert read_bytes(a / "history.json") == read_bytes(b / "history.json")

    def test_resume_is_byte_exact(self, workspace, tmp_path):
        """Two epochs, then a resume to three, write the bytes of an
        unbroken three-epoch run: parameters, Adam moments, rng states,
        best_val, stall and decays all round-trip."""
        corpus = str(workspace / "data" / "corpus.jsonl")
        full, half = tmp_path / "full.json", tmp_path / "half.json"
        write_json(full, train_sections(max_epochs=3, plateau_patience_epochs=1))
        write_json(half, train_sections(max_epochs=2, plateau_patience_epochs=1))
        runs = tmp_path / "unbroken", tmp_path / "first", tmp_path / "resumed"
        assert main(["train", "--corpus", corpus, "--out", str(runs[0]), "--config", str(full)]) == 0
        assert main(["train", "--corpus", corpus, "--out", str(runs[1]), "--config", str(half)]) == 0
        assert main(["train", "--corpus", corpus, "--out", str(runs[2]), "--config", str(full),
                     "--resume", str(runs[1] / "checkpoint.json")]) == 0
        for name in ("checkpoint.json", "history.json"):
            assert read_bytes(runs[0] / name) == read_bytes(runs[2] / name)

    def test_resume_with_nothing_to_train_writes_the_checkpoint(self, workspace, tmp_path):
        """A resume to the checkpoint's own epoch trains nothing and writes
        the loaded checkpoint back unchanged, beside its history."""
        config = tmp_path / "train.json"
        write_json(config, train_sections(max_epochs=2))
        corpus = str(workspace / "data" / "corpus.jsonl")
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["train", "--corpus", corpus, "--out", str(first), "--config", str(config)]) == 0
        assert main(["train", "--corpus", corpus, "--out", str(again), "--config", str(config),
                     "--resume", str(first / "checkpoint.json")]) == 0
        for name in ("checkpoint.json", "history.json"):
            assert read_bytes(again / name) == read_bytes(first / name)

    def test_resume_below_the_checkpoint_epoch_is_data_error(self, workspace, tmp_path, capsys):
        corpus = str(workspace / "data" / "corpus.jsonl")
        two, one = tmp_path / "two.json", tmp_path / "one.json"
        write_json(two, train_sections(max_epochs=2))
        write_json(one, train_sections(max_epochs=1))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["train", "--corpus", corpus, "--out", str(first), "--config", str(two)]) == 0
        capsys.readouterr()
        checkpoint = first / "checkpoint.json"
        code = main(["train", "--corpus", corpus, "--out", str(again), "--config", str(one),
                     "--resume", str(checkpoint)])
        assert code == 2
        assert (f"checkpoint {checkpoint} is at epoch 2, past max_epochs=1"
                in capsys.readouterr().err)
        assert not again.exists()

    def test_resume_with_changed_setting_is_data_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "train.json"
        write_json(config, train_sections())
        corpus = str(workspace / "data" / "corpus.jsonl")
        first = tmp_path / "first"
        assert main(["train", "--corpus", corpus, "--out", str(first), "--config", str(config)]) == 0
        capsys.readouterr()
        code = main(["train", "--corpus", corpus, "--out", str(tmp_path / "again"),
                     "--config", str(config), "--seed", "4",
                     "--resume", str(first / "checkpoint.json")])
        assert code == 2
        assert "seed=3, but seed=4 was requested" in capsys.readouterr().err

    def test_malformed_config_json_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"train": {"seed": 3,}}')
        code = main(["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path / "x"), "--config", str(config)])
        assert code == 1
        assert f"config file {config} is not valid JSON" in capsys.readouterr().err

    def test_non_finite_object_features_is_data_error(self, workspace, tmp_path, capsys):
        source = workspace / "data"
        corpus = tmp_path / "nan.jsonl"

        def poison(records):
            records[0]["images"][1]["objects"][0][2] = float("nan")

        record = rewrite_corpus(source / "corpus.jsonl", corpus, poison)[0]
        code = main(["train", "--corpus", str(corpus), "--splits", str(source / "splits.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"document {record['id']!r}: image 1 has non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("objective", "alpha"), ("train", "max_lr")])
    def test_nan_setting_is_usage_error(self, workspace, tmp_path, capsys, section, key):
        config = tmp_path / "nan.json"
        config.write_text(f'{{"{section}": {{"{key}": NaN}}}}')
        code = main(["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path / "x"), "--config", str(config)])
        assert code == 1
        assert "nan" in capsys.readouterr().err
        assert not (tmp_path / "x" / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_parameters_are_numeric_failure(self, workspace, tmp_path, capsys):
        config = tmp_path / "train.json"
        write_json(config, train_sections(max_lr=1e200, warmup_steps=0))
        code = main(["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path / "x"), "--config", str(config)])
        assert code == 3
        assert "numeric failure: non-finite sentence representation" in capsys.readouterr().err

    def test_overflowing_features_are_numeric_failure(self, tmp_path, capsys):
        """Object features finite but so large that a layer norm's variance
        overflows: exit 3 naming the document, no numpy warning, no checkpoint."""
        corpus = huge_corpus(tmp_path)
        config = tmp_path / "train.json"
        write_json(config, train_sections())
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                         "--config", str(config)])
        assert code == 3
        assert re.fullmatch(
            r"numeric failure: non-finite image representation of document 'train-\d{4}': "
            r"layernorm: a row's variance overflows\n", capsys.readouterr().err)
        assert not (tmp_path / "x" / "checkpoint.json").exists()

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = main(
            ["train", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_unsatisfiable_k_override_fails_before_first_step(self, tmp_path, monkeypatch, capsys):
        """k_override=4 fits 5x5 documents but not their 3x3 sub-documents
        under p_sub=0.6: rejected up front, naming document and block."""
        gen = tmp_path / "gen5.json"
        write_json(gen, {"synth": synth_section(sentences_per_doc=5, images_per_doc=5, density=0.2)})
        data = tmp_path / "data5"
        assert main(["gen", "--out", str(data), "--config", str(gen), "--seed", "7"]) == 0
        config = tmp_path / "train.json"
        write_json(config, {**train_sections(), "objective": {"k_override": 4, "p_sub": 0.6}})

        def no_steps(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("doclink.trainer.total_loss", no_steps)
        code = main(["train", "--corpus", str(data / "corpus.jsonl"),
                     "--out", str(tmp_path / "run"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "3x3 sub-document of document" in err and "k_override=4" in err
        assert not (tmp_path / "run").exists()

    def test_numeric_failure_exit_code(self, workspace, tmp_path, monkeypatch):
        from doclink.errors import NonFiniteError

        def explode(*args, **kwargs):
            raise NonFiniteError("non-finite loss at step 0")

        monkeypatch.setattr("doclink.cli.train", explode)
        code = main(
            ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(tmp_path / "x")]
        )
        assert code == 3


@pytest.fixture
def trained(workspace, tmp_path):
    config = tmp_path / "train.json"
    write_json(config, train_sections())
    out = tmp_path / "run"
    main(
        ["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
         "--out", str(out), "--config", str(config)]
    )
    return workspace / "data" / "corpus.jsonl", out / "checkpoint.json"


class TestEval:
    def test_report_written_and_deterministic(self, trained, tmp_path):
        corpus, ckpt = trained
        a, b = tmp_path / "ev-a", tmp_path / "ev-b"
        for out in (a, b):
            code = main(
                ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(out)]
            )
            assert code == 0
        assert read_bytes(a / "eval-report.json") == read_bytes(b / "eval-report.json")
        report = json.loads(read_bytes(a / "eval-report.json"))
        assert 0.0 <= report["macro_auc"] <= 1.0
        assert set(report["p_at"]) == {"1", "5"}

    def test_untrained_model_near_chance(self, tmp_path):
        """Sentence tokens are shifted into their own id range so images and
        sentences share no embedding rows; without that bridge a random-init
        model carries no information about the gold edges."""
        config = tmp_path / "gen-big.json"
        write_json(config, {"synth": synth_section(train_docs=2, val_docs=2, test_docs=50)})
        data = tmp_path / "big"
        main(["gen", "--out", str(data), "--config", str(config), "--seed", "21"])

        def shift(records):
            for record in records:
                for sentence in record["sentences"]:
                    sentence["tokens"] = [t + 150 for t in sentence["tokens"]]

        rewrite_corpus(data / "corpus.jsonl", data / "corpus.jsonl", shift)
        traincfg = tmp_path / "train-frozen.json"
        write_json(
            traincfg,
            train_sections(max_epochs=1, max_lr=1e-8, start_lr=1e-9, batch_size=2),
        )
        out = tmp_path / "run-frozen"
        main(
            ["train", "--corpus", str(data / "corpus.jsonl"), "--out", str(out),
             "--config", str(traincfg)]
        )
        assert main(
            ["eval", "--corpus", str(data / "corpus.jsonl"),
             "--checkpoint", str(out / "checkpoint.json"), "--split", "test",
             "--out", str(tmp_path / "ev-frozen")]
        ) == 0
        report = json.loads(read_bytes(tmp_path / "ev-frozen" / "eval-report.json"))
        assert abs(report["macro_auc"] - 0.5) < 0.05

    def test_missing_gold_edges_exit_two(self, trained, tmp_path):
        corpus_path, ckpt = trained
        stripped = tmp_path / "stripped.jsonl"

        def strip(records):
            for record in records:
                record.pop("gold_edges", None)

        rewrite_corpus(corpus_path, stripped, strip)
        import shutil

        shutil.copy(os.path.join(os.path.dirname(corpus_path), "splits.json"),
                    tmp_path / "splits.json")
        with pytest.warns(UserWarning):
            code = main(
                ["eval", "--corpus", str(stripped), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(tmp_path / "ev-x")]
            )
        assert code == 2

    def test_empty_split_is_data_error(self, trained, tmp_path, capsys):
        corpus, ckpt = trained
        splits = json.loads(read_bytes(corpus.parent / "splits.json"))
        splits["train"] += splits.pop("val")
        write_json(tmp_path / "splits-noval.json", splits)
        for command in (["eval", "--checkpoint", str(ckpt)], ["diagnose"]):
            code = main(
                command + ["--corpus", str(corpus), "--splits", str(tmp_path / "splits-noval.json"),
                           "--split", "val", "--out", str(tmp_path / ("empty-" + command[0]))]
            )
            assert code == 2
            assert "split 'val' has no documents" in capsys.readouterr().err

    def test_all_documents_skipped_prints_na(self, trained, tmp_path, capsys):
        """No gold edges: every document's AUC is undefined."""
        corpus, ckpt = trained
        edgeless = tmp_path / "edgeless.jsonl"

        def empty(records):
            for record in records:
                record["gold_edges"] = []

        rewrite_corpus(corpus, edgeless, empty)
        code = main(
            ["eval", "--corpus", str(edgeless), "--checkpoint", str(ckpt),
             "--splits", str(corpus.parent / "splits.json"), "--split", "test",
             "--out", str(tmp_path / "ev-na")]
        )
        assert code == 0
        assert "macro AUC=n/a" in capsys.readouterr().out
        report = json.loads(read_bytes(tmp_path / "ev-na" / "eval-report.json"))
        assert report["macro_auc"] is None

    def test_unscorable_cutoff_prints_na(self, trained, tmp_path, capsys):
        """No 3x3 document has 100 cells: p@100 reads n/a and stays out of
        the report."""
        corpus, ckpt = trained
        code = main(
            ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt), "--split", "test",
             "--ks", "1,100", "--out", str(tmp_path / "ev-k")]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith(" p@100=n/a") and " p@1=" in line
        report = json.loads(read_bytes(tmp_path / "ev-k" / "eval-report.json"))
        assert set(report["p_at"]) == {"1"}

    @pytest.mark.parametrize(
        "model,message",
        [({"heads": 3}, "model config: embed_dim 8 must be divisible by heads 3"),
         ({"vocab_size": 10**9}, "member 'params' has 3232 values, "
                                 "but the model has 8000002032 parameters")],
        ids=["heads", "vocab_size"],
    )
    def test_invalid_stored_model_config_names_checkpoint(
        self, trained, tmp_path, capsys, model, message
    ):
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, lambda h: h["config"]["model"].update(model))
        code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: checkpoint {bad} {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "model,extra_layers",
        [({"sentence_layers": 20000}, 19999), ({"image_layers": 10**19}, 10**19 - 1)],
        ids=["sentence_layers", "image_layers"],
    )
    def test_huge_stored_model_is_rejected_before_it_is_built(
        self, trained, tmp_path, capsys, monkeypatch, model, extra_layers
    ):
        """The arrays are sized from the stored config's parameter count,
        so a header claiming a huge model is rejected without building one."""
        layer = sum(t.data.size for t in TransformerLayerParams(8).named_parameters().values())
        message = f"has 3232 values, but the model has {3232 + extra_layers * layer} parameters"
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, lambda h: h["config"]["model"].update(model))

        def build(config):
            raise AssertionError("built a model")

        monkeypatch.setattr("doclink.trainer.ModelParams", build)
        code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: checkpoint {bad} member 'params' {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda m: m.update(bogus=1),
          "unknown ModelConfig keys ['bogus']; known: ['embed_dim', 'heads', 'image_layers', "
          "'max_sentence_len', 'obj_dim', 'sentence_layers', 'vocab_size', 'word_dim']"),
         (lambda m: m.pop("vocab_size"), "missing ModelConfig keys ['vocab_size']")],
        ids=["unknown", "missing"],
    )
    def test_stored_model_keys_are_named(self, trained, tmp_path, capsys, edit, message):
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, lambda h: edit(h["config"]["model"]))
        code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: checkpoint {bad} model config: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,section",
        [(lambda h: h["config"].update(model=[8]), "model"),
         (lambda h: h["config"].update(train="x"), "train"),
         (lambda h: h.update(config=[1]), "model")],
        ids=["model-list", "train-str", "config-list"],
    )
    def test_stored_config_section_not_an_object_is_data_error(
        self, trained, tmp_path, capsys, edit, section
    ):
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, edit)
        config = tmp_path / "resume.json"
        write_json(config, train_sections(max_epochs=3))
        for argv in (["train", "--config", str(config), "--resume", str(bad)],
                     ["eval", "--checkpoint", str(bad)]):
            code = main(argv + ["--corpus", str(corpus), "--out", str(tmp_path / "o")])
            assert code == 2, argv[0]
            err = capsys.readouterr().err
            assert f"checkpoint {bad} config {section!r} is not an object" in err, argv[0]
        assert not (tmp_path / "o").exists()

    def test_unknown_split_is_usage_error(self, trained, tmp_path):
        corpus, ckpt = trained
        for command in (["eval", "--checkpoint", str(ckpt)], ["diagnose"]):
            code = main(
                command + ["--corpus", str(corpus), "--split", "tset",
                           "--out", str(tmp_path / ("bad-" + command[0]))]
            )
            assert code == 1

    def test_malformed_checkpoint_is_data_error(self, trained, tmp_path, capsys):
        corpus, ckpt = trained
        not_zip = tmp_path / "not-zip.json"
        not_zip.write_text("{truncated")
        v1 = tmp_path / "v1.json"
        write_json(v1, {"format": "doclink-checkpoint-v1", "params": {}})
        not_json = tmp_path / "not-json.json"
        rewrite_checkpoint(ckpt, not_json, header=b"{truncated")
        no_params = tmp_path / "no-params.json"
        rewrite_checkpoint(ckpt, no_params, params=None)
        pickled = tmp_path / "pickled.json"
        rewrite_checkpoint(ckpt, pickled, m=np.array([{"x": 1}], dtype=object))
        for bad, message in (
            (not_zip, "is not a doclink-checkpoint-v2 zip"),
            (v1, "is not a doclink-checkpoint-v2 zip"),
            (not_json, "member 'header.json' is not JSON: Expecting property name"),
            (no_params, "member 'params' is missing"),
            (pickled, "member 'm' is malformed: Object arrays cannot be loaded when "
                      "allow_pickle=False"),
        ):
            for command in ("eval", "diagnose"):
                code = main([command, "--corpus", str(corpus), "--checkpoint", str(bad),
                             "--out", str(tmp_path / f"{command}-{bad.stem}")])
                assert code == 2
                assert f"checkpoint {bad} {message}" in capsys.readouterr().err

    def test_overflowing_features_are_numeric_failure(self, trained, tmp_path, capsys):
        """A trained model on object features so large that a layer norm's
        variance overflows: exit 3 naming the document, no warning, no report."""
        _, ckpt = trained
        corpus = huge_corpus(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                         "--split", "test", "--out", str(tmp_path / "ev")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite image representation of document 'test-0000': "
            "layernorm: a row's variance overflows\n")
        assert not (tmp_path / "ev").exists()

    def test_bad_ks_is_usage_error(self, trained, tmp_path):
        corpus, ckpt = trained
        code = main(
            ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
             "--ks", "0,5", "--out", str(tmp_path / "ev-bad")]
        )
        assert code == 1


class TestDiagnose:
    def test_reports_written_with_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "diag"
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--split", "train", "--out", str(out), "--seed", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "KS D=" in printed and "R^2=" in printed
        bias = json.loads(read_bytes(out / "bias-report.json"))
        assert bias["n_intra"] == sum(bias["intra_counts"])
        assert bias["n_cross"] == sum(bias["cross_counts"])
        spread = json.loads(read_bytes(out / "spread-report.json"))
        assert len(spread["per_document"]) >= 3

    def test_learned_requires_checkpoint(self, workspace, tmp_path):
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--out", str(tmp_path / "d2"), "--learned"]
        )
        assert code == 1

    def test_learned_mode_with_checkpoint(self, trained, tmp_path, monkeypatch):
        """One encoding of the split serves the bias probe and the AUC; the
        reports equal the library's, which encodes for each."""
        corpus, ckpt = trained
        out = tmp_path / "diag-learned"
        passes = []
        encode = doclink.encoder.encode_images
        monkeypatch.setattr(
            "doclink.encoder.encode_images", lambda *a, **kw: passes.append(1) or encode(*a, **kw)
        )
        code = main(
            ["diagnose", "--corpus", str(corpus), "--split", "train",
             "--out", str(out), "--checkpoint", str(ckpt), "--learned"]
        )
        assert code == 0
        assert len(passes) == 1  # the 8 train documents fit one encoder pass
        params = load_checkpoint(ckpt)[0]
        loaded = load_corpus(corpus, splits=load_split_manifest(corpus.parent / "splits.json"))
        bias = bias_report(loaded, "train", rng=RngStream(0).child("diagnostics"),
                           params=params, config=params.config)
        assert json.loads(read_bytes(out / "bias-report.json")) == bias.to_json_dict()
        report = evaluate(loaded, "train", params, params.config, ks=(1,))
        auc = {row["id"]: row["auc"] for row in report.per_document}
        spread = json.loads(read_bytes(out / "spread-report.json"))
        assert [row["auc"] for row in spread["per_document"]] == [
            auc[row["id"]] for row in spread["per_document"]
        ]

    @pytest.mark.parametrize("learned", [False, True], ids=["raw", "learned"])
    def test_overflowing_features_are_numeric_failure(self, trained, tmp_path, capsys, learned):
        """Object features finite but so large that a distance or a spread
        overflows: exit 3 naming the document, no numpy warning, no report.
        The learned path measures distances between encoder outputs (finite
        here: the feature projection is zeroed), but its spreads are raw."""
        corpus, ckpt = trained
        argv = ["diagnose", "--corpus", str(huge_corpus(tmp_path)),
                "--split", "train", "--out", str(tmp_path / "d")]
        if learned:
            params, optimizer, _ = load_checkpoint(ckpt)
            params.obj_proj_w.data[...] = 0.0
            rewrite_checkpoint(ckpt, tmp_path / "flat.ckpt", params=optimizer.flat["params"])
            argv += ["--checkpoint", str(tmp_path / "flat.ckpt"), "--learned"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        what = "the image spread" if learned else "an image distance"
        assert err == f"numeric failure: document 'train-0000': {what} is inf; " \
                      "the features are too large\n"
        assert not (tmp_path / "d").exists()

    def test_input_corpus_untouched(self, workspace, tmp_path):
        corpus = workspace / "data" / "corpus.jsonl"
        before = read_bytes(corpus)
        main(
            ["diagnose", "--corpus", str(corpus), "--split", "train",
             "--out", str(tmp_path / "d3")]
        )
        assert read_bytes(corpus) == before

    @pytest.mark.parametrize("flag", ["--bins", "--samples"])
    def test_count_below_one_is_usage_error(self, workspace, tmp_path, capsys, flag):
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--split", "train", "--out", str(tmp_path / "d"), flag, "0"]
        )
        assert code == 1
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err

    def test_pretrained_word_table_feeds_text_spreads(self, workspace, tmp_path, capsys):
        """Rows inside the vocabulary fill the table; an id beyond it is
        skipped."""
        pretrained = tmp_path / "emb.jsonl"
        rows = [{"id": i, "vec": [np.sin(i), np.cos(i), 0.1 * i]} for i in range(150)]
        rows.append({"id": 10**6, "vec": [1.0, 2.0, 3.0]})
        pretrained.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "d"
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--split", "train", "--out", str(out), "--pretrained", str(pretrained)]
        )
        assert code == 0
        assert "spread R^2=" in capsys.readouterr().out
        spread = json.loads(read_bytes(out / "spread-report.json"))
        assert len(spread["per_document"]) == 8
        main(["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
              "--split", "train", "--out", str(tmp_path / "random-table")])
        assert read_bytes(tmp_path / "random-table" / "spread-report.json") != read_bytes(
            out / "spread-report.json"
        )

    @pytest.mark.parametrize("pretrained", [False, True], ids=["random", "pretrained"])
    def test_word_table_over_the_bound_is_data_error(self, tmp_path, capsys, pretrained):
        """A token id of 10**23 infers a vocabulary whose word table is far
        over the bound, for the random table and a pretrained file's alike."""
        records = two_documents()
        records[0]["sentences"][0]["tokens"][1] = 10**23
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        argv = ["diagnose", "--corpus", str(corpus), "--split", "train",
                "--out", str(tmp_path / "d")]
        if pretrained:
            (tmp_path / "emb.jsonl").write_text(json.dumps({"id": 1, "vec": [0.1, 0.2, 0.3]}))
            argv += ["--pretrained", str(tmp_path / "emb.jsonl")]
        assert main(argv) == 2
        width = 3 if pretrained else 32
        assert f"vocab_size={10**23 + 1}, word_dim={width}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_bins_beyond_memory_is_usage_error(self, workspace, tmp_path, capsys):
        """numpy refuses 10**12 + 1 bin edges (8 TB) at once."""
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--split", "train", "--out", str(tmp_path / "d"), "--bins", str(10**12)]
        )
        assert code == 1
        assert f"--bins {10**12} needs more memory" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([], "has no rows"),
            ([{"id": 0, "vec": [0.1, 0.2]}, {"id": 1, "vec": [0.3]}],
             "line 2: malformed embedding row: vector width 1, but the first row has 2"),
            ([{"id": 0, "vec": [0.1, 0.2]}, {"id": "1", "vec": [0.3, 0.4]}],
             "line 2: malformed embedding row: id '1' is not an integer"),
        ],
    )
    def test_malformed_pretrained_file_is_data_error(
        self, workspace, tmp_path, capsys, rows, message
    ):
        pretrained = tmp_path / "emb.jsonl"
        pretrained.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--split", "train", "--out", str(tmp_path / "d"), "--pretrained", str(pretrained)]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestMalformedInputs:
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"train": 5}'])
    def test_malformed_split_manifest_is_data_error(self, workspace, tmp_path, capsys, text):
        manifest = tmp_path / "splits.json"
        manifest.write_text(text)
        code = main(
            ["diagnose", "--corpus", str(workspace / "data" / "corpus.jsonl"),
             "--splits", str(manifest), "--split", "train", "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert f"split manifest {manifest}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where,value,message",
        [
            (("sentences", 0, "tokens", 0), 3.7, "sentence 0 token 3.7"),
            (("sentences", 0, "tokens", 0), True, "sentence 0 token True"),
            (("sentences", 0, "tokens", 0), "2", "sentence 0 token '2'"),
            (("images", 0, "concepts", 0, 0), 1.5, "image 0 concept token 1.5"),
            (("gold_edges", 0), [0.2, 0], "gold edge index 0.2"),
        ],
    )
    def test_non_integer_id_is_data_error(
        self, workspace, tmp_path, capsys, where, value, message
    ):
        """JSON integers only: int() used to load 3.7 as 3, true as 1 and
        "2" as 2 without a word."""
        source = workspace / "data"

        def replace(records):
            target = records[1]
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = value

        corpus = tmp_path / "bad.jsonl"
        record = rewrite_corpus(source / "corpus.jsonl", corpus, replace)[1]
        code = main(
            ["diagnose", "--corpus", str(corpus), "--splits", str(source / "splits.json"),
             "--split", "train", "--out", str(tmp_path / "d")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 2: malformed record of document {record['id']!r}" in err
        assert f"{message} is not an integer" in err

    @pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
    def test_corpus_member_with_object_dtype_is_data_error(
        self, trained, tmp_path, capsys, command
    ):
        """The corpus reader never unpickles: an object array exits 2."""
        corpus, ckpt = trained
        bad = tmp_path / "pickled.jsonl"
        rewrite_zip(corpus, bad, tokens=np.array([{"x": 1}], dtype=object))
        extra = ["--checkpoint", str(ckpt)] if command == "eval" else []
        code = main([command, "--corpus", str(bad), *extra,
                     "--splits", str(corpus.parent / "splits.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: corpus {bad} member 'tokens' is malformed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,flag",
        [("train", "--corpus"), ("train", "--config"), ("train", "--splits"),
         ("train", "--pretrained"), ("eval", "--checkpoint")],
    )
    def test_directory_for_a_file_is_data_error(
        self, workspace, tmp_path, capsys, command, flag
    ):
        data, folder = workspace / "data", tmp_path / "folder"
        folder.mkdir()
        files = {"--corpus": data / "corpus.jsonl", "--splits": data / "splits.json"}
        files[flag] = folder
        code = main([command, *as_flags(files), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"Is a directory: {str(folder)!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gen_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        config, out = tmp_path / "gen.json", tmp_path / "taken"
        write_json(config, {"synth": synth_section()})
        out.write_text("")
        code = main(["gen", "--out", str(out), "--config", str(config)])
        assert code == 2
        assert f"File exists: {str(out)!r}" in capsys.readouterr().err
        assert out.read_text() == ""

    @pytest.mark.parametrize("flag", ["--corpus", "--pretrained"])
    def test_non_utf8_byte_names_the_line(self, workspace, tmp_path, capsys, flag):
        data, emb = workspace / "data", tmp_path / "emb.jsonl"
        emb.write_text('{"id": 0, "vec": [0.1]}\n{"id": 1, "vec": [0.2]}\n')
        files = {"--corpus": tmp_path / "corpus.jsonl", "--pretrained": emb}
        rewrite_corpus(data / "corpus.jsonl", files["--corpus"])
        lines = read_bytes(files[flag]).splitlines()
        lines[1] += b" \xff"
        files[flag] = tmp_path / "bad.jsonl"
        files[flag].write_bytes(b"\n".join(lines) + b"\n")
        code = main(
            ["diagnose", *as_flags(files), "--splits", str(data / "splits.json"), "--split", "train",
             "--out", str(tmp_path / "d")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2: " in err and "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "flag,message",
        [("--corpus", "line 2: malformed record of document"),
         ("--pretrained", "line 1: malformed embedding row"),
         ("--checkpoint", "is malformed")],
    )
    def test_int_beyond_float_range_is_data_error(self, trained, tmp_path, capsys, flag, message):
        """1 followed by 400 zeros is a JSON integer that no float64 holds."""
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        files = {"--corpus": corpus, "--checkpoint": ckpt, "--pretrained": bad}
        if flag == "--corpus":

            def overflow(records):
                records[1]["images"][0]["objects"][0][0] = 10**400

            rewrite_corpus(corpus, bad, overflow)
            files["--corpus"] = bad
        elif flag == "--pretrained":
            bad.write_text(json.dumps({"id": 0, "vec": [10**400]}) + "\n")
        else:
            rewrite_checkpoint(ckpt, bad, lambda h: h["history"][0].update(total=10**400))
            files["--checkpoint"] = bad
            files["--pretrained"] = None
        code = main(
            ["diagnose", *as_flags(files), "--splits", str(corpus.parent / "splits.json"),
             "--split", "train", "--out", str(tmp_path / "d")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "int too large to convert to float" in err

    @pytest.mark.parametrize(
        "images,message",
        [([], "document 'a': needs at least one image"),
         ([{"objects": [[]], "concepts": [[1]]}], "document 'a': image 0 has empty object rows")],
    )
    def test_first_document_without_object_features_is_data_error(
        self, tmp_path, capsys, images, message
    ):
        """obj_dim is inferred from the first document's first image."""
        first = {"id": "a", "sentences": [{"tokens": [0]}], "images": images, "gold_edges": []}
        second = {
            "id": "b",
            "sentences": [{"tokens": [1]}],
            "images": [{"objects": [[0.5]], "concepts": [[1]]}],
            "gold_edges": [[0, 0]],
        }
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err


def two_documents() -> list:
    """Records of a valid two-document corpus: 'a' has one sentence and
    one image, 'b' two sentences and two images, the first of two objects."""
    return [
        {"id": "a", "sentences": [{"tokens": [0, 1]}],
         "images": [{"objects": [[0.5, 1.0]], "concepts": [[1]]}], "gold_edges": [[0, 0]]},
        {"id": "b", "sentences": [{"tokens": [2]}, {"tokens": [3]}],
         "images": [{"objects": [[0.1, 1.0], [0.2, 0.3]], "concepts": [[3], [2]]},
                    {"objects": [[0.4, 0.4]], "concepts": [[4]]}],
         "gold_edges": [[0, 0], [1, 1]]},
    ]


class TestCorpusInvariants:
    """A corpus that parses but breaks an invariant exits 2 at load, naming
    the document and the item."""

    def run_train(self, tmp_path, records, splits=None) -> int:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        if splits is not None:  # found as the corpus's sibling
            write_json(tmp_path / "splits.json", splits)
        return main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "where,value,message",
        [
            (("id",), "a", "duplicate document id 'a'"),
            (("sentences", 1, "tokens"), [], "document 'b': sentence 1 is empty"),
            (("images", 1, "objects"), [], "document 'b': image 1 needs at least one object row"),
            (("images", 0, "concepts", 1), [], "document 'b': image 0 concept 1 is empty"),
            (("images", 0, "concepts", 1), [-1],
             "document 'b': image 0 concept token -1 outside vocabulary of size 5"),
        ],
    )
    def test_broken_document_is_data_error(self, tmp_path, capsys, where, value, message):
        records = two_documents()
        target = records[1]
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        assert self.run_train(tmp_path, records) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "splits,message",
        [
            ({"train": ["a", "b"], "val": ["b"]}, "splits are not disjoint"),
            ({"train": ["a"]}, "splits do not cover all documents exactly"),
            pytest.param({"train": ["a"], "val": ["b"], "test": ["b"]},
                         "splits are not disjoint: document 'b' is listed in ['val', 'test']\n",
                         id="in-two-splits"),
            pytest.param({"train": ["a", "b", "a"]},
                         "splits are not disjoint: document 'a' is listed in ['train', 'train']\n",
                         id="twice-in-one-split"),
            pytest.param({"train": ["a", "b"], "test": ["nope"]},
                         "splits do not cover all documents exactly: "
                         "split 'test' lists unknown document 'nope'\n",
                         id="unknown-id"),
            pytest.param({"train": ["b"]},
                         "splits do not cover all documents exactly: document 'a' is in no split\n",
                         id="in-no-split"),
        ],
    )
    def test_bad_split_manifest_is_data_error(self, tmp_path, capsys, splits, message):
        assert self.run_train(tmp_path, two_documents(), splits) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_valid_corpus_loads(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in two_documents()))
        loaded = load_corpus(str(corpus))
        assert (loaded.vocab_size, loaded.obj_dim) == (5, 2)

    @pytest.mark.filterwarnings("ignore:documents \\['a'\\] keep no sentence")
    def test_word_table_numpy_refuses_is_data_error(self, tmp_path, capsys):
        """A token id of 10**23 infers a vocabulary beyond numpy's largest
        dimension; numpy refuses the table's shape before allocating."""
        records = two_documents()
        records[0]["sentences"][0]["tokens"][1] = 10**23
        assert self.run_train(tmp_path, records) == 2
        err = capsys.readouterr().err
        assert f"vocab_size={10**23 + 1}" in err and "word_dim=300" in err
        assert not (tmp_path / "o" / "checkpoint.json").exists()


class TestStoredRunState:
    """The run state a checkpoint stores is checked when it loads: a wrong
    field makes ``train --resume`` and ``eval`` exit 2 naming it, before
    either makes its --out folder."""

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda p: p.update(step="abc"), "step must be an integer, got 'abc'"),
            (lambda p: p.update(epoch=1.5), "epoch must be an integer, got 1.5"),
            (lambda p: p.update(decays="2"), "decays must be an integer, got '2'"),
            (lambda p: p.update(best_val="x"), "best_val must be a number or None, got 'x'"),
            (lambda p: p.update(history={}), "history must be a list, got {}"),
            (lambda p: p.update(history=[1]),
             "history record 0 must map names to finite numbers or None, got 1"),
            (lambda p: p.update(history=[{"total": "x"}]),
             "history record 0 must map names to finite numbers or None, got {'total': 'x'}"),
            (lambda p: p.update(rng={}), "lacks the 'batching' entry"),
            (lambda p: p["rng"]["batching"].update(bit_generator="MT19937"),
             "rng 'batching' is not a PCG64 state"),
        ],
        ids=["step", "epoch", "decays", "best_val", "history", "history-int", "history-str",
             "rng", "batching"],
    )
    def test_bad_field_is_data_error(self, trained, tmp_path, capsys, mutate, message):
        corpus, ckpt = trained
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(ckpt, bad, mutate)
        config = tmp_path / "resume.json"
        write_json(config, train_sections(max_epochs=3))
        for argv in (
            ["train", "--config", str(config), "--resume", str(bad)],
            ["eval", "--checkpoint", str(bad)],
        ):
            code = main(argv + ["--corpus", str(corpus), "--out", str(tmp_path / "o")])
            assert code == 2, argv[0]
            err = capsys.readouterr().err
            assert f"checkpoint {bad}" in err and message in err, argv[0]
        assert not (tmp_path / "o").exists()


def small_corpus(tmp_path, name, **synth):
    """A 3x3-document corpus (object width 4, vocabulary 60, sentences of 4
    tokens) with two train documents and one val document."""
    config = tmp_path / f"{name}.json"
    shape = dict(train_docs=2, val_docs=1, test_docs=0, obj_dim=4, vocab_size=60)
    write_json(config, {"synth": synth_section(**{**shape, **synth})})
    assert main(["gen", "--out", str(tmp_path / name), "--config", str(config)]) == 0
    return tmp_path / name / "corpus.jsonl"


def first_misfit(corpus_path, splits, misfit) -> str:
    corpus = load_corpus(str(corpus_path))
    docs = [doc for split in splits for doc in corpus.split_documents(split)]
    return next(doc.id for doc in docs if misfit(doc))


def longest_sentence(doc):
    return max(len(tokens) for tokens in doc.sentences)


def largest_token(doc):
    concepts = [t for img in doc.images for concept in img.concepts for t in concept]
    return max(concepts + [t for tokens in doc.sentences for t in tokens])


def object_width(doc):
    return doc.images[0].objects.shape[1]


class TestModelFit:
    """A corpus the model cannot encode exits 2 before the first step,
    naming the document and the model setting."""

    @pytest.mark.parametrize(
        "key,value,misfit",
        [
            ("max_sentence_len", 2, lambda doc: longest_sentence(doc) > 2),
            ("vocab_size", 10, lambda doc: largest_token(doc) >= 10),
            ("obj_dim", 5, lambda doc: object_width(doc) != 5),
        ],
    )
    def test_train_names_document_and_setting(self, tmp_path, capsys, key, value, misfit):
        corpus = small_corpus(tmp_path, "small")
        sections = train_sections()
        sections["model"][key] = value
        config = tmp_path / "train.json"
        write_json(config, sections)
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                     "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"document {first_misfit(corpus, ('train', 'val'), misfit)!r}" in err
        assert f"{key}={value}" in err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "synth,setting,misfit",
        [
            ({"sentence_len": 10}, "max_sentence_len=8", lambda doc: longest_sentence(doc) > 8),
            ({"vocab_size": 600}, "vocab_size=60", lambda doc: largest_token(doc) >= 60),
            ({"obj_dim": 5}, "obj_dim=4", lambda doc: object_width(doc) != 4),
        ],
    )
    def test_checkpoint_commands_name_document_and_setting(
        self, tmp_path, capsys, synth, setting, misfit
    ):
        config = tmp_path / "train.json"
        write_json(config, train_sections(max_epochs=1))
        fitted = small_corpus(tmp_path, "fitted")
        ckpt = tmp_path / "run" / "checkpoint.json"
        assert main(["train", "--corpus", str(fitted), "--out", str(tmp_path / "run"),
                     "--config", str(config)]) == 0
        other = small_corpus(tmp_path, "other", **synth)
        expected = f"document {first_misfit(other, ('train',), misfit)!r}"
        for command in (["eval"], ["diagnose"], ["diagnose", "--learned"]):
            capsys.readouterr()
            code = main(command + ["--corpus", str(other), "--checkpoint", str(ckpt),
                                   "--split", "train", "--out", str(tmp_path / "o")])
            assert code == 2, command
            err = capsys.readouterr().err
            assert expected in err and setting in err, command
        assert not (tmp_path / "o").exists()


class TestConfigChecks:
    """Every config value has its declared type, is finite and lies in its
    range, or the command exits 1 naming the field or flag."""

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "batch_size", 2.5),
            ("train", "max_epochs", 1.5),
            ("model", "heads", 2.0),
            ("train", "warmup_steps", "5"),
            ("objective", "alpha", "0.2"),
            ("model", "embed_dim", "8"),
            ("train", "seed", 1.5),
            ("train", "use_cross", "no"),
            ("train", "plateau_patience_epochs", 0.5),
            ("objective", "k_override", 1.5),
            ("train", "max_lr", float("inf")),
        ],
    )
    def test_mistyped_train_setting_is_usage_error(
        self, workspace, tmp_path, capsys, section, key, value
    ):
        sections = train_sections()
        sections.setdefault(section, {})[key] = value
        config = tmp_path / "bad.json"
        write_json(config, sections)
        code = main(["train", "--corpus", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path / "x"), "--config", str(config)])
        assert code == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "x" / "checkpoint.json").exists()

    @pytest.mark.parametrize("command", ["gen", "train", "diagnose"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys, command):
        args = {
            "gen": [],
            "train": ["--corpus", str(workspace / "data" / "corpus.jsonl")],
            "diagnose": ["--corpus", str(workspace / "data" / "corpus.jsonl"), "--split", "train"],
        }[command]
        capsys.readouterr()
        code = main([command, *args, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_generated_corpus_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "empty.json"
        write_json(config, {"synth": synth_section(train_docs=0, val_docs=0, test_docs=0)})
        code = main(["gen", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert "train_docs + val_docs + test_docs must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "corpus.jsonl").exists()


ANY_VALUE = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


@pytest.mark.parametrize("cls", [SynthConfig, ModelConfig, ObjectiveConfig, TrainConfig])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_build_config_raises_only_usage_error(cls, data):
    """Any JSON-shaped value in any field gives a config holding exactly
    those values, or a UsageError; never another exception."""
    fields = dataclasses.fields(cls)
    required = {f.name: ANY_VALUE for f in fields if f.default is dataclasses.MISSING}
    optional = {f.name: ANY_VALUE for f in fields if f.name not in required}
    section = data.draw(st.fixed_dictionaries(required, optional=optional))
    try:
        config = _build_config(cls, section)
    except UsageError:
        return
    for key, value in section.items():
        assert getattr(config, key) is value
