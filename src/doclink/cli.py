"""Command-line interface: gen, train, eval, diagnose.

Each subcommand reads an optional JSON config file, applies flag
overrides (flags win), writes its outputs plus a config echo into --out,
and never modifies its inputs.  Exit codes: 0 success, 1 usage,
2 data/validation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .corpus import (
    SPLITS,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_pretrained_embeddings,
    load_split_manifest,
    save_corpus,
    save_split_manifest,
    token_overlap_scores,
)
from .diagnostics import bias_report, document_spreads, spread_regression
from .encoder import ModelConfig, copy_rows, split_representations, word_table
from .errors import (
    ConfigError,
    CorpusValidationError,
    DegenerateEmbeddingError,
    DoclinkError,
    NonFiniteError,
    build_settings,
)
from .evalmetrics import evaluate, evaluate_matrices, similarity_matrices
from .objective import ObjectiveConfig
from .rng import RngStream
from .trainer import TrainConfig, load_checkpoint, train


class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return raw

def _section(config_file: dict, name: str, allowed_sections) -> dict:
    unknown = set(config_file) - set(allowed_sections)
    if unknown:
        raise UsageError(
            f"unknown config sections {sorted(unknown)}; expected {sorted(allowed_sections)}"
        )
    section = config_file.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    return dict(section)


def _build_config(cls, section: dict, overrides: dict | None = None):
    """Dataclass from config-file section plus flag overrides; flags win.
    Unknown keys and invalid values are usage errors."""
    merged = dict(section)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    try:
        return build_settings(cls, merged)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def _parse_objectives(text: str) -> dict:
    codes = {"C": "use_cross", "I": "use_intra", "D": "use_sub"}
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("--objectives needs at least one of C, I, D")
    for p in parts:
        if p not in codes:
            raise UsageError(f"unknown objective code {p!r}; valid codes: C, I, D")
    return {field: code in parts for code, field in codes.items()}


def _parse_ks(text: str) -> tuple:
    try:
        ks = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"--ks must be comma-separated integers, got {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--ks entries must be >= 1, got {text!r}")
    return ks


def _prepare_out(out_dir, filenames, force: bool):
    """The output paths, once no existing file would be overwritten without
    --force; the folder itself is made by the first write."""
    existing = [n for n in filenames if os.path.exists(os.path.join(out_dir, n))]
    if existing and not force:
        raise UsageError(
            f"refusing to overwrite {existing} in {out_dir}; pass --force"
        )
    return [os.path.join(out_dir, n) for n in filenames]


def _write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _splits_for(corpus_path, splits_path):
    """Manifest from --splits, else the sibling splits.json of the corpus."""
    if splits_path is None:
        splits_path = os.path.join(os.path.dirname(corpus_path) or ".", "splits.json")
        if not os.path.exists(splits_path):
            return None
    return load_split_manifest(splits_path)


def _require_documents(corpus, split: str) -> None:
    if not corpus.split_documents(split):
        raise CorpusValidationError(f"split {split!r} has no documents")


def cmd_gen(args) -> int:
    config_file = _read_config_file(args.config)
    synth = _build_config(SynthConfig, _section(config_file, "synth", ["synth"]))
    try:
        corpus = generate_synthetic(synth, RngStream(args.seed))
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError as exc:  # numpy refuses an array these settings ask for
        raise UsageError(f"cannot allocate the corpus: {synth.size_settings()}: {exc}") from exc

    paths = _prepare_out(args.out, ["corpus.jsonl", "splits.json", "gen-config.json"], args.force)
    save_corpus(corpus, paths[0])
    save_split_manifest(corpus.splits, paths[1])
    _write_json(paths[2], {"seed": args.seed, "synth": dataclasses.asdict(synth)})

    densities, n_sent, n_img = [], [], []
    for doc in corpus.documents:
        n, m = len(doc.sentences), len(doc.images)
        n_sent.append(n)
        n_img.append(m)
        densities.append(len(doc.gold_edges) / (n * m))
    print(
        f"documents: train={len(corpus.splits['train'])} "
        f"val={len(corpus.splits['val'])} test={len(corpus.splits['test'])}; "
        f"sentences/doc={np.mean(n_sent):.2f}; images/doc={np.mean(n_img):.2f}; "
        f"gold density={np.mean(densities):.3f}"
    )
    return 0


def cmd_train(args) -> int:
    config_file = _read_config_file(args.config)
    sections = ["model", "objective", "train"]
    splits = _splits_for(args.corpus, args.splits)
    corpus = load_corpus(args.corpus, splits=splits)

    model_section = _section(config_file, "model", sections)
    model_section.setdefault("vocab_size", corpus.vocab_size)
    model_section.setdefault("obj_dim", corpus.obj_dim)
    model_config = _build_config(ModelConfig, model_section)
    objective_config = _build_config(
        ObjectiveConfig, _section(config_file, "objective", sections)
    )
    overrides = {"seed": args.seed}
    if args.objectives is not None:
        overrides.update(_parse_objectives(args.objectives))
    train_config = _build_config(
        TrainConfig, _section(config_file, "train", sections), overrides
    )
    if not (train_config.use_cross or train_config.use_intra or train_config.use_sub):
        raise UsageError("train config turns off use_cross, use_intra and use_sub; "
                         "enable at least one objective")

    pretrained = (
        load_pretrained_embeddings(args.pretrained) if args.pretrained else None
    )
    paths = _prepare_out(
        args.out, ["checkpoint.json", "history.json", "train-config.json"], args.force
    )
    result = train(
        corpus,
        model_config,
        objective_config,
        train_config,
        pretrained=pretrained,
        checkpoint_path=paths[0],
        resume_from=args.resume,
    )
    _write_json(paths[1], result.history)
    _write_json(
        paths[2],
        {
            "corpus": args.corpus,
            "model": dataclasses.asdict(model_config),
            "objective": dataclasses.asdict(objective_config),
            "train": dataclasses.asdict(train_config),
        },
    )
    last = result.history[-1] if result.history else {}
    val = last.get("val_loss")
    print(
        f"trained {len(result.history)} epochs, {result.step} steps; "
        f"final train loss={last.get('total', float('nan')):.6f} "
        f"val loss={'none' if val is None else format(val, '.6f')}"
    )
    return 0


def cmd_eval(args) -> int:
    splits = _splits_for(args.corpus, args.splits)
    corpus = load_corpus(args.corpus, splits=splits)
    ks = _parse_ks(args.ks)
    _require_documents(corpus, args.split)
    params, _, _ = load_checkpoint(args.checkpoint)

    report = evaluate(corpus, args.split, params, params.config, ks=ks)
    paths = _prepare_out(args.out, ["eval-report.json", "eval-config.json"], args.force)
    _write_json(paths[0], report.to_json_dict())
    _write_json(
        paths[1],
        {
            "corpus": args.corpus,
            "checkpoint": args.checkpoint,
            "split": args.split,
            "ks": list(ks),
        },
    )
    p_line = " ".join(f"p@{k}=" + (format(report.p_at[k], ".4f") if k in report.p_at else "n/a")
                      for k in sorted(set(ks)))
    auc = "n/a" if report.macro_auc is None else format(report.macro_auc, ".4f")
    print(f"split={args.split} macro AUC={auc} {p_line}")
    return 0


def _word_table(args, corpus, params):
    """Word vectors for text spreads: pretrained file, else the trained
    table, else a fixed random table (content-free but deterministic)."""
    if args.pretrained:
        rows = load_pretrained_embeddings(args.pretrained)
        width = len(next(iter(rows.values())))
        return copy_rows(word_table(corpus.vocab_size, width, np.zeros), rows)
    if params is not None:
        return params.word_embed.data
    rng = RngStream(args.seed).child("wordtable")
    return word_table(corpus.vocab_size, 32, lambda size: rng.normal(size=size))


def cmd_diagnose(args) -> int:
    for flag, value in (("--samples", args.samples), ("--bins", args.bins)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    splits = _splits_for(args.corpus, args.splits)
    corpus = load_corpus(args.corpus, splits=splits)
    _require_documents(corpus, args.split)

    params = load_checkpoint(args.checkpoint)[0] if args.checkpoint else None
    if args.learned and params is None:
        raise UsageError("--learned requires --checkpoint")
    docs = corpus.split_documents(args.split)
    reps = None
    if params is not None:
        # One encoding serves the learned bias probe and the model AUC.
        reps = split_representations(corpus, args.split, params, params.config)

    try:
        bias = bias_report(
            corpus,
            args.split,
            samples_per_sentence=args.samples,
            bins=args.bins,
            rng=RngStream(args.seed).child("diagnostics"),
            image_reps=[img.data for _, img in reps] if args.learned else None,
        )
    except MemoryError as exc:  # numpy refuses the histogram's bin edges
        raise UsageError(f"--bins {args.bins} needs more memory than is free: {exc}") from exc

    spreads = document_spreads(corpus, args.split, _word_table(args, corpus, params))
    if reps is not None:
        matrices = similarity_matrices(docs, reps)
    else:  # the model-free token-overlap oracle
        matrices = {d.id: token_overlap_scores(d) for d in docs}
    report = evaluate_matrices(matrices, {d.id: d.gold_edges for d in docs}, ks=(1,))
    auc_by_id = {row["id"]: row["auc"] for row in report.per_document}
    rows = [
        (doc_id, img, txt, auc_by_id[doc_id])
        for doc_id, img, txt in spreads
        if auc_by_id.get(doc_id) is not None
    ]
    spread = spread_regression(rows)

    paths = _prepare_out(
        args.out,
        ["bias-report.json", "spread-report.json", "diagnose-config.json"],
        args.force,
    )
    _write_json(paths[0], bias.to_json_dict())
    _write_json(paths[1], spread.to_json_dict())
    _write_json(
        paths[2],
        {
            "corpus": args.corpus,
            "split": args.split,
            "seed": args.seed,
            "samples": args.samples,
            "bins": args.bins,
            "checkpoint": args.checkpoint,
            "learned": args.learned,
        },
    )
    r2 = spread.r_squared
    print(
        f"KS D={bias.ks_statistic:.4f} p={bias.ks_p_value:.3e}; "
        f"spread R^2={'undefined' if r2 is None else format(r2, '.4f')}"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="doclink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", help="JSON config file with a 'synth' section")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--force", action="store_true", help="overwrite existing outputs")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a model on a corpus")
    tr.add_argument(
        "--corpus", required=True, help="corpus file: a doclink-corpus-v2 zip or JSON Lines"
    )
    tr.add_argument("--splits", help="split manifest (default: sibling splits.json)")
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", help="JSON config: model/objective/train sections")
    tr.add_argument("--seed", type=int, default=None, help="overrides train.seed")
    tr.add_argument(
        "--objectives",
        help="comma-separated codes: C (cross-document), I (intra-document), "
        "D (sub-document dropout); default C,I,D",
    )
    tr.add_argument("--pretrained", help="pretrained word embedding JSONL")
    tr.add_argument("--resume", help="checkpoint to resume from")
    tr.add_argument("--force", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--splits")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split", default="test", choices=SPLITS)
    ev.add_argument("--ks", default="1,5", help="comma-separated precision cutoffs")
    ev.add_argument("--out", required=True)
    ev.add_argument("--force", action="store_true")
    ev.set_defaults(func=cmd_eval)

    dg = sub.add_parser("diagnose", help="bias and spread reports for a split")
    dg.add_argument("--corpus", required=True)
    dg.add_argument("--splits")
    dg.add_argument("--split", default="test", choices=SPLITS)
    dg.add_argument("--out", required=True)
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--samples", type=int, default=5, help="cross negatives per sentence")
    dg.add_argument("--bins", type=int, default=20)
    dg.add_argument("--checkpoint", help="optional checkpoint for model-based AUC")
    dg.add_argument(
        "--learned",
        action="store_true",
        help="measure distances in encoder space instead of raw features",
    )
    dg.add_argument("--pretrained", help="word embeddings for text spreads")
    dg.add_argument("--force", action="store_true")
    dg.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Every --seed seeds PCG64, which takes no negative seed.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteError, DegenerateEmbeddingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DoclinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
