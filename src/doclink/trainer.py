"""Mini-batch training: Adam, linear warm-up, plateau decay, checkpoints.

The schedule follows the configured recipe: learning rate grows linearly
from start_lr to max_lr over warmup_steps, then holds; whenever validation
total loss fails to improve by more than 1e-6 for plateau_patience_epochs
consecutive epochs, the rate drops by decay_factor.

Determinism: one root seed fans out into named streams (init, batching,
dropout), and validation re-derives a fixed dropout stream each epoch so
its loss is comparable across epochs.  A :class:`TrainState` holds what a
run carries between epochs besides parameters and Adam moments; checkpoints
store it verbatim, so a resumed run continues the unbroken sequence.
A checkpoint (format ``doclink-checkpoint-v2``) is a zip of a JSON header
and three flat float64 arrays: the parameters and Adam's two moments, each
packed in ``named_parameters()`` order.  :func:`save_checkpoint` is its
only writer and :func:`load_checkpoint` its only reader, and a resume must
request every stored setting unchanged except max_epochs.  Adam's betas
and eps are the constants BETA1, BETA2 and EPS, so no checkpoint stores
them, and its bias correction counts steps with ``TrainState.step``.
"""

from __future__ import annotations

import json
import math
import os
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor
from .corpus import Corpus
from .encoder import ModelConfig, ModelParams, batch_representations, init_params
from .errors import BatchError, ConfigError, NonFiniteError, check_settings, setting
from .objective import ObjectiveConfig, check_k_override, degenerate_subdocuments, total_loss
from .rng import RngStream

CHECKPOINT_FORMAT = "doclink-checkpoint-v2"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    max_lr: float = 5e-5
    warmup_steps: int = setting(4000, low=0)
    start_lr: float = setting(1e-7, low=0)
    batch_size: int = setting(11, low=2)
    plateau_patience_epochs: int = setting(3, low=0)
    decay_factor: float = setting(5.0, above=1)
    max_epochs: int = setting(10, low=0)
    seed: int = setting(0, low=0)
    use_cross: bool = True
    use_intra: bool = True
    use_sub: bool = True

    def __post_init__(self):
        check_settings(self)
        if not self.start_lr < self.max_lr:
            raise ConfigError(
                f"start_lr {self.start_lr} must be below max_lr {self.max_lr}"
            )


def lr_at(step: int, config: TrainConfig, decays: int = 0) -> float:
    """Warm-up interpolation, then max_lr, scaled down by plateau decays."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if config.warmup_steps > 0 and step < config.warmup_steps:
        frac = step / config.warmup_steps
        base = config.start_lr + (config.max_lr - config.start_lr) * frac
    else:
        base = config.max_lr
    return base / config.decay_factor**decays


class OptimizerState:
    """Adam moments keyed by parameter name, allocated as zeros beside the
    named parameters (name -> tensor) they update."""

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict, state: OptimizerState, lr: float, t: int) -> None:
    """Adam update number ``t`` (from 1) with bias correction; gradients are
    cleared after.

    ``params`` maps names to tensors whose .grad was populated by backward;
    a missing gradient counts as zero.  Any non-finite gradient aborts,
    naming the parameter.
    """
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g**2
        m_hat = state.m[name] / (1.0 - BETA1**t)
        v_hat = state.v[name] / (1.0 - BETA2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None


def make_batches(count: int, batch_size: int, rng: RngStream) -> list:
    """Shuffled index batches; a short tail below 2 merges into the
    previous batch (hard negatives need at least 2 documents)."""
    order = [int(i) for i in rng.permutation(count)]
    batches = [order[i : i + batch_size] for i in range(0, count, batch_size)]
    if len(batches) > 1 and len(batches[-1]) < 2:
        batches[-2].extend(batches.pop())
    if len(batches[0]) < 2:
        raise BatchError("training requires at least 2 documents")
    return batches


@dataclass
class TrainState:
    """Where a run stands between epochs: schedule position, plateau
    bookkeeping, history and the batching/dropout rng states.  A checkpoint
    stores these fields verbatim, so a resumed run continues exactly; they
    are checked like config fields, and each history record must map names
    to finite numbers or None, so a stored state of the wrong type fails to
    load."""

    step: int = setting(0, low=0)
    epoch: int = setting(0, low=0)
    decays: int = setting(0, low=0)
    best_val: float | None = None
    stall: int = setting(0, low=0)
    history: list = field(default_factory=list)
    rng: dict = field(default_factory=dict)

    def __post_init__(self):
        check_settings(self)
        for i, record in enumerate(self.history):
            # An int beyond the float range fails in math.isfinite.
            if not isinstance(record, dict) or not all(
                value is None
                or (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and math.isfinite(value))
                for value in record.values()
            ):
                raise ConfigError(
                    f"history record {i} must map names to finite numbers or None, "
                    f"got {record!r}"
                )


@dataclass
class TrainResult:
    params: ModelParams
    optimizer: OptimizerState
    history: list = field(default_factory=list)
    step: int = 0


def _batch_loss(docs, batch_ids, params, objective_config, train_config, dropout):
    """Encode one batch of ``docs`` and score it with every enabled
    objective: ``total_loss``'s (batch_mean, parts)."""
    reps = batch_representations([docs[i] for i in batch_ids], params, params.config)
    return total_loss(
        reps,
        objective_config,
        dropout,
        use_cross=train_config.use_cross,
        use_intra=train_config.use_intra,
        use_sub=train_config.use_sub,
    )


def _split_loss(docs, params, objective_config, train_config, rng: RngStream) -> float | None:
    """Mean per-document total loss over a split, graph-free."""
    if len(docs) < 2:
        return None
    dropout = rng.child("dropout")
    with tensor.no_grad():
        totals = [
            _batch_loss(docs, batch_ids, params, objective_config, train_config, dropout)[1]["total"]
            for batch_ids in make_batches(len(docs), train_config.batch_size, rng.child("order"))
        ]
    return float(np.mean(np.concatenate(totals)))


def train(
    corpus: Corpus,
    model_config: ModelConfig,
    objective_config: ObjectiveConfig,
    train_config: TrainConfig,
    pretrained: dict | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
) -> TrainResult:
    """Run the full loop and return trained parameters plus history.

    History holds one record per epoch: train loss (mean per-document total
    across the epoch) with its per-objective components, validation loss,
    learning rate at epoch end, and the decay count.  If ``checkpoint_path``
    is set, a checkpoint is written after every epoch; a non-finite loss
    aborts, leaving the last epoch's checkpoint in place.  ``resume_from``
    restores parameters, optimizer and :class:`TrainState`, then continues
    to max_epochs; every stored setting except max_epochs must equal the
    requested one.  With ``use_sub`` on, one warning before the first step
    names the train and val documents whose sub-document draw is always
    degenerate (see :func:`degenerate_subdocuments`).
    """
    train_docs = corpus.split_documents("train")
    if not train_docs:
        raise BatchError("train split is empty")
    val_docs = corpus.split_documents("val")
    degenerate = []
    for docs in (train_docs, val_docs):
        if len(docs) >= 2:  # a single document never forms a batch
            shapes = [(d.id, len(d.sentences), len(d.images)) for d in docs]
            check_k_override(shapes, objective_config, use_sub=train_config.use_sub)
            degenerate += degenerate_subdocuments(shapes, objective_config.p_sub)
    if train_config.use_sub and degenerate:
        warnings.warn(
            f"documents {degenerate} keep no sentence or no image in a sub-document "
            f"draw under p_sub={objective_config.p_sub}; their sub-document loss is zero"
        )

    root = RngStream(train_config.seed)
    batching = root.child("batching")
    dropout = root.child("dropout")

    if resume_from is not None:
        params, optimizer, state = load_checkpoint(
            resume_from, model_config, objective_config, train_config
        )
        batching.set_state(state.rng["batching"])
        dropout.set_state(state.rng["dropout"])
    else:
        params = init_params(model_config, root.child("init"), pretrained=pretrained)
        optimizer = OptimizerState(params.named_parameters())
        state = TrainState()

    named = params.named_parameters()
    for epoch in range(state.epoch, train_config.max_epochs):
        epoch_parts = []
        for batch_ids in make_batches(len(train_docs), train_config.batch_size, batching):
            loss, parts = _batch_loss(
                train_docs, batch_ids, params, objective_config, train_config, dropout
            )
            if not np.isfinite(loss.data):
                raise NonFiniteError(
                    f"non-finite loss at step {state.step}; last checkpoint retained"
                )
            tensor.backward(loss)
            lr = lr_at(state.step, train_config, state.decays)
            adam_step(named, optimizer, lr, t=state.step + 1)
            state.step += 1
            epoch_parts.append(parts)

        # child() re-derives the same seed every epoch: validation sees a
        # fixed dropout pattern, keeping epoch losses comparable.
        val_loss = _split_loss(
            val_docs, params, objective_config, train_config, root.child("validation")
        )
        if val_loss is not None:
            if not np.isfinite(val_loss):
                raise NonFiniteError(
                    f"non-finite validation loss in epoch {epoch}; last checkpoint retained"
                )
            if state.best_val is None or val_loss < state.best_val - 1e-6:
                state.best_val = val_loss
                state.stall = 0
            else:
                state.stall += 1
                if state.stall >= train_config.plateau_patience_epochs:
                    state.decays += 1
                    state.stall = 0
        means = {
            name: float(np.mean(np.concatenate([p[name] for p in epoch_parts])))
            for name in ("total", "l_cross", "l_intra", "l_sub")
        }
        state.history.append(
            {
                "epoch": epoch,
                **means,
                "val_loss": val_loss,
                "lr": lr_at(state.step, train_config, state.decays),
                "decays": state.decays,
            }
        )
        state.epoch = epoch + 1
        state.rng = {"batching": batching.state(), "dropout": dropout.state()}
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path, params, optimizer, state,
                model_config, objective_config, train_config,
            )
    return TrainResult(params=params, optimizer=optimizer, history=state.history, step=state.step)


# ---- checkpoint container ----------------------------------------------------

ARRAYS = ("params", "m", "v")
ZIP_MAGIC = b"PK\x03\x04"


def _entry(name: str) -> zipfile.ZipInfo:
    # A fixed entry time (ZipInfo's default, 1980-01-01): the same state
    # always gives the same bytes, where np.savez stamps the wall clock.
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def _layout(named: dict) -> dict:
    """Each parameter's [offset, shape] in the flat arrays, in order."""
    layout, offset = {}, 0
    for name, t in named.items():
        layout[name] = [offset, list(t.data.shape)]
        offset += t.data.size
    return layout


def save_checkpoint(
    path,
    params: ModelParams,
    optimizer: OptimizerState,
    state: TrainState,
    model_config: ModelConfig,
    objective_config: ObjectiveConfig,
    train_config: TrainConfig,
) -> None:
    """Write a ``doclink-checkpoint-v2`` file: a zip of a JSON header and
    three flat float64 ``.npy`` arrays, ``params``, ``m`` and ``v``.

    The header holds the format tag, the :class:`TrainState` fields, the
    three configs and a table mapping each parameter name, in
    ``named_parameters()`` order, to its [offset, shape] in every array.
    The file is written beside ``path`` and moved into place, so a crash
    never leaves half a checkpoint; the same state always gives the same
    bytes.
    """
    named = params.named_parameters()
    header = {
        "format": CHECKPOINT_FORMAT,
        **asdict(state),
        "config": {
            "model": vars(model_config).copy(),
            "objective": vars(objective_config).copy(),
            "train": vars(train_config).copy(),
        },
        "table": _layout(named),
    }
    arrays = {
        "params": [t.data for t in named.values()],
        "m": [optimizer.m[name] for name in named],
        "v": [optimizer.v[name] for name in named],
    }
    tmp = f"{path}.tmp"
    with zipfile.ZipFile(tmp, "w") as zf:
        zf.writestr(_entry("header.json"), json.dumps(header))
        for key, parts in arrays.items():
            flat = np.concatenate([a.ravel() for a in parts], dtype="<f8")
            with zf.open(_entry(f"{key}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, flat, allow_pickle=False)
    os.replace(tmp, path)


def _require_match(path, section: str, stored: dict, requested, skip=()) -> None:
    """Every field of ``requested`` must equal the checkpoint's value."""
    for key, value in vars(requested).items():
        if key not in skip and stored.get(key) != value:
            raise ConfigError(
                f"checkpoint {path} has {section} {key}={stored.get(key)!r}, "
                f"but {key}={value!r} was requested"
            )


def load_checkpoint(
    path,
    model_config: ModelConfig | None = None,
    objective_config: ObjectiveConfig | None = None,
    train_config: TrainConfig | None = None,
):
    """Rebuild (params, optimizer, state) from a ``doclink-checkpoint-v2``
    file, recognised by its zip magic whatever its name.

    The model is built from the stored config, available as
    ``params.config``, with the checkpointed values verbatim.  Each config
    that is given must match the stored one field by field; ``max_epochs``
    is exempt, so a run can be resumed to a later epoch.  Arrays are read
    with ``allow_pickle=False``.  Any other content (a v1 JSON checkpoint
    too), a missing member, a header table or array that does not fit the
    model, a run state field of the wrong type or range, and an rng state
    that PCG64 rejects raise ConfigError naming the file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(ZIP_MAGIC)) != ZIP_MAGIC:
            raise ConfigError(f"checkpoint {path} is not a {CHECKPOINT_FORMAT} zip")
    try:
        with np.load(path, allow_pickle=False) as npz:
            for key in ("header.json", *ARRAYS):
                if key not in npz:
                    raise KeyError(key)
            header = json.loads(npz["header.json"])
            if header.get("format") != CHECKPOINT_FORMAT:
                raise ConfigError(
                    f"unrecognized checkpoint format {header.get('format')!r} in {path}"
                )
            stored = header["config"]
            for section, requested, skip in (
                ("model", model_config, ()),
                ("objective", objective_config, ()),
                ("train", train_config, ("max_epochs",)),
            ):
                if requested is not None:
                    _require_match(path, section, stored[section], requested, skip)
            params = init_params(ModelConfig(**stored["model"]), RngStream(0))
            named = params.named_parameters()
            layout = _layout(named)
            if header["table"] != layout:
                raise ConfigError(f"checkpoint {path} table does not match the model's parameters")
            total = sum(t.data.size for t in named.values())
            arrays = {}
            for key in ARRAYS:
                arr = np.asarray(npz[key])  # a member that is not .npy reads as bytes
                if arr.dtype != "<f8" or arr.shape != (total,):
                    raise ConfigError(
                        f"checkpoint {path} array {key!r} has dtype {arr.dtype.str} and "
                        f"shape {arr.shape}, expected <f8 and ({total},)"
                    )
                arrays[key] = arr
        optimizer = OptimizerState(named)
        for name, t in named.items():
            shape, offset = t.data.shape, layout[name][0]
            span = slice(offset, offset + t.data.size)
            t.data = arrays["params"][span].reshape(shape)
            optimizer.m[name] = arrays["m"][span].reshape(shape)
            optimizer.v[name] = arrays["v"][span].reshape(shape)
        try:
            state = TrainState(**{f.name: header[f.name] for f in fields(TrainState)})
        except ConfigError as exc:
            raise ConfigError(f"checkpoint {path} run state: {exc}") from exc
        for stream in ("batching", "dropout"):
            try:
                np.random.PCG64(0).state = state.rng[stream]
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"checkpoint {path} rng {stream!r} is not a PCG64 state: {exc}"
                ) from exc
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} lacks the {exc} entry") from exc
    except (TypeError, ValueError, AttributeError, OverflowError, EOFError, MemoryError,
            zipfile.BadZipFile) as exc:
        # MemoryError: a .npy header may claim more values than memory holds.
        raise ConfigError(f"checkpoint {path} is malformed: {exc}") from exc
    return params, optimizer, state
