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
Memory and checkpoint share one layout: :class:`OptimizerState` moves the
parameters into a flat float64 vector beside Adam's two moments, and a
checkpoint (``doclink-checkpoint-v2``) is a zip of a JSON header and those
three vectors in :mod:`doclink.archive`'s container.  :func:`save_checkpoint`
is its only writer and :func:`load_checkpoint` its only reader; a resume
must request every stored setting unchanged except max_epochs.  Adam's betas and eps are the
constants BETA1, BETA2 and EPS, stored in no checkpoint, and its bias
correction counts steps with ``TrainState.step``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor
from .archive import load_zip, save_zip
from .corpus import Corpus
from .encoder import (ModelConfig, ModelParams, batch_representations, check_fit, first_overflow,
                      init_params)
from .errors import BatchError, ConfigError, NonFiniteError, build_settings, check_settings, setting
from .objective import ObjectiveConfig, check_k_override, degenerate_subdocuments, total_loss
from .rng import RngStream

CHECKPOINT_FORMAT = "doclink-checkpoint-v2"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ARRAYS = ("params", "m", "v")
# The checkpoint's array members: name -> (dtype, ndim), as written and read.
MEMBERS = dict.fromkeys(ARRAYS, ("<f8", 1))


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
    """Warm-up interpolation, then max_lr, scaled down by plateau decays;
    0.0 once the decays' divisor passes the largest float."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if config.warmup_steps > 0 and step < config.warmup_steps:
        frac = step / config.warmup_steps
        base = config.start_lr + (config.max_lr - config.start_lr) * frac
    else:
        base = config.max_lr
    try:
        return base / config.decay_factor**decays
    except OverflowError:
        return 0.0


def _layout(named: dict) -> dict:
    """Each parameter's [offset, shape] in the flat arrays, in order."""
    layout, offset = {}, 0
    for name, t in named.items():
        layout[name] = [offset, list(t.data.shape)]
        offset += t.data.size
    return layout


class OptimizerState:
    """Training state as three flat float64 vectors in the checkpoint's
    :func:`_layout`: ``flat["params"]``, ``flat["m"]`` and ``flat["v"]``.
    Each tensor of ``params`` (name -> tensor) is rebound to a view of its
    span, and ``m`` / ``v`` map names to views of the moments.  A given
    ``flat`` (a checkpoint's arrays) is adopted; otherwise the values are
    packed and the moments are zero."""

    def __init__(self, params: dict, flat: dict | None = None):
        self.layout = _layout(params)
        if flat is None:
            values = np.concatenate([p.data.ravel() for p in params.values()])
            flat = {"params": values, "m": np.zeros_like(values), "v": np.zeros_like(values)}
        self.flat = flat
        self.m, self.v = {}, {}
        for name, p in params.items():
            offset, shape = self.layout[name]
            span = slice(offset, offset + p.data.size)
            p.data = flat["params"][span].reshape(shape)
            self.m[name] = flat["m"][span].reshape(shape)
            self.v[name] = flat["v"][span].reshape(shape)


def _first_non_finite(values: np.ndarray, state: OptimizerState) -> str | None:
    """The name of the parameter that holds the first non-finite entry of
    ``values``, laid out as ``state.flat``; None if every entry is finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    first = np.argmin(finite)
    return next(n for n, (offset, _) in reversed(state.layout.items()) if offset <= first)


def adam_step(params: dict, state: OptimizerState, lr: float, t: int) -> None:
    """Adam update number ``t`` (from 1) with bias correction, in place on
    ``state.flat``, for the ``params`` dict ``state`` was built from; their
    gradients (missing counts as zero) are cleared after.  A non-finite
    gradient, or an update that would make a parameter non-finite, aborts
    before anything changes, naming the parameter."""
    g = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                        for p in params.values()])
    if name := _first_non_finite(g, state):
        raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
    theta, m, v = state.flat["params"], state.flat["m"], state.flat["v"]
    with np.errstate(over="ignore", invalid="ignore"):
        m_new = BETA1 * m + (1.0 - BETA1) * g
        v_new = BETA2 * v + (1.0 - BETA2) * g**2
        theta_new = theta - lr * (m_new / (1.0 - BETA1**t)) / (
            np.sqrt(v_new / (1.0 - BETA2**t)) + EPS)
    if name := _first_non_finite(theta_new, state):
        raise NonFiniteError(
            f"the update at step {t - 1} with lr={lr} makes parameter {name!r} non-finite")
    theta[:], m[:], v[:] = theta_new, m_new, v_new
    for p in params.values():
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


def _batch_loss(docs, batch_ids, encode, objective_config, train_config, dropout):
    """Encode one batch of ``docs`` with ``encode`` (documents ->
    Representations) and score it with every enabled objective:
    ``total_loss``'s (batch_mean, parts)."""
    reps = encode([docs[i] for i in batch_ids])
    return total_loss(
        reps,
        objective_config,
        dropout,
        use_cross=train_config.use_cross,
        use_intra=train_config.use_intra,
        use_sub=train_config.use_sub,
    )


def _split_loss(docs, encode, objective_config, train_config, rng: RngStream) -> float | None:
    """Mean per-document total loss over a split, graph-free, each batch
    encoded by ``encode`` as in :func:`_batch_loss`."""
    if len(docs) < 2:
        return None
    dropout = rng.child("dropout")
    with tensor.no_grad():
        totals = [
            _batch_loss(docs, batch_ids, encode, objective_config, train_config, dropout)[1]["total"]
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
    is set, a checkpoint is written after every epoch, or once of the
    starting state when no epoch is left to run; a non-finite loss aborts,
    leaving the last epoch's checkpoint in place.  An encoding that
    overflows after this run's first update, of a batch that the parameters
    the run started from encode (drawn again from the seed and
    ``pretrained``, or read again from ``resume_from``), raises a
    NonFiniteError naming max_lr, the step and the last update's lr rather
    than a document.  Once plateau decays have
    brought the rate to 0.0, no later step can move a parameter, so the run
    ends before the next epoch, as at max_epochs, with one warning naming
    decay_factor and the decay count.  ``resume_from`` restores
    parameters, optimizer and :class:`TrainState`, then continues to
    max_epochs, which must not be below the checkpoint's epoch; every
    stored setting except max_epochs must equal the requested one.  Train
    and val documents pass :func:`check_fit` before the first step; with
    ``use_sub`` on, one warning names those whose sub-document draw is
    always degenerate (see :func:`degenerate_subdocuments`).
    """
    train_docs = corpus.split_documents("train")
    val_docs = corpus.split_documents("val")
    # make_batches merges a one-document tail, so a batch holds up to batch_size + 1.
    check_fit(corpus, train_docs + val_docs, model_config, train_config.batch_size + 1)
    if not train_docs:
        raise BatchError("train split is empty")
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
        if train_config.max_epochs < state.epoch:
            raise ConfigError(f"checkpoint {resume_from} is at epoch {state.epoch}, "
                              f"past max_epochs={train_config.max_epochs}")
        batching.set_state(state.rng["batching"])
        dropout.set_state(state.rng["dropout"])
    else:
        params = init_params(model_config, root.child("init"), pretrained=pretrained)
        optimizer = OptimizerState(params.named_parameters())
        state = TrainState(rng={"batching": batching.state(), "dropout": dropout.state()})

    def checkpoint():
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, optimizer, state,
                            model_config, objective_config, train_config)

    def encode(docs):
        """batch_representations of ``docs``.  An overflow after this run's
        first update that the parameters the run started from do not repeat
        is the rate's doing: its NonFiniteError names max_lr, not a document."""
        try:
            return batch_representations(docs, params, model_config)
        except NonFiniteError:
            if state.step == start_step:
                raise
            starting = (load_checkpoint(resume_from)[0] if resume_from is not None
                        else init_params(model_config, root.child("init"), pretrained=pretrained))
            if first_overflow(docs, starting, model_config)[0] is not None:
                raise
            side = first_overflow(docs, params, model_config)[0]
            raise NonFiniteError(
                f"non-finite {side} representation at step {state.step}, after an update with "
                f"lr={lr}: the parameters the run started from encode this batch, so "
                f"max_lr={train_config.max_lr} is too large"
            ) from None

    named = params.named_parameters()
    start, start_step = state.epoch, state.step
    for epoch in range(start, train_config.max_epochs):
        # The rate after warm-up is the largest any later step can take.
        if lr_at(max(state.step, train_config.warmup_steps), train_config, state.decays) == 0.0:
            warnings.warn(
                f"the learning rate is 0.0 after {state.decays} decays by "
                f"decay_factor={train_config.decay_factor}; the run ends with {epoch} of "
                f"max_epochs={train_config.max_epochs} epochs run"
            )
            break
        epoch_parts = []
        for batch_ids in make_batches(len(train_docs), train_config.batch_size, batching):
            loss, parts = _batch_loss(
                train_docs, batch_ids, encode, objective_config, train_config, dropout
            )
            if not np.isfinite(loss.data):
                raise NonFiniteError(
                    f"non-finite loss at step {state.step}; last checkpoint retained"
                )
            tensor.backward(loss)
            del loss  # this step's graph goes before the next step's forward
            lr = lr_at(state.step, train_config, state.decays)
            adam_step(named, optimizer, lr, t=state.step + 1)
            state.step += 1
            epoch_parts.append(parts)

        # child() re-derives the same seed every epoch: validation sees a
        # fixed dropout pattern, keeping epoch losses comparable.
        val_loss = _split_loss(
            val_docs, encode, objective_config, train_config, root.child("validation")
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
        checkpoint()
    if state.epoch == start:
        checkpoint()  # no epoch ran: the starting state is the result
    return TrainResult(params=params, optimizer=optimizer, history=state.history, step=state.step)


# ---- checkpoint container ----------------------------------------------------


def save_checkpoint(
    path,
    params: ModelParams,
    optimizer: OptimizerState,
    state: TrainState,
    model_config: ModelConfig,
    objective_config: ObjectiveConfig,
    train_config: TrainConfig,
) -> None:
    """Write a ``doclink-checkpoint-v2`` file with :func:`save_zip`: the
    arrays of MEMBERS, ``optimizer.flat`` as it is, which ``params`` views,
    under a header of the format tag, the :class:`TrainState` fields, the
    three configs and ``optimizer.layout``, mapping each parameter name, in
    ``named_parameters()`` order, to its [offset, shape] in every array.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        **asdict(state),
        "config": {
            "model": vars(model_config).copy(),
            "objective": vars(objective_config).copy(),
            "train": vars(train_config).copy(),
        },
        "table": optimizer.layout,
    }
    save_zip(path, header, ((key, optimizer.flat[key].astype(dtype, copy=False))
                            for key, (dtype, _) in MEMBERS.items()))


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

    The stored config, available as ``params.config``, sizes the model:
    each array's length is checked against
    :meth:`ModelConfig.parameter_count` before anything is built, so a
    rejected header costs the same whatever model it claims.  Only then is
    the shape-only :class:`ModelParams` built, and it adopts the arrays
    verbatim; nothing is drawn.  Each config that is given must match the
    stored one field by field; ``max_epochs`` is exempt, so a run can be
    resumed to a later epoch.  Beside :func:`load_zip`'s faults (a v1 JSON
    checkpoint is one), a missing header entry, a model config with unknown
    or missing keys or that builds no model, a table or array that does not
    fit the model, a run state field of the wrong type or range, and an rng
    state that PCG64 rejects raise ConfigError naming the file.
    """
    header, arrays = load_zip(path, CHECKPOINT_FORMAT, MEMBERS, ConfigError, "checkpoint")
    try:
        stored = header["config"]
        for section, requested, skip in (
            ("model", model_config, ()),
            ("objective", objective_config, ()),
            ("train", train_config, ("max_epochs",)),
        ):
            if not isinstance(stored, dict) or not isinstance(stored.get(section), dict):
                raise ConfigError(f"checkpoint {path} config {section!r} is not an object")
            if requested is not None:
                _require_match(path, section, stored[section], requested, skip)
        try:
            config = build_settings(ModelConfig, stored["model"])
        except ConfigError as exc:
            raise ConfigError(f"checkpoint {path} model config: {exc}") from exc
        total = config.parameter_count()
        for key, array in arrays.items():
            if len(array) != total:
                raise ConfigError(f"checkpoint {path} member {key!r} has {len(array)} values, "
                                  f"but the model has {total} parameters")
        try:
            params = ModelParams(config)
        except ConfigError as exc:  # the model-size bound
            raise ConfigError(f"checkpoint {path} model config: {exc}") from exc
        optimizer = OptimizerState(params.named_parameters(), arrays)
        if header["table"] != optimizer.layout:
            raise ConfigError(f"checkpoint {path} table does not match the model's parameters")
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
    except OverflowError as exc:  # a history int beyond the float range
        raise ConfigError(f"checkpoint {path} is malformed: {exc}") from exc
    return params, optimizer, state
