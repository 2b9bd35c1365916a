"""Mini-batch training: Adam, linear warm-up, plateau decay, checkpoints.

The schedule follows the configured recipe: learning rate grows linearly
from start_lr to max_lr over warmup_steps, then holds; whenever validation
total loss fails to improve by more than 1e-6 for plateau_patience_epochs
consecutive epochs, the rate drops by decay_factor.

Determinism: one root seed fans out into named streams (init, batching,
dropout), validation re-derives a fixed dropout stream each epoch so its
loss is comparable across epochs, and checkpoints capture the exact
generator states so a resumed run continues the unbroken sequence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .corpus import Corpus
from .encoder import ModelConfig, ModelParams, batch_representations, init_params
from .errors import BatchError, ConfigError, NonFiniteError
from .objective import ObjectiveConfig, check_k_override, total_loss
from .rng import RngStream

CHECKPOINT_FORMAT = "doclink-checkpoint-v1"


@dataclass
class TrainConfig:
    max_lr: float = 5e-5
    warmup_steps: int = 4000
    start_lr: float = 1e-7
    batch_size: int = 11
    plateau_patience_epochs: int = 3
    decay_factor: float = 5.0
    max_epochs: int = 10
    seed: int = 0
    use_cross: bool = True
    use_intra: bool = True
    use_sub: bool = True

    def __post_init__(self):
        if self.start_lr >= self.max_lr:
            raise ConfigError(
                f"start_lr {self.start_lr} must be below max_lr {self.max_lr}"
            )
        if self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must exceed 1, got {self.decay_factor}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.warmup_steps < 0 or self.max_epochs < 0:
            raise ConfigError("warmup_steps and max_epochs must be non-negative")


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
    """Adam accumulators keyed by parameter name."""

    def __init__(self, names, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {name: None for name in names}
        self.v = {name: None for name in names}


def adam_step(params: dict, state: OptimizerState, lr: float) -> None:
    """One Adam update with bias correction; gradients are cleared after.

    ``params`` maps names to tensors whose .grad was populated by backward;
    a missing gradient counts as zero.  Any non-finite gradient aborts,
    naming the parameter.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient in parameter {name!r}")
        if state.m[name] is None:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g**2
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)
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
class TrainResult:
    params: ModelParams
    optimizer: OptimizerState
    history: list = field(default_factory=list)
    step: int = 0


def _split_loss(
    docs, params, model_config, objective_config, train_config, rng: RngStream
) -> float | None:
    """Mean per-document total loss over a split, graph-free."""
    if len(docs) < 2:
        return None
    dropout = rng.child("dropout")
    with tensor.no_grad():
        totals = []
        for batch_ids in make_batches(len(docs), train_config.batch_size, rng.child("order")):
            batch = [docs[i] for i in batch_ids]
            reps = batch_representations(batch, params, model_config)
            _, parts = total_loss(
                reps,
                objective_config,
                dropout,
                use_cross=train_config.use_cross,
                use_intra=train_config.use_intra,
                use_sub=train_config.use_sub,
            )
            totals.extend(float(b.total.data) for b in parts)
    return float(np.mean(totals))


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
    learning rate at epoch end, and the decay count.  If ``checkpoint_path`` is set, a checkpoint is written
    after every epoch; a non-finite loss aborts, leaving the last epoch's
    checkpoint in place.  ``resume_from`` restores parameters, optimizer,
    rng states, and schedule position, then continues to max_epochs.
    """
    train_docs = corpus.split_documents("train")
    if not train_docs:
        raise BatchError("train split is empty")
    val_docs = corpus.split_documents("val")
    for docs in (train_docs, val_docs):
        if len(docs) >= 2:  # a single document never forms a batch
            check_k_override(
                [(d.id, len(d.sentences), len(d.images)) for d in docs],
                objective_config,
                use_sub=train_config.use_sub,
            )

    root = RngStream(train_config.seed)
    batching = root.child("batching")
    dropout = root.child("dropout")

    if resume_from is not None:
        params, optimizer, extra = load_checkpoint(resume_from, model_config)
        step = extra["step"]
        start_epoch = extra["epoch"]
        decays = extra["decays"]
        best_val = extra["best_val"]
        stall = extra["stall"]
        history = extra["history"]
        batching.set_state(extra["rng"]["batching"])
        dropout.set_state(extra["rng"]["dropout"])
    else:
        params = init_params(model_config, root.child("init"), pretrained=pretrained)
        optimizer = OptimizerState(params.named_parameters().keys())
        step = 0
        start_epoch = 0
        decays = 0
        best_val = None
        stall = 0
        history = []

    named = params.named_parameters()
    for epoch in range(start_epoch, train_config.max_epochs):
        epoch_totals = []
        epoch_parts = {"l_cross": [], "l_intra": [], "l_sub": []}
        for batch_ids in make_batches(len(train_docs), train_config.batch_size, batching):
            batch = [train_docs[i] for i in batch_ids]
            reps = batch_representations(batch, params, model_config)
            loss, parts = total_loss(
                reps,
                objective_config,
                dropout,
                use_cross=train_config.use_cross,
                use_intra=train_config.use_intra,
                use_sub=train_config.use_sub,
            )
            if not np.isfinite(loss.data):
                raise NonFiniteError(
                    f"non-finite loss at step {step}; last checkpoint retained"
                )
            tensor.backward(loss)
            adam_step(named, optimizer, lr_at(step, train_config, decays))
            step += 1
            epoch_totals.extend(float(b.total.data) for b in parts)
            epoch_parts["l_cross"].extend(float(b.l_cross.data) for b in parts)
            epoch_parts["l_intra"].extend(float(b.l_intra.data) for b in parts)
            epoch_parts["l_sub"].extend(float(b.l_sub.data) for b in parts)

        # child() re-derives the same seed every epoch: validation sees a
        # fixed dropout pattern, keeping epoch losses comparable.
        val_loss = _split_loss(
            val_docs, params, model_config, objective_config, train_config,
            root.child("validation"),
        )
        if val_loss is not None:
            if best_val is None or val_loss < best_val - 1e-6:
                best_val = val_loss
                stall = 0
            else:
                stall += 1
                if stall >= train_config.plateau_patience_epochs:
                    decays += 1
                    stall = 0
        history.append(
            {
                "epoch": epoch,
                "total": float(np.mean(epoch_totals)),
                "l_cross": float(np.mean(epoch_parts["l_cross"])),
                "l_intra": float(np.mean(epoch_parts["l_intra"])),
                "l_sub": float(np.mean(epoch_parts["l_sub"])),
                "val_loss": val_loss,
                "lr": lr_at(step, train_config, decays),
                "decays": decays,
            }
        )
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                params,
                optimizer,
                step=step,
                epoch=epoch + 1,
                decays=decays,
                best_val=best_val,
                stall=stall,
                history=history,
                rng_states={"batching": batching.state(), "dropout": dropout.state()},
                model_config=model_config,
                objective_config=objective_config,
                train_config=train_config,
            )
    return TrainResult(params=params, optimizer=optimizer, history=history, step=step)


# ---- checkpoint container ----------------------------------------------------


def _array_to_json(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.reshape(-1)]}


def _array_from_json(obj) -> np.ndarray:
    return np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])


def save_checkpoint(
    path,
    params: ModelParams,
    optimizer: OptimizerState,
    *,
    step: int,
    epoch: int,
    decays: int,
    best_val,
    stall: int,
    history: list,
    rng_states: dict,
    model_config: ModelConfig,
    objective_config: ObjectiveConfig,
    train_config: TrainConfig,
) -> None:
    """Self-describing JSON container; floats round-trip exactly."""
    named = params.named_parameters()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "step": step,
        "epoch": epoch,
        "decays": decays,
        "best_val": best_val,
        "stall": stall,
        "history": history,
        "rng": rng_states,
        "params": {name: _array_to_json(t.data) for name, t in named.items()},
        "adam": {
            "step": optimizer.step,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "m": {
                name: (_array_to_json(v) if v is not None else None)
                for name, v in optimizer.m.items()
            },
            "v": {
                name: (_array_to_json(v) if v is not None else None)
                for name, v in optimizer.v.items()
            },
        },
        "config": {
            "model": vars(model_config).copy(),
            "objective": vars(objective_config).copy(),
            "train": vars(train_config).copy(),
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def load_checkpoint(path, model_config: ModelConfig):
    """Rebuild (params, optimizer, extra) from a checkpoint file.

    The stored model config must match the requested one; the parameters
    are reconstructed with the checkpointed values verbatim.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(
            f"unrecognized checkpoint format {payload.get('format')!r} in {path}"
        )
    stored = payload["config"]["model"]
    if stored != vars(model_config):
        raise ConfigError(
            f"checkpoint model config {stored} does not match requested "
            f"{vars(model_config)}"
        )
    params = init_params(model_config, RngStream(0))
    named = params.named_parameters()
    if set(named) != set(payload["params"]):
        raise ConfigError("checkpoint parameter names do not match the model")
    for name, obj in payload["params"].items():
        arr = _array_from_json(obj)
        if arr.shape != named[name].data.shape:
            raise ConfigError(
                f"checkpoint parameter {name!r} has shape {arr.shape}, "
                f"expected {named[name].data.shape}"
            )
        named[name].data = arr
    adam = payload["adam"]
    optimizer = OptimizerState(named.keys(), beta1=adam["beta1"], beta2=adam["beta2"], eps=adam["eps"])
    optimizer.step = adam["step"]
    for name in named:
        m = adam["m"].get(name)
        v = adam["v"].get(name)
        optimizer.m[name] = _array_from_json(m) if m is not None else None
        optimizer.v[name] = _array_from_json(v) if v is not None else None
    extra = {
        "step": payload["step"],
        "epoch": payload["epoch"],
        "decays": payload["decays"],
        "best_val": payload["best_val"],
        "stall": payload["stall"],
        "history": payload["history"],
        "rng": payload["rng"],
        "config": payload["config"],
    }
    return params, optimizer, extra
