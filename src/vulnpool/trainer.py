"""Mini-batch training loop with adaptive moment estimation, validation-based
model selection, checkpoint round-trips and ablation sweeps.

Determinism contract: with a fixed config and seed, two runs produce
bitwise-identical histories and checkpoints. The batch order for epoch e is
a pure function of (seed, e), so a resumed run replays the unbroken one.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from . import evaluate as ev
from . import numcore as nc
from . import pool as pl
from .corpus import DatasetSplit
from .model import MODES, ModelConfig, VulnPoolModel, parameter_views
from .encoder import EncoderConfig
from .tokenizer import Vocabulary

# sweep axis -> (RunConfig field it varies, values tried)
SWEEP_AXES = {
    "lambda": ("lam", (0.1, 0.3, 0.01, 0.03)),
    "lp": ("prompt_len", (1, 3, 5, 7, 9)),
    "topk": ("top_k", (1, 2, 3)),
    "mpl": ("matrices_per_language", (1, 2, 3)),
    "mode": ("mode", MODES),
}


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite; carries a diagnostic snapshot."""

    def __init__(self, message, epoch=None, batch=None, sample_ids=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.sample_ids = sample_ids or []


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float | None = None  # off by default; global-norm clip when set

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_recall: float
    val_precision: float
    val_f1: float
    selection_counts: dict[str, dict[int, int]] = field(default_factory=dict)
    params_touched: int = 0
    keys_reinitialised: list[int] = field(default_factory=list)  # zero keys re-drawn, in order

    def to_record(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_recall": self.val_recall,
            "val_precision": self.val_precision,
            "val_f1": self.val_f1,
            "selection_counts": {
                lang: dict(counts) for lang, counts in self.selection_counts.items()
            },
            "params_touched": self.params_touched,
            "keys_reinitialised": list(self.keys_reinitialised),
        }


@dataclass
class TrainHistory:
    initial_train_loss: float | None = None
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    """Step count, and first and second moments laid out like the model's
    flat parameter buffer (see `adam_step`); None until the first step."""

    def __init__(self):
        self.step = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


def adam_step(
    flat: np.ndarray,
    named_params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    grad_clip: float | None = None,
):
    """One bias-corrected adaptive-moment update of `flat`, the 1-D buffer
    whose views, in order, are the parameters of the (name, parameter)
    pairs `named_params` (see `VulnPoolModel.parameters`).

    Each maximal run of consecutive parameters that have a gradient is
    updated as one slice of `flat`, with their gradients concatenated. A
    parameter without one, such as a pool matrix that no sample selected,
    keeps its value and its moments."""
    named_params = list(named_params)
    if (sum(p.data.size for _, p in named_params) != flat.size
            or any(p.data.base is not flat for _, p in named_params)):
        raise ValueError("adam_step: the parameters are not views that cover the flat buffer")
    runs, offset = [], 0  # [start, stop, gradients] of each run with gradients
    for _, p in named_params:
        if p.grad is not None:
            if not runs or runs[-1][1] != offset:
                runs.append([offset, offset, []])
            runs[-1][1] += p.data.size
            runs[-1][2].append(p.grad)
        offset += p.data.size
    factor = None
    if grad_clip is not None:
        total = math.sqrt(
            sum(float((p.grad**2).sum()) for _, p in named_params if p.grad is not None)
        )
        if total > grad_clip > 0:
            factor = grad_clip / total
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for lo, hi, grads in runs:
        g = np.concatenate(grads, axis=None)
        if factor is not None:
            g *= factor
        m, v = state.m[lo:hi], state.v[lo:hi]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        flat[lo:hi] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# training loop

def _epoch_order(n: int, seed: int, epoch: int) -> list[int]:
    order = list(range(n))
    random.Random(seed * 1_000_003 + epoch).shuffle(order)
    return order


def _train_step(model: VulnPoolModel, batch, seqs, collect: Counter, epoch: int,
                index: int) -> float:
    """Forward, loss and backward of one mini-batch and its token ids `seqs`;
    returns the loss.

    The batch's autodiff graph is referenced only from this frame, so it is
    freed when backward returns, before the next forward or validation
    builds another. A non-finite loss raises before backward."""
    out = model.forward(batch, train_mode=True, seqs=seqs)
    if out.selections is not None:
        for s, selection in zip(batch, out.selections):
            collect[(s.language.tag, selection.i_star)] += 1
    loss = model.loss(out.logits, [s.label for s in batch], out.phi)
    value = loss.item()
    if not math.isfinite(value):
        raise TrainingDivergedError(
            f"non-finite loss {value} at epoch {epoch} batch {index}",
            epoch=epoch,
            batch=index,
            sample_ids=[s.id for s in batch],
        )
    nc.backward(loss)
    return value


def train(
    model: VulnPoolModel,
    split: DatasetSplit,
    config: TrainConfig,
    run_dir=None,
    start_epoch: int = 0,
    adam_state: AdamState | None = None,
    log=None,
):
    """Run the mini-batch loop and return (best model, history).

    The best model is the validation-F1 argmax over epoch-end checkpoints,
    ties resolving to the earlier epoch. Each split is tokenized once.
    """
    if not split.train:
        raise ValueError("training split is empty")
    state = adam_state if adam_state is not None else AdamState()
    history = TrainHistory()
    reinit_rng = np.random.default_rng([config.seed, 0xF00D])
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        history_path = os.path.join(run_dir, "history.jsonl")
        if start_epoch == 0 and os.path.exists(history_path):
            os.remove(history_path)  # fresh run; append only makes sense on resume

    train_seqs = model.tokenize(split.train)
    val_seqs = model.tokenize(split.val)
    best_f1 = -1.0
    best_epoch = None
    best_params = None
    # a key loaded or set at zero would fail the first selection
    reinitialised = pl.reinit_zero_keys(model.keys, reinit_rng)

    for epoch in range(start_epoch, config.epochs):
        order = _epoch_order(len(split.train), config.seed, epoch)
        selections: Counter = Counter()
        touched: set[str] = set()
        losses = []
        for lo in range(0, len(order), config.batch_size):
            picked = order[lo : lo + config.batch_size]
            batch = [split.train[i] for i in picked]
            seqs = [train_seqs[i] for i in picked]
            try:
                value = _train_step(model, batch, seqs, selections, epoch,
                                    lo // config.batch_size)
            except TrainingDivergedError:
                if run_dir is not None:
                    save_checkpoint(model, state, os.path.join(run_dir, "diverged.ckpt"),
                                    epochs_done=epoch)
                raise
            if history.initial_train_loss is None:
                history.initial_train_loss = value
            losses.append(value)
            named = model.parameters()
            touched.update(name for name, p in named if p.grad is not None)
            adam_step(model.flat, named, state, config.lr, config.beta1, config.beta2,
                      config.eps, config.grad_clip)
            for _, p in named:
                p.grad = None
            reinitialised += pl.reinit_zero_keys(model.keys, reinit_rng)

        val_report, _ = (ev.evaluate_model(model, split.val, val_seqs) if split.val
                         else (None, None))
        record = EpochRecord(
            epoch=epoch,
            train_loss=sum(losses) / len(losses),
            val_recall=val_report.recall if val_report else 0.0,
            val_precision=val_report.precision if val_report else 0.0,
            val_f1=val_report.f1 if val_report else 0.0,
            selection_counts=_nest_selections(selections),
            params_touched=len(touched),
            keys_reinitialised=reinitialised,
        )
        history.epochs.append(record)
        reinitialised = []
        if log:
            log(f"epoch {epoch}: loss={record.train_loss:.4f} val_f1={record.val_f1:.4f}")
        if record.val_f1 > best_f1:
            best_f1 = record.val_f1
            best_epoch = epoch
            best_params = model.snapshot_params()
        if run_dir is not None:
            save_checkpoint(model, state, os.path.join(run_dir, f"epoch_{epoch}.ckpt"),
                            epochs_done=epoch + 1)
            # one write per line, on disk before the next epoch starts
            with open(os.path.join(run_dir, "history.jsonl"), "a", encoding="utf-8") as f:
                f.write(json.dumps(record.to_record(), sort_keys=True) + "\n")
                f.flush()
                os.fsync(f.fileno())

    history.best_epoch = best_epoch
    if best_params is not None:
        best_model = model.copy()
        best_model.load_params(best_params)
    else:
        best_model = model.copy()
    if run_dir is not None:
        save_checkpoint(best_model, state, os.path.join(run_dir, "best.ckpt"),
                        epochs_done=config.epochs)
    return best_model, history


def _nest_selections(selections: Counter) -> dict[str, dict[int, int]]:
    nested: dict[str, dict[int, int]] = {}
    for (lang, idx), n in sorted(selections.items()):
        nested.setdefault(lang, {})[idx] = n
    return nested


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: VulnPoolModel, state: AdamState | None, path, epochs_done: int = 0):
    """Store the parameters and, once Adam has stepped, each parameter's
    moments; a parameter never updated has all-zero moments, as in a fresh
    state."""
    named = model.parameters()
    arrays = {name: p.data for name, p in named}
    if state is not None and state.m is not None:
        for which, buffer in (("m", state.m), ("v", state.v)):
            arrays.update((f"adam.{which}.{name}", view)
                          for name, view in parameter_views(buffer, named))
    meta = {
        "kind": "train",
        "model": asdict(model.config),
        "encoder": asdict(model.encoder.config),
        "assignment": model.assignment.to_record() if model.assignment else None,
        "vocab_size": model.vocab.size,
        "vocab_hash": vocab_hash(model.vocab),
        "adam_step": state.step if state is not None else 0,
        "epochs_done": epochs_done,
    }
    ckpt.save_arrays(path, arrays, meta)


def load_checkpoint(path, vocab: Vocabulary):
    """Rebuild (model, adam state, meta) from a training checkpoint."""
    arrays, meta = ckpt.load_arrays(path)
    if meta.get("kind") != "train":
        raise ckpt.CheckpointError(f"{path}: not a training checkpoint: {meta.get('kind')!r}")
    # the stored dtype is the one the loaded model computes in
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) > 1 or any(d.kind != "f" for d in dtypes):
        raise ckpt.CheckpointError(
            f"{path}: arrays must share one floating-point dtype, found "
            f"{', '.join(sorted(d.str for d in dtypes))}"
        )
    stored_hash = str(meta.get("vocab_hash"))
    if stored_hash != vocab_hash(vocab):
        raise ckpt.CheckpointError(
            f"{path}: vocabulary hash mismatch (checkpoint {stored_hash[:12]}..., "
            f"supplied {vocab_hash(vocab)[:12]}...)"
        )
    try:
        model_config = ModelConfig(**meta["model"])
        enc_config = EncoderConfig(**meta["encoder"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ckpt.CheckpointError(f"{path}: bad model settings in manifest: {exc}") from None
    stored_lp = arrays["pool.P.0"].shape[0] if "pool.P.0" in arrays else None
    if stored_lp is not None and stored_lp != model_config.prompt_len:
        raise ckpt.CheckpointError(
            f"{path}: manifest field 'prompt_len' is {model_config.prompt_len} but stored "
            f"pool matrices have {stored_lp} rows"
        )
    model = VulnPoolModel(model_config, enc_config, vocab)
    rebuilt = model.assignment.to_record() if model.assignment else None
    if meta.get("assignment") != rebuilt:
        raise ckpt.CheckpointError(
            f"{path}: manifest field 'assignment' is {meta.get('assignment')} but the model "
            f"settings give {rebuilt}"
        )
    named = model.parameters()
    expected = {name: p.data.shape for name, p in named}
    params = {k: a for k, a in arrays.items() if not k.startswith("adam.")}
    ckpt.check_shapes(params, expected, where=str(path))
    moments = {k: a for k, a in arrays.items() if k.startswith("adam.")}
    ckpt.check_shapes(moments, {f"adam.{which}.{name}": shape for which in "mv"
                                for name, shape in expected.items()
                                if f"adam.{which}.{name}" in moments}, where=str(path))
    model.load_params(params)
    state = AdamState()
    state.step = int(meta.get("adam_step", 0))
    if moments:  # a moment not stored is zero, as for a parameter never updated
        state.m, state.v = np.zeros_like(model.flat), np.zeros_like(model.flat)
        for which, buffer in (("m", state.m), ("v", state.v)):
            for name, view in parameter_views(buffer, named):
                if f"adam.{which}.{name}" in moments:
                    view[...] = moments[f"adam.{which}.{name}"]
    return model, state, meta


def vocab_hash(vocab: Vocabulary) -> str:
    import hashlib

    return hashlib.sha256("\n".join(vocab.id_to_token).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# ablation sweeps

@dataclass
class SweepRow:
    value: object
    mode: str
    recall: float
    precision: float
    f1: float
    initial_loss: float
    final_loss: float


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow]

    def render(self) -> str:
        titles = {"lp": "L_p", "lambda": "lambda", "topk": "K", "mpl": "Matrices/lang"}
        if self.axis == "mode":
            header = ["Method", "Recall", "Precision", "F1-score"]
            rows = [
                [r.mode, f"{100 * r.recall:.2f}%", f"{100 * r.precision:.2f}%",
                 f"{100 * r.f1:.2f}%"]
                for r in self.rows
            ]
        else:
            header = ["Method", titles.get(self.axis, self.axis), "Recall", "Precision",
                      "F1-score"]
            rows = [
                [r.mode, r.value, f"{100 * r.recall:.2f}%", f"{100 * r.precision:.2f}%",
                 f"{100 * r.f1:.2f}%"]
                for r in self.rows
            ]
        return ev.render_rows(header, rows)

    def to_records(self) -> list[dict]:
        return [
            {"axis": self.axis, "value": r.value, "mode": r.mode, "recall": r.recall,
             "precision": r.precision, "f1": r.f1, "initial_loss": r.initial_loss,
             "final_loss": r.final_loss}
            for r in self.rows
        ]


def sweep(split: DatasetSplit, vocab: Vocabulary, base_config, axis: str,
          log=None) -> SweepResult:
    """Train one model per axis value (shared seed) and tabulate test metrics."""
    from .config import build_model, build_train_config

    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {sorted(SWEEP_AXES)}")
    field_name, values = SWEEP_AXES[axis]
    configs = []
    for value in values:
        changes = {field_name: value}
        if field_name == "matrices_per_language":
            changes["pool_size"] = None  # the pool grows with the matrices per language
        configs.append(replace(base_config, **changes).validate())  # all before training any
    rows = []
    for value, run_cfg in zip(values, configs):
        model = build_model(run_cfg, vocab)
        if log:
            log(f"sweep {axis}={value}: training")
        best, history = train(model, split, build_train_config(run_cfg))
        report, _ = ev.evaluate_model(best, split.test)
        rows.append(
            SweepRow(
                value=value,
                mode=run_cfg.mode,
                recall=report.recall,
                precision=report.precision,
                f1=report.f1,
                initial_loss=history.initial_train_loss,
                final_loss=history.epochs[-1].train_loss if history.epochs else float("nan"),
            )
        )
    return SweepResult(axis=axis, rows=rows)
