"""The recurrent knowledge tracer: encoding, batching, training, inference.

Every interaction is encoded as a single integer token s + y*K so each skill
owns distinct correct/incorrect tokens. The network consumes token sequences
and emits a probability for every skill at every step; the training target at
position t is the correctness of the next interaction, selected at the next
interaction's skill column. Loss positions without a next step are masked
out.

Training, validation and inference share one window rule: a sequence is cut
into consecutive ``max_t`` windows and the hidden state restarts at zero at
each window. Training and validation drop trailing 1-step windows (they hold
no target); inference keeps them, and predicts a window's first step from
the previous window's last row. All of them take a ``StepTable`` and
gather their (B, T) batches from its flat step arrays (``_encode_windows``,
``_window_cells``), with each step's next skill and label from
``_next_step``; a padded cell holds its row's first step, and no loss,
gradient or reported probability reads it. Inference runs windows sorted by length in batches, skipping
padded cells, and reads out only the skills it reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, NamedTuple, Tuple

import numpy as np

from . import nncore
from .ingest import StepTable, atomic_open
from .records import MasteryTrajectory, Predictions, step_rows

Array = np.ndarray


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# interaction encoding


def encode_step(s: int, y: int, k: int) -> int:
    """Map (skill, correctness) to the token index s + y*K."""
    if not 0 <= s < k:
        raise ValueError(f"skill index {s} out of range [0, {k})")
    if y not in (0, 1):
        raise ValueError(f"correctness must be 0 or 1, got {y}")
    return s + y * k


# ---------------------------------------------------------------------------
# batching


class Batch(NamedTuple):
    """Model inputs for a group of sequence windows: interaction tokens, the
    next step's skill and label at each cell, the validity mask (1 where a
    next-step target exists within the row) and the true window lengths.
    Padded cells hold the row's first step, with w = 0."""

    x: Array         # (B, T) int
    s_next: Array    # (B, T) int
    y_next: Array    # (B, T) int
    w: Array         # (B, T) float, entries in {0, 1}
    lengths: Array   # (B,)


def _window_cells(starts: Array, lengths: Array) -> Tuple[Array, Array]:
    """Flat step index of every cell of a window batch, and its live mask.

    Row b covers steps ``starts[b] .. starts[b] + lengths[b] - 1``. Dead
    (padded) cells point at the row's first step: any valid index will do,
    because no result is read from them.
    """
    cols = np.arange(int(lengths.max()))
    live = cols[None, :] < lengths[:, None]
    return np.where(live, starts[:, None] + cols[None, :], starts[:, None]), live


def _encode_windows(table: StepTable, k: int, max_t: int) -> Tuple[Array, Array, Array, Array]:
    """The skill and token of every step of ``table``, checked like
    ``encode_step``, and the flat start and length of every window: each
    student's steps are cut into consecutive ``max_t`` windows, and the
    hidden state is not carried across windows."""
    skills = table.skill.astype(np.int64)
    labels = table.label.astype(np.int64)
    bad = np.flatnonzero((skills < 0) | (skills >= k) | ((labels != 0) & (labels != 1)))
    if bad.size:
        encode_step(int(skills[bad[0]]), int(labels[bad[0]]), k)  # raises
    windows = -(-np.diff(table.offsets) // max_t)  # per student, rounded up
    # each window's index within its student's windows
    index = np.arange(windows.sum()) - np.repeat(np.cumsum(windows) - windows, windows)
    starts = np.repeat(table.offsets[:-1], windows) + index * max_t
    lengths = np.minimum(np.repeat(table.offsets[1:], windows) - starts, max_t)
    return skills, skills + labels * k, starts, lengths


def _next_step(values: Array, offsets: Array) -> Array:
    """The value of each flat step's next step, 0 at each sequence's last step."""
    out = np.append(values[1:], 0)
    out[offsets[1:] - 1] = 0
    return out


def build_batch(table: StepTable, k: int, max_t: int) -> Batch:
    """Encode the students of a step table into one padded batch.

    Sequences longer than ``max_t`` are split into consecutive windows; the
    hidden state is not carried across windows.
    """
    if not table:
        raise ValueError("build_batch: empty input")
    sizes = np.diff(table.offsets)
    short = np.flatnonzero(sizes < 2)
    if short.size:
        i = short[0]
        raise ValueError(f"sequence for student {table.user_ids[i]} has {sizes[i]} steps; need >= 2")
    skills, tokens, starts, lengths = _encode_windows(table, k, max_t)
    keep = lengths >= 2  # a trailing window of length 1 holds no next-step target
    starts, lengths = starts[keep], lengths[keep]
    cells, _ = _window_cells(starts, lengths)
    return Batch(
        x=tokens[cells],
        s_next=_next_step(skills, table.offsets)[cells],
        y_next=_next_step(tokens // k, table.offsets)[cells],
        w=(np.arange(cells.shape[1]) < lengths[:, None] - 1).astype(np.float64),
        lengths=lengths,
    )


# ---------------------------------------------------------------------------
# model


@dataclass
class TrainConfig:
    embedding_dim: int = 64
    hidden_dim: int = 128
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_t: int = 200
    clip_norm: float = 5.0
    patience: int = 3
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("embedding_dim", "hidden_dim", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_t < 2:
            raise ValueError("max_t must be >= 2")
        for name in ("learning_rate", "clip_norm"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be > 0")


@dataclass
class DktModel:
    """Network parameters plus the vocabulary/config they were trained
    against. K is the number of skills; the embedding has 2K rows."""

    net: nncore.DktNet
    k: int
    vocab_hash: str = ""
    config: dict = field(default_factory=dict)

    @classmethod
    def init(cls, k: int, cfg: TrainConfig, vocab_hash: str = "") -> "DktModel":
        net = nncore.init_net(2 * k, cfg.embedding_dim, cfg.hidden_dim, k, seed=cfg.seed)
        return cls(net=net, k=k, vocab_hash=vocab_hash, config=asdict(cfg))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


class EarlyStopping:
    """Stop after ``patience`` consecutive epochs without a strict
    validation-loss improvement; remembers the best epoch."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = float("inf")
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def _dataset_loss(net: nncore.DktNet, table: StepTable, k: int, cfg: TrainConfig) -> float:
    """Mean masked BCE over all valid positions of a step table."""
    total = 0.0
    count = 0.0
    students = np.arange(len(table))
    for start in range(0, len(table), cfg.batch_size):
        batch = build_batch(table.take(students[start : start + cfg.batch_size]), k, cfg.max_t)
        loss = nncore.net_loss(net, batch.x, batch.s_next, batch.y_next, batch.w)
        n_valid = float(batch.w.sum())
        total += loss * n_valid
        count += n_valid
    if count == 0:
        raise ValueError("no valid targets in dataset")
    return total / count


def train(
    train_table: StepTable,
    val_table: StepTable,
    k: int,
    cfg: TrainConfig | None = None,
    vocab_hash: str = "",
) -> Tuple[DktModel, List[EpochStats]]:
    """Minimize the masked BCE with Adam, gradient clipping, and early
    stopping on validation loss; returns the best-validation checkpoint and
    the per-epoch log. Each step computes on a float32 copy of the float64
    master weights; clipping, Adam, validation and the checkpoint are float64."""
    if not train_table or not val_table:
        raise ValueError("train and validation sets must be nonempty")
    cfg = cfg or TrainConfig()
    model = DktModel.init(k, cfg, vocab_hash=vocab_hash)
    net = model.net
    state = nncore.AdamState.for_params(net.flat(), lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    stopper = EarlyStopping(cfg.patience)
    best_net = net.copy()
    log: List[EpochStats] = []

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_table))
        epoch_total = 0.0
        epoch_count = 0.0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = train_table.take(order[start : start + cfg.batch_size])
            batch = build_batch(chunk, k, cfg.max_t)
            compute = nncore.from_flat(
                {name: arr.astype(np.float32) for name, arr in net.flat().items()}
            )
            loss, grads = nncore.net_loss_and_grads(
                compute, batch.x, batch.s_next, batch.y_next, batch.w
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            grads = {name: g.astype(np.float64, copy=False) for name, g in grads.items()}
            grads = nncore.clip_global_norm(grads, cfg.clip_norm)
            new_params, state = nncore.adam_update(net.flat(), grads, state)
            net = nncore.from_flat(new_params)
            n_valid = float(batch.w.sum())
            epoch_total += loss * n_valid
            epoch_count += n_valid

        val_loss = _dataset_loss(net, val_table, k, cfg)
        seconds = time.perf_counter() - t0
        log.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_total / epoch_count,
                val_loss=val_loss,
                seconds=seconds,
            )
        )
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_net = net.copy()
        if stop:
            break

    model.net = best_net
    return model, log


# ---------------------------------------------------------------------------
# inference


def mastery_trajectory(model: DktModel, student: StepTable) -> MasteryTrajectory:
    """Full T x K probability matrix of the one student in ``student``,
    under the inference window rule: the hidden state restarts every
    ``max_t`` steps. Row t is computed from the steps of its window up to t
    only (the recurrence is causal, so truncating the input reproduces a
    prefix of the rows bit-identically)."""
    if len(student) != 1:
        raise ValueError(f"mastery_trajectory takes one student, got {len(student)}")
    if len(student.skill) < 1:
        raise ValueError("sequence must have at least one step")
    _, tokens, starts, lengths = _encode_windows(student, model.k, model.config["max_t"])
    cells, live = _window_cells(starts, lengths)
    probs = nncore.net_forward(model.net, tokens[cells])
    steps = np.column_stack((student.skill, student.quiz, student.label))
    return MasteryTrajectory(user_id=student.user_ids[0], p=probs[live], steps=steps)


def predict_records(
    model: DktModel, table: StepTable, tag: str
) -> Tuple[Predictions, Predictions]:
    """Next-step prediction and mastery-path tables for a step table.

    Every sequence is cut into ``max_t`` windows (the training window rule,
    trailing 1-step windows kept). The windows are sorted by length and run
    in batches of the training batch size, each cell reading out only the
    two skills it reports: the mastery row for step t is the cell of step t
    at its practiced skill, and the prediction row for step t >= 1 is the
    cell of step t-1 at step t's skill, which for a window's first step is
    the previous window's last cell. Saturated sigmoid outputs (exact
    0.0/1.0 in float64) are nudged back inside (0, 1).
    """
    if not table:
        empty = Predictions([], [], [], [], [], [])
        return empty, empty
    sizes = np.diff(table.offsets)
    if not sizes.all():
        raise ValueError("sequence must have at least one step")
    skills, tokens, starts, lengths = _encode_windows(table, model.k, model.config["max_t"])
    next_skills = _next_step(skills, table.offsets)

    order = np.argsort(-lengths, kind="stable")

    p_mastery = np.empty(len(skills))
    p_next = np.empty(len(skills))  # p_next[i]: prediction for step i + 1
    batch_size = model.config["batch_size"]
    for lo in range(0, len(order), batch_size):
        rows = order[lo : lo + batch_size]
        cells, live = _window_cells(starts[rows], lengths[rows])
        at_skill, at_next = nncore.net_target_probs(
            model.net, tokens[cells], lengths[rows], skills[cells], next_skills[cells]
        )
        p_mastery[cells[live]] = at_skill[live]
        p_next[cells[live]] = at_next[live]
    y = tokens // model.k
    p_next = np.delete(p_next, table.offsets[1:] - 1)  # a sequence's last step predicts no step
    predictions = step_rows(table.user_ids, sizes, skills, y, p_next, tag, first_step=1)
    mastery = step_rows(table.user_ids, sizes, skills, y, p_mastery, tag)
    return predictions, mastery


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_VERSION = 2


def save_checkpoint(model: DktModel, path: str | Path) -> None:
    """Single-file container: the six parameter tensors of ``DktNet.flat()``
    (``embedding``, the packed GRU ``w``/``u``/``b`` with gate order z|r|h,
    ``w_out``, ``b_out``), each stored as ``param_<name>``, plus a JSON meta
    blob (version, K, vocab hash, training config).

    The file is written to a temporary file in the same directory and moved
    into place, so a failed write leaves any previous checkpoint intact."""
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "k": model.k,
            "vocab_hash": model.vocab_hash,
            "config": model.config,
        },
        sort_keys=True,
    )
    tensors = {f"param_{name}": arr for name, arr in model.net.flat().items()}
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8), **tensors)


def load_checkpoint(path: str | Path, expect_vocab_hash: str | None = None) -> DktModel:
    """Load a checkpoint; a vocabulary-hash mismatch is an error."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        tensors = {
            name[len("param_") :]: data[name] for name in data.files if name.startswith("param_")
        }
    if expect_vocab_hash is not None and meta["vocab_hash"] != expect_vocab_hash:
        raise ValueError(
            "checkpoint vocabulary hash does not match the workspace vocabulary "
            f"({meta['vocab_hash'][:12]}... vs {expect_vocab_hash[:12]}...)"
        )
    return DktModel(
        net=nncore.from_flat(tensors),
        k=int(meta["k"]),
        vocab_hash=meta["vocab_hash"],
        config=meta.get("config", {}),
    )
