"""The shared prediction table and the dump/trajectory file formats.

``Predictions`` is the common currency of all evaluation: every predictor
(the recurrent tracer, the LLM probe, synthetic oracles) produces one table
of six parallel columns, and the evaluation battery never has to know which
model produced it. A dump file holds the same table as six-column delimited
rows. The step index ``t`` is the 0-based position of the predicted
interaction inside the student's sequence.

Two dump kinds share the schema, and ``step_rows`` lays out both:

* next-step predictions: one row per target position (t = 1..T-1); p is the
  probability of answering step t correctly given steps before t.
* mastery paths: one row per attempt (t = 0..T-1); p is the post-observation
  mastery of the practiced skill, i.e. row t of the mastery trajectory at the
  practiced skill's column. Temporal-coherence metrics consume these.

NaN is the one marker of a step the probe could not resolve, in the table
and in a trajectory matrix alike; files carry ``NA`` in its place. Such
steps are never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .ingest import atomic_open

PRED_COLUMNS = ("user_id", "t", "skill_idx", "y_true", "p_pred", "model_tag")
NA = "NA"
PROB_FLOOR = 1e-12  # a written p stays inside (0, 1), as read_prediction_dump requires

_DTYPES = {
    "user": str, "step": np.int64, "skill": np.int64, "y": np.int64, "p": np.float64, "tag": str,
}


@dataclass(frozen=True, eq=False)
class Predictions:
    """A prediction dump as parallel columns, one entry per row: user id,
    step, skill, label, probability (NaN where unresolved) and model tag.
    The columns are coerced to their dtypes and must have one length."""

    user: np.ndarray
    step: np.ndarray
    skill: np.ndarray
    y: np.ndarray
    p: np.ndarray
    tag: np.ndarray

    def __post_init__(self):
        for name, dtype in _DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({len(col) for col in self.columns()}) > 1:
            raise ValueError("prediction columns differ in length")

    def __len__(self) -> int:
        return len(self.p)

    def columns(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def resolved(self) -> Predictions:
        """The rows whose probability is resolved (not NaN)."""
        keep = ~np.isnan(self.p)
        return Predictions(*(col[keep] for col in self.columns()))

    @classmethod
    def concat(cls, parts: Sequence[Predictions]) -> Predictions:
        return cls(*(np.concatenate(cols) for cols in zip(*(part.columns() for part in parts))))


@dataclass
class MasteryTrajectory:
    """Per-step probability matrix over all skills for one student.

    Row t holds the predicted correctness probability for every skill after
    observing steps 0..t. ``steps`` carries the aligned (skill, quiz, y)
    metadata, one int64 row per step. Cells a probe could not resolve are NaN.
    """

    user_id: str
    p: np.ndarray  # (T, K)
    steps: np.ndarray  # (T, 3)

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.int64).reshape(-1, 3)
        if len(self.steps) != len(self.p):
            raise ValueError(f"{self.user_id}: {len(self.steps)} steps, {len(self.p)} rows of p")

    @property
    def n_steps(self) -> int:
        return self.p.shape[0]

    @property
    def n_skills(self) -> int:
        return self.p.shape[1]

    def practiced_path(self, tag: str) -> Predictions:
        """Post-observation mastery of the practiced skill at every attempt,
        as a mastery-path table under ``tag``."""
        skill, _, y = self.steps.T
        p = self.p[np.arange(len(skill)), skill]
        return step_rows([self.user_id], [len(skill)], skill, y, p, tag)


def step_rows(
    users: Sequence[str], sizes: Sequence[int], skill: Sequence[int], y: Sequence[int],
    p: Sequence[float], tag: str, first_step: int = 0,
) -> Predictions:
    """The table of consecutive sequences, one row per step t >= ``first_step``.

    Sequence i belongs to ``users[i]`` and has ``sizes[i]`` steps; ``skill``
    and ``y`` hold one entry per step of every sequence, in order, and ``p``
    one per kept row. A kept ``p`` is floored into (0, 1) by ``PROB_FLOOR``;
    NaN stays NaN. ``first_step`` 1 gives the next-step rows, 0 the mastery
    rows.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    step = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keep = step >= first_step
    return Predictions(
        user=np.repeat(np.asarray(users, dtype=str), sizes)[keep],
        step=step[keep],
        skill=np.asarray(skill)[keep],
        y=np.asarray(y)[keep],
        p=np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR),
        tag=np.full(np.count_nonzero(keep), tag),
    )


def write_prediction_dump(path: str | Path, preds: Predictions) -> None:
    """One CSV row per table row, probabilities as ``repr`` floats or ``NA``.
    The file is replaced only once it is fully written."""
    p_text = [NA if math.isnan(p) else repr(p) for p in preds.p.tolist()]
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PRED_COLUMNS)
        writer.writerows(
            zip(
                preds.user.tolist(), preds.step.tolist(), preds.skill.tolist(),
                preds.y.tolist(), p_text, preds.tag.tolist(),
            )
        )


def _read_rows(path: str | Path) -> Tuple[List[str], List[List[str]]]:
    """The header and rows of a CSV file. Every row must have the header's
    cell count; the error names the first line that does not."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header row")
        rows = list(reader)
    ragged = next((t for t, row in enumerate(rows) if len(row) != len(header)), None)
    if ragged is not None:
        raise ValueError(
            f"{path}: line {ragged + 2} has {len(rows[ragged])} cells, the header has {len(header)}"
        )
    return header, rows


def read_prediction_dump(path: str | Path) -> Predictions:
    """Load a dump, validating the header, 0/1 labels, probability range,
    and the (user_id, t, model_tag) uniqueness invariant; a duplicate error
    names the first repeated key in file order."""
    header, rows = _read_rows(path)
    if tuple(header) != PRED_COLUMNS:
        raise ValueError(f"{path}: unexpected dump header {header}")
    cells = np.array(rows, dtype=object).reshape(-1, len(PRED_COLUMNS))
    p_text = cells[:, 4]
    resolved = p_text != NA
    p = np.full(len(p_text), math.nan)
    p[resolved] = p_text[resolved].astype(np.float64)
    out_of_range = np.flatnonzero(resolved & ~((p > 0.0) & (p < 1.0)))
    if out_of_range.size:
        raise ValueError(f"{path}: probability out of (0,1): {p_text[out_of_range[0]]}")
    step, skill, y = cells[:, 1:4].astype(np.int64).T
    bad_label = np.flatnonzero((y != 0) & (y != 1))
    if bad_label.size:
        raise ValueError(f"{path}: line {bad_label[0] + 2}: y_true must be 0 or 1")
    preds = Predictions(user=cells[:, 0], step=step, skill=skill, y=y, p=p, tag=cells[:, 5])
    keys = (preds.user, preds.step, preds.tag)
    order = np.lexsort(keys[::-1])  # stable: equal keys keep file order
    repeat = np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
    if repeat.any():
        i = int(order[1:][repeat].min())
        key = (str(preds.user[i]), int(preds.step[i]), str(preds.tag[i]))
        raise ValueError(f"{path}: duplicate record for {key}")
    return preds


def write_trajectory(path: str | Path, traj: MasteryTrajectory) -> None:
    """Trajectory matrix as delimited text: one row per step with aligned
    metadata, then one probability column per skill (``repr`` floats or
    ``NA``). The file is replaced only once it is fully written."""
    k = traj.n_skills
    header = ["user_id", "t", "skill_idx", "quiz_idx", "y"] + [f"p_{i}" for i in range(k)]
    rows = (
        [traj.user_id, t, *step] + [NA if math.isnan(p) else repr(p) for p in probs]
        for t, (step, probs) in enumerate(zip(traj.steps.tolist(), traj.p.tolist(), strict=True))
    )
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_trajectory(path: str | Path) -> MasteryTrajectory:
    """Load a trajectory file; every row must have the header's cell count."""
    _, rows = _read_rows(path)
    if not rows:
        raise ValueError(f"{path}: empty trajectory file")
    cells = np.array(rows, dtype=object)
    probs = cells[:, 5:]
    resolved = probs != NA
    p = np.full(probs.shape, np.nan)
    p[resolved] = probs[resolved].astype(np.float64)
    return MasteryTrajectory(user_id=rows[0][0], p=p, steps=cells[:, 2:5].astype(np.int64))
