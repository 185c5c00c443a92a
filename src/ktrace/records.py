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
import io
import math
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .ingest import atomic_open

PRED_COLUMNS = ("user_id", "t", "skill_idx", "y_true", "p_pred", "model_tag")
TRAJECTORY_COLUMNS = ("user_id", "t", "skill_idx", "quiz_idx", "y")  # then p_0 .. p_{K-1}
NA = "NA"
PROB_FLOOR = 1e-12  # a written p stays inside (0, 1), as read_prediction_dump requires

# one parsed file row: text fields stay str objects, p until ``_probabilities``
_DUMP_ROW = np.dtype(
    [("user_id", "O"), ("t", "i8"), ("skill_idx", "i8"), ("y_true", "i8"), ("p", "O"), ("model_tag", "O")]
)
_TRAJECTORY_ROW = [(name, "O" if name == "user_id" else "i8") for name in TRAJECTORY_COLUMNS]
_INT_CELL = re.compile(r"\s*([+-]?[0-9]+)\s*")  # with int64 range: what loadtxt reads as one

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


def _read_table(path: str | Path, row_dtype: Callable[[List[str]], np.dtype]) -> np.ndarray:
    """The rows of a CSV file after its header, parsed by numpy's C reader
    into one record of ``row_dtype(header)`` per row. A row the reader
    refuses, or a blank line, is named by its line: see ``_name_bad_line``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: no header row")
        dtype = row_dtype(header)
        body = fh.read()
    if _has_blank_line(body):
        _name_bad_line(path, dtype)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # numpy 1.24 reads "1.0" into an integer field, with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            # newline="": lines end at CRLF, LF or a lone CR, as csv.reader reads them
            lines = io.StringIO(body, newline="")
            return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:
        _name_bad_line(path, dtype)
        raise ValueError(f"{path}: {exc}") from None


def _has_blank_line(text: str) -> bool:
    """Whether ``text`` holds an empty line: a line end at its start, right
    after LF, or CR right after CR. loadtxt skips such a line, where
    csv.reader reads it as a row of 0 cells."""
    char = np.frombuffer(text.encode(), np.uint8)
    lf, cr = char == 10, char == 13
    return text[:1] in ("\r", "\n") or bool((lf[:-1] & (lf[1:] | cr[1:]) | cr[:-1] & cr[1:]).any())


def _read_rows(path: str | Path) -> Tuple[List[str], List[List[str]], List[int]]:
    """The header and the rows of a table file as ``csv.reader`` reads them,
    and the line each row starts on: the line after the last one's end, since
    a quoted cell can span lines (``ingest.parse_interactions`` counts so)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows, ends = [], [reader.line_num]
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
    return header, rows, [end + 1 for end in ends[:-1]]


def _line(path: str | Path, row: int) -> int:
    """The line on which row ``row`` (0-based, after the header) of a table
    file starts. Read again only to name an error."""
    return _read_rows(path)[2][row]


def _name_bad_line(path: str | Path, dtype: np.dtype) -> None:
    """Read a table file with ``csv.reader`` and raise the error that names
    its first line with the wrong cell count, or with an integer cell (an
    int64 field of ``dtype``) that is not a decimal integer within int64."""
    header, rows, lines = _read_rows(path)
    ragged = next((t for t, row in enumerate(rows) if len(row) != len(header)), None)
    if ragged is not None:
        raise ValueError(
            f"{path}: line {lines[ragged]} has {len(rows[ragged])} cells, the header has {len(header)}"
        )
    # a field's index is its column's: only the last field spans columns
    ints = [i for i, name in enumerate(dtype.names) if dtype[name] == np.int64]
    for line, row in zip(lines, rows):
        for i in ints:
            digits = _INT_CELL.fullmatch(row[i])
            if not (digits and -(2**63) <= int(digits[1]) < 2**63):
                raise ValueError(
                    f"{path}: line {line}: {header[i]} must be a 64-bit integer: {row[i]!r}"
                )


def _probabilities(path: str | Path, text: np.ndarray) -> np.ndarray:
    """``float()`` of each probability cell, NaN for ``NA``; a cell that is
    neither is named by its line."""
    resolved = text != NA
    p = np.full(text.shape, math.nan)
    try:
        p[resolved] = text[resolved].astype(np.float64)
    except ValueError:
        for row, cells in enumerate(text.reshape(len(text), -1)):
            try:
                cells[cells != NA].astype(np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {_line(path, row)}: {exc}") from None
        raise
    return p


def read_prediction_dump(path: str | Path) -> Predictions:
    """Load a dump, validating the header, integer cells, 0/1 labels,
    probability range, and the (user_id, t, model_tag) uniqueness invariant;
    a duplicate error names the first repeated key in file order."""

    def row_dtype(header: List[str]) -> np.dtype:
        if tuple(header) != PRED_COLUMNS:
            raise ValueError(f"{path}: unexpected dump header {header}")
        return _DUMP_ROW

    rows = _read_table(path, row_dtype)
    p_text = rows["p"]
    p = _probabilities(path, p_text)
    out_of_range = np.flatnonzero((p_text != NA) & ~((p > 0.0) & (p < 1.0)))
    if out_of_range.size:
        i = out_of_range[0]
        raise ValueError(f"{path}: line {_line(path, i)}: probability out of (0,1): {p_text[i]}")
    y = rows["y_true"]
    bad_label = np.flatnonzero((y != 0) & (y != 1))
    if bad_label.size:
        raise ValueError(f"{path}: line {_line(path, bad_label[0])}: y_true must be 0 or 1")
    preds = Predictions(
        user=rows["user_id"], step=rows["t"], skill=rows["skill_idx"], y=y, p=p, tag=rows["model_tag"]
    )
    keys = (preds.user, preds.step, preds.tag)
    order = np.lexsort(keys[::-1])  # stable: equal keys keep file order
    repeat = np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
    if repeat.any():
        i = int(order[1:][repeat].min())
        key = (str(preds.user[i]), int(preds.step[i]), str(preds.tag[i]))
        raise ValueError(f"{path}: line {_line(path, i)}: duplicate record for {key}")
    return preds


def write_trajectory(path: str | Path, traj: MasteryTrajectory) -> None:
    """Trajectory matrix as delimited text: one row per step with aligned
    metadata, then one probability column per skill (``repr`` floats or
    ``NA``). The file is replaced only once it is fully written."""
    header = list(TRAJECTORY_COLUMNS) + [f"p_{i}" for i in range(traj.n_skills)]
    rows = (
        [traj.user_id, t, *step] + [NA if math.isnan(p) else repr(p) for p in probs]
        for t, (step, probs) in enumerate(zip(traj.steps.tolist(), traj.p.tolist(), strict=True))
    )
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_trajectory(path: str | Path) -> MasteryTrajectory:
    """Load a trajectory file; every row must have the header's cell count
    and integer step cells."""

    def row_dtype(header: List[str]) -> np.dtype:
        if tuple(header[:5]) != TRAJECTORY_COLUMNS:
            raise ValueError(f"{path}: unexpected trajectory header {header[:5]}")
        return np.dtype(_TRAJECTORY_ROW + [("p", "O", (len(header) - 5,))])

    rows = _read_table(path, row_dtype)
    if not len(rows):
        raise ValueError(f"{path}: empty trajectory file")
    steps = np.column_stack([rows[name] for name in TRAJECTORY_COLUMNS[2:]])
    return MasteryTrajectory(user_id=rows["user_id"][0], p=_probabilities(path, rows["p"]), steps=steps)
