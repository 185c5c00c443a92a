"""Interaction-log ingestion.

Parses delimited tutoring logs, applies the preprocessing filters (single
skill only, minimum sequence length), builds ordered per-student sequences,
assigns dense vocabulary indices, and produces seeded student-level splits.
All steps are deterministic: student order is lexicographic on user_id,
within-student order breaks order_id ties by (order_id, problem_id, file row
index).

The log is held in columns, not one object per row. ``parse_interactions``
fills an ``InteractionColumns`` (one list per field, in file order); one
stable sort of the single-skill rows by (user_id, order_id, problem_id, row
index) then feeds both the ordered sequences and the skill-name pass, and
the raw-log statistics are set and sum reductions over the columns.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from collections import Counter
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple,
)

import numpy as np

MIN_INTERACTIONS = 3

DEFAULT_COLUMNS: Dict[str, str] = {
    "order_id": "order_id",
    "user_id": "user_id",
    "problem_id": "problem_id",
    "correct": "correct",
    "skill_id": "skill_id",
    "skill_name": "skill_name",
}

REQUIRED_FIELDS = tuple(DEFAULT_COLUMNS)


class ColumnMappingError(ValueError):
    """A required column is absent from the header."""


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    reason: str
    raw: str


@dataclass(eq=False)
class InteractionColumns:
    """Parsed rows as parallel per-field lists, in file order: one row per
    logged student attempt. Treat it as read-only once built: ``ordered`` is
    cached."""

    order_id: List[int] = field(default_factory=list)
    user_id: List[str] = field(default_factory=list)
    problem_id: List[str] = field(default_factory=list)
    skill_raw: List[str] = field(default_factory=list)   # may be empty or comma-separated
    skill_name: List[str] = field(default_factory=list)
    correct: List[int] = field(default_factory=list)
    row_index: List[int] = field(default_factory=list)   # 1-based data-row number in the file

    def __len__(self) -> int:
        return len(self.row_index)

    @cached_property
    def ordered(self) -> List[int]:
        """Positions of the single-skill rows (skill field non-empty and
        without a comma), sorted by (user_id, order_id, problem_id,
        row_index). The sort is stable: exact ties keep their input order."""
        keep = [i for i, s in enumerate(self.skill_raw) if s and "," not in s]
        keys = list(zip(self.user_id, self.order_id, self.problem_id, self.row_index))
        keep.sort(key=keys.__getitem__)
        return keep


@dataclass
class ParseResult:
    columns: InteractionColumns
    rejects: List[RejectedRow]
    duplicates_dropped: int = 0

    @property
    def records(self) -> InteractionColumns:
        """``columns``, under the name ``perfbench/tracer.py`` reads."""
        return self.columns


@dataclass
class StudentSequence:
    """Chronologically ordered (skill, quiz, correctness) triplets.

    Skill and quiz entries are raw string ids straight out of
    filter_and_order and dense integer indices after index_sequences.
    """

    user_id: str
    steps: list  # [(skill, quiz, correct), ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class FilterReport:
    missing_skill: int = 0
    multi_skill: int = 0
    short_student_rows: int = 0
    short_students: int = 0
    kept_records: int = 0
    kept_students: int = 0


@dataclass(frozen=True)
class Vocab:
    """Dense zero-based skill and quiz indices plus display names."""

    skill_ids: Tuple[str, ...]
    quiz_ids: Tuple[str, ...]
    skill_names: Tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.skill_ids)

    @cached_property
    def skill_to_index(self) -> Dict[str, int]:
        return {s: i for i, s in enumerate(self.skill_ids)}

    @cached_property
    def quiz_to_index(self) -> Dict[str, int]:
        return {q: i for i, q in enumerate(self.quiz_ids)}

    def content_hash(self) -> str:
        payload = json.dumps(
            {"skills": self.skill_ids, "quizzes": self.quiz_ids, "names": self.skill_names},
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class DatasetSplit:
    train: List[StudentSequence]
    val: List[StudentSequence]
    test: List[StudentSequence]
    seed: int
    ratios: Tuple[float, float, float]

    def partitions(self) -> Dict[str, List[StudentSequence]]:
        return {"train": self.train, "val": self.val, "test": self.test}


@dataclass
class DatasetStats:
    n_records: int = 0
    n_students: int = 0
    n_quizzes: int = 0
    n_skills: int = 0
    avg_per_student: float = 0.0
    avg_per_quiz: float = 0.0
    avg_per_skill: float = 0.0
    n_correct: int = 0
    n_incorrect: int = 0


class _Memo(dict):
    """key -> ``make(key)``, computed on the first lookup of each distinct
    key and shared by every later one. A ``make`` that raises stores nothing.

    Its keys are cells that repeat: the id and name cells of a log and the
    integers of ``sequences.txt``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# ---------------------------------------------------------------------------
# parsing


def _parse_correct(value: str) -> int:
    v = float(value)
    if v not in (0.0, 1.0):
        raise ValueError(f"correct must be 0 or 1, got {value!r}")
    return int(v)


_CORRECT_FAST = {"0": 0, "1": 1}


def _parse_order_id(value: str) -> int:
    """Integer order key; float-encoded values such as "12.0" are accepted.
    Plain integers parse exactly, so ids above 2**53 keep their order."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return int(float(value))
    except OverflowError:  # "inf"
        raise ValueError(f"order_id out of range: {value!r}") from None


def parse_interactions(
    source: TextIO | Iterable[str],
    columns: Mapping[str, str] | None = None,
    delimiter: str = ",",
) -> ParseResult:
    """Read a delimited log with a header row into interaction columns.

    Rows that cannot yield a structurally valid record (missing user id,
    non-integer order key, correctness outside {0, 1}) land in the rejects
    list with their line numbers; they are never silently dropped. Rows fully
    identical to an earlier row are deduplicated and counted.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ColumnMappingError(f"unknown column-mapping keys: {sorted(unknown)}")
        colmap.update(columns)

    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ColumnMappingError("empty input: no header row") from None
    header = [h.strip() for h in header]
    positions: Dict[str, int] = {}
    for fieldname in REQUIRED_FIELDS:
        col = colmap[fieldname]
        if col not in header:
            raise ColumnMappingError(f"required column {col!r} not found in header")
        positions[fieldname] = header.index(col)

    cols = InteractionColumns()
    width = max(positions.values()) + 1
    cells_of = itemgetter(*(positions[f] for f in (
        "user_id", "order_id", "correct", "problem_id", "skill_id", "skill_name"
    )))
    add_user, add_order = cols.user_id.append, cols.order_id.append
    add_correct, add_problem = cols.correct.append, cols.problem_id.append
    add_skill, add_name = cols.skill_raw.append, cols.skill_name.append
    add_row = cols.row_index.append
    rejects: List[RejectedRow] = []
    # a digest instead of the raw row keeps memory flat on wide files; copying
    # one configured hasher is cheaper than constructing one per row
    hasher = hashlib.blake2b(digest_size=16)
    # raw id or name cell -> its stripped text, one string object per distinct
    # cell: the columns then hold pointers to a few thousand strings, not a
    # fresh string per cell
    text = _Memo(str.strip).__getitem__
    seen: set = set()
    duplicates = 0

    for row_index, row in enumerate(reader, start=1):
        joined = "\x1f".join(row)
        # "\x1f" is whitespace to str.strip, so this is "every cell is blank"
        if not joined.strip():
            continue
        digest = hasher.copy()
        digest.update(joined.encode("utf-8"))
        key = digest.digest()
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)

        cells = row if len(row) >= width else row + [""] * (width - len(row))
        user_cell, order_cell, correct_cell, problem_cell, skill_cell, name_cell = cells_of(cells)
        user_id = text(user_cell)
        if not user_id:
            rejects.append(RejectedRow(row_index + 1, "missing user_id", delimiter.join(row)))
            continue
        try:
            order_id = _parse_order_id(order_cell.strip())
        except ValueError:
            rejects.append(RejectedRow(row_index + 1, "bad order_id", delimiter.join(row)))
            continue
        correct = _CORRECT_FAST.get(correct_cell)
        if correct is None:
            try:
                correct = _parse_correct(correct_cell.strip())
            except ValueError:
                rejects.append(RejectedRow(row_index + 1, "bad correct", delimiter.join(row)))
                continue

        add_user(user_id)
        add_order(order_id)
        add_correct(correct)
        add_problem(text(problem_cell))
        add_skill(text(skill_cell))
        add_name(text(name_cell))
        add_row(row_index)

    return ParseResult(columns=cols, rejects=rejects, duplicates_dropped=duplicates)


# ---------------------------------------------------------------------------
# filtering and ordering


def filter_and_order(
    cols: InteractionColumns,
) -> Tuple[List[StudentSequence], FilterReport]:
    """Apply the preprocessing filters and build ordered raw-id sequences.

    Drops rows with an empty skill field, rows whose skill field holds a
    comma-separated list (multi-skill items), and students left with fewer
    than three interactions. The surviving rows are grouped per student and
    sorted by (order_id, problem_id, row_index).
    """
    order = cols.ordered
    report = FilterReport(missing_skill=cols.skill_raw.count(""))
    report.multi_skill = len(cols) - report.missing_skill - len(order)

    steps = list(zip(*(map(column.__getitem__, order)
                       for column in (cols.skill_raw, cols.problem_id, cols.correct))))
    sequences: List[StudentSequence] = []
    start = 0
    # a Counter keeps first-seen order, which is the sorted user order
    for user_id, n in Counter(map(cols.user_id.__getitem__, order)).items():
        if n < MIN_INTERACTIONS:
            report.short_students += 1
            report.short_student_rows += n
        else:
            sequences.append(StudentSequence(user_id=user_id, steps=steps[start:start + n]))
        start += n

    report.kept_students = len(sequences)
    report.kept_records = sum(map(len, sequences))
    return sequences, report


def collect_skill_names(cols: InteractionColumns) -> Dict[str, str]:
    """First non-empty display name per raw skill id, in deterministic
    (user, order, problem, row) traversal order. Rows of students that the
    length filter drops still name their skills."""
    # walking backwards, the last name met per skill is the first one forwards
    backwards = cols.ordered[::-1]
    named = filter(itemgetter(1), zip(map(cols.skill_raw.__getitem__, backwards),
                                      map(cols.skill_name.__getitem__, backwards)))
    return dict(named)


# ---------------------------------------------------------------------------
# vocabulary


def flatten_steps(sequences: Iterable[StudentSequence]) -> List[tuple]:
    """Every (skill, quiz, correct) step of ``sequences``, in order."""
    return list(chain.from_iterable(seq.steps for seq in sequences))


_SKILL, _QUIZ, _LABEL = itemgetter(0), itemgetter(1), itemgetter(2)


def build_vocab(
    sequences: Sequence[StudentSequence],
    skill_names: Mapping[str, str] | None = None,
) -> Vocab:
    """Assign dense zero-based indices in first-appearance order over the
    user_id-sorted student list. Rebuilding from identical input yields an
    identical Vocab."""
    if not sequences:
        raise ValueError("build_vocab: no sequences")
    steps = flatten_steps(sorted(sequences, key=attrgetter("user_id")))
    skill_ids = tuple(dict.fromkeys(map(_SKILL, steps)))
    names = skill_names or {}
    return Vocab(
        skill_ids=skill_ids,
        quiz_ids=tuple(dict.fromkeys(map(_QUIZ, steps))),
        skill_names=tuple(names.get(s) or str(s) for s in skill_ids),
    )


def index_sequences(sequences: Sequence[StudentSequence], vocab: Vocab) -> List[StudentSequence]:
    """Convert raw-id sequences to dense-index sequences."""
    skill_index = vocab.skill_to_index.__getitem__
    quiz_index = vocab.quiz_to_index.__getitem__
    return [
        StudentSequence(
            user_id=seq.user_id,
            steps=list(zip(
                map(skill_index, map(_SKILL, seq.steps)),
                map(quiz_index, map(_QUIZ, seq.steps)),
                map(_LABEL, seq.steps),
            )),
        )
        for seq in sequences
    ]


# ---------------------------------------------------------------------------
# splitting


def _partition_sizes(n: int, ratios: Sequence[float]) -> List[int]:
    # largest-remainder allocation; deterministic tie-break by position
    base = [int(n * r) for r in ratios]
    remainder = n - sum(base)
    fracs = sorted(range(len(ratios)), key=lambda i: (-(n * ratios[i] - base[i]), i))
    for i in fracs[:remainder]:
        base[i] += 1
    return base


def check_ratios(ratios: Sequence[float]) -> None:
    """The split ratios sum to 1 and each lies in [0, 1]."""
    if abs(sum(ratios) - 1.0) > 1e-9 or not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"ratios must sum to 1 with each in [0, 1], got {ratios}")


def split_students(
    sequences: Sequence[StudentSequence],
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Student-level split: deterministic seeded shuffle of the sorted user
    list, then a contiguous partition by ratio."""
    check_ratios(ratios)
    ordered = sorted(sequences, key=lambda s: s.user_id)
    n = len(ordered)
    if n < len(ratios):
        raise ValueError(f"cannot split {n} students into {len(ratios)} partitions")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    shuffled = [ordered[i] for i in perm]
    n_train, n_val, _ = _partition_sizes(n, ratios)
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
        seed=seed,
        ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# statistics


def summarize(sequences: Sequence[StudentSequence]) -> DatasetStats:
    """Record/student/quiz/skill counts and per-entity interaction means of
    a sequence set; ``summarize_split`` gives the per-partition view of a
    split."""
    steps = flatten_steps(sequences)
    n_records = len(steps)
    if n_records == 0:
        return DatasetStats()
    n_quizzes = len(set(map(_QUIZ, steps)))
    n_skills = len(set(map(_SKILL, steps)))
    n_correct = sum(map(_LABEL, steps))
    n_students = len(sequences)
    return DatasetStats(
        n_records=n_records,
        n_students=n_students,
        n_quizzes=n_quizzes,
        n_skills=n_skills,
        avg_per_student=n_records / n_students,
        avg_per_quiz=n_records / n_quizzes,
        avg_per_skill=n_records / n_skills,
        n_correct=n_correct,
        n_incorrect=n_records - n_correct,
    )


def summarize_split(split: DatasetSplit) -> Dict[str, DatasetStats]:
    """Per-partition statistics keyed train/val/test."""
    return {name: summarize(part) for name, part in split.partitions().items()}


def summarize_records(cols: InteractionColumns) -> DatasetStats:
    """Stats over the raw parsed rows (the pre-filter view). Comma-separated
    skill cells contribute each component id to the distinct-skill count."""
    n = len(cols)
    if not n:
        return DatasetStats()
    n_users = len(set(cols.user_id))
    n_quizzes = len(set(cols.problem_id))
    skills = {part.strip() for cell in set(cols.skill_raw) for part in cell.split(",")}
    skills.discard("")
    n_correct = sum(cols.correct)
    return DatasetStats(
        n_records=n,
        n_students=n_users,
        n_quizzes=n_quizzes,
        n_skills=len(skills),
        avg_per_student=n / n_users,
        avg_per_quiz=n / n_quizzes if n_quizzes else 0.0,
        avg_per_skill=n / len(skills) if skills else 0.0,
        n_correct=n_correct,
        n_incorrect=n - n_correct,
    )


# ---------------------------------------------------------------------------
# files


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator:
    """Open a temporary file next to ``path`` for writing and move it into
    place when the block ends, so a failed write leaves any previous file
    intact. The parent directory is created when missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_sequences(path: str | Path, sequences: Sequence[StudentSequence]) -> None:
    """One student per line: user_id, then tab-separated s,q,y triplets."""
    step_cell = "%s,%s,%s".__mod__
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            "\t".join([seq.user_id, *map(step_cell, seq.steps)]) + "\n" for seq in sequences
        )


# user id, then zero or more tab-separated cells of exactly three values
_SEQUENCE_LINE = re.compile(r"[^\t\n]*(?:\t[^\t\n,]*,[^\t\n,]*,[^\t\n,]*)*\n?")


def read_sequences(
    path: str | Path, users: Optional[Collection[str]] = None
) -> List[StudentSequence]:
    """The sequences of ``path`` in file order; with ``users``, only theirs,
    and the lines of other students are skipped unparsed. A cell that is not
    three integers raises ValueError naming the file and line."""
    out: List[StudentSequence] = []
    to_int = _Memo(int).__getitem__
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            if users is not None and line.partition("\t")[0].rstrip("\n") not in users:
                continue
            user_id, _, cells = line.rstrip("\n").partition("\t")
            values = map(to_int, cells.replace("\t", ",").split(",")) if cells else iter(())
            try:
                if not _SEQUENCE_LINE.fullmatch(line):
                    raise ValueError
                steps = list(zip(values, values, values))
            except ValueError:
                raise ValueError(f"{path}: line {line_number}: a step cell must hold s,q,y") from None
            out.append(StudentSequence(user_id=user_id, steps=steps))
    return out


def write_rejects(path: str | Path, rejects: Sequence[RejectedRow]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["line_number", "reason", "raw_row"])
        writer.writerows([rej.line_number, rej.reason, rej.raw] for rej in rejects)
