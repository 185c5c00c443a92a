"""Interaction-log ingestion.

Parses delimited tutoring logs, applies the preprocessing filters (single
skill only, minimum sequence length), builds ordered per-student sequences,
assigns dense vocabulary indices, and produces seeded student-level splits.
All steps are deterministic: student order is lexicographic on user_id,
within-student order breaks order_id ties by (order_id, problem_id, file row
index).

No object is made per row or per step. ``parse_interactions`` fills one
list per field (``InteractionColumns``). ``filter_and_order`` ranks the
user, problem and skill cells and computes on those integer codes (stable
sorts, a ``bincount``, first appearances) to build a ``StepTable``: user
ids, offsets and flat skill/quiz/label arrays, which the split, the
statistics and ``write_sequences`` read. ``read_sequences`` gives the same
table back from ``sequences.txt``; ``synth`` builds one directly. Training,
inference, the LLM probe and the trajectory files read its arrays. Iterating
a table yields one ``StudentSequence`` per student, for the oracle records
of a synthetic corpus and for callers outside the package.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import re
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
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
    logged student attempt."""

    order_id: List[int] = field(default_factory=list)
    user_id: List[str] = field(default_factory=list)
    problem_id: List[str] = field(default_factory=list)
    skill_raw: List[str] = field(default_factory=list)   # may be empty or comma-separated
    skill_name: List[str] = field(default_factory=list)
    correct: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.correct)


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
    """One student's chronologically ordered (skill, quiz, correctness)
    triplets of dense integer indices: what iterating a StepTable yields."""

    user_id: str
    steps: list  # [(skill, quiz, correct), ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(eq=False)
class StepTable:
    """Indexed sequences as one flat step table: student i is ``user_ids[i]``
    with rows ``offsets[i]:offsets[i + 1]`` of the non-negative ``skill``,
    ``quiz`` and ``label`` arrays. Iterating yields StudentSequences."""

    user_ids: List[str]
    offsets: np.ndarray  # int64, one entry more than user_ids
    skill: np.ndarray
    quiz: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)

    def __iter__(self) -> Iterator[StudentSequence]:
        steps = list(zip(self.skill.tolist(), self.quiz.tolist(), self.label.tolist()))
        bounds = self.offsets.tolist()
        for user_id, start, stop in zip(self.user_ids, bounds, bounds[1:]):
            yield StudentSequence(user_id, steps[start:stop])

    def take(self, students: np.ndarray) -> "StepTable":
        """The table of the students at positions ``students``, in that order."""
        sizes = np.diff(self.offsets)[students]
        offsets = np.cumsum([0, *sizes], dtype=np.int64)
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[students] - offsets[:-1], sizes)
        return StepTable([self.user_ids[i] for i in students], offsets,
                         self.skill[rows], self.quiz[rows], self.label[rows])


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
    """Raw skill and quiz ids and skill display names, each at its dense
    zero-based index."""

    skill_ids: Tuple[str, ...]
    quiz_ids: Tuple[str, ...]
    skill_names: Tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.skill_ids)

    def content_hash(self) -> str:
        payload = json.dumps(
            {"skills": self.skill_ids, "quizzes": self.quiz_ids, "names": self.skill_names},
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class DatasetSplit:
    train: StepTable
    val: StepTable
    test: StepTable
    seed: int
    ratios: Tuple[float, float, float]

    def partitions(self) -> Dict[str, StepTable]:
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

    @classmethod
    def of(cls, n_records: int, n_students: int, n_quizzes: int, n_skills: int,
           n_correct: int) -> "DatasetStats":
        """The stats of these counts: interactions per student, quiz and
        skill (0.0 with none of them), and all zeros with no records."""
        if not n_records:
            return cls()
        means = [n_records / n if n else 0.0 for n in (n_students, n_quizzes, n_skills)]
        return cls(n_records, n_students, n_quizzes, n_skills, *means,
                   n_correct, n_records - n_correct)


class _Memo(dict):
    """key -> ``make(key)``, computed on the first lookup of each distinct
    key and shared by every later one. A ``make`` that raises stores nothing.

    Its keys are cells that repeat: the id and name cells of a log and the
    integer texts of ``sequences.txt``, so each distinct one is parsed once."""

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

    return ParseResult(columns=cols, rejects=rejects, duplicates_dropped=duplicates)


# ---------------------------------------------------------------------------
# filtering, ordering and indexing


def _rank_codes(column: Sequence) -> Tuple[list, np.ndarray]:
    """The sorted distinct values of ``column`` and, per cell, the index of
    its value among them: integer codes that sort as the cells do."""
    values = sorted(set(column))
    index = {value: i for i, value in enumerate(values)}
    return values, np.fromiter(map(index.__getitem__, column), np.int32, len(column))


def _first_appearance(codes: np.ndarray, n_codes: int) -> Tuple[list, np.ndarray, np.ndarray]:
    """The codes of ``range(n_codes)`` in ``codes`` by first appearance, each
    cell's index among them, and the position of each one's first cell."""
    first = np.full(n_codes, len(codes), np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    present = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(codes))]
    dense = np.empty(n_codes, np.int32)
    dense[present] = np.arange(len(present))
    return present.tolist(), dense[codes], first[present]


def filter_and_order(cols: InteractionColumns) -> Tuple[StepTable, Vocab, FilterReport]:
    """Apply the preprocessing filters and build the indexed step table.

    Drops rows with an empty skill field or a comma-separated list of skills
    (multi-skill items), and students left with fewer than three rows.
    Students come in user_id order, each one's rows sorted by (order_id,
    problem_id, row index); skills and quizzes get dense indices in order of
    first appearance there. A skill is named by its first non-empty name in
    that order over all single-skill rows, short students' rows included.
    """
    users, user = _rank_codes(cols.user_id)
    problems, problem = _rank_codes(cols.problem_id)
    skills, skill = _rank_codes(cols.skill_raw)
    single = np.array([bool(s) and "," not in s for s in skills], dtype=bool)
    rows = np.flatnonzero(single[skill])
    report = FilterReport(missing_skill=cols.skill_raw.count(""))
    report.multi_skill = len(cols) - report.missing_skill - len(rows)
    try:
        order = np.array(cols.order_id, dtype=np.int64)[rows]
    except OverflowError:  # ids past int64 sort by their ranks
        order = _rank_codes(cols.order_id)[1][rows]
    # sort by (user, order_id), then by problem_id inside each (user,
    # order_id) group; both sorts are stable, so exact ties keep file order
    by_order = np.lexsort((order, user[rows]))
    rows, order = rows[by_order], order[by_order]
    new_group = np.ones(len(rows), dtype=bool)
    new_group[1:] = (user[rows[1:]] != user[rows[:-1]]) | (order[1:] != order[:-1])
    rows = rows[np.argsort(np.cumsum(new_group) * len(problems) + problem[rows], kind="stable")]

    named = rows[np.fromiter(map(bool, cols.skill_name), bool, len(cols))[rows]]
    name_codes, _, first = _first_appearance(skill[named], len(skills))
    names = dict(zip(name_codes, map(cols.skill_name.__getitem__, named[first].tolist())))

    counts = np.bincount(user[rows], minlength=len(users))
    short = (counts > 0) & (counts < MIN_INTERACTIONS)
    report.short_students = int(short.sum())
    report.short_student_rows = int(counts[short].sum())
    kept = counts >= MIN_INTERACTIONS
    rows = rows[kept[user[rows]]]
    report.kept_students, report.kept_records = int(kept.sum()), len(rows)

    skill_codes, skill_index, _ = _first_appearance(skill[rows], len(skills))
    quiz_codes, quiz_index, _ = _first_appearance(problem[rows], len(problems))
    table = StepTable([users[u] for u in np.flatnonzero(kept).tolist()],
                      np.cumsum([0, *counts[kept]], dtype=np.int64),
                      skill_index, quiz_index, np.array(cols.correct, dtype=np.int8)[rows])
    vocab = Vocab(tuple(skills[c] for c in skill_codes), tuple(problems[c] for c in quiz_codes),
                  tuple(names.get(c, skills[c]) for c in skill_codes))
    return table, vocab, report


def distinct_rows(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of the non-negative integer ``columns``: a position
    holding each one, every position's index among them, and their counts."""
    codes = np.zeros(len(columns[0]), np.int64)
    for column in columns:
        codes = codes * (int(column.max(initial=0)) + 1) + column
    _, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    position = np.empty(len(counts), np.int64)
    position[inverse] = np.arange(len(codes))  # any one position of each row will do
    return position, inverse.reshape(-1), counts


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
    table: StepTable,
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Student-level split: deterministic seeded shuffle of the sorted user
    list, then a contiguous partition by ratio into three step tables."""
    check_ratios(ratios)
    n = len(table)
    if n < len(ratios):
        raise ValueError(f"cannot split {n} students into {len(ratios)} partitions")
    ordered = np.array(sorted(range(n), key=table.user_ids.__getitem__), dtype=np.int64)
    rng = np.random.default_rng(seed)
    shuffled = ordered[rng.permutation(n)]
    n_train, n_val, _ = _partition_sizes(n, ratios)
    return DatasetSplit(
        train=table.take(shuffled[:n_train]),
        val=table.take(shuffled[n_train : n_train + n_val]),
        test=table.take(shuffled[n_train + n_val :]),
        seed=seed,
        ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# statistics


def summarize(table: StepTable) -> DatasetStats:
    """Record/student/quiz/skill counts and per-entity interaction means of
    a step table; ``summarize_split`` gives the per-partition view of a
    split."""
    return DatasetStats.of(
        len(table.skill), len(table), int(np.count_nonzero(np.bincount(table.quiz))),
        int(np.count_nonzero(np.bincount(table.skill))), int(table.label.sum()),
    )


def summarize_split(split: DatasetSplit) -> Dict[str, DatasetStats]:
    """Per-partition statistics keyed train/val/test."""
    return {name: summarize(part) for name, part in split.partitions().items()}


def summarize_records(cols: InteractionColumns) -> DatasetStats:
    """Stats over the raw parsed rows (the pre-filter view). Comma-separated
    skill cells contribute each component id to the distinct-skill count."""
    skills = {part.strip() for cell in set(cols.skill_raw) for part in cell.split(",")}
    skills.discard("")
    return DatasetStats.of(
        len(cols), len(set(cols.user_id)), len(set(cols.problem_id)), len(skills),
        sum(cols.correct),
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


def write_sequences(path: str | Path, table: StepTable) -> None:
    """One student per line: user_id, then tab-separated s,q,y triplets. The
    text of each distinct step is built once and shared by its repeats."""
    columns = (table.skill, table.quiz, table.label)
    position, inverse, _ = distinct_rows(*columns)
    distinct = zip(*(column[position].tolist() for column in columns))
    cells = np.array(["%d,%d,%d" % step for step in distinct], dtype=object)[inverse]
    del position, inverse
    bounds = table.offsets.tolist()
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user_id, start, stop in zip(table.user_ids, bounds, bounds[1:]):
            fh.write("\t".join([user_id, *cells[start:stop].tolist()]) + "\n")


# user id, then zero or more tab-separated cells of exactly three values
_SEQUENCE_LINE = re.compile(r"[^\t\n]*(?:\t[^\t\n,]*,[^\t\n,]*,[^\t\n,]*)*\n?")


def read_sequences(path: str | Path, users: Optional[Collection[str]] = None) -> StepTable:
    """The step table of ``path``, students in file order; with ``users``,
    only theirs, and the lines of other students are skipped unparsed. A cell
    that is not three integers within int64 raises ValueError naming the file
    and line."""
    user_ids: List[str] = []
    ends = [0]
    values = array("q")  # the s, q, y integers of every step: one flat int64 buffer
    to_int = _Memo(int).__getitem__
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            if users is not None and line.partition("\t")[0].rstrip("\n") not in users:
                continue
            user_id, _, cells = line.rstrip("\n").partition("\t")
            try:
                if not _SEQUENCE_LINE.fullmatch(line):
                    raise ValueError
                if cells:
                    values.extend(map(to_int, cells.replace("\t", ",").split(",")))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: line {line_number}: a step cell must hold s,q,y") from None
            user_ids.append(user_id)
            ends.append(len(values))
    skill, quiz, label = np.frombuffer(values, np.int64).reshape(-1, 3).T
    return StepTable(user_ids, np.array(ends, np.int64) // 3, skill, quiz, label)


def write_rejects(path: str | Path, rejects: Sequence[RejectedRow]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["line_number", "reason", "raw_row"])
        writer.writerows([rej.line_number, rej.reason, rej.raw] for rej in rejects)
