"""Interaction-log ingestion.

Parses delimited tutoring logs, applies the preprocessing filters (single
skill only, minimum sequence length), builds ordered per-student sequences,
assigns dense vocabulary indices, and produces seeded student-level splits.
All steps are deterministic: student order is lexicographic on user_id,
within-student order breaks order_id ties by (order_id, problem_id, file row
index).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, TextIO, Tuple

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
class InteractionRecord:
    """One logged student attempt."""

    order_id: int
    user_id: str
    problem_id: str
    skill_raw: str   # raw skill-id field; may be empty or comma-separated
    skill_name: str
    correct: int
    row_index: int   # 1-based data-row number in the source file

    def sort_key(self) -> Tuple[int, str, int]:
        return (self.order_id, self.problem_id, self.row_index)


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    reason: str
    raw: str


@dataclass
class ParseResult:
    records: List[InteractionRecord]
    rejects: List[RejectedRow]
    duplicates_dropped: int = 0


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

    @property
    def labels(self) -> List[int]:
        return [y for _, _, y in self.steps]


@dataclass
class FilterReport:
    missing_skill: int = 0
    multi_skill: int = 0
    short_student_rows: int = 0
    short_students: int = 0
    kept_records: int = 0
    kept_students: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


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

    def to_json_dict(self) -> dict:
        return {
            "skill_ids": list(self.skill_ids),
            "quiz_ids": list(self.quiz_ids),
            "skill_names": list(self.skill_names),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Vocab":
        return cls(
            skill_ids=tuple(d["skill_ids"]),
            quiz_ids=tuple(d["quiz_ids"]),
            skill_names=tuple(d["skill_names"]),
        )


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

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# parsing


def _parse_correct(value: str) -> int:
    v = float(value)
    if v not in (0.0, 1.0):
        raise ValueError(f"correct must be 0 or 1, got {value!r}")
    return int(v)


def parse_interactions(
    source: TextIO | Iterable[str],
    columns: Mapping[str, str] | None = None,
    delimiter: str = ",",
) -> ParseResult:
    """Read a delimited log with a header row into interaction records.

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

    records: List[InteractionRecord] = []
    rejects: List[RejectedRow] = []
    seen: set = set()
    duplicates = 0

    for row_index, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        line_number = row_index + 1  # header is line 1
        # digest instead of the raw tuple keeps memory flat on wide files
        key = hashlib.blake2b("\x1f".join(row).encode("utf-8"), digest_size=16).digest()
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)

        def cell(name: str) -> str:
            pos = positions[name]
            return row[pos].strip() if pos < len(row) else ""

        user_id = cell("user_id")
        if not user_id:
            rejects.append(RejectedRow(line_number, "missing user_id", delimiter.join(row)))
            continue
        try:
            order_id = int(float(cell("order_id")))
        except ValueError:
            rejects.append(RejectedRow(line_number, "bad order_id", delimiter.join(row)))
            continue
        try:
            correct = _parse_correct(cell("correct"))
        except ValueError:
            rejects.append(RejectedRow(line_number, "bad correct", delimiter.join(row)))
            continue

        records.append(
            InteractionRecord(
                order_id=order_id,
                user_id=user_id,
                problem_id=cell("problem_id"),
                skill_raw=cell("skill_id"),
                skill_name=cell("skill_name"),
                correct=correct,
                row_index=row_index,
            )
        )

    return ParseResult(records=records, rejects=rejects, duplicates_dropped=duplicates)


# ---------------------------------------------------------------------------
# filtering and ordering


def filter_and_order(
    records: Sequence[InteractionRecord],
) -> Tuple[List[StudentSequence], FilterReport]:
    """Apply the preprocessing filters and build ordered raw-id sequences.

    Drops rows with an empty skill field, rows whose skill field holds a
    comma-separated list (multi-skill items), and students left with fewer
    than three interactions. The surviving rows are grouped per student and
    sorted by (order_id, problem_id, row_index).
    """
    report = FilterReport()
    by_user: Dict[str, List[InteractionRecord]] = {}
    for rec in records:
        if not rec.skill_raw:
            report.missing_skill += 1
            continue
        if "," in rec.skill_raw:
            report.multi_skill += 1
            continue
        by_user.setdefault(rec.user_id, []).append(rec)

    sequences: List[StudentSequence] = []
    for user_id in sorted(by_user):
        rows = sorted(by_user[user_id], key=InteractionRecord.sort_key)
        if len(rows) < MIN_INTERACTIONS:
            report.short_students += 1
            report.short_student_rows += len(rows)
            continue
        steps = [(r.skill_raw, r.problem_id, r.correct) for r in rows]
        sequences.append(StudentSequence(user_id=user_id, steps=steps))

    report.kept_students = len(sequences)
    report.kept_records = sum(len(s) for s in sequences)
    return sequences, report


def collect_skill_names(records: Sequence[InteractionRecord]) -> Dict[str, str]:
    """First non-empty display name per raw skill id, in deterministic
    (user, order, problem, row) traversal order."""
    names: Dict[str, str] = {}
    for rec in sorted(records, key=lambda r: (r.user_id,) + r.sort_key()):
        if not rec.skill_raw or "," in rec.skill_raw:
            continue
        if rec.skill_name and not names.get(rec.skill_raw):
            names[rec.skill_raw] = rec.skill_name
    return names


# ---------------------------------------------------------------------------
# vocabulary


def build_vocab(
    sequences: Sequence[StudentSequence],
    skill_names: Mapping[str, str] | None = None,
) -> Vocab:
    """Assign dense zero-based indices in first-appearance order over the
    user_id-sorted student list. Rebuilding from identical input yields an
    identical Vocab."""
    if not sequences:
        raise ValueError("build_vocab: no sequences")
    skills: Dict[str, int] = {}
    quizzes: Dict[str, int] = {}
    for seq in sorted(sequences, key=lambda s: s.user_id):
        for skill, quiz, _ in seq.steps:
            if skill not in skills:
                skills[skill] = len(skills)
            if quiz not in quizzes:
                quizzes[quiz] = len(quizzes)
    skill_ids = tuple(skills)
    names = skill_names or {}
    return Vocab(
        skill_ids=skill_ids,
        quiz_ids=tuple(quizzes),
        skill_names=tuple(names.get(s) or str(s) for s in skill_ids),
    )


def index_sequences(sequences: Sequence[StudentSequence], vocab: Vocab) -> List[StudentSequence]:
    """Convert raw-id sequences to dense-index sequences."""
    out: List[StudentSequence] = []
    for seq in sequences:
        steps = [
            (vocab.skill_to_index[s], vocab.quiz_to_index[q], y) for s, q, y in seq.steps
        ]
        out.append(StudentSequence(user_id=seq.user_id, steps=steps))
    return out


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


def split_students(
    sequences: Sequence[StudentSequence],
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Student-level split: deterministic seeded shuffle of the sorted user
    list, then a contiguous partition by ratio."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
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


def summarize(data: "Sequence[StudentSequence] | DatasetSplit") -> DatasetStats:
    """Record/student/quiz/skill counts and per-entity interaction means.

    A DatasetSplit is summarized over all of its partitions pooled; use
    summarize_split for the per-partition view.
    """
    if isinstance(data, DatasetSplit):
        sequences: List[StudentSequence] = [
            s for part in data.partitions().values() for s in part
        ]
    else:
        sequences = list(data)
    n_records = sum(len(s) for s in sequences)
    if n_records == 0:
        return DatasetStats()
    quizzes = set()
    skills = set()
    n_correct = 0
    for seq in sequences:
        for s, q, y in seq.steps:
            skills.add(s)
            quizzes.add(q)
            n_correct += y
    n_students = len(sequences)
    return DatasetStats(
        n_records=n_records,
        n_students=n_students,
        n_quizzes=len(quizzes),
        n_skills=len(skills),
        avg_per_student=n_records / n_students,
        avg_per_quiz=n_records / len(quizzes),
        avg_per_skill=n_records / len(skills),
        n_correct=n_correct,
        n_incorrect=n_records - n_correct,
    )


def summarize_split(split: DatasetSplit) -> Dict[str, DatasetStats]:
    """Per-partition statistics keyed train/val/test."""
    return {name: summarize(part) for name, part in split.partitions().items()}


def summarize_records(records: Sequence[InteractionRecord]) -> DatasetStats:
    """Stats over raw parsed records (the pre-filter view). Comma-separated
    skill cells contribute each component id to the distinct-skill count."""
    if not records:
        return DatasetStats()
    users = set()
    quizzes = set()
    skills = set()
    n_correct = 0
    for rec in records:
        users.add(rec.user_id)
        quizzes.add(rec.problem_id)
        for part in rec.skill_raw.split(","):
            part = part.strip()
            if part:
                skills.add(part)
        n_correct += rec.correct
    n = len(records)
    return DatasetStats(
        n_records=n,
        n_students=len(users),
        n_quizzes=len(quizzes),
        n_skills=len(skills),
        avg_per_student=n / len(users),
        avg_per_quiz=n / len(quizzes) if quizzes else 0.0,
        avg_per_skill=n / len(skills) if skills else 0.0,
        n_correct=n_correct,
        n_incorrect=n - n_correct,
    )


# ---------------------------------------------------------------------------
# canonical sequence file


def write_sequences(path: str | Path, sequences: Sequence[StudentSequence]) -> None:
    """One student per line: user_id, then tab-separated s,q,y triplets."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in sequences:
            cells = [seq.user_id] + [f"{s},{q},{y}" for s, q, y in seq.steps]
            fh.write("\t".join(cells) + "\n")


def read_sequences(path: str | Path) -> List[StudentSequence]:
    out: List[StudentSequence] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            steps = []
            for cell in cells[1:]:
                s, q, y = cell.split(",")
                steps.append((int(s), int(q), int(y)))
            out.append(StudentSequence(user_id=cells[0], steps=steps))
    return out


def write_rejects(path: str | Path, rejects: Sequence[RejectedRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["line_number", "reason", "raw_row"])
        for rej in rejects:
            writer.writerow([rej.line_number, rej.reason, rej.raw])
