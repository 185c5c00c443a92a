"""Step tables for tests: build a ``StepTable`` from per-student step lists."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ktrace.ingest import StepTable, StudentSequence


def table_of(sequences: Iterable[StudentSequence]) -> StepTable:
    """The table of ``sequences``' (skill, quiz, correctness) steps, in order."""
    sequences = list(sequences)
    steps = np.array([step for seq in sequences for step in seq.steps], dtype=np.int64)
    skill, quiz, label = steps.reshape(-1, 3).T
    offsets = np.cumsum([0, *map(len, sequences)], dtype=np.int64)
    return StepTable([seq.user_id for seq in sequences], offsets, skill, quiz, label)
