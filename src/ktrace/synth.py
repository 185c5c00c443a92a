"""Synthetic learner corpora from a known two-state generative process.

Each skill is a hidden learned/unlearned state with learn, guess, and slip
parameters and no forgetting. Alongside the observations we emit the exact
conditional probability P(correct | history) from forward filtering: the
Bayes oracle, which upper-bounds the AUC any trained predictor can approach
in expectation. Used as the ground-truth harness for acceptance testing of
both the trainer and the evaluation battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .ingest import StepTable, StudentSequence, atomic_open
from .records import Predictions, step_rows

Params = Union[float, Sequence[float]]


def _broadcast(value: Params, k: int, name: str) -> Tuple[float, ...]:
    if isinstance(value, (int, float)):
        values = (float(value),) * k
    else:
        values = tuple(float(v) for v in value)
        if len(values) != k:
            raise ValueError(f"{name}: expected {k} values, got {len(values)}")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}: probability {v} outside [0, 1]")
    return values


@dataclass(frozen=True)
class GenerativeSpec:
    """Per-skill learn/guess/slip process over K skills.

    Guess and slip must stay below 0.5 so the mastered and unmastered
    response distributions remain separable.
    """

    k: int
    n_students: int
    p_init: Params = 0.3
    p_learn: Params = 0.15
    p_guess: Params = 0.2
    p_slip: Params = 0.1
    mean_length: float = 40.0
    min_length: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_students < 1:
            raise ValueError("n_students must be >= 1")
        if self.mean_length < self.min_length:
            raise ValueError("mean_length must be >= min_length")
        for name in ("p_init", "p_learn", "p_guess", "p_slip"):
            object.__setattr__(self, name, _broadcast(getattr(self, name), self.k, name))
        for g, s in zip(self.p_guess, self.p_slip):
            if g >= 0.5 or s >= 0.5:
                raise ValueError("p_guess and p_slip must be < 0.5")


@dataclass
class SynthCorpus:
    spec: GenerativeSpec
    sequences: StepTable                       # quiz index equals skill index
    oracle: Dict[str, List[float]]             # P(correct | history) per step
    mastery: Dict[str, List[int]]              # latent state at response time

    def skill_names(self) -> List[str]:
        return [f"Skill {i}" for i in range(self.spec.k)]


def _filter_step(
    belief: float, y: int, p_learn: float, p_guess: float, p_slip: float
) -> float:
    """Posterior over the learned state after observing y, then the learning
    transition. ``belief`` is P(learned) before the attempt."""
    if y == 1:
        num = belief * (1.0 - p_slip)
        den = num + (1.0 - belief) * p_guess
    else:
        num = belief * p_slip
        den = num + (1.0 - belief) * (1.0 - p_guess)
    post = num / den if den > 0 else belief
    return post + (1.0 - post) * p_learn


def predictive_prob(belief: float, p_guess: float, p_slip: float) -> float:
    return belief * (1.0 - p_slip) + (1.0 - belief) * p_guess


def oracle_probabilities(
    spec: GenerativeSpec, skills: Sequence[int], labels: Sequence[int]
) -> List[float]:
    """Exact forward-filtered P(correct | history) before each attempt."""
    belief = list(spec.p_init)
    probs: List[float] = []
    for s, y in zip(skills, labels):
        probs.append(predictive_prob(belief[s], spec.p_guess[s], spec.p_slip[s]))
        belief[s] = _filter_step(
            belief[s], y, spec.p_learn[s], spec.p_guess[s], spec.p_slip[s]
        )
    return probs


def generate(spec: GenerativeSpec) -> SynthCorpus:
    """Simulate hidden mastery per student and emit observations plus the
    Bayes-oracle probabilities. Per-student derived seeds keep generation
    embarrassingly parallel in principle and deterministic in any order.
    The students' steps go straight into one step table."""
    all_skills: List[int] = []
    all_labels: List[int] = []
    oracle: Dict[str, List[float]] = {}
    mastery: Dict[str, List[int]] = {}
    width = len(str(spec.n_students - 1))
    for i in range(spec.n_students):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, i)))
        length = max(spec.min_length, int(rng.poisson(spec.mean_length)))
        state = rng.random(spec.k) < np.array(spec.p_init)
        skills: List[int] = []
        labels: List[int] = []
        states: List[int] = []
        for _ in range(length):
            s = int(rng.integers(0, spec.k))
            learned = bool(state[s])
            p_correct = (1.0 - spec.p_slip[s]) if learned else spec.p_guess[s]
            y = int(rng.random() < p_correct)
            skills.append(s)
            labels.append(y)
            states.append(int(learned))
            if not learned and rng.random() < spec.p_learn[s]:
                state[s] = True
        user_id = f"synth{i:0{width}d}"
        all_skills += skills
        all_labels += labels
        oracle[user_id] = oracle_probabilities(spec, skills, labels)
        mastery[user_id] = states
    skill = np.array(all_skills, dtype=np.int64)
    offsets = np.cumsum([0, *map(len, mastery.values())], dtype=np.int64)
    table = StepTable(list(mastery), offsets, skill, skill, np.array(all_labels, dtype=np.int64))
    return SynthCorpus(spec=spec, sequences=table, oracle=oracle, mastery=mastery)


def oracle_records(corpus: SynthCorpus, sequences: Iterable[StudentSequence]) -> Predictions:
    """Oracle probabilities of ``sequences`` (students of ``corpus``, as a
    table or a list) in the shared dump schema, at next-step positions
    t = 1..T-1: each student's t = 0 position has no target in a next-step
    prediction dump, so it is dropped and the rows line up with the
    trainer's and the probe's. Noise-free specs can produce exact 0/1
    probabilities, nudged inside the open interval the schema requires.
    """
    sequences = list(sequences)
    steps = np.array([step for seq in sequences for step in seq.steps], np.int64).reshape(-1, 3)
    probs = np.fromiter(
        chain.from_iterable(corpus.oracle[seq.user_id][1:] for seq in sequences), np.float64
    )
    return step_rows(
        [seq.user_id for seq in sequences], [len(seq) for seq in sequences],
        steps[:, 0], steps[:, 2], probs, "oracle", first_step=1,
    )


def oracle_auc(corpus: SynthCorpus, sequences: Iterable[StudentSequence]) -> float:
    """AUC the Bayes oracle achieves on the next-step positions of
    ``sequences`` (``oracle_records``): the ceiling any predictor can
    approach there in expectation."""
    from .evaluation import roc_auc

    return roc_auc(oracle_records(corpus, sequences)).auc


def write_oracle_sidecar(path: str | Path, corpus: SynthCorpus) -> None:
    """One student per line: user_id then the per-step oracle probabilities."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user_id in corpus.sequences.user_ids:
            fh.write("\t".join([user_id] + [repr(p) for p in corpus.oracle[user_id]]) + "\n")

