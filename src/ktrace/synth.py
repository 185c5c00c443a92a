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
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

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


class _Streams:
    """Every student's PCG64 output words in one flat array, read as numpy's
    ``Generator`` reads them, for many students at once.

    Student i's words come from ``words[i]`` and, once those run out, from
    ``reopen(i)``: a bit generator at the state ``words[i]`` was drawn from.
    For each student, ``random`` and ``integers`` return what
    ``Generator.random()`` and ``Generator.integers(0, k)`` would have
    returned from that state, called in the same order.
    """

    def __init__(self, words: List[np.ndarray], reopen: Callable[[int], np.random.BitGenerator]):
        sizes = np.fromiter(map(len, words), np.int64, len(words))
        self.raw = np.concatenate(words)
        self.next = np.cumsum(sizes) - sizes   # read position of each student in raw
        self.end = self.next + sizes
        self.drawn = sizes                      # words taken from each student's generator
        self.reopen = reopen
        # PCG64 hands out 32-bit values low half first and keeps the high
        # half for the next 32-bit request; only integers() makes those
        self.high = np.zeros(len(sizes), np.uint64)
        self.has_high = np.zeros(len(sizes), bool)

    def _words(self, rows: np.ndarray) -> np.ndarray:
        """The next word of each student in ``rows`` (distinct)."""
        spent = rows[self.next[rows] == self.end[rows]]
        if spent.size:
            self._top_up(spent)
        at = self.next[rows]
        self.next[rows] = at + 1
        return self.raw[at]

    def _top_up(self, rows: np.ndarray) -> None:
        more = []
        for i in rows.tolist():
            bits = self.reopen(i)
            bits.advance(int(self.drawn[i]))
            more.append(bits.random_raw(_TOP_UP))
        self.next[rows] = len(self.raw) + _TOP_UP * np.arange(len(rows))
        self.end[rows] = self.next[rows] + _TOP_UP
        self.drawn[rows] += _TOP_UP
        self.raw = np.concatenate([self.raw, *more])

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``Generator.random()``: the top 53 bits of one word."""
        return (self._words(rows) >> np.uint64(11)) * 2.0**-53

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        kept = self.has_high[rows]
        out = self.high[rows]
        fresh = rows[~kept]
        word = self._words(fresh)
        out[~kept] = word & _LOW32
        self.high[fresh] = word >> np.uint64(32)
        self.has_high[rows] = ~kept
        return out

    def integers(self, rows: np.ndarray, k: int) -> np.ndarray:
        """``Generator.integers(0, k)`` for 1 <= k <= 2**32: Lemire's bounded
        draw on 32-bit values (arXiv:1805.10941), redrawn while the low half
        of the product is below (2**32 - k) % k. k == 1 draws nothing."""
        if k == 1:
            return np.zeros(len(rows), np.int64)
        bound = np.uint64(k)
        threshold = np.uint64((2**32 - k) % k)
        product = self._uint32(rows) * bound
        redo = np.flatnonzero((product & _LOW32) < threshold)
        while redo.size:
            product[redo] = self._uint32(rows[redo]) * bound
            redo = redo[(product[redo] & _LOW32) < threshold]
        return (product >> np.uint64(32)).astype(np.int64)


_LOW32 = np.uint64(0xFFFFFFFF)
_TOP_UP = 64  # words drawn at once for a student whose words ran out


class _Params(NamedTuple):
    """A spec's per-skill probabilities as float64 arrays."""

    init: np.ndarray
    learn: np.ndarray
    guess: np.ndarray
    slip: np.ndarray

    @classmethod
    def of(cls, spec: GenerativeSpec) -> "_Params":
        values = (spec.p_init, spec.p_learn, spec.p_guess, spec.p_slip)
        return cls(*(np.array(v, np.float64) for v in values))


def _filter(
    belief: np.ndarray, rows: np.ndarray, s: np.ndarray, y: np.ndarray, par: _Params
) -> np.ndarray:
    """One forward-filter step of student ``rows[j]`` on skill ``s[j]``:
    returns P(correct) before the attempt and sets ``belief[rows, s]``, the
    P(learned) matrix, to the posterior after observing ``y`` and the
    learning transition. An observation of probability 0 keeps the belief."""
    learn, guess, slip = par.learn[s], par.guess[s], par.slip[s]
    b = belief[rows, s]
    hit = b * (1.0 - slip)
    p = hit + (1.0 - b) * guess
    num = np.where(y, hit, b * slip)
    den = np.where(y, p, num + (1.0 - b) * (1.0 - guess))
    post = np.divide(num, den, out=b, where=den > 0)
    belief[rows, s] = post + (1.0 - post) * learn
    return p


def oracle_probabilities(
    spec: GenerativeSpec, skills: Sequence[int], labels: Sequence[int]
) -> List[float]:
    """Exact forward-filtered P(correct | history) before each attempt of
    one student."""
    par = _Params.of(spec)
    belief = par.init[None, :].copy()
    one = np.zeros(1, np.int64)
    return [
        float(_filter(belief, one, np.array([s]), np.array([y]), par)[0])
        for s, y in zip(skills, labels)
    ]


def _student(
    spec: GenerativeSpec, i: int, init: np.ndarray
) -> Tuple[np.random.BitGenerator, int, np.ndarray]:
    """Student i's length and initial learned state, and its bit generator
    after those draws."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, i)))
    length = max(spec.min_length, int(rng.poisson(spec.mean_length)))
    return rng.bit_generator, length, rng.random(spec.k) < init


def generate(spec: GenerativeSpec) -> SynthCorpus:
    """Simulate hidden mastery per student and emit observations plus the
    Bayes-oracle probabilities, straight into one step table.

    Student i draws from its own generator, ``default_rng(SeedSequence(
    entropy=(seed, i)))``: first its length (``poisson``, at least
    ``min_length``) and its initial state (``random(k) < p_init``), then at
    each step the skill (``integers(0, k)``), the answer (``random() <
    p_correct``) and, only while that skill is unlearned, the learning draw
    (``random() < p_learn``). So the corpus is the same whatever the number
    or order of students. The students run in lock-step over the step
    index, each reading its own stream (``_Streams``), and the forward
    filter runs in the same loop.
    """
    n, k = spec.n_students, spec.k
    par = _Params.of(spec)
    lengths = np.empty(n, np.int64)
    learned = np.empty((n, k), bool)
    words = []
    for i in range(n):
        bits, lengths[i], learned[i] = _student(spec, i, par.init)
        # per step: half a word for the skill, one for the answer, at most
        # one for the learning draw; a few spare for Lemire's redraws
        words.append(bits.random_raw(2 * lengths[i] + (lengths[i] + 1) // 2 + 4))
    streams = _Streams(words, lambda i: _student(spec, i, par.init)[0])
    del words
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    skill = np.empty(offsets[-1], np.int64)
    label = np.empty(offsets[-1], np.int64)
    state = np.empty(offsets[-1], np.int8)
    oracle = np.empty(offsets[-1], np.float64)
    belief = np.tile(par.init, (n, 1))
    rows = np.arange(n)
    for t in range(int(lengths.max())):
        rows = rows[lengths[rows] > t]   # the students with a step t
        at = offsets[rows] + t
        s = streams.integers(rows, k)
        knows = learned[rows, s]
        y = streams.random(rows) < np.where(knows, 1.0 - par.slip[s], par.guess[s])
        learning, ls = rows[~knows], s[~knows]
        learned[learning, ls] = streams.random(learning) < par.learn[ls]
        skill[at], label[at], state[at] = s, y, knows
        oracle[at] = _filter(belief, rows, s, y, par)
    del streams, belief  # freed before the per-student lists are built
    width = len(str(n - 1))
    user_ids = [f"synth{i:0{width}d}" for i in range(n)]
    bounds = offsets.tolist()
    spans = list(zip(user_ids, bounds, bounds[1:]))
    return SynthCorpus(
        spec=spec,
        sequences=StepTable(user_ids, offsets, skill, skill, label),
        oracle={u: oracle[a:b].tolist() for u, a, b in spans},
        mastery={u: state[a:b].tolist() for u, a, b in spans},
    )


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
    """One student per line: user_id then the per-step oracle probabilities.
    The ``repr`` of each distinct value is built once and shared by its
    repeats: a forward filter reaches few beliefs."""
    table = corpus.sequences
    p = np.fromiter(chain.from_iterable(map(corpus.oracle.__getitem__, table.user_ids)), np.float64)
    # distinct bit patterns, so that -0.0 and 0.0 keep their own text
    bits, inverse = np.unique(p.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse.reshape(-1)]
    bounds = table.offsets.tolist()
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user_id, start, stop in zip(table.user_ids, bounds, bounds[1:]):
            fh.write("\t".join([user_id, *text[start:stop].tolist()]) + "\n")

