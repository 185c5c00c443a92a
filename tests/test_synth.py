from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from ktrace import synth
from ktrace.ingest import StudentSequence
from ktrace.synth import (
    GenerativeSpec,
    SynthCorpus,
    _Streams,
    generate,
    oracle_auc,
    oracle_probabilities,
    oracle_records,
    write_oracle_sidecar,
)

from predtable import rows_of
from steptable import table_of

REFERENCE_SPEC = GenerativeSpec(
    k=5,
    p_init=0.3,
    p_learn=0.15,
    p_guess=0.2,
    p_slip=0.1,
    n_students=2000,
    mean_length=40.0,
    seed=7,
)

# AUC of the forward-filter oracle on the reference corpus, computed once
# from this exact spec and frozen (see test_reference_spec_oracle_auc_pinned).
REFERENCE_ORACLE_AUC = 0.7835994626626869


def enumerate_paths_prob(
    p_init: float, p_learn: float, p_guess: float, p_slip: float, labels
) -> list:
    """Independent oracle: exhaustive enumeration over all 2^n hidden-state
    paths of one skill. Returns P(correct at t | labels before t)."""
    n = len(labels)
    probs = []
    for t in range(n):
        num = 0.0
        den = 0.0
        for path in itertools.product((0, 1), repeat=t + 1):
            prior = p_init if path[0] else 1.0 - p_init
            for a, b in zip(path, path[1:]):
                if a == 1:
                    prior *= 1.0 if b == 1 else 0.0
                else:
                    prior *= p_learn if b == 1 else 1.0 - p_learn
            if prior == 0.0:
                continue
            like = 1.0
            for i in range(t):
                p_correct = (1.0 - p_slip) if path[i] else p_guess
                like *= p_correct if labels[i] == 1 else 1.0 - p_correct
            emit = (1.0 - p_slip) if path[t] else p_guess
            num += prior * like * emit
            den += prior * like
        probs.append(num / den)
    return probs


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        GenerativeSpec(k=2, p_init=1.2, p_learn=0.1, p_guess=0.1, p_slip=0.1,
                       n_students=5, mean_length=10)
    with pytest.raises(ValueError, match="< 0.5"):
        GenerativeSpec(k=2, p_init=0.5, p_learn=0.1, p_guess=0.6, p_slip=0.1,
                       n_students=5, mean_length=10)
    with pytest.raises(ValueError, match="< 0.5"):
        GenerativeSpec(k=2, p_init=0.5, p_learn=0.1, p_guess=0.1, p_slip=0.5,
                       n_students=5, mean_length=10)


def test_spec_broadcasts_scalars_per_skill():
    spec = GenerativeSpec(k=3, p_init=0.3, p_learn=0.1, p_guess=0.2, p_slip=0.05,
                          n_students=2, mean_length=6)
    assert spec.p_init == (0.3, 0.3, 0.3)
    assert len(spec.p_guess) == 3


# ---------------------------------------------------------------------------
# degenerate analytic cases


def test_always_mastered_noise_free_is_all_correct():
    spec = GenerativeSpec(k=2, p_init=1.0, p_learn=0.0, p_guess=0.0, p_slip=0.0,
                          n_students=10, mean_length=8, seed=1)
    corpus = generate(spec)
    for seq in corpus.sequences:
        assert all(y == 1 for _, _, y in seq.steps)
        assert all(p == 1.0 for p in corpus.oracle[seq.user_id])


def test_never_learning_guesser_has_flat_oracle():
    spec = GenerativeSpec(k=2, p_init=0.0, p_learn=0.0, p_guess=0.2, p_slip=0.0,
                          n_students=10, mean_length=8, seed=2)
    corpus = generate(spec)
    for seq in corpus.sequences:
        assert all(p == pytest.approx(0.2, abs=1e-15) for p in corpus.oracle[seq.user_id])


# ---------------------------------------------------------------------------
# forward filter vs path enumeration


def test_forward_filter_matches_path_enumeration_single_skill():
    rng = np.random.default_rng(3)
    for _ in range(15):
        p_init, p_learn = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
        p_guess, p_slip = rng.uniform(0.01, 0.45), rng.uniform(0.01, 0.45)
        n = int(rng.integers(1, 11))
        labels = rng.integers(0, 2, size=n).tolist()
        spec = GenerativeSpec(k=1, p_init=p_init, p_learn=p_learn, p_guess=p_guess,
                              p_slip=p_slip, n_students=1, mean_length=4, min_length=1)
        got = oracle_probabilities(spec, [0] * n, labels)
        expected = enumerate_paths_prob(p_init, p_learn, p_guess, p_slip, labels)
        assert got == pytest.approx(expected, abs=1e-12)


def test_forward_filter_matches_enumeration_per_skill_multi():
    rng = np.random.default_rng(4)
    spec = GenerativeSpec(k=3, p_init=(0.2, 0.5, 0.8), p_learn=(0.3, 0.1, 0.2),
                          p_guess=(0.1, 0.2, 0.3), p_slip=(0.05, 0.1, 0.2),
                          n_students=1, mean_length=4, min_length=1)
    skills = rng.integers(0, 3, size=10).tolist()
    labels = rng.integers(0, 2, size=10).tolist()
    got = oracle_probabilities(spec, skills, labels)
    # skills are independent in the generator: enumerate each skill's
    # subsequence separately and interleave
    for skill in range(3):
        idx = [t for t, s in enumerate(skills) if s == skill]
        sub_labels = [labels[t] for t in idx]
        expected = enumerate_paths_prob(
            spec.p_init[skill], spec.p_learn[skill],
            spec.p_guess[skill], spec.p_slip[skill], sub_labels,
        )
        for pos, t in enumerate(idx):
            assert got[t] == pytest.approx(expected[pos], abs=1e-12)


# ---------------------------------------------------------------------------
# generation properties


def test_generation_is_seed_deterministic():
    spec = GenerativeSpec(k=3, p_init=0.3, p_learn=0.2, p_guess=0.2, p_slip=0.1,
                          n_students=20, mean_length=12, seed=9)
    a, b = generate(spec), generate(spec)
    assert [(s.user_id, s.steps) for s in a.sequences] == [
        (s.user_id, s.steps) for s in b.sequences
    ]
    assert a.oracle == b.oracle


def test_lengths_respect_minimum():
    spec = GenerativeSpec(k=2, p_init=0.3, p_learn=0.2, p_guess=0.2, p_slip=0.1,
                          n_students=50, mean_length=5, min_length=4, seed=10)
    corpus = generate(spec)
    assert all(len(s) >= 4 for s in corpus.sequences)


def test_empirical_rate_matches_oracle_mean_within_3_sigma():
    spec = GenerativeSpec(k=4, p_init=0.4, p_learn=0.15, p_guess=0.25, p_slip=0.1,
                          n_students=400, mean_length=30, seed=11)
    corpus = generate(spec)
    probs = np.concatenate([np.array(corpus.oracle[s.user_id]) for s in corpus.sequences])
    labels = np.concatenate([np.array(s.steps)[:, 2] for s in corpus.sequences])
    sigma = float(np.sqrt((probs * (1 - probs)).sum())) / len(probs)
    assert abs(labels.mean() - probs.mean()) <= 3 * sigma


def test_mastery_trace_is_monotone_per_skill():
    spec = GenerativeSpec(k=2, p_init=0.2, p_learn=0.4, p_guess=0.1, p_slip=0.1,
                          n_students=30, mean_length=15, seed=12)
    corpus = generate(spec)
    for seq in corpus.sequences:
        last = {}
        for (skill, _, _), state in zip(seq.steps, corpus.mastery[seq.user_id]):
            if skill in last:
                assert state >= last[skill]  # no forgetting
            last[skill] = state


# Digests of generate's step table, oracle and mastery, frozen from the
# per-step scalar generator: any change to a draw, its order or the filter
# arithmetic changes them.
PINNED_CORPORA = {
    "reference": (
        REFERENCE_SPEC,
        "e415b2bf7fd0298765ece3b612f708a95ad9493c258b971cf3e887c16f5aa147",
    ),
    "k1": (
        GenerativeSpec(k=1, n_students=40, mean_length=3, min_length=1, seed=5),
        "5ef0e9da7b32207608087801f12d7aeed0abc4ca0f050046ff739410b4056995",
    ),
    "k3-per-skill": (
        GenerativeSpec(k=3, p_init=(0.2, 0.5, 0.8), p_learn=(0.3, 0.1, 0.2),
                       p_guess=(0.1, 0.2, 0.3), p_slip=(0.05, 0.1, 0.2),
                       n_students=60, mean_length=12, seed=3),
        "8e3a68f6a16cf35e1f0b2d975020d2e58901223bd0b2377d3f3f0b7976462ecb",
    ),
    "k149": (
        GenerativeSpec(k=149, n_students=300, mean_length=56, seed=1),
        "c7913649e047a8016fb917b134c385cff8f424083de2bca13325e77b4570d7ad",
    ),
    "always-mastered": (
        GenerativeSpec(k=2, p_init=1.0, p_learn=0.0, p_guess=0.0, p_slip=0.0,
                       n_students=10, mean_length=8, seed=1),
        "2a03bba3ff467f8a66ab9b2a4bf0e623f9788f1b953806c118bea03db7cf361e",
    ),
    "learn-at-once": (
        GenerativeSpec(k=2, p_init=0.0, p_learn=1.0, p_guess=0.0, p_slip=0.0,
                       n_students=30, mean_length=8, seed=13),
        "3af1daddca1827b424cc15acd90167dcc91a8f07ef3cc508aa489ed807066555",
    ),
}


def corpus_digest(corpus) -> str:
    table = corpus.sequences
    h = hashlib.sha256("\n".join(table.user_ids).encode())
    for column in (table.offsets, table.skill, table.quiz, table.label):
        h.update(np.asarray(column, "<i8").tobytes())
    for user_id in table.user_ids:
        h.update(np.asarray(corpus.oracle[user_id], "<f8").tobytes())
        h.update(np.asarray(corpus.mastery[user_id], "<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CORPORA))
def test_generated_corpus_is_pinned(name):
    spec, digest = PINNED_CORPORA[name]
    corpus = generate(spec)
    table = corpus.sequences
    assert all(col.dtype == np.int64 for col in (table.offsets, table.skill, table.label))
    user_id = table.user_ids[0]
    assert {type(p) for p in corpus.oracle[user_id]} == {float}
    assert {type(m) for m in corpus.mastery[user_id]} == {int}
    assert corpus_digest(corpus) == digest


def test_generate_tops_up_students_whose_words_run_out(monkeypatch):
    class OneWordEach(_Streams):
        def __init__(self, words, reopen):
            super().__init__([w[:1] for w in words], reopen)

    monkeypatch.setattr(synth, "_Streams", OneWordEach)
    spec, digest = PINNED_CORPORA["k3-per-skill"]
    assert corpus_digest(generate(spec)) == digest


# ---------------------------------------------------------------------------
# stream emulation


@pytest.mark.parametrize("k", [1, 2, 5, 149, 3_000_000_000])
def test_streams_draw_what_each_students_generator_draws(k):
    # the students start with 0, 1, 3 and 400 words: the first three run out
    # and top up from their own generators
    seeds = [np.random.SeedSequence(entropy=(k, i)) for i in range(4)]
    streams = _Streams(
        [np.random.PCG64(ss).random_raw(n) for ss, n in zip(seeds, (0, 1, 3, 400))],
        lambda i: np.random.PCG64(seeds[i]),
    )
    twins = [np.random.default_rng(ss) for ss in seeds]
    plan = np.random.default_rng(k % 1000)
    n_random = np.zeros(4, np.int64)
    n_integers = np.zeros(4, np.int64)
    for _ in range(300):
        rows = np.flatnonzero(plan.random(4) < 0.7)
        if plan.random() < 0.5:
            got = streams.integers(rows, k)
            want = [twins[i].integers(0, k) for i in rows]
            n_integers[rows] += 1
        else:
            got = streams.random(rows)
            want = [twins[i].random() for i in rows]
            n_random[rows] += 1
        assert got.tolist() == want
    assert streams.raw.dtype == streams.high.dtype == np.uint64
    # a word serves one random() or two 32-bit values, the second kept for
    # the next integers(); k = 1 takes none, and a Lemire redraw one more
    used = streams.drawn - (streams.end - streams.next)
    values = 2 * (used - n_random) - streams.has_high
    if k == 3_000_000_000:  # about 30% of the draws are redrawn
        assert (values - n_integers).sum() > 0.2 * n_integers.sum()
    else:
        assert values.tolist() == (n_integers if k > 1 else 0 * n_integers).tolist()


def test_impossible_observation_keeps_the_belief():
    # p_guess 0 and belief 0: a correct answer has probability 0; the belief
    # stays 0 and only the learning transition moves it
    spec = GenerativeSpec(k=1, p_init=0.0, p_learn=0.5, p_guess=0.0, p_slip=0.1,
                          n_students=1, mean_length=2, min_length=1)
    assert oracle_probabilities(spec, [0, 0], [1, 1]) == [0.0, 0.5 * (1.0 - 0.1)]


# ---------------------------------------------------------------------------
# oracle AUC


def test_fully_deterministic_process_has_auc_one():
    spec = GenerativeSpec(k=2, p_init=0.0, p_learn=1.0, p_guess=0.0, p_slip=0.0,
                          n_students=30, mean_length=8, seed=13)
    corpus = generate(spec)
    assert oracle_auc(corpus, corpus.sequences) == pytest.approx(1.0)


def test_symmetric_noise_auc_strictly_between_half_and_one():
    spec = GenerativeSpec(k=2, p_init=0.5, p_learn=0.2, p_guess=0.2, p_slip=0.2,
                          n_students=200, mean_length=20, seed=14)
    corpus = generate(spec)
    auc = oracle_auc(corpus, corpus.sequences)
    assert 0.5 < auc < 1.0


def test_reference_spec_oracle_auc_pinned():
    corpus = generate(REFERENCE_SPEC)
    assert oracle_auc(corpus, corpus.sequences) == pytest.approx(REFERENCE_ORACLE_AUC, abs=1e-9)


# ---------------------------------------------------------------------------
# interchange formats


def test_oracle_records_skip_first_counts():
    spec = GenerativeSpec(k=2, p_init=0.3, p_learn=0.2, p_guess=0.2, p_slip=0.1,
                          n_students=5, mean_length=6, seed=15)
    corpus = generate(spec)
    records = oracle_records(corpus, corpus.sequences)
    assert len(records) == sum(len(s) - 1 for s in corpus.sequences)
    assert all(r.step >= 1 for r in rows_of(records))


def test_oracle_records_of_a_table_equal_those_of_its_student_list():
    # `synth` passes its test split as a step table, perfbench a list of its students
    spec = GenerativeSpec(k=3, n_students=12, mean_length=7, seed=4)
    corpus = generate(spec)
    table = corpus.sequences.take(np.array([5, 0, 11, 3]))
    from_table = oracle_records(corpus, table)
    from_list = oracle_records(corpus, list(table))
    assert len(from_table) == sum(len(s) - 1 for s in table)
    for got, want in zip(from_table.columns(), from_list.columns(), strict=True):
        assert np.array_equal(got, want)


def test_oracle_records_from_noise_free_spec_survive_dump_round_trip(tmp_path):
    from ktrace.records import read_prediction_dump, write_prediction_dump

    spec = GenerativeSpec(k=2, p_init=1.0, p_learn=0.0, p_guess=0.0, p_slip=0.0,
                          n_students=4, mean_length=6, seed=20)
    corpus = generate(spec)
    records = oracle_records(corpus, corpus.sequences)
    assert all(0.0 < r.p < 1.0 for r in rows_of(records))
    path = tmp_path / "oracle.csv"
    write_prediction_dump(path, records)
    assert rows_of(read_prediction_dump(path)) == rows_of(records)


def test_oracle_sidecar_round_trip(tmp_path):
    spec = GenerativeSpec(k=2, p_init=0.3, p_learn=0.2, p_guess=0.2, p_slip=0.1,
                          n_students=5, mean_length=6, seed=16)
    corpus = generate(spec)
    path = tmp_path / "oracle.tsv"
    write_oracle_sidecar(path, corpus)
    lines = path.read_text(encoding="utf-8").splitlines()
    loaded = {user: [float(p) for p in probs] for user, *probs in (line.split("\t") for line in lines)}
    assert loaded == corpus.oracle


SIDECAR_CORPORA = {
    "reference": REFERENCE_SPEC,
    "always-mastered": GenerativeSpec(k=2, p_init=1.0, p_learn=0.0, p_guess=0.0, p_slip=0.0,
                                      n_students=10, mean_length=8, seed=1),
    "never-learning-guesser": GenerativeSpec(k=2, p_init=0.0, p_learn=0.0, p_guess=0.2, p_slip=0.0,
                                             n_students=10, mean_length=8, seed=2),
    "k1": GenerativeSpec(k=1, n_students=40, mean_length=3, min_length=1, seed=5),
    "one-student": GenerativeSpec(k=3, n_students=1, mean_length=9, seed=11),
}


def sidecar_text(corpus) -> str:
    return "".join(
        "\t".join([u] + [repr(p) for p in corpus.oracle[u]]) + "\n" for u in corpus.sequences.user_ids
    )


@pytest.mark.parametrize("name", sorted(SIDECAR_CORPORA))
def test_oracle_sidecar_bytes_are_each_probabilitys_repr(tmp_path, name):
    corpus = generate(SIDECAR_CORPORA[name])
    path = tmp_path / "oracle.tsv"
    write_oracle_sidecar(path, corpus)
    assert path.read_bytes() == sidecar_text(corpus).encode()


def test_oracle_sidecar_keeps_signed_zeros_and_nan_apart(tmp_path):
    nan_payload = float(np.array([0x7FF8000000000001], np.int64).view(np.float64)[0])
    oracle = {"a": [0.0, -0.0, 0.5, math.nan], "b": [], "c": [-0.0, nan_payload, 0.0, 0.5]}
    table = table_of(StudentSequence(u, [(0, 0, 1)] * len(p)) for u, p in oracle.items())
    corpus = SynthCorpus(spec=GenerativeSpec(k=1, n_students=3), sequences=table, oracle=oracle, mastery={})
    path = tmp_path / "oracle.tsv"
    write_oracle_sidecar(path, corpus)
    assert path.read_text(encoding="utf-8") == "a\t0.0\t-0.0\t0.5\tnan\nb\nc\t-0.0\tnan\t0.0\t0.5\n"
    assert path.read_text(encoding="utf-8") == sidecar_text(corpus)
