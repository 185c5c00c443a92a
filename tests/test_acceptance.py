"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criterion 5 needs the external interaction log and is
skipped unless KTRACE_ASSISTMENTS_CSV points at it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ktrace import dkt, evaluation, llmprobe, nncore, synth
from ktrace.cli import main
from ktrace.ingest import StudentSequence, Vocab, split_students

from mockllm import MockLLMServer, logits_from_prompt
from predtable import predictions_of, rows_of
from steptable import table_of
from test_synth import REFERENCE_SPEC


@contextlib.contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {number}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance {number}] {name}: PASS ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its runtime budget"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity", limit_s=10.0):
        rng = np.random.default_rng(0)
        k, b, t = 5, 2, 6
        net = nncore.init_net(2 * k, 3, 4, k, seed=17)
        x_idx = rng.integers(0, 2 * k, size=(b, t))
        s_next = rng.integers(0, k, size=(b, t))
        y_next = rng.integers(0, 2, size=(b, t)).astype(np.float64)
        w = np.ones((b, t))
        w[:, -1] = 0.0
        w[1, :2] = 0.0
        assert x_idx.dtype.kind == "i" and y_next.dtype == np.float64
        err = nncore.grad_check(net, x_idx, s_next, y_next, w, eps=1e-5)
        assert err < 1e-4, f"max relative error {err:.3e}"


# ---------------------------------------------------------------------------
# 2. encoding and mask correctness


def test_criterion_2_encoding_and_mask():
    with criterion(2, "encoding/mask correctness", limit_s=5.0):
        # exhaustive round-trip at K=149
        k = 149
        tokens = set()
        for s in range(k):
            for y in (0, 1):
                x = dkt.encode_step(s, y, k)
                assert divmod(x, k) == (y, s)
                tokens.add(x)
        assert tokens == set(range(2 * k))

        # masked-loss bit-invariance to perturbations at W=0 positions
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=(4, 7))
        y = rng.integers(0, 2, size=(4, 7)).astype(np.float64)
        w = rng.integers(0, 2, size=(4, 7)).astype(np.float64)
        w[0, 0] = 1.0
        base = nncore.masked_bce(p, y, w)
        for value in (0.0, 1.0, -3.0, 7.5, np.nan):
            q = p.copy()
            q[w == 0] = value
            assert nncore.masked_bce(q, y, w) == base

        # mask count equals sum(T_i - 1) over 1,000 random sequence sets
        for _ in range(1000):
            kk = int(rng.integers(2, 12))
            n = int(rng.integers(1, 7))
            seqs = []
            for i in range(n):
                t_len = int(rng.integers(2, 13))
                steps = [
                    (int(rng.integers(0, kk)), 0, int(rng.integers(0, 2)))
                    for _ in range(t_len)
                ]
                seqs.append(StudentSequence(user_id=f"u{i}", steps=steps))
            batch = dkt.build_batch(table_of(seqs), kk, max_t=16)
            assert batch.w.sum() == sum(batch.lengths - 1)
            assert batch.w.sum() == sum(len(s) - 1 for s in seqs)


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence


def test_criterion_3_metric_oracles():
    with criterion(3, "metric oracle equivalence", limit_s=30.0):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(10, 501))
            scores = np.round(rng.random(n), 2)  # ties guaranteed
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            records = predictions_of(
                (f"u{i}", i, 0, int(y), float(p), "m")
                for i, (p, y) in enumerate(zip(scores, labels))
            )
            analysis = evaluation.roc_auc(records)

            # O(n^2) pairwise oracle
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            diff = pos[:, None] - neg[None, :]
            oracle = ((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (len(pos) * len(neg))
            assert abs(analysis.auc - oracle) < 1e-12

            # exhaustive threshold scan for Youden's J
            candidates = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
            ge = scores[None, :] >= candidates[:, None]
            tpr = (ge & (labels == 1)).sum(axis=1) / labels.sum()
            fpr = (ge & (labels == 0)).sum(axis=1) / (n - labels.sum())
            j = tpr - fpr
            best = j.max()
            best_threshold = candidates[j >= best].max()  # ties -> larger threshold
            assert analysis.j_stat == pytest.approx(best, abs=1e-12)
            assert analysis.youden_threshold == pytest.approx(best_threshold)

        # worked coherence examples: 0.15, 1.0, 0 exactly (float64 arithmetic)
        assert evaluation.volatility([0.5, 0.7, 0.6]) == pytest.approx(0.15, abs=1e-15)
        assert evaluation.inconsistency([0.5, 0.4], [1, 1]) == 1.0
        assert evaluation.inconsistency([0.2, 0.5, 0.8], [1, 1, 1]) == 0.0
        assert evaluation.volatility([0.3, 0.3, 0.3]) == 0.0


# ---------------------------------------------------------------------------
# 4. synthetic end-to-end


def test_criterion_4_synthetic_end_to_end():
    with criterion(4, "synthetic end-to-end", limit_s=300.0):
        corpus = synth.generate(REFERENCE_SPEC)
        split = split_students(corpus.sequences, (0.8, 0.1, 0.1), seed=7)
        oracle_auc = synth.oracle_auc(corpus, split.test)

        cfg = dkt.TrainConfig(
            embedding_dim=64,
            hidden_dim=128,
            learning_rate=1e-3,
            batch_size=64,
            max_t=100,
            patience=3,
            max_epochs=30,
            seed=7,
        )
        model, log = dkt.train(split.train, split.val, REFERENCE_SPEC.k, cfg)
        predictions, mastery = dkt.predict_records(model, split.test, tag="dkt")

        test_auc = evaluation.roc_auc(predictions).auc
        assert test_auc >= oracle_auc - 0.05, (
            f"DKT test AUC {test_auc:.4f} below oracle {oracle_auc:.4f} - 0.05"
        )

        report = evaluation.coherence_report(mastery)
        assert report.inconsistency < 0.5, f"inconsistency {report.inconsistency:.4f}"

        # label-shuffled control: global permutation of update-step labels
        deltas = []
        labels = []
        paths = {}
        by_student = {}
        for r in rows_of(mastery):
            by_student.setdefault(r.user_id, []).append(r)
        for user, rows in sorted(by_student.items()):
            for r in sorted(rows, key=lambda r: r.step):
                ps, ys = paths.setdefault((user, r.skill), ([], []))
                ps.append(r.p)
                ys.append(r.y_true)
        for key in sorted(paths):
            ps, ys = paths[key]
            for t in range(1, len(ps)):
                deltas.append(ps[t] - ps[t - 1])
                labels.append(ys[t])
        deltas = np.array(deltas)
        perm = np.random.default_rng(123).permutation(np.array(labels))
        expected = np.where(perm == 1, 1.0, -1.0)
        control = float((deltas * expected < 0).mean())
        assert abs(control - 0.5) <= 0.05, f"shuffled control {control:.4f}"
        print(
            f"  oracle AUC {oracle_auc:.4f}, DKT AUC {test_auc:.4f}, "
            f"inconsistency {report.inconsistency:.4f}, control {control:.4f}, "
            f"epochs {len(log)}"
        )


# ---------------------------------------------------------------------------
# 5. paper-scale reproduction (optional, external data required)


ASSISTMENTS_ENV = "KTRACE_ASSISTMENTS_CSV"


@pytest.mark.skipif(
    ASSISTMENTS_ENV not in os.environ,
    reason=f"paper-scale reproduction needs the external interaction log; "
    f"set {ASSISTMENTS_ENV} to run",
)
def test_criterion_5_paper_scale_reproduction(tmp_path):
    from ktrace import ingest

    with criterion(5, "paper-scale reproduction", limit_s=3600.0 + 600.0):
        raw_path = Path(os.environ[ASSISTMENTS_ENV])
        with open(raw_path, "r", encoding="latin-1", newline="") as fh:
            parsed = ingest.parse_interactions(fh)
        table, vocab, _ = ingest.filter_and_order(parsed.columns)
        stats = ingest.summarize(table)

        assert stats.n_records == 450146
        assert stats.n_students == 7981
        assert stats.n_skills == 149
        assert stats.n_correct == 260902
        assert stats.n_incorrect == 189244

        split = split_students(table, (0.8, 0.1, 0.1), seed=7)
        n = stats.n_students
        assert abs(len(split.train) - 0.8 * n) <= 1
        assert abs(len(split.val) - 0.1 * n) <= 1
        assert abs(len(split.test) - 0.1 * n) <= 1

        cfg = dkt.TrainConfig(seed=7, batch_size=64)
        model, _ = dkt.train(split.train, split.val, vocab.k, cfg)
        predictions, mastery = dkt.predict_records(model, split.test, tag="dkt")
        analysis = evaluation.roc_auc(predictions)
        confusion = evaluation.confusion_metrics(predictions, 0.5)
        coherence = evaluation.coherence_report(mastery)

        assert abs(analysis.auc - 0.83) <= 0.02
        assert abs(confusion.accuracy - 0.75) <= 0.02
        assert abs(coherence.volatility - 0.1075) <= 0.05
        assert abs(coherence.inconsistency - 0.4061) <= 0.05


# ---------------------------------------------------------------------------
# 6. LLM-probe contract (server-independent)


def test_criterion_6_probe_contract(tmp_path):
    with criterion(6, "LLM-probe contract", limit_s=10.0):
        # prob_from_logits vs two-term softmax oracle
        rng = np.random.default_rng(3)
        for _ in range(300):
            l0, l1 = rng.uniform(-50, 50, size=2)
            got = llmprobe.prob_from_logits(llmprobe.LogitPair(l0, l1))
            expected = math.exp(l1) / (math.exp(l0) + math.exp(l1))
            assert abs(got - expected) < 1e-12

        # prompt rendering byte-exact on the worked example
        skill = "Addition and Subtraction Integers"
        record = llmprobe.render_prompt(
            [("3948", skill, 1), ("3949", skill, 0)], ("3950", skill)
        )
        assert record.user == (
            "The following is a student's problem-solving history. "
            "Predict whether the next answer will be correct (1) or incorrect (0)."
            "\n\nStudent's past performance:\n"
            f"1. Quiz 3948 (Skill: {skill}) → Correct\n"
            f"2. Quiz 3949 (Skill: {skill}) → Incorrect\n"
            f"\nNext quiz: Quiz 3950 (Skill: {skill})"
        )
        assert record.system == (
            "You are a classification model. Output only a single token: "
            "either 0 or 1. Do not generate explanations or additional text."
        )

        # scripted endpoint: T-1 records with correct probabilities
        steps = [(str(100 + t), skill, t % 2) for t in range(6)]
        student = table_of([StudentSequence("stu", [(0, t, t % 2) for t in range(6)])])
        vocab = Vocab(skill_ids=("0",), quiz_ids=tuple(q for q, _, _ in steps), skill_names=(skill,))
        with MockLLMServer() as server:
            config = llmprobe.ProbeConfig(
                endpoint=server.endpoint,
                model="mock",
                timeout=5.0,
                max_retries=1,
                backoff=0.01,
                max_concurrent=2,
                cache_dir=str(tmp_path / "cache"),
            )
            client = llmprobe.ProbeClient(config)
            records, errors = llmprobe.probe_sequence(client, student, vocab, tag="llm")
            assert len(records) == len(steps) - 1
            assert errors == []
            for t, rec in enumerate(rows_of(records), start=1):
                prompt = llmprobe.render_prompt(
                    steps[:t],
                    steps[t][:2],
                    history_limit=config.history_limit,
                )
                top = logits_from_prompt(prompt.text)
                expected = math.exp(top["1"]) / (math.exp(top["0"]) + math.exp(top["1"]))
                assert rec.p == pytest.approx(expected, abs=1e-12)

            # double-run stability harness: zero deltas at temperature 0
            first, _ = llmprobe.probe_sequences(client, student, vocab, tag="llm")
            (report,) = llmprobe.stability_reports(client, student, vocab, first, tag="llm")
            assert report.stable
            assert report.max_delta == 0.0


# ---------------------------------------------------------------------------
# 7. determinism of the pipeline


CANONICAL_ARTIFACTS = [
    "sequences.txt",
    "vocab.json",
    "split.json",
    "stats.json",
    "filter_report.json",
    "rejects.csv",
    "skill_repr_quiz.json",
    "checkpoint.npz",
    "dumps/dkt.predictions.csv",
    "dumps/dkt.mastery.csv",
    "reports/metrics.json",
    "reports/roc_dkt.csv",
]


def _pipeline_hashes(tmp_path: Path, run: int) -> dict:
    csv_path = tmp_path / "log.csv"
    ws_dir = tmp_path / "ws"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "workspace": str(ws_dir),
                "seed": 5,
                "data": {"raw_path": str(csv_path)},
                "dkt": {
                    "embedding_dim": 8,
                    "hidden_dim": 12,
                    "learning_rate": 0.005,
                    "batch_size": 16,
                    "max_t": 20,
                    "max_epochs": 4,
                },
                "evaluate": {"tags": ["dkt"]},
            }
        )
    )
    assert main(["prepare", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    return {name: sha256(ws_dir / name) for name in CANONICAL_ARTIFACTS}


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    with criterion(7, "pipeline determinism", limit_s=600.0):
        rng = np.random.default_rng(42)
        lines = ["order_id,user_id,problem_id,correct,skill_id,skill_name"]
        for u in range(30):
            for t in range(10):
                skill = int(rng.integers(0, 4))
                correct = int(rng.random() < 0.4 + 0.1 * skill)
                lines.append(
                    f"{t + 1},student{u:02d},prob{int(rng.integers(0, 6))},"
                    f"{correct},{skill},Skill {skill}"
                )
        (tmp_path / "log.csv").write_text("\n".join(lines) + "\n")

        baseline = _pipeline_hashes(tmp_path, run=1)
        for rerun in (2, 3):
            rerun_hashes = _pipeline_hashes(tmp_path, run=rerun)
            for name, digest in baseline.items():
                assert rerun_hashes[name] == digest, f"{name} differs on rerun {rerun}"
