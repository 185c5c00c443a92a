from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ktrace.evaluation import (
    classify_profile,
    coherence_report,
    confusion_metrics,
    heatmap_export,
    inconsistency,
    roc_auc,
    stage_errors,
    stage_sizes,
    volatility,
    volatility_all_skills,
)
from ktrace.records import MasteryTrajectory, read_trajectory, write_trajectory

from predtable import Row, predictions_of


def rec(user, t, y, p, skill=0, tag="m"):
    return Row(user_id=user, step=t, skill=skill, y_true=y, p=p, model_tag=tag)


def recs_from(scores, labels):
    return [rec(f"u{i}", i, int(y), float(p)) for i, (p, y) in enumerate(zip(scores, labels))]


def pairwise_auc(scores, labels) -> float:
    """O(n^2) comparison oracle: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (len(pos) * len(neg)))


# ---------------------------------------------------------------------------
# AUC / ROC


def test_auc_all_equal_scores_is_half():
    records = recs_from([0.7] * 6, [1, 0, 1, 0, 1, 0])
    assert roc_auc(predictions_of(records)).auc == pytest.approx(0.5, abs=1e-12)


def test_auc_perfect_separation_is_one():
    records = recs_from([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert roc_auc(predictions_of(records)).auc == pytest.approx(1.0, abs=1e-12)


def test_auc_single_class_errors():
    with pytest.raises(ValueError, match="AUC undefined"):
        roc_auc(predictions_of(recs_from([0.2, 0.4], [1, 1])))


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(10, 200))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        got = roc_auc(predictions_of(recs_from(scores, labels))).auc
        assert got == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    base = roc_auc(predictions_of(recs_from(scores, labels))).auc
    squeezed = 1.0 / (1.0 + np.exp(-5.0 * (scores - 0.5)))
    squeezed_auc = roc_auc(predictions_of(recs_from(squeezed, labels))).auc
    assert squeezed_auc == pytest.approx(base, abs=1e-12)


def test_auc_ignores_unresolved_records():
    records = recs_from([0.1, 0.9], [0, 1])
    records.append(rec("ux", 0, 1, None))
    assert roc_auc(predictions_of(records)).auc == pytest.approx(1.0)


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(2)
    scores = np.round(rng.random(50), 1)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    roc = roc_auc(predictions_of(recs_from(scores, labels))).roc
    assert roc[0][:2] == (0.0, 0.0) and roc[0][2] == math.inf
    assert roc[-1][:2] == (1.0, 1.0) and roc[-1][2] == -math.inf
    fprs = [p[0] for p in roc]
    tprs = [p[1] for p in roc]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)


# ---------------------------------------------------------------------------
# Youden threshold


def brute_force_youden(scores, labels):
    """Exhaustive scan over candidate thresholds (all scores plus sentinels)."""
    candidates = sorted(set(scores), reverse=True) + [-math.inf]
    candidates = [math.inf] + candidates
    best_j, best_t = -math.inf, math.inf
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    for t in candidates:
        tpr = sum(1 for p, y in zip(scores, labels) if y == 1 and p >= t) / n_pos
        fpr = sum(1 for p, y in zip(scores, labels) if y == 0 and p >= t) / n_neg
        j = tpr - fpr
        if j > best_j or (j == best_j and t > best_t):
            best_j, best_t = j, t
    return best_t, best_j


def test_youden_matches_brute_force_scan():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(8, 120))
        scores = np.round(rng.random(n), 2).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        analysis = roc_auc(predictions_of(recs_from(scores, labels)))
        expect_t, expect_j = brute_force_youden(scores, labels)
        assert analysis.youden_threshold == pytest.approx(expect_t)
        assert analysis.j_stat == pytest.approx(expect_j, abs=1e-12)


def test_youden_perfect_separation_returns_larger_boundary():
    records = recs_from([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert roc_auc(predictions_of(records)).youden_threshold == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# confusion metrics


def test_confusion_constant_positive_predictor():
    records = recs_from([0.9, 0.9, 0.9], [1, 1, 0])
    m = confusion_metrics(predictions_of(records), threshold=0.5)
    assert m.per_class[1].recall == 1.0
    assert m.per_class[0].recall == 0.0
    assert m.accuracy == pytest.approx(2 / 3)
    assert "recall_class0" not in m.zero_division_flags  # denominator is support>0
    assert "precision_class0" in m.zero_division_flags


def test_confusion_hand_computed():
    records = [
        rec("u1", 1, 1, 0.9),
        rec("u1", 2, 0, 0.4),
        rec("u2", 1, 0, 0.6),
    ]
    m = confusion_metrics(predictions_of(records), threshold=0.5)
    assert m.counts == {"tp": 1, "tn": 1, "fp": 1, "fn": 0}
    assert m.accuracy == pytest.approx(2 / 3)
    assert m.per_class[1].precision == pytest.approx(0.5)
    assert m.per_class[1].recall == pytest.approx(1.0)
    assert m.per_class[1].f1 == pytest.approx(2 / 3)
    assert m.per_class[0].precision == pytest.approx(1.0)
    assert m.per_class[0].recall == pytest.approx(0.5)
    assert m.per_class[0].f1 == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# learner profiles


def test_profile_paper_examples():
    assert classify_profile([1, 1, 1, 0, 0]) == "stable"
    assert classify_profile([1, 0, 1, 0, 1]) == "switching"


def test_profile_constant_is_stable():
    assert classify_profile([1, 1, 1, 1]) == "stable"


def test_profile_reversal_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        y = rng.integers(0, 2, size=int(rng.integers(1, 15))).tolist()
        assert classify_profile(y) == classify_profile(list(reversed(y)))


# ---------------------------------------------------------------------------
# stage errors


def test_stage_sizes_thirds_with_late_remainders():
    assert stage_sizes(10) == (3, 3, 4)
    assert stage_sizes(3) == (1, 1, 1)
    assert stage_sizes(5) == (1, 2, 2)
    assert stage_sizes(2) == (2, 0, 0)
    assert stage_sizes(1) == (1, 0, 0)


def test_stage_sizes_partition_everything():
    for n in range(1, 60):
        assert sum(stage_sizes(n)) == n


def test_stage_errors_single_student_overall_rate():
    # 10 predictions, 7 correct at the threshold: pooled error 0.30
    labels = [1, 1, 0, 1, 0, 1, 1, 1, 0, 1]
    preds = [0.9, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9, 0.9, 0.1, 0.9]
    # mismatches at positions 4 and 5 plus one more to make three
    preds[0] = 0.1
    records = [rec("u1", t + 1, y, p) for t, (y, p) in enumerate(zip(labels, preds))]
    table = stage_errors(predictions_of(records), threshold=0.5)
    total_err = sum(row.error * row.n for row in table)
    total_n = sum(row.n for row in table)
    assert total_n == 10
    assert total_err / total_n == pytest.approx(0.30)


def test_stage_errors_perfect_predictor_all_zero():
    rng = np.random.default_rng(5)
    records = []
    for u in range(4):
        for t in range(9):
            y = int(rng.integers(0, 2))
            records.append(rec(f"u{u}", t + 1, y, 0.9 if y else 0.1))
    for row in stage_errors(predictions_of(records), threshold=0.5):
        assert row.error == 0.0


def test_stage_errors_groups_by_profile():
    stable_student = [rec("s1", t + 1, 1, 0.9) for t in range(6)]
    switching_student = [rec("w1", t + 1, t % 2, 0.9) for t in range(6)]
    table = stage_errors(predictions_of(stable_student + switching_student), threshold=0.5)
    groups = {row.group for row in table}
    assert groups == {"stable", "switching"}
    stable_rows = [r for r in table if r.group == "stable"]
    assert all(r.error == 0.0 for r in stable_rows)


def test_stage_errors_macro_vs_micro():
    # student a: 3 predictions all wrong; student b: 6 predictions all right
    a = [rec("a", t + 1, 1, 0.1) for t in range(3)]
    b = [rec("b", t + 1, 1, 0.9) for t in range(6)]
    both = predictions_of(a + b)
    micro = {(r.group, r.stage): r.error for r in stage_errors(both, 0.5)}
    macro = {(r.group, r.stage): r.error for r in stage_errors(both, 0.5, macro=True)}
    assert micro[("stable", "early")] == pytest.approx(1 / 3)  # 1 wrong of 3 pooled
    assert macro[("stable", "early")] == pytest.approx(0.5)  # mean of 1.0 and 0.0


def test_stage_errors_exact_micro_and_macro_values():
    # stable: a1 (1 position), b2 (2) and e10 (10); switching: c3 (3) and d10 (10)
    students = {
        "a1": ([1], [0.1]),
        "b2": ([0, 0], [0.9, 0.1]),
        "c3": ([0, 1, 0], [0.1] * 3),
        "d10": ([1, 0] * 5, [0.9] * 10),
        "e10": ([1] * 10, [0.1, 0.9, 0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9]),
    }
    records = [
        rec(user, 2 * t + 1, y, p)
        for user, (labels, probs) in students.items()
        for t, (y, p) in enumerate(zip(labels, probs))
    ]
    preds = predictions_of(records[::-1])  # stage order comes from the steps
    micro = [(r.group, r.stage, r.error, r.n) for r in stage_errors(preds, 0.5)]
    assert micro == [
        ("switching", "early", 1 / 4, 4),
        ("switching", "middle", 3 / 4, 4),
        ("switching", "late", 2 / 5, 5),
        ("stable", "early", 3 / 6, 6),
        ("stable", "middle", 0 / 3, 3),
        ("stable", "late", 2 / 4, 4),
    ]
    # per-student rates averaged in user-id order
    macro = [(r.group, r.stage, r.error, r.n) for r in stage_errors(preds, 0.5, macro=True)]
    assert macro == [
        ("switching", "early", (0 / 1 + 1 / 3) / 2, 4),
        ("switching", "middle", (1 / 1 + 2 / 3) / 2, 4),
        ("switching", "late", (0 / 1 + 2 / 4) / 2, 5),
        ("stable", "early", (1 / 1 + 1 / 2 + 1 / 3) / 3, 6),
        ("stable", "middle", 0 / 3, 3),
        ("stable", "late", 2 / 4, 4),
    ]


def test_stage_position_counts_partition_per_student():
    rng = np.random.default_rng(6)
    records = []
    for u in range(5):
        n = int(rng.integers(1, 12))
        for t in range(n):
            records.append(rec(f"u{u}", t + 1, int(rng.integers(0, 2)), 0.6))
    table = stage_errors(predictions_of(records), threshold=0.5)
    assert sum(r.n for r in table) == len(records)


# ---------------------------------------------------------------------------
# temporal coherence


def test_volatility_worked_example():
    assert volatility([0.5, 0.7, 0.6]) == pytest.approx(0.15, abs=1e-15)


def test_volatility_constant_is_zero():
    assert volatility([0.4, 0.4, 0.4, 0.4]) == 0.0


def test_volatility_zero_iff_constant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.random(5).tolist()
        if volatility(p) == 0.0:
            assert len(set(p)) == 1


def test_volatility_too_short_errors():
    with pytest.raises(ValueError):
        volatility([0.5])


def test_inconsistency_drop_after_correct_is_mismatch():
    assert inconsistency([0.5, 0.4], [1, 1]) == 1.0


def test_inconsistency_rising_with_correct_is_zero():
    assert inconsistency([0.2, 0.4, 0.7, 0.9], [1, 1, 1, 1]) == 0.0


def test_inconsistency_zero_change_is_consistent():
    assert inconsistency([0.5, 0.5], [1, 1]) == 0.0
    assert inconsistency([0.5, 0.5], [0, 0]) == 0.0


def test_inconsistency_epsilon_follower_is_exactly_zero():
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.integers(0, 2, size=10).tolist()
        p = [0.5]
        for t in range(1, 10):
            p.append(p[-1] + (1e-3 if y[t] == 1 else -1e-3))
        assert inconsistency(p, y) == 0.0


def test_coherence_report_pools_same_skill_paths():
    # one student, two skills interleaved
    records = [
        rec("u1", 0, 1, 0.5, skill=0),
        rec("u1", 1, 1, 0.6, skill=1),
        rec("u1", 2, 1, 0.7, skill=0),  # skill 0: 0.5 -> 0.7, y=1, consistent
        rec("u1", 3, 0, 0.8, skill=1),  # skill 1: 0.6 -> 0.8, y=0, mismatch
    ]
    report = coherence_report(predictions_of(records))
    assert report.n_update_pairs == 2
    assert report.volatility == pytest.approx((0.2 + 0.2) / 2, abs=1e-12)
    assert report.inconsistency == pytest.approx(0.5)
    assert report.per_student["u1"]["n_update_pairs"] == 2


def test_coherence_skips_single_attempt_skills():
    records = [
        rec("u1", 0, 1, 0.5, skill=0),
        rec("u1", 1, 1, 0.6, skill=1),
        rec("u1", 2, 1, 0.9, skill=1),
    ]
    report = coherence_report(predictions_of(records))
    assert report.n_update_pairs == 1


def test_coherence_report_equals_per_path_scalar_metrics():
    rng = np.random.default_rng(10)
    records = []
    for u in range(5):
        for t in range(int(rng.integers(2, 25))):
            p = None if rng.random() < 0.2 else float(np.round(rng.random(), 2))
            y = int(rng.integers(0, 2))
            records.append(rec(f"u{u}", t, y, p, skill=int(rng.integers(0, 3))))
    rng.shuffle(records)
    report = coherence_report(predictions_of(records))

    # oracle: the scalar ops over each (user, skill) path of resolved records
    pooled = {"pairs": 0, "mismatches": 0, "moved": 0.0}
    per_student = {}
    for user in sorted({r.user_id for r in records}):
        stats = per_student.setdefault(user, {"pairs": 0, "mismatches": 0, "moved": 0.0})
        for skill in range(3):
            path = sorted(
                (r for r in records if r.user_id == user and r.skill == skill and r.p is not None),
                key=lambda r: r.step,
            )
            if len(path) < 2:
                continue
            ps, ys = [r.p for r in path], [r.y_true for r in path]
            n = len(path) - 1
            for acc in (pooled, stats):
                acc["pairs"] += n
                acc["mismatches"] += round(inconsistency(ps, ys) * n)
                acc["moved"] += volatility(ps) * n
    assert pooled["pairs"] > 20 and pooled["mismatches"] > 0
    assert report.n_update_pairs == pooled["pairs"]
    assert report.inconsistency == pooled["mismatches"] / pooled["pairs"]
    assert report.volatility == pytest.approx(pooled["moved"] / pooled["pairs"], rel=1e-12)
    expected = {u: s for u, s in per_student.items() if s["pairs"]}
    assert report.per_student.keys() == expected.keys()
    for user, stats in expected.items():
        got = report.per_student[user]
        assert got["n_update_pairs"] == stats["pairs"]
        assert got["inconsistency"] == stats["mismatches"] / stats["pairs"]
        assert got["volatility"] == pytest.approx(stats["moved"] / stats["pairs"], rel=1e-12)


def test_unresolved_cell_breaks_heatmap_pair_but_not_coherence_pair(tmp_path):
    # skill 0 path 0.5 -> NaN -> 0.4, every response correct
    p = np.array([[0.5, 0.5], [np.nan, 0.5], [0.4, 0.5]])
    traj = MasteryTrajectory(user_id="s", p=p, steps=[(0, 0, 1), (0, 0, 1), (0, 0, 1)])
    # the heatmap keeps the NaN cell in the path: neither pair annotates
    assert heatmap_export(traj, ["a", "b"], tmp_path / "h.svg") == 0
    # the coherence metrics drop the unresolved record, then pair 0.5 -> 0.4
    report = coherence_report(traj.practiced_path("m"))
    assert report.n_update_pairs == 1
    assert report.inconsistency == 1.0


def test_volatility_all_skills_alternative():
    traj = MasteryTrajectory(
        user_id="u1",
        p=np.array([[0.5, 0.5], [0.6, 0.4], [0.6, 0.6]]),
        steps=[(0, 0, 1), (0, 0, 1), (1, 1, 0)],
    )
    # diffs: |0.1|,|0.1| then |0.0|,|0.2| -> mean 0.1
    assert volatility_all_skills(traj) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# heatmap export


def consistent_trajectory() -> MasteryTrajectory:
    steps = [(0, 0, 1), (0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 1, 1)]
    p = np.full((5, 2), 0.5)
    # practiced-skill updates always follow the response
    p[1, 0] = 0.6   # after correct on skill 0
    p[2, 1] = 0.45  # after incorrect on skill 1 (first attempt, no pair yet)
    p[3, 0] = 0.55  # after incorrect on skill 0: down from 0.6
    p[4, 1] = 0.6   # after correct on skill 1: up from 0.45
    return MasteryTrajectory(user_id="s1", p=p, steps=steps)


def test_heatmap_consistent_trajectory_zero_annotations(tmp_path):
    traj = consistent_trajectory()
    count = heatmap_export(traj, ["a", "b"], tmp_path / "h.svg")
    assert count == 0


def test_heatmap_annotation_count_matches_inconsistency_rule(tmp_path):
    rng = np.random.default_rng(9)
    k, t_len = 3, 12
    steps = [(int(rng.integers(0, k)), 0, int(rng.integers(0, 2))) for _ in range(t_len)]
    traj = MasteryTrajectory(user_id="s2", p=rng.random((t_len, k)), steps=steps)
    count = heatmap_export(traj, [f"sk{i}" for i in range(k)], tmp_path / "h.svg")

    # independent count through the scalar inconsistency op per skill path
    expected = 0
    for skill in range(k):
        ps = [traj.p[t, skill] for t, (s, _, _) in enumerate(steps) if s == skill]
        ys = [y for (s, _, y) in steps if s == skill]
        if len(ps) >= 2:
            expected += round(inconsistency(ps, ys) * (len(ps) - 1))
    assert count == expected


def test_heatmap_svg_is_well_formed_and_deterministic(tmp_path):
    traj = consistent_trajectory()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    heatmap_export(traj, ["alpha", "beta"], p1)
    heatmap_export(traj, ["alpha", "beta"], p2)
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.fromstring(p1.read_text())
    assert root.tag.endswith("svg")


def test_heatmap_export_creates_its_directory(tmp_path):
    svg = tmp_path / "reports" / "new" / "h.svg"
    assert heatmap_export(consistent_trajectory(), ["a", "b"], svg) == 0
    assert ET.fromstring(svg.read_text()).tag.endswith("svg")


def test_heatmap_matrix_file_round_trip(tmp_path):
    traj = consistent_trajectory()
    write_trajectory(tmp_path / "m.csv", traj)
    loaded = read_trajectory(tmp_path / "m.csv")
    assert loaded.user_id == "s1"
    assert np.array_equal(loaded.p, traj.p)
    assert np.array_equal(loaded.steps, traj.steps)


def reference_cell_color(p: float) -> str:
    """The per-cell colour rule, one Python call per cell."""
    if math.isnan(p):
        return "#cccccc"
    p = min(max(p, 0.0), 1.0)
    r = int(round(214 + (49 - 214) * p))
    g = int(round(96 + (110 - 96) * p))
    b = int(round(77 + (160 - 77) * p))
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_skill_rows(traj: MasteryTrajectory, skill_names) -> list:
    """The label and <rect> lines of every skill row, one cell at a time."""
    t_len, k = traj.p.shape
    cell, left, top = 22, 180, 46
    lines = []
    for s in range(k):
        y0 = top + s * cell
        label = skill_names[s] if s < len(skill_names) else str(s)
        if len(label) > 26:
            label = label[:25] + "…"
        escaped = (
            label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;")
        )
        lines.append(
            f'<text x="{left - 6}" y="{y0 + cell - 7}" font-size="10" '
            f'text-anchor="end">{escaped}</text>'
        )
        for t in range(t_len):
            lines.append(
                f'<rect x="{left + t * cell}" y="{y0}" width="{cell}" height="{cell}" '
                f'fill="{reference_cell_color(float(traj.p[t, s]))}" stroke="#ffffff" '
                f'stroke-width="0.5"/>'
            )
    return lines


def test_heatmap_cells_match_scalar_reference_bytes(tmp_path):
    rng = np.random.default_rng(23)
    t_len, k = 17, 7
    p = rng.random((t_len, k)) * 1.4 - 0.2
    p[rng.random((t_len, k)) < 0.15] = np.nan
    p[:, 0] = np.round(rng.random(t_len) * 330) / 330  # channel values on .5
    p[:6, 1] = [0.5, 0.0, 1.0, -0.2, 1.3, np.nan]
    steps = [(int(rng.integers(0, k)), 0, int(rng.integers(0, 2))) for _ in range(t_len)]
    traj = MasteryTrajectory(user_id="s9", p=p, steps=steps)
    names = ["a name of well over twenty-six characters", 'ratios & "rates" <intro>', "c"]
    svg = tmp_path / "h.svg"
    heatmap_export(traj, names, svg)

    lines = svg.read_text(encoding="utf-8").split("\n")
    expected = reference_skill_rows(traj, names)
    assert lines[3 : 3 + len(expected)] == expected
    assert "a name of well over twent…" in lines[3]
    assert "ratios &amp; &quot;rates&quot; &lt;intro&gt;" in lines[4 + t_len]
    fills = [line.split('fill="')[1][:7] for line in lines[5 + t_len : 11 + t_len]]
    assert fills == ["#846776", "#d6604d", "#316ea0", "#d6604d", "#316ea0", "#cccccc"]


def test_volatility_all_skills_needs_a_resolved_change():
    traj = MasteryTrajectory(
        user_id="u1", p=np.full((3, 2), np.nan), steps=[(0, 0, 1), (1, 1, 0), (0, 0, 1)]
    )
    with pytest.raises(ValueError, match="no resolved step-to-step change"):
        volatility_all_skills(traj)
    short = MasteryTrajectory(user_id="u2", p=np.array([[0.5, 0.5]]), steps=[(0, 0, 1)])
    with pytest.raises(ValueError, match="at least 2 steps"):
        volatility_all_skills(short)
