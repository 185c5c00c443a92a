"""Evaluation battery over prediction dumps.

Covers discrimination (rank-statistic AUC with midrank tie handling, full ROC
curve), thresholded confusion metrics, the Youden-J optimal threshold,
early/middle/late stage errors split by stable/switching learner profiles,
temporal-coherence metrics (volatility and directional inconsistency over
same-skill mastery paths), and multi-skill mastery heatmap export as SVG.

Every metric reads one ``records.Predictions`` table: parallel user id,
step, skill, label and probability columns, with NaN where a probe step is
unresolved. Unresolved rows are excluded from every metric and surfaced
through the coverage report. One update rule,
``_updates``, decides which consecutive same-path mastery changes move
against the observed response; `volatility`, `inconsistency`,
`coherence_report` and the heatmap annotation all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ingest import atomic_open
from .records import MasteryTrajectory, Predictions

STABLE = "stable"
SWITCHING = "switching"
STAGES = ("early", "middle", "late")


def coverage(preds: Predictions) -> dict:
    total = len(preds)
    resolved = int(np.count_nonzero(~np.isnan(preds.p)))
    return {
        "total": total,
        "resolved": resolved,
        "unresolved": total - resolved,
        "coverage": resolved / total if total else 0.0,
    }


# ---------------------------------------------------------------------------
# ROC / AUC


@dataclass
class ThresholdAnalysis:
    auc: float
    roc: List[Tuple[float, float, float]]  # (fpr, tpr, threshold)
    youden_threshold: float
    j_stat: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing the mean of their span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(preds: Predictions) -> ThresholdAnalysis:
    """AUC via the Mann-Whitney rank statistic plus the full ROC curve.

    Thresholds are all distinct scores with +/-inf sentinels; a record is
    classified positive when p >= threshold. Requires both classes among the
    resolved rows.
    """
    cols = preds.resolved()
    if not len(cols):
        raise ValueError("AUC undefined: no resolved records")
    scores, labels = cols.p, cols.y
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: only one class present")

    ranks = _midranks(scores)
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # ROC sweep over descending distinct thresholds
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(1 - sorted_labels)
    idx = np.append(np.flatnonzero(np.diff(sorted_scores)), len(sorted_scores) - 1)
    fpr = np.concatenate([[0.0], fp[idx] / n_neg, [1.0]])
    tpr = np.concatenate([[0.0], tp[idx] / n_pos, [1.0]])
    thresholds = np.concatenate([[math.inf], sorted_scores[idx], [-math.inf]])

    # argmax takes the first maximum: the largest threshold among ties
    best = int(np.argmax(tpr - fpr))
    return ThresholdAnalysis(
        auc=float(auc),
        roc=list(zip(fpr.tolist(), tpr.tolist(), thresholds.tolist())),
        youden_threshold=float(thresholds[best]),
        j_stat=float(tpr[best] - fpr[best]),
    )


# ---------------------------------------------------------------------------
# confusion metrics


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ConfusionMetrics:
    accuracy: float
    per_class: Dict[int, ClassMetrics]
    threshold: float
    counts: Dict[str, int]
    zero_division_flags: List[str] = field(default_factory=list)


def confusion_metrics(preds: Predictions, threshold: float = 0.5) -> ConfusionMetrics:
    """Per-class precision/recall/F1 plus accuracy at a fixed threshold.

    Class 0 is the low-performer (incorrect) row, class 1 the high-performer
    row. Zero-division cells yield 0 and are flagged.
    """
    cols = preds.resolved()
    if not len(cols):
        raise ValueError("no resolved records")
    y = cols.y
    pred = (cols.p >= threshold).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())

    flags: List[str] = []

    def safe_div(num: int, den: int, label: str) -> float:
        if den == 0:
            flags.append(label)
            return 0.0
        return num / den

    per_class: Dict[int, ClassMetrics] = {}
    for cls, (tp_c, fp_c, fn_c) in {1: (tp, fp, fn), 0: (tn, fn, fp)}.items():
        precision = safe_div(tp_c, tp_c + fp_c, f"precision_class{cls}")
        recall = safe_div(tp_c, tp_c + fn_c, f"recall_class{cls}")
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        per_class[cls] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=tp_c + fn_c
        )
    return ConfusionMetrics(
        accuracy=(tp + tn) / len(y),
        per_class=per_class,
        threshold=threshold,
        counts={"tp": tp, "tn": tn, "fp": fp, "fn": fn},
        zero_division_flags=flags,
    )


# ---------------------------------------------------------------------------
# learner profiles and stage errors


def classify_profile(y_sequence: Sequence[int]) -> str:
    """Fewer than two correctness switches -> stable, otherwise switching."""
    if len(y_sequence) == 0:
        raise ValueError("empty label sequence")
    switches = sum(1 for a, b in zip(y_sequence, y_sequence[1:]) if a != b)
    return STABLE if switches < 2 else SWITCHING


def stage_sizes(n: int) -> Tuple[int, int, int]:
    """Positional thirds with remainders pushed to later stages; fewer than
    three positions all land in the early stage."""
    if n < 3:
        return (n, 0, 0)
    early = n // 3
    middle = (n + 1) // 3
    return (early, middle, n - early - middle)


@dataclass(frozen=True)
class ProfileStageErrors:
    group: str
    stage: str
    error: float
    n: int


def stage_errors(
    preds: Predictions, threshold: float, macro: bool = False
) -> List[ProfileStageErrors]:
    """Error rate per (profile, stage) cell at the given threshold.

    Positions are each student's resolved predictions in step order, split
    into early/middle/late thirds. Micro-averaging pools mismatches over
    positions; the macro flag averages per-student rates instead. Cells with
    no data are omitted.
    """
    mism: Dict[Tuple[str, str], List[float]] = {}
    counts: Dict[Tuple[str, str], int] = {}
    per_student_rates: Dict[Tuple[str, str], List[float]] = {}

    cols = preds.resolved()
    order = np.lexsort((cols.step, cols.user))
    labels = cols.y[order]
    wrong = (cols.p[order] >= threshold) != labels
    # split at each student's first row; the piece before row 0 is empty
    _, first = np.unique(cols.user[order], return_index=True)
    students = zip(np.split(labels, first)[1:], np.split(wrong, first)[1:])
    for y_student, wrong_student in students:
        group = classify_profile(y_student.tolist())
        start = 0
        for stage, size in zip(STAGES, stage_sizes(len(y_student))):
            if size == 0:
                continue
            n_wrong = int(wrong_student[start : start + size].sum())
            start += size
            key = (group, stage)
            mism.setdefault(key, []).append(n_wrong)
            counts[key] = counts.get(key, 0) + size
            per_student_rates.setdefault(key, []).append(n_wrong / size)

    out: List[ProfileStageErrors] = []
    for group in (SWITCHING, STABLE):
        for stage in STAGES:
            key = (group, stage)
            if key not in counts:
                continue
            if macro:
                error = sum(per_student_rates[key]) / len(per_student_rates[key])
            else:
                error = sum(mism[key]) / counts[key]
            out.append(
                ProfileStageErrors(group=group, stage=stage, error=error, n=counts[key])
            )
    return out


# ---------------------------------------------------------------------------
# temporal coherence


def _updates(
    p: np.ndarray, y: np.ndarray, linked: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The temporal-coherence update rule over a sequence of mastery values.

    ``linked[i]`` says whether element i+1 continues element i's same-skill
    path; each linked pair is one update. Returns the index of each update's
    second element, its absolute change, and whether its direction
    contradicts the response y observed at that element. Zero change
    contradicts nothing, and a NaN on either side is never a mismatch.
    """
    at = np.flatnonzero(linked) + 1
    delta = p[at] - p[at - 1]
    expected = np.where(y[at] == 1, 1.0, -1.0)
    return at, np.abs(delta), delta * expected < 0


def volatility(p_sequence: Sequence[float]) -> float:
    """Mean absolute change between consecutive values of a same-skill
    mastery path."""
    if len(p_sequence) < 2:
        raise ValueError("volatility needs at least 2 attempts")
    p = np.asarray(p_sequence, dtype=np.float64)
    _, step_size, _ = _updates(p, np.zeros(len(p)), np.ones(len(p) - 1, dtype=bool))
    return float(step_size.mean())


def inconsistency(p_sequence: Sequence[float], y_sequence: Sequence[int]) -> float:
    """Fraction of updates whose direction contradicts the response observed
    at the update step; zero change contradicts nothing."""
    if len(p_sequence) != len(y_sequence):
        raise ValueError("p and y must align")
    if len(p_sequence) < 2:
        raise ValueError("inconsistency needs at least 2 attempts")
    p = np.asarray(p_sequence, dtype=np.float64)
    _, _, mismatch = _updates(p, np.asarray(y_sequence), np.ones(len(p) - 1, dtype=bool))
    return int(mismatch.sum()) / len(mismatch)


@dataclass
class CoherenceReport:
    volatility: float
    inconsistency: float
    n_update_pairs: int
    per_student: Dict[str, Dict[str, float]]


def coherence_report(mastery: Predictions) -> CoherenceReport:
    """Pooled volatility and inconsistency over all same-skill update pairs
    (micro-average), plus per-student values over each student's own pairs.
    Unresolved rows are dropped before pairing; skills with fewer than two
    attempts are skipped."""
    cols = mastery.resolved()
    users, user = np.unique(cols.user, return_inverse=True)
    order = np.lexsort((cols.step, cols.skill, user))
    user, skill = user[order], cols.skill[order]
    linked = (user[1:] == user[:-1]) & (skill[1:] == skill[:-1])
    at, step_size, mismatch = _updates(cols.p[order], cols.y[order], linked)
    if not len(at):
        raise ValueError("no same-skill update pairs available")

    owner = user[at]
    n_pairs = np.bincount(owner, minlength=len(users))
    moved = np.bincount(owner, weights=step_size, minlength=len(users))
    wrong = np.bincount(owner, weights=mismatch, minlength=len(users))
    per_student = {
        str(users[u]): {
            "volatility": float(moved[u] / n_pairs[u]),
            "inconsistency": float(wrong[u] / n_pairs[u]),
            "n_update_pairs": int(n_pairs[u]),
        }
        for u in np.flatnonzero(n_pairs)
    }
    return CoherenceReport(
        volatility=float(step_size.mean()),
        inconsistency=int(mismatch.sum()) / len(at),
        n_update_pairs=len(at),
        per_student=per_student,
    )


def volatility_all_skills(traj: MasteryTrajectory) -> float:
    """Alternative pooling: mean absolute change across consecutive time
    steps for every skill column of a full trajectory matrix."""
    if traj.n_steps < 2:
        raise ValueError("trajectory needs at least 2 steps")
    diffs = np.abs(np.diff(traj.p, axis=0))
    if np.isnan(diffs).all():
        raise ValueError("no resolved step-to-step change in the trajectory")
    return float(np.nanmean(diffs))


# ---------------------------------------------------------------------------
# heatmap export


def _skill_paths(traj: MasteryTrajectory) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The practiced steps grouped by skill (ascending), in step order within
    a skill: the step indices, and the skill and response at each."""
    order = np.argsort(traj.steps[:, 0], kind="stable")
    return order, traj.steps[order, 0], traj.steps[order, 2]


def _inconsistent_cells(
    traj: MasteryTrajectory, order: np.ndarray, skill: np.ndarray, y: np.ndarray
) -> List[Tuple[int, int]]:
    """Cells (t, skill), in step order, where the practiced skill's update
    direction contradicts the response at t. The path keeps NaN cells, so a
    pair with a NaN side annotates nothing."""
    at, _, mismatch = _updates(traj.p[order, skill], y, skill[1:] == skill[:-1])
    times = np.sort(order[at[mismatch]])
    return list(zip(times.tolist(), traj.steps[times, 0].tolist()))


_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _cell_colors(p: np.ndarray) -> np.ndarray:
    """Cell colours of a probability grid: low mastery -> warm, high mastery
    -> cool, NaN -> grey. p is clipped to [0, 1]; each channel rounds half to
    even, as Python's ``round`` does. Each distinct colour is formatted once."""
    p = np.asarray(p, dtype=np.float64)
    nan = np.isnan(p)
    p = np.clip(np.where(nan, 0.0, p), 0.0, 1.0)
    rgb = sum(
        np.round(low + (high - low) * p).astype(np.int64) << shift
        for low, high, shift in ((214, 49, 16), (96, 110, 8), (77, 160, 0))
    )
    rgb[nan] = 0xCCCCCC
    codes, inverse = np.unique(rgb, return_inverse=True)
    colors = np.array(["#%06x" % code for code in codes.tolist()], dtype=object)
    return colors[inverse].reshape(p.shape)


def heatmap_export(
    traj: MasteryTrajectory,
    skill_names: Sequence[str],
    svg_path: str | Path,
) -> int:
    """Render the time-by-skill probability grid as SVG and return the number
    of annotated (direction-inconsistent) cells.

    Annotated cells show their probability and get a highlighted border; a
    white polyline per skill traces the practiced-attempt trajectory.
    """
    t_len, k = traj.p.shape
    order, skill, y = _skill_paths(traj)
    bad_cells = _inconsistent_cells(traj, order, skill, y)

    cell, left, top = 22, 180, 46
    width = left + t_len * cell + 20
    height = top + k * cell + 40

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-size="13">student {traj.user_id}: '
        f"mastery over time ({len(bad_cells)} inconsistent updates)</text>",
    ]

    # One string per skill row: its label, then its cells' <rect>s. The pieces
    # that vary only with t are laid out once; each row fills in the rest.
    row = [""] * (1 + 4 * t_len)
    row[1::4] = [f'\n<rect x="{left + t * cell}" y="' for t in range(t_len)]
    row[4::4] = ['" stroke="#ffffff" stroke-width="0.5"/>'] * t_len
    for s, colors in enumerate(_cell_colors(traj.p).T.tolist()):
        y0 = top + s * cell
        label = skill_names[s] if s < len(skill_names) else str(s)
        label = (label if len(label) <= 26 else label[:25] + "…").translate(_XML_ESCAPES)
        row[0] = (
            f'<text x="{left - 6}" y="{y0 + cell - 7}" font-size="10" '
            f'text-anchor="end">{label}</text>'
        )
        row[2::4] = [f'{y0}" width="{cell}" height="{cell}" fill="'] * t_len
        row[3::4] = colors
        parts.append("".join(row))

    # white reference path through each skill's practiced cells
    skills, first = np.unique(skill, return_index=True)
    for s, times in zip(skills.tolist(), np.split(order, first)[1:]):
        times = times.tolist()
        pts = " ".join(
            f"{left + t * cell + cell / 2},{top + s * cell + cell / 2}" for t in times
        )
        if len(times) > 1:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="white" stroke-width="2"/>'
            )
        for t in times:
            parts.append(
                f'<circle cx="{left + t * cell + cell / 2}" cy="{top + s * cell + cell / 2}" '
                f'r="2.5" fill="white"/>'
            )

    # annotate inconsistent cells
    for t, s in bad_cells:
        x0, y0 = left + t * cell, top + s * cell
        parts.append(
            f'<rect x="{x0 + 1}" y="{y0 + 1}" width="{cell - 2}" height="{cell - 2}" '
            f'fill="none" stroke="#111111" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + cell / 2}" y="{y0 + cell - 8}" font-size="7" '
            f'text-anchor="middle" fill="#111111">{traj.p[t, s]:.2f}</text>'
        )

    for t in range(0, t_len, 5):
        parts.append(
            f'<text x="{left + t * cell + cell / 2}" y="{top + k * cell + 14}" '
            f'font-size="9" text-anchor="middle">{t + 1}</text>'
        )
    parts.append("</svg>")

    with atomic_open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return len(bad_cells)

