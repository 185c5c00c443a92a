"""Correctness checks on the artifacts of one pipeline iteration.

Each check returns an error message, or None when it passes. The checks
read the workspace files directly and recompute what they compare against
without going through ktrace's evaluation code, except where a check is
defined as agreement with a ktrace function.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def read_dump(path: Path) -> List[Tuple[str, int, int, str]]:
    """(user_id, t, y_true, p_text) per row of a prediction dump."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(row[0], int(row[1]), int(row[3]), row[4]) for row in reader]


def held_out_users(ws: Path) -> List[str]:
    return json.loads((ws / "split.json").read_text(encoding="utf-8"))["test"]


def check_rows(ws: Path, tag: str, lengths: Dict[str, int]) -> Optional[str]:
    """One row per test step t >= 1, each with p in the open unit interval."""
    expected = {(u, t) for u in held_out_users(ws) for t in range(1, lengths[u])}
    rows = read_dump(ws / "dumps" / f"{tag}.predictions.csv")
    seen = {(u, t) for u, t, _, _ in rows}
    if len(seen) != len(rows) or seen != expected:
        return f"{tag}: {len(rows)} rows ({len(seen)} distinct), expected {len(expected)} test steps"
    for u, t, _, p_text in rows:
        p = float(p_text) if p_text != "NA" else math.nan
        if not 0.0 < p < 1.0:
            return f"{tag}: p={p_text} at {u} t={t} outside (0, 1)"
    return None


def mann_whitney_auc(y: np.ndarray, p: np.ndarray) -> float:
    """Rank-sum AUC with midranks for tied scores."""
    _, inverse, counts = np.unique(p, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    return (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_auc(ws: Path, tag: str) -> Optional[str]:
    """The AUC in metrics.json equals a rank-sum AUC recomputed from the dump."""
    rows = read_dump(ws / "dumps" / f"{tag}.predictions.csv")
    y = np.array([r[2] for r in rows])
    p = np.array([float(r[3]) for r in rows])
    want = mann_whitney_auc(y, p)
    got = metrics_auc(ws, tag)
    if abs(got - want) > 1e-9:
        return f"{tag}: metrics.json AUC {got!r} != recomputed {want!r}"
    return None


def metrics_auc(ws: Path, tag: str) -> float:
    return json.loads((ws / "reports" / "metrics.json").read_text(encoding="utf-8"))[tag]["auc"]


def check_oracle_auc(ws: Path, expected: float) -> Optional[str]:
    got = metrics_auc(ws, "oracle")
    if abs(got - expected) > 1e-12:
        return f"oracle: metrics.json AUC {got!r} != synth.oracle_auc {expected!r}"
    return None


def check_probe_values(ws: Path, sequences: Dict[str, Sequence[Tuple[int, int, int]]]) -> Optional[str]:
    """Each probe p is the two-way softmax of the mock's logits for its prompt."""
    from ktrace import llmprobe
    from mockllm import logits_from_prompt

    vocab = json.loads((ws / "vocab.json").read_text(encoding="utf-8"))
    names, quizzes = vocab["skill_names"], vocab["quiz_ids"]
    for user, t, _, p_text in read_dump(ws / "dumps" / "llm.predictions.csv"):
        shown = [(str(quizzes[q]), names[s], y) for s, q, y in sequences[user]]
        prompt = llmprobe.render_prompt(
            shown[:t], shown[t][:2], history_limit=llmprobe.ProbeConfig.history_limit
        )
        top = logits_from_prompt(prompt.text)
        expected = math.exp(top["1"]) / (math.exp(top["0"]) + math.exp(top["1"]))
        if abs(float(p_text) - expected) > 1e-12:
            return f"llm: p={p_text} at {user} t={t}, softmax of the mock logits is {expected!r}"
    return None


def check_probe_passes(passes: List[dict]) -> Optional[str]:
    """The cold pass sends each prompt it has not cached once, with no retry
    (repeated prompts in the split are cache hits); warm passes never send."""
    cold, warm = passes[0], passes[1:]
    if cold["network_requests"] + cold["cached"] != cold["prompts"]:
        return f"cold pass: {cold['network_requests']} requests + {cold['cached']} cached != {cold['prompts']} prompts"
    for i, p in enumerate(warm, start=1):
        if p["network_requests"] or p["cached"] != p["prompts"]:
            return f"warm pass {i}: {p['network_requests']} requests, {p['cached']}/{p['prompts']} cached"
    return None


CANONICAL_GLOBS = ("sequences.txt", "split.json", "vocab.json", "checkpoint.npz",
                   "dumps/*.csv", "reports/*.json", "reports/*.csv", "reports/*.svg")


def artifact_hashes(ws: Path) -> Dict[str, str]:
    out = {}
    for pattern in CANONICAL_GLOBS:
        for path in sorted(ws.glob(pattern)):
            out[str(path.relative_to(ws))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
