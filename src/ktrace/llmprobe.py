"""Probe an externally served causal language model for correctness logits.

The probe renders a fixed classification prompt over a student's history,
requests a single-token completion at temperature 0 with per-token top-k
log-probabilities, resolves the entries for the answer tokens "0" and "1"
(leading-space variants accepted when the bare tokens are absent), and turns
the pair into a correctness probability by two-way softmax. Nothing is ever
imputed: steps whose tokens cannot be resolved are flagged unresolved.

Wire protocol: HTTP POST with a JSON body in the shape of widely deployed
completion endpoints ({"model", "prompt", "max_tokens": 1, "temperature": 0,
"logprobs": depth}), responses carrying choices[0].logprobs.top_logprobs[0]
as a token -> logprob map. The endpoint path and auth token are
configuration; identical (model, prompt) pairs are cached on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import requests

from .records import MasteryTrajectory, PredictionRecord

import numpy as np

SYSTEM_MESSAGE = (
    "You are a classification model. Output only a single token: either 0 or 1. "
    "Do not generate explanations or additional text."
)

USER_INTRO = (
    "The following is a student's problem-solving history. "
    "Predict whether the next answer will be correct (1) or incorrect (0)."
)

HISTORY_HEADER = "Student's past performance:"

TOKEN_VARIANTS = {"0": ("0", " 0"), "1": ("1", " 1")}


class ProbeError(RuntimeError):
    """Transport-level probe failure after retries."""


class UnresolvableLogitsError(ProbeError):
    """The returned top-k lacks one or both answer tokens."""


@dataclass(frozen=True)
class ProbeConfig:
    endpoint: str
    model: str
    timeout: float = 60.0
    max_retries: int = 3
    backoff: float = 0.5
    max_concurrent: int = 1
    temperature: float = 0.0
    logprob_depth: int = 20
    history_limit: int = 100
    cache_dir: Optional[str] = None
    auth_token_env: str = "KTRACE_API_TOKEN"

    def __post_init__(self):
        if self.temperature != 0.0:
            raise ValueError("probe inference is deterministic: temperature must be 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.logprob_depth < 2:
            raise ValueError("logprob_depth must cover at least the two answer tokens")


@dataclass(frozen=True)
class PromptRecord:
    system: str
    user: str
    history_length: int
    next_quiz: str
    next_skill_name: str
    truncated: bool = False

    @property
    def text(self) -> str:
        return f"{self.system}\n\n{self.user}"


@dataclass(frozen=True)
class LogitPair:
    l0: float
    l1: float
    token0: str
    token1: str


@dataclass(frozen=True)
class DisplayStep:
    """One interaction with both display strings (for the prompt) and dense
    indices (for the emitted records)."""

    quiz: str
    skill_name: str
    skill: int
    y: int


def render_prompt(
    history: Sequence[Tuple[str, str, int]],
    next_item: Tuple[str, str],
    history_limit: Optional[int] = None,
) -> PromptRecord:
    """Render the fixed classification prompt.

    ``history`` is a sequence of (quiz id, skill name, correctness) triples;
    ``next_item`` is (quiz id, skill name). Identical inputs produce
    identical bytes. Histories longer than ``history_limit`` keep only the
    most recent entries, renumbered from 1, and set the truncated flag.
    """
    truncated = False
    shown = list(history)
    if history_limit is not None and len(shown) > history_limit:
        shown = shown[-history_limit:]
        truncated = True
    lines = [USER_INTRO, "", HISTORY_HEADER]
    for i, (quiz, skill_name, y) in enumerate(shown, start=1):
        outcome = "Correct" if y == 1 else "Incorrect"
        lines.append(f"{i}. Quiz {quiz} (Skill: {skill_name}) → {outcome}")
    next_quiz, next_skill = next_item
    lines.append("")
    lines.append(f"Next quiz: Quiz {next_quiz} (Skill: {next_skill})")
    return PromptRecord(
        system=SYSTEM_MESSAGE,
        user="\n".join(lines),
        history_length=len(shown),
        next_quiz=str(next_quiz),
        next_skill_name=str(next_skill),
        truncated=truncated,
    )


def prob_from_logits(pair: LogitPair) -> float:
    """P(correct) by two-way softmax over the answer-token logits, computed
    with max subtraction for stability."""
    m = max(pair.l0, pair.l1)
    e0 = math.exp(pair.l0 - m)
    e1 = math.exp(pair.l1 - m)
    return e1 / (e0 + e1)


def resolve_logit_pair(top_logprobs: Dict[str, float]) -> LogitPair:
    """Pick the answer-token entries out of a top-k map.

    Bare "0"/"1" are preferred; single-leading-space variants are accepted
    when a bare token is absent. Both tokens must resolve.
    """
    resolved: Dict[str, Tuple[str, float]] = {}
    for digit, variants in TOKEN_VARIANTS.items():
        for variant in variants:
            if variant in top_logprobs:
                resolved[digit] = (variant, float(top_logprobs[variant]))
                break
    missing = [d for d in ("0", "1") if d not in resolved]
    if missing:
        raise UnresolvableLogitsError(
            f"unresolvable logits: token(s) {missing} absent from returned top-k "
            f"({sorted(top_logprobs)[:10]}...)"
        )
    return LogitPair(
        l0=resolved["0"][1],
        l1=resolved["1"][1],
        token0=resolved["0"][0],
        token1=resolved["1"][0],
    )


class ProbeClient:
    """Issues completion requests with retries, bounded concurrency, and an
    on-disk cache keyed by content hash of (model, prompt, request params).

    ``request_count`` counts actual network calls (cache hits excluded).
    """

    def __init__(self, config: ProbeConfig, session: Optional[requests.Session] = None):
        self.config = config
        self._session = session or requests.Session()
        self._write_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self.request_count = 0
        self.audit: List[dict] = []  # raw top-k returns, for the audit log
        if config.cache_dir:
            Path(config.cache_dir).mkdir(parents=True, exist_ok=True)

    # -- caching ------------------------------------------------------------

    def _cache_key(self, prompt: PromptRecord) -> str:
        payload = json.dumps(
            {
                "model": self.config.model,
                "prompt": prompt.text,
                "max_tokens": 1,
                "temperature": self.config.temperature,
                "logprobs": self.config.logprob_depth,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _cache_path(self, key: str) -> Optional[Path]:
        if not self.config.cache_dir:
            return None
        return Path(self.config.cache_dir) / f"{key}.json"

    def _cache_read(self, key: str) -> Optional[Dict[str, float]]:
        """Cached top-k for ``key``, or None on a miss. A torn or malformed
        entry is a miss too, so the prompt is fetched and the entry rewritten."""
        path = self._cache_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)["top_logprobs"]
        except (ValueError, KeyError, TypeError):
            return None

    def _cache_write(self, key: str, top_logprobs: Dict[str, float]) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        tmp = path.with_suffix(".tmp")
        with self._write_lock:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"top_logprobs": top_logprobs}, fh, sort_keys=True)
            os.replace(tmp, path)

    # -- transport ----------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, prompt: PromptRecord) -> Dict[str, float]:
        body = {
            "model": self.config.model,
            "prompt": prompt.text,
            "max_tokens": 1,
            "temperature": self.config.temperature,
            "logprobs": self.config.logprob_depth,
        }
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff * (2 ** (attempt - 1)))
            try:
                with self._count_lock:
                    self.request_count += 1
                response = self._session.post(
                    self.config.endpoint,
                    json=body,
                    headers=self._headers(),
                    timeout=self.config.timeout,
                )
                if 400 <= response.status_code < 500:
                    raise ProbeError(
                        f"endpoint rejected request ({response.status_code}): "
                        f"{response.text[:200]}"
                    )
                response.raise_for_status()
                payload = response.json()
                return dict(payload["choices"][0]["logprobs"]["top_logprobs"][0])
            except ProbeError:
                raise
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                last_error = exc
        raise ProbeError(
            f"probe failed after {self.config.max_retries + 1} attempts: {last_error}"
        )

    def fetch_top_logprobs(self, prompt: PromptRecord, use_cache: bool = True) -> Dict[str, float]:
        key = self._cache_key(prompt)
        cached = self._cache_read(key) if use_cache else None
        top = cached if cached is not None else self._post(prompt)
        if use_cache and cached is None:
            self._cache_write(key, top)
        with self._count_lock:
            self.audit.append(
                {"key": key, "cached": cached is not None, "top_logprobs": top}
            )
        return top

    def request_logits(self, prompt: PromptRecord, use_cache: bool = True) -> LogitPair:
        return resolve_logit_pair(self.fetch_top_logprobs(prompt, use_cache=use_cache))


# ---------------------------------------------------------------------------
# probing protocols


def _history_triples(steps: Sequence[DisplayStep]) -> List[Tuple[str, str, int]]:
    return [(s.quiz, s.skill_name, s.y) for s in steps]


PROB_FLOOR = 1e-12  # emitted probabilities stay inside the open unit interval


def _step_probability(
    client: ProbeClient, prompt: PromptRecord, use_cache: bool
) -> Tuple[Optional[float], Optional[str]]:
    try:
        pair = client.request_logits(prompt, use_cache=use_cache)
        p = prob_from_logits(pair)
        # extreme logit gaps round to exactly 0/1 in float64; keep records open
        return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR), None
    except UnresolvableLogitsError as exc:
        return None, str(exc)


def probe_sequence(
    client: ProbeClient,
    user_id: str,
    steps: Sequence[DisplayStep],
    tag: str,
    use_cache: bool = True,
) -> Tuple[List[PredictionRecord], List[str]]:
    """Next-step correctness probabilities for targets t = 1..T-1.

    Emits exactly T-1 records in step order; unresolved steps carry a null
    probability. Returns (records, per-step error messages).
    """
    if len(steps) < 2:
        raise ValueError("probe_sequence needs at least 2 steps")
    prompts = [
        render_prompt(
            _history_triples(steps[:t]),
            (steps[t].quiz, steps[t].skill_name),
            history_limit=client.config.history_limit,
        )
        for t in range(1, len(steps))
    ]
    with ThreadPoolExecutor(max_workers=client.config.max_concurrent) as pool:
        results = list(
            pool.map(lambda pr: _step_probability(client, pr, use_cache), prompts)
        )
    records: List[PredictionRecord] = []
    errors: List[str] = []
    for t, (p, err) in enumerate(results, start=1):
        step = steps[t]
        records.append(
            PredictionRecord(
                user_id=user_id,
                step=t,
                skill=step.skill,
                y_true=step.y,
                p=p,
                model_tag=tag,
            )
        )
        if err:
            errors.append(f"{user_id} t={t}: {err}")
    return records, errors


def probe_mastery(
    client: ProbeClient,
    user_id: str,
    steps: Sequence[DisplayStep],
    skill_names: Sequence[str],
    representative_quiz: Sequence[str],
    use_cache: bool = True,
) -> MasteryTrajectory:
    """Full T x K mastery matrix: after each observed step, one probe per
    skill with that skill's representative item as the next quiz. Issues
    exactly T * K prompts; unresolved cells are NaN and flagged."""
    if len(steps) < 1:
        raise ValueError("probe_mastery needs at least 1 step")
    k = len(skill_names)
    if len(representative_quiz) != k:
        raise ValueError("representative_quiz must align with skill_names")
    jobs: List[Tuple[int, int, PromptRecord]] = []
    for t in range(len(steps)):
        history = _history_triples(steps[: t + 1])
        for skill in range(k):
            prompt = render_prompt(
                history,
                (representative_quiz[skill], skill_names[skill]),
                history_limit=client.config.history_limit,
            )
            jobs.append((t, skill, prompt))
    with ThreadPoolExecutor(max_workers=client.config.max_concurrent) as pool:
        results = list(
            pool.map(lambda job: _step_probability(client, job[2], use_cache), jobs)
        )
    p = np.full((len(steps), k), np.nan)
    unresolved: List[Tuple[int, int]] = []
    for (t, skill, _), (prob, err) in zip(jobs, results):
        if prob is None:
            unresolved.append((t, skill))
        else:
            p[t, skill] = prob
    return MasteryTrajectory(
        user_id=user_id,
        p=p,
        steps=[(s.skill, -1, s.y) for s in steps],
        unresolved=tuple(unresolved),
    )


@dataclass
class StabilityReport:
    """Outcome of the double-run comparison at temperature 0."""

    n_steps: int
    max_delta: float
    n_nonzero: int
    n_resolution_mismatches: int

    @property
    def stable(self) -> bool:
        return self.max_delta == 0.0 and self.n_resolution_mismatches == 0

    def to_dict(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "max_delta": self.max_delta,
            "n_nonzero": self.n_nonzero,
            "n_resolution_mismatches": self.n_resolution_mismatches,
            "stable": self.stable,
        }


def double_run_deltas(
    client: ProbeClient, user_id: str, steps: Sequence[DisplayStep], tag: str
) -> StabilityReport:
    """Probe the same sequence twice and report probability deltas.

    The second run bypasses the cache so both probabilities come from actual
    inference; at temperature 0 every delta should be zero.
    """
    first, _ = probe_sequence(client, user_id, steps, tag, use_cache=True)
    second, _ = probe_sequence(client, user_id, steps, tag, use_cache=False)
    max_delta = 0.0
    nonzero = 0
    mismatches = 0
    for a, b in zip(first, second):
        if (a.p is None) != (b.p is None):
            mismatches += 1
            continue
        if a.p is None:
            continue
        delta = abs(a.p - b.p)
        if delta > 0:
            nonzero += 1
        max_delta = max(max_delta, delta)
    return StabilityReport(
        n_steps=len(first),
        max_delta=max_delta,
        n_nonzero=nonzero,
        n_resolution_mismatches=mismatches,
    )


def display_steps(
    sequence_steps: Sequence[Tuple[int, int, int]],
    skill_names: Sequence[str],
    quiz_ids: Sequence[str],
) -> List[DisplayStep]:
    """Dense-index steps -> display steps using the vocabulary tables."""
    out = []
    for skill, quiz, y in sequence_steps:
        out.append(
            DisplayStep(
                quiz=str(quiz_ids[quiz]) if 0 <= quiz < len(quiz_ids) else str(quiz),
                skill_name=skill_names[skill],
                skill=skill,
                y=y,
            )
        )
    return out
