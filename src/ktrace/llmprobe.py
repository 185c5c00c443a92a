"""Probe an externally served causal language model for correctness logits.

The probe renders a fixed classification prompt over a student's history,
requests a single-token completion at temperature 0 with per-token top-k
log-probabilities, resolves the entries for the answer tokens "0" and "1"
(leading-space variants accepted when the bare tokens are absent), and turns
the pair into a correctness probability by two-way softmax. Nothing is ever
imputed: steps whose tokens cannot be resolved are flagged unresolved.

The probing protocols take students as a ``StepTable`` and the ``Vocab``
that names its indices. Each history's (quiz id, skill name, correctness)
lines come from the vocabulary in one place, which rejects a step the
vocabulary cannot name. Each protocol sends all of its students' prompts
through one ``fetch_many``, the mastery matrices of several students too.

A student's prompts are keyed from its history lines, each formatted,
JSON-escaped and hashed once (``ProbeClient.query_keys``), and only the cache
misses are rendered (``render_prompts``): a pass costs time linear in the
histories, and a fully cached pass renders no prompt text. Misses stream
through a fixed window of fetches, so a pass holds a window of prompts, not
all of them.

Wire protocol: HTTP POST with a JSON body in the shape of widely deployed
completion endpoints ({"model", "prompt", "max_tokens": 1, "temperature": 0,
"logprobs": depth}), responses carrying choices[0].logprobs.top_logprobs[0]
as a token -> logprob map. The endpoint path is configuration and the
bearer token, if any, is read from ``AUTH_TOKEN_ENV``; identical (model,
prompt) pairs are cached on disk. The transport is the standard library's
``urllib.request``: proxies come from the ``*_proxy`` environment variables
and HTTPS certificates are verified against the system trust store.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import hashlib
import itertools
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ingest import StepTable, Vocab
from .records import PROB_FLOOR, Predictions, step_rows

log = logging.getLogger(__name__)

CACHE_FILE = "cache.jsonl"

# The environment variable holding the endpoint's bearer token, if any.
AUTH_TOKEN_ENV = "KTRACE_API_TOKEN"

# Fetches submitted but not yet answered, per pool thread: the window of
# prompts a pass holds at once.
FETCH_WINDOW = 16

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
    max_concurrent: int = 4
    logprob_depth: int = 20
    history_limit: int = 100
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if not self.timeout > 0:  # NaN fails too
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.backoff >= 0:
            raise ValueError("backoff must be >= 0")
        if self.logprob_depth < 2:
            raise ValueError("logprob_depth must cover at least the two answer tokens")
        if self.history_limit is not None and self.history_limit < 1:
            raise ValueError("history_limit must be >= 1")


@dataclass(frozen=True)
class PromptRecord:
    """One rendered prompt: the system and user messages, and whether the
    history in ``user`` was cut to ``history_limit``."""

    system: str
    user: str
    truncated: bool = False

    @property
    def text(self) -> str:
        return f"{self.system}\n\n{self.user}"


@dataclass(frozen=True)
class LogitPair:
    l0: float
    l1: float


# (quiz id, skill name, correctness) per step; (n, (next quiz id, skill name)) per prompt
History = Sequence[Tuple[str, str, int]]
Queries = Sequence[Tuple[int, Tuple[str, str]]]

# A prompt's user text is USER_HEAD, one line per history entry (each led by
# its newline), then the next-quiz tail.
USER_HEAD = f"{USER_INTRO}\n\n{HISTORY_HEADER}"


def _history_lines(history: History) -> List[str]:
    return [
        f"\n{i}. Quiz {quiz} (Skill: {skill_name}) → {'Correct' if y == 1 else 'Incorrect'}"
        for i, (quiz, skill_name, y) in enumerate(history, start=1)
    ]


def _next_quiz_line(next_quiz: str, next_skill: str) -> str:
    return f"\n\nNext quiz: Quiz {next_quiz} (Skill: {next_skill})"


def render_prompts(
    history: History, queries: Queries, history_limit: Optional[int] = None
) -> List[PromptRecord]:
    """Render the fixed classification prompt for each (n, next item) query
    over the first n entries of one history.

    ``history`` is a sequence of (quiz id, skill name, correctness) triples;
    a next item is (quiz id, skill name). Each history line is formatted
    once and prompt n joins the first n lines, so the cost is linear in the
    history plus the prompt text. Identical inputs produce identical bytes.
    A prompt over more than ``history_limit`` entries keeps only the most
    recent ones, renumbered from 1, and sets the truncated flag.
    """
    lines = _history_lines(history)
    prompts = []
    for n, next_item in queries:
        next_quiz, next_skill = map(str, next_item)
        truncated = history_limit is not None and n > history_limit
        shown = _history_lines(history[:n][-history_limit:]) if truncated else lines[:n]
        prompts.append(
            PromptRecord(
                system=SYSTEM_MESSAGE,
                user=USER_HEAD + "".join(shown) + _next_quiz_line(next_quiz, next_skill),
                truncated=truncated,
            )
        )
    return prompts


def render_prompt(
    history: History, next_item: Tuple[str, str], history_limit: Optional[int] = None
) -> PromptRecord:
    """The prompt over all of ``history``: ``render_prompts`` with one query."""
    return render_prompts(history, [(len(history), next_item)], history_limit)[0]


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
    resolved: Dict[str, float] = {}
    for digit, variants in TOKEN_VARIANTS.items():
        for variant in variants:
            if variant in top_logprobs:
                resolved[digit] = float(top_logprobs[variant])
                break
    missing = [d for d in ("0", "1") if d not in resolved]
    if missing:
        raise UnresolvableLogitsError(
            f"unresolvable logits: token(s) {missing} absent from returned top-k "
            f"({sorted(top_logprobs)[:10]}...)"
        )
    return LogitPair(l0=resolved["0"], l1=resolved["1"])


class ProbeClient:
    """Issues completion requests with retries, bounded concurrency, and an
    on-disk cache. A prompt's cache key is the SHA-256 of its request body
    as sorted-key JSON, worked out by ``query_keys`` from the history lines;
    ``fetch_many`` answers the keys.

    The cache is one append-only JSON-lines file, ``<cache_dir>/cache.jsonl``,
    one sorted-key ``{"key", "top_logprobs"}`` object per line, indexed by
    ``_open_cache`` when the client opens: each key maps to its top-k map and
    its line. ``fetch_many`` appends the lines of its fetches in ask order.
    ``audit`` holds a ``(key, cached, line)`` per answer, the line its cache
    line with ``"cached"`` spliced in: a hand-edited line is audited as
    written. Telemetry: ``request_count`` counts network attempts (cache hits
    excluded), ``retries`` the attempts beyond the first of each fetch,
    ``cache_hits`` the prompts answered without a request,
    ``fetch_latencies_ms`` the wall time of each network fetch, and
    ``truncated_prompts`` the prompts keyed whose history was cut to
    ``history_limit``.
    """

    def __init__(self, config: ProbeConfig):
        self.config = config
        self._opener = None  # a urllib opener, built for the first miss
        self._count_lock = threading.Lock()  # the counts the pool threads update
        self.request_count = 0
        self.retries = 0
        self.cache_hits = 0
        self.truncated_prompts = 0
        self.fetch_latencies_ms: List[float] = []
        self.audit: List[Tuple[str, bool, str]] = []
        # Only the prompt varies between requests, so the JSON that the cache
        # key hashes is the prompt's JSON string between a fixed head and tail.
        head, _, tail = json.dumps(self._body(""), sort_keys=True).partition('"prompt": ""')
        # what every rendered prompt's key hashes before its first history line
        self._key_start = hashlib.sha256(
            (head + '"prompt": "').encode("utf-8") + _json_escape(f"{SYSTEM_MESSAGE}\n\n{USER_HEAD}")
        )
        self._key_end = ('"' + tail).encode("utf-8")
        self._cache_file: Optional[Path] = None
        self._cache: Dict[str, Tuple[Dict[str, float], str]] = {}
        if config.cache_dir:
            Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
            self._cache_file = Path(config.cache_dir) / CACHE_FILE
            self._cache = _open_cache(self._cache_file)

    @property
    def window(self) -> int:
        """The most fetches ``fetch_many`` keeps submitted but not answered."""
        return FETCH_WINDOW * self.config.max_concurrent

    # -- caching ------------------------------------------------------------

    def query_keys(self, history: History, queries: Queries) -> List[str]:
        """The cache key of each query's prompt, from the history lines alone
        (no prompt is rendered); counts the truncated prompts.

        JSON escapes a string one character at a time, so the escape of a
        text is the escapes of its pieces joined. One SHA-256 state runs over
        the key head and the escaped history lines once, in order of history
        length; each key finishes a copy of it with the query's escaped
        next-quiz tail. A truncated prompt renumbers its window, hashed alone.
        """
        limit = self.config.history_limit
        lines = _history_lines(history)
        keys = [""] * len(queries)
        state, hashed = self._key_start.copy(), 0
        for i in sorted(range(len(queries)), key=[n for n, _ in queries].__getitem__):
            n, (quiz, skill) = queries[i]
            if limit is not None and n > limit:
                key = self._key_start.copy()
                key.update(_json_escape("".join(_history_lines(history[:n][-limit:]))))
                self.truncated_prompts += 1
            else:
                state.update(_json_escape("".join(lines[hashed:n])))
                hashed, key = n, state.copy()
            key.update(_json_escape(_next_quiz_line(str(quiz), str(skill))) + self._key_end)
            keys[i] = key.hexdigest()
        return keys

    # -- transport ----------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _body(self, prompt_text: str) -> dict:
        return {
            "model": self.config.model,
            "prompt": prompt_text,
            "max_tokens": 1,
            "temperature": 0.0,
            "logprobs": self.config.logprob_depth,
        }

    def _post(self, prompt: PromptRecord) -> Dict[str, float]:
        # imported here, so commands that send no request never load ssl and http
        import http.client
        import urllib.error
        import urllib.request

        data = json.dumps(self._body(prompt.text)).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff * (2 ** (attempt - 1)))
            with self._count_lock:
                self.request_count += 1
                self.retries += attempt > 0
            request = urllib.request.Request(
                self.config.endpoint, data=data, headers=self._headers(), method="POST"
            )
            try:
                with self._opener.open(request, timeout=self.config.timeout) as response:
                    payload = json.loads(response.read())
                return dict(payload["choices"][0]["logprobs"]["top_logprobs"][0])
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", "replace")
                exc.close()
                if 400 <= exc.code < 500:
                    raise ProbeError(
                        f"endpoint rejected request ({exc.code}): {detail[:200]}"
                    ) from None
                last_error = exc
            except (OSError, http.client.HTTPException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
        raise ProbeError(
            f"probe failed after {self.config.max_retries + 1} attempts: {last_error}"
        )

    def fetch_top_logprobs(self, prompt: PromptRecord) -> Dict[str, float]:
        """Post ``prompt`` (with retries) and record the fetch's wall time."""
        start = time.perf_counter()
        top = self._post(prompt)
        fetch_ms = 1e3 * (time.perf_counter() - start)
        with self._count_lock:
            self.fetch_latencies_ms.append(fetch_ms)
        return top

    def fetch_many(
        self, keys: Sequence[str], render: Callable[[List[int]], Iterable[PromptRecord]],
        use_cache: bool = True,
    ) -> List[Dict[str, float]]:
        """Top-k maps for the prompts whose cache keys are ``keys``, in order.

        Hits are answered on the calling thread, recorded in one batch.
        ``render(misses)`` yields the prompts at the indices ``misses``, a
        prompt repeated within the call once; with no miss nothing is
        rendered and no pool or opener is built. Each prompt is taken from
        ``render`` only when fewer than ``window`` fetches are in flight,
        and sent by ``fetch_top_logprobs`` on one pool of ``max_concurrent``
        threads. The calling thread takes the answers in ask order and, when
        ``use_cache``, appends and flushes their cache lines, so the file
        repeats byte for byte. A ``ProbeError`` stops the submitting, cancels
        the fetches not yet started, writes the lines of the ones that
        finished and propagates.
        """
        tops: List[Optional[Dict[str, float]]] = [None] * len(keys)
        hits: List[Tuple[str, bool, str]] = []
        misses: List[int] = []
        fetched_as: Dict[str, int] = {}  # miss key -> index of the prompt sent for it
        repeats: List[Tuple[int, int]] = []
        cache = self._cache if use_cache else {}
        for i, key in enumerate(keys):
            entry = cache.get(key)
            if entry is not None:
                tops[i] = entry[0]
                hits.append((key, True, _audit_line(True, entry[1])))
            elif use_cache and key in fetched_as:
                repeats.append((i, fetched_as[key]))
            else:
                fetched_as[key] = i
                misses.append(i)
        if misses:
            self._fetch_misses(keys, misses, render(misses), tops, use_cache)
        for i, j in repeats:
            tops[i] = tops[j]
            hits.append((keys[i], True, _audit_line(True, _cache_line(keys[i], tops[j]))))
        self.cache_hits += len(hits)
        self.audit += hits
        return tops  # type: ignore[return-value]

    def _fetch_misses(
        self, keys: Sequence[str], misses: List[int], prompts: Iterable[PromptRecord],
        tops: List[Optional[Dict[str, float]]], use_cache: bool,
    ) -> None:
        """Send ``prompts``, the prompts of the keys at ``misses``, through a
        window of fetches, and answer each into ``tops`` in ask order."""
        import urllib.request

        if self._opener is None:
            self._opener = urllib.request.build_opener()  # proxies from the environment
        prompts = iter(prompts)
        pending: collections.deque = collections.deque()  # (index, future), in ask order
        with contextlib.ExitStack() as stack:
            out = None
            if use_cache and self._cache_file is not None:
                out = stack.enter_context(open(self._cache_file, "a", encoding="utf-8", newline="\n"))
            pool = ThreadPoolExecutor(max_workers=self.config.max_concurrent)
            stack.callback(pool.shutdown, cancel_futures=True)

            def answer(i: int, top: Dict[str, float]) -> None:
                line = _cache_line(keys[i], top)
                if out is not None:
                    out.write(line + "\n")
                    out.flush()
                    self._cache[keys[i]] = (top, line)
                self.audit.append((keys[i], False, _audit_line(False, line)))
                tops[i] = top

            try:
                for i in misses:
                    if len(pending) == self.window:
                        j, future = pending.popleft()
                        answer(j, future.result())
                    pending.append((i, pool.submit(self.fetch_top_logprobs, next(prompts))))
                while pending:
                    j, future = pending.popleft()
                    answer(j, future.result())
            except ProbeError:
                pool.shutdown(cancel_futures=True)  # waits for the fetches running
                for j, future in pending:
                    if not future.cancelled() and future.exception() is None:
                        answer(j, future.result())
                raise

    def telemetry(self) -> dict:
        """The run's counts for the probe report; latency percentiles are
        null when nothing was fetched."""
        latency = {"n": len(self.fetch_latencies_ms), "p50": None, "p95": None}
        if self.fetch_latencies_ms:
            p50, p95 = np.percentile(self.fetch_latencies_ms, [50, 95])
            latency.update(p50=float(p50), p95=float(p95))
        return {
            "network_requests": self.request_count,
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "fetch_latency_ms": latency,
            "truncated_prompts": self.truncated_prompts,
        }


def _json_escape(text: str) -> bytes:
    """``text`` as ``json.dumps`` writes it inside a string's quotes."""
    return encode_basestring_ascii(text)[1:-1].encode("ascii")


def _cache_line(key: str, top_logprobs: Dict[str, float]) -> str:
    return json.dumps({"key": key, "top_logprobs": top_logprobs}, sort_keys=True)


def _audit_line(cached: bool, cache_line: str) -> str:
    """The cache line with ``"cached"`` spliced in first, as sorted-key JSON puts it."""
    return ('{"cached": true, ' if cached else '{"cached": false, ') + cache_line[1:]


def _open_cache(path: Path) -> Dict[str, Tuple[Dict[str, float], str]]:
    """Index the cache file by key: top-k map and line, read one line at a
    time, each stripped of JSON whitespace and holding one JSON object. A
    trailing line that a crash left torn (no final newline, or not
    parseable) is cut off, so the next append starts a line of its own; any
    other unparseable line is skipped; a later entry wins. A key not indexed
    is fetched again."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    *lines, tail = data.split(b"\n")
    index = {}
    keep = len(data) - len(tail)
    scan = json.JSONDecoder().scan_once
    for n, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8").strip(" \t\r")
            entry, end = scan(text, 0)
            if end == len(text):
                index[entry["key"]] = (dict(entry["top_logprobs"]), text)
                continue
        except (StopIteration, ValueError, KeyError, TypeError):
            pass
        if n == len(lines) and not tail:
            keep -= len(line) + 1
        else:
            log.warning("%s: line %d is not a cache entry; skipped", path, n)
    if keep < len(data):
        log.warning("%s: cut a torn trailing entry (%d bytes)", path, len(data) - keep)
        os.truncate(path, keep)
    return index


# ---------------------------------------------------------------------------
# probing protocols


def _histories(table: StepTable, vocab: Vocab) -> List[History]:
    """Each student's (quiz id, skill name, correctness) triples, from the
    vocabulary's tables. A step whose skill or quiz index has no vocabulary
    entry, or whose label is not 0/1, raises ValueError naming its student."""
    skill, quiz, label = table.skill, table.quiz, table.label
    bad = np.flatnonzero(
        (skill < 0) | (skill >= vocab.k) | (quiz < 0) | (quiz >= len(vocab.quiz_ids))
        | ((label != 0) & (label != 1))
    )
    if bad.size:
        i = int(bad[0])
        student = int(np.searchsorted(table.offsets, i, side="right")) - 1
        raise ValueError(
            f"student {table.user_ids[student]}: step {i - int(table.offsets[student])} holds "
            f"skill {skill[i]}, quiz {quiz[i]}, label {label[i]}; the vocabulary has "
            f"{vocab.k} skills and {len(vocab.quiz_ids)} quizzes, and a label is 0 or 1"
        )
    triples = list(zip(
        map(vocab.quiz_ids.__getitem__, quiz.tolist()),
        map(vocab.skill_names.__getitem__, skill.tolist()),
        label.tolist(),
    ))
    bounds = table.offsets.tolist()
    return [triples[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _step_probability(top: Dict[str, float]) -> Tuple[float, Optional[str]]:
    """The step's probability, or NaN and the reason it is unresolved."""
    try:
        p = prob_from_logits(resolve_logit_pair(top))
    except UnresolvableLogitsError as exc:
        return math.nan, str(exc)
    # extreme logit gaps round to exactly 0/1 in float64; keep records open
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR), None


def _fetch_tops(
    client: ProbeClient, students: Sequence[Tuple[History, Queries]], use_cache: bool
) -> List[Dict[str, float]]:
    """Top-k maps for the (history, queries) of each student, in order, from
    one ``fetch_many``; only the misses are rendered, per student, in slices
    of at most the client's window."""
    keys = [key for history, queries in students for key in client.query_keys(history, queries)]
    starts = list(itertools.accumulate((len(queries) for _, queries in students), initial=0))

    def render(misses: List[int]) -> Iterable[PromptRecord]:
        for s, group in itertools.groupby(misses, key=lambda i: bisect.bisect_right(starts, i) - 1):
            history, queries = students[s]
            asked = [queries[i - starts[s]] for i in group]
            for at in range(0, len(asked), client.window):
                yield from render_prompts(history, asked[at:at + client.window], client.config.history_limit)

    return client.fetch_many(keys, render, use_cache)


def probe_sequences(
    client: ProbeClient, table: StepTable, vocab: Vocab, tag: str, use_cache: bool = True,
) -> Tuple[Predictions, List[str]]:
    """Next-step correctness probabilities for targets t = 1..T-1 of each
    student of ``table``, with every prompt sent in one ``fetch_many``.

    Emits exactly T-1 rows per student, students in table order and steps
    in order; unresolved steps carry NaN. Returns (table, per-step error
    messages).
    """
    sizes = np.diff(table.offsets)
    short = np.flatnonzero(sizes < 2)
    if short.size:
        i = int(short[0])
        raise ValueError(f"student {table.user_ids[i]}: probing needs at least 2 steps, got {sizes[i]}")
    work = [
        (history, [(t, history[t][:2]) for t in range(1, len(history))])
        for history in _histories(table, vocab)
    ]
    results = [_step_probability(top) for top in _fetch_tops(client, work, use_cache)]
    preds = step_rows(
        table.user_ids, sizes, table.skill, table.label, [p for p, _ in results], tag, first_step=1,
    )
    errors = [
        f"{user_id} t={t}: {err}"
        for user_id, t, (_, err) in zip(preds.user.tolist(), preds.step.tolist(), results)
        if err
    ]
    return preds, errors


def probe_sequence(
    client: ProbeClient, student: StepTable, vocab: Vocab, tag: str
) -> Tuple[Predictions, List[str]]:
    """``probe_sequences`` for a one-student table."""
    return probe_sequences(client, student, vocab, tag)


def probe_mastery(
    client: ProbeClient, table: StepTable, vocab: Vocab, representative_quiz: Sequence[int],
) -> List[np.ndarray]:
    """The (T, K) mastery matrix of each student of ``table``: row t probes
    every skill after the first t + 1 steps, with that skill's representative
    quiz (an index into ``vocab.quiz_ids``) as the next quiz. Issues T * K
    prompts per student, all in one ``fetch_many``, so a prompt two students
    share is sent once; unresolved cells are NaN."""
    k = vocab.k
    if len(representative_quiz) != k or not all(0 <= q < len(vocab.quiz_ids) for q in representative_quiz):
        raise ValueError(
            f"representative_quiz must hold one vocabulary quiz index per skill: {representative_quiz}"
        )
    sizes = np.diff(table.offsets)
    if not sizes.all():
        raise ValueError(f"student {table.user_ids[np.argmin(sizes)]}: probe_mastery needs at least 1 step")
    next_items = [(vocab.quiz_ids[q], name) for q, name in zip(representative_quiz, vocab.skill_names)]
    work = [
        (history, [(t, item) for t in range(1, len(history) + 1) for item in next_items])
        for history in _histories(table, vocab)
    ]
    tops = _fetch_tops(client, work, use_cache=True)
    p = np.array([_step_probability(top)[0] for top in tops]).reshape(-1, k)
    bounds = table.offsets.tolist()
    return [p[start:stop] for start, stop in zip(bounds, bounds[1:])]


@dataclass
class StabilityReport:
    """Outcome of one student's double-run comparison at temperature 0."""

    user_id: str
    n_steps: int
    max_delta: float
    n_nonzero: int
    n_resolution_mismatches: int
    stable: bool = field(init=False)

    def __post_init__(self):
        self.stable = self.max_delta == 0.0 and self.n_resolution_mismatches == 0


def stability_reports(
    client: ProbeClient, table: StepTable, vocab: Vocab, first: Predictions, tag: str,
) -> List[StabilityReport]:
    """Probe the students of ``table`` once more and report each student's
    probability deltas against ``first``, the table a pass over the same
    students returned.

    The rerun bypasses the cache so its probabilities come from actual
    inference; at temperature 0 every delta should be zero.
    """
    second, _ = probe_sequences(client, table, vocab, tag, use_cache=False)
    unresolved_a, unresolved_b = np.isnan(first.p), np.isnan(second.p)
    mismatch = unresolved_a != unresolved_b
    delta = np.where(unresolved_a | unresolved_b, 0.0, np.abs(first.p - second.p))
    bounds = (table.offsets - np.arange(len(table.offsets))).tolist()  # T - 1 rows per student
    return [
        StabilityReport(
            user_id=user_id,
            n_steps=end - start,
            max_delta=float(delta[start:end].max(initial=0.0)),
            n_nonzero=int(np.count_nonzero(delta[start:end])),
            n_resolution_mismatches=int(np.count_nonzero(mismatch[start:end])),
        )
        for user_id, start, end in zip(table.user_ids, bounds, bounds[1:])
    ]
