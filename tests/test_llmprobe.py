from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time

import numpy as np
import pytest

from ktrace.llmprobe import (
    AUTH_TOKEN_ENV,
    FETCH_WINDOW,
    HISTORY_HEADER,
    PROB_FLOOR,
    SYSTEM_MESSAGE,
    USER_INTRO,
    LogitPair,
    ProbeClient,
    ProbeConfig,
    ProbeError,
    UnresolvableLogitsError,
    _histories,
    prob_from_logits,
    probe_mastery,
    probe_sequence,
    probe_sequences,
    render_prompt,
    render_prompts,
    resolve_logit_pair,
    stability_reports,
    _step_probability,
)

from ktrace.ingest import StudentSequence, Vocab
from mockllm import MockLLMServer, ServerFailure, logits_from_prompt
from predtable import rows_of
from steptable import table_of

SKILL = "Addition and Subtraction Integers"

WORKED_EXAMPLE_TEXT = (
    "You are a classification model. Output only a single token: either 0 or 1. "
    "Do not generate explanations or additional text."
    "\n\n"
    "The following is a student's problem-solving history. "
    "Predict whether the next answer will be correct (1) or incorrect (0)."
    "\n\n"
    "Student's past performance:\n"
    "1. Quiz 3948 (Skill: Addition and Subtraction Integers) → Correct\n"
    "2. Quiz 3949 (Skill: Addition and Subtraction Integers) → Incorrect\n"
    "\n"
    "Next quiz: Quiz 3950 (Skill: Addition and Subtraction Integers)"
)


def probe_config(endpoint: str, **kwargs) -> ProbeConfig:
    defaults = dict(
        endpoint=endpoint,
        model="test-model",
        timeout=5.0,
        max_retries=1,
        backoff=0.01,
        max_concurrent=2,
    )
    defaults.update(kwargs)
    return ProbeConfig(**defaults)


TOY_VOCAB = Vocab(skill_ids=("0",), quiz_ids=tuple(str(3948 + i) for i in range(8)), skill_names=(SKILL,))


def toy_step_list(n: int = 3) -> list:
    """``n`` steps of skill 0 on quizzes 3948, 3949, ... of ``TOY_VOCAB``,
    correct, incorrect, correct, ..."""
    return [(0, i, (i + 1) % 2) for i in range(n)]


def toy_steps(n: int = 3):
    """A one-student table of ``toy_step_list(n)``."""
    return table_of([StudentSequence("u1", toy_step_list(n))])


# ---------------------------------------------------------------------------
# prompt rendering


def history_numbers(user: str) -> list:
    """The numbers of a prompt's history lines, in order."""
    return [int(n) for n in re.findall(r"\n(\d+)\. Quiz ", user)]


def test_render_prompt_reproduces_worked_example_byte_exactly():
    record = render_prompt(
        [("3948", SKILL, 1), ("3949", SKILL, 0)],
        ("3950", SKILL),
    )
    assert record.text == WORKED_EXAMPLE_TEXT
    assert history_numbers(record.user) == [1, 2]
    assert record.user.endswith(f"\n\nNext quiz: Quiz 3950 (Skill: {SKILL})")
    assert not record.truncated


def test_render_prompt_empty_history():
    record = render_prompt([], ("10", "Ratio"))
    assert history_numbers(record.user) == []
    assert record.user.endswith("Next quiz: Quiz 10 (Skill: Ratio)")
    assert "Student's past performance:\n\nNext quiz:" in record.user
    assert "1." not in record.user


def test_render_prompt_is_deterministic():
    history = [("1", "A", 1), ("2", "B", 0)]
    a = render_prompt(history, ("3", "A"))
    b = render_prompt(history, ("3", "A"))
    assert a.text == b.text


def test_render_prompt_injective_on_distinct_inputs():
    rng = np.random.default_rng(5)
    seen = {}
    for _ in range(200):
        history = tuple(
            (str(rng.integers(0, 5)), f"S{rng.integers(0, 3)}", int(rng.integers(0, 2)))
            for _ in range(rng.integers(0, 4))
        )
        nxt = (str(rng.integers(0, 5)), f"S{rng.integers(0, 3)}")
        text = render_prompt(list(history), nxt).text
        key = (history, nxt)
        if text in seen:
            assert seen[text] == key  # collisions only for identical inputs
        seen[text] = key


def test_render_prompt_truncates_and_flags():
    history = [(str(i), "A", i % 2) for i in range(10)]
    record = render_prompt(history, ("99", "A"), history_limit=4)
    assert record.truncated
    assert history_numbers(record.user) == [1, 2, 3, 4]
    # kept window is the most recent entries, renumbered from 1
    assert "1. Quiz 6 (Skill: A)" in record.user
    assert "Quiz 5 (" not in record.user


# Pieces of display text that JSON escapes differently: non-ASCII, non-BMP,
# a lone surrogate, quotes, backslashes, newlines and control characters.
HOSTILE_PIECES = [
    "a", "Z", "7", " ", "é", "Ä", "中", "→", "\U0001F600", "\U00010348", "\ud800",
    '"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", '"prompt": ""',
]
LIMITS = [None, 1, 3, 100]


def reference_render(history, next_item, history_limit=None):
    """The prompt written out line by line, one prompt at a time."""
    shown = list(history)
    truncated = history_limit is not None and len(shown) > history_limit
    if truncated:
        shown = shown[-history_limit:]
    lines = [USER_INTRO, "", HISTORY_HEADER]
    for i, (quiz, skill_name, y) in enumerate(shown, start=1):
        outcome = "Correct" if y == 1 else "Incorrect"
        lines.append(f"{i}. Quiz {quiz} (Skill: {skill_name}) → {outcome}")
    lines += ["", f"Next quiz: Quiz {next_item[0]} (Skill: {next_item[1]})"]
    return SYSTEM_MESSAGE + "\n\n" + "\n".join(lines), truncated


def hostile_history(rng, length):
    def text():
        return "".join(rng.choice(HOSTILE_PIECES, size=rng.integers(0, 5)))

    history = [(text(), text(), int(rng.integers(0, 2))) for _ in range(length)]
    items = [(text(), text()) for _ in range(3)]
    return history, items


def hostile_queries(rng, history, items):
    """History lengths 0 to 5, both sides of each limit and the whole
    history, each with several next items as the mastery probe asks, in a
    shuffled order."""
    lengths = sorted({*range(min(len(history), 5) + 1), 99, 100, 101, len(history)})
    queries = [(n, item) for n in lengths if n <= len(history) for item in items]
    rng.shuffle(queries)
    return queries


def test_render_prompts_equal_one_prompt_renders():
    rng = np.random.default_rng(15)
    compared = 0
    for trial in range(50):
        history, items = hostile_history(rng, 102 if trial < 5 else int(rng.integers(0, 8)))
        queries = hostile_queries(rng, history, items)
        for limit in LIMITS:
            for (n, item), prompt in zip(queries, render_prompts(history, queries, limit)):
                assert prompt == render_prompt(history[:n], item, limit)
                assert (prompt.text, prompt.truncated) == reference_render(history[:n], item, limit)
                compared += 1
    assert compared > 2000


def request_key(model, prompt):
    """The cache key: SHA-256 of the request body as sorted-key JSON."""
    payload = {
        "model": model,
        "prompt": prompt.text,
        "max_tokens": 1,
        "temperature": 0.0,
        "logprobs": 20,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("model", ["test-model", 'a "prompt": "" model', 'ü"prompt": ""\U0001F600'])
def test_prompt_keys_equal_cache_keys(model):
    rng = np.random.default_rng(16)
    compared = 0
    for trial in range(50):
        history, items = hostile_history(rng, 102 if trial < 5 else int(rng.integers(0, 8)))
        queries = hostile_queries(rng, history, items)
        for limit in LIMITS:
            client = ProbeClient(ProbeConfig(endpoint="http://unused", model=model, history_limit=limit))
            prompts = render_prompts(history, queries, limit)
            assert client.query_keys(history, queries) == [request_key(model, p) for p in prompts]
            compared += len(prompts)
    assert compared > 2000


# ---------------------------------------------------------------------------
# probability conversion


def test_prob_equal_logits_is_half():
    assert prob_from_logits(LogitPair(-1.0, -1.0)) == pytest.approx(0.5, abs=1e-15)


def test_prob_log3_gap_is_three_quarters():
    pair = LogitPair(l0=-2.0, l1=-2.0 + math.log(3.0))
    assert prob_from_logits(pair) == pytest.approx(0.75, abs=1e-12)


def test_prob_matches_softmax_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        l0, l1 = rng.uniform(-50, 50, size=2)
        got = prob_from_logits(LogitPair(l0, l1))
        expected = math.exp(l1) / (math.exp(l0) + math.exp(l1))
        assert got == pytest.approx(expected, abs=1e-12)


def test_prob_shift_invariance_and_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        l0, l1, c = rng.uniform(-20, 20, size=3)
        base = prob_from_logits(LogitPair(l0, l1))
        shifted = prob_from_logits(LogitPair(l0 + c, l1 + c))
        assert shifted == pytest.approx(base, abs=1e-12)
        assert prob_from_logits(LogitPair(l0, l1 + 0.1)) > base
        assert prob_from_logits(LogitPair(l0 + 0.1, l1)) < base


def test_prob_extreme_logits_are_stable():
    assert prob_from_logits(LogitPair(-1000.0, 0.0)) == pytest.approx(1.0)
    assert prob_from_logits(LogitPair(0.0, -1000.0)) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# logit resolution


def test_resolve_passthrough():
    pair = resolve_logit_pair({"0": -0.105, "1": -2.303})
    assert pair.l0 == pytest.approx(-0.105)
    assert pair.l1 == pytest.approx(-2.303)
    assert pair == LogitPair(-0.105, -2.303)


def test_resolve_accepts_leading_space_variants():
    pair = resolve_logit_pair({" 0": -0.2, " 1": -1.5, "x": -3.0})
    assert (pair.l0, pair.l1) == (-0.2, -1.5)


def test_resolve_prefers_bare_tokens():
    pair = resolve_logit_pair({"0": -0.1, " 0": -9.0, "1": -0.2, " 1": -9.0})
    assert (pair.l0, pair.l1) == (-0.1, -0.2)


def test_resolve_missing_both_tokens_errors():
    with pytest.raises(UnresolvableLogitsError):
        resolve_logit_pair({"yes": -0.1, "no": -0.2})


def test_resolve_missing_one_token_errors():
    with pytest.raises(UnresolvableLogitsError, match="'0'"):
        resolve_logit_pair({"1": -0.1, "x": -5.0})


def reference_step_probability(top):
    """The step probability written out as resolve, softmax, clip."""
    try:
        p = prob_from_logits(resolve_logit_pair(top))
    except UnresolvableLogitsError as exc:
        return math.nan, str(exc)
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR), None


def random_top(rng):
    """A top-k map with bare and space-variant answer tokens, one or both
    missing, float or integer logprobs, gaps up to 800 and NaN."""
    top = {f"t{i}": float(rng.uniform(-9, 0)) for i in range(rng.integers(0, 4))}
    base = float(rng.uniform(-5, 0))
    for digit in ("0", "1"):
        kind = rng.integers(0, 5)  # bare, space, both, neither, bare and junk
        value = base + float(rng.choice([0.0, rng.uniform(-800, 800), rng.normal()]))
        if rng.random() < 0.1:
            value = math.nan
        elif rng.random() < 0.2:
            value = int(round(value))
        if kind in (0, 2, 4):
            top[digit] = value
        if kind in (1, 2):
            top[" " + digit] = value + float(rng.normal())
    return top


def test_step_probability_equals_resolve_softmax_clip_bit_for_bit():
    rng = np.random.default_rng(17)
    kinds = set()
    for _ in range(12000):
        top = random_top(rng)
        got, want = _step_probability(top), reference_step_probability(top)
        assert got[1] == want[1]
        assert (math.isnan(got[0]) and math.isnan(want[0])) or got[0].hex() == want[0].hex(), top
        kinds.add((got[1] is None, "0" in top and "1" in top, math.isnan(got[0])))
    assert kinds == {(True, True, False), (True, True, True), (True, False, False),
                     (True, False, True), (False, False, True)}


# ---------------------------------------------------------------------------
# transport against the scripted endpoint


def test_request_logits_passthrough_from_server():
    def script(body):
        return {"0": -0.105, "1": -2.303}

    with MockLLMServer(script) as server:
        prompt = render_prompt([], ("1", "A"))
        (top,) = ProbeClient(probe_config(server.endpoint)).fetch_many(["k"], lambda misses: [prompt])
    pair = resolve_logit_pair(top)
    assert pair.l0 == pytest.approx(-0.105)
    assert pair.l1 == pytest.approx(-2.303)


def test_request_body_matches_wire_contract():
    with MockLLMServer() as server:
        prompt = render_prompt([], ("1", "A"))
        ProbeClient(probe_config(server.endpoint)).fetch_many(["k"], lambda misses: [prompt])
        body = server.seen_bodies[0]
    assert body["model"] == "test-model"
    assert body["max_tokens"] == 1
    assert body["temperature"] == 0.0
    assert body["logprobs"] == 20
    assert body["prompt"].startswith("You are a classification model.")


@pytest.mark.parametrize("model", ["test-model", "", 'a "prompt": "" model'])
def test_cache_key_hashes_sorted_request_json(model):
    client = ProbeClient(ProbeConfig(endpoint="http://unused", model=model))
    for history, item in (([], ("1", "A")), ([("7", SKILL, 1)], ("8", "Ä \"q\""))):
        prompt = render_prompt(history, item)
        assert client.query_keys(history, [(len(history), item)]) == [request_key(model, prompt)]


def test_unreachable_endpoint_raises_probe_error():
    config = probe_config("http://127.0.0.1:9/v1/completions", max_retries=0, timeout=0.2)
    with pytest.raises(ProbeError):
        ProbeClient(config).fetch_many(["k"], lambda misses: [render_prompt([], ("1", "A"))])


def test_client_error_is_not_retried():
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
    import threading

    class Reject(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = b"unknown model"
            self.send_response(400)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Reject)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        client = ProbeClient(probe_config(f"http://{host}:{port}/v1/completions", max_retries=2))
        with pytest.raises(ProbeError, match=r"rejected request \(400\): unknown model"):
            client.fetch_many(["k"], lambda misses: [render_prompt([], ("1", "A"))])
    finally:
        server.shutdown()
        server.server_close()
    assert client.request_count == 1
    assert client.retries == 0


@pytest.mark.parametrize("token", ["s3cret-token", None])
def test_bearer_token_comes_from_the_environment(monkeypatch, token):
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    seen = []

    class Answer(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            seen.append(self.headers.get("Authorization"))
            body = json.dumps(
                {"choices": [{"text": "1", "logprobs": {"top_logprobs": [{"0": -2.0, "1": -0.1}]}}]}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    if token is None:
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    else:
        monkeypatch.setenv(AUTH_TOKEN_ENV, token)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Answer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        client = ProbeClient(probe_config(f"http://{host}:{port}/v1/completions"))
        client.fetch_many(["k"], lambda misses: [render_prompt([], ("1", "A"))])
    finally:
        server.shutdown()
        server.server_close()
    assert seen == [None if token is None else f"Bearer {token}"]


def test_config_rejects_nonzero_temperature():
    # temperature is fixed at 0 and is not a setting
    with pytest.raises(TypeError, match="temperature"):
        ProbeConfig(endpoint="http://x", model="m", temperature=0.5)


# ---------------------------------------------------------------------------
# probe_sequence


def test_probe_sequence_emits_t_minus_one_records():
    with MockLLMServer() as server:
        client = ProbeClient(probe_config(server.endpoint))
        records, errors = probe_sequence(client, toy_steps(3), TOY_VOCAB, tag="llm")
    assert len(records) == 2
    assert errors == []
    assert [r.step for r in rows_of(records)] == [1, 2]
    assert all(r.model_tag == "llm" and 0 < r.p < 1 for r in rows_of(records))


def test_client_counts_truncated_prompts():
    with MockLLMServer() as server:
        client = ProbeClient(probe_config(server.endpoint, history_limit=1))
        probe_sequence(client, toy_steps(4), TOY_VOCAB, tag="llm")
    assert client.truncated_prompts == 2  # histories of 2 and 3 steps


def test_probe_sequence_requires_two_steps():
    client = ProbeClient(probe_config("http://unused"))
    with pytest.raises(ValueError):
        probe_sequence(client, toy_steps(1), TOY_VOCAB, tag="llm")


def test_probe_sequences_names_the_student_too_short_to_probe():
    client = ProbeClient(probe_config("http://unused"))
    students = table_of([StudentSequence("u1", toy_step_list(3)), StudentSequence("u7", toy_step_list(1))])
    with pytest.raises(ValueError, match=r"student u7: probing needs at least 2 steps, got 1"):
        probe_sequences(client, students, TOY_VOCAB, tag="llm")


def test_probe_sequence_marks_unresolved_steps():
    calls = {"n": 0}

    def script(body):
        calls["n"] += 1
        if calls["n"] == 1:
            return {"junk": -0.5}
        return {"0": -0.7, "1": -0.7}

    with MockLLMServer(script) as server:
        client = ProbeClient(probe_config(server.endpoint, max_concurrent=1))
        records, errors = probe_sequence(client, toy_steps(3), TOY_VOCAB, tag="llm")
    assert len(records) == 2
    assert rows_of(records)[0].p is None
    assert rows_of(records)[1].p == pytest.approx(0.5)
    assert len(errors) == 1 and "unresolvable" in errors[0]


def test_probe_sequence_clamps_saturated_probabilities(tmp_path):
    def script(body):
        return {"0": -2000.0, "1": 0.0}

    from ktrace.records import read_prediction_dump, write_prediction_dump

    with MockLLMServer(script) as server:
        client = ProbeClient(probe_config(server.endpoint))
        records, _ = probe_sequence(client, toy_steps(3), TOY_VOCAB, tag="llm")
    assert all(0.0 < r.p < 1.0 for r in rows_of(records))
    path = tmp_path / "sat.csv"
    write_prediction_dump(path, records)
    assert rows_of(read_prediction_dump(path)) == rows_of(records)


def test_probe_sequence_round_trips_through_dump(tmp_path):
    from ktrace.records import read_prediction_dump, write_prediction_dump

    with MockLLMServer() as server:
        client = ProbeClient(probe_config(server.endpoint))
        records, _ = probe_sequence(client, toy_steps(4), TOY_VOCAB, tag="llm")
    path = tmp_path / "llm.predictions.csv"
    write_prediction_dump(path, records)
    assert rows_of(read_prediction_dump(path)) == rows_of(records)


def test_probe_cache_eliminates_repeat_requests(tmp_path):
    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(tmp_path / "cache"))
        client = ProbeClient(config)
        first, _ = probe_sequence(client, toy_steps(4), TOY_VOCAB, tag="llm")
        assert server.hit_count == 3
        client2 = ProbeClient(config)
        second, _ = probe_sequence(client2, toy_steps(4), TOY_VOCAB, tag="llm")
        assert server.hit_count == 3  # warm cache: zero network requests
        assert client2.request_count == 0
    assert [r.p for r in rows_of(first)] == [r.p for r in rows_of(second)]


def test_probe_treats_torn_cache_entry_as_miss(tmp_path):
    cache = tmp_path / "cache" / "cache.jsonl"
    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(cache.parent))
        first, _ = probe_sequence(ProbeClient(config), toy_steps(4), TOY_VOCAB, tag="llm")
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        cache.write_text("".join(lines[:-1]) + lines[-1][:7], encoding="utf-8")
        client = ProbeClient(config)
        second, errors = probe_sequence(client, toy_steps(4), TOY_VOCAB, tag="llm")
        assert errors == []
        assert client.request_count == 1
    assert [r.p for r in rows_of(first)] == [r.p for r in rows_of(second)]
    entry = cache.read_text(encoding="utf-8").splitlines()[-1]
    assert "top_logprobs" in json.loads(entry)


def test_probe_cache_reads_old_and_new_entries_after_cutting_torn_line(tmp_path):
    cache = tmp_path / "cache" / "cache.jsonl"
    steps = toy_steps(4)
    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(cache.parent))
        probe_sequence(ProbeClient(config), toy_steps(3), TOY_VOCAB, tag="llm")
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write('{"key": "0123", "top_lo')  # an append a crash cut short
        probe_sequence(ProbeClient(config), steps, TOY_VOCAB, tag="llm")
        assert server.hit_count == 3
        client = ProbeClient(config)
        records, errors = probe_sequence(client, steps, TOY_VOCAB, tag="llm")
        assert client.request_count == 0
        assert server.hit_count == 3
    assert errors == [] and len(records) == 3
    lines = cache.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert all("top_logprobs" in json.loads(line) for line in lines)


def reference_open_cache(path):
    """The cache read one line at a time: key -> (top-k map, stripped line),
    the torn trailing line cut and each skipped line warned about."""
    import logging

    data = path.read_bytes()
    *lines, tail = data.split(b"\n")
    index, keep = {}, len(data) - len(tail)
    for n, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
            entry = json.loads(text)
            index[entry["key"]] = (dict(entry["top_logprobs"]), text.strip())
        except (ValueError, KeyError, TypeError):
            if n == len(lines) and not tail:
                keep -= len(line) + 1
            else:
                logging.getLogger("ktrace.llmprobe").warning(
                    "%s: line %d is not a cache entry; skipped", path, n)
    if keep < len(data):
        logging.getLogger("ktrace.llmprobe").warning(
            "%s: cut a torn trailing entry (%d bytes)", path, len(data) - keep)
        os.truncate(path, keep)
    return index


def cache_line(key, top):
    return json.dumps({"key": key, "top_logprobs": top}, sort_keys=True)


CLEAN = [cache_line(f"k{i}", {"0": -0.5 - i, "1": -1.25, "\u00e9\"": -3.0}) for i in range(4)]
CACHE_TEXTS = {
    "empty": b"",
    "clean": "".join(f"{line}\n" for line in CLEAN).encode(),
    "duplicate key": "".join(f"{line}\n" for line in CLEAN + [cache_line("k1", {"0": -9.0, "1": 0.0})]).encode(),
    "hand-edited": f'{CLEAN[0]}\n{{"top_logprobs": {{"1": -2, "0": -1}}, "key": "k9"}}\n'.encode(),
    "unparseable middle": f"{CLEAN[0]}\n{{not json\n{CLEAN[1]}\n".encode(),
    "torn tail": f"{CLEAN[0]}\n{CLEAN[1]}\n{CLEAN[2][:9]}".encode(),
    "only a torn line": CLEAN[0][:9].encode(),
    "only a whole line without newline": CLEAN[0].encode(),
    "whole tail without newline": f"{CLEAN[0]}\n{CLEAN[1]}".encode(),
    "unparseable last line": f"{CLEAN[0]}\n{CLEAN[1][:-2]}\n".encode(),
    "blank lines": f"\n{CLEAN[0]}\n\n{CLEAN[1]}\n".encode(),
    "padded line": f"  {CLEAN[0]}\r\n\t{CLEAN[1]} \n".encode(),
    "two entries on one line": f"{CLEAN[0]}, {CLEAN[1]}\n{CLEAN[2]}\n".encode(),
    # one value over two lines, and two values on a third: an array of the
    # joined lines would parse to three entries
    "entry over two lines": (
        '{"key": "a", "top_logprobs": {"0": -1,\n"1": -2}}\n'
        '{"key": "b", "top_logprobs": {}}, {"key": "c", "top_logprobs": {}}\n'
    ).encode(),
    "pairs for a map": f'{{"key": "p", "top_logprobs": [["0", -1], ["1", -2]]}}\n{CLEAN[0]}\n'.encode(),
    "no map": f'{{"key": "s", "top_logprobs": "x"}}\n{{"key": "t"}}\n[1]\n{CLEAN[3]}\n'.encode(),
    "not utf-8": CLEAN[0].encode() + b"\n" + b'{"key": "\xff", "top_logprobs": {}}\n' + CLEAN[1].encode() + b"\n",
}


@pytest.mark.parametrize("name", list(CACHE_TEXTS))
def test_cache_index_equals_the_line_by_line_reading(tmp_path, caplog, name):
    from ktrace.llmprobe import _open_cache

    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    for path in (ours, theirs):
        path.write_bytes(CACHE_TEXTS[name])
    with caplog.at_level("WARNING"):
        index = _open_cache(ours)
        warned = [r.getMessage().replace("ours", "theirs") for r in caplog.records]
        caplog.clear()
        want = reference_open_cache(theirs)
        assert warned == [r.getMessage() for r in caplog.records]
    assert index == want
    assert ours.read_bytes() == theirs.read_bytes()


def test_cache_hit_is_audited_from_its_line_as_written(tmp_path):
    cache = tmp_path / "cache" / "cache.jsonl"
    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(cache.parent), max_concurrent=1)
        probe_sequence(ProbeClient(config), toy_steps(3), TOY_VOCAB, tag="llm")
    lines = cache.read_text(encoding="utf-8").splitlines()  # in step order
    key = json.loads(lines[0])["key"]
    lines[0] = f'{{"top_logprobs": {{"1": -2.5,  "0": -1}}, "key": "{key}"}}'  # edited by hand
    cache.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    client = ProbeClient(config)
    records, errors = probe_sequence(client, toy_steps(3), TOY_VOCAB, tag="llm")
    assert client.request_count == 0 and errors == []
    assert sorted(line for _, _, line in client.audit) == sorted('{"cached": true, ' + line[1:] for line in lines)
    assert records.p[0] == prob_from_logits(LogitPair(-1.0, -2.5))


def test_fully_cached_probe_starts_no_thread(tmp_path, monkeypatch):
    import ktrace.llmprobe as llmprobe

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully cached probe started a thread pool")

    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(tmp_path / "cache"))
        first, _ = probe_sequence(ProbeClient(config), toy_steps(4), TOY_VOCAB, tag="llm")
        monkeypatch.setattr(llmprobe, "ThreadPoolExecutor", no_pool)
        client = ProbeClient(config)
        second, errors = probe_sequence(client, toy_steps(4), TOY_VOCAB, tag="llm")
        assert server.hit_count == 3
    assert errors == []
    assert client.request_count == 0
    assert client.cache_hits == 3
    assert [r.p for r in rows_of(first)] == [r.p for r in rows_of(second)]


def test_retries_count_attempts_beyond_the_first():
    calls = {"n": 0}

    def script(body):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ServerFailure()
        return logits_from_prompt(body["prompt"])

    with MockLLMServer(script) as server:
        client = ProbeClient(probe_config(server.endpoint, max_retries=1))
        client.fetch_many(["k"], lambda misses: [render_prompt([], ("1", "A"))])
    assert client.request_count == 2
    assert client.retries == 1
    assert len(client.fetch_latencies_ms) == 1


def test_probe_resumes_from_cache_after_mid_run_failure(tmp_path):
    state = {"healthy": False, "served": 0}

    def script(body):
        state["served"] += 1
        if not state["healthy"] and state["served"] > 2:
            raise ServerFailure()
        return logits_from_prompt(body["prompt"])

    steps = toy_steps(5)
    with MockLLMServer(script) as server:
        config = probe_config(
            server.endpoint,
            cache_dir=str(tmp_path / "cache"),
            max_concurrent=1,
            max_retries=0,
        )
        with pytest.raises(ProbeError):
            probe_sequence(ProbeClient(config), steps, TOY_VOCAB, tag="llm")
        # the two completed prompts are cached; a rerun against the healed
        # server only fetches the remainder
        state["healthy"] = True
        client = ProbeClient(config)
        records, errors = probe_sequence(client, steps, TOY_VOCAB, tag="llm")
        assert errors == []
        assert len(records) == 4
        assert client.request_count == 2


def jittered(body):
    """The default answer, after 0-4 ms picked by the prompt's hash, so
    fetches sent together finish out of order."""
    time.sleep(hashlib.sha256(body["prompt"].encode("utf-8")).digest()[1] % 5 / 1000)
    return logits_from_prompt(body["prompt"])


def next_quiz_queries(n: int):
    """A 3-step history and ``n`` queries over all of it, one per next quiz:
    ``n`` distinct short prompts."""
    history = [(str(i), SKILL, i % 2) for i in range(3)]
    return history, [(3, (str(100 + q), SKILL)) for q in range(n)]


def test_cold_runs_write_identical_cache_files_in_ask_order(tmp_path):
    history, queries = next_quiz_queries(60)
    files = []
    with MockLLMServer(jittered) as server:
        for run in range(2):
            config = probe_config(server.endpoint, cache_dir=str(tmp_path / f"c{run}"), max_concurrent=2)
            client = ProbeClient(config)
            keys = client.query_keys(history, queries)
            client.fetch_many(keys, lambda misses: render_prompts(history, [queries[i] for i in misses]))
            files.append((tmp_path / f"c{run}" / "cache.jsonl").read_bytes())
    assert files[0] == files[1]
    assert [json.loads(line)["key"] for line in files[0].splitlines()] == keys


def test_fetch_many_streams_prompts_through_a_window():
    history, queries = next_quiz_queries(520)
    handed, gaps = 0, []
    window = FETCH_WINDOW * 2
    with MockLLMServer() as server:
        client = ProbeClient(probe_config(server.endpoint, max_concurrent=2))
        keys = client.query_keys(history, queries)

        def render(misses):
            nonlocal handed
            for prompt in render_prompts(history, [queries[i] for i in misses]):
                handed += 1
                gaps.append(handed - server.hit_count)
                yield prompt

        tops = client.fetch_many(keys, render)
        assert server.hit_count == len(queries)
    assert tops == [logits_from_prompt(p.text) for p in render_prompts(history, queries)]
    assert handed == len(queries)
    assert max(gaps) <= 2 * window
    assert client.window == window


def test_failed_fetch_leaves_one_cache_line_per_answered_prompt_in_ask_order(tmp_path):
    history, queries = next_quiz_queries(200)
    prompts = render_prompts(history, queries)
    answered, lock = set(), threading.Lock()

    def script(body):
        top = jittered(body)
        if body["prompt"] == prompts[70].text:
            raise ServerFailure()
        with lock:
            answered.add(body["prompt"])
        return top

    cache = tmp_path / "cache" / "cache.jsonl"
    with MockLLMServer(script) as server:
        config = probe_config(server.endpoint, cache_dir=str(cache.parent), max_concurrent=2, max_retries=0)
        client = ProbeClient(config)
        keys = client.query_keys(history, queries)
        with pytest.raises(ProbeError, match="500"):
            client.fetch_many(keys, lambda misses: iter([prompts[i] for i in misses]))
        sent = server.hit_count
    assert 71 <= sent <= 71 + FETCH_WINDOW * 2  # submitting stopped at the failure
    assert len(answered) == sent - 1
    written = [json.loads(line)["key"] for line in cache.read_text(encoding="utf-8").splitlines()]
    assert written == [key for key, p in zip(keys, prompts) if p.text in answered]


def test_double_run_stability_reports_zero_deltas(tmp_path):
    with MockLLMServer() as server:
        config = probe_config(server.endpoint, cache_dir=str(tmp_path / "cache"))
        client = ProbeClient(config)
        students = toy_steps(5)
        first, _ = probe_sequences(client, students, TOY_VOCAB, tag="llm")
        (report,) = stability_reports(client, students, TOY_VOCAB, first, tag="llm")
    assert report.n_steps == 4
    assert report.max_delta == 0.0
    assert report.n_nonzero == 0
    assert report.stable


def test_double_run_detects_unstable_server(tmp_path):
    calls = {"n": 0}

    def script(body):
        calls["n"] += 1
        return {"0": -0.5 - 0.01 * calls["n"], "1": -0.5}

    with MockLLMServer(script) as server:
        client = ProbeClient(probe_config(server.endpoint, max_concurrent=1))
        students = toy_steps(3)
        first, _ = probe_sequences(client, students, TOY_VOCAB, tag="llm")
        (report,) = stability_reports(client, students, TOY_VOCAB, first, tag="llm")
    assert report.max_delta > 0
    assert not report.stable


# ---------------------------------------------------------------------------
# probe_mastery


# the toy quizzes, then the representative quizzes 101, 202, 5 and 999
MASTERY_QUIZZES = (*TOY_VOCAB.quiz_ids, "101", "202", "5", "999")


def mastery_vocab(skill_names) -> Vocab:
    ids = tuple(map(str, range(len(skill_names))))
    return Vocab(skill_ids=ids, quiz_ids=MASTERY_QUIZZES, skill_names=tuple(skill_names))


def test_probe_mastery_request_volume_and_shape():
    vocab = mastery_vocab(["A", "B"])
    representative_quiz = [MASTERY_QUIZZES.index("101"), MASTERY_QUIZZES.index("202")]
    with MockLLMServer() as server:
        client = ProbeClient(probe_config(server.endpoint))
        (p,) = probe_mastery(client, toy_steps(3), vocab, representative_quiz)
        assert server.hit_count == 3 * 2
    assert p.shape == (3, 2)
    assert not np.isnan(p).any()

    # two students whose first two steps are the same: rows 0 and 1 share
    # their prompts, which one call sends once
    u1, u2 = toy_step_list(3), toy_step_list(2) + [(1, 2, 0), (0, 1, 1)]
    students = [StudentSequence("u1", u1), StudentSequence("u2", u2)]
    distinct = {
        (tuple(steps[:t]), skill) for steps in (u1, u2) for t in range(1, len(steps) + 1) for skill in (0, 1)
    }
    with MockLLMServer() as server:

        def probe(table):
            return probe_mastery(ProbeClient(probe_config(server.endpoint)), table, vocab, representative_quiz)

        both = probe(table_of(students))
        assert server.hit_count == len(distinct) == 2 * 3 + 2 * 2
        alone = [probe(table_of([student]))[0] for student in students]
    assert [m.shape for m in both] == [(3, 2), (4, 2)]
    for matrix, single in zip(both, alone, strict=True):
        assert np.array_equal(matrix, single)


@pytest.mark.parametrize("representative_quiz", [[4], [4, 5, 6], [4, -1], [4, len(MASTERY_QUIZZES)]])
def test_probe_mastery_rejects_a_representative_quiz_the_vocabulary_cannot_name(representative_quiz):
    client = ProbeClient(probe_config("http://unused"))
    with pytest.raises(ValueError, match="representative_quiz must hold one vocabulary quiz index per skill"):
        probe_mastery(client, toy_steps(2), mastery_vocab(["A", "B"]), representative_quiz)


def test_probe_mastery_cell_matches_probe_sequence_when_quiz_aligns():
    steps = toy_steps(3)
    with MockLLMServer() as server:
        config = probe_config(server.endpoint)
        client = ProbeClient(config)
        records, _ = probe_sequence(client, steps, TOY_VOCAB, tag="llm")
        # representative quiz for skill 0 set to the actual next quiz at t=1
        (p,) = probe_mastery(client, steps, TOY_VOCAB, representative_quiz=[int(steps.quiz[1])])
    assert p[0, 0] == pytest.approx(records.p[0], abs=1e-15)


def test_probe_mastery_flags_unresolved_cells():
    def script(body):
        if "Quiz 999" in body["prompt"]:
            return {"junk": -1.0}
        return {"0": -0.3, "1": -0.9}

    with MockLLMServer(script) as server:
        client = ProbeClient(probe_config(server.endpoint, max_concurrent=1))
        (p,) = probe_mastery(
            client,
            toy_steps(2),
            mastery_vocab(["A", "B"]),
            representative_quiz=[MASTERY_QUIZZES.index("5"), MASTERY_QUIZZES.index("999")],
        )
    assert np.isnan(p[:, 1]).all()
    assert set(zip(*np.nonzero(np.isnan(p)))) == {(0, 1), (1, 1)}


# ---------------------------------------------------------------------------
# histories from the vocabulary


def test_histories_use_vocab_tables():
    (steps,) = _histories(
        table_of([StudentSequence("u1", [(0, 1, 1), (1, 0, 0)])]),
        Vocab(skill_ids=("a", "b"), quiz_ids=("q100", "q200"), skill_names=("Alpha", "Beta")),
    )
    assert steps[0] == ("q200", "Alpha", 1)
    assert steps[1] == ("q100", "Beta", 0)


@pytest.mark.parametrize("bad_step", [(-1, 0, 1), (1, 0, 1), (0, 3, 1), (0, -1, 1), (0, 0, 2)])
def test_histories_reject_a_step_the_vocabulary_cannot_name(bad_step):
    vocab = Vocab(skill_ids=("a",), quiz_ids=("q0", "q1", "q2"), skill_names=("Alpha",))
    table = table_of([StudentSequence("u1", [(0, 0, 1)]), StudentSequence("u2", [(0, 1, 0), bad_step])])
    with pytest.raises(ValueError, match=r"^student u2: step 1 holds "):
        _histories(table, vocab)
