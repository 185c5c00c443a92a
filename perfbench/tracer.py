"""Span tracing of ktrace's public functions, from outside the package.

Each traced function is replaced, at the module or class attribute its
callers resolve, by a wrapper that records one span: name, start, end,
parent span and thread. Spans live in memory until ``Tracer.dump`` writes
them out. Nothing under ``src/`` changes: ``ktrace.cli`` imports the dump
readers and writers by name, so those are wrapped in ``ktrace.cli`` as well
as in ``ktrace.records``, and ``nncore.sigmoid``/``gru_forward`` are
wrapped at module level, where ``gru_forward``/``net_forward`` look them up
as globals.

A hook may attach counts computed from a call's arguments and result (shape
arithmetic, row counts); it never alters the result, so traced artifacts
stay byte-identical to untraced ones.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[[tuple, dict, object], Dict[str, float]]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], thread: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread, "counts": self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].id if stack else None, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner: object, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(span)
            if hook is not None:
                span.counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    # -- derived quantities ---------------------------------------------------

    def self_seconds(self) -> Dict[int, float]:
        """Span duration minus the time its direct children cover. Children
        always run on the parent's thread, so their intervals never overlap."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        return {s.id: s.seconds - child_time[s.id] for s in self.spans}

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


# ---------------------------------------------------------------------------
# hooks: counts computed from shapes and results


def _gru_forward_flop(args, kwargs, result):
    x, params = args[0], args[1]
    b, t = (1, x.shape[0]) if x.ndim == 2 else x.shape[:2]
    d_in, d_h = x.shape[-1], params.d_h
    return {"flop": 2.0 * b * t * 3 * d_h * (d_in + d_h)}


def _gru_backward_flop(args, kwargs, result):
    tape = args[1]
    b, t, d_in = tape.x.shape
    d_h = tape.h.shape[-1]
    # weight gradients plus input and carry gradients: twice the forward matmuls
    return {"flop": 4.0 * b * t * 3 * d_h * (d_in + d_h)}


def _readout_flop(args, kwargs, result):
    h, w_out = args[0], args[1]
    rows = h.size // h.shape[-1]
    return {"flop": 2.0 * rows * w_out.shape[0] * w_out.shape[1]}


def _readout_backward_flop(args, kwargs, result):
    net, x_idx = args[0], args[1]
    # dense d_logits: w_out gradient plus dh, each B*T*d_h*K multiply-adds
    return {"readout_flop": 4.0 * x_idx.size * net.d_h * net.n_out}


def _clipped(args, kwargs, result):
    return {"clipped": float(result is not args[0])}


def _batch_cells(args, kwargs, result):
    return {"cells": float(result.x.size), "valid": float(result.lengths.sum())}


def _rows_parsed(args, kwargs, result):
    return {"rows": float(len(result.records))}


def _rows_written(args, kwargs, result):
    return {"rows": float(len(args[1]))}


def _rows_read(args, kwargs, result):
    return {"rows": float(len(result))}


def _prompt_size(args, kwargs, result):
    return {"bytes": float(len(result.text.encode("utf-8"))), "truncated": float(result.truncated)}


def install(tracer: Tracer, level: str) -> None:
    """Wrap the call boundaries for ``level``: "light" times only the stages
    the stage rates need; "full" times every layer the per-layer metrics name,
    plus the calls that bound them (``net_forward`` under inference,
    ``mastery_trajectory`` for heatmaps, ``probe_sequence`` around the probe's
    thread pool). Whatever else a command does stays in its self time."""
    from ktrace import cli, dkt, evaluation, ingest, llmprobe, nncore, records, synth

    tracer.wrap(dkt, "train", "dkt.train")
    tracer.wrap(dkt, "predict_records", "dkt.predict_records")
    tracer.wrap(llmprobe.ProbeClient, "fetch_top_logprobs", "llmprobe.fetch")
    if level == "light":
        return

    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(ingest, "parse_interactions", "ingest.parse_interactions", _rows_parsed)
    for name in ("filter_and_order", "write_sequences", "read_sequences"):
        tracer.wrap(ingest, name, f"ingest.{name}")

    tracer.wrap(dkt, "build_batch", "dkt.build_batch", _batch_cells)
    tracer.wrap(dkt, "_dataset_loss", "dkt.validation")
    tracer.wrap(dkt, "mastery_trajectory", "dkt.mastery_trajectory")

    tracer.wrap(nncore, "sigmoid", "nncore.sigmoid")
    tracer.wrap(nncore, "gru_forward", "nncore.gru_forward", _gru_forward_flop)
    tracer.wrap(nncore, "gru_backward", "nncore.gru_backward", _gru_backward_flop)
    tracer.wrap(nncore, "readout", "nncore.readout", _readout_flop)
    tracer.wrap(nncore, "net_loss_and_grads", "nncore.net_loss_and_grads", _readout_backward_flop)
    tracer.wrap(nncore, "clip_global_norm", "nncore.clip_global_norm", _clipped)
    for name in ("embed_lookup", "embed_lookup_backward", "masked_bce", "net_forward", "adam_update"):
        tracer.wrap(nncore, name, f"nncore.{name}")

    for owner in (records, cli):
        tracer.wrap(owner, "write_prediction_dump", "records.write_prediction_dump", _rows_written)
        tracer.wrap(owner, "read_prediction_dump", "records.read_prediction_dump", _rows_read)

    for name in ("roc_auc", "confusion_metrics", "stage_errors", "coherence_report", "heatmap_export"):
        tracer.wrap(evaluation, name, f"evaluation.{name}")

    tracer.wrap(llmprobe, "probe_sequence", "llmprobe.probe_sequence")
    tracer.wrap(llmprobe, "render_prompt", "llmprobe.render_prompt", _prompt_size)
    tracer.wrap(llmprobe.ProbeClient, "_post", "llmprobe.post")
