"""The contract between ``perfbench/tracer.py`` and ktrace.

The tracer wraps ktrace functions by module attribute name, and its hooks
read their arguments and results. A renamed function or a changed argument
layout fails here, in the unit suite, and not only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from ktrace import dkt, synth
from ktrace.dkt import TrainConfig
from ktrace.synth import GenerativeSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_trace_records_training_validation_and_inference_spans():
    tracing = load_tracer_module()
    corpus = synth.generate(GenerativeSpec(k=3, n_students=24, mean_length=10.0, seed=1))
    table = corpus.sequences
    train_seqs, val_seqs = table.take(np.arange(16)), table.take(np.arange(16, len(table)))
    cfg = TrainConfig(
        embedding_dim=4, hidden_dim=6, batch_size=8, max_t=8, max_epochs=1, seed=0
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, "full")
        model, _ = dkt.train(train_seqs, val_seqs, k=3, cfg=cfg)
        dkt.predict_records(model, val_seqs, tag="dkt")
        dkt.mastery_trajectory(model, val_seqs.take([0]))
    finally:
        tracer.restore()

    for name in ("nncore.gru_forward", "nncore.gru_backward", "nncore.net_forward",
                 "dkt.validation"):
        assert tracer.by_name(name), name
    for name in ("nncore.gru_forward", "nncore.gru_backward"):
        assert all(span.counts["flop"] > 0 for span in tracer.by_name(name)), name
    assert not hasattr(dkt.train, "__wrapped__")


def test_light_trace_records_one_fetch_per_miss_and_a_warm_pass_none(tmp_path, monkeypatch):
    import urllib.request

    from ktrace.ingest import StudentSequence, Vocab
    from ktrace.llmprobe import ProbeClient, ProbeConfig, probe_sequences
    from mockllm import MockLLMServer
    from steptable import table_of

    tracing = load_tracer_module()
    steps = [(0, i % 3, i % 2) for i in range(6)]
    # u2's prompts repeat u1's first three
    students = table_of([StudentSequence("u1", steps), StudentSequence("u2", steps[:4])])
    vocab = Vocab(skill_ids=("0",), quiz_ids=("0", "1", "2"), skill_names=("A",))
    tracer = tracing.Tracer()
    with MockLLMServer() as server:
        config = ProbeConfig(
            endpoint=server.endpoint, model="m", timeout=5.0, max_retries=0,
            max_concurrent=2, cache_dir=str(tmp_path / "cache"),
        )
        try:
            tracing.install(tracer, "light")
            cold = ProbeClient(config)
            probe_sequences(cold, students, vocab, tag="llm")
            cold_spans = len(tracer.by_name("llmprobe.fetch"))

            def no_opener(*args, **kwargs):
                raise AssertionError("a warm pass built a urllib opener")

            monkeypatch.setattr(urllib.request, "build_opener", no_opener)
            warm = ProbeClient(config)
            probe_sequences(warm, students, vocab, tag="llm")
        finally:
            tracer.restore()
        hits = server.hit_count

    assert cold_spans == cold.request_count == hits == 5
    assert cold.cache_hits == 3
    assert len(tracer.by_name("llmprobe.fetch")) == cold_spans
    assert warm.request_count == 0 and warm.cache_hits == 8
