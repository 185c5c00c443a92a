"""The contract between ``perfbench/tracer.py`` and ktrace.

The tracer wraps ktrace functions by module attribute name, and its hooks
read their arguments and results. A renamed function or a changed argument
layout fails here, in the unit suite, and not only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
    train_seqs, val_seqs = corpus.sequences[:16], corpus.sequences[16:]
    cfg = TrainConfig(
        embedding_dim=4, hidden_dim=6, batch_size=8, max_t=8, max_epochs=1, seed=0
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, "full")
        model, _ = dkt.train(train_seqs, val_seqs, k=3, cfg=cfg)
        dkt.predict_records(model, val_seqs, tag="dkt")
        dkt.mastery_trajectory(model, val_seqs[0])
    finally:
        tracer.restore()

    for name in ("nncore.gru_forward", "nncore.gru_backward", "nncore.net_forward",
                 "dkt.validation"):
        assert tracer.by_name(name), name
    for name in ("nncore.gru_forward", "nncore.gru_backward"):
        assert all(span.counts["flop"] > 0 for span in tracer.by_name(name)), name
    assert not hasattr(dkt.train, "__wrapped__")
