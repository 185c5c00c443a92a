"""The probe checks of ``perfbench/checks.py`` on a tiny probe run.

The benchmark counts an iteration whose probe values or probe passes fail
these checks as a failed operation. Running them here makes a probe change
that would fail them fail in the unit suite first.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from ktrace.cli import main
from ktrace.ingest import read_sequences

from mockllm import MockLLMServer, logits_from_prompt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_and_warm_probe_passes_meet_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # pipeline.py prepends its directory
    checks = load_perfbench_module("checks")
    pipeline = load_perfbench_module("pipeline")
    ws = tmp_path / "ws"
    config = {
        "workspace": str(ws),
        "seed": 3,
        "synth": {"k": 3, "p_init": 0.3, "p_learn": 0.15, "p_guess": 0.2, "p_slip": 0.1,
                  "n_students": 60, "mean_length": 8.0},
    }
    with MockLLMServer(script=lambda body: logits_from_prompt(body["prompt"])) as server:
        config["probe"] = {"endpoint": server.endpoint, "model": "mock", "timeout": 5.0,
                           "max_retries": 1, "backoff": 0.01, "max_concurrent": 2, "tag": "llm"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(config_path)]
        assert main(["synth"] + argv) == 0
        passes = []
        for _ in range(3):  # one cold pass, two warm ones
            assert main(["probe"] + argv) == 0
            passes.append(pipeline.probe_pass(ws))

    sequences = {s.user_id: s.steps for s in read_sequences(ws / "sequences.txt")}
    assert checks.check_probe_values(ws, sequences) is None
    assert checks.check_probe_passes(passes) is None
    assert passes[0]["network_requests"] > 0
    assert [p["prompts"] for p in passes] == [passes[0]["prompts"]] * 3
