from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ktrace import evaluation, ingest
from ktrace.cli import Workspace, WorkspaceLocked, main, representative_quizzes, write_json
from ktrace.config import ConfigError, load_config
from ktrace.dkt import EpochStats, TrainConfig
from ktrace.ingest import StudentSequence
from ktrace.evaluation import roc_auc
from ktrace.llmprobe import FETCH_WINDOW, StabilityReport
from ktrace.records import (
    MasteryTrajectory,
    read_prediction_dump,
    read_trajectory,
    write_prediction_dump,
    write_trajectory,
)
from ktrace.synth import GenerativeSpec

from mockllm import MockLLMServer, logits_from_prompt
from predtable import Row, predictions_of, rows_of
from steptable import table_of


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def make_csv(path: Path, n_students: int = 12, steps: int = 6) -> None:
    lines = ["order_id,user_id,problem_id,correct,skill_id,skill_name"]
    for u in range(n_students):
        for t in range(steps):
            skill = (u + t) % 3
            correct = 1 if (u + t) % 2 == 0 else 0
            lines.append(f"{t + 1},stu{u:02d},p{t % 4},{correct},{skill},Skill {skill}")
    path.write_text("\n".join(lines) + "\n")


def synth_config(tmp_path: Path, **extra) -> dict:
    payload = {
        "workspace": str(tmp_path / "ws"),
        "seed": 11,
        "synth": {
            "k": 3,
            "p_init": 0.3,
            "p_learn": 0.25,
            "p_guess": 0.2,
            "p_slip": 0.1,
            "n_students": 40,
            "mean_length": 8.0,
            "min_length": 4,
        },
        "dkt": {
            "embedding_dim": 8,
            "hidden_dim": 12,
            "learning_rate": 0.005,
            "batch_size": 16,
            "max_t": 20,
            "max_epochs": 3,
        },
    }
    payload.update(extra)
    return payload


def hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config loading


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", {"workspace": "w", "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        load_config(cfg_path)


def test_config_rejects_unknown_nested_keys(tmp_path):
    cfg_path = write_config(
        tmp_path / "c.json", {"workspace": "w", "dkt": {"hidden_units": 5}}
    )
    with pytest.raises(ConfigError, match="hidden_units"):
        load_config(cfg_path)


def test_config_overrides_win(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", {"workspace": "w", "seed": 1})
    cfg = load_config(cfg_path, overrides=["seed=99", "dkt.hidden_dim=32"])
    assert cfg.seed == 99
    assert cfg.dkt.hidden_dim == 32


def test_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_config_ratio_validation(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", {"workspace": "w", "ratios": [0.5, 0.2, 0.2]})
    with pytest.raises(ConfigError, match="sum to 1"):
        load_config(cfg_path)


# ---------------------------------------------------------------------------
# prepare


def test_prepare_writes_artifacts_and_is_idempotent(tmp_path, capsys):
    csv_path = tmp_path / "log.csv"
    make_csv(csv_path)
    ws_dir = tmp_path / "ws"
    cfg_path = write_config(
        tmp_path / "c.json",
        {"workspace": str(ws_dir), "seed": 3, "data": {"raw_path": str(csv_path)}},
    )
    assert main(["prepare", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "# of students" in out

    artifacts = ["sequences.txt", "vocab.json", "split.json", "stats.json", "manifest.json"]
    hashes = {name: hash_file(ws_dir / name) for name in artifacts}

    assert main(["prepare", "--config", cfg_path]) == 0
    for name in artifacts:
        assert hash_file(ws_dir / name) == hashes[name], f"{name} not idempotent"


def test_write_json_failing_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "stats.json"
    write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]


def _json_payloads():
    """One payload of each shape the commands write: the ``prepare`` files,
    the training log, the generative spec, a probe report with stability
    reports and ``metrics.json``'s blocks."""
    rng = np.random.default_rng(5)
    rows = [
        (f"u{u}", t, int(rng.integers(0, 3)), int(rng.integers(0, 2)),
         None if (u, t) == (1, 2) else float(rng.uniform(0.01, 0.99)), "dkt")
        for u in range(5) for t in range(9)
    ]
    preds = predictions_of(rows)
    analysis = roc_auc(preds)
    stats = ingest.DatasetStats.of(45, 5, 9, 3, 20)
    return [
        ingest.Vocab(("10", "11"), ("pA", "pB", "pC"), ("Fractions", "")),
        {"original": stats, "preprocessed": ingest.DatasetStats(), "train": stats},
        ingest.FilterReport(1, 2, 3, 1, 40, 5),
        {"epochs": [EpochStats(1, 0.69, 0.68, 0.25), EpochStats(2, 0.6, 0.61, 0.5)],
         "best_val_loss": 0.61, "config": TrainConfig()},
        GenerativeSpec(k=3, n_students=10, p_learn=(0.1, 0.2, 0.3), seed=7),
        {"tag": "llm", "coverage": evaluation.coverage(preds),
         "stability": [StabilityReport("u0", 9, 0.0, 0, 0), StabilityReport("u1", 9, 0.25, 3, 1)]},
        {"dkt": {
            "tag": "dkt", "coverage": evaluation.coverage(preds), "auc": analysis.auc,
            "youden": {"threshold": analysis.youden_threshold, "j": analysis.j_stat},
            "confusion": evaluation.confusion_metrics(preds, 0.5),
            "stage_errors": evaluation.stage_errors(preds, analysis.youden_threshold),
            "coherence": evaluation.coherence_report(preds),
            "heatmaps": {"u0": {"annotated_cells": 4, "svg": "heatmap_dkt_u0.svg"}},
        }},
    ]


@pytest.mark.parametrize("index", range(7), ids=[
    "vocab", "stats", "filter-report", "training-log", "generative-spec", "probe-report", "metrics",
])
def test_write_json_writes_a_dataclass_as_asdict_would(tmp_path, index):
    payload = _json_payloads()[index]
    write_json(tmp_path / "out.json", payload)
    expected = json.dumps(payload, indent=2, sort_keys=True, default=dataclasses.asdict) + "\n"
    assert (tmp_path / "out.json").read_bytes() == expected.encode("utf-8")


def test_write_json_refuses_a_dataclass_type(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", {"vocab": ingest.Vocab})


def test_prepare_missing_input_exits_2_without_artifacts(tmp_path, capsys):
    ws_dir = tmp_path / "ws"
    cfg_path = write_config(
        tmp_path / "c.json",
        {"workspace": str(ws_dir), "data": {"raw_path": str(tmp_path / "nope.csv")}},
    )
    assert main(["prepare", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: prepare: input file not found: {tmp_path / 'nope.csv'}\n"
    )
    assert not ws_dir.exists()


def test_prepare_bad_column_mapping_exits_2(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("a,b,c\n1,2,3\n")
    cfg_path = write_config(
        tmp_path / "c.json",
        {"workspace": str(tmp_path / "ws"), "data": {"raw_path": str(csv_path)}},
    )
    assert main(["prepare", "--config", cfg_path]) == 2


def test_prepare_rejects_a_user_id_sequences_txt_cannot_hold(tmp_path):
    csv_path = tmp_path / "log.csv"
    make_csv(csv_path)
    bad_ids = ["stu\t98", '"stu\r99"', '"stu\n97"']
    with open(csv_path, "a", newline="") as fh:
        fh.writelines(f"{t},{user},p0,1,0,Skill 0\n" for user in bad_ids for t in range(1, 4))
    payload = synth_config(tmp_path, data={"raw_path": str(csv_path)})
    cfg_path = write_config(tmp_path / "c.json", payload)
    assert main(["prepare", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    with open(ws.root / "rejects.csv", newline="") as fh:
        rejects = list(csv.reader(fh))[1:]
    assert [reason for _, reason, _ in rejects] == ["bad user_id"] * 9
    assert main(["train", "--config", cfg_path]) == 0


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def read_line(child: subprocess.Popen, timeout: float = 60.0) -> str:
    """The child's next line of output, or "" if none comes within ``timeout``."""
    ready, _, _ = select.select([child.stdout], [], [], timeout)
    return child.stdout.readline() if ready else ""


def kill(child: subprocess.Popen) -> str:
    """SIGKILL ``child`` and return what it wrote to stderr."""
    child.kill()
    return child.communicate(timeout=30)[1]


def test_workspace_lock_refuses_a_live_holder_and_not_a_killed_one(tmp_path):
    ws = Workspace(tmp_path / "ws")
    code = (
        "import sys, time; from ktrace.cli import Workspace\n"
        "with Workspace(sys.argv[1]).lock():\n"
        "    print('locked', flush=True); time.sleep(60)\n"
    )
    holder = subprocess.Popen(
        [sys.executable, "-c", code, str(ws.root)], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert read_line(holder) == "locked\n"
        with pytest.raises(WorkspaceLocked) as refused:
            with ws.lock():
                pass
        assert str(refused.value) == f"workspace {ws.root} is locked by another invocation"
    finally:
        kill(holder)
    assert holder.returncode == -signal.SIGKILL
    with ws.lock():
        pass


@pytest.mark.parametrize("leftover", ["live", "", "not a pid"])
def test_workspace_lock_ignores_what_a_leftover_lock_file_holds(tmp_path, leftover):
    # "live" stands for this process's pid, which would make an unstable test id.
    leftover = str(os.getpid()) if leftover == "live" else leftover
    ws = Workspace(tmp_path / "ws")
    ws.root.mkdir()
    (ws.root / ".lock").write_text(leftover)
    with ws.lock():
        pass
    # the file stays: a run that opened it before an unlink could lock it
    # while a newer run locks a new file of the same name
    assert (ws.root / ".lock").read_text() == leftover


def test_cli_imports_without_requests():
    code = "import sys; sys.modules['requests'] = None; import ktrace.cli"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


def test_cli_imports_no_http_stack():
    code = "import sys, ktrace.cli; print(sorted({'ssl', 'http.client', 'email'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "[]"


@pytest.mark.parametrize("command, section", [("prepare", "data"), ("synth", "synth"), ("probe", "probe")])
def test_prepare_requires_data_section(tmp_path, capsys, command, section):
    """A command missing its config section fails before it creates the workspace."""
    ws_dir = tmp_path / "ws"
    cfg_path = write_config(tmp_path / "c.json", {"workspace": str(ws_dir)})
    assert main([command, "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {command}: {command} requires a config.{section} section\n"
    )
    assert not ws_dir.exists()


@pytest.mark.parametrize("command", ["train", "probe", "evaluate"])
def test_a_command_on_a_missing_workspace_exits_2_and_creates_nothing(tmp_path, capsys, command):
    ws_dir = tmp_path / "wsx"
    cfg_path = write_config(
        tmp_path / "c.json", {"workspace": str(ws_dir), "probe": {"endpoint": "http://127.0.0.1:9", "model": "m"}}
    )
    assert main([command, "--config", cfg_path]) == 2
    assert capsys.readouterr().err == f"configuration error: {command}: workspace not found: {ws_dir}\n"
    assert not ws_dir.exists()


def test_workspace_lock_rejects_concurrent_use(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with ws.lock():
        csv_path = tmp_path / "log.csv"
        make_csv(csv_path)
        cfg_path = write_config(
            tmp_path / "c.json",
            {"workspace": str(tmp_path / "ws"), "data": {"raw_path": str(csv_path)}},
        )
        assert main(["prepare", "--config", cfg_path]) == 1


# ---------------------------------------------------------------------------
# synth + train


def test_synth_then_train_end_to_end(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", synth_config(tmp_path))
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    assert ws.sequences_path.exists()
    assert ws.oracle_path.exists()
    assert ws.dump_path("oracle").exists()
    # the spec written as its fields, each rate broadcast to one value per skill
    assert (ws.root / "generative_spec.json").read_text(encoding="utf-8") == (
        '{\n  "k": 3,\n  "mean_length": 8.0,\n  "min_length": 4,\n  "n_students": 40,\n'
        '  "p_guess": [\n    0.2,\n    0.2,\n    0.2\n  ],\n'
        '  "p_init": [\n    0.3,\n    0.3,\n    0.3\n  ],\n'
        '  "p_learn": [\n    0.25,\n    0.25,\n    0.25\n  ],\n'
        '  "p_slip": [\n    0.1,\n    0.1,\n    0.1\n  ],\n'
        '  "seed": 11\n}\n'
    )

    assert main(["train", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "best validation loss" in out
    assert ws.checkpoint_path.exists()

    log = json.loads(ws.training_log_path.read_text())
    assert 1 <= len(log["epochs"]) <= 3
    assert set(log) == {"epochs", "best_val_loss", "config"}
    assert all(set(e) == {"epoch", "train_loss", "val_loss", "seconds"} for e in log["epochs"])
    assert [e["epoch"] for e in log["epochs"]] == list(range(1, len(log["epochs"]) + 1))
    assert log["best_val_loss"] == min(e["val_loss"] for e in log["epochs"])
    assert log["config"] == {
        "embedding_dim": 8, "hidden_dim": 12, "learning_rate": 0.005, "batch_size": 16,
        "max_t": 20, "clip_norm": 5.0, "patience": 3, "max_epochs": 3, "seed": 11,
    }

    preds = read_prediction_dump(ws.dump_path("dkt"))
    split = json.loads(ws.split_path.read_text())
    from ktrace.ingest import read_sequences

    sequences = {s.user_id: s for s in read_sequences(ws.sequences_path)}
    expected = sum(len(sequences[u]) - 1 for u in split["test"])
    assert len(preds) == expected

    mastery = read_prediction_dump(ws.dump_path("dkt", "mastery"))
    assert len(mastery) == sum(len(sequences[u]) for u in split["test"])


def test_synth_commits_its_manifest_entry_after_its_oracle_files(tmp_path, monkeypatch, capsys):
    """A synth that fails writing its oracle files leaves no synth entry."""
    from ktrace import synth

    def failing_sidecar(path, corpus):
        raise OSError("disk full")

    monkeypatch.setattr(synth, "write_oracle_sidecar", failing_sidecar)
    cfg_path = write_config(tmp_path / "c.json", synth_config(tmp_path))
    assert main(["synth", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == "error: synth: disk full\n"
    assert "synth" not in Workspace(tmp_path / "ws").read_manifest()["stages"]


def test_train_on_empty_workspace_names_the_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", synth_config(tmp_path))
    (tmp_path / "ws").mkdir()  # a missing workspace is a configuration error, exit 2
    assert main(["train", "--config", cfg_path]) == 1
    assert capsys.readouterr().err.startswith("error: train: ")


def test_train_is_deterministic_across_runs(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", synth_config(tmp_path))
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    first = {
        "checkpoint": hash_file(ws.checkpoint_path),
        "dump": hash_file(ws.dump_path("dkt")),
        "mastery": hash_file(ws.dump_path("dkt", "mastery")),
    }
    assert main(["train", "--config", cfg_path]) == 0
    assert hash_file(ws.checkpoint_path) == first["checkpoint"]
    assert hash_file(ws.dump_path("dkt")) == first["dump"]
    assert hash_file(ws.dump_path("dkt", "mastery")) == first["mastery"]


def test_train_writes_heatmap_trajectories(tmp_path):
    payload = synth_config(tmp_path)
    cfg_path = write_config(tmp_path / "c.json", payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    split = json.loads(ws.split_path.read_text())
    student = split["test"][0]
    payload["evaluate"] = {"heatmap_students": [student]}
    cfg_path = write_config(tmp_path / "c.json", payload)
    assert main(["train", "--config", cfg_path]) == 0
    assert ws.trajectory_path("dkt", student).exists()


def test_train_warns_of_each_unknown_heatmap_student_in_config_order(tmp_path, capsys):
    payload = synth_config(tmp_path)
    assert main(["synth", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    ws = Workspace(tmp_path / "ws")
    student = json.loads(ws.split_path.read_text())["test"][0]
    payload["evaluate"] = {"heatmap_students": ["zz-ghost", student, "aa-ghost"]}
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: heatmap student zz-ghost not found; skipped",
        "warning: heatmap student aa-ghost not found; skipped",
    ]
    assert [path.name for path in (ws.root / "trajectories" / "dkt").iterdir()] == [f"{student}.csv"]


# ---------------------------------------------------------------------------
# probe


def probe_payload(tmp_path: Path, endpoint: str, **probe_extra) -> dict:
    payload = synth_config(tmp_path)
    payload["probe"] = {
        "endpoint": endpoint,
        "model": "mock-model",
        "timeout": 5.0,
        "max_retries": 1,
        "backoff": 0.01,
        "max_concurrent": 2,
        **probe_extra,
    }
    return payload


def test_probe_emits_dump_and_uses_cache(tmp_path, capsys):
    with MockLLMServer() as server:
        cfg_path = write_config(tmp_path / "c.json", probe_payload(tmp_path, server.endpoint))
        assert main(["synth", "--config", cfg_path]) == 0
        assert main(["probe", "--config", cfg_path]) == 0
        first_hits = server.hit_count
        assert first_hits > 0

        ws = Workspace(tmp_path / "ws")
        records = read_prediction_dump(ws.dump_path("llm"))
        cold = json.loads((ws.root / "probe_report_llm.json").read_text())
        assert cold["retries"] == 0
        assert cold["network_requests"] == first_hits
        # prompts repeated across students are sent once and read back
        assert cold["cache_hits"] + first_hits == len(records)
        assert cold["fetch_latency_ms"]["n"] == first_hits
        split = json.loads(ws.split_path.read_text())
        from ktrace.ingest import read_sequences

        sequences = {s.user_id: s for s in read_sequences(ws.sequences_path)}
        assert len(records) == sum(len(sequences[u]) - 1 for u in split["test"])
        assert all(r.p is not None for r in rows_of(records))

        # warm cache: rerun issues zero network requests
        assert main(["probe", "--config", cfg_path]) == 0
        assert server.hit_count == first_hits
        out = capsys.readouterr().out
        assert "0 network requests" in out

        report = json.loads((ws.root / "probe_report_llm.json").read_text())
        assert report["network_requests"] == 0
        assert report["retries"] == 0
        assert report["cache_hits"] == len(records)
        assert report["fetch_latency_ms"] == {"n": 0, "p50": None, "p95": None}
        assert report["coverage"]["unresolved"] == 0
        audit = (ws.root / "probe_audit" / "llm.jsonl").read_text().splitlines()
        assert len(audit) == len(records)


def test_probe_stability_flag_reports_zero_deltas(tmp_path):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint, stability_check=True)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        assert main(["probe", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        report = json.loads((ws.root / "probe_report_llm.json").read_text())
        split = json.loads(ws.split_path.read_text())
        from ktrace.ingest import read_sequences

        sequences = {s.user_id: s for s in read_sequences(ws.sequences_path)}
        assert report["stability"] == [
            {"user_id": u, "n_steps": len(sequences[u]) - 1, "max_delta": 0.0, "n_nonzero": 0,
             "n_resolution_mismatches": 0, "stable": True}
            for u in split["test"]
        ]


def test_warm_stability_check_renders_only_the_uncached_rerun(tmp_path, monkeypatch):
    from ktrace import llmprobe

    with MockLLMServer() as server:
        cfg_path = write_config(tmp_path / "c.json", probe_payload(tmp_path, server.endpoint))
        assert main(["synth", "--config", cfg_path]) == 0
        assert main(["probe", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        n_prompts = len(read_prediction_dump(ws.dump_path("llm")))
        renders = []
        render_prompts = llmprobe.render_prompts

        def counting_render(*args, **kwargs):
            prompts = render_prompts(*args, **kwargs)
            renders.extend(prompts)
            return prompts

        stability_reports = llmprobe.stability_reports
        main_pass_renders = []

        def counting_stability(*args, **kwargs):
            main_pass_renders.append(len(renders))
            return stability_reports(*args, **kwargs)

        monkeypatch.setattr(llmprobe, "render_prompts", counting_render)
        monkeypatch.setattr(llmprobe, "stability_reports", counting_stability)
        hits_before = server.hit_count
        argv = ["probe", "--config", cfg_path, "--override", "probe.stability_check=true"]
        assert main(argv) == 0
        rerun_hits = server.hit_count - hits_before

    # the main pass reads the cache and renders nothing; the stability rerun
    # renders every prompt and asks the endpoint
    assert main_pass_renders == [0]
    assert len(renders) == n_prompts
    assert rerun_hits == n_prompts
    report = json.loads((ws.root / "probe_report_llm.json").read_text())
    assert report["cache_hits"] == n_prompts
    assert report["network_requests"] == n_prompts
    assert all(s["stable"] for s in report["stability"])
    audit = (ws.root / "probe_audit" / "llm.jsonl").read_text().splitlines()
    assert len(audit) == 2 * n_prompts


def probe_calls(ws: Workspace, history_limit: int, mastery: list, stability: bool) -> list:
    """(prompts, use_cache) of each call one ``probe`` command makes to the
    endpoint or the cache, in order, each prompt rendered on its own."""
    from ktrace.ingest import read_sequences
    from ktrace.llmprobe import render_prompt

    vocab = json.loads(ws.vocab_path.read_text())
    names, quizzes = vocab["skill_names"], vocab["quiz_ids"]
    shown = {
        s.user_id: [(str(quizzes[q]), names[k], y) for k, q, y in s.steps]
        for s in read_sequences(ws.sequences_path)
    }
    main_pass = [
        render_prompt(shown[u][:t], shown[u][t][:2], history_limit)
        for u in json.loads(ws.split_path.read_text())["test"]
        for t in range(1, len(shown[u]))
    ]
    calls = [(main_pass, True)] + [(main_pass, False)] * stability
    repr_quiz = [str(quizzes[q]) for q in json.loads(ws.repr_quiz_path.read_text())["repr_quiz"]]
    for u in mastery:
        calls.append(([
            render_prompt(shown[u][:t], (repr_quiz[k], names[k]), history_limit)
            for t in range(1, len(shown[u]) + 1)
            for k in range(len(names))
        ], True))
    return calls


def expected_audit(cache_text: str, calls: list) -> list:
    """The audit lines of a probe command over a cache that holds
    ``cache_text``: each answer as sorted-key JSON of its key, cached flag
    and top-k map. A key the cache holds is a hit with the cache's map (a
    later line wins); the first miss of a key in a call is fetched, its
    repeats are hits, and later calls hit it too; a call that bypasses the
    cache fetches every prompt."""
    from mockllm import logits_from_prompt

    cache = {}
    for line in cache_text.splitlines():
        try:
            entry = json.loads(line)
            cache[entry["key"]] = entry["top_logprobs"]
        except ValueError:
            pass
    entries = []
    for prompts, use_cache in calls:
        fetched = {}
        for prompt in prompts:
            body = {"model": "mock-model", "prompt": prompt.text, "max_tokens": 1,
                    "temperature": 0.0, "logprobs": 20}
            key = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
            if use_cache and key in cache:
                entries.append((key, True, cache[key]))
            else:
                top = logits_from_prompt(prompt.text)
                entries.append((key, use_cache and key in fetched, top))
                fetched[key] = top
        if use_cache:
            cache.update(fetched)
    entries.sort(key=lambda e: e[:2])
    return [
        json.dumps({"key": key, "cached": cached, "top_logprobs": top}, sort_keys=True)
        for key, cached, top in entries
    ]


def test_probe_audit_lines_are_the_sorted_json_of_each_answer(tmp_path):
    payload = probe_payload(tmp_path, "", history_limit=4, max_concurrent=1)
    payload["synth"]["n_students"] = 200
    with MockLLMServer() as server:
        payload["probe"]["endpoint"] = server.endpoint
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        mastery = [json.loads(ws.split_path.read_text())["test"][0]]
        payload["probe"]["mastery_students"] = mastery
        cfg_path = write_config(tmp_path / "c.json", payload)
        cache = ws.root / "probe_cache" / "cache.jsonl"
        audit = ws.root / "probe_audit" / "llm.jsonl"

        def probe_and_check(stability: bool = False) -> list:
            before = cache.read_text() if cache.exists() else ""
            argv = ["probe", "--config", cfg_path]
            assert main(argv + ["--override", "probe.stability_check=true"] * stability) == 0
            want = expected_audit(before, probe_calls(ws, 4, mastery, stability))
            assert audit.read_text().splitlines() == want
            return want

        cold = probe_and_check()
        main_pass = probe_calls(ws, 4, mastery, False)[0][0]
        assert len({p.text for p in main_pass}) < len(main_pass)  # a prompt repeats
        assert server.hit_count == sum('"cached": false' in line for line in cold)
        assert all('"cached": true' in line for line in probe_and_check())
        probe_and_check(stability=True)

        lines = cache.read_text().splitlines()
        damaged = [lines[0], "{not json", *lines[2:]]
        damaged.append(json.dumps({"key": json.loads(lines[3])["key"],
                                   "top_logprobs": {"0": -0.25, "1": -1.5}}, sort_keys=True))
        cache.write_text("\n".join(damaged) + '\n{"key": "ab')
        hits_before = server.hit_count
        refetched = probe_and_check()
        assert server.hit_count == hits_before + 1
        assert sum('"cached": false' in line for line in refetched) == 1
        assert cache.read_text().splitlines()[:-1] == damaged


def test_warm_probe_counts_the_truncated_prompts_of_the_cold_one(tmp_path):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint, history_limit=3)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        report = tmp_path / "ws" / "probe_report_llm.json"
        counts = []
        for _ in range(2):
            assert main(["probe", "--config", cfg_path]) == 0
            counts.append(json.loads(report.read_text())["truncated_prompts"])
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_probe_artifacts_do_not_depend_on_concurrency(tmp_path):
    """Four connections or one write the same dumps, trajectory, cache and
    audit, though answers finish out of order: each pass takes them in ask
    order. Only the latencies in the report and the config hash differ."""

    def jittered(body):
        time.sleep(hashlib.sha256(body["prompt"].encode("utf-8")).digest()[1] % 4 / 1000)
        return logits_from_prompt(body["prompt"])

    runs = []
    with MockLLMServer(jittered) as server:
        for max_concurrent in (4, 1):
            root = tmp_path / f"c{max_concurrent}"
            root.mkdir()
            payload = probe_payload(
                root, server.endpoint, max_concurrent=max_concurrent, stability_check=True
            )
            assert main(["synth", "--config", write_config(root / "c.json", payload)]) == 0
            ws = Workspace(root / "ws")
            payload["probe"]["mastery_students"] = json.loads(ws.split_path.read_text())["test"][:1]
            assert main(["probe", "--config", write_config(root / "c.json", payload)]) == 0
            globs = ("dumps/*.csv", "trajectories/*/*.csv", "probe_cache/*", "probe_audit/*")
            runs.append({
                str(path.relative_to(ws.root)): path.read_bytes()
                for pattern in globs for path in sorted(ws.root.glob(pattern))
            })
    assert runs[0] == runs[1]
    assert {name.partition("/")[0] for name in runs[0]} == {
        "dumps", "trajectories", "probe_cache", "probe_audit"
    }


def test_probe_mastery_students_trajectories(tmp_path):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        split = json.loads(ws.split_path.read_text())
        student = split["test"][0]
        payload["probe"]["mastery_students"] = [student]
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["probe", "--config", cfg_path]) == 0
        assert ws.trajectory_path("llm", student).exists()
        mastery = read_prediction_dump(ws.dump_path("llm", "mastery"))
        assert {r.user_id for r in rows_of(mastery)} == {student}


def test_probe_mastery_student_from_train_split_gets_trajectory(tmp_path):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        student = json.loads(ws.split_path.read_text())["train"][0]
        payload["probe"]["mastery_students"] = [student]
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["probe", "--config", cfg_path]) == 0
    from ktrace.ingest import read_sequences

    steps = {s.user_id: s.steps for s in read_sequences(ws.sequences_path)}[student]
    trajectory = read_trajectory(ws.trajectory_path("llm", student))
    assert trajectory.p.shape == (len(steps), 3)
    assert not np.isnan(trajectory.p).any()
    mastery = read_prediction_dump(ws.dump_path("llm", "mastery"))
    assert {r.user_id for r in rows_of(mastery)} == {student}


def test_a_probe_rerun_leaves_no_mastery_output_of_an_earlier_run(tmp_path):
    """A probe of model m1 with a mastery student, then one of m2 with none:
    evaluate reports no coherence or heatmap for the tag, and train's files
    for the dkt tag stay."""
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint, model="m1")
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        student = json.loads(ws.split_path.read_text())["test"][0]
        payload["probe"]["mastery_students"] = [student]
        payload["evaluate"] = {"tags": ["dkt", "llm"], "heatmap_students": [student]}
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["train", "--config", cfg_path]) == 0
        assert main(["probe", "--config", cfg_path]) == 0
        assert ws.dump_path("llm", "mastery").exists()
        assert ws.trajectory_path("llm", student).exists()

        payload["probe"].update(model="m2", mastery_students=[])
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["probe", "--config", cfg_path]) == 0
        assert main(["evaluate", "--config", cfg_path]) == 0
    assert not ws.dump_path("llm", "mastery").exists()
    assert not (ws.root / "trajectories" / "llm").exists()
    metrics = json.loads(ws.report_path("metrics.json").read_text())
    assert "auc" in metrics["llm"]
    assert "coherence" not in metrics["llm"] and "heatmaps" not in metrics["llm"]
    assert "coherence" in metrics["dkt"] and student in metrics["dkt"]["heatmaps"]


def test_a_train_rerun_leaves_no_trajectory_of_an_earlier_run(tmp_path):
    payload = synth_config(tmp_path)
    assert main(["synth", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    ws = Workspace(tmp_path / "ws")
    student = json.loads(ws.split_path.read_text())["test"][0]
    payload["evaluate"] = {"heatmap_students": [student]}
    assert main(["train", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    assert ws.trajectory_path("dkt", student).exists()
    oracle = MasteryTrajectory(user_id=student, p=np.full((1, 3), 0.5), steps=[(0, 0, 1)])
    write_trajectory(ws.trajectory_path("oracle", student), oracle)

    payload["evaluate"] = {"heatmap_students": []}
    assert main(["train", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    assert not (ws.root / "trajectories" / "dkt").exists()
    assert ws.dump_path("dkt", "mastery").exists()
    assert ws.trajectory_path("oracle", student).exists()


# A ktrace command in a child process. Given a module of ktrace and a function
# name, that function prints "ready" once it has returned and then sleeps, so
# the child can be killed at that point.
KILLABLE_COMMAND = """
import importlib, sys, time
from ktrace import cli
command, cfg_path, *hook = sys.argv[1:]
if hook:
    module = importlib.import_module(f"ktrace.{hook[0]}")
    wrapped = getattr(module, hook[1])

    def ready_then_sleep(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        print("ready", flush=True)
        time.sleep(60)
        return result

    setattr(module, hook[1], ready_then_sleep)
sys.exit(cli.main([command, "--config", cfg_path]))
"""


def start_killable(command: str, cfg_path: str, *hook: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", KILLABLE_COMMAND, command, cfg_path, *hook],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def canonical_hashes(ws: Path) -> dict:
    """The sha256 of each file the benchmark checks (``CANONICAL_GLOBS`` of
    ``perfbench/checks.py``) and of each trajectory, by workspace path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    hashes = checks.artifact_hashes(ws)
    hashes.update({str(p.relative_to(ws)): hash_file(p) for p in ws.glob("trajectories/*/*.csv")})
    return hashes


@pytest.mark.parametrize("hook", [("dkt", "train"), ("cli", "write_prediction_dump")])
def test_train_killed_inside_the_lock_reruns_to_a_clean_run_s_files(tmp_path, hook):
    """Killed once training is done (before any write) or once the first
    dump is written, a rerun exits 0 with the files of an unkilled run."""
    cfg_paths = {}
    for name in ("clean", "killed"):
        payload = synth_config(tmp_path, workspace=str(tmp_path / name))
        cfg_path = write_config(tmp_path / f"{name}.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        student = json.loads((tmp_path / name / "split.json").read_text())["test"][0]
        payload["evaluate"] = {"heatmap_students": [student]}
        cfg_paths[name] = write_config(tmp_path / f"{name}.json", payload)
    assert main(["train", "--config", cfg_paths["clean"]]) == 0

    child = start_killable("train", cfg_paths["killed"], *hook)
    try:
        line = read_line(child)
    finally:
        stderr = kill(child)
    assert line == "ready\n", stderr
    assert child.returncode == -signal.SIGKILL
    assert main(["train", "--config", cfg_paths["killed"]]) == 0
    assert canonical_hashes(tmp_path / "killed") == canonical_hashes(tmp_path / "clean")


def test_probe_killed_in_a_request_reruns_to_a_clean_run_s_files(tmp_path):
    """The child is killed while the mock holds its 10th request, once it has
    cached an answer. The killed run and the rerun send at most one fetch
    window more requests than a clean run, and the rerun ends with the clean
    run's files."""
    held, release = threading.Event(), threading.Event()
    calls = itertools.count(1)

    def hold_the_tenth(body):
        if next(calls) == 10:
            held.set()
            release.wait(timeout=60)
        return logits_from_prompt(body["prompt"])

    def requests_of(name):
        return json.loads((tmp_path / name / "probe_report_llm.json").read_text())["network_requests"]

    with MockLLMServer() as server:
        cfg_paths = {}
        for name in ("clean", "killed"):
            payload = probe_payload(tmp_path, server.endpoint)
            payload["workspace"] = str(tmp_path / name)
            cfg_path = write_config(tmp_path / f"{name}.json", payload)
            assert main(["synth", "--config", cfg_path]) == 0
            student = json.loads((tmp_path / name / "split.json").read_text())["test"][0]
            payload["probe"]["mastery_students"] = [student]
            cfg_paths[name] = write_config(tmp_path / f"{name}.json", payload)
        assert main(["probe", "--config", cfg_paths["clean"]]) == 0

        server.script = hold_the_tenth
        before = server.hit_count
        child = start_killable("probe", cfg_paths["killed"])
        cache = tmp_path / "killed" / "probe_cache" / "cache.jsonl"
        try:
            was_held = held.wait(timeout=60)
            deadline = time.monotonic() + 30
            while was_held and time.monotonic() < deadline and not (
                cache.exists() and "\n" in cache.read_text()
            ):
                time.sleep(0.01)
        finally:
            stderr = kill(child)
            release.set()
        assert was_held, stderr
        assert child.returncode == -signal.SIGKILL
        killed_requests = server.hit_count - before
        assert main(["probe", "--config", cfg_paths["killed"]]) == 0
    assert 0 < requests_of("killed") < requests_of("clean")
    window = FETCH_WINDOW * payload["probe"]["max_concurrent"]
    assert killed_requests + requests_of("killed") <= requests_of("clean") + window
    assert canonical_hashes(tmp_path / "killed") == canonical_hashes(tmp_path / "clean")


def test_probe_skips_unknown_mastery_student_with_warning(tmp_path, capsys):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint)
        payload["probe"]["mastery_students"] = ["no-such-student"]
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        assert main(["probe", "--config", cfg_path]) == 0
    assert "warning: mastery student no-such-student not found; skipped" in capsys.readouterr().out
    ws = Workspace(tmp_path / "ws")
    assert not ws.dump_path("llm", "mastery").exists()
    assert ws.dump_path("llm").exists()


@pytest.mark.parametrize("cell", ["-1,0,1", "3,0,1", "0,0,2", "0,7,1"])
def test_probe_rejects_a_step_the_vocabulary_cannot_name(tmp_path, capsys, cell):
    """A hand-edited sequences.txt with a skill or quiz outside the
    vocabulary's K=3, or a label other than 0/1, fails before any request."""
    with MockLLMServer() as server:
        cfg_path = write_config(tmp_path / "c.json", probe_payload(tmp_path, server.endpoint))
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        student = json.loads(ws.split_path.read_text())["test"][1]
        lines = ws.sequences_path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{student}\t"))
        user_id, first, *rest = lines[at].split("\t")
        lines[at] = "\t".join([user_id, first, cell, *rest])
        ws.sequences_path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["probe", "--config", cfg_path]) == 1
        assert server.hit_count == 0
    assert capsys.readouterr().err.startswith(f"error: probe: student {student}: step 1 holds ")
    assert not ws.dump_path("llm").exists()


def test_train_probe_and_evaluate_never_iterate_a_step_table(tmp_path, monkeypatch, capsys):
    from ktrace.ingest import StepTable

    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint, stability_check=True)
        assert main(["synth", "--config", write_config(tmp_path / "c.json", payload)]) == 0
        ws = Workspace(tmp_path / "ws")
        split = json.loads(ws.split_path.read_text())
        students = [split["test"][0], split["train"][0]]
        payload["probe"]["mastery_students"] = students
        payload["evaluate"] = {"tags": ["dkt", "llm"], "heatmap_students": students}
        cfg_path = write_config(tmp_path / "c.json", payload)

        def no_iteration(self):
            raise AssertionError("a StepTable was iterated")

        monkeypatch.setattr(StepTable, "__iter__", no_iteration)
        for command in ("train", "probe", "evaluate"):
            assert main([command, "--config", cfg_path]) == 0, capsys.readouterr().err
    for tag in ("dkt", "llm"):
        for student in students:
            assert ws.trajectory_path(tag, student).exists()
            assert ws.report_path(f"heatmap_{tag}_{student}.svg").exists()
    report = json.loads((ws.root / "probe_report_llm.json").read_text())
    assert all(s["stable"] for s in report["stability"])


def test_probe_rejects_a_repeated_mastery_student_before_any_request(tmp_path, capsys):
    with MockLLMServer() as server:
        payload = probe_payload(tmp_path, server.endpoint)
        cfg_path = write_config(tmp_path / "c.json", payload)
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        student = json.loads(ws.split_path.read_text())["test"][0]
        payload["probe"]["mastery_students"] = [student, student]
        cfg_path = write_config(tmp_path / "c.json", payload)
        capsys.readouterr()
        assert main(["probe", "--config", cfg_path]) == 2
        assert server.hit_count == 0
    assert capsys.readouterr().err == (
        f"configuration error: probe: config.probe: mastery_students lists {student!r} twice\n"
    )
    assert not ws.dump_path("llm").exists()
    assert "probe:llm" not in ws.read_manifest()["stages"]


@pytest.mark.parametrize("command", ["train", "probe"])
def test_a_split_student_missing_from_sequences_is_named(tmp_path, capsys, command):
    with MockLLMServer() as server:
        cfg_path = write_config(tmp_path / "c.json", probe_payload(tmp_path, server.endpoint))
        assert main(["synth", "--config", cfg_path]) == 0
        ws = Workspace(tmp_path / "ws")
        split = json.loads(ws.split_path.read_text())
        split["test"].insert(1, "ghost")
        ws.split_path.write_text(json.dumps(split))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 1
        assert server.hit_count == 0
    assert capsys.readouterr().err == (
        f"error: {command}: {ws.split_path} lists student 'ghost', "
        f"which {ws.sequences_path} does not hold\n"
    )


def test_probe_tag_comes_from_the_config_alone(tmp_path, capsys):
    """The dump tag is ``probe.tag``, set in the file or by ``--override``;
    the manifest entry records the hash of the config that named it."""
    with MockLLMServer() as server:
        cfg_path = write_config(tmp_path / "c.json", probe_payload(tmp_path, server.endpoint))
        assert main(["synth", "--config", cfg_path]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["probe", "--config", cfg_path, "--tag", "other"])
        assert excinfo.value.code == 2
        override = ["--override", "probe.tag=other"]
        assert main(["probe", "--config", cfg_path, *override]) == 0
    ws = Workspace(tmp_path / "ws")
    assert ws.dump_path("other").exists()
    assert not ws.dump_path("llm").exists()
    cfg = load_config(cfg_path, overrides=["probe.tag=other"])
    assert ws.read_manifest()["stages"]["probe:other"]["config_hash"] == cfg.config_hash()


def test_probe_endpoint_down_fails_clearly(tmp_path, capsys):
    payload = probe_payload(
        tmp_path, "http://127.0.0.1:9/v1/completions", timeout=0.2, max_retries=0
    )
    cfg_path = write_config(tmp_path / "c.json", payload)
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["probe", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "probe failed" in err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_near_perfect_dump(tmp_path, capsys):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["perfect"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")

    from ktrace.ingest import read_sequences

    split = json.loads(ws.split_path.read_text())
    sequences = {s.user_id: s for s in read_sequences(ws.sequences_path)}
    eps = 0.01
    rows = []
    for user in split["test"]:
        for t, (skill, _, y) in enumerate(sequences[user].steps):
            if t == 0:
                continue
            rows.append(
                Row(
                    user_id=user, step=t, skill=skill, y_true=y,
                    p=1.0 - eps if y == 1 else eps, model_tag="perfect",
                )
            )
    write_prediction_dump(ws.dump_path("perfect"), predictions_of(rows))

    assert main(["evaluate", "--config", cfg_path]) == 0
    metrics = json.loads(ws.report_path("metrics.json").read_text())["perfect"]
    assert metrics["auc"] == pytest.approx(1.0)
    assert all(row["error"] == 0.0 for row in metrics["stage_errors"])
    assert metrics["confusion"]["accuracy"] == pytest.approx(1.0)
    assert ws.report_path("roc_perfect.csv").exists()


def test_evaluate_hand_built_three_record_dump(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["hand"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    rows = [
        Row("u1", 1, 0, 1, 0.9, "hand"),
        Row("u1", 2, 1, 0, 0.4, "hand"),
        Row("u2", 1, 0, 0, 0.6, "hand"),
    ]
    write_prediction_dump(ws.dump_path("hand"), predictions_of(rows))
    assert main(["evaluate", "--config", cfg_path]) == 0
    metrics = json.loads(ws.report_path("metrics.json").read_text())["hand"]
    # hand-computed confusion at 0.5: tp=1, tn=1, fp=1, fn=0
    assert metrics["confusion"]["counts"] == {"tp": 1, "tn": 1, "fp": 1, "fn": 0}
    assert metrics["confusion"]["accuracy"] == pytest.approx(2 / 3)
    assert metrics["auc"] == pytest.approx(1.0)  # pos score above both negs


def test_evaluate_roc_report_cells_are_plain_numbers(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["oracle"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["evaluate", "--config", cfg_path]) == 0
    lines = Workspace(tmp_path / "ws").report_path("roc_oracle.csv").read_text().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) > 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 3
        for cell in cells:
            float(cell)  # a repr such as np.float64(0.5) raises here


def test_evaluate_roc_report_bytes_are_repr_rows(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["oracle"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["evaluate", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    roc = roc_auc(read_prediction_dump(ws.dump_path("oracle"))).roc
    expected = "fpr,tpr,threshold\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in roc)
    body = ws.report_path("roc_oracle.csv").read_bytes()
    assert body == expected.encode("utf-8")
    lines = body.decode("utf-8").splitlines()
    assert lines[1] == "0.0,0.0,inf"
    assert lines[-1] == "1.0,1.0,-inf"


def test_evaluate_unusable_all_skills_volatility_keeps_metrics_json_valid(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    unresolved, short, fine = json.loads(ws.split_path.read_text())["test"][:3]
    steps = [(0, 0, 1), (1, 1, 0), (0, 0, 1)]
    for user, p, n in (
        (unresolved, np.full((3, 3), np.nan), 3),
        (short, np.full((1, 3), 0.5), 1),
        (fine, np.array([[0.5, 0.5, 0.5], [0.6, 0.4, 0.5], [0.6, 0.6, 0.5]]), 3),
    ):
        write_trajectory(
            ws.trajectory_path("oracle", user),
            MasteryTrajectory(user_id=user, p=p, steps=steps[:n]),
        )
    cfg_payload["evaluate"] = {
        "tags": ["oracle"], "coherence_all_skills": True,
        "heatmap_students": [unresolved, short, fine],
    }
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["evaluate", "--config", cfg_path]) == 0

    def no_constants(name):
        raise ValueError(f"metrics.json holds {name}")

    text = ws.report_path("metrics.json").read_text()
    heatmaps = json.loads(text, parse_constant=no_constants)["oracle"]["heatmaps"]
    assert "no resolved step-to-step change" in heatmaps[unresolved]["volatility_all_skills_error"]
    assert "at least 2 steps" in heatmaps[short]["volatility_all_skills_error"]
    assert "volatility_all_skills" not in heatmaps[unresolved]
    assert heatmaps[fine]["volatility_all_skills"] == pytest.approx(0.4 / 6)


def test_evaluate_side_by_side_tags_and_missing_tag(tmp_path, capsys):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["oracle", "ghost"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["evaluate", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "ghost" in out and "skipped" in out
    ws = Workspace(tmp_path / "ws")
    metrics = json.loads(ws.report_path("metrics.json").read_text())
    assert "oracle" in metrics and "ghost" not in metrics


def test_evaluate_single_class_dump_reports_auc_error(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["onesided"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    rows = [Row("u1", t, 0, 1, 0.5 + t / 100, "onesided") for t in range(1, 5)]
    write_prediction_dump(ws.dump_path("onesided"), predictions_of(rows))
    assert main(["evaluate", "--config", cfg_path]) == 0
    metrics = json.loads(ws.report_path("metrics.json").read_text())["onesided"]
    assert "auc" not in metrics
    assert "one class" in metrics["auc_error"]
    assert metrics["coverage"]["total"] == 4


def test_evaluate_all_tags_missing_fails(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["ghost"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["evaluate", "--config", cfg_path]) == 1


def test_evaluate_names_an_empty_dump(tmp_path, capsys):
    cfg_payload = synth_config(tmp_path)
    cfg_payload["evaluate"] = {"tags": ["oracle"]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    dump = Workspace(tmp_path / "ws").dump_path("oracle")
    dump.write_bytes(b"")
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert str(dump) in err and "no header row" in err


def test_evaluate_refuses_mismatched_vocab_hashes(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    manifest = json.loads(ws.manifest_path.read_text())
    manifest["stages"]["train"] = {"vocab_hash": "deadbeef", "config_hash": "x", "seed": 0}
    ws.manifest_path.write_text(json.dumps(manifest))
    assert main(["evaluate", "--config", cfg_path]) == 1


def test_evaluate_includes_coherence_and_heatmaps(tmp_path):
    cfg_payload = synth_config(tmp_path)
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["synth", "--config", cfg_path]) == 0
    ws = Workspace(tmp_path / "ws")
    split = json.loads(ws.split_path.read_text())
    student = split["test"][0]
    cfg_payload["evaluate"] = {"tags": ["dkt"], "heatmap_students": [student]}
    cfg_path = write_config(tmp_path / "c.json", cfg_payload)
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["evaluate", "--config", cfg_path]) == 0
    metrics = json.loads(ws.report_path("metrics.json").read_text())["dkt"]
    assert "coherence" in metrics
    assert 0.0 <= metrics["coherence"]["inconsistency"] <= 1.0
    assert student in metrics["heatmaps"]
    svg = ws.report_path(f"heatmap_dkt_{student}.svg")
    assert svg.exists()


# ---------------------------------------------------------------------------
# gradcheck + helpers


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gradcheck_command_fails_on_a_wrong_gradient(monkeypatch, capsys):
    from ktrace import nncore

    net_loss_and_grads = nncore.net_loss_and_grads

    def flipped(*args):
        """The gradients with the sign of b_out's largest entry flipped."""
        loss, grads = net_loss_and_grads(*args)
        grads["b_out"] = grads["b_out"].copy()
        grads["b_out"][np.argmax(np.abs(grads["b_out"]))] *= -1.0
        return loss, grads

    monkeypatch.setattr(nncore, "net_loss_and_grads", flipped)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: error above 1e-4" in out and "PASS" not in out


def test_representative_quizzes_most_frequent_with_tie_break():
    seqs = [
        StudentSequence("a", [(0, 5, 1), (0, 5, 0), (0, 2, 1), (1, 7, 1)]),
        StudentSequence("b", [(0, 2, 1), (1, 9, 0), (1, 7, 0)]),
    ]
    # skill 0: quiz 5 x2, quiz 2 x2 -> tie, smaller quiz index wins
    assert representative_quizzes(table_of(seqs), k=3) == [2, 7, 0]
