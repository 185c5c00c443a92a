"""Workload definitions and seeded input generation.

Every workload is a list of ``ktrace`` commands run against one fresh
workspace per pipeline iteration. The inputs (run config, and for the
proxy the interaction log) are derived from the workload seed alone, so the
same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

# The reference spec of tests/test_synth.py::REFERENCE_SPEC (seed aside).
REFERENCE_PROCESS = {"p_init": 0.3, "p_learn": 0.15, "p_guess": 0.2, "p_slip": 0.1}

# The same epoch count and patience mean early stopping never ends a run early.
EPOCHS = 1

PROBE_DELAY_MS = 5.0
PROBE_CONCURRENCY = 2  # = nproc on the 2-core reference box
# Enough warm passes that cache reads take about as long as the cold pass,
# so a slower cache read moves pipeline_s as much as a slower request does.
WARM_PASSES = 32
# Untraced iterations evaluate the workspace this many times: one pass is
# short, and the box's speed drifts over seconds, so evaluate needs many
# samples spread over the run to be steady.
EVALUATE_PASSES = 10


def share_one_cpu() -> None:
    """Run this process on the last CPU it may use. The pipeline and the mock
    endpoint both call this, so the probe's client threads and the server
    share one CPU. With the 5 ms delay a second CPU adds no probe
    throughput, and on a shared VM the wakeups across CPUs make a probe pass
    up to 1.8x slower, by an amount that changes from minute to minute.
    No-op where affinity is unsupported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class Workload:
    name: str
    setup: str               # "synth" or "prepare"
    k: int
    n_students: int
    mean_length: float
    max_t: int
    tags: List[str]
    heatmap_students: int = 0
    train: bool = True
    probe: bool = False

    @property
    def model(self) -> str:
        """Tag of the dump the workload's model writes."""
        return "dkt" if self.train else "llm"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ref-k5",
            setup="synth",
            k=5,
            n_students=2000,
            mean_length=40.0,
            max_t=100,
            tags=["dkt", "oracle"],
            heatmap_students=3,
        ),
        Workload(
            name="proxy-k149",
            setup="prepare",
            k=149,
            n_students=1000,
            mean_length=56.0,
            max_t=200,
            tags=["dkt"],
            heatmap_students=2,
        ),
        Workload(
            name="probe-mock",
            setup="synth",
            k=5,
            n_students=200,
            mean_length=40.0,
            max_t=100,
            tags=["llm", "oracle"],
            train=False,
            probe=True,
        ),
    )
}


def synth_section(w: Workload) -> dict:
    return {"k": w.k, **REFERENCE_PROCESS, "n_students": w.n_students, "mean_length": w.mean_length}


def run_config(w: Workload, seed: int, workspace: Path, users: List[str],
               raw_path: Path | None, endpoint: str | None) -> dict:
    """The JSON config every command of one pipeline iteration reads."""
    cfg: dict = {
        "workspace": str(workspace),
        "seed": seed,
        "dkt": {"batch_size": 64, "max_t": w.max_t, "patience": EPOCHS, "max_epochs": EPOCHS},
        "evaluate": {
            "tags": list(w.tags),
            "heatmap_students": users[: w.heatmap_students],
        },
    }
    if w.setup == "synth":
        cfg["synth"] = synth_section(w)
    else:
        cfg["data"] = {"raw_path": str(raw_path)}
    if w.probe:
        cfg["probe"] = {
            "endpoint": endpoint,
            "model": "mock",
            "timeout": 10.0,
            "max_retries": 1,
            "backoff": 0.01,
            "max_concurrent": PROBE_CONCURRENCY,
            "tag": "llm",
        }
    return cfg


def commands(w: Workload, config_path: Path, passes: bool = False) -> List[dict]:
    """The ktrace command lines of one pipeline iteration, in order. With
    ``passes`` the pipeline ends with EVALUATE_PASSES evaluate passes, which
    overwrite their outputs with identical bytes."""
    cfg = ["--config", str(config_path)]
    out = [{"phase": "setup", "argv": [w.setup] + cfg}]
    if w.train:
        out.append({"phase": "train", "argv": ["train"] + cfg})
    if w.probe:
        out.append({"phase": "probe_cold", "argv": ["probe"] + cfg})
        out += [{"phase": "probe_warm", "argv": ["probe"] + cfg}] * WARM_PASSES
    out += [{"phase": "evaluate", "argv": ["evaluate"] + cfg}] * (EVALUATE_PASSES if passes else 1)
    return out


def generative_spec(w: Workload, seed: int):
    from ktrace.synth import GenerativeSpec

    return GenerativeSpec(**synth_section(w), seed=seed)


def write_assistments_csv(path: Path, corpus, seed: int) -> Dict[str, list]:
    """Render a synthetic corpus with the default ASSISTments header.

    Returns each rendered user id with its steps. Order ids increase along
    each student's attempts; problem ids are drawn from a few items per skill
    with a seeded generator.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 149)))
    users: Dict[str, list] = {}
    order_id = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["order_id", "user_id", "problem_id", "correct", "skill_id", "skill_name"])
        for i, seq in enumerate(corpus.sequences):
            user = str(70000 + i)
            users[user] = seq.steps
            items = rng.integers(0, 4, size=len(seq.steps))
            for (skill, _, y), item in zip(seq.steps, items):
                order_id += 1
                writer.writerow(
                    [order_id, user, f"{100 + skill}{item}", y, 100 + skill, f"Skill {skill}"]
                )
    return users


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
