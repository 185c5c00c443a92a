"""The config reader: every section's keys, defaults and types come from its
dataclass. The expected values below are written out, not read from those
dataclasses, so a changed default or a dropped key shows here."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from ktrace.cli import main
from ktrace.config import ConfigError, load_config

TRAIN_DEFAULTS = {
    "embedding_dim": 64, "hidden_dim": 128, "learning_rate": 0.001, "batch_size": 32,
    "max_t": 200, "clip_norm": 5.0, "patience": 3, "max_epochs": 100,
}
EVAL_DEFAULTS = {
    "tags": ["dkt"], "threshold": 0.5, "stage_macro": False, "coherence_all_skills": False,
    "heatmap_students": [],
}

# one value for every key of every section, none of them a default
EVERY_KEY = {
    "workspace": "w",
    "seed": 7,
    "ratios": [0.7, 0.2, 0.1],
    "data": {
        "raw_path": "r.csv", "delimiter": ";", "encoding": "latin-1",
        "columns": {"user_id": "uid", "order_id": 5},
    },
    "dkt": {
        "embedding_dim": 8, "hidden_dim": 16, "learning_rate": 1, "batch_size": 4,
        "max_t": 50, "clip_norm": 2, "patience": 2, "max_epochs": 9,
    },
    "probe": {
        "endpoint": "http://e", "model": "m", "timeout": 3, "max_retries": 2, "backoff": 1,
        "max_concurrent": 3, "logprob_depth": 5, "history_limit": 10, "tag": "x",
        "cache": False, "mastery_students": [1, "2"], "stability_check": True,
    },
    "synth": {
        "k": 3, "p_init": [0.1, 0.2, 0.3], "p_learn": 0, "p_guess": 0.25, "p_slip": 0.05,
        "n_students": 20, "mean_length": 10, "min_length": 3,
    },
    "evaluate": {
        "tags": ["dkt", 5], "threshold": 1, "stage_macro": True,
        "coherence_all_skills": True, "heatmap_students": [3],
    },
}


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def loaded(tmp_path: Path, payload: dict) -> dict:
    """``load_config`` of ``payload`` as plain values, without ``raw``."""
    cfg = load_config(write_config(tmp_path / "c.json", payload))
    assert cfg.raw == payload
    values = dataclasses.asdict(cfg)
    del values["raw"]
    return values


@pytest.mark.parametrize("sections", [{}, {"data": None, "probe": None, "synth": None}])
def test_bare_config_loads_every_default(tmp_path, sections):
    assert loaded(tmp_path, {"workspace": "w", **sections}) == {
        "workspace": "w", "seed": 0, "ratios": (0.8, 0.1, 0.1),
        "data": None, "dkt": {**TRAIN_DEFAULTS, "seed": 0}, "probe": None, "synth": None,
        "evaluate": EVAL_DEFAULTS,
    }


def test_minimal_sections_load_their_defaults(tmp_path):
    payload = {
        "workspace": "w",
        "seed": 3,
        "data": {"raw_path": "r.csv"},
        "probe": {"endpoint": "e", "model": "m"},
        "synth": {"k": 2, "n_students": 5},
    }
    assert loaded(tmp_path, payload) == {
        "workspace": "w", "seed": 3, "ratios": (0.8, 0.1, 0.1),
        "data": {"raw_path": "r.csv", "delimiter": ",", "encoding": "utf-8", "columns": {}},
        "dkt": {**TRAIN_DEFAULTS, "seed": 3},
        "probe": {
            "probe": {
                "endpoint": "e", "model": "m", "timeout": 60.0, "max_retries": 3,
                "backoff": 0.5, "max_concurrent": 4, "logprob_depth": 20,
                "history_limit": 100, "cache_dir": str(Path("w") / "probe_cache"),
            },
            "tag": "llm", "mastery_students": [], "stability_check": False,
        },
        "synth": {
            "k": 2, "n_students": 5, "p_init": (0.3, 0.3), "p_learn": (0.15, 0.15),
            "p_guess": (0.2, 0.2), "p_slip": (0.1, 0.1), "mean_length": 40.0,
            "min_length": 4, "seed": 3,
        },
        "evaluate": EVAL_DEFAULTS,
    }


def test_every_key_loads(tmp_path):
    assert loaded(tmp_path, copy.deepcopy(EVERY_KEY)) == {
        "workspace": "w", "seed": 7, "ratios": (0.7, 0.2, 0.1),
        "data": {
            "raw_path": "r.csv", "delimiter": ";", "encoding": "latin-1",
            "columns": {"user_id": "uid", "order_id": "5"},
        },
        "dkt": {
            "embedding_dim": 8, "hidden_dim": 16, "learning_rate": 1.0, "batch_size": 4,
            "max_t": 50, "clip_norm": 2.0, "patience": 2, "max_epochs": 9, "seed": 7,
        },
        "probe": {
            "probe": {
                "endpoint": "http://e", "model": "m", "timeout": 3.0, "max_retries": 2,
                "backoff": 1.0, "max_concurrent": 3, "logprob_depth": 5,
                "history_limit": 10, "cache_dir": None,
            },
            "tag": "x", "mastery_students": ["1", "2"], "stability_check": True,
        },
        "synth": {
            "k": 3, "n_students": 20, "p_init": (0.1, 0.2, 0.3), "p_learn": (0.0, 0.0, 0.0),
            "p_guess": (0.25, 0.25, 0.25), "p_slip": (0.05, 0.05, 0.05), "mean_length": 10.0,
            "min_length": 3, "seed": 7,
        },
        "evaluate": {
            "tags": ["dkt", "5"], "threshold": 1.0, "stage_macro": True,
            "coherence_all_skills": True, "heatmap_students": ["3"],
        },
    }


ACCEPTED_KEYS = {
    None: {"workspace", "seed", "ratios", "data", "dkt", "probe", "synth", "evaluate"},
    "data": {"raw_path", "delimiter", "encoding", "columns"},
    "dkt": {
        "embedding_dim", "hidden_dim", "learning_rate", "batch_size", "max_t", "clip_norm",
        "patience", "max_epochs",
    },
    "probe": {
        "endpoint", "model", "timeout", "max_retries", "backoff", "max_concurrent",
        "logprob_depth", "history_limit", "tag", "cache", "mastery_students", "stability_check",
    },
    "synth": {
        "k", "p_init", "p_learn", "p_guess", "p_slip", "n_students", "mean_length", "min_length",
    },
    "evaluate": {"tags", "threshold", "stage_macro", "coherence_all_skills", "heatmap_students"},
}
# field names of the backing dataclasses that the file may not set
NOT_KEYS = {
    None: {"raw"},
    "data": set(),
    "dkt": {"seed"},
    "probe": {"probe", "cache_dir"},
    "synth": {"seed"},
    "evaluate": set(),
}


@pytest.mark.parametrize("section", list(ACCEPTED_KEYS), ids=lambda s: s or "top")
def test_each_section_accepts_exactly_its_keys(tmp_path, section):
    node = EVERY_KEY if section is None else EVERY_KEY[section]
    assert set(node) == ACCEPTED_KEYS[section]
    for key in NOT_KEYS[section] | {"bogus"}:
        payload = copy.deepcopy(EVERY_KEY)
        (payload if section is None else payload[section])[key] = "x"
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            load_config(write_config(tmp_path / "c.json", payload))


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"evaluate": {"tags": "dkt"}}, "config.evaluate.tags"),
        ({"probe": {"endpoint": "e", "model": "m", "mastery_students": "81439"}},
         "config.probe.mastery_students"),
        ({"dkt": {"batch_size": True}}, "config.dkt.batch_size"),
        ({"dkt": {"max_t": False}}, "config.dkt.max_t"),
        ({"synth": {"k": 2, "n_students": 5, "p_init": True}}, "config.synth.p_init"),
        ({"dkt": []}, "config.dkt"),
        ({"evaluate": "dkt"}, "config.evaluate"),
        ({"ratios": [0.5, "x", 0.5]}, "config.ratios"),
        ({"probe": {"endpoint": "e", "model": "m", "max_concurrent": 0}}, "max_concurrent"),
        ({"synth": {"n_students": 5}}, "'k'"),
        ({"probe": {"endpoint": "e", "model": "m", "history_limit": 0}}, "history_limit"),
        ({"probe": {"endpoint": "e", "model": "m", "history_limit": -1}}, "history_limit"),
        ({"ratios": [1.2, -0.1, -0.1]}, "ratios"),
        ({"probe": {"endpoint": "e", "model": "m", "max_retries": -1}}, "max_retries"),
        ({"probe": {"endpoint": "e", "model": "m", "timeout": 0}}, "timeout"),
        ({"probe": {"endpoint": "e", "model": "m", "backoff": -1}}, "backoff"),
        ({"probe": {"endpoint": "e", "model": "m", "backoff": float("nan")}}, "backoff"),
        ({"dkt": {"embedding_dim": 0}}, "embedding_dim"),
        ({"dkt": {"hidden_dim": 0}}, "hidden_dim"),
        ({"dkt": {"batch_size": 0}}, "batch_size"),
        ({"dkt": {"max_epochs": 0}}, "max_epochs"),
        ({"dkt": {"patience": 0}}, "patience"),
        ({"dkt": {"max_t": 1}}, "max_t"),
        ({"dkt": {"learning_rate": 0}}, "learning_rate"),
        ({"dkt": {"learning_rate": float("nan")}}, "learning_rate"),
        ({"dkt": {"clip_norm": -1}}, "clip_norm"),
        ({"dkt": {"clip_norm": float("nan")}}, "clip_norm"),
        ({"seed": -1}, "seed"),
    ],
    ids=[
        "tags-string", "students-string", "int-true", "int-false", "rate-true",
        "section-list", "section-string", "ratio-string", "concurrency-0", "missing-k",
        "history-limit-0", "history-limit-negative", "ratio-negative", "retries-negative",
        "timeout-0", "backoff-negative", "backoff-nan", "embedding-dim-0", "hidden-dim-0",
        "batch-size-0", "max-epochs-0", "patience-0", "max-t-1", "learning-rate-0",
        "learning-rate-nan", "clip-norm-negative", "clip-norm-nan", "seed-negative",
    ],
)
def test_bad_values_exit_2_naming_the_key(tmp_path, capsys, extra, named):
    cfg_path = write_config(tmp_path / "c.json", {"workspace": str(tmp_path / "ws"), **extra})
    assert main(["evaluate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
