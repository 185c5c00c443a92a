"""Command-line orchestration of the end-to-end workflow.

Subcommands: prepare | train | probe | evaluate | gradcheck | synth. Every
run but gradcheck is driven by one JSON config file plus optional --override
flags (flags win). ``main`` checks the command's config section and input
file, then runs the command holding a ``flock`` on the workspace's ``.lock``
file (POSIX only) for its whole run, so a second invocation on the same
workspace is rejected. All artifacts live inside the configured workspace.

Exit codes: 0 success, 1 runtime failure, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import functools
import json
import shutil
import sys
import time
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dkt, evaluation, ingest, llmprobe, nncore, synth
from .config import ConfigError, EvalSection, RunConfig, load_config
from .records import (
    MasteryTrajectory,
    Predictions,
    read_prediction_dump,
    read_trajectory,
    write_prediction_dump,
    write_trajectory,
)

MANIFEST_VERSION = 1


class WorkspaceLocked(RuntimeError):
    pass


class Workspace:
    """Path layout and manifest bookkeeping for one run directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # layout ---------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def sequences_path(self) -> Path:
        return self.root / "sequences.txt"

    @property
    def vocab_path(self) -> Path:
        return self.root / "vocab.json"

    @property
    def split_path(self) -> Path:
        return self.root / "split.json"

    @property
    def stats_path(self) -> Path:
        return self.root / "stats.json"

    @property
    def checkpoint_path(self) -> Path:
        return self.root / "checkpoint.npz"

    @property
    def training_log_path(self) -> Path:
        return self.root / "training_log.json"

    @property
    def repr_quiz_path(self) -> Path:
        return self.root / "skill_repr_quiz.json"

    @property
    def oracle_path(self) -> Path:
        return self.root / "oracle.tsv"

    def dump_path(self, tag: str, kind: str = "predictions") -> Path:
        return self.root / "dumps" / f"{tag}.{kind}.csv"

    def trajectory_path(self, tag: str, user_id: str) -> Path:
        return self.root / "trajectories" / tag / f"{user_id}.csv"

    def report_path(self, name: str) -> Path:
        return self.root / "reports" / name

    # manifest ---------------------------------------------------------------
    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"version": MANIFEST_VERSION, "stages": {}}
        return read_json(self.manifest_path)

    def commit_stage(self, stage: str, cfg: RunConfig, vocab_hash: str) -> None:
        """Record ``stage`` in the manifest: a stage's last write, made once
        all of its files are in place."""
        manifest = self.read_manifest()
        manifest["version"] = MANIFEST_VERSION
        manifest.setdefault("stages", {})[stage] = {
            "config_hash": cfg.config_hash(), "vocab_hash": vocab_hash, "seed": cfg.seed,
        }
        write_json(self.manifest_path, manifest)

    def clear_outputs(self, tag: str) -> None:
        """Delete ``tag``'s mastery dump and trajectories, which a run writes
        only for the students it is asked for, so no earlier run's stay."""
        self.dump_path(tag, "mastery").unlink(missing_ok=True)
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(self.root / "trajectories" / tag)

    @contextlib.contextmanager
    def lock(self):
        """Hold an exclusive ``flock`` on ``.lock`` for the block. The kernel
        drops it when this process exits, however it exits; the file stays."""
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceLocked(f"workspace {self.root} is locked by another invocation") from None
            yield self


def write_json(path: Path, payload: object) -> None:
    """Sorted, indented JSON; a dataclass is written as its fields."""
    with ingest.atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def find_students(table: ingest.StepTable, users: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """The positions in ``table`` of the ``users`` it holds, in their order,
    and the ``users`` it lacks."""
    position = {user_id: i for i, user_id in enumerate(table.user_ids)}
    rows = [position.get(user_id, -1) for user_id in users]
    missing = [user_id for user_id, row in zip(users, rows) if row < 0]
    return np.array([row for row in rows if row >= 0], dtype=np.int64), missing


def split_rows(ws: Workspace, table: ingest.StepTable, users: Sequence[str]) -> np.ndarray:
    """The positions in ``table`` of the ``split.json`` students ``users``."""
    rows, missing = find_students(table, users)
    if missing:
        raise ValueError(
            f"{ws.split_path} lists student {missing[0]!r}, "
            f"which {ws.sequences_path} does not hold"
        )
    return rows


def load_split_sequences(ws: Workspace, table: ingest.StepTable) -> Dict[str, ingest.StepTable]:
    """The split's train, val and test students of ``table``, one table each."""
    split_info = read_json(ws.split_path)
    return {
        part: table.take(split_rows(ws, table, split_info[part]))
        for part in ("train", "val", "test")
    }


def load_vocab(ws: Workspace) -> ingest.Vocab:
    return ingest.Vocab(**{name: tuple(ids) for name, ids in read_json(ws.vocab_path).items()})


def representative_quizzes(train: ingest.StepTable, k: int) -> List[int]:
    """Most frequent training-split quiz index per skill; ties break toward
    the smaller quiz index. Skills unseen in training fall back to quiz 0."""
    position, _, counts = ingest.distinct_rows(train.skill, train.quiz)
    skill, quiz = train.skill[position], train.quiz[position]
    # rank each skill's pairs by count, then quiz index; the best is written last
    last_best = np.lexsort((-quiz, counts))
    best = dict(zip(skill[last_best].tolist(), quiz[last_best].tolist()))
    return [best.get(skill, 0) for skill in range(k)]


# ---------------------------------------------------------------------------
# stats table


STAT_ROWS = [
    ("# of records (interactions)", "n_records", "{:d}"),
    ("# of students", "n_students", "{:d}"),
    ("# of quizzes", "n_quizzes", "{:d}"),
    ("# of skills", "n_skills", "{:d}"),
    ("Avg. interactions per student", "avg_per_student", "{:.1f}"),
    ("Avg. interactions per quiz", "avg_per_quiz", "{:.1f}"),
    ("Avg. interactions per skill", "avg_per_skill", "{:.1f}"),
    ("Correct interactions (y=1)", "n_correct", "{:d}"),
    ("Incorrect interactions (y=0)", "n_incorrect", "{:d}"),
]


def print_stats_table(stats_by_column: Dict[str, ingest.DatasetStats]) -> None:
    columns = list(stats_by_column)
    header = f"{'Statistic':<34}" + "".join(f"{c:>14}" for c in columns)
    print(header)
    print("-" * len(header))
    for label, attr, fmt in STAT_ROWS:
        cells = [fmt.format(getattr(stats_by_column[name], attr)) for name in columns]
        print(f"{label:<34}" + "".join(f"{c:>14}" for c in cells))


# ---------------------------------------------------------------------------
# prepare


def write_prepared_workspace(
    ws: Workspace,
    table: ingest.StepTable,
    vocab: ingest.Vocab,
    split: ingest.DatasetSplit,
    stats_by_column: Dict[str, ingest.DatasetStats],
    rejects: Sequence[ingest.RejectedRow] = (),
    filter_report: Optional[ingest.FilterReport] = None,
) -> None:
    """Write the files ``prepare`` and ``synth`` share; the caller commits
    its stage once its own files are written too."""
    ingest.write_sequences(ws.sequences_path, table)
    write_json(ws.vocab_path, vocab)
    write_json(
        ws.split_path,
        {
            "seed": split.seed,
            "ratios": list(split.ratios),
            "train": split.train.user_ids,
            "val": split.val.user_ids,
            "test": split.test.user_ids,
        },
    )
    write_json(ws.stats_path, stats_by_column)
    if filter_report is not None:
        write_json(ws.root / "filter_report.json", filter_report)
    ingest.write_rejects(ws.root / "rejects.csv", rejects)
    write_json(
        ws.repr_quiz_path,
        {"repr_quiz": representative_quizzes(split.train, vocab.k)},
    )


def cmd_prepare(cfg: RunConfig, ws: Workspace) -> int:
    with open(cfg.data.raw_path, "r", encoding=cfg.data.encoding, newline="") as fh:
        parsed = ingest.parse_interactions(
            fh, columns=cfg.data.columns or None, delimiter=cfg.data.delimiter
        )
    table, vocab, filter_report = ingest.filter_and_order(parsed.columns)
    if not table:
        raise ConfigError("no students survived preprocessing")
    split = ingest.split_students(table, cfg.ratios, cfg.seed)

    stats_by_column = {
        "original": ingest.summarize_records(parsed.columns),
        "preprocessed": ingest.summarize(table),
        **ingest.summarize_split(split),
    }
    write_prepared_workspace(
        ws, table, vocab, split, stats_by_column,
        rejects=parsed.rejects, filter_report=filter_report,
    )
    ws.commit_stage("prepare", cfg, vocab.content_hash())

    print_stats_table(stats_by_column)
    print(
        f"\nparsed {len(parsed.columns)} records "
        f"({len(parsed.rejects)} rejected, {parsed.duplicates_dropped} duplicates); "
        f"kept {filter_report.kept_records} records / {filter_report.kept_students} students "
        f"after filtering (missing skill: {filter_report.missing_skill}, "
        f"multi-skill: {filter_report.multi_skill}, "
        f"short: {filter_report.short_student_rows})"
    )
    print(f"workspace ready: {ws.root}")
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig, ws: Workspace) -> int:
    corpus = synth.generate(cfg.synth)
    ids = tuple(map(str, range(cfg.synth.k)))  # quiz index equals skill index
    vocab = ingest.Vocab(skill_ids=ids, quiz_ids=ids, skill_names=tuple(corpus.skill_names()))
    split = ingest.split_students(corpus.sequences, cfg.ratios, cfg.seed)
    stats_by_column = {
        "preprocessed": ingest.summarize(corpus.sequences),
        **ingest.summarize_split(split),
    }
    write_prepared_workspace(ws, corpus.sequences, vocab, split, stats_by_column)
    synth.write_oracle_sidecar(ws.oracle_path, corpus)
    oracle = synth.oracle_records(corpus, split.test)
    write_prediction_dump(ws.dump_path("oracle"), oracle)
    write_json(ws.root / "generative_spec.json", cfg.synth)
    ws.commit_stage("synth", cfg, vocab.content_hash())

    print_stats_table(stats_by_column)
    print(
        f"\nsynthetic corpus: {cfg.synth.n_students} students, "
        f"oracle AUC (test, next-step positions): "
        f"{evaluation.roc_auc(oracle).auc:.4f}"
    )
    print(f"workspace ready: {ws.root}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: RunConfig, ws: Workspace) -> int:
    table = ingest.read_sequences(ws.sequences_path)
    parts = load_split_sequences(ws, table)
    vocab = load_vocab(ws)
    vocab_hash = vocab.content_hash()

    t0 = time.perf_counter()
    model, log = dkt.train(parts["train"], parts["val"], vocab.k, cfg.dkt, vocab_hash=vocab_hash)
    wall = time.perf_counter() - t0

    ws.clear_outputs("dkt")
    dkt.save_checkpoint(model, ws.checkpoint_path)
    best = min(e.val_loss for e in log)
    write_json(ws.training_log_path, {"epochs": log, "best_val_loss": best, "config": cfg.dkt})

    predictions, mastery = dkt.predict_records(model, parts["test"], tag="dkt")
    write_prediction_dump(ws.dump_path("dkt"), predictions)
    write_prediction_dump(ws.dump_path("dkt", "mastery"), mastery)

    rows, missing = find_students(table, cfg.evaluate.heatmap_students)
    for user_id in missing:
        print(f"warning: heatmap student {user_id} not found; skipped")
    for row in rows.tolist():
        traj = dkt.mastery_trajectory(model, table.take([row]))
        write_trajectory(ws.trajectory_path("dkt", table.user_ids[row]), traj)

    ws.commit_stage("train", cfg, vocab_hash)
    print(
        f"trained {len(log)} epochs in {wall:.1f}s; best validation loss {best:.4f}; "
        f"test dump: {len(predictions)} predictions"
    )
    return 0


# ---------------------------------------------------------------------------
# probe


def cmd_probe(cfg: RunConfig, ws: Workspace) -> int:
    # only the test split and the mastery students are probed, so only they are read
    test_users = read_json(ws.split_path)["test"]
    table = ingest.read_sequences(ws.sequences_path, users={*test_users, *cfg.probe.mastery_students})
    vocab = load_vocab(ws)
    tag = cfg.probe.tag
    client = llmprobe.ProbeClient(cfg.probe.probe)

    repr_quiz = read_json(ws.repr_quiz_path)["repr_quiz"]

    test = table.take(split_rows(ws, table, test_users))
    preds, all_errors = llmprobe.probe_sequences(client, test, vocab, tag)
    stability: List[llmprobe.StabilityReport] = []
    if cfg.probe.stability_check:
        stability = llmprobe.stability_reports(client, test, vocab, preds, tag)

    found, missing = find_students(table, cfg.probe.mastery_students)
    for user_id in missing:
        print(f"warning: mastery student {user_id} not found; skipped")
    mastery = table.take(found)
    matrices = llmprobe.probe_mastery(client, mastery, vocab, repr_quiz)
    steps = np.column_stack((mastery.skill, mastery.quiz, mastery.label))
    mastery_paths: List[Predictions] = []
    ws.clear_outputs(tag)
    # with no mastery student, zip stops at the empty matrix list
    for user_id, p, rows in zip(mastery.user_ids, matrices, np.split(steps, mastery.offsets[1:-1])):
        traj = MasteryTrajectory(user_id=user_id, p=p, steps=rows)
        write_trajectory(ws.trajectory_path(tag, user_id), traj)
        mastery_paths.append(traj.practiced_path(tag))

    write_prediction_dump(ws.dump_path(tag), preds)
    if mastery_paths:
        write_prediction_dump(ws.dump_path(tag, "mastery"), Predictions.concat(mastery_paths))

    coverage = evaluation.coverage(preds)
    payload = {
        "tag": tag,
        "model": cfg.probe.probe.model,
        "coverage": coverage,
        "errors": all_errors,
        **client.telemetry(),
    }
    if stability:
        payload["stability"] = stability
    write_json(ws.root / f"probe_report_{tag}.json", payload)

    audit_path = ws.root / "probe_audit" / f"{tag}.jsonl"
    with ingest.atomic_open(audit_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for _, _, line in sorted(client.audit, key=itemgetter(0, 1)))

    ws.commit_stage(f"probe:{tag}", cfg, vocab.content_hash())
    print(
        f"probed {len(test_users)} students -> {len(preds)} records "
        f"({coverage['unresolved']} unresolved), {client.request_count} network requests"
    )
    if stability:
        worst = max(s.max_delta for s in stability)
        print(f"double-run stability: max probability delta {worst}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def evaluate_tag(
    ws: Workspace, tag: str, section: EvalSection
) -> Optional[dict]:
    pred_path = ws.dump_path(tag)
    if not pred_path.exists():
        return None
    preds = read_prediction_dump(pred_path)
    result: dict = {"tag": tag, "coverage": evaluation.coverage(preds)}

    try:
        analysis = evaluation.roc_auc(preds)
    except ValueError as exc:
        result["auc_error"] = str(exc)
        return result
    result["auc"] = analysis.auc
    result["youden"] = {"threshold": analysis.youden_threshold, "j": analysis.j_stat}
    result["confusion"] = evaluation.confusion_metrics(preds, section.threshold)

    roc_path = ws.report_path(f"roc_{tag}.csv")
    roc_rows = "".join(f"{fpr!r},{tpr!r},{thr!r}\n" for fpr, tpr, thr in analysis.roc)
    with ingest.atomic_open(roc_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fpr,tpr,threshold\n" + roc_rows)

    result["stage_errors"] = evaluation.stage_errors(
        preds, analysis.youden_threshold, macro=section.stage_macro
    )

    mastery_path = ws.dump_path(tag, "mastery")
    if mastery_path.exists():
        mastery = read_prediction_dump(mastery_path)
        try:
            result["coherence"] = evaluation.coherence_report(mastery)
        except ValueError as exc:
            result["coherence_error"] = str(exc)

    heatmaps = {}
    vocab = None
    for user_id in section.heatmap_students:
        traj_path = ws.trajectory_path(tag, user_id)
        if not traj_path.exists():
            continue
        traj = read_trajectory(traj_path)
        if vocab is None:
            vocab = load_vocab(ws)
        svg_path = ws.report_path(f"heatmap_{tag}_{user_id}.svg")
        count = evaluation.heatmap_export(traj, vocab.skill_names, svg_path)
        entry = {"annotated_cells": count, "svg": svg_path.name}
        if section.coherence_all_skills:
            try:
                entry["volatility_all_skills"] = evaluation.volatility_all_skills(traj)
            except ValueError as exc:
                entry["volatility_all_skills_error"] = str(exc)
        heatmaps[user_id] = entry
    if heatmaps:
        result["heatmaps"] = heatmaps
    return result


def cmd_evaluate(cfg: RunConfig, ws: Workspace) -> int:
    stages = ws.read_manifest().get("stages", {})
    hashes = {name: entry.get("vocab_hash") for name, entry in stages.items() if entry.get("vocab_hash")}
    if len(set(hashes.values())) > 1:
        raise RuntimeError(f"workspace stages were built against different vocabularies: {hashes}")

    results = {}
    missing = []
    for tag in cfg.evaluate.tags:
        outcome = evaluate_tag(ws, tag, cfg.evaluate)
        if outcome is None:
            missing.append(tag)
            print(f"warning: no prediction dump for tag {tag!r}; skipped")
        else:
            results[tag] = outcome
    if not results:
        raise RuntimeError(f"no dumps found for any requested tag: {missing}")

    write_json(ws.report_path("metrics.json"), results)
    for tag, outcome in results.items():
        line = f"{tag}: "
        if "auc" in outcome:
            line += f"AUC {outcome['auc']:.4f}, accuracy {outcome['confusion'].accuracy:.4f}"
            line += f", t* {outcome['youden']['threshold']:.4f}"
        else:
            line += outcome.get("auc_error", "no metrics")
        if "coherence" in outcome:
            coh = outcome["coherence"]
            line += (
                f", volatility {coh.volatility:.4f}, "
                f"inconsistency {coh.inconsistency:.4f}"
            )
        print(line)
    print(f"reports written to {ws.report_path('metrics.json').parent}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck() -> int:
    rng = np.random.default_rng(0)
    k = 5
    net = nncore.init_net(2 * k, 3, 4, k, seed=12)
    b, t = 2, 6
    x_idx = rng.integers(0, 2 * k, size=(b, t))
    s_next = rng.integers(0, k, size=(b, t))
    y_next = rng.integers(0, 2, size=(b, t)).astype(float)
    w = np.ones((b, t))
    w[:, -1] = 0.0
    # ragged rows, not sorted by length, one with a hole: the GRU skips
    # every cell past a row's last target
    w_ragged = np.zeros((3, t))
    for row, length in enumerate((3, 6, 2)):
        w_ragged[row, : length - 1] = 1.0
    w_ragged[1, 2] = 0.0
    x_ragged = rng.integers(0, 2 * k, size=(3, t))
    s_ragged = rng.integers(0, k, size=(3, t))
    y_ragged = rng.integers(0, 2, size=(3, t)).astype(float)
    t0 = time.perf_counter()
    err = max(
        nncore.grad_check(net, x_idx, s_next, y_next, w, eps=1e-5),
        nncore.grad_check(net, x_ragged, s_ragged, y_ragged, w_ragged, eps=1e-5),
    )
    wall = time.perf_counter() - t0
    print(
        f"gradient check (embed+GRU+readout+masked BCE, d_in=3, d_h=4, K=5, T=6; "
        f"a full B=2 batch and a ragged B=3 batch of lengths 3, 6, 2): "
        f"max relative error {err:.3e} in {wall:.2f}s"
    )
    if err >= 1e-4:
        print("FAIL: error above 1e-4")
        return 1
    print("PASS")
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktrace",
        description="Knowledge-tracing workflow: prepare data, train the tracer, "
        "probe a served LLM, and evaluate both on a shared schema.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in [
        ("prepare", True),
        ("train", True),
        ("probe", True),
        ("evaluate", True),
        ("synth", True),
        ("gradcheck", False),
    ]:
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="path to the run config JSON")
            p.add_argument(
                "--override",
                action="append",
                default=[],
                metavar="PATH=VALUE",
                help="override a config entry (dotted path, JSON value); repeatable",
            )
    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "probe": cmd_probe,
    "evaluate": cmd_evaluate,
    "synth": cmd_synth,
}

# the config section a command cannot run without
REQUIRED_SECTION = {"prepare": "data", "synth": "synth", "probe": "probe"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. A config-driven command's config and input file are
    checked before its workspace is created; it then runs holding the
    workspace's lock."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck()
        cfg = load_config(args.config, overrides=args.override)
        section = REQUIRED_SECTION.get(args.command)
        if section and getattr(cfg, section) is None:
            raise ConfigError(f"{args.command} requires a config.{section} section")
        if args.command == "prepare" and not Path(cfg.data.raw_path).exists():
            raise ConfigError(f"input file not found: {Path(cfg.data.raw_path)}")
        with Workspace(cfg.workspace).lock() as ws:
            return COMMANDS[args.command](cfg, ws)
    except (ConfigError, ingest.ColumnMappingError) as exc:
        print(f"configuration error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
