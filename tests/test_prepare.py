"""`prepare` against a per-record reference.

The reference below is the row-at-a-time formulation of the preprocessing
rules: one record per parsed row, grouped per student and sorted with a key
per record. `prepare` computes on columns; every artifact it writes, and the
table it prints, must match the reference byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ktrace import ingest
from ktrace.cli import STAT_ROWS, main
from ktrace.ingest import parse_interactions

from steptable import table_of

HEADER = "order_id,user_id,problem_id,correct,skill_id,skill_name"

ADVERSARIAL_LOG = "\n".join([
    HEADER,
    # ada: an order_id tie broken by problem_id, a float-encoded order_id and
    # correct, a duplicate row, a blank line and whitespace around cells
    "5,ada,pB,1,10,Fractions",
    "5,ada,pA,0,10,",
    "3.0,ada,pC,1.0,11,",
    "5,ada,pB,1,10,Fractions",
    "",
    " 7 , ada , pD , 0 , 11 , Decimals ",
    "8,ada,pE,1,\"10,11\",Combo",
    "9,ada,pF,0,,",
    # bob: order ids above 2**53 that a float would merge, an exact tie on
    # (order_id, problem_id) and a row that is blank in every cell
    "9007199254740993,bob,pA,1,11,",
    "9007199254740992,bob,pZ,0,11,",
    "4,bob,pA,0,12,",
    "4,bob,pA,1,12,",
    " , , , , , ",
    # the three reject reasons, an infinite order_id and a short row
    "3,,pA,1,10,n",
    ",bob,pA,1,10,n",
    "x,bob,pA,1,10,n",
    "inf,bob,pA,1,10,n",
    "6,bob,pA,2,10,n",
    "6,bob,pA,yes,10,n",
    "1,cy",
    # short students; "Graphs" is named only in dee's row
    "1,dee,pG,1,13,Graphs",
    "2,dee,pA,1,12,Ratios",
    "1,eve,pA,0,12,",
    # kept students that use skill 13 without a name
    *(f"{t},fay,p{t % 3},{t % 2},{13 if t % 2 else 12}," for t in range(1, 6)),
    *(f"{t},gus,p{t % 2},{(t + 1) % 2},{10 + t % 4},Skill{t % 4}" for t in range(1, 7)),
    *(f"{t}.0,hal,p{t % 4},{t % 2}.0,13," for t in range(1, 5)),
    # enough students for three non-empty partitions
    *(f"{t},s{u},p{t},{(t + u) % 2},{10 + (t + u) % 3}," for u in range(6) for t in range(1, 5)),
]) + "\n"


# ann: order ids past 2**64 that int64 cannot hold, in reversed file order,
# with a tie on one of them that problem_id breaks
BEYOND_INT64_LOG = "\n".join([
    HEADER,
    f"{2**64 + 1},ann,pA,1,10,",
    f"{2**64},ann,pC,0,10,Ten",
    f"{2**64},ann,pB,1,11,",
    "7,ann,pD,0,11,",
    *(f"{t},s{u},p{t},{(t + u) % 2},{10 + (t + u) % 3}," for u in range(6) for t in range(1, 5)),
]) + "\n"


# ADVERSARIAL_LOG with each reject reason repeated, and a repeat of a row
# whose quoted cell spans lines, separated from it by a blank line
REPEATS_LOG = ADVERSARIAL_LOG + "\n".join([
    '10,ada,"p\nQ",1,10,',
    "3,,pA,1,10,n",
    "",
    '10,ada,"p\nQ",1,10,',
    "x,bob,pA,1,10,n",
    "6,bob,pA,2,10,n",
    "5,ada,pB,1,10,Fractions",
]) + "\n"


# ---------------------------------------------------------------------------
# the per-record reference


def _order_id(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        return int(float(cell))


def _correct(cell: str) -> int:
    value = float(cell)
    if value not in (0.0, 1.0):
        raise ValueError(cell)
    return int(value)


def reference_parse(text: str):
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    records, rejects, seen, duplicates = [], [], set(), 0
    for row_index, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if tuple(row) in seen:
            duplicates += 1
            continue
        seen.add(tuple(row))
        cell = {
            name: row[header.index(name)].strip() if header.index(name) < len(row) else ""
            for name in header
        }
        raw = ",".join(row)
        if not cell["user_id"]:
            rejects.append((row_index + 1, "missing user_id", raw))
            continue
        try:
            order_id = _order_id(cell["order_id"])
        except (ValueError, OverflowError):
            rejects.append((row_index + 1, "bad order_id", raw))
            continue
        try:
            correct = _correct(cell["correct"])
        except ValueError:
            rejects.append((row_index + 1, "bad correct", raw))
            continue
        records.append(dict(
            order_id=order_id, user=cell["user_id"], problem=cell["problem_id"],
            skill=cell["skill_id"], name=cell["skill_name"], correct=correct, row=row_index,
        ))
    return records, rejects, duplicates


def single_skill(rec) -> bool:
    return bool(rec["skill"]) and "," not in rec["skill"]


def reference_sort_key(rec):
    return (rec["user"], rec["order_id"], rec["problem"], rec["row"])


def reference_stats(steps_by_user):
    steps = [step for user_steps in steps_by_user for step in user_steps]
    n = len(steps)
    skills = {s for s, _, _ in steps}
    quizzes = {q for _, q, _ in steps}
    n_correct = sum(y for _, _, y in steps)
    return dict(
        n_records=n, n_students=len(steps_by_user), n_quizzes=len(quizzes),
        n_skills=len(skills), avg_per_student=n / len(steps_by_user),
        avg_per_quiz=n / len(quizzes), avg_per_skill=n / len(skills),
        n_correct=n_correct, n_incorrect=n - n_correct,
    )


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_prepare(text: str, seed: int):
    """Every artifact `prepare` writes, and its stdout, from per-record rules."""
    records, rejects, duplicates = reference_parse(text)

    report = dict(missing_skill=0, multi_skill=0, short_student_rows=0,
                  short_students=0, kept_records=0, kept_students=0)
    by_user = {}
    for rec in records:
        if not rec["skill"]:
            report["missing_skill"] += 1
        elif "," in rec["skill"]:
            report["multi_skill"] += 1
        else:
            by_user.setdefault(rec["user"], []).append(rec)
    raw = {}
    for user in sorted(by_user):
        rows = sorted(by_user[user], key=reference_sort_key)
        if len(rows) < ingest.MIN_INTERACTIONS:
            report["short_students"] += 1
            report["short_student_rows"] += len(rows)
            continue
        raw[user] = [(r["skill"], r["problem"], r["correct"]) for r in rows]
    report["kept_students"] = len(raw)
    report["kept_records"] = sum(len(steps) for steps in raw.values())

    names = {}
    for rec in sorted(records, key=reference_sort_key):
        if single_skill(rec) and rec["name"] and not names.get(rec["skill"]):
            names[rec["skill"]] = rec["name"]
    skills, quizzes = {}, {}
    for steps in raw.values():
        for s, q, _ in steps:
            skills.setdefault(s, len(skills))
            quizzes.setdefault(q, len(quizzes))
    vocab = {
        "skill_ids": list(skills),
        "quiz_ids": list(quizzes),
        "skill_names": [names.get(s) or s for s in skills],
    }
    indexed = [
        ingest.StudentSequence(user, [(skills[s], quizzes[q], y) for s, q, y in steps])
        for user, steps in raw.items()
    ]
    split = ingest.split_students(table_of(indexed), (0.8, 0.1, 0.1), seed)

    skill_parts = {p.strip() for r in records for p in r["skill"].split(",")} - {""}
    n = len(records)
    n_correct = sum(r["correct"] for r in records)
    stats = {
        "original": dict(
            n_records=n, n_students=len({r["user"] for r in records}),
            n_quizzes=len({r["problem"] for r in records}), n_skills=len(skill_parts),
            avg_per_student=n / len({r["user"] for r in records}),
            avg_per_quiz=n / len({r["problem"] for r in records}),
            avg_per_skill=n / len(skill_parts), n_correct=n_correct, n_incorrect=n - n_correct,
        ),
        "preprocessed": reference_stats([s.steps for s in indexed]),
        **{
            part: reference_stats([s.steps for s in seqs])
            for part, seqs in split.partitions().items()
        },
    }

    counts = {}
    for seq in split.train:
        for s, q, _ in seq.steps:
            counts.setdefault(s, {}).setdefault(q, 0)
            counts[s][q] += 1
    repr_quiz = [
        min(counts[s], key=lambda q: (-counts[s][q], q)) if s in counts else 0
        for s in range(len(skills))
    ]

    rejects_csv = io.StringIO(newline="")
    writer = csv.writer(rejects_csv)
    writer.writerow(["line_number", "reason", "raw_row"])
    writer.writerows(rejects)

    artifacts = {
        "sequences.txt": "".join(
            "\t".join([s.user_id] + [f"{a},{b},{c}" for a, b, c in s.steps]) + "\n"
            for s in indexed
        ),
        "vocab.json": json_text(vocab),
        "split.json": json_text({
            "seed": seed, "ratios": [0.8, 0.1, 0.1],
            **{part: [s.user_id for s in seqs] for part, seqs in split.partitions().items()},
        }),
        "stats.json": json_text(stats),
        "filter_report.json": json_text(report),
        "rejects.csv": rejects_csv.getvalue(),
        "skill_repr_quiz.json": json_text({"repr_quiz": repr_quiz}),
    }

    header = f"{'Statistic':<34}" + "".join(f"{c:>14}" for c in stats)
    table = [header, "-" * len(header)]
    for label, attr, fmt in STAT_ROWS:
        cells = [fmt.format(st[attr]) for st in stats.values()]
        table.append(f"{label:<34}" + "".join(f"{c:>14}" for c in cells))
    summary = (
        f"\nparsed {n} records ({len(rejects)} rejected, {duplicates} duplicates); "
        f"kept {report['kept_records']} records / {report['kept_students']} students "
        f"after filtering (missing skill: {report['missing_skill']}, "
        f"multi-skill: {report['multi_skill']}, short: {report['short_student_rows']})"
    )
    return artifacts, "\n".join(table) + "\n" + summary + "\n"


# ---------------------------------------------------------------------------
# tests


def run_prepare(tmp_path: Path, text: str, seed: int = 4) -> Path:
    (tmp_path / "log.csv").write_text(text, encoding="utf-8")
    ws_dir = tmp_path / "ws"
    config = {
        "workspace": str(ws_dir), "seed": seed, "data": {"raw_path": str(tmp_path / "log.csv")}
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["prepare", "--config", str(tmp_path / "c.json")]) == 0
    return ws_dir


def test_prepare_artifacts_match_per_record_reference(tmp_path, capsys):
    seed = 4
    ws_dir = run_prepare(tmp_path, ADVERSARIAL_LOG, seed)
    printed = capsys.readouterr().out
    expected, expected_stdout = reference_prepare(ADVERSARIAL_LOG, seed)

    for name, text in expected.items():
        assert (ws_dir / name).read_bytes() == text.encode("utf-8"), name
    assert printed == expected_stdout + f"workspace ready: {ws_dir}\n"
    # the log holds every case it was written to show
    records, rejects, duplicates = reference_parse(ADVERSARIAL_LOG)
    assert len(parse_interactions(io.StringIO(ADVERSARIAL_LOG)).columns) == len(records)
    assert duplicates == 1
    reasons = {reason for _, reason, _ in rejects}
    assert reasons == {"missing user_id", "bad order_id", "bad correct"}
    assert any(raw.startswith("inf,") for _, _, raw in rejects)
    assert any(r["skill"] == "" for r in records) and any("," in r["skill"] for r in records)
    vocab = json.loads(expected["vocab.json"])
    assert vocab["skill_names"][vocab["skill_ids"].index("13")] == "Graphs"
    assert "dee" not in expected["sequences.txt"]
    bob = next(line for line in expected["sequences.txt"].splitlines() if line.startswith("bob"))
    pz, pa = vocab["quiz_ids"].index("pZ"), vocab["quiz_ids"].index("pA")
    assert [cell.split(",")[1] for cell in bob.split("\t")[-2:]] == [str(pz), str(pa)]



def test_prepare_orders_ids_beyond_int64_like_the_reference(tmp_path, capsys):
    seed = 4
    ws_dir = run_prepare(tmp_path, BEYOND_INT64_LOG, seed)
    printed = capsys.readouterr().out
    expected, expected_stdout = reference_prepare(BEYOND_INT64_LOG, seed)

    for name, text in expected.items():
        assert (ws_dir / name).read_bytes() == text.encode("utf-8"), name
    assert printed == expected_stdout + f"workspace ready: {ws_dir}\n"
    vocab = json.loads(expected["vocab.json"])
    ann = next(line for line in expected["sequences.txt"].splitlines() if line.startswith("ann"))
    quizzes = [vocab["quiz_ids"][int(cell.split(",")[1])] for cell in ann.split("\t")[1:]]
    assert quizzes == ["pD", "pB", "pC", "pA"]


def parsed_fields(result: ingest.ParseResult):
    return (
        {name: list(column) for name, column in vars(result.columns).items()},
        result.rejects,
        result.duplicates_dropped,
    )


@pytest.mark.parametrize(
    "log", [ADVERSARIAL_LOG, BEYOND_INT64_LOG, REPEATS_LOG],
    ids=["adversarial", "beyond-int64", "repeats"],
)
def test_every_row_hash_colliding_changes_no_result(tmp_path, capsys, monkeypatch, log):
    """Rows whose hashes match are compared cell by cell on a second read of
    the log; one hash for every row sends every row through that path."""
    seed = 4
    plain = parse_interactions(io.StringIO(log))
    monkeypatch.setattr(ingest, "_row_hash", lambda text: 0)
    forced = parse_interactions(io.StringIO(log))
    assert parsed_fields(forced) == parsed_fields(plain)
    assert forced.duplicates_dropped == reference_parse(log)[2]

    ws_dir = run_prepare(tmp_path, log, seed)
    printed = capsys.readouterr().out
    expected, expected_stdout = reference_prepare(log, seed)
    for name, text in expected.items():
        assert (ws_dir / name).read_bytes() == text.encode("utf-8"), name
    assert printed == expected_stdout + f"workspace ready: {ws_dir}\n"


def test_prepare_bytes_do_not_depend_on_the_string_hash_seed(tmp_path):
    """``hash`` of a row's text changes with PYTHONHASHSEED; which rows are
    duplicates must not."""
    (tmp_path / "log.csv").write_text(REPEATS_LOG, encoding="utf-8")
    names = ["sequences.txt", "vocab.json", "split.json", "stats.json",
             "filter_report.json", "rejects.csv"]
    files = []
    for hash_seed in ("0", "1"):
        ws_dir = tmp_path / f"ws{hash_seed}"
        config = tmp_path / f"c{hash_seed}.json"
        config.write_text(json.dumps(
            {"workspace": str(ws_dir), "seed": 4, "data": {"raw_path": str(tmp_path / "log.csv")}}
        ))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-m", "ktrace.cli", "prepare", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert ", 6 duplicates)" in done.stdout
        files.append([(ws_dir / name).read_bytes() for name in names])
    assert files[0] == files[1]
