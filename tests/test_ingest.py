from __future__ import annotations

import io
import random

import numpy as np
import pytest

from ktrace import ingest
from ktrace.ingest import (
    ColumnMappingError,
    StepTable,
    StudentSequence,
    filter_and_order,
    parse_interactions,
    read_sequences,
    split_students,
    summarize,
    write_sequences,
)

from steptable import table_of

HEADER = "order_id,user_id,problem_id,correct,skill_id,skill_name\n"


def parse(text: str):
    return parse_interactions(io.StringIO(HEADER + text))


def make_rows(user: str, n: int, skill: str = "7", start_order: int = 1) -> str:
    return "".join(
        f"{start_order + i},{user},q{i},{i % 2},{skill},Skill {skill}\n" for i in range(n)
    )


def raw_sequences(columns):
    """The students of ``filter_and_order``'s table with raw skill and quiz
    ids: ``(user_id, [(skill, quiz, correct), ...])`` each."""
    table, vocab, _ = filter_and_order(columns)
    return [
        (seq.user_id, [(vocab.skill_ids[s], vocab.quiz_ids[q], y) for s, q, y in seq.steps])
        for seq in table
    ]


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_valid_row():
    result = parse("10,u1,p1,1,33,Box and Whisker\n")
    assert len(result.columns) == 1
    assert result.rejects == []
    cols = result.columns
    assert cols.order_id == [10]
    assert cols.user_id == ["u1"]
    assert cols.problem_id == ["p1"]
    assert cols.correct == [1]
    assert cols.skill_raw == ["33"]
    assert cols.skill_name == ["Box and Whisker"]


def test_parse_rejects_correct_out_of_domain():
    result = parse("10,u1,p1,2,33,Box and Whisker\n")
    assert len(result.columns) == 0
    assert len(result.rejects) == 1
    assert result.rejects[0].reason == "bad correct"
    assert result.rejects[0].line_number == 2


def test_parse_rejects_missing_order_and_user():
    result = parse(",u1,p1,1,33,n\n5,,p1,0,33,n\n")
    reasons = [r.reason for r in result.rejects]
    assert reasons == ["bad order_id", "missing user_id"]
    assert [r.line_number for r in result.rejects] == [2, 3]


def test_parse_accepts_float_encoded_correct():
    result = parse("1,u1,p1,1.0,33,n\n2,u1,p2,0.0,33,n\n")
    assert result.columns.correct == [1, 0]


def test_parse_missing_required_column_is_config_error():
    with pytest.raises(ColumnMappingError, match="correct"):
        parse_interactions(io.StringIO("order_id,user_id,problem_id,skill_id,skill_name\n"))


def test_parse_custom_column_mapping():
    stream = io.StringIO("oid,uid,pid,ok,sid,sname\n3,u9,p4,1,12,Ratio\n")
    result = parse_interactions(
        stream,
        columns={
            "order_id": "oid",
            "user_id": "uid",
            "problem_id": "pid",
            "correct": "ok",
            "skill_id": "sid",
            "skill_name": "sname",
        },
    )
    assert len(result.columns) == 1
    assert result.columns.user_id == ["u9"]


def test_parse_drops_fully_identical_duplicate_rows():
    result = parse("1,u1,p1,1,33,n\n1,u1,p1,1,33,n\n")
    assert len(result.columns) == 1
    assert result.duplicates_dropped == 1


def test_parse_keeps_repeated_order_ids_with_differences():
    result = parse("1,u1,p1,1,33,n\n1,u1,p2,1,33,n\n")
    assert len(result.columns) == 2


def test_parse_tab_delimited():
    stream = io.StringIO(
        "order_id\tuser_id\tproblem_id\tcorrect\tskill_id\tskill_name\n"
        "1\tu1\tp1\t1\t33\tn\n"
    )
    result = parse_interactions(stream, delimiter="\t")
    assert len(result.columns) == 1


# ---------------------------------------------------------------------------
# filtering


def test_filter_removes_short_students():
    result = parse(make_rows("u1", 2))
    assert len(result.columns) == 2
    assert result.columns.user_id == ["u1", "u1"]
    table, _, report = filter_and_order(result.columns)
    assert list(table) == []
    assert report.short_students == 1
    assert report.short_student_rows == 2


def test_filter_drops_multi_skill_rows():
    result = parse("1,u1,p1,1,\"10,12\",combo\n" + make_rows("u1", 3, start_order=2))
    table, _, report = filter_and_order(result.columns)
    assert report.multi_skill == 1
    assert len(table) == 1
    assert [len(seq) for seq in table] == [3]


def test_filter_drops_missing_skill_rows():
    result = parse("1,u1,p1,1,,\n" + make_rows("u1", 3, start_order=2))
    cols = result.columns
    assert (cols.skill_raw[0], cols.skill_name[0]) == ("", "")
    table, _, report = filter_and_order(cols)
    assert report.missing_skill == 1
    assert [len(seq) for seq in table] == [3]


def test_filter_orders_by_order_id_with_tie_breaks():
    text = (
        "5,u1,pB,1,3,n\n"
        "5,u1,pA,0,3,n\n"
        "1,u1,pC,1,3,n\n"
    )
    result = parse(text)
    (_, steps), = raw_sequences(result.columns)
    quizzes = [q for _, q, _ in steps]
    assert quizzes == ["pC", "pA", "pB"]


def test_filter_is_idempotent():
    result = parse(make_rows("u2", 4) + make_rows("u1", 3, skill="9"))
    sequences = raw_sequences(result.columns)
    # rebuild parsed columns from the filtered sequences and run the filters again
    rows = [(i, user_id, quiz, skill, "", y)
            for user_id, steps in sequences for i, (skill, quiz, y) in enumerate(steps)]
    rebuilt = ingest.InteractionColumns(*map(list, zip(*rows)))
    assert raw_sequences(rebuilt) == sequences
    _, _, report = filter_and_order(rebuilt)
    assert report.missing_skill == report.multi_skill == report.short_students == 0


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_first_appearance_order():
    result = parse(
        "1,u1,p1,1,A,Alpha\n2,u1,p2,0,B,Beta\n3,u1,p1,1,A,Alpha\n"
    )
    table, vocab, _ = filter_and_order(result.columns)
    assert vocab.skill_ids == ("A", "B")
    assert table.skill.tolist() == [0, 1, 0]
    assert vocab.k == 2
    assert vocab.skill_names == ("Alpha", "Beta")


def test_vocab_rebuild_is_identical():
    result = parse(make_rows("u1", 3) + make_rows("u2", 4, skill="9"))
    _, v1, _ = filter_and_order(result.columns)
    _, v2, _ = filter_and_order(result.columns)
    assert v1 == v2
    assert v1.content_hash() == v2.content_hash()


def test_index_sequences_round_trip():
    result = parse(make_rows("u1", 3) + make_rows("u2", 4, skill="9"))
    table, vocab, _ = filter_and_order(result.columns)
    raw = [[("7", f"q{i}", i % 2) for i in range(3)], [("9", f"q{i}", i % 2) for i in range(4)]]
    assert [seq.user_id for seq in table] == ["u1", "u2"]
    for raw_steps, idx_seq in zip(raw, table, strict=True):
        for (s_raw, q_raw, y_raw), (s, q, y) in zip(raw_steps, idx_seq.steps, strict=True):
            assert vocab.skill_ids[s] == s_raw
            assert vocab.quiz_ids[q] == q_raw
            assert y == y_raw


# ---------------------------------------------------------------------------
# splitting


def _ten_students():
    text = "".join(make_rows(f"u{i:02d}", 3, start_order=1) for i in range(10))
    table, _, _ = filter_and_order(parse(text).columns)
    return table


def test_split_sizes_8_1_1():
    split = split_students(_ten_students(), (0.8, 0.1, 0.1), seed=5)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)


def test_split_deterministic_under_seed():
    seqs = _ten_students()
    a = split_students(seqs, seed=42)
    b = split_students(seqs, seed=42)
    assert [s.user_id for s in a.train] == [s.user_id for s in b.train]
    assert [s.user_id for s in a.test] == [s.user_id for s in b.test]


def test_split_users_do_not_cross_partitions():
    split = split_students(_ten_students(), seed=3)
    seen = set()
    for part in split.partitions().values():
        for seq in part:
            assert seq.user_id not in seen
            seen.add(seq.user_id)
    assert len(seen) == 10


def test_split_record_counts_sum():
    seqs = _ten_students()
    split = split_students(seqs, seed=3)
    total = sum(len(s) for s in seqs)
    assert sum(len(s) for part in split.partitions().values() for s in part) == total


def test_split_too_few_students_errors():
    seqs = _ten_students().take([0, 1])
    with pytest.raises(ValueError, match="partitions"):
        split_students(seqs, (0.8, 0.1, 0.1), seed=0)


def test_split_ratios_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        split_students(_ten_students(), (0.5, 0.2, 0.2), seed=0)


# ---------------------------------------------------------------------------
# statistics


def test_summarize_empty_is_all_zero():
    stats = summarize(table_of([]))
    assert stats.n_records == 0
    assert stats.n_students == 0
    assert stats.avg_per_student == 0.0


def test_summarize_average_per_student():
    text = make_rows("u1", 3) + make_rows("u2", 5)
    table, _, _ = filter_and_order(parse(text).columns)
    stats = summarize(table)
    assert stats.n_students == 2
    assert stats.n_records == 8
    assert stats.avg_per_student == pytest.approx(4.0)


def test_summarize_accepts_split_and_partitions():
    seqs = _ten_students()
    split = split_students(seqs, seed=1)
    pooled = ingest.summarize(
        table_of([s for part in split.partitions().values() for s in part])
    )
    assert pooled.n_records == sum(len(s) for s in seqs)
    per_part = ingest.summarize_split(split)
    assert set(per_part) == {"train", "val", "test"}
    assert sum(st.n_records for st in per_part.values()) == pooled.n_records


def test_summarize_exact_values():
    table = table_of([
        StudentSequence("u1", [(0, 0, 1), (1, 2, 0)]),
        StudentSequence("u2", [(0, 2, 1), (0, 4, 1), (1, 0, 0), (0, 2, 1), (0, 0, 0)]),
        StudentSequence("u3", [(1, 4, 1)]),
    ])
    assert summarize(table) == ingest.DatasetStats(
        n_records=8, n_students=3, n_quizzes=3, n_skills=2, avg_per_student=8 / 3,
        avg_per_quiz=8 / 3, avg_per_skill=4.0, n_correct=5, n_incorrect=3,
    )


def test_summarize_records_exact_values():
    # a comma-separated skill cell counts each of its ids, an empty cell none;
    # u1 and u2 repeat
    text = (
        "1,u1,p1,1,\"4,5\",Both\n2,u1,p2,0,,\n3,u2,p1,1,4,Four\n4,u1,p3,1,6,Six\n"
        "5,u3,p4,0,5,Five\n6,u2,p2,1,6,Six\n7,u3,p1,0,4,Four\n"
    )
    assert ingest.summarize_records(parse(text).columns) == ingest.DatasetStats(
        n_records=7, n_students=3, n_quizzes=4, n_skills=3, avg_per_student=7 / 3,
        avg_per_quiz=7 / 4, avg_per_skill=7 / 3, n_correct=4, n_incorrect=3,
    )
    assert ingest.summarize_records(parse("").columns) == ingest.DatasetStats()
    # only empty skill cells: no skill, so no per-skill mean
    assert ingest.summarize_records(parse("1,u1,p1,1,,\n2,u1,p1,0,,\n").columns) == (
        ingest.DatasetStats(
            n_records=2, n_students=1, n_quizzes=1, n_skills=0, avg_per_student=2.0,
            avg_per_quiz=2.0, avg_per_skill=0.0, n_correct=1, n_incorrect=1,
        )
    )


def test_summarize_correct_plus_incorrect_is_total():
    text = make_rows("u1", 7) + make_rows("u2", 4, skill="9")
    table, _, _ = filter_and_order(parse(text).columns)
    stats = summarize(table)
    assert stats.n_correct + stats.n_incorrect == stats.n_records


# ---------------------------------------------------------------------------
# canonical file


def test_sequence_file_round_trip(tmp_path):
    text = make_rows("u1", 3) + make_rows("u2", 4, skill="9")
    rng = random.Random(7)
    # a few repeated steps plus steps that occur once, as raw ids
    common = [(f"s{i % 3}", f"q{i}", i % 2) for i in range(5)]
    mixed = "".join(
        f"{t},u{u},{q},{y},{s},\n"
        for u in range(40)
        for t, (s, q, y) in enumerate(
            rng.choice(common) if rng.random() < 0.7 else (f"s{u}", f"once{u}_{t}", rng.randrange(2))
            for t in range(rng.randrange(3, 30))
        )
    )
    path = tmp_path / "sequences.txt"
    for log in (text, mixed):
        table, _, _ = filter_and_order(parse(log).columns)
        write_sequences(path, table)
        assert path.read_text(encoding="utf-8") == "".join(
            "\t".join([seq.user_id, *("%s,%s,%s" % step for step in seq.steps)]) + "\n"
            for seq in table
        )
        loaded = read_sequences(path)
        assert [(s.user_id, s.steps) for s in loaded] == [(s.user_id, s.steps) for s in table]


def test_sequence_file_bytes_are_deterministic(tmp_path):
    text = make_rows("u1", 3)
    table, _, _ = filter_and_order(parse(text).columns)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_sequences(p1, table)
    write_sequences(p2, table)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# order keys and file safety


def test_parse_rejects_infinite_order_id():
    result = parse("inf,u1,p1,1,33,n\n-inf,u1,p2,1,33,n\nnan,u1,p3,1,33,n\n1,u1,p4,1,33,n\n")
    assert [(r.line_number, r.reason) for r in result.rejects] == [
        (2, "bad order_id"), (3, "bad order_id"), (4, "bad order_id")
    ]
    assert result.columns.problem_id == ["p4"]


def test_parse_order_ids_above_2_pow_53_stay_exact():
    result = parse(
        "9007199254740993,u1,pA,1,3,n\n9007199254740992,u1,pB,1,3,n\n12.0,u1,pC,0,3,n\n"
    )
    assert result.columns.order_id == [9007199254740993, 9007199254740992, 12]
    (_, steps), = raw_sequences(result.columns)
    assert [q for _, q, _ in steps] == ["pC", "pB", "pA"]


def test_filter_sequences_names_and_raw_stats_of_a_mixed_log():
    text = (
        "5,u2,pB,1,4,\n5,u2,pA,0,4,Four\n1,u1,p1,1,\"4,5\",Both\n"
        "2,u1,p2,1,5,Five\n3,u1,p3,0,5,\n4,u1,p4,1,4,Other\n1,u3,p9,1,6,Six\n"
        + make_rows("u2", 2, skill="6", start_order=7)
    )
    columns = parse(text).columns
    _, vocab, report = filter_and_order(columns)
    assert raw_sequences(columns) == [
        ("u1", [("5", "p2", 1), ("5", "p3", 0), ("4", "p4", 1)]),
        ("u2", [("4", "pA", 0), ("4", "pB", 1), ("6", "q0", 0), ("6", "q1", 1)]),
    ]
    assert report == ingest.FilterReport(
        missing_skill=0, multi_skill=1, short_student_rows=1, short_students=1,
        kept_records=7, kept_students=2,
    )
    assert dict(zip(vocab.skill_ids, vocab.skill_names)) == {"4": "Other", "5": "Five", "6": "Skill 6"}
    assert ingest.summarize_records(columns) == ingest.DatasetStats(
        n_records=9, n_students=3, n_quizzes=9, n_skills=3, avg_per_student=3.0,
        avg_per_quiz=1.0, avg_per_skill=3.0, n_correct=6, n_incorrect=3,
    )


def test_read_sequences_rejects_cells_without_three_values(tmp_path):
    path = tmp_path / "sequences.txt"
    path.write_text("u1\t1,2,3\t4,5,6\n\nu2\n")
    loaded = read_sequences(path)
    assert [(s.user_id, s.steps) for s in loaded] == [("u1", [(1, 2, 3), (4, 5, 6)]), ("u2", [])]
    for bad in ("1,2\t3,4,5,6", "1,2,3,4", "1,2,3\t", "1,2,x", "1,2,3\t,,", ",,"):
        path.write_text(f"u1\t{bad}\n")
        with pytest.raises(ValueError, match=r"sequences\.txt: line 1: a step cell must hold s,q,y$"):
            read_sequences(path)


def test_read_sequences_reads_only_wanted_users_and_checks_their_lines(tmp_path):
    path = tmp_path / "sequences.txt"
    path.write_text("u1\t1,2,3\nu2\t1,2\n\nu3\t4,5,6\t7,8,9\nu4\n")
    loaded = read_sequences(path, users={"u1", "u3", "u4", "u9"})
    assert [(s.user_id, s.steps) for s in loaded] == [
        ("u1", [(1, 2, 3)]), ("u3", [(4, 5, 6), (7, 8, 9)]), ("u4", []),
    ]
    with pytest.raises(ValueError, match=r"sequences\.txt: line 2: a step cell must hold s,q,y"):
        read_sequences(path, users={"u2"})


def test_read_sequences_returns_the_written_table(tmp_path):
    path = tmp_path / "sequences.txt"
    text = make_rows("u1", 3) + make_rows("u2", 4, skill="9") + make_rows("u0", 5, skill="8")
    written, _, _ = filter_and_order(parse(text).columns)
    empty_row = table_of([
        StudentSequence("a", [(1, 2, 0)]), StudentSequence("b", []), StudentSequence("c", [(3, 4, 1)]),
    ])
    for table in (written, empty_row):
        write_sequences(path, table)
        loaded = read_sequences(path)
        assert isinstance(loaded, StepTable)
        assert loaded.user_ids == table.user_ids
        assert loaded.offsets.dtype == np.int64
        for name in ("offsets", "skill", "quiz", "label"):
            assert np.array_equal(getattr(loaded, name), getattr(table, name)), name
    assert loaded.offsets.tolist() == [0, 1, 1, 2]


def test_read_sequences_rejects_integers_past_int64(tmp_path):
    path = tmp_path / "sequences.txt"
    for cell in ("9223372036854775808,0,1", "0,-9223372036854775809,1"):
        path.write_text(f"u1\t1,2,3\nu2\t4,5,6\t{cell}\n")
        with pytest.raises(ValueError, match=r"sequences\.txt: line 2: a step cell must hold s,q,y$"):
            read_sequences(path)


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "sequences.txt"
    write_sequences(path, table_of([StudentSequence("u1", [(0, 0, 1)])]))
    before = path.read_bytes()
    # the second line cannot be written: its user id is not text
    torn = table_of(
        [StudentSequence("u1", [(0, 0, 1)]), StudentSequence(None, [(0, 1, 0)])]
    )
    with pytest.raises(TypeError):
        write_sequences(path, torn)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sequences.txt"]

    with pytest.raises(RuntimeError):
        with ingest.atomic_open(path, "w") as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sequences.txt"]


def test_atomic_open_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with ingest.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("done\n")
    assert path.read_text(encoding="utf-8") == "done\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]
