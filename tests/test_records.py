from __future__ import annotations

import math
import re

import numpy as np
import pytest

from ktrace.records import (
    PROB_FLOOR,
    MasteryTrajectory,
    Predictions,
    read_prediction_dump,
    read_trajectory,
    step_rows,
    write_prediction_dump,
    write_trajectory,
)

from predtable import Row, predictions_of, rows_of


def rec(user="u1", t=1, skill=0, y=1, p=0.5, tag="m"):
    return Row(user_id=user, step=t, skill=skill, y_true=y, p=p, model_tag=tag)


def test_dump_round_trip_with_unresolved(tmp_path):
    records = [rec(t=1, p=0.25), rec(t=2, p=None), rec(t=3, p=0.75)]
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of(records))
    loaded = read_prediction_dump(path)
    assert rows_of(loaded) == records
    assert rows_of(loaded)[1].p is None
    assert loaded.resolved().step.tolist() == [1, 3]


def test_dump_probability_round_trip_is_exact(tmp_path):
    p = 0.123456789012345678
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of([rec(p=p)]))
    assert read_prediction_dump(path).p[0] == p


def test_dump_bytes_are_pinned(tmp_path):
    preds = Predictions(
        user=["u1", "a,b", "u1"],
        step=[1, 2, 3],
        skill=[0, 4, 1],
        y=[1, 0, 1],
        p=[0.1, math.nan, 0.123456789012345678],
        tag=["dkt", "dkt", "dkt"],
    )
    path = tmp_path / "d.csv"
    write_prediction_dump(path, preds)
    assert path.read_bytes() == (
        b"user_id,t,skill_idx,y_true,p_pred,model_tag\r\n"
        b"u1,1,0,1,0.1,dkt\r\n"
        b'"a,b",2,4,0,NA,dkt\r\n'
        b"u1,3,1,1,0.12345678901234568,dkt\r\n"
    )
    loaded = read_prediction_dump(path)
    for got, want in zip(loaded.columns(), preds.columns()):
        np.testing.assert_array_equal(got, want)


def test_failed_dump_write_keeps_previous_file(tmp_path):
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of([rec(t=1, p=0.25), rec(t=2, p=0.75)]))
    before = path.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails at the second row
    torn = predictions_of([rec(t=1), rec(user="\ud800", t=2), rec(t=3)])
    with pytest.raises(UnicodeEncodeError):
        write_prediction_dump(path, torn)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_dump_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of([rec(t=1), rec(t=1)]))
    with pytest.raises(ValueError, match="duplicate"):
        read_prediction_dump(path)


def test_dump_duplicate_error_names_first_repeat_in_file_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "user_id,t,skill_idx,y_true,p_pred,model_tag\n"
        "a,1,0,1,0.5,m\nb,2,0,1,0.5,m\na,1,0,1,0.5,n\nc,3,0,1,0.5,m\n"
        "b,2,1,0,0.25,m\na,1,0,1,0.5,m\n"
    )
    with pytest.raises(ValueError, match=r"duplicate record for \('b', 2, 'm'\)$"):
        read_prediction_dump(path)


def test_dump_rejects_out_of_range_probability(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "user_id,t,skill_idx,y_true,p_pred,model_tag\nu1,1,0,1,1.5,m\n"
    )
    with pytest.raises(ValueError, match="probability"):
        read_prediction_dump(path)


@pytest.mark.parametrize("cell", ["0", "1", "1.5", "-0.25", "nan", "inf"])
def test_dump_out_of_range_probability_names_its_line(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(
        f"user_id,t,skill_idx,y_true,p_pred,model_tag\nu1,1,0,1,0.5,m\nu1,2,0,1,{cell},m\nu1,3,0,1,2,m\n"
    )
    message = f"{path}: line 3: probability out of (0,1): {cell}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_prediction_dump(path)


MALFORMED_CELLS = [
    ("t", "x", "t must be a 64-bit integer: 'x'"),
    ("t", "99999999999999999999", "t must be a 64-bit integer: '99999999999999999999'"),
    ("t", "1.0", "t must be a 64-bit integer: '1.0'"),
    ("t", "1_0", "t must be a 64-bit integer: '1_0'"),
    ("t", "", "t must be a 64-bit integer: ''"),
    ("skill_idx", "0x1", "skill_idx must be a 64-bit integer: '0x1'"),
    ("y", "1e0", "must be a 64-bit integer: '1e0'"),
    ("p", "abc", "could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize(
    "column, cell, error", MALFORMED_CELLS, ids=[f"{c}={v!r}" for c, v, _ in MALFORMED_CELLS]
)
def test_malformed_cell_names_file_and_line(tmp_path, column, cell, error):
    dump = {
        "t": "u1,{},0,1,0.5,m", "skill_idx": "u1,2,{},1,0.5,m", "y": "u1,2,0,{},0.5,m", "p": "u1,2,0,1,{},m"
    }
    path = tmp_path / "d.csv"
    path.write_text(
        "user_id,t,skill_idx,y_true,p_pred,model_tag\nu1,1,0,1,0.5,m\n" + dump[column].format(cell) + "\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + ".*" + re.escape(error) + "$"):
        read_prediction_dump(path)
    trajectory = {
        "t": "u9,{},0,3,1,0.5", "skill_idx": "u9,1,{},3,1,0.5", "y": "u9,1,0,3,{},0.5", "p": "u9,1,0,3,1,{}"
    }
    path = tmp_path / "t.csv"
    path.write_text("user_id,t,skill_idx,quiz_idx,y,p_0\nu9,0,0,3,1,NA\n" + trajectory[column].format(cell) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + ".*" + re.escape(error) + "$"):
        read_trajectory(path)


@pytest.mark.parametrize("label", ["2", "-1"])
def test_dump_rejects_a_label_other_than_zero_or_one(tmp_path, label):
    # a label of 2 would count as two positives: roc_auc read -1.0 from such a file
    path = tmp_path / "d.csv"
    path.write_text(
        "user_id,t,skill_idx,y_true,p_pred,model_tag\n"
        f"u1,1,0,1,0.5,m\nu1,2,0,0,0.25,m\nu1,3,0,{label},0.75,m\nu1,4,0,1,0.5,m\n"
    )
    message = f"{path}: line 4: y_true must be 0 or 1"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_prediction_dump(path)


def test_dump_rejects_unknown_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_prediction_dump(path)


@pytest.mark.parametrize("bad_row, cells", [("u2,2,0,1,0.5", 5), ("u2,2,0,1,0.5,m,x", 7), ("", 0)])
def test_dump_row_with_wrong_cell_count_names_file_and_line(tmp_path, bad_row, cells):
    path = tmp_path / "d.csv"
    path.write_text(
        "user_id,t,skill_idx,y_true,p_pred,model_tag\nu1,1,0,1,0.5,m\n"
        + bad_row + "\nu3,3,0,1,0.5,m\n"
    )
    message = f"{path}: line 3 has {cells} cells, the header has 6"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_prediction_dump(path)


@pytest.mark.filterwarnings("error")
def test_dump_with_only_a_header_reads_as_an_empty_table(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("user_id,t,skill_idx,y_true,p_pred,model_tag\r\n")
    loaded = read_prediction_dump(path)
    assert len(loaded) == 0
    assert [col.dtype.kind for col in loaded.columns()] == ["U", "i", "i", "i", "f", "U"]


@pytest.mark.parametrize("end", [b"\n", b"\r"], ids=["lf", "cr"])
def test_a_file_reads_equal_whatever_its_line_ends(tmp_path, end):
    preds = predictions_of([rec(t=1, p=0.25), rec(user="a,b", t=2, p=None), rec(t=3, p=0.75)])
    traj = MasteryTrajectory(user_id="u9", p=np.array([[0.5, np.nan], [0.6, 0.4]]), steps=[(0, 3, 1), (1, 4, 0)])
    for write, read, value in [(write_prediction_dump, read_prediction_dump, preds), (write_trajectory, read_trajectory, traj)]:
        crlf, other = tmp_path / "crlf.csv", tmp_path / "other.csv"
        write(crlf, value)
        assert b"\r\n" in crlf.read_bytes()
        other.write_bytes(crlf.read_bytes().replace(b"\r\n", end))
        a, b = read(crlf), read(other)
        if read is read_trajectory:
            assert a.user_id == b.user_id
            a, b = (a.steps, a.p), (b.steps, b.p)
        else:
            a, b = a.columns(), b.columns()
        for got, want in zip(b, a, strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("user", ["a\nb", "a\r\nb", "a\rb", "\n"], ids=["lf", "crlf", "cr", "only-lf"])
def test_a_user_id_holding_a_newline_round_trips(tmp_path, user):
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of([rec(user=user, t=1), rec(user="u2", t=1, p=None)]))
    assert rows_of(read_prediction_dump(path)) == [rec(user=user, t=1), rec(user="u2", t=1, p=None)]
    traj = MasteryTrajectory(user_id=user, p=np.array([[0.5], [np.nan]]), steps=[(0, 0, 1), (0, 1, 0)])
    path = tmp_path / "t.csv"
    write_trajectory(path, traj)
    loaded = read_trajectory(path)
    assert loaded.user_id == user
    assert np.array_equal(loaded.steps, traj.steps) and np.array_equal(loaded.p, traj.p, equal_nan=True)


BLANK_LINES = [
    ("H\nR\n\nR\n", 3), ("H\r\nR\r\n\r\nR\r\n", 3), ("H\rR\r\rR\r", 3), ("H\r\nR\n\r\nR\r\n", 3),
    ("H\nR\n\rR\n", 3), ("H\rR\r\n\rR\r", 3), ("H\n\nR\n", 2), ("H\r\n\r\nR\r\n", 2), ("H\r\rR\r", 2),
]


@pytest.mark.parametrize(
    "text, line", BLANK_LINES,
    ids=["lf", "crlf", "cr", "crlf-lf", "lf-cr", "cr-crlf", "lf-first", "crlf-first", "cr-first"],
)
def test_a_blank_line_is_an_error_whatever_the_line_ends(tmp_path, text, line):
    path = tmp_path / "d.csv"
    path.write_bytes(
        text.replace("H", "user_id,t,skill_idx,y_true,p_pred,model_tag").replace("R", "u{},1,0,1,0.5,m").format(1, 2).encode()
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line} has 0 cells, the header has 6") + "$"):
        read_prediction_dump(path)


@pytest.mark.parametrize("reader", [read_prediction_dump, read_trajectory])
def test_empty_file_error_names_the_file(tmp_path, reader):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no header row")):
        reader(path)


def test_trajectory_rejects_unknown_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("user_id,t,skill\nu9,0,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unexpected trajectory header")):
        read_trajectory(path)


def test_trajectory_round_trip_with_nan(tmp_path):
    p = np.array([[0.5, np.nan], [0.6, 0.4]])
    traj = MasteryTrajectory(user_id="u9", p=p, steps=[(0, 3, 1), (1, 4, 0)])
    path = tmp_path / "t.csv"
    write_trajectory(path, traj)
    loaded = read_trajectory(path)
    assert loaded.user_id == "u9"
    assert np.array_equal(loaded.steps, traj.steps)
    assert np.isnan(loaded.p[0, 1])
    assert loaded.p[1, 1] == 0.4


def test_a_user_id_with_a_comma_and_a_quote_round_trips(tmp_path):
    user = 'a,"b" c'
    path = tmp_path / "d.csv"
    write_prediction_dump(path, predictions_of([rec(user=user, t=1), rec(user="u2", t=1)]))
    assert [r.user_id for r in rows_of(read_prediction_dump(path))] == [user, "u2"]
    traj = MasteryTrajectory(user_id=user, p=np.array([[0.5], [0.25]]), steps=[(0, 0, 1), (0, 1, 0)])
    path = tmp_path / "t.csv"
    write_trajectory(path, traj)
    loaded = read_trajectory(path)
    assert loaded.user_id == user
    assert np.array_equal(loaded.steps, traj.steps) and np.array_equal(loaded.p, traj.p)


def test_practiced_path_reads_practiced_cells():
    p = np.array([[0.2, 0.9], [0.3, 0.8], [0.4, np.nan]])
    traj = MasteryTrajectory(
        user_id="u1", p=p, steps=[(0, 0, 1), (0, 0, 1), (1, 1, 0)]
    )
    path = rows_of(traj.practiced_path("m"))
    assert [r.p for r in path[:2]] == [0.2, 0.3]
    assert path[2].p is None  # unresolved practiced cell stays null


# two sequences: "a" with 2 steps, "b" with 3
TWO_SEQUENCES = (["a", "b"], [2, 3], [4, 5, 6, 7, 8], [1, 0, 1, 1, 0])


def test_step_rows_lays_out_mastery_rows_from_step_zero():
    rows = rows_of(step_rows(*TWO_SEQUENCES, [0.1, 0.2, 0.3, 0.4, 0.5], "m"))
    assert rows == [
        Row("a", 0, 4, 1, 0.1, "m"),
        Row("a", 1, 5, 0, 0.2, "m"),
        Row("b", 0, 6, 1, 0.3, "m"),
        Row("b", 1, 7, 1, 0.4, "m"),
        Row("b", 2, 8, 0, 0.5, "m"),
    ]


def test_step_rows_lays_out_next_step_rows_from_step_one():
    rows = rows_of(step_rows(*TWO_SEQUENCES, [0.2, 0.4, 0.5], "m", first_step=1))
    assert rows == [
        Row("a", 1, 5, 0, 0.2, "m"),
        Row("b", 1, 7, 1, 0.4, "m"),
        Row("b", 2, 8, 0, 0.5, "m"),
    ]


def test_step_rows_one_step_sequence_has_a_mastery_row_and_no_next_step_row():
    assert rows_of(step_rows(["a"], [1], [3], [1], [0.5], "m")) == [Row("a", 0, 3, 1, 0.5, "m")]
    assert len(step_rows(["a"], [1], [3], [1], [], "m", first_step=1)) == 0


@pytest.mark.parametrize("first_step", [0, 1])
def test_step_rows_of_no_sequences_is_empty(first_step):
    preds = step_rows([], [], [], [], [], "m", first_step=first_step)
    assert len(preds) == 0
    assert [col.dtype.kind for col in preds.columns()] == ["U", "i", "i", "i", "f", "U"]


def test_step_rows_keeps_nan_and_floors_saturated_probabilities():
    preds = step_rows(["a"], [3], [0, 0, 0], [1, 1, 0], [0.0, math.nan, 1.0], "m")
    assert preds.p[0] == PROB_FLOOR
    assert math.isnan(preds.p[1])
    assert preds.p[2] == 1.0 - PROB_FLOOR


@pytest.mark.parametrize("bad_row", ["u9,1,1,4,0,0.6", "u9,1,1,4,0,0.6,0.4,0.1", ""])
def test_trajectory_row_with_wrong_cell_count_names_file_and_row(tmp_path, bad_row):
    path = tmp_path / "t.csv"
    path.write_text(
        "user_id,t,skill_idx,quiz_idx,y,p_0,p_1\nu9,0,0,3,1,0.5,NA\n" + bad_row + "\n"
    )
    with pytest.raises(ValueError, match=r"t\.csv: line 3 has \d cells, the header has 7"):
        read_trajectory(path)


# a user id holding line ends: the row after it starts on a later line than
# its row index gives, and every error names the line its record starts on
SPANNING_IDS = [("a\nb", 4), ("a\r\nb", 4), ("a\n\nb", 5)]
SPANNING_ID_NAMES = ["lf", "crlf", "two-lf"]

DUMP_ERRORS = [
    ("u2,2,0,1,0.5", "line {} has 5 cells, the header has 6"),
    ("u2,x,0,1,0.5,m", "line {}: t must be a 64-bit integer: 'x'"),
    ("u2,2,0,1,abc,m", "line {}: could not convert string to float: 'abc'"),
    ("u2,2,0,1,1.5,m", "line {}: probability out of (0,1): 1.5"),
    ("u2,2,0,2,0.5,m", "line {}: y_true must be 0 or 1"),
    ("{user},1,0,0,0.25,m", "line {}: duplicate record for {key}"),
]


@pytest.mark.parametrize("user, line", SPANNING_IDS, ids=SPANNING_ID_NAMES)
@pytest.mark.parametrize(
    "bad_row, error", DUMP_ERRORS, ids=["ragged", "t", "p-text", "p-range", "y_true", "duplicate"]
)
def test_dump_error_after_a_spanning_user_id_names_the_line_its_record_starts_on(
    tmp_path, user, line, bad_row, error
):
    quoted = '"' + user + '"'
    path = tmp_path / "d.csv"
    path.write_bytes(
        f"user_id,t,skill_idx,y_true,p_pred,model_tag\r\n{quoted},1,0,1,0.5,m\r\n"
        f"{bad_row.format(user=quoted)}\r\nu3,3,0,1,0.5,m\r\n".encode()
    )
    message = f"{path}: " + error.format(line, key=(user, 1, "m"))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_prediction_dump(path)


@pytest.mark.parametrize("user, line", SPANNING_IDS, ids=SPANNING_ID_NAMES)
@pytest.mark.parametrize(
    "bad_row, error",
    [
        ("u9,1,0,3,1", "line {} has 5 cells, the header has 6"),
        ("u9,1,0,x,1,0.5", "line {}: quiz_idx must be a 64-bit integer: 'x'"),
        ("u9,1,0,3,1,abc", "line {}: could not convert string to float: 'abc'"),
    ],
    ids=["ragged", "int", "p"],
)
def test_trajectory_error_after_a_spanning_user_id_names_the_line_its_record_starts_on(
    tmp_path, user, line, bad_row, error
):
    path = tmp_path / "t.csv"
    path.write_bytes(
        f'user_id,t,skill_idx,quiz_idx,y,p_0\n"{user}",0,0,3,1,NA\n{bad_row}\nu9,2,0,3,1,0.5\n'.encode()
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: " + error.format(line)) + "$"):
        read_trajectory(path)
