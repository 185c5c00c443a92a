from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from ktrace import dkt, nncore
from ktrace.dkt import (
    DktModel,
    EarlyStopping,
    TrainConfig,
    build_batch,
    encode_step,
    load_checkpoint,
    mastery_trajectory,
    predict_records,
    save_checkpoint,
    train,
)
from ktrace.ingest import StepTable, StudentSequence

from predtable import rows_of
from steptable import table_of


def seq(user: str, steps) -> StudentSequence:
    return StudentSequence(user_id=user, steps=[(s, s, y) for s, y in steps])


def table(sequences) -> StepTable:
    return table_of(sequences)


def random_sequences(rng: np.random.Generator, n: int, k: int, min_len=2, max_len=12):
    out = []
    for i in range(n):
        t = int(rng.integers(min_len, max_len + 1))
        steps = [(int(rng.integers(0, k)), int(rng.integers(0, 2))) for _ in range(t)]
        out.append(seq(f"u{i:03d}", steps))
    return out


def zero_model(k: int, embedding_dim: int, hidden_dim: int) -> DktModel:
    """All-zero parameters; the readout then outputs 0.5 everywhere."""
    model = DktModel.init(k, TrainConfig(embedding_dim=embedding_dim, hidden_dim=hidden_dim))
    model.net = nncore.from_flat({n: np.zeros_like(a) for n, a in model.net.flat().items()})
    return model


# ---------------------------------------------------------------------------
# encoding


def test_encode_basic_values():
    assert encode_step(0, 0, 149) == 0
    assert encode_step(3, 1, 149) == 152


def test_encode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_step(149, 0, 149)
    with pytest.raises(ValueError):
        encode_step(-1, 0, 149)
    with pytest.raises(ValueError):
        encode_step(0, 2, 149)


def test_encode_decode_round_trip_exhaustive_k149():
    k = 149
    seen = set()
    for s in range(k):
        for y in (0, 1):
            x = encode_step(s, y, k)
            assert 0 <= x < 2 * k
            assert divmod(x, k) == (y, s)
            seen.add(x)
    assert len(seen) == 2 * k  # bijection onto [0, 2K)


# ---------------------------------------------------------------------------
# batching


def test_build_batch_hand_example():
    k = 10
    batch = build_batch(table([seq("u1", [(2, 1), (2, 0), (5, 1)])]), k, max_t=50)
    assert batch.x.tolist() == [[12, 2, 15]]
    assert batch.w.tolist() == [[1.0, 1.0, 0.0]]
    assert (batch.s_next[0, 0], batch.y_next[0, 0]) == (2, 0)
    assert (batch.s_next[0, 1], batch.y_next[0, 1]) == (5, 1)


def test_build_batch_equal_lengths_mask_rows():
    k = 4
    sequences = [seq(f"u{i}", [(0, 1), (1, 0), (2, 1), (3, 0)]) for i in range(3)]
    batch = build_batch(table(sequences), k, max_t=10)
    assert np.all(batch.w.sum(axis=1) == 3.0)


def test_build_batch_mask_count_is_sum_of_lengths_minus_one():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(2, 8))
        sequences = random_sequences(rng, int(rng.integers(1, 9)), k)
        batch = build_batch(table(sequences), k, max_t=20)
        expected = sum(len(s) - 1 for s in sequences)
        assert batch.w.sum() == expected


def test_build_batch_token_identity_on_valid_cells():
    rng = np.random.default_rng(8)
    k = 6
    sequences = random_sequences(rng, 5, k)
    batch = build_batch(table(sequences), k, max_t=20)
    for i, student in enumerate(sequences):
        tokens = [s + y * k for s, _, y in student.steps]
        assert batch.x[i, : len(student)].tolist() == tokens
        # the target at each valid cell is the next step's token, split in two
        valid = batch.w[i] > 0
        assert (batch.s_next[i, valid] + batch.y_next[i, valid] * k).tolist() == tokens[1:]


def test_build_batch_windowing_splits_and_drops_singletons():
    k = 3
    steps = [(i % k, i % 2) for i in range(7)]
    batch = build_batch(table([seq("u1", steps)]), k, max_t=3)
    # 7 steps -> windows of 3, 3, 1; the singleton is dropped, and the second
    # window's last cell predicts it
    assert batch.x.shape[0] == 2
    assert batch.lengths.tolist() == [3, 3]
    assert batch.w.sum() == 6.0


def _window_targets(sequences, max_t: int):
    """(user, step) of the step each cell of ``build_batch``'s rows targets,
    row by row: students in order, each one's windows in order, trailing
    1-step windows dropped."""
    rows = []
    for student in sequences:
        for start in range(0, len(student), max_t):
            length = min(max_t, len(student) - start)
            if length >= 2:
                rows.append([(student.user_id, t + 1) for t in range(start, start + length)])
    return rows


def test_build_batch_targets_every_next_step_once_across_windows():
    rng = np.random.default_rng(12)
    for _ in range(40):
        k = int(rng.integers(2, 8))
        max_t = int(rng.integers(2, 7))
        sequences = random_sequences(rng, int(rng.integers(1, 7)), k, max_len=30)
        batch = build_batch(table(sequences), k, max_t=max_t)
        assert batch.w.sum() == sum(len(s) - 1 for s in sequences)
        steps = {s.user_id: s.steps for s in sequences}
        targets = []
        for row, cells in enumerate(_window_targets(sequences, max_t)):
            for col, (user_id, t) in enumerate(cells):
                if batch.w[row, col]:
                    skill, _, y = steps[user_id][t]
                    assert (batch.s_next[row, col], batch.y_next[row, col]) == (skill, y)
                    targets.append((user_id, t))
        assert sorted(targets) == sorted((s.user_id, t) for s in sequences for t in range(1, len(s)))


def test_predict_records_rows_are_each_a_training_target_once():
    k, max_t = 4, 3
    model = DktModel.init(k, TrainConfig(embedding_dim=4, hidden_dim=5, max_t=max_t, seed=2))
    rng = np.random.default_rng(13)
    sequences = random_sequences(rng, 6, k, max_len=14)
    preds = rows_of(predict_records(model, table(sequences), tag="dkt")[0])
    batch = build_batch(table(sequences), k, max_t=max_t)
    targets = [
        cell for row, cells in enumerate(_window_targets(sequences, max_t))
        for col, cell in enumerate(cells) if batch.w[row, col]
    ]
    assert len(set(targets)) == len(targets)
    assert sorted(targets) == sorted((r.user_id, r.step) for r in preds)


def test_build_batch_padded_cells_hold_in_range_inputs():
    k = 5
    sequences = [seq("a", [(0, 1), (1, 0), (2, 1)]), seq("b", [(3, 0), (4, 1)])]
    batch = build_batch(table(sequences), k, 10)
    assert batch.x[1, 2] == batch.x[1, 0] == 3  # the row's first step
    assert 0 <= batch.x.min() and batch.x.max() < 2 * k
    assert 0 <= batch.s_next.min() and batch.s_next.max() < k
    assert set(np.unique(batch.y_next)) <= {0, 1}
    assert batch.w[1, 2] == 0.0


def test_build_batch_empty_input_errors():
    with pytest.raises(ValueError, match="empty"):
        build_batch(table([]), 3, 10)


def test_build_batch_names_a_student_with_fewer_than_two_steps():
    sequences = [seq("u1", [(0, 1), (1, 0)]), seq("u2", [(2, 1)]), seq("u3", [])]
    with pytest.raises(ValueError, match=r"^sequence for student u2 has 1 steps; need >= 2$"):
        build_batch(table(sequences), 3, 10)


def test_inference_rejects_a_student_with_no_steps():
    model = zero_model(k=3, embedding_dim=4, hidden_dim=5)
    with pytest.raises(ValueError, match="^sequence must have at least one step$"):
        predict_records(model, table([seq("u1", [(0, 1)]), seq("u2", [])]), tag="dkt")
    with pytest.raises(ValueError, match="^sequence must have at least one step$"):
        mastery_trajectory(model, table([seq("u2", [])]))


@pytest.mark.parametrize("steps, message", [
    ([(0, 1), (3, 0)], r"^skill index 3 out of range \[0, 3\)$"),
    ([(-1, 1), (0, 0)], r"^skill index -1 out of range \[0, 3\)$"),
    ([(0, 1), (1, 2)], r"^correctness must be 0 or 1, got 2$"),
])
def test_batching_and_inference_reject_out_of_range_steps(steps, message):
    model = zero_model(k=3, embedding_dim=4, hidden_dim=5)
    with pytest.raises(ValueError, match=message):
        build_batch(table([seq("u1", [(0, 1), (1, 0)]), seq("u2", steps)]), 3, 10)
    with pytest.raises(ValueError, match=message):
        predict_records(model, table([seq("u1", [(0, 1)]), seq("u2", steps)]), tag="dkt")


# ---------------------------------------------------------------------------
# early stopping


def test_early_stopping_patience_trigger():
    stopper = EarlyStopping(patience=3)
    losses = [0.70, 0.68, 0.69, 0.69, 0.69]
    stops = []
    for epoch, loss in enumerate(losses, start=1):
        stops.append(stopper.update(epoch, loss))
    assert stops == [False, False, False, False, True]
    assert stopper.best_epoch == 2
    assert stopper.best_loss == 0.68


def test_early_stopping_requires_strict_improvement():
    stopper = EarlyStopping(patience=2)
    assert not stopper.update(1, 0.5)
    assert not stopper.update(2, 0.5)
    assert stopper.update(3, 0.5)
    assert stopper.best_epoch == 1


# ---------------------------------------------------------------------------
# prediction


def test_zero_model_predicts_half():
    model = zero_model(k=5, embedding_dim=4, hidden_dim=6)
    p = mastery_trajectory(model, table([seq("u1", [(0, 1), (2, 0)])])).p[-1, 3]
    assert p == 0.5
    traj = mastery_trajectory(model, table([seq("u1", [(0, 1), (2, 0), (4, 1)])]))
    assert np.array_equal(traj.p, np.full((3, 5), 0.5))


def test_trajectory_causality_prefix_rows_bit_identical():
    cfg = TrainConfig(embedding_dim=4, hidden_dim=6, seed=4)
    model = DktModel.init(4, cfg)
    steps = [(0, 1), (1, 0), (2, 1), (3, 0), (1, 1)]
    full = mastery_trajectory(model, table([seq("u1", steps)]))
    for t in range(1, len(steps) + 1):
        part = mastery_trajectory(model, table([seq("u1", steps[:t])]))
        assert np.array_equal(part.p, full.p[:t])


def test_batched_forward_matches_per_student_runs():
    """Padding and batch composition must not leak across rows."""
    cfg = TrainConfig(embedding_dim=6, hidden_dim=8, seed=13)
    model = DktModel.init(4, cfg)
    sequences = [
        seq("a", [(0, 1), (1, 0), (2, 1), (3, 0), (1, 1)]),
        seq("b", [(3, 0), (0, 1)]),
        seq("c", [(2, 1), (2, 0), (2, 1)]),
    ]
    batch = build_batch(table(sequences), 4, max_t=10)
    probs = nncore.net_forward(model.net, batch.x)
    for i, s in enumerate(sequences):
        solo = mastery_trajectory(model, table([s]))
        np.testing.assert_allclose(probs[i, : len(s)], solo.p, atol=1e-12, rtol=0)


def test_forward_matches_scalar_reference():
    """Hand-rolled scalar forward pass over a tiny frozen model."""
    k, d_in, d_h = 2, 2, 3
    rng = np.random.default_rng(7)
    cfg = TrainConfig(embedding_dim=d_in, hidden_dim=d_h, seed=11)
    model = DktModel.init(k, cfg)
    steps = [(0, 1), (1, 0), (1, 1)]
    traj = mastery_trajectory(model, table([seq("u1", steps)]))

    net = model.net
    w_z, w_r, w_h = np.split(net.gru.w, 3, axis=1)
    u_z, u_r, u_h = np.split(net.gru.u, 3, axis=1)
    b_z, b_r, b_h = np.split(net.gru.b, 3)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * d_h
    for t, (s, _, y) in enumerate([(s, s, y) for s, y in steps]):
        x = net.embedding[s + y * k]
        z = [sig(sum(x[a] * w_z[a][j] for a in range(d_in))
                 + sum(h[b] * u_z[b][j] for b in range(d_h)) + b_z[j])
             for j in range(d_h)]
        r = [sig(sum(x[a] * w_r[a][j] for a in range(d_in))
                 + sum(h[b] * u_r[b][j] for b in range(d_h)) + b_r[j])
             for j in range(d_h)]
        c = [math.tanh(sum(x[a] * w_h[a][j] for a in range(d_in))
                       + sum(r[b] * h[b] * u_h[b][j] for b in range(d_h)) + b_h[j])
             for j in range(d_h)]
        h = [(1 - z[j]) * h[j] + z[j] * c[j] for j in range(d_h)]
        for out in range(k):
            logit = sum(h[j] * net.w_out[j][out] for j in range(d_h)) + net.b_out[out]
            assert traj.p[t, out] == pytest.approx(sig(logit), abs=1e-12)


def test_predict_records_clamps_saturated_outputs(tmp_path):
    from ktrace.records import read_prediction_dump, write_prediction_dump

    model = zero_model(k=2, embedding_dim=3, hidden_dim=4)
    model.net.b_out[:] = [50.0, -50.0]  # sigmoid rounds to exactly 1.0 / 0.0
    preds, mastery = predict_records(model, table([seq("u1", [(0, 1), (1, 0), (0, 1)])]), tag="dkt")
    assert all(0.0 < r.p < 1.0 for r in rows_of(preds) + rows_of(mastery))
    path = tmp_path / "d.csv"
    write_prediction_dump(path, preds)
    assert rows_of(read_prediction_dump(path)) == rows_of(preds)


def test_predict_records_counts_and_alignment():
    model = zero_model(k=4, embedding_dim=4, hidden_dim=5)
    sequences = [seq("u1", [(0, 1), (1, 0), (2, 1)]), seq("u2", [(3, 0), (3, 1)])]
    preds, mastery = map(rows_of, predict_records(model, table(sequences), tag="dkt"))
    assert len(preds) == (3 - 1) + (2 - 1)
    assert len(mastery) == 3 + 2
    assert all(r.model_tag == "dkt" for r in preds)
    assert [r.step for r in preds if r.user_id == "u1"] == [1, 2]
    assert [r.step for r in mastery if r.user_id == "u1"] == [0, 1, 2]
    # mastery rows match the trajectory's practiced-skill cells
    traj = mastery_trajectory(model, table([sequences[0]]))
    for rec in mastery:
        if rec.user_id == "u1":
            assert rec.p == traj.p[rec.step, rec.skill]


def test_predict_records_long_student_matches_windowed_batch():
    """One window rule: inference restarts the state every max_t steps, as
    build_batch does for training and validation."""
    k, max_t = 4, 4
    model = DktModel.init(k, TrainConfig(embedding_dim=5, hidden_dim=6, max_t=max_t, seed=3))
    rng = np.random.default_rng(31)
    steps = [(int(rng.integers(0, k)), int(rng.integers(0, 2))) for _ in range(11)]
    student = seq("long", steps)
    batch = build_batch(table([student]), k, max_t=max_t)  # windows of 4, 4, 3
    assert batch.lengths.tolist() == [4, 4, 3]
    probs = nncore.net_forward(model.net, batch.x)
    rows = np.concatenate([probs[i, :n] for i, n in enumerate(batch.lengths)])

    preds, mastery = map(rows_of, predict_records(model, table([student]), tag="dkt"))
    skills = [s for s, _ in steps]
    for rec in mastery:
        assert abs(rec.p - rows[rec.step, rec.skill]) < 1e-12
    for rec in preds:  # step t reads row t-1, across window boundaries too
        assert abs(rec.p - rows[rec.step - 1, skills[rec.step]]) < 1e-12
    np.testing.assert_allclose(
        mastery_trajectory(model, table([student])).p, rows, atol=1e-12, rtol=0
    )


def test_predict_records_batched_matches_per_student_trajectories():
    k = 5
    cfg = TrainConfig(embedding_dim=6, hidden_dim=7, batch_size=2, max_t=4, seed=8)
    model = DktModel.init(k, cfg)
    rng = np.random.default_rng(32)
    sequences = [
        seq(f"u{i}", [(int(rng.integers(0, k)), int(rng.integers(0, 2))) for _ in range(n)])
        for i, n in enumerate((3, 9, 2, 6, 1, 2, 5))  # 9 -> windows 4, 4, 1
    ]
    preds, mastery = map(rows_of, predict_records(model, table(sequences), tag="dkt"))
    expected_preds, expected_mastery = [], []
    for student in sequences:
        traj = mastery_trajectory(model, table([student]))
        for t, (skill, _, y) in enumerate(student.steps):
            if t >= 1:
                expected_preds.append((student.user_id, t, skill, y, traj.p[t - 1, skill]))
            expected_mastery.append((student.user_id, t, skill, y, traj.p[t, skill]))
    for got, want in ((preds, expected_preds), (mastery, expected_mastery)):
        assert [(r.user_id, r.step, r.skill, r.y_true) for r in got] == [w[:4] for w in want]
        np.testing.assert_allclose([r.p for r in got], [w[4] for w in want], atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# training


def tiny_corpus(k: int = 3, n: int = 40, seed: int = 5):
    """Learnable toy data: skill 0 is almost always correct, skill 1 almost
    always wrong, skill 2 alternates."""
    rng = np.random.default_rng(seed)
    sequences = []
    for i in range(n):
        steps = []
        for t in range(8):
            s = int(rng.integers(0, k))
            if s == 0:
                y = int(rng.random() < 0.9)
            elif s == 1:
                y = int(rng.random() < 0.1)
            else:
                y = t % 2
            steps.append((s, y))
        sequences.append(seq(f"u{i:03d}", steps))
    return sequences


def fast_config(seed: int = 0, max_epochs: int = 8) -> TrainConfig:
    return TrainConfig(
        embedding_dim=8,
        hidden_dim=12,
        learning_rate=5e-3,
        batch_size=16,
        max_t=16,
        max_epochs=max_epochs,
        seed=seed,
    )


def test_train_learns_toy_structure():
    sequences = tiny_corpus()
    model, log = train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=fast_config())
    assert len(log) >= 1
    assert log[0].train_loss > log[-1].train_loss or len(log) < 3
    # after training, skill 0 should look easier than skill 1
    probe = seq("probe", [(0, 1), (1, 0), (0, 1), (1, 0)])
    p_easy, p_hard = mastery_trajectory(model, table([probe])).p[-1, :2]
    assert p_easy > p_hard


def test_train_is_deterministic_under_seed(tmp_path):
    sequences = tiny_corpus()
    cfg = fast_config(seed=3, max_epochs=4)
    m1, log1 = train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=cfg)
    m2, log2 = train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=cfg)
    for name, arr in m1.net.flat().items():
        assert np.array_equal(arr, m2.net.flat()[name])
    assert [e.val_loss for e in log1] == [e.val_loss for e in log2]
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(m1, p1)
    save_checkpoint(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_aborts_on_nonfinite_loss(monkeypatch):
    sequences = tiny_corpus()
    original = nncore.net_loss_and_grads

    def poisoned(net, x_idx, s_next, y_next, w):
        loss, grads = original(net, x_idx, s_next, y_next, w)
        return float("nan"), grads

    monkeypatch.setattr("ktrace.dkt.nncore.net_loss_and_grads", poisoned)
    with pytest.raises(dkt.TrainingDiverged, match="epoch 1, batch 0"):
        train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=fast_config())


def test_train_steps_in_float32_on_float64_master_weights(monkeypatch, tmp_path):
    sequences = tiny_corpus()
    step_dtypes, val_dtypes, adam_dtypes = [], [], []
    original_step, original_val = nncore.net_loss_and_grads, nncore.net_loss
    original_adam = nncore.adam_update

    def dtypes(tensors):
        return {arr.dtype for arr in tensors.values()}

    def step_spy(net, x_idx, s_next, y_next, w):
        step_dtypes.append(dtypes(net.flat()))
        return original_step(net, x_idx, s_next, y_next, w)

    def val_spy(net, x_idx, s_next, y_next, w):
        val_dtypes.append(dtypes(net.flat()))
        return original_val(net, x_idx, s_next, y_next, w)

    def adam_spy(params, grads, state):
        out, state = original_adam(params, grads, state)
        adam_dtypes.append(
            dtypes(params) | dtypes(grads) | dtypes(state.m) | dtypes(state.v) | dtypes(out)
        )
        return out, state

    monkeypatch.setattr("ktrace.dkt.nncore.net_loss_and_grads", step_spy)
    monkeypatch.setattr("ktrace.dkt.nncore.net_loss", val_spy)
    monkeypatch.setattr("ktrace.dkt.nncore.adam_update", adam_spy)
    model, log = train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=fast_config(max_epochs=2))

    float32, float64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
    assert len(step_dtypes) == len(adam_dtypes) == 2 * 2  # 32 sequences, batches of 16
    assert all(d == float32 for d in step_dtypes)
    assert len(val_dtypes) == len(log) and all(d == float64 for d in val_dtypes)
    assert all(d == float64 for d in adam_dtypes)
    assert dtypes(model.net.flat()) == float64
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as data:
        assert {data[name].dtype for name in data.files if name.startswith("param_")} == float64


def test_train_from_a_saturated_readout_does_not_diverge(monkeypatch):
    """b_out starts at -40 for the always-right skill and +40 for the
    always-wrong one, so every float32 readout starts saturated on the
    wrong side; the float64 target readout keeps each step's loss finite."""
    rng = np.random.default_rng(8)
    sequences = [
        seq(f"u{i:03d}", [(s, 1 - s) for s in rng.integers(0, 2, size=8)]) for i in range(40)
    ]
    original_init = nncore.init_net

    def saturated_init(*args, **kwargs):
        net = original_init(*args, **kwargs)
        net.b_out[:] = [-40.0, 40.0]
        return net

    monkeypatch.setattr("ktrace.dkt.nncore.init_net", saturated_init)
    model, log = train(table(sequences[:32]), table(sequences[32:]), k=2, cfg=fast_config(max_epochs=3))
    assert all(np.isfinite(e.train_loss) and np.isfinite(e.val_loss) for e in log)
    assert log[0].train_loss > 1.0  # the run did start saturated
    assert model.net.b_out[0] > -40.0 and model.net.b_out[1] < 40.0


def test_train_returns_best_validation_checkpoint():
    sequences = tiny_corpus()
    cfg = fast_config(seed=1, max_epochs=10)
    model, log = train(table(sequences[:32]), table(sequences[32:]), k=3, cfg=cfg)
    best = min(e.val_loss for e in log)
    # recompute the returned model's validation loss; must equal the best epoch
    val_loss = dkt._dataset_loss(model.net, table(sequences[32:]), 3, cfg)
    assert val_loss == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = fast_config(seed=2)
    model = DktModel.init(4, cfg, vocab_hash="abc123")
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, expect_vocab_hash="abc123")
    assert loaded.k == 4
    assert loaded.vocab_hash == "abc123"
    assert loaded.config == asdict(cfg)
    # the meta config is the TrainConfig written as its fields
    assert set(loaded.config) == {
        "embedding_dim", "hidden_dim", "learning_rate", "batch_size", "max_t",
        "clip_norm", "patience", "max_epochs", "seed",
    }
    for name, arr in model.net.flat().items():
        assert np.array_equal(arr, loaded.net.flat()[name])


def test_checkpoint_vocab_hash_mismatch_errors(tmp_path):
    model = DktModel.init(3, fast_config(), vocab_hash="aaaaaaaaaaaa")
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="vocabulary hash"):
        load_checkpoint(path, expect_vocab_hash="bbbbbbbbbbbb")


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    model_a = DktModel.init(3, fast_config(seed=1), vocab_hash="aaaa")
    model_b = DktModel.init(3, fast_config(seed=2), vocab_hash="aaaa")
    path = tmp_path / "model.npz"
    save_checkpoint(model_a, path)

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 torn")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model_b, path)
    monkeypatch.undo()

    loaded = load_checkpoint(path)
    for name, arr in model_a.net.flat().items():
        assert np.array_equal(arr, loaded.net.flat()[name])
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_checkpoint_version_1_layout_is_refused(tmp_path):
    net = DktModel.init(3, fast_config()).net
    meta = json.dumps({"version": 1, "k": 3, "vocab_hash": "", "config": {}})
    nine = dict(zip(("w_z", "w_r", "w_h"), np.split(net.gru.w, 3, axis=1)))
    nine.update(zip(("u_z", "u_r", "u_h"), np.split(net.gru.u, 3, axis=1)))
    nine.update(zip(("b_z", "b_r", "b_h"), np.split(net.gru.b, 3)))
    tensors = {"embedding": net.embedding, **nine, "w_out": net.w_out, "b_out": net.b_out}
    path = tmp_path / "old.npz"
    np.savez(
        path,
        meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        **{f"param_{name}": arr for name, arr in tensors.items()},
    )
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)
