from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from ktrace import nncore
from ktrace.nncore import (
    AdamState,
    GruParams,
    adam_update,
    clip_global_norm,
    embed_lookup,
    embed_lookup_backward,
    fd_max_rel_error,
    grad_check,
    gru_backward,
    gru_forward,
    init_net,
    masked_bce,
    masked_bce_backward,
    net_loss,
    net_loss_and_grads,
    net_forward,
    readout,
)


def random_gru(rng: np.random.Generator, d_in: int, d_h: int, scale: float = 0.4) -> GruParams:
    def m(*shape):
        return rng.normal(scale=scale, size=shape)

    w = np.concatenate([m(d_in, d_h) for _ in range(3)], axis=1)
    u = np.concatenate([m(d_h, d_h) for _ in range(3)], axis=1)
    b = np.concatenate([m(d_h) for _ in range(3)])
    return GruParams(w=w, u=u, b=b)


def random_batch(rng: np.random.Generator, b: int, t: int, k: int):
    x_idx = rng.integers(0, 2 * k, size=(b, t))
    s_next = rng.integers(0, k, size=(b, t))
    y_next = rng.integers(0, 2, size=(b, t)).astype(float)
    w = np.ones((b, t))
    w[:, -1] = 0.0
    w[0, : t // 3] = 0.0
    return x_idx, s_next, y_next, w


# ---------------------------------------------------------------------------
# embed_lookup


def test_embed_lookup_unit_rows():
    e = np.eye(5)
    out = embed_lookup(np.array([3]), e)
    assert np.array_equal(out[0], np.eye(5)[3])


def test_embed_lookup_repeated_index_gives_identical_rows():
    rng = np.random.default_rng(0)
    e = rng.normal(size=(6, 4))
    out = embed_lookup(np.array([2, 2, 5]), e)
    assert np.array_equal(out[0], out[1])


def test_embed_lookup_out_of_range_is_hard_error():
    e = np.zeros((4, 3))
    with pytest.raises(IndexError):
        embed_lookup(np.array([4]), e)
    with pytest.raises(IndexError):
        embed_lookup(np.array([-1]), e)


def test_embed_lookup_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(7, 3))
    idx = np.array([1, 4, 1, 6, 0])
    coef = rng.normal(size=(5, 3))

    def loss():
        return float((embed_lookup(idx, e) * coef).sum())

    analytic = embed_lookup_backward(idx, coef, e.shape[0])
    err = fd_max_rel_error(loss, {"e": e}, {"e": analytic}, eps=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# GRU


def test_gru_zero_parameters_fixed_point():
    d_in, d_h, t = 3, 4, 5
    p = GruParams(w=np.zeros((d_in, 3 * d_h)), u=np.zeros((d_h, 3 * d_h)), b=np.zeros(3 * d_h))
    x = np.random.default_rng(2).normal(size=(t, d_in))
    (h,), tape = gru_forward(x[None], p)
    assert np.array_equal(h, np.zeros((t, d_h)))
    assert np.allclose(tape.z, 0.5)
    assert np.allclose(tape.r, 0.5)
    assert np.array_equal(tape.hcand, np.zeros((1, t, d_h)))


def test_gru_t1_equals_single_cell():
    rng = np.random.default_rng(3)
    p = random_gru(rng, 3, 4)
    x = rng.normal(size=(1, 3))
    (h,), _ = gru_forward(x[None], p)

    xt = x[0]
    w_z, w_r, w_h = np.split(p.w, 3, axis=1)
    b_z, b_r, b_h = np.split(p.b, 3)
    z = nncore.sigmoid(xt @ w_z + b_z)
    r = nncore.sigmoid(xt @ w_r + b_r)
    c = np.tanh(xt @ w_h + b_h)
    expected = z * c
    assert np.allclose(h[0], expected, atol=0, rtol=0)


def test_gru_prefix_run_reproduces_the_full_runs_rows():
    """Step t reads only steps 0..t: a run over x[:, :t] gives the first t
    rows of the full run bit for bit, with input matmuls and with the token
    table (what dkt.mastery_trajectory relies on)."""
    rng = np.random.default_rng(4)
    net = init_net(10, 3, 4, 5, seed=4)
    tokens = rng.integers(0, 10, size=(2, 6))
    x = net.embedding[tokens]
    table = nncore.input_table(net.embedding, net.gru)
    h_full, _ = gru_forward(x, net.gru)
    h_table, _ = gru_forward(x, net.gru, tokens=tokens, table=table)
    for t in range(1, 7):
        assert np.array_equal(gru_forward(x[:, :t], net.gru)[0], h_full[:, :t])
        h_prefix, _ = gru_forward(x[:, :t], net.gru, tokens=tokens[:, :t], table=table)
        assert np.array_equal(h_prefix, h_table[:, :t])


def test_gru_nonfinite_raises_with_step_index():
    rng = np.random.default_rng(5)
    p = random_gru(rng, 2, 3)
    x = rng.normal(size=(4, 2))
    x[2, 0] = np.nan
    with pytest.raises(FloatingPointError, match="step 2"):
        gru_forward(x[None], p)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    d_in, d_h, t = 3, 4, 5
    p = random_gru(rng, d_in, d_h)
    x = rng.normal(size=(2, t, d_in))
    coef = rng.normal(size=(2, t, d_h))

    def loss():
        h, _ = gru_forward(x, p)
        return float((h * coef).sum())

    _, tape = gru_forward(x, p)
    grads, dx = gru_backward(p, tape, coef)
    tensors = dict(p.flat())
    tensors["x"] = x
    analytic = dict(grads)
    analytic["x"] = dx
    err = fd_max_rel_error(loss, tensors, analytic, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# readout


def test_readout_zero_weights_gives_half():
    h = np.random.default_rng(7).normal(size=(3, 4))
    p = readout(h, np.zeros((4, 2)), np.zeros(2))
    assert np.array_equal(p, np.full((3, 2), 0.5))


def test_readout_large_bias_saturates():
    p = readout(np.zeros((1, 4)), np.zeros((4, 1)), np.array([30.0]))
    assert p[0, 0] > 1.0 - 1e-9
    assert p[0, 0] < 1.0


def test_readout_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    y = rng.integers(0, 2, size=(2, 3)).astype(float)
    mask = np.ones((2, 3))

    def loss():
        return masked_bce(readout(h, w, b), y, mask)

    p = readout(h, w, b)
    dp = masked_bce_backward(p, y, mask)
    da = dp * p * (1.0 - p)
    analytic = {"w": h.T @ da, "b": da.sum(axis=0)}
    err = fd_max_rel_error(loss, {"w": w, "b": b}, analytic, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# masked BCE


def test_masked_bce_single_cell_ln2():
    loss = masked_bce(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_masked_bce_is_bit_invariant_at_masked_positions():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.1, 0.9, size=(2, 3))
    y = rng.integers(0, 2, size=(2, 3)).astype(float)
    w = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    base = masked_bce(p, y, w)
    for value in (0.0, 1.0, 123.0, -5.0, np.nan):
        q = p.copy()
        q[w == 0] = value
        assert masked_bce(q, y, w) == base


def test_masked_bce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(10)
    p = rng.uniform(0.01, 0.99, size=(2, 3))
    y = rng.integers(0, 2, size=(2, 3)).astype(float)
    w = rng.integers(0, 2, size=(2, 3)).astype(float)
    w[0, 0] = 1.0

    total = 0.0
    count = 0.0
    for i in range(2):
        for j in range(3):
            if w[i, j] == 1.0:
                total += -(y[i, j] * math.log(p[i, j]) + (1 - y[i, j]) * math.log(1 - p[i, j]))
                count += 1.0
    assert masked_bce(p, y, w) == pytest.approx(total / count, abs=1e-12)


def test_masked_bce_empty_mask_raises():
    with pytest.raises(ValueError, match="no valid targets"):
        masked_bce(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.0]]))


def test_masked_bce_backward_matches_finite_differences_and_masks():
    rng = np.random.default_rng(11)
    p = rng.uniform(0.05, 0.95, size=(2, 4))
    y = rng.integers(0, 2, size=(2, 4)).astype(float)
    w = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])

    analytic = masked_bce_backward(p, y, w)
    assert np.all(analytic[w == 0] == 0.0)
    err = fd_max_rel_error(lambda: masked_bce(p, y, w), {"p": p}, {"p": analytic}, eps=1e-6)
    assert err < 1e-7


# ---------------------------------------------------------------------------
# clipping and Adam


def test_clip_noop_below_threshold():
    g = {"a": np.array([3.0]), "b": np.array([0.0])}
    out = clip_global_norm(g, max_norm=5.0)
    assert out is g


def test_clip_rescales_to_max_norm():
    g = {"a": np.array([3.0, 4.0])}
    out = clip_global_norm(g, max_norm=1.0)
    assert np.allclose(out["a"], [0.6, 0.8], atol=1e-12)


def test_clip_property_random_tensors():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = {
            "a": rng.normal(scale=rng.uniform(0.1, 10), size=(3, 2)),
            "b": rng.normal(scale=rng.uniform(0.1, 10), size=5),
        }
        out = clip_global_norm(g, max_norm=2.5)
        norm = math.sqrt(sum(float((t * t).sum()) for t in out.values()))
        assert norm <= 2.5 + 1e-9


def test_adam_zero_gradient_keeps_params_and_increments_t():
    params = {"a": np.array([1.0, -2.0])}
    state = AdamState.for_params(params, lr=0.1)
    new, state = adam_update(params, {"a": np.zeros(2)}, state)
    assert np.array_equal(new["a"], params["a"])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    params = {"a": np.array([0.0, 0.0])}
    grads = {"a": np.array([1.0, -1.0])}
    state = AdamState.for_params(params, lr=1e-3)
    new, _ = adam_update(params, grads, state)
    assert np.allclose(new["a"], [-1e-3, 1e-3], atol=1e-9)


def test_adam_lr_zero_is_identity():
    rng = np.random.default_rng(13)
    params = {"a": rng.normal(size=4)}
    state = AdamState.for_params(params, lr=0.0)
    new, _ = adam_update(params, {"a": rng.normal(size=4)}, state)
    assert np.array_equal(new["a"], params["a"])


def test_adam_descends_quadratic():
    params = {"x": np.array([1.0])}
    state = AdamState.for_params(params, lr=0.05)
    values = [1.0]
    for _ in range(100):
        g = {"x": 2.0 * params["x"]}
        params, state = adam_update(params, g, state)
        values.append(float(params["x"][0] ** 2))
    assert values[-1] < 0.01
    assert values[-1] < values[0]


# ---------------------------------------------------------------------------
# full stack


def test_full_stack_grad_check_small_net():
    rng = np.random.default_rng(14)
    k = 5
    net = init_net(2 * k, 3, 4, k, seed=21)
    x_idx, s_next, y_next, w = random_batch(rng, 2, 6, k)
    err = grad_check(net, x_idx, s_next, y_next, w, eps=1e-5)
    assert err < 1e-4


def test_grad_check_detects_sign_flip(monkeypatch):
    rng = np.random.default_rng(15)
    k = 4
    net = init_net(2 * k, 3, 4, k, seed=22)
    x_idx, s_next, y_next, w = random_batch(rng, 2, 5, k)

    def corrupted(*args):
        loss, grads = net_loss_and_grads(*args)
        grads["w_out"] = grads["w_out"].copy()
        grads["w_out"][0, 0] = -grads["w_out"][0, 0]
        return loss, grads

    monkeypatch.setattr(nncore, "net_loss_and_grads", corrupted)
    err = grad_check(net, x_idx, s_next, y_next, w, eps=1e-5)
    assert err > 1e-2


def test_linear_only_composite_grad_error_tiny():
    rng = np.random.default_rng(16)
    h = rng.normal(size=(3, 4))
    w = rng.normal(scale=0.5, size=(4, 2))
    b = rng.normal(scale=0.5, size=2)
    y = rng.integers(0, 2, size=(3, 2)).astype(float)
    mask = np.ones((3, 2))

    def loss():
        return masked_bce(readout(h, w, b), y, mask)

    p = readout(h, w, b)
    da = np.where(mask > 0, (p - y) / mask.sum(), 0.0)
    analytic = {"w": h.T @ da, "b": da.sum(axis=0)}
    err = fd_max_rel_error(loss, {"w": w, "b": b}, analytic, eps=1e-6)
    assert err < 1e-7


def test_loss_gradient_zero_at_masked_probabilities():
    rng = np.random.default_rng(17)
    k = 4
    net = init_net(2 * k, 3, 4, k, seed=23)
    x_idx, s_next, y_next, w = random_batch(rng, 2, 5, k)
    base_loss = net_loss(net, x_idx, s_next, y_next, w)
    # flipping targets at masked positions must not change the loss
    y_mod = y_next.copy()
    y_mod[w == 0] = 1.0 - y_mod[w == 0]
    assert net_loss(net, x_idx, s_next, y_mod, w) == base_loss


def test_forward_outputs_finite_for_seeded_init():
    rng = np.random.default_rng(18)
    net = init_net(20, 8, 16, 10, seed=3)
    x_idx = rng.integers(0, 20, size=(4, 12))
    probs = nncore.net_forward(net, x_idx)
    _, tape = nncore._hidden(net, x_idx, tape=True)
    assert np.isfinite(probs).all()
    assert np.isfinite(tape.h).all()
    assert probs.min() > 0.0 and probs.max() < 1.0


# ---------------------------------------------------------------------------
# fused kernel pins


def test_sigmoid_equals_boolean_mask_formula():
    def mask_sigmoid(x):
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    edges = np.array([0.0, -0.0, 37.0, -37.0, 745.0, -745.0, np.inf, -np.inf])
    normals = np.random.default_rng(19).normal(size=100_000)
    for x in (edges, normals, normals.reshape(100, 1000) * 40.0):
        np.testing.assert_array_equal(nncore.sigmoid(x), mask_sigmoid(x))


def test_gru_token_table_matches_input_matmul():
    rng = np.random.default_rng(20)
    net = init_net(10, 3, 4, 5, seed=24)
    tokens = rng.integers(0, 10, size=(3, 7))
    x = net.embedding[tokens]
    table = nncore.input_table(net.embedding, net.gru)
    h_table, _ = gru_forward(x, net.gru, tokens=tokens, table=table)
    h_plain, _ = gru_forward(x, net.gru)
    np.testing.assert_allclose(h_table, h_plain, atol=1e-14, rtol=0)


def dense_loss_and_grads(net, x_idx, s_next, y_next, w):
    """Reference loss and gradients from the full (B, T, K) readout over
    every cell, padded ones included."""
    k = net.n_out
    b, t_len = x_idx.shape
    probs = net_forward(net, x_idx)
    h, tape = nncore._hidden(net, x_idx, tape=True)
    bi, ti = np.arange(b)[:, None], np.arange(t_len)[None, :]
    sel = probs[bi, ti, s_next]
    ref_loss = masked_bce(sel, y_next, w)
    d_logits = np.zeros_like(probs)
    d_logits[bi, ti, s_next] = np.where(w > 0, (sel - y_next) / w.sum(), 0.0)
    ref = {
        "w_out": h.reshape(-1, net.d_h).T @ d_logits.reshape(-1, k),
        "b_out": d_logits.reshape(-1, k).sum(axis=0),
    }
    gru_grads, dx = gru_backward(net.gru, tape, d_logits @ net.w_out.T)
    ref.update(gru_grads)
    ref["embedding"] = embed_lookup_backward(x_idx, dx, net.n_tokens)
    return ref_loss, ref


def test_target_skill_readout_matches_dense_reference():
    rng = np.random.default_rng(21)
    k = 6
    net = init_net(2 * k, 3, 5, k, seed=25)
    b, t_len = 3, 8
    x_idx = rng.integers(0, 2 * k, size=(b, t_len))
    s_next = rng.integers(0, k, size=(b, t_len))
    y_next = rng.integers(0, 2, size=(b, t_len)).astype(float)
    w = np.zeros((b, t_len))
    for i, length in enumerate((8, 5, 2)):
        w[i, : length - 1] = 1.0
        x_idx[i, length:] = 0  # padded cells hold some valid token
        s_next[i, length - 1 :] = 0

    ref_loss, ref = dense_loss_and_grads(net, x_idx, s_next, y_next, w)
    loss, grads = net_loss_and_grads(net, x_idx, s_next, y_next, w)
    assert abs(loss - ref_loss) < 1e-12
    assert abs(net_loss(net, x_idx, s_next, y_next, w) - ref_loss) < 1e-12
    assert grads.keys() == ref.keys() == net.flat().keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref[name], atol=1e-12, rtol=0, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cells_past_the_last_target_never_reach_loss_or_gradients(dtype):
    """Whatever valid tokens, skills and labels the cells past a row's last
    target hold, the loss and every gradient stay bit-identical to zeros
    there: a batch may fill its padded cells with any in-range step."""
    rng = np.random.default_rng(33)
    k, t_len = 6, 9
    net = init_net(2 * k, 3, 5, k, seed=34)
    net.b_out[:] = rng.normal(size=k)  # a dead cell's readout then depends on its skill
    net = nncore.from_flat({name: arr.astype(dtype) for name, arr in net.flat().items()})
    spans = np.array([5, 8, 1, 0, 5])  # rows unsorted, one without a target
    b = len(spans)
    w = (np.arange(t_len) < spans[:, None]).astype(np.float64)
    dead = w == 0
    highs = (2 * k, k, 2)  # token, skill and label ranges
    zeroed = [np.where(dead, 0, rng.integers(0, hi, size=(b, t_len))) for hi in highs]
    loss = net_loss(net, *zeroed, w)
    step_loss, grads = net_loss_and_grads(net, *zeroed, w)
    for _ in range(5):
        filled = [np.where(dead, rng.integers(0, hi, size=(b, t_len)), a)
                  for a, hi in zip(zeroed, highs)]
        assert net_loss(net, *filled, w) == loss
        got_loss, got = net_loss_and_grads(net, *filled, w)
        assert got_loss == step_loss
        assert got.keys() == grads.keys()
        for name, g in got.items():
            assert np.array_equal(g, grads[name]), name


def test_training_step_never_allocates_a_dense_readout():
    rng = np.random.default_rng(22)
    k, b, t_len = 500, 8, 40
    net = init_net(2 * k, 8, 16, k, seed=26)
    x_idx, s_next, y_next, w = random_batch(rng, b, t_len, k)
    dense_bytes = b * t_len * k * np.dtype(np.float64).itemsize
    for step in (net_loss, net_loss_and_grads):
        tracemalloc.start()
        try:
            step(net, x_idx, s_next, y_next, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, (step.__name__, peak, dense_bytes)


def test_validation_and_inference_allocate_no_gate_buffer():
    """``net_loss`` and ``net_target_probs`` run the GRU without its backward
    tape: on a batch where the gates dominate, each call peaks below the
    bytes of one (B, T, 3h) float64 gate buffer."""
    rng = np.random.default_rng(28)
    k, b, t_len, d_h = 5, 32, 100, 32
    net = init_net(2 * k, 8, d_h, k, seed=29)
    x_idx = rng.integers(0, 2 * k, size=(b, t_len))
    s_next = rng.integers(0, k, size=(b, t_len))
    y_next = rng.integers(0, 2, size=(b, t_len)).astype(float)
    w = np.ones((b, t_len))
    gate_bytes = b * t_len * 3 * d_h * np.dtype(np.float64).itemsize
    calls = {
        "net_loss": lambda: net_loss(net, x_idx, s_next, y_next, w),
        "net_target_probs": lambda: nncore.net_target_probs(net, x_idx, None, s_next),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gate_bytes, (name, peak, gate_bytes)


@pytest.mark.parametrize("bad_token", [-1, 8])
def test_out_of_range_token_raises_on_every_forward_path(bad_token):
    """Token -1 or 2K is refused by ``net_loss``, ``net_target_probs`` and
    ``net_forward`` alike, never wrapped around or clamped (K = 4 here)."""
    k = 4
    net = init_net(2 * k, 3, 4, k, seed=30)
    x_idx, s_next, y_next, w = random_batch(np.random.default_rng(31), 2, 5, k)
    x_idx[1, 2] = bad_token
    calls = (
        lambda: net_loss(net, x_idx, s_next, y_next, w),
        lambda: nncore.net_target_probs(net, x_idx, None, s_next),
        lambda: net_forward(net, x_idx),
    )
    for call in calls:
        with pytest.raises(IndexError, match="embedding index out of range"):
            call()


# ---------------------------------------------------------------------------
# packed GRU: padded cells skipped


def test_embed_lookup_backward_matches_add_at():
    rng = np.random.default_rng(23)
    n_rows, d_emb = 12, 5
    idx = rng.integers(0, 8, size=(6, 9))  # duplicates; rows 8..11 never used
    d_out = rng.normal(size=(6, 9, d_emb))
    d_out[2, 4:] = 0.0  # padded cells
    d_out[:, 7] = 0.0
    expected = np.zeros((n_rows, d_emb))
    np.add.at(expected, idx.ravel(), d_out.reshape(-1, d_emb))
    got = embed_lookup_backward(idx, d_out, n_rows)
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
    assert not got[8:].any()
    assert not embed_lookup_backward(idx, np.zeros_like(d_out), n_rows).any()


def test_gru_lengths_skip_dead_cells():
    rng = np.random.default_rng(24)
    p = random_gru(rng, 3, 4)
    lengths = np.array([6, 4, 4, 1, 0])
    x = rng.normal(size=(5, 6, 3))
    coef = rng.normal(size=(5, 6, 4))
    live = np.arange(6)[None, :] < lengths[:, None]

    h, tape = gru_forward(x, p, lengths=lengths)
    grads, dx = gru_backward(p, tape, coef)
    assert not h[~live].any() and not dx[~live].any()
    for i, n in enumerate(lengths[:4]):
        (h_row,), _ = gru_forward(x[i : i + 1, :n], p)
        np.testing.assert_allclose(h[i, :n], h_row, atol=1e-14, rtol=0)
    # dense reference: every cell computed, dead cells given zero gradient
    _, dense_tape = gru_forward(x, p)
    ref, ref_dx = gru_backward(p, dense_tape, np.where(live[..., None], coef, 0.0))
    np.testing.assert_allclose(dx, np.where(live[..., None], ref_dx, 0.0), atol=1e-12, rtol=0)
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref[name], atol=1e-12, rtol=0, err_msg=name)

    with pytest.raises(ValueError, match="non-increasing"):
        gru_forward(x, p, lengths=np.array([2, 6, 4, 1, 0]))


def test_packed_loss_matches_dense_reference_on_unsorted_rows_with_holes():
    rng = np.random.default_rng(25)
    k = 6
    net = init_net(2 * k, 3, 5, k, seed=27)
    b, t_len = 4, 9
    x_idx = rng.integers(0, 2 * k, size=(b, t_len))
    s_next = rng.integers(0, k, size=(b, t_len))
    y_next = rng.integers(0, 2, size=(b, t_len)).astype(float)
    w = np.zeros((b, t_len))
    for i, length in enumerate((2, 4, 7, 9)):  # increasing length order
        w[i, : length - 1] = 1.0
        x_idx[i, length:] = 0
        s_next[i, length - 1 :] = 0
    w[2, 1:3] = 0.0  # interior holes
    w[3, 0] = 0.0
    w[3, 5] = 0.0

    ref_loss, ref = dense_loss_and_grads(net, x_idx, s_next, y_next, w)
    loss, grads = net_loss_and_grads(net, x_idx, s_next, y_next, w)
    assert abs(loss - ref_loss) < 1e-12
    assert abs(net_loss(net, x_idx, s_next, y_next, w) - ref_loss) < 1e-12
    assert grads.keys() == ref.keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref[name], atol=1e-12, rtol=0, err_msg=name)


# ---------------------------------------------------------------------------
# compute dtype follows the parameters


def _as_float32(tensors):
    return {name: arr.astype(np.float32) for name, arr in tensors.items()}


def test_gru_float32_params_compute_in_float32():
    """Float64 inputs to a float32 GRU: every buffer and gradient is float32,
    within float32 rounding of the float64 run (h to 1e-5 absolute, the
    gradients to 1e-3 of each tensor's largest entry), and dead cells stay
    exactly zero."""
    rng = np.random.default_rng(26)
    p64 = random_gru(rng, 3, 4)
    p32 = GruParams(**_as_float32(p64.flat()))
    lengths = np.array([7, 5, 5, 2, 0])
    x = rng.normal(size=(5, 7, 3))
    coef = rng.normal(size=(5, 7, 4))
    live = np.arange(7)[None, :] < lengths[:, None]

    h64, tape64 = gru_forward(x, p64, lengths=lengths)
    h32, tape32 = gru_forward(x, p32, lengths=lengths)
    tape_arrays = (tape32.x, tape32.z, tape32.r, tape32.hcand, tape32.h)
    assert h32.dtype == np.float32
    assert [a.dtype for a in tape_arrays] == [np.dtype(np.float32)] * len(tape_arrays)
    np.testing.assert_allclose(h32, h64, atol=1e-5, rtol=0)
    for arr in (h32, tape32.z, tape32.r, tape32.hcand):
        assert not arr[~live].any()

    grads64, dx64 = gru_backward(p64, tape64, coef)
    grads32, dx32 = gru_backward(p32, tape32, coef)
    assert grads32.keys() == grads64.keys()
    pairs = [(grads32[name], grads64[name], name) for name in grads64]
    pairs.append((dx32, dx64, "dx"))
    for got, want, name in pairs:
        assert got.dtype == np.float32, name
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, atol=1e-3 * scale, rtol=0, err_msg=name)
    assert not dx32[~live].any()


def test_saturated_float32_net_keeps_a_finite_float64_loss():
    """b_out at +-40 with every label on the other side: the target readout
    returns float64, so the loss is finite and matches the float64 net's,
    while the GRU gradients stay float32."""
    rng = np.random.default_rng(27)
    k = 4
    net = init_net(2 * k, 3, 5, k, seed=28)
    net.b_out[:] = np.where(np.arange(k) % 2 == 0, 40.0, -40.0)
    net32 = nncore.from_flat(_as_float32(net.flat()))
    x_idx, s_next, _, w = random_batch(rng, 3, 6, k)
    y_next = (s_next % 2 == 1).astype(float)  # +40 skills wrong, -40 skills right

    loss, grads = net_loss_and_grads(net32, x_idx, s_next, y_next, w)
    ref_loss, _ = net_loss_and_grads(net, x_idx, s_next, y_next, w)
    assert np.isfinite(loss) and loss > 20.0
    assert loss == pytest.approx(ref_loss, rel=1e-6)
    assert {grads[name].dtype for name in ("w", "u", "b")} == {np.dtype(np.float32)}
    h, _ = gru_forward(net32.embedding[x_idx], net32.gru)
    assert nncore._target_probs(net32, h, s_next).dtype == np.float64
