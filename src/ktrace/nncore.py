"""Dense numerical kernels for training the tracer network from scratch.

On plain numpy arrays; the GRU computes in the dtype of its parameters
(float32 in ``dkt.train``'s steps, float64 elsewhere), the loss in float64. The
network is the fixed stack embedding -> single-layer GRU -> affine + sigmoid
readout, trained with a masked binary cross-entropy on next-step targets.
All backward passes are hand-written for this stack and verified against
central finite differences in the test suite; there is no generic autodiff
here on purpose.

The GRU runs as one fused kernel on its packed parameters W (d_in, 3h),
U (h, 3h) and b (3h,), gate order z|r|h, and each step gathers its input
projection from the token table ``embedding @ W + b``. Every row's hidden
state starts at zero: the kernel takes no initial state and returns no
gradient for one. Given row lengths in non-increasing order, the kernel runs
step t on the live prefix of rows only and leaves padded cells at zero. Training and validation (``net_loss``,
``net_loss_and_grads``) sort the rows by the span of their targets, skip the
cells past it, and read out only each step's target skill, so they never
build a (B, T, K) tensor. Batched inference (``net_target_probs``) reads out
the same way; ``net_forward`` and ``readout`` keep the full readout over all
skills for trajectories and heatmaps. Only ``net_loss_and_grads`` asks the
GRU for its backward tape; validation and inference run without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

Array = np.ndarray

PROB_CLAMP = 1e-12  # applied inside the BCE logarithms only


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic function, without masks: exp(min(x, 0))
    over 1 + exp(-|x|). ``exp`` never sees a positive argument, and each
    sign gets exactly the terms of its textbook form."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class GruParams:
    """Single-layer GRU weights, packed along the last axis in gate order
    z|r|h (update, reset, candidate): input-to-hidden ``w`` (d_in, 3h),
    hidden-to-hidden ``u`` (h, 3h) and bias ``b`` (3h,)."""

    w: Array
    u: Array
    b: Array

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d_h(self) -> int:
        return self.u.shape[0]

    def flat(self) -> Dict[str, Array]:
        return {"w": self.w, "u": self.u, "b": self.b}


@dataclass
class DktNet:
    """Full parameter set of the tracer network.

    ``embedding`` has one row per interaction token (2K rows for K skills),
    ``w_out``/``b_out`` map the hidden state to per-skill probabilities.
    """

    embedding: Array  # (n_tokens, d_emb)
    gru: GruParams
    w_out: Array      # (d_h, n_out)
    b_out: Array      # (n_out,)

    @property
    def n_tokens(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_h(self) -> int:
        return self.gru.d_h

    @property
    def n_out(self) -> int:
        return self.w_out.shape[1]

    def flat(self) -> Dict[str, Array]:
        out = {"embedding": self.embedding}
        out.update(self.gru.flat())
        out.update({"w_out": self.w_out, "b_out": self.b_out})
        return out

    def copy(self) -> "DktNet":
        return from_flat({k: v.copy() for k, v in self.flat().items()})


def from_flat(tensors: Dict[str, Array]) -> DktNet:
    """Rebuild a DktNet from a name->array mapping (views, no copies)."""
    return DktNet(
        embedding=tensors["embedding"],
        gru=GruParams(w=tensors["w"], u=tensors["u"], b=tensors["b"]),
        w_out=tensors["w_out"],
        b_out=tensors["b_out"],
    )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> Array:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_net(n_tokens: int, d_emb: int, d_h: int, n_out: int, seed: int = 0) -> DktNet:
    """Seeded uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)) for
    matrices; biases start at zero. Draw order is fixed for reproducibility:
    the embedding, then the z, r and h blocks of the GRU's ``w`` (each
    (d_emb, d_h)), then those of ``u`` (each (d_h, d_h)), then ``w_out``.
    Each gate block is drawn on its own and the blocks are concatenated."""
    rng = np.random.default_rng(seed)
    embedding = _glorot(rng, n_tokens, d_emb, (n_tokens, d_emb))
    w = np.concatenate([_glorot(rng, d_emb, d_h, (d_emb, d_h)) for _ in range(3)], axis=1)
    u = np.concatenate([_glorot(rng, d_h, d_h, (d_h, d_h)) for _ in range(3)], axis=1)
    return DktNet(
        embedding=embedding,
        gru=GruParams(w=w, u=u, b=np.zeros(3 * d_h)),
        w_out=_glorot(rng, d_h, n_out, (d_h, n_out)),
        b_out=np.zeros(n_out),
    )


# ---------------------------------------------------------------------------
# embedding


def embed_lookup(indices: Array, table: Array) -> Array:
    """Row gather: output[..., :] = table[indices[...]].

    Out-of-range indices are a hard error, never clamped.
    """
    idx = np.asarray(indices)
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= table.shape[0]:
            raise IndexError(
                f"embedding index out of range: saw [{lo}, {hi}] for table with "
                f"{table.shape[0]} rows"
            )
    return table[idx]


def embed_lookup_backward(indices: Array, d_out: Array, n_rows: int) -> Array:
    """Gradient of embed_lookup w.r.t. the table: one-hot row accumulation.

    All-zero gradient rows (padded cells) are dropped, the rest are grouped
    by index with a stable sort, and each group is summed in one reduction.
    """
    idx = np.asarray(indices).ravel()
    d_emb = d_out.shape[-1]
    d_flat = d_out.reshape(-1, d_emb)
    cells = np.flatnonzero(d_flat.any(axis=1))
    cells = cells[np.argsort(idx[cells], kind="stable")]
    grad = np.zeros((n_rows, d_emb))
    if cells.size:
        rows, starts = np.unique(idx[cells], return_index=True)
        grad[rows] = np.add.reduceat(d_flat[cells], starts, axis=0)
    return grad


# ---------------------------------------------------------------------------
# GRU


def input_table(embedding: Array, p: GruParams) -> Array:
    """Per-token input projection ``embedding @ W + b``, shape (n_tokens, 3h).

    Row i is what step t computes from x_t when token i is its input, so a
    row gather replaces the input matmul inside the recurrence. A row never
    depends on which batch or sequence length asks for it.
    """
    return embedding @ p.w + p.b


@dataclass
class GruTape:
    """Forward intermediates for one batch, recorded for the backward pass.
    The hidden state before step 0 is zero, so it is not recorded."""

    x: Array       # (B, T, d_in)
    z: Array       # (B, T, d_h)
    r: Array       # (B, T, d_h)
    hcand: Array   # (B, T, d_h)
    h: Array       # (B, T, d_h)
    live: Array    # (T,) rows [:live[t]] are computed at step t


def _live_rows(lengths: Array | None, b: int, t_len: int) -> Array:
    """Rows live at each step: ``live[t]`` counts the rows longer than t.

    ``lengths`` must be non-increasing, so the live rows at step t are the
    prefix ``[:live[t]]``. ``None`` means every row runs all T steps.
    """
    if lengths is None:
        return np.full(t_len, b, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if lengths.shape != (b,):
        raise ValueError(f"lengths has shape {lengths.shape}; expected ({b},)")
    if (np.diff(lengths) > 0).any():
        raise ValueError("lengths must be sorted in non-increasing order")
    if b and (lengths[-1] < 0 or lengths[0] > t_len):
        raise ValueError(f"lengths must lie in [0, {t_len}]")
    return (lengths[None, :] > np.arange(t_len)[:, None]).sum(axis=1)


def gru_forward(
    x: Array,
    p: GruParams,
    tokens: Array | None = None,
    table: Array | None = None,
    lengths: Array | None = None,
    tape: bool = True,
) -> Tuple[Array, GruTape | None]:
    """Run the GRU recurrence over a (B, T, d_in) batch from a zero hidden
    state.

    When ``tokens`` (B, T) and its ``input_table`` are given, ``x`` must be
    ``embedding[tokens]`` and each step gathers its input projection from the
    table instead of multiplying. With ``lengths`` (B,), sorted
    non-increasing, step t runs only the rows still live (``_live_rows``); a
    row's cells past its length are dead and stay exactly zero in h and in
    every gate. Everything runs in the dtype of ``p.u``. Non-finite hidden
    states raise, naming the first offending step. The gates are kept for
    ``gru_backward`` only with ``tape``; without it no gate buffer is
    allocated and the tape comes back as ``None``.
    """
    dtype = p.u.dtype
    x = np.asarray(x, dtype=dtype)
    b, t_len, d_in = x.shape
    d_h = p.d_h
    if d_in != p.d_in:
        raise ValueError(f"input width {d_in} does not match GRU d_in {p.d_in}")
    live = _live_rows(lengths, b, t_len)

    u_zr, u_c = p.u[:, : 2 * d_h], p.u[:, 2 * d_h :]
    gates = np.zeros((b, t_len, 3 * d_h), dtype=dtype) if tape else None  # z | r | candidate
    h = np.zeros((b, t_len, d_h), dtype=dtype)
    h_prev = np.zeros((b, d_h), dtype=dtype)
    for t in range(t_len):
        n = live[t]
        if n == 0:
            break
        h_prev = h_prev[:n]
        a = table[tokens[:n, t]] if tokens is not None else x[:n, t] @ p.w + p.b
        zr = sigmoid(a[:, : 2 * d_h] + h_prev @ u_zr)
        zt, rt = zr[:, :d_h], zr[:, d_h:]
        ct = np.tanh(a[:, 2 * d_h :] + (rt * h_prev) @ u_c)
        h_prev = h_prev + zt * (ct - h_prev)
        if tape:
            gates[:n, t, : 2 * d_h] = zr
            gates[:n, t, 2 * d_h :] = ct
        h[:n, t] = h_prev

    finite = np.isfinite(h).all(axis=(0, 2))
    if not finite.all():
        raise FloatingPointError(
            f"non-finite GRU hidden state at step {int(np.argmin(finite))}"
        )
    if not tape:
        return h, None
    return h, GruTape(
        x=x, z=gates[..., :d_h], r=gates[..., d_h : 2 * d_h],
        hcand=gates[..., 2 * d_h :], h=h, live=live,
    )


def gru_backward(p: GruParams, tape: GruTape, dh: Array) -> Tuple[Dict[str, Array], Array]:
    """Backpropagate through time.

    ``dh`` holds dL/dh_t for every step (same shape as the forward hidden
    states); its entries at dead cells are ignored, and dL/dx there is
    zero. Returns (parameter grads keyed like GruParams.flat(), dL/dx); the
    zero initial state takes no gradient. Gradients come back in the packed
    z|r|h layout of the parameters: three weight-gradient matmuls per step,
    over the step's live rows only. The two blocks of dU accumulate in
    contiguous buffers joined once at the end: an add into a column slice of
    one (h, 3h) array is strided and about three times slower. Everything
    runs in the dtype of ``p.u``.
    """
    dtype = p.u.dtype
    dh = np.asarray(dh, dtype=dtype)
    b, t_len, d_h = tape.h.shape
    h2 = 2 * d_h

    u_zr, u_c = p.u[:, :h2], p.u[:, h2:]
    d_w = np.zeros_like(p.w)
    d_uzr = np.zeros((d_h, h2), dtype=dtype)
    d_uc = np.zeros((d_h, d_h), dtype=dtype)
    d_b = np.zeros(3 * d_h, dtype=dtype)
    dx = np.zeros_like(tape.x)
    da_buf = np.empty((b, 3 * d_h), dtype=dtype)  # pre-activation grads, gate order z | r | h
    carry = np.zeros((b, d_h), dtype=dtype)  # rows past a step's live prefix stay zero

    for t in range(t_len - 1, -1, -1):
        n = tape.live[t]
        if n == 0:
            continue
        h_prev = tape.h[:n, t - 1] if t > 0 else np.zeros((n, d_h), dtype=dtype)
        zt, rt, ct = tape.z[:n, t], tape.r[:n, t], tape.hcand[:n, t]
        da = da_buf[:n]

        dht = dh[:n, t] + carry[:n]
        dct = dht * zt
        np.multiply(dct, 1.0 - ct * ct, out=da[:, h2:])
        drh = da[:, h2:] @ u_c.T
        rh = rt * h_prev
        np.multiply(dct * (ct - h_prev), 1.0 - zt, out=da[:, :d_h])
        np.multiply(drh * rh, 1.0 - rt, out=da[:, d_h:h2])

        d_w += tape.x[:n, t].T @ da
        d_uzr += h_prev.T @ da[:, :h2]
        d_uc += rh.T @ da[:, h2:]
        d_b += da.sum(axis=0)
        dx[:n, t] = da @ p.w.T
        carry[:n] = (dht - dct) + drh * rt + da[:, :h2] @ u_zr.T

    return {"w": d_w, "u": np.concatenate([d_uzr, d_uc], axis=1), "b": d_b}, dx


# ---------------------------------------------------------------------------
# readout and loss


def readout(h: Array, w_out: Array, b_out: Array) -> Array:
    """Affine map plus elementwise sigmoid; outputs lie in (0, 1)."""
    p = sigmoid(np.asarray(h, dtype=np.float64) @ w_out + b_out)
    if not np.isfinite(p).all():
        raise FloatingPointError("non-finite readout output")
    return p


def masked_bce(p_sel: Array, y: Array, w: Array) -> float:
    """Mean binary cross-entropy over positions where w == 1.

    Positions with w == 0 contribute exactly zero no matter what p or y hold
    there. Probabilities are clamped to [1e-12, 1 - 1e-12] inside the logs
    only.
    """
    p_sel = np.asarray(p_sel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("masked_bce: no valid targets (mask sums to zero)")
    cp = np.clip(p_sel, PROB_CLAMP, 1.0 - PROB_CLAMP)
    with np.errstate(invalid="ignore"):
        term = y * np.log(cp) + (1.0 - y) * np.log1p(-cp)
    term = np.where(w > 0, term, 0.0)
    return float(-term.sum() / total)


def masked_bce_backward(p_sel: Array, y: Array, w: Array) -> Array:
    """dL/dp for masked_bce; exactly zero at masked positions."""
    p_sel = np.asarray(p_sel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("masked_bce: no valid targets (mask sums to zero)")
    cp = np.clip(p_sel, PROB_CLAMP, 1.0 - PROB_CLAMP)
    with np.errstate(invalid="ignore"):
        grad = (cp - y) / (cp * (1.0 - cp)) / total
    return np.where(w > 0, grad, 0.0)


# ---------------------------------------------------------------------------
# full-stack forward / backward


def _hidden(
    net: DktNet, x_idx: Array, lengths: Array | None = None, tape: bool = False
) -> Tuple[Array, GruTape | None]:
    """Embedding gather plus GRU, with input projections from the token table.
    ``lengths`` (non-increasing) skips each row's cells past its length; the
    GRU tape comes back only with ``tape``."""
    x_idx = np.asarray(x_idx)
    x_emb = embed_lookup(x_idx, net.embedding)
    table = input_table(net.embedding, net.gru)
    return gru_forward(x_emb, net.gru, tokens=x_idx, table=table, lengths=lengths, tape=tape)


def net_forward(net: DktNet, x_idx: Array) -> Array:
    """Token indices (B, T) -> per-skill probabilities (B, T, n_out)."""
    h, _ = _hidden(net, x_idx)
    return readout(h, net.w_out, net.b_out)


def _target_probs(net: DktNet, h: Array, s_next: Array) -> Array:
    """Readout at each cell's target skill only: sigmoid(h . w_out[:, s] + b_out[s]).
    Equals ``readout(h, ...)`` gathered at ``s_next``, without the (B, T, K) tensor.
    The logits go to float64 first: ``1 - PROB_CLAMP`` is 1.0 in float32."""
    logits = np.einsum("...d,...d->...", h, net.w_out.T[s_next])
    return sigmoid(logits.astype(np.float64, copy=False) + net.b_out[s_next])


def net_target_probs(
    net: DktNet, x_idx: Array, lengths: Array | None, *targets: Array
) -> Tuple[Array, ...]:
    """Inference readout at chosen skills only: one (B, T) probability array
    per (B, T) skill map in ``targets``, from a single GRU pass. ``lengths``
    is as in ``gru_forward``; cells past a row's length are not computed."""
    h, _ = _hidden(net, x_idx, lengths)
    return tuple(_target_probs(net, h, np.asarray(s)) for s in targets)


def _by_target_span(
    x_idx: Array, s_next: Array, y_next: Array, w: Array
) -> Tuple[Array, Array, Array, Array, Array]:
    """Rows stably sorted by live span, longest first, plus the spans.

    A row's span is 1 + its last index with w > 0 (0 when it has none).
    Cells past the span carry no target and receive exactly zero gradient,
    so the GRU may skip them; sorting makes the live rows of every step a
    prefix, as ``gru_forward`` requires. Any mask works, holes included.
    """
    w = np.asarray(w, dtype=np.float64)
    has_target = w > 0
    span = np.where(
        has_target.any(axis=1), w.shape[1] - np.argmax(has_target[:, ::-1], axis=1), 0
    )
    order = np.argsort(-span, kind="stable")
    return (
        np.asarray(x_idx)[order], np.asarray(s_next)[order],
        np.asarray(y_next, dtype=np.float64)[order], w[order], span[order],
    )


def net_loss(net: DktNet, x_idx: Array, s_next: Array, y_next: Array, w: Array) -> float:
    x_idx, s_next, y_next, w, span = _by_target_span(x_idx, s_next, y_next, w)
    h, _ = _hidden(net, x_idx, span)
    return masked_bce(_target_probs(net, h, s_next), y_next, w)


def net_loss_and_grads(
    net: DktNet, x_idx: Array, s_next: Array, y_next: Array, w: Array
) -> Tuple[float, Dict[str, Array]]:
    """Loss plus analytic gradients for every parameter tensor.

    The BCE/sigmoid pair is fused in the backward pass (d logit = w*(p-y)/N),
    which is both exact and stable at saturated probabilities. Only the
    target skill's logit is read out, so the readout gradient is a
    scatter-add into the target columns of ``w_out``/``b_out``. The GRU
    runs each row only up to its last target (``_by_target_span``).
    """
    x_idx, s_next, y_arr, w_arr, span = _by_target_span(x_idx, s_next, y_next, w)
    h, gru_tape = _hidden(net, x_idx, span, tape=True)

    sel = _target_probs(net, h, s_next)
    loss = masked_bce(sel, y_arr, w_arr)
    d_logit = np.where(w_arr > 0, (sel - y_arr) / w_arr.sum(), 0.0)

    grads: Dict[str, Array] = {
        "w_out": _scatter_by_column(h, d_logit, s_next, net.n_out),
        "b_out": np.bincount(s_next.ravel(), weights=d_logit.ravel(), minlength=net.n_out),
    }
    dh = net.w_out.T[s_next]
    dh *= d_logit[..., None]
    gru_grads, dx_emb = gru_backward(net.gru, gru_tape, dh)
    grads.update(gru_grads)
    grads["embedding"] = embed_lookup_backward(x_idx, dx_emb, net.n_tokens)
    return loss, grads


def _scatter_by_column(h: Array, d_logit: Array, s_next: Array, n_out: int) -> Array:
    """dL/dw_out: column s sums d_logit * h over the cells whose target is s.

    Cells with a zero gradient are dropped, the rest are grouped by target
    skill, and each group reduces with one matrix-vector product.
    """
    d_h = h.shape[-1]
    h_flat = h.reshape(-1, d_h)
    d_flat = d_logit.ravel()
    s_flat = s_next.ravel()
    cells = np.flatnonzero(d_flat)
    cells = cells[np.argsort(s_flat[cells], kind="stable")]
    skills, starts = np.unique(s_flat[cells], return_index=True)
    grad = np.zeros((d_h, n_out))
    for skill, rows in zip(skills, np.split(cells, starts[1:])):
        grad[:, skill] = d_flat[rows] @ h_flat[rows]
    return grad


# ---------------------------------------------------------------------------
# gradient clipping and Adam


def clip_global_norm(grads: Dict[str, Array], max_norm: float = 5.0) -> Dict[str, Array]:
    """Scale all tensors by max_norm/g when the global L2 norm g exceeds
    max_norm; otherwise return them unchanged."""
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


ADAM_BETA1 = 0.9  # decay of the first-moment average
ADAM_BETA2 = 0.999  # decay of the second-moment average
ADAM_EPS = 1e-8  # added to the root of the second moment


@dataclass
class AdamState:
    """First/second moment accumulators, the step counter and the learning
    rate; the decays and epsilon are the ``ADAM_*`` constants."""

    m: Dict[str, Array]
    v: Dict[str, Array]
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params: Dict[str, Array], lr: float = 1e-3) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
            lr=lr,
        )


def adam_update(
    params: Dict[str, Array], grads: Dict[str, Array], state: AdamState
) -> Tuple[Dict[str, Array], AdamState]:
    """One bias-corrected Adam step. Returns fresh parameter arrays; the
    state object is updated in place and returned for convenience."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    out: Dict[str, Array] = {}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out, state


# ---------------------------------------------------------------------------
# finite-difference verification harness


def fd_max_rel_error(
    loss_fn: Callable[[], float],
    tensors: Dict[str, Array],
    analytic: Dict[str, Array],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn`` must read the (mutated in place) ``tensors``. Relative error
    is |a - n| / max(|a|, |n|, 1e-8) per entry.
    """
    worst = 0.0
    for name, arr in tensors.items():
        ana = analytic[name]
        flat = arr.reshape(-1)
        ana_flat = ana.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_fn()
            flat[j] = orig - eps
            lm = loss_fn()
            flat[j] = orig
            num = (lp - lm) / (2.0 * eps)
            rel = abs(ana_flat[j] - num) / max(abs(ana_flat[j]), abs(num), 1e-8)
            if rel > worst:
                worst = rel
    return worst


def grad_check(
    net: DktNet,
    x_idx: Array,
    s_next: Array,
    y_next: Array,
    w: Array,
    eps: float = 1e-5,
) -> float:
    """Verify ``net_loss_and_grads`` against central differences of
    ``net_loss``: the largest relative error over every parameter entry
    (``fd_max_rel_error``).

    Intended for tiny dimensions only (every parameter entry costs two
    forward passes).
    """
    analytic = net_loss_and_grads(net, x_idx, s_next, y_next, w)[1]
    return fd_max_rel_error(
        lambda: net_loss(net, x_idx, s_next, y_next, w),
        net.flat(),
        analytic,
        eps=eps,
    )
