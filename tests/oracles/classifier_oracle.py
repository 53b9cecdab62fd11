"""Scalar re-derivations of the decision-head forward passes.

Everything here is written with explicit python loops over raw parameter
arrays, deliberately sharing no code with the package. The tests pin the
vectorized tape implementations against these.
"""

from __future__ import annotations

import math

import numpy as np

PAD_ID = 0


def embed_position(arrays: dict, token: int, role: int, turn: int, subturn: int) -> list[float]:
    vec: list[float] = []
    for table, idx in (("emb.token", token), ("emb.role", role),
                       ("emb.turn", turn), ("emb.subturn", subturn)):
        vec.extend(float(x) for x in arrays[table][idx])
    return vec


def _normalized_records(records, min_len: int):
    toks, roles, turns, subs = [list(map(int, a)) for a in records]
    last_real = -1
    for i, t in enumerate(toks):
        if t != PAD_ID:
            last_real = i
    if last_real < 0:
        raise ValueError("all-padding input")
    n = last_real + 1
    toks, roles, turns, subs = toks[:n], roles[:n], turns[:n], subs[:n]
    while len(toks) < min_len:
        toks.append(PAD_ID)
        roles.append(0)
        turns.append(0)
        subs.append(0)
    return toks, roles, turns, subs


def scalar_textcnn(arrays: dict, records, widths, filters_per_width: int) -> np.ndarray:
    """Sliding-window convolution + ReLU + max-over-time, one scalar at a time."""
    widths = sorted(widths)
    toks, roles, turns, subs = _normalized_records(records, max(widths))
    emb = [embed_position(arrays, *pos) for pos in zip(toks, roles, turns, subs)]
    feats: list[float] = []
    for k in widths:
        W = arrays[f"cnn.W_{k}"]
        b = arrays[f"cnn.b_{k}"]
        for j in range(filters_per_width):
            best = None
            for start in range(len(emb) - k + 1):
                window = []
                for off in range(k):
                    window.extend(emb[start + off])
                act = sum(window[i] * float(W[i, j]) for i in range(len(window))) + float(b[j])
                act = max(act, 0.0)
                if best is None or act > best:
                    best = act
            feats.append(best)
    return np.array(feats)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _gru_cell(arrays: dict, prefix: str, x: list[float], h: list[float]) -> list[float]:
    hidden = len(h)
    W, U, b = arrays[f"{prefix}.W"], arrays[f"{prefix}.U"], arrays[f"{prefix}.b"]

    def lin(weight, vec, gate, j):
        # gates r, z, n own column blocks 0, 1, 2 of the fused arrays
        return sum(float(weight[i, gate * hidden + j]) * vec[i] for i in range(len(vec)))

    out = []
    for j in range(hidden):
        r = _sigmoid(lin(W, x, 0, j) + lin(U, h, 0, j) + float(b[j]))
        out.append(r)
    r_gate = out
    z_gate = [_sigmoid(lin(W, x, 1, j) + lin(U, h, 1, j) + float(b[hidden + j]))
              for j in range(hidden)]
    rh = [r_gate[j] * h[j] for j in range(hidden)]
    n_gate = [math.tanh(lin(W, x, 2, j) + lin(U, rh, 2, j) + float(b[2 * hidden + j]))
              for j in range(hidden)]
    return [z_gate[j] * h[j] + (1.0 - z_gate[j]) * n_gate[j] for j in range(hidden)]


def scalar_bigru(arrays: dict, records, hidden: int) -> np.ndarray:
    """Final forward state then final backward state, concatenated."""
    toks, roles, turns, subs = [list(map(int, a)) for a in records]
    emb = [embed_position(arrays, *pos) for pos in zip(toks, roles, turns, subs)]
    h_f = [0.0] * hidden
    for x in emb:
        h_f = _gru_cell(arrays, "gru_f", x, h_f)
    h_b = [0.0] * hidden
    for x in reversed(emb):
        h_b = _gru_cell(arrays, "gru_b", x, h_b)
    return np.array(h_f + h_b)


def _affine(arrays: dict, w_name: str, b_name: str, vec: list[float]) -> list[float]:
    W = arrays[w_name]
    b = arrays[b_name]
    return [sum(vec[i] * float(W[i, j]) for i in range(len(vec))) + float(b[j])
            for j in range(W.shape[1])]


def scalar_fuse(arrays: dict, c_his, c_agent, c_user) -> np.ndarray:
    """The affine path-fusion stack followed by a two-way softmax."""
    d_agent = _affine(arrays, "fuse.W_1", "fuse.b_1", list(c_his) + list(c_agent))
    d_user = _affine(arrays, "fuse.W_2", "fuse.b_2", list(c_his) + list(c_user))
    d = _affine(arrays, "fuse.W_3", "fuse.b_3", d_agent + d_user)
    logits = _affine(arrays, "fuse.W_4", "fuse.b_4", d)
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = sum(exps)
    return np.array([e / total for e in exps])
