"""Dense float64 tensors with a recorded reverse-mode tape and an Adam optimizer.

The tape is implicit: every op links its output tensor to its inputs and keeps a
closure that routes gradients backwards. ``backward`` walks the recorded
subgraph in reverse creation order, which is a valid reverse topological order
because inputs always exist before their consumers. Inside ``no_grad()`` ops
record nothing, so a forward pass that needs no gradients (decoding,
inference) frees its intermediates as it goes.

Shape discipline is strict on purpose: binary elementwise ops accept two
equal-shape tensors or a tensor and a scalar, never anything broadcast. The
handful of batched patterns the models need (products with a folded-in bias
row, block slices, embedding gather, sliding windows, attention of a whole
[B, Q, H] query axis over [B, T, H] states as batched products, cross-entropy
straight from logits, and whole LSTM and GRU recurrences) are dedicated ops
with hand-written backward rules, so every gradient path stays checkable
against central finite differences.

A recurrence op runs its time loop in plain numpy and is one tape node: its
backward is one loop back through time that fills the gradients of every gate
pre-activation, after which the recurrent-weight gradient is a single matrix
product over all positions (Appleyard et al., arXiv 1604.01946). Its batch is
packed as by PyTorch's pack_padded_sequence, sorted longest first, so each
step computes only the sequences still running; `place_rows` puts the packed
states back into a padded layout.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "TrainingError",
    "ParamSet",
    "Adam",
    "backward",
    "no_grad",
    "constant",
    "matmul",
    "add",
    "mul",
    "tanh",
    "sigmoid",
    "relu",
    "softmax",
    "log_softmax",
    "log_softmax_nll",
    "max_over_time",
    "part",
    "sum_all",
    "scale",
    "concat_cols",
    "reshape",
    "rows",
    "place_rows",
    "unfold_rows",
    "dot_scores",
    "weighted_sum",
    "lstm",
    "gru",
    "finite_difference_check",
]


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


class TrainingError(RuntimeError):
    """A training step produced non-finite values."""


_SEQ = itertools.count()
_recording = True


@contextmanager
def no_grad():
    """Within the block, op results record no parents and no backward rule."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class Tensor:
    """A dense float64 array plus its place in the recorded graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_bwd", "_seq")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        if _recording:
            self._parents = _parents
            self._bwd = _bwd
        else:
            self._parents = ()
            self._bwd = None
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


def constant(data, name: str | None = None) -> Tensor:
    """Wrap raw values as a non-trainable tensor."""
    return Tensor(data, requires_grad=False, name=name)


def _acc(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t.grad.

    The first gradient is stored as a copy, because add hands one g to both
    parents and a later += into one of them must not reach the other. A
    caller that allocated g itself and keeps no other reference to it passes
    fresh=True, and g is stored as it is.
    """
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Accumulate gradients of ``loss`` into every recorded ancestor.

    The loss must be scalar. Nodes are visited in decreasing creation order,
    which is reverse topological for any recorded graph, so the walk is
    deterministic: identical graphs give bit-identical gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq, reverse=True)
    loss.grad = np.ones_like(loss.data)
    for t in nodes:
        if t._bwd is not None:
            t._bwd(t.grad if t.grad is not None else np.zeros_like(t.data))


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """(m, k) x (k, n); a given length-n bias is added to every row of the product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0] or \
            (bias is not None and bias.shape != b.shape[1:]):
        raise ShapeError(f"matmul needs (m,k) x (k,n) and an (n,) bias, got {a.shape}, "
                         f"{b.shape} and {getattr(bias, 'shape', None)}")
    out = a.data @ b.data
    if bias is not None:
        out += bias.data

    def bwd(g):
        _acc(a, g @ b.data.T, fresh=True)
        _acc(b, a.data.T @ g, fresh=True)
        if bias is not None:
            _acc(bias, g.sum(axis=0), fresh=True)

    return Tensor(out, _parents=(a, b) if bias is None else (a, b, bias), _bwd=bwd)


def _binary_operands(a, b, opname: str):
    """Resolve the strict elementwise contract: equal shapes, or one scalar."""
    if not isinstance(a, Tensor):
        a = constant(a)
    if not isinstance(b, Tensor):
        b = constant(b)
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"{opname} needs equal shapes or a scalar, got {a.shape} and {b.shape}")
    return a, b


def _grad_for(operand: Tensor, g: np.ndarray) -> np.ndarray:
    # a scalar operand absorbs the summed gradient of the broadcast result
    if operand.data.size == 1 and g.shape != operand.data.shape:
        return np.full_like(operand.data, g.sum())
    return g


def add(a, b) -> Tensor:
    a, b = _binary_operands(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        _acc(a, _grad_for(a, g))
        _acc(b, _grad_for(b, g))

    return Tensor(out, _parents=(a, b), _bwd=bwd)


def mul(a, b) -> Tensor:
    a, b = _binary_operands(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        _acc(a, _grad_for(a, g * b.data), fresh=True)
        _acc(b, _grad_for(b, g * a.data), fresh=True)

    return Tensor(out, _parents=(a, b), _bwd=bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        _acc(a, g * (1.0 - out * out), fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), with exp taken once and only of -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bwd(g):
        _acc(a, g * out * (1.0 - out), fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        _acc(a, g * (a.data > 0), fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max subtraction.

    Outputs are strictly positive and every row sums to 1 up to float64
    rounding, for any finite input.
    """
    x = a.data
    if x.size == 0:
        raise ShapeError("softmax needs at least one element")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _acc(a, (g - dot) * out)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax of a plain array along its last axis, by log-sum-exp: finite for any
    finite input. `log_softmax_nll` and decoding both read log-probabilities here."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_nll(logits: Tensor, targets, mask=None) -> Tensor:
    """Summed cross-entropy of (n, vocab) logits against n target ids, by log-sum-exp.

    Rows with mask 0 contribute exactly 0 to the loss and to the gradient
    (padding convention); row i's gradient is mask_i * (softmax_i - onehot_i).
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"log_softmax_nll needs (n, vocab) logits, got {logits.shape}")
    n, vocab = logits.shape
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != (n,):
        raise ShapeError(f"log_softmax_nll targets must have shape ({n},), got {t.shape}")
    if n and (t.min() < 0 or t.max() >= vocab):
        raise IndexError(f"target id out of vocabulary range [0, {vocab})")
    m = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != (n,):
        raise ShapeError(f"log_softmax_nll mask must have shape ({n},), got {m.shape}")
    logp = log_softmax(logits.data)
    picked = np.arange(n), t
    out = -(m * logp[picked]).sum()

    def bwd(g):
        gl = np.exp(logp)
        gl[picked] -= 1.0
        gl *= (float(g) * m)[:, None]
        _acc(logits, gl, fresh=True)

    return Tensor(out, _parents=(logits,), _bwd=bwd)


def max_over_time(a: Tensor, segments) -> Tensor:
    """Per-column maximum of each row segment of a (positions, filters) map: (n, filters).

    segments is an (n, 2) list of sorted, disjoint, non-empty [start, stop) row
    ranges; rows between them take no part. Within a segment ties go to the
    lowest row and a NaN wins, as under `np.argmax`."""
    seg = np.asarray(segments, dtype=np.intp).reshape(-1, 2)
    starts, stops = seg[:, 0], seg[:, 1]
    if a.data.ndim != 2 or not len(seg) or starts[0] < 0 or stops[-1] > a.shape[0] or \
            (stops <= starts).any() or (starts[1:] < stops[:-1]).any():
        raise ShapeError(f"max_over_time needs a (positions, filters) map and sorted disjoint "
                         f"non-empty row segments inside it, got {a.shape} and {seg.tolist()}")
    lengths = stops - starts
    offsets = np.cumsum(lengths) - lengths  # each segment's first row among the kept rows
    kept = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
    v = a.data[kept]
    best = np.maximum.reduceat(v, offsets, axis=0)  # NaN where a segment holds one
    hit = (v == np.repeat(best, lengths, axis=0)) | np.isnan(v)
    first = np.minimum.reduceat(np.where(hit, np.arange(len(v))[:, None], len(v)), offsets, axis=0)
    arg = kept[first]
    cols = np.arange(a.shape[1])
    out = a.data[arg, cols]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[arg, cols] = g  # segments are disjoint, so no (row, col) pair repeats
        _acc(a, ga, fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


# ---------------------------------------------------------------------------
# structured ops used by the models


def part(a: Tensor, rows: slice = slice(None), cols: slice = slice(None)) -> Tensor:
    """The block a[rows, cols] of a matrix; the backward adds into that block only.

    Both indices are basic slices, so the forward result is a view and no
    two output entries share an input entry.
    """
    if a.data.ndim != 2 or not isinstance(rows, slice) or not isinstance(cols, slice):
        raise ShapeError(f"part needs a matrix and two slices, got {a.shape}, {rows!r}, {cols!r}")
    key = (rows, cols)
    out = a.data[key]
    if out.size == 0:
        raise ShapeError(f"part {rows!r}, {cols!r} of {a.shape} is empty")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return Tensor(out, _parents=(a,), _bwd=bwd)


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def bwd(g):
        _acc(a, np.full_like(a.data, float(g)))

    return Tensor(out, _parents=(a,), _bwd=bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a plain python constant."""
    c = float(factor)

    def bwd(g):
        _acc(a, g * c)

    return Tensor(a.data * c, _parents=(a,), _bwd=bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices with equal row counts along columns."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    n = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != n:
            raise ShapeError(f"concat_cols row mismatch: {[p.shape for p in parts]}")
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bwd(g):
        for p, j0, j1 in zip(parts, offsets[:-1], offsets[1:]):
            _acc(p, g[:, j0:j1])

    return Tensor(out, _parents=tuple(parts), _bwd=bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        _acc(a, g.reshape(a.data.shape))

    return Tensor(out, _parents=(a,), _bwd=bwd)


def rows(table: Tensor, indices) -> Tensor:
    """Gather rows of an embedding table; the backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"rows needs a (v,d) table and 1-d indices, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"row index out of range [0, {table.shape[0]})")
    out = table.data[idx]

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return Tensor(out, _parents=(table,), _bwd=bwd)


def place_rows(a: Tensor, index, n: int) -> Tensor:
    """The rows of a matrix put at the distinct rows `index` of an (n, d) matrix of zeros.

    This unpacks a packed recurrence into a padded layout. No two rows share a
    place, so the backward reads each row's gradient back with one gather."""
    idx = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeError(f"place_rows needs a matrix and one index per row, got {a.shape} "
                         f"and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row place out of range [0, {n})")
    taken = np.zeros(n, dtype=bool)
    taken[idx] = True
    if np.count_nonzero(taken) != idx.size:
        raise ShapeError("place_rows needs distinct places")
    out = np.zeros((n, a.shape[1]))
    out[idx] = a.data

    def bwd(g):
        _acc(a, g[idx], fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def unfold_rows(a: Tensor, width: int) -> Tensor:
    """Sliding windows of ``width`` consecutive rows, flattened per window.

    (l, d) becomes (l - width + 1, width * d); used as the im2col step for
    text convolutions.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"unfold_rows needs a matrix, got {a.shape}")
    l, d = a.shape
    if width < 1 or l < width:
        raise ShapeError(f"unfold_rows width {width} does not fit {l} rows")
    n_win = l - width + 1
    win = np.lib.stride_tricks.sliding_window_view(a.data, (width, d))[:, 0]
    out = win.reshape(n_win, width * d).copy()

    def bwd(g):
        ga = np.zeros_like(a.data)
        g = g.reshape(n_win, width, d)
        # offsets last to first, so each row sums its windows in window order
        for j in reversed(range(width)):
            ga[j:j + n_win] += g[:, j]
        _acc(a, ga, fresh=True)

    return Tensor(out, _parents=(a,), _bwd=bwd)


def dot_scores(query: Tensor, states: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Scores (b, q, t) of queries (b, q, h) against states (b, t, h), plus a constant (b, t)
    bias, such as an attention mask, on every query's row; the bias takes no gradient."""
    if query.data.ndim != 3 or states.data.ndim != 3 or \
            states.shape[0] != query.shape[0] or states.shape[2] != query.shape[2]:
        raise ShapeError(f"dot_scores needs (b,q,h) and (b,t,h), got {query.shape} and {states.shape}")
    if bias is not None and bias.shape != states.shape[:2]:
        raise ShapeError(f"dot_scores bias must have shape {states.shape[:2]}, got {bias.shape}")
    out = query.data @ states.data.transpose(0, 2, 1)
    if bias is not None:
        out += bias[:, None, :]

    def bwd(g):
        _acc(query, g @ states.data, fresh=True)
        _acc(states, g.transpose(0, 2, 1) @ query.data, fresh=True)

    return Tensor(out, _parents=(query, states), _bwd=bwd)


def weighted_sum(weights: Tensor, states: Tensor) -> Tensor:
    """Combinations of states: (b, q, t) weights over (b, t, h) gives (b, q, h)."""
    if weights.data.ndim != 3 or states.data.ndim != 3 or \
            states.shape[0] != weights.shape[0] or states.shape[1] != weights.shape[2]:
        raise ShapeError(f"weighted_sum needs (b,q,t) and (b,t,h), got {weights.shape} and {states.shape}")
    out = weights.data @ states.data

    def bwd(g):
        _acc(weights, g @ states.data.transpose(0, 2, 1), fresh=True)
        _acc(states, weights.data.transpose(0, 2, 1) @ g, fresh=True)

    return Tensor(out, _parents=(weights, states), _bwd=bwd)


def _recurrence_shape(xw: Tensor, u: Tensor, states: Sequence[Tensor], sizes: Sequence[int],
                      gates: int, opname: str) -> tuple[int, int, list[int]]:
    """(B, H, sizes as Python ints) of a packed recurrence whose input has `gates` column blocks."""
    sizes = list(map(int, sizes))
    first = states[0]
    ok = first.data.ndim == 2 and all(s.shape == first.shape for s in states) and len(sizes) > 0
    if ok:
        B, H = first.shape
        ok = (B > 0 and H > 0 and sizes[0] == B and sizes[-1] > 0
              and sizes == sorted(sizes, reverse=True)
              and u.shape == (H, gates * H) and xw.shape == (sum(sizes), gates * H))
    if not ok:
        raise ShapeError(f"{opname} needs xw (sum(sizes), {gates}H), u (H, {gates}H), (B, H) "
                         f"states and non-increasing positive sizes starting at B, got "
                         f"{xw.shape}, {u.shape}, {[s.shape for s in states]} and {sizes}")
    return B, H, sizes


def _with_carry(g: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """A step's output gradient (n, H) plus what the next step hands back to its first rows."""
    if carry is None:
        return g
    if len(carry) == len(g):
        return g + carry
    out = g.copy()  # the sequences that end at this step receive nothing
    out[:len(carry)] += carry
    return out


def _kept(sizes: list[int], widths: Sequence[int]):
    """Packed (N, width) arrays that a recurrence fills with its step activations
    for backward while the tape records, and a function giving each step's rows
    of them (None when nothing is kept, so the activations are fresh arrays)."""
    if not _recording:
        return None, lambda o, n: (None,) * len(widths)
    bufs = tuple(np.empty((sum(sizes), w)) for w in widths)
    return bufs, lambda o, n: tuple(b[o:o + n] for b in bufs)


def _previous_rows(states: np.ndarray, first: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The state before every packed position: `first` at step 0, then each
    position's row in the step before, which is the row sizes[t - 1] back."""
    B, N = sizes[0], len(states)
    if sizes[-1] == B:  # nothing is skipped: the rows B back, in order
        return np.concatenate([first, states[:N - B]])
    return np.concatenate([first, states[np.arange(B, N) - np.repeat(sizes[:-1], sizes[1:])]])


def lstm(xw: Tensor, u: Tensor, h0: Tensor, c0: Tensor, sizes: Sequence[int]) -> Tensor:
    """An LSTM over a packed batch of sequences, as one tape node.

    The layout is PyTorch's pack_padded_sequence: the B sequences sorted by
    length, longest first, and step t holding the sizes[t] sequences longer
    than t, so sizes is non-increasing and sizes[0] == B. xw (N, 4H), N =
    sum(sizes), is the projected input x·W + b of the live positions only,
    time-major: step t's rows follow step t - 1's, its row j being sequence
    j, with gate columns f, i, o, g. u (H, 4H) is the recurrent weight and
    h0, c0 (B, H) the initial states. Step t runs its recurrent product and
    gate math on its sizes[t] rows, and so does the backward. The result
    (2N, H) is packed as xw is: row j holds h at position j and row N + j
    the matching c. When every size is B (one decode step, a batch of one,
    the teacher-forced decoder) nothing is skipped and row t*B + b is step t
    of sequence b. The gate activations of every step are kept for backward
    only while the tape records.
    """
    B, H, sizes = _recurrence_shape(xw, u, (h0, c0), sizes, 4, "lstm")
    N = xw.shape[0]
    U, pre = u.data, xw.data
    out = np.empty((2, N, H))
    # sigmoid(f, i, o), tanh(g) and tanh(c) of every position, for backward: one array
    # each, as rows of a different size every step would fragment the heap
    _, rows_at = _kept(sizes, (3 * H, H, H))
    h, c = h0.data, c0.data
    live, o = B, 0
    for n in sizes:
        if n < live:  # the sequences past the first n have ended
            h, c, live = h[:n], c[:n], n
        sig_out, g_out, tc_out = rows_at(o, n)
        a = pre[o:o + n] + h @ U
        sig = _sigmoid(a[:, :3 * H], out=sig_out)
        g = np.tanh(a[:, 3 * H:], out=g_out)
        c = sig[:, :H] * c + sig[:, H:2 * H] * g
        tc = np.tanh(c, out=tc_out)
        h = sig[:, 2 * H:] * tc
        out[0, o:o + n] = h
        out[1, o:o + n] = c
        o += n

    def bwd(grad):
        G = grad.reshape(2, N, H)
        D = np.empty((N, 4 * H))  # gradients of the gate pre-activations
        UT = U.T
        dh_next = dc_next = None  # what step t receives from step t + 1
        o = N
        for t in reversed(range(len(sizes))):
            n = sizes[t]
            o -= n
            sig, g, tc = rows_at(o, n)
            c_prev = c0.data if t == 0 else out[1, o - sizes[t - 1]:o - sizes[t - 1] + n]
            dh = _with_carry(G[0, o:o + n], dh_next)
            dc = _with_carry(G[1, o:o + n], dc_next)
            dc = dc + dh * sig[:, 2 * H:] * (1.0 - tc * tc)
            d = D[o:o + n]
            d[:, :H] = dc * c_prev
            d[:, H:2 * H] = dc * g
            d[:, 2 * H:3 * H] = dh * tc
            d[:, :3 * H] *= sig
            d[:, :3 * H] *= 1.0 - sig
            d[:, 3 * H:] = dc * sig[:, H:2 * H] * (1.0 - g * g)
            dh_next = d @ UT
            dc_next = dc * sig[:, :H]
        _acc(u, _previous_rows(out[0], h0.data, sizes).T @ D, fresh=True)
        _acc(h0, dh_next, fresh=True)
        _acc(c0, dc_next, fresh=True)
        _acc(xw, D, fresh=True)

    return Tensor(out.reshape(2 * N, H), _parents=(xw, u, h0, c0), _bwd=bwd)


def gru(xw: Tensor, u: Tensor, h0: Tensor, sizes: Sequence[int]) -> Tensor:
    """A GRU over a packed batch of sequences, as one tape node.

    xw (N, 3H) is the projected input of the live positions, packed as in
    `lstm`, with gate columns r, z, n; u (H, 3H) is the recurrent weight and
    h0 (B, H) the initial state. The candidate keeps the reset gate inside
    its recurrent product, n = tanh(xw_n + (r*h)·U_n), and h' = z*h + (1-z)*n.
    The result (N, H) is packed as xw is: row j holds h at position j. As in
    `lstm`, each step touches its live rows only, forward and backward, and
    step activations are kept only while the tape records.
    """
    B, H, sizes = _recurrence_shape(xw, u, (h0,), sizes, 3, "gru")
    N = xw.shape[0]
    # contiguous copies: a product with a column block of u is about twice as slow
    u_rz, u_n = np.ascontiguousarray(u.data[:, :2 * H]), np.ascontiguousarray(u.data[:, 2 * H:])
    pre = xw.data
    out = np.empty((N, H))
    kept, rows_at = _kept(sizes, (2 * H, H, H))  # sigmoid(r, z), n and r*h, as in `lstm`
    h = h0.data
    live, o = B, 0
    for n in sizes:
        if n < live:
            h, live = h[:n], n
        rz_out, cand_out, rh_out = rows_at(o, n)
        rz = _sigmoid(pre[o:o + n, :2 * H] + h @ u_rz, out=rz_out)
        rh = np.multiply(rz[:, :H], h, out=rh_out)
        cand = np.tanh(pre[o:o + n, 2 * H:] + rh @ u_n, out=cand_out)
        z = rz[:, H:]
        h = z * h + (1.0 - z) * cand
        out[o:o + n] = h
        o += n

    def bwd(grad):
        h_prev = _previous_rows(out, h0.data, sizes)
        rz, n, rh = kept
        r, z = rz[:, :H], rz[:, H:]
        # the local derivatives of every position, taken outside the time loop
        dan_dh = (1.0 - z) * (1.0 - n * n)
        dz_dh = h_prev - n
        drz_da = rz * (1.0 - rz)
        D = np.empty((N, 3 * H))  # gradients of the gate pre-activations
        carry = None  # what step t receives from step t + 1
        o = N
        for t in reversed(range(len(sizes))):
            o -= sizes[t]
            s = slice(o, o + sizes[t])
            dh = _with_carry(grad[s], carry)
            d = D[s]
            np.multiply(dh, dan_dh[s], out=d[:, 2 * H:])
            drh = d[:, 2 * H:] @ u_n.T
            np.multiply(drh, h_prev[s], out=d[:, :H])
            np.multiply(dh, dz_dh[s], out=d[:, H:2 * H])
            d[:, :2 * H] *= drz_da[s]
            carry = dh * z[s] + drh * r[s] + d[:, :2 * H] @ u_rz.T
        du = np.concatenate([h_prev.T @ D[:, :2 * H], rh.T @ D[:, 2 * H:]], axis=1)
        _acc(u, du, fresh=True)
        _acc(h0, carry, fresh=True)
        _acc(xw, D, fresh=True)

    return Tensor(out, _parents=(xw, u, h0), _bwd=bwd)


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamSet:
    """Named trainable tensors with deterministic seeded initialization."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}

    def new(self, name: str, shape: tuple[int, ...], fan_in: int | None = None) -> Tensor:
        """Create a parameter initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        if name in self._params:
            raise KeyError(f"duplicate parameter name {name!r}")
        fan = fan_in if fan_in is not None else shape[0]
        bound = 1.0 / math.sqrt(max(fan, 1))
        t = Tensor(self._rng.uniform(-bound, bound, size=shape),
                   requires_grad=True, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Bit-exact restore of previously exported parameter values."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise KeyError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ShapeError(f"parameter {name!r} shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()


class Adam:
    """Adam with bias correction and global gradient-norm clipping.

    A parameter with no recorded gradient is treated as having a zero
    gradient. Gradients are zeroed after every step.
    """

    def __init__(self, params: ParamSet, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm: float | None = 5.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        grads: dict[str, np.ndarray] = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            grads[name] = g
        if self.clip_norm is not None:
            total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > self.clip_norm:
                factor = self.clip_norm / total
                grads = {name: g * factor for name, g in grads.items()}
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(p.data))
            v = self._v.setdefault(name, np.zeros_like(p.data))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        self.params.zero_grads()

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"adam.step": np.array([float(self.step_count)])}
        for name in self.params.names():
            if name in self._m:
                out[f"adam.m.{name}"] = self._m[name].copy()
                out[f"adam.v.{name}"] = self._v[name].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = int(arrays["adam.step"][0])
        for name in self.params.names():
            key = f"adam.m.{name}"
            if key in arrays:
                self._m[name] = np.asarray(arrays[key], dtype=np.float64).copy()
                self._v[name] = np.asarray(arrays[f"adam.v.{name}"], dtype=np.float64).copy()


def finite_difference_check(build_loss: Callable[[], Tensor], params: ParamSet,
                            eps: float = 1e-5) -> float:
    """Worst relative error between backward gradients and central differences.

    ``build_loss`` must rebuild the full forward graph from the current
    parameter values on every call. The error metric is
    |analytic - numeric| / max(1, |analytic|, |numeric|), i.e. relative for
    large gradients with an absolute floor for tiny ones.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"perturbation {eps} outside [1e-7, 1e-3]")
    params.zero_grads()
    backward(build_loss())
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    params.zero_grads()
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = build_loss().item()
            flat[i] = orig - eps
            f_minus = build_loss().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            worst = max(worst, err)
    return worst
