"""Role-conditioned next-utterance generators.

One imaginator is an LSTM encoder-decoder over tag-extended token records:
the encoder reads the dialogue history (token/role/turn/subturn embeddings
concatenated per position), the decoder regenerates the next utterance of
its role with teacher forcing, optionally attending over encoder states.

Training and decoding share one forward implementation: `encode_batch`,
`lstm_step`, `attention_context` and `_decoder_logits`. Training records
it on the autodiff tape; greedy and beam decoding run it batch-shaped under
`autodiff.no_grad`, all histories (greedy) or all live hypotheses (beam)
stepping together, and read log-probabilities off the logits in numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import (
    AGENT, BOS, EOS, PAD, USER,
    DEFAULT_MAX_HISTORY, DEFAULT_SUBTURN_CAP, DEFAULT_TURN_CAP,
    EncodedHistory, ImaginatorSample, Vocabulary, encode_history, encode_target,
)

GATES = ("f", "i", "o", "g")
# histories greedy-decoded together; bounds the [B, T, H] encoder states held at once
GREEDY_CHUNK = 64


class ImaginatorModel:
    """Embeddings + encoder/decoder LSTM + optional attention + output head."""

    def __init__(self, vocab_size: int, role: str, hidden: int = 128,
                 token_dim: int = 100, tag_dim: int = 8,
                 turn_cap: int = DEFAULT_TURN_CAP, subturn_cap: int = DEFAULT_SUBTURN_CAP,
                 max_history: int = DEFAULT_MAX_HISTORY,
                 use_attention: bool = True, seed: int = 0):
        if role not in (AGENT, USER):
            raise ValueError(f"unknown role {role!r}")
        self.vocab_size = vocab_size
        self.role = role
        self.hidden = hidden
        self.token_dim = token_dim
        self.tag_dim = tag_dim
        self.turn_cap = turn_cap
        self.subturn_cap = subturn_cap
        self.max_history = max_history
        self.use_attention = use_attention
        self.seed = seed

        p = ad.ParamSet(seed=seed)
        p.new("emb.token", (vocab_size, token_dim), fan_in=token_dim)
        p.new("emb.role", (2, tag_dim), fan_in=tag_dim)
        p.new("emb.turn", (turn_cap + 1, tag_dim), fan_in=tag_dim)
        p.new("emb.subturn", (subturn_cap + 1, tag_dim), fan_in=tag_dim)
        enc_in = token_dim + 3 * tag_dim
        for gate in GATES:
            p.new(f"enc.W_{gate}", (enc_in, hidden), fan_in=enc_in)
            p.new(f"enc.U_{gate}", (hidden, hidden), fan_in=hidden)
            p.new(f"enc.b_{gate}", (hidden,), fan_in=hidden)
            p.new(f"dec.W_{gate}", (token_dim, hidden), fan_in=token_dim)
            p.new(f"dec.U_{gate}", (hidden, hidden), fan_in=hidden)
            p.new(f"dec.b_{gate}", (hidden,), fan_in=hidden)
        if use_attention:
            p.new("attn.W_c", (2 * hidden, hidden), fan_in=2 * hidden)
            p.new("attn.b_c", (hidden,), fan_in=2 * hidden)
        p.new("out.W_v", (hidden, vocab_size), fan_in=hidden)
        p.new("out.b_v", (vocab_size,), fan_in=hidden)
        self.params = p

    def config(self) -> dict:
        return {
            "kind": "imaginator",
            "vocab_size": self.vocab_size,
            "role": self.role,
            "hidden": self.hidden,
            "token_dim": self.token_dim,
            "tag_dim": self.tag_dim,
            "turn_cap": self.turn_cap,
            "subturn_cap": self.subturn_cap,
            "max_history": self.max_history,
            "use_attention": self.use_attention,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ImaginatorModel":
        cfg = dict(cfg)
        cfg.pop("kind", None)
        return cls(**cfg)


def _history_arrays(model: ImaginatorModel, encs: Sequence[EncodedHistory]):
    """Right-pad encoded histories into [B, T] index arrays plus a mask."""
    B = len(encs)
    T = max(len(e) for e in encs)
    toks = np.full((B, T), PAD, dtype=np.int64)
    rids = np.zeros((B, T), dtype=np.int64)
    turns = np.zeros((B, T), dtype=np.int64)
    subs = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T))
    for b, e in enumerate(encs):
        L = len(e)
        toks[b, :L] = e.tokens
        rids[b, :L] = e.roles
        turns[b, :L] = e.turns
        subs[b, :L] = e.subturns
        mask[b, :L] = 1.0
    return toks, rids, turns, subs, mask


def lstm_step(x: ad.Tensor, h_prev: ad.Tensor, c_prev: ad.Tensor,
              params: ad.ParamSet, prefix: str):
    """One gated recurrence step on the tape; x and states are [B, dim]."""
    def gate(name, act):
        pre = ad.add(ad.matmul(x, params[f"{prefix}.W_{name}"]),
                     ad.matmul(h_prev, params[f"{prefix}.U_{name}"]))
        return act(ad.add_bias(pre, params[f"{prefix}.b_{name}"]))

    f = gate("f", ad.sigmoid)
    i = gate("i", ad.sigmoid)
    o = gate("o", ad.sigmoid)
    g = gate("g", ad.tanh)
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def _embed_step(params: ad.ParamSet, toks, rids, turns, subs) -> ad.Tensor:
    return ad.concat_cols([
        ad.rows(params["emb.token"], toks),
        ad.rows(params["emb.role"], rids),
        ad.rows(params["emb.turn"], turns),
        ad.rows(params["emb.subturn"], subs),
    ])


def encode_batch(model: ImaginatorModel, encs: Sequence[EncodedHistory]):
    """Tape encoder over a padded batch.

    Returns (stacked states [B,T,H], mask [B,T], final h, final c). States at
    padded positions repeat the last real state but the mask excludes them
    from attention.
    """
    if not encs or any(len(e) == 0 for e in encs):
        raise ValueError("cannot encode an empty history")
    toks, rids, turns, subs, mask = _history_arrays(model, encs)
    B, T = toks.shape
    H = model.hidden
    h = ad.constant(np.zeros((B, H)))
    c = ad.constant(np.zeros((B, H)))
    states = []
    for t in range(T):
        x = _embed_step(model.params, toks[:, t], rids[:, t], turns[:, t], subs[:, t])
        h_new, c_new = lstm_step(x, h, c, model.params, "enc")
        m = ad.constant(mask[:, t:t + 1])
        inv = ad.constant(1.0 - mask[:, t:t + 1])
        h = ad.add(ad.scale_rows(h_new, m), ad.scale_rows(h, inv))
        c = ad.add(ad.scale_rows(c_new, m), ad.scale_rows(c, inv))
        states.append(h)
    return ad.stack_states(states), mask, h, c


def attention_context(h_dec: ad.Tensor, enc_states: ad.Tensor, mask: np.ndarray):
    """Dot-product attention: masked softmax over encoder positions.

    Returns (context [B,H], weights [B,T]). Raises if any row of the mask is
    entirely off, because the weights would be meaningless.
    """
    if mask.ndim != 2 or not mask.any(axis=1).all():
        raise ValueError("attention requires at least one unmasked position per row")
    scores = ad.dot_scores(h_dec, enc_states)
    neg = ad.constant((mask - 1.0) * 1e30)
    weights = ad.softmax(ad.add(scores, neg))
    return ad.weighted_sum(weights, enc_states), weights


def _decoder_logits(model: ImaginatorModel, h: ad.Tensor,
                    enc_states: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Vocabulary logits [B, V] for one decoder step from decoder states h [B, H]."""
    if model.use_attention:
        ctx, _ = attention_context(h, enc_states, mask)
        h = ad.tanh(ad.add_bias(ad.matmul(ad.concat_cols([h, ctx]),
                                          model.params["attn.W_c"]),
                                model.params["attn.b_c"]))
    return ad.add_bias(ad.matmul(h, model.params["out.W_v"]), model.params["out.b_v"])


def teacher_forced_loss(model: ImaginatorModel, encs: Sequence[EncodedHistory],
                        targets: Sequence[np.ndarray]) -> ad.Tensor:
    """Summed NLL of gold tokens under teacher forcing, averaged over the batch.

    targets are BOS...EOS id arrays; gold token t+1 is predicted from gold
    token t. Padded positions contribute exactly zero.
    """
    if len(encs) != len(targets) or not encs:
        raise ValueError("need equally many histories and targets")
    B = len(encs)
    T_dec = max(len(t) for t in targets) - 1
    if T_dec < 1:
        raise ValueError("targets must contain at least BOS and one token")
    inp = np.full((B, T_dec), PAD, dtype=np.int64)
    out = np.zeros((B, T_dec), dtype=np.int64)
    tmask = np.zeros((B, T_dec))
    for b, t in enumerate(targets):
        L = len(t) - 1
        inp[b, :L] = t[:-1]
        out[b, :L] = t[1:]
        tmask[b, :L] = 1.0
    enc_states, mask, h, c = encode_batch(model, encs)
    total = None
    for t in range(T_dec):
        x = ad.rows(model.params["emb.token"], inp[:, t])
        h, c = lstm_step(x, h, c, model.params, "dec")
        probs = ad.softmax(_decoder_logits(model, h, enc_states, mask))
        step_loss = ad.nll_loss(probs, out[:, t], mask=tmask[:, t])
        total = step_loss if total is None else ad.add(total, step_loss)
    return ad.scale(total, 1.0 / B)


def train_step(batch: Sequence[ImaginatorSample], model: ImaginatorModel,
               opt: ad.Adam, vocab: Vocabulary) -> float:
    """One teacher-forced optimization step; returns the batch loss."""
    encs = [encode_history(s.history, vocab, model.max_history,
                           model.turn_cap, model.subturn_cap) for s in batch]
    targets = [encode_target(s.target.tokens, vocab) for s in batch]
    loss = teacher_forced_loss(model, encs, targets)
    if not loss.is_finite():
        raise ad.TrainingError("imaginator loss is not finite")
    ad.backward(loss)
    opt.step()
    return loss.item()


# ---------------------------------------------------------------------------
# decoding


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # finite even where a logit is pinned far below the rest
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _decode_step(model: ImaginatorModel, prev: np.ndarray, h: ad.Tensor, c: ad.Tensor,
                 enc_states: ad.Tensor, mask: np.ndarray):
    """Feed previous tokens [B] to the decoder: log-probabilities [B, V] and the new (h, c)."""
    x = ad.rows(model.params["emb.token"], prev)
    h, c = lstm_step(x, h, c, model.params, "dec")
    return _log_softmax(_decoder_logits(model, h, enc_states, mask).data), h, c


def greedy_decode(model: ImaginatorModel, encs: Sequence[EncodedHistory],
                  max_len: int = 40) -> list[list[int]]:
    """Argmax decoding of every history; ties go to the lowest token id; EOS stops and is dropped.

    Histories run GREEDY_CHUNK at a time, every row of a chunk stepping in
    lockstep until each has emitted EOS or max_len tokens. Returns one id
    list per history, in input order.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out: list[list[int]] = []
    with ad.no_grad():
        for start in range(0, len(encs), GREEDY_CHUNK):
            chunk = encs[start:start + GREEDY_CHUNK]
            enc_states, mask, h, c = encode_batch(model, chunk)
            ids = [[] for _ in chunk]
            live = np.ones(len(chunk), dtype=bool)
            prev = np.full(len(chunk), BOS, dtype=np.int64)
            for _ in range(max_len):
                logprobs, h, c = _decode_step(model, prev, h, c, enc_states, mask)
                prev = np.argmax(logprobs, axis=1)
                live &= prev != EOS
                if not live.any():
                    break
                for b in np.flatnonzero(live):
                    ids[b].append(int(prev[b]))
            out.extend(ids)
    return out


def beam_decode(model: ImaginatorModel, enc: EncodedHistory, beam_width: int = 4,
                max_len: int = 40, alpha: float = 0.7) -> list[int]:
    """Length-wise beam search with score/length^alpha normalization.

    Each step expands every live hypothesis over the whole vocabulary and
    keeps the top beam_width by cumulative log-probability, breaking ties by
    token sequence. Hypotheses that just emitted EOS retire to the finished
    pool (the frontier is not refilled, which keeps beam_width 1 exactly
    equal to greedy decoding). Survivors at max_len count as finished.
    """
    if beam_width < 1 or max_len < 1:
        raise ValueError("beam_width and max_len must be >= 1")
    V = model.vocab_size
    with ad.no_grad():
        enc_states, mask, h, c = encode_batch(model, [enc])
        tiled = np.repeat(enc_states.data, beam_width, axis=0)
        mask = np.repeat(mask, beam_width, axis=0)
        seqs: list[tuple[int, ...]] = [()]  # live hypotheses, one row of h and c each
        logp = np.zeros(1)
        pool: list[tuple[tuple[int, ...], float]] = []
        for _ in range(max_len):
            if not seqs:
                break
            k = len(seqs)
            prev = np.array([s[-1] if s else BOS for s in seqs], dtype=np.int64)
            logprobs, h, c = _decode_step(model, prev, h, c, ad.constant(tiled[:k]), mask[:k])
            scores = (logp[:, None] + logprobs).ravel()
            n = min(beam_width, scores.size)
            cut = np.partition(scores, scores.size - n)[scores.size - n]
            best = sorted(np.flatnonzero(scores >= cut),
                          key=lambda i: (-scores[i], seqs[i // V] + (i % V,)))[:n]
            pool.extend((seqs[i // V] + (EOS,), float(scores[i])) for i in best if i % V == EOS)
            keep = [i for i in best if i % V != EOS]
            rows = [i // V for i in keep]
            seqs = [seqs[i // V] + (int(i % V),) for i in keep]
            logp = scores[keep]
            h, c = ad.constant(h.data[rows]), ad.constant(c.data[rows])
    pool.extend((seq, float(lp)) for seq, lp in zip(seqs, logp))
    best_seq, _ = min(pool, key=lambda p: (-p[1] / (len(p[0]) ** alpha), p[0]))
    return [t for t in best_seq if t != EOS]


# ---------------------------------------------------------------------------
# evaluation


def _ngrams(seq: Sequence, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def bleu(candidates: Sequence[Sequence], references: Sequence[Sequence],
         max_n: int = 4) -> float:
    """Corpus-level BLEU with clipped n-gram counts pooled over all pairs.

    Orders that produce no candidate n-grams at all (short corpora) drop out
    of the geometric mean; an order with candidates but zero matches floors
    the score at 0. The brevity penalty uses corpus-total lengths.
    """
    if not candidates or len(candidates) != len(references):
        raise ValueError("need equally many candidates and references, at least one pair")
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    for cand, ref in zip(candidates, references):
        for n in range(1, max_n + 1):
            totals[n] += max(len(cand) - n + 1, 0)
            if len(cand) >= n:
                rc = _ngrams(ref, n)
                for g, k in _ngrams(cand, n).items():
                    matches[n] += min(k, rc[g])
    if c_len == 0:
        return 0.0
    effective = [n for n in range(1, max_n + 1) if totals[n] > 0]
    if not effective or any(matches[n] == 0 for n in effective):
        return 0.0
    log_p = sum(math.log(matches[n] / totals[n]) for n in effective) / len(effective)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return math.exp(log_p) * bp


DecodeFn = Callable[[ImaginatorModel, list[EncodedHistory]], list]


def evaluate_imaginator(model: ImaginatorModel, samples: Sequence[ImaginatorSample],
                        vocab: Vocabulary, beam_width: int = 4, max_len: int = 40,
                        decode_fn: DecodeFn | None = None) -> dict:
    """Corpus BLEU of the model's decodes, split by target role.

    A partition with no samples reports 0.0. decode_fn replaces beam search:
    it takes the model and the list of encoded histories and returns one
    token-string list per history.
    """
    encs = [encode_history(s.history, vocab, model.max_history,
                           model.turn_cap, model.subturn_cap) for s in samples]
    if decode_fn is not None:
        decoded = decode_fn(model, encs)
    else:
        decoded = [[vocab.decode_id(i)
                    for i in beam_decode(model, enc, beam_width=beam_width, max_len=max_len)]
                   for enc in encs]
    cands = {AGENT: [], USER: []}
    refs = {AGENT: [], USER: []}
    for s, toks in zip(samples, decoded):
        cands[s.target.role].append(list(toks))
        refs[s.target.role].append(list(s.target.tokens))
    return {
        "bleu_on_agent_targets": bleu(cands[AGENT], refs[AGENT]) if cands[AGENT] else 0.0,
        "bleu_on_user_targets": bleu(cands[USER], refs[USER]) if cands[USER] else 0.0,
    }


def load_embedding_file(model: ImaginatorModel, vocab: Vocabulary, path) -> int:
    """Overwrite token-embedding rows from a text file of 'token v1 ... vd' lines.

    Returns how many vocabulary tokens were found in the file. Vector width
    must match the model's token embedding dimension.
    """
    table = model.params["emb.token"]
    loaded = 0
    with open(path) as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            tok = parts[0]
            idx = vocab.token_to_id.get(tok)
            if idx is None:
                continue
            vec = np.asarray([float(v) for v in parts[1:]])
            if vec.shape[0] != model.token_dim:
                raise ValueError(
                    f"embedding width {vec.shape[0]} != model token_dim {model.token_dim}")
            table.data[idx] = vec
            loaded += 1
    return loaded
