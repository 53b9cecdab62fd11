"""Role-conditioned next-utterance generators.

One imaginator is an LSTM encoder-decoder over tag-extended token records:
the encoder reads the dialogue history (token/role/turn/subturn embeddings
concatenated per position), the decoder regenerates the next utterance of
its role with teacher forcing, optionally attending over encoder states.

Each LSTM cell (``enc`` and ``dec``) is three fused tensors: ``W`` of shape
(input, 4H), ``U`` of shape (H, 4H) and ``b`` of shape (4H,), with the gate
columns in the order f, i, o, g. The input half ``x·W + b`` of every gate is
computed for a whole sequence in one matmul; the recurrence over it is then
one `autodiff.lstm` call, one per batch in the encoder and one in the
teacher-forced decoder. The encoder's batch is packed (`pack_histories`):
sorted by length, longest first, each step computing only the histories
that have not ended, so embeddings, input products and the recurrence skip
the padding a right-padded batch would hold; `place_rows` returns the states
to the caller's order. That decoder's step-t input is the gold token t and
never depends on attention (no input feeding), so attention and logits are
one batched pass over all B·T_dec decoder states, Luong et al.'s global dot
attention (arXiv 1508.04025): one `dot_scores` of [B, T_dec, H] queries over
the [B, T, H] encoder states, one masked softmax, one `weighted_sum`, one
``W_c`` and one ``W_v`` product and one `log_softmax_nll` over all rows.

Training and decoding share one forward implementation: `encode_batch`,
`lstm_step` (a one-step `autodiff.lstm`), `attention_context` and
`_decoder_logits`, which decoding runs with one query per history under
`autodiff.no_grad`, reading log-probabilities off the logits with
`autodiff.log_softmax`. There is one search, `_search`: a beam search
batched over histories, with beam_width decoder rows per history stepping
together. Greedy decoding is that search at width 1; `greedy_decode` and
`beam_decode` are the two names it is called by.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import (
    AGENT, BOS, EOS, PAD, USER,
    DEFAULT_MAX_HISTORY, DEFAULT_SUBTURN_CAP, DEFAULT_TURN_CAP,
    EncodedHistory, ImaginatorSample, Vocabulary, encode_history, encode_target,
)

# decoder rows (histories x beam width) searched together; bounds the
# [rows, T, H] encoder states held at once
SEARCH_ROWS = 64
_LOWEST = np.finfo(np.float64).min


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
        for prefix, width in (("enc", token_dim + 3 * tag_dim), ("dec", token_dim)):
            p.new(f"{prefix}.W", (width, 4 * hidden), fan_in=width)
            p.new(f"{prefix}.U", (hidden, 4 * hidden), fan_in=hidden)
            p.new(f"{prefix}.b", (4 * hidden,), fan_in=hidden)
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


def pack_histories(encs: Sequence[EncodedHistory], reverse: bool = False):
    """The records of a batch of histories in the packed layout of `autodiff.lstm`.

    The histories are sorted by length, longest first (a stable sort), and
    step t lists record t of every history longer than t, so no record is
    padding. With reverse, each history is read backwards within its own
    length, which keeps the layout. Returns the packed records, the number of
    histories at each step (`sizes`), the place b*T + t in the caller's
    [B, T] layout of every packed record, and the packed row of each
    history's last step, in the caller's order.
    """
    lengths = np.array([len(e) for e in encs])
    order = np.argsort(-lengths, kind="stable")
    live = lengths[order] > np.arange(lengths[order[0]])[:, None]  # [T, B], a prefix of each row
    step, rank = np.nonzero(live)  # by step, then by rank: the packed order
    seq = order[rank]
    starts = np.cumsum(lengths) - lengths
    src = starts[seq] + (lengths[seq] - 1 - step if reverse else step)
    records = EncodedHistory(*(np.concatenate(f)[src] for f in zip(
        *((e.tokens, e.roles, e.turns, e.subturns) for e in encs))))
    ends = step == lengths[seq] - 1
    last = np.empty(len(encs), dtype=np.intp)
    last[seq[ends]] = np.flatnonzero(ends)
    return records, live.sum(axis=1).tolist(), seq * len(live) + step, last


def embed_records(params: ad.ParamSet, enc: EncodedHistory) -> ad.Tensor:
    """Token, role, turn and subturn embeddings side by side: one row per record."""
    return ad.concat_cols([
        ad.rows(params["emb.token"], enc.tokens),
        ad.rows(params["emb.role"], enc.roles),
        ad.rows(params["emb.turn"], enc.turns),
        ad.rows(params["emb.subturn"], enc.subturns),
    ])


def project(x: ad.Tensor, params: ad.ParamSet, prefix: str) -> ad.Tensor:
    """The input half x·W + b of every gate of cell `prefix`, for all rows of x at once."""
    return ad.matmul(x, params[f"{prefix}.W"], bias=params[f"{prefix}.b"])


def lstm_step(xw: ad.Tensor, h_prev: ad.Tensor, c_prev: ad.Tensor,
              params: ad.ParamSet, prefix: str):
    """One LSTM step from the projected input xw [B, 4H] and states [B, H]."""
    B = h_prev.shape[0]
    out = ad.lstm(xw, params[f"{prefix}.U"], h_prev, c_prev, [B])
    return ad.part(out, rows=slice(0, B)), ad.part(out, rows=slice(B, 2 * B))


def encode_batch(model: ImaginatorModel, encs: Sequence[EncodedHistory]):
    """Tape encoder over a packed batch of histories.

    Returns (stacked states [B,T,H], mask [B,T], final h, final c) in the
    order of encs. The recurrence runs on the `pack_histories` layout, so it
    computes real positions only; one `place_rows` puts the states back in
    the caller's order with zeros at padding, which the mask keeps out of
    attention. Each history's final (h, c) is read at its last position.
    """
    if not encs or any(len(e) == 0 for e in encs):
        raise ValueError("cannot encode an empty history")
    records, sizes, places, last = pack_histories(encs)
    B, T, N, H = len(encs), len(sizes), len(places), model.hidden
    xw = project(embed_records(model.params, records), model.params, "enc")
    zero = ad.constant(np.zeros((B, H)))
    out = ad.lstm(xw, model.params["enc.U"], zero, zero, sizes)
    states = ad.part(out, rows=slice(0, N))
    if B > 1:  # a batch of one is already in place
        states = ad.place_rows(states, places, B * T)
    mask = np.zeros(B * T)
    mask[places] = 1.0
    return (ad.reshape(states, (B, T, H)), mask.reshape(B, T),
            ad.rows(out, last), ad.rows(out, N + last))


def attention_bias(mask: np.ndarray) -> np.ndarray:
    """The additive attention mask [B, T]: 0 at live positions, -1e30 at padding.

    Raises if any row of the mask is entirely off: its weights would be meaningless.
    """
    if mask.ndim != 2 or not mask.any(axis=1).all():
        raise ValueError("attention requires at least one unmasked position per row")
    return (mask - 1.0) * 1e30


def attention_context(queries: ad.Tensor, enc_states: ad.Tensor, bias: np.ndarray):
    """Dot-product attention of queries [B, Q, H] over enc_states [B, T, H], masked by
    `attention_bias`; returns (context [B, Q, H], weights [B, Q, T])."""
    weights = ad.softmax(ad.dot_scores(queries, enc_states, bias))
    return ad.weighted_sum(weights, enc_states), weights


def _decoder_logits(model: ImaginatorModel, h: ad.Tensor,
                    enc_states: ad.Tensor, bias: np.ndarray) -> ad.Tensor:
    """Vocabulary logits [B*Q, V] from decoder states h [B*Q, H], row b*Q + q being
    step q of history b: Q is 1 in decoding and T_dec under teacher forcing."""
    if model.use_attention:
        B, _, H = enc_states.shape
        ctx, _ = attention_context(ad.reshape(h, (B, -1, H)), enc_states, bias)
        h = ad.tanh(ad.matmul(ad.concat_cols([h, ad.reshape(ctx, h.shape)]),
                              model.params["attn.W_c"], bias=model.params["attn.b_c"]))
    return ad.matmul(h, model.params["out.W_v"], bias=model.params["out.b_v"])


def teacher_forced_loss(model: ImaginatorModel, encs: Sequence[EncodedHistory],
                        targets: Sequence[np.ndarray]) -> ad.Tensor:
    """Summed NLL of gold tokens under teacher forcing, averaged over the batch.

    targets are BOS...EOS id arrays; gold token t+1 is predicted from gold
    token t. Padded positions contribute exactly zero.
    """
    if len(encs) != len(targets) or not encs:
        raise ValueError("need equally many histories and targets")
    B = len(encs)
    steps = np.array([len(t) - 1 for t in targets])
    T_dec = int(steps.max())
    if T_dec < 1:
        raise ValueError("targets must contain at least BOS and one token")
    ids = np.full((B, T_dec + 1), PAD, dtype=np.int64)
    for b, t in enumerate(targets):
        ids[b, :len(t)] = t
    # steps past a target's end are masked out: they add nothing to loss or gradients
    tmask = (np.arange(T_dec) < steps[:, None]).astype(np.float64)
    enc_states, mask, h, c = encode_batch(model, encs)
    xw = project(ad.rows(model.params["emb.token"], ids[:, :-1].T.ravel()), model.params, "dec")
    hs = ad.lstm(xw, model.params["dec.U"], h, c, [B] * T_dec)
    # the first B*T_dec rows are h, time-major; the head reads them batch-major:
    # row b*T_dec + t is step t of history b
    batch_major = (np.arange(B) * T_dec + np.arange(T_dec)[:, None]).ravel()
    h_dec = ad.place_rows(ad.part(hs, rows=slice(0, B * T_dec)), batch_major, B * T_dec)
    logits = _decoder_logits(model, h_dec, enc_states, attention_bias(mask))
    return ad.scale(ad.log_softmax_nll(logits, ids[:, 1:].ravel(), mask=tmask.ravel()), 1.0 / B)


def prepare_samples(samples: Sequence[ImaginatorSample], model: ImaginatorModel,
                    vocab: Vocabulary) -> list[tuple[EncodedHistory, np.ndarray]]:
    """Each sample's encoded history and BOS...EOS target ids, computed once per run."""
    return [(encode_history(s.history, vocab, model.max_history,
                            model.turn_cap, model.subturn_cap),
             encode_target(s.target.tokens, vocab)) for s in samples]


def train_step(batch: Sequence[tuple[EncodedHistory, np.ndarray]], model: ImaginatorModel,
               opt: ad.Adam) -> float:
    """One teacher-forced optimization step on `prepare_samples` pairs; returns the batch loss."""
    encs, targets = zip(*batch)
    loss = teacher_forced_loss(model, encs, targets)
    if not loss.is_finite():
        raise ad.TrainingError("imaginator loss is not finite")
    ad.backward(loss)
    opt.step()
    return loss.item()


# ---------------------------------------------------------------------------
# decoding


def _select(scores: np.ndarray, width: int):
    """The top `width` finite entries of each row of scores; ties go to the lowest index.

    Returns their flat indices in ascending order, their values, and the rank
    of each among the entries kept from its row.
    """
    n = scores.shape[1]
    # the width-th largest value of each row (at width 1 the max, which is cheaper),
    # raised from -inf to the lowest float so that no -inf entry is kept
    kth = max(n - width, 0)
    cut = scores.max(axis=1) if width == 1 else np.partition(scores, kth, axis=1)[:, kth]
    flat = np.flatnonzero(scores >= np.maximum(cut, _LOWEST)[:, None])
    val = scores.ravel()[flat]
    row = flat // n
    rank = np.arange(len(flat)) - np.searchsorted(row, row)
    if rank.max(initial=0) >= width:  # ties at a cut: keep the lowest indices
        order = np.lexsort((flat, -val, row))  # row stays sorted, so row[order] == row
        keep = np.zeros(len(flat), dtype=bool)
        keep[order[rank < width]] = True
        flat, val, row = flat[keep], val[keep], row[keep]
        rank = np.arange(len(flat)) - np.searchsorted(row, row)
    return flat, val, rank


def _search(model: ImaginatorModel, encs: Sequence[EncodedHistory], beam_width: int,
            max_len: int, alpha: float) -> list[list[int]]:
    """Length-wise beam search over a batch of histories; returns their id lists.

    Each history owns beam_width decoder rows (slots); a dead slot holds
    log-probability -inf. Each step keeps, per history, the top beam_width
    expansions of its live slots by cumulative log-probability, ties broken by
    token sequence: live slots are kept in lexicographic order of their
    equally long sequences, so the lowest flat (slot, token) index is the
    lowest sequence. An expansion that emits EOS retires to the history's
    pool and its slot stays dead (the frontier is not refilled, so width 1 is
    exactly greedy). Survivors at max_len join the pool; the best by
    score / length^alpha, ties to the lowest sequence, is returned without EOS.
    """
    if beam_width < 1 or max_len < 1:
        raise ValueError("beam_width and max_len must be >= 1")
    K, V, params = beam_width, model.vocab_size, model.params
    per_chunk = max(1, SEARCH_ROWS // K)
    out: list[list[int]] = []
    with ad.no_grad():
        for start in range(0, len(encs), per_chunk):
            chunk = encs[start:start + per_chunk]
            N = len(chunk)
            enc_states, mask, h, c = encode_batch(model, chunk)
            bias = attention_bias(mask)
            logp = np.zeros(N)  # the first step expands one row per history
            history = np.arange(N * K) // K
            seqs = np.full((N, max_len + 1), BOS, dtype=np.int64)  # BOS, then the tokens
            pools: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in chunk]
            for t in range(1, max_len + 1):
                k = len(logp) // N  # rows per history in this step: 1, then K
                xw = project(ad.rows(params["emb.token"], seqs[:, t - 1]), params, "dec")
                h, c = lstm_step(xw, h, c, params, "dec")
                step_logp = ad.log_softmax(_decoder_logits(model, h, enc_states, bias).data)
                flat, best, slot = _select((logp[:, None] + step_logp).reshape(N, k * V), K)
                parent, tok = np.divmod(flat, V)
                b, eos = parent // k, tok == EOS
                for i in np.flatnonzero(eos):
                    pools[b[i]].append((tuple(seqs[parent[i], 1:t].tolist()) + (EOS,),
                                        float(best[i])))
                # row b·K + s is slot s of history b; a dead slot keeps a row of its history
                row = b * K + slot
                src = history * k
                src[row] = parent
                seqs = seqs[src]
                seqs[row, t] = tok
                logp = np.full(N * K, -np.inf)
                logp[row] = np.where(eos, -np.inf, best)
                h, c = ad.constant(h.data[src]), ad.constant(c.data[src])
                if eos.all():
                    break
                if k < K:
                    enc_states = ad.constant(np.repeat(enc_states.data, K, axis=0))
                    bias = np.repeat(bias, K, axis=0)
            for b, pool in enumerate(pools):
                pool.extend((tuple(seqs[r, 1:t + 1].tolist()), float(logp[r]))
                            for r in range(b * K, b * K + K) if logp[r] > -np.inf)
                best_seq, _ = min(pool, key=lambda p: (-p[1] / (len(p[0]) ** alpha), p[0]))
                out.append([i for i in best_seq if i != EOS])
    return out


def greedy_decode(model: ImaginatorModel, encs: Sequence[EncodedHistory],
                  max_len: int = 40) -> list[list[int]]:
    """Argmax decoding, the search at width 1: ties to the lowest id, EOS stops and is dropped."""
    return _search(model, encs, 1, max_len, 1.0)


def beam_decode(model: ImaginatorModel, encs: Sequence[EncodedHistory], beam_width: int = 4,
                max_len: int = 40, alpha: float = 0.7) -> list[list[int]]:
    """Beam search of every history with score/length^alpha normalization; see `_search`."""
    return _search(model, encs, beam_width, max_len, alpha)


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


def evaluate_imaginator(model: ImaginatorModel, samples: Sequence[ImaginatorSample],
                        vocab: Vocabulary, beam_width: int = 4, max_len: int = 40) -> dict:
    """Corpus BLEU of the model's beam decodes, split by target role; see `bleu_by_role`."""
    encs = [enc for enc, _ in prepare_samples(samples, model, vocab)]
    return bleu_by_role(model, samples, encs, vocab, beam_width, max_len)


def bleu_by_role(model: ImaginatorModel, samples: Sequence[ImaginatorSample],
                 encs: Sequence[EncodedHistory], vocab: Vocabulary, beam_width: int,
                 max_len: int) -> dict:
    """Corpus BLEU by target role of the beam decodes of samples whose histories are encs.

    All histories decode in one `beam_decode` call. A partition with no
    samples reports 0.0.
    """
    cands = {AGENT: [], USER: []}
    refs = {AGENT: [], USER: []}
    for s, ids in zip(samples, beam_decode(model, encs, beam_width=beam_width, max_len=max_len)):
        cands[s.target.role].append([vocab.decode_id(i) for i in ids])
        refs[s.target.role].append(list(s.target.tokens))
    return {
        "bleu_on_agent_targets": bleu(cands[AGENT], refs[AGENT]) if cands[AGENT] else 0.0,
        "bleu_on_user_targets": bleu(cands[USER], refs[USER]) if cands[USER] else 0.0,
    }
