"""The wait/reply decision head.

Given a dialogue history ending in a user message, the arbitrator encodes
three texts with one shared sentence encoder (TextCNN or Bi-GRU): the
history itself, the agent imaginator's predicted reply, and the user
imaginator's predicted continuation. Two affine fusion layers score the two
possible dialogue paths and a linear classifier turns them into a
reply/wait distribution. A history-only baseline mode keeps the same
encoder but classifies directly, with no imagined futures.

Each Bi-GRU direction (``gru_f`` and ``gru_b``) is three fused tensors:
``W`` of shape (input, 3H), ``U`` of shape (H, 3H) and ``b`` of shape (3H,),
with the gate columns in the order r, z, n. The candidate keeps the reset
gate inside its recurrent product, n = tanh(x·W_n + (r⊙h)·U_n + b_n).

One forward, `batch_logits`, turns B samples into [B, 2] logits for
training, validation and decisions. All texts of the batch go through one
encoder call: TextCNN packs them back to back, convolves the pack once per
filter width with `autodiff.conv_rows` (no window copies, the ReLU folded
in), and pools each text over its own windows; Bi-GRU packs them sorted by
length, one `autodiff.gru` call per direction that steps only over the texts
still running, the backward one reading each text reversed within its own
length.

Label 1 selects the agent path (reply now); 0 selects the user path (keep
waiting). Ties break toward 1 so a perfectly undecided agent stays live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import (
    AGENT, EOS, PAD, SUBTURN_CAP, TURN_CAP, USER,
    ArbitratorSample, EncodedHistory, Utterance, Vocabulary, encode_history, role_id,
)
from .imaginator import (
    ImaginatorModel, beam_decode, embed_records, greedy_decode, pack_histories, project,
)

DEFAULT_FILTER_WIDTHS = (3, 4, 5)
DEFAULT_FILTERS_PER_WIDTH = 100
EVAL_SAMPLES = 64  # samples per forward in evaluate_prepared; bounds the texts encoded at once


class ArbitratorModel:
    """Shared text encoder plus either path-fusion (ita) or a direct head.

    The parameters are drawn from `seed`, or are copies of the given `arrays`
    (`autodiff.ParamSet`), which is how a checkpoint loads. They are held at
    `dtype`, and the model computes in it: float32 to train and serve, float64
    for the gradient checks."""

    def __init__(self, vocab_size: int, encoder: str = "textcnn", mode: str = "ita",
                 token_dim: int = 100, tag_dim: int = 8,
                 filter_widths: Sequence[int] = DEFAULT_FILTER_WIDTHS,
                 filters_per_width: int = DEFAULT_FILTERS_PER_WIDTH,
                 hidden: int = 128, seed: int = 0,
                 arrays: dict[str, np.ndarray] | None = None, dtype: str = "float32"):
        if encoder not in ("textcnn", "bigru"):
            raise ValueError(f"unknown encoder {encoder!r}")
        if mode not in ("ita", "baseline"):
            raise ValueError(f"unknown mode {mode!r}")
        self.vocab_size = vocab_size
        self.encoder = encoder
        self.mode = mode
        self.token_dim = token_dim
        self.tag_dim = tag_dim
        self.filter_widths = tuple(sorted(filter_widths))
        self.filters_per_width = filters_per_width
        self.hidden = hidden
        self.seed = seed

        d_total = token_dim + 3 * tag_dim
        p = ad.ParamSet(seed=seed, arrays=arrays, dtype=dtype)
        self.dtype = p.dtype
        p.new("emb.token", (vocab_size, token_dim), fan_in=token_dim)
        p.new("emb.role", (2, tag_dim), fan_in=tag_dim)
        p.new("emb.turn", (TURN_CAP + 1, tag_dim), fan_in=tag_dim)
        p.new("emb.subturn", (SUBTURN_CAP + 1, tag_dim), fan_in=tag_dim)
        if encoder == "textcnn":
            for k in self.filter_widths:
                p.new(f"cnn.W_{k}", (k * d_total, filters_per_width), fan_in=k * d_total)
                p.new(f"cnn.b_{k}", (filters_per_width,), fan_in=k * d_total)
            feat = filters_per_width * len(self.filter_widths)
        else:
            for direction in ("gru_f", "gru_b"):
                p.new(f"{direction}.W", (d_total, 3 * hidden), fan_in=d_total)
                p.new(f"{direction}.U", (hidden, 3 * hidden), fan_in=hidden)
                p.new(f"{direction}.b", (3 * hidden,), fan_in=hidden)
            feat = 2 * hidden
        self.feature_dim = feat
        if mode == "ita":
            p.new("fuse.W_1", (2 * feat, feat), fan_in=2 * feat)
            p.new("fuse.b_1", (feat,), fan_in=2 * feat)
            p.new("fuse.W_2", (2 * feat, feat), fan_in=2 * feat)
            p.new("fuse.b_2", (feat,), fan_in=2 * feat)
            p.new("fuse.W_3", (2 * feat, feat), fan_in=2 * feat)
            p.new("fuse.b_3", (feat,), fan_in=2 * feat)
            p.new("fuse.W_4", (feat, 2), fan_in=feat)
            p.new("fuse.b_4", (2,), fan_in=feat)
        else:
            p.new("head.W", (feat, 2), fan_in=feat)
            p.new("head.b", (2,), fan_in=feat)
        self.params = p

    def config(self) -> dict:
        """The keywords that rebuild this model; of the encoder sizes, only those that
        size its encoder's parameters."""
        sizes = ({"filter_widths": list(self.filter_widths),
                  "filters_per_width": self.filters_per_width}
                 if self.encoder == "textcnn" else {"hidden": self.hidden})
        return {
            "kind": "arbitrator",
            "vocab_size": self.vocab_size,
            "encoder": self.encoder,
            "mode": self.mode,
            "token_dim": self.token_dim,
            "tag_dim": self.tag_dim,
            **sizes,
            "seed": self.seed,
            "dtype": self.dtype.name,
        }


@dataclass(frozen=True)
class Decision:
    label: int
    probs: np.ndarray  # [p_wait, p_reply], sums to 1
    imagined_agent: tuple[str, ...] = ()
    imagined_user: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("decision probabilities must sum to 1")
        if self.label != _argmax_label(self.probs):
            raise ValueError("label must be the argmax of the probabilities")


def _argmax_label(probs: np.ndarray) -> int:
    # ties go to 1: reply wins when perfectly undecided
    return 1 if probs[1] >= probs[0] else 0


# ---------------------------------------------------------------------------
# encoders


def _normalize_for_cnn(enc: EncodedHistory, min_len: int, position: int) -> EncodedHistory:
    """Strip trailing PAD records, then pad back up to the widest filter.

    Extra trailing padding therefore never changes the window set, which is
    what makes the encoder output pad-invariant. The error names `position`.
    """
    real = np.nonzero(enc.tokens != PAD)[0]
    if real.size == 0:
        raise ValueError(f"cannot encode text {position} of the batch: it is empty or all padding")
    L = int(real[-1]) + 1
    L_eff = max(L, min_len)

    def fit(a: np.ndarray) -> np.ndarray:
        out = np.zeros(L_eff, dtype=np.int64)
        out[:L] = a[:L]
        return out

    toks = np.full(L_eff, PAD, dtype=np.int64)
    toks[:L] = enc.tokens[:L]
    return EncodedHistory(tokens=toks, roles=fit(enc.roles),
                          turns=fit(enc.turns), subturns=fit(enc.subturns))


def textcnn_encode(model: ArbitratorModel, texts: Sequence[EncodedHistory]) -> ad.Tensor:
    """Multi-width convolution, ReLU, max-over-time of every text: [N texts, total filters].

    The normalized texts are packed back to back, not padded: one `conv_rows`
    per width k over the whole pack, which never copies its windows and applies
    the ReLU in place, and each text's maximum over the windows inside it (k - 1
    fewer than its records). Windows that straddle two texts are computed but
    never pooled."""
    normed = [_normalize_for_cnn(e, max(model.filter_widths), i) for i, e in enumerate(texts)]
    lengths = np.array([len(e) for e in normed])
    starts = np.cumsum(lengths) - lengths
    packed = EncodedHistory(*(np.concatenate(f) for f in zip(
        *((e.tokens, e.roles, e.turns, e.subturns) for e in normed))))
    emb = embed_records(model.params, packed)
    feats = []
    for k in model.filter_widths:
        fmap = ad.conv_rows(emb, model.params[f"cnn.W_{k}"], model.params[f"cnn.b_{k}"], k)
        feats.append(ad.max_over_time(fmap, np.stack([starts, starts + lengths - k + 1], axis=1)))
    return ad.concat_cols(feats)


def bigru_encode(model: ArbitratorModel, texts: Sequence[EncodedHistory]) -> ad.Tensor:
    """Final forward state beside final backward state of every text: [N texts, 2h].

    The texts run packed by `imaginator.pack_histories`, one `gru` call per
    direction, so no step computes padding. The backward direction reads
    each text reversed within its own length, which keeps the packing, so
    both directions read a text's final state at the row of its last step."""
    empty = [i for i, e in enumerate(texts) if len(e) == 0]
    if empty:
        raise ValueError(f"cannot encode text {empty[0]} of the batch: it is empty")
    h0 = ad.constant(np.zeros((len(texts), model.hidden), model.dtype))
    finals = []
    for prefix, reverse in (("gru_f", False), ("gru_b", True)):
        records, sizes, _, last = pack_histories(texts, reverse)
        xw = project(embed_records(model.params, records), model.params, prefix)
        finals.append(ad.rows(ad.gru(xw, model.params[f"{prefix}.U"], h0, sizes), last))
    return ad.concat_cols(finals)


# ---------------------------------------------------------------------------
# heads


def fuse_paths(c_his: ad.Tensor, c_agent: ad.Tensor, c_user: ad.Tensor,
               model: ArbitratorModel) -> ad.Tensor:
    """Score the two dialogue paths of B samples from [B, F] features: logits [B, 2].

    Purely affine (three stacked linear maps, deliberately no activation)."""
    p = model.params
    d_agent = ad.matmul(ad.concat_cols([c_his, c_agent]), p["fuse.W_1"], bias=p["fuse.b_1"])
    d_user = ad.matmul(ad.concat_cols([c_his, c_user]), p["fuse.W_2"], bias=p["fuse.b_2"])
    d = ad.matmul(ad.concat_cols([d_agent, d_user]), p["fuse.W_3"], bias=p["fuse.b_3"])
    return ad.matmul(d, p["fuse.W_4"], bias=p["fuse.b_4"])


def encode_response_ids(ids: Sequence[int], role: str) -> EncodedHistory:
    """Wrap generated token ids as arbitrator input: role tag only, tags 0."""
    n = len(ids)
    return EncodedHistory(tokens=np.asarray(ids, dtype=np.int64),
                          roles=np.full(n, role_id(role), dtype=np.int64),
                          turns=np.zeros(n, dtype=np.int64),
                          subturns=np.zeros(n, dtype=np.int64))


def _history_enc(history: Sequence[Utterance], vocab: Vocabulary) -> EncodedHistory:
    if not history or history[-1].role != USER:
        raise ValueError("history must end with a user utterance")
    return encode_history(history, vocab)


def _imagination(ids: Sequence[int]) -> tuple[list[int], bool]:
    """An imagination with no token other than PAD is empty: it becomes [EOS].

    Returns the ids to encode and whether the imagination was empty.
    """
    if all(i == PAD for i in ids):
        return [EOS], True
    return list(ids), False


def _imagined(history_enc: EncodedHistory, agent_ids: Sequence[int], user_ids: Sequence[int],
              label: int | None = None) -> "PreparedSample":
    """An ita sample with its two imaginations, each empty one replaced and flagged.

    Training and inference both go through here, so they see the same texts.
    """
    agent_ids, agent_empty = _imagination(agent_ids)
    user_ids, user_empty = _imagination(user_ids)
    flags = tuple(f"empty_{role}_generation"
                  for role, empty in ((AGENT, agent_empty), (USER, user_empty)) if empty)
    return PreparedSample(history_enc, label, agent_ids, user_ids, flags)


def decide_with_imagined(model: ArbitratorModel, history_enc: EncodedHistory,
                         agent_ids: Sequence[int], user_ids: Sequence[int],
                         vocab: Vocabulary) -> Decision:
    """ITA decision from already-generated responses (token ids only).

    Empty generations (nothing but PAD) are replaced by a single EOS token
    and flagged.
    """
    if model.mode != "ita":
        raise ValueError("decide_with_imagined needs a model in ita mode")
    return decide_prepared(model, [_imagined(history_enc, agent_ids, user_ids)], vocab)[0]


def ita_predict(history: Sequence[Utterance], model: ArbitratorModel,
                agent_imaginator: ImaginatorModel, user_imaginator: ImaginatorModel,
                vocab: Vocabulary, max_len: int, beam_width: int = 1) -> Decision:
    """Imagine both continuations, then arbitrate between the two paths. `max_len`
    is the `max_decode_len` the arbitrator was trained with, and has no default;
    width 1, the default, is the greedy decode that `prepare_samples` trains it on."""
    h_enc = _history_enc(history, vocab)
    agent_ids = beam_decode(agent_imaginator, [h_enc], beam_width=beam_width, max_len=max_len)[0]
    user_ids = beam_decode(user_imaginator, [h_enc], beam_width=beam_width, max_len=max_len)[0]
    return decide_with_imagined(model, h_enc, agent_ids, user_ids, vocab)


def accuracy(predictions: Sequence[int], gold: Sequence[int]) -> float:
    """Exact-match fraction."""
    if len(predictions) == 0 or len(predictions) != len(gold):
        raise ValueError("need equal-length non-empty prediction and gold lists")
    return sum(int(p == g) for p, g in zip(predictions, gold)) / len(gold)


def random_policy_predictions(n: int, seed: int = 0) -> list[int]:
    """Uniform coin-flip wait/reply policy, the no-model reference point."""
    if n < 1:
        raise ValueError("need at least one prediction")
    rng = np.random.default_rng(seed)
    return [int(b) for b in rng.integers(0, 2, size=n)]


def classification_summary(predictions: Sequence[int], gold: Sequence[int]) -> dict:
    """Accuracy plus per-class precision/recall and confusion counts.

    Classes are 0 (wait) and 1 (reply); undefined ratios report as 0.0.
    """
    acc = accuracy(predictions, gold)
    counts = {(p, g): 0 for p in (0, 1) for g in (0, 1)}
    for p, g in zip(predictions, gold):
        counts[(p, g)] += 1
    summary = {"accuracy": acc, "total": len(gold)}
    for c in (0, 1):
        tp = counts[(c, c)]
        predicted = counts[(c, 0)] + counts[(c, 1)]
        actual = counts[(0, c)] + counts[(1, c)]
        summary[f"precision_{c}"] = tp / predicted if predicted else 0.0
        summary[f"recall_{c}"] = tp / actual if actual else 0.0
    for (p, g), n in sorted(counts.items()):
        summary[f"confusion_pred{p}_gold{g}"] = n
    return summary


def decision_record(sample_id: str, decision: Decision) -> dict:
    """Line-record form of a Decision for JSONL emission."""
    return {
        "sample_id": sample_id,
        "label": decision.label,
        "p_wait": float(decision.probs[0]),
        "p_reply": float(decision.probs[1]),
        "imagined_agent": " ".join(decision.imagined_agent),
        "imagined_user": " ".join(decision.imagined_user),
        "flags": list(decision.flags),
    }


# ---------------------------------------------------------------------------
# training plumbing


@dataclass
class PreparedSample:
    """One sample's arbitrator inputs, imaginations included; a decision has no label.
    flags names the imaginations that came out empty (see `_imagined`)."""
    history_enc: EncodedHistory
    label: int | None = None
    agent_ids: list[int] = field(default_factory=list)
    user_ids: list[int] = field(default_factory=list)
    flags: tuple[str, ...] = ()


def prepare_samples(samples: Sequence[ArbitratorSample], vocab: Vocabulary,
                    imaginators: tuple[ImaginatorModel, ImaginatorModel] | None,
                    max_len: int) -> list[PreparedSample]:
    """Encode histories and, in ita mode, cache greedy imaginator decodes.

    The imaginators are frozen during arbitrator training, so each history's
    imagined responses are computed exactly once here, one batched decode
    per imaginator.
    """
    prepared = [PreparedSample(history_enc=_history_enc(s.history, vocab), label=s.label)
                for s in samples]
    if imaginators is None:
        return prepared
    encs = [ps.history_enc for ps in prepared]
    agent_im, user_im = imaginators
    return [_imagined(ps.history_enc, agent_ids, user_ids, ps.label)
            for ps, agent_ids, user_ids in zip(prepared,
                                               greedy_decode(agent_im, encs, max_len=max_len),
                                               greedy_decode(user_im, encs, max_len=max_len))]


def batch_logits(model: ArbitratorModel, batch: Sequence[PreparedSample]) -> ad.Tensor:
    """The wait/reply logits [B, 2] of a batch: the one arbitrator forward.

    All texts go through one encoder call as three role blocks: every
    history, then (ita mode) every agent and every user imagination.
    """
    texts = [ps.history_enc for ps in batch]
    if model.mode == "ita":
        texts += [encode_response_ids(ps.agent_ids, AGENT) for ps in batch]
        texts += [encode_response_ids(ps.user_ids, USER) for ps in batch]
    feats = (textcnn_encode if model.encoder == "textcnn" else bigru_encode)(model, texts)
    if model.mode == "baseline":
        return ad.matmul(feats, model.params["head.W"], bias=model.params["head.b"])
    B = len(batch)
    return fuse_paths(*(ad.part(feats, rows=slice(i * B, (i + 1) * B)) for i in range(3)), model)


def batch_loss(model: ArbitratorModel, batch: Sequence[PreparedSample]) -> ad.Tensor:
    """Mean NLL of the gold wait/reply labels over the batch."""
    nll = ad.log_softmax_nll(batch_logits(model, batch), [ps.label for ps in batch])
    return ad.scale(nll, 1.0 / len(batch))


def train_step(batch: Sequence[PreparedSample], model: ArbitratorModel,
               opt: ad.Adam) -> float:
    loss = batch_loss(model, batch)
    if not loss.is_finite():
        raise ad.TrainingError("arbitrator loss is not finite")
    ad.backward(loss)
    opt.step()
    return loss.item()


def prepared_probs(model: ArbitratorModel, prepared: Sequence[PreparedSample]) -> np.ndarray:
    """Wait/reply probabilities [N, 2] of prepared samples, from no-grad `batch_logits`
    forwards of at most EVAL_SAMPLES samples each. The softmax is taken in float64
    whatever the model's dtype, so each row sums to 1 within float64 rounding, as
    a `Decision` requires."""
    with ad.no_grad():
        return np.concatenate([
            ad.softmax(ad.constant(batch_logits(model, prepared[i:i + EVAL_SAMPLES]).data
                                   .astype(np.float64, copy=False))).data
            for i in range(0, len(prepared), EVAL_SAMPLES)])


def decide_prepared(model: ArbitratorModel, prepared: Sequence[PreparedSample],
                    vocab: Vocabulary) -> list[Decision]:
    """The decisions of prepared samples, their imaginations as words."""
    return [Decision(label=_argmax_label(p), probs=p,
                     imagined_agent=tuple(map(vocab.decode_id, ps.agent_ids)),
                     imagined_user=tuple(map(vocab.decode_id, ps.user_ids)), flags=ps.flags)
            for ps, p in zip(prepared, prepared_probs(model, prepared))]


def evaluate_prepared(model: ArbitratorModel, prepared: Sequence[PreparedSample]) -> float:
    """Accuracy of the argmax labels of `prepared_probs`."""
    preds = [_argmax_label(p) for p in prepared_probs(model, prepared)]
    return accuracy(preds, [ps.label for ps in prepared])
