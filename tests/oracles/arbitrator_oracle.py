"""The per-sample arbitrator forward: every text of every sample encoded alone.

`arbitrator.batch_logits` encodes all texts of a batch in one encoder call;
the tests pin its logits and gradients to this path, which is how the
package ran before. It uses the package's tape ops and parameter layout but
none of its batching: one text is one TextCNN map, whose windows are copied
out side by side, multiplied as one matrix and rectified by a ReLU node of
their own, or one B=1 Bi-GRU pass, whose backward direction reverses the
projected rows of that text alone.
"""

from __future__ import annotations

import numpy as np

from turntaking import autodiff as ad
from turntaking.arbitrator import (
    PreparedSample, _normalize_for_cnn, encode_response_ids, fuse_paths,
)
from turntaking.corpus import AGENT, EOS, PAD, USER
from turntaking.imaginator import embed_records, greedy_decode, project


def relu(a: ad.Tensor) -> ad.Tensor:
    """max(a, 0) as a tape node of its own, as the package had it before `conv_rows`
    took the ReLU in."""
    return ad.Tensor(np.maximum(a.data, 0.0), _parents=(a,),
                     _bwd=lambda g: ad._acc(a, g * (a.data > 0), fresh=True))


def textcnn_text(model, enc) -> ad.Tensor:
    """[1, total filters] for one text."""
    emb = embed_records(model.params, _normalize_for_cnn(enc, max(model.filter_widths), 0))
    feats = []
    for k in model.filter_widths:
        n_win = emb.shape[0] - k + 1  # window i is rows i .. i + k - 1, side by side
        windows = ad.concat_cols([ad.part(emb, rows=slice(j, j + n_win)) for j in range(k)])
        fmap = relu(ad.matmul(windows, model.params[f"cnn.W_{k}"],
                                 bias=model.params[f"cnn.b_{k}"]))
        feats.append(ad.max_over_time(fmap, [(0, n_win)]))
    return ad.concat_cols(feats)


def bigru_text(model, enc) -> ad.Tensor:
    """[1, 2h] for one text: final forward state, then final backward state."""
    L = len(enc)
    emb = embed_records(model.params, enc)
    h0 = ad.constant(np.zeros((1, model.hidden)))
    finals = []
    for prefix, order in (("gru_f", slice(None)), ("gru_b", slice(None, None, -1))):
        xw = ad.part(project(emb, model.params, prefix), rows=order)
        states = ad.gru(xw, model.params[f"{prefix}.U"], h0, [1] * L)
        finals.append(ad.part(states, rows=slice(L - 1, L)))
    return ad.concat_cols(finals)


def sample_logits(model, ps) -> ad.Tensor:
    """The [1, 2] logits of one sample."""
    encode = textcnn_text if model.encoder == "textcnn" else bigru_text
    c_his = encode(model, ps.history_enc)
    if model.mode == "ita":
        c_agent = encode(model, encode_response_ids(ps.agent_ids, AGENT))
        c_user = encode(model, encode_response_ids(ps.user_ids, USER))
        return fuse_paths(c_his, c_agent, c_user, model)
    return ad.matmul(c_his, model.params["head.W"], bias=model.params["head.b"])


def batch_loss(model, batch) -> ad.Tensor:
    """Mean NLL of the gold labels, from the per-sample logits stacked to [B, 2]."""
    logits = ad.reshape(ad.concat_cols([sample_logits(model, ps) for ps in batch]),
                        (len(batch), 2))
    return ad.scale(ad.log_softmax_nll(logits, [ps.label for ps in batch]), 1.0 / len(batch))


def decision(model, history_enc, imaginators, max_len):
    """(label, [p_wait, p_reply], flags) of one ita sample decided alone: each
    imaginator decodes this one history greedily, an imagination of nothing but
    PAD becomes [EOS] and is flagged, and the logits are `sample_logits`."""
    ids, flags = {}, []
    for role, imaginator in zip((AGENT, USER), imaginators):
        ids[role] = greedy_decode(imaginator, [history_enc], max_len=max_len)[0]
        if all(i == PAD for i in ids[role]):
            ids[role] = [EOS]
            flags.append(f"empty_{role}_generation")
    ps = PreparedSample(history_enc, agent_ids=ids[AGENT], user_ids=ids[USER])
    with ad.no_grad():
        probs = ad.softmax(sample_logits(model, ps)).data[0]
    return int(probs[1] >= probs[0]), probs, flags
