"""The teacher-forced imaginator loss taken one decoder step at a time.

This is the per-step form that the library's batched pass replaced: after the
one decoder LSTM call, each step t reads its states h_t [B, H], attends with a
single query per history, projects through W_c and W_v, and takes its own
cross-entropy term; one product sums the terms. It uses the same autodiff ops
as the library, so loss and gradients can be compared with the batched form,
which differs only in the order of its sums.
"""

import numpy as np

from oracles import total
from turntaking import autodiff as ad
from turntaking import imaginator as im
from turntaking.corpus import PAD


def per_step_teacher_forced_loss(model, encs, targets):
    """`imaginator.teacher_forced_loss`, with a Python loop over decoder steps."""
    B = len(encs)
    T_dec = max(len(t) for t in targets) - 1
    inp = np.full((B, T_dec), PAD, dtype=np.int64)
    out = np.zeros((B, T_dec), dtype=np.int64)
    tmask = np.zeros((B, T_dec))
    for b, t in enumerate(targets):
        inp[b, :len(t) - 1] = t[:-1]
        out[b, :len(t) - 1] = t[1:]
        tmask[b, :len(t) - 1] = 1.0
    p = model.params
    enc_states, mask, h, c = im.encode_batch(model, encs)
    bias = im.attention_bias(mask)
    H = model.hidden
    xw = im.project(ad.rows(p["emb.token"], inp.T.ravel()), p, "dec")
    hs = ad.lstm(xw, p["dec.U"], h, c, [B] * T_dec)
    steps = []
    for t in range(T_dec):
        h_t = ad.part(hs, rows=slice(t * B, (t + 1) * B))  # time-major rows
        scores = ad.dot_scores(ad.reshape(h_t, (B, 1, H)), enc_states, bias)
        ctx = ad.weighted_sum(ad.softmax(scores), enc_states)
        h_t = ad.tanh(ad.matmul(ad.concat_cols([h_t, ad.reshape(ctx, (B, H))]),
                                p["attn.W_c"], bias=p["attn.b_c"]))
        logits = ad.matmul(h_t, p["out.W_v"], bias=p["out.b_v"])
        steps.append(ad.reshape(ad.log_softmax_nll(logits, out[:, t], mask=tmask[:, t]), (1, 1)))
    return ad.scale(total(ad.concat_cols(steps), 1.0), 1.0 / B)
