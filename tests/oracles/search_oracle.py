"""Independent scalar re-derivation of the seq2seq forward pass, plus an
exhaustive search over all decode sequences.

Everything here is explicit python loops over raw parameter arrays (no tape,
no batching, no fused matmuls), so it can referee the library's one forward
pass, which training and decoding share, and serve as the ground truth for
beam search. Each gate reads its column block of the fused W, U and b.
"""

import math

BOS_ID = 2
EOS_ID = 3


def _sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))


def _cell(P, prefix, x, h, c, H):
    W, U, b = P[f"{prefix}.W"], P[f"{prefix}.U"], P[f"{prefix}.b"]
    pre = {}
    for k, g in enumerate("fiog"):  # gate g owns columns k*H .. k*H + H - 1
        pre[g] = [sum(x[i] * W[i][k * H + j] for i in range(len(x)))
                  + sum(h[i] * U[i][k * H + j] for i in range(H)) + b[k * H + j]
                  for j in range(H)]
    out_h, out_c = [0.0] * H, [0.0] * H
    for j in range(H):
        f = _sigmoid(pre["f"][j])
        i_ = _sigmoid(pre["i"][j])
        o = _sigmoid(pre["o"][j])
        g_ = math.tanh(pre["g"][j])
        out_c[j] = f * c[j] + i_ * g_
        out_h[j] = o * math.tanh(out_c[j])
    return out_h, out_c


def scalar_seq2seq_logprobs(model, enc, token_seq):
    """Per-step log-probabilities of token_seq under teacher forcing."""
    P = {k: v.data for k, v in model.params.items()}
    H = model.hidden
    h, c = [0.0] * H, [0.0] * H
    states = []
    for t in range(len(enc)):
        x = (list(P["emb.token"][enc.tokens[t]]) + list(P["emb.role"][enc.roles[t]])
             + list(P["emb.turn"][enc.turns[t]]) + list(P["emb.subturn"][enc.subturns[t]]))
        h, c = _cell(P, "enc", x, h, c, H)
        states.append(list(h))
    logps = []
    prev = BOS_ID
    for tok in token_seq:
        x = list(P["emb.token"][prev])
        h, c = _cell(P, "dec", x, h, c, H)
        scores = [sum(h[j] * s[j] for j in range(H)) for s in states]
        mx = max(scores)
        es = [math.exp(s - mx) for s in scores]
        Z = sum(es)
        ctx = [sum(es[t] / Z * states[t][j] for t in range(len(states))) for j in range(H)]
        cat = h + ctx
        Wc, bc = P["attn.W_c"], P["attn.b_c"]
        out = [math.tanh(sum(cat[i] * Wc[i][j] for i in range(2 * H)) + bc[j])
               for j in range(H)]
        Wv, bv = P["out.W_v"], P["out.b_v"]
        logits = [sum(out[i] * Wv[i][j] for i in range(H)) + bv[j]
                  for j in range(model.vocab_size)]
        mx = max(logits)
        Z = sum(math.exp(l - mx) for l in logits)
        logps.append(logits[tok] - mx - math.log(Z))
        prev = tok
    return logps


def enumerate_best_sequence(model, enc, vocab_size, max_len, alpha=0.7):
    """Brute-force best decode: every path terminating at EOS or max_len,
    scored by total logprob / length^alpha, ties to the smallest sequence."""
    best = None

    def walk(seq):
        nonlocal best
        if seq and (seq[-1] == EOS_ID or len(seq) == max_len):
            logp = sum(scalar_seq2seq_logprobs(model, enc, seq))
            key = (-logp / (len(seq) ** alpha), tuple(seq))
            if best is None or key < best[0]:
                best = (key, [t for t in seq if t != EOS_ID])
            return
        for tok in range(vocab_size):
            walk(seq + [tok])

    walk([])
    return best[1]
