"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test measures against its stated tolerance and prints a single line
`criterion N: PASS|FAIL (detail)`; the lines are also collected into
acceptance_report.txt at the repository root. Run with -s to see the lines
live; under plain capture they appear on failure and in the report file.

The two training criteria run real experiments (a couple of minutes each on
CPU), so this module dominates suite runtime by design.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles.search_oracle import enumerate_best_sequence
from turntaking import autodiff as ad
from turntaking import cli
from turntaking import corpus as cp
from turntaking import imaginator as im
from turntaking.arbitrator import (
    ArbitratorModel, PreparedSample, accuracy, batch_loss as arb_batch_loss,
    prepare_samples, random_policy_predictions, train_step as arb_train_step,
)
from turntaking.experiments import directional_experiment, synthetic_experiment
from turntaking.imaginator import ImaginatorModel, bleu
from turntaking.synthetic import (
    make_multiwoz_like, make_synthetic_corpus, write_multiwoz_like,
)
from turntaking.training import CheckpointError, load_checkpoint, save_checkpoint

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    _LINES.clear()
    yield
    REPORT_PATH.write_text("\n".join(_LINES) + "\n")


def record(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# criterion 1: consolidated gradient suite


def _op_losses():
    """One scalar loss per differentiable operation, built on fresh params."""
    rng = np.random.default_rng(7)

    def fresh(shapes):
        ps = ad.ParamSet(seed=int(rng.integers(1 << 30)))
        return ps, [ps.new(f"p{i}", s) for i, s in enumerate(shapes)]

    cases = {}

    def case(name, shapes, build):
        assert name not in cases, f"second case for {name}"
        ps, ts = fresh(shapes)
        cases[name] = (ps, lambda: build(*ts))

    case("matmul", [(3, 4), (4, 2), (2,)],
         lambda a, b, c: ad.sum_all(ad.tanh(ad.matmul(a, b, bias=c))))
    case("add", [(3, 4), (3, 4)], lambda a, b: ad.sum_all(ad.add(a, b)))
    case("mul", [(3, 4), (3, 4)], lambda a, b: ad.sum_all(ad.mul(a, b)))
    case("tanh", [(3, 4)], lambda a: ad.sum_all(ad.tanh(a)))
    case("sigmoid", [(3, 4)], lambda a: ad.sum_all(ad.sigmoid(a)))
    case("relu", [(3, 4)], lambda a: ad.sum_all(ad.mul(ad.relu(a), a)))
    case("softmax", [(3, 5)], lambda a: ad.sum_all(ad.mul(ad.softmax(a), a)))
    case("log_softmax_nll", [(3, 5)],
         lambda a: ad.log_softmax_nll(a, [1, 0, 4], mask=np.array([1.0, 1.0, 0.0])))
    # two segments with a gap row between them, and random upstream weights
    up_max = ad.constant(rng.normal(size=(2, 4)))
    case("max_over_time", [(7, 4)],
         lambda a: ad.sum_all(ad.mul(ad.max_over_time(a, [(0, 3), (4, 7)]), up_max)))
    case("part", [(4, 5)],  # two overlapping blocks: their grads must add
         lambda a: ad.sum_all(ad.tanh(ad.mul(ad.part(a, rows=slice(0, 3), cols=slice(0, 3)),
                                             ad.part(a, rows=slice(1, 4), cols=slice(2, 5))))))
    case("sum_all", [(3, 4)], lambda a: ad.sum_all(a))
    case("scale", [(3, 4)], lambda a: ad.sum_all(ad.scale(a, 0.37)))
    case("concat_cols", [(3, 2), (3, 4)],
         lambda a, b: ad.sum_all(ad.tanh(ad.concat_cols([a, b]))))
    case("reshape", [(3, 4)],
         lambda a: ad.sum_all(ad.tanh(ad.reshape(a, (4, 3)))))
    case("rows", [(6, 3)],
         lambda t: ad.sum_all(ad.tanh(ad.rows(t, [0, 2, 2, 5]))))
    case("unfold_rows", [(5, 3)],
         lambda a: ad.sum_all(ad.tanh(ad.unfold_rows(a, 2))))
    # two queries per batch entry, and a constant mask bias that takes no gradient
    score_bias = rng.normal(size=(2, 2))
    case("dot_scores", [(2, 2, 3), (2, 2, 3)],
         lambda q, s: ad.sum_all(ad.tanh(ad.dot_scores(q, s, score_bias))))
    case("weighted_sum", [(2, 2, 2), (2, 2, 3)],
         lambda w, s: ad.sum_all(ad.weighted_sum(ad.softmax(w), s)))
    # packed batches at H=2: LSTM lengths 3, 2, 1 and GRU lengths 3, 1, so every
    # step skips a sequence; nonzero initial states and random upstream weights
    # on every output row, h and c alike
    up_lstm = ad.constant(rng.normal(size=(2 * 6, 2)))
    case("lstm", [(6, 4 * 2), (2, 4 * 2), (3, 2), (3, 2)],
         lambda xw, u, h0, c0: ad.sum_all(ad.mul(ad.lstm(xw, u, h0, c0, [3, 2, 1]), up_lstm)))
    up_gru = ad.constant(rng.normal(size=(4, 2)))
    case("gru", [(4, 3 * 2), (2, 3 * 2), (2, 2)],
         lambda xw, u, h0: ad.sum_all(ad.mul(ad.gru(xw, u, h0, [2, 1, 1]), up_gru)))
    up_place = ad.constant(rng.normal(size=(5, 2)))
    case("place_rows", [(3, 2)],
         lambda a: ad.sum_all(ad.mul(ad.tanh(ad.place_rows(a, [4, 0, 2], 5)), up_place)))
    return cases


def _lstm_model_check():
    vocab_size, h = 12, 8
    model = ImaginatorModel(vocab_size, cp.AGENT, hidden=h, token_dim=5,
                            tag_dim=2, turn_cap=4, subturn_cap=4,
                            max_history=32, use_attention=True, seed=11)
    enc = cp.EncodedHistory(tokens=np.array([7, 8, 9, 10]),
                            roles=np.array([1, 1, 0, 0]),
                            turns=np.array([0, 0, 1, 1]),
                            subturns=np.array([0, 1, 0, 0]))
    target = np.array([cp.BOS, 9, 11, cp.EOS])
    return model.params, lambda: im.teacher_forced_loss(model, [enc], [target])


def _history_for(model):
    return cp.EncodedHistory(tokens=np.array([7, 8, 9]),
                             roles=np.array([1, 1, 0]),
                             turns=np.array([0, 0, 1]),
                             subturns=np.array([0, 1, 0]))


def _textcnn_model_check():
    model = ArbitratorModel(12, encoder="textcnn", mode="ita", token_dim=8,
                            tag_dim=2, filter_widths=(2, 3), filters_per_width=4,
                            turn_cap=4, subturn_cap=4, max_history=32, seed=12)
    ps = PreparedSample(history_enc=_history_for(model), label=1,
                        agent_ids=[7, 10, cp.EOS], user_ids=[8, cp.EOS])
    return model.params, lambda: arb_batch_loss(model, [ps])


def _bigru_model_check():
    model = ArbitratorModel(12, encoder="bigru", mode="baseline", token_dim=5,
                            tag_dim=2, gru_hidden=8, turn_cap=4, subturn_cap=4,
                            max_history=32, seed=13)
    ps = PreparedSample(history_enc=_history_for(model), label=0)
    return model.params, lambda: arb_batch_loss(model, [ps])


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    tol, failures, checked = 1e-4, [], 0
    for name, (params, build) in _op_losses().items():
        err = ad.finite_difference_check(build, params)
        checked += 1
        if err > tol:
            failures.append(f"{name}={err:.2e}")
    for name, maker in (("lstm_seq2seq", _lstm_model_check),
                        ("textcnn", _textcnn_model_check),
                        ("bigru", _bigru_model_check)):
        params, build = maker()
        err = ad.finite_difference_check(build, params)
        checked += 1
        if err > tol:
            failures.append(f"{name}={err:.2e}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    record(1, ok, f"{checked} finite-difference checks, tol 1e-4, "
                  f"failures: {failures or 'none'}, {elapsed:.1f}s of 120s")
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 2: decoding equivalence


def _toy_vocab():
    extra = [f"w{i}" for i in range(6)]
    return cp.Vocabulary(list(cp.RESERVED_TOKENS) + extra, [0] * 7 + [1] * 6)


def _random_history(rng, vocab):
    utts, turn = [], 0
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 5))
        toks = tuple(f"w{int(rng.integers(0, 6))}" for _ in range(n))
        utts.append(cp.Utterance(cp.USER, turn, 0, toks))
        turn += 1
    return utts


def test_criterion_2_decoding_equivalence():
    vocab = _toy_vocab()
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(500 + i)
        model = ImaginatorModel(len(vocab), cp.AGENT if i % 2 else cp.USER,
                                hidden=6, token_dim=4, tag_dim=2, turn_cap=4,
                                subturn_cap=4, max_history=32,
                                use_attention=bool(i % 3), seed=i)
        enc = cp.encode_history(_random_history(rng, vocab), vocab, 32, 4, 4)
        if im.beam_decode(model, [enc], beam_width=1, max_len=6)[0] != \
                im.greedy_decode(model, [enc], max_len=6)[0]:
            mismatches += 1

    exhaustive_bad = 0
    enc = cp.EncodedHistory(tokens=np.array([0, 1, 2]), roles=np.array([0, 1, 1]),
                            turns=np.array([0, 1, 1]), subturns=np.array([0, 0, 1]))
    for seed in range(5):
        model = ImaginatorModel(vocab_size=3, role=cp.AGENT, hidden=4,
                                token_dim=3, tag_dim=2, turn_cap=2, subturn_cap=2,
                                max_history=16, seed=seed)
        got = im.beam_decode(model, [enc], beam_width=27, max_len=3)[0]
        want = enumerate_best_sequence(model, enc, vocab_size=3, max_len=3)
        if got != want:
            exhaustive_bad += 1

    ok = mismatches == 0 and exhaustive_bad == 0
    record(2, ok, f"beam1 vs greedy mismatches {mismatches}/100, exhaustive "
                  f"V=3 max_len=3 mismatches {exhaustive_bad}/5")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: BLEU oracle fixtures


def test_criterion_3_bleu_fixtures():
    from test_bleu import CASES
    bad = []
    for name, cands, refs, expected in CASES:
        if abs(bleu(cands, refs) - expected) > 1e-9:
            bad.append(name)
    self_sents = [["the", "cat", "sat"], ["hello", "world"]]
    identity_ok = bleu(self_sents, self_sents) == 1.0
    disjoint_ok = bleu([["x", "y", "z"]], [["a", "b", "c"]]) == 0.0
    ok = not bad and identity_ok and disjoint_ok and len(CASES) >= 10
    record(3, ok, f"{len(CASES)} frozen fixtures at 1e-9, mismatches: "
                  f"{bad or 'none'}, self=1.0 {identity_ok}, disjoint=0.0 {disjoint_ok}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: pipeline determinism and reconstruction


def test_criterion_4_pipeline_determinism(tmp_path):
    raw = tmp_path / "raw.json"
    write_multiwoz_like(make_multiwoz_like(60, seed=9), raw)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli.main(["preprocess", "--input", str(raw), "--format",
                       "multiwoz-like", "--p-split", "0.6", "--seed", "4",
                       "--out", str(out)])
        assert rc == 0
    names = sorted(p.name for p in out_a.iterdir())
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in names)

    # splitting must only re-segment: concatenating subturns of each user
    # turn reproduces the unsplit token stream exactly
    dialogues, annotations, _ = cp.ingest_source(raw, "multiwoz-like")
    plain = cp.modify_corpus(dialogues, annotations, 0.0, seed=4)
    split = cp.modify_corpus(dialogues, annotations, 0.6, seed=4)
    recon_ok = True
    for d0, d1 in zip(plain, split):
        merged = {}
        for u in d1.utterances:
            key = (u.role, u.turn_index)
            merged.setdefault(key, []).extend(u.tokens)
        for u in d0.utterances:
            if merged.get((u.role, u.turn_index)) != list(u.tokens):
                recon_ok = False

    out_c = tmp_path / "c"
    rc = cli.main(["preprocess", "--input", str(raw), "--format",
                   "multiwoz-like", "--p-split", "0", "--seed", "4",
                   "--out", str(out_c)])
    stats_ok = rc == 0 and "Avg. Split User Turns: 1.000000" in \
        (out_c / "stats.txt").read_text()

    ok = identical and recon_ok and stats_ok
    record(4, ok, f"rerun byte-identical {identical} over {len(names)} files, "
                  f"subturn reconstruction exact {recon_ok}, "
                  f"p_split=0 avg split turns 1.0 {stats_ok}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: random baseline vs class prior


def test_criterion_5_random_baseline():
    t0 = time.monotonic()
    labels = [s.label for d in make_synthetic_corpus(2000, seed=0)
              for s in cp.derive_arbitrator_samples(d)]
    prior = max(sum(labels) / len(labels), 1.0 - sum(labels) / len(labels))
    acc = accuracy(random_policy_predictions(len(labels), seed=5), labels)
    gap = abs(acc - prior)
    elapsed = time.monotonic() - t0
    ok = gap <= 0.03 and elapsed < 60.0
    record(5, ok, f"random policy {acc:.4f} vs class prior {prior:.4f}, "
                  f"gap {gap:.4f} of 0.03, {elapsed:.1f}s of 60s")
    assert ok


# ---------------------------------------------------------------------------
# criteria 6 and 7: end-to-end training runs


def test_criterion_6_synthetic_end_to_end(tmp_path):
    rep = synthetic_experiment(tmp_path, n_dialogues=2000, seed=0,
                               imaginator_epochs=10, arbitrator_epochs=8)
    agent_own = rep["agent_bleu_on_agent_targets"]
    agent_cross = rep["agent_bleu_on_user_targets"]
    user_own = rep["user_bleu_on_user_targets"]
    user_cross = rep["user_bleu_on_agent_targets"]
    asym_ok = agent_own >= 3.0 * agent_cross and user_own >= 3.0 * user_cross \
        and agent_own > 0.0 and user_own > 0.0
    ita, base = rep["ita_valid_accuracy"], rep["baseline_valid_accuracy"]
    acc_ok = ita >= base and ita >= 0.90 and base >= 0.90
    budget_ok = rep["total_seconds"] < 900.0
    ok = asym_ok and acc_ok and budget_ok
    record(6, ok, f"agent bleu {agent_own:.3f} own vs {agent_cross:.3f} cross, "
                  f"user {user_own:.3f} vs {user_cross:.3f} (need 3x); "
                  f"ita {ita:.3f} >= baseline {base:.3f}, both >= 0.90; "
                  f"{rep['total_seconds']:.0f}s of 900s")
    assert ok, rep


def test_criterion_7_directional_reduced_scale(tmp_path):
    rep = directional_experiment(tmp_path, n_dialogues=500, seed=0)
    ita, base = rep["ita_test_accuracy"], rep["baseline_test_accuracy"]
    budget_ok = rep["total_seconds"] < 7200.0
    ok = ita >= base and budget_ok
    record(7, ok, f"ita test accuracy {ita:.4f} >= baseline {base:.4f}; "
                  f"reported not asserted: random {rep['random_policy_test_accuracy']:.4f}, "
                  f"prior {rep['test_prior_majority']:.4f}, agent bleu "
                  f"{rep['agent_bleu_on_agent_targets']:.3f}, user bleu "
                  f"{rep['user_bleu_on_user_targets']:.3f}; "
                  f"{rep['total_seconds']:.0f}s of 7200s")
    assert ok, rep


# ---------------------------------------------------------------------------
# criterion 8: persistence


def test_criterion_8_persistence(tmp_path):
    vocab = _toy_vocab()
    model = ImaginatorModel(len(vocab), cp.AGENT, hidden=8, token_dim=5,
                            tag_dim=2, turn_cap=4, subturn_cap=4,
                            max_history=64, seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, vocab.hash())
    loaded = load_checkpoint(path, expected_vocab_hash=vocab.hash()).model
    bit_exact = all(np.array_equal(a, b) for (_, a), (_, b) in zip(
        sorted(model.params.as_arrays().items()),
        sorted(loaded.params.as_arrays().items())))

    decode_same = True
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        enc = cp.encode_history(_random_history(rng, vocab), vocab, 64, 4, 4)
        if im.beam_decode(model, [enc], beam_width=3, max_len=6)[0] != \
                im.beam_decode(loaded, [enc], beam_width=3, max_len=6)[0]:
            decode_same = False

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    try:
        load_checkpoint(bad)
        rejected = False
    except CheckpointError:
        rejected = True

    ok = bit_exact and decode_same and rejected
    record(8, ok, f"round trip bit-exact {bit_exact}, 50-history decode "
                  f"identity {decode_same}, corrupted file rejected {rejected}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: overfit one sample


def _overfit_imaginator():
    vocab = _toy_vocab()
    model = ImaginatorModel(len(vocab), cp.AGENT, hidden=12, token_dim=6,
                            tag_dim=2, turn_cap=4, subturn_cap=4,
                            max_history=32, seed=31)
    sample = cp.ImaginatorSample(
        history=(cp.Utterance(cp.USER, 0, 0, ("w0", "w1", "w2")),),
        target=cp.Utterance(cp.AGENT, 0, 0, ("w3", "w4")), role=cp.AGENT)
    opt = ad.Adam(model.params, lr=5e-3, clip_norm=5.0)
    batch = im.prepare_samples([sample], model, vocab)
    for step in range(1, 501):
        loss = im.train_step(batch, model, opt)
        if loss < 0.1:
            return step, loss
    return 500, loss


def _overfit_arbitrator(encoder, mode):
    model = ArbitratorModel(12, encoder=encoder, mode=mode, token_dim=6,
                            tag_dim=2, filter_widths=(2, 3), filters_per_width=6,
                            gru_hidden=8, turn_cap=4, subturn_cap=4,
                            max_history=32, seed=32)
    ps = PreparedSample(history_enc=_history_for(model), label=1,
                        agent_ids=[7, cp.EOS], user_ids=[8, cp.EOS])
    opt = ad.Adam(model.params, lr=5e-3, clip_norm=5.0)
    for step in range(1, 501):
        loss = arb_train_step([ps], model, opt)
        if loss < 0.1:
            return step, loss
    return 500, loss


def test_criterion_9_overfit_one_sample():
    results = {"imaginator": _overfit_imaginator(),
               "textcnn_ita": _overfit_arbitrator("textcnn", "ita"),
               "bigru_baseline": _overfit_arbitrator("bigru", "baseline")}
    ok = all(loss < 0.1 for _, loss in results.values())
    detail = ", ".join(f"{k} loss {l:.4f} at step {s}"
                       for k, (s, l) in results.items())
    record(9, ok, detail + " (need < 0.1 within 500 steps)")
    assert ok, results
