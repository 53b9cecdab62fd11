"""Imaginator tests: recurrence oracle, decode search, training behavior.

Training and decoding share one forward implementation. The scalar-loop
forward in tests/oracles/search_oracle.py referees it under teacher forcing
and is the ground truth for beam search; a batch of histories is pinned to
decoding each history alone, at every width.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turntaking import autodiff as ad
from turntaking import corpus as cp
from turntaking import imaginator as im

from oracles.decoder_oracle import per_step_teacher_forced_loss
from oracles.search_oracle import enumerate_best_sequence, scalar_seq2seq_logprobs


def small_vocab(n_words: int = 6) -> cp.Vocabulary:
    words = tuple(f"w{i}" for i in range(n_words))
    d = cp.Dialogue("v", (cp.Utterance(cp.USER, 0, 0, words),))
    return cp.build_vocabulary([d])


def tiny_model(seed=0, V=13, role=cp.AGENT, hidden=6, token_dim=5, tag_dim=2,
               use_attention=True):
    return im.ImaginatorModel(vocab_size=V, role=role, hidden=hidden,
                              token_dim=token_dim, tag_dim=tag_dim,
                              turn_cap=4, subturn_cap=3, max_history=32,
                              use_attention=use_attention, seed=seed)


def rand_history(rng, n_utts=2, n_words=5):
    utts = []
    for t in range(n_utts):
        role = cp.USER if t % 2 else cp.AGENT
        toks = tuple(f"w{rng.integers(0, n_words)}" for _ in range(rng.integers(1, 5)))
        utts.append(cp.Utterance(role, t, 0, toks))
    return utts


def enc_of(model, history, vocab):
    return cp.encode_history(history, vocab, model.max_history,
                             model.turn_cap, model.subturn_cap)


class TestModel:
    def test_attention_param_names(self):
        assert sorted(tiny_model().params.names()) == sorted([
            "emb.token", "emb.role", "emb.turn", "emb.subturn",
            "enc.W", "enc.U", "enc.b", "dec.W", "dec.U", "dec.b",
            "attn.W_c", "attn.b_c", "out.W_v", "out.b_v"])

    def test_fused_gate_shapes(self):
        m = tiny_model(hidden=6, token_dim=5, tag_dim=2)
        assert m.params["enc.W"].shape == (5 + 3 * 2, 24)
        assert m.params["dec.W"].shape == (5, 24)
        for prefix in ("enc", "dec"):
            assert m.params[f"{prefix}.U"].shape == (6, 24)
            assert m.params[f"{prefix}.b"].shape == (24,)


class TestLstmStep:
    def test_zero_params_halve_cell_state(self):
        m = tiny_model(V=5, hidden=3, token_dim=2, tag_dim=1)
        for _, p in m.params.items():
            p.data[:] = 0.0
        c0 = np.array([[0.4, -0.2, 1.0]])
        xw = ad.constant(np.zeros((1, 12)))  # projected input: 4 gates x hidden 3
        h, c = im.lstm_step(xw, ad.constant(np.zeros((1, 3))), ad.constant(c0),
                            m.params, "enc")
        np.testing.assert_allclose(c.data, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_zero_everything_fixed_point(self):
        m = tiny_model(V=5, hidden=3, token_dim=2, tag_dim=1)
        for _, p in m.params.items():
            p.data[:] = 0.0
        z = ad.constant(np.zeros((1, 3)))
        h, c = im.lstm_step(ad.constant(np.zeros((1, 12))), z, z, m.params, "enc")
        assert np.all(h.data == 0.0) and np.all(c.data == 0.0)

    def test_shape_mismatch_rejected(self):
        m = tiny_model()
        with pytest.raises(ad.ShapeError):
            im.lstm_step(ad.constant(np.zeros((1, 3))),  # wrong projected width
                         ad.constant(np.zeros((1, m.hidden))),
                         ad.constant(np.zeros((1, m.hidden))), m.params, "enc")

    def test_matches_scalar_oracle(self):
        """The whole teacher-forced pipeline agrees with the loop re-derivation."""
        vocab = small_vocab()
        m = tiny_model(seed=3, V=len(vocab))
        hist = rand_history(np.random.default_rng(0), n_utts=3)
        enc = enc_of(m, hist, vocab)
        tids = cp.encode_target(("w1", "w0", "w2"), vocab)
        loss = im.teacher_forced_loss(m, [enc], [tids])
        oracle = -sum(scalar_seq2seq_logprobs(m, enc, [int(t) for t in tids[1:]]))
        assert abs(loss.item() - oracle) < 1e-12


def encode_one(model, enc):
    """Per-step states [T, H] and the final (h, c) of one history."""
    stacked, _, h, c = im.encode_batch(model, [enc])
    return stacked.data[0], (h.data[0], c.data[0])


class TestEncode:
    def test_length_one_equals_single_step_from_zero(self):
        vocab = small_vocab()
        m = tiny_model(seed=1, V=len(vocab))
        enc = enc_of(m, [cp.Utterance(cp.USER, 0, 0, ("w2",))], vocab)
        states, (h, c) = encode_one(m, enc)
        assert len(states) == 1
        xw = im.project(im.embed_records(m.params, enc), m.params, "enc")
        z = ad.constant(np.zeros((1, m.hidden)))
        h1, _ = im.lstm_step(xw, z, z, m.params, "enc")
        np.testing.assert_allclose(states[0], h1.data[0], atol=1e-15)
        np.testing.assert_allclose(h, h1.data[0], atol=1e-15)

    def test_deterministic(self):
        vocab = small_vocab()
        m = tiny_model(seed=2, V=len(vocab))
        enc = enc_of(m, rand_history(np.random.default_rng(5)), vocab)
        s1, f1 = encode_one(m, enc)
        s2, f2 = encode_one(m, enc)
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))
        assert np.array_equal(f1[0], f2[0]) and np.array_equal(f1[1], f2[1])

    def test_prefix_consistency(self):
        """States for a length-n history extend the length n-1 run unchanged."""
        vocab = small_vocab()
        m = tiny_model(seed=4, V=len(vocab))
        hist = rand_history(np.random.default_rng(9), n_utts=3)
        full = enc_of(m, hist, vocab)
        prefix = cp.EncodedHistory(tokens=full.tokens[:-1], roles=full.roles[:-1],
                                   turns=full.turns[:-1], subturns=full.subturns[:-1])
        s_full, _ = encode_one(m, full)
        s_pre, _ = encode_one(m, prefix)
        for a, b in zip(s_pre, s_full):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_empty_history_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            im.encode_batch(m, [])

    def test_padded_batch_matches_single(self):
        """Each history of a mixed batch (unsorted lengths, ties, length one) encodes as
        it does alone: states at its positions and final (h, c); padding states are 0."""
        vocab = small_vocab()
        m = tiny_model(seed=6, V=len(vocab))
        rng = np.random.default_rng(2)
        encs = [enc_of(m, rand_history(rng, n_utts=k), vocab) for k in (2, 1, 3, 1, 3, 2)]
        encs.insert(2, cp.EncodedHistory(*(f[:1] for f in (encs[0].tokens, encs[0].roles,
                                                             encs[0].turns, encs[0].subturns))))
        assert len({len(e) for e in encs}) < len(encs) and min(len(e) for e in encs) == 1
        stacked, mask, hf, cf = im.encode_batch(m, encs)
        for b, e in enumerate(encs):
            s_single, (h_single, c_single) = encode_one(m, e)
            assert mask[b].tolist() == [1.0] * len(e) + [0.0] * (mask.shape[1] - len(e))
            np.testing.assert_allclose(stacked.data[b, :len(e)], s_single, atol=1e-14)
            assert not stacked.data[b, len(e):].any()
            np.testing.assert_allclose(hf.data[b], h_single, atol=1e-14)
            np.testing.assert_allclose(cf.data[b], c_single, atol=1e-14)


class TestAttention:
    def test_single_state_returns_it(self):
        h = ad.constant(np.array([[[0.3, -0.5]]]))
        states = ad.constant(np.array([[[1.0, 2.0]]]))
        ctx, w = im.attention_context(h, states, im.attention_bias(np.ones((1, 1))))
        np.testing.assert_allclose(ctx.data, [[[1.0, 2.0]]], atol=1e-15)
        np.testing.assert_allclose(w.data, [[[1.0]]], atol=1e-15)

    def test_identical_states_half_weights(self):
        h = ad.constant(np.array([[[0.7, 0.1]]]))
        states = ad.constant(np.array([[[0.2, 0.9], [0.2, 0.9]]]))
        _, w = im.attention_context(h, states, im.attention_bias(np.ones((1, 2))))
        np.testing.assert_allclose(w.data, [[[0.5, 0.5]]], atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        h = ad.constant(rng.normal(size=(3, 2, 4)))  # two queries per history
        states = ad.constant(np.stack([rng.normal(size=(3, 4)) for _ in range(5)], axis=1))
        mask = np.ones((3, 5))
        mask[1, 3:] = 0.0
        _, w = im.attention_context(h, states, im.attention_bias(mask))
        np.testing.assert_allclose(w.data.sum(axis=2), 1.0, atol=1e-9)
        assert np.all(w.data[1, :, 3:] == 0.0)

    def test_fully_masked_rejected(self):
        with pytest.raises(ValueError):
            im.attention_bias(np.zeros((2, 1)))


class TestTrainStep:
    def test_untrained_loss_near_log_v(self):
        # length-1 target: summed loss is the BOS->token step plus the EOS step
        vocab = small_vocab()
        V = len(vocab)
        m = tiny_model(seed=11, V=V, hidden=8)
        # squash output parameters so probabilities start near uniform
        m.params["out.W_v"].data *= 1e-3
        m.params["out.b_v"].data *= 0.0
        s = cp.ImaginatorSample(
            history=(cp.Utterance(cp.USER, 0, 0, ("w0",)),),
            target=cp.Utterance(cp.AGENT, 1, 0, ("w1",)), role=cp.AGENT)
        enc = enc_of(m, s.history, vocab)
        tids = cp.encode_target(s.target.tokens, vocab)
        loss = im.teacher_forced_loss(m, [enc], [tids]).item()
        assert loss == pytest.approx(2 * np.log(V), rel=0.01)

    def test_overfit_single_sample(self):
        vocab = small_vocab()
        m = tiny_model(seed=7, V=len(vocab), hidden=24, token_dim=12, tag_dim=3)
        s = cp.ImaginatorSample(
            history=(cp.Utterance(cp.USER, 0, 0, ("w0", "w1", "w0")),),
            target=cp.Utterance(cp.AGENT, 1, 0, ("w1", "w0")), role=cp.AGENT)
        opt = ad.Adam(m.params, lr=5e-3)
        loss = float("inf")
        for step in range(500):
            loss = im.train_step(im.prepare_samples([s], m, vocab), m, opt)
            if loss < 0.1:
                break
        assert loss < 0.1

    def test_identical_seeds_identical_losses(self):
        vocab = small_vocab()

        def run():
            m = tiny_model(seed=13, V=len(vocab))
            opt = ad.Adam(m.params, lr=1e-2)
            s = cp.ImaginatorSample(
                history=(cp.Utterance(cp.USER, 0, 0, ("w2", "w3")),),
                target=cp.Utterance(cp.AGENT, 1, 0, ("w4",)), role=cp.AGENT)
            batch = im.prepare_samples([s], m, vocab)
            return [im.train_step(batch, m, opt) for _ in range(5)]

        assert run() == run()

    def test_out_of_vocab_target_raises(self):
        vocab = small_vocab()
        m = tiny_model(seed=1, V=5)  # smaller than the vocab on purpose
        enc = enc_of(m, [cp.Utterance(cp.USER, 0, 0, ("w0",))], vocab)
        bad = np.array([cp.BOS, len(vocab) + 3, cp.EOS])
        with pytest.raises(IndexError):
            im.teacher_forced_loss(m, [enc], [bad])


def _grads(model, loss):
    model.params.zero_grads()
    ad.backward(loss)
    grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    model.params.zero_grads()
    return grads


class TestBatchedDecoder:
    """The one-pass teacher-forced decoder against the per-step loop it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_per_step_oracle(self, B, use_attention, seed):
        rng = np.random.default_rng(seed)
        vocab = small_vocab()
        m = tiny_model(seed=seed % 1000, V=len(vocab), use_attention=use_attention)
        encs = [enc_of(m, rand_history(rng, n_utts=int(rng.integers(1, 4))), vocab)
                for _ in range(B)]
        targets = [cp.encode_target(tuple(f"w{i}" for i in rng.integers(0, 5, size=n)), vocab)
                   for n in rng.integers(0, 6, size=B)]
        batched = im.teacher_forced_loss(m, encs, targets)
        oracle = per_step_teacher_forced_loss(m, encs, targets)
        assert abs(batched.item() - oracle.item()) <= 1e-12 * abs(oracle.item())
        g_batched, g_oracle = _grads(m, batched), _grads(m, oracle)
        assert sorted(g_batched) == sorted(g_oracle) == sorted(m.params.names())
        for name, g in g_oracle.items():
            err = np.abs(g_batched[name] - g).max()
            assert err <= 1e-12 * np.abs(g).max(), name

    def test_tape_does_not_grow_with_target_length(self):
        """One decoder pass records the same number of nodes for 2 steps as for 12."""
        vocab = small_vocab()
        m = tiny_model(seed=5, V=len(vocab))
        enc = enc_of(m, rand_history(np.random.default_rng(1)), vocab)

        def nodes(n_words):
            loss = im.teacher_forced_loss(m, [enc], [cp.encode_target(("w1",) * n_words, vocab)])
            seen, stack = set(), [loss]
            while stack:
                t = stack.pop()
                if id(t) not in seen:
                    seen.add(id(t))
                    stack.extend(t._parents)
            return len(seen)

        assert nodes(1) == nodes(11)


class TestGreedyDecode:
    def _rigged(self, bias_token, V=8):
        m = tiny_model(seed=0, V=V, use_attention=False)
        for _, p in m.params.items():
            p.data[:] = 0.0
        m.params["out.b_v"].data[bias_token] = 5.0
        return m

    def test_immediate_eos_gives_empty(self):
        m = self._rigged(cp.EOS)
        enc = cp.EncodedHistory(*(np.array([0]),) * 4)
        assert im.greedy_decode(m, [enc], max_len=10)[0] == []

    def test_runs_to_cap_without_eos(self):
        m = self._rigged(6)
        enc = cp.EncodedHistory(*(np.array([0]),) * 4)
        out = im.greedy_decode(m, [enc], max_len=7)[0]
        assert out == [6] * 7

    def test_tie_goes_to_lowest_id(self):
        m = tiny_model(seed=0, V=6, use_attention=False)
        for _, p in m.params.items():
            p.data[:] = 0.0  # all logits equal at every step
        enc = cp.EncodedHistory(*(np.array([0]),) * 4)
        assert im.greedy_decode(m, [enc], max_len=3)[0] == [0, 0, 0]

    def test_length_bound(self):
        vocab = small_vocab()
        rng = np.random.default_rng(3)
        for seed in range(10):
            m = tiny_model(seed=seed, V=len(vocab))
            enc = enc_of(m, rand_history(rng), vocab)
            assert len(im.greedy_decode(m, [enc], max_len=5)[0]) <= 5

    def test_empty_list_gives_empty_list(self):
        assert im.greedy_decode(tiny_model(), [], max_len=5) == []

    @settings(max_examples=40, deadline=None)
    @given(n_utts=st.lists(st.integers(1, 4), min_size=1, max_size=7),
           seed=st.integers(0, 2**32 - 1), attention=st.booleans(), data=st.data())
    def test_batch_equals_one_at_a_time(self, n_utts, seed, attention, data):
        """Histories of mixed length, in any order, decode as they do alone."""
        vocab = small_vocab()
        m = tiny_model(seed=seed % 97, V=len(vocab), use_attention=attention)
        rng = np.random.default_rng(seed)
        encs = [enc_of(m, rand_history(rng, n_utts=n), vocab) for n in n_utts]
        encs = [encs[i] for i in data.draw(st.permutations(range(len(encs))))]
        assert im.greedy_decode(m, encs, max_len=8) == \
            [im.greedy_decode(m, [e], max_len=8)[0] for e in encs]

    def test_chunks_equal_one_batch(self, monkeypatch):
        vocab = small_vocab()
        m = tiny_model(seed=8, V=len(vocab))
        rng = np.random.default_rng(12)
        encs = [enc_of(m, rand_history(rng, n_utts=int(rng.integers(1, 4))), vocab)
                for _ in range(7)]
        whole = im.greedy_decode(m, encs, max_len=8)
        monkeypatch.setattr(im, "SEARCH_ROWS", 3)
        assert im.greedy_decode(m, encs, max_len=8) == whole


class TestBeamDecode:
    def test_beam_one_equals_greedy(self):
        vocab = small_vocab()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = tiny_model(seed=seed, V=len(vocab), use_attention=bool(seed % 2))
            enc = enc_of(m, rand_history(rng, n_utts=int(rng.integers(1, 4))), vocab)
            assert im.beam_decode(m, [enc], beam_width=1, max_len=8)[0] == \
                im.greedy_decode(m, [enc], max_len=8)[0]

    @settings(max_examples=30, deadline=None)
    @given(n_utts=st.lists(st.integers(1, 4), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), attention=st.booleans(), tied=st.booleans())
    def test_batch_equals_one_at_a_time(self, n_utts, seed, attention, tied):
        """Histories of mixed length decode in one batch as they do alone, at every width.

        A tied model (all parameters zero) ties every token at every step.
        """
        vocab = small_vocab()
        m = tiny_model(seed=seed % 89, V=len(vocab), use_attention=attention)
        for _, p in m.params.items() if tied else ():
            p.data[:] = 0.0
        rng = np.random.default_rng(seed)
        encs = [enc_of(m, rand_history(rng, n_utts=n), vocab) for n in n_utts]
        for width in (1, 2, 4):
            assert im.beam_decode(m, encs, beam_width=width, max_len=6) == \
                [im.beam_decode(m, [e], beam_width=width, max_len=6)[0] for e in encs]

    @pytest.mark.parametrize("rows", [8, 3])
    def test_chunks_equal_one_batch(self, monkeypatch, rows):
        """Width 4 in chunks of two histories, or of one when rows < width."""
        vocab = small_vocab()
        m = tiny_model(seed=9, V=len(vocab))
        rng = np.random.default_rng(14)
        encs = [enc_of(m, rand_history(rng, n_utts=int(rng.integers(1, 4))), vocab)
                for _ in range(7)]
        whole = im.beam_decode(m, encs, beam_width=4, max_len=8)
        monkeypatch.setattr(im, "SEARCH_ROWS", rows)
        assert im.beam_decode(m, encs, beam_width=4, max_len=8) == whole

    def test_exhaustive_v3(self):
        """V=3 keeps EOS unreachable: all 27 length-3 sequences enumerated."""
        enc = cp.EncodedHistory(tokens=np.array([0, 1, 2]), roles=np.array([0, 1, 1]),
                                turns=np.array([0, 1, 1]), subturns=np.array([0, 0, 1]))
        for seed in range(5):
            m = im.ImaginatorModel(vocab_size=3, role=cp.AGENT, hidden=4, token_dim=3,
                                   tag_dim=2, turn_cap=2, subturn_cap=2, max_history=16,
                                   use_attention=True, seed=seed)
            got = im.beam_decode(m, [enc], beam_width=27, max_len=3)[0]
            assert got == enumerate_best_sequence(m, enc, vocab_size=3, max_len=3)

    def test_all_tied_matches_exhaustive(self):
        """An all-zero model ties every token at every step; the tie-break decides."""
        enc = cp.EncodedHistory(tokens=np.array([0, 1, 2]), roles=np.array([0, 1, 1]),
                                turns=np.array([0, 1, 1]), subturns=np.array([0, 0, 1]))
        m = im.ImaginatorModel(vocab_size=3, role=cp.AGENT, hidden=4, token_dim=3,
                               tag_dim=2, turn_cap=2, subturn_cap=2, max_history=16,
                               use_attention=True, seed=0)
        for _, p in m.params.items():
            p.data[:] = 0.0
        want = enumerate_best_sequence(m, enc, vocab_size=3, max_len=3)
        for width in (1, 2, 4):
            assert im.beam_decode(m, [enc], beam_width=width, max_len=3)[0] == want

    def test_exhaustive_v5_with_eos(self):
        enc = cp.EncodedHistory(tokens=np.array([4, 1]), roles=np.array([1, 1]),
                                turns=np.array([0, 0]), subturns=np.array([0, 1]))
        for seed in (10, 11, 12):
            m = im.ImaginatorModel(vocab_size=5, role=cp.USER, hidden=4, token_dim=3,
                                   tag_dim=2, turn_cap=2, subturn_cap=2, max_history=16,
                                   use_attention=False, seed=seed)
            got = im.beam_decode(m, [enc], beam_width=125, max_len=3)[0]
            assert got == enumerate_best_sequence(m, enc, vocab_size=5, max_len=3)

    def _normalized_score(self, m, enc, toks, max_len, alpha=0.7):
        seq = list(toks) + ([cp.EOS] if len(toks) < max_len else [])
        logp = sum(scalar_seq2seq_logprobs(m, enc, seq))
        return logp / (len(seq) ** alpha)

    def test_dominates_greedy_on_random_models(self):
        vocab = small_vocab()
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            m = tiny_model(seed=seed + 77, V=len(vocab))
            enc = enc_of(m, rand_history(rng), vocab)
            g = im.greedy_decode(m, [enc], max_len=6)[0]
            b = im.beam_decode(m, [enc], beam_width=4, max_len=6)[0]
            assert self._normalized_score(m, enc, b, 6) >= \
                self._normalized_score(m, enc, g, 6) - 1e-12

    def test_score_monotone_in_beam_width(self):
        vocab = small_vocab()
        for seed in range(15):
            rng = np.random.default_rng(2000 + seed)
            m = tiny_model(seed=seed + 300, V=len(vocab))
            enc = enc_of(m, rand_history(rng), vocab)
            scores = [self._normalized_score(
                m, enc, im.beam_decode(m, [enc], beam_width=B, max_len=5)[0], 5)
                for B in (1, 2, 4, 8)]
            assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_decode_deterministic(self):
        vocab = small_vocab()
        m = tiny_model(seed=21, V=len(vocab))
        enc = enc_of(m, rand_history(np.random.default_rng(4)), vocab)
        assert im.beam_decode(m, [enc], beam_width=4, max_len=8)[0] == \
            im.beam_decode(m, [enc], beam_width=4, max_len=8)[0]


class TestFullGradient:
    def test_seq2seq_finite_differences(self):
        """Encoder + attention + decoder end to end at V=12, h=8."""
        m = im.ImaginatorModel(vocab_size=12, role=cp.AGENT, hidden=8, token_dim=6,
                               tag_dim=2, turn_cap=4, subturn_cap=2, max_history=32,
                               use_attention=True, seed=5)
        vocab = small_vocab(5)
        hist = [cp.Utterance(cp.USER, 0, 0, ("w0", "w1")),
                cp.Utterance(cp.AGENT, 1, 0, ("w2",))]
        enc = cp.encode_history(hist, vocab, 32, 4, 2)
        target = cp.encode_target(("w3", "w4"), vocab)

        def build():
            return im.teacher_forced_loss(m, [enc], [target])

        assert ad.finite_difference_check(build, m.params, eps=1e-5) < 1e-4


class TestEvaluate:
    def _samples(self, vocab):
        d = cp.Dialogue("x", (
            cp.Utterance(cp.USER, 0, 0, ("w0", "w1")),
            cp.Utterance(cp.AGENT, 1, 0, ("w2", "w3", "w4")),
            cp.Utterance(cp.USER, 2, 0, ("w5", "w0")),
        ))
        return (cp.derive_imaginator_samples(d, cp.AGENT)
                + cp.derive_imaginator_samples(d, cp.USER))

    def test_oracle_decoder_scores_one(self, monkeypatch):
        vocab = small_vocab()
        m = tiny_model(seed=2, V=len(vocab))
        samples = self._samples(vocab)
        refs = [[vocab.encode_token(t) for t in s.target.tokens] for s in samples]
        monkeypatch.setattr(im, "beam_decode", lambda model, encs, **kw: refs)
        out = im.evaluate_imaginator(m, samples, vocab)
        assert out["bleu_on_agent_targets"] == pytest.approx(1.0)
        assert out["bleu_on_user_targets"] == pytest.approx(1.0)

    def test_untrained_model_scores_low(self):
        vocab = small_vocab()
        m = tiny_model(seed=3, V=len(vocab))
        out = im.evaluate_imaginator(m, self._samples(vocab), vocab, beam_width=2, max_len=6)
        assert out["bleu_on_agent_targets"] < 0.5
        assert out["bleu_on_user_targets"] < 0.5

    def test_empty_partition_reports_zero(self):
        vocab = small_vocab()
        m = tiny_model(seed=4, V=len(vocab))
        d = cp.Dialogue("x", (cp.Utterance(cp.USER, 0, 0, ("w0",)),
                              cp.Utterance(cp.AGENT, 1, 0, ("w1",))))
        samples = cp.derive_imaginator_samples(d, cp.AGENT)
        out = im.evaluate_imaginator(m, samples, vocab, beam_width=1, max_len=4)
        assert out["bleu_on_user_targets"] == 0.0
