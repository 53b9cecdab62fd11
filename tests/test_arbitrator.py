"""Decision-head tests.

The heavy lifting is cross-checked against tests/oracles/classifier_oracle.py,
a from-scratch scalar reimplementation of the conv, GRU and fusion forward
passes, plus central finite differences for the gradients. The batched
forward is pinned to the per-sample path in tests/oracles/arbitrator_oracle.py.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import arbitrator_oracle
from oracles.classifier_oracle import scalar_bigru, scalar_fuse, scalar_textcnn

from turntaking import autodiff as ad
from turntaking import arbitrator as arb
from turntaking.arbitrator import (
    ArbitratorModel, Decision, PreparedSample,
    accuracy, batch_logits, batch_loss, bigru_encode, classification_summary, decide_prepared,
    decide_with_imagined, decision_record, evaluate_prepared, fuse_paths, ita_predict,
    prepare_samples, textcnn_encode, train_step,
)
from turntaking.corpus import (
    AGENT, EOS, PAD, SUBTURN_CAP, TURN_CAP, USER,
    ArbitratorSample, Dialogue, EncodedHistory, Utterance, build_vocabulary, encode_history,
)
from turntaking.imaginator import ImaginatorModel, beam_decode
from turntaking.training import model_from_config

TINY = dict(vocab_size=12, token_dim=5, tag_dim=1, filter_widths=(2, 3),
            filters_per_width=4, seed=3)


def rand_records(rng, n, vocab=12):
    return EncodedHistory(
        tokens=rng.integers(1, vocab, size=n).astype(np.int64),
        roles=rng.integers(0, 2, size=n).astype(np.int64),
        turns=rng.integers(0, TURN_CAP + 1, size=n).astype(np.int64),
        subturns=rng.integers(0, SUBTURN_CAP + 1, size=n).astype(np.int64),
    )


def records_tuple(enc):
    return (enc.tokens, enc.roles, enc.turns, enc.subturns)


def with_extra_pads(enc, extra):
    def pad(a, fill=0):
        return np.concatenate([a, np.full(extra, fill, dtype=np.int64)])
    return EncodedHistory(tokens=pad(enc.tokens, PAD), roles=pad(enc.roles),
                          turns=pad(enc.turns), subturns=pad(enc.subturns))


class TestModel:
    def test_textcnn_param_layout(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        assert m.feature_dim == 8
        assert m.params["cnn.W_2"].shape == (2 * 8, 4)
        assert m.params["cnn.W_3"].shape == (3 * 8, 4)
        assert m.params["fuse.W_1"].shape == (16, 8)
        assert m.params["fuse.W_4"].shape == (8, 2)
        assert "head.W" not in m.params.names()

    def test_bigru_baseline_param_layout(self):
        m = ArbitratorModel(vocab_size=12, hidden=6, encoder="bigru", mode="baseline")
        assert m.feature_dim == 12
        assert sorted(m.params.names()) == sorted([
            "emb.token", "emb.role", "emb.turn", "emb.subturn",
            "gru_f.W", "gru_f.U", "gru_f.b", "gru_b.W", "gru_b.U", "gru_b.b",
            "head.W", "head.b"])
        assert m.params["gru_f.W"].shape == (100 + 3 * 8, 18)
        assert m.params["gru_b.U"].shape == (6, 18)
        assert m.params["gru_b.b"].shape == (18,)
        assert m.params["head.W"].shape == (12, 2)
        assert "fuse.W_1" not in m.params.names()

    def test_unknown_encoder_rejected(self):
        with pytest.raises(ValueError, match="encoder"):
            ArbitratorModel(vocab_size=12, encoder="transformer")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ArbitratorModel(vocab_size=12, mode="hybrid")

    def test_config_round_trip(self):
        m = ArbitratorModel(**TINY, encoder="bigru", mode="baseline", hidden=6)
        m2 = model_from_config(m.config())
        assert m2.config() == m.config()
        assert sorted(m2.params.names()) == sorted(m.params.names())


class TestTextCNN:
    def test_matches_scalar_sliding_window_oracle(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        arrays = m.params.as_arrays()
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9, 17):
            enc = rand_records(rng, n)
            got = textcnn_encode(m, [enc]).data[0]
            want = scalar_textcnn(arrays, records_tuple(enc), (2, 3), 4)
            assert np.abs(got - want).max() < 1e-12

    def test_zero_filters_give_relu_of_bias(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        arrays = m.params.as_arrays()
        for k in (2, 3):
            arrays[f"cnn.W_{k}"] = np.zeros_like(arrays[f"cnn.W_{k}"])
        m.params.load_arrays(arrays)
        got = textcnn_encode(m, [rand_records(np.random.default_rng(0), 6)]).data[0]
        want = np.concatenate([np.maximum(arrays["cnn.b_2"], 0.0),
                               np.maximum(arrays["cnn.b_3"], 0.0)])
        assert np.array_equal(got, want)

    def test_trailing_pad_invariance(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        enc = rand_records(np.random.default_rng(1), 4)
        a = textcnn_encode(m, [enc]).data
        b = textcnn_encode(m, [with_extra_pads(enc, 7)]).data
        assert np.array_equal(a, b)

    def test_short_input_padded_without_error(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        out = textcnn_encode(m, [rand_records(np.random.default_rng(2), 2)])
        assert out.shape == (1, 8)

    def test_empty_input_rejected(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        empty = EncodedHistory(*(np.zeros(0, dtype=np.int64),) * 4)
        with pytest.raises(ValueError, match="empty"):
            textcnn_encode(m, [empty])

    def test_all_padding_input_rejected(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        pads = EncodedHistory(*(np.zeros(3, dtype=np.int64),) * 4)
        with pytest.raises(ValueError, match="padding"):
            textcnn_encode(m, [pads])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), extra=st.integers(0, 9), seed=st.integers(0, 10 ** 6))
    def test_pad_invariance_property(self, n, extra, seed):
        m = _cached_cnn()
        enc = rand_records(np.random.default_rng(seed), n)
        a = textcnn_encode(m, [enc]).data
        b = textcnn_encode(m, [with_extra_pads(enc, extra)]).data
        assert np.array_equal(a, b)


_CNN_CACHE = []


def _cached_cnn():
    if not _CNN_CACHE:
        _CNN_CACHE.append(ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64"))
    return _CNN_CACHE[0]


class TestBiGRU:
    def _model(self, seed=5, dtype="float32"):
        return ArbitratorModel(vocab_size=12, token_dim=5, tag_dim=1, hidden=6,
                               encoder="bigru", mode="baseline", seed=seed, dtype=dtype)

    def _tied(self):
        m = self._model()
        arrays = m.params.as_arrays()
        for p in ("W", "U", "b"):
            arrays[f"gru_b.{p}"] = arrays[f"gru_f.{p}"].copy()
        m.params.load_arrays(arrays)
        return m

    def test_matches_scalar_recurrence_oracle(self):
        m = self._model(dtype="float64")
        arrays = m.params.as_arrays()
        rng = np.random.default_rng(11)
        for n in (1, 3, 7):
            enc = rand_records(rng, n)
            got = bigru_encode(m, [enc]).data[0]
            want = scalar_bigru(arrays, records_tuple(enc), 6)
            assert np.abs(got - want).max() < 1e-12

    def test_length_one_halves_equal_with_tied_directions(self):
        m = self._tied()
        f = bigru_encode(m, [rand_records(np.random.default_rng(4), 1)]).data[0]
        assert np.array_equal(f[:6], f[6:])

    def test_reversal_swaps_halves_with_tied_directions(self):
        m = self._tied()
        enc = rand_records(np.random.default_rng(5), 5)
        rev = EncodedHistory(tokens=enc.tokens[::-1].copy(), roles=enc.roles[::-1].copy(),
                             turns=enc.turns[::-1].copy(), subturns=enc.subturns[::-1].copy())
        a = bigru_encode(m, [enc]).data[0]
        b = bigru_encode(m, [rev]).data[0]
        assert np.array_equal(a[:6], b[6:])
        assert np.array_equal(a[6:], b[:6])

    def test_empty_input_rejected(self):
        m = self._model()
        empty = EncodedHistory(*(np.zeros(0, dtype=np.int64),) * 4)
        with pytest.raises(ValueError, match="empty"):
            bigru_encode(m, [empty])


class TestFusion:
    def _features(self, seed=7):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=8) for _ in range(3)]

    def test_matches_scalar_oracle(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        c_his, c_a, c_u = self._features()
        got = ad.softmax(fuse_paths(ad.constant(c_his.reshape(1, -1)),
                                    ad.constant(c_a.reshape(1, -1)),
                                    ad.constant(c_u.reshape(1, -1)), m)).data[0]
        want = scalar_fuse(m.params.as_arrays(), c_his, c_a, c_u)
        assert np.abs(got - want).max() < 1e-12

    def test_zero_classifier_gives_uniform(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        arrays = m.params.as_arrays()
        arrays["fuse.W_4"] = np.zeros_like(arrays["fuse.W_4"])
        arrays["fuse.b_4"] = np.zeros_like(arrays["fuse.b_4"])
        m.params.load_arrays(arrays)
        c_his, c_a, c_u = self._features()
        p = ad.softmax(fuse_paths(ad.constant(c_his.reshape(1, -1)),
                                  ad.constant(c_a.reshape(1, -1)),
                                  ad.constant(c_u.reshape(1, -1)), m)).data[0]
        assert np.array_equal(p, np.array([0.5, 0.5]))

    def test_swap_symmetry(self):
        # swapping the two path features, the two path-specific affine maps,
        # the row blocks of the combiner and the output columns of the
        # classifier must exactly reverse the distribution
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        arrays = m.params.as_arrays()
        c_his, c_a, c_u = self._features()
        p = ad.softmax(fuse_paths(ad.constant(c_his.reshape(1, -1)),
                                  ad.constant(c_a.reshape(1, -1)),
                                  ad.constant(c_u.reshape(1, -1)), m)).data[0]

        swapped = dict(arrays)
        swapped["fuse.W_1"], swapped["fuse.W_2"] = arrays["fuse.W_2"], arrays["fuse.W_1"]
        swapped["fuse.b_1"], swapped["fuse.b_2"] = arrays["fuse.b_2"], arrays["fuse.b_1"]
        F = m.feature_dim
        swapped["fuse.W_3"] = np.vstack([arrays["fuse.W_3"][F:], arrays["fuse.W_3"][:F]])
        swapped["fuse.W_4"] = arrays["fuse.W_4"][:, ::-1].copy()
        swapped["fuse.b_4"] = arrays["fuse.b_4"][::-1].copy()
        m2 = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        m2.params.load_arrays(swapped)
        p_swapped = ad.softmax(fuse_paths(ad.constant(c_his.reshape(1, -1)),
                                          ad.constant(c_u.reshape(1, -1)),
                                          ad.constant(c_a.reshape(1, -1)), m2)).data[0]
        assert np.abs(p_swapped - p[::-1]).max() < 1e-12

    def test_feature_width_mismatch_rejected(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        bad = ad.constant(np.zeros((1, 5)))
        good = ad.constant(np.zeros((1, 8)))
        with pytest.raises(ad.ShapeError):
            fuse_paths(bad, good, good, m)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_distribution_sums_to_one(self, seed):
        m = _cached_cnn()
        rng = np.random.default_rng(seed)
        parts = [ad.constant(rng.normal(scale=3.0, size=(1, 8))) for _ in range(3)]
        p = ad.softmax(fuse_paths(*parts, m)).data[0]
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()


class TestDecision:
    def test_tie_breaks_toward_reply(self):
        d = Decision(label=1, probs=np.array([0.5, 0.5]))
        assert d.label == 1
        with pytest.raises(ValueError, match="argmax"):
            Decision(label=0, probs=np.array([0.5, 0.5]))

    def test_unnormalized_probabilities_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Decision(label=1, probs=np.array([0.6, 0.6]))

    def test_label_must_match_argmax(self):
        with pytest.raises(ValueError, match="argmax"):
            Decision(label=1, probs=np.array([0.9, 0.1]))


class TestBatchedForward:
    """`batch_logits` encodes every text of a batch in one call; the per-sample oracle
    encodes each text alone. Logits, loss and every gradient must agree."""

    _MODELS = {}

    @classmethod
    def _model(cls, encoder, mode):
        key = (encoder, mode)
        if key not in cls._MODELS:
            cls._MODELS[key] = ArbitratorModel(
                vocab_size=12, encoder=encoder, mode=mode, token_dim=5, tag_dim=2,
                filter_widths=(2, 3, 5), filters_per_width=4, hidden=6, seed=17,
                dtype="float64")
        return cls._MODELS[key]

    @staticmethod
    def _batch(rng, B):
        """Histories of 1-9 records, some with trailing PAD; imaginations of 1-6 ids. Many
        texts are shorter than the widest filter (5) and some are one record long."""
        batch = []
        for _ in range(B):
            enc = rand_records(rng, int(rng.integers(1, 10)))
            if rng.random() < 0.3:
                enc = with_extra_pads(enc, int(rng.integers(1, 4)))
            batch.append(PreparedSample(
                enc, label=int(rng.integers(0, 2)),
                agent_ids=[int(i) for i in rng.integers(1, 12, size=int(rng.integers(1, 7)))],
                user_ids=[int(i) for i in rng.integers(1, 12, size=int(rng.integers(1, 7)))]))
        return batch

    @staticmethod
    def _loss_and_grads(model, build):
        model.params.zero_grads()
        loss = build()
        ad.backward(loss)
        grads = {name: p.grad.copy() for name, p in model.params.items() if p.grad is not None}
        model.params.zero_grads()
        return loss.item(), grads

    @settings(max_examples=40, deadline=None)
    @given(encoder=st.sampled_from(["textcnn", "bigru"]), mode=st.sampled_from(["ita", "baseline"]),
           B=st.integers(1, 6), seed=st.integers(0, 10 ** 6))
    # logits within 1e-5 of zero, where a per-element rtol of 1e-12 fails on rounding alone
    @example(encoder="bigru", mode="baseline", B=5, seed=64524)
    @example(encoder="bigru", mode="baseline", B=5, seed=602)
    def test_equals_per_sample_oracle(self, encoder, mode, B, seed):
        m = self._model(encoder, mode)
        batch = self._batch(np.random.default_rng(seed), B)
        got = batch_logits(m, batch).data
        want = np.vstack([arbitrator_oracle.sample_logits(m, ps).data for ps in batch])
        assert got.shape == (B, 2)
        # bounded by the largest logit, as the gradients below are by their largest entry
        err = np.abs(got - want).max()
        assert err <= 1e-12 * np.abs(want).max(), err
        loss, grads = self._loss_and_grads(m, lambda: batch_loss(m, batch))
        ref_loss, ref_grads = self._loss_and_grads(
            m, lambda: arbitrator_oracle.batch_loss(m, batch))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        assert sorted(grads) == sorted(ref_grads) == sorted(m.params.names())
        for name, ref in ref_grads.items():
            err = np.abs(grads[name] - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), (name, err)

    @pytest.mark.parametrize("encoder", ["textcnn", "bigru"])
    def test_evaluate_chunks_match_oracle_labels(self, encoder, monkeypatch):
        m = self._model(encoder, "ita")
        batch = self._batch(np.random.default_rng(5), 7)
        probs = [ad.softmax(arbitrator_oracle.sample_logits(m, ps)).data[0] for ps in batch]
        want = accuracy([int(p[1] >= p[0]) for p in probs], [ps.label for ps in batch])
        monkeypatch.setattr(arb, "EVAL_SAMPLES", 3)  # chunks of 3, 3 and 1 samples
        assert evaluate_prepared(m, batch) == want

    @pytest.mark.parametrize("encoder", ["textcnn", "bigru"])
    def test_empty_text_error_names_its_position(self, encoder):
        m = self._model(encoder, "ita")
        texts = [rand_records(np.random.default_rng(0), 4)] * 2
        texts.insert(1, EncodedHistory(*(np.zeros(0, dtype=np.int64),) * 4))
        encode = textcnn_encode if encoder == "textcnn" else bigru_encode
        with pytest.raises(ValueError, match="text 1 of the batch"):
            encode(m, texts)

    def test_all_pad_text_error_names_its_position(self):
        m = self._model("textcnn", "ita")
        batch = self._batch(np.random.default_rng(1), 3)
        batch[2].history_enc = EncodedHistory(*(np.zeros(3, dtype=np.int64),) * 4)
        with pytest.raises(ValueError, match="text 2 of the batch.*padding"):
            batch_logits(m, batch)


class TestGradients:
    def test_full_ita_textcnn_gradient(self):
        m = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64")
        ps = PreparedSample(history_enc=rand_records(np.random.default_rng(7), 6),
                            label=1, agent_ids=[4, 7, EOS], user_ids=[5, EOS])
        err = ad.finite_difference_check(lambda: batch_loss(m, [ps]), m.params)
        assert err < 1e-4

    def test_bigru_gradient_h8(self):
        m = ArbitratorModel(vocab_size=12, token_dim=5, tag_dim=1, hidden=8,
                            encoder="bigru", mode="baseline", seed=9, dtype="float64")
        ps = PreparedSample(history_enc=rand_records(np.random.default_rng(13), 5), label=0)
        err = ad.finite_difference_check(lambda: batch_loss(m, [ps]), m.params)
        assert err < 1e-4


def tiny_vocab_and_history():
    utts = (
        Utterance(USER, 0, 0, ("hello", "there")),
        Utterance(AGENT, 0, 0, ("hi", "how", "can", "i", "help")),
        Utterance(USER, 1, 0, ("book", "a", "table")),
    )
    vocab = build_vocabulary([Dialogue(id="d0", utterances=utts)])
    return vocab, list(utts)


class TestPrediction:
    def _rig_reply(self, model):
        arrays = model.params.as_arrays()
        arrays["fuse.W_4"] = np.zeros_like(arrays["fuse.W_4"])
        arrays["fuse.b_4"] = np.array([0.0, 5.0])
        model.params.load_arrays(arrays)

    def test_rigged_classifier_always_replies(self):
        vocab, _ = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        self._rig_reply(m)
        rng = np.random.default_rng(21)
        for _ in range(10):
            enc = rand_records(rng, 6, vocab=len(vocab))
            d = decide_with_imagined(m, enc, [7, EOS], [8, EOS], vocab)
            assert d.label == 1
            assert d.probs[1] > 0.99

    def test_ita_predict_deterministic(self):
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        ims = [ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
               for i, role in enumerate((AGENT, USER))]
        d1 = ita_predict(utts, m, ims[0], ims[1], vocab, beam_width=2, max_len=6)
        d2 = ita_predict(utts, m, ims[0], ims[1], vocab, beam_width=2, max_len=6)
        assert d1.label == d2.label
        assert np.array_equal(d1.probs, d2.probs)
        assert d1.imagined_agent == d2.imagined_agent

    def test_lookup_table_imaginator_is_bit_identical(self):
        # the arbitrator consumes only token ids, so replaying cached decode
        # outputs must reproduce the exact same Decision
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        ims = [ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
               for i, role in enumerate((AGENT, USER))]
        live = ita_predict(utts, m, ims[0], ims[1], vocab, beam_width=2, max_len=6)
        h_enc = encode_history(utts, vocab)
        cached = {
            AGENT: beam_decode(ims[0], [h_enc], beam_width=2, max_len=6)[0],
            USER: beam_decode(ims[1], [h_enc], beam_width=2, max_len=6)[0],
        }
        replayed = decide_with_imagined(m, h_enc, cached[AGENT], cached[USER], vocab)
        assert replayed.label == live.label
        assert np.array_equal(replayed.probs, live.probs)
        assert replayed.imagined_agent == live.imagined_agent
        assert replayed.imagined_user == live.imagined_user

    def test_empty_generation_substitutes_eos_and_flags(self):
        vocab, _ = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        enc = rand_records(np.random.default_rng(2), 5, vocab=len(vocab))
        d = decide_with_imagined(m, enc, [], [7, EOS], vocab)
        assert d.flags == ("empty_agent_generation",)
        assert d.imagined_agent == ("<eos>",)

    def test_empty_beam_output_flagged_through_ita_predict(self):
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        ims = []
        for i, role in enumerate((AGENT, USER)):
            im = ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
            arrays = im.params.as_arrays()
            arrays["out.b_v"] = np.zeros_like(arrays["out.b_v"])
            arrays["out.b_v"][EOS] = 50.0  # degenerate: EOS immediately
            im.params.load_arrays(arrays)
            ims.append(im)
        d = ita_predict(utts, m, ims[0], ims[1], vocab, beam_width=2, max_len=6)
        assert "empty_agent_generation" in d.flags
        assert "empty_user_generation" in d.flags
        assert d.imagined_agent == ("<eos>",)

    def test_pad_only_imagination_counts_as_empty(self):
        """Imaginators whose argmax is PAD reach training and serving without raising."""
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        ims = []
        for i, role in enumerate((AGENT, USER)):
            im = ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
            im.params["out.b_v"].data[:] = 0.0
            im.params["out.b_v"].data[PAD] = 50.0
            ims.append(im)
        prepared = prepare_samples([ArbitratorSample(history=tuple(utts), label=1)],
                                   vocab, tuple(ims), max_len=6)
        assert prepared[0].agent_ids == [EOS] and prepared[0].user_ids == [EOS]
        assert evaluate_prepared(m, prepared) in (0.0, 1.0)
        d = ita_predict(utts, m, ims[0], ims[1], vocab, beam_width=2, max_len=6)
        assert d.flags == ("empty_agent_generation", "empty_user_generation")
        assert d.imagined_agent == d.imagined_user == ("<eos>",)

    @pytest.mark.parametrize("encoder", ["textcnn", "bigru"])
    def test_ita_predict_at_width_one_is_the_evaluation_decision(self, encoder):
        """Serving (`ita_predict` at its default width, 1) decides as evaluation does
        (`decide_prepared` on `prepare_samples`): the same label, imaginations and
        flags, and bit-identical probabilities."""
        vocab, _ = tiny_vocab_and_history()
        words = vocab.id_to_token[7:]
        for seed in range(8):  # at seeds 6 and 7 a width-2 search decodes otherwise
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            history = tuple(Utterance(USER if (n - 1 - t) % 2 == 0 else AGENT, t, 0,
                                      tuple(str(w) for w in rng.choice(words, rng.integers(1, 6))))
                            for t in range(n))
            m = ArbitratorModel(vocab_size=len(vocab), encoder=encoder, mode="ita", token_dim=5,
                                tag_dim=1, filter_widths=(2, 3), filters_per_width=4,
                                hidden=6, seed=seed)
            ims = tuple(ImaginatorModel(len(vocab), role, hidden=16, token_dim=8, tag_dim=2,
                                        seed=10 * seed + i) for i, role in enumerate((AGENT, USER)))
            if seed == 5:  # an agent imaginator that ends at once: an empty, flagged imagination
                ims[0].params["out.b_v"].data[EOS] = 50.0
            served = ita_predict(list(history), m, *ims, vocab, max_len=8)
            prepared = prepare_samples([ArbitratorSample(history=history, label=1)], vocab,
                                       ims, max_len=8)
            evaluated = decide_prepared(m, prepared, vocab)[0]
            assert (served.label, served.imagined_agent, served.imagined_user, served.flags) == \
                (evaluated.label, evaluated.imagined_agent, evaluated.imagined_user,
                 evaluated.flags)
            assert np.array_equal(served.probs, evaluated.probs)
            if seed == 5:
                assert "empty_agent_generation" in served.flags

    def test_baseline_probabilities_near_chance_untrained(self):
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), encoder="textcnn", mode="baseline",
                            token_dim=8, tag_dim=2, seed=0)
        prepared = prepare_samples([ArbitratorSample(history=tuple(utts), label=1)], vocab,
                                   None, max_len=6)
        d = decide_prepared(m, prepared, vocab)[0]
        assert abs(d.probs[1] - 0.5) < 0.25
        assert d.imagined_agent == ()
        assert d.imagined_user == ()
        assert d.flags == ()

    def test_mode_mismatch_rejected(self):
        vocab, _ = tiny_vocab_and_history()
        base = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1, mode="baseline")
        enc = rand_records(np.random.default_rng(0), 4, vocab=len(vocab))
        with pytest.raises(ValueError, match="ita"):
            decide_with_imagined(base, enc, [EOS], [EOS], vocab)

    def test_history_must_end_with_user(self):
        vocab, utts = tiny_vocab_and_history()
        with pytest.raises(ValueError, match="user"):
            prepare_samples([ArbitratorSample(history=tuple(utts[:2]), label=0)], vocab, None,
                            max_len=6)


def marker_toy_samples(n=40, seed=42):
    """Histories of filler tokens; label 1 iff the marker id 17 appears."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        toks = rng.integers(7, 15, size=5).astype(np.int64)
        label = int(rng.random() < 0.5)
        if label:
            toks[rng.integers(0, 5)] = 17
        enc = EncodedHistory(tokens=toks, roles=np.ones(5, dtype=np.int64),
                             turns=np.zeros(5, dtype=np.int64),
                             subturns=np.zeros(5, dtype=np.int64))
        samples.append(PreparedSample(history_enc=enc, label=label,
                                      agent_ids=[EOS], user_ids=[EOS]))
    return samples


def _toy_model(seed=1, dtype="float32"):
    return ArbitratorModel(vocab_size=20, token_dim=8, tag_dim=2, filter_widths=(2, 3),
                           filters_per_width=8, encoder="textcnn", mode="ita", seed=seed,
                           dtype=dtype)


def _run_toy_epochs(model, samples, epochs, lr=5e-3, batch=8):
    opt = ad.Adam(model.params, lr=lr)
    order = np.arange(len(samples))
    history = []
    for epoch in range(epochs):
        np.random.default_rng(100 + epoch).shuffle(order)
        losses = [train_step([samples[i] for i in order[s:s + batch]], model, opt)
                  for s in range(0, len(samples), batch)]
        history.append((float(np.mean(losses)), evaluate_prepared(model, samples)))
        if history[-1][1] == 1.0:
            break
    return history


class TestTraining:
    def test_marker_token_set_reaches_full_accuracy(self):
        samples = marker_toy_samples()
        history = _run_toy_epochs(_toy_model(), samples, epochs=20)
        assert history[-1][1] == 1.0
        assert len(history) <= 20

    def test_loss_drops_after_first_epoch(self):
        samples = marker_toy_samples()
        model = _toy_model()
        before = batch_loss(model, samples).item()
        _run_toy_epochs(model, samples, epochs=1)
        after = batch_loss(model, samples).item()
        assert after < before

    def test_identical_seeds_identical_history(self):
        samples = marker_toy_samples()
        h1 = _run_toy_epochs(_toy_model(), samples, epochs=3)
        h2 = _run_toy_epochs(_toy_model(), samples, epochs=3)
        assert h1 == h2

    def test_non_finite_loss_raises(self):
        model = _toy_model()
        arrays = model.params.as_arrays()
        arrays["emb.token"][8] = np.nan  # a filler id every toy history can contain
        model.params.load_arrays(arrays)
        samples = marker_toy_samples(n=4)
        with pytest.raises(ad.TrainingError, match="finite"):
            train_step(samples, model, ad.Adam(model.params, lr=1e-3))

    def test_batch_loss_is_mean_of_singles(self):
        model = _toy_model(dtype="float64")
        samples = marker_toy_samples(n=2)
        merged = batch_loss(model, samples).item()
        singles = [batch_loss(model, [s]).item() for s in samples]
        assert abs(merged - np.mean(singles)) < 1e-12

    def test_prepare_samples_caches_greedy_ids(self):
        vocab, utts = tiny_vocab_and_history()
        ims = tuple(ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
                    for i, role in enumerate((AGENT, USER)))
        raw = [ArbitratorSample(history=tuple(utts), label=0)]
        prepared = prepare_samples(raw, vocab, ims, max_len=6)
        assert len(prepared) == 1
        assert prepared[0].label == 0
        assert len(prepared[0].agent_ids) >= 1
        assert len(prepared[0].user_ids) >= 1

    def test_prepare_samples_without_imaginators_leaves_ids_empty(self):
        vocab, utts = tiny_vocab_and_history()
        prepared = prepare_samples([ArbitratorSample(history=tuple(utts), label=1)], vocab, None,
                                   max_len=6)
        assert prepared[0].agent_ids == []
        assert prepared[0].user_ids == []


class TestMetrics:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_two_of_three(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])

    def test_classification_summary_counts(self):
        s = classification_summary([1, 0, 1, 1], [1, 1, 0, 1])
        assert s["accuracy"] == 0.5
        assert s["total"] == 4
        assert s["confusion_pred0_gold1"] == 1
        assert s["confusion_pred1_gold0"] == 1
        assert s["confusion_pred1_gold1"] == 2
        assert s["confusion_pred0_gold0"] == 0
        assert s["precision_1"] == pytest.approx(2 / 3)
        assert s["recall_1"] == pytest.approx(2 / 3)
        assert s["precision_0"] == 0.0
        assert s["recall_0"] == 0.0

    def test_decision_record_shape(self):
        d = Decision(label=1, probs=np.array([0.25, 0.75]),
                     imagined_agent=("ok", "<eos>"), imagined_user=("more",),
                     flags=("empty_user_generation",))
        rec = decision_record("dlg3:2", d)
        assert rec == {
            "sample_id": "dlg3:2",
            "label": 1,
            "p_wait": 0.25,
            "p_reply": 0.75,
            "imagined_agent": "ok <eos>",
            "imagined_user": "more",
            "flags": ["empty_user_generation"],
        }


class TestTrainStepMemory:
    """A TextCNN training step at the default sizes: filter widths 3, 4 and 5 over
    124-wide records (100 token and three 8-wide tag columns)."""

    @staticmethod
    def _setup(B):
        """The ita model and B samples of 150 records: a 70-record history and two
        40-id imaginations, none shorter than the widest filter."""
        rng = np.random.default_rng(0)
        model = ArbitratorModel(vocab_size=300, encoder="textcnn", mode="ita", seed=0)
        batch = [PreparedSample(rand_records(rng, 70, vocab=300), label=i % 2,
                                agent_ids=[int(t) for t in rng.integers(4, 300, size=40)],
                                user_ids=[int(t) for t in rng.integers(4, 300, size=40)])
                 for i in range(B)]
        return model, batch

    def test_peak_below_the_im2col_forward(self):
        """Copying every window (im2col) would take sum_k (L - k + 1)·k·d float64s for
        the forward alone, 54.5 MiB at these L = 4800 packed records; a whole step
        peaks below that, gradients and the Adam update included."""
        model, batch = self._setup(32)
        L = 150 * len(batch)
        d = model.token_dim + 3 * model.tag_dim
        im2col = sum((L - k + 1) * k * d * 8 for k in model.filter_widths)
        opt = ad.Adam(model.params, lr=1e-3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_step(batch, model, opt)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < im2col, f"peak {peak / 2**20:.1f} MiB, im2col {im2col / 2**20:.1f} MiB"

    def test_leaf_gradients_equal_a_walk_that_releases_nothing(self, monkeypatch):
        model, batch = self._setup(4)

        def grads():
            model.params.zero_grads()
            ad.backward(batch_loss(model, batch))
            return {name: p.grad.copy() for name, p in model.params.items()}

        released = grads()
        monkeypatch.setattr(ad, "_release", lambda t: None)
        kept = grads()
        assert all(np.array_equal(released[name], g) for name, g in kept.items())


class TestSinglePrecision:
    """Models default to float32; a float64 copy is the reference."""

    def test_textcnn_ita_float32_agrees_with_a_float64_copy(self):
        """Loss and gradients of a float32 TextCNN ITA arbitrator and of a float64 one on
        the same (float32-exact) parameters agree within 1e-4, relative to the float64
        loss and to each parameter's largest float64 gradient."""
        m32 = ArbitratorModel(**TINY, encoder="textcnn", mode="ita")
        m64 = ArbitratorModel(**TINY, encoder="textcnn", mode="ita", dtype="float64",
                              arrays=m32.params.as_arrays())
        batch = TestBatchedForward._batch(np.random.default_rng(4), 5)
        (loss32, g32), (loss64, g64) = (TestBatchedForward._loss_and_grads(
            m, lambda m=m: batch_loss(m, batch)) for m in (m32, m64))
        assert abs(loss32 - loss64) <= 1e-4 * abs(loss64)
        assert sorted(g32) == sorted(g64) == sorted(m32.params.names())
        for name, ref in g64.items():
            assert g32[name].dtype == np.float32, name
            assert np.abs(g32[name] - ref).max() <= 1e-4 * np.abs(ref).max(), name

    def test_ita_predict_on_float32_models_gives_float64_probabilities(self):
        """The two-way softmax of a decision is taken in float64, so the probabilities
        sum to 1 within 1e-9, as a Decision requires."""
        vocab, utts = tiny_vocab_and_history()
        m = ArbitratorModel(vocab_size=len(vocab), token_dim=5, tag_dim=1,
                            filter_widths=(2, 3), filters_per_width=4, seed=3)
        ims = [ImaginatorModel(len(vocab), role, hidden=10, token_dim=6, tag_dim=2, seed=i)
               for i, role in enumerate((AGENT, USER))]
        assert {x.dtype for x in (m, *ims)} == {np.dtype(np.float32)}
        for history in (utts, utts[:1]):
            d = ita_predict(history, m, ims[0], ims[1], vocab, max_len=6)
            assert d.probs.dtype == np.float64
            assert abs(d.probs.sum() - 1.0) <= 1e-9
