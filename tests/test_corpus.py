"""Corpus pipeline tests.

The derived expectations here come from independent re-derivations: labels
are recomputed by a two-line rule over raw structure, reconstruction
compares against the pre-split token stream, and stats are recomputed by a
separate streaming pass.
"""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import corpus_oracle as oracle
from turntaking import corpus as cp
from turntaking import synthetic


def utt(role, turn, sub, text):
    return cp.Utterance(role=role, turn_index=turn, subturn_index=sub,
                        tokens=tuple(text.split()))


def make_dialogue(did, *pairs):
    """pairs of (role, text), alternating roles assumed by caller."""
    utts = tuple(utt(role, t, 0, text) for t, (role, text) in enumerate(pairs))
    return cp.Dialogue(id=did, utterances=utts)


# strategy for random unsplit dialogues: alternating roles, punctuation mixed in
_word = st.sampled_from(["hi", "ok", "sure", "hotel", "need", "a", "the",
                         ".", "!", "?", ";", "book", "yes", "no"])


@st.composite
def dialogues(draw):
    n_turns = draw(st.integers(1, 6))
    first = draw(st.sampled_from([cp.USER, cp.AGENT]))
    utts = []
    for t in range(n_turns):
        role = first if t % 2 == 0 else (cp.AGENT if first == cp.USER else cp.USER)
        words = draw(st.lists(_word, min_size=1, max_size=12))
        utts.append(cp.Utterance(role, t, 0, tuple(words)))
    return cp.Dialogue(id=draw(st.text("abc", min_size=1, max_size=6)), utterances=tuple(utts))


class TestIngest:
    def test_minimal_two_turn_record(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"id": "x", "turns": [
            {"speaker": "user", "text": "Hello"},
            {"speaker": "agent", "text": "hi there"},
        ]}]))
        ds, ann, skipped = cp.ingest_source(path, "multiwoz-like")
        assert skipped == 0 and len(ds) == 1
        d = ds[0]
        assert [u.role for u in d.utterances] == [cp.USER, cp.AGENT]
        assert [u.turn_index for u in d.utterances] == [0, 1]
        assert d.utterances[0].tokens == ("hello",)
        assert d.utterances[1].tokens == ("hi", "there")

    def test_all_subturns_zero_after_ingest(self, tmp_path):
        path = tmp_path / "d.jsonl"
        recs = [{"id": str(i), "utterances": [
            {"role": "user", "text": "a b . c"},
            {"role": "agent", "text": "d"},
            {"role": "user", "text": "e"},
        ]} for i in range(4)]
        path.write_text("\n".join(json.dumps(r) for r in recs))
        ds, _, _ = cp.ingest_source(path, "generic-jsonl")
        assert all(u.subturn_index == 0 for d in ds for u in d.utterances)

    def test_consecutive_same_role_messages_combined(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"id": "x", "turns": [
            {"speaker": "user", "text": "hello"},
            {"speaker": "user", "text": "anyone there ?"},
            {"speaker": "agent", "text": "yes"},
        ]}]))
        ds, _, _ = cp.ingest_source(path, "multiwoz-like")
        d = ds[0]
        # roles alternate at turn granularity afterwards
        assert [u.role for u in d.utterances] == [cp.USER, cp.AGENT]
        assert d.utterances[0].tokens == ("hello", "anyone", "there", "?")

    @pytest.mark.parametrize("fmt", ["multiwoz-like", "generic-jsonl"])
    def test_deep_nesting_is_an_error_with_locator(self, tmp_path, fmt):
        """JSON nested deeper than the decoder can recurse is refused where it stands,
        not left to escape as a RecursionError."""
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "raw"
        if fmt == "multiwoz-like":
            path.write_text(deep)
            want = f"{path}: not valid JSON ("
        else:
            path.write_text('{"id": "y", "utterances": [{"role": "user", "text": "hi"}]}\n'
                            + deep + "\n")
            want = f"{path}:2: bad JSON ("
        with pytest.raises(cp.IngestError, match=f"^{re.escape(want)}"):
            cp.ingest_source(path, fmt)

    def test_empty_utterance_is_an_error_with_locator(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"id": "bad1", "turns": [
            {"speaker": "user", "text": "   "},
        ]}]))
        with pytest.raises(cp.IngestError, match="bad1"):
            cp.ingest_source(path, "multiwoz-like")

    @pytest.mark.parametrize("fmt", ["multiwoz-like", "dailydialogue-like", "generic-jsonl"])
    def test_reserved_token_in_text_is_an_error_with_locator(self, tmp_path, fmt):
        """A reserved token would be encoded as its control id (`<pad>` as padding,
        `<eos>` as end of sequence), so it is refused where it stands."""
        messages = [("user", "<PAD>"), ("agent", "sure <eos> which day")]
        path = tmp_path / "raw"
        if fmt == "multiwoz-like":
            path.write_text(json.dumps([{"id": "x", "turns": [
                {"speaker": r, "text": t} for r, t in messages]}]))
            loc = f"{path}:dialogue[0]: dialogue 'x'"
        elif fmt == "generic-jsonl":
            path.write_text('{"id": "y", "utterances": [{"role": "user", "text": "hi"}]}\n'
                            + json.dumps({"id": "x", "utterances": [
                                {"role": r, "text": t} for r, t in messages]}) + "\n")
            loc = f"{path}:2: dialogue 'x'"
        else:
            path.write_text("hi __eou__ ok\n" + " __eou__ ".join(t for _, t in messages) + "\n")
            loc = f"{path}:2: dialogue '1'"
        want = f"{loc}, message 0: reserved token '<pad>' in the text"
        with pytest.raises(cp.IngestError, match=f"^{re.escape(want)}$"):
            cp.ingest_source(path, fmt)
        path.write_text(path.read_text().replace("<PAD>", "hello"))
        want = f"{loc}, message 1: reserved token '<eos>' in the text"
        with pytest.raises(cp.IngestError, match=f"^{re.escape(want)}$"):
            cp.ingest_source(path, fmt)

    def test_dailydialogue_alternates_user_first(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("hi __eou__ hello ! __eou__ how are you ?\n\n")
        ds, ann, skipped = cp.ingest_source(path, "dailydialogue-like")
        assert len(ds) == 1 and skipped == 1  # blank line skipped
        assert [u.role for u in ds[0].utterances] == [cp.USER, cp.AGENT, cp.USER]

    def test_dialogue_count_matches_line_count(self, tmp_path):
        # counting oracle: jsonl line count minus blanks equals dialogue count
        path = tmp_path / "d.jsonl"
        lines = [json.dumps({"id": str(i), "utterances": [
            {"role": "user", "text": f"msg {i}"}]}) for i in range(23)]
        path.write_text("\n".join(lines))
        ds, _, skipped = cp.ingest_source(path, "generic-jsonl")
        n_lines = sum(1 for l in path.read_text().splitlines() if l.strip())
        assert len(ds) + skipped == n_lines == 23

    def test_malformed_record_locator(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "q", "nope": 1}')
        with pytest.raises(cp.IngestError, match="utterances"):
            cp.ingest_source(path, "generic-jsonl")


# characters str.split() breaks at (and str.isspace() holds for), next to plain ones
_SPACES = ["\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", " ",
           "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000"]
_tokens = st.lists(st.text(st.sampled_from(["a", "b", ".", "\u200b", "\x00"] + _SPACES),
                           max_size=4), max_size=5)


class TestTokenRule:
    """`_clean_tokens` is the per-character rule, one join-and-split in C."""

    def test_every_code_point(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        assert [cp._clean_tokens((c,)) for c in chars] == [not c.isspace() for c in chars]
        assert [cp._clean_tokens(("a", f"b{c}b")) for c in chars] == [not c.isspace() for c in chars]

    @settings(max_examples=300)
    @given(_tokens)
    def test_equals_the_per_character_rule(self, tokens):
        assert cp._clean_tokens(tokens) == oracle.clean_tokens(tokens)
        assert cp._clean_tokens(tuple(tokens)) == oracle.clean_tokens(tokens)

    @settings(max_examples=200)
    @given(_tokens.filter(bool))
    def test_utterance_accepts_exactly_clean_tokens(self, tokens):
        if oracle.clean_tokens(tokens):
            assert cp.Utterance(cp.USER, 0, 0, tuple(tokens)).tokens == tuple(tokens)
        else:
            with pytest.raises(ValueError, match="whitespace-free"):
                cp.Utterance(cp.USER, 0, 0, tuple(tokens))

    @pytest.mark.parametrize("token", ["", "a\tb", "\xa0", "x\u3000", "\u1680y", " "])
    def test_each_bad_token_rejected(self, token):
        with pytest.raises(ValueError, match="whitespace-free"):
            cp.Utterance(cp.AGENT, 0, 0, ("ok", token))


# slot values built from few words, so that values overlap, repeat, share a
# first token or are prefixes of one another
_slot_word = st.sampled_from(["a", "b", "c", "A", "."])
_value_maps = st.dictionaries(
    st.sampled_from(["name", "Phone", "area"]),
    st.lists(st.lists(_slot_word, max_size=3).map(" ".join), max_size=4),
    max_size=3)


@st.composite
def slot_dialogues(draw):
    utts = tuple(cp.Utterance(cp.USER if t % 2 == 0 else cp.AGENT, t, 0,
                              tuple(draw(st.lists(st.sampled_from(["a", "b", "c", "d", "."]),
                                                  min_size=1, max_size=10))))
                 for t in range(draw(st.integers(1, 4))))
    return cp.Dialogue("x", utts)


class TestMaskSlots:
    @settings(max_examples=400)
    @given(slot_dialogues(), _value_maps)
    def test_equals_the_every_pattern_scan(self, d, value_map):
        got = cp.mask_slots(d, value_map)
        assert got == oracle.mask_slots(d, value_map)
        for before, after in zip(d.utterances, got.utterances):
            if after.tokens == before.tokens:
                assert after is before

    @pytest.mark.parametrize("value_map", [
        {"x": ["a b", "a"], "y": ["a b c"]},  # prefixes, shared first token
        {"x": ["b c"], "y": ["a b"]},  # overlapping values
        {"x": ["a", "a", "A"], "y": ["a"]},  # repeated values, two names
        {"x": ["", "  "]},  # values with no tokens
        {},
    ])
    def test_chosen_maps_equal_the_every_pattern_scan(self, value_map):
        d = make_dialogue("x", (cp.USER, "a b c a b a . b c"), (cp.AGENT, "c a b c a"))
        assert cp.mask_slots(d, value_map) == oracle.mask_slots(d, value_map)

    def test_utterance_without_a_value_is_the_same_object(self):
        d = make_dialogue("x", (cp.USER, "call 01223 323737 now"), (cp.AGENT, "sure ."),
                          (cp.USER, "and 01223 again"))
        masked = cp.mask_slots(d, {"phone": ["01223 323737"]})
        assert masked.utterances[0] is not d.utterances[0]
        assert masked.utterances[1] is d.utterances[1]  # no first token of a value
        assert masked.utterances[2] is d.utterances[2]  # a first token, but no value

    def test_empty_map_is_identity(self):
        d = make_dialogue("x", (cp.USER, "call 01223 323737 now"))
        assert cp.mask_slots(d, {}) is d

    def test_phone_number_masked(self):
        d = make_dialogue("x", (cp.AGENT, "you can reach them at 01223 323737 ."))
        masked = cp.mask_slots(d, {"restaurant_phone": ["01223 323737"]})
        toks = masked.utterances[0].tokens
        assert "[restaurant_phone]" in toks
        assert "01223" not in toks and "323737" not in toks
        assert toks == ("you", "can", "reach", "them", "at", "[restaurant_phone]", ".")

    def test_longest_match_wins(self):
        d = make_dialogue("x", (cp.USER, "the golden house hotel please"))
        masked = cp.mask_slots(d, {
            "hotel_name": ["golden house hotel"],
            "hotel_area": ["golden house"],
        })
        assert masked.utterances[0].tokens == ("the", "[hotel_name]", "please")

    def test_full_scan_oracle(self):
        # after masking, no mapped value occurs as a token subsequence anywhere
        value_map = {"name": ["alpha beta", "gamma"], "phone": ["1 2 3"]}
        d = make_dialogue(
            "x",
            (cp.USER, "alpha beta and gamma called 1 2 3 twice 1 2 3"),
            (cp.AGENT, "gamma gamma alpha beta"),
        )
        masked = cp.mask_slots(d, value_map)
        for values in value_map.values():
            for v in values:
                pat = tuple(cp.tokenize(v))
                for u in masked.utterances:
                    hits = [i for i in range(len(u.tokens))
                            if u.tokens[i:i + len(pat)] == pat]
                    assert hits == []

    def test_multiple_occurrences_all_masked(self):
        d = make_dialogue("x", (cp.USER, "cambridge to cambridge via cambridge"))
        masked = cp.mask_slots(d, {"city": ["cambridge"]})
        assert masked.utterances[0].tokens == ("[city]", "to", "[city]", "via", "[city]")


class TestSplit:
    def test_p_zero_unchanged(self):
        d = make_dialogue("x", (cp.USER, "hello . i need a hotel ."), (cp.AGENT, "ok ."))
        assert cp.split_utterances(d, 0.0, seed=1) == d

    def test_p_one_splits_every_boundary(self):
        d = make_dialogue("x", (cp.USER, "hello . i need a hotel . can you help ?"))
        out = cp.split_utterances(d, 1.0, seed=9)
        segs = [u.tokens for u in out.utterances]
        assert segs == [("hello", "."),
                        ("i", "need", "a", "hotel", "."),
                        ("can", "you", "help", "?")]
        assert [u.subturn_index for u in out.utterances] == [0, 1, 2]
        assert len({u.turn_index for u in out.utterances}) == 1

    def test_agent_never_split(self):
        d = make_dialogue("x", (cp.AGENT, "yes . of course . done ."))
        out = cp.split_utterances(d, 1.0, seed=0)
        assert out == d

    def test_trailing_punctuation_not_a_boundary(self):
        d = make_dialogue("x", (cp.USER, "ok ."))
        assert cp.split_utterances(d, 1.0, seed=3) == d

    def test_deterministic_per_seed(self):
        d = make_dialogue("x", (cp.USER, "a . b . c . d . e ."))
        one = cp.split_utterances(d, 0.5, seed=77)
        two = cp.split_utterances(d, 0.5, seed=77)
        assert one == two

    def test_split_independent_of_corpus_position(self):
        # the per-dialogue derived seed means presence of other dialogues is irrelevant
        d = make_dialogue("dlg-42", (cp.USER, "a . b . c . d ."))
        alone = cp.split_utterances(d, 0.5, seed=5)
        renamed = cp.split_utterances(cp.Dialogue("dlg-42", d.utterances), 0.5, seed=5)
        assert alone == renamed

    @settings(max_examples=60)
    @given(dialogues(), st.floats(0, 1), st.integers(0, 2**31))
    def test_reconstruction(self, d, p, seed):
        """Concatenating each turn's subturns reproduces the unsplit turn."""
        out = cp.split_utterances(d, p, seed)
        rebuilt: dict[int, list[str]] = {}
        for u in out.utterances:
            rebuilt.setdefault(u.turn_index, []).extend(u.tokens)
        original = {u.turn_index: list(u.tokens) for u in d.utterances}
        assert rebuilt == original

    @settings(max_examples=60)
    @given(dialogues(), st.floats(0, 1), st.integers(0, 2**31))
    def test_subturn_indices_contiguous(self, d, p, seed):
        out = cp.split_utterances(d, p, seed)
        by_turn: dict[int, list[int]] = {}
        for u in out.utterances:
            by_turn.setdefault(u.turn_index, []).append(u.subturn_index)
        for subs in by_turn.values():
            assert subs == list(range(len(subs)))

    @settings(max_examples=200)
    @given(dialogues(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**31))
    def test_equals_one_scalar_draw_per_boundary(self, d, p, seed):
        assert cp.split_utterances(d, p, seed) == oracle.split_utterances(d, p, seed)

    def test_expected_subturns_monotone_in_p(self):
        # statistical check over >= 1000 user turns
        ds = []
        rng = np.random.default_rng(123)
        for i in range(1200):
            n_sent = rng.integers(2, 5)
            words = []
            for _ in range(n_sent):
                words.extend(["w"] * int(rng.integers(1, 4)) + ["."])
            ds.append(cp.Dialogue(str(i), (cp.Utterance(cp.USER, 0, 0, tuple(words)),)))

        def mean_subturns(p):
            total = count = 0
            for d in ds:
                out = cp.split_utterances(d, p, seed=99)
                total += len(out.utterances)
                count += 1
            return total / count

        means = [mean_subturns(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert means[0] == 1.0
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


class TestModifyCorpus:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 1009])
    def test_equals_the_oracle_pipeline(self, tmp_path, seed):
        path = tmp_path / "raw.json"
        synthetic.write_multiwoz_like(synthetic.make_multiwoz_like(60, seed), path)
        dialogues, annotations, _ = cp.ingest_source(path, "multiwoz-like")
        for p in (0.0, 0.5, 1.0):
            got = cp.modify_corpus(dialogues, annotations, p, seed)
            assert got == oracle.modify_corpus(dialogues, annotations, p, seed)
        assert any("[" in t for d in got for u in d.utterances for t in u.tokens)


class TestSampleDerivation:
    def test_three_subturns_then_agent(self):
        d = cp.Dialogue("x", (
            utt(cp.USER, 0, 0, "hello ."),
            utt(cp.USER, 0, 1, "i need a hotel ."),
            utt(cp.USER, 0, 2, "can you help ?"),
            utt(cp.AGENT, 1, 0, "sure ."),
        ))
        labels = [s.label for s in cp.derive_arbitrator_samples(d)]
        assert labels == [0, 0, 1]

    def test_single_user_before_agent(self):
        d = make_dialogue("x", (cp.USER, "hi"), (cp.AGENT, "hello"))
        assert [s.label for s in cp.derive_arbitrator_samples(d)] == [1]

    def test_dialogue_final_user_labeled_reply(self):
        d = make_dialogue("x", (cp.AGENT, "anything else ?"), (cp.USER, "no thanks"))
        assert [s.label for s in cp.derive_arbitrator_samples(d)] == [1]

    @settings(max_examples=80)
    @given(dialogues(), st.floats(0, 1), st.integers(0, 2**31))
    def test_two_line_label_oracle(self, d, p, seed):
        d = cp.split_utterances(d, p, seed)
        samples = cp.derive_arbitrator_samples(d)
        utts = d.utterances
        expected = [1 if (i + 1 == len(utts) or utts[i + 1].role == cp.AGENT) else 0
                    for i, u in enumerate(utts) if u.role == cp.USER]
        assert [s.label for s in samples] == expected
        # label partition: every user utterance yields exactly one sample
        assert len(samples) == sum(u.role == cp.USER for u in utts)

    def test_imaginator_fig_pattern(self):
        # history (A1, U11, U12) -> target U13 for the user role;
        # history (A1, U11, U12, U13) -> target A2 for the agent role
        d = cp.Dialogue("x", (
            utt(cp.AGENT, 0, 0, "a1"),
            utt(cp.USER, 1, 0, "u11"),
            utt(cp.USER, 1, 1, "u12"),
            utt(cp.USER, 1, 2, "u13"),
            utt(cp.AGENT, 2, 0, "a2"),
        ))
        user_samples = cp.derive_imaginator_samples(d, cp.USER)
        assert [len(s.history) for s in user_samples] == [1, 2, 3]
        assert user_samples[2].history == d.utterances[:3]
        assert user_samples[2].target.tokens == ("u13",)
        agent_samples = cp.derive_imaginator_samples(d, cp.AGENT)
        assert [len(s.history) for s in agent_samples] == [4]
        assert agent_samples[0].target.tokens == ("a2",)

    def test_no_agent_utterances_gives_empty(self):
        d = make_dialogue("x", (cp.USER, "hi"))
        assert cp.derive_imaginator_samples(d, cp.AGENT) == []

    @settings(max_examples=60)
    @given(dialogues())
    def test_imaginator_sample_counting_oracle(self, d):
        n_agent = len(cp.derive_imaginator_samples(d, cp.AGENT))
        n_user = len(cp.derive_imaginator_samples(d, cp.USER))
        # total = all utterances minus the history-less initial one
        assert n_agent + n_user == len(d.utterances) - 1


class TestVocabulary:
    def test_reserved_layout(self):
        v = cp.build_vocabulary([make_dialogue("x", (cp.USER, "a a b"))])
        assert v.id_to_token[:7] == list(cp.RESERVED_TOKENS)
        assert v.encode_token("<pad>") == cp.PAD
        assert v.encode_token("<sep>") == cp.SEP

    def test_min_freq_threshold(self):
        v = cp.build_vocabulary([make_dialogue("x", (cp.USER, "a a b"))], min_freq=2)
        assert "a" in v.token_to_id and "b" not in v.token_to_id
        assert v.encode_token("b") == cp.UNK

    def test_min_freq_one_keeps_everything(self):
        v = cp.build_vocabulary([make_dialogue("x", (cp.USER, "c a b a"))], min_freq=1)
        assert {"a", "b", "c"} <= set(v.token_to_id)

    def test_frequency_then_lexicographic_order(self):
        v = cp.build_vocabulary([make_dialogue("x", (cp.USER, "b b z a a c"))])
        nonreserved = v.id_to_token[7:]
        assert nonreserved == ["a", "b", "c", "z"]  # a,b tie at 2 -> lexicographic

    def test_rebuild_identical(self):
        ds = [make_dialogue(str(i), (cp.USER, "x y z"), (cp.AGENT, "y z w")) for i in range(5)]
        v1 = cp.build_vocabulary(ds)
        v2 = cp.build_vocabulary(ds)
        assert v1.id_to_token == v2.id_to_token
        assert v1.hash() == v2.hash()

    def test_save_load_round_trip(self, tmp_path):
        v = cp.build_vocabulary([make_dialogue("x", (cp.USER, "q w q"))])
        v.save(tmp_path / "vocab.txt")
        v2 = cp.Vocabulary.load(tmp_path / "vocab.txt")
        assert v2.id_to_token == v.id_to_token
        assert v2.freqs == v.freqs
        assert v2.hash() == v.hash()

    def _saved_with_line(self, tmp_path, line):
        """A saved vocabulary with `line` put in as its line 9; returns its path."""
        path = tmp_path / "vocab.tsv"
        cp.build_vocabulary([make_dialogue("x", (cp.USER, "q w q"))]).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:8] + [line] + lines[8:]) + "\n")
        return path

    def test_line_without_tab_is_located_error(self, tmp_path):
        path = self._saved_with_line(tmp_path, "hello 3")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}:9: .*no tab"):
            cp.Vocabulary.load(path)

    def test_non_integer_count_is_located_error(self, tmp_path):
        path = self._saved_with_line(tmp_path, "hello\tmany")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}:9: count 'many' is not an integer"):
            cp.Vocabulary.load(path)

    def test_token_with_whitespace_is_located_error(self, tmp_path):
        path = self._saved_with_line(tmp_path, "hello world\t3")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}:9: token 'hello world'"):
            cp.Vocabulary.load(path)

    def test_token_listed_twice_is_located_error(self, tmp_path):
        path = self._saved_with_line(tmp_path, "q\t5")
        with pytest.raises(cp.IngestError,
                           match=f"^{re.escape(str(path))}:9: token 'q' already listed at line 8$"):
            cp.Vocabulary.load(path)

    def test_file_without_reserved_tokens_is_located_error(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        cp.build_vocabulary([make_dialogue("x", (cp.USER, "q w q"))]).save(path)
        path.write_text("\n".join(path.read_text().splitlines()[7:]) + "\n")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}: vocabulary must "
                                                 f"start with the reserved tokens$"):
            cp.Vocabulary.load(path)

    @pytest.mark.parametrize("token", ["", "no\xa0break", "\u3000", "a\u1680b"])
    def test_empty_or_unicode_space_token_is_located_error(self, tmp_path, token):
        path = self._saved_with_line(tmp_path, f"{token}\t3")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}:9: token "):
            cp.Vocabulary.load(path)


class TestEncodeHistory:
    def _vocab(self):
        return cp.build_vocabulary([make_dialogue(
            "x", (cp.AGENT, "hello there"), (cp.USER, "need a hotel"))])

    def test_single_agent_word_base_case(self):
        v = self._vocab()
        enc = cp.encode_history([utt(cp.AGENT, 0, 0, "hello")], v)
        assert len(enc) == 1
        assert enc.tokens[0] == v.encode_token("hello")
        assert enc.roles[0] == 0 and enc.turns[0] == 0 and enc.subturns[0] == 0

    def test_turn_clamping(self):
        v = self._vocab()
        enc = cp.encode_history([utt(cp.USER, 20, 11, "hello")], v)
        assert (cp.TURN_CAP, cp.SUBTURN_CAP) == (16, 8)
        assert enc.turns[0] == cp.TURN_CAP and enc.subturns[0] == cp.SUBTURN_CAP
        assert enc.roles[0] == 1

    def test_separator_between_utterances(self):
        v = self._vocab()
        enc = cp.encode_history([utt(cp.AGENT, 0, 0, "hello"), utt(cp.USER, 1, 0, "need")], v)
        assert enc.tokens.tolist() == [v.encode_token("hello"), cp.SEP, v.encode_token("need")]
        # the separator carries the tags of the utterance it closes
        assert enc.roles.tolist() == [0, 0, 1]

    def test_unknown_token_becomes_unk(self):
        v = self._vocab()
        enc = cp.encode_history([utt(cp.USER, 0, 0, "zebra")], v)
        assert enc.tokens[0] == cp.UNK

    def test_left_truncation(self):
        v = self._vocab()
        n = cp.MAX_HISTORY // 2 - 1
        history = [utt(cp.USER, 0, 0, "need a hotel")] + [utt(cp.AGENT, 1, 0, "hello")] * n
        # 3 + 1 + 2 * (n - 1) + 1 = MAX_HISTORY + 1 records: the oldest, "need", goes
        enc = cp.encode_history(history, v)
        hello = v.encode_token("hello")
        assert len(enc) == cp.MAX_HISTORY == 256
        assert enc.tokens.tolist() == ([v.encode_token("a"), v.encode_token("hotel"), cp.SEP]
                                       + [hello, cp.SEP] * (n - 1) + [hello])
        assert enc.roles.tolist()[:3] == [1, 1, 1] and enc.roles.tolist()[3:] == [0] * (2 * n - 1)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            cp.encode_history([], self._vocab())

    def test_target_wrapping(self):
        v = self._vocab()
        ids = cp.encode_target(["need", "a"], v)
        assert ids[0] == cp.BOS and ids[-1] == cp.EOS
        assert len(ids) == 4


class TestStats:
    def test_single_dialogue_counts(self):
        d = make_dialogue("x", (cp.USER, "hi there"), (cp.AGENT, "hello"))
        s = cp.compute_stats([d])
        assert s["Dialogues"] == 1
        assert s["Avg. Turns/Dialogue"] == 2.0
        assert s["Avg. Utterance Length"] == 1.5
        assert s["Avg. User's Utterance"] == 2.0
        assert s["Avg. Agent's Utterance"] == 1.0

    def test_p_split_zero_avg_split_user_turns(self):
        ds = [make_dialogue(str(i), (cp.USER, "a . b ."), (cp.AGENT, "c"))
              for i in range(10)]
        ds = [cp.split_utterances(d, 0.0, seed=4) for d in ds]
        s = cp.compute_stats(ds)
        assert s["Avg. Split User Turns"] == 1.0

    def test_wait_reply_counts(self):
        d = cp.Dialogue("x", (
            utt(cp.USER, 0, 0, "a ."),
            utt(cp.USER, 0, 1, "b"),
            utt(cp.AGENT, 1, 0, "c"),
            utt(cp.USER, 2, 0, "d"),
        ))
        s = cp.compute_stats([d])
        assert s["Agent Wait Samples"] == 1
        assert s["Agent Reply Samples"] == 2

    @settings(max_examples=40)
    @given(st.lists(dialogues(), min_size=1, max_size=6))
    def test_streaming_recount_oracle(self, ds):
        """Every average matches an independent flat recomputation within 1e-9."""
        s = cp.compute_stats(ds)
        flat = [len(u.tokens) for d in ds for u in d.utterances]
        assert abs(s["Avg. Utterance Length"] - sum(flat) / len(flat)) < 1e-9
        turns = [max(u.turn_index for u in d.utterances) + 1 for d in ds]
        assert abs(s["Avg. Turns/Dialogue"] - sum(turns) / len(turns)) < 1e-9
        user_lens = [len(u.tokens) for d in ds for u in d.utterances if u.role == cp.USER]
        if user_lens:
            assert abs(s["Avg. User's Utterance"] - sum(user_lens) / len(user_lens)) < 1e-9

    def test_render_matches_table_row_names(self):
        d = make_dialogue("x", (cp.USER, "hi"), (cp.AGENT, "yo"))
        text = cp.render_stats(cp.compute_stats([d], vocab_size=9))
        for name in cp.STATS_ROWS:
            assert name in text


class TestFiles:
    def test_processed_round_trip(self, tmp_path):
        ds = [make_dialogue("a", (cp.USER, "x . y"), (cp.AGENT, "z")),
              make_dialogue("b", (cp.USER, "q"))]
        ds = [cp.split_utterances(d, 1.0, seed=3) for d in ds]
        path = tmp_path / "corpus.jsonl"
        cp.write_processed(ds, path, header={"seed": 3, "p_split": 1.0})
        header, back = cp.read_processed(path)
        assert header["seed"] == 3
        assert back == ds

    @pytest.mark.parametrize("kind", ["bad_json", "deep_json", "missing_key", "invalid_record",
                                      "string_tokens", "int_id", "list_id", "float_turn",
                                      "bool_subturn", "reserved_token"])
    @pytest.mark.parametrize("write, read", [(cp.write_processed, cp.read_processed)],
                             ids=["processed"])
    def test_bad_line_raises_located_error(self, tmp_path, write, read, kind):
        d = make_dialogue("a", (cp.USER, "hello"), (cp.AGENT, "hi"), (cp.USER, "bye"))
        path = tmp_path / "f.jsonl"
        write([d, d], path, header={"seed": 0})
        lines = path.read_text().splitlines()
        assert len(lines) >= 3
        rec = json.loads(lines[2])
        if kind == "bad_json":
            lines[2] = lines[2][:-1]
            want = f"{path}:3: bad JSON"
        elif kind == "deep_json":  # deeper than the decoder can recurse
            lines[2] = "[" * 100_000 + "]" * 100_000
            want = f"{path}:3: bad JSON"
        elif kind == "missing_key":
            del rec["utterances"]
            lines[2] = json.dumps(rec)
            want = f"{path}:3: missing key 'utterances'"
        elif kind == "invalid_record":
            rec["utterances"][0]["role"] = "narrator"
            lines[2] = json.dumps(rec)
            want = f"{path}:3: invalid record (unknown role 'narrator')"
        elif kind in ("int_id", "list_id"):  # ids are sorted, and an int and a str do not compare
            rec["id"] = 7 if kind == "int_id" else ["x"]
            lines[2] = json.dumps(rec)
            want = f"{path}:3: invalid record (id must be a string, not {type(rec['id']).__name__})"
        elif kind in ("float_turn", "bool_subturn"):  # an int64 cast would truncate either
            key, value = ("turn", 1.5) if kind == "float_turn" else ("subturn", True)
            rec["utterances"][0][key] = value
            lines[2] = json.dumps(rec)
            want = (f"{path}:3: invalid record ({key} must be an integer, "
                    f"not {type(value).__name__})")
        elif kind == "reserved_token":  # a control id must not pass as a word
            rec["utterances"][0]["tokens"] = ["sure", "<eos>", "which", "day"]
            lines[2] = json.dumps(rec)
            want = f"{path}:3: invalid record (reserved token '<eos>' in tokens)"
        else:  # a string, not a list: its characters must not pass as tokens
            rec["utterances"][0]["tokens"] = "hello"
            lines[2] = json.dumps(rec)
            want = f"{path}:3: invalid record (tokens must be a list of strings, not str)"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(cp.IngestError) as exc:
            read(path)
        assert str(exc.value).startswith(want)

    @pytest.mark.parametrize("read", [cp.read_processed])
    def test_empty_file_raises_located_error(self, tmp_path, read):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(cp.IngestError, match=f"^{re.escape(str(path))}:1: empty file"):
            read(path)

    def test_byte_identical_rewrite(self, tmp_path):
        ds = [make_dialogue(str(i), (cp.USER, "a . b . c"), (cp.AGENT, "d"))
              for i in range(20)]
        out = [cp.split_utterances(d, 0.5, seed=11) for d in ds]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        cp.write_processed(out, p1, header={"seed": 11})
        out2 = [cp.split_utterances(d, 0.5, seed=11) for d in ds]
        cp.write_processed(out2, p2, header={"seed": 11})
        assert p1.read_bytes() == p2.read_bytes()

    def test_split_corpus_deterministic_and_disjoint(self):
        ds = [make_dialogue(str(i), (cp.USER, "hi"), (cp.AGENT, "yo")) for i in range(50)]
        tr1, va1, te1 = cp.split_corpus(ds, seed=2)
        tr2, va2, te2 = cp.split_corpus(ds, seed=2)
        assert [d.id for d in tr1] == [d.id for d in tr2]
        ids = [d.id for d in tr1 + va1 + te1]
        assert sorted(ids) == sorted(d.id for d in ds)
        assert len(va1) == 5 and len(te1) == 5
