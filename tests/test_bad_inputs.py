"""Property tests over inputs the program reads: a bad input fails cleanly.

A config text is either refused by `TrainConfig.from_text` with a ValueError,
or describes a model that `build_model` builds. Nothing in between: no other
exception, and no error surfacing later from numpy or the parameter set.

The texts come from a fixed grammar over one bounded pool of values, so a run
is deterministic and small. A text sets each `TrainConfig` key or leaves it
out, from the part of the pool its type takes (which holds invalid boundary
values too: 0, -1, nan, inf, repeated or empty filter widths), and then
appends up to two stray lines: any key, unknown ones included, so a key may be
set twice, with any value of the pool.

A processed corpus is either read by `stats`, or refused with an error located
at the line that is wrong: `cli.main` returns 1 and its last line on stderr is
`error: <path>:<line>: ...`. A small valid file has one dialogue line
replaced by a mutation from a bounded pool: JSON nested deeper than the
decoder can recurse, text that is not JSON, a value of the wrong JSON type (or
of the right one) for `id`, `turn`, `subturn`, `tokens` or `role`, an empty
`tokens` list, or a reserved token among the tokens.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from turntaking import cli
from turntaking import corpus as cp
from turntaking.training import TrainConfig, build_model

FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
KEYS = [*FIELDS, "bogus", "clip_norm", "gru_hidden", "max_history"]
SIZES = [str(i) for i in range(1, 17)]
CHOICES = {"kind": ["imaginator", "arbitrator"], "role": ["agent", "user"],
           "encoder": ["textcnn", "bigru"], "mode": ["ita", "baseline"],
           "filter_widths": ["3,4,3", "2,,3", "2,3"], "seed": ["0", "1", "16", "-1"],
           "patience": ["0", "1", "16", "-1"], "p_split": ["0", "1", "nan", "inf"],
           "learning_rate": SIZES + ["0", "nan", "inf"]}
POOL = SIZES + ["0", "-1", "nan", "inf"] + [v for k in ("kind", "role", "encoder", "mode",
                                                        "filter_widths") for v in CHOICES[k]]
POOL += ["x"]


def _suited(key: str) -> list[str]:
    """The part of the pool a key's type takes: sizes (0 among them) unless named."""
    return CHOICES.get(key, SIZES + ["0"])


SET_KEYS = st.fixed_dictionaries({key: st.none() | st.sampled_from(_suited(key))
                                  for key in FIELDS})
STRAY_LINES = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(POOL)), max_size=2)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(SET_KEYS, STRAY_LINES)
def test_config_text_refused_or_builds(set_keys, stray_lines):
    lines = [(k, v) for k, v in set_keys.items() if v is not None] + stray_lines
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        cfg = TrainConfig.from_text(text)
    except ValueError:
        return
    build_model(cfg, 12)


DIALOGUES = [cp.Dialogue(str(i), (cp.Utterance(cp.USER, 0, 0, ("hi", "there")),
                                  cp.Utterance(cp.USER, 0, 1, ("a", "table")),
                                  cp.Utterance(cp.AGENT, 1, 0, ("sure",))))
             for i in range(3)]
NOT_JSON = ["", "{", "not json", '{"id": "0",', "[1, 2", "nan"]
WRONG = [None, True, 7, -1, 1.5, "x", "agent", [], ["x"], [7], [[]], {}, {"a": 1}]
MUTATIONS = st.one_of(
    st.tuples(st.just("deep"), st.just(None)),
    st.tuples(st.just("not_json"), st.sampled_from(NOT_JSON)),
    st.tuples(st.sampled_from(["id", "turn", "subturn", "tokens", "role"]),
              st.sampled_from(WRONG)),
    st.tuples(st.just("empty_tokens"), st.just(None)),
    st.tuples(st.just("reserved_token"), st.sampled_from(cp.RESERVED_TOKENS)),
)


def _mutated(line: str, kind: str, value, utt: int) -> str:
    """The dialogue line with one mutation; utt picks the utterance a field one edits."""
    if kind == "deep":
        return "[" * 100_000 + "]" * 100_000
    if kind == "not_json":
        return value
    rec = json.loads(line)
    u = rec["utterances"][utt]
    if kind == "id":
        rec["id"] = value
    elif kind == "empty_tokens":
        u["tokens"] = []
    elif kind == "reserved_token":
        u["tokens"].insert(1, value)
    else:
        u[kind] = value
    return json.dumps(rec)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, len(DIALOGUES) + 1), MUTATIONS, st.integers(0, 2))
def test_processed_corpus_read_or_refused_at_its_line(line_no, mutation, utt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "processed.jsonl"
        cp.write_processed(DIALOGUES, path, header={"seed": 0})
        lines = path.read_text().splitlines()
        lines[line_no - 1] = _mutated(lines[line_no - 1], *mutation, utt)
        path.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["stats", "--data", str(path)])
    if code != 0:
        assert code == 1
        assert err.getvalue().splitlines()[-1].startswith(f"error: {path}:{line_no}: ")
