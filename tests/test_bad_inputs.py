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
"""

import dataclasses

from hypothesis import given, settings, strategies as st

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
