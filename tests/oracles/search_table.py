"""A frozen table of beam-search outputs, and the cases it was written from.

Each case is a seeded imaginator and a seeded batch of histories: V 6-60 (so
EOS, id 3, is always a token the search can emit), 1-8 histories of 1-30
random records, widths 1, 2, 3, 4 and 8, and max_len 1-11. In every fifth
case all parameters are zero, so every token ties at every step and the
tie-break alone decides. In the others the output layer is scaled up by a
seeded factor, and EOS's column of it by a second one, so that the search
keeps distinct hypotheses and some finish by EOS before max_len.

`search_table.json` holds what `imaginator.beam_decode` returned for every
case when the table was written (at commit 7a5b6b1, before the search moved
to fixed [histories, width] slots). `tests/test_imaginator.py` rebuilds each
case from its seeds and requires the same ids, so any later search is held to
that one. Running this module rewrites the table from the search it imports;
do that only to add cases, from a tree whose search already passes the table.
"""

import json
from pathlib import Path

import numpy as np

from turntaking import corpus as cp
from turntaking import imaginator as im

TABLE = Path(__file__).with_name("search_table.json")
WIDTHS = (1, 2, 3, 4, 8)
N_CASES = 200


def build_case(seed: int, V: int, hidden: int, histories: int, tied: bool):
    """The model and encoded histories of one case, drawn from its seed."""
    rng = np.random.default_rng(seed)
    model = im.ImaginatorModel(vocab_size=V, role=cp.AGENT, hidden=hidden, token_dim=5,
                               tag_dim=3, seed=seed)
    for _, p in model.params.items() if tied else ():
        p.data[:] = 0.0
    if not tied:  # sharper than at initialization, and EOS more state-dependent
        scale = rng.uniform(2.0, 8.0)
        model.params["out.W_v"].data[:] *= scale
        model.params["out.b_v"].data[:] *= scale
        model.params["out.W_v"].data[:, cp.EOS] *= rng.uniform(1.0, 5.0)
    encs = []
    for _ in range(histories):
        n = int(rng.integers(1, 31))
        encs.append(cp.EncodedHistory(
            tokens=rng.integers(0, V, n), roles=rng.integers(0, 2, n),
            turns=rng.integers(0, cp.TURN_CAP + 1, n),
            subturns=rng.integers(0, cp.SUBTURN_CAP + 1, n)))
    return model, encs


def decode_case(case: dict) -> list[list[int]]:
    model, encs = build_case(case["seed"], case["V"], case["hidden"], case["histories"],
                             case["tied"])
    return im.beam_decode(model, encs, beam_width=case["width"], max_len=case["max_len"])


def draw_cases() -> list[dict]:
    rng = np.random.default_rng(20251022)
    cases = []
    for i in range(N_CASES):
        cases.append({"seed": 1000 + i, "V": int(rng.integers(6, 61)),
                      "hidden": int(rng.choice([4, 6, 8, 12, 16])),
                      "histories": int(rng.integers(1, 9)),
                      "width": WIDTHS[(i + i // 5) % len(WIDTHS)],
                      "max_len": int(rng.integers(1, 12)), "tied": i % 5 == 4})
    return cases


if __name__ == "__main__":
    rows = [{**case, "ids": decode_case(case)} for case in draw_cases()]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} cases to {TABLE}")
