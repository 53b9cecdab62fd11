"""The per-element corpus preparation the package's one-pass versions replace.

Each function here is the earlier, plainly written form: a token check that
calls `isspace` on every character, a slot masker that tries every pattern at
every position, and a splitter that draws one scalar coin per boundary. The
tests pin `corpus._clean_tokens`, `mask_slots`, `split_utterances` and
`modify_corpus` to these, output for output.
"""

from __future__ import annotations

import hashlib

import numpy as np

from turntaking.corpus import (
    SPLIT_PUNCTUATION, USER, Dialogue, Utterance, tokenize,
)


def clean_tokens(tokens) -> bool:
    """Every token is non-empty and no character of it is whitespace."""
    return not any((not t) or any(c.isspace() for c in t) for t in tokens)


def mask_slots(dialogue: Dialogue, value_map: dict[str, list[str]]) -> Dialogue:
    """Longest value first, every pattern tried at every position, left to right."""
    if not value_map:
        return dialogue
    patterns = []
    for name, values in value_map.items():
        for v in values:
            toks = tuple(tokenize(v))
            if toks:
                patterns.append((toks, f"[{name.lower()}]"))
    patterns.sort(key=lambda p: (-len(p[0]), p[0], p[1]))
    if not patterns:
        return dialogue

    def mask_tokens(tokens):
        out = []
        i = 0
        while i < len(tokens):
            for pat, repl in patterns:
                if tokens[i:i + len(pat)] == pat:
                    out.append(repl)
                    i += len(pat)
                    break
            else:
                out.append(tokens[i])
                i += 1
        return tuple(out)

    return Dialogue(dialogue.id, tuple(
        Utterance(u.role, u.turn_index, u.subturn_index, mask_tokens(u.tokens))
        for u in dialogue.utterances))


def _dialogue_rng(seed: int, dialogue_id: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}|{dialogue_id}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def split_utterances(dialogue: Dialogue, p_split: float, seed: int) -> Dialogue:
    """One scalar `rng.random()` per boundary of each user utterance, in order."""
    rng = _dialogue_rng(seed, dialogue.id)
    out = []
    for u in dialogue.utterances:
        if u.role != USER:
            out.append(u)
            continue
        bounds = [i for i in range(len(u.tokens) - 1) if u.tokens[i] in SPLIT_PUNCTUATION]
        cuts = [i for i in bounds if rng.random() < p_split]
        if not cuts:
            out.append(u)
            continue
        segments, start = [], 0
        for c in cuts:
            segments.append(u.tokens[start:c + 1])
            start = c + 1
        segments.append(u.tokens[start:])
        for j, seg in enumerate(segments):
            out.append(Utterance(USER, u.turn_index, j, tuple(seg)))
    return Dialogue(dialogue.id, tuple(out))


def modify_corpus(dialogues, annotations, p_split: float, seed: int) -> list[Dialogue]:
    return [split_utterances(mask_slots(d, annotations.get(d.id, {})), p_split, seed)
            for d in dialogues]
