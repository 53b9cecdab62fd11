"""Dialogue corpus ingestion, modification, and sample derivation.

The raw corpora arrive as either a JSON dump of dialogues with speaker-tagged
turns (optionally annotated with slot values), a one-dialogue-per-line text
file with a delimiter between utterances, or generic JSONL. Ingestion
normalizes all of them into the same shape: lowercased whitespace tokens,
alternating roles at turn granularity, subturn 0 everywhere.

The modification pass then (a) masks annotated slot values with bracketed
placeholder tokens, and (b) probabilistically splits user utterances at
sentence-final punctuation into subturns, which is what creates the
wait/reply prediction problem in the first place: after every user subturn
the agent must decide whether more is coming.

This module also decides, once for every model and run, how a history is
encoded and how a corpus is split: `encode_history` keeps the most recent
MAX_HISTORY records with tags clamped to TURN_CAP and SUBTURN_CAP, so both
imaginators and the arbitrator read a history alike, and `split_corpus` holds
out VALID_FRAC and TEST_FRAC of the dialogues in an order the seed alone fixes.
The reserved tokens (`<pad>`, `<eos>`, ...) are control ids, so corpus text
that holds one is refused, located, on ingestion and on reading a processed
file.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

AGENT = "agent"
USER = "user"

PAD, UNK, BOS, EOS, SEP = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>", "<sep>", "<agent>", "<user>")
_RESERVED = frozenset(RESERVED_TOKENS)

SPLIT_PUNCTUATION = frozenset({".", "!", "?", ";"})

# one history encoding for every model: the most recent MAX_HISTORY records,
# turn and subturn tags clamped to their caps
MAX_HISTORY = 256
TURN_CAP = 16
SUBTURN_CAP = 8

# one split for every run: the shares of dialogues held out for validation and test
VALID_FRAC = 0.1
TEST_FRAC = 0.1


class IngestError(ValueError):
    """A source record violated its schema; the message carries a locator."""


def _clean_tokens(tokens: Sequence[str]) -> bool:
    """Whether every token is non-empty and free of `str.isspace()` characters.

    `str.split()` breaks exactly at those characters and drops empty pieces, so
    joining on spaces and splitting again gives the tokens back just when they
    are clean: one pass in C, not one `isspace` call per character.
    """
    return " ".join(tokens).split() == list(tokens)


@dataclass(frozen=True)
class Utterance:
    """One message of a dialogue, or one subturn of a split user message.

    The token rule: tokens are non-empty and hold no whitespace character
    (`str.isspace()`), which `_clean_tokens` checks once per utterance.
    """
    role: str
    turn_index: int
    subturn_index: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.role not in (AGENT, USER):
            raise ValueError(f"unknown role {self.role!r}")
        if self.turn_index < 0 or self.subturn_index < 0:
            raise ValueError("turn and subturn indices are non-negative")
        if self.role == AGENT and self.subturn_index != 0:
            raise ValueError("agent utterances are never split into subturns")
        if not self.tokens:
            raise ValueError("utterance has no tokens")
        if not _clean_tokens(self.tokens):
            raise ValueError("tokens must be non-empty and whitespace-free")


@dataclass(frozen=True)
class Dialogue:
    id: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self):
        if not self.utterances:
            raise ValueError(f"dialogue {self.id!r} is empty")


@dataclass(frozen=True)
class ArbitratorSample:
    """History up to and including a user utterance; 1 means reply now."""
    history: tuple[Utterance, ...]
    label: int

    def __post_init__(self):
        if not self.history or self.history[-1].role != USER:
            raise ValueError("history must end with a user utterance")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class ImaginatorSample:
    history: tuple[Utterance, ...]
    target: Utterance


def tokenize(text: str) -> list[str]:
    return text.lower().split()


# ---------------------------------------------------------------------------
# ingestion


def _assemble_dialogue(did: str, raw: list[tuple[str, str]], loc: str) -> Dialogue | None:
    """Turn the (role, text) pairs of the record at `loc` into a Dialogue.

    Consecutive same-role messages are combined into a single utterance, so
    roles strictly alternate afterwards and every utterance starts at
    subturn 0; splitting is the only step that creates further subturns.
    Returns None for a dialogue with no usable content. A message with no
    tokens, or with a reserved token, raises IngestError naming the record and
    the message.
    """
    merged: list[tuple[str, list[str]]] = []
    for i, (role, text) in enumerate(raw):
        toks = tokenize(text)
        if not toks or not _RESERVED.isdisjoint(toks):
            why = (f"reserved token {min(_RESERVED.intersection(toks))!r} in the text"
                   if toks else "empty utterance")
            raise IngestError(f"{loc}: dialogue {did!r}, message {i}: {why}")
        if merged and merged[-1][0] == role:
            merged[-1][1].extend(toks)
        else:
            merged.append((role, toks))
    if not merged:
        return None
    utts = tuple(
        Utterance(role=role, turn_index=t, subturn_index=0, tokens=tuple(toks))
        for t, (role, toks) in enumerate(merged)
    )
    return Dialogue(id=did, utterances=utts)


def _normalize_speaker(value, locator: str) -> str:
    s = str(value).strip().lower()
    if s in ("user", "usr", "customer"):
        return USER
    if s in ("agent", "system", "sys", "assistant", "wizard"):
        return AGENT
    raise IngestError(f"{locator}: unknown speaker {value!r}")


def ingest_source(path, format: str):
    """Read a corpus file.

    Returns (dialogues, annotations, skipped) where annotations maps dialogue
    id to its slot value_map (empty for formats without annotations) and
    skipped counts empty dialogues dropped with a warning.
    """
    path = Path(path)
    if format == "multiwoz-like":
        return _ingest_multiwoz(path)
    if format == "dailydialogue-like":
        return _ingest_dailydialogue(path)
    if format == "generic-jsonl":
        return _ingest_jsonl(path)
    raise ValueError(f"unknown corpus format {format!r}")


def _walk_records(located, messages: str, speaker: str):
    """Dialogues, slot annotations and the skipped count of raw records, each given
    as (locator, default id, parsed JSON). A record must be an object whose
    `messages` key holds a list of objects with `speaker` and `text` keys, and
    whose optional `slots` is an object; otherwise IngestError at the locator."""
    dialogues, annotations, skipped = [], {}, 0
    for loc, n, rec in located:
        if not isinstance(rec, dict):
            raise IngestError(f"{loc}: expected an object, got {type(rec).__name__}")
        if messages not in rec:
            raise IngestError(f"{loc}: missing {messages!r}")
        if not isinstance(rec[messages], list):
            raise IngestError(f"{loc}.{messages}: expected a list")
        slots = rec.get("slots", {})
        if not isinstance(slots, dict):
            raise IngestError(f"{loc}.slots: expected an object")
        did = str(rec.get("id", n))
        raw = []
        for m, msg in enumerate(rec[messages]):
            if not isinstance(msg, dict) or speaker not in msg or "text" not in msg:
                raise IngestError(f"{loc}.{messages}[{m}]: need {speaker!r} and 'text'")
            raw.append((_normalize_speaker(msg[speaker], f"{loc}.{messages}[{m}]"),
                        str(msg["text"])))
        d = _assemble_dialogue(did, raw, loc)
        if d is None:
            skipped += 1
            continue
        dialogues.append(d)
        annotations[did] = {str(k): [str(v) for v in (vs if isinstance(vs, list) else [vs])]
                            for k, vs in slots.items()}
    return dialogues, annotations, skipped


def _ingest_multiwoz(path: Path):
    try:
        records = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise IngestError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(records, list):
        raise IngestError(f"{path}: expected a top-level list of dialogues")
    return _walk_records(((f"{path}:dialogue[{n}]", n, rec) for n, rec in enumerate(records)),
                         "turns", "speaker")


def _ingest_dailydialogue(path: Path):
    """One dialogue per line, utterances separated by `__eou__`; a line with none
    is skipped.

    Speakers are unannotated in this layout; they alternate starting with the
    user.
    """
    dialogues, skipped = [], 0
    for n, line in enumerate(path.read_text().splitlines()):
        pieces = list(filter(None, (p.strip() for p in line.split("__eou__"))))
        if not pieces:
            skipped += 1
            continue
        raw = [(USER if i % 2 == 0 else AGENT, p) for i, p in enumerate(pieces)]
        dialogues.append(_assemble_dialogue(str(n), raw, f"{path}:{n + 1}"))
    return dialogues, {}, skipped


def _ingest_jsonl(path: Path):
    def located():
        for n, line in enumerate(path.read_text().splitlines()):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise IngestError(f"{path}:{n + 1}: bad JSON ({e})") from None
            yield f"{path}:{n + 1}", n, rec

    return _walk_records(located(), "utterances", "role")


# ---------------------------------------------------------------------------
# modification


def mask_slots(dialogue: Dialogue, value_map: dict[str, list[str]]) -> Dialogue:
    """Replace annotated slot values with single bracketed placeholder tokens.

    Matching is on token subsequences, longest value first, scanning left to
    right; an empty map is the identity. The patterns are indexed by their first
    token, so an utterance that holds no first token is returned as it is (the
    same object) after one set test, and at each position of the others only the
    patterns starting with that position's token are tried, still longest first.
    An utterance in which nothing matched is returned as it is too.
    """
    if not value_map:
        return dialogue
    patterns: list[tuple[tuple[str, ...], str]] = []
    for name, values in value_map.items():
        for v in values:
            toks = tuple(tokenize(v))
            if toks:
                patterns.append((toks, f"[{name.lower()}]"))
    # longest first so "01223 323737" wins over a bare "01223"
    patterns.sort(key=lambda p: (-len(p[0]), p[0], p[1]))
    by_first: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for pat, repl in patterns:
        by_first.setdefault(pat[0], []).append((pat, repl))
    if not by_first:
        return dialogue

    def mask(u: Utterance) -> Utterance:
        tokens = u.tokens
        if by_first.keys().isdisjoint(tokens):
            return u
        out: list[str] = []
        i = 0
        while i < len(tokens):
            for pat, repl in by_first.get(tokens[i], ()):
                if tokens[i:i + len(pat)] == pat:
                    out.append(repl)
                    i += len(pat)
                    break
            else:
                out.append(tokens[i])
                i += 1
        masked = tuple(out)
        if masked == tokens:
            return u
        return Utterance(u.role, u.turn_index, u.subturn_index, masked)

    return Dialogue(dialogue.id, tuple(mask(u) for u in dialogue.utterances))


def _dialogue_rng(seed: int, dialogue_id: str) -> np.random.Generator:
    # hash the (seed, id) pair so splitting a dialogue never depends on how
    # many dialogues came before it in the file
    digest = hashlib.blake2b(f"{seed}|{dialogue_id}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def split_utterances(dialogue: Dialogue, p_split: float, seed: int) -> Dialogue:
    """Split user utterances at sentence punctuation, each boundary with p_split.

    The punctuation token stays on the left segment. Segments become
    consecutive subturns of the same turn. Agent utterances pass through.
    Boundaries are the positions, short of the last, of a token in
    SPLIT_PUNCTUATION. Each user utterance with k of them draws its k coins
    with one `rng.random(k)` call from the dialogue's generator, which is the
    same stream as k scalar draws; a boundary is cut when its coin is below
    p_split. An utterance without boundaries draws nothing.
    """
    if not 0.0 <= p_split <= 1.0:
        raise ValueError(f"p_split must be a probability, got {p_split}")
    rng = _dialogue_rng(seed, dialogue.id)
    out: list[Utterance] = []
    for u in dialogue.utterances:
        tokens = u.tokens
        if u.role != USER or SPLIT_PUNCTUATION.isdisjoint(tokens[:-1]):
            out.append(u)
            continue
        bounds = [i for i, t in enumerate(tokens[:-1]) if t in SPLIT_PUNCTUATION]
        cuts = [c for c, coin in zip(bounds, rng.random(len(bounds)).tolist()) if coin < p_split]
        if not cuts:
            out.append(u)
            continue
        start = 0
        for j, c in enumerate(cuts):
            out.append(Utterance(USER, u.turn_index, j, tokens[start:c + 1]))
            start = c + 1
        out.append(Utterance(USER, u.turn_index, len(cuts), tokens[start:]))
    return Dialogue(dialogue.id, tuple(out))


def modify_corpus(dialogues: Iterable[Dialogue], annotations: dict[str, dict[str, list[str]]],
                  p_split: float, seed: int) -> list[Dialogue]:
    """mask_slots then split_utterances over a whole corpus."""
    out = []
    for d in dialogues:
        d = mask_slots(d, annotations.get(d.id, {}))
        out.append(split_utterances(d, p_split, seed))
    return out


# ---------------------------------------------------------------------------
# sample derivation


def derive_arbitrator_samples(dialogue: Dialogue) -> list[ArbitratorSample]:
    """One wait/reply sample per user utterance.

    Label 1 when the next utterance is the agent's; 0 when another user
    subturn follows. A dialogue-final user utterance gets label 1: the
    conversation ended with the user expecting closure.
    """
    samples = []
    utts = dialogue.utterances
    for i, u in enumerate(utts):
        if u.role != USER:
            continue
        nxt = utts[i + 1] if i + 1 < len(utts) else None
        label = 1 if nxt is None or nxt.role == AGENT else 0
        samples.append(ArbitratorSample(history=utts[:i + 1], label=label))
    return samples


def derive_imaginator_samples(dialogue: Dialogue, role: str) -> list[ImaginatorSample]:
    """One generation sample per utterance of the role, skipping history-less ones."""
    if role not in (AGENT, USER):
        raise ValueError(f"unknown role {role!r}")
    utts = dialogue.utterances
    return [
        ImaginatorSample(history=utts[:i], target=u)
        for i, u in enumerate(utts)
        if u.role == role and i > 0
    ]


# ---------------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """token <-> id with fixed reserved entries.

    ids 0..3 are PAD/UNK/BOS/EOS, 4 is the utterance separator, 5 and 6 the
    role tag symbols. Corpus tokens follow, ordered by descending frequency
    then lexicographically, so the mapping is a pure function of the corpus.
    """

    def __init__(self, tokens: Sequence[str], freqs: Sequence[int]):
        if tuple(tokens[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        self.id_to_token = list(tokens)
        self.freqs = list(freqs)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def decode_id(self, idx: int) -> str:
        return self.id_to_token[idx]

    def hash(self) -> str:
        h = hashlib.sha256("\n".join(self.id_to_token).encode())
        return h.hexdigest()

    def save(self, path) -> None:
        lines = [f"{t}\t{f}" for t, f in zip(self.id_to_token, self.freqs)]
        _write_atomic(path, ("\n".join(lines) + "\n").encode())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what `save` writes, one `token<TAB>count` line per id; a line that
        breaks that form, or lists a token again, raises an IngestError naming it."""
        tokens, freqs = [], []
        for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
            token, tab, count = line.partition("\t")
            if not tab:
                raise IngestError(f"{path}:{n}: expected 'token<TAB>count', found no tab")
            if not _clean_tokens((token,)):
                raise IngestError(f"{path}:{n}: token {token!r} is empty or holds whitespace")
            try:
                freqs.append(int(count))
            except ValueError:
                raise IngestError(f"{path}:{n}: count {count!r} is not an integer") from None
            tokens.append(token)
        try:
            return cls(tokens, freqs)
        except ValueError as e:  # locate the fault here, off the path of a valid file
            first: dict[str, int] = {}
            for n, token in enumerate(tokens, start=1):
                if first.setdefault(token, n) != n:
                    raise IngestError(f"{path}:{n}: token {token!r} already listed "
                                      f"at line {first[token]}") from None
            raise IngestError(f"{path}: {e}") from None


def build_vocabulary(dialogues: Iterable[Dialogue], min_freq: int = 1) -> Vocabulary:
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for d in dialogues:
        for u in d.utterances:
            counts.update(u.tokens)
    reserved_freqs = [counts.pop(t, 0) for t in RESERVED_TOKENS]
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    tokens = list(RESERVED_TOKENS) + kept
    freqs = reserved_freqs + [counts[t] for t in kept]
    return Vocabulary(tokens, freqs)


# ---------------------------------------------------------------------------
# encoding


@dataclass(frozen=True)
class EncodedHistory:
    """Parallel int arrays, one record per token (plus separators)."""
    tokens: np.ndarray
    roles: np.ndarray
    turns: np.ndarray
    subturns: np.ndarray

    def __len__(self) -> int:
        return int(self.tokens.shape[0])


def role_id(role: str) -> int:
    return 0 if role == AGENT else 1


def encode_history(history: Sequence[Utterance], vocab: Vocabulary) -> EncodedHistory:
    """Flatten a history into (token, role, turn, subturn) id records.

    Utterances are joined by a separator record carrying the tags of the
    utterance it closes. Overlong histories keep the most recent MAX_HISTORY
    records (truncated from the oldest side); tag indices clamp to TURN_CAP and
    SUBTURN_CAP.
    """
    if not history:
        raise ValueError("cannot encode an empty history")
    toks: list[int] = []
    rids: list[int] = []
    turns: list[int] = []
    subs: list[int] = []
    for k, u in enumerate(history):
        r = role_id(u.role)
        t = min(u.turn_index, TURN_CAP)
        s = min(u.subturn_index, SUBTURN_CAP)
        for w in u.tokens:
            toks.append(vocab.encode_token(w))
            rids.append(r)
            turns.append(t)
            subs.append(s)
        if k + 1 < len(history):
            toks.append(SEP)
            rids.append(r)
            turns.append(t)
            subs.append(s)
    if len(toks) > MAX_HISTORY:
        toks, rids, turns, subs = (seq[-MAX_HISTORY:] for seq in (toks, rids, turns, subs))
    return EncodedHistory(
        tokens=np.asarray(toks, dtype=np.int64),
        roles=np.asarray(rids, dtype=np.int64),
        turns=np.asarray(turns, dtype=np.int64),
        subturns=np.asarray(subs, dtype=np.int64),
    )


def encode_target(tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """BOS ... EOS wrapped target ids for teacher forcing."""
    return np.asarray([BOS] + [vocab.encode_token(t) for t in tokens] + [EOS],
                      dtype=np.int64)


# ---------------------------------------------------------------------------
# statistics

STATS_ROWS = (
    "Vocabulary Size",
    "Dialogues",
    "Avg. Turns/Dialogue",
    "Avg. Split User Turns",
    "Avg. Utterance Length",
    "Avg. Agent's Utterance",
    "Avg. User's Utterance",
    "Agent Wait Samples",
    "Agent Reply Samples",
)


def compute_stats(dialogues: Sequence[Dialogue], vocab_size: int | None = None) -> dict:
    """The corpus summary table: averages over the modified corpus plus
    wait/reply sample counts."""
    n_dialogues = len(dialogues)
    turn_counts = []
    user_turn_subturns: list[int] = []
    lengths_all: list[int] = []
    lengths_agent: list[int] = []
    lengths_user: list[int] = []
    wait = reply = 0
    for d in dialogues:
        turn_counts.append(max(u.turn_index for u in d.utterances) + 1)
        per_turn: Counter[int] = Counter()
        for u in d.utterances:
            lengths_all.append(len(u.tokens))
            if u.role == AGENT:
                lengths_agent.append(len(u.tokens))
            else:
                lengths_user.append(len(u.tokens))
                per_turn[u.turn_index] += 1
        user_turn_subturns.extend(per_turn.values())
        for s in derive_arbitrator_samples(d):
            if s.label == 1:
                reply += 1
            else:
                wait += 1

    def avg(xs):
        return float(np.mean(xs)) if xs else 0.0

    stats = {
        "Dialogues": n_dialogues,
        "Avg. Turns/Dialogue": avg(turn_counts),
        "Avg. Split User Turns": avg(user_turn_subturns),
        "Avg. Utterance Length": avg(lengths_all),
        "Avg. Agent's Utterance": avg(lengths_agent),
        "Avg. User's Utterance": avg(lengths_user),
        "Agent Wait Samples": wait,
        "Agent Reply Samples": reply,
    }
    if vocab_size is not None:
        stats = {"Vocabulary Size": vocab_size, **stats}
    return stats


def render_stats(stats: dict) -> str:
    lines = []
    for key in STATS_ROWS:
        if key not in stats:
            continue
        v = stats[key]
        lines.append(f"{key}: {v}" if isinstance(v, int) else f"{key}: {v:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# processed-corpus files (line-delimited JSON with a header line)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _utt_record(u: Utterance) -> dict:
    return {"role": u.role, "turn": u.turn_index, "subturn": u.subturn_index,
            "tokens": list(u.tokens)}


def _utt_from_record(rec: dict) -> Utterance:
    tokens = rec["tokens"]
    if type(tokens) is not list:  # a string would pass as its characters
        raise ValueError(f"tokens must be a list of strings, not {type(tokens).__name__}")
    for key in ("turn", "subturn"):  # encode_history's int64 cast would truncate 1.5 or true
        if type(rec[key]) is not int:
            raise ValueError(f"{key} must be an integer, not {type(rec[key]).__name__}")
    if not _RESERVED.isdisjoint(tokens):
        raise ValueError(f"reserved token {min(_RESERVED.intersection(tokens))!r} in tokens")
    return Utterance(role=rec["role"], turn_index=rec["turn"],
                     subturn_index=rec["subturn"], tokens=tuple(tokens))


def _write_atomic(path, *pieces) -> None:
    """Replace path with the bytes-like pieces, written in order, in one step: readers
    see the old file or the new, never a mix."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_processed(dialogues: Iterable[Dialogue], path, header: dict) -> None:
    lines = [_dumps({"header": header})] + [
        _dumps({"id": d.id, "utterances": [_utt_record(u) for u in d.utterances]})
        for d in dialogues]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_processed(path):
    """The header and the dialogues of a file written by `write_processed`.

    A line that is not JSON, lacks a key or holds an invalid record raises
    IngestError located at "<path>:<line>", and so does a file with no lines,
    at line 1.
    """
    header, dialogues, n = None, [], 0
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
                if n > 1:
                    if type(rec["id"]) is not str:  # split_corpus sorts dialogues by id
                        raise ValueError(f"id must be a string, not {type(rec['id']).__name__}")
                    dialogues.append(Dialogue(id=rec["id"], utterances=tuple(
                        _utt_from_record(u) for u in rec["utterances"])))
                elif isinstance(rec, dict) and "header" in rec:
                    header = rec["header"]
                else:
                    raise KeyError("header")
            except json.JSONDecodeError as e:
                raise IngestError(f"{path}:{n}: bad JSON ({e})") from None
            except KeyError as e:
                raise IngestError(f"{path}:{n}: missing key {e}") from None
            except (TypeError, ValueError) as e:
                raise IngestError(f"{path}:{n}: invalid record ({e})") from None
    if n == 0:
        raise IngestError(f"{path}:1: empty file, no header line")
    return header, dialogues


def split_corpus(dialogues: Sequence[Dialogue], seed: int):
    """Deterministic train/valid/test partition by shuffled dialogue order: the
    seed alone fixes it, with VALID_FRAC and TEST_FRAC of the dialogues held out."""
    ordered = sorted(dialogues, key=lambda d: d.id)
    rng = _dialogue_rng(seed, "corpus-split")
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    n = len(shuffled)
    n_valid = int(round(n * VALID_FRAC))
    n_test = int(round(n * TEST_FRAC))
    n_train = n - n_valid - n_test
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_valid],
            shuffled[n_train + n_valid:])
