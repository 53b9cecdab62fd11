"""Deterministic toy corpora for end-to-end runs.

Two generators:

* make_synthetic_corpus: stylized service dialogues already in tagged form.
  User turns follow fixed per-topic subturn scripts and always close with the
  marker token "over"; agent replies use a disjoint content vocabulary. The
  wait/reply labels are therefore learnable, and a generator trained on one
  role should score far higher decoding its own role's utterances than the
  other role's.

* make_multiwoz_like: raw booking-style dialogues in the multiwoz-like
  ingestion schema, with multi-sentence user turns (so the splitter has
  boundaries to work with) and slot-annotated phone/address values in agent
  turns.
"""

from __future__ import annotations

import json

import numpy as np

from .corpus import AGENT, USER, Dialogue, Utterance, _write_atomic

# user-voice scripts: per topic, body sentences then a closing line ending
# with the marker; content words deliberately never appear in agent replies
TOPIC_SCRIPTS: dict[str, dict] = {
    "hotel": {
        "bodies": ("i need a quiet hotel room",
                   "near the old town please"),
        "closing": "that will be all over",
        "reply": "certainly your booking has been confirmed reference code alpha",
        "subturns": 2,
    },
    "taxi": {
        "bodies": ("i need a ride to the airport",
                   "pick me up at noon sharp"),
        "closing": "ready when you are over",
        "reply": "certainly your cab has been arranged reference code bravo",
        "subturns": 2,
    },
    "museum": {
        "bodies": ("find me a museum with old art",
                   "somewhere near the river maybe"),
        "closing": "that is everything over",
        "reply": "certainly your gallery pass has been issued reference code charlie",
        "subturns": 3,
    },
    "dinner": {
        "bodies": ("book me a dinner table for two",
                   "we would like a window seat"),
        "closing": "go ahead and book it over",
        "reply": "certainly your reservation has been confirmed reference code delta",
        "subturns": 1,
    },
    "flight": {
        "bodies": ("i want a cheap flight to oslo",
                   "leaving sunday in the morning"),
        "closing": "all set on my end over",
        "reply": "certainly your ticket has been issued reference code echo",
        "subturns": 2,
    },
}

TOPIC_ORDER = tuple(TOPIC_SCRIPTS)


def _next_topic(topic: str) -> str:
    i = TOPIC_ORDER.index(topic)
    return TOPIC_ORDER[(i + 1) % len(TOPIC_ORDER)]


def make_synthetic_corpus(n_dialogues: int = 2000, seed: int = 0) -> list[Dialogue]:
    """Tagged dialogues with scripted user subturn chains and agent replies.

    Each dialogue covers one or two topics; a follow-up topic is always the
    scripted successor of the first, so both next-utterance mappings are
    deterministic functions of the visible history.
    """
    if n_dialogues < 1:
        raise ValueError("need at least one dialogue")
    rng = np.random.default_rng(seed)
    dialogues = []
    for i in range(n_dialogues):
        topic = TOPIC_ORDER[int(rng.integers(0, len(TOPIC_ORDER)))]
        n_turns = 2 if rng.random() < 0.5 else 1
        utts: list[Utterance] = []
        for t in range(n_turns):
            script = TOPIC_SCRIPTS[topic]
            k = script["subturns"]
            messages = list(script["bodies"][:k - 1]) + [script["closing"]]
            for j, msg in enumerate(messages):
                utts.append(Utterance(USER, t, j, tuple(msg.split())))
            utts.append(Utterance(AGENT, t, 0, tuple(script["reply"].split())))
            topic = _next_topic(topic)
        dialogues.append(Dialogue(id=f"syn{i:05d}", utterances=tuple(utts)))
    return dialogues


# ---------------------------------------------------------------------------
# raw booking-style corpus for the full preprocessing pipeline

DOMAINS = ("restaurant", "hotel", "cafe", "museum", "theatre")
ADJECTIVES = ("cheap", "nice", "quiet", "popular")
AREAS = ("north", "south", "east", "west", "centre")
EXTRAS = {
    "restaurant": ("serve italian food", "serve chinese food", "have outdoor seating"),
    "hotel": ("include free parking", "have a swimming pool", "allow small pets"),
    "cafe": ("open early in the morning", "have fresh pastries", "offer free wifi"),
    "museum": ("stay open late", "have a guided tour", "be free to enter"),
    "theatre": ("show something new", "have cheap seats", "run a matinee"),
}
STREETS = ("mill lane", "king street", "station road", "market square", "abbey walk")


def _phone(rng) -> str:
    return f"0{rng.integers(1000, 9999)} {rng.integers(100000, 999999)}"


def _address(rng) -> str:
    return f"{rng.integers(1, 99)} {STREETS[int(rng.integers(0, len(STREETS)))]}"


def make_multiwoz_like(n_dialogues: int = 500, seed: int = 0) -> list[dict]:
    """Raw ingestion records: booking enquiries with slot-annotated answers.

    Returns a list shaped for the multiwoz-like reader: dialogues of
    alternating user/agent turns, each dialogue carrying its slot value map.
    Roughly half the dialogues ask a follow-up question before closing.
    """
    if n_dialogues < 1:
        raise ValueError("need at least one dialogue")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_dialogues):
        domain = DOMAINS[int(rng.integers(0, len(DOMAINS)))]
        adj = ADJECTIVES[int(rng.integers(0, len(ADJECTIVES)))]
        area = AREAS[int(rng.integers(0, len(AREAS)))]
        extra = EXTRAS[domain][int(rng.integers(0, 3))]
        phone = _phone(rng)
        slots = {f"{domain}_phone": phone}
        turns = [
            {"speaker": "user",
             "text": (f"i am looking for a {adj} {domain} in the {area} . "
                      f"it should {extra} . "
                      "can you give me the phone number please ?")},
            {"speaker": "agent",
             "text": (f"sure , the phone number is {phone} . "
                      "anything else i can help with ?")},
        ]
        if rng.random() < 0.5:
            address = _address(rng)
            slots[f"{domain}_address"] = address
            turns.append({"speaker": "user",
                          "text": ("yes , what is the address ? "
                                   "i will need it later today .")})
            turns.append({"speaker": "agent",
                          "text": (f"of course , the address is {address} . "
                                   "happy to help .")})
        turns.append({"speaker": "user",
                      "text": "no , that is all . thank you for the help . goodbye ."})
        turns.append({"speaker": "agent",
                      "text": "you are welcome . have a lovely day . goodbye ."})
        records.append({"id": f"mwz{i:04d}", "turns": turns, "slots": slots})
    return records


def write_multiwoz_like(records: list[dict], path) -> None:
    _write_atomic(path, (json.dumps(records, indent=1, sort_keys=True) + "\n").encode())
