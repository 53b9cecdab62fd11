"""The three benchmark workloads: input generators, set-up and rounds.

A workload turns a seed into inputs (`generate`, never timed), prepares the
program state from them (`setup`, timed as `setup_s`), then runs *rounds*:
fixed amounts of work that the runner repeats for the measured seconds. The
two training workloads repeat identical rounds (models are reset to their
initial parameters, so every round must reach the same digest); a
`serve-sessions` round is the next seeded session, one decision per user
message.

Only public functions of `corpus`, `imaginator`, `arbitrator`, `autodiff`
and `training` are called; `synthetic` only generates inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from turntaking import arbitrator as arb
from turntaking import corpus, synthetic, training
from turntaking import imaginator as im
from turntaking.corpus import (
    AGENT, EOS, RESERVED_TOKENS, USER, Utterance, Vocabulary,
)
from turntaking.training import TrainConfig


@dataclass
class RoundResult:
    """What one round did, how long it took and what it produced."""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0  # operations that raised or gave a wrong output
    wrong: int = 0  # operations that gave a wrong output
    records: list = field(default_factory=list)  # digest input, in program order
    phases: dict = field(default_factory=dict)  # phase -> [work items, seconds]
    quality: dict = field(default_factory=dict)  # guard name -> values
    decision_ms: list = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def add_phase(self, name: str, items: int, seconds: float) -> None:
        done = self.phases.setdefault(name, [0, 0.0])
        done[0] += items
        done[1] += seconds


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.params.as_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _train(result: RoundResult, tracer, phase: str, cfg: TrainConfig, train, valid, model,
           vocab, work_dir, imaginators=None) -> None:
    """One `run_training` call under a fixed budget, checked and accounted."""
    result.attempted += 1
    with tracer.operation(f"{phase}#{len(result.records)}"):
        t0 = time.perf_counter()
        try:
            res = training.run_training(cfg, train, valid, model, vocab,
                                        imaginators=imaginators,
                                        metrics_path=work_dir / f"{phase}.metrics.jsonl",
                                        checkpoint_path=work_dir / f"{phase}.ckpt")
        except Exception as e:  # the round goes on; the failure is counted
            traceback.print_exc()
            result.failed += 1
            result.records.append([phase, f"raised {type(e).__name__}: {e}"])
            return
        seconds = time.perf_counter() - t0
    values = [h["value"] for h in res.history]
    ok = (res.epochs_run == cfg.epochs and all(math.isfinite(v) for v in values)
          and 0.0 <= res.best_value <= 1.0)
    if not ok:
        result.failed += 1
        result.wrong += 1
    result.add_phase(phase, len(train) * cfg.epochs, seconds)
    result.quality.setdefault(res.metric_name, []).append(res.best_value)
    result.records.append([phase, [float(v).hex() for v in values], params_digest(model)])


def spread(samples, n: int) -> list:
    """`n` samples at evenly spaced ranks of history length, in their original order.

    A plain prefix would let the total work of a round swing with whichever
    dialogues a seed puts first; even ranks keep it close to the corpus
    average on every seed.
    """
    if n >= len(samples):
        return list(samples)
    ranked = sorted(range(len(samples)),
                    key=lambda i: (sum(len(u.tokens) + 1 for u in samples[i].history), i))
    picked = sorted(ranked[(2 * k + 1) * len(samples) // (2 * n)] for k in range(n))
    return [samples[i] for i in picked]


def stand_in(model):
    """Pin an untrained imaginator's EOS logit far down.

    With EOS out of reach every decode runs to max_len, so the work of a
    round follows the size of its inputs, not which seeds happen to stop
    early. Nothing else is changed: an imagination the untrained weights make
    of PAD alone reaches the program as it is, and a call it makes fail is
    counted as a failed operation.
    """
    model.params["out.b_v"].data[EOS] = -1e4
    return model


def _reset(models) -> None:
    for model, arrays in models:
        model.params.load_arrays(arrays)


# ---------------------------------------------------------------------------
# quickstart-synthetic


class QuickstartSynthetic:
    """The quick start in miniature: both imaginators, beam BLEU, an ITA TextCNN arbitrator."""

    name = "quickstart-synthetic"
    identical_rounds = True
    # compact sizes of `experiments.synthetic_experiment`
    base = dict(batch_size=32, learning_rate=5e-3, hidden=48, token_dim=24, tag_dim=4,
                filter_widths="2,3", filters_per_width=32, beam_width=4, max_decode_len=16)

    def __init__(self, n_dialogues=240, im_train=256, im_epochs=7, im_valid=24, eval_samples=40,
                 arb_train=160, arb_valid=32):
        self.n_dialogues = n_dialogues
        self.im_train = im_train
        self.im_epochs = im_epochs
        self.im_valid = im_valid
        self.eval_samples = eval_samples
        self.arb_train = arb_train
        self.arb_valid = arb_valid

    def generate(self, seed: int, work_dir) -> dict:
        return {"seed": seed, "dialogues": synthetic.make_synthetic_corpus(self.n_dialogues, seed),
                "work_dir": work_dir}

    def setup(self, inputs: dict) -> dict:
        seed = inputs["seed"]
        train_d, valid_d, _ = corpus.split_corpus(inputs["dialogues"], seed)
        vocab = corpus.build_vocabulary(train_d)
        # patience >= epochs: early stopping never changes the amount of work
        im_cfg = TrainConfig(seed=seed, epochs=self.im_epochs, patience=self.im_epochs,
                             kind="imaginator", **self.base)
        arb_cfg = TrainConfig(seed=seed, epochs=1, patience=1,
                              kind="arbitrator", mode="ita",
                              **{**self.base, "learning_rate": 1e-3})
        state = {"vocab": vocab, "arb_cfg": arb_cfg, "work_dir": inputs["work_dir"],
                 "im": {}, "models": []}
        for role in (AGENT, USER):
            model = im.ImaginatorModel(len(vocab), role, hidden=im_cfg.hidden,
                                       token_dim=im_cfg.token_dim, tag_dim=im_cfg.tag_dim,
                                       seed=seed)
            state["im"][role] = (
                TrainConfig(**{**im_cfg.to_dict(), "role": role}),
                spread([s for d in train_d for s in corpus.derive_imaginator_samples(d, role)],
                       self.im_train),
                spread([s for d in valid_d for s in corpus.derive_imaginator_samples(d, role)],
                       self.im_valid),
                model)
            state["models"].append((model, model.params.as_arrays()))
        state["eval"] = spread([s for d in valid_d for r in (AGENT, USER)
                                for s in corpus.derive_imaginator_samples(d, r)],
                               self.eval_samples)
        state["arb_train"] = spread([s for d in train_d
                                     for s in corpus.derive_arbitrator_samples(d)], self.arb_train)
        state["arb_valid"] = spread([s for d in valid_d
                                     for s in corpus.derive_arbitrator_samples(d)], self.arb_valid)
        state["arb"] = arb.ArbitratorModel(len(vocab), encoder="textcnn", mode="ita",
                                           token_dim=arb_cfg.token_dim, tag_dim=arb_cfg.tag_dim,
                                           filter_widths=arb_cfg.parsed_filter_widths(),
                                           filters_per_width=arb_cfg.filters_per_width,
                                           seed=seed)
        state["models"].append((state["arb"], state["arb"].params.as_arrays()))
        return state

    def round(self, state: dict, index: int, tracer) -> RoundResult:
        _reset(state["models"])
        result = RoundResult()
        vocab, work_dir = state["vocab"], state["work_dir"]
        for role, (cfg, train, valid, model) in state["im"].items():
            _train(result, tracer, "imaginator", cfg, train, valid, model, vocab, work_dir)
        models = {role: entry[3] for role, entry in state["im"].items()}
        for role, model in models.items():
            n = len(state["eval"])
            result.attempted += n
            with tracer.operation(f"eval#{role}"):
                t0 = time.perf_counter()
                try:
                    scores = im.evaluate_imaginator(model, state["eval"], vocab,
                                                    beam_width=state["arb_cfg"].beam_width,
                                                    max_len=state["arb_cfg"].max_decode_len)
                except Exception as e:
                    traceback.print_exc()
                    result.failed += n
                    result.records.append(["eval", f"raised {type(e).__name__}: {e}"])
                    continue
                seconds = time.perf_counter() - t0
            values = [scores["bleu_on_agent_targets"], scores["bleu_on_user_targets"]]
            if not all(0.0 <= v <= 1.0 for v in values):
                result.failed += n
                result.wrong += n
            result.add_phase("eval", n, seconds)
            result.records.append(["eval", role, [float(v).hex() for v in values]])
        _train(result, tracer, "arbitrator_textcnn", state["arb_cfg"], state["arb_train"],
               state["arb_valid"], state["arb"], vocab, work_dir,
               imaginators=(models[AGENT], models[USER]))
        return result


# ---------------------------------------------------------------------------
# booking-default


class BookingDefault:
    """Raw booking pipeline at package-default sizes; one imaginator, TextCNN and Bi-GRU ITA."""

    name = "booking-default"
    identical_rounds = True

    def __init__(self, n_dialogues=120, im_train=64, im_valid=8, cnn_train=32, cnn_valid=8,
                 gru_train=6, gru_valid=4):
        self.n_dialogues = n_dialogues
        self.im_train = im_train
        self.im_valid = im_valid
        self.cnn_train = cnn_train
        self.cnn_valid = cnn_valid
        self.gru_train = gru_train
        self.gru_valid = gru_valid

    def generate(self, seed: int, work_dir) -> dict:
        raw = work_dir / "raw_corpus.json"
        synthetic.write_multiwoz_like(synthetic.make_multiwoz_like(self.n_dialogues, seed), raw)
        return {"seed": seed, "raw": raw, "work_dir": work_dir}

    def setup(self, inputs: dict) -> dict:
        seed = inputs["seed"]
        cfg = TrainConfig(seed=seed, epochs=1, patience=1)
        dialogues, annotations, _ = corpus.ingest_source(inputs["raw"], "multiwoz-like")
        modified = corpus.modify_corpus(dialogues, annotations, cfg.p_split, seed)
        train_d, valid_d, _ = corpus.split_corpus(modified, seed)
        vocab = corpus.build_vocabulary(train_d)
        V = len(vocab)
        im_cfg = TrainConfig(**{**cfg.to_dict(), "kind": "imaginator", "role": AGENT})
        agent = im.ImaginatorModel(V, AGENT, seed=seed)
        # the arbitrators imagine with seeded untrained imaginators that decode
        # the full max_decode_len, so their work does not hinge on how far a
        # few training steps got
        frozen = (stand_in(im.ImaginatorModel(V, AGENT, seed=seed + 1)),
                  stand_in(im.ImaginatorModel(V, USER, seed=seed + 2)))
        arb_train = [s for d in train_d for s in corpus.derive_arbitrator_samples(d)]
        arb_valid = [s for d in valid_d for s in corpus.derive_arbitrator_samples(d)]
        arbs = {}
        for encoder, n_train, n_valid in (("textcnn", self.cnn_train, self.cnn_valid),
                                          ("bigru", self.gru_train, self.gru_valid)):
            acfg = TrainConfig(**{**cfg.to_dict(), "kind": "arbitrator", "encoder": encoder})
            model = arb.ArbitratorModel(V, encoder=encoder, mode="ita", seed=seed)
            arbs[encoder] = (acfg, spread(arb_train, n_train), spread(arb_valid, n_valid), model)
        return {
            "vocab": vocab, "work_dir": inputs["work_dir"], "frozen": frozen, "arbs": arbs,
            "im": (im_cfg,
                   spread([s for d in train_d for s in corpus.derive_imaginator_samples(d, AGENT)],
                          self.im_train),
                   spread([s for d in valid_d for s in corpus.derive_imaginator_samples(d, AGENT)],
                          self.im_valid),
                   agent),
            "models": [(m, m.params.as_arrays())
                       for m in (agent, *(a[3] for a in arbs.values()))],
        }

    def round(self, state: dict, index: int, tracer) -> RoundResult:
        _reset(state["models"])
        result = RoundResult()
        vocab, work_dir = state["vocab"], state["work_dir"]
        cfg, train, valid, agent = state["im"]
        _train(result, tracer, "imaginator", cfg, train, valid, agent, vocab, work_dir)
        for encoder, (acfg, a_train, a_valid, model) in state["arbs"].items():
            _train(result, tracer, f"arbitrator_{encoder}", acfg, a_train, a_valid, model,
                   vocab, work_dir, imaginators=state["frozen"])
        return result


# ---------------------------------------------------------------------------
# serve-sessions


def lexicon(n_words: int) -> list[str]:
    """Fixed pseudo-words, most frequent first."""
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    words = []
    for i in range(n_words):
        a, b = divmod(i, len(consonants) * len(vowels))
        c, v = divmod(b, len(vowels))
        words.append(f"{consonants[c]}{vowels[v]}{consonants[(c + a) % len(consonants)]}"
                     f"{vowels[(v + a) % len(vowels)]}{a}")
    return words


class SessionStream:
    """Seeded multi-turn sessions of one fixed shape.

    A session has `turns` user turns split into 1, 2, 3, 1, 2, 3, ...
    subturns; every user subturn is one decision, and after the turn's last
    subturn the gold agent reply joins the history, so inputs never depend on
    model outputs. Token counts and words are drawn per session (words by a
    Zipf law over the lexicon), so sessions differ in content but not in the
    number of decisions.
    """

    def __init__(self, seed: int, words: list[str], turns: int = 14, zipf_s: float = 1.1):
        self.seed = seed
        self.words = words
        self.turns = turns
        ranks = np.arange(1, len(words) + 1, dtype=np.float64)
        self.p = ranks ** -zipf_s / (ranks ** -zipf_s).sum()
        self._sessions: dict[int, list[tuple[Utterance, ...]]] = {}

    def session(self, index: int) -> list[tuple[Utterance, ...]]:
        """The decision points of session `index`: each history ends in a user subturn."""
        if index not in self._sessions:
            rng = np.random.default_rng([self.seed, 2002, index])

            def utterance(role, turn, sub, lo, hi):
                ids = rng.choice(len(self.words), size=int(rng.integers(lo, hi + 1)), p=self.p)
                return Utterance(role, turn, sub, tuple(self.words[i] for i in ids))

            history: list[Utterance] = []
            points = []
            for turn in range(self.turns):
                for sub in range(turn % 3 + 1):
                    history.append(utterance(USER, turn, sub, 3, 9))
                    points.append(tuple(history))
                history.append(utterance(AGENT, turn, 0, 5, 14))
            self._sessions[index] = points
        return self._sessions[index]


def check_decision(d, vocab: Vocabulary, max_len: int) -> bool:
    """A valid `Decision` whose imagined tokens all come from the vocabulary."""
    if not isinstance(d, arb.Decision):
        return False
    probs = np.asarray(d.probs)
    return (d.label in (0, 1) and probs.shape == (2,)
            and bool(np.isfinite(probs).all()) and bool((probs >= 0).all())
            and all(len(t) <= max_len for t in (d.imagined_agent, d.imagined_user))
            and all(tok in vocab.token_to_id for t in (d.imagined_agent, d.imagined_user)
                    for tok in t))


def decision_record(d) -> list:
    return [d.label, [float(p).hex() for p in d.probs], list(d.imagined_agent),
            list(d.imagined_user), list(d.flags)]


class ServeSessions:
    """One closed-loop client replaying sessions through `ita_predict`."""

    name = "serve-sessions"
    identical_rounds = False

    def __init__(self, n_words=300, turns=14, replay=4, max_len=40):
        self.n_words = n_words
        self.turns = turns
        self.replay = replay
        self.max_len = max_len

    def generate(self, seed: int, work_dir) -> dict:
        """Vocabulary and seeded untrained default-size models, written to disk.

        The imaginators are stand-ins (see `stand_in`): every decision decodes
        max_len tokens.
        """
        words = lexicon(self.n_words)
        vocab = Vocabulary(list(RESERVED_TOKENS) + words,
                           [0] * len(RESERVED_TOKENS) + list(range(len(words), 0, -1)))
        vocab.save(work_dir / "vocab.tsv")
        V = len(vocab)
        models = {
            "agent": stand_in(im.ImaginatorModel(V, AGENT, seed=seed)),
            "user": stand_in(im.ImaginatorModel(V, USER, seed=seed + 1)),
            "arbitrator": arb.ArbitratorModel(V, encoder="textcnn", mode="ita", seed=seed + 2),
        }
        for name, model in models.items():
            training.save_checkpoint(model, work_dir / f"{name}.ckpt", vocab.hash())
        return {"seed": seed, "work_dir": work_dir,
                "sessions": SessionStream(seed, words, self.turns)}

    def setup(self, inputs: dict) -> dict:
        """What `demo` does before its first answer."""
        work_dir = inputs["work_dir"]
        vocab = Vocabulary.load(work_dir / "vocab.tsv")
        models = {name: training.load_checkpoint(work_dir / f"{name}.ckpt",
                                                 expected_vocab_hash=vocab.hash()).model
                  for name in ("agent", "user", "arbitrator")}
        return {"vocab": vocab, "models": models, "sessions": inputs["sessions"]}

    def _decide(self, state, history, result: RoundResult, op) -> None:
        m = state["models"]
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            d = arb.ita_predict(history, m["arbitrator"], m["agent"], m["user"], state["vocab"],
                                beam_width=4, max_len=self.max_len)
        except Exception as e:
            traceback.print_exc()
            result.failed += 1
            result.records.append(["decision", op, f"raised {type(e).__name__}: {e}"])
            return
        result.decision_ms.append((time.perf_counter() - t0) * 1e3)
        if not check_decision(d, state["vocab"], self.max_len):
            result.failed += 1
            result.wrong += 1
        result.records.append(decision_record(d))

    def round(self, state: dict, index: int, tracer) -> RoundResult:
        """Session `index`, one decision per user message, in order."""
        result = RoundResult()
        for k, history in enumerate(state["sessions"].session(index)):
            with tracer.operation(f"decision#{index}.{k}"):
                self._decide(state, history, result, k)
        result.add_phase("decisions", len(result.decision_ms), sum(result.decision_ms) / 1e3)
        return result

    def finish(self, state: dict, reference: list) -> RoundResult:
        """Replay the run's first decisions after all the others.

        Probabilities, labels and imagined tokens must be bit-identical to the
        first pass, which catches state leaking from one decision to the next.
        """
        result = RoundResult()
        for op, history in enumerate(state["sessions"].session(0)[:min(self.replay, len(reference))]):
            self._decide(state, history, result, op)
        changed = sum(1 for a, b in zip(result.records, reference) if a != b)
        result.failed += changed
        result.wrong += changed
        return result


WORKLOADS = {w.name: w for w in (QuickstartSynthetic, BookingDefault, ServeSessions)}

# tiny sizes for the benchmark's own tests: every code path, a second or two each
SMOKE = {
    "quickstart-synthetic": dict(n_dialogues=20, im_train=16, im_epochs=1, im_valid=4, eval_samples=4,
                                 arb_train=8, arb_valid=4),
    "booking-default": dict(n_dialogues=12, im_train=4, im_valid=2, cnn_train=4, cnn_valid=2,
                            gru_train=2, gru_valid=2),
    "serve-sessions": dict(n_words=20, turns=2, max_len=4),
}
