"""End-to-end experiment runners: one protocol, two corpus front ends.

`synthetic_experiment` builds the scripted marker corpus and trains at compact
model sizes; `directional_experiment` takes the booking corpus through the raw
pipeline (generation to JSON, ingestion, slot masking, probabilistic subturn
splitting) and keeps the package defaults. Both then run `_run`: split the
corpus and build the vocabulary on its training split; train the agent and user
imaginators; beam-score both on the union of the two roles' validation samples;
derive arbitrator samples for all three splits and report the test split's
class prior and a seeded random policy; train the ITA and the history-only
baseline arbitrator and score each on the validation split (its best epoch) and
the test split. Every artifact goes to the output directory, and the report,
one key set for both corpora, is also returned as a plain dict.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from .arbitrator import (
    accuracy, evaluate_prepared, prepare_samples, random_policy_predictions,
)
from .corpus import (
    AGENT, USER, _write_atomic, build_vocabulary, derive_arbitrator_samples,
    derive_imaginator_samples, ingest_source, modify_corpus, split_corpus,
)
from .imaginator import evaluate_imaginator
from .synthetic import make_multiwoz_like, make_synthetic_corpus, write_multiwoz_like
from .training import TrainConfig, build_model, run_training


def _run(out_dir: Path, report: dict, dialogues, im_cfg: TrainConfig,
         arb_cfg: TrainConfig, t0: float) -> dict:
    """The protocol on `dialogues`, started at `t0`: `report` holds the corpus's own
    fields and gains the results; each run's role or mode is set on its config here."""
    train_d, valid_d, test_d = split_corpus(dialogues, im_cfg.seed)
    vocab = build_vocabulary(train_d, im_cfg.min_freq)
    vocab.save(out_dir / "vocab.tsv")
    report.update(vocab_size=len(vocab), splits=[len(train_d), len(valid_d), len(test_d)])

    imaginators = {}
    for role in (AGENT, USER):
        t1 = time.monotonic()
        cfg = dataclasses.replace(im_cfg, role=role)
        imaginators[role] = build_model(cfg, len(vocab))
        tr, va = ([s for d in split for s in derive_imaginator_samples(d, role)]
                  for split in (train_d, valid_d))
        res = run_training(cfg, tr, va, imaginators[role], vocab,
                           metrics_path=out_dir / f"imaginator_{role}_metrics.jsonl",
                           checkpoint_path=out_dir / f"imaginator_{role}.ckpt")
        report[f"{role}_imaginator_best_valid_bleu"] = res.best_value
        report[f"{role}_imaginator_epochs"] = res.epochs_run
        report[f"{role}_imaginator_seconds"] = round(time.monotonic() - t1, 1)

    t1 = time.monotonic()
    union = [s for d in valid_d for r in (AGENT, USER) for s in derive_imaginator_samples(d, r)]
    for role, model in imaginators.items():
        scores = evaluate_imaginator(model, union, vocab, beam_width=im_cfg.beam_width,
                                     max_len=im_cfg.max_decode_len)
        for target in (AGENT, USER):
            report[f"{role}_bleu_on_{target}_targets"] = scores[f"bleu_on_{target}_targets"]
    report["imaginator_eval_seconds"] = round(time.monotonic() - t1, 1)

    arb_train, arb_valid, arb_test = ([s for d in split for s in derive_arbitrator_samples(d)]
                                      for split in (train_d, valid_d, test_d))
    report["arbitrator_samples"] = [len(arb_train), len(arb_valid), len(arb_test)]
    test_labels = [s.label for s in arb_test]
    prior_reply = sum(test_labels) / len(test_labels)
    report["test_prior_reply"] = prior_reply
    report["test_prior_majority"] = max(prior_reply, 1.0 - prior_reply)
    report["random_policy_test_accuracy"] = accuracy(
        random_policy_predictions(len(test_labels), seed=im_cfg.seed + 7), test_labels)

    for mode in ("ita", "baseline"):
        t1 = time.monotonic()
        cfg = dataclasses.replace(arb_cfg, mode=mode)
        pair = (imaginators[AGENT], imaginators[USER]) if mode == "ita" else None
        model = build_model(cfg, len(vocab))
        res = run_training(cfg, arb_train, arb_valid, model, vocab, imaginators=pair,
                           metrics_path=out_dir / f"arbitrator_{mode}_metrics.jsonl",
                           checkpoint_path=out_dir / f"arbitrator_{mode}.ckpt")
        prepared = prepare_samples(arb_test, vocab, pair, max_len=cfg.max_decode_len)
        report[f"{mode}_valid_accuracy"] = res.best_value
        report[f"{mode}_test_accuracy"] = evaluate_prepared(model, prepared)
        report[f"{mode}_epochs"] = res.epochs_run
        report[f"{mode}_seconds"] = round(time.monotonic() - t1, 1)

    report["total_seconds"] = round(time.monotonic() - t0, 1)
    _write_atomic(out_dir / "report.json",
                  (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    return report


def synthetic_experiment(out_dir, n_dialogues: int = 2000, seed: int = 0,
                         imaginator_epochs: int = 10, arbitrator_epochs: int = 8) -> dict:
    """The protocol on the scripted marker corpus, at compact model sizes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    im_cfg = TrainConfig(seed=seed, epochs=imaginator_epochs, batch_size=32,
                         learning_rate=5e-3, patience=3, hidden=48, token_dim=24,
                         tag_dim=4, filter_widths="2,3", filters_per_width=32,
                         beam_width=4, max_decode_len=16)
    arb_cfg = dataclasses.replace(im_cfg, kind="arbitrator", epochs=arbitrator_epochs,
                                  learning_rate=1e-3)
    report = {"corpus": "synthetic", "n_dialogues": n_dialogues, "seed": seed}
    return _run(out_dir, report, make_synthetic_corpus(n_dialogues, seed), im_cfg, arb_cfg, t0)


def directional_experiment(out_dir, n_dialogues: int = 500, seed: int = 0,
                           epochs: int = 10) -> dict:
    """The protocol on the booking corpus, through the full raw pipeline, at
    package-default model sizes; the headline comparison is ITA-vs-baseline
    test accuracy."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    raw_path = out_dir / "raw_corpus.json"
    write_multiwoz_like(make_multiwoz_like(n_dialogues, seed), raw_path)
    dialogues, annotations, skipped = ingest_source(raw_path, "multiwoz-like")
    im_cfg = TrainConfig(seed=seed, epochs=epochs, patience=3)
    arb_cfg = dataclasses.replace(im_cfg, kind="arbitrator")
    report = {"corpus": "multiwoz-like", "n_dialogues": n_dialogues, "seed": seed,
              "skipped": skipped}
    return _run(out_dir, report, modify_corpus(dialogues, annotations, im_cfg.p_split, seed),
                im_cfg, arb_cfg, t0)
