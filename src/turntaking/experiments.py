"""End-to-end experiment runners.

Each experiment trains the two generators and the two arbitrator variants on
a generated corpus, writes every artifact (checkpoints, metrics, report) to
an output directory, and returns the headline numbers as a plain dict. The
synthetic run uses compact model sizes tuned for minutes-scale CPU budgets;
the booking-corpus run keeps the package defaults.
"""

from __future__ import annotations

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


def _imaginator_config(base: TrainConfig, role: str) -> TrainConfig:
    cfg = TrainConfig(**{**base.to_dict(), "kind": "imaginator", "role": role})
    return cfg


def _train_imaginator(cfg: TrainConfig, train_d, valid_d, vocab, out_dir):
    role = cfg.role
    tr = [s for d in train_d for s in derive_imaginator_samples(d, role)]
    va = [s for d in valid_d for s in derive_imaginator_samples(d, role)]
    model = build_model(cfg, len(vocab))
    res = run_training(cfg, tr, va, model, vocab,
                       metrics_path=out_dir / f"imaginator_{role}_metrics.jsonl",
                       checkpoint_path=out_dir / f"imaginator_{role}.ckpt")
    return model, res


def _train_arbitrator(cfg: TrainConfig, mode, train_s, valid_s, vocab, imaginators, out_dir):
    cfg = TrainConfig(**{**cfg.to_dict(), "kind": "arbitrator", "mode": mode})
    model = build_model(cfg, len(vocab))
    res = run_training(cfg, train_s, valid_s, model, vocab,
                       imaginators=imaginators if mode == "ita" else None,
                       metrics_path=out_dir / f"arbitrator_{mode}_metrics.jsonl",
                       checkpoint_path=out_dir / f"arbitrator_{mode}.ckpt")
    return model, res


def _evaluate_both_imaginators(models, valid_d, vocab, beam_width, max_len):
    union = [s for d in valid_d for r in (AGENT, USER)
             for s in derive_imaginator_samples(d, r)]
    out = {}
    for role, model in models.items():
        scores = evaluate_imaginator(model, union, vocab, beam_width=beam_width,
                                     max_len=max_len)
        out[f"{role}_bleu_on_agent_targets"] = scores["bleu_on_agent_targets"]
        out[f"{role}_bleu_on_user_targets"] = scores["bleu_on_user_targets"]
    return out


def synthetic_experiment(out_dir, n_dialogues: int = 2000, seed: int = 0,
                         imaginator_epochs: int = 10, arbitrator_epochs: int = 8) -> dict:
    """Train everything on the scripted marker corpus; minutes on a CPU."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    dialogues = make_synthetic_corpus(n_dialogues, seed)
    train_d, valid_d, test_d = split_corpus(dialogues, seed)
    vocab = build_vocabulary(train_d)
    vocab.save(out_dir / "vocab.tsv")

    base = TrainConfig(seed=seed, epochs=imaginator_epochs, batch_size=32,
                       learning_rate=5e-3, patience=3, hidden=48, token_dim=24,
                       tag_dim=4, filter_widths="2,3", filters_per_width=32,
                       beam_width=4, max_decode_len=16)
    report: dict = {"corpus": "synthetic", "n_dialogues": n_dialogues, "seed": seed,
                    "vocab_size": len(vocab),
                    "splits": [len(train_d), len(valid_d), len(test_d)]}

    models = {}
    for role in (AGENT, USER):
        t1 = time.monotonic()
        model, res = _train_imaginator(_imaginator_config(base, role), train_d,
                                       valid_d, vocab, out_dir)
        models[role] = model
        report[f"{role}_imaginator_best_valid_bleu"] = res.best_value
        report[f"{role}_imaginator_epochs"] = res.epochs_run
        report[f"{role}_imaginator_seconds"] = round(time.monotonic() - t1, 1)

    t1 = time.monotonic()
    report.update(_evaluate_both_imaginators(models, valid_d, vocab,
                                             base.beam_width, base.max_decode_len))
    report["imaginator_eval_seconds"] = round(time.monotonic() - t1, 1)

    arb_train = [s for d in train_d for s in derive_arbitrator_samples(d)]
    arb_valid = [s for d in valid_d for s in derive_arbitrator_samples(d)]
    report["arbitrator_samples"] = [len(arb_train), len(arb_valid)]
    labels = [s.label for s in arb_train] + [s.label for s in arb_valid]
    prior_reply = sum(labels) / len(labels)
    report["class_prior_reply"] = prior_reply
    report["class_prior_majority"] = max(prior_reply, 1.0 - prior_reply)
    report["random_policy_accuracy"] = accuracy(
        random_policy_predictions(len(labels), seed=seed + 7), labels)

    arb_cfg = TrainConfig(**{**base.to_dict(), "kind": "arbitrator",
                             "epochs": arbitrator_epochs, "learning_rate": 1e-3})
    for mode in ("ita", "baseline"):
        t1 = time.monotonic()
        _, res = _train_arbitrator(arb_cfg, mode, arb_train, arb_valid, vocab,
                                   (models[AGENT], models[USER]), out_dir)
        report[f"{mode}_valid_accuracy"] = res.best_value
        report[f"{mode}_epochs"] = res.epochs_run
        report[f"{mode}_seconds"] = round(time.monotonic() - t1, 1)

    report["total_seconds"] = round(time.monotonic() - t0, 1)
    _write_atomic(out_dir / "report.json",
                  (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    return report


def directional_experiment(out_dir, n_dialogues: int = 500, seed: int = 0,
                           epochs: int = 10) -> dict:
    """Booking-corpus run at package-default model sizes.

    The corpus goes through the full raw pipeline: generation to JSON, slot
    masking, probabilistic subturn splitting, then training. The headline
    comparison is ITA-vs-baseline test accuracy.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    raw_path = out_dir / "raw_corpus.json"
    write_multiwoz_like(make_multiwoz_like(n_dialogues, seed), raw_path)
    dialogues, annotations, skipped = ingest_source(raw_path, "multiwoz-like")
    cfg_defaults = TrainConfig(seed=seed, epochs=epochs, patience=3)
    modified = modify_corpus(dialogues, annotations, cfg_defaults.p_split, seed)
    train_d, valid_d, test_d = split_corpus(dialogues=modified, seed=seed)
    vocab = build_vocabulary(train_d)
    vocab.save(out_dir / "vocab.tsv")

    report: dict = {"corpus": "multiwoz-like", "n_dialogues": n_dialogues,
                    "seed": seed, "skipped": skipped, "vocab_size": len(vocab),
                    "splits": [len(train_d), len(valid_d), len(test_d)]}

    models = {}
    for role in (AGENT, USER):
        t1 = time.monotonic()
        model, res = _train_imaginator(_imaginator_config(cfg_defaults, role), train_d,
                                       valid_d, vocab, out_dir)
        models[role] = model
        report[f"{role}_imaginator_best_valid_bleu"] = res.best_value
        report[f"{role}_imaginator_seconds"] = round(time.monotonic() - t1, 1)

    report.update(_evaluate_both_imaginators(models, valid_d, vocab,
                                             cfg_defaults.beam_width,
                                             cfg_defaults.max_decode_len))

    arb_train = [s for d in train_d for s in derive_arbitrator_samples(d)]
    arb_valid = [s for d in valid_d for s in derive_arbitrator_samples(d)]
    arb_test = [s for d in test_d for s in derive_arbitrator_samples(d)]
    test_labels = [s.label for s in arb_test]
    report["arbitrator_samples"] = [len(arb_train), len(arb_valid), len(arb_test)]
    prior_reply = sum(test_labels) / len(test_labels)
    report["test_prior_reply"] = prior_reply
    report["test_prior_majority"] = max(prior_reply, 1.0 - prior_reply)
    report["random_policy_test_accuracy"] = accuracy(
        random_policy_predictions(len(test_labels), seed=seed + 7), test_labels)

    arb_cfg = TrainConfig(**{**cfg_defaults.to_dict(), "kind": "arbitrator"})
    for mode in ("ita", "baseline"):
        t1 = time.monotonic()
        model, res = _train_arbitrator(arb_cfg, mode, arb_train, arb_valid, vocab,
                                       (models[AGENT], models[USER]), out_dir)
        pair = (models[AGENT], models[USER]) if mode == "ita" else None
        prepared = prepare_samples(arb_test, model, vocab, pair,
                                   max_len=arb_cfg.max_decode_len)
        report[f"{mode}_valid_accuracy"] = res.best_value
        report[f"{mode}_test_accuracy"] = evaluate_prepared(model, prepared)
        report[f"{mode}_seconds"] = round(time.monotonic() - t1, 1)

    report["total_seconds"] = round(time.monotonic() - t0, 1)
    _write_atomic(out_dir / "report.json",
                  (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    return report
