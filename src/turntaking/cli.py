"""Command line surface.

Subcommands: preprocess, stats, train, evaluate, generate, demo. Every run
prints its resolved configuration to stderr; data goes to files or stdout,
diagnostics to stderr. Each output directory gets a manifest.json listing the
written artifacts with their sha256 digests, so reruns can be compared
byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import corpus as cp
from .arbitrator import (
    accuracy, classification_summary, decide_prepared, decision_record, ita_predict,
    prepare_samples, random_policy_predictions,
)
from .corpus import AGENT, USER, IngestError, Vocabulary
from .imaginator import beam_decode, evaluate_imaginator
from .training import (
    CheckpointError, TrainConfig, TrainingError, append_metrics, build_model, load_checkpoint,
    run_training,
)

_DEFAULTS = TrainConfig()


class CliError(RuntimeError):
    """Runtime failure with a clean one-line message; exits with status 1."""


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _announce(pairs: dict) -> None:
    _eprint("resolved configuration:")
    for k, v in pairs.items():
        _eprint(f"  {k} = {v}")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, names: list[str]) -> None:
    digests = {n: _sha256_file(out_dir / n) for n in sorted(names)}
    cp._write_atomic(out_dir / "manifest.json",
                     (json.dumps(digests, indent=2, sort_keys=True) + "\n").encode())


def _load_data_dir(data: str):
    """Read a preprocess output directory back into memory."""
    d = Path(data)
    proc, voc = d / "processed.jsonl", d / "vocab.tsv"
    for p in (proc, voc):
        if not p.exists():
            raise CliError(f"{p}: not found (expected a preprocess output directory)")
    header, dialogues = cp.read_processed(proc)
    return header, dialogues, Vocabulary.load(voc)


def _load_model(path: str, vocab: Vocabulary, expect_kind: str | None = None):
    ck = load_checkpoint(path, expected_vocab_hash=vocab.hash())
    kind = ck.model.config()["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise CliError(f"{path}: checkpoint holds {kind!r}, expected {expect_kind}")
    return ck.model


def _load_imaginator_pair(args, vocab: Vocabulary):
    agent = _load_model(args.agent_imaginator, vocab, "imaginator")
    user = _load_model(args.user_imaginator, vocab, "imaginator")
    if agent.role != AGENT:
        raise CliError(f"{args.agent_imaginator}: role is {agent.role!r}, expected agent")
    if user.role != USER:
        raise CliError(f"{args.user_imaginator}: role is {user.role!r}, expected user")
    return agent, user


def _out_file(path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# preprocess / stats


def cmd_preprocess(args) -> int:
    _announce({"input": args.input, "format": args.format, "p_split": args.p_split,
               "seed": args.seed, "min_freq": args.min_freq, "out": args.out})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dialogues, annotations, skipped = cp.ingest_source(args.input, args.format)
    if not dialogues:
        raise CliError(f"{args.input}: no usable dialogues")
    modified = cp.modify_corpus(dialogues, annotations, args.p_split, args.seed)
    vocab = cp.build_vocabulary(modified, args.min_freq)
    header = {"source": Path(args.input).name, "format": args.format,
              "p_split": args.p_split, "seed": args.seed,
              "min_freq": args.min_freq, "skipped": skipped,
              "vocab_hash": vocab.hash()}

    cp.write_processed(modified, out / "processed.jsonl", header)
    arb = [s for d in modified for s in cp.derive_arbitrator_samples(d)]
    cp.write_arbitrator_samples(arb, out / "arbitrator_samples.jsonl", header)
    names = ["processed.jsonl", "arbitrator_samples.jsonl", "vocab.tsv", "stats.txt"]
    for role in (AGENT, USER):
        ims = [s for d in modified for s in cp.derive_imaginator_samples(d, role)]
        name = f"imaginator_{role}_samples.jsonl"
        cp.write_imaginator_samples(ims, out / name, header)
        names.append(name)
    vocab.save(out / "vocab.tsv")
    report = cp.render_stats(cp.compute_stats(modified, vocab_size=len(vocab)))
    cp._write_atomic(out / "stats.txt", report.encode())
    _write_manifest(out, names)
    if skipped:
        _eprint(f"skipped {skipped} malformed dialogue(s)")
    print(report, end="")
    return 0


def cmd_stats(args) -> int:
    _announce({"data": args.data, "vocab": args.vocab})
    _, dialogues = cp.read_processed(args.data)
    size = len(Vocabulary.load(args.vocab)) if args.vocab else None
    print(cp.render_stats(cp.compute_stats(dialogues, vocab_size=size)), end="")
    return 0


# ---------------------------------------------------------------------------
# train


_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(TrainConfig):
        typ = _FLAG_TYPES[f.type] if isinstance(f.type, str) else f.type
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=typ,
                       default=argparse.SUPPRESS, metavar=f.name.upper(),
                       help=f"config key {f.name} (default {f.default!r})")


def _resolve_config(args) -> TrainConfig:
    base: dict = {}
    if args.config:
        base = TrainConfig.from_text(Path(args.config).read_text()).to_dict()
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: getattr(args, k) for k in names if hasattr(args, k)}
    return TrainConfig(**{**base, **overrides})


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.kind == "arbitrator" and cfg.mode == "ita" and not (
            args.agent_imaginator and args.user_imaginator):
        args.subparser.error(
            "--kind arbitrator --mode ita requires --agent-imaginator and "
            "--user-imaginator checkpoint paths")
    _eprint("resolved configuration:")
    _eprint(cfg.to_text().rstrip())

    _, dialogues, vocab = _load_data_dir(args.data)
    train_d, valid_d, _ = cp.split_corpus(dialogues, cfg.seed,
                                          valid_frac=cfg.valid_frac,
                                          test_frac=cfg.test_frac)
    imaginators = None
    model = build_model(cfg, len(vocab))
    if cfg.kind == "imaginator":
        train_s = [s for d in train_d for s in cp.derive_imaginator_samples(d, cfg.role)]
        valid_s = [s for d in valid_d for s in cp.derive_imaginator_samples(d, cfg.role)]
    else:
        train_s = [s for d in train_d for s in cp.derive_arbitrator_samples(d)]
        valid_s = [s for d in valid_d for s in cp.derive_arbitrator_samples(d)]
        if cfg.mode == "ita":
            imaginators = _load_imaginator_pair(args, vocab)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()
    res = run_training(cfg, train_s, valid_s, model, vocab,
                       imaginators=imaginators, metrics_path=metrics_path,
                       checkpoint_path=out / "model.ckpt")
    cp._write_atomic(out / "train_config.txt", cfg.to_text().encode())
    _write_manifest(out, ["model.ckpt", "model.ckpt.txt", "metrics.jsonl",
                          "train_config.txt"])
    print(f"{res.metric_name} = {res.best_value:.6f}")
    print(f"best_epoch = {res.best_epoch}")
    print(f"epochs_run = {res.epochs_run}")
    return 0


# ---------------------------------------------------------------------------
# evaluate / generate


def _split_dialogues(dialogues, args):
    train_d, valid_d, test_d = cp.split_corpus(dialogues, args.seed,
                                               valid_frac=args.valid_frac,
                                               test_frac=args.test_frac)
    return {"train": train_d, "valid": valid_d, "test": test_d}[args.split]


def _report_lines(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def cmd_evaluate(args) -> int:
    _announce({"checkpoint": args.checkpoint, "data": args.data,
               "split": args.split, "seed": args.seed, "report": args.report})
    _, dialogues, vocab = _load_data_dir(args.data)
    part = _split_dialogues(dialogues, args)
    model = _load_model(args.checkpoint, vocab)
    kind = model.config()["kind"]

    if kind == "imaginator":
        samples = [s for d in part for r in (AGENT, USER)
                   for s in cp.derive_imaginator_samples(d, r)]
        if not samples:
            raise CliError(f"split {args.split!r} has no imaginator samples")
        scores = evaluate_imaginator(model, samples, vocab,
                                     beam_width=args.beam_width,
                                     max_len=args.max_len)
        pairs = {"kind": kind, "role": model.role, "split": args.split,
                 "samples": len(samples),
                 "bleu_on_agent_targets": f"{scores['bleu_on_agent_targets']:.6f}",
                 "bleu_on_user_targets": f"{scores['bleu_on_user_targets']:.6f}"}
        decisions = None
    else:
        samples = [s for d in part for s in cp.derive_arbitrator_samples(d)]
        if not samples:
            raise CliError(f"split {args.split!r} has no arbitrator samples")
        gold = [s.label for s in samples]
        if model.mode == "ita":
            if not (args.agent_imaginator and args.user_imaginator):
                raise CliError("an ita-mode checkpoint needs --agent-imaginator "
                               "and --user-imaginator for evaluation")
            pair = _load_imaginator_pair(args, vocab)
        else:
            pair = None
        decisions = decide_prepared(model, prepare_samples(samples, model, vocab, pair,
                                                           max_len=args.max_len), vocab)
        preds = [d.label for d in decisions]
        summary = classification_summary(preds, gold)
        rand = accuracy(random_policy_predictions(len(gold), seed=args.seed), gold)
        prior = max(sum(gold) / len(gold), 1.0 - sum(gold) / len(gold))
        pairs = {"kind": kind, "mode": model.mode, "split": args.split,
                 "samples": len(samples)}
        pairs.update({k: f"{v:.6f}" if isinstance(v, float) else v
                      for k, v in summary.items()})
        pairs["random_policy_accuracy"] = f"{rand:.6f}"
        pairs["majority_class_prior"] = f"{prior:.6f}"

    report = _report_lines(pairs)
    cp._write_atomic(_out_file(args.report), report.encode())
    if decisions is not None:
        dec_path = Path(args.decisions) if args.decisions else \
            Path(args.report).with_suffix(".decisions.jsonl")
        lines = [json.dumps(decision_record(f"{args.split}-{i:05d}", d), sort_keys=True) + "\n"
                 for i, d in enumerate(decisions)]
        cp._write_atomic(_out_file(dec_path), "".join(lines).encode())
        _eprint(f"decision records written to {dec_path}")
    print(report, end="")
    return 0


def cmd_generate(args) -> int:
    _announce({"checkpoint": args.checkpoint, "data": args.data,
               "split": args.split, "beam_width": args.beam_width,
               "max_len": args.max_len, "limit": args.limit})
    _, dialogues, vocab = _load_data_dir(args.data)
    part = _split_dialogues(dialogues, args)
    model = _load_model(args.checkpoint, vocab, "imaginator")
    samples = [s for d in part for s in cp.derive_imaginator_samples(d, model.role)]
    if args.limit:
        samples = samples[:args.limit]
    if not samples:
        raise CliError(f"split {args.split!r} has no samples for role {model.role!r}")

    encs = [cp.encode_history(s.history, vocab, model.max_history,
                              model.turn_cap, model.subturn_cap) for s in samples]
    decoded = beam_decode(model, encs, beam_width=args.beam_width, max_len=args.max_len)
    text = "".join(json.dumps({"sample_id": f"{args.split}-{i:05d}", "role": model.role,
                               "generated": " ".join(vocab.decode_id(t) for t in ids),
                               "target": " ".join(s.target.tokens)}, sort_keys=True) + "\n"
                   for i, (s, ids) in enumerate(zip(samples, decoded)))
    if args.out:
        cp._write_atomic(_out_file(args.out), text.encode())
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# demo


def _demo_transcript_write(path, event: dict) -> None:
    """Add one event to the transcript, which is rewritten whole and atomically."""
    if path is not None:
        append_metrics(path, [event])


def cmd_demo(args) -> int:
    """Interactive loop: one user message per line, decision after each.

    A turn is one user message group plus the agent reply that closes it:
    WAIT extends the current turn with another subturn, REPLY emits the
    imagined agent response and starts the next turn.
    """
    _announce({"arbitrator": args.arbitrator, "agent_imaginator": args.agent_imaginator,
               "user_imaginator": args.user_imaginator, "vocab": args.vocab,
               "beam_width": args.beam_width, "max_len": args.max_len,
               "transcript": args.transcript})
    vocab = Vocabulary.load(args.vocab)
    arb = _load_model(args.arbitrator, vocab, "arbitrator")
    if arb.mode != "ita":
        raise CliError(f"{args.arbitrator}: demo needs an ita-mode arbitrator")
    agent_im, user_im = _load_imaginator_pair(args, vocab)

    transcript = _out_file(args.transcript) if args.transcript else None
    if transcript is not None:
        cp._write_atomic(transcript, b"")
    history: list[cp.Utterance] = []
    turn, subturn = 0, 0
    _eprint("type user messages one per line; /quit ends the session")
    try:
        while True:
            sys.stderr.write("user> ")
            sys.stderr.flush()
            line = sys.stdin.readline()
            if not line or line.strip() == "/quit":
                break
            toks = cp.tokenize(line)
            if not toks:
                continue
            history.append(cp.Utterance(USER, turn, subturn, tuple(toks)))
            _demo_transcript_write(transcript, {"event": "user", "turn": turn,
                                                "subturn": subturn, "text": " ".join(toks)})
            try:
                decision = ita_predict(history, arb, agent_im, user_im, vocab,
                                       beam_width=args.beam_width,
                                       max_len=args.max_len)
            except ValueError as e:  # a history the models cannot take: wait, and say so
                _eprint(f"warning: decision failed ({e}); waiting")
                _demo_transcript_write(transcript, {"event": "fallback", "error": str(e)})
                subturn += 1
                continue
            verdict = "REPLY" if decision.label == 1 else "WAIT"
            print(f"{verdict} (p_wait={decision.probs[0]:.3f}, "
                  f"p_reply={decision.probs[1]:.3f})")
            _demo_transcript_write(transcript, {"event": "decision", "label": decision.label,
                                                "p_wait": decision.probs[0],
                                                "p_reply": decision.probs[1],
                                                "flags": list(decision.flags)})
            if decision.label == 1:
                reply = list(decision.imagined_agent)
                if not reply:
                    _eprint("warning: agent generation was empty; waiting instead")
                    subturn += 1
                    continue
                print(f"agent> {' '.join(reply)}")
                history.append(cp.Utterance(AGENT, turn, 0, tuple(reply)))
                _demo_transcript_write(transcript, {"event": "agent", "turn": turn,
                                                    "text": " ".join(reply)})
                turn, subturn = turn + 1, 0
            else:
                subturn += 1
    finally:
        if transcript is not None:
            _eprint(f"transcript written to {args.transcript}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turntaking",
        description="wait-or-reply turn taking: preprocessing, training, "
                    "evaluation, generation, interactive demo")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("preprocess", help="ingest a raw corpus and write "
                        "processed dialogues, samples, vocabulary, and stats")
    p.add_argument("--input", required=True, help="raw corpus file")
    p.add_argument("--format", required=True,
                   choices=["multiwoz-like", "dailydialogue-like", "generic-jsonl"])
    p.add_argument("--p-split", type=float, default=_DEFAULTS.p_split)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument("--min-freq", type=int, default=_DEFAULTS.min_freq)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = subs.add_parser("stats", help="print the statistics report for a "
                        "processed corpus")
    p.add_argument("--data", required=True, help="processed.jsonl path")
    p.add_argument("--vocab", default=None, help="vocab.tsv path (optional)")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("train", help="train an imaginator or arbitrator")
    p.add_argument("--config", default=None, help="config file; flags override it")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--agent-imaginator", default=None,
                   help="agent imaginator checkpoint (required for ita mode)")
    p.add_argument("--user-imaginator", default=None,
                   help="user imaginator checkpoint (required for ita mode)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train, subparser=p)

    p = subs.add_parser("evaluate", help="report metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--split", choices=["train", "valid", "test"], default="test")
    p.add_argument("--report", required=True, help="report file to write")
    p.add_argument("--decisions", default=None,
                   help="decision record file (arbitrator checkpoints; default "
                        "next to the report)")
    p.add_argument("--agent-imaginator", default=None)
    p.add_argument("--user-imaginator", default=None)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                   help="split seed; must match the training run")
    p.add_argument("--valid-frac", type=float, default=_DEFAULTS.valid_frac)
    p.add_argument("--test-frac", type=float, default=_DEFAULTS.test_frac)
    p.add_argument("--beam-width", type=int, default=_DEFAULTS.beam_width,
                   help="beam width for imaginator checkpoints only; an arbitrator "
                        "imagines greedily, as in its training")
    p.add_argument("--max-len", type=int, default=_DEFAULTS.max_decode_len)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("generate", help="decode next utterances with an "
                        "imaginator checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--split", choices=["train", "valid", "test"], default="test")
    p.add_argument("--out", default=None, help="output JSONL (default stdout)")
    p.add_argument("--limit", type=int, default=0, help="decode at most N samples")
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                   help="split seed; must match the training run")
    p.add_argument("--valid-frac", type=float, default=_DEFAULTS.valid_frac)
    p.add_argument("--test-frac", type=float, default=_DEFAULTS.test_frac)
    p.add_argument("--beam-width", type=int, default=_DEFAULTS.beam_width)
    p.add_argument("--max-len", type=int, default=_DEFAULTS.max_decode_len)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("demo", help="interactive wait-or-reply session")
    p.add_argument("--arbitrator", required=True, help="ita arbitrator checkpoint")
    p.add_argument("--agent-imaginator", required=True)
    p.add_argument("--user-imaginator", required=True)
    p.add_argument("--vocab", required=True, help="vocab.tsv path")
    p.add_argument("--transcript", default=None, help="JSONL transcript file")
    p.add_argument("--beam-width", type=int, default=_DEFAULTS.beam_width)
    p.add_argument("--max-len", type=int, default=_DEFAULTS.max_decode_len)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, IngestError, CheckpointError, TrainingError,
            ValueError, OSError) as e:
        _eprint(f"error: {e}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
