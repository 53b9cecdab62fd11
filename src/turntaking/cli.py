"""Command line surface.

Subcommands: preprocess, stats, train, evaluate, generate, demo. Every run
prints its resolved configuration to stderr; data goes to files or stdout,
diagnostics to stderr. `preprocess` writes processed.jsonl, vocab.tsv and
stats.txt; `train` writes model.ckpt, its model.ckpt.txt sidecar, metrics.jsonl
and train_config.txt. Nothing else is written, a rerun replaces each file, and
rerunning `preprocess` with equal flags writes byte-identical files. `train`,
`evaluate` and `generate` split the corpus by the run's seed alone (the
fractions are `corpus` constants), so a checkpoint's recorded seed names the
split it was trained on. All three models encode a history one way, the
`corpus` way, so an ita run takes any two imaginators of the right roles.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    CheckpointError, TrainConfig, TrainingError, build_model, load_checkpoint, run_training,
    write_jsonl,
)

_DEFAULTS = TrainConfig()
SPLITS = ("train", "valid", "test")  # the order of `corpus.split_corpus`'s parts


class CliError(RuntimeError):
    """Runtime failure with a clean one-line message; exits with status 1."""


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _announce(pairs: dict) -> None:
    _eprint("resolved configuration:")
    for k, v in pairs.items():
        _eprint(f"  {k} = {v}")


def _load_data_dir(data: str):
    """Read a preprocess output directory back into memory. Its vocabulary must
    hash to the `vocab_hash` that its processed corpus's header records."""
    d = Path(data)
    proc, voc = d / "processed.jsonl", d / "vocab.tsv"
    for p in (proc, voc):
        if not p.exists():
            raise CliError(f"{p}: not found (expected a preprocess output directory)")
    header, dialogues = cp.read_processed(proc)
    vocab = Vocabulary.load(voc)
    recorded = header.get("vocab_hash") if isinstance(header, dict) else None
    if recorded is None:
        raise CliError(f"{proc}: header records no vocab_hash to check {voc} against")
    if recorded != vocab.hash():
        raise CliError(f"{voc}: vocabulary hash {vocab.hash()} does not match "
                       f"vocab_hash {recorded} recorded in {proc}")
    return header, dialogues, vocab


def _load_trained(path: str, vocab: Vocabulary, expect_kind: str | None = None):
    """A checkpoint's model and the `TrainConfig` it was trained with. Runs take
    their split, decode length and width from that config, so a checkpoint without
    one, or with one that does not parse, is refused rather than run on defaults."""
    try:
        ck = load_checkpoint(path, expected_vocab_hash=vocab.hash())
        if not isinstance(ck.train_config_text, str):
            raise CliError("checkpoint records no training config")
        cfg = TrainConfig.from_text(ck.train_config_text)
    except (CliError, CheckpointError, ValueError) as e:
        raise CliError(f"{path}: {e}") from None
    kind = ck.model.config()["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise CliError(f"{path}: checkpoint holds {kind!r}, expected {expect_kind}")
    return ck.model, cfg


def _load_imaginator_pair(args, vocab: Vocabulary):
    """The agent and user imaginators of an ita run, each checked for its role."""
    pair = []
    for path, role in ((args.agent_imaginator, AGENT), (args.user_imaginator, USER)):
        model, _ = _load_trained(path, vocab, "imaginator")
        if model.role != role:
            raise CliError(f"{path}: role is {model.role!r}, expected {role}")
        pair.append(model)
    return tuple(pair)


def _out_file(path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# preprocess / stats


def cmd_preprocess(args) -> int:
    _announce({"input": args.input, "format": args.format, "p_split": args.p_split,
               "seed": args.seed, "min_freq": args.min_freq, "out": args.out})
    dialogues, annotations, skipped = cp.ingest_source(args.input, args.format)
    if not dialogues:
        raise CliError(f"{args.input}: no usable dialogues")
    modified = cp.modify_corpus(dialogues, annotations, args.p_split, args.seed)
    vocab = cp.build_vocabulary(modified, args.min_freq)
    header = {"source": Path(args.input).name, "format": args.format,
              "p_split": args.p_split, "seed": args.seed,
              "min_freq": args.min_freq, "skipped": skipped,
              "vocab_hash": vocab.hash()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cp.write_processed(modified, out / "processed.jsonl", header)
    vocab.save(out / "vocab.tsv")
    report = cp.render_stats(cp.compute_stats(modified, vocab_size=len(vocab)))
    cp._write_atomic(out / "stats.txt", report.encode())
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


def _resolve_config(args) -> tuple[TrainConfig, dict[str, str]]:
    """The config file's keys, overridden by the flags given, over the defaults; and
    for each key set, where it was set: its flag, or the config file."""
    base: dict = {}
    if args.config:
        base = TrainConfig.values_from_text(Path(args.config).read_text())
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: getattr(args, k) for k in names if hasattr(args, k)}
    given = {**{k: f"{args.config}: {k}" for k in base},
             **{k: "--" + k.replace("_", "-") for k in overrides}}
    return TrainConfig(**{**base, **overrides}), given


def _as_preprocessed(cfg: TrainConfig, given: dict[str, str], header: dict,
                     data: str) -> TrainConfig:
    """cfg with the p_split and min_freq that `data` was preprocessed with, as its
    processed.jsonl header records them. A key that the flags or the config file
    set to another value is refused: it would name a corpus the run does not read."""
    proc = Path(data) / "processed.jsonl"
    recorded = {}
    for key, types in (("p_split", (int, float)), ("min_freq", (int,))):
        value = header.get(key)
        if type(value) not in types:
            raise CliError(f"{proc}: header records no usable {key}, got {value!r}")
        if key in given and getattr(cfg, key) != value:
            raise CliError(f"{given[key]} {getattr(cfg, key)} does not match {proc} "
                           f"({key} {value}, set by preprocess)")
        recorded[key] = value
    return dataclasses.replace(cfg, **recorded)


def cmd_train(args) -> int:
    cfg, given = _resolve_config(args)
    if cfg.kind == "arbitrator" and cfg.mode == "ita" and not (
            args.agent_imaginator and args.user_imaginator):
        args.subparser.error(
            "--kind arbitrator --mode ita requires --agent-imaginator and "
            "--user-imaginator checkpoint paths")
    header, dialogues, vocab = _load_data_dir(args.data)
    cfg = _as_preprocessed(cfg, given, header, args.data)
    _eprint("resolved configuration:")
    _eprint(cfg.to_text().rstrip())

    train_d, valid_d, _ = cp.split_corpus(dialogues, cfg.seed)
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
    res = run_training(cfg, train_s, valid_s, model, vocab,
                       imaginators=imaginators, metrics_path=out / "metrics.jsonl",
                       checkpoint_path=out / "model.ckpt")
    cp._write_atomic(out / "train_config.txt", cfg.to_text().encode())
    print(f"{res.metric_name} = {res.best_value:.6f}")
    print(f"best_epoch = {res.best_epoch}")
    print(f"epochs_run = {res.epochs_run}")
    return 0


# ---------------------------------------------------------------------------
# evaluate / generate


def _load_run(args, expect_kind: str | None = None, **more):
    """The vocabulary, model and training config of an evaluate or generate run, and
    the part of the corpus that `--split` names under the split it was trained on,
    which the config's seed fixes."""
    _, dialogues, vocab = _load_data_dir(args.data)
    model, cfg = _load_trained(args.checkpoint, vocab, expect_kind)
    width = {"beam_width": cfg.beam_width} if model.config()["kind"] == "imaginator" else {}
    _announce({"checkpoint": args.checkpoint, "data": args.data, "split": args.split,
               "seed": cfg.seed, "max_decode_len": cfg.max_decode_len, **width, **more})
    parts = cp.split_corpus(dialogues, cfg.seed)
    return vocab, model, cfg, parts[SPLITS.index(args.split)]


def _report_lines(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def cmd_evaluate(args) -> int:
    vocab, model, cfg, part = _load_run(args, report=args.report)
    kind = model.config()["kind"]

    if kind == "imaginator":
        samples = [s for d in part for r in (AGENT, USER)
                   for s in cp.derive_imaginator_samples(d, r)]
        if not samples:
            raise CliError(f"split {args.split!r} has no imaginator samples")
        scores = evaluate_imaginator(model, samples, vocab, beam_width=cfg.beam_width,
                                     max_len=cfg.max_decode_len)
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
        decisions = decide_prepared(model, prepare_samples(samples, vocab, pair,
                                                           max_len=cfg.max_decode_len), vocab)
        preds = [d.label for d in decisions]
        summary = classification_summary(preds, gold)
        rand = accuracy(random_policy_predictions(len(gold), seed=cfg.seed), gold)
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
        write_jsonl(_out_file(dec_path), [decision_record(f"{args.split}-{i:05d}", d)
                                          for i, d in enumerate(decisions)])
        _eprint(f"decision records written to {dec_path}")
    print(report, end="")
    return 0


def cmd_generate(args) -> int:
    if args.limit < 0:
        raise CliError(f"--limit must not be negative, got {args.limit}")
    vocab, model, cfg, part = _load_run(args, "imaginator", limit=args.limit)
    samples = [s for d in part for s in cp.derive_imaginator_samples(d, model.role)]
    if args.limit:
        samples = samples[:args.limit]
    if not samples:
        raise CliError(f"split {args.split!r} has no samples for role {model.role!r}")

    encs = [cp.encode_history(s.history, vocab) for s in samples]
    decoded = beam_decode(model, encs, beam_width=cfg.beam_width, max_len=cfg.max_decode_len)
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


def cmd_demo(args) -> int:
    """Interactive loop: one user message per line, decision after each.

    A turn is one user message group plus the agent reply that closes it:
    WAIT extends the current turn with another subturn, REPLY emits the
    imagined agent response and starts the next turn. Imaginations are decoded
    as the arbitrator was trained on them: greedily, to the `max_decode_len`
    of its training config. A message holding a reserved token (`<eos>`,
    `<pad>`, ...) is refused, as ingestion refuses it in a corpus: it would be
    read as a control id. It joins no history and leaves turn and subturn as
    they were.
    """
    vocab = Vocabulary.load(args.vocab)
    arb, cfg = _load_trained(args.arbitrator, vocab, "arbitrator")
    if arb.mode != "ita":
        raise CliError(f"{args.arbitrator}: demo needs an ita-mode arbitrator")
    agent_im, user_im = _load_imaginator_pair(args, vocab)
    _announce({"arbitrator": args.arbitrator, "agent_imaginator": args.agent_imaginator,
               "user_imaginator": args.user_imaginator, "vocab": args.vocab,
               "max_decode_len": cfg.max_decode_len, "transcript": args.transcript})

    transcript = _out_file(args.transcript) if args.transcript else None
    events: list[dict] = []

    def record(*new: dict) -> None:  # the transcript is rewritten whole, atomically
        events.extend(new)
        if transcript is not None:
            write_jsonl(transcript, events)

    record()  # an empty transcript before the first event
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
            reserved = set(cp.RESERVED_TOKENS).intersection(toks)
            if reserved:
                token = min(reserved)
                _eprint(f"warning: reserved token {token!r} in the message; not added")
                record({"event": "refused", "token": token, "text": " ".join(toks)})
                continue
            history.append(cp.Utterance(USER, turn, subturn, tuple(toks)))
            record({"event": "user", "turn": turn, "subturn": subturn, "text": " ".join(toks)})
            try:
                decision = ita_predict(history, arb, agent_im, user_im, vocab,
                                       max_len=cfg.max_decode_len)
            except ValueError as e:  # a history the models cannot take: wait, and say so
                _eprint(f"warning: decision failed ({e}); waiting")
                record({"event": "fallback", "error": str(e)})
                subturn += 1
                continue
            verdict = "REPLY" if decision.label == 1 else "WAIT"
            print(f"{verdict} (p_wait={decision.probs[0]:.3f}, "
                  f"p_reply={decision.probs[1]:.3f})")
            record({"event": "decision", "label": decision.label, "p_wait": decision.probs[0],
                    "p_reply": decision.probs[1], "flags": list(decision.flags)})
            if decision.label == 1:
                reply = list(decision.imagined_agent)
                if not reply:
                    _eprint("warning: agent generation was empty; waiting instead")
                    subturn += 1
                    continue
                print(f"agent> {' '.join(reply)}")
                history.append(cp.Utterance(AGENT, turn, 0, tuple(reply)))
                record({"event": "agent", "turn": turn, "text": " ".join(reply)})
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
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint written by train; its training config sets the split, "
                        "the decode length and an imaginator's beam width (an arbitrator "
                        "imagines greedily, as it was trained)")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--split", choices=SPLITS, default="test",
                   help="part of the split the checkpoint was trained on")
    p.add_argument("--report", required=True, help="report file to write")
    p.add_argument("--decisions", default=None,
                   help="decision record file (arbitrator checkpoints; default "
                        "next to the report)")
    p.add_argument("--agent-imaginator", default=None)
    p.add_argument("--user-imaginator", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("generate", help="decode next utterances with an "
                        "imaginator checkpoint")
    p.add_argument("--checkpoint", required=True, help="imaginator checkpoint written by "
                   "train; its training config sets the split, decode length and beam width")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", default=None, help="output JSONL (default stdout)")
    p.add_argument("--limit", type=int, default=0, help="decode at most N samples (0: all)")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("demo", help="interactive wait-or-reply session")
    p.add_argument("--arbitrator", required=True, help="ita arbitrator checkpoint; "
                   "its training config sets the decode length")
    p.add_argument("--agent-imaginator", required=True)
    p.add_argument("--user-imaginator", required=True)
    p.add_argument("--vocab", required=True, help="vocab.tsv path")
    p.add_argument("--transcript", default=None, help="JSONL transcript file")
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
