"""Span tracing of the turntaking layers, installed from outside the package.

`Tracer.installed()` replaces public functions of the program's modules with
timing wrappers for this process only and restores the originals on exit.
A function is replaced under every module-level name bound to it, because a
name is looked up in the module that *calls* it: `arbitrator` imports
`beam_decode` and `greedy_decode` by name and `training` imports `Adam` by
name, so patching `imaginator.beam_decode` alone would miss every call from
`ita_predict`.

Spans are kept in memory as `[name, start, end, parent, op, tag, size]`
lists; the benchmark writes them out when it ends. `op` is the operation id
shared by every span of one training call or one decision, `tag` is the role
of the imaginator a decode ran, `size` the number of tokens it returned.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> functions recorded as spans (self time where spans nest)
SPANNED = {
    "corpus": ("ingest_source", "modify_corpus", "split_corpus", "build_vocabulary",
               "encode_history"),
    "imaginator": ("train_step", "encode_batch", "teacher_forced_loss", "greedy_decode",
                   "beam_decode", "evaluate_imaginator", "bleu"),
    "arbitrator": ("prepare_samples", "train_step", "batch_loss", "textcnn_encode",
                   "bigru_encode", "fuse_paths", "evaluate_prepared", "ita_predict",
                   "decide_with_imagined"),
    "autodiff": ("backward",),
    "training": ("run_training", "save_checkpoint", "load_checkpoint"),
}
# functions only counted: a span per call would move their time out of the
# caller whose self time the layer table names
COUNTED = {"imaginator": ("lstm_step",), "autodiff": ("matmul",)}
DECODES = {"imaginator.greedy_decode", "imaginator.beam_decode"}
TRAIN_STEPS = {"imaginator.train_step", "arbitrator.train_step"}
DECISION_STAGES = {"corpus.encode_history": "history_encode",
                   "arbitrator.decide_with_imagined": "arbitrate"}


class Tracer:
    """Records spans and call counts while installed; inert otherwise."""

    def __init__(self, package):
        self.package = package  # the imported `turntaking` package
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], int] = {}  # (name, innermost span) -> calls
        self.op = None
        self._stack: list[int] = []
        self._clock = time.perf_counter

    @contextmanager
    def operation(self, op_id):
        """Tag every span opened inside with `op_id`."""
        outer, self.op = self.op, op_id
        try:
            yield
        finally:
            self.op = outer

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a whole phase."""
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name, tag) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1,
                           self.op, tag, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, size) -> None:
        self._stack.pop()
        rec = self.spans[idx]
        rec[2] = self._clock()
        rec[6] = size

    def _span_wrapper(self, name, fn):
        decode = name in DECODES

        def wrapper(*args, **kwargs):
            idx = self._open(name, getattr(args[0], "role", None) if decode else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, len(result) if decode and result is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            key = (name, stack[-1] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced name in every module of the package; undo on exit."""
        prefix = self.package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]
        undo = []
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, names in table.items():
                home = getattr(self.package, mod_name)
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = make(f"{mod_name}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
        ad = self.package.autodiff
        for cls, attr, make, name in ((ad.Adam, "step", self._span_wrapper, "autodiff.Adam.step"),
                                      (ad.Tensor, "__init__", self._count_wrapper,
                                       "autodiff.tape_nodes")):
            original = vars(cls)[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, make(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap in this single-threaded program, so
    their durations add up to the covered part of the parent's interval.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1]) - covered[i] for i, rec in enumerate(spans)]


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree; an empty list means every span nests."""
    problems = []
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= i:
            problems.append(f"span {i} {name} has parent {parent} opened after it")
        elif parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {i} {name} leaves its parent {parent} {p[0]}")
    return problems


def _ancestors(spans, idx):
    while idx >= 0:
        yield idx
        idx = spans[idx][3]


def layer_metrics(spans: list[list], counts: dict, n_rounds: int) -> dict[str, float]:
    """Per-layer totals divided by the number of traced rounds.

    `<module>.<function>.s` is self seconds, `.calls` the call count and
    `.tokens` the tokens decodes returned; `<module>.self_s` sums the self
    time of a module's spans. Spans the benchmark opened itself (`bench.*`)
    only bound their children and are not reported. The two `_per_step`
    ratios count matmuls and tape nodes made inside training steps.
    """
    out: dict[str, float] = defaultdict(float)
    for rec, own in zip(spans, self_times(spans)):
        name = rec[0]
        if name.startswith("bench."):
            continue
        out[f"{name}.s"] += own
        out[f"{name}.calls"] += 1
        out[f"{name.split('.', 1)[0]}.self_s"] += own
        if rec[6] is not None:
            out[f"{name}.tokens"] += rec[6]
    in_step: dict[int, bool] = {}
    inside_steps = {"autodiff.matmul": 0, "autodiff.tape_nodes": 0}
    for (name, idx), n in counts.items():
        out[name if name == "autodiff.tape_nodes" else f"{name}.calls"] += n
        if name in inside_steps:
            if idx not in in_step:
                in_step[idx] = any(spans[a][0] in TRAIN_STEPS for a in _ancestors(spans, idx))
            inside_steps[name] += n if in_step[idx] else 0
    out = {k: v / n_rounds for k, v in out.items()}
    steps = sum(1 for rec in spans if rec[0] in TRAIN_STEPS)
    if steps:
        out["autodiff.matmul.calls_per_step"] = inside_steps["autodiff.matmul"] / steps
        out["autodiff.tape_nodes_per_step"] = inside_steps["autodiff.tape_nodes"] / steps
    return out


def decision_split(spans: list[list]) -> dict[str, float]:
    """Median milliseconds of each stage of `ita_predict`, over traced decisions.

    The two beam searches are told apart by the role of their imaginator.
    """
    stages = defaultdict(list)
    for rec in spans:
        if rec[3] < 0 or spans[rec[3]][0] != "arbitrator.ita_predict":
            continue
        stage = (f"{rec[5]}_imagine" if rec[0] == "imaginator.beam_decode"
                 else DECISION_STAGES.get(rec[0]))
        if stage:
            stages[stage].append((rec[2] - rec[1]) * 1e3)
    return {f"decision.{k}_ms": statistics.median(v) for k, v in stages.items()}
