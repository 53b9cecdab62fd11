#!/usr/bin/env python3
"""Interleaved parent/change pairs of the benchmark, in one command.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent REV --workload W --seeds 1,2,3,1009 --seconds 40

REV's files are extracted with `git archive` into a temporary directory, which
is removed on exit. Before the first pair, `src` and `bench` of both trees are
byte-compiled, so that both sides import from bytecode: a run that compiles
the modules it imports reads higher serve `peak_rss_mb` (0.9 to 2.9 MB on a
2-vCPU host), and a tree without `__pycache__` compiles them on its first run,
or on every run under PYTHONDONTWRITEBYTECODE. For each seed, bench/run.py
runs once in that directory (the parent) and once in this working tree (the
change), with `--trace 0`, and the side that runs first alternates from pair to
pair. The script then prints, for
each end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
number of pairs in which the change reads better, and two verdicts:

- the claim rule: at least ten pairs, the change better in at least nine
  tenths of them (ties count for neither), and the medians further apart than
  the parent's interquartile range; where it is not met, the parts that fail;
- the no-regression rule, against the metric's `bound`, a fraction of the
  parent's median: `unresolved` when the parent's interquartile range is wider
  than the bound, unless every change run beats every parent run; otherwise
  `worse` when the change's median is worse than the parent's by more than the
  bound, and `within bound` when it is not.

It flags every pair whose digests differ, whose runs are not both `correct`, or
whose `failed` counts differ. A run that exits non-zero is flagged with its
side, seed, exit code and the tail of its stderr; its pair is left out of the
medians, the pairs after it still run, and the script exits 1 after printing the
summary of the completed pairs. Below the verdicts it prints, as information with
no claim and no verdict, each side's median of the INFO metrics that the
workload reports: CPU time beside wall time, and the quality guards, which show
that a change whose digests differ on purpose still does the same work. Beside
them it prints `src_lines` from each run's facts line, so a change that deletes
code shows its line count next to its no-regression verdict.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
# metrics bench/run.py prints by name that the summary shows without a verdict
INFO = ("round_cpu_s", "imaginator_valid_bleu", "arbitrator_valid_accuracy", "decision_ms.p50")


def compile_tree(tree: Path) -> None:
    """Write the bytecode of every module under `src` and `bench` of `tree`."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=tree, check=True, capture_output=True)


def named_values(stdout: str) -> dict[str, float]:
    """The INFO metrics of a bench/run.py output, from the lines that print each metric
    by name (`  round_cpu_s   0.51 s`), and `src_lines` from its `  facts {...}` line;
    a metric printed as `-`, or a value not printed, is absent."""
    values = {}
    for name in INFO:
        found = re.search(rf"^\s+{re.escape(name)}\s+(\S+)", stdout, re.MULTILINE)
        if found and found.group(1) != "-":
            values[name] = float(found.group(1))
    found = re.search(r"^\s+facts (\{.*\})$", stdout, re.MULTILINE)
    if found and "src_lines" in (facts := json.loads(found.group(1))):
        values["src_lines"] = float(facts["src_lines"])
    return values


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run in `tree`: its correctness, failed count,
    digest, end-to-end metric values and `named_values`; or, for a run that exits
    non-zero or prints nothing, its exit code and the tail of its stderr."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    digest = re.search(r"\bdigest (\S+)", proc.stdout)
    return {"correct": result["correct"], "failed": result["failed"],
            "digest": digest.group(1) if digest else None,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "info": named_values(proc.stdout)}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric over (parent run, change run) pairs.

    `metrics` are BENCHMARK.json's end-to-end entries ("name", "better",
    "bound"). A row holds both sides' quartiles, the pairs in which the change is
    better, the pairs with both values, whether the claim rule holds, the parts of
    it that fail, and the no-regression verdict."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        both = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            rows.append({"name": name, "pairs": 0, "better": 0, "claim": False})
            continue
        parent = _quartiles([p for p, _ in both])
        change = _quartiles([c for _, c in both])
        better = sum(sign * (c - p) < 0 for p, c in both)
        apart = sign * (change[1] - parent[1]) < 0 and \
            abs(change[1] - parent[1]) > parent[2] - parent[0]
        unmet = [why for why, fails in (
            (f"{len(both)} < {CLAIM_MIN_PAIRS} pairs", len(both) < CLAIM_MIN_PAIRS),
            (f"better in {better}/{len(both)}", better < CLAIM_SHARE * len(both)),
            ("medians not apart by the parent's IQR", not apart)) if fails]
        bound = m["bound"] * abs(parent[1])
        if parent[2] - parent[0] > bound and \
                max(sign * c for _, c in both) >= min(sign * p for p, _ in both):
            verdict = "unresolved"
        elif sign * (change[1] - parent[1]) > bound:
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({"name": name, "parent": parent, "change": change,
                     "pairs": len(both), "better": better,
                     "claim": not unmet, "unmet": unmet, "verdict": verdict})
    return rows


def pair_flags(seeds: list[int], pairs: list[tuple[dict, dict]]) -> list[str]:
    """A line for every run that exited non-zero, and for every completed pair whose
    digests differ, whose runs are not both correct, or whose failed counts differ."""
    flags = []
    for i, (seed, (p, c)) in enumerate(zip(seeds, pairs)):
        where = f"pair {i + 1} (seed {seed})"
        exited = [(side, r) for side, r in (("parent", p), ("change", c)) if "exit" in r]
        for side, r in exited:
            flags.append(f"{where}: the {side} run exited {r['exit']}, pair left out of the "
                         f"medians: {r['stderr']}")
        if exited:
            continue
        if p["digest"] != c["digest"]:
            flags.append(f"{where}: digests differ, parent {p['digest']}, change {c['digest']}")
        for side, r in (("parent", p), ("change", c)):
            if not r["correct"]:
                flags.append(f"{where}: the {side} run is not correct")
        if p["failed"] != c["failed"]:
            flags.append(f"{where}: failed {p['failed']} (parent) != {c['failed']} (change)")
    return flags


def info_rows(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Each side's median of every INFO metric, and of `src_lines`, that a run of the
    pairs reports, and the number of runs behind each median."""
    rows = []
    for name in (*INFO, "src_lines"):
        sides = [[run["info"][name] for run in side if name in run.get("info", {})]
                 for side in zip(*pairs)]
        if any(sides):
            rows.append({"name": name, **{key: (statistics.median(v) if v else None, len(v))
                                          for key, v in zip(("parent", "change"), sides)}})
    return rows


def render(rows: list[dict], flags: list[str], info: list[dict] = ()) -> str:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    lines = [f"{'metric':<14} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
             f"better  claim    no regression why the claim is not met"]
    for r in rows:
        if not r["pairs"]:
            lines.append(f"{r['name']:<14} no values")
            continue
        lines.append(f"{r['name']:<14} {q(r['parent']):<36} {q(r['change']):<36} "
                     f"{r['better']}/{r['pairs']:<5} {'holds' if r['claim'] else 'not met':<8} "
                     f"{r['verdict']:<13} {'; '.join(r['unmet'])}".rstrip())
    lines += flags or ["every pair: digests equal, both runs correct, failed counts equal"]
    if info:
        lines.append("information, no claim and no verdict: parent median -> change median (runs)")
    for r in info:
        (p, n_p), (c, n_c) = r["parent"], r["change"]
        lines.append(f"  {r['name']:<26} {'-' if p is None else f'{p:.6g}'} -> "
                     f"{'-' if c is None else f'{c:.6g}'} ({n_p}, {n_c})")
    return "\n".join(lines) + "\n"


def _shown(run: dict, name: str):
    """A run's value of metric `name` for the per-pair line, or how it exited."""
    return f"exit {run['exit']}" if "exit" in run else run["metrics"].get(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated, one pair each")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    parent_tree = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    pairs = []
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree, filter="data")
        for tree in (parent_tree, ROOT):
            compile_tree(tree)
        for i, seed in enumerate(seeds):
            order = [("parent", parent_tree), ("change", ROOT)]
            runs = {side: run_bench(tree, args.workload, seed, args.seconds)
                    for side, tree in (order if i % 2 == 0 else order[::-1])}
            pairs.append((runs["parent"], runs["change"]))
            print(f"pair {i + 1} seed {seed} ({order[i % 2][0]} first): " + "  ".join(
                f"{m['name']} {_shown(runs['parent'], m['name'])} -> "
                f"{_shown(runs['change'], m['name'])}" for m in metrics), flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    done = [(p, c) for p, c in pairs if "exit" not in p and "exit" not in c]
    sys.stdout.write(render(summarize(done, metrics), pair_flags(seeds, pairs),
                            info_rows(done)))
    return 0 if len(done) == len(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
