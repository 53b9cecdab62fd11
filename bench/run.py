"""Benchmark of the turntaking program: one workload, one fresh process.

Run from the repository root:

    python3 bench/run.py --workload quickstart-synthetic --seed 1 --seconds 40 --trace 0

Workloads: quickstart-synthetic, booking-default, serve-sessions
(BENCHMARK.json says why each exists; bench/spec.json what each runs and what
it should move). The program is imported from ./src, never from an installed
copy; without ./src the run fails before printing a result.

The run generates its inputs from --seed (untimed). Within --seconds it then
times set-up (SETUP_SAMPLES samples, each the mean of back-to-back set-ups
lasting at least SETUP_SAMPLE_S) and repeats rounds of fixed work, checking
every output. It prints each metric of the workload by name with its unit,
then, as its last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones named in
BENCHMARK.json; with --trace 1 each untraced round is followed by a traced
replay, and the metrics are the per-layer ones. The full result, and the
spans of a traced run, are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_SAMPLE_S = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("quickstart-synthetic", "booking-default", "serve-sessions"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for the benchmark's own tests; numbers are not comparable")
    return p.parse_args(argv)


def import_program():
    """Import `turntaking` from ./src of this checkout, or raise."""
    src = ROOT / "src"
    if not (src / "turntaking" / "__init__.py").is_file():
        raise RuntimeError(f"no program source under {src}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy loads its BLAS
    sys.path.insert(0, str(src))
    import turntaking
    if Path(turntaking.__file__).resolve().parent != (src / "turntaking").resolve():
        raise RuntimeError(f"turntaking imported from {turntaking.__file__}, not {src}")
    return turntaking


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not the commit of some enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def time_setups(wl, inputs):
    """Set up SETUP_SAMPLES times; return the last state and seconds per set-up.

    A single set-up takes milliseconds, too short to time steadily on a shared
    host, so each sample repeats it back to back for at least SETUP_SAMPLE_S
    (the count is fixed from a first, untimed set-up) and takes the mean.
    """
    t0 = time.perf_counter()
    state = wl.setup(inputs)
    reps = max(1, math.ceil(SETUP_SAMPLE_S / (time.perf_counter() - t0)))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            state = wl.setup(inputs)
        samples.append((time.perf_counter() - t0) / reps)
    return state, samples, reps


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Do one benchmark run in this process and return its full result."""
    wall0 = time.perf_counter()
    package = import_program()
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload](**(workloads.SMOKE[workload] if smoke else {}))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        inputs = wl.generate(seed, work_dir)

        start = time.perf_counter()
        state, setup_times, setup_reps = time_setups(wl, inputs)
        setup_tracer = spans.Tracer(package)
        if trace:
            with setup_tracer.installed():
                state = wl.setup(inputs)

        tracer = spans.Tracer(package)

        def measure(index: int, traced: bool):
            with tracer.installed() if traced else nullcontext():
                w, c = time.perf_counter(), time.process_time()
                with tracer.span("bench.round") if traced else nullcontext():
                    r = wl.round(state, index, tracer)
                r.wall_s, r.cpu_s = time.perf_counter() - w, time.process_time() - c
            return r

        untraced, traced_rounds = [], []
        index = 0
        while True:
            pair = [measure(index, False)]
            untraced.append(pair[0])
            if trace:
                pair.append(measure(index, True))
                traced_rounds.append(pair[1])
            index += 1
            if time.perf_counter() - start + sum(r.wall_s for r in pair) > seconds:
                break
        measured_s = time.perf_counter() - start

        finish = getattr(wl, "finish", None)
        extra = finish(state, untraced[0].records) if finish else workloads.RoundResult()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = {}
    if wl.identical_rounds:
        checks["rounds_identical"] = all(r.digest() == untraced[0].digest() for r in untraced)
    if trace:
        checks["traced_digest_equal"] = all(u.digest() == t.digest()
                                            for u, t in zip(untraced, traced_rounds))
    every = untraced + traced_rounds + [extra]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    checks["outputs_correct"] = not any(r.wrong for r in every)

    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": statistics.median(r.wall_s for r in untraced),
        "round_cpu_s": statistics.median(r.cpu_s for r in untraced),
        "failed_share": failed / attempted,
    }
    for phase, metric in (("imaginator", "imaginator_train_samples_per_s"),
                          ("arbitrator_textcnn", "arbitrator_textcnn_train_samples_per_s"),
                          ("arbitrator_bigru", "arbitrator_bigru_train_samples_per_s"),
                          ("eval", "eval_decodes_per_s")):
        rates = [r.phases[phase][0] / r.phases[phase][1] for r in untraced if phase in r.phases]
        if rates:
            values[metric] = statistics.median(rates)
    for guard, metric in (("bleu", "imaginator_valid_bleu"),
                          ("accuracy", "arbitrator_valid_accuracy")):
        if guard in untraced[0].quality:
            values[metric] = statistics.fmean(untraced[0].quality[guard])
    decisions = [ms for r in untraced for ms in r.decision_ms]
    if decisions:
        values["decision_ms.p50"] = percentile(decisions, 50)
        values["decision_ms.p90"] = percentile(decisions, 90)

    layers = {}
    if trace:
        problems = spans.check_nesting(tracer.spans) + spans.check_nesting(setup_tracer.spans)
        checks["spans_nest"] = not problems
        layers = spans.layer_metrics(tracer.spans, tracer.counts, len(traced_rounds))
        for key, value in spans.layer_metrics(setup_tracer.spans, setup_tracer.counts, 1).items():
            if not key.endswith(".self_s"):
                layers.setdefault(key, value)
        layers.update(spans.decision_split(tracer.spans))
        # CPU seconds, not wall: a wall difference of one pair is mostly host noise
        layers["trace.overhead_s"] = statistics.median(
            t.cpu_s - u.cpu_s for u, t in zip(untraced, traced_rounds))

    facts = machine_facts()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    facts.update({
        "process_wall_s": time.perf_counter() - wall0,
        "process_cpu_s": usage.ru_utime + usage.ru_stime,
        "measured_s": measured_s,
        "setup_reps_per_sample": setup_reps,
        "setup_samples_s": setup_times,
        "round_wall_s": [r.wall_s for r in untraced],
        "traced_round_wall_s": [r.wall_s for r in traced_rounds],
        "decisions": len(decisions),
    })
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "attempted": attempted, "failed": failed,
        "correct": all(checks.values()), "checks": checks,
        "digest": untraced[0].digest(), "values": values, "layers": layers, "facts": facts,
        "spans": tracer.spans + setup_tracer.spans if trace else [],
    }


def units(spec: dict, contract: dict) -> dict[str, str]:
    """The unit of every metric printed by name: BENCHMARK.json's metrics,
    then the other metrics and the layer table of bench/spec.json."""
    out = {name: m["unit"] for name, m in spec["metrics"].items() if "unit" in m}
    out.update((row["metric"], row["unit"]) for row in spec["layers"])
    out.update((m["name"], m["unit"]) for m in contract["end_to_end"] + contract["per_layer"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = units(spec, contract)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_list = result.pop("spans")
    out_dir = ROOT / ".bench_out"
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if spans_list:
        with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
            for rec in spans_list:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "tag",
                                              "size"), rec))) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name in spec["workloads"][args.workload]["reports"]:
        value = result["values"].get(name)  # absent when every operation behind it failed
        print(f"  {name:<42} {'-' if value is None else f'{value:.6g}'} {unit[name]}")
    for name, value in sorted(result["layers"].items()):
        if name in unit:  # the rest is in the result file only
            print(f"  {name:<42} {value:.6g} {unit[name]}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"checks {json.dumps(result['checks'])}  digest {result['digest']}")
    print(f"  facts {json.dumps(result['facts'], sort_keys=True)}")

    source = result["layers"] if args.trace else result["values"]
    metrics = {}
    for m in contract["per_layer" if args.trace else "end_to_end"]:
        value = source.get(m["name"])
        if value is None and m["unit"] == "count":
            value = 0  # a layer this workload never calls
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
