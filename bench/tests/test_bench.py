"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

turntaking = run.import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text())
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = run.units(SPEC, CONTRACT)


def test_quickstart_generator_is_deterministic(tmp_path):
    wl = workloads.QuickstartSynthetic(**workloads.SMOKE["quickstart-synthetic"])
    a = wl.generate(3, tmp_path)["dialogues"]
    assert a == wl.generate(3, tmp_path)["dialogues"]
    assert a != wl.generate(4, tmp_path)["dialogues"]


def test_booking_generator_is_deterministic(tmp_path):
    wl = workloads.BookingDefault(**workloads.SMOKE["booking-default"])
    first = wl.generate(3, tmp_path)["raw"].read_bytes()
    assert wl.generate(3, tmp_path)["raw"].read_bytes() == first
    assert wl.generate(4, tmp_path)["raw"].read_bytes() != first


def test_session_stream_is_deterministic_with_a_fixed_shape():
    words = workloads.lexicon(50)
    a = workloads.SessionStream(3, words).session(2)
    assert a == workloads.SessionStream(3, words).session(2)
    assert a != workloads.SessionStream(4, words).session(2)
    assert a != workloads.SessionStream(3, words).session(1)
    assert len(a) == len(workloads.SessionStream(4, words).session(7)) == 27  # 14 turns of 1, 2, 3, ... subturns
    for earlier, later in zip(a, a[1:]):
        assert later[:len(earlier)] == earlier  # one growing conversation
    assert all(history[-1].role == "user" for history in a)
    assert len(set(words)) == 50


def test_serve_inputs_are_deterministic(tmp_path):
    wl = workloads.ServeSessions(**workloads.SMOKE["serve-sessions"])
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    wl.generate(3, tmp_path / "a")
    wl.generate(3, tmp_path / "b")
    for name in ("vocab.tsv", "agent.ckpt", "user.ckpt", "arbitrator.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_spread_keeps_order_and_count():
    wl = workloads.QuickstartSynthetic()
    dialogues = wl.generate(0, None)["dialogues"][:40]
    samples = [s for d in dialogues for s in turntaking.corpus.derive_arbitrator_samples(d)]
    picked = workloads.spread(samples, 10)
    assert len(picked) == 10
    where = {id(s): i for i, s in enumerate(samples)}  # scripted samples repeat by value
    positions = [where[id(s)] for s in picked]
    assert positions == sorted(positions)
    assert workloads.spread(samples, len(samples) + 5) == samples


def test_self_times_and_nesting_on_hand_built_spans():
    good = [["a", 0.0, 10.0, -1, None, None, None],
            ["b", 1.0, 4.0, 0, None, None, None],
            ["c", 2.0, 3.0, 1, None, None, None],
            ["d", 5.0, 9.0, 0, None, None, None]]
    assert spans.check_nesting(good) == []
    assert spans.self_times(good) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    bad = [list(r) for r in good]
    bad[3][2] = 11.0
    assert spans.check_nesting(bad)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_nests_and_matches_untraced_digest(tmp_path, name):
    wl = workloads.WORKLOADS[name](**workloads.SMOKE[name])
    state = wl.setup(wl.generate(5, tmp_path))
    tracer = spans.Tracer(turntaking)
    plain = wl.round(state, 0, tracer)
    with tracer.installed():
        t0 = time.perf_counter()
        traced = wl.round(state, 0, tracer)
        wall = time.perf_counter() - t0
    assert traced.digest() == plain.digest()
    assert plain.failed == 0 and plain.attempted > 0
    assert tracer.spans and spans.check_nesting(tracer.spans) == []
    assert 0 < sum(spans.self_times(tracer.spans)) <= wall
    # every decision or training call carries its operation id
    assert all(rec[4] is not None for rec in tracer.spans)
    # the originals are back after uninstalling
    assert turntaking.arbitrator.beam_decode is turntaking.imaginator.beam_decode
    assert not hasattr(turntaking.arbitrator.beam_decode, "__wrapped__")


def test_units_agree_where_both_files_name_a_metric():
    contract = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    spec = {row["metric"]: row["unit"] for row in SPEC["layers"]}
    spec.update((k, m["unit"]) for k, m in SPEC["metrics"].items() if "unit" in m)
    assert all(spec[k] == unit for k, unit in contract.items() if k in spec)
    assert all(k in UNITS for w in SPEC["workloads"].values() for k in w["reports"])


def _main(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(name):
    code, text = _main("--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", "0",
                       "--smoke")
    assert code == 0
    for metric in SPEC["workloads"][name]["reports"]:
        unit = UNITS[metric]
        assert any(line.split()[:1] == [metric] and line.rstrip().endswith(unit)
                   for line in text.splitlines()), metric
    last = json.loads(text.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_prints_every_layer_metric(name):
    code, text = _main("--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", "1",
                       "--smoke")
    assert code == 0
    printed = {line.split()[0] for line in text.splitlines()[1:] if line.startswith("  ")}
    for row in SPEC["layers"]:
        if name in row["workloads"]:
            assert row["metric"] in printed, row["metric"]
    assert "trace.overhead_s" in printed
    last = json.loads(text.strip().splitlines()[-1])
    assert last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_missing_source_fails_without_a_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code, text = _main("--workload", "serve-sessions", "--seed", "1", "--seconds", "1")
    assert code != 0 and text == ""
