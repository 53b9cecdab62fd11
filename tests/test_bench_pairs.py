"""The summary of scripts/bench_pairs.py on hand-made runs."""

import importlib.util
import io
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "round_s", "better": "lower", "bound": 0.25}]


def _run(setup_s, round_s=1.0, digest="d", correct=True, failed=0):
    return {"correct": correct, "failed": failed, "digest": digest,
            "metrics": {"setup_s": setup_s, "round_s": round_s}}


def _rows(pairs):
    return {r["name"]: r for r in bench_pairs.summarize(pairs, METRICS)}


class TestSummary:
    def test_quartiles_and_pairs_better(self):
        pairs = [(_run(p), _run(c)) for p, c in zip([4, 1, 3, 2, 5], [1, 2, 3, 4, 0])]
        row = _rows(pairs)["setup_s"]
        assert row["parent"] == (2.0, 3.0, 4.0)
        assert row["change"] == (1.0, 2.0, 3.0)
        assert row["pairs"] == 5 and row["better"] == 2  # the tie counts for neither side
        assert row["claim"] is False

    def test_claim_holds_at_nine_of_ten_with_medians_apart(self):
        parent = [10.0, 10.5, 11.0, 11.5, 12.0, 10.2, 10.8, 11.2, 11.8, 10.0]
        change = [p - 3.0 for p in parent[:9]] + [10.1]
        row = _rows([(_run(p), _run(c)) for p, c in zip(parent, change)])["setup_s"]
        assert row["better"] == 9 and row["claim"] is True

    def test_claim_not_met_below_ten_pairs(self):
        parent = [10.0, 10.5, 11.0, 11.5, 12.0, 10.2, 10.8, 11.2, 11.8]
        rows = bench_pairs.summarize([(_run(p), _run(p - 3.0)) for p in parent], METRICS)
        assert rows[0]["better"] == 9 and rows[0]["claim"] is False
        assert rows[0]["unmet"] == ["9 < 10 pairs"]
        assert "not met  within bound  9 < 10 pairs" in bench_pairs.render(rows, [])

    def test_claim_not_met_at_eight_of_ten(self):
        parent = [10.0] * 10
        change = [7.0] * 8 + [10.0, 12.0]
        row = _rows([(_run(p), _run(c)) for p, c in zip(parent, change)])["setup_s"]
        assert row["better"] == 8 and row["claim"] is False

    def test_claim_not_met_when_medians_within_parent_spread(self):
        parent = [1.0, 5.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0]
        change = [p - 0.5 for p in parent]
        row = _rows([(_run(p), _run(c)) for p, c in zip(parent, change)])["setup_s"]
        assert row["better"] == 10 and row["claim"] is False

    def test_higher_is_better_counts_the_other_way(self):
        pairs = [(_run(1.0), _run(2.0))]
        row = bench_pairs.summarize(
            pairs, [{"name": "setup_s", "better": "higher", "bound": 0.25}])[0]
        assert row["better"] == 1

    def test_metric_absent_from_every_pair(self):
        row = bench_pairs.summarize([(_run(1.0), _run(2.0))],
                                    [{"name": "peak_rss_mb", "better": "lower",
                                      "bound": 0.1}])[0]
        assert row == {"name": "peak_rss_mb", "pairs": 0, "better": 0, "claim": False}

    @pytest.mark.parametrize("parent, change, want", [
        ([10.0, 10.2, 9.8, 10.1], [11.0, 11.2, 10.8, 11.1], "within bound"),
        ([10.0, 10.2, 9.8, 10.1], [13.0, 13.2, 12.8, 13.1], "worse"),
        ([10.0, 10.2, 9.8, 10.1], [7.0, 7.2, 6.8, 7.1], "within bound"),
        ([6.0, 14.0, 8.0, 12.0], [7.0, 13.0, 9.0, 11.0], "unresolved"),
        ([6.0, 14.0, 8.0, 12.0], [17.0, 19.0, 18.0, 20.0], "unresolved"),
        ([6.0, 14.0, 8.0, 12.0], [5.0, 5.5, 4.0, 5.8], "within bound"),
    ], ids=["slightly-worse", "worse", "better", "spread-wide", "spread-wide-worse",
            "spread-wide-every-change-run-better"])
    def test_no_regression_verdict(self, parent, change, want):
        rows = _rows([(_run(p), _run(c)) for p, c in zip(parent, change)])
        assert rows["setup_s"]["verdict"] == want

    def test_no_regression_verdict_when_higher_is_better(self):
        metric = [{"name": "setup_s", "better": "higher", "bound": 0.1}]
        pairs = [(_run(p), _run(c)) for p, c in zip([10.0, 10.1, 9.9], [8.5, 8.6, 8.4])]
        assert bench_pairs.summarize(pairs, metric)[0]["verdict"] == "worse"
        pairs = [(_run(p), _run(c)) for p, c in zip([10.0, 10.1, 9.9], [9.5, 9.6, 9.4])]
        assert bench_pairs.summarize(pairs, metric)[0]["verdict"] == "within bound"

    def test_render_names_every_metric(self):
        pairs = [(_run(2.0), _run(1.0))]
        text = bench_pairs.render(bench_pairs.summarize(pairs, METRICS), [])
        assert "setup_s" in text and "round_s" in text
        assert "within bound" in text
        assert "digests equal" in text


class TestFlags:
    @pytest.mark.parametrize("change, want", [
        (_run(1.0, digest="e"), "digests differ, parent d, change e"),
        (_run(1.0, correct=False), "the change run is not correct"),
        (_run(1.0, failed=2), "failed 0 (parent) != 2 (change)"),
    ])
    def test_each_fault_is_flagged(self, change, want):
        flags = bench_pairs.pair_flags([1009], [(_run(1.0), change)])
        assert flags == [f"pair 1 (seed 1009): {want}"]

    def test_clean_pairs_raise_no_flag(self):
        assert bench_pairs.pair_flags([1, 2], [(_run(1.0), _run(2.0))] * 2) == []


def test_failed_run_is_flagged_and_the_other_pairs_summarized(monkeypatch, capsys):
    """A run that exits non-zero costs its pair, not the pairs already run or still to
    run: it is flagged with its side, seed, exit code and stderr, the summary covers
    the completed pairs, and the script exits 1."""
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, empty_tar.getvalue(), b"")
        if "compileall" in cmd:
            return subprocess.CompletedProcess(cmd, 0, b"", b"")
        seed = int(cmd[cmd.index("--seed") + 1])
        change = Path(cwd) == bench_pairs.ROOT
        if change and seed == 2:
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback ...\nMemoryError")
        value = 1.0 + seed + (0.5 if change else 0.0)
        result = {"correct": True, "failed": 0,
                  "metrics": {m: {"value": value} for m in ("setup_s", "round_s")}}
        return subprocess.CompletedProcess(cmd, 0, f"digest d\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    rc = bench_pairs.main(["--parent", "REV", "--workload", "w", "--seeds", "1,2,3",
                           "--seconds", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "pair 2 seed 2 (change first): setup_s 3.0 -> exit 1" in out
    assert ("pair 2 (seed 2): the change run exited 1, pair left out of the medians: "
            "Traceback ...\nMemoryError") in out
    setup = next(line for line in out.splitlines() if line.startswith("setup_s "))
    assert setup.split()[1:3] == ["3", "[2.5,"] and "0/2" in setup


def test_compile_tree_leaves_bytecode_for_every_module(tmp_path):
    """Both sides of a pair import from bytecode, whichever tree ran before."""
    modules = ["src/pkg/__init__.py", "src/pkg/mod.py", "bench/run.py", "bench/tests/test_x.py"]
    for name in modules + ["scripts/other.py"]:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("X = 1\n")
    bench_pairs.compile_tree(tmp_path)
    for name in modules:
        assert Path(importlib.util.cache_from_source(str(tmp_path / name))).is_file(), name
    assert not (tmp_path / "scripts" / "__pycache__").exists()


_OUTPUT = """workload booking-default  seed 1  seconds 40  trace 0
  setup_s                                    0.0231 s
  round_s                                    0.544 s
  round_cpu_s                                0.51 s
  imaginator_train_samples_per_s             1377.72 samples/s
  imaginator_valid_bleu                      0.1257 bleu
  arbitrator_valid_accuracy                  - accuracy
  attempted 11  failed 0  checks {"rounds_identical": true}  digest abc
"""


class TestInformation:
    """CPU time and the quality guards are shown beside the claim rows, with no verdict."""

    def test_named_values_read_from_the_run_output(self):
        assert bench_pairs.named_values(_OUTPUT) == {"round_cpu_s": 0.51,
                                                     "imaginator_valid_bleu": 0.1257}

    def test_each_side_median_rendered_without_a_verdict(self):
        def run(cpu, bleu):
            return {**_run(1.0), "info": {"round_cpu_s": cpu, "imaginator_valid_bleu": bleu}}

        pairs = [(run(0.5, 0.12), run(0.3, 0.12)), (run(0.7, 0.12), run(0.2, 0.13)),
                 (run(0.6, 0.12), {**_run(1.0), "info": {}})]
        info = bench_pairs.info_rows(pairs)
        assert info == [{"name": "round_cpu_s", "parent": (0.6, 3), "change": (0.25, 2)},
                        {"name": "imaginator_valid_bleu", "parent": (0.12, 3),
                         "change": (0.125, 2)}]
        text = bench_pairs.render(bench_pairs.summarize(pairs, METRICS), [], info)
        tail = text.split("information")[1].splitlines()
        assert tail[1].split() == ["round_cpu_s", "0.6", "->", "0.25", "(3,", "2)"]
        assert tail[2].split() == ["imaginator_valid_bleu", "0.12", "->", "0.125", "(3,", "2)"]
        assert not any(w in line for line in tail for w in ("holds", "not met", "bound"))
