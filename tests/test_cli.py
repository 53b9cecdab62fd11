"""Command line behaviour: artifacts, determinism, error paths, the demo loop.

Everything runs in-process through cli.main so exit codes and streams can be
asserted directly. The shared fixtures train deliberately tiny models; these
tests check plumbing, not model quality.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import arbitrator_oracle
from turntaking import arbitrator, cli
from turntaking.arbitrator import ArbitratorModel
from turntaking.corpus import (
    AGENT, EOS, USER, Vocabulary, derive_arbitrator_samples, encode_history,
)
from turntaking.imaginator import ImaginatorModel
from turntaking.synthetic import make_multiwoz_like, write_multiwoz_like
from turntaking.training import load_checkpoint, save_checkpoint

TINY_TRAIN = ["--epochs", "1", "--batch-size", "16", "--hidden", "8",
              "--token-dim", "8", "--tag-dim", "2", "--gru-hidden", "8",
              "--filter-widths", "2", "--filters-per-width", "4",
              "--beam-width", "2", "--max-decode-len", "4", "--seed", "3"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def raw_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("raw") / "raw_corpus.json"
    write_multiwoz_like(make_multiwoz_like(30, seed=5), p)
    return p


@pytest.fixture(scope="module")
def prep_dir(raw_path, tmp_path_factory):
    d = tmp_path_factory.mktemp("prep")
    rc = run(["preprocess", "--input", str(raw_path), "--format", "multiwoz-like",
              "--p-split", "0.4", "--seed", "3", "--out", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def artifacts(prep_dir, tmp_path_factory):
    """Tiny trained checkpoints for the evaluate/generate/demo tests."""
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for role in (AGENT, USER):
        out = root / f"im_{role}"
        rc = run(["train", "--kind", "imaginator", "--role", role,
                  "--data", str(prep_dir), "--out", str(out)] + TINY_TRAIN)
        assert rc == 0
        paths[role] = out / "model.ckpt"
    out = root / "arb_ita"
    rc = run(["train", "--kind", "arbitrator", "--mode", "ita",
              "--agent-imaginator", str(paths[AGENT]),
              "--user-imaginator", str(paths[USER]),
              "--data", str(prep_dir), "--out", str(out)] + TINY_TRAIN)
    assert rc == 0
    paths["arbitrator"] = out / "model.ckpt"
    paths["vocab"] = prep_dir / "vocab.tsv"
    return paths


PREP_FILES = ["processed.jsonl", "arbitrator_samples.jsonl",
              "imaginator_agent_samples.jsonl", "imaginator_user_samples.jsonl",
              "vocab.tsv", "stats.txt", "manifest.json"]


class TestPreprocess:
    def test_writes_all_artifacts(self, prep_dir, capsys):
        for name in PREP_FILES:
            assert (prep_dir / name).exists(), name

    def test_manifest_digests_match_files(self, prep_dir):
        manifest = json.loads((prep_dir / "manifest.json").read_text())
        assert sorted(manifest) == sorted(n for n in PREP_FILES if n != "manifest.json")
        for name, digest in manifest.items():
            assert cli._sha256_file(prep_dir / name) == digest

    def test_rerun_byte_identical(self, raw_path, prep_dir, tmp_path):
        rc = run(["preprocess", "--input", str(raw_path), "--format",
                  "multiwoz-like", "--p-split", "0.4", "--seed", "3",
                  "--out", str(tmp_path)])
        assert rc == 0
        for name in PREP_FILES:
            assert (tmp_path / name).read_bytes() == (prep_dir / name).read_bytes()

    def test_p_split_zero_reports_unsplit_turns(self, raw_path, tmp_path):
        rc = run(["preprocess", "--input", str(raw_path), "--format",
                  "multiwoz-like", "--p-split", "0", "--seed", "3",
                  "--out", str(tmp_path)])
        assert rc == 0
        assert "Avg. Split User Turns: 1.000000" in (tmp_path / "stats.txt").read_text()

    def test_stats_printed_to_stdout(self, raw_path, tmp_path, capsys):
        run(["preprocess", "--input", str(raw_path), "--format", "multiwoz-like",
             "--p-split", "0.4", "--seed", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Avg. Split User Turns:" in out
        assert out == (tmp_path / "stats.txt").read_text()

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        rc = run(["preprocess", "--input", str(tmp_path / "nope.json"),
                  "--format", "multiwoz-like", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_replace_keeps_previous_manifest(self, prep_dir, tmp_path, monkeypatch):
        for name in PREP_FILES[:2]:
            (tmp_path / name).write_bytes((prep_dir / name).read_bytes())
        cli._write_manifest(tmp_path, PREP_FILES[:1])
        before = (tmp_path / "manifest.json").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.cp.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cli._write_manifest(tmp_path, PREP_FILES[:2])
        assert (tmp_path / "manifest.json").read_bytes() == before
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == sorted(PREP_FILES[:2] + ["manifest.json"])

    def test_unknown_flag_rejected(self, raw_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["preprocess", "--input", str(raw_path), "--format",
                 "multiwoz-like", "--out", str(tmp_path), "--frobnicate", "1"])
        assert exc.value.code == 2


class TestStats:
    def test_matches_preprocess_report(self, prep_dir, capsys):
        rc = run(["stats", "--data", str(prep_dir / "processed.jsonl"),
                  "--vocab", str(prep_dir / "vocab.tsv")])
        assert rc == 0
        assert capsys.readouterr().out == (prep_dir / "stats.txt").read_text()

    def test_record_without_utterances_is_located_error(self, tmp_path, capsys):
        path = tmp_path / "processed.jsonl"
        path.write_text('{"header": {}}\n{"id": "d1"}\n')
        assert run(["stats", "--data", str(path)]) == 1
        assert f"error: {path}:2: missing key 'utterances'" in capsys.readouterr().err


class TestTrain:
    def test_ita_without_imaginators_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--kind", "arbitrator", "--mode", "ita",
                 "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--agent-imaginator" in err and "--user-imaginator" in err

    def test_usage_error_precedes_data_access(self, tmp_path):
        # the gate fires even though --data does not exist, so no compute ran
        with pytest.raises(SystemExit) as exc:
            run(["train", "--kind", "arbitrator", "--mode", "ita",
                 "--data", str(tmp_path / "never_created"),
                 "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_trains_imaginator_and_writes_artifacts(self, prep_dir, tmp_path, capsys):
        rc = run(["train", "--kind", "imaginator", "--role", "agent",
                  "--data", str(prep_dir), "--out", str(tmp_path)] + TINY_TRAIN)
        assert rc == 0
        captured = capsys.readouterr()
        assert "resolved configuration:" in captured.err
        assert "seed = 3" in captured.err
        assert "bleu = " in captured.out
        for name in ("model.ckpt", "model.ckpt.txt", "metrics.jsonl",
                     "train_config.txt", "manifest.json"):
            assert (tmp_path / name).exists(), name

    def test_flags_override_config_file(self, prep_dir, tmp_path, capsys):
        from turntaking.training import TrainConfig
        cfg = TrainConfig(kind="imaginator", role="user", epochs=3, hidden=8,
                          token_dim=8, tag_dim=2, batch_size=16, beam_width=2,
                          max_decode_len=4, seed=3)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(cfg.to_text())
        rc = run(["train", "--config", str(cfg_path), "--epochs", "1",
                  "--data", str(prep_dir), "--out", str(tmp_path / "o")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "epochs = 1" in captured.err
        assert "role = 'user'" in captured.err
        assert "epochs_run = 1" in captured.out

    def test_bad_enum_value_exits_one(self, prep_dir, tmp_path, capsys):
        rc = run(["train", "--kind", "oracle", "--data", str(prep_dir),
                  "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_imaginator_report(self, prep_dir, artifacts, tmp_path, capsys):
        report = tmp_path / "report.txt"
        rc = run(["evaluate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                  "--beam-width", "2", "--max-len", "4",
                  "--report", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "bleu_on_agent_targets = " in text
        assert "bleu_on_user_targets = " in text
        assert capsys.readouterr().out == text

    def test_evaluate_twice_identical(self, prep_dir, artifacts, tmp_path):
        reports = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            rc = run(["evaluate", "--checkpoint", str(artifacts[AGENT]),
                      "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                      "--beam-width", "2", "--max-len", "4",
                      "--report", str(path)])
            assert rc == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_arbitrator_report_and_decisions(self, prep_dir, artifacts, tmp_path):
        report = tmp_path / "arb.txt"
        rc = run(["evaluate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--agent-imaginator", str(artifacts[AGENT]),
                  "--user-imaginator", str(artifacts[USER]),
                  "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                  "--max-len", "4", "--report", str(report)])
        assert rc == 0
        text = report.read_text()
        for key in ("accuracy = ", "random_policy_accuracy = ",
                    "majority_class_prior = ", "confusion_pred1_gold1 = "):
            assert key in text, key
        n = int(next(l for l in text.splitlines() if l.startswith("samples = "))
                .split(" = ")[1])
        records = [json.loads(l) for l in
                   (tmp_path / "arb.decisions.jsonl").read_text().splitlines()]
        assert len(records) == n
        assert set(records[0]) == {"sample_id", "label", "p_wait", "p_reply",
                                   "imagined_agent", "imagined_user", "flags"}
        assert records[0]["sample_id"] == "valid-00000"

    def test_decisions_match_per_sample_oracle(self, prep_dir, artifacts, tmp_path,
                                               monkeypatch):
        """The decision file, decided in chunks, equals each sample decided alone: labels
        and flags exactly, probabilities to 1e-12. The user imaginator is pinned to end
        at once, so every user imagination is empty and must be flagged."""
        vocab = Vocabulary.load(artifacts["vocab"])
        user = load_checkpoint(artifacts[USER]).model
        user.params["out.b_v"].data[EOS] = 1e4
        save_checkpoint(user, tmp_path / "user.ckpt", vocab.hash())
        monkeypatch.setattr(arbitrator, "EVAL_SAMPLES", 4)  # several chunks and a short one
        argv = ["evaluate", "--checkpoint", str(artifacts["arbitrator"]),
                "--agent-imaginator", str(artifacts[AGENT]),
                "--user-imaginator", str(tmp_path / "user.ckpt"),
                "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                "--max-len", "4", "--report", str(tmp_path / "arb.txt")]
        assert run(argv) == 0
        records = [json.loads(l) for l in
                   (tmp_path / "arb.decisions.jsonl").read_text().splitlines()]

        args = cli.build_parser().parse_args(argv)
        _, dialogues, _ = cli._load_data_dir(args.data)
        samples = [s for d in cli._split_dialogues(dialogues, args)
                   for s in derive_arbitrator_samples(d)]
        model = load_checkpoint(artifacts["arbitrator"]).model
        imaginators = (load_checkpoint(artifacts[AGENT]).model, user)
        assert len(records) == len(samples) > 4 and len(samples) % 4
        for rec, s in zip(records, samples):
            enc = encode_history(s.history, vocab, model.max_history, model.turn_cap,
                                 model.subturn_cap)
            label, probs, flags = arbitrator_oracle.decision(model, enc, imaginators, 4)
            assert rec["label"] == label
            assert rec["flags"] == flags == ["empty_user_generation"]
            np.testing.assert_allclose([rec["p_wait"], rec["p_reply"]], probs, rtol=0, atol=1e-12)

    def test_ita_checkpoint_needs_imaginator_flags(self, prep_dir, artifacts,
                                                   tmp_path, capsys):
        rc = run(["evaluate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--data", str(prep_dir), "--seed", "3",
                  "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "--agent-imaginator" in capsys.readouterr().err

    def test_vocab_mismatch_is_integrity_error(self, artifacts, tmp_path, capsys):
        other_raw = tmp_path / "other.json"
        write_multiwoz_like(make_multiwoz_like(10, seed=99), other_raw)
        other = tmp_path / "other_prep"
        assert run(["preprocess", "--input", str(other_raw), "--format",
                    "multiwoz-like", "--seed", "1", "--out", str(other)]) == 0
        rc = run(["evaluate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(other), "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "vocabulary hash mismatch" in capsys.readouterr().err


class TestGenerate:
    def test_emits_one_record_per_sample(self, prep_dir, artifacts, tmp_path):
        out = tmp_path / "gen.jsonl"
        rc = run(["generate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                  "--beam-width", "2", "--max-len", "4", "--limit", "5",
                  "--out", str(out)])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        assert set(records[0]) == {"sample_id", "role", "generated", "target"}
        assert records[0]["role"] == "agent"

    def test_stdout_when_no_out_flag(self, prep_dir, artifacts, capsys):
        rc = run(["generate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid", "--seed", "3",
                  "--beam-width", "2", "--max-len", "4", "--limit", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["sample_id"] == "valid-00000"

    def test_failed_replace_keeps_previous_output(self, prep_dir, artifacts, tmp_path,
                                                  monkeypatch, capsys):
        out = tmp_path / "gen.jsonl"
        argv = ["generate", "--checkpoint", str(artifacts[AGENT]), "--data", str(prep_dir),
                "--split", "valid", "--seed", "3", "--beam-width", "2", "--max-len", "4",
                "--out", str(out)]
        assert run(argv + ["--limit", "2"]) == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.cp.os, "replace", fail)
        assert run(argv + ["--limit", "5"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.jsonl"]

    def test_arbitrator_checkpoint_rejected(self, prep_dir, artifacts, tmp_path, capsys):
        rc = run(["generate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--data", str(prep_dir), "--seed", "3"])
        assert rc == 1
        assert "expected imaginator" in capsys.readouterr().err


def _rigged_demo_models(vocab: Vocabulary, tmp_path, reply: bool):
    """Checkpoints where the arbitrator always replies (or always waits) and
    the agent imaginator always emits token id 7."""
    arb = ArbitratorModel(len(vocab), encoder="textcnn", mode="ita", token_dim=8,
                          tag_dim=2, filter_widths=(2,), filters_per_width=4,
                          seed=0)
    arrays = arb.params.as_arrays()
    arrays["fuse.W_4"][:] = 0.0
    arrays["fuse.b_4"][:] = [0.0, 50.0] if reply else [50.0, 0.0]
    arb.params.load_arrays(arrays)
    paths = {}
    for role in (AGENT, USER):
        m = ImaginatorModel(len(vocab), role, hidden=8, token_dim=8, tag_dim=2,
                            seed=1)
        arr = m.params.as_arrays()
        arr["out.b_v"][:] = 0.0
        arr["out.b_v"][7] = 50.0
        m.params.load_arrays(arr)
        paths[role] = tmp_path / f"demo_{role}.ckpt"
        save_checkpoint(m, paths[role], vocab.hash())
    paths["arb"] = tmp_path / "demo_arb.ckpt"
    save_checkpoint(arb, paths["arb"], vocab.hash())
    return paths


class TestDemo:
    def _run_demo(self, artifacts, tmp_path, monkeypatch, typed, reply=True):
        vocab = Vocabulary.load(artifacts["vocab"])
        paths = _rigged_demo_models(vocab, tmp_path, reply=reply)
        transcript = tmp_path / "transcript.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO(typed))
        rc = run(["demo", "--arbitrator", str(paths["arb"]),
                  "--agent-imaginator", str(paths[AGENT]),
                  "--user-imaginator", str(paths[USER]),
                  "--vocab", str(artifacts["vocab"]),
                  "--beam-width", "2", "--max-len", "3",
                  "--transcript", str(transcript)])
        events = [json.loads(l) for l in transcript.read_text().splitlines()]
        return rc, events, transcript

    def test_reply_prints_decision_and_response(self, artifacts, tmp_path,
                                                monkeypatch, capsys):
        rc, events, _ = self._run_demo(artifacts, tmp_path, monkeypatch,
                                       "hello there\n/quit\n")
        assert rc == 0
        out = capsys.readouterr().out
        assert "REPLY (p_wait=" in out
        assert "agent> " in out
        assert [e["event"] for e in events] == ["user", "decision", "agent"]
        assert events[1]["label"] == 1

    def test_wait_advances_subturn(self, artifacts, tmp_path, monkeypatch, capsys):
        rc, events, _ = self._run_demo(artifacts, tmp_path, monkeypatch,
                                       "i need a hotel\nsomething cheap\n/quit\n",
                                       reply=False)
        assert rc == 0
        assert capsys.readouterr().out.count("WAIT (p_wait=") == 2
        users = [e for e in events if e["event"] == "user"]
        assert [u["subturn"] for u in users] == [0, 1]
        assert all(e["event"] != "agent" for e in events)

    def test_quit_flushes_transcript(self, artifacts, tmp_path, monkeypatch):
        rc, events, transcript = self._run_demo(artifacts, tmp_path, monkeypatch,
                                                "hello\n/quit\nignored\n")
        assert rc == 0
        assert transcript.exists() and len(events) == 3

    def test_blank_lines_ignored(self, artifacts, tmp_path, monkeypatch):
        rc, events, _ = self._run_demo(artifacts, tmp_path, monkeypatch,
                                       "\n\nhello\n/quit\n")
        assert rc == 0
        assert len([e for e in events if e["event"] == "user"]) == 1

    def test_value_error_is_recorded_and_session_goes_on(self, artifacts, tmp_path,
                                                         monkeypatch):
        real, calls = cli.ita_predict, []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("no decision for this history")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "ita_predict", flaky)
        rc, events, _ = self._run_demo(artifacts, tmp_path, monkeypatch,
                                       "hello\nthere\n/quit\n", reply=False)
        assert rc == 0
        assert [e["event"] for e in events] == ["user", "fallback", "user", "decision"]
        assert events[1]["error"] == "no decision for this history"
        assert [e["subturn"] for e in events if e["event"] == "user"] == [0, 1]

    def test_other_errors_propagate(self, artifacts, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(cli, "ita_predict", broken)
        with pytest.raises(RuntimeError, match="decoder bug"):
            self._run_demo(artifacts, tmp_path, monkeypatch, "hello\n/quit\n")
        events = (tmp_path / "transcript.jsonl").read_text().splitlines()
        assert [json.loads(e)["event"] for e in events] == ["user"]

    def test_baseline_arbitrator_rejected(self, artifacts, tmp_path, monkeypatch,
                                          capsys):
        vocab = Vocabulary.load(artifacts["vocab"])
        base = ArbitratorModel(len(vocab), mode="baseline", token_dim=8, tag_dim=2,
                               filter_widths=(2,), filters_per_width=4, seed=0)
        ck = tmp_path / "base.ckpt"
        save_checkpoint(base, ck, vocab.hash())
        paths = _rigged_demo_models(vocab, tmp_path, reply=True)
        monkeypatch.setattr("sys.stdin", io.StringIO("/quit\n"))
        rc = run(["demo", "--arbitrator", str(ck),
                  "--agent-imaginator", str(paths[AGENT]),
                  "--user-imaginator", str(paths[USER]),
                  "--vocab", str(artifacts["vocab"])])
        assert rc == 1
        assert "ita-mode arbitrator" in capsys.readouterr().err
