"""Command line behaviour: artifacts, determinism, error paths, the demo loop.

Everything runs in-process through cli.main so exit codes and streams can be
asserted directly. The shared fixtures train deliberately tiny models; these
tests check plumbing, not model quality.
"""

import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import arbitrator_oracle
from turntaking import arbitrator, cli
from turntaking.arbitrator import ArbitratorModel
from turntaking.corpus import (
    AGENT, EOS, USER, Utterance, Vocabulary, derive_arbitrator_samples,
    derive_imaginator_samples, encode_history, read_processed, split_corpus,
)
from turntaking.imaginator import ImaginatorModel, beam_decode, evaluate_imaginator
from turntaking.synthetic import make_multiwoz_like, write_multiwoz_like
from turntaking.training import TrainConfig, load_checkpoint, model_from_config, save_checkpoint

TINY_TRAIN = ["--epochs", "1", "--batch-size", "16", "--hidden", "8",
              "--token-dim", "8", "--tag-dim", "2",
              "--filter-widths", "2", "--filters-per-width", "4",
              "--beam-width", "2", "--max-decode-len", "4", "--seed", "3"]


def run(argv):
    return cli.main(argv)


def _valid_dialogues(prep_dir):
    """The valid part of the split that TINY_TRAIN trains on, which seed 3 fixes."""
    _, dialogues, _ = cli._load_data_dir(str(prep_dir))
    return split_corpus(dialogues, 3)[1]


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


PREP_FILES = ["processed.jsonl", "stats.txt", "vocab.tsv"]
TRAIN_FILES = ["metrics.jsonl", "model.ckpt", "model.ckpt.txt", "train_config.txt"]


class TestPreprocess:
    def test_writes_all_artifacts(self, prep_dir, capsys):
        assert sorted(p.name for p in prep_dir.iterdir()) == PREP_FILES

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

    @pytest.mark.parametrize("fmt,content,where", [
        ("generic-jsonl", '"utterances"\n', ":1: expected an object, got str"),
        ("generic-jsonl", '{"utterances": ["role: user, text: hi"]}\n',
         ":1.utterances[0]: need 'role' and 'text'"),
        ("generic-jsonl", '{"utterances": 5}\n', ":1.utterances: expected a list"),
        ("multiwoz-like", '[{"turns": 5}]', ":dialogue[0].turns: expected a list"),
        ("multiwoz-like", '[{"turns": [{"speaker": "user", "text": "hi"}], "slots": [1]}]',
         ":dialogue[0].slots: expected an object"),
        # read as control ids, `<pad>` would train as padding and `<eos>` as end of sequence
        ("generic-jsonl", '{"id": "d", "utterances": [{"role": "user", "text": "<pad>"}, '
                          '{"role": "agent", "text": "sure <eos> which day"}]}\n',
         ":1: dialogue 'd', message 0: reserved token '<pad>' in the text"),
    ])
    def test_record_of_wrong_shape_is_located_error(self, tmp_path, capsys, fmt, content,
                                                     where):
        path = tmp_path / "raw"
        path.write_text(content)
        assert run(["preprocess", "--input", str(path), "--format", fmt,
                    "--out", str(tmp_path / "o")]) == 1
        assert f"error: {path}{where}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--p-split", "2", "p_split must be a probability, got 2.0"),
        ("--min-freq", "0", "min_freq must be >= 1, got 0"),
    ])
    def test_bad_flag_value_leaves_no_output_directory(self, raw_path, tmp_path, capsys,
                                                       flag, value, message):
        assert run(["preprocess", "--input", str(raw_path), "--format", "multiwoz-like",
                    flag, value, "--out", str(tmp_path / "o")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_generic_jsonl_masks_slots_as_multiwoz_like_does(self, tmp_path):
        messages = [("user", "call 01223 323737 please"), ("agent", "calling")]
        slots = {"phone": "01223 323737"}
        raws = {"multiwoz-like": json.dumps([{"id": "d", "slots": slots, "turns": [
                    {"speaker": r, "text": t} for r, t in messages]}]),
                "generic-jsonl": json.dumps({"id": "d", "slots": slots, "utterances": [
                    {"role": r, "text": t} for r, t in messages]}) + "\n"}
        tokens = {}
        for fmt, text in raws.items():
            (tmp_path / fmt).write_text(text)
            assert run(["preprocess", "--input", str(tmp_path / fmt), "--format", fmt,
                        "--p-split", "0", "--out", str(tmp_path / f"{fmt}-out")]) == 0
            _, (d,) = read_processed(tmp_path / f"{fmt}-out" / "processed.jsonl")
            tokens[fmt] = [u.tokens for u in d.utterances]
        assert tokens["generic-jsonl"] == tokens["multiwoz-like"]
        assert tokens["multiwoz-like"][0] == ("call", "[phone]", "please")

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


    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert run(["stats", "--data", str(path)]) == 1
        assert f"error: {path}:1: empty file" in capsys.readouterr().err


REMOVED_KEYS = ["max_history", "turn_cap", "subturn_cap", "valid_frac", "test_frac",
                "gru_hidden", "clip_norm"]


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
        assert sorted(p.name for p in tmp_path.iterdir()) == TRAIN_FILES

    def test_flags_override_config_file(self, prep_dir, tmp_path, capsys):
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

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_encoding_and_split_flags_are_unrecognized(self, prep_dir, tmp_path, capsys, key):
        """The history encoding, the split and the clip threshold are constants, and one
        `hidden` sizes every model: none of them is a run setting of its own."""
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            run(["train", flag, "64", "--data", str(prep_dir),
                 "--out", str(tmp_path / "o")] + TINY_TRAIN)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 64" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_encoding_and_split_keys_are_unknown_in_config(self, prep_dir, tmp_path, capsys,
                                                           key):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"seed = 3\n{key} = 0.2\n")
        rc = run(["train", "--config", str(cfg_path), "--data", str(prep_dir),
                  "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: config line 2: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("widths", ["3,4,3", "2,2"])
    def test_repeated_filter_width_refused(self, prep_dir, tmp_path, capsys, source, widths):
        """Two convolutions of one width would share a parameter name."""
        argv = ["train", "--kind", "arbitrator", "--mode", "baseline",
                "--data", str(prep_dir), "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--filter-widths", widths]
        else:
            cfg_path = tmp_path / "cfg.txt"
            cfg_path.write_text(f'filter_widths = "{widths}"\n')
            argv += ["--config", str(cfg_path)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"error: bad filter_widths '{widths}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_refused_by_name(self, prep_dir, tmp_path, capsys):
        rc = run(["train", "--seed", "-1", "--data", str(prep_dir),
                  "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["epochs = ten", "learning_rate = fast"])
    def test_bad_number_in_config_names_its_line(self, prep_dir, tmp_path, capsys, line):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"# tiny run\nseed = 3\n{line}\n")
        rc = run(["train", "--config", str(cfg_path), "--data", str(prep_dir),
                  "--out", str(tmp_path / "o")])
        assert rc == 1
        key = line.split(" = ")[0]
        assert f"error: config line 3: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_string_dialogue_id_is_located_error(self, prep_dir, tmp_path, capsys):
        """Dialogues are split in id order, and an int id does not compare with a str."""
        data = tmp_path / "data"
        data.mkdir()
        lines = (prep_dir / "processed.jsonl").read_text().splitlines()
        first = json.loads(lines[1])
        first["id"] = 7
        lines[1] = json.dumps(first)
        (data / "processed.jsonl").write_text("\n".join(lines) + "\n")
        (data / "vocab.tsv").write_bytes((prep_dir / "vocab.tsv").read_bytes())
        rc = run(["train", "--data", str(data), "--out", str(tmp_path / "o")] + TINY_TRAIN)
        assert rc == 1
        assert (f"error: {data / 'processed.jsonl'}:2: invalid record (id must be a string, "
                f"not int)") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value, recorded", [("min_freq", 50, 1), ("p_split", 1.0, 0.4)])
    def test_preprocess_setting_that_disagrees_is_refused(self, prep_dir, tmp_path, capsys,
                                                          source, key, value, recorded):
        """p_split and min_freq are applied by preprocess: train refuses another value."""
        argv = ["train", "--data", str(prep_dir), "--out", str(tmp_path / "o")] + TINY_TRAIN
        if source == "flag":
            named = "--" + key.replace("_", "-")
            argv += [named, str(value)]
        else:
            named = f"{tmp_path / 'cfg.txt'}: {key}"
            (tmp_path / "cfg.txt").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "cfg.txt")]
        assert run(argv) == 1
        assert (f"error: {named} {value} does not match {prep_dir / 'processed.jsonl'} "
                f"({key} {recorded}, set by preprocess)") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_records_the_preprocess_settings(self, raw_path, tmp_path):
        """The run records the p_split and min_freq its data was preprocessed with, in
        train_config.txt and the checkpoint, given as equal flags or not given at all."""
        data = tmp_path / "prep"
        assert run(["preprocess", "--input", str(raw_path), "--format", "multiwoz-like",
                    "--p-split", "0.0", "--min-freq", "2", "--seed", "3",
                    "--out", str(data)]) == 0
        for extra in ([], ["--min-freq", "2", "--p-split", "0"]):
            out = tmp_path / f"o{len(extra)}"
            assert run(["train", "--data", str(data), "--out", str(out)] + TINY_TRAIN
                       + extra) == 0
            for text in ((out / "train_config.txt").read_text(),
                         load_checkpoint(out / "model.ckpt").train_config_text):
                cfg = TrainConfig.from_text(text)
                assert (cfg.p_split, cfg.min_freq) == (0.0, 2)

    def test_bad_enum_value_exits_one(self, prep_dir, tmp_path, capsys):
        rc = run(["train", "--kind", "oracle", "--data", str(prep_dir),
                  "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_imaginator_report(self, prep_dir, artifacts, tmp_path, capsys):
        report = tmp_path / "report.txt"
        rc = run(["evaluate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid",
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
                      "--data", str(prep_dir), "--split", "valid",
                      "--report", str(path)])
            assert rc == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_arbitrator_report_and_decisions(self, prep_dir, artifacts, tmp_path):
        report = tmp_path / "arb.txt"
        rc = run(["evaluate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--agent-imaginator", str(artifacts[AGENT]),
                  "--user-imaginator", str(artifacts[USER]),
                  "--data", str(prep_dir), "--split", "valid", "--report", str(report)])
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
        at once, so every user imagination is empty and must be flagged. All three
        checkpoints are float64 copies of the trained ones, to compare to 1e-12."""
        vocab = Vocabulary.load(artifacts["vocab"])
        models = {}
        for name in (AGENT, USER, "arbitrator"):
            ck = load_checkpoint(artifacts[name])
            models[name] = model_from_config({**ck.model.config(), "dtype": "float64"},
                                             ck.model.params.as_arrays())
            if name == USER:
                models[name].params["out.b_v"].data[EOS] = 1e4
            save_checkpoint(models[name], tmp_path / f"{name}.ckpt", vocab.hash(),
                            train_config=TrainConfig.from_text(ck.train_config_text))
        monkeypatch.setattr(arbitrator, "EVAL_SAMPLES", 4)  # several chunks and a short one
        argv = ["evaluate", "--checkpoint", str(tmp_path / "arbitrator.ckpt"),
                "--agent-imaginator", str(tmp_path / f"{AGENT}.ckpt"),
                "--user-imaginator", str(tmp_path / f"{USER}.ckpt"),
                "--data", str(prep_dir), "--split", "valid", "--report", str(tmp_path / "arb.txt")]
        assert run(argv) == 0
        records = [json.loads(l) for l in
                   (tmp_path / "arb.decisions.jsonl").read_text().splitlines()]

        samples = [s for d in _valid_dialogues(prep_dir) for s in derive_arbitrator_samples(d)]
        model = models["arbitrator"]
        imaginators = (models[AGENT], models[USER])
        assert len(records) == len(samples) > 4 and len(samples) % 4
        for rec, s in zip(records, samples):
            enc = encode_history(s.history, vocab)
            label, probs, flags = arbitrator_oracle.decision(model, enc, imaginators, 4)
            assert rec["label"] == label
            assert rec["flags"] == flags == ["empty_user_generation"]
            np.testing.assert_allclose([rec["p_wait"], rec["p_reply"]], probs, rtol=0, atol=1e-12)

    def test_ita_checkpoint_needs_imaginator_flags(self, prep_dir, artifacts,
                                                   tmp_path, capsys):
        rc = run(["evaluate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--data", str(prep_dir), "--report", str(tmp_path / "r.txt")])
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


class TestDataDirVocabulary:
    """A data directory whose vocab.tsv is not the one its corpus was processed with."""

    @pytest.fixture(scope="class")
    def foreign_vocab(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("foreign")
        write_multiwoz_like(make_multiwoz_like(10, seed=99), root / "raw.json")
        assert run(["preprocess", "--input", str(root / "raw.json"), "--format",
                    "multiwoz-like", "--seed", "1", "--out", str(root / "prep")]) == 0
        return root / "prep" / "vocab.tsv"

    def _argv(self, command, data, artifacts, tmp_path):
        return {
            "train": ["train", "--kind", "imaginator", "--role", "agent", "--data", data,
                      "--out", str(tmp_path / "out")] + TINY_TRAIN,
            "evaluate": ["evaluate", "--checkpoint", str(artifacts[AGENT]), "--data", data,
                         "--report", str(tmp_path / "r.txt")],
            "generate": ["generate", "--checkpoint", str(artifacts[AGENT]), "--data", data,
                         "--limit", "1"],
        }[command]

    @pytest.mark.parametrize("command", ["train", "evaluate", "generate"])
    def test_swapped_vocab_rejected(self, command, prep_dir, artifacts, foreign_vocab,
                                    tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "processed.jsonl").write_bytes((prep_dir / "processed.jsonl").read_bytes())
        (data / "vocab.tsv").write_bytes(foreign_vocab.read_bytes())
        assert run(self._argv(command, str(data), artifacts, tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"error: {data / 'vocab.tsv'}: vocabulary hash" in err
        assert f"recorded in {data / 'processed.jsonl'}" in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "generate"])
    def test_header_without_vocab_hash_rejected(self, command, prep_dir, artifacts,
                                                tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        first, rest = (prep_dir / "processed.jsonl").read_text().split("\n", 1)
        header = json.loads(first)
        del header["header"]["vocab_hash"]
        (data / "processed.jsonl").write_text(json.dumps(header) + "\n" + rest)
        (data / "vocab.tsv").write_bytes((prep_dir / "vocab.tsv").read_bytes())
        assert run(self._argv(command, str(data), artifacts, tmp_path)) == 1
        err = capsys.readouterr().err
        assert (f"error: {data / 'processed.jsonl'}: header records no vocab_hash "
                f"to check {data / 'vocab.tsv'} against") in err


class TestGenerate:
    def test_emits_one_record_per_sample(self, prep_dir, artifacts, tmp_path):
        out = tmp_path / "gen.jsonl"
        rc = run(["generate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid", "--limit", "5",
                  "--out", str(out)])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        assert set(records[0]) == {"sample_id", "role", "generated", "target"}
        assert records[0]["role"] == "agent"

    def test_stdout_when_no_out_flag(self, prep_dir, artifacts, capsys):
        rc = run(["generate", "--checkpoint", str(artifacts[AGENT]),
                  "--data", str(prep_dir), "--split", "valid", "--limit", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["sample_id"] == "valid-00000"

    def test_failed_replace_keeps_previous_output(self, prep_dir, artifacts, tmp_path,
                                                  monkeypatch, capsys):
        out = tmp_path / "gen.jsonl"
        argv = ["generate", "--checkpoint", str(artifacts[AGENT]), "--data", str(prep_dir),
                "--split", "valid", "--out", str(out)]
        assert run(argv + ["--limit", "2"]) == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.cp.os, "replace", fail)
        assert run(argv + ["--limit", "5"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.jsonl"]

    def test_negative_limit_refused(self, prep_dir, artifacts, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--checkpoint", str(artifacts[AGENT]), "--data", str(prep_dir),
                    "--limit", "-1", "--out", str(out)]) == 1
        assert "error: --limit must not be negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_arbitrator_checkpoint_rejected(self, prep_dir, artifacts, tmp_path, capsys):
        rc = run(["generate", "--checkpoint", str(artifacts["arbitrator"]),
                  "--data", str(prep_dir)])
        assert rc == 1
        assert "expected imaginator" in capsys.readouterr().err


REMOVED_FLAGS = [(c, f) for c in ("evaluate", "generate")
                 for f in ("--seed", "--valid-frac", "--test-frac", "--beam-width", "--max-len")]
REMOVED_FLAGS += [("demo", "--beam-width"), ("demo", "--max-len")]


class TestRunsAsTrained:
    """evaluate, generate and demo take the split, decode length and beam width
    from the checkpoint's training config; TINY_TRAIN records seed 3, width 2 and
    4 tokens, so each output here equals one made with those values spelt out."""

    def _argv(self, command, checkpoint, prep_dir, artifacts, tmp_path):
        return {
            "evaluate": ["evaluate", "--checkpoint", str(checkpoint), "--data", str(prep_dir),
                         "--split", "valid", "--report", str(tmp_path / "r.txt"),
                         "--agent-imaginator", str(artifacts[AGENT]),
                         "--user-imaginator", str(artifacts[USER])],
            "generate": ["generate", "--checkpoint", str(checkpoint), "--data", str(prep_dir),
                         "--split", "valid", "--out", str(tmp_path / "gen.jsonl")],
            "demo": ["demo", "--arbitrator", str(checkpoint),
                     "--agent-imaginator", str(artifacts[AGENT]),
                     "--user-imaginator", str(artifacts[USER]),
                     "--vocab", str(artifacts["vocab"]),
                     "--transcript", str(tmp_path / "t.jsonl")],
        }[command]

    def test_evaluate_imaginator(self, prep_dir, artifacts, tmp_path):
        assert run(self._argv("evaluate", artifacts[AGENT], prep_dir, artifacts, tmp_path)) == 0
        vocab = Vocabulary.load(artifacts["vocab"])
        samples = [s for d in _valid_dialogues(prep_dir) for r in (AGENT, USER)
                   for s in derive_imaginator_samples(d, r)]
        scores = evaluate_imaginator(load_checkpoint(artifacts[AGENT]).model, samples, vocab,
                                     beam_width=2, max_len=4)
        assert (tmp_path / "r.txt").read_text() == (
            f"kind = imaginator\nrole = agent\nsplit = valid\nsamples = {len(samples)}\n"
            f"bleu_on_agent_targets = {scores['bleu_on_agent_targets']:.6f}\n"
            f"bleu_on_user_targets = {scores['bleu_on_user_targets']:.6f}\n")

    def test_evaluate_arbitrator(self, prep_dir, artifacts, tmp_path):
        argv = self._argv("evaluate", artifacts["arbitrator"], prep_dir, artifacts, tmp_path)
        assert run(argv) == 0
        vocab = Vocabulary.load(artifacts["vocab"])
        model, *pair = [load_checkpoint(artifacts[k]).model for k in ("arbitrator", AGENT, USER)]
        samples = [s for d in _valid_dialogues(prep_dir) for s in derive_arbitrator_samples(d)]
        decisions = arbitrator.decide_prepared(
            model, arbitrator.prepare_samples(samples, vocab, pair, max_len=4), vocab)
        assert (tmp_path / "r.decisions.jsonl").read_text() == "".join(
            json.dumps(arbitrator.decision_record(f"valid-{i:05d}", d), sort_keys=True) + "\n"
            for i, d in enumerate(decisions))
        gold = [s.label for s in samples]
        lines = (tmp_path / "r.txt").read_text().splitlines()
        acc = arbitrator.accuracy([d.label for d in decisions], gold)
        rand = arbitrator.accuracy(arbitrator.random_policy_predictions(len(gold), seed=3), gold)
        assert f"accuracy = {acc:.6f}" in lines
        assert f"random_policy_accuracy = {rand:.6f}" in lines

    def test_generate(self, prep_dir, artifacts, tmp_path):
        assert run(self._argv("generate", artifacts[AGENT], prep_dir, artifacts, tmp_path)) == 0
        vocab = Vocabulary.load(artifacts["vocab"])
        model = load_checkpoint(artifacts[AGENT]).model
        samples = [s for d in _valid_dialogues(prep_dir)
                   for s in derive_imaginator_samples(d, AGENT)]
        encs = [encode_history(s.history, vocab) for s in samples]
        records = [json.loads(l) for l in (tmp_path / "gen.jsonl").read_text().splitlines()]
        assert [(r["generated"], r["target"]) for r in records] == [
            (" ".join(vocab.decode_id(t) for t in ids), " ".join(s.target.tokens))
            for s, ids in zip(samples, beam_decode(model, encs, beam_width=2, max_len=4))]

    def test_demo_imagines_greedily_to_the_trained_length(self, artifacts, tmp_path,
                                                          monkeypatch):
        real, calls = cli.ita_predict, []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "ita_predict", spy)
        monkeypatch.setattr("sys.stdin", io.StringIO("i need a hotel\n/quit\n"))
        assert run(self._argv("demo", artifacts["arbitrator"], None, artifacts, tmp_path)) == 0
        assert calls == [{"max_len": 4}]
        events = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
        decision = next(e for e in events if e["event"] == "decision")
        models = [load_checkpoint(artifacts[k]).model for k in ("arbitrator", AGENT, USER)]
        expected = arbitrator.ita_predict([Utterance(USER, 0, 0, ("i", "need", "a", "hotel"))],
                                          *models, Vocabulary.load(artifacts["vocab"]),
                                          beam_width=1, max_len=4)
        assert (decision["label"], decision["p_wait"], decision["p_reply"], decision["flags"]) \
            == (expected.label, expected.probs[0], expected.probs[1], list(expected.flags))

    @pytest.mark.parametrize("defect", ["missing", "unparsable"])
    @pytest.mark.parametrize("command", ["evaluate", "generate", "demo"])
    def test_checkpoint_without_usable_config_refused(self, command, defect, prep_dir,
                                                      artifacts, tmp_path, monkeypatch, capsys):
        vocab = Vocabulary.load(artifacts["vocab"])
        bad = tmp_path / "bad.ckpt"
        config = None if defect == "missing" else SimpleNamespace(to_text=lambda: "seed = three\n")
        source = artifacts["arbitrator" if command == "demo" else AGENT]
        save_checkpoint(load_checkpoint(source).model, bad, vocab.hash(), train_config=config)
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n/quit\n"))
        assert run(self._argv(command, bad, prep_dir, artifacts, tmp_path)) == 1
        reason = ("checkpoint records no training config" if defect == "missing"
                  else "config line 1: seed must be int, got 'three'")
        assert f"error: {bad}: {reason}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt", "bad.ckpt.txt"]

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_removed_flag_is_usage_error(self, command, flag, prep_dir, artifacts, tmp_path,
                                         capsys):
        argv = self._argv(command, artifacts[AGENT], prep_dir, artifacts, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "generate", "demo"])
    def test_help_lists_no_removed_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert [f for c, f in REMOVED_FLAGS if c == command and f in out] == []


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
        save_checkpoint(m, paths[role], vocab.hash(), train_config=TrainConfig(role=role))
    paths["arb"] = tmp_path / "demo_arb.ckpt"
    save_checkpoint(arb, paths["arb"], vocab.hash(),
                    train_config=TrainConfig(kind="arbitrator", max_decode_len=3))
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

    @pytest.mark.parametrize("typed, token", [("book <eos> table", "<eos>"),
                                              ("<pad>", "<pad>")])
    def test_reserved_token_message_refused(self, artifacts, tmp_path, monkeypatch, capsys,
                                            typed, token):
        """A typed reserved token would be read as a control id: the message joins no
        history, and the next one is decided at the same turn and subturn."""
        real, histories = cli.ita_predict, []

        def spy(history, *args, **kwargs):
            histories.append([u.tokens for u in history])
            return real(history, *args, **kwargs)

        monkeypatch.setattr(cli, "ita_predict", spy)
        rc, events, _ = self._run_demo(artifacts, tmp_path, monkeypatch,
                                       f"{typed}\nhello\n/quit\n", reply=False)
        assert rc == 0
        assert [e["event"] for e in events] == ["refused", "user", "decision"]
        assert events[0]["token"] == token and events[0]["text"] == typed
        assert (events[1]["turn"], events[1]["subturn"]) == (0, 0)
        assert histories == [[("hello",)]]
        assert f"warning: reserved token {token!r} in the message" in capsys.readouterr().err

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
        save_checkpoint(base, ck, vocab.hash(),
                        train_config=TrainConfig(kind="arbitrator", mode="baseline"))
        paths = _rigged_demo_models(vocab, tmp_path, reply=True)
        monkeypatch.setattr("sys.stdin", io.StringIO("/quit\n"))
        rc = run(["demo", "--arbitrator", str(ck),
                  "--agent-imaginator", str(paths[AGENT]),
                  "--user-imaginator", str(paths[USER]),
                  "--vocab", str(artifacts["vocab"])])
        assert rc == 1
        assert "ita-mode arbitrator" in capsys.readouterr().err
