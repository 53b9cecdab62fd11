"""The two experiment runners at tiny sizes: one report shape, and artifacts that
reproduce the reported test accuracies when read back from disk."""

import json

import pytest

from turntaking.arbitrator import evaluate_prepared, prepare_samples
from turntaking.corpus import (
    Vocabulary, derive_arbitrator_samples, ingest_source, modify_corpus, split_corpus,
)
from turntaking.experiments import directional_experiment, synthetic_experiment
from turntaking.synthetic import make_synthetic_corpus
from turntaking.training import TrainConfig, load_checkpoint

SEED = 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (output directory, returned report, test split)."""
    syn = tmp_path_factory.mktemp("synthetic")
    syn_report = synthetic_experiment(syn, n_dialogues=300, seed=SEED, imaginator_epochs=3,
                                      arbitrator_epochs=2)
    syn_test = split_corpus(make_synthetic_corpus(300, SEED), SEED)[2]
    book = tmp_path_factory.mktemp("booking")
    book_report = directional_experiment(book, n_dialogues=60, seed=SEED, epochs=2)
    dialogues, annotations, _ = ingest_source(book / "raw_corpus.json", "multiwoz-like")
    modified = modify_corpus(dialogues, annotations, TrainConfig().p_split, SEED)
    book_test = split_corpus(modified, SEED)[2]
    return {"synthetic": (syn, syn_report, syn_test), "booking": (book, book_report, book_test)}


def test_both_runs_report_the_same_keys(runs):
    synthetic, booking = runs["synthetic"][1], runs["booking"][1]
    assert set(booking) - set(synthetic) == {"skipped"}
    assert set(synthetic) <= set(booking)


@pytest.mark.parametrize("name", ["synthetic", "booking"])
def test_report_file_is_the_returned_report(runs, name):
    out_dir, report, _ = runs[name]
    assert json.loads((out_dir / "report.json").read_text()) == report


@pytest.mark.parametrize("name", ["synthetic", "booking"])
def test_every_artifact_is_written(runs, name):
    out_dir = runs[name][0]
    for stem in ("imaginator_agent", "imaginator_user", "arbitrator_ita", "arbitrator_baseline"):
        assert (out_dir / f"{stem}.ckpt").is_file()
        assert (out_dir / f"{stem}_metrics.jsonl").is_file()
    assert (out_dir / "vocab.tsv").is_file()


@pytest.mark.parametrize("name", ["synthetic", "booking"])
def test_test_accuracy_reproduces_from_the_checkpoints(runs, name):
    out_dir, report, test_d = runs[name]
    vocab = Vocabulary.load(out_dir / "vocab.tsv")
    load = lambda stem: load_checkpoint(out_dir / f"{stem}.ckpt", vocab.hash())
    pair = (load("imaginator_agent").model, load("imaginator_user").model)
    samples = [s for d in test_d for s in derive_arbitrator_samples(d)]
    assert report["arbitrator_samples"][2] == len(samples)
    for mode in ("ita", "baseline"):
        ckpt = load(f"arbitrator_{mode}")
        max_len = TrainConfig.from_text(ckpt.train_config_text).max_decode_len
        prepared = prepare_samples(samples, vocab, pair if mode == "ita" else None,
                                   max_len=max_len)
        assert evaluate_prepared(ckpt.model, prepared) == report[f"{mode}_test_accuracy"]


def test_rerun_into_the_same_directory_replaces_each_log(tmp_path):
    """A second run writes each metrics log afresh, as it does the checkpoints and
    the report: the rows equal the first run's, `seconds` aside."""
    logs = []
    for _ in range(2):
        synthetic_experiment(tmp_path, n_dialogues=60, seed=SEED, imaginator_epochs=2,
                             arbitrator_epochs=1)
        logs.append({p.name: [{k: v for k, v in json.loads(line).items() if k != "seconds"}
                              for line in p.read_text().splitlines()]
                     for p in sorted(tmp_path.glob("*_metrics.jsonl"))})
    assert len(logs[0]) == 4
    assert logs[1] == logs[0]
