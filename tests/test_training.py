"""Config, checkpoint and epoch-loop tests.

Checkpoint integrity is exercised byte-by-byte: truncation, bit flips, wrong
magic, wrong version and vocabulary mismatch must all fail loudly before any
model state is produced.
"""

import hashlib
import json
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from turntaking import arbitrator
from turntaking import autodiff as ad
from turntaking import corpus
from turntaking.arbitrator import ArbitratorModel, evaluate_prepared, prepare_samples
from turntaking.corpus import (
    AGENT, USER, ArbitratorSample, Dialogue, ImaginatorSample, Utterance,
    build_vocabulary, encode_history,
)
from turntaking.imaginator import ImaginatorModel, greedy_decode
from turntaking.training import (
    CHECKPOINT_VERSION, Checkpoint, CheckpointError, TrainConfig, TrainResult,
    build_model, load_checkpoint, model_from_config, run_training, save_checkpoint,
    write_jsonl,
)

FILLERS = ["red", "blue", "green", "ok", "done", "book", "a", "table"]


@pytest.fixture(scope="module")
def vocab():
    utts = (Utterance(USER, 0, 0, ("book", "a", "table", "stop")),
            Utterance(AGENT, 0, 0, ("ok", "done", "red", "blue", "green")))
    return build_vocabulary([Dialogue(id="d", utterances=utts)])


def tiny_imaginator(vocab, seed=4):
    return ImaginatorModel(vocab_size=len(vocab), role=AGENT, hidden=8,
                           token_dim=5, tag_dim=2, seed=seed)


def marker_samples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        toks = [FILLERS[j] for j in rng.integers(0, len(FILLERS), size=4)]
        label = int(rng.random() < 0.5)
        if label:
            toks[int(rng.integers(0, 4))] = "stop"
        out.append(ArbitratorSample(history=(Utterance(USER, 0, 0, tuple(toks)),),
                                    label=label))
    return out


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def toy_arb_config(**overrides):
    base = dict(seed=3, epochs=12, batch_size=8, learning_rate=5e-3,
                kind="arbitrator", mode="baseline", token_dim=8, tag_dim=2,
                filter_widths="2,3", filters_per_width=8, patience=12)
    base.update(overrides)
    return TrainConfig(**base)


def toy_arb_model(vocab, seed=1):
    return ArbitratorModel(vocab_size=len(vocab), encoder="textcnn", mode="baseline",
                           token_dim=8, tag_dim=2, filter_widths=(2, 3),
                           filters_per_width=8, seed=seed)


class TestTrainConfig:
    def test_text_round_trip_is_byte_identical(self):
        c = TrainConfig(seed=7, learning_rate=0.005, filter_widths="2,3")
        text = c.to_text()
        assert TrainConfig.from_text(text).to_text() == text

    def test_stable_key_order(self):
        lines = TrainConfig().to_text().splitlines()
        assert lines[0] == "seed = 0"
        assert lines[1] == "epochs = 10"
        assert lines[-1] == "min_freq = 1"

    def test_positive_fields_validated(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="p_split"):
            TrainConfig(p_split=1.5)

    @pytest.mark.parametrize("name", ["learning_rate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_floats_rejected(self, name, value):
        """nan passed `value <= 0`."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            TrainConfig.from_text(f"{name} = {value}\n")

    def test_key_set_twice_rejected(self):
        with pytest.raises(ValueError, match="^config line 2: epochs already set at line 1$"):
            TrainConfig.from_text("epochs = 1\nepochs = 5\n")

    def test_enumerated_fields_validated(self):
        with pytest.raises(ValueError, match="kind"):
            TrainConfig(kind="oracle")
        with pytest.raises(ValueError, match="encoder"):
            TrainConfig(encoder="rnn")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            TrainConfig.from_text("bogus_key = 3\n")

    def test_comments_and_blanks_ignored(self):
        c = TrainConfig.from_text("# comment\n\nseed = 9\n")
        assert c.seed == 9

    def test_filter_width_parsing(self):
        assert TrainConfig(filter_widths="3,4,5").parsed_filter_widths() == (3, 4, 5)
        with pytest.raises(ValueError, match="filter_widths"):
            TrainConfig(filter_widths="3,x")


class TestBuildModel:
    def test_imaginator_matches_config(self):
        cfg = TrainConfig(kind="imaginator", role=USER, hidden=7, token_dim=5, tag_dim=2, seed=9)
        m = build_model(cfg, 30)
        assert m.config() == ImaginatorModel(30, USER, hidden=7, token_dim=5, tag_dim=2,
                                             seed=9).config()

    def test_arbitrator_matches_config(self):
        cfg = toy_arb_config(encoder="bigru", mode="ita", hidden=6, seed=4)
        m = build_model(cfg, 30)
        assert m.config() == ArbitratorModel(30, encoder="bigru", mode="ita", token_dim=8,
                                             tag_dim=2, filter_widths=(2, 3),
                                             filters_per_width=8, hidden=6,
                                             seed=4).config()


class TestCheckpoint:
    HASH = "f" * 64

    def test_round_trip_bit_exact(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH, metadata={"epoch": 3, "best_metric": 0.5})
        ck = load_checkpoint(path, expected_vocab_hash=self.HASH)
        want = m.params.as_arrays()
        got = ck.model.params.as_arrays()
        assert sorted(want) == sorted(got)
        for name in want:
            assert np.array_equal(want[name], got[name])
        assert ck.metadata == {"epoch": 3, "best_metric": 0.5}
        assert ck.model.role == AGENT

    def test_save_load_save_byte_identical(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1, self.HASH, metadata={"epoch": 1})
        ck = load_checkpoint(p1)
        save_checkpoint(ck.model, p2, ck.vocab_hash, metadata=ck.metadata)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_the_joined_frame_byte_for_byte(self, vocab, tmp_path):
        """The streamed write equals the frame built as one joined blob: magic, version,
        the digest and length of the payload, then the payload (header length, header,
        every parameter's little-endian bytes at the model's dtype, in name order)."""
        m = ArbitratorModel(vocab_size=len(vocab), encoder="textcnn", mode="ita",
                            token_dim=5, tag_dim=1, filters_per_width=3, seed=2)
        path = tmp_path / "arb.ckpt"
        save_checkpoint(m, path, self.HASH, metadata={"epoch": 2},
                        train_config=TrainConfig(kind="arbitrator"))
        params = sorted(m.params.items())
        header = json.dumps({
            "arrays": [[name, list(p.data.shape)] for name, p in params],
            "metadata": {"epoch": 2}, "model": m.config(),
            "train_config": TrainConfig(kind="arbitrator").to_text(),
            "vocab_hash": self.HASH}, sort_keys=True, separators=(",", ":")).encode()
        payload = b"".join([struct.pack("<I", len(header)), header,
                            *(p.data.astype(m.dtype.newbyteorder("<")).tobytes()
                              for _, p in params)])
        want = (b"TTCP" + struct.pack("<I", CHECKPOINT_VERSION)
                + hashlib.sha256(payload).digest() + struct.pack("<Q", len(payload)) + payload)
        assert path.read_bytes() == want

    @staticmethod
    def _first_offset(path):
        """The file offset of a checkpoint's first array."""
        return 52 + struct.unpack("<I", path.read_bytes()[48:52])[0]

    def test_unaligned_arrays_load_bit_identical(self, vocab, tmp_path, monkeypatch):
        """With the first array at each of the 8 file offsets mod 8, a file loads to the
        same parameters, writable, 64-byte aligned and sharing no memory with the
        file's bytes, and saves again byte for byte."""
        m = ArbitratorModel(vocab_size=len(vocab), encoder="textcnn", mode="ita",
                            token_dim=5, tag_dim=1, filters_per_width=3, seed=2)
        read, blobs = Path.read_bytes, []

        def read_and_keep(self):
            blobs.append(read(self))
            return blobs[-1]

        monkeypatch.setattr(Path, "read_bytes", read_and_keep)
        residues = set()
        for pad in range(8):
            path = tmp_path / f"a{pad}.ckpt"
            save_checkpoint(m, path, self.HASH, {"note": "x" * pad})
            residues.add(self._first_offset(path) % 8)
            loaded = load_checkpoint(path).model
            file_bytes = np.frombuffer(blobs[-1], np.uint8)
            for name, p in m.params.items():
                got = loaded.params[name].data
                assert np.array_equal(got, p.data), name
                assert got.flags.writeable and got.ctypes.data % 64 == 0, name
                assert not np.shares_memory(got, file_bytes), name
            save_checkpoint(loaded, tmp_path / "again.ckpt", self.HASH, {"note": "x" * pad})
            assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        assert residues == set(range(8))

    def test_model_parameters_drawn_loaded_and_restored_are_aligned(self, vocab, tmp_path):
        """Every parameter of a fresh model and of the model a checkpoint loads to starts
        on a 64-byte boundary, and still does after `load_arrays`, which writes into
        the storage the parameters already have."""
        path = tmp_path / "a.ckpt"
        for fresh in (tiny_imaginator(vocab),
                      ArbitratorModel(vocab_size=len(vocab), encoder="bigru", mode="ita",
                                      token_dim=5, tag_dim=1, hidden=3, seed=2)):
            save_checkpoint(fresh, path, self.HASH)
            loaded = load_checkpoint(path).model
            storage = [p.data for _, p in loaded.params.items()]
            fresh.params.load_arrays(loaded.params.as_arrays())
            loaded.params.load_arrays(fresh.params.as_arrays())
            assert all(p.data is a for (_, p), a in zip(loaded.params.items(), storage))
            for model in (fresh, loaded):
                for name, p in model.params.items():
                    assert p.data.ctypes.data % 64 == 0, name

    @pytest.mark.parametrize("shift", [0, 3], ids=["aligned", "misaligned"])
    def test_model_keeps_nothing_of_the_given_arrays(self, vocab, shift):
        """A model built on arrays holds copies of them: the buffer they view, as a
        loaded file's arrays view its bytes, is freed once the caller lets go of it."""
        m = tiny_imaginator(vocab)
        buf = np.zeros(shift + sum(8 * p.data.size for _, p in m.params.items()), np.uint8)
        arrays, offset = {}, shift
        for name, p in m.params.items():
            arrays[name] = np.frombuffer(buf, "<f8", p.data.size, offset).reshape(p.shape)
            arrays[name][...] = p.data
            offset += 8 * p.data.size
        freed = weakref.ref(buf)
        built = model_from_config(m.config(), arrays)
        del buf, arrays
        assert freed() is None
        for name, p in m.params.items():
            assert np.array_equal(built.params[name].data, p.data), name

    def test_loading_draws_no_initialization(self, vocab, tmp_path, monkeypatch):
        """Loading builds the model on the file's arrays: no parameter is drawn."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)

        class NoDraws:
            def random(self, *args, **kwargs):
                raise AssertionError("a parameter was drawn while loading a checkpoint")

            uniform = random

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        load_checkpoint(path)
        with pytest.raises(AssertionError, match="drawn"):
            tiny_imaginator(vocab)  # the guard holds for a fresh model

    def test_sidecar_written(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        sidecar = (tmp_path / "a.ckpt.txt").read_text()
        assert f"vocab_hash = {self.HASH}" in sidecar
        assert "model.kind = imaginator" in sidecar
        assert "array emb.token" in sidecar

    def test_arbitrator_checkpoint_restores_mode(self, vocab, tmp_path):
        m = ArbitratorModel(vocab_size=len(vocab), encoder="bigru", mode="ita",
                            token_dim=5, tag_dim=1, hidden=6, seed=2)
        path = tmp_path / "arb.ckpt"
        save_checkpoint(m, path, self.HASH)
        ck = load_checkpoint(path)
        assert ck.model.encoder == "bigru"
        assert ck.model.mode == "ita"
        assert np.array_equal(ck.model.params["gru_f.W"].data, m.params["gru_f.W"].data)

    @pytest.mark.parametrize("fault", ["half_write", "replace"])
    def test_failed_write_keeps_previous_checkpoint(self, vocab, tmp_path, monkeypatch, fault):
        path = tmp_path / "a.ckpt"
        old = tiny_imaginator(vocab, seed=4)
        save_checkpoint(old, path, self.HASH)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        def fail(*args):
            raise OSError("disk full")

        if fault == "half_write":
            monkeypatch.setattr(corpus, "open", lambda p, mode: HalfWriter(open(p, mode)),
                                raising=False)
        else:
            monkeypatch.setattr(corpus.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_imaginator(vocab, seed=5), path, self.HASH)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        got = load_checkpoint(path, expected_vocab_hash=self.HASH).model.params.as_arrays()
        for name, arr in old.params.as_arrays().items():
            assert np.array_equal(arr, got[name])

    def test_truncated_file_rejected(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

    def test_bytes_after_the_frame_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(CheckpointError, match="^frame: 3 bytes after the payload$"):
            load_checkpoint(path)

    def test_single_bit_corruption_rejected(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 9] ^= 0x01  # deep inside the parameter section
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(bad)

    def test_bad_magic_rejected(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        blob = bytearray(path.read_bytes())
        blob[0] = 0x58
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_unsupported_version_rejected(self, vocab, tmp_path):
        """A later version is refused, and so is a version-4 file, whose model config
        names the history encoding and whose training config the split fractions, and a
        version-5 file, whose training config names `clip_norm` and `gru_hidden`."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH, train_config=TrainConfig())

        def as_version_four(header):
            header["model"].update(max_history=256, turn_cap=16, subturn_cap=8)
            header["train_config"] += "valid_frac = 0.1\ntest_frac = 0.1\n"

        def as_version_five(header):
            header["train_config"] += "clip_norm = 5.0\ngru_hidden = 128\n"

        for version, edit in ((CHECKPOINT_VERSION + 9, lambda header: None),
                              (4, as_version_four), (5, as_version_five)):
            blob = bytearray(self._reframe(path, edit).read_bytes())
            blob[4:8] = struct.pack("<I", version)
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError,
                               match=f"^frame: unsupported format version {version}$"):
                load_checkpoint(bad)

    def test_vocab_hash_mismatch_rejected(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path, expected_vocab_hash="0" * 64)

    def _reframe(self, path, edit, tail=b""):
        """A copy of the checkpoint with its JSON header passed through edit(header)
        and tail appended to its arrays, framed again with a valid digest."""
        blob = path.read_bytes()
        payload = blob[48:]
        n = struct.unpack("<I", payload[:4])[0]
        header = json.loads(payload[4:4 + n])
        replaced = edit(header)  # edits in place, or returns a whole new header
        header = header if replaced is None else replaced
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        payload = struct.pack("<I", len(head)) + head + payload[4 + n:] + tail
        out = path.with_name("reframed.ckpt")
        out.write_bytes(blob[:8] + hashlib.sha256(payload).digest()
                        + struct.pack("<Q", len(payload)) + payload)
        return out

    def test_version_one_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_keeps_the_dtype_bit_exact(self, vocab, tmp_path, dtype):
        """A model loads at the dtype it was saved at, bit for bit: the header and the
        sidecar name the dtype, and the arrays are stored at it, 4 or 8 bytes a value."""
        m = ImaginatorModel(vocab_size=len(vocab), role=AGENT, hidden=8, token_dim=5,
                            tag_dim=2, seed=4, dtype=dtype)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        blob = path.read_bytes()
        n = struct.unpack("<I", blob[48:52])[0]
        assert json.loads(blob[52:52 + n])["model"]["dtype"] == dtype
        itemsize = {"float32": 4, "float64": 8}[dtype]
        assert len(blob) - 52 - n == itemsize * sum(p.data.size for _, p in m.params.items())
        assert f"model.dtype = {dtype}\n" in (tmp_path / "a.ckpt.txt").read_text()
        loaded = load_checkpoint(path).model
        assert loaded.dtype == dtype
        for name, p in m.params.items():
            got = loaded.params[name].data
            assert got.dtype == dtype and np.array_equal(got, p.data), name

    def test_version_two_rejected(self, vocab, tmp_path):
        """A version-2 file predates the dtype key and was trained at float64: it is
        refused, not loaded narrowed to float32."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        blob = bytearray(self._reframe(path, lambda h: h["model"].pop("dtype") and None)
                         .read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="^frame: unsupported format version 2$"):
            load_checkpoint(path)

    def test_version_three_rejected(self, vocab, tmp_path):
        """A version-3 file, which stored every array as float64 whatever the model's
        dtype, is refused rather than read at the width its header's dtype names."""
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        params = sorted(m.params.items())
        blob = path.read_bytes()
        header_len = struct.unpack("<I", blob[48:52])[0]
        payload = b"".join([blob[48:52 + header_len],
                            *(p.data.astype("<f8").tobytes() for _, p in params)])
        path.write_bytes(b"TTCP" + struct.pack("<I", 3) + hashlib.sha256(payload).digest()
                         + struct.pack("<Q", len(payload)) + payload)
        with pytest.raises(CheckpointError, match="^frame: unsupported format version 3$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("saved, named", [("float32", "float64"), ("float64", "float32")])
    def test_dtype_that_does_not_fit_the_arrays_rejected(self, vocab, tmp_path, saved, named):
        """A header whose dtype is not the one its arrays were written at describes
        arrays of another byte count, and fails the byte-count check."""
        m = ImaginatorModel(vocab_size=len(vocab), role=AGENT, hidden=8, token_dim=5,
                            tag_dim=2, seed=4, dtype=saved)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        n = sum(p.data.size for _, p in m.params.items())
        width = {"float32": 4, "float64": 8}
        bad = self._reframe(path, lambda h: h["model"].update(dtype=named))
        with pytest.raises(CheckpointError, match=f"^payload: the array index describes "
                                                  f"{width[named] * n} bytes of arrays, "
                                                  f"the payload holds {width[saved] * n}$"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["model"].pop("dtype") and None,
         r"^header: model config dtype must be one of \('float32', 'float64'\), got None$"),
        (lambda h: h["model"].update(dtype="float16"),
         r"^header: model config dtype must be one of \('float32', 'float64'\), got 'float16'$"),
    ], ids=["missing", "float16"])
    def test_model_config_dtype_checked(self, vocab, tmp_path, edit, match):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(self._reframe(path, edit))

    def test_per_gate_parameter_names_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)

        def rename(header):
            for entry in header["arrays"]:
                if entry[0] == "enc.W":
                    entry[0] = "enc.W_f"

        with pytest.raises(CheckpointError, match="parameters: parameter name mismatch"):
            load_checkpoint(self._reframe(path, rename))

    @pytest.mark.parametrize("edit, tail, match", [
        (lambda h: h["arrays"].append(["zz", [1]]), bytes(4),
         r"parameters: parameter name mismatch: arrays \['zz'\] name no parameter"),
        (lambda h: next(e for e in h["arrays"] if e[0] == "enc.b").__setitem__(1, [2, 16]), b"",
         r"parameters: parameter 'enc.b' shape \(2, 16\) != \(32,\)"),
    ], ids=["extra-array", "wrong-shape"])
    def test_arrays_that_do_not_fit_the_model_rejected(self, vocab, tmp_path, edit, tail, match):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(self._reframe(path, edit, tail))

    @pytest.mark.parametrize("key", ["arrays", "model", "vocab_hash", "metadata"])
    def test_header_without_key_rejected(self, vocab, tmp_path, key):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        bad = self._reframe(path, lambda header: {k: v for k, v in header.items() if k != key})
        with pytest.raises(CheckpointError, match=f"header: missing key '{key}'"):
            load_checkpoint(bad)

    def test_header_not_an_object_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        bad = self._reframe(path, lambda header: [header])
        with pytest.raises(CheckpointError, match="header: missing key 'arrays'"):
            load_checkpoint(bad)

    def test_unknown_model_config_key_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        bad = self._reframe(path, lambda header: header["model"].update(gates=4))
        with pytest.raises(CheckpointError, match="header: model config rejected"):
            load_checkpoint(bad)

    def test_attention_key_rejected(self, vocab, tmp_path):
        """A checkpoint loads only in the layout this version writes: a model config
        naming `use_attention`, even as true, is refused."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        bad = self._reframe(path, lambda h: h["model"].update(use_attention=True))
        with pytest.raises(CheckpointError, match="header: model config rejected .*"
                                                  "unexpected keyword argument 'use_attention'"):
            load_checkpoint(bad)

    def test_imaginator_without_attention_rejected(self, vocab, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        bad = self._reframe(path, lambda h: h["model"].update(use_attention=False))
        with pytest.raises(CheckpointError, match="header: model config rejected .*attention"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, tail, match", [
        (lambda h: h["arrays"].__setitem__(0, h["arrays"][0][:1]), b"",
         "header: arrays entry 0 is not"),
        (lambda h: h["arrays"][0].__setitem__(1, "ab"), b"", "header: arrays entry 0 is not"),
        (lambda h: h.update(arrays=5), b"", "header: arrays index is not a list"),
        (lambda h: h["arrays"].append(h["arrays"][0]), b"", "header: arrays index names"),
        (lambda h: None, bytes(16), "payload: the array index describes"),
        (lambda h: h["arrays"][0].__setitem__(1, [10**6]), b"", "payload: the array index"),
    ], ids=["no-shape", "shape-string", "index-not-list", "name-twice", "stray-bytes",
            "index-past-end"])
    def test_malformed_array_index_rejected(self, vocab, tmp_path, edit, tail, match):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_imaginator(vocab), path, self.HASH)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(self._reframe(path, edit, tail))

    def test_payload_without_header_length_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"TTCP" + struct.pack("<I", CHECKPOINT_VERSION)
                         + hashlib.sha256(b"").digest() + struct.pack("<Q", 0))
        with pytest.raises(CheckpointError, match="payload: no room for the header length"):
            load_checkpoint(path)

    def test_optimizer_section_rejected(self, vocab, tmp_path):
        """Adam's state after the parameters, as versions before the current layout
        wrote it, is bytes that the array index does not describe."""
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        state = {"adam.step": np.array([3.0])}
        for name, a in m.params.as_arrays().items():
            state[f"adam.m.{name}"] = 0.5 * a
            state[f"adam.v.{name}"] = a * a
        index = [[name, list(state[name].shape)] for name in sorted(state)]
        section = b"".join(state[name].astype("<f8").tobytes() for name in sorted(state))
        bad = self._reframe(path, lambda h: h.update(optimizer=index), section)
        with pytest.raises(CheckpointError, match=r"payload: the array index describes \d+ "
                                                  r"bytes of arrays, the payload holds \d+"):
            load_checkpoint(bad)

    def test_decode_identity_after_reload(self, vocab, tmp_path):
        m = tiny_imaginator(vocab)
        path = tmp_path / "a.ckpt"
        save_checkpoint(m, path, self.HASH)
        loaded = load_checkpoint(path).model
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            utt = Utterance(USER, 0, 0, tuple(FILLERS[j] for j in rng.integers(0, 8, size=n)))
            enc = encode_history([utt], vocab)
            assert greedy_decode(m, [enc], max_len=8)[0] == \
                greedy_decode(loaded, [enc], max_len=8)[0]


class TestMetricsLog:
    def test_write_replaces_the_log(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        rows = [{"epoch": 1, "split": "train", "metric": "loss", "value": 2.5, "seconds": 0.1},
                {"epoch": 1, "split": "valid", "metric": "accuracy", "value": 0.5, "seconds": 0.2}]
        write_jsonl(path, rows)
        assert read_jsonl(path) == rows
        write_jsonl(path, rows[1:])
        assert read_jsonl(path) == rows[1:]
        assert path.read_text() == json.dumps(rows[1], sort_keys=True) + "\n"

    def test_failed_replace_keeps_previous_log(self, tmp_path, monkeypatch):
        """The log is rewritten whole through a temp file: a failed replace leaves it as it was."""
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, [{"epoch": 1, "split": "train", "metric": "loss", "value": 2.5}])
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(corpus.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_jsonl(path, [{"epoch": 2, "split": "train", "metric": "loss", "value": 2.0}])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]


class TestRunTraining:
    def test_toy_arbitrator_run(self, vocab, tmp_path):
        train = marker_samples(32, 1)
        valid = marker_samples(16, 2)
        model = toy_arb_model(vocab)
        res = run_training(toy_arb_config(), train, valid, model, vocab,
                           metrics_path=tmp_path / "m.jsonl",
                           checkpoint_path=tmp_path / "a.ckpt")
        assert res.metric_name == "accuracy"
        assert res.best_value > 0.5
        assert (tmp_path / "a.ckpt").exists()
        rows = read_jsonl(tmp_path / "m.jsonl")
        assert len(rows) == 2 * res.epochs_run
        for split in ("train", "valid"):
            epochs = [r["epoch"] for r in rows if r["split"] == split]
            assert epochs == sorted(epochs)

    def test_rerun_replaces_the_log(self, vocab, tmp_path):
        """A second run into the same paths replaces the log, as it does the checkpoint."""
        logs = []
        for _ in range(2):
            res = run_training(toy_arb_config(epochs=3), marker_samples(16, 1),
                               marker_samples(8, 2), toy_arb_model(vocab), vocab,
                               metrics_path=tmp_path / "m.jsonl")
            logs.append([{k: v for k, v in r.items() if k != "seconds"}
                         for r in read_jsonl(tmp_path / "m.jsonl")])
        assert len(logs[1]) == 2 * res.epochs_run
        assert logs[1] == logs[0]

    def test_checkpoint_holds_parameters_and_header_only(self, vocab, tmp_path):
        model = toy_arb_model(vocab)
        run_training(toy_arb_config(), marker_samples(32, 1), marker_samples(16, 2), model,
                     vocab, checkpoint_path=tmp_path / "a.ckpt")
        blob = (tmp_path / "a.ckpt").read_bytes()
        header_len = struct.unpack("<I", blob[48:52])[0]
        n_values = sum(p.data.size for _, p in model.params.items())
        assert model.dtype == np.float32
        assert len(blob) == 48 + 4 + header_len + 4 * n_values
        assert "optimizer" not in json.loads(blob[52:52 + header_len])

    def test_model_left_holding_best_parameters(self, vocab):
        train = marker_samples(32, 1)
        valid = marker_samples(16, 2)
        model = toy_arb_model(vocab)
        cfg = toy_arb_config()
        res = run_training(cfg, train, valid, model, vocab)
        prepared = prepare_samples(valid, vocab, None, max_len=cfg.max_decode_len)
        assert evaluate_prepared(model, prepared) == res.best_value

    def test_patience_zero_runs_exactly_one_epoch(self, vocab):
        model = toy_arb_model(vocab)
        res = run_training(toy_arb_config(patience=0), marker_samples(16, 1),
                           marker_samples(8, 2), model, vocab)
        assert res.epochs_run == 1
        assert res.best_epoch == 1

    def test_run_stops_after_an_epoch_at_the_ceiling(self, vocab, monkeypatch):
        """Validation reads 1.0 at epoch 1: no later epoch could be kept, so the run
        stops there, holding what patience 3 would have restored after epoch 4."""
        monkeypatch.setattr(arbitrator, "evaluate_prepared", lambda model, prepared: 1.0)
        train, valid = marker_samples(16, 1), marker_samples(8, 2)
        one = toy_arb_model(vocab)
        run_training(toy_arb_config(epochs=1), train, valid, one, vocab)
        model = toy_arb_model(vocab)
        res = run_training(toy_arb_config(patience=3), train, valid, model, vocab)
        assert (res.epochs_run, res.best_epoch, res.best_value) == (1, 1, 1.0)
        assert len(res.history) == 2
        got = model.params.as_arrays()
        for name, a in one.params.as_arrays().items():
            assert np.array_equal(got[name], a)

    def test_equal_seeds_equal_history(self, vocab):
        train = marker_samples(32, 1)
        valid = marker_samples(16, 2)
        strip = lambda h: [{k: v for k, v in r.items() if k != "seconds"} for r in h]
        r1 = run_training(toy_arb_config(), train, valid, toy_arb_model(vocab), vocab)
        r2 = run_training(toy_arb_config(), train, valid, toy_arb_model(vocab), vocab)
        assert strip(r1.history) == strip(r2.history)

    def test_empty_splits_rejected(self, vocab):
        model = toy_arb_model(vocab)
        with pytest.raises(ad.TrainingError, match="training split"):
            run_training(toy_arb_config(), [], marker_samples(4, 2), model, vocab)
        with pytest.raises(ad.TrainingError, match="validation split"):
            run_training(toy_arb_config(), marker_samples(4, 1), [], model, vocab)

    def test_ita_mode_requires_imaginators(self, vocab):
        model = ArbitratorModel(vocab_size=len(vocab), encoder="textcnn", mode="ita",
                                token_dim=8, tag_dim=2, filter_widths=(2, 3),
                                filters_per_width=8, seed=1)
        with pytest.raises(ad.TrainingError, match="imaginators"):
            run_training(toy_arb_config(mode="ita"), marker_samples(4, 1),
                         marker_samples(4, 2), model, vocab)

    def test_imaginator_run_reports_bleu(self, vocab):
        samples = [ImaginatorSample(history=(Utterance(USER, 0, 0, ("book", "a", "table")),),
                                    target=Utterance(AGENT, 0, 0, ("ok", "done")))
                   for _ in range(8)]
        cfg = TrainConfig(seed=5, epochs=3, batch_size=4, learning_rate=5e-3,
                          kind="imaginator", patience=3, max_decode_len=6)
        model = ImaginatorModel(vocab_size=len(vocab), role=AGENT, hidden=12,
                                token_dim=6, tag_dim=2, seed=2)
        res = run_training(cfg, samples, samples[:4], model, vocab)
        assert res.metric_name == "bleu"
        assert res.epochs_run == 3
        assert all(r["metric"] in ("loss", "bleu") for r in res.history)

    def test_divergence_error_names_epoch_and_step(self, vocab):
        samples = [ImaginatorSample(history=(Utterance(USER, 0, 0, ("book", "a", "table")),),
                                    target=Utterance(AGENT, 0, 0, ("ok", "done")))]
        model = ImaginatorModel(vocab_size=len(vocab), role=AGENT, hidden=12,
                                token_dim=6, tag_dim=2, seed=2)
        arrays = model.params.as_arrays()
        arrays["out.b_v"][2] = np.nan
        model.params.load_arrays(arrays)
        cfg = TrainConfig(seed=5, epochs=2, batch_size=4, kind="imaginator", patience=3)
        with pytest.raises(ad.TrainingError, match="epoch 1 step 0"):
            run_training(cfg, samples, samples, model, vocab)
