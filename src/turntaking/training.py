"""Training orchestration and artifact persistence.

One flat config type drives every run, and `model_from_config` is the one
place a model description becomes a model. A checkpoint holds what the
program reads back: the parameters, the model config, run metadata and the
training config as text. Training never resumes from a checkpoint, so it
holds no optimizer state. The file is a self-describing binary container
(magic, version, content digest, JSON header, raw tensors) with a
human-readable sidecar; loading verifies the digest before touching any
array, so a corrupt file never yields a partial model, and loads only in the
layout this version writes. Arrays are stored at the dtype the model config
names (`"dtype"`), so saving and loading cast nothing. Loading draws no random
initialization: the model is built on the file's arrays, each copied once. A
run writes its metrics log whole, so a rerun replaces it, as it does the
checkpoint.

The config holds only what a run may vary, and each setting has one source:
the history encoding and the train/valid/test split are `corpus` constants and
the gradient clip threshold is `autodiff.CLIP_NORM`, the same for every model
and run, so neither a training config nor a model config names them. A run
trains one model, so one `hidden` sizes its recurrent state: the imaginator's
LSTMs or the Bi-GRU arbitrator's directions (a TextCNN records it and uses
none). Decodes take their length and width from the config, never from a
default of their own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import arbitrator as arb
from . import imaginator as im
from .autodiff import PARAM_DTYPES, Adam, ShapeError, TrainingError
from .corpus import AGENT, USER, Vocabulary, _write_atomic

CHECKPOINT_MAGIC = b"TTCP"
CHECKPOINT_VERSION = 6


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation; the message names the section."""


@dataclass
class TrainConfig:
    """Flat run configuration; field order here is the serialization order."""

    seed: int = 0
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    patience: int = 3
    kind: str = "imaginator"
    role: str = "agent"
    encoder: str = "textcnn"
    mode: str = "ita"
    hidden: int = 128
    token_dim: int = 100
    tag_dim: int = 8
    filter_widths: str = "3,4,5"
    filters_per_width: int = 100
    beam_width: int = 4
    max_decode_len: int = 40
    p_split: float = 0.4
    min_freq: int = 1

    def __post_init__(self):
        positive = {"epochs": self.epochs, "batch_size": self.batch_size,
                    "learning_rate": self.learning_rate, "hidden": self.hidden,
                    "token_dim": self.token_dim, "tag_dim": self.tag_dim,
                    "filters_per_width": self.filters_per_width,
                    "beam_width": self.beam_width, "max_decode_len": self.max_decode_len,
                    "min_freq": self.min_freq}
        for name, value in positive.items():
            if not 0 < value < math.inf:  # nan fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("seed", "patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 <= self.p_split <= 1.0:
            raise ValueError(f"p_split must be in [0, 1], got {self.p_split}")
        if self.kind not in ("imaginator", "arbitrator"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.role not in (AGENT, USER):
            raise ValueError(f"unknown role {self.role!r}")
        if self.encoder not in ("textcnn", "bigru"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.mode not in ("ita", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.parsed_filter_widths()

    def parsed_filter_widths(self) -> tuple[int, ...]:
        try:
            widths = tuple(int(w) for w in self.filter_widths.split(","))
        except ValueError:
            raise ValueError(f"bad filter_widths {self.filter_widths!r}") from None
        if not widths or any(w < 1 for w in widths) or len(set(widths)) < len(widths):
            raise ValueError(f"bad filter_widths {self.filter_widths!r}")
        return widths

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {value!r}" if isinstance(value, str)
                         else f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TrainConfig":
        return cls(**cls.values_from_text(text))

    @classmethod
    def values_from_text(cls, text: str) -> dict:
        """The keys a config text sets, with their parsed values; the rest keep defaults."""
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        values: dict = {}
        set_at: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in kinds:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in set_at:
                raise ValueError(f"config line {lineno}: {key} already set at line {set_at[key]}")
            set_at[key] = lineno
            parse = {"int": int, "float": float}.get(kinds[key])  # field types are strings here
            try:
                values[key] = parse(raw) if parse else raw.strip("'\"")
            except ValueError:
                raise ValueError(f"config line {lineno}: {key} must be {kinds[key]}, "
                                 f"got {raw!r}") from None
        return values

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def model_from_config(cfg: dict, arrays: dict[str, np.ndarray] | None = None):
    """The model a config describes, as `config()` of a model gives it: freshly
    initialized, or, given arrays, holding a copy of each as a parameter, with
    nothing drawn. Every parameter needs an array of its shape and
    every array a parameter (KeyError or ShapeError otherwise)."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "imaginator":
        model = im.ImaginatorModel(**cfg, arrays=arrays)
    elif kind == "arbitrator":
        model = arb.ArbitratorModel(**cfg, arrays=arrays)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    extra = sorted(set(arrays or ()) - set(model.params.names()))
    if extra:
        raise KeyError(f"parameter name mismatch: arrays {extra} name no parameter")
    return model


def build_model(cfg: TrainConfig, vocab_size: int):
    """The freshly initialized model a run configuration describes."""
    shared = {"kind": cfg.kind, "vocab_size": vocab_size, "token_dim": cfg.token_dim,
              "tag_dim": cfg.tag_dim, "seed": cfg.seed}
    if cfg.kind == "imaginator":
        return model_from_config({**shared, "role": cfg.role, "hidden": cfg.hidden})
    return model_from_config({**shared, "encoder": cfg.encoder, "mode": cfg.mode,
                              "filter_widths": cfg.parsed_filter_widths(),
                              "filters_per_width": cfg.filters_per_width,
                              "hidden": cfg.hidden})


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model, path, vocab_hash: str, metadata: dict | None = None,
                    train_config: TrainConfig | None = None) -> None:
    """Write the model's parameters and config, with metadata, as one atomic file."""
    params = sorted(model.params.items())
    header = {
        "arrays": [[name, list(p.data.shape)] for name, p in params],
        "metadata": metadata or {},
        "model": model.config(),
        "train_config": train_config.to_text() if train_config else None,
        "vocab_hash": vocab_hash,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # the payload is the header and then every array's bytes; it is hashed and
    # written piece by piece, never joined into one copy
    head = struct.pack("<I", len(header_bytes)) + header_bytes
    arrays = [np.ascontiguousarray(p.data, p.data.dtype.newbyteorder("<")) for _, p in params]
    digest = hashlib.sha256(head)
    for a in arrays:
        digest.update(a)
    frame = (CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + digest.digest()
             + struct.pack("<Q", len(head) + sum(a.nbytes for a in arrays)))
    path = Path(path)
    _write_atomic(path, frame, head, *arrays)
    _write_atomic(path.with_suffix(path.suffix + ".txt"), _sidecar_text(header).encode())


def _sidecar_text(header: dict) -> str:
    lines = [f"format_version = {CHECKPOINT_VERSION}",
             f"vocab_hash = {header['vocab_hash']}"]
    for k, v in sorted(header["model"].items()):
        lines.append(f"model.{k} = {v}")
    for k, v in sorted(header["metadata"].items()):
        lines.append(f"metadata.{k} = {v}")
    for name, shape in header["arrays"]:
        lines.append(f"array {name} {tuple(shape)}")
    return "\n".join(lines) + "\n"


@dataclass
class Checkpoint:
    model: object
    metadata: dict
    vocab_hash: str
    train_config_text: str | None


def _array_index(entries) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) pairs of the header's array index, checked."""
    if not isinstance(entries, list):
        raise CheckpointError("header: arrays index is not a list")
    index = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(type(d) is int and d >= 0 for d in entry[1])):
            raise CheckpointError(f"header: arrays entry {i} is not [name, shape]: {entry!r}")
        index.append((entry[0], tuple(entry[1])))
    if len({name for name, _ in index}) != len(index):
        raise CheckpointError("header: arrays index names an array twice")
    return index


def load_checkpoint(path, expected_vocab_hash: str | None = None) -> Checkpoint:
    """Read and verify a checkpoint; raises CheckpointError before returning
    anything if the file fails any structural or integrity check.

    The model is built on the arrays read in place from the file's bytes, so
    nothing is drawn at random, and each parameter is copied once, into the
    model.
    """
    blob = memoryview(Path(path).read_bytes())
    if len(blob) < 48:
        raise CheckpointError("frame: file shorter than the fixed header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("frame: bad magic bytes")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"frame: unsupported format version {version}")
    digest = blob[8:40]
    payload_len = struct.unpack("<Q", blob[40:48])[0]
    payload = blob[48:48 + payload_len]
    if len(payload) != payload_len:
        raise CheckpointError("frame: payload truncated")
    if len(blob) > 48 + payload_len:
        raise CheckpointError(f"frame: {len(blob) - 48 - payload_len} bytes after the payload")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("payload: content digest mismatch (corrupt file)")
    if payload_len < 4:
        raise CheckpointError("payload: no room for the header length")
    header_len = struct.unpack("<I", payload[:4])[0]
    try:
        header = json.loads(bytes(payload[4:4 + header_len]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"header: undecodable ({e})") from None
    for key in ("arrays", "model", "vocab_hash", "metadata"):
        if not isinstance(header, dict) or key not in header:
            raise CheckpointError(f"header: missing key {key!r}")
    dtype_name = header["model"].get("dtype") if isinstance(header["model"], dict) else None
    if dtype_name not in PARAM_DTYPES:
        raise CheckpointError(f"header: model config dtype must be one of {PARAM_DTYPES}, "
                              f"got {dtype_name!r}")
    dtype = np.dtype(dtype_name).newbyteorder("<")
    if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
        raise CheckpointError("header: vocabulary hash mismatch")
    index = _array_index(header["arrays"])
    offset = 4 + header_len
    needed = dtype.itemsize * sum(math.prod(shape) for _, shape in index)
    if needed != payload_len - offset:
        raise CheckpointError(f"payload: the array index describes {needed} bytes of arrays, "
                              f"the payload holds {payload_len - offset}")
    arrays = {}
    for name, shape in index:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(payload, dtype, count, offset).reshape(shape)
        offset += dtype.itemsize * count
    try:
        model = model_from_config(header["model"], arrays)
    except (KeyError, ShapeError) as e:
        raise CheckpointError(f"parameters: {e.args[0]}") from None
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"header: model config rejected ({e})") from None
    return Checkpoint(model=model, metadata=header["metadata"],
                      vocab_hash=header["vocab_hash"],
                      train_config_text=header.get("train_config"))


# ---------------------------------------------------------------------------
# JSONL logs


def write_jsonl(path, records: Sequence[dict]) -> None:
    """Replace path with one JSON line per record, keys sorted, atomically."""
    _write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode())


# ---------------------------------------------------------------------------
# the epoch loop


@dataclass
class TrainResult:
    metric_name: str
    best_value: float
    best_epoch: int
    epochs_run: int
    history: list[dict]


def run_training(config: TrainConfig, train_samples, valid_samples, model,
                 vocab: Vocabulary, imaginators=None, metrics_path=None,
                 checkpoint_path=None) -> TrainResult:
    """Seeded epoch loop with per-epoch validation and early stopping.

    Shuffling derives a fresh rng from seed XOR epoch. An epoch that does
    not improve validation counts against patience; training stops once
    bad epochs reach it (so patience 0 runs exactly one epoch). It also stops
    after an epoch that reads 1.0, the maximum of both BLEU and accuracy: only
    a strictly higher value is kept, so no later epoch could be. The model is
    left holding the best-validation parameters, never anything worse.
    """
    if not len(train_samples):
        raise TrainingError("empty training split")
    if not len(valid_samples):
        raise TrainingError("empty validation split")
    kind = model.config()["kind"]
    opt = Adam(model.params, lr=config.learning_rate)

    if kind == "imaginator":
        step = lambda batch: im.train_step(batch, model, opt)
        # width 1 (greedy) keeps validation cheap; the configured beam width
        # applies at evaluation time
        metric_name = "bleu"
        valid_encs = [enc for enc, _ in im.prepare_samples(valid_samples, vocab)]
        validate = lambda: im.bleu_by_role(
            model, valid_samples, valid_encs, vocab, 1,
            config.max_decode_len)[f"bleu_on_{model.role}_targets"]
        train_items = im.prepare_samples(train_samples, vocab)
    else:
        if model.mode == "ita" and imaginators is None:
            raise TrainingError("ita-mode arbitrator training needs both imaginators")
        pair = imaginators if model.mode == "ita" else None
        # one imagination decode per imaginator for both splits
        prepared = arb.prepare_samples([*train_samples, *valid_samples], vocab, pair,
                                       max_len=config.max_decode_len)
        train_items, prepared_valid = prepared[:len(train_samples)], prepared[len(train_samples):]
        step = lambda batch: arb.train_step(batch, model, opt)
        metric_name = "accuracy"
        validate = lambda: arb.evaluate_prepared(model, prepared_valid)

    history: list[dict] = []
    best_value = -math.inf
    best_epoch = 0
    best_arrays = model.params.as_arrays()
    bad_epochs = 0
    epochs_run = 0
    n = len(train_items)

    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        t0 = time.monotonic()
        order = np.random.default_rng(config.seed ^ epoch).permutation(n)
        losses = []
        for step_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = [train_items[i] for i in order[start:start + config.batch_size]]
            try:
                losses.append(step(batch))
            except TrainingError as e:
                raise TrainingError(f"epoch {epoch} step {step_idx}: {e}") from None
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise TrainingError(f"epoch {epoch}: training loss diverged")
        history.append({"epoch": epoch, "split": "train", "metric": "loss",
                        "value": mean_loss, "seconds": round(time.monotonic() - t0, 3)})
        t1 = time.monotonic()
        value = float(validate())
        history.append({"epoch": epoch, "split": "valid", "metric": metric_name,
                        "value": value, "seconds": round(time.monotonic() - t1, 3)})
        if value > best_value:
            best_value = value
            best_epoch = epoch
            best_arrays = model.params.as_arrays()
            bad_epochs = 0
            if checkpoint_path is not None:
                save_checkpoint(model, checkpoint_path, vocab.hash(),
                                metadata={"epoch": epoch, "metric": metric_name,
                                          "best_metric": value},
                                train_config=config)
        else:
            bad_epochs += 1
        if bad_epochs >= config.patience or value >= 1.0:
            break

    model.params.load_arrays(best_arrays)
    if metrics_path is not None:
        write_jsonl(metrics_path, history)
    return TrainResult(metric_name=metric_name, best_value=best_value,
                       best_epoch=best_epoch, epochs_run=epochs_run, history=history)
