"""Checkpoint directory format: a text manifest plus raw float32 weights.

The manifest is INI-style text holding the architecture, the SHA-256 of the
vocabulary the model was trained with and of the weights payload, and a tensor
table (name, shape, byte offset into weights.bin). Weights are little-endian
float32, concatenated in table order. No wall-clock data is written so
identical runs produce byte-identical checkpoints. A finetuned checkpoint's
``[head]`` names the head kind and its labels in id order, as a JSON list;
the manifest is read and written without interpolation, so any name
round-trips.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import (CheckpointCorruptError, CheckpointError, CheckpointShapeError,
                     ConfigurationError, VocabMismatchError)
from .model import EncoderConfig, EncoderModel, Head, parameter_shapes
from .tokenizer import Vocab

MANIFEST_NAME = "manifest"
WEIGHTS_NAME = "weights.bin"
FORMAT_VERSION = "1"

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(EncoderConfig))


def _format_shape(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.strip().split("x"))
    except ValueError as exc:
        raise CheckpointCorruptError(f"unreadable tensor shape {text!r}") from exc


def _serialize(model: EncoderModel, vocab_hash: str, seed: int, source: str,
               head: Head | None) -> tuple[str, bytes]:
    """Manifest text and weights payload; the manifest records the payload's sha256."""
    cfg = model.config
    parser = configparser.ConfigParser(interpolation=None)
    parser["format"] = {"version": FORMAT_VERSION}
    parser["config"] = {name: repr(getattr(cfg, name)) for name in _CONFIG_FIELDS}
    parser["meta"] = {"vocab_sha256": vocab_hash, "seed": repr(int(seed)), "source": source}

    entries: list[tuple[str, np.ndarray]] = [(n, model.params[n].data)
                                             for n in parameter_shapes(cfg)]
    if head is not None:
        parser["head"] = {"kind": head.kind,
                          "labels": json.dumps(list(head.labels), ensure_ascii=False)}
        entries.append(("head_weight", head.weight.data))
        entries.append(("head_bias", head.bias.data))

    table = {}
    offset = 0
    for name, data in entries:
        table[name] = f"{_format_shape(data.shape)} @ {offset}"
        offset += data.size * 4
    parser["tensors"] = table
    payload = b"".join(np.ascontiguousarray(d, dtype="<f4").tobytes() for _, d in entries)
    parser["meta"]["payload_sha256"] = hashlib.sha256(payload).hexdigest()

    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue(), payload


def can_hold_checkpoint(path) -> bool:
    """True when ``path`` is absent or a directory holding nothing but a
    checkpoint's ``manifest`` and ``weights.bin``: the only places a save may
    write, since it replaces the whole directory."""
    out = Path(path)
    return not out.exists() or (out.is_dir() and {f.name for f in out.iterdir()}
                                <= {MANIFEST_NAME, WEIGHTS_NAME})


def save_checkpoint(model: EncoderModel, path, vocab: Vocab, seed: int = 0,
                    source: str = "", head: Head | None = None) -> None:
    """Write ``manifest`` and ``weights.bin`` under the directory ``path``.

    Both go into a temporary sibling directory that is renamed to ``path`` once
    complete, so a failed save leaves an existing checkpoint as it was. A
    ``path`` holding anything else is refused.
    """
    manifest, payload = _serialize(model, vocab.content_hash(), seed, source, head)
    out = Path(path)
    if not can_hold_checkpoint(out):
        raise CheckpointError(f"refusing to replace {out}: it is not a checkpoint directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as staging:
        new = Path(staging) / "new"
        new.mkdir()
        (new / MANIFEST_NAME).write_text(manifest, encoding="utf-8")
        (new / WEIGHTS_NAME).write_bytes(payload)
        if out.exists():
            out.rename(Path(staging) / "old")
        new.rename(out)


def checkpoint_digest(path) -> str:
    """SHA-256 over manifest and payload; detects any parameter change."""
    out = Path(path)
    hasher = hashlib.sha256()
    for name in (MANIFEST_NAME, WEIGHTS_NAME):
        f = out / name
        if not f.exists():
            raise CheckpointCorruptError(f"checkpoint is missing {name}: {path}")
        hasher.update(f.read_bytes())
    return hasher.hexdigest()


def _read_manifest(path) -> configparser.ConfigParser:
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointCorruptError(f"no manifest found under {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(manifest_path.read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CheckpointCorruptError(f"unreadable manifest under {path}: {exc}") from exc
    for section in ("format", "config", "meta", "tensors"):
        if section not in parser:
            raise CheckpointCorruptError(f"manifest lacks [{section}] section: {path}")
    if parser["format"].get("version") != FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"unsupported checkpoint format version {parser['format'].get('version')!r}")
    return parser


def _parse_config(parser: configparser.ConfigParser) -> EncoderConfig:
    section = parser["config"]
    try:
        return EncoderConfig(**{name: section.getint(name) for name in _CONFIG_FIELDS})
    except (ValueError, TypeError) as exc:
        raise CheckpointCorruptError(f"manifest config is unreadable: {exc}") from exc


def _read_table(table, payload: bytes) -> dict[str, np.ndarray]:
    """Every tensor the table lists, as a float32 copy.

    The entries must tile the payload in table order: positive dimensions,
    each offset where the previous tensor ended, and the last tensor ending
    at the payload's end. Anything else would read one tensor's bytes as
    another's.
    """
    entries = []
    end = 0
    for name, spec in table.items():
        try:
            shape_text, offset_text = spec.split("@")
            offset = int(offset_text)
        except ValueError as exc:
            raise CheckpointCorruptError(f"unreadable tensor entry {name} = {spec!r}") from exc
        shape = _parse_shape(shape_text)
        if min(shape) <= 0:
            raise CheckpointCorruptError(f"tensor {name} has a non-positive dimension: {spec!r}")
        if offset != end:
            raise CheckpointCorruptError(
                f"tensor {name} starts at byte {offset}, but the tensors before it end at {end}")
        entries.append((name, shape, offset))
        end += math.prod(shape) * 4
    if end != len(payload):
        raise CheckpointCorruptError(
            f"the tensor table covers {end} bytes but the payload has {len(payload)}")
    return {name: np.frombuffer(payload, dtype="<f4", count=math.prod(shape),
                                offset=offset).reshape(shape).copy()
            for name, shape, offset in entries}


def _load_parts(path, vocab: Vocab) -> tuple[EncoderModel, Head | None]:
    parser = _read_manifest(path)
    config = _parse_config(parser)

    stored_hash = parser["meta"].get("vocab_sha256", "")
    actual_hash = vocab.content_hash()
    if stored_hash != actual_hash:
        raise VocabMismatchError(
            f"checkpoint was written with vocabulary {stored_hash[:12]}… but the "
            f"supplied vocabulary hashes to {actual_hash[:12]}…")
    if config.vocab_size != len(vocab):
        raise CheckpointShapeError(
            f"checkpoint config expects {config.vocab_size} vocabulary entries, got {len(vocab)}")

    weights_path = Path(path) / WEIGHTS_NAME
    if not weights_path.exists():
        raise CheckpointCorruptError(f"no weights payload under {path}")
    payload = weights_path.read_bytes()
    if hashlib.sha256(payload).hexdigest() != parser["meta"].get("payload_sha256"):
        raise CheckpointCorruptError(
            f"weights payload under {path} does not match the payload_sha256 in its manifest")

    names = parser["tensors"]
    expected = parameter_shapes(config)
    missing = sorted(set(expected) - set(names))
    if missing:
        raise CheckpointShapeError(f"checkpoint lacks tensors: {missing}")
    if "head" in parser:
        kind = parser["head"].get("kind", "")
        try:
            labels = json.loads(parser["head"]["labels"])
        except (KeyError, ValueError) as exc:
            raise CheckpointCorruptError(f"[head] under {path} lists no readable label names; "
                                         "finetune the model again") from exc
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise CheckpointCorruptError(f"[head] labels under {path} are not a list of names")
        missing = [name for name in ("head_weight", "head_bias") if name not in names]
        if missing:
            raise CheckpointCorruptError(f"[head] under {path} has no tensors {missing}")

    table = _read_table(names, payload)
    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        data = table[name]
        if data.shape != shape:
            raise CheckpointShapeError(
                f"tensor {name} has shape {data.shape}, config requires {shape}")
        params[name] = Tensor(data, requires_grad=True)
    model = EncoderModel(config, params)

    head = None
    if "head" in parser:
        labels, num_labels = tuple(labels), len(labels)
        hw, hb = table["head_weight"], table["head_bias"]
        if hw.shape != (config.hidden_dim, num_labels) or hb.shape != (num_labels,):
            raise CheckpointShapeError(
                f"head tensors {hw.shape}/{hb.shape} do not fit a {num_labels}-label head "
                f"over hidden size {config.hidden_dim}")
        try:
            head = Head(kind, labels, Tensor(hw, requires_grad=True),
                        Tensor(hb, requires_grad=True))
        except ConfigurationError as exc:
            raise CheckpointCorruptError(f"[head] under {path}: {exc}") from exc
    return model, head


def load_checkpoint(path, vocab: Vocab) -> EncoderModel:
    """Rebuild a fully trainable model, verifying vocabulary hash and every
    tensor shape; an older manifest's ``[frozen]`` section is ignored."""
    model, _ = _load_parts(path, vocab)
    return model


def load_finetuned(path, vocab: Vocab) -> tuple[EncoderModel, Head]:
    model, head = _load_parts(path, vocab)
    if head is None:
        raise CheckpointCorruptError(f"checkpoint has no task head: {path}")
    return model, head
