"""Checkpoint directory format: a text manifest plus raw float32 weights.

The manifest is INI-style text holding the architecture, the SHA-256 of
the vocabulary the model was trained with, frozen-group state, and a
tensor table (name, shape, byte offset into weights.bin). Weights are
little-endian float32, concatenated in table order. No wall-clock data
is written so identical runs produce byte-identical checkpoints.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import (CheckpointCorruptError, CheckpointShapeError, VocabMismatchError)
from .model import (EncoderConfig, EncoderModel, Head, parameter_shapes, set_frozen)
from .tokenizer import Vocab

MANIFEST_NAME = "manifest"
WEIGHTS_NAME = "weights.bin"
FORMAT_VERSION = "1"

_CONFIG_FIELDS = ("hidden_dim", "intermediate_size", "num_layers", "num_heads",
                  "max_positions", "vocab_size")


def _format_shape(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.strip().split("x"))
    except ValueError as exc:
        raise CheckpointCorruptError(f"unreadable tensor shape {text!r}") from exc


def _build_manifest(model: EncoderModel, vocab_hash: str, seed: int, source: str,
                    head: Head | None) -> tuple[str, list[tuple[str, np.ndarray]]]:
    cfg = model.config
    parser = configparser.ConfigParser()
    parser["format"] = {"version": FORMAT_VERSION}
    parser["config"] = {name: repr(getattr(cfg, name)) for name in _CONFIG_FIELDS}
    parser["meta"] = {"vocab_sha256": vocab_hash, "seed": repr(int(seed)), "source": source}
    parser["frozen"] = {"groups": ",".join(sorted(model.frozen_groups))}

    entries: list[tuple[str, np.ndarray]] = [(n, model.params[n].data)
                                             for n in parameter_shapes(cfg)]
    if head is not None:
        parser["head"] = {"kind": head.kind, "num_labels": repr(head.num_labels)}
        entries.append(("head_weight", head.weight.data))
        entries.append(("head_bias", head.bias.data))

    table = {}
    offset = 0
    for name, data in entries:
        table[name] = f"{_format_shape(data.shape)} @ {offset}"
        offset += data.size * 4
    parser["tensors"] = table

    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue(), entries


def save_checkpoint(model: EncoderModel, path, vocab: Vocab, seed: int = 0,
                    source: str = "", head: Head | None = None) -> None:
    """Write ``manifest`` and ``weights.bin`` under the directory ``path``."""
    manifest, entries = _build_manifest(model, vocab.content_hash(), seed, source, head)
    payload = b"".join(np.ascontiguousarray(d, dtype="<f4").tobytes() for _, d in entries)
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST_NAME).write_text(manifest, encoding="utf-8")
    (out / WEIGHTS_NAME).write_bytes(payload)


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
    parser = configparser.ConfigParser()
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


def _load_tensor(payload: bytes, name: str, spec: str) -> np.ndarray:
    try:
        shape_text, offset_text = spec.split("@")
        offset = int(offset_text)
    except ValueError as exc:
        raise CheckpointCorruptError(f"unreadable tensor entry {name} = {spec!r}") from exc
    shape = _parse_shape(shape_text)
    count = int(np.prod(shape))
    end = offset + count * 4
    if offset < 0 or end > len(payload):
        raise CheckpointCorruptError(
            f"tensor {name} spans bytes [{offset}, {end}) but payload has {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
    return flat.reshape(shape).copy()


def _frozen_groups(parser: configparser.ConfigParser) -> list[str]:
    return [g for g in parser.get("frozen", "groups", fallback="").split(",") if g]


def read_checkpoint_meta(path) -> dict:
    """Config, vocab hash, seed, source, and head info without loading weights."""
    parser = _read_manifest(path)
    meta = dict(parser["meta"])
    return {
        "config": _parse_config(parser),
        "vocab_sha256": meta.get("vocab_sha256", ""),
        "seed": int(meta.get("seed", "0")),
        "source": meta.get("source", ""),
        "frozen_groups": _frozen_groups(parser),
        "head": dict(parser["head"]) if "head" in parser else None,
    }


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

    table = parser["tensors"]
    expected = parameter_shapes(config)
    missing = sorted(set(expected) - set(table))
    if missing:
        raise CheckpointShapeError(f"checkpoint lacks tensors: {missing}")

    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        data = _load_tensor(payload, name, table[name])
        if data.shape != shape:
            raise CheckpointShapeError(
                f"tensor {name} has shape {data.shape}, config requires {shape}")
        params[name] = Tensor(data, requires_grad=True)
    model = EncoderModel(config, params)
    for group in _frozen_groups(parser):
        set_frozen(model, group, True)

    head = None
    if "head" in parser:
        kind = parser["head"].get("kind", "")
        num_labels = parser["head"].getint("num_labels")
        hw = _load_tensor(payload, "head_weight", table["head_weight"])
        hb = _load_tensor(payload, "head_bias", table["head_bias"])
        if hw.shape != (config.hidden_dim, num_labels) or hb.shape != (num_labels,):
            raise CheckpointShapeError(
                f"head tensors {hw.shape}/{hb.shape} do not fit a {num_labels}-label head "
                f"over hidden size {config.hidden_dim}")
        head = Head(kind, num_labels, Tensor(hw, requires_grad=True),
                    Tensor(hb, requires_grad=True))
    return model, head


def load_checkpoint(path, vocab: Vocab) -> EncoderModel:
    """Rebuild a model, verifying vocabulary hash and every tensor shape."""
    model, _ = _load_parts(path, vocab)
    return model


def load_finetuned(path, vocab: Vocab) -> tuple[EncoderModel, Head]:
    model, head = _load_parts(path, vocab)
    if head is None:
        raise CheckpointCorruptError(f"checkpoint has no task head: {path}")
    return model, head
