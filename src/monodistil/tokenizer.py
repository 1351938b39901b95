"""Greedy subword tokenizer shared by teacher and student models.

Vocabulary training starts from single characters and repeatedly merges
the most frequent adjacent unit pair; encoding is longest-match-first
with ``##`` marking word-internal continuations. One vocabulary serves
both models so their output logits live over the same axis.
"""

from __future__ import annotations

import hashlib
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, DataError, VocabularyError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
CONTINUATION = "##"


@dataclass
class Vocab:
    """Bijective id/token table with five reserved specials at ids 0..4."""

    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.tokens) < len(SPECIAL_TOKENS):
            raise VocabularyError(f"vocabulary needs at least {len(SPECIAL_TOKENS)} entries")
        if tuple(self.tokens[:5]) != SPECIAL_TOKENS:
            raise VocabularyError(f"first five tokens must be {SPECIAL_TOKENS}, got {self.tokens[:5]}")
        self.token_to_id = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.token_to_id:
                raise VocabularyError(f"duplicate token {tok!r} at ids {self.token_to_id[tok]} and {i}")
            self.token_to_id[tok] = i

    pad_id, unk_id, cls_id, sep_id, mask_id = 0, 1, 2, 3, 4

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def special_ids(self) -> frozenset:
        return frozenset((self.pad_id, self.unk_id, self.cls_id, self.sep_id, self.mask_id))

    def serialize(self) -> bytes:
        return ("\n".join(self.tokens) + "\n").encode("utf-8")

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()

    def save(self, path) -> None:
        Path(path).write_bytes(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocab":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise DataError(f"vocabulary file not found: {path}") from exc
        tokens = text.splitlines()
        return cls(tokens)


@dataclass
class EncodedSequence:
    """Fixed-length token ids plus the mask of real (non-PAD) positions."""

    token_ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.attention_mask = np.asarray(self.attention_mask, dtype=bool)
        if self.token_ids.shape != self.attention_mask.shape:
            raise VocabularyError("token ids and attention mask lengths differ")


def _word_units(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def train_vocab(corpus: Iterable[str], target_size: int) -> Vocab:
    """Grow a subword vocabulary to ``target_size`` by frequency merges.

    Ties between equally frequent merges break lexicographically, so the
    result depends only on the corpus content and the target size.
    """
    word_counts: Counter[str] = Counter()
    for doc in corpus:
        word_counts.update(_normalize(doc).split())
    if not word_counts:
        raise DataError("cannot train a vocabulary on an empty corpus")

    alphabet = sorted({ch for word in word_counts for ch in word})
    minimum = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size < minimum:
        raise ConfigurationError(
            f"target_size {target_size} cannot hold {len(SPECIAL_TOKENS)} specials "
            f"plus a {len(alphabet)}-character alphabet (need >= {minimum})")

    decomp = {word: _word_units(word) for word in word_counts}
    initial_units = sorted({units[0] for units in decomp.values()})
    continuation_units = sorted({u for units in decomp.values() for u in units[1:]})

    tokens = list(SPECIAL_TOKENS) + initial_units
    for unit in continuation_units:
        if len(tokens) >= target_size:
            break
        tokens.append(unit)
    seen = set(tokens)

    while len(tokens) < target_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, units in decomp.items():
            count = word_counts[word]
            for left, right in zip(units, units[1:]):
                pair_counts[(left, right)] += count
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1][len(CONTINUATION):]
        for word, units in decomp.items():
            if len(units) < 2:
                continue
            rebuilt, i = [], 0
            while i < len(units):
                if i + 1 < len(units) and (units[i], units[i + 1]) == best:
                    rebuilt.append(merged)
                    i += 2
                else:
                    rebuilt.append(units[i])
                    i += 1
            decomp[word] = rebuilt
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)

    return Vocab(tokens)


def tokenize_word(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first segmentation; [UNK] when any span fails."""
    if word in vocab.token_to_id and word not in SPECIAL_TOKENS:
        return [word]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while end > start:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION + candidate
            if candidate in vocab.token_to_id and candidate not in SPECIAL_TOKENS:
                found = candidate
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def encode(text: str, vocab: Vocab, max_len: int) -> EncodedSequence:
    """Segment ``text`` and wrap it as [CLS] ... [SEP] padded to ``max_len``."""
    if max_len < 3:
        raise ConfigurationError(f"max_len must be at least 3, got {max_len}")
    pieces: list[str] = []
    for word in _normalize(text).split():
        pieces.extend(tokenize_word(word, vocab))
    pieces = pieces[: max_len - 2]
    ids = [vocab.cls_id] + [vocab.token_to_id[p] for p in pieces] + [vocab.sep_id]
    n_real = len(ids)
    ids.extend([vocab.pad_id] * (max_len - n_real))
    mask = np.zeros(max_len, dtype=bool)
    mask[:n_real] = True
    return EncodedSequence(np.asarray(ids, dtype=np.int64), mask)


def encode_words(words: list[str], vocab: Vocab, max_len: int) -> tuple[EncodedSequence, list[int | None]]:
    """Encode a pre-split word list, reporting each word's first-piece position.

    The kept words are the longest prefix that fits whole within ``max_len``;
    every later word maps to ``None``. The caller aligns per-word labels
    through the returned positions.
    """
    if max_len < 3:
        raise ConfigurationError(f"max_len must be at least 3, got {max_len}")
    ids = [vocab.cls_id]
    positions: list[int | None] = [None] * len(words)
    for i, word in enumerate(words):
        pieces = tokenize_word(_normalize(word), vocab)
        if len(ids) + len(pieces) > max_len - 1:
            break
        positions[i] = len(ids)
        ids.extend(vocab.token_to_id[p] for p in pieces)
    ids.append(vocab.sep_id)
    n_real = len(ids)
    ids.extend([vocab.pad_id] * (max_len - n_real))
    mask = np.zeros(max_len, dtype=bool)
    mask[:n_real] = True
    return EncodedSequence(np.asarray(ids, dtype=np.int64), mask), positions


def decode(ids, vocab: Vocab) -> str:
    """Rejoin subwords and drop specials; inverse of encode up to whitespace."""
    words: list[str] = []
    for raw in np.asarray(ids).reshape(-1):
        i = int(raw)
        if i < 0 or i >= len(vocab):
            raise VocabularyError(f"token id {i} out of range for vocabulary of size {len(vocab)}")
        if i in vocab.special_ids:
            continue
        tok = vocab.tokens[i]
        if tok.startswith(CONTINUATION) and words:
            words[-1] += tok[len(CONTINUATION):]
        else:
            words.append(tok)
    return " ".join(words)
