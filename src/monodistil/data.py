"""Corpus loading, document subsampling, and masked-LM batch assembly.

A corpus is a plain list of documents, one string each, in file line order.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, read_text
from .tokenizer import SPECIAL_TOKENS, EncodedSequence, Vocab, encode, encode_words

IGNORE_ID = -100

# what a task labels: each sequence, at its [CLS] position, or each word
TASK_KINDS = ("classification", "tagging")

FIRST_CONTENT_ID = len(SPECIAL_TOKENS)


def load_corpus(path) -> list[str]:
    """Read one document per line, skipping blank lines, preserving order."""
    lines = read_text(path, "corpus").split("\n")
    docs = [doc for doc in (line.strip() for line in lines) if doc]
    if not docs:
        warnings.warn(f"corpus file has no non-empty lines: {path}", stacklevel=2)
    return docs


def subsample(corpus: list[str], fraction: float, seed: int) -> list[str]:
    """Keep a seeded ``fraction`` of documents, preserving corpus order.

    Each document gets a priority from one seeded permutation and survives
    when its priority falls below ``floor(fraction * N)``, so for a fixed
    seed every smaller fraction yields a subset of every larger one.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be within (0, 1], got {fraction}")
    n = len(corpus)
    rng = np.random.Generator(np.random.PCG64(seed))
    priority = rng.permutation(n)
    cutoff = int(np.floor(fraction * n))
    return [doc for doc, p in zip(corpus, priority) if p < cutoff]


@dataclass
class MaskedBatch:
    """Inputs with some positions corrupted plus the ids they must recover."""

    token_ids: np.ndarray
    attention_mask: np.ndarray
    mlm_mask: np.ndarray
    original_ids: np.ndarray


def encode_corpus(corpus: list[str], vocab: Vocab, max_len: int) -> list[EncodedSequence]:
    return [encode(doc, vocab, max_len) for doc in corpus]


def stack_sequences(sequences: list[EncodedSequence]) -> tuple[np.ndarray, np.ndarray]:
    if not sequences:
        raise DataError("cannot stack an empty sequence list")
    ids = np.stack([s.token_ids for s in sequences])
    mask = np.stack([s.attention_mask for s in sequences])
    return ids, mask


def make_mlm_batch(sequences: list[EncodedSequence], mask_rate: float,
                   seed: int, vocab: Vocab) -> MaskedBatch:
    """Corrupt ``mask_rate`` of content positions: 80% [MASK], 10% random, 10% kept.

    Special tokens and PAD are never eligible; every selection is
    deterministic for a given seed.
    """
    if not 0.0 <= mask_rate < 1.0:
        raise ConfigurationError(f"mask_rate must be in [0, 1), got {mask_rate}")
    token_ids, attention_mask = stack_sequences(sequences)
    rng = np.random.Generator(np.random.PCG64(seed))
    original = token_ids.copy()
    corrupted = token_ids.copy()

    eligible = attention_mask & (token_ids >= FIRST_CONTENT_ID)
    selected = eligible & (rng.random(token_ids.shape) < mask_rate)

    action = rng.random(token_ids.shape)
    to_mask = selected & (action < 0.8)
    to_random = selected & (action >= 0.8) & (action < 0.9)
    corrupted[to_mask] = vocab.mask_id
    n_random = int(to_random.sum())
    if n_random:
        corrupted[to_random] = rng.integers(
            FIRST_CONTENT_ID, len(vocab), size=n_random, dtype=np.int64)
    return MaskedBatch(corrupted, attention_mask, selected, original)


@dataclass
class LabeledBatch:
    """Encoded inputs with per-sequence or per-position integer labels.

    ``token_ids`` and ``attention_mask`` are [batch, width]; tagging
    ``labels`` are [batch, width] too, classification labels [batch].
    ``width`` is the batch's longest row, at most the ``max_len`` the batch
    was built with (see ``make_labeled_batches``). The label count is the
    task head's.
    """

    token_ids: np.ndarray
    attention_mask: np.ndarray
    labels: np.ndarray


def label_sidecar(path) -> Path | None:
    """The ``<stem>.labels`` file beside a task file, which fixes its label
    ids, or None when there is none. An eval file's is never read: its
    labels take the training file's ids."""
    sidecar = Path(path).with_suffix(".labels")
    return sidecar if sidecar.exists() else None


def read_label_file(path) -> dict[str, int]:
    """Sidecar label inventory: line number is the label id."""
    lines = read_text(path, "label").splitlines()
    labels = [ln.strip() for ln in lines if ln.strip()]
    if not labels:
        raise DataError(f"label file is empty: {path}")
    if len(set(labels)) != len(labels):
        raise DataError(f"label file has duplicate entries: {path}")
    return {lab: i for i, lab in enumerate(labels)}


def _read_tsv(path) -> tuple[list[str], list[str]]:
    # newline="" hands the line ends to the csv reader untranslated, as csv expects
    reader = csv.reader(io.StringIO(read_text(path, "classification"), newline=""),
                        delimiter="\t")
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty classification file: {path}") from None
    if [h.strip().lower() for h in header] != ["text", "label"]:
        raise DataError(
            f"classification file must start with 'text<TAB>label', got {header!r}: {path}")
    texts, labels = [], []
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(
                f"classification record {len(texts)} needs exactly 2 fields, got {len(row)}")
        texts.append(row[0])
        labels.append(row[1])
    if not texts:
        raise DataError(f"classification file has no data rows: {path}")
    return texts, labels


def _read_conll(path) -> tuple[list[list[str]], list[list[str]]]:
    text = read_text(path, "tagging")
    sentences, tags = [], []
    cur_words: list[str] = []
    cur_tags: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if cur_words:
                sentences.append(cur_words)
                tags.append(cur_tags)
                cur_words, cur_tags = [], []
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise DataError(f"tagging line {lineno} needs 'token tag', got {stripped!r}")
        cur_words.append(parts[0])
        cur_tags.append(parts[1])
    if cur_words:
        sentences.append(cur_words)
        tags.append(cur_tags)
    if not sentences:
        raise DataError(f"tagging file has no sentences: {path}")
    return sentences, tags


def make_labeled_batches(path, vocab: Vocab, max_len: int, batch_size: int,
                         seed: int, kind: str,
                         label_map: dict[str, int] | None = None) -> tuple[list[LabeledBatch], dict[str, int]]:
    """Load a supervised file of ``kind`` "classification" or "tagging" and
    shard it into shuffled fixed-size batches.

    Classification files are TSV with a header; each text's label sits at
    its [CLS] position. Tagging files hold ``token tag`` lines with
    blank-line sentence breaks; a word's tag attaches to its first subword
    and all continuations get IGNORE_ID. A ``label_sidecar`` file fixes the
    id mapping when present; pass ``label_map`` instead to reuse a training
    inventory at eval time.

    Each batch is cut to its longest row: the columns after the last one
    any of its rows attends to hold only PAD (and IGNORE_ID labels), which
    no loss reads, so they are dropped rather than run through the encoder.
    Rows are encoded at ``max_len`` first, so truncation is unchanged.
    Masked-LM batches (``make_mlm_batch``) stay at ``max_len``: their masks
    are drawn on the full shape, and a narrower attention changes how BLAS
    rounds the small-head models' ``attn @ v``.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    if kind not in TASK_KINDS:
        raise ConfigurationError(f"kind must be 'classification' or 'tagging', got {kind!r}")

    if label_map is None and (sidecar := label_sidecar(path)) is not None:
        label_map = read_label_file(sidecar)
    # each record: its encoded sequence, its label positions, and their tags
    if kind == "classification":
        texts, tags = _read_tsv(path)
        records = [(encode(text, vocab, max_len), [0]) for text in texts]
        tags = [[tag] for tag in tags]
    else:
        sentences, tags = _read_conll(path)
        records = [encode_words(words, vocab, max_len) for words in sentences]
    if label_map is None:
        label_map = {lab: i for i, lab in enumerate(sorted({t for row in tags for t in row}))}
    for idx, row in enumerate(tags):
        for tag in row:
            if tag not in label_map:
                raise DataError(f"record {idx}: label {tag!r} not in declared label set")

    n = len(records)
    ids = np.zeros((n, max_len), dtype=np.int64)
    att = np.zeros((n, max_len), dtype=bool)
    labels = np.full((n, max_len), IGNORE_ID, dtype=np.int64)
    for i, ((seq, positions), row_tags) in enumerate(zip(records, tags)):
        ids[i], att[i] = seq.token_ids, seq.attention_mask
        for pos, tag in zip(positions, row_tags):
            if pos is not None:
                labels[i, pos] = label_map[tag]
    if kind == "classification":
        labels = labels[:, 0]

    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        take = order[start:start + batch_size]
        width = int(np.flatnonzero(att[take].any(axis=0))[-1]) + 1
        batch_labels = labels[take, :width] if labels.ndim == 2 else labels[take]
        batches.append(LabeledBatch(ids[take, :width], att[take, :width], batch_labels))
    return batches, label_map
