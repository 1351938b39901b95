"""Synthetic bilingual corpus generator for desk-scale experiments.

Two artificial languages with disjoint surface vocabularies are sampled
from seeded order-2 Markov chains. Language A text additionally carries
two learnable downstream signals: capitalized entity words (a token
labeling task) and polarity marker words (a binary classification task).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

N_REGULAR = 44
N_ENTITY = 10
N_MARKER = 6

O_TAG, B_TAG, I_TAG = "O", "B-ENT", "I-ENT"
POS_LABEL, NEG_LABEL = "pos", "neg"

SENTENCES_PER_DOC = 2
MIN_WORDS, MAX_WORDS = 5, 12          # base words per sentence, before insertions
ENTITY_RATE = 0.10                    # chance of an entity phrase before each base word
MARKER_RATE = 0.3                     # chance that a corpus sentence carries polarity markers
TRANSITION_SHARPNESS = 0.4            # Dirichlet concentration of the successor weights
CLASSIFICATION_EXAMPLES = 800
TAGGING_EXAMPLES = 400
EVAL_FRACTION = 0.25                  # share of each task's examples held out for scoring


@dataclass(frozen=True)
class LanguageSpec:
    name: str
    consonants: str
    vowels: str
    final_consonant: bool


LANG_A = LanguageSpec("langA", "kmnpst", "aio", final_consonant=False)
LANG_B = LanguageSpec("langB", "bdgrvz", "eu", final_consonant=True)


@dataclass(frozen=True)
class SynthConfig:
    docs_per_language: int = 1000
    heldout_docs: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.docs_per_language < 1:
            raise ConfigurationError("docs_per_language must be at least 1")
        if self.heldout_docs < 0:
            raise ConfigurationError(
                f"heldout_docs must be non-negative, got {self.heldout_docs}")


@dataclass
class Language:
    """Frozen word inventory plus the transition tables that drive sampling."""

    spec: LanguageSpec
    regular: list[str]
    entities: list[str]
    markers_pos: list[str]
    markers_neg: list[str]
    next_candidates: np.ndarray = field(repr=False)
    next_weights: np.ndarray = field(repr=False)
    successor_cdf: list[float] = field(init=False, repr=False)
    successor_ids: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        # flat Python lists for draw_successor, context ctx at [4 * ctx, 4 * ctx + 4):
        # the CDF Generator.choice(4, p=row) builds (a float64 cumsum over the
        # row, divided by its last entry) and the candidate ids
        cdf = np.cumsum(self.next_weights, axis=1)
        self.successor_cdf = (cdf / cdf[:, -1:]).ravel().tolist()
        self.successor_ids = self.next_candidates.ravel().tolist()

    def draw_successor(self, ctx: int, u: float) -> int:
        """The successor of context ``ctx`` for the uniform draw ``u``.

        ``rng.choice(4, p=next_weights[ctx])`` draws one ``rng.random()``
        and picks with ``searchsorted(side="right")`` on the same CDF, so
        both pick alike from the same stream.
        """
        return self.successor_ids[bisect_right(self.successor_cdf, u, 4 * ctx, 4 * ctx + 4)]

    @property
    def all_words(self) -> list[str]:
        return self.regular + self.entities + self.markers_pos + self.markers_neg


def _syllables(spec: LanguageSpec) -> list[str]:
    return [c + v for c in spec.consonants for v in spec.vowels]


def _word_inventory(spec: LanguageSpec, rng: np.random.Generator) -> list[str]:
    """Enumerate two-syllable shapes and take a seeded-shuffle prefix."""
    syl = _syllables(spec)
    candidates = [a + b for a in syl for b in syl]
    if spec.final_consonant:
        finals = list(spec.consonants)
        candidates = [w + finals[i % len(finals)] for i, w in enumerate(candidates)]
    order = rng.permutation(len(candidates))
    needed = N_REGULAR + N_ENTITY + N_MARKER
    return [candidates[i] for i in order[:needed]]


def build_language(spec: LanguageSpec, rng: np.random.Generator) -> Language:
    """Order-2 chain with a first-order skeleton.

    The four candidate successors are a function of the previous word
    alone; how probability mass splits among them depends on the full
    two-word context. Short models can learn the skeleton quickly while
    the pair-conditioned weights reward deeper context use.
    """
    words = _word_inventory(spec, rng)
    regular = words[:N_REGULAR]
    entities = [w.capitalize() for w in words[N_REGULAR:N_REGULAR + N_ENTITY]]
    markers = words[N_REGULAR + N_ENTITY:]
    half = N_MARKER // 2

    by_last = np.zeros((N_REGULAR, 4), dtype=np.int64)
    for w2 in range(N_REGULAR):
        by_last[w2] = rng.choice(N_REGULAR, size=4, replace=False)
    n_ctx = N_REGULAR * N_REGULAR
    cand = by_last[np.arange(n_ctx) % N_REGULAR]
    # one row per context: the same draws, in the same order, as one call per row
    weights = rng.dirichlet(np.full(4, TRANSITION_SHARPNESS), size=n_ctx)
    return Language(spec, regular, entities, markers[:half], markers[half:], cand, weights)


def _sample_base_sentence(lang: Language, rng: np.random.Generator) -> list[int]:
    n = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
    out = [int(rng.integers(N_REGULAR)), int(rng.integers(N_REGULAR))]
    draw, random = lang.draw_successor, rng.random
    for _ in range(n - 2):
        out.append(draw(out[-2] * N_REGULAR + out[-1], random()))
    return out


def _insert_entities(base: list[str], lang: Language,
                     rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Independently insert an entity phrase before each base word.

    One insertion opportunity per base word keeps the entity count a
    clean binomial in the number of base words.
    """
    words: list[str] = []
    tags: list[str] = []
    random, integers = rng.random, rng.integers
    for w in base:
        if random() < ENTITY_RATE:
            phrase_len = 1 if random() < 0.7 else 2
            # k scalar draws give the values and final state of integers(size=k)
            words.extend(lang.entities[integers(N_ENTITY)] for _ in range(phrase_len))
            tags.extend([B_TAG] + [I_TAG] * (phrase_len - 1))
        words.append(w)
        tags.append(O_TAG)
    return words, tags


def _insert_markers(words: list[str], lang: Language, rng: np.random.Generator,
                    polarity: int) -> list[str]:
    pool = lang.markers_pos if polarity == 1 else lang.markers_neg
    k = int(rng.integers(1, 4))
    out = list(words)
    for _ in range(k):
        pos = int(rng.integers(len(out) + 1))
        out.insert(pos, pool[int(rng.integers(len(pool)))])
    return out


def _sample_document(lang: Language, rng: np.random.Generator) -> str:
    sentences = []
    for _ in range(SENTENCES_PER_DOC):
        base_ids = _sample_base_sentence(lang, rng)
        words, _ = _insert_entities([lang.regular[i] for i in base_ids], lang, rng)
        if rng.random() < MARKER_RATE:
            words = _insert_markers(words, lang, rng, int(rng.integers(2)))
        sentences.append(" ".join(words))
    return " ".join(sentences)


@dataclass
class SynthBundle:
    """Everything one seed produces: corpora, held-out text, and task splits."""

    lang_a: list[str]
    lang_b: list[str]
    mixed: list[str]
    heldout_a: list[str]
    cls_train: list[tuple[str, str]]
    cls_eval: list[tuple[str, str]]
    tag_train: list[tuple[list[str], list[str]]]
    tag_eval: list[tuple[list[str], list[str]]]


def generate_bundle(config: SynthConfig) -> SynthBundle:
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lang_a = build_language(LANG_A, rng)
    lang_b = build_language(LANG_B, rng)

    docs_a = [_sample_document(lang_a, rng) for _ in range(config.docs_per_language)]
    heldout = [_sample_document(lang_a, rng) for _ in range(config.heldout_docs)]
    docs_b = [_sample_document(lang_b, rng) for _ in range(config.docs_per_language)]

    mixed: list[str] = []
    for a, b in zip(docs_a, docs_b):
        mixed.append(a)
        mixed.append(b)

    cls_rows: list[tuple[str, str]] = []
    for _ in range(CLASSIFICATION_EXAMPLES):
        polarity = int(rng.integers(2))
        base_ids = _sample_base_sentence(lang_a, rng)
        words, _ = _insert_entities([lang_a.regular[i] for i in base_ids], lang_a, rng)
        words = _insert_markers(words, lang_a, rng, polarity)
        cls_rows.append((" ".join(words), POS_LABEL if polarity == 1 else NEG_LABEL))

    tag_rows: list[tuple[list[str], list[str]]] = []
    for _ in range(TAGGING_EXAMPLES):
        base_ids = _sample_base_sentence(lang_a, rng)
        words, tags = _insert_entities([lang_a.regular[i] for i in base_ids], lang_a, rng)
        tag_rows.append((words, tags))

    n_cls_eval = int(CLASSIFICATION_EXAMPLES * EVAL_FRACTION)
    n_tag_eval = int(TAGGING_EXAMPLES * EVAL_FRACTION)
    return SynthBundle(
        lang_a=docs_a, lang_b=docs_b, mixed=mixed, heldout_a=heldout,
        cls_train=cls_rows[n_cls_eval:],
        cls_eval=cls_rows[:n_cls_eval],
        tag_train=tag_rows[n_tag_eval:],
        tag_eval=tag_rows[:n_tag_eval],
    )


def write_tsv(rows: list[tuple[str, str]], path) -> None:
    lines = ["text\tlabel"] + [f"{text}\t{label}" for text, label in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_conll(rows: list[tuple[list[str], list[str]]], path) -> None:
    blocks = ["\n".join(f"{w} {t}" for w, t in zip(words, tags)) for words, tags in rows]
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def write_bundle(bundle: SynthBundle, out_dir) -> dict[str, str]:
    """Write every bundle component under ``out_dir`` with canonical names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "lang_a": out / "corpus_a.txt",
        "lang_b": out / "corpus_b.txt",
        "mixed": out / "corpus_mixed.txt",
        "heldout_a": out / "heldout_a.txt",
        "cls_train": out / "cls_train.tsv",
        "cls_eval": out / "cls_eval.tsv",
        "tag_train": out / "tag_train.conll",
        "tag_eval": out / "tag_eval.conll",
    }
    for key in ("lang_a", "lang_b", "mixed", "heldout_a"):
        paths[key].write_text("\n".join(getattr(bundle, key)) + "\n", encoding="utf-8")
    write_tsv(bundle.cls_train, paths["cls_train"])
    write_tsv(bundle.cls_eval, paths["cls_eval"])
    write_conll(bundle.tag_train, paths["tag_train"])
    write_conll(bundle.tag_eval, paths["tag_eval"])
    for stem in ("cls_train", "cls_eval"):
        label_path = paths[stem].with_suffix(".labels")
        label_path.write_text(f"{NEG_LABEL}\n{POS_LABEL}\n", encoding="utf-8")
        paths[f"{stem}_labels"] = label_path
    return {k: str(v) for k, v in paths.items()}
