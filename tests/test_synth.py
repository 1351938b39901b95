"""Synthetic bilingual corpus generator."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from monodistil.errors import ConfigurationError
from monodistil.synth import (
    LANG_A,
    LANG_B,
    N_ENTITY,
    N_MARKER,
    N_REGULAR,
    SynthConfig,
    build_language,
    generate_bundle,
    write_bundle,
)
from monodistil.tokenizer import train_vocab

# sha256 of what write_bundle writes for SynthConfig(40, 10, 0), and of
# train_vocab(bundle.mixed, 600): any change to a draw or a merge moves them
BUNDLE_SHA256 = {
    "cls_eval.labels": "458edcebf7960188247acd5b791dcf80ef6a597c1974592cb3a98d36450a2a58",
    "cls_eval.tsv": "c4dd4ae4e846c9b746d54d2e986f06a36d8605e733d771a10a515ebb0b55297d",
    "cls_train.labels": "458edcebf7960188247acd5b791dcf80ef6a597c1974592cb3a98d36450a2a58",
    "cls_train.tsv": "71cc191d6631cce9b4f329da917c57f6d2f870e3953a1922d90a9b0cc75e4c54",
    "corpus_a.txt": "b07863276764410d0d1942d221170176e23d12da2ea4c4b516d2ac2202ed0765",
    "corpus_b.txt": "9baeb0f54b008213d4359f1dd223567fbb1147b3186a4e567481eba8cb6e44ca",
    "corpus_mixed.txt": "0b2d01d267489e57f7783f4736b15b6d48e0df104f3198eed49d26e65f242817",
    "heldout_a.txt": "982608aac90ef6eddeb9975301d8473c61c19fa41639fe56d18cedbce69ffd57",
    "tag_eval.conll": "a5d94d2d15725c6d1c50e76214559bf9ba6e78951427b2c0c8889f4b938f3f18",
    "tag_train.conll": "d1be413e9ba4c93345ce24a396854c3b426d0044ae566eb7e2ffac89ab7ddfc2",
}
VOCAB_SHA256 = "8d4f2d89b0fa71e823639231bb3ea5bce6fd474894f53f92a2012af951b0d162"


def _words_of(corpus):
    out = set()
    for doc in corpus:
        out.update(doc.split())
    return out


class TestLanguageInventory:
    def test_word_type_budget(self):
        rng = np.random.Generator(np.random.PCG64(0))
        lang = build_language(LANG_A, rng)
        assert len(lang.regular) == N_REGULAR
        assert len(lang.entities) == N_ENTITY
        assert len(lang.markers_pos) + len(lang.markers_neg) == N_MARKER
        assert len(set(lang.all_words)) == N_REGULAR + N_ENTITY + N_MARKER

    def test_entities_are_capitalized(self):
        rng = np.random.Generator(np.random.PCG64(1))
        lang = build_language(LANG_B, rng)
        assert all(w[0].isupper() for w in lang.entities)
        assert all(w[0].islower() for w in lang.regular)

    def test_transition_weights_are_distributions(self):
        rng = np.random.Generator(np.random.PCG64(2))
        lang = build_language(LANG_A, rng)
        assert lang.next_weights.shape == (N_REGULAR * N_REGULAR, 4)
        np.testing.assert_allclose(lang.next_weights.sum(axis=1), 1.0, atol=1e-9)
        # candidate successors depend on the last word only
        ctx_a = 3 * N_REGULAR + 17
        ctx_b = 40 * N_REGULAR + 17
        assert (lang.next_candidates[ctx_a] == lang.next_candidates[ctx_b]).all()


class TestSuccessorTable:
    @pytest.mark.parametrize("spec", [LANG_A, LANG_B])
    def test_table_draw_matches_generator_choice(self, spec):
        """On twin generators, every context picks what ``rng.choice`` picks
        and leaves the generator in the same state."""
        lang = build_language(spec, np.random.Generator(np.random.PCG64(4)))
        by_choice = np.random.Generator(np.random.PCG64(11))
        by_table = np.random.Generator(np.random.PCG64(11))
        for _ in range(3):
            for ctx in range(N_REGULAR * N_REGULAR):
                pick = by_choice.choice(4, p=lang.next_weights[ctx])
                expected = int(lang.next_candidates[ctx, pick])
                assert lang.draw_successor(ctx, by_table.random()) == expected
        assert by_table.bit_generator.state == by_choice.bit_generator.state

    def test_scalar_entity_draws_match_one_sized_draw(self):
        """k scalar ``integers`` calls give the values of one ``integers(size=k)``
        call and leave the generator in the same state, as entity phrases rely on."""
        lengths = np.random.Generator(np.random.PCG64(3)).integers(1, 3, size=5000)
        by_size = np.random.Generator(np.random.PCG64(12))
        by_scalar = np.random.Generator(np.random.PCG64(12))
        for k in lengths.tolist():
            want = by_size.integers(N_ENTITY, size=k).tolist()
            assert [int(by_scalar.integers(N_ENTITY)) for _ in range(k)] == want
            assert by_scalar.bit_generator.state == by_size.bit_generator.state


class TestBundleShape:
    def test_split_sizes(self, small_bundle):
        assert len(small_bundle.lang_a) == 40
        assert len(small_bundle.lang_b) == 40
        assert len(small_bundle.mixed) == 80
        assert len(small_bundle.heldout_a) == 10
        assert len(small_bundle.cls_eval) == 200
        assert len(small_bundle.cls_train) == 600
        assert len(small_bundle.tag_eval) == 100
        assert len(small_bundle.tag_train) == 300

    def test_mixed_interleaves_languages(self, small_bundle):
        assert small_bundle.mixed[0] == small_bundle.lang_a[0]
        assert small_bundle.mixed[1] == small_bundle.lang_b[0]

    def test_surface_vocabularies_are_disjoint(self, small_bundle):
        words_a = {w.lower() for w in _words_of(small_bundle.lang_a)}
        words_b = {w.lower() for w in _words_of(small_bundle.lang_b)}
        assert words_a and words_b
        assert not words_a & words_b

    def test_language_alphabets(self, small_bundle):
        chars_a = {c for w in _words_of(small_bundle.lang_a) for c in w.lower()}
        chars_b = {c for w in _words_of(small_bundle.lang_b) for c in w.lower()}
        assert chars_a <= set(LANG_A.consonants + LANG_A.vowels)
        assert chars_b <= set(LANG_B.consonants + LANG_B.vowels)


class TestDeterminism:
    def test_same_seed_same_bundle(self):
        cfg = SynthConfig(docs_per_language=15, heldout_docs=5, seed=9)
        a = generate_bundle(cfg)
        b = generate_bundle(cfg)
        assert a.lang_a == b.lang_a
        assert a.lang_b == b.lang_b
        assert a.cls_train == b.cls_train
        assert a.tag_eval == b.tag_eval

    def test_different_seed_different_text(self):
        a = generate_bundle(SynthConfig(docs_per_language=15, heldout_docs=5, seed=1))
        b = generate_bundle(SynthConfig(docs_per_language=15, heldout_docs=5, seed=2))
        assert a.lang_a != b.lang_a

    def test_write_bundle_byte_identical(self, small_bundle, tmp_path):
        first = write_bundle(small_bundle, tmp_path / "one")
        second = write_bundle(small_bundle, tmp_path / "two")
        for key in first:
            assert Path(first[key]).read_bytes() == Path(second[key]).read_bytes()

    def test_pinned_bundle_and_vocabulary(self, small_bundle, tmp_path):
        paths = write_bundle(small_bundle, tmp_path / "out")
        written = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                   for p in paths.values()}
        assert written == BUNDLE_SHA256
        assert train_vocab(small_bundle.mixed, 600).content_hash() == VOCAB_SHA256

    def test_write_bundle_canonical_names(self, small_bundle, tmp_path):
        paths = write_bundle(small_bundle, tmp_path / "out")
        names = {Path(p).name for p in paths.values()}
        assert {"corpus_a.txt", "corpus_b.txt", "corpus_mixed.txt", "heldout_a.txt",
                "cls_train.tsv", "cls_eval.tsv", "tag_train.conll", "tag_eval.conll",
                "cls_train.labels", "cls_eval.labels"} == names


class TestTaggingRows:
    def test_entity_rate_matches_config(self, small_bundle):
        rows = small_bundle.tag_train + small_bundle.tag_eval
        n_b = sum(tags.count("B-ENT") for _, tags in rows)
        n_opportunities = sum(tags.count("O") for _, tags in rows)
        sigma = np.sqrt(n_opportunities * 0.10 * 0.90)
        assert abs(n_b - 0.10 * n_opportunities) < 3 * sigma

    def test_tag_inventory_and_phrase_structure(self, small_bundle):
        for words, tags in small_bundle.tag_train + small_bundle.tag_eval:
            assert len(words) == len(tags)
            assert set(tags) <= {"O", "B-ENT", "I-ENT"}
            for i, tag in enumerate(tags):
                if tag == "I-ENT":
                    assert tags[i - 1] == "B-ENT"
                if tag in ("B-ENT", "I-ENT"):
                    assert words[i][0].isupper()
                else:
                    assert words[i][0].islower()


class TestClassificationRows:
    def test_marker_pools_are_pure(self, small_bundle):
        rows = small_bundle.cls_train + small_bundle.cls_eval
        pos_words = {w for text, lab in rows if lab == "pos" for w in text.split()}
        neg_words = {w for text, lab in rows if lab == "neg" for w in text.split()}
        pos_only = pos_words - neg_words
        neg_only = neg_words - pos_words
        # shared filler saturates both classes, so the leftovers are the markers
        assert len(pos_only) == N_MARKER // 2
        assert len(neg_only) == N_MARKER // 2
        for text, lab in rows:
            words = text.split()
            marker_hits = [w for w in words if w in (pos_only if lab == "pos" else neg_only)]
            foreign = [w for w in words if w in (neg_only if lab == "pos" else pos_only)]
            assert 1 <= len(marker_hits) <= 3
            assert not foreign

    def test_labels_are_binary(self, small_bundle):
        labels = {lab for _, lab in small_bundle.cls_train + small_bundle.cls_eval}
        assert labels == {"pos", "neg"}


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(docs_per_language=0)
        with pytest.raises(ConfigurationError):
            SynthConfig(heldout_docs=-1)
