"""Vocabulary training and greedy subword encoding."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from monodistil.errors import ConfigurationError, DataError, VocabularyError
from monodistil.tokenizer import (
    CONTINUATION,
    SPECIAL_TOKENS,
    Vocab,
    _merge_pair,
    _normalize,
    _word_units,
    encode,
    encode_words,
    tokenize_word,
    train_vocab,
)


def _plain_vocab(extra):
    return Vocab(list(SPECIAL_TOKENS) + list(extra))


def _rejoin(enc, vocab) -> str:
    """The text an encoding spells: its pieces between [CLS] and [SEP], each
    continuation piece joined to the piece before it."""
    pieces = [vocab.tokens[i] for i in enc.token_ids[enc.attention_mask][1:-1]]
    return " ".join(pieces).replace(" " + CONTINUATION, "")


def _full_recount_tokens(corpus, target_size):
    """The reference merge loop: recount every pair of every word per merge."""
    word_counts = Counter()
    for doc in corpus:
        word_counts.update(_normalize(doc).split())
    decomp = {word: _word_units(word) for word in word_counts}
    tokens = list(SPECIAL_TOKENS) + sorted({units[0] for units in decomp.values()})
    for unit in sorted({u for units in decomp.values() for u in units[1:]}):
        if len(tokens) >= target_size:
            break
        tokens.append(unit)
    while len(tokens) < target_size:
        pair_counts = Counter()
        for word, units in decomp.items():
            for pair in zip(units, units[1:]):
                pair_counts[pair] += word_counts[word]
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1][len(CONTINUATION):]
        decomp = {word: _merge_pair(units, best, merged) for word, units in decomp.items()}
        if merged not in tokens:
            tokens.append(merged)
    return tokens


# small alphabets make ties and overlapping pairs common; "#" meets the
# continuation marker
_corpora = st.sets(st.sampled_from("ab#cd"), min_size=2, max_size=5).flatmap(
    lambda letters: st.lists(
        st.lists(st.text(alphabet=sorted(letters), min_size=1, max_size=8),
                 min_size=1, max_size=8).map(" ".join),
        min_size=1, max_size=6))


class TestTrainVocab:
    def test_specials_occupy_first_five_ids(self):
        vocab = train_vocab(["aa ab ba"], 20)
        assert tuple(vocab.tokens[:5]) == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
        assert vocab.pad_id == 0
        assert vocab.mask_id == 4

    def test_repeated_word_gets_merged_whole(self):
        vocab = train_vocab(["aa aa aa"], 8)
        assert "aa" in vocab.token_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_vocab([], 50)
        with pytest.raises(DataError):
            train_vocab(["   ", ""], 50)

    def test_target_too_small_for_alphabet(self):
        with pytest.raises(ConfigurationError):
            train_vocab(["abcdef"], 7)

    def test_training_is_deterministic(self):
        corpus = ["ka ka mina", "mina soto ka", "soto soto pi"]
        a = train_vocab(corpus, 40)
        b = train_vocab(iter(corpus), 40)
        assert a.serialize() == b.serialize()
        assert a.content_hash() == b.content_hash()

    @settings(max_examples=300)
    @given(_corpora, st.integers(10, 80))
    def test_incremental_counts_match_a_full_recount(self, corpus, target_size):
        assert train_vocab(corpus, target_size).tokens == \
            _full_recount_tokens(corpus, target_size)

    def test_bundle_vocabulary_matches_a_full_recount(self, small_bundle):
        assert train_vocab(small_bundle.mixed, 600).tokens == \
            _full_recount_tokens(small_bundle.mixed, 600)

    def test_never_exceeds_target_size(self):
        vocab = train_vocab(["aba bab abab baba"], 12)
        assert len(vocab) <= 12


class TestVocabTable:
    def test_wrong_special_order_rejected(self):
        tokens = ["[UNK]", "[PAD]", "[CLS]", "[SEP]", "[MASK]", "a"]
        with pytest.raises(VocabularyError):
            Vocab(tokens)

    def test_duplicate_token_rejected(self):
        with pytest.raises(VocabularyError):
            _plain_vocab(["a", "b", "a"])

    def test_save_load_round_trip(self, tmp_path):
        vocab = train_vocab(["ka mina soto"], 30)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        reloaded = Vocab.load(path)
        assert reloaded.tokens == vocab.tokens
        assert reloaded.content_hash() == vocab.content_hash()

    @pytest.mark.parametrize("text, blank_id", [("a\nb\n\n", 7), ("a\n\nb\n", 6),
                                                ("a\n \nb\n", 6)])
    def test_load_rejects_a_blank_token(self, tmp_path, text, blank_id):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS) + "\n" + text, encoding="utf-8")
        with pytest.raises(VocabularyError, match=f"blank token at id {blank_id}$"):
            Vocab.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            Vocab.load(tmp_path / "absent.txt")


class TestTokenizeWord:
    def test_longest_match_wins(self):
        vocab = _plain_vocab(["ab", "a", "##b", "##c"])
        assert tokenize_word("abc", vocab) == ["ab", "##c"]

    def test_whole_word_shortcut(self):
        vocab = _plain_vocab(["abc", "ab", "a", "##b", "##c"])
        assert tokenize_word("abc", vocab) == ["abc"]

    def test_unknown_span_collapses_to_unk(self):
        vocab = _plain_vocab(["a", "##b"])
        assert tokenize_word("axb", vocab) == ["[UNK]"]

    def test_special_strings_are_not_matchable(self):
        vocab = _plain_vocab(["a"])
        assert tokenize_word("[PAD]", vocab) == ["[UNK]"]


class TestEncode:
    def test_empty_text_is_cls_sep_padding(self):
        vocab = _plain_vocab(["a"])
        enc = encode("", vocab, max_len=6)
        expected = [vocab.cls_id, vocab.sep_id, 0, 0, 0, 0]
        assert enc.token_ids.tolist() == expected
        assert enc.attention_mask.tolist() == [True, True, False, False, False, False]

    def test_padding_and_mask_shapes(self):
        vocab = _plain_vocab(["aa"])
        enc = encode("aa", vocab, max_len=8)
        assert enc.token_ids.shape == (8,)
        assert enc.attention_mask.sum() == 3
        assert enc.token_ids[enc.attention_mask].tolist() == [
            vocab.cls_id, vocab.token_to_id["aa"], vocab.sep_id]
        assert (enc.token_ids[~enc.attention_mask] == vocab.pad_id).all()

    def test_truncation_keeps_cls_and_sep(self):
        vocab = _plain_vocab(["a"])
        enc = encode("a a a a a a a a", vocab, max_len=5)
        assert enc.token_ids[0] == vocab.cls_id
        assert enc.token_ids[4] == vocab.sep_id
        assert enc.attention_mask.all()

    def test_out_of_alphabet_word_becomes_unk(self):
        vocab = _plain_vocab(["a"])
        enc = encode("zzz", vocab, max_len=6)
        assert enc.token_ids[1] == vocab.unk_id

    def test_max_len_floor(self):
        vocab = _plain_vocab(["a"])
        with pytest.raises(ConfigurationError):
            encode("a", vocab, max_len=2)

    def test_round_trip_restores_words(self):
        corpus = ["ka mina soto pi", "mina ka ka soto", "pi pi mina"]
        vocab = train_vocab(corpus, 60)
        for doc in corpus:
            enc = encode(doc, vocab, max_len=32)
            assert _rejoin(enc, vocab) == " ".join(doc.split())

    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=6))
    def test_round_trip_on_generated_text(self, words):
        doc = " ".join(words)
        vocab = train_vocab([doc], 80)
        enc = encode(doc, vocab, max_len=64)
        assert _rejoin(enc, vocab) == doc


class TestEncodeWords:
    def test_positions_point_at_first_piece(self):
        vocab = _plain_vocab(["ab", "a", "##b", "##c"])
        enc, positions = encode_words(["abc", "ab"], vocab, max_len=12)
        assert positions == [1, 3]
        assert enc.token_ids[1] == vocab.token_to_id["ab"]
        assert enc.token_ids[3] == vocab.token_to_id["ab"]

    def test_word_that_does_not_fit_maps_to_none(self):
        vocab = _plain_vocab(["a", "##a"])
        enc, positions = encode_words(["aaa", "aaa"], vocab, max_len=6)
        assert positions == [1, None]
        assert enc.token_ids[4] == vocab.sep_id

    def test_kept_words_are_a_contiguous_prefix(self):
        # the short word after the long one would fit, but keeping it would
        # leave a gap in the labelled sentence
        vocab = _plain_vocab(["a", "##a"])
        enc, positions = encode_words(["a", "aaaa", "a"], vocab, max_len=6)
        assert positions == [1, None, None]
        assert enc.token_ids[2] == vocab.sep_id
        assert int(enc.attention_mask.sum()) == 3

