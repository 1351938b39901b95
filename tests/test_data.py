"""Corpus IO, subsampling, and batch assembly."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monodistil.data import (
    IGNORE_ID,
    label_sidecar,
    load_corpus,
    make_labeled_batches,
    make_mlm_batch,
    read_label_file,
    subsample,
)
from monodistil.errors import ConfigurationError, DataError
from monodistil.tokenizer import SPECIAL_TOKENS, EncodedSequence, Vocab, encode, encode_words


def _plain_vocab(extra):
    return Vocab(list(SPECIAL_TOKENS) + list(extra))


def _content_sequences(n_seqs, n_content, content_id, max_len):
    seqs = []
    for _ in range(n_seqs):
        ids = np.zeros(max_len, dtype=np.int64)
        ids[0] = 2
        ids[1:1 + n_content] = content_id
        ids[1 + n_content] = 3
        mask = np.zeros(max_len, dtype=bool)
        mask[:n_content + 2] = True
        seqs.append(EncodedSequence(ids, mask))
    return seqs


class TestLoadCorpus:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("ka mina\n\nsoto pi\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus == ["ka mina", "soto pi"]

    def test_order_matches_file_order(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("z\na\nm\n", encoding="utf-8")
        assert load_corpus(path) == ["z", "a", "m"]

    def test_empty_file_warns_but_loads(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            corpus = load_corpus(path)
        assert len(corpus) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "absent.txt")

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"fine line\n\xff\xfe broken\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_reload_is_identical(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("ka mina\nsoto\n", encoding="utf-8")
        assert load_corpus(path) == load_corpus(path)


class TestSubsample:
    def _corpus(self, n=20):
        return [f"doc {i}" for i in range(n)]

    def test_full_fraction_is_identity(self):
        corpus = self._corpus()
        kept = subsample(corpus, 1.0, seed=0)
        assert kept == corpus

    def test_kept_count_is_floor(self):
        corpus = self._corpus(10)
        assert len(subsample(corpus, 0.55, seed=3)) == 5
        assert len(subsample(corpus, 0.09, seed=3)) == 0

    def test_order_is_preserved(self):
        corpus = self._corpus(50)
        kept = subsample(corpus, 0.4, seed=1)
        indices = [corpus.index(d) for d in kept]
        assert indices == sorted(indices)

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                subsample(self._corpus(), fraction, seed=0)

    @settings(max_examples=20)
    @given(
        f1=st.floats(min_value=0.05, max_value=0.95),
        f2=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_smaller_fraction_nests_inside_larger(self, f1, f2, seed):
        lo, hi = sorted((f1, f2))
        corpus = self._corpus(40)
        small = set(subsample(corpus, lo, seed))
        large = set(subsample(corpus, hi, seed))
        assert small <= large


class TestMakeMlmBatch:
    def test_zero_rate_masks_nothing(self):
        vocab = _plain_vocab([f"w{i}" for i in range(10)])
        seqs = _content_sequences(4, 10, content_id=7, max_len=16)
        batch = make_mlm_batch(seqs, mask_rate=0.0, seed=0, vocab=vocab)
        assert not batch.mlm_mask.any()
        assert (batch.token_ids == batch.original_ids).all()

    def test_rate_out_of_range(self):
        vocab = _plain_vocab(["w"])
        seqs = _content_sequences(1, 3, content_id=5, max_len=8)
        for rate in (-0.1, 1.0):
            with pytest.raises(ConfigurationError):
                make_mlm_batch(seqs, mask_rate=rate, seed=0, vocab=vocab)

    def test_selection_rate_matches_request(self):
        # 10_000 eligible positions; binomial 3-sigma band around 1500
        vocab = _plain_vocab([f"w{i}" for i in range(10)])
        seqs = _content_sequences(100, 100, content_id=7, max_len=104)
        batch = make_mlm_batch(seqs, mask_rate=0.15, seed=11, vocab=vocab)
        n = int(batch.mlm_mask.sum())
        sigma = np.sqrt(10_000 * 0.15 * 0.85)
        assert abs(n - 1500) < 3 * sigma

    def test_specials_and_padding_never_selected(self):
        vocab = _plain_vocab([f"w{i}" for i in range(10)])
        seqs = _content_sequences(50, 10, content_id=6, max_len=20)
        batch = make_mlm_batch(seqs, mask_rate=0.9, seed=2, vocab=vocab)
        non_content = batch.original_ids < 5
        assert not (batch.mlm_mask & non_content).any()
        assert (batch.token_ids[non_content] == batch.original_ids[non_content]).all()

    def test_unselected_positions_survive_unchanged(self):
        vocab = _plain_vocab([f"w{i}" for i in range(10)])
        seqs = _content_sequences(20, 20, content_id=8, max_len=24)
        batch = make_mlm_batch(seqs, mask_rate=0.3, seed=5, vocab=vocab)
        untouched = ~batch.mlm_mask
        assert (batch.token_ids[untouched] == batch.original_ids[untouched]).all()

    def test_corruption_split_is_80_10_10(self):
        vocab = _plain_vocab([f"w{i}" for i in range(40)])
        seqs = _content_sequences(100, 100, content_id=9, max_len=104)
        batch = make_mlm_batch(seqs, mask_rate=0.15, seed=3, vocab=vocab)
        selected = batch.mlm_mask
        n = int(selected.sum())
        frac_mask = (batch.token_ids[selected] == vocab.mask_id).mean()
        frac_same = (batch.token_ids[selected] == batch.original_ids[selected]).mean()
        assert abs(frac_mask - 0.8) < 3 * np.sqrt(0.8 * 0.2 / n)
        # kept-as-is 10% plus the sliver of random draws that hit the original
        assert abs(frac_same - 0.1) < 0.035

    def test_same_seed_reproduces_batch(self):
        vocab = _plain_vocab([f"w{i}" for i in range(10)])
        seqs = _content_sequences(8, 12, content_id=7, max_len=16)
        a = make_mlm_batch(seqs, mask_rate=0.25, seed=9, vocab=vocab)
        b = make_mlm_batch(seqs, mask_rate=0.25, seed=9, vocab=vocab)
        assert (a.token_ids == b.token_ids).all()
        assert (a.mlm_mask == b.mlm_mask).all()
        c = make_mlm_batch(seqs, mask_rate=0.25, seed=10, vocab=vocab)
        assert (a.mlm_mask != c.mlm_mask).any()

    def test_sequence_without_content_selects_nothing(self):
        vocab = _plain_vocab(["w"])
        seqs = _content_sequences(3, 0, content_id=5, max_len=8)
        batch = make_mlm_batch(seqs, mask_rate=0.9, seed=1, vocab=vocab)
        assert batch.mlm_mask.sum() == 0


@pytest.fixture
def cls_file(tmp_path):
    path = tmp_path / "toy.tsv"
    rows = [("ka mina", "pos"), ("soto pi", "neg"), ("mina mina", "pos"),
            ("pi soto", "neg"), ("ka ka", "pos")]
    path.write_text("text\tlabel\n" + "".join(f"{t}\t{l}\n" for t, l in rows),
                    encoding="utf-8")
    return path


@pytest.fixture
def word_vocab():
    return _plain_vocab(["ka", "mina", "soto", "pi"])


class TestLabeledBatches:
    def test_classification_shapes_and_labels(self, cls_file, word_vocab):
        batches, label_map = make_labeled_batches(
            cls_file, word_vocab, max_len=8, batch_size=2, seed=0, kind="classification")
        assert label_map == {"neg": 0, "pos": 1}
        assert [b.token_ids.shape[0] for b in batches] == [2, 2, 1]
        assert all(b.labels.ndim == 1 for b in batches)

    def test_sidecar_fixes_label_ids(self, cls_file, word_vocab):
        (cls_file.parent / "toy.labels").write_text("pos\nneg\n", encoding="utf-8")
        _, label_map = make_labeled_batches(
            cls_file, word_vocab, max_len=8, batch_size=2, seed=0, kind="classification")
        assert label_map == {"pos": 0, "neg": 1}

    def test_label_sidecar_is_the_stem_labels_file_when_present(self, cls_file):
        assert label_sidecar(cls_file) is None
        (cls_file.parent / "toy.labels").write_text("pos\nneg\n", encoding="utf-8")
        assert label_sidecar(cls_file) == cls_file.parent / "toy.labels"

    def test_unknown_label_names_record(self, cls_file, word_vocab):
        (cls_file.parent / "toy.labels").write_text("pos\n", encoding="utf-8")
        with pytest.raises(DataError, match="record 1"):
            make_labeled_batches(cls_file, word_vocab, max_len=8, batch_size=2, seed=0,
                                 kind="classification")

    def test_duplicate_sidecar_labels_rejected(self, tmp_path):
        path = tmp_path / "dup.labels"
        path.write_text("pos\nneg\npos\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_label_file(path)

    def test_bad_header_rejected(self, tmp_path, word_vocab):
        path = tmp_path / "bad.tsv"
        path.write_text("sentence\ttag\nka\tpos\n", encoding="utf-8")
        with pytest.raises(DataError):
            make_labeled_batches(path, word_vocab, max_len=8, batch_size=2, seed=0,
                                 kind="classification")

    def test_same_seed_same_batch_order(self, cls_file, word_vocab):
        a, _ = make_labeled_batches(cls_file, word_vocab, max_len=8, batch_size=2, seed=4,
                                    kind="classification")
        b, _ = make_labeled_batches(cls_file, word_vocab, max_len=8, batch_size=2, seed=4,
                                    kind="classification")
        for ba, bb in zip(a, b):
            assert (ba.token_ids == bb.token_ids).all()
            assert (ba.labels == bb.labels).all()

    def test_tagging_labels_land_on_first_subword(self, tmp_path):
        vocab = _plain_vocab(["a", "##b", "##c", "ka"])
        path = tmp_path / "toy.conll"
        path.write_text("abc\tB-ENT\nka\tO\n\nka\tO\n", encoding="utf-8")
        batches, label_map = make_labeled_batches(
            path, vocab, max_len=10, batch_size=4, seed=0, kind="tagging")
        assert label_map == {"B-ENT": 0, "O": 1}
        all_labels = np.concatenate([b.labels for b in batches])
        all_ids = np.concatenate([b.token_ids for b in batches])
        row = all_labels[[r for r in range(2) if (all_labels[r] == 0).any()][0]]
        ids = all_ids[[r for r in range(2) if (all_labels[r] == 0).any()][0]]
        # word "abc" splits into three pieces; tag sits on the first only
        assert row[1] == label_map["B-ENT"]
        assert row[2] == IGNORE_ID and row[3] == IGNORE_ID
        assert ids[1] == vocab.token_to_id["a"]
        assert row[4] == label_map["O"]

    def test_tagging_single_sentence_file(self, tmp_path, word_vocab):
        path = tmp_path / "one.conll"
        path.write_text("ka\tO\nmina\tB-ENT\n", encoding="utf-8")
        batches, label_map = make_labeled_batches(
            path, word_vocab, max_len=8, batch_size=4, seed=0, kind="tagging")
        assert len(batches) == 1
        # cut to the longest row: [CLS] ka mina [SEP]
        assert batches[0].labels.shape == (1, 4)

    @pytest.mark.parametrize("kind,key", [("classification", "cls_train"),
                                          ("tagging", "tag_train")])
    def test_batches_cut_to_their_longest_row_lose_nothing(self, bundle_files, small_vocab,
                                                           kind, key):
        max_len, batch_size, seed = 32, 16, 0
        batches, label_map = make_labeled_batches(
            bundle_files[key], small_vocab, max_len, batch_size, seed, kind=kind)
        # reference: every row encoded at max_len, in the seeded batch order
        text = Path(bundle_files[key]).read_text(encoding="utf-8")
        if kind == "classification":
            rows = [line.split("\t") for line in text.splitlines()[1:] if line]
            encoded = [encode(t, small_vocab, max_len) for t, _ in rows]
            ref_labels = np.array([label_map[lab] for _, lab in rows])
        else:
            blocks = [[ln.split() for ln in b.splitlines()] for b in text.strip().split("\n\n")]
            encoded, ref_labels = [], np.full((len(blocks), max_len), IGNORE_ID)
            for i, block in enumerate(blocks):
                seq, positions = encode_words([w for w, _ in block], small_vocab, max_len)
                encoded.append(seq)
                for pos, (_, tag) in zip(positions, block):
                    if pos is not None:
                        ref_labels[i, pos] = label_map[tag]
        ref_ids = np.stack([e.token_ids for e in encoded])
        ref_att = np.stack([e.attention_mask for e in encoded])
        order = np.random.Generator(np.random.PCG64(seed)).permutation(len(encoded))

        assert len(batches) == -(-len(encoded) // batch_size)
        for start, batch in zip(range(0, len(order), batch_size), batches):
            take = order[start:start + batch_size]
            width = batch.token_ids.shape[1]
            assert batch.attention_mask[:, -1].any()
            np.testing.assert_array_equal(batch.token_ids, ref_ids[take, :width])
            np.testing.assert_array_equal(batch.attention_mask, ref_att[take, :width])
            assert (ref_ids[take, width:] == small_vocab.pad_id).all()
            assert not ref_att[take, width:].any()
            if kind == "classification":
                np.testing.assert_array_equal(batch.labels, ref_labels[take])
            else:
                np.testing.assert_array_equal(batch.labels, ref_labels[take, :width])
                assert (ref_labels[take, width:] == IGNORE_ID).all()
        assert min(b.token_ids.shape[1] for b in batches) < max_len

    def test_tagging_unknown_label_names_record(self, tmp_path, word_vocab):
        path = tmp_path / "toy.conll"
        path.write_text("ka\tO\n\nmina\tB-XXX\n", encoding="utf-8")
        with pytest.raises(DataError, match="record 1"):
            make_labeled_batches(path, word_vocab, max_len=8, batch_size=2, seed=0,
                                 kind="tagging", label_map={"O": 0})

    def test_malformed_tagging_line(self, tmp_path, word_vocab):
        path = tmp_path / "toy.conll"
        path.write_text("ka O B extra\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            make_labeled_batches(path, word_vocab, max_len=8, batch_size=2, seed=0, kind="tagging")

    def test_batch_size_floor(self, cls_file, word_vocab):
        with pytest.raises(ConfigurationError):
            make_labeled_batches(cls_file, word_vocab, max_len=8, batch_size=0, seed=0,
                                 kind="classification")


# Batches recorded from make_labeled_batches when classification and tagging
# each had their own branch: (kind, file, label names in sidecar order,
# token ids per batch, labels per batch with the sidecar); with an explicit
# label_map the ids are reversed.
_PINNED_BATCHES = (
    ("classification", "toy.tsv", ("pos", "neg", "mid"),
     [[[2, 8, 5, 6, 3, 0], [2, 5, 6, 7, 10, 3]], [[2, 9, 3], [2, 10, 3]], [[2, 7, 8, 3]]],
     [[0, 2], [1, 1], [0]]),
    ("tagging", "toy.conll", ("O", "I-ENT", "B-ENT"),
     [[[2, 7, 3, 0, 0, 0], [2, 8, 5, 6, 10, 3]], [[2, 9, 3, 0], [2, 10, 9, 3]],
      [[2, 5, 6, 7, 3]]],
     [[[-100, 0, -100, -100, -100, -100], [-100, 2, 1, -100, 0, -100]],
      [[-100, 0, -100, -100], [-100, 0, 2, -100]], [[-100, 2, -100, 0, -100]]]),
)


@pytest.mark.parametrize("source", ["sidecar", "label_map"])
@pytest.mark.parametrize("kind,name,names,ids,labels", _PINNED_BATCHES,
                         ids=[case[0] for case in _PINNED_BATCHES])
def test_labeled_batches_match_the_recorded_arrays(tmp_path, kind, name, names, ids, labels,
                                                   source):
    vocab = _plain_vocab(["a", "##b", "ka", "mina", "soto", "pi"])
    rows = [("ka mina", "pos"), ("soto", "neg"), ("ab ka pi soto mina ka", "mid"),
            ("pi", "neg"), ("mina ab", "pos")]
    (tmp_path / "toy.tsv").write_text(
        "text\tlabel\n" + "".join(f"{t}\t{l}\n" for t, l in rows), encoding="utf-8")
    # the third sentence and the first text are cut at max_len 6
    (tmp_path / "toy.conll").write_text(
        "ab B-ENT\nka O\n\nsoto O\n\nmina B-ENT\nab I-ENT\npi O\nka O\n\n"
        "pi O\nsoto B-ENT\n\nka O\n", encoding="utf-8")
    label_map = None
    if source == "sidecar":
        (tmp_path / "toy.labels").write_text("\n".join(names) + "\n", encoding="utf-8")
        expected_map = {lab: i for i, lab in enumerate(names)}
    else:
        label_map = {lab: i for i, lab in enumerate(reversed(names))}
        expected_map = label_map
    batches, got_map = make_labeled_batches(tmp_path / name, vocab, max_len=6, batch_size=2,
                                            seed=3, kind=kind, label_map=label_map)
    assert got_map == expected_map
    assert len(batches) == len(ids)
    relabel = np.array([expected_map[lab] for lab in names])
    for batch, batch_ids, batch_labels in zip(batches, ids, labels):
        np.testing.assert_array_equal(batch.token_ids, batch_ids)
        np.testing.assert_array_equal(batch.attention_mask, np.array(batch_ids) != vocab.pad_id)
        batch_labels = np.array(batch_labels)
        ignored = batch_labels == IGNORE_ID
        want = np.where(ignored, IGNORE_ID, relabel[np.where(ignored, 0, batch_labels)])
        np.testing.assert_array_equal(batch.labels, want)
        assert (batch.token_ids.dtype, batch.attention_mask.dtype, batch.labels.dtype) == (
            np.int64, np.bool_, np.int64)
