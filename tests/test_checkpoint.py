"""Checkpoint round-trips and corruption detection."""

from pathlib import Path

import numpy as np
import pytest

from monodistil.checkpoint import (
    checkpoint_digest,
    load_checkpoint,
    load_finetuned,
    read_checkpoint_meta,
    save_checkpoint,
)
from monodistil.errors import (
    CheckpointCorruptError,
    CheckpointShapeError,
    VocabMismatchError,
)
from monodistil.model import init_head, init_random, set_frozen
from monodistil.tokenizer import SPECIAL_TOKENS, Vocab


@pytest.fixture
def saved(tmp_path, tiny_model, small_vocab):
    path = tmp_path / "ckpt"
    save_checkpoint(tiny_model, path, small_vocab, seed=3, source="unit-test")
    return path


class TestRoundTrip:
    def test_weights_survive_round_trip(self, saved, tiny_model, small_vocab):
        loaded = load_checkpoint(saved, small_vocab)
        assert loaded.config == tiny_model.config
        for name in tiny_model.params:
            np.testing.assert_array_equal(loaded[name].data, tiny_model[name].data)

    def test_resave_is_byte_identical(self, saved, tmp_path, small_vocab):
        loaded = load_checkpoint(saved, small_vocab)
        again = tmp_path / "ckpt2"
        save_checkpoint(loaded, again, small_vocab, seed=3, source="unit-test")
        assert (saved / "manifest").read_bytes() == (again / "manifest").read_bytes()
        assert (saved / "weights.bin").read_bytes() == (again / "weights.bin").read_bytes()
        assert checkpoint_digest(saved) == checkpoint_digest(again)

    def test_digest_tracks_weight_changes(self, saved, tiny_model, small_vocab, tmp_path):
        before = checkpoint_digest(saved)
        tiny_model["token_embedding"].data[0, 0] += 1.0
        save_checkpoint(tiny_model, tmp_path / "ckpt3", small_vocab, seed=3, source="unit-test")
        assert checkpoint_digest(tmp_path / "ckpt3") != before

    def test_meta_fields(self, saved, tiny_model):
        meta = read_checkpoint_meta(saved)
        assert meta["config"] == tiny_model.config
        assert meta["seed"] == 3
        assert meta["source"] == "unit-test"
        assert meta["head"] is None
        assert meta["frozen_groups"] == []

    def test_manifest_with_training_keys_still_loads(self, saved, tiny_model, small_vocab):
        # manifests once also stored the dropout rate and the tied-head flag
        manifest = saved / "manifest"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("[config]\n",
                                         "[config]\ndropout_rate = 0.1\ntie_mlm_head = false\n"),
                            encoding="utf-8")
        assert "tie_mlm_head = false" in manifest.read_text(encoding="utf-8")
        loaded = load_checkpoint(saved, small_vocab)
        assert loaded.config == tiny_model.config
        for name in tiny_model.params:
            np.testing.assert_array_equal(loaded[name].data, tiny_model[name].data)

    def test_frozen_groups_restored(self, tmp_path, tiny_cfg, small_vocab):
        model = init_random(tiny_cfg, seed=0)
        set_frozen(model, "embeddings", True)
        path = tmp_path / "frozen"
        save_checkpoint(model, path, small_vocab)
        loaded = load_checkpoint(path, small_vocab)
        assert loaded.frozen_groups == {"embeddings"}
        assert not loaded["token_embedding"].requires_grad
        assert loaded["embedding_norm_gain"].requires_grad


class TestHeadRoundTrip:
    def test_finetuned_round_trip(self, tmp_path, tiny_model, tiny_cfg, small_vocab):
        head = init_head(tiny_cfg, "sequence", 2, seed=5)
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab, head=head)
        model, loaded_head = load_finetuned(path, small_vocab)
        assert loaded_head.kind == "sequence"
        assert loaded_head.num_labels == 2
        np.testing.assert_array_equal(loaded_head.weight.data, head.weight.data)
        np.testing.assert_array_equal(loaded_head.bias.data, head.bias.data)

    def test_load_finetuned_requires_head(self, saved, small_vocab):
        with pytest.raises(CheckpointCorruptError):
            load_finetuned(saved, small_vocab)

    def test_plain_load_ignores_head(self, tmp_path, tiny_model, tiny_cfg, small_vocab):
        head = init_head(tiny_cfg, "token", 3, seed=1)
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab, head=head)
        model = load_checkpoint(path, small_vocab)
        assert "head_weight" not in model.params


class TestValidation:
    def test_wrong_vocab_rejected(self, saved):
        other = Vocab(list(SPECIAL_TOKENS) + ["zzz"])
        with pytest.raises(VocabMismatchError):
            load_checkpoint(saved, other)

    def test_truncated_payload_rejected(self, saved, small_vocab):
        weights = saved / "weights.bin"
        weights.write_bytes(weights.read_bytes()[:-8])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)

    def test_missing_manifest_rejected(self, saved, small_vocab):
        (saved / "manifest").unlink()
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)
        with pytest.raises(CheckpointCorruptError):
            checkpoint_digest(saved)

    def test_missing_weights_rejected(self, saved, small_vocab):
        (saved / "weights.bin").unlink()
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)

    def test_wrong_version_rejected(self, saved, small_vocab):
        manifest = (saved / "manifest").read_text(encoding="utf-8")
        (saved / "manifest").write_text(manifest.replace("version = 1", "version = 99"),
                                        encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)

    def test_missing_tensor_entry_rejected(self, saved, small_vocab):
        manifest = (saved / "manifest").read_text(encoding="utf-8")
        lines = [ln for ln in manifest.splitlines() if not ln.startswith("embedding_norm_gain")]
        (saved / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(saved, small_vocab)

    def test_garbled_manifest_rejected(self, saved, small_vocab):
        (saved / "manifest").write_text("not an ini file at all [", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)

    def test_nonexistent_directory(self, tmp_path, small_vocab):
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(tmp_path / "nowhere", small_vocab)
