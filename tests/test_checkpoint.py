"""Checkpoint round-trips and corruption detection."""

import configparser
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from monodistil.checkpoint import (
    checkpoint_digest,
    load_checkpoint,
    load_finetuned,
    save_checkpoint,
)
from monodistil.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointShapeError,
    VocabMismatchError,
)
from monodistil.model import init_head, init_random
from monodistil.tokenizer import SPECIAL_TOKENS, Vocab


def _rewrite_payload(path, payload: bytes, table_entry: str = "") -> None:
    """Replace the payload and record its digest, as a save would have;
    ``table_entry`` is appended to the tensor table, the manifest's last section."""
    (path / "weights.bin").write_bytes(payload)
    lines = [f"payload_sha256 = {hashlib.sha256(payload).hexdigest()}"
             if ln.startswith("payload_sha256 = ") else ln
             for ln in (path / "manifest").read_text(encoding="utf-8").splitlines()]
    (path / "manifest").write_text("\n".join(lines + [table_entry]) + "\n", encoding="utf-8")


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
        manifest = configparser.ConfigParser()
        manifest.read(saved / "manifest", encoding="utf-8")
        assert {k: int(v) for k, v in manifest["config"].items()} == \
            dataclasses.asdict(tiny_model.config)
        # the key order is part of the bytes that checkpoint_digest covers
        assert list(manifest["config"]) == ["hidden_dim", "intermediate_size", "num_layers",
                                            "num_heads", "max_positions", "vocab_size"]
        assert manifest["meta"]["seed"] == "3"
        assert manifest["meta"]["source"] == "unit-test"
        assert "head" not in manifest

    def test_manifest_with_training_keys_still_loads(self, saved, tiny_model, small_vocab):
        # manifests once also stored the dropout rate, the tied-head flag and
        # the frozen parameter groups
        manifest = saved / "manifest"
        text = manifest.read_text(encoding="utf-8")
        text = text.replace("[config]\n", "[config]\ndropout_rate = 0.1\ntie_mlm_head = false\n")
        manifest.write_text(text + "[frozen]\ngroups = embeddings\n\n", encoding="utf-8")
        text = manifest.read_text(encoding="utf-8")
        assert "tie_mlm_head = false" in text and "[frozen]" in text
        loaded = load_checkpoint(saved, small_vocab)
        assert loaded.config == tiny_model.config
        for name in tiny_model.params:
            np.testing.assert_array_equal(loaded[name].data, tiny_model[name].data)
            assert loaded[name].requires_grad, name

    def test_resave_replaces_an_existing_checkpoint(self, saved, tiny_model, small_vocab):
        tiny_model["token_embedding"].data[0, 0] += 1.0
        save_checkpoint(tiny_model, saved, small_vocab, seed=3, source="unit-test")
        loaded = load_checkpoint(saved, small_vocab)
        np.testing.assert_array_equal(loaded["token_embedding"].data,
                                      tiny_model["token_embedding"].data)
        assert [p.name for p in saved.parent.iterdir()] == [saved.name]

    def test_failed_save_keeps_the_old_checkpoint(self, saved, tiny_model, small_vocab,
                                                  monkeypatch):
        before = checkpoint_digest(saved)

        def disk_full(self, data):
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        tiny_model["token_embedding"].data[0, 0] += 1.0
        with pytest.raises(OSError):
            save_checkpoint(tiny_model, saved, small_vocab, seed=4, source="second run")
        monkeypatch.undo()
        assert checkpoint_digest(saved) == before
        load_checkpoint(saved, small_vocab)
        assert [p.name for p in saved.parent.iterdir()] == [saved.name]

    def test_directory_with_other_files_is_not_replaced(self, tmp_path, tiny_model,
                                                        small_vocab):
        notes = tmp_path / "notes.txt"
        notes.write_text("keep me", encoding="utf-8")
        with pytest.raises(CheckpointError):
            save_checkpoint(tiny_model, tmp_path, small_vocab)
        assert notes.read_text(encoding="utf-8") == "keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_frozen_groups_restored(self, tmp_path, tiny_cfg, small_vocab):
        # freezing is a run's requires_grad flags, not checkpoint state: a
        # frozen group's weights come back, and every tensor loads trainable
        model = init_random(tiny_cfg, seed=0)
        for name in ("token_embedding", "position_embedding"):
            model[name].requires_grad = False
        path = tmp_path / "frozen"
        save_checkpoint(model, path, small_vocab)
        assert "[frozen]" not in (path / "manifest").read_text(encoding="utf-8")
        loaded = load_checkpoint(path, small_vocab)
        for name in model.params:
            np.testing.assert_array_equal(loaded[name].data, model[name].data)
            assert loaded[name].requires_grad, name
        assert set(loaded.params) == set(model.params)


class TestHeadRoundTrip:
    def test_finetuned_round_trip(self, tmp_path, tiny_model, tiny_cfg, small_vocab):
        head = init_head(tiny_cfg, "sequence", ("neg", "pos"), seed=5)
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab, head=head)
        model, loaded_head = load_finetuned(path, small_vocab)
        assert loaded_head.kind == "sequence"
        assert loaded_head.labels == ("neg", "pos")
        assert loaded_head.num_labels == 2
        np.testing.assert_array_equal(loaded_head.weight.data, head.weight.data)
        np.testing.assert_array_equal(loaded_head.bias.data, head.bias.data)

    def test_label_names_round_trip(self, tmp_path, tiny_model, tiny_cfg, small_vocab):
        # names a TSV label column can hold: configparser's % interpolation,
        # commas, spaces, and non-ASCII text must all come back unchanged
        labels = ("50%", "a,b", "x y", "ñ")
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab, head=init_head(tiny_cfg, "token", labels, 0))
        _, loaded_head = load_finetuned(path, small_vocab)
        assert loaded_head.labels == labels

    def test_head_without_label_names_rejected(self, tmp_path, tiny_model, tiny_cfg,
                                               small_vocab):
        # earlier builds stored only num_labels; such a head cannot name its ids
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab,
                        head=init_head(tiny_cfg, "sequence", ("neg", "pos"), seed=5))
        manifest = path / "manifest"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join("num_labels = 2" if ln.startswith("labels = ") else ln
                                      for ln in lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError, match="label names"):
            load_finetuned(path, small_vocab)

    @pytest.mark.parametrize("edit", ["drop head_weight", "drop head_bias", "nonsense kind"])
    def test_malformed_head_section_is_corrupt(self, tmp_path, tiny_model, tiny_cfg,
                                               small_vocab, edit):
        path = tmp_path / "tuned"
        save_checkpoint(tiny_model, path, small_vocab,
                        head=init_head(tiny_cfg, "sequence", ("neg", "pos"), seed=5))
        manifest = path / "manifest"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        if edit == "nonsense kind":
            lines = ["kind = nonsense" if ln.startswith("kind = ") else ln for ln in lines]
        else:
            lines = [ln for ln in lines if not ln.startswith(edit.split()[1] + " = ")]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError, match=r"\[head\]"):
            load_finetuned(path, small_vocab)

    def test_load_finetuned_requires_head(self, saved, small_vocab):
        with pytest.raises(CheckpointCorruptError):
            load_finetuned(saved, small_vocab)

    def test_plain_load_ignores_head(self, tmp_path, tiny_model, tiny_cfg, small_vocab):
        head = init_head(tiny_cfg, "token", ("B-ENT", "I-ENT", "O"), seed=1)
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

    def test_manifest_without_payload_digest_rejected(self, saved, small_vocab):
        # the weights of such a checkpoint could not be verified
        manifest = saved / "manifest"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(ln for ln in lines if not ln.startswith("payload_sha256"))
                            + "\n", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError, match="payload_sha256"):
            load_checkpoint(saved, small_vocab)

    def test_flipped_payload_byte_rejected(self, saved, small_vocab):
        weights = saved / "weights.bin"
        payload = bytearray(weights.read_bytes())
        payload[5] ^= 0x40          # inside token_embedding, the first tensor
        weights.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptError, match="sha256"):
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

    @pytest.mark.parametrize("edit", ["alias an offset", "negative dimension",
                                      "two negative dimensions", "trailing bytes"])
    def test_table_that_does_not_tile_the_payload_rejected(self, saved, small_vocab, edit):
        manifest = saved / "manifest"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        entry = {ln.split(" = ")[0]: i for i, ln in enumerate(lines) if " @ " in ln}
        if edit == "alias an offset":
            # the bias would load the gain's ones
            gain_offset = lines[entry["embedding_norm_gain"]].split(" @ ")[1]
            bias = entry["embedding_norm_bias"]
            lines[bias] = lines[bias].split(" @ ")[0] + " @ " + gain_offset
        elif edit == "negative dimension":
            # numpy would read -1 as "the rest of the payload"
            last = entry["mlm_head_bias"]
            name, spec = lines[last].split(" = ")
            lines[last] = f"{name} = -1 @ {spec.split(' @ ')[1]}"
        elif edit == "two negative dimensions":
            # their product is the right size, so the tensor would tile
            head = entry["mlm_head_weight"]
            lines[head] = lines[head].replace(" = ", " = -", 1).replace("x", "x-", 1)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if edit == "trailing bytes":
            _rewrite_payload(saved, (saved / "weights.bin").read_bytes() + bytes(8))
        with pytest.raises(CheckpointCorruptError, match="tensor"):
            load_checkpoint(saved, small_vocab)

    def test_manifest_with_an_extra_tensor_still_loads(self, saved, tiny_model, small_vocab):
        payload = (saved / "weights.bin").read_bytes()
        _rewrite_payload(saved, payload + np.ones(6, dtype="<f4").tobytes(),
                         f"retired_tensor = 2x3 @ {len(payload)}")
        loaded = load_checkpoint(saved, small_vocab)
        for name in tiny_model.params:
            np.testing.assert_array_equal(loaded[name].data, tiny_model[name].data)

    def test_garbled_manifest_rejected(self, saved, small_vocab):
        (saved / "manifest").write_text("not an ini file at all [", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved, small_vocab)

    def test_nonexistent_directory(self, tmp_path, small_vocab):
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(tmp_path / "nowhere", small_vocab)
