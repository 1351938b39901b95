"""Encoder forward pass, parameter accounting, and freezing."""

import numpy as np
import pytest

from monodistil.autograd import Tensor, no_grad
from monodistil.errors import ConfigurationError, DimensionError
from monodistil.losses import cross_entropy, cross_entropy_masked
from monodistil.model import (
    EncoderConfig,
    copy_embeddings_from,
    count_parameters,
    count_parameters_for_config,
    clone_model,
    encode_hidden,
    forward_mlm,
    forward_sequence_cls,
    forward_token_cls,
    init_head,
    init_random,
    model_vocab_guard,
    set_frozen,
)
from monodistil.optim import AdamW


def _toy_batch(vocab_size, batch=2, seq=8, seed=0, n_pad=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = rng.integers(5, vocab_size, size=(batch, seq))
    ids[:, 0] = 2
    ids[:, seq - 1 - n_pad] = 3
    ids[:, seq - n_pad:] = 0
    mask = np.ones((batch, seq), dtype=bool)
    mask[:, seq - n_pad:] = False
    return ids, mask


class TestConfigValidation:
    def test_hidden_must_divide_heads(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(30, 64, 1, 4, 16, 40)

    def test_positive_dimensions(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(0, 64, 1, 2, 16, 40)
        with pytest.raises(ConfigurationError):
            EncoderConfig(16, 64, -1, 2, 16, 40)

    def test_odd_head_dim_warns(self):
        with pytest.warns(UserWarning):
            EncoderConfig(12, 24, 1, 2, 16, 40)

    def test_more_layers_more_parameters(self):
        one = count_parameters_for_config(EncoderConfig(16, 32, 1, 2, 16, 40))
        two = count_parameters_for_config(EncoderConfig(16, 32, 2, 2, 16, 40))
        assert two > one


class TestParameterAccounting:
    def test_closed_form_single_layer_count(self):
        h, i, v, p = 16, 32, 40, 16
        cfg = EncoderConfig(h, i, 1, 2, p, v)
        expected = (
            v * h + p * h + 2 * h          # embeddings and their norm
            + 4 * (h * h + h)              # q, k, v, output projections
            + 2 * h                        # attention norm
            + h * i + i + i * h + h        # feed forward
            + 2 * h                        # ffn norm
            + h * v + v                    # mlm head
        )
        assert count_parameters_for_config(cfg) == expected
        assert count_parameters(init_random(cfg, 0)) == expected

    def test_same_seed_same_init(self, tiny_cfg):
        a = init_random(tiny_cfg, seed=7)
        b = init_random(tiny_cfg, seed=7)
        for name in a.params:
            assert (a[name].data == b[name].data).all()

    def test_different_seed_different_init(self, tiny_cfg):
        a = init_random(tiny_cfg, seed=7)
        b = init_random(tiny_cfg, seed=8)
        assert (a["token_embedding"].data != b["token_embedding"].data).any()

    def test_init_statistics(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        weights = model["token_embedding"].data
        assert np.abs(weights).max() <= 2.0 * 0.02 + 1e-7
        assert (model["embedding_norm_gain"].data == 1.0).all()
        assert (model["embedding_norm_bias"].data == 0.0).all()


class TestForward:
    def test_mlm_logit_shape(self, tiny_model, tiny_cfg):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=3, seq=10)
        with no_grad():
            logits = forward_mlm(tiny_model, ids, mask)
        assert logits.data.shape == (3, 10, tiny_cfg.vocab_size)
        assert np.isfinite(logits.data).all()

    def test_all_pad_row_stays_finite(self, tiny_model, tiny_cfg):
        ids = np.zeros((1, 6), dtype=np.int64)
        mask = np.zeros((1, 6), dtype=bool)
        with no_grad():
            logits = forward_mlm(tiny_model, ids, mask)
        assert np.isfinite(logits.data).all()

    def test_batch_order_invariance(self, tiny_model, tiny_cfg):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=9, seed=4)
        with no_grad():
            fwd = forward_mlm(tiny_model, ids, mask).data
            rev = forward_mlm(tiny_model, ids[::-1], mask[::-1]).data
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_padding_length_invariance(self, tiny_model, tiny_cfg):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8, seed=5, n_pad=0)
        longer = np.zeros((2, 14), dtype=np.int64)
        longer[:, :8] = ids
        longer_mask = np.zeros((2, 14), dtype=bool)
        longer_mask[:, :8] = True
        with no_grad():
            short_logits = forward_mlm(tiny_model, ids, mask).data
            long_logits = forward_mlm(tiny_model, longer, longer_mask).data
        np.testing.assert_allclose(long_logits[:, :8], short_logits, atol=1e-5)

    def test_untrained_masked_ce_near_uniform(self, tiny_model, tiny_cfg):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=8, seq=16, seed=6)
        mlm_mask = mask & (ids >= 5)
        with no_grad():
            logits = forward_mlm(tiny_model, ids, mask)
            ce = cross_entropy_masked(logits, ids, mlm_mask)
        uniform = np.log(tiny_cfg.vocab_size)
        assert abs(float(ce.data) - uniform) < 0.15 * uniform

    def test_input_validation(self, tiny_model, tiny_cfg):
        with pytest.raises(DimensionError):
            encode_hidden(tiny_model, np.zeros(4, dtype=np.int64), np.ones(4, dtype=bool))
        ids, mask = _toy_batch(tiny_cfg.vocab_size, seq=8)
        with pytest.raises(DimensionError):
            encode_hidden(tiny_model, ids, mask[:, :5])
        too_long = np.zeros((1, tiny_cfg.max_positions + 1), dtype=np.int64)
        with pytest.raises(DimensionError):
            encode_hidden(tiny_model, too_long, np.ones_like(too_long, dtype=bool))
        bad = ids.copy()
        bad[0, 1] = tiny_cfg.vocab_size
        with pytest.raises(DimensionError):
            encode_hidden(tiny_model, bad, mask)

    def test_vocab_guard(self, small_vocab):
        cfg = EncoderConfig(16, 32, 1, 2, 16, len(small_vocab) + 1)
        model = init_random(cfg, seed=0)
        with pytest.raises(DimensionError):
            model_vocab_guard(model, small_vocab)


class TestHeads:
    def test_head_shapes_and_determinism(self, tiny_cfg, tiny_model):
        head_a = init_head(tiny_cfg, "sequence", 2, seed=0)
        head_b = init_head(tiny_cfg, "sequence", 2, seed=0)
        assert (head_a.weight.data == head_b.weight.data).all()
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=4, seq=8)
        with no_grad():
            logits = forward_sequence_cls(tiny_model, head_a, ids, mask, num_labels=2)
        assert logits.data.shape == (4, 2)

    def test_token_head_shape(self, tiny_cfg, tiny_model):
        head = init_head(tiny_cfg, "token", 3, seed=0)
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        with no_grad():
            logits = forward_token_cls(tiny_model, head, ids, mask, num_labels=3)
        assert logits.data.shape == (2, 8, 3)

    def test_kind_mismatch_rejected(self, tiny_cfg, tiny_model):
        head = init_head(tiny_cfg, "token", 2, seed=0)
        ids, mask = _toy_batch(tiny_cfg.vocab_size)
        with pytest.raises(ConfigurationError):
            forward_sequence_cls(tiny_model, head, ids, mask, num_labels=2)

    def test_label_count_mismatch_rejected(self, tiny_cfg, tiny_model):
        head = init_head(tiny_cfg, "sequence", 2, seed=0)
        ids, mask = _toy_batch(tiny_cfg.vocab_size)
        with pytest.raises(ConfigurationError):
            forward_sequence_cls(tiny_model, head, ids, mask, num_labels=3)

    def test_minimum_label_count(self, tiny_cfg):
        with pytest.raises(ConfigurationError):
            init_head(tiny_cfg, "sequence", 1, seed=0)

    def test_head_learns_separable_toy_task(self, tiny_cfg, tiny_model):
        # label equals token identity: a frozen encoder plus linear probe must fit it
        ids = np.asarray([[2, 7, 9, 7, 9, 7, 9, 3]])
        mask = np.ones((1, 8), dtype=bool)
        labels = np.where(ids == 7, 0, 1)
        content = ids >= 5
        head = init_head(tiny_cfg, "token", 2, seed=3)
        opt = AdamW(head.params(), learning_rate=0.1, weight_decay=0.0)
        for _ in range(40):
            logits = forward_token_cls(tiny_model, head, ids, mask, num_labels=2)
            loss = cross_entropy_masked(logits, labels, content)
            opt.zero_grad()
            loss.backward()
            opt.step()
        with no_grad():
            final = forward_token_cls(tiny_model, head, ids, mask, num_labels=2)
        preds = final.data.argmax(axis=-1)
        assert (preds[content] == labels[content]).mean() > 0.95


class TestEmbeddingCopyAndFreeze:
    def test_copy_embeddings_values(self, tiny_cfg):
        teacher = init_random(tiny_cfg, seed=0)
        student = init_random(tiny_cfg, seed=1)
        assert (student["token_embedding"].data != teacher["token_embedding"].data).any()
        copy_embeddings_from(student, teacher)
        assert (student["token_embedding"].data == teacher["token_embedding"].data).all()
        assert (student["position_embedding"].data == teacher["position_embedding"].data).all()

    def test_copy_truncates_positions(self, tiny_cfg):
        teacher = init_random(tiny_cfg, seed=0)
        short_cfg = EncoderConfig(tiny_cfg.hidden_dim, tiny_cfg.intermediate_size,
                                  tiny_cfg.num_layers, tiny_cfg.num_heads, 8,
                                  tiny_cfg.vocab_size)
        student = init_random(short_cfg, seed=1)
        copy_embeddings_from(student, teacher)
        assert (student["position_embedding"].data ==
                teacher["position_embedding"].data[:8]).all()

    def test_copy_rejects_width_mismatch(self, tiny_cfg):
        teacher = init_random(tiny_cfg, seed=0)
        wide_cfg = EncoderConfig(32, 64, 1, 2, 16, tiny_cfg.vocab_size)
        student = init_random(wide_cfg, seed=1)
        with pytest.raises(DimensionError):
            copy_embeddings_from(student, teacher)

    def test_copy_rejects_vocab_mismatch(self, tiny_cfg):
        teacher = init_random(tiny_cfg, seed=0)
        other = EncoderConfig(tiny_cfg.hidden_dim, tiny_cfg.intermediate_size, 1, 2, 16,
                              tiny_cfg.vocab_size + 5)
        student = init_random(other, seed=1)
        with pytest.raises(DimensionError):
            copy_embeddings_from(student, teacher)

    def test_frozen_embeddings_stay_put(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        set_frozen(model, "embeddings", True)
        before = model["token_embedding"].data.copy()
        opt = AdamW(model.trainable_params(), learning_rate=1e-2)
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        for _ in range(3):
            logits = forward_mlm(model, ids, mask)
            loss = cross_entropy_masked(logits, ids, mask & (ids >= 5))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert (model["token_embedding"].data == before).all()
        assert "embeddings" in model.frozen_groups

    def test_unfrozen_embeddings_move(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        set_frozen(model, "embeddings", True)
        set_frozen(model, "embeddings", False)
        before = model["token_embedding"].data.copy()
        opt = AdamW(model.trainable_params(), learning_rate=1e-2)
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        logits = forward_mlm(model, ids, mask)
        loss = cross_entropy_masked(logits, ids, mask & (ids >= 5))
        loss.backward()
        opt.step()
        assert (model["token_embedding"].data != before).any()
        assert "embeddings" not in model.frozen_groups

    def test_freeze_all_empties_trainables(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        set_frozen(model, "all", True)
        assert model.trainable_params() == {}

    def test_unknown_group_rejected(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        with pytest.raises(ConfigurationError):
            set_frozen(model, "decoder", True)

    def test_clone_is_independent(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        set_frozen(model, "embeddings", True)
        twin = clone_model(model)
        assert twin.frozen_groups == set()
        twin["token_embedding"].data[0, 0] += 1.0
        assert model["token_embedding"].data[0, 0] != twin["token_embedding"].data[0, 0]
