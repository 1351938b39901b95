"""Encoder forward pass, parameter accounting, and freezing."""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from monodistil import optim
from monodistil.autograd import (Tensor, finite_difference_check, gather_rows, matmul,
                                 no_grad, select)
from monodistil.data import make_labeled_batches
from monodistil.errors import ConfigurationError, DimensionError
from monodistil.losses import cross_entropy, cross_entropy_masked
from monodistil.model import (
    EncoderConfig,
    EncoderModel,
    Head,
    copy_embeddings_from,
    count_parameters,
    clone_model,
    encode_hidden,
    forward_mlm,
    forward_sequence_cls,
    forward_token_cls,
    init_head,
    init_random,
    model_vocab_guard,
)
from monodistil.optim import AdamW
from test_acceptance import GRAD_TOL


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
        one = count_parameters(init_random(EncoderConfig(16, 32, 1, 2, 16, 40), 0))
        two = count_parameters(init_random(EncoderConfig(16, 32, 2, 2, 16, 40), 0))
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

    def test_masked_rows_match_gathered_full_logits(self, tiny_model, tiny_cfg):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=3, seq=10, seed=7)
        rows = mask & (ids >= 5) & (np.arange(10) % 3 == 1)
        with no_grad():
            full = forward_mlm(tiny_model, ids, mask)
            picked = forward_mlm(tiny_model, ids, mask, rows=rows)
        assert picked.shape == (int(rows.sum()), tiny_cfg.vocab_size)
        np.testing.assert_allclose(picked.data, gather_rows(full, rows).data, rtol=0, atol=1e-6)

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
        head_a = init_head(tiny_cfg, "classification", ("a", "b"), seed=0)
        head_b = init_head(tiny_cfg, "classification", ("a", "b"), seed=0)
        assert (head_a.weight.data == head_b.weight.data).all()
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=4, seq=8)
        with no_grad():
            logits = forward_sequence_cls(tiny_model, head_a, ids, mask)
        assert logits.data.shape == (4, 2)

    def test_token_head_shape(self, tiny_cfg, tiny_model):
        head = init_head(tiny_cfg, "tagging", ("a", "b", "c"), seed=0)
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        with no_grad():
            logits = forward_token_cls(tiny_model, head, ids, mask)
        assert logits.data.shape == (2, 8, 3)

    def test_minimum_label_count(self, tiny_cfg):
        with pytest.raises(ConfigurationError):
            init_head(tiny_cfg, "classification", ("a",), seed=0)

    def test_head_learns_separable_toy_task(self, tiny_cfg, tiny_model, monkeypatch):
        # label equals token identity: a frozen encoder plus linear probe must fit it
        ids = np.asarray([[2, 7, 9, 7, 9, 7, 9, 3]])
        mask = np.ones((1, 8), dtype=bool)
        labels = np.where(ids == 7, 0, 1)
        content = ids >= 5
        head = init_head(tiny_cfg, "tagging", ("a", "b"), seed=3)
        monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
        opt = AdamW(head.params(), learning_rate=0.1)
        for _ in range(40):
            logits = forward_token_cls(tiny_model, head, ids, mask)
            loss = cross_entropy_masked(logits, labels, content)
            opt.zero_grad()
            loss.backward()
            opt.step()
        with no_grad():
            final = forward_token_cls(tiny_model, head, ids, mask)
        preds = final.data.argmax(axis=-1)
        assert (preds[content] == labels[content]).mean() > 0.95


def _gradients_above_tolerance(probes: dict, loss_with) -> dict:
    """Finite-difference error of each probed tensor above ``GRAD_TOL``;
    ``loss_with(probe, name=...)`` builds the loss with one tensor swapped."""
    errors = {}
    for name, tensor in probes.items():
        fn = partial(loss_with, name=name)
        errors[name] = finite_difference_check(fn, tensor, h=1e-4)
        if errors[name] > GRAD_TOL:
            # as criterion 1: a wrong gradient fails at either step size
            errors[name] = min(errors[name], finite_difference_check(fn, tensor, h=3e-5))
    return {k: v for k, v in errors.items() if not v <= GRAD_TOL}


def _assert_gradients_close(grads: dict, ref_grads: dict) -> None:
    """Every gradient within 1e-5 of its reference tensor's largest entry."""
    for name, ref in ref_grads.items():
        if ref is None:
            continue
        if name.endswith("_key_bias"):
            # softmax is shift-invariant, so the true gradient is exactly 0
            np.testing.assert_allclose(grads[name], 0.0, atol=1e-9, err_msg=name)
            np.testing.assert_allclose(ref, 0.0, atol=1e-9, err_msg=name)
        else:
            scale = float(np.abs(ref).max())
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-5 * scale,
                                       err_msg=name)


def _two_layer_cls_case(vocab_size: int, hidden: int = 16, heads: int = 2):
    """A 2-layer encoder, so both a full layer and the narrowed last layer run,
    a sequence head, and a batch whose rows carry 0, 2 and 4 PAD positions."""
    cfg = EncoderConfig(hidden_dim=hidden, intermediate_size=hidden, num_layers=2,
                        num_heads=heads, max_positions=8, vocab_size=vocab_size)
    model = init_random(cfg, seed=21)
    head = init_head(cfg, "classification", ("a", "b", "c"), seed=22)
    ids, mask = _toy_batch(vocab_size, batch=3, seq=7, seed=23, n_pad=0)
    for row, n_pad in ((1, 2), (2, 4)):
        ids[row, 6 - n_pad] = 3
        ids[row, 7 - n_pad:] = 0
        mask[row, 7 - n_pad:] = False
    return model, head, ids, mask, np.array([0, 2, 1])


def _full_path_cls(model, head, ids, mask) -> Tensor:
    """Reference: the whole last layer on every position, then the CLS row."""
    return matmul(select(encode_hidden(model, ids, mask), 1, 0), head.weight) + head.bias


class TestClsOnlyPath:
    def test_every_gradient_passes_finite_differences(self):
        model, head, ids, mask, labels = _two_layer_cls_case(vocab_size=12)
        probes = {name: t for name, t in model.params.items()
                  if not name.startswith("mlm_head")}
        probes.update(head.params())

        def loss_with(probe: Tensor, name: str) -> Tensor:
            params = dict(probes, **{name: probe})
            probed_head = Head("classification", head.labels, params.pop("head_weight"),
                               params.pop("head_bias"))
            probed = EncoderModel(model.config, dict(model.params, **params))
            return cross_entropy(forward_sequence_cls(probed, probed_head, ids, mask), labels)

        bad = _gradients_above_tolerance(probes, loss_with)
        assert not bad, f"CLS-only gradients above tolerance: {bad}"

    def test_matches_the_full_sequence_path(self, small_vocab):
        model, head, ids, mask, labels = _two_layer_cls_case(len(small_vocab), hidden=64,
                                                             heads=4)
        runs = []
        for forward in (forward_sequence_cls, _full_path_cls):
            for t in list(model.params.values()) + [head.weight, head.bias]:
                t.grad = None
            logits = forward(model, head, ids, mask)
            cross_entropy(logits, labels).backward()
            grads = {name: t.grad for name, t in
                     list(model.params.items()) + list(head.params().items())}
            runs.append((logits.data, grads))
        (cls_logits, cls_grads), (full_logits, full_grads) = runs
        np.testing.assert_allclose(cls_logits, full_logits, rtol=0, atol=1e-6)
        assert cls_grads["mlm_head_weight"] is None and full_grads["mlm_head_weight"] is None
        _assert_gradients_close(cls_grads, full_grads)


def _masked_rows_case(vocab_size: int, batch: int, seed: int):
    """Width-32 batch whose rows carry 0 to 16 PAD columns, with one sequence
    that has no masked position and one whose every real position is masked."""
    rng = np.random.Generator(np.random.PCG64(seed))
    seq = 32
    lengths = rng.integers(16, seq + 1, size=batch)
    lengths[0] = seq
    mask = np.arange(seq) < lengths[:, None]
    ids = np.where(mask, rng.integers(5, vocab_size, size=(batch, seq)), 0)
    rows = mask & (rng.random((batch, seq)) < 0.15)
    rows[0] = False
    rows[1] = mask[1]
    return ids, mask, rows


def _gathered_full_path(model, ids, mask, rows) -> Tensor:
    """Reference: the whole last layer on every position, then the rows."""
    h = gather_rows(encode_hidden(model, ids, mask), rows)
    return matmul(h, model["mlm_head_weight"]) + model["mlm_head_bias"]


class TestMaskedRowsPath:
    @pytest.mark.parametrize("batch", [8, 32])
    @pytest.mark.parametrize("hidden,layers", [(64, 2), (32, 1)])
    def test_no_grad_rows_match_the_full_path_bit_for_bit(self, small_vocab, hidden, layers,
                                                          batch):
        cfg = EncoderConfig(hidden, 4 * hidden, layers, 4, 32, len(small_vocab))
        model = init_random(cfg, seed=5)
        ids, mask, rows = _masked_rows_case(cfg.vocab_size, batch, seed=batch + hidden)
        with no_grad():
            full = forward_mlm(model, ids, mask)
            reference = _gathered_full_path(model, ids, mask, rows)
            picked = forward_mlm(model, ids, mask, rows=rows)
        assert picked.shape == (int(rows.sum()), cfg.vocab_size)
        np.testing.assert_array_equal(picked.data, reference.data)
        np.testing.assert_array_equal(picked.data, gather_rows(full, rows).data)

    @pytest.mark.parametrize("hidden", [64, 32])
    def test_one_masked_row_per_sequence_still_matches(self, small_vocab, hidden):
        # a single query row would turn the last layer's products into
        # matrix-vector ones, which round differently
        cfg = EncoderConfig(hidden, 4 * hidden, 1, 4, 32, len(small_vocab))
        model = init_random(cfg, seed=6)
        ids, mask, _ = _masked_rows_case(cfg.vocab_size, 8, seed=hidden)
        rows = np.zeros_like(mask)
        rows[np.arange(8), np.arange(8) + 3] = True
        rows[2] = False
        with no_grad():
            reference = _gathered_full_path(model, ids, mask, rows)
            picked = forward_mlm(model, ids, mask, rows=rows)
        np.testing.assert_array_equal(picked.data, reference.data)

    @pytest.mark.parametrize("hidden,layers", [(64, 2), (32, 1)])
    def test_grad_mode_rows_match_the_full_path(self, small_vocab, hidden, layers):
        cfg = EncoderConfig(hidden, 4 * hidden, layers, 4, 32, len(small_vocab))
        model = init_random(cfg, seed=7)
        ids, mask, rows = _masked_rows_case(cfg.vocab_size, 8, seed=8)
        runs = []
        for forward in (lambda: forward_mlm(model, ids, mask, rows=rows),
                        lambda: _gathered_full_path(model, ids, mask, rows)):
            for t in model.params.values():
                t.grad = None
            logits = forward()
            cross_entropy(logits, ids[rows]).backward()
            runs.append((logits.data, {n: t.grad for n, t in model.params.items()}))
        (logits, grads), (ref_logits, ref_grads) = runs
        np.testing.assert_array_equal(logits, ref_logits)
        _assert_gradients_close(grads, ref_grads)

    def test_every_gradient_passes_finite_differences(self):
        # 2 layers, so the last layer's keys and values come from a full layer;
        # the sequences hold 0, 1 and 3 masked positions, so spare slots exist
        model, _, ids, mask, _ = _two_layer_cls_case(vocab_size=12)
        rows = np.zeros_like(mask)
        rows[1, 3] = True
        rows[2, [1, 2, 0]] = True
        targets = ids[rows]

        def loss_with(probe: Tensor, name: str) -> Tensor:
            probed = EncoderModel(model.config, dict(model.params, **{name: probe}))
            return cross_entropy(forward_mlm(probed, ids, mask, rows=rows), targets)

        bad = _gradients_above_tolerance(model.params, loss_with)
        assert not bad, f"masked-rows MLM gradients above tolerance: {bad}"

    @pytest.mark.parametrize("grad", [False, True])
    def test_rows_of_the_wrong_shape_are_rejected(self, tiny_model, tiny_cfg, grad):
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        rows = np.ones((2, 7), dtype=bool)
        with pytest.raises(DimensionError), nullcontext() if grad else no_grad():
            forward_mlm(tiny_model, ids, mask, rows=rows)


class TestTrimmedTaskBatches:
    @pytest.mark.parametrize("hidden,intermediate,layers", [(64, 256, 2), (32, 128, 1)])
    def test_tagging_logits_match_the_padded_batch(self, bundle_files, small_vocab,
                                                   hidden, intermediate, layers):
        cfg = EncoderConfig(hidden, intermediate, layers, 4, 64, len(small_vocab))
        model = init_random(cfg, seed=1)
        batches, label_map = make_labeled_batches(
            bundle_files["tag_train"], small_vocab, 32, 16, 0, kind="tagging")
        head = init_head(cfg, "tagging", tuple(label_map), seed=0)
        for batch in batches:
            width = batch.token_ids.shape[1]
            assert width < 32
            ids = np.zeros((len(batch.token_ids), 32), dtype=np.int64)
            ids[:, :width] = batch.token_ids
            mask = np.zeros(ids.shape, dtype=bool)
            mask[:, :width] = batch.attention_mask
            real = batch.attention_mask
            with no_grad():
                hidden_cut = encode_hidden(model, batch.token_ids, real).data
                hidden_pad = encode_hidden(model, ids, mask).data[:, :width]
                logits_cut = forward_token_cls(model, head, batch.token_ids, real).data
                logits_pad = forward_token_cls(model, head, ids, mask).data[:, :width]
            if hidden == 64:
                # 16-wide heads: the encoder output is unchanged bit for bit
                np.testing.assert_array_equal(hidden_cut[real], hidden_pad[real])
            np.testing.assert_allclose(logits_cut[real], logits_pad[real], rtol=0, atol=1e-6)


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
        model["token_embedding"].requires_grad = False
        model["position_embedding"].requires_grad = False
        before = model["token_embedding"].data.copy()
        opt = AdamW(model.params, learning_rate=1e-2)
        ids, mask = _toy_batch(tiny_cfg.vocab_size, batch=2, seq=8)
        for _ in range(3):
            logits = forward_mlm(model, ids, mask)
            loss = cross_entropy_masked(logits, ids, mask & (ids >= 5))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert (model["token_embedding"].data == before).all()

    def test_clone_is_independent(self, tiny_cfg):
        model = init_random(tiny_cfg, seed=0)
        twin = clone_model(model)
        twin["token_embedding"].data[0, 0] += 1.0
        assert model["token_embedding"].data[0, 0] != twin["token_embedding"].data[0, 0]
