"""Distillation objective and training loops."""

import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import monodistil
from monodistil import distill, losses
from monodistil.autograd import Tensor, gather_rows
from monodistil.data import MaskedBatch, encode_corpus, make_mlm_batch
from monodistil.distill import (
    MLM_ONLY_WEIGHTS,
    DistillConfig,
    condition_teacher,
    distill_loss,
    distill_run,
    evaluate_masked,
    load_distill_config,
    pretrain_mlm,
    write_resolved_config,
)
from monodistil.errors import (
    ConfigurationError,
    DimensionError,
    NoMaskedPositionsError,
    TrainingDivergedError,
)
from monodistil.model import EncoderConfig, forward_mlm, init_random
from monodistil.tokenizer import SPECIAL_TOKENS, Vocab


def _model_hash(model):
    hasher = hashlib.sha256()
    for name in sorted(model.params):
        hasher.update(model.params[name].data.tobytes())
    return hasher.hexdigest()


def _graph(root):
    """Every tensor in the tape under ``root``."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_mlm_step_tape_holds_no_spent_gradient(small_bundle, small_vocab):
    cfg = EncoderConfig(hidden_dim=64, intermediate_size=256, num_layers=2, num_heads=4,
                        max_positions=32, vocab_size=len(small_vocab))
    model = init_random(cfg, seed=3)
    batch = make_mlm_batch(encode_corpus(small_bundle.mixed[:32], small_vocab, 32), 0.15, 5,
                           small_vocab)
    logits = forward_mlm(model, batch.token_ids, batch.attention_mask, rows=batch.mlm_mask)
    loss = distill_loss(logits, None, batch, DistillConfig(**MLM_ONLY_WEIGHTS))[0]
    nodes = _graph(loss)
    # embeddings 5, each layer 21 (bias, scale and residual adds ride inside
    # matmul and layer_norm), the last layer's gather 1, head and loss 8
    assert sum(1 for n in nodes if n._backward is not None) == 56
    loss.backward()
    assert [n for n in nodes if n._parents and n.grad is not None] == []
    assert all(p.grad is not None for p in model.params.values())


def _toy_loss_inputs(seed=0, vocab_size=7, seq=6):
    rng = np.random.Generator(np.random.PCG64(seed))
    student = Tensor(rng.normal(size=(1, seq, vocab_size)).astype(np.float32))
    teacher = Tensor(rng.normal(size=(1, seq, vocab_size)).astype(np.float32))
    ids = rng.integers(5, vocab_size, size=(1, seq))
    mask = np.zeros((1, seq), dtype=bool)
    mask[0, 1] = mask[0, 3] = True
    batch = MaskedBatch(ids.copy(), np.ones((1, seq), dtype=bool), mask, ids)
    return student, teacher, batch


@pytest.fixture(scope="module")
def fast_cfg():
    return DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)


@pytest.fixture(scope="module")
def toy_teacher(tiny_cfg):
    return init_random(tiny_cfg, seed=11)


class TestDistillLoss:
    def test_equal_logits_give_zero_kl(self):
        student, _, batch = _toy_loss_inputs()
        cfg = DistillConfig(max_len=16)
        rows = gather_rows(student, batch.mlm_mask)
        total, kl, mlm = distill_loss(rows, rows, batch, cfg)
        assert abs(float(kl.data)) < 1e-7

    def test_weighted_sum_matches_direct_computation(self):
        student, teacher, batch = _toy_loss_inputs(seed=3)
        cfg = DistillConfig(alpha_kl=0.5, alpha_mlm=0.5, temperature=2.0, max_len=16)
        rows_s = gather_rows(student, batch.mlm_mask)
        rows_t = gather_rows(teacher, batch.mlm_mask)
        total, kl, mlm = distill_loss(rows_s, rows_t, batch, cfg)
        kl_direct = float(losses.kl_divergence(rows_s, rows_t, 2.0).data) * 4.0
        mlm_direct = float(losses.cross_entropy_masked(
            student, batch.original_ids, batch.mlm_mask).data)
        assert float(kl.data) == pytest.approx(kl_direct, abs=1e-7)
        assert float(mlm.data) == pytest.approx(mlm_direct, abs=1e-7)
        assert float(total.data) == pytest.approx(0.5 * kl_direct + 0.5 * mlm_direct, abs=1e-6)

    def test_zero_kl_weight_reduces_to_masked_ce(self):
        student, _, batch = _toy_loss_inputs(seed=4)
        cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=1.0, max_len=16)
        total, kl, mlm = distill_loss(gather_rows(student, batch.mlm_mask), None, batch, cfg)
        assert float(kl.data) == 0.0
        direct = losses.cross_entropy_masked(student, batch.original_ids, batch.mlm_mask)
        assert float(total.data) == float(direct.data)
        assert float(mlm.data) == float(direct.data)

    def test_zero_mlm_weight_keeps_only_kl(self):
        student, teacher, batch = _toy_loss_inputs(seed=5)
        cfg = DistillConfig(alpha_kl=1.0, alpha_mlm=0.0, max_len=16)
        total, kl, mlm = distill_loss(gather_rows(student, batch.mlm_mask),
                                      gather_rows(teacher, batch.mlm_mask), batch, cfg)
        assert float(mlm.data) == 0.0
        assert float(total.data) == float(kl.data)

    def test_empty_mask_rejected(self):
        student, teacher, batch = _toy_loss_inputs()
        student = gather_rows(student, batch.mlm_mask)
        teacher = gather_rows(teacher, batch.mlm_mask)
        batch = MaskedBatch(batch.token_ids, batch.attention_mask,
                            np.zeros_like(batch.mlm_mask), batch.original_ids)
        with pytest.raises(NoMaskedPositionsError):
            distill_loss(student, teacher, batch, DistillConfig(max_len=16))

    def test_missing_teacher_rejected_when_kl_active(self):
        student, _, batch = _toy_loss_inputs()
        with pytest.raises(ConfigurationError):
            distill_loss(gather_rows(student, batch.mlm_mask), None, batch,
                         DistillConfig(alpha_kl=0.5, max_len=16))

    def test_shape_mismatch_rejected(self):
        student, _, batch = _toy_loss_inputs(vocab_size=7)
        bigger, _, _ = _toy_loss_inputs(vocab_size=9)
        with pytest.raises(DimensionError):
            distill_loss(gather_rows(student, batch.mlm_mask),
                         gather_rows(bigger, batch.mlm_mask), batch, DistillConfig(max_len=16))

    def test_row_count_must_match_the_mask(self):
        student, teacher, batch = _toy_loss_inputs(seed=6)
        rows_s = gather_rows(student, batch.mlm_mask)
        rows_t = gather_rows(teacher, batch.mlm_mask)
        fewer = np.zeros_like(batch.mlm_mask)
        fewer[0, 1] = True
        cfg = DistillConfig(max_len=16)
        with pytest.raises(DimensionError):
            distill_loss(student, teacher, batch, cfg)
        with pytest.raises(DimensionError):
            distill_loss(gather_rows(student, fewer), gather_rows(teacher, fewer), batch, cfg)
        with pytest.raises(DimensionError):
            distill_loss(rows_s, gather_rows(teacher, fewer), batch, cfg)
        with pytest.raises(DimensionError):
            distill_loss(rows_s, rows_t, dataclasses.replace(batch, mlm_mask=fewer), cfg)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            DistillConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            DistillConfig(alpha_kl=-0.1)
        with pytest.raises(ConfigurationError):
            DistillConfig(alpha_kl=0.0, alpha_mlm=0.0)
        with pytest.raises(ConfigurationError):
            DistillConfig(temperature=0.0)
        with pytest.raises(ConfigurationError):
            DistillConfig(mask_rate=1.0)
        with pytest.raises(ConfigurationError):
            DistillConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DistillConfig)
                                      if isinstance(f.default, float)])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            DistillConfig(**{name: value})


class TestTrainingLoops:
    def test_log_identity_holds_every_step(self, toy_teacher, tiny_cfg, small_bundle,
                                           small_vocab, fast_cfg):
        _, state = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a,
                               fast_cfg, small_vocab)
        assert state.log
        for row in state.log:
            recombined = fast_cfg.alpha_kl * row.kl + fast_cfg.alpha_mlm * row.mlm
            assert abs(row.total - recombined) <= 1e-12

    def test_log_structure(self, toy_teacher, tiny_cfg, small_bundle, small_vocab):
        cfg = DistillConfig(epochs=2, batch_size=8, max_len=16, seed=0)
        _, state = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        assert [row.step for row in state.log] == list(range(1, len(state.log) + 1))
        assert {row.epoch for row in state.log} == {1, 2}
        elapsed = [row.elapsed_seconds for row in state.log]
        assert elapsed == sorted(elapsed)
        assert all(math.isfinite(row.grad_norm) and row.grad_norm > 0 for row in state.log)
        assert all(row.n_masked > 0 for row in state.log)
        assert state.config == cfg

    def test_step_time_split(self, toy_teacher, tiny_cfg, small_bundle, small_vocab):
        """The teacher forward and the update lie inside each step's elapsed
        interval; an MLM-only run spends nothing on a teacher."""
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)
        _, distilled = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        _, pretrained = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        for state, has_teacher in ((distilled, True), (pretrained, False)):
            elapsed = [0.0] + [row.elapsed_seconds for row in state.log]
            for row, step_seconds in zip(state.log, np.diff(elapsed)):
                assert row.update_seconds > 0
                assert (row.teacher_seconds > 0) == has_teacher
                assert row.teacher_seconds + row.update_seconds <= step_seconds

    def test_zero_kl_path_matches_plain_pretraining(self, toy_teacher, tiny_cfg,
                                                    small_bundle, small_vocab):
        cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=1.0, epochs=1, batch_size=8,
                            max_len=16, seed=2)
        distilled, d_state = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a,
                                         cfg, small_vocab)
        pretrained, p_state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        assert [r.mlm for r in d_state.log] == [r.mlm for r in p_state.log]
        assert _model_hash(distilled) == _model_hash(pretrained)

    def test_teacher_is_never_modified(self, toy_teacher, tiny_cfg, small_bundle,
                                       small_vocab, fast_cfg):
        before = _model_hash(toy_teacher)
        distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg, small_vocab)
        assert _model_hash(toy_teacher) == before
        assert all(t.requires_grad for t in toy_teacher.params.values())

    def test_copy_and_freeze_pins_embeddings(self, toy_teacher, tiny_cfg, small_bundle,
                                             small_vocab, fast_cfg):
        student, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg,
                                 small_vocab, init_from_teacher="copy_and_freeze")
        assert (student["token_embedding"].data ==
                toy_teacher["token_embedding"].data).all()
        assert not student["token_embedding"].requires_grad

    def test_copy_without_freeze_lets_embeddings_move(self, toy_teacher, tiny_cfg,
                                                      small_bundle, small_vocab, fast_cfg):
        student, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg,
                                 small_vocab, init_from_teacher="copy")
        assert (student["token_embedding"].data !=
                toy_teacher["token_embedding"].data).any()

    def test_bad_init_mode_rejected(self, toy_teacher, tiny_cfg, small_bundle,
                                    small_vocab, fast_cfg):
        with pytest.raises(ConfigurationError):
            distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg,
                        small_vocab, init_from_teacher="clone")

    @pytest.mark.parametrize("mode", ["copy", "copy_and_freeze"])
    @pytest.mark.parametrize("change, message", [
        ({"hidden_dim": 32, "intermediate_size": 64},
         "student hidden_dim 32, teacher hidden_dim 16"),
        ({"max_positions": 32}, "max_positions 32 within the teacher's 16"),
    ], ids=["width", "positions"])
    def test_uncopyable_embeddings_rejected_before_the_student_is_built(
            self, toy_teacher, tiny_cfg, small_bundle, small_vocab, fast_cfg, monkeypatch,
            mode, change, message):
        built = []
        monkeypatch.setattr(distill, "init_random", lambda *args: built.append(args))
        student_cfg = dataclasses.replace(tiny_cfg, **change)
        with pytest.raises(ConfigurationError, match=message):
            distill_run(toy_teacher, student_cfg, small_bundle.lang_a, fast_cfg, small_vocab,
                        init_from_teacher=mode)
        assert built == []

    def test_same_seed_reproduces_student_exactly(self, toy_teacher, tiny_cfg,
                                                  small_bundle, small_vocab, fast_cfg):
        a, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg, small_vocab)
        b, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg, small_vocab)
        assert _model_hash(a) == _model_hash(b)

    def test_empty_corpus_rejected(self, toy_teacher, tiny_cfg, small_vocab, fast_cfg):
        with pytest.raises(ConfigurationError):
            distill_run(toy_teacher, tiny_cfg, [], fast_cfg, small_vocab)

    def test_first_step_loss_near_uniform(self, tiny_cfg, small_bundle, small_vocab):
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)
        _, state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        uniform = np.log(tiny_cfg.vocab_size)
        assert abs(state.log[0].mlm - uniform) < 0.15 * uniform

    def test_loss_decreases_over_training(self, tiny_cfg, small_bundle, small_vocab):
        cfg = DistillConfig(epochs=5, batch_size=8, max_len=16, seed=0)
        _, state = pretrain_mlm(tiny_cfg, small_bundle.mixed, cfg, small_vocab)
        first_epoch = [r.mlm for r in state.log if r.epoch == 1]
        last_epoch = [r.mlm for r in state.log if r.epoch == cfg.epochs]
        assert np.mean(last_epoch) < np.mean(first_epoch)

    def test_pretrain_forces_kl_weight_to_zero(self, tiny_cfg, small_bundle, small_vocab):
        cfg = DistillConfig(alpha_kl=0.7, alpha_mlm=0.3, epochs=1, batch_size=8,
                            max_len=16, seed=0)
        _, state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        assert state.config.alpha_kl == 0.0
        assert all(row.kl == 0.0 for row in state.log)

    def test_diverging_loss_raises_naming_the_step(self, tiny_cfg, small_bundle, small_vocab):
        cfg = DistillConfig(epochs=2, batch_size=8, max_len=16, seed=0,
                            learning_rate=1e6)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match=r"non-finite loss .* at step \d+"):
            pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)

    def test_non_finite_weights_after_last_step_raise(self, tiny_cfg, small_bundle,
                                                      small_vocab):
        # one batch, so the loss is finite and only the update overflows
        cfg = DistillConfig(epochs=1, batch_size=10_000, max_len=16, seed=0,
                            learning_rate=1e39)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match="non-finite after step 1"):
            pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)

    def test_vocab_size_mismatch_rejected(self, toy_teacher, small_bundle, small_vocab,
                                          fast_cfg, tiny_cfg):
        import dataclasses as dc
        other = dc.replace(tiny_cfg, vocab_size=tiny_cfg.vocab_size + 3)
        with pytest.raises(ConfigurationError):
            distill_run(toy_teacher, other, small_bundle.lang_a, fast_cfg, small_vocab)

    def test_max_len_beyond_positions_rejected_before_training(self, tiny_cfg, small_bundle,
                                                               small_vocab):
        # a training step would fail with DimensionError; the check comes first
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=tiny_cfg.max_positions + 1, seed=0)
        with pytest.raises(ConfigurationError, match="the trained model's max_positions"):
            pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        teacher = init_random(tiny_cfg, seed=11)
        long_student = dataclasses.replace(tiny_cfg, max_positions=cfg.max_len)
        with pytest.raises(ConfigurationError, match="the teacher's max_positions"):
            distill_run(teacher, long_student, small_bundle.lang_a, cfg, small_vocab)

    def test_clock_injection(self, tiny_cfg, small_bundle, small_vocab, monkeypatch):
        ticks = [0.0]

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)
        monkeypatch.setattr(time, "perf_counter", clock)
        _, state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        # a step reads the clock three times: before and after train_step, then elapsed
        assert [row.update_seconds for row in state.log] == [1.0] * len(state.log)
        assert [row.elapsed_seconds for row in state.log] == \
            [3.0 * i for i in range(1, len(state.log) + 1)]


class TestConditioning:
    def test_original_untouched_and_copy_improves(self, tiny_cfg, small_bundle, small_vocab):
        teacher = init_random(tiny_cfg, seed=21)
        before = _model_hash(teacher)
        cfg = DistillConfig(epochs=3, batch_size=8, max_len=16, seed=0)
        conditioned, _ = condition_teacher(teacher, small_bundle.lang_a, cfg, small_vocab)
        assert _model_hash(teacher) == before
        assert _model_hash(conditioned) != before
        base = evaluate_masked(teacher, small_bundle.heldout_a, small_vocab,
                               max_len=16, seed=5)
        tuned = evaluate_masked(conditioned, small_bundle.heldout_a, small_vocab,
                                max_len=16, seed=5)
        assert tuned["masked_ce"] <= base["masked_ce"]

    def test_loss_weights_are_mlm_only_whatever_cfg_sets(self, tiny_cfg, small_bundle,
                                                         small_vocab):
        teacher = init_random(tiny_cfg, seed=21)
        hashes = set()
        for alpha_mlm in (0.5, 1.0):
            cfg = DistillConfig(alpha_mlm=alpha_mlm, epochs=1, batch_size=8, max_len=16, seed=0)
            conditioned, state = condition_teacher(teacher, small_bundle.lang_a, cfg,
                                                   small_vocab)
            assert (state.config.alpha_kl, state.config.alpha_mlm) == (0.0, 1.0)
            hashes.add(_model_hash(conditioned))
        assert len(hashes) == 1


class TestEvaluateMasked:
    def test_deterministic_and_counts_positions(self, tiny_model, small_bundle, small_vocab):
        a = evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            max_len=16, seed=3)
        b = evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            max_len=16, seed=3)
        assert a == b
        assert a["positions"] > 0
        assert 0.0 <= a["masked_accuracy"] <= 1.0

    def test_masked_row_head_keeps_full_projection_value(self, tiny_model, small_bundle,
                                                         small_vocab):
        # the reference is what projecting every position and gathering the
        # masked rows afterwards gave on this model and corpus
        tiny_model["mlm_head_weight"].data *= 10.0
        result = evaluate_masked(tiny_model, small_bundle.lang_a, small_vocab,
                                 max_len=16, seed=3)
        assert result["positions"] == 76
        assert result["masked_ce"] == pytest.approx(5.726081647370991, abs=1e-6)

    def test_zero_rate_raises(self, tiny_model, small_bundle, small_vocab):
        with pytest.raises(NoMaskedPositionsError):
            evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            mask_rate=0.0, max_len=16)


class TestRunArtifacts:
    def test_resolved_config_round_trip(self, tmp_path):
        cfg = DistillConfig(alpha_kl=0.25, temperature=3.5, epochs=2, batch_size=4,
                            mask_rate=0.2, max_len=24)
        path = tmp_path / "config.resolved"
        write_resolved_config(cfg, path)
        assert load_distill_config(path) == cfg

    def test_overrides_win(self, tmp_path):
        write_resolved_config(DistillConfig(epochs=2, max_len=24), tmp_path / "c.ini")
        cfg = load_distill_config(tmp_path / "c.ini", overrides={"epochs": 7, "seed": None})
        assert cfg.epochs == 7
        assert cfg.seed == 0

    def test_unknown_key_rejected(self, tmp_path):
        # dropout_rate = 0.0 is the line an older config.resolved carries
        for line in ("warmup = 5", "dropout_rate = 0.0"):
            (tmp_path / "c.ini").write_text(f"[distill]\n{line}\n", encoding="utf-8")
            with pytest.raises(ConfigurationError, match="unknown config key"):
                load_distill_config(tmp_path / "c.ini")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_distill_config(tmp_path / "absent.ini")
        # a directory, or a file that is not UTF-8, is no config file either
        (tmp_path / "not_utf8.ini").write_bytes(b"[distill]\nepochs = \xff\n")
        for path, reason in ((tmp_path, "cannot be read"),
                             (tmp_path / "not_utf8.ini", "invalid UTF-8 on line 2")):
            with pytest.raises(ConfigurationError, match=reason):
                load_distill_config(path)

    def test_missing_section_rejected(self, tmp_path):
        (tmp_path / "c.ini").write_text("[other]\nepochs = 1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "c.ini")

    def test_unreadable_value_rejected(self, tmp_path):
        (tmp_path / "c.ini").write_text("[distill]\nepochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "c.ini")


# Distill steps at the CLI's default sizes: a 64-wide teacher with 256-wide
# FFNs and four heads, a 32-wide one-layer student, batch 8 of 32 tokens.
_FAULTS_PER_STEP = """
import resource
import numpy as np
from monodistil import losses
from monodistil.autograd import no_grad
from monodistil.model import EncoderConfig, forward_mlm, init_random
from monodistil.optim import AdamW, train_step

BATCH, SEQ, VOCAB = 8, 32, 252
teacher = init_random(EncoderConfig(64, 256, 2, 4, 64, VOCAB), seed=0)
student = init_random(EncoderConfig(32, 128, 1, 4, 64, VOCAB), seed=1)
optimizer = AdamW(student.params)
rng = np.random.default_rng(0)

def step(i):
    ids = rng.integers(5, VOCAB, (BATCH, SEQ))
    attention = np.arange(SEQ) < rng.integers(SEQ // 2, SEQ + 1, (BATCH, 1))
    rows = attention & (rng.random((BATCH, SEQ)) < 0.15)
    rows[:, 1] = True
    with no_grad():
        teacher_logits = forward_mlm(teacher, ids, attention, rows=rows)
    logits = forward_mlm(student, ids, attention, rows=rows)
    loss = (losses.kl_divergence(logits, teacher_logits, 2.0) * 4.0
            + losses.cross_entropy(logits, ids[rows]))
    train_step(loss, optimizer, i, 1)

for i in range(10):
    step(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(20):
    step(10 + i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_distill_steps_reuse_freed_pages():
    # by default glibc hands each step's freed arrays back to the kernel,
    # and the next step zero-fills them again: about 220 faults a step
    src = str(Path(monodistil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], capture_output=True,
                            text=True, timeout=300, env=env, check=True)
    assert float(result.stdout.split()[-1]) <= 10.0
