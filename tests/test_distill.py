"""Distillation objective and training loops."""

import dataclasses
import hashlib

import numpy as np
import pytest

from monodistil import losses
from monodistil.autograd import Tensor, gather_rows
from monodistil.data import MaskedBatch
from monodistil.distill import (
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
from monodistil.model import init_random
from monodistil.tokenizer import SPECIAL_TOKENS, Vocab


def _model_hash(model):
    hasher = hashlib.sha256()
    for name in sorted(model.params):
        hasher.update(model.params[name].data.tobytes())
    return hasher.hexdigest()


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
        total, kl, mlm = distill_loss(student, student, batch, cfg)
        assert abs(float(kl.data)) < 1e-7

    def test_weighted_sum_matches_direct_computation(self):
        student, teacher, batch = _toy_loss_inputs(seed=3)
        cfg = DistillConfig(alpha_kl=0.5, alpha_mlm=0.5, temperature=2.0, max_len=16)
        total, kl, mlm = distill_loss(student, teacher, batch, cfg)
        rows_s = gather_rows(student, batch.mlm_mask)
        rows_t = gather_rows(teacher, batch.mlm_mask)
        kl_direct = float(losses.kl_divergence(rows_s, rows_t, 2.0).data) * 4.0
        mlm_direct = float(losses.cross_entropy_masked(
            student, batch.original_ids, batch.mlm_mask).data)
        assert float(kl.data) == pytest.approx(kl_direct, abs=1e-7)
        assert float(mlm.data) == pytest.approx(mlm_direct, abs=1e-7)
        assert float(total.data) == pytest.approx(0.5 * kl_direct + 0.5 * mlm_direct, abs=1e-6)

    def test_zero_kl_weight_reduces_to_masked_ce(self):
        student, _, batch = _toy_loss_inputs(seed=4)
        cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=1.0, max_len=16)
        total, kl, mlm = distill_loss(student, None, batch, cfg)
        assert float(kl.data) == 0.0
        direct = losses.cross_entropy_masked(student, batch.original_ids, batch.mlm_mask)
        assert float(total.data) == float(direct.data)
        assert float(mlm.data) == float(direct.data)

    def test_zero_mlm_weight_keeps_only_kl(self):
        student, teacher, batch = _toy_loss_inputs(seed=5)
        cfg = DistillConfig(alpha_kl=1.0, alpha_mlm=0.0, max_len=16)
        total, kl, mlm = distill_loss(student, teacher, batch, cfg)
        assert float(mlm.data) == 0.0
        assert float(total.data) == float(kl.data)

    def test_empty_mask_rejected(self):
        student, teacher, batch = _toy_loss_inputs()
        batch = MaskedBatch(batch.token_ids, batch.attention_mask,
                            np.zeros_like(batch.mlm_mask), batch.original_ids)
        with pytest.raises(NoMaskedPositionsError):
            distill_loss(student, teacher, batch, DistillConfig(max_len=16))

    def test_missing_teacher_rejected_when_kl_active(self):
        student, _, batch = _toy_loss_inputs()
        with pytest.raises(ConfigurationError):
            distill_loss(student, None, batch, DistillConfig(alpha_kl=0.5, max_len=16))

    def test_shape_mismatch_rejected(self):
        student, _, batch = _toy_loss_inputs(vocab_size=7)
        bigger, _, _ = _toy_loss_inputs(vocab_size=9)
        with pytest.raises(DimensionError):
            distill_loss(student, bigger, batch, DistillConfig(max_len=16))


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
        with pytest.raises(ConfigurationError):
            DistillConfig(clip_norm=0.0)

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
        assert state.config == cfg

    def test_zero_kl_path_matches_plain_pretraining(self, toy_teacher, tiny_cfg,
                                                    small_bundle, small_vocab):
        cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=0.5, epochs=1, batch_size=8,
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

    def test_copy_and_freeze_pins_embeddings(self, toy_teacher, tiny_cfg, small_bundle,
                                             small_vocab, fast_cfg):
        student, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg,
                                 small_vocab, init_from_teacher="copy_and_freeze")
        assert (student["token_embedding"].data ==
                toy_teacher["token_embedding"].data).all()
        assert "embeddings" in student.frozen_groups

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

    def test_same_seed_reproduces_student_exactly(self, toy_teacher, tiny_cfg,
                                                  small_bundle, small_vocab, fast_cfg):
        a, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg, small_vocab)
        b, _ = distill_run(toy_teacher, tiny_cfg, small_bundle.lang_a, fast_cfg, small_vocab)
        assert _model_hash(a) == _model_hash(b)

    def test_empty_corpus_rejected(self, toy_teacher, tiny_cfg, small_vocab, fast_cfg):
        from monodistil.data import Corpus
        with pytest.raises(ConfigurationError):
            distill_run(toy_teacher, tiny_cfg, Corpus([]), fast_cfg, small_vocab)

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

    def test_diverging_loss_raises_naming_the_step(self, tiny_cfg, small_bundle,
                                                   small_vocab, tmp_path):
        cfg = DistillConfig(epochs=2, batch_size=8, max_len=16, seed=0,
                            learning_rate=1e6)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match=r"non-finite loss .* at step \d+"):
            pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab,
                         run_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "loss_log.csv").exists()

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

    def test_clock_injection(self, tiny_cfg, small_bundle, small_vocab):
        ticks = [0.0]

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)
        _, state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab,
                                clock=clock)
        assert [row.elapsed_seconds for row in state.log] == \
            [float(i) for i in range(1, len(state.log) + 1)]


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

    def test_configured_dropout_rate_is_applied(self, tiny_cfg, small_bundle, small_vocab):
        teacher = init_random(tiny_cfg, seed=21)
        hashes = []
        for rate in (0.0, 0.3):
            cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0, dropout_rate=rate)
            conditioned, _ = condition_teacher(teacher, small_bundle.lang_a, cfg, small_vocab)
            hashes.append(_model_hash(conditioned))
        assert hashes[0] != hashes[1]


class TestEvaluateMasked:
    def test_deterministic_and_counts_positions(self, tiny_model, small_bundle, small_vocab):
        a = evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            max_len=16, seed=3)
        b = evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            max_len=16, seed=3)
        assert a == b
        assert a["positions"] > 0
        assert 0.0 <= a["masked_accuracy"] <= 1.0

    def test_zero_rate_raises(self, tiny_model, small_bundle, small_vocab):
        with pytest.raises(NoMaskedPositionsError):
            evaluate_masked(tiny_model, small_bundle.heldout_a, small_vocab,
                            mask_rate=0.0, max_len=16)


class TestRunArtifacts:
    def test_run_dir_files(self, tiny_cfg, small_bundle, small_vocab, tmp_path):
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)
        run = tmp_path / "run"
        _, state = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab,
                                run_dir=run)
        log_lines = (run / "loss_log.csv").read_text(encoding="utf-8").strip().splitlines()
        assert log_lines[0] == "step,epoch,total,kl,mlm,elapsed_seconds"
        assert len(log_lines) == len(state.log) + 1
        reloaded = load_distill_config(run / "config.resolved")
        assert reloaded == state.config

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
        (tmp_path / "c.ini").write_text("[distill]\nwarmup = 5\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "c.ini")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "absent.ini")

    def test_missing_section_rejected(self, tmp_path):
        (tmp_path / "c.ini").write_text("[other]\nepochs = 1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "c.ini")

    def test_unreadable_value_rejected(self, tmp_path):
        (tmp_path / "c.ini").write_text("[distill]\nepochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_distill_config(tmp_path / "c.ini")
