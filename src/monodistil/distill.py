"""Distillation and MLM training loops with a frozen teacher.

The objective is a weighted sum of two terms, both evaluated only at
masked positions: KL(student || teacher) between the vocabulary
distributions softened by temperature T, scaled by T^2, and the masked
cross entropy against the gold tokens. Setting the KL weight to zero
reduces the loop to plain MLM pretraining along the bit-identical code
path.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .autograd import Tensor, gather_rows, no_grad, parameters_finite
from .data import Corpus, MaskedBatch, encode_corpus, make_mlm_batch
from .errors import (ConfigurationError, DimensionError, NoMaskedPositionsError,
                     TrainingDivergedError)
from .model import (EncoderConfig, EncoderModel, clone_model, copy_embeddings_from,
                    forward_mlm, init_random, model_vocab_guard, set_frozen)
from .optim import AdamW, train_step
from .tokenizer import Vocab

INIT_MODES = ("none", "copy", "copy_and_freeze")


@dataclass(frozen=True)
class DistillConfig:
    alpha_kl: float = 0.5
    alpha_mlm: float = 0.5
    temperature: float = 2.0
    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 5e-3
    mask_rate: float = 0.15
    seed: int = 0
    max_len: int = 32
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    dropout_rate: float = 0.0

    def __post_init__(self):
        # NaN passes every comparison below, so reject non-finite values first
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{field.name} must be finite, got {value!r}")
        if self.alpha_kl < 0 or self.alpha_mlm < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.alpha_kl + self.alpha_mlm <= 0:
            raise ConfigurationError("at least one loss weight must be positive")
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be positive, got {self.temperature}")
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ConfigurationError(f"epochs must be a positive integer, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.mask_rate < 1.0:
            raise ConfigurationError(f"mask_rate must be in [0, 1), got {self.mask_rate}")
        if self.max_len < 3:
            raise ConfigurationError(f"max_len must be at least 3, got {self.max_len}")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class LogRow:
    step: int
    epoch: int
    total: float
    kl: float
    mlm: float
    elapsed_seconds: float


@dataclass
class TrainState:
    config: DistillConfig
    log: list[LogRow]


def distill_loss(student_logits: Tensor, teacher_logits: Tensor | None,
                 batch: MaskedBatch, cfg: DistillConfig) -> tuple[Tensor, Tensor, Tensor]:
    """Combined objective and its two parts, all scalars.

    kl is KL(student || teacher) at the configured temperature T, times
    T^2, so total = alpha_kl * kl + alpha_mlm * mlm holds as logged. A
    part whose weight is zero is not computed and comes back as 0;
    teacher_logits may be None only when alpha_kl is zero.
    """
    if not batch.mlm_mask.any():
        raise NoMaskedPositionsError("no supervised positions: every mask entry is false")
    kl_part = mlm_part = Tensor(np.zeros((), dtype=student_logits.data.dtype))
    terms = []
    if cfg.alpha_kl > 0:
        if teacher_logits is None:
            raise ConfigurationError("teacher logits are required when alpha_kl > 0")
        if student_logits.data.shape != teacher_logits.data.shape:
            raise DimensionError(
                f"student logits {student_logits.data.shape} and teacher logits "
                f"{teacher_logits.data.shape} must match")
        kl_part = losses.kl_divergence(gather_rows(student_logits, batch.mlm_mask),
                                       gather_rows(teacher_logits, batch.mlm_mask),
                                       cfg.temperature) * (cfg.temperature * cfg.temperature)
        terms.append(kl_part * cfg.alpha_kl)
    if cfg.alpha_mlm > 0:
        mlm_part = losses.cross_entropy_masked(student_logits, batch.original_ids,
                                               batch.mlm_mask)
        terms.append(mlm_part * cfg.alpha_mlm)
    return sum(terms[1:], terms[0]), kl_part, mlm_part


def _train_mlm_loop(student: EncoderModel, teacher: EncoderModel | None,
                    corpus: Corpus, cfg: DistillConfig, vocab: Vocab,
                    run_dir=None, clock=time.perf_counter) -> TrainState:
    if len(corpus.documents) == 0:
        raise ConfigurationError("cannot train on an empty corpus")
    model_vocab_guard(student, vocab)
    if teacher is not None:
        model_vocab_guard(teacher, vocab)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    dropout = (cfg.dropout_rate, np.random.Generator(np.random.PCG64(cfg.seed + 1))) \
        if cfg.dropout_rate > 0 else None
    sequences = encode_corpus(corpus, vocab, cfg.max_len)
    params = student.trainable_params()
    if not params:
        raise ConfigurationError("every student parameter group is frozen; nothing to train")
    optimizer = AdamW(params, learning_rate=cfg.learning_rate,
                      weight_decay=cfg.weight_decay)

    rows: list[LogRow] = []
    step = 0
    start = clock()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(sequences))
        for lo in range(0, len(order), cfg.batch_size):
            batch_seqs = [sequences[i] for i in order[lo:lo + cfg.batch_size]]
            mask_seed = int(rng.integers(np.iinfo(np.int64).max))
            batch = make_mlm_batch(batch_seqs, cfg.mask_rate, mask_seed, vocab)
            if not batch.mlm_mask.any():
                continue
            teacher_logits = None
            if cfg.alpha_kl > 0:
                with no_grad():
                    teacher_logits = forward_mlm(teacher, batch.token_ids,
                                                 batch.attention_mask)
            student_logits = forward_mlm(student, batch.token_ids, batch.attention_mask,
                                         dropout)
            total, kl_part, mlm_part = distill_loss(student_logits, teacher_logits, batch, cfg)
            step += 1
            train_step(total, optimizer, params, cfg.clip_norm, step, epoch)
            kl_val, mlm_val = float(kl_part.item()), float(mlm_part.item())
            rows.append(LogRow(step, epoch,
                               cfg.alpha_kl * kl_val + cfg.alpha_mlm * mlm_val,
                               kl_val, mlm_val, clock() - start))
    if not rows:
        raise ConfigurationError(
            "training produced no steps (every batch had zero masked positions)")
    if not parameters_finite(params.values()):
        raise TrainingDivergedError(f"parameters are non-finite after step {step}")
    state = TrainState(cfg, rows)
    if run_dir is not None:
        run_path = Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
        write_loss_log(state, run_path / "loss_log.csv")
        write_resolved_config(cfg, run_path / "config.resolved")
    return state


def distill_run(teacher: EncoderModel, student_cfg: EncoderConfig, corpus: Corpus,
                cfg: DistillConfig, vocab: Vocab, init_from_teacher: str = "none",
                run_dir=None, clock=time.perf_counter) -> tuple[EncoderModel, TrainState]:
    """Train a fresh student against a frozen teacher.

    ``init_from_teacher`` applies before the first step: "copy" seeds the
    student embeddings from the teacher, "copy_and_freeze" additionally
    pins them for the whole run. The teacher is frozen on entry and is
    never modified.
    """
    if init_from_teacher not in INIT_MODES:
        raise ConfigurationError(
            f"init_from_teacher must be one of {INIT_MODES}, got {init_from_teacher!r}")
    if teacher.config.vocab_size != student_cfg.vocab_size:
        raise ConfigurationError(
            f"teacher and student vocabulary sizes differ "
            f"({teacher.config.vocab_size} vs {student_cfg.vocab_size}); "
            "both sides must share one vocabulary")
    model_vocab_guard(teacher, vocab)
    set_frozen(teacher, "all", True)

    student = init_random(student_cfg, cfg.seed)
    if init_from_teacher in ("copy", "copy_and_freeze"):
        copy_embeddings_from(student, teacher)
    if init_from_teacher == "copy_and_freeze":
        set_frozen(student, "embeddings", True)

    state = _train_mlm_loop(student, teacher, corpus, cfg, vocab, run_dir, clock)
    return student, state


def _mlm_only(cfg: DistillConfig) -> DistillConfig:
    """``cfg`` with the KL weight forced to zero and a positive MLM weight."""
    return dataclasses.replace(cfg, alpha_kl=0.0, alpha_mlm=cfg.alpha_mlm or 1.0)


def pretrain_mlm(model_cfg: EncoderConfig, corpus: Corpus, cfg: DistillConfig,
                 vocab: Vocab, run_dir=None,
                 clock=time.perf_counter) -> tuple[EncoderModel, TrainState]:
    """Plain MLM training; the KL weight is forced to zero."""
    model = init_random(model_cfg, cfg.seed)
    state = _train_mlm_loop(model, None, corpus, _mlm_only(cfg), vocab, run_dir, clock)
    return model, state


def condition_teacher(teacher: EncoderModel, corpus: Corpus, cfg: DistillConfig,
                      vocab: Vocab, run_dir=None,
                      clock=time.perf_counter) -> tuple[EncoderModel, TrainState]:
    """MLM-finetune a copy of the teacher on ``corpus``; the original is untouched."""
    model_vocab_guard(teacher, vocab)
    conditioned = clone_model(teacher)
    state = _train_mlm_loop(conditioned, None, corpus, _mlm_only(cfg), vocab, run_dir, clock)
    return conditioned, state


def evaluate_masked(model: EncoderModel, corpus: Corpus, vocab: Vocab,
                    mask_rate: float = 0.15, seed: int = 0, max_len: int = 32,
                    batch_size: int = 32) -> dict:
    """Deterministic masked-prediction evaluation pass.

    Returns position-weighted mean cross entropy and top-1 accuracy over
    all masked positions, plus the position count.
    """
    model_vocab_guard(model, vocab)
    sequences = encode_corpus(corpus, vocab, max_len)
    total_ce = 0.0
    total_correct = 0
    total_positions = 0
    for i, lo in enumerate(range(0, len(sequences), batch_size)):
        batch = make_mlm_batch(sequences[lo:lo + batch_size], mask_rate,
                               seed + 7919 * i, vocab)
        n = int(batch.mlm_mask.sum())
        if n == 0:
            continue
        with no_grad():
            logits = forward_mlm(model, batch.token_ids, batch.attention_mask)
            ce = losses.cross_entropy_masked(logits, batch.original_ids, batch.mlm_mask)
        predictions = logits.data[batch.mlm_mask].argmax(axis=-1)
        gold = batch.original_ids[batch.mlm_mask]
        total_ce += float(ce.item()) * n
        total_correct += int((predictions == gold).sum())
        total_positions += n
    if total_positions == 0:
        raise NoMaskedPositionsError(
            "no supervised positions: evaluation masking selected nothing")
    return {
        "masked_ce": total_ce / total_positions,
        "masked_accuracy": total_correct / total_positions,
        "positions": total_positions,
    }


def write_loss_log(state: TrainState, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "epoch", "total", "kl", "mlm", "elapsed_seconds"])
        for row in state.log:
            writer.writerow([row.step, row.epoch, repr(row.total), repr(row.kl),
                             repr(row.mlm), repr(row.elapsed_seconds)])


def write_resolved_config(cfg: DistillConfig, path) -> None:
    parser = ConfigParser()
    parser.optionxform = str
    parser["distill"] = {f.name: str(getattr(cfg, f.name))
                         for f in dataclasses.fields(DistillConfig)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_distill_config(path, overrides: dict | None = None,
                        fixed: dict | None = None) -> DistillConfig:
    """Read a key = value config file; ``overrides`` win over file values,
    and a file value that contradicts one in ``fixed`` is an error."""
    parser = ConfigParser()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise ConfigurationError(f"unreadable config file {path}: {exc}") from exc
    if "distill" not in parser:
        raise ConfigurationError(f"config file needs a [distill] section: {path}")
    # configparser lowercases option names; match field names case-blind
    known = {f.name.lower(): f for f in dataclasses.fields(DistillConfig)}
    values: dict = {}
    for key, raw in parser["distill"].items():
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r} in {path}")
        field = known[key]
        parse = int if isinstance(field.default, int) else float
        try:
            values[field.name] = parse(raw)
        except ValueError as exc:
            raise ConfigurationError(f"config key {key!r} has unreadable value {raw!r}") from exc
    for name, value in (fixed or {}).items():
        if values.get(name, value) != value:
            raise ConfigurationError(
                f"config key {name!r} in {path} must be {value!r} here, got {values[name]!r}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return DistillConfig(**{**values, **(fixed or {})})
