"""Distillation and MLM training loops with a frozen teacher.

The objective is a weighted sum of two terms, both evaluated only at
masked positions: KL(student || teacher) between the vocabulary
distributions softened by temperature T, scaled by T^2, and the masked
cross entropy against the gold tokens. The paper's abstract (PAPER.md)
names no KL direction; this one is the package's choice. Setting the
weights to ``MLM_ONLY_WEIGHTS`` reduces the loop to plain MLM pretraining
along the bit-identical code path.

The loops write no files: they return a ``TrainState``, which
``write_loss_log`` and ``write_resolved_config`` turn into a run's
``loss_log.csv`` and ``config.resolved``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import time
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass

import numpy as np

from . import losses
from .autograd import Tensor, no_grad, parameters_finite
from .data import MaskedBatch, encode_corpus, make_mlm_batch
from .errors import (ConfigurationError, DimensionError, NoMaskedPositionsError,
                     TrainingDivergedError, read_text)
from .model import (EncoderConfig, EncoderModel, check_max_len, clone_model,
                    copy_embeddings_from, forward_mlm, init_random, model_vocab_guard)
from .optim import AdamW, train_step
from .tokenizer import Vocab

INIT_MODES = ("none", "copy", "copy_and_freeze")
# pretraining and teacher conditioning train on the MLM loss alone, at weight 1
MLM_ONLY_WEIGHTS = {"alpha_kl": 0.0, "alpha_mlm": 1.0}


def check_training_settings(settings) -> None:
    """The validation ``DistillConfig`` and ``TaskSpec`` share."""
    # NaN passes every comparison below, so reject non-finite values first
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{field.name} must be finite, got {value!r}")
    if not isinstance(settings.epochs, int) or settings.epochs < 1:
        raise ConfigurationError(f"epochs must be a positive integer, got {settings.epochs!r}")
    if settings.batch_size < 1:
        raise ConfigurationError(f"batch_size must be positive, got {settings.batch_size}")
    if settings.learning_rate <= 0:
        raise ConfigurationError(f"learning_rate must be positive, got {settings.learning_rate}")
    if settings.seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {settings.seed}")


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

    def __post_init__(self):
        check_training_settings(self)
        if self.alpha_kl < 0 or self.alpha_mlm < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.alpha_kl + self.alpha_mlm <= 0:
            raise ConfigurationError("at least one loss weight must be positive")
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.mask_rate < 1.0:
            raise ConfigurationError(f"mask_rate must be in [0, 1), got {self.mask_rate}")
        if self.max_len < 3:
            raise ConfigurationError(f"max_len must be at least 3, got {self.max_len}")


@dataclass
class LogRow:
    step: int
    epoch: int
    total: float
    kl: float
    mlm: float
    grad_norm: float          # global L2 norm of the gradients before clipping
    n_masked: int             # masked positions the step's loss covers
    teacher_seconds: float    # the no-grad teacher forward; 0 when alpha_kl is 0
    update_seconds: float     # train_step: backward, clip, AdamW, release
    elapsed_seconds: float


@dataclass
class TrainState:
    config: DistillConfig
    log: list[LogRow]


def distill_loss(student_logits: Tensor, teacher_logits: Tensor | None,
                 batch: MaskedBatch, cfg: DistillConfig) -> tuple[Tensor, Tensor, Tensor]:
    """Combined objective and its two parts, all scalars.

    The logits are [n_masked, vocab] rows at ``batch.mlm_mask``, as
    ``forward_mlm(..., rows=batch.mlm_mask)`` returns them. kl is
    KL(student || teacher) at the configured temperature T, times T^2, so
    total = alpha_kl * kl + alpha_mlm * mlm holds as logged. A part whose
    weight is zero is not computed and comes back as 0; teacher_logits
    may be None only when alpha_kl is zero.
    """
    n_masked = int(batch.mlm_mask.sum())
    if n_masked == 0:
        raise NoMaskedPositionsError("no supervised positions: every mask entry is false")
    if student_logits.ndim != 2 or student_logits.shape[0] != n_masked:
        raise DimensionError(
            f"student logits {student_logits.shape} must be [{n_masked}, vocab], "
            "one row per masked position")
    kl_part = mlm_part = Tensor(np.zeros((), dtype=student_logits.data.dtype))
    terms = []
    if cfg.alpha_kl > 0:
        if teacher_logits is None:
            raise ConfigurationError("teacher logits are required when alpha_kl > 0")
        if student_logits.shape != teacher_logits.shape:
            raise DimensionError(
                f"student logits {student_logits.shape} and teacher logits "
                f"{teacher_logits.shape} must match")
        kl_part = losses.kl_divergence(student_logits, teacher_logits,
                                       cfg.temperature) * (cfg.temperature * cfg.temperature)
        terms.append(kl_part * cfg.alpha_kl)
    if cfg.alpha_mlm > 0:
        mlm_part = losses.cross_entropy(student_logits, batch.original_ids[batch.mlm_mask])
        terms.append(mlm_part * cfg.alpha_mlm)
    return sum(terms[1:], terms[0]), kl_part, mlm_part


def _train_mlm_loop(student: EncoderModel, teacher: EncoderModel | None,
                    corpus: list[str], cfg: DistillConfig, vocab: Vocab) -> TrainState:
    if not corpus:
        raise ConfigurationError("cannot train on an empty corpus")
    for role, model in (("trained model", student), ("teacher", teacher)):
        if model is not None:
            model_vocab_guard(model, vocab)
            check_max_len(model, cfg.max_len, role)  # MLM batches are max_len wide

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    sequences = encode_corpus(corpus, vocab, cfg.max_len)
    optimizer = AdamW(student.params, learning_rate=cfg.learning_rate)

    rows: list[LogRow] = []
    step = 0
    start = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(sequences))
        for lo in range(0, len(order), cfg.batch_size):
            batch_seqs = [sequences[i] for i in order[lo:lo + cfg.batch_size]]
            mask_seed = int(rng.integers(np.iinfo(np.int64).max))
            batch = make_mlm_batch(batch_seqs, cfg.mask_rate, mask_seed, vocab)
            if not batch.mlm_mask.any():
                continue
            teacher_logits = None
            teacher_seconds = 0.0
            if cfg.alpha_kl > 0:
                t0 = time.perf_counter()
                with no_grad():
                    teacher_logits = forward_mlm(teacher, batch.token_ids, batch.attention_mask,
                                                 rows=batch.mlm_mask)
                teacher_seconds = time.perf_counter() - t0
            student_logits = forward_mlm(student, batch.token_ids, batch.attention_mask,
                                         rows=batch.mlm_mask)
            total, kl_part, mlm_part = distill_loss(student_logits, teacher_logits, batch, cfg)
            step += 1
            t0 = time.perf_counter()
            grad_norm = train_step(total, optimizer, step, epoch)
            update_seconds = time.perf_counter() - t0
            kl_val, mlm_val = float(kl_part.item()), float(mlm_part.item())
            rows.append(LogRow(step, epoch,
                               cfg.alpha_kl * kl_val + cfg.alpha_mlm * mlm_val,
                               kl_val, mlm_val, grad_norm, int(batch.mlm_mask.sum()),
                               teacher_seconds, update_seconds, time.perf_counter() - start))
    if not rows:
        raise ConfigurationError(
            "training produced no steps (every batch had zero masked positions)")
    if not parameters_finite(optimizer.params.values()):
        raise TrainingDivergedError(f"parameters are non-finite after step {step}")
    return TrainState(cfg, rows)


def distill_run(teacher: EncoderModel, student_cfg: EncoderConfig, corpus: list[str],
                cfg: DistillConfig, vocab: Vocab,
                init_from_teacher: str = "none") -> tuple[EncoderModel, TrainState]:
    """Train a fresh student against a frozen teacher.

    ``init_from_teacher`` applies before the first step: "copy" seeds the
    student embeddings from the teacher, "copy_and_freeze" additionally
    pins them for this run by clearing their ``requires_grad``. The teacher
    only runs forward under ``no_grad`` and is never modified.
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
    if init_from_teacher != "none":
        check_embedding_copy(teacher.config, student_cfg)

    student = init_random(student_cfg, cfg.seed)
    if init_from_teacher in ("copy", "copy_and_freeze"):
        copy_embeddings_from(student, teacher)
    if init_from_teacher == "copy_and_freeze":
        student["token_embedding"].requires_grad = False
        student["position_embedding"].requires_grad = False

    state = _train_mlm_loop(student, teacher, corpus, cfg, vocab)
    return student, state


def check_embedding_copy(teacher_cfg: EncoderConfig, student_cfg: EncoderConfig) -> None:
    """Raise ``ConfigurationError`` before any training when the teacher's
    embeddings cannot seed the student: the widths differ, or the student
    has more positions than the teacher."""
    if student_cfg.hidden_dim != teacher_cfg.hidden_dim:
        raise ConfigurationError(
            f"copying teacher embeddings needs equal widths: student hidden_dim "
            f"{student_cfg.hidden_dim}, teacher hidden_dim {teacher_cfg.hidden_dim}")
    if student_cfg.max_positions > teacher_cfg.max_positions:
        raise ConfigurationError(
            f"copying teacher embeddings needs the student's max_positions "
            f"{student_cfg.max_positions} within the teacher's {teacher_cfg.max_positions}")


def _mlm_only(cfg: DistillConfig) -> DistillConfig:
    """``cfg`` with the loss weights set to ``MLM_ONLY_WEIGHTS``."""
    return dataclasses.replace(cfg, **MLM_ONLY_WEIGHTS)


def pretrain_mlm(model_cfg: EncoderConfig, corpus: list[str], cfg: DistillConfig,
                 vocab: Vocab) -> tuple[EncoderModel, TrainState]:
    """Plain MLM training under ``MLM_ONLY_WEIGHTS``, whatever ``cfg`` sets."""
    model = init_random(model_cfg, cfg.seed)
    state = _train_mlm_loop(model, None, corpus, _mlm_only(cfg), vocab)
    return model, state


def condition_teacher(teacher: EncoderModel, corpus: list[str], cfg: DistillConfig,
                      vocab: Vocab) -> tuple[EncoderModel, TrainState]:
    """MLM-finetune a copy of the teacher on ``corpus``; the original is untouched."""
    conditioned = clone_model(teacher)
    state = _train_mlm_loop(conditioned, None, corpus, _mlm_only(cfg), vocab)
    return conditioned, state


def evaluate_masked(model: EncoderModel, corpus: list[str], vocab: Vocab,
                    mask_rate: float = 0.15, seed: int = 0, max_len: int = 32) -> dict:
    """Deterministic masked-prediction evaluation pass, in batches of 32.

    Returns position-weighted mean cross entropy and top-1 accuracy over
    all masked positions, plus the position count.
    """
    model_vocab_guard(model, vocab)
    sequences = encode_corpus(corpus, vocab, max_len)
    total_ce = 0.0
    total_correct = 0
    total_positions = 0
    for i, lo in enumerate(range(0, len(sequences), 32)):
        batch = make_mlm_batch(sequences[lo:lo + 32], mask_rate,
                               seed + 7919 * i, vocab)
        n = int(batch.mlm_mask.sum())
        if n == 0:
            continue
        gold = batch.original_ids[batch.mlm_mask]
        with no_grad():
            logits = forward_mlm(model, batch.token_ids, batch.attention_mask,
                                 rows=batch.mlm_mask)
            ce = losses.cross_entropy(logits, gold)
        predictions = logits.data.argmax(axis=-1)
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
    """One column per ``LogRow`` field; csv writes a float as str, which is its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(LogRow)])
        writer.writerows(dataclasses.astuple(row) for row in state.log)


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
    text = read_text(path, "config", ConfigurationError)
    try:
        # newline=None reads \r and \r\n line ends as \n
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except ConfigParserError as exc:
        raise ConfigurationError(f"unreadable config file {path}: {exc}") from exc
    if "distill" not in parser:
        raise ConfigurationError(f"config file needs a [distill] section: {path}")
    # a setting under any other section would otherwise be silently ignored
    others = [f"[{name}]" for name in parser.sections() if name != "distill"]
    if others:
        raise ConfigurationError(f"config file {path} may hold only a [distill] section, "
                                 f"not {', '.join(others)}")
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
