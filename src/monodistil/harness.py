"""Finetuning, speedup measurement, ablation protocols, and report emission.

Each ablation protocol builds a list of named models and hands it to
``compare``, which returns the ``ComparisonReport``; nothing here writes a
run directory. ``emit_report`` writes a report as csv or markdown.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import losses
from .autograd import no_grad, parameters_finite
from .data import IGNORE_ID, make_labeled_batches, subsample
from .distill import (DistillConfig, check_embedding_copy, check_training_settings,
                      condition_teacher, distill_run)
from .errors import ConfigurationError, EvaluationError, TrainingDivergedError, read_text
from .metrics import accuracy, span_f1
from .model import (EncoderConfig, EncoderModel, Head, check_max_len, clone_model,
                    forward_sequence_cls, forward_token_cls, init_head, model_vocab_guard)
from .optim import AdamW, train_step
from .tokenizer import Vocab

BASELINE_NAME = "mBERT"
STUDENT_NAME = "dBERT"
# finetuning's dropout rate; the MLM stages train without dropout
FINETUNE_DROPOUT = 0.1
# the head kind that serves each task kind
HEAD_KINDS = {"classification": "sequence", "tagging": "token"}


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str
    train_path: str
    eval_path: str
    epochs: int = 3
    learning_rate: float = 3e-3
    batch_size: int = 16
    seed: int = 0
    max_len: int = 32

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise ConfigurationError(
                f"task kind must be 'classification' or 'tagging', got {self.kind!r}")
        check_training_settings(self)

    def config_hash(self) -> str:
        """A hash of the training settings alone: not the name, nor the paths."""
        settings = {key: getattr(self, key) for key in
                    ("kind", "epochs", "learning_rate", "batch_size", "seed", "max_len")}
        return hashlib.sha256(json.dumps(settings, sort_keys=True).encode("utf-8")
                              ).hexdigest()[:16]


@dataclass
class MetricReport:
    model_name: str
    task_name: str
    metric_name: str
    metric_value: float
    runtime_seconds: float
    seed: int
    config_hash: str

    def __post_init__(self):
        if not 0.0 <= self.metric_value <= 1.0:
            raise EvaluationError(f"metric value {self.metric_value} outside [0, 1]")
        if self.runtime_seconds <= 0:
            raise EvaluationError(f"runtime must be positive, got {self.runtime_seconds}")


@dataclass
class ComparisonRow:
    model: str
    task: str
    metric_name: str
    metric_value: float
    runtime_seconds: float
    perf_diff: float | None
    speedup: float | None


@dataclass
class ComparisonReport:
    baseline: str
    rows: list[ComparisonRow]

    @property
    def avg_speedup(self) -> dict[str, float]:
        """Each non-baseline model's mean of its per-task runtime ratios, not
        the ratio of total runtimes."""
        ratios: dict[str, list[float]] = {}
        for row in self.rows:
            if row.speedup is not None:
                ratios.setdefault(row.model, []).append(row.speedup)
        return {model: float(np.mean(r)) for model, r in ratios.items()}


def _finetune_loss(model, head, batch, dropout):
    if head.kind == "sequence":
        logits = forward_sequence_cls(model, head, batch.token_ids, batch.attention_mask,
                                      batch.num_labels, dropout)
        return losses.cross_entropy(logits, batch.labels)
    logits = forward_token_cls(model, head, batch.token_ids, batch.attention_mask,
                               batch.num_labels, dropout)
    return losses.cross_entropy_masked(logits, batch.labels, batch.labels != IGNORE_ID)


def _evaluate_task(model: EncoderModel, head: Head, eval_batches) -> tuple[str, float]:
    if head.kind == "sequence":
        preds, golds = [], []
        for batch in eval_batches:
            with no_grad():
                logits = forward_sequence_cls(model, head, batch.token_ids,
                                              batch.attention_mask, batch.num_labels)
            preds.append(logits.data.argmax(axis=-1))
            golds.append(batch.labels)
        return "accuracy", accuracy(np.concatenate(preds), np.concatenate(golds))

    pred_tags: list[list[str]] = []
    gold_tags: list[list[str]] = []
    for batch in eval_batches:
        with no_grad():
            logits = forward_token_cls(model, head, batch.token_ids,
                                       batch.attention_mask, batch.num_labels)
        hard = logits.data.argmax(axis=-1)
        for row in range(batch.labels.shape[0]):
            keep = batch.labels[row] != IGNORE_ID
            if not keep.any():
                continue
            gold_tags.append([head.labels[int(t)] for t in batch.labels[row][keep]])
            pred_tags.append([head.labels[int(t)] for t in hard[row][keep]])
    return "span_f1", span_f1(pred_tags, gold_tags)


def evaluate_task(model: EncoderModel, head: Head, eval_path, vocab: Vocab,
                  max_len: int = 32, seed: int = 0) -> tuple[str, float]:
    """Score an already-finetuned model on one task file of the kind its head
    serves, reading its labels with the head's label ids."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    model_vocab_guard(model, vocab)
    check_max_len(model, max_len)
    kind = {head_kind: task for task, head_kind in HEAD_KINDS.items()}[head.kind]
    eval_batches, _ = make_labeled_batches(
        eval_path, vocab, max_len, batch_size=16, seed=seed, kind=kind,
        label_map={label: i for i, label in enumerate(head.labels)})
    return _evaluate_task(model, head, eval_batches)


def finetune(model: EncoderModel, task: TaskSpec, vocab: Vocab,
             model_name: str) -> tuple[EncoderModel, Head, MetricReport]:
    """Attach a fresh head, train the full model, and score the eval split.

    The input model is cloned, never mutated. The reported runtime covers
    only the optimization loop; data loading and evaluation sit outside
    the timed region.
    """
    model_vocab_guard(model, vocab)
    check_max_len(model, task.max_len)
    train_batches, label_map = make_labeled_batches(
        task.train_path, vocab, task.max_len, task.batch_size, task.seed, kind=task.kind)
    eval_batches, _ = make_labeled_batches(
        task.eval_path, vocab, task.max_len, task.batch_size, task.seed,
        kind=task.kind, label_map=label_map)

    tuned = clone_model(model)
    head = init_head(tuned.config, HEAD_KINDS[task.kind], tuple(label_map), task.seed)
    # the masked-LM head takes no part in downstream tasks
    params = {k: v for k, v in tuned.params.items()
              if k not in ("mlm_head_weight", "mlm_head_bias")}
    params.update(head.params())
    optimizer = AdamW(params, learning_rate=task.learning_rate)
    dropout = (FINETUNE_DROPOUT, np.random.Generator(np.random.PCG64(task.seed + 1)))

    step = 0
    start = time.perf_counter()
    for epoch in range(1, task.epochs + 1):
        for batch in train_batches:
            step += 1
            train_step(_finetune_loss(tuned, head, batch, dropout), optimizer, step, epoch)
    runtime = time.perf_counter() - start
    if not parameters_finite(optimizer.params.values()):
        raise TrainingDivergedError(f"parameters are non-finite after step {step}")
    if runtime <= 0:
        runtime = 1e-9

    metric_name, value = _evaluate_task(tuned, head, eval_batches)
    report = MetricReport(model_name, task.name, metric_name, value, runtime,
                          task.seed, task.config_hash())
    return tuned, head, report


def measure_speedup(reports: list[MetricReport], baseline: str) -> ComparisonReport:
    """Per-task performance differences and runtime ratios against a baseline."""
    by_model: dict[str, dict[str, MetricReport]] = {}
    for rep in reports:
        slot = by_model.setdefault(rep.model_name, {})
        if rep.task_name in slot:
            raise EvaluationError(
                f"duplicate report for model {rep.model_name!r} task {rep.task_name!r}")
        slot[rep.task_name] = rep
    if baseline not in by_model:
        raise EvaluationError(f"baseline model {baseline!r} has no reports")
    base_tasks = by_model[baseline]
    for model, tasks in by_model.items():
        if set(tasks) != set(base_tasks):
            raise EvaluationError(
                f"model {model!r} covers tasks {sorted(tasks)} but baseline covers "
                f"{sorted(base_tasks)}")

    ordered = [baseline] + [m for m in by_model if m != baseline]
    rows: list[ComparisonRow] = []
    for model in ordered:
        for task in base_tasks:
            rep = by_model[model][task]
            base = base_tasks[task]
            if model == baseline:
                diff, ratio = None, None
            else:
                diff = rep.metric_value - base.metric_value
                ratio = base.runtime_seconds / rep.runtime_seconds
            rows.append(ComparisonRow(model, task, rep.metric_name, rep.metric_value,
                                      rep.runtime_seconds, diff, ratio))
    return ComparisonReport(baseline, rows)


CSV_COLUMNS = tuple(f.name for f in fields(ComparisonRow))


def emit_report(report: ComparisonReport, fmt: str, path) -> Path:
    """Write the comparison as csv or markdown; csv round-trips exactly."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# baseline={report.baseline}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            # csv writes a float as str, which is its repr, and None as ""
            writer.writerows(astuple(row) for row in report.rows)
        return path
    if fmt == "markdown":
        lines = [
            f"baseline: {report.baseline}",
            "",
            "| Model | Task | Metric | Value | Runtime (s) | Perf. Diff. | Speedup |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for row in report.rows:
            diff = "" if row.perf_diff is None else f"{row.perf_diff:+.4f}"
            speed = "" if row.speedup is None else f"{row.speedup:.2f}x"
            lines.append(
                f"| {row.model} | {row.task} | {row.metric_name} | {row.metric_value:.4f} "
                f"| {row.runtime_seconds:.2f} | {diff} | {speed} |")
        if report.avg_speedup:
            lines.append("")
            lines.append("| Model | Avg. Speedup |")
            lines.append("| --- | --- |")
            for model, avg in report.avg_speedup.items():
                lines.append(f"| {model} | {avg:.2f}x |")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    raise ConfigurationError(f"report format must be 'csv' or 'markdown', got {fmt!r}")


def parse_report_csv(path) -> ComparisonReport:
    """Inverse of emit_report(fmt="csv")."""
    lines = read_text(path, "report").splitlines()
    if not lines or not lines[0].startswith("# baseline="):
        raise EvaluationError(f"report csv lacks its baseline comment line: {path}")
    baseline = lines[0].split("=", 1)[1]
    reader = csv.reader(lines[1:])
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise EvaluationError(f"report csv has unexpected header {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        where = f"report csv line {reader.line_num + 1}"  # the banner is line 1
        if len(rec) != len(CSV_COLUMNS):
            raise EvaluationError(
                f"{where} has {len(rec)} fields, expected {len(CSV_COLUMNS)}: {path}")
        try:
            rows.append(ComparisonRow(
                rec[0], rec[1], rec[2], float(rec[3]), float(rec[4]),
                None if rec[5] == "" else float(rec[5]),
                None if rec[6] == "" else float(rec[6])))
        except ValueError as exc:
            raise EvaluationError(f"{where} holds a non-numeric value ({exc}): {path}") from exc
    return ComparisonReport(baseline, rows)


def compare(models: list[tuple[str, EncoderModel]], downstream: TaskSpec,
            vocab: Vocab) -> ComparisonReport:
    """Finetune each ``(name, model)`` on ``downstream`` in order and compare
    them with the first, the baseline; a repeated name is an ``EvaluationError``."""
    if not models:
        raise ConfigurationError("need at least one model to compare")
    _check_unique_names([name for name, _ in models], downstream)
    reports = [finetune(model, downstream, vocab, name)[2] for name, model in models]
    return measure_speedup(reports, models[0][0])


def _check_unique_names(names: list[str], downstream: TaskSpec) -> None:
    """Raise ``measure_speedup``'s ``EvaluationError`` for a repeated name
    before anything is trained or finetuned."""
    seen = set()
    for name in names:
        if name in seen:
            raise EvaluationError(
                f"duplicate report for model {name!r} task {downstream.name!r}")
        seen.add(name)


def run_ablation_data_fraction(teacher: EncoderModel, corpus: list[str],
                               fractions: list[float], downstream: TaskSpec,
                               cfg: DistillConfig, vocab: Vocab,
                               student_cfg: EncoderConfig) -> ComparisonReport:
    """One student per corpus fraction, each scored against the teacher."""
    if not fractions:
        raise ConfigurationError("need at least one fraction")
    # every fraction and every name is checked before any training
    subsets = {f: subsample(corpus, f, cfg.seed) for f in sorted(set(fractions), reverse=True)}
    for fraction, sub in subsets.items():
        if not sub:
            raise ConfigurationError(
                f"fraction {fraction} keeps no document of the {len(corpus)}-document corpus")
    names = {f: f"{STUDENT_NAME} @{round(f * 100):d}%" for f in subsets}
    _check_unique_names([BASELINE_NAME, *names.values()], downstream)
    models = [(BASELINE_NAME, teacher)]
    for fraction, sub in subsets.items():
        student, _ = distill_run(teacher, student_cfg, sub, cfg, vocab)
        models.append((names[fraction], student))
    return compare(models, downstream, vocab)


def run_ablation_conditioning(teacher: EncoderModel, corpus: list[str],
                              downstream: TaskSpec, cfg: DistillConfig, vocab: Vocab,
                              student_cfg: EncoderConfig) -> ComparisonReport:
    """Students and teachers with and without MLM conditioning on ``corpus``."""
    conditioned, _ = condition_teacher(teacher, corpus, cfg, vocab)
    student_raw, _ = distill_run(teacher, student_cfg, corpus, cfg, vocab)
    student_cond, _ = distill_run(conditioned, student_cfg, corpus, cfg, vocab)
    return compare([(BASELINE_NAME, teacher),
                    (f"{BASELINE_NAME} Conditioned", conditioned),
                    (STUDENT_NAME, student_raw),
                    (f"{STUDENT_NAME} Conditioned", student_cond)], downstream, vocab)


def run_ablation_init(teacher: EncoderModel, corpus: list[str], downstream: TaskSpec,
                      cfg: DistillConfig, vocab: Vocab,
                      student_cfg: EncoderConfig) -> ComparisonReport:
    """Students initialized blank, from teacher embeddings, and frozen-copied."""
    check_embedding_copy(teacher.config, student_cfg)
    named_modes = [(STUDENT_NAME, "none"),
                   (f"{STUDENT_NAME} Init", "copy"),
                   (f"{STUDENT_NAME} Init+Freeze", "copy_and_freeze")]
    models = [(BASELINE_NAME, teacher)]
    for name, mode in named_modes:
        student, _ = distill_run(teacher, student_cfg, corpus, cfg, vocab,
                                 init_from_teacher=mode)
        models.append((name, student))
    return compare(models, downstream, vocab)
