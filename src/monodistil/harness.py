"""Finetuning, speedup measurement, ablation protocols, and report emission."""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses
from .autograd import no_grad, parameters_finite
from .data import IGNORE_ID, Corpus, make_labeled_batches, subsample
from .distill import DistillConfig, condition_teacher, distill_run, write_resolved_config
from .errors import ConfigurationError, EvaluationError, TrainingDivergedError
from .metrics import accuracy, span_f1
from .model import (EncoderConfig, EncoderModel, Head, clone_model, forward_sequence_cls,
                    forward_token_cls, init_head, model_vocab_guard, parameter_groups)
from .optim import AdamW, train_step
from .tokenizer import Vocab

BASELINE_NAME = "mBERT"
STUDENT_NAME = "dBERT"


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
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.kind not in ("classification", "tagging"):
            raise ConfigurationError(
                f"task kind must be 'classification' or 'tagging', got {self.kind!r}")
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ConfigurationError(f"finetune epochs must be a positive integer, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def config_hash(self) -> str:
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:16]


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
    avg_speedup: dict[str, float]


def _finetune_loss(kind: str, model, head, batch, dropout):
    if kind == "classification":
        logits = forward_sequence_cls(model, head, batch.token_ids, batch.attention_mask,
                                      batch.num_labels, dropout)
        return losses.cross_entropy(logits, batch.labels)
    logits = forward_token_cls(model, head, batch.token_ids, batch.attention_mask,
                               batch.num_labels, dropout)
    return losses.cross_entropy_masked(logits, batch.labels, batch.labels != IGNORE_ID)


def _evaluate_task(kind: str, model: EncoderModel, head: Head, eval_batches,
                   label_map: dict[str, int]) -> tuple[str, float]:
    if kind == "classification":
        preds, golds = [], []
        for batch in eval_batches:
            with no_grad():
                logits = forward_sequence_cls(model, head, batch.token_ids,
                                              batch.attention_mask, batch.num_labels)
            preds.append(logits.data.argmax(axis=-1))
            golds.append(batch.labels)
        return "accuracy", accuracy(np.concatenate(preds), np.concatenate(golds))

    id_to_tag = {i: tag for tag, i in label_map.items()}
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
            gold_tags.append([id_to_tag[int(t)] for t in batch.labels[row][keep]])
            pred_tags.append([id_to_tag[int(t)] for t in hard[row][keep]])
    return "span_f1", span_f1(pred_tags, gold_tags)


def evaluate_task(model: EncoderModel, head: Head, eval_path, kind: str, vocab: Vocab,
                  max_len: int = 32, batch_size: int = 16, seed: int = 0,
                  label_map: dict[str, int] | None = None) -> tuple[str, float]:
    """Score an already-finetuned model on one task file."""
    model_vocab_guard(model, vocab)
    eval_batches, label_map = make_labeled_batches(
        eval_path, vocab, max_len, batch_size, seed, kind=kind, label_map=label_map)
    return _evaluate_task(kind, model, head, eval_batches, label_map)


def finetune(model: EncoderModel, task: TaskSpec, vocab: Vocab, model_name: str,
             clock=time.perf_counter) -> tuple[EncoderModel, Head, MetricReport]:
    """Attach a fresh head, train the full model, and score the eval split.

    The input model is cloned, never mutated. The reported runtime covers
    only the optimization loop; data loading and evaluation sit outside
    the timed region.
    """
    model_vocab_guard(model, vocab)
    train_batches, label_map = make_labeled_batches(
        task.train_path, vocab, task.max_len, task.batch_size, task.seed, kind=task.kind)
    eval_batches, _ = make_labeled_batches(
        task.eval_path, vocab, task.max_len, task.batch_size, task.seed,
        kind=task.kind, label_map=label_map)

    tuned = clone_model(model)
    head_kind = "sequence" if task.kind == "classification" else "token"
    head = init_head(tuned.config, head_kind, len(label_map), task.seed)
    # the masked-LM head takes no part in downstream tasks
    mlm_keys = set(parameter_groups(tuned.config)["mlm_head"])
    params = {k: v for k, v in tuned.trainable_params().items() if k not in mlm_keys}
    params.update(head.params())
    optimizer = AdamW(params, learning_rate=task.learning_rate)
    dropout = (task.dropout_rate, np.random.Generator(np.random.PCG64(task.seed + 1))) \
        if task.dropout_rate > 0 else None

    step = 0
    start = clock()
    for epoch in range(1, task.epochs + 1):
        for batch in train_batches:
            step += 1
            train_step(_finetune_loss(task.kind, tuned, head, batch, dropout),
                       optimizer, params, 1.0, step, epoch)
    runtime = clock() - start
    if not parameters_finite(params.values()):
        raise TrainingDivergedError(f"parameters are non-finite after step {step}")
    if runtime <= 0:
        runtime = 1e-9

    metric_name, value = _evaluate_task(task.kind, tuned, head, eval_batches, label_map)
    report = MetricReport(model_name, task.name, metric_name, value, runtime,
                          task.seed, task.config_hash())
    return tuned, head, report


def measure_speedup(reports: list[MetricReport], baseline: str) -> ComparisonReport:
    """Per-task performance differences and runtime ratios against a baseline.

    Each model's average speedup is the mean of its per-task runtime
    ratios, not the ratio of total runtimes.
    """
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
    avg_speedup: dict[str, float] = {}
    for model in ordered:
        ratios = []
        for task in base_tasks:
            rep = by_model[model][task]
            base = base_tasks[task]
            if model == baseline:
                diff, ratio = None, None
            else:
                diff = rep.metric_value - base.metric_value
                ratio = base.runtime_seconds / rep.runtime_seconds
                ratios.append(ratio)
            rows.append(ComparisonRow(model, task, rep.metric_name, rep.metric_value,
                                      rep.runtime_seconds, diff, ratio))
        if ratios:
            avg_speedup[model] = float(np.mean(ratios))
    return ComparisonReport(baseline, rows, avg_speedup)


CSV_COLUMNS = ("model", "task", "metric_name", "metric_value", "runtime_seconds",
               "perf_diff", "speedup")


def emit_report(report: ComparisonReport, fmt: str, path) -> Path:
    """Write the comparison as csv or markdown; csv round-trips exactly."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# baseline={report.baseline}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in report.rows:
                writer.writerow([
                    row.model, row.task, row.metric_name, repr(row.metric_value),
                    repr(row.runtime_seconds),
                    "" if row.perf_diff is None else repr(row.perf_diff),
                    "" if row.speedup is None else repr(row.speedup),
                ])
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
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        rows.append(ComparisonRow(
            rec[0], rec[1], rec[2], float(rec[3]), float(rec[4]),
            None if rec[5] == "" else float(rec[5]),
            None if rec[6] == "" else float(rec[6])))
    avg: dict[str, list[float]] = {}
    for row in rows:
        if row.speedup is not None:
            avg.setdefault(row.model, []).append(row.speedup)
    return ComparisonReport(baseline, rows,
                            {m: float(np.mean(v)) for m, v in avg.items()})


def _ablation_outputs(report: ComparisonReport, cfg: DistillConfig, run_dir) -> None:
    if run_dir is None:
        return
    run_path = Path(run_dir)
    run_path.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, run_path / "config.resolved")
    emit_report(report, "csv", run_path / "report.csv")
    emit_report(report, "markdown", run_path / "report.md")


def run_ablation_data_fraction(teacher: EncoderModel, corpus: Corpus,
                               fractions: list[float], downstream: TaskSpec,
                               cfg: DistillConfig, vocab: Vocab,
                               student_cfg: EncoderConfig, run_dir=None,
                               clock=time.perf_counter) -> ComparisonReport:
    """One student per corpus fraction, each scored against the teacher."""
    if not fractions:
        raise ConfigurationError("need at least one fraction")
    _, _, base_report = finetune(teacher, downstream, vocab, BASELINE_NAME, clock)
    reports = [base_report]
    for fraction in sorted(set(fractions), reverse=True):
        sub = subsample(corpus, fraction, cfg.seed)
        student, _ = distill_run(teacher, student_cfg, sub, cfg, vocab)
        name = f"{STUDENT_NAME} @{round(fraction * 100):d}%"
        _, _, rep = finetune(student, downstream, vocab, name, clock)
        reports.append(rep)
    report = measure_speedup(reports, BASELINE_NAME)
    _ablation_outputs(report, cfg, run_dir)
    return report


def run_ablation_conditioning(teacher: EncoderModel, corpus: Corpus,
                              downstream: TaskSpec, cfg: DistillConfig, vocab: Vocab,
                              student_cfg: EncoderConfig, run_dir=None,
                              clock=time.perf_counter) -> ComparisonReport:
    """Students and teachers with and without MLM conditioning on ``corpus``."""
    conditioned, _ = condition_teacher(teacher, corpus, cfg, vocab)

    student_raw, _ = distill_run(teacher, student_cfg, corpus, cfg, vocab)
    student_cond, _ = distill_run(conditioned, student_cfg, corpus, cfg, vocab)

    reports = []
    _, _, rep = finetune(teacher, downstream, vocab, BASELINE_NAME, clock)
    reports.append(rep)
    _, _, rep = finetune(conditioned, downstream, vocab, f"{BASELINE_NAME} Conditioned", clock)
    reports.append(rep)
    _, _, rep = finetune(student_raw, downstream, vocab, STUDENT_NAME, clock)
    reports.append(rep)
    _, _, rep = finetune(student_cond, downstream, vocab, f"{STUDENT_NAME} Conditioned", clock)
    reports.append(rep)
    report = measure_speedup(reports, BASELINE_NAME)
    _ablation_outputs(report, cfg, run_dir)
    return report


def run_ablation_init(teacher: EncoderModel, corpus: Corpus, downstream: TaskSpec,
                      cfg: DistillConfig, vocab: Vocab, student_cfg: EncoderConfig,
                      run_dir=None, clock=time.perf_counter) -> ComparisonReport:
    """Students initialized blank, from teacher embeddings, and frozen-copied."""
    named_modes = [(STUDENT_NAME, "none"),
                   (f"{STUDENT_NAME} Init", "copy"),
                   (f"{STUDENT_NAME} Init+Freeze", "copy_and_freeze")]
    reports = []
    _, _, rep = finetune(teacher, downstream, vocab, BASELINE_NAME, clock)
    reports.append(rep)
    for name, mode in named_modes:
        student, _ = distill_run(teacher, student_cfg, corpus, cfg, vocab,
                                 init_from_teacher=mode)
        _, _, rep = finetune(student, downstream, vocab, name, clock)
        reports.append(rep)
    report = measure_speedup(reports, BASELINE_NAME)
    _ablation_outputs(report, cfg, run_dir)
    return report
