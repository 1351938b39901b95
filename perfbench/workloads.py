"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Every training stage goes through ``monodistil.cli.main`` in process, the way
a user drives the package. Functions are looked up on their modules at call
time (``cli.main``, ``distill.evaluate_masked``), so the tracing wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
from configparser import ConfigParser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from monodistil import checkpoint, cli, data, distill, harness, optim, tokenizer
from tracing import OPS

HELDOUT_EVAL_SEED = 101
TASKS = (("cls", "classification", "cls_train.tsv", "cls_eval.tsv"),
         ("tag", "tagging", "tag_train.conll", "tag_eval.conll"))
MODELS = (("mBERT", "teacher"), ("dBERT", "student"))


@dataclass(frozen=True)
class Scale:
    docs: int = 300            # documents per language (the synth default)
    heldout: int = 120
    pretrain_epochs: int = 2   # timed teacher pretraining
    distill_epochs: int = 3    # the distill default
    setup_epochs: int = 1      # the set-up teacher and student checkpoints
    ft_epochs: int = 3         # the finetune default
    task_rows: int = 0         # keep only this many task examples (0: all)
    setup_repeats: int = 3


TINY = Scale(docs=40, heldout=20, pretrain_epochs=1, distill_epochs=1, ft_epochs=1,
             task_rows=32, setup_repeats=2)


class CheckFailed(Exception):
    pass


class Checks:
    """Counts CLI calls and output checks attempted, and the ones that failed."""

    def __init__(self, log_path: Path):
        self.attempted = 0
        self.failures: list[str] = []
        self.log_path = log_path

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def cli(self, *argv) -> None:
        """Run one CLI command; its console output goes to the log file."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        with open(self.log_path, "a", encoding="utf-8") as fh:
            fh.write(f"$ monodistil {' '.join(argv)}\n{out.getvalue()}")
        if not self.expect(rc == 0, f"monodistil {argv[0]} exited {rc}: {out.getvalue().strip()}"):
            raise CheckFailed(self.failures[-1])


# -- set-up ----------------------------------------------------------------


def setup(workload: str, seed: int, root: Path, scale: Scale, checks: Checks) -> dict:
    """Generate the workload's inputs under ``root`` (wiped first); returns their paths."""
    shutil.rmtree(root, ignore_errors=True)
    data_dir = root / "data"
    checks.cli("synth", "--run-dir", root / "run_synth", "--out", data_dir,
               "--docs", scale.docs, "--heldout", scale.heldout, "--seed", seed)
    if scale.task_rows:
        _truncate_tasks(data_dir, scale.task_rows)
    inputs = {"data": str(data_dir)}
    if workload in ("distill_student", "downstream"):
        inputs["teacher"] = str(root / "teacher")
        checks.cli("pretrain", "--run-dir", root / "run_teacher",
                   "--corpus", data_dir / "corpus_mixed.txt", "--vocab", data_dir / "vocab.txt",
                   "--epochs", scale.setup_epochs, "--batch-size", 32, "--lr", 3e-3,
                   "--max-len", 32, "--seed", seed, "--out", inputs["teacher"])
    if workload == "downstream":
        inputs["student"] = str(root / "student")
        checks.cli("distill", "--run-dir", root / "run_student", "--teacher", inputs["teacher"],
                   "--corpus", data_dir / "corpus_a.txt", "--vocab", data_dir / "vocab.txt",
                   "--epochs", scale.setup_epochs, "--seed", seed,
                   "--out", inputs["student"])
    return inputs


def input_digests(inputs: dict) -> dict[str, str]:
    digests = {"vocab": _file_digest(Path(inputs["data"]) / "vocab.txt")}
    for key in ("teacher", "student"):
        if key in inputs:
            digests[key] = checkpoint.checkpoint_digest(inputs[key])
    return digests


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _truncate_tasks(data_dir: Path, rows: int) -> None:
    """Shrink the task files for smoke runs: the first ``rows`` examples."""
    for name in ("cls_train.tsv", "cls_eval.tsv"):
        lines = (data_dir / name).read_text(encoding="utf-8").splitlines()
        (data_dir / name).write_text("\n".join(lines[:rows + 1]) + "\n", encoding="utf-8")
    for name in ("tag_train.conll", "tag_eval.conll"):
        blocks = (data_dir / name).read_text(encoding="utf-8").strip().split("\n\n")
        (data_dir / name).write_text("\n\n".join(blocks[:rows]) + "\n", encoding="utf-8")


# -- per-workload facts used for metrics and coverage ------------------------


def _tokens(sequences) -> int:
    return int(sum(int(s.attention_mask.sum()) for s in sequences))


def workload_facts(workload: str, inputs: dict, scale: Scale) -> dict:
    """Sizes the metrics and coverage checks need, computed before timing."""
    data_dir = Path(inputs["data"])
    vocab = tokenizer.Vocab.load(data_dir / "vocab.txt")
    heldout = data.load_corpus(data_dir / "heldout_a.txt")
    facts = {"eval_batches": math.ceil(len(heldout) / 32)}
    if workload == "pretrain_teacher":
        corpus = data.load_corpus(data_dir / "corpus_mixed.txt")
        facts["tokens"] = scale.pretrain_epochs * _tokens(data.encode_corpus(corpus, vocab, 32))
    elif workload == "distill_student":
        corpus = data.load_corpus(data_dir / "corpus_a.txt")
        facts["tokens"] = scale.distill_epochs * _tokens(data.encode_corpus(corpus, vocab, 32))
    else:
        stage_tokens, stage_steps = {}, {}
        for task, kind, train, _ in TASKS:
            batches, _ = data.make_labeled_batches(data_dir / train, vocab, 32, 16, 0, kind=kind)
            stage_tokens[task] = scale.ft_epochs * sum(int(b.attention_mask.sum()) for b in batches)
            stage_steps[task] = scale.ft_epochs * len(batches)
        facts["stage_tokens"] = stage_tokens
        facts["stage_steps"] = stage_steps
    return facts


# -- one timed iteration -----------------------------------------------------


def step_clock(stamps: list[float]) -> type:
    """AdamW that appends a time stamp to ``stamps`` after each step; finetune
    writes no loss log, so this is how ``downstream`` times its steps."""

    class StepClock(optim.AdamW):
        def step(self) -> None:
            super().step()
            stamps.append(time.perf_counter())

    return StepClock


def masked_eval(ckpt: str, inputs: dict) -> dict:
    """``evaluate_masked`` of a checkpoint on ``heldout_a``, seed 101."""
    data_dir = Path(inputs["data"])
    vocab = tokenizer.Vocab.load(data_dir / "vocab.txt")
    model = checkpoint.load_checkpoint(ckpt, vocab)
    heldout = data.load_corpus(data_dir / "heldout_a.txt")
    stats = distill.evaluate_masked(model, heldout, vocab, seed=HELDOUT_EVAL_SEED)
    return {"masked_ce": stats["masked_ce"], "masked_acc": stats["masked_accuracy"]}


def run_iteration(workload: str, seed: int, inputs: dict, scale: Scale, out: Path,
                  checks: Checks, stamp_steps: bool) -> dict:
    """One timed pass of ``workload``; returns its wall time and raw outputs."""
    data_dir = Path(inputs["data"])
    vocab_path = data_dir / "vocab.txt"
    shutil.rmtree(out, ignore_errors=True)
    record: dict = {}
    if workload == "pretrain_teacher":
        t0 = time.perf_counter()
        checks.cli("pretrain", "--run-dir", out / "run", "--corpus", data_dir / "corpus_mixed.txt",
                   "--vocab", vocab_path, "--epochs", scale.pretrain_epochs, "--batch-size", 32,
                   "--lr", 3e-3, "--max-len", 32, "--seed", seed, "--out", out / "model")
        record["masked"] = masked_eval(str(out / "model"), inputs)
        record["wall_s"] = time.perf_counter() - t0
    elif workload == "distill_student":
        t0 = time.perf_counter()
        checks.cli("distill", "--run-dir", out / "run", "--teacher", inputs["teacher"],
                   "--corpus", data_dir / "corpus_a.txt", "--vocab", vocab_path,
                   "--epochs", scale.distill_epochs, "--batch-size", 8,
                   "--alpha-kl", 0.5, "--alpha-mlm", 0.5, "--temperature", 2.0,
                   "--max-len", 32, "--seed", seed, "--out", out / "model")
        record["masked"] = masked_eval(str(out / "model"), inputs)
        record["wall_s"] = time.perf_counter() - t0
    else:
        previous = harness.AdamW
        stage_stamps: dict[str, list[float]] = {}
        try:
            t0 = time.perf_counter()
            reports = []
            for model_name, ckpt in MODELS:
                for task, kind, train, evaluation in TASKS:
                    stage = f"{model_name}_{task}"
                    stage_stamps[stage] = []
                    if stamp_steps:
                        harness.AdamW = step_clock(stage_stamps[stage])
                    checks.cli("finetune", "--run-dir", out / stage, "--model", inputs[ckpt],
                               "--vocab", vocab_path, "--train", data_dir / train,
                               "--eval", data_dir / evaluation, "--task-kind", kind,
                               "--task-name", task, "--model-name", model_name,
                               "--ft-epochs", scale.ft_epochs, "--seed", seed,
                               "--out", out / stage / "model")
                    reports.append(_read_metric_report(out / stage / "metrics.csv"))
            comparison = harness.measure_speedup(reports, harness.BASELINE_NAME)
            harness.emit_report(comparison, "csv", out / "report.csv")
            harness.emit_report(comparison, "markdown", out / "report.md")
            record["wall_s"] = time.perf_counter() - t0
        finally:
            harness.AdamW = previous
        record["comparison"] = comparison
        record["stage_step_s"] = {k: np.diff(v).tolist() for k, v in stage_stamps.items()}
        record["stage_runtime_s"] = {f"{r.model_name}_{r.task_name}": r.runtime_seconds
                                     for r in reports}
        record["task_scores"] = {f"{r.model_name}_{r.task_name}": r.metric_value for r in reports}
    return record


def _read_metric_report(path: Path) -> harness.MetricReport:
    with open(path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return harness.MetricReport(row["model"], row["task"], row["metric_name"],
                                float(row["metric_value"]), float(row["runtime_seconds"]),
                                int(row["seed"]), row["config_hash"])


# -- output checks -------------------------------------------------------------


def check_iteration(workload: str, inputs: dict, out: Path, record: dict,
                    checks: Checks, teacher_digest: str | None) -> None:
    """Output checks of one iteration; adds loss-log facts to ``record``."""
    if workload in ("pretrain_teacher", "distill_student"):
        rows, ok = read_loss_log(out / "run")
        checks.expect(ok, f"{workload}: loss_log.csv rows break total = a_kl*kl + a_mlm*mlm "
                          "or hold a non-finite loss")
        elapsed = [r["elapsed_seconds"] for r in rows]
        record["steps"] = len(rows)
        record["loop_s"] = elapsed[-1] if elapsed else 0.0
        record["step_s"] = np.diff([0.0] + elapsed).tolist()
        record["digests"] = {"model": checkpoint.checkpoint_digest(out / "model")}
        masked = record["masked"]
        checks.expect(0.0 <= masked["masked_acc"] <= 1.0 and math.isfinite(masked["masked_ce"]),
                      f"{workload}: masked evaluation out of range: {masked}")
    if workload == "distill_student":
        checks.expect(checkpoint.checkpoint_digest(inputs["teacher"]) == teacher_digest,
                      "distill_student: the teacher checkpoint changed during distillation")
    if workload == "downstream":
        parsed = harness.parse_report_csv(out / "report.csv")
        checks.expect(parsed == record["comparison"],
                      "downstream: report.csv does not round-trip through parse_report_csv")
        record["speedup"] = {r.task: r.speedup for r in parsed.rows if r.speedup is not None}
        record["loop_s"] = sum(record["stage_runtime_s"].values())
        record["digests"] = {stage: checkpoint.checkpoint_digest(out / stage / "model")
                             for stage in record["stage_runtime_s"]}
        del record["comparison"]


def read_loss_log(run_dir: Path) -> tuple[list[dict], bool]:
    """Rows of a run's loss log, and whether every row satisfies the logged
    objective identity with finite losses."""
    cfg = ConfigParser()
    cfg.read(run_dir / "config.resolved", encoding="utf-8")
    a_kl, a_mlm = cfg.getfloat("distill", "alpha_kl"), cfg.getfloat("distill", "alpha_mlm")
    with open(run_dir / "loss_log.csv", newline="", encoding="utf-8") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    ok = bool(rows) and all(
        all(math.isfinite(r[k]) for k in ("total", "kl", "mlm"))
        and r["total"] == a_kl * r["kl"] + a_mlm * r["mlm"] for r in rows)
    return rows, ok


def task_scores(model_name: str, ckpt: str, inputs: dict, scale: Scale, seed: int,
                out: Path, checks: Checks) -> list[float]:
    """Finetune one checkpoint on both tasks with the CLI defaults; its scores."""
    data_dir = Path(inputs["data"])
    scores = []
    for task, kind, train, evaluation in TASKS:
        stage = out / f"{model_name}_{task}"
        checks.cli("finetune", "--run-dir", stage, "--model", ckpt,
                   "--vocab", data_dir / "vocab.txt", "--train", data_dir / train,
                   "--eval", data_dir / evaluation, "--task-kind", kind, "--task-name", task,
                   "--model-name", model_name, "--ft-epochs", scale.ft_epochs, "--seed", seed,
                   "--out", stage / "model")
        scores.append(_read_metric_report(stage / "metrics.csv").metric_value)
    return scores


# -- trace coverage ------------------------------------------------------------

# tape ops a workload never runs; it must run every other op forward and backward
UNUSED_OPS = {
    "pretrain_teacher": {"exp", "select", "dropout"},
    "distill_student": {"select", "dropout"},
    "downstream": {"exp"},
}


def check_coverage(workload: str, reduction, record: dict, facts: dict, checks: Checks) -> None:
    """Wrapper call counts must match the workload's structure, so a name the
    wrappers missed cannot silently zero a layer."""
    def exact(name: str, want: int) -> None:
        got = reduction.count(name)
        checks.expect(got == want, f"{workload} trace: {name} ran {got} times, expected {want}")

    steps = record["steps"]
    for name in ("optim.adamw_step", "optim.clip_grad_norm", "autograd.backward"):
        exact(name, steps)
    if workload in ("pretrain_teacher", "distill_student"):
        teacher = workload == "distill_student"
        exact("cli.main", 1)
        exact("model.forward_mlm_grad", steps)
        exact("model.forward_mlm_nograd", steps * teacher + facts["eval_batches"])
        exact("data.make_mlm_batch", steps + facts["eval_batches"])
        exact("losses.distill_loss", steps)
        exact("losses.kl_divergence", steps * teacher)
        exact("checkpoint.save", 1)
        exact("checkpoint.load", 1 + teacher)
    else:
        exact("cli.main", len(MODELS) * len(TASKS))
        exact("harness.finetune", len(MODELS) * len(TASKS))
        exact("harness.eval", len(MODELS) * len(TASKS))
        exact("checkpoint.save", len(MODELS) * len(TASKS))
        exact("checkpoint.load", len(MODELS) * len(TASKS))
        exact("model.forward_mlm_grad", 0)
        exact("model.forward_mlm_nograd", 0)
        exact("losses.distill_loss", 0)
        exact("harness.measure_speedup", 1)
        exact("harness.emit_report", 2)
    for op in OPS:
        fwd, bwd = reduction.count(f"autograd.{op}"), reduction.count(f"autograd.{op}.bwd")
        if op in UNUSED_OPS[workload]:
            checks.expect(fwd == 0, f"{workload} trace: op {op} ran {fwd} times, expected none")
        else:
            checks.expect(fwd > 0 and bwd > 0,
                          f"{workload} trace: op {op} ran {fwd} forward and {bwd} backward")
