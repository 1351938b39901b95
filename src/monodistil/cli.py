"""Command line entry point: every experiment is one subcommand invocation.

Exit codes: 0 success, 2 for configuration/usage/data problems, 1 for
any other failure. Errors print a single ``Class: message`` line on
stderr. Each invocation owns one run directory (under $MONODISTIL_RUNS
or ./runs unless --run-dir is given) holding a manifest with input and
output digests, the resolved config, logs, checkpoints, and reports. This
module is the only writer of run directories: the library functions it
calls return their results and write nothing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time
from configparser import ConfigParser
from dataclasses import fields
from pathlib import Path

from .checkpoint import (MANIFEST_NAME, can_hold_checkpoint, checkpoint_digest,
                         load_checkpoint, load_finetuned, save_checkpoint)
from .data import load_corpus
from .distill import (MLM_ONLY_WEIGHTS, DistillConfig, TrainState, condition_teacher,
                      distill_run, load_distill_config, pretrain_mlm, write_loss_log,
                      write_resolved_config)
from .errors import ConfigurationError, DataError, UsageError, VocabularyError
from .harness import (HEAD_KINDS, TaskSpec, emit_report, evaluate_task, finetune,
                      parse_report_csv, run_ablation_conditioning,
                      run_ablation_data_fraction, run_ablation_init)
from .model import EncoderConfig
from .synth import SynthConfig, generate_bundle, write_bundle
from .tokenizer import Vocab, train_vocab

RUNS_ENV = "MONODISTIL_RUNS"

INIT_FLAG_MAP = {"none": "none", "copy": "copy", "copy-freeze": "copy_and_freeze"}


def _short_hash(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:8]


def _digest(path: Path) -> str:
    """A checkpoint directory's ``checkpoint_digest``, a file's sha256, or
    ``stream`` for a pipe, which can be read only once and is left to the command.
    A directory without a manifest is no checkpoint: a ``DataError``."""
    if path.is_dir():
        if not (path / MANIFEST_NAME).exists():
            raise DataError(f"input is a directory but not a checkpoint (no manifest): {path}")
        return checkpoint_digest(path)
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    return "stream"


def _run_seed(args) -> int:
    """``--seed``, or the library functions' default seed, 0."""
    return args.seed if args.seed is not None else 0


def _make_dir(path: Path, flag: str) -> Path:
    """Make ``path`` a directory, with its parents; a file in the way is a
    ``UsageError`` naming ``flag``."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"{flag} {path} is not a directory") from exc
    return path


def _write_sections(run_dir: Path, sections: dict, mode: str) -> None:
    """Write ``sections`` to the manifest: ``mode`` "w" starts it, "a" appends."""
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_dict(sections)
    with open(run_dir / "manifest", mode, encoding="utf-8") as fh:
        parser.write(fh)


def prepare_run(subcommand: str, args, inputs: list, checkpoint_out=None, seed=None) -> Path:
    """Create the run directory and record the manifest, with the digest of
    every input, before any work. ``checkpoint_out`` is the ``--out`` a
    training command will save its checkpoint to; one that no checkpoint
    may replace is refused here, before training. ``seed`` is the seed the
    run uses where a config file may set it; by default ``--seed``, else 0.
    ``main`` appends the command's ``[status]`` to this manifest."""
    if checkpoint_out is not None and not can_hold_checkpoint(checkpoint_out):
        raise UsageError(f"--out {checkpoint_out} is not a checkpoint directory; "
                         "name a new path or an existing checkpoint")
    digests = {}
    for item in inputs:
        if item is None:
            continue
        p = Path(item)
        if not p.exists():
            raise DataError(f"input does not exist: {p}")
        digests[str(p)] = _digest(p)
    if getattr(args, "run_dir", None):
        run_dir = _make_dir(Path(args.run_dir), "--run-dir")
    else:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        run_id = f"{stamp}-{_short_hash(subcommand, vars(args), time.time_ns())}"
        run_dir = _make_dir(Path(os.environ.get(RUNS_ENV, "runs")) / run_id, f"${RUNS_ENV}")
    run = {"id": run_dir.name, "subcommand": subcommand,
           "seed": str(seed if seed is not None else _run_seed(args))}
    _write_sections(run_dir, {"run": run, "inputs": digests}, "w")
    args.prepared_run = run_dir
    return run_dir


def _record_outputs(run_dir: Path, outputs) -> None:
    """Append an ``[outputs]`` section with the digest of each output path."""
    _write_sections(run_dir, {"outputs": {str(p): _digest(Path(p)) for p in outputs}}, "a")


def _checkpoint_out(args, run_dir: Path) -> Path:
    return Path(args.out) if args.out else run_dir / "checkpoint"


def _given(**flags) -> dict:
    """The flags that were given; the library's defaults stand for the rest."""
    return {name: value for name, value in flags.items() if value is not None}


def _resolve_distill_config(args, mlm_only: bool = False) -> DistillConfig:
    """Flags over config file over defaults. ``mlm_only`` pins the loss
    weights to MLM alone; a config file that sets them otherwise is an error."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(DistillConfig)}
    fixed = MLM_ONLY_WEIGHTS if mlm_only else {}
    if getattr(args, "config", None):
        return load_distill_config(args.config, overrides, fixed)
    return DistillConfig(**_given(**overrides), **fixed)


def _finish_training(run_dir: Path, args, model, state: TrainState, vocab: Vocab,
                     source: str) -> int:
    """Write the loss log and the resolved config, save the checkpoint, and
    list all three in the manifest."""
    log, resolved = run_dir / "loss_log.csv", run_dir / "config.resolved"
    write_loss_log(state, log)
    write_resolved_config(state.config, resolved)
    out = _checkpoint_out(args, run_dir)
    save_checkpoint(model, out, vocab, seed=state.config.seed, source=source)
    _record_outputs(run_dir, [log, resolved, out])
    last = state.log[-1]
    print(f"checkpoint: {out}")
    print(f"final_loss: {last.total:.6f} after {last.step} steps")
    return 0


def _encoder_config(args, vocab: Vocab) -> EncoderConfig:
    """The architecture flags, whose dests are ``EncoderConfig``'s field names."""
    return EncoderConfig(**{f.name: getattr(args, f.name) for f in fields(EncoderConfig)
                            if f.name != "vocab_size"}, vocab_size=len(vocab))


def _require_checkpoint(path) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise DataError(f"checkpoint directory does not exist: {p}")
    return p


def _task_spec(args, seed: int | None = None) -> TaskSpec:
    """The finetune task the flags describe; ``seed`` overrides ``--seed``."""
    return TaskSpec(name=args.task_name, kind=args.task_kind, train_path=args.train,
                    eval_path=args.eval,
                    **_given(epochs=args.ft_epochs, learning_rate=args.ft_lr,
                             batch_size=args.ft_batch_size,
                             seed=args.seed if seed is None else seed, max_len=args.max_len))


def cmd_synth(args) -> int:
    run_dir = prepare_run("synth", args, [])
    cfg = SynthConfig(docs_per_language=args.docs, seed=_run_seed(args),
                      heldout_docs=args.heldout)
    out = _make_dir(Path(args.out), "--out") if args.out else run_dir / "data"
    bundle = generate_bundle(cfg)
    paths = write_bundle(bundle, out)
    vocab = train_vocab(bundle.mixed, args.vocab_size)
    vocab_path = out / "vocab.txt"
    vocab.save(vocab_path)
    paths["vocab"] = str(vocab_path)
    _record_outputs(run_dir, [paths[key] for key in sorted(paths)])
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_distill_config(args, mlm_only=True)
    run_dir = prepare_run("pretrain", args, [args.corpus, args.vocab, args.config],
                          checkpoint_out=args.out, seed=cfg.seed)
    vocab = Vocab.load(args.vocab)
    corpus = load_corpus(args.corpus)
    model_cfg = _encoder_config(args, vocab)
    model, state = pretrain_mlm(model_cfg, corpus, cfg, vocab)
    return _finish_training(run_dir, args, model, state, vocab, "pretrain")


def cmd_distill(args) -> int:
    cfg = _resolve_distill_config(args)
    run_dir = prepare_run("distill", args, [args.teacher, args.corpus, args.vocab, args.config],
                          checkpoint_out=args.out, seed=cfg.seed)
    vocab = Vocab.load(args.vocab)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    student_cfg = _encoder_config(args, vocab)
    student, state = distill_run(teacher, student_cfg, corpus, cfg, vocab,
                                 init_from_teacher=INIT_FLAG_MAP[args.init])
    return _finish_training(run_dir, args, student, state, vocab, "distill")


def cmd_condition(args) -> int:
    cfg = _resolve_distill_config(args, mlm_only=True)
    run_dir = prepare_run("condition", args, [args.teacher, args.corpus, args.vocab, args.config],
                          checkpoint_out=args.out, seed=cfg.seed)
    vocab = Vocab.load(args.vocab)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    conditioned, state = condition_teacher(teacher, corpus, cfg, vocab)
    return _finish_training(run_dir, args, conditioned, state, vocab, "condition")


def _write_metrics(run_dir: Path, row: tuple) -> Path:
    """Write the one-row ``metrics.csv`` of a scored run and return its path."""
    metrics = run_dir / "metrics.csv"
    with open(metrics, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([
            ("model", "task", "metric_name", "metric_value", "runtime_seconds", "seed",
             "config_hash"), row])
    return metrics


def cmd_finetune(args) -> int:
    run_dir = prepare_run("finetune", args, [args.model, args.vocab, args.train, args.eval],
                          checkpoint_out=args.out)
    vocab = Vocab.load(args.vocab)
    model = load_checkpoint(_require_checkpoint(args.model), vocab)
    task = _task_spec(args)
    tuned, head, report = finetune(model, task, vocab, args.model_name)
    out = _checkpoint_out(args, run_dir)
    save_checkpoint(tuned, out, vocab, seed=task.seed, source="finetune", head=head)
    metrics = _write_metrics(run_dir, (
        report.model_name, report.task_name, report.metric_name, repr(report.metric_value),
        repr(report.runtime_seconds), report.seed, report.config_hash))
    _record_outputs(run_dir, [out, metrics])
    print(f"checkpoint: {out}")
    print(f"{report.metric_name}: {report.metric_value:.4f} "
          f"(runtime {report.runtime_seconds:.2f}s)")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = prepare_run("evaluate", args, [args.model, args.vocab, args.eval])
    vocab = Vocab.load(args.vocab)
    model, head = load_finetuned(_require_checkpoint(args.model), vocab)
    seed = _run_seed(args)
    metric_name, value = evaluate_task(model, head, args.eval, vocab, seed=seed,
                                       **_given(max_len=args.max_len))
    # evaluate trains nothing and has no task config: no runtime, no config hash
    metrics = _write_metrics(run_dir, (args.model, args.eval, metric_name, repr(value), "",
                                       seed, ""))
    _record_outputs(run_dir, [metrics])
    print(f"{metric_name}: {value:.4f}")
    return 0


def _parse_fractions(text: str) -> list[float]:
    """The comma-separated ``--fractions``, each a number in (0, 1]."""
    fractions = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            value = float(part)
        except ValueError:
            value = None
        if value is None or not 0.0 < value <= 1.0:
            raise UsageError(f"--fractions entry {part!r} is not a number in (0, 1]")
        fractions.append(value)
    return fractions


def cmd_ablate(args) -> int:
    fractions = _parse_fractions(args.fractions)
    cfg = _resolve_distill_config(args)
    run_dir = prepare_run("ablate", args,
                          [args.teacher, args.corpus, args.vocab, args.train, args.eval,
                           args.config], seed=cfg.seed)
    vocab = Vocab.load(args.vocab)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    student_cfg = _encoder_config(args, vocab)
    # a seed set in --config trains the distilled students and the finetunes alike
    task = _task_spec(args, seed=cfg.seed)
    if args.protocol == "fraction":
        report = run_ablation_data_fraction(teacher, corpus, fractions, task, cfg, vocab,
                                            student_cfg)
    elif args.protocol == "conditioning":
        report = run_ablation_conditioning(teacher, corpus, task, cfg, vocab, student_cfg)
    else:
        report = run_ablation_init(teacher, corpus, task, cfg, vocab, student_cfg)
    resolved = run_dir / "config.resolved"
    write_resolved_config(cfg, resolved)
    outputs = [resolved, emit_report(report, "csv", run_dir / "report.csv"),
               emit_report(report, "markdown", run_dir / "report.md")]
    _record_outputs(run_dir, outputs)
    print(f"report: {outputs[-1]}")
    for row in report.rows:
        diff = "" if row.perf_diff is None else f" diff={row.perf_diff:+.4f}"
        print(f"{row.model} | {row.task} | {row.metric_name}={row.metric_value:.4f}{diff}")
    return 0


def cmd_report(args) -> int:
    run_dir = prepare_run("report", args, [args.input])
    out = Path(args.out)
    _make_dir(out.parent, "--out")
    if out.is_dir():
        raise UsageError(f"--out {out} is a directory; name the report file")
    report = parse_report_csv(args.input)
    emit_report(report, args.format, out)
    _record_outputs(run_dir, [out])
    print(f"report: {out}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--run-dir", help="explicit run directory (default: $MONODISTIL_RUNS/<id>)")
    p.add_argument("--seed", type=int, default=None)


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file with a [distill] section")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--mask-rate", dest="mask_rate", type=float, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)


def _add_arch_flags(p: argparse.ArgumentParser, hidden: int, intermediate: int,
                    layers: int, heads: int, positions: int):
    p.add_argument("--hidden-dim", type=int, default=hidden)
    p.add_argument("--intermediate-size", type=int, default=intermediate)
    p.add_argument("--num-layers", type=int, default=layers)
    p.add_argument("--num-heads", type=int, default=heads)
    p.add_argument("--max-positions", type=int, default=positions)


def _add_task_flags(p: argparse.ArgumentParser):
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--task-kind", choices=tuple(HEAD_KINDS), required=True)
    p.add_argument("--task-name", default="task")
    p.add_argument("--ft-epochs", type=int, default=None)
    p.add_argument("--ft-lr", type=float, default=None)
    p.add_argument("--ft-batch-size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodistil",
        description="Train a small single-language masked LM from a larger "
                    "multilingual teacher and reproduce the ablation reports.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate the synthetic bilingual corpus and tasks")
    _add_run_flags(p)
    p.add_argument("--out", help="output directory (default: <run>/data)")
    p.add_argument("--docs", type=int, default=300, help="documents per language")
    p.add_argument("--heldout", type=int, default=120, help="extra held-out documents")
    p.add_argument("--vocab-size", type=int, default=600)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="MLM-train a model from scratch")
    _add_run_flags(p)
    _add_train_flags(p)
    _add_arch_flags(p, hidden=64, intermediate=256, layers=2, heads=4, positions=64)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", help="checkpoint directory (default: <run>/checkpoint)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("distill", help="distill a student from a frozen teacher")
    _add_run_flags(p)
    _add_train_flags(p)
    _add_arch_flags(p, hidden=32, intermediate=128, layers=1, heads=4, positions=64)
    p.add_argument("--teacher", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--alpha-kl", dest="alpha_kl", type=float, default=None)
    p.add_argument("--alpha-mlm", dest="alpha_mlm", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--init", choices=tuple(INIT_FLAG_MAP), default="none")
    p.add_argument("--out", help="checkpoint directory (default: <run>/checkpoint)")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("condition", help="MLM-finetune a copy of a teacher on a corpus")
    _add_run_flags(p)
    _add_train_flags(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", help="checkpoint directory (default: <run>/checkpoint)")
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("finetune", help="finetune a checkpoint on a task")
    _add_run_flags(p)
    _add_task_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model-name", default="model")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--out", help="checkpoint directory (default: <run>/checkpoint)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a finetuned checkpoint on a task file")
    _add_run_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run one ablation protocol end to end")
    _add_run_flags(p)
    _add_train_flags(p)
    _add_arch_flags(p, hidden=32, intermediate=128, layers=1, heads=4, positions=64)
    _add_task_flags(p)
    p.add_argument("--protocol", choices=("fraction", "conditioning", "init"), required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--alpha-kl", dest="alpha_kl", type=float, default=None)
    p.add_argument("--alpha-mlm", dest="alpha_mlm", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--fractions", default="1.0,0.8,0.5")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="re-emit a report csv as markdown or csv")
    _add_run_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def _error_line(exc: BaseException) -> str:
    message = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {message}"


def _run_command(args) -> tuple[int, str | None]:
    """The command's exit code, and its error line when it failed."""
    try:
        return args.func(args), None
    except (ConfigurationError, UsageError, DataError, VocabularyError) as exc:
        return 2, _error_line(exc)
    except Exception as exc:
        return 1, _error_line(exc)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    started = time.perf_counter()
    exit_code, error = _run_command(args)
    if error is not None:
        print(error, file=sys.stderr)
    run_dir = getattr(args, "prepared_run", None)
    if run_dir is not None:
        status = {"exit_code": str(exit_code),
                  "seconds": f"{time.perf_counter() - started:.3f}"}
        if error is not None:
            status["error"] = error
        _write_sections(run_dir, {"status": status}, "a")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
