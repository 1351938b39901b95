"""Command line entry point: every experiment is one subcommand invocation.

Exit codes: 0 success, 2 for configuration/usage/data problems, 1 for
any other failure. Errors print a single ``Class: message`` line on
stderr. Each invocation owns one run directory (under $MONODISTIL_RUNS
or ./runs unless --run-dir is given) holding a manifest with input
digests, the resolved config, logs, checkpoints, and reports.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from configparser import ConfigParser
from pathlib import Path

from .checkpoint import load_checkpoint, load_finetuned, save_checkpoint
from .data import load_corpus, subsample
from .distill import (DistillConfig, TrainState, condition_teacher, distill_run,
                      load_distill_config, pretrain_mlm)
from .errors import (ConfigurationError, DataError, MonodistilError, UsageError,
                     VocabularyError)
from .harness import (BASELINE_NAME, TaskSpec, emit_report, evaluate_task, finetune,
                      parse_report_csv, run_ablation_conditioning,
                      run_ablation_data_fraction, run_ablation_init)
from .model import EncoderConfig
from .synth import SynthConfig, generate_bundle, write_bundle
from .tokenizer import Vocab, train_vocab

RUNS_ENV = "MONODISTIL_RUNS"

INIT_FLAG_MAP = {"none": "none", "copy": "copy", "copy-freeze": "copy_and_freeze"}

_DISTILL_FLAGS = ("alpha_kl", "alpha_mlm", "temperature", "epochs", "batch_size",
                  "learning_rate", "mask_rate", "seed", "max_len")
_MLM_ONLY_WEIGHTS = {"alpha_kl": 0.0, "alpha_mlm": 1.0}


def _short_hash(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:8]


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def prepare_run(subcommand: str, args, inputs: list) -> Path:
    """Create the run directory and record the manifest before any work."""
    if getattr(args, "run_dir", None):
        run_dir = Path(args.run_dir)
    else:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        run_id = f"{stamp}-{_short_hash(subcommand, vars(args), time.time_ns())}"
        run_dir = Path(os.environ.get(RUNS_ENV, "runs")) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    parser = ConfigParser()
    parser.optionxform = str
    parser["run"] = {
        "id": run_dir.name,
        "subcommand": subcommand,
        "seed": str(getattr(args, "seed", None) if getattr(args, "seed", None) is not None else 0),
    }
    digests = {}
    for item in inputs:
        if item is None:
            continue
        p = Path(item)
        if not p.exists():
            raise DataError(f"input does not exist: {p}")
        digests[str(p)] = _file_digest(p) if p.is_file() else "directory"
    parser["inputs"] = digests
    with open(run_dir / "manifest", "w", encoding="utf-8") as fh:
        parser.write(fh)
    return run_dir


def _resolve_distill_config(args, mlm_only: bool = False) -> DistillConfig:
    """Flags over config file over defaults. ``mlm_only`` pins the loss
    weights to MLM alone; a config file that sets them otherwise is an error."""
    overrides = {name: getattr(args, name, None) for name in _DISTILL_FLAGS}
    fixed = _MLM_ONLY_WEIGHTS if mlm_only else {}
    if getattr(args, "config", None):
        return load_distill_config(args.config, overrides, fixed)
    return DistillConfig(**{k: v for k, v in overrides.items() if v is not None}, **fixed)


def _print_training_result(out: Path, state: TrainState) -> int:
    last = state.log[-1]
    print(f"checkpoint: {out}")
    print(f"final_loss: {last.total:.6f} after {last.step} steps")
    return 0


def _encoder_config(args, vocab: Vocab) -> EncoderConfig:
    return EncoderConfig(
        hidden_dim=args.hidden_dim,
        intermediate_size=args.intermediate_size,
        num_layers=args.num_layers,
        num_heads=args.num_heads,
        max_positions=args.max_positions,
        vocab_size=len(vocab),
    )


def _load_vocab(args) -> Vocab:
    return Vocab.load(args.vocab)


def _require_checkpoint(path) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise DataError(f"checkpoint directory does not exist: {p}")
    return p


def _task_spec(args) -> TaskSpec:
    return TaskSpec(
        name=args.task_name,
        kind=args.task_kind,
        train_path=args.train,
        eval_path=args.eval,
        epochs=args.ft_epochs,
        learning_rate=args.ft_lr,
        batch_size=args.ft_batch_size,
        seed=args.seed if args.seed is not None else 0,
        max_len=args.max_len if args.max_len is not None else 32,
    )


def cmd_synth(args) -> int:
    run_dir = prepare_run("synth", args, [])
    out = Path(args.out) if args.out else run_dir / "data"
    cfg = SynthConfig(docs_per_language=args.docs, seed=args.seed if args.seed is not None else 0,
                      heldout_docs=args.heldout)
    bundle = generate_bundle(cfg)
    paths = write_bundle(bundle, out)
    vocab = train_vocab(bundle.mixed.documents, args.vocab_size)
    vocab_path = out / "vocab.txt"
    vocab.save(vocab_path)
    paths["vocab"] = str(vocab_path)
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def cmd_pretrain(args) -> int:
    run_dir = prepare_run("pretrain", args, [args.corpus, args.vocab, args.config])
    vocab = _load_vocab(args)
    corpus = load_corpus(args.corpus)
    cfg = _resolve_distill_config(args, mlm_only=True)
    model_cfg = _encoder_config(args, vocab)
    model, state = pretrain_mlm(model_cfg, corpus, cfg, vocab, run_dir=run_dir)
    out = Path(args.out) if args.out else run_dir / "checkpoint"
    save_checkpoint(model, out, vocab, seed=cfg.seed, source="pretrain")
    return _print_training_result(out, state)


def cmd_distill(args) -> int:
    run_dir = prepare_run("distill", args, [args.teacher, args.corpus, args.vocab, args.config])
    vocab = _load_vocab(args)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    cfg = _resolve_distill_config(args)
    if args.fraction is not None:
        corpus = subsample(corpus, args.fraction, cfg.seed)
    student_cfg = _encoder_config(args, vocab)
    init_mode = INIT_FLAG_MAP[args.init]
    student, state = distill_run(teacher, student_cfg, corpus, cfg, vocab,
                                 init_from_teacher=init_mode, run_dir=run_dir)
    out = Path(args.out) if args.out else run_dir / "checkpoint"
    save_checkpoint(student, out, vocab, seed=cfg.seed, source="distill")
    return _print_training_result(out, state)


def cmd_condition(args) -> int:
    run_dir = prepare_run("condition", args, [args.teacher, args.corpus, args.vocab, args.config])
    vocab = _load_vocab(args)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    cfg = _resolve_distill_config(args, mlm_only=True)
    conditioned, state = condition_teacher(teacher, corpus, cfg, vocab, run_dir=run_dir)
    out = Path(args.out) if args.out else run_dir / "checkpoint"
    save_checkpoint(conditioned, out, vocab, seed=cfg.seed, source="condition")
    return _print_training_result(out, state)


def cmd_finetune(args) -> int:
    run_dir = prepare_run("finetune", args, [args.model, args.vocab, args.train, args.eval])
    vocab = _load_vocab(args)
    model = load_checkpoint(_require_checkpoint(args.model), vocab)
    task = _task_spec(args)
    tuned, head, report = finetune(model, task, vocab, args.model_name)
    out = Path(args.out) if args.out else run_dir / "checkpoint"
    save_checkpoint(tuned, out, vocab, seed=task.seed, source="finetune", head=head)
    metrics_path = run_dir / "metrics.csv"
    metrics_path.write_text(
        "model,task,metric_name,metric_value,runtime_seconds,seed,config_hash\n"
        f"{report.model_name},{report.task_name},{report.metric_name},"
        f"{report.metric_value!r},{report.runtime_seconds!r},{report.seed},"
        f"{report.config_hash}\n", encoding="utf-8")
    print(f"checkpoint: {out}")
    print(f"{report.metric_name}: {report.metric_value:.4f} "
          f"(runtime {report.runtime_seconds:.2f}s)")
    return 0


def cmd_evaluate(args) -> int:
    prepare_run("evaluate", args, [args.model, args.vocab, args.eval])
    vocab = _load_vocab(args)
    model, head = load_finetuned(_require_checkpoint(args.model), vocab)
    metric_name, value = evaluate_task(
        model, head, args.eval, args.task_kind, vocab,
        max_len=args.max_len if args.max_len is not None else 32,
        seed=args.seed if args.seed is not None else 0)
    print(f"{metric_name}: {value:.4f}")
    return 0


def cmd_ablate(args) -> int:
    run_dir = prepare_run("ablate", args,
                          [args.teacher, args.corpus, args.vocab, args.train, args.eval,
                           args.config])
    vocab = _load_vocab(args)
    teacher = load_checkpoint(_require_checkpoint(args.teacher), vocab)
    corpus = load_corpus(args.corpus)
    cfg = _resolve_distill_config(args)
    student_cfg = _encoder_config(args, vocab)
    task = _task_spec(args)
    if args.protocol == "fraction":
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
        report = run_ablation_data_fraction(teacher, corpus, fractions, task, cfg, vocab,
                                            student_cfg, run_dir=run_dir)
    elif args.protocol == "conditioning":
        report = run_ablation_conditioning(teacher, corpus, task, cfg, vocab,
                                           student_cfg, run_dir=run_dir)
    else:
        report = run_ablation_init(teacher, corpus, task, cfg, vocab,
                                   student_cfg, run_dir=run_dir)
    print(f"report: {run_dir / 'report.md'}")
    for row in report.rows:
        diff = "" if row.perf_diff is None else f" diff={row.perf_diff:+.4f}"
        print(f"{row.model} | {row.task} | {row.metric_name}={row.metric_value:.4f}{diff}")
    return 0


def cmd_report(args) -> int:
    prepare_run("report", args, [args.input])
    report = parse_report_csv(args.input)
    out = Path(args.out)
    emit_report(report, args.format, out)
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
    p.add_argument("--task-kind", choices=("classification", "tagging"), required=True)
    p.add_argument("--task-name", default="task")
    p.add_argument("--ft-epochs", type=int, default=3)
    p.add_argument("--ft-lr", type=float, default=3e-3)
    p.add_argument("--ft-batch-size", type=int, default=16)


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
    p.add_argument("--fraction", type=float, default=None)
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
    p.add_argument("--task-kind", choices=("classification", "tagging"), required=True)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigurationError, UsageError, DataError, VocabularyError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"DataError: missing input: {exc}", file=sys.stderr)
        return 2
    except MonodistilError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
