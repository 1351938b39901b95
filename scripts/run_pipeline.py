#!/usr/bin/env python3
"""Full distillation pipeline at desk scale.

Generates the bilingual corpus, pretrains a multilingual teacher, distills a
single-language student, and compares both on masked prediction and on a
classification finetune. Training stages go through the command line driver,
so each one leaves a run directory with a manifest and a loss log.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

from monodistil.checkpoint import load_checkpoint
from monodistil.cli import main as cli
from monodistil.data import load_corpus
from monodistil.distill import evaluate_masked
from monodistil.harness import TaskSpec, compare, emit_report
from monodistil.tokenizer import Vocab


def run(argv: list[str]) -> None:
    print("$ monodistil " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/pipeline", help="wiped first")
    parser.add_argument("--docs", type=int, default=12000,
                        help="documents per language")
    parser.add_argument("--heldout", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--teacher-epochs", type=int, default=8)
    parser.add_argument("--quick", action="store_true",
                        help="small corpus and short schedule for a smoke run")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    if args.quick:
        args.docs = min(args.docs, 1000)
        args.teacher_epochs = min(args.teacher_epochs, 2)
    work = Path(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    started = time.monotonic()

    run(["synth", "--run-dir", str(work / "run_synth"), "--out", str(data),
         "--docs", str(args.docs), "--heldout", str(args.heldout),
         "--seed", str(args.seed)])

    teacher_dir = work / "teacher"
    run(["pretrain", "--run-dir", str(work / "run_pretrain"),
         "--corpus", str(data / "corpus_mixed.txt"),
         "--vocab", str(data / "vocab.txt"),
         "--epochs", str(args.teacher_epochs), "--batch-size", "32",
         "--lr", "3e-3", "--seed", str(args.seed), "--out", str(teacher_dir)])

    student_dir = work / "student"
    run(["distill", "--run-dir", str(work / "run_distill"),
         "--teacher", str(teacher_dir), "--corpus", str(data / "corpus_a.txt"),
         "--vocab", str(data / "vocab.txt"), "--seed", str(args.seed),
         "--out", str(student_dir)])

    vocab = Vocab.load(data / "vocab.txt")
    teacher = load_checkpoint(teacher_dir, vocab)
    student = load_checkpoint(student_dir, vocab)
    heldout = load_corpus(data / "heldout_a.txt")
    for name, model in (("teacher", teacher), ("student", student)):
        stats = evaluate_masked(model, heldout, vocab, seed=101)
        print(f"{name}: masked accuracy {stats['masked_accuracy']:.4f}, "
              f"cross entropy {stats['masked_ce']:.4f} "
              f"over {stats['positions']} positions")

    task = TaskSpec(name="polarity", kind="classification",
                    train_path=str(data / "cls_train.tsv"),
                    eval_path=str(data / "cls_eval.tsv"), seed=args.seed)
    comparison = compare([("mBERT", teacher), ("dBERT", student)], task, vocab)
    emit_report(comparison, "csv", work / "report.csv")
    emit_report(comparison, "markdown", work / "report.md")
    print((work / "report.md").read_text(encoding="utf-8"))
    print(f"total {time.monotonic() - started:.0f}s; artifacts under {work}")


if __name__ == "__main__":
    main()
