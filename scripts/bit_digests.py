#!/usr/bin/env python3
"""Run the bit-identity recipe and print one ``name sha256[:16]`` line per output.

The recipe, every command at seed 1 and one BLAS thread:

* ``synth``;
* a set-up teacher: ``pretrain`` for 1 epoch at batch 32, learning rate
  3e-3, ``max_len`` 32;
* ``pretrain`` for 2 epochs at those settings;
* from the set-up teacher on ``corpus_a``: a student (``distill`` for 3
  epochs at batch 8), ``condition`` for 1 epoch, and a copy-freeze
  ``distill`` for 1 epoch as wide as the teacher;
* the set-up teacher's and the student's finetunes on both tasks;
* ``evaluate`` of the finetuned students on both eval files.

Each checkpoint gives its ``weights.bin`` and ``manifest``, each training run
its ``config.resolved`` and the ``step`` ... ``n_masked`` columns of its
``loss_log.csv``, each finetune its ``metrics.csv`` without
``runtime_seconds``, and each evaluation its ``metrics.csv`` without the
``model`` and ``task`` columns, which hold the run's paths: the outputs that
carry no wall-clock time and no path. Run it on two
source trees and diff the outputs; equal lines mean equal bits:

    python scripts/bit_digests.py --src ../parent/src --workdir /tmp/a > parent.txt
    python scripts/bit_digests.py --workdir /tmp/b > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = "1"
TRAIN = ["--batch-size", "32", "--lr", "3e-3", "--max-len", "32"]
TEACHER_WIDTH = ["--hidden-dim", "64", "--intermediate-size", "256"]
TASKS = (("cls", "classification", "cls_train.tsv", "cls_eval.tsv"),
         ("tag", "tagging", "tag_train.conll", "tag_eval.conll"))


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _csv_digest(path: Path, keep) -> str:
    """The digest of the csv at ``path`` cut to the columns ``keep(header)`` names."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    columns = [i for i, name in enumerate(rows[0]) if name in keep(rows[0])]
    return _short("\n".join(",".join(row[i] for i in columns) for row in rows).encode())


class Recipe:
    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
        self.lines: list[str] = []

    def cli(self, name: str, *argv: str) -> Path:
        """Run one command with its run directory at ``work/name``; return that directory."""
        run_dir = self.work / name
        cmd = [sys.executable, "-m", "monodistil", argv[0], "--run-dir", str(run_dir),
               "--seed", SEED, *argv[1:]]
        result = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        if result.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {result.returncode}:\n{result.stderr}")
        return run_dir

    def checkpoint(self, name: str, path: Path) -> None:
        for part in ("weights.bin", "manifest"):
            self.lines.append(f"{name}/{part} {_short((path / part).read_bytes())}")

    def train(self, name: str, *argv: str) -> Path:
        run_dir = self.cli(name, *argv)
        self.checkpoint(name, run_dir / "checkpoint")
        self.lines.append(f"{name}/config.resolved "
                          f"{_short((run_dir / 'config.resolved').read_bytes())}")
        through_n_masked = lambda header: header[:header.index("n_masked") + 1]
        self.lines.append(f"{name}/loss_log "
                          f"{_csv_digest(run_dir / 'loss_log.csv', through_n_masked)}")
        return run_dir / "checkpoint"

    def finetune(self, name: str, model: Path, kind: str, train: str, evaluation: str) -> Path:
        data = self.work / "data"
        run_dir = self.cli(name, "finetune", "--model", str(model),
                           "--vocab", str(data / "vocab.txt"), "--train", str(data / train),
                           "--eval", str(data / evaluation), "--task-kind", kind)
        self.checkpoint(name, run_dir / "checkpoint")
        without_runtime = lambda header: [c for c in header if c != "runtime_seconds"]
        self.lines.append(f"{name}/metrics {_csv_digest(run_dir / 'metrics.csv', without_runtime)}")
        return run_dir / "checkpoint"

    def evaluate(self, name: str, model: Path, evaluation: str) -> None:
        data = self.work / "data"
        run_dir = self.cli(name, "evaluate", "--model", str(model),
                           "--vocab", str(data / "vocab.txt"), "--eval", str(data / evaluation))
        without_paths = lambda header: [c for c in header if c not in ("model", "task")]
        self.lines.append(f"{name}/metrics {_csv_digest(run_dir / 'metrics.csv', without_paths)}")


def run(src: Path, work: Path, docs: int) -> list[str]:
    shutil.rmtree(work, ignore_errors=True)
    recipe = Recipe(src, work)
    data = work / "data"
    recipe.cli("synth", "synth", "--out", str(data), "--docs", str(docs))
    vocab = ["--vocab", str(data / "vocab.txt")]
    mixed = ["--corpus", str(data / "corpus_mixed.txt"), *vocab]
    teacher = recipe.train("setup_teacher", "pretrain", *mixed, "--epochs", "1", *TRAIN)
    recipe.train("pretrain", "pretrain", *mixed, "--epochs", "2", *TRAIN)
    from_teacher = ["--teacher", str(teacher), "--corpus", str(data / "corpus_a.txt"), *vocab]
    student = recipe.train("distill", "distill", *from_teacher, "--epochs", "3",
                           "--batch-size", "8")
    recipe.train("condition", "condition", *from_teacher, "--epochs", "1")
    recipe.train("copy_freeze", "distill", *from_teacher, "--epochs", "1",
                 "--init", "copy-freeze", *TEACHER_WIDTH)
    for model_name, model in (("teacher", teacher), ("student", student)):
        for task, kind, train, evaluation in TASKS:
            tuned = recipe.finetune(f"{task}_{model_name}", model, kind, train, evaluation)
            if model_name == "student":
                recipe.evaluate(f"{task}_{model_name}_evaluate", tuned, evaluation)
    return recipe.lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="the source tree whose monodistil runs (default: this repository's)")
    parser.add_argument("--workdir", default="runs/bit_digests", help="wiped first")
    parser.add_argument("--docs", type=int, default=300, help="documents per language")
    args = parser.parse_args()
    for line in run(Path(args.src).resolve(), Path(args.workdir), args.docs):
        print(line)


if __name__ == "__main__":
    main()
