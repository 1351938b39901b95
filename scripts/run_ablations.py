#!/usr/bin/env python3
"""All three ablation protocols against one shared teacher.

Teacher and student use the same shape so the embedding-copy protocol
applies. Each protocol leaves report.csv and report.md in its run directory
and prints its table to stdout.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from monodistil.cli import main as cli

# equal widths keep embedding copies shape-compatible across protocols
ARCH = ["--hidden-dim", "32", "--intermediate-size", "128",
        "--num-layers", "1", "--num-heads", "4", "--max-positions", "64"]
PROTOCOLS = ("fraction", "conditioning", "init")


def run(argv: list[str]) -> None:
    print("$ monodistil " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/ablations", help="wiped first")
    parser.add_argument("--docs", type=int, default=2000,
                        help="documents per language")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=3,
                        help="distillation epochs per student")
    parser.add_argument("--protocols", default=",".join(PROTOCOLS),
                        help="comma-separated subset of: " + ", ".join(PROTOCOLS))
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    chosen = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in chosen if p not in PROTOCOLS]
    if unknown:
        sys.exit(f"unknown protocol(s): {', '.join(unknown)}")

    work = Path(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    run(["synth", "--run-dir", str(work / "run_synth"), "--out", str(data),
         "--docs", str(args.docs), "--seed", str(args.seed)])

    teacher_dir = work / "teacher"
    run(["pretrain", "--run-dir", str(work / "run_pretrain"),
         "--corpus", str(data / "corpus_mixed.txt"),
         "--vocab", str(data / "vocab.txt"), *ARCH,
         "--epochs", str(args.epochs), "--batch-size", "32", "--lr", "3e-3",
         "--seed", str(args.seed), "--out", str(teacher_dir)])

    for protocol in chosen:
        run_dir = work / f"run_{protocol}"
        run(["ablate", "--run-dir", str(run_dir), "--protocol", protocol,
             "--teacher", str(teacher_dir),
             "--corpus", str(data / "corpus_a.txt"),
             "--vocab", str(data / "vocab.txt"), *ARCH,
             "--epochs", str(args.epochs), "--seed", str(args.seed),
             "--train", str(data / "cls_train.tsv"),
             "--eval", str(data / "cls_eval.tsv"),
             "--task-kind", "classification", "--task-name", "polarity"])
        print(f"{protocol}: report at {run_dir / 'report.md'}")


if __name__ == "__main__":
    main()
