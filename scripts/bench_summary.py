#!/usr/bin/env python3
"""Gather two sides' perfbench results into one BENCH file.

Each side is a directory of ``<workload>-seed<seed>/result.json`` files, the
layout perfbench writes under ``.bench_build/perfbench/``; copy each run's
directory aside (``cp -rp``, which keeps the modification times) before the
next run overwrites it. A workload and seed present on both sides form one
pair. Which side of a pair ran first is read from the files' modification
times. For each workload the summary holds every pair's values and, for
each metric, both sides' median and quartiles (``numpy.percentile``, linear
interpolation) and the pairs the change won and lost, ties counting for
neither; ``BENCHMARK.json`` says which direction of each metric is better.

    python3 scripts/bench_summary.py PARENT_DIR CHANGE_DIR --out BENCH_19.json \\
        --name claim --claim downstream tokens_per_s

The summary is stored under ``comparisons[<name>]`` of the output file,
which may already hold other comparisons. With ``--claim`` it also records
whether the change won at least nine tenths of that metric's pairs by a
median gap larger than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def read_side(root: Path) -> dict[tuple[str, int], dict]:
    """``(workload, seed) -> result`` for every result file under ``root``."""
    runs = {}
    for path in sorted(root.glob("*-seed*/result.json")):
        workload, _, seed = path.parent.name.rpartition("-seed")
        result = json.loads(path.read_text(encoding="utf-8"))
        result["mtime"] = path.stat().st_mtime
        runs[(workload, int(seed))] = result
    return runs


def directions(benchmark: Path) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"``, from the benchmark declaration."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: dict, change: dict, better: dict[str, str],
              metrics: list[str] | None = None) -> dict:
    """Per-workload pairs and per-metric medians, quartiles and wins."""
    out: dict = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, seed = key
        p, c = parent[key], change[key]
        names = [n for n in p["metrics"] if n in c["metrics"]]
        if metrics:
            names = [n for n in names if n in metrics]
        pair = {"seed": seed, "first": "parent" if p["mtime"] <= c["mtime"] else "change"}
        for side, result in (("parent", p), ("change", c)):
            pair[side] = {n: result["metrics"][n]["value"] for n in names}
            pair[f"{side}_failed"] = result["failed"]
            pair[f"{side}_attempted"] = result["attempted"]
        out.setdefault(workload, {"pairs": []})["pairs"].append(pair)
    for workload, entry in out.items():
        pairs = entry["pairs"]
        summary = {}
        for name in pairs[0]["parent"]:
            pv = [pair["parent"][name] for pair in pairs]
            cv = [pair["change"][name] for pair in pairs]
            sign = {"lower": -1.0, "higher": 1.0}.get(better.get(name), 0.0)
            gains = [sign * (b - a) for a, b in zip(pv, cv)]
            parent_spread = _spread(pv)
            summary[name] = {
                "parent": parent_spread, "change": _spread(cv),
                "change_wins": sum(g > 0 for g in gains),
                "change_losses": sum(g < 0 for g in gains),
                "pairs": len(pairs),
                "median_change_rel": (_spread(cv)["median"] / parent_spread["median"] - 1.0
                                      if parent_spread["median"] else 0.0),
            }
        entry["summary"] = summary
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """Whether ``metric`` on ``workload`` meets the gain rule."""
    s = summary[workload]["summary"][metric]
    gap = abs(s["change"]["median"] - s["parent"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    return {"workload": workload, "metric": metric,
            "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
            "parent_iqr": iqr, "change_wins": s["change_wins"], "pairs": s["pairs"],
            "met": s["change_wins"] >= WIN_SHARE * s["pairs"] and gap > iqr}


def environment(parent: dict, change: dict) -> dict:
    """The environment fields every run agrees on, plus each side's ``src_lines``."""
    envs = [r["env"] for r in list(parent.values()) + list(change.values())]
    common = {k: v for k, v in envs[0].items()
              if k not in ("seed", "src_lines") and all(e.get(k) == v for e in envs)}
    for side, runs in (("parent", parent), ("change", change)):
        common[f"{side}_src_lines"] = sorted({r["env"].get("src_lines") for r in runs.values()})
    return common


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's runs")
    parser.add_argument("change", type=Path, help="directory of the change's runs")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write or extend")
    parser.add_argument("--name", default="pairs", help="key of this comparison in the file")
    parser.add_argument("--note", default="", help="what the two sides are")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--metrics", help="comma-separated metrics to keep (default: all)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = read_side(args.parent), read_side(args.change)
    if not parent.keys() & change.keys():
        print(f"bench_summary: no workload and seed is present on both sides "
              f"({args.parent}, {args.change})", file=sys.stderr)
        return 2
    metrics = args.metrics.split(",") if args.metrics else None
    comparison = {"note": args.note, "env": environment(parent, change),
                  "workloads": summarize(parent, change, directions(REPO / "BENCHMARK.json"), metrics)}
    if args.claim:
        workload, metric = args.claim
        if metric not in comparison["workloads"].get(workload, {}).get("summary", {}):
            print(f"bench_summary: no {metric} pairs on {workload}", file=sys.stderr)
            return 2
        comparison["claim"] = claim(comparison["workloads"], workload, metric)
    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    document.setdefault("comparisons", {})[args.name] = comparison
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(comparison.get("claim", {"pairs": sum(
        len(w["pairs"]) for w in comparison["workloads"].values())})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
