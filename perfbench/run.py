#!/usr/bin/env python3
"""Benchmark of the monodistil pipeline, driven through its command line.

Run from the repository root:

    python3 perfbench/run.py --workload distill_student --seed 1 --seconds 20 --trace 0

Set-up generates the inputs, and is repeated after the workload to time it
again and to check that the seed reproduces them. A fresh child process
repeats the workload for ``--seconds`` and checks every output. With ``--trace 1`` the child
alternates untraced iterations with traced ones and reports per-layer
metrics instead of end-to-end ones. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pretrain_teacher", "distill_student", "downstream")
MLM_WORKLOADS = ("pretrain_teacher", "distill_student")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "tokens_per_s": "1/s", "step_ms_p50": "ms",
                    "step_ms_p90": "ms", "peak_rss_mb": "MB", "masked_ce": "nats",
                    "task_score_mean": "ratio"}
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: tiny corpus, one epoch, truncated task files")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    The model's matrices are small. With two OpenBLAS threads on a 2-CPU
    machine that had other work running, matmul backward ran about 50x
    slower, because the threads spin while they wait for each other.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(root: Path, seed: int, threads: int) -> dict:
    """Informational record of the machine and the code measured."""
    import platform
    import tomllib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "numpy": np.__version__, "python": platform.python_version(), "seed": seed,
            "src_lines": src_lines, "dependencies": deps}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- child: the timed workload in a fresh process ------------------------------


def child_main(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import tracing
    import workloads as wl

    work, workload, seed = Path(spec["work"]), spec["workload"], spec["seed"]
    scale, inputs = wl.Scale(**spec["scale"]), spec["inputs"]
    checks = wl.Checks(work / "cli.log")
    iterations: list[dict] = []
    tracer = tracing.Tracer()
    try:
        facts = wl.workload_facts(workload, inputs, scale)
        deadline = time.perf_counter() + spec["seconds"]
        out = work / "iter"
        while True:
            k = len(iterations)
            traced = bool(spec["trace"]) and k % 2 == 1
            faults = tracing.minor_faults()
            if traced:
                instrumentation = tracing.Instrumentation(tracer)
                try:
                    record = tracer.run(f"{workload}-seed{seed}-iter{k}", lambda: wl.run_iteration(
                        workload, seed, inputs, scale, out, checks, stamp_steps=False))
                finally:
                    instrumentation.restore()
            else:
                record = wl.run_iteration(workload, seed, inputs, scale, out, checks,
                                          stamp_steps=True)
            faults = tracing.minor_faults() - faults
            wl.check_iteration(workload, inputs, out, record, checks, spec["teacher_digest"])
            if workload == "downstream":
                record["steps"] = len(wl.MODELS) * sum(facts["stage_steps"].values())
                record["tokens"] = len(wl.MODELS) * sum(facts["stage_tokens"].values())
            else:
                record["tokens"] = facts["tokens"]
            record["traced"] = traced
            if traced:
                tracer.counters["minor_faults"] = faults
                _, lo, hi = tracer.runs[-1]
                reduction = tracing.Reduction(tracer, lo, hi)
                loop_steps = record["steps"] if workload in MLM_WORKLOADS else 0
                record["layers"] = reduction.metrics(loop_steps)
                record["ops"] = {op: [reduction.count(f"autograd.{op}"),
                                      reduction.self_time(f"autograd.{op}"),
                                      reduction.count(f"autograd.{op}.bwd"),
                                      reduction.self_time(f"autograd.{op}.bwd")]
                                 for op in tracing.OPS + tracing.EXTRA_OPS}
                record["loop_layers"] = dict(reduction.loop_layers)
                wl.check_coverage(workload, reduction, record, facts, checks)
            iterations.append(record)
            # stop before an iteration that would end past the deadline
            longest = max(r["wall_s"] for r in iterations)
            if (time.perf_counter() + longest > deadline
                    and (not spec["trace"] or len(iterations) >= 2)):
                break
    except wl.CheckFailed:
        pass
    finally:
        if spec["trace"]:
            tracer.write_csv(work / "spans.csv")
    result = {"iterations": iterations, "attempted": checks.attempted,
              "failures": checks.failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    (work / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


# -- parent: set-up, the child, and the result ---------------------------------


def traced_setup(args, scale, work: Path, checks, wl, tracing) -> tuple[dict, dict]:
    """One traced set-up; returns the inputs and the set-up layers' metrics."""
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    try:
        inputs = tracer.run(f"{args.workload}-seed{args.seed}-setup",
                            lambda: wl.setup(args.workload, args.seed, work / "setup", scale, checks))
    finally:
        instrumentation.restore()
        tracer.write_csv(work / "setup_spans.csv")
    reduction = tracing.Reduction(tracer, 0, len(tracer.codes))
    return inputs, {"synth.generate_bundle_s": reduction.incl("synth.generate_bundle"),
                    "tokenizer.train_vocab_s": reduction.incl("tokenizer.train_vocab")}


def timed_setup(args, scale, root: Path, checks, wl) -> tuple[float, dict]:
    t0 = time.perf_counter()
    inputs = wl.setup(args.workload, args.seed, root, scale, checks)
    return time.perf_counter() - t0, inputs


def repeat_setup(args, scale, work: Path, inputs: dict, checks, wl) -> list[float]:
    """Set up again after the workload: the same seed must give the same
    digests. Repeats taken half a minute after the first one are less likely
    to share its slow phase of the machine."""
    first, times = wl.input_digests(inputs), []
    for _ in range(scale.setup_repeats - 1):
        seconds, again = timed_setup(args, scale, work / "setup_again", checks, wl)
        times.append(seconds)
        digests = wl.input_digests(again)
        checks.expect(digests == first, f"set-up with seed {args.seed} is not reproducible: "
                                        f"{digests} != {first}")
    return times


def run_child(args, scale, work: Path, src: Path, inputs: dict, checks, wl,
              timeout: float) -> dict | None:
    digests = wl.input_digests(inputs)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": asdict(scale), "inputs": inputs,
            "teacher_digest": digests.get("teacher"), "work": str(work), "src": str(src)}
    spec_path = work / "child_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--child", str(spec_path)],
                                  stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            checks.expect(False, f"workload process exceeded {timeout:.0f} s")
            return None
    result_path = work / "child.json"
    if not checks.expect(proc.returncode == 0 and result_path.exists(),
                         f"workload process exited {proc.returncode}; see {work / 'child.log'}"):
        return None
    child = json.loads(result_path.read_text(encoding="utf-8"))
    checks.attempted += child["attempted"]
    checks.failures.extend(child["failures"])
    iterations = child["iterations"]
    for key in ("digests", "masked", "task_scores"):
        values = [json.dumps(r[key], sort_keys=True) for r in iterations if key in r]
        if values:
            checks.expect(len(set(values)) == 1,
                          f"{key} differ between iterations with one seed: {sorted(set(values))}")
    return child


def end_to_end(args, scale, work: Path, child, inputs, checks, wl) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced iterations, and informational values."""
    # Other tenants slow this machine down for tens of seconds at a time, so
    # wall time, throughput and the typical step come from the least disturbed
    # iteration; the p90 tail is pooled over every iteration.
    its = [r for r in child["iterations"] if not r["traced"]]
    m = {"wall_s": min(r["wall_s"] for r in its),
         "tokens_per_s": max(r["tokens"] / r["loop_s"] for r in its)}
    if args.workload in MLM_WORKLOADS:
        stages = {"loop": [r["step_s"] for r in its]}
    else:
        # teacher steps take ~4x student steps: take each finetune stage's
        # percentiles on their own and average them
        stages = {s: [r["stage_step_s"][s] for r in its] for s in its[0]["stage_step_s"]}
    m["step_ms_p50"] = 1000.0 * statistics.fmean(
        min(percentile(steps, 50) for steps in per_iteration) for per_iteration in stages.values())
    m["step_ms_p90"] = 1000.0 * statistics.fmean(
        percentile([x for steps in per_iteration for x in steps], 90)
        for per_iteration in stages.values())
    m["peak_rss_mb"] = child["peak_rss_mb"]
    last = work / "iter" / "model"
    quality = work / "quality"
    if args.workload in MLM_WORKLOADS:
        masked = [its[-1]["masked"]]
        name = "mBERT" if args.workload == "pretrain_teacher" else "dBERT"
        scores = wl.task_scores(name, str(last), inputs, scale, args.seed, quality, checks)
    else:
        masked = [wl.masked_eval(inputs[k], inputs) for k in ("teacher", "student")]
        scores = list(its[-1]["task_scores"].values())
    m["masked_ce"] = statistics.fmean(x["masked_ce"] for x in masked)
    m["task_score_mean"] = statistics.fmean(scores)
    # informational: at this scale accuracy is near chance and too noisy to gate
    info = {"masked_acc": statistics.fmean(x["masked_acc"] for x in masked),
            "iteration_wall_s": [r["wall_s"] for r in its]}
    return m, info


def per_layer(args, child, setup_layers: dict) -> dict:
    import tracing
    traced = [r for r in child["iterations"] if r["traced"]]
    plain = [r for r in child["iterations"] if not r["traced"]]
    m = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    m.update(setup_layers)
    for task in ("cls", "tag"):
        m[f"harness.speedup_{task}"] = (statistics.median(r["speedup"][task] for r in plain)
                                        if args.workload == "downstream" else 0.0)
    m["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in plain))
    m["trace.step_ms_traced"] = 1000.0 * statistics.median(r["loop_s"] / r["steps"] for r in traced)
    m["trace.step_ms_untraced"] = 1000.0 * statistics.median(r["loop_s"] / r["steps"] for r in plain)
    order = [f"autograd.{op}.{d}_s" for op in tracing.OPS for d in ("fwd", "bwd")]
    return {k: m[k] for k in order + sorted(set(m) - set(order))}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms_traced") or name.endswith("_ms_untraced"):
        return "ms"
    if name.endswith("_s") or ".finetune_train_s." in name:
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.startswith("harness.speedup"):
        return "x"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def trace_tables(args, child, metrics: dict) -> str:
    """Markdown: the per-op table, the GC/memory summary, and the step accounting."""
    import tracing
    traced = [r for r in child["iterations"] if r["traced"]]
    lines = [f"## {args.workload} (seed {args.seed}, median of {len(traced)} traced iterations)",
             "", "| op | fwd calls | fwd s | bwd calls | bwd s |", "| --- | ---: | ---: | ---: | ---: |"]
    for op in tracing.OPS + tracing.EXTRA_OPS:
        cols = [statistics.median(r["ops"][op][i] for r in traced) for i in range(4)]
        lines.append(f"| {op} | {cols[0]:.0f} | {cols[1]:.4f} | {cols[2]:.0f} | {cols[3]:.4f} |")
    gc_keys = ("autograd.gc_collected", "autograd.gc_pause_s", "autograd.minor_faults")
    lines += ["", "| gc_collected | gc_pause_s | minor_faults | peak_rss_mb |",
              "| ---: | ---: | ---: | ---: |",
              "| " + " | ".join(f"{metrics[k]:.4g}" for k in gc_keys)
              + f" | {child['peak_rss_mb']:.1f} |"]
    steps = statistics.median(r["steps"] for r in traced)
    if args.workload in MLM_WORKLOADS and steps:
        per_step = {layer: 1000.0 * statistics.median(r["loop_layers"].get(layer, 0.0) for r in traced)
                    / steps for layer in sorted({k for r in traced for k in r["loop_layers"]})}
        untraced = metrics["trace.step_ms_untraced"]
        overhead = 1000.0 * metrics["trace.overhead_s"] / steps
        lines += ["", "| layer | self ms per step (traced loop) |", "| --- | ---: |"]
        lines += [f"| {k} | {v:.3f} |" for k, v in per_step.items() if v > 0]
        lines += [f"| sum | {sum(per_step.values()):.3f} |", "",
                  f"untraced step {untraced:.3f} ms; traced minus untraced "
                  f"{sum(per_step.values()) - untraced:.3f} ms per step; wall overhead "
                  f"{overhead:.3f} ms per step"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(Path(args.child))
    root = Path.cwd()
    src = root / "src"
    if not (src / "monodistil" / "__init__.py").is_file():
        print(f"perfbench: {src / 'monodistil'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    started = time.perf_counter()
    # exit through SystemExit on SIGTERM, so subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = limit_blas_threads()
    sys.path.insert(0, str(src))
    import tracing
    import workloads as wl

    scale = wl.TINY if args.tiny else wl.Scale()
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = wl.Checks(work / "cli.log")
    env = environment(root, args.seed, threads)
    print("env " + json.dumps(env))

    metrics: dict = {}
    info: dict = {}
    tables = ""
    try:
        if args.trace:
            inputs, setup_layers = traced_setup(args, scale, work, checks, wl, tracing)
        else:
            seconds, inputs = timed_setup(args, scale, work / "setup", checks, wl)
        child = run_child(args, scale, work, src, inputs, checks, wl,
                          CHILD_TIMEOUT_S - (time.perf_counter() - started))
        if child is not None and child["iterations"] and not checks.failures:
            if args.trace:
                metrics = per_layer(args, child, setup_layers)
                tables = trace_tables(args, child, metrics)
            else:
                metrics, info = end_to_end(args, scale, work, child, inputs, checks, wl)
                info["setup_runs_s"] = [seconds] + repeat_setup(args, scale, work, inputs,
                                                                checks, wl)
                metrics["setup_s"] = min(info["setup_runs_s"])
                metrics = {k: metrics[k] for k in END_TO_END_UNITS}
    except wl.CheckFailed:
        pass

    failed = len(checks.failures)
    for message in checks.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    if tables:
        print(tables)
        (work / "trace_tables.md").write_text(tables, encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    for name, value in info.items():
        print(f"{name} {json.dumps(value)} (informational)")
    print(f"error_rate {failed / max(checks.attempted, 1):.6g} ({failed} of {checks.attempted})")
    result = {"correct": failed == 0 and bool(metrics), "attempted": max(checks.attempted, 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    (work / "result.json").write_text(json.dumps({"env": env, "info": info, **result}, indent=1),
                                      encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
