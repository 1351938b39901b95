"""The pipeline scripts run end to end at a tiny scale."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _run_script(name: str, tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MONODISTIL_RUNS"] = str(tmp_path / "runs")
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_run_pipeline(tmp_path):
    work = tmp_path / "pipeline"
    result = _run_script("run_pipeline.py", tmp_path, "--workdir", str(work), "--docs", "40",
                         "--heldout", "10", "--teacher-epochs", "1")
    assert result.returncode == 0, result.stderr
    report = (work / "report.md").read_text(encoding="utf-8")
    assert "baseline: mBERT" in report
    assert "| mBERT |" in report and "| dBERT |" in report
    assert (work / "report.csv").exists()


def test_run_ablations(tmp_path):
    work = tmp_path / "ablations"
    result = _run_script("run_ablations.py", tmp_path, "--workdir", str(work), "--docs", "40",
                         "--epochs", "1")
    assert result.returncode == 0, result.stderr
    for protocol in ("fraction", "conditioning", "init"):
        assert "| mBERT |" in (work / f"run_{protocol}" / "report.md").read_text(encoding="utf-8")
        assert (work / f"run_{protocol}" / "report.csv").exists()


def test_bit_digests_repeat(tmp_path):
    outputs = [_run_script("bit_digests.py", tmp_path, "--workdir", str(tmp_path / name),
                           "--docs", "20") for name in ("one", "two")]
    for result in outputs:
        assert result.returncode == 0, result.stderr
    lines = outputs[0].stdout.splitlines()
    assert lines == outputs[1].stdout.splitlines()
    names = [line.split()[0] for line in lines]
    assert "distill/weights.bin" in names and "tag_student/metrics" in names
    assert all(re.fullmatch(r"\S+ [0-9a-f]{16}", line) for line in lines)


def _write_result(root: Path, workload: str, seed: int, metrics: dict, mtime: float,
                  src_lines: int) -> None:
    run = root / f"{workload}-seed{seed}"
    run.mkdir(parents=True)
    path = run / "result.json"
    env = {"cpu_count": 2, "blas_threads": 1, "numpy": "2.4.6", "seed": seed,
           "src_lines": src_lines}
    path.write_text(json.dumps({
        "env": env, "info": {}, "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
    os.utime(path, (mtime, mtime))


def test_bench_summary_pairs_seeds_and_checks_the_claim(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    for seed in range(1, 11):
        # the change runs first on odd seeds; it wins every tokens_per_s pair but
        # seed 10's, and step_ms_p50 ties on seed 1
        first, second = (1000.0 * seed, 1000.0 * seed + 1)
        parent_time, change_time = (second, first) if seed % 2 else (first, second)
        _write_result(parent, "downstream", seed,
                      {"tokens_per_s": 100.0 + seed, "step_ms_p50": 10.0}, parent_time, 90)
        _write_result(change, "downstream", seed,
                      {"tokens_per_s": 99.0 if seed == 10 else 120.0 + seed,
                       "step_ms_p50": 10.0 if seed == 1 else 9.0}, change_time, 95)
    for seed in range(21, 26):
        # every pair won, by less than the parent's interquartile range
        _write_result(parent, "distill_student", seed, {"tokens_per_s": 10.0 * seed}, 1.0, 90)
        _write_result(change, "distill_student", seed, {"tokens_per_s": 10.0 * seed + 1},
                      2.0, 95)
    _write_result(parent, "pretrain_teacher", 30, {"tokens_per_s": 5.0}, 1.0, 90)

    result = _run_script("bench_summary.py", tmp_path, str(parent), str(change), "--out",
                         str(out), "--name", "claim", "--claim", "downstream", "tokens_per_s")
    assert result.returncode == 0, result.stderr
    comparison = json.loads(out.read_text())["comparisons"]["claim"]
    # pretrain_teacher has no change run, so it forms no pair
    assert set(comparison["workloads"]) == {"downstream", "distill_student"}
    pairs = comparison["workloads"]["downstream"]["pairs"]
    assert [p["seed"] for p in pairs] == list(range(1, 11))
    assert [p["first"] for p in pairs] == ["change", "parent"] * 5
    summary = comparison["workloads"]["downstream"]["summary"]
    tokens = summary["tokens_per_s"]
    assert tokens["parent"] == {"median": 105.5, "q1": 103.25, "q3": 107.75}
    assert (tokens["change_wins"], tokens["change_losses"], tokens["pairs"]) == (9, 1, 10)
    steps = summary["step_ms_p50"]
    assert (steps["change_wins"], steps["change_losses"]) == (9, 0)
    assert comparison["claim"]["met"] is True
    assert comparison["env"]["numpy"] == "2.4.6" and "seed" not in comparison["env"]
    assert (comparison["env"]["parent_src_lines"], comparison["env"]["change_src_lines"]) \
        == ([90], [95])

    # a second comparison joins the file; winning every pair inside the IQR is no claim
    result = _run_script("bench_summary.py", tmp_path, str(parent), str(change), "--out",
                         str(out), "--name", "narrow", "--metrics", "tokens_per_s",
                         "--claim", "distill_student", "tokens_per_s")
    assert result.returncode == 0, result.stderr
    document = json.loads(out.read_text())["comparisons"]
    assert set(document) == {"claim", "narrow"}
    assert set(document["narrow"]["workloads"]["downstream"]["summary"]) == {"tokens_per_s"}
    narrow = document["narrow"]["claim"]
    assert (narrow["change_wins"], narrow["pairs"], narrow["met"]) == (5, 5, False)

    result = _run_script("bench_summary.py", tmp_path, str(parent), str(change), "--out",
                         str(out), "--claim", "downstream", "wall_s")
    assert result.returncode == 2 and "no wall_s pairs on downstream" in result.stderr
