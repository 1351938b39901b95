"""The pipeline scripts run end to end at a tiny scale."""

import os
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
