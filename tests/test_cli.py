"""End-to-end command line flows, run directories, and exit codes."""

import re
from pathlib import Path

import numpy as np
import pytest

from monodistil.checkpoint import checkpoint_digest
from monodistil.cli import main
from monodistil.distill import load_distill_config

ARCH = ["--hidden-dim", "16", "--intermediate-size", "32", "--num-layers", "1",
        "--num-heads", "2", "--max-positions", "16"]
TRAIN = ["--max-len", "16", "--epochs", "1", "--batch-size", "16"]


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--run-dir", str(root / "run_synth"), "--out", str(data),
                 "--docs", "30", "--heldout", "8", "--seed", "7"]) == 0
    teacher = root / "teacher"
    assert main(["pretrain", "--run-dir", str(root / "run_pretrain"),
                 "--corpus", str(data / "corpus_mixed.txt"),
                 "--vocab", str(data / "vocab.txt"),
                 *ARCH, *TRAIN, "--seed", "0", "--out", str(teacher)]) == 0
    return {
        "root": root,
        "data": data,
        "vocab": str(data / "vocab.txt"),
        "corpus_a": str(data / "corpus_a.txt"),
        "cls_train": str(data / "cls_train.tsv"),
        "cls_eval": str(data / "cls_eval.tsv"),
        "teacher": str(teacher),
    }


@pytest.fixture(scope="module")
def student_ckpt(cli_env):
    root = cli_env["root"]
    student = root / "student"
    rc = main(["distill", "--run-dir", str(root / "run_distill"),
               "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
               "--vocab", cli_env["vocab"], *ARCH, *TRAIN, "--seed", "0",
               "--out", str(student)])
    assert rc == 0
    return str(student)


class TestSynth:
    def test_same_seed_same_files(self, tmp_path):
        for sub in ("one", "two"):
            assert main(["synth", "--run-dir", str(tmp_path / f"run_{sub}"),
                         "--out", str(tmp_path / sub), "--docs", "10",
                         "--heldout", "4", "--seed", "5"]) == 0
        a = (tmp_path / "one" / "corpus_a.txt").read_bytes()
        b = (tmp_path / "two" / "corpus_a.txt").read_bytes()
        assert a == b

    def test_outputs_listed_on_stdout(self, tmp_path, capsys):
        assert main(["synth", "--run-dir", str(tmp_path / "run"),
                     "--out", str(tmp_path / "d"), "--docs", "5", "--heldout", "2"]) == 0
        out = capsys.readouterr().out
        assert "vocab" in out
        assert "cls_train" in out


class TestRunDirectory:
    def test_manifest_records_input_digests(self, cli_env):
        manifest = (cli_env["root"] / "run_pretrain" / "manifest").read_text(encoding="utf-8")
        assert "[run]" in manifest
        assert "subcommand = pretrain" in manifest
        assert re.search(r"= [0-9a-f]{64}$", manifest, flags=re.M)

    def test_runs_env_var_controls_default_location(self, cli_env, tmp_path, monkeypatch):
        monkeypatch.setenv("MONODISTIL_RUNS", str(tmp_path / "all_runs"))
        assert main(["synth", "--out", str(tmp_path / "d"), "--docs", "5",
                     "--heldout", "2"]) == 0
        runs = list((tmp_path / "all_runs").iterdir())
        assert len(runs) == 1
        assert (runs[0] / "manifest").exists()

    def test_distill_run_artifacts(self, cli_env, student_ckpt):
        run = cli_env["root"] / "run_distill"
        assert (run / "loss_log.csv").exists()
        assert (run / "manifest").exists()
        cfg = load_distill_config(run / "config.resolved")
        assert cfg.epochs == 1
        assert Path(student_ckpt, "weights.bin").exists()


class TestExitCodes:
    def test_zero_epochs_is_a_usage_error(self, cli_env, tmp_path, capsys):
        rc = main(["distill", "--run-dir", str(tmp_path / "r"),
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *ARCH, "--max-len", "16",
                   "--epochs", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "epochs" in err
        assert err.count("\n") == 1

    def test_nan_learning_rate_is_a_usage_error(self, cli_env, tmp_path, capsys):
        rc = main(["pretrain", "--run-dir", str(tmp_path / "r"),
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                   *ARCH, *TRAIN, "--lr", "nan", "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_diverging_pretrain_fails_and_saves_nothing(self, cli_env, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["pretrain", "--run-dir", str(tmp_path / "r"),
                       "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                       *ARCH, "--max-len", "16", "--epochs", "2", "--batch-size", "4",
                       "--lr", "1e6", "--out", str(tmp_path / "ckpt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("TrainingDivergedError:")
        assert not (tmp_path / "ckpt").exists()

    def test_diverging_finetune_fails_and_saves_nothing(self, cli_env, student_ckpt,
                                                        tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["finetune", "--run-dir", str(tmp_path / "r"),
                       "--model", student_ckpt, "--vocab", cli_env["vocab"],
                       "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                       "--task-kind", "classification", "--max-len", "16",
                       "--ft-lr", "1e6", "--out", str(tmp_path / "ckpt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("TrainingDivergedError:")
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_flag(self, capsys):
        assert main(["distill", "--frobnicate"]) == 2

    def test_missing_input_file(self, cli_env, tmp_path, capsys):
        rc = main(["pretrain", "--run-dir", str(tmp_path / "r"),
                   "--corpus", str(tmp_path / "absent.txt"),
                   "--vocab", cli_env["vocab"], *ARCH, *TRAIN])
        assert rc == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2


class TestConfigPrecedence:
    def test_flags_override_config_file(self, cli_env, tmp_path):
        cfg_file = tmp_path / "base.ini"
        cfg_file.write_text("[distill]\nepochs = 2\nbatch_size = 4\n", encoding="utf-8")
        run = tmp_path / "run"
        rc = main(["distill", "--run-dir", str(run), "--config", str(cfg_file),
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *ARCH, "--max-len", "16",
                   "--epochs", "1", "--out", str(tmp_path / "student")])
        assert rc == 0
        resolved = load_distill_config(run / "config.resolved")
        assert resolved.epochs == 1
        assert resolved.batch_size == 4

    @pytest.mark.parametrize("line", ["alpha_mlm = 0.3", "alpha_kl = 0.5"])
    @pytest.mark.parametrize("command", ["pretrain", "condition"])
    def test_mlm_only_commands_reject_other_loss_weights(self, cli_env, tmp_path, capsys,
                                                         command, line):
        cfg_file = tmp_path / "weights.ini"
        cfg_file.write_text(f"[distill]\n{line}\n", encoding="utf-8")
        inputs = (["--teacher", cli_env["teacher"]] if command == "condition" else ARCH)
        rc = main([command, "--run-dir", str(tmp_path / "r"), "--config", str(cfg_file),
                   *inputs, "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                   *TRAIN, "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigurationError:")
        assert repr(line.split()[0]) in err
        assert not (tmp_path / "ckpt").exists()

    def test_pretrain_reruns_from_its_resolved_config(self, cli_env, tmp_path):
        resolved = cli_env["root"] / "run_pretrain" / "config.resolved"
        out = tmp_path / "teacher"
        rc = main(["pretrain", "--run-dir", str(tmp_path / "r"), "--config", str(resolved),
                   "--corpus", str(cli_env["data"] / "corpus_mixed.txt"),
                   "--vocab", cli_env["vocab"], *ARCH, "--out", str(out)])
        assert rc == 0
        assert load_distill_config(tmp_path / "r" / "config.resolved") == \
            load_distill_config(resolved)
        assert checkpoint_digest(out) == checkpoint_digest(cli_env["teacher"])


class TestDeterminism:
    def test_repeat_distill_is_bit_identical(self, cli_env, tmp_path):
        digests = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            rc = main(["distill", "--run-dir", str(tmp_path / f"run_{sub}"),
                       "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                       "--vocab", cli_env["vocab"], *ARCH, *TRAIN, "--seed", "3",
                       "--out", str(out)])
            assert rc == 0
            digests.append(checkpoint_digest(out))
        assert digests[0] == digests[1]


class TestDownstreamFlow:
    def test_finetune_evaluate_report(self, cli_env, student_ckpt, tmp_path, capsys):
        tuned = tmp_path / "tuned"
        rc = main(["finetune", "--run-dir", str(tmp_path / "run_ft"),
                   "--model", student_ckpt, "--vocab", cli_env["vocab"],
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--task-name", "polarity",
                   "--ft-epochs", "1", "--max-len", "16",
                   "--model-name", "dBERT", "--out", str(tuned)])
        assert rc == 0
        assert (tmp_path / "run_ft" / "metrics.csv").exists()
        out = capsys.readouterr().out
        assert "accuracy:" in out

        rc = main(["evaluate", "--model", str(tuned), "--vocab", cli_env["vocab"],
                   "--run-dir", str(tmp_path / "run_eval"),
                   "--eval", cli_env["cls_eval"], "--task-kind", "classification",
                   "--max-len", "16"])
        assert rc == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_ablation_and_report_reemission(self, cli_env, tmp_path, capsys):
        run = tmp_path / "run_ablate"
        rc = main(["ablate", "--run-dir", str(run), "--protocol", "init",
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *ARCH, *TRAIN,
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--task-name", "polarity",
                   "--ft-epochs", "1", "--max-len", "16"])
        assert rc == 0
        report_csv = run / "report.csv"
        assert report_csv.exists()
        assert (run / "report.md").exists()
        data_rows = [ln for ln in report_csv.read_text(encoding="utf-8").splitlines()[2:]
                     if ln.strip()]
        assert len(data_rows) == 4
        out = capsys.readouterr().out
        assert "mBERT" in out
        assert "dBERT Init+Freeze" in out

        md_out = tmp_path / "again.md"
        rc = main(["report", "--run-dir", str(tmp_path / "run_report"),
                   "--input", str(report_csv), "--format", "markdown",
                   "--out", str(md_out)])
        assert rc == 0
        assert "| mBERT |" in md_out.read_text(encoding="utf-8")

    def test_condition_subcommand(self, cli_env, tmp_path):
        rc = main(["condition", "--run-dir", str(tmp_path / "run_cond"),
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *TRAIN])
        assert rc == 0
        assert (tmp_path / "run_cond" / "checkpoint" / "weights.bin").exists()
