"""End-to-end command line flows, run directories, and exit codes."""

import csv
import hashlib
import re
import shlex
from configparser import ConfigParser
from pathlib import Path

import numpy as np
import pytest

from monodistil import cli, harness
from monodistil.checkpoint import checkpoint_digest, load_finetuned
from monodistil.cli import build_parser, main
from monodistil.data import make_labeled_batches
from monodistil.distill import MLM_ONLY_WEIGHTS, DistillConfig, load_distill_config
from monodistil.harness import _evaluate_task
from monodistil.tokenizer import Vocab

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
        "tag_train": str(data / "tag_train.conll"),
        "tag_eval": str(data / "tag_eval.conll"),
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


def _manifest_section(run_dir, section: str) -> dict:
    parser = ConfigParser()
    parser.optionxform = str
    parser.read(Path(run_dir) / "manifest", encoding="utf-8")
    return dict(parser[section])


def _file_digests(*paths) -> dict:
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _training_outputs(run_dir, checkpoint) -> dict:
    """The ``[outputs]`` a training command records: log, config, checkpoint."""
    return {**_file_digests(Path(run_dir, "loss_log.csv"), Path(run_dir, "config.resolved")),
            str(checkpoint): checkpoint_digest(checkpoint)}


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
        written = [line.split(": ", 1)[1] for line in out.splitlines()]
        assert len(written) == 11
        assert _manifest_section(tmp_path / "run", "outputs") == _file_digests(*written)

    def test_negative_heldout_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--run-dir", str(tmp_path / "run"), "--out", str(tmp_path / "d"),
                   "--docs", "5", "--heldout", "-3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigurationError: heldout_docs")
        assert not (tmp_path / "d").exists()


class TestRunDirectory:
    def test_manifest_records_input_digests(self, cli_env):
        manifest = (cli_env["root"] / "run_pretrain" / "manifest").read_text(encoding="utf-8")
        assert "[run]" in manifest
        assert "subcommand = pretrain" in manifest
        assert re.search(r"= [0-9a-f]{64}$", manifest, flags=re.M)

    def test_manifest_digests_checkpoint_inputs_and_outputs(self, cli_env, student_ckpt):
        root = cli_env["root"]
        teacher_digest = checkpoint_digest(cli_env["teacher"])
        assert _manifest_section(root / "run_pretrain", "outputs") == \
            _training_outputs(root / "run_pretrain", cli_env["teacher"])
        assert _manifest_section(root / "run_distill", "inputs")[cli_env["teacher"]] == \
            teacher_digest
        assert _manifest_section(root / "run_distill", "outputs") == \
            _training_outputs(root / "run_distill", student_ckpt)

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

    @pytest.mark.parametrize("command", ["pretrain", "distill", "condition"])
    def test_run_dir_files(self, cli_env, tmp_path, capsys, command):
        inputs = {"pretrain": ARCH, "distill": ["--teacher", cli_env["teacher"], *ARCH],
                  "condition": ["--teacher", cli_env["teacher"]]}[command]
        run = tmp_path / "r"
        assert main([command, "--run-dir", str(run), *inputs, "--corpus", cli_env["corpus_a"],
                     "--vocab", cli_env["vocab"], *TRAIN, "--seed", "0"]) == 0
        steps = int(re.search(r"after (\d+) steps", capsys.readouterr().out).group(1))
        with open(run / "loss_log.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "epoch", "total", "kl", "mlm", "grad_norm", "n_masked",
                           "teacher_seconds", "update_seconds", "elapsed_seconds"]
        split = [(float(row[7]), float(row[8])) for row in rows[1:]]
        assert all((teacher > 0) == (command == "distill") and update > 0
                   for teacher, update in split)
        assert [int(row[0]) for row in rows[1:]] == list(range(1, steps + 1))
        weights = {} if command == "distill" else MLM_ONLY_WEIGHTS
        assert load_distill_config(run / "config.resolved") == \
            DistillConfig(epochs=1, batch_size=16, max_len=16, seed=0, **weights)
        assert _manifest_section(run, "outputs") == _training_outputs(run, run / "checkpoint")
        status = _manifest_section(run, "status")
        assert status["exit_code"] == "0"
        assert float(status["seconds"]) > 0
        assert "error" not in status


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

    @pytest.mark.parametrize("command", ["synth", "pretrain", "distill", "condition",
                                         "finetune", "evaluate"])
    def test_negative_seed_is_a_usage_error(self, cli_env, student_ckpt, tmp_path, capsys,
                                            command):
        vocab, corpus = ["--vocab", cli_env["vocab"]], ["--corpus", cli_env["corpus_a"]]
        task = ["--eval", cli_env["cls_eval"], "--max-len", "16"]
        finetune = ["finetune", "--model", student_ckpt, *vocab, "--train", cli_env["cls_train"],
                    *task, "--task-kind", "classification", "--ft-epochs", "1"]
        tuned = str(tmp_path / "tuned")
        if command == "evaluate":
            assert main([*finetune, "--run-dir", str(tmp_path / "run_ft"), "--out", tuned]) == 0
            capsys.readouterr()
        argv = {
            "synth": ["synth", "--docs", "5"],
            "pretrain": ["pretrain", *corpus, *vocab, *ARCH, *TRAIN],
            "distill": ["distill", "--teacher", cli_env["teacher"], *corpus, *vocab, *ARCH,
                        *TRAIN],
            "condition": ["condition", "--teacher", cli_env["teacher"], *corpus, *vocab, *TRAIN],
            "finetune": finetune,
            "evaluate": ["evaluate", "--model", tuned, *vocab, *task],
        }[command]
        run, out = tmp_path / "r", tmp_path / "out"
        rc = main([*argv, "--run-dir", str(run), "--seed", "-1",
                   *(["--out", str(out)] if command != "evaluate" else [])])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigurationError: seed must be non-negative")
        assert not out.exists()
        for name in ("loss_log.csv", "metrics.csv"):
            assert not (run / name).exists()

    def test_diverging_pretrain_fails_and_saves_nothing(self, cli_env, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["pretrain", "--run-dir", str(tmp_path / "r"),
                       "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                       *ARCH, "--max-len", "16", "--epochs", "2", "--batch-size", "4",
                       "--lr", "1e6", "--out", str(tmp_path / "ckpt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("TrainingDivergedError:")
        assert not (tmp_path / "r" / "loss_log.csv").exists()
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

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_finetune_lr_is_a_usage_error(self, cli_env, student_ckpt, tmp_path,
                                                     capsys, lr):
        run = tmp_path / "r"
        rc = main(["finetune", "--run-dir", str(run),
                   "--model", student_ckpt, "--vocab", cli_env["vocab"],
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--max-len", "16",
                   "--ft-lr", lr, "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (run / "metrics.csv").exists()
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("fractions, bad", [("1.0,abc", "abc"), ("1.0,0", "0"),
                                                ("0.5,1.5", "1.5"), ("nan", "nan")])
    def test_bad_ablation_fraction_fails_before_any_work(self, cli_env, tmp_path, capsys,
                                                         fractions, bad):
        run = tmp_path / "r"
        rc = main(["ablate", "--run-dir", str(run), "--protocol", "fraction",
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *ARCH, *TRAIN,
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--fractions", fractions])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("UsageError:") and repr(bad) in err
        assert not run.exists()

    def test_fraction_keeping_no_document_fails_before_training(self, cli_env, tmp_path,
                                                                 capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(harness, "distill_run", lambda *args, **kwargs: trained.append(1))
        rc = main(["ablate", "--run-dir", str(tmp_path / "r"), "--protocol", "fraction",
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *ARCH, *TRAIN,
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--fractions", "1.0,0.5,0.01"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "ConfigurationError: fraction 0.01 keeps no document of the 30-document corpus")
        assert trained == []

    @pytest.mark.parametrize("command", ["distill", "ablate"])
    def test_copy_init_at_unequal_widths_fails_before_training(self, cli_env, tmp_path, capsys,
                                                               monkeypatch, command):
        # the teacher is 16 wide; the CLI's default student is 32 wide
        trained = []
        monkeypatch.setattr(harness, "distill_run", lambda *args, **kwargs: trained.append(1))
        common = ["--run-dir", str(tmp_path / "r"), "--teacher", cli_env["teacher"],
                  "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"], *TRAIN]
        if command == "distill":
            argv = ["distill", *common, "--init", "copy", "--out", str(tmp_path / "ckpt")]
        else:
            argv = ["ablate", *common, "--protocol", "init", "--train", cli_env["cls_train"],
                    "--eval", cli_env["cls_eval"], "--task-kind", "classification"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "ConfigurationError: copying teacher embeddings needs equal widths: "
            "student hidden_dim 32, teacher hidden_dim 16")
        assert trained == []
        assert not (tmp_path / "r" / "loss_log.csv").exists()
        assert not (tmp_path / "ckpt").exists()

    def test_max_len_beyond_positions_fails_before_training(self, cli_env, tmp_path, capsys):
        run = tmp_path / "r"
        rc = main(["pretrain", "--run-dir", str(run),
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                   *ARCH, "--max-len", "32", "--epochs", "1", "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigurationError: max_len 32 exceeds")
        assert not (run / "loss_log.csv").exists()
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_task_max_len_beyond_positions_fails_before_any_work(self, cli_env, student_ckpt,
                                                                  tmp_path, capsys, command):
        task = ["--eval", cli_env["tag_eval"]]
        finetune = ["finetune", "--model", student_ckpt, "--vocab", cli_env["vocab"],
                    "--train", cli_env["tag_train"], *task, "--task-kind", "tagging",
                    "--ft-epochs", "1"]
        model = student_ckpt
        if command == "evaluate":
            model = str(tmp_path / "tuned")
            assert main([*finetune, "--run-dir", str(tmp_path / "run_ft"),
                         "--max-len", "16", "--out", model]) == 0
            capsys.readouterr()
        run = tmp_path / "r"
        argv = {"finetune": [*finetune, "--out", str(tmp_path / "ckpt")],
                "evaluate": ["evaluate", "--model", model, "--vocab", cli_env["vocab"], *task]}
        rc = main([*argv[command], "--run-dir", str(run), "--max-len", "32"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigurationError: max_len 32 exceeds")
        assert not (run / "metrics.csv").exists()
        assert not (tmp_path / "ckpt").exists()

    def test_directory_that_is_no_checkpoint(self, cli_env, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["distill", "--run-dir", str(tmp_path / "r"), "--teacher", str(empty),
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                   *ARCH, *TRAIN])
        assert rc == 2
        assert capsys.readouterr().err.startswith("DataError:")
        assert not (tmp_path / "r" / "checkpoint").exists()
        # a directory, checkpoint or not, where an input file belongs fails alike
        ckpt, vocab, corpus = cli_env["teacher"], cli_env["vocab"], cli_env["corpus_a"]
        finetune = ["finetune", "--model", ckpt, "--vocab", vocab, "--eval", cli_env["cls_eval"],
                    "--task-kind", "classification", "--max-len", "16", "--ft-epochs", "1"]
        cases = [
            (["pretrain", "--corpus", str(empty), "--vocab", str(empty), *ARCH, *TRAIN],
             "DataError", str(empty)),
            (["pretrain", "--corpus", ckpt, "--vocab", vocab, *ARCH, *TRAIN], "DataError", ckpt),
            (["pretrain", "--corpus", corpus, "--vocab", ckpt, *ARCH, *TRAIN], "DataError", ckpt),
            ([*finetune, "--train", ckpt], "DataError", ckpt),
            (["pretrain", "--corpus", corpus, "--vocab", vocab, *ARCH, *TRAIN,
              "--config", str(empty)], "ConfigurationError", str(empty)),
        ]
        for i, (argv, error, bad) in enumerate(cases):
            out = tmp_path / f"ckpt{i}"
            rc = main([*argv, "--run-dir", str(tmp_path / f"r{i + 2}"), "--out", str(out)])
            assert rc == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"{error}:") and bad in err, err
            assert len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "distill", "condition", "finetune"])
    def test_out_that_no_checkpoint_may_replace_fails_before_training(
            self, cli_env, tmp_path, capsys, command):
        data = cli_env["data"]
        before = sorted(p.name for p in data.iterdir())
        inputs = {
            "pretrain": ["--corpus", cli_env["corpus_a"], *ARCH, *TRAIN],
            "distill": ["--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                        *ARCH, *TRAIN],
            "condition": ["--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                          *TRAIN],
            "finetune": ["--model", cli_env["teacher"], "--train", cli_env["cls_train"],
                         "--eval", cli_env["cls_eval"], "--task-kind", "classification",
                         "--max-len", "16"],
        }[command]
        run = tmp_path / "r"
        rc = main([command, "--run-dir", str(run), "--vocab", cli_env["vocab"], *inputs,
                   "--out", str(data)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("UsageError:")
        assert not (run / "loss_log.csv").exists()
        assert sorted(p.name for p in data.iterdir()) == before

    def test_unknown_flag(self, capsys):
        assert main(["distill", "--frobnicate"]) == 2

    def test_missing_input_file(self, cli_env, tmp_path, capsys):
        rc = main(["pretrain", "--run-dir", str(tmp_path / "r"),
                   "--corpus", str(tmp_path / "absent.txt"),
                   "--vocab", cli_env["vocab"], *ARCH, *TRAIN])
        assert rc == 2
        assert "absent.txt" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        # so does an input file that is not UTF-8, naming the file
        vocab, corpus = cli_env["vocab"], cli_env["corpus_a"]
        finetune = ["finetune", "--model", cli_env["teacher"], "--vocab", vocab,
                    "--max-len", "16", "--ft-epochs", "1"]
        cases = [
            ("vocab.txt", ["pretrain", "--corpus", corpus, *ARCH, *TRAIN, "--vocab"],
             "DataError"),
            ("train.tsv", [*finetune, "--eval", cli_env["cls_eval"],
                           "--task-kind", "classification", "--train"], "DataError"),
            ("train.conll", [*finetune, "--eval", cli_env["tag_eval"],
                             "--task-kind", "tagging", "--train"], "DataError"),
            ("config.ini", ["pretrain", "--corpus", corpus, "--vocab", vocab, *ARCH, *TRAIN,
                            "--config"], "ConfigurationError"),
            ("report.csv", ["report", "--input"], "DataError"),
        ]
        for i, (name, argv, error) in enumerate(cases):
            bad = tmp_path / name
            bad.write_bytes(b"[distill]\ntext\tlabel\n\xff\xfe O\n")
            out = tmp_path / f"ckpt{i}"
            rc = main([*argv, str(bad), "--run-dir", str(tmp_path / f"r{i}"), "--out", str(out)])
            assert rc == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"{error}: invalid UTF-8 on line 3") and str(bad) in err, err
            assert len(err.splitlines()) == 1
            assert not out.exists()
        # a vocabulary with a blank line, trailing or interior, names the blank id
        tokens = Path(vocab).read_text(encoding="utf-8").splitlines()
        blanks = {len(tokens): tokens + [""], 6: tokens[:6] + [""] + tokens[6:]}
        for i, (blank_id, lines) in enumerate(blanks.items()):
            bad = tmp_path / f"blank{i}.txt"
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / f"blank_ckpt{i}"
            rc = main(["pretrain", "--corpus", corpus, *ARCH, *TRAIN, "--vocab", str(bad),
                       "--run-dir", str(tmp_path / f"blank_run{i}"), "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == f"VocabularyError: blank token at id {blank_id}\n"
            assert not out.exists()

    def test_file_where_a_checkpoint_belongs_names_the_flag(self, cli_env, tmp_path, capsys):
        run = tmp_path / "r"
        rc = main(["distill", "--run-dir", str(run), "--teacher", cli_env["vocab"],
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"], *ARCH, *TRAIN])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"DataError: --teacher {cli_env['vocab']} is a file, not a checkpoint directory\n")
        assert not (run / "checkpoint").exists()

    @pytest.mark.parametrize("case", ["run-dir is a file", "run-dir holds files",
                                      "synth out is a file", "report out is a directory"])
    def test_path_flag_of_the_wrong_kind_fails_before_any_work(self, tmp_path, capsys,
                                                                monkeypatch, case):
        a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
        a_file.write_text("keep me\n", encoding="utf-8")
        a_dir.mkdir()
        # an earlier run's outputs, which a reused --run-dir must leave alone
        used = tmp_path / "used"
        (used / "checkpoint").mkdir(parents=True)
        earlier = {used / "manifest": "[status]\nexit_code = 0\n",
                   used / "loss_log.csv": "step\n1\n", used / "checkpoint" / "manifest": "x\n"}
        for path, text in earlier.items():
            path.write_text(text, encoding="utf-8")
        work = []
        monkeypatch.setattr(cli, "generate_bundle", lambda *args: work.append(args))
        monkeypatch.setattr(cli, "parse_report_csv", lambda *args: work.append(args))
        run = ["--run-dir", str(tmp_path / "r")]
        argv, flag = {
            "run-dir is a file": (["synth", "--docs", "5", "--run-dir", str(a_file)], "--run-dir"),
            "run-dir holds files": (["synth", "--docs", "5", "--run-dir", str(used)], "--run-dir"),
            "synth out is a file": (["synth", "--docs", "5", "--out", str(a_file), *run], "--out"),
            "report out is a directory": (["report", "--input", str(a_file),
                                           "--out", str(a_dir), *run], "--out"),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"UsageError: {flag} ") and len(err.splitlines()) == 1, err
        assert work == []
        assert a_file.read_text(encoding="utf-8") == "keep me\n"
        assert list(a_dir.iterdir()) == []
        assert {p: p.read_text(encoding="utf-8") for p in used.rglob("*") if p.is_file()} == earlier

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

    def test_config_section_beside_distill_fails_before_any_work(self, cli_env, tmp_path,
                                                                  capsys):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text("[distill]\nepochs = 1\n[finetune]\nepochs = 10\n",
                            encoding="utf-8")
        run, out = tmp_path / "r", tmp_path / "ckpt"
        rc = main(["pretrain", "--run-dir", str(run), "--config", str(cfg_file),
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"], *ARCH,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigurationError:") and str(cfg_file) in err, err
        assert err.rstrip().endswith("not [finetune]")
        assert not run.exists() and not out.exists()

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

    def test_manifest_records_the_seed_a_config_file_sets(self, cli_env, tmp_path):
        cfg_file = tmp_path / "f.ini"
        cfg_file.write_text("[distill]\nseed = 5\n", encoding="utf-8")
        run = tmp_path / "r"
        rc = main(["pretrain", "--run-dir", str(run), "--config", str(cfg_file),
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"],
                   *ARCH, *TRAIN, "--out", str(tmp_path / "ckpt")])
        assert rc == 0
        assert _manifest_section(run, "run")["seed"] == "5"
        assert load_distill_config(run / "config.resolved").seed == 5

    def test_ablate_finetunes_at_the_seed_a_config_file_sets(self, cli_env, tmp_path,
                                                             monkeypatch):
        from monodistil import harness

        seeds = []

        def spy(model, task, *args, **kwargs):
            seeds.append(task.seed)
            return real(model, task, *args, **kwargs)

        real = harness.finetune
        monkeypatch.setattr(harness, "finetune", spy)
        cfg_file = tmp_path / "f.ini"
        cfg_file.write_text("[distill]\nseed = 5\n", encoding="utf-8")
        rc = main(["ablate", "--run-dir", str(tmp_path / "r"), "--protocol", "init",
                   "--config", str(cfg_file), "--teacher", cli_env["teacher"],
                   "--corpus", cli_env["corpus_a"], "--vocab", cli_env["vocab"], *ARCH, *TRAIN,
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--ft-epochs", "1"])
        assert rc == 0
        assert seeds == [5] * 4

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
        # the training file's label sidecar fixes the head's label ids
        assert _manifest_section(tmp_path / "run_ft", "inputs") == {
            student_ckpt: checkpoint_digest(student_ckpt),
            **_file_digests(cli_env["vocab"], cli_env["cls_train"],
                            Path(cli_env["cls_train"]).with_suffix(".labels"),
                            cli_env["cls_eval"])}
        assert _manifest_section(tmp_path / "run_ft", "outputs") == \
            {str(tuned): checkpoint_digest(tuned),
             **_file_digests(tmp_path / "run_ft" / "metrics.csv")}
        out = capsys.readouterr().out
        assert "accuracy:" in out

        run_eval = tmp_path / "run_eval"
        rc = main(["evaluate", "--model", str(tuned), "--vocab", cli_env["vocab"],
                   "--run-dir", str(run_eval), "--eval", cli_env["cls_eval"], "--max-len", "16"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("accuracy:")
        assert _manifest_section(run_eval, "outputs") == _file_digests(run_eval / "metrics.csv")
        with open(tmp_path / "run_ft" / "metrics.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        with open(run_eval / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header and len(rows) == 2
        row = dict(zip(header, rows[1]))
        assert row == {"model": str(tuned), "task": cli_env["cls_eval"],
                       "metric_name": "accuracy", "metric_value": row["metric_value"],
                       "runtime_seconds": "", "seed": "0", "config_hash": ""}
        assert printed == f"accuracy: {float(row['metric_value']):.4f}\n"

    def test_metrics_csv_quotes_names(self, cli_env, student_ckpt, tmp_path):
        run = tmp_path / "run_ft"
        rc = main(["finetune", "--run-dir", str(run),
                   "--model", student_ckpt, "--vocab", cli_env["vocab"],
                   "--train", cli_env["cls_train"], "--eval", cli_env["cls_eval"],
                   "--task-kind", "classification", "--task-name", 'pol,"arity"',
                   "--ft-epochs", "1", "--max-len", "16", "--model-name", 'd,BERT "x"'])
        assert rc == 0
        with open(run / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["model"] == 'd,BERT "x"'
        assert rows[0]["task"] == 'pol,"arity"'
        assert rows[0]["seed"] == "0"
        assert 0.0 <= float(rows[0]["metric_value"]) <= 1.0

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
        assert _manifest_section(run, "outputs") == \
            _file_digests(run / "config.resolved", report_csv, run / "report.md")
        sidecar = Path(cli_env["cls_train"]).with_suffix(".labels")
        assert _manifest_section(run, "inputs")[str(sidecar)] == \
            _file_digests(sidecar)[str(sidecar)]
        out = capsys.readouterr().out
        assert "mBERT" in out
        assert "dBERT Init+Freeze" in out

        md_out = tmp_path / "reports" / "again.md"  # a directory that does not exist yet
        rc = main(["report", "--run-dir", str(tmp_path / "run_report"),
                   "--input", str(report_csv), "--format", "markdown",
                   "--out", str(md_out)])
        assert rc == 0
        assert "| mBERT |" in md_out.read_text(encoding="utf-8")
        assert _manifest_section(tmp_path / "run_report", "outputs") == _file_digests(md_out)

    def test_condition_subcommand(self, cli_env, tmp_path):
        rc = main(["condition", "--run-dir", str(tmp_path / "run_cond"),
                   "--teacher", cli_env["teacher"], "--corpus", cli_env["corpus_a"],
                   "--vocab", cli_env["vocab"], *TRAIN])
        assert rc == 0
        conditioned = tmp_path / "run_cond" / "checkpoint"
        assert (conditioned / "weights.bin").exists()
        assert _manifest_section(tmp_path / "run_cond", "outputs") == \
            _training_outputs(tmp_path / "run_cond", conditioned)

    def test_evaluate_scores_with_the_checkpoints_labels(self, cli_env, student_ckpt,
                                                         tmp_path, capsys):
        # an eval file that lacks one of the training tags still reads each
        # tag with the id the head was trained on
        blocks = Path(cli_env["tag_eval"]).read_text(encoding="utf-8").strip().split("\n\n")
        subset = tmp_path / "no_inside.conll"
        subset.write_text("\n\n".join(b for b in blocks if "I-ENT" not in b) + "\n",
                          encoding="utf-8")
        tuned = tmp_path / "tuned"
        assert main(["finetune", "--run-dir", str(tmp_path / "run_ft"), "--model", student_ckpt,
                     "--vocab", cli_env["vocab"], "--train", cli_env["tag_train"],
                     "--eval", cli_env["tag_eval"], "--task-kind", "tagging", "--max-len", "16",
                     "--ft-epochs", "1", "--out", str(tuned)]) == 0
        capsys.readouterr()
        # a tagging file has no label sidecar to list
        assert list(_manifest_section(tmp_path / "run_ft", "inputs")) == \
            [student_ckpt, cli_env["vocab"], cli_env["tag_train"], cli_env["tag_eval"]]
        rc = main(["evaluate", "--run-dir", str(tmp_path / "run_eval"), "--model", str(tuned),
                   "--vocab", cli_env["vocab"], "--eval", str(subset), "--max-len", "16"])
        assert rc == 0, capsys.readouterr().err
        vocab = Vocab.load(cli_env["vocab"])
        _, train_map = make_labeled_batches(cli_env["tag_train"], vocab, 16, 16, 0,
                                            kind="tagging")
        assert "I-ENT" in train_map
        batches, _ = make_labeled_batches(subset, vocab, 16, 16, 0, kind="tagging",
                                          label_map=train_map)
        _, value = _evaluate_task(*load_finetuned(tuned, vocab), batches)
        assert capsys.readouterr().out == f"span_f1: {value:.4f}\n"
        with open(tmp_path / "run_eval" / "metrics.csv", newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["metric_name"], row["metric_value"]) == ("span_f1", repr(value))

        unknown = tmp_path / "unknown.conll"
        unknown.write_text(subset.read_text(encoding="utf-8").replace(" O\n", " X-NEW\n", 1),
                           encoding="utf-8")
        rc = main(["evaluate", "--run-dir", str(tmp_path / "run_bad"), "--model", str(tuned),
                   "--vocab", cli_env["vocab"], "--eval", str(unknown), "--max-len", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("DataError: record 0: label 'X-NEW'")
        assert not (tmp_path / "run_bad" / "metrics.csv").exists()
        # the manifest of the failed run says that it failed, and why
        status = _manifest_section(tmp_path / "run_bad", "status")
        assert (status["exit_code"], status["error"]) == ("2", err.strip())


def test_readme_quick_start_commands_parse():
    """Every ``monodistil`` command in README's Quick start parses, so a flag
    that is gone cannot stay documented there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("monodistil ")]
    parser = build_parser()
    subcommands = [parser.parse_args(shlex.split(line)[1:]).subcommand for line in commands]
    assert subcommands == ["synth", "pretrain", "distill", "finetune", "evaluate", "ablate"]
