"""Whole-system acceptance checks, one visible verdict line per criterion.

Every test here owns one numbered criterion and prints a single
[PASS]/[FAIL] line that survives output capture, so a plain pytest run
shows the full scorecard. The numeric floors are calibrated against
measured runs and sit tighter than the minimum viable values; loosening
them is never the right fix for a regression.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monodistil import losses
from monodistil.autograd import (Tensor, dropout, embedding, finite_difference_check,
                                 gather_rows, layer_norm, log_softmax, matmul, no_grad,
                                 select, slice_leading, softmax, take_index)
from monodistil.checkpoint import checkpoint_digest, load_checkpoint, save_checkpoint
from monodistil.cli import main
from monodistil.data import MaskedBatch, make_mlm_batch, subsample
from monodistil.distill import (DistillConfig, distill_loss, distill_run,
                                evaluate_masked, pretrain_mlm)
from monodistil.harness import (MetricReport, TaskSpec, finetune, measure_speedup,
                                run_ablation_conditioning, run_ablation_data_fraction,
                                run_ablation_init)
from monodistil.metrics import span_f1
from monodistil.model import EncoderConfig, forward_mlm, init_random
from monodistil.synth import SynthConfig, generate_bundle, write_tsv
from monodistil.tokenizer import EncodedSequence, train_vocab

ARCH = ["--hidden-dim", "16", "--intermediate-size", "32", "--num-layers", "1",
        "--num-heads", "2", "--max-positions", "16"]
TRAIN = ["--max-len", "16", "--epochs", "1", "--batch-size", "16"]

GRAD_TOL = 1e-3


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _model_hash(model) -> str:
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(name.encode())
        digest.update(model.params[name].data.tobytes())
    return digest.hexdigest()


@contextmanager
def criterion(capsys, number: int, label: str):
    info: dict = {}
    started = time.monotonic()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {label}")
        raise
    extra = f" ({info['detail']})" if "detail" in info else ""
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {label}{extra} "
              f"[{time.monotonic() - started:.1f}s]")


def _checked(f, x) -> float:
    # central differences trade truncation (larger h) against cancellation
    # (smaller h); a wrong gradient fails at every step size, so each probe
    # may pass at either of two steps
    return min(finite_difference_check(f, x, h=1e-4),
               finite_difference_check(f, x, h=3e-5))


def _mini_mlm_inputs():
    """A two-row batch with one padded slot and three supervised positions."""
    g = _rng(6)
    original = g.integers(5, 24, size=(2, 6)).astype(np.int64)
    original[:, 0] = 2
    original[0, 5] = 3
    original[1, 4] = 3
    attention = np.ones((2, 6), dtype=bool)
    original[1, 5] = 0
    attention[1, 5] = False
    mlm_mask = np.zeros((2, 6), dtype=bool)
    mlm_mask[0, 2] = mlm_mask[0, 4] = mlm_mask[1, 2] = True
    corrupted = original.copy()
    corrupted[mlm_mask] = 4
    return corrupted, attention, mlm_mask, original


def test_criterion_1_gradient_correctness(capsys):
    with criterion(capsys, 1, "every gradient path passes finite-difference checks") as info:
        started = time.monotonic()
        g = _rng(11)
        xn = g.normal(size=(3, 4))
        xp = g.uniform(0.5, 1.5, size=(3, 4))
        x45 = g.normal(size=(4, 5))
        x234 = g.normal(size=(2, 3, 4))
        table = g.normal(size=(5, 4))
        w34 = g.normal(size=(3, 4))
        w43 = g.normal(size=(4, 3))
        w62 = g.normal(size=(6, 2))
        w3 = g.normal(size=(3,))
        w4 = g.normal(size=(4,))
        w25 = g.normal(size=(2, 5))
        w32 = g.normal(size=(3, 2))
        w24 = g.normal(size=(2, 4))
        w_emb = g.normal(size=(2, 3, 4))
        w_rows = g.normal(size=(3, 4))
        c34 = g.normal(size=(3, 4))
        m42 = g.normal(size=(4, 2))
        m23 = g.normal(size=(2, 3))
        gain = g.normal(size=(4,)) + 1.0
        bias = g.normal(size=(4,)) * 0.1
        lookup_ids = np.array([[0, 2, 4], [1, 3, 0]])
        row_mask = np.array([[True, False, True], [False, False, True]])
        per_row_idx = np.array([1, 4, 0, 2])

        def ws(t: Tensor, w: np.ndarray) -> Tensor:
            return (t * Tensor(w)).sum()

        cases = [
            ("add", lambda t: ws(t + Tensor(c34), w34), xn),
            ("mul", lambda t: ws(t * Tensor(c34), w34), xn),
            ("neg", lambda t: ws(-t, w34), xn),
            ("sub", lambda t: ws(t - Tensor(c34), w34), xn),
            ("div_scalar", lambda t: ws(t / 3.7, w34), xn),
            ("pow", lambda t: ws(t ** 3, w34), xn),
            ("reshape", lambda t: ws(t.reshape(6, 2), w62), xn),
            ("transpose", lambda t: ws(t.transpose(1, 0), w43), xn),
            ("sum_axis", lambda t: ws(t.sum(axis=1), w3), xn),
            ("sum_all", lambda t: t.sum() * 1.7, xn),
            ("mean_axis", lambda t: ws(t.mean(axis=0), w4), xn),
            ("mean_all", lambda t: t.mean() * 2.5, xn),
            ("exp", lambda t: ws(t.exp(), w34), xn),
            ("log", lambda t: ws(t.log(), w34), xp),
            ("gelu", lambda t: ws(t.gelu(), w34), xn),
            ("matmul_left", lambda t: ws(matmul(t, Tensor(m42)), w32), xn),
            ("matmul_right", lambda t: ws(matmul(Tensor(m23), t), w24), xn),
            ("embedding", lambda t: ws(embedding(t, lookup_ids), w_emb), table),
            ("gather_rows", lambda t: ws(gather_rows(t, row_mask), w_rows), x234),
            ("take_index", lambda t: ws(take_index(t, per_row_idx), w4), x45),
            ("select", lambda t: ws(select(t, 1, 2), w3), xn),
            ("slice_leading", lambda t: ws(slice_leading(t, 2), w25), x45),
            ("dropout", lambda t: ws(dropout(t, 0.4, _rng(77)), w34), xn),
            ("softmax_t1", lambda t: ws(softmax(t), w34), xn),
            ("softmax_t2", lambda t: ws(softmax(t, temperature=2.0), w34), xn),
            ("log_softmax", lambda t: ws(log_softmax(t, temperature=2.0), w34), xn),
            ("layer_norm", lambda t: ws(layer_norm(t, Tensor(gain), Tensor(bias)), w34), xn),
            ("layer_norm_gain",
             lambda t: ws(layer_norm(Tensor(xn), t, Tensor(bias)), w34), gain),
        ]
        op_errors = {name: _checked(f, Tensor(x)) for name, f, x in cases}
        bad_ops = {k: v for k, v in op_errors.items() if not v <= GRAD_TOL}
        assert not bad_ops, f"op gradients above tolerance: {bad_ops}"

        cfg = EncoderConfig(hidden_dim=16, intermediate_size=16, num_layers=1,
                            num_heads=2, max_positions=8, vocab_size=24)
        model = init_random(cfg, seed=5)
        corrupted, attention, mlm_mask, original = _mini_mlm_inputs()

        def param_loss(probe: Tensor, name: str) -> Tensor:
            saved = model.params[name]
            model.params[name] = probe
            try:
                logits = forward_mlm(model, corrupted, attention)
                return losses.cross_entropy_masked(logits, original, mlm_mask)
            finally:
                model.params[name] = saved

        mlm_errors = {
            name: _checked(lambda t, _n=name: param_loss(t, _n), model.params[name])
            for name in sorted(model.params)
        }
        bad_params = {k: v for k, v in mlm_errors.items() if not v <= GRAD_TOL}
        assert not bad_params, f"encoder MLM gradients above tolerance: {bad_params}"

        teacher = init_random(cfg, seed=9)
        with no_grad():
            teacher_logits = forward_mlm(teacher, corrupted, attention)
        batch = MaskedBatch(corrupted, attention, mlm_mask, original)
        combined_cfg = DistillConfig(alpha_kl=0.5, alpha_mlm=0.5, temperature=2.0)
        logits_err = _checked(
            lambda t: distill_loss(gather_rows(t, mlm_mask),
                                   gather_rows(teacher_logits, mlm_mask), batch, combined_cfg)[0],
            Tensor(_rng(13).normal(size=(2, 6, 24))))
        assert logits_err <= GRAD_TOL

        def combined_via_encoder(probe: Tensor) -> Tensor:
            saved = model.params["token_embedding"]
            model.params["token_embedding"] = probe
            try:
                student_logits = forward_mlm(model, corrupted, attention)
                return distill_loss(gather_rows(student_logits, mlm_mask),
                                    gather_rows(teacher_logits, mlm_mask),
                                    batch, combined_cfg)[0]
            finally:
                model.params["token_embedding"] = saved

        through_err = _checked(combined_via_encoder, model.params["token_embedding"])
        assert through_err <= GRAD_TOL

        elapsed = time.monotonic() - started
        assert elapsed <= 60.0, f"gradient sweep took {elapsed:.1f}s, budget is 60s"
        worst = max(max(op_errors.values()), max(mlm_errors.values()),
                    logits_err, through_err)
        info["detail"] = f"{len(cases)} ops + {len(mlm_errors)} tensors, worst {worst:.1e}"


def _log_softmax_row(row: list[float], temperature: float) -> list[float]:
    scaled = [v / temperature for v in row]
    peak = max(scaled)
    log_z = math.log(sum(math.exp(v - peak) for v in scaled))
    return [v - peak - log_z for v in scaled]


def test_criterion_2_objective_algebra(capsys):
    with criterion(capsys, 2, "combined objective matches a direct-summation oracle") as info:
        g = _rng(21)
        vocab_size = 7
        student = g.normal(size=(2, 6, vocab_size)).astype(np.float32)
        teacher = g.normal(size=(2, 6, vocab_size)).astype(np.float32)
        original = g.integers(0, vocab_size, size=(2, 6)).astype(np.int64)
        mlm_mask = np.zeros((2, 6), dtype=bool)
        mlm_mask[0, 1] = mlm_mask[0, 3] = mlm_mask[1, 0] = True
        mlm_mask[1, 4] = mlm_mask[1, 5] = True
        batch = MaskedBatch(g.integers(0, vocab_size, size=(2, 6)).astype(np.int64),
                            np.ones((2, 6), dtype=bool), mlm_mask, original)
        cfg = DistillConfig(alpha_kl=0.5, alpha_mlm=0.5, temperature=2.0)
        total, kl_part, mlm_part = distill_loss(gather_rows(Tensor(student), mlm_mask),
                                                gather_rows(Tensor(teacher), mlm_mask), batch, cfg)

        picked = [(b, p) for b in range(2) for p in range(6) if mlm_mask[b, p]]
        kl_sum = 0.0
        ce_sum = 0.0
        for b, p in picked:
            ls_s = _log_softmax_row(student[b, p].tolist(), cfg.temperature)
            ls_t = _log_softmax_row(teacher[b, p].tolist(), cfg.temperature)
            kl_sum += sum(math.exp(a) * (a - c) for a, c in zip(ls_s, ls_t))
            ce_sum += -_log_softmax_row(student[b, p].tolist(), 1.0)[original[b, p]]
        n = len(picked)
        oracle_kl = (kl_sum / n) * cfg.temperature ** 2
        oracle_ce = ce_sum / n
        oracle_total = cfg.alpha_kl * oracle_kl + cfg.alpha_mlm * oracle_ce
        assert kl_part.item() == pytest.approx(oracle_kl, abs=1e-6)
        assert mlm_part.item() == pytest.approx(oracle_ce, abs=1e-6)
        assert total.item() == pytest.approx(oracle_total, abs=1e-6)

        _, kl_same, _ = distill_loss(gather_rows(Tensor(student), mlm_mask),
                                     gather_rows(Tensor(student.copy()), mlm_mask), batch, cfg)
        assert kl_same.item() == 0.0

        ce_only_cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=1.0, temperature=2.0)
        ce_only, _, _ = distill_loss(gather_rows(Tensor(student), mlm_mask), None, batch,
                                     ce_only_cfg)
        direct_ce = losses.cross_entropy_masked(Tensor(student), original, mlm_mask)
        assert ce_only.item() == direct_ce.item()

        kl_only_cfg = DistillConfig(alpha_kl=1.0, alpha_mlm=0.0, temperature=2.0)
        kl_only, kl_ref, _ = distill_loss(gather_rows(Tensor(student), mlm_mask),
                                          gather_rows(Tensor(teacher), mlm_mask), batch,
                                          kl_only_cfg)
        assert kl_only.item() == kl_ref.item()
        info["detail"] = f"oracle gap {abs(total.item() - oracle_total):.1e}"


def test_criterion_3_frozen_teacher(capsys, small_bundle, small_vocab, tiny_cfg):
    with criterion(capsys, 3, "teacher stays frozen and copied embeddings stay pinned"):
        teacher = init_random(tiny_cfg, seed=11)
        teacher_before = _model_hash(teacher)
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)

        pinned, _ = distill_run(teacher, tiny_cfg, small_bundle.lang_a, cfg,
                                small_vocab, init_from_teacher="copy_and_freeze")
        assert _model_hash(teacher) == teacher_before
        assert not pinned["token_embedding"].requires_grad
        for name in ("token_embedding", "position_embedding"):
            ours = hashlib.sha256(pinned.params[name].data.tobytes()).hexdigest()
            theirs = hashlib.sha256(teacher.params[name].data.tobytes()).hexdigest()
            assert ours == theirs, f"{name} moved despite copy_and_freeze"

        # negative control: a plain copy trains its embeddings away
        movable, _ = distill_run(teacher, tiny_cfg, small_bundle.lang_a, cfg,
                                 small_vocab, init_from_teacher="copy")
        assert _model_hash(teacher) == teacher_before
        assert not np.array_equal(movable.params["token_embedding"].data,
                                  teacher.params["token_embedding"].data)


def test_criterion_4_desk_scale_efficacy(capsys, tmp_path):
    with criterion(capsys, 4, "distilled student beats scratch and tracks the teacher") as info:
        started = time.monotonic()
        bundle = generate_bundle(SynthConfig(docs_per_language=12000,
                                             heldout_docs=150, seed=0))
        vocab = train_vocab(bundle.mixed, 600)
        teacher_cfg = EncoderConfig(hidden_dim=64, intermediate_size=256, num_layers=2,
                                    num_heads=4, max_positions=64,
                                    vocab_size=len(vocab))
        pretrain_cfg = DistillConfig(alpha_kl=0.0, alpha_mlm=1.0, epochs=8,
                                     batch_size=32, learning_rate=3e-3, seed=0)
        teacher, _ = pretrain_mlm(teacher_cfg, bundle.mixed, pretrain_cfg, vocab)

        student_cfg = EncoderConfig(hidden_dim=32, intermediate_size=128, num_layers=1,
                                    num_heads=4, max_positions=64,
                                    vocab_size=len(vocab))
        distilled, _ = distill_run(teacher, student_cfg, bundle.lang_a,
                                   DistillConfig(), vocab)
        scratch, _ = pretrain_mlm(student_cfg, bundle.lang_a, DistillConfig(), vocab)

        scores = {
            name: evaluate_masked(m, bundle.heldout_a, vocab, seed=101)["masked_accuracy"]
            for name, m in (("teacher", teacher), ("distilled", distilled),
                            ("scratch", scratch))
        }
        # calibrated run: teacher 0.548, distilled 0.488, scratch 0.413;
        # floors tightened from <=10pt teacher gap and >=2pt scratch margin
        assert scores["distilled"] >= scores["teacher"] - 0.08, scores
        assert scores["distilled"] >= scores["scratch"] + 0.04, scores

        write_tsv(bundle.cls_train, tmp_path / "cls_train.tsv")
        write_tsv(bundle.cls_eval, tmp_path / "cls_eval.tsv")
        task = TaskSpec(name="polarity", kind="classification",
                        train_path=str(tmp_path / "cls_train.tsv"),
                        eval_path=str(tmp_path / "cls_eval.tsv"))
        _, _, teacher_rep = finetune(teacher, task, vocab, "mBERT")
        _, _, student_rep = finetune(distilled, task, vocab, "dBERT")
        speedup = teacher_rep.runtime_seconds / student_rep.runtime_seconds
        # calibrated speedup 3.3x; floor tightened from >1.0
        assert speedup > 1.5, f"finetune speedup {speedup:.2f}x"
        assert teacher_rep.metric_value > 0.85
        assert student_rep.metric_value > 0.85

        elapsed = time.monotonic() - started
        assert elapsed <= 900.0, f"desk-scale run took {elapsed:.0f}s, budget is 900s"
        info["detail"] = (f"teacher {scores['teacher']:.3f}, distilled "
                          f"{scores['distilled']:.3f}, scratch {scores['scratch']:.3f}, "
                          f"finetune speedup {speedup:.2f}x")


def _check_report_arithmetic(report) -> None:
    anchors = {r.task: r for r in report.rows if r.model == report.baseline}
    assert anchors, "baseline rows missing"
    ratios: dict[str, list[float]] = {}
    for row in report.rows:
        if row.model == report.baseline:
            assert row.perf_diff is None
            assert row.speedup is None
            continue
        anchor = anchors[row.task]
        assert row.perf_diff == pytest.approx(
            row.metric_value - anchor.metric_value, abs=1e-9)
        assert row.speedup == pytest.approx(
            anchor.runtime_seconds / row.runtime_seconds, abs=1e-9)
        ratios.setdefault(row.model, []).append(
            anchor.runtime_seconds / row.runtime_seconds)
    assert set(report.avg_speedup) == set(ratios)
    for model, model_ratios in ratios.items():
        assert report.avg_speedup[model] == pytest.approx(
            sum(model_ratios) / len(model_ratios), abs=1e-9)


def test_criterion_5_ablation_protocols(capsys, small_bundle, small_vocab, tiny_cfg,
                                        bundle_files):
    with criterion(capsys, 5, "ablation protocols emit exact rows with consistent arithmetic"):
        task = TaskSpec(name="polarity", kind="classification",
                        train_path=str(bundle_files["cls_train"]),
                        eval_path=str(bundle_files["cls_eval"]),
                        epochs=1, batch_size=16, max_len=16)
        teacher = init_random(tiny_cfg, seed=11)
        cfg = DistillConfig(epochs=1, batch_size=8, max_len=16, seed=0)

        fraction = run_ablation_data_fraction(teacher, small_bundle.lang_a,
                                              [1.0, 0.8, 0.5], task, cfg,
                                              small_vocab, tiny_cfg)
        conditioning = run_ablation_conditioning(teacher, small_bundle.lang_a, task,
                                                 cfg, small_vocab, tiny_cfg)
        init = run_ablation_init(teacher, small_bundle.lang_a, task, cfg,
                                 small_vocab, tiny_cfg)

        assert [r.model for r in fraction.rows] == [
            "mBERT", "dBERT @100%", "dBERT @80%", "dBERT @50%"]
        assert [r.model for r in conditioning.rows] == [
            "mBERT", "mBERT Conditioned", "dBERT", "dBERT Conditioned"]
        assert [r.model for r in init.rows] == [
            "mBERT", "dBERT", "dBERT Init", "dBERT Init+Freeze"]
        for report in (fraction, conditioning, init):
            assert report.baseline == "mBERT"
            assert all(r.task == "polarity" for r in report.rows)
            assert all(r.metric_name == "accuracy" for r in report.rows)
            _check_report_arithmetic(report)


REFERENCE_RUNTIMES = {
    "mBERT": (70.0, 618.0, 25811.0),
    "dBERT": (44.0, 309.0, 13006.0),
    "dBERT Tiny": (31.0, 107.0, 4917.0),
}
REFERENCE_AVG_SPEEDUP = {"dBERT": 1.97, "dBERT Tiny": 5.23}
# mean of per-task ratios lands near, not on, the reference averages; the
# residual is fixed arithmetic, so it is pinned instead of hidden
EXPECTED_AVG = {"dBERT": 1.8584848950833879, "dBERT Tiny": 4.427701492856997}
EXPECTED_RESIDUAL = {"dBERT": 0.1115151049166121, "dBERT Tiny": 0.8022985071430035}
FIXTURE_TASKS = ("short", "medium", "long")


def test_criterion_6_reference_report_arithmetic(capsys):
    with criterion(capsys, 6, "runtime fixture reproduces reference speedups") as info:
        reports = []
        for model, runtimes in REFERENCE_RUNTIMES.items():
            for task, runtime in zip(FIXTURE_TASKS, runtimes):
                reports.append(MetricReport(model_name=model, task_name=task,
                                            metric_name="accuracy", metric_value=0.9,
                                            runtime_seconds=runtime, seed=0,
                                            config_hash="0" * 8))
        report = measure_speedup(reports, "mBERT")
        _check_report_arithmetic(report)

        rows = {(r.model, r.task): r for r in report.rows}
        for model in ("dBERT", "dBERT Tiny"):
            hand = [REFERENCE_RUNTIMES["mBERT"][i] / REFERENCE_RUNTIMES[model][i]
                    for i in range(3)]
            for task, expected in zip(FIXTURE_TASKS, hand):
                assert rows[(model, task)].speedup == pytest.approx(expected, abs=1e-12)
            assert report.avg_speedup[model] == pytest.approx(
                float(np.mean(hand)), abs=1e-12)
            assert report.avg_speedup[model] == pytest.approx(
                EXPECTED_AVG[model], abs=1e-9)
            residual = REFERENCE_AVG_SPEEDUP[model] - report.avg_speedup[model]
            assert residual == pytest.approx(EXPECTED_RESIDUAL[model], abs=1e-9)
        info["detail"] = (f"avg {EXPECTED_AVG['dBERT']:.4f} vs 1.97 and "
                          f"{EXPECTED_AVG['dBERT Tiny']:.4f} vs 5.23, residuals pinned")


def _metric_rows_without_runtime(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return [{k: v for k, v in row.items() if "runtime" not in k} for row in rows]


def test_criterion_7_bit_identical_reruns(capsys, tmp_path):
    with criterion(capsys, 7, "identical config and seed reproduce runs bit for bit") as info:
        data = tmp_path / "data"
        assert main(["synth", "--run-dir", str(tmp_path / "run_synth"),
                     "--out", str(data), "--docs", "20", "--heldout", "6",
                     "--seed", "3"]) == 0
        teacher = tmp_path / "teacher"
        assert main(["pretrain", "--run-dir", str(tmp_path / "run_pre"),
                     "--corpus", str(data / "corpus_mixed.txt"),
                     "--vocab", str(data / "vocab.txt"),
                     *ARCH, *TRAIN, "--seed", "0", "--out", str(teacher)]) == 0

        student_digests = []
        tuned_digests = []
        metric_rows = []
        for tag in ("one", "two"):
            student = tmp_path / f"student_{tag}"
            assert main(["distill", "--run-dir", str(tmp_path / f"run_distill_{tag}"),
                         "--teacher", str(teacher),
                         "--corpus", str(data / "corpus_a.txt"),
                         "--vocab", str(data / "vocab.txt"),
                         *ARCH, *TRAIN, "--seed", "5", "--out", str(student)]) == 0
            student_digests.append(checkpoint_digest(student))

            tuned = tmp_path / f"tuned_{tag}"
            ft_run = tmp_path / f"run_ft_{tag}"
            assert main(["finetune", "--run-dir", str(ft_run),
                         "--model", str(student), "--vocab", str(data / "vocab.txt"),
                         "--train", str(data / "cls_train.tsv"),
                         "--eval", str(data / "cls_eval.tsv"),
                         "--task-kind", "classification", "--task-name", "polarity",
                         "--ft-epochs", "1", "--max-len", "16",
                         "--model-name", "dBERT", "--out", str(tuned)]) == 0
            tuned_digests.append(checkpoint_digest(tuned))
            metric_rows.append(_metric_rows_without_runtime(ft_run / "metrics.csv"))

        assert student_digests[0] == student_digests[1]
        assert tuned_digests[0] == tuned_digests[1]
        assert metric_rows[0] == metric_rows[1]
        assert metric_rows[0], "metrics.csv came back empty"
        info["detail"] = f"digest {student_digests[0][:12]} twice"


def test_criterion_8_property_sweep(capsys, tmp_path, small_vocab, tiny_cfg):
    with criterion(capsys, 8, "statistical and structural properties hold") as info:
        started = time.monotonic()

        @given(st.lists(st.floats(-20, 20), min_size=2, max_size=8),
               st.floats(0.25, 8.0))
        def softmax_properties(row, temperature):
            logits = np.asarray([row], dtype=np.float32)
            probs = softmax(Tensor(logits), temperature=temperature).data
            assert probs.min() >= 0.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-5)
            ordered = np.sort(logits[0])
            if ordered[-1] - ordered[-2] > 1e-3:
                assert int(np.argmax(probs[0])) == int(np.argmax(logits[0]))

        softmax_properties()

        @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
               st.lists(st.floats(-10, 10), min_size=4, max_size=4),
               st.floats(0.5, 4.0))
        def kl_nonnegative(a, b, temperature):
            left = Tensor(np.asarray([a], dtype=np.float32))
            right = Tensor(np.asarray([b], dtype=np.float32))
            assert losses.kl_divergence(left, right, temperature).item() >= -1e-7

        kl_nonnegative()

        content_id = 7
        sequences = []
        for _ in range(500):
            ids = np.zeros(24, dtype=np.int64)
            ids[0] = 2
            ids[1:21] = content_id
            ids[21] = 3
            attention = np.zeros(24, dtype=bool)
            attention[:22] = True
            sequences.append(EncodedSequence(ids, attention))
        eligible = 500 * 20
        for rate in (0.10, 0.15, 0.20):
            for seed in (0, 1, 2, 3):
                batch = make_mlm_batch(sequences, rate, seed, small_vocab)
                selected = int(batch.mlm_mask.sum())
                sigma = math.sqrt(eligible * rate * (1 - rate))
                assert abs(selected - eligible * rate) <= 3 * sigma, (rate, seed, selected)
                assert not batch.mlm_mask[:, 0].any()
                assert not batch.mlm_mask[:, 21:].any()

        documents = [f"doc {i} kapa rila" for i in range(60)]
        order = {doc: i for i, doc in enumerate(documents)}

        @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.integers(0, 50))
        def subsample_nesting(f1, f2, seed):
            low, high = sorted((f1, f2))
            small = subsample(documents, low, seed)
            large = subsample(documents, high, seed)
            assert set(small) <= set(large)
            positions = [order[d] for d in large]
            assert positions == sorted(positions)

        subsample_nesting()

        tag_strategy = st.sampled_from(["O", "B-ENT", "I-ENT", "B-LOC", "I-LOC"])

        @given(st.lists(st.lists(tag_strategy, min_size=1, max_size=12),
                        min_size=1, max_size=4))
        def span_f1_identity(tag_rows):
            assert span_f1(tag_rows, tag_rows) == pytest.approx(1.0, abs=1e-12)

        span_f1_identity()

        @given(st.data())
        def span_f1_bounded(data):
            lengths = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
            def draw_rows():
                return [data.draw(st.lists(tag_strategy, min_size=n, max_size=n))
                        for n in lengths]
            score = span_f1(draw_rows(), draw_rows())
            assert 0.0 <= score <= 1.0

        span_f1_bounded()

        # a one-position boundary slip must zero out the span score
        assert span_f1([["O", "B-ENT", "I-ENT"]], [["B-ENT", "I-ENT", "O"]]) == 0.0

        for seed in (0, 1, 2):
            model = init_random(tiny_cfg, seed=seed)
            first = tmp_path / f"ckpt_{seed}_a"
            second = tmp_path / f"ckpt_{seed}_b"
            save_checkpoint(model, first, small_vocab, seed=seed, source="property-sweep")
            loaded = load_checkpoint(first, small_vocab)
            assert _model_hash(loaded) == _model_hash(model)
            save_checkpoint(loaded, second, small_vocab, seed=seed,
                            source="property-sweep")
            assert checkpoint_digest(first) == checkpoint_digest(second)

        elapsed = time.monotonic() - started
        assert elapsed <= 120.0, f"property sweep took {elapsed:.1f}s, budget is 120s"
        info["detail"] = f"{elapsed:.1f}s of 120s budget"
