"""Finetuning mechanics, speedup accounting, and report files."""

import dataclasses
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monodistil import harness
from monodistil.distill import DistillConfig
from monodistil.errors import ConfigurationError, EvaluationError
from monodistil.harness import (
    ComparisonRow,
    MetricReport,
    TaskSpec,
    emit_report,
    evaluate_task,
    finetune,
    measure_speedup,
    parse_report_csv,
)


def _report(model, task, value, runtime, metric="accuracy", seed=0, cfg="abcd0123"):
    return MetricReport(model, task, metric, value, runtime, seed, cfg)


def _model_hash(model):
    hasher = hashlib.sha256()
    for name in sorted(model.params):
        hasher.update(model.params[name].data.tobytes())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def cls_task(bundle_files):
    return TaskSpec("polarity", "classification", bundle_files["cls_train"],
                    bundle_files["cls_eval"], epochs=1, batch_size=16, max_len=16)


@pytest.fixture(scope="module")
def tag_task(bundle_files):
    return TaskSpec("entities", "tagging", bundle_files["tag_train"],
                    bundle_files["tag_eval"], epochs=1, batch_size=16, max_len=16)


class TestTaskSpec:
    def test_validation(self, bundle_files):
        with pytest.raises(ConfigurationError):
            TaskSpec("x", "regression", bundle_files["cls_train"], bundle_files["cls_eval"])
        with pytest.raises(ConfigurationError):
            TaskSpec("x", "classification", bundle_files["cls_train"],
                     bundle_files["cls_eval"], epochs=0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="learning_rate must be finite"):
                TaskSpec("x", "classification", bundle_files["cls_train"],
                         bundle_files["cls_eval"], learning_rate=value)

    def test_hash_depends_on_content(self, bundle_files):
        a = TaskSpec("x", "classification", bundle_files["cls_train"], bundle_files["cls_eval"])
        b = TaskSpec("x", "classification", bundle_files["cls_train"], bundle_files["cls_eval"])
        assert a.config_hash() == b.config_hash()
        # the same settings in two directories, under another name, share one hash
        moved = TaskSpec("y", "classification", "x/cls_train.tsv", "x/cls_eval.tsv")
        assert TaskSpec("y", "classification", "y/cls_train.tsv",
                        "y/cls_eval.tsv").config_hash() == moved.config_hash() == a.config_hash()
        # each setting changed gives another
        changes = {"kind": "tagging", "epochs": 4, "learning_rate": 1e-3, "batch_size": 8,
                   "seed": 9, "max_len": 16}
        hashes = {a.config_hash()}
        for key, value in changes.items():
            spec = dataclasses.replace(a, **{key: value})
            hashes.add(spec.config_hash())
        assert len(hashes) == len(changes) + 1


class TestMetricReport:
    def test_value_range_enforced(self):
        with pytest.raises(EvaluationError):
            _report("m", "t", 1.2, 1.0)
        with pytest.raises(EvaluationError):
            _report("m", "t", -0.1, 1.0)

    def test_runtime_must_be_positive(self):
        with pytest.raises(EvaluationError):
            _report("m", "t", 0.5, 0.0)


class TestFinetune:
    def test_same_seed_same_outcome(self, tiny_model, cls_task, small_vocab):
        _, _, rep_a = finetune(tiny_model, cls_task, small_vocab, "modelA")
        _, _, rep_b = finetune(tiny_model, cls_task, small_vocab, "modelA")
        assert rep_a.metric_value == rep_b.metric_value
        assert rep_a.config_hash == rep_b.config_hash
        assert rep_a.metric_name == "accuracy"

    def test_input_model_is_not_mutated(self, tiny_model, cls_task, small_vocab):
        before = _model_hash(tiny_model)
        finetune(tiny_model, cls_task, small_vocab, "modelA")
        assert _model_hash(tiny_model) == before

    def test_fake_clock_times_only_training(self, tiny_model, cls_task, small_vocab,
                                            monkeypatch):
        ticks = [0.0]

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        monkeypatch.setattr(time, "perf_counter", clock)
        _, _, rep = finetune(tiny_model, cls_task, small_vocab, "modelA")
        # one call before the loop, one after
        assert rep.runtime_seconds == 1.0

    def test_config_hash_shared_across_models(self, tiny_model, tiny_cfg, cls_task,
                                              small_vocab):
        from monodistil.model import init_random
        other = init_random(tiny_cfg, seed=77)
        _, _, rep_a = finetune(tiny_model, cls_task, small_vocab, "modelA")
        _, _, rep_b = finetune(other, cls_task, small_vocab, "modelB")
        assert rep_a.config_hash == rep_b.config_hash
        assert rep_a.config_hash == cls_task.config_hash()

    def test_tagging_reports_span_f1(self, tiny_model, tag_task, small_vocab):
        tuned, head, rep = finetune(tiny_model, tag_task, small_vocab, "modelA")
        assert rep.metric_name == "span_f1"
        assert 0.0 <= rep.metric_value <= 1.0
        name, value = evaluate_task(tuned, head, tag_task.eval_path, small_vocab, max_len=16)
        assert name == "span_f1"
        assert value == rep.metric_value


class TestAblation:
    def test_bad_fraction_rejected_before_any_finetune(self, tiny_model, tiny_cfg, cls_task,
                                                       small_bundle, small_vocab, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "finetune", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigurationError, match="fraction"):
            harness.run_ablation_data_fraction(tiny_model, small_bundle.lang_a, [1.0, 0.0],
                                               cls_task, DistillConfig(max_len=16),
                                               small_vocab, tiny_cfg)
        assert calls == []

    def test_fraction_keeping_no_document_rejected_before_any_training(
            self, tiny_model, tiny_cfg, cls_task, small_bundle, small_vocab, monkeypatch):
        # 0.001 of the 40-document corpus keeps none; the larger fractions come first
        calls = []
        monkeypatch.setattr(harness, "distill_run",
                            lambda *args, **kwargs: calls.append("distill_run"))
        monkeypatch.setattr(harness, "finetune", lambda *args, **kwargs: calls.append("finetune"))
        with pytest.raises(ConfigurationError,
                           match="fraction 0.001 keeps no document of the 40-document corpus"):
            harness.run_ablation_data_fraction(tiny_model, small_bundle.lang_a,
                                               [1.0, 0.5, 0.001], cls_task,
                                               DistillConfig(epochs=1, max_len=16),
                                               small_vocab, tiny_cfg)
        assert calls == []

    def test_init_ablation_at_unequal_widths_rejected_before_any_training(
            self, tiny_model, tiny_cfg, cls_task, small_bundle, small_vocab, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "distill_run",
                            lambda *args, **kwargs: calls.append("distill_run"))
        monkeypatch.setattr(harness, "finetune", lambda *args, **kwargs: calls.append("finetune"))
        wide = dataclasses.replace(tiny_cfg, hidden_dim=32, intermediate_size=64)
        with pytest.raises(ConfigurationError,
                           match="student hidden_dim 32, teacher hidden_dim 16"):
            harness.run_ablation_init(tiny_model, small_bundle.lang_a, cls_task,
                                      DistillConfig(epochs=1, max_len=16), small_vocab, wide)
        assert calls == []

    def test_colliding_fraction_labels_rejected(self, tiny_model, tiny_cfg, cls_task,
                                                small_bundle, small_vocab, monkeypatch):
        # 0.5 and 0.501 both name their student "dBERT @50%"
        calls = []
        monkeypatch.setattr(harness, "distill_run",
                            lambda *args, **kwargs: calls.append("distill_run"))
        monkeypatch.setattr(harness, "finetune", lambda *args, **kwargs: calls.append("finetune"))
        with pytest.raises(EvaluationError, match="duplicate report for model 'dBERT @50%'"):
            harness.run_ablation_data_fraction(tiny_model, small_bundle.lang_a, [0.5, 0.501],
                                               cls_task, DistillConfig(epochs=1, max_len=16),
                                               small_vocab, tiny_cfg)
        assert calls == []


class TestCompare:
    def test_models_finetune_in_order_against_the_first(self, tiny_model, tiny_cfg, cls_task,
                                                        small_vocab):
        from monodistil.model import init_random
        other = init_random(tiny_cfg, seed=77)
        report = harness.compare([("base", tiny_model), ("other", other)], cls_task,
                                 small_vocab)
        assert report.baseline == "base"
        assert [row.model for row in report.rows] == ["base", "other"]
        _, _, alone = finetune(other, cls_task, small_vocab, "other")
        assert report.rows[1].metric_value == alone.metric_value
        assert report.rows[1].perf_diff == alone.metric_value - report.rows[0].metric_value

    def test_repeated_name_rejected(self, tiny_model, cls_task, small_vocab, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "finetune", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(EvaluationError, match="duplicate report for model 'm'"):
            harness.compare([("m", tiny_model), ("o", tiny_model), ("m", tiny_model)],
                            cls_task, small_vocab)
        assert calls == []

    def test_empty_list_rejected(self, cls_task, small_vocab):
        with pytest.raises(ConfigurationError):
            harness.compare([], cls_task, small_vocab)


class TestMeasureSpeedup:
    def test_equal_runtimes_give_unit_speedup(self):
        reports = [
            _report("base", "t1", 0.9, 10.0),
            _report("small", "t1", 0.8, 10.0),
        ]
        comp = measure_speedup(reports, "base")
        assert comp.avg_speedup["small"] == 1.0

    def test_baseline_rows_come_first_and_carry_none(self):
        reports = [
            _report("small", "t1", 0.8, 5.0),
            _report("base", "t1", 0.9, 10.0),
        ]
        comp = measure_speedup(reports, "base")
        assert comp.rows[0].model == "base"
        assert comp.rows[0].perf_diff is None
        assert comp.rows[0].speedup is None
        assert comp.rows[1].perf_diff == pytest.approx(-0.1)
        assert comp.rows[1].speedup == pytest.approx(2.0)

    def test_reference_runtime_fixture_arithmetic(self):
        # runtimes follow the shipped comparison fixture for the mid-size pair
        base_times = {"task_a": 70.0, "task_b": 618.0, "task_c": 25811.0}
        small_times = {"task_a": 44.0, "task_b": 309.0, "task_c": 13006.0}
        reports = []
        for task, rt in base_times.items():
            reports.append(_report("base", task, 0.9, rt))
        for task, rt in small_times.items():
            reports.append(_report("small", task, 0.88, rt))
        comp = measure_speedup(reports, "base")
        expected = np.mean([70 / 44, 618 / 309, 25811 / 13006])
        assert comp.avg_speedup["small"] == pytest.approx(expected, abs=1e-12)
        assert comp.avg_speedup["small"] == pytest.approx(1.8585, abs=5e-4)

    def test_duplicate_report_rejected(self):
        reports = [_report("base", "t1", 0.9, 1.0), _report("base", "t1", 0.8, 1.0)]
        with pytest.raises(EvaluationError):
            measure_speedup(reports, "base")

    def test_missing_baseline_rejected(self):
        with pytest.raises(EvaluationError):
            measure_speedup([_report("small", "t1", 0.8, 1.0)], "base")

    def test_task_cover_mismatch_rejected(self):
        reports = [
            _report("base", "t1", 0.9, 1.0),
            _report("base", "t2", 0.9, 1.0),
            _report("small", "t1", 0.8, 1.0),
        ]
        with pytest.raises(EvaluationError):
            measure_speedup(reports, "base")

    @settings(max_examples=20)
    @given(
        m_a=st.floats(min_value=0.0, max_value=1.0),
        m_b=st.floats(min_value=0.0, max_value=1.0),
        r_a=st.floats(min_value=0.01, max_value=1000.0),
        r_b=st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_direction_swap_negates_diff_and_inverts_speedup(self, m_a, m_b, r_a, r_b):
        reports = [_report("A", "t", m_a, r_a), _report("B", "t", m_b, r_b)]
        fwd = measure_speedup(reports, "A")
        rev = measure_speedup(reports, "B")
        row_fwd = next(r for r in fwd.rows if r.model == "B")
        row_rev = next(r for r in rev.rows if r.model == "A")
        assert row_fwd.perf_diff == -row_rev.perf_diff
        assert abs(row_fwd.speedup * row_rev.speedup - 1.0) < 1e-9


class TestReportFiles:
    def _comparison(self):
        reports = [
            _report("base", "t1", 0.9, 10.0),
            _report("base", "t2", 0.7, 20.0, metric="span_f1"),
            _report("small", "t1", 0.85, 4.0),
            _report("small", "t2", 0.72, 5.0, metric="span_f1"),
        ]
        return measure_speedup(reports, "base")

    def test_csv_round_trip(self, tmp_path):
        comp = self._comparison()
        path = emit_report(comp, "csv", tmp_path / "report.csv")
        parsed = parse_report_csv(path)
        assert parsed.baseline == comp.baseline
        assert parsed.rows == comp.rows
        assert parsed.avg_speedup == pytest.approx(comp.avg_speedup)

    def test_csv_text(self, tmp_path):
        # the literal format: the banner, one column per ComparisonRow field,
        # each float as its repr and None as an empty field
        path = emit_report(self._comparison(), "csv", tmp_path / "report.csv")
        assert path.read_bytes().split(b"\r\n")[:4] == [
            b"# baseline=base\nmodel,task,metric_name,metric_value,runtime_seconds,perf_diff,"
            b"speedup",
            b"base,t1,accuracy,0.9,10.0,,",
            b"base,t2,span_f1,0.7,20.0,,",
            b"small,t1,accuracy,0.85,4.0,-0.050000000000000044,2.5",
        ]

    def test_markdown_has_a_row_per_entry(self, tmp_path):
        comp = self._comparison()
        path = emit_report(comp, "markdown", tmp_path / "report.md")
        text = path.read_text(encoding="utf-8")
        for row in comp.rows:
            assert f"| {row.model} | {row.task} |" in text
        assert "Avg. Speedup" in text

    def test_baseline_only_report(self, tmp_path):
        comp = measure_speedup([_report("base", "t1", 0.9, 1.0)], "base")
        assert comp.avg_speedup == {}
        path = emit_report(comp, "csv", tmp_path / "solo.csv")
        parsed = parse_report_csv(path)
        assert parsed.rows == comp.rows
        assert parsed.avg_speedup == {}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report(self._comparison(), "xml", tmp_path / "r.xml")

    def test_parse_rejects_missing_banner(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,task\n", encoding="utf-8")
        with pytest.raises(EvaluationError):
            parse_report_csv(bad)
        # malformed rows fail the same way, naming their line
        head = ("# baseline=mBERT\n" + ",".join(harness.CSV_COLUMNS)
                + "\nmBERT,cls,accuracy,0.5,1.0,,\n")
        for row in ("dBERT,cls,accuracy,abc,1.0,0.1,2.0", "dBERT,cls,accuracy,0.5",
                    "dBERT,cls,accuracy,0.5,1.0,0.1,2.0,extra"):
            bad.write_text(head + row + "\n", encoding="utf-8")
            with pytest.raises(EvaluationError, match="line 4"):
                parse_report_csv(bad)
