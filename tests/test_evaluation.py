"""Tests for evaluation metrics, evaluator and reports."""

import pytest

from helpers import ladder_processes
from repro.actions import default_catalog
from repro.errors import EvaluationError
from repro.evaluation.evaluator import PolicyEvaluator
from repro.evaluation.metrics import EvaluationResult, TypeEvaluation
from repro.evaluation.report import (
    render_coverage,
    render_relative_costs,
    render_totals,
)
from repro.learning.telemetry import EpisodeRecorder
from repro.mdp.state import RecoveryState
from repro.policies import (
    FixedSequencePolicy,
    TrainedPolicy,
    UserDefinedPolicy,
)

CATALOG = default_catalog()


def hard_test_processes():
    return ladder_processes(
        "error:Hard",
        [(["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 10)],
        realistic_durations=True,
    )


class TestTypeEvaluation:
    def test_coverage(self):
        evaluation = TypeEvaluation("t", 10, 9, 100.0, 200.0, 250.0)
        assert evaluation.coverage == pytest.approx(0.9)

    def test_relative_cost(self):
        evaluation = TypeEvaluation("t", 10, 10, 100.0, 200.0, 200.0)
        assert evaluation.relative_cost == pytest.approx(0.5)

    def test_zero_denominators(self):
        evaluation = TypeEvaluation("t", 0, 0, 0.0, 0.0, 0.0)
        assert evaluation.coverage == 1.0
        assert evaluation.relative_cost == 1.0


class TestEvaluationResult:
    def _result(self):
        return EvaluationResult(
            policy_name="p",
            per_type={
                "a": TypeEvaluation("a", 10, 10, 80.0, 100.0, 100.0),
                "b": TypeEvaluation("b", 10, 5, 30.0, 50.0, 120.0),
            },
            train_fraction=0.4,
        )

    def test_totals(self):
        result = self._result()
        assert result.total_estimated_cost == pytest.approx(110.0)
        assert result.total_real_cost_handled == pytest.approx(150.0)
        assert result.total_real_cost == pytest.approx(220.0)

    def test_overall_relative_cost(self):
        assert self._result().overall_relative_cost == pytest.approx(
            110.0 / 150.0
        )

    def test_overall_coverage(self):
        assert self._result().overall_coverage == pytest.approx(0.75)

    def test_unhandled_types(self):
        assert self._result().unhandled_types() == ("b",)

    def test_series_accessors(self):
        result = self._result()
        assert result.relative_costs()["a"] == pytest.approx(0.8)
        assert result.coverages()["b"] == pytest.approx(0.5)


class TestPolicyEvaluator:
    def test_user_policy_scores_exactly_one(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(processes, CATALOG)
        result = evaluator.evaluate(UserDefinedPolicy(CATALOG))
        assert result.overall_relative_cost == pytest.approx(1.0)
        assert result.overall_coverage == 1.0

    def test_jump_policy_scores_below_one(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(processes, CATALOG)
        jump = FixedSequencePolicy(["REIMAGE", "RMA"], CATALOG)
        result = evaluator.evaluate(jump)
        assert result.overall_relative_cost < 0.75

    def test_unhandled_processes_excluded_from_totals(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(processes, CATALOG)
        empty = TrainedPolicy({}, label="empty")
        result = evaluator.evaluate(empty)
        assert result.overall_coverage == 0.0
        assert result.total_estimated_cost == 0.0
        assert result.total_real_cost > 0

    def test_type_restriction(self):
        processes = hard_test_processes() + ladder_processes(
            "error:Other", [(["TRYNOP"], 5)], machine_prefix="n"
        )
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        )
        result = evaluator.evaluate(UserDefinedPolicy(CATALOG))
        assert set(result.per_type) == {"error:Hard"}

    def test_requested_type_absent_from_test_skipped(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard", "error:Ghost"]
        )
        assert evaluator.error_types == ("error:Hard",)

    def test_train_fraction_recorded(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(processes, CATALOG)
        result = evaluator.evaluate(
            UserDefinedPolicy(CATALOG), train_fraction=0.6
        )
        assert result.train_fraction == 0.6

    def test_empty_test_set_rejected(self):
        with pytest.raises(EvaluationError):
            PolicyEvaluator([], CATALOG)

    def test_out_of_scope_processes_counted_as_skipped(self):
        processes = hard_test_processes() + ladder_processes(
            "error:Other", [(["TRYNOP"], 5)], machine_prefix="n"
        )
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        )
        result = evaluator.evaluate(UserDefinedPolicy(CATALOG))
        assert result.skipped == 5
        unrestricted = PolicyEvaluator(processes, CATALOG)
        assert unrestricted.evaluate(UserDefinedPolicy(CATALOG)).skipped == 0

    def test_telemetry_does_not_change_results(self):
        processes = hard_test_processes() + ladder_processes(
            "error:Other", [(["TRYNOP"], 5)], machine_prefix="n"
        )
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        )
        partial = TrainedPolicy(
            {RecoveryState.initial("error:Hard"): ("REBOOT", 900.0)}
        )
        for policy in (UserDefinedPolicy(CATALOG), partial):
            plain = evaluator.evaluate(policy, train_fraction=0.4)
            traced = evaluator.evaluate(
                policy, train_fraction=0.4, telemetry=EpisodeRecorder()
            )
            assert traced == plain

    def test_telemetry_records_only_in_scope_episodes(self):
        processes = hard_test_processes() + ladder_processes(
            "error:Other", [(["TRYNOP"], 5)], machine_prefix="n"
        )
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        )
        recorder = EpisodeRecorder()
        evaluator.evaluate(UserDefinedPolicy(CATALOG), telemetry=recorder)
        assert len(recorder) == 10
        assert recorder.episode_counts() == {"evaluation": 10}
        assert {t.error_type for t in recorder.traces} == {"error:Hard"}


class TestReports:
    def _results(self):
        processes = hard_test_processes()
        evaluator = PolicyEvaluator(processes, CATALOG)
        user = evaluator.evaluate(UserDefinedPolicy(CATALOG), train_fraction=0.2)
        jump = evaluator.evaluate(
            FixedSequencePolicy(["REIMAGE", "RMA"], CATALOG),
            train_fraction=0.2,
        )
        return user, jump

    def test_render_relative_costs(self):
        user, jump = self._results()
        text = render_relative_costs([user, jump], {"error:Hard": 1})
        assert "rank" in text
        assert "1" in text

    def test_render_totals(self):
        user, jump = self._results()
        text = render_totals([(user, jump)])
        assert "user-defined" in text
        assert "0.2" in text

    def test_render_coverage(self):
        user, _jump = self._results()
        text = render_coverage([user], {"error:Hard": 1})
        assert "coverage" in text.lower()
