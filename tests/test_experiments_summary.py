"""Tests for the one-call reproduction summary (small-scale)."""

import pytest

from repro.core.config import PipelineConfig
from repro.experiments.scenario import build_scenario
from repro.experiments.summary import _verdicts, reproduction_summary
from repro.learning.qlearning import QLearningConfig
from repro.learning.selection_tree import SelectionTreeConfig
from repro.tracegen.workload import small_config


@pytest.fixture(scope="module")
def summary():
    scenario = build_scenario(small_config(seed=23), top_k=6)
    config = PipelineConfig(
        top_k_types=6,
        qlearning=QLearningConfig(max_sweeps=90, episodes_per_sweep=16),
        tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
    )
    return reproduction_summary(
        scenario,
        config=config,
        fractions=(0.5,),
        include_training_time=False,
    )


class TestReproductionSummary:
    def test_covers_headline_figures(self, summary):
        figures = {row.figure for row in summary.rows}
        assert {"Sec 4.1", "Fig 3", "Fig 7", "Fig 9", "Fig 10",
                "Fig 12"} <= figures

    def test_rows_carry_both_sides(self, summary):
        for row in summary.rows:
            assert row.paper
            assert row.measured

    def test_render_contains_verdict(self, summary):
        text = summary.render()
        assert "Reproduction summary" in text
        assert "=>" in text

    def test_shape_flags_are_booleans(self, summary):
        assert all(isinstance(r.shape_holds, bool) for r in summary.rows)

    def test_small_scale_coverage_shapes_hold(self, summary):
        # At miniature scale only noise/coverage-style shapes must hold;
        # the paper-band totals are checked at benchmark scale.  Make
        # sure at least the data-description rows pass here.
        by_figure = {row.figure: row for row in summary.rows}
        assert by_figure["Fig 3"].shape_holds
        assert by_figure["Fig 10"].shape_holds

    def test_bounded_figures_carry_two_verdicts(self, summary):
        """Figs 7, 9, 10 and 12 report the paper bound and the looser
        reproduction tolerance separately, each with its reason."""
        by_figure = {row.figure: row for row in summary.rows}
        for figure in ("Fig 7", "Fig 9", "Fig 10", "Fig 12"):
            row = by_figure[figure]
            assert isinstance(row.paper_bound_met, bool), figure
            assert "paper" in row.reason and "tolerance" in row.reason
        assert by_figure["Fig 3"].paper_bound_met is None
        assert "paper bounds met" in summary.render()


class TestVerdicts:
    def test_paper_bound_stricter_than_tolerance(self):
        # The audit's Fig 10 case: 86.86% coverage passes the tolerance
        # only.
        tolerated, met, reason = _verdicts(
            (0.8686, 0.90), (0.8686, 0.80), above=True, fmt=".2%"
        )
        assert (met, tolerated) == (False, True)
        assert reason == (
            "paper: 86.86% misses > 90.00%; tolerance: 86.86% meets > 80.00%"
        )

    @pytest.mark.parametrize(
        "value, tolerance, verdicts",
        [(0.8513, 0.93, (True, True)), (0.92, 0.93, (True, False)),
         (0.96, 0.95, (False, False))],
    )
    def test_upper_bounds(self, value, tolerance, verdicts):
        assert _verdicts(
            (value, 0.90), (value, tolerance), above=False, fmt=".4f"
        )[:2] == verdicts

    def test_paper_and_tolerance_may_judge_different_values(self):
        # Fig 7: the paper bounds the max deviation, the tolerance the
        # mean.
        tolerated, met, reason = _verdicts(
            (0.177, 0.05), (0.0358, 0.06), above=False, fmt=".2%"
        )
        assert (met, tolerated) == (False, True)
        assert "17.70% misses" in reason and "3.58% meets" in reason
