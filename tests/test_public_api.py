"""Smoke tests of the top-level public API surface."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


class TestExports:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", repro.__all__)
    def test_all_names_resolve(self, name):
        assert getattr(repro, name) is not None

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_subpackage_star_import_resolves(self, package):
        module = importlib.import_module(f"repro.{package}")
        namespace = {}
        exec(f"from repro.{package} import *", namespace)
        for name in module.__all__:
            assert name in namespace, name

    def test_quickstart_flow_smoke(self, small_trace):
        """The README/quickstart call sequence works end to end."""
        from repro import (
            PipelineConfig,
            RecoveryPolicyLearner,
            time_ordered_split,
        )
        from repro.learning.qlearning import QLearningConfig
        from repro.learning.selection_tree import SelectionTreeConfig

        train, test = time_ordered_split(
            small_trace.log.to_processes(), 0.5
        )
        config = PipelineConfig(
            top_k_types=4,
            qlearning=QLearningConfig(
                max_sweeps=80, episodes_per_sweep=16
            ),
            tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
        )
        learner = RecoveryPolicyLearner(config=config).fit(train)
        result = learner.make_evaluator(test).evaluate(
            learner.hybrid_policy()
        )
        assert 0.0 < result.overall_relative_cost <= 1.1

    def test_log_round_trip_via_api(self, tmp_path, small_trace):
        from repro import read_log_jsonl, write_log_jsonl

        path = tmp_path / "log.jsonl"
        write_log_jsonl(small_trace.log, path)
        assert read_log_jsonl(path) == small_trace.log
