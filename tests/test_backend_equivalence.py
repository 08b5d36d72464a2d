"""Product Q-learning vs the frozen reference oracle.

:class:`repro.learning.qtable.QTable` and the id-indexed episode loop
are a pure performance transformation of the dict-of-dict table and the
session-driven course kept in ``tests/oracles/qlearning_reference.py``:
the contract is *bit-identical* behaviour — same Q values, visit counts,
greedy policy, RNG draw sequence and convergence sweeps.  This module
enforces the contract at three levels:

* hypothesis property tests drive both tables through random
  update/restore/query sequences and compare every observable after
  every operation;
* end-to-end ``train_type`` courses (both exploration strategies) must
  produce identical tables and metadata;
* the parallel engine's selection-tree course must produce the same
  outcome as the same course driven by the reference trainer.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ladder_processes
from oracles import qlearning_reference
from repro.actions import default_catalog
from repro.core import PipelineConfig, RecoveryPolicyLearner
from repro.learning.parallel import ParallelTrainingEngine
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.qtable import QTable
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)
from repro.mdp.state import RecoveryState
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()
ACTIONS = tuple(CATALOG.names())

# A small pool of states (one chain plus branches) so random operation
# sequences revisit states often enough to exercise greedy flips.
_S0 = RecoveryState.initial("error:X")
STATES = [
    _S0,
    _S0.after("TRYNOP", False),
    _S0.after("REBOOT", False),
    _S0.after("TRYNOP", False).after("REBOOT", False),
    _S0.after("TRYNOP", False).after("TRYNOP", False),
    RecoveryState.initial("error:Y"),
]
TERMINAL = _S0.after("REBOOT", True)

_targets = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, len(STATES) - 1),
            st.integers(0, len(ACTIONS) - 1),
            _targets,
        ),
        st.tuples(
            st.just("restore"),
            st.integers(0, len(STATES) - 1),
            st.integers(0, len(ACTIONS) - 1),
            _targets,
            st.integers(1, 50),
        ),
        st.tuples(st.just("check_policy")),
    ),
    min_size=1,
    max_size=60,
)


def observables(table):
    """Everything a Q table exposes, as one comparable structure."""
    return {
        "len": len(table),
        "states": list(table.states()),
        "cells": {
            (state, action): (
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in STATES
            for action in ACTIONS
        },
        "rows": {state: table.values_for(state) for state in STATES},
        "totals": {state: table.total_visits(state) for state in STATES},
        "greedy": {state: table.greedy_action(state) for state in STATES},
        "ranked": {state: table.ranked_actions(state) for state in STATES},
        "bootstrap": {
            state: table.bootstrap_value(state)
            for state in STATES + [TERMINAL]
        },
        "min": {
            state: table.min_value(state) for state in STATES + [TERMINAL]
        },
        "underexplored": {
            (state, k): table.underexplored_action(state, k)
            for state in STATES
            for k in (0, 1, 3)
        },
        "known": {state: table.known(state) for state in STATES},
    }


class TestPropertyEquivalence:
    @given(ops=_ops, alpha_floor=st.sampled_from([0.0, 0.08, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_random_operation_sequences_match(self, ops, alpha_floor):
        reference = qlearning_reference.QTable(ACTIONS, alpha_floor=alpha_floor)
        fast = QTable(ACTIONS, alpha_floor=alpha_floor)
        for op in ops:
            if op[0] == "update":
                _, si, ai, target = op
                delta_ref = reference.update(STATES[si], ACTIONS[ai], target)
                delta_fast = fast.update(STATES[si], ACTIONS[ai], target)
                assert delta_ref == delta_fast
            elif op[0] == "restore":
                _, si, ai, value, visits = op
                reference.restore(STATES[si], ACTIONS[ai], value, visits)
                fast.restore(STATES[si], ACTIONS[ai], value, visits)
            else:
                assert (
                    reference.greedy_policy_changed()
                    == fast.greedy_policy_changed()
                )
            # Exact equality on purpose: floats must match bit for bit.
            assert observables(reference) == observables(fast)

    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_policy_change_flag_between_sequences(self, ops):
        """The convergence flag agrees when checked only at the end."""
        reference = qlearning_reference.QTable(ACTIONS)
        fast = QTable(ACTIONS)
        assert (
            reference.greedy_policy_changed() == fast.greedy_policy_changed()
        )
        for op in ops:
            if op[0] == "update":
                _, si, ai, target = op
                reference.update(STATES[si], ACTIONS[ai], target)
                fast.update(STATES[si], ACTIONS[ai], target)
            elif op[0] == "restore":
                _, si, ai, value, visits = op
                reference.restore(STATES[si], ACTIONS[ai], value, visits)
                fast.restore(STATES[si], ACTIONS[ai], value, visits)
        assert (
            reference.greedy_policy_changed() == fast.greedy_policy_changed()
        )
        # And once more with no writes in between: both must say stable.
        assert reference.greedy_policy_changed() is False
        assert fast.greedy_policy_changed() is False


def _ladder_groups():
    hard = ladder_processes(
        "error:Hard",
        [(["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 12),
         (["TRYNOP", "REBOOT"], 2)],
        realistic_durations=True,
    )
    soft = ladder_processes(
        "error:Soft",
        [(["TRYNOP"], 10), (["TRYNOP", "REBOOT"], 5)],
        realistic_durations=True,
        machine_prefix="s",
    )
    return {"error:Hard": hard, "error:Soft": soft}


def _train(trainer_class, exploration: str = "boltzmann"):
    groups = _ladder_groups()
    ensemble = [p for ps in groups.values() for p in ps]
    platform = SimulationPlatform(ensemble, CATALOG)
    trainer = trainer_class(
        platform,
        QLearningConfig(
            max_sweeps=60,
            episodes_per_sweep=8,
            seed=5,
            exploration=exploration,
        ),
    )
    return {
        error_type: trainer.train_type(error_type, processes)
        for error_type, processes in groups.items()
    }


def _result_snapshot(result):
    table = result.qtable
    return (
        result.sweeps_run,
        result.sweeps_to_convergence,
        result.converged,
        result.episodes,
        {
            (state, action): (
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in table.states()
            for action in table.action_names
        },
        # First-visit iteration order.
        list(table.states()),
    )


class TestEndToEndBitIdentical:
    @pytest.mark.parametrize("exploration", ["boltzmann", "epsilon"])
    def test_train_type_identical_across_backends(self, exploration):
        by_oracle = _train(qlearning_reference.ReferenceTrainer, exploration)
        by_trainer = _train(QLearningTrainer, exploration)
        assert by_oracle.keys() == by_trainer.keys()
        for error_type in by_oracle:
            assert _result_snapshot(by_oracle[error_type]) == _result_snapshot(
                by_trainer[error_type]
            ), f"trainer diverged from the oracle on {error_type} ({exploration})"


class TestParallelEngineBackends:
    def test_engine_outcomes_identical_across_backends(self):
        groups = _ladder_groups()
        ensemble = [p for ps in groups.values() for p in ps]
        qlearning = QLearningConfig(max_sweeps=40, episodes_per_sweep=8, seed=3)
        tree = SelectionTreeConfig(min_sweeps=10, check_interval=5)
        engine = ParallelTrainingEngine(
            ensemble, CATALOG, qlearning=qlearning, tree=tree, n_workers=1
        )
        platform = SimulationPlatform(ensemble, CATALOG)
        extractor = SelectionTreeExtractor(platform, tree)
        oracle = qlearning_reference.ReferenceTrainer(platform, qlearning)
        for error_type, outcome in engine.train(groups).items():
            reference = extractor.train_type(
                oracle, error_type, groups[error_type]
            )
            assert (
                _result_snapshot(outcome.training),
                outcome.rules,
                outcome.expected_cost,
            ) == (
                _result_snapshot(reference.training),
                reference.rules,
                reference.expected_cost,
            ), error_type


class TestCheckpointCrossBackend:
    """The checkpoint fingerprint tracks every knob that shapes a course."""

    def test_other_knobs_still_invalidate(self, tmp_path):
        config = PipelineConfig(
            top_k_types=3,
            qlearning=QLearningConfig(
                max_sweeps=40, episodes_per_sweep=8, seed=3
            ),
            tree=SelectionTreeConfig(min_sweeps=10, check_interval=5),
            checkpoint_dir=str(tmp_path),
        )
        base = RecoveryPolicyLearner(config=config)
        changed = RecoveryPolicyLearner(
            config=dataclasses.replace(config, max_actions=7)
        )
        assert (
            base._make_checkpoint_store().fingerprint
            != changed._make_checkpoint_store().fingerprint
        )
