"""Tests for the selection-tree extractor (Section 5.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ladder_processes, make_process
from oracles.selection_tree_reference import reference_evaluate
from repro.actions import default_catalog
from repro.errors import ConfigurationError, TrainingError, UnknownActionError
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)
from repro.mdp.state import RecoveryState
from repro.policies import UserDefinedPolicy
from repro.simplatform.platform import CostMode, SimulationPlatform

CATALOG = default_catalog()
ACTIONS = CATALOG.names()
TYPES = ("error:A", "error:B")


def hard_processes():
    return ladder_processes(
        "error:Hard",
        [
            (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 30),
            (["TRYNOP", "REBOOT"], 2),
        ],
        realistic_durations=True,
    )


@pytest.fixture(scope="module")
def trained():
    processes = hard_processes()
    platform = SimulationPlatform(processes, CATALOG)
    trainer = QLearningTrainer(
        platform, QLearningConfig(max_sweeps=80, seed=2)
    )
    result = trainer.train_type("error:Hard", processes)
    return platform, trainer, result.qtable, processes


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -0.1},
            {"check_interval": 0},
            {"stable_checks": 0},
            {"max_candidates": 0},
            {"evaluation_sample": 0},
            {"improvement_margin": -0.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SelectionTreeConfig(**kwargs)


class TestCandidateEnumeration:
    def test_candidates_cover_root_actions(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        candidates = extractor.candidate_rule_tables(qtable, "error:Hard")
        s0 = RecoveryState.initial("error:Hard")
        roots = {rules[s0][0] for rules in candidates if s0 in rules}
        # branch_all_at_root: every visited root action appears.
        assert roots == set(CATALOG.names())

    def test_monotone_chains_enforced(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        for rules in extractor.candidate_rule_tables(qtable, "error:Hard"):
            s0 = RecoveryState.initial("error:Hard")
            chain = []
            state = s0
            while state in rules:
                chain.append(rules[state][0])
                state = state.after(rules[state][0], False)
            strengths = [CATALOG[a].strength for a in chain]
            assert strengths == sorted(strengths)

    def test_candidate_cap_respected(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(threshold=5.0, max_candidates=4)
        )
        candidates = extractor.candidate_rule_tables(qtable, "error:Hard")
        # The cap bounds branching; a small overshoot from in-flight
        # branches is acceptable but it must stay near the cap.
        assert len(candidates) <= 8

    def test_unknown_type_yields_single_empty_candidate(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        candidates = extractor.candidate_rule_tables(qtable, "error:Never")
        assert candidates == [{}]


class TestEvaluation:
    def test_evaluate_matches_manual_replay(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(platform)
        rules, cost, count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        assert count >= 1
        # Re-evaluate independently.
        assert extractor.evaluate(rules, processes) == pytest.approx(cost)

    def test_best_candidate_jumps_to_reimage(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(platform)
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "REIMAGE"

    def test_evaluation_sample_thins_large_ensembles(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(evaluation_sample=5)
        )
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        assert rules  # still works with a thin sample

    def test_baseline_margin_keeps_incumbent_on_ties(self, trained):
        platform, _trainer, qtable, processes = trained
        # With an absurd margin no candidate can win; the user ladder's
        # rules are returned.
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(improvement_margin=0.99)
        )
        baseline = UserDefinedPolicy(CATALOG)
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard", baseline=baseline
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "TRYNOP"

    def test_baseline_overridden_on_clear_win(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(improvement_margin=0.03)
        )
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard", baseline=UserDefinedPolicy(CATALOG)
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "REIMAGE"

    def test_empty_process_list_rejected(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        with pytest.raises(TrainingError):
            extractor.evaluate({}, [])


#: Attempt and detection times with inexact binary fractions, so that a
#: change in the order costs are added changes the sum.
durations = st.floats(0.1, 5000.0).map(lambda t: round(t, 3))


@st.composite
def ensembles(draw):
    """Processes of two types with random action sequences.

    Empty sequences are self-healed processes; repeated and
    non-monotone sequences exercise the rank-count success test.
    """
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TYPES),
                st.lists(st.sampled_from(ACTIONS), max_size=5),
                st.lists(durations, min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return [
        make_process(
            actions,
            machine=f"m-{i:03d}",
            error_type=error_type,
            start=i * 1_000_000.0,
            durations=times[1 : len(actions) + 1],
            detection_delay=times[0],
        )
        for i, (error_type, actions, times) in enumerate(specs)
    ]


@st.composite
def rule_tables(draw):
    """A random rule table for ``error:A``.

    The failure chain has a random length, so it can stop short of a
    cure or run into the ``N``-cap; the table also holds junk entries
    off the chain and entries of another error type.
    """
    rules = {}
    state = RecoveryState.initial("error:A")
    for _ in range(draw(st.integers(0, 6))):
        action = draw(st.sampled_from(ACTIONS))
        rules[state] = (action, draw(st.floats(0.0, 1e5)))
        state = state.after(action, healthy=False)
    for _ in range(draw(st.integers(0, 3))):
        tried = tuple(draw(st.lists(st.sampled_from(ACTIONS), max_size=4)))
        error_type = draw(st.sampled_from(TYPES + ("error:Other",)))
        junk = RecoveryState(error_type, healthy=False, tried=tried)
        rules.setdefault(junk, (draw(st.sampled_from(ACTIONS)), 0.0))
    return rules


class TestEvaluateAgainstReference:
    """``evaluate`` on the compiled view equals the session-replay oracle."""

    @given(
        processes=ensembles(),
        tables=st.lists(rule_tables(), min_size=1, max_size=4),
        cost_mode=st.sampled_from(list(CostMode)),
        last_action_only=st.booleans(),
        max_actions=st.sampled_from([2, 3, 4, 20]),
        sample_cap=st.integers(1, 12),
        picks=st.lists(st.integers(0, 9), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference(
        self,
        processes,
        tables,
        cost_mode,
        last_action_only,
        max_actions,
        sample_cap,
        picks,
    ):
        platform = SimulationPlatform(
            processes,
            CATALOG,
            cost_mode=cost_mode,
            last_action_only=last_action_only,
            max_actions=max_actions,
        )
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(evaluation_sample=sample_cap)
        )
        subset = [processes[i % len(processes)] for i in picks]
        # One extractor across tables and process lists: later calls hit
        # the memo, which must return what a fresh replay would.
        for rules in tables + tables:
            for evaluated in (processes, subset):
                if not evaluated:
                    continue
                assert extractor.evaluate(
                    rules, evaluated
                ) == reference_evaluate(
                    platform, rules, evaluated, sample_cap
                )


class TestEvaluateErrors:
    def _platform(self, processes):
        return SimulationPlatform(processes, CATALOG, max_actions=4)

    def test_terminal_state_rule_rejected(self):
        process = make_process(["REBOOT"], error_type="error:A")
        extractor = SelectionTreeExtractor(self._platform([process]))
        healthy = RecoveryState("error:A", healthy=True, tried=("REBOOT",))
        with pytest.raises(ConfigurationError, match="terminal"):
            extractor.evaluate({healthy: ("REBOOT", 0.0)}, [process])

    def test_empty_action_rule_rejected(self):
        process = make_process(["REBOOT"], error_type="error:A")
        extractor = SelectionTreeExtractor(self._platform([process]))
        # Off the failure chain: rejected all the same.
        state = RecoveryState("error:B", tried=("RMA",))
        with pytest.raises(ConfigurationError, match="empty action"):
            extractor.evaluate({state: ("", 0.0)}, [process])

    def test_reached_unknown_rule_action_raises(self):
        process = make_process(["TRYNOP", "REBOOT"], error_type="error:A")
        platform = self._platform([process])
        s0 = RecoveryState.initial("error:A")
        rules = {s0: ("TRYNOP", 0.0), s0.after("TRYNOP", False): ("FOO", 0.0)}
        with pytest.raises(UnknownActionError, match="FOO"):
            SelectionTreeExtractor(platform).evaluate(rules, [process])
        with pytest.raises(UnknownActionError):
            reference_evaluate(platform, rules, [process])

    def test_unreached_unknown_rule_action_is_harmless(self):
        process = make_process(["TRYNOP", "REBOOT"], error_type="error:A")
        platform = self._platform([process])
        s0 = RecoveryState.initial("error:A")
        # REBOOT cures at depth 0, so the FOO rule is never reached.
        rules = {s0: ("REBOOT", 0.0), s0.after("REBOOT", False): ("FOO", 0.0)}
        cost = SelectionTreeExtractor(platform).evaluate(rules, [process])
        assert cost == reference_evaluate(platform, rules, [process])

    def test_reached_process_with_unknown_actions_raises(self):
        process = make_process(["TRYNOP", "FOO"], error_type="error:A")
        platform = self._platform([process])
        rules = {RecoveryState.initial("error:A"): ("REBOOT", 0.0)}
        with pytest.raises(UnknownActionError, match="FOO"):
            SelectionTreeExtractor(platform).evaluate(rules, [process])
        with pytest.raises(UnknownActionError):
            reference_evaluate(platform, rules, [process])

    def test_unreplayed_process_with_unknown_actions_is_unhandled(self):
        process = make_process(["TRYNOP", "FOO"], error_type="error:A")
        platform = self._platform([process])
        cost = SelectionTreeExtractor(platform).evaluate({}, [process])
        assert cost == process.downtime

    def test_process_outside_ensemble_rejected(self):
        member = make_process(["REBOOT"], error_type="error:A")
        stranger = make_process(
            ["REBOOT"], machine="m-away", error_type="error:A", start=5e6
        )
        extractor = SelectionTreeExtractor(self._platform([member]))
        with pytest.raises(TrainingError, match="'m-away' starting at 5000000"):
            extractor.evaluate({}, [member, stranger])


class TestTreeTrainingCourse:
    def test_converges_faster_than_standard(self):
        processes = hard_processes()
        platform = SimulationPlatform(processes, CATALOG)
        trainer = QLearningTrainer(
            platform, QLearningConfig(max_sweeps=400, seed=3)
        )
        extractor = SelectionTreeExtractor(
            platform,
            SelectionTreeConfig(min_sweeps=20, check_interval=10),
        )
        outcome = extractor.train_type(trainer, "error:Hard", processes)
        assert outcome.training.converged
        assert outcome.training.sweeps_to_convergence < 100
        assert outcome.expected_cost > 0
        s0 = RecoveryState.initial("error:Hard")
        assert outcome.rules[s0][0] == "REIMAGE"
