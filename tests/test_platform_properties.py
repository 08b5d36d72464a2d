"""Hypothesis property tests over the simulation platform.

Random ladder-shaped recovery-process ensembles are generated, and the
platform's structural invariants are checked: self-replay exactness,
termination under arbitrary proper policies, and cost positivity.  The
platform's step is checked against the frozen ``covers``-based
reference step in ``tests/oracles/replay_reference.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_process
from oracles.replay_reference import reference_step
from repro.actions import default_catalog
from repro.mdp.state import RecoveryState
from repro.policies import (
    AlwaysCheapestPolicy,
    AlwaysStrongestPolicy,
    RandomPolicy,
    UserDefinedPolicy,
)
from repro.simplatform.platform import CostMode, SimulationPlatform

CATALOG = default_catalog()
LADDER = ["TRYNOP", "REBOOT", "REBOOT", "REIMAGE", "RMA"]


@st.composite
def ladder_ensemble(draw):
    """A set of processes with ladder prefixes of random depth."""
    depths = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                 max_size=12)
    )
    step = draw(st.sampled_from([300.0, 900.0, 3600.0]))
    return [
        make_process(
            LADDER[:depth],
            machine=f"m-{i:03d}",
            start=i * 100_000.0,
            step=step,
        )
        for i, depth in enumerate(depths)
    ]


class TestPlatformProperties:
    @given(processes=ladder_ensemble())
    @settings(max_examples=40, deadline=None)
    def test_self_replay_is_exact(self, processes):
        platform = SimulationPlatform(processes, CATALOG)
        policy = UserDefinedPolicy(CATALOG)
        for process in processes:
            result = platform.replay(process, policy)
            assert result.handled
            assert result.cost == pytest.approx(result.real_cost)
            assert result.actions == process.actions

    @given(processes=ladder_ensemble(), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_replay_terminates_under_any_policy(self, processes, seed):
        platform = SimulationPlatform(processes, CATALOG, max_actions=8)
        policies = [
            RandomPolicy(CATALOG, seed=seed),
            AlwaysCheapestPolicy(CATALOG),
            AlwaysStrongestPolicy(CATALOG),
        ]
        for policy in policies:
            for process in processes:
                result = platform.replay(process, policy)
                assert result.handled
                assert len(result.actions) <= 8 + len(process.actions)
                assert result.cost > 0

    @given(processes=ladder_ensemble())
    @settings(max_examples=30, deadline=None)
    def test_strongest_policy_executes_until_covered(self, processes):
        """Always-strongest replays are all-RMA and stop exactly when the
        required multiset is covered (one RMA per required occurrence)."""
        from repro.simplatform.hypotheses import required_strengths

        platform = SimulationPlatform(processes, CATALOG)
        policy = AlwaysStrongestPolicy(CATALOG)
        for process in processes:
            result = platform.replay(process, policy)
            assert result.handled
            assert set(result.actions) == {"RMA"}
            required = required_strengths(process, CATALOG)
            assert len(result.actions) == max(1, len(required))

    @given(processes=ladder_ensemble())
    @settings(max_examples=30, deadline=None)
    def test_replay_is_deterministic(self, processes):
        platform = SimulationPlatform(processes, CATALOG)
        policy = UserDefinedPolicy(CATALOG)
        for process in processes[:3]:
            first = platform.replay(process, policy)
            second = platform.replay(process, policy)
            assert first == second


NAMES = CATALOG.names()


@st.composite
def step_cases(draw):
    """A platform ensemble, one of its processes, a tried prefix, an action."""
    sequences = draw(
        st.lists(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    processes = [
        make_process(
            sequence,
            machine=f"m-{i:03d}",
            error_type=draw(st.sampled_from(["error:X", "error:Y"])),
            start=i * 1_000_000.0,
            durations=draw(
                st.lists(
                    st.sampled_from([120.0, 300.0, 2_700.0, 7_200.0]),
                    min_size=len(sequence),
                    max_size=len(sequence),
                )
            ),
        )
        for i, sequence in enumerate(sequences)
    ]
    max_actions = draw(st.integers(min_value=2, max_value=20))
    process = draw(st.sampled_from(processes))
    tried = draw(
        st.lists(st.sampled_from(NAMES), max_size=max_actions - 1)
    )
    return (
        processes,
        process,
        RecoveryState(process.error_type, tried=tuple(tried)),
        draw(st.sampled_from(NAMES)),
        max_actions,
    )


class TestStepMatchesReference:
    """The compiled-view step equals the frozen ``covers``-based step."""

    @given(
        case=step_cases(),
        cost_mode=st.sampled_from(list(CostMode)),
        last_action_only=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_step_equals_reference(self, case, cost_mode, last_action_only):
        processes, process, state, action, max_actions = case
        platform = SimulationPlatform(
            processes,
            CATALOG,
            cost_mode=cost_mode,
            last_action_only=last_action_only,
            max_actions=max_actions,
        )
        assert platform.step(process, state, action) == reference_step(
            process,
            state,
            action,
            catalog=CATALOG,
            stats=platform.stats,
            cost_mode=cost_mode,
            last_action_only=last_action_only,
        )
