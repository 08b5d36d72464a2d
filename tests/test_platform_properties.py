"""Hypothesis property tests over the simulation platform.

Random ladder-shaped recovery-process ensembles are generated, and the
platform's structural invariants are checked: self-replay exactness,
termination under arbitrary proper policies, and cost positivity.  The
platform's step and ``replay_many`` are checked against the frozen
reference step and session-driven replay in
``tests/oracles/replay_reference.py``.
"""

import functools
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_process
from oracles.replay_reference import reference_replay_many, reference_step
from repro.actions import default_catalog
from repro.mdp.state import RecoveryState
from repro.policies import (
    AlwaysCheapestPolicy,
    AlwaysStrongestPolicy,
    HybridPolicy,
    RandomPolicy,
    TrainedPolicy,
    UserDefinedPolicy,
)
from repro.policies.base import Policy
from repro.session.trace import EpisodeTelemetry
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


TYPES = ["error:X", "error:Y"]
POLICY_KINDS = ["user-defined", "trained", "hybrid", "strongest", "random"]


@st.composite
def replay_cases(draw):
    """A two-type ensemble (self-healed processes included), the
    processes to replay (a drawn selection, repeats allowed), a rule
    table with holes and an ``N`` cap."""
    sequences = draw(
        st.lists(
            st.lists(st.sampled_from(NAMES), max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    ensemble = [
        make_process(
            sequence,
            machine=f"m-{i:03d}",
            error_type=draw(st.sampled_from(TYPES)),
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
    replayed = draw(
        st.lists(st.sampled_from(ensemble), min_size=1, max_size=12)
    )
    rules = {}
    for error_type in TYPES:
        histories = draw(
            st.lists(st.lists(st.sampled_from(NAMES), max_size=3), max_size=6)
        )
        for history in histories:
            rules[RecoveryState(error_type, tried=tuple(history))] = (
                draw(st.sampled_from(NAMES)),
                draw(st.sampled_from([60.0, 900.0, 86_400.0])),
            )
    return ensemble, replayed, rules, draw(st.integers(2, 20))


def make_policy(kind, rules, seed):
    if kind == "user-defined":
        return UserDefinedPolicy(CATALOG)
    if kind == "trained":
        return TrainedPolicy(rules)
    if kind == "hybrid":
        return HybridPolicy(TrainedPolicy(rules), UserDefinedPolicy(CATALOG))
    if kind == "strongest":
        return AlwaysStrongestPolicy(CATALOG)
    return RandomPolicy(CATALOG, seed=seed)


class RecordingPolicy(Policy):
    """Forwards to ``inner`` and records every ``decide_batch`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.batch_safe = inner.batch_safe
        self.calls = []

    @property
    def name(self):
        return self.inner.name

    def decide(self, state):
        return self.inner.decide(state)

    def decide_batch(self, states):
        self.calls.append(list(states))
        return self.inner.decide_batch(states)


class TraceDigest(EpisodeTelemetry):
    """SHA-256 over the exact ``repr`` of every episode trace."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def on_episode(self, trace):
        self.sha.update(repr(trace).encode())


def result_snapshot(result):
    cost = "nan" if math.isnan(result.cost) else result.cost.hex()
    return (
        result.handled,
        cost,
        result.actions,
        result.forced_manual,
        result.real_cost.hex(),
    )


class TestReplayManyMatchesReference:
    """The compiled wave loop equals the frozen session-driven replay:
    results, traces, and the policy's ``decide_batch`` calls."""

    @given(
        case=replay_cases(),
        kind=st.sampled_from(POLICY_KINDS),
        seed=st.integers(0, 1_000),
        cost_mode=st.sampled_from(list(CostMode)),
        last_action_only=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_replay_many_equals_reference(
        self, case, kind, seed, cost_mode, last_action_only
    ):
        ensemble, replayed, rules, max_actions = case
        platform = SimulationPlatform(
            ensemble,
            CATALOG,
            cost_mode=cost_mode,
            last_action_only=last_action_only,
            max_actions=max_actions,
        )
        runs = []
        for replay in (
            platform.replay_many,
            functools.partial(reference_replay_many, platform),
        ):
            policy = RecordingPolicy(make_policy(kind, rules, seed))
            digest = TraceDigest()
            results = replay(replayed, policy, origin="o", telemetry=digest)
            runs.append(
                (
                    [result_snapshot(r) for r in results],
                    digest.sha.hexdigest(),
                    policy.calls,
                    getattr(policy.inner, "fallback_rate", None),
                )
            )
        assert runs[0] == runs[1]
