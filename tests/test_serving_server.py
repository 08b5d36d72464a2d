"""Tests for the decision server: lookups, fallback routing, hot reload.

The race test at the bottom is the one the design stands on: a writer
thread publishing new policy generations at scripted points inside
in-flight ``decide_batch`` calls must never produce a torn table — every
batch is answered entirely by one generation.
"""

import queue
import threading

import pytest

from repro.actions import default_catalog
from repro.core.online import RollingRetrainer
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.serving import DecisionServer, PolicyVersion, ServedDecision

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
UNKNOWN = RecoveryState.initial("error:never-seen")


@pytest.fixture
def trained():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="t1",
    )


@pytest.fixture
def server(trained):
    return DecisionServer(trained, UserDefinedPolicy(default_catalog()))


class TestDecide:
    def test_hit_uses_primary(self, server):
        decision = server.decide(S0)
        assert decision.action == "REIMAGE"
        assert decision.source == "serving:t1"
        assert decision.expected_cost == pytest.approx(7200.0)
        assert decision.version == 1
        assert not decision.fell_back

    def test_unknown_state_falls_back(self, server):
        decision = server.decide(UNKNOWN)
        assert decision.fell_back
        assert decision.source.startswith("serving:")
        # The user-defined ladder starts from the weakest action.
        assert decision.action == "TRYNOP"

    def test_terminal_state_rejected(self, server):
        with pytest.raises(ConfigurationError, match="terminal"):
            server.decide(S0.after("REIMAGE", True))

    def test_stats_accumulate(self, server):
        server.decide(S0)
        server.decide(UNKNOWN)
        server.decide(UNKNOWN)
        assert server.decision_count == 3
        assert server.fallback_count == 2
        assert server.fallback_rate == pytest.approx(2 / 3)
        assert server.decisions_by_version() == {1: 3}

    def test_default_fallback_is_user_defined(self, trained):
        plain = DecisionServer(trained)
        assert plain.decide(UNKNOWN).action == "TRYNOP"


class TestDecideBatch:
    def test_batch_mixes_hits_and_fallbacks(self, server):
        decisions = server.decide_batch([S0, UNKNOWN, S1])
        assert [d.action for d in decisions] == ["REIMAGE", "TRYNOP", "RMA"]
        assert [d.fell_back for d in decisions] == [False, True, False]
        assert {d.version for d in decisions} == {1}

    def test_batch_matches_scalar(self, server):
        states = [S0, S1, UNKNOWN, S0]
        batched = server.decide_batch(states)
        for state, from_batch in zip(states, batched):
            scalar = server.decide(state)
            assert from_batch.action == scalar.action
            assert from_batch.expected_cost == scalar.expected_cost
            assert from_batch.fell_back == scalar.fell_back

    def test_empty_batch(self, server):
        assert server.decide_batch([]) == []
        assert server.decision_count == 0

    def test_works_with_array_policy(self, tmp_path, trained):
        path = tmp_path / "p.rpb"
        save_policy_binary(trained, path)
        array_server = DecisionServer(
            load_policy_binary(path), UserDefinedPolicy(default_catalog())
        )
        decisions = array_server.decide_batch([S0, UNKNOWN, S1])
        assert [d.action for d in decisions] == ["REIMAGE", "TRYNOP", "RMA"]


class TestPublish:
    def test_publish_bumps_version(self, server):
        replacement = TrainedPolicy({S0: ("REBOOT", 60.0)}, label="t2")
        deployed = server.publish(replacement)
        assert isinstance(deployed, PolicyVersion)
        assert deployed.version == 2
        assert server.version == 2
        decision = server.decide(S0)
        assert decision.action == "REBOOT"
        assert decision.version == 2

    def test_old_rules_gone_after_publish(self, server):
        server.publish(TrainedPolicy({S0: ("REBOOT", 60.0)}, label="t2"))
        assert server.decide(S1).fell_back

    def test_fallback_kept_unless_replaced(self, server, trained):
        server.publish(trained)
        assert server.decide(UNKNOWN).action == "TRYNOP"

    def test_decisions_tracked_per_version(self, server, trained):
        server.decide(S0)
        server.publish(trained)
        server.decide(S0)
        server.decide(S0)
        assert server.decisions_by_version() == {1: 1, 2: 2}


class TestRetrainerHook:
    def test_retrain_publishes_to_server(self, server, small_processes):
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        server.attach_retrainer(retrainer)
        before = server.version
        for process in small_processes:
            retrainer.observe(process)
        assert retrainer.retrain_count > 0
        assert server.version == before + retrainer.retrain_count

    def test_hybrid_publication_unbundled(self, server, small_processes):
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        server.attach_retrainer(retrainer)
        for process in small_processes:
            retrainer.observe(process)
        # The served primary is the trained policy, not the hybrid —
        # fallback routing (and its stats) stay with the server.
        snapshot = server.snapshot()
        assert snapshot.primary.name != "hybrid"
        assert server.decide(UNKNOWN).fell_back


class _ReadHook(Policy):
    """``inner`` with ``hook()`` called at the start of every read.

    The server reads its primary once per batch (``decide_batch``) and
    its fallback once per degraded state (``decide``), so the hook marks
    exact points inside an in-flight batch.
    """

    def __init__(self, inner, hook):
        self._inner = inner
        self._hook = hook

    @property
    def name(self):
        return self._inner.name

    def decide(self, state):
        self._hook()
        return self._inner.decide(state)

    def decide_batch(self, states):
        self._hook()
        return self._inner.decide_batch(states)


class TestHotReloadRace:
    def test_no_torn_batches_under_concurrent_publish(self, trained):
        """Readers must never see two generations inside one batch.

        A writer thread publishes exactly when a read hook asks it to:
        at every read of an in-flight batch, the reading thread hands
        the writer one publish and waits until it is deployed.  The
        interleaving is therefore the same on every run, and every
        batch but the last overlaps publishes.
        """
        requests: "queue.Queue[None]" = queue.Queue()
        deployed: "queue.Queue[None]" = queue.Queue()
        remaining = [300]

        def hook():
            if remaining[0]:
                remaining[0] -= 1
                requests.put(None)
                deployed.get(timeout=30)

        alternates = [
            _ReadHook(TrainedPolicy({S0: ("REIMAGE", 7200.0)}, label="a"), hook),
            _ReadHook(TrainedPolicy({S0: ("REBOOT", 60.0)}, label="b"), hook),
        ]
        server = DecisionServer(
            _ReadHook(trained, hook),
            _ReadHook(UserDefinedPolicy(default_catalog()), hook),
        )

        def writer():
            for i in range(300):
                requests.get(timeout=30)
                server.publish(alternates[i % 2])
                deployed.put(None)

        publisher = threading.Thread(target=writer)
        publisher.start()
        states = [S0, UNKNOWN, S1] * 20
        torn = []
        versions_seen = set()
        overlapped = 0
        while True:
            pending = remaining[0]
            decisions = server.decide_batch(states)
            batch_versions = {d.version for d in decisions}
            versions_seen.update(batch_versions)
            if len(batch_versions) != 1:
                torn.append(batch_versions)
            overlapped += server.version > min(batch_versions)
            if not pending:
                break
        publisher.join(timeout=30)

        assert not publisher.is_alive()
        assert torn == []
        assert overlapped > 1
        assert len(versions_seen) > 1
        assert server.version == 301

    def test_batch_consistent_with_its_version(self, trained):
        """A batch's answers must all come from the generation it reports."""
        server = DecisionServer(
            trained, UserDefinedPolicy(default_catalog())
        )
        by_label = {
            "a": TrainedPolicy({S0: ("REIMAGE", 1.0)}, label="a"),
            "b": TrainedPolicy({S0: ("REBOOT", 2.0)}, label="b"),
        }
        expected_action = {"a": "REIMAGE", "b": "REBOOT"}
        version_label = {1: "a"}
        server.publish(by_label["a"])
        version_label[2] = "a"
        stop = threading.Event()
        errors = []

        def writer():
            labels = ["a", "b"]
            for i in range(200):
                label = labels[i % 2]
                deployed = server.publish(by_label[label])
                version_label[deployed.version] = label

        def reader():
            while not stop.is_set():
                decisions = server.decide_batch([S0] * 32)
                version = decisions[0].version
                label = version_label.get(version)
                if label is None:
                    continue  # mapping not yet recorded by the writer
                want = expected_action[label]
                if any(d.action != want for d in decisions):
                    errors.append((version, label))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        publisher = threading.Thread(target=writer)
        publisher.start()
        publisher.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


class TestServedDecision:
    def test_immutable(self, server):
        decision = server.decide(S0)
        assert isinstance(decision, ServedDecision)
        with pytest.raises(AttributeError):
            decision.action = "RMA"


class TestErrorTypeStats:
    def test_hits_fallbacks_and_unknown_classified(self, server):
        server.decide(S0)
        server.decide(S1)
        server.decide(UNKNOWN)
        # Known error type, but a state outside the trained table.
        server.decide(S0.after("REBOOT", False))
        stats = server.error_type_stats()
        assert stats["error:X"] == {
            "hits": 2, "fallbacks": 1, "unknown": 0,
        }
        assert stats["error:never-seen"] == {
            "hits": 0, "fallbacks": 0, "unknown": 1,
        }

    def test_batch_and_scalar_count_identically(self, trained):
        scalar = DecisionServer(trained)
        batch = DecisionServer(trained)
        states = [S0, UNKNOWN, S1, S0.after("REBOOT", False)]
        for state in states:
            scalar.decide(state)
        batch.decide_batch(states)
        assert scalar.error_type_stats() == batch.error_type_stats()

    def test_stats_sorted_by_error_type(self, server):
        server.decide(UNKNOWN)
        server.decide(S0)
        assert list(server.error_type_stats()) == [
            "error:X", "error:never-seen",
        ]

    def test_empty_before_any_decision(self, server):
        assert server.error_type_stats() == {}

    def test_unknown_tracked_across_publish(self, server, trained):
        server.decide(UNKNOWN)
        server.publish(
            TrainedPolicy(
                {UNKNOWN: ("REBOOT", 100.0)}, label="t2",
            )
        )
        decision = server.decide(UNKNOWN)
        assert not decision.fell_back
        stats = server.error_type_stats()
        assert stats["error:never-seen"] == {
            "hits": 1, "fallbacks": 0, "unknown": 1,
        }

    def test_primary_without_error_types_counts_fallbacks(self):
        # A primary that does not expose error_types() cannot separate
        # unknown types from unanswered states: everything that misses
        # is a plain fallback.
        class Opaque:
            name = "opaque"

            def decide(self, state):
                from repro.errors import UnhandledStateError
                raise UnhandledStateError(state)

            def decide_batch(self, states):
                from repro.errors import UnhandledStateError
                return [UnhandledStateError(s) for s in states]

        server = DecisionServer(
            Opaque(), UserDefinedPolicy(default_catalog())
        )
        server.decide(S0)
        assert server.error_type_stats()["error:X"] == {
            "hits": 0, "fallbacks": 1, "unknown": 0,
        }
