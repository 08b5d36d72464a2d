"""Tests for policy and Q-table persistence."""

import json

import pytest

from repro.errors import LogFormatError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.serialization import (
    load_policy,
    load_qtable,
    qtable_from_payload,
    qtable_to_payload,
    save_policy,
    save_qtable,
    state_from_record,
    state_to_record,
)
from repro.policies.trained import TrainedPolicy

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]


def _set_first_entry(key, value):
    def edit(payload):
        payload["entries"][0][key] = value

    return edit


def _set_entries(value):
    def edit(payload):
        payload["entries"] = value

    return edit


def _replace_first_entry(value):
    def edit(payload):
        payload["entries"][0] = value

    return edit


def _clear_actions(payload):
    payload["actions"] = []


def _garble_initial_value(payload):
    payload["initial_value"] = "zero"


#: JSON values that are not objects, where the Q-table format needs one.
NON_OBJECT_VALUES = [[1, 2], "x", None, 3]

#: Hand edits of a saved Q-table payload that the table itself rejects,
#: with the text the resulting ``LogFormatError`` must name.
MALFORMED_QTABLE_PAYLOADS = [
    ("unknown-entry-action", _set_first_entry("action", "FROB"), "'FROB'"),
    ("empty-actions", _clear_actions, "actions"),
    ("zero-visits", _set_first_entry("visits", 0), "'visits': 0"),
    ("bad-initial-value", _garble_initial_value, "initial_value"),
    ("non-list-entries", _set_entries(3), "entries"),
] + [
    (f"non-object-entry-{json.dumps(value)}", _replace_first_entry(value),
     f"record {value!r}")
    for value in NON_OBJECT_VALUES
]


@pytest.fixture
def policy():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="night-shift",
    )


class TestPolicyRoundTrip:
    def test_round_trip_preserves_rules(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        count = save_policy(policy, path)
        assert count == 2
        loaded = load_policy(path)
        assert loaded.rules == policy.rules
        assert loaded.name == "night-shift"

    def test_loaded_policy_decides_identically(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.decide(S0).action == policy.decide(S0).action
        assert loaded.decide(S1).expected_cost == pytest.approx(172800.0)

    def test_file_is_human_auditable(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        assert payload["format"].startswith("repro/trained-policy")
        assert payload["rules"][0]["error_type"] == "error:X"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "rules": []}')
        with pytest.raises(LogFormatError, match="format"):
            load_policy(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(LogFormatError, match="JSON"):
            load_policy(path)

    def test_bad_rule_record_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro/trained-policy@1",
                    "rules": [{"error_type": "e", "tried": []}],
                }
            )
        )
        with pytest.raises(LogFormatError, match="bad rule"):
            load_policy(path)


class TestQTableRoundTrip:
    def _table(self):
        table = QTable(ACTIONS)
        table.update(S0, "TRYNOP", 600.0)
        table.update(S0, "TRYNOP", 800.0)
        table.update(S0, "REIMAGE", 7200.0)
        table.update(S1, "RMA", 172800.0)
        return table

    def test_round_trip_values_and_visits(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        count = save_qtable(table, path)
        assert count == 3
        loaded = load_qtable(path)
        assert loaded.value(S0, "TRYNOP") == pytest.approx(700.0)
        assert loaded.visit_count(S0, "TRYNOP") == 2
        assert loaded.value(S1, "RMA") == pytest.approx(172800.0)

    def test_training_resumes_with_correct_alpha(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        save_qtable(table, path)
        loaded = load_qtable(path)
        # Third visit -> alpha = 1/3; average of 600, 800, 900 = 766.67.
        loaded.update(S0, "TRYNOP", 900.0)
        assert loaded.value(S0, "TRYNOP") == pytest.approx(2300.0 / 3)

    def test_greedy_preserved(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        save_qtable(table, path)
        loaded = load_qtable(path)
        assert loaded.greedy_action(S0) == table.greedy_action(S0)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "x", "actions": [], "entries": []}')
        with pytest.raises(LogFormatError, match="format"):
            load_qtable(path)

    @pytest.mark.parametrize(
        "case,edit,named",
        MALFORMED_QTABLE_PAYLOADS,
        ids=[case for case, _edit, _named in MALFORMED_QTABLE_PAYLOADS],
    )
    def test_malformed_payload_names_file_and_entry(
        self, tmp_path, case, edit, named
    ):
        path = tmp_path / "qtable.json"
        save_qtable(self._table(), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(LogFormatError) as caught:
            load_qtable(path)
        message = str(caught.value)
        assert message.startswith(f"{path}: ")
        assert named in message

    @pytest.mark.parametrize("value", NON_OBJECT_VALUES, ids=json.dumps)
    def test_non_object_payload_names_file(self, tmp_path, value):
        path = tmp_path / "qtable.json"
        path.write_text(json.dumps(value))
        with pytest.raises(LogFormatError) as caught:
            load_qtable(path)
        message = str(caught.value)
        assert message.startswith(f"{path}: ")
        assert "payload" in message

    def test_restore_rejects_zero_visits(self):
        from repro.errors import TrainingError

        table = QTable(ACTIONS)
        with pytest.raises(TrainingError):
            table.restore(S0, "TRYNOP", 1.0, visits=0)


class TestEndToEndDeployment:
    def test_trained_pipeline_policy_survives_disk(
        self, tmp_path, small_processes
    ):
        from repro.core import PipelineConfig, RecoveryPolicyLearner
        from repro.evaluation import time_ordered_split
        from repro.learning.qlearning import QLearningConfig
        from repro.learning.selection_tree import SelectionTreeConfig

        train, test = time_ordered_split(small_processes, 0.5)
        learner = RecoveryPolicyLearner(
            config=PipelineConfig(
                top_k_types=3,
                qlearning=QLearningConfig(
                    max_sweeps=80, episodes_per_sweep=16
                ),
                tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
            )
        ).fit(train)
        path = tmp_path / "deployed.json"
        save_policy(learner.trained_policy(), path)
        deployed = load_policy(path)
        evaluator = learner.make_evaluator(test, filter_test_noise=False)
        original = evaluator.evaluate(learner.trained_policy())
        reloaded = evaluator.evaluate(deployed)
        assert reloaded.overall_relative_cost == pytest.approx(
            original.overall_relative_cost
        )


#: State records that must not load: (id, record, the field named).
BAD_STATE_RECORDS = [
    ("tried-string", {"error_type": "error:X", "tried": "REBOOT"}, "tried"),
    ("tried-missing", {"error_type": "error:X"}, "tried"),
    ("tried-non-str", {"error_type": "error:X", "tried": ["REBOOT", 7]},
     "tried"),
    ("tried-object", {"error_type": "error:X", "tried": {"a": 1}}, "tried"),
    ("error-type-null", {"error_type": None, "tried": []}, "error_type"),
    ("error-type-number", {"error_type": 3, "tried": []}, "error_type"),
    ("error-type-list", {"error_type": ["error:X"], "tried": []},
     "error_type"),
    ("error-type-empty", {"error_type": "", "tried": []}, "error_type"),
    ("error-type-missing", {"tried": []}, "error_type"),
]
BAD_STATE_IDS = [case for case, _record, _field in BAD_STATE_RECORDS]


class TestStateRecords:
    """Every state parser rejects mistyped fields instead of coercing."""

    def test_round_trip(self):
        for state in (S0, S1):
            assert state_from_record(state_to_record(state)) == state

    @pytest.mark.parametrize(
        "case,record,field", BAD_STATE_RECORDS, ids=BAD_STATE_IDS
    )
    def test_state_from_record_names_the_field(self, case, record, field):
        with pytest.raises(LogFormatError, match=f"field '{field}'"):
            state_from_record(record)

    @pytest.mark.parametrize("value", NON_OBJECT_VALUES, ids=json.dumps)
    def test_non_object_record_rejected(self, value):
        with pytest.raises(LogFormatError, match="not an object"):
            state_from_record(value)

    @pytest.mark.parametrize(
        "case,record,field", BAD_STATE_RECORDS, ids=BAD_STATE_IDS
    )
    def test_policy_json_rejects(self, tmp_path, policy, case, record, field):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        payload["rules"][0] = dict(
            record, action="REIMAGE", expected_cost=1.0
        )
        path.write_text(json.dumps(payload))
        with pytest.raises(LogFormatError) as caught:
            load_policy(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert f"field '{field}'" in str(caught.value)

    @pytest.mark.parametrize(
        "case,record,field", BAD_STATE_RECORDS, ids=BAD_STATE_IDS
    )
    def test_qtable_payload_rejects(self, tmp_path, case, record, field):
        table = QTable(ACTIONS)
        table.update(S0, "REBOOT", 10.0)
        payload = qtable_to_payload(table)
        payload["entries"][0] = dict(
            record, action="REBOOT", value=10.0, visits=1
        )
        with pytest.raises(LogFormatError, match=f"field '{field}'"):
            qtable_from_payload(payload)

    @pytest.mark.parametrize(
        "case,record,field", BAD_STATE_RECORDS, ids=BAD_STATE_IDS
    )
    def test_checkpoint_with_bad_rule_state_is_stale(
        self, tmp_path, case, record, field
    ):
        from repro.learning.checkpoint import CheckpointStore, TypeCheckpoint
        from repro.learning.qlearning import TypeTrainingResult

        table = QTable(ACTIONS)
        table.update(S0, "REBOOT", 10.0)
        store = CheckpointStore(tmp_path, fingerprint="f")
        path = store.save(
            TypeCheckpoint(
                error_type="error:X",
                training=TypeTrainingResult(
                    error_type="error:X",
                    qtable=table,
                    sweeps_run=1,
                    sweeps_to_convergence=1,
                    converged=True,
                    episodes=1,
                ),
                rules={S0: ("REBOOT", 10.0)},
                expected_cost=10.0,
                candidates_evaluated=1,
                wall_clock=0.0,
            )
        )
        assert store.load("error:X") is not None
        payload = json.loads(path.read_text())
        payload["rules"][0] = dict(record, action="REBOOT", expected_cost=1.0)
        path.write_text(json.dumps(payload))
        # A hand-edited checkpoint is retrained, never misread.
        assert store.load("error:X") is None
