"""Tests for the versioned binary policy container (zero-copy serving).

The load-bearing property: a binary round trip must be *decision
equivalent* to the JSON reference — same action, same expected cost,
and the same ``UnhandledStateError`` on every state the trained table
does not cover.  A hypothesis property drives that over arbitrary rule
tables; the unit tests cover the container plumbing (magic, version,
corruption, alignment, mmap).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    LogFormatError,
    PolicyFormatError,
    UnhandledStateError,
)
from repro.mdp.state import RecoveryState
from repro.policies.binary import (
    ArrayTrainedPolicy,
    load_policy_binary,
    save_policy_binary,
)
from repro.policies.serialization import load_policy, save_policy
from repro.policies.trained import TrainedPolicy

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]


@pytest.fixture
def policy():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="night-shift",
    )


class TestBinaryRoundTrip:
    def test_round_trip_preserves_rules(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        count = save_policy_binary(policy, path)
        assert count == 2
        loaded = load_policy_binary(path)
        assert isinstance(loaded, ArrayTrainedPolicy)
        assert len(loaded) == 2
        assert loaded.to_trained().rules == policy.rules
        assert loaded.name == "night-shift"

    def test_decisions_match_original(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        for state in (S0, S1):
            ours = loaded.decide(state)
            reference = policy.decide(state)
            assert ours.action == reference.action
            assert ours.expected_cost == reference.expected_cost

    def test_unknown_state_raises_like_trained(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        stranger = RecoveryState.initial("error:Y")
        with pytest.raises(UnhandledStateError, match="no trained rule"):
            loaded.decide(stranger)

    def test_terminal_state_rejected(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        with pytest.raises(ConfigurationError, match="terminal"):
            loaded.decide(S0.after("REIMAGE", True))

    def test_mmap_and_eager_agree(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        mapped = load_policy_binary(path, mmap=True)
        eager = load_policy_binary(path, mmap=False)
        assert mapped.to_trained().rules == eager.to_trained().rules

    def test_verify_checksum_accepts_good_file(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path, verify=True)
        assert len(loaded) == 2

    def test_empty_policy_round_trips(self, tmp_path):
        path = tmp_path / "empty.rpb"
        save_policy_binary(TrainedPolicy({}), path)
        loaded = load_policy_binary(path)
        assert len(loaded) == 0
        with pytest.raises(UnhandledStateError):
            loaded.decide(S0)


class TestContainerFormat:
    def test_magic_leads_the_file(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        assert path.read_bytes()[:8] == b"RPROPOLB"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(LogFormatError, match="magic"):
            load_policy_binary(path)

    def test_truncated_file_rejected(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        truncated = tmp_path / "trunc.rpb"
        truncated.write_bytes(path.read_bytes()[:40])
        with pytest.raises(LogFormatError):
            load_policy_binary(truncated)

    @pytest.mark.parametrize("byte", range(12, 20))
    def test_corrupt_header_length_is_a_format_error(self, tmp_path, byte):
        """Bytes 12-19 hold the header length; flipping bit 6 of any of
        them must raise a typed error naming the file, never reading or
        allocating past the end of it."""
        path = tmp_path / "one-rule.rpb"
        save_policy_binary(TrainedPolicy({S0: ("REIMAGE", 7200.0)}), path)
        blob = bytearray(path.read_bytes())
        blob[byte] ^= 1 << 6
        path.write_bytes(bytes(blob))
        header_len = int.from_bytes(blob[12:20], "little")
        past_end = header_len > len(blob) - 20
        with pytest.raises(
            LogFormatError, match="header_len" if past_end else "bad header"
        ) as info:
            load_policy_binary(path)
        assert str(path) in str(info.value)
        if past_end:
            assert str(header_len) in str(info.value)

    def test_corrupt_payload_fails_verification(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a bit inside the cost array
        path.write_bytes(bytes(blob))
        with pytest.raises(LogFormatError, match="checksum"):
            load_policy_binary(path, verify=True)

    def test_arrays_are_aligned(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        header = json.loads(
            path.read_bytes()[20 : 20 + int.from_bytes(
                path.read_bytes()[12:20], "little"
            )].decode("utf-8")
        )
        for spec in header["arrays"].values():
            assert spec["offset"] % 64 == 0
        assert len(loaded) == 2

    def test_source_path_recorded(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        assert loaded.source_path == path


def _rewrite_column(path, name, edit):
    """Apply ``edit`` to a copy of one array of a saved container and
    write it back in place; the header (and its CRC) stays as saved."""
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[12:20], "little")
    header = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
    origin = (20 + header_len + 63) // 64 * 64
    spec = header["arrays"][name]
    dtype = np.dtype(spec["dtype"])
    start = origin + spec["offset"]
    stop = start + dtype.itemsize * spec["shape"][0]
    column = np.frombuffer(bytes(blob[start:stop]), dtype=dtype).copy()
    edit(column)
    blob[start:stop] = column.tobytes()
    path.write_bytes(bytes(blob))


def _edit_header(path, edit):
    """Apply ``edit`` to the parsed header of a saved container and write
    it back padded to its old length, so the data origin stays where the
    directory says."""
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[12:20], "little")
    header = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
    edit(header)
    edited = json.dumps(header).encode("utf-8").ljust(header_len)
    assert len(edited) == header_len
    blob[20 : 20 + header_len] = edited
    path.write_bytes(bytes(blob))


class TestColumnChecks:
    """Corrupt columns fail at load with a typed error naming file and
    field, instead of misrouting lookups or indexing out of range."""

    @pytest.fixture(params=[True, False], ids=["mmap", "read"])
    def mmap(self, request):
        return request.param

    def _three_rules(self, tmp_path):
        path = tmp_path / "three.rpb"
        save_policy_binary(
            TrainedPolicy(
                {
                    S0: ("REIMAGE", 7200.0),
                    S1: ("RMA", 172800.0),
                    RecoveryState.initial("error:Y"): ("TRYNOP", 60.0),
                }
            ),
            path,
        )
        return path

    def test_unsorted_keys_rejected(self, tmp_path, mmap):
        path = self._three_rules(tmp_path)

        def swap(keys):
            keys[[0, 1]] = keys[[1, 0]]

        _rewrite_column(path, "keys", swap)
        with pytest.raises(PolicyFormatError, match="keys") as info:
            load_policy_binary(path, mmap=mmap)
        assert str(path) in str(info.value)
        assert "row 1" in str(info.value)

    def test_duplicate_keys_rejected(self, tmp_path, mmap):
        path = self._three_rules(tmp_path)

        def duplicate(keys):
            keys[2] = keys[1]

        _rewrite_column(path, "keys", duplicate)
        with pytest.raises(PolicyFormatError, match="not strictly increasing"):
            load_policy_binary(path, mmap=mmap)

    def test_action_id_outside_vocabulary_rejected(self, tmp_path, mmap):
        path = self._three_rules(tmp_path)

        def corrupt(actions):
            actions[2] = 3  # three decided actions: ids 0..2

        _rewrite_column(path, "actions", corrupt)
        with pytest.raises(PolicyFormatError, match="actions") as info:
            load_policy_binary(path, mmap=mmap)
        assert str(path) in str(info.value)
        assert "id 3 at row 2" in str(info.value)

    def test_column_shape_mismatch_rejected(self, tmp_path):
        path = self._three_rules(tmp_path)

        def shrink(header):
            header["arrays"]["costs"]["shape"] = [2]

        _edit_header(path, shrink)
        with pytest.raises(PolicyFormatError, match="costs"):
            load_policy_binary(path)

    @pytest.mark.parametrize(
        "name, dtype",
        [("keys", "<f8"), ("keys", ">u8"), ("actions", "<i4"), ("costs", "<i8")],
    )
    def test_column_dtype_other_than_saved_rejected(
        self, tmp_path, mmap, name, dtype
    ):
        """Same item size, so only the dtype check stands between the
        header and a signed action id or a NaN key."""
        path = self._three_rules(tmp_path)

        def retype(header):
            header["arrays"][name]["dtype"] = dtype

        _edit_header(path, retype)
        with pytest.raises(PolicyFormatError, match=f"{name}: dtype") as info:
            load_policy_binary(path, mmap=mmap)
        assert str(path) in str(info.value)

    def test_policy_format_error_is_a_log_format_error(self, tmp_path):
        """Handlers written for the old error type keep catching it."""
        path = tmp_path / "bad.rpb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(LogFormatError):
            load_policy_binary(path)
        with pytest.raises(PolicyFormatError):
            load_policy_binary(path)


# ---------------------------------------------------------------------------
# Hypothesis: binary and JSON serve identical decisions, state for state
# ---------------------------------------------------------------------------

_ERROR_TYPES = st.sampled_from(
    ["error:A", "error:B", "error:Watchdog", "error:Disk-Full"]
)
_HISTORIES = st.lists(st.sampled_from(ACTIONS), min_size=0, max_size=5)
_COSTS = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)


def _state(error_type, history):
    state = RecoveryState.initial(error_type)
    for action in history:
        state = state.after(action, False)
    return state


@st.composite
def _rule_tables(draw):
    entries = draw(
        st.lists(
            st.tuples(
                _ERROR_TYPES,
                _HISTORIES,
                st.sampled_from(ACTIONS),
                _COSTS,
            ),
            min_size=0,
            max_size=30,
        )
    )
    rules = {}
    for error_type, history, action, cost in entries:
        rules[_state(error_type, history)] = (action, cost)
    return TrainedPolicy(rules, label="prop")


@st.composite
def _probe_states(draw):
    error_type = draw(
        st.one_of(_ERROR_TYPES, st.just("error:never-trained"))
    )
    history = draw(st.lists(st.sampled_from(ACTIONS), max_size=7))
    return _state(error_type, history)


class TestBinaryJsonEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        table=_rule_tables(),
        probes=st.lists(_probe_states(), max_size=20),
    )
    def test_same_decision_on_every_state(self, tmp_path_factory, table, probes):
        tmp = tmp_path_factory.mktemp("binprop")
        json_path = tmp / "p.json"
        bin_path = tmp / "p.rpb"
        save_policy(table, json_path)
        save_policy_binary(table, bin_path)
        reference = load_policy(json_path)
        binary = load_policy_binary(bin_path)

        # Every trained rule, plus arbitrary probes (known and unknown).
        for state in list(table.rules) + probes:
            try:
                expected = reference.decide(state)
            except UnhandledStateError:
                with pytest.raises(UnhandledStateError):
                    binary.decide(state)
                continue
            got = binary.decide(state)
            assert got.action == expected.action
            assert got.expected_cost == expected.expected_cost

    @settings(max_examples=30, deadline=None)
    @given(table=_rule_tables(), probes=st.lists(_probe_states(), max_size=16))
    def test_batch_agrees_with_scalar(self, tmp_path_factory, table, probes):
        tmp = tmp_path_factory.mktemp("binbatch")
        bin_path = tmp / "p.rpb"
        save_policy_binary(table, bin_path)
        binary = load_policy_binary(bin_path)
        states = list(table.rules) + probes
        batched = binary.decide_batch(states)
        assert len(batched) == len(states)
        for state, outcome in zip(states, batched):
            try:
                scalar = binary.decide(state)
            except UnhandledStateError:
                assert isinstance(outcome, UnhandledStateError)
                continue
            assert not isinstance(outcome, UnhandledStateError)
            assert outcome.action == scalar.action
            assert outcome.expected_cost == scalar.expected_cost

    @settings(max_examples=30, deadline=None)
    @given(table=_rule_tables())
    def test_round_trip_rules_exact(self, tmp_path_factory, table):
        tmp = tmp_path_factory.mktemp("binrt")
        bin_path = tmp / "p.rpb"
        save_policy_binary(table, bin_path)
        loaded = load_policy_binary(bin_path)
        assert loaded.to_trained().rules == table.rules


class TestArrayPolicyExtras:
    def test_state_at_decodes_every_row(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        decoded = {loaded.state_at(i) for i in range(len(loaded))}
        assert decoded == set(policy.rules)

    def test_error_types_sorted(self, tmp_path):
        rules = {
            RecoveryState.initial("error:Z"): ("REBOOT", 1.0),
            RecoveryState.initial("error:A"): ("TRYNOP", 2.0),
        }
        path = tmp_path / "p.rpb"
        save_policy_binary(TrainedPolicy(rules), path)
        loaded = load_policy_binary(path)
        assert loaded.error_types() == ("error:A", "error:Z")

    def test_handles_and_expected_cost(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        assert loaded.handles(S0)
        assert not loaded.handles(RecoveryState.initial("error:Y"))
        assert loaded.expected_cost(S0) == pytest.approx(7200.0)
        assert loaded.expected_cost(RecoveryState.initial("error:Y")) is None

    def test_costs_preserved_bit_exact(self, tmp_path):
        # float64 payloads must survive exactly, not via repr rounding.
        cost = 0.1 + 0.2  # famously not 0.3
        rules = {S0: ("REBOOT", cost)}
        path = tmp_path / "p.rpb"
        save_policy_binary(TrainedPolicy(rules), path)
        loaded = load_policy_binary(path)
        assert loaded.expected_cost(S0) == cost
        assert np.float64(loaded.expected_cost(S0)) == np.float64(cost)
