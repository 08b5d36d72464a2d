"""Persistence of trained policies and Q-tables.

A deployed recovery framework trains offline and ships the generated
rules to the online recovery component (Figure 1's dashed arrow), so the
rule tables must round-trip through storage.  Two formats exist:

* the JSON schema here — stable and human-auditable, so operators can
  review exactly which action the policy will take in which state
  before deploying it;
* the zero-copy binary container in :mod:`repro.policies.binary`
  (re-exported below) — what the decision server memory-maps, with
  decisions bit-identical to the JSON-loaded policy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError, LogFormatError, TrainingError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import (
    load_policy_binary,
    save_policy_binary,
)
from repro.policies.trained import TrainedPolicy

__all__ = [
    "save_policy",
    "load_policy",
    "save_policy_binary",
    "load_policy_binary",
    "save_qtable",
    "load_qtable",
    "state_to_record",
    "state_from_record",
    "qtable_to_payload",
    "qtable_from_payload",
]

PathLike = Union[str, Path]

_POLICY_FORMAT = "repro/trained-policy@1"
_QTABLE_FORMAT = "repro/qtable@1"


def state_to_record(state: RecoveryState) -> Dict[str, object]:
    """A (non-terminal) state as a JSON-serializable record."""
    return {
        "error_type": state.error_type,
        "tried": list(state.tried),
    }


def state_from_record(record: Dict[str, object]) -> RecoveryState:
    """Invert :func:`state_to_record`."""
    try:
        return RecoveryState(
            error_type=str(record["error_type"]),
            healthy=False,
            tried=tuple(str(a) for a in record["tried"]),
        )
    except (KeyError, TypeError) as exc:
        raise LogFormatError(f"bad state record {record!r}: {exc}") from None


# Backwards-compatible private aliases.
_state_to_record = state_to_record
_state_from_record = state_from_record


def save_policy(policy: TrainedPolicy, path: PathLike) -> int:
    """Write a trained policy's rules as JSON; returns the rule count."""
    rules = []
    for state, (action, cost) in sorted(
        policy.rules.items(),
        key=lambda item: (item[0].error_type, item[0].tried),
    ):
        record = _state_to_record(state)
        record["action"] = action
        record["expected_cost"] = cost
        rules.append(record)
    payload = {
        "format": _POLICY_FORMAT,
        "label": policy.name,
        "rules": rules,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(rules)


def load_policy(path: PathLike) -> TrainedPolicy:
    """Read a trained policy saved by :func:`save_policy`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path}: bad JSON: {exc}") from None
    if payload.get("format") != _POLICY_FORMAT:
        raise LogFormatError(
            f"{path}: expected format {_POLICY_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    rules: Dict[RecoveryState, Tuple[str, float]] = {}
    for record in payload.get("rules", []):
        state = _state_from_record(record)
        try:
            rules[state] = (
                str(record["action"]),
                float(record["expected_cost"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(
                f"{path}: bad rule record {record!r}: {exc}"
            ) from None
    return TrainedPolicy(rules, label=str(payload.get("label", "trained")))


def qtable_to_payload(qtable: QTable) -> Dict[str, object]:
    """A Q-table (values and visit counts) as a JSON-serializable payload.

    Persisting the visit counts preserves the equation-(6) learning-rate
    schedule, so a restored table can continue training where it left
    off.  Values round-trip exactly (``repr``-faithful floats), which the
    parallel engine's checkpoint/resume equivalence guarantee relies on.
    """
    entries = []
    for state in sorted(
        qtable.states(), key=lambda s: (s.error_type, s.tried)
    ):
        for action in qtable.action_names:
            visits = qtable.visit_count(state, action)
            if visits == 0:
                continue
            record = state_to_record(state)
            record["action"] = action
            record["value"] = qtable.value(state, action)
            record["visits"] = visits
            entries.append(record)
    return {
        "format": _QTABLE_FORMAT,
        "actions": list(qtable.action_names),
        "initial_value": qtable.initial_value,
        "entries": entries,
    }


def qtable_from_payload(
    payload: Dict[str, object],
    *,
    alpha_floor: float = 0.0,
) -> QTable:
    """Invert :func:`qtable_to_payload`.

    ``alpha_floor`` is a training-time knob, not part of the payload,
    and is supplied by the caller.  Every malformed part of the payload
    raises :class:`LogFormatError` naming it.
    """
    if not isinstance(payload, dict):
        raise LogFormatError(
            f"bad Q-table payload {payload!r}: expected a JSON object"
        )
    if payload.get("format") != _QTABLE_FORMAT:
        raise LogFormatError(
            f"expected format {_QTABLE_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    actions = payload.get("actions")
    if (
        not isinstance(actions, list)
        or not actions
        or len(set(map(str, actions))) != len(actions)
    ):
        raise LogFormatError(
            f"bad actions list {actions!r}: expected distinct action names"
        )
    try:
        initial_value = float(payload.get("initial_value", 0.0))
    except (TypeError, ValueError) as exc:
        raise LogFormatError(f"bad initial_value: {exc}") from None
    qtable = QTable(
        [str(a) for a in actions],
        initial_value=initial_value,
        alpha_floor=alpha_floor,
    )
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise LogFormatError(f"bad entries {entries!r}: expected a list")
    for record in entries:
        state = state_from_record(record)
        try:
            qtable.restore(
                state,
                str(record["action"]),
                float(record["value"]),
                int(record["visits"]),
            )
        except (
            KeyError,
            TypeError,
            ValueError,
            ConfigurationError,
            TrainingError,
        ) as exc:
            raise LogFormatError(
                f"bad entry record {record!r}: {exc}"
            ) from None
    return qtable


def save_qtable(qtable: QTable, path: PathLike) -> int:
    """Write a Q-table as JSON; see :func:`qtable_to_payload`.

    Returns the number of (state, action) pairs written.
    """
    payload = qtable_to_payload(qtable)
    entries = payload["entries"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(entries)


def load_qtable(path: PathLike, *, alpha_floor: float = 0.0) -> QTable:
    """Read a Q-table saved by :func:`save_qtable`.

    Values and visit counts are restored exactly; ``alpha_floor`` is a
    training-time knob and is supplied by the caller.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"{path}: bad JSON: {exc}") from None
    try:
        return qtable_from_payload(payload, alpha_floor=alpha_floor)
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from None
