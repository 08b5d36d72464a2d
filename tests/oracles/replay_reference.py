"""Frozen reference replay step: the oracle for ``SimulationPlatform.step``.

The product decides a replay step on the platform's compiled replay view
(integer action ids and cumulative rank-count dominance).  This module
keeps the object-path step it replaced, frozen: success is
:func:`~repro.simplatform.hypotheses.covers` over strength multisets of
the process's required actions and the executed ones, and the cost is
the logged duration when the proposal matches the log at this position
(in ``ACTUAL_WHEN_MATCHING`` mode), else the per-(type, action) average.

Nothing here is tuned for speed.  Do not change its behaviour: it is the
definition the product is measured against.
"""

from __future__ import annotations

from repro.actions.action import ActionCatalog
from repro.errors import SimulationError
from repro.mdp.state import RecoveryState
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.coststats import CostStatistics
from repro.simplatform.hypotheses import covers, required_strengths
from repro.simplatform.platform import CostMode, StepOutcome

__all__ = ["reference_step"]


def reference_step(
    process: RecoveryProcess,
    state: RecoveryState,
    action_name: str,
    *,
    catalog: ActionCatalog,
    stats: CostStatistics,
    cost_mode: CostMode = CostMode.ACTUAL_WHEN_MATCHING,
    last_action_only: bool = False,
) -> StepOutcome:
    """Execute ``action_name`` in ``state`` while replaying ``process``."""
    if state.is_terminal:
        raise SimulationError(f"cannot step from terminal state {state}")
    if state.error_type != process.error_type:
        raise SimulationError(
            f"state error type {state.error_type!r} does not match "
            f"process error type {process.error_type!r}"
        )
    action = catalog[action_name]
    executed = [catalog[name].strength for name in state.tried]
    executed.append(action.strength)
    required = required_strengths(
        process, catalog, last_action_only=last_action_only
    )
    succeeded = covers(required, executed)

    position = state.attempt_count
    attempts = process.attempts
    matched = (
        position < len(attempts)
        and attempts[position].action == action_name
        and attempts[position].succeeded == succeeded
    )
    if matched and cost_mode is CostMode.ACTUAL_WHEN_MATCHING:
        cost = attempts[position].duration
    elif succeeded:
        cost = stats.success_cost(process.error_type, action_name)
    else:
        cost = stats.failure_cost(process.error_type, action_name)
    return StepOutcome(
        cost=cost,
        next_state=state.after(action_name, succeeded),
        succeeded=succeeded,
        matched_log=matched,
    )
