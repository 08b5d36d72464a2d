"""Frozen reference replay: the oracles for ``SimulationPlatform.step``
and ``SimulationPlatform.replay_many``.

The product decides a replay step on the platform's compiled replay view
(integer action ids and cumulative rank-count dominance).
:func:`reference_step` keeps the object-path step it replaced, frozen:
success is :func:`~repro.simplatform.hypotheses.covers` over strength
multisets of the process's required actions and the executed ones, and
the cost is the logged duration when the proposal matches the log at
this position (in ``ACTUAL_WHEN_MATCHING`` mode), else the per-(type,
action) average.

The product replays whole processes in waves over interned state ids.
:func:`reference_replay_many` keeps the session-driven loop it replaced,
frozen: one :class:`~repro.session.core.RecoverySession` and
:class:`~repro.session.environment.ReplayEnvironment` per process, run
by :func:`~repro.session.driver.drive_batch`, with
:meth:`SimulationPlatform.step` executing each action.

Nothing here is tuned for speed.  Do not change its behaviour: it is the
definition the product is measured against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.actions.action import ActionCatalog
from repro.errors import SimulationError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.recoverylog.process import RecoveryProcess
from repro.session.driver import drive_batch
from repro.session.environment import ReplayEnvironment
from repro.session.trace import EpisodeTelemetry, EpisodeTrace
from repro.simplatform.coststats import CostStatistics
from repro.simplatform.hypotheses import covers, required_strengths
from repro.simplatform.platform import (
    CostMode,
    ReplayResult,
    SimulationPlatform,
    StepOutcome,
)

__all__ = ["reference_step", "reference_replay_many"]


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


def reference_replay_many(
    platform: SimulationPlatform,
    processes: Sequence[RecoveryProcess],
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> List[ReplayResult]:
    """Replay many processes on ``platform`` through the session driver."""
    outcomes = iter(
        drive_batch(
            [ReplayEnvironment(platform, p) for p in processes if p.attempts],
            policy,
            origin=origin,
        )
    )
    results = []
    for process in processes:
        if process.attempts:
            outcome = next(outcomes)
            trace = outcome.trace
            handled = outcome.handled
            results.append(
                ReplayResult(
                    handled=handled,
                    cost=outcome.cost if handled else float("nan"),
                    actions=outcome.actions,
                    real_cost=process.downtime,
                    forced_manual=handled and outcome.forced_manual,
                )
            )
        else:
            # Self-healed: nothing to decide; charge real downtime.
            trace = EpisodeTrace(
                origin=origin,
                error_type=process.error_type,
                initial_cost=process.downtime,
                steps=(),
                handled=True,
                forced_manual=False,
            )
            results.append(
                ReplayResult(
                    handled=True,
                    cost=process.downtime,
                    actions=(),
                    real_cost=process.downtime,
                )
            )
        if telemetry is not None:
            telemetry.on_episode(trace)
    return results
