"""The driver that runs recovery sessions to completion.

:func:`drive_batch` couples one session per synchronous
:class:`~repro.session.environment.Environment` and advances them in
lockstep *waves*: each wave decides every open session with one
:func:`~repro.session.core.decide_wave` call — the ``N``-cap first, the
rest pooled into a single
:meth:`~repro.policies.base.Policy.decide_batch` — then executes each
decision in its environment.  Driving one environment is
``drive_batch([environment])``.

Because policies are stateless functions of the recovery state, a
deterministic policy produces bit-identical per-session episodes however
the sessions are grouped into waves; only the *interleaving* of decide
calls differs.  Policies whose decisions consume internal RNG state
declare ``batch_safe = False`` and are driven as batches of one, in
input order, so their draw order is that of sequential episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.policies.base import Policy
from repro.session.core import RecoverySession, decide_wave
from repro.session.environment import Environment
from repro.session.trace import EpisodeTelemetry, EpisodeTrace

__all__ = ["EpisodeOutcome", "drive_batch"]


@dataclass(frozen=True)
class EpisodeOutcome:
    """The result of running one recovery session to completion.

    Attributes
    ----------
    handled:
        False when the policy met a state it had no rule for and the
        session aborted mid-episode.
    cost:
        Initial cost plus step costs, accumulated in execution order
        (meaningless when ``handled`` is False).
    actions:
        The executed action sequence.
    forced_manual:
        Whether the ``N``-action cap forced the manual repair.
    trace:
        The structured per-step episode trace.
    """

    handled: bool
    cost: float
    actions: Tuple[str, ...]
    forced_manual: bool
    trace: EpisodeTrace


def _run_waves(
    environments: Sequence[Environment], policy: Policy, origin: str
) -> List[RecoverySession]:
    sessions = [
        RecoverySession(
            environment.error_type,
            policy,
            max_actions=environment.max_actions,
            forced_action_name=environment.forced_action_name,
            origin=origin,
            initial_cost=environment.initial_cost(),
        )
        for environment in environments
    ]
    active = list(zip(sessions, environments))
    while active:
        decisions = decide_wave(
            policy,
            [session.state for session, _environment in active],
            [session.forced_action() for session, _environment in active],
        )
        still_active = []
        for (session, environment), decision in zip(active, decisions):
            if session.adopt(decision) is None:
                continue
            result = environment.execute(session.state, decision.action)
            session.record_outcome(
                result.cost, result.succeeded, matched_log=result.matched_log
            )
            if not session.done:
                still_active.append((session, environment))
        active = still_active
    return sessions


def drive_batch(
    environments: Sequence[Environment],
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> List[EpisodeOutcome]:
    """Run one session per environment until every episode ends.

    An :class:`~repro.errors.UnhandledStateError` from the policy ends
    that session's episode with ``handled=False`` (the paper's unhandled
    cases) without sinking the rest of the wave; the actions executed up
    to that point are preserved in its outcome.

    Outcomes are returned in input order; telemetry fires once per
    episode, also in input order, after every session finished.
    """
    if policy.batch_safe:
        sessions = _run_waves(environments, policy, origin)
    else:
        sessions = [
            session
            for environment in environments
            for session in _run_waves((environment,), policy, origin)
        ]
    outcomes = []
    for session in sessions:
        trace = session.trace()
        if telemetry is not None:
            telemetry.on_episode(trace)
        outcomes.append(
            EpisodeOutcome(
                handled=session.handled,
                cost=session.total_cost,
                actions=session.actions,
                forced_manual=session.forced_manual,
                trace=trace,
            )
        )
    return outcomes
