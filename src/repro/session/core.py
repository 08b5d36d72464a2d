"""The recovery-session core: one authoritative episode state machine.

The paper's whole pipeline is a single loop — observe
``(error_type, result, actions-tried)``, ask a policy, apply an action,
observe the outcome, stop at the ``N`` = 20 action cap.  Historically the
repo re-implemented that loop in four places (platform replay, the
evaluator, the cluster simulator's online recovery, the trainer's
episode loop), each enforcing the cap and emitting telemetry slightly
differently.  :class:`RecoverySession` is the one implementation online
recovery runs; training and held-out replay step the platform's
compiled replay view and ask :func:`forced_action` for the cap.

The session is deliberately a *state machine*, not a closed loop:
a decision is adopted (:meth:`RecoverySession.adopt`) and
``record_outcome()`` advances the state.  Every decision comes from
:func:`decide_wave`, the one place in this package that consults a
policy: the synchronous driver (:func:`repro.session.driver.drive_batch`)
and the fleet backend decide whole waves of sessions with it, and the
event-driven cluster simulator decides one session at a time through
:meth:`RecoverySession.next_action` across simulated time (decide now,
observe the outcome when the action's completion event fires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.session.trace import FORCED_SOURCE, EpisodeTrace, StepTrace

__all__ = [
    "forced_action",
    "SessionDecision",
    "decide_wave",
    "RecoverySession",
]


def forced_action(
    attempt_count: int, max_actions: int, forced_name: str
) -> Optional[str]:
    """The action the ``N``-cap forces after ``attempt_count`` tries.

    The paper bounds every recovery at ``max_actions`` actions by forcing
    the manual (strongest) repair on the final slot — the last free
    choice happens at ``attempt_count == max_actions - 2`` and from
    ``max_actions - 1`` on the manual action is mandatory.  Returns
    ``None`` while the policy may still choose.  The training kernel
    (``QLearningTrainer._sweep``) inlines a copy of this test, which
    ``tests/test_training_kernel.py`` holds to the reference oracle.
    """
    if attempt_count >= max_actions - 1:
        return forced_name
    return None


@dataclass(frozen=True)
class SessionDecision:
    """The action a session settled on for the current state.

    Attributes
    ----------
    action:
        The repair action to execute next.
    forced:
        Whether the ``N``-action cap, not the policy, chose it.
    source:
        Decision provenance (the policy's source, or ``"forced:cap"``).
    expected_cost:
        The policy's own remaining-cost estimate, when it had one.
    """

    action: str
    forced: bool
    source: str
    expected_cost: Optional[float] = None


def decide_wave(
    policy: Policy,
    states: Sequence[RecoveryState],
    forced_names: Sequence[Optional[str]],
) -> List[Union[SessionDecision, UnhandledStateError]]:
    """Decide one lockstep wave of states: the cap first, then the policy.

    Entries whose ``N``-cap already forces an action (``forced_names[i]``
    not ``None``) bypass the policy entirely; all remaining states pool
    into **one** :meth:`~repro.policies.base.Policy.decide_batch` call.
    Results come back in input order as :class:`SessionDecision` values,
    or the :class:`~repro.errors.UnhandledStateError` the policy produced
    for that state — returned, not raised, so callers choose between
    aborting one session (the replay driver) and propagating (the live
    cluster backends).
    """
    if len(states) != len(forced_names):
        raise ValueError("states and forced_names must align")
    results: List[Union[SessionDecision, UnhandledStateError, None]] = [
        None
    ] * len(states)
    free_positions: List[int] = []
    free_states: List[RecoveryState] = []
    for position, (state, forced) in enumerate(zip(states, forced_names)):
        if forced is not None:
            results[position] = SessionDecision(
                action=forced, forced=True, source=FORCED_SOURCE
            )
        else:
            free_positions.append(position)
            free_states.append(state)
    if free_states:
        outcomes = policy.decide_batch(free_states)
        for position, outcome in zip(free_positions, outcomes):
            if isinstance(outcome, UnhandledStateError):
                results[position] = outcome
            else:
                results[position] = SessionDecision(
                    action=outcome.action,
                    forced=False,
                    source=outcome.source,
                    expected_cost=outcome.expected_cost,
                )
    return results  # type: ignore[return-value]


class RecoverySession:
    """One recovery episode: state, cap enforcement, cost, trace.

    Parameters
    ----------
    error_type:
        The error type being recovered.
    policy:
        The deciding policy (consulted while the cap permits).
    max_actions:
        The paper's ``N``: the episode is capped at this many actions,
        the last forced to ``forced_action_name``.
    forced_action_name:
        The manual (strongest) repair the cap falls back to.
    origin:
        Label recorded in the episode trace (``"replay"``,
        ``"cluster"``, ...).
    initial_cost:
        Detection-segment seconds charged before the first action.
    """

    def __init__(
        self,
        error_type: str,
        policy: Policy,
        *,
        max_actions: int,
        forced_action_name: str,
        origin: str = "session",
        initial_cost: float = 0.0,
    ) -> None:
        if max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {max_actions}"
            )
        if not forced_action_name:
            raise ConfigurationError("forced_action_name must be non-empty")
        self._policy = policy
        self._max_actions = max_actions
        self._forced_name = forced_action_name
        self._origin = origin
        self._state = RecoveryState.initial(error_type)
        self._total = initial_cost
        self._initial_cost = initial_cost
        self._steps: List[StepTrace] = []
        self._pending: Optional[SessionDecision] = None
        self._forced_manual = False
        self._aborted = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> RecoveryState:
        """The current recovery state."""
        return self._state

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def origin(self) -> str:
        return self._origin

    @property
    def max_actions(self) -> int:
        return self._max_actions

    @property
    def done(self) -> bool:
        """Whether the episode finished (cured or aborted)."""
        return self._aborted or self._state.is_terminal

    @property
    def handled(self) -> bool:
        """False once the policy failed to act and the session aborted."""
        return not self._aborted

    @property
    def forced_manual(self) -> bool:
        """Whether the ``N``-cap forced an action at any point."""
        return self._forced_manual

    @property
    def total_cost(self) -> float:
        """Initial cost plus recorded step costs, in execution order."""
        return self._total

    @property
    def actions(self) -> Tuple[str, ...]:
        """Actions executed so far."""
        return self._state.tried

    # ------------------------------------------------------------------
    def forced_action(self) -> Optional[str]:
        """The cap-forced action for the current state, if any."""
        return forced_action(
            self._state.attempt_count, self._max_actions, self._forced_name
        )

    def next_action(self) -> SessionDecision:
        """Decide and adopt the next action for this one session.

        :func:`decide_wave` over the current state: the cap rule first,
        then the policy.  A policy that cannot act aborts the session
        (``handled`` becomes False) and its
        :class:`~repro.errors.UnhandledStateError` is raised, so callers
        that must not swallow it (the live cluster) still see it.
        """
        self._check_can_decide()
        (decision,) = decide_wave(
            self._policy, (self._state,), (self.forced_action(),)
        )
        if self.adopt(decision) is None:
            raise decision
        return decision

    def adopt(
        self, decision: Union[SessionDecision, UnhandledStateError]
    ) -> Optional[SessionDecision]:
        """Make ``decision``, an entry of :func:`decide_wave`, pending.

        An :class:`~repro.errors.UnhandledStateError` aborts the session
        instead and returns ``None``.
        """
        self._check_can_decide()
        if isinstance(decision, UnhandledStateError):
            self._aborted = True
            return None
        self._pending = decision
        return decision

    def _check_can_decide(self) -> None:
        if self.done:
            raise SimulationError("cannot decide in a finished session")
        if self._pending is not None:
            raise SimulationError(
                "previous decision has no recorded outcome yet"
            )

    def record_outcome(
        self,
        cost: float,
        succeeded: bool,
        *,
        matched_log: Optional[bool] = None,
    ) -> RecoveryState:
        """Observe the executed action's outcome and advance the state.

        Returns the new current state.
        """
        decision = self._pending
        if decision is None:
            raise SimulationError("no pending decision to record against")
        self._pending = None
        if decision.forced:
            self._forced_manual = True
        self._steps.append(
            StepTrace(
                step=len(self._steps),
                attempt_count=self._state.attempt_count,
                action=decision.action,
                source=decision.source,
                forced=decision.forced,
                cost=cost,
                succeeded=succeeded,
                matched_log=matched_log,
                expected_cost=decision.expected_cost,
            )
        )
        self._state = self._state.after(decision.action, succeeded)
        self._total += cost
        return self._state

    def trace(self) -> EpisodeTrace:
        """The episode's structured trace (valid at any point)."""
        return EpisodeTrace(
            origin=self._origin,
            error_type=self._state.error_type,
            initial_cost=self._initial_cost,
            steps=tuple(self._steps),
            handled=self.handled,
            forced_manual=self._forced_manual,
        )
