"""The simulation platform: counterfactual replay of recovery processes.

:meth:`SimulationPlatform.step` answers "what happens if action ``a`` is
executed in state ``s`` while replaying process ``p``": success is decided
by the required-action hypotheses
(:mod:`repro.simplatform.hypotheses`), and the time cost is the actual
logged duration when the proposal matches the log at that position, or the
learned average otherwise.  The step is decided on the platform's
integer-indexed :class:`CompiledReplay` view, the same step the training
loop and the selection tree run.  :meth:`replay_many` drives a policy
through processes in waves over that view, enforcing the paper's
``N``-action cap by forcing the manual repair on the final slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.actions.action import ActionCatalog
from repro.errors import (
    ConfigurationError,
    SimulationError,
    UnhandledStateError,
    UnknownActionError,
)
from repro.mdp.state import RecoveryState, StateIndex
from repro.policies.base import Policy
from repro.recoverylog.process import RecoveryProcess
from repro.session.core import decide_wave
from repro.session.core import forced_action as cap_forced_action
from repro.session.trace import EpisodeTelemetry, EpisodeTrace, StepTrace
from repro.simplatform.coststats import CostStatistics
from repro.simplatform.hypotheses import required_strengths

__all__ = [
    "CostMode",
    "StepOutcome",
    "ReplayResult",
    "CompiledReplay",
    "SimulationPlatform",
]


class CostMode(enum.Enum):
    """How step costs are charged.

    ``ACTUAL_WHEN_MATCHING``
        Use the logged duration whenever the proposed action matches the
        logged action at the same attempt position (and the outcome
        matches); otherwise use averages.  Low-variance, used for policy
        evaluation.
    ``AVERAGES_ONLY``
        Always use per-(type, action) average durations.  Used by the
        Figure 7 platform validation, where the interesting question is
        whether average-based costing reproduces real downtime.
    """

    ACTUAL_WHEN_MATCHING = "actual-when-matching"
    AVERAGES_ONLY = "averages-only"


@dataclass(frozen=True)
class StepOutcome:
    """Result of executing one action during replay.

    Attributes
    ----------
    cost:
        Seconds charged for the attempt (execution plus observation).
    next_state:
        The successor recovery state.
    succeeded:
        Whether the action cured the process.
    matched_log:
        Whether the proposal coincided with the logged action at this
        position (and thus was charged its actual duration in
        ``ACTUAL_WHEN_MATCHING`` mode).
    """

    cost: float
    next_state: RecoveryState
    succeeded: bool
    matched_log: bool


@dataclass(frozen=True)
class ReplayResult:
    """Result of replaying a whole process under a policy.

    Attributes
    ----------
    handled:
        False when the policy raised
        :class:`~repro.errors.UnhandledStateError` mid-replay (the
        paper's unhandled cases, excluded from Figure 9's totals and
        counted against Figure 10's coverage).
    cost:
        Estimated downtime of the replayed recovery (initial delay plus
        attempt costs); meaningless when ``handled`` is False.
    actions:
        The action sequence the policy executed.
    real_cost:
        The process's actual logged downtime, for relative-cost ratios.
    forced_manual:
        Whether the ``N``-action cap forced the final manual repair.
    """

    handled: bool
    cost: float
    actions: Tuple[str, ...]
    real_cost: float
    forced_manual: bool = False


@dataclass(frozen=True)
class CompiledReplay:
    """Integer-indexed view of a platform's processes for fast replay.

    Everything a replay step consults — required strengths, the logged
    attempt at each position, average costs — precomputed into plain
    lists indexed by process index and action id (catalog position,
    which equals strength rank since the catalog orders actions by
    ascending strength).  :meth:`step` then decides success and cost
    with integer compares only, for :meth:`SimulationPlatform.step`,
    replay and the selection tree; ``QLearningTrainer._sweep`` inlines
    a copy, held to the reference oracle by ``test_training_kernel``:

    * hypothesis 2 (each required occurrence matched by a distinct
      executed action at least as strong:
      :func:`~repro.simplatform.hypotheses.covers` over strength
      multisets) is equivalent to cumulative rank-count dominance (for
      every rank ``r``, the number of executed actions of rank >= r must
      reach ``required_ge[pidx][r]``), because the catalog's id order is
      a strictly monotone image of its strength order;
    * costs are the ``CostStatistics`` values, read from a per-type row
      instead of recomputed per call.

    Attributes
    ----------
    actions:
        Catalog action names; positions are action ids.
    actual_mode:
        Whether matching attempts are charged their logged duration
        (``CostMode.ACTUAL_WHEN_MATCHING``).
    required_ge:
        Per process: ``required_ge[r]`` counts required occurrences of
        rank >= r, or ``None`` when the process references an action
        outside the catalog (the error then surfaces on first use).
    attempt_aids:
        Per process, per attempt position: the logged action id, or -1
        when the logged action is not in the catalog (matches nothing).
    attempt_succeeded / attempt_durations:
        Per process, per attempt position: the logged outcome/duration.
    success_cost / failure_cost:
        Per process, per action id: the average-cost fallbacks for the
        process's error type (rows shared between same-type processes).
    """

    actions: Tuple[str, ...]
    actual_mode: bool
    required_ge: Tuple[Optional[Tuple[int, ...]], ...]
    attempt_aids: Tuple[Tuple[int, ...], ...]
    attempt_succeeded: Tuple[Tuple[bool, ...], ...]
    attempt_durations: Tuple[Tuple[float, ...], ...]
    success_cost: Tuple[Tuple[float, ...], ...]
    failure_cost: Tuple[Tuple[float, ...], ...]

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def step(
        self, pidx: int, depth: int, aid: int, executed: List[int]
    ) -> Tuple[float, bool]:
        """Execute action ``aid`` at attempt ``depth`` of process ``pidx``.

        ``executed`` counts the actions run so far by id and is updated
        in place; the process's ``required_ge`` must not be ``None``.
        Returns ``(cost, succeeded)``.
        """
        executed[aid] += 1
        required_ge = self.required_ge[pidx]
        running = 0
        succeeded = True
        for rank in range(len(executed) - 1, -1, -1):
            running += executed[rank]
            if running < required_ge[rank]:
                succeeded = False
                break
        logged = self.attempt_aids[pidx]
        if (
            self.actual_mode
            and depth < len(logged)
            and logged[depth] == aid
            and self.attempt_succeeded[pidx][depth] == succeeded
        ):
            return self.attempt_durations[pidx][depth], succeeded
        if succeeded:
            return self.success_cost[pidx][aid], True
        return self.failure_cost[pidx][aid], False

    def matched_log(
        self, pidx: int, depth: int, aid: int, succeeded: bool
    ) -> bool:
        """Whether process ``pidx`` logged ``aid`` at attempt ``depth``
        with the outcome ``succeeded``."""
        logged = self.attempt_aids[pidx]
        return (
            depth < len(logged)
            and logged[depth] == aid
            and self.attempt_succeeded[pidx][depth] == succeeded
        )


class SimulationPlatform:
    """Counterfactual replay over an ensemble of recovery processes.

    Parameters
    ----------
    processes:
        The processes available for replay (typically a train or test
        split).
    catalog:
        Repair-action catalog.
    stats:
        Cost statistics; defaults to statistics over ``processes``.
        Pass statistics built from a larger log when available.
    cost_mode:
        See :class:`CostMode`.
    last_action_only:
        Ablation: use the naive required-action rule (see
        :func:`repro.simplatform.hypotheses.required_actions`).
    max_actions:
        The paper's ``N`` = 20 cap per recovery process.
    """

    def __init__(
        self,
        processes: Sequence[RecoveryProcess],
        catalog: ActionCatalog,
        stats: Optional[CostStatistics] = None,
        *,
        cost_mode: CostMode = CostMode.ACTUAL_WHEN_MATCHING,
        last_action_only: bool = False,
        max_actions: int = 20,
    ) -> None:
        if max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {max_actions}"
            )
        self._processes = tuple(processes)
        self._catalog = catalog
        self._stats = (
            stats
            if stats is not None
            else CostStatistics.from_processes(processes, catalog)
        )
        self._cost_mode = cost_mode
        self._last_action_only = last_action_only
        self._max_actions = max_actions
        self._action_ids = {
            name: aid for aid, name in enumerate(catalog.names())
        }
        self._compiled: Optional[CompiledReplay] = None
        self._process_index: Optional[Dict[RecoveryProcess, int]] = None
        self._forced_name = self._catalog.strongest.name

    # ------------------------------------------------------------------
    @property
    def processes(self) -> Tuple[RecoveryProcess, ...]:
        return self._processes

    @property
    def catalog(self) -> ActionCatalog:
        return self._catalog

    @property
    def stats(self) -> CostStatistics:
        return self._stats

    @property
    def max_actions(self) -> int:
        return self._max_actions

    @property
    def forced_action_name(self) -> str:
        """The manual repair the ``N``-cap forces on the final slot."""
        return self._forced_name

    # ------------------------------------------------------------------
    def forced_action(self, attempt_count: int) -> Optional[str]:
        """The action the ``N``-cap forces after ``attempt_count`` tries.

        Delegates to the session core's
        :func:`~repro.session.core.forced_action`, the single source of
        the cap rule; kept as a method because ``replay_many`` and the
        selection tree ask the platform directly.
        """
        return cap_forced_action(
            attempt_count, self._max_actions, self._forced_name
        )

    def compiled(self) -> CompiledReplay:
        """The integer-indexed replay view of this platform's processes.

        Built once, on first use (training platforms pay; evaluation
        platforms that never ask don't), and immutable thereafter —
        it is keyed to the platform's own ``processes`` tuple.
        """
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def process_index(self, process: RecoveryProcess) -> int:
        """Index of ``process`` in :attr:`processes` (first value match).

        Raises :class:`SimulationError` for processes outside the
        platform's ensemble; value-equal duplicates share the first
        index, which is sound because the compiled view depends only on
        the process value.
        """
        if self._process_index is None:
            index: Dict[RecoveryProcess, int] = {}
            for position, candidate in enumerate(self._processes):
                index.setdefault(candidate, position)
            self._process_index = index
        position = self._process_index.get(process)
        if position is None:
            raise SimulationError(
                f"process on {process.machine!r} starting at "
                f"{process.start_time} is not part of this platform"
            )
        return position

    def _compile(self) -> CompiledReplay:
        actions = tuple(self._catalog.names())
        n_actions = len(actions)
        rank_of_strength = {
            action.strength: aid
            for aid, action in enumerate(self._catalog.by_strength())
        }
        cost_rows: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        required_ge: List[Optional[Tuple[int, ...]]] = []
        attempt_aids: List[Tuple[int, ...]] = []
        attempt_succeeded: List[Tuple[bool, ...]] = []
        attempt_durations: List[Tuple[float, ...]] = []
        success_cost: List[Tuple[float, ...]] = []
        failure_cost: List[Tuple[float, ...]] = []
        for process in self._processes:
            try:
                required = required_strengths(
                    process,
                    self._catalog,
                    last_action_only=self._last_action_only,
                )
            except UnknownActionError:
                # Raised again when the process is first stepped.
                required_ge.append(None)
            else:
                counts = [0] * n_actions
                for strength in required:
                    counts[rank_of_strength[strength]] += 1
                cumulative = [0] * n_actions
                running = 0
                for rank in range(n_actions - 1, -1, -1):
                    running += counts[rank]
                    cumulative[rank] = running
                required_ge.append(tuple(cumulative))
            attempts = process.attempts
            attempt_aids.append(
                tuple(self._action_ids.get(a.action, -1) for a in attempts)
            )
            attempt_succeeded.append(tuple(a.succeeded for a in attempts))
            attempt_durations.append(tuple(a.duration for a in attempts))
            error_type = process.error_type
            rows = cost_rows.get(error_type)
            if rows is None:
                rows = (
                    tuple(
                        self._stats.success_cost(error_type, name)
                        for name in actions
                    ),
                    tuple(
                        self._stats.failure_cost(error_type, name)
                        for name in actions
                    ),
                )
                cost_rows[error_type] = rows
            success_cost.append(rows[0])
            failure_cost.append(rows[1])
        return CompiledReplay(
            actions=actions,
            actual_mode=self._cost_mode is CostMode.ACTUAL_WHEN_MATCHING,
            required_ge=tuple(required_ge),
            attempt_aids=tuple(attempt_aids),
            attempt_succeeded=tuple(attempt_succeeded),
            attempt_durations=tuple(attempt_durations),
            success_cost=tuple(success_cost),
            failure_cost=tuple(failure_cost),
        )

    def initial_cost(self, process: RecoveryProcess) -> float:
        """Detection segment: first symptom to first repair action."""
        attempts = process.attempts
        if not attempts:
            return process.downtime
        if self._cost_mode is CostMode.ACTUAL_WHEN_MATCHING:
            return attempts[0].start_time - process.start_time
        return self._stats.initial_delay(process.error_type)

    def step(
        self,
        process: RecoveryProcess,
        state: RecoveryState,
        action_name: str,
    ) -> StepOutcome:
        """Execute ``action_name`` in ``state`` while replaying ``process``.

        ``process`` must be one of :attr:`processes`; success and cost
        are decided by :meth:`CompiledReplay.step` on the compiled view.
        """
        if state.is_terminal:
            raise SimulationError(
                f"cannot step from terminal state {state}"
            )
        if state.error_type != process.error_type:
            raise SimulationError(
                f"state error type {state.error_type!r} does not match "
                f"process error type {process.error_type!r}"
            )
        pidx, aid = self._check_step(process, action_name)
        compiled = self.compiled()
        executed = [0] * compiled.n_actions
        for name in state.tried:
            executed[self._action_id(name)] += 1
        depth = state.attempt_count
        cost, succeeded = compiled.step(pidx, depth, aid, executed)
        return StepOutcome(
            cost=cost,
            next_state=state.after(action_name, succeeded),
            succeeded=succeeded,
            matched_log=compiled.matched_log(pidx, depth, aid, succeeded),
        )

    def _check_step(
        self, process: RecoveryProcess, action_name: str
    ) -> Tuple[int, int]:
        """``(process index, action id)``, raising what :meth:`step` does."""
        pidx = self.process_index(process)
        aid = self._action_id(action_name)
        if self.compiled().required_ge[pidx] is None:
            required_strengths(
                process, self._catalog, last_action_only=self._last_action_only
            )
        return pidx, aid

    def _action_id(self, name: str) -> int:
        aid = self._action_ids.get(name)
        if aid is None:
            self._catalog[name]  # raises UnknownActionError
        return aid

    def replay(
        self,
        process: RecoveryProcess,
        policy: Policy,
        *,
        origin: str = "replay",
        telemetry: Optional[EpisodeTelemetry] = None,
    ) -> ReplayResult:
        """Drive ``policy`` through ``process`` until cured or unhandled."""
        return self.replay_many(
            [process], policy, origin=origin, telemetry=telemetry
        )[0]

    def replay_many(
        self,
        processes: Sequence[RecoveryProcess],
        policy: Policy,
        *,
        origin: str = "replay",
        telemetry: Optional[EpisodeTelemetry] = None,
    ) -> List[ReplayResult]:
        """Replay many processes in lockstep waves on the compiled view.

        Each wave is decided by one :func:`~repro.session.core.decide_wave`
        call over the open replays' interned states, so the policy sees
        the ``decide_batch`` calls one session per process would give it;
        each decision runs :meth:`CompiledReplay.step`.  Policies with
        internal RNG (``batch_safe`` False) are driven one process at a
        time.  Results and telemetry follow input order; step traces are
        built only when ``telemetry`` is given.
        """
        compiled = self.compiled()
        index = StateIndex(compiled.actions)
        initial = {  # one interned initial state per error type
            t: index.intern(RecoveryState.initial(t))
            for t in dict.fromkeys(p.error_type for p in processes)
        }
        replays = [_Replay(self, p, initial[p.error_type]) for p in processes]
        # Self-healed records are final: initial cost is the downtime.
        waiting = [r for r in replays if r.process.attempts]
        groups = [waiting] if policy.batch_safe else [[r] for r in waiting]
        for active in groups:
            while active:
                decisions = decide_wave(
                    policy,
                    [index.state(r.sid) for r in active],
                    [self.forced_action(r.depth) for r in active],
                )
                still_active = []
                for replay, decision in zip(active, decisions):
                    if isinstance(decision, UnhandledStateError):
                        replay.handled = False
                        continue
                    aid = self._action_ids.get(decision.action)
                    if replay.depth == 0 or aid is None:
                        replay.pidx, aid = self._check_step(
                            replay.process, decision.action
                        )
                    cost, succeeded = compiled.step(
                        replay.pidx, replay.depth, aid, replay.executed
                    )
                    replay.cost += cost
                    replay.forced = replay.forced or decision.forced
                    if telemetry is not None:
                        replay.steps += (
                            StepTrace(
                                step=replay.depth,
                                attempt_count=replay.depth,
                                action=decision.action,
                                source=decision.source,
                                forced=decision.forced,
                                cost=cost,
                                succeeded=succeeded,
                                matched_log=compiled.matched_log(
                                    replay.pidx, replay.depth, aid, succeeded
                                ),
                                expected_cost=decision.expected_cost,
                            ),
                        )
                    replay.sid = index.successor(replay.sid, aid, succeeded)
                    replay.depth += 1
                    if not succeeded:
                        still_active.append(replay)
                active = still_active
        if telemetry is not None:
            for r in replays:
                telemetry.on_episode(
                    EpisodeTrace(
                        origin=origin,
                        error_type=r.process.error_type,
                        initial_cost=self.initial_cost(r.process),
                        steps=r.steps,
                        handled=r.handled,
                        forced_manual=r.forced,
                    )
                )
        return [
            ReplayResult(
                handled=r.handled,
                cost=r.cost if r.handled else float("nan"),
                actions=index.state(r.sid).tried,
                real_cost=r.process.downtime,
                forced_manual=r.handled and r.forced,
            )
            for r in replays
        ]


class _Replay:
    """One process's replay state in :meth:`SimulationPlatform.replay_many`."""

    __slots__ = (
        "process", "pidx", "sid", "depth", "executed", "cost", "forced",
        "handled", "steps",
    )

    def __init__(
        self, platform: SimulationPlatform, process: RecoveryProcess, sid: int
    ) -> None:
        self.process = process
        self.pidx = -1  # resolved, and the process checked, at its first step
        self.sid = sid
        self.depth = 0
        self.executed = [0] * platform.compiled().n_actions
        self.cost = platform.initial_cost(process)
        self.forced = False
        self.handled = True
        self.steps: Tuple[StepTrace, ...] = ()
