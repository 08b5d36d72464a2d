"""Frozen reference Q-learning course: the oracle for the product trainer.

The product trains on one id-indexed path: :class:`repro.learning.qtable.QTable`
(flat arrays over interned states) driven by the sweep kernel
``QLearningTrainer._sweep``.  This module keeps the implementation
that path replaced, frozen, so tests and the training-throughput
benchmark can check the product against it bit for bit:

* :class:`QTable` — the dict-of-dict Q-function, with the same
  equation-(6) arithmetic, visited-only greedy and bootstrap values,
  catalog-order tie breaking and a full-rescan convergence check;
* :class:`ReferenceTrainer` — the session-driven course: warm start along
  the logged actions through ``SimulationPlatform.step``, exploration
  episodes through :func:`repro.session.driver.drive_batch`, one
  environment at a time, with an :class:`ExplorationPolicy` deciding each
  step and the transitions rebuilt from the episode trace, reverse-order
  updates, and the sweep/convergence loop.

Nothing here is tuned for speed.  Do not change its behaviour: it is the
definition the product is measured against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TrainingError
from repro.learning.exploration import BoltzmannExplorer, EpsilonGreedyExplorer
from repro.learning.qlearning import QLearningConfig, TypeTrainingResult
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision
from repro.recoverylog.process import RecoveryProcess
from repro.session.driver import drive_batch
from repro.session.environment import ReplayEnvironment
from repro.session.trace import EpisodeTelemetry
from repro.simplatform.platform import SimulationPlatform
from repro.util.rng import derive_seed, make_rng

__all__ = ["QTable", "ExplorationPolicy", "ReferenceTrainer"]

Transition = Tuple[RecoveryState, str, float, RecoveryState]


class QTable:
    """A tabular Q-function over recovery states.

    Parameters
    ----------
    action_names:
        The actions available in every (non-terminal) state.
    initial_value:
        Q value reported for never-visited pairs.  The default of 0 is
        optimistic for cost minimization, which drives exploration toward
        untried actions.
    alpha_floor:
        Lower bound on the learning rate.  The paper's pure
        ``1/(1+visits)`` schedule (``alpha_floor=0``) weights every
        historical target equally, so targets computed from early, badly
        bootstrapped successor values fade only as ``1/n``; a small floor
        turns the tail into an exponential window, letting estimates
        heal within realistic sweep budgets.  Set to 0 for exact
        equation-(6) behaviour.
    """

    def __init__(
        self,
        action_names: Sequence[str],
        initial_value: float = 0.0,
        alpha_floor: float = 0.0,
    ) -> None:
        if not action_names:
            raise ConfigurationError("action_names must be non-empty")
        if len(set(action_names)) != len(action_names):
            raise ConfigurationError("action_names must be distinct")
        if not 0.0 <= alpha_floor <= 1.0:
            raise ConfigurationError(
                f"alpha_floor must be in [0, 1], got {alpha_floor}"
            )
        self._actions: Tuple[str, ...] = tuple(action_names)
        self._initial = initial_value
        self._alpha_floor = alpha_floor
        self._values: Dict[RecoveryState, Dict[str, float]] = {}
        self._visits: Dict[RecoveryState, Dict[str, int]] = {}
        self._last_signature: Optional[
            Tuple[Tuple[RecoveryState, str], ...]
        ] = None

    # ------------------------------------------------------------------
    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    @property
    def initial_value(self) -> float:
        return self._initial

    def __len__(self) -> int:
        """Number of states with at least one visited action."""
        return len(self._values)

    def states(self) -> Iterator[RecoveryState]:
        """States with at least one visited action."""
        return iter(self._values)

    def known(self, state: RecoveryState) -> bool:
        """Whether any action was ever visited in ``state``."""
        return state in self._values

    def value(self, state: RecoveryState, action_name: str) -> float:
        """Current Q(s, a); the initial value when never visited."""
        self._check_action(action_name)
        return self._values.get(state, {}).get(action_name, self._initial)

    def values_for(self, state: RecoveryState) -> Dict[str, float]:
        """``{action: Q(s, action)}`` over all actions."""
        row = self._values.get(state, {})
        return {a: row.get(a, self._initial) for a in self._actions}

    def visit_count(self, state: RecoveryState, action_name: str) -> int:
        """How many updates (s, a) has received."""
        self._check_action(action_name)
        return self._visits.get(state, {}).get(action_name, 0)

    def total_visits(self, state: RecoveryState) -> int:
        """Updates summed over all actions of ``state``."""
        return sum(self._visits.get(state, {}).values())

    def min_value(self, state: RecoveryState) -> float:
        """``min_a Q(s, a)`` over all actions (used for bootstrapping).

        A terminal (healthy) state has remaining cost 0 by definition.
        """
        if state.is_terminal:
            return 0.0
        row = self._values.get(state)
        if not row:
            return self._initial
        return min(
            (row.get(a, self._initial) for a in self._actions),
        )

    def underexplored_action(
        self, state: RecoveryState, min_visits: int
    ) -> Optional[str]:
        """The least-visited action still below ``min_visits``, if any.

        Used for forced exploration: a single unlucky sample can park an
        action's Q estimate far above the pack, where cost-scale
        Boltzmann selection would effectively never revisit it; insisting
        on a minimum visit count per (state, action) removes that
        failure mode.  Ties break by catalog order.
        """
        if min_visits <= 0:
            return None
        visits = self._visits.get(state, {})
        candidate: Optional[Tuple[int, int]] = None  # (count, index)
        for index, action in enumerate(self._actions):
            count = visits.get(action, 0)
            if count < min_visits and (
                candidate is None or count < candidate[0]
            ):
                candidate = (count, index)
        if candidate is None:
            return None
        return self._actions[candidate[1]]

    def bootstrap_value(self, state: RecoveryState) -> float:
        """Continuation value used as the TD target's second term.

        Terminal states contribute 0.  For non-terminal states the
        minimum is taken over *visited* actions when any exist: with the
        optimistic 0 default, including never-tried actions would make
        continuations look free and bias upstream Q values low.  During
        an episode's reverse-order updates the successor state has always
        just been visited, so the visited minimum is well defined.
        """
        if state.is_terminal:
            return 0.0
        visits = self._visits.get(state)
        if not visits:
            return self._initial
        row = self._values[state]
        return min(row[a] for a, n in visits.items() if n > 0)

    def greedy_action(
        self, state: RecoveryState
    ) -> Optional[Tuple[str, float]]:
        """The visited action of minimum Q, or ``None`` if none visited.

        Only *visited* actions participate: never-tried actions still
        carry the optimistic initial value and must not be exploited.
        Ties break by catalog order (the order of ``action_names``).
        """
        visits = self._visits.get(state)
        if not visits:
            return None
        row = self._values[state]
        best: Optional[Tuple[str, float]] = None
        for action in self._actions:
            if visits.get(action, 0) == 0:
                continue
            value = row[action]
            if best is None or value < best[1]:
                best = (action, value)
        return best

    def ranked_actions(
        self, state: RecoveryState
    ) -> Tuple[Tuple[str, float], ...]:
        """Visited actions ranked by ascending Q (ties by catalog order)."""
        visits = self._visits.get(state)
        if not visits:
            return ()
        row = self._values[state]
        ranked = [
            (action, row[action])
            for action in self._actions
            if visits.get(action, 0) > 0
        ]
        ranked.sort(key=lambda pair: pair[1])
        return tuple(ranked)

    def greedy_policy_changed(self) -> bool:
        """Whether the greedy policy differs from the previous call.

        The greedy policy is the map ``{visited state: argmin-Q visited
        action}``; the convergence criterion counts consecutive sweeps
        during which it is unchanged.  The first call always reports a
        change (there is no previous policy to match).  This table
        rescans and sorts every visited state — the product
        :class:`repro.learning.qtable.QTable` tracks the same answer
        incrementally inside ``update``.
        """
        signature = []
        for state in self._values:
            greedy = self.greedy_action(state)
            if greedy is not None:
                signature.append((state, greedy[0]))
        signature.sort(key=lambda pair: (pair[0].tried, pair[0].error_type))
        current = tuple(signature)
        changed = current != self._last_signature
        self._last_signature = current
        return changed

    # ------------------------------------------------------------------
    def update(
        self,
        state: RecoveryState,
        action_name: str,
        target: float,
    ) -> float:
        """Apply one equation-(6) update toward ``target``.

        Returns the absolute change in Q(s, a).
        """
        self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(
                f"cannot update a terminal state {state}"
            )
        row = self._values.setdefault(state, {})
        visit_row = self._visits.setdefault(state, {})
        visits = visit_row.get(action_name, 0)
        old = row.get(action_name, self._initial)
        alpha = max(self._alpha_floor, 1.0 / (1.0 + visits))
        new = (1.0 - alpha) * old + alpha * target
        row[action_name] = new
        visit_row[action_name] = visits + 1
        return abs(new - old)

    def restore(
        self,
        state: RecoveryState,
        action_name: str,
        value: float,
        visits: int,
    ) -> None:
        """Set a (state, action) entry directly, bypassing equation (6).

        Used by deserialization to reinstate a persisted table; the
        visit count must be positive so the learning-rate schedule
        resumes correctly.
        """
        self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot restore a terminal state {state}")
        if visits < 1:
            raise TrainingError(
                f"restored visits must be >= 1, got {visits}"
            )
        self._values.setdefault(state, {})[action_name] = float(value)
        self._visits.setdefault(state, {})[action_name] = int(visits)

    def _check_action(self, action_name: str) -> None:
        if action_name not in self._actions:
            raise ConfigurationError(
                f"unknown action {action_name!r}; table has {self._actions}"
            )


class ExplorationPolicy(Policy):
    """The training course's action rule, packaged as a policy.

    Per decision: forced exploration first (every action of a visited
    state tried ``min_visits`` times), then the explorer's draw over the
    current Q values.  The policy reads the *live* Q table, so decisions
    reflect updates from earlier episodes.
    """

    #: The explorer consumes RNG state per decision, so interleaving
    #: across concurrent sessions would change the draw sequence.
    batch_safe = False

    def __init__(self, qtable, explorer, sweep: int, min_visits: int) -> None:
        self._qtable = qtable
        self._explorer = explorer
        self._sweep = sweep
        self._min_visits = min_visits

    @property
    def name(self) -> str:
        return "exploration"

    def decide(self, state: RecoveryState) -> PolicyDecision:
        forced = self._qtable.underexplored_action(state, self._min_visits)
        if forced is not None:
            return PolicyDecision(action=forced, source="explore:forced")
        action = self._explorer.select(
            self._qtable.values_for(state), self._sweep
        )
        return PolicyDecision(action=action, source="explore:select")


class ReferenceTrainer:
    """The session-driven Figure 2 course over a dict :class:`QTable`.

    Same RNG derivation, warm start, episode rule, update order and
    convergence criterion as ``QLearningTrainer.train_type``; every
    step goes through state objects and the shared session driver.
    ``episode_telemetry`` receives one trace per exploration episode.
    """

    def __init__(
        self,
        platform: SimulationPlatform,
        config: Optional[QLearningConfig] = None,
        *,
        episode_telemetry: Optional[EpisodeTelemetry] = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else QLearningConfig()
        self.episode_telemetry = episode_telemetry
        self.last_episode_delta = 0.0

    def type_rng(self, error_type: str):
        if self.config.seed is None:
            return make_rng(None)
        return make_rng(derive_seed(self.config.seed, error_type))

    def make_explorer(self, rng):
        if self.config.exploration == "epsilon":
            return EpsilonGreedyExplorer(rng=rng)
        return BoltzmannExplorer(self.config.temperature, rng=rng)

    def new_table(self) -> QTable:
        return QTable(
            self.platform.catalog.names(), alpha_floor=self.config.alpha_floor
        )

    @staticmethod
    def apply_updates(qtable: QTable, trajectory: Sequence[Transition]) -> float:
        """Equation-(6) updates, deepest state first; the largest |change|."""
        max_delta = 0.0
        for s, action_name, cost, s_next in reversed(trajectory):
            target = cost + qtable.bootstrap_value(s_next)
            delta = qtable.update(s, action_name, target)
            if delta > max_delta:
                max_delta = delta
        return max_delta

    def run_episode(
        self, qtable: QTable, explorer, process: RecoveryProcess, sweep: int
    ) -> List[Transition]:
        """One exploration episode through the driver; returns transitions."""
        policy = ExplorationPolicy(
            qtable, explorer, sweep, self.config.min_visits_per_action
        )
        (outcome,) = drive_batch(
            [ReplayEnvironment(self.platform, process)],
            policy,
            origin="training",
            telemetry=self.episode_telemetry,
        )
        trajectory: List[Transition] = []
        state = RecoveryState.initial(process.error_type)
        for step in outcome.trace.steps:
            next_state = state.after(step.action, step.succeeded)
            trajectory.append((state, step.action, step.cost, next_state))
            state = next_state
        self.last_episode_delta = self.apply_updates(qtable, trajectory)
        return trajectory

    def warm_replay(
        self, qtable: QTable, process: RecoveryProcess
    ) -> List[Transition]:
        """One warm-start episode along the process's logged actions."""
        state = RecoveryState.initial(process.error_type)
        trajectory: List[Transition] = []
        for action_name in process.actions:
            outcome = self.platform.step(process, state, action_name)
            trajectory.append(
                (state, action_name, outcome.cost, outcome.next_state)
            )
            state = outcome.next_state
            if state.is_terminal:
                break
        self.last_episode_delta = self.apply_updates(qtable, trajectory)
        return trajectory

    def warm_start(
        self, qtable: QTable, processes: Sequence[RecoveryProcess]
    ) -> int:
        """``warm_start_passes`` logged replays of every process."""
        episodes = 0
        for _pass in range(self.config.warm_start_passes):
            for process in processes:
                self.warm_replay(qtable, process)
                episodes += 1
        return episodes

    def train_type(
        self,
        error_type: str,
        processes: Sequence[RecoveryProcess],
        *,
        sweep_callback: Optional[Callable[[int, QTable], bool]] = None,
        telemetry=None,
    ) -> TypeTrainingResult:
        """The sweep/convergence loop of Figure 2 for one error type.

        ``telemetry`` is accepted so the selection-tree course can drive
        this trainer in place of the product one; it is not reported to.
        """
        if not processes:
            raise TrainingError(
                f"no training processes for error type {error_type!r}"
            )
        rng = self.type_rng(error_type)
        explorer = self.make_explorer(rng)
        qtable = self.new_table()
        batch = min(self.config.episodes_per_sweep, len(processes))
        stable = 0
        episodes = self.warm_start(qtable, processes)
        sweeps_run = 0
        converged = False
        convergence_sweep = None
        for sweep in range(self.config.max_sweeps):
            sweeps_run = sweep + 1
            indices = rng.choice(len(processes), size=batch, replace=False)
            for index in indices:
                self.run_episode(qtable, explorer, processes[int(index)], sweep)
                episodes += 1
            if not qtable.greedy_policy_changed():
                stable += 1
            else:
                stable = 0
            if sweep_callback is not None and sweep_callback(sweep, qtable):
                converged = True
                convergence_sweep = sweeps_run
                break
            if sweep_callback is None and (
                sweeps_run >= self.config.min_sweeps
                and stable >= self.config.convergence_patience
                and self.config.temperature.is_search_phase(sweep)
            ):
                converged = True
                convergence_sweep = sweeps_run - self.config.convergence_patience
                break
        return TypeTrainingResult(
            error_type=error_type,
            qtable=qtable,
            sweeps_run=sweeps_run,
            sweeps_to_convergence=(
                convergence_sweep if convergence_sweep is not None else sweeps_run
            ),
            converged=converged,
            episodes=episodes,
        )
