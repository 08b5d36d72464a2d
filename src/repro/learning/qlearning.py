"""The offline Q-learning trainer (Figure 2).

Training proceeds per error type.  Each *sweep* replays a batch of the
type's training processes through the simulation platform; within an
episode, actions are selected by Boltzmann exploration over the current Q
values, and after the episode finishes the recorded transitions are
applied to the Q table in reverse order (deeper states first, so each
bootstrap target uses a freshly updated successor value).

Standard convergence is declared when the greedy policy over visited
states has been identical for ``convergence_patience`` consecutive sweeps
and the temperature has annealed into the search phase.  The paper's
Figure 13 counts these sweeps, capped at ``max_sweeps`` (their 160k) for
courses that never converge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    SimulationError,
    TrainingError,
    UnknownActionError,
)
from repro.learning.exploration import (
    BoltzmannExplorer,
    EpsilonGreedyExplorer,
    TemperatureSchedule,
)
from repro.learning.qtable import QTable
from repro.learning.telemetry import TrainingTelemetry
from repro.mdp.state import RecoveryState
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import CompiledReplay, SimulationPlatform
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "QLearningConfig",
    "TypeTrainingResult",
    "TrainingResult",
    "QLearningTrainer",
]


@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the offline training course.

    Attributes
    ----------
    temperature:
        Boltzmann annealing schedule (per sweep).
    max_sweeps:
        Sweep budget per error type (the paper caps at 160k; the
        default here is scaled to benchmark data sizes).
    episodes_per_sweep:
        Training processes replayed per sweep (sampled without
        replacement from the type's training processes each sweep).
    convergence_patience:
        Consecutive sweeps the greedy policy must stay unchanged.
    min_sweeps:
        Convergence is never declared before this many sweeps.
    exploration:
        ``"boltzmann"`` (the paper's choice) or ``"epsilon"`` (ablation).
    alpha_floor:
        Learning-rate floor (see :class:`~repro.learning.qtable.QTable`);
        0 reproduces equation (6) exactly, the small default heals early
        bootstrap bias within benchmark-scale sweep budgets.
    min_visits_per_action:
        Forced exploration: every action of a visited state is tried at
        least this many times before Boltzmann selection takes over,
        preventing one unlucky sample from parking an action out of
        reach of cost-scale Boltzmann probabilities.
    warm_start_passes:
        Before exploration begins, replay every training process along
        its *logged* action sequence this many times, updating Q as
        usual.  This anchors the Q values of the log policy's own
        state-action pairs at their actual costs, so exploration compares
        alternatives against solid baselines instead of optimistic
        zeros — analogous to how the paper's learner "analyzes a
        real-world recovery log generated by a user-defined policy".
    seed:
        Root seed for exploration and sweep sampling.  Each error type
        trains on its own child generator derived from
        ``(seed, error_type)`` (see :func:`repro.util.rng.derive_seed`),
        so results are independent of the order in which types are
        trained and of which process-pool worker runs them.
    """

    temperature: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    max_sweeps: int = 1500
    episodes_per_sweep: int = 32
    convergence_patience: int = 40
    min_sweeps: int = 20
    exploration: str = "boltzmann"
    alpha_floor: float = 0.08
    min_visits_per_action: int = 3
    warm_start_passes: int = 2
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )
        if self.episodes_per_sweep < 1:
            raise ConfigurationError(
                f"episodes_per_sweep must be >= 1, got {self.episodes_per_sweep}"
            )
        if self.convergence_patience < 1:
            raise ConfigurationError(
                f"convergence_patience must be >= 1, got "
                f"{self.convergence_patience}"
            )
        if self.exploration not in ("boltzmann", "epsilon"):
            raise ConfigurationError(
                f"unknown exploration strategy {self.exploration!r}"
            )
        if not 0.0 <= self.alpha_floor <= 1.0:
            raise ConfigurationError(
                f"alpha_floor must be in [0, 1], got {self.alpha_floor}"
            )
        if self.min_visits_per_action < 0:
            raise ConfigurationError(
                "min_visits_per_action must be >= 0, got "
                f"{self.min_visits_per_action}"
            )
        if self.warm_start_passes < 0:
            raise ConfigurationError(
                "warm_start_passes must be >= 0, got "
                f"{self.warm_start_passes}"
            )


@dataclass(frozen=True)
class TypeTrainingResult:
    """Training outcome for one error type.

    Attributes
    ----------
    error_type:
        The trained type.
    qtable:
        The learned Q-function.
    sweeps_run:
        Sweeps actually executed.
    sweeps_to_convergence:
        The Figure 13 measurement: first sweep of the stable window, or
        ``sweeps_run`` when the course never converged.
    converged:
        Whether the stability criterion was met within the budget.
    episodes:
        Total episodes replayed.
    """

    error_type: str
    qtable: QTable
    sweeps_run: int
    sweeps_to_convergence: int
    converged: bool
    episodes: int


@dataclass(frozen=True)
class TrainingResult:
    """Training outcomes for all error types."""

    per_type: Mapping[str, TypeTrainingResult]

    def qtables(self) -> Dict[str, QTable]:
        """``{error_type: trained Q table}``."""
        return {t: r.qtable for t, r in self.per_type.items()}

    def sweeps_to_convergence(self) -> Dict[str, int]:
        """Figure 13 series: sweeps before convergence per type."""
        return {t: r.sweeps_to_convergence for t, r in self.per_type.items()}

    def unconverged_types(self) -> Tuple[str, ...]:
        """Types whose training course hit the sweep cap."""
        return tuple(
            sorted(t for t, r in self.per_type.items() if not r.converged)
        )


class QLearningTrainer:
    """Run the Figure 2 algorithm per error type against a platform.

    Episodes run on the platform's compiled replay view
    (:meth:`~repro.simplatform.platform.SimulationPlatform.compiled`):
    states are interned ids of the Q table's
    :class:`~repro.mdp.state.StateIndex`, actions are catalog positions,
    and success, cost and log matching are integer compares.  Training
    processes must therefore belong to the platform's ensemble.

    Parameters
    ----------
    platform:
        Simulation platform over the *training* processes.
    config:
        Training hyper-parameters.
    """

    def __init__(
        self,
        platform: SimulationPlatform,
        config: Optional[QLearningConfig] = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else QLearningConfig()
        #: Largest absolute Q change of the most recent episode (a
        #: telemetry signal; see :class:`TrainingTelemetry`).
        self.last_episode_delta: float = 0.0

    # ------------------------------------------------------------------
    def _type_rng(self, error_type: str) -> np.random.Generator:
        """The error type's own child generator.

        Derived from ``(config.seed, error_type)`` so every type draws
        from a disjoint, order-independent stream; ``seed=None`` keeps
        OS entropy.
        """
        if self.config.seed is None:
            return make_rng(None)
        return make_rng(derive_seed(self.config.seed, error_type))

    def _make_explorer(self, rng: np.random.Generator):
        if self.config.exploration == "epsilon":
            return EpsilonGreedyExplorer(rng=rng)
        return BoltzmannExplorer(self.config.temperature, rng=rng)

    def _replay_indices(
        self, processes: Sequence[RecoveryProcess], compiled: CompiledReplay
    ) -> List[int]:
        """Each training process's index in the compiled replay view.

        Rejects, before the course starts, every process the episode
        loop cannot replay: one outside the platform's ensemble
        (:class:`TrainingError`), and one whose required actions — or,
        when the course warm-starts, logged actions — are not in the
        catalog (:class:`UnknownActionError`, as ``platform.step``
        raises for them).
        """
        warm = self.config.warm_start_passes > 0
        indices = []
        for process in processes:
            try:
                pidx = self.platform.process_index(process)
            except SimulationError:
                raise TrainingError(
                    f"training process on {process.machine!r} starting at "
                    f"{process.start_time} is not part of the platform's "
                    "ensemble"
                ) from None
            logged = compiled.attempt_aids[pidx]
            if compiled.required_ge[pidx] is None or (warm and -1 in logged):
                unknown = process.actions[logged.index(-1)]
                raise UnknownActionError(
                    f"training process on {process.machine!r} starting at "
                    f"{process.start_time} logs unknown repair action "
                    f"{unknown!r}; catalog has {list(compiled.actions)}"
                )
            indices.append(pidx)
        return indices

    @staticmethod
    def _apply_updates(
        qtable: QTable,
        sids: Sequence[int],
        aids: Sequence[int],
        costs: Sequence[float],
        next_sids: Sequence[int],
    ) -> float:
        """Equation-(6) updates, deepest state first.

        Reverse order means every bootstrap target reads a successor
        value that the same episode just refreshed, which propagates
        terminal costs up the chain within a single episode.  Returns
        the largest absolute Q change the episode caused.
        """
        max_delta = 0.0
        for i in range(len(sids) - 1, -1, -1):
            target = costs[i] + qtable.bootstrap_by_id(next_sids[i])
            delta = qtable.update_by_id(sids[i], aids[i], target)
            if delta > max_delta:
                max_delta = delta
        return max_delta

    def _run_episode(
        self,
        qtable: QTable,
        explorer,
        compiled: CompiledReplay,
        pidx: int,
        initial_sid: int,
        strongest_aid: int,
        sweep: int,
        warm: bool = False,
    ) -> Tuple[List[int], List[int], List[float], List[int]]:
        """Replay one process, then update Q in reverse order.

        The action at each depth is the N-cap's forced repair, else the
        least-visited action below ``min_visits_per_action``, else the
        explorer's draw over the state's Q row.  A *warm* episode takes
        the logged action at each depth instead and stops when the log
        runs out.  Each step is :meth:`CompiledReplay.step`.

        Returns the id trajectory ``(sids, aids, costs, next_sids)``.
        """
        platform = self.platform
        index = qtable.index
        min_visits = self.config.min_visits_per_action
        logged_aids = compiled.attempt_aids[pidx]
        n_logged = len(logged_aids)

        executed = [0] * compiled.n_actions
        sids: List[int] = []
        aids: List[int] = []
        costs: List[float] = []
        next_sids: List[int] = []
        sid = initial_sid
        depth = 0
        while True:
            if warm:
                if depth == n_logged:
                    break
                aid = logged_aids[depth]
            elif platform.forced_action(depth) is not None:
                aid = strongest_aid
            else:
                aid = qtable.underexplored_by_id(sid, min_visits)
                if aid < 0:
                    aid = explorer.select_index(qtable.q_row(sid), sweep)
            cost, succeeded = compiled.step(pidx, depth, aid, executed)
            next_sid = index.successor(sid, aid, succeeded)
            sids.append(sid)
            aids.append(aid)
            costs.append(cost)
            next_sids.append(next_sid)
            depth += 1
            if succeeded:
                break
            sid = next_sid

        self.last_episode_delta = self._apply_updates(
            qtable, sids, aids, costs, next_sids
        )
        return sids, aids, costs, next_sids

    def train_type(
        self,
        error_type: str,
        processes: Sequence[RecoveryProcess],
        *,
        sweep_callback: Optional[Callable[[int, QTable], bool]] = None,
        telemetry: Optional[TrainingTelemetry] = None,
    ) -> TypeTrainingResult:
        """Train one error type on its recovery processes.

        Parameters
        ----------
        error_type:
            The type being trained (processes must all carry it).
        processes:
            The type's training processes.
        sweep_callback:
            Optional hook invoked after every sweep with
            ``(sweep_index, qtable)``; returning True stops training
            early (used by the selection-tree course).
        telemetry:
            Optional :class:`TrainingTelemetry` observer; receives
            type-start/sweep/type-end events.  Purely observational —
            supplying it never changes training results.
        """
        if not processes:
            raise TrainingError(
                f"no training processes for error type {error_type!r}"
            )
        for process in processes:
            if process.error_type != error_type:
                raise TrainingError(
                    f"process of type {process.error_type!r} passed to the "
                    f"training course of {error_type!r}"
                )
        compiled = self.platform.compiled()
        replay_indices = self._replay_indices(processes, compiled)
        started = time.perf_counter()  # repro-lint: disable=R3 telemetry wall-clock only
        if telemetry is not None:
            telemetry.on_type_start(error_type, len(processes))
        rng = self._type_rng(error_type)
        explorer = self._make_explorer(rng)
        qtable = QTable(
            self.platform.catalog.names(), alpha_floor=self.config.alpha_floor
        )
        strongest_aid = compiled.actions.index(self.platform.forced_action_name)
        initial_sid = qtable.index.intern(RecoveryState.initial(error_type))

        batch = min(self.config.episodes_per_sweep, len(processes))
        stable = 0
        episodes = 0
        for _pass in range(self.config.warm_start_passes):
            for pidx in replay_indices:
                self._run_episode(
                    qtable,
                    explorer,
                    compiled,
                    pidx,
                    initial_sid,
                    strongest_aid,
                    0,
                    warm=True,
                )
                episodes += 1
        sweeps_run = 0
        converged = False
        convergence_sweep = None

        for sweep in range(self.config.max_sweeps):
            sweeps_run = sweep + 1
            sweep_delta = 0.0
            indices = rng.choice(len(processes), size=batch, replace=False)
            for index in indices:
                self._run_episode(
                    qtable,
                    explorer,
                    compiled,
                    replay_indices[index],
                    initial_sid,
                    strongest_aid,
                    sweep,
                )
                episodes += 1
                if self.last_episode_delta > sweep_delta:
                    sweep_delta = self.last_episode_delta
            if telemetry is not None:
                telemetry.on_sweep(
                    error_type,
                    sweep,
                    episodes,
                    self.config.temperature.temperature(sweep),
                    sweep_delta,
                )
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
        result = TypeTrainingResult(
            error_type=error_type,
            qtable=qtable,
            sweeps_run=sweeps_run,
            sweeps_to_convergence=(
                convergence_sweep if convergence_sweep is not None else sweeps_run
            ),
            converged=converged,
            episodes=episodes,
        )
        if telemetry is not None:
            telemetry.on_type_end(
                error_type,
                result,
                time.perf_counter() - started,  # repro-lint: disable=R3 telemetry wall-clock only
            )
        return result

    def train(
        self,
        processes_by_type: Mapping[str, Sequence[RecoveryProcess]],
        *,
        telemetry: Optional[TrainingTelemetry] = None,
    ) -> TrainingResult:
        """Train every error type; see :meth:`train_type`.

        Per-type child RNGs make the result independent of iteration
        order; types are still visited sorted for stable telemetry.
        """
        results: Dict[str, TypeTrainingResult] = {}
        for error_type in sorted(processes_by_type):
            processes = processes_by_type[error_type]
            if not processes:
                continue
            results[error_type] = self.train_type(
                error_type, processes, telemetry=telemetry
            )
        return TrainingResult(per_type=results)
