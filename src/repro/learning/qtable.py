"""Tabular Q-function with visit-count learning rates (equation 6).

The table maps ``(RecoveryState, action name)`` to the expected remaining
recovery time when beginning with that action.  Updates follow

    Q_n(s, a) = (1 - a_n) Q_{n-1}(s, a) + a_n [c(s, a) + min_a' Q_{n-1}(s', a')]
    a_n = 1 / (1 + visits(s, a))

which makes ``Q_n`` exactly the running average of the sampled targets —
the contraction the paper cites for convergence with probability 1.

States are interned to dense row ids by a
:class:`~repro.mdp.state.StateIndex`.  Q values and visit counts live in
two flat arrays, ``array('d')`` and ``array('q')``, with the row of state
``sid`` at ``sid * n_actions``; they grow in place, so a loop that binds
them (:attr:`QTable.storage`) keeps valid references across growth.
Equation (6) is implemented once, in :meth:`QTable.apply_episode`: the
training kernel hands it a whole episode, the state-keyed
:meth:`QTable.update` a single transition.  Alongside the values the
table maintains its greedy policy incrementally, which serves both as
the bootstrap term (the greedy entry holds the minimum over visited
actions) and as the per-sweep convergence check
(:meth:`QTable.greedy_policy_changed` touches only the states whose
argmin actually moved).

``tests/oracles/qlearning_reference.py`` keeps a frozen dict-of-dict
table with the same semantics; ``tests/test_backend_equivalence.py``
checks the two against each other bit for bit.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, TrainingError
from repro.mdp.state import RecoveryState, StateIndex

__all__ = ["QTable"]


class QTable:
    """A tabular Q-function over interned recovery states.

    Parameters
    ----------
    action_names:
        The actions available in every (non-terminal) state; their order
        is the catalog order that breaks ties.
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
    index:
        Optionally a pre-existing :class:`StateIndex` to share, so an
        episode loop and the table agree on state ids.
    """

    def __init__(
        self,
        action_names: Sequence[str],
        initial_value: float = 0.0,
        alpha_floor: float = 0.0,
        index: Optional[StateIndex] = None,
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
        self._action_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self._actions)
        }
        self._n_actions = len(self._actions)
        self._initial = float(initial_value)
        self._alpha_floor = alpha_floor
        if index is not None and index.action_names != self._actions:
            raise ConfigurationError(
                f"index actions {index.action_names} do not match table "
                f"actions {self._actions}"
            )
        self._index = index if index is not None else StateIndex(self._actions)
        self._capacity = 0
        self._values = array("d")
        self._visits = array("q")
        # Greedy policy: the visited action of minimum Q per state (-1:
        # none visited, so "known" is ``greedy >= 0``), a snapshot of it
        # at the last greedy_policy_changed() call, and the set of states
        # whose entry moved since then.
        self._greedy: List[int] = []
        self._greedy_mark: List[int] = []
        self._dirty: Set[int] = set()
        self._checked_once = False
        # States with at least one visited action, in first-visit order.
        self._known_order: List[int] = []

    # ------------------------------------------------------------------
    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    @property
    def initial_value(self) -> float:
        return self._initial

    @property
    def index(self) -> StateIndex:
        """The state interner mapping states to array rows."""
        return self._index

    @property
    def storage(self) -> Tuple[array, array]:
        """The live flat ``(values, visits)`` arrays (read-only use)."""
        return self._values, self._visits

    def __len__(self) -> int:
        """Number of states with at least one visited action."""
        return len(self._known_order)

    def states(self) -> Iterator[RecoveryState]:
        """States with at least one visited action, first-visit order."""
        return (self._index.state(sid) for sid in self._known_order)

    def known(self, state: RecoveryState) -> bool:
        """Whether any action was ever visited in ``state``."""
        return self._known_id(state) is not None

    # ------------------------------------------------------------------
    # Array plumbing
    # ------------------------------------------------------------------
    def reserve(self, rows: int) -> int:
        """Grow the arrays in place to at least ``rows`` rows (at least
        doubling, so growth is amortized); returns the row capacity."""
        old = self._capacity
        if rows > old:
            new = max(16, 2 * old, rows)
            cells = (new - old) * self._n_actions
            self._values.extend(array("d", [self._initial]) * cells)
            self._visits.extend(array("q", [0]) * cells)
            self._greedy.extend([-1] * (new - old))
            self._greedy_mark.extend([-1] * (new - old))
            self._capacity = new
        return self._capacity

    def _check_action(self, action_name: str) -> int:
        aid = self._action_ids.get(action_name)
        if aid is None:
            raise ConfigurationError(
                f"unknown action {action_name!r}; table has {self._actions}"
            )
        return aid

    def _known_id(self, state: RecoveryState) -> Optional[int]:
        """The state's row id if any of its actions was visited."""
        sid = self._index.lookup(state)
        if sid is None or sid >= self._capacity or self._greedy[sid] < 0:
            return None
        return sid

    def _row(self, sid: int, flat: Optional[array] = None) -> array:
        """Row ``sid`` of the values (or of ``flat``, e.g. the visits)."""
        base = sid * self._n_actions
        flat = self._values if flat is None else flat
        return flat[base : base + self._n_actions]

    def _refresh_greedy(self, sid: int) -> None:
        """Recompute the state's greedy entry after a write to its row:
        the first minimum among visited actions (catalog-order ties)."""
        best, best_value = -1, 0.0
        visits = self._row(sid, self._visits)
        for aid, value in enumerate(self._row(sid)):
            if visits[aid] > 0 and (best < 0 or value < best_value):
                best, best_value = aid, value
        if best != self._greedy[sid]:
            self._greedy[sid] = best
            self._dirty.add(sid)

    # ------------------------------------------------------------------
    # State-keyed API
    # ------------------------------------------------------------------
    def value(self, state: RecoveryState, action_name: str) -> float:
        """Current Q(s, a); the initial value when never visited."""
        aid = self._check_action(action_name)
        sid = self._known_id(state)
        cell = -1 if sid is None else sid * self._n_actions + aid
        if cell < 0 or self._visits[cell] == 0:
            return self._initial
        return self._values[cell]

    def values_for(self, state: RecoveryState) -> Dict[str, float]:
        """``{action: Q(s, action)}`` over all actions."""
        sid = self._known_id(state)
        if sid is None:
            return {a: self._initial for a in self._actions}
        return dict(zip(self._actions, self._row(sid)))

    def visit_count(self, state: RecoveryState, action_name: str) -> int:
        """How many updates (s, a) has received."""
        aid = self._check_action(action_name)
        sid = self._known_id(state)
        return 0 if sid is None else self._visits[sid * self._n_actions + aid]

    def total_visits(self, state: RecoveryState) -> int:
        """Updates summed over all actions of ``state``."""
        sid = self._known_id(state)
        return 0 if sid is None else sum(self._row(sid, self._visits))

    def min_value(self, state: RecoveryState) -> float:
        """``min_a Q(s, a)`` over all actions.

        A terminal (healthy) state has remaining cost 0 by definition.
        """
        if state.is_terminal:
            return 0.0
        sid = self._known_id(state)
        return self._initial if sid is None else min(self._row(sid))

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
        sid = self._known_id(state)
        if sid is None:
            return self._actions[0]
        best, least = -1, min_visits
        for aid, count in enumerate(self._row(sid, self._visits)):
            if count < least:
                best, least = aid, count
        return None if best < 0 else self._actions[best]

    def bootstrap_value(self, state: RecoveryState) -> float:
        """Continuation value used as the TD target's second term.

        Terminal states contribute 0.  For non-terminal states the
        minimum is taken over *visited* actions when any exist — the
        greedy entry's value: with the optimistic 0 default, including
        never-tried actions would make continuations look free and bias
        upstream Q values low.
        """
        if state.is_terminal:
            return 0.0
        greedy = self.greedy_action(state)
        return self._initial if greedy is None else greedy[1]

    def greedy_action(
        self, state: RecoveryState
    ) -> Optional[Tuple[str, float]]:
        """The visited action of minimum Q, or ``None`` if none visited.

        Only *visited* actions participate: never-tried actions still
        carry the optimistic initial value and must not be exploited.
        Ties break by catalog order.
        """
        sid = self._known_id(state)
        if sid is None:
            return None
        aid = self._greedy[sid]
        return self._actions[aid], self._values[sid * self._n_actions + aid]

    def ranked_actions(
        self, state: RecoveryState
    ) -> Tuple[Tuple[str, float], ...]:
        """Visited actions ranked by ascending Q (ties by catalog order)."""
        sid = self._known_id(state)
        if sid is None:
            return ()
        visits = self._row(sid, self._visits)
        ranked = [
            (self._actions[aid], value)
            for aid, value in enumerate(self._row(sid))
            if visits[aid] > 0
        ]
        ranked.sort(key=lambda pair: pair[1])
        return tuple(ranked)

    def update(
        self,
        state: RecoveryState,
        action_name: str,
        target: float,
    ) -> float:
        """Apply one equation-(6) update toward ``target``.

        Returns the absolute change in Q(s, a).
        """
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot update a terminal state {state}")
        sid = self._index.intern(state)
        self.reserve(sid + 1)
        return self.apply_episode((sid,), (aid,), (target,), (-1,))

    def restore(
        self,
        state: RecoveryState,
        action_name: str,
        value: float,
        visits: int,
    ) -> None:
        """Set a (state, action) entry directly, bypassing equation (6)."""
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot restore a terminal state {state}")
        if visits < 1:
            raise TrainingError(
                f"restored visits must be >= 1, got {visits}"
            )
        sid = self._index.intern(state)
        self.reserve(sid + 1)
        cell = sid * self._n_actions + aid
        self._values[cell] = float(value)
        self._visits[cell] = int(visits)
        if self._greedy[sid] < 0:
            self._known_order.append(sid)
        self._refresh_greedy(sid)

    def apply_episode(
        self,
        sids: Sequence[int],
        aids: Sequence[int],
        costs: Sequence[float],
        next_sids: Sequence[int],
    ) -> float:
        """Equation-(6) updates of one episode, deepest transition first.

        Transition ``i`` took action ``aids[i]`` in state ``sids[i]``,
        cost ``costs[i]`` and led to ``next_sids[i]``; a next id of -1
        marks a terminal successor, whose continuation value is 0.
        Reverse order means every bootstrap target reads a successor
        value that the same episode just refreshed, which propagates
        terminal costs up the chain within a single episode.  The
        bootstrap reads the successor's greedy entry (the minimum over
        its visited actions; the initial value when none is).  Every id
        must already have a row (see :meth:`reserve`).  Returns the
        largest absolute Q change.
        """
        n = self._n_actions
        values, visits, greedy = self._values, self._visits, self._greedy
        initial, floor = self._initial, self._alpha_floor
        max_delta = 0.0
        for i in range(len(sids) - 1, -1, -1):
            target = costs[i]
            nxt = next_sids[i]
            if nxt >= 0:
                best = greedy[nxt]
                target += initial if best < 0 else values[nxt * n + best]
            sid = sids[i]
            aid = aids[i]
            cell = sid * n + aid
            count = visits[cell]
            old = values[cell]
            alpha = 1.0 / (1.0 + count)
            if alpha < floor:
                alpha = floor
            new = (1.0 - alpha) * old + alpha * target
            values[cell] = new
            visits[cell] = count + 1
            # Incremental greedy maintenance.  Only one entry moved, so
            # the first-minimum-over-visited argmin can shift in exactly
            # three ways: the state had no greedy yet (aid takes over); a
            # non-greedy entry dropped to or below the greedy value (aid
            # takes over iff strictly below, or ties with an earlier
            # catalog position); or the greedy entry itself *increased*
            # — the one case that needs a row rescan.
            best = greedy[sid]
            if best < 0:
                greedy[sid] = aid
                self._dirty.add(sid)
                self._known_order.append(sid)
            elif best == aid:
                if new > old:
                    self._refresh_greedy(sid)
            else:
                best_value = values[sid * n + best]
                if new < best_value or (new == best_value and aid < best):
                    greedy[sid] = aid
                    self._dirty.add(sid)
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
        return max_delta

    def greedy_policy_changed(self) -> bool:
        """Whether the greedy policy differs from the previous call.

        The greedy policy is the map ``{visited state: argmin-Q visited
        action}``; the convergence criterion counts consecutive sweeps
        during which it is unchanged.  Only states written since the last
        call are compared against their snapshot, so a net no-op sweep
        (an argmin that flipped and flipped back) correctly reports
        "unchanged".  The first call always reports a change.
        """
        changed = False
        for sid in self._dirty:
            if self._greedy[sid] != self._greedy_mark[sid]:
                self._greedy_mark[sid] = self._greedy[sid]
                changed = True
        self._dirty.clear()
        if not self._checked_once:
            self._checked_once = True
            return True
        return changed
