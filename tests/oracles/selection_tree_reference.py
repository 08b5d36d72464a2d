"""Frozen reference selection-tree evaluation: the oracle for ``evaluate``.

The product's :meth:`repro.learning.selection_tree.SelectionTreeExtractor.evaluate`
replays a candidate rule table on the platform's compiled replay view
(integer action ids, rank-count dominance, per-type cost rows) and
memoizes the result per action chain.  This module keeps the loop it
replaced, frozen: every sampled process is replayed through
:meth:`repro.simplatform.platform.SimulationPlatform.replay`, that is
through the object-path recovery session with a
:class:`~repro.policies.trained.TrainedPolicy` deciding each step.

Nothing here is tuned for speed.  Do not change its behaviour: it is the
definition the product is measured against.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import TrainingError
from repro.mdp.state import RecoveryState
from repro.policies.trained import TrainedPolicy
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import SimulationPlatform

__all__ = ["evaluation_sample", "reference_evaluate"]

RuleTable = Dict[RecoveryState, Tuple[str, float]]


def evaluation_sample(
    processes: Sequence[RecoveryProcess], cap: int
) -> Sequence[RecoveryProcess]:
    """At most ``cap`` evenly spaced processes, in input order."""
    if len(processes) <= cap:
        return processes
    stride = len(processes) / cap
    return [processes[int(i * stride)] for i in range(cap)]


def reference_evaluate(
    platform: SimulationPlatform,
    rules: RuleTable,
    processes: Sequence[RecoveryProcess],
    evaluation_sample_cap: int = 500,
) -> float:
    """Mean replayed cost of the candidate policy over ``processes``.

    Unhandled replays are charged their real downtime, a neutral
    substitution that neither rewards nor punishes rule gaps.
    """
    if not processes:
        raise TrainingError("cannot evaluate a policy on no processes")
    sample = evaluation_sample(processes, evaluation_sample_cap)
    policy = TrainedPolicy(rules, label="candidate")
    total = 0.0
    for process in sample:
        result = platform.replay(process, policy)
        total += result.cost if result.handled else result.real_cost
    return total / len(sample)
