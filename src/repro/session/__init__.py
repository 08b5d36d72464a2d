"""Unified recovery-session core shared by the object-path episode loops.

One state machine (:class:`RecoverySession`), one cap rule
(:func:`forced_action`), one decision rule (:func:`decide_wave`), one
trace schema (:class:`EpisodeTrace`), and one synchronous driver
(:func:`drive_batch`) behind a small :class:`Environment` protocol.
Online cluster recovery executes through this package; training and
held-out replay run on the platform's compiled replay view.
"""

from repro.session.core import (
    RecoverySession,
    SessionDecision,
    decide_wave,
    forced_action,
)
from repro.session.driver import EpisodeOutcome, drive_batch
from repro.session.environment import (
    Environment,
    ExecutionResult,
    ReplayEnvironment,
)
from repro.session.trace import (
    FORCED_SOURCE,
    EpisodeTelemetry,
    EpisodeTrace,
    StepTrace,
)

__all__ = [
    "RecoverySession",
    "SessionDecision",
    "decide_wave",
    "forced_action",
    "EpisodeOutcome",
    "drive_batch",
    "Environment",
    "ExecutionResult",
    "ReplayEnvironment",
    "FORCED_SOURCE",
    "EpisodeTelemetry",
    "EpisodeTrace",
    "StepTrace",
]
