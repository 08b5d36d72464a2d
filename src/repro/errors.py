"""Exception hierarchy for the :mod:`repro` library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses are
grouped by subsystem: configuration, log handling, mining, learning and
evaluation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "LogFormatError",
    "PolicyFormatError",
    "SegmentationError",
    "UnknownActionError",
    "UnknownErrorTypeError",
    "MiningError",
    "TrainingError",
    "NotTrainedError",
    "UnhandledStateError",
    "EvaluationError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class LogFormatError(ReproError):
    """A recovery-log entry or file could not be parsed."""


class PolicyFormatError(LogFormatError):
    """A policy file is malformed; the message names the file and field."""


class SegmentationError(ReproError):
    """A recovery log could not be segmented into recovery processes."""


class UnknownActionError(ReproError, KeyError):
    """A repair action name was not found in the action catalog."""


class UnknownErrorTypeError(ReproError, KeyError):
    """An error type was not found in the registry."""


class MiningError(ReproError):
    """The symptom-mining subsystem failed."""


class TrainingError(ReproError):
    """The Q-learning training process failed."""


class NotTrainedError(TrainingError):
    """A trained artifact was used before training completed."""


class UnhandledStateError(ReproError):
    """A policy was asked to act in a state it cannot handle.

    The paper's pure RL-trained policy raises this for "noisy" states that
    never appeared in the training log; the hybrid policy catches it and
    falls back to the user-defined policy (Section 3.4).
    """

    def __init__(self, message: str, *, state: object = None) -> None:
        super().__init__(message)
        self.state = state


class EvaluationError(ReproError):
    """Policy evaluation failed."""


class SimulationError(ReproError):
    """The cluster simulator or simulation platform failed."""
