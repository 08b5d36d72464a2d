"""Shared builders for tests: compact construction of processes and logs."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.mdp.state import RecoveryState
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.log import RecoveryLog
from repro.recoverylog.process import RecoveryProcess

DEFAULT_STEP = 600.0


def make_process(
    actions: Sequence[str],
    *,
    machine: str = "m-test",
    error_type: str = "error:X",
    start: float = 0.0,
    step: float = DEFAULT_STEP,
    durations: Optional[Sequence[float]] = None,
    extra_symptoms: Sequence[str] = (),
    detection_delay: float = 60.0,
) -> RecoveryProcess:
    """Build a recovery process with controlled attempt durations.

    The first symptom fires at ``start``; the first action after
    ``detection_delay``; each attempt lasts ``durations[i]`` (or ``step``
    for all when omitted); success closes the final attempt.
    ``extra_symptoms`` are emitted right after the initial one.
    """
    if durations is None:
        durations = [step] * len(actions)
    if len(durations) != len(actions):
        raise ValueError("durations must match actions")
    entries: List[LogEntry] = [LogEntry.symptom(start, machine, error_type)]
    for offset, symptom in enumerate(extra_symptoms, start=1):
        entries.append(
            LogEntry.symptom(start + offset * 1.0, machine, symptom)
        )
    time = start + detection_delay
    for action, duration in zip(actions, durations):
        entries.append(LogEntry.action(time, machine, action))
        time += duration
    entries.append(LogEntry.success(time, machine))
    return RecoveryProcess(machine, tuple(entries))


def make_log(processes: Iterable[RecoveryProcess]) -> RecoveryLog:
    """Flatten processes back into a raw log."""
    log = RecoveryLog()
    for process in processes:
        log.extend(process.entries)
    return log


#: Realistic per-action attempt durations for ladder fixtures (seconds).
ACTION_DURATIONS = {
    "TRYNOP": 300.0,
    "REBOOT": 2_700.0,
    "REIMAGE": 7_200.0,
    "RMA": 172_800.0,
}


def ladder_processes(
    error_type: str,
    counts: Sequence[Tuple[Sequence[str], int]],
    *,
    machine_prefix: str = "m",
    gap: float = 500_000.0,
    step: Optional[float] = None,
    realistic_durations: bool = False,
) -> List[RecoveryProcess]:
    """Build ``n`` copies of each action sequence, spaced in time.

    ``counts`` is ``[(action sequence, copies), ...]``.  Each process
    lands on its own machine so segmentation stays trivial.  With
    ``realistic_durations`` each attempt lasts its action's nominal
    duration (TRYNOP cheap, RMA days); otherwise every attempt lasts
    ``step`` (default 600 s).
    """
    processes = []
    index = 0
    for sequence, copies in counts:
        if realistic_durations:
            durations = [ACTION_DURATIONS[a] for a in sequence]
        else:
            durations = [step if step is not None else DEFAULT_STEP] * len(
                sequence
            )
        for _ in range(copies):
            processes.append(
                make_process(
                    sequence,
                    machine=f"{machine_prefix}-{index:04d}",
                    error_type=error_type,
                    start=index * gap,
                    durations=durations,
                )
            )
            index += 1
    return processes


def trainer_episode(trainer, qtable, explorer, process, sweep=0, *, warm=False):
    """Run one ``QLearningTrainer`` episode and return its transitions.

    ``process`` must belong to the trainer platform's ensemble.  The
    episode is a one-process call of the training kernel; its id
    trajectory (``trainer.last_episode``, where -1 marks the terminal
    successor) is mapped back to ``(state, action, cost, next_state)``
    tuples.
    """
    platform = trainer.platform
    actions = platform.compiled().actions
    index = qtable.index
    trainer._sweep(
        qtable,
        explorer,
        [platform.process_index(process)],
        index.intern(RecoveryState.initial(process.error_type)),
        sweep,
        set(),
        warm,
    )
    transitions = []
    for sid, aid, cost, next_sid in zip(*trainer.last_episode):
        state = index.state(sid)
        next_state = (
            state.after(actions[aid], True)
            if next_sid < 0
            else index.state(next_sid)
        )
        transitions.append((state, actions[aid], cost, next_state))
    return transitions
