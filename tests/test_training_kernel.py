"""The training kernel against the frozen reference course.

``QLearningTrainer`` runs every episode of a sweep in one kernel call
over the flat Q-table arrays, with the per-step selection, replay step
and successor lookup inlined.  The contract is bit-identical behaviour
to ``tests/oracles/qlearning_reference.py``: per error type, the same
Q table (values, visit counts, first-visit order), the same course
metadata, and the same random draws — counted per type and checked by
the generator's final state.

The property runs random two-type ensembles over the settings the
kernel branches on: the N-cap (``max_actions`` 2-5), both cost modes,
the ``last_action_only`` ablation, forced exploration, warm starts,
the learning-rate floor and both explorers.  A fixed course checks that
the tables grow past their first 16 rows in the middle of training.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_process
from oracles import qlearning_reference
from repro.actions import default_catalog
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.simplatform.platform import CostMode, SimulationPlatform

CATALOG = default_catalog()
ACTIONS = tuple(CATALOG.names())
TYPES = ("error:A", "error:B")


class CountingRng:
    """A generator proxy that counts the draws made through it.

    Every call is one draw: a Boltzmann selection is one ``random()`` in
    the kernel and one ``choice(n, p=p)`` in the oracle, both consuming
    a single uniform.
    """

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def random(self, *args, **kwargs):
        self.draws += 1
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self.rng.integers(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self.rng.choice(*args, **kwargs)


def _counting(monkeypatch, cls, attr):
    """Wrap ``cls.attr`` (the per-type RNG factory) to record proxies."""
    original = getattr(cls, attr)
    made = {}

    def factory(self, error_type):
        made[error_type] = CountingRng(original(self, error_type))
        return made[error_type]

    monkeypatch.setattr(cls, attr, factory)
    return made


def _digest(result):
    """SHA-256 over every cell (value bits, visits) in first-visit order."""
    table = result.qtable
    cells = [
        (
            state.error_type,
            state.tried,
            action,
            table.value(state, action).hex(),
            table.visit_count(state, action),
        )
        for state in table.states()
        for action in table.action_names
        if table.visit_count(state, action) > 0
    ]
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def _course(result, rng):
    return (
        _digest(result),
        len(result.qtable),
        result.sweeps_run,
        result.sweeps_to_convergence,
        result.converged,
        result.episodes,
        rng.draws,
        rng.rng.bit_generator.state["state"],
    )


def _run_both(processes, platform_kwargs, config, sizes=None):
    """Train every type with the oracle and the kernel; per-type courses.

    With ``sizes`` (a dict), each course records its table's number of
    visited states after every sweep under ``(trainer, error_type)``,
    through a sweep callback that never stops the course.
    """
    platform = SimulationPlatform(processes, CATALOG, **platform_kwargs)
    courses = []
    for cls, attr in (
        (qlearning_reference.ReferenceTrainer, "type_rng"),
        (QLearningTrainer, "_type_rng"),
    ):
        with pytest.MonkeyPatch.context() as patch:
            rngs = _counting(patch, cls, attr)
            trainer = cls(platform, config)
            per_type = {}
            for error_type in TYPES:
                callback = None
                if sizes is not None:
                    record = sizes.setdefault((cls.__name__, error_type), [])

                    def callback(sweep, qtable, record=record):
                        record.append(len(qtable))
                        return False

                group = [p for p in processes if p.error_type == error_type]
                result = trainer.train_type(
                    error_type, group, sweep_callback=callback
                )
                per_type[error_type] = _course(result, rngs[error_type])
            courses.append(per_type)
    return courses


_SEQUENCES = st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=5)


@st.composite
def _ensembles(draw):
    """Two error types, each with 1-6 processes of random action logs."""
    processes = []
    step = draw(st.sampled_from([300.0, 2_700.0, 7_200.0]))
    for error_type in TYPES:
        for sequence in draw(st.lists(_SEQUENCES, min_size=1, max_size=6)):
            index = len(processes)
            processes.append(
                make_process(
                    sequence,
                    machine=f"m-{index:03d}",
                    error_type=error_type,
                    start=index * 1_000_000.0,
                    durations=[
                        step * (1 + ACTIONS.index(a)) for a in sequence
                    ],
                )
            )
    return processes


class TestKernelMatchesOracle:
    @given(
        processes=_ensembles(),
        max_actions=st.integers(2, 5),
        cost_mode=st.sampled_from(list(CostMode)),
        last_action_only=st.booleans(),
        min_visits=st.sampled_from([0, 3]),
        warm_start_passes=st.sampled_from([0, 2]),
        alpha_floor=st.sampled_from([0.0, 0.08]),
        exploration=st.sampled_from(["boltzmann", "epsilon"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_train_type_bit_identical(
        self,
        processes,
        max_actions,
        cost_mode,
        last_action_only,
        min_visits,
        warm_start_passes,
        alpha_floor,
        exploration,
        seed,
    ):
        config = QLearningConfig(
            max_sweeps=12,
            episodes_per_sweep=4,
            convergence_patience=3,
            min_sweeps=4,
            exploration=exploration,
            alpha_floor=alpha_floor,
            min_visits_per_action=min_visits,
            warm_start_passes=warm_start_passes,
            seed=seed,
        )
        oracle, kernel = _run_both(
            processes,
            {
                "cost_mode": cost_mode,
                "last_action_only": last_action_only,
                "max_actions": max_actions,
            },
            config,
        )
        assert kernel == oracle


class TestTableGrowth:
    @pytest.mark.parametrize("exploration", ["boltzmann", "epsilon"])
    def test_rows_grow_mid_course(self, exploration):
        """Past 16 states the flat arrays grow while a sweep runs; the
        kernel's bound arrays must see the new rows."""
        processes = [
            make_process(
                ["TRYNOP", "REBOOT", "REIMAGE", "RMA"][: 2 + i % 3],
                machine=f"m-{i:03d}",
                error_type=TYPES[i % 2],
                start=i * 1_000_000.0,
            )
            for i in range(12)
        ]
        sizes = {}
        config = QLearningConfig(
            max_sweeps=30,
            episodes_per_sweep=4,
            exploration=exploration,
            seed=9,
        )
        oracle, kernel = _run_both(
            processes, {"max_actions": 5}, config, sizes
        )
        assert kernel == oracle
        for error_type in TYPES:
            course = sizes[("QLearningTrainer", error_type)]
            assert course == sizes[("ReferenceTrainer", error_type)]
            # At most 16 states after the first sweep, more at the end:
            # the rows grew inside a later kernel call.
            assert course[0] <= 16 < course[-1], (error_type, course)
