"""Tests for the Q-learning trainer (Figure 2 algorithm)."""

import dataclasses

import pytest

from helpers import ladder_processes, make_process, trainer_episode
from repro.actions import default_catalog
from repro.errors import ConfigurationError, TrainingError, UnknownActionError
from repro.learning.exploration import BoltzmannExplorer, TemperatureSchedule
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.qtable import QTable
from repro.learning.telemetry import TelemetryRecorder
from repro.mdp.state import RecoveryState
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()


def reimage_type_processes():
    """A type where the ladder wastes TRYNOP + 2x REBOOT before REIMAGE."""
    return ladder_processes(
        "error:Hard",
        [
            (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 30),
            (["TRYNOP", "REBOOT"], 2),
        ],
        realistic_durations=True,
    )


def transient_type_processes():
    """A type where watching usually cures and reboots are expensive."""
    return ladder_processes(
        "error:Soft",
        [
            (["TRYNOP"], 20),
            (["TRYNOP", "REBOOT"], 10),
        ],
        realistic_durations=True,
    )


def trainer_for(processes, **config_overrides):
    platform = SimulationPlatform(processes, CATALOG)
    defaults = dict(max_sweeps=120, seed=1)
    defaults.update(config_overrides)
    return QLearningTrainer(platform, QLearningConfig(**defaults))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sweeps": 0},
            {"episodes_per_sweep": 0},
            {"convergence_patience": 0},
            {"exploration": "quantum"},
            {"alpha_floor": -0.1},
            {"min_visits_per_action": -1},
            {"warm_start_passes": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            QLearningConfig(**kwargs)


class TestEpisodes:
    def test_episode_terminates_and_records_transitions(self):
        processes = reimage_type_processes()
        trainer = trainer_for(processes)
        qtable = QTable(CATALOG.names())
        trajectory = trainer_episode(
            trainer, qtable, BoltzmannExplorer(seed=0), processes[0]
        )
        assert trajectory
        assert trajectory[-1][3].is_terminal
        # Every visited (state, action) received an update.
        for state, action, _cost, _nxt in trajectory:
            assert qtable.visit_count(state, action) >= 1

    def test_episode_respects_action_cap(self):
        processes = ladder_processes(
            "error:RMAonly", [(["TRYNOP", "REBOOT", "REIMAGE", "RMA"], 5)]
        )
        platform = SimulationPlatform(processes, CATALOG, max_actions=4)
        trainer = QLearningTrainer(
            platform, QLearningConfig(max_sweeps=5, seed=0)
        )
        qtable = QTable(CATALOG.names())
        trajectory = trainer_episode(
            trainer, qtable, BoltzmannExplorer(seed=0), processes[0]
        )
        assert len(trajectory) <= 4
        assert trajectory[-1][3].is_terminal

    def test_warm_start_anchors_logged_pairs(self):
        processes = reimage_type_processes()
        trainer = trainer_for(processes, warm_start_passes=1)
        qtable = QTable(CATALOG.names())
        for process in processes:
            trajectory = trainer_episode(
                trainer, qtable, None, process, warm=True
            )
            # A warm episode replays the logged actions, in log order.
            assert [t[1] for t in trajectory] == list(process.actions)
        s0 = RecoveryState.initial("error:Hard")
        assert qtable.visit_count(s0, "TRYNOP") == len(processes)
        # The anchored value reflects actual ladder costs (finite, > 0).
        assert qtable.value(s0, "TRYNOP") > 0


class TestTrainType:
    def test_learns_to_jump_to_reimage(self):
        processes = reimage_type_processes()
        trainer = trainer_for(processes)
        result = trainer.train_type("error:Hard", processes)
        s0 = RecoveryState.initial("error:Hard")
        values = result.qtable.values_for(s0)
        # Jumping straight to REIMAGE must beat starting with TRYNOP,
        # whose path pays the whole ladder.
        assert values["REIMAGE"] < values["TRYNOP"]

    def test_learns_to_watch_first_for_transients(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes)
        result = trainer.train_type("error:Soft", processes)
        s0 = RecoveryState.initial("error:Soft")
        greedy, _ = result.qtable.greedy_action(s0)
        assert greedy == "TRYNOP"

    def test_convergence_reported(self):
        processes = transient_type_processes()
        trainer = trainer_for(
            processes,
            max_sweeps=400,
            temperature=TemperatureSchedule(
                initial=2000.0, decay=0.9, floor=50.0
            ),
            convergence_patience=10,
        )
        result = trainer.train_type("error:Soft", processes)
        assert result.converged
        assert result.sweeps_to_convergence < 400

    def test_cap_reported_when_not_converged(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, max_sweeps=3)
        result = trainer.train_type("error:Soft", processes)
        assert not result.converged
        assert result.sweeps_to_convergence == 3

    def test_callback_can_stop_early(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, max_sweeps=100)
        result = trainer.train_type(
            "error:Soft",
            processes,
            sweep_callback=lambda sweep, qt: sweep >= 4,
        )
        assert result.sweeps_run == 5
        assert result.converged

    def test_empty_processes_rejected(self):
        trainer = trainer_for(transient_type_processes())
        with pytest.raises(TrainingError):
            trainer.train_type("error:Soft", [])

    def test_wrong_type_rejected(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes)
        with pytest.raises(TrainingError):
            trainer.train_type("error:Other", processes)

    def test_foreign_process_rejected_before_training(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes)
        foreign = make_process(
            ["TRYNOP", "REBOOT"],
            machine="m-foreign",
            error_type="error:Soft",
            start=9e6,
        )
        telemetry = TelemetryRecorder()
        with pytest.raises(TrainingError, match="'m-foreign' starting at 9000000"):
            trainer.train_type(
                "error:Soft", processes + [foreign], telemetry=telemetry
            )
        assert telemetry.per_type == {}

    @pytest.mark.parametrize("warm_start_passes", [0, 2])
    def test_unknown_required_action_rejected(self, warm_start_passes):
        unknown = make_process(
            ["TRYNOP", "FROB"], machine="m-unknown", error_type="error:Soft"
        )
        processes = transient_type_processes() + [unknown]
        trainer = trainer_for(processes, warm_start_passes=warm_start_passes)
        with pytest.raises(UnknownActionError, match="'FROB'"):
            trainer.train_type("error:Soft", processes)

    def test_unknown_logged_action_rejected_when_warm_starting(self):
        # Under the last-action-only rule the unknown action is logged
        # but not required: only the warm start would replay it.
        unknown = make_process(
            ["FROB", "REBOOT"], machine="m-unknown", error_type="error:Soft"
        )
        processes = transient_type_processes() + [unknown]
        platform = SimulationPlatform(
            processes, CATALOG, last_action_only=True
        )
        config = QLearningConfig(max_sweeps=5, seed=1)
        with pytest.raises(UnknownActionError, match="'FROB'"):
            QLearningTrainer(platform, config).train_type(
                "error:Soft", processes
            )
        cold = dataclasses.replace(config, warm_start_passes=0)
        result = QLearningTrainer(platform, cold).train_type(
            "error:Soft", processes
        )
        assert result.sweeps_run == 5

    def test_min_visits_forces_every_action(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, min_visits_per_action=2)
        result = trainer.train_type("error:Soft", processes)
        s0 = RecoveryState.initial("error:Soft")
        for action in CATALOG.names():
            assert result.qtable.visit_count(s0, action) >= 2


class TestTrainAll:
    def test_trains_each_type(self):
        hard = reimage_type_processes()
        soft = transient_type_processes()
        trainer = trainer_for(hard + soft, max_sweeps=60)
        result = trainer.train(
            {"error:Hard": hard, "error:Soft": soft, "error:Empty": []}
        )
        assert set(result.per_type) == {"error:Hard", "error:Soft"}
        assert set(result.sweeps_to_convergence()) == {
            "error:Hard",
            "error:Soft",
        }

    def test_unconverged_types_listed(self):
        soft = transient_type_processes()
        trainer = trainer_for(soft, max_sweeps=2)
        result = trainer.train({"error:Soft": soft})
        assert result.unconverged_types() == ("error:Soft",)
