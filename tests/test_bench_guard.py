"""The shared ``--against`` throughput guard of the standalone benchmarks."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_fleet_scale  # noqa: E402
import bench_training_throughput as training  # noqa: E402
import benchguard  # noqa: E402


def _training_metrics(rate: float, episodes: int = 19_436) -> dict:
    return {
        "profile": "full",
        "error_types": ["error:A", "error:B", "error:C"],
        "training_processes": 3958,
        "max_sweeps": 120,
        "seed": 11,
        "backends": {
            "dict": {"episodes": episodes, "episodes_per_s": 8_000.0},
            "array": {"episodes": episodes, "episodes_per_s": rate},
        },
    }


def _guard(metrics: dict, baseline: dict, **kwargs) -> list:
    return benchguard.check_overhead(
        metrics,
        {"metrics": baseline},
        workload=training.WORKLOAD,
        rate=training.RATE,
        unit="episodes/s",
        **kwargs,
    )


class TestCheckOverhead:
    def test_within_bound_passes(self):
        base = _training_metrics(60_000.0)
        assert _guard(_training_metrics(57_500.0), base) == []
        assert _guard(_training_metrics(90_000.0), base) == []

    def test_loss_beyond_bound_fails(self):
        problems = _guard(
            _training_metrics(56_000.0), _training_metrics(60_000.0)
        )
        assert len(problems) == 1
        assert "6.7% below the baseline" in problems[0]
        assert training.RATE in problems[0]

    def test_bound_is_a_parameter(self):
        current, base = _training_metrics(56_000.0), _training_metrics(60_000.0)
        assert _guard(current, base, max_overhead=0.10) == []

    def test_workload_mismatch_fails_before_the_rate(self):
        base = _training_metrics(60_000.0)
        current = copy.deepcopy(base)
        current["profile"] = "smoke"
        current["max_sweeps"] = 25
        problems = _guard(current, base)
        assert [p.split(":")[0] for p in problems] == [
            "workloads differ on profile",
            "workloads differ on max_sweeps",
        ]

    def test_episode_count_mismatch_fails(self):
        problems = _guard(
            _training_metrics(60_000.0, episodes=19_000),
            _training_metrics(60_000.0),
        )
        assert len(problems) == 1
        assert problems[0].startswith(
            "workloads differ on backends.array.episodes: baseline 19436 "
            "vs current 19000"
        )

    def test_baseline_without_metrics_or_rate(self):
        current = _training_metrics(60_000.0)
        assert benchguard.check_overhead(
            current, {}, workload=("seed",), rate=training.RATE, unit=""
        ) == ["baseline has no metrics object"]
        base = _training_metrics(0.0)
        assert _guard(current, base) == [
            f"baseline {training.RATE} must be positive"
        ]

    def test_fleet_scale_leg(self):
        base = {"scale": {"machines": 100_000, "days": 60.0,
                          "machines_per_s": 1_000.0}}
        current = copy.deepcopy(base)
        current["scale"]["machines_per_s"] = 900.0
        problems = benchguard.check_overhead(
            current,
            {"metrics": base},
            workload=bench_fleet_scale.WORKLOAD,
            rate=bench_fleet_scale.RATE,
            unit="machines/s",
        )
        assert len(problems) == 1 and "10.0% below" in problems[0]
        current["scale"]["days"] = 10.0
        problems = benchguard.check_overhead(
            current,
            {"metrics": base},
            workload=bench_fleet_scale.WORKLOAD,
            rate=bench_fleet_scale.RATE,
            unit="machines/s",
        )
        assert problems[0].startswith("workloads differ on scale.days")


class TestRunGuard:
    def _run(self, metrics: dict, baseline: dict, enforce: bool) -> int:
        return benchguard.run_guard(
            metrics,
            {"metrics": baseline},
            workload=training.WORKLOAD,
            rate=training.RATE,
            unit="episodes/s",
            enforce=enforce,
        )

    @pytest.mark.parametrize("enforce", [True, False])
    def test_pass_is_zero(self, enforce, capsys):
        base = _training_metrics(60_000.0)
        assert self._run(_training_metrics(59_000.0), base, enforce) == 0
        assert "overhead guard" in capsys.readouterr().out

    def test_loss_fails_only_when_enforced(self, capsys):
        current, base = _training_metrics(40_000.0), _training_metrics(60_000.0)
        assert self._run(current, base, enforce=True) == 1
        assert "FAIL:" in capsys.readouterr().err
        assert self._run(current, base, enforce=False) == 0
        err = capsys.readouterr().err
        assert "ADVISORY" in err and "FAIL" not in err

    def test_workload_mismatch_fails_only_when_enforced(self, capsys):
        base = _training_metrics(60_000.0)
        current = _training_metrics(60_000.0, episodes=1_802)
        assert self._run(current, base, enforce=True) == 1
        assert "FAIL: workloads differ" in capsys.readouterr().err
        assert self._run(current, base, enforce=False) == 0
        assert "ADVISORY (not enforced): workloads differ" in (
            capsys.readouterr().err
        )


def test_machine_fingerprint_names_the_cpu():
    machine = benchguard.machine()
    assert set(machine) == {"nproc", "cpu", "python", "numpy"}
    assert machine["nproc"] >= 1 and machine["cpu"]
