"""Training-throughput baseline: reference oracle vs the trainer.

Trains the largest error types of a fixed-seed scenario twice — with
the frozen session-driven course over a dict Q table kept in
``tests/oracles/qlearning_reference.py`` (reported under ``"dict"``) and
with ``QLearningTrainer`` (reported under ``"array"``) — and reports
wall-clock, episodes/sec and sweeps/sec for each, plus their speedup.
The two are bit-identical by contract (same RNG draw sequence, Q values
and convergence sweeps), so the benchmark first asserts exact equality
of every training outcome and only then reports throughput — a speedup
measured against diverging results would be meaningless.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --profile smoke --out BENCH_training_throughput.json
    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --check BENCH_training_throughput.json

The committed ``BENCH_training_throughput.json`` at the repo root holds
the ``full`` profile's numbers and is the baseline later perf work is
measured against.  Schema::

    {"bench": "training_throughput", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import build_scenario, default_scenario
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.simplatform.platform import SimulationPlatform
from repro.tracegen.workload import small_config
from repro.util.tables import render_table

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.qlearning_reference import ReferenceTrainer  # noqa: E402

BENCH_NAME = "training_throughput"

#: Artifact key -> trainer class: the reference oracle and the trainer.
#: The keys predate the oracle's move into the tests and are kept so
#: committed artifacts stay comparable.
TRAINERS = {"dict": ReferenceTrainer, "array": QLearningTrainer}

#: Profile -> (scenario kind, error types trained, sweep cap, min speedup).
#: The smoke profile exists for CI: it must finish in seconds and makes
#: no speedup promise (shared runners time-slice too coarsely); the full
#: profile is the committed baseline and asserts the trainer's >= 3x
#: episodes/sec advantage over the reference oracle.
PROFILES = {
    "smoke": {
        "top_types": 2, "max_sweeps": 25, "repeats": 1, "min_speedup": 0.0,
    },
    "full": {
        "top_types": 3, "max_sweeps": 120, "repeats": 3, "min_speedup": 3.0,
    },
}


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _largest_groups(
    scenario, top_types: int
) -> List[Tuple[str, Tuple]]:
    """The ``top_types`` error types with the most training processes."""
    groups = scenario.registry.partition(scenario.clean)
    ranked = sorted(
        groups.items(), key=lambda item: (-len(item[1]), item[0])
    )
    return ranked[:top_types]


def _snapshot(result) -> Tuple:
    """Every observable training outcome, for exact comparison."""
    table = result.qtable
    cells = tuple(
        sorted(
            (
                (state.error_type, state.tried),
                action,
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in table.states()
            for action in table.action_names
            if table.visit_count(state, action) > 0
        )
    )
    return (
        result.sweeps_run,
        result.sweeps_to_convergence,
        result.converged,
        result.episodes,
        cells,
    )


def _run_trainer(
    name: str,
    scenario,
    groups: Sequence[Tuple[str, Tuple]],
    max_sweeps: int,
    repeats: int,
) -> Tuple[Dict[str, object], List[Tuple]]:
    """Train all groups with one trainer on a fresh platform.

    A fresh platform per *repeat* charges the trainer's one-time replay
    compilation to its measurement, so the comparison is end to end,
    not inner-loop-only.  Training is deterministic, so repeats produce
    identical results and only the minimum wall-clock (the least
    scheduler-perturbed run) is reported.
    """
    elapsed = float("inf")
    for _repeat in range(repeats):
        platform = SimulationPlatform(scenario.clean, scenario.catalog)
        trainer = TRAINERS[name](
            platform, QLearningConfig(max_sweeps=max_sweeps, seed=11)
        )
        snapshots: List[Tuple] = []
        episodes = 0
        sweeps = 0
        started = time.perf_counter()
        for error_type, processes in groups:
            result = trainer.train_type(error_type, processes)
            episodes += result.episodes
            sweeps += result.sweeps_run
            snapshots.append(_snapshot(result))
        elapsed = min(elapsed, time.perf_counter() - started)
    return (
        {
            "wall_clock_s": round(elapsed, 4),
            "episodes": episodes,
            "sweeps": sweeps,
            "episodes_per_s": round(episodes / elapsed, 1),
            "sweeps_per_s": round(sweeps / elapsed, 1),
        },
        snapshots,
    )


def run(profile: str) -> Dict[str, object]:
    """Measure both trainers and return the metrics payload."""
    spec = PROFILES[profile]
    if profile == "smoke":
        scenario = build_scenario(small_config(seed=13, fault_count=40))
    else:
        scenario = default_scenario(seed=7)
    groups = _largest_groups(scenario, spec["top_types"])

    per_backend: Dict[str, Dict[str, object]] = {}
    per_backend_snapshots: Dict[str, List[Tuple]] = {}
    # Reference first, then the trainer, so a regression that crashes
    # the trainer still prints the baseline numbers.
    for name in TRAINERS:
        per_backend[name], per_backend_snapshots[name] = _run_trainer(
            name, scenario, groups, spec["max_sweeps"], spec["repeats"]
        )

    bit_identical = (
        per_backend_snapshots["dict"] == per_backend_snapshots["array"]
    )
    dict_rate = per_backend["dict"]["episodes_per_s"]
    array_rate = per_backend["array"]["episodes_per_s"]
    speedup = round(array_rate / dict_rate, 2) if dict_rate else 0.0
    return {
        "profile": profile,
        "error_types": [name for name, _ in groups],
        "training_processes": sum(len(p) for _, p in groups),
        "max_sweeps": spec["max_sweeps"],
        "seed": 11,
        "backends": per_backend,
        "speedup_episodes_per_s": speedup,
        "bit_identical": bit_identical,
    }


def check_payload(payload: Dict[str, object]) -> List[str]:
    """Schema violations of a benchmark artifact (empty = valid)."""
    problems = []
    if payload.get("bench") != BENCH_NAME:
        problems.append(f"bench must be {BENCH_NAME!r}")
    if not isinstance(payload.get("commit"), str) or not payload["commit"]:
        problems.append("commit must be a non-empty string")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    backends = metrics.get("backends")
    if not isinstance(backends, dict) or set(backends) != set(TRAINERS):
        problems.append(
            f"metrics.backends must have exactly {sorted(TRAINERS)}"
        )
    else:
        for name, stats in backends.items():
            for key in (
                "wall_clock_s",
                "episodes",
                "sweeps",
                "episodes_per_s",
                "sweeps_per_s",
            ):
                if not isinstance(stats.get(key), (int, float)):
                    problems.append(f"backends.{name}.{key} must be numeric")
    if not isinstance(metrics.get("speedup_episodes_per_s"), (int, float)):
        problems.append("metrics.speedup_episodes_per_s must be numeric")
    if metrics.get("bit_identical") is not True:
        problems.append("metrics.bit_identical must be true")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless trainer/reference episodes-per-sec reaches this "
        "(default: the profile's own floor)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing artifact's schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        problems = check_payload(payload)
        for problem in problems:
            print(f"{args.check}: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.check}: schema OK")
        return 1 if problems else 0

    metrics = run(args.profile)
    payload = {
        "bench": BENCH_NAME,
        "commit": _commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    rows = [
        (
            name,
            stats["wall_clock_s"],
            stats["episodes"],
            stats["episodes_per_s"],
            stats["sweeps_per_s"],
        )
        for name, stats in metrics["backends"].items()
    ]
    print()
    print(render_table(
        ["trainer", "wall-clock (s)", "episodes", "episodes/s", "sweeps/s"],
        rows,
        title=f"Training throughput ({args.profile} profile, "
              f"{metrics['training_processes']:,} processes, "
              f"{len(metrics['error_types'])} types)",
    ))
    print(f"speedup (episodes/s): {metrics['speedup_episodes_per_s']}x")

    if not metrics["bit_identical"]:
        print("FAIL: trainer diverged from the reference oracle",
              file=sys.stderr)
        return 1
    floor = (
        args.min_speedup
        if args.min_speedup is not None
        else PROFILES[args.profile]["min_speedup"]
    )
    if metrics["speedup_episodes_per_s"] < floor:
        print(
            f"FAIL: speedup {metrics['speedup_episodes_per_s']}x below "
            f"the {floor}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
