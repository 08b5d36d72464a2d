"""Training-throughput baseline: reference oracle vs the trainer.

Trains the largest error types of a fixed-seed scenario twice — with
the frozen session-driven course over a dict Q table kept in
``tests/oracles/qlearning_reference.py`` (reported under ``"dict"``) and
with ``QLearningTrainer`` (reported under ``"array"``) — and reports
wall-clock, episodes/sec and sweeps/sec for each.  The two are
bit-identical by contract (same RNG draw sequence, Q values and
convergence sweeps), so the benchmark first asserts exact equality of
every training outcome and only then reports throughput — a throughput
measured against diverging results would be meaningless.

The regression guard is ``--against`` (shared with the fleet bench in
``benchguard.py``): the trainer's episodes/sec must stay within
``--max-overhead`` (default 5%) of a baseline artifact measured on the
same workload.  It is enforced only when the baseline records this
machine's fingerprint (nproc, CPU model, Python, numpy); against a
baseline taken elsewhere it prints the comparison as advisory and
cannot fail, because throughput on another machine is no reference.
Each trainer's figure is the median of the profile's repeats.  The
oracle/trainer speedup is reported but not gated: the oracle is a test
fixture, not the product.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --profile full --against BENCH_training_throughput.json
    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --check BENCH_training_throughput.json

The committed ``BENCH_training_throughput.json`` at the repo root holds
the ``full`` profile's numbers and the machine they were taken on.
Schema::

    {"bench": "training_throughput", "commit": "<sha>",
     "src_sha256": "<sha256 of src/repro>",
     "machine": {"nproc": .., "cpu": "..", "python": "..", "numpy": ".."},
     "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import build_scenario, default_scenario
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.simplatform.platform import SimulationPlatform
from repro.tracegen.workload import small_config
from repro.util.tables import render_table

import benchguard

sys.path.insert(0, str(benchguard.ROOT / "tests"))
from oracles.qlearning_reference import ReferenceTrainer  # noqa: E402

BENCH_NAME = "training_throughput"

#: Artifact key -> trainer class: the reference oracle and the trainer.
#: The keys predate the oracle's move into the tests and are kept so
#: committed artifacts stay comparable.
TRAINERS = {"dict": ReferenceTrainer, "array": QLearningTrainer}

#: Profile -> (error types trained, sweep cap, timing repeats).  The
#: smoke profile finishes in seconds; the full profile is the committed
#: baseline the ``--against`` guard compares with.
PROFILES = {
    "smoke": {"top_types": 2, "max_sweeps": 25, "repeats": 1},
    "full": {"top_types": 3, "max_sweeps": 120, "repeats": 5},
}

#: Workload fields two artifacts must share before their throughputs
#: can be compared (the episode count pins the training outcome).
WORKLOAD = (
    "profile",
    "error_types",
    "training_processes",
    "max_sweeps",
    "seed",
    "backends.array.episodes",
)

#: The guarded rate: the trainer's episodes per wall-clock second.
RATE = "backends.array.episodes_per_s"


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
    identical results; the median wall-clock is reported, so neither
    one lucky nor one preempted repeat sets the figure.
    """
    timings: List[float] = []
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
        timings.append(time.perf_counter() - started)
    elapsed = statistics.median(timings)
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
    if not isinstance(payload.get("src_sha256"), str):
        problems.append("src_sha256 must be a string")
    machine = payload.get("machine")
    if not isinstance(machine, dict) or not all(
        key in machine for key in ("nproc", "cpu", "python", "numpy")
    ):
        problems.append("machine must record nproc, cpu, python and numpy")
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
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing artifact's schema and exit",
    )
    parser.add_argument(
        "--against",
        metavar="FILE",
        default=None,
        help="overhead guard: compare the trainer's episodes/s against a "
        "baseline artifact of the same profile and fail on a loss beyond "
        "--max-overhead (advisory only when the baseline was taken on "
        "another machine)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="tolerated fractional throughput loss vs --against "
        "(default 0.05 = 5%%)",
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
        "commit": benchguard.commit(),
        "src_sha256": benchguard.source_digest(),
        "machine": benchguard.machine(),
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
    print(f"speedup over the oracle (episodes/s, not gated): "
          f"{metrics['speedup_episodes_per_s']}x")

    if not metrics["bit_identical"]:
        print("FAIL: trainer diverged from the reference oracle",
              file=sys.stderr)
        return 1
    if args.against is not None:
        with open(args.against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        same_machine = baseline.get("machine") == payload["machine"]
        if not same_machine:
            print(
                f"baseline machine {baseline.get('machine')} differs from "
                f"this machine {payload['machine']}: the throughput "
                "comparison is advisory"
            )
        return benchguard.run_guard(
            metrics,
            baseline,
            workload=WORKLOAD,
            rate=RATE,
            unit="episodes/s",
            max_overhead=args.max_overhead,
            enforce=same_machine,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
