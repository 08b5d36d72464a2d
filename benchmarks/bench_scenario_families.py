"""Scenario-family experiment bundle: the committed per-family results.

Runs the full generate → mine → train → evaluate pipeline once per
workload family (stationary, drift, heterogeneous, cascade) via
:func:`repro.experiments.families.scenario_families` and writes the
results as a committed JSON artifact — the proof that every family is
runnable end-to-end, plus a drift anchor for the policy comparison.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_scenario_families.py \
        --profile small --out BENCH_scenario_families.json
    PYTHONPATH=src python benchmarks/bench_scenario_families.py \
        --check BENCH_scenario_families.json

Schema::

    {"bench": "scenario_families", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.families import FAMILY_NAMES, scenario_families
from repro.tracegen.workload import default_config, small_config

import benchguard

BENCH_NAME = "scenario_families"
SEED = 7

PROFILES = {
    "small": lambda: small_config(seed=SEED),
    "default": lambda: default_config(seed=SEED),
}


def run(profile: str, fraction: float) -> Dict[str, object]:
    started = time.perf_counter()
    report = scenario_families(PROFILES[profile](), fraction=fraction)
    elapsed = time.perf_counter() - started
    payload = report.to_dict()
    payload["profile"] = profile
    payload["seed"] = SEED
    payload["wall_clock_s"] = round(elapsed, 4)
    return payload


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
    families = metrics.get("families")
    if not isinstance(families, list):
        return problems + ["metrics.families must be a list"]
    seen = []
    for entry in families:
        if not isinstance(entry, dict):
            problems.append("every family entry must be an object")
            continue
        name = entry.get("family")
        seen.append(name)
        for key in ("user_cost", "trained_cost", "hybrid_cost"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{name}.{key} must be a positive number")
        count = entry.get("process_count")
        if not isinstance(count, int) or count < 100:
            problems.append(
                f"{name}.process_count must be an int >= 100 (the "
                "evaluation is meaningless on a near-empty trace)"
            )
    missing = [f for f in FAMILY_NAMES if f not in seen]
    if missing:
        problems.append(f"families missing from the bundle: {missing}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="small"
    )
    parser.add_argument("--fraction", type=float, default=0.6)
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

    metrics = run(args.profile, args.fraction)
    payload = {
        "bench": BENCH_NAME,
        "commit": benchguard.commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    problems = check_payload(payload)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(
        f"\n{len(metrics['families'])} families in "
        f"{metrics['wall_clock_s']}s ({args.profile} profile)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
