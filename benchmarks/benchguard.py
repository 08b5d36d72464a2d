"""Provenance stamps and the throughput guard shared by the benchmarks.

``bench_training_throughput.py`` and ``bench_fleet_scale.py`` write
JSON artifacts stamped with the commit they measured and compare a
fresh run against a committed baseline artifact with ``--against``:
a throughput loss beyond ``--max-overhead`` (5% by default) fails.

The guard first requires both artifacts to describe the same workload,
because the ratio of two different workloads means nothing.  A
throughput figure measured on one machine says nothing about another,
so a caller may pass ``enforce=False`` (the training bench does when
the baseline's recorded machine differs from this one): the guard's
findings are then printed as advisory and cannot fail the run.

Paths into an artifact's ``metrics`` object are dotted strings, e.g.
``"backends.array.episodes_per_s"``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def commit() -> str:
    """``git rev-parse HEAD``, suffixed ``-dirty`` when ``src/`` has
    uncommitted changes (``source_digest`` then pins the measured code)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def source_digest() -> str:
    """SHA-256 over ``src/repro`` (path and bytes of every .py file)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> Dict[str, object]:
    """The fingerprint a throughput figure is only comparable under."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def lookup(metrics: Mapping[str, object], path: str) -> object:
    """The value at a dotted ``path`` in ``metrics`` (None if absent)."""
    value: object = metrics
    for key in path.split("."):
        if not isinstance(value, Mapping):
            return None
        value = value.get(key)
    return value


def check_overhead(
    metrics: Mapping[str, object],
    baseline: Mapping[str, object],
    *,
    workload: Sequence[str],
    rate: str,
    unit: str,
    max_overhead: float = 0.05,
) -> List[str]:
    """Problems with this run's ``rate`` against a baseline artifact.

    The fields named by ``workload`` must match, else each mismatch is
    a problem and the rates are not compared; otherwise a loss of more
    than ``max_overhead`` of the baseline rate is the one problem.
    """
    base_metrics = baseline.get("metrics")
    if not isinstance(base_metrics, Mapping):
        return ["baseline has no metrics object"]
    problems = [
        f"workloads differ on {path}: baseline "
        f"{lookup(base_metrics, path)!r} vs current "
        f"{lookup(metrics, path)!r}; the guard needs identical workloads"
        for path in workload
        if lookup(base_metrics, path) != lookup(metrics, path)
    ]
    if problems:
        return problems
    base_rate = lookup(base_metrics, rate)
    current = lookup(metrics, rate)
    if not isinstance(base_rate, (int, float)) or base_rate <= 0:
        return [f"baseline {rate} must be positive"]
    overhead = (base_rate - current) / base_rate
    if overhead > max_overhead:
        return [
            f"{rate} {current:,} {unit} is {overhead:.1%} below the "
            f"baseline {base_rate:,} (tolerated: {max_overhead:.0%})"
        ]
    return []


def run_guard(
    metrics: Mapping[str, object],
    baseline: Mapping[str, object],
    *,
    workload: Sequence[str],
    rate: str,
    unit: str,
    max_overhead: float = 0.05,
    enforce: bool = True,
) -> int:
    """Print the guard's verdict and return the exit status it implies:
    1 when it found a problem and ``enforce`` is true, else 0."""
    problems = check_overhead(
        metrics,
        baseline,
        workload=workload,
        rate=rate,
        unit=unit,
        max_overhead=max_overhead,
    )
    label = "FAIL" if enforce else "ADVISORY (not enforced)"
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)
    if problems:
        return 1 if enforce else 0
    base_rate = lookup(baseline["metrics"], rate)
    current = lookup(metrics, rate)
    print(
        f"overhead guard{'' if enforce else ' (advisory)'}: "
        f"{current:,} vs baseline {base_rate:,} {unit} "
        f"({(base_rate - current) / base_rate:+.1%} overhead, "
        f"{max_overhead:.0%} tolerated)"
    )
    return 0
