"""Shared pieces of the workloads: failure accounting, metric tables,
provenance and the per-layer summary of a traced run."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed kept out of every run made while the benchmark was built, for
#: later held-out checks of a claimed gain.
HELD_OUT_SEED = 8111

#: End-to-end metrics (untraced runs): name -> unit.  Every workload
#: reports all of them; what an "item" is depends on the workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer a workload
#: never calls reports 0.
PER_LAYER = {
    "tracegen.generate_s": "s",
    "tracegen.entries": "count",
    "recoverylog.write_s": "s",
    "recoverylog.read_s": "s",
    "recoverylog.segment_s": "s",
    "recoverylog.processes": "count",
    "mining.filter_noise_s": "s",
    "mining.feed_s": "s",
    "mining.result_s": "s",
    "mining.clusters": "count",
    "mining.noise_fraction": "ratio",
    "learning.train_type_s": "s",
    "learning.q_loop_s": "s",
    "learning.episodes": "count",
    "learning.sweeps": "count",
    "learning.types": "count",
    "learning.tree_eval_s": "s",
    "learning.tree_eval_calls": "count",
    "learning.tree_eval_distinct": "count",
    "learning.tree_eval_useful_frac": "ratio",
    "simplatform.build_s": "s",
    "simplatform.replay_calls": "count",
    "simplatform.replay_s": "s",
    "simplatform.replay_many_s": "s",
    "simplatform.replay_many_processes": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.processes": "count",
    "evaluation.skipped": "count",
    "policies.save_binary_s": "s",
    "policies.load_binary_s": "s",
    "policies.rules": "count",
    "serving.decide_batch_s": "s",
    "serving.batches": "count",
    "serving.mean_batch": "count",
    "serving.queue_wait_p50_ms": "ms",
    "serving.dispatch_lag_max_ms": "ms",
    "serving.hit_frac": "ratio",
    "serving.fallback_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class StageFailed(Exception):
    """A counted operation raised; the traceback is already printed."""


class Ops:
    """Operations attempted and failed: stages, lookups and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn: Callable, *args, **kwargs):
        """Run one counted operation; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            print(f"operation {label!r} raised:", file=sys.stderr)
            traceback.print_exc()
            raise StageFailed(label) from exc

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count one output check; a false one is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {label} {detail}".rstrip(), file=sys.stderr)
        return ok

    def count(self, attempted: int, failed: int) -> None:
        """Add a batch of operations counted elsewhere (lookups)."""
        self.attempted += attempted
        self.failed += failed


@dataclass
class Context:
    """What a workload receives: its seed, budget and bookkeeping."""

    seed: int
    seconds: float
    trace: bool
    import_s: float
    workdir: Path
    ops: Ops = field(default_factory=Ops)
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Outcome:
    """What a workload returns.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one; ``report`` holds the workload's
    own named figures and sizes, printed beside the result line.
    """

    metrics: Dict[str, float]
    report: Dict[str, object]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    """SHA-256 over ``src/repro`` (path and bytes of every .py file)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, sizes: Dict[str, object]) -> Dict[str, object]:
    """Where a result came from: code, machine, seed and input sizes."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "sizes": sizes,
    }


def layer_metrics(
    tracer: Tracer,
    untraced_s: float,
    traced_s: float,
    gauges: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Times are summed span durations, except ``recoverylog.write_s`` and
    ``learning.q_loop_s``, which are self times: the write span of a
    lazily generated log contains the generator's spans, and the Q-loop
    span contains the selection-tree evaluations.  ``gauges`` supplies
    values the workload measures itself (clusters, serving shares).
    """
    totals = tracer.totals()
    selfs = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counters
    tree_calls = calls.get("learning.tree_eval", 0)
    tree_distinct = tracer.distinct_count("learning.tree_eval")
    batches = calls.get("serving.decide_batch", 0)
    metrics: Dict[str, float] = {
        "tracegen.generate_s": totals.get("tracegen.generate", 0.0),
        "tracegen.entries": counts["tracegen.entries"],
        "recoverylog.write_s": selfs.get("recoverylog.write", 0.0),
        "recoverylog.read_s": totals.get("recoverylog.read", 0.0),
        "recoverylog.segment_s": totals.get("recoverylog.segment", 0.0),
        "recoverylog.processes": counts["recoverylog.processes"],
        "mining.filter_noise_s": totals.get("mining.filter_noise", 0.0),
        "mining.feed_s": totals.get("mining.feed", 0.0),
        "mining.result_s": totals.get("mining.result", 0.0),
        "learning.train_type_s": totals.get("learning.train_type", 0.0),
        "learning.q_loop_s": selfs.get("learning.q_loop", 0.0),
        "learning.episodes": counts["learning.episodes"],
        "learning.sweeps": counts["learning.sweeps"],
        "learning.types": counts["learning.types"],
        "learning.tree_eval_s": totals.get("learning.tree_eval", 0.0),
        "learning.tree_eval_calls": tree_calls,
        "learning.tree_eval_distinct": tree_distinct,
        "learning.tree_eval_useful_frac": (
            tree_distinct / tree_calls if tree_calls else 0.0
        ),
        "simplatform.build_s": totals.get("simplatform.build", 0.0),
        "simplatform.replay_calls": calls.get("simplatform.replay", 0),
        "simplatform.replay_s": totals.get("simplatform.replay", 0.0),
        "simplatform.replay_many_s": totals.get("simplatform.replay_many", 0.0),
        "simplatform.replay_many_processes": counts[
            "simplatform.replay_many_processes"
        ],
        "evaluation.evaluate_s": totals.get("evaluation.evaluate", 0.0),
        "evaluation.processes": counts["evaluation.processes"],
        "evaluation.skipped": counts["evaluation.skipped"],
        "policies.save_binary_s": totals.get("policies.save_binary", 0.0),
        "policies.load_binary_s": totals.get("policies.load_binary", 0.0),
        "policies.rules": counts["policies.rules"],
        "serving.decide_batch_s": totals.get("serving.decide_batch", 0.0),
        "serving.batches": batches,
        "serving.mean_batch": (
            counts["serving.lookups"] / batches if batches else 0.0
        ),
        "mining.clusters": 0,
        "mining.noise_fraction": 0.0,
        "serving.queue_wait_p50_ms": 0.0,
        "serving.dispatch_lag_max_ms": 0.0,
        "serving.hit_frac": 0.0,
        "serving.fallback_frac": 0.0,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    metrics.update(gauges)
    return metrics


def span_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per span name (for the report)."""
    totals = tracer.totals()
    selfs = tracer.self_times()
    calls = tracer.calls()
    return {
        name: {
            "calls": calls[name],
            "total_s": totals[name],
            "self_s": selfs[name],
        }
        for name in sorted(totals)
    }

