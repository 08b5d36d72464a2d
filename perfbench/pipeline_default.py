"""pipeline-default: the paper's pipeline at the ROADMAP baseline scale.

One trace is ``default_config(seed)`` on the fleet backend (about 60k
log entries and 12k recovery processes), taken through five stages in
this process: simulate (generate + JSONL write), ingest (eager read,
segmentation, 40/60 time-ordered split, noise filter of the held-out
part), train (``RecoveryPolicyLearner(PipelineConfig())`` on the first
40%), evaluate (user-defined, trained and hybrid policies on the
filtered held-out part, as ``repro evaluate`` does) and export
(``save_policy_binary``).

Training time moves by about a sixth of its median from one seed to the
next, so a run takes at least three traces, with seeds ``seed``,
``seed + 10000`` and ``seed + 20000``, and then runs the first again,
which must give the same policy bytes and the same relative downtimes.
The figures cover all four traces.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List

from common import Context, Outcome, file_sha256, layer_metrics, peak_rss_mb, span_table

from repro.actions import default_catalog
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.evaluation.evaluator import PolicyEvaluator
from repro.mining import noise
from repro.policies import binary
from repro.policies.hybrid import HybridPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog import io as logio
from repro.recoverylog.process import time_ordered_split
from repro.tracegen import generator
from repro.tracegen.workload import default_config

TRAIN_FRACTION = 0.4
MIN_TRACES = 3
TRACE_SEED_STRIDE = 10_000
STAGES = ("simulate", "ingest", "train", "evaluate", "export")


@dataclass
class PipelineRun:
    seed: int
    stage_s: Dict[str, float]
    entries: int
    processes: int
    clusters: int
    noise_fraction: float
    rules: int
    policy_sha256: str
    trained_relative_downtime: float
    hybrid_relative_downtime: float
    hybrid_coverage: float

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())

    def outputs(self) -> tuple:
        """What must repeat exactly when the same seed runs again."""
        return (
            self.policy_sha256,
            self.trained_relative_downtime,
            self.hybrid_relative_downtime,
        )


def run_pipeline(ctx: Context, seed: int) -> PipelineRun:
    """Take one trace through all five stages, timing each."""
    config = default_config(seed)
    config = dataclasses.replace(
        config, cluster=dataclasses.replace(config.cluster, backend="fleet")
    )
    log_path = ctx.workdir / f"fleet-{seed}.jsonl"
    policy_path = ctx.workdir / f"policy-{seed}.rpb"
    catalog = default_catalog()
    stage_s: Dict[str, float] = {}

    def stage(name, fn, *args):
        started = time.perf_counter()
        with ctx.tracer.span(f"stage.{name}"):
            result = ctx.ops.call(f"{name}:{seed}", fn, *args)
        stage_s[name] = time.perf_counter() - started
        return result

    def simulate():
        trace = generator.generate_trace(config)
        return logio.write_log_jsonl(trace.log, log_path)

    def ingest():
        processes = logio.read_log(log_path).to_processes()
        train, test = time_ordered_split(processes, TRAIN_FRACTION)
        return len(processes), train, noise.filter_noise(test)

    def train(train_set):
        learner = RecoveryPolicyLearner(catalog, PipelineConfig())
        return learner.fit(train_set).trained_policy()

    def evaluate(policy, held_out):
        evaluator = PolicyEvaluator(
            held_out, catalog, error_types=policy.error_types()
        )
        user = UserDefinedPolicy(catalog)
        return (
            evaluator.evaluate(user),
            evaluator.evaluate(policy),
            evaluator.evaluate(HybridPolicy(policy, user)),
        )

    def export(policy):
        return binary.save_policy_binary(policy, policy_path)

    entries = stage("simulate", simulate)
    processes, train_set, filtered = stage("ingest", ingest)
    policy = stage("train", train, train_set)
    _user, trained, hybrid = stage("evaluate", evaluate, policy, filtered.clean)
    rules = stage("export", export, policy)
    return PipelineRun(
        seed=seed,
        stage_s=stage_s,
        entries=entries,
        processes=processes,
        clusters=filtered.clustering.cluster_count(),
        noise_fraction=filtered.noise_fraction,
        rules=rules,
        policy_sha256=file_sha256(policy_path),
        trained_relative_downtime=trained.overall_relative_cost,
        hybrid_relative_downtime=hybrid.overall_relative_cost,
        hybrid_coverage=hybrid.overall_coverage,
    )


def _check_run(ctx: Context, run: PipelineRun) -> None:
    ctx.ops.check(
        f"hybrid coverage is 100% (seed {run.seed})",
        run.hybrid_coverage == 1.0,
        f"got {run.hybrid_coverage!r}",
    )


def _check_repeat(ctx: Context, first: PipelineRun, again: PipelineRun) -> None:
    ctx.ops.check(
        f"same policy bytes and downtimes on a rerun of seed {first.seed}",
        first.outputs() == again.outputs(),
        f"{first.outputs()} != {again.outputs()}",
    )


def _figures(runs: List[PipelineRun]) -> Dict[str, Dict[str, object]]:
    """The workload's named figures: stage means over the traces."""
    count = len(runs)
    figures: Dict[str, Dict[str, object]] = {}
    for name in STAGES:
        figures[f"{name}_s"] = {
            "value": sum(run.stage_s[name] for run in runs) / count,
            "unit": "s",
        }
    figures["pipeline_s"] = {
        "value": sum(run.wall_s for run in runs) / count,
        "unit": "s",
    }
    first = runs[0]
    figures["trained_relative_downtime"] = {
        "value": first.trained_relative_downtime,
        "unit": "ratio",
    }
    figures["hybrid_relative_downtime"] = {
        "value": first.hybrid_relative_downtime,
        "unit": "ratio",
    }
    return figures


def _sizes(runs: List[PipelineRun]) -> Dict[str, object]:
    return {
        "trace_seeds": [run.seed for run in runs],
        "entries": [run.entries for run in runs],
        "processes": [run.processes for run in runs],
        "rules": [run.rules for run in runs],
        "train_fraction": TRAIN_FRACTION,
    }


def run(ctx: Context) -> Outcome:
    if ctx.trace:
        return _run_traced(ctx)
    # Nothing to prepare beyond importing the program.
    setup_s = ctx.import_s
    runs: List[PipelineRun] = []
    started = time.perf_counter()
    while (
        len(runs) < MIN_TRACES or time.perf_counter() - started < ctx.seconds
    ):
        runs.append(run_pipeline(ctx, ctx.seed + TRACE_SEED_STRIDE * len(runs)))
    runs.append(run_pipeline(ctx, ctx.seed))
    peak_rss = peak_rss_mb()
    for each in runs:
        _check_run(ctx, each)
    _check_repeat(ctx, runs[0], runs[-1])
    entries = sum(run.entries for run in runs)
    wall = sum(run.wall_s for run in runs)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "items_per_s": entries / wall,
    }
    report = {
        "figures": _figures(runs),
        "items": "log entries carried from simulation to exported policy",
        "sizes": _sizes(runs),
    }
    return Outcome(metrics=metrics, report=report)


def _run_traced(ctx: Context) -> Outcome:
    # Untraced runs before and after the traced one, so that a drift in
    # machine speed during the run does not show as tracing overhead.
    before = run_pipeline(ctx, ctx.seed)
    tracer = ctx.tracer
    tracer.install()
    tracer.run_id = f"trace-{ctx.seed}"
    try:
        traced = run_pipeline(ctx, ctx.seed)
    finally:
        tracer.uninstall()
    after = run_pipeline(ctx, ctx.seed)
    _check_run(ctx, traced)
    _check_repeat(ctx, before, traced)
    _check_repeat(ctx, before, after)
    metrics = layer_metrics(
        tracer,
        (before.wall_s + after.wall_s) / 2.0,
        traced.wall_s,
        {
            "mining.clusters": traced.clusters,
            "mining.noise_fraction": traced.noise_fraction,
        },
    )
    report = {
        "figures": _figures([traced]),
        "stage_layer_coverage": {
            name: tracer.child_coverage(f"stage.{name}") for name in STAGES
        },
        "spans": span_table(tracer),
        "sizes": _sizes([traced]),
    }
    return Outcome(metrics=metrics, report=report)
