"""mine-stream: ``repro mine --stream`` over a million-entry text log.

Set-up writes 1,000,000 text entries of the synthetic stream with 1,000
machines, 3 machine classes and 3 drift epochs.  One timed pass runs
``mine_log_streaming(path, 0.1)`` and then the six-point coverage
curve, as the CLI does.  The run repeats the pass for its time budget
and reports the median rate.

Against pipeline-default this reads text instead of JSONL, streams in
chunks instead of reading eagerly, and has a symptom vocabulary three
times larger (72 clusters instead of about 24), so the pair-count state
is about nine times larger.  No training runs.
"""

from __future__ import annotations

import time
from itertools import islice
from statistics import median
from typing import Dict, List, Tuple

from common import Context, Outcome, layer_metrics, peak_rss_mb, span_table

from repro.mining import noise, streaming
from repro.recoverylog import io as logio
from repro.recoverylog import process
from repro.tracegen import stream

ENTRIES = 1_000_000
STREAM_SHAPE = {"machines": 1_000, "machine_classes": 3, "drift_epochs": 3}
EXPECTED_CLUSTERS = 24 * 3
MINP = 0.1
CURVE_MINPS = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
PREFIX_ENTRIES = 100_000
SETUP_REPEATS = 3
MIN_PASSES = 2


def write_log(ctx: Context, path) -> int:
    config = stream.SyntheticStreamConfig(seed=ctx.seed, **STREAM_SHAPE)
    return logio.write_log_text(
        stream.iter_synthetic_log(config, total_entries=ENTRIES), path
    )


def mine_pass(path) -> Tuple[streaming.StreamingMiningResult, Dict[float, float]]:
    miner, summary = streaming.mine_log_streaming(path, MINP)
    return summary, miner.coverage_curve(minps=CURVE_MINPS)


def _timed_setup(ctx: Context, path) -> float:
    started = time.perf_counter()
    written = ctx.ops.call("write log", write_log, ctx, path)
    elapsed = time.perf_counter() - started
    ctx.ops.check("log entries written", written == ENTRIES, f"got {written}")
    return elapsed


def _timed_pass(ctx: Context, path) -> Tuple[float, tuple]:
    started = time.perf_counter()
    summary, curve = ctx.ops.call("mine pass", mine_pass, path)
    elapsed = time.perf_counter() - started
    ctx.ops.check(
        "cluster count is 24 x 3",
        summary.cluster_count == EXPECTED_CLUSTERS,
        f"got {summary.cluster_count}",
    )
    ctx.ops.check(
        "every entry streamed",
        summary.entry_count == ENTRIES,
        f"got {summary.entry_count}",
    )
    return elapsed, (summary, tuple(sorted(curve.items())))


def _check_eager_prefix(ctx: Context, path) -> None:
    """Eager mining of a bounded prefix equals streaming over it."""
    prefix = list(islice(logio.iter_log_entries(path), PREFIX_ENTRIES))
    eager = process.segment_log(prefix)
    reference = noise.filter_noise(eager.processes, MINP)
    miner = streaming.StreamingMiner()
    streamed = list(miner.segmenter.feed_many(prefix))
    for each in streamed:
        miner.observe(each)
    by_start = sorted(streamed, key=lambda p: (p.start_time, p.machine))
    ctx.ops.check(
        "eager prefix: same processes",
        by_start == list(eager.processes),
        f"{len(by_start)} streamed vs {len(eager.processes)} eager",
    )
    ctx.ops.check(
        "eager prefix: same clusters",
        miner.clustering(MINP).clusters == reference.clustering.clusters,
    )
    ctx.ops.check(
        "eager prefix: same noise fraction",
        miner.noise_fraction(MINP) == reference.noise_fraction,
        f"{miner.noise_fraction(MINP)!r} vs {reference.noise_fraction!r}",
    )


def _sizes() -> Dict[str, object]:
    return {
        "entries": ENTRIES,
        "stream": STREAM_SHAPE,
        "minp": MINP,
        "curve_minps": list(CURVE_MINPS),
        "eager_prefix_entries": PREFIX_ENTRIES,
    }


def _result_figures(summary) -> Dict[str, object]:
    return {
        "processes": summary.process_count,
        "clusters": summary.cluster_count,
        "noise_fraction": summary.noise_fraction,
        "orphans": summary.orphan_count,
        "incomplete": summary.incomplete_count,
    }


def run(ctx: Context) -> Outcome:
    path = ctx.workdir / "stream.log"
    if ctx.trace:
        return _run_traced(ctx, path)
    setups = [_timed_setup(ctx, path) for _ in range(SETUP_REPEATS)]
    passes: List[float] = []
    results = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < ctx.seconds:
        elapsed, result = _timed_pass(ctx, path)
        passes.append(elapsed)
        results.append(result)
    # Read before the eager check, which holds a prefix in memory.
    peak_rss = peak_rss_mb()
    ctx.ops.check(
        "every pass gives the same result",
        all(result == results[0] for result in results),
    )
    _check_eager_prefix(ctx, path)
    rate = median([ENTRIES / elapsed for elapsed in passes])
    metrics = {
        "setup_s": ctx.import_s + median(setups),
        "peak_rss_mb": peak_rss,
        "items_per_s": rate,
    }
    report = {
        "figures": {
            "mine_entries_per_s": {"value": rate, "unit": "entries/s"},
            "pass_s": {"value": median(passes), "unit": "s"},
            "write_s": {"value": median(setups), "unit": "s"},
        },
        "items": "log entries streamed through mining and the coverage curve",
        "passes": len(passes),
        "result": _result_figures(results[0][0]),
        "sizes": _sizes(),
    }
    return Outcome(metrics=metrics, report=report)


def _run_traced(ctx: Context, path) -> Outcome:
    tracer = ctx.tracer
    tracer.install()
    try:
        with tracer.span("stage.setup"):
            _timed_setup(ctx, path)
    finally:
        tracer.uninstall()
    # Untraced passes before and after the traced one, so that a drift in
    # machine speed during the run does not show as tracing overhead.
    before_s, first = _timed_pass(ctx, path)
    tracer.install()
    tracer.run_id = f"pass-{ctx.seed}"
    try:
        with tracer.span("stage.mine"):
            traced_s, again = _timed_pass(ctx, path)
    finally:
        tracer.uninstall()
    after_s, last = _timed_pass(ctx, path)
    untraced_s = (before_s + after_s) / 2.0
    ctx.ops.check("every pass gives the same result", first == again == last)
    _check_eager_prefix(ctx, path)
    summary = again[0]
    metrics = layer_metrics(
        tracer,
        untraced_s,
        traced_s,
        {
            "mining.clusters": summary.cluster_count,
            "mining.noise_fraction": summary.noise_fraction,
        },
    )
    report = {
        "result": _result_figures(summary),
        "spans": span_table(tracer),
        "sizes": _sizes(),
    }
    return Outcome(metrics=metrics, report=report)
