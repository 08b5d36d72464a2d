"""serve-openloop: the decision service under open- and closed-loop load.

Set-up runs ``generate -> train -> export-policy`` at small scale: a
small fleet trace is written as JSONL, read back, segmented and fitted;
the trained table is padded to 50,000 rules with synthetic error types
(a production fleet serves tens of thousands of rules), exported with
``save_policy_binary`` and memory-mapped with ``load_policy_binary``.

One timed unit has two phases:

* open loop: lookups arrive as a Poisson stream at 40,000/s, each drawn
  by index from a pool of 4,096 ``storm_states`` (10% unknown error
  types).  One thread hands every lookup that is due, up to 256, to
  ``DecisionServer.decide_batch``.  Each lookup is timed from its due
  time, and the loop reports how late it dispatched.
* closed loop: ``run_storm`` with batch 1,024 over lookups drawn from
  the same pool, which is what ``repro serve --storm`` runs.

Why one thread and a small pool: a load-generator thread feeding the
server in the same process measures hand-offs of the interpreter lock,
and keeping hundreds of thousands of state objects alive brings
collector pauses of tens of milliseconds, so neither would measure the
service.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median
from typing import Dict, List

import numpy as np
from common import Context, Outcome, layer_metrics, peak_rss_mb, span_table

from repro.actions import default_catalog
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.mdp.state import RecoveryState
from repro.policies import binary
from repro.policies.serialization import load_policy, save_policy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog import io as logio
from repro.serving import DecisionServer, run_storm, storm_states
from repro.tracegen import generator
from repro.tracegen.workload import small_config

RATE_PER_S = 40_000.0
POOL_SIZE = 4_096
UNKNOWN_FRACTION = 0.1
MAX_BATCH = 256
SYNTHETIC_RULES = 50_000
OPEN_LOOP_LOOKUPS = 40_000
STORM_DECISIONS = 51_200
STORM_BATCH = 1_024
SETUP_REPEATS = 3
MIN_UNITS = 5
TRACED_UNITS = 3
#: Allowed distance of the observed fallback share from the pool's
#: unknown fraction; lookups draw from the pool at random.
FALLBACK_SHARE_TOLERANCE = 0.005


def pad_policy(policy: TrainedPolicy, synthetic_rules: int) -> TrainedPolicy:
    """Add ``synthetic_rules`` rules over error types no trace produces."""
    actions = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]
    rules = dict(policy.rules)
    i = 0
    while len(rules) < synthetic_rules + len(policy.rules):
        state = RecoveryState.initial(f"error:synth-{i % 12_800}")
        for depth in range(i // 12_800):
            state = state.after(actions[(i + depth) % 4], False)
        rules.setdefault(state, (actions[i % 4], 60.0 * (1 + i % 2880)))
        i += 1
    return TrainedPolicy(rules, label=policy.name)


def build_policy(ctx: Context):
    """Set-up: train, pad, export and memory-map the served policy."""
    config = small_config(ctx.seed)
    config = dataclasses.replace(
        config, cluster=dataclasses.replace(config.cluster, backend="fleet")
    )
    log_path = ctx.workdir / "small.jsonl"
    policy_path = ctx.workdir / "policy.rpb"
    logio.write_log_jsonl(generator.generate_trace(config).log, log_path)
    processes = logio.read_log(log_path).to_processes()
    learner = RecoveryPolicyLearner(default_catalog(), PipelineConfig())
    policy = pad_policy(learner.fit(processes).trained_policy(), SYNTHETIC_RULES)
    binary.save_policy_binary(policy, policy_path)
    return policy, binary.load_policy_binary(policy_path)


@dataclass
class OpenLoop:
    """Per-lookup latency and queue wait, per-batch dispatch lag."""

    latency_s: np.ndarray
    wait_s: np.ndarray
    dispatch_lag_s: List[float]
    batches: int
    mismatches: int
    expected_fallbacks: int


@dataclass
class Unit:
    """One open-loop window followed by one closed-loop storm."""

    loop: OpenLoop
    storm_s: float
    fallbacks: int
    expected_fallbacks: int


class Service:
    """The served policy, its lookup pool and the reference answers."""

    def __init__(self, ctx: Context, policy: TrainedPolicy, served) -> None:
        catalog = default_catalog()
        self.server = DecisionServer(served, UserDefinedPolicy(catalog))
        self.pool = storm_states(
            served, POOL_SIZE, unknown_fraction=UNKNOWN_FRACTION, seed=ctx.seed
        )
        json_path = ctx.workdir / "policy.json"
        save_policy(policy, json_path)
        reference = DecisionServer(load_policy(json_path), UserDefinedPolicy(catalog))
        answers = reference.decide_batch(self.pool)
        self.expected_action = [answer.action for answer in answers]
        self.expected_fallback = [answer.fell_back for answer in answers]

    def open_loop(self, rng: np.random.Generator) -> "OpenLoop":
        """Serve a Poisson stream; time each lookup from its due time."""
        count = OPEN_LOOP_LOOKUPS
        due = np.cumsum(rng.exponential(1.0 / RATE_PER_S, count))
        picks = rng.integers(0, POOL_SIZE, count).tolist()
        due_list = due.tolist()
        pool = self.pool
        server = self.server
        expected_action = self.expected_action
        expected_fallback = self.expected_fallback
        ends: List[int] = []
        dispatched: List[float] = []
        finished: List[float] = []
        raised: List[bool] = []
        mismatches = 0
        clock = time.perf_counter
        origin = clock()
        i = 0
        while i < count:
            now = clock() - origin
            if due_list[i] > now:
                continue
            j = i + 1
            limit = min(count, i + MAX_BATCH)
            while j < limit and due_list[j] <= now:
                j += 1
            batch_picks = picks[i:j]
            try:
                answers = server.decide_batch([pool[k] for k in batch_picks])
            except Exception:
                traceback.print_exc()
                answers = None
            finished.append(clock() - origin)
            dispatched.append(now)
            ends.append(j)
            raised.append(answers is None)
            if answers is not None:
                for answer, k in zip(answers, batch_picks):
                    if (
                        answer.action != expected_action[k]
                        or answer.fell_back != expected_fallback[k]
                    ):
                        mismatches += 1
            i = j
        sizes = np.diff(np.asarray([0] + ends))
        heads = np.asarray([0] + ends[:-1])
        latency = np.repeat(np.asarray(finished), sizes) - due
        # A lookup whose batch raised counts as over every limit.
        latency[np.repeat(np.asarray(raised), sizes)] = np.inf
        return OpenLoop(
            latency_s=latency,
            wait_s=np.repeat(np.asarray(dispatched), sizes) - due,
            dispatch_lag_s=(np.asarray(dispatched) - due[heads]).tolist(),
            batches=len(ends),
            mismatches=mismatches,
            expected_fallbacks=sum(expected_fallback[k] for k in picks),
        )

    def unit(self, ctx: Context, index: int) -> Unit:
        rng = np.random.default_rng([ctx.seed, index])
        fallbacks_before = self.server.fallback_count
        loop = self.open_loop(rng)
        picks = rng.integers(0, POOL_SIZE, STORM_DECISIONS).tolist()
        states = [self.pool[k] for k in picks]
        started = time.perf_counter()
        report = run_storm(self.server, states, batch_size=STORM_BATCH)
        storm_s = time.perf_counter() - started
        expected_storm = sum(self.expected_fallback[k] for k in picks)
        ctx.ops.check(
            "storm answered every lookup",
            report.decisions == STORM_DECISIONS,
            f"got {report.decisions}",
        )
        ctx.ops.check(
            "storm fallbacks match the reference",
            report.fallbacks == expected_storm,
            f"{report.fallbacks} vs {expected_storm}",
        )
        return Unit(
            loop=loop,
            storm_s=storm_s,
            fallbacks=self.server.fallback_count - fallbacks_before,
            expected_fallbacks=loop.expected_fallbacks + expected_storm,
        )


def _check_units(ctx: Context, units: List[Unit]) -> None:
    lookups = len(units) * (OPEN_LOOP_LOOKUPS + STORM_DECISIONS)
    failed = sum(int(np.isinf(unit.loop.latency_s).sum()) for unit in units)
    mismatches = sum(unit.loop.mismatches for unit in units)
    ctx.ops.count(lookups, failed + mismatches)
    if mismatches:
        print(f"check failed: {mismatches} answers differ from the "
              "JSON-loaded reference", file=sys.stderr)
    fallbacks = sum(unit.fallbacks for unit in units)
    expected = sum(unit.expected_fallbacks for unit in units)
    ctx.ops.check(
        "fallbacks match the reference",
        fallbacks == expected,
        f"{fallbacks} vs {expected}",
    )
    share = fallbacks / lookups
    ctx.ops.check(
        "fallback share is the unknown fraction",
        abs(share - UNKNOWN_FRACTION) <= FALLBACK_SHARE_TOLERANCE,
        f"got {share!r}",
    )


def _serving_figures(units: List[Unit]) -> Dict[str, Dict[str, object]]:
    latency = np.concatenate([unit.loop.latency_s for unit in units])
    wait = np.concatenate([unit.loop.wait_s for unit in units])
    lag = [value for unit in units for value in unit.loop.dispatch_lag_s]
    dps = median([STORM_DECISIONS / unit.storm_s for unit in units])
    return {
        "serve_p50_ms": {"value": float(np.percentile(latency, 50)) * 1e3, "unit": "ms"},
        "serve_p99_ms": {"value": float(np.percentile(latency, 99)) * 1e3, "unit": "ms"},
        "serve_storm_dps": {"value": dps, "unit": "decisions/s"},
        "queue_wait_p50_ms": {"value": float(np.percentile(wait, 50)) * 1e3, "unit": "ms"},
        "dispatch_lag_max_ms": {"value": max(lag) * 1e3, "unit": "ms"},
        "open_loop_lookups": {"value": int(latency.size), "unit": "count"},
        "open_loop_batches": {
            "value": sum(unit.loop.batches for unit in units),
            "unit": "count",
        },
    }


def _sizes() -> Dict[str, object]:
    return {
        "trace": "small_config(seed), fleet backend",
        "synthetic_rules": SYNTHETIC_RULES,
        "pool": POOL_SIZE,
        "unknown_fraction": UNKNOWN_FRACTION,
        "rate_per_s": RATE_PER_S,
        "max_batch": MAX_BATCH,
        "open_loop_lookups_per_unit": OPEN_LOOP_LOOKUPS,
        "storm_decisions_per_unit": STORM_DECISIONS,
        "storm_batch": STORM_BATCH,
    }


def _timed_setup(ctx: Context):
    started = time.perf_counter()
    built = ctx.ops.call("build policy", build_policy, ctx)
    return time.perf_counter() - started, built


def run(ctx: Context) -> Outcome:
    if ctx.trace:
        return _run_traced(ctx)
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, (policy, served) = _timed_setup(ctx)
        setups.append(elapsed)
    service = Service(ctx, policy, served)
    units: List[Unit] = []
    started = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - started < ctx.seconds:
        units.append(service.unit(ctx, len(units)))
    peak_rss = peak_rss_mb()
    _check_units(ctx, units)
    figures = _serving_figures(units)
    metrics = {
        "setup_s": ctx.import_s + median(setups),
        "peak_rss_mb": peak_rss,
        "items_per_s": figures["serve_storm_dps"]["value"],
    }
    report = {
        "figures": figures,
        "items": "closed-loop storm decisions",
        "units": len(units),
        "rules": len(policy),
        "sizes": _sizes(),
    }
    return Outcome(metrics=metrics, report=report)


def _run_traced(ctx: Context) -> Outcome:
    tracer = ctx.tracer
    tracer.install()
    try:
        with tracer.span("stage.setup"):
            _elapsed, (policy, served) = _timed_setup(ctx)
    finally:
        tracer.uninstall()
    service = Service(ctx, policy, served)
    # Untraced units before and after the traced ones, so that a drift in
    # machine speed during the run does not show as tracing overhead.
    started = time.perf_counter()
    untraced = [service.unit(ctx, index) for index in range(TRACED_UNITS)]
    before_s = time.perf_counter() - started
    decisions_before = service.server.decision_count
    fallbacks_before = service.server.fallback_count
    tracer.install()
    try:
        started = time.perf_counter()
        traced = []
        for index in range(TRACED_UNITS):
            tracer.run_id = f"unit-{index}"
            with tracer.span("stage.serve"):
                traced.append(service.unit(ctx, index))
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    decisions = service.server.decision_count - decisions_before
    fallback_frac = (service.server.fallback_count - fallbacks_before) / decisions
    started = time.perf_counter()
    untraced += [service.unit(ctx, index) for index in range(TRACED_UNITS)]
    untraced_s = (before_s + time.perf_counter() - started) / 2.0
    _check_units(ctx, untraced + traced)
    figures = _serving_figures(traced)
    metrics = layer_metrics(
        tracer,
        untraced_s,
        traced_s,
        {
            "serving.queue_wait_p50_ms": figures["queue_wait_p50_ms"]["value"],
            "serving.dispatch_lag_max_ms": figures["dispatch_lag_max_ms"]["value"],
            "serving.hit_frac": 1.0 - fallback_frac,
            "serving.fallback_frac": fallback_frac,
        },
    )
    report = {
        "figures": figures,
        "spans": span_table(tracer),
        "rules": len(policy),
        "sizes": _sizes(),
    }
    return Outcome(metrics=metrics, report=report)
