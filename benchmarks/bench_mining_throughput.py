"""Streaming-mining throughput and bounded-memory envelope.

Three measurements:

* **stream** — runs FIRST so the process's peak RSS reflects it: a
  synthetic recovery log of ``entries`` entries (100M in the full
  profile) is produced as a pure iterator and mined end to end by the
  streaming pipeline — segmentation, incremental co-occurrence counts,
  clustering, noise fraction — without the log ever being materialized.
  Pins entries/s against a floor and peak RSS against a cap that sits
  far below what holding the log in memory would cost.
* **equivalence** — a bounded prefix of the same stream is mined by
  both the eager in-memory reference and the streaming path; process
  counts, clusters and the noise fraction must match exactly.  A
  throughput number against diverging results would be meaningless.
  This stage also measures what materializing the prefix costs, scaled
  up to estimate the full log's in-memory footprint.
* **write** — the buffered log writers against the historical writer
  shape (one ``handle.write`` per entry; default ``json.dumps``
  separators for jsonl), both formats, best-of-N to beat timer noise.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_mining_throughput.py \
        --profile smoke --out BENCH_mining_throughput.json
    PYTHONPATH=src python benchmarks/bench_mining_throughput.py \
        --check BENCH_mining_throughput.json

The committed ``BENCH_mining_throughput.json`` at the repo root holds
the ``full`` profile's numbers.  Schema::

    {"bench": "mining_throughput", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Optional, Sequence

from repro.mining.noise import filter_noise
from repro.mining.streaming import StreamingMiner
from repro.recoverylog.io import write_log_jsonl, write_log_text
from repro.recoverylog.process import segment_log
from repro.tracegen.stream import SyntheticStreamConfig, iter_synthetic_log
from repro.util.tables import render_table

import benchguard

BENCH_NAME = "mining_throughput"
SEED = 11
MINP = 0.5

#: Profile -> workload sizes, the entries/s floor the stream stage must
#: clear, and the peak-RSS cap that makes "bounded memory" a checked
#: claim rather than a slogan.  The smoke profile keeps CI fast and is
#: conservative about shared-runner noise; the full profile is the
#: committed baseline: a 100M-entry log mined end to end in well under
#: 2 GiB of resident memory.
PROFILES = {
    "smoke": {
        "machines": 500,
        "entries": 200_000,
        "equivalence_entries": 100_000,
        "write_entries": 50_000,
        "min_entries_per_s": 20_000.0,
        "max_peak_rss_mb": 1_536.0,
    },
    "full": {
        "machines": 1_000,
        "entries": 100_000_000,
        "equivalence_entries": 2_000_000,
        "write_entries": 500_000,
        "min_entries_per_s": 50_000.0,
        "max_peak_rss_mb": 2_048.0,
    },
}

#: Entries sampled when estimating the cost of materializing the log.
_ESTIMATE_SAMPLE = 100_000


def _config(machines: int) -> SyntheticStreamConfig:
    return SyntheticStreamConfig(machines=machines, seed=SEED)


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; it only ever grows, which is why the
    # stream stage must run before anything materializes entries.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bench_stream(machines: int, entries: int) -> Dict[str, object]:
    miner = StreamingMiner()
    started = time.perf_counter()
    consumed = miner.feed(
        iter_synthetic_log(_config(machines), total_entries=entries)
    )
    mine_s = time.perf_counter() - started
    clustering = miner.clustering(MINP)
    peak_rss = _peak_rss_mb()
    return {
        "machines": machines,
        "entries": consumed,
        "wall_clock_s": round(mine_s, 2),
        "entries_per_s": round(consumed / mine_s, 1),
        "processes": miner.process_count,
        "clusters": clustering.cluster_count(),
        "noise_fraction": round(miner.noise_fraction(MINP), 6),
        "distinct_transactions": len(miner.transaction_counts()),
        "open_buffer_entries": miner.segmenter.open_entry_count,
        "orphans": miner.segmenter.orphan_count,
        "peak_rss_mb": round(peak_rss, 1),
    }


def _estimate_materialized_mb(machines: int, entries: int) -> float:
    """Scaled cost of holding the whole log in memory as a list."""
    sample = min(entries, _ESTIMATE_SAMPLE)
    tracemalloc.start()
    held = list(
        islice(iter_synthetic_log(_config(machines)), sample)
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del held
    return peak / sample * entries / 1e6


def _bench_equivalence(machines: int, entries: int) -> Dict[str, object]:
    prefix = list(
        iter_synthetic_log(_config(machines), total_entries=entries)
    )

    started = time.perf_counter()
    eager_seg = segment_log(prefix)
    eager = filter_noise(eager_seg.processes, MINP)
    eager_s = time.perf_counter() - started

    started = time.perf_counter()
    miner = StreamingMiner()
    miner.feed(prefix)
    summary = miner.result(MINP)
    stream_s = time.perf_counter() - started

    equivalent = (
        summary.process_count == len(eager_seg.processes)
        and miner.clustering(MINP).clusters == eager.clustering.clusters
        and summary.noise_fraction == eager.noise_fraction
        and miner.segmenter.pending() == eager_seg.incomplete
    )
    return {
        "entries": entries,
        "equivalent": equivalent,
        "eager_wall_clock_s": round(eager_s, 2),
        "stream_wall_clock_s": round(stream_s, 2),
        "processes": summary.process_count,
    }


def _legacy_write_text(batch, path: Path) -> None:
    # The pre-streaming writer shape: one handle.write per entry.
    with open(path, "w", encoding="utf-8") as handle:
        for entry in batch:
            handle.write(
                f"{entry.time!r}\t{entry.machine}\t{entry.description}\n"
            )


def _legacy_write_jsonl(batch, path: Path) -> None:
    # The pre-streaming writer shape: per-entry write, default-separator
    # json.dumps (no hoisted encoder, whitespace in the output).
    with open(path, "w", encoding="utf-8") as handle:
        for entry in batch:
            record = {
                "time": entry.time,
                "machine": entry.machine,
                "kind": entry.kind.value,
                "description": entry.description,
            }
            handle.write(json.dumps(record) + "\n")


def _best_of(fn, repeats: int = 5) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _bench_write(machines: int, entries: int) -> Dict[str, object]:
    batch = list(
        iter_synthetic_log(_config(machines), total_entries=entries)
    )
    metrics: Dict[str, object] = {"entries": entries}
    with TemporaryDirectory() as tmp:
        for label, writer, legacy in (
            ("jsonl", write_log_jsonl, _legacy_write_jsonl),
            ("text", write_log_text, _legacy_write_text),
        ):
            path = Path(tmp) / f"log.{label}"
            writer(batch[:1_000], path)  # warm the page cache
            buffered_s = _best_of(lambda: writer(batch, path))
            legacy_s = _best_of(lambda: legacy(batch, path))
            metrics[f"{label}_buffered_s"] = round(buffered_s, 4)
            metrics[f"{label}_legacy_s"] = round(legacy_s, 4)
            metrics[f"{label}_speedup"] = (
                round(legacy_s / buffered_s, 2) if buffered_s > 0 else 0.0
            )
    return metrics


def run(profile: str) -> Dict[str, object]:
    spec = PROFILES[profile]
    stream = _bench_stream(spec["machines"], spec["entries"])
    materialized_mb = _estimate_materialized_mb(
        spec["machines"], spec["entries"]
    )
    equivalence = _bench_equivalence(
        spec["machines"], spec["equivalence_entries"]
    )
    write = _bench_write(spec["machines"], spec["write_entries"])
    return {
        "profile": profile,
        "seed": SEED,
        "stream": stream,
        "materialized_estimate_mb": round(materialized_mb, 1),
        "equivalence": equivalence,
        "write": write,
        "min_entries_per_s": spec["min_entries_per_s"],
        "max_peak_rss_mb": spec["max_peak_rss_mb"],
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
    stream = metrics.get("stream")
    if not isinstance(stream, dict):
        problems.append("metrics.stream must be an object")
    else:
        for key in (
            "entries",
            "entries_per_s",
            "processes",
            "clusters",
            "peak_rss_mb",
        ):
            if not isinstance(stream.get(key), (int, float)):
                problems.append(f"stream.{key} must be numeric")
        floor = metrics.get("min_entries_per_s", 0.0)
        rate = stream.get("entries_per_s")
        if isinstance(rate, (int, float)) and isinstance(
            floor, (int, float)
        ) and rate < floor:
            problems.append(
                f"stream.entries_per_s {rate} is below the {floor} floor"
            )
        cap = metrics.get("max_peak_rss_mb")
        rss = stream.get("peak_rss_mb")
        if isinstance(rss, (int, float)) and isinstance(
            cap, (int, float)
        ) and rss > cap:
            problems.append(
                f"stream.peak_rss_mb {rss} exceeds the {cap} cap"
            )
        if metrics.get("profile") == "full" and (
            not isinstance(stream.get("entries"), int)
            or stream["entries"] < 100_000_000
        ):
            problems.append(
                "full-profile stream.entries must be >= 100000000"
            )
    equivalence = metrics.get("equivalence")
    if not isinstance(equivalence, dict):
        problems.append("metrics.equivalence must be an object")
    elif equivalence.get("equivalent") is not True:
        problems.append("equivalence.equivalent must be true")
    write = metrics.get("write")
    if not isinstance(write, dict):
        problems.append("metrics.write must be an object")
    else:
        for key in ("jsonl_speedup", "text_speedup"):
            if not isinstance(write.get(key), (int, float)):
                problems.append(f"write.{key} must be numeric")
        # The committed (full-profile) artifact must show the buffered
        # jsonl writer beating the legacy per-entry shape; text is a
        # wash by design (f-string formatting dominates) so only its
        # presence is checked above.
        if (
            metrics.get("profile") == "full"
            and isinstance(write.get("jsonl_speedup"), (int, float))
            and write["jsonl_speedup"] < 1.0
        ):
            problems.append(
                "full-profile write.jsonl_speedup must be >= 1.0"
            )
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
        "--min-entries-per-s",
        type=float,
        default=None,
        help="fail unless the stream stage reaches this throughput "
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
        "commit": benchguard.commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    stream = metrics["stream"]
    write = metrics["write"]
    rows = [
        (
            "stream mine",
            f"{stream['entries']:,}",
            f"{stream['entries_per_s']:,.0f}",
            f"{stream['peak_rss_mb']:,.0f}",
        ),
        (
            "materialized (est.)",
            f"{stream['entries']:,}",
            "-",
            f"{metrics['materialized_estimate_mb']:,.0f}",
        ),
    ]
    print()
    print(render_table(
        ["path", "entries", "entries/s", "peak MB"],
        rows,
        title=f"Streaming mining ({args.profile} profile, "
              f"{stream['machines']:,} machines, "
              f"{stream['processes']:,} processes)",
    ))
    print(
        f"buffered writers: jsonl {write['jsonl_speedup']}x, "
        f"text {write['text_speedup']}x over the legacy per-entry shape"
    )

    if metrics["equivalence"]["equivalent"] is not True:
        print(
            "FAIL: streaming results diverge from the in-memory reference",
            file=sys.stderr,
        )
        return 1
    floor = (
        args.min_entries_per_s
        if args.min_entries_per_s is not None
        else PROFILES[args.profile]["min_entries_per_s"]
    )
    if stream["entries_per_s"] < floor:
        print(
            f"FAIL: {stream['entries_per_s']:,.0f} entries/s below "
            f"the {floor:,.0f} floor",
            file=sys.stderr,
        )
        return 1
    cap = PROFILES[args.profile]["max_peak_rss_mb"]
    if stream["peak_rss_mb"] > cap:
        print(
            f"FAIL: peak RSS {stream['peak_rss_mb']:,.0f} MB exceeds "
            f"the {cap:,.0f} MB cap",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
