"""Repository benchmark: one workload per run, or all three.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipeline-default --seed 3 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is the workload's report: provenance,
named figures with units, sizes and, when traced, the span table.
"""

import time

# setup_s counts from here, before the program is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "pipeline-default": "pipeline_default",
    "mine-stream": "mine_stream",
    "serve-openloop": "serve_openloop",
}

#: Per-process limit for one workload run started by ``--workload all``.
CHILD_TIMEOUT_S = 600


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(value):
    """JSON has no infinity; a non-finite figure is written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _load_program():
    """Import the program from this checkout's ``src``, or explain why not."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(
            f"error: imported repro from {repro.__file__}, not from {SRC}",
            file=sys.stderr,
        )
        return False
    return True


def run_one(args) -> int:
    if not _load_program():
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    import common

    import_s = time.perf_counter() - STARTED
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = common.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        workdir=workdir,
    )
    try:
        outcome = module.run(ctx)
    except common.StageFailed as exc:
        print(f"error: {args.workload} stopped: {exc} raised", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = ctx.ops
    report = dict(outcome.report)
    report["provenance"] = common.provenance(
        args.workload, args.seed, report.pop("sizes")
    )
    report["attempted"] = ops.attempted
    report["failed"] = ops.failed
    report["failed_frac"] = ops.failed / ops.attempted
    if ctx.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        ctx.tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    units = common.PER_LAYER if ctx.trace else common.END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps({"report": _finite(report)}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print a summary."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            status = 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={report['failed_frac']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
        for name, figure in report.get("figures", {}).items():
            value = figure["value"]
            shown = "null" if value is None else f"{value:>16.6g}"
            print(f"  {name:36s} {shown:>16s} {figure['unit']}")
        summary[workload] = {"report": report, "result": result}
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
