"""In-memory spans around calls into the program's layers.

The traced run patches a fixed set of public functions and methods of
``repro`` (see :data:`LAYER_CALLS`) with wrappers that record one span
per call: ``(name, start, end, parent, run_id)``.  Spans stay in memory
and are written out once, when the run ends.  Nothing under ``src/``
is modified; the patches are undone by :meth:`Tracer.uninstall`.

The untraced runs never install the tracer, so their end-to-end numbers
carry no wrapper cost.  ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One recorded span: name, start, end, parent index (-1 = root), run id.
Span = Tuple[str, float, float, int, str]

#: A counting hook: ``(tracer, args, kwargs, result) -> None``.
CountHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Record nested spans from one thread, plus plain counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.run_id = "setup"
        self.active = False
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._distinct: Dict[str, set] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _end, parent, run_id = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, run_id)

    def span(self, name: str):
        """A context manager recording one span called ``name``.

        Records nothing unless the tracer is installed.
        """
        return _SpanContext(self, name) if self.active else nullcontext()

    def distinct(self, name: str, key: object) -> None:
        """Count ``key`` once per distinct value under ``name``."""
        self._distinct.setdefault(name, set()).add(key)

    def distinct_count(self, name: str) -> int:
        return len(self._distinct.get(name, ()))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap_call(
        self, owner: object, attr: str, name: str, count: Optional[CountHook]
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_iterator(
        self,
        owner: object,
        attr: str,
        name: str,
        batch: int,
        counter: Optional[str],
    ) -> None:
        """Patch a generator function: one span per ``batch`` items pulled.

        Items are pulled ``batch`` at a time inside the span and then
        handed on, so the span measures the producer alone, not the
        consumer that runs between pulls.  ``counter``, if given, counts
        the items.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs) -> Iterator[object]:
            source = iter(original(*args, **kwargs))
            while True:
                index = tracer._open(name)
                try:
                    block = []
                    for item in source:
                        block.append(item)
                        if len(block) >= batch:
                            break
                finally:
                    tracer._close(index)
                if counter is not None:
                    tracer.counters[counter] += len(block)
                yield from block
                if len(block) < batch:
                    return

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        self.active = True
        for module_name, owner_name, attr, name, kind, hook in LAYER_CALLS:
            owner: object = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            if kind == "call":
                self.wrap_call(owner, attr, name, hook)
            else:
                self.wrap_iterator(owner, attr, name, kind, hook)

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Summed span duration per name."""
        out: Dict[str, float] = {}
        for name, start, end, _parent, _run in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Per name: span durations minus the time their children cover.

        Spans come from one thread and nest strictly, so the children of
        a span never overlap and their durations can simply be summed.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def calls(self) -> Dict[str, int]:
        return Counter(span[0] for span in self.spans)

    def child_coverage(self, name: str) -> float:
        """Share of the ``name`` spans' time covered by their children."""
        ids = {i for i, span in enumerate(self.spans) if span[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in ids)
        covered = sum(
            end - start
            for _n, start, end, parent, _run in self.spans
            if parent in ids
        )
        return covered / total if total > 0 else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._name)

    def __exit__(self, *_exc) -> None:
        self._tracer._close(self._index)


# ----------------------------------------------------------------------
# Counting hooks: counts are taken at the same boundaries as the spans.
# ----------------------------------------------------------------------
def _count_entries(tracer: Tracer, _args, _kwargs, trace) -> None:
    tracer.counters["tracegen.entries"] += len(trace.log)


def _count_processes(tracer: Tracer, _args, _kwargs, segmentation) -> None:
    tracer.counters["recoverylog.processes"] += len(segmentation.processes)


def _count_course(tracer: Tracer, _args, _kwargs, training) -> None:
    tracer.counters["learning.types"] += 1
    tracer.counters["learning.episodes"] += training.episodes
    tracer.counters["learning.sweeps"] += training.sweeps_run


def _count_tree_eval(tracer: Tracer, args, kwargs, _cost) -> None:
    # args = (extractor, rules, processes); a candidate's cost depends
    # only on its error type and its action chain, not on Q values.
    rules = args[1] if len(args) > 1 else kwargs["rules"]
    processes = args[2] if len(args) > 2 else kwargs["processes"]
    chain = tuple(sorted((s.tried, rule[0]) for s, rule in rules.items()))
    tracer.distinct(
        "learning.tree_eval", (processes[0].error_type, chain)
    )


def _count_replay_many(tracer: Tracer, args, kwargs, _results) -> None:
    processes = args[1] if len(args) > 1 else kwargs["processes"]
    tracer.counters["simplatform.replay_many_processes"] += len(processes)


def _count_evaluation(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.counters["evaluation.processes"] += sum(
        per_type.total for per_type in result.per_type.values()
    )
    tracer.counters["evaluation.skipped"] += result.skipped


def _count_rules(tracer: Tracer, _args, _kwargs, rules: int) -> None:
    tracer.counters["policies.rules"] += rules


def _count_batch(tracer: Tracer, args, kwargs, _decisions) -> None:
    states = args[1] if len(args) > 1 else kwargs["states"]
    tracer.counters["serving.lookups"] += len(states)


#: (module, class or "", attribute, span name, kind, count).  ``kind``
#: is "call" (one span per call; ``count`` is a hook) or the number of
#: items per span of a generator (``count`` names a counter of items).
#: Module-level functions are patched in every module that binds them
#: and that the workloads reach.
LAYER_CALLS = (
    ("repro.tracegen.generator", "TraceGenerator", "generate",
     "tracegen.generate", "call", _count_entries),
    ("repro.tracegen.stream", "", "iter_synthetic_log",
     "tracegen.generate", 8192, "tracegen.entries"),
    ("repro.recoverylog.io", "", "write_log_jsonl",
     "recoverylog.write", "call", None),
    ("repro.recoverylog.io", "", "write_log_text",
     "recoverylog.write", "call", None),
    ("repro.recoverylog.io", "", "read_log",
     "recoverylog.read", "call", None),
    ("repro.mining.streaming", "", "iter_log_chunks",
     "recoverylog.read", 1, None),
    ("repro.recoverylog.log", "", "segment_log",
     "recoverylog.segment", "call", _count_processes),
    ("repro.recoverylog.process", "", "segment_log",
     "recoverylog.segment", "call", _count_processes),
    ("repro.mining.noise", "", "filter_noise",
     "mining.filter_noise", "call", None),
    ("repro.core.pipeline", "", "filter_noise",
     "mining.filter_noise", "call", None),
    ("repro.mining.streaming", "StreamingMiner", "feed",
     "mining.feed", "call", None),
    ("repro.mining.streaming", "StreamingMiner", "result",
     "mining.result", "call", None),
    ("repro.mining.streaming", "StreamingMiner", "coverage_curve",
     "mining.result", "call", None),
    ("repro.learning.selection_tree", "SelectionTreeExtractor", "train_type",
     "learning.train_type", "call", None),
    ("repro.learning.qlearning", "QLearningTrainer", "train_type",
     "learning.q_loop", "call", _count_course),
    ("repro.learning.selection_tree", "SelectionTreeExtractor", "evaluate",
     "learning.tree_eval", "call", _count_tree_eval),
    ("repro.simplatform.platform", "SimulationPlatform", "__init__",
     "simplatform.build", "call", None),
    ("repro.simplatform.platform", "SimulationPlatform", "replay",
     "simplatform.replay", "call", None),
    ("repro.simplatform.platform", "SimulationPlatform", "replay_many",
     "simplatform.replay_many", "call", _count_replay_many),
    ("repro.evaluation.evaluator", "PolicyEvaluator", "evaluate",
     "evaluation.evaluate", "call", _count_evaluation),
    ("repro.policies.binary", "", "save_policy_binary",
     "policies.save_binary", "call", _count_rules),
    ("repro.policies.binary", "", "load_policy_binary",
     "policies.load_binary", "call", None),
    ("repro.serving.server", "DecisionServer", "decide_batch",
     "serving.decide_batch", "call", _count_batch),
)
