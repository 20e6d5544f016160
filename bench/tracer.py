"""Span recording around stokesim's layer functions, from outside the
program.

`install` wraps every public function of the `fock`, `elements`,
`sources`, `detection`, `protocols`, `metrics`, `cli` and `rng` modules,
plus the `PreparedBellAnalyzer` methods, in place: the module attribute
is replaced, and so is every name another stokesim module imported with
`from ... import` (for example `protocols.trial_rng`), because callers
look the function up there.  Each call appends one span (name, start,
end, parent) to an in-memory list; nothing is written until the traced
command has finished.  A span's self time is its duration minus the
durations of its direct child spans.

The process pool the CLI uses for `--jobs` is swapped for a subclass
that times each chunk inside the worker and measures each pickled
result, so the parent sees worker busy time and result bytes.  Spans
recorded inside workers stay there and are dropped.

Run as a script, it executes one CLI command in-process and writes the
command's wall time and, when tracing, its per-layer metrics:

    python3 bench/tracer.py RESULT.json SPANS.jsonl {0|1} -- <stokesim args>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pickle
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("fock", "elements", "sources", "detection", "protocols", "metrics", "cli", "rng")

#: PreparedBellAnalyzer methods and the span names they record
_ANALYZER_SPANS = {
    "__init__": "detection.prepare",
    "sample": "detection.sample",
    "conditional": "detection.conditional",
    "exact_outcomes": "detection.exact_outcomes",
}

#: per-layer metric -> (statistic, span or counter); "ms" and "us" are
#: inclusive span time, "self_share" is self time over the whole command
SPAN_METRICS = {
    "rng.trial_rng.calls": ("calls", "rng.trial_rng"),
    "rng.trial_rng.us": ("us_per_call", "rng.trial_rng"),
    "rng.trial_rng.self_share": ("self_share", "rng.trial_rng"),
    "detection.sample.calls": ("calls", "detection.sample"),
    "detection.sample.us": ("us_per_call", "detection.sample"),
    "protocols.summarize.ms": ("ms", "protocols.summarize_sampled"),
    "detection.prepare.ms": ("ms", "detection.prepare"),
    "detection.conditional.calls": ("calls", "detection.conditional"),
    "detection.conditional.ms": ("ms", "detection.conditional"),
    "detection.exact_outcomes.ms": ("ms", "detection.exact_outcomes"),
    "fock.project.calls": ("calls", "fock.project"),
    "fock.project.ms": ("ms", "fock.project"),
    "fock.project.self_share": ("self_share", "fock.project"),
    "fock.apply_mode_unitary.calls": ("calls", "fock.apply_mode_unitary"),
    "fock.apply_mode_unitary.ms": ("ms", "fock.apply_mode_unitary"),
    "fock.tensor.ms": ("ms", "fock.tensor"),
    "fock.state_fidelity.ms": ("ms", "fock.state_fidelity"),
    "sources.dual_ensemble_source.ms": ("ms", "sources.dual_ensemble_source"),
    "sources.epr_pair.ms": ("ms", "sources.epr_pair"),
    "elements.beam_splitter.ms": ("ms", "elements.beam_splitter"),
    "metrics.qubit_fidelity.calls": ("calls", "metrics.qubit_fidelity"),
    "metrics.qubit_fidelity.ms": ("ms", "metrics.qubit_fidelity"),
    "cli.build_experiment.ms": ("ms", "cli.build_experiment"),
    "cli.render.ms": ("ms", "cli.render"),
    "protocols.fidelity_evals": ("count", "protocols.fidelity_evals"),
    "fock.project.terms_scanned": ("count", "fock.project.terms_scanned"),
    "fock.tensor.terms_out": ("count", "fock.tensor.terms_out"),
    "detection.outcome_patterns": ("count", "detection.outcome_patterns"),
    "fock.analyzer_state.terms": ("count", "fock.analyzer_state.terms"),
    "cli.report_bytes": ("count", "cli.report_bytes"),
    "cli.pool.result_bytes": ("count", "cli.pool.result_bytes"),
}

#: metrics computed from several spans and counters (see `layer_metrics`)
DERIVED_METRICS = (
    "protocols.trial_loop.us",
    "detection.conditional.miss_ratio",
    "cli.pool.ms",
    "cli.pool.wait_ms",
)


class Recorder:
    """In-memory span list, open-span stack and counters of one traced
    command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, hook=None):
        """`fn` wrapped to record one span per call; `hook(recorder, args,
        result)` runs after a call returns, to count the work it did."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """`fn` wrapped to count calls without recording spans."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive ns, self ns."""
        calls, incl, self_ns = Counter(), Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, child_ns):
            self_ns[name] += end - start - child
        return calls, incl, self_ns

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this recorder can supply for the command."""
        calls, incl, self_ns = self.totals()
        total_ns = incl["cli.main"] or 1
        out: dict[str, float] = {}
        for metric, (stat, key) in SPAN_METRICS.items():
            if stat == "calls":
                out[metric] = calls[key]
            elif stat == "us_per_call":
                out[metric] = incl[key] / calls[key] / 1e3 if calls[key] else 0.0
            elif stat == "ms":
                out[metric] = incl[key] / 1e6
            elif stat == "self_share":
                out[metric] = self_ns[key] / total_ns
            else:
                out[metric] = self.counts[key]
        trials = self.counts["protocols.trials"]
        out["protocols.trial_loop.us"] = self_ns["protocols.trial_outcomes"] / trials / 1e3 if trials else 0.0
        cond = calls["detection.conditional"]
        out["detection.conditional.miss_ratio"] = self.counts["detection.conditional.misses"] / cond if cond else 0.0
        wall_ms = self.counts["cli.pool.wall_ns"] / 1e6
        workers = self.counts["cli.pool.workers"]
        out["cli.pool.ms"] = wall_ms
        out["cli.pool.wait_ms"] = wall_ms - self.counts["cli.pool.busy_ns"] / 1e6 / workers if workers else 0.0
        return out

    def self_top(self, n: int) -> list[tuple[str, float, float]]:
        """The n span names with the most self time: (name, ms, share)."""
        _, incl, self_ns = self.totals()
        total_ns = incl["cli.main"] or 1
        return [(name, ns / 1e6, ns / total_ns) for name, ns in self_ns.most_common(n)]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f'{{"name": "{name}", "start_ns": {start}, "end_ns": {end}, "parent": {parent}}}\n')


# ---------------------------------------------------------------------------
# hooks counting the work a call did


def _count_project(rec, args, result):
    rec.counts["fock.project.terms_scanned"] += len(args[0].amplitudes)


def _count_tensor(rec, args, result):
    rec.counts["fock.tensor.terms_out"] += len(result.amplitudes)


def _count_prepare(rec, args, result):
    analyzer = args[0]
    rec.counts["detection.outcome_patterns"] = max(
        rec.counts["detection.outcome_patterns"], len(getattr(analyzer, "distribution", ()))
    )
    state = getattr(analyzer, "state", None)
    rec.counts["fock.analyzer_state.terms"] = max(
        rec.counts["fock.analyzer_state.terms"], len(getattr(state, "amplitudes", ()))
    )


def _count_trials(rec, args, result):
    rec.counts["protocols.trials"] += len(result)


def _count_report(rec, args, result):
    rec.counts["cli.report_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "fock.project": _count_project,
    "fock.tensor": _count_tensor,
    "detection.prepare": _count_prepare,
    "protocols.trial_outcomes": _count_trials,
    "cli.render": _count_report,
}


def _timed_call(fn, *args):
    """Runs in a pool worker: the chunk's result plus its busy time."""
    start = time.perf_counter_ns()
    result = fn(*args)
    return time.perf_counter_ns() - start, result


def install(rec: Recorder) -> None:
    """Wrap stokesim's layer functions so calls record into `rec`."""
    modules = {layer: importlib.import_module(f"stokesim.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = rec.span(name, obj, _HOOKS.get(name))
    for mod in [m for n, m in sys.modules.items() if n == "stokesim" or n.startswith("stokesim.")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    detection, protocols, cli = modules["detection"], modules["protocols"], modules["cli"]
    analyzer = detection.PreparedBellAnalyzer
    for method, name in _ANALYZER_SPANS.items():
        setattr(analyzer, method, rec.span(name, getattr(analyzer, method), _HOOKS.get(name)))
    # private helpers, counted only: a miss in the conditional-state cache
    # and a per-herald fidelity lookup.  Absent after a refactor, they read 0.
    if hasattr(detection, "_condition_on_pattern"):
        detection._condition_on_pattern = rec.counter(
            "detection.conditional.misses", detection._condition_on_pattern
        )
    sampled = getattr(protocols, "_SampledProtocol", None)
    if sampled is not None and hasattr(sampled, "fidelity"):
        sampled.fidelity = rec.counter("protocols.fidelity_evals", sampled.fidelity)

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            self._opened = time.perf_counter_ns()
            super().__init__(max_workers, *args, **kwargs)
            rec.counts["cli.pool.workers"] = max(rec.counts["cli.pool.workers"], self._max_workers)

        def map(self, fn, *iterables, **kwargs):
            for busy_ns, result in super().map(_timed_call, itertools.repeat(fn), *iterables, **kwargs):
                rec.counts["cli.pool.busy_ns"] += busy_ns
                rec.counts["cli.pool.result_bytes"] += len(pickle.dumps(result))
                yield result

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            rec.counts["cli.pool.wall_ns"] += time.perf_counter_ns() - self._opened

    if hasattr(cli, "ProcessPoolExecutor"):
        cli.ProcessPoolExecutor = TimedPool


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[2] not in ("0", "1"):
        sys.stderr.write("usage: tracer.py RESULT.json SPANS.jsonl {0|1} -- <stokesim args>\n")
        return 2
    result_path, spans_path, trace, cli_args = argv[0], argv[1], argv[2] == "1", argv[4:]
    rec = Recorder() if trace else None
    if rec is not None:
        install(rec)
    from stokesim import cli

    start = time.perf_counter_ns()
    rc = cli.main(cli_args)
    result: dict = {"rc": rc, "wall_s": (time.perf_counter_ns() - start) / 1e9}
    if rec is not None:
        result["layers"] = rec.layer_metrics()
        result["self_top"] = rec.self_top(8)
        result["spans"] = len(rec.spans)
        rec.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
