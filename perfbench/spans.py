"""Spans around the calls from the benchmark into each layer.

A span is (name, start, end, parent). The name's first component is the
layer: `ir`, `patterns`, `passes`, `interp`, `deps`, `validate`, or
`bench` for the harness itself. Spans are recorded in memory while the
job runs and written out at the end. A span's self time is its duration
minus the time its child spans cover; self times over all spans of a job
add up to the job span exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("ir", "patterns", "passes", "interp", "deps", "validate", "bench")
STATUSES = ("enumerated", "rule", "rule_derived", "sampled", "unknown")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = self.open(name)
            try:
                result = fn(*args, **kw)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result, args, kw)
            return result

        return traced

    def on_run(self, result, args, kw) -> None:
        """Count an interpreter run and its events."""
        self.counts["interp.runs"] += 1
        self.counts["interp.events"] += len(result.events)

    # -- patching

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]
        wrapped = self.wrap(name, original, on_result)
        self._undo.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def install(self, api) -> None:
        """Wrap the layer entry points the package calls internally."""
        ir, patterns, passes, deps, validate = (
            api.ir, api.patterns, api.passes, api.deps, api.validate
        )
        c = self.counts

        def count(key):
            def note(result, args, kw):
                c[key] += 1

            return note

        for mod in (ir, patterns, passes, validate):
            self.patch(mod, "typecheck", "ir.typecheck", count("ir.typecheck_calls"))
        self.patch(patterns, "parse_program", "ir.parse")
        self.patch(patterns, "expand_macros", "ir.expand_macros")
        for name in list(passes.PASSES):
            self.patch(passes.PASSES, name, f"passes.{name}")

        def on_rerun(result, args, kw):
            self.on_run(result, args, kw)
            c["deps.reruns"] += 1
            c["deps.replayed_events"] += len(result.events)

        self.patch(validate, "run", "interp.run", self.on_run)
        self.patch(deps, "run", "interp.run", on_rerun)

        def on_analyze(info, args, kw):
            c["deps.analyze_calls"] += 1
            c["deps.cd_total"] += sum(len(s) for s in info.cd_sources)

        self.patch(validate, "analyze", "deps.analyze", on_analyze)
        self.patch(deps, "analyze", "deps.analyze", on_analyze)

        def on_hb_pairs(pairs, args, kw):
            c["deps.hb_pairs"] += len(pairs)

        self.patch(deps.DepInfo, "_anchor_graph", "deps.hb")
        self.patch(deps.DepInfo, "hb_pairs", "deps.hb", on_hb_pairs)
        self.patch(validate, "compare_traces", "validate.compare_traces")
        self.patch(validate, "EventMap", "validate.event_map")
        self.patch(validate, "check_ordering", "validate.check_ordering")

        def on_chains(chains, args, kw):
            c["deps.chains"] += len(chains)
            links = [pair for ch in chains for pair in zip(ch.events, ch.events[1:])]
            c["deps.links_audited"] += len(links)
            c["deps.links_unique"] += len(set(links))

        self.patch(deps, "find_chains", "deps.find_chains", on_chains)

        def on_value_set(report, args, kw):
            c[f"deps.value_set.{report.status}"] += 1

        self.patch(deps, "opaque_value_set", "deps.value_set", on_value_set)

    # -- analysis

    def self_times(self) -> dict[str, float]:
        """Self time per span name over every recorded span."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": rows}))
