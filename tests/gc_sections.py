"""Report where the cyclic collector runs in the benchmark's jobs: the
gen-0 and gen-1 collections as per-job totals, and each gen-2 (full)
collection by case and by section, so that two commits can be compared
collection by collection.

    python3 tests/gc_sections.py --workload corpus --seed 11 --jobs 5

The jobs are those of `perfbench/run.py`: the same set-up, a
`gc.collect()` before each job, and `run_job` with the plain layer calls,
so collections fall where they fall in an untraced benchmark run. A
`gc.callbacks` hook runs as each collection starts. At a full collection
it reads the call stack: the case is the one `run_case` is working on,
and the section is the outermost layer call `run_case` is inside,
`prepare`, `optimize` (the unsafe fold included), `run`, `check` or
`audit`, or else `bench`, the benchmark's own code (probes, io
comparisons, counting) and anything between cases. At a gen-0 or gen-1
collection it only counts. Reading the stack materializes frame objects,
and those allocations advance the collector's counters: done at each of
the hundreds of young collections of a job, it shifts where the few full
ones fall, which is the thing to be measured. Nothing is wrapped. A
timing difference between two commits at equal call counts that comes
with a full collection moving from one section to another is the
collector's doing, not the code's.

Pytest does not collect this file; it imports `perfbench` and changes
nothing there.
"""

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as bench  # noqa: E402


class Collections:
    """Every collection of the jobs: per-job counts by generation, and each
    full one as (job, case, section)."""

    def __init__(self, api):
        self.job = 0
        self.counts: Counter = Counter()  # (job, generation) -> collections
        self.full: list[tuple[int, str, str]] = []
        self.sections = {
            api.patterns.prepare.__code__: "prepare",
            api.passes.optimize.__code__: "optimize",
            api.passes.unsafe_const_fold_opaque.__code__: "optimize",
            api.interp.run.__code__: "run",
            api.validate.check_observation_preserving.__code__: "check",
            api.validate.audit_chain_preservation.__code__: "audit",
        }

    def where(self) -> tuple[str, str]:
        """The case `run_case` is working on, and the outermost layer call
        under it on the stack."""
        frame, section = sys._getframe(2), "bench"
        while frame is not None:
            if frame.f_code is bench.run_case.__code__:
                return frame.f_locals["case"].name, section
            section = self.sections.get(frame.f_code, section)
            frame = frame.f_back
        return "-", "bench"

    def callback(self, phase: str, info: dict) -> None:
        if phase == "start" and self.job:
            generation = info["generation"]
            self.counts[self.job, generation] += 1
            if generation == 2:
                self.full.append((self.job, *self.where()))


def report(collections: Collections, jobs: int) -> None:
    counts = collections.counts
    for job in range(1, jobs + 1):
        print(f"job {job}: gen0 {counts[job, 0]}, gen1 {counts[job, 1]}, gen2 {counts[job, 2]}")
        for _, case, section in (c for c in collections.full if c[0] == job):
            print(f"  full collection: {case} {section}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=5)
    args = ap.parse_args(argv)
    _, api, cases = bench.setup(args.workload, args.seed)
    collections = Collections(api)
    plain = bench.layer_calls(api)
    gc.callbacks.append(collections.callback)
    try:
        for job in range(1, args.jobs + 1):
            collections.job = 0  # the collection between jobs is not counted
            gc.collect()
            collections.job = job
            bench.run_job(api, plain, cases)
    finally:
        gc.callbacks.remove(collections.callback)
    report(collections, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
