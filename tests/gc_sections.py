"""Report where the cyclic collector runs in the benchmark's jobs: each
gen-0, gen-1 and gen-2 collection, by case and by section, so that two
commits can be compared collection by collection.

    python3 tests/gc_sections.py --workload corpus --seed 11 --jobs 5

The jobs are those of `perfbench/run.py`: the same set-up, a
`gc.collect()` before each job, and `run_job` with the plain layer calls,
so collections fall where they fall in an untraced benchmark run. A
`gc.callbacks` hook reads the call stack at each collection: the case is
the one `run_case` is working on, and the section is the outermost layer
call `run_case` is inside, `prepare`, `optimize` (the unsafe fold
included), `run`, `check` or `audit`, or else `bench`, the benchmark's
own code (probes, io comparisons, counting) and anything between cases.
Nothing is wrapped: the hook runs only as a collection starts. A timing
difference between two commits at equal call counts that comes with a
full collection moving from one section to another is the collector's
doing, not the code's.

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

SECTIONS = ("prepare", "optimize", "run", "check", "audit", "bench")


class Collections:
    """Every collection of the jobs: (job, case, section, generation)."""

    def __init__(self, api):
        self.job = 0
        self.seen: list[tuple[int, str, str, int]] = []
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
            self.seen.append((self.job, *self.where(), info["generation"]))


def report(collections: Collections, jobs: int) -> None:
    for job in range(1, jobs + 1):
        mine = [c for c in collections.seen if c[0] == job]
        gens = Counter(g for *_, g in mine)
        print(f"job {job}: gen0 {gens[0]}, gen1 {gens[1]}, gen2 {gens[2]}")
        by_section = Counter((s, g) for _, _, s, g in mine)
        for section in SECTIONS:
            counts = [by_section[(section, g)] for g in range(3)]
            if any(counts):
                print(f"  {section:<9}", "  ".join(f"gen{g} {n:>3}" for g, n in enumerate(counts)))
        for _, case, section, g in mine:
            if g == 2:
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
