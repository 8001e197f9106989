"""Report the interpreter's rate on the benchmark's long-loop program: the
time per loop iteration and the events per second of the observed
program, of its observation-stripped twin, and of both as optimized
under P3, at each trip count asked for.

    python3 tests/interp_rate.py --seed 11 --trips 301 20000 --repeat 5

The programs are those of `perfbench/gen.py`'s long-loop case at the seed;
the twin, which loops to its trip count as a literal, is rewritten to
each trip count. Each figure is the best of `--repeat` runs with the
cyclic collector off. Every program is decoded and run once before it is
timed, and a timed run shares nothing with an earlier one: runs are
held weakly, and none is kept. The last lines give the observed/twin
ratio of the time per iteration, the figure the interpreter's cost of
observations is judged by.

Pytest does not collect this file; it imports `perfbench` and changes
nothing there.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from opaqueir import interp  # noqa: E402
from opaqueir.passes import optimize  # noqa: E402
from opaqueir.patterns import prepare  # noqa: E402

PRESET = "P3"


def programs(seed: int, trips: int) -> dict:
    """The long-loop program and its twin at `trips`, each as prepared and
    as optimized under P3."""
    (case,) = gen.long_loop(seed)
    (literal,) = [line.strip() for line in case.twin.splitlines() if "c = i < " in line]
    twin_text = case.twin.replace(literal, f"c = i < {trips}")
    out = {}
    for name, text in (("observed", case.text), ("twin", twin_text)):
        program, _ = prepare(text)
        out[name] = program
        out[f"{name}@{PRESET}"] = optimize(program, preset=PRESET).program
    return out


def best_run(program, spec, repeat: int) -> tuple[float, int]:
    """The best time of `repeat` fresh runs, and the run's event count."""
    runs = interp._runs(program)
    events = len(interp.run(program, spec).events)  # decodes; the run dies here
    best = float("inf")
    for _ in range(repeat):
        assert not runs, "a timed run must execute afresh"
        t0 = time.perf_counter()
        result = interp.run(program, spec)
        best = min(best, time.perf_counter() - t0)
        assert result.trapped is None and len(result.events) == events
        del result
    return best, events


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trips", type=int, nargs="+", default=[301, 20_000])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    print(f"{'program':<14} {'trips':>7} {'events':>8} {'us/iter':>9} {'events/s':>10}")
    gc.disable()
    try:
        for trips in args.trips:
            spec = interp.parse_input(f"desc inp in ordered\n{trips}\n")
            per_iter = {}
            for name, program in programs(args.seed, trips).items():
                seconds, events = best_run(program, spec, args.repeat)
                per_iter[name] = seconds / trips * 1e6
                print(f"{name:<14} {trips:>7} {events:>8} {per_iter[name]:>9.2f} "
                      f"{events / seconds:>10.0f}")
            for suffix in ("", f"@{PRESET}"):
                ratio = per_iter[f"observed{suffix}"] / per_iter[f"twin{suffix}"]
                print(f"observed/twin{suffix} at {trips} trips: {ratio:.2f}x")
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
