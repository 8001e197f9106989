"""Write what every pass pipeline outputs on the benchmark and sweep programs,
so that two commits can be compared result by result.

    python3 tests/pass_outputs.py OUT.json

The programs are each workload of `perfbench/gen.py` at seeds 1, 2 and
11-13, with its observation-stripped twin, and each `SWEEP` program of
`test_passes`. Each one runs under every preset and under the unsafe fold.
The entry for one (program, preset) is the printed program, the provenance
rows and the log, or the `IRError` message. Pytest does not collect this
file; run it in two checkouts and compare the two JSON files entry by entry.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opaqueir.ir import IRError, print_program  # noqa: E402
from opaqueir.passes import PRESETS, optimize, unsafe_const_fold_opaque  # noqa: E402
from opaqueir.patterns import prepare  # noqa: E402
from test_passes import SWEEP, sweep_program  # noqa: E402
from test_validate import load_benchmark_generator  # noqa: E402

SEEDS = (1, 2, 11, 12, 13)


def programs():
    """(name, source text) of every program compared."""
    gen = load_benchmark_generator()
    for workload, make in gen.WORKLOADS.items():
        for seed in SEEDS:
            for case in make(seed):
                yield f"{workload}/{seed}/{case.name}", case.text
                yield f"{workload}/{seed}/{case.name}/twin", case.twin
    for shape, pattern in SWEEP:
        yield f"sweep/{shape}/{pattern}", sweep_program(shape, pattern)


def outputs(program) -> dict:
    """Every preset's and the unsafe fold's output on one program."""
    out = {}
    for preset in (*sorted(PRESETS), "unsafe"):
        try:
            if preset == "unsafe":
                res, log = unsafe_const_fold_opaque(program), None
            else:
                res = optimize(program, preset)
                log = res.log
        except IRError as exc:
            out[preset] = str(exc)
            continue
        out[preset] = {
            "program": print_program(res.program),
            "provenance": res.provenance.rows(),
            "log": log,
        }
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    table = {}
    for name, text in programs():
        for preset, entry in outputs(prepare(text)[0]).items():
            table[f"{name}/{preset}"] = entry
    Path(argv[0]).write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} results written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
