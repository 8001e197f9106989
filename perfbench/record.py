"""Record the verdicts of this commit as the benchmark's expected answers.

    python3 perfbench/record.py

Verdicts depend on a program's structure, not on its constants, so the
table is keyed by `Case.key`. Every workload is built for SEEDS seeds;
a key whose verdicts differ between seeds, or a wrong output, is
reported and the table is not written, because the gate could not hold
on unseen seeds.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import run

SEEDS = 8


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    import gen

    api = run.load_api()
    calls = run.layer_calls(api)
    workloads = {
        name: [c for s in range(SEEDS) for c in make(s)]
        for name, make in gen.WORKLOADS.items()
    }
    table: dict = {}
    clashes = []
    for name, cases in workloads.items():
        seen: dict = defaultdict(lambda: defaultdict(set))
        for case in cases:
            job = run.Job()
            run.run_case(api, calls, case, job)
            clashes += job.errors
            for (key, column), outcome in job.outcomes.items():
                seen[key][column].add(outcome)
        table[name] = {}
        for key, columns in sorted(seen.items()):
            table[name][key] = {}
            for column, outcomes in sorted(columns.items()):
                if len(outcomes) > 1:
                    clashes.append(f"{name} {key} {column}: {sorted(outcomes)}")
                table[name][key][column] = sorted(outcomes)[0]
        print(f"{name}: {len(cases)} cases, {len(seen)} keys", file=sys.stderr)
    for c in clashes:
        print("not recorded:", c, file=sys.stderr)
    if clashes:
        return 1
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
