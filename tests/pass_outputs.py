"""Write what every pass pipeline outputs on the benchmark and sweep programs,
and what the checkers say of it, so that two commits can be compared result
by result.

    python3 tests/pass_outputs.py OUT.json

The programs are those of the test supply, `tests/programs.py`: each
workload of `perfbench/gen.py` at seeds 1, 2 and 11-13, with its
observation-stripped twin, and each `SWEEP` program, as the supply
prepares them and compiles them under every preset and the unsafe fold.
The entry for a prepared program holds what its printed text leaves out:
its inferred variable, reference and return types, and the source
location of every instruction, nested regions included, per function. The
entry for one (program, preset) is the printed program, its variable
types, the provenance rows and the log, or the `IRError` message. A
workload program's entry also holds each `check_observation_preserving`
check over the case's inputs: its name, whether it passed and its
witnesses; and per input, the opaque skeleton of the reference run and the
sorted hb pairs of the reference and the optimized runs. At the case's
audit preset, the entry of the program the benchmark audits (the twin
where `audit_twin`) holds the chain audit on the first input: the chain
reports, each link's value-set report (status, bound and outcomes) and the
audit verdict. Pytest does not collect this file; run it in two checkouts
and compare the two JSON files entry by entry.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opaqueir.deps import _value_sets, analyze, chain_reports, opaque_skeleton  # noqa: E402
from opaqueir.interp import run  # noqa: E402
from opaqueir.ir import IRError, print_program, typecheck, walk_blocks  # noqa: E402
from opaqueir.validate import audit_chain_preservation, check_observation_preserving  # noqa: E402
from programs import COLUMNS, SWEEP, UNSAFE, group  # noqa: E402

SEEDS = (1, 2, 11, 12, 13)


def type_table(types: dict) -> list:
    """A `TypeInfo` table keyed by (function, name), as sorted rows."""
    return sorted([fn, name, ty.value] for (fn, name), ty in types.items())


def var_types(program) -> list:
    """The program's inferred variable types, sorted, or its `IRError`."""
    try:
        info = typecheck(program)
    except IRError as exc:
        return str(exc)
    return type_table(info.var_types)


def prepared(program, info) -> dict:
    """What printing leaves out of a prepared program: its types `info`
    and each instruction's source location, in `walk_blocks` order per
    function."""
    return {
        "var_types": type_table(info.var_types),
        "ref_types": type_table(info.ref_types),
        "ret_types": sorted([fn, [ty.value for ty in tys]] for fn, tys in info.ret_types.items()),
        "locs": {
            f.name: [list(i.loc) for b in walk_blocks(f.region) for i in b.instrs]
            for f in program.functions
        },
    }


def verdict_entry(verdict) -> list:
    return [verdict.passed, list(verdict.witnesses)]


def dependence(program, res, spec) -> dict:
    """The reference run's opaque skeleton and both runs' hb pairs on one input."""
    ref, opt = analyze(run(program, spec)), analyze(run(res.program, spec))
    return {
        "skeleton": [[j, list(ks)] for j, ks in opaque_skeleton(ref).items()],
        "hb": [sorted(map(list, info.hb_pairs())) for info in (ref, opt)],
    }


def audit(program, res, spec) -> dict:
    """The chain audit of `res` on one input, as the benchmark makes it."""
    ref = run(program, spec)
    info = analyze(ref)
    links = [(j, k) for j, ks in opaque_skeleton(info).items() for k in ks]
    value_sets = _value_sets(program, spec, info, links)
    verdict = audit_chain_preservation(ref, run(res.program, spec), res.provenance, inputs=spec)
    return {
        "chains": [[*r.events, r.verdict] for r in chain_reports(program, spec, info)],
        "value_sets": [
            [j, k, w.status, w.bound, None if w.values is None else sorted(map(repr, w.values))]
            for (j, k), w in sorted(value_sets.items())
        ],
        "verdict": verdict_entry(verdict),
    }


def outputs(p) -> dict:
    """Every preset's and the unsafe fold's output on one supply program,
    with the checks over its inputs (a sweep program's are left out) and
    the audit at its audit preset."""
    program, specs = p.program, None if p.workload == "sweep" else p.specs
    out = {}
    for preset in COLUMNS:
        res = p.results[preset]
        if isinstance(res, IRError):
            out[preset] = str(res)
            continue
        entry = out[preset] = {
            "program": print_program(res.program),
            "var_types": var_types(res.program),
            "provenance": res.provenance.rows(),
            "log": None if preset == UNSAFE else res.log,
        }
        if specs is not None:
            report = check_observation_preserving(program, res.program, res.provenance, specs)
            entry["checks"] = [[name, *verdict_entry(v)] for name, v in report.checks()]
            entry["dependence"] = [dependence(program, res, spec) for spec in specs]
        if preset == p.audit_preset:
            entry["audit"] = audit(program, res, specs[0])
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tables = {}  # per workload, so the file lists each workload's seeds in turn
    for key in (*SEEDS, *SWEEP):
        for p in group(key):
            table = tables.setdefault(p.workload, {})
            table[f"{p.name}/prepared"] = prepared(p.program, p.types)
            for preset, entry in outputs(p).items():
                table[f"{p.name}/{preset}"] = entry
    table = {name: entry for entries in tables.values() for name, entry in entries.items()}
    Path(argv[0]).write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} results written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
