"""Write what every pass pipeline outputs on the benchmark and sweep programs,
and what the checkers say of it, so that two commits can be compared result
by result.

    python3 tests/pass_outputs.py OUT.json

The programs are each workload of `perfbench/gen.py` at seeds 1, 2 and
11-13, with its observation-stripped twin, and each `SWEEP` program of
`test_passes`. Each one runs under every preset and under the unsafe fold.
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
from opaqueir.interp import parse_input, run  # noqa: E402
from opaqueir.ir import IRError, print_program, typecheck, walk_blocks  # noqa: E402
from opaqueir.passes import PRESETS, optimize, unsafe_const_fold_opaque  # noqa: E402
from opaqueir.patterns import prepare  # noqa: E402
from opaqueir.validate import audit_chain_preservation, check_observation_preserving  # noqa: E402
from test_passes import SWEEP, sweep_program  # noqa: E402
from test_validate import load_benchmark_generator  # noqa: E402

SEEDS = (1, 2, 11, 12, 13)


def programs():
    """(name, source text, input texts, audit preset) of every program
    compared; a sweep program has no inputs, and only the program the
    benchmark audits has an audit preset."""
    gen = load_benchmark_generator()
    for workload, make in gen.WORKLOADS.items():
        for seed in SEEDS:
            for case in make(seed):
                name = f"{workload}/{seed}/{case.name}"
                yield name, case.text, case.inputs, None if case.audit_twin else case.audit_preset
                yield f"{name}/twin", case.twin, case.inputs, case.audit_preset if case.audit_twin else None
    for shape, pattern in SWEEP:
        yield f"sweep/{shape}/{pattern}", sweep_program(shape, pattern), None, None


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


def prepared(program) -> dict:
    """What printing leaves out of a prepared program: its types and each
    instruction's source location, in `walk_blocks` order per function."""
    info = typecheck(program)
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


def outputs(program, inputs, audit_preset) -> dict:
    """Every preset's and the unsafe fold's output on one program, with the
    checks over `inputs` and the audit at `audit_preset`."""
    specs = None if inputs is None else [parse_input(text) for text in inputs]
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
        entry = out[preset] = {
            "program": print_program(res.program),
            "var_types": var_types(res.program),
            "provenance": res.provenance.rows(),
            "log": log,
        }
        if specs is not None:
            report = check_observation_preserving(program, res.program, res.provenance, specs)
            entry["checks"] = [[name, *verdict_entry(v)] for name, v in report.checks()]
            entry["dependence"] = [dependence(program, res, spec) for spec in specs]
        if preset == audit_preset:
            entry["audit"] = audit(program, res, specs[0])
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    table = {}
    for name, text, inputs, audit_preset in programs():
        program = prepare(text)[0]
        table[f"{name}/prepared"] = prepared(program)
        for preset, entry in outputs(program, inputs, audit_preset).items():
            table[f"{name}/{preset}"] = entry
    Path(argv[0]).write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} results written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
