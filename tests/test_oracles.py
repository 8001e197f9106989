"""The oracle table: every replaced algorithm against the reference it
replaced (`tests/references.py`), over the program supply of
`tests/programs.py`. A comparison tallies what it compared on each
program of a group, and its row's floor on the tally fails the test of a
row that a supply change has emptied.
"""

import itertools
import random
from collections import Counter

import pytest

from opaqueir import deps, interp, ir, validate
from opaqueir.deps import DepInfo, analyze, opaque_skeleton
from opaqueir.interp import run
from opaqueir.ir import AtomExpr, BinaryExpr, Define, DescriptorExpr, UnaryExpr, instr_at
from opaqueir.passes import PASSES, PRESETS, constprop, dce, optimize
from opaqueir.patterns import prepare
import references
from programs import GROUPS, SEEDS, SWEEP, group, known_failure

PRESET_NAMES = sorted(PRESETS)


def preset_programs(p):
    """The supply program as prepared and the output of each preset that
    compiles it."""
    return [p.program, *(res.program for _, res in p.compiled(PRESET_NAMES))]


def preset_runs(p):
    """The run on a sweep program's one input of each of its preset
    programs."""
    (spec,) = p.specs
    return [run(q, spec) for q in preset_programs(p)]


def audited_runs(p):
    """(program, input, analysis) of each run whose links the value-set
    rows audit: a sweep program's preset runs, or the run the benchmark's
    chain audit makes of a generated program it audits, the reference run
    on the first input."""
    if p.workload == "sweep":
        return [(r.program, p.specs[0], analyze(r)) for r in preset_runs(p)]
    if p.audit_preset is None:
        return []
    return [(p.program, p.specs[0], analyze(run(p.program, p.specs[0])))]


def audited_links(info):
    return [(j, k) for j, ks in opaque_skeleton(info).items() for k in ks]


def same_tokens(reference, replacement, p, tally, monkeypatch):
    tokens = references.lexed(replacement, p.text)
    assert isinstance(tokens, list) and tokens == references.lexed(reference, p.text)
    tally["compared"] += 1


def same_types(reference, replacement, p, tally, monkeypatch):
    """As prepared and after each preset that compiles it: the diagnostics,
    in order, and the type tables, each with its order."""
    for q in preset_programs(p):
        assert references.validated(replacement, q) == references.validated(reference, q)
        tally["compared"] += 1


def other_value(value):
    """A value of the same type as `value`, when there is another one."""
    if type(value) is bool:
        return not value
    return value ^ 1 if type(value) is int else None


PURE = (AtomExpr, UnaryExpr, BinaryExpr, DescriptorExpr)


def same_runs(reference, replacement, p, tally, monkeypatch):
    """Each preset program's run, and each of these runs patched at the
    first execution of each pure define: events, trap, steps and memory."""

    def compared(program, spec, **kw):
        r = replacement(program, spec, **kw)
        want = reference(program, spec, **kw).run()
        assert repr((r.events, r.trapped, r.steps, dict(r.memory))) == repr(want)
        tally["compared"] += 1
        return r

    (spec,) = p.specs
    for q in preset_programs(p):
        patched = set()
        for ev in compared(q, spec).events:
            instr = instr_at(q, ev.iid) if ev.kind == "instr" else None
            if type(instr) is Define and type(instr.rhs) in PURE and ev.iid not in patched:
                patched.add(ev.iid)
                ((name, value),) = ev.defs
                if (alt := other_value(value)) is not None:
                    compared(q, spec, patch=(ev.seq, name, alt))


def same_cut_runs(reference, replacement, p, tally, monkeypatch):
    """Each preset program's run cut short, by a step budget of half its
    steps and by an opaque budget of 3 steps: events, trap, steps and
    memory. The trap is tallied."""
    (spec,) = p.specs
    for q in preset_programs(p):
        steps = replacement(q, spec).steps
        for budgets in (dict(step_budget=steps // 2), dict(opaque_budget=3)):
            r = replacement(q, spec, **budgets)
            want = reference(q, spec, **budgets).run()
            assert repr((r.events, r.trapped, r.steps, dict(r.memory))) == repr(want)
            tally["compared"] += 1
            tally[r.trapped] += 1


def same_analysis(reference, replacement, p, tally, monkeypatch):
    for result in preset_runs(p):
        assert result.trapped is None
        info = replacement(result)
        dep_sources, cd_sources, seqs = reference(result.program, result)
        assert info.dep_sources == dep_sources
        assert info.cd_sources == cd_sources
        assert (info.obs_seqs, info.io_seqs, info.opaque_seqs, info.anchor_seqs) == seqs
        tally["compared"] += 1


def same_walks(reference, replacement, p, tally, monkeypatch):
    """The skeleton, and `dep_reachable` from every anchor or opaque event:
    on a sweep program's preset runs to every later event, with every
    event's `dep_ancestors`; on a generated program's reference run on
    each input to the later anchor and opaque events, or to the next 16 in
    a run with over 200 of them, where walks back from far targets make
    every pair cost minutes."""
    sweep = p.workload == "sweep"
    runs = preset_runs(p) if sweep else [run(p.program, spec) for spec in p.specs]
    for info in map(analyze, runs):
        out = references.reverse_edges(info)
        assert opaque_skeleton(info) == references.reference_skeleton(info, out)
        sources = sorted({*info.anchor_seqs, *(ev.seq for ev in info.events if ev.is_opaque)})
        for i, src in enumerate(sources):
            reach = reference(out, src)
            far = None if len(sources) <= 200 else i + 17
            for dst in range(src + 1, len(info.events)) if sweep else sources[i + 1 : far]:
                assert replacement(info, src, dst) == (dst in reach), (src, dst)
                tally["compared"] += 1
        if sweep:
            want = [[] for _ in info.events]
            for src in range(len(info.events)):
                for dst in reference(out, src) - {src}:
                    want[dst].append(src)
            for dst, srcs in enumerate(want):
                assert sorted(info.dep_ancestors(dst)) == srcs, dst
                tally["compared"] += 1


def same_value_sets(reference, replacement, p, tally, monkeypatch):
    """On a sweep program's preset runs, or on the run the benchmark audits
    of a generated program. Each corpus seed has singleton groups that
    run all 64 samples."""
    for program, spec, info in audited_runs(p):
        pairs = audited_links(info)
        got = replacement(program, spec, info, pairs)
        assert got == reference(program, spec, info, pairs), p.name
        tally["compared"] += len(pairs)
        singletons = [w for w in got.values() if w.bound == 1 and w.status == "sampled"]
        tally["sampled singletons"] += len(singletons)


def same_scans(reference, replacement, p, tally, monkeypatch):
    """Every scan the audit makes, of the reference run and of each rerun,
    checked link by link, on the runs `same_value_sets` audits."""
    def checked(info, j, targets, sign):
        got = replacement(info, j, targets, sign)
        assert got == {k: reference(info, j, iid, sign) for k, iid in targets.items()}
        tally["compared"] += len(targets)
        tally["serving several links"] += len(targets) > 1
        return got

    monkeypatch.setattr(deps, "dependent_outcomes", checked)
    for program, spec, info in audited_runs(p):
        deps._value_sets(program, spec, info, audited_links(info))


def received_by(monkeypatch, name, p):
    """The supply program and every program pass `name` receives in a
    preset run on a fresh program of its text, so no memoized result hides
    a call."""
    received = [p.program]
    fn = PASSES[name]

    def spy(program):
        received.append(program)
        return fn(program)

    monkeypatch.setitem(PASSES, name, spy)
    for preset in PRESET_NAMES:
        program = prepare(p.text)[0]
        try:
            optimize(program, preset)
        except ir.IRError as exc:
            assert known_failure(program, preset, exc)
    monkeypatch.setitem(PASSES, name, fn)
    return received


def same_pass_output(reference, replacement, p, tally, monkeypatch):
    """On the program and on every program the pass receives in a preset:
    the program, its printed text and the provenance rows."""
    with ir.sealed_opaque_regions():
        for program in received_by(monkeypatch, replacement.__name__, p):
            got, want = replacement(program), reference(program)
            assert got.program == want.program
            assert ir.print_program(got.program) == ir.print_program(want.program)
            assert got.provenance.rows() == want.provenance.rows()
            tally["compared"] += 1


def same_taint(reference, replacement, p, tally, monkeypatch):
    """As prepared and after P2 and Pz: none of the supply touches a
    reference in an opaque region, so the reference applies to every
    query that names no variable defined inside an opaque region. The
    other queries may only be stricter: every witness of the reference is
    also one of the taint's. Queries: a sample of single names and of
    name pairs per program."""
    rng = random.Random(p.name)
    for program in [p.program, *(res.program for _, res in p.compiled(("P2", "Pz")))]:
        regions = [
            instr.rhs.region
            for f in program.functions
            for block in ir.walk_blocks(f.region)
            for instr in block.instrs
            if isinstance(instr, ir.Define) and isinstance(instr.rhs, ir.OpaqueExpr)
        ]
        assert not any(ir.region_ref_names(r) for r in regions)
        inner = set().union(*map(ir.region_defined_names, regions))
        names = sorted(set().union(*(
            ir.region_defined_names(f.region) | {x.name for x in f.params}
            for f in program.functions
        )))
        singles = rng.sample(names, min(3, len(names)))
        for secrets in [[n] for n in singles] + [rng.sample(names, 2) for _ in range(3)]:
            verdict, want = replacement(program, secrets), reference(program, set(secrets))
            tally["compared"] += 1
            if inner.isdisjoint(secrets):
                assert verdict == want
                tally["passed" if verdict.passed else "failed"] += 1
            else:
                assert set(want.witnesses) <= set(verdict.witnesses)
                tally["inner"] += 1


def same_views_and_ordering(reference, replacement, p, tally, monkeypatch):
    """Under every preset and the unsafe fold, for the reference run and
    the optimized run on each input: the observation trace, the io index,
    both io behaviors the benchmark compares and the io counterparts equal
    whole-trace scans, and a second call returns the same object;
    `check_ordering` gives the verdict of checking every pair of the
    closure, and each of its witnesses is one of the reference's;
    `EventMap` gives every reference event the counterpart the union-find
    map gives it. On the sweep runs, `hb` is membership in `hb_pairs` for
    every pair of anchors."""
    for (_, res), spec in itertools.product(p.compiled(), p.specs):
        ref, opt = run(p.program, spec), run(res.program, spec)
        assert ref.trapped is None, ref.trapped
        for result in (ref, opt):
            trace = validate.observation_trace(result)
            assert trace == references.reference_observation_trace(result)
            assert validate.observation_trace(result) is trace
            index = validate._io_index(result)
            assert index == references.reference_io_index(result)
            assert validate._io_index(result) is index
            for exclude in (frozenset(), frozenset({"tailio", "cc"})):
                behavior = result.io_behavior(exclude)
                assert behavior == references.reference_io_behavior(result, exclude)
                assert result.io_behavior(exclude) is behavior
        want = references.reference_io_counterparts(ref, opt)
        assert validate._io_counterparts(ref, opt) == want
        prov = res.provenance
        verdict, want = replacement(ref, opt, prov), reference(ref, opt, prov)
        assert verdict.passed == want.passed
        assert set(verdict.witnesses) <= set(want.witnesses)
        assert len(verdict.witnesses) <= len(want.witnesses)  # one per violated edge
        tally["compared"] += 1
        tally["passed" if verdict.passed else "failed"] += 1
        em = validate.EventMap(ref.events, opt.events, prov)
        expected = references.ReferenceEventMap(ref.events, opt.events, prov)
        for ev in reversed(ref.events):  # latest first: no query leans on an earlier one
            assert em.counterpart(ev.seq) == expected.counterpart(ev.seq)
        if p.workload == "sweep":
            for info in (deps.analyze(ref), deps.analyze(opt)):
                pairs = set(info.hb_pairs())
                for a in info.anchor_seqs:
                    for b in info.anchor_seqs:
                        assert info.hb(a, b) == ((a, b) in pairs)


BENCHMARK = (1, 2, 11, 12, 13, *SWEEP)  # the programs of tests/pass_outputs.py
# The sweep programs whose observation regions run more than 3 steps.
OPAQUE_CUT = [key for key in SWEEP if key[1] in ("monolithic", "decoupled_tailio", "cc", "pair")]
# Per row: the name, the reference, the replacement (a row comparing
# several functions names its main pair; the comparison names the rest),
# the comparison, the supply groups, and the floor: at least n comparisons
# per program of the group (or per input, or per group), and a positive
# tally of each further key on each of the groups given for it.
ORACLES = [
    ("tokenize", references.reference_tokenize, ir.tokenize, same_tokens, SWEEP, (1, "program")),
    (
        "typecheck", references.ReferenceValidator, ir._Validator, same_types, BENCHMARK,
        (6, "program"),
    ),
    ("interpreter", references.ReferenceInterp, interp.run, same_runs, SWEEP, (6, "program")),
    (
        "interpreter cut by budgets", references.ReferenceInterp, interp.run, same_cut_runs, SWEEP,
        (2, "program", {"step budget exceeded": SWEEP, "opaque region budget exceeded": OPAQUE_CUT}),
    ),
    ("analyze", references.reference_analysis, analyze, same_analysis, SWEEP, (6, "program")),
    (
        "walks", references.reference_reach, DepInfo.dep_reachable, same_walks, BENCHMARK,
        (1, "input"),
    ),
    (
        "value sets", references.reference_value_sets, deps._value_sets, same_value_sets,
        (1, 2, 11, *SWEEP), (1, "group", {"sampled singletons": SEEDS}),  # lanes run to the end
    ),
    (
        "one scan", references.value_at_dependent, deps.dependent_outcomes, same_scans,
        (1, 11, *SWEEP), (1, "group", {"serving several links": SEEDS}),
    ),
    ("dce", references.reference_dce, dce, same_pass_output, SWEEP, (2, "program")),
    ("constprop", references.reference_constprop, constprop, same_pass_output, SWEEP, (2, "program")),
    (
        "taint", references.reference_check_secret_branches, validate.check_secret_branches,
        same_taint, (0, 1, 2, 3, *SWEEP),
        (12, "program", {"passed": GROUPS, "inner": GROUPS, "failed": SEEDS}),
    ),
    (
        "views and ordering", references.reference_check_ordering,
        validate.check_ordering, same_views_and_ordering, BENCHMARK,
        (6, "input", {"passed": GROUPS, "failed": SEEDS}),  # the unsafe fold fails some
    ),
]


def cases():
    """Each row on each of its groups, group after group."""
    for key in GROUPS:
        for name, reference, replacement, compare, groups, floor in ORACLES:
            if key in groups:
                group_id = "-".join(key) if key in SWEEP else key
                case = reference, replacement, compare, key, floor
                yield pytest.param(*case, id=f"{name.replace(' ', '_')}-{group_id}")


@pytest.mark.parametrize("reference, replacement, compare, key, floor", cases())
def test_replacement_matches_its_reference(monkeypatch, reference, replacement, compare, key, floor):
    programs = group(key)
    tally = Counter()
    for p in programs:
        compare(reference, replacement, p, tally, monkeypatch)
    n, per, *positive = floor
    units = {"program": len(programs), "input": sum(len(p.specs) for p in programs), "group": 1}
    assert tally["compared"] >= n * units[per], dict(tally)
    for k, groups in dict(*positive).items():
        assert tally[k] or key not in groups, dict(tally)
