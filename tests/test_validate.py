"""Differential validation: trace comparison, ordering, chain audit,
secret-branch taint, and the protection-specific audits."""

import gc
import itertools
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from opaqueir import deps, interp, ir
from opaqueir.deps import DepInfo
from opaqueir.interp import parse_input, run
from opaqueir.passes import PRESETS, ProvenanceMap, instcombine, optimize, unsafe_const_fold_opaque
from opaqueir.patterns import prepare
from opaqueir.validate import (
    EventMap,
    _event_loc,
    PartialState,
    ValidationReport,
    Verdict,
    audit_chain_preservation,
    audit_erasure,
    audit_interleaving,
    audit_value_utilization,
    check_line,
    check_observation_preserving,
    check_ordering,
    check_secret_branches,
    compare_traces,
    observation_trace,
)
from programs import load_benchmark_generator
from references import reference_check_ordering, reference_check_secret_branches


def prog(text):
    program, _ = prepare(text)
    return program


def run_ok(program, inputs=None):
    spec = parse_input(inputs) if inputs else None
    result = run(program, spec)
    assert result.trapped is None, result.trapped
    return result


def validate(src, preset, inputs, conditional_on=None):
    program = prog(src)
    res = optimize(program, preset=preset)
    specs = [parse_input(t) if t else None for t in inputs]
    return check_observation_preserving(
        program, res.program, res.provenance, specs, conditional_on=conditional_on
    )


ONE_INPUT = "desc inp in ordered\n5\n"
TWO_INPUTS = "desc inp in ordered\n5\n9\n"


CHAINED = """
function main() {
  a = io(inp)
  b = io(inp)
  t1 = observe_decoupled(a)
  t2 = observe_decoupled(b, t1)
  u = observe_tailio(t2)
  io(out, a)
  return()
}
"""

MONOLITHIC = """
function main() {
  x = io(inp)
  y = x ^ 21
  t = observe_monolithic(x, y)
  io(out, y)
  return()
}
"""


# --------------------------------------------------------------------------
# Trace comparison
# --------------------------------------------------------------------------


def test_identical_traces_compare_clean():
    for src, inputs in [(CHAINED, TWO_INPUTS), (MONOLITHIC, ONE_INPUT)]:
        trace = observation_trace(run_ok(prog(src), inputs))
        assert trace  # the fixture had better observe something
        delta = compare_traces(trace, trace)
        assert delta.forward.passed and delta.backward.passed
        assert len(delta.pairs) == len(trace)


def test_missing_observation_fails_forward_with_location():
    trace = observation_trace(run_ok(prog(MONOLITHIC), ONE_INPUT))
    delta = compare_traces(trace, ())
    assert not delta.forward.passed
    assert delta.backward.passed
    sid = trace[0].source_id
    assert f"{sid[0]}:{sid[1]}#0 missing" in delta.missing


def test_value_mismatch_fails_forward():
    trace = observation_trace(run_ok(prog(MONOLITHIC), ONE_INPUT))
    twisted = tuple(
        PartialState(s.source_id, s.names, (999,) * len(s.values), s.seq, s.record)
        for s in trace
    )
    delta = compare_traces(trace, twisted)
    assert not delta.forward.passed
    assert delta.backward.passed  # positionally matched, so nothing is extra
    assert "expected" in delta.mismatched[0] and "got" in delta.mismatched[0]


def test_unmatched_extra_record_fails_backward():
    trace = observation_trace(run_ok(prog(MONOLITHIC), ONE_INPUT))
    extra = PartialState((99, 9), ("z",), (1,), 50, (50, 0))
    delta = compare_traces(trace, trace + (extra,))
    assert delta.forward.passed
    assert not delta.backward.passed
    assert "99:9" in delta.invented[0]


def test_extra_state_excused_when_a_sibling_tag_matched():
    # A combined record carries the executed arm's tag plus a sibling the
    # reference never produced; the exact sibling match vouches for it.
    trace = observation_trace(run_ok(prog(MONOLITHIC), ONE_INPUT))
    st = trace[0]
    alternate = PartialState((77, 7), ("q",), (4,), st.seq, st.record)
    delta = compare_traces(trace, trace + (alternate,))
    assert delta.backward.passed


def test_repeated_source_ids_match_by_instance():
    src = """
function main() {
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  t = observe_decoupled(i)
  u = observe_tailio(t)
  i2 = i + 1
  br head(i2)
done:
  return()
}
"""
    trace = observation_trace(run_ok(prog(src)))
    assert [s.values for s in trace] == [(0,), (1,), (2,)]
    assert len({s.source_id for s in trace}) == 1
    delta = compare_traces(trace, trace[:-1])
    assert not delta.forward.passed
    assert delta.missing[0].endswith("#2 missing")


# --------------------------------------------------------------------------
# The preservation report, end to end
# --------------------------------------------------------------------------


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_fixture_programs_validate_under_every_preset(preset):
    for src, inputs in [(CHAINED, TWO_INPUTS), (MONOLITHIC, ONE_INPUT)]:
        report = validate(src, preset, [inputs])
        assert report.passed, (preset, report.render())


def test_p0_is_the_identity_baseline():
    for src, inputs in [(CHAINED, TWO_INPUTS), (MONOLITHIC, ONE_INPUT)]:
        report = validate(src, "P0", [inputs])
        assert report.passed
        assert all(v.witnesses == () for _, v in report.checks())


MIXED = """
function mix(v: u32) -> (u32) {
  w = v ^ 21
  return(w)
}
function main() {
  a = io(inp)
  b = mix(a)
  t1 = observe_decoupled(a)
  t2 = observe_decoupled(b, t1)
  u = observe_tailio(t2)
  io(out, b)
  return()
}
"""


# MIXED with a conditional branch in `mix`, which its runs take.
BRANCHING = MIXED.replace(
    "  w = v ^ 21\n  return(w)",
    "  c = v > 3\n  br c, big(v), small(v)\nbig(x: u32):\n  w = x ^ 21\n  return(w)\n"
    "small(y: u32):\n  return(y)",
)


def test_every_preset_shares_one_typecheck_and_postdominators_per_program(monkeypatch):
    """The checks under every preset, and the chain audit's reruns, reuse
    the types and post-dominators of each program they run; only a
    program whose run takes a conditional branch computes post-dominators."""
    validated = []
    pdom_regions = []

    class Counted(ir._Validator):
        def __init__(self, program):
            validated.append(program)
            super().__init__(program)

    def counted_pdoms(region):
        pdom_regions.append(region)
        return ir.compute_postdominators(region)

    monkeypatch.setattr(ir, "_Validator", Counted)
    monkeypatch.setattr(deps, "compute_postdominators", counted_pdoms)
    for src in (MIXED, BRANCHING):
        validated.clear()
        pdom_regions.clear()
        program = prog(src)
        spec = parse_input(ONE_INPUT)
        results = {preset: optimize(program, preset=preset) for preset in sorted(PRESETS)}
        for res in results.values():
            report = check_observation_preserving(program, res.program, res.provenance, [spec])
            assert report.passed, report.render()
        checked = {id(p): p for p in [program] + [res.program for res in results.values()]}
        # Every program, intermediate pass outputs included, is validated once.
        times = Counter(map(id, validated))
        assert all(times[i] == 1 for i in checked) and set(times.values()) == {1}
        # Post-dominators: once per (checked program whose run branches,
        # function), never for a program whose run takes no conditional branch.
        branching = [
            p for p in checked.values()
            if any(ev.kind == "branch" and ir.instr_at(p, ev.iid).cond is not None
                   for ev in run(p, spec).events)
        ]
        assert len(branching) == (len(checked) if src is BRANCHING else 0)
        expected_pdoms = Counter(id(f.region) for p in branching for f in p.functions)
        assert Counter(map(id, pdom_regions)) == expected_pdoms

        reruns = []

        def counted_rerun(*args, **kw):
            reruns.append(args)
            return run(*args, **kw)

        monkeypatch.setattr(deps, "run", counted_rerun)
        res = results["P3"]
        verdict = audit_chain_preservation(
            run(program, spec), run(res.program, spec), res.provenance, inputs=spec
        )
        assert verdict.passed and reruns
        assert len(validated) == sum(times.values())
        assert Counter(map(id, pdom_regions)) == expected_pdoms


def test_unsafe_fold_fails_integrity_and_ordering():
    src = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  io(out, x)
  return()
}
"""
    program = prog(src)
    res = unsafe_const_fold_opaque(program)
    report = check_observation_preserving(
        program, res.program, res.provenance, [parse_input(ONE_INPUT)]
    )
    assert report.io_equality.passed  # the fold kept the values right
    assert not report.value_integrity_fwd.passed
    assert "missing" in report.value_integrity_fwd.witnesses[0]
    assert not report.ordering.passed
    assert not report.passed


def test_merged_observations_expand_and_validate():
    src = """
function main() {
  a = io(inp)
  w1 = opaque { s1 = snapshot(a); yield(unit_value) }
  w2 = opaque { s2 = snapshot(a); yield(unit_value) }
  use(w1)
  use(w2)
  io(out, a)
  return()
}
"""
    program = prog(src)
    res = instcombine(program)
    report = check_observation_preserving(
        program, res.program, res.provenance, [parse_input(ONE_INPUT)]
    )
    assert report.passed, report.render()
    # sanity: the merge really happened, one record carrying both tags
    opt = run_ok(res.program, ONE_INPUT)
    recs = [rec for ev in opt.events for rec in ev.obs]
    assert len(recs) == 1 and len(recs[0].tags) == 2


def test_merged_nested_observations_keep_their_own_values():
    src = """
function main() {
  a = io(inp)
  b = io(inp)
  x = opaque { y = opaque { p = snapshot(b); yield(p) }; q = snapshot(a); yield(q) }
  z = opaque { y2 = opaque { p2 = snapshot(b); yield(p2) }; q2 = snapshot(a); yield(q2) }
  s = x + z
  io(out, s)
  return()
}
"""
    report = validate(src, "P2", ["desc inp in ordered\n1\n2\n"])
    assert report.passed, report.render()


def test_hoisted_arms_pass_both_ways():
    src = """
function main() {
  c = io(flag)
  br c, left, right
left:
  w1 = opaque { s1 = snapshot(c); yield(unit_value) }
  use(w1)
  br join
right:
  w2 = opaque { s2 = snapshot(c); yield(unit_value) }
  use(w2)
  br join
join:
  io(out, 0)
  return()
}
"""
    program = prog(src)
    res = instcombine(program)
    for value in (0, 1):
        spec = parse_input(f"desc flag in ordered\n{value}\n")
        report = check_observation_preserving(
            program, res.program, res.provenance, [spec]
        )
        # the merged instruction observes under both arms' tags; the one
        # the reference never executed is vouched for by its sibling
        assert report.value_integrity_bwd.passed, report.render()
        assert report.passed, report.render()


def test_unrolled_observation_loop_validates():
    src = """
function main() {
  t0 = token(7)
  br head(0, t0)
head(i, t):
  c = i < 3
  br c, body, done(t)
body:
  w = observe_decoupled(i, t)
  i2 = i + 1
  br head(i2, w)
done(tf):
  u = observe_tailio(tf)
  io(out, 1)
  return()
}
"""
    program = prog(src)
    res = optimize(program, preset="Pz")
    blocks = res.program.function("main").region.blocks
    assert all(
        not (hasattr(i, "cond") and i.cond is not None)
        for b in blocks
        for i in b.instrs
    ), "the loop should be gone"
    report = check_observation_preserving(
        program, res.program, res.provenance, [None]
    )
    assert report.passed, report.render()


@pytest.mark.parametrize(
    "body",
    [
        "t = observe_monolithic(i, a)",
        "u = observe_decoupled(i, a)\n  t = observe_tailio(u)",
        "observe_cc(i, a)",
        "d = artificial_def_cc(i)\n  io(out, d)",
        "d = ordered_set_descriptor\n  io(d, i)",
    ],
)
def test_unrolled_descriptor_uses_follow_their_clones(body):
    # Each clone of the loop body binds the descriptor afresh, inside an
    # opaque region or at function level; its io must use that clone's.
    src = f"""
function main() {{
  a = io(inp)
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  {body}
  i2 = i + 1
  br head(i2)
done:
  io(out, a)
  return()
}}
"""
    program = prog(src)
    res = optimize(program, preset="Pz")
    assert len(res.program.function("main").region.blocks) > 4, "the loop should be unrolled"
    spec = parse_input(ONE_INPUT)
    assert run(res.program, spec).io_behavior() == run(program, spec).io_behavior()
    report = check_observation_preserving(program, res.program, res.provenance, [spec])
    assert report.passed, report.render()


def test_trap_mismatch_fails_io_equality():
    ref = prog(
        """
function main() {
  z = io(inp)
  q = 5 / z
  io(out, q)
  return()
}
"""
    )
    opt = prog(
        """
function main() {
  z = io(inp)
  io(out, 5)
  return()
}
"""
    )
    report = check_observation_preserving(
        ref, opt, ProvenanceMap(), [parse_input("desc inp in ordered\n0\n")]
    )
    assert not report.io_equality.passed
    assert "trap" in report.io_equality.witnesses[0]


def test_changed_write_fails_io_equality():
    ref = prog("function main() { a = io(inp)\n io(out, a)\n return() }")
    opt = prog("function main() { a = io(inp)\n b = a + 1\n io(out, b)\n return() }")
    report = check_observation_preserving(
        ref, opt, ProvenanceMap(), [parse_input(ONE_INPUT)]
    )
    assert not report.io_equality.passed
    assert "write out differs" in report.io_equality.witnesses[0]


# --------------------------------------------------------------------------
# Ordering
# --------------------------------------------------------------------------


def test_ordering_flags_a_severed_observe_from():
    # The copy between the read and the observation redirects observe-from
    # to the copy's event, so the read-before-observation pair is lost
    # even though every value and every io record is intact.
    ref = prog(
        """
function main() {
  a = io(inp)
  t = observe_monolithic(a)
  io(out, a)
  return()
}
"""
    )
    opt = prog(
        """
function main() {
  a0 = io(inp); a = a0
  t = observe_monolithic(a)
  io(out, a)
  return()
}
"""
    )
    spec = parse_input(ONE_INPUT)
    verdict = check_ordering(run(ref, spec), run(opt, spec))
    assert verdict.witnesses == ("3:3 before 4:3 not preserved",)  # the read, the observation


def test_ordering_accepts_chained_observations_after_p3():
    program = prog(CHAINED)
    res = optimize(program, preset="P3")
    spec = parse_input(TWO_INPUTS)
    verdict = check_ordering(run(program, spec), run(res.program, spec), res.provenance)
    assert verdict.passed, verdict.witnesses


def test_lost_io_record_always_fails_ordering():
    ref = prog("function main() { a = io(inp)\n io(out, a)\n return() }")
    opt = prog("function main() { a = io(inp)\n return() }")
    spec = parse_input(ONE_INPUT)
    verdict = check_ordering(run(ref, spec), run(opt, spec))
    assert not verdict.passed
    assert "io out #0 lost" in verdict.witnesses


# A region that yields a constant: `unsafe_const_fold_opaque` folds it and
# its snapshot of the read away, severing the read's chain to the write.
FOLDABLE = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  io(out, x)
  return()
}
"""


def counting_event_maps(monkeypatch):
    """Record the arguments of every `EventMap` the validator builds."""
    built = []

    def counted(*args):
        built.append(args)
        return EventMap(*args)

    monkeypatch.setattr("opaqueir.validate.EventMap", counted)
    return built


def test_ordering_builds_no_event_map_when_every_anchor_has_a_counterpart(monkeypatch):
    program = prog(CHAINED)
    res = optimize(program, preset="P3")
    spec = parse_input(TWO_INPUTS)
    ref, opt = run(program, spec), run(res.program, spec)
    assert deps.analyze(ref).hb_pairs()  # there is something to order
    built = counting_event_maps(monkeypatch)
    assert check_ordering(ref, opt, res.provenance).passed
    assert check_observation_preserving(program, res.program, res.provenance, [spec]).passed
    assert built == []


def test_ordering_builds_one_event_map_for_anchors_without_a_counterpart(monkeypatch):
    program = prog(FOLDABLE)
    res = unsafe_const_fold_opaque(program)
    spec = parse_input(ONE_INPUT)
    built = counting_event_maps(monkeypatch)
    verdict = check_ordering(run(program, spec), run(res.program, spec), res.provenance)
    assert len(built) == 1
    assert verdict.witnesses == ("3:3 before 4:3 not preserved",)  # the read, the region


def audited_reports(program, spec):
    """The chain reports of a reference run, as (verdict, tail does io)."""
    ref = run(program, spec)
    info = deps.analyze(ref)
    reports = deps.chain_reports(program, spec, info)
    return [(r.verdict, bool(ref.events[r.events[1]].ios)) for r in reports]


def test_chain_audit_builds_an_event_map_only_for_a_chain_it_checks(monkeypatch):
    masked = "function main() {\n a: u8 = io(inp)\n b = a & 0u8\n io(out, b)\n return()\n}"
    no_io = "function main() {\n a = opaque { yield(7) }\n b = a + 1\n use(b)\n return()\n}"
    cases = [
        (masked, "desc inp in ordered\n5u8\n", [("broken", True)]),
        (no_io, None, [("confirmed", False)]),
    ]
    built = counting_event_maps(monkeypatch)
    for src, inputs, reports in cases:
        program = prog(src)
        spec = parse_input(inputs) if inputs else None
        assert audited_reports(program, spec) == reports
        res = optimize(program, preset="P3")
        verdict = audit_chain_preservation(
            run(program, spec), run(res.program, spec), res.provenance, inputs=spec
        )
        assert verdict.passed and built == [], src
    # Two confirmed chains end in io: the map is built once, at the first.
    program = prog(CHAINED)
    spec = parse_input(TWO_INPUTS)
    checked = [r for r in audited_reports(program, spec) if r == ("confirmed", True)]
    assert len(checked) >= 2
    res = optimize(program, preset="P3")
    verdict = audit_chain_preservation(
        run(program, spec), run(res.program, spec), res.provenance, inputs=spec
    )
    assert verdict.passed and len(built) == 1
    program = prog(FOLDABLE)
    spec = parse_input(ONE_INPUT)
    res = unsafe_const_fold_opaque(program)
    verdict = audit_chain_preservation(
        run(program, spec), run(res.program, spec), res.provenance, inputs=spec
    )
    assert verdict.witnesses == ("chain 3:3->5:3 severed",) and len(built) == 2


# --------------------------------------------------------------------------
# The conditional form
# --------------------------------------------------------------------------

CONDITIONAL = """
function main() {
  dead = 1 + 2
  a = io(inp)
  t = observe_decoupled(a)
  io(out, a)
  return()
}
"""


def test_conditional_waiver_is_vacuous_when_the_anchor_dies():
    # P1 deletes both the anchor instruction and the unanchored
    # observation; conditioned on the anchor, nothing is owed.
    plain = validate(CONDITIONAL, "P1", [ONE_INPUT])
    assert not plain.value_integrity_fwd.passed

    waived = validate(CONDITIONAL, "P1", [ONE_INPUT], conditional_on=("main", 0, 0))
    assert waived.value_integrity_fwd.passed, waived.render()
    assert waived.passed

    by_name = validate(CONDITIONAL, "P1", [ONE_INPUT], conditional_on="main")
    assert by_name.value_integrity_fwd.passed


def test_conditional_on_a_surviving_anchor_still_fails():
    report = validate(CONDITIONAL, "P1", [ONE_INPUT], conditional_on=("main", 0, 1))
    assert not report.value_integrity_fwd.passed


def test_conditional_on_requires_a_real_function():
    with pytest.raises(KeyError):
        validate(CONDITIONAL, "P1", [ONE_INPUT], conditional_on="nonesuch")


def test_conditional_waiver_never_covers_mismatches():
    ref = prog(
        """
function main() {
  k = 1 + 2
  a = io(inp)
  t = observe_decoupled(a)
  io(out, a)
  return()
}
"""
    )
    opt = prog(
        """
function main() {
  a0 = io(inp)
  a = a0 + 1
  t = observe_decoupled(a)
  io(out, a0)
  return()
}
"""
    )
    report = check_observation_preserving(
        ref, opt, ProvenanceMap(), [parse_input(ONE_INPUT)],
        conditional_on=("main", 0, 0),
    )
    assert not report.value_integrity_fwd.passed
    assert "expected" in report.value_integrity_fwd.witnesses[0]


# --------------------------------------------------------------------------
# Event correspondence
# --------------------------------------------------------------------------


def test_identity_provenance_maps_every_event_to_itself():
    result = run_ok(prog(MONOLITHIC), ONE_INPUT)
    em = EventMap(result.events, result.events, ProvenanceMap.identity(result.program))
    for ev in result.events:
        if ev.iid is not None:
            assert em.counterpart(ev.seq) == ev.seq


def test_event_map_requires_edges():
    result = run_ok(prog(MONOLITHIC), ONE_INPUT)
    em = EventMap(result.events, result.events, ProvenanceMap())
    assert all(em.counterpart(ev.seq) is None for ev in result.events)


@pytest.mark.parametrize("preset", ["P2", "P3"])
def test_merged_opaque_regions_map_many_events_to_one(preset):
    """instcombine merges two identical pure regions into one survivor with
    two `combined` sources, so each reference event maps to its one run."""
    program = prog(
        """
function main() {
  a = opaque { yield(5) }
  b = opaque { yield(5) }
  c = a + b
  io(out, c)
  return()
}
"""
    )
    res = optimize(program, preset=preset)
    assert ("instcombine", 2) in res.log
    ref, opt = run_ok(program), run_ok(res.program)
    em = EventMap(ref.events, opt.events, res.provenance)
    [merged] = [ev.seq for ev in opt.events if ev.kind == "opaque"]
    ref_opaques = [ev.seq for ev in ref.events if ev.kind == "opaque"]
    assert len(ref_opaques) == 2
    assert [em.counterpart(seq) for seq in ref_opaques] == [merged, merged]
    assert audit_chain_preservation(ref, opt, res.provenance).passed


def test_a_merge_in_a_loop_maps_each_iteration_to_its_own_event():
    """Two loop-body instructions merged into the first: the reference
    events of both, in execution order, fall into one group per iteration."""
    result = run_ok(prog(
        """
function main() {
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  a = i + 1
  b = a * 2
  br head(a)
done:
  return()
}
"""
    ))
    a_evs = [ev for ev in result.events if ev.defs and ev.defs[0][0] == "a"]
    b_evs = [ev for ev in result.events if ev.defs and ev.defs[0][0] == "b"]
    assert len(a_evs) == len(b_evs) == 3
    prov = ProvenanceMap()
    prov.add(a_evs[0].iid, a_evs[0].iid, "combined")
    prov.add(b_evs[0].iid, a_evs[0].iid, "combined")
    em = EventMap(result.events, result.events, prov)
    for a, b in zip(a_evs, b_evs):
        assert em.counterpart(a.seq) == em.counterpart(b.seq) == a.seq


# --------------------------------------------------------------------------
# Chain preservation
# --------------------------------------------------------------------------


def counting_runs_and_analyses(monkeypatch):
    """The patch of every interpreter execution, and the events of every
    run analysed, memo hits excluded."""
    executed, analysed = [], []

    class Counted(interp._Interp):
        def run(self):
            executed.append(None if self.patch_seq < 0 else self.patch_seq)
            return super().run()

    def counted_info(**fields):
        analysed.append(fields["events"])
        return DepInfo(**fields)

    monkeypatch.setattr(interp, "_Interp", Counted)
    monkeypatch.setattr(deps, "DepInfo", counted_info)
    return executed, analysed


def test_checks_and_the_audit_share_each_run_and_its_analysis(monkeypatch):
    """A held reference run, checked under every preset, is analysed once;
    the audit then reuses the checked runs and their analyses, and makes
    as many reruns as on runs nothing shares."""
    program = prog(MIXED)
    spec = parse_input(ONE_INPUT)
    results = {preset: optimize(program, preset=preset) for preset in sorted(PRESETS)}
    assert len(results) == 6
    executed, analysed = counting_runs_and_analyses(monkeypatch)
    ref = run(program, spec)
    opts = {preset: run(res.program, spec) for preset, res in results.items()}
    held = {id(r.events) for r in [ref, *opts.values()]}
    assert len(executed) == len(held)
    for res in results.values():
        report = check_observation_preserving(program, res.program, res.provenance, [spec])
        assert report.passed, report.render()
    assert len(executed) == len(held)  # every check ran nothing
    times = Counter(map(id, analysed))
    assert times[id(ref.events)] == 1
    assert set(times) == held and set(times.values()) == {1}

    executed.clear()
    analysed.clear()
    res = results["P3"]
    verdict = audit_chain_preservation(ref, opts["P3"], res.provenance, inputs=spec)
    assert verdict.passed
    assert held.isdisjoint(map(id, analysed))
    reruns = list(executed)
    assert reruns and None not in reruns  # patched reruns only

    fresh = [run(replace(r.program), spec) for r in (ref, opts["P3"])]  # shared with nothing
    executed.clear()
    assert audit_chain_preservation(*fresh, res.provenance, inputs=spec).passed
    assert executed == reruns


def test_chain_audit_passes_across_presets():
    program = prog(CHAINED)
    spec = parse_input(TWO_INPUTS)
    ref = run(program, spec)
    for preset in sorted(PRESETS):
        res = optimize(program, preset=preset)
        verdict = audit_chain_preservation(
            ref, run(res.program, spec), res.provenance, inputs=spec
        )
        assert verdict.passed, (preset, verdict.witnesses)


def test_chain_audit_catches_the_severed_chain():
    src = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  io(out, x)
  return()
}
"""
    program = prog(src)
    res = unsafe_const_fold_opaque(program)
    spec = parse_input(ONE_INPUT)
    verdict = audit_chain_preservation(
        run(program, spec), run(res.program, spec), res.provenance, inputs=spec
    )
    assert not verdict.passed
    assert any("severed" in w or "lost" in w for w in verdict.witnesses)


def test_chain_audit_reports_a_severed_pair_once():
    # k heads two paths to the write, one through each region; the audit
    # reports the (head, tail) pair, not each path.
    src = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  y = opaque { s2 = snapshot(k); yield(7) }
  z = x + y
  io(out, z)
  return()
}
"""
    program = prog(src)
    res = unsafe_const_fold_opaque(program)
    spec = parse_input(ONE_INPUT)
    verdict = audit_chain_preservation(
        run(program, spec), run(res.program, spec), res.provenance, inputs=spec
    )
    assert verdict.witnesses == ("chain 3:3->7:3 severed",)  # the read, the write


def test_constant_valued_links_are_exempt_from_the_audit():
    # All links yield the same value no matter what the region produces,
    # so no opaque chain ever existed here and there is nothing to audit.
    src = """
function main() {
  x = opaque { yield(42) }
  c = x == 42
  br c, a, b
a:
  io(out, 0)
  return()
b:
  io(out, 0)
  return()
}
"""
    program = prog(src)
    res = optimize(program, preset="P0")
    spec = None
    verdict = audit_chain_preservation(
        run(program, spec), run(res.program, spec), res.provenance
    )
    assert verdict.passed, verdict.witnesses


def test_value_utilization_catches_the_folded_opaque():
    src = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  y = x + k
  io(out, y)
  return()
}
"""
    program = prog(src)
    spec = parse_input(ONE_INPUT)
    ref = run(program, spec)
    consumers = [("main", "y")]

    res = optimize(program, preset="P2")
    verdict = audit_value_utilization(ref, run(res.program, spec), res.provenance, consumers)
    assert verdict.passed, verdict.witnesses

    folded = unsafe_const_fold_opaque(program)
    res = optimize(folded.program, preset="P2")
    prov = folded.provenance.compose(res.provenance)
    verdict = audit_value_utilization(ref, run(res.program, spec), prov, consumers)
    assert verdict.witnesses == ("opacified value 4:3 lost before main.y",)


CALLED = """
function add(x: u32, y: u32) -> (u32) {
  s = x + y
  return(s)
}
function main() {
  a = io(inp)
  k = opaque { yield(a) }
  b = add(k, 5)
  io(out, b)
  return()
}
"""


@pytest.mark.parametrize("consumer", [("main", "b"), ("add", "x"), ("add", "s")])
def test_value_utilization_audits_values_bound_by_calls(consumer):
    # A return binds the caller's result b and a call the callee's
    # parameter x: each is audited in the function that binds it.
    ref = prog(CALLED)
    spec = parse_input(ONE_INPUT)
    ref_run, prov = run(ref, spec), ProvenanceMap.identity(ref)
    assert audit_value_utilization(ref_run, run(prog(CALLED), spec), prov, [consumer]).passed
    opt = prog(CALLED.replace("add(k, 5)", "add(a, 5)"))  # same layout, k unused
    verdict = audit_value_utilization(ref_run, run(opt, spec), prov, [consumer])
    assert verdict.witnesses == (f"8:3 no longer feeds {consumer[0]}.{consumer[1]}",)


# --------------------------------------------------------------------------
# Secret branches
# --------------------------------------------------------------------------


def test_branch_on_secret_is_flagged():
    p = prog(
        """
function main() {
  s = io(sec)
  c = s == 0
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    verdict = check_secret_branches(p, ["s"])
    assert not verdict.passed
    assert "branches on c" in verdict.witnesses[0]


def test_branch_on_opacified_secret_is_flagged():
    p = prog(
        """
function main() {
  s = io(sec)
  u = observe_and_opacify(s)
  c = u == 0
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    assert not check_secret_branches(p, {"s"}).passed


def test_taint_flows_through_memory():
    p = prog(
        """
function main() {
  s = io(sec)
  mem[4] <- s
  v = mem[4]
  c = v == 1
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    assert not check_secret_branches(p, ["s"]).passed


def test_taint_flows_through_calls_and_returns():
    caller_taints_callee = prog(
        """
function pick(x: u32) {
  c = x < 1
  br c, a, b
a:
  return(0)
b:
  return(1)
}
function main() {
  s = io(sec)
  r = pick(s)
  io(out, r)
  return()
}
"""
    )
    verdict = check_secret_branches(caller_taints_callee, ["s"])
    assert not verdict.passed
    assert verdict.witnesses[0].startswith("pick ")

    callee_taints_caller = prog(
        """
function get() {
  s = io(sec)
  return(s)
}
function main() {
  v = get()
  c = v == 0
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    assert not check_secret_branches(callee_taints_caller, ["s"]).passed


def test_taint_flows_through_block_arguments():
    p = prog(
        """
function main() {
  s = io(sec)
  br next(s)
next(p):
  c = p == 0
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    assert not check_secret_branches(p, ["s"]).passed


def test_masked_select_without_branches_is_clean():
    p = prog(
        """
function main() {
  s = io(sec)
  k = io(inp)
  m = 0 - s
  nm = ~m
  lhs = k & m
  rhs = 7 & nm
  r = lhs | rhs
  io(out, r)
  c = k < 3
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
    )
    verdict = check_secret_branches(p, ["s"])
    assert verdict.passed, verdict.witnesses


SECRET_BRANCH = """  c = v == 0
  br c, a, b
a:
  io(out, 1)
  return()
b:
  io(out, 2)
  return()
}
"""
SECRET_HELPERS = """function pick(x: u32, y: u32) {
  c = x < 1
  br c, a, b
a:
  return(0)
b:
  return(1)
}
function get(x: u32, y: u32) -> (u32) {
  return(y)
}
"""
# Two programs whose `out` depends on the secret through a reference an
# opaque region reads or assigns.
REF_LOAD_IN_OPAQUE = "  r <- s\n  v = opaque { w = r; yield(w) }\n"
REF_STORE_IN_OPAQUE = "  opaque { r <- s; yield() }\n  v = r\n"


@pytest.mark.parametrize(
    "body, witness",
    [
        ("  r <- s\n  v = r\n", "main"),
        ("  r <- k\n  v = r\n", None),
        (REF_LOAD_IN_OPAQUE, "main"),
        (REF_STORE_IN_OPAQUE, "main"),
        ("  r <- s\n  v = opaque { yield(k) }\n", None),
        ("  mem[4] <- s\n  v = opaque { w = mem[k]; yield(w) }\n", "main"),
        ("  opaque { mem[4] <- s; yield() }\n  v = mem[k]\n", "main"),
        ("  opaque { t = mem[4]; mem[5] <- t; yield() }\n  v = mem[k]\n", None),
        ("  v = pick(s, k)\n", "pick"),
        ("  v = pick(k, s)\n", None),
        ("  v = get(k, s)\n", "main"),
        ("  v = get(s, k)\n", None),
        ("  br next(k, s)\nnext(v, w):\n", None),
        ("  br next(s, k)\nnext(v, w):\n", "main"),
    ],
    ids=[
        "ref", "ref-clean", "ref-load-in-opaque", "ref-store-in-opaque", "opaque-clean",
        "opaque-mem-read", "opaque-mem-write", "opaque-clean-mem", "call-arg",
        "call-other-arg", "return", "return-other-arg", "block-other-arg", "block-arg",
    ],
)
def test_taint_flows_one_row_per_kind(body, witness):
    p = prog(SECRET_HELPERS + "function main() {\n  s = io(sec)\n  k = io(inp)\n"
             + body + SECRET_BRANCH)
    verdict = check_secret_branches(p, ["s"])
    assert [w.split()[0] for w in verdict.witnesses] == ([witness] if witness else [])


@pytest.mark.parametrize("body", [REF_LOAD_IN_OPAQUE, REF_STORE_IN_OPAQUE])
def test_taint_follows_references_an_opaque_region_touches(body):
    p = prog("function main() {\n  s = io(sec)\n" + body + SECRET_BRANCH)
    outs = {run_ok(p, f"desc sec in ordered\n{x}\n").io_behavior()[("w", "out")] for x in (0, 3)}
    assert len(outs) == 2  # the branch really depends on the secret
    assert check_secret_branches(p, ["s"]).witnesses == ("main 6:3 branches on c",)
    assert reference_check_secret_branches(p, {"s"}).passed  # what the taint used to miss


def test_taint_flows_from_a_secret_defined_inside_an_opaque_region():
    p = prog("function main() {\n  v = opaque { s = io(sec); yield(s) }\n" + SECRET_BRANCH)
    outs = {run_ok(p, f"desc sec in ordered\n{x}\n").io_behavior()[("w", "out")] for x in (0, 3)}
    assert len(outs) == 2  # the branch really depends on the secret
    assert check_secret_branches(p, ["s"]).witnesses == ("main 4:3 branches on c",)
    assert reference_check_secret_branches(p, {"s"}).passed  # what the taint used to miss


def test_nothing_flows_through_an_undefined_callee():
    # Such a program never typechecks; the taint keeps no return key for it.
    p = ir.parse_program("function main() {\n  s = io(sec)\n  v = ext(s)\n" + SECRET_BRANCH)
    assert check_secret_branches(p, ["s"]).passed


def test_unknown_secret_name_is_an_error():
    p = prog("function main() { io(out, 1)\n return() }")
    with pytest.raises(ValueError):
        check_secret_branches(p, ["ghost"])


# --------------------------------------------------------------------------
# Erasure
# --------------------------------------------------------------------------

ERASURE_PROTECTED = """
function main() {
  s = io(inp)
  mem[0] <- s
  k = mem[0]
  io(out, k)
  mem[0] <- 0
  t = observe_pair(0)
  u = observe_tailio(t)
  return()
}
"""

ERASURE_UNPROTECTED = """
function main() {
  s = io(inp)
  mem[0] <- s
  k = mem[0]
  io(out, k)
  mem[0] <- 0
  return()
}
"""


def test_protected_erasure_survives_the_store_sweep():
    program = prog(ERASURE_PROTECTED)
    res = optimize(program, preset="Ps")
    result = run_ok(res.program, ONE_INPUT)
    verdict = audit_erasure(result, range(0, 1))
    assert verdict.passed, verdict.witnesses


def test_unprotected_erasure_is_destroyed_and_audited():
    program = prog(ERASURE_UNPROTECTED)
    res = optimize(program, preset="Ps")
    result = run_ok(res.program, ONE_INPUT)
    verdict = audit_erasure(result, range(0, 1))
    assert not verdict.passed
    assert any("mem[0]" in w for w in verdict.witnesses)
    # the same program before optimization is fine
    baseline = audit_erasure(run_ok(program, ONE_INPUT), range(0, 1))
    assert baseline.passed


def test_erasure_audit_reports_untouched_addresses():
    program = prog(ERASURE_UNPROTECTED)
    result = run_ok(program, ONE_INPUT)
    verdict = audit_erasure(result, range(0, 3))
    assert not verdict.passed
    assert "mem[1] never stored" in verdict.witnesses
    assert "mem[2] never stored" in verdict.witnesses


# --------------------------------------------------------------------------
# Interleaving
# --------------------------------------------------------------------------


def test_interleaved_countermeasure_lines_pass():
    p = prog(
        """
function main() {
  a = io(inp)
  x = a + 1; t1 = observe_and_opacify(x); y = t1 + 2
  t2 = observe_and_opacify(y); io(out, y)
  return()
}
"""
    )
    verdict = audit_interleaving(p)
    assert verdict.passed, verdict.witnesses


def test_statement_between_anchors_on_its_own_line_fails():
    p = prog(
        """
function main() {
  a = io(inp)
  x = a + 1; t1 = observe_and_opacify(x)
  y = t1 + 2
  t2 = observe_and_opacify(y); io(out, y)
  return()
}
"""
    )
    verdict = audit_interleaving(p)
    assert not verdict.passed
    assert "strays" in verdict.witnesses[0]


def test_decreasing_lines_fail_the_order_rule():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a + 1
  io(out, b)
  return()
}
"""
    )
    assert audit_interleaving(p).passed
    f = p.function("main")
    block = f.region.blocks[0]
    instrs = list(block.instrs)
    # a scheduler moved the add past the write without renumbering it
    instrs[1], instrs[2] = instrs[2], instrs[1]
    moved = replace(
        p,
        functions=(
            replace(
                f,
                region=replace(f.region, blocks=(replace(block, instrs=tuple(instrs)),)),
            ),
        ),
    )
    verdict = audit_interleaving(moved)
    assert not verdict.passed
    assert any("line order broken" in w for w in verdict.witnesses)


# --------------------------------------------------------------------------
# Ordering over bridged hb edges and the on-demand event map, against the
# closure and the union-find map they replaced
# --------------------------------------------------------------------------


def test_ordering_walks_through_an_anchor_without_a_counterpart():
    """Reference `a -> u -> b`: the observation `u` has no counterpart,
    and the image of `b` runs before that of `a`. The pair (a, b) is only
    in the closure, so `a` and `b` must be bridged across `u`."""
    ref = prog(
        """
function main() {
  a = io(inp)
  u = opaque { s1 = snapshot(a); yield(unit_value) }
  b = opaque { use(u); s2 = snapshot(7); yield(unit_value) }
  return()
}
"""
    )
    opt = prog(
        """
function main() {
  u = unit_value
  c = 0
  b = opaque { use(u); s2 = snapshot(7); yield(unit_value) }
  a = io(inp)
  return()
}
"""
    )
    spec = parse_input(ONE_INPUT)
    ref_run, opt_run = run(ref, spec), run(opt, spec)
    info = deps.analyze(ref_run)
    a, u, b = info.anchor_seqs
    assert info.hb_edges() == {a: {u}, u: {b}, b: set()}  # (a, b) is no edge
    verdict = check_ordering(ref_run, opt_run)
    assert verdict.witnesses == ("3:3 before 5:3 not preserved",)
    assert verdict == reference_check_ordering(ref_run, opt_run)


UNIT_ATOM = ir.Const(ir.UNIT_VALUE, ir.Type.UNIT)


def drop_and_reorder(program, spec):
    """A bad pass: on a reference hb path `a -> u -> b` through an
    observation `u`, where `b` is no hb successor of `a` of its own, drop
    `u` and move `a` past `b`. `u` must be an opaque instruction without
    I/O whose results are unit tokens; they become `unit_value`. The three
    instructions sit in one block and run once, and `a` has no other hb
    successor between itself and `b`, so the move breaks no hb edge: only
    the bridge across `u` is broken. Yields (mutated program, reference
    run, a, b) for each such path whose mutated program is well formed."""
    ref = run(program, spec)
    info = deps.analyze(ref)
    edges = info.hb_edges()
    types = ir.typecheck(program).var_types
    iids = Counter(ref.events[s].iid for s in info.anchor_seqs)
    for u in info.obs_seqs:
        fn, bi, pu = ref.events[u].iid
        dropped = ir.instr_at(program, (fn, bi, pu))
        if iids[fn, bi, pu] != 1 or dropped.rhs.summary.performs_io:
            continue
        if any(types.get((fn, r)) is not ir.Type.UNIT for r in dropped.results):
            continue
        for a in info.anchor_seqs:
            for b in sorted(edges[u]) if u in edges[a] else ():
                (fa, ba, pa), (fb, bb, pb) = ref.events[a].iid, ref.events[b].iid
                if b in edges[a] or (fa, ba) != (fn, bi) or (fb, bb) != (fn, bi):
                    continue
                if iids[fa, ba, pa] != 1 or iids[fb, bb, pb] != 1:
                    continue
                if edges[a] & {x for x in info.anchor_seqs if a < x < b} - {u}:
                    continue
                f = program.function(fn)
                instrs = list(f.region.blocks[bi].instrs)
                instrs.insert(pb + 1, instrs[pa])
                instrs[pu] = ir.Define(dropped.results, ir.AtomExpr(UNIT_ATOM), loc=dropped.loc)
                del instrs[pa]
                blocks = list(f.region.blocks)
                blocks[bi] = replace(blocks[bi], instrs=tuple(instrs))
                g = replace(f, region=ir.Region(tuple(blocks)))
                mutated = ir.Program(tuple(g if h is f else h for h in program.functions))
                if not any(d.severity == "error" for d in ir.validate_ssa(mutated)):
                    yield mutated, ref, a, b


@pytest.mark.parametrize("seed", [1, 2, 11, 12, 13])
def test_ordering_walks_through_a_dropped_observation_in_generated_programs(seed):
    """The corpus programs after P2, which leaves no copy between an
    opaque instruction and its readers, under `drop_and_reorder`: the
    check fails on the bridged pair alone, as the closure check does."""
    mutated = 0
    for case in load_benchmark_generator().corpus(seed):
        spec = parse_input(case.inputs[0])
        program = optimize(prepare(case.text)[0], preset="P2").program
        for bad, ref, a, b in itertools.islice(drop_and_reorder(program, spec), 1):
            opt = run(bad, spec)
            verdict, reference = check_ordering(ref, opt), reference_check_ordering(ref, opt)
            assert not reference.passed and set(verdict.witnesses) <= set(reference.witnesses)
            assert verdict.witnesses == (
                f"{_event_loc(ref, a)} before {_event_loc(ref, b)} not preserved",
            )
            mutated += 1
    assert mutated >= 2


ORDERED_IO_LOOP = """
function main() {
  n = io(inp)
  br head(0, 29648)
head(i, acc):
  c = i < n
  br c, body, done(acc)
body:
  w = acc * 56741
  x = w + i
  io(out, x)
  t = observe_decoupled(x)
  u = observe_tailio(t)
  i2 = i + 1
  br head(i2, x)
done(r):
  io(out, r)
  return()
}
"""


class CountedEdges(dict):
    """hb edges that count the lookups a walk makes."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_ordering_stays_linear_on_a_long_ordered_io_loop():
    """2,000 iterations, each writing `out` and observing twice: the check
    passes without building either run's hb closure, and the optimized
    side looks up a small multiple of its anchor count in hb edges."""
    program = prog(ORDERED_IO_LOOP)
    res = optimize(program, preset="P3")
    spec = parse_input("desc inp in ordered\n2000\n")
    assert check_observation_preserving(program, res.program, res.provenance, [spec]).passed
    ref, opt = run(program, spec), run(res.program, spec)
    ref_info, opt_info = deps.analyze(ref), deps.analyze(opt)
    vars(opt_info)["_hb_succ"] = counted = CountedEdges(opt_info.hb_edges())
    assert check_ordering(ref, opt, res.provenance).passed
    assert "_anchor_reach" not in vars(ref_info) and "_anchor_reach" not in vars(opt_info)
    assert len(opt_info.anchor_seqs) > 6000
    assert counted.lookups <= 2 * len(opt_info.anchor_seqs)


def test_each_run_builds_its_views_once_across_presets(monkeypatch):
    """The checks under all six presets build the reference run's trace
    and io index once each: the views read `analyze` only to build."""
    program = prog(MIXED)
    spec = parse_input(ONE_INPUT)
    results = [optimize(program, preset=preset) for preset in sorted(PRESETS)]
    assert len(results) == 6
    ref = run(program, spec)
    builds = Counter()

    def counted(result):
        builds[sys._getframe(1).f_code.co_name, result is ref] += 1
        return deps.analyze(result)

    monkeypatch.setattr("opaqueir.validate.analyze", counted)
    for res in results:
        report = check_observation_preserving(program, res.program, res.provenance, [spec])
        assert report.passed, report.render()
    assert builds["observation_trace", True] == 1
    assert builds["_io_index", True] == 1


def test_io_behavior_is_read_only():
    behavior = run_ok(prog(MONOLITHIC), ONE_INPUT).io_behavior()
    with pytest.raises(TypeError):
        behavior[("w", "out")] = ("ordered", ())


def test_a_run_and_its_views_die_with_its_last_reference():
    """With the cyclic collector off, a reference run and an optimized run
    whose views a check and a chain audit have built are freed as soon as
    nothing holds them, and so are their analyses; their events tuples,
    each event and each io and observation record are then held only by
    the one container they sit in: nothing keeps them past their run, in
    a cycle or elsewhere."""
    program = prog(CHAINED)
    spec = parse_input(TWO_INPUTS)
    res = optimize(program, preset="P3")

    def checked():
        ref, opt = run(program, spec), run(res.program, spec)
        assert check_observation_preserving(program, res.program, res.provenance, [spec]).passed
        assert audit_chain_preservation(ref, opt, res.provenance, inputs=spec).passed
        for result in (ref, opt):
            result.io_behavior(frozenset({"tailio"}))
            assert {"_deps", "_obs_trace", "_io_index", "_io_behaviors"} <= vars(result).keys()
        assert any(ev.ios or ev.obs for r in (ref, opt) for ev in r.events)
        return [weakref.ref(x) for x in (ref, opt, ref._deps, opt._deps)], [ref.events, opt.events]

    gc.disable()
    try:
        watched, held = checked()
        alive = [ref for ref in watched if ref() is not None]

        def count(container, i):
            return sys.getrefcount(container[i])

        once = count([object()], 0)  # an object that only its container holds
        kept = [("events", k) for k in range(len(held)) if count(held, k) != once]
        for events in held:
            kept += [("event", i) for i in range(len(events)) if count(events, i) != once]
            for ev in events:
                for records in (ev.ios, ev.obs):
                    kept += [records[j] for j in range(len(records)) if count(records, j) != once]
    finally:
        gc.enable()
    assert alive == [] and kept == []


# --------------------------------------------------------------------------
# Report plumbing
# --------------------------------------------------------------------------


def test_check_lines_render_pass_and_fail():
    assert check_line("io_equality", Verdict.ok()) == "CHECK io_equality PASS"
    failing = Verdict.of(["3:1 gone", "4:2 gone"])
    assert check_line("ordering", failing) == "CHECK ordering FAIL 3:1 gone; 4:2 gone"


def test_report_aggregates_optional_checks():
    ok = Verdict.ok()
    bad = Verdict.of(["w"])
    report = ValidationReport(ok, ok, ok, ok)
    assert report.passed
    assert [name for name, _ in report.checks()] == [
        "io_equality",
        "value_integrity_fwd",
        "value_integrity_bwd",
        "ordering",
    ]
    failing = ValidationReport(ok, ok, ok, bad)
    assert not failing.passed
    assert failing.lines()[-1] == "CHECK ordering FAIL w"
    assert failing.render().endswith("\n")
