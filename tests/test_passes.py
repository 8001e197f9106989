"""Optimization passes: rewrites, provenance, and what the pipeline does
to observations that are or are not kept alive."""

import gc
import weakref
from collections import Counter
from dataclasses import replace as dc_replace

import pytest

from opaqueir import interp, passes
from opaqueir.interp import parse_input, run
from opaqueir.ir import (
    AtomExpr,
    BinaryExpr,
    Branch,
    Const,
    Define,
    IRError,
    MemStore,
    OpacityBreach,
    OpaqueExpr,
    Program,
    Region,
    Type,
    UnaryExpr,
    Var,
    block_successors,
    print_program,
    rename_instr,
    sealed_opaque_regions,
    validate_ssa,
    walk_blocks,
)
from opaqueir.passes import (
    PASSES,
    PRESETS,
    PassResult,
    ProvenanceMap,
    constprop,
    copyprop,
    dce,
    dse,
    instcombine,
    loop_unroll,
    optimize,
    program_iids,
    run_pipeline,
    unsafe_const_fold_opaque,
)
from opaqueir.patterns import prepare
from opaqueir.validate import audit_chain_preservation, check_observation_preserving


def prog(text):
    program, _ = prepare(text)
    return program


def run_ok(program, inputs=None):
    spec = parse_input(inputs) if inputs else None
    result = run(program, spec)
    assert result.trapped is None, result.trapped
    return result


def writes(program, inputs=None):
    result = run_ok(program, inputs)
    return [
        rec.values
        for ev in result.events
        for rec in ev.ios
        if rec.direction == "w"
    ]


def obs_events(result):
    return [ev for ev in result.events if ev.obs]


def main_instrs(program):
    f = program.function("main")
    return [i for b in f.region.blocks for i in b.instrs]


def define_of(program, name, fname="main"):
    f = program.function(fname)
    for block in f.region.blocks:
        for instr in block.instrs:
            if isinstance(instr, Define) and name in instr.results:
                return instr
    raise AssertionError(f"no define of {name}")


def define_iid(program, name, fname="main"):
    f = program.function(fname)
    for bi, block in enumerate(f.region.blocks):
        for pos, instr in enumerate(block.instrs):
            if isinstance(instr, Define) and name in instr.results:
                return (fname, bi, pos)
    raise AssertionError(f"no define of {name}")


ONE_INPUT = "desc inp in ordered\n5\n"


# --------------------------------------------------------------------------
# copyprop
# --------------------------------------------------------------------------


def test_copyprop_forwards_copy_chains():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a
  c = b
  io(out, c)
  return()
}
"""
    )
    out = copyprop(p).program
    io_instr = main_instrs(out)[3]
    assert io_instr.values == (Var("a"),)
    # the copies themselves stay for dce
    assert isinstance(main_instrs(out)[1], Define)
    assert writes(out, ONE_INPUT) == writes(p, ONE_INPUT) == [(5,)]


def test_copyprop_reaches_opaque_free_uses():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a
  w = opaque { s = snapshot(b); yield(unit_value) }
  use(w)
  return()
}
"""
    )
    out = copyprop(p).program
    assert define_of(out, "w").rhs.summary.uses == ("a",)


# --------------------------------------------------------------------------
# constprop
# --------------------------------------------------------------------------


def test_constprop_folds_constant_arithmetic():
    p = prog(
        """
function main() {
  x = 3 + 4
  y = x * 2
  io(out, y)
  return()
}
"""
    )
    res = constprop(p)
    y = define_of(res.program, "y")
    assert y.rhs == AtomExpr(Const(14, Type.U32))
    assert res.provenance.image(define_iid(p, "y")) == {
        define_iid(res.program, "y"): "rewritten"
    }
    assert writes(res.program) == [(14,)]


def test_constprop_folds_branches_and_drops_dead_blocks():
    p = prog(
        """
function main() {
  c = 3 < 5
  br c, yes, no
yes:
  io(out, 1)
  br fin
no:
  io(out, 2)
  br fin
fin:
  return()
}
"""
    )
    res = constprop(p)
    labels = [b.label for b in res.program.function("main").region.blocks]
    assert labels == ["entry", "yes", "fin"]
    term = res.program.function("main").region.entry.instrs[-1]
    assert isinstance(term, Branch) and term.cond is None
    assert res.provenance.image(("main", 2, 0)) == {}  # the io in `no`
    assert writes(res.program) == [(1,)]


def test_constprop_folds_unary_operators_to_typed_constants():
    p = prog(
        """
function main() {
  x = 5u8
  y = -x
  z = ~y
  t = z == 4u8
  u = !t
  io(out, y, z, u)
  return()
}
"""
    )
    res = optimize(p, preset="P1")
    assert main_instrs(res.program)[0].values == (
        Const(251, Type.U8), Const(4, Type.U8), Const(False, Type.BOOL)
    )
    assert len(main_instrs(res.program)) == 2
    assert res.log == (("constprop", 5), ("dce", 5))


def test_constprop_leaves_trapping_division_alone():
    p = prog(
        """
function main() {
  q = 7 / 0
  io(out, q)
  return()
}
"""
    )
    out = constprop(p).program
    assert isinstance(define_of(out, "q").rhs, BinaryExpr)
    assert run(out).trapped is not None


def test_constprop_cannot_see_through_opaque():
    p = prog(
        """
function main() {
  x = opaque { yield(5) }
  io(out, x)
  return()
}
"""
    )
    out = run_pipeline(p, ["constprop"]).program
    assert isinstance(define_of(out, "x").rhs, OpaqueExpr)
    assert main_instrs(out)[1].values == (Var("x"),)


# --------------------------------------------------------------------------
# instcombine
# --------------------------------------------------------------------------

TWO_INPUTS = "desc inp in ordered\n12\ndesc key in ordered\n9\n"


def test_instcombine_cancels_xor_masking():
    p = prog(
        """
function main() {
  s = io(inp)
  k = io(key)
  m = s ^ k
  u = m ^ k
  io(out, u)
  return()
}
"""
    )
    res = instcombine(p)
    u = define_of(res.program, "u")
    assert u.rhs == AtomExpr(Var("s"))
    assert res.provenance.image(define_iid(p, "u")) == {
        define_iid(res.program, "u"): "rewritten"
    }
    assert writes(res.program, TWO_INPUTS) == writes(p, TWO_INPUTS) == [(12,)]


def test_instcombine_folds_xor_constant_chains():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a ^ 5
  c = b ^ 3
  io(out, c)
  return()
}
"""
    )
    out = instcombine(p).program
    assert define_of(out, "c").rhs == BinaryExpr("^", Var("a"), Const(6, Type.U32))
    assert writes(out, ONE_INPUT) == writes(p, ONE_INPUT) == [(5 ^ 5 ^ 3,)]


def test_instcombine_reassociates_across_a_whole_xor_chain():
    # the mask is re-applied two defines later; cancelling it needs the
    # chain flattened, not just a sibling match
    p = prog(
        """
function main() {
  k = io(key)
  m = io(mask)
  d = io(inp)
  a = k ^ m
  b = a ^ d
  c = b ^ m
  io(out, c)
  return()
}
"""
    )
    out = instcombine(p).program
    c = define_of(out, "c").rhs
    assert isinstance(c, BinaryExpr) and c.op == "^"
    assert {c.a, c.b} == {Var("k"), Var("d")}
    spec = "desc key in ordered\n9\ndesc mask in ordered\n5\ndesc inp in ordered\n12\n"
    assert writes(out, spec) == writes(p, spec) == [(9 ^ 12,)]


def test_instcombine_chain_reassociation_stops_at_opaque_results():
    p = prog(
        """
function main() {
  k = io(key)
  m = io(mask)
  d = io(inp)
  a = k ^ m
  b = a ^ d
  t = observe_and_opacify(b)
  c = t ^ m
  io(out, c)
  return()
}
"""
    )
    out = instcombine(p).program
    c = define_of(out, "c").rhs
    assert isinstance(c, BinaryExpr)
    assert Var("m") in (c.a, c.b)


def test_instcombine_leaves_unshrinkable_xor_chains_alone():
    p = prog(
        """
function main() {
  a = io(inp)
  b = io(key)
  c = a ^ b
  d = io(mask)
  e = c ^ d
  io(out, e)
  return()
}
"""
    )
    out = instcombine(p).program
    assert define_of(out, "e").rhs == BinaryExpr("^", Var("c"), Var("d"))


def test_instcombine_folds_same_operand_shapes():
    p = prog(
        """
function main() {
  a = io(inp)
  z = a ^ a
  t = a <= a
  io(out, z)
  io(cmp, t)
  return()
}
"""
    )
    out = instcombine(p).program
    assert define_of(out, "z").rhs == AtomExpr(Const(0, Type.U32))
    assert define_of(out, "t").rhs == AtomExpr(Const(True, Type.BOOL))


def test_instcombine_applies_algebraic_identities():
    p = prog(
        """
function main() {
  a = io(inp)
  p = a + 0
  q = a & 0
  r = a * 1
  io(out, p)
  io(out, q)
  io(out, r)
  return()
}
"""
    )
    out = instcombine(p).program
    assert define_of(out, "p").rhs == AtomExpr(Var("a"))
    assert define_of(out, "q").rhs == AtomExpr(Const(0, Type.U32))
    assert define_of(out, "r").rhs == AtomExpr(Var("a"))
    assert writes(out, ONE_INPUT) == [(5,), (0,), (5,)]


def test_instcombine_shares_common_subexpressions_in_block():
    p = prog(
        """
function main() {
  a = io(inp)
  x = a + 7
  y = a + 7
  io(out, x)
  io(out, y)
  return()
}
"""
    )
    out = instcombine(p).program
    assert define_of(out, "y").rhs == AtomExpr(Var("x"))
    assert writes(out, ONE_INPUT) == [(12,), (12,)]


def test_instcombine_merges_identical_pure_opaques_and_keeps_both_tags():
    p = prog(
        """
function main() {
  a = io(inp)
  w1 = opaque { s1 = snapshot(a); yield(unit_value) }
  w2 = opaque { s2 = snapshot(a); yield(unit_value) }
  use(w1)
  use(w2)
  return()
}
"""
    )
    res = instcombine(p)
    out = res.program
    opaque_defs = [
        i
        for i in main_instrs(out)
        if isinstance(i, Define) and isinstance(i.rhs, OpaqueExpr)
    ]
    assert len(opaque_defs) == 1
    assert define_of(out, "w2").rhs == AtomExpr(Var("w1"))

    merged_dst = define_iid(out, "w1")
    assert res.provenance.image(define_iid(p, "w1")) == {merged_dst: "combined"}
    assert res.provenance.image(define_iid(p, "w2")) == {merged_dst: "combined"}
    # the stand-in copy was synthesized, not derived from any source
    assert res.provenance.preimage(define_iid(out, "w2")) == {}

    result = run_ok(out, ONE_INPUT)
    merged = obs_events(result)
    assert len(merged) == 1
    tags = merged[0].obs[0].tags
    assert len(tags) == 2
    assert len({t.source_id for t in tags}) == 2
    assert merged[0].obs[0].values == (5,)


def test_instcombine_hoists_identical_branch_arms():
    text = """
function main() {
  c = io(flag)
  br c, left, right
left:
  w1 = opaque { s1 = snapshot(1); yield(unit_value) }
  use(w1)
  br join
right:
  w2 = opaque { s2 = snapshot(1); yield(unit_value) }
  use(w2)
  br join
join:
  io(out, 0)
  return()
}
"""
    p = prog(text)
    res = instcombine(p)
    labels = [b.label for b in res.program.function("main").region.blocks]
    assert labels == ["entry", "join"]
    # the branch became the arms' unconditional jump
    term = res.program.function("main").region.entry.instrs[-1]
    assert isinstance(term, Branch) and term.cond is None and term.then.label == "join"

    hoisted = define_iid(res.program, "w1")
    assert res.provenance.image(("main", 1, 0)) == {hoisted: "combined"}
    assert res.provenance.image(("main", 2, 0)) == {hoisted: "combined"}

    flag_inputs = "desc flag in ordered\n1\n"
    ref = run_ok(p, flag_inputs)
    opt = run_ok(res.program, flag_inputs)
    assert len(obs_events(ref)) == 1 and len(obs_events(ref)[0].obs[0].tags) == 1
    assert len(obs_events(opt)) == 1 and len(obs_events(opt)[0].obs[0].tags) == 2


def test_instcombine_hoist_pins_program_provenance_and_merged_tags():
    p = prog(
        """
function main() {
  c = io(flag)
  d = c + 0
  br d, left, right
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
    )
    res = instcombine(p)
    # the block's own instructions are combined as usual, then the arm
    # follows with both arms' snapshot tags on its one snapshot
    assert print_program(res.program) == """function main() {
  c = io(flag)
  d = c
  w1 = opaque {
    s1 = snapshot(c) [obs 7:17(c), 11:17(c)]
    yield(unit_value)
  }
  use(w1)
  br join
join:
  io(out, 0)
  return()
}
"""
    entry = [("main", 0, pos) for pos in range(5)]
    assert res.provenance.rows() == [
        (("main", 0, 0), entry[0], "kept"),
        (("main", 0, 1), entry[1], "rewritten"),
        (("main", 0, 2), entry[4], "rewritten"),  # the branch became the arm's jump
        (("main", 1, 0), entry[2], "combined"),
        (("main", 1, 1), entry[3], "combined"),
        (("main", 1, 2), entry[4], "combined"),
        (("main", 2, 0), entry[2], "combined"),
        (("main", 2, 1), entry[3], "combined"),
        (("main", 2, 2), entry[4], "combined"),
        (("main", 3, 0), ("main", 1, 0), "kept"),
        (("main", 3, 1), ("main", 1, 1), "kept"),
    ]


def test_instcombine_leaves_differing_arms_alone():
    p = prog(
        """
function main() {
  c = io(flag)
  br c, left, right
left:
  w1 = opaque { s1 = snapshot(1); yield(unit_value) }
  use(w1)
  br join
right:
  w2 = opaque { s2 = snapshot(2); yield(unit_value) }
  use(w2)
  br join
join:
  io(out, 0)
  return()
}
"""
    )
    out = instcombine(p).program
    labels = [b.label for b in out.function("main").region.blocks]
    assert labels == ["entry", "left", "right", "join"]


ANNOTATED_ARMS = """
function main() {{
  c: bool = io(sel)
  br c, t, e
t:
  {t}
  br join
e:
  {e}
  br join
join:
  return()
}}
"""


@pytest.mark.parametrize(
    "t, e",
    [
        ("x: u8 = io(inp); y = x + x; io(out, y)", "x2 = io(inp); y2 = x2 + x2; io(out, y2)"),
        (
            "y = opaque { x: u8 = io(inp); s = x + x; io(out, s); yield(s) }",
            "y2 = opaque { x2 = io(inp); s2 = x2 + x2; io(out, s2); yield(s2) }",
        ),
    ],
    ids=["plain", "opaque"],
)
@pytest.mark.parametrize("preset", ["P2", "P3"])
def test_arms_differing_in_a_result_annotation_are_not_hoisted(t, e, preset):
    # the u8 arm wraps 200 + 200 to 144; the untyped one writes 400
    p = prog(ANNOTATED_ARMS.format(t=t, e=e))
    inputs = "desc sel in ordered\nfalse\ndesc inp in ordered\n200\n"
    assert writes(p, inputs) == [(400,)]
    assert writes(optimize(p, preset=preset).program, inputs) == [(400,)]


LABEL_SHADOWING_ARMS = """
function main() {
  c: bool = io(sel)
  br c, t, e
t:
  y = opaque {
  a:
    yield(1u8)
  }
  br a
e:
  z = opaque {
  b:
    yield(1u8)
  }
  br b
a:
  io(out, 1u8)
  return()
b:
  io(out, 2u8)
  return()
}
"""


@pytest.mark.parametrize("preset", ["P2", "P3"])
def test_arms_branching_to_labels_their_regions_shadow_are_not_hoisted(preset):
    # each arm's target shares its name with the label inside its own region
    p = prog(LABEL_SHADOWING_ARMS)
    inputs = "desc sel in ordered\nfalse\n"
    assert writes(p, inputs) == [(2,)]
    assert writes(optimize(p, preset=preset).program, inputs) == [(2,)]


STORAGE_ARMS = """
function main() {{
  c: bool = io(sel)
  r <- 3
  q <- 5
  br c, t, e
t:
  {t}
  br join
e:
  {e}
  br join
join:
  x = r
  z = q
  io(out, x, z)
  return()
}}
"""


def arm_labels(program):
    return [b.label for b in program.function("main").region.blocks]


@pytest.mark.parametrize("preset", ["P2", "P3"])
def test_arms_whose_regions_share_a_reference_are_hoisted(preset):
    p = prog(
        STORAGE_ARMS.format(
            t="y = opaque { v = r; w = v + 1; r <- w; s = snapshot(w); yield(w) }\n  use(y)",
            e="y2 = opaque { v2 = r; w2 = v2 + 1; r <- w2; s2 = snapshot(w2); yield(w2) }\n"
            "  use(y2)",
        )
    )
    res = optimize(p, preset=preset)
    assert arm_labels(res.program) == ["entry", "join"]
    specs = []
    for sel in ("false", "true"):
        inputs = f"desc sel in ordered\n{sel}\n"
        assert writes(res.program, inputs) == writes(p, inputs) == [(4, 5)]
        specs.append(parse_input(inputs))
    report = check_observation_preserving(p, res.program, res.provenance, specs)
    assert report.passed, report.render()


@pytest.mark.parametrize("preset", ["P2", "P3"])
def test_arms_whose_regions_write_different_references_are_not_hoisted(preset):
    p = prog(
        STORAGE_ARMS.format(
            t="y = opaque { r <- 7; yield(unit_value) }\n  use(y)",
            e="y2 = opaque { q <- 7; yield(unit_value) }\n  use(y2)",
        )
    )
    res = optimize(p, preset=preset)
    assert arm_labels(res.program) == ["entry", "t", "e", "join"]
    for sel, want in (("true", (7, 5)), ("false", (3, 7))):
        inputs = f"desc sel in ordered\n{sel}\n"
        assert writes(res.program, inputs) == writes(p, inputs) == [want]


# --------------------------------------------------------------------------
# dse
# --------------------------------------------------------------------------


def test_dse_removes_stores_nothing_reads():
    p = prog(
        """
function main() {
  a = io(inp)
  mem[3] <- a
  io(out, a)
  return()
}
"""
    )
    res = dse(p)
    assert not any(isinstance(i, MemStore) for i in main_instrs(res.program))
    assert res.provenance.image(("main", 0, 1)) == {}
    assert writes(res.program, ONE_INPUT) == [(5,)]


def test_dse_keeps_stores_a_load_can_reach():
    p = prog(
        """
function main() {
  a = io(inp)
  mem[3] <- a
  b = mem[3]
  io(out, b)
  return()
}
"""
    )
    out = dse(p).program
    assert any(isinstance(i, MemStore) for i in main_instrs(out))
    assert writes(out, ONE_INPUT) == [(5,)]


def test_dse_trusts_opaque_read_summaries():
    p = prog(
        """
function main() {
  a = io(inp)
  mem[3] <- a
  w = observe_pair(3)
  use(w)
  return()
}
"""
    )
    out = dse(p).program
    assert any(isinstance(i, MemStore) for i in main_instrs(out))
    result = run_ok(out, ONE_INPUT)
    assert obs_events(result)[0].obs[0].values == (3, 5)


def test_dse_keeps_stores_alive_past_returns_outside_main():
    p = prog(
        """
function helper(x: u32) {
  mem[9] <- x
  return()
}
function main() {
  a = io(inp)
  helper(a)
  b = mem[9]
  io(out, b)
  return()
}
"""
    )
    out = dse(p).program
    helper = out.function("helper")
    assert any(
        isinstance(i, MemStore) for b in helper.region.blocks for i in b.instrs
    )
    assert writes(out, ONE_INPUT) == [(5,)]


# --------------------------------------------------------------------------
# dce
# --------------------------------------------------------------------------


def test_dce_sweeps_unused_pure_chains():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a + 1
  c = b * 2
  io(out, a)
  return()
}
"""
    )
    res = dce(p)
    names = [
        i.results[0]
        for i in main_instrs(res.program)
        if isinstance(i, Define) and i.results
    ]
    assert names == ["a"]
    assert res.provenance.image(define_iid(p, "b")) == {}
    assert res.provenance.image(define_iid(p, "c")) == {}


def test_dce_destroys_unanchored_observations():
    p = prog(
        """
function main() {
  a = io(inp)
  w = observe_decoupled(a)
  io(out, a)
  return()
}
"""
    )
    out = dce(p).program
    assert len(obs_events(run_ok(p, ONE_INPUT))) == 1
    assert len(obs_events(run_ok(out, ONE_INPUT))) == 0  # silently gone
    assert writes(out, ONE_INPUT) == [(5,)]  # while values stay right


def test_dce_keeps_observations_anchored_by_use():
    p = prog(
        """
function main() {
  a = io(inp)
  w = observe_decoupled(a)
  use(w)
  io(out, a)
  return()
}
"""
    )
    out = dce(p).program
    assert len(obs_events(run_ok(out, ONE_INPUT))) == 1


def test_dce_keeps_io_performing_opaques():
    p = prog(
        """
function main() {
  a = io(inp)
  w = observe_monolithic(a)
  io(out, a)
  return()
}
"""
    )
    out = dce(p).program
    result = run_ok(out, ONE_INPUT)
    assert len(obs_events(result)) == 1


def test_dce_drops_unreachable_blocks():
    p = prog(
        """
function main() {
  br fin
orphan:
  io(out, 9)
  br fin
fin:
  io(out, 1)
  return()
}
"""
    )
    out = dce(p).program
    labels = [b.label for b in out.function("main").region.blocks]
    assert labels == ["entry", "fin"]
    assert writes(out) == [(1,)]


# --------------------------------------------------------------------------
# loop_unroll
# --------------------------------------------------------------------------


def test_loop_unroll_replays_each_iteration():
    p = prog(
        """
function main() {
  br head(0)
head(i):
  c = i < 4
  br c, body, done
body:
  io(out, i)
  i2 = i + 1
  br head(i2)
done:
  return()
}
"""
    )
    res = loop_unroll(p)
    assert writes(res.program) == writes(p) == [(0,), (1,), (2,), (3,)]
    for instr in main_instrs(res.program):
        if isinstance(instr, Branch):
            assert instr.cond is None
    image = res.provenance.image(("main", 2, 0))  # the io in body
    assert len(image) == 4
    assert set(image.values()) == {"duplicated"}


def test_loop_unroll_freshens_opaque_interiors():
    p = prog(
        """
function main() {
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  w = opaque { s = snapshot(i); yield(unit_value) }
  use(w)
  i2 = i + 1
  br head(i2)
done:
  return()
}
"""
    )
    out = loop_unroll(p).program
    result = run_ok(out)  # re-typechecks: clones stayed single-assignment
    events = obs_events(result)
    assert [ev.obs[0].values for ev in events] == [(0,), (1,), (2,)]
    assert len({ev.obs[0].tags[0].source_id for ev in events}) == 1


def test_loop_unroll_keeps_the_labels_of_the_regions_it_copies():
    """A label is scoped to its region, so a copied region and the region
    nested in it keep theirs."""
    p = prog(
        """
function main() {
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  w = opaque {
  outer:
    v = opaque {
    inner:
      s = snapshot(i)
      yield(unit_value)
    }
    yield(v)
  }
  use(w)
  i2 = i + 1
  br head(i2)
done:
  return()
}
"""
    )
    out = loop_unroll(p).program
    regions = [
        i.rhs.region
        for i in main_instrs(out)
        if isinstance(i, Define) and isinstance(i.rhs, OpaqueExpr)
    ]
    assert [[b.label for b in walk_blocks(r)] for r in regions] == [["outer", "inner"]] * 3
    assert [ev.obs[0].values for ev in obs_events(run_ok(out))] == [(0,), (1,), (2,)]


def test_loop_unroll_counts_wrapping_counters_like_the_interpreter():
    p = prog(
        """
function main() {
  br head(0u8)
head(i):
  c = i < 200u8
  br c, body, done
body:
  io(out, i)
  i2 = i + 50u8
  br head(i2)
done:
  return()
}
"""
    )
    out = loop_unroll(p).program
    assert writes(out) == writes(p) == [(0,), (50,), (100,), (150,)]

    endless = prog(
        """
function main() {
  br head(250u8)
head(i):
  c = i < 255u8
  br c, body, done
body:
  i2 = i + 10u8
  br head(i2)
done:
  return()
}
"""
    )
    # 250, 4, 14, ... never hits 255: the trip count is unbounded, so the
    # loop must stay a loop
    unchanged = loop_unroll(endless).program
    assert unchanged == endless


# --------------------------------------------------------------------------
# The unsound pass and the seal
# --------------------------------------------------------------------------

PEEK_TARGET = """
function main() {
  k = io(inp)
  x = opaque { s = snapshot(k); yield(7) }
  io(out, x)
  return()
}
"""


def test_sealed_pipeline_stops_the_peeking_pass():
    p = prog(PEEK_TARGET)
    with pytest.raises(OpacityBreach):
        run_pipeline(p, ["unsafe_const_fold_opaque"])


def test_peeking_fold_without_the_seal_destroys_the_observation():
    p = prog(PEEK_TARGET)
    res = unsafe_const_fold_opaque(p)  # no seal: the peek goes through
    assert define_of(res.program, "x").rhs == AtomExpr(Const(7, Type.U32))
    ref = run_ok(p, ONE_INPUT)
    opt = run_ok(res.program, ONE_INPUT)
    assert writes(res.program, ONE_INPUT) == writes(p, ONE_INPUT) == [(7,)]
    assert len(obs_events(ref)) == 1
    assert len(obs_events(opt)) == 0


def test_unsafe_pass_is_in_no_preset():
    in_presets = {name for names in PRESETS.values() for name in names}
    assert in_presets == set(PASSES) - {"unsafe_const_fold_opaque"}


# --------------------------------------------------------------------------
# Pipelines
# --------------------------------------------------------------------------


def test_empty_preset_is_the_identity():
    p = prog(PEEK_TARGET)
    res = optimize(p, preset="P0")
    assert res.program == p
    assert res.log == ()


def test_pipeline_composes_provenance_across_passes():
    p = prog(
        """
function main() {
  s = io(inp)
  k = io(key)
  m = s ^ k
  u = m ^ k
  io(out, u)
  return()
}
"""
    )
    res = optimize(p, preset="P3")
    kinds = [type(i).__name__ for i in main_instrs(res.program)]
    assert kinds == ["Define", "Define", "IoWrite", "Return"]
    assert main_instrs(res.program)[2].values == (Var("s"),)

    assert res.provenance.image(define_iid(p, "m")) == {}
    assert res.provenance.image(define_iid(p, "u")) == {}
    assert res.provenance.image(("main", 0, 4)) == {("main", 0, 2): "kept"}
    assert writes(res.program, TWO_INPUTS) == writes(p, TWO_INPUTS) == [(12,)]


def test_pipeline_log_counts_affected_instructions():
    p = prog(
        """
function main() {
  x = 2 + 3
  io(out, x)
  return()
}
"""
    )
    res = optimize(p, preset="P1")
    # constprop folds `x` and writes 5 into the io in place
    assert res.log == (("constprop", 2), ("dce", 1))
    assert writes(res.program) == [(5,)]


def test_pipeline_log_counts_copyprop_renames():
    p = prog(
        """
function main() {
  a = io(inp)
  b = a
  io(out, b)
  return()
}
"""
    )
    res = optimize(p, preset="P2")
    assert res.log == (("copyprop", 1), ("constprop", 0), ("instcombine", 0), ("dce", 1))
    assert writes(res.program, ONE_INPUT) == [(5,)]


def test_every_preset_preserves_io_behavior_here():
    text = """
function main() {
  s = io(inp)
  k = io(key)
  m = s ^ k
  mem[2] <- m
  v = mem[2]
  u = v ^ k
  br head(0)
head(i):
  c = i < 3
  br c, body, done
body:
  io(out, u)
  i2 = i + 1
  br head(i2)
done:
  io(out, m)
  return()
}
"""
    p = prog(text)
    ref = writes(p, TWO_INPUTS)
    assert ref == [(12,), (12,), (12,), (12 ^ 9,)]
    for preset in PRESETS:
        opt = optimize(p, preset=preset).program
        assert writes(opt, TWO_INPUTS) == ref, preset


def test_unknown_presets_and_passes_raise_key_error():
    p = prog(sweep_program("straight", "opacify"))
    with pytest.raises(KeyError, match="unknown preset 'P9'"):
        optimize(p, preset="P9")
    with pytest.raises(KeyError, match="mystery"):
        run_pipeline(p, ["constprop", "mystery"])


# --------------------------------------------------------------------------
# Summary-only decisions
# --------------------------------------------------------------------------


def variant(interior: str) -> str:
    return (
        """
function main() {
  a = io(inp)
  w = opaque { s = snapshot(a); %s; yield(unit_value) }
  mem[4] <- a
  io(out, a)
  return()
}
"""
        % interior
    )


def test_passes_decide_from_summaries_not_interiors():
    # same uses, effects, arity, snapshot count; different interior code
    v1 = prog(variant("t = a ^ 7; use(t)"))
    v2 = prog(variant("t = a * 3; use(t)"))
    for preset in ("P1", "P2", "P3", "Ps"):
        r1, r2 = optimize(v1, preset=preset), optimize(v2, preset=preset)
        assert r1.provenance.rows() == r2.provenance.rows(), preset
    # with nothing anchoring it, the region is swept either way, and the
    # two programs optimize to the very same thing
    assert optimize(v1, preset="P3").program == optimize(v2, preset="P3").program


# --------------------------------------------------------------------------
# Every pass leaves well-formed IR
# --------------------------------------------------------------------------

# Each site observes `{v}` and carries a value on as `{n}`.
PATTERN_SITES = {
    "monolithic": "o = observe_monolithic({v})\n  {n} = {v} + 1",
    "decoupled_tailio": "o = observe_decoupled({v})\n  p = observe_tailio(o)\n  {n} = {v} + 1",
    "cc": "observe_cc({v})\n  {n} = {v} + 1",
    "artificial_def_cc": "{n} = artificial_def_cc({v})",
    "pair": "mem[{v}] <- {v}\n  o = observe_pair({v})\n  {n} = {v} + 1",
    "opacify": "{n} = observe_and_opacify({v})",
}

LOOP = """
function main() {{
  a = io(inp)
  br head(0, a)
head(i, acc):
  c = i < {trips}
  br c, body, {exit_call}
body:
  {site}
  i2 = i + 1
  br head(i2, nxt)
done({exit_param}):
  io(out, {result})
  return()
}}
"""


def sweep_program(shape, pattern):
    if shape == "straight":
        site = PATTERN_SITES[pattern].format(v="a", n="b")
        return f"function main() {{\n  a = io(inp)\n  {site}\n  io(out, b)\n  return()\n}}\n"
    site = PATTERN_SITES[pattern].format(v="acc", n="nxt")
    if shape == "exit_capture":
        # the exit reads the header parameter directly, not through an argument
        return LOOP.format(trips=3, exit_call="done", site=site, exit_param="", result="acc")
    trips = {"loop3": 3, "loop20": 20}[shape]
    return LOOP.format(trips=trips, exit_call="done(acc)", site=site, exit_param="r", result="r")


EXIT_CAPTURE_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="loop_unroll renames header parameters, so an exit block reading one "
    "directly reads an undefined name. Fixing it turns the corpus loop/monolithic/"
    "exit_capture Pz verdict recorded as IRError in perfbench/expected.json into "
    "pass, which perfbench/test_perfbench.py rejects until the benchmark re-records it.",
)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("pattern", sorted(PATTERN_SITES))
@pytest.mark.parametrize("shape", ["straight", "loop3", "loop20", "exit_capture"])
def test_every_pass_leaves_well_formed_ir(request, shape, pattern, preset):
    if shape == "exit_capture" and preset == "Pz":
        request.applymarker(EXIT_CAPTURE_XFAIL)
    program = prog(sweep_program(shape, pattern))
    with sealed_opaque_regions():
        for name in PRESETS[preset]:
            program = PASSES[name](program).program
            errors = [str(d) for d in validate_ssa(program) if d.severity == "error"]
            assert not errors, f"after {name}: {errors[:3]}"


# --------------------------------------------------------------------------
# Pass results shared across presets
# --------------------------------------------------------------------------

SWEEP = [
    (shape, pattern)
    for shape in ("straight", "loop3", "loop20", "exit_capture")
    for pattern in sorted(PATTERN_SITES)
]


def optimize_or_error(program, preset):
    try:
        return optimize(program, preset=preset)
    except IRError as exc:
        return str(exc)


def outcome(res):
    """What a caller sees of a pipeline: the program with every location,
    the provenance rows and the log; or the IRError message."""
    if isinstance(res, str):
        return res
    locs = [[i.loc for b in f.region.blocks for i in b.instrs] for f in res.program.functions]
    return res.program, locs, res.provenance.rows(), res.log


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_shared_pass_results_match_fresh_pipelines(shape, pattern):
    shared = prog(sweep_program(shape, pattern))
    for preset in sorted(PRESETS):
        fresh = prog(sweep_program(shape, pattern))
        want = outcome(optimize_or_error(fresh, preset))
        assert outcome(optimize_or_error(shared, preset)) == want, preset


def changed_nothing(before, result):
    """Identity provenance, and every block label, parameter and instruction
    object where it was."""
    blocks = [[b for f in p.functions for b in f.region.blocks] for p in (before, result.program)]
    return result.provenance.edges == ProvenanceMap.identity(before).edges and [
        (b.label, b.params, [id(i) for i in b.instrs]) for b in blocks[0]
    ] == [(b.label, b.params, [id(i) for i in b.instrs]) for b in blocks[1]]


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_a_pass_returns_its_input_exactly_when_it_changes_nothing(monkeypatch, shape, pattern):
    """Every pass, on the sweep program and on every program a preset
    feeds it: returning the input object is the one no-op signal."""
    originals = dict(PASSES)
    received = {name: [prog(sweep_program(shape, pattern))] for name in PASSES}
    for name, fn in originals.items():

        def spy(program, name=name, fn=fn):
            received[name].append(program)
            return fn(program)

        monkeypatch.setitem(PASSES, name, spy)
    for preset in sorted(PRESETS):
        optimize_or_error(prog(sweep_program(shape, pattern)), preset)
    for name, programs in received.items():
        for program in programs:
            try:
                result = originals[name](program)
            except IRError:
                continue
            assert (result.program is program) == changed_nothing(program, result), name


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_each_pass_runs_once_per_changed_prefix(monkeypatch, shape, pattern):
    calls = []  # every pass call, raising ones included
    runs = []  # (names of the passes that changed the input, pass name)
    lineage = {}  # id of a pass output -> the changed names that produced it
    outputs = []  # keeps every output alive, so no id is reused
    for name, fn in list(PASSES.items()):

        def counted(program, name=name, fn=fn):
            calls.append(name)
            result = fn(program)
            prefix = lineage.get(id(program), ())
            runs.append((prefix, name))
            changed = not changed_nothing(program, result)
            lineage[id(result.program)] = prefix + (name,) if changed else prefix
            outputs.append(result.program)
            return result

        monkeypatch.setitem(PASSES, name, counted)
    p = prog(sweep_program(shape, pattern))
    for preset in sorted(PRESETS):
        optimize_or_error(p, preset)
    assert len(set(runs)) == len(runs) < sum(len(passes) for passes in PRESETS.values())
    # a second round is served from the memo; only a raising pass reruns
    ran = len(calls)
    for preset in sorted(PRESETS):
        optimize_or_error(p, preset)
    assert calls[ran:] == (["instcombine"] if shape == "exit_capture" else [])


def changed_passes(text, preset):
    """The passes of `preset` that change their input, on a fresh program,
    each pass run on the output of the last one that changed it; None if
    a pass raises."""
    current, changed = prog(text), ()
    try:
        with sealed_opaque_regions():
            for name in PRESETS[preset]:
                result = PASSES[name](current)
                if not changed_nothing(current, result):
                    current, changed = result.program, changed + (name,)
    except IRError:
        return None
    return changed


def verdicts(program, res, spec):
    """Both validator verdicts on one pipeline result."""
    report = check_observation_preserving(program, res.program, res.provenance, [spec])
    ref, opt = run(program, spec), run(res.program, spec)
    return report, audit_chain_preservation(ref, opt, res.provenance, inputs=spec)


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_non_empty_presets_never_return_their_input(shape, pattern):
    """A preset returns its input exactly when every pass was a no-op: P0,
    or passes that change nothing; a pass that changes it never hands the
    input back."""
    text = sweep_program(shape, pattern)
    p = prog(text)
    for preset in sorted(PRESETS):
        res = optimize_or_error(p, preset)
        changes = changed_passes(text, preset)
        assert isinstance(res, str) == (changes is None), preset
        if changes is not None:
            assert (res.program is p) == (changes == ()), preset


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_presets_share_one_output_per_changed_pass_sequence(monkeypatch, shape, pattern):
    text = sweep_program(shape, pattern)
    spec = parse_input("desc inp in ordered\n5\n")
    executed = []  # the program of every unpatched run executed
    execute = interp._Interp.run

    def counted(self):
        if self.patch_seq == -1:
            executed.append(self.program)
        return execute(self)

    monkeypatch.setattr(interp._Interp, "run", counted)
    p = prog(text)
    results = {preset: optimize_or_error(p, preset) for preset in sorted(PRESETS)}
    by_changes = {}  # changed-pass sequence -> the program returned for it
    for preset, res in results.items():
        changes = changed_passes(text, preset)
        assert isinstance(res, str) == (changes is None), preset
        if changes is not None:
            assert by_changes.setdefault(changes, res.program) is res.program, preset
    outputs = list(by_changes.values())
    assert len(set(map(id, outputs))) == len(outputs)
    # every preset's run, held alive: each distinct output executes once
    runs = [run(res.program, spec) for res in results.values() if not isinstance(res, str)]
    assert len(runs) > len(outputs) and Counter(map(id, executed)) == Counter(map(id, outputs))
    # a shared output gets the verdicts of an unshared one, and the input those of P0
    want = verdicts(p, results["P0"], spec)
    for preset, res in results.items():
        if not isinstance(res, str):
            fresh = prog(text)
            got = verdicts(p, res, spec)
            assert got == verdicts(fresh, optimize(fresh, preset), spec), preset
            assert res.program is not p or got == want, preset


def relocate(program):
    """Equal instructions (`==` ignores `loc`) at new locations."""
    functions = []
    for f in program.functions:
        blocks = [
            dc_replace(b, instrs=tuple(dc_replace(i, loc=(99, 0)) for i in b.instrs))
            for b in f.region.blocks
        ]
        functions.append(dc_replace(f, region=Region(tuple(blocks))))
    return PassResult(Program(tuple(functions), program.macros), ProvenanceMap.identity(program))


def reprovenance(program):
    """The same instruction objects in place, each reported rewritten."""
    pm = ProvenanceMap()
    for iid in program_iids(program):
        pm.add(iid, iid, "rewritten")
    return PassResult(Program(program.functions, program.macros), pm)


def test_new_locations_or_provenance_are_not_a_no_op(monkeypatch):
    text = sweep_program("straight", "opacify")
    monkeypatch.setitem(PASSES, "relocate", relocate)
    monkeypatch.setitem(PASSES, "reprovenance", reprovenance)
    shared = prog(text)
    for fake in ("relocate", "reprovenance"):
        for passes in ([fake, "copyprop"], ["copyprop"]):
            want = outcome(run_pipeline(prog(text), passes))
            assert outcome(run_pipeline(shared, passes)) == want, passes
    res = run_pipeline(shared, ["reprovenance"])
    assert {kind for _, _, kind in res.provenance.rows()} == {"rewritten"}


class Replaced(Exception):
    pass


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_replacing_a_pass_takes_effect(monkeypatch, shape, pattern):
    p = prog(sweep_program(shape, pattern))
    before = {preset: outcome(optimize_or_error(p, preset)) for preset in sorted(PRESETS)}
    for name in sorted({n for passes in PRESETS.values() for n in passes}):
        original = PASSES[name]

        def replaced(program, name=name):
            raise Replaced(name)

        monkeypatch.setitem(PASSES, name, replaced)
        for preset, passes in PRESETS.items():
            if name in passes and not isinstance(before[preset], str):
                with pytest.raises(Replaced):
                    optimize(p, preset=preset)
        monkeypatch.setitem(PASSES, name, original)
        for preset in PRESETS:
            assert outcome(optimize_or_error(p, preset)) == before[preset]


@pytest.mark.parametrize("order", ["sorted", "reversed"])
@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_presets_keep_their_provenance_after_every_other_preset(shape, pattern, order):
    """Presets share composed provenance maps through the memo; running the
    others afterwards leaves each result as a fresh program's."""
    presets = sorted(PRESETS)
    if order == "reversed":
        presets.reverse()
    shared = prog(sweep_program(shape, pattern))
    results = {preset: optimize_or_error(shared, preset) for preset in presets}
    for preset in presets:
        want = outcome(optimize_or_error(prog(sweep_program(shape, pattern)), preset))
        assert outcome(results[preset]) == want, preset
        assert outcome(optimize_or_error(shared, preset)) == want, preset


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_a_warm_memo_composes_no_provenance(monkeypatch, shape, pattern):
    p = prog(sweep_program(shape, pattern))
    ok = [preset for preset in sorted(PRESETS) if not isinstance(optimize_or_error(p, preset), str)]
    composed = []
    compose = ProvenanceMap.compose

    def counted(self, later):
        composed.append(later)
        return compose(self, later)

    monkeypatch.setattr(ProvenanceMap, "compose", counted)
    for preset in ok:
        optimize(p, preset)
    assert composed == []


# --------------------------------------------------------------------------
# What every pass returns
# --------------------------------------------------------------------------

HELPER = """
function helper(n: u32) -> (u32) {
  io(out, n)
  return(n)
}
"""

# every pass changes main: a copy, a fold, an identity, a dead store, a
# dead definition, a constant opaque region and a counted loop
EVERY_PASS_CHANGES_MAIN = """
function main() {
  a = io(inp)
  b = a
  k = 2 + 3
  x = a ^ 0
  mem[a] <- a
  d = a + 1
  o = opaque { yield(7) }
  y = helper(b)
  io(out, k)
  io(out, x)
  io(out, o)
  io(out, y)
  br head(0)
head(i):
  c = i < 2
  br c, body, done
body:
  i2 = i + 1
  br head(i2)
done:
  return()
}
"""

NO_PASS_CHANGES_MAIN = """
function main() {
  a = io(inp)
  y = helper(a)
  io(out, y)
  return()
}
"""


def carried_over(before, after, pm, fname):
    """`fname` is the same object in both programs, with identity edges."""
    identity = {(iid, iid): "kept" for iid in program_iids(before) if iid[0] == fname}
    edges = {(s, d): k for (s, d), k in pm.edges.items() if fname in (s[0], d[0])}
    return after.function(fname) is before.function(fname) and edges == identity


@pytest.mark.parametrize("name", sorted(PASSES))
def test_every_pass_carries_untouched_functions_over(name):
    p = prog(EVERY_PASS_CHANGES_MAIN + HELPER)
    res = PASSES[name](p)
    assert res.program is not p
    assert res.program.function("main") is not p.function("main")
    assert carried_over(p, res.program, res.provenance, "helper")

    quiet = prog(NO_PASS_CHANGES_MAIN + HELPER)
    res = PASSES[name](quiet)
    assert res.program is quiet
    assert res.provenance.edges == ProvenanceMap.identity(quiet).edges


# --------------------------------------------------------------------------
# dce against the fixpoint it replaced
# --------------------------------------------------------------------------


def received_by(monkeypatch, name, shape, pattern):
    """The sweep program and every program pass `name` receives in a preset."""
    received = [prog(sweep_program(shape, pattern))]
    fn = PASSES[name]

    def spy(program):
        received.append(program)
        return fn(program)

    monkeypatch.setitem(PASSES, name, spy)
    for preset in sorted(PRESETS):
        optimize_or_error(prog(sweep_program(shape, pattern)), preset)
    monkeypatch.setitem(PASSES, name, fn)
    assert len(received) > 1
    return received


def reference_dce(program):
    """The fixpoint `dce` replaced: rescan every live instruction until no
    definition dies."""
    reaches, dead_iids = {}, set()
    for f in program.functions:
        succ = block_successors(f.region)
        reach = reaches[f.name] = {f.region.entry.label}
        frontier = [f.region.entry.label]
        while frontier:
            for t in succ.get(frontier.pop(), []):
                if t not in reach:
                    reach.add(t)
                    frontier.append(t)
        live_blocks = [(bi, b) for bi, b in enumerate(f.region.blocks) if b.label in reach]
        dead = set()
        while True:
            used = set()
            for bi, block in live_blocks:
                for pos, instr in enumerate(block.instrs):
                    if (bi, pos) not in dead:
                        used |= passes._instr_uses(instr)
            grew = False
            for bi, block in live_blocks:
                for pos, instr in enumerate(block.instrs):
                    if (bi, pos) in dead or not passes._removable(instr):
                        continue
                    if all(r not in used for r in instr.results if isinstance(r, str)):
                        dead.add((bi, pos))
                        grew = True
            if not grew:
                break
        dead_iids |= {(f.name, bi, pos) for bi, pos in dead}
    return passes._per_instr_pass(program, {iid: [] for iid in dead_iids}, reaches)


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_dce_matches_the_fixpoint_reference(monkeypatch, shape, pattern):
    """On the sweep program and on every program `dce` receives in a preset."""
    with sealed_opaque_regions():
        for program in received_by(monkeypatch, "dce", shape, pattern):
            got, want = dce(program), reference_dce(program)
            assert got.program == want.program
            assert print_program(got.program) == print_program(want.program)
            assert got.provenance.rows() == want.provenance.rows()


def test_dce_removes_a_dead_copy_chain_in_one_scan(monkeypatch):
    copies = "\n".join(f"  a{i} = a{i - 1}" for i in range(1, 301))
    p = prog(f"function main() {{\n  a0 = io(inp)\n{copies}\n  return()\n}}\n")
    calls = []
    instr_uses = passes._instr_uses

    def counted(instr):
        calls.append(instr)
        return instr_uses(instr)

    monkeypatch.setattr(passes, "_instr_uses", counted)
    passes._use_table(p.function("main"))
    assert len(calls) == 302 == len(program_iids(p))  # the table reads each once
    calls.clear()
    res = dce(p)
    [block] = res.program.function("main").region.blocks
    assert len(block.instrs) == 2  # the io and the return
    assert len(calls) == 300  # each dying copy once more, to take its uses off


# --------------------------------------------------------------------------
# constprop against the round-robin iteration it replaced
# --------------------------------------------------------------------------


def reference_constprop(program):
    """The round-robin `constprop` SCCP replaced: evaluate every instruction
    of every executable block until a sweep changes nothing, then rewrite
    every instruction of the executable blocks."""
    top, meet = passes._TOP, passes._meet
    edits, executable_blocks = {}, {}
    for f in program.functions:
        values = {p.name: passes._BOT for p in f.params}
        executable = executable_blocks[f.name] = {f.region.entry.label}
        taken = {}
        changed = True
        while changed:
            changed = False
            for block in f.region.blocks:
                if block.label not in executable:
                    continue
                for instr in block.instrs:
                    lowered = []
                    if isinstance(instr, Define):
                        lowered = passes._eval_define(instr, values)
                    elif isinstance(instr, Branch):
                        if instr.cond is None:
                            outs = [instr.then]
                        else:
                            cv = passes._atom_value(instr.cond, values)
                            if cv == top:
                                outs = []
                            elif cv[0] == "const":
                                outs = [instr.then if bool(cv[1]) else instr.els]
                            else:
                                outs = [instr.then, instr.els]
                        outs = [o for o in outs if o is not None]
                        if [o.label for o in outs] != [o.label for o in taken.get(block.label, [])]:
                            taken[block.label] = outs
                            changed = True
                        for call in outs:
                            if call.label not in executable:
                                executable.add(call.label)
                                changed = True
                            params = f.region.block(call.label).params
                            lowered += [
                                (p.name, passes._atom_value(a, values))
                                for p, a in zip(params, call.args)
                            ]
                    for name, val in lowered:
                        new = meet(values.get(name, top), val)
                        if values.get(name, top) != new:
                            values[name] = new
                            changed = True
        consts = {n: Const(v[1], v[2]) for n, v in values.items() if v[0] == "const"}
        for bi, block in enumerate(f.region.blocks):
            outs = taken.get(block.label, ())
            for pos, instr in enumerate(block.instrs if block.label in executable else ()):
                arith = (
                    isinstance(instr, Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                    and isinstance(instr.rhs, (UnaryExpr, BinaryExpr))
                )
                if isinstance(instr, Branch) and instr.cond is not None and len(outs) == 1:
                    new = rename_instr(Branch(None, outs[0], None, instr.loc), consts)
                    edits[(f.name, bi, pos)] = [(new, "rewritten")]
                elif arith and (v := values.get(instr.results[0], top))[0] == "const":
                    new = dc_replace(instr, rhs=AtomExpr(Const(v[1], v[2])))
                    edits[(f.name, bi, pos)] = [(new, "rewritten")]
                elif (new := rename_instr(instr, consts)) != instr:
                    edits[(f.name, bi, pos)] = [(new, "kept")]
    return passes._per_instr_pass(program, edits, executable_blocks)


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_constprop_matches_the_round_robin_reference(monkeypatch, shape, pattern):
    with sealed_opaque_regions():
        for program in received_by(monkeypatch, "constprop", shape, pattern):
            got, want = constprop(program), reference_constprop(program)
            assert got.program == want.program
            assert print_program(got.program) == print_program(want.program)
            assert got.provenance.rows() == want.provenance.rows()


@pytest.mark.parametrize("start", ["io(inp)", "1"])
def test_constprop_evaluates_each_define_of_a_chain_once(monkeypatch, start):
    """Worklist SCCP reads a straight-line chain once, where the round robin
    needed a second, confirming sweep."""
    chain = "\n".join(f"  a{i} = a{i - 1} + 1" for i in range(1, 301))
    p = prog(f"function main() {{\n  a0 = {start}\n{chain}\n  io(out, a300)\n  return()\n}}\n")
    evaluated = []
    eval_define = passes._eval_define

    def counted(instr, values):
        evaluated.append(instr)
        return eval_define(instr, values)

    monkeypatch.setattr(passes, "_eval_define", counted)
    res = constprop(p)
    assert len(evaluated) == 301 == len(set(map(id, evaluated)))
    evaluated.clear()
    assert res.program == reference_constprop(p).program
    assert len(evaluated) == 2 * 301


# --------------------------------------------------------------------------
# The edit map
# --------------------------------------------------------------------------


class Unreadable(tuple):
    """A block's instructions that may be counted but not read."""

    def __iter__(self):
        raise AssertionError("an instruction was read")

    def __getitem__(self, index):
        raise AssertionError("an instruction was read")


def test_an_empty_edit_map_returns_the_input():
    p = prog(EVERY_PASS_CHANGES_MAIN + HELPER)
    res = passes._per_instr_pass(p, {})
    assert res.program is p
    assert res.provenance.edges == ProvenanceMap.identity(p).edges


def test_an_edit_map_leaves_other_functions_unread():
    p = prog(EVERY_PASS_CHANGES_MAIN + HELPER)
    helper = p.function("helper")
    blocks = tuple(dc_replace(b, instrs=Unreadable(b.instrs)) for b in helper.region.blocks)
    helper = dc_replace(helper, region=Region(blocks))
    p = Program((p.function("main"), helper), p.macros)
    first = p.function("main").region.blocks[0].instrs[0]
    res = passes._per_instr_pass(p, {("main", 0, 0): [(first, "rewritten")]})
    assert res.program.function("main") is not p.function("main")
    assert res.program.function("main").region.blocks[0].instrs[0] is first
    assert res.provenance.edges[(("main", 0, 0), ("main", 0, 0))] == "rewritten"
    assert res.program.function("helper") is helper
    identity = {(iid, iid) for iid in program_iids(p) if iid[0] == "helper"}
    assert {e for e in res.provenance.edges if e[0][0] == "helper"} == identity != set()


# --------------------------------------------------------------------------
# Programs are freed without the cyclic collector
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text", [sweep_program("loop3", "opacify"), EVERY_PASS_CHANGES_MAIN + HELPER]
)
def test_a_dropped_program_and_its_output_need_no_collector(text):
    """Preparing (typecheck, observation tags) and optimizing leave no
    reference cycle, so dropping a program frees it and its output."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        program = prog(text)
        result = optimize(program, "P3")
        assert result.program is not program
        refs = [weakref.ref(program), weakref.ref(result.program)]
        del program, result
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0  # nothing else was left in a cycle either
    finally:
        if enabled:
            gc.enable()
