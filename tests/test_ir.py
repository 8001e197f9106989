"""Parser, printer, macro expansion, opacity barrier and validation."""

import dataclasses

import pytest

from opaqueir import ir
from opaqueir.ir import (
    Branch,
    Const,
    Define,
    IRError,
    MacroError,
    OpacityBreach,
    OpaqueExpr,
    ParseError,
    Return,
    SnapshotExpr,
    Type,
    compute_dominators,
    compute_postdominators,
    expand_macros,
    instr_signature,
    merge_obs_metadata,
    parse_program,
    print_program,
    rename_instr,
    sealed_opaque_regions,
    typecheck,
    validate_ssa,
    Var,
)
from opaqueir.patterns import inject_prelude, prepare


BRANCHY = """
function main() {
bb_entry:
  c = opaque { yield(42); };
  br c, bb_true;
bb_false:
  io(desc, 0);
  br true, bb_join;
bb_true:
  io(desc, 0);
bb_join:
}
"""


def test_parse_branchy_listing_block_structure():
    p = parse_program(BRANCHY)
    region = p.function("main").region
    assert [b.label for b in region.blocks] == ["bb_entry", "bb_false", "bb_true", "bb_join"]
    # `br c, bb_true` falls through to the next block when c is false.
    br = region.blocks[0].instrs[-1]
    assert isinstance(br, Branch) and br.then.label == "bb_true" and br.els.label == "bb_false"
    # `br true, X` is unconditional.
    tail = region.blocks[1].instrs[-1]
    assert isinstance(tail, Branch) and tail.cond is None and tail.then.label == "bb_join"
    # Missing terminators synthesize a fall-through branch / final return.
    assert isinstance(region.blocks[2].instrs[-1], Branch)
    assert isinstance(region.blocks[3].instrs[-1], Return)


def test_roundtrip_structural_equality():
    p = parse_program(BRANCHY)
    text = print_program(p)
    p2 = parse_program(text)
    assert p == p2
    # Canonical text is a fixed point.
    assert print_program(p2) == text


def test_semicolons_and_comments():
    p = parse_program(
        "function main() { x = 1; y = x + 1; io(out, y); return(); } // done\n"
    )
    instrs = p.function("main").region.blocks[0].instrs
    assert len(instrs) == 4
    # Instructions separated by `;` share a source line.
    assert len({i.loc[0] for i in instrs[:3]}) == 1


def test_literal_types_and_ranges():
    p = parse_program("function main() {\n  a = 255u8\n  b = 7i32\n  c = 9\n}\n")
    instrs = p.function("main").region.blocks[0].instrs
    assert instrs[0].rhs.atom == Const(255, Type.U8)
    assert instrs[1].rhs.atom == Const(7, Type.I32)
    assert instrs[2].rhs.atom == Const(9, Type.U32)
    with pytest.raises(ParseError):
        parse_program("function main() {\n  a = 256u8\n}\n")
    with pytest.raises(ParseError, match="i32 suffix"):
        parse_program("function main() {\n  a = -5\n}\n")
    p = parse_program("function main() {\n  a = -5i32\n}\n")
    assert p.function("main").region.blocks[0].instrs[0].rhs.atom == Const(-5, Type.I32)


def test_label_versus_call_distinction():
    src = """
function helper(x: u32) {
  return();
}
function main() {
  helper(3)
loop(i: u32):
  br loop(i)
}
"""
    p = parse_program(src)
    blocks = p.function("main").region.blocks
    assert [b.label for b in blocks] == ["entry", "loop"]
    call = blocks[0].instrs[0]
    assert isinstance(call, Define) and call.rhs.callee == "helper"


def test_references_resolve_contextually():
    src = """
function main() {
  r <- 7
  x = r
  io(out, x)
}
"""
    p = parse_program(src)
    instrs = p.function("main").region.blocks[0].instrs
    from opaqueir.ir import LoadRef

    assert isinstance(instrs[1].rhs, LoadRef)
    assert validate_ssa(p) == []


def test_descriptor_operand_resolution():
    src = """
function main() {
  d = tagged_unit_unordered_set_descriptor
  io(d)
  io(literal_channel, 1)
}
"""
    p = parse_program(src)
    instrs = p.function("main").region.blocks[0].instrs
    assert instrs[1].desc.is_var
    assert not instrs[2].desc.is_var


# -- validation


def test_validate_duplicate_definition():
    diags = validate_ssa(parse_program("function main() {\n  x = 1\n  x = 2\n}\n"))
    assert any("more than once" in d.message for d in diags)


def test_validate_dominance():
    src = """
function main() {
bb_a:
  c = io(flag)
  br c, bb_b, bb_c
bb_b:
  x = 1
  br bb_d
bb_c:
  br bb_d
bb_d:
  y = x + 1
}
"""
    diags = validate_ssa(parse_program(src))
    assert any("not dominated" in d.message for d in diags)


def test_validate_type_conflicts():
    diags = validate_ssa(parse_program("function main() {\n  a = 1u8\n  b = a + 1\n}\n"))
    assert any("do not agree" in d.message for d in diags)


def test_validate_main_shape():
    diags = validate_ssa(parse_program("function f() {\n}\n"))
    assert any("no function 'main'" in d.message for d in diags)
    diags = validate_ssa(parse_program("function main(x: u32) {\n}\n"))
    assert any("takes no parameters" in d.message for d in diags)


def test_validate_call_inside_opaque_rejected():
    src = """
function f() -> (u32) {
  return(1)
}
function main() {
  x = opaque { v = f(); yield(v); }
}
"""
    diags = validate_ssa(parse_program(src))
    assert any("call inside an opaque region" in d.message for d in diags)


def test_validate_yield_placement():
    diags = validate_ssa(parse_program("function main() {\n  yield(1)\n}\n"))
    assert any("yield outside" in d.message for d in diags)


# -- typecheck memo

LINTED = "function main() {\n  x = 1\n  use(x)\n}\n"


def counting_validators(monkeypatch):
    built = []

    class Counted(ir._Validator):
        def __init__(self, program):
            built.append(program)
            super().__init__(program)

    monkeypatch.setattr(ir, "_Validator", Counted)
    return built


def test_typecheck_validates_each_program_once(monkeypatch):
    built = counting_validators(monkeypatch)
    p = parse_program(LINTED)
    info = typecheck(p)
    assert typecheck(p) is info
    assert len(built) == 1 and built[0] is p
    # A replaced program is a new instance, validated afresh.
    q = dataclasses.replace(p, functions=p.functions)
    assert q == p and typecheck(q) is not info
    assert typecheck(q) == info
    assert len(built) == 2 and built[1] is q


def test_ill_formed_program_raises_on_every_typecheck(monkeypatch):
    built = counting_validators(monkeypatch)
    p = parse_program("function main() {\n  x = 1\n  x = 2\n}\n")
    for _ in range(3):
        with pytest.raises(IRError, match="more than once"):
            typecheck(p)
    assert len(built) == 3


def test_cached_types_leave_program_equality_hash_and_repr_alone():
    p = parse_program(LINTED)
    before = (hash(p), repr(p))
    info = typecheck(p)
    assert (hash(p), repr(p)) == before
    assert p == parse_program(LINTED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        info.var_types = {}


def test_validate_ssa_reports_lints_on_every_call_after_typecheck():
    expected = validate_ssa(parse_program(LINTED))
    assert {(d.severity, d.message) for d in expected} == {
        ("lint", "use() outside an opaque region")
    }
    p = parse_program(LINTED)
    typecheck(p)
    assert validate_ssa(p) == expected
    assert validate_ssa(p) == expected


# -- macros


def test_expansion_leaves_no_macros_and_inherits_call_site():
    src = """
macro double(v) {
bb_macro:
  w = v + v;
  return(w);
}
function main() {
  a = 21
  b = double(a)
  io(out, b)
}
"""
    p = expand_macros(parse_program(src))
    assert p.macros == ()
    main = p.function("main")
    add = main.region.blocks[0].instrs[1]
    assert add.rhs.op == "+" and add.rhs.a == Var("a")
    # The spliced instruction sits at the invocation site (line 9 of src).
    assert add.loc[0] == 9
    assert validate_ssa(p) == []


def test_expansion_variadic_groups_and_fresh_locals():
    src = """
macro observe2(v1, ..., vk) {
bb_macro:
  u = opaque {
    w1, ..., wk = snapshot(v1, ..., vk);
    yield(w1);
  };
  return(u);
}
function main() {
  a = 1
  b = 2
  x = observe2(a, b)
  io(out, x)
}
"""
    p = expand_macros(parse_program(src))
    opq = p.function("main").region.blocks[0].instrs[2]
    assert isinstance(opq.rhs, OpaqueExpr)
    snap = opq.rhs.region.blocks[0].instrs[0]
    assert snap.rhs.args == (Var("a"), Var("b"))
    assert len(snap.results) == 2
    assert validate_ssa(p) == []


def test_expansion_rejects_recursion():
    src = """
macro loop_forever(v) {
bb_macro:
  w = loop_forever(v);
  return(w);
}
function main() {
  x = loop_forever(1)
}
"""
    with pytest.raises(MacroError):
        expand_macros(parse_program(src))


def test_variadic_marker_outside_macro_rejected():
    with pytest.raises(ParseError):
        parse_program("function main() {\n  a, ..., b = snapshot(1)\n}\n")


def test_multi_block_macro_splits_block():
    src = """
macro pick(c, a, b) {
bb_m:
  br c, bb_t, bb_f;
bb_t:
  return(a);
bb_f:
  return(b);
}
function main() {
  c = io(flag)
  x = pick(c, 1, 2)
  io(out, x)
}
"""
    p = expand_macros(parse_program(src))
    main = p.function("main")
    # entry prefix, three macro blocks, continuation.
    assert len(main.region.blocks) == 5
    assert validate_ssa(p) == []
    # Both returns branch to the continuation with the chosen value.
    conts = [
        i.then
        for b in main.region.blocks
        for i in b.instrs
        if isinstance(i, Branch) and i.then.label.startswith("bb_cont")
    ]
    assert len(conts) == 2 and all(len(t.args) == 1 for t in conts)


# -- observation tags


def test_default_tags_name_memory_loads():
    src = """
function main() {
  a = 1000
  t = opaque {
    v = mem[a];
    b, w = snapshot(a, v);
    yield(b);
  };
}
"""
    p = expand_macros(parse_program(src))
    opq = p.function("main").region.blocks[0].instrs[1]
    snap = opq.rhs.region.blocks[0].instrs[1]
    tag = snap.rhs.tags[0]
    assert tag.names == ("a", "mem[a]")
    assert tag.source_id == snap.loc


def test_explicit_tags_survive_roundtrip():
    src = """
function main() {
  a = 1
  t = opaque {
    w = snapshot(a) [obs 9:9(orig)];
    yield(w);
  };
}
"""
    p = expand_macros(parse_program(src))
    text = print_program(p)
    assert "[obs 9:9(orig)]" in text
    assert parse_program(text) == p


def test_prelude_tags_point_at_invocation_site():
    src = """
function main() {
  a = 41
  b = a + 1
  t = observe_decoupled(b)
  t2 = __io(t)
}
"""
    p, _ = prepare(src)
    tags = [
        i.rhs.tags
        for b in p.function("main").region.blocks
        for i in b.instrs
        if isinstance(i, Define) and isinstance(i.rhs, OpaqueExpr)
        for ib in i.rhs.region.blocks
        for i in ib.instrs
        if isinstance(i, Define) and isinstance(i.rhs, SnapshotExpr)
    ]
    assert tags and tags[0][0].source_id == (5, 3)
    assert tags[0][0].names == ("b",)


# -- opacity barrier


def test_sealed_region_access_raises():
    p = parse_program("function main() {\n  x = opaque { yield(1); }\n}\n")
    opq = p.function("main").region.blocks[0].instrs[0].rhs
    with sealed_opaque_regions():
        with pytest.raises(OpacityBreach):
            _ = opq.region
        # The summary stays available under seal.
        assert opq.summary.yield_arity == 1
    assert opq.region is not None


def test_summary_contents():
    src = """
function main() {
  a = 1
  b = 2
  x = opaque {
    v = mem[a];
    w1, w2 = snapshot(v, b);
    mem[a] <- w1;
    yield(w1);
  }
}
"""
    p = parse_program(src)
    opq = p.function("main").region.blocks[0].instrs[2].rhs
    s = opq.summary
    assert s.uses == ("a", "b")
    assert s.has_read and s.has_write and not s.performs_io
    assert s.yield_arity == 1 and s.snapshot_slots == 1
    assert not s.is_pure


def test_summary_identity_up_to_renaming():
    def body(var):
        return f"function main() {{\n  {var} = 1\n  x = opaque {{ w = snapshot({var}); yield(w); }}\n}}\n"

    a = parse_program(body("a")).function("main").region.blocks[0].instrs[1].rhs
    b = parse_program(body("bb")).function("main").region.blocks[0].instrs[1].rhs
    assert a.summary.identity == b.summary.identity
    c = parse_program(
        "function main() {\n  a = 1\n  x = opaque { w = snapshot(a); yield(unit_value); }\n}\n"
    ).function("main").region.blocks[0].instrs[1].rhs
    assert a.summary.identity != c.summary.identity


def test_instr_signature_abstracts_names_not_constants():
    pa = parse_program("function main() {\n  x = a ^ 5\n  a = 1\n}\n")
    pb = parse_program("function main() {\n  y = b ^ 5\n  b = 1\n}\n")
    pc = parse_program("function main() {\n  y = b ^ 6\n  b = 1\n}\n")
    ia = pa.function("main").region.blocks[0].instrs[0]
    ib = pb.function("main").region.blocks[0].instrs[0]
    ic = pc.function("main").region.blocks[0].instrs[0]
    assert instr_signature(ia) == instr_signature(ib)
    assert instr_signature(ia) != instr_signature(ic)


def test_merge_obs_metadata_concatenates_tags():
    src = """
function main() {
  a = 1
  x = opaque { w = snapshot(a); yield(w); }
  y = opaque { w2 = snapshot(a); yield(w2); }
}
"""
    p = expand_macros(parse_program(src))
    instrs = p.function("main").region.blocks[0].instrs
    dx, dy = instrs[1], instrs[2]
    merged = merge_obs_metadata(dx, dy)
    snap = merged.rhs.region.blocks[0].instrs[0]
    assert len(snap.rhs.tags) == 2
    # Hand-written snapshots tag their own location; lines 4 and 5 of src.
    assert snap.rhs.tags[0].source_id[0] == 4
    assert snap.rhs.tags[1].source_id[0] == 5


def snapshot_tags(region):
    """Tags of every snapshot in a region, nested regions included."""
    found = []
    for block in region.blocks:
        for instr in block.instrs:
            if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                found += snapshot_tags(instr.rhs.region)
            elif isinstance(instr, Define) and isinstance(instr.rhs, SnapshotExpr):
                found.append(instr.rhs.tags)
    return found


@pytest.mark.parametrize(
    "body",
    [
        "y{s} = opaque {{ p{s} = snapshot(b); yield(p{s}) }}; q{s} = snapshot(a); yield(q{s})",
        "y{s} = opaque {{ u{s} = opaque {{ r{s} = snapshot(c); yield(r{s}) }}; "
        "p{s} = snapshot(b); yield(p{s}) }}; q{s} = snapshot(a); yield(q{s})",
    ],
)
def test_merge_obs_metadata_pairs_each_snapshot_with_its_twin(body):
    src = (
        "function main() {\n  a = 1; b = 2; c = 3\n"
        f"  x = opaque {{ {body.format(s=1)} }}\n"
        f"  z = opaque {{ {body.format(s=2)} }}\n"
        "  w = opaque { s = snapshot(c); yield(s) }\n}\n"
    )
    instrs = expand_macros(parse_program(src)).function("main").region.blocks[0].instrs
    dx, dz, dw = instrs[3:6]
    tags = snapshot_tags(merge_obs_metadata(dx, dz).rhs.region)
    assert len(tags) == body.count("snapshot")
    for own, twin in tags:
        # lines 3 and 4 of src; each snapshot observes a different name
        assert (own.source_id[0], twin.source_id[0]) == (3, 4)
        assert own.names == twin.names
    with pytest.raises(ValueError):
        merge_obs_metadata(dx, dw)


def test_substitute_free_uses_respects_binding():
    p = parse_program(
        "function main() {\n  a = 1\n  x = opaque { w = a + a; v = w + a; yield(v); }\n}\n"
    )
    define = p.function("main").region.blocks[0].instrs[1]
    new = rename_instr(define, {"a": Const(9, Type.U32), "w": Const(7, Type.U32)})
    instrs = new.rhs.region.blocks[0].instrs
    assert instrs[0].rhs.a == Const(9, Type.U32)
    # `w` is bound inside the region and must not be rewritten.
    assert instrs[1].rhs.a == Var("w")


# -- prelude


def test_prelude_macros_available_and_expandable():
    src = """
function main() {
  a = 5
  t1 = observe_monolithic(a)
  t2 = observe_decoupled(a)
  t3 = observe_tailio(t2)
  u = artificial_def_cc(a)
  observe_cc(u)
  m = __observe_mem(1000)
  o = __opacify(a)
  io(out, o)
}
"""
    p, _ = prepare(src)
    assert p.macros == ()
    assert validate_ssa(p) == []


# -- CFG helpers


def test_dominators_and_postdominators_on_diamond():
    src = """
function main() {
bb_a:
  c = io(flag)
  br c, bb_b, bb_c
bb_b:
  br bb_d
bb_c:
  br bb_d
bb_d:
  return()
}
"""
    region = parse_program(src).function("main").region
    dom = compute_dominators(region)
    assert dom["bb_d"] == {"bb_a", "bb_d"}
    assert dom["bb_b"] == {"bb_a", "bb_b"}
    pdom = compute_postdominators(region)
    assert "bb_d" in pdom["bb_a"] and "bb_b" not in pdom["bb_a"]
    assert pdom["bb_b"] == {"bb_b", "bb_d"}
