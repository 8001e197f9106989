"""Interpreter semantics: arithmetic, events, I/O, budgets, patched reruns.

Expected values in the arithmetic tests are written out by hand, not
computed with the code under test.
"""

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import pytest

from opaqueir import interp
from opaqueir.deps import analyze
from opaqueir.interp import (
    DEFAULT_STEP_BUDGET,
    Channel,
    Event,
    InputSpec,
    InterpError,
    IoRecord,
    ObsRecord,
    parse_input,
    run,
)
from opaqueir.ir import (
    UNIT_VALUE as unit_value,
    AtomExpr,
    BinaryExpr,
    Branch,
    CallExpr,
    Const,
    Define,
    DescriptorExpr,
    DescValue,
    IoRead,
    IoWrite,
    IRError,
    LoadMem,
    LoadRef,
    MemStore,
    OpaqueExpr,
    RefAssign,
    Return,
    SnapshotExpr,
    UnaryExpr,
    Use,
    Var,
    Yield,
    instr_at,
    typecheck,
)
from opaqueir.passes import PRESETS, optimize
from opaqueir.patterns import prepare
from test_passes import SWEEP, sweep_program


def run_main(body: str, inputs: str = "", **kw):
    program, info = prepare(f"function main() {{\n{body}\n}}\n")
    spec = parse_input(inputs) if inputs else None
    return run(program, spec, type_info=info.var_types, **kw)


def final_def(result, name):
    for ev in reversed(result.events):
        for n, v in ev.defs:
            if n == name:
                return v
    raise KeyError(name)


# -- arithmetic oracles (hand-computed expectations)


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("7 * 6", 42),
        ("4294967295 + 1", 0),  # u32 wrap-around
        ("0 - 1", 4294967295),
        ("5 ^ 3", 6),
        ("6 ^ 6", 0),
        ("0 ^ 3", 3),
        ("1 << 31", 2147483648),
        ("1 << 32", 0),  # shift by the full width
        ("1 << 33", 0),
        ("4294967295 >> 31", 1),
        ("13 / 4", 3),
        ("13 % 4", 1),
        ("200 & 60", 8),
        ("200 | 60", 252),
    ],
)
def test_u32_arithmetic(expr, expected):
    r = run_main(f"  x = {expr}\n  io(out, x)")
    assert r.trapped is None
    assert final_def(r, "x") == expected


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("200u8 + 100u8", 44),  # 300 mod 256
        ("0u8 - 1u8", 255),
        ("170u8 ^ 255u8", 85),
        ("3u8 << 7", 128),
        ("3u8 << 8", 0),
    ],
)
def test_u8_arithmetic(expr, expected):
    r = run_main(f"  x = {expr}\n  io(out, x)")
    assert final_def(r, "x") == expected


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("-7i32 / 2i32", -3),  # truncation toward zero
        ("-7i32 % 2i32", -1),
        ("7i32 / -2i32", -3),
        ("-2147483648i32 / -1i32", -2147483648),  # wraps
        ("2147483647i32 + 1i32", -2147483648),
        ("-1i32 >> 1", 2147483647),  # logical shift on the bit pattern
    ],
)
def test_i32_arithmetic(expr, expected):
    r = run_main(f"  x = {expr}\n  io(out, x)")
    assert final_def(r, "x") == expected


def test_division_by_zero_traps():
    r = run_main("  z = 0\n  x = 1 / z\n  io(out, x)")
    assert r.trapped == "division by zero"


def test_bool_operators():
    r = run_main("  a = true\n  b = false\n  x = a ^ b\n  y = a & b\n  z = !b\n  io(out, 1)")
    assert final_def(r, "x") is True
    assert final_def(r, "y") is False
    assert final_def(r, "z") is True


def test_comparisons():
    r = run_main("  a = 3\n  b = 5\n  x = a < b\n  y = a == b\n  io(out, 1)")
    assert final_def(r, "x") is True
    assert final_def(r, "y") is False


# -- events and dependence capture


def test_branch_event_defines_block_params():
    r = run_main(
        "  c = true\n  br c, bb_t, bb_f\nbb_f:\n  br bb_j(1)\nbb_t:\n  br bb_j(2)\nbb_j(v: u32):\n  io(out, v)"
    )
    branch_events = [e for e in r.events if e.kind == "branch" and e.defs]
    assert branch_events[0].defs == (("v", 2),)
    io_event = [e for e in r.events if e.ios][0]
    # The io's use of v traces back to the branch event that defined it.
    assert dict(io_event.du)["v"] == branch_events[0].seq


def test_call_and_return_events():
    src = """
function add_one(x: u32) -> (u32) {
  y = x + 1
  return(y)
}
function main() {
  a = 41
  b = add_one(a)
  io(out, b)
}
"""
    program, info = prepare(src)
    r = run(program, None, type_info=info.var_types)
    call = [e for e in r.events if e.kind == "call" and e.iid is not None][0]
    assert call.defs == (("x", 41),)
    assert dict(call.du)["a"] == 2  # a = 41 is the second event after init/main-call
    ret = [e for e in r.events if e.kind == "ret" and e.defs][0]
    assert ret.defs == (("b", 42),)
    io_event = [e for e in r.events if e.ios][0]
    assert dict(io_event.du)["b"] == ret.seq


def test_opaque_event_aggregates_everything():
    r = run_main(
        "  a = 1000\n  mem[a] <- 7\n"
        "  t = opaque {\n    v = mem[a];\n    b, w = snapshot(a, v);\n    u = opaque { use(b, w); yield(unit_value); };\n    yield(u);\n  }\n"
        "  io(out, 1)"
    )
    opq = [e for e in r.events if e.kind == "opaque"][0]
    assert opq.obs and opq.obs[0].values == (1000, 7)
    assert opq.is_opaque
    store = [e for e in r.events if e.stores][0]
    assert opq.rf == (store.seq,)
    # Only one aggregated event for the whole nest.
    assert len([e for e in r.events if e.kind == "opaque"]) == 1


def test_memory_defaults_to_zero():
    r = run_main("  x = mem[5]\n  io(out, x)")
    assert final_def(r, "x") == 0


def test_reference_read_before_assignment_traps():
    r = run_main("  x = r\n  r <- 1\n  io(out, x)")
    assert r.trapped == "reference r read before assignment"


def test_references_are_activation_local():
    src = """
function poke() {
  r <- 99
  return()
}
function main() {
  r <- 1
  poke()
  x = r
  io(out, x)
}
"""
    program, info = prepare(src)
    r = run(program, None, type_info=info.var_types)
    assert final_def(r, "x") == 1


# -- pinned traces: every field of every event, as plain tuples, and what
# an event with an instruction id finds through it: the instruction's
# location, its function and block, and whether the event is opaque

COLUMNS = (
    "seq", "kind", "iid", "loc", "activation", "func", "block",
    "defs", "du", "rf", "stores", "ios", "obs", "is_opaque", "operands",
)
DERIVED = ("loc", "func", "block", "is_opaque")
OPTIONAL = dict(defs=(), du=(), rf=(), stores=(), ios=(), obs=(), is_opaque=False, operands=())


def E(seq, kind, iid, loc, activation, func, block, **rest):
    """An expected event as a plain tuple in COLUMNS order; `ios` entries are
    (channel, ordered, direction, tag, values, pos) and `obs` entries are
    (((source_id, names), ...), values, pos). An event without an `iid`
    has no `loc`, `func` or `block` (None)."""
    assert rest.keys() <= OPTIONAL.keys()
    return (seq, kind, iid, loc, activation, func, block) + tuple(
        rest.get(name, default) for name, default in OPTIONAL.items()
    )


def plain(program, ev) -> tuple:
    row = ev._asdict()
    row["ios"] = tuple(
        (r.channel, r.ordered, r.direction, r.tag, r.values, r.pos) for r in ev.ios
    )
    row["obs"] = tuple(
        (tuple((t.source_id, t.names) for t in r.tags), r.values, r.pos) for r in ev.obs
    )
    row["is_opaque"] = ev.is_opaque
    if ev.iid is not None:
        fname, bi, pos = ev.iid
        block = program.function(fname).region.blocks[bi]
        row.update(loc=block.instrs[pos].loc, func=fname, block=block.label)
    return tuple(row.get(name) for name in COLUMNS)


def test_pinned_tables_store_every_event_field():
    assert tuple(c for c in COLUMNS if c not in DERIVED) == Event._fields


CALLS = """
function add(x: u32, y: u32) -> (u32, bool) {
  s = x + y
  c = s > 10
  return(s, c)
}
function main() {
  a = 7
  b, big = add(a, 5)
  br big, bb_hi(b, a), bb_lo(a)
bb_lo(v: u32):
  io(out, v)
  br bb_end
bb_hi(p: u32, q: u32):
  d = p - q
  io(out, d)
  br bb_end
bb_end:
  return()
}
"""

CALLS_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (8, 3), 1, "main", "entry",
      defs=(("a", 7),)),
    E(3, "call", ("main", 0, 1), (9, 3), 1, "main", "entry",
      defs=(("x", 7), ("y", 5)), du=(("a", 2),), operands=(("a", 7),)),
    E(4, "instr", ("add", 0, 0), (3, 3), 2, "add", "entry",
      defs=(("s", 12),), du=(("x", 3), ("y", 3)), operands=(("x", 7), ("y", 5))),
    E(5, "instr", ("add", 0, 1), (4, 3), 2, "add", "entry",
      defs=(("c", True),), du=(("s", 4),), operands=(("s", 12),)),
    E(6, "ret", ("add", 0, 2), (5, 3), 2, "add", "entry",
      defs=(("b", 12), ("big", True)), du=(("s", 4), ("c", 5)),
      operands=(("s", 12), ("c", True))),
    E(7, "branch", ("main", 0, 2), (10, 3), 1, "main", "entry",
      defs=(("p", 12), ("q", 7)), du=(("big", 6), ("b", 6), ("a", 2)),
      operands=(("big", True), ("b", 12), ("a", 7))),
    E(8, "instr", ("main", 2, 0), (15, 3), 1, "main", "bb_hi",
      defs=(("d", 5),), du=(("p", 7), ("q", 7)), operands=(("p", 12), ("q", 7))),
    E(9, "instr", ("main", 2, 1), (16, 3), 1, "main", "bb_hi",
      du=(("d", 8),), ios=(("out", True, "w", 0, (5,), 1),), is_opaque=True,
      operands=(("d", 5),)),
    E(10, "branch", ("main", 2, 2), (17, 3), 1, "main", "bb_hi"),
    E(11, "ret", ("main", 3, 0), (19, 3), 1, "main", "bb_end"),
]

# Patching `big` at the return takes the other arm.
CALLS_PATCHED_TRACE = CALLS_TRACE[:6] + [
    E(6, "ret", ("add", 0, 2), (5, 3), 2, "add", "entry",
      defs=(("b", 12), ("big", False)), du=(("s", 4), ("c", 5)),
      operands=(("s", 12), ("c", True))),
    E(7, "branch", ("main", 0, 2), (10, 3), 1, "main", "entry",
      defs=(("v", 7),), du=(("big", 6), ("a", 2)),
      operands=(("big", False), ("a", 7))),
    E(8, "instr", ("main", 1, 0), (12, 3), 1, "main", "bb_lo",
      du=(("v", 7),), ios=(("out", True, "w", 0, (7,), 1),), is_opaque=True,
      operands=(("v", 7),)),
    E(9, "branch", ("main", 1, 1), (13, 3), 1, "main", "bb_lo"),
    E(10, "ret", ("main", 3, 0), (19, 3), 1, "main", "bb_end"),
]

# A nested region that loads, stores, reads and writes a reference, reads
# and writes I/O and observes, all aggregated into event 5 in `pos` order.
OPAQUE = """
function main() {
  a = 1000
  mem[a] <- 7
  r <- 3
  t = opaque {
    v = mem[a];
    mem[a] <- 8;
    w = r;
    r <- 4;
    b, c = snapshot(a, v);
    x = io(inp);
    io(out, x, w);
    u = opaque {
      use(b, c);
      mem[a] <- 9;
      z = mem[a];
      s = snapshot(z);
      io(out, s);
      yield(z);
    };
    yield(u);
  }
  y = mem[a]
  k = r
  io(out, y, t, k)
}
"""

OPAQUE_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry",
      defs=(("a", 1000),)),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry",
      du=(("a", 2),), stores=((1000, 7),), operands=(("a", 1000),)),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry"),
    E(5, "opaque", ("main", 0, 3), (6, 3), 1, "main", "entry",
      defs=(("t", 9),), du=(("a", 2),), rf=(3, 4), stores=((1000, 8), (1000, 9)),
      ios=(
          ("inp", True, "r", 0, (5,), 2),
          ("out", True, "w", 0, (5, 3), 3),
          ("out", True, "w", 1, (9,), 5),
      ),
      obs=(((((11, 5), ("a", "mem[a]")),), (1000, 7), 1), ((((18, 7), ("mem[a]",)),), (9,), 4)),
      is_opaque=True, operands=(("a", 1000),)),
    E(6, "instr", ("main", 0, 4), (24, 3), 1, "main", "entry",
      defs=(("y", 9),), du=(("a", 2),), rf=(5,), operands=(("a", 1000),)),
    E(7, "instr", ("main", 0, 5), (25, 3), 1, "main", "entry",
      defs=(("k", 4),), rf=(5,)),
    E(8, "instr", ("main", 0, 6), (26, 3), 1, "main", "entry",
      du=(("y", 6), ("t", 5), ("k", 7)),
      ios=(("out", True, "w", 2, (9, 9, 4), 1),), is_opaque=True,
      operands=(("y", 9), ("t", 9), ("k", 4))),
    E(9, "ret", ("main", 0, 7), (26, 3), 1, "main", "entry"),
]

# rf across events, ordered and unordered I/O, and the tailio/cc channels.
CHANNELS = """
function main() {
  p = 10
  mem[p] <- 1
  q = 11
  mem[q] <- 2
  x = mem[p]
  mem[p] <- 3
  y = mem[p]
  z = mem[q]
  a = io(nums)
  b = io(bag)
  io(outs, a, b)
  io(out, x, y, z)
  t = observe_decoupled(x, y)
  t2 = __io(t)
  observe_cc(z)
  v = artificial_def_cc(a)
  d = ordered_set_descriptor
  io(d, v)
}
"""

CHANNELS_IN = "desc nums in ordered\n4\n6\ndesc bag in unordered\n9u8\ndesc outs out unordered\n"

CHANNELS_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry",
      defs=(("p", 10),)),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry",
      du=(("p", 2),), stores=((10, 1),), operands=(("p", 10),)),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry",
      defs=(("q", 11),)),
    E(5, "instr", ("main", 0, 3), (6, 3), 1, "main", "entry",
      du=(("q", 4),), stores=((11, 2),), operands=(("q", 11),)),
    E(6, "instr", ("main", 0, 4), (7, 3), 1, "main", "entry",
      defs=(("x", 1),), du=(("p", 2),), rf=(3,), operands=(("p", 10),)),
    E(7, "instr", ("main", 0, 5), (8, 3), 1, "main", "entry",
      du=(("p", 2),), stores=((10, 3),), operands=(("p", 10),)),
    E(8, "instr", ("main", 0, 6), (9, 3), 1, "main", "entry",
      defs=(("y", 3),), du=(("p", 2),), rf=(7,), operands=(("p", 10),)),
    E(9, "instr", ("main", 0, 7), (10, 3), 1, "main", "entry",
      defs=(("z", 2),), du=(("q", 4),), rf=(5,), operands=(("q", 11),)),
    E(10, "instr", ("main", 0, 8), (11, 3), 1, "main", "entry",
      defs=(("a", 4),), ios=(("nums", True, "r", 0, (4,), 1),), is_opaque=True),
    E(11, "instr", ("main", 0, 9), (12, 3), 1, "main", "entry",
      defs=(("b", 9),), ios=(("bag", False, "r", 0, (9,), 1),), is_opaque=True),
    E(12, "instr", ("main", 0, 10), (13, 3), 1, "main", "entry",
      du=(("a", 10), ("b", 11)), ios=(("outs", False, "w", 0, (4, 9), 1),),
      is_opaque=True, operands=(("a", 4), ("b", 9))),
    E(13, "instr", ("main", 0, 11), (14, 3), 1, "main", "entry",
      du=(("x", 6), ("y", 8), ("z", 9)),
      ios=(("out", True, "w", 0, (1, 3, 2), 1),), is_opaque=True,
      operands=(("x", 1), ("y", 3), ("z", 2))),
    E(14, "opaque", ("main", 0, 12), (15, 3), 1, "main", "entry",
      defs=(("u1__2", unit_value),), du=(("x", 6), ("y", 8)),
      obs=(((((15, 3), ("x", "y")),), (1, 3), 1),), is_opaque=True, operands=(("x", 1), ("y", 3))),
    E(15, "instr", ("main", 0, 13), (15, 3), 1, "main", "entry",
      defs=(("t", unit_value),), du=(("u1__2", 14),),
      operands=(("u1__2", unit_value),)),
    E(16, "opaque", ("main", 0, 14), (16, 3), 1, "main", "entry",
      defs=(("v__9", unit_value),), du=(("t", 15),),
      ios=(("tailio", False, "w", 0, (), 1),), is_opaque=True, operands=(("t", unit_value),)),
    E(17, "instr", ("main", 0, 15), (16, 3), 1, "main", "entry",
      defs=(("t2", unit_value),), du=(("v__9", 16),),
      operands=(("v__9", unit_value),)),
    E(18, "opaque", ("main", 0, 16), (17, 3), 1, "main", "entry",
      du=(("z", 9),), ios=(("cc", True, "w", 0, (), 2),),
      obs=(((((17, 3), ("z",)),), (2,), 1),), is_opaque=True, operands=(("z", 2),)),
    E(19, "opaque", ("main", 0, 17), (18, 3), 1, "main", "entry",
      defs=(("u__19", 4),), du=(("a", 10),), ios=(("cc", True, "w", 1, (), 1),),
      is_opaque=True, operands=(("a", 4),)),
    E(20, "instr", ("main", 0, 18), (18, 3), 1, "main", "entry",
      defs=(("v", 4),), du=(("u__19", 19),), operands=(("u__19", 4),)),
    E(21, "instr", ("main", 0, 19), (19, 3), 1, "main", "entry",
      defs=(("d", DescValue(channel="cc")),)),
    E(22, "instr", ("main", 0, 20), (20, 3), 1, "main", "entry",
      du=(("d", 21), ("v", 20)), ios=(("cc", True, "w", 2, (4,), 1),),
      is_opaque=True, operands=(("d", DescValue(channel="cc")), ("v", 4))),
    E(23, "ret", ("main", 0, 21), (20, 3), 1, "main", "entry"),
]

# The division inside `div` traps after its call event.
TRAP = """
function div(n: u32, m: u32) -> (u32) {
  q = n / m
  return(q)
}
function main() {
  a = io(nums)
  io(out, a)
  b = io(nums)
  c = div(a, b)
  io(out, c)
}
"""

TRAP_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (7, 3), 1, "main", "entry",
      defs=(("a", 8),), ios=(("nums", True, "r", 0, (8,), 1),), is_opaque=True),
    E(3, "instr", ("main", 0, 1), (8, 3), 1, "main", "entry",
      du=(("a", 2),), ios=(("out", True, "w", 0, (8,), 1),), is_opaque=True,
      operands=(("a", 8),)),
    E(4, "instr", ("main", 0, 2), (9, 3), 1, "main", "entry",
      defs=(("b", 0),), ios=(("nums", True, "r", 1, (0,), 1),), is_opaque=True),
    E(5, "call", ("main", 0, 3), (10, 3), 1, "main", "entry",
      defs=(("n", 8), ("m", 0)), du=(("a", 2), ("b", 4)),
      operands=(("a", 8), ("b", 0))),
]

# A variable read twice is one `du` and one `operands` entry.
DEDUP = """
function main() {
  a = io(inp)
  b = a + a
  c = b * b
  io(out, c)
}
"""

DEDUP_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry",
      defs=(("a", 3),), ios=(("inp", True, "r", 0, (3,), 1),), is_opaque=True),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry",
      defs=(("b", 6),), du=(("a", 2),), operands=(("a", 3),)),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry",
      defs=(("c", 36),), du=(("b", 3),), operands=(("b", 6),)),
    E(5, "instr", ("main", 0, 3), (6, 3), 1, "main", "entry",
      du=(("c", 4),), ios=(("out", True, "w", 0, (36,), 1),), is_opaque=True,
      operands=(("c", 36),)),
    E(6, "ret", ("main", 0, 4), (6, 3), 1, "main", "entry"),
]

# The boolean operators on variables, not constants.
BOOLS = """
function main() {
  a = io(inp)
  p = a > 1
  q = 1 > a
  r = p & q
  s = p | q
  t = p ^ q
  u = q ^ q
  io(out, r, s, t, u)
}
"""

PQ = dict(du=(("p", 3), ("q", 4)), operands=(("p", True), ("q", False)))
BOOLS_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry",
      defs=(("a", 3),), ios=(("inp", True, "r", 0, (3,), 1),), is_opaque=True),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry",
      defs=(("p", True),), du=(("a", 2),), operands=(("a", 3),)),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry",
      defs=(("q", False),), du=(("a", 2),), operands=(("a", 3),)),
    E(5, "instr", ("main", 0, 3), (6, 3), 1, "main", "entry", defs=(("r", False),), **PQ),
    E(6, "instr", ("main", 0, 4), (7, 3), 1, "main", "entry", defs=(("s", True),), **PQ),
    E(7, "instr", ("main", 0, 5), (8, 3), 1, "main", "entry", defs=(("t", True),), **PQ),
    E(8, "instr", ("main", 0, 6), (9, 3), 1, "main", "entry",
      defs=(("u", False),), du=(("q", 4),), operands=(("q", False),)),
    E(9, "instr", ("main", 0, 7), (10, 3), 1, "main", "entry",
      du=(("r", 5), ("s", 6), ("t", 7), ("u", 8)),
      ios=(("out", True, "w", 0, (False, True, True, False), 1),), is_opaque=True,
      operands=(("r", False), ("s", True), ("t", True), ("u", False))),
    E(10, "ret", ("main", 0, 8), (10, 3), 1, "main", "entry"),
]

# u8 and i32 arithmetic wraps by the left operand's type, a variable's
# (from the types) or a constant's; a unary operator by its operand's.
WRAP = """
function main() {
  x: u8 = io(bytes)
  y = x + 10u8
  z = 10u8 + x
  u = ~x
  k: i32 = io(words)
  m = k + 1i32
  n = 1i32 + k
  d = -2i32 - k
  io(out, y, z, u, m, n, d)
}
"""

WRAP_IN = "desc bytes in ordered\n250u8\ndesc words in ordered\n2147483647i32\n"
X = dict(du=(("x", 2),), operands=(("x", 250),))
K = dict(du=(("k", 6),), operands=(("k", 2**31 - 1),))
WRAP_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry",
      defs=(("x", 250),), ios=(("bytes", True, "r", 0, (250,), 1),), is_opaque=True),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry", defs=(("y", 4),), **X),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry", defs=(("z", 4),), **X),
    E(5, "instr", ("main", 0, 3), (6, 3), 1, "main", "entry", defs=(("u", 5),), **X),
    E(6, "instr", ("main", 0, 4), (7, 3), 1, "main", "entry",
      defs=(("k", 2**31 - 1),), ios=(("words", True, "r", 0, (2**31 - 1,), 1),), is_opaque=True),
    E(7, "instr", ("main", 0, 5), (8, 3), 1, "main", "entry", defs=(("m", -(2**31)),), **K),
    E(8, "instr", ("main", 0, 6), (9, 3), 1, "main", "entry", defs=(("n", -(2**31)),), **K),
    E(9, "instr", ("main", 0, 7), (10, 3), 1, "main", "entry", defs=(("d", 2**31 - 1),), **K),
    E(10, "instr", ("main", 0, 8), (11, 3), 1, "main", "entry",
      du=(("y", 3), ("z", 4), ("u", 5), ("m", 7), ("n", 8), ("d", 9)),
      ios=(("out", True, "w", 0, (4, 4, 5, -(2**31), -(2**31), 2**31 - 1), 1),), is_opaque=True,
      operands=(("y", 4), ("z", 4), ("u", 5), ("m", -(2**31)), ("n", -(2**31)), ("d", 2**31 - 1))),
    E(11, "ret", ("main", 0, 9), (11, 3), 1, "main", "entry"),
]

# A branch reads its arguments before it binds the target's parameters:
# passing `n` on to `n` reads the earlier binding.
CARRIED = """
function main() {
  br head(0, 2)
head(i: u32, n: u32):
  j = i + 1
  c = j < n
  br c, head(j, n), done
done:
  io(out, i)
}
"""

CARRIED_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "branch", ("main", 0, 0), (3, 3), 1, "main", "entry", defs=(("i", 0), ("n", 2))),
    E(3, "instr", ("main", 1, 0), (5, 3), 1, "main", "head",
      defs=(("j", 1),), du=(("i", 2),), operands=(("i", 0),)),
    E(4, "instr", ("main", 1, 1), (6, 3), 1, "main", "head",
      defs=(("c", True),), du=(("j", 3), ("n", 2)), operands=(("j", 1), ("n", 2))),
    E(5, "branch", ("main", 1, 2), (7, 3), 1, "main", "head",
      defs=(("i", 1), ("n", 2)), du=(("c", 4), ("j", 3), ("n", 2)),
      operands=(("c", True), ("j", 1), ("n", 2))),
    E(6, "instr", ("main", 1, 0), (5, 3), 1, "main", "head",
      defs=(("j", 2),), du=(("i", 5),), operands=(("i", 1),)),
    E(7, "instr", ("main", 1, 1), (6, 3), 1, "main", "head",
      defs=(("c", False),), du=(("j", 6), ("n", 5)), operands=(("j", 2), ("n", 2))),
    E(8, "branch", ("main", 1, 2), (7, 3), 1, "main", "head",
      du=(("c", 7),), operands=(("c", False),)),
    E(9, "instr", ("main", 2, 0), (9, 3), 1, "main", "done",
      du=(("i", 5),), ios=(("out", True, "w", 0, (1,), 1),), is_opaque=True,
      operands=(("i", 1),)),
    E(10, "ret", ("main", 2, 1), (9, 3), 1, "main", "done"),
]

# An opaque region may read a variable its function defines later: the
# region traps on it, at its third step.
UNDEFINED = """
function main() {
  a = 1
  x = opaque {
    yield(y);
  }
  y = a + 1
  io(out, x)
}
"""

UNDEFINED_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry", defs=(("a", 1),)),
]

# With a budget of three steps the fourth traps.
BUDGET = "\nfunction main() {\n  a = 1\n  b = a + 1\n  c = b + 1\n  io(out, c)\n}\n"
BUDGET_TRACE = [
    E(0, "init", None, None, 0, None, None),
    E(1, "call", None, None, 1, None, None),
    E(2, "instr", ("main", 0, 0), (3, 3), 1, "main", "entry", defs=(("a", 1),)),
    E(3, "instr", ("main", 0, 1), (4, 3), 1, "main", "entry",
      defs=(("b", 2),), du=(("a", 2),), operands=(("a", 1),)),
    E(4, "instr", ("main", 0, 2), (5, 3), 1, "main", "entry",
      defs=(("c", 3),), du=(("b", 3),), operands=(("b", 2),)),
]

ONE_INP = "desc inp in ordered\n3\n"
PINNED = {  # source, inputs, run keywords, trace, steps, trap, memory
    "calls": (CALLS, "", {}, CALLS_TRACE, 10, None, {}),
    "calls-patched": (CALLS, "", dict(patch=(6, "big", False)), CALLS_PATCHED_TRACE, 9, None, {}),
    "opaque": (OPAQUE, "desc inp in ordered\n5\n", {}, OPAQUE_TRACE, 23, None, {1000: 9}),
    "channels": (CHANNELS, CHANNELS_IN, {}, CHANNELS_TRACE, 42, None, {10: 3, 11: 2}),
    "trap": (TRAP, "desc nums in ordered\n8\n0\n", {}, TRAP_TRACE, 5, "division by zero", {}),
    "dedup": (DEDUP, ONE_INP, {}, DEDUP_TRACE, 5, None, {}),
    "bools": (BOOLS, ONE_INP, {}, BOOLS_TRACE, 9, None, {}),
    "wrap": (WRAP, WRAP_IN, {}, WRAP_TRACE, 10, None, {}),
    "carried": (CARRIED, "", {}, CARRIED_TRACE, 9, None, {}),
    "undefined": (UNDEFINED, "", {}, UNDEFINED_TRACE, 3, "undefined variable y", {}),
    "budget": (BUDGET, "", dict(step_budget=3), BUDGET_TRACE, 4, "step budget exceeded", {}),
}


@pytest.mark.parametrize(
    "src, inputs, kw, trace, steps, trapped, memory", PINNED.values(), ids=PINNED
)
def test_pinned_trace(src, inputs, kw, trace, steps, trapped, memory):
    program, _ = prepare(src)
    r = run(program, parse_input(inputs) if inputs else None, **kw)
    got = [plain(program, ev) for ev in r.events]
    assert got == trace
    assert repr(got) == repr(trace)  # tells True from 1
    assert (r.steps, r.trapped, r.memory) == (steps, trapped, memory)


# --------------------------------------------------------------------------
# The executor against the per-instruction reference
# --------------------------------------------------------------------------


class RefCode:
    def __init__(self, region, fname=None):
        self.blocks, self.index = [], {}
        for bi, block in enumerate(region.blocks):
            steps = []
            for pos, instr in enumerate(block.instrs):
                kind = type(instr.rhs) if type(instr) is Define else type(instr)
                body = RefCode(instr.rhs.region) if kind is OpaqueExpr else None
                steps.append((instr, kind, (fname, bi, pos) if fname is not None else None, body))
            self.blocks.append((block.label, tuple(p.name for p in block.params), tuple(steps)))
            self.index[block.label] = bi


class RefFrame:
    def __init__(self, fname, activation):
        self.fname, self.activation, self.env, self.refs = fname, activation, {}, {}


class RefAgg:
    def __init__(self):
        self.du, self.operands, self.fx = {}, [], None

    def effects(self):
        if self.fx is None:
            self.fx = SimpleNamespace(rf=[], stores=[], ios=[], obs=[], pos=0)
        return self.fx


def next_pos(fx):
    fx.pos += 1
    return fx.pos


class ReferenceInterp:
    """The executor before instructions were decoded into steps: every
    operand read through `atom_value` into an event buffer (`RefAgg`), every
    type looked up by (function, name), every event built by `Event`."""

    def __init__(self, program, inputs, patch=None):
        self.functions = {}
        for f in program.functions:
            self.functions.setdefault(f.name, (tuple(p.name for p in f.params), RefCode(f.region, f.name)))
        self.program, self.type_info = program, typecheck(program).var_types
        self.channels = inputs.channels if inputs is not None else {}
        self.step_budget, self.opaque_budget = DEFAULT_STEP_BUDGET, interp.DEFAULT_OPAQUE_BUDGET
        self.patch_seq, self.patch_name, self.patch_value = patch or (-1, None, None)
        self.steps = self.region_steps = self.activations = 0
        self.events, self.memory, self.read_cursor, self.write_count = [], {}, {}, {}

    def bind(self, frame, names, values, seq):
        defs = tuple(zip(names, values))
        if seq == self.patch_seq:
            defs = tuple((n, self.patch_value if n == self.patch_name else v) for n, v in defs)
        for name, value in defs:
            frame.env[name] = (value, seq)
        return defs

    def atom_value(self, frame, scopes, atom, agg):
        if type(atom) is Const:
            return atom.value
        name = atom.name
        if scopes:
            for env in reversed(scopes):
                if name in env:
                    return env[name]
        entry = frame.env.get(name)
        if entry is None:
            raise interp._Trap(f"undefined variable {name}")
        if name not in agg.du:
            agg.du[name] = entry[1]
            agg.operands.append((name, entry[0]))
        return entry[0]

    def desc_value(self, frame, scopes, desc, agg):
        if desc.is_var:
            value = self.atom_value(frame, scopes, Var(desc.name), agg)
            if not isinstance(value, DescValue):
                raise interp._Trap(f"{desc.name} does not hold a descriptor")
            return value
        return DescValue(desc.name)

    def channel_config(self, channel):
        if channel == "tailio":
            return ("out", False)
        if channel == "cc":
            return ("out", True)
        cfg = self.channels.get(channel)
        return (cfg.direction, cfg.ordered) if cfg is not None else ("out", True)

    def io_read(self, channel):
        direction, _ = self.channel_config(channel)
        cfg = self.channels.get(channel)
        if cfg is None or direction != "in":
            raise interp._Trap(f"read from undeclared input channel {channel}")
        cursor = self.read_cursor.get(channel, 0)
        if cursor >= len(cfg.values):
            raise interp._Trap(f"input channel {channel} exhausted")
        self.read_cursor[channel] = cursor + 1
        return cfg.values[cursor], cursor

    def io_write(self, channel):
        if self.channel_config(channel)[0] == "in":
            raise interp._Trap(f"write to input channel {channel}")
        tag = self.write_count.get(channel, 0)
        self.write_count[channel] = tag + 1
        return tag

    def operand_type(self, fname, atom, value):
        if type(atom) is Const:
            return atom.type
        ty = self.type_info.get((fname, atom.name))
        return ty if ty is not None else interp._type_of_value(value)

    def exec_instr(self, frame, scopes, instr, kind, agg, seq):
        read = lambda atom: self.atom_value(frame, scopes, atom, agg)  # noqa: E731
        if kind is BinaryExpr:
            a, b = read(instr.rhs.a), read(instr.rhs.b)
            ty = self.operand_type(frame.fname, instr.rhs.a, a)
            return (interp.eval_binary(instr.rhs.op, a, b, ty),)
        if kind is AtomExpr:
            return (read(instr.rhs.atom),)
        if kind is UnaryExpr:
            a = read(instr.rhs.a)
            return (interp.eval_unary(instr.rhs.op, a, self.operand_type(frame.fname, instr.rhs.a, a)),)
        if kind is LoadMem:
            value, writer = self.memory.get(read(instr.rhs.addr), (0, 0))
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is SnapshotExpr:
            values = tuple(read(a) for a in instr.rhs.args)
            fx = agg.effects()
            fx.obs.append(ObsRecord(instr.rhs.tags, values, next_pos(fx)))
            return values
        if kind is IoRead:
            dv = self.desc_value(frame, scopes, instr.rhs.desc, agg)
            _, ordered = self.channel_config(dv.channel)
            value, tag = self.io_read(dv.channel)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "r", tag, (value,), next_pos(fx)))
            return (value,)
        if kind is IoWrite:
            dv = self.desc_value(frame, scopes, instr.desc, agg)
            values = tuple(read(v) for v in instr.values)
            _, ordered = self.channel_config(dv.channel)
            tag = self.io_write(dv.channel)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "w", tag, values, next_pos(fx)))
            return ()
        if kind is MemStore:
            addr, value = read(instr.addr), read(instr.value)
            self.memory[addr] = (value, seq)
            agg.effects().stores.append((addr, value))
            return ()
        if kind is Use:
            for a in instr.args:
                read(a)
            return ()
        if kind is LoadRef:
            if instr.rhs.ref not in frame.refs:
                raise interp._Trap(f"reference {instr.rhs.ref} read before assignment")
            value, writer = frame.refs[instr.rhs.ref]
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is RefAssign:
            frame.refs[instr.ref] = (read(instr.value), seq)
            return ()
        if kind is DescriptorExpr:
            return (DescValue(instr.rhs.channel),)
        if kind is CallExpr:
            raise interp._Trap("function call inside an opaque region")
        where = "in an opaque region" if scopes is not None else "at function level"
        raise interp._Trap(f"illegal instruction {where}: {instr!r}")

    def take_branch(self, frame, scopes, instr, agg):
        target = instr.then
        if instr.cond is not None:
            cond = self.atom_value(frame, scopes, instr.cond, agg)
            target = instr.then if (cond if isinstance(cond, bool) else cond != 0) else instr.els
        return target, tuple(self.atom_value(frame, scopes, a, agg) for a in target.args)

    def run_region(self, frame, code, scopes, agg, seq):
        env = {}
        scopes = scopes + [env]
        steps = code.blocks[0][2]
        while True:
            for instr, kind, _, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise interp._Trap("step budget exceeded")
                self.region_steps += 1
                if self.region_steps > self.opaque_budget:
                    raise interp._Trap("opaque region budget exceeded")
                if kind is Branch:
                    target, args = self.take_branch(frame, scopes, instr, agg)
                    _, params, steps = code.blocks[code.index[target.label]]
                    env.update(zip(params, args))
                    break
                if kind is Yield:
                    return tuple(self.atom_value(frame, scopes, v, agg) for v in instr.values)
                if body is not None:
                    values = self.run_region(frame, body, scopes, agg, seq)
                else:
                    values = self.exec_instr(frame, scopes, instr, kind, agg, seq)
                if values:
                    env.update(zip(instr.results, values))
            else:
                raise interp._Trap("opaque region block fell through")

    def call_function(self, fname, args, arg_agg, call_iid, caller, result_names, depth):
        if depth > 200:
            raise interp._Trap("call stack too deep")
        params, code = self.functions[fname]
        label, _, steps = code.blocks[0]
        self.activations += 1
        frame = RefFrame(fname, self.activations)
        events = self.events
        seq = len(events)
        events.append(Event(
            seq, "call", call_iid, caller.activation if caller else frame.activation,
            self.bind(frame, params, args, seq), tuple(arg_agg.du.items()),
            operands=tuple(arg_agg.operands),
        ))
        while True:
            for instr, kind, iid, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise interp._Trap("step budget exceeded")
                agg = RefAgg()
                seq = len(events)
                if kind is CallExpr:
                    call_args = tuple(self.atom_value(frame, None, a, agg) for a in instr.rhs.args)
                    results = tuple(r for r in instr.results if isinstance(r, str))
                    self.call_function(instr.rhs.callee, call_args, agg, iid, frame, results, depth + 1)
                    continue
                if kind is Branch:
                    target, args = self.take_branch(frame, None, instr, agg)
                    label, params, steps = code.blocks[code.index[target.label]]
                    events.append(Event(
                        seq, "branch", iid, frame.activation, self.bind(frame, params, args, seq),
                        tuple(agg.du.items()), operands=tuple(agg.operands),
                    ))
                    break
                if kind is Return:
                    values = tuple(self.atom_value(frame, None, v, agg) for v in instr.values)
                    events.append(Event(
                        seq, "ret", iid, frame.activation,
                        self.bind(caller, result_names, values, seq) if caller else (),
                        tuple(agg.du.items()), operands=tuple(agg.operands),
                    ))
                    return values
                if body is not None:
                    self.region_steps = 0
                    values = self.run_region(frame, body, [], agg, seq)
                else:
                    values = self.exec_instr(frame, None, instr, kind, agg, seq)
                fx = agg.fx or SimpleNamespace(rf=(), stores=(), ios=(), obs=())
                events.append(Event(
                    seq, "opaque" if body is not None else "instr", iid, frame.activation,
                    self.bind(frame, instr.results, values, seq) if values else (),
                    tuple(agg.du.items()), tuple(fx.rf), tuple(fx.stores), tuple(fx.ios),
                    tuple(fx.obs), tuple(agg.operands),
                ))
            else:
                raise interp._Trap(f"block {label} has no terminator")

    def run(self):
        trapped = None
        self.events.append(Event(0, "init", None, 0))
        try:
            self.call_function("main", (), RefAgg(), None, None, (), 0)
        except interp._Trap as trap:
            trapped = trap.reason
        memory = {addr: value for addr, (value, _) in self.memory.items()}
        return tuple(self.events), trapped, self.steps, memory


def assert_matches_the_reference(program, spec, **kw):
    r = run(program, spec, **kw)
    want = ReferenceInterp(program, spec, **kw).run()
    assert repr((r.events, r.trapped, r.steps, dict(r.memory))) == repr(want)
    return r


def other_value(value):
    """A value of the same type as `value`, when there is another one."""
    if type(value) is bool:
        return not value
    return value ^ 1 if type(value) is int else None


PURE = (AtomExpr, UnaryExpr, BinaryExpr, DescriptorExpr)


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_runs_match_the_reference_executor_on_the_sweep(shape, pattern):
    """The reference run of each sweep program and its run under every
    preset that compiles it, and each of these runs patched at the first
    execution of each pure define, equal the reference executor's: events,
    trap, steps and memory."""
    program = prepare(sweep_program(shape, pattern))[0]
    spec = parse_input("desc inp in ordered\n5\n")
    programs = [program]
    for preset in sorted(PRESETS):
        try:
            programs.append(optimize(program, preset=preset).program)
        except IRError:
            continue  # the exit-capture unroll under Pz (ROADMAP item 3)
    for p in programs:
        patched = set()
        for ev in assert_matches_the_reference(p, spec).events:
            instr = instr_at(p, ev.iid) if ev.kind == "instr" else None
            if type(instr) is Define and type(instr.rhs) in PURE and ev.iid not in patched:
                patched.add(ev.iid)
                (name, value), = ev.defs
                if (alt := other_value(value)) is not None:
                    assert_matches_the_reference(p, spec, patch=(ev.seq, name, alt))


# -- I/O

def test_input_consumption_and_behavior():
    r = run_main(
        "  a = io(numbers)\n  b = io(numbers)\n  io(out, b)\n  io(out, a)",
        inputs="desc numbers in ordered\n10\n20\n",
    )
    assert r.trapped is None
    behavior = r.io_behavior()
    assert behavior[("r", "numbers")] == ("ordered", ((10,), (20,)))
    assert behavior[("w", "out")] == ("ordered", ((20,), (10,)))


def test_input_exhaustion_traps():
    r = run_main("  a = io(numbers)\n  b = io(numbers)\n  io(out, a)", inputs="desc numbers in ordered\n1\n")
    assert r.trapped == "input channel numbers exhausted"


def test_reserved_channels_not_declarable():
    with pytest.raises(InterpError):
        parse_input("desc tailio in ordered\n")


@pytest.mark.parametrize(
    "value",
    [
        "256u8",
        "300u8",
        "-1u8",
        "4294967296u32",
        "-1u32",
        "2147483648i32",
        "-2147483649i32",
        "4294967296",
        "-5",
    ],
)
def test_out_of_range_input_values_are_rejected(value):
    with pytest.raises(InterpError) as exc:
        parse_input(f"desc inp in ordered\n1u8\n{value}\n")
    assert exc.value.loc == (3, 1)


@pytest.mark.parametrize(
    "value, expected",
    [
        ("255u8", 255),
        ("0u8", 0),
        ("4294967295u32", 2**32 - 1),
        ("4294967295", 2**32 - 1),
        ("2147483647i32", 2**31 - 1),
        ("-2147483648i32", -(2**31)),
    ],
)
def test_input_values_at_the_type_limits_are_accepted(value, expected):
    assert parse_input(f"desc inp in ordered\n{value}\n").channels["inp"].values == [expected]


def test_tailio_is_unordered():
    r = run_main("  t = observe_decoupled(1)\n  t2 = __io(t)\n  io(out, 0)")
    behavior = r.io_behavior()
    assert behavior[("w", "tailio")][0] == "unordered"
    behavior2 = r.io_behavior(exclude=frozenset({"tailio"}))
    assert ("w", "tailio") not in behavior2


def test_typed_io_read():
    r = run_main("  a: u8 = io(bytes)\n  x = a + 1u8\n  io(out2, x)", inputs="desc bytes in ordered\n255u8\n")
    assert final_def(r, "x") == 0


def test_trace_rendering():
    r = run_main(
        "  a = 41\n  b = a + 1\n  t = observe_decoupled(b)\n  t2 = __io(t)\n  io(out, b)"
    )
    text = r.render_trace()
    lines = text.splitlines()
    assert lines[0].startswith("OBS 4:3 b=42")
    assert "IO tailio 0=unit" in lines
    assert lines[-1] == "IO out 0=42"


# -- budgets


def test_step_budget_traps():
    r = run_main("  br loop(0)\nloop(i: u32):\n  j = i + 1\n  br loop(j)", step_budget=500)
    assert r.trapped == "step budget exceeded"


def test_opaque_budget_traps():
    body = (
        "  x = opaque {\n  br loop(0)\nloop(i: u32):\n  j = i + 1;\n  br loop(j);\n"
        "done:\n  yield(1);\n  }\n  io(out, x)"
    )
    r = run_main(body, opaque_budget=200)
    assert r.trapped == "opaque region budget exceeded"


# -- patched reruns


def test_patch_changes_downstream_values():
    body = "  a = 1\n  b = a + 1\n  io(out, b)"
    program, info = prepare(f"function main() {{\n{body}\n}}\n")
    base = run(program, None, type_info=info.var_types)
    assert final_def(base, "b") == 2
    a_def = [e for e in base.events if ("a", 1) in e.defs][0]
    patched = run(program, None, patch=(a_def.seq, "a", 10), type_info=info.var_types)
    assert final_def(patched, "b") == 11


def test_patch_on_branch_condition_switches_path():
    body = (
        "  c = opaque { yield(true); }\n"
        "  br c, bb_t, bb_f\n"
        "bb_f:\n  io(out, 0)\n  br bb_j\n"
        "bb_t:\n  io(out, 1)\n  br bb_j\n"
        "bb_j:\n  return()"
    )
    program, info = prepare(f"function main() {{\n{body}\n}}\n")
    base = run(program, None, type_info=info.var_types)
    assert base.io_behavior()[("w", "out")] == ("ordered", ((1,),))
    c_def = [e for e in base.events if e.kind == "opaque"][0]
    patched = run(program, None, patch=(c_def.seq, "c", False), type_info=info.var_types)
    assert patched.io_behavior()[("w", "out")] == ("ordered", ((0,),))


@pytest.mark.parametrize(
    "patch, defs, out",
    [
        ((7, "p", 20), (("p", 20), ("q", 7)), 13),  # a block parameter
        ((3, "x", 100), (("x", 100), ("y", 5)), 98),  # a callee parameter
        ((6, "b", 30), (("b", 30), ("big", True)), 23),  # a call result bound in the caller
    ],
)
def test_patch_replaces_each_kind_of_binding(patch, defs, out):
    program, _ = prepare(CALLS)
    r = run(program, None, patch=patch)
    assert r.events[patch[0]].defs == defs
    assert r.io_behavior()[("w", "out")] == ("ordered", ((out,),))


# -- budgets, to the step

LOOP = "  br loop(0)\nloop(i: u32):\n  j = i + 1\n  br loop(j)"
# Seven steps: a, the opaque instruction, its three region instructions
# (which alone count against the opaque budget), the io and the return.
SHORT = "  a = 1\n  x = opaque {\n    b = a + 1;\n    c = b + 1;\n    yield(c);\n  }\n  io(out, x)"


@pytest.mark.parametrize(
    "body, budgets, steps, n_events, trapped",
    [
        (LOOP, dict(step_budget=500), 501, 502, "step budget exceeded"),
        (SHORT, {}, 7, 6, None),
        (SHORT, dict(step_budget=7), 7, 6, None),
        (SHORT, dict(step_budget=6), 7, 5, "step budget exceeded"),
        (SHORT, dict(step_budget=4), 5, 3, "step budget exceeded"),
        (SHORT, dict(opaque_budget=3), 7, 6, None),
        (SHORT, dict(opaque_budget=2), 5, 3, "opaque region budget exceeded"),
        # Both budgets run out on the same step: the step budget is checked first.
        (SHORT, dict(step_budget=2, opaque_budget=0), 3, 3, "step budget exceeded"),
    ],
)
def test_budgets_trap_at_the_exact_step(body, budgets, steps, n_events, trapped):
    r = run_main(body, **budgets)
    assert (r.steps, len(r.events), r.trapped) == (steps, n_events, trapped)


def test_runs_leave_the_input_spec_alone():
    spec = parse_input(CHANNELS_IN)
    before = {n: (c.name, c.direction, c.ordered, list(c.values)) for n, c in spec.channels.items()}
    program, _ = prepare(CHANNELS)
    first = run(program, spec)
    # A copy of the program shares no memoized run, so this one executes.
    second = run(dataclasses.replace(program), spec)
    after = {n: (c.name, c.direction, c.ordered, list(c.values)) for n, c in spec.channels.items()}
    assert after == before
    assert second is not first
    assert first.trapped is None and first.events == second.events


# -- shared runs


ECHO = "function main() {\n  a = io(inp)\n  io(out, a)\n}\n"


def test_equal_runs_share_one_result():
    program, _ = prepare(CHANNELS)
    first = run(program, parse_input(CHANNELS_IN))
    assert run(program, parse_input(CHANNELS_IN)) is first
    assert run(program, parse_input(CHANNELS_IN), step_budget=DEFAULT_STEP_BUDGET) is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.steps = 0
    with pytest.raises(TypeError):
        first.memory[10] = 0
    assert isinstance(first.events, tuple)


def test_a_changed_spec_runs_afresh():
    program, _ = prepare(CHANNELS)
    spec = parse_input(CHANNELS_IN)
    first = run(program, spec)
    spec.channels["nums"].values[0] = 7
    second = run(program, spec)
    assert second is not first
    assert second.io_behavior()[("w", "outs")] == ("unordered", ((7, 9),))
    spec.channels["nums"].values[0] = 4
    assert run(program, spec) is first  # equal content again, and still held
    spec.channels["bag"].ordered = True
    assert run(program, spec) is not first


def test_true_and_one_never_share_a_run():
    program, _ = prepare(ECHO)
    one = run(program, InputSpec({"inp": Channel("inp", "in", True, [1])}))
    true = run(program, InputSpec({"inp": Channel("inp", "in", True, [True])}))
    assert true is not one
    assert (one.render_trace(), true.render_trace()) == ("IO out 0=1\n", "IO out 0=true\n")


def test_unshared_runs_execute_afresh():
    program, info = prepare(CHANNELS)
    spec = parse_input(CHANNELS_IN)
    base = run(program, spec, type_info=info.var_types)
    assert run(program, spec) is base  # the types `typecheck` caches
    x_def = next(ev for ev in base.events if ev.defs == (("x", 1),))
    patch = (x_def.seq, "x", 5)
    assert run(program, spec, patch=patch) is not run(program, spec, patch=patch)
    assert run(program, spec, step_budget=1000) is not base
    assert run(program, spec, opaque_budget=1000) is not base
    with pytest.raises(ValueError, match="typecheck"):
        run(program, spec, type_info=dict(info.var_types))  # types come from typecheck only
    # Dependence info is stored on a run analysed with its own program only.
    dep_info = analyze(program, base)
    assert analyze(program, base) is dep_info
    other = analyze(dataclasses.replace(program), base)
    assert other is not dep_info and other.dep_sources == dep_info.dep_sources
    assert analyze(program, base) is dep_info


def test_a_dropped_run_and_its_analysis_leave_nothing_behind():
    """Nothing but the caller keeps a run alive: the memo holds it weakly
    and its dependence info holds its events, not the run, so no cycle
    waits for the collector."""
    program, _ = prepare(CHANNELS)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run(program, parse_input(CHANNELS_IN))
        info = analyze(program, result)
        alive = weakref.ref(result)
        assert len(program._runs) == 1
        del result
        assert alive() is None and len(program._runs) == 0
        assert info.events[0].kind == "init"  # the info keeps the events only
        del info
        assert len(program._runs) == 0
    finally:
        if enabled:
            gc.enable()
