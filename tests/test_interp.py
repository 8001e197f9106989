"""Interpreter semantics: arithmetic, events, I/O, budgets, patched reruns.

Expected values in the arithmetic tests are written out by hand, not
computed with the code under test.
"""

import pytest

from opaqueir.interp import (
    Event,
    InterpError,
    parse_input,
    run,
)
from opaqueir.patterns import prepare


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
    assert opq.loads == ((1000, 7),)
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
