"""Parser, printer, macro expansion, opacity barrier and validation."""

import ast
import dataclasses
import functools
import itertools
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    block_signature,
    compute_dominators,
    compute_postdominators,
    expand_macros,
    fresh_namer,
    freshen,
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
from opaqueir.passes import PRESETS, optimize, unsafe_const_fold_opaque
from opaqueir.patterns import inject_prelude, prelude_source, prepare
from test_passes import SWEEP, sweep_program
from test_validate import load_benchmark_generator


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


@pytest.mark.parametrize(
    "body, shown",
    [
        ("return()", False),
        ("entry:\n  return()", False),
        ("start:\n  return()", True),
        ("entry:\n  br next\nnext:\n  br entry", True),
    ],
)
def test_printer_leaves_out_only_a_first_label_that_parsing_gives_back(body, shown):
    p = parse_program(f"function main() {{\n{body}\n}}\n")
    text = print_program(p)
    assert (f"{p.entry.region.entry.label}:" in text) == shown
    assert parse_program(text) == p


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


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

REFERENCE_PUNCT = [
    "<-", "->", "...", "<<", ">>", "==", "!=", "<=", ">=",
    "(", ")", "{", "}", "[", "]", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "@",
]
REFERENCE_INT = re.compile(r"\d+")
REFERENCE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
REFERENCE_SUFFIXES = {"u8": Type.U8, "u32": Type.U32, "i32": Type.I32}


def reference_tokenize(text):
    """The character-by-character lexer `ir.tokenize` replaced, returning
    `(kind, text, line, col, value)` tuples."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        comment = line.find("//")
        if comment >= 0:
            line = line[:comment]
        pos = 0
        produced = False
        while pos < len(line):
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            col = pos + 1
            if ch == ";":
                tokens.append(("newline", ";", lineno, col, None))
                pos += 1
                continue
            m = REFERENCE_INT.match(line, pos)
            if m:
                raw = m.group()
                pos = m.end()
                suffix_m = REFERENCE_IDENT.match(line, pos)
                ty = Type.U32
                if suffix_m and suffix_m.group() in REFERENCE_SUFFIXES:
                    ty = REFERENCE_SUFFIXES[suffix_m.group()]
                    pos = suffix_m.end()
                elif suffix_m:
                    raise ParseError(f"bad integer suffix {suffix_m.group()!r}", (lineno, col))
                value = int(raw)
                ir._check_literal_range(value, ty, (lineno, col))
                tokens.append(("int", raw, lineno, col, Const(value, ty)))
                produced = True
                continue
            m = REFERENCE_IDENT.match(line, pos)
            if m:
                tokens.append(("ident", m.group(), lineno, col, None))
                pos = m.end()
                produced = True
                continue
            for p in REFERENCE_PUNCT:
                if line.startswith(p, pos):
                    tokens.append(("punct", p, lineno, col, None))
                    pos += len(p)
                    produced = True
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", (lineno, col))
        if produced:
            tokens.append(("newline", "\\n", lineno, len(line) + 1, None))
    tokens.append(("eof", "", len(text.splitlines()) + 1, 1, None))
    return tokens


def lexed(tokenize, text):
    """The token tuples, or the ParseError's message and location."""
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col, t.value)
                for t in tokenize(text)]
    except ParseError as exc:
        return ("ParseError", exc.message, exc.loc)


LEXER_PIECES = [
    " ", "\t", ";", "\n", "\r\n", "\r", "//", "/", "#", "é", "٣", " ", ".", "..", "...",
    "<-", "<<", "<=", "<", "->", "-", ">>", ">=", ">", "==", "=", "!=", "!",
    "(", ")", "{", "}", "[", "]", ",", ":", "+", "*", "%", "&", "|", "^", "~", "@",
    "0", "7", "42", "255", "256", "2147483648", "2147483649", "4294967295", "4294967296",
    "u8", "u32", "i32", "u", "i3", "x", "ab", "_", "a1", "opaque", "io",
]


@settings(deadline=None, derandomize=True, max_examples=500)
@given(st.lists(st.one_of(st.sampled_from(LEXER_PIECES), st.characters()), max_size=40))
def test_tokenize_matches_the_character_lexer(pieces):
    text = "".join(pieces)
    assert lexed(ir.tokenize, text) == lexed(reference_tokenize, text)


def test_tokenize_matches_the_character_lexer_on_the_sweep():
    texts = [sweep_program(shape, pattern) for shape, pattern in SWEEP]
    texts.append(prelude_source())
    for text in texts:
        tokens = lexed(ir.tokenize, text)
        assert isinstance(tokens, list) and tokens == lexed(reference_tokenize, text)


U32, I32 = Type.U32, Type.I32
LEXER_CASES = {
    "semicolon-only line": ("x\n;\n", [
        ("ident", "x", 1, 1, None), ("newline", "\\n", 1, 2, None),
        ("newline", ";", 2, 1, None), ("eof", "", 3, 1, None)]),
    "comment-only line": ("// note\nx // y\n", [
        ("ident", "x", 2, 1, None), ("newline", "\\n", 2, 3, None), ("eof", "", 3, 1, None)]),
    "i32 minimum": ("-2147483648i32", [
        ("punct", "-", 1, 1, None), ("int", "2147483648", 1, 2, Const(2147483648, I32)),
        ("newline", "\\n", 1, 15, None), ("eof", "", 2, 1, None)]),
    "u8 out of range": ("a = 256u8", ("ParseError", "literal 256 out of range for u8", (1, 5))),
    "bad suffix": ("12ab", ("ParseError", "bad integer suffix 'ab'", (1, 1))),
    "bad character": ("a #", ("ParseError", "unexpected character '#'", (1, 3))),
    "eof after blank lines": ("7\n\n\n", [
        ("int", "7", 1, 1, Const(7, U32)), ("newline", "\\n", 1, 2, None), ("eof", "", 4, 1, None)]),
    "empty text": ("", [("eof", "", 1, 1, None)]),
}


@pytest.mark.parametrize("text, want", LEXER_CASES.values(), ids=LEXER_CASES)
def test_tokenize_cases(text, want):
    assert lexed(ir.tokenize, text) == want == lexed(reference_tokenize, text)


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


# -- validator characterization: one small program per diagnostic


def main_fn(body: str, after: str = "") -> str:
    return "function main() {\n" + body + "}\n" + after


F_U32 = "function f(x: u32) -> (u32) {\n  return(x)\n}\n"

# `x` is defined in a block listed after its use; `y = x + 1u8` is typed
# only on a second walk.
OUT_OF_ORDER = main_fn(
    "  br bb_b\nbb_c:\n  y = x + 1u8\n  io(out, y)\n  return()\n"
    "bb_b:\n  x = 1\n  br bb_c\n"
)
# The same shape with a reference: `y = r` is read before `r <- 1` is walked.
REF_LOOP = main_fn(
    "  br bb_b\nbb_c:\n  y = r\n  z = y + 1u8\n  io(out, z)\n  return()\n"
    "bb_b:\n  r <- 1\n  br bb_c\n"
)

DIAGNOSTICS = {
    "duplicate-function": (
        "function main() {\n}\nfunction f() {\n}\nfunction f() {\n}\n",
        [("error", (0, 0), "duplicate function 'f'")],
    ),
    "unexpanded-macro": (
        "macro m(v) {\nbb_m:\n  return(v)\n}\nfunction main() {\n}\n",
        [("lint", (1, 1), "unexpanded macro 'm' (run expand_macros first)")],
    ),
    "no-main": ("function f() {\n}\n", [("error", (0, 0), "program has no function 'main'")]),
    "main-params": (
        "function main(x: u32) {\n}\n",
        [("error", (1, 1), "'main' takes no parameters")],
    ),
    "main-returns": (
        main_fn("  return(1)\n"),
        [("error", (1, 1), "'main' must not return values")],
    ),
    "unknown-function": (
        main_fn("  x = g(1)\n"),
        [("error", (2, 3), "call to unknown function 'g'")],
    ),
    "recursion-unannotated": (
        main_fn("  f(1)\n", "function f(n: u32) {\n  x = f(n)\n  return(x)\n}\n"),
        [("error", (5, 3), "recursive function 'f' needs a return type annotation")],
    ),
    "recursion-unannotated-listed-first": (
        "function f(n: u32) {\n  x = f(n)\n  return(x)\n}\n" + main_fn("  f(1)\n"),
        [("error", (2, 3), "recursive function 'f' needs a return type annotation")],
    ),
    "variable-and-reference": (
        main_fn("  r <- 1\n  r = 2\n"),
        [("error", (1, 1), "'r' is used both as a variable and a reference in main")],
    ),
    "duplicate-label": (
        main_fn("  br bb\nbb:\n  br bb2\nbb:\n  br bb2\nbb2:\n"),
        [("error", (1, 1), "duplicate block label 'bb' in main")],
    ),
    "reference-operand": (
        main_fn("  r <- 1\n  io(out, r)\n"),
        [("error", (3, 3), "reference 'r' used as an operand")],
    ),
    "undefined": (
        main_fn("  io(out, x)\n"),
        [("error", (2, 3), "use of undefined variable 'x'")],
    ),
    "not-dominated": (
        main_fn(
            "  c = io(flag)\n  br c, bb_b, bb_c\nbb_b:\n  x = 1\n  br bb_d\n"
            "bb_c:\n  br bb_d\nbb_d:\n  io(out, x)\n"
        ),
        [("error", (10, 3), "use of 'x' is not dominated by its definition")],
    ),
    "defined-twice": (
        main_fn("  x = 1\n  x = 2\n"),
        [("error", (3, 3), "'x' defined more than once (single assignment)")],
    ),
    "conflicting-types": (
        main_fn(
            "  c = io(flag)\n  br c, bb_a, bb_b\nbb_a:\n  br bb_j(1u8)\n"
            "bb_b:\n  br bb_j(1)\nbb_j(x):\n  io(out, x)\n"
        ),
        [("error", (7, 3), "'x' has conflicting types u8 and u32")],
    ),
    "not-of-integer": (
        main_fn("  a = 1\n  b = !a\n"),
        [("error", (3, 3), "'!' applies to bool values")],
    ),
    "complement-of-bool": (
        main_fn("  a = true\n  b = ~a\n"),
        [("error", (3, 3), "'~' applies to integer values")],
    ),
    "shift-of-bool": (
        main_fn("  a = true\n  b = a << 1\n"),
        [("error", (3, 3), "shift operands must be integers")],
    ),
    "operand-types": (
        main_fn("  a = 1u8\n  b = a + 1\n"),
        [("error", (3, 3), "operand types u8 and u32 do not agree")],
    ),
    "arithmetic-on-bool": (
        main_fn("  a = true\n  b = a + a\n"),
        [("error", (3, 3), "'+' applies to integer values")],
    ),
    "bits-of-descriptor": (
        main_fn("  d = tagged_unit_unordered_set_descriptor\n  e = d & d\n"),
        [("error", (3, 3), "'&' applies to integer or bool values")],
    ),
    "ordered-bool": (
        main_fn("  a = true\n  b = a < a\n"),
        [("error", (3, 3), "ordered comparison applies to integer values")],
    ),
    "load-address": (
        main_fn("  a = 1u8\n  b = mem[a]\n"),
        [("error", (3, 3), "memory addresses are u32 values")],
    ),
    "store-address": (
        main_fn("  a = 1u8\n  mem[a] <- 1\n"),
        [("error", (3, 3), "memory addresses are u32 values")],
    ),
    "store-value": (
        main_fn("  mem[0] <- 1u8\n"),
        [("error", (2, 3), "memory cells hold u32 values")],
    ),
    "call-arity": (
        main_fn("  y = f()\n", F_U32),
        [("error", (2, 3), "f takes 1 arguments, got 0")],
    ),
    "call-argument-type": (
        main_fn("  y = f(1u8)\n", F_U32),
        [("error", (2, 3), "argument 'x' of f expects u32, got u8")],
    ),
    "yield-arities": (
        main_fn(
            "  x = opaque {\n    c = io(flag)\n    br c, bb_a, bb_b\n  bb_a:\n    yield(1)\n"
            "  bb_b:\n    yield(1, 2)\n  }\n"
        ),
        [("error", (2, 3), "yields with different arities in one region")],
    ),
    "entry-params": (
        "function main() {\nbb(x: u32):\n  io(out, x)\n}\n",
        [("error", (3, 3), "entry block must not take parameters")],
    ),
    "snapshot-outside": (
        main_fn("  a = 1\n  s = snapshot(a)\n"),
        [("lint", (3, 3), "snapshot outside an opaque region")],
    ),
    "call-in-opaque": (
        main_fn(
            "  x = opaque { v = f(); yield(v); }\n",
            "function f() -> (u32) {\n  return(1)\n}\n",
        ),
        [("error", (2, 16), "function call inside an opaque region")],
    ),
    "results-0-or-n": (
        main_fn("  x = f()\n", "function f() -> (u32, u32) {\n  return(1, 2)\n}\n"),
        [("error", (2, 3), "expected 0 or 2 results, got 1")],
    ),
    "results-n": (
        main_fn("  a, b = 1\n"),
        [("error", (2, 3), "expected 1 results, got 2")],
    ),
    "annotation": (
        main_fn("  a: u8 = 1\n"),
        [("error", (2, 3), "'a' annotated u8 but has type u32")],
    ),
    "use-outside": (
        main_fn("  x = 1\n  use(x)\n  use(x)\n"),
        [
            ("lint", (3, 3), "use() outside an opaque region"),
            ("lint", (4, 3), "use() outside an opaque region"),
        ],
    ),
    "reference-types": (
        main_fn("  r <- 1\n  r <- 1u8\n"),
        [("error", (3, 3), "reference 'r' assigned both u32 and u8")],
    ),
    "branch-condition": (
        main_fn("  d = tagged_unit_unordered_set_descriptor\n  br d, bb_a\nbb_a:\n"),
        [("error", (3, 3), "branch condition must be bool or integer")],
    ),
    "unknown-block": (
        main_fn("  br nowhere\n"),
        [("error", (2, 3), "branch to unknown block 'nowhere'")],
    ),
    "block-arity": (
        main_fn("  br bb(1)\nbb:\n"),
        [("error", (2, 3), "block 'bb' takes 0 arguments, got 1")],
    ),
    "return-in-opaque": (
        main_fn("  x = opaque { return() }\n"),
        [
            ("error", (2, 16), "return inside an opaque region"),
            ("error", (2, 3), "expected 0 or 0 results, got 1"),
        ],
    ),
    "yield-outside": (
        main_fn("  yield(1)\n"),
        [("error", (2, 3), "yield outside an opaque region")],
    ),
    "return-types": (
        main_fn(
            "  f(true)\n",
            "function f(c: bool) {\n  br c, bb_a, bb_b\nbb_a:\n  return(1)\n"
            "bb_b:\n  return(1u8)\n}\n",
        ),
        [("error", (9, 3), "return types ['u8'] disagree with ['u32']")],
    ),
    "outoforder": (OUT_OF_ORDER, [("error", (4, 3), "operand types u32 and u8 do not agree")]),
    "refloop": (REF_LOOP, [("error", (5, 3), "operand types u32 and u8 do not agree")]),
}


@pytest.mark.parametrize("src, expected", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
def test_each_diagnostic_once_in_order(src, expected):
    diags = validate_ssa(parse_program(src))
    assert [(d.severity, d.loc, d.message) for d in diags] == expected


def test_unexpanded_group_is_reported():
    # Only a macro body may hold `...` groups; validate one as a function.
    body = parse_program(
        "macro m(v1, ..., vk) {\nbb_m:\n  w1, ..., wk = snapshot(v1, ..., vk)\n  return()\n}\n"
    ).macros[0].region
    diags = validate_ssa(ir.Program((ir.Function("main", (), body),)))
    assert [(d.severity, d.loc, d.message) for d in diags] == [
        ("error", (3, 3), "unexpanded '...' group"),
        ("lint", (3, 3), "snapshot outside an opaque region"),
    ]


def test_duplicate_names_are_reported_in_source_order_under_any_hash_seed():
    src = (
        "function beta() {\n}\nfunction alpha() {\n}\nfunction gamma() {\n}\n"
        + main_fn("  br b3\nb3:\n  br b1\nb1:\n  br b2\nb2:\n  br b3\nb3:\n  br b1\nb1:\n  br b2\nb2:\n")
        + "function gamma() {\n}\nfunction alpha() {\n}\nfunction beta() {\n}\n"
    )
    script = (
        "import json, sys\nfrom opaqueir.ir import parse_program, validate_ssa\n"
        "print(json.dumps([d.message for d in validate_ssa(parse_program(sys.stdin.read()))]))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(ir.__file__))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            input=src,
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src_dir},
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == [
        "duplicate function 'beta'",
        "duplicate function 'alpha'",
        "duplicate function 'gamma'",
        "duplicate block label 'b3' in main",
        "duplicate block label 'b1' in main",
        "duplicate block label 'b2' in main",
    ]


def test_typecheck_message_counts_the_errors_it_leaves_out():
    p = parse_program(main_fn("".join(f"  io(out, v{i})\n" for i in range(7))))
    with pytest.raises(IRError) as exc:
        typecheck(p)
    shown = str(exc.value).split("; ")
    assert shown[:5] == [f"{i + 2}:3: error: use of undefined variable 'v{i}'" for i in range(5)]
    assert shown[5:] == ["and 2 more"]
    with pytest.raises(IRError) as exc:
        typecheck(parse_program(main_fn("  io(out, v)\n")))
    assert str(exc.value) == "2:3: error: use of undefined variable 'v'"


# -- validator walks


def count_walks(monkeypatch, program) -> dict:
    """Validate `program`, counting dominator computations and walks: a walk
    reads the operands of every instruction of the function once."""
    counts = {"dominators": 0, "operand_reads": 0}

    def dominators(region):
        counts["dominators"] += 1
        return compute_dominators(region)

    def operands(instr):
        counts["operand_reads"] += 1
        return original_operands(instr)

    original_operands = ir.instr_operand_atoms
    monkeypatch.setattr(ir, "compute_dominators", dominators)
    monkeypatch.setattr(ir, "instr_operand_atoms", operands)
    counts["diags"], counts["info"] = ir._Validator(program).validate()
    n_instrs = sum(len(b.instrs) for f in program.functions for b in ir.walk_blocks(f.region))
    counts["walks"] = counts.pop("operand_reads") / n_instrs
    return counts


NESTED_OPAQUE = main_fn(
    "  a = io(flag)\n"
    "  w = opaque {\n"
    "    s = snapshot(a)\n"
    "    c = s < 3\n"
    "    br c, small, big\n"
    "  big:\n"
    "    t = s + 1\n"
    "    u = opaque { use(t); yield(unit_value) }\n"
    "    br fin(t)\n"
    "  small:\n"
    "    br fin(s)\n"
    "  fin(v):\n"
    "    yield(v)\n"
    "  }\n"
    "  io(out, w)\n"
)


def test_one_walk_and_one_dominator_computation_per_region(monkeypatch):
    counts = count_walks(monkeypatch, parse_program(NESTED_OPAQUE))
    assert counts["diags"] == []
    # The function body and its two opaque regions.
    assert counts["dominators"] == 3
    assert counts["walks"] == 1


@pytest.mark.parametrize(
    "src, var, ty",
    [(OUT_OF_ORDER, "x", Type.U32), (REF_LOOP, "y", Type.U32)],
    ids=["outoforder", "refloop"],
)
def test_a_name_read_before_it_is_typed_costs_one_retry(monkeypatch, src, var, ty):
    counts = count_walks(monkeypatch, parse_program(src))
    assert counts["walks"] == 2
    assert counts["info"].var_types[("main", var)] is ty
    assert [d.message for d in counts["diags"]] == ["operand types u32 and u8 do not agree"]


BLOCK_ORDER_PROGRAMS = {
    "loop": main_fn(
        "  n = io(flag)\n  br head(0, 0u8)\n"
        "head(i, acc):\n  c = i < n\n  br c, body, done\n"
        "body:\n  i2 = i + 1\n  acc2 = acc + 1u8\n  br head(i2, acc2)\n"
        "done:\n  io(out, acc)\n  return()\n"
    ),
    "diamond": main_fn(
        "  c = io(flag)\n  br c, left, right\n"
        "left:\n  a = 1u8\n  br join(a, true)\n"
        "right:\n  b = 2u8\n  br join(b, false)\n"
        "join(x, f):\n  g = !f\n  io(out, x)\n  return()\n"
    ),
    "reference": main_fn(
        "  n = io(flag)\n  br set\n"
        "use_it:\n  y = r\n  z = y + 1u8\n  io(out, z)\n  return()\n"
        "set:\n  m = n & 7\n  k = m == 0\n  br k, small, big\n"
        "small:\n  r <- 1u8\n  br use_it\n"
        "big:\n  r <- 2u8\n  br use_it\n"
    ),
    "opaque": NESTED_OPAQUE,
}


def permute_blocks(region: ir.Region, order: list[int]) -> ir.Region:
    rest = region.blocks[1:]
    return dataclasses.replace(region, blocks=(region.blocks[0],) + tuple(rest[i] for i in order))


@pytest.mark.parametrize("src", BLOCK_ORDER_PROGRAMS.values(), ids=BLOCK_ORDER_PROGRAMS)
@settings(deadline=None, derandomize=True)
@given(data=st.data())
def test_block_order_changes_no_type(src, data):
    p = parse_program(src)
    fn = p.function("main")
    blocks = []
    for block in fn.region.blocks:
        instrs = []
        for instr in block.instrs:
            if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                inner = instr.rhs.region
                order = data.draw(st.permutations(range(len(inner.blocks) - 1)))
                instr = dataclasses.replace(instr, rhs=OpaqueExpr(permute_blocks(inner, order)))
            instrs.append(instr)
        blocks.append(dataclasses.replace(block, instrs=tuple(instrs)))
    region = ir.Region(tuple(blocks))
    order = data.draw(st.permutations(range(len(region.blocks) - 1)))
    q = ir.Program((dataclasses.replace(fn, region=permute_blocks(region, order)),))
    assert [d for d in validate_ssa(q) if d.severity == "error"] == []
    assert typecheck(q) == typecheck(p)


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


def test_fresh_namer_counts_up_from_the_largest_taken_suffix():
    assert fresh_namer({"x__7", "y"})("x__7") == "x__8"
    fresh = fresh_namer()
    assert [fresh("a"), fresh("b__5"), fresh("a")] == ["a__1", "b__2", "a__3"]


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


def test_typecheck_printer_and_signatures_read_nested_regions_under_seal():
    # They read the private body, so the seal bars only `OpaqueExpr.region`.
    def opaque_defines(p):
        outer = p.function("main").region.blocks[0].instrs[1]
        inner = next(i for b in outer.rhs.region.blocks for i in b.instrs
                     if isinstance(i, Define) and isinstance(i.rhs, OpaqueExpr))
        return outer, inner

    want = parse_program(NESTED_OPAQUE)
    want_sigs = tuple(map(instr_signature, opaque_defines(want)))
    p = parse_program(NESTED_OPAQUE)
    defines = opaque_defines(p)
    with sealed_opaque_regions():
        assert typecheck(p).var_types == typecheck(want).var_types
        assert print_program(p) == print_program(want)
        assert tuple(map(instr_signature, defines)) == want_sigs
        for d in defines:
            with pytest.raises(OpacityBreach):
                d.rhs.region


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


def test_identity_counts_annotations_and_ignores_tags_and_an_implicit_label():
    def identity(body):
        text = f"function main() {{\n  a = io(inp)\n  x = opaque {{\n{body}\n  }}\n}}\n"
        return parse_program(text).function("main").region.blocks[0].instrs[1].rhs.summary.identity

    assert identity("y: u8 = io(inp); yield(y)") != identity("y = io(inp); yield(y)")
    assert identity("s = snapshot(a) [obs 1:2(a)]; yield(s)") == identity(
        "s = snapshot(a) [obs 3:4(b)]; yield(s)"
    )
    assert identity("entry:\n  yield(a)") == identity("yield(a)")


def test_block_signature_numbers_only_what_the_block_binds():
    p = parse_program(
        """
function main() {
  a = io(inp)
  b = io(inp)
  br a, t1, t2
t1:
  x = a + 1
  w = opaque { s = snapshot(x); yield(s) }
  br join(w)
t2:
  y = a + 1
  v = opaque { r = snapshot(y); yield(r) }
  br join(v)
t3:
  z = b + 1
  u = opaque { q = snapshot(z); yield(q) }
  br join(u)
join(j):
  return()
}
"""
    )
    sig = {blk.label: block_signature(blk) for blk in p.function("main").region.blocks}
    assert sig["t1"] == sig["t2"] != sig["t3"]


def test_block_signature_keeps_branch_targets_a_region_label_shadows():
    p = parse_program(
        """
function main() {
  c = io(sel)
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
  return()
b:
  return()
}
"""
    )
    region = p.function("main").region
    assert block_signature(region.block("t")) != block_signature(region.block("e"))


@functools.cache
def workload_outputs():
    """Every seed-11 workload program and twin and every sweep program: as
    prepared, after each preset and after the unsafe fold."""
    gen = load_benchmark_generator()
    texts = [text for make in gen.WORKLOADS.values() for case in make(11)
             for text in (case.text, case.twin)]
    texts += [sweep_program(shape, pattern) for shape, pattern in SWEEP]
    outputs = []
    for text in texts:
        program, _ = prepare(text)
        outputs += [program, unsafe_const_fold_opaque(program).program]
        for preset in PRESETS:
            try:
                outputs.append(optimize(program, preset=preset).program)
            except IRError as exc:  # the exit-capture defect, a strict xfail of its own
                assert preset == "Pz" and "use of undefined variable" in str(exc)
    return outputs


def test_printed_outputs_parse_back_equal():
    for q in workload_outputs():
        assert parse_program(print_program(q)) == q


def test_freshen_keeps_the_identity_of_every_workload_region():
    counter = itertools.count()
    for q in workload_outputs():
        for f in q.functions:
            for block in ir.walk_blocks(f.region):
                for instr in block.instrs:
                    if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                        copy = freshen(instr, {}, lambda base: f"{base}_{next(counter)}")
                        assert copy.rhs.summary.identity == instr.rhs.summary.identity


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


EVERY_INSTR_KIND = """
function helper(x: u32) -> (u32) {
  return(x)
}
function main() {
  a = io(inp)
  b = a
  c = ~a
  d = a + 1
  mem[a] <- d
  e = mem[a]
  r <- d
  f = r
  g = helper(a)
  h = tagged_unit_unordered_set_descriptor
  x = opaque { w = snapshot(a); use(w); yield(w); }
  io(out, b, c, e, f, g, x)
  k = d < 3
  br k, yes, no
yes:
  br no
no:
  return()
}
"""


def test_empty_renaming_returns_the_instruction_itself():
    def walk(region):
        for block in region.blocks:
            for instr in block.instrs:
                yield instr
                if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                    yield from walk(instr.rhs.region)

    p = parse_program(EVERY_INSTR_KIND)
    assert validate_ssa(p) == []
    instrs = [i for f in p.functions for i in walk(f.region)]
    assert {type(i) for i in instrs} == set(typing.get_args(ir.Instr))
    rhs_kinds = {type(i.rhs) for i in instrs if isinstance(i, Define)}
    assert rhs_kinds == set(typing.get_args(ir.Expr))
    for instr in instrs:
        assert rename_instr(instr, {}) is instr


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


def reference_dominators_from(succ, entry):
    """Reference for `ir._dominators_from`: round-robin over the labels in
    `succ`'s order, from all-labels sets, until nothing changes."""
    labels = list(succ)
    preds = {l: [] for l in labels}
    for l, ts in succ.items():
        for t in ts:
            if t in preds:
                preds[t].append(l)
    dom = {l: set(labels) for l in labels}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for l in labels:
            if l == entry:
                continue
            new = set(labels) if preds[l] else set()
            for p in preds[l]:
                new &= dom[p]
            new.add(l)
            if new != dom[l]:
                dom[l] = new
                changed = True
    return dom


def cfg_region(cfg) -> ir.Region:
    """A region of one block per entry of `cfg`: `()` returns, `(t,)`
    jumps to block t, `(t, u)` branches to t or u."""
    def terminator(targets):
        if not targets:
            return Return(())
        calls = [ir.BlockCall(f"b{t}") for t in targets]
        return Branch(Var("c") if len(calls) == 2 else None, *calls)

    return ir.Region(tuple(ir.Block(f"b{i}", (), (terminator(ts),)) for i, ts in enumerate(cfg)))


CFGS = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), max_size=2).map(tuple), min_size=n, max_size=n
    )
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(CFGS)
# b1/b2 is a loop entered at both blocks, b3 loops on itself, b4 and b5
# return, b5 to b8 are unreachable, and b8 never reaches an exit.
@example([(1, 2), (2,), (1, 3), (3, 4), (), (), (2,), (6, 5), (8,)])
@example([()])
def test_dominators_equal_the_round_robin_reference_in_block_order(cfg):
    region = cfg_region(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ir, "_dominators_from", reference_dominators_from)
        want = compute_dominators(region), compute_postdominators(region)
    got = compute_dominators(region), compute_postdominators(region)
    labels = [b.label for b in region.blocks]
    for have, reference in zip(got, want):
        assert have == reference
        assert list(have) == list(reference) == labels


# -- the package's own imports


def unused_imports(text: str) -> list[tuple[int, str]]:
    """Each module-level imported name that the module never references,
    with its line, unless its line or its statement's first line says
    `# noqa: F401` (a re-export, or a name another module patches)."""
    lines = text.splitlines()
    tree = ast.parse(text)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            waived = any("# noqa: F401" in lines[n - 1] for n in (stmt.lineno, alias.lineno))
            if name not in referenced and not waived:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_are_found():
    text = """from __future__ import annotations
import os, re
from x import (
    a,
    b,  # noqa: F401
    c,
)
from y import d  # noqa: F401
os.sep
c()
"""
    assert unused_imports(text) == [(2, "re"), (4, "a")]


@pytest.mark.parametrize("module", sorted(p.name for p in Path(ir.__file__).parent.glob("*.py")))
def test_package_modules_import_no_unused_name(module):
    assert unused_imports(Path(ir.__file__).with_name(module).read_text()) == []
