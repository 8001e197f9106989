"""Observation pattern prelude: loading, sugar names, program front end."""

from __future__ import annotations

import functools
from importlib import resources

from .ir import (
    CallExpr,
    Define,
    Macro,
    Program,
    TypeInfo,
    dc_replace,
    expand_macros,
    map_region_instrs,
    parse_program,
    typecheck,
)

# Short names for the most common patterns.
SUGAR_NAMES = {
    "__opacify": "observe_and_opacify",
    "__observe_mem": "observe_pair",
    "__io": "observe_tailio",
}


@functools.cache
def prelude_source() -> str:
    return resources.files("opaqueir").joinpath("prelude.mir").read_text()


@functools.cache
def prelude_macros() -> tuple[Macro, ...]:
    return parse_program(prelude_source()).macros


def inject_prelude(program: Program) -> Program:
    """Add the pattern macros (program-local macros of the same name win)
    and resolve the double-underscore sugar names."""
    own = {m.name for m in program.macros}

    def fix(instr):
        if (
            isinstance(instr, Define)
            and isinstance(instr.rhs, CallExpr)
            and instr.rhs.callee in SUGAR_NAMES
        ):
            return dc_replace(
                instr, rhs=CallExpr(SUGAR_NAMES[instr.rhs.callee], instr.rhs.args)
            )
        return instr

    functions = tuple(
        dc_replace(f, region=map_region_instrs(f.region, fix)) for f in program.functions
    )
    extra = tuple(m for m in prelude_macros() if m.name not in own)
    return Program(functions, program.macros + extra)


def prepare(text: str) -> tuple[Program, TypeInfo]:
    """Front end: parse, inject the prelude, expand macros, validate.

    Returns the macro-free program and its inferred types; raises IRError
    with the first few diagnostics if the program is ill-formed.
    """
    program = expand_macros(inject_prelude(parse_program(text)))
    info = typecheck(program)
    return program, info
