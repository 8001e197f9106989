"""The programs the tests share, each prepared once and compiled once per
preset and once under the unsafe fold.

The supply comes in groups. Each seed of `SEEDS` is a group: every
program `perfbench/gen.py` makes at that seed, each followed by its
observation-stripped twin, in the generator's order. Each `SWEEP` program
is a group of its own. Only the group last asked for is kept, so a user
takes the groups in `GROUPS` order, as `tests/test_oracles.py` does; all
of them would hold about 66 MB. Interpreter runs are not kept. A compile
error fails a test unless `known_failure` accepts it. Pytest does not
collect this module, and it imports neither pytest nor hypothesis, so
`tests/pass_outputs.py` reads the same supply.
"""

import functools
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from opaqueir.interp import InputSpec, parse_input
from opaqueir.ir import Branch, IRError, Program, TypeInfo, Var, instr_operand_atoms
from opaqueir.passes import PRESETS, PipelineResult, optimize, unsafe_const_fold_opaque
from opaqueir.patterns import prepare

SEEDS = (0, 1, 2, 3, 11, 12, 13)
UNSAFE = "unsafe"  # the column of `unsafe_const_fold_opaque` beside the presets
COLUMNS = (*sorted(PRESETS), UNSAFE)

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


SWEEP = [
    (shape, pattern)
    for shape in ("straight", "loop3", "loop20", "exit_capture")
    for pattern in sorted(PATTERN_SITES)
]
SWEEP_INPUT = "desc inp in ordered\n5\n"  # what every sweep program reads
GROUPS = (*SEEDS, *SWEEP)


@functools.cache
def load_benchmark_generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def exit_capture(program: Program) -> bool:
    """Whether a loop header (a block whose conditional branch enters a body
    that branches back to it) exits to a block reading one of the header's
    parameters directly, not through a block argument."""
    for f in program.functions:
        region = f.region
        for header in region.blocks:
            term = header.instrs[-1]
            if type(term) is not Branch or term.els is None or not header.params:
                continue
            back = region.block(term.then.label).instrs[-1]
            if type(back) is not Branch or back.then.label != header.label:
                continue
            params = {p.name for p in header.params}
            if any(
                type(a) is Var and a.name in params
                for instr in region.block(term.els.label).instrs
                for a in instr_operand_atoms(instr)
            ):
                return True
    return False


def known_failure(program: Program, column: str, exc: IRError) -> bool:
    """Whether `exc` is the known exit-capture defect (ROADMAP item 3):
    `loop_unroll` renames a header's parameters, so under Pz an exit block
    that reads one directly reads an undefined name. When the fix lands,
    this is the one line to change, to `return False`."""
    return column == "Pz" and "use of undefined variable" in str(exc) and exit_capture(program)


@dataclass(frozen=True, eq=False)
class Supplied:
    """One supply program: its name, workload ("sweep" for a sweep program),
    source and inputs, the preset the benchmark audits it at (None if it
    audits another program of the case), the prepared program with its
    types, and the output or `IRError` of each column of `COLUMNS`."""

    name: str
    workload: str
    text: str
    specs: tuple[InputSpec, ...]
    audit_preset: Optional[str]
    program: Program
    types: TypeInfo
    results: dict[str, Union[PipelineResult, IRError]]

    def compiled(self, columns=COLUMNS):
        """(column, output) of each of `columns` that compiles the program; a
        known failure is left out, any other compile error raised."""
        for column in columns:
            res = self.results[column]
            if isinstance(res, IRError):
                if not known_failure(self.program, column, res):
                    raise res
                continue
            yield column, res


def supplied(name, workload, text, inputs, audit_preset) -> Supplied:
    program, types = prepare(text)
    results = {}
    for column in COLUMNS:
        try:
            results[column] = (
                unsafe_const_fold_opaque(program) if column == UNSAFE else optimize(program, column)
            )
        except IRError as exc:
            results[column] = exc
    specs = tuple(map(parse_input, inputs))
    return Supplied(name, workload, text, specs, audit_preset, program, types, results)


@functools.lru_cache(maxsize=1)
def group(key) -> tuple[Supplied, ...]:
    """The programs of a seed or of a `SWEEP` entry."""
    if isinstance(key, tuple):
        shape, pattern = key
        text = sweep_program(shape, pattern)
        return (supplied(f"sweep/{shape}/{pattern}", "sweep", text, (SWEEP_INPUT,), None),)
    out = []
    for workload, make in load_benchmark_generator().WORKLOADS.items():
        for case in make(key):
            name = f"{workload}/{key}/{case.name}"
            audits = (None, case.audit_preset) if case.audit_twin else (case.audit_preset, None)
            for suffix, text, audit in zip(("", "/twin"), (case.text, case.twin), audits):
                out.append(supplied(name + suffix, workload, text, case.inputs, audit))
    return tuple(out)
