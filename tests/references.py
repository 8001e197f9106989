"""The algorithms the code under test replaced, kept as references.

Each one is the code a replacement once was, or a whole-trace scan of what
a view now builds incrementally. `tests/test_oracles.py` compares them
with their replacements over the program supply of `tests/programs.py`;
other tests use them on programs of their own. Pytest does not collect
this module.
"""

import functools
import re
import typing
from dataclasses import replace as dc_replace
from types import SimpleNamespace

from opaqueir import deps, interp, ir, passes, validate
from opaqueir.deps import ValueSetReport, _BOTTOM, _REACHED, _sample_values, analyze, witness_var
from opaqueir.interp import DEFAULT_STEP_BUDGET, Event, IoRecord, ObsRecord, run


REFERENCE_PUNCT = [
    "<-", "->", "...", "<<", ">>", "==", "!=", "<=", ">=",
    "(", ")", "{", "}", "[", "]", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "@",
]


REFERENCE_INT = re.compile(r"[0-9]+")


REFERENCE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


REFERENCE_SUFFIXES = {"u8": ir.Type.U8, "u32": ir.Type.U32, "i32": ir.Type.I32}


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
                ty = ir.Type.U32
                if suffix_m and suffix_m.group() in REFERENCE_SUFFIXES:
                    ty = REFERENCE_SUFFIXES[suffix_m.group()]
                    pos = suffix_m.end()
                elif suffix_m:
                    raise ir.ParseError(f"bad integer suffix {suffix_m.group()!r}", (lineno, col))
                value = int(raw)
                ir._check_literal_range(value, ty, (lineno, col))
                tokens.append(("int", raw, lineno, col, ir.Const(value, ty)))
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
                raise ir.ParseError(f"unexpected character {ch!r}", (lineno, col))
        if produced:
            tokens.append(("newline", "\\n", lineno, len(line) + 1, None))
    tokens.append(("eof", "", len(text.splitlines()) + 1, 1, None))
    return tokens


def lexed(tokenize, text):
    """The token tuples, or the ParseError's message and location."""
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col, t.value)
                for t in tokenize(text)]
    except ir.ParseError as exc:
        return ("ParseError", exc.message, exc.loc)


def reference_atom_vars(atom: ir.Atom) -> typing.Iterator[str]:
    if isinstance(atom, ir.Var):
        yield atom.name


def reference_expr_atoms(expr: ir.Expr) -> typing.Iterator[ir.Atom]:
    if isinstance(expr, ir.AtomExpr):
        yield expr.atom
    elif isinstance(expr, ir.UnaryExpr):
        yield expr.a
    elif isinstance(expr, ir.BinaryExpr):
        yield expr.a
        yield expr.b
    elif isinstance(expr, ir.LoadMem):
        yield expr.addr
    elif isinstance(expr, ir.IoRead):
        if expr.desc.is_var:
            yield ir.Var(expr.desc.name)
    elif isinstance(expr, ir.SnapshotExpr):
        yield from expr.args
    elif isinstance(expr, ir.CallExpr):
        yield from expr.args


def reference_operand_atoms(instr: ir.Instr) -> typing.Iterator[ir.Atom]:
    """Atoms read by an instruction (not recursing into opaque regions)."""
    if isinstance(instr, ir.Define):
        if isinstance(instr.rhs, ir.OpaqueExpr):
            return
        yield from reference_expr_atoms(instr.rhs)
    elif isinstance(instr, ir.RefAssign):
        yield instr.value
    elif isinstance(instr, ir.MemStore):
        yield instr.addr
        yield instr.value
    elif isinstance(instr, ir.IoWrite):
        if instr.desc.is_var:
            yield ir.Var(instr.desc.name)
        yield from instr.values
    elif isinstance(instr, ir.Use):
        yield from instr.args
    elif isinstance(instr, ir.Branch):
        if instr.cond is not None:
            yield instr.cond
        yield from instr.then.args
        if instr.els is not None:
            yield from instr.els.args
    elif isinstance(instr, (ir.Return, ir.Yield)):
        yield from instr.values


def reference_dominates(site: tuple[str, int], dom: dict[str, set[str]], label: str, pos: int):
    """Whether a definition at `site` reaches position `pos` of block `label`.
    A site is (block label, position): position -1 for a block parameter,
    label "" for a function parameter."""
    dblock, dpos = site
    if dblock == label:
        return dpos < pos
    return dblock == "" or dblock in dom.get(label, ())


class ReferenceValidator:
    """The validator `ir._Validator` replaced: it reads operands through
    two nested generators, tests dominance in a call per use and picks
    each case by an `isinstance` chain."""

    def __init__(self, program: ir.Program):
        self.program = program
        # An insertion-ordered set: a check that runs again reports nothing new.
        self.diags: dict[ir.Diagnostic, None] = {}
        self.info = ir.TypeInfo({}, {}, {})
        self.fn_map = {f.name: f for f in program.functions}
        self.macro_names = {m.name for m in program.macros}
        self._inferring: set[str] = set()

    def error(self, loc, message):
        self.diags[ir.Diagnostic(loc, message)] = None

    def lint(self, loc, message):
        self.diags[ir.Diagnostic(loc, message, "lint")] = None

    # -- function return types (call graph order, recursion detected)

    def fn_ret_types(self, name: str, loc) -> typing.Optional[tuple[ir.Type, ...]]:
        fn = self.fn_map[name]
        if fn.ret_types is not None:
            return fn.ret_types
        if name in self.info.ret_types:
            return self.info.ret_types[name]
        if name in self._inferring:
            self.error(loc, f"recursive function {name!r} needs a return type annotation")
            return None
        self.check_function(fn)
        return self.info.ret_types[name]

    def validate(self) -> tuple[list[ir.Diagnostic], ir.TypeInfo]:
        names = [f.name for f in self.program.functions]
        for name in dict.fromkeys(names):
            if names.count(name) > 1:
                self.error((0, 0), f"duplicate function {name!r}")
        for m in self.program.macros:
            self.lint(m.loc, f"unexpanded macro {m.name!r} (run expand_macros first)")
        if "main" not in self.fn_map:
            self.error((0, 0), "program has no function 'main'")
        elif self.fn_map["main"].params:
            self.error(self.fn_map["main"].loc, "'main' takes no parameters")
        for f in self.program.functions:
            self.check_function(f)
        return list(self.diags), self.info

    # -- per-function checks

    def check_function(self, fn: ir.Function):
        if fn.name in self.info.ret_types:
            return
        # A call to `fn` met while it is walked is recursion, whichever
        # function the walk started from.
        self._inferring.add(fn.name)
        region = fn.region

        labels = [b.label for b in region.blocks]
        for label in dict.fromkeys(labels):
            if labels.count(label) > 1:
                self.error(fn.loc, f"duplicate block label {label!r} in {fn.name}")

        # Unique names over the whole region tree, and the def sites and
        # dominators of the function body and of each opaque region in it.
        defined: dict[str, tuple[int, int]] = {}
        for p in fn.params:
            self._register(defined, p.name, fn.loc)
        scopes: dict[int, tuple[dict[str, tuple[str, int]], dict[str, set[str]]]] = {}

        def collect_defs(r: ir.Region, sites: dict[str, tuple[str, int]]):
            for b in r.blocks:
                for p in b.params:
                    self._register(defined, p.name, (0, 0))
                    sites[p.name] = (b.label, -1)
                for pos, instr in enumerate(b.instrs):
                    if isinstance(instr, ir.Define):
                        for res in instr.results:
                            if isinstance(res, str):
                                self._register(defined, res, instr.loc)
                                sites.setdefault(res, (b.label, pos))
                            else:
                                self.error(instr.loc, "unexpanded '...' group")
                        if isinstance(instr.rhs, ir.OpaqueExpr):
                            collect_defs(instr.rhs._body, {})
            scopes[id(r)] = sites, ir.compute_dominators(r)

        collect_defs(region, {p.name: ("", -1) for p in fn.params})
        ref_names = ir.region_ref_names(region)
        for name in sorted(defined.keys() & ref_names):
            self.error(fn.loc, f"{name!r} is used both as a variable and a reference in {fn.name}")

        var_ty: dict[str, ir.Type] = {p.name: p.type for p in fn.params if p.type is not None}
        ref_ty: dict[str, ir.Type] = {}
        returns: list[tuple[tuple[ir.Type, ...], tuple[int, int]]] = []
        # (var_ty or ref_ty, name) for each read of a name not typed yet
        missed: list[tuple[dict[str, ir.Type], str]] = []

        def read(types: dict[str, ir.Type], name: str) -> typing.Optional[ir.Type]:
            ty = types.get(name)
            if ty is None:
                missed.append((types, name))
            return ty

        def check_use(name: str, scope, opaque: bool, label: str, pos: int, loc):
            sites, dom = scope
            site = sites.get(name)
            if name in ref_names and (site is None or not opaque):
                self.error(loc, f"reference {name!r} used as an operand")
            elif site is not None:
                if not reference_dominates(site, dom, label, pos):
                    self.error(loc, f"use of {name!r} is not dominated by its definition")
            elif not opaque or name not in defined:
                # An opaque region may use any name its function defines:
                # dominance is checked only where the name is region-local.
                self.error(loc, f"use of undefined variable {name!r}")

        def note_var(name: str, ty: typing.Optional[ir.Type], loc) -> None:
            if ty is not None and (old := var_ty.setdefault(name, ty)) is not ty:
                self.error(loc, f"{name!r} has conflicting types {old.value} and {ty.value}")

        def atom_type(atom: ir.Atom, loc) -> typing.Optional[ir.Type]:
            if isinstance(atom, ir.Const):
                return atom.type
            if isinstance(atom, ir.VarGroup):
                self.error(loc, "unexpanded '...' group")
                return None
            return read(var_ty, atom.name)

        def expr_types(expr: ir.Expr, instr: ir.Define) -> typing.Optional[list]:
            loc = instr.loc
            if isinstance(expr, ir.AtomExpr):
                return [atom_type(expr.atom, loc)]
            if isinstance(expr, ir.UnaryExpr):
                ty = atom_type(expr.a, loc)
                if ty is None:
                    return [None]
                if expr.op == "!":
                    if ty is not ir.Type.BOOL:
                        self.error(loc, "'!' applies to bool values")
                    return [ir.Type.BOOL]
                if ty not in ir.INT_TYPES:
                    self.error(loc, f"'{expr.op}' applies to integer values")
                    return [None]
                return [ty]
            if isinstance(expr, ir.BinaryExpr):
                ta = atom_type(expr.a, loc)
                tb = atom_type(expr.b, loc)
                op = expr.op
                if ta is None or tb is None:
                    if op in ir._CMP_OPS or op in ir._ORD_OPS:
                        return [ir.Type.BOOL]
                    return [ta or tb] if op in ir._SHIFT_OPS else [ta if ta is not None else tb]
                if op in ir._SHIFT_OPS:
                    if ta not in ir.INT_TYPES or tb not in ir.INT_TYPES:
                        self.error(loc, "shift operands must be integers")
                    return [ta]
                if ta is not tb:
                    self.error(loc, f"operand types {ta.value} and {tb.value} do not agree")
                    return [None]
                if op in ir._ARITH_OPS:
                    if ta not in ir.INT_TYPES:
                        self.error(loc, f"'{op}' applies to integer values")
                    return [ta]
                if op in ir._BIT_OPS:
                    if ta not in ir.INT_TYPES and ta is not ir.Type.BOOL:
                        self.error(loc, f"'{op}' applies to integer or bool values")
                    return [ta]
                if op in ir._CMP_OPS:
                    return [ir.Type.BOOL]
                if op in ir._ORD_OPS:
                    if ta not in ir.INT_TYPES:
                        self.error(loc, "ordered comparison applies to integer values")
                    return [ir.Type.BOOL]
                raise AssertionError(op)
            if isinstance(expr, ir.LoadMem):
                ty = atom_type(expr.addr, loc)
                if ty is not None and ty is not ir.Type.U32:
                    self.error(loc, "memory addresses are u32 values")
                return [ir.Type.U32]
            if isinstance(expr, ir.LoadRef):
                return [read(ref_ty, expr.ref)]
            if isinstance(expr, ir.IoRead):
                ann = instr.ann[0] if instr.ann else None
                return [ann or ir.Type.U32]
            if isinstance(expr, ir.SnapshotExpr):
                return [atom_type(a, loc) for a in expr.args]
            if isinstance(expr, ir.CallExpr):
                callee = self.fn_map.get(expr.callee)
                if callee is None:
                    if expr.callee not in self.macro_names:
                        self.error(loc, f"call to unknown function {expr.callee!r}")
                    return None
                if len(expr.args) != len(callee.params):
                    self.error(
                        loc,
                        f"{expr.callee} takes {len(callee.params)} arguments, "
                        f"got {len(expr.args)}",
                    )
                for a, p in zip(expr.args, callee.params):
                    ta = atom_type(a, loc)
                    if ta is not None and p.type is not None and ta is not p.type:
                        self.error(
                            loc,
                            f"argument {p.name!r} of {expr.callee} expects "
                            f"{p.type.value}, got {ta.value}",
                        )
                rts = self.fn_ret_types(expr.callee, loc)
                return list(rts) if rts is not None else None
            if isinstance(expr, ir.DescriptorExpr):
                return [ir.Type.DESC]
            if isinstance(expr, ir.OpaqueExpr):
                ytypes: typing.Optional[list[typing.Optional[ir.Type]]] = None
                for b in expr._body.blocks:
                    last = b.instrs[-1]
                    if isinstance(last, ir.Yield):
                        tys = [atom_type(v, loc) for v in last.values]
                        if ytypes is None:
                            ytypes = tys
                        elif len(tys) != len(ytypes):
                            self.error(loc, "yields with different arities in one region")
                return ytypes if ytypes is not None else []
            raise TypeError(expr)

        def visit_region(r: ir.Region, opaque: bool):
            if r.blocks[0].params:
                self.error(
                    getattr(r.blocks[0].instrs[0], "loc", (0, 0))
                    if r.blocks[0].instrs
                    else (0, 0),
                    "entry block must not take parameters",
                )
            scope = scopes[id(r)]
            block_map = {b.label: b for b in r.blocks}
            for b in r.blocks:
                for pos, instr in enumerate(b.instrs):
                    loc = getattr(instr, "loc", (0, 0))
                    for atom in reference_operand_atoms(instr):
                        for name in reference_atom_vars(atom):
                            check_use(name, scope, opaque, b.label, pos, loc)
                    if isinstance(instr, ir.Define):
                        if isinstance(instr.rhs, ir.SnapshotExpr) and not opaque:
                            self.lint(loc, "snapshot outside an opaque region")
                        if (
                            isinstance(instr.rhs, ir.CallExpr)
                            and opaque
                            and instr.rhs.callee in self.fn_map
                        ):
                            self.error(loc, "function call inside an opaque region")
                        if isinstance(instr.rhs, ir.OpaqueExpr):
                            visit_region(instr.rhs._body, True)
                        tys = expr_types(instr.rhs, instr)
                        if tys is not None:
                            n = len(instr.results)
                            if isinstance(instr.rhs, (ir.SnapshotExpr, ir.CallExpr, ir.OpaqueExpr)):
                                if n not in (0, len(tys)):
                                    self.error(
                                        loc,
                                        f"expected 0 or {len(tys)} results, got {n}",
                                    )
                            elif n != len(tys):
                                self.error(loc, f"expected {len(tys)} results, got {n}")
                            for res, ty, ann in zip(
                                instr.results, tys, instr.ann or (None,) * n
                            ):
                                if isinstance(res, str):
                                    if ann is not None and ty is not None and ann is not ty:
                                        self.error(
                                            loc,
                                            f"{res!r} annotated {ann.value} but has type {ty.value}",
                                        )
                                    note_var(res, ann or ty, loc)
                    elif isinstance(instr, ir.Use):
                        if not opaque:
                            self.lint(loc, "use() outside an opaque region")
                    elif isinstance(instr, ir.RefAssign):
                        ty = atom_type(instr.value, loc)
                        if ty is not None and (old := ref_ty.setdefault(instr.ref, ty)) is not ty:
                            self.error(
                                loc,
                                f"reference {instr.ref!r} assigned both "
                                f"{old.value} and {ty.value}",
                            )
                    elif isinstance(instr, ir.MemStore):
                        at = atom_type(instr.addr, loc)
                        vt = atom_type(instr.value, loc)
                        if at is not None and at is not ir.Type.U32:
                            self.error(loc, "memory addresses are u32 values")
                        if vt is not None and vt is not ir.Type.U32:
                            self.error(loc, "memory cells hold u32 values")
                    elif isinstance(instr, ir.Branch):
                        if instr.cond is not None:
                            ct = atom_type(instr.cond, loc)
                            if ct is not None and ct is not ir.Type.BOOL and ct not in ir.INT_TYPES:
                                self.error(loc, "branch condition must be bool or integer")
                        for bc in (instr.then, instr.els):
                            if bc is None:
                                continue
                            target = block_map.get(bc.label)
                            if target is None:
                                self.error(loc, f"branch to unknown block {bc.label!r}")
                                continue
                            if len(bc.args) != len(target.params):
                                self.error(
                                    loc,
                                    f"block {bc.label!r} takes {len(target.params)} "
                                    f"arguments, got {len(bc.args)}",
                                )
                            for a, p in zip(bc.args, target.params):
                                note_var(p.name, p.type or atom_type(a, loc), loc)
                    elif isinstance(instr, ir.Return):
                        if opaque:
                            self.error(loc, "return inside an opaque region")
                        else:
                            tys = tuple(atom_type(v, loc) for v in instr.values)
                            if all(t is not None for t in tys):
                                returns.append((tys, loc))
                    elif isinstance(instr, ir.Yield):
                        if not opaque:
                            self.error(loc, "yield outside an opaque region")

        # Block parameter types flow around loops and blocks may be listed
        # after their uses, so a walk may read a name before typing it; then
        # it walks again. A retry follows a walk that typed a name it had read
        # untyped, and a name once typed keeps its type, so there are at most
        # as many retries as names.
        while True:
            missed.clear()
            visit_region(region, False)
            if all(types.get(name) is None for types, name in missed):
                break
        # The recursive closures hold themselves and `self`, a reference
        # cycle that would pin the program until the cyclic collector runs.
        collect_defs = visit_region = None

        # Settle return types.
        rts: typing.Optional[tuple[ir.Type, ...]] = fn.ret_types
        for tys, loc in returns:
            if rts is None:
                rts = tys
            elif tuple(rts) != tys:
                self.error(
                    loc,
                    f"return types {[t.value for t in tys]} disagree with "
                    f"{[t.value for t in rts]}",
                )
        self.info.ret_types[fn.name] = rts or ()
        self._inferring.discard(fn.name)
        if fn.name == "main" and rts:
            self.error(fn.loc, "'main' must not return values")
        self.info.var_types.update({(fn.name, name): ty for name, ty in var_ty.items()})
        self.info.ref_types.update({(fn.name, name): ty for name, ty in ref_ty.items()})

    def _register(self, defined: dict, name: str, loc):
        if name in defined:
            self.error(loc, f"{name!r} defined more than once (single assignment)")
        defined[name] = loc


def validated(validator, program):
    """The diagnostics and inferred types `validator` gives `program`, each
    type table with its order, or the exception it raises."""
    try:
        diags, info = validator(program).validate()
    except Exception as exc:  # an ill-formed variant may break both alike
        return type(exc).__name__, str(exc)
    tables = (info.var_types, info.ref_types, info.ret_types)
    return diags, [list(table.items()) for table in tables]


def assert_validated_as_the_reference(program):
    assert validated(ir._Validator, program) == validated(ReferenceValidator, program)


class RefCode:
    def __init__(self, region, fname=None):
        self.blocks, self.index = [], {}
        for bi, block in enumerate(region.blocks):
            steps = []
            for pos, instr in enumerate(block.instrs):
                kind = type(instr.rhs) if type(instr) is ir.Define else type(instr)
                body = RefCode(instr.rhs.region) if kind is ir.OpaqueExpr else None
                steps.append((instr, kind, (fname, bi, pos) if fname is not None else None, body))
            self.blocks.append((block.label, tuple(p.name for p in block.params), tuple(steps)))
            self.index[block.label] = bi


class RefFrame:
    def __init__(self, fname, activation):
        self.fname, self.activation, self.env, self.refs = fname, activation, {}, {}


class RefAgg:
    def __init__(self):
        self.du, self.operands, self.fx = {}, [], None

    def reads(self):
        """The event's `reads`: `du` and `operands` zipped, first read first."""
        return tuple((n, v, src) for (n, src), (_, v) in zip(self.du.items(), self.operands))

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

    def __init__(self, program, inputs, patch=None, step_budget=DEFAULT_STEP_BUDGET,
                 opaque_budget=interp.DEFAULT_OPAQUE_BUDGET):
        self.functions = {}
        for f in program.functions:
            self.functions.setdefault(f.name, (tuple(p.name for p in f.params), RefCode(f.region, f.name)))
        self.program, self.type_info = program, ir.typecheck(program).var_types
        self.channels = inputs.channels if inputs is not None else {}
        self.step_budget, self.opaque_budget = step_budget, opaque_budget
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
        if type(atom) is ir.Const:
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
            value = self.atom_value(frame, scopes, ir.Var(desc.name), agg)
            if not isinstance(value, ir.DescValue):
                raise interp._Trap(f"{desc.name} does not hold a descriptor")
            return value
        return ir.DescValue(desc.name)

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
        if type(atom) is ir.Const:
            return atom.type
        ty = self.type_info.get((fname, atom.name))
        return ty if ty is not None else interp._type_of_value(value)

    def exec_instr(self, frame, scopes, instr, kind, agg, seq):
        read = lambda atom: self.atom_value(frame, scopes, atom, agg)  # noqa: E731
        if kind is ir.BinaryExpr:
            a, b = read(instr.rhs.a), read(instr.rhs.b)
            ty = self.operand_type(frame.fname, instr.rhs.a, a)
            return (interp.eval_binary(instr.rhs.op, a, b, ty),)
        if kind is ir.AtomExpr:
            return (read(instr.rhs.atom),)
        if kind is ir.UnaryExpr:
            a = read(instr.rhs.a)
            return (interp.eval_unary(instr.rhs.op, a, self.operand_type(frame.fname, instr.rhs.a, a)),)
        if kind is ir.LoadMem:
            value, writer = self.memory.get(read(instr.rhs.addr), (0, 0))
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is ir.SnapshotExpr:
            values = tuple(read(a) for a in instr.rhs.args)
            fx = agg.effects()
            fx.obs.append(ObsRecord(instr.rhs.tags, values, next_pos(fx)))
            return values
        if kind is ir.IoRead:
            dv = self.desc_value(frame, scopes, instr.rhs.desc, agg)
            _, ordered = self.channel_config(dv.channel)
            value, tag = self.io_read(dv.channel)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "r", tag, (value,), next_pos(fx)))
            return (value,)
        if kind is ir.IoWrite:
            dv = self.desc_value(frame, scopes, instr.desc, agg)
            values = tuple(read(v) for v in instr.values)
            _, ordered = self.channel_config(dv.channel)
            tag = self.io_write(dv.channel)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "w", tag, values, next_pos(fx)))
            return ()
        if kind is ir.MemStore:
            addr, value = read(instr.addr), read(instr.value)
            self.memory[addr] = (value, seq)
            agg.effects().stores.append((addr, value))
            return ()
        if kind is ir.Use:
            for a in instr.args:
                read(a)
            return ()
        if kind is ir.LoadRef:
            if instr.rhs.ref not in frame.refs:
                raise interp._Trap(f"reference {instr.rhs.ref} read before assignment")
            value, writer = frame.refs[instr.rhs.ref]
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is ir.RefAssign:
            frame.refs[instr.ref] = (read(instr.value), seq)
            return ()
        if kind is ir.DescriptorExpr:
            return (ir.DescValue(instr.rhs.channel),)
        if kind is ir.CallExpr:
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
                if kind is ir.Branch:
                    target, args = self.take_branch(frame, scopes, instr, agg)
                    _, params, steps = code.blocks[code.index[target.label]]
                    env.update(zip(params, args))
                    break
                if kind is ir.Yield:
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
            self.bind(frame, params, args, seq), arg_agg.reads(),
        ))
        while True:
            for instr, kind, iid, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise interp._Trap("step budget exceeded")
                agg = RefAgg()
                seq = len(events)
                if kind is ir.CallExpr:
                    call_args = tuple(self.atom_value(frame, None, a, agg) for a in instr.rhs.args)
                    results = tuple(r for r in instr.results if isinstance(r, str))
                    self.call_function(instr.rhs.callee, call_args, agg, iid, frame, results, depth + 1)
                    continue
                if kind is ir.Branch:
                    target, args = self.take_branch(frame, None, instr, agg)
                    label, params, steps = code.blocks[code.index[target.label]]
                    events.append(Event(
                        seq, "branch", iid, frame.activation, self.bind(frame, params, args, seq),
                        agg.reads(),
                    ))
                    break
                if kind is ir.Return:
                    values = tuple(self.atom_value(frame, None, v, agg) for v in instr.values)
                    events.append(Event(
                        seq, "ret", iid, frame.activation,
                        self.bind(caller, result_names, values, seq) if caller else (),
                        agg.reads(),
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
                    agg.reads(), tuple(fx.rf), tuple(fx.stores), tuple(fx.ios), tuple(fx.obs),
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


def reference_analysis(program, result):
    """The per-event loop `analyze` once ran, kept as its reference: every
    field read through the event, every open branch tested at every event,
    and the innermost one recomputed at each."""
    pdoms = deps._postdominators(program)
    dep_sources, cd_sources, obs_seqs, io_seqs, opaque_seqs = [], [], [], [], []
    open_branches = {}
    for ev in result.events:
        cd = frozenset()
        if (iid := ev.iid) is not None:
            bi = iid[1]
            by_block = open_branches.setdefault(ev.activation, {})
            if by_block:
                pd = pdoms.get(iid[0], {})
                for b in [b for b in by_block if b != bi and bi in pd.get(b, ())]:
                    del by_block[b]
                if by_block:
                    cd = frozenset((max(seqs[-1] for seqs in by_block.values()),))
            if ev.kind == "branch":
                instr = ir.instr_at(program, iid)
                if isinstance(instr, ir.Branch) and instr.cond is not None:
                    by_block.setdefault(bi, []).append(ev.seq)
        dep_sources.append(frozenset(src for _, _, src in ev.reads) | frozenset(ev.rf) | cd)
        cd_sources.append(cd)
        if ev.obs:
            obs_seqs.append(ev.seq)
        if ev.ios:
            io_seqs.append(ev.seq)
        if ev.is_opaque:
            opaque_seqs.append(ev.seq)
    anchors = tuple(sorted({*obs_seqs, *io_seqs}))
    return dep_sources, cd_sources, (tuple(obs_seqs), tuple(io_seqs), tuple(opaque_seqs), anchors)


def assert_matches_reference(result):
    info = analyze(result)
    dep_sources, cd_sources, seqs = reference_analysis(result.program, result)
    assert info.dep_sources == dep_sources
    assert info.cd_sources == cd_sources
    assert (info.obs_seqs, info.io_seqs, info.opaque_seqs, info.anchor_seqs) == seqs


def reverse_edges(info):
    """Each event's dependents in ascending seq."""
    out = {}
    for seq, sources in enumerate(info.dep_sources):
        for src in sources:
            out.setdefault(src, []).append(seq)
    return out


def reference_skeleton(info, out):
    """The opaque skeleton by a depth-first search forward from each opaque
    event, stopping at the opaque events it meets."""
    events = info.events
    edges = {}
    for start in (ev.seq for ev in events if ev.is_opaque):
        frontier = list(out.get(start, ()))
        seen, found = set(), set()
        while frontier:
            s = frontier.pop()
            if s in seen:
                continue
            seen.add(s)
            if events[s].is_opaque:
                found.add(s)
                continue
            frontier.extend(out.get(s, ()))
        edges[start] = tuple(sorted(found))
    return edges


def reference_reach(out, src):
    """Every event a dep path from `src` reaches, `src` included, by a
    forward search."""
    seen = {src}
    frontier = [src]
    while frontier:
        for t in out.get(frontier.pop(), ()):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def value_at_dependent(info, j, k_iid, sign):
    """Reference for `deps.dependent_outcomes`, one link at a time: scan
    the run's events for the first event that depends on event j and
    executes the later opaque's own instruction `k_iid`, and return the
    operand value that arrived there. Only a run that never executes it
    falls back to the first dependent event whose instruction has the
    same `sign`. Never reaching either is `_BOTTOM`; reaching one through
    control or effects alone is `_REACHED`. Dependence does not propagate
    through any other opaque event, but the scan goes on past it."""
    events = info.events
    if j >= len(events):
        return _BOTTOM
    dependent = {j}
    fallback, k_sig = _BOTTOM, sign(k_iid)
    for ev in events[j + 1 :]:
        if not (info.dep_sources[ev.seq] & dependent):
            continue
        dependent.add(ev.seq)
        if ev.iid is None:
            continue
        if ev.iid == k_iid or (fallback is _BOTTOM and sign(ev.iid) == k_sig):
            value = _REACHED
            for _, read, src in ev.reads:
                if src in dependent:
                    value = read
                    break
            if ev.iid == k_iid:
                return value
            fallback = value
        if ev.is_opaque:
            dependent.discard(ev.seq)
    return fallback


def signatures(program):
    """The `sign` of `deps._value_sets`: each instruction id's signature."""
    return functools.cache(lambda iid: ir.instr_signature(ir.instr_at(program, iid)))


def reference_value_sets(program, spec, info, pairs):
    """Reference for `deps._value_sets`, its links grouped and classified
    the same way, but every alternative value of a group rerun on its
    own, in order, until each of the group's links has two outcomes."""
    events = info.events
    var_types = ir.typecheck(program).var_types
    sign = signatures(program)
    reports, groups = {}, {}
    for j, k in pairs:
        var = witness_var(info, j, k)
        ty = None if var is None else var_types.get((events[j].iid[0], var))
        if var is None or ty is ir.Type.UNIT:
            reports[j, k] = ValueSetReport(2, "rule_derived")
        elif ty is None or events[k].iid is None:
            reports[j, k] = ValueSetReport(0, "unknown")
        else:
            groups.setdefault((j, var), []).append(k)
    for (j, var), ks in groups.items():
        ty = var_types[events[j].iid[0], var]
        observed = dict(events[j].defs)[var]
        outcomes = {k: {value_at_dependent(info, j, events[k].iid, sign)} for k in ks}
        pending = set(ks)
        for value in deps._domain(ty) or _sample_values(program, ty, observed):
            if not pending:
                break
            if value == observed:
                continue
            alt_info = analyze(run(program, spec, patch=(j, var, value)))
            for k in pending:
                outcomes[k].add(value_at_dependent(alt_info, j, events[k].iid, sign))
            pending = {k for k in pending if len(outcomes[k]) < 2}
        status = "enumerated" if deps._domain(ty) else "sampled"
        for k, seen in outcomes.items():
            reports[j, k] = ValueSetReport(len(seen), status, frozenset(seen))
    return reports


def reference_dce(program):
    """The fixpoint `dce` replaced: rescan every live instruction until no
    definition dies."""
    reaches, dead_iids = {}, set()
    for f in program.functions:
        succ = ir.block_successors(f.region)
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
                    if isinstance(instr, ir.Define):
                        lowered = passes._eval_define(instr, values)
                    elif isinstance(instr, ir.Branch):
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
        consts = {n: ir.Const(v[1], v[2]) for n, v in values.items() if v[0] == "const"}
        for bi, block in enumerate(f.region.blocks):
            outs = taken.get(block.label, ())
            for pos, instr in enumerate(block.instrs if block.label in executable else ()):
                arith = (
                    isinstance(instr, ir.Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                    and isinstance(instr.rhs, (ir.UnaryExpr, ir.BinaryExpr))
                )
                if isinstance(instr, ir.Branch) and instr.cond is not None and len(outs) == 1:
                    new = ir.rename_instr(ir.Branch(None, outs[0], None, instr.loc), consts)
                    edits[(f.name, bi, pos)] = [(new, "rewritten")]
                elif arith and (v := values.get(instr.results[0], top))[0] == "const":
                    new = dc_replace(instr, rhs=ir.AtomExpr(ir.Const(v[1], v[2])))
                    edits[(f.name, bi, pos)] = [(new, "rewritten")]
                elif (new := ir.rename_instr(instr, consts)) != instr:
                    edits[(f.name, bi, pos)] = [(new, "kept")]
    return passes._per_instr_pass(program, edits, executable_blocks)


def reference_check_secret_branches(program, secrets):
    """`check_secret_branches` as it was before its flows became one edge
    list: a per-kind fixpoint over four taint stores. It follows no
    reference an opaque region touches, nor a secret defined inside an
    opaque region, so it is a reference only for programs whose opaque
    regions touch no reference, and for secrets defined outside them."""
    names_of = {
        f.name: ir.region_defined_names(f.region) | {p.name for p in f.params}
        for f in program.functions
    }
    for name in secrets:
        if not any(name in names for names in names_of.values()):
            raise ValueError(f"secret {name!r} names nothing in the program")
    tainted = {(f.name, n) for f in program.functions for n in secrets if n in names_of[f.name]}
    tainted_refs: set = set()
    tainted_returns: set = set()
    mem_tainted = False

    def hot(fname, atom):
        return isinstance(atom, ir.Var) and (fname, atom.name) in tainted

    def taint_call(fname, target, args):
        changed = False
        for param, arg in zip(target, args):
            if hot(fname, arg) and param not in tainted:
                tainted.add(param)
                changed = True
        return changed

    blocks_by_label = {f.name: {b.label: b for b in f.region.blocks} for f in program.functions}
    fn_params = {f.name: tuple(p.name for p in f.params) for f in program.functions}
    changed = True
    while changed:
        changed = False
        for f in program.functions:
            for block in f.region.blocks:
                for instr in block.instrs:
                    if isinstance(instr, ir.Define):
                        rhs = instr.rhs
                        if isinstance(rhs, ir.OpaqueExpr):
                            dirty = any((f.name, u) in tainted for u in rhs.summary.uses) or (
                                rhs.summary.has_read and mem_tainted
                            )
                            if dirty and rhs.summary.has_write and not mem_tainted:
                                mem_tainted = changed = True
                        elif isinstance(rhs, ir.LoadRef):
                            dirty = (f.name, rhs.ref) in tainted_refs
                        elif isinstance(rhs, ir.LoadMem):
                            dirty = mem_tainted or hot(f.name, rhs.addr)
                        elif isinstance(rhs, ir.CallExpr):
                            params = fn_params.get(rhs.callee, ())
                            if taint_call(f.name, [(rhs.callee, p) for p in params], rhs.args):
                                changed = True
                            dirty = rhs.callee in tainted_returns
                        elif isinstance(
                            rhs, (ir.AtomExpr, ir.UnaryExpr, ir.BinaryExpr, ir.SnapshotExpr)
                        ):
                            dirty = any(hot(f.name, a) for a in ir.instr_operand_atoms(instr))
                        else:
                            dirty = False
                        if dirty:
                            for r in instr.results:
                                if isinstance(r, str) and (f.name, r) not in tainted:
                                    tainted.add((f.name, r))
                                    changed = True
                    elif isinstance(instr, ir.RefAssign):
                        if hot(f.name, instr.value) and (f.name, instr.ref) not in tainted_refs:
                            tainted_refs.add((f.name, instr.ref))
                            changed = True
                    elif isinstance(instr, ir.MemStore):
                        if (hot(f.name, instr.value) or hot(f.name, instr.addr)) and not mem_tainted:
                            mem_tainted = changed = True
                    elif isinstance(instr, ir.Return):
                        if any(hot(f.name, v) for v in instr.values) and f.name not in tainted_returns:
                            tainted_returns.add(f.name)
                            changed = True
                    elif isinstance(instr, ir.Branch):
                        for call in (instr.then, instr.els):
                            target = blocks_by_label[f.name].get(call.label) if call else None
                            if target is not None:
                                params = [(f.name, p.name) for p in target.params]
                                if taint_call(f.name, params, call.args):
                                    changed = True

    witnesses = [
        f"{f.name} {instr.loc[0]}:{instr.loc[1]} branches on {instr.cond.name}"
        for f in program.functions
        for block in f.region.blocks
        for instr in block.instrs
        if isinstance(instr, ir.Branch) and instr.cond is not None and hot(f.name, instr.cond)
    ]
    return validate.Verdict.of(witnesses)


def reference_observation_trace(result):
    """`observation_trace` as a scan of every event of the run."""
    states = []
    for ev in result.events:
        for idx, rec in enumerate(ev.obs):
            for tag in rec.tags:
                state = (tag.source_id, tag.names, rec.values, ev.seq, (ev.seq, idx))
                states.append(validate.PartialState(*state))
    return tuple(states)


def reference_io_behavior(result, exclude=frozenset()):
    """`RunResult.io_behavior` as a scan of every event of the run."""
    seqs, ordered = {}, {}
    for ev in result.events:
        for rec in ev.ios:
            if rec.channel in exclude:
                continue
            key = (rec.direction, rec.channel)
            seqs.setdefault(key, []).append(rec.values)
            ordered[key] = rec.ordered or rec.direction == "r"
    return {
        key: ("ordered", tuple(values)) if ordered[key]
        else ("unordered", tuple(sorted(values, key=repr)))
        for key, values in seqs.items()
    }


def reference_io_index(result):
    return {
        (rec.channel, rec.direction, rec.tag): ev.seq for ev in result.events for rec in ev.ios
    }


def reference_io_counterparts(ref, opt):
    """`_io_counterparts` as a scan of every event of both runs."""
    opt_index = reference_io_index(opt)
    out, lost = {}, []
    for ev in ref.events:
        for rec in ev.ios:
            target = opt_index.get((rec.channel, rec.direction, rec.tag))
            if target is None:
                lost.append(f"io {rec.channel} #{rec.tag} lost")
            else:
                out.setdefault(ev.seq, set()).add(target)
    return out, lost


class ReferenceEventMap:
    """`EventMap` as it was built whole: a union-find over every provenance
    edge, then every component matched at once."""

    def __init__(self, ref_events, opt_events, prov):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for src, dst in prov.edges:
            parent[find(("s", src))] = find(("d", dst))
        srcs_of, dsts_of = {}, {}
        for src, dst in prov.edges:
            srcs_of.setdefault(find(("s", src)), set()).add(src)
            dsts_of.setdefault(find(("d", dst)), set()).add(dst)
        ref_by_iid, opt_by_iid = {}, {}
        for events, by_iid in ((ref_events, ref_by_iid), (opt_events, opt_by_iid)):
            for ev in events:
                if ev.iid is not None:
                    by_iid.setdefault(ev.iid, []).append(ev)
        self._map = {}
        for root, srcs in srcs_of.items():
            dsts = dsts_of[root]
            refs = sorted(ev for iid in srcs for ev in ref_by_iid.get(iid, ()))
            opts = sorted(ev for iid in dsts for ev in opt_by_iid.get(iid, ()))
            if not refs or not opts:
                continue
            if len(refs) == len(opts):
                self._map.update((a.seq, b.seq) for a, b in zip(refs, opts))
                continue
            groups, seen = [[]], set()
            for ev in refs:
                if ev.iid in seen:
                    groups.append([])
                    seen = set()
                groups[-1].append(ev)
                seen.add(ev.iid)
            if len(groups) == len(opts):
                for group, target in zip(groups, opts):
                    self._map.update((ev.seq, target.seq) for ev in group)

    def counterpart(self, ref_seq):
        return self._map.get(ref_seq)


def reference_check_ordering(ref, opt, prov=None):
    """`check_ordering` as it was: every pair of the reference hb closure
    whose anchors have counterparts, against the optimized closure."""
    ref_info, opt_info = deps.analyze(ref), deps.analyze(opt)
    counterparts, lost = validate._io_counterparts(ref, opt)
    trace = validate.observation_trace
    delta = validate.compare_traces(trace(ref), trace(opt))
    for seq, target in delta.pairs.values():
        counterparts.setdefault(seq, set()).add(target)
    if prov is not None:
        em = ReferenceEventMap(ref.events, opt.events, prov)
        for seq in ref_info.anchor_seqs:
            if seq not in counterparts and (target := em.counterpart(seq)) is not None:
                counterparts[seq] = {target}
    witnesses = list(lost)
    opt_reach = opt_info._anchor_graph()
    for a, b in ref_info.hb_pairs():
        for x in counterparts.get(a, ()):
            for y in counterparts.get(b, ()):
                if x != y and y not in opt_reach.get(x, ()):
                    loc_a, loc_b = validate._event_loc(ref, a), validate._event_loc(ref, b)
                    witnesses.append(f"{loc_a} before {loc_b} not preserved")
    return validate.Verdict.of(witnesses)
