"""Mini IR core: types, parser, printer, macros, validation.

The IR is a three-address SSA language with regions, basic blocks and
block arguments (continuation-passing style: loops carry their state
through branch arguments, there are no phi nodes). A region is introduced
by a function, a macro or an `opaque { ... }` expression; single-assignment
variables are scoped to their region and captured in dominated blocks.

Concrete syntax is line oriented: an instruction ends at end of line or at
`;` (several instructions may share a line; a trailing semicolon is an
empty statement and is ignored). `//` starts a comment running to end of
line.

Opaque regions are the central construct. An instruction defining values
from an `opaque { ... }` expression executes its whole region atomically
and in isolation; optimization passes may only query a region through the
`OpaqueSummary` barrier (uses, read/write effects, performs-I/O, identity
up to variable renaming) and may rewrite it only through the sanctioned
rewrites `rename_instr`, `freshen` and `merge_obs_metadata`. The
`sealed_opaque_regions` context manager enforces the barrier at runtime:
while sealed, touching `OpaqueExpr.region`, the one public accessor of a
body, raises `OpacityBreach`. The front end and the sanctioned rewrites
(parser, printer, validator, macro expansion, observation tagging) and
the interpreter read the private `_body` field instead, so they work the
same whether or not the seal is engaged.

One printer gives both program text and identity: the signatures
(`region_signature`, hence `OpaqueSummary.identity`, `instr_signature`
and `block_signature`) print as `print_program` does, with names
numbered by first occurrence.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import re
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union


class IRError(Exception):
    """Base class for IR-level failures carrying a source location."""

    def __init__(self, message: str, loc: tuple[int, int] = (0, 0)):
        super().__init__(f"{loc[0]}:{loc[1]}: {message}" if loc != (0, 0) else message)
        self.message = message
        self.loc = loc


class ParseError(IRError):
    pass


class MacroError(IRError):
    pass


class OpacityBreach(RuntimeError):
    """An optimization pass touched the inside of an opaque region."""


# --------------------------------------------------------------------------
# Types and constants
# --------------------------------------------------------------------------


class Type(Enum):
    BOOL = "bool"
    U8 = "u8"
    U32 = "u32"
    I32 = "i32"
    UNIT = "unit"
    DESC = "desc"  # internal: I/O descriptor values; not a surface annotation

    def __repr__(self):
        return f"Type.{self.name}"


TYPE_NAMES = {
    "bool": Type.BOOL,
    "u8": Type.U8,
    "u32": Type.U32,
    "i32": Type.I32,
    "unit": Type.UNIT,
    "addr": Type.U32,  # addresses are plain unsigned 32-bit values
}

INT_TYPES = (Type.U8, Type.U32, Type.I32)


class Unit:
    """The single value of the unit (token) type."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unit_value"


UNIT_VALUE = Unit()

# Reserved descriptor constants and their channel names.
DESCRIPTOR_CONSTANTS = {
    "tagged_unit_unordered_set_descriptor": "tailio",
    "ordered_set_descriptor": "cc",
}
TAILIO_CHANNEL = "tailio"
CC_CHANNEL = "cc"


@dataclass(frozen=True)
class DescValue:
    """Runtime value of a descriptor constant."""

    channel: str


# --------------------------------------------------------------------------
# Atoms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: object  # int | bool | Unit
    type: Type


@dataclass(frozen=True)
class VarGroup:
    """A `v1, ..., vk` splice marker; only legal inside macro regions."""

    first: str
    last: str


Atom = Union[Var, Const, VarGroup]


@dataclass(frozen=True)
class Desc:
    """An I/O descriptor operand.

    `is_var` is resolved after parsing a region: a name bound by an SSA
    definition denotes a variable holding a descriptor constant, any other
    name denotes itself as a literal channel.
    """

    name: str
    is_var: bool = False


@dataclass(frozen=True)
class ObsTag:
    """Observation metadata: the pattern-invocation site and the printed
    source names of the snapshot arguments, frozen at expansion time."""

    source_id: tuple[int, int]
    names: tuple[str, ...]


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomExpr:
    atom: Atom


@dataclass(frozen=True)
class UnaryExpr:
    op: str  # - ! ~
    a: Atom


@dataclass(frozen=True)
class BinaryExpr:
    op: str
    a: Atom
    b: Atom


@dataclass(frozen=True)
class LoadMem:
    addr: Atom


@dataclass(frozen=True)
class LoadRef:
    ref: str


@dataclass(frozen=True)
class IoRead:
    desc: Desc


@dataclass(frozen=True)
class SnapshotExpr:
    args: tuple[Atom, ...]
    tags: tuple[ObsTag, ...] = ()


@dataclass(frozen=True)
class CallExpr:
    callee: str
    args: tuple[Atom, ...]


@dataclass(frozen=True)
class DescriptorExpr:
    """One of the reserved descriptor constants."""

    name: str

    @property
    def channel(self) -> str:
        return DESCRIPTOR_CONSTANTS[self.name]


class OpaqueExpr:
    """An `opaque { ... }` region.

    The enclosed region is off limits to optimization passes; they must go
    through `summary`. Structural equality compares regions (used by the
    round-trip tests); identity-up-to-renaming uses `summary.identity`.
    """

    __slots__ = ("_body", "_summary")

    def __init__(self, body: "Region"):
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "_summary", None)

    @property
    def region(self) -> "Region":
        if _BARRIER_SEALED.get():
            raise OpacityBreach(
                "optimization passes may not inspect opaque regions; "
                "use OpaqueExpr.summary"
            )
        return self._body

    @property
    def summary(self) -> "OpaqueSummary":
        if self._summary is None:
            object.__setattr__(self, "_summary", _summarize_region(self._body))
        return self._summary

    def __eq__(self, other):
        return isinstance(other, OpaqueExpr) and self._body == other._body

    def __repr__(self):
        return f"OpaqueExpr(<{len(self._body.blocks)} blocks>)"


Expr = Union[
    AtomExpr,
    UnaryExpr,
    BinaryExpr,
    LoadMem,
    LoadRef,
    IoRead,
    SnapshotExpr,
    CallExpr,
    DescriptorExpr,
    OpaqueExpr,
]


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Define:
    """`r1, ..., rn = rhs` (n may be zero: expression statement)."""

    results: tuple[object, ...]  # str | VarGroup
    rhs: Expr
    ann: tuple[Optional[Type], ...] = ()
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class RefAssign:
    ref: str
    value: Atom
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MemStore:
    addr: Atom
    value: Atom
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class IoWrite:
    desc: Desc
    values: tuple[Atom, ...]
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Use:
    """`use(v1, ..., vk)`: uses all arguments, defines nothing.

    Only meaningful inside opaque regions, where it pins free variables as
    uses of the enclosing opaque instruction.
    """

    args: tuple[Atom, ...]
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BlockCall:
    label: str
    args: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class Branch:
    """Conditional (`cond` set, two targets) or unconditional (no cond)."""

    cond: Optional[Atom]
    then: BlockCall
    els: Optional[BlockCall] = None
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Return:
    values: tuple[Atom, ...]
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Yield:
    values: tuple[Atom, ...]
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


Instr = Union[Define, RefAssign, MemStore, IoWrite, Use, Branch, Return, Yield]
TERMINATORS = (Branch, Return, Yield)


@dataclass(frozen=True)
class Param:
    name: str
    type: Optional[Type] = None


@dataclass(frozen=True)
class Block:
    label: str
    params: tuple[Param, ...]
    instrs: tuple[Instr, ...]


@dataclass(frozen=True)
class Region:
    blocks: tuple[Block, ...]

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[Param, ...]
    region: Region
    ret_types: Optional[tuple[Type, ...]] = None
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MacroFormals:
    fixed: tuple[str, ...]
    variadic: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class Macro:
    name: str
    formals: MacroFormals
    region: Region
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Program:
    functions: tuple[Function, ...]
    macros: tuple[Macro, ...] = ()

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def macro_map(self) -> dict[str, Macro]:
        return {m.name: m for m in self.macros}

    @property
    def entry(self) -> Function:
        return self.function("main")


# An instruction's identity is its coordinates in the program.
InstrId = tuple[str, int, int]  # (function name, block index, position)


def instr_at(program: Program, iid: InstrId) -> Instr:
    fn, bi, pos = iid
    return program.function(fn).region.blocks[bi].instrs[pos]


# --------------------------------------------------------------------------
# Opacity barrier
# --------------------------------------------------------------------------

_BARRIER_SEALED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "opaqueir_barrier_sealed", default=False
)


@contextlib.contextmanager
def sealed_opaque_regions():
    """Seal all opaque regions for the duration of the context.

    The pass pipeline runs every pass under this seal, so a pass that tries
    to pattern-match an opaque body fails loudly instead of miscompiling.
    """
    token = _BARRIER_SEALED.set(True)
    try:
        yield
    finally:
        _BARRIER_SEALED.reset(token)


@dataclass(frozen=True)
class OpaqueSummary:
    """Everything a pass is allowed to know about an opaque region."""

    uses: tuple[str, ...]  # free variables, in first-use order
    has_read: bool  # loads from memory or references
    has_write: bool  # stores to memory or references
    performs_io: bool
    yield_arity: int
    snapshot_slots: int
    # `region_signature`: equal iff identical up to renaming, annotations
    # and parameter types included, observation tags ignored
    identity: str

    @property
    def is_pure(self) -> bool:
        return not (self.has_read or self.has_write or self.performs_io)


def instr_operand_atoms(instr: Instr) -> tuple[Atom, ...]:
    """Atoms read by an instruction (not recursing into opaque regions), a
    descriptor variable as a `Var`."""
    t = type(instr)
    if t is Define:
        rhs = instr.rhs
        t = type(rhs)
        if t is BinaryExpr:
            return (rhs.a, rhs.b)
        if t is AtomExpr:
            return (rhs.atom,)
        if t is UnaryExpr:
            return (rhs.a,)
        if t is SnapshotExpr or t is CallExpr:
            return rhs.args
        if t is LoadMem:
            return (rhs.addr,)
        return (Var(rhs.desc.name),) if t is IoRead and rhs.desc.is_var else ()
    if t is Branch:
        atoms = instr.then.args if instr.cond is None else (instr.cond, *instr.then.args)
        return atoms if instr.els is None else (*atoms, *instr.els.args)
    if t is IoWrite:
        return (Var(instr.desc.name), *instr.values) if instr.desc.is_var else instr.values
    if t is MemStore:
        return (instr.addr, instr.value)
    if t is RefAssign:
        return (instr.value,)
    if t is Use:
        return instr.args
    return instr.values if t is Return or t is Yield else ()


def walk_blocks(region: Region) -> Iterator[Block]:
    """Every block of a region and of the opaque regions nested in it;
    a block comes before the regions its instructions open."""
    for block in region.blocks:
        yield block
        for instr in block.instrs:
            if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                yield from walk_blocks(instr.rhs._body)


def region_defined_names(region: Region) -> set[str]:
    """All names defined anywhere in a region, including nested regions."""
    names: set[str] = set()
    for block in walk_blocks(region):
        names.update(p.name for p in block.params)
        names.update(r for i in block.instrs if type(i) is Define for r in i.results if type(r) is str)
    return names


def region_ref_names(region: Region) -> set[str]:
    refs: set[str] = set()
    for block in walk_blocks(region):
        for instr in block.instrs:
            if isinstance(instr, RefAssign):
                refs.add(instr.ref)
            elif isinstance(instr, Define) and isinstance(instr.rhs, LoadRef):
                refs.add(instr.rhs.ref)
    return refs


def _summarize_region(body: Region) -> OpaqueSummary:
    bound = region_defined_names(body)
    # Free uses in first-use order; a nested region's summary lists its
    # own in that order, which keeps the whole walk in program order.
    uses: dict[str, None] = {}
    yield_arity = 0
    for block in body.blocks:
        for instr in block.instrs:
            if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                names = instr.rhs.summary.uses
            else:
                names = [a.name for a in instr_operand_atoms(instr) if type(a) is Var]
            for name in names:
                if name not in bound:
                    uses.setdefault(name)
            if isinstance(instr, Yield):
                yield_arity = len(instr.values)
    has_read = has_write = performs_io = False
    snapshots = 0
    for block in walk_blocks(body):
        for instr in block.instrs:
            if isinstance(instr, (MemStore, RefAssign)):
                has_write = True
            elif isinstance(instr, IoWrite):
                performs_io = True
            elif isinstance(instr, Define):
                rhs = instr.rhs
                if isinstance(rhs, (LoadMem, LoadRef)):
                    has_read = True
                elif isinstance(rhs, IoRead):
                    performs_io = True
                elif isinstance(rhs, SnapshotExpr):
                    snapshots += 1
    return OpaqueSummary(
        uses=tuple(uses),
        has_read=has_read,
        has_write=has_write,
        performs_io=performs_io,
        yield_arity=yield_arity,
        snapshot_slots=snapshots,
        identity=region_signature(body),
    )


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # ident | int | punct | newline | eof
    text: str
    line: int
    col: int
    value: Optional[Const] = None


_PUNCT = [
    "<-", "->", "...", "<<", ">>", "==", "!=", "<=", ">=",
    "(", ")", "{", "}", "[", "]", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "@",
]
# One alternative per token class, tried in order, each taking the blanks
# after it: `blank` takes those that start the text and `bad` any other
# character, so every match starts where the last one ended. `eol` is a
# line end as `str.splitlines` has them, and a comment runs up to one.
_TOKEN_RE = re.compile(
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<comment>//[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + r")"
    r"|(?P<eol>\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029])|(?P<newline>;)"
    r"|(?P<int>(?P<digits>\d+)(?P<suffix>[A-Za-z_][A-Za-z0-9_]*)?)"
    r"|(?P<blank>[ \t])|(?P<bad>.))[ \t]*"
)
_SUFFIXES = {"u8": Type.U8, "u32": Type.U32, "i32": Type.I32}
# i32 allows magnitude 2^31 here so `-2147483648i32` lexes; the parser
# rejects it when no minus sign follows through.
_LITERAL_LIMITS = {Type.U8: 255, Type.U32: 2**32 - 1, Type.I32: 2**31}


def tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, in one scan over the whole text.

    Lines end where `str.splitlines` ends them (`\\n`, `\\r\\n`, `\\r`,
    `\\x0b`, `\\x0c`, `\\x1c`-`\\x1e`, `\\x85`, `\\u2028`, `\\u2029`), and
    lines and columns count from 1. `//` cuts the rest of its line. A line
    that yields a token other than `;` ends with a `newline` token whose
    column is one past the line's length after the cut; `;` is a `newline`
    token of its own, which acts exactly like a line break. The closing
    `eof` token sits in column 1 of the line after the last."""
    tokens: list[_Token] = []
    append, new = tokens.append, tuple.__new__
    line, start, cut, produced = 1, 0, None, False  # start: offset of the line
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start()
        if kind == "ident" or kind == "punct":
            append(new(_Token, (kind, m[kind], line, pos - start + 1, None)))
            produced = True
        elif kind == "eol":
            if produced:
                col = (pos if cut is None else cut) - start + 1
                append(new(_Token, ("newline", "\\n", line, col, None)))
            line, start, cut, produced = line + 1, pos + len(m[kind]), None, False
        elif kind == "newline":
            append(new(_Token, (kind, ";", line, pos - start + 1, None)))
        elif kind == "int":
            raw, suffix = m.group("digits", "suffix")
            if (ty := _SUFFIXES.get(suffix or "u32")) is None:
                raise ParseError(f"bad integer suffix {suffix!r}", (line, pos - start + 1))
            value = int(raw)
            _check_literal_range(value, ty, (line, pos - start + 1))
            append(new(_Token, (kind, raw, line, pos - start + 1, Const(value, ty))))
            produced = True
        elif kind == "comment":
            cut = pos
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", (line, pos - start + 1))
    if produced:
        col = (len(text) if cut is None else cut) - start + 1
        append(new(_Token, ("newline", "\\n", line, col, None)))
    append(new(_Token, ("eof", "", line + (start < len(text)), 1, None)))
    return tokens


def _check_literal_range(value: int, ty: Type, loc):
    if value > _LITERAL_LIMITS[ty]:
        raise ParseError(f"literal {value} out of range for {ty.value}", loc)


def _negate_literal(const: Const, loc) -> Const:
    if const.type is not Type.I32:
        raise ParseError("negative literal requires the i32 suffix", loc)
    value = -const.value
    if value < -(2**31):
        raise ParseError(f"literal {value} out of range for i32", loc)
    return Const(value, Type.I32)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        # Two more eof tokens: `advance` never moves past the first, and no
        # lookahead reads more than two past where it stops.
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0
        self.tok = tokens[0]  # the token at `pos`, read without a call
        self.in_macro = False

    # -- token plumbing

    def peek(self, k: int) -> _Token:
        return self.tokens[self.pos + k]

    def advance(self) -> _Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.tok
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", (tok.line, tok.col))
        return self.advance()

    def expect_ident(self) -> _Token:
        tok = self.tok
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", (tok.line, tok.col))
        return self.advance()

    def expect_newline(self):
        tok = self.tok
        if tok.kind == "eof" or tok.text == "}":
            return  # a closing brace also ends the last instruction
        if tok.kind != "newline":
            raise ParseError(f"expected end of line, found {tok.text!r}", (tok.line, tok.col))
        self.advance()

    def skip_newlines(self):
        while self.tok.kind == "newline":
            self.advance()

    # -- program / declarations

    def parse_program(self) -> Program:
        functions: list[Function] = []
        macros: list[Macro] = []
        self.skip_newlines()
        while self.tok.kind != "eof":
            tok = self.tok
            if tok.text == "function":
                functions.append(self.parse_function())
            elif tok.text == "macro":
                macros.append(self.parse_macro())
            else:
                raise ParseError(
                    f"expected 'function' or 'macro', found {tok.text!r}",
                    (tok.line, tok.col),
                )
            self.skip_newlines()
        program = Program(tuple(functions), tuple(macros))
        return _resolve_names(program)

    def parse_function(self) -> Function:
        kw = self.expect("function")
        name = self.expect_ident().text
        self.expect("(")
        params = self.parse_params(types_required=True)
        self.expect(")")
        ret_types = None
        if self.tok.text == "->":
            self.advance()
            self.expect("(")
            types = []
            while self.tok.text != ")":
                types.append(self.parse_type())
                if self.tok.text == ",":
                    self.advance()
            self.expect(")")
            ret_types = tuple(types)
        self.expect("{")
        region = self.parse_region(kind="function")
        self.expect_newline()
        return Function(name, params, region, ret_types, loc=(kw.line, kw.col))

    def parse_macro(self) -> Macro:
        kw = self.expect("macro")
        name = self.expect_ident().text
        self.expect("(")
        formals = self.parse_formals()
        self.expect(")")
        self.expect("{")
        was = self.in_macro
        self.in_macro = True
        try:
            region = self.parse_region(kind="function")
        finally:
            self.in_macro = was
        self.expect_newline()
        return Macro(name, formals, region, loc=(kw.line, kw.col))

    def parse_params(self, types_required: bool) -> tuple[Param, ...]:
        params: list[Param] = []
        while self.tok.text != ")":
            tok = self.expect_ident()
            ty = None
            if self.tok.text == ":":
                self.advance()
                ty = self.parse_type()
            elif types_required:
                raise ParseError(
                    f"parameter {tok.text!r} needs a type annotation", (tok.line, tok.col)
                )
            params.append(Param(tok.text, ty))
            if self.tok.text == ",":
                self.advance()
        return tuple(params)

    def parse_formals(self) -> MacroFormals:
        names: list[str] = []
        while self.tok.text != ")":
            tok = self.tok
            if tok.text == "...":
                self.advance()
                names.append("...")
            else:
                names.append(self.expect_ident().text)
            if self.tok.text == ",":
                self.advance()
        if "..." not in names:
            return MacroFormals(tuple(names))
        i = names.index("...")
        if i == 0 or i != len(names) - 2 or names.count("...") != 1:
            tok = self.tok
            raise ParseError(
                "variadic formals must end `first, ..., last`", (tok.line, tok.col)
            )
        return MacroFormals(tuple(names[: i - 1]), (names[i - 1], names[i + 1]))

    def parse_type(self) -> Type:
        tok = self.expect_ident()
        if tok.text not in TYPE_NAMES:
            raise ParseError(f"unknown type {tok.text!r}", (tok.line, tok.col))
        return TYPE_NAMES[tok.text]

    # -- regions and blocks

    def parse_region(self, kind: str) -> Region:
        """Parse blocks until the closing brace. `kind` is 'function' or
        'opaque'; it decides which terminator gets synthesized on
        fall-through at the end of the region."""
        blocks: list[tuple[str, tuple[Param, ...], list[Instr]]] = []

        def ensure_block():
            if not blocks:
                blocks.append(("entry", (), []))

        self.skip_newlines()
        while True:
            tok = self.tok
            if tok.text == "}":
                self.advance()
                break
            if tok.kind == "eof":
                raise ParseError("unexpected end of file in region", (tok.line, tok.col))
            if self.at_label():
                name_tok = self.expect_ident()
                params: tuple[Param, ...] = ()
                if self.tok.text == "(":
                    self.advance()
                    params = self.parse_params(types_required=False)
                    self.expect(")")
                self.expect(":")
                blocks.append((name_tok.text, params, []))
            else:
                ensure_block()
                instr = self.parse_instruction()
                blocks[-1][2].append(instr)
            self.skip_newlines()
        ensure_block()
        return _finish_region(Region(tuple(Block(n, p, tuple(i)) for n, p, i in blocks)), kind)

    def at_label(self) -> bool:
        if self.tok.kind != "ident":
            return False
        nxt = self.peek(1).text
        if nxt == ":":
            # `x: u8 = ...` is a typed define, not a label.
            return self.peek(2).text not in TYPE_NAMES
        if nxt == "(":
            # Could be a call statement or a labeled block with parameters;
            # a label has `:` right after the closing parenthesis.
            k = 2
            depth = 1
            while depth > 0:
                tok = self.peek(k)
                if tok.kind in ("newline", "eof"):
                    return False
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                k += 1
            return self.peek(k).text == ":"
        return False

    # -- instructions

    def parse_instruction(self) -> Instr:
        tok = self.tok
        loc = (tok.line, tok.col)
        text = tok.text
        if text == "br":
            return self.parse_branch(loc)
        if text == "return":
            self.advance()
            values = self.parse_paren_atoms()
            self.expect_newline()
            return Return(values, loc=loc)
        if text == "yield":
            self.advance()
            values = self.parse_paren_atoms()
            self.expect_newline()
            return Yield(values, loc=loc)
        if text == "io":
            self.advance()
            self.expect("(")
            desc = Desc(self.expect_ident().text)
            values: list[Atom] = []
            while self.tok.text == ",":
                self.advance()
                values.append(self.parse_atom())
            self.expect(")")
            self.expect_newline()
            return IoWrite(desc, tuple(values), loc=loc)
        if text == "use":
            self.advance()
            args = self.parse_paren_atoms()
            self.expect_newline()
            return Use(args, loc=loc)
        if text == "snapshot":
            rhs = self.parse_rhs()
            self.expect_newline()
            return Define((), rhs, loc=loc)
        if text == "opaque":
            rhs = self.parse_opaque()
            self.expect_newline()
            return Define((), rhs, loc=loc)
        if text == "mem":
            self.advance()
            self.expect("[")
            addr = self.parse_atom()
            self.expect("]")
            self.expect("<-")
            value = self.parse_atom()
            self.expect_newline()
            return MemStore(addr, value, loc=loc)
        if tok.kind == "ident":
            return self.parse_define_or_call(loc)
        raise ParseError(f"unexpected token {text!r}", loc)

    def parse_branch(self, loc) -> Branch:
        self.expect("br")
        first = self.parse_atom()
        if self.tok.text != ",":
            # Unconditional: `br target(...)`.
            if not isinstance(first, Var):
                raise ParseError("branch target must be a label", loc)
            target = self.parse_target_rest(first.name)
            self.expect_newline()
            return Branch(None, target, loc=loc)
        self.advance()
        then = self.parse_target()
        els = None
        if self.tok.text == ",":
            self.advance()
            els = self.parse_target()
        self.expect_newline()
        if isinstance(first, Const):
            if first.type is Type.BOOL and first.value is True:
                if els is not None:
                    raise ParseError("constant-true branch takes one target", loc)
                return Branch(None, then, loc=loc)
            raise ParseError("branch condition must be a variable or `true`", loc)
        return Branch(first, then, els, loc=loc)

    def parse_target(self) -> BlockCall:
        name = self.expect_ident().text
        return self.parse_target_rest(name)

    def parse_target_rest(self, name: str) -> BlockCall:
        args: tuple[Atom, ...] = ()
        if self.tok.text == "(":
            self.advance()
            args = self.parse_atom_list(")")
            self.expect(")")
        return BlockCall(name, args)

    def parse_define_or_call(self, loc) -> Instr:
        # Result list, `name <- atom`, or a bare call statement.
        start = self.pos
        name = self.expect_ident().text
        nxt = self.tok.text
        if nxt == "<-":
            self.advance()
            value = self.parse_atom()
            self.expect_newline()
            return RefAssign(name, value, loc=loc)
        if nxt == "(" :
            # Bare call statement.
            self.advance()
            args = self.parse_atom_list(")")
            self.expect(")")
            self.expect_newline()
            return Define((), CallExpr(name, args), loc=loc)
        self.pos, self.tok = start, self.tokens[start]
        results: list[object] = []
        anns: list[Optional[Type]] = []
        while True:
            tok = self.tok
            if tok.text == "...":
                self.advance()
                results.append("...")
                anns.append(None)
            else:
                results.append(self.expect_ident().text)
                if self.tok.text == ":":
                    self.advance()
                    anns.append(self.parse_type())
                else:
                    anns.append(None)
            if self.tok.text == ",":
                self.advance()
                continue
            break
        self.expect("=")
        rhs = self.parse_rhs()
        self.expect_newline()
        res = self.collapse_groups(results, loc)
        # `()` is the one spelling of "no annotation"
        ann = tuple(anns[: len(res)]) if any(a is not None for a in anns) else ()
        return Define(tuple(res), rhs, ann=ann, loc=loc)

    def collapse_groups(self, items: list[object], loc) -> list[object]:
        out: list[object] = []
        i = 0
        while i < len(items):
            if items[i] == "...":
                raise ParseError("misplaced '...'", loc)
            if i + 2 < len(items) and items[i + 1] == "...":
                if not self.in_macro:
                    raise ParseError("'...' is only allowed in macro bodies", loc)
                first, last = items[i], items[i + 2]
                if not isinstance(first, str) or not isinstance(last, str):
                    raise ParseError("bad '...' group", loc)
                out.append(VarGroup(first, last))
                i += 3
            else:
                out.append(items[i])
                i += 1
        return out

    def parse_rhs(self) -> Expr:
        tok = self.tok
        text = tok.text
        if text == "opaque":
            return self.parse_opaque()
        if text == "snapshot":
            self.advance()
            args = self.parse_paren_atoms()
            tags = self.parse_obs_tags()
            return SnapshotExpr(args, tags)
        if text == "io":
            self.advance()
            self.expect("(")
            desc = Desc(self.expect_ident().text)
            if self.tok.text == ",":
                raise ParseError("io used as an expression reads a single value", (tok.line, tok.col))
            self.expect(")")
            return IoRead(desc)
        if text == "mem":
            self.advance()
            self.expect("[")
            addr = self.parse_atom()
            self.expect("]")
            return LoadMem(addr)
        if text in DESCRIPTOR_CONSTANTS:
            self.advance()
            return DescriptorExpr(text)
        if tok.kind == "ident" and self.peek(1).text == "(":
            callee = self.advance().text
            self.advance()
            args = self.parse_atom_list(")")
            self.expect(")")
            return CallExpr(callee, args)
        if text in ("!", "~"):
            self.advance()
            return UnaryExpr(text, self.parse_atom())
        if text == "-" and self.peek(1).kind != "int":
            self.advance()
            return UnaryExpr("-", self.parse_atom())
        a = self.parse_atom()
        op = self.tok.text
        if op in BINARY_OPS:
            self.advance()
            b = self.parse_atom()
            return BinaryExpr(op, a, b)
        return AtomExpr(a)

    def parse_opaque(self) -> OpaqueExpr:
        self.expect("opaque")
        self.expect("{")
        region = self.parse_region(kind="opaque")
        return OpaqueExpr(region)

    def parse_obs_tags(self) -> tuple[ObsTag, ...]:
        if self.tok.text != "[":
            return ()
        self.advance()
        self.expect("obs")
        tags: list[ObsTag] = []
        while True:
            line = self.advance()
            if line.kind != "int":
                raise ParseError("expected tag line number", (line.line, line.col))
            self.expect(":")
            col = self.advance()
            if col.kind != "int":
                raise ParseError("expected tag column number", (col.line, col.col))
            self.expect("(")
            names: list[str] = []
            depth = 0
            buf = ""
            while True:
                tok = self.tok
                if tok.kind in ("newline", "eof"):
                    raise ParseError("unterminated tag", (tok.line, tok.col))
                if tok.text == "(" :
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        self.advance()
                        break
                    depth -= 1
                elif tok.text == "," and depth == 0:
                    self.advance()
                    names.append(buf)
                    buf = ""
                    continue
                buf += self.advance().text
            if buf:
                names.append(buf)
            tags.append(ObsTag((line.value.value, col.value.value), tuple(names)))
            if self.tok.text == ",":
                self.advance()
                continue
            break
        self.expect("]")
        return tuple(tags)

    # -- atoms

    def parse_atom(self) -> Atom:
        tok = self.tok
        if tok.text == "-" and self.peek(1).kind == "int":
            self.advance()
            lit = self.advance()
            return _negate_literal(lit.value, (lit.line, lit.col))
        if tok.kind == "int":
            self.advance()
            if tok.value.type is Type.I32 and tok.value.value > 2**31 - 1:
                raise ParseError(
                    f"literal {tok.value.value} out of range for i32", (tok.line, tok.col)
                )
            return tok.value
        if tok.text == "true":
            self.advance()
            return Const(True, Type.BOOL)
        if tok.text == "false":
            self.advance()
            return Const(False, Type.BOOL)
        if tok.text == "unit_value":
            self.advance()
            return Const(UNIT_VALUE, Type.UNIT)
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        raise ParseError(f"expected a value, found {tok.text!r}", (tok.line, tok.col))

    def parse_atom_list(self, closer: str) -> tuple[Atom, ...]:
        items: list[object] = []
        while self.tok.text != closer:
            if self.tok.text == "...":
                self.advance()
                items.append("...")
            else:
                items.append(self.parse_atom())
            if self.tok.text == ",":
                self.advance()
        # Collapse `v1, ..., vk` groups.
        out: list[Atom] = []
        i = 0
        while i < len(items):
            if items[i] == "...":
                tok = self.tok
                if (
                    not self.in_macro
                    or i == 0
                    or i == len(items) - 1
                    or not isinstance(items[i - 1], Var)
                    or not isinstance(items[i + 1], Var)
                ):
                    raise ParseError("misplaced '...'", (tok.line, tok.col))
                out[-1] = VarGroup(items[i - 1].name, items[i + 1].name)
                i += 2
            else:
                out.append(items[i])
                i += 1
        return tuple(out)

    def parse_paren_atoms(self) -> tuple[Atom, ...]:
        self.expect("(")
        atoms = self.parse_atom_list(")")
        self.expect(")")
        return atoms


BINARY_OPS = frozenset(
    ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">="]
)


def _finish_region(region: Region, kind: str) -> Region:
    """Synthesize fall-through terminators so every block ends in exactly
    one terminator, as the rest of the toolkit assumes."""
    blocks = list(region.blocks)
    out: list[Block] = []
    for i, block in enumerate(blocks):
        instrs = list(block.instrs)
        for j, instr in enumerate(instrs[:-1]):
            if isinstance(instr, TERMINATORS):
                raise ParseError("terminator in the middle of a block", instr.loc)
        last = instrs[-1] if instrs else None
        next_label = blocks[i + 1].label if i + 1 < len(blocks) else None
        if last is None or not isinstance(last, TERMINATORS):
            loc = last.loc if last is not None else (0, 0)
            if next_label is not None:
                instrs.append(Branch(None, BlockCall(next_label), loc=loc))
            elif kind == "opaque":
                instrs.append(Yield((), loc=loc))
            else:
                instrs.append(Return((), loc=loc))
        elif isinstance(last, Branch) and last.cond is not None and last.els is None:
            if next_label is None:
                raise ParseError(
                    "conditional branch falls through at end of region",
                    last.loc,
                )
            instrs[-1] = dc_replace(last, els=BlockCall(next_label))
        out.append(dc_replace(block, instrs=tuple(instrs)))
    return Region(tuple(out))


# --------------------------------------------------------------------------
# Name resolution: descriptor operands and reference loads
# --------------------------------------------------------------------------


def map_region_instrs(region: Region, fn: Callable[[Instr], Instr]) -> Region:
    """Rebuild a region, applying `fn` to each instruction. Recurses into
    opaque regions (the callback sees inner instructions too). A region
    whose instructions all come back as the same objects is returned as
    is; instruction equality ignores `loc`, so equal is not enough."""
    new_blocks = []
    changed = False
    for block in region.blocks:
        new_instrs = []
        for instr in block.instrs:
            new = instr
            if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                inner = map_region_instrs(instr.rhs._body, fn)
                if inner is not instr.rhs._body:
                    new = dc_replace(instr, rhs=OpaqueExpr(inner))
            new = fn(new)
            changed = changed or new is not instr
            new_instrs.append(new)
        new_blocks.append(Block(block.label, block.params, tuple(new_instrs)))
    return Region(tuple(new_blocks)) if changed else region


def _resolve_names(program: Program) -> Program:
    """Decide, per function/macro, which io descriptor operands are SSA
    variables and which bare names are reference loads."""

    def resolve_region(region: Region, formals: tuple[str, ...] = ()) -> Region:
        ssa = region_defined_names(region) | set(formals)
        refs = region_ref_names(region)

        def fix(instr: Instr) -> Instr:
            if isinstance(instr, Define):
                rhs = instr.rhs
                if isinstance(rhs, IoRead) and rhs.desc.name in ssa:
                    return dc_replace(instr, rhs=IoRead(Desc(rhs.desc.name, is_var=True)))
                if (
                    isinstance(rhs, AtomExpr)
                    and isinstance(rhs.atom, Var)
                    and rhs.atom.name in refs
                    and rhs.atom.name not in ssa
                ):
                    return dc_replace(instr, rhs=LoadRef(rhs.atom.name))
                return instr
            if isinstance(instr, IoWrite) and instr.desc.name in ssa:
                return dc_replace(instr, desc=Desc(instr.desc.name, is_var=True))
            return instr

        return map_region_instrs(region, fix)

    functions = tuple(
        dc_replace(f, region=resolve_region(f.region, tuple(p.name for p in f.params)))
        for f in program.functions
    )
    macros = tuple(
        dc_replace(
            m,
            region=resolve_region(
                m.region,
                m.formals.fixed + (m.formals.variadic or ()),
            ),
        )
        for m in program.macros
    )
    return Program(functions, macros)


def parse_program(text: str) -> Program:
    """Parse Mini IR source text into a Program."""
    return _Parser(tokenize(text)).parse_program()


# --------------------------------------------------------------------------
# Printer: program text and identity up to renaming
# --------------------------------------------------------------------------


class _Spelling:
    """How the printer spells names. As written, for `print_program`, it
    prints observation tags and leaves out a first block label that
    parsing gives back. Canonical, for signatures, it numbers each
    variable, reference and label in `bound` (every one when `bound` is
    None) by its first occurrence and prints the others as written; it
    leaves out observation tags, which merges combine, and prints every
    label, whatever its name."""

    def __init__(self, canonical: bool, bound: Optional[dict[str, set[str]]] = None):
        self.canonical, self.bound = canonical, bound
        self.seen: dict[str, dict[str, str]] = {"%": {}, "&": {}, "^": {}}

    def _name(self, sigil: str, name: str) -> str:
        if not self.canonical or (self.bound is not None and name not in self.bound[sigil]):
            return name
        seen = self.seen[sigil]
        if name not in seen:
            seen[name] = f"{sigil}{len(seen)}"
        return seen[name]

    def var(self, name: str) -> str:
        return self._name("%", name)

    def ref(self, name: str) -> str:
        return self._name("&", name)

    def label(self, name: str) -> str:
        return self._name("^", name)


_WRITTEN = _Spelling(canonical=False)


def _const_text(c: Const) -> str:
    if c.type is Type.BOOL:
        return "true" if c.value else "false"
    if c.type is Type.UNIT:
        return "unit_value"
    if c.type is Type.U8:
        return f"{c.value}u8"
    if c.type is Type.I32:
        return f"{c.value}i32"
    return str(c.value)


def _atom_text(atom: Atom, sp: _Spelling = _WRITTEN) -> str:
    if isinstance(atom, Var):
        return sp.var(atom.name)
    if isinstance(atom, Const):
        return _const_text(atom)
    return f"{sp.var(atom.first)}, ..., {sp.var(atom.last)}"


def _atom_list_text(atoms: tuple[Atom, ...], sp: _Spelling) -> str:
    return ", ".join(_atom_text(a, sp) for a in atoms)


def _desc_text(desc: Desc, sp: _Spelling) -> str:
    return sp.var(desc.name) if desc.is_var else desc.name


def _expr_text(expr: Expr, sp: _Spelling) -> str:
    """Render an expression; `_instr_lines` prints opaque regions."""
    if isinstance(expr, AtomExpr):
        return _atom_text(expr.atom, sp)
    if isinstance(expr, UnaryExpr):
        return f"{expr.op}{_atom_text(expr.a, sp)}"
    if isinstance(expr, BinaryExpr):
        return f"{_atom_text(expr.a, sp)} {expr.op} {_atom_text(expr.b, sp)}"
    if isinstance(expr, LoadMem):
        return f"mem[{_atom_text(expr.addr, sp)}]"
    if isinstance(expr, LoadRef):
        return sp.ref(expr.ref)
    if isinstance(expr, IoRead):
        return f"io({_desc_text(expr.desc, sp)})"
    if isinstance(expr, SnapshotExpr):
        text = f"snapshot({_atom_list_text(expr.args, sp)})"
        if expr.tags and not sp.canonical:
            tag_text = ", ".join(
                f"{t.source_id[0]}:{t.source_id[1]}({','.join(t.names)})" for t in expr.tags
            )
            text += f" [obs {tag_text}]"
        return text
    if isinstance(expr, CallExpr):
        return f"{expr.callee}({_atom_list_text(expr.args, sp)})"
    if isinstance(expr, DescriptorExpr):
        return expr.name
    raise TypeError(expr)


def _instr_lines(instr: Instr, sp: _Spelling, indent: int, lines: list[str]):
    pad = " " * indent

    def emit(text: str):
        lines.append(pad + text)

    if isinstance(instr, Define):
        lhs_parts = []
        for r, a in zip(instr.results, instr.ann or (None,) * len(instr.results)):
            if isinstance(r, VarGroup):
                lhs_parts.append(_atom_text(r, sp))
            elif a is not None:
                lhs_parts.append(f"{sp.var(r)}: {a.value}")
            else:
                lhs_parts.append(sp.var(r))
        prefix = ", ".join(lhs_parts) + " = " if lhs_parts else ""
        if isinstance(instr.rhs, OpaqueExpr):
            emit(prefix + "opaque {")
            _region_lines(instr.rhs._body, sp, indent + 2, lines)
            emit("}")
        else:
            emit(prefix + _expr_text(instr.rhs, sp))
    elif isinstance(instr, RefAssign):
        emit(f"{sp.ref(instr.ref)} <- {_atom_text(instr.value, sp)}")
    elif isinstance(instr, MemStore):
        emit(f"mem[{_atom_text(instr.addr, sp)}] <- {_atom_text(instr.value, sp)}")
    elif isinstance(instr, IoWrite):
        parts = [_desc_text(instr.desc, sp)] + [_atom_text(v, sp) for v in instr.values]
        emit(f"io({', '.join(parts)})")
    elif isinstance(instr, Use):
        emit(f"use({_atom_list_text(instr.args, sp)})")
    elif isinstance(instr, Branch):
        def tgt(bc: BlockCall) -> str:
            if bc.args:
                return f"{sp.label(bc.label)}({_atom_list_text(bc.args, sp)})"
            return sp.label(bc.label)

        if instr.cond is None:
            emit(f"br {tgt(instr.then)}")
        else:
            emit(f"br {_atom_text(instr.cond, sp)}, {tgt(instr.then)}, {tgt(instr.els)}")
    elif isinstance(instr, Return):
        emit(f"return({_atom_list_text(instr.values, sp)})")
    elif isinstance(instr, Yield):
        emit(f"yield({_atom_list_text(instr.values, sp)})")
    else:
        raise TypeError(instr)


def _region_lines(region: Region, sp: _Spelling, indent: int, lines: list[str]):
    # Parsing gives back a first label left out when it is `entry`, takes
    # no parameters and no branch targets it; signatures print every label.
    first = region.blocks[0]
    hide_first = not sp.canonical and first.label == "entry" and not first.params and not any(
        isinstance(i, Branch) and "entry" in (i.then.label, i.els and i.els.label)
        for b in region.blocks
        for i in b.instrs
    )
    label_pad = " " * max(indent - 2, 0)
    for i, block in enumerate(region.blocks):
        if i or not hide_first:
            label = sp.label(block.label)
            if block.params:
                params = ", ".join(
                    f"{sp.var(p.name)}: {p.type.value}" if p.type else sp.var(p.name)
                    for p in block.params
                )
                label += f"({params})"
            lines.append(f"{label_pad}{label}:")
        for instr in block.instrs:
            _instr_lines(instr, sp, indent, lines)


def print_program(program: Program) -> str:
    """Program text; parsing it back yields a structurally identical
    program (source locations aside)."""
    lines: list[str] = []
    for m in program.macros:
        formals = list(m.formals.fixed)
        if m.formals.variadic:
            formals.append(f"{m.formals.variadic[0]}, ..., {m.formals.variadic[1]}")
        lines.append(f"macro {m.name}({', '.join(formals)}) {{")
        _region_lines(m.region, _WRITTEN, 2, lines)
        lines.append("}")
        lines.append("")
    for f in program.functions:
        params = ", ".join(f"{p.name}: {p.type.value}" for p in f.params)
        head = f"function {f.name}({params})"
        if f.ret_types is not None:
            head += " -> (" + ", ".join(t.value for t in f.ret_types) + ")"
        lines.append(head + " {")
        _region_lines(f.region, _WRITTEN, 2, lines)
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _canonical(print_lines: Callable, item, bound: Optional[dict] = None) -> str:
    lines: list[str] = []
    print_lines(item, _Spelling(True, bound), 0, lines)
    return "\n".join(lines)


def region_signature(region: Region) -> str:
    """The region printed with every name numbered: equal for two regions
    exactly when they are identical up to renaming, observation tags
    aside."""
    return _canonical(_region_lines, region)


def instr_signature(instr: Instr) -> str:
    """Canonical form of one instruction, abstracting variable names.

    Two instructions with the same signature are identical expressions up
    to variable renaming (constants, operators, annotations, descriptors
    and opaque region structure all compared concretely).
    """
    return _canonical(_instr_lines, instr)


def block_signature(block: Block) -> str:
    """The block printed with what it binds numbered: its label,
    parameters and results, and the names and labels bound in its opaque
    regions. Free names, references and branch targets print as written
    (and so does a region label named like a target), so two blocks with
    equal signatures compute the same values from the same inputs and
    storage, and branch to the same places."""
    region = Region((block,))
    labels = {b.label for b in walk_blocks(region)} - set(block_successors(region)[block.label])
    bound = {"%": region_defined_names(region), "&": set(), "^": labels}
    return _canonical(_region_lines, region, bound)


# --------------------------------------------------------------------------
# Macro expansion
# --------------------------------------------------------------------------

_FRESH_SUFFIX_RE = re.compile(r"__\d+$")


def fresh_namer(taken: Iterable[str] = ()) -> Callable[[str], str]:
    """A source of fresh names: each call drops any `__N` suffix from its
    argument and appends the next `__N`, counting up from the largest
    suffix in `taken` (from 1 when there is none)."""
    suffixes = (_FRESH_SUFFIX_RE.search(name) for name in taken)
    count = itertools.count(1 + max((int(m.group()[2:]) for m in suffixes if m), default=0))
    return lambda base: f"{_FRESH_SUFFIX_RE.sub('', base)}__{next(count)}"


class _Expander:
    _MAX_EXPANSIONS = 10_000

    def __init__(self, program: Program):
        self.macros = program.macro_map()
        self.fresh = fresh_namer()
        self.expansions = 0

    def expand_region(self, region: Region) -> Region:
        # Spliced instructions are queued for re-processing, so macros that
        # call macros (including inside opaque regions) settle in one pass.
        # Both queues are stacks, their heads last.
        blocks: list[Block] = []
        pending = list(reversed(region.blocks))
        while pending:
            block = pending.pop()
            instrs: list[Instr] = []
            block_label = block.label
            block_params = block.params
            remaining = list(reversed(block.instrs))
            while remaining:
                instr = remaining.pop()
                rhs = instr.rhs if type(instr) is Define else None
                if type(rhs) is OpaqueExpr:
                    inner = self.expand_region(rhs._body)
                    instrs.append(Define(instr.results, OpaqueExpr(inner), instr.ann, instr.loc))
                    continue
                if type(rhs) is not CallExpr or rhs.callee not in self.macros:
                    instrs.append(instr)
                    continue
                macro = self.macros[instr.rhs.callee]
                self.expansions += 1
                if self.expansions > self._MAX_EXPANSIONS:
                    raise MacroError(
                        f"macro expansion did not terminate at {macro.name} "
                        "(recursive macro?)",
                        instr.loc,
                    )
                body = self.instantiate(macro, instr)
                if len(body.blocks) == 1 and isinstance(body.blocks[0].instrs[-1], Return):
                    # Single-block macro: splice inline, returns become copies.
                    spliced = list(body.blocks[0].instrs)
                    ret = spliced.pop()
                    assert isinstance(ret, Return)
                    if len(instr.results) not in (0, len(ret.values)):
                        raise MacroError(
                            f"macro {macro.name} returns {len(ret.values)} values, "
                            f"{len(instr.results)} expected",
                            instr.loc,
                        )
                    for res, val in zip(instr.results, ret.values):
                        spliced.append(Define((res,), AtomExpr(val), loc=instr.loc))
                    remaining += reversed(spliced)
                    continue
                # Multi-block macro: split the current block around the call.
                cont_label = self.fresh("bb_cont")
                cont_params = tuple(Param(r) for r in instr.results if isinstance(r, str))
                entry_label = body.blocks[0].label
                instrs.append(Branch(None, BlockCall(entry_label), loc=instr.loc))
                blocks.append(Block(block_label, block_params, tuple(instrs)))
                rewritten = []
                for mb in body.blocks:
                    fixed: list[Instr] = []
                    for mi in mb.instrs:
                        if isinstance(mi, Return):
                            if len(instr.results) not in (0, len(mi.values)):
                                raise MacroError(
                                    f"macro {macro.name} returns {len(mi.values)} values, "
                                    f"{len(instr.results)} expected",
                                    instr.loc,
                                )
                            args = mi.values[: len(cont_params)]
                            fixed.append(Branch(None, BlockCall(cont_label, args), loc=instr.loc))
                        else:
                            fixed.append(mi)
                    rewritten.append(dc_replace(mb, instrs=tuple(fixed)))
                # Process the macro's blocks next, then resume this block
                # as the continuation taking the call results as params.
                pending.append(Block(cont_label, cont_params, tuple(reversed(remaining))))
                pending += reversed(rewritten)
                remaining = []
                block_label = None
            if block_label is not None:
                blocks.append(Block(block_label, block_params, tuple(instrs)))
        return Region(tuple(blocks))

    def instantiate(self, macro: Macro, call: Define) -> Region:
        """Rename macro locals, substitute formals, splice variadic groups.
        The renaming walk gives every instruction, nested ones included,
        the call site's source location."""
        args = call.rhs.args
        fixed, variadic = macro.formals.fixed, macro.formals.variadic
        if variadic is None:
            if len(args) != len(fixed):
                raise MacroError(
                    f"macro {macro.name} takes {len(fixed)} arguments, got {len(args)}",
                    call.loc,
                )
            var_actuals: tuple[Atom, ...] = ()
        else:
            if len(args) < len(fixed):
                raise MacroError(
                    f"macro {macro.name} takes at least {len(fixed)} arguments",
                    call.loc,
                )
            var_actuals = args[len(fixed):]
        subst: dict[object, object] = dict(zip(fixed, args))
        if variadic is not None:
            subst[VarGroup(*variadic)] = var_actuals
            if var_actuals:
                subst.setdefault(variadic[0], var_actuals[0])
                subst.setdefault(variadic[1], var_actuals[-1])
        if (scan := getattr(macro, "_scan", None)) is None:
            # The macro's locals, sorted, and its groups in first-use order.
            region = macro.region
            groups = {
                g: None
                for block in walk_blocks(region)
                for i in block.instrs
                for g in (*(i.results if type(i) is Define else ()), *instr_operand_atoms(i))
                if type(g) is VarGroup
            }
            scan = sorted(region_defined_names(region) | region_ref_names(region)), tuple(groups)
            object.__setattr__(macro, "_scan", scan)  # the macro is frozen
        binds = {name: self.fresh(name) for name in scan[0]}
        labels = {b.label: self.fresh(b.label) for b in macro.region.blocks}
        for g in scan[1]:
            if g in subst:
                continue
            if variadic is None:
                raise MacroError(
                    f"'{g.first}, ..., {g.last}' in non-variadic macro {macro.name}", call.loc
                )
            group = tuple(Var(self.fresh(g.first)) for _ in var_actuals)
            subst[g] = group
            # The group's first and last names also stand alone: after
            # `w1, ..., wk = snapshot(...)`, `yield(w1)` means the first
            # fresh result.
            if group:
                subst[g.first] = group[0]
                subst[g.last] = group[-1]
        uses = {name: Var(new) for name, new in binds.items()}
        uses.update(subst)
        return rename_region(macro.region, uses, binds, labels, call.loc)


def expand_macros(program: Program) -> Program:
    """Expand all macro calls; the result contains no macros. Expanded
    instructions carry the invocation site's source location, and default
    observation tags are assigned afterwards."""
    expander = _Expander(program)
    functions = []
    for f in program.functions:
        region = expander.expand_region(f.region)
        functions.append(dc_replace(f, region=region))
    return finalize_observations(Program(tuple(functions), ()))


def finalize_observations(program: Program) -> Program:
    """Give every untagged snapshot a default observation tag: the source
    id is the instruction's (line, col) — after macro expansion, that is
    the pattern-invocation site — and the names are the printed argument
    atoms, with loads rewritten to `mem[addr]` / reference names."""

    def region_def_exprs(region: Region) -> dict[str, Expr]:
        return {
            r: i.rhs
            for block in region.blocks
            for i in block.instrs
            if type(i) is Define
            for r in i.results
            if type(r) is str
        }

    def arg_name(atom: Atom, defs: dict[str, Expr]) -> str:
        if isinstance(atom, Const):
            return _const_text(atom)
        if isinstance(atom, VarGroup):
            return f"{atom.first}...{atom.last}"
        rhs = defs.get(atom.name)
        if isinstance(rhs, LoadMem):
            return f"mem[{_atom_text(rhs.addr)}]"
        if isinstance(rhs, LoadRef):
            return rhs.ref
        return atom.name

    def fix_function(f: Function) -> Function:
        def fix_region(region: Region) -> Region:
            # An unchanged region comes back as itself.
            defs = region_def_exprs(region)
            new_blocks = []
            changed = False
            for block in region.blocks:
                new_instrs = []
                for instr in block.instrs:
                    rhs = instr.rhs if type(instr) is Define else None
                    if type(rhs) is OpaqueExpr:
                        if (inner := fix_region(rhs._body)) is not rhs._body:
                            rhs = OpaqueExpr(inner)
                    elif type(rhs) is SnapshotExpr and not rhs.tags:
                        tag = ObsTag(instr.loc, tuple(arg_name(a, defs) for a in rhs.args))
                        rhs = SnapshotExpr(rhs.args, (tag,))
                    if rhs is not None and rhs is not instr.rhs:
                        instr = Define(instr.results, rhs, instr.ann, instr.loc)
                        changed = True
                    new_instrs.append(instr)
                new_blocks.append(Block(block.label, block.params, tuple(new_instrs)))
            return Region(tuple(new_blocks)) if changed else region

        fixed = dc_replace(f, region=fix_region(f.region))
        fix_region = None  # a recursive closure is a reference cycle: break it
        return fixed

    return Program(tuple(fix_function(f) for f in program.functions), program.macros)


# --------------------------------------------------------------------------
# Barrier-sanctioned rewrites
# --------------------------------------------------------------------------


def merge_obs_metadata(dst: Define, src: Define) -> Define:
    """Barrier-sanctioned metadata merge: when combining two identical
    snapshot-bearing opaque instructions, the surviving one carries the
    observation tags of both, each snapshot its own and its twin's."""
    if not isinstance(dst.rhs, OpaqueExpr) or not isinstance(src.rhs, OpaqueExpr):
        raise ValueError("metadata merge applies to opaque instructions")
    if dst.rhs.summary.identity != src.rhs.summary.identity:
        raise ValueError("metadata merge applies to identical opaque regions")
    return dc_replace(dst, rhs=OpaqueExpr(_merge_tags(dst.rhs._body, src.rhs._body)))


def _merge_tags(dst: Region, src: Region) -> Region:
    # Equal identities mean equal shapes, so the two regions zip
    # instruction by instruction, nested regions included.
    blocks = []
    for db, sb in zip(dst.blocks, src.blocks):
        instrs = []
        for d, s in zip(db.instrs, sb.instrs):
            if isinstance(d, Define) and isinstance(d.rhs, SnapshotExpr):
                d = dc_replace(d, rhs=dc_replace(d.rhs, tags=d.rhs.tags + s.rhs.tags))
            elif isinstance(d, Define) and isinstance(d.rhs, OpaqueExpr):
                d = dc_replace(d, rhs=OpaqueExpr(_merge_tags(d.rhs._body, s.rhs._body)))
            instrs.append(d)
        blocks.append(dc_replace(db, instrs=tuple(instrs)))
    return Region(tuple(blocks))


_NO_NAMES: Mapping = MappingProxyType({})


def rename_instr(
    instr: Instr,
    uses: Mapping,
    binds: Mapping[str, str] = _NO_NAMES,
    labels: Mapping[str, str] = _NO_NAMES,
    loc: Optional[tuple[int, int]] = None,
) -> Instr:
    """Barrier-sanctioned renaming of one instruction, through the opaque
    regions nested in it.

    `uses` maps a used name (an operand or a descriptor variable) to the
    atom that replaces it, and a `VarGroup` to the atoms spliced in its
    place (group results take those atoms' names). `binds` maps bound
    names (results, block parameters, references) to new names, and
    `labels` maps block labels. A `loc` replaces the source location of
    the instruction and of every instruction nested in it.

    Shadowing rule: inside an opaque region, a name bound there and not
    remapped by `binds` keeps its uses, so a region's behavior is
    preserved value for value whatever `uses` says about outer names.
    An empty renaming without `loc` returns `instr` itself.
    """
    if not (uses or binds or labels or loc):
        return instr
    at = instr.loc if loc is None else loc

    def one(atom: Atom) -> Atom:
        if isinstance(atom, Var):
            return uses.get(atom.name, atom)
        if isinstance(atom, VarGroup) and atom in uses:
            group = uses[atom]
            if len(group) != 1:
                raise MacroError("a variadic group cannot be used as a single value", instr.loc)
            return group[0]
        return atom

    def many(atoms: tuple[Atom, ...]) -> tuple[Atom, ...]:
        out: list[Atom] = []
        for a in atoms:
            if isinstance(a, VarGroup) and a in uses:
                out.extend(uses[a])
            else:
                out.append(one(a))
        return tuple(out)

    def desc(d: Desc) -> Desc:
        new = uses.get(d.name) if d.is_var else None
        return Desc(new.name, is_var=True) if isinstance(new, Var) else d

    def target(bc: Optional[BlockCall]) -> Optional[BlockCall]:
        if bc is None:
            return None
        return BlockCall(labels.get(bc.label, bc.label), many(bc.args))

    if isinstance(instr, Define):
        rhs = instr.rhs
        if isinstance(rhs, OpaqueExpr):
            if not binds and loc is None and uses.keys().isdisjoint(rhs.summary.uses):
                return instr
            body = rhs._body
            shadowed = {n for n in region_defined_names(body) if n in uses and n not in binds}
            if shadowed:
                uses = {k: v for k, v in uses.items() if k not in shadowed}
            rhs = OpaqueExpr(rename_region(body, uses, binds, labels, loc))
        elif isinstance(rhs, AtomExpr):
            rhs = AtomExpr(one(rhs.atom))
        elif isinstance(rhs, UnaryExpr):
            rhs = UnaryExpr(rhs.op, one(rhs.a))
        elif isinstance(rhs, BinaryExpr):
            rhs = BinaryExpr(rhs.op, one(rhs.a), one(rhs.b))
        elif isinstance(rhs, LoadMem):
            rhs = LoadMem(one(rhs.addr))
        elif isinstance(rhs, LoadRef):
            rhs = LoadRef(binds.get(rhs.ref, rhs.ref))
        elif isinstance(rhs, IoRead):
            rhs = IoRead(desc(rhs.desc))
        elif isinstance(rhs, SnapshotExpr):
            rhs = SnapshotExpr(many(rhs.args), rhs.tags)
        elif isinstance(rhs, CallExpr):
            rhs = CallExpr(rhs.callee, many(rhs.args))
        results: list[str] = []
        for r in instr.results:
            if isinstance(r, VarGroup) and r in uses:
                results.extend(a.name for a in uses[r])
            else:
                results.append(binds.get(r, r))
        ann = instr.ann
        if ann and len(results) != len(instr.results):
            ann = (ann + (None,) * len(results))[: len(results)]
        return Define(tuple(results), rhs, ann, at)
    if isinstance(instr, RefAssign):
        return RefAssign(binds.get(instr.ref, instr.ref), one(instr.value), at)
    if isinstance(instr, MemStore):
        return MemStore(one(instr.addr), one(instr.value), at)
    if isinstance(instr, IoWrite):
        return IoWrite(desc(instr.desc), many(instr.values), at)
    if isinstance(instr, Use):
        return Use(many(instr.args), at)
    if isinstance(instr, Branch):
        cond = one(instr.cond) if instr.cond is not None else None
        return Branch(cond, target(instr.then), target(instr.els), at)
    if isinstance(instr, Return):
        return Return(many(instr.values), at)
    if isinstance(instr, Yield):
        return Yield(many(instr.values), at)
    raise TypeError(instr)


def rename_region(
    region: Region,
    uses: Mapping,
    binds: Mapping[str, str] = _NO_NAMES,
    labels: Mapping[str, str] = _NO_NAMES,
    loc: Optional[tuple[int, int]] = None,
) -> Region:
    """`rename_instr` over a whole region, block labels and parameters
    included."""
    return Region(
        tuple(
            Block(
                labels.get(b.label, b.label),
                tuple(Param(binds.get(p.name, p.name), p.type) for p in b.params),
                tuple(rename_instr(i, uses, binds, labels, loc) for i in b.instrs),
            )
            for b in region.blocks
        )
    )


def freshen(instr: Instr, renames: dict[str, str], fresh: Callable[[str], str]) -> Instr:
    """Barrier-sanctioned copy of an instruction for code duplication:
    the names in `renames` are renamed, and every name bound inside an
    opaque region gets a fresh one, so the copies stay in single-assignment
    form. Block labels are scoped to their region and stay as they are, as
    do free uses, references and observation metadata, so behavior and
    identity are preserved."""
    if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
        renames = dict(renames)
        for block in walk_blocks(instr.rhs._body):
            for p in block.params:
                renames[p.name] = fresh(p.name)
            for i in block.instrs:
                if isinstance(i, Define):
                    for r in i.results:
                        if isinstance(r, str):
                            renames[r] = fresh(r)
    uses = {name: Var(new) for name, new in renames.items()}
    return rename_instr(instr, uses, renames)


# --------------------------------------------------------------------------
# CFG helpers
# --------------------------------------------------------------------------


def block_successors(region: Region) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {}
    for block in region.blocks:
        targets: list[str] = []
        last = block.instrs[-1] if block.instrs else None
        if isinstance(last, Branch):
            targets.append(last.then.label)
            if last.els is not None and last.els.label != last.then.label:
                targets.append(last.els.label)
        succ[block.label] = targets
    return succ


def _dominators_from(succ: dict[str, list[str]], entry: str) -> dict[str, set[str]]:
    """Iterative dominator sets, small CFGs by set intersection, keyed in
    `succ`'s order. Labels are visited in reverse postorder from `entry`,
    unreachable ones last, until nothing changes (Cooper, Harvey & Kennedy,
    "A Simple, Fast Dominance Algorithm", 2001): an acyclic graph settles
    in one pass. Every visiting order from all-labels sets ends at the
    same greatest fixpoint; a label without predecessors is dominated by
    itself alone."""
    labels = list(succ)
    if labels == [entry]:
        return {entry: {entry}}
    preds: dict[str, list[str]] = {l: [] for l in labels}
    for l, ts in succ.items():
        for t in ts:
            if t in preds:
                preds[t].append(l)
    order: list[str] = []  # postorder, by a depth-first walk
    seen = {entry}
    stack = [(entry, iter(succ.get(entry, ())))]
    while stack:
        for t in stack[-1][1]:
            if t not in seen and t in preds:
                seen.add(t)
                stack.append((t, iter(succ[t])))
                break
        else:
            order.append(stack.pop()[0])
    order.reverse()
    order += [l for l in labels if l not in seen]
    dom: dict[str, set[str]] = {l: set(labels) for l in labels}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for l in order:
            if l == entry:
                continue
            new = set.intersection(*[dom[p] for p in ps]) if (ps := preds[l]) else set()
            new.add(l)
            if new != dom[l]:
                dom[l] = new
                changed = True
    return dom


def compute_dominators(region: Region) -> dict[str, set[str]]:
    """Map each block label to the set of labels dominating it."""
    return _dominators_from(block_successors(region), region.entry.label)


def compute_postdominators(region: Region) -> dict[str, set[str]]:
    """Map each block label to the set of labels post-dominating it,
    against a virtual exit joining all return/yield blocks."""
    succ = block_successors(region)
    exits = [b.label for b in region.blocks if isinstance(b.instrs[-1], (Return, Yield))]
    # Post-dominators are dominators of the reversed CFG rooted at the exit.
    rsucc: dict[str, list[str]] = {l: [] for l in list(succ) + ["__exit__"]}
    for l, ts in succ.items():
        for t in ts:
            rsucc[t].append(l)
    for e in exits:
        rsucc["__exit__"].append(e)
    pdom = _dominators_from(rsucc, "__exit__")
    for l in pdom:
        pdom[l].discard("__exit__")
    pdom.pop("__exit__", None)
    return pdom


# --------------------------------------------------------------------------
# Validation and type inference
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    loc: tuple[int, int]
    message: str
    severity: str = "error"  # error | lint

    def __str__(self):
        return f"{self.loc[0]}:{self.loc[1]}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class TypeInfo:
    """Per-function variable and reference types and function return types,
    shared by every `typecheck` caller on one program: never mutate it."""

    var_types: dict[tuple[str, str], Type]
    ref_types: dict[tuple[str, str], Type]
    ret_types: dict[str, tuple[Type, ...]]


_ARITH_OPS = frozenset(["+", "-", "*", "/", "%"])
_BIT_OPS = frozenset(["&", "|", "^"])
_SHIFT_OPS = frozenset(["<<", ">>"])
_CMP_OPS = frozenset(["==", "!="])
_ORD_OPS = frozenset(["<", "<=", ">", ">="])


class _Validator:
    def __init__(self, program: Program):
        self.program = program
        # An insertion-ordered set: a check that runs again reports nothing new.
        self.diags: dict[Diagnostic, None] = {}
        self.info = TypeInfo({}, {}, {})
        self.fn_map = {f.name: f for f in program.functions}
        self.macro_names = {m.name for m in program.macros}
        self._inferring: set[str] = set()

    def error(self, loc, message):
        self.diags[Diagnostic(loc, message)] = None

    def lint(self, loc, message):
        self.diags[Diagnostic(loc, message, "lint")] = None

    # -- function return types (call graph order, recursion detected)

    def fn_ret_types(self, name: str, loc) -> Optional[tuple[Type, ...]]:
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

    def validate(self) -> tuple[list[Diagnostic], TypeInfo]:
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

    def check_function(self, fn: Function):
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

        # Unique names and the references over the whole region tree, and
        # the def sites and dominators of the function body and of each
        # opaque region in it.
        defined: dict[str, tuple[int, int]] = {}
        for p in fn.params:
            self._register(defined, p.name, fn.loc)
        scopes: dict[int, tuple[dict[str, tuple[str, int]], dict[str, set[str]]]] = {}
        ref_names: set[str] = set()

        def collect_defs(r: Region, sites: dict[str, tuple[str, int]]):
            for b in r.blocks:
                for p in b.params:
                    self._register(defined, p.name, (0, 0))
                    sites[p.name] = (b.label, -1)
                for pos, instr in enumerate(b.instrs):
                    if type(instr) is Define:
                        for res in instr.results:
                            if type(res) is str:
                                self._register(defined, res, instr.loc)
                                sites.setdefault(res, (b.label, pos))
                            else:
                                self.error(instr.loc, "unexpanded '...' group")
                        if type(instr.rhs) is OpaqueExpr:
                            collect_defs(instr.rhs._body, {})
                        elif type(instr.rhs) is LoadRef:
                            ref_names.add(instr.rhs.ref)
                    elif type(instr) is RefAssign:
                        ref_names.add(instr.ref)
            scopes[id(r)] = sites, compute_dominators(r)

        collect_defs(region, {p.name: ("", -1) for p in fn.params})
        for name in sorted(defined.keys() & ref_names):
            self.error(fn.loc, f"{name!r} is used both as a variable and a reference in {fn.name}")

        var_ty: dict[str, Type] = {p.name: p.type for p in fn.params if p.type is not None}
        ref_ty: dict[str, Type] = {}
        returns: list[tuple[tuple[Type, ...], tuple[int, int]]] = []
        # (var_ty or ref_ty, name) for each read of a name not typed yet
        missed: list[tuple[dict[str, Type], str]] = []

        def read(types: dict[str, Type], name: str) -> Optional[Type]:
            ty = types.get(name)
            if ty is None:
                missed.append((types, name))
            return ty

        def check_use(name: str, site, reaches: bool, opaque: bool, loc):
            # The error paths of a use, if any: `reaches` says whether the
            # definition at `site` reaches it (see `visit_region`).
            if name in ref_names and (site is None or not opaque):
                self.error(loc, f"reference {name!r} used as an operand")
            elif not reaches and site is not None:
                self.error(loc, f"use of {name!r} is not dominated by its definition")
            elif not reaches:
                self.error(loc, f"use of undefined variable {name!r}")

        def note_var(name: str, ty: Optional[Type], loc) -> None:
            if ty is not None and (old := var_ty.setdefault(name, ty)) is not ty:
                self.error(loc, f"{name!r} has conflicting types {old.value} and {ty.value}")

        def atom_type(atom: Atom, loc) -> Optional[Type]:
            if type(atom) is Const:
                return atom.type
            if type(atom) is VarGroup:
                self.error(loc, "unexpanded '...' group")
                return None
            return read(var_ty, atom.name)

        def expr_types(expr: Expr, instr: Define) -> Optional[list[Optional[Type]]]:
            loc = instr.loc
            t = type(expr)
            if t is BinaryExpr:
                ta = atom_type(expr.a, loc)
                tb = atom_type(expr.b, loc)
                op = expr.op
                if ta is None or tb is None:
                    if op in _CMP_OPS or op in _ORD_OPS:
                        return [Type.BOOL]
                    return [ta or tb] if op in _SHIFT_OPS else [ta if ta is not None else tb]
                if op in _SHIFT_OPS:
                    if ta not in INT_TYPES or tb not in INT_TYPES:
                        self.error(loc, "shift operands must be integers")
                    return [ta]
                if ta is not tb:
                    self.error(loc, f"operand types {ta.value} and {tb.value} do not agree")
                    return [None]
                if op in _ARITH_OPS:
                    if ta not in INT_TYPES:
                        self.error(loc, f"'{op}' applies to integer values")
                    return [ta]
                if op in _BIT_OPS:
                    if ta not in INT_TYPES and ta is not Type.BOOL:
                        self.error(loc, f"'{op}' applies to integer or bool values")
                    return [ta]
                if op in _CMP_OPS:
                    return [Type.BOOL]
                if op in _ORD_OPS:
                    if ta not in INT_TYPES:
                        self.error(loc, "ordered comparison applies to integer values")
                    return [Type.BOOL]
                raise AssertionError(op)
            if t is AtomExpr:
                return [atom_type(expr.atom, loc)]
            if t is UnaryExpr:
                ty = atom_type(expr.a, loc)
                if ty is None:
                    return [None]
                if expr.op == "!":
                    if ty is not Type.BOOL:
                        self.error(loc, "'!' applies to bool values")
                    return [Type.BOOL]
                if ty not in INT_TYPES:
                    self.error(loc, f"'{expr.op}' applies to integer values")
                    return [None]
                return [ty]
            if t is SnapshotExpr:
                return [atom_type(a, loc) for a in expr.args]
            if t is OpaqueExpr:
                ytypes: Optional[list[Optional[Type]]] = None
                for b in expr._body.blocks:
                    last = b.instrs[-1]
                    if type(last) is Yield:
                        tys = [atom_type(v, loc) for v in last.values]
                        if ytypes is None:
                            ytypes = tys
                        elif len(tys) != len(ytypes):
                            self.error(loc, "yields with different arities in one region")
                return ytypes if ytypes is not None else []
            if t is LoadMem:
                ty = atom_type(expr.addr, loc)
                if ty is not None and ty is not Type.U32:
                    self.error(loc, "memory addresses are u32 values")
                return [Type.U32]
            if t is LoadRef:
                return [read(ref_ty, expr.ref)]
            if t is IoRead:
                ann = instr.ann[0] if instr.ann else None
                return [ann or Type.U32]
            if t is CallExpr:
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
            if t is DescriptorExpr:
                return [Type.DESC]
            raise TypeError(expr)

        def visit_region(r: Region, opaque: bool):
            if r.blocks[0].params:
                self.error(
                    r.blocks[0].instrs[0].loc if r.blocks[0].instrs else (0, 0),
                    "entry block must not take parameters",
                )
            sites, dom = scopes[id(r)]
            block_map = {b.label: b for b in r.blocks}
            for b in r.blocks:
                label = b.label
                bdom = dom.get(label, ())
                for pos, instr in enumerate(b.instrs):
                    loc = instr.loc
                    for atom in instr_operand_atoms(instr):
                        if type(atom) is not Var:
                            continue
                        # A site is (block label, position): position -1 for
                        # a block parameter, label "" for a function
                        # parameter. An opaque region may use any name its
                        # function defines: dominance is checked only where
                        # the name is region-local.
                        name = atom.name
                        site = sites.get(name)
                        if site is None:
                            reaches = opaque and name in defined
                        elif site[0] == label:
                            reaches = site[1] < pos
                        else:
                            reaches = site[0] == "" or site[0] in bdom
                        if not reaches or name in ref_names:
                            check_use(name, site, reaches, opaque, loc)
                    t = type(instr)
                    if t is Define:
                        rhs = instr.rhs
                        t = type(rhs)
                        if t is SnapshotExpr and not opaque:
                            self.lint(loc, "snapshot outside an opaque region")
                        elif t is CallExpr and opaque and rhs.callee in self.fn_map:
                            self.error(loc, "function call inside an opaque region")
                        elif t is OpaqueExpr:
                            visit_region(rhs._body, True)
                        tys = expr_types(rhs, instr)
                        if tys is not None:
                            n = len(instr.results)
                            if t is SnapshotExpr or t is CallExpr or t is OpaqueExpr:
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
                                if type(res) is str:
                                    if ann is not None and ty is not None and ann is not ty:
                                        self.error(
                                            loc,
                                            f"{res!r} annotated {ann.value} but has type {ty.value}",
                                        )
                                    note_var(res, ann or ty, loc)
                    elif t is Branch:
                        if instr.cond is not None:
                            ct = atom_type(instr.cond, loc)
                            if ct is not None and ct is not Type.BOOL and ct not in INT_TYPES:
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
                    elif t is Use:
                        if not opaque:
                            self.lint(loc, "use() outside an opaque region")
                    elif t is RefAssign:
                        ty = atom_type(instr.value, loc)
                        if ty is not None and (old := ref_ty.setdefault(instr.ref, ty)) is not ty:
                            self.error(
                                loc,
                                f"reference {instr.ref!r} assigned both "
                                f"{old.value} and {ty.value}",
                            )
                    elif t is MemStore:
                        at = atom_type(instr.addr, loc)
                        vt = atom_type(instr.value, loc)
                        if at is not None and at is not Type.U32:
                            self.error(loc, "memory addresses are u32 values")
                        if vt is not None and vt is not Type.U32:
                            self.error(loc, "memory cells hold u32 values")
                    elif t is Return:
                        if opaque:
                            self.error(loc, "return inside an opaque region")
                        else:
                            tys = tuple(atom_type(v, loc) for v in instr.values)
                            if all(t is not None for t in tys):
                                returns.append((tys, loc))
                    elif t is Yield:
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
        rts: Optional[tuple[Type, ...]] = fn.ret_types
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


def validate_ssa(program: Program) -> list[Diagnostic]:
    """Full structural + SSA + type validation. Returns diagnostics
    (errors and lints), each once, in the order they were first found; an
    empty list means the program is well formed."""
    diags, _ = _Validator(program).validate()
    return diags


def typecheck(program: Program) -> TypeInfo:
    """Run validation and return inferred types, raising on errors: the
    message lists the first five, each once in the order found, and counts
    the rest. Only a success is stored on the immutable program, for later
    calls to share."""
    if (info := getattr(program, "_type_info", None)) is None:
        diags, info = _Validator(program).validate()
        if errors := [str(d) for d in diags if d.severity == "error"]:
            more = f"; and {len(errors) - 5} more" if len(errors) > 5 else ""
            raise IRError("; ".join(errors[:5]) + more)
        object.__setattr__(program, "_type_info", info)
    return info
