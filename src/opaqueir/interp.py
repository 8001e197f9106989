"""Reference interpreter with full event capture.

Every run produces a totally ordered list of events: one per executed
instruction at function level, with branches defining their target's block
parameters, calls defining the callee's parameters and returns defining
the caller's result variables. An opaque instruction executes its whole
region atomically and appears as a single aggregated event carrying the
stores, I/O and observations performed inside and the events its loads
read from.

Each event is an `Event`, an immutable record (a named tuple): events
with equal fields are equal and hash alike. An event stores only what a
consumer reads; static facts of its instruction (source location,
function, block) are found through its `iid`.

Events capture precise dynamic dependence sources:

  * `du`   — for each variable operand, the event that defined it;
  * `rf`   — for each load, the event whose store produced the value
             (memory is global, references are activation local);
  * `operands` — the operand values themselves, used when comparing a
             dependent instruction's view of a value across reruns.

Semantics are deterministic and total except for traps: division or
remainder by zero, reading an exhausted or undeclared input channel,
reading a reference before assignment, and exceeded step budgets. A trap
ends the run; the events up to that point are kept.

A program's functions are decoded once into steps, stored on the program
(see `_Code`), and the executor builds each event straight from its step:
only an opaque instruction or one with effects (a load, store, I/O or
snapshot) fills an effect buffer. Runs are stored on the program too,
weakly, and shared (see `run`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .ir import (
    AtomExpr,
    BinaryExpr,
    BlockCall,
    Branch,
    CallExpr,
    Const,
    Define,
    DescValue,
    DescriptorExpr,
    InstrId,
    IoRead,
    IoWrite,
    IRError,
    LoadMem,
    LoadRef,
    MemStore,
    ObsTag,
    OpaqueExpr,
    Program,
    RefAssign,
    Region,
    Return,
    SnapshotExpr,
    Type,
    UNIT_VALUE,
    UnaryExpr,
    Unit,
    Use,
    Yield,
    TAILIO_CHANNEL,
    CC_CHANNEL,
    _SUFFIXES,
    _unsealed,
)

DEFAULT_STEP_BUDGET = 10_000_000
DEFAULT_OPAQUE_BUDGET = 1_000_000


class InterpError(IRError):
    pass


class _Trap(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


@dataclass
class Channel:
    name: str
    direction: str  # in | out
    ordered: bool
    values: list = field(default_factory=list)  # pre-tagged values for inputs


@dataclass
class InputSpec:
    channels: dict[str, Channel] = field(default_factory=dict)


_LITERALS = {"true": True, "false": False, "unit_value": UNIT_VALUE}


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text in _LITERALS:
        return _LITERALS[text]
    neg = text.startswith("-")
    body = text[1:] if neg else text
    suffix = next((s for s in _SUFFIXES if body.endswith(s)), "")
    ty = _SUFFIXES.get(suffix, Type.U32)  # unsuffixed is u32, as for program literals
    digits = body[: len(body) - len(suffix)]
    if not digits.isdigit():
        raise InterpError(f"bad input value {text!r}", (lineno, 1))
    value = -int(digits) if neg else int(digits)
    if _wrap(value, ty) != value:  # the program literals' limits
        raise InterpError(f"input value {text!r} out of range for {ty.value}", (lineno, 1))
    return value


def parse_input(text: str) -> InputSpec:
    """Parse an input file: `desc <name> in|out ordered|unordered` stanzas,
    with one pre-tagged value per line under each input descriptor."""
    spec = InputSpec()
    current: Optional[Channel] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("desc "):
            parts = line.split()
            if len(parts) != 4 or parts[2] not in ("in", "out") or parts[3] not in (
                "ordered",
                "unordered",
            ):
                raise InterpError(
                    "descriptor line must be `desc <name> in|out ordered|unordered`",
                    (lineno, 1),
                )
            name = parts[1]
            if name in (TAILIO_CHANNEL, CC_CHANNEL):
                raise InterpError(f"channel {name!r} is reserved", (lineno, 1))
            if name in spec.channels:
                raise InterpError(f"channel {name!r} declared twice", (lineno, 1))
            current = Channel(name, parts[2], parts[3] == "ordered")
            spec.channels[name] = current
            continue
        if current is None or current.direction != "in":
            raise InterpError(f"unexpected value line {line!r}", (lineno, 1))
        current.values.append(_parse_value(line, lineno))
    return spec


# --------------------------------------------------------------------------
# Events
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IoRecord:
    channel: str
    ordered: bool
    direction: str  # r | w
    tag: int  # per-channel sequence number (reads and writes separately)
    values: tuple
    pos: int = 0  # intra-event order, interleaving observations and I/O


@dataclass(frozen=True)
class ObsRecord:
    tags: tuple[ObsTag, ...]
    values: tuple
    pos: int = 0


class Event(NamedTuple):
    """One event of a run: an immutable record (a named tuple); events with
    equal fields are equal and hash alike. Fields and their readers:

    * `seq`, `kind`: all; `activation`: `deps` control dependence.
    * `iid`, the instruction executed (None only for `init` and the call of
      `main`): `deps` for its function, block and signature, `validate` for
      `EventMap` and witness locations, both through `ir.instr_at`.
    * `defs`, the (variable, value) pairs bound, a patch applied (a call
      binds the callee's parameters, a return the caller's results): the
      `deps` value sets and `validate.audit_value_utilization`.
    * `du`, (variable, defining event) per operand variable, and `rf`, the
      events whose store or reference write it reads: `deps`.
    * `stores`, (address, value): `validate.audit_erasure`.
    * `ios`, `obs`: `RunResult`, `deps` happens-before and `validate`.
    * `operands`, (variable, value) in `du` order: the `deps` value sets."""

    seq: int
    kind: str  # init | instr | opaque | branch | call | ret
    iid: Optional[InstrId]
    activation: int
    defs: tuple[tuple[str, object], ...] = ()
    du: tuple[tuple[str, int], ...] = ()
    rf: tuple[int, ...] = ()
    stores: tuple[tuple[int, int], ...] = ()
    ios: tuple[IoRecord, ...] = ()
    obs: tuple[ObsRecord, ...] = ()
    operands: tuple[tuple[str, object], ...] = ()

    @property
    def is_opaque(self) -> bool:
        """An opaque instruction or an I/O: what the opaque skeleton links."""
        return self.kind == "opaque" or bool(self.ios)


def value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Unit):
        return "unit"
    if isinstance(v, DescValue):
        return f"@{v.channel}"
    return str(v)


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------

def _mask(ty: Type) -> int:
    """The all-ones value of an integer type. Types are compared by identity:
    hashing an Enum member runs Python code."""
    if ty is Type.U32 or ty is Type.I32:
        return 0xFFFFFFFF
    if ty is Type.U8:
        return 0xFF
    raise KeyError(ty)


def _wrap(value: int, ty: Type) -> int:
    if ty is Type.U32:
        return value & 0xFFFFFFFF
    value &= _mask(ty)
    if ty is Type.I32 and value >= 2**31:
        value -= 2**32
    return value


def _type_of_value(v) -> Type:
    if isinstance(v, bool):
        return Type.BOOL
    if isinstance(v, Unit):
        return Type.UNIT
    if isinstance(v, int):
        return Type.U32  # refined by the static type where it matters
    raise TypeError(v)


def eval_unary(op: str, a, ty: Type):
    if op == "!":
        return not a
    if isinstance(a, bool) or not (ty is Type.U32 or ty is Type.U8 or ty is Type.I32):
        raise _Trap(f"operator {op} on non-integer value")
    if op == "-":
        return _wrap(-a, ty)
    if op == "~":
        return _wrap(~a, ty)
    raise AssertionError(op)


def _quotient(a: int, b: int, what: str) -> int:
    """a / b truncated toward zero."""
    if b == 0:
        raise _Trap(f"{what} by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _shift(a: int, b: int, ty: Type, left: bool) -> int:
    mask = _mask(ty)
    count = b & 0xFFFFFFFF
    if count >= mask.bit_length():
        return 0  # shifting by the full width or more yields zero
    return _wrap((a & mask) << count if left else (a & mask) >> count, ty)


_COMPARISONS = {
    "==": lambda a, b, ty: a == b,
    "!=": lambda a, b, ty: a != b,
    "<": lambda a, b, ty: a < b,
    "<=": lambda a, b, ty: a <= b,
    ">": lambda a, b, ty: a > b,
    ">=": lambda a, b, ty: a >= b,
}
_BINARY = {
    **_COMPARISONS,
    "+": lambda a, b, ty: _wrap(a + b, ty),
    "-": lambda a, b, ty: _wrap(a - b, ty),
    "*": lambda a, b, ty: _wrap(a * b, ty),
    "/": lambda a, b, ty: _wrap(_quotient(a, b, "division"), ty),
    "%": lambda a, b, ty: _wrap(a - _quotient(a, b, "remainder") * b, ty),
    "&": lambda a, b, ty: _wrap(a & b, ty),
    "|": lambda a, b, ty: _wrap(a | b, ty),
    "^": lambda a, b, ty: _wrap(a ^ b, ty),
    "<<": lambda a, b, ty: _shift(a, b, ty, True),
    ">>": lambda a, b, ty: _shift(a, b, ty, False),
}
_BOOL_BINARY = {
    "&": lambda a, b: a and b,
    "|": lambda a, b: a or b,
    "^": lambda a, b: a != b,
}


def eval_binary(op: str, a, b, ty: Type):
    """Evaluate a binary operator; `ty` is the type of the left operand
    (which by the type rules is the result type for arithmetic)."""
    if type(a) is bool and type(b) is bool and op not in _COMPARISONS:
        if op not in _BOOL_BINARY:
            raise _Trap(f"operator {op} on bool values")
        return _BOOL_BINARY[op](a, b)
    return _BINARY[op](a, b, ty)


# --------------------------------------------------------------------------
# Run results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """One execution, immutable as equal runs share it (see `run`)."""

    program: Program
    events: tuple[Event, ...]
    trapped: Optional[str]
    memory: Mapping[int, int]
    steps: int

    def io_behavior(self, exclude: frozenset[str] = frozenset()) -> dict:
        """Per-channel I/O behavior: ordered channels map to the value
        sequence, unordered ones to a sorted multiset. Keyed by
        (direction, channel)."""
        seqs: dict[tuple[str, str], list] = {}
        ordered: dict[tuple[str, str], bool] = {}
        for ev in self.events:
            for rec in ev.ios:
                if rec.channel in exclude:
                    continue
                key = (rec.direction, rec.channel)
                seqs.setdefault(key, []).append(rec.values)
                ordered[key] = rec.ordered or rec.direction == "r"
        out = {}
        for key, values in seqs.items():
            if ordered[key]:
                out[key] = ("ordered", tuple(values))
            else:
                out[key] = ("unordered", tuple(sorted(values, key=repr)))
        return out

    def render_trace(self) -> str:
        """Spec'd line format: OBS and IO lines in execution order."""
        lines = []
        for ev in self.events:
            recs: list[tuple[int, str]] = []
            for rec in ev.obs:
                src = "+".join(f"{t.source_id[0]}:{t.source_id[1]}" for t in rec.tags)
                pairs = []
                for tag in rec.tags:
                    for name, value in zip(tag.names, rec.values):
                        if isinstance(value, Unit):
                            continue
                        pairs.append(f"{name}={value_text(value)}")
                recs.append((rec.pos, f"OBS {src} {','.join(pairs)}".rstrip()))
            for rec in ev.ios:
                if rec.direction != "w":
                    continue
                if len(rec.values) == 0:
                    vtext = "unit"
                elif len(rec.values) == 1:
                    vtext = value_text(rec.values[0])
                else:
                    vtext = "(" + ",".join(value_text(v) for v in rec.values) + ")"
                recs.append((rec.pos, f"IO {rec.channel} {rec.tag}={vtext}"))
            recs.sort(key=lambda t: t[0])
            lines.extend(t[1] for t in recs)
        if self.trapped:
            lines.append(f"TRAP {self.trapped}")
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# The interpreter
# --------------------------------------------------------------------------


def _atom(atom) -> tuple:
    """A decoded operand: (name, None) for a variable, (None, value) for a constant."""
    return (None, atom.value) if type(atom) is Const else (atom.name, None)


def _uses(*atoms: tuple) -> tuple[str, ...]:
    """The distinct variables among decoded operands, first use first."""
    return tuple(dict.fromkeys(name for name, _ in atoms if name is not None))


def _values(names: Mapping, atoms: tuple) -> tuple:
    return tuple([value if name is None else names[name] for name, value in atoms])


_EFFECTS = frozenset({LoadMem, LoadRef, SnapshotExpr, IoRead, IoWrite, MemStore})
_new = tuple.__new__  # builds an Event without its Python-level __new__


class _Code:
    """A region decoded for execution, once per program: per block its
    label, parameter names and steps. A step is what executing one
    instruction needs, as a tuple (kind, iid, results, uses, args, body):

    * `kind`, the class the executor dispatches on (the expression's, for
      a Define), and `iid`, the instruction's id at function level;
    * `results`, the names a Define or a call binds;
    * `uses`, the variables the instruction reads, first read first: at
      function level, its event's `du` and `operands`;
    * `args`, the operands, each variable as (name, None) and each
      constant as (None, value), a literal descriptor as its `DescValue`;
      with an operator, its `_BINARY` entry and the type key (function,
      variable) of its left operand, or a constant's type; a branch's
      targets as (block index, arguments, uses); a call's callee by name
      (functions may recurse); an instruction illegal where it stands;
    * `body`, the decoded region of an opaque instruction.

    Only the steps of `_EFFECTS` and opaque instructions fill an `_Effects`."""

    __slots__ = ("blocks",)

    def __init__(self, region: Region, fname: str, top: bool = False):
        index = {block.label: bi for bi, block in enumerate(region.blocks)}
        self.blocks: list[tuple[str, tuple[str, ...], tuple]] = [
            (b.label, tuple(p.name for p in b.params),
             tuple(_step(instr, fname, index, (fname, bi, pos) if top else None)
                   for pos, instr in enumerate(b.instrs)))
            for bi, b in enumerate(region.blocks)
        ]


def _step(instr, fname: str, index: dict[str, int], iid: Optional[InstrId]) -> tuple:
    """Decode one instruction (see `_Code`)."""
    e = instr.rhs if type(instr) is Define else instr
    kind, reads, args, body = type(e), (), instr, None
    results = instr.results if e is not instr else ()
    if kind is BinaryExpr or kind is UnaryExpr:
        reads = (_atom(e.a), _atom(e.b)) if kind is BinaryExpr else (_atom(e.a),)
        key = e.a.type if type(e.a) is Const else (fname, e.a.name)  # the left operand's type
        args = (e.op, _BINARY.get(e.op), *reads, key)
    elif kind is AtomExpr or kind is LoadMem:
        reads = (args := _atom(e.atom if kind is AtomExpr else e.addr),)
    elif kind is MemStore:
        args = reads = (_atom(e.addr), _atom(e.value))
    elif kind is RefAssign:
        reads = (_atom(e.value),)
        args = (e.ref, *reads)
    elif kind is LoadRef:
        args = e.ref
    elif kind is SnapshotExpr or kind is Use:
        reads = tuple(map(_atom, e.args))
        args = (reads, e.tags) if kind is SnapshotExpr else reads
    elif kind is CallExpr:
        reads = tuple(map(_atom, e.args))
        args, results = (e.callee, reads), tuple(r for r in results if isinstance(r, str))
    elif kind is Return or kind is Yield:
        reads = tuple(map(_atom, e.values))
        args = reads if (kind is Return) == (iid is not None) else instr
    elif kind is IoRead or kind is IoWrite:
        desc = (e.desc.name, None) if e.desc.is_var else (None, DescValue(e.desc.name))
        values = tuple(map(_atom, e.values)) if kind is IoWrite else ()
        args, reads = (desc, values), (desc, *values)
    elif kind is DescriptorExpr:
        args = DescValue(e.channel)
    elif kind is Branch:
        cond = _atom(e.cond) if e.cond is not None else (None, True)  # always taken

        def target(t: BlockCall) -> tuple:
            atoms = tuple(map(_atom, t.args))
            return index[t.label], atoms, _uses(cond, *atoms)

        args = (cond, target(e.then), target(e.els) if e.els is not None else None)
    elif kind is OpaqueExpr:
        body = _Code(e.region, fname)
    return kind, iid, results, _uses(*reads), args, body


def _functions(program: Program) -> dict[str, tuple[tuple[str, ...], _Code]]:
    """Each function's parameter names and decoded body, stored on the
    immutable program like its `typecheck`."""
    if (code := getattr(program, "_code", None)) is None:
        code = {}
        with _unsealed():
            for f in program.functions:
                if f.name not in code:  # the first of a duplicate, as Program.function
                    code[f.name] = (tuple(p.name for p in f.params), _Code(f.region, f.name, True))
        object.__setattr__(program, "_code", code)
    return code


class _Names(dict):
    """Variable values by name. A name missing here is read from `outer`; a
    mapping that `keeps` also stores it, so the one an opaque region reads
    its frame through lists the frame variables read, first read first.
    With no `outer` (a frame's names), a missing name traps."""

    __slots__ = ("outer", "keeps")

    def __init__(self, outer: Optional[Mapping] = None, keeps: bool = False):
        self.outer, self.keeps = outer, keeps

    def __missing__(self, name: str):
        if self.outer is None:
            raise _Trap(f"undefined variable {name}")
        value = self.outer[name]
        if self.keeps:
            self[name] = value
        return value


class _Frame:
    __slots__ = ("activation", "names", "seqs", "refs")

    def __init__(self, activation: int):
        self.activation = activation
        self.names = _Names()
        self.seqs: dict[str, int] = {}  # name -> defining event
        self.refs: dict[str, tuple[object, int]] = {}  # ref -> (value, writer event)

    def reads(self, used) -> tuple[tuple, tuple]:
        """The `du` and `operands` of an event that read the variables `used`."""
        if len(used) == 1:
            (name,) = used
            return ((name, self.seqs[name]),), ((name, self.names[name]),)
        return tuple([(n, self.seqs[n]) for n in used]), tuple([(n, self.names[n]) for n in used])


class _Effects:
    """The events one event reads from, its stores, I/O and observations, in
    Event field order; `pos` numbers I/O and observations."""

    __slots__ = ("rf", "stores", "ios", "obs", "pos")

    def __init__(self):
        self.rf: list[int] = []
        self.stores: list[tuple[int, int]] = []
        self.ios: list[IoRecord] = []
        self.obs: list[ObsRecord] = []
        self.pos = 0

    def next_pos(self) -> int:
        self.pos += 1
        return self.pos

    def fields(self) -> tuple:
        return tuple(self.rf), tuple(self.stores), tuple(self.ios), tuple(self.obs)


class _Interp:
    def __init__(
        self,
        program: Program,
        inputs: Optional[InputSpec],
        step_budget: int,
        opaque_budget: int,
        patch: Optional[tuple[int, str, object]],
        type_info: dict[tuple[str, str], Type],
    ):
        self.functions = _functions(program)
        self.program = program
        self.channels = inputs.channels if inputs is not None else {}  # only read
        self.step_budget = step_budget
        self.opaque_budget = opaque_budget
        self.patch_seq, self.patch_name, self.patch_value = patch or (-1, None, None)
        self.type_info = type_info
        self.steps = 0
        self.region_steps = 0  # steps of the function-level opaque instruction running
        self.events: list[Event] = []
        self.memory: dict[int, tuple[int, int]] = {}  # addr -> (value, writer seq)
        self.read_cursor: dict[str, int] = {}
        self.write_count: dict[str, int] = {}
        self.activations = 0

    # -- plumbing

    def bind(self, frame: _Frame, names: tuple[str, ...], values: tuple, seq: int) -> tuple:
        """Bind `names` to `values` in `frame` as event `seq`'s definitions,
        the patched one replaced, and return them as the event's defs."""
        defs = tuple(zip(names, values))
        if seq == self.patch_seq:
            defs = tuple((n, self.patch_value if n == self.patch_name else v) for n, v in defs)
        env, seqs = frame.names, frame.seqs
        for name, value in defs:
            env[name] = value
            seqs[name] = seq
        return defs

    # -- evaluation

    def channel_config(self, channel: str) -> tuple[str, bool]:
        if channel == TAILIO_CHANNEL:
            return ("out", False)
        if channel == CC_CHANNEL:
            return ("out", True)
        cfg = self.channels.get(channel)
        if cfg is not None:
            return (cfg.direction, cfg.ordered)
        return ("out", True)  # writes auto-declare an ordered output channel

    def io_read(self, channel: str) -> tuple[object, int]:
        direction, _ = self.channel_config(channel)
        cfg = self.channels.get(channel)
        if cfg is None or direction != "in":
            raise _Trap(f"read from undeclared input channel {channel}")
        cursor = self.read_cursor.get(channel, 0)
        if cursor >= len(cfg.values):
            raise _Trap(f"input channel {channel} exhausted")
        self.read_cursor[channel] = cursor + 1
        return cfg.values[cursor], cursor

    def io_write(self, channel: str, values: tuple) -> int:
        direction, _ = self.channel_config(channel)
        if direction == "in":
            raise _Trap(f"write to input channel {channel}")
        tag = self.write_count.get(channel, 0)
        self.write_count[channel] = tag + 1
        return tag

    def exec_instr(
        self, frame: _Frame, names: _Names, kind: type, args, fx: Optional[_Effects], seq: int
    ) -> tuple:
        """Execute one decoded non-control instruction of class `kind`,
        reading variables from `names` (the frame's, or an opaque region's
        scope) and recording its effects, if any, in `fx` for event `seq`.
        Returns the values a Define computes; a call or a region is the caller's."""
        if kind is BinaryExpr:
            op, fn, (an, a), (bn, b), ty = args  # ty: a type key for a variable
            if an is not None:
                a = names[an]
                ty = self.type_info.get(ty) or _type_of_value(a)
            if bn is not None:
                b = names[bn]
            if fn is None or (type(a) is bool and type(b) is bool):
                return (eval_binary(op, a, b, ty),)
            return (fn(a, b, ty),)
        if kind is AtomExpr:
            name, value = args
            return (value if name is None else names[name],)
        if kind is UnaryExpr:
            op, _, (name, a), ty = args
            if name is not None:
                a = names[name]
                ty = self.type_info.get(ty) or _type_of_value(a)
            return (eval_unary(op, a, ty),)
        if kind is LoadMem or kind is LoadRef:
            if kind is LoadRef:
                if args not in frame.refs:
                    raise _Trap(f"reference {args} read before assignment")
                value, writer = frame.refs[args]
            else:
                name, addr = args
                value, writer = self.memory.get(addr if name is None else names[name], (0, 0))
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is SnapshotExpr:
            atoms, tags = args
            values = _values(names, atoms)
            fx.obs.append(ObsRecord(tags, values, fx.next_pos()))
            return values
        if kind is IoRead or kind is IoWrite:
            (name, dv), atoms = args
            if name is not None and not isinstance(dv := names[name], DescValue):
                raise _Trap(f"{name} does not hold a descriptor")
            values = _values(names, atoms)  # none for a read
            direction, ordered = self.channel_config(dv.channel)
            if kind is IoWrite:
                tag = self.io_write(dv.channel, values)
                fx.ios.append(IoRecord(dv.channel, ordered, "w", tag, values, fx.next_pos()))
                return ()
            value, tag = self.io_read(dv.channel)
            fx.ios.append(IoRecord(dv.channel, ordered, "r", tag, (value,), fx.next_pos()))
            return (value,)
        if kind is MemStore:
            addr, value = _values(names, args)
            self.memory[addr] = (value, seq)
            fx.stores.append((addr, value))
            return ()
        if kind is Use:
            _values(names, args)
            return ()
        if kind is RefAssign:
            ref, (name, value) = args
            frame.refs[ref] = (value if name is None else names[name], seq)
            return ()
        if kind is DescriptorExpr:
            return (args,)
        if kind is CallExpr:
            raise _Trap("function call inside an opaque region")
        where = "in an opaque region" if names.outer is not None else "at function level"
        raise _Trap(f"illegal instruction {where}: {args!r}")

    def take_branch(self, names: _Names, args: tuple) -> tuple[tuple, tuple]:
        """The branch's decoded target and the values of its arguments."""
        (name, value), target, els = args
        if name is not None:
            value = names[name]
        if not (value if isinstance(value, bool) else value != 0):
            target = els
        return target, _values(names, target[1])

    # -- opaque regions

    def run_region(
        self, frame: _Frame, code: _Code, outer: _Names, fx: _Effects, seq: int
    ) -> tuple:
        """Execute a decoded opaque region atomically on behalf of event
        `seq` and return the values it yields. Region-local names live in
        a scope of their own; free names are read from `outer`."""
        names = _Names(outer)
        blocks = code.blocks
        steps = blocks[0][2]
        while True:
            for kind, _, results, _, args, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise _Trap("step budget exceeded")
                self.region_steps += 1
                if self.region_steps > self.opaque_budget:
                    raise _Trap("opaque region budget exceeded")
                if kind is Branch:
                    target, values = self.take_branch(names, args)
                    _, params, steps = blocks[target[0]]
                    names.update(zip(params, values))
                    break
                if kind is Yield:
                    return _values(names, args)
                if body is not None:
                    values = self.run_region(frame, body, names, fx, seq)
                else:
                    values = self.exec_instr(frame, names, kind, args, fx, seq)
                if values:
                    names.update(zip(results, values))
            else:
                raise _Trap("opaque region block fell through")

    # -- function execution

    def call_function(self, fname: str, args: tuple, call_iid: Optional[InstrId],
                      caller: Optional[_Frame], result_names: tuple, call_reads: tuple, depth: int):
        """Run `fname` on `args` as a new activation, building each event here:
        an opaque instruction's `du` and `operands` are the frame variables its
        region reads, any other's its step's `uses`. `call_reads` is the call
        event's `du` and `operands`, read in the caller."""
        if depth > 200:
            raise _Trap("call stack too deep")
        params, code = self.functions[fname]
        blocks = code.blocks
        label, _, steps = blocks[0]
        self.activations += 1
        frame = _Frame(self.activations)
        activation = frame.activation
        names, seqs = frame.names, frame.seqs
        events = self.events
        patch_seq = self.patch_seq

        # The call event defines the callee's parameters. The call
        # instruction executes in the caller's control context.
        seq = len(events)
        du, operands = call_reads
        defs = self.bind(frame, params, args, seq)
        events.append(_new(Event, (seq, "call", call_iid, caller.activation if caller else
                                   activation, defs, du, (), (), (), (), operands)))

        while True:
            for kind, iid, results, uses, args, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise _Trap("step budget exceeded")
                seq = len(events)
                if kind is Branch:
                    (bi, _, uses), values = self.take_branch(names, args)
                    label, params, steps = blocks[bi]
                    du, operands = frame.reads(uses)
                    defs = self.bind(frame, params, values, seq)
                    events.append(_new(Event, (seq, "branch", iid, activation, defs,
                                               du, (), (), (), (), operands)))
                    break
                if kind is Return:
                    values = _values(names, args)
                    du, operands = frame.reads(uses)
                    defs = self.bind(caller, result_names, values, seq) if caller else ()
                    events.append(_new(Event, (seq, "ret", iid, activation, defs,
                                               du, (), (), (), (), operands)))
                    return values
                if kind is CallExpr:
                    callee, atoms = args
                    values = _values(names, atoms)
                    reads = frame.reads(uses)
                    self.call_function(callee, values, iid, frame, results, reads, depth + 1)
                    continue
                fx = _Effects() if body is not None or kind in _EFFECTS else None
                if body is not None:
                    self.region_steps = 0
                    uses = _Names(names, keeps=True)  # the frame variables the region reads
                    values = self.run_region(frame, body, uses, fx, seq)
                else:
                    values = self.exec_instr(frame, names, kind, args, fx, seq)
                du, operands = frame.reads(uses)
                rf, stores, ios, obs = fx.fields() if fx is not None else ((), (), (), ())
                if not values:
                    defs = ()
                elif len(values) == 1 and results:  # one result, bound inline
                    name, value = results[0], values[0]
                    if seq == patch_seq and name == self.patch_name:
                        value = self.patch_value
                    names[name] = value
                    seqs[name] = seq
                    defs = ((name, value),)
                else:
                    defs = self.bind(frame, results, values, seq)
                events.append(_new(Event, (seq, "instr" if body is None else "opaque", iid,
                                           activation, defs, du, rf, stores, ios, obs, operands)))
            else:
                raise _Trap(f"block {label} has no terminator")

    def run(self) -> RunResult:
        trapped = None
        # The initial event: everything constant is already defined here.
        self.events.append(Event(0, "init", None, 0))
        try:
            self.call_function("main", (), None, None, (), ((), ()), 0)
        except _Trap as trap:
            trapped = trap.reason
        memory = MappingProxyType({addr: value for addr, (value, _) in self.memory.items()})
        return RunResult(self.program, tuple(self.events), trapped, memory, self.steps)


def run(
    program: Program,
    inputs: Optional[InputSpec] = None,
    *,
    step_budget: int = DEFAULT_STEP_BUDGET,
    opaque_budget: int = DEFAULT_OPAQUE_BUDGET,
    patch: Optional[tuple[int, str, object]] = None,
    type_info: Optional[dict] = None,
) -> RunResult:
    """Execute `main` and return the event trace.

    `patch`, when given, is `(seq, var, value)`: immediately after event
    `seq` binds `var`, the binding is replaced with `value` and execution
    continues. This is the rerun primitive behind opaque value sets.
    Types come from `typecheck(program)`; `type_info`, if given, must be
    its `var_types`. `inputs` is only read, so one spec serves any number
    of runs.

    Unpatched runs are memoized on `program`, keyed by the content of
    `inputs` and both budgets, and held weakly: an equal run returns the
    same `RunResult` while some caller still holds it."""
    from .ir import typecheck  # looked up per call: a tracer may wrap `ir.typecheck`

    types = typecheck(program).var_types
    if type_info is not None and type_info is not types:
        raise ValueError("type_info must be typecheck(program).var_types")
    if patch is not None:
        return _Interp(program, inputs, step_budget, opaque_budget, patch, types).run()
    if (runs := getattr(program, "_runs", None)) is None:
        object.__setattr__(program, "_runs", runs := weakref.WeakValueDictionary())
    # What the run reads of `inputs`, values typed: `true == 1` traces apart.
    channels = inputs.channels.items() if inputs is not None else ()
    key = (step_budget, opaque_budget, *(
        (n, c.direction, c.ordered, tuple((type(v), v) for v in c.values)) for n, c in channels
    ))
    if (result := runs.get(key)) is None:
        result = _Interp(program, inputs, step_budget, opaque_budget, None, types).run()
        runs[key] = result
    return result
