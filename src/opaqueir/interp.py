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

A program's functions are decoded once and the result is stored on the
program, so the class each instruction dispatches on is found once, not on
every execution. Runs are stored there too, weakly, and shared (see `run`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .ir import (
    AtomExpr,
    Atom,
    BinaryExpr,
    BlockCall,
    Branch,
    CallExpr,
    Const,
    Define,
    Desc,
    DescValue,
    DescriptorExpr,
    InstrId,
    IoRead,
    IoWrite,
    INT_TYPES,
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
    Var,
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
    if isinstance(a, bool) or ty not in INT_TYPES:
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


class _Code:
    """A region decoded for execution: per block its label, parameter names
    and steps, and each label's block index. A step is (instr, kind, iid,
    body): `kind` is the class the executor dispatches on, the
    expression's for a Define; `iid` is the instruction's id at function
    level; `body` is the decoded region of an opaque instruction."""

    __slots__ = ("blocks", "index")

    def __init__(self, region: Region, fname: Optional[str] = None):
        self.blocks: list[tuple[str, tuple[str, ...], tuple]] = []
        self.index: dict[str, int] = {}
        for bi, block in enumerate(region.blocks):
            steps = []
            for pos, instr in enumerate(block.instrs):
                kind = type(instr.rhs) if type(instr) is Define else type(instr)
                body = _Code(instr.rhs.region) if kind is OpaqueExpr else None
                iid = (fname, bi, pos) if fname is not None else None
                steps.append((instr, kind, iid, body))
            params = tuple(p.name for p in block.params)
            self.blocks.append((block.label, params, tuple(steps)))
            self.index[block.label] = bi


def _functions(program: Program) -> dict[str, tuple[tuple[str, ...], _Code]]:
    """Each function's parameter names and decoded body, stored on the
    immutable program like its `typecheck`."""
    if (code := getattr(program, "_code", None)) is None:
        code = {}
        with _unsealed():
            for f in program.functions:
                if f.name not in code:  # the first of a duplicate, as Program.function
                    code[f.name] = (tuple(p.name for p in f.params), _Code(f.region, f.name))
        object.__setattr__(program, "_code", code)
    return code


class _Frame:
    __slots__ = ("fname", "activation", "env", "refs")

    def __init__(self, fname: str, activation: int):
        self.fname = fname
        self.activation = activation
        self.env: dict[str, tuple[object, int]] = {}  # name -> (value, defining event)
        self.refs: dict[str, tuple[object, int]] = {}  # ref -> (value, writer event)


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


class _Agg:
    """Event buffer for one executed instruction: each variable it uses
    with its defining event (`du`, first use first) and value, and, once it
    performs one, the effects it performs (all of them, for an opaque
    instruction's whole region)."""

    __slots__ = ("du", "operands", "fx")

    def __init__(self):
        self.du: dict[str, int] = {}
        self.operands: list[tuple[str, object]] = []
        self.fx: Optional[_Effects] = None

    def effects(self) -> _Effects:
        if self.fx is None:
            self.fx = _Effects()
        return self.fx


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
        env = frame.env
        for name, value in defs:
            env[name] = (value, seq)
        return defs

    # -- evaluation

    def atom_value(self, frame: _Frame, scopes: Optional[list[dict]], atom: Atom, agg: _Agg):
        if type(atom) is Const:
            return atom.value
        name = atom.name
        if scopes:
            for env in reversed(scopes):
                if name in env:
                    return env[name]
        entry = frame.env.get(name)
        if entry is None:
            raise _Trap(f"undefined variable {name}")
        value = entry[0]
        if name not in agg.du:
            agg.du[name] = entry[1]
            agg.operands.append((name, value))
        return value

    def desc_value(self, frame: _Frame, scopes: Optional[list[dict]], desc: Desc, agg: _Agg) -> DescValue:
        if desc.is_var:
            value = self.atom_value(frame, scopes, Var(desc.name), agg)
            if not isinstance(value, DescValue):
                raise _Trap(f"{desc.name} does not hold a descriptor")
            return value
        return DescValue(desc.name)

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

    def operand_type(self, fname: str, atom: Atom, value) -> Type:
        if type(atom) is Const:
            return atom.type
        ty = self.type_info.get((fname, atom.name))
        if ty is not None:
            return ty
        return _type_of_value(value)

    def exec_instr(
        self,
        frame: _Frame,
        scopes: Optional[list[dict]],
        instr,
        kind: type,
        agg: _Agg,
        seq: int,
    ) -> tuple:
        """Execute one non-control instruction of dispatch class `kind` at
        function level (no `scopes`) or inside an opaque region, recording
        what it uses and does in `agg` on behalf of event `seq`. Returns
        the values a Define computes; a call or an opaque region is the
        caller's."""
        if kind is BinaryExpr:
            expr = instr.rhs
            a = self.atom_value(frame, scopes, expr.a, agg)
            b = self.atom_value(frame, scopes, expr.b, agg)
            return (eval_binary(expr.op, a, b, self.operand_type(frame.fname, expr.a, a)),)
        if kind is AtomExpr:
            return (self.atom_value(frame, scopes, instr.rhs.atom, agg),)
        if kind is UnaryExpr:
            expr = instr.rhs
            a = self.atom_value(frame, scopes, expr.a, agg)
            return (eval_unary(expr.op, a, self.operand_type(frame.fname, expr.a, a)),)
        if kind is LoadMem:
            addr = self.atom_value(frame, scopes, instr.rhs.addr, agg)
            value, writer = self.memory.get(addr, (0, 0))
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is SnapshotExpr:
            expr = instr.rhs
            values = tuple(self.atom_value(frame, scopes, a, agg) for a in expr.args)
            fx = agg.effects()
            fx.obs.append(ObsRecord(expr.tags, values, fx.next_pos()))
            return values
        if kind is IoRead:
            dv = self.desc_value(frame, scopes, instr.rhs.desc, agg)
            direction, ordered = self.channel_config(dv.channel)
            value, tag = self.io_read(dv.channel)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "r", tag, (value,), fx.next_pos()))
            return (value,)
        if kind is IoWrite:
            dv = self.desc_value(frame, scopes, instr.desc, agg)
            values = tuple(self.atom_value(frame, scopes, v, agg) for v in instr.values)
            direction, ordered = self.channel_config(dv.channel)
            tag = self.io_write(dv.channel, values)
            fx = agg.effects()
            fx.ios.append(IoRecord(dv.channel, ordered, "w", tag, values, fx.next_pos()))
            return ()
        if kind is MemStore:
            addr = self.atom_value(frame, scopes, instr.addr, agg)
            value = self.atom_value(frame, scopes, instr.value, agg)
            self.memory[addr] = (value, seq)
            agg.effects().stores.append((addr, value))
            return ()
        if kind is Use:
            for a in instr.args:
                self.atom_value(frame, scopes, a, agg)
            return ()
        if kind is LoadRef:
            ref = instr.rhs.ref
            if ref not in frame.refs:
                raise _Trap(f"reference {ref} read before assignment")
            value, writer = frame.refs[ref]
            fx = agg.effects()
            if writer != seq and writer not in fx.rf:
                fx.rf.append(writer)
            return (value,)
        if kind is RefAssign:
            value = self.atom_value(frame, scopes, instr.value, agg)
            frame.refs[instr.ref] = (value, seq)
            return ()
        if kind is DescriptorExpr:
            return (DescValue(instr.rhs.channel),)
        if kind is CallExpr:
            raise _Trap("function call inside an opaque region")
        where = "in an opaque region" if scopes is not None else "at function level"
        raise _Trap(f"illegal instruction {where}: {instr!r}")

    def take_branch(
        self, frame: _Frame, scopes: Optional[list[dict]], instr: Branch, agg: _Agg
    ) -> tuple[BlockCall, tuple]:
        """The branch's target and the values of its arguments."""
        target = instr.then
        if instr.cond is not None:
            cond = self.atom_value(frame, scopes, instr.cond, agg)
            taken = cond if isinstance(cond, bool) else cond != 0
            target = instr.then if taken else instr.els
        return target, tuple(self.atom_value(frame, scopes, a, agg) for a in target.args)

    # -- opaque regions

    def run_region(
        self, frame: _Frame, code: _Code, scopes: list[dict], agg: _Agg, seq: int
    ) -> tuple:
        """Execute a decoded opaque region atomically on behalf of event
        `seq` and return the values it yields. Region-local names live in
        `scopes`, innermost last; free names read the frame."""
        env: dict[str, object] = {}
        scopes = scopes + [env]
        blocks, index = code.blocks, code.index
        steps = blocks[0][2]
        while True:
            for instr, kind, _, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise _Trap("step budget exceeded")
                self.region_steps += 1
                if self.region_steps > self.opaque_budget:
                    raise _Trap("opaque region budget exceeded")
                if kind is Branch:
                    target, args = self.take_branch(frame, scopes, instr, agg)
                    _, params, steps = blocks[index[target.label]]
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
                raise _Trap("opaque region block fell through")

    # -- function execution

    def call_function(
        self,
        fname: str,
        args: tuple,
        arg_agg: _Agg,
        call_iid: Optional[InstrId],
        caller: Optional[_Frame],
        result_names: tuple[str, ...],
        depth: int,
    ) -> tuple:
        if depth > 200:
            raise _Trap("call stack too deep")
        params, code = self.functions[fname]
        blocks, index = code.blocks, code.index
        label, _, steps = blocks[0]
        self.activations += 1
        frame = _Frame(fname, self.activations)
        activation = frame.activation
        events = self.events

        # The call event defines the callee's parameters. The call
        # instruction executes in the caller's control context. Control
        # events have no effects; fields are passed by position, the cheap way.
        seq = len(events)
        events.append(
            Event(
                seq, "call", call_iid, caller.activation if caller else activation,
                self.bind(frame, params, args, seq), tuple(arg_agg.du.items()),
                (), (), (), (), tuple(arg_agg.operands),
            )
        )

        while True:
            for instr, kind, iid, body in steps:
                self.steps += 1
                if self.steps > self.step_budget:
                    raise _Trap("step budget exceeded")
                agg = _Agg()
                seq = len(events)
                if kind is CallExpr:
                    rhs = instr.rhs
                    call_args = tuple(self.atom_value(frame, None, a, agg) for a in rhs.args)
                    results = tuple(r for r in instr.results if isinstance(r, str))
                    self.call_function(rhs.callee, call_args, agg, iid, frame, results, depth + 1)
                    continue
                if kind is Branch:
                    target, args = self.take_branch(frame, None, instr, agg)
                    label, params, steps = blocks[index[target.label]]
                    events.append(
                        Event(
                            seq, "branch", iid, activation, self.bind(frame, params, args, seq),
                            tuple(agg.du.items()), (), (), (), (), tuple(agg.operands),
                        )
                    )
                    break
                if kind is Return:
                    values = tuple(self.atom_value(frame, None, v, agg) for v in instr.values)
                    events.append(
                        Event(
                            seq, "ret", iid, activation,
                            self.bind(caller, result_names, values, seq) if caller else (),
                            tuple(agg.du.items()), (), (), (), (), tuple(agg.operands),
                        )
                    )
                    return values
                opaque = body is not None
                if opaque:
                    self.region_steps = 0
                    values = self.run_region(frame, body, [], agg, seq)
                else:
                    values = self.exec_instr(frame, None, instr, kind, agg, seq)
                rf, stores, ios, obs = agg.fx.fields() if agg.fx else ((), (), (), ())
                events.append(
                    Event(
                        seq, "opaque" if opaque else "instr", iid, activation,
                        self.bind(frame, instr.results, values, seq) if values else (),
                        tuple(agg.du.items()), rf, stores, ios, obs, tuple(agg.operands),
                    )
                )
            else:
                raise _Trap(f"block {label} has no terminator")

    def run(self) -> RunResult:
        trapped = None
        # The initial event: everything constant is already defined here.
        self.events.append(Event(0, "init", None, 0))
        try:
            self.call_function("main", (), _Agg(), None, None, (), 0)
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
    continues. This is the rerun primitive behind opaque value sets;
    `type_info` only overrides the types `typecheck` caches on `program`.
    `inputs` is only read, so one spec serves any number of runs.

    Unpatched runs with the cached types are memoized on `program`, keyed by
    the content of `inputs` and both budgets, and held weakly: an equal run
    returns the same `RunResult` while some caller still holds it."""
    if type_info is None:
        from .ir import typecheck

        type_info = typecheck(program).var_types
    types = getattr(program, "_type_info", None)  # what `typecheck` caches
    if patch is not None or types is None or type_info is not types.var_types:
        return _Interp(program, inputs, step_budget, opaque_budget, patch, type_info).run()
    if (runs := getattr(program, "_runs", None)) is None:
        object.__setattr__(program, "_runs", runs := weakref.WeakValueDictionary())
    # What the run reads of `inputs`, values typed: `true == 1` traces apart.
    channels = inputs.channels.items() if inputs is not None else ()
    key = (step_budget, opaque_budget, *(
        (n, c.direction, c.ordered, tuple((type(v), v) for v in c.values)) for n, c in channels
    ))
    if (result := runs.get(key)) is None:
        result = _Interp(program, inputs, step_budget, opaque_budget, None, type_info).run()
        runs[key] = result
    return result
