"""Reference interpreter with full event capture.

Every run produces a totally ordered list of events: one per executed
instruction at function level, with branches defining their target's block
parameters, calls defining the callee's parameters and returns defining
the caller's result variables. An opaque instruction executes its whole
region atomically and appears as a single aggregated event carrying the
loads, stores, I/O and observations performed inside.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    IRError,
    LoadMem,
    LoadRef,
    MemStore,
    ObsTag,
    OpaqueExpr,
    Program,
    RefAssign,
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

    def copy(self) -> "InputSpec":
        return InputSpec(
            {
                n: Channel(c.name, c.direction, c.ordered, list(c.values))
                for n, c in self.channels.items()
            }
        )


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


@dataclass(frozen=True)
class Event:
    seq: int
    kind: str  # init | instr | opaque | branch | call | ret
    iid: Optional[InstrId]
    loc: tuple[int, int]
    activation: int
    func: str
    block: str
    defs: tuple[tuple[str, object], ...] = ()
    uses: tuple[str, ...] = ()
    du: tuple[tuple[str, int], ...] = ()
    rf: tuple[int, ...] = ()
    loads: tuple[tuple[int, int], ...] = ()
    stores: tuple[tuple[int, int], ...] = ()
    ref_reads: tuple[tuple[str, object], ...] = ()
    ref_writes: tuple[tuple[str, object], ...] = ()
    ios: tuple[IoRecord, ...] = ()
    obs: tuple[ObsRecord, ...] = ()
    is_opaque: bool = False
    operands: tuple[tuple[str, object], ...] = ()
    branch_taken: Optional[str] = None

    def def_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.defs)


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

_MASK = {Type.U8: 0xFF, Type.U32: 0xFFFFFFFF, Type.I32: 0xFFFFFFFF}


def _wrap(value: int, ty: Type) -> int:
    value &= _MASK[ty]
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
    if isinstance(a, bool) or ty not in _MASK:
        raise _Trap(f"operator {op} on non-integer value")
    if op == "-":
        return _wrap(-a, ty)
    if op == "~":
        return _wrap(~a, ty)
    raise AssertionError(op)


def eval_binary(op: str, a, b, ty: Type):
    """Evaluate a binary operator; `ty` is the type of the left operand
    (which by the type rules is the result type for arithmetic)."""
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if isinstance(a, bool) and isinstance(b, bool):
        if op == "&":
            return a and b
        if op == "|":
            return a or b
        if op == "^":
            return a != b
        raise _Trap(f"operator {op} on bool values")
    if op == "+":
        return _wrap(a + b, ty)
    if op == "-":
        return _wrap(a - b, ty)
    if op == "*":
        return _wrap(a * b, ty)
    if op == "/":
        if b == 0:
            raise _Trap("division by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return _wrap(q, ty)
    if op == "%":
        if b == 0:
            raise _Trap("remainder by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return _wrap(a - q * b, ty)
    if op in ("&", "|", "^"):
        bits = _MASK[ty]
        ua, ub = a & bits, b & bits
        r = ua & ub if op == "&" else ua | ub if op == "|" else ua ^ ub
        return _wrap(r, ty)
    if op in ("<<", ">>"):
        bits = {Type.U8: 8, Type.U32: 32, Type.I32: 32}[ty]
        count = b & _MASK[Type.U32]
        if count >= bits:
            return 0  # shifting by the full width or more yields zero
        if op == "<<":
            return _wrap((a & _MASK[ty]) << count, ty)
        return _wrap((a & _MASK[ty]) >> count, ty)
    raise AssertionError(op)


# --------------------------------------------------------------------------
# Run results
# --------------------------------------------------------------------------


@dataclass
class RunResult:
    program: Program
    events: list[Event]
    trapped: Optional[str]
    memory: dict[int, int]
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


class _Frame:
    __slots__ = ("fname", "activation", "env", "def_ev", "refs")

    def __init__(self, fname: str, activation: int):
        self.fname = fname
        self.activation = activation
        self.env: dict[str, object] = {}
        self.def_ev: dict[str, int] = {}
        self.refs: dict[str, tuple[object, int]] = {}


class _Agg:
    """Event buffer for one executed instruction: the variables it uses,
    their defining events and values, and the effects it performs (all
    of them, for an opaque instruction's whole region)."""

    __slots__ = (
        "uses", "du", "operands",
        "loads", "stores", "rf", "ref_reads", "ref_writes", "ios", "obs", "pos",
    )

    def __init__(self):
        self.uses: list[str] = []
        self.du: list[tuple[str, int]] = []
        self.operands: list[tuple[str, object]] = []
        self.loads: list[tuple[int, int]] = []
        self.stores: list[tuple[int, int]] = []
        self.rf: list[int] = []
        self.ref_reads: list[tuple[str, object]] = []
        self.ref_writes: list[tuple[str, object]] = []
        self.ios: list[IoRecord] = []
        self.obs: list[ObsRecord] = []
        self.pos = 0

    def note(self, name: str, value, src: Optional[int]):
        if name not in self.uses:
            self.uses.append(name)
            self.operands.append((name, value))
            if src is not None:
                self.du.append((name, src))

    def next_pos(self) -> int:
        self.pos += 1
        return self.pos


class _Interp:
    def __init__(
        self,
        program: Program,
        inputs: Optional[InputSpec],
        step_budget: int,
        opaque_budget: int,
        patch: Optional[tuple[int, str, object]],
    ):
        self.program = program
        self.inputs = (inputs or InputSpec()).copy()
        self.step_budget = step_budget
        self.opaque_budget = opaque_budget
        self.patch = patch
        self.steps = 0
        self.events: list[Event] = []
        self.memory: dict[int, tuple[int, int]] = {}  # addr -> (value, writer seq)
        self.read_cursor: dict[str, int] = {}
        self.write_count: dict[str, int] = {}
        self.activations = 0
        self.block_index: dict[tuple[str, str], int] = {}
        for f in program.functions:
            for i, b in enumerate(f.region.blocks):
                self.block_index[(f.name, b.label)] = i

    # -- plumbing

    def tick(self, opaque_steps: Optional[list[int]] = None):
        self.steps += 1
        if self.steps > self.step_budget:
            raise _Trap("step budget exceeded")
        if opaque_steps is not None:
            opaque_steps[0] += 1
            if opaque_steps[0] > self.opaque_budget:
                raise _Trap("opaque region budget exceeded")

    def emit(self, event: Event):
        assert event.seq == len(self.events)
        self.events.append(event)

    def bind(self, frame: _Frame, name: str, value, seq: int):
        if self.patch is not None and self.patch[0] == seq and self.patch[1] == name:
            value = self.patch[2]
        frame.env[name] = value
        frame.def_ev[name] = seq
        return value

    # -- evaluation

    def atom_value(self, frame: _Frame, scopes: Optional[list[dict]], atom: Atom, agg: _Agg):
        if isinstance(atom, Const):
            return atom.value
        assert isinstance(atom, Var), atom
        name = atom.name
        if scopes is not None:
            for env in reversed(scopes):
                if name in env:
                    return env[name]
        if name in frame.env:
            value = frame.env[name]
            agg.note(name, value, frame.def_ev.get(name))
            return value
        raise _Trap(f"undefined variable {name}")

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
        cfg = self.inputs.channels.get(channel)
        if cfg is not None:
            return (cfg.direction, cfg.ordered)
        return ("out", True)  # writes auto-declare an ordered output channel

    def io_read(self, channel: str) -> tuple[object, int]:
        direction, _ = self.channel_config(channel)
        cfg = self.inputs.channels.get(channel)
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

    type_info: dict[tuple[str, str], Type] = {}

    def operand_type(self, fname: str, atom: Atom, value) -> Type:
        if isinstance(atom, Const):
            return atom.type
        ty = self.type_info.get((fname, atom.name)) if isinstance(atom, Var) else None
        if ty is not None:
            return ty
        return _type_of_value(value)

    def exec_instr(
        self,
        frame: _Frame,
        scopes: Optional[list[dict]],
        instr,
        agg: _Agg,
        seq: int,
    ) -> tuple:
        """Execute one non-control instruction at function level (no
        `scopes`) or inside an opaque region, recording what it uses and
        does in `agg` on behalf of event `seq`. Returns the values a
        Define computes; a call or an opaque region is the caller's."""
        if isinstance(instr, Define):
            expr = instr.rhs
            fname = frame.fname
            if isinstance(expr, AtomExpr):
                return (self.atom_value(frame, scopes, expr.atom, agg),)
            if isinstance(expr, UnaryExpr):
                a = self.atom_value(frame, scopes, expr.a, agg)
                ty = self.operand_type(fname, expr.a, a)
                return (eval_unary(expr.op, a, ty),)
            if isinstance(expr, BinaryExpr):
                a = self.atom_value(frame, scopes, expr.a, agg)
                b = self.atom_value(frame, scopes, expr.b, agg)
                ty = self.operand_type(fname, expr.a, a)
                return (eval_binary(expr.op, a, b, ty),)
            if isinstance(expr, LoadMem):
                addr = self.atom_value(frame, scopes, expr.addr, agg)
                value, writer = self.memory.get(addr, (0, 0))
                agg.loads.append((addr, value))
                if writer != seq and writer not in agg.rf:
                    agg.rf.append(writer)
                return (value,)
            if isinstance(expr, LoadRef):
                if expr.ref not in frame.refs:
                    raise _Trap(f"reference {expr.ref} read before assignment")
                value, writer = frame.refs[expr.ref]
                agg.ref_reads.append((expr.ref, value))
                if writer != seq and writer not in agg.rf:
                    agg.rf.append(writer)
                return (value,)
            if isinstance(expr, IoRead):
                dv = self.desc_value(frame, scopes, expr.desc, agg)
                direction, ordered = self.channel_config(dv.channel)
                value, tag = self.io_read(dv.channel)
                agg.ios.append(
                    IoRecord(dv.channel, ordered, "r", tag, (value,), agg.next_pos())
                )
                return (value,)
            if isinstance(expr, DescriptorExpr):
                return (DescValue(expr.channel),)
            if isinstance(expr, SnapshotExpr):
                values = tuple(self.atom_value(frame, scopes, a, agg) for a in expr.args)
                agg.obs.append(ObsRecord(expr.tags, values, agg.next_pos()))
                return values
            if isinstance(expr, CallExpr):
                raise _Trap("function call inside an opaque region")
            raise AssertionError(f"unexpected expression {expr!r}")
        if isinstance(instr, Use):
            for a in instr.args:
                self.atom_value(frame, scopes, a, agg)
        elif isinstance(instr, RefAssign):
            value = self.atom_value(frame, scopes, instr.value, agg)
            frame.refs[instr.ref] = (value, seq)
            agg.ref_writes.append((instr.ref, value))
        elif isinstance(instr, MemStore):
            addr = self.atom_value(frame, scopes, instr.addr, agg)
            value = self.atom_value(frame, scopes, instr.value, agg)
            self.memory[addr] = (value, seq)
            agg.stores.append((addr, value))
        elif isinstance(instr, IoWrite):
            dv = self.desc_value(frame, scopes, instr.desc, agg)
            values = tuple(self.atom_value(frame, scopes, v, agg) for v in instr.values)
            direction, ordered = self.channel_config(dv.channel)
            tag = self.io_write(dv.channel, values)
            agg.ios.append(IoRecord(dv.channel, ordered, "w", tag, values, agg.next_pos()))
        else:
            where = "in an opaque region" if scopes is not None else "at function level"
            raise _Trap(f"illegal instruction {where}: {instr!r}")
        return ()

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
        self,
        frame: _Frame,
        expr: OpaqueExpr,
        scopes: list[dict],
        agg: _Agg,
        seq: int,
        opaque_steps: list[int],
    ) -> tuple:
        """Execute an opaque region atomically on behalf of event `seq`
        and return the values it yields. Region-local names live in
        `scopes`, innermost last; free names read the frame."""
        with _unsealed():
            region = expr.region
        env: dict[str, object] = {}
        scopes = scopes + [env]
        block = region.blocks[0]
        while True:
            for instr in block.instrs:
                self.tick(opaque_steps)
                if isinstance(instr, Define):
                    if isinstance(instr.rhs, OpaqueExpr):
                        values = self.run_region(frame, instr.rhs, scopes, agg, seq, opaque_steps)
                    else:
                        values = self.exec_instr(frame, scopes, instr, agg, seq)
                    for res, val in zip(instr.results, values):
                        env[res] = val
                elif isinstance(instr, Branch):
                    target, args = self.take_branch(frame, scopes, instr, agg)
                    block = region.block(target.label)
                    for p, v in zip(block.params, args):
                        env[p.name] = v
                    break
                elif isinstance(instr, Yield):
                    return tuple(self.atom_value(frame, scopes, v, agg) for v in instr.values)
                else:
                    self.exec_instr(frame, scopes, instr, agg, seq)
            else:
                raise _Trap("opaque region block fell through")

    # -- function execution

    def call_function(
        self,
        fname: str,
        args: tuple,
        arg_agg: _Agg,
        call_iid: Optional[InstrId],
        call_loc: tuple[int, int],
        caller: Optional[_Frame],
        result_names: tuple[str, ...],
        depth: int,
    ) -> tuple:
        if depth > 200:
            raise _Trap("call stack too deep")
        fn = self.program.function(fname)
        self.activations += 1
        frame = _Frame(fname, self.activations)

        # The call event defines the callee's parameters.
        seq = len(self.events)
        defs = []
        for p, v in zip(fn.params, args):
            defs.append((p.name, self.bind(frame, p.name, v, seq)))
        # The call instruction executes in the caller's control context.
        self.emit(
            Event(
                seq=seq,
                kind="call",
                iid=call_iid,
                loc=call_loc,
                activation=caller.activation if caller else frame.activation,
                func=caller.fname if caller else fname,
                block=(
                    self.program.function(call_iid[0]).region.blocks[call_iid[1]].label
                    if call_iid
                    else fn.region.blocks[0].label
                ),
                defs=tuple(defs),
                uses=tuple(arg_agg.uses),
                du=tuple(arg_agg.du),
                operands=tuple(arg_agg.operands),
            )
        )

        region = fn.region
        block = region.blocks[0]
        bi = 0
        while True:
            for pos, instr in enumerate(block.instrs):
                self.tick()
                iid = (fname, bi, pos)
                agg = _Agg()
                seq = len(self.events)
                kind = "instr"
                defs = []
                if isinstance(instr, Define):
                    rhs = instr.rhs
                    if isinstance(rhs, CallExpr):
                        call_args = tuple(self.atom_value(frame, None, a, agg) for a in rhs.args)
                        self.call_function(
                            rhs.callee,
                            call_args,
                            agg,
                            iid,
                            instr.loc,
                            frame,
                            tuple(r for r in instr.results if isinstance(r, str)),
                            depth + 1,
                        )
                        continue
                    if isinstance(rhs, OpaqueExpr):
                        kind = "opaque"
                        values = self.run_region(frame, rhs, [], agg, seq, [0])
                    else:
                        values = self.exec_instr(frame, None, instr, agg, seq)
                    for res, val in zip(instr.results, values):
                        defs.append((res, self.bind(frame, res, val, seq)))
                elif isinstance(instr, Branch):
                    target, args = self.take_branch(frame, None, instr, agg)
                    bi = self.block_index[(fname, target.label)]
                    next_block = region.blocks[bi]
                    for p, v in zip(next_block.params, args):
                        defs.append((p.name, self.bind(frame, p.name, v, seq)))
                    self.emit(
                        Event(
                            seq=seq,
                            kind="branch",
                            iid=iid,
                            loc=instr.loc,
                            activation=frame.activation,
                            func=fname,
                            block=block.label,
                            defs=tuple(defs),
                            uses=tuple(agg.uses),
                            du=tuple(agg.du),
                            operands=tuple(agg.operands),
                            branch_taken=target.label,
                        )
                    )
                    block = next_block
                    break
                elif isinstance(instr, Return):
                    values = tuple(self.atom_value(frame, None, v, agg) for v in instr.values)
                    if caller is not None:
                        for res, val in zip(result_names, values):
                            defs.append((res, self.bind(caller, res, val, seq)))
                    self.emit(
                        Event(
                            seq=seq,
                            kind="ret",
                            iid=iid,
                            loc=instr.loc,
                            activation=frame.activation,
                            func=fname,
                            block=block.label,
                            defs=tuple(defs),
                            uses=tuple(agg.uses),
                            du=tuple(agg.du),
                            operands=tuple(agg.operands),
                        )
                    )
                    return values
                else:
                    self.exec_instr(frame, None, instr, agg, seq)
                self.emit(
                    Event(
                        seq=seq,
                        kind=kind,
                        iid=iid,
                        loc=instr.loc,
                        activation=frame.activation,
                        func=fname,
                        block=block.label,
                        defs=tuple(defs),
                        uses=tuple(agg.uses),
                        du=tuple(agg.du),
                        rf=tuple(agg.rf),
                        loads=tuple(agg.loads),
                        stores=tuple(agg.stores),
                        ref_reads=tuple(agg.ref_reads),
                        ref_writes=tuple(agg.ref_writes),
                        ios=tuple(agg.ios),
                        obs=tuple(agg.obs),
                        is_opaque=kind == "opaque" or bool(agg.ios),
                        operands=tuple(agg.operands),
                    )
                )
            else:
                raise _Trap(f"block {block.label} has no terminator")

    def run(self) -> RunResult:
        trapped = None
        # The initial event: everything constant is already defined here.
        self.emit(
            Event(
                seq=0,
                kind="init",
                iid=None,
                loc=(0, 0),
                activation=0,
                func="",
                block="",
            )
        )
        try:
            self.call_function("main", (), _Agg(), None, (0, 0), None, (), 0)
        except _Trap as trap:
            trapped = trap.reason
        memory = {addr: value for addr, (value, _) in self.memory.items()}
        return RunResult(self.program, self.events, trapped, memory, self.steps)


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
    `type_info` only overrides the types `typecheck` caches on `program`."""
    interp = _Interp(program, inputs, step_budget, opaque_budget, patch)
    if type_info is not None:
        interp.type_info = type_info
    else:
        from .ir import typecheck

        interp.type_info = typecheck(program).var_types
    return interp.run()
