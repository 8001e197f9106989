"""Seeded program generator for the benchmark workloads.

Every program is built together with a Python model of its values, so
the expected `out` writes follow from how the program was built and not
from the interpreter or the passes under test. Each case also carries
the observation-stripped twin of its program: the same computation with
every observation removed, which is the baseline of the protection
overhead.

Workloads (why each was chosen):

* corpus: eleven mid-size programs per seed, one per slot of SLOTS, so
  every job covers straight-line arithmetic, diamonds, memory, helper
  calls with short recursion, and counted loops on both sides of 16
  trips, and every observation pattern. Each slot's structure is fixed
  and its size set by a stratum of 50..400 instructions; the seed draws
  the content, so the total work of a job barely moves with the seed.
  Programs are large and traces short, so the front end and the passes
  do most of their work here.
* long-loop: one tiny program whose single counted loop runs a trip
  count read from input (a few hundred), with a memory store/load and a
  decoupled observation anchored by tail I/O in every iteration. Compile
  cost is almost nil; dependence analysis, happens-before and ordering
  run on one long trace.
* chain-audit: a small loop with a literal trip count carrying a byte
  accumulator through `observe_and_opacify`, with a token observation at
  the exit. Every opaque link from a byte is enumerated over the byte
  domain, so the interpreter and `deps.analyze` run thousands of times
  on short traces.

The corpus does not avoid the known `loop_unroll` defects: a loop whose
exit block captures a header parameter, or whose body binds a descriptor
inside an opaque region, and whose trip count is at most 16 makes
`optimize(..., "Pz")` raise `IRError`. Such cases count as failed
operations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

MASK = 0xFFFFFFFF

PRESETS = ("P0", "P1", "P2", "P3", "Ps", "Pz")
UNSAFE = "unsafe"  # unsafe_const_fold_opaque, a column beside the presets
PATTERNS = ("monolithic", "decoupled_tailio", "cc", "opacify")

CORPUS_SIZES = (50, 400)
# The chain audit treats every io instruction as an opaque event and
# samples u32 values for input reads, so its cost depends on the values
# and on how chains multiply: 0.3 to 40 s for programs of 50 to 130
# instructions with observations, and a spread of 0.8 of the median
# across seeds even at 50. The corpus therefore audits the stripped
# twins, whose only opaque events are io, and not those of the helper
# calls: their recursion depth comes from the input, which the audit
# samples, so their reruns vary widely with the draw. chain-audit
# carries the audit of observations.
AUDITED_KINDS = ("straight", "diamond", "memory", "loop")
LONG_LOOP_TRIPS = 300
CHAIN_TRIPS = 2


@dataclass(frozen=True)
class Case:
    """One program under test with everything needed to check it."""

    name: str
    kind: str
    pattern: str
    flags: tuple[str, ...]  # structural features the verdicts depend on
    text: str
    twin: str  # the same program with every observation stripped
    inputs: tuple[str, ...]  # input files, one per run
    expected_out: tuple[tuple[int, ...], ...]  # values written to `out`, per input
    presets: tuple[str, ...]
    audit_preset: str | None  # preset whose result gets the chain audit
    audit_twin: bool  # audit the twin rather than the program (METRICS.md)

    @property
    def foldable(self) -> bool:
        """Holds an observed opaque region yielding a constant, which
        `unsafe_const_fold_opaque` folds away."""
        return "foldable" in self.flags

    @property
    def key(self) -> str:
        """Verdict-table key: the structure, never the seed."""
        return "/".join((self.kind, self.pattern) + self.flags)


# --------------------------------------------------------------------------
# Program builder with a value model
# --------------------------------------------------------------------------

_OPS = {
    "+": lambda a, b: (a + b) & MASK,
    "-": lambda a, b: (a - b) & MASK,
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "*": lambda a, b: (a * b) & MASK,
}
_NAME = re.compile(r"\b[a-z][a-z0-9_]*\b")


class Builder:
    """Emits program lines and models the value of every name on the
    program's input. Observation lines are tagged so the twin can drop
    them; `alias` maps a name an observation defined to what the twin
    uses instead."""

    def __init__(self, rng: random.Random, pattern: str):
        self.rng = rng
        self.pattern = pattern
        self.lines: list[tuple[str, bool]] = []
        self.alias: dict[str, str] = {}
        self.vals: dict[str, int] = {}
        self.out: list[int] = []
        self.counter = 0
        self.pending_tokens: list[str] = []

    def fresh(self, base: str = "v") -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def emit(self, line: str, obs: bool = False) -> None:
        self.lines.append(("  " + line, obs))

    def label(self, text: str) -> None:
        self.lines.append((text + ":", False))

    def const(self) -> int:
        return self.rng.randrange(1, 1 << 16)

    def binop(self, op: str, a: str, b) -> str:
        """`v = a op b`, b a name or an int literal."""
        v = self.fresh()
        self.vals[v] = _OPS[op](self.vals[a], self.vals[b] if isinstance(b, str) else b)
        self.emit(f"{v} = {a} {op} {b}")
        return v

    def arith(self, pool: list[str]) -> str:
        """One random step `v = last op literal` extending the pool's
        chain. Every value feeds the next one and stays live up to the
        next `out` write, so an observation is anchored by use, not
        removed as dead code. The right operand is always a literal:
        a second value of the chain could cancel against the first,
        statically (instcombine flattens xor trees) or at run time, and
        either makes verdicts and the chain audit's sampling depend on
        the draw. Literal & keeps the high half and literal * is odd, so
        every step stays sensitive to the inputs."""
        op = self.rng.choice("+-^&|*")
        lit = self.const()
        if op == "&":
            lit |= 0xFFFF0000
        if op == "*":
            lit |= 1
        v = self.binop(op, pool[-1], lit)
        pool.append(v)
        return v

    def write(self, v: str) -> None:
        self.emit(f"io(out, {v})")
        self.out.append(self.vals[v])

    def observe(self, v: str, mem_addr: int | None = None) -> str:
        """Observe `v` under the case's pattern. Returns the name later
        code should use: the opacified or artificially defined copy for
        the patterns that make one, `v` otherwise."""
        p = self.pattern
        if p == "monolithic":
            self.emit(f"{self.fresh('t')} = observe_monolithic({v})", obs=True)
            return v
        if p == "decoupled_tailio":
            t = self.fresh("t")
            if mem_addr is not None:
                self.emit(f"{t} = observe_pair({mem_addr})", obs=True)
            else:
                prev = self.pending_tokens[-1:]
                args = ", ".join([v] + prev)
                self.emit(f"{t} = observe_decoupled({args})", obs=True)
            self.pending_tokens.append(t)
            if len(self.pending_tokens) >= 3:
                self.anchor()
            return v
        if p == "cc":
            if self.rng.random() < 0.5:
                self.emit(f"observe_cc({v})", obs=True)
                return v
            u = self.fresh("o")
            self.emit(f"{u} = artificial_def_cc({v})", obs=True)
            self.alias[u] = v
            self._copy_val(u, v)
            return u
        u = self.fresh("o")
        macro = "__opacify" if self.rng.random() < 0.3 else "observe_and_opacify"
        self.emit(f"{u} = {macro}({v})", obs=True)
        self.alias[u] = v
        self._copy_val(u, v)
        return u

    def _copy_val(self, u: str, v: str) -> None:
        # Loop-body names are modelled per iteration, not here.
        if v in self.vals:
            self.vals[u] = self.vals[v]

    def anchor(self) -> None:
        """Anchor the pending decoupled tokens with one tail-I/O write."""
        if not self.pending_tokens:
            return
        toks = self.pending_tokens
        self.pending_tokens = []
        if len(toks) > 1:
            k = self.fresh("k")
            self.emit(f"{k} = token({', '.join(toks)})", obs=True)
            toks = [k]
        sugar = "__io" if self.rng.random() < 0.3 else "observe_tailio"
        self.emit(f"{self.fresh('u')} = {sugar}({toks[0]})", obs=True)

    def foldable(self, v: str) -> str:
        """An observed opaque region that yields a constant."""
        x = self.fresh("f")
        c = self.const()
        self.emit(f"{x} = opaque {{ {self.fresh('s')} = snapshot({v}); yield({c}) }}", obs=True)
        self.alias[x] = str(c)
        self.vals[x] = c
        return x

    def root(self, name: str) -> str:
        """What the twin writes for `name`."""
        while name in self.alias:
            name = self.alias[name]
        return name

    def render(self, twin: bool) -> list[str]:
        if not twin:
            return [line for line, _ in self.lines]
        sub = lambda m: self.root(m.group(0))  # noqa: E731
        return [_NAME.sub(sub, line) for line, obs in self.lines if not obs]


def _input_text(values: list[int]) -> str:
    return "desc inp in ordered\n" + "".join(f"{v}\n" for v in values)


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------

N_READS = 3


def _body_straight(b: Builder, pool: list[str], budget: int, xor_cancel: bool = False) -> None:
    for step in range(budget):
        v = b.arith(pool)
        if step % 8 == 7:
            pool.append(b.observe(v))
        if step % 24 == 23:
            b.write(pool[-1])
    if xor_cancel:
        # `(m ^ c) ^ m` folds to `c`: the write loses its dependence on
        # the observed value. Nothing else uses m, and the write has a
        # channel of its own (the chain audit matches a link's tail by
        # instruction shape), so the verdicts do not depend on what the
        # random chain around it does.
        m = b.observe(pool[-1])
        b.emit(f"io(cancel, {b.binop('^', b.binop('^', m, b.const()), m)})")


def _body_diamond(b: Builder, pool: list[str], budget: int) -> None:
    used = 0
    while used < budget:
        x = pool[-1]
        k = b.rng.randrange(1 << 31, 3 << 30)
        c, lt, lf, lj = b.fresh("c"), b.fresh("bt"), b.fresh("bf"), b.fresh("bj")
        b.anchor()
        b.emit(f"{c} = {x} < {k}")
        taken = b.vals[x] < k
        b.emit(f"br {c}, {lt}, {lf}")
        arms = []
        for lab in (lt, lf):
            b.label(lab)
            arm_pool = list(pool)
            for _ in range(b.rng.randrange(2, 5)):
                b.arith(arm_pool)
            y = b.observe(arm_pool[-1])
            b.anchor()
            b.emit(f"br {lj}({y})")
            arms.append(b.vals[y])
        p = b.fresh("p")
        b.label(f"{lj}({p})")
        b.vals[p] = arms[0] if taken else arms[1]
        pool.append(p)
        b.arith(pool)
        b.write(pool[-1])
        used += 12


def _body_memory(b: Builder, pool: list[str], budget: int) -> None:
    mem: dict[int, tuple[int, ...]] = {}
    for step in range(budget // 3):
        addr = b.rng.randrange(16)
        v = b.arith(pool)
        b.emit(f"mem[{addr}] <- {v}")
        mem[addr] = b.vals[v]
        if step % 5 == 4:
            b.emit(f"mem[{addr}] <- {pool[-2]}")  # overwrites: the first store is dead
            mem[addr] = b.vals[pool[-2]]
        src = b.rng.choice(sorted(mem))
        w = b.fresh("m")
        b.emit(f"{w} = mem[{src}]")
        b.vals[w] = mem[src]
        pool.append(b.observe(w, mem_addr=src) if step % 4 == 3 else w)
        pool.append(b.binop("+", pool[-1], v))  # keeps v live whatever the store
        if step % 8 == 7:
            b.write(pool[-1])


def _helper(b: Builder, name: str, size: int) -> tuple[list[str], Callable[[int], int]]:
    """A pure helper `name(x) -> u32` and its Python model."""
    steps = []
    lines = [f"function {name}(x: u32) -> (u32) {{"]
    cur = "x"
    for i in range(size):
        op = b.rng.choice("+^*|-")
        k = b.rng.randrange(1, 1 << 16)
        lines.append(f"  y{i} = {cur} {op} {k}")
        steps.append((op, k))
        cur = f"y{i}"
    lines += [f"  return({cur})", "}"]

    def model(x: int) -> int:
        for op, k in steps:
            x = _OPS[op](x, k)
        return x

    return lines, model


_REC = """function rec(n: u32) -> (u32) {
  c = n < 1
  br c, base, step
base:
  return(1)
step:
  m = n - 1
  r = rec(m)
  p = r * 3
  q = p + n
  return(q)
}"""


def _rec_model(n: int) -> int:
    return 1 if n < 1 else (_rec_model(n - 1) * 3 + n) & MASK


def _body_calls(b: Builder, pool: list[str], budget: int, functions: list[str]) -> None:
    models = []
    for h in range(3):
        lines, model = _helper(b, f"h{h}", b.rng.randrange(3, 7))
        functions.extend(lines)
        models.append(model)
    functions.extend(_REC.splitlines())
    used = 0
    while used < budget:
        b.arith(pool)
        h = b.rng.randrange(3)
        r = b.fresh("r")
        b.emit(f"{r} = h{h}({pool[-1]})")
        b.vals[r] = models[h](b.vals[pool[-1]])
        pool.append(b.observe(r))
        # The recursion depth, 4 or 5, follows the value, but the work of
        # a job hardly moves with the seed.
        n = b.binop("+", b.binop("&", pool[-1], 1), 4)
        q = b.fresh("q")
        b.emit(f"{q} = rec({n})")
        b.vals[q] = _rec_model(b.vals[n])
        pool += [n, q]
        b.arith(pool)
        b.write(pool[-1])
        used += 10


def _body_loop(b: Builder, pool: list[str], budget: int, trips: int, capture: bool) -> None:
    pre = max(budget // 3, 4)
    _body_straight(b, pool, pre)
    head, body, done = b.fresh("head"), b.fresh("body"), b.fresh("done")
    i, acc, c = b.fresh("i"), b.fresh("acc"), b.fresh("c")
    start = pool[-1]
    b.anchor()
    b.emit(f"br {head}(0, {start})")
    b.label(f"{head}({i}, {acc})")
    b.emit(f"{c} = {i} < {trips}")
    b.emit(f"br {c}, {body}, {done}" if capture else f"br {c}, {body}, {done}({acc})")
    b.label(body)
    # Each step extends the chain from acc with a literal right operand,
    # as in Builder.arith: a name there could be acc or a value derived
    # from it, and `(acc + k) - acc` cancels depending on the draw.
    steps = []
    cur = acc
    for _ in range(5):
        op = b.rng.choice("+-^|*")
        k = b.rng.randrange(1, 1 << 16) | (op == "*")
        v = b.fresh()
        b.emit(f"{v} = {cur} {op} {k}")
        steps.append((op, k))
        cur = v
    obs_name = b.observe(cur)
    b.anchor()
    nxt = b.fresh("i")
    b.emit(f"{nxt} = {i} + 1")
    b.emit(f"br {head}({nxt}, {obs_name})")

    a_v = b.vals[start]
    for _ in range(trips):
        for op, k in steps:
            a_v = _OPS[op](a_v, k)
    if capture:
        b.label(done)
        r = acc
    else:
        r = b.fresh("r")
        b.label(f"{done}({r})")
    b.vals[r] = a_v
    pool.append(b.binop("+", r, 1))
    b.write(pool[-1])
    _body_straight(b, pool, budget - pre)


def corpus_case(rng: random.Random, slot: int, kind: str, pattern: str, size: int,
                loop_small: bool, loop_capture: bool, foldable: bool,
                xor_cancel: bool = False) -> Case:
    b = Builder(rng, pattern)
    functions: list[str] = []
    inputs = [rng.randrange(1 << 32) for _ in range(N_READS)]
    pool = []
    for r in range(N_READS):
        a = b.fresh("a")
        b.emit(f"{a} = io(inp)")
        b.vals[a] = inputs[r]
        pool.append(a)
        if r:
            # Every read feeds the chain from the start, so each write
            # ends a chain from every read and the audit's work is fixed
            # by the program's shape, not by the draw.
            pool.append(b.binop("+", pool[-2], a))
    flags: list[str] = []
    if foldable:
        pool.append(b.foldable(pool[0]))
        flags.append("foldable")
    # Roughly one instruction per budget unit once macros are counted.
    budget = max(size // 2, 8)
    if kind == "straight":
        _body_straight(b, pool, budget, xor_cancel)
        flags += ["xor_cancel"] if xor_cancel else []
    elif kind == "diamond":
        _body_diamond(b, pool, budget)
    elif kind == "memory":
        _body_memory(b, pool, budget)
    elif kind == "calls":
        _body_calls(b, pool, budget, functions)
    else:
        trips = rng.randrange(12, 14) if loop_small else rng.randrange(19, 21)
        _body_loop(b, pool, budget, trips, loop_capture)
        flags.append("exit_capture" if loop_capture else "exit_arg")
        flags.append("trips_le16" if loop_small else "trips_gt16")
    b.anchor()
    b.write(pool[-1])
    b.emit("return()")

    def text(twin: bool) -> str:
        main = ["function main() {"] + b.render(twin) + ["}"]
        return "\n".join(functions + main) + "\n"

    return Case(
        name=f"corpus{slot:02d}-{kind}-{pattern}",
        kind=kind,
        pattern=pattern,
        flags=tuple(sorted(flags)),
        text=text(False),
        twin=text(True),
        inputs=(_input_text(inputs),),
        expected_out=(tuple(b.out),),
        presets=PRESETS + (UNSAFE,),
        audit_preset="P2" if kind in AUDITED_KINDS else None,
        audit_twin=True,
    )


# The corpus slots. Every kind is paired with two patterns and every
# pattern with two or three kinds. The loops take three shapes, (trip
# count at most 16, exit captures the header parameter): monolithic meets
# both Pz defects, opacify unrolls cleanly, and decoupled_tailio counts
# past 16 and keeps its loop. Both straight-line programs end in the xor
# cancellation.
SLOTS = (
    ("straight", "decoupled_tailio"),
    ("straight", "opacify"),
    ("diamond", "monolithic"),
    ("diamond", "cc"),
    ("memory", "decoupled_tailio"),
    ("memory", "cc"),
    ("calls", "monolithic"),
    ("calls", "opacify"),
    ("loop", "monolithic"),
    ("loop", "opacify"),
    ("loop", "decoupled_tailio"),
)
LOOP_SHAPES = {
    "monolithic": (True, True),
    "opacify": (True, False),
    "decoupled_tailio": (False, False),
}


def corpus(seed: int) -> list[Case]:
    """One program per slot. The structure of each slot is fixed: slot i
    takes the middle of size stratum 7i mod 11 of the size range, so
    every kind gets a small and a large program; loops take the shapes
    above, every other program holds a foldable region, and the
    straight-line programs end in a xor cancellation. The seed draws the
    content: operations, operands, constants, inputs and trip counts
    within a narrow range. So the work of a job hardly moves with the
    seed."""
    rng = random.Random(seed)
    lo, hi = CORPUS_SIZES
    width = (hi - lo) / len(SLOTS)
    cases = []
    for i, (kind, pattern) in enumerate(SLOTS):
        size = int(lo + width * (7 * i % len(SLOTS) + 0.5))
        small, capture = LOOP_SHAPES.get(pattern, (False, False))
        cases.append(corpus_case(
            rng, i, kind, pattern, size, small, capture,
            foldable=i % 2 == 0, xor_cancel=kind == "straight",
        ))
    return cases


# --------------------------------------------------------------------------
# long-loop
# --------------------------------------------------------------------------

_LONG_LOOP = """function main() {
  n = io(inp)
  br head(0, SEED)
head(i, acc):
  c = i < n
  br c, body, done(acc)
body:
  a = i & 31
  mem[a] <- acc
  v = mem[a]
  w = v * MUL
  x = w + i
OBS  br head(i2, x)
done(r):
  io(out, r)
  return()
}
"""

_LONG_LOOP_OBS = """  t = observe_decoupled(x)
  u = observe_tailio(t)
"""


def long_loop(seed: int) -> list[Case]:
    rng = random.Random(seed)
    start, mul = rng.randrange(1, 1 << 16), rng.randrange(3, 1 << 16) | 1
    trips = LONG_LOOP_TRIPS + rng.randrange(-3, 4)
    src = _LONG_LOOP.replace("SEED", str(start)).replace("MUL", str(mul))
    text = src.replace("OBS", _LONG_LOOP_OBS + "  i2 = i + 1\n")
    # The twin still reads the trip count but loops to it as a literal:
    # reading it from input would make the twin's chain audit sample u32
    # trip counts (METRICS.md).
    twin = src.replace("OBS", "  i2 = i + 1\n").replace("c = i < n", f"c = i < {trips}")
    acc = start
    for i in range(trips):
        acc = (acc * mul + i) & MASK
    return [
        Case(
            name="long-loop",
            kind="long_loop",
            pattern="decoupled_tailio",
            flags=(),
            text=text,
            twin=twin,
            inputs=(_input_text([trips]),),
            expected_out=((acc,),),
            presets=("P3",),
            audit_preset="P3",
            audit_twin=True,
        )
    ]


# --------------------------------------------------------------------------
# chain-audit
# --------------------------------------------------------------------------

_CHAIN = """function main() {
  a: u8 = io(inp)
  br head(0, a)
head(i, acc):
  c = i < TRIPS
  br c, body, done(acc)
body:
  x = acc ^ K1u8
  o = observe_and_opacify(x)
  y = o + K2u8
  i2 = i + 1
  br head(i2, y)
done(r):
  t = observe_decoupled(r)
  u = observe_tailio(t)
  io(out, r)
  return()
}
"""

_CHAIN_TWIN = """function main() {
  a: u8 = io(inp)
  br head(0, a)
head(i, acc):
  c = i < TRIPS
  br c, body, done(acc)
body:
  x = acc ^ K1u8
  y = x + K2u8
  i2 = i + 1
  br head(i2, y)
done(r):
  io(out, r)
  return()
}
"""


def chain_audit(seed: int) -> list[Case]:
    rng = random.Random(seed)
    k1, k2, a = rng.randrange(1, 256), rng.randrange(1, 256), rng.randrange(256)

    def fill(src: str) -> str:
        return src.replace("TRIPS", str(CHAIN_TRIPS)).replace("K1", str(k1)).replace("K2", str(k2))

    acc = a
    for _ in range(CHAIN_TRIPS):
        acc = ((acc ^ k1) + k2) & 0xFF
    return [
        Case(
            name="chain-audit",
            kind="chain",
            pattern="opacify",
            flags=(),
            text=fill(_CHAIN),
            twin=fill(_CHAIN_TWIN),
            inputs=(f"desc inp in ordered\n{a}u8\n",),
            expected_out=((acc,),),
            presets=PRESETS,
            audit_preset="P3",
            audit_twin=False,
        )
    ]


WORKLOADS = {"corpus": corpus, "long-loop": long_loop, "chain-audit": chain_audit}
