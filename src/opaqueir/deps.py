"""Dynamic dependence analysis over event traces.

Three dependence relations are extracted from a run:

  * def-use:    the defining event of each variable operand (captured
                directly by the interpreter);
  * reads-from: the storing event behind each load (memory and
                references, also captured by the interpreter);
  * control:    an event depends on the conditional branches that are
                still "open" in its activation, i.e. whose postdominator
                has not executed yet. Loop re-entries keep earlier
                branches open, so later iterations depend on the branches
                that let them happen. Only the innermost open branch is
                stored: it is itself control dependent on the others, so
                the transitive closure is unchanged and traces cost
                linear space (Xin & Zhang, ISSTA'07). `DepInfo.controls`
                tells whether a branch is still open at an event. An
                event's function and block come from its instruction id,
                and postdominators are kept per block index.

Their union `dep` drives two derived structures. Happens-before is the
transitive closure of I/O order, dependence into observation events, and
dependence between observation events; it is only ever queried between
anchor events (those that observe or perform I/O), and anchor-to-anchor
paths never leave the anchor set. The opaque skeleton connects opaque
events by dep paths with no opaque event in the interior. An opaque
chain runs from a head (no skeleton predecessor) to a tail (no
successor); chains are reported per (head, tail) pair and verdict, never
enumerated path by path.

A chain link is audited by patching the earlier opaque's result and
rerunning: the set of values arriving at the later opaque (with "the
rerun never got there" counting as one more possible outcome) must have
at least two elements. Boolean and byte results are enumerated until a
second outcome turns up, so only a singleton runs the whole domain; unit
tokens live in an abstract two-point domain and are never enumerated,
otherwise every token chain would collapse to a singleton; 32-bit
results go through a small per-operation rule engine and fall back to
seeded sampling, which stops the same way. Each patched value is rerun
once, and that rerun is shared by every audited link out of the same
opaque event. Each run is analysed once: `analyze` stores its `DepInfo`
on the run, which holds the run's events, not the run, so no cycle forms.
`analyze` computes dep and cd sources, branch closes and anchors; reverse
dep edges wait for the first reachability query and the anchor hb closure
for the first hb query, since most analyses (every rerun's) need neither.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from .ir import (
    AtomExpr,
    BinaryExpr,
    Branch,
    CallExpr,
    Const,
    Define,
    LoadMem,
    LoadRef,
    MemStore,
    Program,
    RefAssign,
    Return,
    Type,
    UnaryExpr,
    Var,
    compute_postdominators,
    instr_at,
    instr_signature,
    typecheck,
)
from .interp import Event, InputSpec, RunResult, eval_binary, eval_unary, run

ENUMERATION_CAP = 256
SAMPLE_COUNT = 64
DEFAULT_SEED = 0


# --------------------------------------------------------------------------
# Per-run dependence info
# --------------------------------------------------------------------------


@dataclass
class DepInfo:
    """Dependence info of one run. It holds the run's events, not the run,
    so the run can keep it (see `analyze`) without a reference cycle. The
    reverse dep edges wait for the first `dep_out` or `dep_reachable`."""

    events: tuple[Event, ...]
    dep_sources: list[frozenset[int]]  # indexed by event seq
    # The innermost open conditional branch, if any: at most one element.
    cd_sources: list[frozenset[int]]
    obs_seqs: tuple[int, ...]
    io_seqs: tuple[int, ...]
    anchor_seqs: tuple[int, ...]  # observation and io events, in order
    _dep_out: Optional[dict[int, list[int]]] = None
    _closes: dict[int, int] = field(default_factory=dict)  # branch -> closing seq or trace length
    _anchor_reach: Optional[dict[int, frozenset[int]]] = None

    def _out_edges(self) -> dict[int, list[int]]:
        """Each event's dependents in ascending seq, built on first use."""
        if self._dep_out is None:
            out: dict[int, list[int]] = {}
            for seq, sources in enumerate(self.dep_sources):
                for src in sources:
                    out.setdefault(src, []).append(seq)
            self._dep_out = out
        return self._dep_out

    def dep_out(self, seq: int) -> list[int]:
        return self._out_edges().get(seq, [])

    def dep_reachable(self, src: int, dst: int) -> bool:
        """Forward reachability over dep edges."""
        if src == dst:
            return True
        out = self._out_edges()
        seen = {src}
        frontier = [src]
        while frontier:
            s = frontier.pop()
            for t in out.get(s, []):
                if t == dst:
                    return True
                if t not in seen and t < dst:
                    seen.add(t)
                    frontier.append(t)
        return False

    def controls(self, b: int, e: int) -> bool:
        """Whether event e is control dependent on event b: b is a
        conditional branch still open at e, in e's activation."""
        events = self.events
        return b < e < self._closes.get(b, -1) and events[b].activation == events[e].activation

    # -- happens-before among anchors

    def _anchor_graph(self) -> dict[int, frozenset[int]]:
        if self._anchor_reach is not None:
            return self._anchor_reach
        anchors = self.anchor_seqs
        anchor_set = set(anchors)
        succ: dict[int, set[int]] = {a: set() for a in anchors}
        # I/O order holds between events on the same ordered descriptor; a
        # chain through consecutive such events gives the same closure as
        # the per-descriptor total order. Distinct descriptors stay
        # unordered, and an unordered descriptor (the tail-io channel)
        # imposes no order at all. Reads count as ordered either way:
        # consuming from a stream is sequenced no matter how the values
        # compare.
        by_channel: dict[str, list[int]] = {}
        for s in self.io_seqs:
            for rec in self.events[s].ios:
                if not (rec.ordered or rec.direction == "r"):
                    continue
                chain = by_channel.setdefault(rec.channel, [])
                if not chain or chain[-1] != s:
                    chain.append(s)
        for chain in by_channel.values():
            for a, b in zip(chain, chain[1:]):
                succ[a].add(b)
        # Observation ordering: a dependence path from an earlier
        # observation, through any intermediate events. Paths stop at
        # observations (later edges plus transitive closure cover longer
        # ones) but pass through everything else, io events included: a
        # plain dependence into an io event is not a happens-before edge.
        # One forward pass gives each event the observations reaching it.
        obs_set = set(self.obs_seqs)
        empty: frozenset[int] = frozenset()
        reached_by: list[frozenset[int]] = []
        for seq, sources in enumerate(self.dep_sources):
            parts = [reached_by[s] for s in sources if reached_by[s]]
            into = empty if not parts else parts[0] if len(parts) == 1 else empty.union(*parts)
            if seq not in obs_set:
                reached_by.append(into)
                continue
            reached_by.append(frozenset((seq,)))
            for s in into:
                succ[s].add(seq)
            # Observe-from: the events directly defining values the
            # observing instruction uses. Only anchor sources can extend
            # anchor-to-anchor paths, so others are dropped here.
            for _, src in self.events[seq].du:
                if src in anchor_set:
                    succ[src].add(seq)
        # Transitive closure, walking anchors newest first so successor
        # sets are final when referenced.
        reach: dict[int, frozenset[int]] = {}
        for a in reversed(anchors):
            acc: set[int] = set()
            for b in succ[a]:
                acc.add(b)
                acc |= reach.get(b, frozenset())
            reach[a] = frozenset(acc)
        self._anchor_reach = reach
        return reach

    def hb(self, a: int, b: int) -> bool:
        """Happens-before between two anchor events."""
        return b in self._anchor_graph().get(a, frozenset())

    def hb_pairs(self) -> set[tuple[int, int]]:
        reach = self._anchor_graph()
        return {(a, b) for a, bs in reach.items() for b in bs}


def _postdominators(program: Program) -> dict[str, dict[int, set[int]]]:
    """Per function, each block's postdominators, blocks by index as in an
    `iid`; stored on the immutable program like its `typecheck`."""
    if (pdoms := getattr(program, "_postdominators", None)) is None:
        pdoms = {}
        for f in program.functions:
            index = {b.label: bi for bi, b in enumerate(f.region.blocks)}
            pdom = compute_postdominators(f.region)
            pdoms[f.name] = {index[b]: {index[p] for p in ps} for b, ps in pdom.items()}
        object.__setattr__(program, "_postdominators", pdoms)
    return pdoms


def analyze(program: Program, result: RunResult) -> DepInfo:
    """Compute dependence sources for every event of a run in one pass, but
    no reverse edges (see `DepInfo`). With the run's own program, the info
    is stored on the run and reused while it lives."""
    shared = program is result.program
    if shared and (info := getattr(result, "_deps", None)) is not None:
        return info
    pdoms = None  # computed at the first close test: only a run that branches needs them
    events = result.events
    empty: frozenset[int] = frozenset()
    dep_sources: list[frozenset[int]] = []
    cd_sources: list[frozenset[int]] = []
    obs_seqs: list[int] = []
    io_seqs: list[int] = []
    closes: dict[int, int] = {}
    second = itemgetter(1)
    conditional = functools.cache(lambda iid: instr_at(program, iid).cond is not None)
    # Per activation: the block index of its latest event, its open
    # conditional branches by block index (oldest first: branches of one
    # block close together), and the innermost of them as a cd set.
    acts: dict[int, list] = {}

    for seq, kind, iid, activation, _, du, rf, _, ios, obs, _ in events:
        cd = empty
        if iid is not None:  # not init, nor the call of main
            bi = iid[1]
            if (act := acts.get(activation)) is None:
                act = acts[activation] = [bi, {}, empty]
            elif act[0] != bi and (by_block := act[1]):
                # A branch opens at the end of its block: only moving on can close one.
                pdoms = pdoms or _postdominators(program)
                pd = pdoms.get(iid[0], {})
                if closed := [b for b in by_block if b != bi and bi in pd.get(b, ())]:
                    for b in closed:
                        closes.update(dict.fromkeys(by_block.pop(b), seq))
                    act[2] = frozenset((max(s[-1] for s in by_block.values()),)) if by_block else empty
            act[0] = bi
            cd = act[2]
            if kind == "branch" and conditional(iid):
                act[1].setdefault(bi, []).append(seq)
                closes[seq] = len(events)
                act[2] = frozenset((seq,))
        deps = frozenset(map(second, du))  # the defining events
        if rf or cd:
            deps = deps.union(rf, cd)
        dep_sources.append(deps)
        cd_sources.append(cd)
        if obs:
            obs_seqs.append(seq)
        if ios:
            io_seqs.append(seq)

    info = DepInfo(
        events=events,
        dep_sources=dep_sources,
        cd_sources=cd_sources,
        obs_seqs=tuple(obs_seqs),
        io_seqs=tuple(io_seqs),
        anchor_seqs=tuple(sorted({*obs_seqs, *io_seqs})),
        _closes=closes,
    )
    if shared:
        object.__setattr__(result, "_deps", info)  # the run is frozen
    return info


# --------------------------------------------------------------------------
# Opaque skeleton
# --------------------------------------------------------------------------


def opaque_skeleton(info: DepInfo) -> dict[int, tuple[int, ...]]:
    """Edges between opaque events whose connecting dep paths contain no
    opaque event in the interior."""
    events = info.events
    opaque = [ev.seq for ev in events if ev.is_opaque]
    edges: dict[int, tuple[int, ...]] = {}
    for start in opaque:
        frontier = list(info.dep_out(start))
        seen: set[int] = set()
        found: set[int] = set()
        while frontier:
            s = frontier.pop()
            if s in seen:
                continue
            seen.add(s)
            if events[s].is_opaque:
                found.add(s)
                continue  # stop here: interiors must stay opaque-free
            frontier.extend(info.dep_out(s))
        edges[start] = tuple(sorted(found))
    return edges


# --------------------------------------------------------------------------
# Opaque value sets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSetReport:
    """How many distinct outcomes the later opaque can see, and how we
    know. `values` holds the outcomes found; a rerun that never reaches
    the later opaque contributes the outcome `None`. Reruns stop at the
    second distinct outcome, so for an enumerated or sampled link with
    two outcomes `bound` and `values` say "at least 2", not the exact
    set; a link with one outcome ran its whole domain or sample list."""

    bound: int
    status: str  # enumerated | rule | rule_derived | sampled | unknown
    values: Optional[frozenset] = None


_BOTTOM = None  # outcome "the dependent instruction never executed"


class _Reached:
    """Outcome "the dependent instruction executed, but no data operand
    carried the tracked value" (control- or effect-only dependence)."""

    def __repr__(self):
        return "<reached>"


_REACHED = _Reached()


def witness_var(info: DepInfo, j: int, k: int) -> Optional[str]:
    """Which variable defined by event j feeds the dep path to event k.
    Usually the single result of the opaque instruction."""
    ev = info.events[j]
    names = [n for n, _ in ev.defs]
    if len(names) <= 1:
        return names[0] if names else None
    dependent = {j}
    used: list[str] = []
    for e in info.events[j + 1 : k + 1]:
        if not (info.dep_sources[e.seq] & dependent):
            continue
        dependent.add(e.seq)
        for n, src in e.du:
            if src == j and n in names and n not in used:
                used.append(n)
    return used[0] if used else names[0]


def value_at_dependent(info: DepInfo, j: int, k_sig: str, sign) -> object:
    """Scan a run's events for the first event that depends on event j and
    executes an instruction identical (up to renaming) to the later
    opaque, and return the operand value that arrived there. `sign` maps
    an instruction id to its `instr_signature`. Never reaching one is the
    bottom outcome (`None`); reaching one through control or effects
    alone is its own outcome. Dependence does not propagate through any
    other opaque event, as in `opaque_skeleton`: a value flowing through
    a different opaque region first belongs to another link, but the
    scan goes on past it."""
    events = info.events
    if j >= len(events):
        return _BOTTOM
    dependent = {j}
    for ev in events[j + 1 :]:
        if not (info.dep_sources[ev.seq] & dependent):
            continue
        dependent.add(ev.seq)
        if ev.iid is None:
            continue
        if sign(ev.iid) == k_sig:
            for name, src in ev.du:
                if src in dependent:
                    return dict(ev.operands)[name]
            return _REACHED  # via control or effects only, but it ran
        if ev.is_opaque:
            dependent.discard(ev.seq)
    return _BOTTOM


def _domain(ty: Type) -> Optional[list]:
    """The values to enumerate for a result of type ty, if they fit the
    enumeration cap."""
    domain = [False, True] if ty is Type.BOOL else list(range(256)) if ty is Type.U8 else None
    return domain if domain is not None and len(domain) <= ENUMERATION_CAP else None


def _sample_values(ty: Type, seed: int, observed) -> list:
    rng = random.Random(seed)
    lo, hi = (-(2**31), 2**31 - 1) if ty is Type.I32 else (0, 2**32 - 1)
    chosen = {observed}
    out = []
    while len(out) < SAMPLE_COUNT:
        v = rng.randint(lo, hi)
        if v not in chosen:
            chosen.add(v)
            out.append(v)
    return out


def opaque_value_set(
    program: Program,
    inputs: Optional[InputSpec],
    info: DepInfo,
    j: int,
    k: int,
    seed: int = DEFAULT_SEED,
) -> ValueSetReport:
    """Size of the value set of event j's result as seen at event k."""
    return _value_sets(program, inputs, info, [(j, k)], seed)[j, k]


def _value_sets(program, inputs, info, pairs, seed) -> dict:
    """`opaque_value_set` for every link (j, k) of `pairs`. A rerun
    patches only event j's witness variable, so the links out of one
    (j, variable) share their reruns: each alternative value is run and
    analysed once, and every link that still needs an outcome reads its
    own from that rerun. A link leaves its group at its second distinct
    outcome, and the group stops once none is left."""
    events = info.events
    var_types = typecheck(program).var_types
    reports: dict[tuple[int, int], ValueSetReport] = {}
    groups: dict[tuple[int, str], dict[int, str]] = {}  # (j, var) -> {k: k_sig}
    sign = functools.cache(lambda iid: instr_signature(instr_at(program, iid)))
    for j, k in pairs:
        var = witness_var(info, j, k)
        ty = None if var is None else var_types.get((events[j].iid[0], var))
        if var is None or ty is Type.UNIT:
            # No defined value: the link is carried by effects alone. Unit
            # tokens live in an abstract two-point domain: enumerating the
            # runtime domain would make every token link a singleton.
            reports[j, k] = ValueSetReport(2, "rule_derived")
        elif ty is None or events[k].iid is None:
            reports[j, k] = ValueSetReport(0, "unknown")
        elif _domain(ty) is not None or (report := _rule_engine(program, info, j, k, ty)) is None:
            groups.setdefault((j, var), {})[k] = sign(events[k].iid)
        else:
            reports[j, k] = report

    for (j, var), k_sigs in groups.items():
        ty = var_types[events[j].iid[0], var]
        observed = dict(events[j].defs).get(var)
        domain = _domain(ty)
        if domain is not None:
            status, alt_values = "enumerated", domain
        else:
            # Seeded sampling fallback for 32-bit results the rules cannot cover.
            status, alt_values = "sampled", _sample_values(ty, seed, observed)
        outcomes = {k: {value_at_dependent(info, j, s, sign)} for k, s in k_sigs.items()}
        pending = k_sigs
        for alt_value in alt_values:
            if alt_value == observed:
                continue
            alt = run(program, inputs, patch=(j, var, alt_value))
            alt_info = analyze(program, alt)
            for k, sig in pending.items():
                outcomes[k].add(value_at_dependent(alt_info, j, sig, sign))
            del alt, alt_info  # one rerun alive at a time
            # Two distinct outcomes already witness a link.
            pending = {k: sig for k, sig in pending.items() if len(outcomes[k]) < 2}
            if not pending:
                break
        for k, seen in outcomes.items():
            reports[j, k] = ValueSetReport(len(seen), status, frozenset(seen))
    return reports


# -- rule engine -------------------------------------------------------------


class _SetAbs:
    """Abstract value set flowing through one operation at a time: the
    full domain, an exact small set, or a size lower bound."""

    __slots__ = ("kind", "values", "size")

    def __init__(self, kind: str, values: Optional[frozenset] = None, size: int = 0):
        self.kind = kind  # full | exact | atleast
        self.values = values
        self.size = size

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def exact(cls, values):
        return cls("exact", frozenset(values))

    @classmethod
    def atleast(cls, n: int):
        return cls("atleast", size=n)

    def floor(self) -> int:
        if self.kind == "full":
            return 2**32
        if self.kind == "exact":
            return len(self.values)
        return self.size


_BIJECTIVE_BINOPS = ("^", "+", "-")


def _apply_binop_rule(
    op: str, const: int, tracked_left: bool, cur: _SetAbs, ty: Type
) -> Optional[_SetAbs]:
    """Image of the abstract set under `op` with one concrete,
    uncorrelated operand. None means no rule applies."""
    if cur.kind == "exact":
        try:
            image = frozenset(
                eval_binary(op, v, const, ty) if tracked_left else eval_binary(op, const, v, ty)
                for v in cur.values
            )
        except Exception:
            return None  # e.g. division by a zero in the set
        return _SetAbs.exact(image)

    if op == "*" and const == 0:
        return _SetAbs.exact({0})
    if op in _BIJECTIVE_BINOPS or (op == "*" and const % 2 == 1):
        return cur  # preserves cardinality whichever side is tracked

    if cur.kind != "full":
        return None  # a bare size bound survives only bijective ops

    bits = 8 if ty is Type.U8 else 32
    mask = (1 << bits) - 1
    if op == "&":
        if const & mask == 0:
            return _SetAbs.exact({0})
        return _SetAbs.atleast(2)
    if op == "|":
        if const & mask == mask:
            return _SetAbs.exact({eval_binary(op, 0, const, ty)})
        return _SetAbs.atleast(2)
    if op in ("<<", ">>"):
        if not tracked_left:
            return None  # tracked shift count: image not worth bounding
        if (const & 0xFFFFFFFF) >= bits:
            return _SetAbs.exact({0})
        return _SetAbs.atleast(2)
    if op in ("==", "!="):
        return _SetAbs.exact({True, False})
    if op in ("<", "<=", ">", ">="):
        if ty is Type.I32:
            lo, hi = -(2**31), 2**31 - 1
        else:
            lo, hi = 0, mask
        if tracked_left:
            folded = {
                ("<", lo): False,
                ("<=", hi): True,
                (">", hi): False,
                (">=", lo): True,
            }.get((op, const))
        else:
            folded = {
                ("<", hi): False,
                ("<=", lo): True,
                (">", lo): False,
                (">=", hi): True,
            }.get((op, const))
        if folded is not None:
            return _SetAbs.exact({folded})
        return _SetAbs.exact({True, False})
    return None  # division, remainder: fall back to sampling


def _rule_engine(
    program: Program,
    info: DepInfo,
    j: int,
    k: int,
    ty: Type,
) -> Optional[ValueSetReport]:
    """Follow the unique du/rf path from event j to event k, composing
    per-operation image rules over the full domain of the patched result.
    Bails out (returns None) on joins, correlated operands, control hops,
    or operations without a rule."""
    events = info.events
    dependent = {j}
    preds: dict[int, list[int]] = {}
    for ev in events[j + 1 : k + 1]:
        sources = info.dep_sources[ev.seq] & dependent
        if not sources:
            continue
        dependent.add(ev.seq)
        preds[ev.seq] = sorted(sources)
    if k not in preds:
        return None
    rev_path = [k]
    cur_seq = k
    while cur_seq != j:
        ps = preds.get(cur_seq)
        if ps is None or len(ps) != 1:
            return None  # join: the value recombines with itself
        cur_seq = ps[0]
        rev_path.append(cur_seq)
    path = list(reversed(rev_path))  # j .. k inclusive
    branches = [seq for seq in path if seq in info._closes]  # conditional ones

    current = _SetAbs.full()
    tracked_from = j
    for seq in path[1:-1]:
        ev = events[seq]
        if ev.is_opaque or ev.iid is None:
            return None
        if any(info.controls(b, seq) for b in branches):
            return None  # control hop inside the path
        nxt = _transfer(instr_at(program, ev.iid), ev, tracked_from, current, ty)
        if nxt is None:
            return None
        current = nxt
        tracked_from = seq
    if any(info.controls(b, k) for b in branches):
        return None

    if current.kind == "exact":
        return ValueSetReport(len(current.values), "rule", current.values)
    return ValueSetReport(min(current.floor(), 2**32), "rule")


def _transfer(instr, ev: Event, tracked_src: int, cur: _SetAbs, ty: Type) -> Optional[_SetAbs]:
    """Abstract transfer of one pure event along the tracked path."""
    tracked_names = {n for n, src in ev.du if src == tracked_src}
    if not tracked_names:
        if tracked_src in ev.rf:
            return cur  # reads-from hop: the value is copied through state
        return None
    if isinstance(instr, MemStore):
        if isinstance(instr.addr, Var) and instr.addr.name in tracked_names:
            return None  # address-carried dependence
        return cur
    if isinstance(instr, RefAssign):
        return cur
    if isinstance(instr, Branch):
        if (
            instr.cond is not None
            and isinstance(instr.cond, Var)
            and instr.cond.name in tracked_names
        ):
            return None  # tracked condition: the hop is control, not data
        return cur  # block argument passing is a copy
    if isinstance(instr, Return):
        return cur
    if not isinstance(instr, Define):
        return None
    rhs = instr.rhs
    if isinstance(rhs, (AtomExpr, CallExpr, LoadRef)):
        return cur  # copies
    if isinstance(rhs, LoadMem):
        if isinstance(rhs.addr, Var) and rhs.addr.name in tracked_names:
            return None  # tracked address: the loaded value is unrelated
        return cur
    if isinstance(rhs, UnaryExpr):
        if cur.kind == "exact":
            try:
                return _SetAbs.exact(frozenset(eval_unary(rhs.op, v, ty) for v in cur.values))
            except Exception:
                return None
        if rhs.op in ("-", "~"):
            return cur  # bijective
        return None
    if isinstance(rhs, BinaryExpr):
        a_tracked = isinstance(rhs.a, Var) and rhs.a.name in tracked_names
        b_tracked = isinstance(rhs.b, Var) and rhs.b.name in tracked_names
        if a_tracked and b_tracked:
            return None  # correlated operands (e.g. v ^ v): no simple rule
        other = rhs.b if a_tracked else rhs.a
        if isinstance(other, Const):
            const = other.value
        else:
            # Any dependent operand would have shown up as a second
            # predecessor and aborted the path walk, so a variable here is
            # independent of the patch and keeps its observed value.
            const = dict(ev.operands).get(other.name)
        if isinstance(const, bool) or not isinstance(const, int):
            return None
        return _apply_binop_rule(rhs.op, const, a_tracked, cur, ty)
    return None


# --------------------------------------------------------------------------
# Chain classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """A verdict that some maximal skeleton path from its head to its
    tail gets. A path is decided by its first link that is unknown
    (unconfirmed) or has fewer than two outcomes (broken); with none it
    is confirmed."""

    events: tuple[int, int]  # (head, tail); an isolated event is both
    verdict: str  # confirmed | broken | unconfirmed


def find_chains(
    skel: dict[int, tuple[int, ...]], value_sets: dict[tuple[int, int], ValueSetReport]
) -> list[ChainReport]:
    """One report per (head, tail, verdict) that a maximal path through
    the skeleton gets, given every link's value set. One walk, latest
    event first, collects the tails each event reaches under each
    verdict, so the cost grows with links times tails, not with the
    number of paths."""
    reach: dict[int, dict[str, set[int]]] = {}
    heads = set(skel)
    for j in sorted(skel, reverse=True):
        if not skel[j]:
            reach[j] = {"confirmed": {j}}
            continue
        out: dict[str, set[int]] = {}
        for k in skel[j]:
            heads.discard(k)
            w = value_sets[j, k]
            if w.status == "unknown" or w.bound < 2:
                # The first bad link decides every path through it.
                verdict = "unconfirmed" if w.status == "unknown" else "broken"
                out.setdefault(verdict, set()).update(*reach[k].values())
                continue
            for verdict, tails in reach[k].items():
                out.setdefault(verdict, set()).update(tails)
        reach[j] = out
    return [
        ChainReport((h, t), verdict)
        for h in sorted(heads)
        for verdict, tails in sorted(reach[h].items())
        for t in sorted(tails)
    ]


def chain_reports(
    program: Program,
    inputs: Optional[InputSpec],
    info: DepInfo,
    seed: int = DEFAULT_SEED,
) -> list[ChainReport]:
    """Audit every link of the run's opaque skeleton once and classify
    its chains with `find_chains`. Confirmed means every link's value
    set provably has at least two elements; broken means some link's set
    is a singleton (for sampled links: no second outcome was found,
    which is evidence rather than proof); unconfirmed covers the rest."""
    skel = opaque_skeleton(info)
    links = [(j, k) for j, ks in skel.items() for k in ks]
    return find_chains(skel, _value_sets(program, inputs, info, links, seed))
