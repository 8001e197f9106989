"""Differential validation of optimized programs.

Runs the original and the optimized program on the same inputs and checks
that everything the original promised an outside observer survived:

* io behavior per descriptor (ordered channels keep their sequence,
  unordered ones their multiset);
* every observation the reference run produced exists in the optimized
  run, carries the same name-to-value pairs, and none were invented;
* happens-before ordering between io and observation events;
* opaque chains found in the reference still connect head to tail;
* plus three protection-specific audits: no branch condition tainted by
  a designated secret, erased buffers really are stored-to and end at
  zero, and countermeasure statements stay interlaced with the code
  they guard.

Events are lined up across the two runs three ways. Io records match by
their per-channel tag, the mechanism validity itself guarantees.
Observations match by snapshot tag: each partial state carries the
source id of the snapshot that produced it, combined events carry every
contributing tag, and the k-th state of a given source id on one side
pairs with the k-th on the other. Everything else goes through the
instruction provenance map lifted to events: provenance edges are
grouped into connected components, and each component's reference events
match its optimized events positionally, with a repeat-boundary grouping
absorbing many-to-one merges.

One asymmetry is deliberate. When identical branch arms are hoisted, the
merged instruction carries the snapshot tags of both arms, so on any
single input the optimized trace holds a partial state for an arm the
reference never executed. The reverse (no-invention) check excuses such
a state iff a sibling tag of the same record matched a reference state
exactly; records with no matched sibling still count as invented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .deps import analyze, chain_reports
from .interp import Event, InputSpec, RunResult, run, value_text
from .ir import (
    AtomExpr,
    BinaryExpr,
    Branch,
    CallExpr,
    Define,
    Function,
    InstrId,
    LoadMem,
    LoadRef,
    MemStore,
    OpaqueExpr,
    Program,
    RefAssign,
    Return,
    SnapshotExpr,
    UnaryExpr,
    Var,
    instr_at,
    instr_operand_atoms,
    region_defined_names,
    typecheck,  # noqa: F401 -- unused here, but perfbench/spans.py wraps validate.typecheck
    walk_blocks,
)
from .passes import ProvenanceMap


# --------------------------------------------------------------------------
# Verdicts and reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witnesses: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def of(cls, witnesses: Iterable[str]) -> "Verdict":
        ws = tuple(witnesses)
        return cls(not ws, ws)


@dataclass(frozen=True)
class ValidationReport:
    io_equality: Verdict
    value_integrity_fwd: Verdict
    value_integrity_bwd: Verdict
    ordering: Verdict

    def checks(self) -> list[tuple[str, Verdict]]:
        return [
            ("io_equality", self.io_equality),
            ("value_integrity_fwd", self.value_integrity_fwd),
            ("value_integrity_bwd", self.value_integrity_bwd),
            ("ordering", self.ordering),
        ]

    @property
    def passed(self) -> bool:
        return all(v.passed for _, v in self.checks())

    def lines(self) -> list[str]:
        return [check_line(name, v) for name, v in self.checks()]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def check_line(name: str, verdict: Verdict) -> str:
    """The machine-readable summary line for one check."""
    head = f"CHECK {name} {'PASS' if verdict.passed else 'FAIL'}"
    if verdict.witnesses:
        return head + " " + "; ".join(verdict.witnesses)
    return head


def _loc_text(loc: tuple[int, int]) -> str:
    return f"{loc[0]}:{loc[1]}"


def _event_loc(result: RunResult, seq: int) -> str:
    """The source location of the instruction that event `seq` executes."""
    return _loc_text(instr_at(result.program, result.events[seq].iid).loc)


# --------------------------------------------------------------------------
# Observation traces
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialState:
    """One observed partial state: which snapshot produced it (by source
    id), the names it binds, and the values they held. Combined records
    expand into one state per contributing tag, all sharing `record`."""

    source_id: tuple[int, int]
    names: tuple[str, ...]
    values: tuple
    seq: int  # event that produced it
    record: tuple[int, int]  # (event seq, record index): expansion group

    @property
    def pairs(self) -> tuple[tuple[str, object], ...]:
        return tuple(zip(self.names, self.values))

    def render(self) -> str:
        body = ",".join(f"{n}={value_text(v)}" for n, v in self.pairs)
        return f"{_loc_text(self.source_id)} {body}"


def observation_trace(result: RunResult) -> tuple[PartialState, ...]:
    """Expand a run's observation records into partial states, in
    execution order, one state per tag."""
    states: list[PartialState] = []
    for ev in result.events:
        for idx, rec in enumerate(ev.obs):
            for tag in rec.tags:
                states.append(
                    PartialState(
                        tag.source_id, tag.names, rec.values, ev.seq, (ev.seq, idx)
                    )
                )
    return tuple(states)


@dataclass(frozen=True)
class TraceDelta:
    """Outcome of comparing two observation traces.

    `missing` are reference states with no optimized counterpart,
    `mismatched` are pairs whose values differ, `invented` are optimized
    states with no reference counterpart and no exactly-matched sibling
    in their record. `pairs` maps (source_id, instance) to the matched
    (reference seq, optimized seq)."""

    missing: tuple[str, ...]
    mismatched: tuple[str, ...]
    invented: tuple[str, ...]
    pairs: dict[tuple[tuple[int, int], int], tuple[int, int]]

    @property
    def forward(self) -> Verdict:
        return Verdict.of(self.missing + self.mismatched)

    @property
    def backward(self) -> Verdict:
        return Verdict.of(self.invented)


def compare_traces(
    ref_trace: Sequence[PartialState], opt_trace: Sequence[PartialState]
) -> TraceDelta:
    """Match partial states by source id and occurrence index, then check
    the name-value pairs of every matched pair."""
    by_sid_ref: dict[tuple[int, int], list[PartialState]] = {}
    for st in ref_trace:
        by_sid_ref.setdefault(st.source_id, []).append(st)
    by_sid_opt: dict[tuple[int, int], list[PartialState]] = {}
    for st in opt_trace:
        by_sid_opt.setdefault(st.source_id, []).append(st)

    missing: list[str] = []
    mismatched: list[str] = []
    pairs: dict[tuple[tuple[int, int], int], tuple[int, int]] = {}
    matched_records: set[tuple[int, int]] = set()
    leftover: list[PartialState] = []

    for sid in {**by_sid_ref, **by_sid_opt}:
        refs = by_sid_ref.get(sid, [])
        opts = by_sid_opt.get(sid, [])
        for k, st in enumerate(refs):
            if k >= len(opts):
                missing.append(f"{_loc_text(sid)}#{k} missing")
                continue
            other = opts[k]
            if st.pairs == other.pairs:
                pairs[(sid, k)] = (st.seq, other.seq)
                matched_records.add(other.record)
            else:
                mismatched.append(
                    f"{_loc_text(sid)}#{k} expected {st.render()} got {other.render()}"
                )
        leftover.extend(opts[len(refs) :])

    invented = [
        f"{st.render()} invented"
        for st in leftover
        if st.record not in matched_records
    ]
    return TraceDelta(tuple(missing), tuple(mismatched), tuple(invented), pairs)


# --------------------------------------------------------------------------
# Event correspondence
# --------------------------------------------------------------------------


class EventMap:
    """The transformation's event mapping, lifted from the instruction
    provenance map.

    Provenance edges are grouped into connected components (a merge makes
    several sources share one destination, unrolling makes one source
    fan out). Within a component, reference events of the source
    instructions are listed in execution order and matched against the
    optimized events of the destination instructions: positionally when
    the counts agree, otherwise by grouping the reference side at repeat
    boundaries (a new group starts when a source instruction repeats
    within the current one) and matching whole groups to single
    optimized events. Events that fit neither way stay unmapped.
    `check_ordering` and `audit_chain_preservation` build one only when
    they need a counterpart that io and observation tags do not give."""

    def __init__(
        self,
        ref_events: Sequence[Event],
        opt_events: Sequence[Event],
        prov: ProvenanceMap,
    ):
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        # Components do not depend on the order edges are joined in.
        for src, dst in prov.edges:
            union(("s", src), ("d", dst))

        srcs_of: dict[object, set[InstrId]] = {}
        dsts_of: dict[object, set[InstrId]] = {}
        for src, dst in prov.edges:
            srcs_of.setdefault(find(("s", src)), set()).add(src)
            dsts_of.setdefault(find(("d", dst)), set()).add(dst)

        ref_by_iid: dict[InstrId, list[Event]] = {}
        for ev in ref_events:
            if ev.iid is not None:
                ref_by_iid.setdefault(ev.iid, []).append(ev)
        opt_by_iid: dict[InstrId, list[Event]] = {}
        for ev in opt_events:
            if ev.iid is not None:
                opt_by_iid.setdefault(ev.iid, []).append(ev)

        self._map: dict[int, int] = {}
        for root, srcs in srcs_of.items():
            dsts = dsts_of[root]
            refs = [ev for iid in srcs for ev in ref_by_iid.get(iid, ())]
            opts = [ev for iid in dsts for ev in opt_by_iid.get(iid, ())]
            # Execution order: one instruction's events are listed in it
            # already, and events sort by seq, their first field.
            if len(srcs) > 1:
                refs.sort()
            if len(dsts) > 1:
                opts.sort()
            if not refs or not opts:
                continue
            if len(refs) == len(opts):
                for a, b in zip(refs, opts):
                    self._map[a.seq] = b.seq
                continue
            groups: list[list[Event]] = [[]]
            seen: set[InstrId] = set()
            for ev in refs:
                if ev.iid in seen:
                    groups.append([])
                    seen = set()
                groups[-1].append(ev)
                seen.add(ev.iid)
            if len(groups) == len(opts):
                for group, target in zip(groups, opts):
                    for ev in group:
                        self._map[ev.seq] = target.seq

    def counterpart(self, ref_seq: int) -> Optional[int]:
        return self._map.get(ref_seq)


def _io_counterparts(
    ref: RunResult, opt: RunResult
) -> tuple[dict[int, set[int]], list[str]]:
    """Map reference io events to optimized ones through the per-channel
    record tags. Returns the event map and the unmatched-record
    witnesses (a lost io record always means the transformation was not
    even valid)."""
    opt_index: dict[tuple[str, str, int], int] = {}
    for ev in opt.events:
        for rec in ev.ios:
            opt_index[(rec.channel, rec.direction, rec.tag)] = ev.seq
    out: dict[int, set[int]] = {}
    lost: list[str] = []
    for ev in ref.events:
        for rec in ev.ios:
            target = opt_index.get((rec.channel, rec.direction, rec.tag))
            if target is None:
                lost.append(f"io {rec.channel} #{rec.tag} lost")
            else:
                out.setdefault(ev.seq, set()).add(target)
    return out, lost


def _obs_counterparts(delta: TraceDelta) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for ref_seq, opt_seq in delta.pairs.values():
        out.setdefault(ref_seq, set()).add(opt_seq)
    return out


# --------------------------------------------------------------------------
# Ordering
# --------------------------------------------------------------------------


def check_ordering(
    ref: RunResult,
    opt: RunResult,
    prov: Optional[ProvenanceMap] = None,
    *,
    delta: Optional[TraceDelta] = None,
) -> Verdict:
    """Happens-before preservation: every hb pair of io/observation
    events in the reference whose counterparts both exist must be an hb
    pair in the optimized run. A reference io event without a
    counterpart fails outright. Anchors without an io or observation
    counterpart go through an `EventMap` of `prov`, built only when there
    is such an anchor. `delta` is the observation-trace comparison of the
    two runs, when the caller already has it."""
    ref_info = analyze(ref)
    opt_info = analyze(opt)

    counterparts, lost = _io_counterparts(ref, opt)
    delta = delta or compare_traces(observation_trace(ref), observation_trace(opt))
    for seq, targets in _obs_counterparts(delta).items():
        counterparts.setdefault(seq, set()).update(targets)
    unmatched = [seq for seq in ref_info.anchor_seqs if seq not in counterparts]
    if prov is not None and unmatched:
        em = EventMap(ref.events, opt.events, prov)
        for seq in unmatched:
            if (target := em.counterpart(seq)) is not None:
                counterparts[seq] = {target}

    witnesses = list(lost)
    opt_reach = None  # the optimized run's anchor reach, read once
    for a, b in sorted(ref_info.hb_pairs()):
        images_a = counterparts.get(a)
        images_b = counterparts.get(b)
        if not images_a or not images_b:
            continue  # unmapped observations are the existence check's job
        if opt_reach is None:
            opt_reach = opt_info._anchor_graph()
        for x in images_a:
            for y in images_b:
                if x != y and y not in opt_reach.get(x, ()):
                    witnesses.append(
                        f"{_event_loc(ref, a)} before {_event_loc(ref, b)} not preserved"
                    )
    return Verdict.of(witnesses)


# --------------------------------------------------------------------------
# The observation-preservation conditions
# --------------------------------------------------------------------------


def _io_delta(ref: RunResult, opt: RunResult) -> list[str]:
    if (ref.trapped is None) != (opt.trapped is None):
        return [f"trap mismatch: ref={ref.trapped!r} opt={opt.trapped!r}"]
    a, b = ref.io_behavior(), opt.io_behavior()
    out = []
    for key in sorted(set(a) | set(b), key=repr):
        if a.get(key) != b.get(key):
            direction, channel = key
            out.append(f"{'read' if direction == 'r' else 'write'} {channel} differs")
    return out


def _entry_iid(program: Program, conditional_on: Union[InstrId, str]) -> InstrId:
    if isinstance(conditional_on, str):
        program.function(conditional_on)  # raises KeyError when absent
        return (conditional_on, 0, 0)
    return conditional_on


def check_observation_preserving(
    program: Program,
    opt_program: Program,
    prov: ProvenanceMap,
    inputs: Sequence[Optional[InputSpec]],
    conditional_on: Union[InstrId, str, None] = None,
) -> ValidationReport:
    """The four observation-preservation conditions over a set of inputs.

    `conditional_on` names an instruction (or a function, meaning its
    entry instruction): when given, a reference observation may go
    missing without failing the forward check on inputs where that
    instruction's events have no optimized counterpart. Value mismatches
    and inventions always count."""
    io_w: list[str] = []
    fwd_w: list[str] = []
    bwd_w: list[str] = []
    ord_w: list[str] = []
    anchor_iid = (
        _entry_iid(program, conditional_on) if conditional_on is not None else None
    )

    for idx, spec in enumerate(inputs):
        tag = f"input{idx} "
        ref = run(program, spec)
        opt = run(opt_program, spec)
        io_w.extend(tag + w for w in _io_delta(ref, opt))

        delta = compare_traces(observation_trace(ref), observation_trace(opt))
        missing = delta.missing
        if missing and anchor_iid is not None:
            em = EventMap(ref.events, opt.events, prov)
            anchored = [
                ev
                for ev in ref.events
                if ev.iid == anchor_iid and em.counterpart(ev.seq) is not None
            ]
            if not anchored:
                missing = ()  # condition applies conditionally: vacuous here
        fwd_w.extend(tag + w for w in missing + delta.mismatched)
        bwd_w.extend(tag + w for w in delta.invented)
        ord_w.extend(tag + w for w in check_ordering(ref, opt, prov, delta=delta).witnesses)

    return ValidationReport(
        io_equality=Verdict.of(io_w),
        value_integrity_fwd=Verdict.of(fwd_w),
        value_integrity_bwd=Verdict.of(bwd_w),
        ordering=Verdict.of(ord_w),
    )


# --------------------------------------------------------------------------
# Chain preservation
# --------------------------------------------------------------------------


def audit_chain_preservation(
    ref: RunResult,
    opt: RunResult,
    prov: ProvenanceMap,
    *,
    inputs: Optional[InputSpec] = None,
) -> Verdict:
    """Every confirmed opaque chain of the reference run whose tail
    performs io must survive: the head needs an optimized counterpart
    and a dependence path to the tail's counterpart. A broken chain
    (some link reached one outcome over its whole enumerated domain or
    over every sample) was never an opaque chain and is exempt;
    a chain nobody could confirm fails, never silently trusted. Chains
    are audited per (head, tail) pair and verdict, so however many paths
    join a pair, each verdict gives it at most one witness. Each run of
    the audit, the reference run and every rerun of a link group, is
    scanned once for all of its links (see `deps._value_sets`). The
    `EventMap` is built at the first chain that needs a counterpart."""
    ref_info = analyze(ref)
    opt_info = analyze(opt)
    em = None
    io_map, _ = _io_counterparts(ref, opt)

    reports = chain_reports(ref.program, inputs, ref_info)
    witnesses: list[str] = []
    for report in reports:
        head, tail = report.events
        if not ref.events[tail].ios:
            continue  # tail not transformation-preserved: not audited
        head_loc, tail_loc = _event_loc(ref, head), _event_loc(ref, tail)
        if report.verdict == "broken":
            continue
        if report.verdict == "unconfirmed":
            witnesses.append(f"chain {head_loc}->{tail_loc} unconfirmed")
            continue
        em = em or EventMap(ref.events, opt.events, prov)
        head_img = em.counterpart(head)
        if head_img is None:
            witnesses.append(f"chain head {head_loc} lost")
            continue
        tail_imgs = io_map.get(tail) or {em.counterpart(tail)} - {None}
        if not tail_imgs:
            witnesses.append(f"chain tail {tail_loc} lost")
            continue
        if not any(opt_info.dep_reachable(head_img, t) for t in tail_imgs):
            witnesses.append(f"chain {head_loc}->{tail_loc} severed")
    return Verdict.of(witnesses)


def audit_value_utilization(
    ref: RunResult,
    opt: RunResult,
    prov: ProvenanceMap,
    consumers: Iterable[tuple[str, str]],
) -> Verdict:
    """Named downstream results must keep drawing on the opacified values
    that feed them. For each (function, variable) consumer, every opaque
    event of the reference run with a dependence path into the consumer
    must map to an optimized event that still reaches the consumer's
    image. This is the companion to the chain audit for values whose
    chain ends inside the computation rather than at an io."""
    ref_info = analyze(ref)
    opt_info = analyze(opt)
    em = EventMap(ref.events, opt.events, prov)
    # The events binding each (function, variable): a call binds in the
    # callee, a return in the caller, every other event in its own function.
    binders: dict[tuple[str, str], list[int]] = {}
    stack: list[str] = []
    for ev in ref.events:
        if ev.kind == "call":
            stack.append(instr_at(ref.program, ev.iid).rhs.callee if ev.iid else "main")
        elif ev.kind == "ret":
            stack.pop()
        for name, _ in ev.defs:
            binders.setdefault((stack[-1], name), []).append(ev.seq)
    witnesses: list[str] = []
    for fname, var in consumers:
        for c in binders.get((fname, var), ()):
            heads = sorted(s for s in ref_info.dep_ancestors(c) if ref.events[s].is_opaque)
            if not heads:
                continue
            c_img = em.counterpart(c)
            if c_img is None:
                witnesses.append(f"consumer {fname}.{var} lost")
                continue
            for h in heads:
                h_img = em.counterpart(h)
                loc = _event_loc(ref, h)
                if h_img is None:
                    witnesses.append(f"opacified value {loc} lost before {fname}.{var}")
                elif not opt_info.dep_reachable(h_img, c_img):
                    witnesses.append(f"{loc} no longer feeds {fname}.{var}")
    return Verdict.of(list(dict.fromkeys(witnesses)))


# --------------------------------------------------------------------------
# Secret branch taint
# --------------------------------------------------------------------------


def _function_names(f: Function) -> set[str]:
    names = set(region_defined_names(f.region))
    names.update(p.name for p in f.params)
    return names


_MEM = ("", "mem")  # memory is one taint key: field-insensitive


def _taint_edges(program: Program):
    """Every flow the secret taint follows, as (sources, sinks) key
    lists. A key is (function, variable), (function, "&" + reference),
    (function, "") for what a function returns, or `_MEM`. An opaque
    define flows from its free uses, the names its region defines, the
    references its region loads and memory if it reads, into its
    results, the references its region assigns and memory if it
    writes."""
    params = {f.name: [p.name for p in f.params] for f in program.functions}
    for f in program.functions:
        fn = f.name
        blocks = {b.label: b for b in f.region.blocks}

        def keys(atoms) -> list:
            return [(fn, a.name) for a in atoms if isinstance(a, Var)]

        for block in f.region.blocks:
            for instr in block.instrs:
                if isinstance(instr, Define):
                    rhs = instr.rhs
                    results = [(fn, r) for r in instr.results if isinstance(r, str)]
                    if isinstance(rhs, (AtomExpr, UnaryExpr, BinaryExpr, SnapshotExpr)):
                        yield keys(instr_operand_atoms(instr)), results
                    elif isinstance(rhs, LoadMem):
                        yield [_MEM, *keys([rhs.addr])], results
                    elif isinstance(rhs, LoadRef):
                        yield [(fn, "&" + rhs.ref)], results
                    elif isinstance(rhs, CallExpr):
                        for param, arg in zip(params.get(rhs.callee, ()), rhs.args):
                            yield keys([arg]), [(rhs.callee, param)]
                        yield [(rhs.callee, "")], results
                    elif isinstance(rhs, OpaqueExpr):
                        s, region = rhs.summary, rhs.region
                        sources = [(fn, u) for u in (*s.uses, *region_defined_names(region))]
                        sources += [_MEM] * s.has_read
                        sinks = results + [_MEM] * s.has_write
                        for inner in walk_blocks(region):
                            for i in inner.instrs:
                                if isinstance(i, RefAssign):
                                    sinks.append((fn, "&" + i.ref))
                                elif isinstance(i, Define) and isinstance(i.rhs, LoadRef):
                                    sources.append((fn, "&" + i.rhs.ref))
                        yield sources, sinks
                elif isinstance(instr, RefAssign):
                    yield keys([instr.value]), [(fn, "&" + instr.ref)]
                elif isinstance(instr, MemStore):
                    yield keys([instr.addr, instr.value]), [_MEM]
                elif isinstance(instr, Return):
                    yield keys(instr.values), [(fn, "")]
                elif isinstance(instr, Branch):
                    for call in (instr.then, instr.els):
                        if call is not None and call.label in blocks:
                            for param, arg in zip(blocks[call.label].params, call.args):
                                yield keys([arg]), [(fn, param.name)]


def check_secret_branches(program: Program, secrets: Iterable[str]) -> Verdict:
    """Static taint from the secret names through defines, block
    arguments, calls, references, and (field-insensitively) memory;
    fails on any conditional branch whose condition is tainted. The
    values of the secret names, and anything computed from them
    (bitmasks and opacified copies included), must never reach a branch
    condition."""
    secrets = frozenset(secrets)
    per_fn_names = {f.name: _function_names(f) for f in program.functions}
    for name in secrets:
        if not any(name in names for names in per_fn_names.values()):
            raise ValueError(f"secret {name!r} names nothing in the program")

    tainted = {(fn, n) for fn, names in per_fn_names.items() for n in secrets & names}
    edges = list(_taint_edges(program))
    changed = True
    while changed:
        changed = False
        for sources, sinks in edges:
            if not tainted.issuperset(sinks) and not tainted.isdisjoint(sources):
                tainted.update(sinks)
                changed = True

    witnesses = []
    for f in program.functions:
        for block in f.region.blocks:
            for instr in block.instrs:
                if (
                    isinstance(instr, Branch)
                    and isinstance(instr.cond, Var)
                    and (f.name, instr.cond.name) in tainted
                ):
                    witnesses.append(
                        f"{f.name} {_loc_text(instr.loc)} branches on "
                        f"{instr.cond.name}"
                    )
    return Verdict.of(witnesses)


# --------------------------------------------------------------------------
# Protection-specific audits
# --------------------------------------------------------------------------


def audit_erasure(result: RunResult, buffer: range) -> Verdict:
    """The buffer must end the run zeroed, and the run's program must
    still perform stores over the whole range (witnessed dynamically:
    store events covering every address)."""
    witnesses = []
    stored: set[int] = set()
    for ev in result.events:
        for addr, _value in ev.stores:
            stored.add(addr)
    for addr in buffer:
        final = result.memory.get(addr, 0)
        if final != 0:
            witnesses.append(f"mem[{addr}]={final} after the run")
        if addr not in stored:
            witnesses.append(f"mem[{addr}] never stored")
    return Verdict.of(witnesses)


def _is_anchor(instr) -> bool:
    return isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr)


def audit_interleaving(opt_program: Program) -> Verdict:
    """Countermeasure interleaving: inside each block, source lines never
    decrease, and every instruction between two consecutive opacification
    anchors shares the first anchor's line. Instructions before the first
    anchor and after the last are exempt from the line-sharing rule, as
    are terminators; synthesized instructions (line 0) are skipped."""
    witnesses = []
    for f in opt_program.functions:
        for block in f.region.blocks:
            prev_line: Optional[int] = None
            for instr in block.instrs:
                line = instr.loc[0]
                if line == 0:
                    continue
                if prev_line is not None and line < prev_line:
                    witnesses.append(
                        f"{f.name} {_loc_text(instr.loc)} line order broken"
                    )
                prev_line = line

            anchors = [i for i, ins in enumerate(block.instrs) if _is_anchor(ins)]
            for start, stop in zip(anchors, anchors[1:]):
                anchor_line = block.instrs[start].loc[0]
                if anchor_line == 0:
                    continue
                for instr in block.instrs[start + 1 : stop]:
                    line = instr.loc[0]
                    if line == 0 or isinstance(instr, (Branch, Return)):
                        continue
                    if line != anchor_line:
                        witnesses.append(
                            f"{f.name} {_loc_text(instr.loc)} strays from "
                            f"anchor line {anchor_line}"
                        )
    return Verdict.of(witnesses)
