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
                linear space (Xin & Zhang, ISSTA'07). An event's function
                and block come from its instruction id, and
                postdominators are kept per block index.

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
results are patched to `SAMPLE_COUNT` values drawn from a generator
seeded with `SAMPLE_SEED`, then to c - 1, c and c + 1 for each constant c
the program compares against, and stop the same way. The reruns of one
patched result are shared by every audited link out of it: its first
alternative value reruns alone, and the rest together, one lane per
value (delta execution, Tucek et al., ASPLOS'09), unless their lanes
diverge; one scan of each run gives every link its outcome, read at the
link's own target instruction.
Each run is analysed once: `analyze` stores its `DepInfo` on the run,
which holds the run's events, not the run, so no cycle forms. `analyze`
computes dep and cd sources and anchors; the anchor hb closure waits for
the first hb query, since most analyses (every rerun's) need none. Every other question is one of three walks over the
dep sources, each written once: a forward frontier (`_nearest`) gives
each marked event the marked events reaching it through an unmarked
interior, for the opaque skeleton and the observation edges of
happens-before; a forward scan (`_dependents`) yields the events that
depend on one event, for the value-set audits; and `dep_ancestors` walks
back from one event, for `dep_reachable` and the value-utilization audit.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Optional

from .ir import (
    BinaryExpr,
    Const,
    Define,
    InstrId,
    Program,
    Type,
    compute_postdominators,
    instr_at,
    instr_signature,
    typecheck,
    walk_blocks,
)
from .interp import Diverged, Event, InputSpec, Lanes, RunResult, run

SAMPLE_COUNT = 64
SAMPLE_SEED = 0


# --------------------------------------------------------------------------
# Per-run dependence info
# --------------------------------------------------------------------------


@dataclass
class DepInfo:
    """Dependence info of one run. It holds the run's events, not the run,
    so the run can keep it (see `analyze`) without a reference cycle."""

    events: tuple[Event, ...]
    dep_sources: list[frozenset[int]]  # indexed by event seq
    # The innermost open conditional branch, if any: at most one element.
    cd_sources: list[frozenset[int]]
    obs_seqs: tuple[int, ...]
    io_seqs: tuple[int, ...]
    anchor_seqs: tuple[int, ...]  # observation and io events, in order
    _anchor_reach: Optional[dict[int, frozenset[int]]] = None

    def dep_reachable(self, src: int, dst: int) -> bool:
        """Whether a dep path leads from event src to event dst."""
        return src == dst or src in self.dep_ancestors(dst, src)

    def dep_ancestors(self, dst: int, floor: int = 0):
        """Each event from `floor` on with a dep path to event dst, as a
        walk back from dst over dep sources finds it."""
        dep_sources = self.dep_sources
        seen = {dst}
        frontier = [dst]
        while frontier:
            for s in dep_sources[frontier.pop()]:
                if s >= floor and s not in seen:
                    seen.add(s)
                    frontier.append(s)
                    yield s

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
        for seq, into in _nearest(self.dep_sources, set(self.obs_seqs)).items():
            for s in into:
                succ[s].add(seq)
            # Observe-from: the events directly defining values the
            # observing instruction uses. Only anchor sources can extend
            # anchor-to-anchor paths, so others are dropped here.
            for _, _, src in self.events[seq].reads:
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


def _nearest(dep_sources, marked: AbstractSet[int]) -> dict[int, frozenset[int]]:
    """Each marked event, in order, with the marked events that reach it by
    a dep path whose interior holds no marked event. One forward pass
    carries each event's set on to its dependents; an event with no marked
    ancestor carries the empty set, and the pass starts at the first
    marked event, since nothing before it carries anything."""
    empty: frozenset[int] = frozenset()
    carry = [empty] * len(dep_sources)  # what each event passes on
    nearest: dict[int, frozenset[int]] = {}
    for seq in range(min(marked, default=len(dep_sources)), len(dep_sources)):
        into = empty
        for s in dep_sources[seq]:
            if c := carry[s]:
                into = into | c if into else c
        if seq in marked:
            nearest[seq] = into
            carry[seq] = frozenset((seq,))
        else:
            carry[seq] = into
    return nearest


def _dependents(info: DepInfo, j: int, end: int, stop_at_opaque: bool = False):
    """Each event after j and before `end` with a dep path from event j,
    in order, with its dep sources on such paths. With `stop_at_opaque`,
    paths end at opaque events: one is yielded but carries nothing on."""
    dep_sources, events = info.dep_sources, info.events
    dependent = {j}
    for seq in range(j + 1, end):
        if sources := dep_sources[seq] & dependent:
            ev = events[seq]
            yield ev, sources
            if not (stop_at_opaque and ev.is_opaque):
                dependent.add(seq)


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


def analyze(result: RunResult) -> DepInfo:
    """Compute dependence sources for every event of a run in one pass, but
    no reverse edges (see `DepInfo`). The info is stored on the run and
    reused while it lives."""
    if (info := getattr(result, "_deps", None)) is not None:
        return info
    program = result.program
    pdoms = None  # computed at the first close test: only a run that branches needs them
    events = result.events
    empty: frozenset[int] = frozenset()
    dep_sources: list[frozenset[int]] = []
    cd_sources: list[frozenset[int]] = []
    obs_seqs: list[int] = []
    io_seqs: list[int] = []
    third = itemgetter(2)
    conditional = functools.cache(lambda iid: instr_at(program, iid).cond is not None)
    # Per activation: the block index of its latest event, the latest open
    # conditional branch of each block index (the branches of one block
    # close together), and the innermost of them as a cd set.
    acts: dict[int, list] = {}

    for seq, kind, iid, activation, _, reads, rf, _, ios, obs in events:
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
                        del by_block[b]
                    act[2] = frozenset((max(by_block.values()),)) if by_block else empty
            act[0] = bi
            cd = act[2]
            if kind == "branch" and conditional(iid):
                act[1][bi] = seq
                act[2] = frozenset((seq,))
        deps = frozenset(map(third, reads))  # the defining events
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
    )
    object.__setattr__(result, "_deps", info)  # the run is frozen
    return info


# --------------------------------------------------------------------------
# Opaque skeleton
# --------------------------------------------------------------------------


def opaque_skeleton(info: DepInfo) -> dict[int, tuple[int, ...]]:
    """Edges between opaque events whose connecting dep paths contain no
    opaque event in the interior, each event's successors in order."""
    edges: dict[int, list[int]] = {ev.seq: [] for ev in info.events if ev.is_opaque}
    for k, into in _nearest(info.dep_sources, edges.keys()).items():
        for j in into:
            edges[j].append(k)
    return {j: tuple(ks) for j, ks in edges.items()}


# --------------------------------------------------------------------------
# Opaque value sets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSetReport:
    """How many distinct outcomes the later opaque can see, and how we
    know. `values` holds the outcomes found; a rerun that never reaches
    the later opaque contributes the outcome `None`. Outcomes are taken
    in value order and stop at the second distinct one, so for an
    enumerated or sampled link with two outcomes `bound` and `values` say
    "at least 2", not the exact set; a link with one outcome saw its whole
    domain or sample list, most of it in one lane-batched rerun."""

    bound: int
    status: str  # enumerated | rule_derived | sampled | unknown
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
    used: list[str] = []
    for e, _ in _dependents(info, j, k + 1):
        for n, _, src in e.reads:
            if src == j and n in names and n not in used:
                used.append(n)
    return used[0] if used else names[0]


def dependent_outcomes(info: DepInfo, j: int, targets: dict, sign) -> dict:
    """Each link's outcome in one run, for links out of event j: `targets`
    maps a link's key to its later opaque's instruction id. One scan of
    the events after j grows the set of events depending on j; a link's
    outcome is the operand value that arrived at the first dependent event
    executing its own instruction. Only a run that never executes it falls
    back to the first dependent event whose instruction is identical to it
    up to renaming, `sign` mapping an instruction id to its
    `instr_signature`: the arms of a branch may run the same opaque. In a
    lane-batched rerun (see `interp.run`) the value may be one per lane.
    Never reaching either is the bottom outcome (`None`); reaching one
    through control or effects alone is its own outcome. Dependence does
    not propagate through any other opaque event, as in `opaque_skeleton`:
    a value flowing through a different opaque region first belongs to
    another link, but the scan goes on past it, and stops once every
    link's own instruction has run."""
    found: dict[InstrId, object] = {}
    fallback: dict[str, object] = {}  # by signature
    missing = set(targets.values())  # instructions not run yet
    unmatched = {sign(iid) for iid in missing}  # signatures without a fallback yet
    for ev, sources in _dependents(info, j, len(info.events), stop_at_opaque=True):
        if (iid := ev.iid) is None:
            continue
        own, sig = iid in missing, sign(iid) if unmatched else None
        if own or sig in unmatched:
            value = _REACHED  # via control or effects only, but it ran
            for _, read, src in ev.reads:
                if src in sources:
                    value = read
                    break
            if own:
                missing.discard(iid)
                found[iid] = value
            if sig in unmatched:
                unmatched.discard(sig)
                fallback[sig] = value
            if not missing:
                break
    return {
        k: found[iid] if iid in found else fallback.get(sign(iid), _BOTTOM)
        for k, iid in targets.items()
    }


def _domain(ty: Type) -> Optional[list]:
    """The values to enumerate for a result of type ty: bool and u8 only."""
    return [False, True] if ty is Type.BOOL else list(range(256)) if ty is Type.U8 else None


def _comparands(program: Program) -> list[Const]:
    """Each constant operand of a comparison in the program, nested opaque
    regions included, in program order; stored on the immutable program
    like its `_postdominators`."""
    if (found := getattr(program, "_comparands", None)) is None:
        found = [
            c
            for f in program.functions
            for block in walk_blocks(f.region)
            for instr in block.instrs
            if isinstance(instr, Define)
            and isinstance(rhs := instr.rhs, BinaryExpr)
            and rhs.op in ("==", "!=", "<", "<=", ">", ">=")
            for c in (rhs.a, rhs.b)
            if isinstance(c, Const)
        ]
        object.__setattr__(program, "_comparands", found)
    return found


def _sample_values(program: Program, ty: Type, observed) -> list:
    """The values a 32-bit result of type ty is patched to, other than
    `observed` and each once: `SAMPLE_COUNT` draws from a generator seeded
    with `SAMPLE_SEED`, then c - 1, c and c + 1 within ty's range for each
    constant c of type ty that a comparison of the program reads. Uniform
    draws almost never hit the one value an equality tests; the operands
    of comparisons do (REDQUEEN's dictionary, Aschermann et al., NDSS'19)."""
    rng = random.Random(SAMPLE_SEED)
    lo, hi = (-(2**31), 2**31 - 1) if ty is Type.I32 else (0, 2**32 - 1)
    chosen = {observed}
    out = []
    while len(out) < SAMPLE_COUNT:
        v = rng.randint(lo, hi)
        if v not in chosen:
            chosen.add(v)
            out.append(v)
    for c in _comparands(program):
        if c.type is ty:
            for v in (c.value - 1, c.value, c.value + 1):
                if lo <= v <= hi and v not in chosen:
                    chosen.add(v)
                    out.append(v)
    return out


def opaque_value_set(
    program: Program,
    inputs: Optional[InputSpec],
    info: DepInfo,
    j: int,
    k: int,
) -> ValueSetReport:
    """Size of the value set of event j's result as seen at event k."""
    return _value_sets(program, inputs, info, [(j, k)])[j, k]


def _value_sets(program, inputs, info, pairs) -> dict:
    """`opaque_value_set` for every link (j, k) of `pairs`. A rerun
    patches only event j's witness variable, so the links out of one
    (j, variable) share their reruns, and each run is scanned once for
    all of them: the reference run once for every link of the group,
    then each rerun once for the links that still need an outcome (see
    `dependent_outcomes`). The first alternative value reruns alone,
    since most links show their second outcome there; the rest rerun
    together as one lane-batched run (see `interp.run`), analysed and
    scanned once, or one by one if its lanes diverge. Either way the
    outcomes are taken in value order: a link leaves its group at its
    second distinct outcome, and the group stops once none is left."""
    events = info.events
    var_types = typecheck(program).var_types
    reports: dict[tuple[int, int], ValueSetReport] = {}
    groups: dict[tuple[int, str], dict[int, InstrId]] = {}  # (j, var) -> {k: its iid}
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
        else:
            groups.setdefault((j, var), {})[k] = events[k].iid

    for (j, var), targets in groups.items():
        ty = var_types[events[j].iid[0], var]
        observed = dict(events[j].defs).get(var)
        domain = _domain(ty)
        if domain is not None:
            status, alt_values = "enumerated", domain
        else:
            # 32-bit results: seeded samples, then the program's comparands.
            status, alt_values = "sampled", _sample_values(program, ty, observed)
        if observed in alt_values:  # a fresh list without duplicates
            alt_values.remove(observed)
        outcomes = {k: {v} for k, v in dependent_outcomes(info, j, targets, sign).items()}
        pending = targets

        def rerun(value) -> dict:
            """Each pending link's outcome in the rerun patching `var` to `value`."""
            alt_info = analyze(run(program, inputs, patch=(j, var, value)))
            return dependent_outcomes(alt_info, j, pending, sign)

        batch = None  # each link's outcome in the lane-batched rerun of alt_values[1:]
        for i, alt_value in enumerate(alt_values):
            if i == 1:
                try:
                    batch = rerun(Lanes(alt_values[1:]))
                except Diverged:
                    pass
            if batch is None:
                seen = rerun(alt_value)
            else:
                seen = {k: v[i - 1] if type(v := batch[k]) is Lanes else v for k in pending}
            for k, value in seen.items():
                outcomes[k].add(value)
            # Two distinct outcomes already witness a link.
            pending = {k: iid for k, iid in pending.items() if len(outcomes[k]) < 2}
            if not pending:
                break
        for k, seen in outcomes.items():
            reports[j, k] = ValueSetReport(len(seen), status, frozenset(seen))
    return reports


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
) -> list[ChainReport]:
    """Audit every link of the run's opaque skeleton once and classify
    its chains with `find_chains`. Confirmed means every link's value
    set provably has at least two elements; broken means some link's set
    is a singleton (for sampled links: no second outcome was found,
    which is evidence rather than proof); unconfirmed covers the rest."""
    skel = opaque_skeleton(info)
    links = [(j, k) for j, ks in skel.items() for k in ks]
    return find_chains(skel, _value_sets(program, inputs, info, links))
