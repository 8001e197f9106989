"""Dependence analysis: control dependence, happens-before, opaque
chains, and value-set audits with hand-computed expectations."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opaqueir import deps, parse_program
from opaqueir.deps import (
    ValueSetReport,
    _BOTTOM,
    _REACHED,
    _sample_values,
    analyze,
    chain_reports,
    find_chains,
    opaque_skeleton,
    opaque_value_set,
    witness_var,
)
from opaqueir.interp import Diverged, Lanes, parse_input, run
from opaqueir.ir import (
    Branch,
    IRError,
    Type,
    compute_postdominators,
    instr_at,
    instr_signature,
    typecheck,
)
from opaqueir.passes import PRESETS, optimize
from opaqueir.patterns import prepare
from opaqueir.validate import audit_chain_preservation
from test_passes import SWEEP, sweep_program
from test_validate import load_benchmark_generator


def setup(text, inputs=None):
    program, types = prepare(text)
    spec = parse_input(inputs) if inputs else None
    result = run(program, spec)
    assert result.trapped is None
    return program, types.var_types, spec, result, analyze(result)


def event_of(result, pred):
    matches = [ev for ev in result.events if pred(ev)]
    assert len(matches) == 1, [ev.seq for ev in matches]
    return matches[0]


def opaque_events(result):
    return [ev for ev in result.events if ev.is_opaque]


def block_label(program, ev):
    """The label of the block the instruction of `ev` sits in."""
    fname, bi, _ = ev.iid
    return program.function(fname).region.blocks[bi].label


def is_conditional_branch(program, ev):
    return ev.kind == "branch" and instr_at(program, ev.iid).cond is not None


# --------------------------------------------------------------------------
# Control dependence
# --------------------------------------------------------------------------


DIAMOND = """
function main() {
  c = io(flag)
  br c, left, right
left:
  a = 1
  br join(a)
right:
  b = 2
  br join(b)
join(v):
  io(out, v)
  return()
}
"""


def test_cd_diamond_arms_depend_on_branch():
    program, types, spec, result, info = setup(DIAMOND, "desc flag in ordered\n1\n")
    branch = event_of(result, lambda e: e.kind == "branch" and block_label(program, e) == "entry")
    arm = event_of(result, lambda e: e.defs and e.defs[0][0] == "a")
    assert branch.seq in info.cd_sources[arm.seq]


def test_cd_join_is_free_of_the_branch():
    program, types, spec, result, info = setup(DIAMOND, "desc flag in ordered\n1\n")
    branch = event_of(result, lambda e: e.kind == "branch" and block_label(program, e) == "entry")
    out = event_of(result, lambda e: e.ios and e.ios[0].direction == "w")
    assert branch.seq not in info.cd_sources[out.seq]
    # but the join still data-depends on the taken arm: the arm's branch
    # event defines the block argument v, so it shows up as a du source
    arm_br = event_of(result, lambda e: e.kind == "branch" and block_label(program, e) == "left")
    assert arm_br.seq in info.dep_sources[out.seq]


LOOP = """
function main() {
  br head(0, 0)
head(i, acc):
  again = i < 3
  br again, body, done
body:
  acc2 = acc + i
  i2 = i + 1
  br head(i2, acc2)
done:
  io(out, acc)
  return()
}
"""


def test_cd_loop_iterations_stack_up():
    program, types, spec, result, info = setup(LOOP)
    guards = [
        ev.seq
        for ev in result.events
        if is_conditional_branch(program, ev) and block_label(program, ev) == "head"
    ]
    assert len(guards) == 4  # i = 0,1,2 taken, i = 3 exits
    body_defs = [ev for ev in result.events if ev.defs and ev.defs[0][0] == "acc2"]
    assert len(body_defs) == 3
    # iteration n depends on guards 1..n (all still open)
    for n, ev in enumerate(body_defs, start=1):
        assert set(guards[:n]) <= set(info.dep_ancestors(ev.seq))
    # the final io sits at the loop's postdominator: no open guard
    out = event_of(result, lambda e: e.ios)
    assert not (set(guards) & info.cd_sources[out.seq])


def test_cd_unconditional_branches_never_open():
    program, types, spec, result, info = setup(LOOP)
    for ev in result.events:
        for src in info.cd_sources[ev.seq]:
            assert is_conditional_branch(program, result.events[src])


# --------------------------------------------------------------------------
# Happens-before
# --------------------------------------------------------------------------


HB_PROGRAM = """
function main() {
  a = io(input)
  w1 = opaque { s1 = snapshot(a); yield(unit_value) }
  b = a + 1
  w2 = opaque { use(w1); s2 = snapshot(b); yield(unit_value) }
  io(out, b)
  return()
}
"""


def test_hb_io_order_and_observation_flow():
    program, types, spec, result, info = setup(HB_PROGRAM, "desc input in ordered\n5\n")
    read = event_of(result, lambda e: e.ios and e.ios[0].direction == "r")
    obs1 = event_of(result, lambda e: e.obs and e.defs and e.defs[0][0] == "w1")
    obs2 = event_of(result, lambda e: e.obs and e.defs and e.defs[0][0] == "w2")
    write = event_of(result, lambda e: e.ios and e.ios[0].direction == "w")
    # io order relates same-descriptor events only; input and out are
    # distinct descriptors and nothing else links these two
    assert not info.hb(read.seq, write.seq)
    # dependence into observations: the read feeds both snapshots
    assert info.hb(read.seq, obs1.seq)
    assert info.hb(read.seq, obs2.seq)
    # observation-to-observation dependence through the token
    assert info.hb(obs1.seq, obs2.seq)
    assert not info.hb(obs2.seq, obs1.seq)


def test_hb_orders_io_on_one_descriptor_only():
    text = """
function main() {
  a = io(input)
  io(out, a)
  io(other, a)
  io(out, 7)
  return()
}
"""
    program, types, spec, result, info = setup(text, "desc input in ordered\n5\n")
    outs = [ev for ev in result.events if ev.ios and ev.ios[0].channel == "out"]
    other = event_of(result, lambda e: e.ios and e.ios[0].channel == "other")
    assert info.hb(outs[0].seq, outs[1].seq)
    assert not info.hb(outs[0].seq, other.seq)
    assert not info.hb(other.seq, outs[1].seq)


def test_hb_is_a_strict_partial_order():
    program, types, spec, result, info = setup(HB_PROGRAM, "desc input in ordered\n5\n")
    pairs = info.hb_pairs()
    for a, b in pairs:
        assert a != b, "irreflexive"
        assert a < b, "edges point forward in time"
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs, "transitive"


def test_hb_unrelated_observations_stay_unordered():
    text = """
function main() {
  a = io(input)
  b = io(input)
  w1 = opaque { s1 = snapshot(a); yield(unit_value) }
  w2 = opaque { s2 = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text, "desc input in ordered\n5\n6\n")
    obs1 = event_of(result, lambda e: e.obs and e.defs and e.defs[0][0] == "w1")
    obs2 = event_of(result, lambda e: e.obs and e.defs and e.defs[0][0] == "w2")
    assert not info.hb(obs1.seq, obs2.seq)
    assert not info.hb(obs2.seq, obs1.seq)


# --------------------------------------------------------------------------
# Innermost-branch control dependence against the full open-branch stack
# --------------------------------------------------------------------------


def full_stack_cd(program, result):
    """Reference: every conditional branch still open in the event's
    activation, kept as one stack per activation."""
    pdoms = {f.name: compute_postdominators(f.region) for f in program.functions}
    stacks = {}
    out = []
    for ev in result.events:
        cd = frozenset()
        if ev.iid is not None:  # not init, nor the call of main
            block = block_label(program, ev)
            stack = stacks.setdefault(ev.activation, [])
            pd = pdoms.get(ev.iid[0], {})
            stack[:] = [(s, b) for s, b in stack if b == block or block not in pd.get(b, ())]
            cd = frozenset(s for s, _ in stack)
            if ev.kind == "branch":
                instr = instr_at(program, ev.iid)
                if isinstance(instr, Branch) and instr.cond is not None:
                    stack.append((ev.seq, block))
        out.append(cd)
    return out


def backward_walk_hb(info, dep_sources):
    """Reference: happens-before from one backward walk per observation
    over the given dependence sources, then transitive closure."""
    events = info.events
    anchors = info.anchor_seqs
    succ = {a: set() for a in anchors}
    by_channel = {}
    for s in info.io_seqs:
        for rec in events[s].ios:
            if rec.ordered or rec.direction == "r":
                chain = by_channel.setdefault(rec.channel, [])
                if not chain or chain[-1] != s:
                    chain.append(s)
    for chain in by_channel.values():
        for a, b in zip(chain, chain[1:]):
            succ[a].add(b)
    obs = set(info.obs_seqs)
    for target in info.obs_seqs:
        for _, _, src in events[target].reads:
            if src in succ:
                succ[src].add(target)
        stack, seen = list(dep_sources[target]), {target}
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if s in obs:
                succ[s].add(target)
            else:
                stack.extend(dep_sources[s])
    reach = {}
    for a in reversed(anchors):
        reach[a] = set(succ[a]).union(*(reach[b] for b in succ[a]))
    return {(a, b) for a, bs in reach.items() for b in bs}


def ancestors(dep_sources):
    """Transitive closure of the dependence sources, one bitmask per event."""
    out = []
    for sources in dep_sources:
        mask = 0
        for s in sources:
            mask |= out[s] | (1 << s)
        out.append(mask)
    return out


NESTED_LOOP = """
function main() {
  br outer(0, 0)
outer(i, acc):
  c = i < 3
  br c, inner_entry, done
inner_entry:
  br inner(0, acc)
inner(j, a):
  d = j < i
  br d, step, next
step:
  a2 = a + j
  o = observe_and_opacify(a2)
  io(out, o)
  j2 = j + 1
  br inner(j2, o)
next:
  i2 = i + 1
  br outer(i2, a)
done:
  io(out, acc)
  return()
}
"""

RECURSIVE = """
function f(n: u32) -> (u32) {
  c = n == 0
  br c, base, step
base:
  return(1)
step:
  m = n - 1
  r = f(m)
  o = observe_and_opacify(r)
  s = o + n
  return(s)
}
function main() {
  a = io(input)
  b = f(a)
  io(out, b)
  return()
}
"""

DIAMOND_IN_LOOP = """
function main() {
  br head(0, 0)
head(i, acc):
  c = i < 4
  br c, body, done
body:
  odd = i & 1
  br odd, left, right
left:
  l = acc + i
  t = observe_decoupled(l)
  br join(l)
right:
  r = acc ^ i
  br join(r)
join(v):
  io(out, v)
  i2 = i + 1
  br head(i2, v)
done:
  return()
}
"""

# The exit test inside the body stays open until the loop exits, so open
# branches of two blocks interleave on the stack.
LOOP_WITH_BREAK = """
function main() {
  br head(0, 0)
head(i, acc):
  c = i < 5
  br c, body, done
body:
  stop = acc > 100
  br stop, done, latch
latch:
  a2 = acc + i
  o = observe_and_opacify(a2)
  i2 = i + 1
  br head(i2, o)
done:
  io(out, acc)
  return()
}
"""


INNERMOST_PROGRAMS = [
    (DIAMOND, "desc flag in ordered\n1\n"),
    (DIAMOND, "desc flag in ordered\n0\n"),
    (LOOP, None),
    (HB_PROGRAM, "desc input in ordered\n5\n"),
    (NESTED_LOOP, None),
    (RECURSIVE, "desc input in ordered\n3\n"),
    (DIAMOND_IN_LOOP, None),
    (LOOP_WITH_BREAK, None),
]


@pytest.mark.parametrize("text, inputs", INNERMOST_PROGRAMS)
def test_innermost_branch_keeps_dependence_and_hb(text, inputs):
    program, types, spec, result, info = setup(text, inputs)
    full_cd = full_stack_cd(program, result)
    assert all(len(cd) <= 1 for cd in info.cd_sources)
    full_deps = [
        frozenset(src for _, _, src in ev.reads) | frozenset(ev.rf) | full_cd[ev.seq]
        for ev in result.events
    ]
    assert ancestors(info.dep_sources) == ancestors(full_deps)
    assert set(info.hb_pairs()) == backward_walk_hb(info, full_deps)


def test_cd_sources_stay_linear_on_a_long_loop():
    text = """
function main() {
  br head(0, 1)
head(i, acc):
  c = i < 2000
  br c, body, done
body:
  x = acc + i
  t = observe_decoupled(x)
  u = observe_tailio(t)
  i2 = i + 1
  br head(i2, x)
done:
  io(out, acc)
  return()
}
"""
    program, types, spec, result, info = setup(text)
    assert all(len(s) <= 1 for s in info.cd_sources)
    assert sum(len(s) for s in info.cd_sources) <= len(result.events)


# --------------------------------------------------------------------------
# One-pass analysis against the per-event reference
# --------------------------------------------------------------------------


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
                instr = instr_at(program, iid)
                if isinstance(instr, Branch) and instr.cond is not None:
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


def sweep_runs(shape, pattern):
    """The reference run of a `test_passes` sweep program and its run under
    every preset that compiles it."""
    program = prepare(sweep_program(shape, pattern))[0]
    spec = parse_input("desc inp in ordered\n5\n")
    runs = [run(program, spec)]
    for preset in sorted(PRESETS):
        try:
            res = optimize(program, preset=preset)
        except IRError:
            continue  # the exit-capture unroll under Pz (ROADMAP item 3)
        runs.append(run(res.program, spec))
    return runs


def assert_matches_reference(result):
    info = analyze(result)
    dep_sources, cd_sources, seqs = reference_analysis(result.program, result)
    assert info.dep_sources == dep_sources
    assert info.cd_sources == cd_sources
    assert (info.obs_seqs, info.io_seqs, info.opaque_seqs, info.anchor_seqs) == seqs


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_analyze_matches_the_per_event_reference_on_the_sweep(shape, pattern):
    for result in sweep_runs(shape, pattern):
        assert result.trapped is None
        assert_matches_reference(result)


@pytest.mark.parametrize("text, inputs", INNERMOST_PROGRAMS)
def test_analyze_matches_the_per_event_reference(text, inputs):
    assert_matches_reference(setup(text, inputs)[3])


# --------------------------------------------------------------------------
# The walks against forward searches over reverse dep edges
# --------------------------------------------------------------------------


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


def assert_walks_match_the_reference(info, later):
    """The skeleton equals the reference's, and `dep_reachable` agrees with
    it from every anchor or opaque event to each event `later` names."""
    out = reverse_edges(info)
    assert opaque_skeleton(info) == reference_skeleton(info, out)
    sources = sorted({*info.anchor_seqs, *(ev.seq for ev in info.events if ev.is_opaque)})
    for i, src in enumerate(sources):
        reach = reference_reach(out, src)
        for dst in later(sources, i, len(info.events)):
            assert info.dep_reachable(src, dst) == (dst in reach), (src, dst)


def every_later_event(sources, i, n):
    return range(sources[i] + 1, n)


def later_sources(sources, i, n):
    """The later anchor and opaque events; a run with over 200 of them,
    where walks back from far targets make every pair cost minutes, gets
    the next 16."""
    return sources[i + 1 : None if len(sources) <= 200 else i + 17]


def benchmark_runs():
    """A run of each program `perfbench/gen.py` makes at seeds 1, 2 and
    11-13, twins included, on each input of its case."""
    gen = load_benchmark_generator()
    for make in gen.WORKLOADS.values():
        for seed in (1, 2, 11, 12, 13):
            for case in make(seed):
                for text in (case.text, case.twin):
                    program = prepare(text)[0]
                    for inputs in case.inputs:
                        yield run(program, parse_input(inputs))


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_walks_match_the_reference_on_the_sweep(shape, pattern):
    for result in sweep_runs(shape, pattern):
        info = analyze(result)
        assert_walks_match_the_reference(info, every_later_event)
        out = reverse_edges(info)
        ancestors = [[] for _ in info.events]
        for src in range(len(info.events)):
            for dst in reference_reach(out, src) - {src}:
                ancestors[dst].append(src)
        for dst, want in enumerate(ancestors):
            assert sorted(info.dep_ancestors(dst)) == want, dst


def test_walks_match_the_reference_on_the_benchmark_programs():
    for result in benchmark_runs():
        assert_walks_match_the_reference(analyze(result), later_sources)


# --------------------------------------------------------------------------
# Opaque skeleton and chains
# --------------------------------------------------------------------------


def test_skeleton_skips_pure_interior_and_stops_at_opaques():
    text = """
function main() {
  a = io(input)
  b = a + 1
  c = b * 2
  w = opaque { s = snapshot(c); yield(unit_value) }
  u = opaque { use(w); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text, "desc input in ordered\n5\n")
    read = event_of(result, lambda e: e.ios)
    w = event_of(result, lambda e: e.obs)
    u = event_of(result, lambda e: e.is_opaque and not e.obs and not e.ios)
    skel = opaque_skeleton(info)
    assert skel[read.seq] == (w.seq,)  # through b and c, no interior opaque
    assert skel[w.seq] == (u.seq,)
    assert skel[u.seq] == ()


def test_chains_are_maximal_paths_plus_singletons():
    text = """
function main() {
  a = io(input)
  w = opaque { s = snapshot(a); yield(unit_value) }
  lone = opaque { yield(9) }
  use(lone)
  return()
}
"""
    program, types, spec, result, info = setup(text, "desc input in ordered\n5\n")
    read = event_of(result, lambda e: e.ios)
    w = event_of(result, lambda e: e.obs)
    lone = event_of(result, lambda e: e.is_opaque and not e.obs and not e.ios)
    reports = chain_reports(program, spec, info)
    assert sorted(r.events for r in reports) == [(read.seq, w.seq), (lone.seq, lone.seq)]


def chain_verdict(witnesses):
    """The verdict rule spelled out: the first link that is unknown or
    has fewer than two outcomes decides."""
    bad = [w for w in witnesses if w.status == "unknown" or w.bound < 2]
    return "confirmed" if not bad else "unconfirmed" if bad[0].status == "unknown" else "broken"


def path_chains(skel, value_sets):
    """Reference for `find_chains`: enumerate every maximal path of the
    skeleton, isolated events included, and give each its verdict. The
    result is the set of (head, tail, verdict) triples."""
    has_pred = {k for ks in skel.values() for k in ks}
    triples = set()

    def extend(path):
        if not skel[path[-1]]:
            witnesses = [value_sets[link] for link in zip(path, path[1:])]
            triples.add((path[0], path[-1], chain_verdict(witnesses)))
            return
        for k in skel[path[-1]]:
            extend(path + [k])

    for head in sorted(set(skel) - has_pred):
        extend([head])
    return triples


def triples(reports):
    """The (head, tail, verdict) set of a report list, which must hold no
    report twice."""
    out = {(*r.events, r.verdict) for r in reports}
    assert len(out) == len(reports), reports
    return out


LINK_KINDS = {
    "confirmed": ValueSetReport(2, "enumerated", frozenset({0, 1})),
    "singleton": ValueSetReport(1, "sampled", frozenset({0})),
    "unknown": ValueSetReport(0, "unknown"),
}


@st.composite
def skeletons(draw):
    """A random skeleton DAG on up to 9 events, with every link confirmed,
    a singleton or unknown."""
    n = draw(st.integers(1, 9))
    kinds = st.sampled_from([None, *LINK_KINDS])
    skel, value_sets = {}, {}
    for j in range(n):
        succs = []
        for k in range(j + 1, n):
            kind = draw(kinds)
            if kind is not None:
                succs.append(k)
                value_sets[j, k] = LINK_KINDS[kind]
        skel[j] = tuple(succs)
    return skel, value_sets


@settings(deadline=None, derandomize=True)
@given(skeletons())
def test_find_chains_equals_the_path_enumeration(graph):
    skel, value_sets = graph
    assert triples(find_chains(skel, value_sets)) == path_chains(skel, value_sets)


# --------------------------------------------------------------------------
# Opaque value sets: enumeration oracles
# --------------------------------------------------------------------------


def links(result):
    """The (j, k) pair for two-opaque fixtures."""
    ops = opaque_events(result)
    assert len(ops) == 2
    return ops[0].seq, ops[1].seq


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
    return functools.cache(lambda iid: instr_signature(instr_at(program, iid)))


def full_domain_outcomes(program, spec, info, types, j, ks):
    """Reference for the rerun loop of a value-set audit, without its stop
    at the second outcome: patch event j's witness variable to every other
    value of its domain (each byte or boolean, else every sample), once
    each, and collect the outcome of every link (j, k) of `ks`."""
    events = info.events
    var = witness_var(info, j, ks[0])
    ty = types[events[j].iid[0], var]
    observed = dict(events[j].defs)[var]
    sign = signatures(program)
    outcomes = {k: {value_at_dependent(info, j, events[k].iid, sign)} for k in ks}
    for value in deps._domain(ty) or _sample_values(program, ty, observed):
        if value == observed:
            continue
        alt = deps.run(program, spec, patch=(j, var, value))
        alt_info = analyze(alt)
        for k in ks:
            outcomes[k].add(value_at_dependent(alt_info, j, events[k].iid, sign))
    return outcomes


def reference_value_sets(program, spec, info, pairs):
    """Reference for `deps._value_sets`, its links grouped and classified
    the same way, but every alternative value of a group rerun on its
    own, in order, until each of the group's links has two outcomes."""
    events = info.events
    var_types = typecheck(program).var_types
    sign = signatures(program)
    reports, groups = {}, {}
    for j, k in pairs:
        var = witness_var(info, j, k)
        ty = None if var is None else var_types.get((events[j].iid[0], var))
        if var is None or ty is Type.UNIT:
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


def test_ov_u8_bijection_enumerates_full_domain():
    text = """
function main() {
  a = opaque { yield(42u8) }
  b = a ^ 1u8
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    assert full_domain_outcomes(program, spec, info, types, j, [k])[k] == set(range(256))
    # The audit stops at the second outcome: the first patched byte, 0.
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "enumerated"
    assert report.bound == 2
    assert report.values == frozenset({42 ^ 1, 0 ^ 1})


class Reruns(list):
    """The patches of the reruns that returned, a lane-batched rerun's
    flattened into one per value; `runs` counts those executions and
    `diverged` the lane-batched ones that raised `Diverged`."""

    runs = diverged = 0


def counting_reruns(monkeypatch):
    """Wrap the rerun primitive behind value sets and record each patch."""
    patches = Reruns()
    original = deps.run

    def counted(*args, **kw):
        try:
            result = original(*args, **kw)
        except Diverged:
            patches.diverged += 1
            raise
        j, var, value = kw["patch"]
        patches.extend((j, var, v) for v in (value if type(value) is Lanes else [value]))
        patches.runs += 1
        return result

    monkeypatch.setattr(deps, "run", counted)
    return patches


def test_ov_enumerated_u8_link_reruns_every_other_value(monkeypatch):
    text = """
function main() {
  a = opaque { yield(42u8) }
  b = a ^ 1u8
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    patches = counting_reruns(monkeypatch)
    full_domain_outcomes(program, spec, info, types, j, [k])
    assert len(patches) == 255
    assert sorted(value for _, _, value in patches) == [v for v in range(256) if v != 42]
    patches.clear()
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "enumerated"
    assert report.bound == 2
    assert patches == [(j, "a", 0)]  # the first byte other than the observed 42


def test_ov_u8_self_xor_collapses_to_singleton():
    text = """
function main() {
  a = opaque { yield(42u8) }
  b = a ^ a
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "enumerated"
    assert report.values == frozenset({0})
    assert report.bound == 1


def test_ov_bool_negation_keeps_both_outcomes():
    text = """
function main() {
  a = opaque { yield(true) }
  b = !a
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "enumerated"
    assert report.values == frozenset({True, False})


def test_ov_value_flows_through_memory():
    # The dep path hops from the store to the load via reads-from; a copy
    # through a cell loses nothing, so the first sample is a second
    # outcome.
    text = """
function main() {
  a = opaque { yield(7) }
  mem[3] <- a
  b = mem[3]
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "sampled"
    assert report.bound == 2


def test_ov_control_divergence_distinguishes_reached_from_missing():
    text = """
function main() {
  a = opaque { yield(1u8) }
  br a, hit, miss
hit:
  w = opaque { use(0); yield(unit_value) }
  br miss
miss:
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "enumerated"
    # patched to 0 the opaque disappears; any nonzero value reaches it
    # through control only
    assert report.values == frozenset({_BOTTOM, _REACHED})
    assert report.bound == 2


def test_ov_both_branch_arms_running_the_same_opaque_still_collapse():
    # Whichever way the branch goes, an identical instruction runs with
    # the same constant operand: the observer cannot tell the arms apart.
    text = """
function main() {
  a = opaque { yield(1u8) }
  br a, hit, miss
hit:
  w1 = opaque { use(0); yield(unit_value) }
  br out
miss:
  w2 = opaque { use(0); yield(unit_value) }
  br out
out:
  return()
}
"""
    program, types = prepare(text)
    result = run(program, None)
    info = analyze(result)
    ops = opaque_events(result)
    assert len(ops) == 2
    j, k = ops[0].seq, ops[1].seq
    report = opaque_value_set(program, None, info, j, k)
    assert report.status == "enumerated"
    assert report.values == frozenset({_REACHED})
    assert report.bound == 1


# Two writes alike up to renaming. The second sees c = b - b = 0 whatever
# a is; read at the first write, its link would see b and be confirmed,
# and `instcombine` folding b - b would sever it.
LOOKALIKE_WRITES = """
function main() {
  a = opaque { yield(5u32) }
  b = a * 3
  c = b - b
  io(out, b)
  io(out, c)
  return()
}
"""


def test_ov_link_reads_its_outcome_at_its_own_target():
    program, types, spec, result, info = setup(LOOKALIKE_WRITES)
    a, write_b, write_c = (ev.seq for ev in opaque_events(result))
    assert opaque_value_set(program, spec, info, a, write_c) == ValueSetReport(
        1, "sampled", frozenset({0})
    )
    assert opaque_value_set(program, spec, info, a, write_b).bound == 2  # 3 is odd
    assert triples(chain_reports(program, spec, info)) == {
        (a, write_b, "confirmed"), (a, write_c, "broken")
    }
    for preset in ("P2", "P3"):
        res = optimize(program, preset=preset)
        opt = run(res.program, spec)
        verdict = audit_chain_preservation(result, opt, res.provenance, inputs=spec)
        assert verdict.passed, (preset, verdict.witnesses)


# --------------------------------------------------------------------------
# Opaque value sets: sampling
# --------------------------------------------------------------------------


def u32_text(expr_lines, yielded="7"):
    """A program whose opaque `a` yields `yielded` and whose second opaque
    snapshots b, defined from a by `expr_lines`."""
    text = f"function main() {{\n  a = opaque {{ yield({yielded}) }}\n"
    text += "\n".join("  " + l for l in expr_lines)
    return text + "\n  w = opaque { s = snapshot(b); yield(unit_value) }\n  return()\n}\n"


def u32_link(expr_lines, yielded="7"):
    program, types = prepare(u32_text(expr_lines, yielded))
    result = run(program, None)
    assert result.trapped is None
    info = analyze(result)
    j, k = links(result)
    return opaque_value_set(program, None, info, j, k)


@pytest.mark.parametrize(
    "expr_lines, values",
    [
        pytest.param(["b = a"], None, id="direct-use"),
        pytest.param(["b = a ^ 123"], None, id="xor-constant"),
        pytest.param(["t = a + 100", "b = t ^ 5"], None, id="chained-bijections"),
        pytest.param(["b = a & 255"], None, id="and-mask"),
        pytest.param(["b = a >> 32"], {0}, id="shift-past-width"),
        pytest.param(["b = a & 0"], {0}, id="and-zero"),
        pytest.param(["b = a * 0"], {0}, id="mul-zero"),
        pytest.param(["b = a < 0"], {False}, id="unsigned-below-zero"),
        pytest.param(["b = a == 5"], {True, False}, id="equality"),
    ],
)
def test_ov_sampled_outcomes(expr_lines, values):
    # None: a value-preserving or masking link, two outcomes whatever they are.
    report = u32_link(expr_lines)
    assert report.status == "sampled"
    if values is None:
        assert report.bound == 2
    else:
        assert report.values == frozenset(values)
        assert report.bound == len(values)


def test_ov_sampling_agrees_with_enumeration_on_bytes():
    # The same shape audited two ways: a byte link is enumerated, a word
    # link sampled; both must land on the same verdict.
    byte = """
function main() {
  a = opaque { yield(42u8) }
  b = a & 15u8
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""
    program, types = prepare(byte)
    result = run(program, None)
    info = analyze(result)
    j, k = links(result)
    reference = full_domain_outcomes(program, None, info, types.var_types, j, [k])[k]
    assert len(reference) == 16
    enum_report = opaque_value_set(program, None, info, j, k)
    assert enum_report.status == "enumerated"
    assert enum_report.bound == 2
    sampled = u32_link(["b = a & 15"])
    assert sampled.status == "sampled"
    assert sampled.bound == 2


@pytest.mark.parametrize(
    "expr_lines, yielded, ty, comparands, values",
    [
        pytest.param(["b = a < 5"], "7", Type.U32, [4, 5, 6], {True, False}, id="less"),
        pytest.param(["b = a > 5"], "7", Type.U32, [4, 5, 6], {True, False}, id="greater"),
        # 7 is the observed value
        pytest.param(["b = a != 7"], "7", Type.U32, [6, 8], {True, False}, id="not-equal"),
        pytest.param(
            ["b = a == -3i32"], "7i32", Type.I32, [-4, -3, -2], {True, False}, id="i32-equal"
        ),
        # -1 is no u32
        pytest.param(["b = a < 0"], "7", Type.U32, [0, 1], {False}, id="below-zero"),
    ],
)
def test_ov_comparands_are_extra_samples(expr_lines, yielded, ty, comparands, values):
    # Uniform draws all miss the one value these comparisons test; the
    # comparand samples follow the draws, which they leave unchanged.
    program, types = prepare(u32_text(expr_lines, yielded))
    plain, _ = prepare(u32_text(["b = a"], yielded))
    draws = _sample_values(plain, ty, 7)
    assert len(draws) == deps.SAMPLE_COUNT
    samples = _sample_values(program, ty, 7)
    assert samples[: deps.SAMPLE_COUNT] == draws
    assert samples[deps.SAMPLE_COUNT :] == comparands
    report = u32_link(expr_lines, yielded)
    assert report.status == "sampled"
    assert report.values == frozenset(values)


@pytest.mark.xfail(
    strict=True,
    reason="a comparison behind arithmetic: no sample makes t == 5; ROADMAP item 14 step 2",
)
def test_ov_comparison_behind_arithmetic_sees_both_outcomes():
    assert u32_link(["t = a ^ 9", "b = t == 5"]).values == frozenset({True, False})


def test_ov_sampling_self_subtraction_finds_single_outcome():
    report = u32_link(["b = a - a"])
    assert report.status == "sampled"
    assert report.values == frozenset({0})
    assert report.bound == 1


def test_ov_sampling_stops_after_second_outcome():
    # a % 7 has no rule; sampling needs only a couple of reruns to find
    # two distinct values
    report = u32_link(["b = a % 7"])
    assert report.status == "sampled"
    assert report.bound >= 2


def test_ov_sampling_reruns_until_the_second_outcome(monkeypatch):
    # The observed a = 7 reaches b as 7 % 7 = 0; the reruns stop at the
    # first sample whose remainder differs.
    patches = counting_reruns(monkeypatch)
    report = u32_link(["b = a % 7"])
    samples = _sample_values(prepare(u32_text(["b = a % 7"]))[0], Type.U32, 7)
    first_new = next(i for i, v in enumerate(samples) if v % 7 != 0)
    assert report.status == "sampled"
    assert report.bound == 2
    assert [value for _, _, value in patches] == samples[: first_new + 1]


def test_ov_join_cancelling_the_patch_is_a_singleton():
    # a recombines with itself through two routes: t ^ a = 9 whatever a is
    report = u32_link(["t = a ^ 9", "b = t ^ a"])
    assert report.status == "sampled"
    assert report.values == frozenset({0 ^ 9})
    assert report.bound == 1


def test_ov_two_result_opaque_links_through_the_result_it_uses():
    """`a, b = opaque {...}` binds both results; only b reaches w, so the
    link's witness is b and its value set is b's."""
    program, types, spec, result, info = setup(
        """
function main() {
  x = io(inp)
  a, b = opaque { yield(7, x) }
  c = b + 1
  w = opaque { s = snapshot(c); yield(unit_value) }
  return()
}
""",
        "desc inp in ordered\n5\n",
    )
    j, k = (ev.seq for ev in result.events if ev.kind == "opaque")
    assert result.events[j].defs == (("a", 7), ("b", 5))
    assert witness_var(info, j, k) == "b"
    assert deps._value_sets(program, spec, info, [(j, k)])[j, k].bound >= 2


# --------------------------------------------------------------------------
# Unit tokens and chain classification
# --------------------------------------------------------------------------


def test_ov_unit_token_uses_abstract_domain():
    text = """
function main() {
  t = opaque { yield(unit_value) }
  u = opaque { use(t); yield(unit_value) }
  return()
}
"""
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    report = opaque_value_set(program, spec, info, j, k)
    assert report.status == "rule_derived"
    assert report.bound == 2
    assert report.values is None  # never enumerated


TOKEN_THREADED = """
function main() {
  a = io(input)
  t1 = opaque { s1 = snapshot(a); yield(unit_value) }
  t2 = opaque { use(t1); s2 = snapshot(a); yield(unit_value) }
  io(out, a)
  return()
}
"""


def test_token_threaded_chain_is_confirmed():
    program, types, spec, result, info = setup(TOKEN_THREADED, "desc input in ordered\n5\n")
    read = event_of(result, lambda e: e.ios and e.ios[0].channel == "input").seq
    t1, t2 = (ev.seq for ev in result.events if ev.obs)
    skel = opaque_skeleton(info)
    assert t1 in skel[read] and skel[t1] == (t2,) and skel[t2] == ()
    threaded = [
        opaque_value_set(program, spec, info, j, k) for j, k in [(read, t1), (t1, t2)]
    ]
    assert [w.status for w in threaded] == ["sampled", "rule_derived"]
    assert chain_verdict(threaded) == "confirmed"
    assert (read, t2, "confirmed") in triples(chain_reports(program, spec, info))


BROKEN_LINK = """
function main() {
  a = opaque { yield(42u8) }
  b = a ^ a
  w = opaque { s = snapshot(b); yield(unit_value) }
  return()
}
"""


def test_broken_link_marks_the_chain_broken():
    program, types, spec, result, info = setup(BROKEN_LINK)
    j, k = links(result)
    reports = chain_reports(program, spec, info)
    assert [(r.events, r.verdict) for r in reports] == [((j, k), "broken")]
    assert opaque_value_set(program, spec, info, j, k).bound == 1


SINGLETON = """
function main() {
  lone = opaque { yield(9) }
  use(lone)
  return()
}
"""


def test_singleton_chain_is_vacuously_confirmed():
    program, types, spec, result, info = setup(SINGLETON)
    (lone,) = (ev.seq for ev in opaque_events(result))
    reports = chain_reports(program, spec, info)
    assert [(r.events, r.verdict) for r in reports] == [((lone, lone), "confirmed")]
    assert opaque_skeleton(info) == {lone: ()}  # no link to witness


PRELUDE_CHAIN = """
function main() {
  a = io(input)
  t = observe_decoupled(a)
  u = observe_tailio(t)
  return()
}
"""


def test_prelude_observation_chain_through_tailio():
    program, types, spec, result, info = setup(PRELUDE_CHAIN, "desc input in ordered\n5\n")
    # input read -> snapshot+token -> token+tailio write
    read = event_of(result, lambda e: e.ios and e.ios[0].channel == "input").seq
    token = event_of(result, lambda e: e.obs).seq
    write = event_of(result, lambda e: e.ios and e.ios[0].channel == "tailio").seq
    skel = opaque_skeleton(info)
    assert skel[read] == (token,) and skel[token] == (write,)
    assert triples(chain_reports(program, spec, info)) == {(read, write, "confirmed")}


# --------------------------------------------------------------------------
# Shared reruns: every link out of one opaque event uses the same reruns
# --------------------------------------------------------------------------


# A byte accumulator carried through `observe_and_opacify` by a counted
# loop, with a token observation at the exit: the input read and each
# iteration's opacified byte are enumerated chain heads.
CHAIN_LOOP = """
function main() {
  a: u8 = io(inp)
  br head(0, a)
head(i, acc):
  c = i < TRIPS
  br c, body, done(acc)
body:
  x = acc ^ 90u8
  o = observe_and_opacify(x)
  y = o + 17u8
  i2 = i + 1
  br head(i2, y)
done(r):
  t = observe_decoupled(r)
  u = observe_tailio(t)
  io(out, r)
  return()
}
"""
CHAIN_LOOP_INPUT = "desc inp in ordered\n200u8\n"

# Two sampled links out of one u32 opaque: neither operation has a rule.
# The observed 7 reaches w1 as b = 0 and w2 as c = 0. The scan for w2
# goes on past w1, an opaque event that also depends on a: b sees another
# value at the first sample, c (or w1 skipped by the branch) only once a
# sample reaches 4,000,000,000.
SAMPLED_FORK = """
function main() {
  a = opaque { yield(7) }
  b = a % 7
  c = a / 4000000000
  br c, join, hit
hit:
  w1 = opaque { s = snapshot(b); yield(unit_value) }
  br join
join:
  w2 = opaque { use(c); yield(unit_value) }
  return()
}
"""

CHAIN_PROGRAMS = [
    pytest.param(TOKEN_THREADED, "desc input in ordered\n5\n", id="token-threaded"),
    pytest.param(BROKEN_LINK, None, id="broken-link"),
    pytest.param(SINGLETON, None, id="singleton"),
    pytest.param(PRELUDE_CHAIN, "desc input in ordered\n5\n", id="prelude-chain"),
    pytest.param(SAMPLED_FORK, None, id="sampled-fork"),
    pytest.param(CHAIN_LOOP.replace("TRIPS", "2"), CHAIN_LOOP_INPUT, id="loop-2-trips"),
    pytest.param(CHAIN_LOOP.replace("TRIPS", "4"), CHAIN_LOOP_INPUT, id="loop-4-trips"),
]

# Two links out of a: w1 depends on a through b, but lies off the path
# a -> c -> w2, so the scan for w2 must go on past it.
OFF_PATH_OPAQUE = """
function main() {
  a = opaque { yield(7) }
  b = a % 7
  c = a / 4000000000
  w1 = opaque { s = snapshot(b); yield(unit_value) }
  w2 = opaque { use(c); yield(unit_value) }
  return()
}
"""


# The chained observations of two reads from `test_validate`: the first
# read heads a chain through both observations and another to the write.
CHAINED = """
function main() {
  a = io(inp)
  b = io(inp)
  t1 = observe_decoupled(a)
  t2 = observe_decoupled(b, t1)
  u = observe_tailio(t2)
  io(out, a)
  return()
}
"""


def per_link_value_sets(program, spec, info):
    """The skeleton of a run, and each of its links audited on its own
    by `opaque_value_set`."""
    skel = opaque_skeleton(info)
    value_sets = {
        (j, k): opaque_value_set(program, spec, info, j, k) for j, ks in skel.items() for k in ks
    }
    return skel, value_sets


@pytest.mark.parametrize(
    "text, inputs",
    CHAIN_PROGRAMS + [pytest.param(CHAINED, "desc inp in ordered\n5\n9\n", id="chained")],
)
def test_chain_reports_equal_per_link_audits(text, inputs):
    program, types, spec, result, info = setup(text, inputs)
    skel, value_sets = per_link_value_sets(program, spec, info)
    # Shared reruns give every link the report it gets on its own.
    assert deps._value_sets(program, spec, info, list(value_sets)) == value_sets
    reports = chain_reports(program, spec, info)
    assert triples(reports) == path_chains(skel, value_sets)


@pytest.mark.parametrize(
    "text, inputs",
    CHAIN_PROGRAMS + [pytest.param(OFF_PATH_OPAQUE, None, id="off-path-opaque")],
)
def test_chain_verdicts_match_the_full_domain_reference(text, inputs):
    program, types, spec, result, info = setup(text, inputs)
    skel, value_sets = per_link_value_sets(program, spec, info)
    rerun_links = {}  # head -> the links audited by reruns
    for (j, k), w in value_sets.items():
        if w.status in ("enumerated", "sampled"):
            rerun_links.setdefault(j, set()).add(k)
    # On the chain loop this reruns every other byte of every head: 765
    # reruns at 2 trips and 1,275 at 4, where the audit makes 3 and 5.
    full = dict(value_sets)
    for j, ks in rerun_links.items():
        for k, outcomes in full_domain_outcomes(program, spec, info, types, j, sorted(ks)).items():
            w = value_sets[j, k]
            assert (w.bound >= 2) == (len(outcomes) >= 2), (j, k)
            assert w.values <= outcomes
            full[j, k] = ValueSetReport(len(outcomes), w.status, frozenset(outcomes))
    assert triples(chain_reports(program, spec, info)) == path_chains(skel, full)


def test_link_past_an_off_path_opaque_is_confirmed():
    program, types, spec, result, info = setup(OFF_PATH_OPAQUE)
    a, w1, w2 = (ev.seq for ev in opaque_events(result))
    reports = chain_reports(program, spec, info)
    assert sorted(r.events for r in reports) == [(a, w1), (a, w2)]
    assert (a, w2, "confirmed") in triples(reports)
    # c = 7 / 4,000,000,000 = 0, and 1 once a sample reaches 4,000,000,000
    assert opaque_value_set(program, spec, info, a, w2) == ValueSetReport(
        2, "sampled", frozenset({0, 1})
    )


# A byte read masked to zero before it is written: whatever the read
# yields, the write sees 0, so the link is a singleton.
MASKED_BYTE = """
function main() {
  a: u8 = io(inp)
  b = a & 0u8
  io(out, b)
  return()
}
"""


def test_singleton_enumerated_link_runs_its_whole_domain_and_is_exempt(monkeypatch):
    program, types, spec, result, info = setup(MASKED_BYTE, "desc inp in ordered\n5u8\n")
    j, k = links(result)
    patches = counting_reruns(monkeypatch)
    reports = chain_reports(program, spec, info)
    assert sorted(value for _, _, value in patches) == [v for v in range(256) if v != 5]
    assert patches.runs == 2  # the first byte alone, the other 254 in one lane-batched rerun
    assert [(r.events, r.verdict) for r in reports] == [((j, k), "broken")]
    assert opaque_value_set(program, spec, info, j, k) == ValueSetReport(
        1, "enumerated", frozenset({0})
    )
    # P3 folds b to 0u8, so no dependence joins the read to the write;
    # the broken chain is exempt from the audit.
    res = optimize(program, preset="P3")
    opt = run(res.program, spec)
    read, write = (ev.seq for ev in opaque_events(opt))
    assert not analyze(opt).dep_reachable(read, write)
    assert audit_chain_preservation(result, opt, res.provenance, inputs=spec).passed


def recording(monkeypatch, name):
    """Wrap the function `deps.<name>` and record the first argument of
    each call."""
    calls = []
    original = getattr(deps, name)

    def recorded(first, *args, **kw):
        calls.append(first)
        return original(first, *args, **kw)

    monkeypatch.setattr(deps, name, recorded)
    return calls


@pytest.mark.parametrize(
    "text, inputs", [p for p in CHAIN_PROGRAMS if p.id not in ("singleton", "prelude-chain")]
)
def test_value_set_reruns_compute_no_frontier_and_no_hb(monkeypatch, text, inputs):
    program, types, spec, result, info = setup(text, inputs)
    pairs = [(j, k) for j, ks in opaque_skeleton(info).items() for k in ks]
    frontiers = recording(monkeypatch, "_nearest")
    analysed = recording(monkeypatch, "analyze")
    patches = counting_reruns(monkeypatch)
    deps._value_sets(program, spec, info, pairs)
    assert patches and len(analysed) == patches.runs
    assert frontiers == []
    assert all(rerun._deps._anchor_reach is None for rerun in analysed)
    # the skeleton and an hb query on a fresh analysis are what compute them
    twin = dataclasses.replace(program)  # runs and analyses nothing shares
    fresh = analyze(run(twin, spec))
    opaque_skeleton(fresh)
    fresh.hb_pairs()
    assert frontiers == [fresh.dep_sources, fresh.dep_sources]
    assert fresh._anchor_reach is not None


def test_every_analysis_of_a_program_shares_its_conditional_branches(monkeypatch):
    """The analyses of a program's runs, the chain audit's reruns
    included, all get one set of conditional-branch iids, stored on the
    program: its branch instructions with a condition."""
    program, types, spec, result, info = setup(
        CHAIN_LOOP.replace("TRIPS", "2"), CHAIN_LOOP_INPUT
    )
    seen = []
    original = deps._conditional_branches

    def recorded(p):
        seen.append((p, original(p)))
        return seen[-1][1]

    monkeypatch.setattr(deps, "_conditional_branches", recorded)
    patches = counting_reruns(monkeypatch)
    chain_reports(program, spec, info)
    assert patches.runs and len(seen) == patches.runs
    assert all(p is program for p, _ in seen)
    assert len({id(found) for _, found in seen}) == 1
    assert seen[0][1] is original(program) == {
        (f.name, bi, pos)
        for f in program.functions
        for bi, block in enumerate(f.region.blocks)
        for pos, instr in enumerate(block.instrs)
        if isinstance(instr, Branch) and instr.cond is not None
    }
    assert seen[0][1]  # the loop branches


@pytest.mark.parametrize("trips, heads", [(2, 3), (4, 5), (8, 9), (12, 13), (20, 21)])
def test_chain_loop_reruns_each_head_value_once(monkeypatch, trips, heads):
    # Every head's first patched byte already gives a second outcome, so
    # the audit makes one rerun per head: reruns grow linearly in trips.
    program, types, spec, result, info = setup(
        CHAIN_LOOP.replace("TRIPS", str(trips)), CHAIN_LOOP_INPUT
    )
    patches = counting_reruns(monkeypatch)
    chain_reports(program, spec, info)
    assert len(patches) == heads == trips + 1
    assert len({(j, var) for j, var, _ in patches}) == heads
    for j, var, value in patches:
        observed = dict(result.events[j].defs)[var]
        assert value == next(v for v in range(256) if v != observed)


@pytest.mark.parametrize("trips", [20, 60])
def test_long_chain_loop_audits_two_pairs_and_passes(trips):
    # 2^trips paths, but one head reaching two tails.
    program, types, spec, result, info = setup(
        CHAIN_LOOP.replace("TRIPS", str(trips)), CHAIN_LOOP_INPUT
    )
    assert len(chain_reports(program, spec, info)) == 2
    res = optimize(program, preset="P3")
    verdict = audit_chain_preservation(result, run(res.program, spec), res.provenance, inputs=spec)
    assert verdict.passed, verdict.witnesses


def test_sampled_group_reruns_until_its_last_link_has_two_outcomes(monkeypatch):
    program, types, spec, result, info = setup(SAMPLED_FORK)
    a, w1, w2 = (ev.seq for ev in opaque_events(result))
    samples = _sample_values(program, Type.U32, 7)
    first_c = next(i for i, v in enumerate(samples) if v >= 4000000000)
    first_b = next(i for i, v in enumerate(samples) if v % 7 != 0 or v >= 4000000000)
    assert first_b < first_c
    patches = counting_reruns(monkeypatch)
    reports = chain_reports(program, spec, info)
    assert [value for _, _, value in patches] == samples[: first_c + 1]
    assert triples(reports) == {(a, w1, "confirmed"), (a, w2, "confirmed")}
    shared = deps._value_sets(program, spec, info, [(a, w1), (a, w2)])
    for k, first in ((w1, first_b), (w2, first_c)):
        patches.clear()
        report = opaque_value_set(program, spec, info, a, k)
        assert len(patches) == first + 1
        assert report.status == "sampled"
        assert report.bound == 2
        assert shared[a, k] == report


# --------------------------------------------------------------------------
# Lane-batched reruns
# --------------------------------------------------------------------------


def audited_links(info):
    return [(j, k) for j, ks in opaque_skeleton(info).items() for k in ks]


@pytest.mark.parametrize(
    "text, inputs",
    CHAIN_PROGRAMS + [
        pytest.param(CHAINED, "desc inp in ordered\n5\n9\n", id="chained"),
        pytest.param(OFF_PATH_OPAQUE, None, id="off-path-opaque"),
        pytest.param(LOOKALIKE_WRITES, None, id="lookalike-writes"),
        pytest.param(MASKED_BYTE, "desc inp in ordered\n5u8\n", id="masked-byte"),
    ],
)
def test_value_sets_equal_the_per_value_reference(text, inputs):
    program, types, spec, result, info = setup(text, inputs)
    pairs = audited_links(info)
    assert deps._value_sets(program, spec, info, pairs) == reference_value_sets(
        program, spec, info, pairs
    )


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_value_sets_equal_the_per_value_reference_on_the_sweep(shape, pattern):
    spec = parse_input("desc inp in ordered\n5\n")
    for result in sweep_runs(shape, pattern):
        info = analyze(result)
        pairs = audited_links(info)
        got = deps._value_sets(result.program, spec, info, pairs)
        assert got == reference_value_sets(result.program, spec, info, pairs)


def test_value_sets_equal_the_per_value_reference_on_the_benchmark_programs():
    """Every program the benchmark workloads audit at seeds 1, 2 and 11,
    as the audit sees it: the reference run of the program or its twin
    on the first input. Each corpus seed has singleton groups that run
    all 64 samples."""
    gen = load_benchmark_generator()
    sampled_singletons = 0
    for make in gen.WORKLOADS.values():
        for seed in (1, 2, 11):
            for case in make(seed):
                if case.audit_preset is None:
                    continue
                text = case.twin if case.audit_twin else case.text
                program = prepare(text)[0]
                spec = parse_input(case.inputs[0])
                info = analyze(run(program, spec))
                pairs = audited_links(info)
                got = deps._value_sets(program, spec, info, pairs)
                assert got == reference_value_sets(program, spec, info, pairs), case.name
                sampled_singletons += sum(w.bound == 1 and w.status == "sampled" for w in got.values())
    assert sampled_singletons  # groups whose lanes ran to the end


def lane_case(site, yielded="42u8", helpers=""):
    """A link from an opaque result `a` to a snapshot of `b`, joined by `site`."""
    return (
        f"{helpers}function main() {{\n  a = opaque {{ yield({yielded}) }}\n{site}"
        "  w = opaque { s = snapshot(b); yield(unit_value) }\n  return()\n}\n"
    )


# Per row: the program, the reruns that return, the lane-batched ones that
# diverge, and its one link's report. The first alternative value reruns
# alone; a diverged batch leaves the rest to one rerun each.
LANE_CASES = [
    pytest.param(
        lane_case("  c = a | 1u8\n  br c, hit, miss\nhit:\n  b = a & 0u8\n")
        .replace("  return()\n}", "  br miss\nmiss:\n  return()\n}"),
        2, 0, ValueSetReport(1, "enumerated", frozenset({0})), id="branch-one-arm",
    ),
    pytest.param(
        lane_case("  c = a < 5u8\n  br c, hit, miss\nhit:\n  b = a & 0u8\n", yielded="2u8")
        .replace("  return()\n}", "  br miss\nmiss:\n  return()\n}"),
        # 0 reaches w; the batch parts at 5; 1, 3 and 4 reach w; 5 misses it
        5, 1, ValueSetReport(2, "enumerated", frozenset({0, _BOTTOM})), id="branch-split",
    ),
    pytest.param(
        lane_case("  p = a - a\n  mem[p] <- 5\n  b = mem[0]\n", yielded="7"),
        # every lane of p is 0, so p is one address and the batch holds
        2, 0, ValueSetReport(1, "sampled", frozenset({5})), id="lane-address",
    ),
    pytest.param(
        lane_case("  mem[3] <- a\n  v = mem[3]\n  b = v / 4000000000\n", yielded="7"),
        2, 0, ValueSetReport(2, "sampled", frozenset({0, 1})), id="store-and-load",
    ),
    pytest.param(
        lane_case("  c = a - 1u8\n  d = 100u8 / c\n  b = d & 0u8\n"),
        # 0 divides by 255; the lane of 1 traps, and so does its own rerun
        2, 1, ValueSetReport(2, "enumerated", frozenset({0, _BOTTOM})), id="division-by-zero",
    ),
    pytest.param(
        lane_case("  b = a / 200u8\n").replace(
            "w = opaque { s = snapshot(b); yield(unit_value) }",
            "w = opaque {\n  r0:\n    c = b | 1u8;\n    br c, r1, r2;\n  r1:\n"
            "    s = snapshot(b);\n    yield(unit_value);\n  r2:\n    yield(unit_value);\n  }",
        ),
        2, 0, ValueSetReport(2, "enumerated", frozenset({0, 1})), id="branch-in-region",
    ),
    pytest.param(
        lane_case(
            "  b = scale(a)\n",
            helpers="function scale(x: u8) -> (u8) {\n  y = x / 200u8\n  return(y)\n}\n",
        ),
        2, 0, ValueSetReport(2, "enumerated", frozenset({0, 1})), id="call-and-return",
    ),
    pytest.param(
        BROKEN_LINK, 2, 0, ValueSetReport(1, "enumerated", frozenset({0})), id="u8-singleton",
    ),
    pytest.param(
        # 2a wraps to a sign of its own: the third sample's is the first >= 0
        lane_case("  d = a * 2i32\n  b = d < 0i32\n", yielded="-7i32"),
        2, 0, ValueSetReport(2, "sampled", frozenset({True, False})), id="i32-sampled",
    ),
]


@pytest.mark.parametrize("text, runs, diverged, report", LANE_CASES)
def test_lane_batched_reruns(monkeypatch, text, runs, diverged, report):
    program, types, spec, result, info = setup(text)
    j, k = links(result)
    patches = counting_reruns(monkeypatch)
    got = deps._value_sets(program, spec, info, [(j, k)])
    assert (patches.runs, patches.diverged) == (runs, diverged)
    assert got == {(j, k): report}
    assert got == reference_value_sets(program, spec, info, [(j, k)])
    # Values are tried in order: a batch's lanes, or its values one by one.
    (var, observed), = result.events[j].defs
    ty = types[result.events[j].iid[0], var]
    alts = [v for v in deps._domain(ty) or _sample_values(program, ty, observed) if v != observed]
    assert [value for _, _, value in patches] == alts[: len(patches)]


# --------------------------------------------------------------------------
# One dependent scan per group
# --------------------------------------------------------------------------


def checking_scans(monkeypatch):
    """Wrap `deps.dependent_outcomes` so that each scan the audit makes is
    checked against `value_at_dependent` link by link; returns the list
    of the scans' target counts."""
    scans = []
    original = deps.dependent_outcomes

    def checked(info, j, targets, sign):
        got = original(info, j, targets, sign)
        assert got == {k: value_at_dependent(info, j, iid, sign) for k, iid in targets.items()}
        scans.append(len(targets))
        return got

    monkeypatch.setattr(deps, "dependent_outcomes", checked)
    return scans


@pytest.mark.parametrize("shape, pattern", SWEEP)
def test_one_scan_equals_the_per_link_scan_on_the_sweep(monkeypatch, shape, pattern):
    spec = parse_input("desc inp in ordered\n5\n")
    checking_scans(monkeypatch)
    for result in sweep_runs(shape, pattern):
        info = analyze(result)
        deps._value_sets(result.program, spec, info, audited_links(info))


def test_one_scan_equals_the_per_link_scan_on_the_benchmark_programs(monkeypatch):
    """Every scan the audit makes, of the reference run and of each rerun,
    on every program the benchmark workloads audit at seeds 1 and 11."""
    scans = checking_scans(monkeypatch)
    gen = load_benchmark_generator()
    for make in gen.WORKLOADS.values():
        for seed in (1, 11):
            for case in make(seed):
                if case.audit_preset is None:
                    continue
                program = prepare(case.twin if case.audit_twin else case.text)[0]
                spec = parse_input(case.inputs[0])
                info = analyze(run(program, spec))
                deps._value_sets(program, spec, info, audited_links(info))
    assert sum(n > 1 for n in scans)  # scans serving several links at once


# `a` picks an arm: `hit` runs w1 and w3, `miss` runs w2, identical to w1
# up to renaming.
ARMS_AND_A_LONE_OPAQUE = """
function main() {
  a = opaque { yield(1u8) }
  br a, hit, miss
hit:
  w1 = opaque { use(0); yield(unit_value) }
  w3 = opaque { use(1); yield(unit_value) }
  br out
miss:
  w2 = opaque { use(0); yield(unit_value) }
  br out
out:
  return()
}
"""


def test_one_scan_falls_back_to_a_lookalike_and_gives_bottom_for_a_target_never_run():
    program, types, spec, result, info = setup(ARMS_AND_A_LONE_OPAQUE)
    a, w1, w3 = (ev.seq for ev in opaque_events(result))
    targets = {w1: result.events[w1].iid, w3: result.events[w3].iid}
    sign = signatures(program)
    assert deps.dependent_outcomes(info, a, targets, sign) == {w1: _REACHED, w3: _REACHED}
    alt = analyze(run(program, spec, patch=(a, "a", 0)))
    assert [ev.iid for ev in opaque_events(alt)][1] not in targets.values()  # w2 ran
    assert deps.dependent_outcomes(alt, a, targets, sign) == {w1: _REACHED, w3: _BOTTOM}
    for run_info in (info, alt):
        assert deps.dependent_outcomes(run_info, a, targets, sign) == {
            k: value_at_dependent(run_info, a, iid, sign) for k, iid in targets.items()
        }
