"""Optimization passes and pipelines.

Every pass consumes a macro-free program and produces a rewritten
program plus provenance: a set of edges from source instruction ids to
result instruction ids, each labeled with how the instruction got there.

  * kept:       survived, possibly with operands rewritten in place;
  * rewritten:  replaced by a different computation in the same role
                (a fold, a copy standing in for a duplicate);
  * combined:   merged with at least one other instruction into a single
                result instruction;
  * duplicated: cloned into several result instructions (unrolling).

Instructions with no outgoing edge were deleted. Pipelines compose the
per-pass maps relationally, so the final map relates the original
program directly to the optimized one; the differential validator keys
its event matching off these edges.

Passes treat `opaque { ... }` instructions as indivisible: decisions may
consult the published summary (free uses, effect bits, yield arity, the
renaming-invariant identity), and rewrites go through the three that
`ir` sanctions: `rename_instr` (free-use substitution), `freshen`
(renaming a copy, bound names inside regions made fresh) and
`merge_obs_metadata`; nothing else.
`run_pipeline` executes with the opacity seal engaged, so a pass that
tries to peek raises instead of miscompiling. The deliberately unsound
`unsafe_const_fold_opaque` exists to prove the point and belongs to no
preset.

`run_pipeline` memoizes pass results on the program it is given, for
that program's lifetime, keyed by the pass functions that changed
something so far plus the next one: presets that share a prefix run it
once, and a patched `PASSES` entry is never served a stale result. An
entry holds the output, provenance, affected count and a no-op flag; a
no-op logs 0 and stays out of the key and the provenance. Raising
passes are not stored. A non-empty pipeline never returns its input,
which would share the caller's reference runs (memoized on the program)
with the optimized ones and move the collector's work between timed
sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Optional

from .ir import (
    AtomExpr,
    BinaryExpr,
    Block,
    BlockCall,
    Branch,
    CallExpr,
    Const,
    Define,
    Function,
    InstrId,
    LoadMem,
    LoadRef,
    MemStore,
    OpaqueExpr,
    Param,
    Program,
    RefAssign,
    Region,
    Return,
    SnapshotExpr,
    Type,
    UnaryExpr,
    Var,
    Yield,
    _FRESH_SUFFIX_RE,
    block_successors,
    freshen,
    instr_operand_atoms,
    instr_signature,
    merge_obs_metadata,
    region_defined_names,
    rename_instr,
    sealed_opaque_regions,
    typecheck,
)
from .interp import eval_binary, eval_unary

# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------

_KIND_RANK = {"kept": 0, "duplicated": 1, "combined": 2, "rewritten": 3}


@dataclass
class ProvenanceMap:
    """Relation between instruction ids of two programs."""

    edges: dict[tuple[InstrId, InstrId], str] = field(default_factory=dict)

    def add(self, src: InstrId, dst: InstrId, kind: str) -> None:
        key = (src, dst)
        old = self.edges.get(key)
        if old is None or _KIND_RANK[kind] > _KIND_RANK[old]:
            self.edges[key] = kind

    def image(self, src: InstrId) -> dict[InstrId, str]:
        return {d: k for (s, d), k in self.edges.items() if s == src}

    def preimage(self, dst: InstrId) -> dict[InstrId, str]:
        return {s: k for (s, d), k in self.edges.items() if d == dst}

    def compose(self, later: "ProvenanceMap") -> "ProvenanceMap":
        by_src: dict[InstrId, list[tuple[InstrId, str]]] = {}
        for (s, d), k in later.edges.items():
            by_src.setdefault(s, []).append((d, k))
        out = ProvenanceMap()
        for (s, mid), k1 in self.edges.items():
            for d, k2 in by_src.get(mid, []):
                out.add(s, d, k1 if _KIND_RANK[k1] >= _KIND_RANK[k2] else k2)
        return out

    def rows(self) -> list[tuple[InstrId, InstrId, str]]:
        return sorted((s, d, k) for (s, d), k in self.edges.items())

    @classmethod
    def identity(cls, program: Program) -> "ProvenanceMap":
        pm = cls()
        for iid in program_iids(program):
            pm.add(iid, iid, "kept")
        return pm


def program_iids(program: Program) -> list[InstrId]:
    out = []
    for f in program.functions:
        for bi, block in enumerate(f.region.blocks):
            for pos in range(len(block.instrs)):
                out.append((f.name, bi, pos))
    return out


@dataclass
class PassResult:
    program: Program
    provenance: ProvenanceMap


# --------------------------------------------------------------------------
# Shared rebuilding machinery
# --------------------------------------------------------------------------


class _FnRebuild:
    """Collects new blocks for one function while recording, for every
    emitted instruction, which source instructions it came from."""

    def __init__(self, fname: str):
        self.fname = fname
        self.blocks: list[Block] = []
        self.sources: list[list[list[tuple[InstrId, str]]]] = []
        self._label: Optional[str] = None
        self._params: tuple[Param, ...] = ()
        self._implicit = False
        self._instrs: list = []
        self._srcs: list[list[tuple[InstrId, str]]] = []

    def open_block(self, label: str, params: tuple[Param, ...], implicit=False):
        self._label, self._params, self._implicit = label, params, implicit
        self._instrs, self._srcs = [], []

    def emit(self, instr, srcs: list[tuple[InstrId, str]]):
        self._instrs.append(instr)
        self._srcs.append(list(srcs))

    def instr_at(self, index: int):
        return self._instrs[index]

    def replace_at(self, index: int, instr) -> None:
        self._instrs[index] = instr

    def add_source(self, index: int, src: tuple[InstrId, str]) -> None:
        self._srcs[index].append(src)

    def next_index(self) -> int:
        return len(self._instrs)

    def close_block(self):
        self.blocks.append(
            Block(self._label, self._params, tuple(self._instrs), implicit=self._implicit)
        )
        self.sources.append(self._srcs)
        self._label = None

    def finish(self, fn: Function, pm: ProvenanceMap) -> Function:
        for bi, block_srcs in enumerate(self.sources):
            for pos, srcs in enumerate(block_srcs):
                for src, kind in srcs:
                    pm.add(src, (self.fname, bi, pos), kind)
        return dc_replace(fn, region=Region(tuple(self.blocks)))


def _per_instr_pass(
    program: Program,
    rewrite: Callable[[str, InstrId, object], Optional[list[tuple[object, str]]]],
) -> PassResult:
    """Run a pass that maps each instruction independently to zero or more
    replacements (None keeps it as is). Block structure is unchanged."""
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        rb = _FnRebuild(f.name)
        for bi, block in enumerate(f.region.blocks):
            rb.open_block(block.label, block.params, block.implicit)
            for pos, instr in enumerate(block.instrs):
                iid = (f.name, bi, pos)
                out = rewrite(f.name, iid, instr)
                if out is None:
                    rb.emit(instr, [(iid, "kept")])
                else:
                    for new_instr, kind in out:
                        rb.emit(new_instr, [(iid, kind)])
            rb.close_block()
        functions.append(rb.finish(f, pm))
    return PassResult(Program(tuple(functions), program.macros), pm)


def _instr_uses(instr) -> set[str]:
    """Variable names an instruction reads, opaque free uses included."""
    names = {a.name for a in instr_operand_atoms(instr) if isinstance(a, Var)}
    if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
        names.update(instr.rhs.summary.uses)
    return names


def _zero_const(ty: Optional[Type]) -> Const:
    if ty is Type.BOOL:
        return Const(False, Type.BOOL)
    return Const(0, ty if ty in (Type.U8, Type.I32) else Type.U32)


def _allones(ty: Optional[Type]):
    if ty is Type.BOOL:
        return True
    if ty is Type.U8:
        return 255
    if ty is Type.U32:
        return 2**32 - 1
    if ty is Type.I32:
        return -1
    return None


def _fresh_namer(f: Function) -> Callable[[str], str]:
    """Fresh-name source that cannot collide with anything already in the
    function, names bound inside opaque regions included."""
    taken = region_defined_names(f.region)
    taken |= {b.label for b in f.region.blocks}
    taken |= {p.name for p in f.params}
    floor = 0
    for name in taken:
        m = _FRESH_SUFFIX_RE.search(name)
        if m:
            floor = max(floor, int(m.group()[2:]))
    counter = floor

    def fresh(base: str) -> str:
        nonlocal counter
        counter += 1
        return f"{_FRESH_SUFFIX_RE.sub('', base)}__{counter}"

    return fresh


# --------------------------------------------------------------------------
# copyprop
# --------------------------------------------------------------------------


def copyprop(program: Program) -> PassResult:
    """Forward variable-to-variable copies into their uses. The copy
    definitions stay behind for dce to sweep."""

    roots: dict[str, dict[str, Var]] = {}
    for f in program.functions:
        copies: dict[str, str] = {}
        for block in f.region.blocks:
            for instr in block.instrs:
                if (
                    isinstance(instr, Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                    and isinstance(instr.rhs, AtomExpr)
                    and isinstance(instr.rhs.atom, Var)
                ):
                    copies[instr.results[0]] = instr.rhs.atom.name
        resolved: dict[str, Var] = {}
        for name, target in copies.items():
            while target in copies:
                target = copies[target]
            resolved[name] = Var(target)
        roots[f.name] = resolved

    def rewrite(fname, iid, instr):
        resolved = roots[fname]
        if not resolved:
            return None
        new = rename_instr(instr, resolved)
        if new == instr:
            return None
        return [(new, "kept")]

    return _per_instr_pass(program, rewrite)


# --------------------------------------------------------------------------
# constprop
# --------------------------------------------------------------------------

_TOP = ("top",)
_BOT = ("bot",)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _meet(a, b):
    if a == _TOP:
        return b
    if b == _TOP:
        return a
    if a == b:
        return a
    return _BOT


def constprop(program: Program) -> PassResult:
    """Sparse conditional constant propagation, one function at a time.

    Opaque results, loads, io reads, call results, and parameters all
    count as varying. Pure computations over constants fold; branches
    with constant conditions become unconditional; blocks that can never
    execute are dropped. Folding goes through the interpreter's own
    operator evaluation, so anything that would trap at runtime stays in
    place instead of folding."""
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        values: dict[str, tuple] = {p.name: _BOT for p in f.params}

        def atom_value(atom):
            if isinstance(atom, Const):
                return ("const", atom.value, atom.type)
            if isinstance(atom, Var):
                return values.get(atom.name, _TOP)
            return _BOT

        def eval_define(instr: Define):
            rhs = instr.rhs
            single = len(instr.results) == 1 and isinstance(instr.results[0], str)
            if isinstance(rhs, AtomExpr) and single:
                return {instr.results[0]: atom_value(rhs.atom)}
            if isinstance(rhs, UnaryExpr) and single:
                v = atom_value(rhs.a)
                if v == _TOP:
                    return {instr.results[0]: _TOP}
                if v[0] == "const":
                    try:
                        out = eval_unary(rhs.op, v[1], v[2])
                        ty = Type.BOOL if rhs.op == "!" else v[2]
                        return {instr.results[0]: ("const", out, ty)}
                    except Exception:
                        pass
                return {instr.results[0]: _BOT}
            if isinstance(rhs, BinaryExpr) and single:
                va, vb = atom_value(rhs.a), atom_value(rhs.b)
                if va == _TOP or vb == _TOP:
                    return {instr.results[0]: _TOP}
                if va[0] == "const" and vb[0] == "const":
                    try:
                        out = eval_binary(rhs.op, va[1], vb[1], va[2])
                        ty = Type.BOOL if rhs.op in _CMP_OPS else va[2]
                        return {instr.results[0]: ("const", out, ty)}
                    except Exception:
                        pass
                return {instr.results[0]: _BOT}
            return {r: _BOT for r in instr.results if isinstance(r, str)}

        executable: set[str] = {f.region.entry.label}
        taken: dict[str, list[BlockCall]] = {}
        changed = True
        while changed:
            changed = False
            for block in f.region.blocks:
                if block.label not in executable:
                    continue
                for instr in block.instrs:
                    if isinstance(instr, Define):
                        for name, val in eval_define(instr).items():
                            new = _meet(values.get(name, _TOP), val)
                            if values.get(name, _TOP) != new:
                                values[name] = new
                                changed = True
                    elif isinstance(instr, Branch):
                        if instr.cond is None:
                            outs = [instr.then]
                        else:
                            cv = atom_value(instr.cond)
                            if cv == _TOP:
                                outs = []
                            elif cv[0] == "const":
                                outs = [instr.then if bool(cv[1]) else instr.els]
                            else:
                                outs = [instr.then, instr.els]
                        outs = [o for o in outs if o is not None]
                        old = taken.get(block.label, [])
                        if [o.label for o in outs] != [o.label for o in old]:
                            taken[block.label] = outs
                            changed = True
                        for call in outs:
                            if call.label not in executable:
                                executable.add(call.label)
                                changed = True
                            target = f.region.block(call.label)
                            for param, arg in zip(target.params, call.args):
                                new = _meet(
                                    values.get(param.name, _TOP), atom_value(arg)
                                )
                                if values.get(param.name, _TOP) != new:
                                    values[param.name] = new
                                    changed = True

        consts = {
            name: Const(v[1], v[2]) for name, v in values.items() if v[0] == "const"
        }
        rb = _FnRebuild(f.name)
        for bi, block in enumerate(f.region.blocks):
            if block.label not in executable:
                continue  # can never run: drop it and its instructions
            rb.open_block(block.label, block.params, block.implicit)
            for pos, instr in enumerate(block.instrs):
                iid = (f.name, bi, pos)
                if isinstance(instr, Branch) and instr.cond is not None:
                    outs = taken.get(block.label, [instr.then, instr.els])
                    if len(outs) == 1:
                        rb.emit(
                            rename_instr(Branch(None, outs[0], None, instr.loc), consts),
                            [(iid, "rewritten")],
                        )
                        continue
                if (
                    isinstance(instr, Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                    and isinstance(instr.rhs, (UnaryExpr, BinaryExpr))
                ):
                    folded = values.get(instr.results[0])
                    if folded is not None and folded != _TOP and folded[0] == "const":
                        new = dc_replace(
                            instr, rhs=AtomExpr(Const(folded[1], folded[2]))
                        )
                        rb.emit(new, [(iid, "rewritten")])
                        continue
                rb.emit(rename_instr(instr, consts), [(iid, "kept")])
            rb.close_block()
        functions.append(rb.finish(f, pm))
    return PassResult(Program(tuple(functions), program.macros), pm)


# --------------------------------------------------------------------------
# instcombine
# --------------------------------------------------------------------------


def _fold_same_operand(op: str, var: Var, ty: Optional[Type]):
    """x op x, for comparisons and bitwise shapes."""
    if op in ("==", "<=", ">="):
        return AtomExpr(Const(True, Type.BOOL))
    if op in ("!=", "<", ">"):
        return AtomExpr(Const(False, Type.BOOL))
    if op in ("^", "-"):
        return AtomExpr(_zero_const(ty))
    if op in ("&", "|"):
        return AtomExpr(var)
    return None


def _fold_identity(rhs: BinaryExpr, ty: Optional[Type]):
    """x op const shapes with a known algebraic result."""
    if isinstance(rhs.b, Const) and isinstance(rhs.a, Var):
        x, c, x_left = rhs.a, rhs.b, True
    elif isinstance(rhs.a, Const) and isinstance(rhs.b, Var):
        x, c, x_left = rhs.b, rhs.a, False
    else:
        return None
    v, op = c.value, rhs.op
    ones = _allones(ty)
    if op in ("^", "|", "+") and v == 0:
        return AtomExpr(x)
    if op in ("-", "<<", ">>") and v == 0 and x_left:
        return AtomExpr(x)
    if op == "*" and v == 1:
        return AtomExpr(x)
    if op in ("*", "&") and v == 0:
        return AtomExpr(_zero_const(ty))
    if op == "&" and ones is not None and v == ones:
        return AtomExpr(x)
    if op == "|" and ones is not None and v == ones:
        return AtomExpr(Const(ones, ty))
    return None


def _xor_leaves(rhs: BinaryExpr, defs: dict[str, BinaryExpr]):
    """Flatten an xor tree through earlier single-result xor defines into
    its leaf atoms, or None when the tree is unreasonably wide."""
    leaves: list = []
    work = [rhs.a, rhs.b]
    while work:
        atom = work.pop()
        if isinstance(atom, Var):
            inner = defs.get(atom.name)
            if inner is not None and inner.op == "^":
                work.append(inner.a)
                work.append(inner.b)
                continue
        leaves.append(atom)
        if len(leaves) > 16:
            return None
    return leaves


def _xor_reassociate(rhs: BinaryExpr, defs: dict[str, BinaryExpr], ty: Optional[Type]):
    """Reassociate an xor chain: duplicate operands cancel in pairs and
    constants fold together, (a ^ b) ^ b -> a and (a ^ c1) ^ c2 -> a ^ c3
    among them. Xor is associative and commutative so the value is
    unchanged; fires only when the chain shrinks enough to fit back into
    a single instruction."""
    leaves = _xor_leaves(rhs, defs)
    if leaves is None:
        return None
    counts: dict[str, int] = {}
    order: list[Var] = []
    const_val, const_ty, n_consts = 0, None, 0
    for atom in leaves:
        if isinstance(atom, Const):
            n_consts += 1
            const_ty = atom.type
            const_val = eval_binary("^", const_val, atom.value, atom.type)
        else:
            if atom.name not in counts:
                order.append(atom)
            counts[atom.name] = counts.get(atom.name, 0) + 1
    survivors: list = [v for v in order if counts[v.name] % 2]
    if n_consts and (const_val != 0 or not survivors):
        survivors.append(Const(const_val, const_ty))
    if len(survivors) >= len(leaves) or len(survivors) > 2:
        return None
    if not survivors:
        return AtomExpr(_zero_const(ty))
    if len(survivors) == 1:
        return AtomExpr(survivors[0])
    return BinaryExpr("^", survivors[0], survivors[1])


def _arms_identical(t_block: Block, e_block: Block) -> bool:
    """Whether two branch arms run the same instructions up to renaming of
    their own definitions, ending in unconditional branches to the same
    join with matching arguments."""
    if t_block.params or e_block.params:
        return False
    ti, ei = t_block.instrs, e_block.instrs
    if len(ti) != len(ei) or not ti:
        return False
    ren: dict[str, str] = {}

    def atoms_match(a, b):
        if isinstance(a, Var) and isinstance(b, Var):
            return ren.get(a.name, a.name) == b.name
        return a == b

    for it, ie in zip(ti[:-1], ei[:-1]):
        if instr_signature(it) != instr_signature(ie):
            return False
        # signatures abstract reference names; references are shared
        # storage, so require them to match concretely
        if isinstance(it, RefAssign) and it.ref != ie.ref:
            return False
        if isinstance(it, Define):
            if isinstance(it.rhs, LoadRef) and it.rhs.ref != ie.rhs.ref:
                return False
            if isinstance(it.rhs, OpaqueExpr):
                st, se = it.rhs.summary, ie.rhs.summary
                if st.identity != se.identity:
                    return False
                if st.has_read or st.has_write:
                    return False  # interior storage names are abstracted
                if tuple(ren.get(u, u) for u in st.uses) != se.uses:
                    return False
            elif not all(
                atoms_match(a, b)
                for a, b in zip(instr_operand_atoms(it), instr_operand_atoms(ie))
            ):
                return False
            for rt, re_ in zip(it.results, ie.results):
                if isinstance(rt, str) and isinstance(re_, str):
                    ren[rt] = re_
        elif not all(
            atoms_match(a, b)
            for a, b in zip(instr_operand_atoms(it), instr_operand_atoms(ie))
        ):
            return False
    lt, le = ti[-1], ei[-1]
    if not (isinstance(lt, Branch) and lt.cond is None and lt.els is None):
        return False
    if not (isinstance(le, Branch) and le.cond is None and le.els is None):
        return False
    if lt.then.label != le.then.label or len(lt.then.args) != len(le.then.args):
        return False
    return all(atoms_match(a, b) for a, b in zip(lt.then.args, le.then.args))


def instcombine(program: Program) -> PassResult:
    """Peephole combining: algebraic identities, same-operand folds, xor
    reassociation and cancellation, common subexpressions within a block,
    merging of identical pure opaque instructions (their observation
    metadata is concatenated), and hoisting of branch arms that compute
    the same thing."""
    var_types = typecheck(program).var_types
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        binop_defs: dict[str, BinaryExpr] = {}
        for block in f.region.blocks:
            for instr in block.instrs:
                if (
                    isinstance(instr, Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                    and isinstance(instr.rhs, BinaryExpr)
                ):
                    binop_defs[instr.results[0]] = instr.rhs

        pred_counts: dict[str, int] = {}
        for _, targets in block_successors(f.region).items():
            for t in targets:
                pred_counts[t] = pred_counts.get(t, 0) + 1

        # plan arm hoists first: hoisting block -> (then arm, else arm)
        hoists: dict[str, tuple[str, str]] = {}
        consumed: set[str] = set()
        for block in f.region.blocks:
            term = block.instrs[-1] if block.instrs else None
            if not (isinstance(term, Branch) and term.cond is not None):
                continue
            if term.els is None or term.then.args or term.els.args:
                continue
            t_label, e_label = term.then.label, term.els.label
            if t_label == e_label or t_label in consumed or e_label in consumed:
                continue
            if pred_counts.get(t_label) != 1 or pred_counts.get(e_label) != 1:
                continue
            if _arms_identical(f.region.block(t_label), f.region.block(e_label)):
                hoists[block.label] = (t_label, e_label)
                consumed.update((t_label, e_label))

        label_index = {b.label: i for i, b in enumerate(f.region.blocks)}
        rb = _FnRebuild(f.name)
        for bi, block in enumerate(f.region.blocks):
            if block.label in consumed:
                continue  # its instructions move into the hoisting block
            rb.open_block(block.label, block.params, block.implicit)
            seen_pure: dict[tuple, str] = {}
            opaque_groups: dict[tuple, int] = {}

            hoist = hoists.get(block.label)
            own = block.instrs[:-1] if hoist is not None else block.instrs
            for pos, instr in enumerate(own):
                iid = (f.name, bi, pos)
                if (
                    isinstance(instr, Define)
                    and len(instr.results) == 1
                    and isinstance(instr.results[0], str)
                ):
                    name = instr.results[0]
                    ty = var_types.get((f.name, name))
                    rhs = instr.rhs
                    while isinstance(rhs, BinaryExpr):
                        step = None
                        if (
                            isinstance(rhs.a, Var)
                            and isinstance(rhs.b, Var)
                            and rhs.a.name == rhs.b.name
                        ):
                            step = _fold_same_operand(
                                rhs.op, rhs.a, var_types.get((f.name, rhs.a.name))
                            )
                        if step is None:
                            step = _fold_identity(rhs, ty)
                        if step is None and rhs.op == "^":
                            step = _xor_reassociate(rhs, binop_defs, ty)
                        if step is None:
                            break
                        rhs = step
                    if isinstance(rhs, BinaryExpr):
                        key = ("bin", rhs.op, rhs.a, rhs.b)
                    elif isinstance(rhs, UnaryExpr):
                        key = ("un", rhs.op, rhs.a)
                    else:
                        key = None
                    if key is not None:
                        first = seen_pure.get(key)
                        if first is not None:
                            rhs = AtomExpr(Var(first))
                        else:
                            seen_pure[key] = name
                    if isinstance(rhs, BinaryExpr):
                        binop_defs[name] = rhs
                    elif rhs is not instr.rhs:
                        binop_defs.pop(name, None)
                    if rhs is not instr.rhs:
                        rb.emit(dc_replace(instr, rhs=rhs), [(iid, "rewritten")])
                        continue
                if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                    s = instr.rhs.summary
                    if s.is_pure:
                        key = (s.identity, s.uses)
                        survivor = opaque_groups.get(key)
                        if survivor is not None:
                            kept = rb.instr_at(survivor)
                            merged = (
                                merge_obs_metadata(kept, instr)
                                if s.snapshot_slots
                                else kept
                            )
                            rb.replace_at(survivor, merged)
                            rb.add_source(survivor, (iid, "combined"))
                            for mine, theirs in zip(instr.results, merged.results):
                                if isinstance(mine, str) and isinstance(theirs, str):
                                    copy = Define(
                                        (mine,), AtomExpr(Var(theirs)), (), instr.loc
                                    )
                                    rb.emit(copy, [])
                            continue
                        opaque_groups[key] = rb.next_index()
                rb.emit(instr, [(iid, "kept")])
            if hoist is not None:
                # the hoisted arm: each instruction combines both arms' copies,
                # and its terminator also rewrites the branch
                t_index, e_index = label_index[hoist[0]], label_index[hoist[1]]
                t_instrs = f.region.blocks[t_index].instrs
                e_instrs = f.region.blocks[e_index].instrs
                for p, instr in enumerate(t_instrs):
                    if (
                        isinstance(instr, Define)
                        and isinstance(instr.rhs, OpaqueExpr)
                        and instr.rhs.summary.snapshot_slots
                    ):
                        instr = merge_obs_metadata(instr, e_instrs[p])
                    srcs = [((f.name, t_index, p), "combined"), ((f.name, e_index, p), "combined")]
                    if p == len(t_instrs) - 1:
                        srcs.insert(0, ((f.name, bi, len(block.instrs) - 1), "rewritten"))
                    rb.emit(instr, srcs)
            rb.close_block()
        functions.append(rb.finish(f, pm))

    _upgrade_merge_survivors(pm)
    return PassResult(Program(tuple(functions), program.macros), pm)


def _upgrade_merge_survivors(pm: ProvenanceMap) -> None:
    """A destination that combined several sources is a combination for
    all of them, the surviving one included."""
    combined_dsts = {d for (_, d), k in pm.edges.items() if k == "combined"}
    for (s, d), k in list(pm.edges.items()):
        if k == "kept" and d in combined_dsts:
            pm.edges[(s, d)] = "combined"


# --------------------------------------------------------------------------
# dse
# --------------------------------------------------------------------------


def _fn_reads_memory(program: Program) -> dict[str, bool]:
    reads = {f.name: False for f in program.functions}
    calls: dict[str, set[str]] = {f.name: set() for f in program.functions}
    for f in program.functions:
        for block in f.region.blocks:
            for instr in block.instrs:
                if not isinstance(instr, Define):
                    continue
                if isinstance(instr.rhs, LoadMem):
                    reads[f.name] = True
                elif isinstance(instr.rhs, OpaqueExpr) and instr.rhs.summary.has_read:
                    reads[f.name] = True
                elif isinstance(instr.rhs, CallExpr):
                    calls[f.name].add(instr.rhs.callee)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if not reads[name] and any(reads.get(c, True) for c in callees):
                reads[name] = True
                changed = True
    return reads


def _may_read(instr, fn_reads: dict[str, bool]) -> bool:
    if isinstance(instr, Define):
        if isinstance(instr.rhs, LoadMem):
            return True
        if isinstance(instr.rhs, OpaqueExpr):
            return instr.rhs.summary.has_read
        if isinstance(instr.rhs, CallExpr):
            return fn_reads.get(instr.rhs.callee, True)
    return False


def dse(program: Program) -> PassResult:
    """Delete stores that nothing can observe: no load, memory-reading
    opaque region, or memory-reading call is reachable after them. In
    `main`, reaching the end of the program discharges a store; in any
    other function a reachable return keeps it alive, because the
    caller's memory lives on."""
    fn_reads = _fn_reads_memory(program)
    fn_by_name = {f.name: f for f in program.functions}
    successors = {f.name: block_successors(f.region) for f in program.functions}

    def store_is_live(f: Function, bi: int, pos: int) -> bool:
        region, succ = f.region, successors[f.name]
        worklist = [(region.blocks[bi].label, pos + 1)]
        seen: set[str] = set()
        while worklist:
            label, from_pos = worklist.pop()
            block = region.block(label)
            for instr in block.instrs[from_pos:]:
                if _may_read(instr, fn_reads):
                    return True
                if isinstance(instr, Return) and f.name != "main":
                    return True
            for nxt in succ.get(label, []):
                if nxt not in seen:
                    seen.add(nxt)
                    worklist.append((nxt, 0))
        return False

    def rewrite(fname, iid, instr):
        if not isinstance(instr, MemStore):
            return None
        if store_is_live(fn_by_name[fname], iid[1], iid[2]):
            return None
        return []

    return _per_instr_pass(program, rewrite)


# --------------------------------------------------------------------------
# dce
# --------------------------------------------------------------------------


def _removable(instr) -> bool:
    if not isinstance(instr, Define):
        return False
    rhs = instr.rhs
    if isinstance(rhs, (AtomExpr, UnaryExpr, BinaryExpr, LoadMem, LoadRef)):
        return True
    if isinstance(rhs, OpaqueExpr):
        # Effect-free opaque regions go too, snapshots and all. A
        # measurement survives optimization only when something keeps its
        # results or effects alive; that asymmetry is what the validator
        # makes visible.
        return rhs.summary.is_pure
    return False


def dce(program: Program) -> PassResult:
    """Drop unreachable blocks, then pure definitions whose results
    nothing uses, iterating to a fixpoint. `use(...)` instructions and
    io, call, and snapshot defines always stay."""
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        succ = block_successors(f.region)
        reach = {f.region.entry.label}
        frontier = [f.region.entry.label]
        while frontier:
            for t in succ.get(frontier.pop(), []):
                if t not in reach:
                    reach.add(t)
                    frontier.append(t)

        live_blocks = [
            (bi, b) for bi, b in enumerate(f.region.blocks) if b.label in reach
        ]
        dead: set[tuple[int, int]] = set()
        while True:
            used: set[str] = set()
            for bi, block in live_blocks:
                for pos, instr in enumerate(block.instrs):
                    if (bi, pos) not in dead:
                        used |= _instr_uses(instr)
            grew = False
            for bi, block in live_blocks:
                for pos, instr in enumerate(block.instrs):
                    if (bi, pos) in dead or not _removable(instr):
                        continue
                    names = [r for r in instr.results if isinstance(r, str)]
                    if all(n not in used for n in names):
                        dead.add((bi, pos))
                        grew = True
            if not grew:
                break

        rb = _FnRebuild(f.name)
        for bi, block in live_blocks:
            rb.open_block(block.label, block.params, block.implicit)
            for pos, instr in enumerate(block.instrs):
                if (bi, pos) not in dead:
                    rb.emit(instr, [((f.name, bi, pos), "kept")])
            rb.close_block()
        functions.append(rb.finish(f, pm))
    return PassResult(Program(tuple(functions), program.macros), pm)


# --------------------------------------------------------------------------
# loop_unroll
# --------------------------------------------------------------------------

DEFAULT_UNROLL_FACTOR = 16


@dataclass(frozen=True)
class _CountedLoop:
    header_index: int
    body_index: int
    init_index: int
    param_pos: int  # counter slot in the header's params
    trips: int


def _match_counted_loop(
    f: Function, factor: int, var_types: dict
) -> Optional[_CountedLoop]:
    """Find a loop of the shape

        init:           br header(start, ...)
        header(i, ...): cond = i < limit
                        br cond, body, exit
        body:           ...
                        i2 = i + step
                        br header(i2, ...)

    whose trip count is statically known and at most `factor`. The trip
    simulation runs on the interpreter's arithmetic, so a wrapping
    counter counts exactly as it would execute."""
    region = f.region
    succ = block_successors(region)
    preds: dict[str, list[str]] = {b.label: [] for b in region.blocks}
    for label, targets in succ.items():
        for t in targets:
            preds[t].append(label)
    index = {b.label: i for i, b in enumerate(region.blocks)}

    for hi, header in enumerate(region.blocks):
        term = header.instrs[-1] if header.instrs else None
        if not (
            isinstance(term, Branch)
            and term.cond is not None
            and term.els is not None
            and isinstance(term.cond, Var)
        ):
            continue
        cond_def = None
        for instr in header.instrs[:-1]:
            if (
                isinstance(instr, Define)
                and len(instr.results) == 1
                and instr.results[0] == term.cond.name
            ):
                cond_def = instr.rhs
        if not (
            isinstance(cond_def, BinaryExpr)
            and cond_def.op == "<"
            and isinstance(cond_def.a, Var)
            and isinstance(cond_def.b, Const)
        ):
            continue
        counter = cond_def.a.name
        param_pos = next(
            (i for i, p in enumerate(header.params) if p.name == counter), None
        )
        if param_pos is None:
            continue
        body_label, exit_label = term.then.label, term.els.label
        if term.then.args or body_label == header.label:
            continue
        if exit_label in (header.label, body_label):
            continue
        body = region.block(body_label)
        if body.params or preds.get(body_label) != [header.label]:
            continue
        back = body.instrs[-1] if body.instrs else None
        if not (
            isinstance(back, Branch)
            and back.cond is None
            and back.then.label == header.label
            and len(back.then.args) == len(header.params)
        ):
            continue
        inc_atom = back.then.args[param_pos]
        if not isinstance(inc_atom, Var):
            continue
        inc_def = None
        for instr in body.instrs[:-1]:
            if (
                isinstance(instr, Define)
                and len(instr.results) == 1
                and instr.results[0] == inc_atom.name
            ):
                inc_def = instr.rhs
        step = None
        if isinstance(inc_def, BinaryExpr) and inc_def.op == "+":
            if (
                isinstance(inc_def.a, Var)
                and inc_def.a.name == counter
                and isinstance(inc_def.b, Const)
            ):
                step = inc_def.b.value
            elif (
                isinstance(inc_def.b, Var)
                and inc_def.b.name == counter
                and isinstance(inc_def.a, Const)
            ):
                step = inc_def.a.value
        if not isinstance(step, int) or step <= 0:
            continue
        outside = [p for p in preds.get(header.label, []) if p != body_label]
        if len(outside) != 1:
            continue
        init_block = region.block(outside[0])
        init_term = init_block.instrs[-1]
        if not isinstance(init_term, Branch):
            continue
        init_calls = [
            c
            for c in (init_term.then, init_term.els)
            if c is not None and c.label == header.label
        ]
        if len(init_calls) != 1 or len(init_calls[0].args) != len(header.params):
            continue
        start_atom = init_calls[0].args[param_pos]
        if not isinstance(start_atom, Const) or not isinstance(start_atom.value, int):
            continue
        limit = cond_def.b.value
        cty = var_types.get((f.name, counter), Type.U32)
        trips, t = 0, start_atom.value
        try:
            while trips <= factor and eval_binary("<", t, limit, cty):
                trips += 1
                t = eval_binary("+", t, step, cty)
        except Exception:
            continue
        if trips == 0 or trips > factor:
            continue
        return _CountedLoop(
            header_index=hi,
            body_index=index[body_label],
            init_index=index[init_block.label],
            param_pos=param_pos,
            trips=trips,
        )
    return None


def loop_unroll(program: Program, factor: int = DEFAULT_UNROLL_FACTOR) -> PassResult:
    """Fully unroll counted loops with a known trip count of at most
    `factor`. Each iteration becomes a straight-line clone with fresh
    names; opaque interiors are freshened through `freshen`, so their
    identities and observation metadata survive. The original header
    and body blocks die with the loop."""
    var_types = typecheck(program).var_types
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        loop = _match_counted_loop(f, factor, var_types)
        if loop is None:
            functions.append(f)
            for bi, block in enumerate(f.region.blocks):
                for pos in range(len(block.instrs)):
                    pm.add((f.name, bi, pos), (f.name, bi, pos), "kept")
            continue

        fresh = _fresh_namer(f)
        region = f.region
        header = region.blocks[loop.header_index]
        body = region.blocks[loop.body_index]
        exit_term: Branch = header.instrs[-1]
        exit_call = exit_term.els
        header_term_src = (f.name, loop.header_index, len(header.instrs) - 1)
        body_term_src = (f.name, loop.body_index, len(body.instrs) - 1)

        hdr_labels = [fresh(header.label) for _ in range(loop.trips + 1)]
        body_labels = [fresh(body.label) for _ in range(loop.trips)]

        cloned: list[Block] = []
        cloned_srcs: list[list[InstrId]] = []
        for t in range(loop.trips + 1):
            renames = {p.name: fresh(p.name) for p in header.params}
            cloning = (header, body) if t < loop.trips else (header,)
            for block in cloning:
                for instr in block.instrs:
                    if isinstance(instr, Define):
                        for r in instr.results:
                            if isinstance(r, str):
                                renames.setdefault(r, fresh(r))

            params = tuple(dc_replace(p, name=renames[p.name]) for p in header.params)
            instrs: list = []
            srcs: list[InstrId] = []
            for pos, instr in enumerate(header.instrs[:-1]):
                instrs.append(freshen(instr, renames, fresh))
                srcs.append((f.name, loop.header_index, pos))
            if t < loop.trips:
                instrs.append(
                    Branch(None, BlockCall(body_labels[t]), None, exit_term.loc)
                )
            else:
                taken = Branch(None, exit_call, None, exit_term.loc)
                instrs.append(freshen(taken, renames, fresh))
            srcs.append(header_term_src)
            cloned.append(Block(hdr_labels[t], params, tuple(instrs)))
            cloned_srcs.append(srcs)

            if t == loop.trips:
                break
            instrs, srcs = [], []
            for pos, instr in enumerate(body.instrs[:-1]):
                instrs.append(freshen(instr, renames, fresh))
                srcs.append((f.name, loop.body_index, pos))
            back: Branch = body.instrs[-1]
            next_call = BlockCall(hdr_labels[t + 1], back.then.args)
            instrs.append(freshen(Branch(None, next_call, None, back.loc), renames, fresh))
            srcs.append(body_term_src)
            cloned.append(Block(body_labels[t], (), tuple(instrs)))
            cloned_srcs.append(srcs)

        rb = _FnRebuild(f.name)
        for bi, block in enumerate(region.blocks):
            if bi == loop.header_index:
                for cb, srcs in zip(cloned, cloned_srcs):
                    rb.open_block(cb.label, cb.params)
                    for instr, src in zip(cb.instrs, srcs):
                        rb.emit(instr, [(src, "duplicated")])
                    rb.close_block()
                continue
            if bi == loop.body_index:
                continue
            rb.open_block(block.label, block.params, block.implicit)
            for pos, instr in enumerate(block.instrs):
                iid = (f.name, bi, pos)
                if bi == loop.init_index and pos == len(block.instrs) - 1:

                    def retarget(call):
                        if call is not None and call.label == header.label:
                            return dc_replace(call, label=hdr_labels[0])
                        return call

                    instr = dc_replace(
                        instr, then=retarget(instr.then), els=retarget(instr.els)
                    )
                rb.emit(instr, [(iid, "kept")])
            rb.close_block()
        functions.append(rb.finish(f, pm))
    return PassResult(Program(tuple(functions), program.macros), pm)


# --------------------------------------------------------------------------
# The deliberately unsound pass
# --------------------------------------------------------------------------


def unsafe_const_fold_opaque(program: Program) -> PassResult:
    """Fold an opaque region that yields constants down to those
    constants, discarding everything else inside on the theory that a
    computation without effects is unobservable. The values are right;
    the snapshots thrown away with the region body are not. Getting at
    the body requires peeking past the barrier, so under `run_pipeline`
    this raises OpacityBreach; applied without the seal it visibly
    destroys observations. A negative control; it is in no preset."""

    def foldable_body(instrs) -> bool:
        for instr in instrs[:-1]:
            if not isinstance(instr, Define):
                return False
            if not isinstance(
                instr.rhs, (AtomExpr, UnaryExpr, BinaryExpr, SnapshotExpr)
            ):
                return False
        return isinstance(instrs[-1], Yield)

    def rewrite(fname, iid, instr):
        if not (isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr)):
            return None
        region = instr.rhs.region  # the forbidden peek
        if len(region.blocks) != 1:
            return None
        instrs = region.blocks[0].instrs
        if not instrs or not foldable_body(instrs):
            return None
        values = instrs[-1].values
        if len(values) != len(instr.results):
            return None
        if not all(isinstance(v, Const) for v in values):
            return None
        if not all(isinstance(r, str) for r in instr.results):
            return None
        return [
            (Define((r,), AtomExpr(v), (), instr.loc), "rewritten")
            for r, v in zip(instr.results, values)
        ]

    return _per_instr_pass(program, rewrite)


# --------------------------------------------------------------------------
# Registry, presets, pipeline
# --------------------------------------------------------------------------

PASSES: dict[str, Callable[[Program], PassResult]] = {
    "copyprop": copyprop,
    "constprop": constprop,
    "instcombine": instcombine,
    "dse": dse,
    "dce": dce,
    "loop_unroll": loop_unroll,
    "unsafe_const_fold_opaque": unsafe_const_fold_opaque,
}

PRESETS: dict[str, tuple[str, ...]] = {
    "P0": (),
    "P1": ("constprop", "dce"),
    "P2": ("copyprop", "constprop", "instcombine", "dce"),
    "P3": (
        "copyprop",
        "constprop",
        "instcombine",
        "dse",
        "dce",
        "copyprop",
        "constprop",
        "instcombine",
        "dce",
    ),
    "Ps": ("dse", "dce"),
    "Pz": ("loop_unroll", "copyprop", "constprop", "instcombine", "dse", "dce"),
}


@dataclass
class PipelineResult:
    program: Program
    provenance: ProvenanceMap
    log: tuple[tuple[str, int], ...]  # (pass name, instructions affected)


def resolve_passes(
    preset: Optional[str] = None, passes: Optional[list[str]] = None
) -> list[str]:
    if passes:
        names = list(passes)
    elif preset is not None:
        if preset not in PRESETS:
            raise KeyError(f"unknown preset {preset!r}")
        names = list(PRESETS[preset])
    else:
        names = []
    for n in names:
        if n not in PASSES:
            raise KeyError(f"unknown pass {n!r}")
    return names


def _layout(program: Program) -> list[tuple]:
    """Each block's label, parameters and instruction objects (by `id`:
    `==` ignores `loc`)."""
    return [
        (b.label, b.params, *map(id, b.instrs))
        for f in program.functions
        for b in f.region.blocks
    ]


def run_pipeline(program: Program, pass_names: list[str]) -> PipelineResult:
    """Apply passes in order with the opacity seal engaged, composing
    provenance across the whole pipeline. Each (changed-pass prefix,
    pass) runs once per `program`; see the module docstring."""
    if (memo := getattr(program, "_pass_results", None)) is None:
        object.__setattr__(program, "_pass_results", memo := {})
    prov = ProvenanceMap.identity(program)
    log = []
    current, changed = program, ()
    with sealed_opaque_regions():
        for name in pass_names:
            key = (changed, PASSES[name])
            if (step := memo.get(key)) is None:
                result, iids = key[1](current), program_iids(current)
                kinds: dict[InstrId, set[str]] = {}
                for (s, _), k in result.provenance.edges.items():
                    kinds.setdefault(s, set()).add(k)
                affected = sum(kinds.get(iid) != {"kept"} for iid in iids)
                noop = result.provenance.edges == {(i, i): "kept" for i in iids}
                noop = noop and _layout(current) == _layout(result.program)
                step = memo[key] = (result, affected, noop)
            result, affected, noop = step
            log.append((name, affected))
            if not noop:
                prov = prov.compose(result.provenance)
                changed += (key[1],)
            current = result.program
    return PipelineResult(current, prov, tuple(log))


def optimize(
    program: Program,
    preset: Optional[str] = None,
    passes: Optional[list[str]] = None,
) -> PipelineResult:
    """Run a preset, or an explicit pass list, through `run_pipeline`;
    calls on one program share the pass results memoized on it."""
    return run_pipeline(program, resolve_passes(preset, passes))
