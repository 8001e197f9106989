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
renaming-invariant identity) and `block_signature`, which prints a
region as its identity does, and rewrites go through the three that
`ir` sanctions: `rename_instr` (free-use substitution), `freshen`
(renaming a copy, bound names inside regions made fresh) and
`merge_obs_metadata`; nothing else.
`run_pipeline` executes with the opacity seal engaged, so a pass that
tries to peek raises instead of miscompiling. The deliberately unsound
`unsafe_const_fold_opaque` exists to prove the point and belongs to no
preset.

Every pass builds its output through `_rewrite_functions`, which makes
the program and the provenance from the blocks the pass emits for each
function it changes. Most passes only state their edits, instruction id
to replacements (none deletes), and `_per_instr_pass` rebuilds just the
functions with an edit or a dropped block. Edits are found through each
function's use table, built once per `Function` object: copyprop and
constprop edit only the readers of the names they resolve. A function a
pass leaves alone is carried over as the same object, table included,
with identity edges, and a pass that changes nothing returns its input:
the `Program` object it was given, with identity provenance. That is the
one no-op signal.

`run_pipeline` memoizes pass results on the program it is given, for
that program's lifetime, keyed by the pass functions that changed
something so far plus the next one: presets that share a prefix run it
once, and a patched `PASSES` entry is never served a stale result. An
entry holds the output, the provenance composed from the memo's program
to that output (so each changed-pass prefix is composed once, and a hit
composes nothing) and the affected count, or only `None` when the pass
returned its input: a no-op logs 0, stays out of the key and the
provenance, and the pipeline goes on with its input. So presets that
reach the same changed passes return one program and one provenance
map, and one that changes nothing returns its input, sharing the
typecheck, decoded code, runs and analyses memoized on it. Raising
passes are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterable, Optional

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
    Region,
    Return,
    SnapshotExpr,
    Type,
    UnaryExpr,
    Var,
    Yield,
    block_signature,
    block_successors,
    fresh_namer,
    freshen,
    instr_operand_atoms,
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
        return cls({(iid, iid): "kept" for iid in program_iids(program)})


def _function_iids(f: Function) -> list[InstrId]:
    blocks = f.region.blocks
    return [(f.name, bi, pos) for bi, b in enumerate(blocks) for pos in range(len(b.instrs))]


def _each_instr(program: Program):
    """Each instruction of `program`, with its function and its id."""
    for f in program.functions:
        for bi, block in enumerate(f.region.blocks):
            for pos, instr in enumerate(block.instrs):
                yield f, (f.name, bi, pos), instr


def program_iids(program: Program) -> list[InstrId]:
    return [iid for f in program.functions for iid in _function_iids(f)]


@dataclass
class PassResult:
    program: Program
    provenance: ProvenanceMap


# --------------------------------------------------------------------------
# Shared rebuilding machinery
# --------------------------------------------------------------------------


# A rewritten block: (label, params, [(instruction, [(source iid, kind), ...])]).
_NewBlock = tuple[str, tuple[Param, ...], list[tuple[object, list[tuple[InstrId, str]]]]]


def _rewrite_functions(
    program: Program, rewrite: Callable[[Function], Optional[list[_NewBlock]]]
) -> PassResult:
    """Build a pass's output program and provenance, one function at a
    time. `rewrite(f)` returns None to carry `f` over as the same object
    with identity edges, or `f`'s new blocks, each instruction with the
    source instructions it came from. When every function is carried
    over, the pass changed nothing and its input comes back."""
    pm = ProvenanceMap()
    functions = []
    for f in program.functions:
        blocks = rewrite(f)
        if blocks is None:
            functions.append(f)
            pm.edges.update({(iid, iid): "kept" for iid in _function_iids(f)})
            continue
        new_blocks = []
        for bi, (label, params, instrs) in enumerate(blocks):
            new_blocks.append(Block(label, params, tuple(i for i, _ in instrs)))
            for pos, (_, srcs) in enumerate(instrs):
                for src, kind in srcs:
                    pm.add(src, (f.name, bi, pos), kind)
        functions.append(dc_replace(f, region=Region(tuple(new_blocks))))
    if all(new is old for new, old in zip(functions, program.functions)):
        return PassResult(program, pm)
    return PassResult(Program(tuple(functions), program.macros), pm)


# An edit map: instruction id -> its replacements, each with its provenance
# kind; an empty list deletes the instruction.
_Edits = dict[InstrId, list[tuple[object, str]]]


def _per_instr_pass(
    program: Program, edits: _Edits, keep: Optional[dict[str, set[str]]] = None
) -> PassResult:
    """Apply an edit map through `_rewrite_functions`: every instruction
    without an edit is kept. Blocks keep their order; `keep`, when given,
    names each function's blocks to keep, and the others are dropped with
    their instructions. A function with no edit and no dropped block is
    carried over without reading its instructions."""
    edited = {iid[0] for iid in edits}

    def rebuild(f: Function) -> Optional[list[_NewBlock]]:
        kept = None if keep is None else keep[f.name]
        if f.name not in edited and (kept is None or len(kept) == len(f.region.blocks)):
            return None
        blocks = []
        for bi, block in enumerate(f.region.blocks):
            if kept is None or block.label in kept:
                instrs = []
                for pos, instr in enumerate(block.instrs):
                    out = edits.get(iid := (f.name, bi, pos), [(instr, "kept")])
                    instrs += [(new, [(iid, kind)]) for new, kind in out]
                blocks.append((block.label, block.params, instrs))
        return blocks

    return _rewrite_functions(program, rebuild)


def _result(instr) -> Optional[str]:
    """The name a single-result define binds, or None."""
    if isinstance(instr, Define) and len(instr.results) == 1 and isinstance(instr.results[0], str):
        return instr.results[0]
    return None


def _defines(instrs) -> dict[str, object]:
    """Each name a single-result define of `instrs` binds, with its rhs."""
    return {n: i.rhs for i in instrs if (n := _result(i)) is not None}


def _instr_uses(instr) -> set[str]:
    """Variable names an instruction reads, opaque free uses included."""
    names = {a.name for a in instr_operand_atoms(instr) if isinstance(a, Var)}
    if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
        names.update(instr.rhs.summary.uses)
    return names


# An instruction's slot in its function's use table: block index * _BLOCK +
# position. Ints, unlike id tuples, are no work for the cyclic collector.
_BLOCK = 1 << 32


def _use_table(f: Function) -> dict[str, tuple[int, ...]]:
    """Each name `f` reads, with the slots of the instructions that read
    it. Built once per function object and stored on it, like a program's
    `typecheck`: a function a pass carries over keeps its table for the
    passes and presets after it."""
    if (readers := getattr(f, "_readers", None)) is None:
        slots: dict[str, list[int]] = {}
        for bi, block in enumerate(f.region.blocks):
            for pos, instr in enumerate(block.instrs):
                for n in _instr_uses(instr):
                    slots.setdefault(n, []).append(bi * _BLOCK + pos)
        readers = {n: tuple(ss) for n, ss in slots.items()}
        object.__setattr__(f, "_readers", readers)  # the function is frozen
    return readers


def _edit_readers(f: Function, uses: dict[str, object], edits: _Edits) -> None:
    """Give each reader in `f` of a name in `uses` that has no edit yet an
    edit reading the replacement atoms instead."""
    if not uses:
        return
    readers = _use_table(f)
    blocks = f.region.blocks
    for slot in {slot for n in uses for slot in readers.get(n, ())}:
        bi, pos = divmod(slot, _BLOCK)
        instr = blocks[bi].instrs[pos]
        if (f.name, bi, pos) not in edits and (new := rename_instr(instr, uses)) != instr:
            edits[(f.name, bi, pos)] = [(new, "kept")]


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
    return fresh_namer(taken)


# --------------------------------------------------------------------------
# copyprop
# --------------------------------------------------------------------------


def copyprop(program: Program) -> PassResult:
    """Forward variable-to-variable copies into their uses. The copy
    definitions stay behind for dce to sweep."""
    edits: _Edits = {}
    for f in program.functions:
        defines = _defines(i for b in f.region.blocks for i in b.instrs)
        copies = {
            n: rhs.atom.name
            for n, rhs in defines.items()
            if isinstance(rhs, AtomExpr) and isinstance(rhs.atom, Var)
        }
        resolved: dict[str, Var] = {}
        for name, target in copies.items():
            while target in copies:
                target = copies[target]
            resolved[name] = Var(target)
        _edit_readers(f, resolved, edits)
    return _per_instr_pass(program, edits)


# --------------------------------------------------------------------------
# constprop
# --------------------------------------------------------------------------

_TOP = ("top",)
_BOT = ("bot",)
_TRUE = ("const", True, Type.BOOL)

_BOOL_OPS = ("==", "!=", "<", "<=", ">", ">=", "!")  # operators with bool results


def _meet(a, b):
    if a == _TOP:
        return b
    if b == _TOP:
        return a
    if a == b:
        return a
    return _BOT


def _atom_value(atom, values: dict[str, tuple]) -> tuple:
    if isinstance(atom, Const):
        return ("const", atom.value, atom.type)
    if isinstance(atom, Var):
        return values.get(atom.name, _TOP)
    return _BOT


def _eval_define(instr: Define, values: dict[str, tuple]) -> tuple[tuple[str, tuple], ...]:
    """Each name a define binds, with its value given `values`."""
    rhs, name = instr.rhs, _result(instr)
    if name is None or not isinstance(rhs, (AtomExpr, UnaryExpr, BinaryExpr)):
        return tuple((r, _BOT) for r in instr.results if isinstance(r, str))
    if isinstance(rhs, AtomExpr):
        return ((name, _atom_value(rhs.atom, values)),)
    binary = isinstance(rhs, BinaryExpr)
    vals = [_atom_value(a, values) for a in ((rhs.a, rhs.b) if binary else (rhs.a,))]
    if _TOP in vals:
        return ((name, _TOP),)
    if all(v[0] == "const" for v in vals):
        try:
            evaluate = eval_binary if binary else eval_unary
            out = evaluate(rhs.op, *(v[1] for v in vals), vals[0][2])
            return ((name, ("const", out, Type.BOOL if rhs.op in _BOOL_OPS else vals[0][2])),)
        except Exception:
            pass
    return ((name, _BOT),)


def _sccp(f: Function):
    """Worklist SCCP over the CFG and `f`'s use table (Wegman & Zadeck,
    TOPLAS 1991): a block is read whole when it first becomes executable,
    and an instruction again only when a value it has read drops. Gives
    each name's value and the slot that last lowered it, the executable
    block indices, and each branch's targets by slot."""
    readers = _use_table(f)
    blocks = f.region.blocks
    index = {b.label: bi for bi, b in enumerate(blocks)}
    values: dict[str, tuple] = {p.name: _BOT for p in f.params}
    lowered_at: dict[str, int] = {}
    executable = {0}
    taken: dict[int, list[BlockCall]] = {}
    flow, ssa = [0], []  # blocks to read, then instruction slots to read again
    read: set[int] = set()

    def lower(name: str, val: tuple, at: int) -> None:
        old = values.get(name, _TOP)
        if (new := _meet(old, val)) != old:
            values[name], lowered_at[name] = new, at
            ssa.extend(slot for slot in readers.get(name, ()) if slot in read)

    while flow or ssa:
        if flow:
            bi = flow.pop()
            visits = [(bi * _BLOCK + pos, i) for pos, i in enumerate(blocks[bi].instrs)]
        else:
            bi, pos = divmod(slot := ssa.pop(), _BLOCK)
            visits = [(slot, blocks[bi].instrs[pos])]
        for slot, instr in visits:
            read.add(slot)
            if isinstance(instr, Define):
                for name, val in _eval_define(instr, values):
                    lower(name, val, slot)
            elif isinstance(instr, Branch):  # an unconditional one branches on true
                cv = _TRUE if instr.cond is None else _atom_value(instr.cond, values)
                if cv[0] == "const":
                    outs = [instr.then if cv[1] else instr.els]
                else:
                    outs = [] if cv == _TOP else [instr.then, instr.els]
                outs = taken[slot] = [o for o in outs if o is not None]
                for call in outs:
                    ti = index[call.label]
                    if ti not in executable:
                        executable.add(ti)
                        flow.append(ti)
                    for param, arg in zip(blocks[ti].params, call.args):
                        lower(param.name, _atom_value(arg, values), slot)
    return values, lowered_at, executable, taken


def constprop(program: Program) -> PassResult:
    """Sparse conditional constant propagation, one function at a time.

    Opaque results, loads, io reads, call results, and parameters all
    count as varying. Pure computations over constants fold; branches
    with constant conditions become unconditional; blocks that can never
    execute are dropped. Folding goes through the interpreter's own
    operator evaluation, so anything that would trap at runtime stays in
    place instead of folding. The edits are the folded defines, the
    decided branches and the readers of constants."""
    edits: _Edits = {}
    executable_blocks: dict[str, set[str]] = {}
    for f in program.functions:
        values, lowered_at, executable, taken = _sccp(f)
        blocks = f.region.blocks
        executable_blocks[f.name] = {blocks[bi].label for bi in executable}
        consts = {name: Const(v[1], v[2]) for name, v in values.items() if v[0] == "const"}
        for name, const in consts.items():
            bi, pos = divmod(lowered_at[name], _BLOCK)
            instr = blocks[bi].instrs[pos]
            if _result(instr) == name and isinstance(instr.rhs, (UnaryExpr, BinaryExpr)):
                edits[(f.name, bi, pos)] = [(dc_replace(instr, rhs=AtomExpr(const)), "rewritten")]
        for slot, outs in taken.items():
            bi, pos = divmod(slot, _BLOCK)
            instr = blocks[bi].instrs[pos]
            if instr.cond is not None and len(outs) == 1:
                new = rename_instr(Branch(None, outs[0], None, instr.loc), consts)
                edits[(f.name, bi, pos)] = [(new, "rewritten")]
        _edit_readers(f, consts, edits)

    # blocks that can never run are dropped with their instructions, edits and all
    return _per_instr_pass(program, edits, executable_blocks)


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
    what they bind (`block_signature`), ending in the same unconditional
    branch."""
    last = t_block.instrs[-1]
    if len(t_block.instrs) != len(e_block.instrs) or t_block.params:
        return False
    if not (isinstance(last, Branch) and last.cond is None):
        return False
    return block_signature(t_block) == block_signature(e_block)


def instcombine(program: Program) -> PassResult:
    """Peephole combining: algebraic identities, same-operand folds, xor
    reassociation and cancellation, common subexpressions within a block,
    merging of identical pure opaque instructions (their observation
    metadata is concatenated), and hoisting of branch arms that compute
    the same thing."""
    var_types = typecheck(program).var_types

    def combine(f: Function) -> Optional[list[_NewBlock]]:
        defines = _defines(i for b in f.region.blocks for i in b.instrs)
        binop_defs = {n: rhs for n, rhs in defines.items() if isinstance(rhs, BinaryExpr)}

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
        blocks = []
        changed = bool(hoists)
        for bi, block in enumerate(f.region.blocks):
            if block.label in consumed:
                continue  # its instructions move into the hoisting block
            instrs = []
            seen_pure: dict[tuple, str] = {}
            hoist = hoists.get(block.label)
            own = block.instrs[:-1] if hoist is not None else block.instrs

            # plan merges of identical pure opaque instructions: each group's
            # first member survives and the others become copies of it
            groups: dict[tuple, list[int]] = {}
            for pos, instr in enumerate(own):
                if isinstance(instr, Define) and isinstance(instr.rhs, OpaqueExpr):
                    s = instr.rhs.summary
                    if s.is_pure:
                        groups.setdefault((s.identity, s.uses), []).append(pos)
            merges = {pos: g for g in groups.values() if len(g) > 1 for pos in g}
            changed = changed or bool(merges)

            for pos, instr in enumerate(own):
                iid = (f.name, bi, pos)
                if (name := _result(instr)) is not None:
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
                        changed = True
                        instrs.append((dc_replace(instr, rhs=rhs), [(iid, "rewritten")]))
                        continue
                group = merges.get(pos)
                if group is None:
                    instrs.append((instr, [(iid, "kept")]))
                elif pos == group[0]:
                    if instr.rhs.summary.snapshot_slots:
                        for p in group[1:]:
                            instr = merge_obs_metadata(instr, own[p])
                    instrs.append((instr, [((f.name, bi, p), "combined") for p in group]))
                else:
                    for mine, theirs in zip(instr.results, own[group[0]].results):
                        if isinstance(mine, str) and isinstance(theirs, str):
                            copy = Define((mine,), AtomExpr(Var(theirs)), (), instr.loc)
                            instrs.append((copy, []))
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
                    instrs.append((instr, srcs))
            blocks.append((block.label, block.params, instrs))
        return blocks if changed else None

    return _rewrite_functions(program, combine)


# --------------------------------------------------------------------------
# dse
# --------------------------------------------------------------------------


def _fn_reads_memory(program: Program) -> dict[str, bool]:
    """Which functions may read memory: themselves, or through a call to
    one that may (a callee outside the program may)."""
    reads = {f.name: False for f in program.functions}
    changed = True
    while changed:
        changed = False
        for f, _, instr in _each_instr(program):
            if not reads[f.name] and _may_read(instr, reads):
                reads[f.name] = changed = True
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

    return _per_instr_pass(program, {
        iid: []
        for f, iid, instr in _each_instr(program)
        if isinstance(instr, MemStore) and not store_is_live(f, iid[1], iid[2])
    })


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
    nothing uses. Each name's uses are counted from the use table, and
    every removable definition goes on a worklist; a definition dies when
    none of its results has a use left, and its death takes one use off
    each name it reads, queueing the definer of each name that reaches
    zero. `use(...)` instructions and io, call, and snapshot defines
    always stay."""
    reach: dict[str, set[str]] = {}
    dead: _Edits = {}
    for f in program.functions:
        succ = block_successors(f.region)
        live = reach[f.name] = {f.region.entry.label}
        frontier = [f.region.entry.label]
        while frontier:
            for t in succ.get(frontier.pop(), []):
                if t not in live:
                    live.add(t)
                    frontier.append(t)

        readers = _use_table(f)
        blocks = f.region.blocks
        live_bis = {bi for bi, b in enumerate(blocks) if b.label in live}
        if len(live_bis) == len(blocks):
            count = {n: len(slots) for n, slots in readers.items()}
        else:
            count = {n: sum(s // _BLOCK in live_bis for s in slots) for n, slots in readers.items()}
        results: dict[InstrId, list[str]] = {}  # of removable instructions
        definer: dict[str, InstrId] = {}  # SSA: one per name
        for bi in live_bis:
            for pos, instr in enumerate(blocks[bi].instrs):
                if _removable(instr):
                    iid = (f.name, bi, pos)
                    results[iid] = [r for r in instr.results if isinstance(r, str)]
                    for n in results[iid]:
                        definer[n] = iid
        work = list(results)
        while work:
            at = work.pop()
            if at in dead or any(count.get(n) for n in results[at]):
                continue
            dead[at] = []
            for n in _instr_uses(blocks[at[1]].instrs[at[2]]):
                count[n] -= 1
                if not count[n] and n in definer:
                    work.append(definer[n])

    return _per_instr_pass(program, dead, reach)


# --------------------------------------------------------------------------
# loop_unroll
# --------------------------------------------------------------------------

UNROLL_LIMIT = 16  # the most trips a loop may have to be unrolled


@dataclass(frozen=True)
class _CountedLoop:
    header_index: int
    body_index: int
    init_index: int
    param_pos: int  # counter slot in the header's params
    trips: int


def _match_counted_loop(f: Function) -> Optional[_CountedLoop]:
    """Find a loop of the shape

        init:           br header(start, ...)
        header(i, ...): cond = i < limit
                        br cond, body, exit
        body:           ...
                        i2 = i + step
                        br header(i2, ...)

    whose trip count is statically known and at most `UNROLL_LIMIT`. The trip
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
        cond_def = _defines(header.instrs[:-1]).get(term.cond.name)
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
        inc_def = _defines(body.instrs[:-1]).get(inc_atom.name)
        step = None
        if isinstance(inc_def, BinaryExpr) and inc_def.op == "+":
            for x, c in ((inc_def.a, inc_def.b), (inc_def.b, inc_def.a)):
                if isinstance(x, Var) and x.name == counter and isinstance(c, Const):
                    step = c.value
                    break
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
        cty = cond_def.b.type  # `<` takes operands of one type: the counter's
        trips, t = 0, start_atom.value
        try:
            while trips <= UNROLL_LIMIT and eval_binary("<", t, limit, cty):
                trips += 1
                t = eval_binary("+", t, step, cty)
        except Exception:
            continue
        if trips == 0 or trips > UNROLL_LIMIT:
            continue
        return _CountedLoop(
            header_index=hi,
            body_index=index[body_label],
            init_index=index[init_block.label],
            param_pos=param_pos,
            trips=trips,
        )
    return None


def loop_unroll(program: Program) -> PassResult:
    """Fully unroll counted loops with a known trip count of at most
    `UNROLL_LIMIT`. Each iteration becomes a straight-line clone with fresh
    names; opaque interiors are freshened through `freshen`, so their
    identities and observation metadata survive. The original header
    and body blocks die with the loop."""

    def unroll(f: Function) -> Optional[list[_NewBlock]]:
        loop = _match_counted_loop(f)
        if loop is None:
            return None
        fresh = _fresh_namer(f)
        header = f.region.blocks[loop.header_index]
        body = f.region.blocks[loop.body_index]
        exit_term: Branch = header.instrs[-1]
        back: Branch = body.instrs[-1]
        hdr_labels = [fresh(header.label) for _ in range(loop.trips + 1)]
        body_labels = [fresh(body.label) for _ in range(loop.trips)]

        def clone(bi: int, term: Branch, renames: dict[str, str]) -> list:
            """Block `bi` copied for one iteration, ending in `term`."""
            instrs = (*f.region.blocks[bi].instrs[:-1], term)
            return [
                (freshen(instr, renames, fresh), [((f.name, bi, pos), "duplicated")])
                for pos, instr in enumerate(instrs)
            ]

        clones: list[_NewBlock] = []  # the header and body copies, in order
        for t in range(loop.trips + 1):
            renames = {p.name: fresh(p.name) for p in header.params}
            for block in (header, body) if t < loop.trips else (header,):
                for instr in block.instrs:
                    if isinstance(instr, Define):
                        for r in instr.results:
                            if isinstance(r, str):
                                renames.setdefault(r, fresh(r))
            params = tuple(dc_replace(p, name=renames[p.name]) for p in header.params)
            taken = BlockCall(body_labels[t]) if t < loop.trips else exit_term.els
            term = Branch(None, taken, None, exit_term.loc)
            clones.append((hdr_labels[t], params, clone(loop.header_index, term, renames)))
            if t < loop.trips:
                term = Branch(None, BlockCall(hdr_labels[t + 1], back.then.args), None, back.loc)
                clones.append((body_labels[t], (), clone(loop.body_index, term, renames)))

        def retarget(call: Optional[BlockCall]) -> Optional[BlockCall]:
            if call is not None and call.label == header.label:
                return dc_replace(call, label=hdr_labels[0])
            return call

        blocks = []
        for bi, block in enumerate(f.region.blocks):
            if bi == loop.header_index:
                blocks.extend(clones)
            elif bi != loop.body_index:
                instrs = [(i, [((f.name, bi, pos), "kept")]) for pos, i in enumerate(block.instrs)]
                if bi == loop.init_index:  # it enters the first header copy
                    term, srcs = instrs[-1]
                    term = dc_replace(term, then=retarget(term.then), els=retarget(term.els))
                    instrs[-1] = (term, srcs)
                blocks.append((block.label, block.params, instrs))
        return blocks

    return _rewrite_functions(program, unroll)


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

    def fold(instr) -> Optional[list[tuple[object, str]]]:
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

    edits = {iid: out for _, iid, instr in _each_instr(program) if (out := fold(instr)) is not None}
    return _per_instr_pass(program, edits)


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
    """Program and provenance are shared by pipelines on one input: read-only."""

    program: Program
    provenance: ProvenanceMap
    log: tuple[tuple[str, int], ...]  # (pass name, instructions affected)


def _affected(program: Program, result: PassResult) -> int:
    """How many of `program`'s instructions a pass touched: all but those
    a `kept` edge carries to the very same object. Only the functions it
    rebuilt are read: one carried over as the same object touched none."""
    after = {f.name: f for f in result.program.functions}
    rebuilt = {f.name: f.region.blocks for f in program.functions if after.get(f.name) is not f}
    same = {
        s
        for (s, d), k in result.provenance.edges.items()
        if k == "kept" and s[0] in rebuilt
        and after[d[0]].region.blocks[d[1]].instrs[d[2]] is rebuilt[s[0]][s[1]].instrs[s[2]]
    }
    return sum(len(b.instrs) for blocks in rebuilt.values() for b in blocks) - len(same)


def run_pipeline(program: Program, pass_names: Iterable[str]) -> PipelineResult:
    """Apply passes in order with the opacity seal engaged, composing
    provenance across the whole pipeline. Each (changed-pass prefix,
    pass) runs once per `program`; see the module docstring."""
    if (memo := getattr(program, "_pass_results", None)) is None:
        object.__setattr__(program, "_pass_results", memo := {})
    log = []
    current, prov, changed = program, None, ()
    with sealed_opaque_regions():
        for name in pass_names:
            key = (changed, PASSES[name])
            if key not in memo:
                result = key[1](current)
                if result.program is current:  # a pass that changes nothing
                    memo[key] = None
                else:  # the first changed pass's map already starts at `program`
                    pm = result.provenance if prov is None else prov.compose(result.provenance)
                    memo[key] = (result.program, pm, _affected(current, result))
            if (step := memo[key]) is None:  # a no-op: go on with `current`
                log.append((name, 0))
                continue
            current, prov, affected = step
            log.append((name, affected))
            changed += (key[1],)
    if prov is None:
        prov = ProvenanceMap.identity(program)
    return PipelineResult(current, prov, tuple(log))


def optimize(program: Program, preset: str) -> PipelineResult:
    """Run a preset through `run_pipeline`; calls on one program share the
    pass results memoized on it."""
    if preset not in PRESETS:
        raise KeyError(f"unknown preset {preset!r}")
    return run_pipeline(program, PRESETS[preset])
