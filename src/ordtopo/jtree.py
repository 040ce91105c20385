"""Finite polymodal frames and their tree structure.

A frame is a finite node set with a list of transitive irreflexive
relations R_0..R_{n-1} subject to two monotonicity conditions:

  (I) for m < n: x R_n y implies R_m(x) = R_m(y);
  (J) for m < n: x R_m y and y R_n z imply x R_m z.

The k-planes are the components under R_k and above.  A treelike frame is
a root plane with subtrees hanging below it under R_0, each plane again a
treelike frame on the higher relations.  as_jtree checks a frame once;
the JTree it returns reads that structure off the in-edges (split), as
JTrees that are not checked again, and the embedding recurses through it.

The module also checks the map conditions (j1)-(j4) for maps from a band-set
space onto a treelike frame, and does bounded search for a treelike
model of a formula.
"""

from __future__ import annotations

import bisect
import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .ordinal import ONE, Ordinal, ZERO
from .logic import (
    OP_AND,
    OP_BOT,
    OP_BOX,
    OP_DIA,
    OP_IMP,
    OP_NOT,
    OP_OR,
    OP_TOP,
    OP_VAR,
    Diamonds,
    Formula,
    Program,
    compile_formula,
    mask_nodes,
    node_bits,
    node_mask,
    relation_succ,
    run_program,
)
from .topology import (
    EMPTY,
    BandSet,
    NotRepresentable,
    bandset,
    complement_within,
    derived_set,
    geq_set,
    intersect,
    is_empty,
    is_open,
    min_witness,
    sets_equal,
    subset_of,
    union,
)


class FrameError(Exception):
    pass


class InvalidFrame(FrameError):
    pass


# --- frames ---------------------------------------------------------------------


@dataclass(frozen=True)
class JFrame:
    nodes: Tuple
    rels: Tuple[FrozenSet[Tuple], ...]


def make_jframe(nodes, rels) -> JFrame:
    """A frame on nodes, each listed once, whose relations' edges join nodes;
    InvalidFrame otherwise."""
    nodes = tuple(nodes)
    known = set(nodes)
    if len(known) != len(nodes):
        twice = next(x for i, x in enumerate(nodes) if x in nodes[:i])
        raise InvalidFrame(f"node {twice!r} is listed twice")
    out = []
    for r in rels:
        r = frozenset((a, b) for a, b in r)
        for a, b in r:
            if a not in known or b not in known:
                raise InvalidFrame(f"edge ({a!r}, {b!r}) mentions an unknown node")
        out.append(r)
    return JFrame(nodes, tuple(out))


def is_node_id(v) -> bool:
    """Node ids in JSON are strings or integers (not booleans)."""
    return isinstance(v, (str, int)) and not isinstance(v, bool)


def jframe_from_json(obj, at: str = "") -> JFrame:
    """A frame from {"nodes": [...], "rels": [[[a, b], ...], ...]} or from a
    record holding one under "frame", as `search` writes.  Any other shape
    raises InvalidFrame naming the field, prefixed by at (as "tree."), and
    so does a make_jframe error, naming the field at when there is one."""
    if isinstance(obj, dict) and "frame" in obj:
        obj = obj["frame"]
    if not isinstance(obj, dict) or "nodes" not in obj or "rels" not in obj:
        raise InvalidFrame("a frame must be a JSON object with 'nodes' and 'rels'")

    def bad(path, shape):
        return InvalidFrame(f"frame field {at + path!r} must be {shape}")

    nodes, rels = obj["nodes"], obj["rels"]
    if not (isinstance(nodes, list) and all(map(is_node_id, nodes))):
        raise bad("nodes", "a list of node ids (strings or integers)")
    if not isinstance(rels, list):
        raise bad("rels", "a list of relations")
    for k, r in enumerate(rels):
        if not isinstance(r, list):
            raise bad(f"rels[{k}]", "a list of [node, node] pairs")
        for i, pair in enumerate(r):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(map(is_node_id, pair))):
                raise bad(f"rels[{k}][{i}]", "a [node, node] pair")
    try:
        return make_jframe(nodes, [[tuple(pair) for pair in r] for r in rels])
    except InvalidFrame as exc:
        raise InvalidFrame(f"frame field {at[:-1]!r}: {exc}") if at else exc


def jframe_to_json(f: JFrame) -> dict:
    return {"nodes": list(f.nodes),
            "rels": [sorted(([a, b] for a, b in r), key=repr) for r in f.rels]}


def subframe(f: JFrame, keep) -> JFrame:
    keep = set(keep)
    return JFrame(tuple(n for n in f.nodes if n in keep),
                  tuple(frozenset(p for p in r if p[0] in keep and p[1] in keep)
                        for r in f.rels))


def _succ_table(rel) -> Dict:
    out: Dict = {}
    for a, b in rel:
        out.setdefault(a, set()).add(b)
    return {a: frozenset(s) for a, s in out.items()}


def generated_subframe(f: JFrame, x) -> JFrame:
    """Restriction of f to x and everything reachable from x."""
    succ = [_succ_table(r) for r in f.rels]
    keep, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for tab in succ:
            for z in tab.get(y, ()):
                if z not in keep:
                    keep.add(z)
                    frontier.append(z)
    return subframe(f, keep)


# --- validation -----------------------------------------------------------------


@dataclass
class FrameReport:
    violations: List[Tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s)"]
        for name, wit in self.violations[:8]:
            lines.append(f"  {name}: witness {wit}")
        return "\n".join(lines)


def validate_jframe(f: JFrame) -> FrameReport:
    """The frame's violations, in repr order: equal frames give one report."""
    rep = FrameReport()
    succ = [_succ_table(r) for r in f.rels]
    edges = [sorted(r, key=repr) for r in f.rels]
    empty: FrozenSet = frozenset()
    for k, r in enumerate(f.rels):
        for a, b in edges[k]:
            if a == b:
                rep.violations.append((f"irreflexivity of R_{k}", (a,)))
            for c in sorted((c for c in succ[k].get(b, empty) if (a, c) not in r),
                            key=repr):
                rep.violations.append((f"transitivity of R_{k}", (a, b, c)))
    for m in range(len(f.rels)):
        for n in range(m + 1, len(f.rels)):
            for x, y in edges[n]:
                sx, sy = succ[m].get(x, empty), succ[m].get(y, empty)
                if sx != sy:
                    z = min(sx ^ sy, key=repr)
                    rep.violations.append((f"(I) at m={m}, n={n}", (x, y, z)))
            for x, y in edges[m]:
                for z in sorted((z for z in succ[n].get(y, empty)
                                 if (x, z) not in f.rels[m]), key=repr):
                    rep.violations.append((f"(J) at m={m}, n={n}", (x, y, z)))
    return rep


# --- tree structure -----------------------------------------------------------------


def _components(nodes, rels) -> List[FrozenSet]:
    """The components of nodes under the relations rels, in either direction."""
    nbrs: Dict = {x: set() for x in nodes}
    for r in rels:
        for a, b in r:
            if a in nbrs and b in nbrs:
                nbrs[a].add(b)
                nbrs[b].add(a)
    todo, out = set(nbrs), []
    for x in nodes:
        if x in todo:
            todo.discard(x)
            comp = [x]
            for y in comp:  # comp grows as it is read
                new = nbrs[y] & todo
                todo -= new
                comp.extend(new)
            out.append(frozenset(comp))
    return out


def _split(nodes, rels) -> Tuple[FrozenSet, List[FrozenSet]]:
    """(nodes that no rels[0] edge from nodes enters, components of the rest)"""
    inside = set(nodes)
    entered = {b for a, b in (rels[0] if rels else ()) if a in inside}
    alpha = frozenset(x for x in nodes if x not in entered)
    return alpha, _components([x for x in nodes if x in entered], rels)


class JTree(JFrame):
    """A connected treelike frame and its root, the node no edge enters.
    as_jtree checks a frame once; split and find_jtree_model build trees
    unchecked, as their lemmas allow."""

    def __init__(self, nodes, rels):
        super().__init__(nodes, rels)
        (root,) = self.hereditary_roots(0)
        object.__setattr__(self, "root", root)

    @cached_property
    def split(self) -> Tuple[JTree, Tuple[JTree, ...]]:
        """The root plane (the nodes that no R_0 edge enters) as a tree on R_1
        and up, and the child subtrees (the components of the rest) as trees.

        In a treelike frame, (i) R_k never joins two points of one (k+1)-plane:
        by (I), they have equal R_k-successor sets, so x R_k y gives y R_k y;
        and (ii) a plane sees every point of a plane it sees at all.  So a
        (k+1)-plane is entered by R_k exactly when each of its points is.
        Hence the root plane is the set of nodes that no R_0 edge enters, and
        once it is removed, each child plane and everything below it form one
        component.  Computed on first read."""
        alpha, rest = _split(self.nodes, self.rels)

        def tree(keep, rels):
            g = subframe(JFrame(self.nodes, rels), keep)
            return JTree(g.nodes, g.rels)

        return tree(alpha, self.rels[1:]), tuple(tree(c, self.rels) for c in rest)

    def hereditary_roots(self, k: int) -> FrozenSet:
        """Nodes whose (j+1)-plane is the root plane of its j-plane for all
        j >= k: by split's lemma, those that no R_j edge, j >= k, enters."""
        entered = {b for r in self.rels[k:] for _, b in r}
        return frozenset(x for x in self.nodes if x not in entered)


def as_jtree(f: JFrame) -> JTree:
    """f as a JTree (a JTree as it is), checked once: InvalidFrame unless f
    is valid, connected and treelike, asked in that order.

    f is treelike iff each component at level k splits as JTree.split
    splits f, alpha goes on to level k+1, each component of the rest stays
    at level k, and alpha is one node at the last level.  Were alpha to
    fall apart at level k+1, its pieces would keep points apart down to the
    last level; so alpha lies in one plane, whose points have equal
    R_k-successors by (I), and by transitivity alpha sees the rest."""
    if isinstance(f, JTree):
        return f
    f = make_jframe(f.nodes, f.rels)
    rep = validate_jframe(f)
    if not rep.ok:
        raise InvalidFrame(str(rep))
    if not f.rels and len(f.nodes) != 1:
        raise InvalidFrame("a frame without relations must be a single node")
    if len(_components(f.nodes, f.rels)) != 1:
        raise InvalidFrame("frame is not connected")
    n, stack = len(f.rels), [(f.nodes, 0)]
    while stack:
        comp, k = stack.pop()
        alpha, rest = _split(comp, f.rels[k:])
        if k + 1 < n:
            stack.append((alpha, k + 1))
        elif len(alpha) != 1:
            raise InvalidFrame("frame is not treelike")
        stack.extend((c, k) for c in rest)
    return JTree(f.nodes, f.rels)


# --- bounded model search ----------------------------------------------------------


@lru_cache(maxsize=None)
def _shapes(n: int, r: int) -> Tuple[tuple, ...]:
    """The shapes of connected treelike frames on n nodes with r relations,
    each once: () for a node past the last relation, else (plane, kids),
    the root plane's shape on the higher relations and the subtrees' shapes
    as a multiset, non-decreasing by (size, index).  By JTree.split's lemma
    a frame is its root plane with subtrees below, so this is the
    Aho-Hopcroft-Ullman tree encoding read forwards: no frames are compared."""
    if r == 0:
        return ((),) if n == 1 else ()
    return tuple((plane, kids) for a in range(n, 0, -1) for plane in _shapes(a, r - 1)
                 for kids in _multisets(n - a, r, 1, 0))


def _multisets(total: int, r: int, size: int, index: int):
    """Multisets of _shapes(., r) entries of total nodes, non-decreasing by
    (size, index) from (size, index) on."""
    if total == 0:
        yield ()
    for s in range(size, total + 1):
        kids = _shapes(s, r)
        for i in range(index if s == size else 0, len(kids)):
            for rest in _multisets(total - s, r, s, i):
                yield (kids[i],) + rest


def _label(shape, k: int, rels, first: int) -> int:
    """Label a component of the given shape at level k with the ids from
    first on, add its edges to rels[k:], and return the next free id:
    breadth-first over its blocks, each plane labelled recursively at level
    k + 1 and its kids queued last to first, R_k running from every plane
    to every plane below it."""
    if k == len(rels):
        return first + 1
    queue = collections.deque([(shape, ())])
    while queue:
        (plane, kids), above = queue.popleft()
        mine = range(first, _label(plane, k + 1, rels, first))
        rels[k].update((x, y) for x in above for y in mine)
        queue.extend((kid, above + tuple(mine)) for kid in reversed(kids))
        first = mine.stop
    return first


@lru_cache(maxsize=None)
def _jtree_shapes(n: int, n_mods: int) -> Tuple[JFrame, ...]:
    """One connected treelike frame on the nodes 0..n-1 per shape, labelled
    by _label in _shapes order.  Kept for the life of the process, one
    entry per (n, n_mods) searched, with no bound: a search can afford only
    small tables (641 frames on 7 nodes with two relations, 16,892 on 8
    with three), and an evicted one would be built again by the next."""
    out = []
    for shape in _shapes(n, n_mods):
        rels = [set() for _ in range(n_mods)]
        _label(shape, 0, rels, 0)
        out.append(JFrame(tuple(range(n)), tuple(map(frozenset, rels))))
    return tuple(out)


@lru_cache(maxsize=32)
def _supports(n_atoms: int, n: int) -> Tuple[int, ...]:
    """The node masks each atom runs through, in search order: every subset
    by size, then lexicographically; only the empty, singleton and full
    sets when atoms x nodes > 12, each once (on one node the full set is
    the singleton); none without atoms, where no scan reads them.  The 32
    most recent pairs are kept, at most 4,096 masks each."""
    if not n_atoms:
        return ()
    if n_atoms * n <= 12:
        return tuple(sum(1 << i for i in c)
                     for r in range(n + 1) for c in itertools.combinations(range(n), r))
    return tuple(dict.fromkeys((0,) + tuple(1 << i for i in range(n)) + ((1 << n) - 1,)))


@lru_cache(maxsize=256)
def _diamonds(frame: JFrame, idx: Ordinal) -> Diamonds:
    """The diamond memo of frame's relation at modality index idx, shared by
    every search on frame; the 256 most recent pairs are kept, more than
    the 187 of the shape tables up to 5 nodes and 2 relations.
    relation_succ raises IndexOutOfRange for an index past the relations
    and LogicError for an edge leaving the frame."""
    return Diamonds(relation_succ(frame, idx, node_bits(frame.nodes)))


# one expression per opcode that reads slots: x and y name the slots read,
# except that y is the modality position m of OP_DIA and OP_BOX, whose
# diamond memo is the local d<m>
_TEMPLATE = {OP_NOT: "full ^ {x}", OP_AND: "{x} & {y}", OP_OR: "{x} | {y}",
             OP_IMP: "(full ^ {x}) | {y}", OP_DIA: "d{y}[{x}]",
             OP_BOX: "full ^ d{y}[full ^ {x}]"}


def _reads(op: int, x: int, y: int) -> Tuple[int, ...]:
    """The slots an instruction reads."""
    if op in (OP_NOT, OP_DIA, OP_BOX):
        return (x,)
    return (x, y) if op in (OP_AND, OP_OR, OP_IMP) else ()


@lru_cache(maxsize=32)
def _kernel(code, starts, tops) -> tuple:
    """find_jtree_model's search kernel for the programs with this code,
    these slot groups and these top-level conjuncts (Program.tops),
    generated as straight-line Python: (scan_0, ..., scan_{n-1}), n the
    number of atoms.  Programs that differ only in their atom or modality
    indices share one kernel.

    scan_k(i, opts, vals, c, want, full, dia) runs atom k through opts[i:],
    computes group k + 1 in locals, meets c with each of the group's tops,
    and returns (index, meet) for the first option whose meet hits want,
    else None.  dia[m] is the diamond memo of modality position m.  Each
    scan reads the earlier groups' slots from vals and stores there only
    the slots that later groups read.  A slot that no conjunct depends on,
    such as an AND above the conjuncts, is not computed.

    The source is built from slot numbers, modality positions and the
    fixed templates above; no formula text or node id reaches exec.  The
    32 most recent structures keep their kernels, a few KiB of code each."""
    group = [bisect.bisect_right(starts, s) for s in range(len(code))]
    live = {s for t in tops for s in t}
    for s in range(len(code) - 1, -1, -1):
        if s in live:
            live.update(_reads(*code[s]))
    later = {r for s in live for r in _reads(*code[s]) if group[r] < group[s]}
    later -= {s for s in later if code[s][0] in (OP_TOP, OP_BOT)}

    def name(s, g):
        op = code[s][0]
        if op in (OP_TOP, OP_BOT):
            return "full" if op == OP_TOP else "0"
        return "a" if op == OP_VAR and group[s] == g else f"s{s}"

    scope = {"__builtins__": {}, "range": range, "len": len}
    for g in range(1, len(starts)):
        mine = [s for s in range(starts[g - 1], starts[g]) if s in live]
        body = [f"d{m} = dia[{m}]" for m in sorted(
            {code[s][2] for s in mine if code[s][0] in (OP_DIA, OP_BOX)})]
        body += [f"s{r} = vals[{r}]" for r in sorted(
            {r for s in mine for r in _reads(*code[s])} & later) if group[r] < g]
        step = ["a = opts[i]"]
        for s in mine:
            op, x, y = code[s]
            if op in _TEMPLATE:
                y = name(y, g) if op in (OP_AND, OP_OR, OP_IMP) else y
                step.append(f"s{s} = " + _TEMPLATE[op].format(x=name(x, g), y=y))
        step.append("c = c0")
        step += [f"c &= {name(s, g)}" for s in tops[g]]
        step.append("if c & want:")
        step += ["    " + line for line in
                 [f"vals[{s}] = {name(s, g)}" for s in mine if s in later] + ["return i, c"]]
        body.append("for i in range(i, len(opts)):")
        body += ["    " + line for line in step]
        body.append("return None")
        # one function per compile keeps the compiler's peak memory small
        src = "\n    ".join([f"def scan{g - 1}(i, opts, vals, c0, want, full, dia):"] + body)
        exec(compile(src, "<search kernel>", "exec"), scope)
    return tuple(scope[f"scan{k}"] for k in range(len(starts) - 1))


def find_valuation(prog: Program, frame: JFrame, target=None
                   ) -> Optional[Tuple[Dict[int, FrozenSet], FrozenSet]]:
    """The first valuation under which prog's formula holds at some node of
    target (default: anywhere in frame), with the nodes where it holds.

    Valuations are tried in a fixed order: the atoms, ascending, count
    like the digits of an odometer, the last one fastest, each through
    _supports.  None means that no valuation in that order works, which
    is "unsatisfiable on this frame" only when atoms x nodes <= 12.  The
    atom-free slots run once; each step reruns only the slot group of the
    atom that changed, and a prefix under which a top-level conjunct
    (prog.tops) misses target is not extended, so the first hit is the one
    the full enumeration finds.  The steps run interpreted, one slot group
    at a time (run_program over the frame's diamond memos, _diamonds); no
    kernel is generated, however long the scan.
    """
    return _scan(prog, frame, target, None)


def _scan(prog: Program, frame: JFrame, target, kernel):
    """find_valuation, with each atom's options scanned by kernel (a _kernel
    result) or, when kernel is None, by run_program in scans of the same
    signature.  Group 0, which reads no atom, is run once, interpreted."""
    nodes = tuple(frame.nodes)
    full = (1 << len(nodes)) - 1
    want = full if target is None else node_mask(target, node_bits(nodes))
    dia = tuple(_diamonds(frame, idx) for idx in prog.mods)
    code, starts, tops, n_atoms = prog.code, prog.starts, prog.tops, len(prog.atoms)
    opts = _supports(n_atoms, len(nodes))
    vals, masks = [0] * len(code), [0] * n_atoms
    run_program(code, 0, starts[0], vals, masks, dia, full)
    c = full
    for s in tops[0]:
        c &= vals[s]
    if not c & want:
        return None

    def interpret(k):
        def scan(i, opts, vals, c0, want, full, dia):
            for i in range(i, len(opts)):
                masks[k] = opts[i]
                run_program(code, starts[k], starts[k + 1], vals, masks, dia, full)
                c = c0
                for s in tops[k + 1]:
                    c &= vals[s]
                if c & want:
                    return i, c
            return None
        return scan

    scans = kernel if kernel is not None else [interpret(k) for k in range(n_atoms)]
    bound = [c]                         # bound[k]: the conjuncts up to atom k - 1
    pick: List[int] = []
    i = 0
    while len(pick) < n_atoms:
        hit = scans[len(pick)](i, opts, vals, bound[-1], want, full, dia)
        if hit is not None:
            pick.append(hit[0])
            bound.append(hit[1])
            i = 0
        elif not pick:
            return None
        else:
            i = pick.pop() + 1
            bound.pop()
    return ({a: mask_nodes(opts[p], nodes) for a, p in zip(prog.atoms, pick)},
            mask_nodes(bound[-1], nodes))


@dataclass(frozen=True)
class SearchResult:
    frame: JTree
    node: object
    valuation: Dict[int, FrozenSet]


def find_jtree_model(phi: Formula, max_nodes: int) -> Optional[SearchResult]:
    """Bounded search for a treelike model of phi.

    Tries one connected treelike frame per shape on 1..max_nodes nodes, in
    the order of _jtree_shapes, and, on each, the valuations in
    find_valuation's order; returns the generated subframe at the least
    node satisfying phi under the first valuation that works.  None means
    unknown, not unsatisfiable: besides the node bound, when atoms x nodes
    > 12 only the empty, singleton and full supports are tried.  phi must
    use condensed modality indices 0..n-1.

    A model is found iff searching every labelled frame finds one, and at
    the same least size.  Each _supports slice is closed under relabelling
    (a node permutation keeps the size of a subset), so a frame has a
    valuation making phi true somewhere iff every isomorphic copy has one,
    and the table holds a copy of every shape.  Which model is returned
    depends on the table's order and labels.
    The scans on many frames repay a kernel, so every frame runs prog's
    generated kernel (_kernel) from its first step, and the table's frames
    keep their diamond memos (_diamonds) from formula to formula.

    The result is a JTree built unchecked: the subframe of a treelike
    frame generated at w is a tree with root w.  By induction, it is the
    plane's own generated subframe with every child subtree below, if w
    is in the root plane, else that of w's subtree, as no edge leaves a
    subtree; no edge enters w, as the union of the relations is
    irreflexive and, by (I) and (J), transitive.
    """
    prog = compile_formula(phi)
    if any(not o.is_finite() for o in prog.mods):
        raise FrameError("modality indices must be condensed naturals")
    n_mods = 1 + max((o.to_int() for o in prog.mods), default=-1)
    kernel = _kernel(prog.code, prog.starts, prog.tops)
    for n in range(1, max_nodes + 1):
        for frame in _jtree_shapes(n, n_mods):
            hit = _scan(prog, frame, None, kernel)
            if hit is None:
                continue
            v, got = hit
            w = min(got)
            sub = generated_subframe(frame, w)
            return SearchResult(JTree(sub.nodes, sub.rels), w,
                                {i: s.intersection(sub.nodes) for i, s in v.items()})
    return None


# --- map condition checking ----------------------------------------------------------


def frame_dia(f: JFrame, a, k: int) -> FrozenSet:
    return frozenset(x for x, y in f.rels[k] if y in a)


def _minus(a, b, theta: Ordinal):
    return intersect(a, complement_within(b, ONE, theta))


def frame_ranks(f: JFrame, k: int) -> Dict:
    """Each node's rank under R_k: the length of the longest R_k-path from
    it.  R_k must be a strict order, as in every J-frame; then a node's
    successors have fewer successors than it has, so they are ranked first."""
    succ = _succ_table(f.rels[k])
    rank: Dict = {}
    for y in sorted(f.nodes, key=lambda y: len(succ.get(y, ()))):
        rank[y] = 1 + max((rank[z] for z in succ.get(y, ())), default=-1)
    return rank


@dataclass
class JMapReport:
    checks: List[Tuple[str, str, bool, str]] = field(default_factory=list)

    def add(self, name: str, mode: str, ok: bool, detail: str = ""):
        self.checks.append((name, mode, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, _, ok, _ in self.checks)

    def __str__(self):
        lines = [("PASS" if self.ok else "FAIL") + f" ({len(self.checks)} checks)"]
        for name, mode, ok, detail in self.checks:
            tail = f" -- {detail}" if detail else ""
            lines.append(f"  [{mode}] {name}: {'ok' if ok else 'FAIL'}{tail}")
        return "\n".join(lines)


def block_table(fmap, space, t: JTree
                ) -> Tuple[Dict, List[Tuple[FrozenSet, BandSet]]]:
    """Each node's fiber fmap.preimage([y]), None for a missing node (where
    that raises NotRepresentable), and the blocks (nodes, preimage): each
    band fiber alone, and the missing nodes of each rank rho under the top
    relation together, with preimage {l^lam = rho} minus the band fibers of
    rank rho, lam the top level.  Without relations, band fibers only."""
    theta = space.theta
    fiber: Dict = {}
    for y in t.nodes:
        try:
            fiber[y] = fmap.preimage([y])
        except NotRepresentable:
            fiber[y] = None
    table = [(frozenset([y]), f) for y, f in fiber.items() if f is not None]
    missing = [y for y, f in fiber.items() if f is None]
    if missing and t.rels:
        top = len(t.rels) - 1
        lam, rank = space.level_at(Ordinal.from_int(top)), frame_ranks(t, top)
        for rho in sorted({rank[y] for y in missing}):
            at_rho = [y for y in t.nodes if rank[y] == rho]
            cut = bandset(b for y in at_rho for b in (fiber[y] or EMPTY).bands)
            cut = union(geq_set(lam, Ordinal.from_int(rho + 1), theta), cut)
            level = _minus(geq_set(lam, Ordinal.from_int(rho), theta), cut, theta)
            table.append((frozenset(y for y in at_rho if fiber[y] is None), level))
    return fiber, table


def jmap_check(fmap, space, t: JFrame) -> JMapReport:
    """Check the map conditions (j1)-(j4) for fmap: [1, theta] -> t (a tree).

    fmap must provide preimage(nodes) -> BandSet and is asked for each
    fiber (block_table) and each rank upset, nothing else; the preimage of
    a union of blocks is the union of theirs.  lam is the top level.

    Rank preservation (EXACT): f^{-1}(rank >= rho) = {l^lam >= rho} on
    [1, theta] for rho = 0..h+1, h the top rank (rho = 0: f^{-1}(T) =
    [1, theta]).  So rank f(x) = l^lam(x): this row licenses the missing
    blocks' preimages, and a report whose rank row fails is FAIL whatever
    the other rows say.  An upset without a band preimage fails it.

    (j1) f^{-1}(<>A) = d_lam f^{-1}(A) is checked once per block.  Both
    sides are finitely additive in A and vanish at the empty set (f^{-1}
    and <> distribute over unions, and d(P u Q) = dP u dQ), so the block
    identities hold iff (j1) holds on every union of blocks: on every
    subset when all blocks are singletons (EXACT).  Otherwise the row is
    EXACT-WHERE-DEFINED and counts as skipped the blocks B whose <>B
    splits a block; (j2) is left out, and (j3) rows whose sets split a
    block and (j4) rows of missing fibers are SKIPPED.

    (j2): f is open from I_{lam_k} to the upsets of R = R_k u ... u R_{n-1}
    for each level k < n iff, with down_k(y) = {y} u R^{-1}(y),

        f^{-1}(down_k y) <= F_y u d_{lam_k}(F_y)  for every node y.

    R is transitive by (I) and (J), so down_k(y) is the least R-downset
    holding y; the right side is the closure of F_y.  (=>) Let p be in
    f^{-1}(down_k y) and U open around p: f(U) is an upset holding f(p),
    which is y or R-sees y, so y is in f(U) and U meets F_y.  (<=) Let U be
    open, p in U and f(p) R y: p is in f^{-1}(down_k y), so in the closure
    of F_y, and U meets F_y, so y is in f(U).
    """
    t = as_jtree(t)
    nn = len(t.rels)
    if len(space.levels) < nn:
        raise InvalidFrame("space has fewer levels than the frame has relations")
    theta = space.theta
    rep = JMapReport()
    nodes = tuple(t.nodes)
    fiber, table = block_table(fmap, space, t)
    missing = sorted((y for y in nodes if fiber[y] is None), key=repr)
    if missing:
        rep.add("fiber representability", "SKIPPED", True,
                f"no band fibers for {missing}")

    def split(s):  # the first block that s cuts, None for a union of blocks
        return next((b for b, _ in table if b & s and not b <= s), None)

    def pre(s):
        return bandset(band for b, pb in table if b <= s for band in pb.bands)

    if nn == 0:
        if not missing:
            lam = 1 if not space.levels else space.level_at(ZERO)
            ok = is_empty(derived_set(pre(frozenset(nodes)), lam, theta))
            rep.add("(j1) d-map law", "EXACT", ok,
                    "" if ok else "domain not discrete")
        return rep

    top = nn - 1
    lam = space.level_at(Ordinal.from_int(top))
    rank = frame_ranks(t, top)

    # (j1): f^{-1}(<>B) = d f^{-1}(B) at the top level, once per block B
    bad, skipped = None, 0
    for b, pb in table:
        dia = frame_dia(t, b, top)
        if split(dia) is not None:
            skipped += 1
        elif not sets_equal(pre(dia), derived_set(pb, lam, theta), theta):
            bad = b
            break
    multi = [sorted(b, key=repr) for b, _ in table if len(b) > 1]
    if multi:
        name, mode = "(j1) d-map law on representable subsets", "EXACT-WHERE-DEFINED"
        detail = f"multi-node blocks {', '.join(map(str, multi))}; {skipped} skipped"
    else:
        name, mode, detail = "(j1) d-map law", "EXACT", f"{len(nodes)} fibers"
    if bad is not None:
        detail = f"A={sorted(map(repr, bad))}"
    rep.add(name, mode, bad is None, detail)

    # rank preservation: f^{-1}(rank >= rho) = {l^lam >= rho}
    bad = None
    for rho in range(max(rank.values()) + 2):
        try:
            got = fmap.preimage([y for y in nodes if rank[y] >= rho])
        except NotRepresentable:
            bad = f"f^-1(rank >= {rho}) is not a band set"
            break
        want = geq_set(lam, Ordinal.from_int(rho), theta)
        if not sets_equal(got, want, theta):
            x = min_witness(union(_minus(got, want, theta), _minus(want, got, theta)))
            bad = f"f^-1(rank >= {rho}) differs from l^{lam} >= {rho} at x={x}"
            break
    rep.add("(j1) rank preservation", "EXACT", bad is None, bad or "")

    # (j2): f^{-1}(down_k y) lies in the level-k closure of F_y
    if not missing:
        def open_at(k, y):
            lam_k = space.level_at(Ordinal.from_int(k))
            down = frozenset({y}.union(x for r in t.rels[k:] for x, z in r if z == y))
            fib = fiber[y]
            return subset_of(pre(down), union(fib, derived_set(fib, lam_k, theta)),
                             theta)

        bad = next((f"level {k}, node {y!r}" for k in range(nn)
                    for y in sorted(nodes, key=repr) if not open_at(k, y)), None)
        rep.add("(j2) openness", "EXACT", bad is None, bad or "")

    # (j3)/(j4): hereditary-root conditions at each lower level
    for k in range(nn - 1):
        lam_k = space.level_at(Ordinal.from_int(k))
        for x in sorted(t.hereditary_roots(k), key=repr):
            below = frozenset(y for r in t.rels[k:] for a, y in r if a == x)
            name = f"(j3) root {x!r} at level {k}"
            for s in (below, below | {x}):
                cut = split(s)
                ok3 = cut is None and is_open(pre(s), lam_k, theta)
                if not ok3:
                    break
            if cut is not None:
                rep.add(name, "SKIPPED", True,
                        f"{sorted(s, key=repr)} splits the block {sorted(cut, key=repr)}")
            else:
                rep.add(name, "EXACT", ok3)
            fib = fiber[x]
            if fib is None:
                rep.add(f"(j4) fiber of {x!r} at level {k}", "SKIPPED", True,
                        "fiber not representable")
                continue
            ok4 = is_empty(intersect(derived_set(fib, lam_k, theta), fib))
            rep.add(f"(j4) fiber of {x!r} discrete at level {k}", "EXACT", ok4)
    return rep
