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

The module also does bounded search for a treelike model of a formula.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .ordinal import Ordinal
from .logic import (
    Formula,
    Program,
    compile_formula,
    diamond_table,
    mask_nodes,
    node_bits,
    node_mask,
    relation_preds,
    run_program,
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


# the JSON shape of a list of node ids: (what an error says, test)
NODE_LIST = ("a list of node ids", lambda v: isinstance(v, list) and all(map(is_node_id, v)))


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
    if keep.issuperset(f.nodes):        # f whole: share its relations
        return JFrame(f.nodes, f.rels)
    return JFrame(tuple(n for n in f.nodes if n in keep),
                  tuple(frozenset(p for p in r if p[0] in keep and p[1] in keep)
                        for r in f.rels))


def _succ_table(rel) -> Dict:
    out: Dict = {}
    for a, b in rel:
        out.setdefault(a, set()).add(b)
    return {a: frozenset(s) for a, s in out.items()}


def generated_subframe(f: JFrame, x) -> JFrame:
    """Restriction of the J-frame f to x and everything reachable from x,
    which is x and its successors under any relation: the union of a
    J-frame's relations is transitive.  For x R_m y R_n z, x R_m z when
    m <= n, by (J) or by transitivity, and z is in R_n(y) = R_n(x) when
    m > n, by (I)."""
    return subframe(f, {x} | {b for r in f.rels for a, b in r if a == x})


def frame_dia(f: JFrame, a, k: int) -> FrozenSet:
    return frozenset(x for x, y in f.rels[k] if y in a)


def frame_ranks(f: JFrame, k: int) -> Dict:
    """Each node's rank under R_k: the length of the longest R_k-path from
    it.  R_k must be a strict order, as in every J-frame; then a node's
    successors have fewer successors than it has, so they are ranked first."""
    succ = _succ_table(f.rels[k])
    rank: Dict = {}
    for y in sorted(f.nodes, key=lambda y: len(succ.get(y, ()))):
        rank[y] = 1 + max((rank[z] for z in succ.get(y, ())), default=-1)
    return rank


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
                comp += new
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
        stack += ((c, k) for c in rest)
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
        queue += ((kid, above + tuple(mine)) for kid in reversed(kids))
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


def whole_slice(n_atoms: int, n: int) -> bool:
    """Whether _supports runs each atom through every subset of n nodes."""
    return n_atoms * n <= 12


def _supports(n_atoms: int, n: int) -> Tuple[int, ...]:
    """The node masks each atom runs through, in search order: every subset
    by size, then lexicographically; only the empty, singleton and full
    sets when atoms x nodes > 12, each once (on one node the full set is
    the singleton); none without atoms, where no scan reads them.  At most
    4,096 masks; the searches read them through the _packing memo."""
    if not n_atoms:
        return ()
    if whole_slice(n_atoms, n):
        return tuple(sum(1 << i for i in c)
                     for r in range(n + 1) for c in itertools.combinations(range(n), r))
    return tuple(dict.fromkeys((0,) + tuple(1 << i for i in range(n)) + ((1 << n) - 1,)))


@lru_cache(maxsize=4096)
def _preds(frame: JFrame, idx: Ordinal) -> Tuple[Tuple[int, int], ...]:
    """The relation_preds of frame's relation at modality index idx, shared
    by every find_valuation on frame (verify's stage (a) on a countermodel's
    tree, and one-frame searches) and by _passes for the frames of
    find_jtree_model's tables, so each atom count reads them once.  The
    4,096 most recent pairs are kept (the two-relation tables up to 7
    nodes hold 1,830), each at most n entries.  Raises IndexOutOfRange for
    an index past the relations and LogicError for an edge leaving the
    frame."""
    return relation_preds(frame, idx, node_bits(frame.nodes))


# The most bits a packed value holds (frames x valuations x nodes).
# Measured on the benchmark's search and cli inputs (2-CPU container,
# Python 3.11, best of several runs): at 2^12 two atoms on 5 nodes (5,120
# bits) fall to the odometer, and search's 165 formulas of seeds 1-3 take
# 169 ms, against 100-105 ms at 2^13 to 2^16 (156 ms with the generated
# kernel it replaced); above 2^13, stage (a) on the 5-chain's tree formula
# packs four atoms where pruning one more pays (0.4-0.8 ms, 0.16-0.29 at
# 2^13).  With several frames per pass, find_jtree_model over ten seed-1
# search rounds is again fastest at 2^13: 17.0 ms a round, against 41.6
# at 2^12, 20.3 at 2^14 and 24.5 at 2^16 (best of four).
PACK_BITS = 1 << 13


def _ones(count: int, width: int) -> int:
    """The int with bit j * width set for each j < count."""
    return ((1 << count * width) - 1) // ((1 << width) - 1)


@lru_cache(maxsize=64)
def _packing(n_atoms: int, n: int, count: int = 1) -> Tuple[int, int, tuple, tuple]:
    """(lead, rep, patterns, opts) for n_atoms atoms on count frames of n
    nodes, N = count * n bits, with opts = _supports(n_atoms, n) and
    S = len(opts): the last atoms, from position lead on, are packed, as
    many as keep V * n <= PACK_BITS for their V = S^(n_atoms - lead)
    valuations, which take V * N bits; rep = _ones(V, N).  Block j of N
    bits of a value is the j-th valuation of the packed atoms in odometer
    order (the last atom fastest), so block j of the pattern of packed atom
    t is opts[digit t of j in base S] in every frame.  The 64 most recent
    entries are kept, each at most 13 patterns of PACK_BITS and 4,096 opts."""
    opts = _supports(n_atoms, n)
    s, tail, width = len(opts), 0, count * n
    while tail < n_atoms and s ** (tail + 1) * n <= PACK_BITS:
        tail += 1
    frames = _ones(count, n)
    patterns = []
    for t in range(tail):
        run = s ** (tail - 1 - t)           # the blocks that share a digit
        period = sum(o * frames * _ones(run, width) << d * run * width
                     for d, o in enumerate(opts))
        patterns.append(period * _ones(s ** t, s * run * width))
    return n_atoms - tail, _ones(s ** tail, width), tuple(patterns), opts


@lru_cache(maxsize=64)
def _passes(n: int, n_mods: int, n_atoms: int) -> Tuple[Tuple[int, int, tuple], ...]:
    """find_jtree_model's passes over _jtree_shapes(n, n_mods) for n_atoms
    atoms, in table order, as (first, count, tables): the count frames
    from first on, max(1, PACK_BITS // (S^n_atoms * n)) with
    S = len(_supports), so one unless _packing packs every atom, and each
    relation's diamond_table over them.  The 64 most recent triples are
    kept; a pass holds at most n 2^(n-1) diamond triples per relation (a
    node and a set of the others), whose masks are at most PACK_BITS bits."""
    frames = _jtree_shapes(n, n_mods)
    per = max(1, PACK_BITS // (len(_supports(n_atoms, n)) ** n_atoms * n))
    idxs = [Ordinal.from_int(k) for k in range(n_mods)]
    out = []
    for first in range(0, len(frames), per):
        group = frames[first:first + per]
        rep = _packing(n_atoms, n, len(group))[1]
        out.append((first, len(group), tuple(
            diamond_table([_preds(g, idx) for g in group], n, rep) for idx in idxs)))
    return tuple(out)


def _first_hit(prog: Program, n: int, count: int, want: int, preds
               ) -> Optional[Tuple[int, List[int], int]]:
    """The first hit of prog's formula at a node of want in one pass over
    count frames of n nodes, preds the pass's diamond tables per modality
    position: (the frame's place in the pass, each atom's node mask, the
    nodes where the formula holds there), or None.

    The pass runs on the frames' disjoint union, of N = count * n nodes:
    bit f * n + i is node i of frame f.  Its atom-free slots run once on N
    bits.  An odometer runs the leading atoms (those before _packing's
    lead; then count = 1) on single node sets: each step reruns only the
    slot group of the atom that changed, and a prefix under which a
    top-level conjunct (prog.tops) misses want is not extended, as no
    completion can hit it.  At each full prefix, one packed pass runs the
    remaining groups over every valuation of the packed atoms at once:
    bit (j * count + f) * n + i of a value is node i of frame f under the
    j-th of them in odometer order, the prefix copied to every block of N
    bits (times rep), and run_program's diamond carries nothing across a
    block of n bits.  One table serves both: its masks have bit
    (j * count + f) * n set (diamond_table), so (a >> v) & mask on a prefix
    value a < 2^N reads only bits below N, as the masks' bits from N on
    lie in blocks that such a value does not have.  The pass stops at a
    group whose conjuncts leave no block hitting want.  The hit is taken
    in the least frame f with one and, in it, in the least block j that
    hits want, the first valuation in order under this prefix: so it is
    the one that enumerating every valuation of each frame in turn finds
    first.  No code is generated.
    """
    one, width = (1 << n) - 1, count * n
    code, starts, tops, n_atoms = prog.code, prog.starts, prog.tops, len(prog.atoms)
    vals = [0] * len(code)

    def meet(c, g, vals):
        for s in tops[g]:
            c &= vals[s]
        return c

    full0, want0 = (1 << width) - 1, want * _ones(count, n)
    run_program(code, 0, starts[0], vals, (), preds, full0)
    bound = [meet(full0, 0, vals)]      # bound[k]: the conjuncts up to atom k - 1
    if not bound[0] & want0:
        return None
    lead, rep, patterns, opts = _packing(n_atoms, n, count)
    masks = [0] * lead + list(patterns)
    full, want_all = full0 * rep, want0 * rep
    pick: List[int] = []
    i = 0
    while True:
        k = len(pick)
        if k == lead:
            packed, c = [v * rep for v in vals], bound[-1] * rep
            for g in range(k + 1, n_atoms + 1):
                if c & want_all:
                    run_program(code, starts[g - 1], starts[g], packed, masks, preds, full)
                    c = meet(c, g, packed)
            hit = c & want_all
            if hit:
                f = 0                       # the least frame with a hit
                while not (h := hit >> f * n & one * rep):
                    f += 1
                j = ((h & -h).bit_length() - 1) // width
                holds = c >> (j * count + f) * n & one
                tail: List[int] = []        # the packed atoms' digits, last first
                for _ in range(n_atoms - lead):
                    j, d = divmod(j, len(opts))
                    tail.append(d)
                return f, [opts[d] for d in pick + tail[::-1]], holds
        elif i < len(opts):
            masks[k] = opts[i]              # count = 1 while an atom leads
            run_program(code, starts[k], starts[k + 1], vals, masks, preds, full0)
            c = meet(bound[-1], k + 1, vals)
            if c & want0:
                pick.append(i)
                bound.append(c)
                i = 0
            else:
                i += 1
            continue
        if not pick:
            return None
        i = pick.pop() + 1
        bound.pop()


def find_valuation(prog: Program, frame: JFrame, target=None
                   ) -> Optional[Tuple[Dict[int, FrozenSet], FrozenSet]]:
    """The first valuation under which prog's formula holds at some node of
    target (default: anywhere in frame), with the nodes where it holds.

    Valuations are tried in a fixed order: the atoms, ascending, count
    like the digits of an odometer, the last one fastest, each through
    _supports.  None means that no valuation in that order works, which
    is "unsatisfiable on this frame" only when whole_slice holds.  This is
    _first_hit's one-frame pass: an odometer over the leading atoms on n
    bits, then every valuation of the packed atoms as a block of n bits of
    one int.
    """
    nodes = tuple(frame.nodes)
    n = len(nodes)
    want = (1 << n) - 1 if target is None else node_mask(target, node_bits(nodes))
    pairs = [_preds(frame, idx) for idx in prog.mods]
    if not want:                        # no node to hit, as in an empty frame
        return None
    rep = _packing(len(prog.atoms), n, 1)[1]    # the key _first_hit reads
    hit = _first_hit(prog, n, 1, want, [diamond_table([p], n, rep) for p in pairs])
    if hit is None:
        return None
    _, masks, holds = hit
    return ({a: mask_nodes(m, nodes) for a, m in zip(prog.atoms, masks)},
            mask_nodes(holds, nodes))


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

    The frames of one size are searched in passes (_passes), each the
    one-frame search on the disjoint union of count frames, valuation
    outermost: bit (j * count + f) * n + i of a packed value is node i of
    the pass's frame f under valuation j, and a diamond's per-block masks
    (diamond_table) give each frame its own relation with no carry across a
    block.  A hit is taken in the pass's least frame with one and there in
    the first valuation that works (_first_hit), so the frame, node and
    valuation are those of searching each frame in turn.  The passes'
    diamond tables are kept from formula to formula.

    A model is found iff searching every labelled frame finds one, and at
    the same least size.  Each _supports slice is closed under relabelling
    (a node permutation keeps the size of a subset), so a frame has a
    valuation making phi true somewhere iff every isomorphic copy has one,
    and the table holds a copy of every shape.  Which model is returned
    depends on the table's order and labels.

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
    ks = [o.to_int() for o in prog.mods]
    n_mods = 1 + max(ks, default=-1)
    for n in range(1, max_nodes + 1):
        frames = _jtree_shapes(n, n_mods)
        for first, count, tables in _passes(n, n_mods, len(prog.atoms)):
            hit = _first_hit(prog, n, count, (1 << n) - 1, [tables[k] for k in ks])
            if hit is None:
                continue
            f, masks, holds = hit
            frame = frames[first + f]
            w = (holds & -holds).bit_length() - 1
            sub = generated_subframe(frame, w)
            return SearchResult(JTree(sub.nodes, sub.rels), w,
                                {a: mask_nodes(m, frame.nodes).intersection(sub.nodes)
                                 for a, m in zip(prog.atoms, masks)})
    return None
