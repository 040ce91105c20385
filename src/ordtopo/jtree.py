"""Finite polymodal frames and their tree structure.

A frame is a finite node set with a list of transitive irreflexive
relations R_0..R_{n-1} subject to two monotonicity conditions:

  (I) for m < n: x R_n y implies R_m(x) = R_m(y);
  (J) for m < n: x R_m y and y R_n z imply x R_m z.

The k-planes are the components under R_k and above.  A treelike frame is
a root plane with subtrees hanging below it under R_0, each plane again a
treelike frame on the higher relations.  root_split reads that structure
off the in-edges: the root plane is the set of nodes that no R_0 edge
enters.  Tree recognition and the hereditary roots read the frame the same
way, and the embedding recurses through root_split.

The module also checks the map conditions (j1)-(j4) for maps from a band-set
space onto a treelike frame, and does bounded search for a treelike
model of a formula.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .ordinal import ONE, Ordinal, ZERO
from .logic import (
    Formula,
    Program,
    compile_formula,
    frame_succ,
    mask_nodes,
    node_bits,
    node_mask,
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
    nodes = tuple(nodes)
    known = set(nodes)
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
    raises InvalidFrame naming the field, prefixed by at (as "tree.")."""
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
    return make_jframe(nodes, [[tuple(pair) for pair in r] for r in rels])


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
    rep = FrameReport()
    succ = [_succ_table(r) for r in f.rels]
    empty: FrozenSet = frozenset()
    for k, r in enumerate(f.rels):
        for a, b in r:
            if a == b:
                rep.violations.append((f"irreflexivity of R_{k}", (a,)))
            for c in succ[k].get(b, empty):
                if (a, c) not in r:
                    rep.violations.append((f"transitivity of R_{k}", (a, b, c)))
    for m in range(len(f.rels)):
        for n in range(m + 1, len(f.rels)):
            for x, y in f.rels[n]:
                sx, sy = succ[m].get(x, empty), succ[m].get(y, empty)
                if sx != sy:
                    z = next(iter(sx ^ sy))
                    rep.violations.append((f"(I) at m={m}, n={n}", (x, y, z)))
            for x, y in f.rels[m]:
                for z in succ[n].get(y, empty):
                    if (x, z) not in f.rels[m]:
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


def root_split(f: JFrame) -> Tuple[FrozenSet, List[JFrame]]:
    """The root plane of f, the nodes that no R_0 edge enters, and the child
    subtrees, the connected components of the other nodes.

    In a treelike frame, (i) R_k never joins two points of one (k+1)-plane:
    by (I), they have equal R_k-successor sets, so x R_k y gives y R_k y;
    and (ii) a plane sees every point of a plane it sees at all.  So a
    (k+1)-plane is entered by R_k exactly when each of its points is.
    Hence the root plane is the set of nodes that no R_0 edge enters, and
    once it is removed, each child plane and everything below it form one
    component."""
    alpha, rest = _split(f.nodes, f.rels)
    return alpha, [subframe(f, c) for c in rest]


def is_jtree(f: JFrame) -> bool:
    """Whether the frame f is treelike (InvalidFrame if it is not valid):
    each component at level k splits as root_split splits f, alpha goes on
    to level k+1, each component of the rest stays at level k, and f is
    treelike iff alpha is one node at the last level.  Were alpha to fall
    apart at level k+1, its pieces would keep points apart down to the last
    level; so alpha lies in one plane, whose points have equal
    R_k-successors by (I), and by transitivity alpha sees the rest."""
    rep = validate_jframe(f)
    if not rep.ok:
        raise InvalidFrame(str(rep))
    n = len(f.rels)
    stack = [(c, 0) for c in _components(f.nodes, f.rels)]
    while stack:
        comp, k = stack.pop()
        alpha, rest = _split(comp, f.rels[k:])
        if k + 1 < n:
            stack.append((alpha, k + 1))
        elif len(alpha) != 1:
            return False
        stack.extend((c, k) for c in rest)
    return True


def _unentered(f: JFrame, k: int) -> FrozenSet:
    """The nodes that no R_j edge with j >= k enters."""
    entered = {b for r in f.rels[k:] for _, b in r}
    return frozenset(x for x in f.nodes if x not in entered)


def hereditary_roots(f: JFrame, k: int) -> FrozenSet:
    """Nodes whose (j+1)-plane is the root plane of its j-plane for all
    j >= k: by root_split's lemma, those that no R_j edge, j >= k, enters."""
    if not is_jtree(f):
        raise InvalidFrame("hereditary roots need a treelike frame")
    return _unentered(f, k)


def root_of(f: JFrame):
    """The unique node of a connected treelike frame that no edge enters."""
    if not f.rels:
        if len(f.nodes) != 1:
            raise InvalidFrame("a frame without relations must be a single node")
        return f.nodes[0]
    treelike = is_jtree(f)  # a frame that is not valid fails here first
    if len(_components(f.nodes, f.rels)) != 1:
        raise InvalidFrame("frame is not connected")
    if not treelike:
        raise InvalidFrame("frame is not treelike")
    (root,) = _unentered(f, 0)
    return root


# --- bounded model search ----------------------------------------------------------


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _block_trees(b: int):
    """Parent arrays (parent of block i is parents[i-1] < i) for rooted trees."""
    if b == 1:
        yield []
        return
    for rest in _block_trees(b - 1):
        for p in range(b - 1):
            yield rest + [p]


def _jtree_rels(nodes, n_mods: int):
    """All relation tuples making the nodes a connected treelike frame.

    Recursive: a treelike frame on n relations is a rooted tree of blocks,
    each block a treelike frame on the remaining n-1 relations, with R_0
    running uniformly from ancestor blocks to descendant blocks.
    """
    if n_mods == 0:
        if len(nodes) == 1:
            yield ()
        return
    for part in _partitions(list(nodes)):
        blocks = sorted(sorted(p) for p in part)
        inner = [list(_jtree_rels(tuple(bl), n_mods - 1)) for bl in blocks]
        if any(not c for c in inner):
            continue
        for parents in _block_trees(len(blocks)):
            anc_of = {0: set()}
            for i, p in enumerate(parents, start=1):
                anc_of[i] = {p} | anc_of[p]
            r0 = frozenset((x, y)
                           for i, anc in anc_of.items()
                           for j in anc
                           for x in blocks[j] for y in blocks[i])
            for combo in itertools.product(*inner):
                rest = [set() for _ in range(n_mods - 1)]
                for rels in combo:
                    for k, r in enumerate(rels):
                        rest[k] |= r
                yield (r0,) + tuple(frozenset(r) for r in rest)


def _shape_key(nodes, rels, k: int = 0) -> tuple:
    """The shape of a component of a treelike frame at level k, in the
    style of the Aho-Hopcroft-Ullman tree encoding: (the key of its root
    plane at level k+1, the sorted keys of its child components at level
    k); () for a node past the last level.  By root_split's lemma, R_k runs
    from each node of the root plane to each node of the rest, the higher
    relations stay inside (k+1)-planes, and no edge joins two child
    components; so two components have equal keys iff they are isomorphic,
    and no permutation of the nodes is tried."""
    if k == len(rels):
        return ()
    alpha, rest = _split(nodes, rels[k:])
    return (_shape_key(alpha, rels, k + 1),
            tuple(sorted(_shape_key(c, rels, k) for c in rest)))


@lru_cache(maxsize=None)
def _jtree_shapes(n: int, n_mods: int) -> Tuple[JFrame, ...]:
    """One connected treelike frame on the nodes 0..n-1 per shape: the
    first of its shape in _jtree_rels order.  Kept for the life of the
    process, one entry per (n, n_mods) searched."""
    nodes = tuple(range(n))
    seen, out = set(), []
    for rels in _jtree_rels(nodes, n_mods):
        key = _shape_key(nodes, rels)
        if key not in seen:
            seen.add(key)
            out.append(JFrame(nodes, rels))
    return tuple(out)


@lru_cache(maxsize=None)
def _supports(n_atoms: int, n: int) -> Tuple[int, ...]:
    """The node masks each atom runs through, in search order: every subset
    by size, then lexicographically; only the empty, singleton and full
    sets when atoms x nodes > 12."""
    if n_atoms * n <= 12:
        return tuple(sum(1 << i for i in c)
                     for r in range(n + 1) for c in itertools.combinations(range(n), r))
    return (0,) + tuple(1 << i for i in range(n)) + ((1 << n) - 1,)


def find_valuation(prog: Program, frame, target=None
                   ) -> Optional[Tuple[Dict[int, FrozenSet], FrozenSet]]:
    """The first valuation under which prog's formula holds at some node of
    target (default: anywhere in frame), with the nodes where it holds.

    Valuations are tried in a fixed order: the atoms, ascending, count
    like the digits of an odometer, the last one fastest, each through
    _supports.  None means that no valuation in that order works, which
    is "unsatisfiable on this frame" only when atoms x nodes <= 12.  Each
    step reruns only the slots that read the atom that changed or a later
    one, and a prefix under which a top-level conjunct misses target is
    not extended, so the first hit is the one the full enumeration finds.
    """
    nodes = tuple(frame.nodes)
    bit = node_bits(nodes)
    full = (1 << len(nodes)) - 1
    want = full if target is None else node_mask(target, bit)
    succ = frame_succ(prog, frame, bit)
    code, starts = prog.code, prog.starts
    n_atoms = len(prog.atoms)
    opts = _supports(n_atoms, len(nodes))
    vals = [0] * len(code)
    masks = [0] * n_atoms
    run_program(code, 0, starts[0], vals, masks, succ, full)
    # conjuncts by the last atom position they read, -1 (first) for none
    conj: List[List[int]] = [[] for _ in range(n_atoms + 1)]
    for s in prog.conjuncts():
        conj[bisect.bisect_right(starts, s)].append(s)
    bound = [full] * (n_atoms + 1)     # bound[k + 1]: conjuncts up to atom k
    for s in conj[0]:
        bound[0] &= vals[s]
    if not bound[0] & want:
        return None
    pick = [0] * n_atoms
    k = 0
    while k < n_atoms:
        if pick[k] == len(opts):
            if k == 0:
                return None
            pick[k] = 0
            k -= 1
            pick[k] += 1
            continue
        masks[k] = opts[pick[k]]
        run_program(code, starts[k], starts[k + 1], vals, masks, succ, full)
        got = bound[k]
        for s in conj[k + 1]:
            got &= vals[s]
        if got & want:
            bound[k + 1] = got
            k += 1
        else:
            pick[k] += 1
    got = bound[n_atoms]
    return ({a: mask_nodes(m, nodes) for a, m in zip(prog.atoms, masks)},
            mask_nodes(got, nodes))


@dataclass(frozen=True)
class SearchResult:
    frame: JFrame
    node: object
    valuation: Dict[int, FrozenSet]


def find_jtree_model(phi: Formula, max_nodes: int) -> Optional[SearchResult]:
    """Bounded search for a treelike model of phi.

    Tries one connected treelike frame per shape on 1..max_nodes nodes, in
    _jtree_rels order (_jtree_shapes), and, on each, the valuations in
    find_valuation's order; returns the generated subframe at the least
    node satisfying phi under the first valuation that works.  None means
    unknown, not unsatisfiable: besides the node bound, when atoms x nodes
    > 12 only the empty, singleton and full supports are tried.  phi must
    use condensed modality indices 0..n-1.

    Searching one frame per shape returns what searching every labelled
    frame returns.  Each _supports slice is closed under relabelling (a
    node permutation keeps the size of a subset), so a frame has a
    valuation making phi true somewhere iff every isomorphic copy has one.
    Hence the first labelled frame with a model is the first copy of its
    shape, the frames before it have none, and the search over the first
    copies reaches that same frame and makes the same find_valuation call.
    """
    prog = compile_formula(phi)
    if any(not o.is_finite() for o in prog.mods):
        raise FrameError("modality indices must be condensed naturals")
    n_mods = 1 + max((o.to_int() for o in prog.mods), default=-1)
    for n in range(1, max_nodes + 1):
        for frame in _jtree_shapes(n, n_mods):
            hit = find_valuation(prog, frame)
            if hit is None:
                continue
            v, got = hit
            w = min(got)
            sub = generated_subframe(frame, w)
            if not is_jtree(sub):
                raise FrameError(f"generated subframe at {w} is not treelike")
            kept = set(sub.nodes)
            return SearchResult(sub, w, {i: s & kept for i, s in v.items()})
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


def block_table(fmap, space, t: JFrame
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
    """Check the map conditions (j1)-(j4) for fmap: [1, theta] -> t.

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
    if not is_jtree(t):
        raise InvalidFrame("target is not a treelike frame")
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
        x = min_witness(union(_minus(got, want, theta), _minus(want, got, theta)))
        if x is not None:
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
        for x in sorted(_unentered(t, k), key=repr):
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
