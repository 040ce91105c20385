import bisect
import collections
import itertools
import random
import time

import pytest

import helpers
from ordtopo.logic import (
    OP_AND,
    OP_BOT,
    OP_DIA,
    OP_IMP,
    OP_NOT,
    OP_OR,
    OP_TOP,
    OP_VAR,
    And,
    IndexOutOfRange,
    LogicError,
    _random_formula,
    _schema_instances,
    compile_formula,
    condense,
    conj,
    eval_kripke,
    parse_formula,
    PolySpace,
    diamond_table,
    tree_formula,
)
from ordtopo.embed import jmap_check
from ordtopo import jtree as jtree_module
from ordtopo.jtree import (
    FrameError,
    InvalidFrame,
    JFrame,
    JTree,
    SearchResult,
    as_jtree,
    find_jtree_model,
    find_valuation,
    frame_ranks,
    generated_subframe,
    jframe_from_json,
    jframe_to_json,
    make_jframe,
    validate_jframe,
    _jtree_shapes,
    _packing,
    _shapes,
    _supports,
)
from ordtopo.ordinal import ONE, OMEGA, parse_ordinal
from ordtopo.topology import EMPTY, interval, member, parse_bandset, union

o = parse_ordinal
f = parse_formula


def frame(nodes, *rels):
    return make_jframe(nodes, rels)


MIXED = frame("abc", [("b", "c"), ("a", "c")], [("a", "b")])


# --- validation ----------------------------------------------------------------


def test_validate_goldens():
    assert validate_jframe(frame("x")).ok
    # (I): x <_1 y but x and y disagree about z at level 0
    bad_i = frame("xyz", [("x", "z")], [("x", "y")])
    rep = validate_jframe(bad_i)
    assert any(name.startswith("(I)") for name, _ in rep.violations)
    # (J): x <_0 y, y <_1 z, but not x <_0 z
    bad_j = frame("xyz", [("x", "y")], [("y", "z")])
    rep = validate_jframe(bad_j)
    assert any(name.startswith("(J)") for name, _ in rep.violations)
    assert validate_jframe(MIXED).ok


def test_validate_transitivity_irreflexivity():
    rep = validate_jframe(frame("abc", [("a", "b"), ("b", "c")]))
    assert any(name.startswith("transitivity") for name, _ in rep.violations)
    rep = validate_jframe(frame("a", [("a", "a")]))
    assert any(name.startswith("irreflexivity") for name, _ in rep.violations)


def test_frame_errors_do_not_depend_on_set_order():
    # equal frames whose edge sets iterate in different orders give one
    # text: edges are read in repr order, and (I) names its least witness
    r = frozenset({(2, 3), (3, 1), (1, 3), (2, 1)})
    g = JFrame((0, 1, 2, 3), (r,))
    h = make_jframe(g.nodes, g.rels)
    assert g == h
    want = ("2 violation(s)\n  transitivity of R_0: witness (1, 3, 1)\n"
            "  transitivity of R_0: witness (3, 1, 3)")
    assert str(validate_jframe(g)) == str(validate_jframe(h)) == want
    assert outcome(as_jtree, g) == outcome(as_jtree, h) == (InvalidFrame, want)
    g = frame("wxyz", [("w", "z"), ("w", "y")], [("w", "x")])
    assert str(validate_jframe(g)) == \
        "1 violation(s)\n  (I) at m=0, n=1: witness ('w', 'x', 'y')"


def test_a_node_listed_twice_is_rejected():
    for nodes, rels in (((0, 0, 1), [[(0, 1)]]), ((0, 0), [[]])):
        assert outcome(make_jframe, nodes, rels) == \
            (InvalidFrame, "node 0 is listed twice")
        g = JFrame(nodes, tuple(map(frozenset, rels)))
        assert outcome(as_jtree, g) == (InvalidFrame, "node 0 is listed twice")


def oracle_valid(nodes, rels):
    """Direct quantifier translation of the frame conditions."""
    for r in rels:
        for a in nodes:
            if (a, a) in r:
                return False
            for b in nodes:
                for c in nodes:
                    if (a, b) in r and (b, c) in r and (a, c) not in r:
                        return False
    for m in range(len(rels)):
        for n in range(m + 1, len(rels)):
            for x in nodes:
                for y in nodes:
                    for z in nodes:
                        if (x, y) in rels[n] and \
                                ((x, z) in rels[m]) != ((y, z) in rels[m]):
                            return False
                        if (x, y) in rels[m] and (y, z) in rels[n] and \
                                (x, z) not in rels[m]:
                            return False
    return True


def test_validate_matches_oracle_on_random_frames():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        nodes = tuple(range(n))
        rels = []
        for _ in range(rng.randint(1, 3)):
            edges = {(a, b) for a in nodes for b in nodes
                     if a != b and rng.random() < 0.25}
            if rng.random() < 0.5:
                edges = set(helpers.transitive_closure(edges))
            rels.append(frozenset(edges))
        g = JFrame(nodes, tuple(rels))
        assert validate_jframe(g).ok == oracle_valid(nodes, rels), g


# --- the plane-based definition, kept as an oracle ---------------------------------
#
# The package reads a treelike frame through its root split (as_jtree's pass
# over in-edges, and JTree.split).  The definition it replaced decomposes the
# frame into planes at every level and asks that they nest as a tree; the
# tests below hold the package to it.


def oracle_classes(nodes, pairs):
    adj = {x: set() for x in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    out, seen = [], set()
    for x in nodes:
        if x in seen:
            continue
        comp, stack = set(), [x]
        while stack:
            y = stack.pop()
            if y in comp:
                continue
            comp.add(y)
            stack.extend(adj[y])
        seen |= comp
        out.append(frozenset(comp))
    return tuple(out)


def oracle_planes(g, n):
    """(n-planes, (n+1)-planes, the pairs of (n+1)-planes that R_n joins)."""
    rep = validate_jframe(g)
    if not rep.ok:
        raise InvalidFrame(str(rep))
    blocks = oracle_classes(g.nodes, [p for r in g.rels[n:] for p in r])
    subblocks = oracle_classes(g.nodes, [p for r in g.rels[n + 1:] for p in r])
    loc = {x: s for s in subblocks for x in s}
    rel = g.rels[n] if n < len(g.rels) else frozenset()
    return blocks, subblocks, frozenset((loc[a], loc[b]) for a, b in rel)


def oracle_is_tree(elems, order):
    """elems under a transitive strict 'ancestor sees descendant' order."""
    elems = list(elems)
    if any((a, a) in order for a in elems):
        return False
    for a, b in order:
        for c, d in order:
            if b == c and (a, d) not in order:
                return False
    roots = [a for a in elems if not any((b, a) in order for b in elems)]
    if len(roots) != 1:
        return False
    for a in elems:
        preds = [b for b in elems if (b, a) in order]
        for b in preds:
            for c in preds:
                if b != c and (b, c) not in order and (c, b) not in order:
                    return False
    return True


def oracle_is_jtree(g):
    for n in range(len(g.rels)):
        blocks, subblocks, order = oracle_planes(g, n)
        for block in blocks:
            subs = {s for s in subblocks if s <= block}
            sub_order = {(a, b) for a, b in order if a in subs and b in subs}
            if not oracle_is_tree(subs, sub_order):
                return False
            # uniformity: a plane sees every point of a plane it sees at all
            if not all((x, y) in g.rels[n] for a, b in sub_order for x in a for y in b):
                return False
    return True


def oracle_hereditary_roots(g, k):
    if not oracle_is_jtree(g):
        raise InvalidFrame("hereditary roots need a treelike frame")
    decomps = [oracle_planes(g, j) for j in range(k, len(g.rels))]
    return frozenset(x for x in g.nodes
                     if not any(b == next(s for s in subs if x in s)
                                for _, subs, order in decomps for _, b in order))


def oracle_root_of(g):
    if not g.rels:
        if len(g.nodes) != 1:
            raise InvalidFrame("a frame without relations must be a single node")
        return g.nodes[0]
    if len(oracle_planes(g, 0)[0]) != 1:
        raise InvalidFrame("frame is not connected")
    if not oracle_is_jtree(g):
        raise InvalidFrame("frame is not treelike")
    roots = oracle_hereditary_roots(g, 0)
    if len(roots) != 1:
        raise InvalidFrame(f"expected a unique root, found {len(roots)}")
    return next(iter(roots))


def test_planes_goldens():
    blocks, _, _ = oracle_planes(frame("rab", [("r", "a"), ("r", "b")]), 1)
    assert all(len(s) == 1 for s in blocks)
    blocks, _, order = oracle_planes(frame("ra", [("r", "a")]), 0)
    assert blocks == (frozenset("ra"),)
    assert order == frozenset({(frozenset("r"), frozenset("a"))})


def closure_classes(nodes, pairs):
    """Warshall closure of the reflexive symmetric relation, then classes."""
    idx = {x: i for i, x in enumerate(nodes)}
    n = len(nodes)
    m = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        m[idx[a]][idx[b]] = m[idx[b]][idx[a]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = m[i][j] or (m[i][k] and m[k][j])
    return {frozenset(x for x in nodes if m[idx[y]][idx[x]]) for y in nodes}


def test_planes_against_closure_oracle():
    for g in [MIXED, frame("abcd", [("a", "b"), ("a", "c"), ("a", "d")],
                           [], [("b", "c")])]:
        assert validate_jframe(g).ok
        for n in range(3):
            pairs = [p for r in g.rels[n:] for p in r]
            assert set(oracle_planes(g, n)[0]) == closure_classes(g.nodes, pairs)


def test_planes_requires_valid_frame():
    with pytest.raises(InvalidFrame):
        oracle_planes(frame("xyz", [("x", "y")], [("y", "z")]), 0)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except InvalidFrame as exc:
        return type(exc), str(exc)


def every_frame(n_nodes, n_rels):
    nodes = tuple(range(n_nodes))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    subsets = [frozenset(itertools.compress(pairs, bits))
               for bits in itertools.product((0, 1), repeat=len(pairs))]
    for rels in itertools.product(subsets, repeat=n_rels):
        yield JFrame(nodes, rels)


def treelike_and_mutant(n_nodes, n_rels, rng):
    """Each helpers.jtree_rels frame, and a copy with one edge toggled."""
    nodes = tuple(range(n_nodes))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    for rels in helpers.jtree_rels(nodes, n_rels):
        yield JFrame(nodes, rels)
        if pairs:
            k = rng.randrange(n_rels)
            mutant = list(rels)
            mutant[k] = rels[k] ^ {rng.choice(pairs)}
            yield JFrame(nodes, tuple(mutant))


def root_of(g):
    return as_jtree(g).root


def assert_split_matches_the_planes(t):
    """t's split against the planes: the root plane is the 1-plane of the
    root, the subtrees are the components of the rest, and every piece, read
    unchecked, is a tree that as_jtree accepts with the same root."""
    plane, subtrees = t.split
    if t.rels:
        assert set(plane.nodes) == next(s for s in oracle_planes(t, 0)[1] if t.root in s)
    rest = [x for x in t.nodes if x not in plane.nodes]
    assert {frozenset(s.nodes) for s in subtrees} == \
        set(oracle_classes(rest, [p for r in t.rels for p in r
                                  if p[0] in rest and p[1] in rest]))
    for piece in (plane, *subtrees):
        assert type(piece) is JTree
        assert as_jtree(JFrame(piece.nodes, piece.rels)).root == piece.root
        if len(piece.nodes) < len(t.nodes):
            assert_split_matches_the_planes(piece)


def test_root_split_matches_the_plane_oracle():
    rng = random.Random(3)
    frames = [g for n_rels, top in ((1, 4), (2, 3), (3, 2))
              for n in range(1, top + 1) for g in every_frame(n, n_rels)]
    frames += [g for n_rels, top in ((1, 5), (2, 5), (3, 4))
               for n in range(1, top + 1) for g in treelike_and_mutant(n, n_rels, rng)]
    treelike = 0
    for g in frames:
        assert outcome(root_of, g) == outcome(oracle_root_of, g), g
        try:
            t = as_jtree(g)
        except InvalidFrame:
            continue
        treelike += 1
        for k in range(len(g.rels) + 1):
            assert t.hereditary_roots(k) == oracle_hereditary_roots(g, k), (g, k)
        assert_split_matches_the_planes(t)
    assert len(frames) > 9000 and treelike > 300


def test_root_split_of_the_mixed_frame():
    # R_0 enters only c, and c stands alone below the root plane {a, b},
    # a tree on R_1
    plane, subtrees = as_jtree(MIXED).split
    assert (plane.nodes, plane.rels) == (("a", "b"), (frozenset({("a", "b")}),))
    assert [(g.nodes, g.rels) for g in subtrees] == \
        [(("c",), (frozenset(), frozenset()))]
    fan = frame("rab", [("r", "a"), ("r", "b")])
    plane, subtrees = as_jtree(fan).split
    assert plane.nodes == ("r",) and [g.nodes for g in subtrees] == [("a",), ("b",)]
    plane, subtrees = as_jtree(frame("x")).split
    assert plane.nodes == ("x",) and subtrees == ()


def test_a_piece_that_keeps_every_node_shares_the_relations():
    # with R_0 empty the root plane is the whole tree on R_1: its relation
    # is the tree's own object, not a copy, and so is a generated
    # subframe's at the root
    t = as_jtree(frame("ab", [], [("a", "b")]))
    plane, subtrees = t.split
    assert plane.rels[0] is t.rels[1] and subtrees == ()
    assert all(a is b for a, b in zip(generated_subframe(t, "a").rels, t.rels))


# --- tree recognition ------------------------------------------------------------


def test_is_jtree_pure_trees():
    for kf, root in helpers.all_trees(4):
        assert root_of(JFrame(kf.nodes, kf.rels)) == root


def test_is_jtree_shared_successor():
    # two incomparable planes seeing the same plane: not a tree
    g = frame("abc", [("a", "c"), ("b", "c")])
    assert validate_jframe(g).ok
    with pytest.raises(InvalidFrame, match="^frame is not treelike$"):
        as_jtree(g)


def test_is_jtree_uniformity():
    # x sees one point of the plane {y, y2} but not the other
    g = frame(("x", "y", "y2"), [("x", "y")], [("y2", "y")])
    assert validate_jframe(g).ok
    with pytest.raises(InvalidFrame, match="^frame is not treelike$"):
        as_jtree(g)


def test_is_jtree_mixed():
    t = as_jtree(MIXED)
    assert type(t) is JTree and (t.nodes, t.rels) == (MIXED.nodes, MIXED.rels)
    assert as_jtree(t) is t


# --- hereditary roots -------------------------------------------------------------


def test_hereditary_roots_goldens():
    t = as_jtree(frame("rab", [("r", "a"), ("r", "b")]))
    assert t.hereditary_roots(0) == frozenset("r")
    # "a" is a root at both levels; "b" loses at level 1, "c" at level 0
    mixed = as_jtree(MIXED)
    assert mixed.hereditary_roots(0) == frozenset("a")
    assert mixed.hereditary_roots(1) == frozenset("ac")
    single = as_jtree(frame("x"))
    for k in range(3):
        assert single.hereditary_roots(k) == frozenset("x")


def test_root_of():
    assert root_of(MIXED) == "a"
    assert root_of(frame("rab", [("r", "a"), ("r", "b")])) == "r"
    assert root_of(frame("x")) == "x"
    with pytest.raises(InvalidFrame, match="^frame is not connected$"):
        root_of(frame("xy", [], []))  # two components, no root


# --- search -----------------------------------------------------------------------


def test_find_model_diamond_top():
    res = find_jtree_model(f("<0>T"), 3)
    assert res is not None
    assert len(res.frame.nodes) == 2
    assert res.node == res.frame.root


def test_find_model_branching():
    phi = f("<0>p0 & <0>~p0")
    res = find_jtree_model(phi, 4)
    assert res is not None
    assert root_of(JFrame(res.frame.nodes, res.frame.rels)) == res.frame.root
    assert res.node in eval_kripke(phi, res.frame, res.valuation)


def test_find_model_contradiction():
    assert find_jtree_model(f("[0]F & <0>T"), 4) is None


def test_find_model_two_modalities():
    phi = f("<0><1>T")
    res = find_jtree_model(phi, 4)
    assert res is not None
    assert len(res.frame.nodes) == 3
    assert res.node in eval_kripke(phi, res.frame, res.valuation)
    assert root_of(JFrame(res.frame.nodes, res.frame.rels)) == res.frame.root


def test_generated_subframe_roots_witness():
    res = find_jtree_model(f("<1>T"), 4)
    assert res is not None
    assert type(res.frame) is JTree and res.frame.root == res.node
    assert root_of(JFrame(res.frame.nodes, res.frame.rels)) == res.node


def test_generated_subframes_of_trees_are_trees():
    # find_jtree_model's lemma: at every node x of a connected treelike
    # frame, the generated subframe is connected and treelike with root x
    checked = 0
    for n_rels, top in ((1, 5), (2, 5), (3, 4)):
        for n in range(1, top + 1):
            for g in _jtree_shapes(n, n_rels):
                for x in g.nodes:
                    assert as_jtree(generated_subframe(g, x)).root == x, (g, x)
                    checked += 1
    assert checked > 600


def test_generated_subframe_is_the_reachable_closure():
    # one pass over x's successors under every relation gives the nodes that
    # a breadth-first search along all the relations reaches from x
    pairs = 0
    for n_rels, top in ((1, 6), (2, 5), (3, 5)):
        for n in range(1, top + 1):
            for g in _jtree_shapes(n, n_rels):
                for x in g.nodes:
                    keep, queue = {x}, collections.deque([x])
                    while queue:
                        y = queue.popleft()
                        new = {b for r in g.rels for a, b in r if a == y} - keep
                        keep |= new
                        queue.extend(new)
                    sub = generated_subframe(g, x)
                    assert set(sub.nodes) == keep, (g, x)
                    assert sub.rels == tuple(frozenset((a, b) for a, b in r
                                                       if a in keep and b in keep)
                                             for r in g.rels), (g, x)
                    pairs += 1
    assert pairs == 1820


# The first model in the search order: (frame nodes, relations, node,
# valuation).  These are what enumerating every frame and every valuation
# in order finds; the incremental, pruned search must find the same.
SEARCH_GOLDENS = {
    "<0><1>T": ((0, 1, 2), [[(0, 1), (0, 2)], [(1, 2)]], 0, {}),
    "<1><0>T": ((0, 1, 2), [[(0, 2), (1, 2)], [(0, 1)]], 0, {}),
    "<1>T & ~<0>p0": ((0, 1), [[], [(0, 1)]], 0, {0: []}),
    "<0>p0 & <0>~p0": ((0, 1, 2), [[(0, 1), (0, 2)]], 0, {0: [1]}),
    "<0>T & [0][0]F": ((0, 1), [[(0, 1)]], 0, {}),
    "<1>p0 & [0]~p0": ((0, 1), [[], [(0, 1)]], 0, {0: [1]}),
    # one pass holds both 2-node shapes, and the second frame's hit sits
    # under a lower valuation than the first frame's: the frame comes first
    "<1>p0 | <0>~p0": ((0, 1), [[], [(0, 1)]], 0, {0: [1]}),
}
# tree_formula of each tree of helpers.all_trees(4): the node each p_i
# names in the model found (the frame is the tree itself, up to labels)
TREE_GOLDENS = [
    ([[]], [0]),
    ([[(0, 1)]], [0, 1]),
    ([[(0, 1), (0, 2)]], [0, 1, 2]),
    ([[(0, 1), (0, 2), (1, 2)]], [0, 1, 2]),
    ([[(0, 1), (0, 2), (0, 3)]], [0, 1, 2, 3]),
    ([[(0, 1), (0, 2), (0, 3), (1, 3)]], [0, 1, 2, 3]),
    ([[(0, 1), (0, 2), (0, 3), (1, 3)]], [0, 2, 1, 3]),
    ([[(0, 1), (0, 2), (0, 3), (1, 3)]], [0, 1, 3, 2]),
    ([[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]], [0, 1, 2, 3]),
    ([[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]], [0, 1, 2, 3]),
]
# false on every finite J-frame, one per frame condition
J_UNSAT = ["<0>T & [0]F", "<0>p0 & [0]~p0", "[0]([0]p0 -> p0) & ~[0]p0",
           "<0>(p0 & <0>p1) & [0]~p1", "<0>p0 & <1>[0]~p0", "<0><1>p0 & [0]~p0"]


def found(res):
    return (res.frame.nodes, [sorted(r) for r in res.frame.rels], res.node,
            {i: sorted(s) for i, s in res.valuation.items()})


def test_search_goldens():
    for text, want in SEARCH_GOLDENS.items():
        assert found(find_jtree_model(f(text), 5)) == want, text
    trees = helpers.all_trees(4)
    assert len(trees) == len(TREE_GOLDENS)
    for (kf, _), (rels, names) in zip(trees, TREE_GOLDENS):
        want = (tuple(range(len(names))), rels, 0,
                {i: [x] for i, x in enumerate(names)})
        assert found(find_jtree_model(tree_formula(kf), 5)) == want, rels
    for text in J_UNSAT:
        assert find_jtree_model(condense(f(text))[0], 5) is None, text


def test_search_needs_condensed_indices():
    with pytest.raises(FrameError, match="^modality indices must be condensed naturals$"):
        find_jtree_model(f("<w>p0"), 3)


# --- one frame per shape ------------------------------------------------------------


def relabel(rels, perm):
    return tuple(frozenset((perm[a], perm[b]) for a, b in r) for r in rels)


def oracle_canonical(n, rels):
    """The least relabelling of a frame on 0..n-1, over all n! of them."""
    return min(tuple(tuple(sorted(r)) for r in relabel(rels, perm))
               for perm in itertools.permutations(range(n)))


# shapes of connected treelike frames on 1, 2, ... nodes, per relation count
SHAPE_COUNTS = {1: [1, 1, 2, 4, 9], 2: [1, 2, 6, 18, 58], 3: [1, 3, 12, 48]}
# and on up to 8 nodes
MORE_SHAPE_COUNTS = {1: [20, 48, 115], 2: [189, 641, 2207], 3: [202, 863, 3789, 16892]}


def test_shape_key_counts_and_separates_shapes():
    for n_rels, counts in SHAPE_COUNTS.items():
        assert [len(_shapes(n, n_rels)) for n in range(1, 9)] == \
            counts + MORE_SHAPE_COUNTS[n_rels], n_rels
        for n, count in enumerate(counts, start=1):
            kept = _jtree_shapes(n, n_rels)
            assert len(kept) == count, (n_rels, n)
            canon = {oracle_canonical(n, g.rels) for g in kept}
            assert len(canon) == count, (n_rels, n)
            assert all(as_jtree(g).root == 0 for g in kept), (n_rels, n)


def test_the_table_has_each_shape_of_the_oracle():
    # the table's frames have the shape keys of every labelled frame, each once
    for n_rels, top in ((1, 7), (2, 6), (3, 5)):
        for n in range(1, top + 1):
            nodes = tuple(range(n))
            keys = [helpers.shape_key(nodes, g.rels) for g in _jtree_shapes(n, n_rels)]
            assert len(set(keys)) == len(keys), (n_rels, n)
            assert set(keys) == {helpers.shape_key(nodes, rels)
                                 for rels in helpers.jtree_rels(nodes, n_rels)}, (n_rels, n)


def test_a_shape_has_a_model_iff_every_labelling_has_one():
    # find_jtree_model's lemma: each _supports slice is closed under
    # relabelling, so find_valuation finds a valuation on the table's frame
    # exactly when it finds one on every labelled frame of its shape
    phis = [f(text) for text in SEARCH_GOLDENS]
    phis += [condense(f(text))[0] for text in J_UNSAT]
    phis += [tree_formula(kf) for kf, _ in helpers.all_trees(4)]
    progs = [compile_formula(phi) for phi in phis]
    outcomes = set()
    for n_rels in (1, 2):
        for n in range(1, 5):
            nodes = tuple(range(n))
            copies = {}
            for rels in helpers.jtree_rels(nodes, n_rels):
                copies.setdefault(helpers.shape_key(nodes, rels), []).append(rels)
            for g in _jtree_shapes(n, n_rels):
                same = copies.get(helpers.shape_key(nodes, g.rels))
                assert same, ("no labelled frame has the shape of", g)
                for prog in progs:
                    if any(o.to_int() >= n_rels for o in prog.mods):
                        continue
                    has = find_valuation(prog, g) is not None
                    assert all((find_valuation(prog, JFrame(nodes, rels)) is not None)
                               == has for rels in same), (prog, g)
                    outcomes.add(has)
    assert outcomes == {True, False}


def test_shape_key_ignores_labels():
    rng = random.Random(11)
    for n_rels, counts in SHAPE_COUNTS.items():
        for n in range(1, len(counts) + 1):
            nodes = tuple(range(n))
            for rels in helpers.jtree_rels(nodes, n_rels):
                perm = list(nodes)
                rng.shuffle(perm)
                assert helpers.shape_key(nodes, relabel(rels, perm)) == \
                    helpers.shape_key(nodes, rels), (rels, perm)


def every_frame_search(phi, max_nodes):
    """The search over every labelled frame in helpers.jtree_rels order, which
    find_jtree_model's search over one frame per shape must match."""
    prog = compile_formula(phi)
    n_mods = 1 + max((o.to_int() for o in prog.mods), default=-1)
    for n in range(1, max_nodes + 1):
        nodes = tuple(range(n))
        for rels in helpers.jtree_rels(nodes, n_mods):
            frame = JFrame(nodes, rels)
            hit = find_valuation(prog, frame)
            if hit is not None:
                v, got = hit
                sub = generated_subframe(frame, min(got))
                kept = set(sub.nodes)
                return SearchResult(sub, min(got), {i: s & kept for i, s in v.items()})
    return None


def test_search_by_shape_matches_the_search_over_every_frame():
    phis = [f(text) for text in SEARCH_GOLDENS]
    phis += [tree_formula(kf) for kf, _ in helpers.all_trees(4)]
    phis += [condense(f(text))[0] for text in J_UNSAT]
    rng = random.Random(17)
    mixed = [condense(_random_formula(rng, 2, 2, 4)) for _ in range(160)]
    phis += [phi for phi, idxs in mixed if len(idxs) == 2]
    outcomes = set()
    for phi in phis:
        want, got = every_frame_search(phi, 5), find_jtree_model(phi, 5)
        assert (got is None) == (want is None), phi
        assert got is None or found(got) == found(want), phi
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("text,calls", [("<0>p0 & <1>[0]~p0", 85), ("<0>T & [0]F", 17)])
def test_search_tries_each_shape_once(monkeypatch, text, calls):
    # an unsatisfiable formula meets every frame: 1 + 2 + 6 + 18 + 58 shapes
    # with two relations and 1 + 1 + 2 + 4 + 9 with one, against 273 and 34
    # labelled frames; the passes, each over the next count frames of its
    # table (its diamond tables are theirs), meet each shape once, in table
    # order, and most hold several shapes
    prog = compile_formula(f(text))
    n_mods = 1 + max(o.to_int() for o in prog.mods)
    tried, passes = [], []
    real = jtree_module._first_hit

    def counted(prog, n, count, want, preds):
        first = sum(len(g.nodes) == n for g in tried)
        group = _jtree_shapes(n, n_mods)[first:first + count]
        rep = _packing(len(prog.atoms), n, count)[1]
        assert preds == [diamond_table([jtree_module._preds(g, idx) for g in group], n, rep)
                         for idx in prog.mods]
        tried.extend(group)
        passes.append(n)
        return real(prog, n, count, want, preds)

    monkeypatch.setattr(jtree_module, "_first_hit", counted)
    assert find_jtree_model(f(text), 5) is None
    assert len(tried) == calls
    assert tried == [g for n in range(1, 6) for g in _jtree_shapes(n, n_mods)]
    assert len(passes) < calls and passes == sorted(passes)


@pytest.fixture
def small_packs(monkeypatch):
    """Set PACK_BITS for a test, with the memos that depend on it cleared
    before and after."""
    memos = (_packing, jtree_module._passes)

    def set_bits(bits):
        monkeypatch.setattr(jtree_module, "PACK_BITS", bits)
        for fn in memos:
            fn.cache_clear()

    yield set_bits
    for fn in memos:
        fn.cache_clear()


def test_pass_boundaries_match_the_search_over_every_frame(monkeypatch, small_packs):
    # the formulas of the search-by-shape test, each searched at the
    # default PACK_BITS over every labelled frame, then by passes of
    # few frames: models that first appear in a later pass of their
    # table, and one-frame passes with an odometer (lead > 0), give the
    # same frame, node and valuation
    phis = [f(text) for text in SEARCH_GOLDENS]
    phis += [tree_formula(kf) for kf, _ in helpers.all_trees(4)]
    phis += [condense(f(text))[0] for text in J_UNSAT]
    rng = random.Random(17)
    mixed = [condense(_random_formula(rng, 2, 2, 4)) for _ in range(160)]
    phis += [phi for phi, idxs in mixed if len(idxs) == 2]
    wants = [every_frame_search(phi, 5) for phi in phis]
    real = jtree_module._first_hit
    for bits in (1 << 6, 1 << 8, 1 << 10):
        small_packs(bits)
        hits, leads, done = [], set(), collections.Counter()

        def spied(prog, n, count, want, preds):
            got = real(prog, n, count, want, preds)
            leads.add(_packing(len(prog.atoms), n)[0] > 0)
            if got is not None:
                hits.append(done[n])    # the pass's first frame in its table
            done[n] += count
            return got

        monkeypatch.setattr(jtree_module, "_first_hit", spied)
        for phi, want in zip(phis, wants):
            done.clear()
            got = find_jtree_model(phi, 5)
            assert (got is None) == (want is None), (bits, phi)
            assert got is None or found(got) == found(want), (bits, phi)
        assert any(first > 0 for first in hits), bits
        assert leads == {True, False}, bits


def test_find_valuation_order_on_the_five_chain():
    # 5 atoms x 5 nodes > 12: each atom runs through the empty set, the
    # singletons and the full set; verify's stage (a) asks for the root
    chain = make_jframe(range(5), [[(i, j) for i in range(5)
                                    for j in range(5) if i < j]])
    prog = compile_formula(tree_formula(chain))
    v, holds = find_valuation(prog, chain, [0])
    assert v == {i: {i} for i in range(5)}
    assert holds == {0}
    assert find_valuation(compile_formula(f("p0 & ~p0")), chain) is None
    # the first valuation in order wins: with p0 empty, the formula holds
    # at every node that has a successor
    v, holds = find_valuation(compile_formula(f("~p0 & <0>T")), chain)
    assert v == {0: set()} and holds == {0, 1, 2, 3}
    # a hit at any node of the target counts, not just at the least one
    v, holds = find_valuation(compile_formula(f("p0 & [0]F")), chain)
    assert v == {0: {4}} and holds == {4}
    # with 3 atoms on 5 nodes p0 may be full but not {0, 1}
    full = compile_formula(f("p0 & [0]p0 & p1 & p2"))
    assert find_valuation(full, chain, [0])[0] == {0: set(range(5)), 1: {0}, 2: {0}}
    pair = "p0 & <0>p0 & ~<0><0>p0 & p1"
    assert find_valuation(compile_formula(f(pair)), chain, [0])[0] == \
        {0: {0, 1}, 1: {0}}
    assert find_valuation(compile_formula(f(pair + " & p2")), chain, [0]) is None


# --- the packed valuation search against the interpreter ---------------------------


def oracle_run(code, start, stop, vals, masks, succ, full):
    """Fill vals[start:stop] by dispatching on each opcode."""
    for i in range(start, stop):
        op, x, y = code[i]
        if op == OP_VAR:
            vals[i] = masks[x]
        elif op in (OP_TOP, OP_BOT):
            vals[i] = full if op == OP_TOP else 0
        elif op == OP_NOT:
            vals[i] = full ^ vals[x]
        elif op == OP_AND:
            vals[i] = vals[x] & vals[y]
        elif op == OP_OR:
            vals[i] = vals[x] | vals[y]
        elif op == OP_IMP:
            vals[i] = (full ^ vals[x]) | vals[y]
        else:
            a = vals[x] if op == OP_DIA else full ^ vals[x]
            out = 0
            for b, s in succ[y]:
                if s & a:
                    out |= b
            vals[i] = out if op == OP_DIA else full ^ out


def oracle_supports(n_atoms, n):
    """The support order with its repeats: on one node with more than 12
    atoms, the full set is the singleton a second time."""
    if n_atoms * n <= 12:
        return [sum(1 << i for i in c)
                for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    return [0] + [1 << i for i in range(n)] + [(1 << n) - 1]


def oracle_find_valuation(prog, frame, target=None):
    """The valuation search as an interpreted odometer, which
    find_valuation's generated scans must match: each step reruns the slots
    from the group of the atom that changed to the end of that group, and a
    prefix under which a top-level conjunct misses target is not extended."""
    nodes = tuple(frame.nodes)
    bit = {x: 1 << i for i, x in enumerate(nodes)}
    full = (1 << len(nodes)) - 1
    want = full if target is None else sum(bit[x] for x in set(target))
    succ = []                       # (node bit, successor mask) per modality
    for idx in prog.mods:
        table = {}
        for a, b in frame.rels[idx.to_int()]:
            table[bit[a]] = table.get(bit[a], 0) | bit[b]
        succ.append(list(table.items()))
    code, starts = prog.code, prog.starts
    n_atoms = len(prog.atoms)
    opts = oracle_supports(n_atoms, len(nodes))
    vals, masks = [0] * len(code), [0] * n_atoms
    oracle_run(code, 0, starts[0], vals, masks, succ, full)
    conj_at = [[] for _ in range(n_atoms + 1)]
    todo = [len(code) - 1]          # the top-level conjuncts, maybe repeated
    while todo:
        op, x, y = code[todo[-1]]
        if op == OP_AND:
            todo[-1:] = [x, y]
        else:
            s = todo.pop()
            conj_at[bisect.bisect_right(starts, s)].append(s)
    bound = [full] * (n_atoms + 1)
    for s in conj_at[0]:
        bound[0] &= vals[s]
    if not bound[0] & want:
        return None
    pick, k = [0] * n_atoms, 0
    while k < n_atoms:
        if pick[k] == len(opts):
            if k == 0:
                return None
            pick[k] = 0
            k -= 1
            pick[k] += 1
            continue
        masks[k] = opts[pick[k]]
        oracle_run(code, starts[k], starts[k + 1], vals, masks, succ, full)
        got = bound[k]
        for s in conj_at[k + 1]:
            got &= vals[s]
        if got & want:
            bound[k + 1] = got
            k += 1
        else:
            pick[k] += 1

    def as_nodes(m):
        return frozenset(x for x in nodes if m & bit[x])
    return ({a: as_nodes(m) for a, m in zip(prog.atoms, masks)}, as_nodes(bound[n_atoms]))


def same_search(prog, frame, target=None):
    """The oracle's answer, which find_valuation must give."""
    want = oracle_find_valuation(prog, frame, target)
    assert find_valuation(prog, frame, target) == want, (prog, frame, target)
    return want


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_find_valuation_generates_no_kernel(seed):
    # random 3-atom programs on every small shape and random targets, each
    # in one packed pass; the package generates no code
    rng = random.Random(31 + seed)
    for n_rels in (1, 2):
        for n in range(1, 5):
            for g in _jtree_shapes(n, n_rels):
                for _ in range(4):
                    prog = compile_formula(_random_formula(rng, 3, n_rels, 4))
                    target = rng.sample(g.nodes, rng.randint(1, n))
                    assert find_valuation(prog, g, target) == \
                        oracle_find_valuation(prog, g, target), (prog, g, target)


def test_find_valuation_scans_a_chain_exhaustively_without_a_kernel():
    # the chain-4 scan that CI runs through verify: every one of the 4,096
    # valuations is tried, in packed passes, and none works
    chain = make_jframe(range(4), [[(i, j) for i in range(4) for j in range(4) if i < j]])
    prog = compile_formula(f("<0>(p0 & p1 & p2) & [0]~(p0 & p1 & p2)"))
    assert find_valuation(prog, chain, [0]) is None
    assert oracle_find_valuation(prog, chain, [0]) is None


def test_an_unprunable_scan_of_every_valuation_is_bounded():
    # 12 atoms on one node under one top-level disjunction: no prefix is
    # pruned, so all 4,096 valuations are tried
    one = _jtree_shapes(1, 1)[0]
    prog = compile_formula(f(" | ".join(f"(p{i} & ~p{i})" for i in range(12))))
    assert [len(t) for t in prog.tops] == [0] * 12 + [1] and len(_supports(12, 1)) == 2
    start = time.perf_counter()
    assert find_valuation(prog, one) is None
    assert time.perf_counter() - start < 2.0


def test_search_packs_once_per_atom_and_node_count():
    # the packed patterns depend on the numbers of atoms, nodes and frames
    # in a pass alone (here one pass per size): renumbered atoms share
    # them, and a formula without atoms adds one entry per size, which
    # holds its passes' rep and no pattern
    _packing.cache_clear()
    misses = []
    for text in ("<0>p0 & <1>[0]~p0", "<0>p3 & <1>[0]~p3", "<0>T & [0]F"):
        assert find_jtree_model(f(text), 4) is None
        misses.append(_packing.cache_info().misses)
    assert misses == [4, 4, 8]


def test_packed_patterns_follow_the_odometer():
    # block j of packed atom t's pattern is opts[digit t of j in base S],
    # the last atom the fastest digit, and the packed atoms are as many as
    # fit under PACK_BITS
    for n_atoms in range(1, 7):
        for n in range(1, 6):
            lead, rep, patterns, opts = _packing(n_atoms, n)
            assert opts == _supports(n_atoms, n)
            s, tail = len(opts), n_atoms - lead
            assert len(patterns) == tail and 0 <= lead <= n_atoms
            assert s ** tail * n <= jtree_module.PACK_BITS
            assert tail == n_atoms or s ** (tail + 1) * n > jtree_module.PACK_BITS
            blocks = s ** tail
            assert rep == sum(1 << j * n for j in range(blocks))
            for t, pattern in enumerate(patterns):
                assert pattern >> blocks * n == 0, (n_atoms, n, t)
                for j in range(blocks):
                    digit = j // s ** (tail - 1 - t) % s
                    assert pattern >> j * n & (1 << n) - 1 == opts[digit], (n_atoms, n, t, j)


def test_find_valuation_matches_the_oracle_on_every_small_shape():
    rng = random.Random(23)
    outcomes = set()
    for n_rels in (1, 2, 3):
        for n in range(1, 5):
            for g in _jtree_shapes(n, n_rels):
                for _ in range(6):
                    prog = compile_formula(_random_formula(rng, 3, n_rels, 3))
                    outcomes.add(same_search(prog, g) is None)
                    target = rng.sample(g.nodes, rng.randint(1, n))
                    outcomes.add(same_search(prog, g, target) is None)
    assert outcomes == {True, False}


def test_find_valuation_matches_the_oracle_past_twelve():
    # atoms x nodes > 12: each atom runs through the empty, singleton and
    # full sets, and on one node the oracle tries the singleton twice
    rng = random.Random(29)
    outcomes = set()
    # (1, 4, 8) and (2, 5, 8) run an odometer over the leading atoms and a
    # packed pass over the rest on frames of several nodes; fewer draws
    # keep the oracle's odometer short
    cases = [(1, 1, 15, 6), (2, 1, 13, 6), (1, 3, 5, 6), (2, 4, 4, 6), (3, 4, 4, 6),
             (1, 4, 8, 3), (2, 5, 8, 1)]
    assert all(_packing(n_atoms, n)[0] for _, n, n_atoms, _ in cases[-2:])
    for n_rels, n, n_atoms, draws in cases:
        for g in _jtree_shapes(n, n_rels):
            for _ in range(draws):
                # one top-level conjunct per literal, so that prefixes are pruned
                lits = [f(f"p{i}" if rng.random() < 0.5 else f"~p{i}") for i in range(n_atoms)]
                phi = And(_random_formula(rng, n_atoms, n_rels, 3), conj(lits))
                prog = compile_formula(phi)
                assert len(prog.atoms) * n > 12
                outcomes.add(same_search(prog, g) is None)
                outcomes.add(same_search(prog, g, [g.nodes[-1]]) is None)
    assert outcomes == {True, False}


def test_supports_are_duplicate_free():
    for n_atoms in range(1, 16):
        for n in range(1, 8):
            opts = _supports(n_atoms, n)
            assert len(set(opts)) == len(opts), (n_atoms, n)
            # dropping repeats keeps the first copy, so the first hit is kept
            assert opts == tuple(dict.fromkeys(oracle_supports(n_atoms, n)))


def test_find_valuation_without_atoms():
    chain = make_jframe(range(5), [[(i, j) for i in range(5) for j in range(5) if i < j]])
    for text in ("T", "F", "<0>T", "~<0>T", "<0>T & [0][0]F", "<0>T & [0]F"):
        same_search(compile_formula(f(text)), chain)
    assert find_valuation(compile_formula(f("<0>T & [0][0]F")), chain) == ({}, {3})
    assert find_valuation(compile_formula(f("<0>T & [0]F")), chain) is None
    assert find_valuation(compile_formula(f("F")), chain) is None
    # nothing holds in an empty frame or at an empty target
    for text in ("T", "p0", "<0>p0"):
        assert find_valuation(compile_formula(f(text)), JFrame((), (frozenset(),))) is None
        assert find_valuation(compile_formula(f(text)), chain, []) is None


def test_find_valuation_on_twenty_five_atoms():
    # on one node the odometer runs the leading atoms and packs the rest
    one = _jtree_shapes(1, 1)[0]
    text = " & ".join(f"p{i}" if i % 2 else f"~p{i}" for i in range(25))
    prog = compile_formula(f(text))
    assert 0 < _packing(25, 1)[0] < 25
    assert same_search(prog, one) == \
        ({i: frozenset({0} if i % 2 else ()) for i in range(25)}, frozenset({0}))
    assert same_search(compile_formula(f(text + " & p0")), one) is None


def test_find_valuation_keeps_the_frame_errors():
    chain = make_jframe(range(3), [[(0, 1), (0, 2), (1, 2)]])
    with pytest.raises(IndexOutOfRange):
        find_valuation(compile_formula(f("<0>p0 & <1>T")), chain)
    stray = JFrame((0,), (frozenset({(0, 1)}),))
    for _ in range(2):  # a failed memo is not cached
        with pytest.raises(LogicError, match="leaves the frame"):
            find_valuation(compile_formula(f("<0>p0")), stray)


# --- J-trees validate the provability axioms ---------------------------------------


def test_jtrees_validate_axioms():
    # The frame conditions validate distribution, Lob, stability
    # <m>p -> [n]<m>p, and the two schemata [m]p -> [n][m]p and
    # [m]p -> [m][n]p.  Monotonicity [m]p -> [n]p is NOT frame-valid
    # (relational semantics is strictly weaker than the topological one);
    # see the counterexample test below.
    rng = random.Random(13)
    frames = [JFrame(tuple(range(3)), rels)
              for rels in itertools.islice(helpers.jtree_rels(tuple(range(3)), 2), 40)]
    frames += [JFrame(tuple(range(4)), rels)
               for rels in itertools.islice(helpers.jtree_rels(tuple(range(4)), 2), 40)]
    extra = [("[0]p0 -> [1][0]p0", f("[0]p0 -> [1][0]p0")),
             ("[0]p0 -> [0][1]p0", f("[0]p0 -> [0][1]p0"))]
    for g in frames:
        assert root_of(g) == 0
        nodes = frozenset(g.nodes)
        for _ in range(3):
            v = {i: frozenset(x for x in g.nodes if rng.random() < 0.5)
                 for i in range(2)}
            phi = _random_formula(rng, 2, 2, 2)
            psi = _random_formula(rng, 2, 2, 2)
            for name, inst in _schema_instances(2, phi, psi):
                if name.startswith("(iii)"):
                    continue
                assert eval_kripke(inst, g, v) == nodes, (name, g)
            for name, inst in extra:
                assert eval_kripke(inst, g, v) == nodes, (name, g)


def test_monotonicity_fails_on_some_jtree():
    g = JFrame((0, 1), (frozenset(), frozenset({(0, 1)})))
    assert root_of(g) == 0
    got = eval_kripke(f("[0]p0 -> [1]p0"), g, {0: frozenset()})
    assert got != frozenset(g.nodes)


# --- map condition checking ---------------------------------------------------------


class TableMap:
    """Test stub: a finite (node, BandSet) table."""

    def __init__(self, table):
        self.table = table

    def apply(self, x):
        for node, s in self.table:
            if member(x, s):
                return node
        raise ValueError(f"{x} outside the table")

    def preimage(self, nodes):
        nodes = set(nodes)
        out = EMPTY
        for node, s in self.table:
            if node in nodes:
                out = union(out, s)
        return out


def test_jmap_check_single_node():
    t = frame("r")
    fm = TableMap([("r", interval(ONE, ONE))])
    rep = jmap_check(fm, PolySpace(ONE, (ONE,)), t)
    assert rep.ok, str(rep)


def test_jmap_check_two_chain():
    t = frame("ra", [("r", "a")])
    fm = TableMap([("a", parse_bandset("[1,w] & l in (-1,0]")),
                   ("r", interval(OMEGA, OMEGA))])
    rep = jmap_check(fm, PolySpace(OMEGA, (ONE,)), t)
    assert rep.ok, str(rep)


def test_jmap_check_broken_map():
    t = frame("ra", [("r", "a")])
    fm = TableMap([("r", parse_bandset("[1,w] & l in (-1,0]")),
                   ("a", interval(OMEGA, OMEGA))])
    rep = jmap_check(fm, PolySpace(OMEGA, (ONE,)), t)
    assert not rep.ok
    assert any(name.startswith("(j1)") and not ok
               for name, _, ok, _ in rep.checks)


def test_jmap_check_open_map_is_exact():
    # the isolated point 1 maps to r, so the open set {1} has the image {r},
    # which is not closed under R_0; a check on sampled generator bands
    # passes this map, as none of them isolates 1
    t = frame("ra", [("r", "a")], [])
    fm = TableMap([("r", interval(ONE, ONE)), ("a", interval(o("2"), OMEGA))])
    rep = jmap_check(fm, PolySpace(OMEGA, (ONE, o("2"))), t)
    assert [(name, ok, detail) for name, _, ok, detail in rep.checks if not ok] \
        == [("(j2) openness", False, "level 0, node 'a'")]
    assert ("(j2) openness", "EXACT", False, "level 0, node 'a'") in rep.checks


def test_frame_rank():
    t = frame("rab", [("r", "a"), ("r", "b"), ("a", "b")])
    assert frame_ranks(t, 0) == {"b": 0, "a": 1, "r": 2}


# --- serialization -------------------------------------------------------------------


def test_json_round_trip():
    blob = jframe_to_json(MIXED)
    back = jframe_from_json(blob)
    assert tuple(back.nodes) == tuple(MIXED.nodes)
    assert back.rels == MIXED.rels
    with pytest.raises(InvalidFrame):
        jframe_from_json({"nodes": ["a"], "rels": [[["a", "b"]]]})
    with pytest.raises(InvalidFrame):
        jframe_from_json({"nodes": ["a"]})


@pytest.mark.parametrize("obj", [
    [{"nodes": ["a"], "rels": []}],
    {"nodes": [["a"]], "rels": []},
    {"nodes": ["a", "b"], "rels": [[[["a"], "b"]]]},
    {"nodes": ["a"], "rels": 3},
])
def test_json_malformed_frames_rejected(obj):
    with pytest.raises(InvalidFrame):
        jframe_from_json(obj)
