"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from ordtopo.ordinal import (
    Ordinal,
    ZERO,
    OMEGA,
    add,
    compare,
    multiply,
    normalize,
    omega_pow,
)


# --- dense-polynomial oracle ------------------------------------------------
# Ordinals below w^D are lists of coefficients [c0, c1, ..., c_{D-1}] for
# w^0*c0 + w^1*c1 + ...  The arithmetic below is written from the textbook
# rules against this unrelated representation, so it cross-checks the CNF
# tree code rather than mirroring it.

POLY_DEG = 16


def poly_of(o: Ordinal):
    cs = [0] * POLY_DEG
    for e_, c in o.terms:
        assert e_.is_finite(), "poly oracle needs finite exponents"
        cs[e_.to_int()] = c
    return cs


def poly_to_ordinal(cs) -> Ordinal:
    return normalize(
        (Ordinal.from_int(k), c) for k, c in sorted(enumerate(cs), reverse=True)
    )


def poly_deg(p):
    for k in range(POLY_DEG - 1, -1, -1):
        if p[k]:
            return k
    return -1  # zero


def poly_cmp(p, q):
    for k in range(POLY_DEG - 1, -1, -1):
        if p[k] != q[k]:
            return -1 if p[k] < q[k] else 1
    return 0


def poly_add(p, q):
    dq = poly_deg(q)
    if dq < 0:
        return list(p)
    out = [0] * POLY_DEG
    out[dq] = p[dq] + q[dq]
    for k in range(dq + 1, POLY_DEG):
        out[k] = p[k]
    for k in range(dq - 1, -1, -1):
        out[k] = q[k]
    return out


def poly_mul(p, q):
    dp = poly_deg(p)
    if dp < 0 or poly_deg(q) < 0:
        return [0] * POLY_DEG
    out = [0] * POLY_DEG
    # p * w^k*c = w^(dp+k)*c for k > 0; p * c clobbers only the lead term
    acc = [0] * POLY_DEG
    for k in range(POLY_DEG - 1, 0, -1):
        if q[k]:
            term = [0] * POLY_DEG
            term[dp + k] = q[k]
            acc = poly_add(acc, term)
    if q[0]:
        term = list(p)
        term[dp] = p[dp] * q[0]
        acc = poly_add(acc, term)
    return acc


# --- random generators ------------------------------------------------------


def random_poly_ordinal(rng: random.Random, max_deg=5, max_coeff=6) -> Ordinal:
    cs = [0] * POLY_DEG
    for _ in range(rng.randint(0, 4)):
        cs[rng.randint(0, max_deg)] = rng.randint(0, max_coeff)
    return poly_to_ordinal(cs)


def random_ordinal(rng: random.Random, depth=3, max_coeff=5) -> Ordinal:
    """Random CNF term with nested exponents."""
    if depth == 0 or rng.random() < 0.3:
        return Ordinal.from_int(rng.randint(0, max_coeff))
    acc = ZERO
    for _ in range(rng.randint(1, 3)):
        exp = random_ordinal(rng, depth - 1, max_coeff)
        acc = add(acc, multiply(omega_pow(exp), Ordinal.from_int(rng.randint(1, max_coeff))))
    return acc


# --- finite universe and brute-force accumulation oracle ---------------------
# The universe is every ordinal <= w^3 with CNF coefficients <= 4.  The oracle
# works on an integer encoding of the polynomial w^2*a + w*b + c (plus a
# sentinel for w^3 itself), so it shares no code with the band solver.

_W3KEY = 10**6


def finite_universe(max_coeff=4):
    from ordtopo.ordinal import parse_ordinal

    out = [parse_ordinal("w^3")]
    w2, w1 = parse_ordinal("w^2"), OMEGA
    for a in range(max_coeff + 1):
        for b in range(max_coeff + 1):
            for c in range(max_coeff + 1):
                if a or b or c:
                    out.append(add(add(multiply(w2, Ordinal.from_int(a)),
                                       multiply(w1, Ordinal.from_int(b))),
                                   Ordinal.from_int(c)))
    return out


def enc(o: Ordinal) -> int:
    """Order-preserving integer key for ordinals <= w^3 with coefficients < 100."""
    abc = [0, 0, 0]
    for e_, c in o.terms:
        k = e_.to_int()
        if k == 3:
            return _W3KEY
        abc[k] = c
    return abc[2] * 10**4 + abc[1] * 10**2 + abc[0]


def _lkey(k: int) -> int:
    """End-logarithm on encoded values (0 is a fixed point)."""
    if k == _W3KEY:
        return 3
    if k % 100:
        return 0
    if (k // 100) % 100:
        return 1
    return 2 if k else 0


def _lev(k: int, xi: int) -> int:
    for _ in range(xi):
        k = _lkey(k)
    return k


def encode_bandset(s):
    out = []
    for b in s.bands:
        cons = [(k, -1 if c is None else enc(c), None if d is None else enc(d))
                for k, c, d in b.cons]
        out.append((enc(b.lo), enc(b.hi), cons))
    return out


# every candidate witness: ordinals <= w^3 with coefficients <= 9, as the
# tuple of encoded l-iterates (y, ly, l2y, l3y)
_YTABLE = None


def _ytable():
    global _YTABLE
    if _YTABLE is None:
        keys = [_W3KEY] + [
            a * 10**4 + b * 10**2 + c
            for a in range(10) for b in range(10) for c in range(10)
            if a or b or c
        ]
        _YTABLE = [(k, _lkey(k), _lev(k, 2), _lev(k, 3)) for k in keys]
    return _YTABLE


_UKEYS = None


def _ukeys():
    global _UKEYS
    if _UKEYS is None:
        _UKEYS = sorted({enc(u) for u in finite_universe()} | {0, -1})
    return _UKEYS


def _enc_member(yk, s_enc) -> bool:
    """Whether the _ytable() entry yk lies in the encoded band set s_enc."""
    return any(lo <= yk[0] <= hi and all(c < yk[k] <= (10**9 if d is None else d)
                                         for k, c, d in cons)
               for lo, hi, cons in s_enc)


def oracle_member_of_derived(x: Ordinal, s_enc, lam: int) -> bool:
    """Brute-force accumulation test: thresholds from the finite universe.

    x is a limit of s in I_lam iff the tightest basic neighborhood
    {y: c_xi < l^xi(y) <= l^xi(x)} with thresholds c_xi drawn from the
    universe still meets s away from x (tightening c_xi only shrinks it,
    so only the maximal threshold vector matters).
    """
    import bisect

    xk = enc(x)
    tx = [_lev(xk, xi) for xi in range(lam)]
    uk = _ukeys()
    cs = []
    for xi in range(lam):
        i = bisect.bisect_left(uk, tx[xi])
        cs.append(uk[i - 1])  # largest universe key strictly below l^xi(x)

    for yk in _ytable():
        if yk[0] == xk:
            continue
        if (all(cs[xi] < yk[xi] <= tx[xi] for xi in range(lam))
                and _enc_member(yk, s_enc)):
            return True
    return False


def random_bandset_u(rng: random.Random, universe, max_bands=3, max_level=3):
    """Random BandSet with endpoints in the universe and small level bounds."""
    from ordtopo.topology import bandset, make_band

    bands = []
    for _ in range(rng.randint(1, max_bands)):
        lo, hi = sorted(rng.sample(universe, 2))
        cons = {}
        for k in range(1, max_level + 1):
            if rng.random() < 0.4:
                c = rng.choice([None, 0, 1, 2, 3])
                d = rng.choice([None, 0, 1, 2, 3])
                cons[k] = (None if c is None else Ordinal.from_int(c),
                           None if d is None else Ordinal.from_int(d))
        bands.append(make_band(lo, hi, cons))
    return bandset(bands)


def oracle_subset_of(s, t, theta: Ordinal) -> bool:
    """s <= t on [1, theta], checked at every _ytable() point up to theta."""
    s_enc, t_enc, top = encode_bandset(s), encode_bandset(t), enc(theta)
    return all(_enc_member(yk, t_enc) for yk in _ytable()
               if yk[0] <= top and _enc_member(yk, s_enc))


def oracle_sets_equal(s, t, theta: Ordinal) -> bool:
    return oracle_subset_of(s, t, theta) and oracle_subset_of(t, s, theta)


def ell_preimage(a, theta: Ordinal):
    """Preimage of a codomain BandSet under l: [1, theta] -> [0, L(theta)]."""
    from ordtopo.topology import (
        EMPTY, geq_set, merge_bound, bandset, intersect, make_band, union,
    )
    from ordtopo.ordinal import ONE

    out = EMPTY
    for b in a.bands:
        cons = {k + 1: (c, d) for k, c, d in b.cons}
        cons[1] = merge_bound(cons.get(1, (None, None)), (None, b.hi))
        part = bandset([make_band(ONE, theta, cons)])
        if not b.lo.is_zero():
            part = intersect(part, geq_set(1, b.lo, theta))
        out = union(out, part)
    return out


def memos():
    """The package's memoised functions, for tests that inspect or clear them."""
    from ordtopo import cli, embed, jtree, logic, topology

    return (cli._build_parser, topology._make_band_memo, topology._band_complement,
            topology.intersect, topology.complement_within, topology.subset_of,
            topology.sets_equal, topology.derived_set,
            embed._ell_iter_preimage, embed._otyp_up_preimage,
            embed._pi0_preimage,
            logic.endpoint_pool, logic._build, jtree._preds, jtree._packing,
            jtree._passes)


def clear_memos():
    for fn in memos():
        fn.cache_clear()


# --- small Kripke frames ------------------------------------------------------

from collections import namedtuple

KFrame = namedtuple("KFrame", "nodes rels")


def transitive_closure(pairs):
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def all_trees(max_nodes):
    """All rooted trees on 0..n-1 (0 the root) as (frame, root) with the
    transitive strict order as the single relation."""
    out = []
    for n in range(1, max_nodes + 1):
        def gen(parents):
            i = len(parents) + 1
            if i >= n:
                edges = [(p, k + 1) for k, p in enumerate(parents)]
                rel = transitive_closure(edges)
                out.append((KFrame(tuple(range(n)), (rel,)), 0))
                return
            for p in range(i):
                gen(parents + [p])
        gen([])
    return out


# --- every labelled treelike frame ---------------------------------------------
# The search's frame table used to be built from these: every labelled frame,
# keyed by shape, the first of each key kept.  They are now the oracle that
# the table, generated from the shape grammar, is checked against.


def partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def block_trees(b: int):
    """Parent arrays (parent of block i is parents[i-1] < i) for rooted trees."""
    if b == 1:
        yield []
        return
    for rest in block_trees(b - 1):
        for p in range(b - 1):
            yield rest + [p]


def jtree_rels(nodes, n_mods: int):
    """All relation tuples making the nodes a connected treelike frame.

    Recursive: a treelike frame on n relations is a rooted tree of blocks,
    each block a treelike frame on the remaining n-1 relations, with R_0
    running uniformly from ancestor blocks to descendant blocks.
    """
    if n_mods == 0:
        if len(nodes) == 1:
            yield ()
        return
    for part in partitions(list(nodes)):
        blocks = sorted(sorted(p) for p in part)
        inner = [list(jtree_rels(tuple(bl), n_mods - 1)) for bl in blocks]
        if any(not c for c in inner):
            continue
        for parents in block_trees(len(blocks)):
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


def shape_key(nodes, rels, k: int = 0) -> tuple:
    """The shape of a component of a treelike frame at level k, in the
    style of the Aho-Hopcroft-Ullman tree encoding: (the key of its root
    plane at level k+1, the sorted keys of its child components at level
    k); () for a node past the last level.  By JTree.split's lemma, R_k runs
    from each node of the root plane to each node of the rest, the higher
    relations stay inside (k+1)-planes, and no edge joins two child
    components; so two components have equal keys iff they are isomorphic,
    and no permutation of the nodes is tried."""
    from ordtopo.jtree import _split

    if k == len(rels):
        return ()
    alpha, rest = _split(nodes, rels[k:])
    return (shape_key(alpha, rels, k + 1),
            tuple(sorted(shape_key(c, rels, k) for c in rest)))


def first_of_each_shape(n: int, n_mods: int):
    """The first frame of each shape on the nodes 0..n-1 in jtree_rels
    order: the search's frame table before it was generated."""
    from ordtopo.jtree import JFrame

    nodes = tuple(range(n))
    firsts = {}
    for rels in jtree_rels(nodes, n_mods):
        firsts.setdefault(shape_key(nodes, rels), rels)
    return [JFrame(nodes, rels) for rels in firsts.values()]


def kripke_oracle(phi, frame, v):
    """The nodes of frame where phi holds under v, from the set definitions
    <k>A = {a : some b with a R_k b is in A} and [k]A = ~<k>~A."""
    from ordtopo.logic import And, Bot, Box, Dia, Implies, Not, Or, Top, Var

    nodes = frozenset(frame.nodes)

    def sem(f):
        if isinstance(f, Var):
            return frozenset(v[f.index])
        if isinstance(f, (Top, Bot)):
            return nodes if isinstance(f, Top) else frozenset()
        if isinstance(f, Not):
            return nodes - sem(f.body)
        if isinstance(f, (And, Or, Implies)):
            a, b = sem(f.left), sem(f.right)
            return a & b if isinstance(f, And) else \
                a | b if isinstance(f, Or) else (nodes - a) | b
        rel = frame.rels[f.index.to_int()]
        body = sem(f.body) if isinstance(f, Dia) else nodes - sem(f.body)
        dia = frozenset(a for a in nodes if any((a, b) in rel for b in body))
        return dia if isinstance(f, Dia) else nodes - dia

    return sem(phi)


# --- the census of small formulas ----------------------------------------------


def formulas_upto(size: int, n_mods: int):
    """Every formula over p0, T, ~, & and <0>..<n_mods-1> with at most size
    symbols, condensed, one per text (the first by size): a list of
    (formula, its condensed indices)."""
    from ordtopo.logic import TOP, And, Dia, Not, Var, condense, formula_to_text
    from ordtopo.ordinal import Ordinal

    rows = [[], [Var(0), TOP]]  # rows[s]: the formulas of s symbols
    for s in range(2, size + 1):
        rows.append([Not(a) for a in rows[s - 1]]
                    + [Dia(Ordinal.from_int(k), a) for k in range(n_mods) for a in rows[s - 1]]
                    + [And(a, b) for i in range(1, s - 1)
                       for a in rows[i] for b in rows[s - 1 - i]])
    out = {}
    for phi in itertools.chain(*rows):
        condensed = condense(phi)
        out.setdefault(formula_to_text(condensed[0]), condensed)
    return list(out.values())


def census(size: int) -> dict:
    """Each of formulas_upto(size, 2) through the search workload's chain:
    find_jtree_model(phi, 5), embed at sigma = 1 + the condensed indices and
    verify_countermodel with the search valuation.  Counts of 'exact'
    (PASS, every row EXACT), 'partial' (PASS, some row not) and 'unknown'
    (no model); the texts of each FAIL only at stage (c) ('fail') and of
    every other FAIL ('other')."""
    from ordtopo.embed import embed, verify_countermodel
    from ordtopo.jtree import find_jtree_model
    from ordtopo.logic import formula_to_text

    table = {"formulas": 0, "exact": 0, "partial": 0, "unknown": 0, "fail": [], "other": []}
    for phi, idxs in formulas_upto(size, 2):
        table["formulas"] += 1
        res = find_jtree_model(phi, 5)
        if res is None:
            table["unknown"] += 1
            continue
        cm = embed(res.frame, tuple(1 + i.to_int() for i in idxs))
        rep = verify_countermodel(cm, phi, t_val=res.valuation)
        bad = [name for name, _, ok, _ in rep.checks if not ok]
        if not bad:
            exact = all(mode == "EXACT" for _, mode, _, _ in rep.checks)
            table["exact" if exact else "partial"] += 1
        else:
            stage_c = all(name.startswith("(c)") for name in bad)
            table["fail" if stage_c else "other"].append(formula_to_text(phi))
    return table


# --- the map check -------------------------------------------------------------


def j1_failures(fmap, space, t):
    """Reference for (j1) at the top level: every node set A, by size, for
    which fmap has band preimages of A and <>A and f^{-1}(<>A) differs from
    d_lam f^{-1}(A).  It asks fmap for all 2^n subsets, as the map check
    did before it read preimages from a block table."""
    from ordtopo.topology import NotRepresentable, derived_set, sets_equal

    top = len(t.rels) - 1
    lam = space.level_at(Ordinal.from_int(top))
    out = []
    for r in range(len(t.nodes) + 1):
        for a in itertools.combinations(t.nodes, r):
            dia = frozenset(x for x, y in t.rels[top] if y in a)
            try:
                lhs, pa = fmap.preimage(dia), fmap.preimage(a)
            except NotRepresentable:
                continue
            if not sets_equal(lhs, derived_set(pa, lam, space.theta), space.theta):
                out.append(frozenset(a))
    return out


class Mutant:
    """fmap with the fibers of the nodes in swap exchanged (swap maps each
    to its partner) and, when x is given, the point x moved to node `to`."""

    def __init__(self, fmap, swap=(), x=None, to=None):
        self.fmap, self.swap, self.x, self.to = fmap, dict(swap), x, to
        self.theta = fmap.theta

    def apply(self, p):
        if p == self.x:
            return self.to
        y = self.fmap.apply(p)
        return self.swap.get(y, y)

    def preimage(self, nodes):
        from ordtopo.ordinal import ONE
        from ordtopo.topology import complement_within, intersect, interval, union

        nodes = set(nodes)
        out = self.fmap.preimage([self.swap.get(y, y) for y in nodes])
        if self.x is None:
            return out
        pt = interval(self.x, self.x)
        if self.to in nodes:
            return union(out, pt)
        return intersect(out, complement_within(pt, ONE, self.theta))


class Counting:
    """fmap, counting its preimage calls."""

    def __init__(self, fmap):
        self.fmap, self.theta, self.calls = fmap, fmap.theta, 0

    def apply(self, p):
        return self.fmap.apply(p)

    def preimage(self, nodes):
        self.calls += 1
        return self.fmap.preimage(nodes)


@st.composite
def ordinals(draw, max_depth=3, max_terms=3, max_coeff=5):
    if max_depth == 0:
        return Ordinal.from_int(draw(st.integers(0, max_coeff)))
    n = draw(st.integers(0, max_terms))
    raw = []
    for _ in range(n):
        exp = draw(ordinals(max_depth=max_depth - 1, max_terms=2, max_coeff=3))
        raw.append((exp, draw(st.integers(1, max_coeff))))
    return normalize(raw)


def positive_ordinals(**kw):
    return ordinals(**kw).filter(lambda o: not o.is_zero())
