"""Constructive countermodels over ordinal intervals.

The models lay copies of smaller intervals end to end, repeated with a
period; a Tiling is one such layout, and the only code that sums
segment lengths or divides by a period.  gl_embed builds the classical
rank map from [1, w^h] onto a finite single-relation tree (root at the
top, children repeating along the tiles of their thetas).  product
assembles the two-projection structure: pi1 sends the upper part onto
[1, lam] by order type, and pi0 each cell (a tile) of the lower part onto
the tiles of the kappas, where a product map runs the child maps.  embed
checks a frame once (jtree.as_jtree), recurses over the JTree's split
and a modality sequence sigma, and produces a node map
f: [1, Theta] -> T with f(Theta) = root.  The map carries its Theta
and its witness table (a point of each fiber, certifying surjectivity);
embed reads both off it and adds the fiber algebra (band preimages
where they exist).  The ordinal-valued steps inside a map, l^delta and
the product's projections pi0 and pi1, are functions and methods whose
preimages are memoised by value.

Fibers of branching trees are genuinely periodic (every other block,
say) and fall outside the band algebra; preimage calls on such sets
raise NotRepresentable.  verify_countermodel runs one map check,
jmap_check, on every model; it finds the missing fibers from fmap,
not from the stored algebra, and reports the (j1)-(j4) rows that need
them as SKIPPED or EXACT-WHERE-DEFINED.  Stage (c) then reads theta's
truth off the tree a rank map (or a liter lift of one) is built over, at
f(theta), which the d-map law makes exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .ordinal import (
    DEPTH_CAP,
    MAX_NESTING,
    ONE,
    ZERO,
    DepthExceeded,
    Ordinal,
    OrdinalError,
    add,
    big_l,
    e_iter,
    ell_iter,
    left_subtract,
    multiply,
    omega_pow,
    ordinal_to_text,
    parse_ordinal,
)
from .topology import (
    EMPTY,
    MEMO_SIZE,
    BandSet,
    NotRepresentable,
    TopologyError,
    bandset,
    bandset_to_text,
    complement_within,
    derived_set,
    geq_set,
    intersect,
    interval,
    is_empty,
    is_open,
    make_band,
    member,
    merge_bound,
    min_witness,
    parse_bandset,
    sets_equal,
    subset_of,
    trim_last,
    union,
)
from .logic import (
    PolySpace,
    compile_formula,
    eval_kripke,
    eval_topo,
)
from .jtree import (
    InvalidFrame,
    JFrame,
    JTree,
    NODE_LIST,
    as_jtree,
    find_valuation,
    frame_dia,
    frame_ranks,
    is_node_id,
    jframe_from_json,
    jframe_to_json,
    whole_slice,
)


class EmbedError(Exception):
    pass


class EmptyTree(EmbedError):
    pass


class NotAJTree(EmbedError):
    pass


class UnsupportedSigma(EmbedError):
    pass


# --- ordinal helpers ---------------------------------------------------------------


def _nat(n: int) -> Ordinal:
    return Ordinal.from_int(n)


def _span(c: Ordinal) -> Ordinal:
    """-1 + c: the length of the half-open copy (0, c] shifted to start at 0."""
    return left_subtract(ONE, c)


def _ord_divmod(x: Ordinal, p: Ordinal) -> Tuple[int, Ordinal]:
    """(q, rem) with x = p*q + rem and rem < p; the quotient must be finite."""
    if p.is_zero():
        raise ValueError("division by zero")
    if x < p:
        return 0, x
    (lp, cp), (lx, cx) = p.terms[0], x.terms[0]
    if lx != lp:
        raise EmbedError(f"{x} / {p}: infinite quotient")
    q = cx // cp  # p*q = w^lp * (cp*q) + p's tail: only the tail can pass x
    pq = multiply(p, _nat(q))
    if pq > x:
        q, pq = q - 1, multiply(p, _nat(q - 1))
    return q, left_subtract(pq, x)


class Tiling:
    """Segments of the given lengths laid end to end, repeated with a period.

    With prefix sums P_0 = 0, P_{i+1} = P_i + L_i and period p = P_m, tile
    (q, i) is the half-open interval (p*q + P_i, p*q + P_{i+1}]; the tiles
    cover every x >= 1 below the first infinite multiple of p."""

    def __init__(self, lengths):
        pre = [ZERO]
        for n in lengths:
            pre.append(add(pre[-1], n))
        self.prefix = tuple(pre)
        self.period = pre[-1]

    def start(self, q: int, i: int) -> Ordinal:
        return add(multiply(self.period, _nat(q)), self.prefix[i])

    def locate(self, x: Ordinal) -> Tuple[int, int, Ordinal]:
        """(q, i, offset) with x = start(q, i) + offset, 0 < offset <= L_i;
        x >= 1.  A zero remainder is the last tile of the previous period."""
        q, rem = _ord_divmod(x, self.period)
        if rem.is_zero():
            q, rem = q - 1, self.period
        i = bisect_left(self.prefix, rem) - 1
        return q, i, left_subtract(self.prefix[i], rem)


def _split_at(x: Ordinal, xi: Ordinal) -> Tuple[Ordinal, Ordinal]:
    """x = w^xi * gamma + u with u < w^xi; returns (gamma, u)."""
    hi = tuple((left_subtract(xi, e_), c) for e_, c in x.terms if e_ >= xi)
    lo = tuple((e_, c) for e_, c in x.terms if e_ < xi)
    return Ordinal(hi), Ordinal(lo)


def _in_domain(x: Ordinal, theta: Ordinal) -> None:
    if not ONE <= x <= theta:
        raise ValueError(f"{x} outside [1, {theta}]")


def _shift(s: BandSet, g: Ordinal) -> BandSet:
    """Left-translate a band set by g; l^k is invariant on positive offsets."""
    return bandset(
        make_band(add(g, b.lo), add(g, b.hi), b.cons_dict()) for b in s.bands
    )


# --- memoised preimages of l^delta, pi0 and pi1 ------------------------------------

# Each preimage is a pure function of the values its body reads, so it is
# memoised by value: verify reads the fibers that embed, or the JSON
# reader, computed for an equal map.  An exception such as
# NotRepresentable is never memoised.


def _liter(delta: int, x: Ordinal) -> Ordinal:
    """l^delta(x), floored to 1 when the orbit hits 0."""
    v = ell_iter(_nat(delta), x)
    return ONE if v.is_zero() else v


@lru_cache(maxsize=MEMO_SIZE)
def _ell_iter_preimage(delta: int, theta: Ordinal, s: BandSet) -> BandSet:
    """The points of [1, theta] that _liter(delta, .) sends into s."""
    if delta == 0:
        return intersect(s, interval(ONE, theta))
    out = EMPTY
    for b in s.bands:
        cons = {delta + k: (c, d) for k, c, d in b.cons}
        cons[delta] = merge_bound(cons.get(delta, (None, None)), (None, b.hi))
        part = bandset([make_band(ONE, theta, cons)])
        if not b.lo.is_zero():
            part = intersect(part, geq_set(delta, b.lo, theta))
        if b.member(ONE):
            # the floor: points whose l^delta collapses to 0 land on 1
            part = union(
                part,
                bandset([make_band(ONE, theta, {delta: (None, ZERO)})]),
            )
        out = union(out, part)
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _otyp_up_preimage(xi: Ordinal, theta: Ordinal, s: BandSet) -> BandSet:
    w = omega_pow(xi)
    out = EMPTY
    for b in s.bands:
        lo, hi = multiply(w, b.lo), multiply(w, b.hi)
        if all(c is None for _, c, _ in b.cons):
            # successor gammas: exactly the points with l x = xi
            succ = intersect(
                bandset([make_band(lo, hi, {1: (None, xi)})]),
                geq_set(1, xi, theta),
            )
            out = union(out, succ)
        # limit gammas: l x = xi + l gamma, deeper logarithms agree
        c1, d1 = next(((c, d) for k, c, d in b.cons if k == 1), (None, None))
        cons = {k: (c, d) for k, c, d in b.cons if k >= 2}
        cons[1] = (xi if c1 is None else add(xi, c1),
                   None if d1 is None else add(xi, d1))
        out = union(out, bandset([make_band(lo, hi, cons)]))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _pi0_preimage(kappa: Ordinal, theta: Ordinal, x_down: BandSet,
                  s: BandSet) -> BandSet:
    widened = bandset(make_band(ONE, kappa, b.cons_dict()) for b in s.bands)
    if not sets_equal(s, widened, kappa):
        raise NotRepresentable(
            f"{bandset_to_text(s)} is position-dependent on [1,"
            f"{ordinal_to_text(kappa)}]")
    lifted = bandset(make_band(ONE, theta, b.cons_dict()) for b in s.bands)
    return intersect(x_down, lifted)


# --- the product: its cell layout and projections -----------------------------------


class ProductStructure:
    """[1, w^xi * lam] split into the upper part x_up, the multiples of
    w^xi, and the lower part x_down, which cells tile in each block: cell
    iota = m*q + j, a copy of [1, kappa_m] then one of [1, kappa_res(iota)]
    of length delta_j, is [1 + s, 1 + s + delta_j) for the tile
    (s, s + delta_j] at s = tiles.start(q, j).  So the cell holding u is
    the tile holding (-1 + u) + 1; pi0 sends it onto segments' tiles."""

    def __init__(self, kappas, lam: Ordinal):
        kappas = tuple(kappas)
        if not kappas or any(k < ONE for k in kappas) or lam < ONE:
            raise EmbedError("product needs kappas and lambda >= 1")
        if any(b < a for a, b in zip(kappas, kappas[1:])):
            raise EmbedError("kappas must be sorted ascending")
        self.kappas, self.lam, self.m = kappas, lam, len(kappas)
        self.xi = add(big_l(kappas[-1]), ONE)
        self.w = omega_pow(self.xi)
        self.theta = multiply(self.w, lam)
        self.span0 = _span(kappas[-1])
        self.segments = Tiling(kappas)  # the kappas side by side
        self.markers = self.segments.prefix[1:]  # K_1, ..., K_m
        self.tiles = Tiling(add(add(add(self.span0, ONE), _span(k)), ONE)
                            for k in kappas[-1:] + kappas[:-1])  # kappa_res(j), j < m
        self.x_up = geq_set(1, self.xi, self.theta)
        self.x_down = complement_within(self.x_up, ONE, self.theta)

    @cached_property
    def s_set(self) -> BandSet:
        """The paper's set S: the isolated points of the upper part over
        limit stages of [1, lam].  Computed on first read."""
        d1 = derived_set(interval(ONE, self.lam), 1, self.lam)
        isolated = intersect(self.x_up, complement_within(
            derived_set(self.x_up, 1, self.theta), ONE, self.theta))
        return intersect(isolated, self.pi1_preimage(d1))

    def res(self, iota: int) -> int:
        return (iota - 1) % self.m + 1

    def alpha(self, iota: int) -> Ordinal:
        return add(ONE, self.tiles.start(*divmod(iota, self.m)))

    def beta(self, iota: int) -> Ordinal:
        return trim_last(self.alpha(iota + 1))  # delta_j ends in + 1

    def locate(self, u: Ordinal) -> Tuple[int, Ordinal, Ordinal]:
        """Cell index and bounds for a base-block offset u in [1, w^xi)."""
        q, j, _ = self.tiles.locate(add(_span(u), ONE))
        iota = self.m * q + j
        return iota, self.alpha(iota), self.beta(iota)

    def cell(self, iota: int, gamma: Ordinal = ZERO) -> Tuple[Ordinal, Ordinal]:
        base = multiply(self.w, gamma)
        return add(base, self.alpha(iota)), add(base, self.beta(iota))

    def pi0(self, x: Ordinal) -> Ordinal:
        """Collapse every cell of the lower part onto [1, kappa_1+...+kappa_m]."""
        _, u = _split_at(x, self.xi)
        if u.is_zero():
            raise ValueError(f"{x} is not in the lower part")
        iota, a, _ = self.locate(u)
        t = left_subtract(a, u)
        if t <= self.span0:
            return add(ONE, t)
        s = left_subtract(add(self.span0, ONE), t)
        return add(add(self.segments.prefix[self.res(iota) - 1], ONE), s)

    def pi0_preimage(self, s: BandSet) -> BandSet:
        """Exact when s does not depend on the position inside [1, kappa]:
        the projection preserves every l^k pointwise, so position-free sets
        pull back to their own l-constraints over the lower part."""
        return _pi0_preimage(self.segments.period, self.theta, self.x_down, s)

    def pi1(self, x: Ordinal) -> Ordinal:
        """w^xi * gamma -> gamma: the order type of the upper part below x."""
        gamma, u = _split_at(x, self.xi)
        if not u.is_zero() or gamma.is_zero():
            raise ValueError(f"{x} is not in the upper part")
        return gamma

    def pi1_preimage(self, s: BandSet) -> BandSet:
        return _otyp_up_preimage(self.xi, self.theta, s)


product = ProductStructure


def density_witness(prod: ProductStructure, i: int, u: Ordinal,
                    v: Ordinal) -> Ordinal:
    """A point x in (v, u) with pi0(x) = the i-th marker, witnessing that
    marker preimages accumulate at every point u of the upper part."""
    gamma = prod.pi1(u)
    if not v < u:
        raise ValueError("empty neighborhood")
    vg, voff = _split_at(v, prod.xi)
    if gamma.is_successor():
        g = trim_last(gamma)  # the block just below u
    else:
        g = add(vg, ONE)  # gamma is a limit: some block strictly past v
    base = multiply(prod.w, g)
    off_lo = voff if g == vg else ZERO
    q_off = 0 if off_lo.is_zero() else prod.tiles.locate(off_lo)[0]
    j = i % prod.m
    for q in (q_off, q_off + 1, q_off + 2):
        iota = prod.m * q + j
        beta = prod.beta(iota)
        if off_lo < beta:
            x = add(base, beta)
            if not v < x < u:
                raise EmbedError(f"cell top {x} is outside ({v}, {u})")
            return x
    raise EmbedError("no cell top found past the offset")


# --- node maps ------------------------------------------------------------------------

# A node map f: [1, theta] -> T carries theta, apply(x), preimage(nodes)
# (a band set, or NotRepresentable), to_json(), nesting (how deep map
# objects nest in to_json(), as _map_from_json counts) and witnesses():
# one point of each node's fiber, certifying surjectivity.


class ConstMap:
    def __init__(self, node, theta: Ordinal):
        self.node = node
        self.theta = theta
        self.nesting = 0

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        return self.node

    def preimage(self, nodes) -> BandSet:
        return interval(ONE, self.theta) if self.node in set(nodes) else EMPTY

    def witnesses(self) -> Dict:
        return {self.node: self.theta}

    def to_json(self):
        return {"map": "const", "node": self.node,
                "theta": ordinal_to_text(self.theta)}


class ComposeMap:
    """node_map after l^delta (floored to 1) on [1, theta], where theta =
    e^delta of node_map's theta."""

    def __init__(self, node_map, delta: int):
        self.node_map = node_map
        self.delta = delta
        self.theta = e_iter(delta, node_map.theta)
        self.nesting = 1 + node_map.nesting

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        return self.node_map.apply(_liter(self.delta, x))

    def preimage(self, nodes) -> BandSet:
        return _ell_iter_preimage(self.delta, self.theta, self.node_map.preimage(nodes))

    def witnesses(self) -> Dict:
        return {v: e_iter(self.delta, w) for v, w in self.node_map.witnesses().items()}

    def to_json(self):
        return {"map": "compose", "outer": self.node_map.to_json(),
                "inner": {"map": "liter", "delta": self.delta,
                          "theta": ordinal_to_text(self.theta)}}


class GLEmbedMap:
    """The rank map onto a rooted single-relation tree.

    The root sits at theta = w^h (h the tree height); below it the
    children repeat cyclically: a point x < theta in tile (q, i) of the
    tiling by the children's thetas w^{h_i} goes where child i sends its
    offset.  Fibers of whole rank classes are the rank bands
    {x: l x = rho}; anything finer mixes positions of equal rank and is
    not a band set.
    """

    def __init__(self, root, children: List["GLEmbedMap"]):
        self.root = root
        self.children = list(children)
        self.height = self.nesting = 1 + max((c.height for c in self.children), default=-1)
        self.theta = omega_pow(_nat(self.height))
        self.tiles = Tiling(c.theta for c in self.children)
        self.node_rank: Dict = {root: self.height}
        for c in self.children:
            self.node_rank.update(c.node_rank)

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        if x == self.theta:
            return self.root
        _, i, off = self.tiles.locate(x)
        return self.children[i].apply(off)

    def preimage(self, nodes) -> BandSet:
        want = set(nodes) & set(self.node_rank)
        if not want:
            return EMPTY
        ranks = {self.node_rank[v] for v in want}
        spill = sorted(
            (v for v, r in self.node_rank.items() if r in ranks and v not in want),
            key=repr)
        if spill:
            raise NotRepresentable(
                f"fiber of {sorted(map(repr, want))} splits the rank class "
                f"of {spill[0]!r}")
        out = []
        for rho in sorted(ranks):
            cons = {1: (None, ZERO)} if rho == 0 else {1: (_nat(rho - 1), _nat(rho))}
            out.append(make_band(ONE, self.theta, cons))
        return bandset(out)

    def below(self) -> List[Tuple]:
        """The pairs (x, y) of the tree with y in x's subtree, y != x."""
        return [(self.root, v) for c in self.children for v in c.node_rank] + \
            [pair for c in self.children for pair in c.below()]

    def witnesses(self) -> Dict:
        out = {self.root: self.theta}
        for i, c in enumerate(self.children):
            for v, w in c.witnesses().items():
                out[v] = add(self.tiles.prefix[i], w)
        return out

    def to_json(self):
        return {"map": "rank", "root": self.root,
                "children": [c.to_json() for c in self.children]}


class CaseIIMap:
    """The upper part goes through pi1 and f0 onto the root's own plane;
    the lower part through pi0 onto the kappas laid side by side, segment
    i through part i, a child subtree's map of theta kappa_i."""

    def __init__(self, prod: ProductStructure, parts, f0, alpha_nodes):
        self.prod = prod
        self.parts = list(parts)  # (fmap, own node frozenset)
        self.f0 = f0
        self.alpha_nodes = frozenset(alpha_nodes)
        self.theta = prod.theta
        self.nesting = max([1 + f0.nesting] + [2 + fm.nesting for fm, _ in self.parts])

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        _, u = _split_at(x, self.prod.xi)
        if u.is_zero():
            return self.f0.apply(self.prod.pi1(x))
        _, i, off = self.prod.segments.locate(self.prod.pi0(x))
        return self.parts[i][0].apply(off)

    def preimage(self, nodes) -> BandSet:
        nodes = set(nodes)
        out = self.prod.pi1_preimage(self.f0.preimage(nodes & self.alpha_nodes))
        down = nodes - self.alpha_nodes
        if down:
            segs = EMPTY
            for (fm, own), start in zip(self.parts, self.prod.segments.prefix):
                if hit := down & own:
                    segs = union(segs, _shift(fm.preimage(hit), start))
            out = union(out, self.prod.pi0_preimage(segs))
        return out

    def witnesses(self) -> Dict:
        """f0's witnesses in the first block of the upper part; part i's
        in the second copy of cell i mod m, which pi0 sends onto part i's
        segment."""
        p = self.prod
        out = {v: multiply(p.w, w) for v, w in self.f0.witnesses().items()}
        for i, (fm, _) in enumerate(self.parts, start=1):
            base = add(add(p.alpha(i % p.m), p.span0), ONE)
            for v, w in fm.witnesses().items():
                out[v] = add(base, _span(w))
        return out

    def to_json(self):
        return {"map": "product",
                "kappas": [ordinal_to_text(k) for k in self.prod.kappas],
                "lam": ordinal_to_text(self.prod.lam),
                "alpha": sorted(self.alpha_nodes, key=repr),
                "f0": self.f0.to_json(), "fstar": {"map": "segments", "parts": [
                    {"nodes": sorted(own, key=repr), "fmap": fm.to_json()}
                    for fm, own in self.parts]}}


# --- the base embedding ---------------------------------------------------------------


def gl_embed(t) -> Tuple[Ordinal, GLEmbedMap]:
    """Rank map for a finite rooted tree under a single relation."""
    if not t.nodes:
        raise EmptyTree("cannot embed an empty tree")
    if len(t.rels) != 1:
        raise NotAJTree(f"expected one relation, got {len(t.rels)}")
    fm = _rank_map(as_jtree(t))
    return fm.theta, fm


def _rank_map(t: JTree) -> GLEmbedMap:
    """gl_embed's map on a one-relation tree; children by the reprs of their roots."""
    children = sorted(map(_rank_map, t.split[1]), key=lambda c: repr(c.root))
    return GLEmbedMap(t.root, children)


# --- the recursive embedding ------------------------------------------------------------


def _embed(t: JTree, sigma: Tuple[int, ...]):
    """The map f: [1, theta] -> t for a tree t and a sigma that embed() checked."""
    if len(t.nodes) == 1:
        return ConstMap(t.root, ONE)
    if sigma[0] > 1:
        delta = sigma[0] - 1
        return ComposeMap(_embed(t, tuple(s - delta for s in sigma)), delta)
    if len(t.rels) == 1:
        return _rank_map(t)

    # the root plane (on R_1 and up), lifted by a logarithm unless one node
    plane, subtrees = t.split
    f0 = _embed(plane, tuple(s - 1 for s in sigma[1:]))
    if len(plane.nodes) > 1:
        f0 = ComposeMap(f0, 1)
    if not subtrees:  # R_0 is empty, and t is its root plane
        return f0

    # the subtrees below the plane, ordered by their thetas, then by the
    # reprs of their own root planes
    parts = sorted(((_embed(sub, sigma), sub) for sub in subtrees),
                   key=lambda p: (p[0].theta, sorted(map(repr, p[1].split[0].nodes))))
    prod = product([fm.theta for fm, _ in parts], f0.theta)
    return CaseIIMap(prod, [(fm, frozenset(sub.nodes)) for fm, sub in parts],
                     f0, plane.nodes)


@dataclass
class Countermodel:
    theta: Ordinal
    fmap: object
    tree: JTree
    sigma: Tuple[int, ...]
    witnesses: Dict
    algebra: Dict  # node -> fiber BandSet, or None where not representable

    def space(self) -> PolySpace:
        return PolySpace(self.theta, tuple(map(_nat, self.sigma)))


def _check_sigma(sigma, n_rels: int) -> Tuple[int, ...]:
    sigma = tuple(sigma)
    for s in sigma:
        if type(s) is not int or s < 1:
            raise UnsupportedSigma(f"level {s!r} must be a positive integer")
    if len(sigma) != n_rels:
        raise UnsupportedSigma(
            f"sigma has {len(sigma)} levels for {n_rels} relations")
    if any(b <= a for a, b in zip(sigma, sigma[1:])):
        raise UnsupportedSigma("sigma must be strictly increasing")
    return sigma


def embed(t, sigma) -> Countermodel:
    if not t.nodes:
        raise EmptyTree("cannot embed an empty tree")
    sigma = _check_sigma(sigma, len(t.rels))
    try:
        t = as_jtree(t)
    except InvalidFrame as exc:
        raise NotAJTree(str(exc))

    try:
        fmap = _embed(t, sigma)
    except RecursionError:
        fmap = None
    except DepthExceeded:
        raise EmbedError(f"theta at sigma's last level {sigma[-1]} would nest "
                         f"ordinals deeper than {DEPTH_CAP}") from None
    if fmap is None or fmap.nesting > MAX_NESTING:
        depth = "" if fmap is None else f" {fmap.nesting} deep,"
        raise EmbedError(f"cm.json would nest maps{depth} deeper than {MAX_NESTING}")
    theta, wit = fmap.theta, fmap.witnesses()

    # theta stays below the fixed hyperexponential tower for the input size
    bound_height = len(t.nodes) * (max(sigma, default=0) + 1) + 2
    if bound_height < DEPTH_CAP - 1 and not theta < e_iter(bound_height, ONE):
        raise EmbedError(f"theta {theta} is past the tower of height {bound_height}")
    if fault := _witness_fault(fmap, theta, wit, t.nodes):
        raise EmbedError(fault)
    fiber = _fibers(fmap, t.nodes)
    if fiber[t.root] is None or not sets_equal(fiber[t.root],
                                               interval(theta, theta), theta):
        raise EmbedError("the root fiber is not {theta}")

    return Countermodel(theta, fmap, t, sigma, wit, fiber)


def countermodel_valuation(cm: Countermodel, t_val: Dict) -> Dict[int, BandSet]:
    out = {}
    for i, supp in t_val.items():
        try:
            out[i] = cm.fmap.preimage(supp)
        except NotRepresentable as exc:
            raise NotRepresentable(
                f"p{i} over {sorted(map(repr, supp))}: {exc}")
    return out


# --- map condition checking ----------------------------------------------------------


def _minus(a, b, theta: Ordinal):
    return intersect(a, complement_within(b, ONE, theta))


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


def _witness_fault(fmap, theta: Ordinal, witnesses: Dict, nodes) -> Optional[str]:
    """The first fault of a witness table for fmap on [1, theta]: a witness
    outside the domain, one that fmap sends to another node, or a node
    without a witness; None when the table certifies that fmap is onto."""
    for v, w in witnesses.items():
        try:
            _in_domain(w, theta)  # the map's own domain may pass theta
            got = fmap.apply(w)
        except ValueError:
            return f"witness {w} is outside the map's domain"
        if got != v:
            return f"witness {w} of node {v!r} maps to {got!r}"
    lost = [v for v in nodes if v not in witnesses]
    return f"no witness for node {lost[0]!r}" if lost else None


def _fibers(fmap, nodes) -> Dict:
    """Each node's fiber fmap.preimage([y]), None where that raises
    NotRepresentable."""
    fiber: Dict = {}
    for y in nodes:
        try:
            fiber[y] = fmap.preimage([y])
        except NotRepresentable:
            fiber[y] = None
    return fiber


def block_table(fmap, space, t: JTree
                ) -> Tuple[Dict, List[Tuple[FrozenSet, BandSet]]]:
    """_fibers(fmap, t.nodes), None at a missing node, and the blocks
    (nodes, preimage): each band fiber alone, and the missing nodes of each
    rank rho under the top relation together, with preimage {l^lam = rho}
    minus the band fibers of rank rho, lam the top level.  Without
    relations, band fibers only."""
    theta = space.theta
    fiber = _fibers(fmap, t.nodes)
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


# --- verification ------------------------------------------------------------------


def transfer_truth(cm: Countermodel, phi, t_val: Dict) -> Optional[Tuple[bool, str]]:
    """Whether theta satisfies phi under the valuation pulled back from
    t_val, read at f(theta) by the d-map law (see verify_countermodel),
    and a detail naming f(theta); None where the law does not apply.  A
    theta outside [1, fmap.theta] has no f(theta) and fails."""
    if not ONE <= cm.theta <= cm.fmap.theta:
        return False, f"theta {cm.theta} is outside [1, {cm.fmap.theta}]"
    levels = {cm.space().level_at(m) for m in compile_formula(phi).mods}
    rank, lam = cm.fmap, 1  # a rank map read at level 1, or a liter lift of one
    while isinstance(rank, ComposeMap):
        rank, lam = rank.node_map, lam + rank.delta
    on_tree = isinstance(rank, GLEmbedMap) and levels <= {lam}
    if levels and not on_tree:
        return None
    y = cm.fmap.apply(cm.theta)
    if on_tree:
        below = frozenset(rank.below())
        frame = JFrame(tuple(rank.node_rank),
                       tuple(below if s == lam else frozenset() for s in cm.sigma))
    else:
        frame = JFrame((y,), ())
    val = {a: frozenset(s) & set(frame.nodes) for a, s in t_val.items()}
    where = "the map's own tree" if on_tree else "one node, as phi has no modality"
    return y in eval_kripke(phi, frame, val), f"f(theta) = {y!r} on {where}"


def verify_countermodel(cm: Countermodel, phi,
                        t_val: Optional[Dict] = None) -> JMapReport:
    """Three-stage check: (a) phi holds at the tree root under some (or the
    given) valuation, searched by find_valuation; a miss in a slice that
    is not whole (jtree.whole_slice) is EXACT-WHERE-DEFINED, names the
    slice and fails like any miss; (b) the stored root fiber, jmap_check's
    map conditions (rank preservation exact on all of [1, theta]) and the
    witness table (every node has a witness, which lies in [1, theta] and
    maps to it); (c) theta satisfies phi under the pulled-back valuation.
    Only the root-fiber row reads cm.algebra.

    Stage (c) is exact wherever it runs: eval_topo over band sets when
    every support of the valuation has a band preimage, else the d-map law
    f^-1(<>A) = d f^-1(A) on the tree a rank-family map is built over, in
    which each node sees its whole subtree (transfer_truth).  Proof:
    (i) a rank map is a d-map from I_1 on [1, w^h], by induction on h.  The
      tiles (q, i) = (p*q + P_i, p*q + P_{i+1}] of its Tiling (period p,
      prefix sums P_i of the children's thetas) cover [1, w^h) and are
      clopen; on tile (q, i), f is child i's map after the left
      translation by start(q, i), a homeomorphism keeping every l^k on
      positive offsets.  Every punctured neighbourhood of w^h, the root's
      one point, contains whole periods, so it meets every fiber below
      the root.
    (ii) l^delta, floored to 1 as a compose map applies it, is a d-map from
      I_{lam+delta} on [1, e^delta(theta)] to I_lam on [1, theta] (the
      paper's lemma; criterion 6 tests delta = 1): the floored points have
      l^{lam+delta} = 0, so they are isolated, as 1 is.  d-maps compose.
    (iii) [1, theta'] is clopen in every I_lam with lam >= 1, so a
      theta' <= fmap.theta only localises.
    (iv) by induction on phi, f^-1 commutes with the Boolean operations
      and, through the law, with <> at the map's level; so theta satisfies
      phi iff f(theta) does when every modality of phi is read at that
      level (along any map when phi has no modality).
    The transfer reads neither cm.tree nor cm.algebra, so a map that
    disagrees with the frame still fails stage (b).  A theta outside
    [1, fmap.theta] fails stage (c); where neither path applies, it is
    SKIPPED."""
    rep = JMapReport()
    root = cm.tree.root

    mode, miss = "EXACT", "no valuation found"
    if t_val is not None:
        found = t_val if root in eval_kripke(phi, cm.tree, t_val) else None
    else:
        prog = compile_formula(phi)
        hit = find_valuation(prog, cm.tree, [root])
        found = None if hit is None else hit[0]
        if found is None and not whole_slice(len(prog.atoms), len(cm.tree.nodes)):
            mode = "EXACT-WHERE-DEFINED"
            miss = "not found among the empty, singleton and full supports"
    rep.add("(a) satisfied at the root", mode, found is not None,
            "" if found is not None else miss)

    ok_root = (cm.algebra.get(root) is not None
               and sets_equal(cm.algebra[root],
                              interval(cm.theta, cm.theta), cm.theta))
    rep.add("(b) root fiber is {theta}", "EXACT", ok_root)
    for name, mode, ok, detail in jmap_check(cm.fmap, cm.space(), cm.tree).checks:
        rep.add("(b) " + name, mode, ok, detail)

    fault = _witness_fault(cm.fmap, cm.theta, cm.witnesses, cm.tree.nodes)
    rep.add("(b) witness table", "EXACT", fault is None,
            fault or f"{len(cm.witnesses)} nodes")

    if found is None:
        rep.add("(c) semantic check", "SKIPPED", True, "no Kripke valuation")
        return rep
    try:
        v_bands = countermodel_valuation(cm, found)
    except NotRepresentable:
        v_bands = None
    if v_bands is not None:
        got = eval_topo(phi, cm.space(), v_bands)
        rep.add("(c) theta satisfies phi", "EXACT", member(cm.theta, got),
                bandset_to_text(got))
    elif (got := transfer_truth(cm, phi, found)) is not None:
        rep.add("(c) theta satisfies phi", "EXACT", *got)
    else:
        rep.add("(c) semantic check", "SKIPPED", True, "valuation not band-"
                "representable and the map is not a rank map at phi's levels")
    return rep


# --- serialization -----------------------------------------------------------------


# the tags of node maps; a compose's inner object, tagged liter, is its
# (delta, theta), and a product's fstar, tagged segments, its parts
NODE_MAPS = ("compose", "const", "product", "rank")

# JSON shapes of map fields: (what the error says, test)
_NODE = ("a node id (a string or an integer)", is_node_id)
_TEXT = ("an ordinal string", lambda v: isinstance(v, str))
_TEXTS = ("a non-empty list of ordinal strings", lambda v: isinstance(v, list)
          and len(v) > 0 and all(isinstance(x, str) for x in v))
_NAT = ("a non-negative integer", lambda v: type(v) is int and v >= 0)
_LIST = ("a list", lambda v: isinstance(v, list))
_PARTS = ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)


def _field(obj: dict, path: str, key: str, shape=None):
    """obj[key], checked against shape; errors name the field path.key."""
    name = f"{path}.{key}" if path else key
    if key not in obj:
        raise EmbedError(f"countermodel has no {name!r} field")
    if shape is not None and not shape[1](obj[key]):
        raise EmbedError(f"countermodel field {name!r} must be {shape[0]}")
    return obj[key]


def _parse_at(text: str, path: str, parse=parse_ordinal):
    """parse(text); a syntax error names the field path."""
    try:
        return parse(text)
    except (OrdinalError, TopologyError) as exc:
        raise EmbedError(f"countermodel field {path!r}: {exc}")


def _map_from_json(obj, path: str = "fmap", tags=NODE_MAPS, depth: int = 0):
    """The map expression that a JSON map object describes.

    Each field is checked against its tag's JSON shape before it is read,
    and so is the kind of map: a node map where one belongs, `liter` only
    as a compose's inner map, read as its (delta, theta), and `segments`
    only as a product's fstar, read as its (fmap, nodes) parts.  A `rank`
    map names each node once, and a compose's `liter` theta is e^delta of
    its outer map's theta, as embed writes them; stage (c)'s transfer
    relies on both.  A `product`'s fstar has one part per kappa, part i of
    theta kappa i, so that pi0 lands in its domain, and its f0 has theta
    lam, as pi1 maps the upper part onto [1, lam].  A wrong one raises
    EmbedError naming its path, such as 'fmap.children[0].root'.
    """
    tag = obj.get("map") if isinstance(obj, dict) else None
    if tag not in tags:
        raise EmbedError(f"countermodel field {path!r} must be a map object "
                         f"tagged {' or '.join(map(repr, tags))}"
                         + (f", not {tag!r}" if isinstance(obj, dict) else ""))
    if depth > MAX_NESTING:
        raise EmbedError(f"countermodel field {path!r} nests maps deeper than "
                         f"{MAX_NESTING}")

    def read(key, shape=None):
        return _field(obj, path, key, shape)

    def ordinal(key):
        return _parse_at(read(key, _TEXT), f"{path}.{key}")

    def inner(value, at, tags=NODE_MAPS):
        return _map_from_json(value, at, tags, depth + 1)

    if tag == "const":
        return ConstMap(read("node", _NODE), ordinal("theta"))
    if tag == "liter":
        return read("delta", _NAT), ordinal("theta")
    if tag == "compose":
        outer = inner(read("outer"), f"{path}.outer")
        delta, theta = inner(read("inner"), f"{path}.inner", ("liter",))
        try:
            fm = ComposeMap(outer, delta)
        except OrdinalError:
            fm = None
        if fm is None or fm.theta != theta:
            raise EmbedError(f"countermodel field {path + '.inner.theta'!r} must "
                             f"be e^{delta} of the outer map's theta")
        return fm
    if tag == "rank":
        fm = GLEmbedMap(read("root", _NODE),
                        [inner(c, f"{path}.children[{i}]", ("rank",))
                         for i, c in enumerate(read("children", _LIST))])
        if len(fm.node_rank) < 1 + sum(len(c.node_rank) for c in fm.children):
            raise EmbedError(f"countermodel field {path!r} names a node twice")
        return fm
    if tag == "segments":
        parts = []
        for i, part in enumerate(read("parts", _PARTS)):
            at = f"{path}.parts[{i}]"
            if not isinstance(part, dict):
                raise EmbedError(f"countermodel field {at!r} must be a JSON object")
            parts.append((inner(_field(part, at, "fmap"), f"{at}.fmap"),
                          frozenset(_field(part, at, "nodes", NODE_LIST))))
        return parts
    kappas = [_parse_at(k, f"{path}.kappas[{i}]")
              for i, k in enumerate(read("kappas", _TEXTS))]
    try:
        prod = product(kappas, ordinal("lam"))
    except EmbedError as exc:
        raise EmbedError(f"countermodel field {path!r}: {exc}")
    parts = inner(read("fstar"), f"{path}.fstar", ("segments",))
    if len(parts) != len(kappas):
        raise EmbedError(f"countermodel field {path + '.fstar'!r} must have "
                         f"{len(kappas)} parts, one per kappa")
    for i, ((fm, _), k) in enumerate(zip(parts, kappas)):
        if fm.theta != k:
            at = f"{path}.fstar.parts[{i}]"
            raise EmbedError(f"countermodel field {at!r} must have theta "
                             f"{ordinal_to_text(k)} = kappas[{i}]")
    f0 = inner(read("f0"), f"{path}.f0")
    if f0.theta != prod.lam:
        raise EmbedError(f"countermodel field {path + '.f0'!r} must have theta "
                         f"{ordinal_to_text(prod.lam)} = lam")
    return CaseIIMap(prod, parts, f0, frozenset(read("alpha", NODE_LIST)))


def countermodel_to_json(cm: Countermodel) -> dict:
    return {
        "theta": ordinal_to_text(cm.theta),
        "levels": [str(s) for s in cm.sigma],
        "sigma": list(cm.sigma),
        "tree": jframe_to_json(cm.tree),
        "fmap": cm.fmap.to_json(),
        "witnesses": [[v, ordinal_to_text(w)]
                      for v, w in sorted(cm.witnesses.items(),
                                         key=lambda p: repr(p[0]))],
        "algebra": [[v, None if s is None else bandset_to_text(s)]
                    for v, s in sorted(cm.algebra.items(),
                                       key=lambda p: repr(p[0]))],
    }


def _pairs(val, second) -> bool:
    return isinstance(val, list) and all(
        isinstance(p, list) and len(p) == 2 and is_node_id(p[0])
        and isinstance(p[1], second) for p in val)


# the JSON shape of each countermodel field that is read as plain data
_FIELD_SHAPES = {
    "theta": ("a string", lambda v: isinstance(v, str)),
    "levels": ("a list of strings",
               lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "sigma": ("a list", lambda v: isinstance(v, list)),
    "witnesses": ("a list of [node, text] pairs", lambda v: _pairs(v, str)),
    "algebra": ("a list of [node, text or null] pairs",
                lambda v: _pairs(v, (str, type(None)))),
}


def _node_table(obj: dict, key: str, parse, nodes) -> dict:
    """{node: parse(text, path)} for the [node, text] pairs of obj[key]; a
    node outside nodes, or listed twice, names the field of its listing."""
    out: dict = {}
    for i, (v, text) in enumerate(obj[key]):
        if v not in nodes:
            raise EmbedError(f"countermodel field '{key}[{i}][0]' names node {v!r}, "
                             "which is not in the tree")
        if v in out:
            raise EmbedError(f"countermodel field '{key}[{i}][0]' names node {v!r} twice")
        out[v] = parse(text, f"{key}[{i}][1]")
    return out


def countermodel_from_json(obj) -> Countermodel:
    if not isinstance(obj, dict):
        raise EmbedError("a countermodel must be a JSON object")
    for name in ("tree", "fmap", *_FIELD_SHAPES):
        _field(obj, "", name, _FIELD_SHAPES.get(name))
    try:
        theta = _parse_at(obj["theta"], "theta")
        levels = tuple(_parse_at(s, f"levels[{i}]")
                       for i, s in enumerate(obj["levels"]))
        tree = jframe_from_json(obj["tree"], at="tree.")
        try:
            tree = as_jtree(tree)
        except InvalidFrame as exc:
            raise EmbedError(f"countermodel field 'tree': {exc}")
        sigma = _check_sigma(obj["sigma"], len(tree.rels))
        fmap = _map_from_json(obj["fmap"])
        wit = _node_table(obj, "witnesses", _parse_at, tree.nodes)
        algebra = _node_table(obj, "algebra", lambda s, path: None if s is None
                              else _parse_at(s, path, parse_bandset), tree.nodes)
    except (KeyError, TypeError, ValueError) as exc:
        raise EmbedError(f"malformed countermodel object: {exc!r}")
    cm = Countermodel(theta, fmap, tree, sigma, wit, algebra)
    if levels != cm.space().levels:
        raise EmbedError(f"levels {obj['levels']} are not sigma {list(sigma)}")
    return cm
