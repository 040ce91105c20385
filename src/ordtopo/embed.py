"""Constructive countermodels over ordinal intervals.

The models lay copies of smaller intervals end to end, repeated with a
period; a Tiling is one such layout, and the only code that sums
segment lengths or divides by a period.  gl_embed builds the classical
rank map from [1, w^h] onto a finite single-relation tree (root at the
top, children repeating along the tiles of their thetas).  product
assembles the two-projection cell structure, its cells the tiles of
their lengths, whose upper part carries a prescribed order type.  embed
checks a frame once (jtree.as_jtree), recurses over the JTree's split
and a modality sequence sigma, and produces a map expression
f: [1, Theta] -> T with f(Theta) = root, a witness table certifying
surjectivity, and the fiber algebra (band preimages where they exist).

Fibers of branching trees are genuinely periodic (every other block,
say) and fall outside the band algebra; preimage calls on such sets
raise NotRepresentable.  verify_countermodel runs one map check,
jtree.jmap_check, on every model; it finds the missing fibers from fmap,
not from the stored algebra, and reports the (j1)-(j4) rows that need
them as SKIPPED or EXACT-WHERE-DEFINED.  Stage (c) then reads theta's
truth off the tree a rank map (or a liter lift of one) is built over, at
f(theta), which the d-map law makes exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .ordinal import (
    DEPTH_CAP,
    MAX_NESTING,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    add,
    big_l,
    e,
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
    make_band,
    member,
    merge_bound,
    parse_bandset,
    sets_equal,
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
    JMapReport,
    JTree,
    as_jtree,
    find_valuation,
    is_node_id,
    jframe_from_json,
    jframe_to_json,
    jmap_check,
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
    if p.is_finite():
        if not x.is_finite():
            raise EmbedError(f"{x} / {p}: infinite quotient")
        q, r = divmod(x.to_int(), p.to_int())
        return q, _nat(r)
    (lp, cp), (lx, cx) = p.terms[0], x.terms[0]
    if lx != lp:
        raise EmbedError(f"{x} / {p}: infinite quotient")
    lo, hi = 1, cx // cp + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if multiply(p, _nat(mid)) <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo, left_subtract(multiply(p, _nat(lo)), x)


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


# --- map expressions: ordinal-valued (preimage_set) ---------------------------------

# The preimages of the ordinal-valued maps are pure functions of the
# values their bodies read, so each is memoised by value: verify reads the
# fibers that embed, or the JSON reader, computed for an equal map.  An
# exception such as NotRepresentable is never memoised.


@lru_cache(maxsize=MEMO_SIZE)
def _ell_iter_preimage(delta: int, theta: Ordinal, s: BandSet) -> BandSet:
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


class EllIter:
    """x -> l^delta(x) on [1, theta], floored to 1 when the orbit hits 0."""

    def __init__(self, delta: int, theta: Ordinal):
        self.delta = delta
        self.theta = theta

    def apply(self, x: Ordinal) -> Ordinal:
        v = ell_iter(_nat(self.delta), x)
        return ONE if v.is_zero() else v

    def preimage_set(self, s: BandSet) -> BandSet:
        return _ell_iter_preimage(self.delta, self.theta, s)

    def to_json(self):
        return {"map": "liter", "delta": self.delta,
                "theta": ordinal_to_text(self.theta)}


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


class OtypUpMap:
    """w^xi * gamma -> gamma: the order type of the upper part below a point."""

    def __init__(self, xi: Ordinal, theta: Ordinal):
        self.xi = xi
        self.theta = theta

    def apply(self, x: Ordinal) -> Ordinal:
        gamma, u = _split_at(x, self.xi)
        if not u.is_zero() or gamma.is_zero():
            raise ValueError(f"{x} is not in the upper part")
        return gamma

    def preimage_set(self, s: BandSet) -> BandSet:
        return _otyp_up_preimage(self.xi, self.theta, s)


# --- the cell layout and projections -------------------------------------------------


class _Cells:
    """Consecutive cells tiling [1, w^xi): cell iota = m*q + j is a copy of
    [1, kappa_m] followed by a copy of [1, kappa_res(iota)], of length
    delta_j.  It is [1 + s, 1 + s + delta_j) for the tile (s, s + delta_j]
    at s = tiles.start(q, j), so the cell holding u is the tile holding
    (-1 + u) + 1."""

    def __init__(self, kappas: Tuple[Ordinal, ...]):
        self.kappas = tuple(kappas)
        self.m = len(self.kappas)
        self.span0 = _span(self.kappas[-1])
        self.marks = Tiling(self.kappas).prefix  # K_0 = 0, K_1, ..., K_m
        self.tiles = Tiling(
            add(add(add(self.span0, ONE), _span(self.kappas[self.res(j) - 1])), ONE)
            for j in range(self.m))

    def res(self, iota: int) -> int:
        r = iota % self.m
        return self.m if r == 0 else r

    def alpha(self, iota: int) -> Ordinal:
        return add(ONE, self.tiles.start(*divmod(iota, self.m)))

    def beta(self, iota: int) -> Ordinal:
        return trim_last(self.alpha(iota + 1))  # delta_j ends in + 1

    def locate(self, u: Ordinal) -> Tuple[int, Ordinal, Ordinal]:
        """Cell index and bounds for a base-block offset u in [1, w^xi)."""
        q, j, _ = self.tiles.locate(add(_span(u), ONE))
        iota = self.m * q + j
        return iota, self.alpha(iota), self.beta(iota)


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


class Pi0Map:
    """Collapse every cell of the lower part onto [1, kappa_1+...+kappa_m]."""

    def __init__(self, cells: _Cells, xi: Ordinal, theta: Ordinal,
                 x_down: BandSet):
        self.cells = cells
        self.xi = xi
        self.theta = theta
        self.x_down = x_down

    def apply(self, x: Ordinal) -> Ordinal:
        _, u = _split_at(x, self.xi)
        if u.is_zero():
            raise ValueError(f"{x} is not in the lower part")
        iota, a, _ = self.cells.locate(u)
        t = left_subtract(a, u)
        if t <= self.cells.span0:
            return add(ONE, t)
        s = left_subtract(add(self.cells.span0, ONE), t)
        r = self.cells.res(iota)
        return add(add(self.cells.marks[r - 1], ONE), s)

    def preimage_set(self, s: BandSet) -> BandSet:
        """Exact when s does not depend on the position inside [1, kappa]:
        the projection preserves every l^k pointwise, so position-free sets
        pull back to their own l-constraints over the lower part."""
        return _pi0_preimage(self.cells.marks[-1], self.theta, self.x_down, s)


@dataclass
class ProductStructure:
    xi: Ordinal
    theta: Ordinal
    lam: Ordinal
    w: Ordinal
    cells: _Cells
    markers: Tuple[Ordinal, ...]
    x_up: BandSet
    x_down: BandSet
    pi0: Pi0Map
    pi1: OtypUpMap
    s_set: BandSet

    def res(self, iota: int) -> int:
        return self.cells.res(iota)

    def cell(self, iota: int, gamma: Ordinal = ZERO) -> Tuple[Ordinal, Ordinal]:
        base = multiply(self.w, gamma)
        return add(base, self.cells.alpha(iota)), add(base, self.cells.beta(iota))


def product(kappas, lam: Ordinal) -> ProductStructure:
    kappas = tuple(kappas)
    if not kappas or any(k < ONE for k in kappas) or lam < ONE:
        raise EmbedError("product needs kappas and lambda >= 1")
    if any(b < a for a, b in zip(kappas, kappas[1:])):
        raise EmbedError("kappas must be sorted ascending")
    cells = _Cells(kappas)
    xi = add(big_l(kappas[-1]), ONE)
    w = omega_pow(xi)
    theta = multiply(w, lam)
    x_up = geq_set(1, xi, theta)
    x_down = complement_within(x_up, ONE, theta)
    pi1 = OtypUpMap(xi, theta)
    pi0 = Pi0Map(cells, xi, theta, x_down)
    # isolated points of the upper part sitting over limit stages of [1, lam]
    d1 = derived_set(interval(ONE, lam), 1, lam)
    isolated = intersect(
        x_up, complement_within(derived_set(x_up, 1, theta), ONE, theta))
    s_set = intersect(isolated, pi1.preimage_set(d1))
    return ProductStructure(xi=xi, theta=theta, lam=lam, w=w, cells=cells,
                            markers=cells.marks[1:], x_up=x_up, x_down=x_down,
                            pi0=pi0, pi1=pi1, s_set=s_set)


def density_witness(prod: ProductStructure, i: int, u: Ordinal,
                    v: Ordinal) -> Ordinal:
    """A point x in (v, u) with pi0(x) = the i-th marker, witnessing that
    marker preimages accumulate at every point u of the upper part."""
    gamma, rem = _split_at(u, prod.xi)
    if not rem.is_zero() or gamma.is_zero():
        raise ValueError(f"{u} is not in the upper part")
    if not v < u:
        raise ValueError("empty neighborhood")
    vg, voff = _split_at(v, prod.xi)
    if gamma.is_successor():
        g = trim_last(gamma)  # the block just below u
    else:
        g = add(vg, ONE)  # gamma is a limit: some block strictly past v
    base = multiply(prod.w, g)
    off_lo = voff if g == vg else ZERO
    q_off = 0 if off_lo.is_zero() else prod.cells.tiles.locate(off_lo)[0]
    j = i % prod.cells.m
    for q in (q_off, q_off + 1, q_off + 2):
        iota = prod.cells.m * q + j
        beta = prod.cells.beta(iota)
        if off_lo < beta:
            x = add(base, beta)
            if not v < x < u:
                raise EmbedError(f"cell top {x} is outside ({v}, {u})")
            return x
    raise EmbedError("no cell top found past the offset")


# --- map expressions: node-valued (preimage) -----------------------------------------


class ConstMap:
    def __init__(self, node, theta: Ordinal):
        self.node = node
        self.theta = theta

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        return self.node

    def preimage(self, nodes) -> BandSet:
        return interval(ONE, self.theta) if self.node in set(nodes) else EMPTY

    def to_json(self):
        return {"map": "const", "node": self.node,
                "theta": ordinal_to_text(self.theta)}


class ComposeMap:
    """node_map after ord_map."""

    def __init__(self, node_map, ord_map):
        self.node_map = node_map
        self.ord_map = ord_map
        self.theta = ord_map.theta

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        return self.node_map.apply(self.ord_map.apply(x))

    def preimage(self, nodes) -> BandSet:
        return self.ord_map.preimage_set(self.node_map.preimage(nodes))

    def to_json(self):
        return {"map": "compose", "outer": self.node_map.to_json(),
                "inner": self.ord_map.to_json()}


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
        self.height = 1 + max((c.height for c in self.children), default=-1)
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


class SegmentSum:
    """Maps glued side by side: part i covers tile (0, i) of the tiling by
    the parts' thetas."""

    def __init__(self, parts):
        self.parts = list(parts)  # (fmap, own node frozenset)
        self.tiles = Tiling(fm.theta for fm, _ in self.parts)
        self.theta = self.tiles.period

    def apply(self, y: Ordinal):
        _in_domain(y, self.theta)
        _, i, off = self.tiles.locate(y)
        return self.parts[i][0].apply(off)

    def preimage(self, nodes) -> BandSet:
        nodes = set(nodes)
        out = EMPTY
        for (fm, own), start in zip(self.parts, self.tiles.prefix):
            hit = nodes & own
            if hit:
                out = union(out, _shift(fm.preimage(hit), start))
        return out

    def to_json(self):
        return {"map": "segments",
                "parts": [{"nodes": sorted(own, key=repr), "fmap": fm.to_json()}
                          for fm, own in self.parts]}


class CaseIIMap:
    """Dispatch between the cell projection (lower part, onto the child
    subtrees) and the order-type projection (upper part, onto the root's
    own plane)."""

    def __init__(self, prod: ProductStructure, fstar: SegmentSum, f0,
                 alpha_nodes):
        self.prod = prod
        self.fstar = fstar
        self.f0 = f0
        self.alpha_nodes = frozenset(alpha_nodes)
        self.theta = prod.theta

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        _, u = _split_at(x, self.prod.xi)
        if u.is_zero():
            return self.f0.apply(self.prod.pi1.apply(x))
        return self.fstar.apply(self.prod.pi0.apply(x))

    def preimage(self, nodes) -> BandSet:
        nodes = set(nodes)
        out = self.prod.pi1.preimage_set(
            self.f0.preimage(nodes & self.alpha_nodes))
        down = nodes - self.alpha_nodes
        if down:
            out = union(out, self.prod.pi0.preimage_set(self.fstar.preimage(down)))
        return out

    def to_json(self):
        return {"map": "product",
                "kappas": [ordinal_to_text(k) for k in self.prod.cells.kappas],
                "lam": ordinal_to_text(self.prod.lam),
                "alpha": sorted(self.alpha_nodes, key=repr),
                "f0": self.f0.to_json(), "fstar": self.fstar.to_json()}


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
    """(theta, fmap, witnesses) for a tree t and a sigma that embed() checked."""
    if len(t.nodes) == 1:
        return ONE, ConstMap(t.root, ONE), {t.root: ONE}
    if sigma[0] > 1:
        delta = sigma[0] - 1
        th, fm, wit = _embed(t, tuple(s - delta for s in sigma))
        theta = e_iter(delta, th)
        return (theta, ComposeMap(fm, EllIter(delta, theta)),
                {v: e_iter(delta, w) for v, w in wit.items()})
    if len(t.rels) == 1:
        fm = _rank_map(t)
        return fm.theta, fm, fm.witnesses()

    # the root plane (on R_1 and up), lifted by a logarithm unless one node
    plane, subtrees = t.split
    lam, f0, wit0 = _embed(plane, tuple(s - 1 for s in sigma[1:]))
    if len(plane.nodes) > 1:
        lam = e(lam)
        f0, wit0 = ComposeMap(f0, EllIter(1, lam)), {v: e(w) for v, w in wit0.items()}
    if not subtrees:  # R_0 is empty, and t is its root plane
        return lam, f0, wit0

    # the subtrees below the plane, ordered by their thetas, then by the
    # reprs of their own root planes
    parts = []
    for sub in subtrees:
        th_i, fm_i, wit_i = _embed(sub, sigma)
        beta = sorted(map(repr, sub.split[0].nodes))
        parts.append((th_i, beta, fm_i, frozenset(sub.nodes), wit_i))
    parts.sort(key=lambda p: (p[0], p[1]))
    prod = product([p[0] for p in parts], lam)

    fstar = SegmentSum([(fm_i, own) for _, _, fm_i, own, _ in parts])
    fmap = CaseIIMap(prod, fstar, f0, plane.nodes)

    wit = {v: multiply(prod.w, w) for v, w in wit0.items()}
    m = len(parts)
    for i, (_, _, _, _, wit_i) in enumerate(parts, start=1):
        iota = i if i < m else 0
        base = add(add(prod.cells.alpha(iota), prod.cells.span0), ONE)
        for v, wv in wit_i.items():
            wit[v] = add(base, _span(wv))
    return prod.theta, fmap, wit


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
    out = []
    for s in sigma:
        if isinstance(s, Ordinal):
            if not s.is_finite():
                raise UnsupportedSigma(f"limit modality level {s}")
            s = s.to_int()
        if type(s) is not int or s < 1:
            raise UnsupportedSigma(f"level {s!r} must be a positive integer")
        out.append(s)
    if len(out) != n_rels:
        raise UnsupportedSigma(
            f"sigma has {len(out)} levels for {n_rels} relations")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise UnsupportedSigma("sigma must be strictly increasing")
    return tuple(out)


def embed(t, sigma) -> Countermodel:
    if not t.nodes:
        raise EmptyTree("cannot embed an empty tree")
    sigma = _check_sigma(sigma, len(t.rels))
    try:
        t = as_jtree(t)
    except InvalidFrame as exc:
        raise NotAJTree(str(exc))

    theta, fmap, wit = _embed(t, sigma)

    # theta stays below the fixed hyperexponential tower for the input size
    bound_height = len(t.nodes) * (max(sigma, default=0) + 1) + 2
    if bound_height < DEPTH_CAP - 1 and not theta < e_iter(bound_height, ONE):
        raise EmbedError(f"theta {theta} is past the tower of height {bound_height}")
    for v, w in wit.items():
        if not (ONE <= w <= theta and fmap.apply(w) == v):
            raise EmbedError(f"witness {w} does not map to {v}")
    if not sets_equal(fmap.preimage([t.root]), interval(theta, theta), theta):
        raise EmbedError("the root fiber is not {theta}")

    algebra = {}
    for v in t.nodes:
        try:
            algebra[v] = fmap.preimage([v])
        except NotRepresentable:
            algebra[v] = None
    return Countermodel(theta, fmap, t, sigma, wit, algebra)


def countermodel_valuation(cm: Countermodel, t_val: Dict) -> Dict[int, BandSet]:
    out = {}
    for i, supp in t_val.items():
        try:
            out[i] = cm.fmap.preimage(supp)
        except NotRepresentable as exc:
            raise NotRepresentable(
                f"p{i} over {sorted(map(repr, supp))}: {exc}")
    return out


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
        rank, lam = rank.node_map, lam + rank.ord_map.delta
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
    given) valuation; (b) the stored root fiber, jmap_check's map
    conditions (rank preservation exact on all of [1, theta]) and the
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
    (ii) l^delta, floored to 1 as EllIter does, is a d-map from
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

    if t_val is not None:
        found = t_val if root in eval_kripke(phi, cm.tree, t_val) else None
    else:
        hit = find_valuation(compile_formula(phi), cm.tree, [root])
        found = None if hit is None else hit[0]
    rep.add("(a) satisfied at the root", "EXACT", found is not None,
            "" if found is not None else "no valuation found")

    ok_root = (cm.algebra.get(root) is not None
               and sets_equal(cm.algebra[root],
                              interval(cm.theta, cm.theta), cm.theta))
    rep.add("(b) root fiber is {theta}", "EXACT", ok_root)
    for name, mode, ok, detail in jmap_check(cm.fmap, cm.space(), cm.tree).checks:
        rep.add("(b) " + name, mode, ok, detail)

    wit_ok, detail = True, f"{len(cm.witnesses)} nodes"
    for v, w in cm.witnesses.items():
        try:
            _in_domain(w, cm.theta)  # the map's own domain may pass theta
            got = cm.fmap.apply(w)
            if got != v:
                wit_ok, detail = False, f"witness {w} of node {v!r} maps to {got!r}"
        except ValueError:
            wit_ok, detail = False, f"witness {w} is outside the map's domain"
        if not wit_ok:
            break
    lost = [v for v in cm.tree.nodes if v not in cm.witnesses]
    if wit_ok and lost:
        wit_ok, detail = False, f"no witness for node {lost[0]!r}"
    rep.add("(b) witness table", "EXACT", wit_ok, detail)

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


# the maps that send ordinals to nodes, and the one that sends ordinals to
# ordinals, which only ever stands as a compose's inner map
NODE_MAPS = ("compose", "const", "product", "rank", "segments")
ORDINAL_MAPS = ("liter",)

# JSON shapes of map fields: (what the error says, test)
_NODE = ("a node id (a string or an integer)", is_node_id)
_NODES = ("a list of node ids",
          lambda v: isinstance(v, list) and all(map(is_node_id, v)))
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
    and so is the kind of map: a node-valued map where one belongs, and
    `liter` only as a compose's inner map.  A `rank` map names each node
    once, and a compose's `liter` theta is e^delta of its outer map's
    theta, as embed writes them; stage (c)'s transfer relies on both.  A
    `product`'s fstar is `segments` with one part per kappa, part i of
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
        return EllIter(read("delta", _NAT), ordinal("theta"))
    if tag == "compose":
        outer = inner(read("outer"), f"{path}.outer")
        lift = inner(read("inner"), f"{path}.inner", ORDINAL_MAPS)
        try:
            lifted = lift.theta == e_iter(lift.delta, outer.theta)
        except OrdinalError:
            lifted = False
        if not lifted:
            raise EmbedError(f"countermodel field {path + '.inner.theta'!r} must "
                             f"be e^{lift.delta} of the outer map's theta")
        return ComposeMap(outer, lift)
    if tag == "rank":
        fm = GLEmbedMap(read("root", _NODE),
                        [inner(c, f"{path}.children[{i}]", ("rank",))
                         for i, c in enumerate(read("children", _LIST))])
        if len(fm.node_rank) < 1 + sum(len(c.node_rank) for c in fm.children):
            raise EmbedError(f"countermodel field {path!r} names a node twice")
        return fm
    if tag == "segments":
        seg = []
        for i, part in enumerate(read("parts", _PARTS)):
            at = f"{path}.parts[{i}]"
            if not isinstance(part, dict):
                raise EmbedError(f"countermodel field {at!r} must be a JSON object")
            seg.append((inner(_field(part, at, "fmap"), f"{at}.fmap"),
                        frozenset(_field(part, at, "nodes", _NODES))))
        return SegmentSum(seg)
    kappas = [_parse_at(k, f"{path}.kappas[{i}]")
              for i, k in enumerate(read("kappas", _TEXTS))]
    try:
        prod = product(kappas, ordinal("lam"))
    except EmbedError as exc:
        raise EmbedError(f"countermodel field {path!r}: {exc}")
    fstar = inner(read("fstar"), f"{path}.fstar", ("segments",))
    if len(fstar.parts) != len(kappas):
        raise EmbedError(f"countermodel field {path + '.fstar'!r} must have "
                         f"{len(kappas)} parts, one per kappa")
    for i, ((fm, _), k) in enumerate(zip(fstar.parts, kappas)):
        if fm.theta != k:
            at = f"{path}.fstar.parts[{i}]"
            raise EmbedError(f"countermodel field {at!r} must have theta "
                             f"{ordinal_to_text(k)} = kappas[{i}]")
    f0 = inner(read("f0"), f"{path}.f0")
    if f0.theta != prod.lam:
        raise EmbedError(f"countermodel field {path + '.f0'!r} must have theta "
                         f"{ordinal_to_text(prod.lam)} = lam")
    return CaseIIMap(prod, fstar, f0, frozenset(read("alpha", _NODES)))


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


def _node_table(obj: dict, key: str, parse) -> dict:
    """{node: parse(text, path)} for the [node, text] pairs of obj[key]; a
    node listed twice names the field of its second listing."""
    out: dict = {}
    for i, (v, text) in enumerate(obj[key]):
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
        wit = _node_table(obj, "witnesses", _parse_at)
        algebra = _node_table(obj, "algebra", lambda s, path: None if s is None
                              else _parse_at(s, path, parse_bandset))
    except (KeyError, TypeError, ValueError) as exc:
        raise EmbedError(f"malformed countermodel object: {exc!r}")
    cm = Countermodel(theta, fmap, tree, sigma, wit, algebra)
    if levels != cm.space().levels:
        raise EmbedError(f"levels {obj['levels']} are not sigma {list(sigma)}")
    return cm
