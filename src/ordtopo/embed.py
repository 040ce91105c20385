"""Constructive countermodels over ordinal intervals.

gl_embed builds the classical rank map from [1, w^h] onto a finite
single-relation tree (root at the top, children repeating cyclically
along blocks).  product assembles the two-projection cell structure
whose upper part carries a prescribed order type.  embed recurses over
a treelike polymodal frame and a modality sequence sigma and produces a
map expression f: [1, Theta] -> T with f(Theta) = root, a witness table
certifying surjectivity, and the fiber algebra (band preimages where
they exist).

Fibers of branching trees are genuinely periodic (every other block,
say) and fall outside the band algebra; preimage calls on such sets
raise NotRepresentable.  verify_countermodel runs one map check,
jtree.jmap_check, on every model; it finds the missing fibers from fmap,
not from the stored algebra, and reports the (j1)-(j4) rows that need
them as SKIPPED or EXACT-WHERE-DEFINED.  Stage (c) then falls back to a
pointwise sampled evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .ordinal import (
    DEPTH_CAP,
    MAX_NESTING,
    OMEGA,
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
    BandSet,
    NotRepresentable,
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
    OP_AND,
    OP_BOT,
    OP_BOX,
    OP_IMP,
    OP_NOT,
    OP_OR,
    OP_TOP,
    OP_VAR,
    PolySpace,
    Program,
    UnboundVariable,
    compile_formula,
    eval_kripke,
    eval_topo,
)
from .jtree import (
    InvalidFrame,
    JFrame,
    JMapReport,
    find_valuation,
    is_jtree,
    is_node_id,
    jframe_from_json,
    jframe_to_json,
    jmap_check,
    make_jframe,
    planes,
    root_of,
    subframe,
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


class EllIter:
    """x -> l^delta(x) on [1, theta], floored to 1 when the orbit hits 0."""

    def __init__(self, delta: int, theta: Ordinal):
        self.delta = delta
        self.theta = theta

    def apply(self, x: Ordinal) -> Ordinal:
        v = ell_iter(_nat(self.delta), x)
        return ONE if v.is_zero() else v

    def preimage_set(self, s: BandSet) -> BandSet:
        if self.delta == 0:
            return intersect(s, interval(ONE, self.theta))
        d = self.delta
        out = EMPTY
        for b in s.bands:
            cons = {d + k: (c, dd) for k, c, dd in b.cons}
            cons[d] = merge_bound(cons.get(d, (None, None)), (None, b.hi))
            part = bandset([make_band(ONE, self.theta, cons)])
            if not b.lo.is_zero():
                part = intersect(part, geq_set(d, b.lo, self.theta))
            if b.member(ONE):
                # the floor: points whose l^delta collapses to 0 land on 1
                part = union(
                    part,
                    bandset([make_band(ONE, self.theta, {d: (None, ZERO)})]),
                )
            out = union(out, part)
        return out

    def to_json(self):
        return {"map": "liter", "delta": self.delta,
                "theta": ordinal_to_text(self.theta)}


class OtypUpMap:
    """w^xi * gamma -> gamma: the order type of the upper part below a point."""

    def __init__(self, xi: Ordinal, theta: Ordinal):
        self.xi = xi
        self.w = omega_pow(xi)
        self.theta = theta

    def apply(self, x: Ordinal) -> Ordinal:
        gamma, u = _split_at(x, self.xi)
        if not u.is_zero() or gamma.is_zero():
            raise ValueError(f"{x} is not in the upper part")
        return gamma

    def preimage_set(self, s: BandSet) -> BandSet:
        out = EMPTY
        for b in s.bands:
            lo, hi = multiply(self.w, b.lo), multiply(self.w, b.hi)
            if all(c is None for _, c, _ in b.cons):
                # successor gammas: exactly the points with l x = xi
                succ = intersect(
                    bandset([make_band(lo, hi, {1: (None, self.xi)})]),
                    geq_set(1, self.xi, self.theta),
                )
                out = union(out, succ)
            # limit gammas: l x = xi + l gamma, deeper logarithms agree
            c1, d1 = next(((c, d) for k, c, d in b.cons if k == 1), (None, None))
            cons = {k: (c, d) for k, c, d in b.cons if k >= 2}
            cons[1] = (self.xi if c1 is None else add(self.xi, c1),
                       None if d1 is None else add(self.xi, d1))
            out = union(out, bandset([make_band(lo, hi, cons)]))
        return out

    def to_json(self):
        return {"map": "otyp_up", "xi": ordinal_to_text(self.xi),
                "theta": ordinal_to_text(self.theta)}


# --- the cell layout and projections -------------------------------------------------


class _Cells:
    """Consecutive cells tiling [1, w^xi): cell iota is a copy of
    [1, kappa_0] followed by a copy of [1, kappa_res(iota)]."""

    def __init__(self, kappas: Tuple[Ordinal, ...]):
        self.kappas = tuple(kappas)
        self.m = len(self.kappas)
        self.kappa0 = self.kappas[-1]
        self.span0 = _span(self.kappa0)
        marks = [ZERO]
        for k in self.kappas:
            marks.append(add(marks[-1], k))
        self.marks = tuple(marks)  # partial sums K_0 = 0, K_1, ..., K_m
        pre = [ZERO]
        for j in range(self.m):
            r = self.res(j)
            delta = add(add(add(self.span0, ONE), _span(self.kappas[r - 1])), ONE)
            pre.append(add(pre[-1], delta))
        self.prefix = tuple(pre)
        self.period = pre[-1]

    def res(self, iota: int) -> int:
        r = iota % self.m
        return self.m if r == 0 else r

    def alpha(self, iota: int) -> Ordinal:
        q, j = divmod(iota, self.m)
        return add(add(ONE, multiply(self.period, _nat(q))), self.prefix[j])

    def beta(self, iota: int) -> Ordinal:
        r = self.res(iota)
        return add(add(add(self.alpha(iota), self.span0), ONE),
                   _span(self.kappas[r - 1]))

    def locate(self, u: Ordinal) -> Tuple[int, Ordinal, Ordinal]:
        """Cell index and bounds for a base-block offset u in [1, w^xi)."""
        q, _ = _ord_divmod(u, self.period)
        if q and self.alpha(self.m * q) > u:
            q -= 1
        for j in range(self.m):
            iota = self.m * q + j
            a, b = self.alpha(iota), self.beta(iota)
            if a <= u <= b:
                return iota, a, b
        raise EmbedError(f"offset {u} escaped the cell layout")


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
        kappa = self.cells.marks[-1]
        widened = bandset(make_band(ONE, kappa, b.cons_dict()) for b in s.bands)
        if not sets_equal(s, widened, kappa):
            raise NotRepresentable(
                f"{bandset_to_text(s)} is position-dependent on [1,"
                f"{ordinal_to_text(kappa)}]")
        lifted = bandset(make_band(ONE, self.theta, b.cons_dict())
                         for b in s.bands)
        return intersect(self.x_down, lifted)

    def to_json(self):
        return {"map": "pi0",
                "kappas": [ordinal_to_text(k) for k in self.cells.kappas],
                "theta": ordinal_to_text(self.theta)}


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
        g = left_subtract(ONE, gamma)
    else:
        g = add(vg, ONE)  # gamma is a limit: some block strictly past v
    base = multiply(prod.w, g)
    off_lo = voff if g == vg else ZERO
    q_off = 0 if off_lo.is_zero() else _ord_divmod(off_lo, prod.cells.period)[0]
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
    children repeat cyclically along consecutive blocks, child i getting
    blocks of length w^{h_i}.  Fibers of whole rank classes are the rank
    bands {x: l x = rho}; anything finer mixes positions of equal rank
    and is not a band set.
    """

    def __init__(self, root, children: List["GLEmbedMap"]):
        self.root = root
        self.children = list(children)
        self.height = 1 + max((c.height for c in self.children), default=-1)
        self.theta = omega_pow(_nat(self.height))
        pre = [ZERO]
        for c in self.children:
            pre.append(add(pre[-1], c.theta))
        self.prefix = tuple(pre)
        self.period = pre[-1]
        self.node_rank: Dict = {root: self.height}
        for c in self.children:
            self.node_rank.update(c.node_rank)

    def apply(self, x: Ordinal):
        _in_domain(x, self.theta)
        if x == self.theta:
            return self.root
        _, rem = _ord_divmod(x, self.period)
        if rem.is_zero():
            last = self.children[-1]
            return last.apply(last.theta)
        for i, c in enumerate(self.children):
            if rem <= self.prefix[i + 1]:
                return c.apply(left_subtract(self.prefix[i], rem))
        raise EmbedError(f"{x} escaped the block layout")

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

    def witnesses(self) -> Dict:
        out = {self.root: self.theta}
        for i, c in enumerate(self.children):
            for v, w in c.witnesses().items():
                out[v] = add(self.prefix[i], w)
        return out

    def to_json(self):
        return {"map": "rank", "root": self.root,
                "children": [c.to_json() for c in self.children]}


class SegmentSum:
    """Maps glued side by side: segment i covers (K_{i-1}, K_i]."""

    def __init__(self, parts):
        # parts: list of (k_prev, k_hi, fmap, own node frozenset)
        self.parts = list(parts)
        self.theta = self.parts[-1][1]

    def apply(self, y: Ordinal):
        for k_prev, k_hi, fm, _ in self.parts:
            if y <= k_hi:
                return fm.apply(left_subtract(k_prev, y))
        raise ValueError(f"{y} outside [1, {self.theta}]")

    def preimage(self, nodes) -> BandSet:
        nodes = set(nodes)
        out = EMPTY
        for k_prev, _, fm, own in self.parts:
            hit = nodes & own
            if hit:
                out = union(out, _shift(fm.preimage(hit), k_prev))
        return out

    def to_json(self):
        return {"map": "segments",
                "parts": [{"nodes": sorted(own, key=repr), "fmap": fm.to_json()}
                          for _, _, fm, own in self.parts]}


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
    rel = t.rels[0]

    def build(x) -> GLEmbedMap:
        succ = frozenset(y for a, y in rel if a == x)
        imm = sorted((y for y in succ
                      if not any((z, y) in rel for z in succ if z != y)),
                     key=repr)
        return GLEmbedMap(x, [build(c) for c in imm])

    fm = build(root_of(t))
    return fm.theta, fm


# --- the recursive embedding ------------------------------------------------------------


def _embed(t: JFrame, sigma: Tuple[int, ...]):
    """Returns (theta, fmap, witnesses)."""
    nodes = tuple(t.nodes)
    if len(nodes) == 1:
        return ONE, ConstMap(nodes[0], ONE), {nodes[0]: ONE}
    if sigma[0] > 1:
        delta = sigma[0] - 1
        th, fm, wit = _embed(t, tuple(s - delta for s in sigma))
        theta = e_iter(delta, th)
        return (theta, ComposeMap(fm, EllIter(delta, theta)),
                {v: e_iter(delta, w) for v, w in wit.items()})
    if len(t.rels) == 1:
        _, fm = gl_embed(t)
        return fm.theta, fm, fm.witnesses()
    if not t.rels[0]:
        # the first relation is empty: drop it and lift by one logarithm
        th, fm, wit = _embed(JFrame(nodes, t.rels[1:]),
                             tuple(s - 1 for s in sigma[1:]))
        theta = e(th)
        return (theta, ComposeMap(fm, EllIter(1, theta)),
                {v: e(w) for v, w in wit.items()})

    # the root's plane has proper subtrees below it
    root = root_of(t)
    pd = planes(t, 0, check=False)
    alpha = pd.subblock_of(root)
    succ_planes = [b for a, b in pd.order if a == alpha]
    child_planes = [b for b in succ_planes
                    if not any((c, b) in pd.order for c in succ_planes if c != b)]
    r0 = t.rels[0]
    parts = []
    for beta in child_planes:
        x0 = min(beta, key=repr)
        below = frozenset(y for a, y in r0 if a == x0)
        sub = subframe(t, beta | below)
        th_i, fm_i, wit_i = _embed(sub, sigma)
        parts.append((th_i, sorted(map(repr, beta)), fm_i,
                      frozenset(sub.nodes), wit_i))
    parts.sort(key=lambda p: (p[0], p[1]))

    lam, f0, wit0 = _embed(subframe(t, alpha), sigma)
    prod = product([p[0] for p in parts], lam)

    seg, k_prev = [], ZERO
    for th_i, _, fm_i, own, _ in parts:
        k_hi = add(k_prev, th_i)
        seg.append((k_prev, k_hi, fm_i, own))
        k_prev = k_hi
    fmap = CaseIIMap(prod, SegmentSum(seg), f0, alpha)

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
    tree: JFrame
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
    t = make_jframe(t.nodes, t.rels)
    if not t.nodes:
        raise EmptyTree("cannot embed an empty tree")
    sigma = _check_sigma(sigma, len(t.rels))
    try:
        treelike = is_jtree(t)
    except InvalidFrame as exc:
        raise NotAJTree(str(exc))
    if not treelike:
        raise NotAJTree("planes do not nest as a tree")
    root = root_of(t)

    theta, fmap, wit = _embed(t, sigma)

    # theta stays below the fixed hyperexponential tower for the input size
    bound_height = len(t.nodes) * (max(sigma, default=0) + 1) + 2
    if bound_height < DEPTH_CAP - 1 and not theta < e_iter(bound_height, ONE):
        raise EmbedError(f"theta {theta} is past the tower of height {bound_height}")
    for v, w in wit.items():
        if not (ONE <= w <= theta and fmap.apply(w) == v):
            raise EmbedError(f"witness {w} does not map to {v}")
    if not sets_equal(fmap.preimage([root]), interval(theta, theta), theta):
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


class PointwiseUnsupported(EmbedError):
    pass


# Segment window for the cofinality test below.  The fibers the
# construction produces are eventually periodic along every canonical
# approach sequence (block patterns repeat with the map's period, a
# handful at most), so whether a set keeps meeting segments is decided
# by the tail of the window; _SEG_WINDOW segments with the last
# _SEG_TAIL inspected leaves generous slack over any period that can
# actually occur.
_SEG_WINDOW = 24
_SEG_TAIL = 12
_SEG_COEFF = 6


def _segment_offsets(m: int) -> List[Ordinal]:
    """Sample points inside a half-open segment of length w^m."""
    if m == 0:
        return [ZERO]
    if m == 1:
        return [_nat(b) for b in range(_SEG_COEFF + 1)]
    if m == 2:
        return [add(multiply(OMEGA, _nat(a)), _nat(b))
                for a in range(_SEG_COEFF + 1) for b in range(_SEG_COEFF + 1)]
    raise PointwiseUnsupported("approach step above w^2")


class _Pointwise:
    """Truth of the slots of a compiled formula at single ordinals.

    Works directly with membership predicates instead of band sets, so
    the genuinely periodic fibers are no obstacle.  A limit x = g + w^e*c
    accumulates s at level 1 iff s keeps meeting the segments
    [y_n, y_{n+1}) with y_n = g + w^e*(c-1) + w^(e-1)*n; membership along
    those segments is eventually periodic for every set the construction
    produces, so a hit anywhere in the tail window decides cofinality.
    Levels >= 2 raise PointwiseUnsupported (they only arise together with
    theta > w^3, where this evaluator is never called).  The memo, keyed
    by (slot, x), lives as long as the object.
    """

    def __init__(self, prog: Program, cm: Countermodel, t_val: Dict):
        for a in prog.atoms:
            if a not in t_val:
                raise UnboundVariable(f"p{a}")
        self.code = prog.code
        self.mods = prog.mods
        self.supports = [t_val[a] for a in prog.atoms]
        self.fmap = cm.fmap
        self.space = cm.space()
        self.memo: Dict[Tuple[int, Ordinal], bool] = {}

    def sat(self, slot: int, x: Ordinal) -> bool:
        key = (slot, x)
        if key not in self.memo:
            self.memo[key] = self._sat(slot, x)
        return self.memo[key]

    def _sat(self, slot: int, x: Ordinal) -> bool:
        op, a, b = self.code[slot]
        if op == OP_VAR:
            return self.fmap.apply(x) in self.supports[a]
        if op == OP_TOP:
            return True
        if op == OP_BOT:
            return False
        if op == OP_NOT:
            return not self.sat(a, x)
        if op == OP_AND:
            return self.sat(a, x) and self.sat(b, x)
        if op == OP_OR:
            return self.sat(a, x) or self.sat(b, x)
        if op == OP_IMP:
            return not self.sat(a, x) or self.sat(b, x)
        # <k>A holds at x iff A accumulates there, [k]A iff ~A does not
        box = op == OP_BOX
        lam = self.space.level_at(self.mods[b])
        return self.accumulates(a, box, x, lam) != box

    def accumulates(self, slot: int, negated: bool, x: Ordinal, lam: int) -> bool:
        """Whether the set of slot (its complement if negated) accumulates
        at x in the level-lam topology."""
        if lam != 1:
            raise PointwiseUnsupported(f"pointwise derived set at level {lam}")
        if x <= ONE or x.is_successor():
            return False
        e_, _c = x.terms[-1]
        if not e_.is_finite() or e_.to_int() > 3:
            raise PointwiseUnsupported("limit point above w^3")
        base = trim_last(x)
        step = omega_pow(left_subtract(ONE, e_))
        offsets = _segment_offsets(e_.to_int() - 1)
        for n in range(_SEG_WINDOW, _SEG_WINDOW - _SEG_TAIL, -1):
            y0 = add(base, multiply(step, _nat(n)))
            for d in offsets:
                y = add(y0, d)
                if ONE <= y < x and self.sat(slot, y) != negated:
                    return True
        return False


def _universe_eval(phi, cm: Countermodel, t_val: Dict) -> bool:
    """Pointwise evaluation of phi at theta, for theta <= w^3 (see
    _Pointwise)."""
    prog = compile_formula(phi)
    return _Pointwise(prog, cm, t_val).sat(len(prog.code) - 1, cm.theta)


W3 = parse_ordinal("w^3")


def verify_countermodel(cm: Countermodel, phi,
                        t_val: Optional[Dict] = None) -> JMapReport:
    """Three-stage check: (a) phi holds at the tree root under some (or the
    given) valuation; (b) the stored root fiber, jmap_check's map
    conditions (rank preservation exact on all of [1, theta]) and the
    witness table (every node has a witness, which lies in [1, theta] and
    maps to it); (c) theta satisfies phi under the pulled-back valuation,
    exactly when it is representable.  Only the root-fiber row reads
    cm.algebra."""
    rep = JMapReport()
    root = root_of(cm.tree)

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
    elif cm.theta <= W3:
        try:
            rep.add("(c) theta satisfies phi", "UNIVERSE",
                    _universe_eval(phi, cm, found),
                    "pointwise over the approach segments")
        except PointwiseUnsupported as exc:
            rep.add("(c) semantic check", "SKIPPED", True, str(exc))
    else:
        rep.add("(c) semantic check", "SKIPPED", True,
                "valuation not band-representable and theta > w^3")
    return rep


# --- serialization -----------------------------------------------------------------


# the maps that send ordinals to nodes, and the two that send ordinals to
# ordinals, which only ever stand as a compose's inner map
NODE_MAPS = ("compose", "const", "product", "rank", "segments")
ORDINAL_MAPS = ("liter", "otyp_up")

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


def _ordinal_at(text: str, path: str) -> Ordinal:
    try:
        return parse_ordinal(text)
    except OrdinalError as exc:
        raise EmbedError(f"countermodel field {path!r}: {exc}")


def _map_from_json(obj, path: str = "fmap", tags=NODE_MAPS, depth: int = 0):
    """The map expression that a JSON map object describes.

    Each field is checked against its tag's JSON shape before it is read,
    and so is the kind of map: a node-valued map where one belongs, and
    `liter` and `otyp_up` only as a compose's inner map.  A wrong one
    raises EmbedError naming its path, such as 'fmap.children[0].root'.
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
        return _ordinal_at(read(key, _TEXT), f"{path}.{key}")

    def inner(value, at, tags=NODE_MAPS):
        return _map_from_json(value, at, tags, depth + 1)

    if tag == "const":
        return ConstMap(read("node", _NODE), ordinal("theta"))
    if tag == "liter":
        return EllIter(read("delta", _NAT), ordinal("theta"))
    if tag == "otyp_up":
        return OtypUpMap(ordinal("xi"), ordinal("theta"))
    if tag == "compose":
        return ComposeMap(inner(read("outer"), f"{path}.outer"),
                          inner(read("inner"), f"{path}.inner", ORDINAL_MAPS))
    if tag == "rank":
        return GLEmbedMap(read("root", _NODE),
                          [inner(c, f"{path}.children[{i}]", ("rank",))
                           for i, c in enumerate(read("children", _LIST))])
    if tag == "segments":
        seg, k_prev = [], ZERO
        for i, part in enumerate(read("parts", _PARTS)):
            at = f"{path}.parts[{i}]"
            if not isinstance(part, dict):
                raise EmbedError(f"countermodel field {at!r} must be a JSON object")
            fm = inner(_field(part, at, "fmap"), f"{at}.fmap")
            k_hi = add(k_prev, fm.theta)
            seg.append((k_prev, k_hi, fm, frozenset(_field(part, at, "nodes", _NODES))))
            k_prev = k_hi
        return SegmentSum(seg)
    kappas = [_ordinal_at(k, f"{path}.kappas[{i}]")
              for i, k in enumerate(read("kappas", _TEXTS))]
    try:
        prod = product(kappas, ordinal("lam"))
    except EmbedError as exc:
        raise EmbedError(f"countermodel field {path!r}: {exc}")
    return CaseIIMap(prod, inner(read("fstar"), f"{path}.fstar"),
                     inner(read("f0"), f"{path}.f0"), frozenset(read("alpha", _NODES)))


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
        isinstance(p, list) and len(p) == 2 and isinstance(p[1], second) for p in val)


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


def countermodel_from_json(obj) -> Countermodel:
    if not isinstance(obj, dict):
        raise EmbedError("a countermodel must be a JSON object")
    for name in ("tree", "fmap", *_FIELD_SHAPES):
        _field(obj, "", name, _FIELD_SHAPES.get(name))
    try:
        theta = parse_ordinal(obj["theta"])
        levels = tuple(parse_ordinal(o) for o in obj["levels"])
        tree = jframe_from_json(obj["tree"], at="tree.")
        sigma = _check_sigma(obj["sigma"], len(tree.rels))
        fmap = _map_from_json(obj["fmap"])
        wit = {v: parse_ordinal(w) for v, w in obj["witnesses"]}
        algebra = {v: None if s is None else parse_bandset(s)
                   for v, s in obj["algebra"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise EmbedError(f"malformed countermodel object: {exc!r}")
    cm = Countermodel(theta, fmap, tree, sigma, wit, algebra)
    if levels != cm.space().levels:
        raise EmbedError(f"levels {obj['levels']} are not sigma {list(sigma)}")
    return cm
