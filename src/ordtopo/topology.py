"""Definable subsets of ordinal intervals and their derived-set operators.

A Band is a closed interval [lo, hi] refined by finitely many constraints
"lower < l^k(x) <= upper", one per level k >= 1 (a level-0 constraint is just
the interval itself).  A BandSet is a finite union of bands; it is the algebra
of definable sets over a domain [1, theta], closed under boolean operations
and under the derived-set operator of every finite-level topology I_lam.

I_0 is the initial-segment topology, I_1 the order topology, and I_lam is
generated by the sets {x: c < l^k(x) <= d} for k < lam.  The rank function of
I_lam is l^lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Optional, Tuple

from .ordinal import (
    DEPTH_CAP,
    Ordinal,
    OMEGA,
    ONE,
    Scanner,
    ZERO,
    add,
    ell,
    ell_iter,
    omega_pow,
    ordinal_to_text,
)


class TopologyError(Exception):
    pass


class UnsupportedLevel(TopologyError):
    """Infinite constraint level or topology level."""


class NonStabilizing(TopologyError):
    """Limit-stage derived-set iteration failed to stabilize in time."""


class NotRepresentable(TopologyError):
    """The requested preimage is not a finite union of bands."""


# constraint bounds: None as lower means -1, None as upper means infinity
Bound = Tuple[Optional[Ordinal], Optional[Ordinal]]

# Entries per memo (make_band, the band complement and the set operations
# intersect, complement_within, subset_of, sets_equal, derived_set).  All
# are pure and their results immutable, so callers share them; a memo
# keeps its operands alive, so each one is bounded.  On bench/run.py
# countermodel (seed 1, 2-CPU container), 512 entries per set memo cost
# 1.3 MiB of peak RSS (3%) for 39% more items/s; 256 saved 0.5 MiB and
# 1,024 cost 0.5 MiB more, both for speed within the noise; 4,096 per
# memo cost 5 MiB (12%) and slowed the cli workload.
MEMO_SIZE = 512


def _cons_key(cons: Optional[Dict[int, Bound]]) -> tuple:
    return tuple(sorted(cons.items())) if cons else ()


def _sat(v: Ordinal, cons: Dict[int, Bound]) -> bool:
    for k, (c, d) in cons.items():
        val = ell_iter(Ordinal.from_int(k), v)
        if c is not None and not (c < val):
            return False
        if d is not None and not (val <= d):
            return False
    return True


def _min_sol(lo: Ordinal, hi: Optional[Ordinal], cons: Dict[int, Bound]) -> Optional[Ordinal]:
    """Least v >= lo with v <= hi (None = unbounded) meeting every constraint
    of cons, which it only reads; most calls come from memoised callers.

    If lo itself fails, every larger candidate is lo + z with z > 0 and
    l^k(lo + z) = l^k(z), so the least fix is lo + w^w0 where w0 is the least
    feasible value of l(v) for the level-shifted system.  Every ordinal
    has CNF depth at most DEPTH_CAP, so l^k is 0 for k >= DEPTH_CAP: a
    constraint there holds everywhere or, with a lower bound, nowhere.
    """
    if hi is not None and lo > hi:
        return None
    if any(k >= DEPTH_CAP and c is not None for k, (c, _) in cons.items()):
        return None
    if _sat(lo, cons):
        return lo
    c1, d1 = cons.get(1, (None, None))
    inner = {k - 1: b for k, b in cons.items() if k >= 2}
    w = _min_sol(add(c1, ONE) if c1 is not None else ZERO, d1, inner)
    if w is None:
        return None
    cand = add(lo, omega_pow(w))
    if hi is not None and cand > hi:
        return None
    return cand


@dataclass(frozen=True)
class Band:
    """[lo, hi] plus constraints lower < l^k(x) <= upper; never empty.

    Bands key every memo, so each computes its hash and its constraint
    dict once."""

    lo: Ordinal
    hi: Ordinal
    cons: Tuple[Tuple[int, Optional[Ordinal], Optional[Ordinal]], ...]

    @cached_property
    def _cons(self) -> Dict[int, Bound]:  # shared: never mutate
        return {k: (c, d) for k, c, d in self.cons}

    @cached_property
    def _hash(self) -> int:
        return hash((self.lo, self.hi, self.cons))

    def __hash__(self):
        return self._hash

    def cons_dict(self) -> Dict[int, Bound]:
        """A fresh copy of the constraints, which the caller may change."""
        return dict(self._cons)

    def member(self, x: Ordinal) -> bool:
        return self.lo <= x <= self.hi and _sat(x, self._cons)

    def min(self) -> Ordinal:
        m = _min_sol(self.lo, self.hi, self._cons)
        if m is None:  # make_band drops empty bands
            raise TopologyError(f"empty band {band_to_text(self)}")
        return m

    def __repr__(self):
        return f"Band<{band_to_text(self)}>"


@dataclass(frozen=True)
class BandSet:
    """A finite union of bands, in normal form: no band contains another
    (_band_subsumes).  bandset() normalises a list of bands; union() tests
    only the pairs across its operands, which are normal already; and a
    union of sets known to be disjoint is their concatenation, as disjoint
    non-empty bands never contain one another."""

    bands: Tuple[Band, ...]

    def __repr__(self):
        return f"BandSet<{bandset_to_text(self)}>"


EMPTY = BandSet(())


def merge_bound(a: Bound, b: Bound) -> Bound:
    lows = [x for x in (a[0], b[0]) if x is not None]
    ups = [x for x in (a[1], b[1]) if x is not None]
    return (max(lows) if lows else None, min(ups) if ups else None)


def make_band(lo: Ordinal, hi: Ordinal, cons: Dict[int, Bound] = None) -> Optional[Band]:
    """Normalize and solve; returns None when the band is empty.  A level-0
    constraint is folded into the interval before the memo is asked, so
    the memo holds one key per band."""
    if cons and 0 in cons:
        cons = dict(cons)
        c, d = cons.pop(0)
        if c is not None:
            lo = max(lo, add(c, ONE))
        if d is not None:
            hi = min(hi, d)
    return _make_band_memo(lo, hi, _cons_key(cons))


@lru_cache(maxsize=MEMO_SIZE)
def _make_band_memo(lo: Ordinal, hi: Ordinal, cons_key: tuple) -> Optional[Band]:
    # cons_key holds each level once, ascending: negative levels raise first
    clean: Dict[int, Bound] = {}
    for k, (c, d) in cons_key:
        if k < 0:
            raise UnsupportedLevel(f"level {k}")
        if c is not None and d is not None and d <= c:
            return None
        if c is not None or d is not None:
            clean[k] = (c, d)
    if lo > hi or _min_sol(lo, hi, clean) is None:
        return None
    return Band(lo, hi, tuple((k, c, d) for k, (c, d) in clean.items()))


def _band_subsumes(a: Band, b: Band) -> bool:
    """Syntactic check that a contains b."""
    if not (a.lo <= b.lo and b.hi <= a.hi):
        return False
    bc = b._cons
    for k, (c, d) in a._cons.items():
        if k not in bc:
            return False
        c2, d2 = bc[k]
        if c is not None and (c2 is None or c2 < c):
            return False
        if d is not None and (d2 is None or d2 > d):
            return False
    return True


def bandset(bands: Iterable[Optional[Band]]) -> BandSet:
    out = []
    for b in bands:
        if b is None:
            continue
        keep = []
        for o in out:  # one pass, both directions
            if _band_subsumes(o, b):
                break
            if not _band_subsumes(b, o):
                keep.append(o)
        else:
            keep.append(b)
            out = keep
    return BandSet(tuple(out))


def interval(lo: Ordinal, hi: Ordinal) -> BandSet:
    return bandset([make_band(lo, hi)])


def member(x: Ordinal, s: BandSet) -> bool:
    return any(b.member(x) for b in s.bands)


def is_empty(s: BandSet) -> bool:
    return not s.bands  # emptiness is solved eagerly on construction


def min_witness(s: BandSet) -> Optional[Ordinal]:
    if is_empty(s):
        return None
    return min(b.min() for b in s.bands)


def union(s: BandSet, t: BandSet) -> BandSet:
    """bandset(s.bands + t.bands): s and t are normal, so only the pairs
    across them are tested; a band in both is kept as s's."""
    return BandSet(
        tuple(a for a in s.bands
              if not any(_band_subsumes(b, a) and b != a for b in t.bands))
        + tuple(b for b in t.bands if not any(_band_subsumes(a, b) for a in s.bands)))


def _band_intersect(a: Band, b: Band) -> Optional[Band]:
    cons = a.cons_dict()
    for k, bound in b._cons.items():
        cons[k] = merge_bound(cons.get(k, (None, None)), bound)
    return make_band(max(a.lo, b.lo), min(a.hi, b.hi), cons)


@lru_cache(maxsize=MEMO_SIZE)
def intersect(s: BandSet, t: BandSet) -> BandSet:
    return bandset(_band_intersect(a, b) for a in s.bands for b in t.bands)


def trim_last(t: Ordinal) -> Ordinal:
    """Drop one copy of the last CNF term: mu + w^r*c -> mu + w^r*(c-1)."""
    e_, c = t.terms[-1]
    rest = t.terms[:-1]
    if c > 1:
        return Ordinal(rest + ((e_, c - 1),))
    return Ordinal(rest)


def _strict_cons(k: int, t: Ordinal) -> list:
    """Constraint dicts whose union is {x: l^k(x) < t}."""
    if t.is_zero():
        return []
    if t.is_successor():
        return [{k: (None, trim_last(t))}]
    tau = trim_last(t)
    out = [{k: (None, tau)}]
    for deep in _strict_cons(k + 1, ell(t)):
        d = dict(deep)
        d[k] = merge_bound(d.get(k, (None, None)), (tau, t))
        out.append(d)
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _band_complement(b: Band, lo: Ordinal, hi: Ordinal) -> BandSet:
    """[lo, hi] minus b: the points below b.lo, those above b.hi, and those
    that break one bound of b's constraints; make_band folds the level-0
    parts into [lo, hi]."""
    parts = _strict_cons(0, b.lo) + [{0: (b.hi, None)}]
    for k, c, d in b.cons:
        if c is not None:
            parts.append({k: (None, c)})
        if d is not None:
            parts.append({k: (d, None)})
    return bandset(make_band(lo, hi, p) for p in parts)


@lru_cache(maxsize=MEMO_SIZE)
def complement_within(s: BandSet, lo: Ordinal, hi: Ordinal) -> BandSet:
    out = interval(lo, hi)
    for b in s.bands:
        out = intersect(out, _band_complement(b, lo, hi))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def subset_of(s: BandSet, t: BandSet, theta: Ordinal) -> bool:
    """Whether the points of s in [1, theta] all lie in t."""
    return is_empty(intersect(s, complement_within(t, ONE, theta)))


@lru_cache(maxsize=MEMO_SIZE)
def sets_equal(s: BandSet, t: BandSet, theta: Ordinal) -> bool:
    return s.bands == t.bands or (subset_of(s, t, theta) and subset_of(t, s, theta))


def rank(x: Ordinal, lam: int) -> Ordinal:
    return ell_iter(Ordinal.from_int(lam), x)


def _deep_min(b: Band, lam: int) -> Optional[Ordinal]:
    """Least feasible value of l^lam on points of b, ignoring shallower levels."""
    cd = b._cons
    c0, d0 = cd.get(lam, (None, None))
    inner = {k - lam: bound for k, bound in cd.items() if k > lam}
    return _min_sol(add(c0, ONE) if c0 is not None else ZERO, d0, inner)


def _derived_band(b: Band, lam: int, theta: Ordinal) -> Optional[Band]:
    if lam == 0:
        # initial-segment topology: x is a limit of b iff some point of b
        # lies strictly below x
        return make_band(add(b.min(), ONE), theta)
    m = _deep_min(b, lam)
    if m is None:
        return None
    cons = {k: bound for k, bound in b._cons.items() if k < lam}
    cons[lam] = (m, None)
    return make_band(add(b.lo, ONE), min(b.hi, theta), cons)


@lru_cache(maxsize=MEMO_SIZE)
def derived_set(s: BandSet, lam: int, theta: Ordinal) -> BandSet:
    """Exact derived set of s in the topology I_lam over [1, theta].

    For a single band the accumulation points are exactly the x with
    lo < x <= hi, satisfying b's constraints below level lam, whose l^lam
    value strictly dominates the least l^lam value feasible for b's
    constraints at levels >= lam.  Approach at each level ksi < lam is
    always strict: near any x, the points y share x's CNF trunk and their
    l-values at every deeper level drop below x's, so a neighborhood basis
    pins l^ksi(y) into (c, l^ksi(x)) for arbitrarily large c.
    """
    if lam < 0:
        raise UnsupportedLevel(f"level {lam}")
    return bandset(_derived_band(b, lam, theta) for b in s.bands)


def _approaches(b: Band, x: Ordinal, lam: int) -> bool:
    """Pointwise: every I_lam-neighborhood of x meets b \\ {x}."""
    cd = b._cons
    lo: Optional[Ordinal] = b.lo
    hi: Optional[Ordinal] = b.hi
    t = x
    for j in range(lam):
        if not t.is_limit():
            return False
        if lo is not None and lo >= t:
            return False
        if hi is not None and hi < t:
            return False
        if j == lam - 1:
            break
        c, d = cd.get(j + 1, (None, None))
        lo = add(c, ONE) if c is not None else ZERO
        hi = d
        t = ell(t)
    m = _deep_min(b, lam)
    return m is not None and m < ell(t)


def member_of_derived(x: Ordinal, s: BandSet, lam: int) -> bool:
    if lam == 0:
        return any(b.min() < x for b in s.bands)
    return any(_approaches(b, x, lam) for b in s.bands)


def is_open(s: BandSet, lam: int, theta: Ordinal) -> bool:
    comp = complement_within(s, ONE, theta)
    return is_empty(intersect(s, derived_set(comp, lam, theta)))


def geq_set(k: int, mu: Ordinal, theta: Ordinal) -> BandSet:
    """{x in [1, theta]: l^k(x) >= mu} as a BandSet."""
    strict = bandset(make_band(ONE, theta, d) for d in _strict_cons(k, mu))
    return complement_within(strict, ONE, theta)


def _limit_band(b: Band, lam: int, theta: Ordinal) -> BandSet:
    """Intersection of the finite derived-set iterates of a single band.

    From the first derived set on, each further application only advances
    the interval's lo and the level-lam lower bound by one, so the
    omega-stage is the band with both bounds advanced by omega.
    """
    a = _derived_band(b, lam, theta)
    if a is None:
        return EMPTY
    m = next(c for k, c, d in a.cons if k == lam)
    cons = {k: (c, d) for k, c, d in a.cons if k < lam}
    tail = intersect(
        bandset([make_band(add(a.lo, OMEGA), a.hi, cons)]),
        geq_set(lam, add(m, OMEGA), theta),
    )
    return intersect(tail, bandset([b]))


def derived_iter(s: BandSet, lam: int, alpha: Ordinal, theta: Ordinal) -> BandSet:
    """d^alpha(s); the omega-limit stage is the (closed-form) intersection
    of the finite iterates.  Supported for alpha < w^2."""
    if any(e_ > ONE for e_, _ in alpha.terms):
        raise NonStabilizing(f"iteration index {alpha} beyond the omega stage")
    if lam == 0 and not alpha.is_finite():
        raise UnsupportedLevel("transfinite iteration at level 0")
    out = s
    for e_, c in alpha.terms:
        for _ in range(c):
            if e_.is_zero():
                out = derived_set(out, lam, theta)
            else:
                out = bandset(
                    bb for b in out.bands for bb in _limit_band(b, lam, theta).bands
                )
    return out


def separating_nbhd(x: Ordinal, lam: int, theta: Ordinal) -> BandSet:
    """I_lam-open band U containing x with rank(y) < rank(x) on U \\ {x}."""

    def sep_lower(t: Ordinal) -> Optional[Ordinal]:
        if t.is_zero():
            return None
        return trim_last(t)

    c0 = sep_lower(x)
    lo = add(c0, ONE) if c0 is not None else ONE
    cons = {}
    t = x
    for k in range(1, lam):
        t = ell(t) if not t.is_zero() else ZERO
        cons[k] = (sep_lower(t), t)
    return bandset([make_band(max(lo, ONE), min(x, theta), cons)])


# --- textual syntax ---------------------------------------------------------


def band_to_text(b: Band) -> str:
    parts = [f"[{ordinal_to_text(b.lo)},{ordinal_to_text(b.hi)}]"]
    for k, c, d in b.cons:
        lo = "-1" if c is None else ordinal_to_text(c)
        hi = "inf" if d is None else ordinal_to_text(d)
        parts.append(f"l^{k} in ({lo},{hi}]")
    return " & ".join(parts)


def bandset_to_text(s: BandSet) -> str:
    if is_empty(s):
        return "empty"
    return "; ".join(band_to_text(b) for b in s.bands)


class _BandScanner(Scanner):
    """The band-set grammar (README.md, "Text formats"); bounds are read
    in place by the ordinal grammar."""

    def fail(self, msg: str):
        raise TopologyError(f"{msg} at position {self.pos}")

    def band(self) -> Optional[Band]:
        self.expect("[")
        lo = self.ordinal()
        self.expect(",")
        hi = self.ordinal()
        self.expect("]")
        cons: Dict[int, Bound] = {}
        while self.eat("&"):
            self.expect("l")
            k = self.nat() if self.eat("^") else 1
            self.expect("in")
            self.expect("(")
            c = None if self.eat("-1") else self.ordinal()
            self.expect(",")
            d = None if self.eat("inf") else self.ordinal()
            self.expect("]")
            cons[k] = merge_bound(cons.get(k, (None, None)), (c, d))
        return make_band(lo, hi, cons)


def parse_bandset(text: str) -> BandSet:
    s = _BandScanner(text)
    bands = []
    if s.peek() and not s.eat("empty"):
        bands.append(s.band())
        while s.eat(";"):
            bands.append(s.band())
    return s.done(bandset(bands))
