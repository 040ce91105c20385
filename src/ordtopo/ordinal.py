"""Cantor normal form arithmetic for ordinals below epsilon_0.

An ordinal is represented as a finite sum  w^e1*c1 + ... + w^ek*ck  with
strictly decreasing exponents (themselves ordinals) and positive integer
coefficients.  The empty sum is 0.  The representation is unique, so
structural equality is ordinal equality.

Ordinals are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): Ordinal(terms) returns the one live object with those
terms, so equality is identity.  Each ordinal stores its key, a nested tuple
of naturals whose tuple order is the ordinal order, and compares by it.
The intern table holds its ordinals weakly, so an ordinal that nothing else
holds leaves it: workloads that draw fresh ordinals all the time would
otherwise keep every one they ever made.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# CNF nesting cap for fuzzing safety; omega_pow enforces it.
DEPTH_CAP = 64


class OrdinalError(Exception):
    pass


class Underflow(OrdinalError):
    """left_subtract(a, b) with a > b."""


class DepthExceeded(OrdinalError):
    """CNF nesting depth went past the configured cap."""


class ZeroArgument(OrdinalError):
    """Logarithm of 0."""


class OutOfRange(OrdinalError):
    """Index outside the declared range (e.g. char_seq)."""


class OrdinalSyntaxError(OrdinalError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class Ordinal:
    """Immutable, interned CNF term.  Use normalize()/parse_ordinal() to
    build safely.

    key = ((e1.key, c1), ..., (ek.key, ck)).  Tuples compare
    lexicographically and a proper prefix is smaller, which is the CNF
    order: by exponent, then by coefficient, term by term.
    """

    __slots__ = ("terms", "depth", "key", "_hash", "__weakref__")

    def __new__(cls, terms: Tuple[Tuple["Ordinal", int], ...] = ()):
        # terms must already be in canonical order; normalize() is the
        # checked entry point for raw data.
        key = tuple([(e.key, c) for e, c in terms])
        ref = _INTERNED.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.terms = terms
        self.key = key
        self.depth = 0 if not terms else 1 + max([e.depth for e, _ in terms])
        # a finite ordinal hashes as its int: a hash that changed would change
        # the order in which sets of ordinals iterate
        finite = not terms or (len(terms) == 1 and not terms[0][0].terms)
        self._hash = hash(terms[0][1] if terms else 0) if finite else hash(key)
        ref = _Ref(self, _forget)
        ref.key = key
        _INTERNED[key] = ref
        return self

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the intern table
        return Ordinal, (self.terms,)

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def to_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1]

    def __eq__(self, other) -> bool:
        return self is other if isinstance(other, Ordinal) else NotImplemented

    def __hash__(self):
        return self._hash

    def __lt__(self, other) -> bool:
        return self.key < other.key if isinstance(other, Ordinal) else NotImplemented

    def __le__(self, other) -> bool:
        return self.key <= other.key if isinstance(other, Ordinal) else NotImplemented

    def __gt__(self, other) -> bool:
        return self.key > other.key if isinstance(other, Ordinal) else NotImplemented

    def __ge__(self, other) -> bool:
        return self.key >= other.key if isinstance(other, Ordinal) else NotImplemented

    def __str__(self) -> str:
        return ordinal_to_text(self)

    def __repr__(self) -> str:
        return f"Ordinal<{ordinal_to_text(self)}>"


class _Ref(weakref.ref):
    __slots__ = ("key",)


# key -> weak reference to the live Ordinal with that key
_INTERNED: Dict[tuple, _Ref] = {}


def _forget(ref: _Ref):
    """Drop a dead ordinal's entry, unless a newer ordinal took its place."""
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0, or 1 as a <, = or > b."""
    return (a.key > b.key) - (a.key < b.key)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    e0, c0 = b.terms[0]
    out = []
    merged = False
    for e, c in a.terms:
        if e is e0:
            out.append((e0, c + c0))
            merged = True
            break
        if e.key < e0.key:
            break
        out.append((e, c))
    if merged:
        out.extend(b.terms[1:])
    else:
        out.extend(b.terms)
    return Ordinal(tuple(out))


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with a + g = b; Underflow when a > b."""
    if a.is_zero():
        return b
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    if i == len(b.terms):
        raise Underflow(f"{a} > {b}")
    (ea, ca), (eb, cb) = a.terms[i], b.terms[i]
    if ea < eb:
        return Ordinal(b.terms[i:])
    if ea is eb and ca < cb:
        return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
    raise Underflow(f"{a} > {b}")


def multiply(a: Ordinal, b: Ordinal) -> Ordinal:
    if a.is_zero() or b.is_zero():
        return ZERO
    e0, c0 = a.terms[0]
    out = []
    for f, d in b.terms:
        if not f.is_zero():
            out.append((add(e0, f), d))
        else:
            # finite part of b is always the last term
            out.append((e0, c0 * d))
            out.extend(a.terms[1:])
    return Ordinal(tuple(out))


def omega_pow(a: Ordinal) -> Ordinal:
    if a.depth + 1 > DEPTH_CAP:
        raise DepthExceeded(f"nesting past {DEPTH_CAP}")
    return Ordinal(((a, 1),))


def normalize(raw_terms: Iterable[Tuple[Ordinal, int]]) -> Ordinal:
    """Fold an arbitrary term sequence into canonical CNF (as an ordered sum)."""
    acc = ZERO
    for e, c in raw_terms:
        if c < 0:
            raise ValueError("coefficients must be non-negative")
        if c:
            acc = add(acc, multiply(omega_pow(e), Ordinal.from_int(c)))
    return acc


def e(a: Ordinal) -> Ordinal:
    """-1 + w^a."""
    if a.is_zero():
        return ZERO
    return omega_pow(a)  # w^a is a limit, the -1 is absorbed


def e_iter(n: int, a: Ordinal) -> Ordinal:
    """e^n(a).  e(0) = 0, and e raises DepthExceeded once the nesting passes
    DEPTH_CAP, so this stops within DEPTH_CAP steps for any n."""
    if a.is_zero():
        return a
    for _ in range(n):
        a = e(a)
    return a


def ell(a: Ordinal) -> Ordinal:
    """End-logarithm: last CNF exponent."""
    if a.is_zero():
        raise ZeroArgument("ell(0)")
    return a.terms[-1][0]


def big_l(a: Ordinal) -> Ordinal:
    """Initial logarithm: first CNF exponent."""
    if a.is_zero():
        raise ZeroArgument("L(0)")
    return a.terms[0][0]


def ell_iter(xi: Ordinal, a: Ordinal) -> Ordinal:
    """Iterated end-logarithm l^xi.

    ell strictly decreases positive ordinals, so the orbit hits 0 after
    finitely many steps; every transfinite xi therefore yields 0 and the
    evaluation below is exact for all xi.
    """
    if xi.is_zero():
        return a
    steps = xi.to_int() if xi.is_finite() else None
    n = 0
    while not a.is_zero() and (steps is None or n < steps):
        a = ell(a)
        n += 1
    return a


def pounds(a: Ordinal) -> Ordinal:
    """Write a = w*(1+a0)+k and return a0; 0 whenever a <= w."""
    quot_terms = tuple(
        (left_subtract(ONE, e_), c) for e_, c in a.terms if not e_.is_zero()
    )
    quot = Ordinal(quot_terms)
    if quot.is_zero():
        return ZERO
    return left_subtract(ONE, quot)


def is_add_indec(a: Ordinal) -> bool:
    return len(a.terms) == 1 and a.terms[0][1] == 1


def is_mult_indec(a: Ordinal) -> bool:
    if a == ONE:
        return True
    return (
        is_add_indec(a)
        and is_add_indec(a.terms[0][0])
        and not a.terms[0][0].is_zero()
    )


@dataclass(frozen=True)
class CharSeqParams:
    varsigma: Ordinal
    nu: Ordinal

    def __post_init__(self):
        v = self.varsigma
        if v == ONE:
            return
        if not (v.is_limit() and is_mult_indec(v)):
            raise ValueError("varsigma must be 1 or of the form w^(w^r)")


def char_seq(params: CharSeqParams, iota: Ordinal) -> Ordinal:
    """The iota-th entry of the characteristic sequence for varsigma."""
    if params.varsigma == ONE:
        # constant-0 sequence indexed by iota < w; the range check is
        # deliberately relaxed here since every entry is 0 anyway
        return ZERO
    if iota >= params.varsigma:
        raise OutOfRange(f"{iota} >= {params.varsigma}")
    fin = 0
    quot_terms = []
    for e_, c in iota.terms:
        if e_.is_zero():
            fin = c
        else:
            quot_terms.append((left_subtract(ONE, e_), c))
    iota0 = Ordinal(tuple(quot_terms))
    return add(multiply(params.nu, iota0), Ordinal.from_int(fin))


# --- textual syntax ---------------------------------------------------------
#
# The one ordinal grammar, read by Scanner.ordinal:
#
#   sum  := prod ('+' prod)*
#   prod := atom ('*' atom)*
#   atom := nat | 'w' ('^' atom)? | '(' sum ')' | func '(' sum (',' sum)* ')'
#
# The func form exists only with a function table (the CLI's `ord`
# subcommand); parse_ordinal has none.  Formulas (logic) and band sets
# (topology) embed this grammar and read it in place with the same Scanner.
# Parsing normalizes, printing emits canonical CNF.  Exponents that are not
# a plain natural or 'w' are printed parenthesized so the round trip is exact.

# How deep '(', '^' exponents and formula prefixes may nest.  Above what
# any text the package prints needs (a CNF of depth DEPTH_CAP prints with
# 2 * DEPTH_CAP - 3 levels), and low enough that reading a text, at most
# five Python frames a level, and walking the formula it yields stay
# under Python's default recursion limit of 1000.
MAX_NESTING = 128

# Digits a numeral may have: CPython's default int() limit (3.11+), kept
# on every Python, so that a longer numeral fails alike everywhere.
MAX_DIGITS = 4300

_LETTERS = re.compile(r"[A-Za-z]*")


class Scanner:
    """A cursor over text: whitespace, tokens, naturals and ordinals.

    The cursor always rests after whitespace.  funcs maps a function name
    to (arity, function of that many ordinals).  Grammars that embed
    ordinals subclass Scanner and override fail() to raise their own
    syntax error.
    """

    def __init__(self, text: str, funcs: Optional[Dict] = None):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.funcs = funcs or {}
        self.skip(0)

    def fail(self, msg: str):
        raise OrdinalSyntaxError(msg, self.pos)

    def skip(self, n: int):
        """Move n characters on, then past whitespace."""
        pos, text = self.pos + n, self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        """The next character, "" at the end."""
        return self.text[self.pos:self.pos + 1]

    def eat(self, token: str) -> bool:
        """Consume token if it comes next."""
        if self.text.startswith(token, self.pos):
            self.skip(len(token))
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            self.fail(f"expected {token!r}")

    def nat(self) -> int:
        start, end, text = self.pos, self.pos, self.text
        while end < len(text) and "0" <= text[end] <= "9":
            end += 1
        if end == start:
            self.fail("expected a natural number")
        if end - start > MAX_DIGITS:
            self.fail(f"numeral longer than {MAX_DIGITS} digits")
        self.skip(end - start)
        return int(text[start:end])

    def inside(self, read: Callable, close: str = ""):
        """read() one nesting level deeper, then expect close (if any)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING}")
        out = read()
        self.depth -= 1
        if close:
            self.expect(close)
        return out

    def done(self, value):
        """value, provided only whitespace is left."""
        if self.peek():
            self.fail("trailing input")
        return value

    def ordinal(self) -> Ordinal:
        v = self.product()
        while self.eat("+"):
            v = add(v, self.product())
        return v

    def product(self) -> Ordinal:
        v = self.atom()
        while self.eat("*"):
            v = multiply(v, self.atom())
        return v

    def atom(self) -> Ordinal:
        ch = self.peek()
        if "0" <= ch <= "9":
            return Ordinal.from_int(self.nat())
        if ch == "w":
            self.skip(1)
            return omega_pow(self.inside(self.atom)) if self.eat("^") else OMEGA
        if ch == "(":
            self.skip(1)
            return self.inside(self.ordinal, ")")
        name = _LETTERS.match(self.text, self.pos).group()
        if name not in self.funcs:
            self.fail(f"unknown name {name!r}" if name else
                      "expected a number, 'w' or '('")
        self.skip(len(name))
        arity, fn = self.funcs[name]
        self.expect("(")
        args = self.inside(self.args, ")")
        if len(args) != arity:
            self.fail(f"expected {arity} argument(s), got {len(args)}")
        return fn(*args)

    def args(self) -> List[Ordinal]:
        out = [self.ordinal()]
        while self.eat(","):
            out.append(self.ordinal())
        return out


def parse_ordinal(text: str) -> Ordinal:
    s = Scanner(text)
    return s.done(s.ordinal())


def ordinal_to_text(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e_, c in a.terms:
        if e_.is_zero():
            parts.append(str(c))
            continue
        if e_ == ONE:
            s = "w"
        elif e_.is_finite() or e_ == OMEGA:
            s = f"w^{ordinal_to_text(e_)}"
        else:
            s = f"w^({ordinal_to_text(e_)})"
        if c > 1:
            s += f"*{c}"
        parts.append(s)
    return "+".join(parts)
