"""Polymodal provability-logic formulas and their two semantics.

Formulas carry ordinal-indexed modalities [xi] / <xi>.  They can be evaluated
topologically (diamonds as derived-set operators of successive band-set
topologies) or relationally (diamonds as preimages of frame relations).
condense() renumbers the finitely many modality indices of a formula to
0..n-1 so that they address positions in a level sequence or relation list.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Tuple

from .ordinal import (
    ONE,
    OMEGA,
    Ordinal,
    OrdinalError,
    Scanner,
    ZERO,
    add,
    multiply,
    omega_pow,
    ordinal_to_text,
)
from . import topology
from .topology import BandSet, EMPTY, bandset, interval, make_band


class LogicError(Exception):
    pass


class UnboundVariable(LogicError):
    pass


class IndexOutOfRange(LogicError):
    pass


class FormulaSyntaxError(LogicError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


# --- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    def __str__(self):
        return formula_to_text(self)

    @cached_property
    def _program(self) -> "Program":
        # cached on the object, so no AST is hashed: hashing a long flat
        # chain would recurse past the interpreter's limit
        return _compile(self)


@dataclass(frozen=True)
class Var(Formula):
    index: int


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    index: Ordinal
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    index: Ordinal
    body: Formula


TOP = Top()
BOT = Bot()


def conj(parts: List[Formula]) -> Formula:
    """Conjunction of a list; the empty conjunction is T."""
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: List[Formula]) -> Formula:
    if not parts:
        return BOT
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# --- parsing / printing ---------------------------------------------------------


class _FParser(Scanner):
    """The formula grammar (README.md, "Text formats"); modality indices
    are read in place by the ordinal grammar."""

    def fail(self, msg):
        raise FormulaSyntaxError(msg, self.pos)

    def formula(self) -> Formula:
        parts = [self.disjunct()]
        while self.eat("->"):
            parts.append(self.disjunct())
        out = parts.pop()
        for left in reversed(parts):
            out = Implies(left, out)
        return out

    def disjunct(self) -> Formula:
        out = self.conjunct()
        while self.eat("|"):
            out = Or(out, self.conjunct())
        return out

    def conjunct(self) -> Formula:
        out = self.unary()
        while self.eat("&"):
            out = And(out, self.unary())
        return out

    def index(self, close: str) -> Ordinal:
        try:
            idx = self.ordinal()
        except OrdinalError as exc:  # DepthExceeded from omega_pow
            self.fail(f"bad ordinal index: {exc}")
        self.expect(close)
        return idx

    def unary(self) -> Formula:
        c = self.peek()
        if c == "p":
            self.pos += 1  # the digits follow without space
            return Var(self.nat())
        if not c or c not in "~[<(TF":
            self.fail(f"unexpected {c!r}")
        self.skip(1)
        if c == "~":
            return Not(self.inside(self.unary))
        if c == "[":
            return Box(self.index("]"), self.inside(self.unary))
        if c == "<":
            return Dia(self.index(">"), self.inside(self.unary))
        if c == "(":
            return self.inside(self.formula, ")")
        return TOP if c == "T" else BOT


def parse_formula(text: str) -> Formula:
    p = _FParser(text)
    return p.done(p.formula())


# Binary connectives: text, own precedence and the levels of the two sides;
# -> (1) < | (2) < & (3) < unary/atoms (4), so & and | group to the left and
# -> to the right.
_INFIX = {And: (" & ", 3, 3, 4), Or: (" | ", 2, 2, 3), Implies: (" -> ", 1, 2, 1)}


def formula_to_text(phi: Formula) -> str:
    """phi in the formula grammar, with the fewest parentheses; the walk
    keeps its own stack, so long chains print like short ones."""
    out: List[str] = []
    todo: list = [(phi, 1)]       # (formula, level of its context) or text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        f, level = item
        kind = type(f)
        if kind in _INFIX:
            sym, need, left, right = _INFIX[kind]
            if need < level:
                out.append("(")
                todo.append(")")
            todo += [(f.right, right), sym, (f.left, left)]
        elif kind is Var:
            out.append(f"p{f.index}")
        elif kind in (Top, Bot):
            out.append("T" if kind is Top else "F")
        elif kind is Not:
            out.append("~")
            todo.append((f.body, 4))
        elif kind in (Box, Dia):
            text = ordinal_to_text(f.index)
            out.append(f"[{text}]" if kind is Box else f"<{text}>")
            todo.append((f.body, 4))
        else:
            raise LogicError(f"unknown node {f!r}")
    return "".join(out)


def condense(phi: Formula) -> Tuple[Formula, Tuple[Ordinal, ...]]:
    """Renumber modality indices to 0..n-1, returning the original sequence
    (the mods of phi's compiled program).  The result is one shared object
    per condensed structure, so its program is compiled once however often
    the structure comes back: <3>p0 & [5]~p0 and <1>p0 & [2]~p0 both give
    the same <0>p0 & [1]~p0."""
    raw = _emit(phi)
    sigma = tuple(sorted({y for op, _, y in raw if op in (OP_DIA, OP_BOX)}))
    table = {lam: Ordinal.from_int(k) for k, lam in enumerate(sigma)}
    return _build(tuple((op, x, table[y]) if op in (OP_DIA, OP_BOX) else (op, x, y)
                        for op, x, y in raw)), sigma


@lru_cache(maxsize=topology.MEMO_SIZE)
def _build(code: tuple) -> Formula:
    """The formula of condense's renumbered instructions, built bottom-up;
    the memo key is the flat instruction tuple, so no AST is hashed."""
    built: List[Formula] = []
    for op, x, y in code:
        kind = _NODE[op]
        if op == OP_VAR:
            f = Var(x)
        elif op in (OP_TOP, OP_BOT):
            f = kind()
        elif op == OP_NOT:
            f = Not(built[x])
        elif op in (OP_DIA, OP_BOX):
            f = kind(y, built[x])
        else:
            f = kind(built[x], built[y])
        built.append(f)
    return built[-1]


# --- topological semantics --------------------------------------------------------


@dataclass(frozen=True)
class PolySpace:
    theta: Ordinal
    levels: Tuple[Ordinal, ...]

    def __post_init__(self):
        for a, b in zip(self.levels, self.levels[1:]):
            if not a < b:
                raise ValueError("levels must be strictly increasing")

    def level_at(self, idx: Ordinal) -> int:
        if not idx.is_finite() or idx.to_int() >= len(self.levels):
            raise IndexOutOfRange(f"modality index {idx} (condense first?)")
        lam = self.levels[idx.to_int()]
        if not lam.is_finite():
            raise topology.UnsupportedLevel(f"level {lam}")
        return lam.to_int()


def eval_topo(phi: Formula, space: PolySpace, v: Dict[int, BandSet]) -> BandSet:
    """The band set where phi holds; each distinct subformula is
    evaluated once, in the order of phi's compiled program."""
    prog = compile_formula(phi)
    for a in prog.atoms:
        if a not in v:
            raise UnboundVariable(f"no valuation for atom p{a}")
    levels = [space.level_at(m) for m in prog.mods]
    theta = space.theta
    vals: List[BandSet] = []
    for op, x, y in prog.code:
        if op == OP_VAR:
            out = v[prog.atoms[x]]
        elif op == OP_TOP:
            out = interval(ONE, theta)
        elif op == OP_BOT:
            out = EMPTY
        elif op == OP_NOT:
            out = topology.complement_within(vals[x], ONE, theta)
        elif op == OP_AND:
            out = topology.intersect(vals[x], vals[y])
        elif op == OP_OR:
            out = topology.union(vals[x], vals[y])
        elif op == OP_IMP:
            out = topology.union(
                topology.complement_within(vals[x], ONE, theta), vals[y])
        elif op == OP_DIA:
            out = topology.derived_set(vals[x], levels[y], theta)
        else:
            inner = topology.complement_within(vals[x], ONE, theta)
            d = topology.derived_set(inner, levels[y], theta)
            out = topology.complement_within(d, ONE, theta)
        vals.append(out)
    return vals[-1]


# --- Kripke semantics on node bitmasks ----------------------------------------------
#
# A formula is compiled once into a flat postfix program whose slots hold
# node sets as int bitmasks: node i of the frame is bit 1 << i (run_program
# packs several sets, one per block of bits, of one frame or of several).
# Each instruction (op, x, y) fills one slot from earlier ones:
#
#   OP_VAR           the mask of atom position x
#   OP_TOP, OP_BOT   all nodes, no nodes
#   OP_NOT           slot x;  OP_AND, OP_OR, OP_IMP: slots x and y
#   OP_DIA, OP_BOX   slot x through the relation at modality position y:
#                    <k>A = {a : succ_k(a) & A != 0},
#                    [k]A = {a : succ_k(a) & ~A == 0}

OP_VAR, OP_TOP, OP_BOT, OP_NOT, OP_AND, OP_OR, OP_IMP, OP_DIA, OP_BOX = range(9)

_OPCODE = {Var: OP_VAR, Top: OP_TOP, Bot: OP_BOT, Not: OP_NOT, And: OP_AND,
           Or: OP_OR, Implies: OP_IMP, Dia: OP_DIA, Box: OP_BOX}
_NODE = {op: kind for kind, op in _OPCODE.items()}


@dataclass(frozen=True)
class Program:
    """A formula compiled for bitmask evaluation; its last slot is the formula.

    Every distinct subformula has one slot.  Slots are grouped by the last
    atom position they read: the atom-free ones come first, and group k
    (the slots that read atom k and no later atom) is
    code[starts[k]:starts[k + 1]], with starts[len(atoms)] == len(code).
    tops[g] holds the top-level conjuncts in group g, sorted, each once.
    Valuation search (jtree._first_hit, under find_valuation and
    find_jtree_model) runs group 0 once and reruns group k + 1 alone for a
    new mask of a leading atom k, over the groups before it held fixed,
    meeting the group's tops; then it runs the remaining groups once,
    packed, over every valuation of the other atoms, in one frame or in
    several frames of a size at once.  eval_kripke runs the whole program
    once.  Both run it in run_program, the only relational evaluator.
    """
    code: Tuple[Tuple[int, int, int], ...]
    atoms: Tuple[int, ...]          # variable indices, ascending
    mods: Tuple[Ordinal, ...]       # modality indices, ascending
    starts: Tuple[int, ...]
    tops: Tuple[Tuple[int, ...], ...]


def _emit(phi: Formula) -> list:
    """phi's instructions in postfix order, one per distinct subformula.
    Here OP_VAR carries the variable index and OP_DIA/OP_BOX the modality
    index itself; compile_formula turns both into positions.  The walk
    keeps its own stack: a node is pushed once to expand it (its children
    go on top, the left one to be done first) and once, below them, to
    emit it after their slots are known."""
    raw: list = []
    slot_of: dict = {}
    slots: List[int] = []       # the slots of the finished subformulas
    todo: list = [(phi, False)]
    while todo:
        f, expanded = todo.pop()
        op = _OPCODE.get(type(f))
        if op is None:
            raise LogicError(f"unknown node {f!r}")
        if not expanded and op not in (OP_VAR, OP_TOP, OP_BOT):
            todo.append((f, True))
            if op in (OP_AND, OP_OR, OP_IMP):
                todo += [(f.right, False), (f.left, False)]
            else:
                todo.append((f.body, False))
            continue
        if op == OP_VAR:
            key = (OP_VAR, f.index, 0)
        elif op in (OP_TOP, OP_BOT):
            key = (op, 0, 0)
        elif op == OP_NOT:
            key = (OP_NOT, slots.pop(), 0)
        elif op in (OP_DIA, OP_BOX):
            key = (op, slots.pop(), f.index)
        else:
            right = slots.pop()
            key = (op, slots.pop(), right)
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(raw)
            raw.append(key)
        slots.append(slot)
    return raw


def compile_formula(phi: Formula) -> Program:
    """phi as a Program, compiled once per formula object."""
    if not isinstance(phi, Formula):
        raise LogicError(f"unknown node {phi!r}")
    return phi._program


def _compile(phi: Formula) -> Program:
    """phi as a Program; equal subformulas are found by hashing each
    instruction once, keyed by the slots it reads."""
    raw = _emit(phi)
    atoms = tuple(sorted({x for op, x, _ in raw if op == OP_VAR}))
    mods = tuple(sorted({y for op, _, y in raw if op in (OP_DIA, OP_BOX)}))
    atom_pos = {a: k for k, a in enumerate(atoms)}
    mod_pos = {m: k for k, m in enumerate(mods)}
    group = []                      # last atom position read, -1 for none
    for op, x, y in raw:
        if op == OP_VAR:
            group.append(atom_pos[x])
        elif op in (OP_TOP, OP_BOT):
            group.append(-1)
        elif op in (OP_AND, OP_OR, OP_IMP):
            group.append(max(group[x], group[y]))
        else:
            group.append(group[x])
    # a stable sort keeps every slot after the slots it reads
    order = sorted(range(len(raw)), key=group.__getitem__)
    new = {old: i for i, old in enumerate(order)}
    code = []
    for old in order:
        op, x, y = raw[old]
        if op == OP_VAR:
            code.append((OP_VAR, atom_pos[x], 0))
        elif op in (OP_DIA, OP_BOX):
            code.append((op, new[x], mod_pos[y]))
        elif op == OP_NOT:
            code.append((OP_NOT, new[x], 0))
        elif op in (OP_AND, OP_OR, OP_IMP):
            code.append((op, new[x], new[y]))
        else:
            code.append((op, 0, 0))
    counts = [0] * (len(atoms) + 1)
    for g in group:
        counts[g + 1] += 1
    starts = list(itertools.accumulate(counts))
    tops: List[set] = [set() for _ in starts]
    todo = [len(code) - 1]
    while todo:
        slot = todo.pop()
        op, x, y = code[slot]
        if op == OP_AND:
            todo += (x, y)
        else:
            tops[group[order[slot]] + 1].add(slot)
    return Program(tuple(code), atoms, mods, tuple(starts),
                   tuple(tuple(sorted(t)) for t in tops))


def node_bits(nodes) -> Dict:
    """Node -> its bit, by position in the node sequence."""
    return {x: 1 << i for i, x in enumerate(nodes)}


def node_mask(nodes, bit: Dict) -> int:
    out = 0
    for x in nodes:
        if x not in bit:
            raise LogicError(f"node {x!r} is not in the frame")
        out |= bit[x]
    return out


def mask_nodes(mask: int, nodes) -> FrozenSet:
    return frozenset(x for i, x in enumerate(nodes) if mask >> i & 1)


def relation_preds(frame, idx: Ordinal, bit: Dict) -> Tuple[Tuple[int, int], ...]:
    """(v, the mask of v's predecessors) for each node position v that has
    predecessors in frame's relation at modality index idx, ascending."""
    if not idx.is_finite() or idx.to_int() >= len(frame.rels):
        raise IndexOutOfRange(f"modality index {idx} (condense first?)")
    preds: Dict[int, int] = {}
    for a, b in frame.rels[idx.to_int()]:
        if a not in bit or b not in bit:
            raise LogicError(f"edge ({a!r}, {b!r}) leaves the frame")
        v = bit[b].bit_length() - 1
        preds[v] = preds.get(v, 0) | bit[a]
    return tuple(sorted(preds.items()))


def diamond_table(pairs, n: int, rep: int) -> Tuple[Tuple[int, int, int], ...]:
    """run_program's (v, mask, p) diamond table of one relation over frames
    of n nodes, pairs[f] the relation_preds of frame f: one triple per
    distinct (v, p), ascending, whose mask is rep times the sum of
    2^(f * n) over the frames f that give node v the predecessors p."""
    masks: Dict[Tuple[int, int], int] = {}
    for f, frame_pairs in enumerate(pairs):
        for vp in frame_pairs:
            masks[vp] = masks.get(vp, 0) | 1 << f * n
    return tuple((v, m * rep, p) for (v, p), m in sorted(masks.items()))


def run_program(code, start: int, stop: int, vals, atoms, preds, full: int) -> None:
    """Fill vals[start:stop] with the values of those slots of code, reading
    the earlier slots from vals.

    A value packs node sets of n nodes, one per block of n bits: bit b*n + i
    is node i in block b (one block: one node set).  atoms[k] is the value
    of atom position k and full has every bit of every block set.  preds[m]
    holds the diamond of modality position m as (v, mask, p) triples: p is
    the mask of v's predecessors, and mask has bit b*n set for each block b
    in which v has the predecessors p (mask = 1: one node set), so blocks
    may read different frames.  <k>A is the OR over the triples of
    ((A >> v) & mask) * p: the first factor has bit b*n set iff v is in
    block b of A and block b's frame gives v the predecessors p, and
    p < 2^n, so each product fills block b alone and no carry crosses a
    block.  [k]A is the complement of <k> of A's complement.
    """
    for i in range(start, stop):
        op, x, y = code[i]
        if op == OP_AND:
            vals[i] = vals[x] & vals[y]
        elif op == OP_NOT:
            vals[i] = full ^ vals[x]
        elif op == OP_DIA or op == OP_BOX:
            a = vals[x] if op == OP_DIA else full ^ vals[x]
            out = 0
            for v, m, p in preds[y]:
                out |= (a >> v & m) * p
            vals[i] = out if op == OP_DIA else full ^ out
        elif op == OP_IMP:
            vals[i] = (full ^ vals[x]) | vals[y]
        elif op == OP_OR:
            vals[i] = vals[x] | vals[y]
        elif op == OP_VAR:
            vals[i] = atoms[x]
        else:
            vals[i] = full if op == OP_TOP else 0


def eval_kripke(phi: Formula, frame, v: Dict[int, FrozenSet]) -> FrozenSet:
    """The nodes where phi holds; frame needs .nodes and .rels (a sequence
    of sets of (a, b) pairs over the nodes)."""
    prog = compile_formula(phi)
    for a in prog.atoms:
        if a not in v:
            raise UnboundVariable(f"no valuation for atom p{a}")
    nodes = tuple(frame.nodes)
    bit = node_bits(nodes)
    atoms = [node_mask(v[a], bit) for a in prog.atoms]
    preds = [diamond_table([relation_preds(frame, idx, bit)], len(nodes), 1)
             for idx in prog.mods]
    vals = [0] * len(prog.code)
    run_program(prog.code, 0, len(vals), vals, atoms, preds, (1 << len(nodes)) - 1)
    return mask_nodes(vals[-1], nodes)


# --- axiom schema testing ------------------------------------------------------------


@dataclass
class AxiomReport:
    trials: int
    checked: int = 0
    failures: List[Tuple[str, str, Dict[int, str]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        head = f"{self.checked} instances over {self.trials} valuations: "
        if self.ok:
            return head + "all valid"
        lines = [head + f"{len(self.failures)} failures"]
        for name, text, val in self.failures[:5]:
            lines.append(f"  {name}: {text} under {val}")
        return "\n".join(lines)


@lru_cache(maxsize=64)
def endpoint_pool(theta: Ordinal) -> Tuple[Ordinal, ...]:
    """Stratified endpoints: successors and limits of each rank up to 3.

    Memoised, so the result is shared: a tuple, which no caller can change."""
    seeds = []
    for k in (ZERO, ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA):
        for c in (1, 2, 3):
            seeds.append(multiply(omega_pow(k), Ordinal.from_int(c)))
    pool = set()
    for a in seeds:
        for b in seeds + [ZERO]:
            for x in (a, add(a, b), add(a, ONE), add(add(a, b), ONE)):
                if ONE <= x <= theta:
                    pool.add(x)
    pool.add(theta)
    return tuple(sorted(pool))


def random_valuation(rng: random.Random, theta: Ordinal,
                     n_vars: int = 2) -> Dict[int, BandSet]:
    pool = endpoint_pool(theta)
    bounds = [None, ZERO, ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA]
    out = {}
    for i in range(n_vars):
        bands = []
        for _ in range(rng.randint(1, 2)):
            lo, hi = sorted(rng.sample(pool, 2))
            cons = {}
            for k in (1, 2):
                if rng.random() < 0.35:
                    cons[k] = (rng.choice(bounds), rng.choice(bounds))
            bands.append(make_band(lo, hi, cons))
        out[i] = bandset(bands)
    return out


def _random_formula(rng: random.Random, n_vars: int, n_mods: int, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var(rng.randrange(n_vars)), TOP, BOT])
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_formula(rng, n_vars, n_mods, depth - 1))
    if kind in (1, 2):
        op = rng.choice([And, Or, Implies])
        return op(_random_formula(rng, n_vars, n_mods, depth - 1),
                  _random_formula(rng, n_vars, n_mods, depth - 1))
    op = rng.choice([Box, Dia])
    return op(Ordinal.from_int(rng.randrange(n_mods)),
              _random_formula(rng, n_vars, n_mods, depth - 1))


def _schema_instances(n_mods: int, phi: Formula, psi: Formula):
    for k in range(n_mods):
        xi = Ordinal.from_int(k)
        yield ("(i) distribution",
               Implies(Box(xi, Implies(phi, psi)),
                       Implies(Box(xi, phi), Box(xi, psi))))
        yield ("(ii) Lob", Implies(Box(xi, Implies(Box(xi, phi), phi)), Box(xi, phi)))
        for j in range(k + 1, n_mods):
            zeta = Ordinal.from_int(j)
            yield ("(iii) monotonicity", Implies(Box(xi, phi), Box(zeta, phi)))
            yield ("(iv) stability",
                   Implies(Dia(xi, phi), Box(zeta, Dia(xi, phi))))


def check_axioms(space: PolySpace, trials: int = 200, seed: int = 0) -> AxiomReport:
    """Validity of the four schemata under random band valuations, with
    phi and psi random formulas over p0 and p1."""
    rng = random.Random(seed)
    full = interval(ONE, space.theta)
    report = AxiomReport(trials=trials)
    n_mods = len(space.levels)
    for _ in range(trials):
        v = random_valuation(rng, space.theta, 2)
        phi = _random_formula(rng, 2, n_mods, 1)
        psi = _random_formula(rng, 2, n_mods, 1)
        for name, inst in _schema_instances(n_mods, phi, psi):
            report.checked += 1
            if not topology.sets_equal(eval_topo(inst, space, v), full, space.theta):
                report.failures.append(
                    (name, formula_to_text(inst),
                     {i: topology.bandset_to_text(s) for i, s in v.items()}))
    return report


def find_falsifying_valuation(phi: Formula, space: PolySpace, trials: int = 200,
                              seed: int = 0):
    """Random search for a band valuation of p0 where phi (over p0) is not
    valid."""
    rng = random.Random(seed)
    full = interval(ONE, space.theta)
    for _ in range(trials):
        v = random_valuation(rng, space.theta, 1)
        if not topology.sets_equal(eval_topo(phi, space, v), full, space.theta):
            return v
    return None


# --- tree-characterizing formula and the Gamma fragment --------------------------------


def tree_formula(tree) -> Formula:
    """The single-modality formula satisfiable exactly at the root of `tree`.

    `tree` needs .nodes and .rels[0] as the strict (transitive) tree order;
    variable p_i stands for the i-th node.  Satisfied at the root by the
    valuation p_i -> {node_i}.
    """
    nodes = list(tree.nodes)
    lt = set(tree.rels[0]) if tree.rels else set()
    non_roots = {b for _, b in lt}
    roots = [n for n in nodes if n not in non_roots]
    if len(roots) != 1 and len(nodes) > 1:
        raise LogicError("tree must have a unique root")
    root = roots[0] if roots else nodes[0]
    p = {n: Var(i) for i, n in enumerate(nodes)}
    z = ZERO

    def box(f):
        return Box(z, f)

    def dia(f):
        return Dia(z, f)

    parts = [p[root]]
    parts += [Not(p[s]) for s in nodes if s != root]
    parts += [dia(p[t]) for t in nodes if t != root]
    parts.append(box(disj([p[t] for t in nodes])))
    parts.append(box(Not(p[root])))
    parts += [box(Implies(p[s], Not(p[t])))
              for s in nodes for t in nodes if s != t]
    parts += [box(Implies(p[s], dia(p[t]))) for s, t in sorted(lt, key=str)
              if s in p and t in p]
    parts += [box(Implies(p[s], Not(dia(p[t]))))
              for s in nodes for t in nodes if (s, t) not in lt]
    parts += [box(Implies(p[t], box(disj([p[s] for s in nodes if (t, s) in lt]))))
              for t in nodes]
    return conj(parts)


def gamma_fragment(n: int) -> List[Formula]:
    """Dia p0 plus the first n clauses Box(p_i -> Dia p_{i+1})."""
    out: List[Formula] = [Dia(ZERO, Var(0))]
    for i in range(n):
        out.append(Box(ZERO, Implies(Var(i), Dia(ZERO, Var(i + 1)))))
    return out
