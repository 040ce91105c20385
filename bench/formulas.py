"""Formulas and frames built by the benchmark itself.

Everything here is independent of `ordtopo`: formulas are nested tuples,
printed in the package's text grammar, and evaluated over finite frames by
a direct reading of the Kripke clauses.  The benchmark uses this module to
make its inputs and to derive known answers, so an error in the code under
test cannot make an input agree with itself.

A frame is `(nodes, rels)`: a tuple of ints and a list of sets of pairs,
relation k being R_k.
"""

from __future__ import annotations

import random
from itertools import permutations, product

# --- formulas ------------------------------------------------------------------------


def var(i):
    return ("p", i)


TOP, BOT = ("T",), ("F",)


def neg(f):
    return ("~", f)


def conj(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("&", out, f)
    return out


def disj(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("|", out, f)
    return out


def imp(a, b):
    return ("->", a, b)


def dia(k, f):
    return ("<>", k, f)


def box(k, f):
    return ("[]", k, f)


def text(f) -> str:
    """Fully parenthesised text in the `ordtopo` formula grammar."""
    op = f[0]
    if op == "p":
        return f"p{f[1]}"
    if op in ("T", "F"):
        return op
    if op == "~":
        return "~" + text(f[1])
    if op == "<>":
        return f"<{f[1]}>" + text(f[2])
    if op == "[]":
        return f"[{f[1]}]" + text(f[2])
    return f"({text(f[1])} {op} {text(f[2])})"


def atoms(f, acc=None) -> set:
    acc = set() if acc is None else acc
    if f[0] == "p":
        acc.add(f[1])
    for sub in f[1:]:
        if isinstance(sub, tuple):
            atoms(sub, acc)
    return acc


def holds(f, frame, val) -> frozenset:
    """The nodes of `frame` where `f` is true under `val` (atom -> node set)."""
    nodes, rels = frame
    op = f[0]
    if op == "p":
        return frozenset(val.get(f[1], ()))
    if op == "T":
        return frozenset(nodes)
    if op == "F":
        return frozenset()
    if op == "~":
        return frozenset(nodes) - holds(f[1], frame, val)
    if op in ("&", "|", "->"):
        a, b = holds(f[1], frame, val), holds(f[2], frame, val)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        return (frozenset(nodes) - a) | b
    body = holds(f[2], frame, val)
    succ = {x: {y for a, y in rels[f[1]] if a == x} for x in nodes}
    if op == "<>":
        return frozenset(x for x in nodes if succ[x] & body)
    return frozenset(x for x in nodes if succ[x] <= body)


def random_formula(rng: random.Random, n_atoms: int, n_mods: int, size: int):
    """A formula with exactly `size` connectives over p0..p{n_atoms-1}."""
    if size == 0:
        return var(rng.randrange(n_atoms)) if rng.random() < 0.85 else \
            rng.choice([TOP, BOT])
    kind = rng.randrange(4)
    if kind == 0:
        return neg(random_formula(rng, n_atoms, n_mods, size - 1))
    if kind == 1:
        maker = rng.choice([dia, box])
        return maker(rng.randrange(n_mods),
                     random_formula(rng, n_atoms, n_mods, size - 1))
    left = rng.randrange(size)
    op = rng.choice(["&", "|", "->"])
    return (op, random_formula(rng, n_atoms, n_mods, left),
            random_formula(rng, n_atoms, n_mods, size - 1 - left))


# --- frames ----------------------------------------------------------------------------


def tree_order(nodes, parent) -> set:
    """Strict (transitive) tree order from a parent map."""
    rel = set()
    for x in nodes:
        a = parent.get(x)
        while a is not None:
            rel.add((a, x))
            a = parent.get(a)
    return rel


def literal(rng: random.Random, i: int):
    return var(i) if rng.random() < 0.5 else neg(var(i))


def _parent_arrays(nodes):
    """Every rooted tree on `nodes` (in the given order) as a parent map."""
    if len(nodes) == 1:
        yield {}
        return
    for rest in _parent_arrays(nodes[:-1]):
        for p in nodes[:-1]:
            yield {**rest, nodes[-1]: p}


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def treelike_frames(n: int, n_rels: int) -> list:
    """The treelike frames on nodes 0..n-1 with one or two relations, each
    once up to the order of its nodes (every parent listed before its
    children).

    With two relations the nodes split into blocks, each block a tree under
    R_1, and the blocks form a tree under R_0, which runs from every node of
    an ancestor block to every node of a descendant block.  These are the
    treelike J-frames of the package's search, built directly.
    """
    nodes = tuple(range(n))
    seen, out = set(), []

    def tree_orders(block):  # parents precede children in `block`
        for parent in _parent_arrays(tuple(block)):
            yield frozenset(tree_order(block, parent))

    if n_rels == 1:
        for rel in tree_orders(nodes):
            if rel not in seen:
                seen.add(rel)
                out.append((nodes, [set(rel)]))
        return out
    for blocks in map(sorted, _set_partitions(list(nodes))):
        inner = [set(tree_orders(bl)) for bl in blocks]
        for block_rel in tree_orders(tuple(range(len(blocks)))):
            r0 = frozenset((x, y) for i, j in block_rel
                           for x in blocks[i] for y in blocks[j])
            for combo in product(*inner):
                key = (r0, frozenset().union(*combo))
                if key not in seen:
                    seen.add(key)
                    out.append((nodes, [set(key[0]), set(key[1])]))
    return out


def relabel(rng: random.Random, frame):
    """The same frame with its node ids permuted at random."""
    nodes, rels = frame
    perm = list(nodes)
    rng.shuffle(perm)
    m = dict(zip(nodes, perm))
    return nodes, [{(m[a], m[b]) for a, b in r} for r in rels]


def root(frame):
    nodes, rels = frame
    below = {y for r in rels for _, y in r}
    (r,) = [x for x in nodes if x not in below]
    return r


def depth(frame, x) -> int:
    """Number of nodes strictly above x in the union of the relations."""
    nodes, rels = frame
    return len({a for r in rels for a, y in r if y == x})


def isomorphic(f, g) -> bool:
    """Brute force over node bijections (frames here have at most 6 nodes)."""
    (na, ra), (nb, rb) = f, g
    if len(na) != len(nb) or len(ra) != len(rb):
        return False
    ra = [set(map(tuple, r)) for r in ra]
    rb = [set(map(tuple, r)) for r in rb]
    for perm in permutations(nb):
        m = dict(zip(na, perm))
        if all({(m[a], m[b]) for a, b in r} == s for r, s in zip(ra, rb)):
            return True
    return False


def tree_formula(frame):
    """The characterising formula of a one-relation tree, satisfiable exactly
    at its root, with atom i standing for the i-th node."""
    nodes, (lt,) = frame
    r = root(frame)
    p = {x: var(i) for i, x in enumerate(nodes)}
    others = [x for x in nodes if x != r]
    parts = [p[r]] + [neg(p[x]) for x in others] + [dia(0, p[x]) for x in others]
    parts.append(box(0, disj(*[p[x] for x in nodes])))
    parts.append(box(0, neg(p[r])))
    parts += [box(0, imp(p[s], neg(p[t]))) for s in nodes for t in nodes if s != t]
    parts += [box(0, imp(p[s], dia(0, p[t]))) for s, t in sorted(lt)]
    parts += [box(0, imp(p[s], neg(dia(0, p[t]))))
              for s in nodes for t in nodes if (s, t) not in lt]
    parts += [box(0, imp(p[t], box(0, disj(*[p[s] for s in nodes if (t, s) in lt]
                                          or [BOT]))))
              for t in nodes]
    return conj(*parts)
