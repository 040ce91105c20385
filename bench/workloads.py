"""The four workloads: inputs from a seed, the timed calls, and known answers.

Each workload makes one *round* of items from a `random.Random`, runs an
item through the public functions of `ordtopo` (`run`, the only timed part),
and checks the outcome against an answer fixed when the item was made
(`check`, never timed).  Every call into the package goes through
`call(name, fn, *args)`, so a traced run can record it as a span.

Known answers come from construction or from `tests/helpers.py` oracles,
never from the code under test: a J-unsatisfiable formula has no model, a
tree's characterising formula has that tree as its smallest model, GLP
monotonicity refutes `<n>psi & [m]~psi` (m < n) over the ordinals, a
corrupted countermodel must be rejected, ordinal and band results match the
dense-polynomial and accumulation oracles, and the CLI keeps its exit
contract (0 success, 1 failed verification, 2 error or unknown).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace

import formulas as F

RAISED, WRONG, OK = "raised", "wrong", "ok"


@dataclass
class Item:
    id: str
    kind: str
    data: dict
    expect: object


def load_program():
    """Import the package under test; set-up repeats this afresh."""
    import helpers
    import ordtopo.cli
    import ordtopo.embed
    import ordtopo.jtree
    import ordtopo.logic
    import ordtopo.ordinal
    import ordtopo.topology

    return SimpleNamespace(ordinal=ordtopo.ordinal, topology=ordtopo.topology,
                           logic=ordtopo.logic, jtree=ordtopo.jtree,
                           embed=ordtopo.embed, cli=ordtopo.cli, helpers=helpers)


def tally_report(tally: dict, rep) -> None:
    """Count a verify report's checks per mode."""
    for _, mode, _, _ in rep.checks:
        key = f"embed.checks.{mode}"
        tally[key] = tally.get(key, 0) + 1


def bump(tally: dict, key: str, n: int = 1) -> None:
    tally[key] = tally.get(key, 0) + n


def frame_of(jf):
    return tuple(jf.nodes), [set(r) for r in jf.rels]


# --- search: formula -> find_jtree_model -> embed -> verify -------------------------

SEARCH_CATALOG = [  # criterion 8 of the acceptance suite
    "<0><1>T",
    "<1><0>T",
    "<1>T & ~<0>p0",
    "<0>p0 & <0>~p0",
    "<0>T & [0][0]F",
]


def _index_pair(rng):
    m, n = sorted(rng.sample(range(4), 2))
    return m, n


def j_unsat(rng):
    """Formulas false in every finite J-frame, one per frame condition."""
    p, q = (F.var(i) for i in rng.sample(range(6), 2))
    k = rng.randrange(4)
    m, n = _index_pair(rng)
    psi = F.literal(rng, rng.randrange(6))
    return [
        ("unsat-seriality", F.conj(F.dia(k, F.TOP), F.box(k, F.BOT))),
        ("unsat-box-dia", F.conj(F.dia(k, psi), F.box(k, F.neg(psi)))),
        ("unsat-lob", F.conj(F.box(k, F.imp(F.box(k, p), p)), F.neg(F.box(k, p)))),
        ("unsat-transitive", F.conj(F.dia(k, F.conj(p, F.dia(k, q))),
                                    F.box(k, F.neg(q)))),
        ("unsat-cond-I", F.conj(F.dia(m, p), F.dia(n, F.box(m, F.neg(p))))),
        ("unsat-cond-J", F.conj(F.dia(m, F.dia(n, p)), F.box(m, F.neg(p)))),
    ]


def glp_gap(rng, n_atoms, indices=None):
    """J-satisfiable, but refuted over the ordinals by <n>psi -> <m>psi."""
    m, n = indices or _index_pair(rng)
    a, b = sorted(rng.sample(range(6), 2))  # the same search order for any seed
    psi = F.var(a) if n_atoms == 1 else F.conj(F.var(a), F.neg(F.var(b)))
    return F.conj(F.dia(n, psi), F.box(m, F.neg(psi)))


# Counts chosen so that the median item and the p75 tail fall inside groups
# of items of equal cost (cond-I/J and transitive); see bench/README.md.
UNSAT_PER_ROUND = {"unsat-seriality": 2, "unsat-box-dia": 4, "unsat-lob": 4,
                   "unsat-cond-I": 6, "unsat-cond-J": 6, "unsat-transitive": 10}


class Search:
    name = "search"

    def __init__(self, o):
        self.o = o

    def make_round(self, rng, small=False):
        h = self.o.helpers
        specs = [("sat-catalog", text, "pass") for text in SEARCH_CATALOG]
        for kf, _ in h.all_trees(3 if small else 4):
            frame = (tuple(kf.nodes), [set(kf.rels[0])])
            specs.append(("sat-tree", F.text(F.tree_formula(frame)), frame))
        for kind, count in UNSAT_PER_ROUND.items():
            for _ in range(1 if small else count):
                f = dict(j_unsat(rng))[kind]
                specs.append((kind, F.text(f), None))
        for i in range(2 if small else 8):
            specs.append(("glp-gap", F.text(glp_gap(rng, 1 + i % 2)), "fail-c"))
        rng.shuffle(specs)
        items = []
        for i, (kind, text, expect) in enumerate(specs):
            phi, idxs = self.o.logic.condense(self.o.logic.parse_formula(text))
            sigma = tuple(1 + x.to_int() for x in idxs)
            items.append(Item(f"s{i}", kind, {"text": text, "phi": phi,
                                               "sigma": sigma}, expect))
        return items

    def run(self, item, call):
        o, d = self.o, item.data
        res = call("jtree.find_jtree_model", o.jtree.find_jtree_model, d["phi"], 5)
        if res is None:
            return None
        cm = call("embed.embed", o.embed.embed, res.frame, d["sigma"])
        rep = call("embed.verify_countermodel", o.embed.verify_countermodel,
                   cm, d["phi"], t_val=res.valuation)
        return res, rep

    def check(self, item, out, call, tally):
        if out is None:
            bump(tally, "jtree.unknown")
            return item.expect is None
        if item.expect is None:
            return False
        res, rep = out
        tally_report(tally, rep)
        bump(tally, "jtree.model_nodes", len(res.frame.nodes))
        got = call("logic.eval_kripke", self.o.logic.eval_kripke,
                   item.data["phi"], res.frame, res.valuation)
        frame = frame_of(res.frame)
        if res.node not in got or res.node != F.root(frame):
            return False
        if item.expect == "fail-c":
            bad = [name for name, _, ok, _ in rep.checks if not ok]
            return bool(bad) and all(name.startswith("(c)") for name in bad)
        if item.expect != "pass" and not F.isomorphic(frame, item.expect):
            return False
        return rep.ok


# --- countermodel: frame -> embed -> cm.json -> verify ------------------------------


def height4_tree():
    """0 > 1 > 2 > 3 > {4, 5}: branching below height 3, theta = w^4."""
    nodes = tuple(range(6))
    return nodes, [F.tree_order(nodes, {1: 0, 2: 1, 3: 2, 4: 3, 5: 3})]


SIGMAS2 = ((1, 2), (1, 3), (2, 3))


def true_at_root(rng, frame):
    """A formula and valuation true at the root of the frame.

    The formula uses only the top modality: the countermodel map is a d-map
    for the top relation, so truth at the root carries over to theta.  Lower
    modalities are read over the ordinals with more accessibility than the
    frame's own R_k (see the `glp-gap` items of the search workload).
    """
    r, top = F.root(frame), len(frame[1]) - 1
    f = _reindex(F.random_formula(rng, 2, 1, 5), rng, (top,))
    val = {i: frozenset(x for x in frame[0] if rng.random() < 0.5) for i in range(2)}
    if r not in F.holds(f, frame, val):
        f = F.neg(f)
    return f, {i: val[i] for i in F.atoms(f)}


def rename_nodes(obj, ren):
    """Rename node ids wherever a countermodel map's JSON names them."""
    if isinstance(obj, list):
        return [rename_nodes(x, ren) for x in obj]
    if not isinstance(obj, dict):
        return obj
    out = {}
    for key, val in obj.items():
        if key in ("root", "node"):
            out[key] = ren.get(val, val)
        elif key in ("nodes", "alpha"):
            out[key] = [ren.get(x, x) for x in val]
        else:
            out[key] = rename_nodes(val, ren)
    return out


def corrupt(obj, how, swap, rng):
    """A countermodel JSON object that no longer describes a valid model."""
    obj = json.loads(json.dumps(obj))
    if how == "swap-fibers":
        ren = {swap[0]: swap[1], swap[1]: swap[0]}
        obj["fmap"] = rename_nodes(obj["fmap"], ren)
        obj["algebra"] = [[ren.get(v, v), s] for v, s in obj["algebra"]]
    elif how == "tamper-witness":
        a, b = rng.sample(obj["tree"]["nodes"], 2)
        wit = dict(obj["witnesses"])
        obj["witnesses"] = [[v, wit[b] if v == a else w] for v, w in obj["witnesses"]]
    elif how == "theta-up":
        obj["theta"] += "+1"
    elif how == "theta-down":
        obj["theta"] = rng.choice([w for _, w in obj["witnesses"] if w != obj["theta"]])
    return obj


CORRUPTIONS = ("swap-fibers", "tamper-witness", "theta-up", "theta-down")


class Countermodel:
    name = "countermodel"

    def __init__(self, o):
        self.o = o

    def make_round(self, rng, small=False):
        """Every treelike frame on up to 5 nodes (one relation) or 4 nodes (two
        relations), with σ fixed by its position, so every round costs about
        the same; the seed relabels the nodes and draws formulas, valuations
        and corruptions."""
        frames = [(f, (1,) if i % 2 else (2,))
                  for i, f in enumerate(self.frames(1, 3 if small else 5))]
        frames += [(f, SIGMAS2[i % 3])
                   for i, f in enumerate(self.frames(2, 3 if small else 4))]
        specs = [("model", F.relabel(rng, f), sigma, None) for f, sigma in frames]
        specs.append(("model-height4", F.relabel(rng, height4_tree()), (1,), None))
        for how in CORRUPTIONS:  # once on a plain rank map, once on two relations
            specs.append((how, F.relabel(rng, F.treelike_frames(3, 1)[1]), (1,), how))
            specs.append((how, F.relabel(rng, F.treelike_frames(3, 2)[3]), (1, 2), how))
        rng.shuffle(specs)
        items = []
        for i, (kind, frame, sigma, how) in enumerate(specs):
            f, val = true_at_root(rng, frame)
            swap = None
            if how == "swap-fibers":
                r = F.root(frame)
                deeper = [x for x in frame[0] if F.depth(frame, x) > 0]
                swap = (r, rng.choice(deeper))
            jf = self.o.jtree.make_jframe(frame[0], [sorted(r) for r in frame[1]])
            items.append(Item(f"c{i}", kind, {
                "frame": jf, "sigma": sigma, "how": how, "swap": swap,
                "phi": self.o.logic.parse_formula(F.text(f)), "val": val,
                "rng_seed": rng.random()}, "reject" if how else "pass"))
        return items

    def frames(self, n_rels, max_nodes):
        return [f for n in range(2, max_nodes + 1) for f in F.treelike_frames(n, n_rels)]

    def run(self, item, call):
        o, d = self.o, item.data
        cm = call("embed.embed", o.embed.embed, d["frame"], d["sigma"])
        obj = call("embed.countermodel_to_json", o.embed.countermodel_to_json, cm)
        if d["how"]:
            obj = corrupt(obj, d["how"], d["swap"], random.Random(d["rng_seed"]))
        blob = json.dumps(obj, sort_keys=True)
        cm2 = call("embed.countermodel_from_json", o.embed.countermodel_from_json,
                   json.loads(blob))
        rep = call("embed.verify_countermodel", o.embed.verify_countermodel,
                   cm2, d["phi"], t_val=d["val"])
        return cm, obj, rep

    def check(self, item, out, call, tally):
        cm, obj, rep = out
        tally_report(tally, rep)
        bump(tally, "embed.fiber_bands",
             sum(len(s.bands) for s in cm.algebra.values() if s is not None))
        if item.expect == "reject":
            return not rep.ok
        e = self.o.embed
        again = call("embed.countermodel_to_json", e.countermodel_to_json,
                     call("embed.countermodel_from_json", e.countermodel_from_json, obj))
        return rep.ok and again == obj


# --- algebra: ordinals, band sets, topological evaluation ---------------------------

W3_TEXT = "w^3"
SPACES = [("w^3", (1, 2)), ("w^w*2", (1, 2)), ("w^2*3", (1, 2)), ("w^w", (1, 3))]


def enc_iterates(h, x):
    """(y, l y, l^2 y, l^3 y) on the oracle's integer encoding of x <= w^3."""
    k = h.enc(x)
    out = [k]
    for _ in range(3):
        if k == h._W3KEY:
            k = 3
        elif k % 100:
            k = 0
        elif (k // 100) % 100:
            k = 1
        else:
            k = 2 if k else 0
        out.append(k)
    return out


def enc_member(yk, s_enc) -> bool:
    for lo, hi, cons in s_enc:
        if lo <= yk[0] <= hi and all(c < yk[k] <= (10**9 if d is None else d)
                                     for k, c, d in cons):
            return True
    return False


def poly_ell_iter(h, xi, cs):
    """l^xi on the dense-polynomial representation (finite exponents)."""
    for _ in range(xi):
        if h.poly_deg(cs) < 0:
            break
        low = min(k for k, c in enumerate(cs) if c)
        cs = [0] * h.POLY_DEG
        cs[0] = low
    return cs


def glp_theorem(rng, m, n):
    """An instance of a GLP theorem with indices m < n (valid over the
    ordinals, so its value is the whole space)."""
    psi = F.random_formula(rng, 2, 1, 2)
    psi = _reindex(psi, rng, (m, n))
    k = rng.choice((m, n))
    return rng.choice([
        F.imp(F.box(k, F.imp(F.box(k, psi), psi)), F.box(k, psi)),
        F.imp(F.box(m, psi), F.box(n, psi)),
        F.imp(F.dia(m, psi), F.box(n, F.dia(m, psi))),
        F.imp(F.dia(n, psi), F.dia(m, psi)),
    ])


def _reindex(f, rng, idxs):
    if f[0] in ("<>", "[]"):
        return (f[0], rng.choice(idxs), _reindex(f[2], rng, idxs))
    return tuple(_reindex(x, rng, idxs) if isinstance(x, tuple) else x for x in f)


class Algebra:
    name = "algebra"

    def __init__(self, o):
        self.o = o
        self.universe = o.helpers.finite_universe()
        self.w3 = o.ordinal.parse_ordinal(W3_TEXT)

    def make_round(self, rng, small=False):
        """About 250 items: many cheap ordinal cases, fewer band-set and
        `eval_topo` cases, and one `check_axioms` call."""
        o, h = self.o, self.o.helpers
        nat = o.ordinal.Ordinal.from_int
        scale = 1 if small else 4
        specs = []
        for _ in range(40 * scale):
            xi = rng.randint(0, 3)
            specs.append(("ordinal-oracle", {
                "a": h.random_poly_ordinal(rng), "b": h.random_poly_ordinal(rng),
                "xi": xi, "xi_o": nat(xi)}))
        for _ in range(15 * scale):
            specs.append(("ordinal-laws", {"abc": [h.random_ordinal(rng) for _ in range(3)]}))
        for _ in range(4 * scale):
            specs.append(("bands", {
                "s": h.random_bandset_u(rng, self.universe),
                "t": h.random_bandset_u(rng, self.universe),
                "lam": rng.randint(1, 3), "xs": rng.sample(self.universe, 4)}))
        for _ in range(2 * scale):
            alpha = rng.randint(0, 5)
            specs.append(("derived-iter", {
                "lam": rng.randint(1, 3), "alpha": alpha, "alpha_o": nat(alpha),
                "xs": rng.sample(self.universe, 4)}))
        for theta, levels in SPACES:
            space = self.space(theta, levels)
            for _ in range(1 if small else 2):
                m, n = _index_pair(rng)
                specs.append(("eval-topo", {
                    "text": F.text(glp_theorem(rng, m, n)), "space": space,
                    "v": o.logic.random_valuation(rng, space.theta, 2)}))
        theta, levels = rng.choice(SPACES)
        specs.append(("check-axioms", {"space": self.space(theta, levels),
                                       "seed": rng.randrange(10**6)}))
        rng.shuffle(specs)
        return [Item(f"a{i}", kind, d, True) for i, (kind, d) in enumerate(specs)]

    def space(self, theta, levels):
        nat = self.o.ordinal.Ordinal.from_int
        return self.o.logic.PolySpace(self.o.ordinal.parse_ordinal(theta),
                                      tuple(nat(x) for x in levels))

    def run(self, item, call):
        o, d = self.o, item.data
        ordn, top, lg = o.ordinal, o.topology, o.logic
        if item.kind == "ordinal-oracle":
            a, b = d["a"], d["b"]
            text = call("ordinal.ordinal_to_text", ordn.ordinal_to_text, a)
            return (call("ordinal.parse_ordinal", ordn.parse_ordinal, text),
                    call("ordinal.compare", ordn.compare, a, b),
                    call("ordinal.add", ordn.add, a, b),
                    call("ordinal.multiply", ordn.multiply, a, b),
                    call("ordinal.ell_iter", ordn.ell_iter, d["xi_o"], a))
        if item.kind == "ordinal-laws":
            a, b, c = d["abc"]
            add, mul = ordn.add, ordn.multiply
            return (call("ordinal.add", add, call("ordinal.add", add, a, b), c),
                    call("ordinal.add", add, a, call("ordinal.add", add, b, c)),
                    call("ordinal.multiply", mul, call("ordinal.multiply", mul, a, b), c),
                    call("ordinal.multiply", mul, a, call("ordinal.multiply", mul, b, c)),
                    call("ordinal.parse_ordinal", ordn.parse_ordinal,
                         call("ordinal.ordinal_to_text", ordn.ordinal_to_text, a)),
                    call("ordinal.compare", ordn.compare, a, b),
                    call("ordinal.compare", ordn.compare, b, a))
        if item.kind == "bands":
            s, t, w3 = d["s"], d["t"], self.w3
            return (call("topology.intersect", top.intersect, s, t),
                    call("topology.union", top.union, s, t),
                    call("topology.complement_within", top.complement_within,
                         s, ordn.ONE, w3),
                    call("topology.derived_set", top.derived_set, s, d["lam"], w3))
        if item.kind == "derived-iter":
            full = top.interval(ordn.ONE, self.w3)
            return call("topology.derived_iter", top.derived_iter, full, d["lam"],
                        d["alpha_o"], self.w3)
        if item.kind == "eval-topo":
            phi = call("logic.parse_formula", lg.parse_formula, d["text"])
            phi_c, _ = call("logic.condense", lg.condense, phi)
            return call("logic.eval_topo", lg.eval_topo, phi_c, d["space"], d["v"])
        return call("logic.check_axioms", lg.check_axioms, d["space"], trials=1,
                    seed=d["seed"])

    def check(self, item, out, call, tally):
        o, h, d = self.o, self.o.helpers, item.data
        top = o.topology
        if item.kind == "ordinal-oracle":
            back, cmp_, s, m, l = out
            pa, pb = h.poly_of(d["a"]), h.poly_of(d["b"])
            return (back == d["a"] and cmp_ == h.poly_cmp(pa, pb)
                    and h.poly_of(s) == h.poly_add(pa, pb)
                    and h.poly_of(m) == h.poly_mul(pa, pb)
                    and h.poly_of(l) == poly_ell_iter(h, d["xi"], pa))
        if item.kind == "ordinal-laws":
            s1, s2, m1, m2, back, ab, ba = out
            return s1 == s2 and m1 == m2 and back == d["abc"][0] and \
                ab == -ba and (ab == 0) == (d["abc"][0] == d["abc"][1])
        if item.kind == "bands":
            bump(tally, "topology.bands_out", sum(len(x.bands) for x in out))
            inter, uni, comp, der = (h.encode_bandset(x) for x in out)
            s_enc, t_enc = h.encode_bandset(d["s"]), h.encode_bandset(d["t"])
            for x in d["xs"]:
                yk = enc_iterates(h, x)
                in_s, in_t = enc_member(yk, s_enc), enc_member(yk, t_enc)
                if (enc_member(yk, inter) != (in_s and in_t)
                        or enc_member(yk, uni) != (in_s or in_t)
                        or enc_member(yk, comp) == in_s
                        or enc_member(yk, der) != h.oracle_member_of_derived(
                            x, s_enc, d["lam"])):
                    return False
            w3, one = self.w3, o.ordinal.ONE
            lhs = call("topology.complement_within", top.complement_within,
                       out[1], one, w3)
            rhs = call("topology.intersect", top.intersect, out[2],
                       call("topology.complement_within", top.complement_within,
                            d["t"], one, w3))
            return call("topology.sets_equal", top.sets_equal, lhs, rhs, w3)
        if item.kind == "derived-iter":
            bump(tally, "topology.bands_out", len(out.bands))
            it_enc = h.encode_bandset(out)
            return all(enc_member(enc_iterates(h, x), it_enc)
                       == (enc_iterates(h, x)[d["lam"]] >= d["alpha"])
                       for x in d["xs"])
        if item.kind == "eval-topo":
            bump(tally, "topology.bands_out", len(out.bands))
            theta = d["space"].theta
            full = top.interval(o.ordinal.ONE, theta)
            return call("topology.sets_equal", top.sets_equal, out, full, theta)
        return out.ok


# --- cli: in-process `ordtopo` commands with captured output ------------------------


def poly_text(h, cs) -> str:
    """Canonical CNF text of a dense polynomial, written from its digits."""
    parts = []
    for k in range(h.POLY_DEG - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        s = "w" if k == 1 else f"w^{k}"
        parts.append(s + (f"*{c}" if c > 1 else ""))
    return "+".join(parts) or "0"


# parent of node c + 1, for each rooted tree shape on 3 and 4 nodes, then the
# 5-node chain
TREE_SHAPES = [(0, 0), (0, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2),
               (0, 1, 2, 3)]


class Cli:
    name = "cli"

    def __init__(self, o, workdir):
        self.o = o
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def make_round(self, rng, small=False):
        h = self.o.helpers
        chains = []

        def one(argv, code, want=None):
            return [(argv, code, want)]

        for _ in range(2 if small else 4):
            pa, pb = (h.poly_of(h.random_poly_ordinal(rng, max_deg=4)) for _ in range(2))
            ta, tb = poly_text(h, pa), poly_text(h, pb)
            chains.append(one(["ord", f"{ta} + {tb}", "--json"], 0,
                              {"value": poly_text(h, h.poly_add(pa, pb))}))
            chains.append(one(["ord", f"({ta})*({tb})", "--json"], 0,
                              {"value": poly_text(h, h.poly_mul(pa, pb))}))
        big = poly_text(h, h.poly_of(h.random_poly_ordinal(rng)))
        chains.append(one(["ord", f"sub(w^6+{rng.randint(1, 9)}, {big})"], 2))
        chains.append(one(["ord", f"{big} +"], 2))
        k = rng.randint(1, 4)
        lam = rng.randint(1, 3)
        chains.append(one(["band", f"[1,w^{k}]", "--derive", str(lam),
                           "--theta", f"w^{k}", "--json"], 0,
                          {"empty": lam > 1, "min": "w" if lam == 1 else None}))
        chains.append(one(["band", f"[1,w^{k}"], 2))
        for _ in range(2 if small else 3):
            closed = _close(glp_theorem(rng, 0, 1))  # `eval` takes indices as given
            levels = ",".join(str(x) for x in sorted(rng.sample(range(1, 4), 2)))
            theta = rng.choice(["w^2", "w^3", "w^w"])
            chains.append(one(["eval", F.text(closed), "--theta", theta,
                               "--levels", levels, "--json"], 0,
                              {"empty": False, "theta_member": True}))
            chains.append(one(["eval", F.text(F.neg(closed)), "--theta", theta,
                               "--levels", levels, "--json"], 0,
                              {"empty": True, "theta_member": False}))
        tag = rng.randrange(10**9)
        for i, sat in enumerate(SEARCH_CATALOG[:2] if small else SEARCH_CATALOG):
            chains.append(self.search_chain(f"sat{tag}-{i}", sat, (0, 0, 0)))
        for i, (_, f) in enumerate(j_unsat(rng)[:3]):  # the cheap J-unsat kinds
            chains.append(self.search_chain(f"uns{tag}-{i}", F.text(f), (2,)))
        chains.append(self.search_chain(f"gap{tag}", F.text(glp_gap(rng, 1, (0, 1))),
                                        (0, 0, 1)))
        # every tree shape on 3 and 4 nodes, and the 5-node chain, whose
        # stage (a) tries thousands of valuations; labels are seeded
        for i, parents in enumerate(TREE_SHAPES[:2] if small else TREE_SHAPES):
            nodes = list(range(len(parents) + 1))
            rng.shuffle(nodes)
            parent = {nodes[c + 1]: nodes[p] for c, p in enumerate(parents)}
            frame = (tuple(sorted(nodes)), [F.tree_order(nodes, parent)])
            chains.append(self.tree_chain(f"tree{tag}-{i}", frame))
        rng.shuffle(chains)
        items = []
        for chain in chains:
            for argv, code, want in chain:
                items.append(Item(f"k{len(items)}", "cli." + argv[0],
                                  {"argv": argv, "want": want}, code))
        return items

    def search_chain(self, tag, text, codes):
        tree, cm = self.path(tag + ".tree.json"), self.path(tag + ".cm.json")
        steps = [(["search", text, "--out", tree], codes[0], None)]
        if len(codes) > 1:
            steps.append((["embed", "--tree", tree, "--sigma", "@" + tree, "--out", cm],
                          codes[1], None))
            steps.append((["verify", text, "--cm", cm, "--json"], codes[2], None))
        return steps

    def tree_chain(self, tag, frame):
        tree, cm = self.path(tag + ".tree.json"), self.path(tag + ".cm.json")
        nodes, (rel,) = frame
        with open(tree, "w") as fh:
            json.dump({"nodes": list(nodes), "rels": [sorted(map(list, rel))]}, fh)
        return [(["embed", "--tree", tree, "--sigma", "1", "--out", cm], 0, None),
                (["verify", F.text(F.tree_formula(frame)), "--cm", cm, "--json"], 0,
                 None),
                (["verify", "[0]F", "--cm", cm, "--json"], 1, None)]

    def run(self, item, call):
        argv = list(item.data["argv"])
        if "--sigma" in argv:
            i = argv.index("--sigma") + 1
            if argv[i].startswith("@"):  # sigma printed by the search step
                try:
                    with open(argv[i][1:]) as fh:
                        argv[i] = ",".join(map(str, json.load(fh)["sigma"]))
                except (OSError, ValueError, KeyError):
                    argv[i] = "1"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call(f"cli.main.{argv[0]}", self.o.cli.main, argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out, call, tally):
        code, stdout, stderr = out
        bump(tally, f"cli.exit.{code}")
        if item.kind == "cli.verify" and stdout.startswith("{"):
            for _, mode, _, _ in json.loads(stdout)["checks"]:
                bump(tally, f"embed.checks.{mode}")
        if code != item.expect or "Traceback" in stderr:
            return False
        want = item.data["want"]
        if item.kind == "cli.search" and code == 0:
            return self.search_output_holds(item.data["argv"], call)
        if want is None:
            return True
        got = json.loads(stdout)
        return all(got[k] == v for k, v in want.items())

    def search_output_holds(self, argv, call):
        """The model written by `search` satisfies the formula at its node."""
        with open(argv[argv.index("--out") + 1]) as fh:
            rec = json.load(fh)
        lg = self.o.logic
        frame = self.o.jtree.jframe_from_json(rec["frame"])
        phi = lg.condense(lg.parse_formula(argv[1]))[0]
        val = {int(i): frozenset(ns) for i, ns in rec["valuation"].items()}
        return rec["node"] in call("logic.eval_kripke", lg.eval_kripke, phi, frame, val)


def _close(f):
    """Replace atoms by T or F so that `eval` needs no valuation file."""
    if f[0] == "p":
        return F.TOP if f[1] % 2 else F.BOT
    return tuple(_close(x) if isinstance(x, tuple) else x for x in f)


WORKLOADS = {"search": Search, "countermodel": Countermodel, "algebra": Algebra,
             "cli": Cli}
