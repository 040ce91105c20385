"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (bypassing
capture) and fails with a sample of the offending cases.
"""

import random

import helpers
from ordtopo.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    e_iter,
    ell_iter,
    left_subtract,
    multiply,
    ordinal_to_text,
    parse_ordinal,
)
from ordtopo.topology import (
    derived_iter,
    derived_set,
    intersect,
    interval,
    is_empty,
    member,
    member_of_derived,
    rank,
    sets_equal,
    union,
)
from ordtopo.logic import (
    PolySpace,
    check_axioms,
    eval_kripke,
    eval_topo,
    find_falsifying_valuation,
    gamma_fragment,
    parse_formula,
    tree_formula,
)
from ordtopo.jtree import as_jtree, find_jtree_model, make_jframe
from ordtopo.embed import density_witness, embed, gl_embed, product, \
    verify_countermodel

o = parse_ordinal


def report(capsys, n, desc, cases, failures):
    ok = not failures
    with capsys.disabled():
        print(f"criterion {n} ({desc}): {'PASS' if ok else 'FAIL'} "
              f"[{cases} cases, {len(failures)} failures]")
    assert ok, failures[:3]


def test_criterion_1_ordinal_laws(capsys):
    rng = random.Random(101)
    failures = []
    cases = 0
    for _ in range(10_000):
        a = helpers.random_ordinal(rng)
        b = helpers.random_ordinal(rng)
        c = helpers.random_ordinal(rng)
        cases += 3
        if add(add(a, b), c) != add(a, add(b, c)):
            failures.append(("add assoc", a, b, c))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            failures.append(("mul assoc", a, b, c))
        if parse_ordinal(ordinal_to_text(a)) != a:
            failures.append(("round trip", a))
        # totality: compare is a strict total order
        ab, ba = compare(a, b), compare(b, a)
        if ab != -ba or (ab == 0) != (a == b):
            failures.append(("compare", a, b))
        lo, mid, hi = sorted([a, b, c])
        if not (compare(lo, mid) <= 0 <= compare(hi, mid)):
            failures.append(("transitivity", a, b, c))
    report(capsys, 1, "ordinal laws", cases, failures)


def test_criterion_2_hyper_identities(capsys):
    rng = random.Random(202)
    xis = [ONE, o("2"), o("3"), OMEGA]
    failures = []
    cases = 0
    for _ in range(5_000):
        gamma = helpers.random_ordinal(rng)
        delta = helpers.random_ordinal(rng)
        if delta.is_zero():
            delta = ONE
        xi = rng.choice(xis)
        cases += 1
        if ell_iter(xi, add(gamma, delta)) != ell_iter(xi, delta):
            failures.append(("sum tail", xi, gamma, delta))
        # the product form needs ell(delta) != 0 once gamma is infinite
        if xi > ONE and not gamma.is_zero() and \
                (delta.is_limit() or gamma.is_finite()):
            if ell_iter(xi, multiply(gamma, delta)) != ell_iter(xi, delta):
                failures.append(("product tail", xi, gamma, delta))
        z = rng.randint(0, 4)
        x = rng.randint(0, z)
        if ell_iter(Ordinal.from_int(x), e_iter(z, delta)) != \
                e_iter(z - x, delta):
            failures.append(("exp inverse", x, z, delta))
        n = rng.randint(0, 3)
        if gamma < e_iter(n, delta) and \
                not ell_iter(Ordinal.from_int(n), gamma) < delta:
            failures.append(("bound", n, gamma, delta))
    report(capsys, 2, "hyper-identities", cases, failures)


def test_criterion_3_rank_vs_derived_iterates(capsys):
    w3 = o("w^3")
    full = interval(ONE, w3)
    universe = helpers.finite_universe()
    failures = []
    cases = 0
    for lam in (1, 2, 3):
        for alpha in range(6):
            it = derived_iter(full, lam, Ordinal.from_int(alpha), w3)
            for x in universe:
                cases += 1
                want = ell_iter(Ordinal.from_int(lam), x) >= \
                    Ordinal.from_int(alpha)
                if member(x, it) != want:
                    failures.append((lam, alpha, x))
    report(capsys, 3, "rank vs derived iterates", cases, failures)


def test_criterion_4_accumulation_oracle(capsys):
    rng = random.Random(404)
    universe = helpers.finite_universe()
    failures = []
    cases = 0
    for _ in range(500):
        s = helpers.random_bandset_u(rng, universe)
        s_enc = helpers.encode_bandset(s)
        lam = rng.randint(1, 3)
        for x in rng.sample(universe, 8):
            cases += 1
            want = helpers.oracle_member_of_derived(x, s_enc, lam)
            if member_of_derived(x, s, lam) != want:
                failures.append((lam, x, s))
    report(capsys, 4, "derived-set oracle", cases, failures)


def test_criterion_5_axiom_schemata(capsys):
    space = PolySpace(o("w^w*2"), (ONE, o("2")))
    rep = check_axioms(space, trials=200, seed=5)
    failures = list(rep.failures)
    probe = parse_formula("<0>p0 -> <1>p0")
    if find_falsifying_valuation(probe, space, seed=5) is None:
        failures.append(("probe <0>p0 -> <1>p0 not falsified",))
    report(capsys, 5, "axiom schemata", rep.checked + 1, failures)


def test_criterion_6_dmap_law_for_ell(capsys):
    rng = random.Random(606)
    theta = o("w^w")
    codomain_pts = [Ordinal.from_int(n) for n in range(1, 10)] + [OMEGA]
    failures = []
    for i in range(200):
        a = helpers.random_bandset_u(rng, codomain_pts, max_level=2)
        lhs = helpers.ell_preimage(derived_set(a, 1, OMEGA), theta)
        rhs = derived_set(helpers.ell_preimage(a, theta), 2, theta)
        if not sets_equal(lhs, rhs, theta):
            failures.append((i, a))
    report(capsys, 6, "d-map law for l", 200, failures)


def test_criterion_7_product_suite(capsys):
    failures = []
    cases = 0
    for ks in [("1",), ("2",), ("1", "2"), ("2", "2", "3")]:
        for lam_t in ("1", "2", "w"):
            p = product([o(k) for k in ks], o(lam_t))
            cases += 1
            kappa = p.markers[-1]
            if p.theta != multiply(multiply(kappa, OMEGA), p.lam):
                failures.append(("theta", ks, lam_t))
            disjoint = is_empty(intersect(p.x_up, p.x_down))
            covers = sets_equal(union(p.x_up, p.x_down),
                                interval(ONE, p.theta), p.theta)
            if not (disjoint and covers):
                failures.append(("partition", ks, lam_t))
            if not is_empty(p.s_set):
                failures.append(("dS nonempty", ks, lam_t))
            for i in range(50):
                cases += 1
                beta = p.cells.beta(i)
                if p.pi0.apply(beta) != p.markers[p.res(i) - 1] or \
                        p.cells.alpha(i + 1) != add(beta, ONE):
                    failures.append(("cell", ks, lam_t, i))
            gs = [Ordinal.from_int(g) for g in range(1, 21)] + [p.lam]
            ups = sorted({multiply(p.w, g) for g in gs if ONE <= g <= p.lam})
            for u in ups:
                lows = {ZERO}
                if u.is_successor():
                    lows.add(left_subtract(ONE, u))
                g = p.pi1.apply(u)
                if g.is_successor():
                    lows.add(multiply(p.w, left_subtract(ONE, g)))
                for v in lows:
                    if not v < u:
                        continue
                    for i in range(1, len(ks) + 1):
                        cases += 1
                        x = density_witness(p, i, u, v)
                        if not (v < x < u and
                                p.pi0.apply(x) == p.markers[i - 1]):
                            failures.append(("density", ks, lam_t, i, u, v))
    report(capsys, 7, "product suite", cases, failures)


CATALOG = [
    "<0><1>T",
    "<1><0>T",
    "<1>T & ~<0>p0",
    "<0>p0 & <0>~p0",
    "<0>T & [0][0]F",
]


def test_criterion_8_end_to_end_countermodels(capsys):
    from ordtopo.logic import condense

    formulas = [parse_formula(t) for t in CATALOG]
    formulas += [tree_formula(kf) for kf, _ in helpers.all_trees(4)]
    failures = []
    for phi in formulas:
        phi_c, idxs = condense(phi)
        sigma = [1 + i.to_int() for i in idxs]
        res = find_jtree_model(phi_c, 5)
        if res is None:
            failures.append(("search", phi))
            continue
        cm = embed(res.frame, sigma)
        root = as_jtree(cm.tree).root
        fiber = cm.algebra[root]
        if fiber is None or not sets_equal(
                fiber, interval(cm.theta, cm.theta), cm.theta):
            failures.append(("root fiber", phi))
        rep = verify_countermodel(cm, phi_c, t_val=res.valuation)
        if not rep.ok:
            failures.append(("verify", phi, str(rep)))
        modes = [m for n, m, _, _ in rep.checks if n.startswith("(c)")]
        if modes != ["EXACT"]:
            failures.append(("stage (c) not exact", phi, modes))
    report(capsys, 8, "end-to-end countermodels", len(formulas), failures)


def test_criterion_9_gamma_fragments(capsys):
    failures = []
    cases = 0
    for n in range(5):
        nodes = tuple(range(n + 2))
        rel = [(i, j) for i in nodes for j in nodes if i < j]
        t = make_jframe(nodes, [rel])
        theta, fmap = gl_embed(t)
        assert theta == o(f"w^{n + 1}")
        v_k = {i: frozenset({i + 1}) for i in range(n + 1)}
        v_b = {i: fmap.preimage(s) for i, s in v_k.items()}
        space = PolySpace(theta, (ONE,))
        for phi in gamma_fragment(n):
            cases += 1
            if 0 not in eval_kripke(phi, t, v_k):
                failures.append(("kripke", n, phi))
            if not member(theta, eval_topo(phi, space, v_b)):
                failures.append(("topo", n, phi))
    report(capsys, 9, "gamma fragments", cases, failures)
