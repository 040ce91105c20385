import dataclasses
import functools
import hashlib
import itertools
import json
import random
import time

import pytest

import helpers
from ordtopo import embed as embed_module
from ordtopo import jtree as jtree_module
from ordtopo import logic as logic_module
from ordtopo.embed import (
    CaseIIMap,
    ComposeMap,
    ConstMap,
    EllIter,
    EmbedError,
    EmptyTree,
    GLEmbedMap,
    NotAJTree,
    NotRepresentable,
    Tiling,
    UnsupportedSigma,
    _ord_divmod,
    _split_at,
    countermodel_from_json,
    countermodel_to_json,
    countermodel_valuation,
    density_witness,
    embed,
    gl_embed,
    product,
    transfer_truth,
    verify_countermodel,
)
from ordtopo.jtree import (
    InvalidFrame,
    JFrame,
    block_table,
    find_jtree_model,
    frame_ranks,
    as_jtree,
    jmap_check,
    make_jframe,
)
from ordtopo.logic import (
    PolySpace,
    _random_formula,
    endpoint_pool,
    eval_topo,
    parse_formula,
    tree_formula,
)
from ordtopo.ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    add,
    e_iter,
    ell_iter,
    left_subtract,
    multiply,
    omega_pow,
    parse_ordinal,
)
from ordtopo.topology import (
    EMPTY,
    bandset_to_text,
    derived_set,
    intersect,
    interval,
    is_empty,
    is_open,
    member,
    min_witness,
    parse_bandset,
    sets_equal,
    trim_last,
    union,
)

o = parse_ordinal
f = parse_formula


def frame(nodes, *rels):
    return make_jframe(nodes, rels)


# --- ordinal helpers ----------------------------------------------------------------


def test_ord_divmod_properties():
    rng = random.Random(11)
    for _ in range(300):
        p = helpers.random_ordinal(rng, depth=2, max_coeff=4)
        if p.is_zero():
            continue
        q0 = rng.randint(0, 30)
        rem0 = helpers.random_ordinal(rng, depth=2, max_coeff=4)
        while not rem0 < p:
            rem0 = helpers.random_ordinal(rng, depth=1, max_coeff=2)
            if rem0 >= p:
                rem0 = ZERO
        x = add(multiply(p, Ordinal.from_int(q0)), rem0)
        q, rem = _ord_divmod(x, p)
        assert add(multiply(p, Ordinal.from_int(q)), rem) == x
        assert rem < p


TILINGS = [("1",), ("2", "3"), ("w",), ("1", "w"), ("w", "1"), ("3", "w", "2"),
           ("w^2", "w+1", "w*2"), ("w^w", "1", "w^2+5")]


def test_tiling_locate_and_start_match_a_walk():
    # lay the tiles one at a time over three periods; each tile's first,
    # last and some interior points must come back as (q, i, offset)
    for texts in TILINGS:
        lengths = [o(t) for t in texts]
        tiles = Tiling(lengths)
        top = ZERO
        for q in range(3):
            for i, n in enumerate(lengths):
                assert tiles.start(q, i) == top, (texts, q, i)
                offsets = {ONE, n} | {d for d in (o("2"), OMEGA, o("w+1"), o("w^2"))
                                      if ONE < d < n}
                for d in offsets:
                    assert tiles.locate(add(top, d)) == (q, i, d), (texts, q, i, d)
                top = add(top, n)
        assert top == multiply(tiles.period, Ordinal.from_int(3))


# sha256 of countermodel_to_json and of fmap.apply on endpoint_pool(theta) for
# the first labelled frame of each shape below (the search's frame table when
# the digest was recorded), recorded before the segmented maps (rank blocks,
# product cells, side-by-side parts) shared one Tiling; verify rows are left
# out, as making periodic fibers exact changes them by design
EMBED_DIGEST = "02320b82bd25aa36c23b41baf90c2e64ab40c0c2ec22c112df461556dfa47271"


def test_embed_outputs_match_the_recorded_digest():
    h, models = hashlib.sha256(), 0
    for n_rels, max_nodes, sigmas in ((1, 5, [(1,), (2,)]),
                                      (2, 4, [(1, 2), (1, 3), (2, 3)])):
        for n in range(1, max_nodes + 1):
            for t in helpers.first_of_each_shape(n, n_rels):
                for sigma in sigmas:
                    cm = embed(t, sigma)
                    h.update(json.dumps(countermodel_to_json(cm),
                                        sort_keys=True).encode())
                    for x in endpoint_pool(cm.theta):
                        h.update(repr(cm.fmap.apply(x)).encode())
                    models += 1
    assert (models, h.hexdigest()) == (115, EMBED_DIGEST)


def test_split_at():
    x = o("w^(w+1)*2+w^w*3+w*4+5")
    gamma, u = _split_at(x, o("w"))
    assert gamma == o("w*2+3") and u == o("w*4+5")
    gamma, u = _split_at(o("7"), ONE)
    assert gamma.is_zero() and u == o("7")


# --- the base embedding ---------------------------------------------------------------


def test_gl_embed_single_node():
    th, fm = gl_embed(frame("r", []))
    assert th == ONE
    assert fm.apply(ONE) == "r"
    assert sets_equal(fm.preimage(["r"]), interval(ONE, ONE), ONE)


def test_gl_embed_two_chain():
    th, fm = gl_embed(frame("ra", [("r", "a")]))
    assert th == OMEGA
    assert fm.apply(o("5")) == "a" and fm.apply(OMEGA) == "r"
    assert sets_equal(fm.preimage(["r"]), interval(OMEGA, OMEGA), OMEGA)
    rep = jmap_check(fm, PolySpace(OMEGA, (ONE,)), frame("ra", [("r", "a")]))
    assert rep.ok, str(rep)


def test_gl_embed_fan_alternates():
    th, fm = gl_embed(frame("rab", [("r", "a"), ("r", "b")]))
    assert th == OMEGA
    assert [fm.apply(Ordinal.from_int(n)) for n in range(1, 7)] == \
        ["a", "b", "a", "b", "a", "b"]
    assert fm.apply(OMEGA) == "r"
    # a single branch mixes positions of one rank class: no band preimage
    with pytest.raises(NotRepresentable):
        fm.preimage(["a"])
    # but the whole rank class is a band
    assert sets_equal(fm.preimage(["a", "b"]),
                      eval_topo(f("~<0>T"), PolySpace(OMEGA, (ONE,)), {}),
                      OMEGA)


def test_gl_embed_three_chain():
    t = frame("rab", [("r", "a"), ("r", "b"), ("a", "b")])
    th, fm = gl_embed(t)
    assert th == o("w^2")
    rep = jmap_check(fm, PolySpace(th, (ONE,)), t)
    assert rep.ok, str(rep)
    assert fm.apply(o("w*3")) == "a" and fm.apply(o("w*3+1")) == "b"


def test_gl_embed_rank_agrees_with_logarithm():
    for kf, _root in helpers.all_trees(4):
        t = JFrame(kf.nodes, kf.rels)
        th, fm = gl_embed(t)
        for x in endpoint_pool(th):
            assert fm.node_rank[fm.apply(x)] == ell_iter(ONE, x).to_int()


def test_gl_embed_errors():
    with pytest.raises(EmptyTree):
        gl_embed(JFrame((), (frozenset(),)))
    with pytest.raises(NotAJTree):
        gl_embed(frame("r", [], []))
    # a and b share the successor c: valid, connected, but not a tree
    with pytest.raises(InvalidFrame, match="frame is not treelike"):
        gl_embed(frame("abc", [("a", "c"), ("b", "c")]))


@pytest.mark.parametrize("t,sigma", [
    (frame("rab", [("r", "a"), ("r", "b")]), (1,)),
    (frame("abcdef", [(a, b) for a, b in itertools.combinations("abcde", 2)]
           + [(x, "f") for x in "abcd"]), (1,)),          # height 4, branching
    (frame("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
           [("a", "b"), ("c", "d")]), (1, 2)),            # two relations
])
def test_validation_runs_at_most_twice_per_entry_point(monkeypatch, t, sigma):
    # embed() and countermodel_from_json each validate once, in as_jtree;
    # the recursion of _embed reads the tree's split, and verify_countermodel
    # and jmap_check read the checked tree without validating again
    calls = []
    real = jtree_module.validate_jframe

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(jtree_module, "validate_jframe", counted)
    cm = embed(t, sigma)
    assert len(calls) == 1
    cm2 = countermodel_from_json(json.loads(json.dumps(countermodel_to_json(cm))))
    assert len(calls) == 2
    assert verify_countermodel(cm, f("T")).ok and verify_countermodel(cm2, f("T")).ok
    assert len(calls) == 2
    # a search result is a tree already: neither the search nor the embed
    # and verify of its result validate
    calls.clear()
    phi = f("<0>p0 & <0>~p0 & <1>T")
    res = find_jtree_model(phi, 4)
    verify_countermodel(embed(res.frame, (1, 2)), phi, t_val=res.valuation)
    assert calls == []


# --- the product structure -------------------------------------------------------------


KAPPA_LISTS = [("1",), ("2",), ("1", "2"), ("2", "2", "3"), ("w",), ("2", "w")]
LAMBDAS = ["1", "2", "w"]


def test_product_goldens():
    p = product([ONE], ONE)
    assert (p.xi, p.theta) == (ONE, OMEGA)
    assert sets_equal(p.x_up, interval(OMEGA, OMEGA), OMEGA)
    assert p.pi1.apply(OMEGA) == ONE
    p = product([o("2")], OMEGA)
    assert p.theta == o("w^2")
    assert p.pi1.apply(o("w*3")) == o("3")
    p = product([ONE, o("2")], ONE)
    assert p.theta == OMEGA
    assert [str(k) for k in p.markers] == ["1", "3"]


def test_product_rejects_bad_input():
    with pytest.raises(Exception):
        product([], ONE)
    with pytest.raises(Exception):
        product([o("2"), ONE], ONE)  # not ascending
    with pytest.raises(Exception):
        product([ONE], ZERO)


def test_product_partition_and_cells():
    for ks in KAPPA_LISTS:
        for lam_t in LAMBDAS:
            p = product([o(k) for k in ks], o(lam_t))
            kappa = p.markers[-1]
            assert p.theta == multiply(multiply(kappa, OMEGA), p.lam)
            assert is_empty(intersect(p.x_up, p.x_down))
            assert sets_equal(union(p.x_up, p.x_down),
                              interval(ONE, p.theta), p.theta)
            assert is_open(p.x_up, 2, p.theta)
            assert is_open(p.x_down, 2, p.theta)
            assert is_empty(p.s_set), (ks, lam_t)
            m = p.cells.m
            for i in range(3 * m + 2):
                a, b = p.cells.alpha(i), p.cells.beta(i)
                assert p.cells.alpha(i + 1) == add(b, ONE)
                assert p.cells.locate(a) == (i, a, b)
                assert p.cells.locate(b) == (i, a, b)
                assert p.pi0.apply(a) == ONE
                assert p.pi0.apply(b) == p.markers[p.res(i) - 1]


def test_product_period_translates():
    p = product([o("2"), o("w")], o("2"))
    m = p.cells.m
    for q in range(4):
        assert p.cells.alpha(m * q) == \
            add(ONE, multiply(p.cells.tiles.period, Ordinal.from_int(q)))
    # block translates: the cell pattern repeats above each multiple of w^xi
    a0, b0 = p.cells.alpha(1), p.cells.beta(1)
    a1, b1 = p.cell(1, ONE)
    assert (a1, b1) == (add(p.w, a0), add(p.w, b0))
    assert p.pi0.apply(b1) == p.pi0.apply(b0)


def test_pi0_preserves_logarithms_pointwise():
    for ks in [("2",), ("1", "2"), ("2", "w")]:
        p = product([o(k) for k in ks], o("2"))
        for x in endpoint_pool(p.theta):
            if not member(x, p.x_down):
                continue
            y = p.pi0.apply(x)
            assert ONE <= y <= p.markers[-1]
            for k in ("1", "2", "3"):
                assert ell_iter(o(k), x) == ell_iter(o(k), y), (ks, x)


def test_pi0_preimage_matches_pointwise_membership():
    rng = random.Random(21)
    p = product([o("2"), o("w")], o("2"))
    uni = helpers.finite_universe()
    pts = endpoint_pool(p.theta)
    for _ in range(40):
        s = helpers.random_bandset_u(rng, [u for u in uni if u <= p.markers[-1]])
        try:
            pre = p.pi0.preimage_set(s)
        except NotRepresentable:
            continue
        for x in pts:
            want = member(x, p.x_down) and member(p.pi0.apply(x), s)
            assert member(x, pre) == want, (s, x)


def test_pi0_position_dependent_set_rejected():
    p = product([ONE, o("2")], ONE)
    helpers.clear_memos()
    p.pi0.preimage_set(interval(ONE, o("3")))  # position-free: memoised
    for _ in range(2):  # an exception is not memoised
        with pytest.raises(NotRepresentable):
            p.pi0.preimage_set(interval(o("2"), o("2")))  # {2} inside [1,3]
    assert embed_module._pi0_preimage.cache_info().currsize == 1


def test_pi1_preimage_exact():
    p = product([o("2")], OMEGA)
    # whole codomain pulls back to the whole upper part
    assert sets_equal(p.pi1.preimage_set(interval(ONE, p.lam)), p.x_up, p.theta)
    # limit stages of [1, lam] pull back to the non-isolated upper points
    d1 = derived_set(interval(ONE, p.lam), 1, p.lam)
    pre = p.pi1.preimage_set(d1)
    for x in endpoint_pool(p.theta):
        want = member(x, p.x_up) and member(p.pi1.apply(x), d1)
        assert member(x, pre) == want, x


def test_density_witnesses():
    # infinite successor lambdas: the block just below w^xi*(w+1) is w^xi*w
    for ks in KAPPA_LISTS:
        for lam_t in LAMBDAS + ["w+1", "w*2"]:
            p = product([o(k) for k in ks], o(lam_t))
            ups = {multiply(p.w, g) for g in (ONE, o("2"), p.lam)
                   if ONE <= g <= p.lam}
            for u in ups:
                lows = [ZERO, left_subtract(ONE, u) if u.is_successor() else
                        multiply(p.w, trim_last(p.pi1.apply(u)))
                        if p.pi1.apply(u).is_successor() else ZERO]
                for v in {q for q in lows if q < u}:
                    for i in range(1, len(ks) + 1):
                        x = density_witness(p, i, u, v)
                        assert v < x < u
                        assert p.pi0.apply(x) == p.markers[i - 1]


def test_density_witness_outside_the_neighborhood_raises():
    p = product([ONE], o("2"))
    assert density_witness(p, 1, p.theta, ZERO) < p.theta
    # blocks of w^2 no longer fit the cells laid out for blocks of w
    bad = dataclasses.replace(p, w=omega_pow(o("2")))
    with pytest.raises(EmbedError, match="outside"):
        density_witness(bad, 1, p.theta, ZERO)


# --- ordinal-valued map expressions -----------------------------------------------------


def test_ell_iter_map_matches_oracle():
    rng = random.Random(5)
    theta = o("w^(w^w)")
    em = EllIter(1, theta)
    uni = helpers.finite_universe()
    pts = endpoint_pool(theta)
    for _ in range(60):
        s = helpers.random_bandset_u(rng, uni)
        pre = em.preimage_set(s)
        want = helpers.ell_preimage(s, theta)
        assert sets_equal(pre, want, theta), bandset_to_text(s)
    for x in pts:
        assert member(em.apply(x), interval(ONE, theta)) or True
        # the floor: orbit values of 0 land on 1
        assert em.apply(ONE) == ONE


def test_ell_iter_two_steps_pointwise():
    em = EllIter(2, o("w^(w^w)"))
    pts = endpoint_pool(o("w^(w^w)"))
    for s_text in ["[1,5]", "[1,w] & l^1 in (0,2]", "[w,w*7]"]:
        from ordtopo.topology import parse_bandset
        s = parse_bandset(s_text)
        pre = em.preimage_set(s)
        for x in pts:
            assert member(x, pre) == member(em.apply(x), s), (s_text, x)


# --- the recursive embedding ------------------------------------------------------------


def test_embed_validation():
    with pytest.raises(EmptyTree):
        embed(JFrame((), ()), ())
    with pytest.raises(UnsupportedSigma):
        embed(frame("r", []), ())
    with pytest.raises(UnsupportedSigma):
        embed(frame("ra", [("r", "a")]), (0,))
    with pytest.raises(UnsupportedSigma):
        embed(frame("ra", [("r", "a")], []), (2, 2))
    with pytest.raises(UnsupportedSigma):
        embed(frame("ra", [("r", "a")]), (OMEGA,))
    with pytest.raises(NotAJTree):
        embed(frame("abc", [("a", "c"), ("b", "c")]), (1,))
    with pytest.raises(NotAJTree):
        embed(frame("xyz", [("x", "y")], [("y", "z")]), (1, 2))


def test_embed_single_node():
    cm = embed(frame("r"), ())
    assert cm.theta == ONE
    cm = embed(frame("r", []), (1,))
    assert cm.theta == ONE
    assert cm.fmap.apply(ONE) == "r"
    assert jmap_check(cm.fmap, cm.space(), cm.tree).ok


def test_embed_two_chain():
    cm = embed(frame("ra", [("r", "a")]), (1,))
    assert cm.theta == OMEGA
    assert sets_equal(cm.algebra["r"], interval(OMEGA, OMEGA), OMEGA)
    assert jmap_check(cm.fmap, cm.space(), cm.tree).ok


def test_embed_sigma_lift():
    cm = embed(frame("ra", [("r", "a")]), (2,))
    assert cm.theta == o("w^w")
    assert cm.fmap.apply(cm.theta) == "r"
    assert sets_equal(cm.algebra["r"], interval(cm.theta, cm.theta), cm.theta)
    rep = jmap_check(cm.fmap, cm.space(), cm.tree)
    assert rep.ok, str(rep)
    # witnesses lift through the hyperexponential
    base = embed(frame("ra", [("r", "a")]), (1,))
    for v, w in base.witnesses.items():
        assert cm.witnesses[v] == e_iter(1, w)


def test_embed_three_node_two_levels():
    # a sees b and c at level 0; b sees c at level 1
    t = frame("abc", [("a", "b"), ("a", "c")], [("b", "c")])
    cm = embed(t, (1, 2))
    assert cm.theta == o("w^(w+1)")
    assert all(s is not None for s in cm.algebra.values())
    assert sets_equal(cm.algebra["a"], interval(cm.theta, cm.theta), cm.theta)
    rep = jmap_check(cm.fmap, cm.space(), cm.tree)
    assert rep.ok, str(rep)
    rep = verify_countermodel(cm, f("<0><1>T"))
    assert rep.ok, str(rep)


def test_embed_limit_lambda():
    # r and s share the level-0 successor b; r sees s at level 1
    t = frame("rsb", [("r", "b"), ("s", "b")], [("r", "s")])
    cm = embed(t, (1, 2))
    assert cm.theta == o("w^w")
    assert all(s is not None for s in cm.algebra.values())
    rep = jmap_check(cm.fmap, cm.space(), cm.tree)
    assert rep.ok, str(rep)


def test_embed_case_one():
    # empty first relation: lifted by one logarithm
    t = frame("rs", [], [("r", "s")])
    cm = embed(t, (1, 2))
    assert cm.theta == o("w^w")
    assert sets_equal(cm.algebra["r"], interval(cm.theta, cm.theta), cm.theta)
    assert jmap_check(cm.fmap, cm.space(), cm.tree).ok


def test_preimages_are_unions_of_band_fibers():
    # jmap_check reads the preimage of a node set as the union of its
    # fibers when they are all band sets; the map itself must agree
    checked = 0
    for n_rels, sigmas in ((1, [(1,), (2,)]), (2, [(1, 2), (1, 3), (2, 3)])):
        frames = [JFrame(tuple(range(n)), rels) for n in range(1, 5)
                  for rels in helpers.jtree_rels(tuple(range(n)), n_rels)]
        for i, t in enumerate(frames):
            cm = embed(t, sigmas[i % len(sigmas)])
            fiber = cm.algebra
            for r in range(len(t.nodes) + 1):
                for s in itertools.combinations(t.nodes, r):
                    if any(fiber[x] is None for x in s):
                        continue
                    got = functools.reduce(union, (fiber[x] for x in s), EMPTY)
                    assert sets_equal(got, cm.fmap.preimage(s), cm.theta), (t, s)
                    checked += 1
    assert checked > 400


def test_embedded_small_jtrees_pass_the_exact_openness_check():
    opened = 0
    for m in (1, 2, 3):
        for lift in (0, 1):
            sigma = tuple(range(1 + lift, m + 1 + lift))
            for n in range(1, 4):
                for rels in helpers.jtree_rels(tuple(range(n)), m):
                    cm = embed(JFrame(tuple(range(n)), rels), sigma)
                    rep = jmap_check(cm.fmap, cm.space(), cm.tree)
                    assert rep.ok, (rels, sigma, str(rep))
                    opened += ("(j2) openness", "EXACT", True, "") in rep.checks
    assert opened > 40


def small_models(m, lift):
    """Every treelike frame on <= 4 nodes with m relations, embedded at
    sigma = (1 + lift, ..., m + lift)."""
    sigma = tuple(range(1 + lift, m + 1 + lift))
    for n in range(1, 5):
        for rels in helpers.jtree_rels(tuple(range(n)), m):
            yield embed(JFrame(tuple(range(n)), rels), sigma)


def j1_row(rep):
    return next(c for c in rep.checks if c[0].startswith("(j1) d-map law"))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lift", [0, 1])
def test_block_table_against_the_subset_oracle(m, lift):
    multi = 0
    for cm in small_models(m, lift):
        t, space = cm.tree, cm.space()
        counted = helpers.Counting(cm.fmap)
        rep = jmap_check(counted, space, t)
        assert rep.ok, (t, str(rep))
        # (j1) passes exactly when no subset fails the reference loop
        assert j1_row(rep)[2] == (not helpers.j1_failures(cm.fmap, space, t))
        # n fibers and the rank upsets rho = 0 .. h+1, and nothing else
        h = max(frame_ranks(t, m - 1).values())
        assert counted.calls == len(t.nodes) + h + 2, t
        # every band preimage is a union of blocks and their preimages
        _, table = block_table(cm.fmap, space, t)
        multi += any(len(b) > 1 for b, _ in table)
        for r in range(len(t.nodes) + 1):
            for s in map(frozenset, itertools.combinations(t.nodes, r)):
                try:
                    want = cm.fmap.preimage(s)
                except NotRepresentable:
                    continue
                assert all(b <= s or not b & s for b, _ in table), (t, s)
                got = functools.reduce(union, (pb for b, pb in table if b <= s), EMPTY)
                assert sets_equal(got, want, cm.theta), (t, s)
    assert multi > 0


@pytest.mark.parametrize("nodes,rels", [
    ("ra", [("r", "a")]),                 # 2-chain
    ("rab", [("r", "a"), ("r", "b")]),    # fan: a and b share a rank class
])
def test_block_table_on_mutant_maps(nodes, rels):
    cm = embed(frame(nodes, rels), (1,))
    mutants = [helpers.Mutant(cm.fmap, {a: b, b: a})
               for a, b in itertools.combinations(nodes, 2)]
    for x in map(o, ("1", "2", "w")):
        mutants += [helpers.Mutant(cm.fmap, x=x, to=y) for y in nodes
                    if cm.fmap.apply(x) != y]
    caught = 0
    for mut in mutants:
        rep = jmap_check(mut, cm.space(), cm.tree)
        oracle_ok = not helpers.j1_failures(mut, cm.space(), cm.tree)
        rank_ok = ("(j1) rank preservation", "EXACT", True, "") in rep.checks
        # the rank row licenses the rank-band blocks; where it holds, (j1)
        # agrees with the subset loop, and a failing subset always fails
        if rank_ok:
            assert j1_row(rep)[2] == oracle_ok, (mut.swap, mut.x, mut.to)
        assert oracle_ok or not rep.ok
        caught += not rep.ok
    assert caught > 0
    # swapping the root with a branch leaves no subset the loop can read,
    # but the exact rank row still fails the map
    if nodes == "rab":
        for y in "ab":
            mut = helpers.Mutant(cm.fmap, {"r": y, y: "r"})
            assert not helpers.j1_failures(mut, cm.space(), cm.tree)
            assert not jmap_check(mut, cm.space(), cm.tree).ok


def test_rank_row_is_exact_beyond_the_map():
    # theta-up on a two-relation model: the point w^w+1 has no image
    obj = countermodel_to_json(embed(frame((0, 1, 2), [(0, 1), (2, 1)], [(0, 2)]),
                                     (1, 2)))
    assert obj["theta"] == "w^w"
    obj["theta"] = "w^w+1"
    cm = countermodel_from_json(obj)
    rep = jmap_check(cm.fmap, cm.space(), cm.tree)
    assert ("(j1) rank preservation", "EXACT", False,
            "f^-1(rank >= 0) differs from l^2 >= 0 at x=w^w+1") in rep.checks
    assert not verify_countermodel(cm, f("<0>T")).ok


@pytest.mark.parametrize("nodes,rels,sigma,kind", [
    ("r", [[]], (1,), ConstMap),
    ("ra", [[("r", "a")]], (1,), GLEmbedMap),
    ("ra", [[("r", "a")]], (2,), ComposeMap),
    ((0, 1, 2), [[(0, 1), (2, 1)], [(0, 2)]], (1, 2), CaseIIMap),
])
def test_apply_rejects_points_outside_the_domain(nodes, rels, sigma, kind):
    cm = embed(frame(nodes, *rels), sigma)
    assert type(cm.fmap) is kind
    assert cm.fmap.apply(cm.theta) == as_jtree(cm.tree).root
    for x in (ZERO, add(cm.theta, ONE)):
        with pytest.raises(ValueError, match="outside"):
            cm.fmap.apply(x)


def test_embed_root_fiber_all_small_trees():
    for kf, root in helpers.all_trees(4):
        cm = embed(JFrame(kf.nodes, kf.rels), (1,))
        assert cm.fmap.apply(cm.theta) == root
        fib = cm.algebra[root]
        assert fib is not None
        assert sets_equal(fib, interval(cm.theta, cm.theta), cm.theta), kf
        for v, w in cm.witnesses.items():
            assert cm.fmap.apply(w) == v


def test_embed_theta_bound():
    for t, sigma in [(frame("ra", [("r", "a")]), (3,)),
                     (frame("abc", [("a", "b"), ("a", "c")], [("b", "c")]),
                      (2, 4))]:
        cm = embed(t, sigma)
        height = len(t.nodes) * (max(sigma) + 1) + 2
        assert cm.theta < e_iter(height, ONE)


# --- valuations and verification ---------------------------------------------------------


def test_countermodel_valuation_goldens():
    cm = embed(frame("ra", [("r", "a")]), (1,))
    v = countermodel_valuation(cm, {0: {"r"}})
    assert sets_equal(v[0], interval(OMEGA, OMEGA), OMEGA)
    assert countermodel_valuation(cm, {}) == {}
    v = countermodel_valuation(cm, {0: {"r", "a"}})
    assert sets_equal(v[0], interval(ONE, OMEGA), OMEGA)
    v = countermodel_valuation(cm, {0: set()})
    assert is_empty(v[0])


def test_countermodel_valuation_not_representable():
    cm = embed(frame("rab", [("r", "a"), ("r", "b")]), (1,))
    with pytest.raises(NotRepresentable):
        countermodel_valuation(cm, {0: {"a"}})


def test_verify_two_chain():
    cm = embed(frame("ra", [("r", "a")]), (1,))
    rep = verify_countermodel(cm, f("<0>T"))
    assert rep.ok, str(rep)
    assert any(name.startswith("(c)") and mode == "EXACT"
               for name, mode, ok, _ in rep.checks)
    rep = verify_countermodel(cm, f("T"))
    assert rep.ok


def test_verify_branching_uses_the_transfer():
    cm = embed(frame("rab", [("r", "a"), ("r", "b")]), (1,))
    rep = verify_countermodel(cm, f("<0>p0 & <0>~p0"))
    assert rep.ok, str(rep)
    modes = {name: mode for name, mode, _, _ in rep.checks}
    assert modes["(c) theta satisfies phi"] == "EXACT"
    assert any(mode == "SKIPPED" for _, mode, _, _ in rep.checks)


def test_transfer_fan_goldens():
    # alternating fibers a, b on the finite points; fiber of r is {w}.  The
    # valuation splits the rank class {a, b}, so stage (c) reads phi at
    # f(w) = r on the fan; a false phi is checked through its negation,
    # which holds at the root.
    cm = embed(frame("rab", [("r", "a"), ("r", "b")]), (1,))
    val = {0: frozenset("r"), 1: frozenset("a"), 2: frozenset("b")}
    cases = [
        ("[0](p1 -> <0>p2)", False),  # p1-points are isolated
        ("[0](p1 -> ~<0>p2)", True),
        ("<0>p1 & <0>p2", True),      # both fibers cofinal in w
        ("<0>p0", False),             # {w} does not accumulate anywhere
        ("[0][0]F", True),            # everything below w is isolated
        ("<0><0>T", False),
        ("[0](p1 | p2)", True),
        ("[0]p1", False),
    ]
    detail = "f(theta) = 'r' on the map's own tree"
    for txt, want in cases:
        assert transfer_truth(cm, f(txt), val) == (want, detail), txt
        rep = verify_countermodel(cm, f(txt if want else f"~({txt})"), t_val=val)
        assert rep.checks[-1] == ("(c) theta satisfies phi", "EXACT", True,
                                  detail), txt


def rank_class_valuation(rng, cm, n_atoms):
    """Each atom's support a union of rank classes of the tree (so its
    preimage is a band set) or, half the time, any set of nodes."""
    ranks = frame_ranks(cm.tree, 0)
    out = {}
    for i in range(n_atoms):
        if rng.random() < 0.5:
            hit = {r for r in set(ranks.values()) if rng.random() < 0.5}
            out[i] = frozenset(x for x in cm.tree.nodes if ranks[x] in hit)
        else:
            out[i] = frozenset(x for x in cm.tree.nodes if rng.random() < 0.5)
    return out


@pytest.mark.parametrize("sigma", [(1,), (2,), (3,)])
def test_transfer_agrees_with_band_evaluation(sigma):
    """Wherever the valuation is band-representable, phi read at f(x) on the
    map's own tree equals membership of x in eval_topo's band set, at
    x = theta and at every witness point (a smaller theta, which only
    localises).  The one-node tree embeds by a constant map, not a rank map."""
    rng = random.Random(f"transfer:{sigma}")
    compared = 0
    for kf, _ in helpers.all_trees(5)[1:]:
        cm = embed(kf, sigma)
        for _ in range(4):
            phi = _random_formula(rng, 2, 1, 4)
            val = rank_class_valuation(rng, cm, 2)
            try:
                bands = countermodel_valuation(cm, val)
            except NotRepresentable:
                continue
            got = eval_topo(phi, cm.space(), bands)
            for x in {cm.theta, *cm.witnesses.values()}:
                holds, _ = transfer_truth(dataclasses.replace(cm, theta=x), phi, val)
                assert holds == member(x, got), (kf, sigma, phi, val, x)
                compared += 1
    assert compared > 150


def test_transfer_needs_the_map_level_and_its_domain():
    # sigma = (1, 2) with R_0 empty: a rank map lifted by l, read at level 2
    cm = embed(frame("ra", [], [("r", "a")]), (1, 2))
    val = {0: frozenset("a")}
    assert transfer_truth(cm, f("<1>p0"), val) == (
        True, "f(theta) = 'r' on the map's own tree")
    assert transfer_truth(cm, f("<0>p0"), val) is None
    assert transfer_truth(cm, f("p0 | ~p0"), val)[0]
    up = dataclasses.replace(cm, theta=add(cm.theta, ONE))
    assert transfer_truth(up, f("<0>p0"), val) == (
        False, "theta w^w+1 is outside [1, w^w]")


def test_transfer_reads_a_formula_without_modalities_on_one_node():
    # sigma = (1, 2) with R_1 empty: no rank map, and {r, a} splits the rank
    # class {a, b}, so stage (c) reads p0 at f(theta) alone
    cm = embed(frame("rab", [("r", "a"), ("r", "b")], []), (1, 2))
    rep = verify_countermodel(cm, f("p0"), t_val={0: frozenset("ra")})
    assert rep.ok
    assert rep.checks[-1] == ("(c) theta satisfies phi", "EXACT", True,
                              "f(theta) = 'r' on one node, as phi has no modality")


@pytest.fixture
def compiled(monkeypatch):
    """The formulas compiled from here on, one entry per compilation."""
    seen = []
    real = logic_module._compile

    def counted(phi):
        seen.append(phi)
        return real(phi)

    monkeypatch.setattr(logic_module, "_compile", counted)
    return seen


def test_verify_compiles_its_formula_once(compiled):
    # stage (a) searches, stage (c) reads band sets
    rep = verify_countermodel(embed(frame("ra", [("r", "a")]), (1,)), f("<0>p0 & ~p0"))
    assert rep.ok and rep.checks[-1][1:3] == ("EXACT", True)
    assert len(compiled) == 1
    # stage (a) evaluates the given valuation, stage (c) reads phi on the
    # map's own tree
    cm = embed(frame("rab", [("r", "a"), ("r", "b")]), (1,))
    val = {0: frozenset("r"), 1: frozenset("a"), 2: frozenset("b")}
    phi = f("<0>p1 & <0>p2")
    rep = verify_countermodel(cm, phi, t_val=val)
    assert rep.ok and rep.checks[-1][3] == "f(theta) = 'r' on the map's own tree"
    assert transfer_truth(cm, phi, val) == (True, rep.checks[-1][3])
    assert len(compiled) == 2


def test_search_embed_verify_compiles_once(compiled):
    phi = f("<0>(p0 & <1>T) & ~p0")
    res = find_jtree_model(phi, 5)
    rep = verify_countermodel(embed(res.frame, (1, 2)), phi)
    assert rep.ok and compiled == [phi]


MAP_CHECK_REPORTS = [
    # every fiber is a band set: the full (j1)-(j4) rows
    (frame("ra", [("r", "a")]), (1,), [
        ("(a) satisfied at the root", "EXACT", True, ""),
        ("(b) root fiber is {theta}", "EXACT", True, ""),
        ("(b) (j1) d-map law", "EXACT", True, "2 fibers"),
        ("(b) (j1) rank preservation", "EXACT", True, ""),
        ("(b) (j2) openness", "EXACT", True, ""),
        ("(b) witness table", "EXACT", True, "2 nodes"),
        ("(c) theta satisfies phi", "EXACT", True, "[2,w] & l^1 in (0,inf]"),
    ]),
    # the fibers of a and b split a rank class: one block {a, b}, no (j2) row
    (frame("rab", [("r", "a"), ("r", "b")]), (1,), [
        ("(a) satisfied at the root", "EXACT", True, ""),
        ("(b) root fiber is {theta}", "EXACT", True, ""),
        ("(b) fiber representability", "SKIPPED", True,
         "no band fibers for ['a', 'b']"),
        ("(b) (j1) d-map law on representable subsets", "EXACT-WHERE-DEFINED",
         True, "multi-node blocks ['a', 'b']; 0 skipped"),
        ("(b) (j1) rank preservation", "EXACT", True, ""),
        ("(b) witness table", "EXACT", True, "3 nodes"),
        ("(c) theta satisfies phi", "EXACT", True, "[2,w] & l^1 in (0,inf]"),
    ]),
    # (j3) rows whose sets split a block and (j4) rows of the missing
    # fibers are SKIPPED
    (frame((0, 1, 2), [(0, 1), (0, 2)], [], []), (1, 2, 3), [
        ("(a) satisfied at the root", "EXACT", True, ""),
        ("(b) root fiber is {theta}", "EXACT", True, ""),
        ("(b) fiber representability", "SKIPPED", True,
         "no band fibers for [1, 2]"),
        ("(b) (j1) d-map law on representable subsets", "EXACT-WHERE-DEFINED",
         True, "multi-node blocks [1, 2]; 0 skipped"),
        ("(b) (j1) rank preservation", "EXACT", True, ""),
        ("(b) (j3) root 0 at level 0", "EXACT", True, ""),
        ("(b) (j4) fiber of 0 discrete at level 0", "EXACT", True, ""),
        ("(b) (j3) root 0 at level 1", "EXACT", True, ""),
        ("(b) (j4) fiber of 0 discrete at level 1", "EXACT", True, ""),
        ("(b) (j3) root 1 at level 1", "SKIPPED", True,
         "[1] splits the block [1, 2]"),
        ("(b) (j4) fiber of 1 at level 1", "SKIPPED", True,
         "fiber not representable"),
        ("(b) (j3) root 2 at level 1", "SKIPPED", True,
         "[2] splits the block [1, 2]"),
        ("(b) (j4) fiber of 2 at level 1", "SKIPPED", True,
         "fiber not representable"),
        ("(b) witness table", "EXACT", True, "3 nodes"),
        ("(c) theta satisfies phi", "EXACT", True, "[2,w] & l^1 in (0,inf]"),
    ]),
]


@pytest.mark.parametrize("tree,sigma,want", MAP_CHECK_REPORTS)
def test_verify_map_check_reports(tree, sigma, want):
    rep = verify_countermodel(embed(tree, sigma), f("<0>T"))
    assert rep.checks == want


def test_map_check_counts_the_blocks_it_skips():
    # the rank map of r -> {a, b, c, d}, a -> c, b -> d with c's fiber
    # given as all of rank 0: d's block is then empty and a, b share one,
    # which <>{c} = {r, a} and <>{d} = {r, b} both split
    t = frame("rabcd", [("r", x) for x in "abcd"] + [("a", "c"), ("b", "d")])
    theta, fm = gl_embed(t)

    class FiberOfC:
        def preimage(self, nodes):
            nodes = list(nodes)
            if nodes == ["c"]:
                return parse_bandset(f"[1,{theta}] & l in (-1,0]")
            return fm.preimage(nodes)

    rep = jmap_check(FiberOfC(), PolySpace(theta, (ONE,)), t)
    assert ("(j1) d-map law on representable subsets", "EXACT-WHERE-DEFINED", True,
            "multi-node blocks ['a', 'b']; 2 skipped") in rep.checks


HEIGHT4 = frame(range(6), [(a, b) for a in range(4) for b in range(a + 1, 6)])


@pytest.mark.parametrize("tree,sigma", [(t, s) for t, s, _ in MAP_CHECK_REPORTS] + [
    (HEIGHT4, (1,)),
    (frame("rab", [("r", "a"), ("r", "b")]), (2,)),  # a liter lift of a rank map
    (frame("rab", [("r", "a"), ("r", "b")], []), (2, 3)),  # ... of a product
])
def test_verify_reports_do_not_depend_on_the_memos(tree, sigma):
    phi = tree_formula(tree)

    def report():
        cm = embed(tree, sigma)
        helpers.clear_memos()
        return verify_countermodel(cm, phi).checks

    helpers.clear_memos()
    cold = report()
    warm = [verify_countermodel(embed(tree, sigma), phi).checks for _ in range(2)]
    assert warm == [cold, cold]


def test_verify_detects_swapped_branch():
    cm = embed(frame("ra", [("r", "a")]), (1,))
    flip = {"r": "a", "a": "r"}

    class Swapped:
        theta = cm.theta

        def apply(self, x):
            return flip[cm.fmap.apply(x)]

        def preimage(self, nodes):
            return cm.fmap.preimage([flip[n] for n in nodes])

    bad_map = Swapped()
    bad = dataclasses.replace(
        cm, fmap=bad_map, witnesses=dict(cm.witnesses),
        algebra={v: bad_map.preimage([v]) for v in cm.tree.nodes})
    rep = verify_countermodel(bad, f("<0>T"))
    assert not rep.ok
    assert any(name.startswith("(b)") and not ok
               for name, _, ok, _ in rep.checks)


def test_verify_stage_a_valuation_on_the_five_chain():
    # stage (a) picks p_i -> {i}; stage (c) evaluates phi under its pullback
    chain = frame(range(5), [(i, j) for i in range(5) for j in range(5) if i < j])
    phi = tree_formula(chain)
    cm = embed(chain, (1,))
    rep = verify_countermodel(cm, phi)
    assert rep.ok, str(rep)
    pulled = countermodel_valuation(cm, {i: {i} for i in range(5)})
    want = bandset_to_text(eval_topo(phi, cm.space(), pulled))
    assert ("(c) theta satisfies phi", "EXACT", True, want) in rep.checks


def test_verify_stage_a_on_a_twenty_node_chain():
    # 20 atoms on 20 nodes: the search meets a few hundred masks of the
    # chain's relation, and the diamond memo holds only those, not 2^20
    chain = frame(range(20), [(i, j) for i in range(20) for j in range(20) if i < j])
    rep = verify_countermodel(embed(chain, (1,)), tree_formula(chain))
    assert rep.checks[0] == ("(a) satisfied at the root", "EXACT", True, "")
    assert len(jtree_module._diamonds(chain, ZERO)) < 1000


def test_verify_an_atom_free_formula_on_a_twenty_four_node_chain():
    # without atoms stage (a) builds no supports; every subset of the 24
    # nodes would be 2^24 masks
    chain = frame(range(24), [(i, j) for i in range(24) for j in range(24) if i < j])
    cm = embed(chain, (1,))
    start = time.perf_counter()
    rep = verify_countermodel(cm, f("<0>T"))
    assert rep.ok, str(rep)
    assert time.perf_counter() - start < 5
    assert jtree_module._supports(0, 24) == ()


def test_verify_of_a_tree_formula_generates_no_kernel():
    # stage (a) on a small tree scans too few valuations to repay a kernel
    jtree_module._kernel.cache_clear()
    trees = [make_jframe(kf.nodes, kf.rels) for kf, _ in helpers.all_trees(4)]
    trees.append(frame(range(5), [(i, j) for i in range(5) for j in range(5) if i < j]))
    for t in trees:
        rep = verify_countermodel(embed(t, (1,)), tree_formula(t))
        assert rep.checks[0] == ("(a) satisfied at the root", "EXACT", True, ""), t
        rep = verify_countermodel(embed(t, (1,)), f("<0>p0 & [0]~p0"))
        assert rep.checks[0][2:] == (False, "no valuation found"), t
    assert jtree_module._kernel.cache_info().misses == 0


@pytest.mark.parametrize("tree", [
    frame("ra", [("r", "a")]),                 # every fiber a band set
    frame("rab", [("r", "a"), ("r", "b")]),    # fibers of a, b are not
])
def test_verify_theta_beyond_the_map_fails_a_check(tree):
    obj = countermodel_to_json(embed(tree, (1,)))
    obj["theta"] += "+1"
    rep = verify_countermodel(countermodel_from_json(obj), f("<0>T"))
    assert not rep.ok
    assert ("(b) (j1) rank preservation", "EXACT", False,
            "f^-1(rank >= 0) differs from l^1 >= 0 at x=w+1") in rep.checks


def test_verify_witness_beyond_the_map_fails_a_check():
    obj = countermodel_to_json(embed(frame("ra", [("r", "a")]), (1,)))
    obj["witnesses"] = [[v, "w^2" if v == "a" else w] for v, w in obj["witnesses"]]
    rep = verify_countermodel(countermodel_from_json(obj), f("<0>T"))
    assert ("(b) witness table", "EXACT", False,
            "witness w^2 is outside the map's domain") in rep.checks


def test_verify_unsatisfied_formula_reported():
    cm = embed(frame("ra", [("r", "a")]), (1,))
    rep = verify_countermodel(cm, f("F"))
    assert not rep.ok
    assert any(name.startswith("(a)") and not ok
               for name, _, ok, _ in rep.checks)


# --- serialization ------------------------------------------------------------------------


def canon(obj):
    return json.dumps(obj, sort_keys=True)


def test_serialization_round_trip():
    cases = [
        (frame("ra", [("r", "a")]), (1,)),
        (frame("rab", [("r", "a"), ("r", "b")]), (1,)),
        (frame("abc", [("a", "b"), ("a", "c")], [("b", "c")]), (1, 2)),
        (frame("rsb", [("r", "b"), ("s", "b")], [("r", "s")]), (1, 2)),
        (frame("ra", [("r", "a")]), (2,)),
    ]
    for t, sigma in cases:
        cm = embed(t, sigma)
        blob = countermodel_to_json(cm)
        back = countermodel_from_json(blob)
        assert canon(countermodel_to_json(back)) == canon(blob)
        assert back.theta == cm.theta
        for x in endpoint_pool(cm.theta):
            assert back.fmap.apply(x) == cm.fmap.apply(x)
        for v in t.nodes:
            if cm.algebra[v] is not None:
                assert sets_equal(back.fmap.preimage([v]), cm.algebra[v],
                                  cm.theta)


def test_serialization_rejects_garbage():
    from ordtopo.embed import EmbedError
    with pytest.raises(EmbedError):
        countermodel_from_json({"theta": "w"})
    with pytest.raises(EmbedError):
        from ordtopo.embed import _map_from_json
        _map_from_json({"map": "banana"})


def test_embed_raises_on_a_broken_witness_table(monkeypatch):
    real = embed_module._embed

    def broken(t, sigma):
        theta, fmap, wit = real(t, sigma)
        return theta, fmap, {v: ZERO for v in wit}

    monkeypatch.setattr(embed_module, "_embed", broken)
    with pytest.raises(EmbedError, match="witness 0"):
        embed(frame("ra", [("r", "a")]), (1,))
