import gc
import importlib
import pkgutil
import random

import pytest

import helpers
from ordtopo import ordinal as ordinal_module
from ordtopo.logic import endpoint_pool
from ordtopo.ordinal import (
    DEPTH_CAP,
    OMEGA,
    ONE,
    Ordinal,
    ZERO,
    add,
    ell_iter,
    omega_pow,
    parse_ordinal,
)
from ordtopo.topology import (
    EMPTY,
    MEMO_SIZE,
    Band,
    BandSet,
    NonStabilizing,
    TopologyError,
    UnsupportedLevel,
    _band_complement,
    _band_subsumes,
    band_to_text,
    bandset,
    bandset_to_text,
    complement_within,
    derived_iter,
    derived_set,
    geq_set,
    intersect,
    interval,
    is_empty,
    is_open,
    make_band,
    member,
    member_of_derived,
    min_witness,
    parse_bandset,
    rank,
    separating_nbhd,
    sets_equal,
    subset_of,
    union,
)

o = parse_ordinal


def bs(text):
    return parse_bandset(text)


W2 = o("w^2")
W3 = o("w^3")
WW = o("w^w")

SUCCESSORS = bs("[1,w^2] & l in (-1,0]")
LIMITS = bs("[1,w^2] & l in (0,inf]")


def test_member_goldens():
    assert member(o("5"), SUCCESSORS)
    assert not member(OMEGA, SUCCESSORS)
    assert member(OMEGA, interval(ONE, W2))


def test_boolean_goldens():
    comp = complement_within(SUCCESSORS, ONE, W2)
    assert sets_equal(comp, LIMITS, W2)
    assert is_empty(intersect(SUCCESSORS, EMPTY))
    assert sets_equal(union(SUCCESSORS, LIMITS), interval(ONE, W2), W2)


# bands whose lo is a limit, a successor, 1, 0, and deeper limits, with
# their complements in [1, w^w*2]
COMPLEMENT_GOLDENS = [
    ("[w*2,w^2]", "[1,w]; [w+1,w*2] & l^1 in (-1,0]; [w^2+1,w^w*2]"),
    ("[w+3,w^2] & l in (0,1]", "[1,w+2]; [w^2+1,w^w*2]; [1,w^w*2] & l^1 in (-1,0]; "
     "[1,w^w*2] & l^1 in (1,inf]"),
    ("[1,w^2] & l in (0,inf]", "[w^2+1,w^w*2]; [1,w^w*2] & l^1 in (-1,0]"),
    ("[0,w]", "[w+1,w^w*2]"),
    ("[w^w,w^w*2] & l^2 in (0,inf]",
     "[1,w^w] & l^1 in (-1,0]; [1,w^w*2] & l^2 in (-1,0]"),
    ("[w^2+w,w^3] & l^2 in (-1,0]", "[1,w^2]; [w^2+1,w^2+w] & l^1 in (-1,0]; "
     "[w^3+1,w^w*2]; [1,w^w*2] & l^2 in (0,inf]"),
]


def test_band_complement_partitions_the_domain():
    """A band and its complement in [1, theta] are disjoint and cover
    [1, theta], as band sets and point by point."""
    rng = random.Random(29)
    uni = helpers.finite_universe()
    ww2 = o("w^w*2")
    cases = [(b, W3, uni) for _ in range(40)
             for b in helpers.random_bandset_u(rng, uni).bands]
    cases += [(bs(text).bands[0], ww2, endpoint_pool(ww2))
              for text, _ in COMPLEMENT_GOLDENS]
    for b, theta, pool in cases:
        one, comp = BandSet((b,)), _band_complement(b, ONE, theta)
        why = (band_to_text(b), bandset_to_text(comp))
        assert is_empty(intersect(one, comp)), why
        assert sets_equal(union(one, comp), interval(ONE, theta), theta), why
        for x in pool:
            if x <= theta:
                assert member(x, comp) != b.member(x), (why, x)
    for text, want in COMPLEMENT_GOLDENS:
        assert bandset_to_text(complement_within(bs(text), ONE, ww2)) == want


# {x in [1, theta]: l^k(x) >= mu} for mu zero, a successor and limits; every
# (k, mu, theta) not listed is empty
GEQ_GOLDENS = {
    (1, "0", "w^2"): "[1,w^2]",
    (1, "0", "w^3"): "[1,w^3]",
    (1, "0", "w^w"): "[1,w^w]",
    (1, "3", "w^3"): "[1,w^3] & l^1 in (2,inf]",
    (1, "3", "w^w"): "[1,w^w] & l^1 in (2,inf]",
    (1, "w", "w^w"): "[1,w^w] & l^1 in (0,inf] & l^2 in (0,inf]",
    (2, "0", "w^2"): "[1,w^2]",
    (2, "0", "w^3"): "[1,w^3]",
    (2, "0", "w^w"): "[1,w^w]",
}


def test_geq_set_goldens():
    for k in (1, 2):
        for mu in ("0", "3", "w", "w*2", "w^2"):
            for theta in ("w^2", "w^3", "w^w"):
                got = bandset_to_text(geq_set(k, o(mu), o(theta)))
                assert got == GEQ_GOLDENS.get((k, mu, theta), "empty"), (k, mu, theta)


def test_is_empty_goldens():
    assert is_empty(bs("[1,w] & l in (1,2]"))
    s = bs("[1,w^2] & l in (0,1]")
    assert not is_empty(s)
    assert min_witness(s) == OMEGA
    assert make_band(o("5"), o("3")) is None
    assert is_empty(interval(o("5"), o("3")))


def test_min_witness_goldens():
    assert min_witness(bs("[1,w^w] & l in (0,1]")) == OMEGA
    assert min_witness(bs("[1,w^w] & l^2 in (0,1]")) == WW
    assert min_witness(EMPTY) is None


def test_rank_goldens():
    assert rank(o("w^3*2"), 1) == o("3")
    assert rank(o("5"), 1) == ZERO
    assert rank(WW, 2) == ONE


def test_is_open_goldens():
    assert is_open(bs("[w+1,w*2]"), 1, W2)
    assert not is_open(bs("[w,w]"), 1, W2)
    assert is_open(bs("[w,w] & l in (0,1]"), 2, W2)
    # whole domain and empty set are always open
    assert is_open(interval(ONE, W2), 1, W2)
    assert is_open(EMPTY, 3, W2)


def test_derived_set_goldens():
    assert sets_equal(derived_set(SUCCESSORS, 1, W2), LIMITS, W2)
    assert is_empty(derived_set(EMPTY, 2, W2))
    assert is_empty(derived_set(bs("[1,w^w] & l in (0,1]"), 2, WW))


def test_derived_set_brute_small():
    # order-topology accumulation of the successors, brute-forced over all
    # ordinals <= w*5 of CNF depth <= 2
    pts = [x for x in helpers.finite_universe() if x <= o("w*5")]
    d = derived_set(bs("[1,w*5] & l in (-1,0]"), 1, o("w*5"))
    for x in pts:
        assert member(x, d) == (x.is_limit() and x <= o("w*5"))


def test_derived_iter_goldens():
    assert sets_equal(derived_iter(interval(ONE, W2), 1, o("2"), W2),
                      interval(W2, W2), W2)
    s = bs("[1,w^2] & l in (0,1]")
    assert derived_iter(s, 1, ZERO, W2) == s
    dw = derived_iter(interval(ONE, WW), 1, OMEGA, WW)
    assert sets_equal(dw, interval(WW, WW), WW)
    assert is_empty(derived_iter(interval(ONE, WW), 1, o("w+1"), WW))
    with pytest.raises(NonStabilizing):
        derived_iter(interval(ONE, WW), 1, o("w^2"), WW)
    with pytest.raises(UnsupportedLevel):
        derived_iter(interval(ONE, WW), 0, OMEGA, WW)


def test_derived_iter_omega_wide_domain():
    theta = o("w^w*2")
    dw = derived_iter(interval(ONE, theta), 1, OMEGA, theta)
    assert member(WW, dw)
    assert member(o("w^w*2"), dw)
    assert not member(o("w^w+w"), dw)
    assert not member(o("w^3*4"), dw)


def test_separating_nbhd_post():
    theta = WW
    for x in [o("5"), OMEGA, o("w*3+1"), o("w^2*2"), WW, o("w^3+w")]:
        for lam in (1, 2, 3):
            u = separating_nbhd(x, lam, theta)
            assert member(x, u)
            assert is_open(u, lam, theta)
            for y in helpers.finite_universe():
                if y != x and member(y, u):
                    assert rank(y, lam) < rank(x, lam)


def test_separating_nbhd_goldens():
    assert sets_equal(separating_nbhd(o("5"), 1, W2), interval(o("5"), o("5")), W2)
    u = separating_nbhd(OMEGA, 1, W2)
    assert member(OMEGA, u) and min_witness(u) == ONE
    u2 = separating_nbhd(WW, 2, WW)
    assert sets_equal(u2, bs("[1,w^w] & l in (0,w]"), WW)


def test_band_text_round_trip():
    for text in ["[1,w^2] & l^1 in (-1,0]",
                 "[w,w^w*2] & l^1 in (0,w] & l^2 in (-1,1]",
                 "[1,w^3]"]:
        s = bs(text)
        assert parse_bandset(bandset_to_text(s)) == s
    assert bandset_to_text(EMPTY) == "empty"
    assert parse_bandset("empty") == EMPTY
    assert bs("[1,w] & l ^ 2 in (-1, 3]") == bs("[1,w] & l^2 in (-1,3]")
    assert bs(" [ 1 , w*w ] ; [2,3]") == bs("[1,w^2]")
    for bad in ["[1,w", "[1,w] &", "[1,w] & l^ in (-1,0]", "[1,w] & l in (0,-1]",
                "[1,w];", "empty; [1,w]", "[1,x]"]:
        with pytest.raises(TopologyError):
            parse_bandset(bad)
    rng = random.Random(11)
    for _ in range(50):
        s = helpers.random_bandset_u(rng, helpers.finite_universe())
        assert parse_bandset(bandset_to_text(s)) == s


def test_constraint_levels_past_the_depth_cap():
    # l^k is 0 on every ordinal once k >= DEPTH_CAP
    assert is_empty(bs("[1,w] & l^3000 in (1,2]"))
    assert member(OMEGA, bs("[1,w^w] & l^3000 in (-1,0]"))
    assert is_empty(derived_set(interval(ONE, WW), 3000, WW))
    assert is_empty(derived_set(interval(ONE, WW), DEPTH_CAP, WW))


# --- properties ---------------------------------------------------------------


def test_derived_additive_and_monotone():
    rng = random.Random(23)
    uni = helpers.finite_universe()
    for _ in range(60):
        a = helpers.random_bandset_u(rng, uni)
        b = helpers.random_bandset_u(rng, uni)
        lam = rng.randint(1, 3)
        da, db = derived_set(a, lam, W3), derived_set(b, lam, W3)
        assert sets_equal(derived_set(union(a, b), lam, W3), union(da, db), W3)
        assert subset_of(derived_set(intersect(a, b), lam, W3), da, W3)


def test_union_tests_only_the_pairs_across_its_operands():
    # union(s, t) is bandset(s.bands + t.bands), band for band and in order,
    # on random pairs and on pairs that share or contain each other's bands;
    # bandset keeps, in input order, the first copy of each band that no
    # other band contains
    def reference(bands):
        return tuple(b for i, b in enumerate(bands)
                     if not any(_band_subsumes(c, b) and (c != b or j < i)
                                for j, c in enumerate(bands) if j != i))

    uni = helpers.finite_universe()
    dropped = 0
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(40):
            s, t = (helpers.random_bandset_u(rng, uni) for _ in range(2))
            st = intersect(s, t)
            for a, b in ((s, t), (t, s), (s, s), (s, st), (st, s), (union(s, t), t)):
                got = union(a, b).bands
                assert got == bandset(a.bands + b.bands).bands, (a, b)
                assert got == reference(a.bands + b.bands), (a, b)
                dropped += len(got) < len(a.bands) + len(b.bands)
    assert dropped > 100


def test_level_monotonicity():
    rng = random.Random(29)
    uni = helpers.finite_universe()
    for _ in range(40):
        a = helpers.random_bandset_u(rng, uni)
        for lam in (0, 1, 2):
            assert subset_of(derived_set(a, lam + 1, W3), derived_set(a, lam, W3), W3)


def test_scatteredness():
    for theta, lam in [(W2, 1), (W3, 1), (WW, 2)]:
        ht = add_one(rank(theta, lam))
        assert is_empty(derived_iter(interval(ONE, theta), lam, ht, theta))
        # one step earlier is still nonempty
        assert not is_empty(derived_iter(interval(ONE, theta), lam, rank(theta, lam), theta))
    assert is_empty(derived_iter(interval(ONE, WW), 1, o("w+1"), WW))
    assert not is_empty(derived_iter(interval(ONE, WW), 1, OMEGA, WW))


def add_one(x):
    from ordtopo.ordinal import add

    return add(x, ONE)


def test_rank_law():
    uni = helpers.finite_universe()
    full = interval(ONE, W3)
    for lam in (1, 2, 3):
        for x in uni:
            assert member_of_derived(x, full, lam) == (rank(x, lam) >= ONE)
        for alpha in [ZERO, ONE, o("3"), o("5"), OMEGA, o("w+1")]:
            d = derived_iter(full, lam, alpha, W3)
            for x in uni:
                assert member(x, d) == (rank(x, lam) >= alpha), (x, lam, alpha)


def test_is_open_closure_agreement():
    rng = random.Random(31)
    uni = helpers.finite_universe()
    for _ in range(60):
        s = helpers.random_bandset_u(rng, uni)
        lam = rng.randint(0, 3)
        comp = complement_within(s, ONE, W3)
        assert is_open(s, lam, W3) == subset_of(derived_set(comp, lam, W3), comp, W3)


def test_member_of_derived_matches_assembled_set():
    rng = random.Random(37)
    uni = helpers.finite_universe()
    for _ in range(40):
        s = helpers.random_bandset_u(rng, uni)
        lam = rng.randint(0, 3)
        d = derived_set(s, lam, W3)
        for x in uni:
            assert member(x, d) == member_of_derived(x, s, lam), (x, s, lam)


def test_oracle_equivalence_sample():
    rng = random.Random(41)
    uni = helpers.finite_universe()
    for _ in range(30):
        s = helpers.random_bandset_u(rng, uni)
        lam = rng.randint(1, 3)
        s_enc = helpers.encode_bandset(s)
        for x in rng.sample(uni, 30):
            assert member_of_derived(x, s, lam) == \
                helpers.oracle_member_of_derived(x, s_enc, lam), (x, s, lam)


def test_dmap_law_for_ell():
    # l: ([1,w^w], I_2) -> ([0,w], I_1) commutes with the derived set:
    # preimage of d(A) equals d of the preimage
    rng = random.Random(43)
    theta, ltheta = WW, OMEGA
    pool = [ZERO, ONE, o("2"), o("3"), o("5"), OMEGA]
    for _ in range(60):
        bands = []
        for _ in range(rng.randint(1, 2)):
            lo, hi = sorted(rng.sample(pool, 2))
            cons = {}
            if rng.random() < 0.5:
                c = rng.choice([None, ZERO, ONE])
                d = rng.choice([None, ZERO, ONE])
                cons[1] = (c, d)
            bands.append(make_band(lo, hi, cons))
        a = bandset(bands)
        lhs = helpers.ell_preimage(derived_set(a, 1, ltheta), theta)
        rhs = derived_set(helpers.ell_preimage(a, theta), 2, theta)
        assert sets_equal(lhs, rhs, theta), a


def test_set_relations_match_the_pointwise_oracle():
    """subset_of and sets_equal against a check at every ordinal <= w^3 with
    coefficients <= 9, which shares no code with the band solver."""
    rng = random.Random(14)
    universe = helpers.finite_universe()
    no_containment = 0
    for theta in (OMEGA, o("w*2+1"), W2, o("w^2*3+w")):
        past = bandset([make_band(add(theta, ONE), W3)])
        fixed = [EMPTY, interval(theta, theta), interval(ONE, theta), past,
                 union(interval(theta, theta), past),
                 bandset([make_band(ZERO, ZERO)])]
        sets = fixed + [helpers.random_bandset_u(rng, universe) for _ in range(14)]
        pairs = [(s, t) for s in fixed for t in sets] + [
            (rng.choice(sets), rng.choice(sets)) for _ in range(150)]
        for _ in range(20):
            # t holds s's points in [1, theta], cut into pieces by a random a,
            # so no band of t need contain a band of s
            s, a = (helpers.random_bandset_u(rng, universe) for _ in range(2))
            t = union(intersect(s, a), intersect(s, complement_within(a, ONE, theta)))
            pairs += [(s, t), (t, s), (union(s, past), t)]
            no_containment += not all(
                any(_band_subsumes(c, b) for c in t.bands) for b in s.bands)
        for s, t in pairs:
            why = (bandset_to_text(s), bandset_to_text(t), theta)
            assert subset_of(s, t, theta) == helpers.oracle_subset_of(s, t, theta), why
            assert sets_equal(s, t, theta) == helpers.oracle_sets_equal(s, t, theta), why
    assert no_containment >= 20


# --- invariants raise, also under python -O -----------------------------------------


def test_min_of_an_empty_band_raises():
    # make_band drops empty bands, so only a hand-built one gets here
    with pytest.raises(TopologyError):
        Band(OMEGA, ONE, ()).min()


# --- the memos ----------------------------------------------------------------------


def test_every_memo_is_bounded():
    for fn in helpers.memos():
        assert isinstance(fn.cache_info().maxsize, int), fn.__name__


# keyed on small ints, (n, r) and (n, n_mods), for the life of the process
UNBOUNDED_MEMOS = ("jtree._shapes", "jtree._jtree_shapes")


def test_memo_inventory_is_complete():
    import ordtopo

    listed = set(map(id, helpers.memos()))
    found = {}
    for info in pkgutil.iter_modules(ordtopo.__path__):
        mod = importlib.import_module(f"ordtopo.{info.name}")
        for owner in [mod] + [c for c in vars(mod).values() if isinstance(c, type)]:
            for name, fn in vars(owner).items():
                if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__:
                    found[f"{info.name}.{name}"] = fn
    assert set(UNBOUNDED_MEMOS) <= set(found)
    missing = sorted(n for n, fn in found.items()
                     if id(fn) not in listed and n not in UNBOUNDED_MEMOS)
    assert missing == []


def test_endpoint_pool_is_one_shared_tuple():
    pool = endpoint_pool(W2)
    assert isinstance(pool, tuple)
    assert endpoint_pool(W2) is pool


def test_bad_levels_raise_on_every_call():
    for _ in range(2):  # an exception is not memoised
        with pytest.raises(UnsupportedLevel):
            make_band(ONE, OMEGA, {-1: (None, ONE)})


def test_derived_set_at_a_bad_level_raises_on_every_call():
    for _ in range(2):  # an exception is not memoised
        with pytest.raises(UnsupportedLevel):
            derived_set(bs("[1,w]"), -1, W2)


def test_set_memos_answer_as_their_bodies():
    rng = random.Random(37)
    uni = helpers.finite_universe()
    helpers.clear_memos()
    for theta in (W2, W3, WW):
        for _ in range(25):
            s = helpers.random_bandset_u(rng, uni)
            t = helpers.random_bandset_u(rng, uni)
            lam = rng.randint(0, 3)
            calls = ((intersect, (s, t)), (complement_within, (s, ONE, theta)),
                     (subset_of, (s, t, theta)), (sets_equal, (s, t, theta)),
                     (derived_set, (s, lam, theta)))
            for fn, args in calls:
                got = fn(*args)
                assert got == fn.__wrapped__(*args), (fn.__name__, args)
                assert fn(*args) is got
    assert all(fn.cache_info().hits for fn, _ in calls)


def test_memos_let_go_of_fresh_bands():
    table = ordinal_module._INTERNED
    helpers.clear_memos()
    gc.collect()
    before = len(table)
    for i in range(10 * MEMO_SIZE):
        make_band(ONE, omega_pow(Ordinal.from_int(10 ** 7 + i)))
    gc.collect()
    # each memo keeps at most MEMO_SIZE entries alive, not every band made
    assert len(table) - before <= 4 * MEMO_SIZE
    fixed = bs("[1,w^3] & l in (0,inf]")
    for i in range(10 * MEMO_SIZE):
        s = interval(ONE, omega_pow(Ordinal.from_int(2 * 10 ** 7 + i)))
        intersect(s, fixed)
        derived_set(s, 1, WW)
    gc.collect()
    # each memo on the way keeps its last MEMO_SIZE calls, which hold two
    # fresh ordinals each, n and w^n; unbounded set memos would keep
    # 20 * MEMO_SIZE
    assert len(table) - before <= 4 * MEMO_SIZE
    helpers.clear_memos()
    gc.collect()
    assert len(table) - before <= 4
