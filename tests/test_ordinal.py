import copy
import gc
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import ordinals, positive_ordinals
from ordtopo import ordinal as ordinal_module
from ordtopo.ordinal import (
    CharSeqParams,
    DEPTH_CAP,
    DepthExceeded,
    MAX_NESTING,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalSyntaxError,
    OutOfRange,
    Underflow,
    ZERO,
    ZeroArgument,
    add,
    big_l,
    char_seq,
    compare,
    e,
    e_iter,
    ell,
    ell_iter,
    is_add_indec,
    is_mult_indec,
    left_subtract,
    multiply,
    normalize,
    omega_pow,
    ordinal_to_text,
    parse_ordinal,
    pounds,
)
from ordtopo.topology import trim_last

o = parse_ordinal


def test_normalize_goldens():
    assert normalize([(ZERO, 1), (ZERO, 2)]) == o("3")
    assert normalize([(ZERO, 1), (ONE, 1)]) == OMEGA  # 1 + w = w
    assert normalize([]) == ZERO


def test_compare_goldens():
    assert compare(OMEGA, OMEGA) == 0
    assert compare(o("w+1"), o("w*2")) < 0
    assert compare(o("w^w"), o("w^3*9+5")) > 0


def test_add_goldens():
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == o("w+1")
    assert add(o("w^2+w"), o("w^2")) == o("w^2*2")


def test_left_subtract_goldens():
    assert left_subtract(ONE, OMEGA) == OMEGA  # -1 + w = w
    assert left_subtract(OMEGA, o("w+5")) == o("5")
    assert left_subtract(OMEGA, o("w^2")) == o("w^2")
    with pytest.raises(Underflow):
        left_subtract(o("w*2"), OMEGA)


def test_multiply_goldens():
    assert multiply(o("2"), OMEGA) == OMEGA
    assert multiply(o("w+1"), OMEGA) == o("w^2")
    assert multiply(o("w^2"), ZERO) == ZERO
    assert multiply(o("w+1"), o("5")) == o("w*5+1")


def test_omega_pow_and_e():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert omega_pow(OMEGA) == o("w^w")
    assert e(ZERO) == ZERO
    assert e(ONE) == OMEGA
    assert e(OMEGA) == o("w^w")


def test_e_iter_goldens():
    a = o("w^3+2")
    assert e_iter(0, a) == a
    assert e_iter(2, ONE) == o("w^w")
    assert e_iter(3, ONE) == o("w^(w^w)")


def test_depth_cap():
    a = ONE
    with pytest.raises(DepthExceeded):
        for _ in range(100):
            a = omega_pow(a)


def test_logarithm_goldens():
    assert ell(o("w^w*3+w^2")) == o("2")
    assert ell(o("5")) == ZERO
    assert ell(OMEGA) == ONE
    assert big_l(o("w^2+w")) == o("2")
    assert big_l(o("5")) == ZERO
    assert big_l(o("w^w")) == OMEGA
    with pytest.raises(ZeroArgument):
        ell(ZERO)
    with pytest.raises(ZeroArgument):
        big_l(ZERO)


def test_ell_iter_goldens():
    assert ell_iter(ZERO, o("w^w")) == o("w^w")
    assert ell_iter(o("2"), o("w^(w^3)")) == o("3")
    assert ell_iter(OMEGA, o("w^w*7+w")) == ZERO


def test_pounds_goldens():
    assert pounds(OMEGA) == ZERO
    assert pounds(o("w*5+3")) == o("4")
    assert pounds(o("w^2")) == OMEGA
    assert pounds(o("3")) == ZERO
    assert pounds(ZERO) == ZERO


def test_pounds_counting_oracle():
    # for limit arguments w*q the closed form equals the order type of
    # the limit ordinals in [1, w*q), which is q-1
    for q in range(1, 40):
        assert pounds(multiply(OMEGA, Ordinal.from_int(q))) == Ordinal.from_int(q - 1)


def test_indecomposability_goldens():
    assert (is_add_indec(o("w^2")), is_mult_indec(o("w^2"))) == (True, False)
    assert (is_add_indec(o("w^w")), is_mult_indec(o("w^w"))) == (True, True)
    assert (is_add_indec(o("w*2")), is_mult_indec(o("w*2"))) == (False, False)
    assert is_mult_indec(ONE)
    assert is_mult_indec(OMEGA)


def test_char_seq_goldens():
    assert char_seq(CharSeqParams(ONE, o("7")), o("3")) == ZERO
    p = CharSeqParams(o("w^w"), o("2"))
    assert char_seq(p, o("w*3+2")) == o("8")
    p5 = CharSeqParams(o("w^w"), o("5"))
    assert char_seq(p5, o("4")) == o("4")
    with pytest.raises(OutOfRange):
        char_seq(p, o("w^w"))
    with pytest.raises(ValueError):
        CharSeqParams(o("w^2"), ONE)


def test_parse_print_goldens():
    assert ordinal_to_text(o("w^(w^2*3+1)*2+w+5")) == "w^(w^2*3+1)*2+w+5"
    assert o("1+w") == OMEGA  # parsing normalizes
    assert ordinal_to_text(ZERO) == "0"
    assert ordinal_to_text(o("w^w^2")) == "w^(w^2)"
    assert o("w^w^2") == omega_pow(o("w^2"))
    assert o("w*w") == o("w^2")  # products of any atoms
    assert o("(w+1)*(w+1)") == o("w^2+w+1")
    assert o("w * 2 * 3") == o("w*6")


def test_nesting_cap():
    deep = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert o(deep) == ONE
    for text in ["(" + deep + ")", "w^" * 3000 + "1", "(" * 3000 + "1" + ")" * 3000]:
        with pytest.raises(OrdinalSyntaxError):
            o(text)
    # the deepest CNF there is still reads back from its text
    a = ONE
    while a.depth < DEPTH_CAP:
        a = omega_pow(add(a, ONE))
    assert o(ordinal_to_text(a)) == a


# --- oracle cross-checks ----------------------------------------------------


def test_poly_oracle_cross_check():
    rng = random.Random(7)
    for _ in range(2000):
        a = helpers.random_poly_ordinal(rng)
        b = helpers.random_poly_ordinal(rng)
        pa, pb = helpers.poly_of(a), helpers.poly_of(b)
        assert compare(a, b) == helpers.poly_cmp(pa, pb)
        assert add(a, b) == helpers.poly_to_ordinal(helpers.poly_add(pa, pb))
        assert multiply(a, b) == helpers.poly_to_ordinal(helpers.poly_mul(pa, pb))


# --- properties -------------------------------------------------------------


@settings(max_examples=200)
@given(ordinals(), ordinals(), ordinals())
def test_add_mul_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_identities_and_distribution(a, b):
    assert add(a, ZERO) == a
    assert multiply(a, ONE) == a
    assert multiply(ONE, a) == a
    # left distributivity a*(b+c) holds for ordinals
    assert multiply(a, add(b, ONE)) == add(multiply(a, b), a)


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_compare_total_and_monotone(a, b):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) < 0:
        assert add(b, ONE) > b
        assert add(a, left_subtract(a, b)) == b


@settings(max_examples=200)
@given(ordinals(), positive_ordinals())
def test_add_strictly_monotone_right(a, b):
    assert add(a, b) > a


@settings(max_examples=300)
@given(ordinals())
def test_roundtrip(a):
    assert parse_ordinal(ordinal_to_text(a)) == a


@settings(max_examples=200)
@given(positive_ordinals())
def test_ell_strictly_decreases(a):
    assert ell(a) < a


@settings(max_examples=200)
@given(ordinals(), positive_ordinals(), positive_ordinals(max_depth=1))
def test_hyperlog_tail_identities(gamma, delta, xi):
    assert ell_iter(xi, add(gamma, delta)) == ell_iter(xi, delta)
    # the product form needs ell(delta) != 0 once gamma is infinite,
    # since ell(gamma*delta) = L(gamma) + ell(delta)
    if xi > ONE and not gamma.is_zero() and (delta.is_limit() or gamma.is_finite()):
        assert ell_iter(xi, multiply(gamma, delta)) == ell_iter(xi, delta)


@settings(max_examples=100)
@given(positive_ordinals(max_depth=2))
def test_hyperexp_hyperlog_inverse(gamma):
    for z in range(0, 4):
        for x in range(0, z + 1):
            assert ell_iter(Ordinal.from_int(x), e_iter(z, gamma)) == e_iter(z - x, gamma)


@settings(max_examples=100)
@given(ordinals(max_depth=2), positive_ordinals(max_depth=2))
def test_hyperlog_bound(alpha, beta):
    for n in range(0, 3):
        if alpha < e_iter(n, beta):
            assert ell_iter(Ordinal.from_int(n), alpha) < beta


@settings(max_examples=100)
@given(ordinals(max_depth=2))
def test_e_iter_additive(a):
    for m in range(0, 3):
        for n in range(0, 3):
            assert e_iter(m + n, a) == e_iter(m, e_iter(n, a))


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_pounds_additive_on_corpus(a, b):
    # the closed form is additive whenever b is finite or b >= w^2;
    # for infinite b with finite w-quotient the two sides differ by one
    if b.is_finite() or b >= o("w^2"):
        assert pounds(add(a, b)) == add(pounds(a), pounds(b))


@settings(max_examples=200)
@given(ordinals(), ordinals())
def test_pounds_monotone(a, b):
    if a <= b:
        assert pounds(a) <= pounds(b)


# --- the interned core ------------------------------------------------------


@settings(max_examples=300)
@given(ordinals(max_depth=1, max_terms=4), ordinals(max_depth=1, max_terms=4),
       st.integers(0, 6))
def test_order_hash_and_compare_agree_with_the_poly_oracle(a, b, n):
    # exponents stay finite, so the dense-polynomial oracle can read both
    c = helpers.poly_cmp(helpers.poly_of(a), helpers.poly_of(b))
    assert compare(a, b) == c
    assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
    assert (a == b, a != b, a is b) == (c == 0, c != 0, c == 0)
    assert hash(helpers.poly_to_ordinal(helpers.poly_of(a))) == hash(a)
    if c == 0:
        assert hash(a) == hash(b)
    # an int is not an ordinal: it cannot be ordered against one and is
    # never equal to one, although a finite ordinal keeps its int's hash
    for lhs, rhs in ((a, n), (n, a)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(lhs, rhs)
        assert lhs != rhs and not lhs == rhs
    assert hash(Ordinal.from_int(n)) == hash(n) and n not in {Ordinal.from_int(n)}


@settings(max_examples=200)
@given(ordinals())
def test_every_route_to_a_value_gives_one_object(a):
    assert parse_ordinal(ordinal_to_text(a)) is a
    assert normalize(a.terms) is a
    assert add(a, ZERO) is a and add(ZERO, a) is a
    assert multiply(a, ONE) is a and multiply(ONE, a) is a
    assert trim_last(add(a, ONE)) is a


def test_equal_values_built_by_different_routes_are_identical():
    assert Ordinal.from_int(3) is o("3") is add(ONE, o("2")) is multiply(o("3"), ONE)
    assert omega_pow(ONE) is OMEGA is o("w") is trim_last(o("w*2"))
    w2_1 = o("w^2+1")
    assert add(omega_pow(o("2")), ONE) is w2_1
    assert normalize([(o("2"), 1), (ZERO, 1)]) is w2_1
    assert multiply(o("w+1"), OMEGA) is o("w^2")
    assert trim_last(o("w^2+2")) is w2_1
    assert o("(w+1)*(w+1)") is o("w^2+w+1")


def test_copy_and_pickle_return_the_interned_object():
    a = o("w^2+1")
    copies = [copy.copy(a), copy.deepcopy(a), copy.deepcopy([a, ZERO])[0]]
    copies += [pickle.loads(pickle.dumps(a, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(b is a for b in copies)
    assert copy.deepcopy(ZERO) is ZERO
    assert pickle.loads(pickle.dumps(ZERO)) is ZERO
    assert ZERO.terms == () and ZERO.is_zero()


def test_intern_table_lets_go_of_dropped_ordinals():
    table = ordinal_module._INTERNED
    gc.collect()
    before = len(table)
    fresh = [omega_pow(Ordinal.from_int(10 ** 6 + i)) for i in range(100)]
    assert len(table) == before + 200
    del fresh
    gc.collect()
    assert len(table) == before
