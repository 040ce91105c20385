import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import KFrame
from ordtopo.ordinal import MAX_NESTING, OMEGA, ONE, Ordinal, ZERO, parse_ordinal
from ordtopo.logic import (
    And,
    Bot,
    Box,
    Dia,
    FormulaSyntaxError,
    Implies,
    IndexOutOfRange,
    LogicError,
    Not,
    OP_AND,
    OP_DIA,
    OP_NOT,
    OP_OR,
    OP_VAR,
    Or,
    PolySpace,
    Top,
    UnboundVariable,
    Var,
    BOT,
    TOP,
    _random_formula,
    check_axioms,
    compile_formula,
    condense,
    conj,
    eval_kripke,
    eval_topo,
    find_falsifying_valuation,
    formula_to_text,
    gamma_fragment,
    parse_formula,
    tree_formula,
)
from ordtopo.jtree import JFrame
from ordtopo.topology import (
    EMPTY,
    complement_within,
    interval,
    member,
    parse_bandset,
    sets_equal,
    subset_of,
    union,
)

o = parse_ordinal
f = parse_formula


def test_parse_goldens():
    assert f("<0> p0") == Dia(ZERO, Var(0))
    assert f("[w] (p0 -> p1)") == Box(OMEGA, Implies(Var(0), Var(1)))
    assert f("<w^2> ~<1> T") == Dia(o("w^2"), Not(Dia(ONE, Top())))
    assert f("p0 -> p1 -> p2") == Implies(Var(0), Implies(Var(1), Var(2)))
    assert f("p0 & p1 | p2") == f("(p0 & p1) | p2")
    with pytest.raises(FormulaSyntaxError):
        f("p0 &")
    with pytest.raises(FormulaSyntaxError):
        f("<w*> p0")
    assert f("<w*w> p0") == Dia(o("w^2"), Var(0))
    assert f("[ w ]p1->p0->F") == Implies(Box(OMEGA, Var(1)), Implies(Var(0), BOT))
    with pytest.raises(FormulaSyntaxError):
        f("<" + "w^" * 70 + "1> p0")  # past the CNF depth cap
    with pytest.raises(FormulaSyntaxError):
        f("p 0")


def test_nesting_cap():
    """Formulas nested up to MAX_NESTING read, compile, print, condense
    and evaluate; one level more is a syntax error."""
    sp = PolySpace(OMEGA, (ONE,))
    n = MAX_NESTING // 2
    for text in ["(" * MAX_NESTING + "p0" + ")" * MAX_NESTING,
                 "~" * MAX_NESTING + "p0",
                 "(~" * n + "p0" + ")" * n,
                 "([0]" * n + "p0" + ")" * n,
                 "(p0 & " * MAX_NESTING + "p0" + ")" * MAX_NESTING]:
        phi = f(text)
        assert f(formula_to_text(phi)) == phi
        compile_formula(phi)
        condense(phi)
        eval_topo(phi, sp, {0: interval(ONE, OMEGA)})
        with pytest.raises(FormulaSyntaxError):
            f("~" + text)
    with pytest.raises(FormulaSyntaxError):
        f("~" * 5000 + "p0")


def test_print_round_trip():
    rng = random.Random(5)
    from ordtopo.logic import _random_formula

    for _ in range(300):
        phi = _random_formula(rng, 3, 2, 3)
        assert f(formula_to_text(phi)) == phi


def test_condense_goldens():
    phi, sigma = condense(f("<w>p0"))
    assert (phi, sigma) == (f("<0>p0"), (OMEGA,))
    phi, sigma = condense(f("<0><w>p0"))
    assert (phi, sigma) == (f("<0><1>p0"), (ZERO, OMEGA))
    phi, sigma = condense(f("p0 & ~p1"))
    assert (phi, sigma) == (f("p0 & ~p1"), ())


def test_eval_topo_goldens():
    sp = PolySpace(OMEGA, (ONE,))
    assert eval_topo(f("F"), sp, {}) == EMPTY
    assert sets_equal(eval_topo(f("<0>T"), sp, {}), interval(OMEGA, OMEGA), OMEGA)
    w2 = o("w^2")
    sp2 = PolySpace(w2, (ONE,))
    succ = parse_bandset("[1,w^2] & l in (-1,0]")
    got = eval_topo(f("~p0"), sp2, {0: succ})
    assert sets_equal(got, parse_bandset("[1,w^2] & l in (0,inf]"), w2)
    with pytest.raises(UnboundVariable):
        eval_topo(f("p7"), sp, {})
    with pytest.raises(IndexOutOfRange):
        eval_topo(f("<3>T"), sp, {})


def test_eval_kripke_goldens():
    chain = KFrame(("a", "b"), (frozenset({("a", "b")}),))
    assert eval_kripke(f("<0>T"), chain, {}) == {"a"}
    assert eval_kripke(f("[0]F"), chain, {}) == {"b"}
    frame = KFrame(("a", "b", "c"),
                   (frozenset({("a", "b")}), frozenset({("b", "c")})))
    assert eval_kripke(f("<0><1>T"), frame, {}) == {"a"}


def test_eval_kripke_errors():
    chain = KFrame(("a", "b"), (frozenset({("a", "b")}),))
    with pytest.raises(UnboundVariable):
        eval_kripke(f("<0>p1"), chain, {0: frozenset()})
    with pytest.raises(IndexOutOfRange):
        eval_kripke(f("<1>T"), chain, {})
    # a node outside the frame has no bit; it is an error, not an answer
    with pytest.raises(LogicError):
        eval_kripke(f("p0"), chain, {0: frozenset({"z"})})
    stray = KFrame(("a",), (frozenset({("a", "z")}),))
    with pytest.raises(LogicError):
        eval_kripke(f("<0>T"), stray, {})


def test_compile_shares_subformulas_and_groups_by_last_atom():
    prog = compile_formula(f("(p1 & <0>p0) | ~p1 | <0>p0"))
    assert prog.atoms == (0, 1)
    assert prog.mods == (ZERO,)
    # p0 and <0>p0 read atom 0 only; the rest reads p1
    assert prog.code == ((OP_VAR, 0, 0), (OP_DIA, 0, 0), (OP_VAR, 1, 0),
                         (OP_AND, 2, 1), (OP_NOT, 2, 0), (OP_OR, 3, 4),
                         (OP_OR, 5, 1))
    assert prog.starts == (0, 2, 7)
    assert compile_formula(f("T & ~T")).starts == (3,)
    # T, p0, p0 & T, p1, ~p1, (p0 & T) & ~p1
    assert compile_formula(f("(p0 & T) & ~p1")).tops == ((0,), (1,), (4,))
    # p0, p1, p0 & p1, p1 & p0, ...: each conjunct once
    assert compile_formula(f("(p0 & p1) & (p1 & p0) & (p0 & p1)")).tops == ((), (0,), (1,))
    # T, <0>T, p0, ~p0, p1, p1 & <0>T, ...: the atom-free <0>T in group 0
    assert compile_formula(f("p1 & <0>T & (p1 & <0>T) & ~p0")).tops == ((1,), (3,), (4,))


def top_conjuncts(code):
    """The slots of the top-level conjuncts, walking the ANDs down from the
    last slot, in no order and maybe repeated."""
    out, todo = [], [len(code) - 1]
    while todo:
        op, x, y = code[todo[-1]]
        if op == OP_AND:
            todo[-1:] = [x, y]
        else:
            out.append(todo.pop())
    return out


def test_tops_group_the_top_level_conjuncts():
    rng = random.Random(41)
    for _ in range(300):
        prog = compile_formula(conj([_random_formula(rng, 3, 2, 3)
                                     for _ in range(rng.randint(1, 4))]))
        bounds = (0,) + prog.starts
        want = tuple(tuple(sorted({s for s in top_conjuncts(prog.code)
                                   if lo <= s < hi}))
                     for lo, hi in zip(bounds, bounds[1:]))
        assert prog.tops == want, prog


def test_a_compiled_formula_equals_an_uncompiled_one():
    a, b = f("p0 & <0>(p1 -> p0)"), f("p0 & <0>(p1 -> p0)")
    assert compile_formula(a) is compile_formula(a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert compile_formula(b) == compile_formula(a)


# every connected treelike frame on 1-4 nodes with 1 or 2 relations
JFRAMES = [(n, rels) for k in (1, 2) for n in range(1, 5)
           for rels in helpers.jtree_rels(tuple(range(n)), k)]


def _formulas(n_mods):
    index = st.integers(0, n_mods - 1).map(Ordinal.from_int)
    return st.recursive(
        st.one_of(st.integers(0, 2).map(Var), st.just(TOP), st.just(BOT)),
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(Box, index, sub),
            st.builds(Dia, index, sub)),
        max_leaves=12)


FORMULAS = {k: _formulas(k) for k in (1, 2)}


@st.composite
def kripke_cases(draw):
    n, rels = draw(st.sampled_from(JFRAMES))
    names = list(range(10, 10 + n)) if draw(st.booleans()) else \
        [f"n{i}" for i in range(n)]
    order = draw(st.permutations(range(n)))  # node order fixes the bit order
    ren = dict(zip(range(n), names))
    frame = JFrame(tuple(names[i] for i in order),
                   tuple(frozenset((ren[a], ren[b]) for a, b in r) for r in rels))
    v = {i: frozenset(draw(st.sets(st.sampled_from(names)))) for i in range(3)}
    return draw(FORMULAS[len(rels)]), frame, v


@settings(max_examples=300, deadline=None)
@given(kripke_cases())
def test_eval_kripke_matches_set_definitions(case):
    phi, frame, v = case
    assert eval_kripke(phi, frame, v) == helpers.kripke_oracle(phi, frame, v)


def test_box_duality_and_monotonicity():
    rng = random.Random(9)
    theta = o("w^w")
    sp = PolySpace(theta, (ONE, o("2")))
    uni = helpers.finite_universe()
    for _ in range(25):
        a = helpers.random_bandset_u(rng, uni)
        b = helpers.random_bandset_u(rng, uni)
        v = {0: a, 1: b}
        for k in ("0", "1"):
            box = eval_topo(f(f"[{k}]p0"), sp, v)
            dual = complement_within(
                eval_topo(parse_formula(f"<{k}>~p0"), sp, v), ONE, theta)
            assert sets_equal(box, dual, theta)
        # monotone: [[p0]] subset of [[p0 | p1]] lifts through the diamond
        da = eval_topo(f("<0>p0"), sp, v)
        dab = eval_topo(f("<0>(p0 | p1)"), sp, v)
        assert subset_of(da, dab, theta)


def test_check_axioms_valid():
    sp = PolySpace(o("w^w*2"), (ONE, o("2")))
    report = check_axioms(sp, trials=40, seed=3)
    assert report.ok, str(report)
    assert report.checked == 40 * 6


def test_probe_falsified():
    sp = PolySpace(o("w^w*2"), (ONE, o("2")))
    probe = f("<0>p0 -> <1>p0")
    # explicit counterexample: successors accumulate in the order topology
    # but never at the finer level
    succ = parse_bandset("[1,w^w*2] & l in (-1,0]")
    got = eval_topo(probe, sp, {0: succ})
    assert not sets_equal(got, interval(ONE, sp.theta), sp.theta)
    assert find_falsifying_valuation(probe, sp, trials=100, seed=1) is not None


def test_tree_formula_satisfied_at_root():
    for frame, root in helpers.all_trees(4):
        phi = tree_formula(frame)
        v = {i: frozenset({n}) for i, n in enumerate(frame.nodes)}
        got = eval_kripke(phi, frame, v)
        assert root in got, (frame, formula_to_text(phi))
        # and nowhere else
        assert got == {root}


def test_tree_formula_single_node():
    frame = KFrame(("r",), (frozenset(),))
    phi = tree_formula(frame)
    assert eval_kripke(phi, frame, {0: frozenset({"r"})}) == {"r"}


def test_gamma_fragment_goldens():
    assert [formula_to_text(g) for g in gamma_fragment(0)] == ["<0>p0"]
    assert [formula_to_text(g) for g in gamma_fragment(2)] == [
        "<0>p0", "[0](p0 -> <0>p1)", "[0](p1 -> <0>p2)"]
