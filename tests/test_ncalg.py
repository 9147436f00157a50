"""Rewriting engine: golden normal forms, confluence, flatness, derivatives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeform.ncalg import (
    DivergedError,
    MissingRuleError,
    NCPoly,
    Presentation,
    PresentationError,
    all_normal_forms,
    check_identity,
    derivative_apply,
    flatness_scan,
    normal_form,
)
from qdeform.parsing import parse_expr, parse_rule
from qdeform.presets import get_preset
from qdeform.scalars import QExact, QExactError, q_number

manin = get_preset("manin")
counterexample = get_preset("counterexample")
qheis = get_preset("qheisenberg")
wz = get_preset("wz-calculus")
suq2 = get_preset("suq2-module")


# ---------------------------------------------------------------------------
# golden normal forms (oracles: one- or two-step hand reductions)

def test_single_swap_manin():
    # y x y -> q^(-1) x y^2
    nf = normal_form(manin, (1, 0, 1))
    assert nf.terms == {(1, 2): QExact.q_power(-1)}


def test_qheisenberg_px():
    nf = normal_form(qheis, (1, 0))
    assert nf.terms == {(1, 1): QExact.q_power(1), (0, 0): -QExact.i()}


def test_already_normal_is_identity():
    nf = normal_form(manin, (0, 0, 1))
    assert nf.terms == {(2, 1): QExact.one()}


def test_double_swap_manin():
    # y^2 x -> q^(-2) x y^2 (two swaps)
    nf = normal_form(manin, (1, 1, 0))
    assert nf.terms == {(1, 2): QExact.q_power(-2)}


def test_qheisenberg_ppx_hand_reduction():
    # p p x -> p (q x p - i) -> q (q x p - i) p - i p = q^2 x p^2 - (q+1) i p
    nf = normal_form(qheis, (1, 1, 0))
    assert nf.terms == {
        (1, 2): QExact.q_power(2),
        (0, 1): -QExact.i() * (QExact.q_power(1) + 1),
    }


# ---------------------------------------------------------------------------
# engine behaviour

def test_counterexample_rewriting_diverges():
    with pytest.raises(DivergedError):
        normal_form(counterexample, (1, 1, 0), budget=5000)


@pytest.mark.parametrize("rewrite", [
    lambda: normal_form(wz, (3, 2)),
    lambda: all_normal_forms(wz, (3, 2)),
    lambda: flatness_scan(wz, 2),
], ids=["normal_form", "all_normal_forms", "flatness_scan"])
def test_missing_rule_raises(rewrite):
    with pytest.raises(MissingRuleError, match="no reordering rule for dy\\*dx"):
        rewrite()


def test_qheisenberg_p8x8_normalizes_at_default_budget():
    # p acts as -i times the q-derivative on x^m, so p^8 x^8 applied to 1 is
    # (-i)^8 [8]_q!; each of the 64 swaps p*x -> q*x*p contributes one q
    n = 8
    nf = normal_form(qheis, (1,) * n + (0,) * n)
    const = (-QExact.i()) ** n
    for m in range(1, n + 1):
        const = const * q_number(m, 1)
    assert len(nf.terms) == n + 1
    assert nf.coefficient((0, 0)) == const
    assert nf.coefficient((n, n)) == QExact.q_power(n * n)
    assert nf == parse_expr("*".join(["p"] * n + ["x"] * n), qheis)


def test_each_pending_word_is_rewritten_once():
    # p^6 x^6 reaches 91 distinct non-normal words; rewriting each once
    # takes exactly that many steps
    word = (1,) * 6 + (0,) * 6
    assert len(normal_form(qheis, word, budget=91).terms) == 7
    with pytest.raises(DivergedError):
        normal_form(qheis, word, budget=90)


def test_presentation_rejects_too_many_generators():
    with pytest.raises(PresentationError):
        Presentation(generators=tuple(f"g{k}" for k in range(257)), rules={})


@pytest.mark.parametrize("letter", [5, -1])
@pytest.mark.parametrize("rewrite", [normal_form, all_normal_forms])
def test_raw_word_letters_must_index_generators(rewrite, letter):
    with pytest.raises(PresentationError, match=f"letter {letter} .* has 2 generators"):
        rewrite(manin, (0, letter))


def test_raw_words_of_a_mapping_are_checked():
    with pytest.raises(PresentationError, match="letter 2 "):
        normal_form(manin, {(1, 0): QExact.one(), (2,): QExact.one()})


def test_presentation_rejects_degree_raising_rule():
    with pytest.raises(PresentationError):
        Presentation(
            generators=("a", "b"),
            rules={(1, 0): (((2, 1), QExact.one()),)},
        )


def test_mixed_presentation_operands_rejected():
    with pytest.raises(PresentationError):
        check_identity(manin.gen("x"), get_preset("manin").gen("x"))


# ---------------------------------------------------------------------------
# confluence under all rewrite orders (brute force)

def all_words(arity, length):
    words = [()]
    for _ in range(length):
        words = [w + (g,) for w in words for g in range(arity)]
    return words


@pytest.mark.parametrize("pres", [manin, qheis], ids=["manin", "qheisenberg"])
def test_confluence_all_orders_up_to_length_6(pres):
    for length in range(2, 7):
        for word in all_words(pres.arity, length):
            forms = all_normal_forms(pres, word)
            assert len(forms) == 1, f"word {word} has {len(forms)} normal forms"


def test_all_orders_match_leftmost_strategy():
    for word in all_words(2, 5):
        forms = all_normal_forms(manin, word)
        assert normal_form(manin, word).freeze() in forms


@pytest.mark.parametrize("pres", [manin, qheis, suq2],
                         ids=["manin", "qheisenberg", "suq2-module"])
def test_normal_form_matches_all_orders_oracle_on_random_words(pres):
    rng = random.Random(19)
    for _ in range(40):
        word = tuple(rng.randrange(pres.arity) for _ in range(rng.randint(0, 6)))
        assert {normal_form(pres, word).freeze()} == all_normal_forms(pres, word), word


def test_all_normal_forms_diverges_on_cycle():
    with pytest.raises(DivergedError):
        all_normal_forms(counterexample, (1, 1, 0))


# ---------------------------------------------------------------------------
# homomorphism property: nf(a.b) == nf(nf(a).nf(b))

words2 = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(words2, words2)
def test_normal_form_is_multiplicative_manin(wa, wb):
    direct = normal_form(manin, wa + wb)
    staged = normal_form(manin, wa) * normal_form(manin, wb)
    assert direct == staged


@settings(max_examples=60, deadline=None)
@given(words2, words2)
def test_normal_form_is_multiplicative_qheisenberg(wa, wb):
    direct = normal_form(qheis, wa + wb)
    staged = normal_form(qheis, wa) * normal_form(qheis, wb)
    assert direct == staged


words5 = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=4).map(tuple)


@settings(max_examples=40, deadline=None)
@given(words5, words5)
def test_normal_form_is_multiplicative_suq2(wa, wb):
    direct = normal_form(suq2, wa + wb)
    staged = normal_form(suq2, wa) * normal_form(suq2, wb)
    assert direct == staged


# ---------------------------------------------------------------------------
# identity checking

def test_defining_relation_is_zero():
    assert check_identity(parse_expr("x*y", manin), parse_expr("q*y*x", manin))


def test_distinct_monomials_not_identified():
    assert not check_identity(parse_expr("x*y", manin), parse_expr("y*x", manin))


@pytest.mark.parametrize("t", ["Tp", "Tm", "T3"])
def test_module_action_leaves_plane_relation_invariant(t):
    g = parse_expr("x*y - q*y*x", suq2)
    T = suq2.gen(t)
    assert check_identity(T * g, g * T)


def test_scaling_operator_identities():
    lam_op = parse_expr("1 + i*(q-1)*x*p", qheis)
    x, p = qheis.gen("x"), qheis.gen("p")
    q = QExact.q_power(1)
    assert (lam_op * x - (x * lam_op).scale(q)).is_zero()
    assert (lam_op * p - (p * lam_op).scale(q.inverse())).is_zero()


# ---------------------------------------------------------------------------
# flatness scans

def test_manin_flat_counts_degree_6():
    rep = flatness_scan(manin, 6)
    assert rep.counts == (1, 2, 3, 4, 5, 6, 7)
    assert rep.counts == rep.flat_counts
    assert rep.relations == ()
    assert rep.is_flat


def test_qheisenberg_is_flat():
    rep = flatness_scan(qheis, 5)
    assert rep.is_flat
    assert rep.counts == tuple(d + 1 for d in range(6))


def test_suq2_module_is_flat_low_degree():
    rep = flatness_scan(suq2, 3)
    assert rep.is_flat
    # C(d+4,4) for d = 0..3
    assert rep.counts == (1, 5, 15, 35)


def test_counterexample_relation_degree_3():
    rep = flatness_scan(counterexample, 3)
    assert rep.counts == (1, 2, 3, 3)
    assert len(rep.relations) == 1
    rel = rep.relations[0]
    one = QExact.one()
    assert rel.terms == {
        (3, 0): one,
        (0, 3): one,
        (2, 1): one,
        (1, 2): one,
    }
    assert rel.render() == "x^3 + y^3 + x^2*y + x*y^2"


# relations of flatness_scan(counterexample, 6), in report order
COUNTEREXAMPLE_D6_RELATIONS = (
    "x^6 - x^2*y^4",
    "x^5*y - x*y^5",
    "-y^6 + x^4*y^2",
    "y^6 + x*y^5 + x^2*y^4 + x^3*y^3",
    "x^5 - x*y^4",
    "-y^5 + x^4*y",
    "y^5 + x*y^4 + x^3*y^2 + x^2*y^3",
    "x^4 - y^4",
    "y^4 + x^3*y + x*y^3 + x^2*y^2",
    "x^3 + y^3 + x^2*y + x*y^2",
)


def test_counterexample_relations_through_degree_6():
    rep = flatness_scan(counterexample, 6)
    assert rep.counts == (1, 2, 3, 3, 3, 3, 3)
    assert tuple(r.render() for r in rep.relations) == COUNTEREXAMPLE_D6_RELATIONS
    assert rep.relation_degrees() == (6, 6, 6, 6, 5, 5, 5, 4, 4, 3)


def test_q_dependent_relation_fails_symbolic_recheck():
    # the lift of the generic-point relation keeps 49/25 where the exact
    # relation has q, and only the symbolic re-check catches it
    with pytest.raises(QExactError, match="failed the symbolic re-check"):
        flatness_scan(parse_rule("y*x -> q*x*y + x^2 + y^2"), 3)


def _weyl_wrong_dydx():
    # commutative Weyl algebra x < y < dx < dy with a wrong dy*dx -> 2*dx*dy;
    # its rules are inhomogeneous (dx*x -> 1 + x*dx)
    one = QExact.one()
    return Presentation(
        generators=("x", "y", "dx", "dy"),
        rules={
            (1, 0): (((1, 1, 0, 0), one),),
            (2, 0): (((0, 0, 0, 0), one), ((1, 0, 1, 0), one)),
            (2, 1): (((0, 1, 1, 0), one),),
            (3, 0): (((1, 0, 0, 1), one),),
            (3, 1): (((0, 0, 0, 0), one), ((0, 1, 0, 1), one)),
            (3, 2): (((0, 0, 1, 1), QExact.rational(2)),),
        },
        n_coords=2,
        name="weyl-wrong",
    )


def test_inhomogeneous_relation_rechecked_against_all_rows():
    # dx = dy = 0 follows from rows of length 3 only: reducing the degree-1
    # relations against the rows of length <= 1 wrongly failed the re-check
    rep = flatness_scan(_weyl_wrong_dydx(), 3)
    assert tuple(r.render() for r in rep.relations) == ("dx", "dy")
    assert rep.counts == (1, 2, 10, 20)


def test_degree_one_never_has_relations():
    for pres in (manin, counterexample, qheis, suq2):
        rep = flatness_scan(pres, 1)
        assert rep.counts[1] == pres.arity
        assert rep.relations == ()


def test_flatness_budget_guard():
    with pytest.raises(DivergedError):
        flatness_scan(suq2, 7)  # 5^0 + ... + 5^7 = 97,656 words
    with pytest.raises(PresentationError):
        flatness_scan(manin, 9)
    with pytest.raises(PresentationError):
        flatness_scan(manin, -1)


# ---------------------------------------------------------------------------
# derivative action

def test_derivative_examples():
    assert derivative_apply("dx", parse_expr("x", wz)).render() == "1"
    assert derivative_apply("dx", parse_expr("x*y", wz)).render() == "q^2*y"
    assert derivative_apply("dy", parse_expr("x", wz)).is_zero()
    assert derivative_apply("dy", parse_expr("y", wz)).render() == "1"


def test_derivative_rejects_operator_polynomials():
    with pytest.raises(PresentationError):
        derivative_apply("dx", parse_expr("dx*x", wz))
    with pytest.raises(PresentationError):
        derivative_apply("x", parse_expr("y", wz))


def plane_monomials(max_degree):
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            if a + b >= 1:
                yield a, b


def test_leibniz_rule_on_monomials_up_to_degree_4():
    # dx |> (x*p) = p + q^2 x (dx |> p) + q*lam y (dy |> p)
    q2 = QExact.q_power(2)
    qlam = QExact.q_power(2) - 1
    x, y = wz.gen("x"), wz.gen("y")
    for a, b in plane_monomials(4):
        p = x ** a * y ** b
        lhs = derivative_apply("dx", x * p)
        rhs = p + (x * derivative_apply("dx", p)).scale(q2) + (
            y * derivative_apply("dy", p)
        ).scale(qlam)
        assert check_identity(lhs, rhs), f"Leibniz fails on x^{a} y^{b}"


def test_derivative_leibniz_in_y():
    # dy |> (y*p) = p + q^2 y (dy |> p) for pure-y powers (no cross term)
    y = wz.gen("y")
    q2 = QExact.q_power(2)
    for b in range(5):
        p = y ** b
        lhs = derivative_apply("dy", y * p)
        rhs = p + (y * derivative_apply("dy", p)).scale(q2)
        assert check_identity(lhs, rhs)


# ---------------------------------------------------------------------------
# rendering

def test_render_orderings():
    poly = parse_expr("p*x", qheis)
    assert poly.render() == "-i + q*x*p"
    assert parse_expr("x^2*y", manin).render() == "x^2*y"
    assert manin.zero().render() == "0"
    assert (manin.gen("x") - manin.gen("x")).render() == "0"


def test_render_multiterm_coefficient_parenthesized():
    poly = parse_expr("(1+q)*x", manin)
    assert poly.render() == "(1 + q)*x"
