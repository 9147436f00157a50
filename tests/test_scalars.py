"""Exact scalar ring: oracles frozen first, then property checks."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeform.scalars import (
    GR_I,
    GR_ONE,
    GaussRat,
    HalfInt,
    QExact,
    QExactError,
    halfint_range_desc,
    lambda_sym,
    q_number,
    q_number_value,
)

# ---------------------------------------------------------------------------
# oracle: q-numbers computed by an independent route (explicit geometric sums
# written out by hand, no shared code path with q_number).

# [n]_1 for n = 0..4: 0, 1, 1+q, 1+q+q^2, 1+q+q^2+q^3  (s-powers twice that)
QNUM_R1 = {
    0: {},
    1: {0: 1},
    2: {0: 1, 2: 1},
    3: {0: 1, 2: 1, 4: 1},
    4: {0: 1, 2: 1, 4: 1, 6: 1},
}

# [n]_2 = (1-q^(2n))/(1-q^2): 1, 1+q^2, 1+q^2+q^4
QNUM_R2 = {1: {0: 1}, 2: {0: 1, 4: 1}, 3: {0: 1, 4: 1, 8: 1}}

# [n]_{-2} = (1-q^(-2n))/(1-q^(-2)): 1, 1+q^(-2), and [-1]_{-2} = -q^2
QNUM_RM2 = {1: {0: 1}, 2: {0: 1, -4: 1}, -1: {4: -1}}

# negative index with r = 1: [-2]_1 = -(q^(-1) + q^(-2))
QNUM_R1_NEG = {-1: {-2: -1}, -2: {-2: -1, -4: -1}}


def as_terms(qx: QExact) -> dict[int, Fraction]:
    return {k: c.re for k, c in qx.terms.items() if not c.is_zero()}


@pytest.mark.parametrize("n,expected", sorted(QNUM_R1.items()))
def test_q_number_r1_oracle(n, expected):
    assert as_terms(q_number(n, 1)) == {k: Fraction(v) for k, v in expected.items()}


@pytest.mark.parametrize("n,expected", sorted(QNUM_R2.items()))
def test_q_number_r2_oracle(n, expected):
    assert as_terms(q_number(n, 2)) == {k: Fraction(v) for k, v in expected.items()}


@pytest.mark.parametrize("n,expected", sorted(QNUM_RM2.items()))
def test_q_number_rm2_oracle(n, expected):
    assert as_terms(q_number(n, -2)) == {k: Fraction(v) for k, v in expected.items()}


@pytest.mark.parametrize("n,expected", sorted(QNUM_R1_NEG.items()))
def test_q_number_r1_negative_oracle(n, expected):
    assert as_terms(q_number(n, 1)) == {k: Fraction(v) for k, v in expected.items()}


def test_q_number_halfinteger_index_leaves_ring():
    with pytest.raises(QExactError):
        q_number(Fraction(1, 2), 1)
    with pytest.raises(QExactError):
        q_number(Fraction(3, 2), 2)


@pytest.mark.parametrize("r", [1, -3])
def test_q_number_holds_at_most_100000_terms(r):
    """[n]_r has |n| terms whatever r is; one more than the bound is refused."""
    for n in (100_000, -100_000):
        q_number(n, r)
    for n in (100_001, -100_001):
        with pytest.raises(QExactError, match="has 100001 terms"):
            q_number(n, r)


def test_q_number_float_agrees_with_exact():
    for q in (1.3, 0.7, 2.0):
        for n in (-3, -1, 0, 2, 5):
            for r in (1, 2, -2):
                exact = q_number(n, r).eval(q)
                assert exact.imag == 0.0
                assert q_number_value(n, r, q) == pytest.approx(
                    exact.real, rel=1e-13, abs=1e-13
                )


def test_q_number_value_q1_is_classical():
    assert q_number_value(Fraction(3, 2), 2, 1.0) == 1.5
    assert q_number_value(4, 1, 1.0) == 4.0


@pytest.mark.parametrize("q", [0.0, -2.0, float("nan"), float("inf")])
def test_q_number_value_needs_finite_positive_q(q):
    with pytest.raises(ValueError, match="finite q > 0"):
        q_number_value(Fraction(5, 2), 1, q)


def test_q_number_value_overflow_names_the_index():
    assert q_number_value(10, 1, 0.7) == pytest.approx((1 - 0.7 ** 10) / 0.3, rel=1e-14)
    with pytest.raises(ValueError, match=r"use a smaller \|n\|"):
        q_number_value(10000, 1, 1.5)


# ---------------------------------------------------------------------------
# oracle: golden rendering strings (frozen by hand from the format contract)

RENDER_GOLDEN = [
    (QExact.zero(), "0"),
    (QExact.one(), "1"),
    (QExact.rational(-1), "-1"),
    (QExact.rational(Fraction(1, 2)), "1/2"),
    (QExact.i(), "i"),
    (QExact.gauss(GaussRat(Fraction(0), Fraction(-1))), "-i"),
    (QExact.q_power(1), "q"),
    (QExact.q_power(2), "q^2"),
    (QExact.q_power(-1), "q^(-1)"),
    (QExact.q_power(Fraction(1, 2)), "q^(1/2)"),
    (QExact.q_power(Fraction(-1, 2)), "q^(-1/2)"),
    (QExact.q_power(Fraction(3, 2), coeff=-1), "-q^(3/2)"),
    (QExact.one() + QExact.q_power(2), "1 + q^2"),
    (QExact.q_power(-1) - QExact.q_power(1) * 2, "q^(-1) - 2*q"),
    (QExact.q_power(Fraction(-1, 2), coeff=GaussRat(Fraction(0), Fraction(1, 2))),
     "(1/2)*i*q^(-1/2)"),
    (QExact.q_power(1, coeff=Fraction(3, 4)), "(3/4)*q"),
    (QExact.gauss(GaussRat(Fraction(1), Fraction(1))) * QExact.q_power(2),
     "(1+i)*q^2"),
    (lambda_sym(), "-q^(-1) + q"),
]


@pytest.mark.parametrize("value,text", RENDER_GOLDEN, ids=[t for _, t in RENDER_GOLDEN])
def test_render_golden(value, text):
    assert value.render() == text


# ---------------------------------------------------------------------------
# HalfInt behaviour

def test_halfint_coercion_and_arithmetic():
    h = HalfInt.coerce(Fraction(3, 2))
    assert h.twice == 3 and not h.is_integer()
    assert float(h + 1) == 2.5
    assert (h - Fraction(1, 2)).as_int() == 1
    assert str(h) == "3/2" and str(HalfInt.coerce(2)) == "2"
    with pytest.raises(QExactError):
        HalfInt.coerce(Fraction(1, 3))
    with pytest.raises(QExactError):
        h.as_int()


def test_halfint_range_descending():
    labels = halfint_range_desc(HalfInt.coerce(Fraction(3, 2)))
    assert [x.twice for x in labels] == [3, 1, -1, -3]


# ---------------------------------------------------------------------------
# algebraic identities of the exact ring

def test_lambda_factorisation():
    lam = lambda_sym()
    s, sinv = QExact.s_power(1), QExact.s_power(-1)
    assert lam == (s - sinv) * (s + sinv)
    assert lam.eval(1.0) == 0


def test_conjugation_fixes_s_and_flips_i():
    z = QExact.q_power(Fraction(1, 2), coeff=GaussRat(Fraction(1, 3), Fraction(2)))
    c = z.conj()
    assert (z + c).terms[1].im == 0
    assert c.conj() == z


def test_inverse_of_monomial_and_failure_otherwise():
    m = QExact.q_power(Fraction(-3, 2), coeff=Fraction(2, 5))
    assert (m * m.inverse()).is_one()
    with pytest.raises(QExactError):
        (QExact.one() + QExact.q_power(1)).inverse()


def test_sqrt_monomial():
    m = QExact.q_power(2, coeff=Fraction(9, 4))
    r = m.sqrt_monomial()
    assert r * r == m
    assert r.render() == "(3/2)*q"
    with pytest.raises(QExactError):
        QExact.q_power(Fraction(1, 2)).sqrt_monomial()


def test_eval_at_rational_s_is_exact():
    z = QExact({2: GR_ONE, -2: -GR_ONE})  # q - 1/q at s
    v = z.eval_at_s(Fraction(7, 5))
    assert v == GaussRat(Fraction(49, 25) - Fraction(25, 49), Fraction(0))


# ---------------------------------------------------------------------------
# property tests

# the fractions in [-5, 5] with denominator at most 6, the values of
# st.fractions(min_value=-5, max_value=5, max_denominator=6), which spends
# most of these properties' time generating examples
small_fractions = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=6)
).filter(lambda f: -5 <= f <= 5)

gaussrats = st.builds(GaussRat, small_fractions, small_fractions)

qexacts = st.dictionaries(
    st.integers(min_value=-6, max_value=6), gaussrats, max_size=4
).map(QExact)


@settings(max_examples=150, deadline=None)
@given(qexacts, qexacts, qexacts)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert (a - a).is_zero()


@settings(max_examples=150, deadline=None)
@given(qexacts, qexacts)
def test_conj_is_ring_antiinvolution(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=100, deadline=None)
@given(qexacts, st.floats(min_value=0.3, max_value=3.0))
def test_eval_is_ring_hom(a, q):
    b = QExact.q_power(1) - 2
    lhs = (a * b).eval(q)
    rhs = a.eval(q) * b.eval(q)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_q_number_addition_rule(m, n):
    # [m+n] = [m] + q^m [n]  (base r = 1)
    lhs = q_number(m + n, 1)
    rhs = q_number(m, 1) + QExact.q_power(m) * q_number(n, 1)
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-5, max_value=5), st.sampled_from([1, 2, -1, -2]))
def test_q_number_matches_rational_evaluation(n, r):
    # independent oracle: evaluate (1-x^n)/(1-x) at exact rational x = (7/5)^(2r)
    s = Fraction(7, 5)
    x = s ** (2 * r)
    expect = Fraction(0)
    if n > 0:
        expect = sum((x ** j for j in range(n)), Fraction(0))
    elif n < 0:
        expect = -sum((x ** (j + n) for j in range(-n)), Fraction(0))
    got = q_number(n, r).eval_at_s(s)
    assert got.im == 0 and got.re == expect


def test_hash_consistency():
    a = QExact.q_power(1) + 1
    b = QExact.one() + QExact.q_power(1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# the integer kernel against an independent oracle: coefficients as plain
# Fraction pairs, products by convolution written out here


def _fraction_terms(x: QExact) -> dict[int, tuple[Fraction, Fraction]]:
    return {k: (c.re, c.im) for k, c in x.terms.items()}


def _oracle_sum(a, b):
    out = dict(a)
    for k, (re, im) in b.items():
        r0, i0 = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _oracle_product(a, b):
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            r0, i0 = out.get(k1 + k2, (Fraction(0), Fraction(0)))
            out[k1 + k2] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != (0, 0)}


@settings(max_examples=100, deadline=None)
@given(qexacts, qexacts)
def test_kernel_matches_fraction_convolution(a, b):
    fa, fb = _fraction_terms(a), _fraction_terms(b)
    assert _fraction_terms(a * b) == _oracle_product(fa, fb)
    assert _fraction_terms(a + b) == _oracle_sum(fa, fb)
    assert _fraction_terms(a - b) == _oracle_sum(
        fa, {k: (-re, -im) for k, (re, im) in fb.items()})


def _half():
    return QExact.rational(Fraction(1, 2))


CANONICAL_CASES = [
    ("1/2 + 1/2", lambda: _half() + _half(), lambda: QExact.one()),
    ("3*(1/6)", lambda: 3 * QExact.rational(Fraction(1, 6)), _half),
    ("i*i", lambda: QExact.i() * QExact.i(), lambda: QExact.rational(-1)),
    ("x - x", lambda: (QExact.q_power(1, coeff=Fraction(2, 3)) + _half())
     - (QExact.q_power(1, coeff=Fraction(2, 3)) + _half()), QExact.zero),
    ("(2/3)q*(3/2)", lambda: QExact.q_power(1, coeff=Fraction(2, 3))
     * Fraction(3, 2), lambda: QExact.q_power(1)),
]


@pytest.mark.parametrize("built,direct", [c[1:] for c in CANONICAL_CASES],
                         ids=[c[0] for c in CANONICAL_CASES])
def test_canonical_form_is_route_independent(built, direct):
    x, y = built(), direct()
    assert x == y
    assert hash(x) == hash(y)
    assert x.freeze() == y.freeze()
    assert x.render() == y.render()


def test_gaussrat_canonical_form():
    half = GaussRat(Fraction(1, 2), Fraction(0))
    assert half + half == GR_ONE and hash(half + half) == hash(GR_ONE)
    assert GR_I * GR_I == GaussRat(-1, 0)
    assert GaussRat(Fraction(2, 4), Fraction(-3, 6)).re == Fraction(1, 2)
    quotient = GaussRat(Fraction(1), Fraction(1)) / GaussRat(Fraction(1), Fraction(-1))
    assert quotient == GR_I
    assert (GR_ONE / GaussRat(Fraction(-2, 3), Fraction(0))).re == Fraction(-3, 2)


def test_exact_scalars_reject_attribute_assignment():
    g = GaussRat(Fraction(1, 3), Fraction(2))
    x = QExact.q_power(1) + 1
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(x)) == x
    for obj, name in ((g, "re"), (g, "im"), (g, "_a"), (g, "extra"),
                      (x, "terms"), (x, "_num"), (x, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        del g.re
    assert g == GaussRat(Fraction(1, 3), Fraction(2))
    assert x == QExact.one() + QExact.q_power(1)
