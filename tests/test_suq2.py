"""Representation builder: exact spinor oracle, residuals, coproduct, embedding."""

from fractions import Fraction

import numpy as np
import pytest

from qdeform import exactmat as xm, suq2
from qdeform.scalars import HalfInt, QExact
from qdeform.suq2 import (
    DecompositionError,
    SingularLimitError,
    Suq2Rep,
    algebra_defects_exact,
    algebra_residuals,
    build_rep,
    build_rep_exact,
    casimir_commutation_residuals,
    casimir_decompose,
    casimir_eigenvalue,
    casimir_matrix,
    conjugation_defects_exact,
    conjugation_residuals,
    coproduct,
    from_su2_embedding,
    rep_report,
    spinor_exact,
)
from qdeform.suq2 import _tau_power

JS = [Fraction(1, 2), 1, Fraction(3, 2), 2]
QS = [1.1, 1.5]


# ---------------------------------------------------------------------------
# exact spinor oracle: the 2x2 table frozen by hand

def test_spinor_exact_table():
    sp = spinor_exact()
    q1, qm1 = QExact.q_power(1), QExact.q_power(-1)
    assert sp.T3[0][0] == qm1 and sp.T3[1][1] == -q1
    assert sp.T3[0][1].is_zero() and sp.T3[1][0].is_zero()
    assert sp.Tplus[0][1] == qm1 and sp.Tplus[1][0].is_zero()
    assert sp.Tminus[1][0] == q1 and sp.Tminus[0][1].is_zero()
    assert sp.tau[0][0] == QExact.q_power(-2) and sp.tau[1][1] == QExact.q_power(2)


def test_spinor_exact_relations_zero_defect():
    sp = spinor_exact()
    for defect in algebra_defects_exact(sp):
        assert xm.is_zero(defect)
    for defect in conjugation_defects_exact(sp):
        assert xm.is_zero(defect)


def test_exact_variant_unavailable_beyond_monomial_entries():
    from qdeform.scalars import QExactError

    with pytest.raises(QExactError):
        build_rep_exact(1)


def test_dagger_of_relation2_gives_relation3_exact():
    # whenever T3^† = T3 and T+^† = q^(-2) T-, the relation-3 defect is
    # exactly -q^2 times the dagger of the relation-2 defect; check on a
    # perturbed spinor where both defects are nonzero
    from qdeform.suq2 import Suq2RepExact

    sp = spinor_exact()
    t3 = [list(row) for row in sp.T3]
    t3[0][0] = t3[0][0] + QExact.one()  # hermitean bump off the weight lattice
    t3 = xm.mat(t3)
    tm = xm.scale(xm.dagger(sp.Tplus), QExact.q_power(2))  # conjugation exact
    perturbed = Suq2RepExact(T3=t3, Tplus=sp.Tplus, Tminus=tm, tau=sp.tau, j=sp.j)
    d1, d2, d3 = algebra_defects_exact(perturbed)
    assert not xm.is_zero(d2)  # perturbation really breaks relation 2
    assert xm.is_zero(xm.sub(d3, xm.scale(xm.dagger(d2), -QExact.q_power(2))))


# ---------------------------------------------------------------------------
# floating representations

@pytest.mark.parametrize("j", JS)
@pytest.mark.parametrize("q", QS)
def test_algebra_conjugation_casimir_residuals(j, q):
    rep = build_rep(j, q)
    assert max(algebra_residuals(rep)) <= 1e-12
    assert max(conjugation_residuals(rep)) <= 1e-12
    assert max(casimir_commutation_residuals(rep)) <= 1e-12
    C = casimir_matrix(rep)
    cj = casimir_eigenvalue(j, q)
    assert np.max(np.abs(C - cj * np.eye(rep.dim))) <= 1e-12 * max(1.0, abs(cj))


def test_rep_structure():
    rep = build_rep(Fraction(3, 2), 1.3)
    assert rep.dim == 4
    assert np.count_nonzero(np.tril(rep.Tplus)) == 0  # strictly upper
    assert np.count_nonzero(np.triu(rep.Tminus)) == 0  # strictly lower
    assert np.all(rep.tau > 0)
    # tau = 1 - lam*T3 = q^(-4m) on the descending basis
    q = rep.q
    expected = [q ** (-4 * float(m)) for m in rep.basis]
    assert np.allclose(rep.tau, expected, atol=1e-14)


@pytest.mark.parametrize("rep", [build_rep(Fraction(3, 2), 1.3),
                                 coproduct(build_rep(1, 1.3), build_rep(Fraction(1, 2), 1.3)),
                                 from_su2_embedding(1, 1.3)[0]])
def test_weights_are_real_diagonals(rep):
    # T3 and tau are stored as their diagonals, the ladders as real matrices
    for diagonal in (rep.T3, rep.tau):
        assert diagonal.dtype == np.float64 and diagonal.shape == (rep.dim,)
    for ladder in (rep.Tplus, rep.Tminus):
        assert ladder.dtype == np.float64 and ladder.shape == (rep.dim, rep.dim)
    assert len(rep.basis) == rep.dim


@pytest.mark.parametrize("q", [0.9, float("inf"), float("nan")])
def test_build_rep_needs_finite_q_at_least_one(q):
    with pytest.raises(ValueError, match="finite and satisfy q >= 1"):
        build_rep(1, q)


def test_build_rep_overflow_asks_for_a_smaller_j():
    with pytest.raises(ValueError, match="spin j = 200 overflow a double at q = 3.0; use a smaller j"):
        build_rep(200, 3.0)


def test_q_one_reduces_to_su2_normalization():
    rep = build_rep(Fraction(1, 2), 1.0)
    assert np.allclose(rep.T3, [1.0, -1.0])
    assert max(algebra_residuals(rep)) <= 1e-14
    with pytest.raises(SingularLimitError):
        casimir_matrix(rep)


def test_casimir_eigenvalue_closed_forms():
    q = 1.3
    assert casimir_eigenvalue(0, q) == 0.0
    assert casimir_eigenvalue(1, q) == pytest.approx(1 + q * q, rel=1e-14)
    expect_half = q * (1 + q + q * q) / (1 + q) ** 2
    assert casimir_eigenvalue(Fraction(1, 2), q) == pytest.approx(expect_half, rel=1e-13)
    # q -> 1 limits recover j(j+1)
    for j, target in ((Fraction(1, 2), 0.75), (1, 2.0), (2, 6.0)):
        assert casimir_eigenvalue(j, 1.0 + 1e-9) == pytest.approx(target, abs=1e-6)


# ---------------------------------------------------------------------------
# coproduct

def test_coproduct_diagonal_entry_example():
    # on (m1, m2) = (-1/2, -1/2): T3 entry is -q - q^2*q = -q - q^3
    q = 1.2
    a = build_rep(Fraction(1, 2), q)
    t = coproduct(a, a)
    assert t.T3[3] == pytest.approx(-q - q ** 3, rel=1e-14)


@pytest.mark.parametrize("j1, j2", [(Fraction(1, 2), Fraction(1, 2)), (1, Fraction(3, 2)),
                                    (2, 2)])
def test_coproduct_basis_adds_weights(j1, j2):
    # the labels are m1 + m2 in kron order, and T3 depends on their sum only
    q = 1.3
    a, b = build_rep(j1, q), build_rep(j2, q)
    t = coproduct(a, b)
    assert t.basis == tuple(m1 + m2 for m1 in a.basis for m2 in b.basis)
    top = build_rep(HalfInt.coerce(j1) + HalfInt.coerce(j2), q)
    at_label = dict(zip(top.basis, top.T3))
    for m, value in zip(t.basis, t.T3):
        assert value == pytest.approx(at_label[m], rel=1e-13, abs=1e-13)


def test_coproduct_images_satisfy_relations():
    a = build_rep(Fraction(1, 2), 1.2)
    t = coproduct(a, a)
    assert max(algebra_residuals(t)) <= 1e-12
    assert np.max(np.abs(t.tau - (1.0 - (1.2 - 1 / 1.2) * t.T3))) <= 1e-12


def test_coproduct_with_trivial_factor_is_identity():
    a = build_rep(1, 1.4)
    triv = build_rep(0, 1.4)
    t = coproduct(a, triv)
    assert np.allclose(t.T3, a.T3) and np.allclose(t.Tplus, a.Tplus)
    t2 = coproduct(triv, a)
    assert np.allclose(t2.T3, a.T3) and np.allclose(t2.Tminus, a.Tminus)


def test_coproduct_requires_matching_q():
    with pytest.raises(ValueError):
        coproduct(build_rep(1, 1.2), build_rep(1, 1.3))


def test_coproduct_associativity_on_spinor():
    a = build_rep(Fraction(1, 2), 1.2)
    left = coproduct(coproduct(a, a), a)
    right = coproduct(a, coproduct(a, a))
    for attr in ("T3", "Tplus", "Tminus", "tau"):
        assert np.max(np.abs(getattr(left, attr) - getattr(right, attr))) <= 1e-12


# ---------------------------------------------------------------------------
# decomposition

def test_half_tensor_half_decomposition():
    a = build_rep(Fraction(1, 2), 1.2)
    dec = casimir_decompose(coproduct(a, a))
    got = {(float(j), mult) for j, mult, _ in dec.entries}
    assert got == {(0.0, 1), (1.0, 1)}
    eigen = {float(j): ev for j, _, ev in dec.entries}
    assert abs(eigen[0.0]) <= 1e-10
    assert eigen[1.0] == pytest.approx(1 + 1.2 ** 2, abs=1e-10)
    assert dec.consistent()


def test_half_tensor_one_decomposition():
    a = build_rep(Fraction(1, 2), 1.2)
    b = build_rep(1, 1.2)
    dec = casimir_decompose(coproduct(a, b))
    got = {(float(j), mult) for j, mult, _ in dec.entries}
    assert got == {(0.5, 1), (1.5, 1)}
    assert dec.dim == 6


def test_irrep_decomposes_to_itself():
    rep = build_rep(Fraction(3, 2), 1.5)
    dec = casimir_decompose(rep)
    assert [(float(j), m) for j, m, _ in dec.entries] == [(1.5, 1)]


def test_five_tensor_five_gives_each_spin_once():
    a = build_rep(5, 1.5)
    dec = casimir_decompose(coproduct(a, a))
    assert [(float(j), mult) for j, mult, _ in dec.entries] == [(k, 1) for k in range(11)]
    for j, _, ev in dec.entries:
        cj = casimir_eigenvalue(j, 1.5)
        assert abs(ev - cj) <= 1e-6 * max(1.0, abs(cj))


def _five_tensor_five_at_q3():
    # lambda T3 = 1 - q^(-4m) carries tau only to absolute accuracy; the
    # Casimir of the product inherits that unless tau comes from the weights
    a = build_rep(5, 3.0)
    product = coproduct(a, a)
    C = casimir_matrix(product)
    assert np.max(np.abs(C - C.T)) <= 1e-15 * np.max(np.abs(C))
    dec = casimir_decompose(product)
    assert [(float(j), mult) for j, mult, _ in dec.entries] == [(k, 1) for k in range(11)]


def test_five_tensor_five_at_q3_decomposes():
    _five_tensor_five_at_q3()


def test_tau_from_t3_breaks_five_tensor_five_at_q3(monkeypatch):
    def tau_power_from_t3(rep, k):
        return (1.0 - (rep.q - 1.0 / rep.q) * rep.T3) ** k

    monkeypatch.setattr(suq2, "_tau_power", tau_power_from_t3)
    # at m = 10, 1 - lambda T3 ~ q^(-40) drowns in its rounding and can turn
    # negative, which leaves nan in the Casimir
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises((AssertionError, DecompositionError)):
        _five_tensor_five_at_q3()


@pytest.mark.parametrize("q, j_max", [(3.0, Fraction(323, 2)), (10.0, 77)])
def test_tau_powers_finite_at_the_largest_spin(q, j_max):
    # tau^(-1/2) = q^(2m) and tau = q^(-4m) peak at q^(2j) and q^(4j) for
    # m = -j, within the q-numbers that build_rep already computes
    rep = build_rep(j_max, q)
    for k in (1.0, 0.5, -0.5):
        power = _tau_power(rep, k)
        assert np.all(np.isfinite(power)) and np.all(power > 0)
    with pytest.raises(ValueError, match="use a smaller j"):
        build_rep(j_max + Fraction(1, 2), q)


def test_negative_multiplicity_from_weights_is_refused():
    # the weight counts of (1, 1, 0, -1, -1) account for all 5 dimensions
    # (2 x spin 1, -1 x spin 0), but spin 0 gets #(m=0) - #(m=1) = -1
    q = 1.5
    lam = q - 1 / q
    basis = tuple(HalfInt(t) for t in (2, 2, 0, -2, -2))
    T3 = np.array([(1 - q ** (-4 * float(m))) / lam for m in basis])
    zero = np.zeros((5, 5))
    rep = Suq2Rep(q=q, T3=T3, Tplus=zero, Tminus=zero, basis=basis)
    with pytest.raises(DecompositionError, match="not those of a sum of irreducibles"):
        casimir_decompose(rep)


def test_triple_spinor_decomposition():
    a = build_rep(Fraction(1, 2), 1.3)
    dec = casimir_decompose(coproduct(coproduct(a, a), a))
    got = {(float(j), mult) for j, mult, _ in dec.entries}
    assert got == {(0.5, 2), (1.5, 1)}


# ---------------------------------------------------------------------------
# embedding

@pytest.mark.parametrize("j", JS)
def test_embedding_matches_builder(j):
    rep, report = from_su2_embedding(j, 1.5)
    assert report.t3_defect <= 1e-12
    assert report.tplus_defect <= 1e-12
    assert report.tminus_defect <= 1e-12
    assert max(report.algebra_residuals) <= 1e-12
    assert report.su2_commutator_defect <= 1e-12
    assert report.su2_casimir_defect <= 1e-12


def test_embedding_requires_deformation():
    with pytest.raises(SingularLimitError):
        from_su2_embedding(1, 1.0)


# ---------------------------------------------------------------------------
# report surface

def test_rep_report_schema():
    report = rep_report(Fraction(1, 2), 1.5)
    assert set(report) == {"j", "q", "dims", "residuals", "casimir", "decomposition"}
    assert set(report["residuals"]) == {"rel1", "rel2", "rel3", "conj"}
    assert report["dims"] == 2
    assert max(report["residuals"].values()) <= 1e-12
    assert report["casimir"]["defect"] <= 1e-12
    assert report["decomposition"] == [
        {"j": 0.5, "multiplicity": 1,
         "casimir_eigenvalue": report["decomposition"][0]["casimir_eigenvalue"]}
    ]
