"""Finite-dimensional representations of the deformed rotation algebra.

Matrix elements live on a magnetic-label basis ordered DESCENDING from +j to
-j, which makes the raising operator strictly upper triangular.  The adopted
defining relations are

    (1/q) T+ T-  -  q T- T+          =  T3
    q^2  T3 T+  -  q^(-2) T+ T3      =  (q + 1/q) T+
    q^(-2) T3 T- -  q^2  T- T3       = -(q + 1/q) T-

with conjugation T3^† = T3 and T+^† = q^(-2) T-, and the diagonal scaling
operator tau = 1 - (q - 1/q) T3 = q^(-4m).  For q >= 1 every entry is real,
and the floating representations store T3 by its diagonal and the weights
m, from which tau and its powers are computed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, sqrt

import numpy as np

from . import exactmat as xm
from .scalars import (
    HalfInt,
    QExact,
    QExactError,
    halfint_range_desc,
    q_number,
    q_number_value,
)


class SingularLimitError(ValueError):
    """Raised when a construction needs q != 1 (deformation scale vanishes)."""


class DecompositionError(RuntimeError):
    """Raised when floating arithmetic cannot confirm a decomposition."""


def _maxabs(m) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _qn(n: int, r: int, q: float) -> float:
    """Floating value of an integer-index q-number via the exact route."""
    v = q_number(n, r).eval(q)
    return v.real


@dataclass(frozen=True)
class Suq2Rep:
    """Real representation data on a weight basis: T3 is the diagonal,
    basis the magnetic label of each basis vector; j is None for composite
    (tensor) spaces."""

    q: float
    T3: np.ndarray
    Tplus: np.ndarray
    Tminus: np.ndarray
    basis: tuple[HalfInt, ...]
    j: HalfInt | None = None

    @property
    def dim(self) -> int:
        return len(self.T3)

    @property
    def tau(self) -> np.ndarray:
        """The diagonal of tau = q^(-4m)."""
        return _tau_power(self, 1.0)


def _tau_power(rep: Suq2Rep, k: float) -> np.ndarray:
    """The diagonal of tau^k, with tau = q^(-4m) read off the weights:
    unlike 1 - (q - 1/q) T3 it does not cancel for m > 0.  build_rep's
    q-numbers bound tau on a spin; a product's lowest weight can exceed it."""
    try:
        tau = np.array([rep.q ** (-2.0 * m.twice) for m in rep.basis])
    except OverflowError:
        raise ValueError(f"tau = q^(-4m) at m = {min(rep.basis)} overflows a double at "
                         f"q = {rep.q}; use a smaller j") from None
    return tau ** k


def _breakdown(rep: Suq2Rep, what: str) -> DecompositionError:
    where = f"j = {rep.j}" if rep.j is not None else f"dimension {rep.dim}"
    return DecompositionError(f"{what} at q = {rep.q}, {where}: floating precision "
                              f"breaks down; use a smaller j or q")


def build_rep(j, q: float) -> Suq2Rep:
    """Spin-j matrices: T3 = (1/q)[2m]_{-2} on the diagonal, ladder entries
    (1/q)sqrt([j+m+1]_{-2}[j-m]_2) and q*sqrt([j+m]_{-2}[j-m+1]_2)."""
    j = HalfInt.coerce(j)
    if j.twice < 0:
        raise ValueError("spin label must be nonnegative")
    if not (q >= 1.0 and isfinite(q)):
        raise ValueError("deformation parameter must be finite and satisfy q >= 1")
    basis = tuple(halfint_range_desc(j))
    dim = len(basis)

    T3 = np.zeros(dim)
    Tp = np.zeros((dim, dim))
    Tm = np.zeros((dim, dim))
    try:
        for k, m in enumerate(basis):  # descending: m + 1 sits at k - 1
            T3[k] = (1.0 / q) * _qn(m.twice, -2, q)
            jp_m = (j + m).as_int()
            jm_m = (j - m).as_int()
            if m.twice < j.twice:  # raising entry m -> m+1
                rad = _qn(jp_m + 1, -2, q) * _qn(jm_m, 2, q)
                assert rad >= 0.0, "negative radicand cannot occur for q >= 1"
                Tp[k - 1, k] = (1.0 / q) * sqrt(rad)
            if m.twice > -j.twice:  # lowering entry m -> m-1
                rad = _qn(jp_m, -2, q) * _qn(jm_m + 1, 2, q)
                assert rad >= 0.0, "negative radicand cannot occur for q >= 1"
                Tm[k + 1, k] = q * sqrt(rad)
    except OverflowError:
        raise ValueError(f"the q-numbers of spin j = {j} overflow a double at q = {q}; "
                         f"use a smaller j") from None
    return Suq2Rep(q=q, T3=T3, Tplus=Tp, Tminus=Tm, basis=basis, j=j)


# ---------------------------------------------------------------------------
# exact variant


@dataclass(frozen=True)
class Suq2RepExact:
    """Representation with entries in the exact scalar ring."""

    T3: xm.ExactMatrix
    Tplus: xm.ExactMatrix
    Tminus: xm.ExactMatrix
    tau: xm.ExactMatrix
    j: HalfInt

    @property
    def dim(self) -> int:
        return len(self.T3)


def build_rep_exact(j) -> Suq2RepExact:
    """Exact-ring variant; needs every ladder radicand to be a perfect
    monomial square, which holds for j = 0 and j = 1/2."""
    j = HalfInt.coerce(j)
    basis = halfint_range_desc(j)
    dim = len(basis)
    T3 = [[QExact.zero() for _ in range(dim)] for _ in range(dim)]
    Tp = [[QExact.zero() for _ in range(dim)] for _ in range(dim)]
    Tm = [[QExact.zero() for _ in range(dim)] for _ in range(dim)]
    qinv = QExact.q_power(-1)
    qpow = QExact.q_power(1)
    for k, m in enumerate(basis):  # descending: m + 1 sits at k - 1
        T3[k][k] = qinv * q_number(m.twice, -2)
        jp_m = (j + m).as_int()
        jm_m = (j - m).as_int()
        if m.twice < j.twice:
            rad = q_number(jp_m + 1, -2) * q_number(jm_m, 2)
            Tp[k - 1][k] = qinv * rad.sqrt_monomial()
        if m.twice > -j.twice:
            rad = q_number(jp_m, -2) * q_number(jm_m + 1, 2)
            Tm[k + 1][k] = qpow * rad.sqrt_monomial()
    tau = [[QExact.q_power(-2 * m.twice) if i == k else QExact.zero()
            for k in range(dim)] for i, m in enumerate(basis)]
    return Suq2RepExact(T3=xm.mat(T3), Tplus=xm.mat(Tp), Tminus=xm.mat(Tm),
                        tau=xm.mat(tau), j=j)


def spinor_exact() -> Suq2RepExact:
    return build_rep_exact(Fraction(1, 2))


def algebra_defects_exact(rep: Suq2RepExact) -> tuple[xm.ExactMatrix, ...]:
    """Exact defect matrices of the three defining relations."""
    q2 = QExact.q_power(2)
    qinv2 = QExact.q_power(-2)
    qs = QExact.q_power(1) + QExact.q_power(-1)
    T3, Tp, Tm = rep.T3, rep.Tplus, rep.Tminus
    d1 = xm.sub(
        xm.sub(xm.scale(xm.matmul(Tp, Tm), QExact.q_power(-1)),
               xm.scale(xm.matmul(Tm, Tp), QExact.q_power(1))),
        T3,
    )
    d2 = xm.sub(
        xm.sub(xm.scale(xm.matmul(T3, Tp), q2),
               xm.scale(xm.matmul(Tp, T3), qinv2)),
        xm.scale(Tp, qs),
    )
    d3 = xm.add(
        xm.sub(xm.scale(xm.matmul(T3, Tm), qinv2),
               xm.scale(xm.matmul(Tm, T3), q2)),
        xm.scale(Tm, qs),
    )
    return d1, d2, d3


def conjugation_defects_exact(rep: Suq2RepExact) -> tuple[xm.ExactMatrix, ...]:
    dag_t3 = xm.sub(xm.dagger(rep.T3), rep.T3)
    dag_tp = xm.sub(xm.dagger(rep.Tplus), xm.scale(rep.Tminus, QExact.q_power(-2)))
    return dag_t3, dag_tp


# ---------------------------------------------------------------------------
# residuals (floating)


def relation_defects(T3, Tp, Tm, q: float):
    """Defect matrices of the three relations; T3 is the diagonal."""
    d1 = (1.0 / q) * (Tp @ Tm) - q * (Tm @ Tp) - np.diag(T3)
    d2 = q ** 2 * (T3[:, None] * Tp) - q ** -2 * (Tp * T3) - (q + 1.0 / q) * Tp
    d3 = q ** -2 * (T3[:, None] * Tm) - q ** 2 * (Tm * T3) + (q + 1.0 / q) * Tm
    return d1, d2, d3


def algebra_residuals(rep: Suq2Rep) -> tuple[float, float, float]:
    d1, d2, d3 = relation_defects(rep.T3, rep.Tplus, rep.Tminus, rep.q)
    return _maxabs(d1), _maxabs(d2), _maxabs(d3)


def conjugation_residuals(rep: Suq2Rep) -> tuple[float]:
    """The T+^dagger = q^(-2) T- residual; a real diagonal T3 is hermitean."""
    return (_maxabs(rep.Tplus.T - rep.q ** -2 * rep.Tminus),)


# ---------------------------------------------------------------------------
# Casimir


def casimir_eigenvalue(j, q: float) -> float:
    """[j]_{-2} [j+1]_{2}; defined for every half-integer j."""
    j = HalfInt.coerce(j)
    return q_number_value(float(j), -2, q) * q_number_value(float(j) + 1.0, 2, q)


def casimir_matrix(rep: Suq2Rep) -> np.ndarray:
    q = rep.q
    if q == 1.0:
        raise SingularLimitError(
            "Casimir construction needs q > 1 (the deformation scale vanishes)"
        )
    lam = q - 1.0 / q
    C = q ** 2 * (rep.Tminus @ rep.Tplus + np.eye(rep.dim) / lam ** 2)
    C *= _tau_power(rep, -0.5)
    C[np.diag_indices(rep.dim)] += (1.0 / lam ** 2) * _tau_power(rep, 0.5)
    C[np.diag_indices(rep.dim)] -= (1.0 + q ** 2) / lam ** 2
    return C


def casimir_commutation_residuals(rep: Suq2Rep) -> tuple[float, float, float]:
    C = casimir_matrix(rep)
    return (_maxabs(C @ rep.Tplus - rep.Tplus @ C),
            _maxabs(C @ rep.Tminus - rep.Tminus @ C),
            _maxabs(C * rep.T3 - rep.T3[:, None] * C))


# ---------------------------------------------------------------------------
# coproduct


def coproduct(a: Suq2Rep, b: Suq2Rep) -> Suq2Rep:
    """Tensor representation: T3 -> T3 x 1 + tau x T3, and the ladder
    operators pick up tau^(1/2) on the left slot.  The weights add,
    m1 + m2 in kron order, so tau multiplies, and T3 depends on their sum
    alone: T3(m1) + q^(-4 m1) T3(m2) = T3(m1 + m2)."""
    if a.q != b.q:
        raise ValueError("tensor factors must share the deformation parameter")
    ib = np.eye(b.dim)
    tha = np.diag(_tau_power(a, 0.5))
    T3 = (a.T3[:, None] + a.tau[:, None] * b.T3).ravel()
    Tp = np.kron(a.Tplus, ib) + np.kron(tha, b.Tplus)
    Tm = np.kron(a.Tminus, ib) + np.kron(tha, b.Tminus)
    basis = tuple(ma + mb for ma in a.basis for mb in b.basis)
    return Suq2Rep(q=a.q, T3=T3, Tplus=Tp, Tminus=Tm, basis=basis)


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class DecompositionReport:
    dim: int
    q: float
    entries: tuple[tuple[HalfInt, int, float], ...]  # (j, multiplicity, eigenvalue)

    def consistent(self) -> bool:
        return (all(mult > 0 for _, mult, _ in self.entries)
                and sum(mult * (j.twice + 1) for j, mult, _ in self.entries) == self.dim)

    def as_dict(self) -> list[dict]:
        return [
            {"j": float(j), "multiplicity": mult, "casimir_eigenvalue": ev}
            for j, mult, ev in self.entries
        ]


def casimir_decompose(rep: Suq2Rep) -> DecompositionReport:
    """Read the spins off the weights and confirm them on the Casimir.

    For q > 1 finite-dimensional modules are completely reducible, and spin J
    occurs #(m = J) - #(m = J+1) times.  The Casimir eigenvalue c_J increases
    with J, so the ascending spectrum splits into consecutive blocks of
    multiplicity * (2J+1) values in ascending J, each of which must lie at
    c_J; an entry reports its block's mean.
    """
    q = rep.q
    C = casimir_matrix(rep)
    if _maxabs(C - C.T) > 1e-9 * max(1.0, _maxabs(C)):
        raise _breakdown(rep, "the Casimir is not symmetric")
    vals = np.linalg.eigvalsh(C)
    counts = Counter(m.twice for m in rep.basis)
    # c_J stands in for each block's mean until the spectrum confirms it
    weights = DecompositionReport(rep.dim, q, tuple(
        (HalfInt(t), counts[t] - counts[t + 2], casimir_eigenvalue(HalfInt(t), q))
        for t in range(max(counts) + 1) if counts[t] != counts[t + 2]
    ))
    if not weights.consistent():
        raise DecompositionError("the weights are not those of a sum of irreducibles")
    entries = []
    start = 0
    for j, mult, cj in weights.entries:
        block = vals[start:start + mult * (j.twice + 1)]
        start += len(block)
        if np.max(np.abs(block - cj)) > 1e-6 * max(1.0, abs(cj)):
            raise _breakdown(rep, f"the Casimir spectrum misses c_J = {cj:.6g} of "
                                  f"spin J = {j}")
        entries.append((j, mult, float(np.mean(block))))
    return DecompositionReport(rep.dim, q, tuple(entries))


# ---------------------------------------------------------------------------
# classical embedding


@dataclass(frozen=True)
class EmbeddingReport:
    t3_defect: float
    tplus_defect: float
    tminus_defect: float
    algebra_residuals: tuple[float, float, float]
    su2_commutator_defect: float
    su2_casimir_defect: float
    note: str


def from_su2_embedding(j, q: float) -> tuple[Suq2Rep, EmbeddingReport]:
    """Realize the deformed generators inside the classical spin-j algebra.

    The diagonal generator is the closed form (1 - q^(-4 j0)) / (q - 1/q)
    applied to the classical weight operator j0; the raising operator is a
    diagonal function of j0 times the classical ladder j+ (the function is
    fixed entrywise), and the lowering operator is q^2 times its dagger.
    """
    j = HalfInt.coerce(j)
    if not q > 1.0:
        raise SingularLimitError("embedding needs q > 1")
    reference = build_rep(j, q)
    basis = reference.basis
    dim = len(basis)
    lam = q - 1.0 / q

    m_vals = np.array([float(m) for m in basis])
    j0 = np.diag(m_vals)
    jp = np.zeros((dim, dim))
    jf = float(j)
    for k, m in enumerate(m_vals):
        if k > 0:  # raising m -> m+1 lands one row up in descending order
            jp[k - 1, k] = sqrt((jf - m) * (jf + m + 1.0) / 2.0)
    jm = jp.T

    # entrywise fit of the diagonal factor on levels reached by j+
    f = np.ones(dim)
    for k in range(1, dim):
        f[k - 1] = reference.Tplus[k - 1, k] / jp[k - 1, k]
    Tp = f[:, None] * jp
    T3 = (1.0 - q ** (-4.0 * m_vals)) / lam
    Tm = q ** 2 * Tp.T
    rep = Suq2Rep(q=q, T3=T3, Tplus=Tp, Tminus=Tm, basis=basis, j=j)

    comm = jp @ jm - jm @ jp - j0
    cas = 2.0 * (jm @ jp) + j0 @ (j0 + np.eye(dim)) - jf * (jf + 1.0) * np.eye(dim)
    report = EmbeddingReport(
        t3_defect=_maxabs(T3 - reference.T3),
        tplus_defect=_maxabs(Tp - reference.Tplus),
        tminus_defect=_maxabs(Tm - reference.Tminus),
        algebra_residuals=algebra_residuals(rep),
        su2_commutator_defect=_maxabs(comm),
        su2_casimir_defect=_maxabs(cas),
        note=(
            "tau diagonal adopted as q^(-4m); the reversed orientation breaks "
            "the coproduct homomorphism and is rejected"
        ),
    )
    return rep, report


# ---------------------------------------------------------------------------
# aggregate report (CLI surface)


def rep_report(j, q: float) -> dict:
    j = HalfInt.coerce(j)
    rep = build_rep(j, q)
    r1, r2, r3 = algebra_residuals(rep)
    (conj,) = conjugation_residuals(rep)
    cj = casimir_eigenvalue(j, q)
    if q > 1.0:
        C = casimir_matrix(rep)
        defect = _maxabs(C - cj * np.eye(rep.dim))
        decomposition = casimir_decompose(rep).as_dict()
    else:
        defect = 0.0
        decomposition = [{"j": float(j), "multiplicity": 1, "casimir_eigenvalue": cj}]
    return {
        "j": float(j),
        "q": q,
        "dims": rep.dim,
        "residuals": {
            "rel1": r1,
            "rel2": r2,
            "rel3": r3,
            "conj": conj,
        },
        "casimir": {"eigenvalue": cj, "defect": defect},
        "decomposition": decomposition,
    }
