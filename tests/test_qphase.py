"""Tests for the truncated q-deformed phase-space representation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdeform.qphase import (
    SECTOR_SIGNS,
    PhaseParams,
    PhaseRep,
    SpectrumWindowError,
    build_phase_rep,
    evolve,
    expected_hamiltonian_spectrum,
    hamiltonian_energies,
    hamiltonian_spectrum,
    phase_report,
    reconstruct_pxlambda,
    relation_residuals,
    spectral_factor,
    x_eigensystem,
    x_extension_eigensystem,
)
from qdeform.qphase import _require_doubled, _sector_p

# ---------------------------------------------------------------------------
# frozen oracles (hand-computed from the matrix-element formulas)

# q = 1.5, N = 2, plus sector, s0 = 1: lambda = 5/6, column n = 1
X_UPPER_N1 = 0.9797958971132712j      # i * q^(-1/2) / lambda
X_LOWER_N1 = -0.6531972647421808j     # -i * q^(-3/2) / lambda

# q = 2, N = 2, plus sector, s0 = 1: reconstructed p entries at column n = 0
P_BAND_D1 = 1.4142135623730951        # C_1 = q^(1/2)
P_BAND_DM1 = -0.7071067811865476      # C_-1 = -q^(-1/2)
P_BAND_D2 = -2.0                      # C_2 = -q
X_UPPER_Q2 = 0.7071067811865476j      # ((1+q)/2q) * i * q^(1/2) / lambda

# spectral factor at q = 1.5 (lambda = 5/6)
FACTOR_SYM_ZETA1 = 1.0342290025084530     # [3/2]/(3/2), symmetric bracket
FACTOR_ONE_ZETA1 = 1.2666666666666666     # (1-q^3)/((1-q^2)*3/2)
FACTOR_LIMIT_Q15 = 0.9731162594595945     # 2 ln q / (q - 1/q)


def rep_for(q=1.5, N=10, s0=1.0, sectors="both") -> PhaseRep:
    return build_phase_rep(PhaseParams(q=q, N=N, s0=s0, sectors=sectors))


def _block(rep: PhaseRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored sigma = +1 block as dense complex (P, X, U), built from
    its bands."""
    d = len(rep.P)
    i = np.arange(1, d)
    X = np.zeros((d, d), dtype=complex)
    X.imag[i - 1, i] = rep.X
    X.imag[i, i - 1] = 0.0 - rep.X
    return np.diag(rep.P).astype(complex), X, np.diag(rep.U, 1).astype(complex)


def _dense(rep: PhaseRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense oracle: block-diagonal (P, X, U) on the sectors present.  A
    minus block is 0.0 - block: unlike -block it keeps zeros +0.0, bit for
    bit as a sector built with its own sign."""
    d = len(rep.P)
    P, X, U = _block(rep)
    out = tuple(np.zeros((rep.dim, rep.dim), dtype=complex) for _ in range(3))
    for k, sigma in enumerate(SECTOR_SIGNS[rep.params.sectors]):
        at = slice(k * d, (k + 1) * d)
        for M, block in zip(out, (P, X)):
            M[at, at] = block if sigma > 0 else 0.0 - block
        out[2][at, at] = U
    return out


def sector_coupled_x(rep: PhaseRep) -> np.ndarray:
    """The dense oracle of `x_extension_eigensystem`: the doubled X with a
    sector-coupling boundary condition at n = -N.

    A finite-window realization of a boundary condition that joins the two
    sectors at p -> 0.  In the parity combinations
    e(+|-)_n = |n,+> (+|-) (-1)^n |n,->, each of which X maps into itself,
    the even combinations keep the whole window while the odd ones vanish
    at the innermost site n = -N, as the q-sine vanishes at p = 0.  With
    b = X[(-N,+), (-N+1,+)] this halves the four intra-sector bond entries
    between n = -N and n = -N+1 and adds the hermitean cross entries
    (-1)^(N-1) b/2 at ((-N,+), (-N+1,-)) and (-1)^N b/2 at
    ((-N,-), (-N+1,+)).  Every changed entry has a row or column at n = -N,
    so the interior is bit-identical to the block-diagonal doubled X, which
    is X_+ on the plus sector and -X_+ on the minus sector.
    """
    _require_doubled(rep)
    N = rep.params.N
    d = 2 * N + 1
    plus, minus = 0, d          # indices of (-N,+) and (-N,-)
    col = np.concatenate([np.arange(1, d), np.arange(d + 1, 2 * d)])  # no bond joins the sectors
    bonds = np.concatenate([rep.X, 0.0 - rep.X])
    X = np.zeros((2 * d, 2 * d), dtype=complex)
    X.imag[col - 1, col] = bonds
    X.imag[col, col - 1] = 0.0 - bonds
    b = X[plus, plus + 1]
    for i in (plus, minus):
        X[i, i + 1] /= 2.0
        X[i + 1, i] /= 2.0
    X[plus, minus + 1] = (-1) ** (N - 1) * b / 2.0
    X[minus, plus + 1] = (-1) ** N * b / 2.0
    X[minus + 1, plus] = np.conj(X[plus, minus + 1])
    X[plus + 1, minus] = np.conj(X[minus, plus + 1])
    return X


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 1.0, "N": 10},
        {"q": 0.5, "N": 10},
        {"q": 1.5, "N": 1},
        {"q": 1.5, "N": 10, "s0": 0.9},
        {"q": 1.5, "N": 10, "s0": 1.5},
        {"q": 1.5, "N": 10, "s0": 2.0},
        {"q": 1.5, "N": 10, "sectors": "up"},
        {"q": float("inf"), "N": 5},
        {"q": 1.5, "N": 5.5},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PhaseParams(**kwargs)


# ---------------------------------------------------------------------------
# structure of the representation matrices


def test_momentum_diagonal_entries():
    rep = rep_for(q=1.5, N=3, sectors="both")
    P, _, _ = _dense(rep)
    for idx, (n, sigma) in enumerate(rep.labels):
        assert P[idx, idx] == sigma * 1.5 ** n
    off = P - np.diag(np.diag(P))
    assert np.all(off == 0)


def test_sector_labels_and_blocks():
    rep = rep_for(N=3, sectors="both")
    assert len(rep.labels) == 2 * (2 * 3 + 1)
    plus = [l for l in rep.labels if l[1] == 1]
    minus = [l for l in rep.labels if l[1] == -1]
    assert [n for n, _ in plus] == list(range(-3, 4))
    assert [n for n, _ in minus] == list(range(-3, 4))
    # no cross-sector coupling in any generator
    d = 2 * 3 + 1
    for M in _dense(rep):
        assert np.all(M[:d, d:] == 0) and np.all(M[d:, :d] == 0)


def test_shift_action_within_sector():
    rep = rep_for(N=4, sectors="plus")
    vec = np.zeros(rep.dim, dtype=complex)
    vec[5] = 1.0  # basis state n = 1
    U = _dense(rep)[2]
    out = U @ vec
    assert out[4] == 1.0 and np.count_nonzero(out) == 1
    edge = np.zeros(rep.dim, dtype=complex)
    edge[0] = 1.0  # n = -N leaves the window
    assert np.all(U @ edge == 0)


def test_position_matrix_elements_oracle():
    rep = rep_for(q=1.5, N=2, sectors="plus")
    X = _dense(rep)[1]
    col = 3  # n = 1
    assert X[col - 1, col] == pytest.approx(X_UPPER_N1, abs=1e-15)
    assert X[col + 1, col] == pytest.approx(X_LOWER_N1, abs=1e-15)
    assert np.all(np.diag(X) == 0)


def test_minus_sector_flips_position_and_momentum():
    plus = rep_for(N=4, sectors="plus")
    both = rep_for(N=4, sectors="both")
    d = plus.dim
    P, X, U = _dense(both)
    plus_P, plus_X, plus_U = _dense(plus)
    assert np.array_equal(X[d:, d:], -plus_X)
    assert np.array_equal(P[d:, d:], -plus_P)
    assert np.array_equal(U[d:, d:], plus_U)
    # the minus blocks carry no negative zero, as when each sector was
    # built with its own sign
    for M in (P, X):
        assert not np.any(np.signbit(M.view(float)[M.view(float) == 0.0]))


def test_hermiticity_bitwise():
    P, X, _ = _dense(rep_for(q=1.3, N=12, s0=1.1, sectors="both"))
    assert np.array_equal(X.conj().T, X)
    assert np.array_equal(P.conj().T, P)


# ---------------------------------------------------------------------------
# defining relations


@pytest.mark.parametrize("q", [1.1, 1.5])
@pytest.mark.parametrize("N", [20, 40])
def test_relation_residuals_interior(q, N):
    rep = rep_for(q=q, N=N, sectors="both")
    res = relation_residuals(rep)
    assert set(res) == {"xp_u", "ux", "up", "u_unitary", "p_hermitean", "x_hermitean"}
    for key, value in res.items():
        assert value <= 1e-12, (key, value)


def test_unitarity_and_hermiticity_defects_vanish_on_interior():
    rep = rep_for(q=1.5, N=10, sectors="both")
    res = relation_residuals(rep)
    assert res["u_unitary"] == 0.0
    assert res["p_hermitean"] == 0.0
    assert res["x_hermitean"] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(1.05, 2.0),
    N=st.integers(5, 14),
    frac=st.floats(0.0, 0.95),
    sectors=st.sampled_from(["plus", "minus", "both"]),
)
def test_relations_hold_for_generic_parameters(q, N, frac, sectors):
    s0 = 1.0 + frac * (q - 1.0) * 0.999
    rep = rep_for(q=q, N=N, s0=s0, sectors=sectors)
    res = relation_residuals(rep)
    assert max(res.values()) <= 1e-12


@pytest.mark.parametrize("q, N, s0", [
    (1.1, 20, 1.05), (1.5, 12, 1.0), (1.7, 40, 1.3), (2.0, 9, 1.5)])
def test_one_block_residuals_stand_for_every_sector(q, N, s0):
    """Each defect is homogeneous in sigma, so the residuals of the stored
    plus block are those of every sector present."""
    reps = [rep_for(q=q, N=N, s0=s0, sectors=s) for s in ("plus", "minus", "both")]
    relations = [relation_residuals(rep) for rep in reps]
    reconstructions = [reconstruct_pxlambda(rep).residuals for rep in reps]
    assert relations[0] == relations[1] == relations[2]
    assert reconstructions[0] == reconstructions[1] == reconstructions[2]
    plus = reps[0]
    minus_block = dataclasses.replace(plus, P=0.0 - plus.P, X=0.0 - plus.X)
    assert relation_residuals(minus_block) == relations[0]


def test_sector_builders_match_elementwise_formulas():
    """The array builders reproduce the per-entry formulas bit for bit:
    np.power for P and X, Python ** for the scalars of p.  At q = 1.1 the two
    powers differ in the last bit for three of the labels |n| <= 12.  The
    upper entry i*b of column n and the lower entry -i*b of column n - 1 come
    from the same bond b."""
    q, N, s0 = 1.1, 12, 1.05
    dim = 2 * N + 1
    n = np.arange(-N, N + 1, dtype=float)
    lam = q - 1.0 / q
    upper, lower = np.zeros(dim - 1), np.zeros(dim - 1)
    p = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if i >= 1:
            upper[i - 1] = np.power(q, -n[i] + 0.5) / lam * (1.0 / s0)
        if i + 1 < dim:
            lower[i] = np.power(q, -n[i] - 0.5) / lam * (1.0 / s0)
        base = s0 * q ** (i - N)
        for j in range(dim):
            d = j - i
            sign = (-1.0) ** (d - 1) if d > 0 else (-1.0) ** d
            p[j, i] = base if d == 0 else sign * q ** (d / 2.0) * base
    rep = rep_for(q=q, N=N, s0=s0, sectors="plus")
    assert rep.P.dtype == rep.X.dtype == rep.U.dtype == np.float64
    assert rep.P.tobytes() == (s0 * np.power(q, n)).tobytes()
    assert rep.X.tobytes() == upper.tobytes() == lower.tobytes()
    assert rep.U.tobytes() == np.ones(dim - 1).tobytes()
    assert _sector_p(q, N, s0).astype(complex).tobytes() == p.tobytes()


def test_bands_are_the_whole_store():
    """P, X and U are stored by their bands: 2N+1 + 2N + 2N doubles."""
    rep = rep_for(q=1.5, N=200)
    assert rep.P.nbytes + rep.X.nbytes + rep.U.nbytes == 8 * (6 * 200 + 1)


def test_relations_allocate_no_dense_block():
    """Building the block and its relation residuals stays far below one
    (2N+1)^2 array of doubles (numpy reports its buffers to tracemalloc)."""
    import tracemalloc

    params = PhaseParams(q=1.5, N=400)
    tracemalloc.start()
    try:
        relation_residuals(build_phase_rep(params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 801 ** 2 / 4


def test_scaling_covariance_is_exact():
    base_P, base_X, base_U = _dense(rep_for(q=1.5, N=15, s0=1.0, sectors="both"))
    P, X, U = _dense(rep_for(q=1.5, N=15, s0=1.2, sectors="both"))
    assert np.array_equal(P, 1.2 * base_P)
    assert np.array_equal(X, (1.0 / 1.2) * base_X)
    assert np.array_equal(U, base_U)


# ---------------------------------------------------------------------------
# reconstruction of p, x, Lambda


def test_reconstruction_residuals_at_reference_parameters():
    rep = rep_for(q=1.5, N=40, sectors="both")
    rec = reconstruct_pxlambda(rep)
    for key in ("pxq", "p_conj", "lambda_conj", "lambda_x", "lambda_p", "p_average"):
        assert rec.residuals[key] <= 1e-10, (key, rec.residuals[key])


@pytest.mark.parametrize("q,N", [(1.1, 20), (1.1, 40), (1.5, 20), (1.5, 40)])
def test_reconstruction_residuals_sweep(q, N):
    rec = reconstruct_pxlambda(rep_for(q=q, N=N, sectors="both"))
    assert max(rec.residuals.values()) <= 1e-12


def test_reconstructed_band_coefficients_oracle():
    p, x, _, _ = dense_pxlambda(rep_for(q=2.0, N=2, sectors="plus"))
    col = 2  # n = 0
    assert p[col, col] == pytest.approx(1.0, abs=1e-15)
    assert p[col + 1, col] == pytest.approx(P_BAND_D1, abs=1e-15)
    assert p[col - 1, col] == pytest.approx(P_BAND_DM1, abs=1e-15)
    assert p[col + 2, col] == pytest.approx(P_BAND_D2, abs=1e-15)
    assert x[col - 1, col] == pytest.approx(X_UPPER_Q2, abs=1e-15)


def test_momentum_average_identity():
    rep = rep_for(q=1.4, N=12, s0=1.1, sectors="both")
    rec = reconstruct_pxlambda(rep)
    assert rec.residuals["p_average"] <= 1e-13


def test_undeformed_commutator_is_not_represented_on_the_lattice():
    """xp - px - i stays order one however close q is to 1.

    The deformed relation px - qxp = -i forces the diagonal of xp to equal
    i/(q-1); the diagonal of xp - px then cancels exactly and the -i from
    the identity is never reproduced.  The deformed residual stays tiny at
    the same parameters, which is the meaningful statement.
    """
    rep = rep_for(q=1.0 + 1e-6, N=10, sectors="both")
    assert reconstruct_pxlambda(rep).residuals["pxq"] <= 1e-10
    # on the plus block; the minus block (-x, -p) has the same defect
    p, x, _, _ = dense_pxlambda(rep)
    d = p.shape[0]
    defect = x @ p - p @ x - 1j * np.eye(d)
    mask = rep.interior(2)[:d]
    assert np.max(np.abs(defect[np.ix_(mask, mask)])) >= 0.5


# ---------------------------------------------------------------------------
# band-formed residuals against the dense products


def _dense_residual(defect, budget, N, margin=2):
    inner = np.abs(np.arange(-N, N + 1)) <= N - margin
    at = np.ix_(inner, inner)
    return float(np.max(np.abs(defect[at]) / (1.0 + budget[at])))


def _summed(*pairs):
    """sum of |A| @ |B| over the pairs: the magnitudes a dense product sums."""
    return sum(np.abs(a) @ np.abs(b) for a, b in pairs)


def dense_relation_residuals(rep):
    q, N = rep.params.q, rep.params.N
    P, X, U = _block(rep)
    sq = q ** 0.5
    eye = np.eye(2 * N + 1)
    Ud = U.conj().T
    return {
        "xp_u": _dense_residual(sq * (X @ P) - (P @ X) / sq - 1j * U,
                                sq * _summed((X, P)) + _summed((P, X)) / sq + np.abs(U), N),
        "ux": _dense_residual(U @ X - (X @ U) / q, _summed((U, X)) + _summed((X, U)) / q, N),
        "up": _dense_residual(U @ P - q * (P @ U), _summed((U, P)) + q * _summed((P, U)), N),
        "u_unitary": _dense_residual(Ud @ U - eye, _summed((Ud, U)) + eye, N),
        "p_hermitean": _dense_residual(P.conj().T - P, np.abs(P.conj().T) + np.abs(P), N),
        "x_hermitean": _dense_residual(X.conj().T - X, np.abs(X.conj().T) + np.abs(X), N),
    }


def dense_pxlambda(rep):
    """The reconstructed p, x, Lambda and Lambda^-1 of the stored block,
    dense: p = _sector_p, x = ((1 + q)/(2q)) X, Lambda = q^(-1/2) U^dagger
    and its pseudo-inverse q^(1/2) U.  Lambda Lambda^-1 = U^dagger U is
    diag(u^2) below the first row: the identity on the built U = 1."""
    q, N = rep.params.q, rep.params.N
    _, X, U = _block(rep)
    p = _sector_p(q, N, rep.params.s0).astype(complex)
    lam, lam_inv = q ** -0.5 * U.conj().T, q ** 0.5 * U
    assert np.allclose((lam @ lam_inv)[1:, 1:], np.diag(rep.U ** 2), rtol=0, atol=1e-15)
    return p, ((1.0 + q) / (2.0 * q)) * X, lam, lam_inv


def dense_reconstruction_residuals(rep):
    q, N = rep.params.q, rep.params.N
    p, x, lam, lam_inv = dense_pxlambda(rep)
    pdag, lamdag, eye = p.conj().T, lam.conj().T, np.eye(2 * N + 1)
    P = _block(rep)[0]
    return reconstruct_pxlambda(rep).residuals, {
        "pxq": _dense_residual(p @ x - q * (x @ p) + 1j * eye,
                               _summed((p, x)) + q * _summed((x, p)) + eye, N),
        "p_conj": _dense_residual(pdag - (lam_inv @ p) / q,
                                  np.abs(pdag) + _summed((lam_inv, p)) / q, N),
        "p_average": _dense_residual((p + pdag) / 2.0 - P,
                                     (np.abs(p) + np.abs(pdag)) / 2.0 + np.abs(P), N),
        "lambda_conj": _dense_residual(lamdag - lam_inv / q,
                                       np.abs(lamdag) + np.abs(lam_inv) / q, N),
        "lambda_x": _dense_residual(lam @ x - q * (x @ lam),
                                    _summed((lam, x)) + q * _summed((x, lam)), N),
        "lambda_p": _dense_residual(lam @ p - (p @ lam) / q,
                                    _summed((lam, p)) + _summed((p, lam)) / q, N),
    }


@pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("N", [3, 8, 15])
@pytest.mark.parametrize("perturbed", [False, True])
def test_band_residuals_match_dense_products(q, N, perturbed):
    """Each residual is a defect over its budget, formed either way with the
    same summands; only the rounding of the sums differs.  Perturbing every
    stored entry of P, X and U by a relative 1e-6 lifts the residuals far
    above that rounding, so a summand missed or misplaced by either side
    would show."""
    rep = rep_for(q=q, N=N, s0=1.0 + 0.37 * (q - 1.0))
    if perturbed:
        rng = np.random.default_rng(N)
        rep = dataclasses.replace(rep, **{
            name: getattr(rep, name) * (1.0 + 1e-6 * rng.uniform(-1, 1, getattr(rep, name).shape))
            for name in ("P", "X", "U")})
    pairs = [(relation_residuals(rep), dense_relation_residuals(rep)),
             dense_reconstruction_residuals(rep)]
    for band, dense in pairs:
        assert band.keys() == dense.keys()
        for key in band:
            assert abs(band[key] - dense[key]) <= 4 * np.finfo(float).eps, (key, band[key], dense[key])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flipped_band_of_p_breaks_pxq(monkeypatch, d):
    """p[n+d, n] with its sign flipped no longer solves p x - q x p = -i."""
    import qdeform.qphase as qphase

    build = qphase._sector_p

    def flipped(q, N, s0):
        p = build(q, N, s0)
        i = np.arange(p.shape[0] - d)
        p[i + d, i] *= -1.0
        return p
    rep = rep_for(q=1.5, N=12)
    assert reconstruct_pxlambda(rep).residuals["pxq"] <= 1e-15
    monkeypatch.setattr(qphase, "_sector_p", flipped)
    assert reconstruct_pxlambda(rep).residuals["pxq"] >= 0.1


# ---------------------------------------------------------------------------
# spectrum of the doubled position operator


def test_x_eigensystem_requires_both_sectors():
    with pytest.raises(ValueError):
        x_eigensystem(rep_for(N=10, sectors="plus"))


def test_x_spectrum_symmetric_and_doubled():
    rep = rep_for(q=1.5, N=12, sectors="both")
    report, _ = x_eigensystem(rep)
    vals = report.eigenvalues
    assert np.allclose(np.sort(-vals), vals, rtol=0, atol=1e-9 * np.max(np.abs(vals)))
    pos = np.sort(vals[vals > report.positives[0] * 0.5])
    pairs = pos[: 2 * (len(pos) // 2)].reshape(-1, 2)
    assert np.all(np.abs(pairs[:, 1] - pairs[:, 0]) <= 1e-10 * np.abs(pairs[:, 1]))


def test_x_eigensystem_quality_metrics():
    rep = rep_for(q=1.5, N=30, sectors="both")
    report, vecs = x_eigensystem(rep)
    assert report.unitarity_defect <= 1e-10
    assert report.diagonalization_defect <= 1e-9
    assert vecs.shape == (rep.dim, rep.dim)


def test_deduplicated_ladder_steps_by_q_squared():
    """Finite windows keep the two sectors decoupled, so the deduplicated
    positive ladder steps by q^2; the q-step grid of the untruncated
    doubled operator needs the sector-coupling boundary condition at the
    divergent end of the lattice, which no finite block window carries."""
    report, _ = x_eigensystem(rep_for(q=1.5, N=60, sectors="both"))
    assert report.ratio_dev_max_squared <= 1e-3
    assert abs(report.ratio_dev_max - (1.5 ** 2 - 1.5)) <= 1e-2


def test_ratio_deviation_improves_with_window_size():
    r30, _ = x_eigensystem(rep_for(q=1.5, N=30, sectors="both"))
    r60, _ = x_eigensystem(rep_for(q=1.5, N=60, sectors="both"))
    assert r60.ratio_dev_max < r30.ratio_dev_max
    assert r60.ratio_dev_max_squared < r30.ratio_dev_max_squared


def test_spectrum_window_error_when_window_empty():
    with pytest.raises(SpectrumWindowError) as err:
        x_eigensystem(rep_for(q=1.5, N=2, sectors="both"))
    message = str(err.value)
    assert "2 distinct positive values" in message
    assert "2 low and 2 high" in message
    assert message.endswith("use a larger N")


def test_block_ladder_known_answer_at_n_200():
    """Every positive value of X_+ is kept, down to ~q^-200, and the window
    steps by q^2."""
    report, vecs = x_eigensystem(rep_for(q=1.5, N=200))
    assert len(report.positives) == 200
    assert report.ratio_dev_max_squared <= 1e-3
    assert report.unitarity_defect <= 1e-10
    assert vecs.shape == (802, 802)


def test_extension_ladder_known_answer_at_n_200():
    report, vecs = x_extension_eigensystem(rep_for(q=1.5, N=200))
    assert len(report.positives) == 400
    assert report.ratio_dev_max <= 1e-3
    assert report.unitarity_defect <= 1e-10
    assert vecs.shape == (802, 802)


def _bisection_positives(*bond_sets):
    """The positive values of each zero-diagonal ladder by values-only
    bisection, the former solver, sorted."""
    from scipy.linalg import eigh_tridiagonal

    vals = [eigh_tridiagonal(np.zeros(len(b) + 1), b, eigvals_only=True,
                             lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
            for b in bond_sets]
    return np.sort(np.concatenate([v[len(v) // 2 + 1:] if len(v) % 2 else v[len(v) // 2:]
                                   for v in vals]))


@pytest.mark.parametrize("q, N", [(3.0, 200), (1.5, 470)])
def test_block_ladder_known_answer_on_strongly_graded_ladders(q, N):
    """Inverse iteration, the former eigenvector solver, returned NaN or
    non-orthonormal vectors here; the singular vectors are orthonormal."""
    rep = rep_for(q=q, N=N)
    report, vecs = x_eigensystem(rep)
    assert len(report.positives) == N
    assert report.ratio_dev_max_squared <= 1e-3
    assert report.unitarity_defect <= 1e-10
    assert report.diagonalization_defect <= 1e-9
    assert vecs.shape == (rep.dim, rep.dim)
    expected = _bisection_positives(rep.X)
    assert np.all(np.abs(report.positives - expected) <= 64 * np.spacing(expected))


@pytest.mark.parametrize("q, N", [(3.0, 200), (1.5, 470)])
def test_extension_ladder_known_answer_on_strongly_graded_ladders(q, N):
    rep = rep_for(q=q, N=N)
    report, vecs = x_extension_eigensystem(rep)
    assert len(report.positives) == 2 * N
    assert report.ratio_dev_max <= 1e-3
    assert report.unitarity_defect <= 1e-10
    assert report.diagonalization_defect <= 1e-9
    assert vecs.shape == (rep.dim, rep.dim)
    expected = _bisection_positives(rep.X, rep.X[1:])
    assert np.all(np.abs(report.positives - expected) <= 64 * np.spacing(expected))


def test_eigensolver_failure_is_a_window_error(monkeypatch):
    import qdeform.qphase as qphase

    def failing(bonds):
        raise np.linalg.LinAlgError("eigenvectors failed to converge")
    monkeypatch.setattr(qphase, "_ladder", failing)
    with pytest.raises(SpectrumWindowError, match="use a smaller N"):
        x_eigensystem(rep_for(q=1.5, N=20))


def test_non_orthonormal_ladder_vectors_are_a_window_error(monkeypatch):
    import qdeform.qphase as qphase

    solve = qphase._ladder

    def skewed(bonds):
        vals, vecs = solve(bonds)
        vecs[:, 1] += 1e-6 * vecs[:, 0]
        return vals, vecs
    monkeypatch.setattr(qphase, "_ladder", skewed)
    for route in (x_eigensystem, x_extension_eigensystem):
        with pytest.raises(SpectrumWindowError, match="N = 20") as err:
            route(rep_for(q=1.5, N=20))
        assert "not orthonormal" in str(err.value)


@pytest.mark.parametrize("q, N", [(1.5, 12), (3.0, 60), (1.5, 200)])
@pytest.mark.parametrize("drop", [0, 1])
def test_ladder_sign_and_null_conventions(q, N, drop):
    """Each eigenvector's largest-magnitude component is positive (LAPACK
    dstein's convention); an odd ladder has one eigenvalue +0.0, whose
    vector lives on the even sites, and an even ladder none."""
    from qdeform.qphase import _ladder

    bonds = rep_for(q=q, N=N).X[drop:]
    vals, vecs = _ladder(bonds)
    n = len(bonds) + 1
    assert np.all(np.diff(vals) > 0)
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    assert np.all(peak > 0)
    zero = np.flatnonzero(vals == 0)
    if n % 2:
        assert len(zero) == 1 and not np.signbit(vals[zero[0]])
        null = vecs[:, zero[0]]
        assert np.all(null[1::2] == 0) and np.linalg.norm(null) == pytest.approx(1.0)
    else:
        assert len(zero) == 0


def _gesvd_ladder(bonds):
    """The ladder by the former route, the oracle: the dense bidiagonal C
    through scipy.linalg.svd's gesvd, which reduces C to itself and then
    runs dbdsqr, with `_ladder`'s assembly of the eigenvectors."""
    from scipy.linalg import svd

    n = len(bonds) + 1
    k = n // 2
    C = np.zeros(((n + 1) // 2,) * 2)
    C[np.arange(k), np.arange(k)] = bonds[0::2]
    j = np.arange(len(bonds) // 2)
    C[j, j + 1] = bonds[1::2]
    u, s, vt = svd(C, lapack_driver="gesvd", check_finite=False)
    v, w = np.sqrt(0.5) * vt[:k].T, np.sqrt(0.5) * u[:k, :k]
    vecs = np.zeros((n, n))
    vecs[0::2, :k], vecs[1::2, :k] = v, -w
    vecs[0::2, n - k:], vecs[1::2, n - k:] = v[:, ::-1], w[:, ::-1]
    if n % 2:
        vecs[0::2, k] = vt[k]
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs *= np.copysign(1.0, peak)
    return np.concatenate([-s[:k], np.zeros(n - 2 * k), s[k - 1::-1]]), vecs


@pytest.mark.parametrize("q, N", [(1.5, 100), (1.5, 200), (1.5, 400), (3.0, 200)])
@pytest.mark.parametrize("drop", [0, 1])
def test_ladder_equals_gesvd_bitwise(q, N, drop):
    """gesvd leaves a bidiagonal C as it is and calls dbdsqr on it, so the
    direct call returns the same bits wherever gesvd does not scale C."""
    from qdeform.qphase import _ladder

    bonds = rep_for(q=q, N=N).X[drop:]
    vals, vecs = _ladder(bonds)
    expected_vals, expected_vecs = _gesvd_ladder(bonds)
    assert np.array_equal(vals, expected_vals)
    assert np.array_equal(vecs, expected_vecs)


@pytest.mark.parametrize("q, N", [(1.5, 870), (3.0, 300)])
def test_ladder_matches_gesvd_where_gesvd_scales(q, N):
    """gesvd scales a C whose largest entry leaves [~7e-139, ~1.5e138]
    before dbdsqr runs, so the two agree to rounding there (measured 5-10
    ulps relative on every value, however small)."""
    from qdeform.qphase import _ladder

    bonds = rep_for(q=q, N=N).X
    vals, vecs = _ladder(bonds)
    expected_vals, expected_vecs = _gesvd_ladder(bonds)
    eps = np.finfo(float).eps
    assert np.all(np.abs(vals - expected_vals) <= 16 * eps * np.abs(expected_vals))
    assert np.max(np.abs(vecs - expected_vecs)) <= 1e-14


def test_dbdsqr_failure_is_a_window_error(monkeypatch):
    """dbdsqr's info > 0 (superdiagonal entries left unconverged) reaches
    the caller as numpy's LinAlgError, which the routes map to a window
    error."""
    import qdeform.qphase as qphase

    def unconverged(*args):
        args[-1].value = 2
    monkeypatch.setattr(qphase, "_dbdsqr", lambda: unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="2 superdiagonal"):
        qphase._ladder(rep_for(q=1.5, N=20).X)
    with pytest.raises(SpectrumWindowError, match="use a smaller N"):
        x_eigensystem(rep_for(q=1.5, N=20))


def test_dbdsqr_capsule_with_another_signature_is_refused():
    """A capsule is called through the prototype of dbdsqr only if its C
    signature is dbdsqr's; sbdsqr, the single-precision twin, is not."""
    from scipy.linalg import cython_lapack

    from qdeform.qphase import _DBDSQR_SIGNATURE, _dbdsqr_from

    assert _dbdsqr_from(cython_lapack.__pyx_capi__["dbdsqr"]) is not None
    with pytest.raises(RuntimeError, match="dbdsqr") as err:
        _dbdsqr_from(cython_lapack.__pyx_capi__["sbdsqr"])
    assert _DBDSQR_SIGNATURE in str(err.value)


@pytest.mark.parametrize("q, s0", [(1.5, 1.0), (1.5, 1.2), (1.7, 1.0), (1.7, 1.2),
                                   (3.0, 1.0)])
@pytest.mark.parametrize("N", [13, 60])
@pytest.mark.parametrize("route, matrix", [
    (x_eigensystem, lambda rep: _dense(rep)[1]),
    (x_extension_eigensystem, sector_coupled_x),
])
def test_ladder_routes_match_dense_oracle(q, s0, N, route, matrix):
    """Dense eigh on the doubled matrix is the oracle while it is accurate:
    the ladders give its eigenvalues, and eigenvectors of the matrix itself."""
    rep = rep_for(q=q, N=N, s0=s0)
    X = matrix(rep)
    report, vecs = route(rep)
    expected = np.linalg.eigvalsh(X)
    assert np.max(np.abs(report.eigenvalues - expected)) <= 1e-12 * np.max(np.abs(expected))
    residual = X @ vecs - vecs * report.eigenvalues
    assert np.linalg.norm(residual, 2) <= 1e-12 * np.linalg.norm(X, 2)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(rep.dim))) <= 1e-12


# ---------------------------------------------------------------------------
# sector-coupled self-adjoint extension of the doubled position operator


@pytest.mark.parametrize("N", [12, 13])
def test_sector_coupled_x_hermitean_bitwise(N):
    X = sector_coupled_x(rep_for(q=1.5, N=N, s0=1.2))
    assert np.array_equal(X, X.conj().T)


@pytest.mark.parametrize("N", [12, 13])
def test_sector_coupled_x_equals_block_window_on_interior(N):
    rep = rep_for(q=1.5, N=N)
    X = sector_coupled_x(rep)
    _, block_window, _ = _dense(rep)
    mask = rep.interior(2)
    assert np.array_equal(X[np.ix_(mask, mask)], block_window[np.ix_(mask, mask)])
    # four halved intra-sector bond entries and four new cross entries
    assert np.count_nonzero(X != block_window) == 8


def test_extension_spectrum_is_union_of_parity_ladders():
    """Even combinations carry the single-sector X on the whole window, odd
    ones the same X with the innermost site removed, plus one null vector."""
    rep = rep_for(q=1.5, N=12)
    report, _ = x_extension_eigensystem(rep)
    plus = _block(rep)[1]  # the plus sector block, 25 x 25 at N = 12
    expected = np.sort(np.concatenate([
        np.linalg.eigvalsh(plus), np.linalg.eigvalsh(plus[1:, 1:]), [0.0]]))
    vals = report.eigenvalues
    assert np.allclose(vals, expected, rtol=0, atol=1e-12 * np.max(np.abs(vals)))


def test_extension_spectrum_symmetric_and_simple():
    report, _ = x_extension_eigensystem(rep_for(q=1.5, N=30))
    vals = report.eigenvalues
    assert np.allclose(np.sort(-vals), vals, rtol=0, atol=1e-9 * np.max(np.abs(vals)))
    pos = np.sort(vals[vals > report.positives[0] * 0.5])
    assert len(pos) == len(report.positives)
    assert np.all(np.diff(pos) > 1e-10 * pos[1:])


def test_extension_ladder_steps_by_q_away_from_unit_scale():
    """Criterion 8 covers s0 = 1; the ladder is the same at s0 = 1.2."""
    r30, _ = x_extension_eigensystem(rep_for(q=1.5, N=30, s0=1.2))
    rep = rep_for(q=1.5, N=60, s0=1.2)
    r60, vecs = x_extension_eigensystem(rep)
    assert r60.ratio_dev_max <= 1e-3
    assert r60.ratio_dev_max < r30.ratio_dev_max
    assert r60.unitarity_defect <= 1e-10
    assert r60.diagonalization_defect <= 1e-9
    assert vecs.shape == (rep.dim, rep.dim)


@pytest.mark.parametrize("q, s0", [(1.5, 1.0), (1.5, 1.2), (1.7, 1.0), (1.7, 1.2)])
def test_extension_ladder_sits_on_q_fourier_grid(q, s0):
    """The q-Fourier kernel E(-i x p) has its q-cosine and q-sine vanishing
    asymptotically at x p in q^(Z+1/2) / lambda, so for every lattice momentum
    p = s0 q^m the position values are x0 q^k with x0 = q^(-1/2) / (lambda s0).
    At q = 1.7 the offset differs from that of 2 sqrt(q) / ((1 + q) s0), a
    grid that coincides with x0 q^k at q = 1.5."""
    report, _ = x_extension_eigensystem(rep_for(q=q, N=60, s0=s0))
    x0 = q ** -0.5 / ((q - 1.0 / q) * s0)
    k = np.round(np.log(report.kept / x0) / np.log(q))
    assert np.max(np.abs(report.kept / (x0 * q ** k) - 1.0)) <= 1e-3


def test_extension_requires_both_sectors():
    with pytest.raises(ValueError):
        x_extension_eigensystem(rep_for(N=10, sectors="plus"))
    with pytest.raises(ValueError):
        sector_coupled_x(rep_for(N=10, sectors="minus"))


def test_extension_window_error_when_window_empty():
    with pytest.raises(SpectrumWindowError) as err:
        x_extension_eigensystem(rep_for(q=1.5, N=2))
    message = str(err.value)
    assert "4 distinct positive values" in message
    assert "4 low and 4 high" in message
    assert message.endswith("use a larger N")


# ---------------------------------------------------------------------------
# Hamiltonian and time evolution


@pytest.mark.parametrize("s0", [1.0, 1.2])
def test_hamiltonian_spectrum_exact(s0):
    params = PhaseParams(q=1.5, N=25, s0=s0, sectors="both")
    rep = build_phase_rep(params)
    assert np.array_equal(hamiltonian_spectrum(rep), expected_hamiltonian_spectrum(params))


def test_hamiltonian_reference_values():
    rep = rep_for(q=1.5, N=10, s0=1.0, sectors="both")
    spectrum_values = hamiltonian_spectrum(rep)
    assert np.any(spectrum_values == 0.5)  # n = 0 level
    rep12 = rep_for(q=1.5, N=10, s0=1.2, sectors="both")
    assert np.min(np.abs(hamiltonian_spectrum(rep12) - 1.62)) <= 1e-12  # n = 1 level
    assert np.min(spectrum_values) == pytest.approx(0.5 * 1.5 ** (-20), rel=1e-14)
    assert np.min(spectrum_values) > 0


def test_hamiltonian_levels_doubled_across_sectors():
    rep = rep_for(q=1.5, N=8, sectors="both")
    spectrum_values = hamiltonian_spectrum(rep)
    assert np.array_equal(spectrum_values[::2], spectrum_values[1::2])


def test_evolution_phases_and_norm():
    rep = rep_for(q=1.5, N=8, sectors="both")
    state = np.zeros(rep.dim, dtype=complex)
    state[3] = 1.0
    energy = hamiltonian_energies(rep)[3]
    out = evolve(state, rep, 2.5)
    assert out[3] == pytest.approx(np.exp(-1j * energy * 2.5), abs=1e-14)

    rng = np.random.default_rng(7)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    psi /= np.linalg.norm(psi)
    for t in (0.0, 1.0, 37.5, 100.0):
        evolved = evolve(psi, rep, t)
        assert abs(np.linalg.norm(evolved) - 1.0) <= 1e-12
    assert np.array_equal(evolve(psi, rep, 0.0), psi)


def test_evolution_dimension_mismatch():
    rep = rep_for(N=5)
    with pytest.raises(ValueError):
        evolve(np.ones(3, dtype=complex), rep, 1.0)


# ---------------------------------------------------------------------------
# canonical-variable bracket factor


def test_spectral_factor_undeformed_limit():
    for zeta in (-1.0, 0.0, 0.25, 0.7, 3.0):
        assert spectral_factor(zeta, 1.0) == 1.0
        assert spectral_factor(zeta, 1.0, "onesided") == 1.0


def test_spectral_factor_reference_values():
    assert spectral_factor(1.0, 1.5) == pytest.approx(FACTOR_SYM_ZETA1, rel=1e-14)
    assert spectral_factor(1.0, 1.5, "onesided") == pytest.approx(FACTOR_ONE_ZETA1, rel=1e-14)
    assert spectral_factor(1.0, 1.5) != spectral_factor(1.0, 1.5, "onesided")


def test_spectral_factor_removable_singularity():
    limit = spectral_factor(0.25, 1.5)
    assert limit == pytest.approx(FACTOR_LIMIT_Q15, rel=1e-14)
    assert spectral_factor(0.25 + 1e-9, 1.5) == pytest.approx(limit, rel=1e-6)
    one_sided = spectral_factor(0.25, 1.5, "onesided")
    assert one_sided == pytest.approx(2.0 * np.log(1.5) / (1.5 ** 2 - 1.0), rel=1e-14)


def test_spectral_factor_validation():
    with pytest.raises(ValueError):
        spectral_factor(1.0, 1.5, "fancy")
    with pytest.raises(ValueError):
        spectral_factor(1.0, -2.0)


@settings(max_examples=30, deadline=None)
@given(zeta=st.floats(-3, 3), q=st.floats(1.01, 3.0))
def test_spectral_factor_positive_and_continuous(zeta, q):
    value = spectral_factor(zeta, q)
    assert value > 0
    nearby = spectral_factor(zeta + 1e-9, q)
    assert abs(nearby - value) <= 1e-5 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# aggregate report


def test_phase_report_schema_and_stability():
    params = PhaseParams(q=1.5, N=20, s0=1.0, sectors="both")
    out = phase_report(params)
    assert set(out) == {"q", "N", "s0", "sectors", "residuals",
                        "eigenvalues", "ratios", "ratio_dev_max"}
    assert out["residuals"].keys() == relation_residuals(build_phase_rep(params)).keys()
    assert out["eigenvalues"] == sorted(out["eigenvalues"])
    assert len(out["ratios"]) == len(out["eigenvalues"]) - 1
    assert json.dumps(out) == json.dumps(phase_report(params))


def test_phase_report_single_sector_omits_spectrum():
    out = phase_report(PhaseParams(q=1.5, N=10, sectors="plus"))
    assert "eigenvalues" not in out and "ratio_dev_max" not in out
