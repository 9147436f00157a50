"""Truncated Hilbert-space model of the q-deformed phase space.

The window carries basis labels n = -N..N per sector sigma = +-1; one block
is stored.  P is diagonal with entries s0*q^n, U is the truncated shift
n -> n-1, X is the hermitean tridiagonal with entries i*q^(-n+1/2)/lambda
above and -i*q^(-n-1/2)/lambda below the diagonal (lambda = q - 1/q),
scaled by 1/s0, and sector sigma acts as (sigma P, sigma X, U).  All
defining relations hold exactly on the interior of the window; boundary
rows and columns carry pure truncation artifacts, so every residual here
is restricted to rows and columns with |n| <= N - margin and normalized
entrywise against the magnitudes summed into that entry (backward error).
The normalization matters because X entries reach q^N and products of the
reconstructed operators cancel across many orders of magnitude; double
precision cannot produce absolute defects below machine epsilon times
those scales, while any genuine algebra error would still register at
order one.

The block is stored by its bands (`PhaseRep`), and the residuals are formed
band by band: a product of bands a and b lands on band a + b, so the
defining relations cost O(N) and the identities of the reconstructed p,
which fills the block, O(N^2), with no matrix product.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache
from math import inf, isfinite, log

import numpy as np

# the sign sigma of each sector present, in basis order
SECTOR_SIGNS = {"plus": (1,), "minus": (-1,), "both": (1, -1)}

# ladder eigenvectors farther than this from orthonormal are refused
ORTHONORMALITY_TOL = 1e-10

# (-i)^k by k mod 4, exact
_GAUGE = np.array([1.0, -1j, -1.0, 1j])


class SpectrumWindowError(RuntimeError):
    """Raised when a spectral route yields no usable window at this N: the
    trims leave fewer than three values, or the ladder eigenvectors fail
    their orthonormality check.  The message says whether a smaller or a
    larger N helps."""


def _largest_value(q: float, N: int, s0: float) -> float:
    """s0^2 q^(2N), the largest value the phase modes form (H = P^2/2 and
    the tails s0 q^(2N) of p stay below it); inf past the double range."""
    try:
        return s0 * s0 * float(q) ** (2 * int(N))
    except OverflowError:
        return inf


@dataclass(frozen=True)
class PhaseParams:
    q: float
    N: int
    s0: float = 1.0
    sectors: str = "both"

    def __post_init__(self):
        if not (self.q > 1.0 and isfinite(self.q)):
            raise ValueError("deformation parameter must be finite and satisfy q > 1")
        if not isinstance(self.N, (int, np.integer)):
            raise ValueError("window half-width must be an integer")
        if self.N < 2:
            raise ValueError("window half-width must be at least 2")
        if not 1.0 <= self.s0 < self.q:
            raise ValueError("scale eigenvalue must lie in [1, q)")
        if not isfinite(_largest_value(self.q, self.N, self.s0)):
            n_max = int(log(sys.float_info.max / self.s0 ** 2) / (2.0 * log(self.q))) + 1
            while not isfinite(_largest_value(self.q, n_max, self.s0)):
                n_max -= 1
            raise ValueError(f"s0^2 q^(2N) overflows a double at N = {self.N}; "
                             f"the largest admissible N is {n_max}")
        if self.sectors not in SECTOR_SIGNS:
            raise ValueError(f"sectors must be one of {tuple(SECTOR_SIGNS)}")


def _block_interior(N: int, margin: int = 2) -> np.ndarray:
    return np.abs(np.arange(-N, N + 1)) <= N - margin


@dataclass(frozen=True)
class PhaseRep:
    """The sigma = +1 block by its bands, as real vectors: `P` is the
    diagonal s0*q^n (length 2N+1), `X` the bonds b (length 2N) with
    X[k, k+1] = i*b[k] and X[k+1, k] = -i*b[k], and `U` the superdiagonal
    (length 2N).  `labels`, `dim` and `interior` describe the full space of
    the sectors present, one sector after the other."""

    params: PhaseParams
    labels: tuple[tuple[int, int], ...]  # (n, sigma) per basis vector
    P: np.ndarray
    X: np.ndarray
    U: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def interior(self, margin: int = 2) -> np.ndarray:
        sectors = len(SECTOR_SIGNS[self.params.sectors])
        return np.tile(_block_interior(self.params.N, margin), sectors)


def build_phase_rep(params: PhaseParams) -> PhaseRep:
    q, N, s0 = params.q, params.N, params.s0
    n = np.arange(-N, N + 1, dtype=float)
    # bond (i-1, i) joins column labels n[i-1] and n[i]; the upper entry of
    # column n[i] and the lower entry of column n[i-1] share the exponent
    # -n[i] + 1/2, so one bond serves both and X is hermitean bit for bit
    bonds = np.power(q, -n[1:] + 0.5) / (q - 1.0 / q) * (1.0 / s0)
    labels = tuple((k, sigma) for sigma in SECTOR_SIGNS[params.sectors]
                   for k in range(-N, N + 1))
    return PhaseRep(params=params, labels=labels, P=s0 * np.power(q, n), X=bonds,
                    U=np.ones(2 * N))


# ---------------------------------------------------------------------------
# residuals
#
# Both residual families run once, on the plus block.  Sector sigma is
# (sigma P, sigma X, sigma p) with U and Lambda fixed, and each defect is
# homogeneous in sigma: the minus block's is an exact copy (xp_u, pxq,
# u_unitary, lambda_conj) or an exact negation (the rest) of the plus
# block's, as rounding is symmetric under sign.  The magnitude budgets do
# not depend on sigma, so the maximum over the sectors is the block's value.


class _Bands:
    """A real banded square matrix by its nonzero diagonals: `diag[k]` holds
    the band A[i, i+k] indexed by row i, zero-padded to the full dimension."""

    def __init__(self, diag: dict[int, np.ndarray]):
        self.diag = diag

    @classmethod
    def padded(cls, dim: int, diag: dict[int, np.ndarray]) -> "_Bands":
        """The bands `diag`, band k given by its dim - |k| entries."""
        out = {}
        for k, band in diag.items():
            v = np.zeros(dim)
            v[max(0, -k):dim - max(0, k)] = band
            out[k] = v
        return cls(out)

    @staticmethod
    def eye(dim: int) -> "_Bands":
        return _Bands({0: np.ones(dim)})

    def __rmul__(self, c) -> "_Bands":
        return _Bands({k: c * v for k, v in self.diag.items()})

    @property
    def T(self) -> "_Bands":
        """The transpose: band k becomes band -k, read from row i - k."""
        dim = len(next(iter(self.diag.values())))
        out = {}
        for k, v in self.diag.items():
            w = np.zeros_like(v)
            w[max(0, k):dim - max(0, -k)] = v[max(0, -k):dim - max(0, k)]
            out[-k] = w
        return _Bands(out)


def _summands(terms, rows: slice, cols: slice):
    """The elementary summands of sum(c * A @ B) over the terms (c, A, B),
    or (c, A) for c * A, on the block `rows` x `cols` of the interior:
    (k, t) with t indexed by the rows for a summand on band k, (None, t)
    for a dense block.

    A and B are `_Bands` or dense arrays, at most one of them dense.  No
    band reaches past the interior's margin, so a shifted row or column
    never leaves the window: each summand is c times one elementwise
    product, band a of A times band b of B (read from row i + a) landing on
    band a + b.  c scales the finished product, as it scales a matrix product.
    """
    def moved(s, k):
        return slice(s.start + k, s.stop + k)

    for c, A, *B in terms:
        B = B[0] if B else None
        if B is None and isinstance(A, np.ndarray):
            yield None, c * A[rows, cols]
        elif B is None:
            yield from ((k, c * v[rows]) for k, v in A.diag.items())
        elif isinstance(A, np.ndarray):   # (M B)[i, j] = M[i, j-k] B[j-k, j]
            for k, v in B.diag.items():
                yield None, c * (A[rows, moved(cols, -k)] * v[moved(cols, -k)])
        elif isinstance(B, np.ndarray):   # (A M)[i, j] = A[i, i+k] M[i+k, j]
            for k, v in A.diag.items():
                yield None, c * (v[rows, None] * B[moved(rows, k), cols])
        else:
            for a, u in A.diag.items():
                for b, w in B.diag.items():
                    yield a + b, c * (u[rows] * w[moved(rows, a)])


def _band_index(rows: slice, cols: slice, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (local row, local column) of the entries [i, i+k] of the
    block `rows` x `cols`."""
    i = np.arange(max(rows.start, cols.start - k), min(rows.stop, cols.stop - k))
    return i - rows.start, i + k - cols.start


# entries per row block of a dense defect: small enough that the block's
# temporaries are recycled in cache rather than mapped afresh per operation
_BLOCK_ENTRIES = 1 << 14


def _residual(terms, N: int, margin: int = 2) -> float:
    """Backward-relative residual of the defect sum(c * A @ B) over the
    terms (c, A, B), or (c, A) for c * A, on the interior block of the
    labels |n| <= N - margin.

    Each defect entry is compared against the magnitudes of the summands
    that produce it (plus 1 for the identity/constant part): its budget.
    This is the sharp float-safe version of a relative residual: an algebra
    error would register at O(1), while unavoidable rounding in products
    whose terms reach q^N registers at machine epsilon.  A defect of banded
    factors only is formed band by band in O(N), and its entries off those
    bands are exact zeros that do not count; one with a dense factor is
    formed in blocks of rows, O(N^2) in all.
    """
    inner = slice(margin, 2 * N + 1 - margin)
    if not any(isinstance(M, np.ndarray) for _, *ops in terms for M in ops):
        defect, budget = {}, {}
        for k, t in _summands(terms, inner, inner):
            defect[k] = defect.get(k, 0.0) + t
            budget[k] = budget.get(k, 0.0) + np.abs(t)
        worst = 0.0
        for k in defect:
            r, _ = _band_index(inner, inner, k)
            worst = max(worst, float(np.max(np.abs(defect[k][r]) / (1.0 + budget[k][r]),
                                            initial=0.0)))
        return worst
    n = inner.stop - inner.start
    step = max(1, _BLOCK_ENTRIES // n)
    worst = 0.0
    for start in range(inner.start, inner.stop, step):
        rows = slice(start, min(start + step, inner.stop))
        defect = budget = 0.0
        for k, t in _summands(terms, rows, inner):
            if k is not None:   # a band crossing the block: scatter it
                r, j = _band_index(rows, inner, k)
                band, t = t[r], np.zeros((rows.stop - rows.start, n), dtype=t.dtype)
                t[r, j] = band
            defect = defect + t
            budget = budget + np.abs(t)
        worst = max(worst, float(np.max(np.abs(defect) / (1.0 + budget))))
    return worst


def _phase_bands(rep: PhaseRep) -> tuple[_Bands, _Bands, _Bands]:
    """P, Y = -i X and U of the stored block on their bands 0, (-1, 1) and
    1; all three are real."""
    dim = 2 * rep.params.N + 1
    return (_Bands.padded(dim, {0: rep.P}),
            _Bands.padded(dim, {-1: 0.0 - rep.X, 1: rep.X}),
            _Bands.padded(dim, {1: rep.U}))


def relation_residuals(rep: PhaseRep) -> dict[str, float]:
    """Backward-relative interior residuals of the five defining properties,
    formed band by band.  P and U are real and X = i Y is imaginary, so each
    runs in real arithmetic with i factored out, e.g.
    sqrt(q) X P - P X / sqrt(q) - i U = i (sqrt(q) Y P - P Y / sqrt(q) - U)
    and X^dagger - X = -i (Y^T + Y)."""
    q, N = rep.params.q, rep.params.N
    P, Y, U = _phase_bands(rep)
    sq = q ** 0.5
    return {
        "xp_u": _residual([(sq, Y, P), (-1.0 / sq, P, Y), (-1.0, U)], N),
        "ux": _residual([(1.0, U, Y), (-1.0 / q, Y, U)], N),
        "up": _residual([(1.0, U, P), (-q, P, U)], N),
        "u_unitary": _residual([(1.0, U.T, U), (-1.0, _Bands.eye(2 * N + 1))], N),
        "p_hermitean": _residual([(1.0, P.T), (-1.0, P)], N),
        "x_hermitean": _residual([(1.0, Y.T), (1.0, Y)], N),
    }


# ---------------------------------------------------------------------------
# reconstruction of p, x, Lambda


def _sector_p(q: float, N: int, s0: float) -> np.ndarray:
    """Band family p[n+d, n] = C_d * s0 * q^n of the plus sector with C_0 = 1,
    C_d = (-1)^(d-1) q^(d/2) for d >= 1 and C_d = (-1)^d q^(d/2) for d <= -1;
    real, as all its entries are.

    This is the unique (up to one imaginary gauge parameter, fixed to zero)
    solution of the averaging identity P = (p + p^dagger)/2 together with
    the conjugation p^dagger = q^(-1/2) U p; it also satisfies
    p x - q x p = -i and Lambda p = q^(-1) p Lambda exactly on the interior.
    The O(N) scalars keep Python `**` (np.power differs in the last bit).
    """
    dim = 2 * N + 1
    base = np.array([s0 * q ** n for n in range(-N, N + 1)])
    coeff = np.array([1.0 if d == 0 else (-1.0) ** (d - (d > 0)) * q ** (d / 2.0)
                      for d in range(1 - dim, dim)])
    # toeplitz[i, j] = coeff[i - j + dim - 1], a strided view of coeff
    toeplitz = np.lib.stride_tricks.sliding_window_view(coeff[::-1], dim)[::-1]
    return toeplitz * base


@dataclass(frozen=True)
class Reconstruction:
    """The residuals of the six identities of p, x and Lambda on the stored
    block; sector sigma has (sigma p, sigma x, Lambda) and the same
    residuals."""
    residuals: dict[str, float]


def reconstruct_pxlambda(rep: PhaseRep) -> Reconstruction:
    """The backward-relative interior residuals of the six identities of the
    reconstructed p, x = ((1 + q)/(2q)) X and Lambda = q^(-1/2) U^dagger,
    with the pseudo-inverse q^(1/2) U of Lambda, exact on the interior.

    x and Lambda are banded; p fills the block, so its four identities cost
    O(N^2), one elementwise product per band of the other factor.  p, P and
    U are real and x = i y is imaginary, so every identity runs in real
    arithmetic with i factored out, e.g. p x - q x p + i = i (p y - q y p + 1).
    """
    params = rep.params
    q, N = params.q, params.N
    P, Y, U = _phase_bands(rep)
    y = ((1.0 + q) / (2.0 * q)) * Y
    lam, lam_inv = q ** -0.5 * U.T, q ** 0.5 * U
    p = _sector_p(q, N, params.s0)
    pt = p.T   # p^dagger of the real p
    residuals = {
        "pxq": _residual([(1.0, p, y), (-q, y, p), (1.0, _Bands.eye(2 * N + 1))], N),
        "p_conj": _residual([(1.0, pt), (-1.0 / q, lam_inv, p)], N),
        "p_average": _residual([(0.5, p), (0.5, pt), (-1.0, P)], N),
        "lambda_conj": _residual([(1.0, lam.T), (-1.0 / q, lam_inv)], N),
        "lambda_x": _residual([(1.0, lam, y), (-q, y, lam)], N),
        "lambda_p": _residual([(1.0, lam, p), (-1.0 / q, p, lam)], N),
    }
    return Reconstruction(residuals=residuals)


# ---------------------------------------------------------------------------
# spectrum of X (q-Fourier diagonalization)


@dataclass(frozen=True)
class SpectrumReport:
    q: float
    N: int
    s0: float
    eigenvalues: np.ndarray        # full sorted spectrum of the doubled X
    positives: np.ndarray          # upper halves of the ladders, sorted
    window: tuple[int, int]        # slice of `positives` used for ratios
    kept: np.ndarray               # positives inside the window
    ratios: np.ndarray             # consecutive ratios over the window
    ratio_dev_max: float           # max |ratio - q|
    ratio_dev_max_squared: float   # max |ratio - q^2| (block-truncation ladder)
    unitarity_defect: float        # max |V^T V - 1| over the ladder eigenvectors
    diagonalization_defect: float  # max |T V - V diag(vals)| / max(1, max bond)


def _require_doubled(rep: PhaseRep) -> None:
    if rep.params.sectors != "both":
        raise ValueError("the spectrum claim concerns the doubled operator; "
                         "build the representation with sectors='both'")


# LAPACK's dbdsqr as scipy's cython_lapack declares it (d = double)
_D = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
_DBDSQR_SIGNATURE = (f"void (char *, int *, int *, int *, int *, {_D}, {_D}, {_D}, "
                    f"int *, {_D}, int *, {_D}, int *, {_D}, int *)")


def _cython_lapack():
    """scipy's cython_lapack extension.  Unless scipy.linalg is already
    imported, its file is loaded directly: importing it by name runs
    scipy.linalg's __init__, ~0.3 s, for no function used here."""
    name = "scipy.linalg.cython_lapack"
    if "scipy.linalg" in sys.modules or name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec("scipy")
    folder = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "cython_lapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no cython_lapack extension in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


def _dbdsqr_from(capsule):
    """The ctypes function behind a cython_lapack capsule of dbdsqr.  The
    capsule's name is its C signature; any other signature is refused,
    since calling through a mismatched prototype corrupts memory."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    if name != _DBDSQR_SIGNATURE.encode():
        raise RuntimeError(f"LAPACK dbdsqr: scipy's cython_lapack declares "
                           f"{name!r}, expected {_DBDSQR_SIGNATURE!r}")
    # the int arguments by reference, the double arrays by address
    int_p, array = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, int_p, int_p, int_p,
                                 array, array, array, int_p, array, int_p,
                                 array, int_p, array, int_p)
    return prototype(get_pointer(capsule, name))


@cache
def _dbdsqr():
    return _dbdsqr_from(_cython_lapack().__pyx_capi__["dbdsqr"])


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray):
    """(s, u, vt) of the square upper bidiagonal C with diagonal d and
    superdiagonal e[:-1] (C = u diag(s) vt, s descending), by one LAPACK
    dbdsqr call that starts from u = vt = I.  d and e are overwritten."""
    m = len(d)
    u, vt = np.eye(m, order="F"), np.eye(m, order="F")
    work, dummy = np.empty(4 * m), np.zeros(1)
    size, zero, one, info = map(ctypes.c_int, (m, 0, 1, 0))
    # uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work, info
    _dbdsqr()(b"U", size, size, size, zero, d.ctypes.data, e.ctypes.data,
              vt.ctypes.data, size, u.ctypes.data, size, dummy.ctypes.data, one,
              work.ctypes.data, info)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"LAPACK dbdsqr did not converge: "
                                    f"{info.value} superdiagonal entries left")
    if info.value < 0:
        raise RuntimeError(f"LAPACK dbdsqr refused argument {-info.value}")
    return d, u, vt


def _ladder(bonds: np.ndarray):
    """Ascending eigenvalues and eigenvectors of the real symmetric
    tridiagonal T with zero diagonal and off-diagonal `bonds`.

    T is a permuted Golub-Kahan form: it maps the even sites to the odd ones
    by the upper bidiagonal C with C[j, j] = b[2j], C[j, j+1] = b[2j+1]
    (rows odd sites, columns even sites, a zero row appended when the count
    of sites is odd), and back by C^T.  With C = U S V^T the pairs +-s_k have
    the eigenvectors (v_k, +-u_k)/sqrt(2) on (even, odd) sites, and an odd
    ladder adds the null vector v of its zero row on the even sites, with
    eigenvalue exactly 0.  The two bands of C go straight to LAPACK's
    dbdsqr, whose zero-shift QR gives every singular value to high relative
    accuracy however strongly the bonds are graded, and singular vectors
    orthogonal by construction (Demmel & Kahan, SIAM J. Sci. Stat. Comput.
    11 (1990) 873); numpy's gesdd does not keep the tiny values accurate.
    No dense C is formed, and no dense reduction runs before the QR.  Each
    vector is signed so that its largest-magnitude component is positive.
    """
    n = len(bonds) + 1
    k = n // 2                          # odd sites, and pairs of values
    d, e = np.zeros((2, (n + 1) // 2))  # the bands of C, zero-padded
    d[:len(bonds[0::2])], e[:len(bonds[1::2])] = bonds[0::2], bonds[1::2]
    s, u, vt = _bidiagonal_svd(d, e)
    # s descends, so -s[:k] ascends and s[k-1::-1] ascends; an odd ladder's
    # zero row adds s[k] = 0 with u the row's unit vector
    v, w = np.sqrt(0.5) * vt[:k].T, np.sqrt(0.5) * u[:k, :k]
    vecs = np.zeros((n, n))
    vecs[0::2, :k], vecs[1::2, :k] = v, -w
    vecs[0::2, n - k:], vecs[1::2, n - k:] = v[:, ::-1], w[:, ::-1]
    if n % 2:
        vecs[0::2, k] = vt[k]
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs *= np.copysign(1.0, peak)
    return np.concatenate([-s[:k], np.zeros(n - 2 * k), s[k - 1::-1]]), vecs


def _solve_ladders(rep: PhaseRep, *bond_sets):
    """`_ladder` of each bond vector, with the eigenvectors of T mapped to
    those of X_+ on the same sites.

    On any run of consecutive sites X_+ = G T G^dagger with
    G = diag((-i)^k), k counted from the run's first site (starting the
    count elsewhere multiplies G by a phase).  Returns the (values, vectors)
    pairs, the largest orthonormality defect and the largest relative
    residual.  The singular vectors are orthonormal to a few ulps on every
    ladder that `PhaseParams` admits; eigenvectors that are nevertheless not
    finite and orthonormal to ORTHONORMALITY_TOL, or a solver that fails,
    are refused.
    """
    ladders, unitarity, residual = [], 0.0, 0.0
    for bonds in bond_sets:
        try:
            vals, vecs = _ladder(bonds)
        except np.linalg.LinAlgError:  # scipy.linalg raises numpy's class
            defect = inf
        else:
            defect = float(np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))))
        if not defect <= ORTHONORMALITY_TOL:  # NaN vectors give a NaN defect
            raise SpectrumWindowError(
                f"the ladder eigenvectors at N = {rep.params.N} are not "
                f"orthonormal to {ORTHONORMALITY_TOL:g} (defect {defect:.3g}): "
                f"the singular value decomposition failed on this ladder; "
                f"use a smaller N")
        tv = vecs * vals
        tv[:-1] -= bonds[:, None] * vecs[1:]
        tv[1:] -= bonds[:, None] * vecs[:-1]
        unitarity = max(unitarity, defect)
        residual = max(residual, float(np.max(np.abs(tv)) / max(1.0, np.max(bonds))))
        ladders.append((vals, _GAUGE[np.arange(len(vals)) % 4, None] * vecs))
    return ladders, unitarity, residual


def _ladder_report(rep: PhaseRep, vals, vecs, positives, margins, defects):
    """Analyse the positive ladder of the ascending doubled spectrum `vals`
    (eigenvectors `vecs`, returned with the report): `margins` = (low, high)
    values are trimmed at the small and the large end before the ratio
    series is formed."""
    N = rep.params.N
    lo, hi = margins[0], len(positives) - margins[1]
    if hi - lo < 3:
        raise SpectrumWindowError(
            f"usable spectral window is empty at N = {N}: "
            f"{len(positives)} distinct positive values, but the trims remove "
            f"{margins[0]} low and {margins[1]} high values; use a larger N")
    kept = positives[lo:hi]
    ratios = kept[1:] / kept[:-1]
    q = rep.params.q
    report = SpectrumReport(
        q=q,
        N=N,
        s0=rep.params.s0,
        eigenvalues=vals,
        positives=positives,
        window=(lo, hi),
        kept=kept,
        ratios=ratios,
        ratio_dev_max=float(np.max(np.abs(ratios - q))),
        ratio_dev_max_squared=float(np.max(np.abs(ratios - q * q))),
        unitarity_defect=defects[0],
        diagonalization_defect=defects[1],
    )
    return report, vecs


def x_eigensystem(rep: PhaseRep):
    """Eigen-decomposition of the doubled position operator.

    Returns (SpectrumReport, eigenvector matrix).  Sector sigma carries
    sigma X_+, so one tridiagonal ladder of X_+ gives the whole spectrum,
    each value once per sector, and sector-pure eigenvectors.  Its positive
    half, one value per two sites, is trimmed at both ends before the ratio
    series is formed; the trims (2 values low, max(2, N//6) high) absorb
    truncation distortion near the ends of the lattice.

    A caution on the ratio series: the untruncated doubled operator has the
    full geometric grid (+|-) sigma*q^n, with consecutive positive ratios
    equal to q.  That grid is selected by a boundary condition at the
    divergent end of the lattice which couples the two sectors.  This
    block-diagonal window keeps the sectors decoupled: the sign-flipped
    block is similar to the original via the alternating-sign diagonal, so
    every eigenvalue is exactly doubled and the positive ladder of X_+
    steps by q^2, not q.  The ratio series therefore converges to
    q^2 as N grows; `ratio_dev_max` (against q) stalls near q^2 - q while
    `ratio_dev_max_squared` (against q^2) decays.  Both are reported.
    `x_extension_eigensystem` diagonalizes the window with such a boundary
    condition imposed and yields the q-spaced grid.
    """
    _require_doubled(rep)
    N = rep.params.N
    [(vals, vecs)], *defects = _solve_ladders(rep, rep.X)
    # vals is exactly +-symmetric, so the doubled spectrum in ascending order
    # is each value twice: first the plus sector's vector of vals[i], then
    # the minus sector's of -vals[d-1-i]
    d = len(vals)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, 0::2] = vecs
    out[d:, 1::2] = vecs[:, ::-1]
    return _ladder_report(rep, np.repeat(vals, 2), out,
                          vals[N + 1:], (2, max(2, N // 6)), defects)


def x_extension_eigensystem(rep: PhaseRep):
    """Eigen-decomposition of the sector-coupled extension of X.

    The extension is the doubled X with a boundary condition that joins the
    two sectors at p -> 0: in the parity combinations
    e(+|-)_n = |n,+> (+|-) (-1)^n |n,->, each of which X maps into itself,
    the even combinations keep the whole window while the odd ones vanish
    at the innermost site n = -N, as the q-sine vanishes at p = 0.  Returns
    (SpectrumReport, eigenvector matrix) without assembling the dense
    operator: its even ladder is X_+ on the sites -N..N, its odd ladder X_+
    on -N+1..N, and e(-)_(-N) is a null vector.  The two ladders
    interlace, so the positive spectrum is simple and consecutive ratios
    approach q itself.  The values sit on the grid +-q^(k+1/2) / (lambda s0),
    lambda = q - 1/q: the x for which x p meets the asymptotic zeros of the
    q-cosine and q-sine of the q-Fourier kernel E(-i x p) at every lattice
    momentum p = s0 q^m (README, "Position spectrum").

    Truncation distortion spans a fixed number of lattice sites and this
    ladder has one positive value per site, twice as many as the block
    ladder of `x_eigensystem`; its margins are doubled accordingly so that
    they trim the same sites.
    """
    _require_doubled(rep)
    N = rep.params.N
    [(even, u), (odd, w)], *defects = _solve_ladders(rep, rep.X, rep.X[1:])
    v = np.zeros_like(u)   # the odd ladder, then the null vector at n = -N
    v[1:, :-1] = w
    v[0, -1] = 1.0
    vals = np.concatenate([even, odd, [0.0]])
    order = np.argsort(vals, kind="stable")
    # the even ladder is (u, parity u)/sqrt(2), the odd one (v, -parity v)/sqrt(2)
    upper = np.hstack([u, v])[:, order] * np.sqrt(0.5)
    parity = ((-1.0) ** np.arange(-N, N + 1))[:, None]
    lower = parity * upper * np.where(order < len(even), 1.0, -1.0)
    positives = np.sort(np.concatenate([even[N + 1:], odd[N:]]))
    return _ladder_report(rep, vals[order], np.vstack([upper, lower]),
                          positives, (4, 2 * max(2, N // 6)), defects)


# ---------------------------------------------------------------------------
# Hamiltonian and evolution


def hamiltonian_energies(rep: PhaseRep) -> np.ndarray:
    """Diagonal of H = P^2/2 in basis order (not sorted), one copy per sector."""
    return np.tile(0.5 * rep.P ** 2, len(SECTOR_SIGNS[rep.params.sectors]))


def hamiltonian_spectrum(rep: PhaseRep) -> np.ndarray:
    return np.sort(hamiltonian_energies(rep))


def expected_hamiltonian_spectrum(params: PhaseParams) -> np.ndarray:
    n = np.arange(-params.N, params.N + 1, dtype=float)
    # same float path as the P diagonal, so equality is exact bit for bit
    base = 0.5 * (params.s0 * np.power(params.q, n)) ** 2
    return np.sort(np.tile(base, len(SECTOR_SIGNS[params.sectors])))


def evolve(state: np.ndarray, rep: PhaseRep, t: float) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (rep.dim,):
        raise ValueError(f"state must have shape ({rep.dim},)")
    phases = np.exp(-1j * hamiltonian_energies(rep) * t)
    return phases * state


# ---------------------------------------------------------------------------
# canonical-variable bracket factor


BRACKET_CONVENTIONS = ("symmetric", "onesided")


def spectral_factor(zeta: float, q: float, convention: str = "symmetric") -> float:
    """Bracket ratio [A]/A at A = 2*zeta - 1/2, with the removable
    singularity at A = 0 filled by the limit value; equals 1 at q = 1."""
    if convention not in BRACKET_CONVENTIONS:
        raise ValueError(f"convention must be one of {BRACKET_CONVENTIONS}")
    if not q > 0:
        raise ValueError("q must be positive")
    a = 2.0 * zeta - 0.5
    if q == 1.0:
        return 1.0
    if convention == "symmetric":
        lam = q - 1.0 / q
        if a == 0.0:
            return 2.0 * log(q) / lam
        return (q ** a - q ** (-a)) / (a * lam)
    denom = 1.0 - q ** 2
    if a == 0.0:
        return 2.0 * log(q) / (q ** 2 - 1.0)
    return (1.0 - q ** (2.0 * a)) / (a * denom)


# ---------------------------------------------------------------------------
# aggregate report (CLI surface)


def phase_payload(params: PhaseParams, residuals: dict[str, float],
                  spectrum: SpectrumReport | None = None) -> dict:
    """The `phase_report` dict from residuals and an `x_eigensystem` report."""
    out = {
        "q": params.q,
        "N": params.N,
        "s0": params.s0,
        "sectors": params.sectors,
        "residuals": residuals,
    }
    if spectrum is not None:
        out["eigenvalues"] = [float(v) for v in spectrum.kept]
        out["ratios"] = [float(r) for r in spectrum.ratios]
        out["ratio_dev_max"] = spectrum.ratio_dev_max
    return out


def phase_report(params: PhaseParams) -> dict:
    rep = build_phase_rep(params)
    spectrum = None
    if params.sectors == "both":
        spectrum, _ = x_eigensystem(rep)
    return phase_payload(params, relation_residuals(rep), spectrum)
