"""Classical dynamics generated by the deformed free Hamiltonian.

The Hamiltonian is H = p^2 * W(u) with u = 2*x*p and

    W(u) = (2/lambda^2) * (q + 1/q - 2*cos(u*h)) / (1 + u^2),

where q = exp(h) and lambda = q - 1/q.  Along any trajectory the product
w = x*p grows linearly, dw/dt = 2E, which makes the flow integrable: with
x(0) = 0 the position has the closed form

    x(t) = sqrt(2E) * t * (2/sinh h)
           * sqrt((sinh(h/2)^2 + sin(2*E*t*h)^2) / (1 + 16*E^2*t^2)).

For h -> 0 this approaches the free-particle line sqrt(2E)*t with an
O(h^2) deviation; for large t it oscillates around a constant amplitude
with maxima spaced by pi/(2*E*h).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, cosh, exp, isfinite, pi, sin, sinh, sqrt

import numpy as np


class InsufficientRangeError(RuntimeError):
    """Raised when a time window contains too few oscillation maxima."""


@dataclass(frozen=True)
class ClassicalParams:
    energy: float
    h: float

    def __post_init__(self):
        if not self.energy > 0:
            raise ValueError("energy must be positive")
        if not self.h > 0:
            raise ValueError("deformation step h must be positive")

    @property
    def q(self) -> float:
        return exp(self.h)


# ---------------------------------------------------------------------------
# Hamiltonian pieces


def w_factor(u, h: float):
    """W(u) as defined in the module docstring; accepts scalars or arrays."""
    q = exp(h)
    lam = q - 1.0 / q
    c = q + 1.0 / q
    u = np.asarray(u, dtype=float)
    return (2.0 / lam ** 2) * (c - 2.0 * np.cos(u * h)) / (1.0 + u ** 2)


def w_factor_derivative(u, h: float):
    """dW/du, used by the Hamiltonian vector field."""
    q = exp(h)
    lam = q - 1.0 / q
    c = q + 1.0 / q
    u = np.asarray(u, dtype=float)
    denom = 1.0 + u ** 2
    num = 2.0 * h * np.sin(u * h) * denom - 2.0 * u * (c - 2.0 * np.cos(u * h))
    return (2.0 / lam ** 2) * num / denom ** 2


def hamiltonian(x, p, h: float):
    return np.asarray(p) ** 2 * w_factor(2.0 * np.asarray(x) * np.asarray(p), h)


def hamilton_rhs(h: float):
    """The vector field (w, p) -> (dw/dt, dp/dt) in the first-integral chart.

    With w = x*p and u = 2w, Hamilton's equations for H = p^2 * W(u) read

        dw/dt = 2 p^2 W(2w),    dp/dt = -2 p^3 W'(2w),

    and x = w/p.  The chain rule gives dw/dt = 2H for any W, so w grows as
    2Et; the solver is not told so.  The constants of W are computed once
    here, and the returned function works on Python floats in `math`,
    because the solver calls it tens of thousands of times.
    """
    q = exp(h)
    lam = q - 1.0 / q
    c = q + 1.0 / q
    two_k = 4.0 / lam ** 2    # 2 * (2/lambda^2)

    def field(w: float, p: float) -> tuple[float, float]:
        u = 2.0 * w
        uh = u * h
        g = c - 2.0 * cos(uh)
        denom = 1.0 + u * u
        r = two_k * p * p / denom       # 2 p^2 W(u) / g
        return r * g, -2.0 * p * r * (h * sin(uh) - u * g / denom)

    return field


def initial_momentum(energy: float, h: float) -> float:
    """p(0) for x(0) = 0: E = p0^2 * W(0) with W(0) = 2q/(1+q)^2."""
    q = exp(h)
    return (1.0 + q) * sqrt(energy / (2.0 * q))


def initial_slope(energy: float, h: float) -> float:
    """dx/dt at t = 0 for the closed form: sqrt(2E)/cosh(h/2)."""
    return sqrt(2.0 * energy) / cosh(h / 2.0)


def initial_slope_defect(energy: float, h: float) -> float:
    """|sqrt(2E)/cosh(h/2) - 2*sqrt(2E)*sqrt(q)/(1+q)|; zero analytically."""
    q = exp(h)
    return abs(initial_slope(energy, h)
               - 2.0 * sqrt(2.0 * energy) * sqrt(q) / (1.0 + q))


# ---------------------------------------------------------------------------
# closed form and the undeformed limit


def closed_form_position(t, energy: float, h: float):
    t = np.asarray(t, dtype=float)
    amp = sqrt(2.0 * energy) * (2.0 / sinh(h))
    osc = sinh(h / 2.0) ** 2 + np.sin(2.0 * energy * t * h) ** 2
    return amp * t * np.sqrt(osc / (1.0 + 16.0 * energy ** 2 * t ** 2))


def free_position(t, energy: float):
    return sqrt(2.0 * energy) * np.asarray(t, dtype=float)


def free_limit_deviation(energy: float, h: float, t_max: float,
                         n_samples: int = 2000) -> float:
    """max over (0, t_max] of |x(t)/(sqrt(2E)*t) - 1|."""
    t = np.linspace(t_max / n_samples, t_max, n_samples)
    ratio = closed_form_position(t, energy, h) / free_position(t, energy)
    return float(np.max(np.abs(ratio - 1.0)))


def deviation_scaling(energy: float, hs, t_max: float) -> dict[float, float]:
    return {float(h): free_limit_deviation(energy, h, t_max) for h in hs}


# ---------------------------------------------------------------------------
# numerical integration and the closed-form cross-check


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6 (1980) 19): stage weights a,
# whose last row is the 5th-order weights b (so the 7th stage is the next
# step's first: FSAL; the field is autonomous, so the nodes c are not used),
# error weights e = b - b_hat against the embedded 4th-order solution, and
# Shampine's 4th-order continuous extension (Math. Comp. 46 (1986) 135), one
# row per stage, columns theta^1..theta^4.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
         1 / 40)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = 2.0 ** -52


def _rms(a: float, b: float) -> float:
    return sqrt(0.5 * (a * a + b * b))


def _dopri5(field, w: float, p: float, t_end: float, samples: list[float],
            rtol: float, atol: float):
    """Integrate the autonomous 2-state field from t = 0 to t_end.

    Returns the states at `samples` (ascending, in [0, t_end]) from the
    continuous extension, and the count of field evaluations.  Steps are
    controlled on the RMS norm of the error over atol + rtol*max(|y|, |y_new|)
    and are never clipped to the samples, so the tolerance alone sets them.
    The stages are unrolled on scalars: this loop is the integrator's cost.
    """
    (), (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    (p11, p12, p13, p14), _, (_, p32, p33, p34), (_, p42, p43, p44), \
        (_, p52, p53, p54), (_, p62, p63, p64), (_, p72, p73, p74) = _DP_P

    def fail(why, t):
        raise RuntimeError(f"integration failed: {why} at t = {t:.17g}")

    k1w, k1p = field(w, p)
    nfev = 1
    if not all(map(isfinite, (w, p, k1w, k1p))):
        fail("non-finite state", 0.0)

    # starting step: Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4
    sw, sp = atol + abs(w) * rtol, atol + abs(p) * rtol
    d0, d1 = _rms(w / sw, p / sp), _rms(k1w / sw, k1p / sp)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    fw, fp = field(w + h0 * k1w, p + h0 * k1p)
    nfev += 1
    d2 = _rms((fw - k1w) / sw, (fp - k1p) / sp) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    step = min(100.0 * h0, h1, t_end)

    out_w, out_p = [], []
    n_out, j = len(samples), 0
    while j < n_out and samples[j] <= 0.0:
        out_w.append(w)
        out_p.append(p)
        j += 1
    t = 0.0
    while t < t_end:
        rejected = False
        while True:
            if step <= 16.0 * _EPS * t:
                fail(f"step size {step:.3g} underflows", t)
            t_new = t + step
            if t_new >= t_end:
                t_new = t_end
            h = t_new - t
            k2w, k2p = field(w + h * a21 * k1w, p + h * a21 * k1p)
            k3w, k3p = field(w + h * (a31 * k1w + a32 * k2w),
                             p + h * (a31 * k1p + a32 * k2p))
            k4w, k4p = field(w + h * (a41 * k1w + a42 * k2w + a43 * k3w),
                             p + h * (a41 * k1p + a42 * k2p + a43 * k3p))
            k5w, k5p = field(
                w + h * (a51 * k1w + a52 * k2w + a53 * k3w + a54 * k4w),
                p + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p))
            k6w, k6p = field(
                w + h * (a61 * k1w + a62 * k2w + a63 * k3w + a64 * k4w
                         + a65 * k5w),
                p + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p
                         + a65 * k5p))
            w_new = w + h * (b1 * k1w + b3 * k3w + b4 * k4w + b5 * k5w
                             + b6 * k6w)
            p_new = p + h * (b1 * k1p + b3 * k3p + b4 * k4p + b5 * k5p
                             + b6 * k6p)
            k7w, k7p = field(w_new, p_new)
            nfev += 6
            err = _rms(
                h * (e1 * k1w + e3 * k3w + e4 * k4w + e5 * k5w + e6 * k6w
                     + e7 * k7w) / (atol + max(abs(w), abs(w_new)) * rtol),
                h * (e1 * k1p + e3 * k3p + e4 * k4p + e5 * k5p + e6 * k6p
                     + e7 * k7p) / (atol + max(abs(p), abs(p_new)) * rtol))
            if not isfinite(err):
                fail("non-finite state", t)
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** -0.2))
                step = h * (min(1.0, factor) if rejected else factor)
                break
            step = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
        if j < n_out and samples[j] <= t_new:
            # y(t + theta*h) = y + h * sum_k q_k theta^k
            qw1 = p11 * k1w
            qw2 = p12 * k1w + p32 * k3w + p42 * k4w + p52 * k5w + p62 * k6w + p72 * k7w
            qw3 = p13 * k1w + p33 * k3w + p43 * k4w + p53 * k5w + p63 * k6w + p73 * k7w
            qw4 = p14 * k1w + p34 * k3w + p44 * k4w + p54 * k5w + p64 * k6w + p74 * k7w
            qp1 = p11 * k1p
            qp2 = p12 * k1p + p32 * k3p + p42 * k4p + p52 * k5p + p62 * k6p + p72 * k7p
            qp3 = p13 * k1p + p33 * k3p + p43 * k4p + p53 * k5p + p63 * k6p + p73 * k7p
            qp4 = p14 * k1p + p34 * k3p + p44 * k4p + p54 * k5p + p64 * k6p + p74 * k7p
            while j < n_out and samples[j] <= t_new:
                th = (samples[j] - t) / h
                out_w.append(w + h * th * (qw1 + th * (qw2 + th * (qw3 + th * qw4))))
                out_p.append(p + h * th * (qp1 + th * (qp2 + th * (qp3 + th * qp4))))
                j += 1
        t, w, p, k1w, k1p = t_new, w_new, p_new, k7w, k7p
    return out_w, out_p, nfev


@dataclass(frozen=True)
class Trajectory:
    params: ClassicalParams
    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    energy_drift: float  # max relative drift of H along the samples
    nfev: int            # vector-field evaluations the solver made


def integrate_trajectory(params: ClassicalParams, t_max: float,
                         tol: float = 1e-9, n_samples: int = 501) -> Trajectory:
    """Integrate from x(0) = 0 in the (w, p) chart (`hamilton_rhs`) with
    Dormand-Prince 5(4) at rtol = tol, atol = tol*1e-3, sampled at
    `n_samples` equally spaced times in [0, t_max].  As in scipy's
    integrators, rtol is raised to at least 100*eps: below that the error
    estimate is rounding noise and the steps would shrink without bound."""
    for name, value in (("t_max", t_max), ("tol", tol)):
        if not (value > 0.0 and isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    t_eval = np.linspace(0.0, t_max, n_samples)
    w, p, nfev = _dopri5(hamilton_rhs(params.h), 0.0,
                         initial_momentum(params.energy, params.h), t_max,
                         t_eval.tolist(), max(tol, 100.0 * _EPS), tol * 1e-3)
    w, p = np.array(w), np.array(p)
    energies = p ** 2 * w_factor(2.0 * w, params.h)
    drift = float(np.max(np.abs(energies - params.energy)) / params.energy)
    return Trajectory(params=params, t=t_eval, x=w / p, p=p, energy_drift=drift,
                      nfev=nfev)


@dataclass(frozen=True)
class ClosedFormComparison:
    params: ClassicalParams
    t_max: float
    max_rel_dev: float   # max |x_num - x_closed| / max |x_closed|
    energy_drift: float
    slope_defect: float


def compare_closed_form(params: ClassicalParams, t_max: float,
                        tol: float = 1e-9) -> ClosedFormComparison:
    traj = integrate_trajectory(params, t_max, tol=tol)
    reference = closed_form_position(traj.t, params.energy, params.h)
    scale = float(np.max(np.abs(reference)))
    dev = float(np.max(np.abs(traj.x - reference)) / scale)
    return ClosedFormComparison(
        params=params,
        t_max=t_max,
        max_rel_dev=dev,
        energy_drift=traj.energy_drift,
        slope_defect=initial_slope_defect(params.energy, params.h),
    )


# ---------------------------------------------------------------------------
# asymptotic oscillation period


@dataclass(frozen=True)
class SpacingReport:
    params: ClassicalParams
    t_start: float
    t_end: float
    maxima: np.ndarray
    spacings: np.ndarray
    mean_spacing: float
    predicted_spacing: float   # pi / (2*E*h)

    @property
    def relative_error(self) -> float:
        return abs(self.mean_spacing / self.predicted_spacing - 1.0)


def estimate_maxima_spacing(params: ClassicalParams, t_start: float,
                            t_end: float, min_maxima: int = 3) -> SpacingReport:
    for name, value in (("t_start", t_start), ("t_end", t_end)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    predicted = pi / (2.0 * params.energy * params.h)
    dt = predicted / 200.0
    t = np.arange(t_start, t_end, dt)
    x = closed_form_position(t, params.energy, params.h)
    inner = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    idx = np.nonzero(inner)[0] + 1
    # parabolic refinement of each grid maximum
    refined = []
    for i in idx:
        denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
        shift = 0.5 * (x[i - 1] - x[i + 1]) / denom if denom != 0 else 0.0
        refined.append(t[i] + shift * dt)
    maxima = np.array(refined)
    if len(maxima) < min_maxima:
        raise InsufficientRangeError(
            f"found {len(maxima)} maxima in [{t_start}, {t_end}]; "
            f"need at least {min_maxima} (predicted spacing {predicted:.6g})"
        )
    spacings = np.diff(maxima)
    return SpacingReport(
        params=params,
        t_start=t_start,
        t_end=t_end,
        maxima=maxima,
        spacings=spacings,
        mean_spacing=float(np.mean(spacings)),
        predicted_spacing=predicted,
    )


# ---------------------------------------------------------------------------
# aggregate report (CLI surface)


def classical_report(params: ClassicalParams, t_max: float,
                     tol: float = 1e-9) -> dict:
    cmp = compare_closed_form(params, t_max, tol=tol)
    return {
        "E": params.energy,
        "h": params.h,
        "q": params.q,
        "t_max": t_max,
        "tol": tol,
        "max_rel_dev": cmp.max_rel_dev,
        "energy_drift": cmp.energy_drift,
        "slope_defect": cmp.slope_defect,
        "free_limit_dev": free_limit_deviation(params.energy, params.h, t_max),
    }
