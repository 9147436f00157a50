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


def hamilton_rhs(t, y, h: float):
    """The vector field (dx/dt, dp/dt) = (dH/dp, -dH/dx), in scalar `math`.

    The solver calls this tens of thousands of times, so it evaluates W and
    dW/du on Python floats rather than through `w_factor`, with the same
    operations and rounding: numpy squares a 0-d array `u ** 2` as u * u,
    while its float64 scalars take `denom ** 2` and `p ** 3` through pow,
    as Python's float `**` does.
    """
    x, p = float(y[0]), float(y[1])
    q = exp(h)
    lam = q - 1.0 / q
    c = q + 1.0 / q
    u = 2.0 * x * p
    uh = u * h
    cos_uh = cos(uh)
    denom = 1.0 + u * u
    w = (2.0 / lam ** 2) * (c - 2.0 * cos_uh) / denom
    num = 2.0 * h * sin(uh) * denom - 2.0 * u * (c - 2.0 * cos_uh)
    wp = (2.0 / lam ** 2) * num / denom ** 2
    return [2.0 * p * w + 2.0 * x * p * p * wp, -2.0 * p ** 3 * wp]


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
    for name, value in (("t_max", t_max), ("tol", tol)):
        if not (value > 0.0 and isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    # imported here: scipy.integrate costs most of `import qdeform`
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_max, n_samples)
    sol = solve_ivp(
        hamilton_rhs,
        (0.0, t_max),
        [0.0, initial_momentum(params.energy, params.h)],
        args=(params.h,),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    x, p = sol.y
    energies = hamiltonian(x, p, params.h)
    drift = float(np.max(np.abs(energies - params.energy)) / params.energy)
    return Trajectory(params=params, t=t_eval, x=x, p=p, energy_drift=drift,
                      nfev=int(sol.nfev))


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
