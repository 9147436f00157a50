"""Tests for the classical deformed free-particle dynamics."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdeform.classical import (
    ClassicalParams,
    InsufficientRangeError,
    classical_report,
    closed_form_position,
    compare_closed_form,
    deviation_scaling,
    estimate_maxima_spacing,
    free_limit_deviation,
    free_position,
    hamiltonian,
    hamilton_rhs,
    initial_momentum,
    initial_slope,
    initial_slope_defect,
    integrate_trajectory,
    w_factor,
    w_factor_derivative,
)
from qdeform.classical import _DP_A, _DP_E, _DP_P, _dopri5

# frozen closed-form oracles at E = 1, h = 0.1 (hand-checked: amplitude
# sqrt(2)*(2/sinh 0.1), oscillation sinh(0.05)^2 + sin(0.2 t)^2, 1 + 16 t^2)
X_AT_1 = 1.4030548369381208
X_AT_2_5 = 3.3858907491826344
P0_E1_H01 = 1.415981697641535


def test_param_validation():
    with pytest.raises(ValueError):
        ClassicalParams(energy=0.0, h=0.1)
    with pytest.raises(ValueError):
        ClassicalParams(energy=1.0, h=0.0)
    with pytest.raises(ValueError):
        ClassicalParams(energy=-1.0, h=-0.1)


def test_closed_form_frozen_values():
    assert closed_form_position(0.0, 1.0, 0.1) == 0.0
    assert closed_form_position(1.0, 1.0, 0.1) == pytest.approx(X_AT_1, rel=1e-14)
    assert closed_form_position(2.5, 1.0, 0.1) == pytest.approx(X_AT_2_5, rel=1e-14)
    assert initial_momentum(1.0, 0.1) == pytest.approx(P0_E1_H01, rel=1e-14)


def test_closed_form_nonnegative_and_vectorized():
    t = np.linspace(0.0, 30.0, 400)
    x = closed_form_position(t, 1.0, 0.1)
    assert x.shape == t.shape
    assert np.all(x >= 0)


def test_w_factor_at_zero_matches_initial_momentum():
    # W(0) = 2q/(1+q)^2 = 1/(2 cosh(h/2)^2), and E = p0^2 W(0)
    for h in (0.05, 0.1, 0.5):
        w0 = float(w_factor(0.0, h))
        assert w0 * 2.0 * np.cosh(h / 2.0) ** 2 == pytest.approx(1.0, abs=1e-12)
        p0 = initial_momentum(3.0, h)
        assert p0 ** 2 * w0 == pytest.approx(3.0, rel=1e-13)


def test_w_factor_derivative_matches_finite_differences():
    h = 0.1
    for u in (-2.0, -0.3, 0.0, 0.7, 5.0):
        eps = 1e-6
        fd = (w_factor(u + eps, h) - w_factor(u - eps, h)) / (2.0 * eps)
        assert float(w_factor_derivative(u, h)) == pytest.approx(
            float(fd), rel=1e-5, abs=1e-8
        )


def test_closed_form_consistent_with_hamiltonian():
    """x p = 2 E t along the flow fixes p = sqrt(E/W(4Et)); the resulting
    x = u/(2p) must reproduce the closed form and conserve H exactly."""
    energy, h = 1.3, 0.2
    for t in (0.1, 0.9, 3.7, 12.0):
        u = 4.0 * energy * t
        w = float(w_factor(u, h))
        p = np.sqrt(energy / w)
        x_alt = u / (2.0 * p)
        assert float(closed_form_position(t, energy, h)) == pytest.approx(
            x_alt, rel=1e-12
        )
        assert float(hamiltonian(x_alt, p, h)) == pytest.approx(energy, rel=1e-12)


def test_rhs_consistent_with_conserved_product():
    # dw/dt = 2H in the chart w = xp: check the field reproduces it at a
    # generic point
    h = 0.15
    w, p = 1.7 * 0.9, 0.9
    dw, _ = hamilton_rhs(h)(w, p)
    assert dw == pytest.approx(2.0 * float(hamiltonian(w / p, p, h)), rel=1e-12)


def test_initial_slope_identity():
    for energy in (1.0, 2.0):
        for h in (0.05, 0.1, 0.3):
            assert initial_slope_defect(energy, h) <= 1e-12
            slope = initial_slope(energy, h)
            t = 1e-6
            assert float(closed_form_position(t, energy, h)) / t == pytest.approx(
                slope, rel=1e-8
            )


def test_free_limit_deviation_small_h():
    dev = free_limit_deviation(1.0, 1e-4, 10.0)
    assert dev <= 1e-6
    assert dev == pytest.approx(6.679e-07, rel=1e-3)


def test_free_limit_deviation_scales_quadratically():
    sc = deviation_scaling(1.0, [1e-3, 5e-4, 2.5e-4], 10.0)
    hs = sorted(sc, reverse=True)
    for big, small in zip(hs, hs[1:]):
        assert sc[small] / sc[big] == pytest.approx(0.25, abs=0.01)


def test_integration_matches_closed_form():
    cmp = compare_closed_form(ClassicalParams(energy=1.0, h=0.1), 5.0, tol=1e-9)
    assert cmp.max_rel_dev <= 1e-6
    assert cmp.energy_drift <= 1e-8
    assert cmp.slope_defect <= 1e-12


def test_integration_matches_closed_form_strong_deformation():
    cmp = compare_closed_form(ClassicalParams(energy=1.0, h=0.5), 5.0, tol=1e-10)
    assert cmp.max_rel_dev <= 1e-6
    assert cmp.energy_drift <= 1e-8


def array_rhs(t, y, h):
    """The (x, p) vector field through the array forms of W and dW/du: the
    oracle for the (w, p) field `hamilton_rhs`."""
    x, p = y
    u = 2.0 * x * p
    w = w_factor(u, h)
    wp = w_factor_derivative(u, h)
    return [2.0 * p * w + 2.0 * x * p * p * wp, -2.0 * p ** 3 * wp]


EPS = np.finfo(float).eps


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3])
def test_chart_rhs_matches_array_rhs_by_chain_rule(h):
    """dw/dt = (dx/dt) p + x (dp/dt) and dp/dt agree with the (x, p) field,
    each within 16 eps times the sum of its summands' magnitudes."""
    rng = np.random.default_rng(11)
    p = rng.uniform(-3.0, 3.0, 5000)
    x = rng.uniform(-1e3, 1e3, 5000) / p   # |x p| up to 1e3
    dx, dp = (np.array(v) for v in array_rhs(0.0, (x, p), h))
    # dp/dt = -2 p^3 (2/lambda^2) (2h sin(uh) (1 + u^2) - 2u g) / (1 + u^2)^2
    q = np.exp(h)
    u = 2.0 * x * p
    g = q + 1.0 / q - 2.0 * np.cos(u * h)
    scale = 4.0 * np.abs(p) ** 3 / (q - 1.0 / q) ** 2 / (1.0 + u * u) ** 2
    dp_terms = scale * (np.abs(2.0 * h * np.sin(u * h)) * (1.0 + u * u)
                        + np.abs(2.0 * u * g))
    field = hamilton_rhs(h)
    for xi, pi, dxi, dpi, dp_budget in zip(x, p, dx, dp, dp_terms):
        dw, dp_chart = field(float(xi * pi), float(pi))
        assert abs(dw - (dxi * pi + xi * dpi)) <= 16 * EPS * (
            abs(dxi * pi) + abs(xi * dpi))
        assert abs(dp_chart - dpi) <= 16 * EPS * dp_budget


@pytest.mark.parametrize("h, tol, bound", [(0.1, 1e-11, 1e-9), (0.5, 1e-10, 1e-8)])
def test_integration_matches_scipy_dop853_on_array_rhs(h, tol, bound):
    """The (w, p) Dormand-Prince 5(4) trajectory against scipy's DOP853 on
    the (x, p) oracle field, at matched tolerances."""
    from scipy.integrate import solve_ivp

    traj = integrate_trajectory(ClassicalParams(1.0, h), 5.0, tol=tol)
    sol = solve_ivp(array_rhs, (0.0, 5.0), [0.0, initial_momentum(1.0, h)],
                    args=(h,), method="DOP853", rtol=tol, atol=tol * 1e-3,
                    t_eval=np.linspace(0.0, 5.0, 501))
    assert sol.success
    x_ref = sol.y[0]
    assert np.max(np.abs(traj.x - x_ref)) / np.max(np.abs(x_ref)) <= bound


def test_dormand_prince_tableau_order_conditions():
    a, e, dense = _DP_A, _DP_E, _DP_P
    # the nodes c_i = sum_j a_ij, and b is the last row of a (FSAL)
    c = [sum(row) for row in a]
    assert c == pytest.approx([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0], abs=1e-15)
    b = a[6] + (0.0,)
    assert sum(b) == pytest.approx(1.0, abs=1e-15)
    assert sum(e) == pytest.approx(0.0, abs=1e-15)
    assert sum(bi * ci for bi, ci in zip(b, c)) == pytest.approx(0.5, abs=1e-15)
    assert sum(bi * ci ** 2 for bi, ci in zip(b, c)) == pytest.approx(1 / 3, abs=1e-15)
    # the continuous extension at theta = 1 is the step itself
    for row, bi in zip(dense, b):
        assert sum(row) == pytest.approx(bi, abs=1e-14)


@pytest.mark.parametrize("tol", [1e-11, 1e-9])
def test_integration_keeps_the_first_integral(tol):
    """w = xp = 2Et along the flow, which the solver is not told."""
    energy, t_max = 1.0, 200.0
    traj = integrate_trajectory(ClassicalParams(energy, 0.1), t_max, tol=tol)
    defect = np.max(np.abs(traj.x * traj.p - 2.0 * energy * traj.t))
    assert defect / (2.0 * energy * t_max) <= 10 * tol


@pytest.mark.parametrize("field, why", [
    (lambda w, p: (1.0, p * p), "step size .* underflows"),   # p = 1/(1 - t)
    (lambda w, p: (1.0, float("nan")), "non-finite state"),
])
def test_integrator_fails_on_blow_up_or_non_finite_state(field, why):
    with pytest.raises(RuntimeError, match=f"^integration failed: {why} at t = "):
        _dopri5(field, 0.0, 1.0, 2.0, [0.0, 1.0, 2.0], 1e-9, 1e-12)


def test_tolerance_below_rounding_is_floored_as_in_scipy():
    """rtol is raised to 100*eps, so a smaller tol costs few more steps
    (unfloored, tol = 1e-18 takes ~25k evaluations and 1e-30 ~1e9)."""
    params = ClassicalParams(1.0, 0.1)
    at_floor = integrate_trajectory(params, 5.0, tol=1e-14).nfev
    assert integrate_trajectory(params, 5.0, tol=1e-18).nfev < 2 * at_floor
    start = time.perf_counter()
    traj = integrate_trajectory(params, 5.0, tol=1e-30)
    assert time.perf_counter() - start < 5.0
    assert np.all(np.isfinite(traj.x))
    assert traj.nfev < 2 * at_floor


def test_long_horizon_meets_the_pinned_bound_at_default_tolerance():
    cmp = compare_closed_form(ClassicalParams(1.0, 0.1), 200.0, tol=1e-9)
    assert cmp.max_rel_dev <= 1e-6


def test_trajectory_records_solver_evaluations():
    first = integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0)
    second = integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0)
    assert first.nfev > 0
    assert first.nfev == second.nfev
    tight = integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0, tol=1e-11)
    assert tight.nfev > first.nfev


@pytest.mark.parametrize("kwargs, name", [
    ({"t_max": float("nan")}, "t_max"), ({"t_max": float("inf")}, "t_max"),
    ({"t_max": 0.0}, "t_max"), ({"t_max": -1.0}, "t_max"),
    ({"tol": float("nan")}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1e-9}, "tol"),
])
def test_integration_refuses_bad_horizon_or_tolerance(kwargs, name):
    args = {"t_max": 5.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        integrate_trajectory(ClassicalParams(1.0, 0.1), **args)


def test_trajectory_energy_drift_tracks_tolerance():
    loose = integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0, tol=1e-6)
    tight = integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0, tol=1e-11)
    assert tight.energy_drift < loose.energy_drift
    assert tight.energy_drift <= 1e-10


def test_maxima_spacing_matches_prediction():
    report = estimate_maxima_spacing(ClassicalParams(1.0, 0.1), 50.0, 200.0)
    assert len(report.maxima) == 10
    assert report.relative_error <= 1e-4
    assert report.predicted_spacing == pytest.approx(np.pi / 0.2, rel=1e-15)
    # first maximum sits at (2k+1) pi/(4Eh) for k = 3
    assert report.maxima[0] == pytest.approx(7.0 * np.pi / 0.4, abs=1e-3)


def test_maxima_spacing_halves_when_energy_doubles():
    base = estimate_maxima_spacing(ClassicalParams(1.0, 0.1), 50.0, 200.0)
    double = estimate_maxima_spacing(ClassicalParams(2.0, 0.1), 50.0, 200.0)
    assert double.mean_spacing / base.mean_spacing == pytest.approx(0.5, abs=1e-3)


def test_maxima_spacing_insufficient_range():
    with pytest.raises(InsufficientRangeError):
        estimate_maxima_spacing(ClassicalParams(1.0, 0.1), 50.0, 60.0)


@pytest.mark.parametrize("window, name", [
    ((float("nan"), 200.0), "t_start"), ((-float("inf"), 200.0), "t_start"),
    ((50.0, float("inf")), "t_end"), ((50.0, float("nan")), "t_end"),
])
def test_maxima_spacing_refuses_non_finite_window(window, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        estimate_maxima_spacing(ClassicalParams(1.0, 0.1), *window)


@settings(max_examples=30, deadline=None)
@given(
    energy=st.floats(0.1, 5.0),
    h=st.floats(0.01, 0.8),
    t=st.floats(0.01, 50.0),
)
def test_closed_form_properties(energy, h, t):
    w = float(w_factor(4.0 * energy * t, h))
    assert w > 0
    x = float(closed_form_position(t, energy, h))
    assert 0 <= x <= float(free_position(t, energy)) * 1.0000001
    p = np.sqrt(energy / w)
    assert float(hamiltonian(4.0 * energy * t / (2.0 * p), p, h)) == pytest.approx(
        energy, rel=1e-10
    )


def test_classical_report_schema():
    report = classical_report(ClassicalParams(1.0, 0.1), 5.0)
    assert set(report) == {"E", "h", "q", "t_max", "tol", "max_rel_dev",
                           "energy_drift", "slope_defect", "free_limit_dev"}
    assert report["q"] == pytest.approx(np.exp(0.1), rel=1e-15)
    assert report["max_rel_dev"] <= 1e-6


def test_package_import_defers_scipy_integrate():
    # the integrator is the package's own
    import qdeform

    src = str(Path(qdeform.__file__).resolve().parents[1])
    probes = [
        "import qdeform",
        "from qdeform.classical import ClassicalParams, integrate_trajectory\n"
        "integrate_trajectory(ClassicalParams(1.0, 0.1), 5.0)",
        "from qdeform.cli import main\n"
        "assert main(['classical', 'verify', '--E', '1', '--h', '0.1',"
        " '--t-max', '5', '--json']) == 0",
    ]
    for code in probes:
        out = subprocess.run(
            [sys.executable, "-c",
             code + "\nimport sys; print('scipy.integrate' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "False", code
