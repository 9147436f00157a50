"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdeform.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# q-numbers


def test_qnum_symbolic_golden(capsys):
    code, out, _ = run(capsys, "qnum", "--n", "2", "--r", "2", "--symbolic")
    assert code == 0
    assert out == "1 + q^2\n"


def test_qnum_symbolic_negative_index(capsys):
    code, out, _ = run(capsys, "qnum", "--n", "-1", "--r", "-2", "--symbolic")
    assert code == 0
    assert out == "-q^2\n"


def test_qnum_numeric(capsys):
    code, out, _ = run(capsys, "qnum", "--n", "3", "--r", "1", "--q", "1.5")
    assert code == 0
    value = float(out)
    q = 1.5
    expected = (1.0 - q ** 3) / (1.0 - q)
    assert value == pytest.approx(expected, rel=1e-12)


def test_qnum_half_integer_has_no_symbolic_form(capsys):
    code, _, err = run(capsys, "qnum", "--n", "0.5", "--r", "1", "--symbolic")
    assert code == 2
    assert "error:" in err


def test_qnum_numeric_requires_q(capsys):
    code, _, err = run(capsys, "qnum", "--n", "2", "--r", "2")
    assert code == 2
    assert "needs --q" in err


@pytest.mark.parametrize("n, shown", [("10000", "[10000]_1"), ("1e400", "[1e+400]_1"),
                                      ("1234567.5", "[1.23457e+6]_1")],
                         ids=["10000", "1e400", "1234567.5"])
def test_qnum_overflow_asks_for_a_smaller_n(capsys, n, shown):
    code, out, err = run(capsys, "qnum", "--n", n, "--r", "1", "--q", "1.5")
    assert code == 2 and out == ""
    assert "overflows a double" in err and "use a smaller |n|" in err
    assert f"error: {shown} overflows" in err


@pytest.mark.parametrize("n, r, shown", [("1e9", "1", "[1e+9]_1 has 1e+9 terms"),
                                         ("-100001", "3", "[-100001]_3 has 100001 terms")],
                         ids=["1e9", "-100001"])
def test_qnum_symbolic_refuses_more_than_100000_terms(capsys, n, r, shown):
    code, out, err = run(capsys, "qnum", "--n", n, "--r", r, "--symbolic")
    assert code == 2 and out == ""
    assert shown in err and "more than the 100000" in err and "--q" in err


@pytest.mark.parametrize("q", ["-2", "nan", "inf"])
def test_qnum_needs_finite_positive_q(capsys, q):
    code, out, err = run(capsys, "qnum", "--n", "2.5", "--r", "1", "--q", q)
    assert code == 2 and out == ""
    assert "finite q > 0" in err


# ---------------------------------------------------------------------------
# representations and tensor products


def test_rep_check_json(capsys):
    code, out, _ = run(capsys, "rep", "--j", "0.5", "--q", "1.5",
                       "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["j"] == 0.5 and payload["dims"] == 2
    assert all(v <= 1e-12 for v in payload["residuals"].values())
    assert payload["casimir"]["eigenvalue"] == pytest.approx(1.14, abs=1e-12)


def test_rep_check_respects_tolerance_override(capsys):
    code, _, err = run(capsys, "rep", "--j", "1", "--q", "1.5",
                       "--check", "--tol", "1e-30")
    assert code == 1
    assert "above tolerance" in err


def test_rep_invalid_q_usage_error(capsys):
    code, out, err = run(capsys, "rep", "--j", "0.5", "--q", "0.9")
    assert code == 2
    assert out == ""
    assert "q >= 1" in err


def test_rep_infinite_q_usage_error(capsys):
    code, out, err = run(capsys, "rep", "--j", "1", "--q", "inf")
    assert code == 2 and out == ""
    assert "finite" in err and "q >= 1" in err


def test_rep_overflow_asks_for_a_smaller_j(capsys):
    code, out, err = run(capsys, "rep", "--j", "200", "--q", "3")
    assert code == 2 and out == ""
    assert "j = 200" in err and "use a smaller j" in err


def test_tensor_weight_overflow_asks_for_a_smaller_j(capsys):
    # each factor passes build_rep's guard, the product's weight -155/2 does not
    code, out, err = run(capsys, "tensor", "--j", "77", "--j2", "0.5", "--q", "10")
    assert code == 2 and out == ""
    assert "m = -155/2 overflows a double at q = 10.0; use a smaller j" in err


@pytest.mark.parametrize("j, q", [("12", "1.5"), ("5", "3")])
def test_rep_decomposes_where_casimir_clusters_split(capsys, j, q):
    # the eigenvalues spread by a few 1e-8 relative: the spin comes from the
    # weights and the Casimir confirms it within 1e-6
    code, out, _ = run(capsys, "rep", "--j", j, "--q", q, "--json")
    assert code == 0
    decomposition = json.loads(out)["decomposition"]
    assert [(b["j"], b["multiplicity"]) for b in decomposition] == [(float(j), 1)]


@pytest.mark.parametrize("j, q", [("11.5", "3"), ("3", "10")])
def test_rep_decomposes_where_tau_used_to_cancel(capsys, j, q):
    # 1 - (q - 1/q) T3 lost tau for m > 0; q^(-4m) from the weights keeps it
    code, out, _ = run(capsys, "rep", "--j", j, "--q", q, "--json")
    assert code == 0
    decomposition = json.loads(out)["decomposition"]
    assert [(b["j"], b["multiplicity"]) for b in decomposition] == [(float(j), 1)]


# eps * max|C| of these products' Casimirs exceeds the 1e-6 within which
# the spin-0 eigenvalue must read c_0 = 0
@pytest.mark.parametrize("argv, where", [
    (["tensor", "--j", "4", "--q", "10"], "q = 10.0, dimension 81"),
    (["tensor", "--j", "6", "--q", "5"], "q = 5.0, dimension 169"),
    (["tensor", "--j", "8", "--q", "3"], "q = 3.0, dimension 289"),
])
def test_suq2_precision_breakdown_exits_one(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert where in err and "use a smaller j or q" in err
    assert "Traceback" not in err


def test_tensor_decomposition(capsys):
    code, out, _ = run(capsys, "tensor", "--j", "0.5", "--q", "1.2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4
    blocks = {b["j"]: b for b in payload["blocks"]}
    assert set(blocks) == {0.0, 1.0}
    assert blocks[1.0]["casimir_eigenvalue"] == pytest.approx(2.44, abs=1e-10)
    assert payload["image_residual"] <= 1e-12


def test_tensor_mixed_spins(capsys):
    code, out, _ = run(capsys, "tensor", "--j", "0.5", "--j2", "1",
                       "--q", "1.2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [b["j"] for b in payload["blocks"]] == [0.5, 1.5]


# ---------------------------------------------------------------------------
# noncommutative plane


def test_plane_normalize_golden(capsys):
    code, out, _ = run(capsys, "plane", "normalize", "--preset", "qheisenberg",
                       "--expr", "p*x")
    assert code == 0
    assert out == "-i + q*x*p\n"


def test_plane_normalize_custom_rule(capsys):
    code, out, _ = run(capsys, "plane", "normalize",
                       "--rule", "y*x -> (1/q)*x*y", "--expr", "y*x")
    assert code == 0
    assert out == "q^(-1)*x*y\n"


def test_plane_normalize_divergent_exits_one(capsys):
    code, _, err = run(capsys, "plane", "normalize", "--preset",
                       "counterexample", "--expr", "y*y*x")
    assert code == 1
    assert "error:" in err


def test_plane_normalize_parse_error_is_usage(capsys):
    code, _, err = run(capsys, "plane", "normalize", "--preset", "manin",
                       "--expr", "x *")
    assert code == 2
    assert "position" in err


def test_plane_flatness_counterexample_golden(capsys):
    code, out, _ = run(capsys, "plane", "flatness", "--preset",
                       "counterexample", "--max-degree", "3")
    assert code == 0
    assert "relation: x^3 + y^3 + x^2*y + x*y^2" in out
    assert "not flat" in out


def test_plane_flatness_manin_json(capsys):
    code, out, _ = run(capsys, "plane", "flatness", "--preset", "manin",
                       "--max-degree", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [1, 2, 3, 4, 5]
    assert payload["is_flat"] is True
    assert payload["relations"] == []


def test_plane_derive(capsys):
    code, out, _ = run(capsys, "plane", "derive", "--preset", "wz-calculus",
                       "--d", "dx", "--expr", "x*y")
    assert code == 0
    assert out == "q^2*y\n"


def test_plane_derive_requires_flags(capsys):
    code, _, err = run(capsys, "plane", "derive", "--preset", "wz-calculus",
                       "--expr", "x*y")
    assert code == 2
    assert "--d" in err


# ---------------------------------------------------------------------------
# phase space


def test_phase_rep_residuals(capsys):
    code, out, _ = run(capsys, "phase", "rep", "--q", "1.5", "--N", "20",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(v <= 1e-12 for v in payload["residuals"].values())


def test_phase_rep_invalid_params_usage_error(capsys):
    code, _, err = run(capsys, "phase", "rep", "--q", "0.9", "--N", "20")
    assert code == 2
    assert "q > 1" in err


def test_phase_rep_nonfinite_q_usage_error(capsys):
    # a NaN certificate is not valid JSON and would pass `max(...) > tol`
    code, out, err = run(capsys, "phase", "rep", "--q", "inf", "--N", "5",
                         "--json")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("mode, N", [("spectrum", "340"), ("reconstruct", "647")])
def test_phase_overflowing_window_usage_error(capsys, mode, N):
    # at q = 3 the energies, or p's tails, would overflow a double
    code, out, err = run(capsys, "phase", mode, "--q", "3", "--N", N, "--json")
    assert code == 2
    assert out == ""
    assert "largest admissible N is 323" in err


def test_phase_largest_admissible_window_accepted(capsys):
    code, out, _ = run(capsys, "phase", "spectrum", "--q", "3", "--N", "323",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 0.0
    assert all(math.isfinite(v) for v in payload["energies"])


@pytest.mark.parametrize("mode, calls", [
    ("rep", {"build_phase_rep": 1, "relation_residuals": 1}),
    ("xspec", {"build_phase_rep": 1, "relation_residuals": 1, "x_eigensystem": 1}),
])
def test_phase_json_builds_and_computes_once(capsys, monkeypatch, mode, calls):
    import qdeform.qphase as qphase

    names = ("build_phase_rep", "relation_residuals", "x_eigensystem")
    counts = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(qphase, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counts:
        wrapper = counting(name)
        monkeypatch.setattr(qphase, name, wrapper)
    code, _, _ = run(capsys, "phase", mode, "--q", "1.5", "--N", "20", "--json")
    assert code == 0
    assert counts == {**dict.fromkeys(names, 0), **calls}


def test_phase_reconstruct(capsys):
    code, out, _ = run(capsys, "phase", "reconstruct", "--q", "1.5",
                       "--N", "40", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(v <= 1e-10 for v in payload["residuals"].values())


def test_phase_spectrum_exact(capsys):
    code, out, _ = run(capsys, "phase", "spectrum", "--q", "1.5", "--N", "10",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 0.0
    assert payload["energies"] == sorted(payload["energies"])
    assert 0.5 in payload["energies"]


def test_phase_xspec_json_schema(capsys):
    code, out, _ = run(capsys, "phase", "xspec", "--q", "1.5", "--N", "30",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"q", "N", "s0", "sectors", "residuals",
                            "eigenvalues", "ratios", "ratio_dev_max"}


def test_phase_xspec_single_sector_usage_error(capsys):
    code, _, err = run(capsys, "phase", "xspec", "--q", "1.5", "--N", "30",
                       "--sectors", "plus")
    assert code == 2
    assert "both" in err


def test_phase_qft_matrix_export(capsys, tmp_path):
    target = tmp_path / "kernel.txt"
    code, out, _ = run(capsys, "phase", "qft", "--q", "1.5", "--N", "8",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    rows = target.read_text().strip().splitlines()
    assert len(rows) == 2 * (2 * 8 + 1)
    assert all(len(r.split(",")) == len(rows) for r in rows)


def test_phase_qft_window_too_small_exits_one(capsys):
    code, _, err = run(capsys, "phase", "qft", "--q", "1.5", "--N", "5")
    assert code == 1
    assert "window" in err


# ---------------------------------------------------------------------------
# classical dynamics


def test_classical_verify(capsys):
    code, out, _ = run(capsys, "classical", "verify", "--E", "1", "--h", "0.1",
                       "--t-max", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_dev"] <= 1e-3
    assert payload["energy_drift"] <= 1e-8
    assert payload["slope_defect"] <= 1e-12


def test_classical_traj_csv(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "classical", "traj", "--E", "1", "--h", "0.1",
                       "--t-max", "2", "--csv", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,x,p"
    assert len(lines) == 502
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.415981697641535, rel=1e-10)


def test_classical_period(capsys):
    code, out, _ = run(capsys, "classical", "period", "--E", "1", "--h", "0.1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_error"] <= 0.01
    assert payload["maxima"] == 10


def test_classical_period_insufficient_range(capsys):
    code, _, err = run(capsys, "classical", "period", "--E", "1", "--h", "0.1",
                       "--t-start", "50", "--t-end", "60")
    assert code == 1
    assert "maxima" in err


def test_classical_invalid_params(capsys):
    code, _, err = run(capsys, "classical", "verify", "--E", "-1", "--h", "0.1")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("flag, value", [("--t-start", "nan"), ("--t-end", "inf")])
def test_classical_period_refuses_non_finite_window(capsys, flag, value):
    code, out, err = run(capsys, "classical", "period", "--E", "1", "--h", "0.1",
                         flag, value)
    assert code == 2 and out == ""
    assert f"{flag[2:].replace('-', '_')} must be finite" in err


@pytest.mark.parametrize("t_max", ["nan", "inf", "0", "-1"])
def test_classical_traj_refuses_bad_t_max(capsys, t_max):
    code, out, err = run(capsys, "classical", "traj", "--E", "1", "--h", "0.1",
                         "--t-max", t_max)
    assert code == 2 and out == ""
    assert "t_max must be finite and > 0" in err


# ---------------------------------------------------------------------------
# interface behavior


@pytest.mark.parametrize("argv", [
    ("phase", "rep", "--q", "1.5", "--N", "20"),
    ("phase", "reconstruct", "--q", "1.5", "--N", "20"),
    ("rep", "--j", "1", "--q", "1.5", "--check"),
    ("classical", "verify", "--E", "1", "--h", "0.1"),
])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    """A NaN tolerance passed every check and a zero one hung the integrator."""
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2 and out == ""
    assert "argument --tol: must be a finite number > 0" in err


@pytest.mark.parametrize("argv", [
    ("qnum", "--n", "2", "--r", "2", "--symbolic", "--csv"),
    ("qnum", "--n", "2", "--r", "2", "--symbolic", "--tol", "1e-9"),
    ("rep", "--j", "1", "--q", "1.5", "--csv"),
    ("tensor", "--j", "0.5", "--q", "1.2", "--csv"),
    ("plane", "normalize", "--expr", "y*x", "--csv"),
    ("plane", "flatness", "--tol", "1e-9"),
])
def test_flags_a_command_ignores_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("phase", "rep", "--csv"),
    ("phase", "qft", "--csv"),
    ("phase", "reconstruct", "--csv"),
    ("phase", "xspec", "--tol", "1e-9"),
    ("phase", "qft", "--tol", "1e-9"),
    ("phase", "spectrum", "--tol", "1e-9"),
    ("classical", "verify", "--csv"),
    ("classical", "period", "--csv"),
    ("classical", "period", "--tol", "1e-9"),
])
def test_flags_a_mode_ignores_are_usage_errors(capsys, argv):
    params = ("--q", "1.5", "--N", "20") if argv[0] == "phase" else ("--E", "1", "--h", "0.1")
    code, out, err = run(capsys, *argv, *params)
    assert code == 2 and out == ""
    assert f"{argv[2]} applies only to {argv[0]} " in err and f"not {argv[1]}" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "rep", "--q", "1.5")
    assert code == 2


def test_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "phase", "xspec", "--q", "1.5", "--N", "25",
                      "--json")
    _, second, _ = run(capsys, "phase", "xspec", "--q", "1.5", "--N", "25",
                       "--json")
    assert first == second
    _, third, _ = run(capsys, "tensor", "--j", "0.5", "--q", "1.2", "--json")
    _, fourth, _ = run(capsys, "tensor", "--j", "0.5", "--q", "1.2", "--json")
    assert third == fourth


def test_each_command_loads_only_its_layer():
    """The exact commands load no numpy, and the ladders no scipy.linalg
    package; the numeric names of the package still resolve."""
    import qdeform

    src = str(Path(qdeform.__file__).resolve().parents[1])
    run_cli = "from qdeform.cli import main\nassert main({}) == 0\n"
    probes = [
        (run_cli.format(["qnum", "--n", "5", "--r", "2", "--symbolic"]), "numpy"),
        (run_cli.format(["plane", "flatness", "--preset", "manin", "--max-degree", "3"]),
         "numpy"),
        (run_cli.format(["plane", "normalize", "--expr", "y*x*y"]), "numpy"),
        ("from qdeform import QExact\n", "numpy"),
        (run_cli.format(["phase", "xspec", "--q", "1.5", "--N", "20", "--json"]),
         "scipy.linalg"),
        (run_cli.format(["phase", "qft", "--q", "1.5", "--N", "8"]), "scipy.linalg"),
    ]
    for code, module in probes:
        out = subprocess.run(
            [sys.executable, "-c",
             code + f"import sys; print({module!r} in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "False", code
    out = subprocess.run(
        [sys.executable, "-c", "import qdeform; print(qdeform.x_eigensystem.__module__)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "qdeform.qphase"
