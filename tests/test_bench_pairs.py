"""Verdicts of scripts/bench_pairs.py, the pair-run summary of bench/run.py."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def verdict(parent, change, more_failures=False):
    return bench_pairs.summarise(WALL, parent, change, more_failures)["verdict"]


def test_gain_when_change_wins_every_pair():
    parent = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.1, 5.0, 5.2]
    change = [0.8] * 10
    assert verdict(parent, change) == "gain"


def test_wide_parent_spread_is_unresolved_even_with_median_inside_bound():
    # parent IQR/median 0.4 > 0.25; the change's median is 10 % worse
    parent = [1.0, 1.0, 1.0, 0.8, 0.8, 1.2, 1.2, 1.2, 0.7, 1.3]
    change = [1.1] * 10
    result = bench_pairs.summarise(WALL, parent, change, False)
    assert result["parent_iqr"] / result["parent"]["median"] > WALL["bound"]
    assert result["verdict"] == "unresolved"


def test_wide_parent_spread_resolved_when_every_change_run_is_better():
    parent = [1.0, 1.0, 1.0, 0.8, 0.8, 1.2, 1.2, 1.2, 0.7, 1.3]
    change = [0.5] * 10
    assert verdict(parent, change) == "gain"


def test_errored_pairs_count_against_the_gain_share():
    # the change wins all 8 pairs where both sides ran, 8 of 10 run
    parent = [5.0] * 10
    change = [0.8] * 8 + [None, None]
    assert verdict(parent, change) == "within bound"
    assert bench_pairs.summarise(WALL, parent, change, False)["change_wins"] == 8


def test_no_gain_when_more_operations_fail():
    parent = [5.0] * 10
    change = [0.8] * 10
    assert verdict(parent, change, more_failures=True) == "within bound"


def test_regression_beyond_bound_on_a_steady_parent():
    assert verdict([1.0] * 10, [1.3] * 10) == "regression"


def test_fails_more_reads_errors_and_ok_frac():
    ran = [{"ok_frac": 0.875}] * 3
    assert not bench_pairs.fails_more(ran, ran)
    assert bench_pairs.fails_more(ran, ran[:2] + [{"error": "Traceback"}])
    assert bench_pairs.fails_more(ran, [{"ok_frac": 0.75}] * 3)
    assert not bench_pairs.fails_more(ran, [{"ok_frac": 1.0}] * 3)


def test_layer_summary_takes_each_sides_median_over_the_layers_either_used():
    parent = [{"qphase.relation_residuals.busy_s": 0.12, "cli.qnum_s": 0.0,
               "classical.compare_closed_form.busy_s": 1.0, "suq2.dim_total": 0.0},
              {"qphase.relation_residuals.busy_s": 0.14, "cli.qnum_s": 0.0,
               "classical.compare_closed_form.busy_s": 1.4, "suq2.dim_total": 0.0}]
    change = [{"qphase.relation_residuals.busy_s": 0.004, "cli.qnum_s": 0.0,
               "classical.compare_closed_form.busy_s": 0.5, "suq2.dim_total": 4.0},
              {"qphase.relation_residuals.busy_s": 0.002, "cli.qnum_s": 0.0,
               "classical.compare_closed_form.busy_s": 0.7, "suq2.dim_total": 4.0,
               "only.change_s": 1.0}]
    layers = bench_pairs.layer_summary(parent, change)
    assert set(layers) == {"qphase.relation_residuals.busy_s",
                           "classical.compare_closed_form.busy_s", "suq2.dim_total"}
    # two traced runs per side give medians and no verdict; the untraced
    # per-op quartiles judge the change
    assert layers["classical.compare_closed_form.busy_s"] == {
        "parent": 1.2, "change": 0.6, "relative_change": -0.5}
    assert layers["qphase.relation_residuals.busy_s"]["relative_change"] == (0.003 - 0.13) / 0.13
    # a layer only the change calls has no relative change
    assert layers["suq2.dim_total"]["relative_change"] is None


def test_layer_whose_spread_exceeds_its_change_is_unresolved():
    # the same code read 0.627 and 0.511 s in two traced runs: a -19 % move
    # of the medians that the runs' own spread covers
    parent = [{"classical.compare_closed_form.busy_s": 0.55, "suq2.dim_total": 410.0},
              {"classical.compare_closed_form.busy_s": 0.70, "suq2.dim_total": 410.0}]
    change = [{"classical.compare_closed_form.busy_s": 0.45, "suq2.dim_total": 410.0},
              {"classical.compare_closed_form.busy_s": 0.57, "suq2.dim_total": 410.0}]
    layers = bench_pairs.layer_summary(parent, change)
    layer = layers["classical.compare_closed_form.busy_s"]
    assert layer["relative_change"] == pytest.approx((0.51 - 0.625) / 0.625)
    # the layer carries no verdict, so the move is never read as resolved ...
    assert set(layer) == {"parent", "change", "relative_change"}
    assert layers["suq2.dim_total"]["relative_change"] == 0.0
    # ... and untraced runs of the op as spread as the traced ones (parent
    # IQR 0.15 against a 0.115 move of the medians) leave it unresolved
    op = bench_pairs.ops_summary(_op_runs({"op": [0.48, 0.55, 0.625, 0.70, 0.75]}),
                                 _op_runs({"op": [0.40, 0.45, 0.51, 0.57, 0.62]}))["op"]
    assert op["parent_iqr"] > abs(op["change"]["median"] - op["parent"]["median"])
    assert op["verdict"] == "unresolved"


def _op_runs(times: dict[str, list[float]]) -> list[dict]:
    """Untraced runs whose detail lines timed each op as given, run i
    taking the i-th time."""
    count = len(next(iter(times.values())))
    return [{"wall_s": 1.0, "ops_s": {name: t[i] for name, t in times.items()}}
            for i in range(count)]


def test_ops_summary_reads_quartiles_of_each_side():
    # the ladder op moved 129 -> 19 ms; the classical op did not move
    parent = _op_runs({"x_eigensystem_N200": [0.129, 0.131, 0.127, 0.133, 0.130],
                       "compare_closed_form_t200": [0.046, 0.050, 0.048, 0.047, 0.049]})
    change = _op_runs({"x_eigensystem_N200": [0.019, 0.020, 0.018, 0.021, 0.019],
                       "compare_closed_form_t200": [0.049, 0.045, 0.048, 0.050, 0.047]})
    ops = bench_pairs.ops_summary(parent, change)
    ladder = ops["x_eigensystem_N200"]
    assert ladder["parent"] == {"median": 0.130, "q1": 0.129, "q3": 0.131}
    assert ladder["change"]["median"] == 0.019
    assert ladder["parent_iqr"] == pytest.approx(0.002)
    assert ladder["change_iqr"] == pytest.approx(0.001)
    assert ladder["relative_change"] == pytest.approx((0.019 - 0.130) / 0.130)
    assert ladder["verdict"] == "resolved"
    classical = ops["compare_closed_form_t200"]
    assert classical["relative_change"] == 0.0
    assert classical["verdict"] == "unresolved"


def test_op_is_unresolved_when_either_sides_spread_exceeds_its_change():
    steady = [0.100] * 5
    wide = [0.080, 0.090, 0.105, 0.120, 0.130]     # IQR 0.03, median 0.105
    for parent, change in ((steady, wide), (wide, [0.110] * 5)):
        op = bench_pairs.ops_summary(_op_runs({"op": parent}), _op_runs({"op": change}))["op"]
        assert max(op["parent_iqr"], op["change_iqr"]) > abs(
            op["change"]["median"] - op["parent"]["median"])
        assert op["verdict"] == "unresolved"


def test_ops_summary_skips_errored_runs_and_ops_one_side_lacks():
    parent = _op_runs({"a": [1.0, 1.0, 1.0], "gone": [2.0, 2.0, 2.0]})
    change = _op_runs({"a": [0.5, 0.5, 0.5], "new": [3.0, 3.0, 3.0]})
    change.append({"error": "Traceback"})
    ops = bench_pairs.ops_summary(parent, change)
    assert set(ops) == {"a"}
    assert ops["a"]["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert ops["a"]["verdict"] == "resolved"


def test_bench_once_keeps_the_detail_lines_op_times(tmp_path):
    """An untraced run's detail line, printed before the result, gives the
    run's per-op medians; a traced run keeps only its metrics."""
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, sys\n"
        "print(json.dumps({'detail': {'ops_s': {'x_eigensystem_N200': 0.019}}}))\n"
        "print(json.dumps({'correct': True, 'metrics': "
        "{'wall_s': {'value': 0.13, 'unit': 's'}}}))\n")
    assert bench_pairs.bench_once(tmp_path, "float-certs", 1, 1.0) == {
        "wall_s": 0.13, "ops_s": {"x_eigensystem_N200": 0.019}}
    assert bench_pairs.bench_once(tmp_path, "float-certs", 1, 1.0, trace=1) == {
        "wall_s": 0.13}


def test_probe_option_is_gone():
    assert not hasattr(bench_pairs, "probe_once")
    assert "--probe" not in _SCRIPT.read_text()
    assert not (_SCRIPT.parent / "probe_exact_kernel.py").exists()
