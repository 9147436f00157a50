"""Command-line front end.

Exit codes: 0 = success (all requested checks pass), 1 = a verification
found a defect above tolerance or a computation failed, 2 = usage error.
All floats render via ".12g" so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .ncalg import DivergedError, PresentationError, derivative_apply, \
    flatness_scan, normal_form
from .parsing import parse_expr, parse_rule
from .presets import PRESETS, get_preset
from .scalars import HalfInt, QExactError, q_number, q_number_value

# the numeric layers (suq2, qphase, classical) load numpy, so each handler
# that uses one imports it: the exact commands stay pure Python


def _f(value: float) -> str:
    return format(float(value), ".12g")


def _json_clean(obj):
    """Round floats to 12 significant digits for byte-stable JSON."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def emit(self, text: str):
        self.lines.append(text)

    def flush(self) -> None:
        body = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)

    def emit_json(self, payload) -> None:
        self.emit(json.dumps(_json_clean(payload), indent=2))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _presentation_from_args(args):
    if getattr(args, "rule", None):
        return parse_rule(args.rule)
    return get_preset(args.preset)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_qnum(args, out: _Output) -> int:
    n = HalfInt.coerce(Fraction(args.n))
    if args.symbolic:
        value = q_number(n, args.r)
        if args.json:
            out.emit_json({"n": float(n), "r": args.r, "symbolic": value.render()})
        else:
            out.emit(value.render())
        return 0
    if args.q is None:
        return _fail("numeric evaluation needs --q (or pass --symbolic)", 2)
    value = q_number_value(n, args.r, args.q)
    if args.json:
        out.emit_json({"n": float(n), "r": args.r, "q": args.q, "value": value})
    else:
        out.emit(_f(value))
    return 0


def _cmd_rep(args, out: _Output) -> int:
    from .suq2 import rep_report

    report = rep_report(HalfInt.coerce(Fraction(args.j)), args.q)
    worst = max(report["residuals"].values())
    worst = max(worst, report["casimir"]["defect"])
    tol = args.tol if args.tol is not None else 1e-12
    if args.json:
        out.emit_json(report)
    else:
        out.emit(f"j={_f(report['j'])} q={_f(report['q'])} dim={report['dims']}")
        for key, value in report["residuals"].items():
            out.emit(f"residual {key}: {_f(value)}")
        out.emit(f"casimir eigenvalue: {_f(report['casimir']['eigenvalue'])}"
                 f" (defect {_f(report['casimir']['defect'])})")
        for entry in report["decomposition"]:
            out.emit(f"block j={_f(entry['j'])} x{entry['multiplicity']}")
    if args.check and worst > tol:
        print(f"error: residual {worst:.3e} above tolerance {tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_tensor(args, out: _Output) -> int:
    from .suq2 import (algebra_residuals, build_rep, casimir_decompose,
                       conjugation_residuals, coproduct)

    j1 = HalfInt.coerce(Fraction(args.j))
    j2 = HalfInt.coerce(Fraction(args.j2)) if args.j2 is not None else j1
    product = coproduct(build_rep(j1, args.q), build_rep(j2, args.q))
    decomposition = casimir_decompose(product)
    residual = max(max(algebra_residuals(product)),
                   max(conjugation_residuals(product)))
    tol = args.tol if args.tol is not None else 1e-12
    payload = {
        "j1": float(j1),
        "j2": float(j2),
        "q": args.q,
        "dim": decomposition.dim,
        "blocks": decomposition.as_dict(),
        "image_residual": residual,
    }
    if args.json:
        out.emit_json(payload)
    else:
        out.emit(f"tensor {_f(float(j1))} x {_f(float(j2))} at q={_f(args.q)}"
                 f" (dim {decomposition.dim})")
        for j, mult, eig in decomposition.entries:
            out.emit(f"block j={_f(float(j))} x{mult} casimir={_f(eig)}")
        out.emit(f"image residual: {_f(residual)}")
    return 1 if residual > tol else 0


def _cmd_plane(args, out: _Output) -> int:
    pres = _presentation_from_args(args)
    if args.mode == "normalize":
        if not args.expr:
            return _fail("normalize needs --expr", 2)
        try:
            poly = parse_expr(args.expr, pres)
            result = normal_form(pres, poly)
        except (DivergedError, PresentationError) as exc:
            return _fail(str(exc), 1)
        if args.json:
            out.emit_json({"input": args.expr, "normal_form": result.render()})
        else:
            out.emit(result.render())
        return 0
    if args.mode == "flatness":
        try:
            report = flatness_scan(pres, args.max_degree)
        except (PresentationError, QExactError) as exc:
            return _fail(str(exc), 1)
        if args.json:
            out.emit_json({
                "presentation": pres.name,
                "max_degree": report.max_degree,
                "counts": list(report.counts),
                "flat_counts": list(report.flat_counts),
                "is_flat": report.is_flat,
                "relations": [r.render() for r in report.relations],
            })
        else:
            for d, (got, want) in enumerate(zip(report.counts, report.flat_counts)):
                out.emit(f"degree {d}: {got} monomials (flat: {want})")
            for rel in report.relations:
                out.emit(f"relation: {rel.render()}")
            out.emit("flat" if report.is_flat else "not flat")
        return 0
    # derive
    if not args.expr or not args.d:
        return _fail("derive needs --d and --expr", 2)
    try:
        poly = parse_expr(args.expr, pres)
        result = derivative_apply(args.d, poly)
    except (PresentationError, DivergedError) as exc:
        return _fail(str(exc), 1)
    if args.json:
        out.emit_json({"d": args.d, "input": args.expr, "result": result.render()})
    else:
        out.emit(result.render())
    return 0


def _cmd_phase(args, out: _Output) -> int:
    from .qphase import (PhaseParams, build_phase_rep, expected_hamiltonian_spectrum,
                         hamiltonian_spectrum, phase_payload, reconstruct_pxlambda,
                         relation_residuals, x_eigensystem)

    # invalid parameters (ValueError) and empty spectral windows
    # (SpectrumWindowError) reach main's exit codes 2 and 1
    params = PhaseParams(q=args.q, N=args.N, s0=args.s0, sectors=args.sectors)
    rep = build_phase_rep(params)
    if args.mode == "rep":
        residuals = relation_residuals(rep)
        tol = args.tol if args.tol is not None else 1e-12
        if args.json:
            out.emit_json(phase_payload(params, residuals))
        else:
            for key, value in residuals.items():
                out.emit(f"residual {key}: {_f(value)}")
        return 1 if max(residuals.values()) > tol else 0
    if args.mode == "xspec":
        report, _ = x_eigensystem(rep)
        if args.json:
            out.emit_json(phase_payload(params, relation_residuals(rep), report))
        elif args.csv:
            out.emit("eigenvalue,ratio")
            kept = report.kept
            for i, v in enumerate(kept):
                ratio = kept[i] / kept[i - 1] if i else float("nan")
                out.emit(f"{_f(v)},{_f(ratio) if i else ''}")
        else:
            out.emit(f"window eigenvalues: {len(report.kept)}")
            out.emit(f"ratio_dev_max (vs q): {_f(report.ratio_dev_max)}")
            out.emit(f"ratio_dev_max (vs q^2): {_f(report.ratio_dev_max_squared)}")
            out.emit(f"unitarity defect: {_f(report.unitarity_defect)}")
        return 0
    if args.mode == "qft":
        report, vectors = x_eigensystem(rep)
        if args.json:
            out.emit_json({
                "eigenvalues": [float(v) for v in report.eigenvalues],
                "vectors": [
                    [x for v in row for x in (float(v.real), float(v.imag))]
                    for row in vectors.T
                ],
            })
        else:
            for row in vectors.T:
                out.emit(",".join(f"{_f(v.real)}{'+' if v.imag >= 0 else '-'}"
                                  f"{_f(abs(v.imag))}j" for v in row))
        return 0
    if args.mode == "spectrum":
        spectrum = hamiltonian_spectrum(rep)
        expected = expected_hamiltonian_spectrum(params)
        defect = float(abs(spectrum - expected).max())
        if args.json:
            out.emit_json({"q": params.q, "N": params.N, "s0": params.s0,
                           "sectors": params.sectors, "defect": defect,
                           "energies": [float(v) for v in spectrum]})
        elif args.csv:
            out.emit("energy")
            for v in spectrum:
                out.emit(_f(v))
        else:
            out.emit(f"levels: {len(spectrum)}  defect vs closed form: {_f(defect)}")
        return 1 if defect > 0 else 0
    # reconstruct
    rec = reconstruct_pxlambda(rep)
    tol = args.tol if args.tol is not None else 1e-10
    if args.json:
        out.emit_json({"q": params.q, "N": params.N, "s0": params.s0,
                       "sectors": params.sectors, "residuals": rec.residuals})
    else:
        for key, value in rec.residuals.items():
            out.emit(f"residual {key}: {_f(value)}")
    return 1 if max(rec.residuals.values()) > tol else 0


def _cmd_classical(args, out: _Output) -> int:
    from .classical import (ClassicalParams, InsufficientRangeError, classical_report,
                            estimate_maxima_spacing, integrate_trajectory)

    params = ClassicalParams(energy=args.E, h=args.h)
    tol = args.tol if args.tol is not None else 1e-9
    if args.mode == "traj":
        traj = integrate_trajectory(params, args.t_max, tol=tol)
        if args.csv:
            out.emit("t,x,p")
            for t, x, p in zip(traj.t, traj.x, traj.p):
                out.emit(f"{_f(t)},{_f(x)},{_f(p)}")
        else:
            out.emit_json({"E": params.energy, "h": params.h,
                           "t_max": args.t_max, "samples": len(traj.t),
                           "energy_drift": traj.energy_drift})
        return 0
    if args.mode == "verify":
        report = classical_report(params, args.t_max, tol=tol)
        if args.json:
            out.emit_json(report)
        else:
            for key in ("max_rel_dev", "energy_drift", "slope_defect",
                        "free_limit_dev"):
                out.emit(f"{key}: {_f(report[key])}")
        bad = (report["max_rel_dev"] > 1e-3 or report["energy_drift"] > 1e-8
               or report["slope_defect"] > 1e-12)
        return 1 if bad else 0
    # period
    try:
        report = estimate_maxima_spacing(params, args.t_start, args.t_end)
    except InsufficientRangeError as exc:
        return _fail(str(exc), 1)
    if args.json:
        out.emit_json({"E": params.energy, "h": params.h,
                       "t_start": args.t_start, "t_end": args.t_end,
                       "maxima": len(report.maxima),
                       "mean_spacing": report.mean_spacing,
                       "predicted_spacing": report.predicted_spacing,
                       "relative_error": report.relative_error})
    else:
        out.emit(f"maxima: {len(report.maxima)}")
        out.emit(f"mean spacing: {_f(report.mean_spacing)}")
        out.emit(f"predicted: {_f(report.predicted_spacing)}")
        out.emit(f"relative error: {_f(report.relative_error)}")
    return 1 if report.relative_error > 0.01 else 0


# ---------------------------------------------------------------------------
# argument parsing


def _tolerance(text: str) -> float:
    """A --tol value: a finite float > 0."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


# the modes of `phase` and `classical` that read --csv and --tol; the others
# refuse them, since argparse registers flags per command, not per mode
_MODE_FLAGS = {
    "phase": {"csv": ("xspec", "spectrum"), "tol": ("rep", "reconstruct")},
    "classical": {"csv": ("traj",), "tol": ("traj", "verify")},
}


def _add_common_output(parser: argparse.ArgumentParser, csv: bool = False,
                       tol: bool = False):
    """--json and --out everywhere; --csv and --tol where the handler reads them."""
    parser.add_argument("--json", action="store_true", help="emit JSON")
    if csv:
        parser.add_argument("--csv", action="store_true", help="emit CSV")
    parser.add_argument("--out", help="write output to a file")
    if tol:
        parser.add_argument("--tol", type=_tolerance, default=None,
                            help="override the default check tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeform",
        description="q-deformed algebra, representation, and phase-space tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qnum", help="evaluate a q-number [n]_r")
    p.add_argument("--n", required=True, help="index (integer or half-integer)")
    p.add_argument("--r", required=True, type=int, help="base exponent")
    p.add_argument("--q", type=float, help="numeric deformation parameter")
    p.add_argument("--symbolic", action="store_true",
                   help="print the exact Laurent form")
    _add_common_output(p)
    p.set_defaults(handler=_cmd_qnum)

    p = sub.add_parser("rep", help="build a spin representation and report residuals")
    p.add_argument("--j", required=True, help="spin as a decimal (0.5, 1, ...)")
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--check", action="store_true",
                   help="exit 1 when residuals exceed tolerance")
    _add_common_output(p, tol=True)
    p.set_defaults(handler=_cmd_rep)

    p = sub.add_parser("tensor", help="tensor two spins and decompose")
    p.add_argument("--j", required=True, help="first spin")
    p.add_argument("--j2", help="second spin (defaults to --j)")
    p.add_argument("--q", required=True, type=float)
    _add_common_output(p, tol=True)
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("plane", help="noncommutative-plane computations")
    p.add_argument("mode", choices=["normalize", "flatness", "derive"])
    p.add_argument("--preset", default="manin", choices=sorted(PRESETS))
    p.add_argument("--rule", help="custom rewrite rule, e.g. 'y*x -> (1/q)*x*y'")
    p.add_argument("--expr", help="expression in the presentation's generators")
    p.add_argument("--d", help="derivative generator name (derive mode)")
    p.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    _add_common_output(p)
    p.set_defaults(handler=_cmd_plane)

    p = sub.add_parser("phase", help="q-deformed phase-space representation")
    p.add_argument("mode",
                   choices=["rep", "xspec", "qft", "spectrum", "reconstruct"])
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--sectors", default="both", choices=["plus", "minus", "both"])
    _add_common_output(p, csv=True, tol=True)
    p.set_defaults(handler=_cmd_phase)

    p = sub.add_parser("classical", help="classical deformed dynamics")
    p.add_argument("mode", choices=["traj", "verify", "period"])
    p.add_argument("--E", required=True, type=float)
    p.add_argument("--h", required=True, type=float)
    p.add_argument("--t-max", type=float, default=5.0, dest="t_max")
    p.add_argument("--t-start", type=float, default=50.0, dest="t_start")
    p.add_argument("--t-end", type=float, default=200.0, dest="t_end")
    _add_common_output(p, csv=True, tol=True)
    p.set_defaults(handler=_cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, modes in _MODE_FLAGS.get(args.command, {}).items():
        if getattr(args, flag) and args.mode not in modes:
            return _fail(f"--{flag} applies only to {args.command} "
                         f"{' and '.join(modes)}, not {args.mode}", 2)
    out = _Output(getattr(args, "out", None))
    try:
        code = args.handler(args, out)
    except ValueError as exc:  # every usage error of the library subclasses it
        return _fail(str(exc), 2)
    except RuntimeError as exc:  # every computation failure of the library subclasses it
        return _fail(str(exc), 1)
    out.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
