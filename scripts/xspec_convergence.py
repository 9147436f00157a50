#!/usr/bin/env python3
"""Sweep the truncation size and track position-spectrum ladder ratios.

The doubled position operator on a finite lattice window has a positive
spectrum that forms a geometric ladder.  This script measures how close the
consecutive ratios sit to q and to q^2 as the window grows, printing one row
per truncation size.  On the block-diagonal window (`x_eigensystem`) the q^2
column converges to zero while the q column saturates at q^2 - q: the
decoupled sectors give a q^2-spaced ladder, and refining the truncation
sharpens that ladder rather than merging the two sectors into a single
q-spaced grid.  The last column is the deviation from q of the
sector-coupled extension (`x_extension_eigensystem`), which imposes a
boundary condition that joins the sectors and converges to the q grid.
The default sizes run to N = 600 (q^N ~ e^243 at q = 1.5); the largest N
is the one `PhaseParams` admits before s0^2 q^(2N) overflows a double.
"""

import argparse

from qdeform.qphase import (
    PhaseParams,
    build_phase_rep,
    x_eigensystem,
    x_extension_eigensystem,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=float, default=1.5)
    ap.add_argument("--s0", type=float, default=1.0)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[15, 20, 30, 40, 60, 80, 100, 200, 400, 460, 600])
    args = ap.parse_args()

    print(f"q = {args.q}, s0 = {args.s0}")
    print(f"{'N':>4}  {'kept':>4}  {'dev vs q':>12}  {'dev vs q^2':>12}  "
          f"{'unitarity':>10}  {'diag defect':>11}  {'coupled vs q':>12}")
    for n in args.sizes:
        rep = build_phase_rep(PhaseParams(q=args.q, N=n, s0=args.s0))
        report, _ = x_eigensystem(rep)
        coupled, _ = x_extension_eigensystem(rep)
        print(f"{n:>4}  {len(report.kept):>4}  {report.ratio_dev_max:>12.6f}  "
              f"{report.ratio_dev_max_squared:>12.3e}  "
              f"{report.unitarity_defect:>10.2e}  "
              f"{report.diagonalization_defect:>11.2e}  "
              f"{coupled.ratio_dev_max:>12.3e}")
    q = args.q
    print(f"\nsaturation level q^2 - q = {q * q - q:.6f}")


if __name__ == "__main__":
    main()
