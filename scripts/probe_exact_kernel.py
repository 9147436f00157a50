#!/usr/bin/env python3
"""Time the exact layers directly: the QExact kernel, the flatness scan and
rewriting, one JSON object on standard output.

Run it against a source tree with

    PYTHONPATH=src python3 scripts/probe_exact_kernel.py

Each figure is the fastest of 3 timings (the d=6 scan: one), in seconds
unless its name ends in _us; an _us figure is a per-call mean over one
timing of 2000 or 20000 calls.  The operands are fixed, so two trees get identical inputs;
scripts/bench_pairs.py --probe runs this file on a parent and a change.
"""

from __future__ import annotations

import json
import time
import timeit
from fractions import Fraction

import qdeform as Q
from qdeform.scalars import GaussRat, QExact

REPEAT = 3


def _fastest(fn, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _per_call_us(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=REPEAT)) / number * 1e6


def main() -> None:
    # four terms each, with proper fractions in both components
    a = QExact({k: GaussRat(Fraction(k + 2, 3), Fraction(-k, 5)) for k in range(4)})
    b = QExact({k - 2: GaussRat(Fraction(2 * k + 1, 7), Fraction(k + 1, 2))
                for k in range(4)})
    three, minus_five = QExact.rational(3), QExact.rational(-5)
    suq2 = Q.get_preset("suq2-module")
    qheis = Q.get_preset("qheisenberg")
    cex = Q.get_preset("counterexample")

    def diverge():
        try:
            Q.normal_form(cex, (1, 1, 0), budget=20_000)
        except Q.DivergedError:
            return
        raise RuntimeError("y*y*x reached a normal form")

    out = {
        "qexact_mul_4x4_us": _per_call_us(lambda: a * b, 2000),
        "qexact_mul_1x1_us": _per_call_us(lambda: three * minus_five, 20000),
        "qexact_add_4x4_us": _per_call_us(lambda: a + b, 2000),
        "flatness_suq2_module_d5_s": _fastest(lambda: Q.flatness_scan(suq2, 5)),
        "flatness_suq2_module_d6_s": _fastest(lambda: Q.flatness_scan(suq2, 6), 1),
        "normal_form_p6x6_s": _fastest(
            lambda: Q.normal_form(qheis, (1,) * 6 + (0,) * 6)),
        "diverge_yyx_budget20k_s": _fastest(diverge),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
