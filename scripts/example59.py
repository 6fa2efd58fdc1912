#!/usr/bin/env python3
"""Invariant tour of the minimal-partition family.

For each pair m < n in the requested range, prints the reduced slot-monoid
presentation of the single-vertex graph with weights (m, 1, ..., 1), its
universal group and least (p, q) pair, the order-ideal count, and the same
invariants for the quotient by the unique proper ideal.  The closing table
lines up the computed values against n - m and gcd(m - 2, n - 2).
"""

import argparse
import json
import math
import sys

from sepal.mnlab import example_59_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=3)
    ap.add_argument("--max", type=int, default=6)
    ap.add_argument("--json", action="store_true",
                    help="dump the raw reports instead of the table")
    args = ap.parse_args()
    if args.min < 3:
        print("the family needs m >= 3", file=sys.stderr)
        return 2

    reports = []
    for m in range(args.min, args.max + 1):
        for n in range(m, args.max + 1):
            reports.append(example_59_report(m, n))

    if args.json:
        json.dump(reports, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    def fmt_type(pair) -> str:
        return "-" if pair[0] is None else str(tuple(pair))

    for rep in reports:
        m, n = rep["m"], rep["n"]
        print(f"(m, n) = ({m}, {n})   partition {tuple(rep['partition'])}")
        mono = rep["monoid"]
        print("  reduced:", "; ".join(mono["reduced_relations"]))
        print(f"  group {mono['grothendieck']}, "
              f"type {fmt_type(mono['leavitt_type'])}, "
              f"{rep['ideals']['count']} order ideals")
        if rep["quotient"]:
            q = rep["quotient"]
            print(f"  quotient by {q['killed']}: group {q['grothendieck']}, "
                  f"type {fmt_type(q['leavitt_type'])}")
        print(f"  rose with {rep['rose']['loops']} loops: "
              f"{rep['rose']['relations_checked']} relations hold = "
              f"{rep['rose']['relations_hold']}")
        print()

    print(f"{'m':>2} {'n':>2} {'n-m':>4} {'group':>6} {'type':>8} "
          f"{'gcd':>4} {'q group':>8} {'q type':>8}")
    for rep in reports:
        m, n = rep["m"], rep["n"]
        q = rep["quotient"] or {}
        q_type = fmt_type(q["leavitt_type"]) if q else "-"
        print(f"{m:>2} {n:>2} {n - m:>4} {rep['monoid']['grothendieck']:>6} "
              f"{fmt_type(rep['monoid']['leavitt_type']):>8} "
              f"{math.gcd(m - 2, n - 2):>4} "
              f"{q.get('grothendieck', '-'):>8} {q_type:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
