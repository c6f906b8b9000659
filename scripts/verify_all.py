#!/usr/bin/env python3
"""Run the whole desk-scale verification battery and print a summary table.

Covers: construction properties for ranks 4..12, bipartite extremal orders,
part-size checks, edge-deletion remark graphs, the main extremal theorem for
ranks 5..9, and the exact row-space code optima. Exits 1 on any unexpected
failure; the known rank-7 uniqueness finding is reported separately, and only
in its exact form (order 9, the single extra graph H@Tcd?N).
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rankforge.canonical import canonical_form
from rankforge.cli import positive_int
from rankforge.codes import rowspace_distance2_bound, rowspace_distance2_max
from rankforge.constructions import (
    c_bound,
    extremal_triangle_free,
    extremal_triangle_free_recursive,
)
from rankforge.enumeration import verify_theorem
from rankforge.graphs import bipartition, is_reduced, is_triangle_free
from rankforge.linalg import adjacency_matrix, rank_exact

# README "Findings": `main` at rank 7 finds a second extremal graph of order 9.
RANK7_ORDER = 9
RANK7_COUNTEREXAMPLES = ("H@Tcd?N",)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=positive_int, default=1)
    args = parser.parse_args()

    t0 = time.time()
    failures = []
    known_deviations = []

    print("== constructions (ranks 4..12) ==")
    for r in range(4, 13):
        g = extremal_triangle_free(r).graph
        rec = extremal_triangle_free_recursive(r)
        ok = (
            g.n == c_bound(r)
            and rank_exact(adjacency_matrix(g)) == r
            and is_triangle_free(g)
            and is_reduced(g)
            and (bipartition(g) is None) == (r >= 5)
            and canonical_form(g).cert == canonical_form(rec).cert
        )
        print(f"  rank {r:2d}: order {g.n:2d} = c({r})  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"construction rank {r}")

    print("== theorems ==")
    checks = (
        [("bi", r) for r in (4, 6, 8)]
        + [("bigen", r) for r in (6, 8)]
        + [("remark", r) for r in (7, 9, 11)]
        + [("main", r) for r in range(5, 10)]
    )
    for which, r in checks:
        res = verify_theorem(which, r, jobs=args.jobs)
        tag = "ok" if res.passed else "FAIL"
        print(f"  {which:6s} r={r}: {tag}  ({res.message})")
        if (which, r) == ("main", 7):
            if (
                not res.passed
                and res.report.max_order == RANK7_ORDER
                and res.counterexamples == RANK7_COUNTEREXAMPLES
            ):
                known_deviations.append(
                    f"main r=7: second extremal graph {res.counterexamples} "
                    "(known finding, see README)"
                )
            else:
                failures.append(
                    f"main r=7: {res.message}, counterexamples "
                    f"{res.counterexamples}; expected exactly {RANK7_COUNTEREXAMPLES}"
                )
        elif not res.passed:
            failures.append(f"{which} r={r}: {res.message}")

    print("== row-space code optima ==")
    for n in (5, 6):
        best, witness = rowspace_distance2_max(n)
        bound = rowspace_distance2_bound(witness).bound
        ok = best <= bound
        print(f"  n={n}: exact optimum {best} (bound {bound})  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"row-space optimum n={n}")

    print(f"\nelapsed: {time.time() - t0:.1f}s")
    for note in known_deviations:
        print(f"known deviation: {note}")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("all checks consistent with the computed ground truth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
