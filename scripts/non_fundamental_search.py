#!/usr/bin/env python3
"""Exhaustively search small gallery systems for limit spaces that satisfy
the limit axioms but fail to carry the weak topology.

The outcome is an exploration record, not a foregone conclusion: for each
find it double-checks the axioms, the failure of the weak topology, and
that some structure image is non-closed (forced by the closed-cover
criterion, which this search exercises from the negative side).

Usage: python scripts/non_fundamental_search.py [cap]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cislim.gallery import (
    identity_system,
    interval_chain,
    non_semicomponible,
    point_space,
    search_non_fundamental,
    sierpinski_space,
)
from cislim.limit import build_fundamental, has_weak_topology, images_closed, verify_limit_axioms


def main():
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cases = [
        ("identity(point, 2)", identity_system(point_space(), 2)),
        ("identity(sierpinski, 2)", identity_system(sierpinski_space(), 2)),
        ("non_semicomponible()", non_semicomponible()),
        ("interval_chain(2)", interval_chain(2)),
    ]
    for name, c in cases:
        res = search_non_fundamental(c, cap=cap)
        if res.status == "undecided":
            print(f"{name}: undecided at cap {res.cap}")
            continue
        print(f"{name}: examined {res.examined} topologies, found {len(res.found)}")
        for cand in res.found:
            assert verify_limit_axioms(c, cand).passed
            assert not has_weak_topology(c, cand)
            assert not images_closed(cand).value
            base = build_fundamental(c)
            extra = {
                p: sorted(cand.x.min_open[p] - base.x.min_open[p])
                for p in sorted(cand.x.points)
                if cand.x.min_open[p] != base.x.min_open[p]
            }
            print(f"  coarsened minimal opens: {extra}")
    print("every find satisfies the axioms, lacks the weak topology, and has a non-closed image")


if __name__ == "__main__":
    main()
