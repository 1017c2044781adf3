#!/usr/bin/env python3
"""Build the sphere tower, print its limit models and homology, and check
functorial invariance in every available degree.

Usage: python scripts/sphere_tower_demo.py [max_truncation]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cislim.finspace import find_homeomorphism
from cislim.gallery import sphere_chain, sphere_space
from cislim.homology import (
    betti_mod2,
    functorial_invariance_check,
    order_complex,
)
from cislim.limit import build_fundamental


def main():
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    for n in range(top + 1):
        c = sphere_chain(n)
        ls = build_fundamental(c)
        model = find_homeomorphism(ls.x, sphere_space(n)).status
        betti = betti_mod2(order_complex(ls.x), max(n, 1))
        print(f"truncation {n}: {len(ls.x.points)} points, model match: {model}, betti {betti}")
        for p in range(max(n, 1)):
            rep = functorial_invariance_check(c, p, ls)
            co = rep.contravariant()
            print(
                f"  degree {p}: limit {rep.limit_dim}, chain colimit {rep.module_dim},"
                f" iso {'yes' if rep.iso_exists else 'NO'};"
                f" dual limit {co.module_dim}, iso {'yes' if co.iso_exists else 'NO'}"
            )


if __name__ == "__main__":
    main()
