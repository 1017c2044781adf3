"""Known answers computed without the library's own algorithms.

Homology here runs on Python int bitmasks over an order complex built
directly from a minimal-open-set table, so it shares no code with
`cislim.homology` (no numpy, no `gf2_*`, no `order_complex`).
"""

from __future__ import annotations


def chains(min_open: dict) -> list[frozenset]:
    """Every nonempty chain of the strict specialization order of the T0
    quotient: points with equal minimal open sets are one vertex, and
    x < y when U_x is strictly inside U_y."""
    reps: dict[frozenset, str] = {}
    for p in sorted(min_open):
        reps.setdefault(frozenset(min_open[p]), p)
    opens = {p: u for u, p in reps.items()}
    above = {p: [q for q in opens if opens[p] < opens[q]] for p in opens}
    out = []
    stack = [(p, frozenset([p])) for p in opens]
    while stack:
        top, chain = stack.pop()
        out.append(chain)
        stack.extend((q, chain | {q}) for q in above[top])
    return out


def _rank(columns: list[int]) -> int:
    """GF(2) rank by xor elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            hb = col.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = col
                break
            col ^= pivots[hb]
    return len(pivots)


def betti(min_open: dict, pmax: int) -> list[int]:
    """Mod-2 betti numbers b_0..b_pmax of a finite space's order complex."""
    by_dim: dict[int, list[frozenset]] = {}
    for s in chains(min_open):
        by_dim.setdefault(len(s) - 1, []).append(s)

    def boundary_rank(p: int) -> int:
        if p <= 0 or p not in by_dim:
            return 0
        index = {s: k for k, s in enumerate(by_dim[p - 1])}
        cols = []
        for s in by_dim[p]:
            mask = 0
            for v in s:
                mask |= 1 << index[s - {v}]
            cols.append(mask)
        return _rank(cols)

    return [
        len(by_dim.get(p, ())) - boundary_rank(p) - boundary_rank(p + 1)
        for p in range(pmax + 1)
    ]


def sphere_betti(n: int) -> list[int]:
    """Betti numbers of S^n up to degree max(n, 1)."""
    if n == 0:
        return [2, 0]
    return [1] + [0] * (n - 1) + [1]


def attaching_points(stage_sizes: list[int], glue_sizes: list[int]) -> int:
    """Points of an attaching space: each gluing point of stages 0..last-1 is
    identified with its image under an injective attachment, and injective
    one-step attachments never close a cycle, so each removes one point."""
    return sum(stage_sizes) - sum(glue_sizes[:-1])

