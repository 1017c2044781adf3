"""Independent homology oracles.

Rank computations here run on Python int bitmasks, not numpy; reference
complexes are built directly from their combinatorial descriptions rather
than through the library's order-complex pipeline.
"""

from itertools import combinations


def bitmask_rank(rows):
    """GF(2) rank of a matrix given as int bitmasks, by xor elimination."""
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank


def complex_betti(simplices, pmax):
    """Betti numbers of an abstract complex via bitmask boundary ranks."""
    simplices = {frozenset(s) for s in simplices}
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for d in by_dim:
        by_dim[d].sort(key=lambda s: tuple(sorted(s)))

    def boundary_rank(p):
        if p <= 0 or p not in by_dim or (p - 1) not in by_dim:
            return 0
        index = {s: k for k, s in enumerate(by_dim[p - 1])}
        rows = []
        for s in by_dim[p]:
            mask = 0
            for v in s:
                mask |= 1 << index[s - {v}]
            rows.append(mask)
        return bitmask_rank(rows)

    out = []
    for p in range(pmax + 1):
        n_p = len(by_dim.get(p, []))
        out.append(n_p - boundary_rank(p) - boundary_rank(p + 1))
    return out


def cross_polytope_boundary(n):
    """The boundary complex of the (n+1)-dimensional cross polytope: all
    nonempty sets of signed axes with no axis used twice."""
    axes = range(1, n + 2)
    vertices = [f"+{k}" for k in axes] + [f"-{k}" for k in axes]
    simplices = set()
    for r in range(1, n + 2):
        for combo in combinations(axes, r):
            for signs in range(1 << r):
                simplices.add(
                    frozenset(
                        ("+" if signs >> i & 1 else "-") + str(k) for i, k in enumerate(combo)
                    )
                )
    return vertices, simplices


def staircase_torus_complex():
    """Chains of the product of two 4-cycle posets: the staircase
    triangulation of the torus, built without the library."""
    cycle_lt = {
        ("a", "p"), ("a", "q"), ("b", "p"), ("b", "q"),
    }

    def leq(u, v):
        return u == v or (u, v) in cycle_lt

    nodes = [(x, y) for x in "abpq" for y in "abpq"]

    def pair_lt(s, t):
        return s != t and leq(s[0], t[0]) and leq(s[1], t[1])

    simplices = set()

    def grow(chain):
        simplices.add(frozenset(chain))
        for nxt in nodes:
            if pair_lt(chain[-1], nxt):
                grow(chain + (nxt,))

    for node in nodes:
        grow((node,))
    return {frozenset(f"{x}{y}" for x, y in s) for s in simplices}


def label_order_complex(space):
    """(vertices, simplices) of the order complex of a space's T0 quotient,
    as label sets: each chain a label tuple grown one point at a time, each
    T0 class named by its least point."""
    groups = {}
    for p in sorted(space.points):
        groups.setdefault(space.min_open[p], []).append(p)
    reps = sorted(min(g) for g in groups.values())
    above = {c: [d for d in reps if d != c and d in space.min_open[c]] for c in reps}  # c < d
    chains = [(c,) for c in reps]
    for chain in chains:  # grows while it is walked, each chain extended once
        chains.extend(chain + (d,) for d in above[chain[-1]])
    return frozenset(reps), frozenset(map(frozenset, chains))


def label_boundary(simplices, p):
    """The mod-2 boundary from p-simplices to (p-1)-simplices of label sets:
    each dimension in sorted-label order, one int column per p-simplex with
    bit i set for the i-th (p-1)-simplex among its faces."""

    def cells(d):
        return sorted((s for s in simplices if len(s) == d + 1), key=lambda s: tuple(sorted(s)))

    if p <= 0:
        return [0] * len(cells(p))
    index = {s: i for i, s in enumerate(cells(p - 1))}
    return [sum(1 << index[s - {v}] for v in s) for s in cells(p)]


def label_chain_map(m, p):
    """chain_map_matrix(m, p) on label order complexes: each p-simplex of the
    source, in sorted-label order, goes to the set of its vertices' image
    classes, each named by its least point, and vanishes when that set has
    fewer than p + 1 members."""
    tgt = m.target

    def cells(space):
        dim_p = [s for s in label_order_complex(space)[1] if len(s) == p + 1]
        return sorted(dim_p, key=lambda s: tuple(sorted(s)))

    index = {s: i for i, s in enumerate(cells(tgt))}
    cls = {q: min(x for x in tgt.points if tgt.min_open[x] == tgt.min_open[q]) for q in tgt.points}
    out = []
    for s in cells(m.source):
        image = frozenset(cls[m.assignment[v]] for v in s)
        out.append(1 << index[image] if len(image) == p + 1 else 0)
    return out


def euler_characteristic(k):
    """The alternating count of a complex's simplices by dimension."""
    return sum((-1) ** (s.bit_count() - 1) for s in k.masks)
