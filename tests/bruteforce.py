"""Independent brute-force oracles for small spaces.

Everything here works from first definitions by enumerating all subsets,
deliberately avoiding the minimal-open shortcuts used by the library.
Only usable for spaces with a handful of points.
"""

from itertools import chain, combinations, permutations

from cislim.finspace import CtsMap, FinSpace, compose, coproduct, final_space, quotient
from cislim.limit import (
    AxiomReport,
    CheckResult,
    CoverProfile,
    LimitSpace,
    _cover_check,
    _embedding_check,
    _require_aligned,
)


def sorted_walk_fault(points, min_open) -> str | None:
    """The message `FinSpace` raises for a minimal-open table, or None when
    the table is valid, found as the checks once ran: the keys first, then
    stray members and the self-membership of each point in sorted order,
    then each basis pair in sorted order."""
    pts = frozenset(points)
    mo = {p: frozenset(us) for p, us in min_open.items()}
    if set(mo) != set(pts):
        return f"min_open keys and points disagree at {sorted(set(mo) ^ set(pts))}"
    for p in sorted(pts):
        u = mo[p]
        stray = u - pts
        if stray:
            return f"U_{p!r} contains unknown points {sorted(stray)}"
        if p not in u:
            return f"point {p!r} is missing from its own minimal open set"
    for p in sorted(pts):
        for q in sorted(mo[p]):
            if not mo[q] <= mo[p]:
                return f"minimal opens are not a basis: U_{q!r} is not inside U_{p!r}"
    return None


def all_subsets(points):
    pts = sorted(points)
    return [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]


def open_sets(space: FinSpace):
    """All open sets: unions of minimal opens, i.e. sets containing U_x per point."""
    return [s for s in all_subsets(space.points) if all(space.min_open[x] <= s for x in s)]


def closed_sets(space: FinSpace):
    """Complements of open sets; downward-closed families under specialization."""
    return [space.points - o for o in open_sets(space)]


def brute_closure(space: FinSpace, a):
    a = frozenset(a)
    return min((c for c in closed_sets(space) if a <= c), key=len)


def brute_continuous(m: CtsMap):
    return all(m.preimage(o) in set(open_sets(m.source)) for o in open_sets(m.target))


def brute_closed_map(m: CtsMap):
    closed_tgt = set(closed_sets(m.target))
    return all(m.image(c) in closed_tgt for c in closed_sets(m.source))


def brute_embedding(m: CtsMap):
    if len(set(m.assignment.values())) != len(m.assignment):
        return False
    if not brute_continuous(m):
        return False
    img = m.image()
    image_opens = {o & img for o in open_sets(m.target)}
    pushed_opens = {m.image(o) for o in open_sets(m.source)}
    return pushed_opens == image_opens


def two_pass_embedding(m: CtsMap) -> bool:
    """The embedding flag as two reads, kept as the oracle of the one loop in
    `MapProfile.embedding`: injectivity and continuity first, continuity in
    its own pass, then each U_q against U_f(q) within the image, by size."""
    f, tgt = m.assignment, m.target.min_open
    if len(set(f.values())) != len(f):
        return False
    if not all(tgt[f[p]] >= {f[x] for x in u} for p, u in m.source.min_open.items()):
        return False
    img = frozenset(f.values())
    return all(len(tgt[f[q]] & img) == len(u) for q, u in m.source.min_open.items())


def brute_quotient_min_open(space: FinSpace, label: dict):
    """Minimal opens of the quotient topology, from the full open-set family."""
    classes = sorted(set(label.values()))
    class_sets = [frozenset(c) for r in range(len(classes) + 1) for c in combinations(classes, r)]
    opens_up = set(open_sets(space))
    q_opens = [
        cs for cs in class_sets
        if frozenset(p for p in space.points if label[p] in cs) in opens_up
    ]
    out = {}
    for c in classes:
        out[c] = min((cs for cs in q_opens if c in cs), key=len)
    return out


def brute_final_min_open(points, maps):
    """Minimal opens of the finest topology making every map continuous."""
    pts = frozenset(points)
    opens = []
    for s in all_subsets(pts):
        ok = True
        for m in maps:
            pre = frozenset(p for p, q in m.assignment.items() if q in s)
            if not m.source.is_open(pre):
                ok = False
                break
        if ok:
            opens.append(s)
    out = {}
    for x in pts:
        out[x] = min((s for s in opens if x in s), key=len)
    return out


def brute_homeomorphic(a: FinSpace, b: FinSpace) -> bool:
    """Whether some bijection carries the minimal-open relation both ways,
    trying every permutation of b's points."""
    pa, pb = sorted(a.points), sorted(b.points)
    if len(pa) != len(pb):
        return False
    for perm in permutations(pb):
        f = dict(zip(pa, perm))
        if all((y in a.min_open[x]) == (f[y] in b.min_open[f[x]]) for x in pa for y in pa):
            return True
    return False


class UnionFind:
    """Disjoint sets with path compression: the general-purpose way to close
    off identifications, kept as the oracle for `limit.attaching_space`."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return {frozenset(v) for v in out.values()}


def brute_components(space: FinSpace) -> frozenset[frozenset[str]]:
    """Connected components as the classes of a union-find over every pair
    (x, y) with y in U_x, kept as the oracle for `finspace.components`."""
    uf = UnionFind(space.points)
    for x, u in space.min_open.items():
        for y in u:
            uf.union(x, y)
    return frozenset(uf.classes())


def coproduct_attaching_space(spaces, attachments) -> tuple[LimitSpace, CtsMap]:
    """`limit.attaching_space` the long way, kept as its oracle: the quotient
    of the stage coproduct that identifies each point with its image, the
    projection rho onto it, and rho after each injection as structure maps."""
    total, injections = coproduct(list(spaces))
    end = {p: p for p in total.points}
    for n in range(len(attachments) - 1, -1, -1):
        here, there = injections[n], injections[n + 1]
        for y, z in attachments[n].items():
            end[here(y)] = end[there(z)]
    classes: dict[str, set[str]] = {}
    for p, e in end.items():
        classes.setdefault(e, set()).add(p)
    space, rho = quotient(total, classes.values())
    return LimitSpace(space, tuple(compose(rho, inj) for inj in injections)), rho


def projection(ls: LimitSpace) -> CtsMap:
    """rho: the coproduct of the stage spaces onto the limit, i:p -> phi_i(p)."""
    total, _ = coproduct([phi.source for phi in ls.phis])
    return CtsMap(total, ls.x, {
        f"{i}:{p}": q for i, phi in enumerate(ls.phis) for p, q in phi.assignment.items()
    })


def final_space_weak_topology(ls: LimitSpace) -> bool:
    """`limit.has_weak_topology` by graph search, kept as its oracle: the
    final topology of the structure maps from `final_space`, against the
    candidate's."""
    return final_space(ls.x.points, ls.phis).min_open == ls.x.min_open


def transits(c, i: int, top: int):
    """Yield (k, f_{i,k}) for k = i..top, below the last stage, each
    composite a plain dict on its domain: every step keeps the entries whose
    image lies in Y_k, then applies f_k."""
    asg = {x: x for x in c.stages[i].space.points}
    for k in range(i, top + 1):
        st = c.stages[k]
        asg = {y: st.f.assignment[z] for y, z in asg.items() if z in st.y}
        yield k, asg


def full_stage_pairs(c):
    """(i, j, linked, transit) for every stage pair i < j, each transit
    stepped on to the last stage even once it is empty, where
    `limit._pair_classes` steps each class of pairs once and stops at an
    empty transit: kept as the oracle of that walk."""
    for i in range(c.stage_count - 1):
        for k, transit in transits(c, i, c.stage_count - 2):
            yield i, k + 1, k == i or bool(transit), transit


def pairwise_limit_axioms(c, ls: LimitSpace) -> AxiomReport:
    """`limit.verify_limit_axioms` with no per-point verdict, kept as its
    oracle: every stage pair decided on its own transit, in pair order."""
    _require_aligned(c, ls)
    checks = [_cover_check(ls), _embedding_check(ls)]

    overlap_bad = []
    disjoint_bad = []
    images = [phi.image() for phi in ls.phis]
    fibres = []  # each stage's points grouped by image, each group sorted
    for phi in ls.phis:
        fibre = {}
        for x in sorted(phi.source.points):
            fibre.setdefault(phi(x), []).append(x)
        fibres.append(fibre)
    for i, j, linked, transit in full_stage_pairs(c):
        phi_i, phi_j = ls.phis[i], ls.phis[j]
        meet = images[i] & images[j]
        if not linked:
            if meet:
                disjoint_bad.append(f"stages {i},{j} cannot interact but share {sorted(meet)}")
            continue
        glued = frozenset(phi_j(z) for z in transit.values())
        if meet != glued:
            overlap_bad.append(
                f"stages {i},{j}: images meet in {sorted(meet)} "
                f"but the transit lands on {sorted(glued)}"
            )
        for xi in sorted(phi_i.source.points):
            for xj in fibres[j].get(phi_i(xi), ()):
                if xi not in transit:
                    overlap_bad.append(
                        f"stages {i},{j}: {xi} and {xj} collide at {phi_i(xi)} "
                        f"but {xi} is outside the transit domain"
                    )
                elif transit[xi] != xj:
                    overlap_bad.append(
                        f"stages {i},{j}: {xi} and {xj} collide at {phi_i(xi)} "
                        f"but the transit sends {xi} to {transit[xi]}"
                    )
    checks.append(CheckResult("overlap", not overlap_bad, tuple(overlap_bad)))
    checks.append(CheckResult("disjointness", not disjoint_bad, tuple(disjoint_bad)))
    return AxiomReport(tuple(checks))


def pairwise_gluing_laws(c, ls: LimitSpace) -> AxiomReport:
    """`limit.verify_gluing_laws` as first written, kept as its oracle: every
    transit walked in full, agreement checked in sorted order, and the
    off-locus sets built for every linked pair."""
    _require_aligned(c, ls)
    checks = [_cover_check(ls), _embedding_check(ls)]

    agree_bad = []
    offlocus_bad = []
    disjoint_bad = []
    images = [phi.image() for phi in ls.phis]
    asg = [phi.assignment for phi in ls.phis]
    for i, j, linked, transit in full_stage_pairs(c):
        phi_i, phi_j = asg[i], asg[j]
        if not linked:
            meet = images[i] & images[j]
            if meet:
                disjoint_bad.append(f"stages {i},{j} cannot interact but share {sorted(meet)}")
            continue
        for y in sorted(transit):
            if phi_j[transit[y]] != phi_i[y]:
                agree_bad.append(
                    f"stages {i},{j}: gluing sends {y} to {phi_j[transit[y]]} "
                    f"but stage {i} places it at {phi_i[y]}"
                )
        landed = set(transit.values())
        off_i = {p for x, p in phi_i.items() if x not in transit}
        off_j = {p for z, p in phi_j.items() if z not in landed}
        meet = off_i & off_j
        if meet:
            offlocus_bad.append(
                f"stages {i},{j}: points {sorted(meet)} collide away from the gluing locus"
            )
    checks.append(CheckResult("gluing agreement", not agree_bad, tuple(agree_bad)))
    checks.append(CheckResult("off-locus disjointness", not offlocus_bad, tuple(offlocus_bad)))
    checks.append(CheckResult("disjointness", not disjoint_bad, tuple(disjoint_bad)))
    return AxiomReport(tuple(checks))


def scan_open_images(ls: LimitSpace) -> tuple[int, ...]:
    """The stages of `limit.images_closed`'s open images, by scanning each
    stage's image for a point outside it whose minimal open meets it."""
    x = ls.x
    return tuple(
        k for k, phi in enumerate(ls.phis)
        if any(x.min_open[y] & phi.image() for y in x.points - phi.image())
    )


def scan_cover_profile(ls: LimitSpace) -> CoverProfile:
    """`limit.cover_profile` by scanning every point against every image: the
    multiplicities count the images a point lies in and the images its
    minimal open meets, and the cover is closed when no image is open."""
    images = [phi.image() for phi in ls.phis]
    point_mult = {
        x: sum(1 for img in images if x in img) for x in ls.x.points
    }
    nbhd_mult = {
        x: sum(1 for img in images if ls.x.min_open[x] & img) for x in ls.x.points
    }
    return CoverProfile(
        pointwise_finite=True,
        locally_finite=True,
        closed_cover=not scan_open_images(ls),
        max_point_multiplicity=max(point_mult.values(), default=0),
        max_neighbourhood_multiplicity=max(nbhd_mult.values(), default=0),
    )


def powerset_nonempty(iterable):
    s = sorted(iterable)
    return [frozenset(c) for c in chain.from_iterable(combinations(s, r) for r in range(1, len(s) + 1))]
