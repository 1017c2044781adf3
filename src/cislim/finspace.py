"""Finite topological spaces encoded by minimal open sets.

A finite space is exactly an Alexandrov space: arbitrary intersections of
open sets are open, so every point x has a smallest open neighbourhood U_x.
The family {U_x} determines the whole topology (a set is open iff it
contains U_x for each of its points), which keeps every operation here
polynomial instead of enumerating the exponential open-set family.

Dually, the closure of a point is cl{p} = {y : p in U_y}.  Each space
keeps the closure of every point in a table, built on first use by
inverting the minimal opens, so closures and closed-set tests cost the
size of the relation rather than a scan of the space.  A map's profile
computes each flag (continuous, closed, injective, embedding, surjective,
quotient) on first read and keeps it.  Final topologies are reachability:
the minimal open of a point is everything a graph search reaches from it.

Every finite space is compact; compactness is therefore never computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

PointSet = frozenset[str]


class TopologyError(ValueError):
    """Input does not describe a finite space, a map, or a legal argument."""


def _kept(obj, name: str, build):
    """obj's attribute `name`, set to build(obj) on first use: it lives as long as obj."""
    val = vars(obj).get(name)
    if val is None:
        val = build(obj)
        object.__setattr__(obj, name, val)
    return val


def _closure_table(space: "FinSpace") -> dict[str, tuple[str, ...]]:
    """cl{p} = {y : p in U_y} for every point p, by inverting min_open.

    The table lives as long as its space, so each closure is a tuple: a
    small frozenset takes several times the memory.
    """
    table: dict[str, list[str]] = {p: [] for p in space.points}
    for y, u in space.min_open.items():
        for p in u:
            table[p].append(y)
    return {p: tuple(c) for p, c in table.items()}


@dataclass(frozen=True)
class FinSpace:
    """A finite space: point ids plus the minimal open set of every point.

    Invariants (checked on construction):
      * x is in U_x for every point x;
      * y in U_x implies U_y is a subset of U_x (the U_x form a basis).
    """

    points: PointSet
    min_open: dict[str, PointSet]

    def __post_init__(self):
        pts = frozenset(self.points)
        mo = {p: frozenset(us) for p, us in self.min_open.items()}
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_open", mo)
        if set(mo) != set(pts):
            bad = sorted(set(mo) ^ set(pts))
            raise TopologyError(f"min_open keys and points disagree at {bad}")
        for p in sorted(pts):
            u = mo[p]
            stray = u - pts
            if stray:
                raise TopologyError(f"U_{p!r} contains unknown points {sorted(stray)}")
            if p not in u:
                raise TopologyError(f"point {p!r} is missing from its own minimal open set")
        for p in sorted(pts):
            for q in sorted(mo[p]):
                if not mo[q] <= mo[p]:
                    raise TopologyError(
                        f"minimal opens are not a basis: U_{q!r} is not inside U_{p!r}"
                    )

    def __hash__(self):
        return hash((self.points, frozenset(self.min_open.items())))

    def __repr__(self):
        return f"FinSpace({sorted(self.points)})"

    def check_points(self, a) -> PointSet:
        a = frozenset(a)
        stray = a - self.points
        if stray:
            raise TopologyError(f"unknown points {sorted(stray)}")
        return a

    def is_open(self, a) -> bool:
        a = self.check_points(a)
        return all(self.min_open[x] <= a for x in a)

    def _point_closures(self) -> dict[str, tuple[str, ...]]:
        """The closure of every point, kept on the space after the first call."""
        return _kept(self, "_closure_table", _closure_table)

    def closure(self, a) -> PointSet:
        """cl(a) = {y : U_y meets a}, the smallest closed superset of a."""
        a = self.check_points(a)
        cl = self._point_closures()
        return frozenset().union(*(cl[p] for p in a))

    def is_closed(self, a) -> bool:
        a = self.check_points(a)
        cl = self._point_closures()
        return all(a.issuperset(cl[p]) for p in a)


@dataclass(frozen=True)
class CtsMap:
    """A point function between finite spaces, stored as a total assignment.

    Nothing about the assignment is assumed; continuity, closedness and the
    rest are classified on demand by `classify_map`.
    """

    source: FinSpace
    target: FinSpace
    assignment: dict[str, str]

    def __post_init__(self):
        asg = dict(self.assignment)
        object.__setattr__(self, "assignment", asg)
        if set(asg) != set(self.source.points):
            bad = sorted(set(asg) ^ set(self.source.points))
            raise TopologyError(f"assignment is not total on the source; mismatch at {bad}")
        stray = sorted(set(asg.values()) - set(self.target.points))
        if stray:
            raise TopologyError(f"assignment leaves the target at {stray}")

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.assignment.items())))

    def __call__(self, p: str) -> str:
        return self.assignment[p]

    def image(self, a=None) -> PointSet:
        if a is None:
            a = self.source.points
        return frozenset(self.assignment[p] for p in self.source.check_points(a))

    def preimage(self, b) -> PointSet:
        b = self.target.check_points(b)
        return frozenset(p for p, q in self.assignment.items() if q in b)


class MapProfile:
    """The flags of a map, each computed on its first read and then kept.

    Equality, hashing and repr read all six flags.
    """

    _FLAGS = ("continuous", "closed", "injective", "embedding", "surjective", "quotient_map")

    def __init__(self, m: CtsMap):
        self._map = m

    @cached_property
    def continuous(self) -> bool:
        """m(U_p) lies inside U_m(p) for every point p."""
        src, tgt, f = self._map.source, self._map.target, self._map.assignment
        return all(
            {f[q] for q in src.min_open[p]} <= tgt.min_open[f[p]] for p in src.points
        )

    @cached_property
    def closed(self) -> bool:
        """Every point closure has a closed image.

        Every closed set is a finite union of point closures and images of
        unions are unions of images, so this test is exact without
        enumerating all closed sets.
        """
        src, tgt, f = self._map.source, self._map.target, self._map.assignment
        tgt_cl = tgt._point_closures()
        for c in src._point_closures().values():
            img = {f[x] for x in c}
            if not all(img.issuperset(tgt_cl[y]) for y in img):
                return False
        return True

    @cached_property
    def injective(self) -> bool:
        f = self._map.assignment
        return len(set(f.values())) == len(f)

    @cached_property
    def embedding(self) -> bool:
        """Injective and continuous, and each U_q maps onto U_f(q) within the image.

        Continuity puts f(U_q) inside U_f(q) ∩ f(X), and injectivity gives
        f(U_q) the size of U_q, so comparing sizes settles equality.
        """
        if not (self.injective and self.continuous):
            return False
        src, tgt, f = self._map.source, self._map.target, self._map.assignment
        img = frozenset(f.values())
        return all(len(tgt.min_open[f[q]] & img) == len(u) for q, u in src.min_open.items())

    @cached_property
    def surjective(self) -> bool:
        return set(self._map.assignment.values()) == set(self._map.target.points)

    @cached_property
    def quotient_map(self) -> bool:
        m = self._map
        return (
            self.surjective
            and self.continuous
            and final_space(m.target.points, [m]).min_open == m.target.min_open
        )

    def _flags(self) -> tuple[bool, ...]:
        return tuple(getattr(self, name) for name in self._FLAGS)

    def __eq__(self, other):
        if not isinstance(other, MapProfile):
            return NotImplemented
        return self._flags() == other._flags()

    def __hash__(self):
        return hash(self._flags())

    def __repr__(self):
        flags = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FLAGS)
        return f"MapProfile({flags})"


def identity_map(space: FinSpace) -> CtsMap:
    return CtsMap(space, space, {p: p for p in space.points})


def compose(late: CtsMap, early: CtsMap) -> CtsMap:
    """late after early; stage spaces must match exactly."""
    if early.target != late.source:
        raise TopologyError("composition mismatch: target of early is not source of late")
    return CtsMap(early.source, late.target,
                  {p: late.assignment[q] for p, q in early.assignment.items()})


def restrict_map(m: CtsMap, a) -> CtsMap:
    """Restriction of m to the subspace on a."""
    sub, _ = subspace(m.source, a)
    return CtsMap(sub, m.target, {p: m.assignment[p] for p in sub.points})


def classify_map(m: CtsMap) -> MapProfile:
    """Continuity, closedness, injectivity, embedding, surjectivity, quotient.

    Each flag is computed when it is first read, so a caller pays only for
    the flags it asks for.
    """
    return MapProfile(m)


def subspace(space: FinSpace, a) -> tuple[FinSpace, CtsMap]:
    """The subspace on a, with its inclusion. U'_x = U_x intersect a."""
    a = space.check_points(a)
    sub = FinSpace(a, {p: space.min_open[p] & a for p in a})
    return sub, CtsMap(sub, space, {p: p for p in a})


def coproduct(spaces: list[FinSpace]) -> tuple[FinSpace, list[CtsMap]]:
    """Topological sum; points are relabelled '<index>:<id>' componentwise."""
    if not spaces:
        raise TopologyError("coproduct of an empty family")
    points: set[str] = set()
    min_open: dict[str, PointSet] = {}
    injections = []
    for i, sp in enumerate(spaces):
        tag = {p: f"{i}:{p}" for p in sp.points}
        points.update(tag.values())
        for p in sp.points:
            min_open[tag[p]] = frozenset(tag[q] for q in sp.min_open[p])
    total = FinSpace(frozenset(points), min_open)
    for i, sp in enumerate(spaces):
        injections.append(CtsMap(sp, total, {p: f"{i}:{p}" for p in sp.points}))
    return total, injections


def quotient(space: FinSpace, partition) -> tuple[FinSpace, CtsMap]:
    """Quotient by a partition, carrying the final topology of the projection.

    A set of classes is open iff its union is open upstairs: the final
    topology of the projection.
    """
    blocks = [space.check_points(b) for b in partition]
    seen: set[str] = set()
    for b in blocks:
        if not b:
            raise TopologyError("partition contains an empty class")
        if b & seen:
            raise TopologyError(f"partition classes overlap at {sorted(b & seen)}")
        seen |= b
    if seen != set(space.points):
        raise TopologyError(f"partition misses points {sorted(set(space.points) - seen)}")

    label = {}
    members: dict[str, PointSet] = {}
    for b in blocks:
        lab = min(b)
        members[lab] = b
        for p in b:
            label[p] = lab

    q_space = final_space(frozenset(members), [SimpleNamespace(source=space, assignment=label)])
    projection = CtsMap(space, q_space, dict(label))
    return q_space, projection


def product(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product space; U_(x,y) = U_x x U_y."""
    pair = lambda x, y: f"({x},{y})"
    seen: dict[str, tuple[str, str]] = {}
    for x in sorted(a.points):
        for y in sorted(b.points):
            first = seen.setdefault(pair(x, y), (x, y))
            if first != (x, y):
                raise TopologyError(
                    f"product labels collide: {first} and {(x, y)} both encode as {pair(x, y)}"
                )
    points = frozenset(seen)
    min_open = {
        pair(x, y): frozenset(pair(u, v) for u in a.min_open[x] for v in b.min_open[y])
        for x in a.points
        for y in b.points
    }
    return FinSpace(points, min_open)


def final_space(points, maps) -> FinSpace:
    """The finest topology on `points` making every given map continuous.

    Each map only needs `.source` and `.assignment`; its declared target is
    ignored.  U_x is the least set S containing x such that whenever some
    map sends p into S, the whole image of U_p lands in S: everything a
    graph search reaches from x along the edges f(p) -> f(U_p).
    """
    pts = frozenset(points)
    for m in maps:
        stray = sorted(set(m.assignment.values()) - pts)
        if stray:
            raise TopologyError(f"map leaves the final-space point set at {stray}")
    edges: dict[str, set[str]] = {x: set() for x in pts}
    for m in maps:
        f = m.assignment
        for p, q in f.items():
            edges[q].update(f[r] for r in m.source.min_open[p])
    min_open = {}
    for x in pts:
        u = {x}
        todo = [x]
        while todo:
            for y in edges[todo.pop()]:
                if y not in u:
                    u.add(y)
                    todo.append(y)
        min_open[x] = frozenset(u)
    return FinSpace(pts, min_open)


@dataclass(frozen=True)
class HomeoResult:
    """Outcome of a homeomorphism search: found / none / undecided-at-cap."""

    status: str  # "found" | "none" | "undecided"
    map: CtsMap | None = None

    def __bool__(self):
        return self.status == "found"


DEFAULT_HOMEO_CAP = 12


def _signatures(space: FinSpace) -> dict[str, tuple[int, int]]:
    """(|U_x|, |cl{x}|) for every point x, the closures read from the table."""
    cl = space._point_closures()
    return {p: (len(u), len(cl[p])) for p, u in space.min_open.items()}


def find_homeomorphism(a: FinSpace, b: FinSpace, cap: int = DEFAULT_HOMEO_CAP) -> HomeoResult:
    """Search for a homeomorphism a -> b by backtracking.

    Complete (never misses) when |points| <= cap.  Pairs whose cheap
    invariants already differ are rejected as "none" at any size; otherwise
    sizes above the cap yield the explicit third state "undecided".

    A bijection matching the minimal-open relation both ways is exactly a
    homeomorphism of finite spaces, so the search is over relation-preserving
    assignments, pruned by (|U_x|, |cl{x}|) signatures.
    """
    if len(a.points) != len(b.points):
        return HomeoResult("none")
    sig_a, sig_b = _signatures(a), _signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return HomeoResult("none")
    if len(a.points) > cap:
        return HomeoResult("undecided")

    order = sorted(a.points, key=lambda p: (sig_a[p], p))
    with_sig: dict[tuple[int, int], list[str]] = {}
    for q in sorted(b.points):
        with_sig.setdefault(sig_b[q], []).append(q)
    candidates = {p: with_sig[sig_a[p]] for p in order}
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def consistent(p: str, q: str) -> bool:
        for p2, q2 in assigned.items():
            if (p in a.min_open[p2]) != (q in b.min_open[q2]):
                return False
            if (p2 in a.min_open[p]) != (q2 in b.min_open[q]):
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        p = order[k]
        for q in candidates[p]:
            if q in used or not consistent(p, q):
                continue
            assigned[p] = q
            used.add(q)
            if extend(k + 1):
                return True
            del assigned[p]
            used.remove(q)
        return False

    if extend(0):
        return HomeoResult("found", CtsMap(a, b, dict(assigned)))
    return HomeoResult("none")


def components(space: FinSpace) -> frozenset[PointSet]:
    """Connected components: x, y linked whenever one lies in the other's U."""
    remaining = set(space.points)
    out = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in space.points:
                if y in comp:
                    continue
                if y in space.min_open[x] or x in space.min_open[y]:
                    comp.add(y)
                    frontier.append(y)
        remaining -= comp
        out.append(frozenset(comp))
    return frozenset(out)


@dataclass(frozen=True)
class SeparationProfile:
    t0: bool
    t1: bool
    discrete: bool


def separation_profile(space: FinSpace) -> SeparationProfile:
    """T0 / T1 / discrete flags; for finite spaces T1 coincides with discrete."""
    t0 = len({space.min_open[p] for p in space.points}) == len(space.points)
    t1 = all(space.is_closed({p}) for p in space.points)
    discrete = all(space.min_open[p] == frozenset({p}) for p in space.points)
    return SeparationProfile(t0, t1, discrete)
