"""Finite topological spaces encoded by minimal open sets.

A finite space is exactly an Alexandrov space: arbitrary intersections of
open sets are open, so every point x has a smallest open neighbourhood U_x.
The family {U_x} determines the whole topology (a set is open iff it
contains U_x for each of its points), which keeps every operation here
polynomial instead of enumerating the exponential open-set family.

Dually, the closure of a point is cl{p} = {y : p in U_y}.  Each space
keeps the closure of every point in a table, built on first use by
inverting the minimal opens, so closures and closed-set tests cost the
size of the relation rather than a scan of the space.  A map's flags
(continuous, closed, injective, embedding, surjective, quotient) are each
computed on first read and kept on the map itself, so they live as long
as the map and every `classify_map` profile of it, a view onto them, shares
them.  The embedding flag decides continuity in the same loop over the
minimal opens and keeps it too, so a map read for both pushes each U_p
once.  The map's image of its whole source, `image()`, which the
embedding and surjectivity flags and the limit checks read, is kept as
well.  Final topologies are reachability: the minimal open of a point is
everything a graph search reaches from it.  That one search, `_reach`, also
finds the connected components and the minimal opens of generated spaces.

Every finite space is compact; compactness is therefore never computed.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from types import SimpleNamespace

PointSet = frozenset[str]


class TopologyError(ValueError):
    """Input does not describe a finite space, a map, or a legal argument."""


def _kept(obj, name: str, build):
    """obj's attribute `name`, set to build(obj) on first use: it lives as long as obj.

    It is written straight into obj's `__dict__`, which a `_record` class's
    frozen fields leave open, so a later read costs one membership test and
    one lookup."""
    kept = obj.__dict__
    if name not in kept:
        kept[name] = build(obj)
    return kept[name]


def _kept_at(obj, name: str, key, build):
    """Entry `key` of obj's table `name`, set to build(obj, key) on first use.
    The entry, and the table with its first one, is stored only once build
    returns, so a call that raises keeps nothing.  With build None this is a
    read that builds nothing: a missing entry reads None."""
    table = obj.__dict__.get(name)
    if table is not None and key in table:
        return table[key]
    if build is None:
        return None
    value = build(obj, key)
    obj.__dict__.setdefault(name, {})[key] = value
    return value


def _record(cls=None, /, *, eq: bool = True):
    """Make cls a frozen value class over its annotated fields, in order.

    The constructor takes each field by position or keyword, leaves out a
    field whose class attribute is its default, and then calls
    `self.__post_init__()`, looked up anew on every construction, if the
    class has one.  Assigning or deleting an attribute raises
    AttributeError, and the repr names every field.  With eq, two instances
    of one class are equal when their field tuples are and hash by that
    tuple; without it they keep identity.  A method the class body defines
    is kept.  The methods are closures, so no source is compiled at import.
    """
    if cls is None:
        return lambda c: _record(c, eq=eq)
    names = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    # the defaults of the trailing run of defaulted fields: a call by position
    # that leaves some of them out gets them appended, with no call to `bind`
    required = len(names)
    while required and names[required - 1] in defaults:
        required -= 1
    tail = tuple(defaults[f] for f in names[required:])
    post_init = hasattr(cls, "__post_init__")
    set_field, indexed = object.__setattr__, tuple(enumerate(names))
    qualname = cls.__qualname__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}.__init__() takes {len(names) + 1} positional arguments"
                f" but {len(args) + 1} were given"
            )
        values = list(args)
        for f in names[len(args) :]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in defaults:
                values.append(defaults[f])
            else:
                raise TypeError(f"{qualname}.__init__() missing required argument {f!r}")
        for f in kwargs:
            problem = "multiple values for" if f in names else "an unexpected keyword"
            raise TypeError(f"{qualname}.__init__() got {problem} argument {f!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if kwargs or not required <= len(args) < len(names):
                args = bind(args, kwargs)
            else:
                args += tail[len(args) - required :]
        for i, f in indexed:
            # set one by one, not through __dict__, which would make the
            # instance's dict a real one and every later field read slower
            set_field(self, f, args[i])
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{type(self).__qualname__}({fields})"

    methods = [__init__, __setattr__, __delattr__, __repr__]
    if eq:
        # one tuple per side, as a tuple compares: an item identical on both
        # sides, such as a shared min_open dict, is equal without a walk.
        # attrgetter gives a tuple only for two names or more.
        key = (
            attrgetter(*names) if len(names) > 1
            else lambda r: tuple(getattr(r, f) for f in names)
        )

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods += [__eq__, __hash__]
    for method in methods:
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


def _first_fault(pts: PointSet, mo: dict[str, PointSet]) -> str:
    """What is wrong with a failing minimal-open table, named as a walk in
    sorted order meets it first: the keys, then each point's stray members
    and its own membership, then the basis condition."""
    if mo.keys() != pts:
        return f"min_open keys and points disagree at {sorted(mo.keys() ^ pts)}"
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
    raise AssertionError("the table has no fault")


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


@_record
class FinSpace:
    """A finite space: point ids plus the minimal open set of every point.

    Invariants (checked on construction):
      * x is in U_x for every point x;
      * y in U_x implies U_y is a subset of U_x (the U_x form a basis).

    The check is one pass in no particular order.  A table that fails it
    is walked in sorted order, and the error names the first failure that
    walk meets: a key mismatch, then stray members and missing selves
    point by point, then the first U_q not inside its U_p.
    """

    points: PointSet
    min_open: dict[str, PointSet]

    def __post_init__(self):
        pts = frozenset(self.points)
        mo = {p: frozenset(us) for p, us in self.min_open.items()}
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_open", mo)
        # one unsorted pass decides; only a failure is walked in sorted order
        opens = mo.values()
        if not (
            mo.keys() == pts
            and all(map(frozenset.__contains__, opens, mo))
            and pts.issuperset(chain.from_iterable(opens))
            and all(u.issuperset(mo[q]) for u in opens for q in u)
        ):
            raise TopologyError(_first_fault(pts, mo))

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


@_record
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
        if asg.keys() != self.source.points:
            bad = sorted(self.source.points.symmetric_difference(asg))
            raise TopologyError(f"assignment is not total on the source; mismatch at {bad}")
        if not self.target.points.issuperset(asg.values()):
            stray = sorted(set(asg.values()) - self.target.points)
            raise TopologyError(f"assignment leaves the target at {stray}")

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.assignment.items())))

    def __call__(self, p: str) -> str:
        return self.assignment[p]

    def image(self, a=None) -> PointSet:
        """f(a); f of the whole source, with no argument, is kept on the map."""
        if a is None:
            return _kept(self, "_image", _whole_image)
        return frozenset(self.assignment[p] for p in self.source.check_points(a))

    def preimage(self, b) -> PointSet:
        b = self.target.check_points(b)
        return frozenset(p for p, q in self.assignment.items() if q in b)


def _whole_image(m: CtsMap) -> PointSet:
    return frozenset(m.assignment.values())


class _flag:
    """A `MapProfile` flag whose body is a function of the map.  It is computed
    on its first read and kept in the map's own `__dict__`, under the flag's
    name with a leading underscore, so it lives exactly as long as the map.
    The map holds only the value: nothing on it points back at a profile."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.key = f"_{name}"

    def __get__(self, prof, owner=None):
        if prof is None:
            return self
        return _kept(prof._map, self.key, self.compute)


class MapProfile:
    """A view onto the flags of a map, each computed on its first read and
    kept on the map, so that every profile of one map object shares them.

    Equality, hashing and repr read all six flags.
    """

    _FLAGS = ("continuous", "closed", "injective", "embedding", "surjective", "quotient_map")

    def __init__(self, m: CtsMap):
        self._map = m

    @_flag
    def continuous(m: CtsMap) -> bool:
        """m(U_p) lies inside U_m(p) for every point p."""
        tgt, f = m.target, m.assignment
        return all(
            tgt.min_open[f[p]].issuperset(map(f.__getitem__, u))
            for p, u in m.source.min_open.items()
        )

    @_flag
    def closed(m: CtsMap) -> bool:
        """Every point closure has a closed image.

        Every closed set is a finite union of point closures and images of
        unions are unions of images, so this test is exact without
        enumerating all closed sets.
        """
        tgt, f = m.target, m.assignment
        tgt_cl = tgt._point_closures()
        for c in m.source._point_closures().values():
            img = {f[x] for x in c}
            if not all(img.issuperset(tgt_cl[y]) for y in img):
                return False
        return True

    @_flag
    def injective(m: CtsMap) -> bool:
        f = m.assignment
        return len(set(f.values())) == len(f)

    @_flag
    def embedding(m: CtsMap) -> bool:
        """Injective and continuous, and each U_q maps onto U_f(q) within the image.

        One loop over the minimal opens decides both clauses: for each q,
        t = U_f(q) must hold f(U_q), which is continuity, and t ∩ f(X) must
        have the size of U_q.  Continuity puts f(U_q) inside t ∩ f(X), and
        injectivity gives f(U_q) the size of U_q, so comparing sizes settles
        equality.  Once the map is injective the loop settles continuity
        too, and keeps it on the map as the `continuous` flag.
        """
        if not MapProfile(m).injective:
            return False
        tgt, f, img = m.target.min_open, m.assignment, m.image()
        sized = True
        for q, u in m.source.min_open.items():
            t = tgt[f[q]]
            if not t.issuperset(map(f.__getitem__, u)):
                m.__dict__["_continuous"] = False
                return False
            if sized and len(t & img) != len(u):
                sized = False
        m.__dict__["_continuous"] = True
        return sized

    @_flag
    def surjective(m: CtsMap) -> bool:
        return m.image() == m.target.points

    @_flag
    def quotient_map(m: CtsMap) -> bool:
        prof = MapProfile(m)
        return (
            prof.surjective
            and prof.continuous
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


def classify_map(m: CtsMap) -> MapProfile:
    """Continuity, closedness, injectivity, embedding, surjectivity, quotient.

    Each flag is computed when it is first read, so a caller pays only for
    the flags it asks for, and kept on m, so it is computed once per map.
    """
    return MapProfile(m)


def subspace(space: FinSpace, a) -> tuple[FinSpace, CtsMap]:
    """The subspace on a, with its inclusion. U'_x = U_x intersect a.

    On all of the space that topology is the space's own, so the subspace
    is the space itself, with the identity: no copy is built."""
    sub = _subspace(space, space.check_points(a))
    if sub is space:
        return space, identity_map(space)
    return sub, CtsMap(sub, space, {p: p for p in sub.points})


def _subspace(space: FinSpace, a: PointSet) -> FinSpace:
    """The subspace on a checked point set a, without the inclusion
    `subspace` builds: the space itself when a is all of it."""
    if a == space.points:
        return space
    mo = space.min_open
    return FinSpace(a, {p: mo[p] & a for p in a})


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
        push = f.__getitem__
        for p, q in f.items():
            edges[q].update(map(push, m.source.min_open[p]))
    return FinSpace(pts, _reach(edges))


def _reach(edges: dict[str, set[str]]) -> dict[str, PointSet]:
    """What a search along `edges` reaches from each point, the point included.
    A search meeting a point whose reach is known takes it whole, unwalked."""
    out: dict[str, PointSet] = {}
    for x in edges:
        seen, todo = {x}, [x]
        while todo:
            for y in edges[todo.pop()]:
                if y not in seen:
                    known = out.get(y)
                    if known is None:
                        seen.add(y)
                        todo.append(y)
                    else:
                        seen |= known
        out[x] = frozenset(seen)
    return out


@_record
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
    """Connected components: x, y linked whenever one lies in the other's U,
    so the component of x is what a search along U_x and cl{x} reaches."""
    cl = space._point_closures()
    return frozenset(_reach({p: u.union(cl[p]) for p, u in space.min_open.items()}).values())


@_record
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
