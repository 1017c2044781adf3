"""Canonical example systems at desk scale, plus the bounded search for
limit spaces that fail to be fundamental.

Sphere models grow by adding each new antipodal pair as *open* points, so
that every older model sits inside the next as a closed subspace and the
equatorial inclusion is a closed embedding.  (The more common minimal
models add new points closed, which would break closedness of the
inclusions and hence the system axioms.)
"""

from __future__ import annotations

from itertools import product as iproduct

from .cis import Cis, Cutoff, InvalidSystemError, Stationary, make_cis
from .finspace import CtsMap, FinSpace, TopologyError, _record, product
from .limit import LimitSpace, build_fundamental, has_weak_topology, verify_limit_axioms

MAX_CHAIN = 6
MAX_TORUS = 3
# the search walks 2^(n(n-1)) relations: 2^20 at 5 points, 2^30 at 6
MAX_SEARCH_POINTS = 5


def point_space(label: str = "pt") -> FinSpace:
    return FinSpace(frozenset({label}), {label: frozenset({label})})


def sierpinski_space() -> FinSpace:
    return FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("ab")})


def discrete_space(labels) -> FinSpace:
    labels = frozenset(labels)
    return FinSpace(labels, {p: frozenset({p}) for p in labels})


def sphere_space(n: int) -> FinSpace:
    """The 2n+2 point sphere model: pole pair at every level, new pairs open."""
    if n < 0:
        raise TopologyError("sphere dimension must be >= 0")
    levels = [("a", "b")] + [(f"p{k}", f"q{k}") for k in range(1, n + 1)]
    points = [p for pair in levels for p in pair]
    min_open = {}
    for k, pair in enumerate(levels):
        above = frozenset(p for later in levels[k + 1 :] for p in later)
        for p in pair:
            min_open[p] = frozenset({p}) | above
    return FinSpace(frozenset(points), min_open)


def interval_space(i: int) -> FinSpace:
    """Three-point interval: open midpoint under two closed endpoints."""
    l, m, r = f"l{i}", f"m{i}", f"r{i}"
    return FinSpace(
        frozenset({l, m, r}),
        {m: frozenset({m}), l: frozenset({l, m}), r: frozenset({r, m})},
    )


def torus_space(n: int) -> FinSpace:
    """Product of n copies of the 4-point circle."""
    if n < 1:
        raise TopologyError("torus dimension must be >= 1")
    out = sphere_space(1)
    for _ in range(n - 1):
        out = product(out, sphere_space(1))
    return out


def identity_system(space: FinSpace, stages: int, stationary: bool = False) -> Cis:
    if stages < 1:
        raise TopologyError("need at least one stage")
    ident = {p: p for p in space.points}
    tail = Stationary(stages - 1) if stationary else Cutoff()
    return make_cis([space] * stages, [space.points] * stages, [ident] * (stages - 1), tail)


def sphere_chain(n: int, stationary: bool = False) -> Cis:
    """S^0 through S^n with equatorial (label-identical) inclusions."""
    if not 0 <= n <= MAX_CHAIN:
        raise TopologyError(f"sphere chain truncation must be within 0..{MAX_CHAIN}")
    spheres = [sphere_space(k) for k in range(n + 1)]
    tail = Stationary(n) if stationary else Cutoff()
    return make_cis(
        spheres,
        [sp.points for sp in spheres],
        [{p: p for p in sp.points} for sp in spheres[:-1]],
        tail,
    )


def stationary_sphere(n: int) -> Cis:
    return sphere_chain(n, stationary=True)


def torus_chain(n: int) -> Cis:
    """T^1 through T^n, each included at the closed basepoint of a new circle factor."""
    if not 1 <= n <= MAX_TORUS:
        raise TopologyError(f"torus chain truncation must be within 1..{MAX_TORUS}")
    tori = [torus_space(k) for k in range(1, n + 1)]
    return make_cis(
        tori,
        [sp.points for sp in tori],
        [{p: f"({p},a)" for p in sp.points} for sp in tori[:-1]],
    )


def interval_chain(n: int) -> Cis:
    """n abutting intervals, each right endpoint glued to the next left one.

    Consecutive attachment images miss the consecutive gluing sets, so the
    system is finitely semicomponible and the limit is one long interval.
    """
    if not 1 <= n <= MAX_CHAIN:
        raise TopologyError(f"interval chain length must be within 1..{MAX_CHAIN}")
    return make_cis(
        [interval_space(i) for i in range(n)],
        [{f"r{i}"} for i in range(n)],
        [{f"r{i}": f"l{i + 1}"} for i in range(n - 1)],
    )


def non_semicomponible() -> Cis:
    """Three stages whose first attachment image misses the second gluing set."""
    return make_cis(
        [sierpinski_space(), discrete_space("cd"), point_space("e")],
        [{"b"}, {"c"}, {"e"}],
        [{"b": "d"}, {"c": "e"}],
    )


_BASE_SPACES = {
    "point": point_space,
    "sierpinski": sierpinski_space,
    "circle": lambda: sphere_space(1),
}


# the most parameters each gallery system takes, in command-line order
_ARITY = {
    "identity": 2,
    "sphere_chain": 1,
    "stationary_sphere": 1,
    "torus_chain": 1,
    "interval_chain": 1,
    "non_semicomponible": 0,
}
_HAS_STATIONARY_FORM = ("identity", "sphere_chain", "stationary_sphere")


def _int_param(params, k: int, default: int) -> int:
    if len(params) <= k:
        return default
    try:
        return int(params[k])
    except ValueError:
        raise TopologyError(f"parameter {k + 1} must be an integer, got {params[k]!r}") from None


def build_example(name: str, *params, stationary: bool = False) -> Cis:
    """Gallery dispatcher used by the command line; raises on unknown names,
    non-integer or extra parameters, a stationary request the system has no
    form for, and parameters outside the documented caps."""
    if name not in _ARITY:
        raise TopologyError(f"unknown gallery system {name!r}")
    if len(params) > _ARITY[name]:
        extra = params[_ARITY[name]]
        raise TopologyError(f"extra parameter {extra!r}: {name} takes at most {_ARITY[name]}")
    if stationary and name not in _HAS_STATIONARY_FORM:
        raise TopologyError(f"{name} has no stationary form, so stationary=True does not apply")
    if name == "identity":
        base = str(params[0]) if params else "sierpinski"
        stages = _int_param(params, 1, 3)
        if base not in _BASE_SPACES:
            raise TopologyError(f"unknown base space {base!r}; pick from {sorted(_BASE_SPACES)}")
        if not 1 <= stages <= MAX_CHAIN:
            raise TopologyError(f"identity system length must be within 1..{MAX_CHAIN}")
        return identity_system(_BASE_SPACES[base](), stages, stationary=stationary)
    if name == "sphere_chain":
        return sphere_chain(_int_param(params, 0, 2), stationary=stationary)
    if name == "stationary_sphere":
        return stationary_sphere(_int_param(params, 0, 2))
    if name == "torus_chain":
        return torus_chain(_int_param(params, 0, 2))
    if name == "interval_chain":
        return interval_chain(_int_param(params, 0, 3))
    return non_semicomponible()


GALLERY_NAMES = tuple(_ARITY)


@_record
class NonFundamentalSearch:
    """Outcome of the exhaustive topology search.

    status "undecided" means the limit was larger than the cap applied, the
    requested cap or MAX_SEARCH_POINTS if that is less, and nothing was
    enumerated; "completed" means every Alexandrov topology on the limit's
    point set was examined.
    """

    status: str  # "completed" | "undecided"
    found: tuple[LimitSpace, ...]
    examined: int
    cap: int  # the cap applied


def _all_preorder_spaces(points: tuple[str, ...]):
    """Every reflexive transitive relation on the points, as a FinSpace."""
    n = len(points)
    others = [[j for j in range(n) if j != i] for i in range(n)]
    rows_choices = []
    for i in range(n):
        rows = []
        for mask in range(1 << (n - 1)):
            row = 1 << i
            for b, j in enumerate(others[i]):
                if mask >> b & 1:
                    row |= 1 << j
            rows.append(row)
        rows_choices.append(rows)
    for combo in iproduct(*rows_choices):
        transitive = True
        for i in range(n):
            row = combo[i]
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if combo[j] & ~row:
                    transitive = False
                    break
            if not transitive:
                break
        if not transitive:
            continue
        min_open = {
            points[i]: frozenset(points[j] for j in range(n) if combo[i] >> j & 1)
            for i in range(n)
        }
        yield FinSpace(frozenset(points), min_open)


def search_non_fundamental(c: Cis, cap: int = 4) -> NonFundamentalSearch:
    """Exhaustively look for limit spaces of c that are not fundamental.

    Enumerates every topology on the fundamental limit's point set, keeps
    the candidates that satisfy the limit-space axioms with the same stage
    assignments, and returns those without the weak topology.  Limits of
    more than min(cap, MAX_SEARCH_POINTS) points are left undecided.  A
    negative cap is refused.
    """
    if cap < 0:
        raise TopologyError(f"cap must be >= 0, got {cap}")
    try:
        base = build_fundamental(c)
    except InvalidSystemError as e:
        raise TopologyError("cannot search an invalid system:\n" + e.report.render()) from e
    pts = tuple(sorted(base.x.points))
    cap = min(cap, MAX_SEARCH_POINTS)
    if len(pts) > cap:
        return NonFundamentalSearch("undecided", (), 0, cap)
    found = []
    examined = 0
    for space in _all_preorder_spaces(pts):
        examined += 1
        cand = LimitSpace(
            space,
            tuple(CtsMap(phi.source, space, phi.assignment) for phi in base.phis),
        )
        if not verify_limit_axioms(c, cand).passed:
            continue
        if not has_weak_topology(c, cand):
            found.append(cand)
    return NonFundamentalSearch("completed", tuple(found), examined, cap)
