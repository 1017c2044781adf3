import re
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume

sys.path.insert(0, str(Path(__file__).parent))

from cislim.cis import Cis, make_cis
from cislim.finspace import CtsMap, FinSpace
from cislim.limit import LimitSpace


def raises_exactly(exc: type[BaseException], message: str):
    """pytest.raises for exc whose whole message is `message`."""
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


@pytest.fixture
def sierpinski():
    return FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("ab")})


@pytest.fixture
def circle4():
    # Minimal circle model: two open arcs p,q under two closed poles a,b.
    return FinSpace(
        frozenset("abpq"),
        {
            "a": frozenset("apq"),
            "b": frozenset("bpq"),
            "p": frozenset("p"),
            "q": frozenset("q"),
        },
    )


def rebuilt_space(x: FinSpace) -> FinSpace:
    """An equal space that shares no object, and so no kept table, with x."""
    return FinSpace(frozenset(x.points), dict(x.min_open))


def rebuilt_cis(c: Cis) -> Cis:
    """An equal system on equal new spaces: nothing kept on c or its parts
    is shared with it."""
    spaces = [rebuilt_space(st.space) for st in c.stages]
    attachments = [dict(st.f.assignment) for st in c.stages[:-1]]
    return make_cis(spaces, [st.y for st in c.stages], attachments, c.tail)


def rebuilt_candidate(ls: LimitSpace) -> LimitSpace:
    """An equal candidate on equal new spaces, with new structure maps."""
    x = rebuilt_space(ls.x)
    return LimitSpace(
        x, tuple(CtsMap(rebuilt_space(phi.source), x, dict(phi.assignment)) for phi in ls.phis)
    )


def swap_first_two(phi: CtsMap) -> CtsMap:
    """phi with the images of its first two source points exchanged."""
    a = phi.assignment
    u, v = sorted(a)[:2]
    return CtsMap(phi.source, phi.target, {**a, u: a[v], v: a[u]})


def first_leg_swapped(ls: LimitSpace) -> LimitSpace:
    """ls with `swap_first_two` applied to its first structure map: a wrong
    answer for fault-injection tests of the construction self-checks."""
    return LimitSpace(ls.x, (swap_first_two(ls.phis[0]), *ls.phis[1:]))


def space_from_edges(n: int, edges) -> FinSpace:
    """Reflexive-transitive closure of a digraph on n points, read as minimal opens."""
    labels = [f"x{i}" for i in range(n)]
    reach = {i: {i} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            add = reach[j] - reach[i]
            if add:
                reach[i] |= add
                changed = True
    return FinSpace(
        frozenset(labels),
        {labels[i]: frozenset(labels[j] for j in reach[i]) for i in range(n)},
    )


@st.composite
def finspaces(draw, max_points: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_points))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    return space_from_edges(n, edges)


@st.composite
def spaces_with_subsets(draw, max_points: int = 5):
    space = draw(finspaces(max_points))
    pts = sorted(space.points)
    a = draw(st.sets(st.sampled_from(pts)))
    return space, frozenset(a)


@st.composite
def continuous_maps(draw, max_points: int = 4, source=None, target=None):
    """A genuinely continuous map: each point's image is drawn from the
    targets still compatible with the relation constraints of the points
    assigned so far; draws that paint themselves into a corner are retried."""
    src = source if source is not None else draw(finspaces(max_points))
    tgt = target if target is not None else draw(finspaces(max_points))
    asg = {}
    for p in sorted(src.points):
        allowed = [
            t
            for t in sorted(tgt.points)
            if all(asg[q] in tgt.min_open[t] for q in src.min_open[p] if q in asg)
            and all(
                t in tgt.min_open[asg[q]]
                for q in sorted(src.points)
                if q in asg and p in src.min_open[q]
            )
        ]
        assume(allowed)
        asg[p] = draw(st.sampled_from(allowed))
    return CtsMap(src, tgt, asg)
