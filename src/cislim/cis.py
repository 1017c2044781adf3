"""Closed injective systems: stages X_i, closed gluing sets Y_i, and closed
injective continuous attachments f_i: Y_i -> X_{i+1}, with a tail policy
saying how the finite representation stands in for the infinite sequence.

A system is immutable, so its `validate_cis` report is a function of it:
the report is built on the first call and kept on the system, as a space
keeps its closure table, and every later call on that object reads it.
`require_valid` is the one gate that turns a failing report into an
`InvalidSystemError`.  A composite attachment f_{i,j} is a plain `CtsMap`
from the subspace of its domain in X_i to X_{j+1}.
"""

from __future__ import annotations

from .finspace import (
    CtsMap,
    FinSpace,
    PointSet,
    TopologyError,
    _kept,
    _record,
    _subspace,
    classify_map,
    identity_map,
)


@_record
class Stationary:
    """All stages from n0 on repeat stage n0 with identity attachments.

    Requires the represented sequence to end at n0 with Y_n0 = X_n0; every
    operation resolves virtual indices >= n0 back to n0.
    """

    n0: int


@_record
class Cutoff:
    """Plain truncation: nothing is represented past the last stage, and
    statements quantifying over all indices are truncation-relative."""


TailPolicy = Stationary | Cutoff


@_record
class Stage:
    space: FinSpace
    y: PointSet
    f: CtsMap | None  # absent on the last stage

    def __post_init__(self):
        object.__setattr__(self, "y", self.space.check_points(self.y))


@_record
class Cis:
    stages: tuple[Stage, ...]
    tail: TailPolicy

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise TopologyError("a system needs at least one stage")
        if isinstance(self.tail, Stationary) and self.tail.n0 != len(stages) - 1:
            raise TopologyError(
                f"stationary index {self.tail.n0} must be the last stage {len(stages) - 1}"
            )
        for i, st in enumerate(stages):
            last = i == len(stages) - 1
            if last:
                if st.f is not None:
                    raise TopologyError("last stage must not carry an attachment")
                continue
            if st.f is None:
                raise TopologyError(f"stage {i} is missing its attachment")
            # the source must be the subspace on Y: U'_y = U_y ∩ Y, keyed by exactly Y;
            # the stage space itself is that subspace exactly when Y is all of it
            src = st.f.source
            if src is st.space:
                on_y = st.y == src.points
            else:
                on_y = src.min_open == {y: st.space.min_open[y] & st.y for y in st.y}
            if not on_y:
                raise TopologyError(f"attachment at stage {i} is not defined on the subspace Y")
            if st.f.target != stages[i + 1].space:
                raise TopologyError(f"attachment at stage {i} does not land in stage {i + 1}")

    @property
    def stage_count(self) -> int:
        return len(self.stages)


def resolve_index(c: Cis, i: int) -> int:
    if i < 0:
        raise IndexError("negative stage index")
    if isinstance(c.tail, Stationary) and i >= c.tail.n0:
        return c.tail.n0
    if i >= c.stage_count:
        raise IndexError(f"stage {i} is beyond the truncation (last is {c.stage_count - 1})")
    return i


def stage_space(c: Cis, i: int) -> FinSpace:
    return c.stages[resolve_index(c, i)].space


def stage_y(c: Cis, i: int) -> PointSet:
    return c.stages[resolve_index(c, i)].y


def stage_map(c: Cis, i: int) -> CtsMap:
    """f_i, resolving virtual stationary indices to the identity."""
    r = resolve_index(c, i)
    st = c.stages[r]
    if st.f is not None:
        return st.f
    if isinstance(c.tail, Stationary):
        return identity_map(st.space)  # Y_n0 = X_n0, so the domain is the whole stage
    raise IndexError(f"stage {i} has no attachment under truncation")


@_record
class CisValidation:
    failures: tuple[tuple[int, str, str], ...]  # (stage, clause, detail)
    warnings: tuple[str, ...] = ()
    subject: str = "closed injective system"  # what a passing report calls valid

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"stage {i}: {clause}: {detail}" for i, clause, detail in self.failures]
        lines += [f"note: {w}" for w in self.warnings]
        return "\n".join(lines) or f"valid {self.subject}"


def validate_cis(c: Cis) -> CisValidation:
    """Check every stage against the system axioms and the tail invariant;
    the report is kept on c."""
    return _kept(c, "_validation", _validation)


def _validation(c: Cis) -> CisValidation:
    failures = []
    warnings = []
    for i, st in enumerate(c.stages):
        if not st.space.points:
            failures.append((i, "space nonempty", "stage space has no points"))
        if not st.space.is_closed(st.y):
            extra = sorted(st.space.closure(st.y) - st.y)
            failures.append((i, "gluing set closed", f"closure adds {extra}"))
        if not st.y:
            warnings.append(f"stage {i} has an empty gluing set; it attaches to nothing")
        if st.f is not None:
            prof = classify_map(st.f)
            if not prof.continuous:
                failures.append((i, "attachment continuous", "minimal opens are not respected"))
            if not prof.injective:
                failures.append((i, "attachment injective", "two points share an image"))
            if not prof.closed:
                failures.append((i, "attachment closed", "some point-closure image is not closed"))
    if isinstance(c.tail, Stationary):
        last = c.stages[c.tail.n0]
        if last.y != last.space.points:
            failures.append(
                (c.tail.n0, "stationary tail", "the parked stage must glue along all of itself")
            )
    return CisValidation(tuple(failures), tuple(warnings))


class InvalidSystemError(TopologyError):
    """A system or cis-morphism failed validation; the report is attached."""

    def __init__(self, report: CisValidation, head: str = "invalid closed injective system"):
        self.report = report
        super().__init__(head + ":\n" + report.render())


def require_valid(c: Cis, head: str = "invalid closed injective system") -> None:
    """Raise InvalidSystemError under `head` unless c's kept report passes."""
    rep = validate_cis(c)
    if not rep.ok:
        raise InvalidSystemError(rep, head)


def composite(c: Cis, i: int, j: int) -> CtsMap:
    """f_{i,j}, the composite attachment from stage i through stage j, as a
    map on the subspace of its domain.

    The domain is the set of stage-i points whose forward orbit stays inside
    the successive gluing sets long enough to reach X_{j+1}; an empty domain
    is exactly failure of semicomponibility.  From the identity on X_i, each
    step keeps the points whose image lies in Y_k, then applies f_k, so
    domains only shrink."""
    if j < i:
        raise IndexError("composite needs i <= j")
    resolve_index(c, i)
    resolve_index(c, j + 1)  # the composite lands in stage j+1
    top = j
    if isinstance(c.tail, Stationary):
        # beyond the parking index every step is the identity on the full stage
        top = min(j, max(i, c.tail.n0))
    asg = {x: x for x in stage_space(c, i).points}
    for k in range(i, top + 1):
        yk, f_k = stage_y(c, k), stage_map(c, k).assignment
        asg = {y: f_k[z] for y, z in asg.items() if z in yk}
    return CtsMap(_subspace(stage_space(c, i), frozenset(asg)), stage_space(c, j + 1), asg)


def semicomponible(c: Cis, i: int, j: int) -> bool:
    """Whether the attachments at i and j compose nontrivially.

    Every attachment is semicomponible with itself.  For i < j the composite
    domains shrink as j grows, so the single test is that the image of
    f_{i,j-1} meets Y_j.
    """
    if j < i:
        raise IndexError("semicomponible needs i <= j")
    resolve_index(c, j)
    if i == j:
        return True
    return not composite(c, i, j - 1).image().isdisjoint(stage_y(c, j))


def is_inductive(c: Cis) -> bool:
    """Every stage glues along all of itself (Y_i = X_i)."""
    return all(st.y == st.space.points for st in c.stages)


@_record
class FinitelySemicomponibleReport:
    value: bool
    truncation_relative: bool
    detail: str

    def __bool__(self):
        return self.value


def is_finitely_semicomponible(c: Cis) -> FinitelySemicomponibleReport:
    """Whether each attachment composes with only finitely many others.

    Under a cutoff only finitely many indices exist, so the answer is a
    truncation-relative yes.  A stationary tail repeats a nonempty identity
    attachment forever, which is semicomponible with every later index.
    """
    if isinstance(c.tail, Cutoff):
        return FinitelySemicomponibleReport(
            True, True, "truncation-relative: only represented indices were examined"
        )
    n0 = c.tail.n0
    if c.stages[n0].space.points and c.stages[n0].y == c.stages[n0].space.points:
        return FinitelySemicomponibleReport(
            False,
            False,
            f"the identity tail at stage {n0} is semicomponible with every later index",
        )
    return FinitelySemicomponibleReport(True, False, "the stationary tail glues along nothing")


def is_stationary(c: Cis) -> int | None:
    """The parking index when the tail is stationary and its invariant holds."""
    if isinstance(c.tail, Stationary):
        last = c.stages[c.tail.n0]
        if last.y == last.space.points:
            return c.tail.n0
    return None


def make_stage(space: FinSpace, y, next_space: FinSpace | None, assignment: dict | None) -> Stage:
    """Convenience constructor building the attachment on the subspace of y,
    which is the stage space itself when y is all of it."""
    y = space.check_points(y)
    if next_space is None:
        return Stage(space, y, None)
    # CtsMap copies the assignment, so it is not copied here
    return Stage(space, y, CtsMap(_subspace(space, y), next_space, assignment or {}))


def make_cis(spaces, ys, attachments, tail: TailPolicy = Cutoff()) -> Cis:
    """The system gluing ys[i] into spaces[i + 1] along attachments[i]; the
    last stage attaches nothing."""
    n = len(spaces)
    if len(ys) != n:
        raise TopologyError(f"{n} stage spaces need {n} gluing sets, got {len(ys)}")
    if n and len(attachments) != n - 1:
        raise TopologyError(f"{n} stage spaces need {n - 1} attachments, got {len(attachments)}")
    stages = map(make_stage, spaces, ys, [*spaces[1:], None], [*attachments, None])
    return Cis(tuple(stages), tail)
