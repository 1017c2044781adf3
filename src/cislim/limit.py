"""Fundamental limit spaces: the attaching-space construction, the
limit-space axioms, the canonical bijection between limits, and the
cover / perfect-map analysis.

Overlap bookkeeping convention: for stages i < j, the images of stage i
and stage j in a limit meet exactly along the composite transit map
f_{i,j-1}: Y_{i,j-1} -> X_j.  Adjacent stages are always linked, through
f_i itself, even when Y_i is empty; a farther pair is linked when its
transit has a nonempty domain, and the disjointness axiom applies to the
pairs that are not.  The verifiers take every transit out of stage i from
one forward walk (`cis.transits`), each step extending the last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cis import Cis, transits, validate_cis
from .finspace import (
    CtsMap,
    FinSpace,
    TopologyError,
    classify_map,
    compose,
    coproduct,
    final_space,
    quotient,
)


@dataclass(frozen=True)
class LimitSpace:
    """A candidate limit: a space plus one structure map per stage.

    For constructed limits `rho` carries the projection from the stage
    coproduct onto the quotient; hand-built candidates leave it absent.
    """

    x: FinSpace
    phis: tuple[CtsMap, ...]
    rho: CtsMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        for k, phi in enumerate(self.phis):
            if phi.target != self.x:
                raise TopologyError(f"structure map {k} does not land in the limit space")


class _UnionFind:
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
        return [frozenset(v) for v in out.values()]


@dataclass(frozen=True)
class AttachResult:
    space: FinSpace
    projections: tuple[CtsMap, ...]
    rho: CtsMap
    total: FinSpace


def attaching_space(spaces, attachments) -> AttachResult:
    """Quotient of the coproduct identifying each point with its image.

    `attachments[n]` maps a subset of spaces[n] into spaces[n+1]; the
    identifications are closed off transitively by union-find, which agrees
    with generating the relation through composite transits because every
    composite is a chain of one-step attachments.
    """
    total, injections = coproduct(list(spaces))
    uf = _UnionFind(total.points)
    for n, att in enumerate(attachments):
        for y in sorted(att):
            uf.union(injections[n](y), injections[n + 1](att[y]))
    space, rho = quotient(total, uf.classes())
    projections = tuple(compose(rho, inj) for inj in injections)
    return AttachResult(space, projections, rho, total)


class InvalidSystemError(TopologyError):
    """The system failed validation; the report is attached."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid closed injective system:\n" + report.render())


def build_fundamental(c: Cis) -> LimitSpace:
    """The fundamental limit: attach every represented stage along its
    gluing map and take the quotient topology.

    The output is checked on the spot against the limit axioms and the
    weak-topology criterion; a failure here means a library bug, not bad
    input, so it raises rather than reports.
    """
    rep = validate_cis(c)
    if not rep.ok:
        raise InvalidSystemError(rep)
    spaces = [st.space for st in c.stages]
    attachments = [
        {y: st.f(y) for y in st.y} for st in c.stages[:-1]  # last stage attaches nothing
    ]
    att = attaching_space(spaces, attachments)
    ls = LimitSpace(att.space, att.projections, att.rho)
    axioms = verify_limit_axioms(c, ls)
    if not axioms.passed:
        raise RuntimeError("construction bug: built limit fails its axioms\n" + axioms.render())
    if not has_weak_topology(c, ls):
        raise RuntimeError("construction bug: built limit lacks the weak topology")
    return ls


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def check(self, name: str) -> CheckResult:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)

    def render(self) -> str:
        lines = []
        for ch in self.checks:
            lines.append(f"{ch.name}: {'pass' if ch.passed else 'FAIL'}")
            for w in ch.witnesses:
                lines.append(f"  witness: {w}")
        return "\n".join(lines)


def _require_aligned(c: Cis, ls: LimitSpace) -> None:
    if len(ls.phis) != c.stage_count:
        raise TopologyError(
            f"candidate has {len(ls.phis)} structure maps for {c.stage_count} stages"
        )
    for i, phi in enumerate(ls.phis):
        if phi.source != c.stages[i].space:
            raise TopologyError(f"structure map {i} is not defined on stage {i}")


def _stage_pairs(c: Cis):
    """(i, j, linked, transit) for every stage pair i < j, where `transit`
    is f_{i,j-1} as a dict on its domain."""
    for i in range(c.stage_count - 1):
        for k, transit in transits(c, i, c.stage_count - 2):
            yield i, k + 1, k == i or bool(transit), transit


def _cover_check(c, ls):
    covered = set()
    for phi in ls.phis:
        covered |= phi.image()
    missing = sorted(ls.x.points - covered)
    return CheckResult(
        "cover", not missing, tuple(f"uncovered point {p}" for p in missing)
    )


def _embedding_check(c, ls):
    bad = []
    for i, phi in enumerate(ls.phis):
        prof = classify_map(phi)
        if not prof.embedding:
            why = "not injective" if not prof.injective else (
                "not continuous" if not prof.continuous else "image topology differs"
            )
            bad.append(f"structure map {i} is not an embedding ({why})")
    return CheckResult("embeddings", not bad, tuple(bad))


def verify_limit_axioms(c: Cis, ls: LimitSpace) -> AxiomReport:
    """The limit-space axioms: cover, embeddings, exact overlaps (with the
    pointwise clause), and disjointness for unlinked stage pairs."""
    _require_aligned(c, ls)
    checks = [_cover_check(c, ls), _embedding_check(c, ls)]

    overlap_bad = []
    disjoint_bad = []
    images = [phi.image() for phi in ls.phis]
    fibres = []  # each stage's points grouped by image, each group sorted
    for phi in ls.phis:
        fibre: dict[str, list[str]] = {}
        for x in sorted(phi.source.points):
            fibre.setdefault(phi(x), []).append(x)
        fibres.append(fibre)
    for i, j, linked, transit in _stage_pairs(c):
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


def verify_gluing_laws(c: Cis, ls: LimitSpace) -> AxiomReport:
    """The equivalent test replacing exact overlaps by gluing agreement plus
    off-locus disjointness; verdicts must match `verify_limit_axioms`."""
    _require_aligned(c, ls)
    checks = [_cover_check(c, ls), _embedding_check(c, ls)]

    agree_bad = []
    offlocus_bad = []
    disjoint_bad = []
    for i, j, linked, transit in _stage_pairs(c):
        phi_i, phi_j = ls.phis[i], ls.phis[j]
        if not linked:
            meet = phi_i.image() & phi_j.image()
            if meet:
                disjoint_bad.append(f"stages {i},{j} cannot interact but share {sorted(meet)}")
            continue
        for y in sorted(transit):
            if phi_j(transit[y]) != phi_i(y):
                agree_bad.append(
                    f"stages {i},{j}: gluing sends {y} to {phi_j(transit[y])} "
                    f"but stage {i} places it at {phi_i(y)}"
                )
        off_i = phi_i.image(phi_i.source.points.difference(transit))
        off_j = phi_j.image(phi_j.source.points.difference(transit.values()))
        meet = off_i & off_j
        if meet:
            offlocus_bad.append(
                f"stages {i},{j}: points {sorted(meet)} collide away from the gluing locus"
            )
    checks.append(CheckResult("gluing agreement", not agree_bad, tuple(agree_bad)))
    checks.append(CheckResult("off-locus disjointness", not offlocus_bad, tuple(offlocus_bad)))
    checks.append(CheckResult("disjointness", not disjoint_bad, tuple(disjoint_bad)))
    return AxiomReport(tuple(checks))


def has_weak_topology(c: Cis, ls: LimitSpace) -> bool:
    """Whether the candidate topology is the final topology of its structure
    maps, i.e. whether the limit is fundamental."""
    _require_aligned(c, ls)
    finest = final_space(ls.x.points, ls.phis)
    return finest.min_open == ls.x.min_open


@dataclass(frozen=True)
class ImagesClosedReport:
    value: bool
    open_image_stages: tuple[int, ...]

    def __bool__(self):
        return self.value


def images_closed(ls: LimitSpace) -> ImagesClosedReport:
    bad = tuple(
        i for i, phi in enumerate(ls.phis) if not ls.x.is_closed(phi.image())
    )
    return ImagesClosedReport(not bad, bad)


def canonical_bijection(c: Cis, ls_a: LimitSpace, ls_b: LimitSpace) -> CtsMap:
    """The unique point map beta with psi_i = beta o phi_i for all stages.

    Both candidates must satisfy the limit axioms; beta is then forced
    pointwise by the cover, and is a bijection.  Continuity (and being a
    homeomorphism when both sides are fundamental) is left to the caller
    to classify.
    """
    for name, ls in (("first", ls_a), ("second", ls_b)):
        rep = verify_limit_axioms(c, ls)
        if not rep.passed:
            raise TopologyError(f"the {name} candidate fails the limit axioms:\n" + rep.render())
    beta: dict[str, str] = {}
    for phi, psi in zip(ls_a.phis, ls_b.phis):
        for p in sorted(phi.source.points):
            key, val = phi(p), psi(p)
            if beta.setdefault(key, val) != val:
                raise TopologyError(
                    f"no canonical bijection: {key} would map to both {beta[key]} and {val}"
                )
    if len(set(beta.values())) != len(beta) or set(beta.values()) != set(ls_b.x.points):
        raise TopologyError("canonical map failed to be a bijection")
    return CtsMap(ls_a.x, ls_b.x, beta)


@dataclass(frozen=True)
class CoverProfile:
    """Flags for the image cover {phi_i(X_i)} over the represented stages.

    Pointwise and local finiteness are truncation-relative: finitely many
    represented stages make them automatic, and the reported multiplicities
    say how tight the cover actually is.  In an Alexandrov space a point's
    minimal open set is contained in every neighbourhood, so testing local
    finiteness there is exact.
    """

    pointwise_finite: bool
    locally_finite: bool
    closed_cover: bool
    max_point_multiplicity: int
    max_neighbourhood_multiplicity: int


def cover_profile(ls: LimitSpace) -> CoverProfile:
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
        closed_cover=bool(images_closed(ls)),
        max_point_multiplicity=max(point_mult.values(), default=0),
        max_neighbourhood_multiplicity=max(nbhd_mult.values(), default=0),
    )


def is_perfect_map(m: CtsMap) -> bool:
    """Closed and surjective; fibers of maps between finite spaces are
    finite, hence compact, so they are not computed."""
    prof = classify_map(m)
    return prof.closed and prof.surjective
