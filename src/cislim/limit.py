"""Fundamental limit spaces: the attaching-space construction, the
limit-space axioms, the canonical bijection between limits, and the
cover / perfect-map analysis.

The attaching space names each limit point by the forward-orbit end of the
stage points it glues, and carries the final topology of its structure
maps, which is what makes it the fundamental limit.  `has_weak_topology`
finds that final topology another way, as a least fixpoint of int bitmasks
over the stage opens, so `build_fundamental`'s self-check tests the graph
search in `final_space` instead of repeating it: `_weak` deliberately does
not call `finspace._reach`, the one search behind final topologies.

Overlap bookkeeping convention: for stages i < j, the images of stage i
and stage j in a limit meet exactly along the composite transit map
f_{i,j-1}: Y_{i,j-1} -> X_j.  Adjacent stages are always linked, through
f_i itself, even when Y_i is empty; a farther pair is linked when its
transit has a nonempty domain, and the disjointness axiom applies to the
pairs that are not.  `verify_limit_axioms` decides those two axioms per
point: they hold when every limit point's preimages form one forward orbit
x_s -> f_s(x_s) -> ... through consecutive stages, and for injective
structure maps only then (`_orbits_agree`).  The transits themselves are
stepped in one place, `_pair_classes`, one later stage at a time and once
per class of pairs with equal transit and placement.  The gluing-law twin
decides every pair from that walk, as an oracle for the per-point verdict;
the axiom verifier reads it only to name witnesses once its verdict fails.

A candidate is immutable, so the facts that depend on it alone are decided
once and kept on it: the cover and embedding checks that both verifiers
report, the verdict of the weak-topology fixpoint, the closures of the
structure-map images and the closed-image verdict read from them;
`cover_profile` reads both.  An image's facts depend on the image alone, so
they are decided once per distinct image, however many stages share it: an
identity system's stages all have one image, and a saturated inductive
tower's last stages share theirs.  Its structure maps keep their images
(`CtsMap.image`) and, from the one loop of the embedding flag, their
continuity.  Verdicts that also read the system (the overlap, disjointness
and gluing checks) are decided on every call.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from types import SimpleNamespace

from .cis import Cis, require_valid
from .finspace import (
    CtsMap, FinSpace, TopologyError, _kept, _record, classify_map, final_space, identity_map
)


@_record
class LimitSpace:
    """A candidate limit: a space plus one structure map per stage.

    The cover and embedding checks, the weak-topology verdict and the image
    closures are kept on it after their first call."""

    x: FinSpace
    phis: tuple[CtsMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        for k, phi in enumerate(self.phis):
            if phi.target is not self.x and phi.target != self.x:
                raise TopologyError(f"structure map {k} does not land in the limit space")


def attaching_space(spaces, attachments) -> LimitSpace:
    """The stages glued along their attachments, with the final topology of
    the maps that send each stage into the glued points.

    `attachments[n]` maps a subset of spaces[n] into spaces[n+1].  Each point
    has at most one image, one stage on, so the identifications form in-trees:
    two points are identified exactly when their forward orbits end at the
    same point.  One backward pass finds the end of every point `i:p`, and
    each class is named by its least tag; the maps need not be injective.
    Each tag is formatted once, and no two are equal, since the first `:`
    ends the stage index.
    """
    tags = [{p: f"{i}:{p}" for p in sp.points} for i, sp in enumerate(spaces)]
    ends = [dict(tag) for tag in tags]
    for n in range(len(attachments) - 1, -1, -1):
        here, there = ends[n], ends[n + 1]
        for y, z in attachments[n].items():
            if y not in here:
                raise KeyError(y)
            here[y] = there[z]
    least: dict[str, str] = {}  # orbit end -> least tag of its class
    for tag, end in zip(tags, ends):
        for p, e in end.items():
            t = tag[p]
            if e not in least or t < least[e]:
                least[e] = t
    names = [{p: least[e] for p, e in end.items()} for end in ends]
    space = final_space(
        least.values(), [SimpleNamespace(source=sp, assignment=a) for sp, a in zip(spaces, names)]
    )
    return LimitSpace(space, tuple(CtsMap(sp, space, a) for sp, a in zip(spaces, names)))


def build_fundamental(c: Cis) -> LimitSpace:
    """The fundamental limit: attach every represented stage along its
    gluing map, with the final topology of the structure maps.

    The output is checked on the spot against the limit axioms and the
    weak-topology criterion; a failure here means a library bug, not bad
    input, so it raises rather than reports.
    """
    require_valid(c)
    ls = attaching_space(
        [st.space for st in c.stages],
        [st.f.assignment for st in c.stages[:-1]],  # last stage attaches nothing
    )
    axioms = verify_limit_axioms(c, ls)
    if not axioms.passed:
        raise RuntimeError("construction bug: built limit fails its axioms\n" + axioms.render())
    if not has_weak_topology(c, ls):
        raise RuntimeError("construction bug: built limit lacks the weak topology")
    return ls


@_record
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@_record
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
        space = c.stages[i].space
        if phi.source is not space and phi.source != space:
            raise TopologyError(f"structure map {i} is not defined on stage {i}")


def _candidate_checks(ls: LimitSpace) -> list[CheckResult]:
    """The cover and embedding checks, which depend on the candidate alone
    and are kept on it."""
    return [_kept(ls, "_cover", _cover_check), _kept(ls, "_embeddings", _embedding_check)]


def _cover_check(ls: LimitSpace) -> CheckResult:
    covered = set()
    for phi in ls.phis:
        covered |= phi.image()
    missing = sorted(ls.x.points - covered)
    return CheckResult(
        "cover", not missing, tuple(f"uncovered point {p}" for p in missing)
    )


def _embedding_check(ls: LimitSpace) -> CheckResult:
    bad = []
    for i, phi in enumerate(ls.phis):
        prof = classify_map(phi)
        if not prof.embedding:
            why = "not injective" if not prof.injective else (
                "not continuous" if not prof.continuous else "image topology differs"
            )
            bad.append(f"structure map {i} is not an embedding ({why})")
    return CheckResult("embeddings", not bad, tuple(bad))


def _orbits_agree(c: Cis, ls: LimitSpace) -> bool:
    """Whether exact overlaps and disjointness hold, decided per point in
    O(sum |X_i|) from two checks:

    (a) every gluing agrees with the structure maps: phi_{k+1}(f_k(y)) =
        phi_k(y) for y in Y_k;
    (b) every limit point's preimages, in stage order, lie in consecutive
        stages, at most one per stage, each sent by f_s to the next.

    (a) puts every transit's ends on one point and (b) puts the ends of
    every meeting on one transit, so passing implies both axioms.  The
    converse holds when the structure maps are injective; otherwise the
    pairwise walk decides.
    """
    asg = [phi.assignment for phi in ls.phis]
    for k, st in enumerate(c.stages[:-1]):
        here, there = asg[k], asg[k + 1]
        if any(there[z] != here[y] for y, z in st.f.assignment.items()):
            return False
    last: dict[str, tuple[int, str]] = {}  # limit point -> latest (stage, preimage)
    for k, phi in enumerate(asg):
        for x, p in phi.items():
            seen = last.get(p)
            if seen is not None:
                s, xs = seen
                if s != k - 1 or c.stages[s].f.assignment.get(xs) != x:
                    return False
            last[p] = (k, x)
    return True


def verify_limit_axioms(c: Cis, ls: LimitSpace) -> AxiomReport:
    """The limit-space axioms: cover, embeddings, exact overlaps (with the
    pointwise clause), and disjointness for unlinked stage pairs.

    Overlaps and disjointness are decided per point by `_orbits_agree`.
    Only when that fails are the stage pairs walked, by `_pair_classes`, to
    name the witnesses.  The meet and the collisions of a linked pair depend
    only on its class's transit and placement, so each class finds them
    once, over the points of one stage; each pair of a failing class then
    names them in its own points, in the order of X_i, and the pairs write
    their lines in (i, j) order."""
    _require_aligned(c, ls)
    checks = _candidate_checks(ls)
    if _orbits_agree(c, ls):
        checks.append(CheckResult("overlap", True))
        checks.append(CheckResult("disjointness", True))
        return AxiomReport(tuple(checks))

    names, place = _placed(ls)
    images = [phi.image() for phi in ls.phis]
    fibres = []  # each stage's points grouped by image, each group sorted
    for phi in ls.phis:
        fibre: dict[str, list[str]] = {}
        for x in sorted(phi.source.points):
            fibre.setdefault(phi(x), []).append(x)
        fibres.append(fibre)
    pair_lines = {}  # (i, j) -> the overlap witnesses of a linked pair
    disjoint_bad = []  # (i, j, witness)
    for j, live, dead, held in _pair_classes(c, names, place):
        phi_j, fibre = ls.phis[j].assignment, fibres[j]
        classes = list(live.items())
        # an adjacent pair whose transit and meet are both empty has no witness
        for members, meet in _dead_meets(dead, held, images[j]):
            for i in members:
                if i == j - 1:  # adjacent stages stay linked, through f_i, on an empty transit
                    classes.append((((None,) * len(names[i]), place[i]), [i]))
                else:
                    disjoint_bad.append(
                        (i, j, f"stages {i},{j} cannot interact but share {sorted(meet)}")
                    )
        for (t, p), members in classes:
            meet = images[j].intersection(p)
            glued = {phi_j[z] for z in t if z is not None}
            # (a, xj, z): names[i][a] shares its image with xj of X_j, but transits to z
            collide = [
                (a, xj, z) for a, (z, pa) in enumerate(zip(t, p))
                for xj in fibre.get(pa, ()) if z != xj
            ]
            if meet != glued:
                heads = [f"images meet in {sorted(meet)} but the transit lands on {sorted(glued)}"]
            elif collide:
                heads = []
            else:
                continue  # every pair of the class has exact overlaps
            for i in members:
                xs = names[i]
                lines = pair_lines[i, j] = [f"stages {i},{j}: {h}" for h in heads]
                for a, xj, z in sorted(collide, key=lambda w: xs[w[0]]):
                    xi = xs[a]
                    why = f"{xi} is outside the transit domain" if z is None else (
                        f"the transit sends {xi} to {z}"
                    )
                    lines.append(f"stages {i},{j}: {xi} and {xj} collide at {p[a]} but {why}")
    overlap_bad = [w for pair in sorted(pair_lines) for w in pair_lines[pair]]
    disjoint_bad.sort()
    checks.append(CheckResult("overlap", not overlap_bad, tuple(overlap_bad)))
    checks.append(CheckResult("disjointness", not disjoint_bad, tuple(w[-1] for w in disjoint_bad)))
    return AxiomReport(tuple(checks))


def _placed(ls: LimitSpace) -> tuple[list[tuple], list[tuple]]:
    """Each X_k in a fixed order, by phi_k, so that equal placements align,
    and phi_k in that order."""
    names, place = [], []
    for phi in ls.phis:
        at = phi.assignment.__getitem__
        names.append(tuple(sorted(phi.assignment, key=at)))
        place.append(tuple(map(at, names[-1])))
    return names, place


def _step(transit: tuple, f: dict[str, str]) -> tuple:
    """f_{i,k} from f_{i,k-1}: a point that f_k does not carry on leaves the
    domain."""
    return tuple(map(f.get, transit))


def _pair_classes(c: Cis, names: list[tuple], place: list[tuple]):
    """Yield (j, live, dead, held) for each later stage j, with every stage
    pair (i, j) in exactly one of the tables live and dead, from one walk of
    the composite transits f_{i,j-1}.

    A transit lists, for each point of names[i], the point of X_j it
    reaches, or None off its domain.  Pairs whose transit and placement
    place[i] are equal entry for entry share one class, and `live` maps each
    (transit, placement) to its stages i.  Each class takes one `_step`
    through f_{j-1}, so a system whose stages embed alike takes about one
    step per stage, not one per pair.  Domains only shrink, so a class whose
    transit empties never transits again: its stages join `dead`, keyed by
    the image of phi_i, and stay there for every later j.  Of the dead
    pairs, (j-1, j) is still linked, through f_{j-1}; every other one is
    unlinked.  `held` indexes the dead images by the limit points in them,
    for `_dead_meets`.  The tables belong to the walk and hold until its
    next step."""
    live: dict[tuple, list[int]] = {}
    dead: dict[frozenset, list[int]] = {}
    held: dict[str, list[frozenset]] = {}
    for j in range(1, c.stage_count):
        k = j - 1
        # the pair (k, j) joins with f_{k,k-1}, the identity on X_k
        live.setdefault((names[k], place[k]), []).append(k)
        f = c.stages[k].f.assignment
        stepped: dict[tuple, list[int]] = {}
        for (t, p), members in live.items():
            key = (_step(t, f), p)
            if key in stepped:
                stepped[key].extend(members)
            elif key[0].count(None) == len(t):
                img = frozenset(p)
                if img not in dead:
                    dead[img] = []
                    for q in img:
                        held.setdefault(q, []).append(img)
                dead[img].extend(members)
            else:
                stepped[key] = members
        live = stepped
        yield j, live, dead, held


def _dead_meets(dead: dict, held: dict, image) -> list[tuple[list[int], set]]:
    """(stages, meet) for each dead group whose image meets `image`, found
    from the points of `image` through the index `held`, so the cost
    follows the meets found, not the number of dead groups."""
    meets: dict[frozenset, set[str]] = {}
    for q in image:
        for img in held.get(q, ()):
            meets.setdefault(img, set()).add(q)
    return [(dead[img], meet) for img, meet in meets.items()]


def verify_gluing_laws(c: Cis, ls: LimitSpace) -> AxiomReport:
    """The equivalent test replacing exact overlaps by gluing agreement plus
    off-locus disjointness; verdicts must match `verify_limit_axioms`.

    Each stage pair (i, j) is decided on its own composite transit
    f_{i,j-1} from `_pair_classes`, and never by `_orbits_agree`, so this
    is an independent check of that per-point verdict.  A live class takes
    one agreement check against phi_j and, when its transit is partial, one
    off-locus check, and its verdict is that of every pair in it; dead pairs
    are tested for disjoint images through `_dead_meets`, which reads only
    the groups that meet each later image.  Each pair writes its witnesses
    in its own point names, sorted by (i, j)."""
    _require_aligned(c, ls)
    checks = _candidate_checks(ls)

    agree_bad = []  # (i, j, point of X_i, witness)
    offlocus_bad = []  # (i, j, witness), as is disjoint_bad
    disjoint_bad = []
    names, place = _placed(ls)
    for j, live, dead, held in _pair_classes(c, names, place):
        phi_j = ls.phis[j].assignment
        for (t, p), members in live.items():
            bad = [a for a, z in enumerate(t) if z is not None and phi_j[z] != p[a]]
            if bad:
                for i in members:
                    xs = names[i]
                    agree_bad.extend(
                        (i, j, xs[a], f"stages {i},{j}: gluing sends {xs[a]} to {phi_j[t[a]]} "
                         f"but stage {i} places it at {p[a]}")
                        for a in bad
                    )
            if None not in t:  # total on X_i: nothing of stage i is off the locus
                continue
            landed = set(t)
            off_i = {pa for z, pa in zip(t, p) if z is None}
            meet = off_i.intersection([pz for z, pz in phi_j.items() if z not in landed])
            if meet:
                offlocus_bad.extend((i, j, _off_locus(i, j, meet)) for i in members)
        for members, meet in _dead_meets(dead, held, ls.phis[j].image()):
            for i in members:
                if i == j - 1:  # adjacent stages stay linked, so this meet is off the locus
                    offlocus_bad.append((i, j, _off_locus(i, j, meet)))
                else:
                    disjoint_bad.append(
                        (i, j, f"stages {i},{j} cannot interact but share {sorted(meet)}")
                    )
    for name, bad in (
        ("gluing agreement", agree_bad),
        ("off-locus disjointness", offlocus_bad),
        ("disjointness", disjoint_bad),
    ):
        checks.append(CheckResult(name, not bad, tuple(w[-1] for w in sorted(bad)) if bad else ()))
    return AxiomReport(tuple(checks))


def _off_locus(i: int, j: int, meet) -> str:
    return f"stages {i},{j}: points {sorted(meet)} collide away from the gluing locus"


def has_weak_topology(c: Cis, ls: LimitSpace) -> bool:
    """Whether the candidate topology is the final topology of its structure
    maps, i.e. whether the limit is fundamental.

    The final U_x is the least family of sets with x in U_x, phi(U_p) inside
    U_x whenever phi(p) = x, and U_y inside U_x for y in U_x.  It is found as
    a least fixpoint on int bitmasks, independently of how `attaching_space`
    built the candidate: each point is seeded with the images phi(U_p) it
    receives, then ORs in its successors' masks until no mask changes.

    The verdict depends on the candidate alone and is kept on it; the maps
    are checked to land in the limit space on every call."""
    _require_aligned(c, ls)
    for k, phi in enumerate(ls.phis):
        f = phi.assignment
        if not ls.x.points.issuperset(f.values()):
            stray = sorted(set(f.values()) - ls.x.points)
            raise TopologyError(f"structure map {k} leaves the limit space at {stray}")
    return _kept(ls, "_weak", _weak)


def _weak(ls: LimitSpace) -> bool:
    """The fixpoint of `has_weak_topology`."""
    x = ls.x
    succ: dict[str, set[str]] = {q: {q} for q in x.points}
    for phi in ls.phis:
        f = phi.assignment
        for p, u in phi.source.min_open.items():
            succ[f[p]].update(map(f.__getitem__, u))
    bit = {q: 1 << i for i, q in enumerate(succ)}
    mask = {q: sum(map(bit.__getitem__, s)) for q, s in succ.items()}
    changed = True
    while changed:
        changed = False
        for q, s in succ.items():
            m = mask[q]
            for y in s:
                m |= mask[y]
            if m != mask[q]:
                mask[q], changed = m, True
    return all(mask[q] == sum(map(bit.__getitem__, u)) for q, u in x.min_open.items())


@_record
class ImagesClosedReport:
    value: bool
    open_image_stages: tuple[int, ...]

    def __bool__(self):
        return self.value


def images_closed(ls: LimitSpace) -> ImagesClosedReport:
    """Which structure maps have open images, decided once per distinct
    image and kept on the candidate."""
    return _kept(ls, "_images_closed", _open_images)


def _open_images(ls: LimitSpace) -> ImagesClosedReport:
    """The verdict `images_closed` keeps: an image A is closed exactly when
    cl(A) = A, tested once per distinct image against its kept closure and
    reported at every stage that has that image."""
    bad = sorted(k for a, (cl, stages) in _image_classes(ls).items() if cl != a for k in stages)
    return ImagesClosedReport(not bad, tuple(bad))


def _image_classes(ls: LimitSpace) -> dict[frozenset[str], tuple[frozenset[str], list[int]]]:
    """Each distinct structure-map image with its closure and the stages it
    is the image of, built once and kept on the candidate."""
    return _kept(ls, "_image_classes", _image_closures)


def _image_closures(ls: LimitSpace) -> dict[frozenset[str], tuple[frozenset[str], list[int]]]:
    """cl(A) for each distinct image A = phi_k(X_k), with the stages k whose
    image it is: one closure per distinct image, however many stages share it."""
    closure, classes = ls.x.closure, {}
    for k, phi in enumerate(ls.phis):
        a = phi.image()
        cls = classes.get(a)
        if cls is None:
            cls = classes[a] = (closure(a), [])
        cls[1].append(k)
    return classes


def canonical_bijection(c: Cis, ls_a: LimitSpace, ls_b: LimitSpace) -> CtsMap:
    """The unique point map beta with psi_i = beta o phi_i for all stages.

    Both candidates must satisfy the limit axioms; beta is then forced
    pointwise by the cover, and is a bijection.  It is the cover walk the
    induced map uses, `_cover_map`, along identity stage maps.  Continuity
    (and being a homeomorphism when both sides are fundamental) is left to
    the caller to classify.
    """
    for name, ls in (("first", ls_a), ("second", ls_b)):
        rep = verify_limit_axioms(c, ls)
        if not rep.passed:
            raise TopologyError(f"the {name} candidate fails the limit axioms:\n" + rep.render())
    clash = "no canonical bijection: {key} would map to both {old} and {new}"
    beta = _cover_map(ls_a, ls_b, [identity_map(st.space) for st in c.stages], clash)
    if sorted(beta.assignment.values()) != sorted(ls_b.x.points):
        raise TopologyError("canonical map failed to be a bijection")
    return beta


def _cover_map(ls_a: LimitSpace, ls_b: LimitSpace, h, clash: str) -> CtsMap:
    """The map phi_i(p) -> psi_i(h_i(p)) from ls_a to ls_b, read through the
    two covers with one stage map h_i per stage.  A point sent two ways
    raises a TopologyError whose text is `clash` with the point and both
    values filled in."""
    out: dict[str, str] = {}
    for phi, psi, hi in zip(ls_a.phis, ls_b.phis, h):
        for p in sorted(phi.source.points):
            key, val = phi(p), psi(hi(p))
            if out.setdefault(key, val) != val:
                raise TopologyError(clash.format(key=key, old=out[key], new=val))
    return CtsMap(ls_a.x, ls_b.x, out)


@_record
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
    """One count over the distinct images and their kept closures, each
    counted once for every stage that shares it.  U_x meets an image A
    exactly when x lies in cl(A), so a point's neighbourhood multiplicity
    counts the image closures that hold it, as its point multiplicity counts
    the images.  Whether the cover is closed is the verdict of `images_closed`."""
    classes = _image_classes(ls).items()
    # Counter counts the chained sets in C: where most images are distinct
    # that is faster than adding each class's weight point by point in Python
    point_mult = Counter(chain.from_iterable(a for a, (_, stages) in classes for _ in stages))
    nbhd_mult = Counter(chain.from_iterable(cl for _, (cl, stages) in classes for _ in stages))
    return CoverProfile(
        pointwise_finite=True,
        locally_finite=True,
        closed_cover=images_closed(ls).value,
        max_point_multiplicity=max(point_mult.values(), default=0),
        max_neighbourhood_multiplicity=max(nbhd_mult.values(), default=0),
    )


def is_perfect_map(m: CtsMap) -> bool:
    """Continuous, closed and surjective; fibers of maps between finite
    spaces are finite, hence compact, so they are not computed."""
    prof = classify_map(m)
    return prof.continuous and prof.closed and prof.surjective
