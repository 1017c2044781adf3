"""The category of closed injective systems: stagewise morphisms, their
composition and isomorphisms, the induced map between fundamental limits,
and direct limits of finite chains of systems.

A morphism is immutable, and its `validate_morphism` report reads only its
fields, the systems' kept reports and the maps' kept flags: it is built on
the first call and kept on the morphism, as a system keeps its report.
`require_morphism` is its one gate, as `cis.require_valid` is a system's.

The induced map comes from the morphism alone; `check_limit_compatibility`
shares the limits it has built through the private `_induced`, and the map
is read through the covers by `limit._cover_map`, as the canonical bijection is.
"""

from __future__ import annotations

from .cis import Cis, CisValidation, InvalidSystemError, make_cis, require_valid, validate_cis
from .finspace import (
    CtsMap,
    TopologyError,
    _kept,
    _record,
    classify_map,
    compose,
    final_space,
    identity_map,
)
from .limit import LimitSpace, _cover_map, attaching_space, build_fundamental


@_record
class CisMorphism:
    """A stagewise family of closed continuous maps h_i: X_i -> Z_i that
    sends gluing sets into gluing sets and commutes with the attachments."""

    source: Cis
    target: Cis
    h: tuple[CtsMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(self.h))
        if self.source.stage_count != self.target.stage_count:
            raise TopologyError("morphism between systems of different lengths")
        if type(self.source.tail) is not type(self.target.tail):
            raise TopologyError("morphism between systems with incompatible tails")
        if len(self.h) != self.source.stage_count:
            raise TopologyError("morphism needs one stage map per stage")
        for i, m in enumerate(self.h):
            if m.source != self.source.stages[i].space:
                raise TopologyError(f"stage map {i} is not defined on the source stage")
            if m.target != self.target.stages[i].space:
                raise TopologyError(f"stage map {i} does not land in the target stage")


def validate_morphism(m: CisMorphism) -> CisValidation:
    """Every system axiom on the source and the target, then every stage
    map: closed, continuous, gluing sets kept, attachments commuting; the
    report is kept on m."""
    return _kept(m, "_validation", _morphism_validation)


def _morphism_validation(m: CisMorphism) -> CisValidation:
    failures = [
        (i, f"{side} system: {clause}", detail)
        for side, c in (("source", m.source), ("target", m.target))
        for i, clause, detail in validate_cis(c).failures
    ]
    for i, (st, tt, hi) in enumerate(zip(m.source.stages, m.target.stages, m.h)):
        prof = classify_map(hi)
        if not prof.continuous:
            failures.append((i, "stage map continuous", "minimal opens are not respected"))
        if not prof.closed:
            failures.append((i, "stage map closed", "some point-closure image is not closed"))
        escaped = sorted(hi.image(st.y) - tt.y)
        if escaped:
            failures.append(
                (i, "gluing sets preserved", f"images {escaped} leave the target gluing set")
            )
    for i in range(m.source.stage_count - 1):
        st = m.source.stages[i]
        tt = m.target.stages[i]
        for y in sorted(st.y):
            hy = m.h[i](y)
            if hy not in tt.y:
                continue  # already reported by the gluing-set clause
            left = m.h[i + 1](st.f(y))
            right = tt.f(hy)
            if left != right:
                failures.append(
                    (
                        i,
                        "commutes with attachments",
                        f"{y}: forward-then-map gives {left}, map-then-forward gives {right}",
                    )
                )
    return CisValidation(tuple(failures), subject="cis-morphism")


def require_morphism(m: CisMorphism, head: str = "invalid cis-morphism") -> None:
    """Raise InvalidSystemError under `head` unless m's kept report passes."""
    rep = validate_morphism(m)
    if not rep.ok:
        raise InvalidSystemError(rep, head)


def identity_morphism(c: Cis) -> CisMorphism:
    return CisMorphism(c, c, tuple(identity_map(st.space) for st in c.stages))


def compose_morphisms(late: CisMorphism, early: CisMorphism) -> CisMorphism:
    if early.target != late.source:
        raise TopologyError("morphism composition mismatch")
    return CisMorphism(
        early.source,
        late.target,
        tuple(compose(lm, em) for lm, em in zip(late.h, early.h)),
    )


def is_cis_isomorphism(m: CisMorphism) -> bool:
    """A valid cis-morphism whose every stage map is a homeomorphism
    carrying the gluing set onto the target's gluing set.  The restriction
    Y -> W is then a homeomorphism too, as h(U_y ∩ Y) = U_h(y) ∩ W, so it
    is not classified again."""
    if not validate_morphism(m).ok:
        return False
    for st, tt, hi in zip(m.source.stages, m.target.stages, m.h):
        prof = classify_map(hi)
        if not (prof.embedding and prof.surjective):
            return False
        if hi.image(st.y) != tt.y:
            return False
    return True


def induced_fundamental_map(m: CisMorphism) -> CtsMap:
    """The unique closed continuous map between the fundamental limits of
    m's systems commuting with every stage map, so it depends on m alone.
    Defined pointwise through the covers from exactly the pairs (phi_i(p),
    psi_i(h_i(p))), it commutes by construction; agreement on overlaps is
    checked while assembling.  m is gated before either limit is built."""
    require_morphism(m)
    return _induced(m, build_fundamental(m.source), build_fundamental(m.target))


def _induced(m: CisMorphism, lx: LimitSpace, lz: LimitSpace) -> CtsMap:
    """The induced map between m's built fundamental limits lx and lz: m is
    gated, and the result checked closed and continuous."""
    require_morphism(m)
    out = _cover_map(lx, lz, m.h, "induced map is not well defined at {key}: {old} vs {new}")
    prof = classify_map(out)
    if not (prof.continuous and prof.closed):
        raise RuntimeError("construction bug: induced map is not closed continuous")
    return out


@_record
class CisDiagram:
    """A finite chain of systems and connecting morphisms; composites and
    identities are derived.  Finite chains stand in for arbitrary inductive
    systems the same way cutoffs stand in for infinite sequences."""

    objects: tuple[Cis, ...]
    arrows: tuple[CisMorphism, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if not self.objects:
            raise TopologyError("diagram needs at least one object")
        if len(self.arrows) != len(self.objects) - 1:
            raise TopologyError("diagram needs exactly one arrow between consecutive objects")
        for n, arr in enumerate(self.arrows):
            if arr.source != self.objects[n] or arr.target != self.objects[n + 1]:
                raise TopologyError(f"arrow {n} does not connect objects {n} and {n + 1}")

    def hom(self, m: int, n: int) -> CisMorphism:
        """The derived morphism from object m to object n (m <= n), composed
        from arrows[m] on, so an adjacent hom is the arrow itself."""
        if not 0 <= m <= n < len(self.objects):
            raise TopologyError("diagram indices out of range")
        if m == n:
            return identity_morphism(self.objects[m])
        out = self.arrows[m]
        for k in range(m + 1, n):
            out = compose_morphisms(self.arrows[k], out)
        return out


def push_forward(legs, spaces, tail) -> Cis:
    """The system on `spaces` carried along stagewise maps.  Each leg (c, h)
    sends X_i to spaces[i] by the assignment h[i]; the gluing sets are
    Y'_i = ∪ h_i(Y_i) and the attachments g_i(h_i(y)) = h_{i+1}(f_i(y)).
    Two values for one g_i raise a TopologyError naming the stage."""
    ys = [set() for _ in spaces]
    attachments = [{} for _ in spaces[1:]]
    for c, h in legs:
        for i, st in enumerate(c.stages):
            ys[i].update(h[i][y] for y in st.y)
        for i, (st, g) in enumerate(zip(c.stages[:-1], attachments)):
            for y in sorted(st.y):
                key, val = h[i][y], h[i + 1][st.f(y)]
                if g.setdefault(key, val) != val:
                    raise TopologyError(f"stage {i}: attachment sends {key} to {g[key]} and {val}")
    return make_cis(spaces, ys, attachments, tail)


@_record
class DirectLimitResult:
    limit: Cis
    cocone: tuple[CisMorphism, ...]
    column_limits: tuple[LimitSpace, ...]  # one glued column per stage index


def cis_direct_limit(d: CisDiagram) -> DirectLimitResult:
    """The direct limit system: stagewise columns are glued along the arrow
    maps, and every object is pushed forward into them along its cocone leg.

    Objects and arrows are input and are validated first.  The arrows'
    stage maps need not be injective, so columns are glued by the plain
    attaching construction rather than via system validation; the assembled
    result is itself validated, and the cocone identities are checked on
    the spot.
    """
    for n, o in enumerate(d.objects):
        require_valid(o, f"object {n} is not a valid closed injective system")
    for n, arr in enumerate(d.arrows):
        require_morphism(arr, f"arrow {n} is not a cis-morphism")
    s = d.objects[0].stage_count
    n_obj = len(d.objects)

    columns = tuple(
        attaching_space(
            [o.stages[i].space for o in d.objects], [arr.h[i].assignment for arr in d.arrows]
        )
        for i in range(s)
    )
    legs = [(o, [col.phis[n].assignment for col in columns]) for n, o in enumerate(d.objects)]
    try:
        limit = push_forward(legs, [col.x for col in columns], d.objects[0].tail)
    except TopologyError as e:
        raise RuntimeError(f"construction bug: {e}") from e
    rep = validate_cis(limit)
    if not rep.ok:
        raise RuntimeError("construction bug: direct limit is not a valid system\n" + rep.render())

    cocone = []
    for n in range(n_obj):
        morph = CisMorphism(d.objects[n], limit, tuple(col.phis[n] for col in columns))
        mrep = validate_morphism(morph)
        if not mrep.ok:
            raise RuntimeError("construction bug: cocone leg invalid\n" + mrep.render())
        cocone.append(morph)
    # consecutive identities give the rest, since d.hom composes arrows
    for n, arr in enumerate(d.arrows):
        left = compose_morphisms(cocone[n + 1], arr)
        if [mm.assignment for mm in left.h] != [mm.assignment for mm in cocone[n].h]:
            raise RuntimeError("construction bug: cocone identities fail")
    return DirectLimitResult(limit, tuple(cocone), columns)


@_record
class CompatibilityReport:
    mediating_continuous: bool
    cocone_identities: bool
    final_topology: bool
    witnesses: tuple[str, ...]
    direct_limit: DirectLimitResult

    @property
    def ok(self) -> bool:
        return self.mediating_continuous and self.cocone_identities and self.final_topology


def check_limit_compatibility(d: CisDiagram) -> CompatibilityReport:
    """Transitioning to fundamental limits commutes with the direct limit:
    the mediating maps out of each object's limit are continuous, form a
    cocone over the induced maps, and exhibit the direct limit's fundamental
    limit as carrying their final topology.  The report carries the direct
    limit it was computed on."""
    res = cis_direct_limit(d)
    big = build_fundamental(res.limit)
    obj_limits = [build_fundamental(o) for o in d.objects]
    mediating = [_induced(res.cocone[n], obj_limits[n], big) for n in range(len(d.objects))]
    cts = True  # _induced raises unless each mediating map is closed continuous
    witnesses, identities = [], True
    for m_idx in range(len(d.objects)):
        for n_idx in range(m_idx + 1, len(d.objects)):
            lh = _induced(d.hom(m_idx, n_idx), obj_limits[m_idx], obj_limits[n_idx])
            left = compose(mediating[n_idx], lh)
            if left.assignment != mediating[m_idx].assignment:
                identities = False
                witnesses.append(
                    f"mediating cocone fails between objects {m_idx} and {n_idx}"
                )
    finest = final_space(big.x.points, mediating)
    final_ok = finest.min_open == big.x.min_open
    if not final_ok:
        witnesses.append("limit topology is not the final topology of the mediating maps")
    return CompatibilityReport(cts, identities, final_ok, tuple(witnesses), res)
