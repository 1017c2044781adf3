import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_leg_swapped, swap_first_two
from cislim import cat, cis
from cislim.cat import (
    CisDiagram,
    CisMorphism,
    check_limit_compatibility,
    cis_direct_limit,
    compose_morphisms,
    identity_morphism,
    induced_fundamental_map,
    is_cis_isomorphism,
    push_forward,
    validate_morphism,
)
from cislim.cis import Cis, Cutoff, make_cis, make_stage, validate_cis
from cislim.finspace import (
    CtsMap,
    FinSpace,
    TopologyError,
    classify_map,
    compose,
    find_homeomorphism,
    subspace,
)
from cislim.gallery import identity_system, sphere_chain, sphere_space
from cislim.interchange import cis_to_doc, dumps
from cislim.limit import build_fundamental
from cislim.randgen import FuzzGen, point_system


def open_gluing_system(sierpinski):
    """Two stages on the Sierpinski space gluing along {a}, which is not
    closed: cl{a} = {a, b}."""
    return Cis(
        (make_stage(sierpinski, {"a"}, sierpinski, {"a": "a"}),
         make_stage(sierpinski, sierpinski.points, None, None)),
        Cutoff(),
    )


def swap_last(stages: int) -> CisMorphism:
    """The identity system on discrete {a, b}, mapped to itself by identities
    and, at the last stage, the swap: only the last attachment square fails."""
    ab = FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("b")})
    c = identity_system(ab, stages)
    swap = CtsMap(ab, ab, {"a": "b", "b": "a"})
    return CisMorphism(c, c, (CtsMap(ab, ab, {"a": "a", "b": "b"}),) * (stages - 1) + (swap,))


class TestValidateMorphism:
    def test_identity_morphism_valid(self):
        c = sphere_chain(2)
        assert validate_morphism(identity_morphism(c)).ok

    def test_collapse_to_point_valid(self):
        c = sphere_chain(2)
        _, m = point_system(c)
        assert validate_morphism(m).ok

    def test_gluing_set_violation_reported(self, sierpinski):
        c = identity_system(sierpinski, 2)
        from cislim.cis import Cis, Cutoff, make_stage

        z = sierpinski
        tgt = Cis(
            (
                make_stage(z, {"b"}, z, {"b": "b"}),
                make_stage(z, {"b"}, None, None),
            ),
            Cutoff(),
        )
        # h sends the full gluing set {a,b} but W = {b} only
        h = tuple(CtsMap(sierpinski, z, {"a": "a", "b": "b"}) for _ in range(2))
        rep = validate_morphism(CisMorphism(c, tgt, h))
        assert not rep.ok
        assert any(clause == "gluing sets preserved" for _, clause, _ in rep.failures)

    def test_invalid_systems_are_reported(self, sierpinski):
        bad = open_gluing_system(sierpinski)
        good = identity_system(sierpinski, 2)
        h = (CtsMap(sierpinski, sierpinski, {"a": "a", "b": "b"}),) * 2
        rep = validate_morphism(CisMorphism(bad, good, h))
        assert not rep.ok
        assert (0, "source system: gluing set closed", "closure adds ['b']") in rep.failures
        assert not any(clause.startswith("target system") for _, clause, _ in rep.failures)
        rep = validate_morphism(CisMorphism(good, bad, h))
        assert rep.failures[0] == (0, "target system: gluing set closed", "closure adds ['b']")
        assert "stage 0: target system: gluing set closed: closure adds ['b']" in rep.render()

    def test_attachment_squares_are_checked(self):
        # every stage map is a homeomorphism keeping the gluing sets, so only
        # the commuting clause can fail
        assert validate_morphism(swap_last(2)).render() == (
            "stage 0: commutes with attachments: a: forward-then-map gives b, map-then-forward gives a\n"
            "stage 0: commutes with attachments: b: forward-then-map gives a, map-then-forward gives b"
        )

    def test_the_last_attachment_square_is_checked(self):
        rep = validate_morphism(swap_last(3))
        assert [(i, clause) for i, clause, _ in rep.failures] == [
            (1, "commutes with attachments"), (1, "commutes with attachments")
        ]

    def test_stage_count_mismatch_is_hard_error(self, sierpinski):
        c2 = identity_system(sierpinski, 2)
        c3 = identity_system(sierpinski, 3)
        with pytest.raises(TopologyError, match="different lengths"):
            CisMorphism(c2, c3, tuple(CtsMap(sierpinski, sierpinski, {"a": "a", "b": "b"}) for _ in range(2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generated_morphisms_are_valid(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        m = gen.morphism(c)
        assert validate_morphism(m).ok
        assert validate_cis(m.target).ok


class TestComposition:
    def test_identity_laws(self):
        gen = FuzzGen(2)
        c = gen.cis()
        m = gen.morphism(c)
        left = compose_morphisms(m, identity_morphism(c))
        right = compose_morphisms(identity_morphism(m.target), m)
        assert [x.assignment for x in left.h] == [x.assignment for x in m.h]
        assert [x.assignment for x in right.h] == [x.assignment for x in m.h]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        h = gen.morphism(c)
        k = gen.morphism(h.target)
        r = gen.morphism(k.target)
        one = compose_morphisms(r, compose_morphisms(k, h))
        two = compose_morphisms(compose_morphisms(r, k), h)
        assert [x.assignment for x in one.h] == [x.assignment for x in two.h]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_composites_stay_valid(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        h, k = gen.composable_pair(c)
        assert validate_morphism(compose_morphisms(k, h)).ok


def reclassifying_is_cis_isomorphism(m):
    """The isomorphism predicate that also classifies each restriction Y -> W
    as a map onto the target's gluing subspace, kept as an oracle."""
    for st, tt, hi in zip(m.source.stages, m.target.stages, m.h):
        prof = classify_map(hi)
        if not (prof.embedding and prof.surjective):
            return False
        if frozenset(hi(y) for y in st.y) != tt.y:
            return False
        ysub, _ = subspace(st.space, st.y)
        wsub, _ = subspace(tt.space, tt.y)
        onto_w = CtsMap(ysub, wsub, {y: hi.assignment[y] for y in ysub.points})
        wprof = classify_map(onto_w)
        if not (wprof.embedding and wprof.surjective):
            return False
    return True


class TestIsomorphism:
    def test_identity_is_iso(self):
        assert is_cis_isomorphism(identity_morphism(sphere_chain(1)))

    def test_relabelling_is_iso(self):
        gen = FuzzGen(4)
        c = gen.cis()
        assert is_cis_isomorphism(gen.relabel_morphism(c))

    def test_collapse_is_not_iso(self):
        c = sphere_chain(1)
        _, m = point_system(c)
        assert not is_cis_isomorphism(m)

    def test_matches_the_reclassifying_oracle(self):
        # relabellings, collapses, random morphisms and composites; a stage map that
        # is a homeomorphism carrying Y onto W never fails the restricted check
        verdicts = []
        for seed in range(400):
            gen = FuzzGen(seed)
            c = gen.cis()
            first, second = gen.composable_pair(c)
            for m in (gen.relabel_morphism(c), gen.collapse_morphism(c), first,
                      compose_morphisms(second, first)):
                verdicts.append(reclassifying_is_cis_isomorphism(m))
                assert is_cis_isomorphism(m) == verdicts[-1], seed
        assert 0 < sum(verdicts) < len(verdicts)


class TestInducedMap:
    def test_functor_unit_law(self):
        c = sphere_chain(2)
        ls = build_fundamental(c)
        lid = induced_fundamental_map(identity_morphism(c), ls, ls)
        assert lid.assignment == {p: p for p in ls.x.points}

    def test_collapse_gives_constant_map(self):
        c = sphere_chain(1)
        _, m = point_system(c)
        out = induced_fundamental_map(m)
        assert len(set(out.assignment.values())) == 1

    def test_iso_gives_homeomorphism(self):
        gen = FuzzGen(6)
        c = gen.cis()
        m = gen.relabel_morphism(c)
        out = induced_fundamental_map(m)
        prof = classify_map(out)
        assert prof.embedding and prof.surjective

    def test_induced_maps_are_closed_continuous_and_commute(self):
        gen = FuzzGen(7)
        for _ in range(20):
            c = gen.cis()
            m = gen.morphism(c)
            lx = build_fundamental(m.source)
            lz = build_fundamental(m.target)
            out = induced_fundamental_map(m, lx, lz)
            prof = classify_map(out)
            assert prof.continuous and prof.closed
            for phi, psi, hi in zip(lx.phis, lz.phis, m.h):
                for p in phi.source.points:
                    assert out(phi(p)) == psi(hi(p))

    def test_uniqueness_forced_by_cover(self):
        gen = FuzzGen(8)
        c = gen.cis()
        m = gen.morphism(c)
        lx = build_fundamental(m.source)
        lz = build_fundamental(m.target)
        out = induced_fundamental_map(m, lx, lz)
        # any map commuting with all stage maps agrees pointwise with it
        forced = {}
        for phi, psi, hi in zip(lx.phis, lz.phis, m.h):
            for p in phi.source.points:
                forced[phi(p)] = psi(hi(p))
        assert forced == out.assignment

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_functor_composition_law(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        h, k = gen.composable_pair(c)
        lh = induced_fundamental_map(h)
        lk = induced_fundamental_map(k)
        lkh = induced_fundamental_map(compose_morphisms(k, h))
        assert compose(lk, lh).assignment == lkh.assignment


def _discrete(*points):
    return FinSpace(frozenset(points), {p: frozenset({p}) for p in points})


class TestPushForward:
    """Y'_i = ∪ h_i(Y_i) and g_i(h_i(y)) = h_{i+1}(f_i(y)) over every leg."""

    @staticmethod
    def _legs(second_start):
        c1 = Cis(
            (make_stage(_discrete("a"), {"a"}, _discrete("b"), {"a": "b"}),
             make_stage(_discrete("b"), {"b"}, None, None)),
            Cutoff(),
        )
        c2 = Cis(
            (make_stage(_discrete("c"), {"c"}, _discrete("d"), {"c": "d"}),
             make_stage(_discrete("d"), set(), None, None)),
            Cutoff(),
        )
        return [(c1, [{"a": "p"}, {"b": "r"}]), (c2, [{"c": second_start}, {"d": "s"}])]

    def test_two_legs_union_their_gluing_sets(self):
        spaces = [_discrete("p", "q"), _discrete("r", "s")]
        built = push_forward(self._legs("q"), spaces, Cutoff())
        by_hand = Cis(
            (make_stage(spaces[0], {"p", "q"}, spaces[1], {"p": "r", "q": "s"}),
             make_stage(spaces[1], {"r"}, None, None)),
            Cutoff(),
        )
        assert built == by_hand

    def test_conflicting_values_name_the_stage(self):
        # both legs send their stage-0 point to p, then on to r and to s
        spaces = [_discrete("p", "q"), _discrete("r", "s")]
        with pytest.raises(TopologyError, match="^stage 0: attachment sends p to r and s$"):
            push_forward(self._legs("p"), spaces, Cutoff())

    def test_relabelling_matches_the_hand_built_system(self, sierpinski, circle4):
        c = Cis(
            (make_stage(sierpinski, {"b"}, circle4, {"b": "a"}),
             make_stage(circle4, {"a", "b"}, None, None)),
            Cutoff(),
        )
        tables = [{"a": "A", "b": "B"}, {p: p.upper() for p in circle4.points}]
        spaces = [
            FinSpace(frozenset("AB"), {"A": frozenset("A"), "B": frozenset("AB")}),
            FinSpace(frozenset("ABPQ"), {"A": frozenset("APQ"), "B": frozenset("BPQ"),
                                         "P": frozenset("P"), "Q": frozenset("Q")}),
        ]
        by_hand = Cis(
            (make_stage(spaces[0], {"B"}, spaces[1], {"B": "A"}),
             make_stage(spaces[1], {"A", "B"}, None, None)),
            Cutoff(),
        )
        assert push_forward([(c, tables)], spaces, Cutoff()) == by_hand


class TestDirectLimit:
    def test_direct_limits_are_pinned(self):
        # the limit system, every cocone leg and the compatibility verdict
        h = hashlib.sha256()
        for seed in range(200):
            gen = FuzzGen(seed)
            d = gen.diagram(gen.cis(), 3)
            rep = check_limit_compatibility(d)
            res = rep.direct_limit
            h.update(f"seed {seed}\n".encode())
            h.update(dumps(cis_to_doc(res.limit)).encode())
            for leg in res.cocone:
                for m in leg.h:
                    h.update(f"{sorted(m.assignment.items())}\n".encode())
            h.update(f"{rep.mediating_continuous} {rep.cocone_identities} {rep.final_topology}"
                     f" {rep.witnesses}\n".encode())
        assert h.hexdigest() == (
            "406da9bb641fd9c83a896669438e84301109cd40d57017c160420a6ae7786217"
        )

    def test_invalid_objects_are_input_errors(self, sierpinski):
        bad = open_gluing_system(sierpinski)
        good = identity_system(sierpinski, 2)
        arrow = CisMorphism(good, bad, identity_morphism(good).h)
        for d, n in [(CisDiagram((bad,), ()), 0), (CisDiagram((good, bad), (arrow,)), 1)]:
            with pytest.raises(TopologyError, match=f"^object {n} is not a valid closed injective"):
                cis_direct_limit(d)

    def test_constant_diagram_reproduces_object(self):
        c = sphere_chain(1)
        d = CisDiagram((c, c), (identity_morphism(c),))
        res = cis_direct_limit(d)
        assert validate_cis(res.limit).ok
        for st_lim, st_obj in zip(res.limit.stages, c.stages):
            assert find_homeomorphism(st_lim.space, st_obj.space).status == "found"
        assert is_cis_isomorphism(res.cocone[1]) or all(
            classify_map(x).embedding and classify_map(x).surjective for x in res.cocone[1].h
        )

    def test_sphere_truncation_tower(self):
        # inclusions of sphere chains of growing truncation; the direct
        # limit matches the largest truncation stagewise
        c2 = sphere_chain(2)
        padded = _pad_sphere_chain(2, upto=3)
        incl = CisMorphism(
            padded,
            sphere_chain(3),
            tuple(
                CtsMap(padded.stages[i].space, sphere_space(i), {p: p for p in padded.stages[i].space.points})
                for i in range(4)
            ),
        )
        assert validate_morphism(incl).ok
        d = CisDiagram((padded, sphere_chain(3)), (incl,))
        res = cis_direct_limit(d)
        for i, st_lim in enumerate(res.limit.stages):
            assert find_homeomorphism(st_lim.space, sphere_space(i)).status == "found"

    def test_collapse_diagram_gives_collapsed_object(self):
        c = sphere_chain(1)
        target, m = point_system(c)
        d = CisDiagram((c, target), (m,))
        res = cis_direct_limit(d)
        for st_lim in res.limit.stages:
            assert len(st_lim.space.points) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cocone_identities(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis(max_stages=3, max_points=4)
        d = gen.diagram(c, length=3)
        res = cis_direct_limit(d)
        for m_idx in range(3):
            for n_idx in range(m_idx, 3):
                led = compose_morphisms(res.cocone[n_idx], d.hom(m_idx, n_idx))
                assert [x.assignment for x in led.h] == [
                    x.assignment for x in res.cocone[m_idx].h
                ]


class TestDirectLimitSelfChecks:
    """Fault injection: a construction step of `cis_direct_limit` that returns
    a wrong answer makes one of its construction-bug RuntimeErrors fire.  The
    diagram is a two-point discrete identity system mapped to itself, whose
    columns and limit are again discrete, so a swap stays a valid system."""

    @staticmethod
    def diagram():
        c = identity_system(_discrete("u", "v"), 2)
        return CisDiagram((c, c), (identity_morphism(c),))

    @staticmethod
    def columns_with_leg_0_swapped(monkeypatch, columns):
        """Make the columns numbered in `columns` send object 0 in swapped."""
        real, built = cat.attaching_space, []

        def wrong(spaces, attachments):
            ls = real(spaces, attachments)
            built.append(ls)
            return first_leg_swapped(ls) if len(built) - 1 in columns else ls

        monkeypatch.setattr(cat, "attaching_space", wrong)

    @staticmethod
    def limit_rebuilt(monkeypatch, attachment):
        """Make push_forward return its system with stage 0's attachment replaced."""
        real = cat.push_forward

        def wrong(legs, spaces, tail):
            c = real(legs, spaces, tail)
            f = attachment(c.stages[0].f)
            return make_cis([st.space for st in c.stages], [st.y for st in c.stages], [f], tail)

        monkeypatch.setattr(cat, "push_forward", wrong)

    def test_conflicting_legs_are_a_construction_bug(self, monkeypatch):
        # one column swapped, the other not: the legs disagree on g_0
        self.columns_with_leg_0_swapped(monkeypatch, {0})
        with pytest.raises(RuntimeError, match="^construction bug: stage 0: attachment sends "):
            cis_direct_limit(self.diagram())

    def test_an_invalid_limit_system_is_a_construction_bug(self, monkeypatch):
        # a constant attachment is not injective
        self.limit_rebuilt(monkeypatch, lambda f: {y: f(min(f.assignment)) for y in f.assignment})
        with pytest.raises(
            RuntimeError, match="^construction bug: direct limit is not a valid system\n"
        ):
            cis_direct_limit(self.diagram())

    def test_an_invalid_cocone_leg_is_a_construction_bug(self, monkeypatch):
        # a valid limit system, but its attachment no longer commutes with the legs
        self.limit_rebuilt(monkeypatch, lambda f: swap_first_two(f).assignment)
        with pytest.raises(RuntimeError, match="^construction bug: cocone leg invalid\n"):
            cis_direct_limit(self.diagram())

    def test_failing_cocone_identities_are_a_construction_bug(self, monkeypatch):
        # every column swapped: each leg is a valid morphism, but leg 1 after
        # the identity arrow is not leg 0
        self.columns_with_leg_0_swapped(monkeypatch, {0, 1})
        with pytest.raises(RuntimeError, match="^construction bug: cocone identities fail$"):
            cis_direct_limit(self.diagram())


class TestCompatibility:
    def test_constant_diagram(self):
        c = sphere_chain(1)
        d = CisDiagram((c, c), (identity_morphism(c),))
        rep = check_limit_compatibility(d)
        assert rep.ok, rep.witnesses

    def test_collapse_diagram(self):
        c = sphere_chain(1)
        target, m = point_system(c)
        rep = check_limit_compatibility(CisDiagram((c, target), (m,)))
        assert rep.ok, rep.witnesses

    def test_each_system_is_validated_once(self, monkeypatch):
        # the objects, the direct limit and every arrow, leg and mediating
        # map between them: 32 validate_cis calls, on 4 distinct systems
        built = []
        body = cis._validation
        monkeypatch.setattr(cis, "_validation", lambda c: built.append(c) or body(c))
        gen = FuzzGen(3)
        d = gen.diagram(gen.cis(), 3)
        assert check_limit_compatibility(d).ok
        assert len(built) == 4
        assert len({id(c) for c in built}) == 4 and set(map(id, d.objects)) <= set(map(id, built))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_diagrams(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis(max_stages=3, max_points=4)
        d = gen.diagram(c, length=3)
        rep = check_limit_compatibility(d)
        assert rep.ok, rep.witnesses


def _pad_sphere_chain(n, upto):
    """The sphere chain up to n, padded with repeated final stages so it has
    the same length as the chain up to `upto`."""
    from cislim.cis import Cis, Cutoff, make_stage

    spheres = [sphere_space(min(k, n)) for k in range(upto + 1)]
    stages = []
    for k, sp in enumerate(spheres):
        if k < upto:
            stages.append(make_stage(sp, sp.points, spheres[k + 1], {p: p for p in sp.points}))
        else:
            stages.append(make_stage(sp, sp.points, None, None))
    return Cis(tuple(stages), Cutoff())
