import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_closed_map,
    brute_closure,
    brute_continuous,
    brute_embedding,
    brute_final_min_open,
    brute_quotient_min_open,
    closed_sets,
    open_sets,
)
from conftest import continuous_maps, finspaces, spaces_with_subsets
import cislim.finspace
from cislim.finspace import (
    CtsMap,
    FinSpace,
    TopologyError,
    classify_map,
    components,
    compose,
    coproduct,
    final_space,
    find_homeomorphism,
    identity_map,
    product,
    quotient,
    separation_profile,
    subspace,
)
from cislim.limit import build_fundamental
from cislim.randgen import FuzzGen

POINT = FinSpace(frozenset({"z"}), {"z": frozenset({"z"})})
DISCRETE2 = FinSpace(frozenset("uv"), {"u": frozenset("u"), "v": frozenset("v")})
INDISCRETE2 = FinSpace(frozenset("uv"), {"u": frozenset("uv"), "v": frozenset("uv")})


class TestConstruction:
    def test_rejects_point_outside_own_min_open(self):
        with pytest.raises(TopologyError, match="'a'"):
            FinSpace(frozenset("ab"), {"a": frozenset("b"), "b": frozenset("b")})

    def test_rejects_non_basis(self):
        with pytest.raises(TopologyError, match="not a basis"):
            FinSpace(
                frozenset("abc"),
                {"a": frozenset("a"), "b": frozenset("ab"), "c": frozenset("bc")},
            )

    def test_rejects_key_mismatch(self):
        with pytest.raises(TopologyError):
            FinSpace(frozenset("ab"), {"a": frozenset("a")})


class TestClosure:
    def test_sierpinski_open_point(self, sierpinski):
        assert sierpinski.closure({"a"}) == frozenset("ab")

    def test_empty(self, sierpinski):
        assert sierpinski.closure(frozenset()) == frozenset()

    def test_circle_arc(self, circle4):
        assert circle4.closure({"p"}) == frozenset("pab")

    def test_unknown_point(self, sierpinski):
        with pytest.raises(TopologyError, match="unknown"):
            sierpinski.closure({"zzz"})

    @given(spaces_with_subsets())
    def test_matches_brute_force(self, sa):
        space, a = sa
        assert space.closure(a) == brute_closure(space, a)
        assert space.is_closed(a) == (brute_closure(space, a) == a)

    @given(spaces_with_subsets())
    def test_kuratowski_laws(self, sa):
        space, a = sa
        cl = space.closure
        assert cl(frozenset()) == frozenset()
        assert a <= cl(a)
        assert cl(cl(a)) == cl(a)

    @given(finspaces(), st.data())
    def test_closure_distributes_over_union(self, space, data):
        pts = sorted(space.points)
        a = frozenset(data.draw(st.sets(st.sampled_from(pts))))
        b = frozenset(data.draw(st.sets(st.sampled_from(pts))))
        assert space.closure(a | b) == space.closure(a) | space.closure(b)


class TestClassifyMap:
    def test_identity_all_flags(self, circle4):
        prof = classify_map(identity_map(circle4))
        assert prof.continuous and prof.closed and prof.injective and prof.embedding
        assert prof.surjective and prof.quotient_map

    def test_constant_to_open_point(self, sierpinski):
        m = CtsMap(DISCRETE2, sierpinski, {"u": "a", "v": "a"})
        prof = classify_map(m)
        assert prof.continuous
        assert not prof.closed  # image {a} is not closed
        assert not prof.injective

    def test_two_point_inclusion_into_circle(self, circle4):
        incl = CtsMap(DISCRETE2, circle4, {"u": "a", "v": "b"})
        prof = classify_map(incl)
        assert prof.continuous and prof.closed and prof.injective and prof.embedding

    @settings(max_examples=60)
    @given(continuous_maps())
    def test_continuous_by_construction(self, m):
        assert classify_map(m).continuous

    @settings(max_examples=60)
    @given(finspaces(4), finspaces(4), st.data())
    def test_agrees_with_brute_force(self, src, tgt, data):
        asg = {p: data.draw(st.sampled_from(sorted(tgt.points))) for p in sorted(src.points)}
        m = CtsMap(src, tgt, asg)
        prof = classify_map(m)
        injective = all(asg[p] != asg[q] for p in asg for q in asg if p != q)
        surjective = all(any(asg[p] == y for p in asg) for y in tgt.points)
        assert prof.continuous == brute_continuous(m)
        assert prof.closed == brute_closed_map(m)
        assert prof.injective == injective
        assert prof.embedding == brute_embedding(m)
        assert prof.surjective == surjective
        assert prof.quotient_map == (
            surjective
            and brute_continuous(m)
            and brute_final_min_open(tgt.points, [m]) == dict(tgt.min_open)
        )

    def test_flags_are_computed_on_read(self, circle4, monkeypatch):
        def boom(points, maps):
            raise AssertionError("final_space called")

        monkeypatch.setattr(cislim.finspace, "final_space", boom)
        prof = classify_map(identity_map(circle4))
        assert prof.continuous and prof.closed and prof.injective
        assert prof.embedding and prof.surjective
        with pytest.raises(AssertionError, match="final_space called"):
            prof.quotient_map

    def test_repr_names_every_flag(self, sierpinski):
        m = CtsMap(DISCRETE2, sierpinski, {"u": "a", "v": "a"})
        assert repr(classify_map(m)) == (
            "MapProfile(continuous=True, closed=False, injective=False, "
            "embedding=False, surjective=False, quotient_map=False)"
        )

    @given(finspaces(4), st.data())
    def test_equal_spaces_give_equal_closures_and_profiles(self, space, data):
        twin = FinSpace(frozenset(space.points), dict(space.min_open))
        closures = {p: space.closure({p}) for p in space.points}  # space keeps its table
        assert space == twin and hash(space) == hash(twin)
        assert {p: twin.closure({p}) for p in twin.points} == closures
        tgt = data.draw(finspaces(4))
        asg = {p: data.draw(st.sampled_from(sorted(tgt.points))) for p in sorted(space.points)}
        first, second = classify_map(CtsMap(space, tgt, asg)), classify_map(CtsMap(twin, tgt, asg))
        assert first == second and hash(first) == hash(second)


class TestSubspace:
    def test_full_subset_is_same_space(self, circle4):
        sub, incl = subspace(circle4, circle4.points)
        assert sub == circle4
        assert incl.assignment == identity_map(circle4).assignment

    def test_singleton(self, sierpinski):
        sub, _ = subspace(sierpinski, {"b"})
        assert sub.min_open == {"b": frozenset("b")}

    def test_circle_poles_are_discrete(self, circle4):
        sub, incl = subspace(circle4, {"a", "b"})
        assert sub.min_open == {"a": frozenset("a"), "b": frozenset("b")}
        assert classify_map(incl).embedding

    @given(spaces_with_subsets())
    def test_inclusion_is_embedding(self, sa):
        space, a = sa
        _, incl = subspace(space, a)
        prof = classify_map(incl)
        assert prof.continuous and prof.injective and prof.embedding


class TestCoproduct:
    def test_single_space_is_isomorphic_copy(self, circle4):
        total, _ = coproduct([circle4])
        assert find_homeomorphism(total, circle4).status == "found"

    def test_two_points_make_discrete(self):
        total, _ = coproduct([POINT, POINT])
        assert separation_profile(total).discrete
        assert len(total.points) == 2

    def test_two_sierpinskis(self, sierpinski):
        total, injs = coproduct([sierpinski, sierpinski])
        assert len(total.points) == 4
        for inj in injs:
            prof = classify_map(inj)
            assert prof.embedding and prof.closed
            assert total.is_open(inj.image())

    @given(st.lists(finspaces(3), min_size=1, max_size=3))
    def test_injections_closed_open_embeddings(self, spaces):
        total, injs = coproduct(spaces)
        for inj in injs:
            prof = classify_map(inj)
            assert prof.embedding and prof.closed
            assert total.is_open(inj.image())

    @settings(max_examples=40)
    @given(finspaces(3), finspaces(3), st.data())
    def test_copairing_universal_property(self, x, y, data):
        z = data.draw(finspaces(3))
        f = data.draw(continuous_maps(source=x, target=z))
        g = data.draw(continuous_maps(source=y, target=z))
        total, (ix, iy) = coproduct([x, y])
        copair = {ix(p): f(p) for p in x.points}
        copair.update({iy(p): g(p) for p in y.points})
        assert classify_map(CtsMap(total, z, copair)).continuous


class TestQuotient:
    def test_singleton_partition_is_homeomorphic(self, circle4):
        q, proj = quotient(circle4, [{p} for p in circle4.points])
        assert find_homeomorphism(q, circle4).status == "found"
        assert classify_map(proj).quotient_map

    def test_collapse_discrete_to_point(self):
        q, _ = quotient(DISCRETE2, [{"u", "v"}])
        assert len(q.points) == 1

    def test_rejects_overlapping_partition(self, sierpinski):
        with pytest.raises(TopologyError, match="overlap"):
            quotient(sierpinski, [{"a", "b"}, {"b"}])

    def test_rejects_non_covering_partition(self, sierpinski):
        with pytest.raises(TopologyError, match="misses"):
            quotient(sierpinski, [{"a"}])

    def test_circle_with_arcs_merged(self, circle4):
        q, proj = quotient(circle4, [{"p", "q"}, {"a"}, {"b"}])
        assert len(q.points) == 3
        assert classify_map(proj).quotient_map
        # Both poles now sit under the single merged arc: a wedge shape.
        arc = proj("p")
        assert q.min_open["a"] == frozenset({"a", arc})
        assert q.min_open["b"] == frozenset({"b", arc})

    @given(finspaces(5), st.data())
    def test_matches_brute_quotient_topology(self, space, data):
        pts = sorted(space.points)
        tags = {p: data.draw(st.integers(0, 2)) for p in pts}
        blocks = {}
        for p, t in tags.items():
            blocks.setdefault(t, set()).add(p)
        q, proj = quotient(space, list(blocks.values()))
        assert dict(q.min_open) == brute_quotient_min_open(space, proj.assignment)

    @given(finspaces(5), st.data())
    def test_projection_final_topology_reproduces_quotient(self, space, data):
        pts = sorted(space.points)
        tags = {p: data.draw(st.integers(0, 2)) for p in pts}
        blocks = {}
        for p, t in tags.items():
            blocks.setdefault(t, set()).add(p)
        q, proj = quotient(space, list(blocks.values()))
        again = final_space(q.points, [proj])
        assert again.min_open == q.min_open


class TestProduct:
    def test_product_with_point(self, circle4):
        prod = product(circle4, POINT)
        assert find_homeomorphism(prod, circle4).status == "found"

    def test_sierpinski_square(self, sierpinski):
        prod = product(sierpinski, sierpinski)
        assert len(prod.points) == 4
        assert prod.min_open["(a,a)"] == frozenset({"(a,a)"})
        assert prod.min_open["(b,b)"] == prod.points

    def test_colliding_pair_labels_are_rejected(self):
        # "(a,b,c)" encodes both (a, "b,c") and ("a,b", c)
        a = FinSpace(frozenset({"a", "a,b"}), {"a": frozenset({"a"}), "a,b": frozenset({"a,b"})})
        b = FinSpace(frozenset({"b,c", "c"}), {"b,c": frozenset({"b,c"}), "c": frozenset({"c"})})
        with pytest.raises(TopologyError, match=r"\('a', 'b,c'\) and \('a,b', 'c'\)"):
            product(a, b)

    def test_torus_model_size(self, circle4):
        torus = product(circle4, circle4)
        assert len(torus.points) == 16

    @settings(max_examples=40)
    @given(finspaces(3), finspaces(3), st.data())
    def test_pairing_universal_property(self, x, y, data):
        z = data.draw(finspaces(3))
        f = data.draw(continuous_maps(source=z, target=x))
        g = data.draw(continuous_maps(source=z, target=y))
        prod = product(x, y)
        pairing = {p: f"({f(p)},{g(p)})" for p in z.points}
        assert classify_map(CtsMap(z, prod, pairing)).continuous


class TestFinalSpace:
    def test_single_identity_reproduces_topology(self, circle4):
        fs = final_space(circle4.points, [identity_map(circle4)])
        assert fs.min_open == circle4.min_open

    def test_two_points_from_two_singletons(self):
        m1 = CtsMap(POINT, DISCRETE2, {"z": "u"})
        m2 = CtsMap(POINT, DISCRETE2, {"z": "v"})
        fs = final_space({"u", "v"}, [m1, m2])
        assert separation_profile(fs).discrete

    @given(finspaces(4), st.data())
    def test_matches_brute_final_topology(self, src, data):
        pts = frozenset({"t0", "t1", "t2"})
        asg = {p: data.draw(st.sampled_from(sorted(pts))) for p in sorted(src.points)}
        dummy_target = FinSpace(pts, {p: pts for p in pts})
        maps = [CtsMap(src, dummy_target, asg)]
        fs = final_space(pts, maps)
        assert dict(fs.min_open) == brute_final_min_open(pts, maps)


def fixpoint_final_min_open(points, maps):
    """Final topology by repeated passes over every image until nothing
    changes: an independent reference for the graph search."""
    images = []
    for m in maps:
        for p, q in m.assignment.items():
            images.append((q, frozenset(m.assignment[r] for r in m.source.min_open[p])))
    min_open = {}
    for x in points:
        u = {x}
        changed = True
        while changed:
            changed = False
            for q, img in images:
                if q in u and not img <= u:
                    u |= img
                    changed = True
        min_open[x] = frozenset(u)
    return min_open


def fuzzed_limits(low=20, high=60):
    for seed in range(60):
        ls = build_fundamental(FuzzGen(seed).cis(max_stages=12, max_points=8))
        if low <= len(ls.x.points) <= high:
            yield seed, ls


class TestFinalSpaceAgainstFixpoint:
    def test_fuzzed_limits_of_their_stages(self):
        seen = 0
        for seed, ls in fuzzed_limits():
            seen += 1
            for maps in (ls.phis, ls.phis[::2], ls.phis[1::3], ls.phis[-1:]):
                fs = final_space(ls.x.points, maps)
                assert dict(fs.min_open) == fixpoint_final_min_open(ls.x.points, maps), seed
        assert seen >= 10

    def test_fuzzed_quotients(self):
        for seed, ls in fuzzed_limits():
            total = ls.rho.source
            rng = random.Random(seed)
            blocks = {}
            for p in sorted(total.points):
                blocks.setdefault(rng.randrange(8), set()).add(p)
            q, proj = quotient(total, list(blocks.values()))
            assert dict(q.min_open) == fixpoint_final_min_open(q.points, [proj]), seed
            again = final_space(ls.x.points, [ls.rho])
            assert again.min_open == ls.x.min_open, seed


class TestFindHomeomorphism:
    def test_self_identity(self, circle4):
        res = find_homeomorphism(circle4, circle4)
        assert res.status == "found"

    def test_sierpinski_vs_discrete(self, sierpinski):
        assert find_homeomorphism(sierpinski, DISCRETE2).status == "none"

    def test_relabelled_circle(self, circle4):
        relabel = {p: p.upper() for p in circle4.points}
        other = FinSpace(
            frozenset(relabel.values()),
            {relabel[p]: frozenset(relabel[q] for q in circle4.min_open[p]) for p in circle4.points},
        )
        res = find_homeomorphism(circle4, other)
        assert res.status == "found"
        prof = classify_map(res.map)
        assert prof.embedding and prof.surjective

    def test_signatures_read_each_closure_table_once(self, circle4, monkeypatch):
        reads = []
        table = FinSpace._point_closures
        monkeypatch.setattr(FinSpace, "_point_closures", lambda s: reads.append(s) or table(s))
        a = product(circle4, circle4)
        b = FinSpace(a.points, dict(a.min_open))
        assert find_homeomorphism(a, b, cap=16).status == "found"
        assert len(reads) == 2

    def test_undecided_above_cap(self, circle4):
        big_a = product(circle4, circle4)
        big_b = product(circle4, circle4)
        res = find_homeomorphism(big_a, big_b, cap=4)
        assert res.status == "undecided"
        assert res.map is None

    @given(finspaces(4), finspaces(4))
    def test_found_maps_are_two_sided_embeddings(self, a, b):
        res = find_homeomorphism(a, b)
        if res.status != "found":
            return
        prof = classify_map(res.map)
        assert prof.embedding and prof.surjective and prof.injective
        inverse = CtsMap(b, a, {v: k for k, v in res.map.assignment.items()})
        assert classify_map(inverse).embedding

    @given(finspaces(4))
    def test_open_set_counts_separate_homeomorphism_classes(self, space):
        # sanity for the "none" fast path: count comparison is sound
        other = FinSpace(space.points, {p: frozenset({p}) for p in space.points})
        if len(open_sets(space)) != len(open_sets(other)):
            assert find_homeomorphism(space, other).status == "none"


class TestComponents:
    def test_point(self):
        assert components(POINT) == frozenset({frozenset({"z"})})

    def test_discrete_two(self):
        assert len(components(DISCRETE2)) == 2

    def test_circle_connected(self, circle4):
        assert len(components(circle4)) == 1

    @given(finspaces())
    def test_components_partition_points(self, space):
        comps = components(space)
        seen = set()
        for c in comps:
            assert not (c & seen)
            seen |= c
        assert seen == set(space.points)


class TestSeparation:
    def test_discrete(self):
        prof = separation_profile(DISCRETE2)
        assert prof.t0 and prof.t1 and prof.discrete

    def test_sierpinski(self, sierpinski):
        prof = separation_profile(sierpinski)
        assert prof.t0 and not prof.t1 and not prof.discrete

    def test_indiscrete(self):
        prof = separation_profile(INDISCRETE2)
        assert not prof.t0 and not prof.t1 and not prof.discrete

    @given(finspaces())
    def test_t1_equals_discrete_for_finite_spaces(self, space):
        prof = separation_profile(space)
        assert prof.t1 == prof.discrete


class TestOracleConsistency:
    @given(finspaces(4))
    def test_open_and_closed_families_are_complementary(self, space):
        opens = set(open_sets(space))
        closeds = set(closed_sets(space))
        assert {space.points - c for c in closeds} == opens

    @given(finspaces(4), st.data())
    def test_compose_preserves_continuity(self, a, data):
        f = data.draw(continuous_maps(source=a))
        g = data.draw(continuous_maps(source=f.target))
        assert classify_map(compose(g, f)).continuous
