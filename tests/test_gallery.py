import hashlib

import pytest

from conftest import raises_exactly
from cislim import interchange
from cislim.cat import check_limit_compatibility
from cislim.cis import is_finitely_semicomponible, is_inductive, semicomponible, validate_cis
from cislim.finspace import TopologyError, classify_map, find_homeomorphism
from cislim.gallery import (
    MAX_CHAIN,
    MAX_SEARCH_POINTS,
    MAX_TORUS,
    build_example,
    interval_chain,
    non_semicomponible,
    point_space,
    search_non_fundamental,
    sierpinski_space,
    sphere_chain,
    sphere_space,
    stationary_sphere,
    torus_chain,
    torus_space,
    identity_system,
)
from cislim.homology import betti_mod2, order_complex
from cislim.limit import (
    build_fundamental,
    cover_profile,
    has_weak_topology,
    images_closed,
    verify_limit_axioms,
)
from cislim.randgen import FuzzGen, point_system


class TestBuilders:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("identity", ("sierpinski", 3)),
            ("identity", ("point", 2)),
            ("sphere_chain", (2,)),
            ("stationary_sphere", (2,)),
            ("torus_chain", (2,)),
            ("interval_chain", (3,)),
            ("non_semicomponible", ()),
        ],
    )
    def test_every_gallery_system_validates(self, name, params):
        assert validate_cis(build_example(name, *params)).ok

    def test_caps_enforced(self):
        with pytest.raises(TopologyError, match="within"):
            build_example("sphere_chain", 9)
        with pytest.raises(TopologyError, match="within"):
            build_example("torus_chain", 5)
        with pytest.raises(TopologyError, match="unknown"):
            build_example("moebius_chain")

    def test_builders_refuse_sizes_below_their_least(self):
        with raises_exactly(TopologyError, "sphere dimension must be >= 0"):
            sphere_space(-1)
        with raises_exactly(TopologyError, "torus dimension must be >= 1"):
            torus_space(0)
        with raises_exactly(TopologyError, "need at least one stage"):
            identity_system(point_space(), 0)

    def test_sphere_chain_structure(self):
        c = sphere_chain(2)
        assert is_inductive(c)
        for i in range(2):
            prof = classify_map(c.stages[i].f)
            assert prof.continuous and prof.closed and prof.injective and prof.embedding

    def test_sphere_models_nest_as_closed_subspaces(self):
        for n in range(3):
            small, big = sphere_space(n), sphere_space(n + 1)
            assert small.points < big.points
            assert big.is_closed(small.points)

    def test_interval_chain_finitely_semicomponible(self):
        c = interval_chain(3)
        assert is_finitely_semicomponible(c).value
        for i in range(2):
            assert not semicomponible(c, i, i + 1)

    def test_identity_stationary_capable(self, sierpinski):
        c = identity_system(sierpinski, 3, stationary=True)
        assert validate_cis(c).ok and is_inductive(c)


def gallery_examples():
    """(name, params, stationary) for every system the gallery can build."""
    chain = range(1, MAX_CHAIN + 1)
    examples = [("identity", (base, n)) for base in ("circle", "point", "sierpinski")
                for n in chain]
    examples += [("sphere_chain", (n,)) for n in range(MAX_CHAIN + 1)]
    examples += [("stationary_sphere", (n,)) for n in range(MAX_CHAIN + 1)]
    examples += [("torus_chain", (n,)) for n in range(1, MAX_TORUS + 1)]
    examples += [("interval_chain", (n,)) for n in chain]
    examples += [("non_semicomponible", ())]
    for name, params in examples:
        for stationary in (False, True) if name in ("identity", "sphere_chain") else (False,):
            yield name, params, stationary


class TestPinnedDocuments:
    def test_gallery_and_generator_documents_are_pinned(self):
        # every system document the gallery and the generators emit, byte for byte
        h = hashlib.sha256()
        for name, params, stationary in gallery_examples():
            c = build_example(name, *params, stationary=stationary)
            h.update(f"{name} {params} {stationary}\n".encode())
            h.update(interchange.dumps(interchange.cis_to_doc(c)).encode())
        for seed in range(200):
            gen = FuzzGen(seed)
            c = gen.cis()
            docs = [
                interchange.cis_to_doc(c),
                interchange.cis_to_doc(gen.relabelled(c)),
                interchange.morphism_to_doc(gen.morphism(c)),
                interchange.diagram_to_doc(gen.diagram(c, 3)),
            ]
            pt, collapse = point_system(c)
            docs += [interchange.cis_to_doc(pt), interchange.morphism_to_doc(collapse)]
            h.update(f"seed {seed}\n".encode())
            for doc in docs:
                h.update(interchange.dumps(doc).encode())
        assert h.hexdigest() == (
            "54fc0129b60aaacc04a11723340a32b576f4bad6306b535fe97cdf734b84f69a"
        )

    def test_built_limit_documents_are_pinned(self):
        # every built limit document, byte for byte: gallery systems, fuzzed
        # systems of each kind, and the glued columns of fuzzed direct limits
        h = hashlib.sha256()

        def pin(label, ls):
            h.update(f"{label}\n".encode())
            h.update(interchange.dumps(interchange.limit_to_doc(ls)).encode())

        for name, params, stationary in gallery_examples():
            pin(f"{name} {params} {stationary}",
                build_fundamental(build_example(name, *params, stationary=stationary)))
        for seed in range(200):
            for kw in ({}, {"inductive": True}, {"stationary": True}):
                pin(f"seed {seed} {kw}", build_fundamental(FuzzGen(seed).cis(**kw)))
            gen = FuzzGen(seed)
            rep = check_limit_compatibility(gen.diagram(gen.cis(), 3))
            for i, col in enumerate(rep.direct_limit.column_limits):
                pin(f"seed {seed} column {i}", col)
        assert h.hexdigest() == (
            "0de1e0d17db4d2d2c82ad9cdc2f760edf9c1a4c1ce1bbfc833b0cd01140dce58"
        )


class TestLimits:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_sphere_chain_limit_is_the_sphere_model(self, n):
        ls = build_fundamental(sphere_chain(n))
        assert find_homeomorphism(ls.x, sphere_space(n)).status == "found"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_chain_limit_betti(self, n):
        ls = build_fundamental(sphere_chain(n))
        expected = [1] + [0] * (n - 1) + [1]
        assert betti_mod2(order_complex(ls.x), n) == expected

    def test_interval_chain_cover_is_locally_finite_and_closed(self):
        ls = build_fundamental(interval_chain(4))
        prof = cover_profile(ls)
        assert prof.locally_finite and prof.closed_cover
        assert images_closed(ls).value

    def test_interval_chain_limit_is_contractible(self):
        ls = build_fundamental(interval_chain(4))
        assert betti_mod2(order_complex(ls.x), 2) == [1, 0, 0]

    def test_stationary_sphere_limit(self):
        ls = build_fundamental(stationary_sphere(2))
        assert find_homeomorphism(ls.x, sphere_space(2)).status == "found"

    def test_torus_chain_limit_betti(self):
        ls = build_fundamental(torus_chain(2))
        assert betti_mod2(order_complex(ls.x), 2) == [1, 2, 1]


class TestSearchNonFundamental:
    def test_one_point_identity_finds_nothing(self):
        res = search_non_fundamental(identity_system(point_space(), 2), cap=4)
        assert res.status == "completed"
        assert res.found == ()
        assert res.examined == 1  # one topology on one point

    def test_sierpinski_identity_finds_nothing(self):
        res = search_non_fundamental(identity_system(sierpinski_space(), 2), cap=4)
        assert res.status == "completed"
        assert res.examined == 4  # the four topologies on two points
        assert res.found == ()

    def test_three_stage_example_has_a_non_fundamental_limit(self):
        # recorded exploration outcome: the finite analogue of a limit space
        # that is not fundamental does exist
        res = search_non_fundamental(non_semicomponible(), cap=4)
        assert res.status == "completed"
        assert res.examined == 29  # preorders on three points
        assert len(res.found) == 1
        cand = res.found[0]
        c = non_semicomponible()
        assert verify_limit_axioms(c, cand).passed
        assert not has_weak_topology(c, cand)
        # consistent with the closed-cover theorem: some image must be open-ish
        assert not images_closed(cand).value

    def test_cap_exceeded_is_explicit(self):
        res = search_non_fundamental(sphere_chain(2), cap=3)
        assert res.status == "undecided"
        assert res.found == ()
        assert res.cap == 3

    def test_the_default_cap_is_four(self):
        # a 4-point limit is searched as under cap=4; a 5-point one is left undecided
        c = sphere_chain(1)
        res, capped = search_non_fundamental(c), search_non_fundamental(c, cap=4)
        assert (res.status, res.found, res.examined, res.cap) == (
            capped.status, capped.found, capped.examined, capped.cap
        ) == ("completed", (), 355, 4)
        assert len(build_fundamental(interval_chain(2)).x.points) == 5
        res = search_non_fundamental(interval_chain(2))
        assert (res.status, res.found, res.examined, res.cap) == ("undecided", (), 0, 4)

    def test_a_negative_cap_is_refused(self):
        with pytest.raises(TopologyError, match=r"^cap must be >= 0, got -1$"):
            search_non_fundamental(non_semicomponible(), cap=-1)

    @pytest.mark.parametrize("cap", [MAX_SEARCH_POINTS + 1, 100])
    def test_caps_above_the_search_limit_are_lowered_to_it(self, cap):
        # sphere_chain(2) has a 6-point limit: 2^30 relations under a cap of 6
        res = search_non_fundamental(sphere_chain(2), cap=cap)
        assert (res.status, res.examined, res.cap) == ("undecided", 0, MAX_SEARCH_POINTS)
        small = search_non_fundamental(non_semicomponible(), cap=cap)
        assert (small.status, small.examined, small.cap) == ("completed", 29, MAX_SEARCH_POINTS)

    def test_found_candidates_are_strictly_coarser(self):
        c = non_semicomponible()
        base = build_fundamental(c)
        for cand in search_non_fundamental(c, cap=4).found:
            for p in base.x.points:
                assert base.x.min_open[p] <= cand.x.min_open[p]
