import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cislim.cis import Cis, Cutoff, make_stage
from cislim.finspace import (
    CtsMap,
    FinSpace,
    TopologyError,
    classify_map,
    compose,
    find_homeomorphism,
    separation_profile,
)
from cislim.gallery import (
    identity_system,
    interval_chain,
    non_semicomponible,
    sphere_chain,
    sphere_space,
    stationary_sphere,
)
from cislim.limit import (
    InvalidSystemError,
    LimitSpace,
    build_fundamental,
    canonical_bijection,
    cover_profile,
    has_weak_topology,
    images_closed,
    is_perfect_map,
    verify_gluing_laws,
    verify_limit_axioms,
)
from cislim.randgen import FuzzGen, relabel_cis


class TestBuildFundamental:
    def test_identity_system_collapses_to_the_space(self, sierpinski):
        ls = build_fundamental(identity_system(sierpinski, 3))
        res = find_homeomorphism(ls.x, sierpinski)
        assert res.status == "found"
        # all stage maps agree up to that homeomorphism
        seen = {
            tuple(sorted((p, res.map(phi(p))) for p in phi.source.points)) for phi in ls.phis
        }
        assert len(seen) == 1

    def test_sphere_chain_two(self):
        ls = build_fundamental(sphere_chain(2))
        assert len(ls.x.points) == 6
        assert find_homeomorphism(ls.x, sphere_space(2)).status == "found"

    def test_three_stage_partition(self):
        ls = build_fundamental(non_semicomponible())
        assert len(ls.x.points) == 3
        # b glued to d, c glued to e, a alone
        assert ls.phis[0]("b") == ls.phis[1]("d")
        assert ls.phis[1]("c") == ls.phis[2]("e")
        assert ls.phis[0]("a") not in (ls.phis[0]("b"), ls.phis[1]("c"))
        assert ls.phis[0].image() & ls.phis[2].image() == frozenset()

    def test_rejects_invalid_system(self, sierpinski):
        from cislim.cis import Cis, make_stage

        bad = Cis(
            (
                make_stage(sierpinski, {"a"}, sierpinski, {"a": "a"}),
                make_stage(sierpinski, {"b"}, None, None),
            ),
            Cutoff(),
        )
        with pytest.raises(InvalidSystemError):
            build_fundamental(bad)

    def test_carries_the_coproduct_projection(self):
        ls = build_fundamental(interval_chain(2))
        assert ls.rho is not None
        assert classify_map(ls.rho).quotient_map

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_builds_pass_everything(self, seed):
        c = FuzzGen(seed).cis()
        ls = build_fundamental(c)
        assert verify_limit_axioms(c, ls).passed
        assert verify_gluing_laws(c, ls).passed
        assert has_weak_topology(c, ls)
        assert images_closed(ls).value


class TestVerify:
    def test_broken_embedding_reported_with_witness(self, sierpinski):
        c = identity_system(sierpinski, 2)
        indiscrete = FinSpace(frozenset("ab"), {"a": frozenset("ab"), "b": frozenset("ab")})
        phis = tuple(CtsMap(sierpinski, indiscrete, {"a": "a", "b": "b"}) for _ in range(2))
        rep = verify_limit_axioms(c, LimitSpace(indiscrete, phis))
        assert not rep.passed
        emb = rep.check("embeddings")
        assert not emb.passed and emb.witnesses

    def test_forced_overlap_breaks_pointwise_clause(self):
        c = non_semicomponible()
        ls = build_fundamental(c)
        # send the lone point of stage 2 onto stage 0's territory
        bad_phi2 = CtsMap(ls.phis[2].source, ls.x, {"e": ls.phis[0]("a")})
        cand = LimitSpace(ls.x, (ls.phis[0], ls.phis[1], bad_phi2))
        rep = verify_limit_axioms(c, cand)
        assert not rep.passed
        assert not rep.check("disjointness").passed or not rep.check("overlap").passed

    def test_stage_mismatch_is_hard_error(self, sierpinski):
        c = identity_system(sierpinski, 2)
        ls = build_fundamental(c)
        with pytest.raises(TopologyError, match="structure maps"):
            verify_limit_axioms(c, LimitSpace(ls.x, ls.phis[:1]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_both_verifiers_agree_on_mutants(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        ls = build_fundamental(c)
        kind, cand = gen.mutate_candidate(ls)
        a = verify_limit_axioms(c, cand)
        b = verify_gluing_laws(c, cand)
        assert a.passed == b.passed, (kind, a.render(), b.render())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weak_topology_implies_closed_images(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        ls = build_fundamental(c)
        _, cand = gen.mutate_candidate(ls)
        if verify_limit_axioms(c, cand).passed and has_weak_topology(c, cand):
            assert images_closed(cand).value

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closed_cover_forces_weak_topology(self, seed):
        # candidates passing the axioms with every image closed are fundamental
        gen = FuzzGen(seed)
        c = gen.cis()
        ls = build_fundamental(c)
        _, cand = gen.mutate_candidate(ls)
        if verify_limit_axioms(c, cand).passed and images_closed(cand).value:
            assert has_weak_topology(c, cand)

    def test_verifier_renders_are_pinned_on_mutants(self):
        # stdout contract: every witness line, in order, over a fixed mutant corpus
        h = hashlib.sha256()
        for seed in range(200):
            gen = FuzzGen(seed)
            c = gen.cis()
            ls = build_fundamental(c)
            kind, cand = gen.mutate_candidate(ls)
            for rep in (verify_limit_axioms(c, cand), verify_gluing_laws(c, cand)):
                h.update(f"{seed} {kind}\n{rep.render()}\n".encode())
        assert h.hexdigest() == (
            "5f9c3e94cb9720b432f97b0278ed6af4139e79e167cbef921bf5384391deb732"
        )

    def test_adjacent_stages_with_empty_gluing_set_stay_linked(self):
        # Y_0 is empty, yet f_0 always transits: an overlap of adjacent stages
        # is an overlap failure, never a disjointness failure
        x0 = FinSpace(frozenset({"a"}), {"a": frozenset({"a"})})
        x1 = FinSpace(frozenset({"b"}), {"b": frozenset({"b"})})
        c = Cis((make_stage(x0, set(), x1, {}), make_stage(x1, set(), None, None)), Cutoff())
        pt = FinSpace(frozenset({"p"}), {"p": frozenset({"p"})})
        cand = LimitSpace(pt, (CtsMap(x0, pt, {"a": "p"}), CtsMap(x1, pt, {"b": "p"})))
        assert verify_limit_axioms(c, cand).render() == (
            "cover: pass\n"
            "embeddings: pass\n"
            "overlap: FAIL\n"
            "  witness: stages 0,1: images meet in ['p'] but the transit lands on []\n"
            "  witness: stages 0,1: a and b collide at p but a is outside the transit domain\n"
            "disjointness: pass"
        )
        assert verify_gluing_laws(c, cand).render() == (
            "cover: pass\n"
            "embeddings: pass\n"
            "gluing agreement: pass\n"
            "off-locus disjointness: FAIL\n"
            "  witness: stages 0,1: points ['p'] collide away from the gluing locus\n"
            "disjointness: pass"
        )


class TestCanonicalBijection:
    def test_identity_when_compared_with_itself(self):
        c = sphere_chain(1)
        ls = build_fundamental(c)
        beta = canonical_bijection(c, ls, ls)
        assert beta.assignment == {p: p for p in ls.x.points}

    def test_relabelled_rebuild_gives_homeomorphism(self):
        gen = FuzzGen(3)
        c = sphere_chain(2)
        ls = build_fundamental(c)
        tables = gen.relabel_tables(c)
        c2 = relabel_cis(c, tables)
        ls2 = build_fundamental(c2)
        # express the rebuilt limit as a second limit for the original system
        phis = tuple(
            CtsMap(st.space, ls2.x, {p: phi(tables[i][p]) for p in st.space.points})
            for i, (st, phi) in enumerate(zip(c.stages, ls2.phis))
        )
        cand = LimitSpace(ls2.x, phis)
        assert verify_limit_axioms(c, cand).passed
        beta = canonical_bijection(c, ls, cand)
        prof = classify_map(beta)
        assert prof.embedding and prof.surjective
        for phi, psi in zip(ls.phis, cand.phis):
            for p in phi.source.points:
                assert beta(phi(p)) == psi(p)

    def test_composition_law(self):
        gen = FuzzGen(5)
        c = FuzzGen(1).cis()
        ls_a = build_fundamental(c)

        def relabelled_candidate():
            tables = gen.relabel_tables(c)
            c2 = relabel_cis(c, tables)
            ls2 = build_fundamental(c2)
            phis = tuple(
                CtsMap(st.space, ls2.x, {p: phi(tables[i][p]) for p in st.space.points})
                for i, (st, phi) in enumerate(zip(c.stages, ls2.phis))
            )
            return LimitSpace(ls2.x, phis)

        ls_b = relabelled_candidate()
        ls_c = relabelled_candidate()
        ab = canonical_bijection(c, ls_a, ls_b)
        bc = canonical_bijection(c, ls_b, ls_c)
        ac = canonical_bijection(c, ls_a, ls_c)
        assert compose(bc, ab).assignment == ac.assignment

    def test_non_fundamental_candidate_breaks_continuity_one_way(self):
        from cislim.gallery import search_non_fundamental

        c = non_semicomponible()
        found = search_non_fundamental(c, cap=4).found
        assert found  # the finite analogue of a non-fundamental limit exists
        ls = build_fundamental(c)
        cand = found[0]
        beta = canonical_bijection(c, ls, cand)
        back = canonical_bijection(c, cand, ls)
        assert classify_map(beta).continuous  # out of the fundamental one: always
        assert not classify_map(back).continuous

    def test_rejects_axiom_failures(self, sierpinski):
        c = identity_system(sierpinski, 2)
        ls = build_fundamental(c)
        indiscrete = FinSpace(frozenset("ab"), {"a": frozenset("ab"), "b": frozenset("ab")})
        bad = LimitSpace(
            indiscrete, tuple(CtsMap(sierpinski, indiscrete, {"a": "a", "b": "b"}) for _ in range(2))
        )
        with pytest.raises(TopologyError, match="axioms"):
            canonical_bijection(c, ls, bad)


class TestCoverAndPerfect:
    def test_interval_chain_cover(self):
        ls = build_fundamental(interval_chain(3))
        prof = cover_profile(ls)
        assert prof.pointwise_finite and prof.locally_finite and prof.closed_cover
        assert prof.max_point_multiplicity == 2  # shared endpoints only

    def test_sphere_chain_cover(self):
        ls = build_fundamental(sphere_chain(2))
        prof = cover_profile(ls)
        assert prof.closed_cover
        assert prof.max_point_multiplicity == 3  # poles sit inside every stage

    def test_rho_perfect_for_finitely_semicomponible(self):
        ls = build_fundamental(interval_chain(4))
        assert is_perfect_map(ls.rho)

    def test_rho_perfect_for_stationary(self):
        ls = build_fundamental(stationary_sphere(2))
        assert is_perfect_map(ls.rho)

    def test_non_surjective_inclusion_not_perfect(self, circle4):
        from cislim.finspace import subspace

        _, incl = subspace(circle4, {"a", "b"})
        assert not is_perfect_map(incl)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_discrete_stages_give_discrete_limits(self, seed):
        c = FuzzGen(seed).cis(discrete=True)
        ls = build_fundamental(c)
        assert separation_profile(ls.x).discrete
