import hashlib
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    UnionFind,
    coproduct_attaching_space,
    final_space_weak_topology,
    full_stage_pairs,
    pairwise_gluing_laws,
    pairwise_limit_axioms,
    projection,
    scan_cover_profile,
)
from conftest import first_leg_swapped
from cislim import limit
from cislim.cis import Cis, Cutoff, Stage, make_cis, make_stage
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
from conftest import finspaces, rebuilt_candidate, rebuilt_cis, rebuilt_space


@st.composite
def layered_maps(draw, max_layers: int = 5, max_points: int = 4):
    """Spaces in a row, each with a partial map into the next: neither
    injective nor continuous, as the direct-limit columns allow."""
    spaces = draw(st.lists(finspaces(max_points), min_size=1, max_size=max_layers))
    attachments = []
    for here, there in zip(spaces, spaces[1:]):
        targets = st.none() | st.sampled_from(sorted(there.points))
        drawn = {y: draw(targets) for y in sorted(here.points)}
        attachments.append({y: z for y, z in drawn.items() if z is not None})
    return spaces, attachments


def retopologized(ls: LimitSpace, min_open) -> LimitSpace:
    """The candidate with the same structure maps into the same points carrying `min_open`."""
    x = FinSpace(ls.x.points, min_open)
    return LimitSpace(x, tuple(CtsMap(phi.source, x, phi.assignment) for phi in ls.phis))


def discrete_and_indiscrete(ls: LimitSpace) -> list[LimitSpace]:
    """The candidate retopologized discrete, where a structure map on a
    non-discrete stage is not continuous, and indiscrete."""
    pts = ls.x.points
    return [
        retopologized(ls, {p: frozenset([p]) for p in pts}),
        retopologized(ls, {p: pts for p in pts}),
    ]


def assert_matches_the_coproduct_oracle(spaces, attachments):
    ls = limit.attaching_space(spaces, attachments)
    want, rho = coproduct_attaching_space(spaces, attachments)
    assert ls.x.points == want.x.points
    assert ls.x.min_open == want.x.min_open
    assert [phi.assignment for phi in ls.phis] == [phi.assignment for phi in want.phis]
    assert projection(ls) == rho
    # the weak-topology fixpoint against its oracle: with partial maps that are
    # neither injective nor continuous, a final open can need successors of
    # successors, which the seeds alone miss
    c = make_cis(spaces, [*map(frozenset, attachments), frozenset()], attachments)
    assert has_weak_topology(c, ls)
    for cand in discrete_and_indiscrete(ls):
        assert has_weak_topology(c, cand) == final_space_weak_topology(cand)


class TestAttachingSpace:
    @given(layered_maps())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_coproduct_quotient_oracle(self, drawn):
        assert_matches_the_coproduct_oracle(*drawn)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_on_fuzzed_systems_and_columns(self, seed):
        gen = FuzzGen(seed)
        c = gen.cis()
        assert_matches_the_coproduct_oracle(
            [stage.space for stage in c.stages], [stage.f.assignment for stage in c.stages[:-1]]
        )
        d = gen.diagram(c, 3)  # arrow stage maps need not be injective
        for i in range(c.stage_count):
            assert_matches_the_coproduct_oracle(
                [o.stages[i].space for o in d.objects], [arr.h[i].assignment for arr in d.arrows]
            )

    @given(layered_maps())
    @settings(max_examples=200, deadline=None)
    def test_partition_matches_the_union_find_oracle(self, drawn):
        spaces, attachments = drawn
        ls = limit.attaching_space(spaces, attachments)
        rho = projection(ls)
        uf = UnionFind(rho.source.points)
        for n, att in enumerate(attachments):
            for y, z in att.items():
                uf.union(f"{n}:{y}", f"{n + 1}:{z}")
        blocks = {}
        for p, q in rho.assignment.items():
            blocks.setdefault(q, set()).add(p)
        assert {frozenset(b) for b in blocks.values()} == uf.classes()
        for n, phi in enumerate(ls.phis):
            assert all(phi(y) == rho(f"{n}:{y}") for y in phi.source.points)

    def test_merging_orbits_share_one_point(self, sierpinski):
        # a, b -> a -> b: both stage-0 points end at stage 2's b
        ls = limit.attaching_space([sierpinski] * 3, [{"a": "a", "b": "a"}, {"a": "b"}])
        assert len(ls.x.points) == 3
        assert ls.phis[0]("a") == ls.phis[0]("b") == ls.phis[1]("a") == ls.phis[2]("b")
        assert ls.phis[1]("b") not in ls.phis[0].image() | ls.phis[2].image()

    @pytest.mark.parametrize("att", [{"z": "a"}, {"a": "z"}])
    def test_stray_attachment_key_or_value_raises(self, sierpinski, att):
        with pytest.raises(KeyError, match="z"):
            limit.attaching_space([sierpinski, sierpinski], [att])


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
        assert classify_map(projection(ls)).quotient_map

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_builds_pass_everything(self, seed):
        c = FuzzGen(seed).cis()
        ls = build_fundamental(c)
        assert verify_limit_axioms(c, ls).passed
        assert verify_gluing_laws(c, ls).passed
        assert has_weak_topology(c, ls)
        assert images_closed(ls).value


class TestConstructionSelfChecks:
    """Fault injection: a construction step that returns a wrong answer makes
    `build_fundamental` raise its construction-bug RuntimeError."""

    def test_a_limit_failing_its_axioms_is_a_construction_bug(self, monkeypatch):
        real = limit.attaching_space
        monkeypatch.setattr(limit, "attaching_space", lambda *a: first_leg_swapped(real(*a)))
        with pytest.raises(RuntimeError, match="^construction bug: built limit fails its axioms\n"):
            build_fundamental(identity_system(_discrete("u", "v"), 2))

    def test_a_limit_lacking_the_weak_topology_is_a_construction_bug(self, monkeypatch):
        from cislim.gallery import search_non_fundamental

        c = non_semicomponible()
        (coarser,) = search_non_fundamental(c, cap=4).found  # passes the axioms
        monkeypatch.setattr(limit, "attaching_space", lambda spaces, attachments: coarser)
        with pytest.raises(
            RuntimeError, match="^construction bug: built limit lacks the weak topology$"
        ):
            build_fundamental(c)


class TestWeakTopology:
    """The fixpoint in `has_weak_topology` against the `final_space` oracle;
    `assert_matches_the_coproduct_oracle` checks it on attaching spaces."""

    def test_needs_the_successor_step(self, sierpinski):
        # stage 0's b is glued onto stage 1's a; U_b = {a, b} in both stages, so
        # the final U of stage 1's b reaches stage 0's a only through the glued point
        c = make_cis([sierpinski, sierpinski], [frozenset("b"), frozenset()], [{"b": "a"}])
        ls = limit.attaching_space([sierpinski, sierpinski], [{"b": "a"}])
        assert ls.x.min_open[ls.phis[1]("b")] == ls.x.points
        assert has_weak_topology(c, ls)

    def test_matches_the_oracle_on_built_limits_and_mutants(self):
        seen = Counter()
        for seed in range(60):
            gen = FuzzGen(seed)
            c = gen.cis(inductive=seed % 2 == 1)
            ls = build_fundamental(c)
            mutants = [gen.mutate_candidate(ls)[1] for _ in range(4)]
            for cand in [ls, *discrete_and_indiscrete(ls), *mutants]:
                weak = has_weak_topology(c, cand)
                assert weak == final_space_weak_topology(cand), seed
                seen[weak, all(classify_map(phi).continuous for phi in cand.phis)] += 1
        # fundamental, coarser than final, and not even continuous all occur
        assert seen[True, True] and seen[False, True] and seen[False, False]

    def test_a_structure_map_off_the_limit_points_raises(self, sierpinski):
        c = identity_system(sierpinski, 2)
        ls = build_fundamental(c)
        ls.phis[1].assignment["a"] = "elsewhere"  # an edit in place, past CtsMap's own check
        with pytest.raises(
            TopologyError, match=r"^structure map 1 leaves the limit space at \['elsewhere'\]$"
        ):
            has_weak_topology(c, ls)


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

    def test_a_structure_map_on_another_space_is_a_hard_error(self, sierpinski):
        c = identity_system(sierpinski, 2)
        ls = build_fundamental(c)
        pts = sierpinski.points
        indiscrete = FinSpace(pts, {p: pts for p in pts})
        cand = LimitSpace(ls.x, (ls.phis[0], CtsMap(indiscrete, ls.x, ls.phis[1].assignment)))
        for check in (verify_limit_axioms, verify_gluing_laws, has_weak_topology):
            with pytest.raises(TopologyError, match="structure map 1 is not defined on stage 1"):
                check(c, cand)
        # a stage space equal to its own, but built anew, is the stage's
        twin = CtsMap(rebuilt_space(sierpinski), ls.x, ls.phis[1].assignment)
        assert verify_limit_axioms(c, LimitSpace(ls.x, (ls.phis[0], twin))).passed

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


def _window(c: Cis, start: int, length: int) -> Cis:
    """Stages start .. start+length-1 of c as a cutoff system."""
    stages = list(c.stages[start:start + length])
    stages[-1] = Stage(stages[-1].space, stages[-1].y, None)
    return Cis(tuple(stages), Cutoff())


def _discrete(*points):
    return FinSpace(frozenset(points), {p: frozenset({p}) for p in points})


class _Reads(Mapping):
    """A read-through view of a table of the stage-pair walk that logs
    every key read from it."""

    def __init__(self, table, log):
        self.table, self.log = table, log

    def __getitem__(self, key):
        self.log.append(key)
        return self.table[key]

    def __iter__(self):
        for key in self.table:
            self.log.append(key)
            yield key

    def __len__(self):
        return len(self.table)


def walked_pairs(c: Cis, ls: LimitSpace):
    """The stage pairs of `limit._pair_classes` as (i, j, linked, transit),
    each transit read back in stage i's point names, in pair order."""
    names, place = limit._placed(ls)
    pairs = []
    for j, live, dead, _ in limit._pair_classes(c, names, place):
        for (t, _), members in live.items():
            pairs += [(i, j, True, {x: z for x, z in zip(names[i], t) if z is not None})
                      for i in members]
        pairs += [(i, j, i == j - 1, {}) for members in dead.values() for i in members]
    return sorted(pairs, key=lambda w: w[:2])


class TestPerPointVerdict:
    """`verify_limit_axioms` decides overlaps and disjointness per point and
    walks stage pairs only to name witnesses; the pairwise walk is the
    reference it must agree with."""

    @staticmethod
    def _pairwise(monkeypatch, c, cand):
        with monkeypatch.context() as m:
            m.setattr(limit, "_orbits_agree", lambda c, ls: False)
            return verify_limit_axioms(c, cand)

    def test_matches_the_pairwise_walk(self, monkeypatch):
        verdicts = []
        for seed in range(400):
            gen = FuzzGen(seed)
            c = gen.cis()
            ls = build_fundamental(c)
            for cand in [ls] + [gen.mutate_candidate(ls)[1] for _ in range(6)]:
                slow = self._pairwise(monkeypatch, c, cand)
                assert verify_limit_axioms(c, cand) == slow, seed
                pairwise_ok = slow.check("overlap").passed and slow.check("disjointness").passed
                ok = limit._orbits_agree(c, cand)
                if ok:  # sound: a per-point pass is a pairwise pass
                    assert pairwise_ok, (seed, slow.render())
                if all(classify_map(phi).injective for phi in cand.phis):
                    assert ok == pairwise_ok, (seed, slow.render())
                verdicts.append(ok)
        assert verdicts.count(True) > 1000 and verdicts.count(False) > 500  # both paths run

    def test_one_step_disagreement_is_caught_by_the_gluing_check(self):
        # every limit point has one preimage, so only the check that each
        # gluing lands on the point its source maps to can fail
        x0, x1 = _discrete("a"), _discrete("b")
        c = Cis((make_stage(x0, {"a"}, x1, {"a": "b"}), make_stage(x1, set(), None, None)), Cutoff())
        lim = _discrete("p", "q")
        cand = LimitSpace(lim, (CtsMap(x0, lim, {"a": "p"}), CtsMap(x1, lim, {"b": "q"})))
        assert not limit._orbits_agree(c, cand)
        assert verify_limit_axioms(c, cand).render() == (
            "cover: pass\n"
            "embeddings: pass\n"
            "overlap: FAIL\n"
            "  witness: stages 0,1: images meet in [] but the transit lands on ['q']\n"
            "disjointness: pass"
        )

    def test_orbit_gap_is_caught_by_the_orbit_check(self):
        # nothing is glued, so the gluing check holds vacuously; p has
        # preimages in stages 0 and 2 but none in stage 1
        x0, x1, x2 = _discrete("a"), _discrete("b"), _discrete("c")
        c = Cis(
            (
                make_stage(x0, set(), x1, {}),
                make_stage(x1, set(), x2, {}),
                make_stage(x2, set(), None, None),
            ),
            Cutoff(),
        )
        lim = _discrete("p", "q")
        cand = LimitSpace(
            lim,
            (CtsMap(x0, lim, {"a": "p"}), CtsMap(x1, lim, {"b": "q"}), CtsMap(x2, lim, {"c": "p"})),
        )
        assert not limit._orbits_agree(c, cand)
        assert verify_limit_axioms(c, cand).render() == (
            "cover: pass\n"
            "embeddings: pass\n"
            "overlap: pass\n"
            "disjointness: FAIL\n"
            "  witness: stages 0,2 cannot interact but share ['p']"
        )

    def test_passing_candidates_walk_no_stage_pairs(self, monkeypatch):
        def no_pairs(c, names, place):
            raise AssertionError("stage pairs walked for a passing candidate")

        monkeypatch.setattr(limit, "_pair_classes", no_pairs)
        c = identity_system(sphere_space(2), 320)
        ls = build_fundamental(c)
        assert verify_limit_axioms(c, ls).passed

    def test_failing_candidates_still_name_pair_witnesses(self, monkeypatch):
        walked = []
        pairs = limit._pair_classes
        monkeypatch.setattr(
            limit, "_pair_classes", lambda c, *order: walked.append(c) or pairs(c, *order)
        )
        c = identity_system(sphere_space(2), 4)
        ls = build_fundamental(c)
        assert not walked
        phi = ls.phis[2]
        a, b = sorted(phi.source.points)[:2]
        swapped = CtsMap(phi.source, phi.target, {**phi.assignment, a: phi(b), b: phi(a)})
        rep = verify_limit_axioms(c, LimitSpace(ls.x, ls.phis[:2] + (swapped,) + ls.phis[3:]))
        assert walked
        assert not rep.check("overlap").passed
        assert any(w.startswith("stages 1,2: ") for w in rep.check("overlap").witnesses)

    def test_failing_candidates_find_witnesses_once_per_class(self, monkeypatch):
        # stage 40 of an 80-stage identity tower is placed with two points
        # swapped: 3,160 stage pairs are linked, in about two classes per
        # later stage, and only the pairs through stage 40 have witnesses
        c = identity_system(sphere_space(2), 80)
        ls = build_fundamental(c)
        phi = ls.phis[40]
        a, b = sorted(phi.source.points)[:2]
        swapped = CtsMap(phi.source, phi.target, {**phi.assignment, a: phi(b), b: phi(a)})
        cand = LimitSpace(ls.x, ls.phis[:40] + (swapped,) + ls.phis[41:])
        pushes = []
        call = CtsMap.__call__
        monkeypatch.setattr(CtsMap, "__call__", lambda m, p: pushes.append(p) or call(m, p))
        rep = verify_limit_axioms(c, cand)
        # each stage point is pushed once, to group its stage's fibres, not once per pair
        assert len(pushes) == sum(len(st.space.points) for st in c.stages)
        monkeypatch.undo()
        assert rep.render() == pairwise_limit_axioms(c, cand).render()
        assert len(rep.check("overlap").witnesses) == 2 * 79  # two per pair through stage 40


class TestGluingLaws:
    """`verify_gluing_laws` against `pairwise_gluing_laws`, which walks every
    transit to the last stage (`full_stage_pairs`), sorts every transit and
    builds the off-locus sets for every linked pair; and the witnesses that
    `verify_limit_axioms` names from the same class walk against
    `pairwise_limit_axioms`, which names them pair by pair."""

    def test_matches_the_pairwise_oracle(self):
        draws = {
            "default": {}, "inductive": {"inductive": True}, "stationary": {"stationary": True}
        }
        failed = Counter()
        for seed in range(40):
            for kind, options in draws.items():
                gen = FuzzGen(seed)
                c = gen.cis(**options)
                ls = build_fundamental(c)
                assert walked_pairs(c, ls) == list(full_stage_pairs(c)), (kind, seed)
                for cand in [ls] + [gen.mutate_candidate(ls)[1] for _ in range(4)]:
                    rep = verify_gluing_laws(c, cand)
                    assert rep.render() == pairwise_gluing_laws(c, cand).render(), (kind, seed)
                    failed.update(ch.name for ch in rep.checks if not ch.passed)
                    rep = verify_limit_axioms(c, cand)
                    assert rep.render() == pairwise_limit_axioms(c, cand).render(), (kind, seed)
                    failed.update(f"axioms {ch.name}" for ch in rep.checks if not ch.passed)
        # every pairwise check fails somewhere, so each one's witnesses are compared
        assert failed["gluing agreement"] and failed["off-locus disjointness"]
        assert failed["disjointness"]
        assert failed["axioms overlap"] and failed["axioms disjointness"]

    def test_matches_the_pairwise_oracle_on_long_systems(self, monkeypatch):
        # long systems, where many pairs ending at one stage share a class:
        # identity systems and windows of 20-80 stages of inductive and loose
        # draws.  Each also gets four mutants and one in which a single stage
        # sharing its image with another stage swaps two points, which moves
        # it out of the class it would share.
        systems = [identity_system(sphere_space(1), 20), identity_system(sphere_space(2), 80)]
        for seed in range(6):
            gen = FuzzGen(seed)
            length = (20, 40, 80)[seed % 3]
            for inductive in (True, False):
                c = gen.cis(max_stages=3 * length, stationary=False, inductive=inductive)
                while c.stage_count < length:
                    c = gen.cis(max_stages=3 * length, stationary=False, inductive=inductive)
                systems.append(_window(c, gen.rng.randrange(c.stage_count - length + 1), length))
        steps = self._count_steps(monkeypatch)
        pairs = 0
        failed = Counter()
        drawn = []
        for n, c in enumerate(systems):
            gen = FuzzGen(1000 + n)
            ls = build_fundamental(c)
            images = [phi.image() for phi in ls.phis]
            k = gen.rng.choice(
                [i for i, img in enumerate(images) if len(img) > 1 and images.count(img) > 1]
            )
            a, b = gen.rng.sample(sorted(ls.phis[k].source.points), 2)
            phi = ls.phis[k]
            moved = CtsMap(phi.source, ls.x, {**phi.assignment, a: phi(b), b: phi(a)})
            cands = [ls, LimitSpace(ls.x, ls.phis[:k] + (moved,) + ls.phis[k + 1:])]
            cands += [gen.mutate_candidate(ls)[1] for _ in range(4)]
            for cand in cands:
                rep = verify_gluing_laws(c, cand)
                assert rep.render() == pairwise_gluing_laws(c, cand).render(), n
                failed.update(ch.name for ch in rep.checks if not ch.passed)
                drawn.append((n, c, cand))
            assert not verify_gluing_laws(c, cands[1]).check("gluing agreement").passed, n
            pairs += len(cands) * c.stage_count * (c.stage_count - 1) // 2
        assert len(steps) * 5 < pairs  # most pairs share their class's step
        assert failed["gluing agreement"] and failed["off-locus disjointness"]
        assert failed["disjointness"]
        # the axiom verifier's failure path steps the same classes, so it
        # runs after the twin's steps are counted
        for n, c, cand in drawn:
            rep = verify_limit_axioms(c, cand)
            assert rep.render() == pairwise_limit_axioms(c, cand).render(), n
            failed.update(f"axioms {ch.name}" for ch in rep.checks if not ch.passed)
        assert failed["axioms overlap"] and failed["axioms disjointness"]

    def test_agreement_witnesses_are_sorted(self):
        # the transit runs in the gluing set's iteration order; the witnesses
        # of a mismatch are listed in sorted order all the same
        names = [f"p{n}" for n in range(8)]
        x0 = _discrete(*names)
        x1 = _discrete(*(f"q{n}" for n in range(8)))
        c = make_cis([x0, x1], [x0.points, frozenset()], [{f"p{n}": f"q{n}" for n in range(8)}])
        lim = _discrete(*names)
        rot = {f"q{n}": f"p{(n + 1) % 8}" for n in range(8)}
        cand = LimitSpace(lim, (CtsMap(x0, lim, {p: p for p in names}), CtsMap(x1, lim, rot)))
        assert verify_gluing_laws(c, cand).render() == "\n".join(
            ["cover: pass", "embeddings: pass", "gluing agreement: FAIL"]
            + [
                f"  witness: stages 0,1: gluing sends p{n} to p{(n + 1) % 8} "
                f"but stage 0 places it at p{n}"
                for n in range(8)
            ]
            + ["off-locus disjointness: pass", "disjointness: pass"]
        )

    @staticmethod
    def _count_steps(monkeypatch):
        step, steps = limit._step, []
        monkeypatch.setattr(limit, "_step", lambda t, f: steps.append(t) or step(t, f))
        return steps

    def test_the_walk_stops_at_a_dead_transit(self, monkeypatch):
        # nothing is glued, so each stage's class dies at its first step:
        # 39 steps for 40 stages, where a walk to the last stage takes 780
        spaces = [_discrete(f"s{n}") for n in range(40)]
        c = make_cis(spaces, [frozenset()] * 40, [{}] * 39)
        ls = build_fundamental(c)
        steps = self._count_steps(monkeypatch)
        rep = verify_gluing_laws(c, ls)
        assert len(steps) == 39
        assert rep.render() == pairwise_gluing_laws(c, ls).render()
        assert rep.passed

    def test_an_identity_system_takes_one_step_per_column(self, monkeypatch):
        # every pair ending at stage j has the identity transit and the same
        # placement, so each column holds one class: 79 steps for 80 stages,
        # where stepping every pair's transit takes 3,160
        c = identity_system(sphere_space(2), 80)
        ls = build_fundamental(c)
        assert len(list(full_stage_pairs(c))) == 3160
        steps = self._count_steps(monkeypatch)
        rep = verify_gluing_laws(c, ls)
        assert len(steps) == 79
        assert rep.render() == pairwise_gluing_laws(c, ls).render()
        assert rep.passed

    def test_classes_that_meet_after_a_step_share_later_checks(self, monkeypatch):
        # stages 0 and 1 place their points alike; b0 leaves the transit at
        # f_0 and b1 at f_1, so the pairs (0,2) and (1,2) meet in one class
        # after the step through f_1, and each writes its own witness there
        x0, x1, x2 = _discrete("a0", "b0"), _discrete("a1", "b1"), _discrete("a2")
        c = make_cis([x0, x1, x2], [{"a0"}, {"a1"}, frozenset()], [{"a0": "a1"}, {"a1": "a2"}])
        lim = _discrete("p", "q", "r")
        cand = LimitSpace(lim, (
            CtsMap(x0, lim, {"a0": "p", "b0": "q"}),
            CtsMap(x1, lim, {"a1": "p", "b1": "q"}),
            CtsMap(x2, lim, {"a2": "r"}),
        ))
        steps = self._count_steps(monkeypatch)
        rep = verify_gluing_laws(c, cand)
        assert len(steps) == 3  # one in column 1, then two that meet in column 2
        assert rep.render() == pairwise_gluing_laws(c, cand).render()
        assert rep.render().splitlines()[2:] == [
            "gluing agreement: FAIL",
            "  witness: stages 0,2: gluing sends a0 to r but stage 0 places it at p",
            "  witness: stages 1,2: gluing sends a1 to r but stage 1 places it at p",
            "off-locus disjointness: FAIL",
            "  witness: stages 0,1: points ['q'] collide away from the gluing locus",
            "disjointness: pass",
        ]

    def test_dead_groups_are_met_through_the_point_index(self, monkeypatch):
        # a loose window of 640 stages: most transits die within a few steps,
        # so hundreds of dead groups are open by the last stage.  Testing
        # each against every later image reads about 290,000 entries of the
        # walk's tables; the index reads one per point of each later image,
        # and on a valid system finds no meet
        gen = FuzzGen(1)
        c = gen.cis(max_stages=1920, stationary=False, inductive=False)
        while c.stage_count < 640:
            c = gen.cis(max_stages=1920, stationary=False, inductive=False)
        c = _window(c, 0, 640)
        ls = build_fundamental(c)
        reads, groups = [], []
        walk = limit._pair_classes

        def counted(c, names, place):
            for j, live, dead, *rest in walk(c, names, place):
                groups.append(len(dead))
                yield (j, live, *(_Reads(table, reads) for table in (dead, *rest)))

        monkeypatch.setattr(limit, "_pair_classes", counted)
        assert verify_gluing_laws(c, ls).passed
        assert groups[-1] > 300
        assert len(reads) < sum(len(st.space.points) for st in c.stages)

    def test_pairs_past_a_dead_transit_are_unlinked(self):
        # the transit out of stage 0 dies at stage 1 and Y_1 is empty, so the
        # pairs (0,3) and (1,3) come after the walk has stopped; stage 3
        # sharing a point with either is a disjointness failure
        xs = [_discrete(p) for p in "abcd"]
        c = make_cis(xs, [{"a"}, frozenset(), frozenset(), frozenset()], [{"a": "b"}, {}, {}])
        lim = _discrete("p", "q")
        at = ["p", "p", "q", "p"]
        cand = LimitSpace(lim, tuple(CtsMap(x, lim, {p: q}) for x, p, q in zip(xs, "abcd", at)))
        pairs = [
            (0, 1, True, {"a": "b"}), (0, 2, False, {}), (0, 3, False, {}),
            (1, 2, True, {}), (1, 3, False, {}),
            (2, 3, True, {}),
        ]
        assert list(full_stage_pairs(c)) == pairs
        assert walked_pairs(c, cand) == pairs
        assert verify_limit_axioms(c, cand).render() == pairwise_limit_axioms(c, cand).render()
        rep = verify_gluing_laws(c, cand)
        assert rep.render() == pairwise_gluing_laws(c, cand).render()
        assert rep.check("disjointness").witnesses == (
            "stages 0,3 cannot interact but share ['p']",
            "stages 1,3 cannot interact but share ['p']",
        )


class TestKeptFacts:
    """The cover and embedding checks and the weak-topology fixpoint depend
    on the candidate alone, so each is decided once per candidate object and
    kept on it; an equal candidate built anew decides them again."""

    @staticmethod
    def _counted(monkeypatch, name):
        runs = []
        body = getattr(limit, name)
        monkeypatch.setattr(limit, name, lambda ls: runs.append(ls) or body(ls))
        return runs

    def test_the_fixpoint_runs_once_per_candidate(self, monkeypatch):
        runs = self._counted(monkeypatch, "_weak")
        c = sphere_chain(2)
        ls = build_fundamental(c)
        assert runs == [ls]
        assert has_weak_topology(c, ls) and has_weak_topology(c, ls)
        assert runs == [ls]
        twin = LimitSpace(ls.x, ls.phis)
        assert twin == ls and has_weak_topology(c, twin)
        assert len(runs) == 2 and runs[1] is twin

    def test_cover_and_embeddings_are_checked_once_per_candidate(self, monkeypatch):
        covers = self._counted(monkeypatch, "_cover_check")
        embeddings = self._counted(monkeypatch, "_embedding_check")
        c = interval_chain(3)
        ls = build_fundamental(c)
        for _ in range(2):
            assert verify_limit_axioms(c, ls).passed and verify_gluing_laws(c, ls).passed
        assert covers == embeddings == [ls]
        cand = FuzzGen(5).mutate_candidate(ls)[1]
        verify_gluing_laws(c, cand)
        verify_limit_axioms(c, cand)
        assert covers == embeddings == [ls, cand]

    def test_the_image_closures_are_built_once_per_candidate(self, monkeypatch):
        runs = self._counted(monkeypatch, "_image_closures")
        ls = build_fundamental(sphere_chain(2))  # which tests its gluing sets for closedness
        reads = Counter()
        for name in ("closure", "is_closed"):
            body = getattr(FinSpace, name)
            monkeypatch.setattr(
                FinSpace, name, lambda x, a, name=name, body=body: reads.update([name]) or body(x, a)
            )
        first = images_closed(ls)
        prof = cover_profile(ls)
        assert images_closed(ls) is first and first.value and prof.closed_cover
        assert runs == [ls]
        # one closure per image, and no closedness decided apart from it
        assert reads == {"closure": len(ls.phis)}
        twin = LimitSpace(ls.x, ls.phis)
        assert cover_profile(twin) == prof and images_closed(twin) == first
        assert len(runs) == 2 and runs[1] is twin

    def test_the_closed_cover_flag_is_the_images_closed_verdict(self, monkeypatch):
        verdicts, body = [], limit.images_closed
        monkeypatch.setattr(limit, "images_closed", lambda ls: verdicts.append(ls) or body(ls))
        seen = set()
        for seed in range(12):
            gen = FuzzGen(seed)
            ls = build_fundamental(gen.cis())
            for cand in (ls, gen.mutate_candidate(ls)[1]):
                verdicts.clear()
                closed = cover_profile(cand).closed_cover
                assert verdicts == [cand] and closed == body(cand).value
                seen.add(closed)
        assert seen == {True, False}

    def test_kept_verdicts_equal_fresh_ones(self):
        # every fact read twice from one candidate equals the fact decided
        # on an equal candidate and system built anew, which keep nothing
        seen = Counter()
        draws = ({}, {"inductive": True}, {"stationary": True})
        for seed in range(90):
            gen = FuzzGen(seed)
            c = gen.cis(**draws[seed % 3])
            ls = build_fundamental(c)
            cands = [ls, *discrete_and_indiscrete(ls)]
            cands += [gen.mutate_candidate(ls)[1] for _ in range(4)]
            for cand in cands:
                kept = [self._facts(c, cand) for _ in range(2)]
                rebuilt = rebuilt_candidate(cand)
                fresh = self._facts(rebuilt_cis(c), rebuilt)
                assert kept[0] == kept[1] == fresh, seed
                for name in ("_cover", "_embeddings", "_weak", "_closures", "_images_closed"):
                    assert name in vars(cand)
                # each kept closure is cl(A) = {y : U_y meets A}, from the definition
                x = cand.x
                defined = tuple(
                    frozenset(y for y in x.points if x.min_open[y] & phi.image())
                    for phi in cand.phis
                )
                assert vars(cand)["_closures"] == vars(rebuilt)["_closures"] == defined, seed
                seen[fresh[0].check("cover").passed, fresh[0].check("embeddings").passed,
                     fresh[2], fresh[3].value] += 1
        # each fact is seen both ways
        for k in range(4):
            assert {key[k] for key in seen} == {True, False}

    @staticmethod
    def _facts(c, ls):
        return (
            verify_limit_axioms(c, ls), verify_gluing_laws(c, ls), has_weak_topology(c, ls),
            images_closed(ls), cover_profile(ls), [phi.image() for phi in ls.phis],
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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scan_on_fuzzed_and_mutated_limits(self, seed):
        gen = FuzzGen(seed)
        ls = build_fundamental(gen.cis(max_stages=6))
        for cand in (ls, gen.mutate_candidate(ls)[1], gen.mutate_candidate(ls)[1]):
            assert cover_profile(cand) == scan_cover_profile(cand)

    def test_neighbourhood_multiplicity_counts_image_closures(self):
        # U_c = {p, c} meets both one-point images of the Sierpinski space, as
        # c lies in cl{p}; and the image {p} is not closed
        s = FinSpace(frozenset("pc"), {"p": frozenset("p"), "c": frozenset("pc")})
        pt_p, pt_c = (FinSpace(frozenset(x), {x: frozenset(x)}) for x in "pc")
        cand = LimitSpace(s, (CtsMap(pt_p, s, {"p": "p"}), CtsMap(pt_c, s, {"c": "c"})))
        prof = cover_profile(cand)
        assert prof == scan_cover_profile(cand)
        assert (prof.max_point_multiplicity, prof.max_neighbourhood_multiplicity) == (1, 2)
        assert not prof.closed_cover

    def test_empty_images_have_multiplicity_zero(self):
        # one empty stage over a point: no image holds or meets anything
        pt = FinSpace(frozenset("p"), {"p": frozenset("p")})
        cand = LimitSpace(pt, (CtsMap(FinSpace(frozenset(), {}), pt, {}),))
        prof = cover_profile(cand)
        assert prof == scan_cover_profile(cand)
        assert (prof.max_point_multiplicity, prof.max_neighbourhood_multiplicity) == (0, 0)
        assert prof.closed_cover

    def test_rho_perfect_for_finitely_semicomponible(self):
        ls = build_fundamental(interval_chain(4))
        assert is_perfect_map(projection(ls))

    def test_rho_perfect_for_stationary(self):
        ls = build_fundamental(stationary_sphere(2))
        assert is_perfect_map(projection(ls))

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
