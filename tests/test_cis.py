import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cislim.cis import (
    Cis,
    Cutoff,
    Stationary,
    composite,
    is_finitely_semicomponible,
    is_inductive,
    is_stationary,
    make_stage,
    semicomponible,
    stage_map,
    stage_space,
    stage_y,
    transits,
    validate_cis,
)
from cislim.finspace import TopologyError, classify_map
from cislim.gallery import (
    identity_system,
    interval_chain,
    non_semicomponible,
    sphere_chain,
    stationary_sphere,
)
from cislim.randgen import FuzzGen


def one_shot_domain(c, i, j):
    """Independent oracle: forward-iterate points of Y_i through the stages,
    keeping those that stay inside every gluing set en route to Y_j."""
    dom = set()
    for y in stage_y(c, i):
        cur = y
        alive = True
        for k in range(i, j):
            if cur not in stage_y(c, k):
                alive = False
                break
            cur = stage_map(c, k)(cur)
        if alive and cur in stage_y(c, j):
            dom.add(y)
    return frozenset(dom)


class TestValidation:
    def test_identity_system_valid(self, sierpinski):
        rep = validate_cis(identity_system(sierpinski, 3))
        assert rep.ok

    def test_open_gluing_set_rejected(self, sierpinski):
        c = Cis(
            (
                make_stage(sierpinski, {"a"}, sierpinski, {"a": "a"}),
                make_stage(sierpinski, {"b"}, None, None),
            ),
            Cutoff(),
        )
        rep = validate_cis(c)
        assert not rep.ok
        assert any(clause == "gluing set closed" for _, clause, _ in rep.failures)

    def test_sphere_chain_valid(self):
        assert validate_cis(sphere_chain(3)).ok

    def test_stationary_requires_full_gluing(self, sierpinski):
        c = Cis((make_stage(sierpinski, {"b"}, None, None),), Stationary(0))
        rep = validate_cis(c)
        assert not rep.ok
        assert any(clause == "stationary tail" for _, clause, _ in rep.failures)

    def test_structural_mismatch_is_hard_error(self, sierpinski, circle4):
        good = make_stage(sierpinski, {"b"}, circle4, {"b": "a"})
        with pytest.raises(TopologyError, match="stationary index"):
            Cis((good, make_stage(circle4, circle4.points, None, None)), Stationary(5))
        with pytest.raises(TopologyError, match="does not land"):
            Cis(
                (
                    make_stage(sierpinski, {"b"}, sierpinski, {"b": "b"}),
                    make_stage(circle4, circle4.points, None, None),
                ),
                Cutoff(),
            )

    def test_empty_gluing_set_is_valid_but_flagged(self, sierpinski):
        c = Cis(
            (
                make_stage(sierpinski, frozenset(), sierpinski, {}),
                make_stage(sierpinski, {"b"}, None, None),
            ),
            Cutoff(),
        )
        rep = validate_cis(c)
        assert rep.ok
        assert any("empty gluing set" in w for w in rep.warnings)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_generator_output_always_valid(self, seed):
        assert validate_cis(FuzzGen(seed).cis()).ok


class TestSemicomponible:
    def test_identity_any_pair(self, sierpinski):
        c = identity_system(sierpinski, 4)
        for i in range(4):
            for j in range(i, 4):
                assert semicomponible(c, i, j)

    def test_three_stage_counterexample(self):
        c = non_semicomponible()
        assert semicomponible(c, 0, 0)
        assert not semicomponible(c, 0, 1)  # {d} misses {c}
        assert not semicomponible(c, 0, 2)
        assert semicomponible(c, 1, 2)

    def test_sphere_chain_everywhere(self):
        c = sphere_chain(3)
        for i in range(4):
            for j in range(i, 4):
                assert semicomponible(c, i, j)

    def test_interval_chain_only_adjacent_self(self):
        c = interval_chain(3)
        assert not semicomponible(c, 0, 1)
        assert not semicomponible(c, 1, 2)

    def test_out_of_range_under_cutoff(self):
        c = interval_chain(2)
        with pytest.raises(IndexError):
            semicomponible(c, 0, 5)

    def test_virtual_indices_under_stationary(self):
        c = stationary_sphere(2)
        assert semicomponible(c, 0, 7)
        assert stage_space(c, 9) == c.stages[2].space

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_monotone_in_both_directions(self, seed):
        c = FuzzGen(seed).cis()
        n = c.stage_count
        semi = {(i, j): semicomponible(c, i, j) for i in range(n) for j in range(i, n)}
        for (i, j), val in semi.items():
            if val:
                for k in range(i, j + 1):
                    for l in range(k, j + 1):
                        assert semi[(k, l)], "inner pairs of a semicomponible pair"
            else:
                for j2 in range(j + 1, n):
                    assert not semi[(i, j2)], "failure persists to later stages"


class TestComposite:
    def test_identity_system_full_domain(self, sierpinski):
        c = identity_system(sierpinski, 3)
        comp = composite(c, 0, 1)
        assert comp.domain == sierpinski.points
        assert comp.map.assignment == {"a": "a", "b": "b"}

    def test_non_semicomponible_pair_empty_domain(self):
        c = non_semicomponible()
        assert composite(c, 0, 1).domain == frozenset()

    def test_sphere_double_inclusion(self):
        c = sphere_chain(3)
        comp = composite(c, 0, 2)
        assert comp.domain == frozenset({"a", "b"})
        assert comp.map.target == c.stages[3].space
        assert classify_map(comp.map).embedding

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_domain_matches_one_shot_preimage(self, seed):
        c = FuzzGen(seed).cis()
        n = c.stage_count
        for i in range(n):
            for j in range(i, n - 1):
                assert composite(c, i, j).domain == one_shot_domain(c, i, j)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_composites_are_continuous_injections(self, seed):
        c = FuzzGen(seed).cis()
        for i in range(c.stage_count):
            for j in range(i, c.stage_count - 1):
                prof = classify_map(composite(c, i, j).map)
                assert prof.continuous and prof.injective

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_composite_factors_through_middles(self, seed):
        c = FuzzGen(seed).cis()
        n = c.stage_count
        for i in range(n):
            for j in range(i, n - 1):
                whole = composite(c, i, j)
                for k in range(i, j):
                    front = composite(c, i, k)
                    back = composite(c, k + 1, j)
                    for y in whole.domain:
                        assert y in front.domain
                        mid = front.map(y)
                        assert mid in back.domain
                        assert back.map(mid) == whole.map(y)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_transit_walk_matches_pointwise_iteration(self, seed):
        c = FuzzGen(seed).cis(max_stages=6)
        n = c.stage_count
        for i in range(n - 1):
            walk = list(transits(c, i, n - 2))
            assert [k for k, _ in walk] == list(range(i, n - 1))
            for k, asg in walk:
                assert frozenset(asg) == one_shot_domain(c, i, k)
                for y, z in asg.items():
                    p = y
                    for step in range(i, k + 1):
                        p = stage_map(c, step)(p)
                    assert p == z
                assert semicomponible(c, i, k) == (k == i or bool(asg))

    def test_image_recursion(self):
        # image of the composite equals the next attachment applied to the
        # previous image where it meets the gluing set
        c = sphere_chain(3)
        for i in range(3):
            for j in range(i + 1, 3):
                whole = composite(c, i, j)
                prev = composite(c, i, j - 1)
                fj = stage_map(c, j)
                expected = frozenset(
                    fj(q) for q in prev.map.image() & stage_y(c, j)
                )
                assert whole.map.image() == expected


class TestClassifiers:
    def test_is_inductive(self, sierpinski):
        assert is_inductive(identity_system(sierpinski, 2))
        assert is_inductive(sphere_chain(2))
        assert not is_inductive(interval_chain(2))

    def test_finitely_semicomponible_interval_chain(self):
        rep = is_finitely_semicomponible(interval_chain(3))
        assert rep.value and rep.truncation_relative

    def test_identity_stationary_not_finitely_semicomponible(self, sierpinski):
        rep = is_finitely_semicomponible(identity_system(sierpinski, 1, stationary=True))
        assert not rep.value

    def test_sphere_stationary_not_finitely_semicomponible(self):
        assert not is_finitely_semicomponible(stationary_sphere(2)).value

    def test_is_stationary(self, sierpinski):
        assert is_stationary(stationary_sphere(2)) == 2
        assert is_stationary(interval_chain(2)) is None
        assert is_stationary(identity_system(sierpinski, 3, stationary=True)) == 2
