import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import transits
from conftest import raises_exactly, rebuilt_cis
from cislim import cis
from cislim.cis import (
    Cis,
    CisValidation,
    Cutoff,
    InvalidSystemError,
    Stage,
    Stationary,
    composite,
    is_finitely_semicomponible,
    is_inductive,
    is_stationary,
    make_cis,
    make_stage,
    require_valid,
    resolve_index,
    semicomponible,
    stage_map,
    stage_space,
    stage_y,
    validate_cis,
)
from cislim.finspace import CtsMap, FinSpace, TopologyError, classify_map
from cislim.gallery import (
    identity_system,
    interval_chain,
    non_semicomponible,
    sphere_chain,
    sphere_space,
    stationary_sphere,
)
from cislim.interchange import cis_from_doc, cis_to_doc
from cislim.randgen import FuzzGen, relabel_cis


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
        with raises_exactly(TopologyError, "stationary index 5 must be the last stage 1"):
            Cis((good, make_stage(circle4, circle4.points, None, None)), Stationary(5))
        with raises_exactly(TopologyError, "attachment at stage 0 does not land in stage 1"):
            Cis(
                (
                    make_stage(sierpinski, {"b"}, sierpinski, {"b": "b"}),
                    make_stage(circle4, circle4.points, None, None),
                ),
                Cutoff(),
            )

    @pytest.mark.parametrize(
        "source",
        [
            FinSpace(frozenset("a"), {"a": frozenset("a")}),  # Y is {a, b}
            FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("b")}),  # discrete
        ],
        ids=["wrong points", "wrong topology"],
    )
    def test_attachment_must_be_defined_on_the_subspace_y(self, sierpinski, source):
        f = CtsMap(source, sierpinski, {p: p for p in source.points})
        with pytest.raises(TopologyError, match="not defined on the subspace Y"):
            Cis(
                (
                    Stage(sierpinski, sierpinski.points, f),
                    make_stage(sierpinski, sierpinski.points, None, None),
                ),
                Cutoff(),
            )

    def test_the_stage_space_is_the_subspace_on_all_of_it_only(self, sierpinski):
        whole = CtsMap(sierpinski, sierpinski, {"a": "a", "b": "b"})
        last = make_stage(sierpinski, sierpinski.points, None, None)
        c = Cis((Stage(sierpinski, sierpinski.points, whole), last), Cutoff())
        assert c.stages[0].f.source is c.stages[0].space
        with raises_exactly(TopologyError, "attachment at stage 0 is not defined on the subspace Y"):
            Cis((Stage(sierpinski, {"b"}, whole), last), Cutoff())

    def test_make_stage_glues_along_the_subspace_of_y(self, sierpinski, circle4):
        whole = make_stage(circle4, circle4.points, sierpinski, {p: "b" for p in circle4.points})
        assert whole.f.source is circle4
        poles = make_stage(circle4, {"a", "b"}, sierpinski, {"a": "a", "b": "b"})
        assert poles.f.source == FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("b")})
        with raises_exactly(TopologyError, "unknown points ['z']"):
            make_stage(circle4, {"a", "z"}, sierpinski, {"a": "a"})

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


def scrambled(gen: FuzzGen, c: Cis) -> Cis:
    """c with one attachment sent to points of the next stage drawn at
    random, and with one gluing set redrawn as any subset: often an invalid
    system, which is not injective, continuous or closed somewhere."""
    spaces = [st.space for st in c.stages]
    ys = [st.y for st in c.stages]
    attachments = [dict(st.f.assignment) for st in c.stages[:-1]]
    k = gen.rng.randrange(c.stage_count)
    pts = sorted(spaces[k].points)
    ys[k] = frozenset(p for p in pts if gen.rng.random() < 0.5)
    if k < len(attachments):
        there = sorted(spaces[k + 1].points)
        attachments[k] = {y: gen.rng.choice(there) for y in sorted(ys[k])}
    elif k:
        attachments[k - 1] = {y: gen.rng.choice(pts) for y in sorted(ys[k - 1])}
    return make_cis(spaces, ys, attachments, c.tail)


class TestKeptValidation:
    """`validate_cis` keeps its report on the system: every later call on
    that object reads it, and an equal system built anew gets its own."""

    def test_the_report_is_built_once_per_system(self, monkeypatch):
        built = []
        body = cis._validation
        monkeypatch.setattr(cis, "_validation", lambda c: built.append(c) or body(c))
        c = sphere_chain(2)
        first = validate_cis(c)
        assert validate_cis(c) is first and built == [c]
        twin = rebuilt_cis(c)
        assert validate_cis(twin) == first and validate_cis(twin) is not first
        assert len(built) == 2 and built[1] is twin

    def test_kept_reports_equal_fresh_ones(self):
        seen = set()
        for seed in range(120):
            gen = FuzzGen(seed)
            kind = ({}, {"inductive": True}, {"stationary": True})[seed % 3]
            for c in (gen.cis(**kind), scrambled(gen, gen.cis(**kind))):
                kept = validate_cis(c)
                assert validate_cis(c) is kept
                fresh = validate_cis(rebuilt_cis(c))
                assert fresh == kept and fresh.render() == kept.render(), seed
                seen.add(kept.ok)
        assert seen == {True, False}  # valid and invalid systems both occur


class TestGate:
    """A report renders its failures, then its notes, or else names its
    subject; `require_valid` raises the kept report under its head."""

    def test_a_failing_report_lists_failures_then_notes(self, sierpinski):
        c = Cis(
            (
                make_stage(sierpinski, {"a"}, sierpinski, {"a": "a"}),
                make_stage(sierpinski, frozenset(), None, None),
            ),
            Cutoff(),
        )
        assert validate_cis(c).render() == (
            "stage 0: gluing set closed: closure adds ['b']\n"
            "stage 0: attachment closed: some point-closure image is not closed\n"
            "note: stage 1 has an empty gluing set; it attaches to nothing"
        )

    def test_a_passing_report_names_its_subject(self):
        assert validate_cis(sphere_chain(1)).render() == "valid closed injective system"
        assert CisValidation(()).render() == "valid closed injective system"
        assert CisValidation((), subject="cis-morphism").render() == "valid cis-morphism"

    def test_require_valid_raises_the_kept_report_under_its_head(self, sierpinski):
        c = Cis((make_stage(sierpinski, {"b"}, None, None),), Stationary(0))
        report = "stage 0: stationary tail: the parked stage must glue along all of itself"
        with raises_exactly(
            InvalidSystemError, "invalid closed injective system:\n" + report
        ) as caught:
            require_valid(c)
        assert caught.value.report is validate_cis(c)
        with raises_exactly(InvalidSystemError, "object 3 is not valid:\n" + report):
            require_valid(c, "object 3 is not valid")
        assert require_valid(sphere_chain(1)) is None


class TestMakeCis:
    def test_equals_the_hand_built_system(self, sierpinski, circle4):
        ident = {p: p for p in circle4.points}
        by_hand = Cis(
            (
                make_stage(sierpinski, {"b"}, circle4, {"b": "a"}),
                make_stage(circle4, circle4.points, circle4, ident),
                make_stage(circle4, {"a"}, None, None),
            ),
            Cutoff(),
        )
        built = make_cis(
            [sierpinski, circle4, circle4], [{"b"}, circle4.points, {"a"}], [{"b": "a"}, ident]
        )
        assert built == by_hand
        assert validate_cis(built).ok

    def test_gluing_set_count_must_match(self, sierpinski):
        with pytest.raises(TopologyError, match="3 stage spaces need 3 gluing sets, got 2"):
            make_cis([sierpinski] * 3, [{"b"}] * 2, [{"b": "b"}] * 2)

    def test_attachment_count_must_match(self, sierpinski):
        # a short list must not silently drop a middle stage
        with pytest.raises(TopologyError, match="3 stage spaces need 2 attachments, got 1"):
            make_cis([sierpinski] * 3, [{"b"}] * 3, [{"b": "b"}])
        with pytest.raises(TopologyError, match="1 stage spaces need 0 attachments, got 1"):
            make_cis([sierpinski], [{"b"}], [{"b": "b"}])


class TestRefusals:
    """Malformed systems and out-of-range indices are refused by name."""

    def test_a_system_needs_a_stage(self):
        with raises_exactly(TopologyError, "a system needs at least one stage"):
            Cis((), Cutoff())

    def test_the_last_stage_carries_no_attachment(self, sierpinski):
        last = make_stage(sierpinski, sierpinski.points, sierpinski, {"a": "a", "b": "b"})
        with raises_exactly(TopologyError, "last stage must not carry an attachment"):
            Cis((last,), Cutoff())

    def test_an_inner_stage_needs_its_attachment(self, sierpinski):
        bare = Stage(sierpinski, sierpinski.points, None)
        with raises_exactly(TopologyError, "stage 0 is missing its attachment"):
            Cis((bare, bare), Cutoff())

    def test_a_negative_index_is_refused(self, sierpinski):
        with raises_exactly(IndexError, "negative stage index"):
            resolve_index(identity_system(sierpinski, 2), -1)

    def test_stage_map_past_the_truncation(self, sierpinski):
        c = identity_system(sierpinski, 2)
        with raises_exactly(IndexError, "stage 1 has no attachment under truncation"):
            stage_map(c, 1)
        with raises_exactly(IndexError, "stage 2 is beyond the truncation (last is 1)"):
            stage_map(c, 2)

    def test_composite_and_semicomponible_need_i_at_most_j(self):
        c = sphere_chain(3)
        with raises_exactly(IndexError, "composite needs i <= j"):
            composite(c, 2, 1)
        with raises_exactly(IndexError, "semicomponible needs i <= j"):
            semicomponible(c, 2, 1)


class TestAttachmentSources:
    """A stage that glues along all of itself carries an attachment defined on
    the stage space itself; a proper gluing set keeps its subspace copy."""

    @staticmethod
    def shared(c):
        """Whether each attached stage's map is defined on the stage object,
        checking that this happens exactly where Y_i = X_i."""
        out = []
        for st in c.stages[:-1]:
            same = st.f.source is st.space
            assert same == (st.y == st.space.points)
            out.append(same)
        return out

    @pytest.mark.parametrize(
        "build",
        [
            lambda: sphere_chain(3),
            lambda: identity_system(sphere_space(1), 3, stationary=True),
            lambda: cis_from_doc(cis_to_doc(sphere_chain(2))),
            lambda: relabel_cis(sphere_chain(2), [{p: p.upper() for p in sphere_space(k).points}
                                                  for k in range(3)]),
            lambda: FuzzGen(3).cis(inductive=True, max_stages=5),
        ],
        ids=["make_cis", "identity", "cis_from_doc", "push_forward", "fuzzed"],
    )
    def test_inductive_stages_share_their_space(self, build):
        c = build()
        assert is_inductive(c) and c.stage_count > 1
        assert all(self.shared(c))

    def test_fuzzed_systems_share_exactly_where_they_glue_everything(self):
        seen = set()
        for seed in range(40):
            gen = FuzzGen(seed)
            for c in (gen.cis(), gen.relabelled(gen.cis())):
                seen.update(self.shared(c))
        assert seen == {True, False}


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
        assert comp.source.points == sierpinski.points
        assert comp.assignment == {"a": "a", "b": "b"}

    def test_non_semicomponible_pair_empty_domain(self):
        c = non_semicomponible()
        assert composite(c, 0, 1).source.points == frozenset()

    def test_sphere_double_inclusion(self):
        c = sphere_chain(3)
        comp = composite(c, 0, 2)
        assert comp.source.points == frozenset({"a", "b"})
        assert comp.target == c.stages[3].space
        assert classify_map(comp).embedding

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_domain_matches_one_shot_preimage(self, seed):
        c = FuzzGen(seed).cis()
        n = c.stage_count
        for i in range(n):
            for j in range(i, n - 1):
                assert composite(c, i, j).source.points == one_shot_domain(c, i, j)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_composites_are_continuous_injections(self, seed):
        c = FuzzGen(seed).cis()
        for i in range(c.stage_count):
            for j in range(i, c.stage_count - 1):
                prof = classify_map(composite(c, i, j))
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
                    for y in whole.source.points:
                        assert y in front.source.points
                        mid = front(y)
                        assert mid in back.source.points
                        assert back(mid) == whole(y)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_transit_walk_matches_pointwise_iteration(self, seed):
        c = FuzzGen(seed).cis(max_stages=6)
        n = c.stage_count
        for i in range(n - 1):
            walk = dict(transits(c, i, n - 2))
            assert list(walk) == list(range(i, n - 1))
            for k in walk:
                asg = composite(c, i, k).assignment
                assert asg == walk[k]
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
                    fj(q) for q in prev.image() & stage_y(c, j)
                )
                assert whole.image() == expected


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
