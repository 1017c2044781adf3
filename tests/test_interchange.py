import json

import pytest
from hypothesis import given, settings

from cislim.cat import CisDiagram, identity_morphism, validate_morphism
from cislim.cis import Cutoff, Stationary, validate_cis
from cislim.gallery import interval_chain, non_semicomponible, sphere_chain, stationary_sphere
from cislim.interchange import (
    InterchangeError,
    cis_from_doc,
    cis_to_doc,
    diagram_from_doc,
    diagram_to_doc,
    dumps,
    limit_from_doc,
    limit_to_doc,
    morphism_from_doc,
    morphism_to_doc,
    space_from_doc,
    space_to_doc,
    to_dot,
)
from cislim.limit import build_fundamental, verify_limit_axioms
from cislim.randgen import FuzzGen, point_system
from conftest import finspaces


def _dot_edges(dot: str) -> set[tuple[str, str]]:
    edges = set()
    for line in dot.splitlines():
        if "->" in line:
            y, x = line.strip().rstrip(";").split(" -> ")
            edges.add((json.loads(y), json.loads(x)))
    return edges


class TestSpaceDocs:
    def test_round_trip(self, circle4):
        assert space_from_doc(space_to_doc(circle4)) == circle4

    def test_rejects_missing_self_membership_naming_the_point(self):
        doc = {"points": ["a", "b"], "min_open": {"a": ["b"], "b": ["b"]}}
        with pytest.raises(InterchangeError, match="'a'"):
            space_from_doc(doc)

    def test_rejects_non_basis_naming_the_points(self):
        doc = {
            "points": ["a", "b", "c"],
            "min_open": {"a": ["a"], "b": ["a", "b"], "c": ["b", "c"]},
        }
        with pytest.raises(InterchangeError, match="not a basis"):
            space_from_doc(doc)

    def test_rejects_bad_shapes_with_paths(self):
        with pytest.raises(InterchangeError, match="space.points"):
            space_from_doc({"points": [1], "min_open": {}})
        with pytest.raises(InterchangeError, match="needs 'points'"):
            space_from_doc({})


class TestCisDocs:
    @pytest.mark.parametrize(
        "system", [sphere_chain(2), stationary_sphere(2), interval_chain(3), non_semicomponible()]
    )
    def test_round_trip(self, system):
        again = cis_from_doc(cis_to_doc(system))
        assert again == system
        assert validate_cis(again).ok == validate_cis(system).ok

    def test_fuzzed_round_trips(self):
        gen = FuzzGen(13)
        for _ in range(20):
            c = gen.cis()
            assert cis_from_doc(cis_to_doc(c)) == c

    def test_tail_kinds(self):
        assert isinstance(cis_from_doc(cis_to_doc(sphere_chain(1))).tail, Cutoff)
        assert cis_from_doc(cis_to_doc(stationary_sphere(1))).tail == Stationary(1)

    def test_unknown_tail_kind(self):
        doc = cis_to_doc(sphere_chain(1))
        doc["tail"] = {"kind": "forever"}
        with pytest.raises(InterchangeError, match="tail.kind"):
            cis_from_doc(doc)

    def test_missing_attachment(self):
        doc = cis_to_doc(sphere_chain(1))
        del doc["stages"][0]["f"]
        with pytest.raises(InterchangeError, match=r"stages\[0\].f"):
            cis_from_doc(doc)

    def test_attachment_on_last_stage_rejected(self):
        doc = cis_to_doc(sphere_chain(1))
        doc["stages"][1]["f"] = {"a": "a"}
        with pytest.raises(InterchangeError, match=r"stages\[1\]"):
            cis_from_doc(doc)


class TestLimitDocs:
    def test_round_trip_and_verify(self):
        c = sphere_chain(2)
        ls = build_fundamental(c)
        again = limit_from_doc(limit_to_doc(ls), c)
        assert again.x == ls.x
        assert [p.assignment for p in again.phis] == [p.assignment for p in ls.phis]
        assert verify_limit_axioms(c, again).passed

    def test_stage_count_mismatch(self):
        c = sphere_chain(2)
        doc = limit_to_doc(build_fundamental(c))
        doc["phis"] = doc["phis"][:1]
        with pytest.raises(InterchangeError, match="phis"):
            limit_from_doc(doc, c)


class TestMorphismAndDiagramDocs:
    def test_standalone_morphism_round_trip(self):
        gen = FuzzGen(17)
        c = gen.cis()
        m = gen.morphism(c)
        again = morphism_from_doc(morphism_to_doc(m))
        assert again.source == m.source and again.target == m.target
        assert [x.assignment for x in again.h] == [x.assignment for x in m.h]
        assert validate_morphism(again).ok

    def test_bare_morphism_needs_context(self):
        c = sphere_chain(1)
        doc = morphism_to_doc(identity_morphism(c), embed_systems=False)
        with pytest.raises(InterchangeError, match="source"):
            morphism_from_doc(doc)
        assert morphism_from_doc(doc, source=c, target=c).source == c

    def test_diagram_round_trip(self):
        c = sphere_chain(1)
        target, m = point_system(c)
        d = CisDiagram((c, target), (m,))
        again = diagram_from_doc(diagram_to_doc(d))
        assert again.objects == d.objects
        assert [x.assignment for a in again.arrows for x in a.h] == [
            x.assignment for a in d.arrows for x in a.h
        ]

    def test_fuzzed_diagram_round_trips(self):
        # three objects, the first and last often unequal, so each arrow must
        # land on the next object and on no other
        gen, unequal = FuzzGen(5), 0
        for _ in range(8):
            d = gen.diagram(gen.cis(), length=3)
            again = diagram_from_doc(diagram_to_doc(d))
            assert again.objects == d.objects and again.arrows == d.arrows
            unequal += d.objects[0] != d.objects[2]
        assert unequal

    def test_diagram_arrow_count(self):
        c = sphere_chain(1)
        doc = diagram_to_doc(CisDiagram((c,), ()))
        doc["objects"].append(cis_to_doc(c))
        with pytest.raises(InterchangeError, match="arrows"):
            diagram_from_doc(doc)


class TestRendering:
    def test_dumps_is_stable_and_parseable(self, circle4):
        text = dumps(space_to_doc(circle4))
        assert text == dumps(space_to_doc(circle4))
        assert json.loads(text)["points"] == ["a", "b", "p", "q"]

    def test_dot_contains_reduced_edges_only(self, circle4):
        dot = to_dot(circle4)
        assert '"p" -> "a";' in dot
        assert '"q" -> "b";' in dot
        assert dot.count("->") == 4

    def test_dot_transitive_reduction(self):
        from cislim.gallery import sphere_space

        dot = to_dot(sphere_space(2))
        # poles reach the top pair only through the middle pair
        assert '"2:' not in dot  # sanity: labels are bare here
        assert '"p2" -> "a";' not in dot
        assert '"p1" -> "a";' in dot
        assert '"p2" -> "p1";' in dot

    @given(finspaces(max_points=6))
    @settings(max_examples=200, deadline=None)
    def test_dot_edges_close_to_the_specialization_order(self, space):
        below = {x: {x} for x in space.points}  # reflexive-transitive closure, x's row
        for y, x in _dot_edges(to_dot(space)):
            below[x].add(y)
        for _ in space.points:
            below = {x: set().union(*(below[y] for y in ys)) for x, ys in below.items()}
        assert below == {x: set(u) for x, u in space.min_open.items()}

    def test_dot_keeps_edges_into_a_point_above_a_t0_class(self):
        # y and z share U_y = U_z = {y, z} inside U_x
        space = space_from_doc({
            "points": ["x", "y", "z"],
            "min_open": {"x": ["x", "y", "z"], "y": ["y", "z"], "z": ["y", "z"]},
        })
        assert _dot_edges(to_dot(space)) == {("y", "z"), ("z", "y"), ("y", "x"), ("z", "x")}
