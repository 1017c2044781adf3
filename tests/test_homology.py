import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import continuous_maps, finspaces
from homology_oracles import bitmask_rank, complex_betti, cross_polytope_boundary, staircase_torus_complex
from cislim.finspace import CtsMap, FinSpace, TopologyError, compose, identity_map
from cislim.gallery import (
    identity_system,
    point_space,
    sierpinski_space,
    sphere_chain,
    sphere_space,
    torus_chain,
    torus_space,
)
from cislim.homology import (
    GF2ModuleSeq,
    SimplicialComplex,
    betti_mod2,
    boundary_matrix,
    chain_map_matrix,
    counter_functorial_check,
    euler_characteristic,
    functorial_invariance_check,
    gf2_inverse,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    h0_rank,
    induced_matrix,
    module_colimit,
    module_limit,
    order_complex,
    stage_homology_sequence,
)
from cislim.limit import build_fundamental
from cislim.randgen import FuzzGen


@st.composite
def gf2_matrices(draw, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.uint8).reshape(rows, cols)


class TestGF2:
    @given(gf2_matrices())
    def test_rank_matches_bitmask_oracle(self, m):
        rows = [int("".join(map(str, r)), 2) if r.size else 0 for r in m]
        assert gf2_rank(m) == bitmask_rank(rows)

    @given(gf2_matrices())
    def test_nullspace_vectors_are_killed(self, m):
        ns = gf2_nullspace(m)
        assert ns.shape[1] == m.shape[1] - gf2_rank(m)
        if m.size and ns.size:
            assert not gf2_matmul(m, ns).any()

    @given(gf2_matrices(), st.data())
    def test_solve_finds_solutions_of_consistent_systems(self, m, data):
        x = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
            dtype=np.uint8,
        )
        b = gf2_matmul(m, x) if m.size else np.zeros(m.shape[0], dtype=np.uint8)
        sol = gf2_solve(m, b)
        assert sol is not None
        assert np.array_equal(gf2_matmul(m, sol) if m.size else b, b)

    def test_inverse(self):
        m = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        inv = gf2_inverse(m)
        assert np.array_equal(gf2_matmul(m, inv), np.eye(2, dtype=np.uint8))
        assert gf2_inverse(np.array([[1, 1], [1, 1]], dtype=np.uint8)) is None


class TestOrderComplex:
    def test_point(self):
        k = order_complex(point_space())
        assert k.simplices == frozenset({frozenset({"pt"})})

    def test_sierpinski_is_an_edge(self):
        k = order_complex(sierpinski_space())
        assert k.simplices == frozenset(
            {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}
        )

    def test_circle_is_the_four_cycle(self, circle4):
        k = order_complex(circle4)
        edges = {tuple(sorted(s)) for s in k.of_dim(1)}
        assert edges == {("a", "p"), ("a", "q"), ("b", "p"), ("b", "q")}
        assert not k.of_dim(2)

    def test_indistinguishable_points_are_collapsed(self):
        blob = FinSpace(frozenset("uv"), {"u": frozenset("uv"), "v": frozenset("uv")})
        k = order_complex(blob)
        assert len(k.vertices) == 1

    def test_rejects_missing_faces(self):
        with pytest.raises(TopologyError, match="face"):
            SimplicialComplex(frozenset("ab"), frozenset({frozenset("ab"), frozenset("a")}))

    @given(finspaces())
    def test_boundary_squares_to_zero(self, space):
        k = order_complex(space)
        for p in range(1, k.dim + 2):
            d_p = boundary_matrix(k, p)
            d_next = boundary_matrix(k, p + 1)
            if d_p.size and d_next.size:
                assert not gf2_matmul(d_p, d_next).any()


class TestBetti:
    def test_point(self):
        assert betti_mod2(order_complex(point_space()), 2) == [1, 0, 0]

    def test_spheres_against_cross_polytope_oracle(self):
        for n in range(4):
            ours = betti_mod2(order_complex(sphere_space(n)), n + 1)
            _, oracle_simplices = cross_polytope_boundary(n)
            oracle = complex_betti(oracle_simplices, n + 1)
            assert ours == oracle
            expected = [2, 0] if n == 0 else [1] + [0] * (n - 1) + [1, 0]
            assert ours == expected

    def test_torus_against_staircase_oracle(self):
        ours = betti_mod2(order_complex(torus_space(2)), 3)
        oracle = complex_betti(staircase_torus_complex(), 3)
        assert ours == oracle == [1, 2, 1, 0]

    @given(finspaces())
    def test_h0_is_component_count(self, space):
        assert h0_rank(space) == betti_mod2(order_complex(space), 0)[0]

    @given(finspaces())
    def test_euler_characteristic_from_betti(self, space):
        k = order_complex(space)
        pmax = max(k.dim, 0)
        assert euler_characteristic(k) == sum(
            (-1) ** p * b for p, b in enumerate(betti_mod2(k, pmax))
        )


class TestInducedMatrix:
    def test_identity_is_identity(self, circle4):
        m = induced_matrix(identity_map(circle4), 1)
        assert np.array_equal(m, np.eye(1, dtype=np.uint8))

    def test_constant_map_selects_one_component(self):
        two = FinSpace(frozenset("uv"), {"u": frozenset("u"), "v": frozenset("v")})
        m = CtsMap(two, two, {"u": "u", "v": "u"})
        mat = induced_matrix(m, 0)
        assert mat.shape == (2, 2)
        assert np.array_equal(mat @ np.array([1, 0]), mat @ np.array([0, 1]))

    def test_equatorial_inclusion_kills_middle_homology(self):
        s1, s2 = sphere_space(1), sphere_space(2)
        incl = CtsMap(s1, s2, {p: p for p in s1.points})
        mat = induced_matrix(incl, 1)
        assert mat.shape == (0, 1)  # the circle class dies in the sphere

    def test_rejects_non_continuous(self, sierpinski):
        broken = CtsMap(
            sierpinski,
            FinSpace(frozenset("uv"), {"u": frozenset("u"), "v": frozenset("v")}),
            {"a": "u", "b": "v"},
        )
        with pytest.raises(TopologyError, match="functorial"):
            induced_matrix(broken, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_functoriality_on_compositions(self, data):
        f = data.draw(continuous_maps(max_points=4))
        g = data.draw(continuous_maps(source=f.target))
        for p in range(3):
            left = induced_matrix(compose(g, f), p)
            right = gf2_matmul(induced_matrix(g, p), induced_matrix(f, p))
            assert np.array_equal(left, right)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_chain_map_commutes_with_boundaries(self, data):
        f = data.draw(continuous_maps(max_points=4))
        ks, kt = order_complex(f.source), order_complex(f.target)
        for p in range(1, 3):
            left = gf2_matmul(boundary_matrix(kt, p), chain_map_matrix(f, p))
            right = gf2_matmul(chain_map_matrix(f, p - 1), boundary_matrix(ks, p))
            assert np.array_equal(left, right)


class TestModuleSequences:
    def test_constant_identity_sequence(self):
        seq = GF2ModuleSeq((2, 2, 2), (np.eye(2, dtype=np.uint8), np.eye(2, dtype=np.uint8)))
        dim, cocone = module_colimit(seq)
        assert dim == 2
        assert all(np.array_equal(c, np.eye(2, dtype=np.uint8)) for c in cocone)

    def test_zero_tail_sequence(self):
        seq = GF2ModuleSeq((2, 1), (np.zeros((1, 2), dtype=np.uint8),))
        dim, cocone = module_colimit(seq)
        assert dim == 1
        assert not cocone[0].any()

    def test_single_module(self):
        seq = GF2ModuleSeq((3,), ())
        assert module_colimit(seq)[0] == 3
        assert module_limit(seq)[0] == 3

    def test_sphere_middle_homology_colimit_vanishes(self):
        seq = stage_homology_sequence(sphere_chain(4), 1)
        assert seq.dims == (0, 1, 0, 0, 0)
        assert module_colimit(seq)[0] == 0
        assert module_limit(seq)[0] == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TopologyError, match="shape"):
            GF2ModuleSeq((2, 2), (np.zeros((3, 2), dtype=np.uint8),))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_limit_is_the_transposed_colimit(self, seed, p):
        c = FuzzGen(seed).cis(inductive=True, max_stages=3, max_points=5)
        seq = stage_homology_sequence(c, p)
        cdim, cocone = module_colimit(seq)
        ldim, cone = module_limit(seq)
        assert cdim == ldim
        for a, b in zip(cocone, cone):
            assert np.array_equal(a.T, b)


class TestInvariance:
    def test_sphere_chain_every_degree(self):
        c = sphere_chain(4)
        ls = build_fundamental(c)
        for p, expected in [(0, 1), (1, 0), (2, 0), (3, 0)]:
            rep = functorial_invariance_check(c, p, ls)
            assert rep.ok and rep.iso_unique
            assert rep.limit_dim == rep.module_dim == expected

    def test_identity_system_gives_identity(self, circle4):
        c = identity_system(circle4, 3)
        rep = functorial_invariance_check(c, 1)
        assert rep.ok
        assert np.array_equal(rep.iso, np.eye(1, dtype=np.uint8))

    def test_torus_chain_degree_one(self):
        c = torus_chain(2)
        rep = functorial_invariance_check(c, 1)
        assert rep.ok
        assert rep.limit_dim == rep.module_dim == 2

    def test_rejects_non_inductive(self):
        from cislim.gallery import interval_chain

        with pytest.raises(TopologyError, match="inductive"):
            functorial_invariance_check(interval_chain(2), 0)

    def test_counter_sphere_chain(self):
        c = sphere_chain(4)
        ls = build_fundamental(c)
        rep0 = counter_functorial_check(c, 0, ls)
        assert rep0.ok and rep0.limit_dim == rep0.module_dim == 1
        for p in (1, 2, 3):
            rep = counter_functorial_check(c, p, ls)
            assert rep.ok and rep.limit_dim == rep.module_dim == 0

    def test_counter_identity(self, circle4):
        rep = counter_functorial_check(identity_system(circle4, 2), 1)
        assert rep.ok
        assert np.array_equal(rep.iso, np.eye(1, dtype=np.uint8))

    def test_counter_is_the_transposed_covariant_check(self):
        c = sphere_chain(4)
        ls = build_fundamental(c)
        for p in range(4):
            rep = functorial_invariance_check(c, p, ls)
            co = counter_functorial_check(c, p, ls)
            assert np.array_equal(co.iso, rep.iso.T)
            assert co.render() == rep.render()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_counter_matches_covariant_on_fuzzed_and_mutated_limits(self, seed, p):
        gen = FuzzGen(seed)
        c = gen.cis(inductive=True, max_stages=4, max_points=6)
        _, cand = gen.mutate_candidate(build_fundamental(c))
        try:
            rep = functorial_invariance_check(c, p, cand)
        except TopologyError as err:  # a mutated structure map may be discontinuous
            with pytest.raises(TopologyError, match=re.escape(str(err))):
                counter_functorial_check(c, p, cand)
            return
        co = counter_functorial_check(c, p, cand)
        assert (co.limit_dim, co.module_dim, co.iso_exists, co.iso_unique, co.witnesses) == (
            rep.limit_dim, rep.module_dim, rep.iso_exists, rep.iso_unique, rep.witnesses
        )
        assert (co.iso is None) == (rep.iso is None)
        if rep.iso is not None:
            assert np.array_equal(co.iso, rep.iso.T)
        assert co.render() == rep.render()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_inductive_systems_pass_both_checks(self, seed, p):
        c = FuzzGen(seed).cis(inductive=True, max_stages=4, max_points=8)
        ls = build_fundamental(c)
        rep = functorial_invariance_check(c, p, ls)
        assert rep.ok and rep.iso_unique, rep.render()
        co = counter_functorial_check(c, p, ls)
        assert co.ok, co.render()
        assert co.limit_dim == rep.limit_dim  # cohomology dims equal homology dims
        assert co.module_dim == rep.module_dim
