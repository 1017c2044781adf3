import gc
import hashlib
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import continuous_maps, finspaces, rebuilt_cis, rebuilt_space
from homology_oracles import (
    bitmask_rank,
    complex_betti,
    cross_polytope_boundary,
    euler_characteristic,
    label_boundary,
    label_chain_map,
    label_order_complex,
    staircase_torus_complex,
)
from cislim import homology
from cislim.finspace import (
    CtsMap,
    FinSpace,
    MapProfile,
    TopologyError,
    classify_map,
    components,
    compose,
    identity_map,
)
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
    _homology,
    betti_mod2,
    boundary_matrix,
    chain_map_matrix,
    counter_functorial_check,
    functorial_invariance_check,
    gf2_column_basis,
    gf2_inverse,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    gf2_solve,
    induced_matrix,
    module_colimit,
    order_complex,
    stage_homology_sequence,
)
from cislim.limit import LimitSpace, build_fundamental
from cislim.randgen import FuzzGen


def to_cols(m) -> list[int]:
    """A 0/1 numpy matrix as the library's int columns, row r in bit r."""
    return [sum(int(b) << r for r, b in enumerate(c)) for c in np.asarray(m, dtype=np.uint8).T % 2]


def to_array(columns: list[int], rows: int) -> np.ndarray:
    """Int columns as a rows x len(columns) uint8 matrix."""
    bits = [[c >> r & 1 for c in columns] for r in range(rows)]
    return np.array(bits, dtype=np.uint8).reshape(rows, len(columns))


def label_complex(vertices, simplices) -> SimplicialComplex:
    """A complex given by label sets, as vertex masks: earlier labels in higher bits."""
    order = sorted(vertices)
    bit = {v: 1 << len(order) - 1 - i for i, v in enumerate(order)}
    return SimplicialComplex(tuple(order), frozenset(sum(bit[v] for v in s) for s in simplices))


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) through the library's product."""
    return to_array(gf2_matmul(to_cols(a), to_cols(b)), a.shape[0])


@st.composite
def gf2_matrices(draw, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.uint8).reshape(rows, cols)


@st.composite
def large_gf2_matrices(draw, max_dim=64):
    """Up to max_dim square, drawn row by row as ints; half of them are a
    product through a narrow middle, so that their rank falls short."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))

    def block(r, c):
        ints = draw(st.lists(st.integers(0, 2**c - 1), min_size=r, max_size=r))
        bits = [[x >> j & 1 for j in range(c)] for x in ints]
        return np.array(bits, dtype=np.uint8).reshape(r, c)

    if draw(st.booleans()):
        return block(rows, cols)
    mid = draw(st.integers(1, max_dim // 4))
    return product(block(rows, mid), block(mid, cols))


def reference_rref(m):
    """Textbook Gauss-Jordan over GF(2) on lists of 0/1 rows."""
    rows = [list(map(int, r)) for r in m]
    cols = m.shape[1]
    pivots, lead = [], 0
    for col in range(cols):
        hit = next((k for k in range(lead, len(rows)) if rows[k][col]), None)
        if hit is None:
            continue
        rows[lead], rows[hit] = rows[hit], rows[lead]
        for k in range(len(rows)):
            if k != lead and rows[k][col]:
                rows[k] = [a ^ b for a, b in zip(rows[k], rows[lead])]
        pivots.append(col)
        lead += 1
    return np.array(rows, dtype=np.uint8).reshape(m.shape), pivots


WORD_EDGES = (0, 1, 2, 5, 63, 64, 65)


@st.composite
def word_edge_matrices(draw, square=False):
    """Sides from WORD_EDGES, so 0-row, 0-column and word-boundary shapes
    all occur: random, a product through a narrow middle (rank falls short),
    or, when square, a product of unit triangular factors (invertible)."""
    rows = draw(st.sampled_from(WORD_EDGES))
    cols = rows if square else draw(st.sampled_from(WORD_EDGES))

    def block(r, c):
        ints = draw(st.lists(st.integers(0, 2**c - 1), min_size=r, max_size=r))
        bits = [[x >> j & 1 for j in range(c)] for x in ints]
        return np.array(bits, dtype=np.uint8).reshape(r, c)

    kind = draw(st.sampled_from(["random", "narrow"] + ["invertible"] * square))
    if kind == "random":
        return block(rows, cols)
    if kind == "narrow":
        mid = draw(st.integers(1, 4))
        return product(block(rows, mid), block(mid, cols))
    eye = np.eye(rows, dtype=np.uint8)
    lower, upper = np.tril(block(rows, rows), -1) | eye, np.triu(block(rows, rows), 1) | eye
    return product(lower, upper)


def rref_solve(a, b):
    """gf2_solve through one textbook RREF of [a | b]: pivot rows give x, free
    variables are zero."""
    n = a.shape[1]
    r, pivots = reference_rref(np.concatenate([a, b], axis=1))
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.uint8)
    x[pivots] = r[: len(pivots), n:]
    return x


def rref_inverse(a):
    a = np.asarray(a, dtype=np.uint8) % 2
    if a.shape[0] != a.shape[1]:
        return None
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    r, pivots = reference_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]


def rref_nullspace(a):
    """One kernel vector per free column: 1 there, and the RREF entries of
    that column at the pivots."""
    cols = a.shape[1]
    r, pivots = reference_rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row_idx, pc in enumerate(pivots):
            if r[row_idx, fc]:
                basis[pc, k] = 1
    return basis


def assert_same_matrix(got, want):
    """Int columns against a uint8 matrix: as many columns, no bit past its rows, equal entries."""
    assert (got is None) == (want is None)
    if want is not None:
        rows, width = want.shape
        assert want.dtype == np.uint8
        assert len(got) == width and all(c >> rows == 0 for c in got)
        assert np.array_equal(to_array(got, rows), want)


class TestGF2:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(gf2_matrices(), large_gf2_matrices(max_dim=40)))
    def test_rref_matches_reference(self, m):
        r, pivots = gf2_rref(to_cols(m))
        want, want_pivots = reference_rref(m)
        assert_same_matrix(r, want)
        assert pivots == want_pivots

    @settings(deadline=None)
    @given(st.one_of(gf2_matrices(), large_gf2_matrices()))
    def test_rank_matches_bitmask_oracle(self, m):
        rows = [int("".join(map(str, r)), 2) if r.size else 0 for r in m]
        assert gf2_rank(to_cols(m)) == bitmask_rank(rows)

    @given(gf2_matrices())
    def test_nullspace_vectors_are_killed(self, m):
        ns = gf2_nullspace(to_cols(m))
        assert len(ns) == m.shape[1] - gf2_rank(to_cols(m))
        assert all(c >> m.shape[1] == 0 for c in ns)
        assert not any(gf2_matmul(to_cols(m), ns))

    @given(gf2_matrices(), st.integers(1, 3), st.data())
    def test_solve_finds_solutions_of_consistent_systems(self, m, k, data):
        n = m.shape[1] * k
        x = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8
        ).reshape(m.shape[1], k)
        a = to_cols(m)
        bs = gf2_matmul(a, to_cols(x))
        b = bs[:1]
        sol = gf2_solve(a, b)
        assert sol is not None
        assert gf2_matmul(a, sol) == b
        # several right-hand sides give, column by column, the one-column solutions
        many = gf2_solve(a, bs)
        assert len(many) == k and all(c >> m.shape[1] == 0 for c in many)
        for j in range(k):
            assert many[j:j + 1] == gf2_solve(a, bs[j:j + 1])

    @pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 130])
    def test_widths_around_machine_words(self, cols):
        rng = np.random.default_rng(cols)
        m = rng.integers(0, 2, size=(5, cols), dtype=np.uint8)
        m[4] = m[0] ^ m[1]
        r, pivots = gf2_rref(to_cols(m))
        want, want_pivots = reference_rref(m)
        assert np.array_equal(to_array(r, 5), want) and pivots == want_pivots
        assert gf2_rank(to_cols(m)) == len(want_pivots)

    @settings(max_examples=60, deadline=None)
    @given(word_edge_matrices(), st.integers(0, 3), st.data())
    def test_solve_matches_the_rref_reference(self, m, k, data):
        # right-hand sides in the column space, or off it in some columns
        rows, width = m.shape

        def bits(r, c):
            flat = data.draw(st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c))
            return np.array(flat, dtype=np.uint8).reshape(r, c)

        b = product(m, bits(width, k))
        if data.draw(st.booleans()):
            b ^= bits(rows, k)
        assert_same_matrix(gf2_solve(to_cols(m), to_cols(b)), rref_solve(m, b))
        for j in range(k):
            assert_same_matrix(gf2_solve(to_cols(m), to_cols(b[:, [j]])), rref_solve(m, b[:, [j]]))

    @settings(max_examples=60, deadline=None)
    @given(word_edge_matrices())
    def test_nullspace_matches_the_rref_reference(self, m):
        assert_same_matrix(gf2_nullspace(to_cols(m)), rref_nullspace(m))

    @settings(max_examples=60, deadline=None)
    @given(word_edge_matrices())
    def test_column_basis_is_the_pivot_columns(self, m):
        assert_same_matrix(gf2_column_basis(to_cols(m)), m[:, reference_rref(m)[1]])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(word_edge_matrices(square=True), word_edge_matrices()))
    def test_inverse_matches_the_rref_reference(self, m):
        # int columns cannot tell zero rows below a square matrix from none, so
        # the reference inverts the square matrix of a's width, zero-padded,
        # when a has nothing below it, and a is singular otherwise
        n = m.shape[1]
        square = np.zeros((n, n), dtype=np.uint8)
        square[: min(n, m.shape[0])] = m[:n]
        want = None if m[n:].any() else rref_inverse(square)
        assert_same_matrix(gf2_inverse(to_cols(m)), want)

    def test_solve_rejects_a_matrix_with_one_inconsistent_column(self):
        m = to_cols(np.array([[1, 0], [0, 0]], dtype=np.uint8))
        assert gf2_solve(m, to_cols(np.array([[1, 0], [0, 0]], dtype=np.uint8))) is not None
        assert gf2_solve(m, to_cols(np.array([[1, 0], [0, 1]], dtype=np.uint8))) is None

    def test_inverse(self):
        m = to_cols(np.array([[1, 1], [0, 1]], dtype=np.uint8))
        inv = gf2_inverse(m)
        assert np.array_equal(to_array(gf2_matmul(m, inv), 2), np.eye(2, dtype=np.uint8))
        assert gf2_inverse(to_cols(np.array([[1, 1], [1, 1]], dtype=np.uint8))) is None


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
        with pytest.raises(TopologyError, match=re.escape("face ['b'] of ['a', 'b'] is missing")):
            label_complex("ab", [{"a", "b"}, {"a"}])

    def test_rejects_a_missing_middle_face(self):
        # every vertex and the edges ab, bc are there; only ac, a face of abc, is not
        with pytest.raises(
            TopologyError, match=re.escape("face ['a', 'c'] of ['a', 'b', 'c'] is missing")
        ):
            label_complex("abc", [{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"}])

    def test_rejects_the_empty_simplex(self):
        with pytest.raises(TopologyError, match="^empty simplex$"):
            SimplicialComplex(("a",), frozenset({0, 1}))

    def test_rejects_unknown_vertices(self):
        # bit 1 names no vertex of a one-vertex complex
        with pytest.raises(
            TopologyError, match=re.escape("simplex ['a'] uses unknown vertices at bits [1]")
        ):
            SimplicialComplex(("a",), frozenset({0b1, 0b11}))

    def test_unknown_vertices_name_only_the_bits_set(self):
        with pytest.raises(
            TopologyError, match=re.escape("simplex ['a'] uses unknown vertices at bits [2]")
        ):
            SimplicialComplex(("a",), frozenset({0b1, 0b101}))

    def test_the_empty_complex(self):
        k = SimplicialComplex((), frozenset())
        assert k.dim == -1 and k.of_dim(0) == [] and boundary_matrix(k, 0) == []
        assert betti_mod2(k, 1) == [0, 0]

    def test_rejects_a_vertex_without_its_singleton(self):
        with pytest.raises(TopologyError, match="^vertex b has no singleton simplex$"):
            label_complex("ab", [{"a"}])

    def test_labels_are_a_view_of_the_masks(self):
        k = label_complex("abc", [{"a"}, {"b"}, {"c"}, {"a", "c"}, {"b", "c"}])
        assert k.vertices == ("a", "b", "c") and k.masks == {0b100, 0b010, 0b001, 0b101, 0b011}
        assert k.of_dim(1) == [frozenset("ac"), frozenset("bc")]
        same = SimplicialComplex(("c", "b", "a", "a"), k.masks)  # sorted and deduplicated
        assert same == k and hash(same) == hash(k)
        assert k.dim == 1 and euler_characteristic(k) == 1

    @staticmethod
    def assert_matches_label_chains(space):
        k = order_complex(space)
        vertices, simplices = label_order_complex(space)
        assert set(k.vertices) == vertices and k.simplices == simplices
        for p in range(-1, k.dim + 2):
            dim_p = [s for s in simplices if len(s) == p + 1]
            assert k.of_dim(p) == sorted(dim_p, key=lambda s: tuple(sorted(s)))
            assert boundary_matrix(k, p) == label_boundary(simplices, p)

    @given(finspaces())
    def test_chains_match_the_label_reference(self, space):
        self.assert_matches_label_chains(space)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_limit_chains_match_the_label_reference(self, seed):
        self.assert_matches_label_chains(build_fundamental(FuzzGen(seed).cis()).x)

    def test_sphere_and_torus_chains_match_the_label_reference(self):
        for space in [sphere_space(n) for n in range(7)] + [torus_space(2)]:
            self.assert_matches_label_chains(space)

    @given(finspaces())
    def test_boundary_squares_to_zero(self, space):
        k = order_complex(space)
        for p in range(1, k.dim + 2):
            assert not any(gf2_matmul(boundary_matrix(k, p), boundary_matrix(k, p + 1)))


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

    @pytest.mark.parametrize("n", range(7))
    def test_cross_polytopes_against_oracle(self, n):
        vertices, simplices = cross_polytope_boundary(n)
        k = label_complex(vertices, simplices)
        assert betti_mod2(k, n + 1) == complex_betti(simplices, n + 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_limits_against_oracle(self, seed):
        k = order_complex(build_fundamental(FuzzGen(seed).cis()).x)
        pmax = k.dim + 1
        assert betti_mod2(k, pmax) == complex_betti(k.simplices, pmax)

    def test_eight_sphere(self):
        # 19,682 simplices: a growth check, well under a second with int bitsets and clearing
        assert betti_mod2(order_complex(sphere_space(8)), 8) == [1] + [0] * 7 + [1]

    def test_torus_against_staircase_oracle(self):
        ours = betti_mod2(order_complex(torus_space(2)), 3)
        oracle = complex_betti(staircase_torus_complex(), 3)
        assert ours == oracle == [1, 2, 1, 0]

    @given(finspaces())
    def test_h0_is_component_count(self, space):
        assert len(components(space)) == betti_mod2(order_complex(space), 0)[0]

    @given(finspaces())
    def test_euler_characteristic_from_betti(self, space):
        k = order_complex(space)
        pmax = max(k.dim, 0)
        assert euler_characteristic(k) == sum(
            (-1) ** p * b for p, b in enumerate(betti_mod2(k, pmax))
        )


class TestChainData:
    def test_equal_spaces_give_equal_results(self):
        for a, b in [(sphere_space(3), sphere_space(3)), (torus_space(2), torus_space(2))]:
            assert a == b and a is not b
            ka, kb = order_complex(a), order_complex(b)
            assert ka is order_complex(a) and ka is not kb and ka == kb
            for p in range(4):
                assert betti_mod2(ka, p) == betti_mod2(kb, p)
                assert boundary_matrix(ka, p) == boundary_matrix(kb, p)
                ia, ib = induced_matrix(identity_map(a), p), induced_matrix(identity_map(b), p)
                assert ia == ib
                m = CtsMap(a, b, {x: x for x in a.points})
                assert induced_matrix(m, p) == ia
            assert a == b and hash(a) == hash(b)

    def test_mutating_a_boundary_matrix_leaves_the_kept_columns(self):
        touched, fresh = sphere_space(3), sphere_space(3)
        k, ref = order_complex(touched), order_complex(fresh)
        for p in range(k.dim + 2):
            cols = boundary_matrix(k, p)
            cols[:] = [c ^ 1 for c in cols] + [1]
        assert betti_mod2(k, 4) == betti_mod2(ref, 4) == [1, 0, 0, 1, 0]
        for p in range(5):
            assert _homology(touched, p)[1:] == _homology(fresh, p)[1:]
            assert boundary_matrix(k, p) == boundary_matrix(ref, p)

    def test_each_dimension_is_built_once_per_complex(self, monkeypatch):
        # a sphere_tower pass on fresh inputs: every complex it builds, stage
        # and limit, builds each dimension's columns once, and betti numbers,
        # cycles and invariance checks all read them back
        builds, complexes = Counter(), {}
        build = homology._boundary_columns

        def counted(k, p, cells, index):
            builds[id(k), p] += 1
            complexes[id(k)] = k
            return build(k, p, cells, index)

        monkeypatch.setattr(homology, "_boundary_columns", counted)
        for n in range(6):
            c = sphere_chain(n)
            ls = build_fundamental(c)
            pmax = max(n, 1)
            betti_mod2(order_complex(ls.x), pmax)
            for p in range(pmax):
                functorial_invariance_check(c, p, ls)
                counter_functorial_check(c, p, ls)
        assert len(complexes) > 6 and set(builds.values()) == {1}
        assert set(builds) == {(i, p) for i, k in complexes.items() for p in range(k.dim + 1)}

    def test_chain_data_lives_as_long_as_the_space(self):
        space = sphere_space(3)
        induced_matrix(identity_map(space), 2)
        k = weakref.ref(order_complex(space))
        del space
        gc.collect()
        assert k() is None

    def test_kept_flags_and_matrices_die_with_the_map(self):
        # the map must not point back at anything that points at it: with the
        # cyclic collector off, dropping the last reference must free it
        space = sphere_space(2)
        m = CtsMap(space, space, {x: x for x in space.points})
        gc.disable()
        try:
            for name in MapProfile._FLAGS:
                assert getattr(classify_map(m), name)
            assert induced_matrix(m, 0) == [1] and induced_matrix(m, 2) == [1]
            assert set(vars(m)) >= {f"_{name}" for name in MapProfile._FLAGS} | {"_induced"}
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            gc.enable()


def reference_induced(m, p):
    """H_p(m) the matrix way: RREF nullspace cycles, the earliest of them
    independent modulo boundaries, and coordinates from one solve."""

    def hom(space):
        k = order_complex(space)
        cycles, bounds = gf2_nullspace(boundary_matrix(k, p)), boundary_matrix(k, p + 1)
        _, pivots = gf2_rref(bounds + cycles)
        return [cycles[c - len(bounds)] for c in pivots if c >= len(bounds)], bounds

    (hs, _), (ht, bt) = hom(m.source), hom(m.target)
    if not hs or not ht:
        return [0] * len(hs)
    pushed = gf2_matmul(chain_map_matrix(m, p), hs)
    return [x & (1 << len(ht)) - 1 for x in gf2_solve(ht + bt, pushed)]


class TestInducedMatrix:
    @settings(max_examples=40, deadline=None)
    @given(continuous_maps(max_points=5), st.integers(0, 2))
    def test_matches_the_matrix_reference(self, m, p):
        assert induced_matrix(m, p) == reference_induced(m, p)

    def test_torus_maps_match_the_matrix_reference(self):
        t = torus_space(2)
        swap = CtsMap(t, t, {x: "({},{})".format(*reversed(x[1:-1].split(","))) for x in t.points})
        diagonal = CtsMap(t, t, {x: "({0},{0})".format(x[1:-1].split(",")[0]) for x in t.points})
        for m in (swap, diagonal, compose(diagonal, swap)):
            for p in range(3):
                assert induced_matrix(m, p) == reference_induced(m, p)
        assert not np.array_equal(to_array(induced_matrix(swap, 1), 2), np.eye(2, dtype=np.uint8))

    def test_identity_is_identity(self, circle4):
        m = induced_matrix(identity_map(circle4), 1)
        assert np.array_equal(to_array(m, 1), np.eye(1, dtype=np.uint8))

    def test_constant_map_selects_one_component(self):
        two = FinSpace(frozenset("uv"), {"u": frozenset("u"), "v": frozenset("v")})
        m = CtsMap(two, two, {"u": "u", "v": "u"})
        h = induced_matrix(m, 0)
        assert len(h) == 2 and all(c >> 2 == 0 for c in h)
        mat = to_array(h, 2)
        assert np.array_equal(mat @ np.array([1, 0]), mat @ np.array([0, 1]))

    def test_equatorial_inclusion_kills_middle_homology(self):
        s1, s2 = sphere_space(1), sphere_space(2)
        incl = CtsMap(s1, s2, {p: p for p in s1.points})
        mat = induced_matrix(incl, 1)
        assert mat == [0]  # one column and no rows: the circle class dies in the sphere

    def test_rejects_non_continuous(self, sierpinski):
        broken = CtsMap(
            sierpinski,
            FinSpace(frozenset("uv"), {"u": frozenset("u"), "v": frozenset("v")}),
            {"a": "u", "b": "v"},
        )
        with pytest.raises(TopologyError, match="functorial"):
            induced_matrix(broken, 0)

    def test_rejects_negative_degree(self, circle4):
        with pytest.raises(TopologyError, match="degree must be >= 0"):
            induced_matrix(identity_map(circle4), -1)

    def test_a_call_that_raises_keeps_nothing(self, sierpinski):
        # neither a discontinuous map nor a negative degree leaves a table on
        # the map, and the continuity check comes before any order complex
        swap = CtsMap(sierpinski, sierpinski, {"a": "b", "b": "a"})
        with pytest.raises(TopologyError, match="functorial"):
            induced_matrix(swap, 0)
        assert "_induced" not in vars(swap) and "_complex" not in vars(sierpinski)
        ident = identity_map(sierpinski)
        with pytest.raises(TopologyError, match="degree must be >= 0"):
            induced_matrix(ident, -1)
        assert "_induced" not in vars(ident)
        assert induced_matrix(ident, 0) == [1] and set(vars(ident)["_induced"]) == {0}

    def test_chain_map_rejects_discontinuous_structure_maps(self):
        seen = 0
        for seed in range(60):
            gen = FuzzGen(seed)
            c = gen.cis(inductive=True, max_stages=4, max_points=6)
            _, cand = gen.mutate_candidate(build_fundamental(c))
            for phi in cand.phis:
                if classify_map(phi).continuous:
                    continue
                seen += 1
                for p in range(3):
                    with pytest.raises(TopologyError, match="continuous maps"):
                        chain_map_matrix(phi, p)
        assert seen

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_functoriality_on_compositions(self, data):
        f = data.draw(continuous_maps(max_points=4))
        g = data.draw(continuous_maps(source=f.target))
        for p in range(3):
            left = induced_matrix(compose(g, f), p)
            right = gf2_matmul(induced_matrix(g, p), induced_matrix(f, p))
            assert left == right

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2))
    def test_chain_map_matches_the_label_reference(self, data, p):
        # targets with two points in one T0 class, which push through a shared vertex
        shared = finspaces(5).filter(lambda t: len(set(t.min_open.values())) < len(t.points))
        tgt = data.draw(shared)
        m = data.draw(continuous_maps(target=tgt))
        assert chain_map_matrix(m, p) == label_chain_map(m, p)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_chain_map_commutes_with_boundaries(self, data):
        f = data.draw(continuous_maps(max_points=4))
        ks, kt = order_complex(f.source), order_complex(f.target)
        for p in range(1, 3):
            left = gf2_matmul(boundary_matrix(kt, p), chain_map_matrix(f, p))
            right = gf2_matmul(chain_map_matrix(f, p - 1), boundary_matrix(ks, p))
            assert left == right


def matmul_colimit(s):
    """module_colimit by numpy products, last module down."""
    cocone = [np.eye(s.dims[-1], dtype=np.uint8)]
    for m, rows in zip(reversed(s.maps), reversed(s.dims[1:])):
        cocone.insert(0, (cocone[0].astype(np.uint16) @ to_array(m, rows) % 2).astype(np.uint8))
    return s.dims[-1], cocone


@st.composite
def module_chains(draw):
    dims = draw(st.lists(st.sampled_from((0, 1, 2, 3, 5, 64, 65)), min_size=1, max_size=4))
    maps = []
    for n in range(len(dims) - 1):
        size = dims[n + 1] * dims[n]
        flat = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        maps.append(to_cols(np.array(flat, dtype=np.uint8).reshape(dims[n + 1], dims[n])))
    return GF2ModuleSeq(tuple(dims), tuple(maps))


class TestModuleSequences:
    @settings(max_examples=40, deadline=None)
    @given(module_chains())
    def test_colimit_matches_the_matmul_reference(self, seq):
        dim, cocone = module_colimit(seq)
        want_dim, want = matmul_colimit(seq)
        assert dim == want_dim and len(cocone) == len(want)
        for got, ref in zip(cocone, want):
            assert_same_matrix(got, ref)

    def test_constant_identity_sequence(self):
        eye = to_cols(np.eye(2, dtype=np.uint8))
        seq = GF2ModuleSeq((2, 2, 2), (eye, eye))
        dim, cocone = module_colimit(seq)
        assert dim == 2
        assert all(np.array_equal(to_array(c, 2), np.eye(2, dtype=np.uint8)) for c in cocone)

    def test_zero_tail_sequence(self):
        seq = GF2ModuleSeq((2, 1), (to_cols(np.zeros((1, 2), dtype=np.uint8)),))
        dim, cocone = module_colimit(seq)
        assert dim == 1
        assert not any(cocone[0])

    def test_single_module(self):
        seq = GF2ModuleSeq((3,), ())
        assert module_colimit(seq)[0] == 3

    def test_sphere_middle_homology_colimit_vanishes(self):
        seq = stage_homology_sequence(sphere_chain(4), 1)
        assert seq.dims == (0, 1, 0, 0, 0)
        assert module_colimit(seq)[0] == 0

    @pytest.mark.parametrize(
        "dims, maps, index",
        [((-2,), (), 0), ((1, 1.7), ([1],), 1), ((True,), (), 0), ((2, -1, 0), ([0, 0], []), 1)],
    )
    def test_dimensions_must_be_nonnegative_integers(self, dims, maps, index):
        # int() would turn 1.7 into 1 and True into 1, and let -2 through
        with pytest.raises(TopologyError, match=f"dimension {index} must be an integer >= 0"):
            GF2ModuleSeq(dims, maps)

    def test_integer_dimensions_of_any_integral_type_are_accepted(self):
        seq = GF2ModuleSeq((np.int64(1), 0, 2), ([0], []))
        assert seq.dims == (1, 0, 2) and all(type(d) is int for d in seq.dims)
        assert module_colimit(GF2ModuleSeq((0,), ())) == (0, [[]])

    def test_shape_mismatch_rejected(self):
        # a third row shows only where it holds a bit; a third column always does
        tall = np.zeros((3, 2), dtype=np.uint8)
        tall[2, 0] = 1
        for m in (tall, np.zeros((2, 3), dtype=np.uint8)):
            with pytest.raises(TopologyError, match="shape"):
                GF2ModuleSeq((2, 2), (to_cols(m),))


def rref_intertwiner(constraints, from_dim, to_dim):
    """Solve h @ a_k = b_k for all k through one textbook RREF of [a.T | b.T]:
    (h or None, unique, witnesses).  A pivot right of a.T marks the first
    row of h that has no solution."""
    a = np.concatenate([ak for ak, _ in constraints], axis=1)
    b = np.concatenate([bk for _, bk in constraints], axis=1)
    r, pivots = reference_rref(np.concatenate([a.T, b.T], axis=1))
    lead = [col for col in pivots if col < from_dim]
    unique = len(lead) == from_dim
    if len(lead) < len(pivots):
        return None, unique, (f"no map matches the cocone on row {pivots[len(lead)] - from_dim}",)
    h = np.zeros((to_dim, from_dim), dtype=np.uint8)
    h[:, lead] = r[: len(lead), from_dim:].T
    return h, unique, ()


def matrix_invariance_report(c, p, lim):
    """functorial_invariance_check from the public matrices, as an oracle:
    (exists, unique, iso, witnesses)."""
    module_dim, cocone = module_colimit(stage_homology_sequence(c, p))
    limit_dim = betti_mod2(order_complex(lim.x), p)[p]
    structure = [to_array(induced_matrix(phi, p), limit_dim) for phi in lim.phis]
    cocone = [to_array(b, module_dim) for b in cocone]
    h, unique, witnesses = rref_intertwiner(list(zip(structure, cocone)), limit_dim, module_dim)
    if h is None:
        return False, unique, None, witnesses
    if limit_dim != module_dim or gf2_rank(to_cols(h)) != limit_dim:
        return False, unique, None, ("intertwiner exists but is not an isomorphism",)
    bad = tuple(
        f"intertwiner fails on stage {k}"
        for k, (a, b) in enumerate(zip(structure, cocone))
        if not np.array_equal(product(h, a), b)
    )
    return not bad, unique, None if bad else h, bad


class TestInvariance:
    def test_matches_the_matrix_reference_on_fuzzed_and_mutated_limits(self):
        failing_rows = 0
        for seed in range(80):
            gen = FuzzGen(seed)
            c = gen.cis(inductive=True, max_stages=4, max_points=6)
            ls = build_fundamental(c)
            for lim in (ls, gen.mutate_candidate(ls)[1], gen.mutate_candidate(ls)[1]):
                for p in range(3):
                    try:
                        want = matrix_invariance_report(c, p, lim)
                    except TopologyError:  # a mutated structure map may be discontinuous
                        continue
                    rep = functorial_invariance_check(c, p, lim)
                    assert (rep.iso_exists, rep.iso_unique, rep.witnesses) == (
                        want[0], want[1], want[3]
                    )
                    assert_same_matrix(rep.iso, want[2])
                    failing_rows += any("on row" in w for w in rep.witnesses)
        assert failing_rows

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kept_matrices_equal_fresh_ones(self, seed):
        c = FuzzGen(seed).cis(inductive=True, max_stages=4, max_points=6)
        ls = build_fundamental(c)
        maps = [st_.f for st_ in c.stages[:-1]] + list(ls.phis)
        for p in range(3):
            assert functorial_invariance_check(c, p, ls).ok
            assert counter_functorial_check(c, p, ls).ok
            for m in maps:
                fresh = CtsMap(m.source, m.target, dict(m.assignment))
                assert induced_matrix(m, p) == induced_matrix(fresh, p)

    def test_the_second_check_reads_the_kept_matrices(self, monkeypatch):
        from cislim import homology

        c = sphere_chain(3)
        ls = build_fundamental(c)
        pushes = []
        push = homology._push
        monkeypatch.setattr(homology, "_push", lambda *a: pushes.append(a[:2]) or push(*a))
        first = [functorial_invariance_check(c, p, ls).render() for p in range(3)]
        stage_maps = [st_.f for st_ in c.stages[:-1]]
        assert {(id(m), p) for m, p in pushes} == {(id(m), 0) for m in stage_maps + list(ls.phis)}
        pushes.clear()
        again = [counter_functorial_check(c, p, ls).render() for p in range(3)]
        assert again == first and pushes == []
        # a copy of the limit carries new structure maps: only they are pushed
        twin = LimitSpace(ls.x, tuple(CtsMap(phi.source, ls.x, phi.assignment) for phi in ls.phis))
        assert functorial_invariance_check(c, 0, twin).render() == first[0]
        assert [id(m) for m, _ in pushes] == [id(phi) for phi in twin.phis]

    def test_one_record_per_distinct_space(self, monkeypatch):
        # each stage's attachment is defined on the stage itself, so stage and
        # attachment share one order complex, and the limit has its own
        built = []
        build = homology._build_complex
        monkeypatch.setattr(homology, "_build_complex", lambda x: built.append(x) or build(x))
        c = sphere_chain(3)
        ls = build_fundamental(c)
        assert functorial_invariance_check(c, 1, ls).ok
        spaces = [st_.space for st_ in c.stages] + [ls.x]
        assert sorted(map(id, built)) == sorted(map(id, spaces))

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
        assert np.array_equal(to_array(rep.iso, 1), np.eye(1, dtype=np.uint8))

    def test_torus_chain_degree_one(self):
        c = torus_chain(2)
        rep = functorial_invariance_check(c, 1)
        assert rep.ok
        assert rep.limit_dim == rep.module_dim == 2

    def test_rejects_non_inductive(self):
        from cislim.gallery import interval_chain

        with pytest.raises(TopologyError, match="inductive"):
            functorial_invariance_check(interval_chain(2), 0)

    def test_rejects_a_limit_not_aligned_with_the_stages(self):
        c = sphere_chain(2)
        ls = build_fundamental(c)
        short = LimitSpace(ls.x, ls.phis[:-1])
        with pytest.raises(TopologyError, match="2 structure maps for 3 stages"):
            functorial_invariance_check(c, 0, short)

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
        assert np.array_equal(to_array(rep.iso, 1), np.eye(1, dtype=np.uint8))

    def test_counter_is_the_transposed_covariant_check(self):
        c = sphere_chain(4)
        ls = build_fundamental(c)
        for p in range(4):
            rep = functorial_invariance_check(c, p, ls)
            co = counter_functorial_check(c, p, ls)
            assert np.array_equal(to_array(co.iso, co.limit_dim), to_array(rep.iso, rep.module_dim).T)
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
            assert np.array_equal(to_array(co.iso, co.limit_dim), to_array(rep.iso, rep.module_dim).T)
        assert co.render() == rep.render()

    def test_one_solve_gives_both_reports(self):
        for seed in range(20):
            c = FuzzGen(seed).cis(inductive=True, max_stages=4, max_points=6)
            ls = build_fundamental(c)
            for p in range(3):
                twin = functorial_invariance_check(c, p, ls).contravariant()
                assert vars(twin) == vars(counter_functorial_check(c, p, ls))

    def test_invariance_reports_are_pinned(self):
        # both checks on fuzzed systems, their built limits and one mutant each;
        # a check that raises is pinned by its exception
        h = hashlib.sha256()
        for seed in range(60):
            gen = FuzzGen(seed)
            c = gen.cis(inductive=True, max_stages=4, max_points=6)
            ls = build_fundamental(c)
            kind, cand = gen.mutate_candidate(ls)
            for name, lim in (("built", ls), (kind, cand)):
                for p in range(4):
                    for check in (functorial_invariance_check, counter_functorial_check):
                        h.update(f"{seed} {name} {p} {check.__name__}\n".encode())
                        try:
                            rep = check(c, p, lim)
                        except Exception as err:
                            h.update(f"{type(err).__name__}: {err}\n".encode())
                            continue
                        h.update(f"{rep.render()}\n{rep.iso_unique}\n".encode())
                        if rep.iso is not None:
                            iso = to_array(rep.iso, rep.module_dim)
                            h.update(f"{iso.shape}\n".encode() + iso.tobytes())
        assert h.hexdigest() == (
            "75e593b4d29ffbe734da40c3cb2ff03bd032aa5e47c5161bdf5ea3bb886e5ec3"
        )

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


class TestKeptRanks:
    """A degree whose kept boundary ranks show it acyclic skips the tagged
    reduction; `_homology` and the invariance checks give the same results."""

    @staticmethod
    def tagged_reductions(monkeypatch):
        """(space, degree) of every `_echelon` call with shift > 0 that
        `_homology` makes, in call order."""
        calls, current = [], []
        echelon, homology_ = homology._echelon, homology._homology

        def counted_echelon(cols, shift=0, skip=(), basis=None):
            if shift > 0 and current:
                calls.append(current[-1])
            return echelon(cols, shift, skip, basis)

        def tracked_homology(space, p):
            current.append((space, p))
            try:
                return homology_(space, p)
            finally:
                current.pop()

        monkeypatch.setattr(homology, "_echelon", counted_echelon)
        monkeypatch.setattr(homology, "_homology", tracked_homology)
        return calls

    def test_betti_ranks_leave_only_the_top_degree_to_reduce(self, monkeypatch):
        ls = build_fundamental(sphere_chain(5))
        assert betti_mod2(order_complex(ls.x), 5) == [1, 0, 0, 0, 0, 1]
        calls = self.tagged_reductions(monkeypatch)
        for p in range(1, 5):
            assert homology._homology(ls.x, p)[1] == [] and calls == [], p
        assert len(homology._homology(ls.x, 5)[1]) == 1
        assert calls and {p for _, p in calls} == {5}

    @pytest.mark.parametrize("pmax", [0, 1, 2, 4, 6])
    def test_betti_reduces_each_dimension_once_whatever_pmax(self, monkeypatch, pmax):
        # the first clearing call recurses up through every dimension, so on
        # S^4 any pmax makes the same four reductions, from the top dimension
        # down, and a second call makes none
        widths = []
        echelon = homology._echelon

        def counted(cols, shift=0, skip=(), basis=None):
            widths.append(len(cols))
            return echelon(cols, shift, skip, basis)

        monkeypatch.setattr(homology, "_echelon", counted)
        k = order_complex(sphere_space(4))
        assert betti_mod2(k, pmax) == [1, 0, 0, 0, 1, 0, 0][: pmax + 1]
        assert widths == [len(k.of_dim(p)) for p in (4, 3, 2, 1)] == [32, 80, 80, 40]
        betti_mod2(k, pmax)
        assert len(widths) == 4

    def test_no_reduction_runs_only_to_learn_a_rank(self, monkeypatch):
        # on a fresh complex, degree 3 alone needs clearing from dimension 4 up;
        # r_3 is not known, so the tagged reduction runs and r_3 stays unreduced
        ls = build_fundamental(sphere_chain(5))
        calls = self.tagged_reductions(monkeypatch)
        assert homology._homology(ls.x, 3)[1] == []
        assert {p for _, p in calls} == {3}
        assert 3 not in vars(order_complex(ls.x))["_boundaries"]

    def test_an_ascending_sweep_reduces_only_cyclic_degrees(self, monkeypatch):
        # each degree's clearing keeps the rank the next degree needs, so only
        # degree 0 and the degrees with b_p > 0 run the tagged reduction
        calls = self.tagged_reductions(monkeypatch)
        skipped = 0
        for seed in range(12):
            c = FuzzGen(seed).cis(inductive=True, max_stages=4, max_points=8)
            ls = build_fundamental(c)
            spaces = {id(x): x for x in [st_.space for st_ in c.stages] + [ls.x]}
            calls.clear()
            for p in range(4):
                assert functorial_invariance_check(c, p, ls).ok
                assert counter_functorial_check(c, p, ls).ok
            betti = {i: betti_mod2(order_complex(x), 3) for i, x in spaces.items()}
            assert [(id(x), p) for x, p in calls] == [
                (i, p) for p in range(4) for i in spaces if betti[i][p] > 0
                for _ in range(2)  # the cycles, then the classes
            ]
            skipped += sum(
                betti[i][p] == 0 and len(order_complex(x)._cells(p)) > 0
                for i, x in spaces.items() for p in range(4)
            )
        assert skipped, "no acyclic degree with simplices was swept"

    def test_kept_ranks_give_the_cycles_and_classes_of_a_full_reduction(self):
        # stage spaces, built limits and mutated candidates of fuzzed systems:
        # with betti first, or with the ranks a lower degree kept, each degree
        # equals a rebuilt space's asked in descending order, which knows no
        # rank below the degree and so runs every reduction; acyclic degrees
        # with simplices and degrees with b_p > 0 both occur
        seen, spaces = Counter(), 0
        for seed in range(48):
            gen = FuzzGen(seed)
            c = gen.cis(inductive=seed % 2 == 0, max_stages=4, max_points=7)
            ls = build_fundamental(c)
            for x in [st_.space for st_ in c.stages] + [ls.x, gen.mutate_candidate(ls)[1].x]:
                spaces += 1
                ref = rebuilt_space(x)
                want = {p: _homology(ref, p)[1:] for p in (3, 2, 1, 0)}
                ascending = rebuilt_space(x)
                betti = betti_mod2(order_complex(x), 3)
                for p in range(4):
                    for y in (x, ascending):
                        cycles, classes = _homology(y, p)[1:]
                        assert cycles == want[p][0] and list(classes.items()) == list(
                            want[p][1].items()
                        )
                    assert len(want[p][0]) == betti[p]
                    seen[betti[p] > 0, len(order_complex(x)._cells(p)) > 0] += 1
        assert spaces >= 200 and seen[True, True] and seen[False, True]


class TestKeptStageSide:
    def test_one_stage_chain_per_system_and_degree(self, monkeypatch):
        built = Counter()
        sequence = homology.stage_homology_sequence

        def counted(c, p):
            built[id(c), p] += 1
            return sequence(c, p)

        monkeypatch.setattr(homology, "stage_homology_sequence", counted)
        c = sphere_chain(3)
        ls = build_fundamental(c)
        renders = {}
        for p in range(3):
            for check in (functorial_invariance_check, counter_functorial_check) * 2:
                renders.setdefault(p, set()).add(check(c, p, ls).render())
        assert built == {(id(c), p): 1 for p in range(3)}
        # an equal system shares nothing kept with c, so it builds its own
        twin = rebuilt_cis(c)
        for p in range(3):
            for check in (functorial_invariance_check, counter_functorial_check):
                assert {check(twin, p).render()} == renders[p]
        assert {k: n for k, n in built.items() if k[0] == id(twin)} == {
            (id(twin), p): 1 for p in range(3)
        }

    def test_the_public_chain_and_colimit_are_fresh_objects(self):
        c = sphere_chain(2)
        ls = build_fundamental(c)
        want = functorial_invariance_check(c, 0, ls).render()
        seq = stage_homology_sequence(c, 0)
        dim, cocone = module_colimit(seq)
        assert (dim, cocone) == (1, [[1, 1], [1], [1]])
        assert seq is not stage_homology_sequence(c, 0)
        assert cocone is not module_colimit(seq)[1]
        cocone[0][:] = [0]
        seq.maps[0][:] = [0]
        assert functorial_invariance_check(c, 0, ls).render() == want
        assert module_colimit(stage_homology_sequence(c, 0)) == (1, [[1, 1], [1], [1]])

    def test_a_check_that_raises_keeps_nothing(self):
        from cislim.gallery import interval_chain

        c = sphere_chain(2)
        ls = build_fundamental(c)
        with pytest.raises(TopologyError, match="degree must be >= 0"):
            functorial_invariance_check(c, -1, ls)
        loose = interval_chain(2)
        with pytest.raises(TopologyError, match="inductive"):
            functorial_invariance_check(loose, 0)
        assert "_stage_side" not in vars(c) and "_stage_side" not in vars(loose)
        functorial_invariance_check(c, 1, ls)
        assert set(vars(c)["_stage_side"]) == {1}
