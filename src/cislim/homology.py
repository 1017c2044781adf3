"""Algebraic functors on finite spaces over GF(2).

A finite space is weakly equivalent to the order complex of its
specialization order, so homology of a space here means simplicial
homology of that complex with mod-2 coefficients; this is the bridge
from abstract module-valued functors to something a desk machine can
row-reduce.  Cohomology is realized by transposing, which over a field
carries the same dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cis import Cis, is_inductive, stage_map
from .finspace import CtsMap, FinSpace, TopologyError, components
from .limit import LimitSpace, build_fundamental

# ---------------------------------------------------------------------------
# GF(2) linear algebra on uint8 arrays


def gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns)."""
    r = (np.asarray(mat, dtype=np.uint8) % 2).copy()
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        hit = -1
        for k in range(row, rows):
            if r[k, col]:
                hit = k
                break
        if hit < 0:
            continue
        if hit != row:
            r[[row, hit]] = r[[hit, row]]
        for k in range(rows):
            if k != row and r[k, col]:
                r[k] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return len(gf2_rref(mat)[1])


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a x = b over GF(2), or None if inconsistent."""
    a = np.asarray(a, dtype=np.uint8) % 2
    b = np.asarray(b, dtype=np.uint8) % 2
    rows, cols = a.shape
    aug = np.concatenate([a, b.reshape(rows, 1)], axis=1)
    r, pivots = gf2_rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for k, col in enumerate(pivots):
        x[col] = r[k, cols]
    return x


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint16) @ b.astype(np.uint16) % 2).astype(np.uint8)


def gf2_inverse(a: np.ndarray) -> np.ndarray | None:
    a = np.asarray(a, dtype=np.uint8) % 2
    if a.shape[0] != a.shape[1]:
        return None
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    r, pivots = gf2_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]


def gf2_nullspace(a: np.ndarray) -> np.ndarray:
    """Columns form a basis of the kernel of a."""
    rows, cols = a.shape
    r, pivots = gf2_rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row_idx, pc in enumerate(pivots):
            if r[row_idx, fc]:
                basis[pc, k] = 1
    return basis


def gf2_column_basis(a: np.ndarray) -> np.ndarray:
    """A maximal independent subset of the columns of a."""
    _, pivots = gf2_rref(a)
    return a[:, pivots].astype(np.uint8)


# ---------------------------------------------------------------------------
# simplicial complexes


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: frozenset[str]
    simplices: frozenset[frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "simplices", frozenset(frozenset(s) for s in self.simplices))
        for s in self.simplices:
            if not s:
                raise TopologyError("empty simplex")
            if not s <= self.vertices:
                raise TopologyError(f"simplex {sorted(s)} uses unknown vertices")
            for v in s:
                if s - {v} and (s - {v}) not in self.simplices:
                    raise TopologyError(f"face {sorted(s - {v})} of {sorted(s)} is missing")
        for v in self.vertices:
            if frozenset({v}) not in self.simplices:
                raise TopologyError(f"vertex {v} has no singleton simplex")

    def of_dim(self, p: int) -> list[frozenset[str]]:
        return sorted(
            (s for s in self.simplices if len(s) == p + 1), key=lambda s: tuple(sorted(s))
        )

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)


def t0_classes(space: FinSpace) -> dict[str, str]:
    """Each point's T0 class label (points sharing a minimal open set)."""
    groups: dict[frozenset, list[str]] = {}
    for p in sorted(space.points):
        groups.setdefault(space.min_open[p], []).append(p)
    out = {}
    for members in groups.values():
        label = min(members)
        for p in members:
            out[p] = label
    return out


def order_complex(space: FinSpace) -> SimplicialComplex:
    """Chains of the specialization order of the T0 quotient.

    y specializes to x when x lies in U_y; collapsing topologically
    indistinguishable points first makes the relation a partial order, and
    the collapse does not change the weak homotopy type.
    """
    cls = t0_classes(space)
    reps = sorted(set(cls.values()))
    below = {
        c: frozenset(
            d for d in reps if d != c and c in space.min_open[d]
        )  # d < c: c in U_d
        for c in reps
    }
    simplices: set[frozenset] = set()

    def extend(chain: tuple[str, ...], top: str):
        simplices.add(frozenset(chain))
        for nxt in reps:
            if top in below[nxt]:
                extend(chain + (nxt,), nxt)

    for c in reps:
        extend((c,), c)
    return SimplicialComplex(frozenset(reps), frozenset(simplices))


def boundary_matrix(k: SimplicialComplex, p: int) -> np.ndarray:
    """The mod-2 boundary from p-simplices to (p-1)-simplices."""
    if p <= 0:
        return np.zeros((0, len(k.of_dim(0))), dtype=np.uint8)
    rows = {s: idx for idx, s in enumerate(k.of_dim(p - 1))}
    cols = k.of_dim(p)
    mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, s in enumerate(cols):
        for v in s:
            mat[rows[s - {v}], j] = 1
    return mat


def betti_mod2(k: SimplicialComplex, pmax: int) -> list[int]:
    """b_p = dim ker boundary_p - dim im boundary_{p+1} for p = 0..pmax."""
    if pmax < 0:
        raise TopologyError("pmax must be >= 0")
    out = []
    for p in range(pmax + 1):
        n_p = len(k.of_dim(p))
        rank_p = gf2_rank(boundary_matrix(k, p))
        rank_next = gf2_rank(boundary_matrix(k, p + 1))
        out.append(n_p - rank_p - rank_next)
    return out


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in k.simplices)


def h0_rank(space: FinSpace) -> int:
    """Rank of the free module on connected components."""
    return len(components(space))


# ---------------------------------------------------------------------------
# the homology functor on maps


def _homology_basis(k: SimplicialComplex, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(representative cycles H, boundary basis B), columns over C_p."""
    cycles = gf2_nullspace(boundary_matrix(k, p))
    bounds = gf2_column_basis(boundary_matrix(k, p + 1))
    if cycles.shape[1] == 0:
        return cycles, bounds
    stacked = np.concatenate([bounds, cycles], axis=1)
    _, pivots = gf2_rref(stacked)
    picked = [c - bounds.shape[1] for c in pivots if c >= bounds.shape[1]]
    return cycles[:, picked], bounds


def _coords_in_homology(h: np.ndarray, b: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Coordinates of a cycle's class in the basis h, modulo the boundaries b."""
    if h.shape[1] == 0:
        return np.zeros(0, dtype=np.uint8)
    system = np.concatenate([h, b], axis=1) if b.shape[1] else h
    sol = gf2_solve(system, vec)
    if sol is None:
        raise TopologyError("vector is not a cycle modulo boundaries")
    return sol[: h.shape[1]]


def chain_map_matrix(m: CtsMap, p: int) -> np.ndarray:
    """The simplicial chain map between order complexes in degree p.

    Continuous maps of finite spaces preserve specialization, hence send
    chains to (possibly degenerate) chains; degenerate images vanish mod 2.
    """
    ks = order_complex(m.source)
    kt = order_complex(m.target)
    src_cls = t0_classes(m.source)
    tgt_cls = t0_classes(m.target)
    vmap = {c: tgt_cls[m(c)] for c in ks.vertices}
    rows = {s: i for i, s in enumerate(kt.of_dim(p))}
    cols = ks.of_dim(p)
    mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, s in enumerate(cols):
        image = frozenset(vmap[v] for v in s)
        if len(image) == len(s):
            mat[rows[image], j] = 1
    return mat


def induced_matrix(m: CtsMap, p: int) -> np.ndarray:
    """The matrix of the degree-p homology functor applied to m."""
    from .finspace import classify_map

    if not classify_map(m).continuous:
        raise TopologyError("homology is only functorial on continuous maps")
    ks = order_complex(m.source)
    kt = order_complex(m.target)
    hs, _ = _homology_basis(ks, p)
    ht, bt = _homology_basis(kt, p)
    chain = chain_map_matrix(m, p)
    out = np.zeros((ht.shape[1], hs.shape[1]), dtype=np.uint8)
    for j in range(hs.shape[1]):
        pushed = gf2_matmul(chain, hs[:, j])
        out[:, j] = _coords_in_homology(ht, bt, pushed)
    return out


def homology_dim(space: FinSpace, p: int) -> int:
    return betti_mod2(order_complex(space), p)[p]


# ---------------------------------------------------------------------------
# module sequences and their (co)limits


@dataclass(frozen=True, eq=False)
class GF2ModuleSeq:
    """A finite chain of GF(2) vector spaces and maps, dims[n+1] x dims[n]."""

    dims: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "maps", tuple(np.asarray(m, dtype=np.uint8) % 2 for m in self.maps)
        )
        if len(self.maps) != len(self.dims) - 1:
            raise TopologyError("need exactly one map between consecutive modules")
        for n, m in enumerate(self.maps):
            if m.shape != (self.dims[n + 1], self.dims[n]):
                raise TopologyError(
                    f"map {n} has shape {m.shape}, expected {(self.dims[n + 1], self.dims[n])}"
                )


def module_colimit(s: GF2ModuleSeq) -> tuple[int, list[np.ndarray]]:
    """Colimit of a finite chain: the last module, with the composites to it
    as the cocone.  Returned as matrices so invariance can be checked
    map-by-map rather than by dimension counting."""
    n = len(s.dims)
    cocone: list[np.ndarray] = [None] * n
    cocone[n - 1] = np.eye(s.dims[n - 1], dtype=np.uint8)
    for k in range(n - 2, -1, -1):
        cocone[k] = gf2_matmul(cocone[k + 1], s.maps[k])
    return s.dims[n - 1], cocone


def module_limit(s: GF2ModuleSeq) -> tuple[int, list[np.ndarray]]:
    """Limit of the dualized (reversed, transposed) chain; for a finite
    chain this is again the last module, with transposed composites as the
    cone."""
    dim, cocone = module_colimit(s)
    return dim, [m.T.copy() for m in cocone]


def stage_homology_sequence(c: Cis, p: int) -> GF2ModuleSeq:
    """The chain {H_p(X_i), H_p(f_i)} of an inductive system."""
    if not is_inductive(c):
        raise TopologyError("stage homology sequences need an inductive system")
    dims = [homology_dim(st.space, p) for st in c.stages]
    maps = [induced_matrix(stage_map(c, i), p) for i in range(c.stage_count - 1)]
    return GF2ModuleSeq(tuple(dims), tuple(maps))


# ---------------------------------------------------------------------------
# invariance checks


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    p: int
    limit_dim: int
    module_dim: int
    iso_exists: bool
    iso_unique: bool
    iso: np.ndarray | None
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.iso_exists and self.limit_dim == self.module_dim

    def render(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [
            f"degree {self.p}: limit side {self.limit_dim}, chain side {self.module_dim}: {status}"
        ]
        lines += [f"  witness: {w}" for w in self.witnesses]
        return "\n".join(lines)


def _solve_intertwiner(
    constraints: list[tuple[np.ndarray, np.ndarray]], from_dim: int, to_dim: int
) -> tuple[np.ndarray | None, bool, tuple[str, ...]]:
    """Solve h @ a_k = b_k for all k; h has shape to_dim x from_dim.

    Returns (solution, forced-uniquely, witnesses).  Uniqueness holds iff the
    a_k columns span the domain; otherwise the free part is zero-filled and a
    non-invertible fill shows up downstream as a failed isomorphism check."""
    if not constraints:
        return np.eye(to_dim, from_dim, dtype=np.uint8), from_dim == 0, ()
    a = np.concatenate([ak for ak, _ in constraints], axis=1)
    b = np.concatenate([bk for _, bk in constraints], axis=1)
    witnesses = []
    rows = []
    unique = gf2_rank(a) == from_dim
    for r in range(to_dim):
        sol = gf2_solve(a.T, b.T[:, r])
        if sol is None:
            witnesses.append(f"no map matches the cocone on row {r}")
            return None, unique, tuple(witnesses)
        rows.append(sol)
    h = np.array(rows, dtype=np.uint8).reshape(to_dim, from_dim)
    return h, unique, tuple(witnesses)


def functorial_invariance_check(
    c: Cis, p: int, limit: LimitSpace | None = None
) -> InvarianceReport:
    """Homology of the fundamental limit against the colimit of the stage
    homology chain: a unique isomorphism must intertwine the structure maps."""
    if not is_inductive(c):
        raise TopologyError("invariance holds for inductive systems; this one glues less")
    ls = limit if limit is not None else build_fundamental(c)
    seq = stage_homology_sequence(c, p)
    module_dim, cocone = module_colimit(seq)
    limit_complex = order_complex(ls.x)
    limit_dim = betti_mod2(limit_complex, p)[p]
    structure = [induced_matrix(phi, p) for phi in ls.phis]

    witnesses: list[str] = []
    h, unique, solver_wit = _solve_intertwiner(
        list(zip(structure, cocone)), limit_dim, module_dim
    )
    witnesses.extend(solver_wit)
    exists = h is not None
    if exists:
        invertible = limit_dim == module_dim and (
            limit_dim == 0 or gf2_inverse(h) is not None
        )
        if not invertible:
            exists = False
            witnesses.append("intertwiner exists but is not an isomorphism")
        else:
            for k, (a_k, b_k) in enumerate(zip(structure, cocone)):
                if not np.array_equal(gf2_matmul(h, a_k), b_k):
                    exists = False
                    witnesses.append(f"intertwiner fails on stage {k}")
    return InvarianceReport(
        p, limit_dim, module_dim, exists, unique, h if exists else None, tuple(witnesses)
    )


def counter_functorial_check(
    c: Cis, p: int, limit: LimitSpace | None = None
) -> InvarianceReport:
    """The contravariant twin: the limit of the dualized chain against the
    cohomology of the fundamental limit, intertwined through the transposed
    structure maps.

    Transposing h @ induced_k = cocone_k gives induced_k.T @ h.T = cone_k,
    the same linear system, so the intertwiner is the covariant one
    transposed and every dimension, flag and witness carries over."""
    rep = functorial_invariance_check(c, p, limit)
    return replace(rep, iso=None if rep.iso is None else rep.iso.T.copy())
