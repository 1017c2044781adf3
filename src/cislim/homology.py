"""Algebraic functors on finite spaces over GF(2).

A finite space is weakly equivalent to the order complex of its
specialization order, so homology of a space here means simplicial
homology of that complex with mod-2 coefficients; this is the bridge
from abstract module-valued functors to something a desk machine can
row-reduce.  Cohomology is realized by transposing, which over a field
carries the same dimensions.

A simplex is a vertex mask over the complex's sorted vertices, earlier
labels in higher bits; label sets (`simplices`, `of_dim`) are a view
derived on read.  A `SimplicialComplex` builds its chain data (its
simplices per dimension, their index and every boundary column) in its
constructor, in the one pass that checks its faces.

A matrix is a list of Python ints, one per column, with row r in bit r;
its row count is whatever the context fixes.  This is the one matrix type,
inside the library and out.  One kernel, `_echelon`, reduces columns by
leading bit.  Boundary columns are reduced from the top dimension down,
skipping the pivots of the dimension above ("clearing": Chen & Kerber,
Persistent homology computation with a twist, 2011), and a degree's
canonical cycles are the earliest RREF nullspace vectors independent
modulo boundaries.  A degree whose kept boundary ranks give
n_p = r_p + r_{p+1} has b_p = 0 and keeps no cycles without the
index-tagged reduction; no reduction runs only to learn a rank.  Linear
systems are solved by one index-tagged reduction, `_solve`.

A space keeps one homology object, its order complex, and every
per-degree fact is kept on its owner from first use by `_kept_at` and
lives as long as the owner: a complex's boundary bases and the cycles and
classes of each degree, a map's H_p(m), next to the flags `finspace`
keeps on it, and an inductive system's stage side, next to its
`CisValidation`.  So a second check on the same system and maps reads
them back, and a call that raises keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import xor

from .cis import Cis, is_inductive
from .finspace import CtsMap, FinSpace, TopologyError, _kept, _kept_at, classify_map
from .limit import LimitSpace, _require_aligned, build_fundamental

# ---------------------------------------------------------------------------
# GF(2) linear algebra on int columns


def _echelon(cols, shift: int = 0, skip=(), basis: dict[int, int] | None = None):
    """Reduce columns left to right against an echelon basis keyed by leading bit, adding
    those that stay nonzero; bits below `shift` only record what was added.  Returns the
    basis and each vanishing column's (index, low bits); `skip` indexes known zeros."""
    basis = {} if basis is None else basis
    zero = []
    for j, v in enumerate(cols):
        if j not in skip:
            while v >> shift and (t := v.bit_length() - 1) in basis:
                v ^= basis[t]
            if v >> shift:
                basis[t] = v
            else:
                zero.append((j, v))
    return basis, zero


def _solve(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Solve a x = b column by column.  a's columns are reduced carrying their own
    index below bit len(a), so only pivot columns enter the basis.  Returns the kernel
    of a, one vector per free column, and the solutions of b's columns up to the first
    one outside the span of a; both are the RREF's, zero on every free column but a
    kernel vector's own."""
    n = len(a)
    _, zero = _echelon([c << n | 1 << j for j, c in enumerate(a)] + [c << n for c in b], n)
    null = [v for j, v in zero if j < n]
    # once a column of b stays nonzero, each later vanishing one lags its place in zero
    return null, [v for k, (j, v) in enumerate(zero[len(null):]) if j == n + k]


def _transpose(cols: list[int], rows: int) -> list[int]:
    """The columns of the transpose of a matrix with `rows` rows."""
    return [sum((c >> r & 1) << j for j, c in enumerate(cols)) for r in range(rows)]


def gf2_matmul(a: list[int], b: list[int]) -> list[int]:
    """The product a @ b."""
    return [reduce(xor, (c for i, c in enumerate(a) if v >> i & 1), 0) for v in b]


def gf2_rref(a: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns).
    a = C R with C the pivot columns of a (the CR factorization), so each
    column of R holds its column's coordinates over the pivot columns."""
    free = dict(_echelon(a)[1])
    pivots = [j for j in range(len(a)) if j not in free]
    return _solve([a[j] for j in pivots], a)[1], pivots


def gf2_rank(a: list[int]) -> int:
    return len(_echelon(a)[0])


def gf2_solve(a: list[int], b: list[int]) -> list[int] | None:
    """One solution x of a x = b over GF(2), one column per column of b, solved
    with one reduction; None if some column of b is outside the span of a."""
    xs = _solve(a, b)[1]
    return xs if len(xs) == len(b) else None


def gf2_inverse(a: list[int]) -> list[int] | None:
    """The inverse of a, read as a square matrix (one row per column); None if
    that is singular, or if a has a bit in a row past its last column."""
    return gf2_solve(a, [1 << i for i in range(len(a))])


def gf2_nullspace(a: list[int]) -> list[int]:
    """Columns form a basis of the kernel of a."""
    return _solve(a, [])[0]


def gf2_column_basis(a: list[int]) -> list[int]:
    """A maximal independent subset of the columns of a: its pivot columns."""
    free = dict(_echelon(a)[1])
    return [c for j, c in enumerate(a) if j not in free]


# ---------------------------------------------------------------------------
# simplicial complexes


def _vertex_bits(vertices: tuple[str, ...]) -> dict[str, int]:
    """Each vertex's bit, for vertices in ascending order: earlier labels in higher bits."""
    n = len(vertices)
    return {v: 1 << n - 1 - i for i, v in enumerate(vertices)}


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex on labelled vertices whose simplices are vertex masks.

    The vertices are kept in ascending order, and vertex i of n is bit
    n - 1 - i: earlier labels go in higher bits, so descending masks list
    the simplices of a dimension in the order of their sorted labels.
    `simplices` and `of_dim` are label views of the masks, derived on read.

    The constructor also builds the chain data: the simplices per dimension
    (`_by_dim`, read through `_cells`), each one's index in its dimension
    (`_index`) and every boundary column (`_columns`).  Dimensions are
    indexed upwards, so each simplex's faces are indexed before its column
    is built: building the columns is the face check.  The echelon bases
    that clearing reduces (`_boundaries`) are kept per dimension, and the
    cycles and classes of each homology degree (`_degrees`) per degree,
    from first use.  All of it lives exactly as long as the complex.
    """

    vertices: tuple[str, ...]
    masks: frozenset[int]

    def __post_init__(self):
        vertices, masks = tuple(sorted(set(self.vertices))), frozenset(self.masks)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "masks", masks)
        if 0 in masks:
            raise TopologyError("empty simplex")
        n, top = len(vertices), max(masks, default=0)
        if top >> n:
            unknown = [b for b in range(n, top.bit_length()) if top >> b & 1]
            raise TopologyError(
                f"simplex {self._labels(top)} uses unknown vertices at bits {unknown}"
            )
        by_dim: dict[int, list[int]] = {}
        for s in sorted(masks, reverse=True):
            by_dim.setdefault(s.bit_count() - 1, []).append(s)
        index, columns = {}, {}
        for p, cells in sorted(by_dim.items()):
            index.update(zip(cells, range(len(cells))))
            columns[p] = _boundary_columns(self, p, cells, index)
        vars(self).update(_by_dim=by_dim, _index=index, _columns=columns)
        for v, b in self._bit.items():
            if b not in masks:
                raise TopologyError(f"vertex {v} has no singleton simplex")

    @cached_property
    def _bit(self) -> dict[str, int]:
        return _vertex_bits(self.vertices)

    def _labels(self, s: int) -> list[str]:
        """The sorted labels of the vertices in mask s."""
        return [v for v, b in self._bit.items() if s & b]

    def _cells(self, p: int) -> list[int]:
        """The p-simplices' masks, descending: the kept list, which callers must not mutate."""
        return self._by_dim.get(p, [])

    @property
    def simplices(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self._labels(s)) for s in self.masks)

    def of_dim(self, p: int) -> list[frozenset[str]]:
        return [frozenset(self._labels(s)) for s in self._cells(p)]

    @property
    def dim(self) -> int:
        # every face is present, so the dimensions run 0..dim without a gap
        return len(self._by_dim) - 1


def _boundary_columns(k: SimplicialComplex, p: int, cells: list[int], index: dict[int, int]):
    """The boundary of each p-simplex in `cells` as a bitset over the (p-1)-simplices,
    read from `index`; a face with no index is missing from k."""
    if p == 0:
        return [0] * len(cells)
    cols = []
    try:
        for s in cells:
            c, t = 0, s
            while t:
                b = t & -t
                c |= 1 << index[s ^ b]
                t ^= b
            cols.append(c)
    except KeyError as e:
        raise TopologyError(f"face {k._labels(e.args[0])} of {k._labels(s)} is missing") from None
    return cols


def _clear(k: SimplicialComplex, p: int) -> dict[int, int]:
    """An echelon basis of the image of the boundary from dimension p, kept on
    k per p as `_boundaries`; its keys are the columns of dimension p-1 that
    clearing skips.  The pivots of dimension p + 1 are found first, so the
    first call recurses up to the top dimension."""
    if not 0 < p <= k.dim:
        return {}
    return _echelon(k._columns[p], skip=_kept_at(k, "_boundaries", p + 1, _clear))[0]


def _build_complex(space: FinSpace) -> SimplicialComplex:
    """The order complex of space, built; its vertices are the least point of
    each T0 class (points sharing a minimal open set are grouped once, here)."""
    mo, rep = space.min_open, {}
    for p in sorted(space.points):
        rep.setdefault(mo[p], p)
    bit = _vertex_bits(tuple(rep.values()))  # each class's least point, ascending
    # the chains starting at c: c alone, or c below a chain starting at some
    # representative d > c; U_d is strictly inside U_c, so smaller opens come first
    starting: dict[str, list[int]] = {}
    for c in sorted(bit, key=lambda r: len(mo[r])):
        b = bit[c]
        chains = [b]
        for d in mo[c]:
            if d != c and d in bit:
                chains += [m | b for m in starting[d]]
        starting[c] = chains
    return SimplicialComplex(tuple(bit), frozenset(m for ms in starting.values() for m in ms))


def order_complex(space: FinSpace) -> SimplicialComplex:
    """Chains of the specialization order of the T0 quotient, built once per
    space and kept on it as `_complex`.  Reads inside this module look it up
    there and call this only on a miss, so `perfbench/tracer.py` books every
    build, and nothing else, to this name.

    y specializes to x when x lies in U_y; collapsing topologically
    indistinguishable points first makes the relation a partial order, and
    the collapse does not change the weak homotopy type.
    """
    return _kept(space, "_complex", _build_complex)


def boundary_matrix(k: SimplicialComplex, p: int) -> list[int]:
    """The mod-2 boundary from p-simplices to (p-1)-simplices: a copy of the
    columns the complex keeps."""
    return list(k._columns.get(p, []))


def betti_mod2(k: SimplicialComplex, pmax: int) -> list[int]:
    """b_p = dim ker boundary_p - dim im boundary_{p+1} for p = 0..pmax."""
    if pmax < 0:
        raise TopologyError("pmax must be >= 0")
    ranks = [len(_kept_at(k, "_boundaries", p, _clear)) for p in range(pmax + 2)]
    return [len(k._cells(p)) - ranks[p] - ranks[p + 1] for p in range(pmax + 1)]


# ---------------------------------------------------------------------------
# the homology functor on maps


def _homology(space: FinSpace, p: int) -> tuple[SimplicialComplex, list[int], dict[int, int]]:
    """(order complex, cycles, classes) in degree p: a cycle over the
    p-simplices of the space's order complex per class of a basis of H_p, and
    an echelon basis of boundaries and cycles whose bits below b_p are cycle
    coordinates.  Both are kept on the complex per degree (`_cycles`)."""
    if p < 0:
        raise TopologyError(f"homology degree must be >= 0, got {p}")
    k = vars(space).get("_complex") or order_complex(space)
    return (k, *_kept_at(k, "_degrees", p, _cycles))


def _cycles(k: SimplicialComplex, p: int) -> tuple[list[int], dict[int, int]]:
    """The cycles and classes `_homology` keeps on k as `_degrees`, next to
    its `_boundaries`.  The columns clearing leaves are reduced carrying their
    own index below bit n; each that vanishes is a free column, and its low
    bits its RREF nullspace vector, as only pivot columns ever enter the basis.

    Rank rule: when k already holds the rank r_p of the boundary from
    dimension p (`betti_mod2`, or a lower degree's clearing, reduced it), and
    n_p = r_p + r_{p+1}, then b_p = 0: no column can vanish, so the degree
    keeps no cycles and the boundaries as its classes, and the tagged
    reduction is not run.  r_p is only read: no reduction is made to learn it."""
    n, bounds = len(k._cells(p)), _kept_at(k, "_boundaries", p + 1, _clear)
    below = _kept_at(k, "_boundaries", p, None)
    if below is not None and n == len(below) + len(bounds):
        return [], dict(bounds)
    cols = [c << n | 1 << j for j, c in enumerate(k._columns.get(p, []))]
    cycles = [z for _, z in _echelon(cols, n, skip=bounds)[1]]
    m = len(cycles)
    classes = {t + m: b << m for t, b in bounds.items()}
    _echelon([z << m | 1 << c for c, z in enumerate(cycles)], m, basis=classes)
    return cycles, classes


def _push(m: CtsMap, p: int, ks: SimplicialComplex, kt: SimplicialComplex) -> list[int]:
    """Each p-simplex of ks, m.source's complex, sent into kt, m.target's: the
    bit of the simplex its vertices' image bits OR to, or 0 where that has
    fewer than p + 1 vertices (the image is degenerate and vanishes mod 2).
    A point's vertex in kt is the one sharing its minimal open set."""
    mo, index = m.target.min_open, kt._index
    vertex = {mo[v]: b for v, b in kt._bit.items()}
    image = {b: vertex[mo[m(v)]] for v, b in ks._bit.items()}
    out = []
    for s in ks._cells(p):
        t = 0
        while s:
            b = s & -s
            t |= image[b]
            s ^= b
        out.append(1 << index[t] if t.bit_count() == p + 1 else 0)
    return out


def chain_map_matrix(m: CtsMap, p: int) -> list[int]:
    """The simplicial chain map between order complexes in degree p.

    Continuous maps of finite spaces preserve specialization, hence send
    chains to (possibly degenerate) chains; degenerate images vanish mod 2.
    """
    if not classify_map(m).continuous:
        raise TopologyError("homology is only functorial on continuous maps")
    ks, kt = (vars(x).get("_complex") or order_complex(x) for x in (m.source, m.target))
    return _push(m, p, ks, kt)


def _induce(m: CtsMap, p: int) -> list[int]:
    """H_p(m), from the order complexes of m.source and m.target: pushed
    forward and reduced against the target's classes, the source's cycles
    leave their coordinates (unique: cycles are independent modulo
    boundaries).  An inductive stage's attachment is defined on its stage
    space itself, so the stage's one complex serves both.  Continuity is
    checked first, so a map it rejects builds no complex.

    A complex is a function of its space's points and minimal opens, so H_p(m)
    depends on m and p alone: it is kept on m per degree as `_induced`, for
    as long as m lives.  Callers must not mutate it."""
    if not classify_map(m).continuous:
        raise TopologyError("homology is only functorial on continuous maps")
    (ks, hs, _), (kt, ht, classes) = _homology(m.source, p), _homology(m.target, p)
    if not hs or not ht:
        return [0] * len(hs)
    pushed = [z << len(ht) for z in gf2_matmul(_push(m, p, ks, kt), hs)]
    _, coords = _echelon(pushed, len(ht), basis=dict(classes))
    if len(coords) < len(hs):
        raise TopologyError("vector is not a cycle modulo boundaries")
    return [v for _, v in coords]


def induced_matrix(m: CtsMap, p: int) -> list[int]:
    """The matrix of the degree-p homology functor applied to m, computed
    once per map object and degree; each call returns its own copy."""
    return list(_kept_at(m, "_induced", p, _induce))


# ---------------------------------------------------------------------------
# module sequences and their colimits


@dataclass(frozen=True, eq=False)
class GF2ModuleSeq:
    """A finite chain of GF(2) vector spaces and maps, dims[n+1] x dims[n]."""

    dims: tuple[int, ...]
    maps: tuple[list[int], ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        for n, d in enumerate(dims):
            if isinstance(d, bool) or not hasattr(d, "__index__") or d < 0:
                raise TopologyError(f"dimension {n} must be an integer >= 0, got {d!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "maps", tuple(list(m) for m in self.maps))
        if len(self.maps) != len(self.dims) - 1:
            raise TopologyError("need exactly one map between consecutive modules")
        for n, m in enumerate(self.maps):
            rows, cols = self.dims[n + 1], self.dims[n]
            if len(m) != cols or any(c >> rows for c in m):
                raise TopologyError(f"map {n} does not have shape {(rows, cols)}")


def module_colimit(s: GF2ModuleSeq) -> tuple[int, list[list[int]]]:
    """Colimit of a finite chain: the last module, with the composites to it
    as the cocone.  Returned as matrices so invariance can be checked
    map-by-map rather than by dimension counting."""
    dim = s.dims[-1]
    cocone = [[1 << i for i in range(dim)]]
    for m in reversed(s.maps):
        cocone.insert(0, gf2_matmul(cocone[0], m))
    return dim, cocone


def stage_homology_sequence(c: Cis, p: int) -> GF2ModuleSeq:
    """The chain {H_p(X_i), H_p(f_i)} of an inductive system."""
    if not is_inductive(c):
        raise TopologyError("stage homology sequences need an inductive system")
    dims = tuple(len(_homology(st.space, p)[1]) for st in c.stages)
    maps = tuple(_kept_at(st.f, "_induced", p, _induce) for st in c.stages[:-1])
    return GF2ModuleSeq(dims, maps)


# ---------------------------------------------------------------------------
# invariance checks


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    p: int
    limit_dim: int
    module_dim: int
    iso_exists: bool
    iso_unique: bool
    iso: list[int] | None
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.iso_exists and self.limit_dim == self.module_dim

    def contravariant(self) -> "InvarianceReport":
        """The contravariant twin: the limit of the dualized chain against the
        cohomology of the fundamental limit, intertwined through the transposed
        structure maps.

        Transposing h @ induced_k = cocone_k gives induced_k.T @ h.T = cone_k,
        the same linear system, so the intertwiner is this one transposed and
        every dimension, flag and witness carries over."""
        return replace(self, iso=None if self.iso is None else _transpose(self.iso, self.module_dim))

    def render(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [
            f"degree {self.p}: limit side {self.limit_dim}, chain side {self.module_dim}: {status}"
        ]
        lines += [f"  witness: {w}" for w in self.witnesses]
        return "\n".join(lines)


def functorial_invariance_check(
    c: Cis, p: int, limit: LimitSpace | None = None
) -> InvarianceReport:
    """Homology of the fundamental limit against the colimit of the stage
    homology chain: a unique isomorphism h must intertwine the structure
    maps, h @ H_p(phi_k) = cocone_k for every k.

    The stage side, module_colimit(stage_homology_sequence(c, p)), is built
    once per system and degree and kept on c (`_stage_side`); the limit side,
    the solve and every check below read the candidate as well and run on
    each call.  Each H_p is read from its space's order complex, so a degree
    whose kept boundary ranks show it acyclic is never reduced for cycles
    (the rank rule of `_cycles`).

    Side by side and transposed, a.T h.T = b.T, so one solve gives every row
    of h, and the first column of b.T outside the span of a.T names the first
    row with no solution.  h is unique iff a.T has no kernel; otherwise its
    free part is zero-filled, and a non-invertible fill fails the
    isomorphism check."""
    if not is_inductive(c):
        raise TopologyError("invariance holds for inductive systems; this one glues less")
    ls = limit if limit is not None else build_fundamental(c)
    _require_aligned(c, ls)
    module_dim, cocone = _kept_at(
        c, "_stage_side", p, lambda c, p: module_colimit(stage_homology_sequence(c, p))
    )
    limit_dim = len(_homology(ls.x, p)[1])
    structure = [_kept_at(phi, "_induced", p, _induce) for phi in ls.phis]
    a, b = [v for s in structure for v in s], [v for s in cocone for v in s]
    null, rows = _solve(_transpose(a, limit_dim), _transpose(b, module_dim))
    h = _transpose(rows, limit_dim)
    exists, witnesses = len(rows) == module_dim, []
    if not exists:
        witnesses.append(f"no map matches the cocone on row {len(rows)}")
    elif limit_dim != module_dim or len(_echelon(h)[0]) != limit_dim:
        exists = False
        witnesses.append("intertwiner exists but is not an isomorphism")
    else:
        for k, (a_k, b_k) in enumerate(zip(structure, cocone)):
            if gf2_matmul(h, a_k) != b_k:
                exists = False
                witnesses.append(f"intertwiner fails on stage {k}")
    iso = h if exists else None
    return InvarianceReport(p, limit_dim, module_dim, exists, not null, iso, tuple(witnesses))


def counter_functorial_check(
    c: Cis, p: int, limit: LimitSpace | None = None
) -> InvarianceReport:
    """The contravariant twin of `functorial_invariance_check`; see
    `InvarianceReport.contravariant`."""
    return functorial_invariance_check(c, p, limit).contravariant()
