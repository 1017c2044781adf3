"""Algebraic functors on finite spaces over GF(2).

A finite space is weakly equivalent to the order complex of its
specialization order, so homology of a space here means simplicial
homology of that complex with mod-2 coefficients; this is the bridge
from abstract module-valued functors to something a desk machine can
row-reduce.  Cohomology is realized by transposing, which over a field
carries the same dimensions.

A simplex is a vertex mask over the complex's sorted vertices, earlier
labels in higher bits.  Chains are enumerated as masks, and faces are
checked, boundary columns built and maps pushed forward on them; label
sets (`simplices`, `of_dim`) are a view derived on read.

A matrix is a list of Python ints, one per column, with row r in bit r;
its row count is whatever the context fixes (a matrix with trailing zero
rows is the same list).  This is the one matrix type, inside the library
and out: the `gf2_*` functions, the matrix functions, module chains and
the intertwiner all take or return it.  One kernel, `_echelon`, reduces
columns by leading bit.  It reduces boundary columns from the top
dimension down, skipping those that are pivots of the dimension above
("clearing": Chen & Kerber, Persistent homology computation with a twist,
2011), and keeps the canonical cycles: of the RREF nullspace basis, the
earliest independent modulo boundaries.  Linear systems are solved by one
index-tagged reduction, `_solve`.  A space keeps one homology record
(its order complex, each point's vertex bit and its cycles per degree), and
a complex its chain data, from first use; each lives as long as its owner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import xor

from .cis import Cis, is_inductive, stage_map
from .finspace import CtsMap, FinSpace, TopologyError, _kept, classify_map, components
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
    """

    vertices: tuple[str, ...]
    masks: frozenset[int]

    def __post_init__(self):
        vertices, masks = tuple(sorted(set(self.vertices))), frozenset(self.masks)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "masks", masks)
        n = len(vertices)
        if 0 in masks:
            raise TopologyError("empty simplex")
        for s in masks:
            if s >> n:
                unknown = [b for b in range(n, s.bit_length()) if s >> b & 1]
                raise TopologyError(
                    f"simplex {self._labels(s)} uses unknown vertices at bits {unknown}"
                )
            t = s
            while t:
                b = t & -t
                if s != b and s ^ b not in masks:
                    face, simplex = self._labels(s ^ b), self._labels(s)
                    raise TopologyError(f"face {face} of {simplex} is missing")
                t ^= b
        for v, b in self._bit.items():
            if b not in masks:
                raise TopologyError(f"vertex {v} has no singleton simplex")

    @cached_property
    def _bit(self) -> dict[str, int]:
        return _vertex_bits(self.vertices)

    def _labels(self, s: int) -> list[str]:
        """The sorted labels of the vertices in mask s."""
        return [v for v, b in self._bit.items() if s & b]

    @property
    def simplices(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self._labels(s)) for s in self.masks)

    @cached_property
    def _chains(self) -> _Chains:
        return _Chains(self)

    def of_dim(self, p: int) -> list[frozenset[str]]:
        return [frozenset(self._labels(s)) for s in self._chains.cells(p)]

    @property
    def dim(self) -> int:
        return max((s.bit_count() for s in self.masks), default=0) - 1


class _Chains:
    """A complex's simplices per dimension, boundary columns and reductions.
    Descending masks list a dimension's simplices as their sorted labels do."""

    def __init__(self, k: SimplicialComplex):
        self.by_dim: dict[int, list[int]] = {}
        for s in sorted(k.masks, reverse=True):
            self.by_dim.setdefault(s.bit_count() - 1, []).append(s)
        self.index = {s: i for ms in self.by_dim.values() for i, s in enumerate(ms)}
        self._boundaries: dict[int, dict[int, int]] = {}

    def cells(self, p: int) -> list[int]:
        return self.by_dim.get(p, [])

    def columns(self, p: int) -> list[int]:
        """The boundary of each p-simplex as a bitset over the (p-1)-simplices."""
        if p <= 0:
            return [0] * len(self.cells(p))
        index, cols = self.index, []
        for s in self.cells(p):
            c, t = 0, s
            while t:
                b = t & -t
                c |= 1 << index[s ^ b]
                t ^= b
            cols.append(c)
        return cols

    def boundaries(self, p: int) -> dict[int, int]:
        """An echelon basis of the image of the boundary from dimension p,
        whose keys are the columns of dimension p-1 that clearing skips."""
        if p not in self._boundaries:
            skip = self.boundaries(p + 1) if 0 < p <= max(self.by_dim, default=-1) else None
            self._boundaries[p] = {} if skip is None else _echelon(self.columns(p), skip=skip)[0]
        return self._boundaries[p]


class _Homology:
    """A space's order complex, each point's vertex bit (that of the least point
    sharing its minimal open set: T0 classes are grouped once, here) and the
    `_homology` value of each degree asked for."""

    def __init__(self, space: FinSpace):
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
        masks = frozenset(m for ms in starting.values() for m in ms)
        self.complex = SimplicialComplex(tuple(bit), masks)
        self.bit = {p: bit[rep[mo[p]]] for p in space.points}
        self.degrees: dict[int, tuple[list[int], dict[int, int]]] = {}


def order_complex(space: FinSpace) -> SimplicialComplex:
    """Chains of the specialization order of the T0 quotient, built once per space.

    y specializes to x when x lies in U_y; collapsing topologically
    indistinguishable points first makes the relation a partial order, and
    the collapse does not change the weak homotopy type.
    """
    return _kept(space, "_homology", _Homology).complex


def _record(space: FinSpace) -> _Homology:
    """The space's homology record.  Only `order_complex` builds it, so that
    `perfbench/tracer.py` books every build to that name."""
    if "_homology" not in vars(space):
        order_complex(space)
    return space._homology


def boundary_matrix(k: SimplicialComplex, p: int) -> list[int]:
    """The mod-2 boundary from p-simplices to (p-1)-simplices."""
    return k._chains.columns(p)


def betti_mod2(k: SimplicialComplex, pmax: int) -> list[int]:
    """b_p = dim ker boundary_p - dim im boundary_{p+1} for p = 0..pmax."""
    if pmax < 0:
        raise TopologyError("pmax must be >= 0")
    ch = k._chains
    ranks = [len(ch.boundaries(p)) for p in range(pmax + 2)]
    return [len(ch.cells(p)) - ranks[p] - ranks[p + 1] for p in range(pmax + 1)]


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** (s.bit_count() - 1) for s in k.masks)


def h0_rank(space: FinSpace) -> int:
    """Rank of the free module on connected components."""
    return len(components(space))


# ---------------------------------------------------------------------------
# the homology functor on maps


def _homology(space: FinSpace, p: int) -> tuple[_Homology, list[int], dict[int, int]]:
    """(homology record, cycles, classes) in degree p: a cycle over the
    p-simplices of the record's complex per class of a basis of H_p, and an
    echelon basis of boundaries and cycles whose bits below b_p are cycle
    coordinates.  The columns clearing leaves are reduced carrying their own
    index below bit n; each that vanishes is a free column, and its low bits
    its RREF nullspace vector, as only pivot columns ever enter the basis."""
    if p < 0:
        raise TopologyError(f"homology degree must be >= 0, got {p}")
    rec = _record(space)
    if p not in rec.degrees:
        ch = rec.complex._chains
        n, bounds = len(ch.cells(p)), ch.boundaries(p + 1)
        _, zero = _echelon([c << n | 1 << j for j, c in enumerate(ch.columns(p))], n, skip=bounds)
        cycles = [z for _, z in zero]
        m = len(cycles)
        classes = {t + m: b << m for t, b in bounds.items()}
        _echelon([z << m | 1 << c for c, z in enumerate(cycles)], m, basis=classes)
        rec.degrees[p] = (cycles, classes)
    return (rec, *rec.degrees[p])


def _push(m: CtsMap, p: int, src: _Homology, tgt: _Homology) -> list[int]:
    """Each p-simplex of the source's complex sent into the target's: the bit
    of the simplex its vertices' image bits OR to, or 0 where that has fewer
    than p + 1 vertices (the image is degenerate and vanishes mod 2)."""
    ks, ct = src.complex, tgt.complex._chains
    image = {b: tgt.bit[m(v)] for v, b in ks._bit.items()}
    out = []
    for s in ks._chains.cells(p):
        t = 0
        while s:
            b = s & -s
            t |= image[b]
            s ^= b
        out.append(1 << ct.index[t] if t.bit_count() == p + 1 else 0)
    return out


def chain_map_matrix(m: CtsMap, p: int) -> list[int]:
    """The simplicial chain map between order complexes in degree p.

    Continuous maps of finite spaces preserve specialization, hence send
    chains to (possibly degenerate) chains; degenerate images vanish mod 2.
    """
    if not classify_map(m).continuous:
        raise TopologyError("homology is only functorial on continuous maps")
    return _push(m, p, _record(m.source), _record(m.target))


def _induced(m: CtsMap, p: int, src: tuple, tgt: tuple) -> list[int]:
    """H_p(m) from the `_homology` values of its source and target: pushed
    forward and reduced against the target's classes, the source's cycles
    leave their coordinates (unique: cycles are independent modulo boundaries)."""
    if not classify_map(m).continuous:
        raise TopologyError("homology is only functorial on continuous maps")
    (rs, hs, _), (rt, ht, classes) = src, tgt
    if not hs or not ht:
        return [0] * len(hs)
    pushed = [z << len(ht) for z in gf2_matmul(_push(m, p, rs, rt), hs)]
    _, coords = _echelon(pushed, len(ht), basis=dict(classes))
    if len(coords) < len(hs):
        raise TopologyError("vector is not a cycle modulo boundaries")
    return [v for _, v in coords]


def induced_matrix(m: CtsMap, p: int) -> list[int]:
    """The matrix of the degree-p homology functor applied to m."""
    return _induced(m, p, _homology(m.source, p), _homology(m.target, p))


# ---------------------------------------------------------------------------
# module sequences and their colimits


@dataclass(frozen=True, eq=False)
class GF2ModuleSeq:
    """A finite chain of GF(2) vector spaces and maps, dims[n+1] x dims[n]."""

    dims: tuple[int, ...]
    maps: tuple[list[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "maps", tuple(list(m) for m in self.maps))
        if len(self.maps) != len(self.dims) - 1:
            raise TopologyError("need exactly one map between consecutive modules")
        for n, m in enumerate(self.maps):
            rows, cols = self.dims[n + 1], self.dims[n]
            if len(m) != cols or any(c >> rows for c in m):
                raise TopologyError(f"map {n} does not have shape {(rows, cols)}")


def _cocone(maps: list[list[int]], dim: int) -> list[list[int]]:
    """The composites from each module of a chain to the last, of dimension dim."""
    cocone = [[1 << i for i in range(dim)]]
    for m in reversed(maps):
        cocone.insert(0, gf2_matmul(cocone[0], m))
    return cocone


def module_colimit(s: GF2ModuleSeq) -> tuple[int, list[list[int]]]:
    """Colimit of a finite chain: the last module, with the composites to it
    as the cocone.  Returned as matrices so invariance can be checked
    map-by-map rather than by dimension counting."""
    return s.dims[-1], _cocone(s.maps, s.dims[-1])


def _stage_homologies(c: Cis, p: int) -> tuple[list[tuple], list[list[int]]]:
    """Each stage's `_homology` value, and the maps H_p(f_i) between them."""
    homs = [_homology(st.space, p) for st in c.stages]
    return homs, [_induced(stage_map(c, i), p, homs[i], homs[i + 1]) for i in range(len(homs) - 1)]


def stage_homology_sequence(c: Cis, p: int) -> GF2ModuleSeq:
    """The chain {H_p(X_i), H_p(f_i)} of an inductive system."""
    if not is_inductive(c):
        raise TopologyError("stage homology sequences need an inductive system")
    homs, maps = _stage_homologies(c, p)
    return GF2ModuleSeq(tuple(len(h) for _, h, _ in homs), tuple(maps))


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

    Side by side and transposed, a.T h.T = b.T, so one solve gives every row
    of h, and the first column of b.T outside the span of a.T names the first
    row with no solution.  h is unique iff a.T has no kernel; otherwise its
    free part is zero-filled, and a non-invertible fill fails the
    isomorphism check."""
    if not is_inductive(c):
        raise TopologyError("invariance holds for inductive systems; this one glues less")
    ls = limit if limit is not None else build_fundamental(c)
    _require_aligned(c, ls)
    homs, maps = _stage_homologies(c, p)
    module_dim = len(homs[-1][1])
    cocone = _cocone(maps, module_dim)
    lim = _homology(ls.x, p)
    limit_dim = len(lim[1])
    structure = [_induced(phi, p, homs[i], lim) for i, phi in enumerate(ls.phis)]
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
    """The contravariant twin: the limit of the dualized chain against the
    cohomology of the fundamental limit, intertwined through the transposed
    structure maps.

    Transposing h @ induced_k = cocone_k gives induced_k.T @ h.T = cone_k,
    the same linear system, so the intertwiner is the covariant one
    transposed and every dimension, flag and witness carries over."""
    rep = functorial_invariance_check(c, p, limit)
    return replace(rep, iso=None if rep.iso is None else _transpose(rep.iso, rep.module_dim))
