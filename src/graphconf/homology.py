"""Exact integer homology of chain complexes.

Boundary matrices are assembled from face indices by
``face_chain_complex``.  A semi-simplicial set's sign convention,
d = sum_i (-1)^i d_i, is fixed once in ``chain_complex``; the glued
complex of ``reduced`` follows it on edges (target minus source) and reads
its 2-cell boundaries off their words.  The cube complex of ``abrams`` has
its own: an n-cube's faces come in end pairs, and
d = sum_p (-1)^(p-1) (d_p^+ - d_p^-) signs each pair by the number of edge
factors before it.  Smith normal forms run in two phases on sparse rows,
over Python integers, so no intermediate value ever overflows: a sweep
that splits off unit pivots (which is almost all of a cellular boundary
matrix), then one elimination loop (``_dense_smith``) on the small core
left, which holds no +-1 entry.  The sweep takes its pivots in Markowitz
order, the one that creates the least fill, and only the core needs a
divisibility chain, since a unit divides everything; both keep the work
near-linear in the nonzeros of a boundary matrix.  Invariant factors are
unique, so neither choice can change a result.

``reduce`` is the one top-down clearing loop, over the ``Ring`` of a
complex's entries.  It sweeps the boundaries from the top dimension down
and clears as it goes (the "twist" of Chen-Kerber, "Persistent homology
computation with a twist", 2011, and Bauer-Kerber-Reininghaus, "Clear and
compress", 2014): a row the sweep of d_{n+1} pivoted on is a column of d_n
that cannot add to its image, so that column never reaches the sweep.  Each
pivot is a Gaussian elimination in the sense of algebraic Morse theory
(Skoeldberg, "Morse theory from an algebraic viewpoint", Trans. AMS 2006),
which holds over any ring with a unit pivot, so the residue it returns has
the complex's homology; the argument is in ``reduce``'s docstring.
``homology`` is ``reduce`` over Z followed by ``_dense_smith`` of each
residue boundary.

The ordered model is the S_k-cover of the orbit nerve, so its chains are
free Z[S_k]-modules on the orbit chains.  One boundary assembly
(``face_chain_complex``), one d^2 check (``_product_is_zero``), one
unit-pivot sweep (``_unit_pivot_sweep``) and one reduction (``reduce``)
serve Z and Z[S_k] alike, over the ``Ring`` of the matrix's entries: ints
for Z, ``{rank: coefficient}`` dicts for ``group_ring``.
``twisted_chain_complex`` is ``reduce`` over the group ring, whose sweep
pivots on the units +-[pi], followed by ``_lift`` of the residue to the
integers; the lift of each such pivot is k! disjoint integer unit pivots,
so the lifted residue has the cover's homology.

The homology of a model, and of an Abrams complex, as the CLI reports it,
is computed on a free-face collapse, which removes cells before any matrix
is built: ``nerve.collapse_free_faces`` of the complex, or, for an Abrams
complex, the lift of its orbit complex's collapse (``nerve.lift_faces``),
a collapse of the ordered complex made without building it.  The ordered
model's reports reduce its collapsed orbit nerve over Z[S_k] instead,
with or without ``--collapse``.  A collapse is exact over Z: a free face
has one coface and occurs in it once, so its row of the boundary holds a
single +-1, a unit pivot whose elimination creates no fill, and removing
the pair keeps every Betti number and torsion coefficient.  The full
complex is checked by its face identities,
d_i d_j = d_{j-1} d_i for a model and the cubical ones for an Abrams
complex, and a cover's on its orbit complex with a cocycle per identity
(``nerve.validate_twists``).  They imply d^2 = 0 for the signs above;
``ChainComplex`` checks d^2 = 0 on the collapsed complex or the lifted
residue it is given.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import index, mul
from typing import Callable

from .errors import NotAComplex
from .nerve import SemiSimplicialSet, min_roots


@dataclass(frozen=True)
class Ring:
    """The ring of a matrix's entries, by the operations on entries in
    which the integers and a group ring differ.  No zero entry is stored,
    and an entry is falsy exactly when it is zero."""

    over: str  # how a d^2 failure names the ring, "" for Z
    zero: Callable  # () -> a new zero entry
    one: object
    is_unit: Callable  # x -> whether x is a unit +-[pi]
    times_inverse: Callable  # (x, u) -> x u^-1, u a unit, as ``minus_product`` takes it
    minus_product: Callable  # (z, f, v) -> z - f v, updating z in place if it can
    plus_term: Callable  # (z, sign, t) -> z + sign [t], t the rank of a group element


# Z, with int entries: a unit is +-1, its own inverse, and [t] is 1
INTEGERS = Ring(
    "", int, 1, frozenset((1, -1)).__contains__, mul,
    lambda z, f, v: z - f * v, lambda z, sign, t: z + sign,
)


def group_ring(group) -> Ring:
    """Z[G], G = ``group`` (``nerve.Permutations``): an entry is a
    ``{rank: coefficient}`` dict, updated in place, multiplied as
    [t] [u] = [rows[t][u]].  A unit is e [p], e = +-1, with inverse
    e [p^-1]; fill can make an entry of several terms, which is never
    a pivot."""
    rows = group.rows
    inverse = [group.rank[p] for p in group.inverse]

    def is_unit(x):
        return len(x) == 1 and next(iter(x.values())) in (1, -1)

    def times_inverse(x, u):
        # the terms of x u^-1, each [f] as its row rows[f]
        ((p, e),) = u.items()
        q = inverse[p]
        return [(rows[rows[t][q]], a * e) for t, a in x.items()]

    def minus_product(z, f, v):
        for row_f, a in f:
            for u, b in v.items():
                g = row_f[u]
                w = z.get(g, 0) - a * b
                if w:
                    z[g] = w
                else:
                    del z[g]
        return z

    def plus_term(z, sign, t):
        v = z.get(t, 0) + sign
        if v:
            z[t] = v
        else:
            del z[t]
        return z

    return Ring(" over Z[S_k]", dict, {0: 1}, is_unit, times_inverse, minus_product, plus_term)


@dataclass
class ChainComplex:
    """Basis sizes per dimension and boundary matrices between them.

    ``boundaries[n]`` maps dimension n+1 to dimension n and is stored as a
    dict (row, col) -> entry of shape sizes[n] x sizes[n+1], its entries in
    ``ring``; ``homology`` takes a complex over Z.
    """

    sizes: list
    boundaries: list
    ring: Ring = INTEGERS

    def __post_init__(self):
        if len(self.boundaries) != max(len(self.sizes) - 1, 0):
            raise NotAComplex("boundary count does not match dimension count")
        for n in range(len(self.boundaries) - 1):
            if not _product_is_zero(self.boundaries[n], self.boundaries[n + 1], self.ring):
                raise NotAComplex(
                    f"boundary squared is nonzero{self.ring.over} between dims {n + 2} and {n}"
                )

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.sizes))


@dataclass
class HomologyResult:
    betti: list
    torsion: list  # per dimension, invariant factors > 1 (each divides the next)


def _product_is_zero(a: dict, b: dict, ring: Ring = INTEGERS) -> bool:
    """Whether the product of two matrices over ``ring`` vanishes."""
    rows_of_b: dict[int, list] = {}
    for (r, c), y in b.items():
        rows_of_b.setdefault(r, []).append((c, y))
    one, zero, times_inverse, minus_product = (
        ring.one, ring.zero, ring.times_inverse, ring.minus_product,
    )
    acc: dict[tuple[int, int], object] = {}
    for (r, mid), x in a.items():
        f = times_inverse(x, one)
        for c, y in rows_of_b.get(mid, ()):  # a[r,mid] * b[mid,c]
            key = (r, c)
            acc[key] = minus_product(acc.get(key) or zero(), f, y)
    return not any(acc.values())


def alternating_signs(n: int) -> list:
    """The slot signs of d = sum_i (-1)^i d_i on the n-chains of a
    semi-simplicial set, as ``face_chain_complex`` reads them."""
    return [(-1) ** i for i in range(n + 1)]


def chain_complex(s: SemiSimplicialSet) -> ChainComplex:
    """Cellular chain complex of a semi-simplicial set, d = sum_i (-1)^i d_i."""
    return face_chain_complex(s.labels, s.faces, alternating_signs)


def face_chain_complex(cells, faces, signs, ring=INTEGERS, twists=None) -> ChainComplex:
    """Chain complex of cells stored with face indices (``faces[n][c]``
    indexes level n-1), whose boundary on level n is sum_i signs(n)[i] d_i,
    d_i the i-th listed face.  Over a group ring, d_i of cell c is twisted
    by [t], t = ``twists[n][i][c]``, or the identity where ``twists[n][i]``
    is None (``twisted_chain_complex``)."""
    plus_term, zero = ring.plus_term, ring.zero
    boundaries = []
    for n in range(1, len(cells)):
        mat: dict[tuple[int, int], object] = {}
        slot_signs = signs(n)
        if twists is None:
            twisted = repeat(repeat(0))
        else:
            twisted = zip(*[repeat(0) if col is None else col for col in twists[n]])
        for j, (fs, ts) in enumerate(zip(faces[n], twisted)):
            for f, t, sign in zip(fs, ts, slot_signs):
                key = (f, j)
                mat[key] = plus_term(mat.get(key) or zero(), sign, t)
        boundaries.append({k: v for k, v in mat.items() if v})
    return ChainComplex([len(level) for level in cells], boundaries, ring)


def reduce(cc: ChainComplex) -> tuple[list, list]:
    """A smaller complex over ``cc.ring`` with the homology of ``cc``: the
    basis sizes and boundaries of the cells that no pivot removed,
    renumbered in order.  Over a group ring ``cc``'s entries are updated in
    place.

    The boundaries are swept from the top dimension down by
    ``_unit_pivot_sweep``.  Before d_n (``boundaries[n - 1]``, from C_n to
    C_{n-1}) is swept, every column whose index is a row that the sweep of
    d_{n+1} pivoted on is dropped; the residue of d_n is the core of its
    sweep without the rows that the sweep of d_{n-1} pivots on as columns.
    This is exact because each pivot is a Gaussian elimination (Skoeldberg,
    "Morse theory from an algebraic viewpoint", Trans. AMS 2006).  For a
    unit u at (r, c) of d_{n+1}, r in C_n and c in C_{n+1}, write
    d_{n+1} = [[u, b], [g, M']] with r and c first.  As d^2 = 0, the
    complex is homotopy equivalent to the one without cells r and c, where

    - d_{n+1} becomes its Schur complement M' - g u^-1 b, which the sweep's
      row operations leave, row rr -= (M[rr, c] u^-1) row r;
    - d_n loses column r, a column the clearing drops before d_n's sweep;
    - d_{n+2} loses row c, a row the residue of d_{n+2} drops.

    The homotopy equivalence holds over any ring in which u is a unit, and
    the sweep pivots only on units, so the residue has the homology of
    ``cc``, whose d^2 = 0 ``ChainComplex`` checked on construction.
    """
    ring = cc.ring
    cores, gone = [None] * len(cc.boundaries), [set() for _ in cc.sizes]
    cleared: set = set()  # rows of the sweep above, as columns of this matrix
    for n in reversed(range(len(cc.boundaries))):
        mat = cc.boundaries[n]
        if cleared:
            mat = {key: x for key, x in mat.items() if key[1] not in cleared}
        _, cores[n], pivots = _unit_pivot_sweep(mat, ring)
        cleared = {r for r, _ in pivots}
        gone[n] |= cleared
        gone[n + 1].update(c for _, c in pivots)
    # the residue's cells, numbered in order; a core's columns are all kept
    kept = [
        {x: j for j, x in enumerate(x for x in range(size) if x not in out)}
        for size, out in zip(cc.sizes, gone)
    ]
    boundaries = [
        # a row missing from ``below`` is a pivot column of the sweep below
        {(below[r], above[c]): x for (r, c), x in core.items() if r in below}
        for core, below, above in zip(cores, kept, kept[1:])
    ]
    return [len(level) for level in kept], boundaries


def twisted_chain_complex(cells, faces, twists, group, signs) -> ChainComplex:
    """A chain complex with the homology of the k!-sheeted cover
    ``nerve.lift_faces(faces, twists, group, None)`` of an orbit complex,
    whose boundary on level n is sum_s signs(n)[s] d_s: ``reduce`` of its
    boundaries over the group ring Z[G], G = ``group``, and only the
    residue lifted to the integers.

    Cell (x, i) of the cover, at x * k! + i, has at slot s the face
    (x_s, rows[t][i]), t the twist t_{x,s}.  So its chains are free
    Z[G]-modules on the orbit cells, and its boundary is the orbit matrix
    with entry sum_s signs(n)[s] [t_{x,s}] at (x_s, x): ``face_chain_complex``
    over ``group_ring(group)``, whose lift (``_lift``) is the cover's
    boundary.  The lift B is a ring map, B([t]) B([u]) = B([rows[t][u]]),
    so it lifts products of matrices: d^2 = 0 is checked on the orbit
    matrices, k! times smaller, and each step of ``reduce`` lifts to
    Gaussian eliminations on the pivot block B(u), a signed permutation
    matrix.  So the lift of the residue, which ``ChainComplex`` checks
    again, has the cover's homology.
    """
    if not cells:
        return ChainComplex([], [])
    sizes, residue = reduce(face_chain_complex(cells, faces, signs, group_ring(group), twists))
    width = len(group)
    return ChainComplex(
        [width * size for size in sizes], [_lift(mat, group.rows, width) for mat in residue]
    )


def _lift(mat: dict, rows, width: int) -> dict:
    """The integer matrix of a matrix over Z[G], G = ``rows``'s group:
    restriction of scalars from Z[G] to Z, the ring of the trivial
    subgroup, on the basis (x, i) of the free module on cells x.  Entry
    [t] at (r, c) goes to the ``width`` = |G| entries at
    (r * width + rows[t][i], c * width + i)."""
    lifted = {}
    for (r, c), x in mat.items():
        r, c = r * width, c * width
        for t, a in x.items():
            lifted.update(zip(zip(map(r.__add__, rows[t]), range(c, c + width)), repeat(a)))
    return lifted


# -- Smith normal form -------------------------------------------------------

def _unit_pivot_sweep(entries: dict, ring: Ring = INTEGERS) -> tuple[int, dict, list]:
    """Split off as many unit pivots as possible from a matrix over ``ring``.

    Returns (the number of unit pivots, the remaining core entries, the
    (row, col) pairs pivoted on, in pivot order).  Each step clears the
    pivot's column by row operations only, row rr -= (M[rr, c] u^-1) row r
    for the pivot u at (r, c), and drops row r, so what is left is the
    Schur complement M[rr, cc] - M[rr, c] u^-1 M[r, cc]: the matrix
    decomposes as diag(u) (+) core at each step.  Over a group ring the
    entries' dicts are updated in place.

    So a row that is pivoted on later has only gained multiples of earlier
    pivot rows, and when it is pivoted on it is zero in every earlier pivot
    column.  Take the pivot rows R and pivot columns C in pivot order.  Over
    Z, on the columns C, the pivot rows as they stand at their pivot times
    are L times the input's R x C submatrix, with L unit lower triangular,
    and they form an upper triangular matrix with +-1 on its diagonal: that
    submatrix has determinant +-1.

    Pivots are taken in Markowitz order: the candidate unit entry with the
    smallest (len(row) - 1) * (len(col) - 1), the most fill one
    elimination can create, ties broken by position.  Candidates sit in a
    heap with lazy invalidation; an entry whose cost has changed since it
    was pushed is re-keyed when popped.  The order changes how many unit
    pivots are found and what core is left, but not the homology: over Z
    each step is unimodular, so diag(1) (+) core always has the Smith form
    of the input, and that form is unique.
    """
    is_unit, times_inverse, minus_product, zero = (
        ring.is_unit, ring.times_inverse, ring.minus_product, ring.zero,
    )
    rows: dict[int, dict] = {}
    cols: dict[int, set] = {}
    for (r, c), x in entries.items():
        rows.setdefault(r, {})[c] = x
        cols.setdefault(c, set()).add(r)

    def cost(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap = [(cost(r, c), r, c) for (r, c), x in entries.items() if is_unit(x)]
    heapify(heap)
    pivots = []
    while heap:
        key, r, c = heappop(heap)
        row = rows.get(r)
        u = row.get(c) if row is not None else None
        if u is None or not is_unit(u):
            continue
        now = cost(r, c)
        if now != key:
            heappush(heap, (now, r, c))
            continue
        pivots.append((r, c))
        row_r = rows.pop(r)
        for cc in row_r:
            cols[cc].discard(r)
        for rr in cols.pop(c):
            target = rows[rr]
            f = times_inverse(target.pop(c), u)  # the multiplier of row r
            for cc, v in row_r.items():
                if cc == c:
                    continue
                z = minus_product(target.get(cc) or zero(), f, v)
                if z:
                    if cc not in target:
                        cols[cc].add(rr)
                    target[cc] = z
                    if is_unit(z):
                        heappush(heap, (cost(rr, cc), rr, cc))
                else:
                    target.pop(cc, None)
                    cols[cc].discard(rr)
            if not target:
                del rows[rr]
    core = {(r, c): x for r, row in rows.items() for c, x in row.items()}
    return len(pivots), core, pivots


def _subtract(row: dict, q: int, other: dict) -> None:
    """row -= q * other, for sparse rows {col: value} that store no zero."""
    for c, v in other.items():
        w = row.get(c, 0) - q * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def _dense_smith(entries: dict) -> list:
    """Invariant factors of an integer matrix, (row, col) -> nonzero entry,
    by sparse elimination on rows {r: {c: v}}, the sweep's layout (Dumas,
    Saunders and Villard, "On efficient sparse integer matrix Smith normal
    form computations", J. Symb. Comput. 2001).  It gets the core that
    ``_unit_pivot_sweep`` leaves, which has no +-1 entry and is small on
    the models measured.  ``perfbench/tracer.py`` wraps it by this name, for
    ``homology.dense_smith.self_s``.

    Each pass picks the pivot p of least |v|, ties broken by (row, col), and
    subtracts quotient multiples of the pivot row from the rows with an
    entry in p's column.  If those leave no remainder, p is alone in its
    column, and subtracting quotient multiples of that column from the
    others leaves the pivot row's entries mod p.  If none of those is left
    either, a row with an entry that p does not divide is added to the pivot
    row, so one is; with no such row, |p| is recorded and its row dropped.

    This is exact.  Every step is unimodular, and a pass that records
    nothing leaves a remainder smaller than |p|, so the next pivot is
    smaller and the loop ends.  A recorded p is alone in its row and column
    and divides every entry left, hence every later pivot, an integer
    combination of them: the factors form a divisibility chain.
    """
    rows: dict[int, dict] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    factors = []
    while rows:
        _, r, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        pivot = rows.pop(r)
        p = pivot[c]
        for row in rows.values():
            if c in row:
                _subtract(row, row[c] // p, pivot)
        rows = {rr: row for rr, row in rows.items() if row}
        if not any(c in row for row in rows.values()):
            if all(v % p == 0 for v in pivot.values()):
                culprits = [row for row in rows.values() if any(v % p for v in row.values())]
                if not culprits:
                    factors.append(abs(p))
                    continue
                _subtract(pivot, -1, culprits[0])
            pivot = {cc: v % p for cc, v in pivot.items() if v % p}
            pivot[c] = p
        rows[r] = pivot
    return factors


def smith_normal_form(matrix) -> tuple[tuple, int]:
    """Nonzero invariant factors (divisibility chain) and rank of a matrix.

    Accepts a dense row-major sequence of sequences or a sparse dict
    (row, col) -> value, whose entries are integers (``operator.index``
    accepts them); any other entry raises ValueError naming its position.
    Arithmetic is exact at arbitrary precision.

    The sweep's factors are 1, which divides everything, and
    ``_dense_smith`` records a pivot only once it divides every entry left,
    so the core's factors follow them in a divisibility chain.
    """
    if isinstance(matrix, dict):
        items = matrix.items()
    else:
        items = (((i, j), v) for i, row in enumerate(matrix) for j, v in enumerate(row))
    entries = {}
    for key, v in items:
        try:
            v = index(v)
        except TypeError:
            raise ValueError(f"matrix entry at {key} is not an integer: {v!r}") from None
        if v:
            entries[key] = v
    units, core, _ = _unit_pivot_sweep(entries)
    factors = [1] * units + _dense_smith(core)
    return tuple(factors), len(factors)


def homology(cc: ChainComplex) -> HomologyResult:
    """Betti numbers and torsion coefficients per dimension.

    They are those of the residue that ``reduce`` leaves over Z (its
    docstring argues why).  The residue's boundaries hold no +-1 entry,
    since each sweep pivots until none is left, so each goes whole to the
    sparse elimination loop ``_dense_smith``.
    """
    sizes, residue = reduce(cc)
    dims = len(sizes)
    ranks = [0] * (dims + 1)
    torsion = [[] for _ in range(dims)]
    for n, mat in enumerate(residue):
        factors = _dense_smith(mat)
        ranks[n + 1] = len(factors)
        torsion[n] = [f for f in factors if f > 1]
    betti = [sizes[n] - ranks[n] - ranks[n + 1] for n in range(dims)]
    if any(b < 0 for b in betti):
        raise NotAComplex("negative betti number; boundaries are inconsistent")
    return HomologyResult(betti, torsion)


def connected_components(s: SemiSimplicialSet) -> list:
    """Partition of the 0-chains under the 1-chain adjacency (the tests' reference)."""
    groups: dict[int, list] = {}
    edges = s.faces[1] if len(s.faces) > 1 else []
    for i, r in enumerate(min_roots(s.size(0), edges)):
        groups.setdefault(r, []).append(i)
    return list(groups.values())
