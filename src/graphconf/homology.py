"""Exact integer homology of chain complexes.

Boundary matrices are assembled from face indices by
``face_chain_complex``.  A semi-simplicial set's sign convention,
d = sum_i (-1)^i d_i, is fixed once in ``chain_complex``; the glued
complex of ``reduced`` follows it on edges (target minus source) and reads
its 2-cell boundaries off their words.  The cube complex of ``abrams`` has
its own: an n-cube's faces come in end pairs, and
d = sum_p (-1)^(p-1) (d_p^+ - d_p^-) signs each pair by the number of edge
factors before it.  Smith normal forms run in two phases: a sparse sweep
that splits off unit pivots (which is almost all of a cellular boundary
matrix), then a textbook reduction of the small remaining core over Python
integers, so no intermediate value ever overflows.  The sweep takes its
pivots in Markowitz order, the one that creates the least fill, and only
the core needs a divisibility chain, since a unit divides everything; both
keep the work near-linear in the nonzeros of a boundary matrix.  Invariant
factors are unique, so neither choice can change a result.

``homology`` reduces the boundaries from the top dimension down and clears
as it goes (the "twist" of Chen-Kerber, "Persistent homology computation
with a twist", 2011, and Bauer-Kerber-Reininghaus, "Clear and compress",
2014): a row the sweep of d_{n+1} pivoted on is a column of d_n that
cannot add to its image, so that column never reaches the sweep.  The
argument that this is exact is in ``homology``'s docstring.

The ordered model is the S_k-cover of the orbit nerve, so its chains are
free Z[S_k]-modules on the orbit chains.  ``twisted_chain_complex``
assembles the orbit boundaries over the group ring, checks d^2 = 0 there,
reduces them with ``_group_ring_sweep``, the unit-pivot sweep on entries
+-[pi] with the same Markowitz heap and the same clearing, and lifts only
the residue to the integers.  Each pivot is a Gaussian elimination in the
sense of algebraic Morse theory (Skoeldberg, "Morse theory from an
algebraic viewpoint", Trans. AMS 2006), and its lift k! disjoint integer
unit pivots, so the residue has the cover's homology.

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

from .errors import NotAComplex
from .nerve import SemiSimplicialSet, min_roots


@dataclass
class ChainComplex:
    """Basis sizes per dimension and boundary matrices between them.

    ``boundaries[n]`` maps dimension n+1 to dimension n and is stored as a
    dict (row, col) -> integer of shape sizes[n] x sizes[n+1].
    """

    sizes: list
    boundaries: list

    def __post_init__(self):
        if len(self.boundaries) != max(len(self.sizes) - 1, 0):
            raise NotAComplex("boundary count does not match dimension count")
        for n in range(len(self.boundaries) - 1):
            if not _product_is_zero(self.boundaries[n], self.boundaries[n + 1]):
                raise NotAComplex(f"boundary squared is nonzero between dims {n + 2} and {n}")

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.sizes))


@dataclass
class HomologyResult:
    betti: list
    torsion: list  # per dimension, invariant factors > 1 (each divides the next)


def _product_is_zero(a: dict, b: dict) -> bool:
    rows_of_b: dict[int, list] = {}
    for (r, c), v in b.items():
        rows_of_b.setdefault(r, []).append((c, v))
    acc: dict[tuple[int, int], int] = {}
    for (r, mid), va in a.items():
        for c, vb in rows_of_b.get(mid, ()):  # a[r,mid] * b[mid,c]
            key = (r, c)
            acc[key] = acc.get(key, 0) + va * vb
    return all(v == 0 for v in acc.values())


def alternating_signs(n: int) -> list:
    """The slot signs of d = sum_i (-1)^i d_i on the n-chains of a
    semi-simplicial set, as ``face_chain_complex`` reads them."""
    return [(-1) ** i for i in range(n + 1)]


def chain_complex(s: SemiSimplicialSet) -> ChainComplex:
    """Cellular chain complex of a semi-simplicial set, d = sum_i (-1)^i d_i."""
    return face_chain_complex(s.labels, s.faces, alternating_signs)


def face_chain_complex(cells, faces, signs) -> ChainComplex:
    """Chain complex of cells stored with face indices (``faces[n][c]``
    indexes level n-1), whose boundary on level n is sum_i signs(n)[i] d_i,
    d_i the i-th listed face."""
    boundaries = []
    for n in range(1, len(cells)):
        mat: dict[tuple[int, int], int] = {}
        slot_signs = signs(n)
        for j, fs in enumerate(faces[n]):
            for f, sign in zip(fs, slot_signs):
                key = (f, j)
                mat[key] = mat.get(key, 0) + sign
        boundaries.append({k: v for k, v in mat.items() if v})
    return ChainComplex([len(level) for level in cells], boundaries)


def twisted_chain_complex(cells, faces, twists, group, signs) -> ChainComplex:
    """A chain complex with the homology of the k!-sheeted cover
    ``nerve.lift_faces(faces, twists, group, None)`` of an orbit complex,
    whose boundary on level n is sum_s signs(n)[s] d_s: its boundaries over
    the group ring Z[G], G = ``group``, reduced there, and only the residue
    lifted to the integers.

    Cell (x, i) of the cover, at x * k! + i, has at slot s the face
    (x_s, rows[t][i]), t the twist t_{x,s}.  So its chains are free
    Z[G]-modules on the orbit cells, and its boundary is the orbit matrix
    with entry sum_s signs(n)[s] [t_{x,s}] at (x_s, x): a
    ``{rank: coefficient}`` dict, assembled as ``face_chain_complex`` does.
    Entry [t] at (r, c) lifts to the k! entries at (r * k! + rows[t][i],
    c * k! + i).  Then [t] [u] = [rows[t][u]] makes the lift B a ring map,
    B([t]) B([u]) = B([rows[t][u]]), so it lifts products of matrices, and
    d^2 = 0 is checked on the orbit matrices, k! times smaller.

    The orbit matrices are reduced from the top down by
    ``_group_ring_sweep``, which pivots on entries +-[pi], units of Z[G]
    whose lifts are signed permutation matrices.  Each pivot is a Gaussian
    elimination (Skoeldberg, "Morse theory from an algebraic viewpoint",
    Trans. AMS 2006): for a unit u at (r, c) of d_n, the complex is
    homotopy equivalent to the one without cells r and c, where d_n becomes
    its Schur complement, the sweep's row operations, d_{n+1} loses row c
    and d_{n-1} loses column r.  So each level drops, as columns, the rows
    that the sweep of the level above pivoted on, which is ``homology``'s
    clearing, and the residue of d_n drops, as rows, the columns that the
    sweep of d_{n-1} pivots on.  Lifted, each step is an integer Gaussian
    elimination on the pivot block B(u), so the lift of the residue, which
    ``ChainComplex`` checks again, has the cover's homology.
    """
    if not cells:
        return ChainComplex([], [])
    rows, width = group.rows, len(group)
    inverse = [group.rank[p] for p in group.inverse]
    orbit = _group_ring_boundaries(faces, twists, signs)
    for n in range(len(orbit) - 1):
        if not _group_ring_product_is_zero(orbit[n], orbit[n + 1], rows):
            raise NotAComplex(
                f"boundary squared is nonzero over Z[S_k] between dims {n + 2} and {n}"
            )
    cores, gone = [None] * len(orbit), [set() for _ in cells]
    cleared: set = set()
    for n in reversed(range(len(orbit))):
        mat = orbit[n]
        if cleared:
            mat = {key: x for key, x in mat.items() if key[1] not in cleared}
        cores[n], pivots = _group_ring_sweep(mat, rows, inverse)
        cleared = {r for r, _ in pivots}
        gone[n] |= cleared
        gone[n + 1].update(c for _, c in pivots)
    # the residue's cells, numbered in order; a core's columns are all kept
    kept = [
        {x: j for j, x in enumerate(x for x in range(len(level)) if x not in out)}
        for level, out in zip(cells, gone)
    ]
    boundaries = []
    for core, below, above in zip(cores, kept, kept[1:]):
        # a row missing from ``below`` is a pivot column of the sweep below
        residue = {(below[r], above[c]): x for (r, c), x in core.items() if r in below}
        boundaries.append(_lift(residue, rows, width))
    return ChainComplex([width * len(level) for level in kept], boundaries)


def _lift(mat: dict, rows, width: int) -> dict:
    """The integer matrix of a matrix over Z[G]: entry [t] at (r, c) goes
    to the ``width`` = |G| entries at (r * width + rows[t][i], c * width + i)."""
    lifted = {}
    for (r, c), x in mat.items():
        r, c = r * width, c * width
        for t, a in x.items():
            lifted.update(zip(zip(map(r.__add__, rows[t]), range(c, c + width)), repeat(a)))
    return lifted


def _group_ring_boundaries(faces, twists, signs) -> list:
    """The boundaries of an orbit complex with twists over Z[G], entry
    (x_s, x) -> {rank of t: coefficient} (``twisted_chain_complex``)."""
    boundaries = []
    for n in range(1, len(faces)):
        mat: dict[tuple[int, int], dict] = {}
        slot_signs = signs(n)
        twisted = zip(*[repeat(0) if col is None else col for col in twists[n]])
        for j, (fs, ts) in enumerate(zip(faces[n], twisted)):
            for f, t, sign in zip(fs, ts, slot_signs):
                x = mat.setdefault((f, j), {})
                v = x.get(t, 0) + sign
                if v:
                    x[t] = v
                else:
                    del x[t]
        boundaries.append({key: x for key, x in mat.items() if x})
    return boundaries


def _group_ring_product_is_zero(a: dict, b: dict, rows) -> bool:
    """Whether the product of two matrices over Z[G] vanishes, with
    [t] [u] = [rows[t][u]]."""
    rows_of_b: dict[int, list] = {}
    for (r, c), y in b.items():
        rows_of_b.setdefault(r, []).append((c, y))
    acc: dict[tuple[int, int], dict] = {}
    for (r, mid), x in a.items():
        for c, y in rows_of_b.get(mid, ()):  # a[r,mid] * b[mid,c]
            z = acc.setdefault((r, c), {})
            for t, p in x.items():
                row = rows[t]
                for u, q in y.items():
                    g = row[u]
                    z[g] = z.get(g, 0) + p * q
    return not any(any(z.values()) for z in acc.values())


# -- Smith normal form -------------------------------------------------------

def _unit_pivot_sweep(entries: dict) -> tuple[int, dict, list]:
    """Split off as many +-1 pivots as possible.

    Returns (number of unit pivots, remaining core entries, the (row, col)
    pairs pivoted on, in pivot order).  With a unit pivot the column is
    cleared by row operations and the row then clears for free, so the
    matrix decomposes as diag(1) (+) core at each step.

    Only row operations touch the entries: each step subtracts multiples of
    the pivot row from the other rows, then drops that row.  So a row that
    is pivoted on later has only gained multiples of earlier pivot rows, and
    when it is pivoted on it is zero in every earlier pivot column.  Take
    the pivot rows R and pivot columns C in pivot order.  On the columns C,
    the pivot rows as they stand at their pivot times are L times the
    input's R x C submatrix, with L unit lower triangular, and they form an
    upper triangular matrix with +-1 on its diagonal: that submatrix has
    determinant +-1.  ``homology`` relies on this to clear columns.

    Pivots are taken in Markowitz order: the candidate +-1 entry with the
    smallest (len(row) - 1) * (len(col) - 1), the most fill one
    elimination can create, ties broken by position.  Candidates sit in a
    heap with lazy invalidation; an entry whose cost has changed since it
    was pushed is re-keyed when popped.  The order changes how many unit
    pivots are found and what core is left, but not the invariant factors:
    each step is unimodular, so diag(1) (+) core always has the Smith form
    of the input, and that form is unique.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    def cost(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap = [(cost(r, c), r, c) for (r, c), v in entries.items() if v in (1, -1)]
    heapify(heap)
    pivots = []
    while heap:
        key, r, c = heappop(heap)
        row = rows.get(r)
        if row is None or row.get(c) not in (1, -1):
            continue
        now = cost(r, c)
        if now != key:
            heappush(heap, (now, r, c))
            continue
        piv = row[c]
        pivots.append((r, c))
        row_r = rows.pop(r)
        for cc in row_r:
            cols[cc].discard(r)
        for rr in cols.pop(c):
            target = rows[rr]
            factor = target.pop(c) * piv  # piv in {1,-1}: multiplier of row r
            for cc, v in row_r.items():
                if cc == c:
                    continue
                nv = target.get(cc, 0) - factor * v
                if nv:
                    if cc not in target:
                        cols[cc].add(rr)
                    target[cc] = nv
                    if nv in (1, -1):
                        heappush(heap, (cost(rr, cc), rr, cc))
                else:
                    del target[cc]
                    cols[cc].discard(rr)
            if not target:
                del rows[rr]
    core = {(r, c): v for r, row in rows.items() for c, v in row.items()}
    return len(pivots), core, pivots


def _group_ring_sweep(entries: dict, rows, inverse) -> tuple[dict, list]:
    """``_unit_pivot_sweep`` over Z[G]: eliminate +-[pi] pivots.

    An entry is a ``{rank: coefficient}`` dict, multiplied as [t] [u] =
    [rows[t][u]], and ``inverse[p]`` is the rank of the inverse of p.  A
    pivot is an entry with one term of coefficient +-1, a unit: u = e[p]
    has inverse e[inverse[p]].  Pivots are taken in the same Markowitz
    order, from the same heap with lazy invalidation, and each step clears
    its column by row operations only, row rr -= (M[rr, c] u^-1) row r,
    and drops row r, so what is left of d is its Schur complement
    M[rr, cc] - M[rr, c] u^-1 M[r, cc].  Returns (the core, the (row, col)
    pairs pivoted on, in pivot order).  Fill can make an entry of several
    terms, which is never a pivot; any pivot order gives the same homology.
    The entries' dicts are updated in place.
    """
    mat: dict[int, dict[int, dict]] = {}
    cols: dict[int, set] = {}
    for (r, c), x in entries.items():
        mat.setdefault(r, {})[c] = x
        cols.setdefault(c, set()).add(r)

    def cost(r, c):
        return (len(mat[r]) - 1) * (len(cols[c]) - 1)

    def unit(x):
        return len(x) == 1 and next(iter(x.values())) in (1, -1)

    heap = [(cost(r, c), r, c) for (r, c), x in entries.items() if unit(x)]
    heapify(heap)
    pivots = []
    while heap:
        key, r, c = heappop(heap)
        row = mat.get(r)
        x = row.get(c) if row is not None else None
        if x is None or not unit(x):
            continue
        now = cost(r, c)
        if now != key:
            heappush(heap, (now, r, c))
            continue
        ((p, e),) = x.items()
        q = inverse[p]
        pivots.append((r, c))
        row_r = mat.pop(r)
        for cc in row_r:
            cols[cc].discard(r)
        for rr in cols.pop(c):
            target = mat[rr]
            # the multiplier M[rr, c] u^-1 of row r, each term [f] as rows[f]
            factor = [(rows[rows[t][q]], a * e) for t, a in target.pop(c).items()]
            for cc, v in row_r.items():
                if cc == c:
                    continue
                z = target.get(cc)
                if z is None:
                    z = target[cc] = {}
                    cols[cc].add(rr)
                for row_f, a in factor:
                    for u, b in v.items():
                        g = row_f[u]
                        w = z.get(g, 0) - a * b
                        if w:
                            z[g] = w
                        else:
                            del z[g]
                if z:
                    if unit(z):
                        heappush(heap, (cost(rr, cc), rr, cc))
                else:
                    del target[cc]
                    cols[cc].discard(rr)
            if not target:
                del mat[rr]
    core = {(r, c): x for r, row in mat.items() for c, x in row.items()}
    return core, pivots


def _dense_smith(entries: dict) -> list:
    """Invariant factors of a small integer matrix, textbook reduction.

    Pivot choice is the smallest nonzero absolute value with ties broken by
    position; rows and columns are reduced until the pivot divides them,
    then cleared; a pivot is re-entered when some remaining entry is not
    divisible by it, which enforces the divisibility chain.
    """
    if not entries:
        return []
    rmap = {r: i for i, r in enumerate(sorted({r for r, _ in entries}))}
    cmap = {c: j for j, c in enumerate(sorted({c for _, c in entries}))}
    m, n = len(rmap), len(cmap)
    a = [[0] * n for _ in range(m)]
    for (r, c), v in entries.items():
        a[rmap[r]][cmap[c]] = v
    factors = []
    top = 0
    while True:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = a[top][top]
            done = True
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // p
                    for j in range(top, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // p
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        done = False
                        break
            if done:
                break
        p = abs(a[top][top])
        # pull any non-multiple into the pivot row and redo this pivot
        culprit = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % p:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            for j in range(top, n):
                a[top][j] += a[culprit][j]
            continue
        factors.append(p)
        top += 1
        if top >= m or top >= n:
            break
    return factors


def smith_normal_form(matrix, pivots=None) -> tuple[tuple, int]:
    """Nonzero invariant factors (divisibility chain) and rank of a matrix.

    Accepts a dense row-major sequence of sequences or a sparse dict
    (row, col) -> value.  Arithmetic is exact at arbitrary precision.  If
    ``pivots`` is a list, the (row, col) pairs of the unit-pivot sweep are
    appended to it.

    The sweep's factors are 1, which divides everything.  ``_dense_smith``
    re-enters a pivot until it divides every remaining entry, and that
    step alone makes the core's factors a divisibility chain.
    """
    if isinstance(matrix, dict):
        entries = {k: int(v) for k, v in matrix.items() if v}
    else:
        entries = {
            (i, j): int(v)
            for i, row in enumerate(matrix)
            for j, v in enumerate(row)
            if v
        }
    units, core, swept = _unit_pivot_sweep(entries)
    if pivots is not None:
        pivots.extend(swept)
    factors = [1] * units + _dense_smith(core)
    return tuple(factors), len(factors)


def homology(cc: ChainComplex) -> HomologyResult:
    """Betti numbers and torsion coefficients per dimension.

    The boundaries are reduced from the top dimension down.  Before d_n
    (``boundaries[n - 1]``, from C_n to C_{n-1}) goes to
    ``smith_normal_form``, every column whose index is a row that the
    unit-pivot sweep of d_{n+1} pivoted on is dropped.  This is exact:

    - The sweep of d_{n+1} pivots on +-1 entries with row operations only,
      so the input's submatrix on its pivot rows R and pivot columns C has
      determinant +-1 (see ``_unit_pivot_sweep``).
    - Hence {d_{n+1} e_c : c in C} together with {e_s : s not in R} is a
      Z-basis of C_n: in the order R first, its matrix is block triangular
      with blocks d_{n+1}[R, C] and the identity.
    - d_n d_{n+1} = 0 sends the first part to 0, so the columns of d_n
      outside R span the image lattice of d_n: the same rank and the same
      invariant factors as the full matrix.

    ``ChainComplex`` checks d^2 = 0 on construction, which is what makes
    this sound.  Only unit pivots clear columns; the dense core's pivots
    do not.
    """
    dims = len(cc.sizes)
    ranks = [0] * (dims + 1)
    torsion_of_next = [[] for _ in range(dims + 1)]
    cleared: set = set()  # rows of the sweep above, as columns of this matrix
    for n in reversed(range(len(cc.boundaries))):
        mat = cc.boundaries[n]
        if cleared:
            mat = {k: v for k, v in mat.items() if k[1] not in cleared}
        pivots: list = []
        factors, rank = smith_normal_form(mat, pivots)
        ranks[n + 1] = rank
        torsion_of_next[n] = [f for f in factors if f > 1]
        cleared = {r for r, _ in pivots}
    betti = [cc.sizes[n] - ranks[n] - ranks[n + 1] for n in range(dims)]
    if any(b < 0 for b in betti):
        raise NotAComplex("negative betti number; boundaries are inconsistent")
    return HomologyResult(betti, [torsion_of_next[n] for n in range(dims)])


def connected_components(s: SemiSimplicialSet) -> list:
    """Partition of the 0-chains under the 1-chain adjacency."""
    groups: dict[int, list] = {}
    edges = s.faces[1] if len(s.faces) > 1 else []
    for i, r in enumerate(min_roots(s.size(0), edges)):
        groups.setdefault(r, []).append(i)
    return list(groups.values())
