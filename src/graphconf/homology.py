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

The homology of a model, and of an Abrams complex, as the CLI reports it,
is computed on a free-face collapse, which removes cells before any matrix
is built: ``nerve.collapse_free_faces`` of the complex, or, for the
ordered model without ``--collapse`` and for an Abrams complex, the lift
of its orbit complex's collapse (``nerve.lift_faces``), a collapse of the
ordered complex made without building it.  That is exact over Z: a free
face has one coface and occurs in it once, so its row of the boundary
holds a single +-1, a unit pivot whose elimination creates no fill, and
removing the pair keeps every Betti number and torsion coefficient.  The
full complex is checked by its face identities, d_i d_j = d_{j-1} d_i
for a model and the cubical ones for an Abrams complex, and a cover's on
its orbit complex with a cocycle per identity (``nerve.validate_twists``).
They imply d^2 = 0 for the signs above; ``ChainComplex`` checks d^2 = 0
on the collapsed complex it is given.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


def chain_complex(s: SemiSimplicialSet) -> ChainComplex:
    """Cellular chain complex of a semi-simplicial set, d = sum_i (-1)^i d_i."""
    return face_chain_complex(s.labels, s.faces, lambda n: [(-1) ** i for i in range(n + 1)])


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
