"""Nerves of finite acyclic categories as semi-simplicial sets.

An n-chain is a composable sequence of n nonidentity morphisms; the face
operators drop the outer morphisms and compose adjacent inner ones.  Since
every category here carries a rank that strictly increases along
nonidentity morphisms, middle faces are automatically nondegenerate.

A complex is its labels and its faces: level by level, each chain has a
label and a tuple of integer face indices into the level below, which makes
boundary-matrix assembly a scan and keeps every downstream enumeration
deterministic.  Level 1 lists the arrows in order, and a chain of length
n >= 2 is fixed by d_0 (its tail) and d_n (its head), so no arrow tuple is
stored.  ``build_nerve`` is the one loop that extends chains: it builds
the unordered model from the orbit category, and the face category's
nerve, which the two-point model filters.  It produces each level in
lexicographic order by extending the level below in order, so nothing is
sorted and the children of a chain are consecutive.  So every face of a
new chain is found by arithmetic on its parent's faces and a position in an
arrow list, with no lookup of a chain by its arrows: the last face is the
parent, the one before extends the parent's by a composite, and each other
face, d_0 included, extends the parent's face of that number by the new
arrow.  A chain's label is its parent's plus its new top object.

The S_k-covers of the orbit nerve and of the orbit cube complex share one
check (``validate_twists``) and one lift (``lift_faces``).  The ordered
model is the lift of the unordered one, which ``model.ordered_nerve``
sorts into the nerve's order, with no chain extended.
"""

from dataclasses import dataclass
from itertools import chain, permutations, repeat

from .errors import EmptyComplex, InternalError, InvalidCategory, NonComposable, NonFreeAction


class AcyclicCategory:
    """Finite acyclic category presented by ranked objects and an explicit
    nonidentity-morphism list with a composition callback.

    ``objects``: sortable keys, listed in canonical order.
    ``rank``: one integer per object, strictly increasing along morphisms.
    ``morphisms``: (src_index, tgt_index, key) triples, nonidentity only.
    ``compose_keys(mkey2, mkey1)``: key of the composite of stored morphisms.
    ``morphism_index[(src_index, tgt_index, key)]``: position in ``morphisms``.
    """

    def __init__(self, objects, rank, morphisms, compose_keys, key_label=str):
        self.objects = list(objects)
        self.rank = list(rank)
        self.morphisms = sorted(morphisms, key=lambda m: (m[0], m[1], m[2]))
        self._compose_keys = compose_keys
        self._key_label = key_label
        self.morphism_index = {}
        for i, (s, t, key) in enumerate(self.morphisms):
            if s == t:
                raise InvalidCategory("nonidentity morphism with equal endpoints")
            if self.rank[s] >= self.rank[t]:
                raise InvalidCategory("rank does not increase along a morphism")
            self.morphism_index[(s, t, key)] = i
        self.out_of = [[] for _ in self.objects]
        for i, (s, _, _) in enumerate(self.morphisms):
            self.out_of[s].append(i)
        self._compose_cache: dict[tuple[int, int], int] = {}
        # ``build_nerve``'s view, in which an arrow is a morphism index.  The
        # nerve calls these per chain, so each is a C-level lookup.
        labels = self._labels = [self.object_label(i) for i in range(len(self.objects))]
        self.arrows = range(len(self.morphisms))
        self.arrow_faces = [(t, s) for s, t, _ in self.morphisms].__getitem__
        self.after = [self.out_of[t] for _, t, _ in self.morphisms].__getitem__
        self.top_label = [labels[t] for _, t, _ in self.morphisms].__getitem__
        place = [0] * len(self.morphisms)
        for out in self.out_of:
            for j, m in enumerate(out):
                place[m] = j
        self.position = place.__getitem__

    def compose(self, m2: int, m1: int) -> int:
        """Index of the composite of morphism m1 followed by m2."""
        got = self._compose_cache.get((m2, m1))
        if got is not None:
            return got
        s1, t1, k1 = self.morphisms[m1]
        s2, t2, k2 = self.morphisms[m2]
        if t1 != s2:
            raise NonComposable("morphisms are not composable")
        key = self._compose_keys(k2, k1)
        idx = self.morphism_index.get((s1, t2, key))
        if idx is None:
            raise InvalidCategory(
                "composite of two stored morphisms is not a stored morphism"
            )
        self._compose_cache[(m2, m1)] = idx
        return idx

    def object_label(self, i: int) -> str:
        return str(self.objects[i])

    def morphism_label(self, i: int) -> str:
        s, t, key = self.morphisms[i]
        return arrow_label(self._labels[s], self._key_label(key), self._labels[t])


def arrow_label(source: str, key: str, target: str) -> str:
    """Label of a 1-chain from the labels of its ends and its key."""
    return f"{source}>{key}>{target}"


def chain_label(objects) -> str:
    """Label of a longer chain from the labels of its objects, bottom first."""
    return "|".join(objects)


@dataclass
class SemiSimplicialSet:
    """Nondegenerate chains per dimension: their labels and face indices,
    the only record of a chain (a nerve's chains are fixed by d_0 and d_n)."""

    # labels[n][i]: name of chain i in dimension n.  At levels 0 and 1 a
    # label is a unique id (a cell, or an arrow with its datum).  Above, it
    # names only the chain's objects, so parallel morphisms (as loops give)
    # repeat it: ordered k=3 on ``gen xb -x 2 -k 1 -l 1 -p 1 -q 1`` has 552
    # level-2 chains whose label an earlier chain already has.  A complex
    # that no report prints may hold a level as a ``range``, where a chain's
    # label is its index (``build_nerve(cat, labels=False)``).
    labels: list
    faces: list  # faces[n][i]: tuple of n+1 indices into dimension n-1 (n >= 1)

    @property
    def dimensions(self) -> int:
        return len(self.labels)

    def size(self, n: int) -> int:
        if n < 0 or n >= len(self.labels):
            return 0
        return len(self.labels[n])

    def fvector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.labels)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(level) for n, level in enumerate(self.labels))

    def restrict(self, keep, new_index=None) -> "SemiSimplicialSet":
        """The chains ``keep[n]`` of each level n, in that order, with their
        faces renumbered through ``new_index[n - 1]``.

        ``new_index[n][i]`` is the new position of chain i of level n; by
        default a kept chain goes to its position in ``keep[n]``.  A face
        with no new position raises ``InternalError``.  Trailing empty
        levels are dropped.
        """
        if new_index is None:
            new_index = [{i: j for j, i in enumerate(level)} for level in keep]
        labels, faces = [], []
        for n, level in enumerate(keep):
            labels.append([self.labels[n][i] for i in level])
            if n == 0:
                faces.append([])
                continue
            below, up = new_index[n - 1].__getitem__, self.faces[n]
            try:
                faces.append([tuple(map(below, up[i])) for i in level])
            except (KeyError, IndexError) as exc:
                raise InternalError(f"a kept chain at dim {n} has a dropped face") from exc
        while labels and not labels[-1]:
            labels.pop()
            faces.pop()
        return SemiSimplicialSet(labels, faces)

    def validate_face_identities(self) -> None:
        """Check that every n-chain (n >= 1) has n+1 faces, each an index
        into level n-1, and that d_i d_j = d_{j-1} d_i for i < j.

        Any failure raises ``InternalError``.  The identities imply d^2 = 0
        for ``chain_complex``'s signs d = sum_i (-1)^i d_i: in d d c the
        terms d_i d_j c and d_{j-1} d_i c (i < j) have signs (-1)^(i+j) and
        (-1)^(i+j-1) and cancel.
        """
        validate_faces(self.labels, self.faces, lambda n: n + 1, simplicial_identities)


def simplicial_identities(n: int) -> list:
    """d_i d_j = d_{j-1} d_i (i < j) on n-chains, as ``validate_faces`` reads them."""
    return [(j, i, i, j - 1) for j in range(1, n + 1) for i in range(j)]


def validate_faces(cells, faces, arity, identities) -> None:
    """Check a complex stored as face indices, one whole level at a time.

    ``cells[n]`` lists the cells of level n and ``faces[n][c]`` the faces
    of cell c as indices into level n-1.  Every cell of level n >= 1 must
    have ``arity(n)`` faces, each in range.  For each (a, b, c, e) in
    ``identities(n)`` and every cell of level n >= 2, face b of its face a
    must equal face e of its face c.  Any failure raises ``InternalError``.
    """
    if len(faces) != len(cells):
        raise InternalError("face levels do not match chain levels")
    for n in range(1, len(cells)):
        level, below, width = faces[n], len(cells[n - 1]), arity(n)
        if len(level) != len(cells[n]):
            raise InternalError(f"face count does not match chain count at dim {n}")
        if any(map(width.__ne__, map(len, level))):
            raise InternalError(f"a chain at dim {n} does not have {width} faces")
        flat = list(chain.from_iterable(level))
        lo, hi = min(flat, default=0), max(flat, default=0)
        if lo < 0 or hi >= below:
            idx = flat.index(lo if lo < 0 else hi) // width
            raise InternalError(f"face index out of range at dim {n} chain {idx}")
        if n == 1:
            continue  # level 0 has no faces
        lower = faces[n - 1]
        for a, b, c, e in identities(n):
            left = [lower[fs[a]][b] for fs in level]
            right = [lower[fs[c]][e] for fs in level]
            if left != right:
                idx = next(x for x, (u, v) in enumerate(zip(left, right)) if u != v)
                raise InternalError(
                    f"face identity fails at dim {n} chain {idx} (face {b} of face {a})"
                )


class Permutations:
    """The permutations of range(k): ``perms`` in lexicographic order, so
    the identity has rank 0, their ranks ``rank``, and ``inverse[i]``, the
    inverse of perms[i].  ``rows[b][a]``, also ``self[b][a]``, is the rank
    of perms[a] o perms[b].  A row is made on first use, as twists take few
    values and a whole table would hold (k!)^2 ranks."""

    def __init__(self, k: int):
        self.perms = list(permutations(range(k)))
        self.rank = {p: i for i, p in enumerate(self.perms)}
        self.inverse = [tuple(sorted(range(k), key=p.__getitem__)) for p in self.perms]
        self.rows = _Rows()
        self.rows.perms, self.rows.rank = self.perms, self.rank

    def __len__(self) -> int:
        return len(self.perms)

    def __getitem__(self, b: int) -> list:
        return self.rows[b]


class _Rows(dict):
    """``Permutations.rows``: a dict, so a lookup runs at C speed."""

    def __missing__(self, b: int) -> list:
        got = self[b] = [self.rank[tuple(map(a.__getitem__, self.perms[b]))] for a in self.perms]
        return got


def validate_twists(cells, faces, arity, identities, twists, group, admit, failure) -> None:
    """Check that the cover ``lift_faces(faces, twists, group, ...)`` of an
    orbit complex satisfies its face identities, with no cell of it made.

    ``twists[n][s]`` lists, over the cells x of level n, the rank in
    ``group`` of the twist t_{x,s} of face slot s, or is None where all are
    the identity.  The check is ``validate_faces``, every twist in range,
    ``admit(n, twists[n])`` if given, and for each identity (a, b, c, e) of
    ``identities(n)`` and cell x of level n >= 2 the cocycle
    t_{x,a} o t_{x_a,b} = t_{x,c} o t_{x_c,e}, x_a face a of x, whose
    failure ``failure`` formats with n and the cell idx.  Face b of face a
    of (x, sigma) is ((x_a)_b, sigma o t_{x,a} o t_{x_a,b}), so the identity
    holds on the cover exactly when it holds on the orbit complex and the
    cocycle does (composing with sigma is injective).  Any failure raises
    ``InternalError``.
    """
    validate_faces(cells, faces, arity, identities)
    width, below = len(group), []
    for n in range(1, len(cells)):
        level = twists[n]
        for s, col in enumerate(level):
            if col and not 0 <= min(col) <= max(col) < width:
                raise InternalError(f"twist out of range at dim {n} (face {s})")
        if admit is not None:
            admit(n, level)
        zero = [0] * len(faces[n])
        for a, b, c, e in identities(n) if n > 1 else ():
            left = _composite(faces[n], a, level[a], below[b], group) or zero
            right = _composite(faces[n], c, level[c], below[e], group) or zero
            if left != right:
                idx = next(x for x, (u, v) in enumerate(zip(left, right)) if u != v)
                raise InternalError(failure.format(n=n, idx=idx) + f" (face {b} of face {a})")
        below = level


def _composite(faces, a, top, lower, group):
    """Per cell x with faces ``faces``, the rank of t_{x,a} o t_{x_a,b}, from
    the twists ``top`` at slot a and ``lower`` one level down at slot b."""
    if lower is None:
        return top
    if top is None:
        return [lower[fs[a]] for fs in faces]
    rows = group.rows
    return [rows[lower[fs[a]]][t] for fs, t in zip(faces, top)]


def lift_faces(faces, twists, group, order) -> list:
    """The faces of the k!-sheeted cover of an orbit complex with the twists
    ``twists`` (``validate_twists``): cell (x, i), perms[i] applied to x, at
    index x * k! + i, has at slot s the face x_s * k! + rank(perms[i] o
    t_{x,s}), and ``order[n][i]``, if ``order`` is given, puts its slots in
    its own order.  Nothing is sorted.  The nerve's twists are lam_x at
    slot 0: ``model.ordered_nerve`` sorts their lift into the ordered
    model's order.  The cube complex's are the relocations rho^-1, in each
    cube's tuple order (``abrams.lift``).

    A covering lifts the star of every cell isomorphically: an incidence of
    y as face s of x, twisted by t, lifts to exactly one incidence of each
    lift (y, tau), at (x, sigma) for the one sigma with sigma o t = tau.  So
    if y is a free face of x, each of its k! lifts is a free face of one
    lift of x, the k! pairs are disjoint, and what stays is again the cover
    of what stays below: the lift of the orbit complex's free-face collapse
    is a collapse of the cover, found by a scan k! times smaller.
    """
    lifted = [[] for _ in faces[:1]]
    for n in range(1, len(faces)):
        width, rows, sheets, level = len(group), group.rows, order and order[n], []
        twisted = zip(*[repeat(0) if col is None else col for col in twists[n]])
        for fs, ts in zip(faces[n], twisted):
            bases = [f * width for f in fs]
            lifts = zip(
                *[[f + x for x in rows[t]] if t else range(f, f + width) for f, t in zip(bases, ts)]
            )
            level.extend([get(lf) for get, lf in zip(sheets, lifts)] if sheets else lifts)
        lifted.append(level)
    return lifted


def build_nerve(cat, labels=True) -> SemiSimplicialSet:
    """Semi-simplicial set of nondegenerate chains of the category: an
    ``AcyclicCategory`` or the orbit category ``model.OrbitCategory``.

    Level 0 is ``objects``, labelled by ``object_label(i)``.  Level 1 is
    ``arrows``, each arrow as chains hold it, labelled by
    ``morphism_label(a)``, with faces ``arrow_faces(a)`` (the positions of
    d_0 and d_1 in level 0).  A chain ending in arrow a is extended by each
    arrow of ``after(a)``, the arrows out of a's target, and
    ``top_label(a)`` labels that target.  An arrow x sits at
    ``position(x)`` in the list of the arrows out of its source.

    With ``labels`` false the same loop builds the faces alone: each level
    is ``range`` of its size, and none of the three label methods is
    called.  The homology reports read no label, so they take this nerve;
    ``braidgroup`` labels its level 1 from ``morphism_label``.

    Each level comes out in lexicographic order with no sort.  Level 1 is
    ``arrows``, which ascends and lists each object's arrows together.  If
    level n is ascending, its chains are extended in that order, and each
    by the arrows of an ``after`` list, which ascends; two extensions of
    different parents compare as their parents do, so level n+1 ascends
    too.  So the children of a chain ch are consecutive: ch + m, for m at
    position j of ``after(a)``, is chain ``start[ch] + j`` of level n+1.
    A child's label is the parent's object-chain label plus the new top
    object.

    Faces are index arithmetic on the parent's faces f_0 .. f_n (n >= 1
    arrows, the last a; position j as above):

    - d_{n+1} is ch itself;
    - d_n drops a's source, so it extends f_n by ``compose(m, a)``, which
      leaves a's source: ``start[f_n] + position(compose(m, a))``;
    - d_i for 0 <= i < n drops an object below a's target, so it extends
      f_i by m, at m's position in the list after f_i: ``start[f_i] + j``.
      In an ``AcyclicCategory`` f_i ends where ch does, d_0 included, so
      the lists are one.  In the orbit category so does f_i for i >= 1,
      and ``model.OrbitCategory`` proves that moving ch's list to the end
      of f_0, a member of the same orbit, keeps every position.

    Composition checks closure: ``AcyclicCategory.compose`` raises
    ``InvalidCategory`` for a composite that is not stored.  Only the last
    two arrows of each new chain are composed, yet every pair of adjacent
    arrows of a chain is the last pair of a prefix, which is itself a chain
    built earlier, so every pair the full face rule composes is composed.
    """
    if not cat.objects:
        return SemiSimplicialSet([], [])
    lasts = list(cat.arrows)  # the last arrow of each chain at the level being extended
    rows = [cat.arrow_faces(a) for a in lasts]
    if labels:
        obj_labels = [cat.object_label(i) for i in range(len(cat.objects))]
        levels = [obj_labels, [cat.morphism_label(a) for a in lasts]]
        top_label = cat.top_label
        # paths[c]: the chain label of chain c's objects, bottom first
        paths = [chain_label((obj_labels[s], top_label(a))) for a, (_, s) in zip(lasts, rows)]
    else:
        levels = [range(len(cat.objects)), range(len(lasts))]
    if not lasts:
        return SemiSimplicialSet(levels[:1], [[]])
    faces = [[], rows]
    after, compose, position = cat.after, cat.compose, cat.position
    # of the level below: start[f], the position of chain f's first child
    # in the level being extended
    start = [0] * len(levels[0])
    for i in range(len(rows) - 1, -1, -1):
        start[rows[i][1]] = i

    while True:
        nxt, new_faces, new_paths, new_start = [], [], [], []
        for c, (a, (*fs, fn)) in enumerate(zip(lasts, rows)):
            new_start.append(len(nxt))
            ms = after(a)
            if not ms:
                continue
            dn, width = start[fn], len(ms)
            new_faces.extend(
                zip(
                    *[range(start[f], start[f] + width) for f in fs],
                    [dn + position(compose(m, a)) for m in ms],
                    repeat(c, width),
                )
            )
            nxt.extend(ms)
            if labels:
                head = chain_label((paths[c], ""))  # the parent's label and a separator
                new_paths.extend([head + top_label(m) for m in ms])
        if not nxt:
            break
        levels.append(new_paths if labels else range(len(nxt)))
        faces.append(new_faces)
        start, lasts, rows, paths = new_start, nxt, new_faces, new_paths
    return SemiSimplicialSet(levels, faces)


def dimension(s: SemiSimplicialSet) -> int:
    """Largest n with a nonempty chain list."""
    if not s.labels or not s.labels[0]:
        raise EmptyComplex("complex has no chains")
    return len(s.labels) - 1


def quotient_by_free_action(s: SemiSimplicialSet, action) -> SemiSimplicialSet:
    """Quotient by a finite group of simplicial automorphisms.

    ``action`` is a list of nonidentity automorphisms, each given per
    dimension as a list mapping chain index to image chain index.  Freeness
    is verified on 0-chains (the action on objects); because ranks along a
    chain are strictly increasing, that implies freeness on all chains.
    Orbit representatives are the lexicographically minimal members.

    ``reduced --quotient`` divides the two-point model by it, and the tests
    use it as the reference for the unordered model, the nerve of
    ``model.OrbitCategory``, which is built without the ordered nerve.
    """
    if not s.labels:
        return SemiSimplicialSet([], [])
    for g in action:
        if len(g) < len(s.labels):
            raise ValueError("automorphism does not cover all dimensions")
        for n in range(len(s.labels)):
            if sorted(g[n]) != list(range(len(s.labels[n]))):
                raise NonFreeAction("level map is not a bijection")
        for n in range(1, len(s.labels)):
            for i, fs in enumerate(s.faces[n]):
                mapped = tuple(g[n - 1][f] for f in fs)
                if mapped != s.faces[n][g[n][i]]:
                    raise NonFreeAction("map does not commute with face operators")
        for i, img in enumerate(g[0]):
            if img == i:
                raise NonFreeAction(f"object {s.labels[0][i]} fixed by a nonidentity element")

    keep, new_index = [], []
    for n, level in enumerate(s.labels):
        roots = min_roots(len(level), ((i, g[n][i]) for g in action for i in range(len(level))))
        reps = [i for i, r in enumerate(roots) if i == r]
        position = {r: j for j, r in enumerate(reps)}
        keep.append(reps)
        new_index.append([position[r] for r in roots])
    return s.restrict(keep, new_index)


def min_roots(count: int, pairs) -> list:
    """roots[i]: the least member of i's class in the equivalence relation
    on range(count) that the (a, b) pairs generate (union-find)."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(count)]


def collapse_free_faces(s: SemiSimplicialSet) -> SemiSimplicialSet:
    """Remove elementary free pairs until none remain.

    A free pair is a chain t together with the unique one-higher chain c
    having t as a face (exactly once).  Scanning is by ascending dimension
    then index, repeated to a fixed point; removing a free pair is an
    elementary collapse, so the result is a deformation retract and all
    Betti numbers are preserved.

    One coface index is built up front, and each chain keeps a count of
    its incidences among the alive one-higher chains, decremented as
    chains are removed; t is free exactly when its count is 1.  The counts
    are always current, so the scan removes the same pairs in the same
    order as recounting before every test would.

    Neither the scan nor ``restrict`` reads how many faces a chain has, so
    a cube complex stored the same way (``abrams.free_face_collapse``) collapses
    here too.  Nor do they read labels, which ``restrict`` carries along:
    ``model.collapsed_cover`` labels the orbit nerve by its twists, and
    ``abrams.free_face_collapse`` labels cubes by index, to keep theirs.
    The collapse of an orbit complex lifts to a collapse of its cover
    (``lift_faces``).
    """
    alive =[[True] * len(level) for level in s.labels]
    # cofaces[n][t]: the (n+1)-chains having t as a face, once per incidence
    cofaces = [[[] for _ in level] for level in s.labels[:-1]]
    for n, level in enumerate(cofaces):
        for c, fs in enumerate(s.faces[n + 1]):
            for f in fs:
                level[f].append(c)
    count = [[len(cs) for cs in level] for level in cofaces]
    changed = True
    while changed:
        changed = False
        for n, count_n in enumerate(count):
            alive_n, alive_up = alive[n], alive[n + 1]
            for t, hits in enumerate(count_n):
                if hits != 1 or not alive_n[t]:
                    continue
                c = next(c for c in cofaces[n][t] if alive_up[c])
                alive_n[t] = alive_up[c] = False
                changed = True
                for f in s.faces[n + 1][c]:
                    count_n[f] -= 1
                if n:
                    for f in s.faces[n][t]:
                        count[n - 1][f] -= 1
    return s.restrict([[i for i, ok in enumerate(level) if ok] for level in alive])
