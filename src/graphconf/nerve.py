"""Nerves of finite acyclic categories as semi-simplicial sets.

An n-chain is a composable sequence of n nonidentity morphisms; the face
operators drop the outer morphisms and compose adjacent inner ones.  Since
every category here carries a rank that strictly increases along
nonidentity morphisms, middle faces are automatically nondegenerate.

Chains are stored level by level with integer face indices into the level
below, which makes boundary-matrix assembly a scan and keeps every
downstream enumeration deterministic.
"""

from dataclasses import dataclass, field

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
        return arrow_label(self.object_label(s), self._key_label(key), self.object_label(t))


def arrow_label(source: str, key: str, target: str) -> str:
    """Label of a 1-chain from the labels of its ends and its key."""
    return f"{source}>{key}>{target}"


def chain_label(objects) -> str:
    """Label of a longer chain from the labels of its objects, bottom first."""
    return "|".join(objects)


@dataclass
class SemiSimplicialSet:
    """Nondegenerate chains per dimension with explicit face indices."""

    labels: list  # labels[n][i]: stable id of chain i in dimension n
    faces: list  # faces[n][i]: tuple of n+1 indices into dimension n-1 (n >= 1)
    meta: dict = field(default_factory=dict)

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

    def validate_face_identities(self) -> None:
        """Check d_i d_j = d_{j-1} d_i for i < j on every chain."""
        for n in range(2, len(self.labels)):
            for idx in range(len(self.labels[n])):
                fs = self.faces[n][idx]
                for j in range(1, n + 1):
                    for i in range(j):
                        left = self.faces[n - 1][fs[j]][i]
                        right = self.faces[n - 1][fs[i]][j - 1]
                        if left != right:
                            raise InternalError(
                                f"face identity fails at dim {n} chain {idx} (i={i}, j={j})"
                            )


def build_nerve(cat: AcyclicCategory) -> SemiSimplicialSet:
    """Semi-simplicial set of nondegenerate chains of the category.

    Level n+1 is built by appending each outgoing morphism to each n-chain;
    middle faces are composed through the category, which also serves as an
    on-the-fly closure check of the composition law.
    """
    labels = [[cat.object_label(i) for i in range(len(cat.objects))]]
    faces = [[]]
    chains = [[(i,) for i in range(len(cat.objects))]]
    if not cat.objects:
        return SemiSimplicialSet([], [], {"chains": []})

    # chains at level n >= 1: tuples of morphism indices (first arrow first)
    level: list[tuple] = [(m,) for m in range(len(cat.morphisms))]
    index: dict[tuple, int] = {ch: i for i, ch in enumerate(level)}
    if level:
        labels.append([cat.morphism_label(m) for (m,) in level])
        faces.append(
            [(cat.morphisms[m][1], cat.morphisms[m][0]) for (m,) in level]
        )
        chains.append(level)

    while level:
        nxt = []
        for ch in level:
            top = cat.morphisms[ch[-1]][1]
            for m in cat.out_of[top]:
                nxt.append(ch + (m,))
        if not nxt:
            break
        nxt.sort()
        nxt_index = {ch: i for i, ch in enumerate(nxt)}
        n = len(nxt[0])  # chain length at the new level
        new_faces = []
        for ch in nxt:
            row = []
            for i in range(n + 1):
                if i == 0:
                    f = ch[1:]
                elif i == n:
                    f = ch[:-1]
                else:
                    f = ch[: i - 1] + (cat.compose(ch[i], ch[i - 1]),) + ch[i + 1:]
                row.append(index[f])
            new_faces.append(tuple(row))
        labels.append([_chain_label(cat, ch) for ch in nxt])
        faces.append(new_faces)
        chains.append(nxt)
        level, index = nxt, nxt_index
    return SemiSimplicialSet(labels, faces, {"chains": chains})


def _chain_label(cat: AcyclicCategory, ch: tuple) -> str:
    objs = [cat.morphisms[ch[0]][0]] + [cat.morphisms[m][1] for m in ch]
    return chain_label(cat.object_label(o) for o in objs)


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
    use it as the reference for ``model.orbit_nerve``, which builds the
    unordered model without the ordered nerve.
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

    new_labels, new_faces, reindex = [], [], []
    for n in range(len(s.labels)):
        count = len(s.labels[n])
        parent = list(range(count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in action:
            for i in range(count):
                ra, rb = find(i), find(g[n][i])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        reps = sorted({find(i) for i in range(count)})
        rep_pos = {r: j for j, r in enumerate(reps)}
        reindex.append([rep_pos[find(i)] for i in range(count)])
        new_labels.append([s.labels[n][r] for r in reps])
        if n >= 1:
            new_faces.append(
                [tuple(reindex[n - 1][f] for f in s.faces[n][r]) for r in reps]
            )
        else:
            new_faces.append([])
    return SemiSimplicialSet(new_labels, new_faces)


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
    """
    alive = [[True] * len(level) for level in s.labels]
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
    labels, faces, reindex = [], [], []
    for n in range(len(s.labels)):
        keep = [i for i, ok in enumerate(alive[n]) if ok]
        pos = {i: j for j, i in enumerate(keep)}
        reindex.append(pos)
        labels.append([s.labels[n][i] for i in keep])
        if n >= 1:
            faces.append([tuple(reindex[n - 1][f] for f in s.faces[n][i]) for i in keep])
        else:
            faces.append([])
    while labels and not labels[-1]:
        labels.pop()
        faces.pop()
    return SemiSimplicialSet(labels, faces)
