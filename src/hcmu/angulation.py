"""Embedded bi-colored graphs on closed oriented surfaces.

Every arc joins a black vertex (curvature maximum) to a white vertex
(minimum).  The map is the pair of dart permutations of Lando and Zvonkin on
the integers 0 .. 2E - 1: arc ``a`` has the darts d = 2a at its black end and
d = 2a + 1 at its white end, so the involution alpha swapping the two ends of
an arc is ``d ^ 1``, and the rotation sigma sends a dart to the next dart
counterclockwise at its vertex.  ``sigma``, ``sigma_inv`` and the face index
``face_of_dart`` are flat lists over the darts.  Faces are the orbits of
sigma^-1 o alpha, d -> ``sigma_inv[d ^ 1]``, which traverse each face
boundary with the face on the left; genus comes from the Euler count.  A
mixed-angulation additionally requires every face degree to be even and at
least 4.

Each vertex's rotation ``darts[v]`` lists its int darts counterclockwise,
and a face is keyed by its least dart.  Only at the edge of the package is a
dart written as the pair ``(arc, "b")`` or ``(arc, "w")``: the constructor
also takes rotations in pairs, and ``rotations`` shows ``darts`` in pairs.
Since (a, "b") < (a, "w") exactly when 2a < 2a + 1, both numberings order
the darts alike.

Two maps are isomorphic when a dart bijection commutes with sigma and alpha
and keeps the labels; the canonical form is the least flat dart-numbering
code over the roots of the least class of an isomorphism invariant, with an
early stop against the best code and automorphism pruning across roots.
"""
from __future__ import annotations

from collections import Counter

from .errors import (
    Disconnected,
    NonIntegerGenus,
    NotBipartite,
    OddFaceDegree,
)

BLACK = "black"
WHITE = "white"

END = ("b", "w")  # END[d & 1] is the end of int dart d: "b" black, "w" white


def _pair(d: int):
    """The (arc, end) pair of int dart d."""
    return (d >> 1, END[d & 1])


class MixedAngulation:
    """Validated bi-colored embedded graph with derived face data.

    The constructor reads each dart of a rotation as an int or an (arc, end)
    pair; arc ends and arc ids must be ints, and nothing is coerced.
    ``darts`` (the rotations) and ``faces`` hold tuples of int darts,
    ``sigma``, ``sigma_inv`` and ``face_of_dart`` are lists indexed by int
    dart, and ``face_keys[f]`` is ``faces[f][0]``.  Instances are immutable:
    every construction and surgery writes new rows and builds a new map.
    """

    __slots__ = (
        "colors",
        "arcs",
        "darts",
        "sigma",
        "sigma_inv",
        "faces",
        "face_keys",
        "face_of_dart",
        "genus",
        "order_vector",
        "degenerate",
    )

    def __init__(self, colors, arcs, rotations, *, _allow_degenerate=False):
        colors = tuple(colors)
        rotations = tuple(rotations)
        n = len(colors)
        for c in colors:
            if c not in (BLACK, WHITE):
                raise NotBipartite(f"unknown color {c!r}")
        if len(rotations) != n:
            raise NotBipartite("rotation table does not match the vertex set")
        checked = []
        home = []  # the vertex of each dart
        for a, arc in enumerate(arcs):
            try:
                b, w = arc
            except (TypeError, ValueError):  # not a pair, such as 5, None or (0, 1, 2)
                raise NotBipartite(f"arc {a} is not a pair of ends: {arc!r}") from None
            if type(b) is not int or type(w) is not int:
                raise NotBipartite(f"arc {a} has an end that is not an int: {(b, w)!r}")
            if not (0 <= b < n and 0 <= w < n):
                raise NotBipartite(f"arc {a} has a dangling end")
            if colors[b] != BLACK or colors[w] != WHITE:
                raise NotBipartite(f"arc {a} does not join black to white")
            checked.append((b, w))
            home += b, w
        arcs = tuple(checked)
        num_arcs = len(arcs)

        # one pass over the rotations: each dart, an int or an (arc, end)
        # pair, is checked against its home vertex and linked to its
        # predecessor in sigma and sigma^-1; errors name the dart as a pair
        num_darts = 2 * num_arcs
        sigma = [0] * num_darts
        sigma_inv = [-1] * num_darts  # -1 marks a dart not listed yet
        rows = []
        for v, rot in enumerate(rotations):
            row = []
            first = -1
            for d in rot:
                if type(d) is not int:
                    try:
                        a, e = d
                    except (TypeError, ValueError):  # neither an int nor a pair, such as True or 1.0
                        raise NotBipartite(f"malformed dart {d!r}") from None
                    if type(a) is not int or e not in END or not (0 <= a < num_arcs):
                        raise NotBipartite(f"malformed dart {(a, e)!r}")
                    d = 2 * a + (e == "w")
                elif not (0 <= d < num_darts):
                    raise NotBipartite(f"malformed dart {_pair(d)!r}")
                if home[d] != v:
                    raise NotBipartite(f"dart {_pair(d)!r} listed at the wrong vertex")
                if sigma_inv[d] >= 0:
                    raise NotBipartite(f"dart {_pair(d)!r} appears twice")
                if first < 0:  # the first dart is its own neighbour until the row closes
                    first = prev = d
                sigma[prev] = d
                sigma_inv[d] = prev
                prev = d
                row.append(d)
            if first < 0:
                raise Disconnected(f"vertex {v} is isolated")
            sigma[prev] = first
            sigma_inv[first] = prev
            rows.append(tuple(row))
        if -1 in sigma_inv:
            raise NotBipartite("some arc-end is missing from the rotation system")

        # connectivity: a union-find over the vertices, joined along the arcs
        if not n:
            raise Disconnected("empty graph")
        root = list(range(n))
        parts = n
        for b, w in arcs:
            while root[b] != b:
                root[b] = b = root[root[b]]
            while root[w] != w:
                root[w] = w = root[root[w]]
            if b != w:
                root[b] = w
                parts -= 1
        if parts != 1:
            raise Disconnected("graph is not connected")

        faces, face_of_dart = _trace_faces(sigma_inv)
        degenerate = False
        for walk in faces:
            deg = len(walk)
            if deg % 2 != 0:
                raise OddFaceDegree(f"face of odd degree {deg}")
            if deg < 4:
                if not _allow_degenerate:
                    raise OddFaceDegree(f"face of degree {deg} < 4")
                degenerate = True
        euler = n - num_arcs + len(faces)
        if euler % 2 != 0 or euler > 2:
            raise NonIntegerGenus(f"Euler count {euler} is not 2 - 2g")

        self.colors = colors
        self.arcs = arcs
        # each walk starts at its least dart, the face's canonical key, and
        # the walks come in key order (see _trace_faces)
        self.faces = faces
        self.face_keys = tuple(walk[0] for walk in faces)
        self.face_of_dart = face_of_dart
        self.darts = tuple(rows)
        self.sigma = sigma
        self.sigma_inv = sigma_inv
        self.genus = (2 - euler) // 2
        self.order_vector = tuple(sorted(len(w) - 2 for w in faces))
        self.degenerate = degenerate

    # -- basic queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.colors)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def rotations(self):
        """Each vertex's rotation in (arc, end) pairs, written from ``darts``."""
        return tuple([tuple([(d >> 1, END[d & 1]) for d in row]) for row in self.darts])

    def degree(self, v: int) -> int:
        return len(self.darts[v])

    def face_degree(self, f: int) -> int:
        return len(self.faces[f])

    def vertex_of_dart(self, d: int) -> int:
        return self.arcs[d >> 1][d & 1]

    def arcs_at(self, v: int):
        return [d >> 1 for d in self.darts[v]]

    def face_left(self, arc: int) -> int:
        """Face on the left of the arc directed black -> white."""
        return self.face_of_dart[2 * arc]

    def face_right(self, arc: int) -> int:
        return self.face_of_dart[2 * arc + 1]

    # -- equivalence ---------------------------------------------------------

    def canonical_form(self, arc_labels=None, face_labels=None):
        """Canonical invariant under color- and rotation-preserving relabeling.

        ``arc_labels[arc]`` and ``face_labels[face]`` (0 when not given)
        attach data that the isomorphism must preserve.  Darts are keyed by
        (arc label, face label, d & 1, vertex degree, face degree), and the
        class of least (size, key) gives the roots.  From a root, the darts
        are numbered breadth-first along sigma and alpha; the code is the
        flat tuple of the sigma-images, the alpha-images and the keys in
        number order, ordered by each dart's two images in turn, then the
        keys.  The form is the least code; a root stops at its first image
        above the best code's.  A root that ties the best to the end gives
        an automorphism, whose darts are joined in a union-find, and a root
        whose orbit holds a coded root is skipped (McKay and Piperno's
        pruning).  Mirror images stay distinct.
        """
        succ = self.sigma
        n = len(succ)
        arc_labels = (0,) * len(self.arcs) if arc_labels is None else arc_labels
        face_labels = (0,) * len(self.faces) if face_labels is None else face_labels
        degree = [len(rot) for rot in self.darts]
        vertex_degree = [degree[v] for arc in self.arcs for v in arc]
        face_degree = [len(walk) for walk in self.faces]
        keys = [
            (arc_labels[d >> 1], face_labels[f], d & 1, vertex_degree[d], face_degree[f])
            for d, f in enumerate(self.face_of_dart)
        ]
        least = min(keys)
        if keys.count(least) == 1:  # a class of size 1 is the least (size, key) class
            roots = [keys.index(least)]
        else:
            _, least = min((size, key) for key, size in Counter(keys).items())
            roots = [d for d, key in enumerate(keys) if key == least]
        parent = list(range(n))  # union-find over the darts along the automorphisms found
        coded = [False] * n  # per union-find root: its orbit holds a coded root
        best = None
        for root in roots:
            r = root
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if coded[r]:
                continue
            coded[r] = True
            num = [-1] * n
            num[root] = 0
            order = [root]
            tied = best is not None
            for i, d in enumerate(order):
                s = succ[d]
                if num[s] < 0:
                    num[s] = len(order)
                    order.append(s)
                t = d ^ 1
                if num[t] < 0:
                    num[t] = len(order)
                    order.append(t)
                if tied and (num[s] != best[i] or num[t] != best[n + i]):
                    if (num[s], num[t]) > (best[i], best[n + i]):
                        break
                    tied = False
            else:
                code = [num[succ[d]] for d in order] + [num[d ^ 1] for d in order]
                code += [keys[d] for d in order]
                if not tied or code < best:
                    best, best_order = code, order
                elif code == best:
                    for a, b in zip(best_order, order):
                        while parent[a] != a:
                            parent[a] = a = parent[parent[a]]
                        while parent[b] != b:
                            parent[b] = b = parent[parent[b]]
                        if a != b:
                            parent[a] = b
                            coded[b] = coded[b] or coded[a]
        return tuple(best)


# -- internals ---------------------------------------------------------------


def _trace_faces(sigma_inv):
    """Face walks d -> sigma_inv[d ^ 1] and the face index of each dart.

    Each walk starts at its first unvisited dart in increasing order.  A
    walk's other darts were all unvisited when it started, so each walk
    starts at its least dart, and the walks come in the order of those darts.
    """
    face_of_dart = [-1] * len(sigma_inv)
    walks = []
    for d0 in range(len(sigma_inv)):
        if face_of_dart[d0] >= 0:
            continue
        f = len(walks)
        walk = []
        d = d0
        while face_of_dart[d] < 0:
            face_of_dart[d] = f
            walk.append(d)
            d = sigma_inv[d ^ 1]
        walks.append(tuple(walk))
    return tuple(walks), face_of_dart


# -- mutable construction ----------------------------------------------------


class MapBuilder:
    """The face surgery of ``build_surface``: diagonals and leaves spliced in
    O(1) into sigma^-1, a flat list over the int darts as in the map, with each
    vertex's ``first`` dart; a face walk follows d -> ``sigma_inv[d ^ 1]``.
    """

    def __init__(self, colors=(), arcs=(), rotations=()):
        self.colors = list(colors)
        self.arcs = list(arcs)
        sigma_inv = self.sigma_inv = [0] * (2 * len(self.arcs))
        listed = sorted(d for row in rotations for d in row)
        if listed != list(range(len(sigma_inv))) or not all(rotations):
            raise NotBipartite("the rotation rows do not list each dart once, in non-empty rows")
        for row in rotations:
            for k, d in enumerate(row):
                sigma_inv[d] = row[k - 1]
        self.first = [row[0] for row in rotations]

    def vertex_of_dart(self, d: int) -> int:
        return self.arcs[d >> 1][d & 1]

    def face_walk_of_dart(self, dart: int):
        """Boundary walk of the face on the left of ``dart``, from ``dart``."""
        sigma_inv = self.sigma_inv
        if type(dart) is not int or not 0 <= dart < len(sigma_inv):
            raise NotBipartite(f"malformed dart {dart!r}")
        walk, d = [dart], dart
        while (d := sigma_inv[d ^ 1]) != dart:
            walk.append(d)
        return tuple(walk)

    def _insert_before(self, v: int, anchor: int, new: int):
        self.sigma_inv[new], self.sigma_inv[anchor] = self.sigma_inv[anchor], new
        if self.first[v] == anchor:  # new goes first, as a list insert puts it
            self.first[v] = new

    def add_arc_in_face(self, walk, i: int, j: int) -> int:
        """Add an arc between corner ``i`` and corner ``j`` of a face walk.

        Corner ``t`` sits at the head of side ``walk[t]``.  The two corner
        vertices must carry opposite colors; the face splits in two.
        """
        u = self.vertex_of_dart(walk[i] ^ 1)
        w = self.vertex_of_dart(walk[j] ^ 1)
        if self.colors[u] == self.colors[w]:
            raise NotBipartite("diagonal endpoints have equal colors")
        if self.colors[u] == WHITE:
            u, w, i, j = w, u, j, i
        arc = len(self.arcs)
        self.arcs.append((u, w))
        self.sigma_inv += (0, 0)  # both entries are set by the splices
        self._insert_before(u, walk[i] ^ 1, 2 * arc)
        self._insert_before(w, walk[j] ^ 1, 2 * arc + 1)
        return arc

    def add_leaf_in_face(self, walk, i: int, leaf_color: str) -> tuple[int, int]:
        """Attach a new degree-1 vertex by a self-folded arc at corner ``i``.

        Returns (new vertex id, new arc id); the face degree grows by 2.
        """
        u = self.vertex_of_dart(walk[i] ^ 1)
        if self.colors[u] == leaf_color:
            raise NotBipartite("leaf color equals its anchor color")
        z, arc = len(self.colors), len(self.arcs)
        self.colors.append(leaf_color)
        leaf = 2 * arc + (leaf_color == WHITE)  # the new arc's dart at z, its whole row
        self.arcs.append((u, z) if leaf & 1 else (z, u))
        self.sigma_inv += (leaf, leaf)  # the entry of leaf ^ 1 is set by the splice
        self.first.append(leaf)
        self._insert_before(u, walk[i] ^ 1, leaf ^ 1)
        return z, arc

    def freeze(self) -> MixedAngulation:
        rows, sigma_inv = [], self.sigma_inv
        for f in self.first:  # a row, read along sigma^-1 from the dart before f, then reversed
            row = [d := sigma_inv[f]]
            while d != f:
                row.append(d := sigma_inv[d])
            rows.append(row[::-1])
        return MixedAngulation(self.colors, self.arcs, rows)
