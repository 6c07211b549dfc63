"""Embedded bi-colored graphs on closed oriented surfaces.

Every arc joins a black vertex (curvature maximum) to a white vertex
(minimum), so an arc-end is written as a dart ``(arc_id, "b")`` or
``(arc_id, "w")``.  The map is the pair of dart permutations of Lando and
Zvonkin: the rotation sigma sends a dart to the next dart counterclockwise
at its vertex, and the involution alpha = ``opposite`` swaps the two ends of
an arc.  ``rotations`` lists the orbits of sigma, one cyclic order per
vertex.  Faces are the orbits of sigma^-1 o alpha, which traverse each face
boundary with the face on the left; genus comes from the Euler count.  A
mixed-angulation additionally requires every face degree to be even and at
least 4.  Two maps are isomorphic when a dart bijection commutes with sigma
and alpha and keeps the labels; the canonical form is the least
dart-numbering code over the roots of the least class of an isomorphism
invariant (label, vertex degree, face degree), each code built with an
early stop against the best so far.
"""
from __future__ import annotations

from collections import deque

from .errors import (
    Disconnected,
    NonIntegerGenus,
    NotBipartite,
    OddFaceDegree,
)

BLACK = "black"
WHITE = "white"

# A dart is (arc id, end) with end "b" at the black vertex, "w" at the white.
Dart = tuple[int, str]


def opposite(dart: Dart) -> Dart:
    arc, end = dart
    return (arc, "w" if end == "b" else "b")


class MixedAngulation:
    """Validated bi-colored embedded graph with derived face data.

    Instances are immutable; all surgery happens on :class:`MapBuilder` and
    produces fresh objects.
    """

    __slots__ = (
        "colors",
        "arcs",
        "rotations",
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
        arcs = tuple((int(b), int(w)) for b, w in arcs)
        rotations = tuple(tuple((int(a), e) for a, e in rot) for rot in rotations)
        _check_structure(colors, arcs, rotations)
        _check_connected(colors, arcs)
        sigma, sigma_inv = _rotation_maps(rotations)
        faces = _face_orbits(len(arcs), sigma_inv)
        degenerate = False
        for walk in faces:
            deg = len(walk)
            if deg % 2 != 0:
                raise OddFaceDegree(f"face of odd degree {deg}")
            if deg < 4:
                if not _allow_degenerate:
                    raise OddFaceDegree(f"face of degree {deg} < 4")
                degenerate = True
        euler = len(colors) - len(arcs) + len(faces)
        if euler % 2 != 0 or euler > 2:
            raise NonIntegerGenus(f"Euler count {euler} is not 2 - 2g")

        self.colors = colors
        self.arcs = arcs
        # each walk starts at its minimal dart, the face's canonical key, and
        # the walks come in key order (see _face_orbits)
        self.faces = tuple(faces)
        self.face_keys = tuple(walk[0] for walk in faces)
        self.face_of_dart = {
            d: i for i, walk in enumerate(self.faces) for d in walk
        }
        self.rotations = rotations
        self.sigma = sigma
        self.sigma_inv = sigma_inv
        self.genus = (2 - euler) // 2
        self.order_vector = tuple(sorted(len(w) - 2 for w in self.faces))
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

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def face_degree(self, f: int) -> int:
        return len(self.faces[f])

    def vertex_of_dart(self, dart: Dart) -> int:
        arc, end = dart
        b, w = self.arcs[arc]
        return b if end == "b" else w

    def arcs_at(self, v: int):
        return [a for a, _ in self.rotations[v]]

    def face_left(self, arc: int) -> int:
        """Face on the left of the arc directed black -> white."""
        return self.face_of_dart[(arc, "b")]

    def face_right(self, arc: int) -> int:
        return self.face_of_dart[(arc, "w")]

    def rotation_next(self, dart: Dart) -> Dart:
        return self.sigma[dart]

    def rotation_prev(self, dart: Dart) -> Dart:
        return self.sigma_inv[dart]

    # -- equivalence ---------------------------------------------------------

    def canonical_form(self, arc_labels=None, face_labels=None):
        """Canonical invariant under color- and rotation-preserving relabeling.

        ``arc_labels[arc]`` and ``face_labels[face]`` may attach data
        (weights, levels) that the isomorphism must preserve.  From a root
        dart, the darts are numbered breadth-first along sigma and alpha;
        the code lists, in number order, each dart's label (end, arc label,
        label of its face) with the numbers of its sigma- and alpha-images.
        Only roots of the least invariant class are tried: darts are keyed
        by (label, degree of their vertex, degree of their face), which
        every isomorphism keeps, and the class of least (size, key) gives
        the roots.  The form is the least code over those roots; a root is
        dropped at the first item that exceeds the best code's item at the
        same position.  Only orientation-preserving bijections are
        considered; mirror images stay distinct.
        """
        # dart (a, e) is 2a for e = "b" and 2a + 1 for e = "w", so alpha is d ^ 1
        n = 2 * len(self.arcs)
        succ = [0] * n
        vertex_degree = [0] * n
        for rot in self.rotations:
            prev = 2 * rot[-1][0] + (rot[-1][1] == "w")
            for a, e in rot:
                d = 2 * a + (e == "w")
                succ[prev] = d
                vertex_degree[d] = len(rot)
                prev = d
        labels = [None] * n
        face_degree = [0] * n
        for f, walk in enumerate(self.faces):
            for a, e in walk:
                label = (e,)
                if arc_labels is not None:
                    label += (arc_labels[a],)
                if face_labels is not None:
                    label += (face_labels[f],)
                d = 2 * a + (e == "w")
                labels[d] = label
                face_degree[d] = len(walk)
        classes = {}
        for d in range(n):
            classes.setdefault((labels[d], vertex_degree[d], face_degree[d]), []).append(d)
        _, roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))
        best = None
        for root in roots:
            num = [-1] * n
            num[root] = 0
            order = [root]
            code = []
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
                item = (labels[d], num[s], num[t])
                if tied and item != best[i]:
                    if item > best[i]:
                        break
                    tied = False
                code.append(item)
            else:
                best = code
        return tuple(best)

    def is_isomorphic(self, other: "MixedAngulation") -> bool:
        return self.canonical_form() == other.canonical_form()


# -- internals ---------------------------------------------------------------


def _check_structure(colors, arcs, rotations):
    n = len(colors)
    for c in colors:
        if c not in (BLACK, WHITE):
            raise NotBipartite(f"unknown color {c!r}")
    if len(rotations) != n:
        raise NotBipartite("rotation table does not match the vertex set")
    for a, (b, w) in enumerate(arcs):
        if not (0 <= b < n and 0 <= w < n):
            raise NotBipartite(f"arc {a} has a dangling end")
        if colors[b] != BLACK or colors[w] != WHITE:
            raise NotBipartite(f"arc {a} does not join black to white")
    seen = set()
    for v, rot in enumerate(rotations):
        if len(rot) < 1:
            raise Disconnected(f"vertex {v} is isolated")
        for dart in rot:
            arc, end = dart
            if end not in ("b", "w") or not (0 <= arc < len(arcs)):
                raise NotBipartite(f"malformed dart {dart!r}")
            home = arcs[arc][0] if end == "b" else arcs[arc][1]
            if home != v:
                raise NotBipartite(f"dart {dart!r} listed at the wrong vertex")
            if dart in seen:
                raise NotBipartite(f"dart {dart!r} appears twice")
            seen.add(dart)
    if len(seen) != 2 * len(arcs):
        raise NotBipartite("some arc-end is missing from the rotation system")


def _check_connected(colors, arcs):
    if not colors:
        raise Disconnected("empty graph")
    adj = [[] for _ in colors]
    for b, w in arcs:
        adj[b].append(w)
        adj[w].append(b)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    if len(seen) != len(colors):
        raise Disconnected("graph is not connected")


def _rotation_maps(rotations):
    """sigma and sigma^-1 as dart -> dart maps, in one pass over the rotations."""
    sigma = {}
    sigma_inv = {}
    for rot in rotations:
        prev = rot[-1] if rot else None
        for d in rot:
            sigma[prev] = d
            sigma_inv[d] = prev
            prev = d
    return sigma, sigma_inv


def _face_orbits(num_arcs, sigma_inv):
    """Face walks d -> sigma^-1(opposite(d)), each from its first unvisited
    dart in (arc, end) order.  A walk's other darts were all unvisited when
    it started, so each walk starts at its least dart, and the walks come in
    the order of those darts."""
    walks = []
    visited = set()
    for a in range(num_arcs):
        for end in ("b", "w"):
            d0 = (a, end)
            if d0 in visited:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                visited.add(d)
                d = sigma_inv[opposite(d)]
                if d == d0:
                    break
            walks.append(tuple(walk))
    return walks


# -- mutable construction ----------------------------------------------------


class MapBuilder:
    """Mutable rotation system used by the constructive procedures.

    Face surgery keeps the rotation system consistent; faces are re-traced on
    demand.  ``freeze`` validates and returns the immutable result.
    """

    def __init__(self, colors=(), arcs=(), rotations=()):
        self.colors = list(colors)
        self.arcs = [list(a) for a in arcs]
        self.rot = [list(r) for r in rotations]

    @classmethod
    def from_angulation(cls, ma: MixedAngulation) -> "MapBuilder":
        return cls(ma.colors, ma.arcs, ma.rotations)

    def add_vertex(self, color: str) -> int:
        self.colors.append(color)
        self.rot.append([])
        return len(self.colors) - 1

    def vertex_of_dart(self, dart: Dart) -> int:
        arc, end = dart
        return self.arcs[arc][0] if end == "b" else self.arcs[arc][1]

    def trace(self):
        """Every face walk, as :class:`MixedAngulation` traces them."""
        return _face_orbits(len(self.arcs), _rotation_maps(self.rot)[1])

    def face_walk_of_dart(self, dart: Dart):
        """Boundary walk of the face on the left of ``dart``, from ``dart``.

        sigma^-1 of a dart is the entry before it in its vertex's rotation
        list, so the walk reads only the rotations of the vertices it visits.
        """
        walk = []
        d = dart
        while True:
            walk.append(d)
            d = opposite(d)
            rot = self.rot[self.vertex_of_dart(d)]
            d = rot[rot.index(d) - 1]
            if d == dart:
                return tuple(walk)

    def _insert_before(self, v: int, anchor: Dart, new: Dart):
        self.rot[v].insert(self.rot[v].index(anchor), new)

    def add_arc_in_face(self, walk, i: int, j: int) -> int:
        """Add an arc between corner ``i`` and corner ``j`` of a face walk.

        Corner ``t`` sits at the head of side ``walk[t]``.  The two corner
        vertices must carry opposite colors; the face splits in two.
        """
        u = self.vertex_of_dart(opposite(walk[i]))
        w = self.vertex_of_dart(opposite(walk[j]))
        if self.colors[u] == self.colors[w]:
            raise NotBipartite("diagonal endpoints have equal colors")
        if self.colors[u] == WHITE:
            u, w, i, j = w, u, j, i
        arc = len(self.arcs)
        self.arcs.append([u, w])
        self._insert_before(u, opposite(walk[i]), (arc, "b"))
        self._insert_before(w, opposite(walk[j]), (arc, "w"))
        return arc

    def add_leaf_in_face(self, walk, i: int, leaf_color: str) -> tuple[int, int]:
        """Attach a new degree-1 vertex by a self-folded arc at corner ``i``.

        Returns (new vertex id, new arc id); the face degree grows by 2.
        """
        u = self.vertex_of_dart(opposite(walk[i]))
        if self.colors[u] == leaf_color:
            raise NotBipartite("leaf color equals its anchor color")
        z = self.add_vertex(leaf_color)
        arc = len(self.arcs)
        if leaf_color == BLACK:
            self.arcs.append([z, u])
            self._insert_before(u, opposite(walk[i]), (arc, "w"))
            self.rot[z] = [(arc, "b")]
        else:
            self.arcs.append([u, z])
            self._insert_before(u, opposite(walk[i]), (arc, "b"))
            self.rot[z] = [(arc, "w")]
        return z, arc

    def freeze(self, *, allow_degenerate=False) -> MixedAngulation:
        return MixedAngulation(
            self.colors, self.arcs, self.rot, _allow_degenerate=allow_degenerate
        )
