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
dart-numbering code over all root darts.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Vertex:
    id: int
    color: str


@dataclass(frozen=True)
class Arc:
    id: int
    black: int
    white: int


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
        # faces sorted by canonical key = minimal dart on the walk
        keyed = sorted((min(walk), walk) for walk in faces)
        self.face_keys = tuple(k for k, _ in keyed)
        self.faces = tuple(w for _, w in keyed)
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

    def face_items(self):
        """(canonical key, degree, boundary walk) per face, key-sorted."""
        return [
            (self.face_keys[i], len(self.faces[i]), self.faces[i])
            for i in range(len(self.faces))
        ]

    def vertices(self):
        return [Vertex(i, c) for i, c in enumerate(self.colors)]

    def arc_items(self):
        return [Arc(i, b, w) for i, (b, w) in enumerate(self.arcs)]

    # -- equivalence ---------------------------------------------------------

    def canonical_form(self, arc_labels=None, face_labels=None):
        """Canonical invariant under color- and rotation-preserving relabeling.

        ``arc_labels[arc]`` and ``face_labels[face]`` may attach data
        (weights, levels) that the isomorphism must preserve.  From each
        root dart, the darts are numbered breadth-first along sigma and
        alpha; the code lists, in number order, each dart's label (end, arc
        label, label of its face) with the numbers of its sigma- and
        alpha-images.  The form is the least code over all roots.  Only
        orientation-preserving bijections are considered; mirror images stay
        distinct.
        """
        # dart (a, e) is 2a for e = "b" and 2a + 1 for e = "w", so alpha is d ^ 1
        n = 2 * len(self.arcs)
        darts = [(d >> 1, "w" if d & 1 else "b") for d in range(n)]
        succ = [2 * a + (e == "w") for a, e in (self.sigma[d] for d in darts)]
        labels = []
        for d in darts:
            label = (d[1],)
            if arc_labels is not None:
                label += (arc_labels[d[0]],)
            if face_labels is not None:
                label += (face_labels[self.face_of_dart[d]],)
            labels.append(label)
        best = None
        for root in range(n):
            num = [-1] * n
            num[root] = 0
            order = [root]
            for d in order:
                for e in (succ[d], d ^ 1):
                    if num[e] < 0:
                        num[e] = len(order)
                        order.append(e)
            code = tuple((labels[d], num[succ[d]], num[d ^ 1]) for d in order)
            if best is None or code < best:
                best = code
        return best

    def is_isomorphic(self, other: "MixedAngulation") -> bool:
        return self.canonical_form() == other.canonical_form()


def build_angulation(vertices, arcs, rotations) -> MixedAngulation:
    """Validate raw components and return the angulation.

    ``vertices`` is a sequence of colors (or ``Vertex``), ``arcs`` a sequence
    of (black id, white id) pairs, ``rotations`` the per-vertex CCW dart
    cycles.
    """
    colors = [v.color if isinstance(v, Vertex) else v for v in vertices]
    pairs = [(a.black, a.white) if isinstance(a, Arc) else tuple(a) for a in arcs]
    return MixedAngulation(colors, pairs, rotations)


def faces(ma: MixedAngulation):
    """(face key, degree, boundary walk) triples; see ``face_items``."""
    return ma.face_items()


def genus(ma: MixedAngulation) -> int:
    return ma.genus


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


def trace_faces(arcs, rotations):
    """Orbits of sigma^-1 o alpha over all darts."""
    return _face_orbits(len(arcs), _rotation_maps(rotations)[1])


def _face_orbits(num_arcs, sigma_inv):
    """Face walks d -> sigma^-1(opposite(d)), each from its first unvisited
    dart in (arc, end) order."""
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
        return trace_faces(self.arcs, self.rot)

    def face_walk_of_dart(self, dart: Dart):
        for walk in self.trace():
            if dart in walk:
                return walk
        raise KeyError(dart)

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
