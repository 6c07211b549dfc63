"""Shared fixtures: the Calabi surface, the two-level twist fixture, and a
seeded generator of random connected bi-colored angulations."""
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hcmu.angulation import BLACK, WHITE, MixedAngulation
from hcmu.dataset import DataSet
from hcmu.errors import HcmuError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_calabi() -> DataSet:
    """Genus-zero surface with three 4*pi saddles: K_{3,2} on the sphere,
    constant weight 1/2, ratio 2/3, all five extremal points smooth."""
    colors = [BLACK] * 3 + [WHITE] * 2
    arcs = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    rot = [
        [(0, "b"), (1, "b")],
        [(2, "b"), (3, "b")],
        [(4, "b"), (5, "b")],
        [(0, "w"), (2, "w"), (4, "w")],
        [(5, "w"), (3, "w"), (1, "w")],
    ]
    ma = MixedAngulation(colors, arcs, rot)
    return DataSet(ma, 2.0, F(2, 3), [F(1, 2)] * 6, [F(1, 2)] * 3)


def make_two_level() -> DataSet:
    """Two saddles at different levels 1/3 and 2/3; four arcs, two of them
    self-folded.  The only circle at level 1/2 crosses every arc."""
    colors = [BLACK] * 2 + [WHITE] * 2
    arcs = [(0, 2), (1, 2), (0, 2), (0, 3)]
    rot = [
        [(0, "b"), (3, "b"), (2, "b")],
        [(1, "b")],
        [(0, "w"), (1, "w"), (2, "w")],
        [(3, "w")],
    ]
    ma = MixedAngulation(colors, arcs, rot)
    levels = {
        # int dart 2 is the black end of arc 1
        f: (F(1, 3) if 2 in ma.faces[f] else F(2, 3)) for f in range(2)
    }
    return DataSet(ma, 1.0, F(1, 2), [F(1, 2), F(1), F(1, 2), F(1, 2)], levels)


@pytest.fixture
def calabi():
    return make_calabi()


@pytest.fixture
def two_level():
    return make_two_level()


def random_bicolored_angulation(rng: random.Random, max_vertices=12):
    """Random valid connected angulation, by rejection over rotations."""
    while True:
        nb = rng.randint(1, max_vertices - 1)
        nw = rng.randint(1, max_vertices - nb)
        n = nb + nw
        # random bipartite spanning tree, then a few extra arcs
        arcs = []
        blacks_in, whites_in = [0], []
        pending = list(range(1, n))
        rng.shuffle(pending)
        from collections import deque

        queue = deque(pending)
        stall = 0
        while queue and stall <= len(queue):
            v = queue.popleft()
            pool = whites_in if v < nb else blacks_in
            if not pool:
                queue.append(v)
                stall += 1
                continue
            stall = 0
            u = rng.choice(pool)
            arcs.append((v, u) if v < nb else (u, v))
            (blacks_in if v < nb else whites_in).append(v)
        if queue:
            continue
        for _ in range(rng.randint(0, 4)):
            arcs.append((rng.randrange(nb), nb + rng.randrange(nw)))
        for _ in range(40):
            rot = [[] for _ in range(n)]
            darts = []
            for a, (b, w) in enumerate(arcs):
                darts.append(((a, "b"), b))
                darts.append(((a, "w"), w))
            rng.shuffle(darts)
            for dart, v in darts:
                rot[v].append(dart)
            try:
                return MixedAngulation(
                    [BLACK] * nb + [WHITE] * nw, arcs, rot
                )
            except HcmuError:
                continue
