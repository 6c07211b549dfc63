"""Randomized stress of the surgery code paths.

Random valid angulations with unit weights give integer-angle vertices, so
both twist (at arbitrary levels and circles) and split (at every black
vertex of degree >= 2) can be exercised far beyond the hand fixtures.
"""
import random
from fractions import Fraction as F

from conftest import random_bicolored_angulation
from hcmu.angulation import BLACK
from hcmu.dataset import DataSet, census, realized_angle_vector
from hcmu.deformations import circles_at_level, split, twist
from hcmu.dimension import dimension_crosscheck


def random_dataset(rng):
    ma = random_bicolored_angulation(rng, max_vertices=9)
    levels = []
    used = set()
    for _ in range(ma.num_faces):
        while True:
            s = F(rng.randint(1, 30), 31)
            if s not in used:
                used.add(s)
                levels.append(s)
                break
    return DataSet(ma, 1.0, F(1, 2), [F(1)] * ma.num_arcs, levels)


def deformed_walk(seed, steps=6):
    """A random surface and what alternating twists and splits make of it.

    Split offsets, new levels and twist shifts have unrelated denominators,
    so the later surfaces mix weight denominators.
    """
    rng = random.Random(seed)
    ds = random_dataset(rng)
    walk = [ds]
    for step in range(steps):
        ma = ds.angulation
        angles = ds.vertex_angles()
        splittable = [
            v for v in range(ma.num_vertices)
            if ma.colors[v] == BLACK and angles[v].denominator == 1 and angles[v] >= 2
        ]
        if step % 2 and splittable:
            ds = split(ds, rng.choice(splittable), F(rng.randint(1, 10), 11), F(rng.randint(1, 28), 29))
        else:
            c = F(rng.randint(1, 36), 37)
            if c in ds.face_levels:
                continue
            circles = circles_at_level(ds, c)
            i = rng.randrange(len(circles))
            out = twist(ds, c, i, circles[i].circumference * F(rng.randint(1, 12), 13))
            if not out.is_generic:
                continue
            ds = out.dataset
        walk.append(ds)
    return walk


def test_twist_stress():
    rng = random.Random(2718)
    generic = non_generic = 0
    for _ in range(60):
        ds = random_dataset(rng)
        for _ in range(4):
            c = F(rng.randint(1, 61), 62)
            if c in set(ds.face_levels):
                continue
            circles = circles_at_level(ds, c)
            idx = rng.randrange(len(circles))
            phi = circles[idx].circumference
            psi = F(rng.randint(0, 40), 41) * phi
            out = twist(ds, c, idx, psi)
            if not out.is_generic:
                non_generic += 1
                continue
            t = out.dataset
            generic += 1
            assert t.angulation.genus == ds.angulation.genus
            assert realized_angle_vector(t) == realized_angle_vector(ds)
            assert sorted(t.face_levels) == sorted(ds.face_levels)
            assert t.total_weight() == ds.total_weight()
            assert census(t).as_tuple() == census(ds).as_tuple()
            assert dimension_crosscheck(t) == dimension_crosscheck(ds)
    assert generic > 100


def test_twist_composition_stress():
    rng = random.Random(31415)
    done = 0
    while done < 15:
        ds = random_dataset(rng)
        c = F(rng.randint(1, 61), 62)
        if c in set(ds.face_levels):
            continue
        circles = circles_at_level(ds, c)
        if len(circles) != 1:
            continue  # single circle keeps the index stable after twisting
        phi = circles[0].circumference
        p1 = F(rng.randint(1, 12), 13) * phi
        p2 = F(rng.randint(1, 12), 13) * phi
        o1 = twist(ds, c, 0, p1)
        o12 = o1.is_generic and twist(o1.dataset, c, 0, p2)
        direct = twist(ds, c, 0, p1 + p2)
        if not (o1.is_generic and o12.is_generic and direct.is_generic):
            continue
        assert o12.dataset == direct.dataset
        done += 1


def test_split_stress():
    rng = random.Random(1618)
    done = 0
    for _ in range(60):
        ds = random_dataset(rng)
        ma = ds.angulation
        for v in range(ma.num_vertices):
            if ma.colors[v] != BLACK or ds.vertex_angle(v) < 2:
                continue
            alpha = int(ds.vertex_angle(v))
            offset = F(rng.randint(1, 12), 13)
            out = split(ds, v, offset, F(rng.randint(1, 8), 9))
            assert out.angulation.genus == ma.genus
            assert out.angulation.num_arcs == ma.num_arcs + alpha
            assert census(out).m == census(ds).m + alpha
            keep = [
                x for x in realized_angle_vector(ds)
                if x != ("maximum", F(alpha))
            ]
            after = realized_angle_vector(out)
            for item in keep:
                assert item in after
            assert ("saddle", F(alpha)) in after
            assert dimension_crosscheck(out) == dimension_crosscheck(ds) + 2
            done += 1
            break
    assert done >= 30


def test_trivial_circle_twists_are_isometries():
    # whenever one side of a circle is a saddle-free disk, any shift must
    # reproduce the same surface; this pins the whole surgery pipeline to a
    # known outcome on arbitrary topology
    from hcmu.deformations import twist_is_trivial

    rng = random.Random(577)
    done = 0
    for _ in range(40):
        ds = random_dataset(rng)
        for _ in range(3):
            c = F(rng.randint(1, 61), 62)
            if c in set(ds.face_levels):
                continue
            circles = circles_at_level(ds, c)
            for idx in range(len(circles)):
                if not twist_is_trivial(ds, c, idx):
                    continue
                psi = F(rng.randint(1, 18), 19) * circles[idx].circumference
                out = twist(ds, c, idx, psi)
                assert out.is_generic
                assert out.dataset == ds
                done += 1
    assert done >= 40


def test_twist_one_cone_surfaces():
    from hcmu.builders import build_one_cone

    for g, p, q in [(1, 4, 3), (2, 6, 2), (1, 6, 3)]:
        ds = build_one_cone(g, p, q)
        c = F(1, 3)  # default saddle level is 1/2
        circles = circles_at_level(ds, c)
        hits = 0
        for idx in range(len(circles)):
            phi = circles[idx].circumference
            out = twist(ds, c, idx, F(3, 7) * phi)
            if not out.is_generic:
                continue
            t = out.dataset
            assert t.angulation.genus == g
            assert census(t).as_tuple() == census(ds).as_tuple()
            assert dimension_crosscheck(t) == dimension_crosscheck(ds)
            hits += 1
        assert hits >= 1


def test_split_white_stress():
    # with unit weights and R = 1/2, every white vertex of even degree >= 4
    # carries an integer angle deg/2 >= 2 and can be split
    rng = random.Random(271)
    done = 0
    for _ in range(120):
        ds = random_dataset(rng)
        ma = ds.angulation
        for v in range(ma.num_vertices):
            if ma.colors[v] == BLACK:
                continue
            angle = ds.vertex_angle(v)
            if angle.denominator != 1 or angle < 2:
                continue
            alpha = int(angle)
            out = split(ds, v, F(rng.randint(1, 12), 13), F(rng.randint(1, 8), 9))
            assert out.angulation.genus == ma.genus
            assert out.angulation.num_arcs == ma.num_arcs + alpha
            assert census(out).m == census(ds).m + alpha
            assert ("saddle", F(alpha)) in realized_angle_vector(out)
            assert dimension_crosscheck(out) == dimension_crosscheck(ds) + 2
            # new smooth minima carry incident weight 1/R each
            news = range(ma.num_vertices - 1, out.angulation.num_vertices)
            for u in news:
                assert sum(out.weights[d >> 1] for d in out.angulation.darts[u]) == 1 / ds.ratio
            done += 1
            break
    assert done >= 15
