import ast
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

import hcmu

from conftest import make_calabi, make_two_level
from hcmu.angulation import BLACK, WHITE, MixedAngulation
from hcmu.builders import build_one_cone, build_surface
from hcmu.constraints import AngleVector
from hcmu.dataset import (
    DataSet,
    ExtremalCensus,
    census,
    realized_angle_vector,
    realized_prescription,
    validate_dataset,
)
from hcmu.errors import CensusInconsistent, HcmuError, ValidationError
from test_angulation import relabeled
from test_balance import fixture_outputs, ladder_outputs, one_cone_outputs, random_systems


# -- oracle: one cone point per vertex and per face -----------------------------


@dataclass(frozen=True)
class ConePoint:
    kind: str  # "maximum" | "minimum" | "saddle"
    angle: F
    carrier: int  # vertex id, or a saddle's face key (its face's least int dart)
    smooth: bool


def cone_points(ds):
    """The vertex angles off the integer grid and each saddle's angle, half
    its face degree; smooth means angle exactly 1."""
    ma = ds.angulation
    out = []
    for v, ang in enumerate(ds.vertex_angles()):
        kind = "maximum" if ma.colors[v] == BLACK else "minimum"
        out.append(ConePoint(kind, ang, v, ang == 1))
    for f in range(ma.num_faces):
        out.append(ConePoint("saddle", ds.face_angle(f), ma.face_keys[f], False))
    return out


def test_calabi_is_valid(calabi):
    assert validate_dataset(calabi) == []


def test_ratio_one_rejected(calabi):
    ma = calabi.angulation
    with pytest.raises(HcmuError, match="BadRatio"):
        DataSet(ma, 2.0, F(1), calabi.weights, calabi.face_levels)


def test_zero_weight_rejected(calabi):
    ma = calabi.angulation
    weights = list(calabi.weights)
    weights[0] = F(0)
    with pytest.raises(HcmuError, match="BadWeight") as err:
        DataSet(ma, 2.0, F(2, 3), weights, calabi.face_levels)
    assert isinstance(err.value, ValidationError)
    assert err.value.pointer == "/BadWeight"


@pytest.mark.parametrize("k0", [0.0, -1.0, float("nan"), float("inf")])
def test_k0_outside_the_positive_finite_floats_rejected(calabi, k0):
    # a saved document must hold a finite k0, and the area scales with 1/K0
    for make in (
        lambda: DataSet(calabi.angulation, k0, F(2, 3), calabi.weights, calabi.face_levels),
        lambda: build_surface(0, [2, 3], {1}, k0=k0),
    ):
        with pytest.raises(ValidationError) as err:
            make()
        assert err.value.pointer == "/BadK0"
        assert f"K0 = {k0} must be finite and > 0" in str(err.value)


def test_level_outside_interval_rejected(calabi):
    ma = calabi.angulation
    with pytest.raises(HcmuError, match="BadLevel"):
        DataSet(ma, 2.0, F(2, 3), calabi.weights, [F(1, 2), F(1, 2), F(1)])


def test_calabi_cone_points(calabi):
    pts = cone_points(calabi)
    maxima = [c for c in pts if c.kind == "maximum"]
    minima = [c for c in pts if c.kind == "minimum"]
    saddles = [c for c in pts if c.kind == "saddle"]
    assert len(maxima) == 3 and all(c.angle == 1 and c.smooth for c in maxima)
    assert len(minima) == 2 and all(c.angle == 1 and c.smooth for c in minima)
    assert len(saddles) == 3 and all(c.angle == 2 for c in saddles)


def test_calabi_census(calabi):
    cs = census(calabi)
    assert cs.as_tuple() == (3, 2, 3, 2, 5, 6)
    assert cs.m == 5


def test_one_cone_census():
    ds = build_one_cone(0, 7, 3)
    cs = census(ds)
    assert (cs.a, cs.b) == (10, 9)
    assert realized_angle_vector(ds) == [("saddle", F(9))]


def test_cusp_dataset_white_angles_vanish():
    ds = build_surface(0, [3, 0], {1})
    for c in cone_points(ds):
        if c.kind == "minimum":
            assert c.angle == 0 and not c.smooth


def test_realized_angles_two_level(two_level):
    assert realized_angle_vector(two_level) == [
        ("maximum", F(3, 2)),
        ("minimum", F(1, 4)),
        ("saddle", F(2)),
        ("saddle", F(2)),
    ]


def test_realized_prescription_two_level(two_level):
    g, alpha, Z = realized_prescription(two_level)
    assert g == 0
    assert alpha.entries == (2, 2, F(3, 2), F(1, 4))
    assert Z == {1, 2}


def test_angle_bookkeeping_identity():
    for ds in (make_calabi(), make_two_level(), build_surface(0, [2, 3], {1})):
        ma = ds.angulation
        black_total = sum(
            ds.vertex_angle(v)
            for v in range(ma.num_vertices)
            if ma.colors[v] == BLACK
        )
        white_total = sum(
            ds.vertex_angle(v)
            for v in range(ma.num_vertices)
            if ma.colors[v] == WHITE
        )
        assert black_total * ds.ratio == white_total


def test_poincare_hopf_identity():
    for ds in (make_calabi(), make_two_level(), build_one_cone(1, 4, 3)):
        ma = ds.angulation
        total = sum(1 - F(ma.face_degree(f), 2) for f in range(ma.num_faces))
        total += ma.num_vertices
        assert total == 2 - 2 * ma.genus


def test_dataset_equality_via_canonical_form(calabi):
    other = make_calabi()
    assert calabi == other
    assert other == calabi
    bumped = DataSet(
        other.angulation, other.k0, other.ratio, other.weights,
        [F(1, 3), F(1, 2), F(1, 2)],
    )
    assert calabi != bumped


def test_dataset_computes_its_canonical_form_at_most_once(monkeypatch):
    ds = build_surface(1, [3, 2], {1, 2})
    ma, weights, levels = relabeled(ds.angulation, ds.weights, ds.face_levels, random.Random(3))
    copy = DataSet(ma, ds.k0, ds.ratio, weights, levels)
    calls = []
    form = MixedAngulation.canonical_form

    def counting(self, *args):
        calls.append(self)
        return form(self, *args)

    monkeypatch.setattr(MixedAngulation, "canonical_form", counting)
    assert len({ds, copy}) == 1
    assert ds == copy and copy == ds
    for x in (ds, copy):
        assert hash(x) == hash(x) == hash(copy)
    assert len(calls) == 2
    assert {id(m) for m in calls} == {id(ds.angulation), id(ma)}


def test_equality_keeps_the_grid_denominators(two_level):
    # within each pair the numerators agree; only dw or dl tells them apart
    ma, weights, levels = two_level.angulation, two_level.weights, two_level.face_levels
    assert sorted(levels) == [F(1, 3), F(2, 3)]

    def surface(weights, levels):
        return DataSet(ma, two_level.k0, two_level.ratio, weights, levels)

    pairs = [
        (surface([F(1, 3)] * 4, levels), surface([F(1, 6)] * 4, levels)),
        (surface(weights, levels), surface(weights, [s * F(3, 5) for s in levels])),
    ]
    rng = random.Random(5)
    for x, y in pairs:
        assert x.grid.weights == y.grid.weights and x.grid.levels == y.grid.levels
        assert (x.grid.dw, x.grid.dl) != (y.grid.dw, y.grid.dl)
        assert x != y and y != x
        assert len({x, y}) == 2
        for ds in (x, y):
            m, w, s = relabeled(ma, ds.weights, ds.face_levels, rng)
            copy = DataSet(m, ds.k0, ds.ratio, w, s)
            assert copy == ds and len({copy, ds, x, y}) == 2


HASHES = """
import sys
from hcmu.builders import build_surface
from hcmu.serialization import load
fixtures = sys.argv[1]
surfaces = [load(f"{fixtures}/calabi.json"), load(f"{fixtures}/two_level.json")]
surfaces.append(build_surface(1, [3, 2, 0], {1, 2}, k0=2.5))
print([hash(ds) for ds in surfaces])
"""


def test_hashes_are_the_same_in_every_process():
    # the form holds ints, the float K0 and the Fraction R, none of which
    # hashes through the per-process string hash seed
    src = str(Path(hcmu.__file__).resolve().parent.parent)
    fixtures = str(Path(__file__).resolve().parent.parent / "fixtures")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", HASHES, fixtures], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert len(set(ast.literal_eval(outputs[0]))) == 3


def test_a_cached_data_set_hashes_no_fraction(monkeypatch):
    ds = build_surface(1, [3, 2, F(1, 2), F(1, 3)], {1, 2})
    assert len({w.denominator for w in ds.weights}) > 1
    ds.canonical_form()
    calls = []
    fraction_hash = F.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counting)
    assert hash(F(1, 3)) and calls  # hash() sees the patch
    calls.clear()
    for _ in range(3):
        assert hash(ds) == hash(ds)
        assert ds in {ds}
    assert calls == []


def vertex_angle_corpus():
    """Builder outputs, the R = 0 cusp surface and deformed surfaces."""
    from test_deformation_stress import deformed_walk

    corpus = [
        make_calabi(),
        make_two_level(),
        build_surface(0, [3] * 11, range(1, 12)),
        build_surface(1, [3, 2, F(1, 2), F(1, 3)], {1, 2}),
        build_surface(1, [4, 0, 0], {1}),
        build_one_cone(2, 7, 3),
    ]
    for seed in range(5):
        corpus += deformed_walk(seed)
    return corpus


def per_vertex_angles(ds):
    return [ds.vertex_angle(v) for v in range(ds.angulation.num_vertices)]


def test_vertex_angles_match_the_per_vertex_sums():
    corpus = vertex_angle_corpus()
    for ds in corpus:
        assert ds.vertex_angles() == per_vertex_angles(ds)
    assert any(ds.ratio == 0 for ds in corpus)
    # several surfaces whose weights mix three or more denominators
    assert sum(len({w.denominator for w in ds.weights}) >= 3 for ds in corpus) >= 3


def test_census_and_prescription_do_not_depend_on_the_angle_pass(monkeypatch):
    corpus = vertex_angle_corpus()

    def summary():
        out = []
        for ds in corpus:
            g, alpha, Z = realized_prescription(ds)
            out.append((census(ds), g, alpha.entries, Z))
        return out

    fast = summary()
    monkeypatch.setattr(DataSet, "vertex_angles", per_vertex_angles)
    assert summary() == fast


# -- the integer census against the Fraction census -------------------------------


def fraction_cone_points(ds):
    """cone_points as it ran over Fraction: smooth means angle == 1."""
    ma = ds.angulation
    out = []
    for v in range(ma.num_vertices):
        ang = ds.vertex_angle(v)
        kind = "maximum" if ma.colors[v] == BLACK else "minimum"
        out.append(ConePoint(kind, ang, v, ang == 1))
    for f in range(ma.num_faces):
        out.append(ConePoint("saddle", F(ma.face_degree(f), 2), ma.face_keys[f], False))
    return out


def fraction_census(ds):
    ma = ds.angulation
    pts = fraction_cone_points(ds)
    maxima = [c for c in pts if c.kind == "maximum"]
    minima = [c for c in pts if c.kind == "minimum"]
    saddles = [c for c in pts if c.kind == "saddle"]
    m_plus = sum(1 for c in maxima if c.smooth)
    m_minus = sum(1 for c in minima if c.smooth)
    cs = ExtremalCensus(
        p=len(maxima),
        q=len(minima),
        m_plus=m_plus,
        m_minus=m_minus,
        a_plus=sum((c.angle for c in maxima if not c.smooth), F(0)),
        a_minus=sum((c.angle for c in minima if not c.smooth), F(0)),
        a=len(maxima) + len(minima),
        m=m_plus + m_minus,
        b=ma.num_arcs,
    )
    saddle_angle = sum((c.angle for c in saddles), F(0))
    total = len(saddles) - saddle_angle + cs.a
    if total != 2 - 2 * ma.genus:
        raise CensusInconsistent(f"index sum {total} != {2 - 2 * ma.genus}")
    if cs.b != saddle_angle:
        raise CensusInconsistent("arc count differs from total saddle angle")
    return cs


def fraction_angle_vector(ds):
    return sorted(
        ((c.kind, c.angle) for c in fraction_cone_points(ds) if not c.smooth),
        key=lambda t: (t[0], t[1]),
    )


def fraction_prescription(ds):
    """realized_prescription as it ran: a rescan of the slots per saddle."""
    pts = fraction_angle_vector(ds)
    alpha = AngleVector([ang for _, ang in pts])
    Z = []
    used = set()
    for ang in sorted((ang for kind, ang in pts if kind == "saddle"), reverse=True):
        for i in range(1, alpha.k + 1):
            if i not in used and alpha[i - 1] == ang:
                used.add(i)
                Z.append(i)
                break
        else:
            raise CensusInconsistent("saddle angle missing from prescription")
    return ds.angulation.genus, alpha, frozenset(Z)


def random_surfaces():
    """Data sets on the random maps of the balance tests, with their
    weights made positive and every face at level 1/2."""
    return [
        DataSet(ma, 1.0, ratio, [F(abs(w.numerator) + 1, w.denominator) for w in weights],
                [F(1, 2)] * ma.num_faces)
        for ma, ratio, weights, _ in random_systems()
    ]


def assert_counts_as_over_fractions(ds):
    assert cone_points(ds) == fraction_cone_points(ds)
    points = realized_angle_vector(ds)
    assert points == fraction_angle_vector(ds) and all(type(ang) is F for _, ang in points)
    cs = census(ds)
    assert cs == fraction_census(ds) and repr(cs) == repr(fraction_census(ds))
    assert type(cs.a_plus) is F and type(cs.a_minus) is F
    g, alpha, Z = realized_prescription(ds)
    want = fraction_prescription(ds)
    assert (g, alpha, Z) == want and repr(alpha) == repr(want[1])
    assert all(type(x) is F for x in alpha)


def test_census_matches_the_fraction_census():
    # integer extremal angles that tie with saddle angles
    ties = [
        build_surface(0, [3, 3, 3], {1, 2}),
        build_surface(1, [2, 2, 3], {1, 3}),
        build_surface(0, [4, 4, 2, 2], {1, 3}),
    ]
    assert all(len(realized_prescription(ds)[2]) < realized_prescription(ds)[1].k for ds in ties)
    corpus = ties + fixture_outputs() + ladder_outputs() + one_cone_outputs() + vertex_angle_corpus()
    for ds in corpus:
        assert_counts_as_over_fractions(ds)
    assert any(census(ds).m_minus for ds in corpus)


def test_random_surfaces_count_as_over_fractions():
    surfaces = random_surfaces()
    assert any(ds.ratio == 0 for ds in surfaces)
    for ds in surfaces:
        assert_counts_as_over_fractions(ds)
