"""The four seeded workloads of the benchmark.

Each workload is a closed loop with one client: the next op is generated only
after the previous one returned.  All inputs derive from the seed; ``hcmu``
receives only the generated inputs.  Ops come in rounds of fixed composition
(only the sizes inside a narrow band, the order and the continuous parameters
depend on the seed), and a run always ends on a round boundary, so every run
measures the same mix of op classes whatever its seed.

A workload class takes (seed, workdir) and builds its set-up state,
``ops()`` yields an endless stream of ``Op`` from a fresh generator seeded
the same way each time, and ``close()`` removes the files it wrote.  Library
functions are always called through their module (``balance.solve_balance``,
not a bound name), so that the traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from hcmu import angulation, balance, builders, cli, constraints, dataset, deformations, geometry
from hcmu import serialization
from hcmu.errors import CutOnBoundary

import oracles
from oracles import BLACK, expect

dimension = importlib.import_module("hcmu.dimension")  # the package re-exports a function of that name


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` judges its output afterwards.

    ``check`` returns the exact bytes that enter the output digest and the
    counts the op adds, or raises ``oracles.CheckFailed``.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _rng(name, seed, purpose):
    return random.Random(f"{name}:{seed}:{purpose}")


def _level(rng, taken, denominator):
    """A rational level in (0, 1) distinct from every level in ``taken``."""
    while True:
        s = F(rng.randint(1, denominator - 1), denominator)
        if s not in taken:
            return s


def _k0(rng):
    return round(rng.uniform(0.25, 8.0), 3)


def random_prescription(rng, genus, integer_extremal, saddle_count=(1, 3), arcs=None):
    """(g, alpha, Z) in convention order that the closed conditions accept.

    ``genus`` and ``saddle_count`` are inclusive ranges.  ``integer_extremal``
    forces at least one integer extremal angle, which makes the surface
    splittable.  ``arcs`` fixes the total saddle angle, which is the arc count
    of every realization, in place of a saddle count.
    """
    while True:
        g = rng.randint(*genus)
        if arcs is None:
            saddles = [rng.randint(2, 3 + g) for _ in range(rng.randint(*saddle_count))]
        else:
            saddles = []
            while sum(saddles) < arcs:
                saddles.append(rng.randint(2, 3 + g))
            saddles[-1] -= sum(saddles) - arcs
            if saddles[-1] < 2:
                continue
        ints = [rng.randint(2, 3) for _ in range(rng.randint(1 if integer_extremal else 0, 2))]
        rest = [F(rng.choice([1, 2, 4, 5]), 3) for _ in range(rng.randint(0, 1))]
        zeros = [F(0)] * (0 if integer_extremal else rng.choice([0, 0, 0, 1, 2]))
        alpha = [F(x) for x in saddles + ints] + rest + zeros
        Z = frozenset(range(1, len(saddles) + 1))
        if oracles.surely_realizable(g, alpha, Z):
            return g, alpha, Z


def one_cone_triple(rng, genus, p_low, p_high):
    """An admissible (g, p, q): p > q > 0, and q does not divide p on the sphere."""
    while True:
        p = rng.randint(max(p_low, 2), p_high)
        q = rng.randint(1, min(p - 1, 25))
        # gcd(p, q) >= 3 is left out: build_one_cone fails an internal
        # assertion on many such admissible triples (a strict xfail test in
        # test_perfbench.py flags when that is fixed)
        if (genus > 0 or q == 1 or p % q) and gcd(p, q) <= 2:
            return genus, p, q


def _with_levels(ds, rng):
    """The same surface with seeded, pairwise distinct face levels."""
    levels = []
    for _ in range(ds.angulation.num_faces):
        levels.append(_level(rng, set(levels), 101))
    return dataset.DataSet(ds.angulation, ds.k0, ds.ratio, ds.weights, levels)


def _revalidate(ds):
    ma = ds.angulation
    angulation.MixedAngulation(ma.colors, ma.arcs, ma.rotations)
    return ma.num_arcs


def _shape(ma):
    """Independently traced (genus, saddle angles) of an angulation."""
    degrees = oracles.face_degrees(ma.arcs, ma.rotations)
    return oracles.genus_of(len(ma.colors), ma.arcs, degrees), oracles.saddle_angles(degrees)


def _reloads(ds):
    """The saved document of ``ds`` loads back to a byte-identical document."""
    text = serialization.dumps(serialization.save(ds))
    again = serialization.dumps(serialization.save(serialization.load_document(json.loads(text))))
    expect(again == text, "saved document does not reload byte for byte")
    return text


# -- construct -----------------------------------------------------------------


@dataclass
class Built:
    exists: Any
    ds: Any
    census: Any
    targets: list
    space: Any
    dim: int
    text: str
    again: str
    arcs: int


class Construct:
    """Seeded prescriptions, each built, counted, solved and round-tripped.

    Why: the balance, dimension and builders layers do most of the work here
    (the balance witness scan dominates); deformations and geometry do none,
    and the canonical form is never called.  The inputs follow the ROADMAP
    ladders, build_surface(0, [3]*n) for n = 4..64 and one-cone surfaces up
    to p = 301, plus other genus 0-3 prescriptions.  Op costs differ by 1000x
    between these classes, so every round holds the same classes: one ladder
    surface from each band of n, one one-cone surface from each band
    of (genus, p) and twenty prescriptions with fixed (genus, saddle count).
    Rounds are identical in composition, so the mix does not depend on how
    many rounds a run completes.  Percentiles are stable only inside a class
    sampled many times a run, so ten of the prescriptions share the cost
    class at the median (genus 1 or 2 with few saddles), and three ladder
    surfaces of n = 30 sit just below the two top classes (n = 64 and the
    one-cone p = 301), where p90 falls.  The expensive sizes are fixed, not
    drawn from a band, because one op of these classes is a large share of
    a run and its size would otherwise move every metric with the seed.
    """

    name = "construct"
    LADDER = [(4, 5), (12, 13), (30, 30), (30, 30), (30, 30), (64, 64)]  # bands of n
    # (genus, low p, high p) of the one-cone surfaces
    CONES = [(0, 2, 40), (0, 2, 40), (0, 2, 40), (0, 60, 120), (0, 301, 301),
             (1, 2, 12), (1, 2, 12), (2, 2, 8), (3, 2, 5)]
    # (genus, saddle count) of the other prescriptions
    STRATA = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)] + [(1, 2), (2, 1)] * 5
    round_len = len(LADDER) + len(CONES) + len(STRATA)

    def __init__(self, seed, workdir):
        self.seed = seed

    def close(self):
        pass

    def ops(self):
        rng = _rng(self.name, self.seed, "ops")
        while True:
            requests = [("ladder",) + self._ladder(rng, *band) for band in self.LADDER]
            for g, low, high in self.CONES:
                requests.append(("one-cone",) + one_cone_triple(rng, g, low, high))
            for g, j0 in self.STRATA:
                requests.append(("prescription",) + random_prescription(rng, (g, g), False, (j0, j0)))
            rng.shuffle(requests)
            for request in requests:
                yield self._op(request, _k0(rng), _level(rng, (), 97))

    @staticmethod
    def _ladder(rng, low, high):
        n = rng.randint(low, high)
        return 0, [F(3)] * n, frozenset(range(1, n + 1))

    def _op(self, request, k0, level):
        kind = request[0]
        cone = kind == "one-cone"
        if cone:
            g, p, q = request[1:]
            alpha, Z = [F(p + q + 2 * g - 1)], frozenset({1})
        else:
            g, alpha, Z = request[1:]

        def run():
            if cone:
                exists = constraints.one_cone_admissible(g, alpha[0], p, q)
                ds = builders.build_one_cone(g, p, q, k0=k0, level=level)
            else:
                exists = constraints.check_refined(g, alpha, Z)
                ds = builders.build_surface(g, alpha, Z, k0=k0, level=level)
            arcs = _revalidate(ds)
            cs = dataset.census(ds)
            ma = ds.angulation
            targets = oracles.vertex_angles(ma.colors, ma.arcs, ds.weights, ds.ratio)
            space = balance.solve_balance(ma, ds.ratio, dict(enumerate(targets)))
            dim = dimension.dimension_crosscheck(ds)
            text = serialization.dumps(serialization.save(ds))
            again = serialization.dumps(
                serialization.save(serialization.load_document(json.loads(text)))
            )
            return Built(exists, ds, cs, targets, space, dim, text, again, arcs)

        def check(out):
            ds, ma, cs = out.ds, out.ds.angulation, out.census
            expect(bool(out.exists), f"existence check rejects {request}")
            expect(out.again == out.text, "save/load round trip is not byte-identical")
            genus, saddles = _shape(ma)
            expect(genus == g, f"genus {genus} != {g}")
            expect(saddles == sorted(alpha[i - 1] for i in Z), "saddle angles differ from the prescription")
            angles = oracles.vertex_angles(ma.colors, ma.arcs, ds.weights, ds.ratio)
            if not cone:
                wanted = sorted(alpha[i - 1] for i in range(1, len(alpha) + 1) if i not in Z)
                expect(sorted(a for a in angles if a != 1) == wanted, "extremal angles differ from the prescription")
            else:
                expect(all(a == 1 for a in angles), "a one-cone surface has a singular extremal point")
                expect(ma.colors.count(BLACK) == p and len(ma.colors) == p + q, "one-cone vertex counts")
            blacks = ma.colors.count(BLACK)
            smooth = sum(1 for a in angles if a == 1)
            expect(
                (cs.p, cs.q, cs.a, cs.b, cs.m) == (blacks, len(ma.colors) - blacks, len(ma.colors), len(ma.arcs), smooth),
                f"census {cs} disagrees with the surface",
            )
            expect(sum(1 - s for s in saddles) + cs.a == 2 - 2 * g, "index sum != 2 - 2g")
            expect(cs.b == sum(saddles), "arc count != total saddle angle")
            expect(out.dim == oracles.refined_dimension(g, alpha, Z), f"dimension {out.dim}")
            oracles.check_solution_space(ma.colors, ma.arcs, ds.ratio, out.targets, out.space, g, len(Z))
            sp = out.space
            digest = "\n".join([
                out.text,
                " ".join(map(str, sp.particular)),
                str(sp.kernel_dimension),
                " ".join(map(str, sp.positive_witness or ())),
            ])
            counts = Counter(
                solve_balance_calls=1,
                witness_found=int(sp.positive_witness is not None),
                arcs=out.arcs,
                bytes=len(out.text.encode()),
            )
            return digest.encode(), counts

        return Op(kind, run, check)


# -- deform --------------------------------------------------------------------


@dataclass
class Stepped:
    result: Any = None  # generic twist or accepted split
    non_generic: tuple = ()
    refused: str = ""
    new: bool = False
    arcs: int = 0


class Deform:
    """A seeded walk over moduli space by twists and splits.

    Why: new surfaces are written by surgery and looked up in a ``set`` of
    ``DataSet`` (``__hash__``/``__eq__`` run through the canonical form), so
    canonical form and deformations dominate; balance, dimension and geometry
    are never called.  Every walk takes the steps of STEPS in a seeded order
    from the next surface of a pool built at set-up, with pairwise distinct
    face levels, fixed arc counts from 8 to 60 and, at each count, one
    surface of each genus 0, 1 and 2; restarting bounds the growth that
    splits cause.  A round is one pass over the pool, so every run holds the
    same surface shapes.  Fixing the genus of each pool slot keeps the cost
    of the canonical form, which grows with the genus at a given arc count,
    from varying with the seed.
    """

    name = "deform"
    # (arc count, genus) of the pool surfaces
    POOL = [(arcs, g) for arcs in (8, 14, 20, 28, 36, 44, 52, 60) for g in (0, 1, 2)]
    STEPS = ["twist"] * 7 + ["split"] * 3
    round_len = len(STEPS) * len(POOL)

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = _rng(self.name, seed, "pool")
        self.pool = []
        for arcs, genus in self.POOL:
            g, alpha, Z = random_prescription(rng, (genus, genus), True, arcs=arcs)
            ds = builders.build_surface(g, alpha, Z, k0=_k0(rng))
            self.pool.append(_with_levels(ds, rng))

    def close(self):
        pass

    def ops(self):
        rng = _rng(self.name, self.seed, "ops")
        r = 0
        while True:
            if r % len(self.pool) == 0:
                # a fresh set per pass over the pool keeps memory independent of speed
                seen = set()
            cur = [self.pool[r % len(self.pool)]]
            for step in rng.sample(self.STEPS, len(self.STEPS)):
                if step == "split":
                    ma = cur[0].angulation
                    angles = oracles.vertex_angles(ma.colors, ma.arcs, cur[0].weights, cur[0].ratio)
                    candidates = [v for v, a in enumerate(angles) if a.denominator == 1 and a >= 2]
                    # once splits have used up the integer-angle extremal points the
                    # walk twists instead: a split there is refused at once, and how
                    # often that happens varies with the seed, which would move the
                    # median latency across the gap between refusals and twists
                    if candidates:
                        yield self._split(rng, cur, seen, angles, candidates)
                        continue
                yield self._twist(rng, cur, seen)
            r += 1

    @staticmethod
    def _insert(seen, ds):
        before = len(seen)
        seen.add(ds)
        return len(seen) > before

    def _twist(self, rng, cur, seen):
        ds = cur[0]
        c = _level(rng, set(ds.face_levels), 97)
        pick = rng.random()
        # small denominators make some twists non-generic (an expected outcome)
        d = rng.choice((2, 3, 4, 41))
        psi = F(rng.randint(1, d - 1), d)

        def run():
            circles = deformations.circles_at_level(ds, c)
            idx = int(pick * len(circles))
            out = deformations.twist(ds, c, idx, psi * circles[idx].circumference)
            if not out.is_generic:
                return Stepped(non_generic=out.non_generic)
            new = self._insert(seen, out.dataset)
            cur[0] = out.dataset
            return Stepped(out.dataset, new=new, arcs=_revalidate(out.dataset))

        def check(out):
            counts = Counter(twists=1, set_inserts=int(out.result is not None), set_new=int(out.new), arcs=out.arcs)
            if out.result is None:
                expect(len(out.non_generic) > 0, "non-generic twist without a witness pair")
                return f"non-generic {len(out.non_generic)}".encode(), counts
            t = out.result
            counts["twist_generic"] = 1
            expect(t.total_weight() == ds.total_weight(), "twist changed the total weight")
            expect(_shape(t.angulation) == _shape(ds.angulation), "twist changed genus or saddle angles")
            expect(sorted(t.face_levels) == sorted(ds.face_levels), "twist changed the face levels")
            return _reloads(t).encode(), counts

        return Op("twist", run, check)

    def _split(self, rng, cur, seen, angles, candidates):
        ds = cur[0]
        ma = ds.angulation
        v = rng.choice(candidates)
        # cuts at sixths sometimes meet a sector boundary (CutOnBoundary, an expected outcome)
        d = rng.choice((6, 13, 13, 13))
        offset = F(rng.randint(1, d - 1), d)
        new_level = _level(rng, set(ds.face_levels), 89)

        def run():
            try:
                out = deformations.split(ds, v, offset, new_level)
            except CutOnBoundary as exc:
                return Stepped(refused=type(exc).__name__)
            new = self._insert(seen, out)
            cur[0] = out
            return Stepped(out, new=new, arcs=_revalidate(out))

        def check(out):
            counts = Counter(splits=1, set_inserts=int(out.result is not None), set_new=int(out.new), arcs=out.arcs)
            if out.result is None:
                return out.refused.encode(), counts
            counts["split_accepted"] = 1
            alpha = angles[v]
            genus, saddles = _shape(out.result.angulation)
            before_genus, before_saddles = _shape(ma)
            expect(genus == before_genus, "split changed the genus")
            expect(saddles == sorted(before_saddles + [alpha]), "split did not add one saddle of the vertex angle")
            expect(out.result.angulation.num_arcs == ma.num_arcs + alpha, "split arc count")
            return _reloads(out.result).encode(), counts

        return Op("split", run, check)


# -- profile -------------------------------------------------------------------


@dataclass
class Profiled:
    profile: Any
    length: float
    distances: list
    area: float


class Profile:
    """Seeded (K0, R) pairs through the numeric geometry layer.

    Why: geometry does nearly all the work and every combinatorial layer is
    idle; this is where a closed-form geometry layer must show, and the other
    three workloads must not move.  A round crosses three ratio classes
    (regular, the cusp R = 0, and R near 1) with the three sample counts.
    """

    name = "profile"
    SAMPLES = (256, 4096, 65536)
    # a seeded number of distances per op spreads op costs within a sample
    # class, so that the median op is not a single narrow mode
    LEVELS = (1, 12)
    round_len = 3 * len(SAMPLES)

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = _rng(self.name, seed, "surface")
        self.surface = builders.build_surface(0, [F(3)] * 4, range(1, 5), k0=_k0(rng))

    def close(self):
        pass

    def ops(self):
        rng = _rng(self.name, self.seed, "ops")
        while True:
            requests = []
            for n in self.SAMPLES:
                top = rng.randint(50, 500)
                requests += [
                    (F(rng.randint(1, 18), 20), n),
                    (F(0), n),
                    (F(top - 1, top), n),
                ]
            rng.shuffle(requests)
            for ratio, n in requests:
                levels = sorted(rng.random() * 0.999 for _ in range(rng.randint(*self.LEVELS)))
                yield self._op(_k0(rng), ratio, n, levels)

    def _op(self, k0, ratio, n, levels):
        k1 = float(F(2 * ratio - 1) / (2 - ratio)) * k0
        surface = self.surface

        def run():
            profile = geometry.solve_profile(k0, ratio, n)
            length = geometry.element_length(k0, k1)
            distances = [geometry.level_to_distance(k0, k1, s) for s in levels]
            return Profiled(profile, length, distances, geometry.surface_area(surface))

        def check(out):
            prof = out.profile
            want = oracles.meridian_length(k0, k1)
            oracles.close(out.length, want, "element_length")
            oracles.close(prof.length, want, "profile length")
            expect(len(prof.v) == n and bool(np.all(np.diff(prof.v) > 0)), "v is not increasing")
            top = oracles.meridian_distance(k0, k1, float(prof.s[-1])) if ratio == 0 else want
            oracles.close(float(prof.v[-1]), top, "last profile sample")
            for s, d in zip(levels, out.distances):
                oracles.close(d, oracles.meridian_distance(k0, k1, s), f"level_to_distance({s})")
            oracles.close(out.area, oracles.area(surface.k0, surface.ratio, sum(surface.weights)), "surface_area")
            return f"{n} {ratio} {prof.length == np.inf}".encode(), Counter(samples=n)

        return Op(f"samples-{n}", run, check)


# -- cli -----------------------------------------------------------------------


@dataclass
class Facts:
    """What the benchmark knows about a corpus file, read from its JSON."""

    path: str
    text: str
    colors: list
    arcs: list
    weights: list
    ratio: F
    levels: list
    genus: int
    saddles: list

    @classmethod
    def read(cls, path):
        text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
        colors = [v["color"] for v in sorted(doc["vertices"], key=lambda v: v["id"])]
        items = sorted(doc["arcs"], key=lambda a: a["id"])
        arcs = [(a["black"], a["white"]) for a in items]
        rotations = [
            [(int(t.split(":")[0]), t.split(":")[1]) for t in doc["rotations"][str(v)]]
            for v in range(len(colors))
        ]
        degrees = oracles.face_degrees(arcs, rotations)
        return cls(
            str(path), text, colors, arcs, [F(a["weight"]) for a in items], F(doc["ratio"]),
            [F(s) for s in doc["face_levels"].values()],
            oracles.genus_of(len(colors), arcs, degrees), oracles.saddle_angles(degrees),
        )

    def angles(self):
        return oracles.vertex_angles(self.colors, self.arcs, self.weights, self.ratio)


@dataclass
class Ran:
    code: int
    stdout: str
    stderr: str


def _fmt(values):
    return ",".join(str(v) for v in values)


class Cli:
    """In-process ``hcmu.cli.main`` over every subcommand on a seeded corpus.

    Why: parsing, validation, argparse and the exit-code mapping are under 1%
    of the other workloads, so without this workload the serialization and
    cli layers go unmeasured.  Read-only subcommands run beside writing ones
    in a fixed mix per round.  ``solve`` costs several times any other
    subcommand (the balance witness scan), and far more on some files than
    on others, so it runs once per round, alternating between the two
    fixtures; ``profile`` writes 256 samples.  Expensive requests are then
    under 3% of the ops and p90 falls inside the writing subcommands rather
    than on the boundary of a rare class.
    """

    name = "cli"
    MIX = {
        "validate": 6, "export-dot": 4, "solve": 1, "check": 6, "dim": 4, "ratios": 2,
        "build": 2, "one-cone": 4, "twist": 2, "split": 2, "profile": 2,
    }
    PROFILE_SAMPLES = 256
    LADDER = (5, 10, 17)  # n of the build_surface(0, [3]*n) files
    round_len = sum(MIX.values())

    def __init__(self, seed, workdir):
        self.seed = seed
        Path(workdir).mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        rng = _rng(self.name, seed, "corpus")
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        paths = []
        for name in ("calabi.json", "two_level.json"):
            shutil.copyfile(fixtures / name, self.dir / name)
            paths.append(self.dir / name)
        for i in range(4):
            g, alpha, Z = random_prescription(rng, (0, 2), True)
            paths.append(self._save(f"surface-{i}.json", builders.build_surface(g, alpha, Z, k0=_k0(rng)), rng))
        # larger files spread the cost of the read-only subcommands
        for i, n in enumerate(self.LADDER):
            ds = builders.build_surface(0, [3] * n, range(1, n + 1), k0=_k0(rng))
            paths.append(self._save(f"ladder-{i}.json", ds, rng))
        for i in range(2):
            g, p, q = one_cone_triple(rng, rng.randint(0, 2), 2, 12)
            paths.append(self._save(f"cone-{i}.json", builders.build_one_cone(g, p, q, k0=_k0(rng)), rng))
        self.files = [Facts.read(p) for p in paths]
        self.fixtures = self.files[:2]
        self.splittable = [f for f in self.files if self._split_vertices(f)]

    def _save(self, name, ds, rng):
        path = self.dir / name
        path.write_text(serialization.dumps(serialization.save(_with_levels(ds, rng))), encoding="utf-8")
        return path

    @staticmethod
    def _split_vertices(facts):
        # cuts at offsets with denominator 97 never meet a sector boundary,
        # because no corpus weight has 97 in its denominator
        if any(w.denominator % 97 == 0 for w in facts.weights):
            return []
        return [
            v for v, a in enumerate(facts.angles())
            if facts.colors[v] == BLACK and a.denominator == 1 and a >= 2
        ]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def ops(self):
        rng = _rng(self.name, self.seed, "ops")
        r = 0
        while True:
            kinds = [k for k, n in self.MIX.items() for _ in range(n)]
            rng.shuffle(kinds)
            started = set()
            for kind in kinds:
                # the first check, dim and one-cone of a round are seeded to be infeasible
                feasible = kind in started
                started.add(kind)
                yield getattr(self, "_" + kind.replace("-", "_"))(rng, r, feasible)
            r += 1

    def _op(self, kind, argv, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return Ran(code, out.getvalue(), err.getvalue())

        def checked(ran):
            data, counts = check(ran)
            shown = " ".join(argv).replace(str(self.dir), "<dir>")
            digest = f"{shown}\n{ran.code}\n{oracles.mask_floats(ran.stdout)}\n{oracles.mask_floats(data)}"
            return digest.encode(), counts

        return Op(kind, run, checked)

    @staticmethod
    def _expect_code(ran, code):
        expect(ran.code == code, f"exit {ran.code} != {code}: {ran.stderr.strip()[:200]}")

    @staticmethod
    def _written(path):
        """Reload a written data-set file; returns its text and facts."""
        facts = Facts.read(path)
        serialization.load(path)
        return facts.text, facts

    # read-only subcommands

    def _validate(self, rng, r, _):
        f = rng.choice(self.files)

        def check(ran):
            self._expect_code(ran, 0)
            want = (
                f"valid: genus {f.genus}, {f.colors.count(BLACK)}+{len(f.colors) - f.colors.count(BLACK)} "
                f"extremal points, {len(f.arcs)} arcs, {len(f.saddles)} saddles, R = {f.ratio}\n"
            )
            expect(ran.stdout == want, f"validate printed {ran.stdout!r}")
            return "", Counter(bytes=len(f.text.encode()))

        return self._op("validate", ["validate", f.path], check)

    def _export_dot(self, rng, r, _):
        f = rng.choice(self.files)

        def check(ran):
            self._expect_code(ran, 0)
            lines = ran.stdout.splitlines()
            edges = [f'  v{b} -- v{w} [label="{x}"];' for (b, w), x in zip(f.arcs, f.weights)]
            expect(lines[0] == "graph surface {" and lines[-1] == "}", "export-dot framing")
            expect(lines[1 + len(f.colors):-1] == edges, "export-dot edges differ from the file")
            return "", Counter(bytes=len(f.text.encode()))

        return self._op("export-dot", ["export-dot", f.path], check)

    def _solve(self, rng, r, _):
        f = self.fixtures[r % 2]

        def check(ran):
            self._expect_code(ran, 0)
            fields = dict(line.split(": ", 1) for line in ran.stdout.splitlines())
            witness = fields.get("positive witness")
            space = SimpleNamespace(
                particular=[F(x) for x in fields["particular"].split()],
                kernel_basis=[],  # the CLI prints only the dimension
                kernel_dimension=int(fields["kernel dimension"]),
                positive_witness=[F(x) for x in witness.split()] if witness else None,
            )
            oracles.check_solution_space(f.colors, f.arcs, f.ratio, f.angles(), space, f.genus, len(f.saddles))
            found = int(space.positive_witness is not None)
            return "", Counter(solve_balance_calls=1, witness_found=found, bytes=len(f.text.encode()))

        return self._op("solve", ["solve", f.path], check)

    @staticmethod
    def _infeasible(rng):
        """A single saddle of angle alpha <= 2g leaves a = alpha + 1 - 2g < 2 extremal points."""
        g = rng.randint(1, 3)
        return g, [F(rng.randint(2, 2 * g))], frozenset({1})

    def _prescribed(self, kind, rng, feasible, check_ok):
        g, alpha, Z = random_prescription(rng, (0, 3), False) if feasible else self._infeasible(rng)
        argv = [kind, "--genus", str(g), "--angles", _fmt(alpha), "--saddles", _fmt(sorted(Z))]

        def check(ran):
            if feasible:
                self._expect_code(ran, 0)
                check_ok(ran, g, alpha, Z)
            else:
                self._expect_code(ran, 1)
                expect(ran.stdout == "empty\n", f"{kind} printed {ran.stdout!r}")
            return "", Counter()

        return self._op(kind, argv, check)

    def _check(self, rng, r, feasible):
        def ok(ran, g, alpha, Z):
            expect(ran.stdout.startswith("nonempty (case "), f"check printed {ran.stdout!r}")

        return self._prescribed("check", rng, feasible, ok)

    def _dim(self, rng, r, feasible):
        def ok(ran, g, alpha, Z):
            expect(ran.stdout == f"{oracles.refined_dimension(g, alpha, Z)}\n", f"dim printed {ran.stdout!r}")

        return self._prescribed("dim", rng, feasible, ok)

    def _ratios(self, rng, r, _):
        def ok(ran, g, alpha, Z):
            want = "".join(f"R={r} m+={mp} m-={mm}\n" for r, mp, mm in oracles.ratio_candidates(g, alpha, Z))
            expect(ran.stdout == want, f"ratios printed {ran.stdout!r}, expected {want!r}")

        return self._prescribed("ratios", rng, True, ok)

    # writing subcommands

    def _build(self, rng, r, _):
        g, alpha, Z = random_prescription(rng, (0, 3), False)
        path = str(self.dir / "out-build.json")
        argv = ["build", "--genus", str(g), "--angles", _fmt(alpha), "--saddles", _fmt(sorted(Z)), "-o", path]

        def check(ran):
            self._expect_code(ran, 0)
            text, facts = self._written(path)
            expect(facts.genus == g, "built genus")
            expect(facts.saddles == sorted(alpha[i - 1] for i in Z), "built saddle angles")
            return text, Counter(bytes=len(text.encode()))

        return self._op("build", argv, check)

    def _one_cone(self, rng, r, feasible):
        path = str(self.dir / "out-one-cone.json")
        if feasible:
            g, p, q = one_cone_triple(rng, rng.randint(0, 3), 2, 40)
        else:  # q > 1 divides p: inadmissible on the sphere
            q = rng.randint(2, 6)
            g, p = 0, q * rng.randint(2, 6)
        argv = ["one-cone", "--genus", str(g), "-p", str(p), "-q", str(q), "-o", path]

        def check(ran):
            if not feasible:
                self._expect_code(ran, 1)
                expect(ran.stdout == "inadmissible: q divides p\n", f"one-cone printed {ran.stdout!r}")
                return "", Counter()
            self._expect_code(ran, 0)
            text, facts = self._written(path)
            expect(facts.genus == g and facts.saddles == [F(p + q + 2 * g - 1)], "one-cone shape")
            expect(facts.colors.count(BLACK) == p and len(facts.colors) == p + q, "one-cone vertex counts")
            return text, Counter(bytes=len(text.encode()))

        return self._op("one-cone", argv, check)

    def _twist(self, rng, r, _):
        f = rng.choice(self.files)
        path = str(self.dir / "out-twist.json")
        c = _level(rng, set(f.levels), 83)
        argv = ["twist", f.path, "--level", str(c), "--circle", "0", "--psi", str(F(rng.randint(1, 30), 31)), "-o", path]

        def check(ran):
            expect(ran.code in (0, 1), f"twist exit {ran.code}: {ran.stderr.strip()[:200]}")
            counts = Counter(twists=1, bytes=len(f.text.encode()))
            if ran.code == 1:
                expect(ran.stdout.startswith("non-generic:"), f"twist printed {ran.stdout!r}")
                return "", counts
            text, facts = self._written(path)
            expect(sum(facts.weights) == sum(f.weights), "twist changed the total weight")
            expect((facts.genus, facts.saddles) == (f.genus, f.saddles), "twist changed genus or saddles")
            counts.update(twist_generic=1, bytes=len(text.encode()))
            return text, counts

        return self._op("twist", argv, check)

    def _split(self, rng, r, _):
        f = rng.choice(self.splittable)
        v = rng.choice(self._split_vertices(f))
        alpha = f.angles()[v]
        path = str(self.dir / "out-split.json")
        level = _level(rng, set(f.levels), 89)
        argv = ["split", f.path, "--vertex", str(v), "--offset", str(F(rng.randint(1, 96), 97)), "--level", str(level), "-o", path]

        def check(ran):
            self._expect_code(ran, 0)
            text, facts = self._written(path)
            expect(facts.genus == f.genus and facts.saddles == sorted(f.saddles + [alpha]), "split shape")
            expect(len(facts.arcs) == len(f.arcs) + alpha, "split arc count")
            return text, Counter(splits=1, split_accepted=1, bytes=len(f.text.encode()) + len(text.encode()))

        return self._op("split", argv, check)

    def _profile(self, rng, r, _):
        n = self.PROFILE_SAMPLES
        path = str(self.dir / "out-profile.csv")
        ratio = F(rng.randint(0, 18), 20)
        argv = ["profile", "--k0", repr(_k0(rng)), "--ratio", str(ratio), "--samples", str(n), "-o", path]

        def check(ran):
            self._expect_code(ran, 0)
            rows = Path(path).read_text(encoding="utf-8").splitlines()
            expect(rows[0] == "v,s,K,h" and len(rows) == n + 1, "profile CSV shape")
            v = np.array([float(r.split(",")[0]) for r in rows[1:]])
            expect(bool(np.all(np.diff(v) > 0)), "profile CSV v is not increasing")
            return f"{len(rows)}", Counter(samples=n)

        return self._op("profile", argv, check)


WORKLOADS = {w.name: w for w in (Construct, Deform, Profile, Cli)}
