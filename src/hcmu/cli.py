"""Command-line interface.

Thin shell over the library: every subcommand is one library call plus
formatting.  Exit codes: 0 on success, 1 on domain infeasibility (empty
moduli space, inadmissible parameters, non-generic twist), 2 on input or
usage errors, 3 on an internal error (a failed theory identity,
``AssertionFailure``, or an exception outside the package's own error
classes: a bug either way).  All output is deterministic.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import balance, builders, constraints, deformations, geometry
from . import serialization as ser
from .dimension import dimension as moduli_dimension
from .dimension import dimension_refined
from .dataset import census
from .errors import (
    AssertionFailure,
    CutOnBoundary,
    CuspVertex,
    EmptySpace,
    HcmuError,
    Inadmissible,
    Infeasible,
    NotInteger,
    ParseError,
)

INFEASIBLE = (EmptySpace, Inadmissible, Infeasible, NotInteger, CuspVertex, CutOnBoundary)

# ASCII decimals only: every repr of a finite float, and integers such as 2
DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")


def _angles(text):
    return [ser.parse_fraction(part, "--angles") for part in text.split(",") if part != ""]


def _integer(flag):
    """Argument type: an integer as the file grammar writes one, so no p/q."""

    def parse(text):
        try:
            value = ser.parse_fraction(text, flag)
        except ParseError:
            value = None
        if value is None or value.denominator != 1:
            raise ParseError(f"not an integer: {text!r:.80}", flag) from None
        return value.numerator

    return parse


def _k0(text):
    """Argument type of --k0: a finite float written as an ASCII decimal."""
    value = float(text) if DECIMAL.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ParseError(f"not a finite decimal number: {text!r:.80}", "--k0")
    return value


def _indices(text):
    parse = _integer("--saddles")
    return frozenset(parse(part) for part in text.split(",") if part != "")


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args):
    ds = ser.load(args.file)
    cs = census(ds)
    print(
        f"valid: genus {ds.angulation.genus}, {cs.p}+{cs.q} extremal points, "
        f"{ds.angulation.num_arcs} arcs, {ds.angulation.num_faces} saddles, "
        f"R = {ds.ratio}"
    )
    return 0


def cmd_check(args):
    alpha = constraints.AngleVector(_angles(args.angles))
    if args.saddles is not None:
        res = constraints.check_refined(args.genus, alpha, _indices(args.saddles))
    else:
        res = constraints.check_existence(args.genus, alpha)
    if res:
        print(f"nonempty (case {res.case})")
        return 0
    print("empty")
    return 1


def cmd_build(args):
    ds = builders.build_surface(args.genus, _angles(args.angles), _indices(args.saddles))
    _write(args.output, ser.dumps(ser.save(ds)))
    return 0


def cmd_one_cone(args):
    try:
        ds = builders.build_one_cone(args.genus, args.p, args.q)
    except Inadmissible:
        if args.q > 1 and args.p % args.q == 0 and args.genus == 0:
            print("inadmissible: q divides p")
        else:
            print("inadmissible")
        return 1
    _write(args.output, ser.dumps(ser.save(ds)))
    return 0


def cmd_ratios(args):
    alpha = constraints.AngleVector(_angles(args.angles))
    part = constraints.TypePartition.make(alpha, _indices(args.saddles))
    for r, mp, mm in constraints.enumerate_ratios(args.genus, alpha, part):
        print(f"R={r} m+={mp} m-={mm}")
    return 0


def cmd_dim(args):
    if args.saddles is not None:
        d = dimension_refined(args.genus, _angles(args.angles), _indices(args.saddles))
    else:
        d = moduli_dimension(args.genus, _angles(args.angles))
    if d is None:
        print("empty")
        return 1
    print(d)
    return 0


def cmd_solve(args):
    ds = ser.load(args.file)
    space = balance.solve_balance(ds.angulation, ds.ratio, dict(enumerate(ds.vertex_angles())))
    print("particular:", " ".join(str(x) for x in space.particular))
    print("kernel dimension:", space.kernel_dimension)
    if space.positive_witness is not None:
        print("positive witness:", " ".join(str(x) for x in space.positive_witness))
    else:
        print("no positive solution:", space.obstruction)
    return 0


def cmd_profile(args):
    profile = geometry.solve_profile(args.k0, ser.parse_fraction(args.ratio, "--ratio"), args.samples)
    _write(args.output, ser.export_profile_csv(profile))
    return 0


def cmd_twist(args):
    ds = ser.load(args.file)
    level = ser.parse_fraction(args.level, "--level")
    out = deformations.twist(ds, level, args.circle, ser.parse_fraction(args.psi, "--psi"))
    if not out.is_generic:
        print("non-generic: saddle-saddle meridians between faces:")
        for above, below in out.non_generic:
            print(f"  {ser.dart_token(above)} -- {ser.dart_token(below)}")
        return 1
    _write(args.output, ser.dumps(ser.save(out.dataset)))
    return 0


def cmd_split(args):
    ds = ser.load(args.file)
    offset = ser.parse_fraction(args.offset, "--offset")
    out = deformations.split(ds, args.vertex, offset, ser.parse_fraction(args.level, "--level"))
    _write(args.output, ser.dumps(ser.save(out)))
    return 0


def cmd_export_dot(args):
    ds = ser.load(args.file)
    sys.stdout.write(ser.export_dot(ds))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Subcommands carry no handler: ``main`` looks up ``cmd_<command>`` when
    it runs, so the cached parser never holds a stale function.
    """
    top = argparse.ArgumentParser(
        prog="hcmu",
        description="Data-set representation of generic HCMU surfaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a data-set file")
    p.add_argument("file")

    p = sub.add_parser("check", help="existence of surfaces with given angles")
    p.add_argument("--genus", type=_integer("--genus"), required=True)
    p.add_argument("--angles", required=True, help="comma-separated rationals")
    p.add_argument("--saddles", help="1-based indices realized as saddles")

    p = sub.add_parser("build", help="construct a witness surface")
    p.add_argument("--genus", type=_integer("--genus"), required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--saddles", required=True)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("one-cone", help="single-saddle surface with p maxima, q minima")
    p.add_argument("--genus", type=_integer("--genus"), required=True)
    p.add_argument("-p", type=_integer("-p"), required=True)
    p.add_argument("-q", type=_integer("-q"), required=True)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("ratios", help="admissible ratio values for a prescription")
    p.add_argument("--genus", type=_integer("--genus"), required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--saddles", required=True)

    p = sub.add_parser("dim", help="moduli space dimension")
    p.add_argument("--genus", type=_integer("--genus"), required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--saddles")

    p = sub.add_parser("solve", help="balance system of a data-set file")
    p.add_argument("file")

    p = sub.add_parser("profile", help="sample a character line element to CSV")
    p.add_argument("--k0", type=_k0, required=True)
    p.add_argument("--ratio", required=True)
    p.add_argument("--samples", type=_integer("--samples"), default=256)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("twist", help="twist along a level circle")
    p.add_argument("file")
    p.add_argument("--level", required=True)
    p.add_argument("--circle", type=_integer("--circle"), required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("split", help="split an integer-angle extremal point")
    p.add_argument("file")
    p.add_argument("--vertex", type=_integer("--vertex"), required=True)
    p.add_argument("--offset", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("export-dot", help="Graphviz drawing of the graph")
    p.add_argument("file")

    return top


def main(argv=None) -> int:
    try:
        # an integer argument raises ParseError from inside parse_args
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return 2 if exc.code not in (0, None) else 0
    except INFEASIBLE as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except AssertionFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (HcmuError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
