import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import FIXTURES
from hcmu import cli
from hcmu import serialization as ser
from hcmu.balance import HallCut, SolutionSpace
from hcmu.cli import main
from hcmu.errors import AssertionFailure, CensusInconsistent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_calabi(capsys):
    code, out, _ = run(capsys, "validate", str(FIXTURES / "calabi.json"))
    assert code == 0
    assert "R = 2/3" in out


def test_check_nonempty(capsys):
    code, out, _ = run(capsys, "check", "--genus", "0", "--angles", "2,2,2")
    assert code == 0
    assert out.strip() == "nonempty (case A.1)"


def test_check_empty_exit_one(capsys):
    code, out, _ = run(capsys, "check", "--genus", "0", "--angles", "3/2,3/2")
    assert code == 1
    assert out.strip() == "empty"


def test_check_refined(capsys):
    code, out, _ = run(
        capsys, "check", "--genus", "0", "--angles", "3,0", "--saddles", "1"
    )
    assert code == 0
    assert out.strip() == "nonempty (case B)"


def test_one_cone_divisible_message(capsys):
    code, out, _ = run(capsys, "one-cone", "--genus", "0", "-p", "4", "-q", "2")
    assert code == 1
    assert out.strip() == "inadmissible: q divides p"


def test_one_cone_without_minima_is_inadmissible(capsys):
    # q = 0 is refused by the classification, not because q divides p
    code, out, err = run(capsys, "one-cone", "--genus", "0", "-p", "3", "-q", "0")
    assert (code, out, err) == (1, "inadmissible\n", "")


def test_one_cone_with_a_common_factor_of_three_validates(capsys, tmp_path):
    # gcd(9, 6) = 3: the tree chains three copies of the (3, 2) staircase
    target = tmp_path / "one_cone.json"
    code, _, err = run(capsys, "one-cone", "--genus", "0", "-p", "9", "-q", "6", "-o", str(target))
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 0
    assert out.strip() == "valid: genus 0, 9+6 extremal points, 14 arcs, 1 saddles, R = 2/3"


def test_dim_case_b(capsys):
    code, out, _ = run(capsys, "dim", "--genus", "1", "--angles", "4,0")
    assert code == 0
    assert out.strip() == "4"


def test_dim_empty(capsys):
    code, out, _ = run(capsys, "dim", "--genus", "3", "--angles", "3,3")
    assert code == 1
    assert out.strip() == "empty"


def test_build_writes_valid_file(capsys, tmp_path):
    target = tmp_path / "s.json"
    code, _, _ = run(
        capsys, "build", "--genus", "0", "--angles", "2,3", "--saddles", "1",
        "-o", str(target),
    )
    assert code == 0
    ds = ser.load(target)
    assert ds.angulation.genus == 0


def test_build_of_a_ladder_of_1200_saddles_exits_zero(capsys, tmp_path):
    # the subdivision is a loop: no recursion depth that grows with the orders
    target = tmp_path / "ladder.json"
    angles, saddles = ",".join(["3"] * 1200), ",".join(map(str, range(1, 1201)))
    code, out, err = run(capsys, "build", "--genus", "0", "--angles", angles, "--saddles", saddles, "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert ser.load(target).angulation.num_faces == 1200


@pytest.mark.parametrize(
    "argv, arcs",
    [
        (("build", "--genus", "10000", "--angles", "20002", "--saddles", "1"), 20002),
        (("build", "--genus", "100000", "--angles", "200002", "--saddles", "1"), 200002),
        (("build", "--genus", "1000000000000", "--angles", "2000000000002", "--saddles", "1"), 2000000000002),
        (("one-cone", "--genus", "0", "-p", "1000000000001", "-q", "2"), 1000000000002),
    ],
)
def test_builds_over_the_size_limit_exit_two(capsys, tmp_path, argv, arcs):
    target = tmp_path / "x.json"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"error: the map would have {arcs} arcs; a builder makes at most 8192\n"
    assert not target.exists()


def test_build_empty_space(capsys, tmp_path):
    code, _, err = run(
        capsys, "build", "--genus", "1", "--angles", "2", "--saddles", "1",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "infeasible" in err


def test_empty_space_writes_the_angles_as_the_command_line_does(capsys, tmp_path):
    target = tmp_path / "x.json"
    code, out, err = run(capsys, "build", "--genus", "1", "--angles", "3", "--saddles", "1", "-o", str(target))
    assert (code, out, err) == (1, "", "infeasible: no surface with genus 1, angles [3], Z=[1]\n")
    code, _, err = run(capsys, "build", "--genus", "2", "--angles", "1/2,3,0", "--saddles", "1")
    assert (code, err) == (1, "infeasible: no surface with genus 2, angles [3, 1/2, 0], Z=[1]\n")
    assert not target.exists()


def test_ratios_output(capsys):
    code, out, _ = run(
        capsys, "ratios", "--genus", "0", "--angles", "2,2,2", "--saddles", "1,2,3"
    )
    assert code == 0
    assert out.splitlines() == ["R=2/3 m+=3 m-=2", "R=1/4 m+=4 m-=1"]


def test_solve_kernel_dimension(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "calabi.json"))
    assert code == 0
    assert "kernel dimension: 2" in out
    assert "positive witness:" in out


def test_solve_prints_the_golden_output(capsys, tmp_path):
    # calabi's particular is negative, so the flow finds the witness; the
    # built surface is a cusp system (R = 0) whose particular is not positive
    cusp = tmp_path / "cusp.json"
    assert run(capsys, "build", "--genus", "1", "--angles", "6,2,0,0,0", "--saddles", "1", "-o", str(cusp)) == (0, "", "")
    printed = ""
    for path in (FIXTURES / "calabi.json", FIXTURES / "two_level.json", cusp):
        code, out, err = run(capsys, "solve", str(path))
        assert (code, err) == (0, "")
        printed += out
    assert printed == (Path(__file__).resolve().parent / "golden" / "solve.txt").read_text()


def test_profile_csv(capsys, tmp_path):
    target = tmp_path / "p.csv"
    code, _, _ = run(
        capsys, "profile", "--k0", "2", "--ratio", "2/3", "--samples", "64",
        "-o", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "v,s,K,h"
    assert len(lines) == 65


def test_profile_sample_count_above_the_maximum_exits_two(capsys, tmp_path):
    # refused before anything is allocated, so no output file appears
    target = tmp_path / "p.csv"
    for n in (2**20 + 1, 100000000000):
        code, out, err = run(
            capsys, "profile", "--k0", "1", "--ratio", "1/2", "--samples", str(n),
            "-o", str(target),
        )
        assert code == 2 and out == ""
        assert err == f"error: need at most {2**20} samples, got {n}\n"
    assert not target.exists()


def test_twist_roundtrip(capsys, tmp_path):
    target = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", "1/5", "-o", str(target),
    )
    assert code == 0
    ds = ser.load(target)
    assert ds.ratio == F(1, 2)


def test_twist_writes_the_golden_file(capsys, tmp_path):
    # rotation rows keep their starting dart unless it was a circle member's
    target = tmp_path / "t.json"
    code, out, err = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", "1/5", "-o", str(target),
    )
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == (Path(__file__).resolve().parent / "golden" / "two_level_twist.json").read_text()


def test_twist_non_generic(capsys, tmp_path):
    code, out, _ = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", "3/2",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert "non-generic" in out


def test_twist_writes_no_weight_the_loader_refuses(capsys, tmp_path):
    # a 256-character shift is read, but the twisted weight has 257 characters
    b = 10**127 + 3
    psi = f"{b // 3}/{b}"
    assert len(psi) == ser.MAX_RATIONAL_CHARS
    target = tmp_path / "t.json"
    code, out, err = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", psi, "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == "error: /arcs/0/weight: rational of 257 characters; a document holds at most 256\n"
    assert not target.exists()


def test_split_command(capsys, tmp_path):
    src = tmp_path / "s.json"
    run(capsys, "build", "--genus", "0", "--angles", "2,3", "--saddles", "1",
        "-o", str(src))
    ds = ser.load(src)
    v = next(
        v for v in range(ds.angulation.num_vertices)
        if ds.angulation.colors[v] == "black" and ds.vertex_angle(v) == 3
    )
    out_path = tmp_path / "after.json"
    code, _, _ = run(
        capsys, "split", str(src), "--vertex", str(v),
        "--offset", "1/3", "--level", "3/4", "-o", str(out_path),
    )
    assert code == 0
    after = ser.load(out_path)
    assert after.angulation.num_faces == ds.angulation.num_faces + 1


@pytest.mark.parametrize(
    "genus, angles, vertex, offset, level, golden",
    [
        # the white angle-2 vertex (R = 2/5) and the black angle-3 vertex; every
        # cut falls inside an arc, so each cut arc is split into pieces
        ("1", "3,2,5", "1", "1/5", "1/7", "split_white_vertex.json"),
        ("0", "2,3", "0", "1/3", "3/4", "split_black_vertex.json"),
    ],
)
def test_split_writes_the_golden_file(capsys, tmp_path, genus, angles, vertex, offset, level, golden):
    src, target = tmp_path / "s.json", tmp_path / "t.json"
    assert run(capsys, "build", "--genus", genus, "--angles", angles, "--saddles", "1", "-o", str(src)) == (0, "", "")
    code, out, err = run(
        capsys, "split", str(src), "--vertex", vertex, "--offset", offset, "--level", level, "-o", str(target),
    )
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == (Path(__file__).resolve().parent / "golden" / golden).read_text()


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / "calabi.json"))
    assert code == 0
    assert out.startswith("graph surface {")


def test_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        run(capsys, "build", "--genus", "1", "--angles", "4", "--saddles", "1",
            "-o", str(target))
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_two(capsys, tmp_path):
    assert main(["check", "--genus", "0"]) == 2  # missing --angles
    code, _, err = run(capsys, "validate", "/nonexistent/path.json")
    assert code == 2
    doc = ser.save(ser.load(FIXTURES / "calabi.json"))
    doc["arcs"][0]["weight"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error: /BadWeight: ")


def test_bad_angles_exit_two(capsys):
    code, _, err = run(capsys, "check", "--genus", "0", "--angles", "2,1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "path, value",
    [
        (["ratio"], "1e-400000000"),
        (["k0"], "inf"),
        (["arcs", 0, "black"], 0.9),
        (["vertices", 0], 5),
    ],
    ids=["exponent-ratio", "infinite-k0", "fractional-end", "scalar-vertex"],
)
def test_hostile_document_exit_two(capsys, tmp_path, path, value):
    doc = ser.save(ser.load(FIXTURES / "calabi.json"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error: /")


def test_undecodable_document_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error: /: ")


def test_internal_error_exit_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(FIXTURES / "calabi.json"))
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


@pytest.mark.parametrize("error", [AssertionFailure, CensusInconsistent])
def test_failed_identity_exits_three(capsys, monkeypatch, error):
    def broken(args):
        raise error("tree has 6 blacks, expected 9")

    monkeypatch.setattr(cli, "cmd_one_cone", broken)
    code, out, err = run(capsys, "one-cone", "--genus", "0", "-p", "9", "-q", "6")
    assert code == 3
    assert out == ""
    assert err == "internal error: tree has 6 blacks, expected 9\n"


def test_solve_prints_the_obstruction(capsys, monkeypatch):
    cut = HallCut(frozenset({0}), frozenset({3}), (1,), F(0))
    space = SolutionSpace((F(1), F(0)), [], None, cut)
    monkeypatch.setattr(cli.balance, "solve_balance", lambda *args: space)
    code, out, _ = run(capsys, "solve", str(FIXTURES / "calabi.json"))
    assert code == 0
    assert out.splitlines()[-1] == f"no positive solution: {cut}"
    assert "positive witness:" not in out


HUGE = "1e-400000000"  # Fraction(HUGE) would build a 400-million-digit denominator
TWO_LEVEL = str(FIXTURES / "two_level.json")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--angles", ["check", "--genus", "0", "--angles", f"2,2,{HUGE}"]),
        ("--level", ["twist", TWO_LEVEL, "--level", HUGE, "--circle", "0", "--psi", "1/5"]),
        ("--psi", ["twist", TWO_LEVEL, "--level", "1/2", "--circle", "0", "--psi", HUGE]),
        ("--offset", ["split", TWO_LEVEL, "--vertex", "0", "--offset", HUGE, "--level", "3/4"]),
        ("--ratio", ["profile", "--k0", "2", "--ratio", HUGE, "--samples", "16"]),
    ],
    ids=["angles", "level", "psi", "offset", "ratio"],
)
def test_exponent_rational_argument_exit_two(capsys, tmp_path, flag, argv):
    if argv[0] != "check":
        argv = argv + ["-o", str(tmp_path / "out")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: ")


def test_non_canonical_argument_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "dim", "--genus", "0", "--angles", "2,2,4/6")
    assert code == 2
    assert err == "error: --angles: '4/6' is not in lowest terms; write 2/3\n"
    # integer arguments take the integers of the same grammar: int() would
    # read 1_0 as 10, ' 1' as 1 and the Arabic-Indic digit one as 1
    out = str(tmp_path / "out")
    for flag, text, argv in [
        ("--genus", "1_0", ["dim", "--genus", "1_0", "--angles", "3,3"]),
        ("--genus", " 1", ["dim", "--genus", " 1", "--angles", "3,3"]),
        ("--genus", "+1", ["check", "--genus", "+1", "--angles", "2,2,2"]),
        ("--genus", "0/1", ["build", "--genus", "0/1", "--angles", "3", "--saddles", "1", "-o", out]),
        ("--saddles", "\u0661", ["ratios", "--genus", "0", "--angles", "2,2,2", "--saddles", "\u0661,2,3"]),
        ("--saddles", "01", ["check", "--genus", "0", "--angles", "3,0", "--saddles", "01"]),
        ("-p", "7/2", ["one-cone", "--genus", "0", "-p", "7/2", "-q", "3", "-o", out]),
        ("-q", "3.0", ["one-cone", "--genus", "0", "-p", "7", "-q", "3.0", "-o", out]),
        ("--samples", "1e3", ["profile", "--k0", "2", "--ratio", "1/2", "--samples", "1e3", "-o", out]),
        ("--circle", "0x0", ["twist", TWO_LEVEL, "--level", "1/2", "--circle", "0x0", "--psi", "1/5", "-o", out]),
        ("--vertex", "-0", ["split", TWO_LEVEL, "--vertex", "-0", "--offset", "1/3", "--level", "3/4", "-o", out]),
    ]:
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == f"error: {flag}: not an integer: {text!r}\n"
    # --k0 takes decimal ASCII numbers: float() would read 1_0 as 10, ' 2'
    # and the full-width digit two as 2, and 0x1p1 is a hexadecimal float
    for text in ("1_0", " 2", "\uff12", "0x1p1"):
        code, stdout, err = run(capsys, "profile", "--k0", text, "--ratio", "1/2", "--samples", "16", "-o", out)
        assert code == 2 and stdout == ""
        assert err.startswith("error: --k0: ")
    assert not (tmp_path / "out").exists()
    for text in ("2", "1.7"):
        code, stdout, _ = run(capsys, "profile", "--k0", text, "--ratio", "1/2", "--samples", "16")
        assert code == 0
        assert stdout.splitlines()[1] == f"0.0,0.0,{float(text)!r},0.0"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--genus", "-1", "--angles", "2,2"],
        ["check", "--genus", "-1", "--angles", "0"],
        ["check", "--genus", "-1", "--angles", "3", "--saddles", "1"],
        ["dim", "--genus", "-2", "--angles", "3,3"],
        ["dim", "--genus", "-1", "--angles", "0"],
        ["dim", "--genus", "-1", "--angles", "3", "--saddles", "1"],
        ["ratios", "--genus", "-1", "--angles", "3,1/2,1/3", "--saddles", "1"],
        ["build", "--genus", "-1", "--angles", "3", "--saddles", "1"],
        ["one-cone", "--genus", "-1", "-p", "3", "-q", "1"],
    ],
    ids=["check", "check-football", "check-refined", "dim", "dim-football", "dim-refined",
         "ratios", "build", "one-cone"],
)
def test_negative_genus_exit_two(capsys, tmp_path, argv):
    if argv[0] in ("build", "one-cone"):
        argv = argv + ["-o", str(tmp_path / "out.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    genus = argv[argv.index("--genus") + 1]
    assert err == f"error: genus {genus} is negative\n"
    assert not (tmp_path / "out.json").exists()


def test_unknown_key_exit_two(capsys, tmp_path):
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    doc["extra"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err == "error: /extra: unknown key 'extra'\n"


@pytest.mark.parametrize(
    "rename, pointer",
    [(("00", None), "/rotations/00"), ((None, "00:b"), "/rotations/0/0")],
    ids=["rotation-key", "arc-end-token"],
)
def test_non_canonical_integer_exit_two(capsys, tmp_path, rename, pointer):
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    key, token = rename
    if key is not None:
        doc["rotations"][key] = doc["rotations"].pop("0")
    if token is not None:
        doc["rotations"]["0"][0] = token
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {pointer}: ")


@pytest.mark.parametrize("long_key", [True, False], ids=["rotation-key", "arc-end-token"])
def test_integer_longer_than_its_count_exit_two(capsys, tmp_path, long_key):
    # 5000 digits pass the integer grammar but exceed int()'s digit limit
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    digits = "1" * 5000
    if long_key:
        doc["rotations"][digits] = doc["rotations"].pop("0")
        pointer = f"/rotations/{digits}"
    else:
        doc["rotations"]["0"][0] = digits + ":b"
        pointer = "/rotations/0/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {pointer}: ") and len(err) < len(pointer) + 200
