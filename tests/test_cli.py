import time
from fractions import Fraction as F

import pytest

from conftest import FIXTURES
from hcmu import cli
from hcmu import serialization as ser
from hcmu.balance import HallCut, SolutionSpace
from hcmu.cli import main


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


def test_build_empty_space(capsys, tmp_path):
    code, _, err = run(
        capsys, "build", "--genus", "1", "--angles", "2", "--saddles", "1",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "infeasible" in err


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


def test_twist_roundtrip(capsys, tmp_path):
    target = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", "1/5", "-o", str(target),
    )
    assert code == 0
    ds = ser.load(target)
    assert ds.ratio == F(1, 2)


def test_twist_non_generic(capsys, tmp_path):
    code, out, _ = run(
        capsys, "twist", str(FIXTURES / "two_level.json"),
        "--level", "1/2", "--circle", "0", "--psi", "3/2",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert "non-generic" in out


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
    bad.write_text(ser.dumps(doc))
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
    bad.write_text(ser.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error: /")


def test_internal_error_exit_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(FIXTURES / "calabi.json"))
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


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


def test_non_canonical_argument_exit_two(capsys):
    code, _, err = run(capsys, "dim", "--genus", "0", "--angles", "2,2,4/6")
    assert code == 2
    assert err == "error: --angles: '4/6' is not in lowest terms; write 2/3\n"


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
