import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, make_calabi, make_two_level
from hcmu import serialization as ser
from hcmu.builders import build_one_cone, build_surface
from hcmu.dataset import DataSet, Grid, _on_grid, census
from hcmu.deformations import split, twist
from hcmu.errors import ParseError, ValidationError
from hcmu.geometry import solve_profile

GOLDEN = Path(__file__).resolve().parent / "golden"


def oracle(doc):
    """The canonical text as json writes it, which ser.dumps must match."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_fixture_files_load_and_roundtrip():
    for name, make in [("calabi", make_calabi), ("two_level", make_two_level)]:
        path = FIXTURES / f"{name}.json"
        text = path.read_text()
        ds = ser.load(path)
        assert ds == make()
        assert ser.dumps(ser.save(ds)) == text


def test_calabi_fixture_contents():
    ds = ser.load(FIXTURES / "calabi.json")
    assert ds.ratio == F(2, 3)
    assert census(ds).as_tuple() == (3, 2, 3, 2, 5, 6)


def test_roundtrip_builder_outputs(tmp_path):
    for ds in (
        build_surface(0, [2, 3], {1}),
        build_surface(1, [4, 0, 0], {1}),
        build_one_cone(1, 4, 3),
    ):
        p = tmp_path / "ds.json"
        p.write_text(ser.dumps(ser.save(ds)), encoding="utf-8")
        loaded = ser.load(p)
        assert loaded == ds
        assert ser.dumps(ser.save(loaded)) == p.read_text()


def test_save_refuses_a_rational_the_loader_refuses_at_its_pointer():
    calabi = make_calabi()
    ma = calabi.angulation
    at_limit = F(1, 10**253)  # "1/1" and 253 zeros: the longest text the loader reads
    too_long = F(1, 10**254)
    assert len(str(at_limit)) == ser.MAX_RATIONAL_CHARS == len(str(too_long)) - 1

    def surface(x, ratio=False, arc=None, face=None):
        weights = [x if a == arc else w for a, w in enumerate(calabi.weights)]
        levels = [x if f == face else s for f, s in enumerate(calabi.face_levels)]
        return DataSet(ma, calabi.k0, x if ratio else calabi.ratio, weights, levels)

    key = ser.face_key_token(ma, 1)
    for where, pointer in [
        ({"ratio": True}, "/ratio"),
        ({"arc": 4}, "/arcs/4/weight"),
        ({"face": 1}, f"/face_levels/{key}"),
    ]:
        text = ser.dumps(ser.save(surface(at_limit, **where)))
        assert ser.dumps(ser.save(ser.load_document(json.loads(text)))) == text
        with pytest.raises(ValidationError) as err:
            ser.save(surface(too_long, **where))
        assert err.value.pointer == pointer
        assert str(err.value) == f"{pointer}: rational of 257 characters; a document holds at most 256"


def test_load_from_stream():
    path = FIXTURES / "calabi.json"
    with open(path, "r", encoding="utf-8") as fh:
        ds = ser.load(fh)
    assert ds == make_calabi()


def test_bad_ratio_document():
    doc = ser.save(make_calabi())
    doc["ratio"] = "1"
    with pytest.raises(ValidationError, match="BadRatio"):
        ser.load_document(doc)


def test_zero_weight_document():
    doc = ser.save(make_calabi())
    doc["arcs"][0]["weight"] = "0"
    with pytest.raises(ValidationError, match="BadWeight"):
        ser.load_document(doc)


def test_parse_error_pointers():
    doc = ser.save(make_calabi())
    doc["arcs"][2]["weight"] = "x/y"
    with pytest.raises(ParseError) as err:
        ser.load_document(doc)
    assert err.value.pointer == "/arcs/2/weight"


def test_unknown_face_key_rejected():
    doc = ser.save(make_calabi())
    levels = doc["face_levels"]
    levels["99:b"] = levels.pop(sorted(levels)[0])
    with pytest.raises(ValidationError):
        ser.load_document(doc)


def test_malformed_json():
    with pytest.raises(ParseError):
        ser.load_document([1, 2, 3])


def test_dot_export_calabi_golden():
    got = ser.export_dot(make_calabi())
    want = (GOLDEN / "calabi.dot").read_text()
    assert got == want
    assert got.count(" -- ") == 6
    assert got.count('label="1/2"') == 6
    assert sum(1 for line in got.splitlines() if "shape=circle" in line) == 5


def test_dot_export_star():
    ds = build_one_cone(0, 5, 1)
    got = ser.export_dot(ds)
    assert got.count(" -- ") == 5
    assert sum(1 for line in got.splitlines() if "shape=circle" in line) == 6


def test_profile_csv_golden():
    profile = solve_profile(2.0, F(2, 3), 16)
    got = ser.export_profile_csv(profile)
    want = (GOLDEN / "profile_k2_r23_n16.csv").read_text()
    assert got == want


def test_empty_profile_csv():
    assert ser.export_profile_csv(None) == "v,s,K,h\n"


# -- hostile documents: each is refused with ParseError, quickly ----------------


def hostile(path, value):
    """The Calabi document with the entry at ``path`` replaced by ``value``."""
    doc = ser.save(make_calabi())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def refused(doc, pointer):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        ser.load_document(doc)
    assert time.perf_counter() - start < 1.0
    assert err.value.pointer == pointer
    return err.value


def test_exponent_rational_is_refused_without_expanding_it():
    # Fraction("1e-400000000") would build a 400-million-digit denominator
    refused(hostile(["ratio"], "1e-400000000"), "/ratio")
    refused(hostile(["ratio"], "0.5"), "/ratio")
    refused(hostile(["arcs", 0, "weight"], "1" * 300), "/arcs/0/weight")
    refused(hostile(["face_levels", "0:b"], 1), "/face_levels/0:b")
    refused(hostile(["ratio"], "1/0"), "/ratio")


def test_infinite_k0_is_refused():
    for text in ("inf", "-Infinity", "nan"):
        refused(hostile(["k0"], text), "/k0")
    refused(hostile(["k0"], 2.0), "/k0")


def test_fractional_arc_end_is_refused():
    # int() would truncate 0.9 to vertex 0
    refused(hostile(["arcs", 0, "black"], 0.9), "/arcs/0/black")
    refused(hostile(["arcs", 0, "white"], True), "/arcs/0/white")
    refused(hostile(["arcs", 1, "id"], False), "/arcs/1")


def dropped(path):
    """The Calabi document without the entry at ``path``."""
    doc = ser.save(make_calabi())
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return doc


@pytest.mark.parametrize(
    "make, error, message, pointer",
    [
        (lambda: dropped(["k0"]), ParseError, "missing key 'k0'", "/k0"),
        (lambda: dropped(["arcs", 2, "weight"]), ParseError, "missing key 'weight'", "/arcs/2"),
        (lambda: hostile(["version"], 2), ParseError, "unsupported version 2", "/version"),
        (lambda: hostile(["version"], True), ParseError, "unsupported version True", "/version"),
        (lambda: hostile(["vertices", 1, "id"], 0), ParseError, "duplicate vertex id 0", "/vertices/1"),
        (lambda: hostile(["vertices", 0, "color"], "red"), ParseError, "unknown color 'red'", "/vertices/0"),
        (lambda: hostile(["arcs", 1, "id"], 0), ParseError, "duplicate arc id 0", "/arcs/1"),
        (lambda: dropped(["rotations", "4"]), ParseError, "missing rotation rows", "/rotations"),
        # dart 0 is the least dart of its face, so "0:b" is always a face key
        (lambda: dropped(["face_levels", "0:b"]), ValidationError, "missing face level", "/face_levels"),
    ],
)
def test_document_refusals(make, error, message, pointer):
    with pytest.raises(error) as caught:
        ser.load_document(make())
    assert type(caught.value) is error and caught.value.pointer == pointer
    assert str(caught.value) == f"{pointer}: {message}"


def test_non_object_vertex_entry_is_refused():
    refused(hostile(["vertices", 0], 5), "/vertices/0")
    refused(hostile(["arcs"], {"0": 1}), "/arcs")
    refused(hostile(["rotations", "0"], "0:b"), "/rotations/0")
    refused(hostile(["rotations", "0", 0], "0:x"), "/rotations/0/0")


def test_undecodable_bytes_are_refused(tmp_path):
    # a document is UTF-8 text; these bytes used to escape as UnicodeDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError) as err:
        ser.load(bad)
    assert err.value.pointer == "/"
    with bad.open(encoding="utf-8") as fh, pytest.raises(ParseError) as err:
        ser.load(fh)
    assert err.value.pointer == "/"


def test_non_canonical_entries_are_refused():
    # each of these used to load and then save back differently
    for text in (" 1_0 ", "2", "2e0"):
        refused(hostile(["k0"], text), "/k0")
    for text in ("02/3", "4/6", "-0"):
        refused(hostile(["ratio"], text), "/ratio")
    refused(hostile(["arcs", 0, "weight"], "01/2"), "/arcs/0/weight")
    for text in ("3/1", "0/5", "-01", "1/00"):
        refused(hostile(["arcs", 1, "weight"], text), "/arcs/1/weight")


LEAVES = {
    "k0": lambda doc: (doc, "k0"),
    "ratio": lambda doc: (doc, "ratio"),
    "weight": lambda doc: (doc["arcs"][1], "weight"),
    "level": lambda doc: (doc["face_levels"], sorted(doc["face_levels"])[0]),
}
LEAF_VALUES = st.one_of(
    st.text(alphabet="0123456789/-.e_ ", max_size=8),
    st.integers(),
    st.booleans(),
    st.none(),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    name=st.sampled_from(["calabi", "two_level"]),
    leaf=st.sampled_from(sorted(LEAVES)),
    value=LEAF_VALUES,
)
def test_mutated_document_round_trips_or_is_refused(name, leaf, value):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    parent, key = LEAVES[leaf](doc)
    parent[key] = value
    start = time.perf_counter()
    try:
        ds = ser.load_document(doc)
    except (ParseError, ValidationError):
        pass
    else:
        assert ser.dumps(ser.save(ds)) == oracle(doc)
    assert time.perf_counter() - start < 1.0


# -- the emitter against json, and unknown keys ----------------------------------


def emitter_corpus():
    from test_deformation_stress import deformed_walk

    surfaces = [ser.load(FIXTURES / "calabi.json"), ser.load(FIXTURES / "two_level.json")]
    surfaces += [
        build_surface(0, [2, 3], {1}),
        build_surface(1, [4, 0, 0], {1}),
        build_surface(0, [3] * 11, range(1, 12)),
        build_surface(1, [3, 2, F(1, 2), F(1, 3)], {1, 2}),
        build_one_cone(0, 301, 17),
    ]
    surfaces.append(twist(surfaces[1], F(1, 2), 0, F(1, 5)).dataset)
    base = surfaces[2]
    vertex = next(v for v, a in enumerate(base.vertex_angles()) if a == 3)
    surfaces.append(split(base, vertex, F(1, 3), F(3, 4)))
    surfaces += deformed_walk(1) + deformed_walk(4)
    return [ser.save(ds) for ds in surfaces]


def test_dumps_matches_the_json_oracle():
    docs = emitter_corpus()
    for name in ("calabi", "two_level"):
        docs.append(json.loads((FIXTURES / f"{name}.json").read_text()))
    for doc in docs:
        assert ser.dumps(doc) == oracle(doc)
    # string order of the keys differs from numeric order from 10 on
    assert any(len(doc["vertices"]) >= 11 and len(doc["arcs"]) >= 11 for doc in docs)
    assert any(len(doc["face_levels"]) >= 11 for doc in docs)


def test_dumps_never_enters_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    doc = ser.save(make_two_level())
    with pytest.raises(AssertionError, match="pure-Python"):
        oracle(doc)
    for doc in emitter_corpus():
        ser.dumps(doc)


@pytest.mark.parametrize(
    "path, pointer",
    [
        ([], "/extra"),
        (["vertices", 3], "/vertices/3/extra"),
        (["arcs", 1], "/arcs/1/extra"),
    ],
    ids=["document", "vertex", "arc"],
)
def test_unknown_key_is_refused(path, pointer):
    # saving drops such a key, so the document would not round-trip
    for key, value in [("extra", 1), ("extra", {"nested": []})]:
        doc = json.loads((FIXTURES / "calabi.json").read_text())
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
        err = refused(doc, pointer)
        assert err.message == "unknown key 'extra'"
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    doc["arcs"][1]["a/b~"] = "1"
    refused(doc, "/arcs/1/a~1b~0")


def renamed(doc, section, old, new):
    """``doc`` with the key ``old`` of ``doc[section]`` renamed to ``new``."""
    doc[section] = {new if k == old else k: v for k, v in doc[section].items()}
    return doc


@pytest.mark.parametrize("key", ["00", "+0", "0 ", "٠"])
def test_non_canonical_rotation_key_is_refused(key):
    # "00" would load as vertex 0 and save back as "0"
    doc = renamed(json.loads((FIXTURES / "calabi.json").read_text()), "rotations", "0", key)
    err = refused(doc, f"/rotations/{key}")
    assert err.message == f"rotation key {key!r} is not a vertex id"


@pytest.mark.parametrize("token", ["00:b", "+0:b", "٠:b", ":b"])
def test_non_canonical_arc_end_token_is_refused(token):
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    assert doc["rotations"]["0"][0] == "0:b"
    doc["rotations"]["0"][0] = token
    err = refused(doc, "/rotations/0/0")
    assert err.message == f"malformed arc-end token {token!r}"


def test_rotation_key_pointers_are_escaped():
    for key, token in [("1/2", "1~12"), ("~1", "~01"), ("a/~b", "a~1~0b")]:
        doc = renamed(json.loads((FIXTURES / "calabi.json").read_text()), "rotations", "1", key)
        refused(doc, f"/rotations/{token}")


def test_face_level_key_pointers_are_escaped():
    for key, token in [("0/b", "0~1b"), ("0~b", "0~0b")]:
        doc = json.loads((FIXTURES / "calabi.json").read_text())
        first = sorted(doc["face_levels"])[0]
        renamed(doc, "face_levels", first, key)
        with pytest.raises(ValidationError) as err:
            ser.load_document(doc)
        assert err.value.pointer == f"/face_levels/{token}"


def test_non_str_keys_are_refused_at_their_pointers():
    # json never writes such a key, but a library caller's dict may hold one
    cases = [
        ([], ParseError, "unknown key 7", "/7"),
        (["rotations"], ParseError, "rotation key 7 is not a vertex id", "/rotations/7"),
        (["face_levels"], ValidationError, "7 is not a face of this angulation", "/face_levels/7"),
        (["arcs", 1], ParseError, "unknown key 7", "/arcs/1/7"),
    ]
    for path, error, message, pointer in cases:
        doc = json.loads((FIXTURES / "calabi.json").read_text())
        target = doc
        for step in path:
            target = target[step]
        target[7] = "1/2"
        with pytest.raises(error) as caught:
            ser.load_document(doc)
        assert type(caught.value) is error and (caught.value.message, caught.value.pointer) == (message, pointer)


def test_ids_and_tokens_are_read_without_the_pattern(monkeypatch):
    # each rotation key and arc-end token is one lookup in a table of what save
    # writes; only one that misses it is matched against NATURAL
    calls = []
    natural = ser.NATURAL

    class Counting:
        def fullmatch(self, text):
            calls.append(text)
            return natural.fullmatch(text)

    docs = emitter_corpus()
    monkeypatch.setattr(ser, "NATURAL", Counting())
    for doc in docs:
        ser.load_document(doc)
    assert calls == []
    refused(renamed(docs[0], "rotations", "0", "00"), "/rotations/00")
    assert calls == ["00"]


@pytest.mark.parametrize("digits", [2, 5000])
def test_rotation_key_longer_than_the_vertex_count_is_refused_unread(digits):
    # int() would refuse 5000 digits with a ValueError of its own
    key = "1" * digits
    doc = renamed(json.loads((FIXTURES / "calabi.json").read_text()), "rotations", "0", key)
    err = refused(doc, f"/rotations/{key}")
    assert err.message == f"bad or duplicate rotation key {key:.80}"


@pytest.mark.parametrize("digits", [2, 5000])
def test_arc_id_longer_than_the_arc_count_is_refused_unread(digits):
    token = "1" * digits + ":b"
    doc = json.loads((FIXTURES / "calabi.json").read_text())
    doc["rotations"]["0"][1] = token
    err = refused(doc, "/rotations/0/1")
    assert err.message == f"arc id of {token!r:.80} is not below the arc count 6"


# -- the loader's integer grid against the Fraction loader ------------------------


def set_at(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def first_level(doc):
    return sorted(doc["face_levels"])[0]


def every_weight(doc, text):
    for arc in doc["arcs"]:
        arc["weight"] = text
    return doc


LOWEST = "is not in lowest terms; write"
NOT_RATIONAL = "not a rational p or p/q in lowest terms:"

# label -> (mutation of a fixture document, what the Fraction loader raised:
# class, message with "{arcs}" standing for the arc count, pointer)
LOADER_MUTATIONS = {
    "ratio 4/6": (lambda d: set_at(d, ["ratio"], "4/6"), (ParseError, f"'4/6' {LOWEST} 2/3", "/ratio")),
    "ratio -0": (lambda d: set_at(d, ["ratio"], "-0"), (ParseError, f"{NOT_RATIONAL} '-0'", "/ratio")),
    "weight 2/4": (
        lambda d: set_at(d, ["arcs", 0, "weight"], "2/4"),
        (ParseError, f"'2/4' {LOWEST} 1/2", "/arcs/0/weight"),
    ),
    "weight -0": (
        lambda d: set_at(d, ["arcs", 3, "weight"], "-0"),
        (ParseError, f"{NOT_RATIONAL} '-0'", "/arcs/3/weight"),
    ),
    "weight 1/1": (
        lambda d: set_at(d, ["arcs", 1, "weight"], "1/1"),
        (ParseError, f"'1/1' {LOWEST} 1", "/arcs/1/weight"),
    ),
    "weight 0": (
        lambda d: set_at(d, ["arcs", 1, "weight"], "0"),
        (ValidationError, "/BadWeight: BadWeight(1): weight 0 must be > 0", "/BadWeight"),
    ),
    "weight -1/2": (
        lambda d: set_at(d, ["arcs", 2, "weight"], "-1/2"),
        (ValidationError, "/BadWeight: BadWeight(2): weight -1/2 must be > 0", "/BadWeight"),
    ),
    # the text read once per document is refused where it first occurs
    "weight 3/6 on every arc": (
        lambda d: every_weight(d, "3/6"),
        (ParseError, f"'3/6' {LOWEST} 1/2", "/arcs/0/weight"),
    ),
    "weight 1/2, then 2/4": (
        lambda d: set_at(set_at(d, ["arcs", 0, "weight"], "1/2"), ["arcs", 1, "weight"], "2/4"),
        (ParseError, f"'2/4' {LOWEST} 1/2", "/arcs/1/weight"),
    ),
    "weight as a list": (
        lambda d: set_at(d, ["arcs", 2, "weight"], ["1/2"]),
        (ParseError, f"{NOT_RATIONAL} ['1/2']", "/arcs/2/weight"),
    ),
    "weight as an int": (
        lambda d: set_at(d, ["arcs", 2, "weight"], 1),
        (ParseError, f"{NOT_RATIONAL} 1", "/arcs/2/weight"),
    ),
    "level 2/4": (
        lambda d: set_at(d, ["face_levels", first_level(d)], "2/4"),
        (ParseError, f"'2/4' {LOWEST} 1/2", "/face_levels/0:b"),
    ),
    "level -0": (
        lambda d: set_at(d, ["face_levels", first_level(d)], "-0"),
        (ParseError, f"{NOT_RATIONAL} '-0'", "/face_levels/0:b"),
    ),
    "level 1/1": (
        lambda d: set_at(d, ["face_levels", first_level(d)], "1/1"),
        (ParseError, f"'1/1' {LOWEST} 1", "/face_levels/0:b"),
    ),
    "level 1": (
        lambda d: set_at(d, ["face_levels", first_level(d)], "1"),
        (ValidationError, "/BadLevel: BadLevel(0): level 1 outside (0, 1)", "/BadLevel"),
    ),
    "level as an object": (
        lambda d: set_at(d, ["face_levels", first_level(d)], {}),
        (ParseError, f"{NOT_RATIONAL} {{}}", "/face_levels/0:b"),
    ),
    "rotation key of 2 digits": (
        lambda d: renamed(d, "rotations", "0", "10"),
        (ParseError, "bad or duplicate rotation key 10", "/rotations/10"),
    ),
    "rotation key of 1 digit past the count": (
        lambda d: renamed(d, "rotations", "0", "9"),
        (ParseError, "bad or duplicate rotation key 9", "/rotations/9"),
    ),
    "rotation key of 40 digits": (
        lambda d: renamed(d, "rotations", "0", "1" * 40),
        (ParseError, f"bad or duplicate rotation key {'1' * 40}", f"/rotations/{'1' * 40}"),
    ),
    "arc id of 2 digits": (
        lambda d: set_at(d, ["rotations", "0", 0], "11:b"),
        (ParseError, "arc id of '11:b' is not below the arc count {arcs}", "/rotations/0/0"),
    ),
    "arc id of 40 digits": (
        lambda d: set_at(d, ["rotations", "0", 0], "1" * 40 + ":b"),
        (ParseError, f"arc id of '{'1' * 40}:b' is not below the arc count " + "{arcs}", "/rotations/0/0"),
    ),
    "arc id of 1 digit past the count": (
        lambda d: set_at(d, ["rotations", "0", 0], "9:b"),
        (ValidationError, "/rotations: malformed dart (9, 'b')", "/rotations"),
    ),
    "arc id with a leading zero": (
        lambda d: set_at(d, ["rotations", "0", 0], "00:b"),
        (ParseError, "malformed arc-end token '00:b'", "/rotations/0/0"),
    ),
}


@pytest.mark.parametrize("label", sorted(LOADER_MUTATIONS))
@pytest.mark.parametrize("name", ["calabi", "two_level"])
def test_the_loader_refuses_as_the_fraction_loader_did(name, label):
    mutate, (kind, message, pointer) = LOADER_MUTATIONS[label]
    doc = mutate(json.loads((FIXTURES / f"{name}.json").read_text()))
    with pytest.raises(kind) as err:
        ser.load_document(doc)
    got = err.value.message if kind is ParseError else str(err.value)
    assert (got, err.value.pointer) == (message.replace("{arcs}", str(len(doc["arcs"]))), pointer)


def test_the_loaded_grid_is_the_grid_of_the_parsed_fractions():
    docs = emitter_corpus()
    # a level text that is also a weight text, read once for both
    shared = json.loads((FIXTURES / "calabi.json").read_text())
    shared["face_levels"][first_level(shared)] = shared["arcs"][0]["weight"]
    docs.append(shared)
    for doc in docs:
        ds = ser.load_document(doc)
        weights = [ser.parse_fraction(a["weight"]) for a in sorted(doc["arcs"], key=lambda a: a["id"])]
        levels = [ser.parse_fraction(doc["face_levels"][ser.face_key_token(ds.angulation, f)])
                  for f in range(ds.angulation.num_faces)]
        assert ds.weights == tuple(weights) and ds.face_levels == tuple(levels)
        assert all(type(x) is F for x in ds.weights + ds.face_levels)
        assert ds.grid == Grid(*_on_grid(weights), *_on_grid(levels))
        assert ser.dumps(ser.save(ds)) == oracle(doc)
    # weights over several denominators, and levels off 1/2
    assert any(len({ser.parse_fraction(a["weight"]).denominator for a in doc["arcs"]}) >= 3 for doc in docs)
    assert any(set(doc["face_levels"].values()) - {"1/2"} for doc in docs)


def test_the_loader_parses_each_distinct_rational_once(monkeypatch):
    doc = ser.save(build_surface(0, [F(3)] * 30, range(1, 31)))
    texts = [a["weight"] for a in doc["arcs"]] + list(doc["face_levels"].values())
    assert len(set(texts)) < len(texts) / 10
    calls = []
    parse = ser.parse_fraction

    def counting(text, pointer=""):
        calls.append(text)
        return parse(text, pointer)

    monkeypatch.setattr(ser, "parse_fraction", counting)
    ser.load_document(doc)
    assert sorted(calls) == sorted({doc["ratio"], *texts})
