"""JSON persistence of data sets, plus DOT and CSV exports.

The document stores rationals as strings in lowest terms and the maximum
curvature as the repr of a float; loading accepts exactly those forms and
no key outside the schema, and reads vertex ids, arc-end tokens and face
keys through tables of the texts :func:`save` writes.  Emission is canonical (sorted keys, two-space
indent, trailing newline), so saving a loaded canonical document is
byte-identical.  :func:`dumps` writes that layout directly, one f-string per
entry with strings escaped by ``json``'s own C escaper.  Its text is what
``json.dumps`` writes with sorted keys and a two-space indent, plus a
newline; the tests keep that call as the oracle, since any indent sends
``json`` through its pure-Python encoder.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .angulation import BLACK, END, WHITE, MixedAngulation
from .dataset import DataSet
from .errors import HcmuError, ParseError, ValidationError

SCHEMA_VERSION = 1

# The only rationals a document may hold: what str(Fraction) writes, up to
# a length that keeps parsing cheap (Fraction would expand "1e-400000000").
# The pattern rules out leading zeros, "-0" and a zero denominator; lowest
# terms and a denominator other than 1 are checked on the integers.
RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
MAX_RATIONAL_CHARS = 256
# Vertex ids in rotation keys and arc ids in arc-end tokens: what str(int)
# writes for a natural number.
NATURAL = re.compile(r"0|[1-9][0-9]*")


def parse_fraction(text, pointer="") -> Fraction:
    """The rational ``text``, which must be exactly as str(Fraction) writes it."""
    match = RATIONAL.fullmatch(text) if type(text) is str and len(text) <= MAX_RATIONAL_CHARS else None
    if match is None:
        raise ParseError(f"not a rational p or p/q in lowest terms: {text!r:.80}", pointer)
    numerator, denominator = match.groups()
    if denominator is None:
        return Fraction(int(numerator))
    denominator = int(denominator)
    value = Fraction(int(numerator), denominator)
    if value.denominator != denominator or denominator == 1:
        raise ParseError(f"{text!r:.80} is not in lowest terms; write {value}", pointer)
    return value


def dart_token(d: int) -> str:
    """The token "arc:end" of int dart d, end "b" or "w"."""
    return f"{d >> 1}:{END[d & 1]}"


def _miss(text, count):
    """``text``, missing from the table ``{str(i): i for i in range(count)}``, as
    a number, ``count`` or more; None unless str(int) writes it, and -1 if it
    has more digits than ``count``, refused unread: int() raises on those."""
    if type(text) is not str or not NATURAL.fullmatch(text):
        return None
    return int(text) if len(text) <= len(str(count)) else -1


def face_key_token(ma: MixedAngulation, face_index: int) -> str:
    return dart_token(ma.face_keys[face_index])


def _rational(text, parsed, pointer):
    """The Fraction of ``text`` as :func:`parse_fraction` reads it; ``parsed``
    holds each distinct text of a document read so far."""
    hit = parsed.get(text) if type(text) is str else None
    if hit is None:
        hit = parsed[text] = parse_fraction(text, pointer)  # refuses a text that is not a str
    return hit


def save(ds: DataSet) -> dict:
    """Canonical JSON document of a data set; its rationals are Fractions, so str formats them.
    A rational longer than the loader reads is refused at its pointer."""
    ma = ds.angulation
    doc = {
        "version": SCHEMA_VERSION,
        "k0": repr(ds.k0),
        "ratio": str(ds.ratio),
        "vertices": [
            {"id": v, "color": ma.colors[v]} for v in range(ma.num_vertices)
        ],
        "arcs": [
            {
                "id": a,
                "black": ma.arcs[a][0],
                "white": ma.arcs[a][1],
                "weight": str(ds.weights[a]),
            }
            for a in range(ma.num_arcs)
        ],
        "rotations": {
            str(v): [dart_token(d) for d in ma.darts[v]]
            for v in range(ma.num_vertices)
        },
        "face_levels": {
            face_key_token(ma, f): str(ds.face_levels[f])
            for f in range(ma.num_faces)
        },
    }
    _fits(doc["ratio"], "/ratio")
    for a, arc in enumerate(doc["arcs"]):
        _fits(arc["weight"], "/arcs/{}/weight", a)
    for key, text in doc["face_levels"].items():
        _fits(text, "/face_levels/{}", _token(key))
    return doc


def _fits(text, pointer, *where):
    """Refuses ``text``, too long to load, at ``pointer`` formatted with ``where``."""
    if len(text) > MAX_RATIONAL_CHARS:
        message = f"rational of {len(text)} characters; a document holds at most {MAX_RATIONAL_CHARS}"
        raise ValidationError(message, pointer.format(*where))


def _block(entries, brackets, indent):
    """JSON array or object text of formatted ``entries``, ``indent`` spaces in."""
    if not entries:
        return brackets
    inner = " " * indent
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(entries) + f"\n{inner[2:]}{brackets[1]}"


def dumps(doc: dict) -> str:
    """Canonical text of ``doc``, a document as :func:`save` returns it.

    Keys come in ``sort_keys`` order: the fixed members of the document and
    of its entries as written below, rotation and face-level keys sorted as
    strings (``"10"`` before ``"2"``).
    """
    vertices = [
        f'{{\n      "color": {_string(v["color"])},\n      "id": {v["id"]:d}\n    }}'
        for v in doc["vertices"]
    ]
    arcs = [
        f'{{\n      "black": {a["black"]:d},\n      "id": {a["id"]:d},\n'
        f'      "weight": {_string(a["weight"])},\n      "white": {a["white"]:d}\n    }}'
        for a in doc["arcs"]
    ]
    rotations = [
        f"{_string(key)}: {_block(list(map(_string, row)), '[]', 6)}"
        for key, row in sorted(doc["rotations"].items())
    ]
    levels = [
        f"{_string(key)}: {_string(text)}"
        for key, text in sorted(doc["face_levels"].items())
    ]
    return (
        f'{{\n  "arcs": {_block(arcs, "[]", 4)},\n'
        f'  "face_levels": {_block(levels, "{}", 4)},\n'
        f'  "k0": {_string(doc["k0"])},\n'
        f'  "ratio": {_string(doc["ratio"])},\n'
        f'  "rotations": {_block(rotations, "{}", 4)},\n'
        f'  "version": {doc["version"]:d},\n'
        f'  "vertices": {_block(vertices, "[]", 4)}\n}}\n'
    )


_JSON_NAMES = {list: "array", dict: "object", str: "string"}


def _require(doc, key, pointer, kind=None):
    """``doc[key]``, which must be an instance of ``kind`` when it is given."""
    if not isinstance(doc, dict):
        raise ParseError("entry must be a JSON object", pointer)
    if key not in doc:
        raise ParseError(f"missing key {key!r}", pointer)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{key!r} must be a JSON {_JSON_NAMES[kind]}", pointer)
    return value


def _index(value, size, what, pointer):
    """A JSON integer (not a boolean) in 0..size-1."""
    if type(value) is not int or not 0 <= value < size:
        raise ParseError(f"{what} must be an integer in 0..{size - 1}, not {value!r:.80}", pointer)
    return value


def _token(key):
    """``key`` as a JSON pointer reference token (RFC 6901)."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _known_keys(obj, keys):
    """Refuses a key of the JSON object ``obj`` outside ``keys``."""
    if not keys.issuperset(obj):
        key = next(k for k in obj if k not in keys)
        raise ParseError(f"unknown key {key!r:.80}", f"/{_token(key)}")


def _within(exc, prefix):
    """``exc``, raised with a pointer relative to an entry, at ``prefix``."""
    return ParseError(exc.message, prefix + exc.pointer)


DOCUMENT_KEYS = frozenset({"version", "k0", "ratio", "vertices", "arcs", "rotations", "face_levels"})
VERTEX_KEYS = frozenset({"id", "color"})
ARC_KEYS = frozenset({"id", "black", "white", "weight"})


def load_document(doc: dict) -> DataSet:
    """Validated data set from a parsed JSON document.

    Every object may hold only its schema's keys.  Rotation keys, arc-end
    tokens and face-level keys are read through tables of what :func:`save`
    writes, one lookup each; only a miss is classified.  A pointer is
    formatted only when a check refuses.  Each distinct rational is parsed
    once.
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "/")
    version = _require(doc, "version", "/version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported version {version!r}", "/version")
    _known_keys(doc, DOCUMENT_KEYS)
    text = _require(doc, "k0", "/k0", str)
    try:
        # the repr of a float has at most 24 characters
        k0 = float(text) if len(text) <= 32 else math.nan
    except ValueError:
        k0 = math.nan
    if not math.isfinite(k0) or repr(k0) != text:
        raise ParseError(f"k0 must be a finite float as repr writes it, not {text!r:.80}", "/k0")
    ratio = parse_fraction(_require(doc, "ratio", "/ratio"), "/ratio")

    vertices = _require(doc, "vertices", "/vertices", list)
    colors = [None] * len(vertices)
    for i, item in enumerate(vertices):
        try:
            vid = _index(_require(item, "id", ""), len(vertices), "vertex id", "")
            color = _require(item, "color", "")
            if colors[vid] is not None:
                raise ParseError(f"duplicate vertex id {vid}")
            if color not in (BLACK, WHITE):
                raise ParseError(f"unknown color {color!r}")
            _known_keys(item, VERTEX_KEYS)
        except ParseError as exc:
            raise _within(exc, f"/vertices/{i}") from None
        colors[vid] = color

    arc_entries = _require(doc, "arcs", "/arcs", list)
    arcs = [None] * len(arc_entries)
    weights = [None] * len(arc_entries)
    parsed = {}
    for i, item in enumerate(arc_entries):
        try:
            aid = _index(_require(item, "id", ""), len(arc_entries), "arc id", "")
            if arcs[aid] is not None:
                raise ParseError(f"duplicate arc id {aid}")
            arcs[aid] = (
                _index(_require(item, "black", ""), len(vertices), "black end", "/black"),
                _index(_require(item, "white", ""), len(vertices), "white end", "/white"),
            )
            weights[aid] = _rational(_require(item, "weight", ""), parsed, "/weight")
            _known_keys(item, ARC_KEYS)
        except ParseError as exc:
            raise _within(exc, f"/arcs/{i}") from None

    rotations = [None] * len(vertices)
    rot_doc = _require(doc, "rotations", "/rotations", dict)
    vertex_of = {str(v): v for v in range(len(vertices))}
    dart_of = {dart_token(d): d for d in range(2 * len(arcs))}
    for key, row in rot_doc.items():
        v = vertex_of.get(key)
        if v is None:
            if _miss(key, len(vertices)) is None:
                raise ParseError(f"rotation key {key!r:.80} is not a vertex id", f"/rotations/{_token(key)}")
            raise ParseError(f"bad or duplicate rotation key {key:.80}", f"/rotations/{key}")
        if not isinstance(row, list):
            raise ParseError("rotation row must be a JSON array", f"/rotations/{key}")
        darts = rotations[v] = []
        for token in row:
            d = dart_of.get(token) if type(token) is str else None
            if d is None:
                arc, _, end = token.partition(":") if type(token) is str else ("", "", "")
                arc_id = _miss(arc, len(arcs)) if end in END else None
                pointer = f"/rotations/{key}/{len(darts)}"
                if arc_id is None:
                    raise ParseError(f"malformed arc-end token {token!r:.80}", pointer)
                if arc_id < 0:
                    raise ParseError(f"arc id of {token!r:.80} is not below the arc count {len(arcs)}", pointer)
                d = 2 * arc_id + (end == "w")  # an arc id past the count: MixedAngulation refuses it
            darts.append(d)
    if any(r is None for r in rotations):
        raise ParseError("missing rotation rows", "/rotations")

    try:
        ma = MixedAngulation(colors, arcs, rotations)
    except HcmuError as exc:
        raise ValidationError(str(exc), "/rotations")

    level_doc = _require(doc, "face_levels", "/face_levels", dict)
    keys = {face_key_token(ma, f): f for f in range(ma.num_faces)}
    levels = [None] * ma.num_faces
    for key, text in level_doc.items():
        if key not in keys:
            raise ValidationError(f"{key!r} is not a face of this angulation", f"/face_levels/{_token(key)}")
        try:
            levels[keys[key]] = _rational(text, parsed, "")
        except ParseError as exc:
            raise _within(exc, f"/face_levels/{_token(key)}") from None
    if any(s is None for s in levels):
        raise ValidationError("missing face level", "/face_levels")

    return DataSet(ma, k0, ratio, weights, levels)


def load(source) -> DataSet:
    """Data set from a file path or a readable stream."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"invalid JSON: {exc}", "/")
    return load_document(doc)


# -- exports ---------------------------------------------------------------


def export_dot(ds: DataSet) -> str:
    """Graphviz text with filled/open vertices and weight edge labels."""
    ma = ds.angulation
    lines = ["graph surface {"]
    for v in range(ma.num_vertices):
        if ma.colors[v] == BLACK:
            style = "shape=circle, style=filled, fillcolor=black, fontcolor=white"
        else:
            style = "shape=circle, style=filled, fillcolor=white"
        lines.append(f'  v{v} [{style}, label="{v}"];')
    for a, (b, w) in enumerate(ma.arcs):
        lines.append(f'  v{b} -- v{w} [label="{ds.weights[a]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_profile_csv(profile) -> str:
    """CSV with columns v, s, K, h."""
    rows = ["v,s,K,h"]
    if profile is not None:
        for v, s, k, h in zip(profile.v, profile.s, profile.K, profile.h):
            rows.append(f"{float(v)!r},{float(s)!r},{float(k)!r},{float(h)!r}")
    return "\n".join(rows) + "\n"
