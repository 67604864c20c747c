"""Flat text format for models.

One file holds one graded space with its maps and structure constants::

    kind associative

    degrees
    0 : one
    1 : a b
    2 : e

    map d0 shift 1
    a -> b : 1
    c -> e : -1/2+1*i

    structure
    one a -> a : 1

    sl2 e f h
    J J

Sections start with a keyword line (kind, degrees, map, structure, sl2, J);
blank lines and '#' comments are skipped.  A degrees line is DEGREE : LABEL
..., split at its first ':'.  Entries are whitespace-separated tokens: a map
entry is exactly FROM -> TO : SCALAR and a structure entry exactly
L1 L2 -> L3 : SCALAR, the form the serializer writes, so '->' and ':' stand
apart from their neighbours.  A label is any token without '#' other than
'->', ':' and the six section keywords, which would start an entry as a
keyword line (a label such as a:b reads back); a degrees line that declares
one of those is refused.  Each line is split once, and the structure
entries are summed into their (L1, L2) targets as they are read.  Scalars
use the exact grammar of dgkit.scalars.  Each map name is declared once;
the sl2 and J lines name declared shift-0 maps, which then also serve as e,
f, h and J.

Parsing returns the StructuredAlgebra.  `dgkit.qdolbeault.connection_model`
reads it as a connection model, and the map names that carry meaning there
(del_bar, del_bar_J, del, e, f, h, J) are qdolbeault's.  Serialization is
canonical: parsing a serialized model and serializing it again reproduces
the same bytes.
"""

from __future__ import annotations

from typing import Optional

from dgkit.errors import ModelError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.scalars import Scalar, ScalarParseError


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def _scalar(tok: str, line_no: int, line: str, parsed: dict) -> Scalar:
    """The scalar of an entry's last token, parsed once per distinct token
    into `parsed`."""
    if tok not in parsed:
        try:
            parsed[tok] = Scalar.parse(tok)
        except ScalarParseError as exc:
            raise ParseError(str(exc), line_no, line.rfind(tok) + 1) from exc
    return parsed[tok]


# the labels an entry's tokens cannot tell apart from its separators, and
# those its first token cannot tell apart from a section's keyword line
_RESERVED = {"->": "an entry separator", ":": "an entry separator",
             **dict.fromkeys(("kind", "degrees", "map", "structure", "sl2", "J"),
                             "a section keyword")}


def parse_model(text: str) -> StructuredAlgebra:
    kind = "associative"
    degrees: dict[int, list[str]] = {}
    maps_raw: list[tuple] = []          # (name, shift, [(frm, to, Scalar)])
    structure: dict[tuple[str, str], dict[str, Scalar]] = {}
    declared: dict[str, int] = {}       # map name -> line that declares it
    aliases: list[tuple] = []           # (line, keyword, [(alias, map name)])
    scalars: dict[str, Scalar] = {}

    section = None
    current_map = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "kind":
            if len(tokens) != 2 or tokens[1] not in ("associative", "lie"):
                raise ParseError("kind must be associative|lie", line_no)
            kind = tokens[1]
            section = None
            continue
        if head == "degrees":
            section = "degrees"
            continue
        if head == "map":
            if len(tokens) != 4 or tokens[2] != "shift":
                raise ParseError("map header is: map NAME shift INT", line_no)
            try:
                shift = int(tokens[3])
            except ValueError:
                raise ParseError(f"bad shift {tokens[3]!r}", line_no)
            if tokens[1] in declared:
                raise ParseError(f"map {tokens[1]!r} is already declared at line "
                                 f"{declared[tokens[1]]}", line_no)
            declared[tokens[1]] = line_no
            current_map = []
            maps_raw.append((tokens[1], shift, current_map))
            section = "map"
            continue
        if head == "structure":
            section = "structure"
            continue
        if head == "sl2":
            if len(tokens) != 4:
                raise ParseError("sl2 line is: sl2 E_NAME F_NAME H_NAME", line_no)
            aliases.append((line_no, "sl2", list(zip(("e", "f", "h"), tokens[1:]))))
            section = None
            continue
        if head == "J":
            if len(tokens) != 2:
                raise ParseError("J line is: J MAP_NAME", line_no)
            aliases.append((line_no, "J", [("J", tokens[1])]))
            section = None
            continue

        if section == "map":
            if len(tokens) != 5 or tokens[1] != "->" or tokens[3] != ":":
                raise ParseError("map entry is: FROM -> TO : SCALAR", line_no)
            current_map.append((head, tokens[2], _scalar(tokens[4], line_no, line, scalars)))
        elif section == "structure":
            if len(tokens) != 6 or tokens[2] != "->" or tokens[4] != ":":
                raise ParseError("structure entry is: L1 L2 -> L3 : SCALAR", line_no)
            c = _scalar(tokens[5], line_no, line, scalars)
            targets = structure.setdefault((head, tokens[1]), {})
            lt = tokens[3]
            targets[lt] = targets[lt] + c if lt in targets else c
        elif section == "degrees":
            left, colon, right = line.partition(":")
            if not colon:
                raise ParseError("degree line is: DEGREE : label ...", line_no)
            try:
                deg = int(left.strip())
            except ValueError:
                raise ParseError(f"bad degree {left.strip()!r}", line_no)
            labs = right.split()
            for lab in labs:
                if lab in _RESERVED:
                    raise ParseError(f"label {lab!r} is reserved as {_RESERVED[lab]}",
                                     line_no)
            degrees.setdefault(deg, []).extend(labs)
        else:
            raise ParseError(f"unexpected line outside any section: {line.rstrip()!r}",
                             line_no)

    if not any(degrees.values()):
        raise ParseError("model declares no basis labels: a 'degrees' section "
                         "with at least one label is required")
    space = GradedSpace(degrees)
    differentials = {}
    maps = {}
    for name, shift, entries in maps_raw:
        gmap = GradedMap.from_entries(space, space, shift, entries)
        if shift == 1:
            differentials[name] = gmap
        else:
            maps[name] = gmap
    # an sl2 or J line makes its named maps e, f, h or J, each name once
    for line_no, keyword, pairs in aliases:
        for alias, name in pairs:
            if name not in maps:
                raise ModelError(f"{keyword} declares {name!r} but no such shift-0 map")
            if alias == name:
                continue
            if alias in declared:
                raise ParseError(f"{keyword} names map {name!r} as {alias!r}, but map "
                                 f"{alias!r} is declared at line {declared[alias]}", line_no)
            declared[alias] = line_no
            maps[alias] = maps[name]
    return StructuredAlgebra(space, kind, differentials, structure, maps)


def parse_model_file(path: str) -> StructuredAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read model file {path!r}: {exc}") from exc
    return parse_model(text)


def serialize_model(algebra: StructuredAlgebra) -> str:
    out = [f"kind {algebra.kind}", ""]
    out.append("degrees")
    for k in algebra.space.degrees():
        out.append(f"{k} : " + " ".join(algebra.space.labels(k)))
    out.append("")

    loc = algebra.space.label_loc

    def entry_key(e):
        frm, to, _ = e
        return (loc[frm][0], loc[frm][1], loc[to][1])

    named = [(name, 1, g) for name, g in sorted(algebra.differentials.items())]
    named += [(name, g.shift, g) for name, g in sorted(algebra.maps.items())]
    for name, shift, g in named:
        out.append(f"map {name} shift {shift}")
        for frm, to, c in sorted(g.entries(), key=entry_key):
            out.append(f"{frm} -> {to} : {c}")
        out.append("")

    triples = algebra.structure_triples()
    if triples:
        out.append("structure")

        def triple_key(t):
            l1, l2, lt, _ = t
            return (loc[l1][0], loc[l1][1], loc[l2][0], loc[l2][1], loc[lt][1])

        for l1, l2, lt, c in sorted(triples, key=triple_key):
            out.append(f"{l1} {l2} -> {lt} : {c}")
        out.append("")

    if all(n in algebra.maps for n in ("e", "f", "h")):
        out.append("sl2 e f h")
    if "J" in algebra.maps:
        out.append("J J")
    return "\n".join(out).rstrip("\n") + "\n"


def serialize_connection_model(m) -> str:
    """The file of a dgkit.qdolbeault.ConnectionModel: its full model if it
    has one, else its Dolbeault algebra."""
    if m.full_model is not None:
        return serialize_model(m.full_model)
    return serialize_model(m.dolbeault)
