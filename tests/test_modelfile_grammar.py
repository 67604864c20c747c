"""The token grammar of model files, against the former parser.

`ref_parse_model` is the parser as it was before entries were read as
whitespace-separated tokens: it split a map entry at its first '->' and the
first ':' after it, and a structure entry likewise, and it summed the
structure constants in a second pass, `StructuredAlgebra.structure_from_triples`.
On every generator's serialized output the two give the same algebra.  On
mutants of those files they give the same algebra or both refuse the file,
except where the grammars differ by design:

* an entry whose '->' or ':' touches a neighbouring token (`x x->x:1`) was
  read before and is now refused at its line with the entry's shape;
* a label that contains ':' or '->' (such as `a:b`) could not be the target
  of an entry before and now reads back wherever it stands;
* a degrees line that declares the label '->' or ':' itself is refused.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.errors import ModelError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.modelfile import (
    ParsedModel,
    ParseError,
    parse_model,
    serialize_connection_model,
    serialize_model,
)
from dgkit.models import (
    dots_squares_model,
    end_tensor,
    nilpotent_torus_model,
    torus_model,
    zigzag_model,
)
from dgkit.scalars import Scalar, ScalarParseError


def _ref_scalar(tok, line_no, line, parsed):
    if tok not in parsed:
        try:
            parsed[tok] = Scalar.parse(tok)
        except ScalarParseError as exc:
            raise ParseError(str(exc), line_no, line.find(tok) + 1) from exc
    return parsed[tok]


def ref_parse_model(text):
    """The former `modelfile.parse_model`, kept as the reference."""
    kind = "associative"
    degrees = {}
    maps_raw = []
    structure_raw = []
    declared = {}
    aliases = []
    scalars = {}

    section = None
    current_map = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
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
            current_map = (tokens[1], shift, [])
            maps_raw.append(current_map)
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

        if section == "degrees":
            if ":" not in line:
                raise ParseError("degree line is: DEGREE : label ...", line_no)
            left, right = line.split(":", 1)
            try:
                deg = int(left.strip())
            except ValueError:
                raise ParseError(f"bad degree {left.strip()!r}", line_no)
            degrees.setdefault(deg, []).extend(right.split())
        elif section == "map":
            if "->" not in line or ":" not in line:
                raise ParseError("map entry is: FROM -> TO : SCALAR", line_no)
            left, rest = line.split("->", 1)
            mid, stok = rest.split(":", 1)
            frm = left.strip()
            to = mid.strip()
            stok = stok.strip()
            if not frm or not to or not stok or " " in frm or " " in to:
                raise ParseError("map entry is: FROM -> TO : SCALAR", line_no)
            current_map[2].append((frm, to, _ref_scalar(stok, line_no, line, scalars)))
        elif section == "structure":
            if "->" not in line or ":" not in line:
                raise ParseError("structure entry is: L1 L2 -> L3 : SCALAR", line_no)
            left, rest = line.split("->", 1)
            mid, stok = rest.split(":", 1)
            pair = left.split()
            if len(pair) != 2:
                raise ParseError("structure entry needs two source labels", line_no)
            structure_raw.append((pair[0], pair[1], mid.strip(),
                                  _ref_scalar(stok.strip(), line_no, line, scalars)))
        else:
            raise ParseError(f"unexpected line outside any section: {line!r}", line_no)

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
    algebra = StructuredAlgebra(
        space, kind, differentials,
        StructuredAlgebra.structure_from_triples(structure_raw), maps)
    return ParsedModel(algebra)


def same_algebra(a, b):
    return (a.space == b.space and a.kind == b.kind and a.differentials == b.differentials
            and a.maps == b.maps and a.structure == b.structure)


GENERATED = {
    **{f"torus_r{r}": serialize_connection_model(torus_model(r)) for r in (1, 2, 3)},
    **{f"twisted_r{r}": serialize_connection_model(nilpotent_torus_model(r)) for r in (2, 3)},
    "dots-squares": serialize_model(
        dots_squares_model({0: 1, 1: 2}, [0, 1], [1], seed=5).algebra),
    "zigzag": serialize_model(zigzag_model(1, seed=2).algebra),
    "end_tensor": serialize_model(
        end_tensor(dots_squares_model({0: 1}, [0], seed=7), 2).algebra),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_the_token_parser_reads_every_generated_file_as_the_former_parser(name):
    text = GENERATED[name]
    new, ref = parse_model(text).algebra, ref_parse_model(text).algebra
    assert same_algebra(new, ref)
    assert serialize_model(new) == text


def _outcome(parse, text):
    try:
        return parse(text).algebra, None
    except (ParseError, ModelError) as exc:
        return None, exc


def _glued(code):
    """Whether the entry `code` carries a '->' or ':' that touches another
    token, the form only the former grammar read."""
    return any(t != sep and sep in t for t in code.split() for sep in ("->", ":"))


def _renamed(text, renames):
    """text with each whitespace-separated token in renames replaced."""
    return "".join(" ".join(renames.get(t, t) for t in line.split()) + "\n"
                   for line in text.splitlines())


JUNK = ["", "0", "1", "-1/2", "1/0", "x", ":", "->", "kind", "degrees", "map", "structure"]


@st.composite
def mutants(draw):
    """A generated file with one to three of: a line deleted, duplicated or
    with one token replaced; an entry with its spaces around '->' or ':'
    dropped; a declared label renamed throughout to one containing ':' or
    '->'."""
    lines = GENERATED[draw(st.sampled_from(sorted(GENERATED)))].splitlines()
    tokens = sorted({t for line in lines for t in line.split()})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "glue", "rename"]))
        words = lines[i].split()
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace" and words:
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(JUNK) | st.sampled_from(tokens))
            lines[i] = " ".join(words)
        elif op == "glue" and "->" in words:
            sep = draw(st.sampled_from(["->", ":"]))
            lines[i] = lines[i].replace(f" {sep} ", sep)
        elif op == "rename":
            label = draw(st.sampled_from(tokens))
            new = label + draw(st.sampled_from([":c", "->c", ":"]))
            lines = [" ".join(new if t == label else t for t in line.split())
                     for line in lines]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=80, deadline=None)
@given(mutants())
def test_mutants_parse_as_before_or_differ_as_documented(text):
    new, new_err = _outcome(parse_model, text)
    ref, ref_err = _outcome(ref_parse_model, text)
    if new is not None and ref is not None:
        assert same_algebra(new, ref)
    elif new is None and ref is not None:
        # refused now, read before: a glued entry or a separator label
        assert isinstance(new_err, ParseError) and new_err.line is not None, new_err
        code = text.splitlines()[new_err.line - 1].split("#", 1)[0]
        message = str(new_err)
        if "reserved as an entry separator" in message:
            assert re.search(r"label '(->|:)'", message)
        else:
            assert ("entry is:" in message) and _glued(code), (message, code)
    elif new is not None and ref is None:
        # read now, refused before: a label with ':' or '->' in it, which
        # the former parser reads once it is renamed
        odd = [lab for lab in new.space.all_labels() if ":" in lab or "->" in lab]
        assert odd, ref_err
        taken = {t for line in text.splitlines() for t in line.split()}
        renames = {lab: f"renamed{i}" for i, lab in enumerate(odd)}
        assert taken.isdisjoint(renames.values())
        again = ref_parse_model(_renamed(text, renames)).algebra
        assert serialize_model(again) == _renamed(serialize_model(new), renames)


def test_a_structure_entry_with_two_targets_is_refused_at_its_line():
    text = "degrees\n0 : x\n\nstructure\nx x -> x : 1\nx x -> x y : 1\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == "line 6: structure entry is: L1 L2 -> L3 : SCALAR"
    # the former parser refused it only after reading, as a label 'x y'
    with pytest.raises(ModelError, match="unknown label 'x y'"):
        ref_parse_model(text)


@pytest.mark.parametrize("entry, message", [
    ("x x->x:1", "structure entry is: L1 L2 -> L3 : SCALAR"),
    ("x x -> x:1", "structure entry is: L1 L2 -> L3 : SCALAR"),
    ("x x->x : 1", "structure entry is: L1 L2 -> L3 : SCALAR"),
])
def test_an_entry_without_spaces_around_its_separators_is_refused(entry, message):
    text = f"degrees\n0 : x\n\nstructure\n{entry}\n"
    assert ref_parse_model(text).algebra.mul_labels("x", "x") == {"x": Scalar(1)}
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == f"line 5: {message}"
    mapped = "degrees\n0 : x\n1 : y\n\nmap d shift 1\nx->y:1\n"
    with pytest.raises(ParseError, match="line 6: map entry is: FROM -> TO : SCALAR"):
        parse_model(mapped)


COLON_LABELS = """kind associative

degrees
0 : x a:b
1 : c->d

map d shift 1
a:b -> c->d : 1/2

structure
x x -> a:b : 1
a:b x -> a:b : -1
x c->d -> c->d : 1
"""


def test_labels_with_colons_and_arrows_read_back():
    parsed = parse_model(COLON_LABELS)
    alg = parsed.algebra
    assert alg.space.labels(0) == ["x", "a:b"]
    assert alg.mul_labels("x", "x") == {"a:b": Scalar(1)}
    assert alg.differential("d").label_table()["a:b"] == {"c->d": Scalar.parse("1/2")}
    text = serialize_model(alg)
    again = parse_model(text).algebra
    assert same_algebra(again, alg)
    assert serialize_model(again) == text
    # the former parser read the target 'a:b' as 'a' with the scalar 'b : 1'
    with pytest.raises(ParseError, match="invalid scalar 'b : 1'"):
        ref_parse_model(COLON_LABELS)


@pytest.mark.parametrize("label", ["->", ":"])
def test_a_separator_is_refused_as_a_label_at_the_degrees_line(label):
    text = f"degrees\n0 : x\n1 : y {label} z\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert f"label {label!r}" in str(err.value)
