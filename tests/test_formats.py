import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgplucker import atlas, build_plucker_matrix, incidence_matrix
from lgplucker.errors import PARSE_CAP
from lgplucker.formats import (
    BinaryMatrix,
    matrix_data,
    parse_alist,
    parse_coord,
    parse_json,
    write_alist,
    write_coord,
    write_json,
)
from conftest import bmatrix

ROUND_TRIPS = [
    (write_coord, parse_coord),
    (write_alist, parse_alist),
    (write_json, parse_json),
]


def atlas_members_up_to(m_max):
    return [incidence_matrix(m) for m in range(2, m_max + 1, 2)]


class TestRoundTrips:
    @pytest.mark.parametrize("writer,parser", ROUND_TRIPS)
    def test_atlas_members(self, writer, parser):
        for mat in atlas_members_up_to(8):
            data = matrix_data(mat)
            text = writer(data)
            assert parser(text) == data
            assert writer(parser(text)) == text

    @pytest.mark.parametrize("writer,parser", ROUND_TRIPS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_relation_matrices(self, writer, parser, n):
        data = matrix_data(bmatrix(n))
        text = writer(data)
        assert parser(text) == data
        assert writer(parser(text)) == text


@st.composite
def binary_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    bits = draw(st.lists(row, min_size=rows, max_size=rows))
    return np.array(bits, dtype=np.int8).reshape(rows, cols)


@pytest.mark.parametrize("writer,parser", ROUND_TRIPS)
@settings(max_examples=150, deadline=None)
@given(x=binary_matrices())
def test_round_trip_property(writer, parser, x):
    text = writer(x)
    assert parser(text) == matrix_data(x)
    assert writer(parser(text)) == text


class TestCoord:
    def test_n3_header(self):
        text = write_coord(bmatrix(3))
        lines = text.splitlines()
        assert lines[0] == "6 20 12"
        assert len(lines) == 13
        assert all(len(ln.split()) == 2 for ln in lines[1:])

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_coord("1 2\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_coord("2 2 2\n1 1\n")

    def test_negative_dimensions(self):
        with pytest.raises(ValueError):
            parse_coord("-1 -3 0\n")

    def test_entry_with_wrong_token_count_names_its_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_coord("2 2 2\n1 1\n2 2 1\n")

    def test_non_integer_entry_names_its_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_coord("2 2 1\n1 x\n")

    def test_entry_out_of_row_major_order_rejected(self):
        # sorting it silently would re-serialize as different bytes
        with pytest.raises(ValueError, match="entry 2 does not follow entry 1"):
            parse_coord("2 2 2\n2 2\n1 1\n")

    def test_blank_line_before_the_last_entry_names_its_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_coord("2 2 2\n1 1\n\n2 2\n")

    @pytest.mark.parametrize("header", ["1000000000 1 0", "1 1000000000 0"])
    def test_declared_shape_above_the_cap_rejected(self, header):
        # rejected before a support is made for any declared row
        with pytest.raises(ValueError, match="exceeds the parse cap 1000000"):
            parse_coord(header + "\n")

    def test_declared_shape_at_the_cap_accepted(self):
        assert parse_coord("1000000 1 0\n").shape == (1000000, 1)


class TestAlist:
    def test_l4_header_and_weights(self):
        mat = incidence_matrix(6)
        lines = write_alist(mat).splitlines()
        assert lines[0] == "20 15"
        assert lines[1] == "3 4"
        assert lines[2].split() == ["3"] * 20
        assert lines[3].split() == ["4"] * 15

    def test_b2_layout(self):
        lines = write_alist(bmatrix(2)).splitlines()
        assert lines[0] == "6 1"
        assert lines[1] == "1 2"
        # four of the six columns are identically zero
        assert lines[2].split() == ["0", "0", "1", "1", "0", "0"]

    def test_zero_columns_round_trip(self):
        data = matrix_data(bmatrix(2))
        assert parse_alist(write_alist(data)) == data

    def test_truncated_file(self):
        with pytest.raises(ValueError):
            parse_alist("2 1\n1 1\n1 1\n")

    def test_weight_line_mismatch(self):
        # column 2 declares weight 1 but its adjacency line is empty
        text = "2 1\n1 2\n1 1\n2\n1\n0\n1 2\n"
        with pytest.raises(ValueError):
            parse_alist(text)

    def test_repeated_index_in_a_line(self):
        # column 1 lists row 1 twice; a silent dedup would give a 1x1
        # matrix with one entry that does not re-serialize to this text
        with pytest.raises(ValueError, match="repeats"):
            parse_alist("1 1\n2 2\n2\n2\n1 1\n1 1\n")

    @pytest.mark.parametrize("tail", ["junk line", "1 2 3"])
    def test_trailing_content_names_its_line(self, tail):
        text = write_alist(matrix_data(bmatrix(2)))
        assert len(text.splitlines()) == 11
        with pytest.raises(ValueError, match="line 12"):
            parse_alist(text + tail + "\n")

    def test_trailing_blank_lines_accepted(self):
        data = matrix_data(bmatrix(2))
        assert parse_alist(write_alist(data) + "\n  \n") == data

    @pytest.mark.parametrize(
        "text,line",
        [
            ("2 x\n1 1\n1 1\n1\n1\n1\n1 2\n", 1),
            ("2 1\n1 2\n1 1\n2\n1\n1\n1 2.0\n", 7),
            ("2 1\n1 2\n1 1\n2\n1\none\n1 2\n", 6),
            ("2 1\n1 2\n1 1 1\n2\n1\n1\n1 2\n", 3),
            ("2 1\n1 2\n1 1\n2\n1 0\n1\n1 2\n", 5),
        ],
        ids=["header-word", "row-float", "column-word", "weight-count", "column-count"],
    )
    def test_malformed_line_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}:"):
            parse_alist(text)

    def test_indices_out_of_order_name_their_line(self):
        with pytest.raises(ValueError, match="line 7: row 1 repeats a column index or lists them out of order"):
            parse_alist("2 1\n1 2\n1 1\n2\n1\n1\n2 1\n")

    def test_padding_before_an_index_names_its_line(self):
        # ones at (1, 1), (1, 2), (2, 1); column 2 is written "0 1", not "1 0"
        text = "2 2\n2 2\n2 1\n2 1\n1 2\n0 1\n1 2\n1 0\n"
        assert parse_alist(text.replace("0 1\n", "1 0\n", 1)).bits.tolist() == [[1, 1], [1, 0]]
        with pytest.raises(ValueError, match="line 6: padding 0 before a nonzero row index"):
            parse_alist(text)

    def test_maximum_weight_disagreeing_with_weights(self):
        # declared maximum column weight 2 for columns of weight 1: the
        # padding would not re-serialize to this text
        with pytest.raises(ValueError, match="line 2"):
            parse_alist("2 1\n2 2\n1 1\n2\n1 0\n1 0\n1 2\n")

    def test_inconsistent_adjacency(self):
        # column lists give entries (1,1) and (2,2); row lists transpose them
        text = "2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n"
        with pytest.raises(ValueError):
            parse_alist(text)


class TestJson:
    def test_fields_present(self):
        import json

        doc = json.loads(write_json(bmatrix(2)))
        assert doc["rows"] == 1 and doc["cols"] == 6 and doc["nnz"] == 2

    def test_nnz_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_json('{"rows": 1, "cols": 2, "nnz": 5, "entries": [[1, 1]]}')

    @pytest.mark.parametrize("entry", ["[1.0, 2]", "[1, 2.0]", "[true, 2]", "[1, true]"])
    def test_float_or_boolean_entry_rejected(self, entry):
        with pytest.raises(ValueError):
            parse_json('{"rows": 1, "cols": 2, "nnz": 1, "entries": [%s]}' % entry)

    @pytest.mark.parametrize("key", ["rows", "cols", "nnz"])
    def test_float_size_field_rejected(self, key):
        doc = {"rows": 1, "cols": 2, "nnz": 1, "entries": [[1, 2]]}
        doc[key] = float(doc[key])
        with pytest.raises(ValueError):
            parse_json(json.dumps(doc))

    def test_entries_out_of_row_major_order_rejected(self):
        with pytest.raises(ValueError, match="entry 2 does not follow entry 1"):
            parse_json('{"rows": 2, "cols": 2, "nnz": 2, "entries": [[2, 2], [1, 1]]}')

    def test_string_entry_rejected(self):
        with pytest.raises(ValueError):
            parse_json('{"rows": 1, "cols": 2, "nnz": 1, "entries": [["1", 2]]}')

    @pytest.mark.parametrize("entry", ["7", '"12"', "null"])
    def test_entry_that_is_not_a_pair_rejected(self, entry):
        with pytest.raises(ValueError):
            parse_json('{"rows": 1, "cols": 2, "nnz": 1, "entries": [%s]}' % entry)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unexpected keys \\['comment'\\]"):
            parse_json('{"rows": 1, "cols": 2, "nnz": 1, "entries": [[1, 2]], "comment": "x"}')

    def test_declared_shape_above_the_cap_rejected(self):
        with pytest.raises(ValueError, match="declared shape 1000000000x2 exceeds the parse cap"):
            parse_json('{"rows": 1000000000, "cols": 2, "nnz": 0, "entries": []}')

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_top_level_not_an_object_rejected(self, text):
        with pytest.raises(ValueError):
            parse_json(text)


class TestCarrier:
    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_entries(2, 2, ((1, 1), (0, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_entries(2, 2, ((2, 0),))

    @pytest.mark.parametrize(
        "supports,row",
        [([[0, 0]], 0), ([[1, 0]], 0), ([[0, 3]], 0), ([[-1, 1]], 0), ([[0, 2], [], [2, 2]], 2), ([(), (1,), (0, 1, 1)], 2)],
    )
    def test_rejects_rows_that_do_not_strictly_increase(self, supports, row):
        s = tuple(supports[row])
        with pytest.raises(ValueError, match=re.escape(f"row {row}: columns {s} do not strictly increase inside [0, 3)")):
            BinaryMatrix(len(supports), 3, supports)

    @pytest.mark.parametrize("route", ["supports", "csr", "checked", "relation"])
    def test_row_supports_built_once(self, route):
        # the tuple view is built on its first read and kept: a second read
        # returns the same object, equal to the view of the arrays, which
        # are read-only and so cannot leave it stale
        b = build_plucker_matrix(4)
        mat = {
            "supports": lambda: BinaryMatrix(b.rows, b.cols, [b.indices[x:y].tolist() for x, y in zip(b.indptr, b.indptr[1:])]),
            "csr": lambda: BinaryMatrix(b.rows, b.cols, csr=(b.indptr, b.indices)),
            "checked": lambda: matrix_data(b),
            "relation": lambda: b,
        }[route]()
        first = mat.row_supports
        assert mat.row_supports is first
        assert first == tuple(tuple(mat.indices[x:y].tolist()) for x, y in zip(mat.indptr, mat.indptr[1:]))
        with pytest.raises(ValueError, match="read-only"):
            mat.indices[0] = 1

    def test_adapts_incidence_and_relation_matrices(self):
        mat = atlas(4)[0]
        data = matrix_data(mat)
        assert (data.rows, data.cols) == mat.shape
        assert data.bits.tolist() == mat.bits.tolist()


# --- the line-by-line parsers, kept as oracles for the array checks ---------


def literal_line_ints(number, line, count):
    tokens = line.split()
    if len(tokens) != count:
        raise ValueError(f"line {number}: expected {count} integers, got {line!r}")
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ValueError(f"line {number}: non-integer token in {line!r}") from None


def literal_declared(rows, cols):
    if max(rows, cols) > PARSE_CAP:
        raise ValueError(f"declared shape {rows}x{cols} exceeds the parse cap {PARSE_CAP}")


def literal_from_entries(rows, cols, entries):
    """The matrix with ones at the 0-based entries, checked one entry at a time."""
    supports = {}
    last = (-1, -1)
    for k, (r, c) in enumerate(entries, 1):
        if (r, c) <= last:
            raise ValueError(f"entry {k} does not follow entry {k - 1} in row-major order")
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols}")
        supports.setdefault(r, []).append(c)
        last = (r, c)
    return BinaryMatrix(rows, cols, [supports.get(i, ()) for i in range(rows)])


def literal_parse_coord(text):
    lines = text.rstrip().splitlines()
    if not lines:
        raise ValueError("empty coordinate file")
    rows, cols, nnz = literal_line_ints(1, lines[0], 3)
    literal_declared(rows, cols)
    entries = []
    for number, ln in enumerate(lines[1:], 2):
        r, c = literal_line_ints(number, ln, 2)
        entries.append((r - 1, c - 1))
    if len(entries) != nnz:
        raise ValueError(f"header promises {nnz} entries, found {len(entries)}")
    return literal_from_entries(rows, cols, entries)


def literal_adjacency_lines(lines, start, weights, width, bound, kind, other):
    out = []
    for k, weight in enumerate(weights):
        number = start + k + 1
        values = literal_line_ints(number, lines[start + k], width)
        live = [x for x in values if x != 0]
        if len(live) != weight:
            raise ValueError(f"{kind} {k + 1} line disagrees with its weight")
        if values[:weight] != live:
            raise ValueError(f"line {number}: padding 0 before a nonzero {other} index")
        if any(a >= b for a, b in zip(live, live[1:])):
            raise ValueError(f"line {number}: {kind} {k + 1} repeats a {other} index or lists them out of order")
        for x in live:
            if not 1 <= x <= bound:
                raise ValueError(f"{other} index {x} outside [1, {bound}]")
        out.append([x - 1 for x in live])
    return out


def literal_parse_alist(text):
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist file too short")
    cols, rows = literal_line_ints(1, lines[0], 2)
    if cols < 0 or rows < 0:
        raise ValueError(f"negative dimensions {rows}x{cols}")
    max_col_w, max_row_w = literal_line_ints(2, lines[1], 2)
    col_w = literal_line_ints(3, lines[2], cols)
    row_w = literal_line_ints(4, lines[3], rows)
    if (max_col_w, max_row_w) != (max(col_w, default=0), max(row_w, default=0)):
        raise ValueError("line 2: maximum weights disagree with the weight lines")
    last = 4 + cols + rows
    if len(lines) < last:
        raise ValueError("alist file truncated")
    for number, ln in enumerate(lines[last:], last + 1):
        if ln.strip():
            raise ValueError(f"line {number}: content after the last row line")
    col_lists = literal_adjacency_lines(lines, 4, col_w, max_col_w, rows, "column", "row")
    row_lists = literal_adjacency_lines(lines, 4 + cols, row_w, max_row_w, cols, "row", "column")
    data = BinaryMatrix(rows, cols, row_lists)
    if not np.array_equal(BinaryMatrix(cols, rows, col_lists).bits.T, data.bits):
        raise ValueError("row and column adjacency lists disagree")
    return data


def literal_json_int(value, what):
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def literal_parse_json(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    for key in ("rows", "cols", "nnz", "entries"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    extra = sorted(set(doc) - {"rows", "cols", "nnz", "entries"})
    if extra:
        raise ValueError(f"unexpected keys {extra}")
    if not isinstance(doc["entries"], list):
        raise ValueError("entries must be a list")
    entries = []
    for pair in doc["entries"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {pair!r} is not a [row, col] pair")
        r, c = (literal_json_int(x, "entry index") for x in pair)
        entries.append((r - 1, c - 1))
    rows, cols, nnz = (literal_json_int(doc[key], key) for key in ("rows", "cols", "nnz"))
    literal_declared(rows, cols)
    data = literal_from_entries(rows, cols, entries)
    if data.nnz != nnz:
        raise ValueError("nnz field disagrees with the entry list")
    return data


LITERAL = [
    (write_coord, parse_coord, literal_parse_coord),
    (write_alist, parse_alist, literal_parse_alist),
    (write_json, parse_json, literal_parse_json),
]
INTEGER = re.compile(r"-?\d+")


def with_last_integer(line, value):
    found = list(INTEGER.finditer(line))
    if not found:
        return None
    a, b = found[-1].span()
    return line[:a] + value + line[b:]


def line_corruptions(line):
    """Ways to spoil one line: a token dropped, added or not an integer,
    an index out of range (past int64 too), a 0 moved before a nonzero
    index, two tokens swapped."""
    tokens = line.split()
    out = [" ".join(tokens[:-1]), line + " 1", "x " + line]
    out += [with_last_integer(line, v) for v in ("0", "-3", "1000", "99999999999999999999", "1.5", "true", '"2"')]
    if "0" in tokens and any(t != "0" for t in tokens):
        zero = tokens.index("0") if tokens[0] != "0" else len(tokens) - 1 - tokens[::-1].index("0")
        rest = tokens[:zero] + tokens[zero + 1 :]
        out.append(" ".join(["0"] + rest))
    if len(tokens) > 1:
        out.append(" ".join(tokens[-1:] + tokens[1:-1] + tokens[:1]))
    return [x for x in out if x is not None and x != line]


def corrupted_texts(text):
    """Every line spoilt in every way in turn, two neighbouring lines
    swapped, a line replaced by the one before it, and a blank line put
    before each line."""
    lines = text.split("\n")
    for k, line in enumerate(lines):
        for bad in line_corruptions(line):
            yield "\n".join(lines[:k] + [bad] + lines[k + 1 :])
        if k + 1 < len(lines):
            yield "\n".join(lines[:k] + [lines[k + 1], line] + lines[k + 2 :])
        if k:
            yield "\n".join(lines[:k] + [lines[k - 1]] + lines[k + 1 :])
        yield "\n".join(lines[:k] + [""] + lines[k:])


def parse_outcome(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestLiteralParsers:
    @pytest.mark.parametrize("writer,parser,literal", LITERAL, ids=["coord", "alist", "json"])
    @pytest.mark.parametrize("name", ["B3", "B4", "L6"])
    def test_corrupted_lines_fail_as_the_literal_parser_does(self, writer, parser, literal, name):
        # B(4) has alist lines with padding, which B(3) and L(6) do not
        text = writer({"B3": bmatrix(3), "B4": bmatrix(4), "L6": incidence_matrix(6)}[name])
        assert parser(text) == literal(text)
        messages = set()
        for bad in corrupted_texts(text):
            got = parse_outcome(parser, bad)
            assert got == parse_outcome(literal, bad), bad
            if isinstance(got, tuple):
                messages.add(re.sub(r"[-\d]+", "#", got[1].split(":")[-1] if got[1].startswith("line") else got[1])[:30])
        # the corruptions reach many of the checks
        assert len(messages) >= 5, messages

    @pytest.mark.parametrize("writer,parser,literal", LITERAL, ids=["coord", "alist", "json"])
    @settings(max_examples=60, deadline=None)
    @given(x=binary_matrices())
    def test_valid_texts_parse_as_the_literal_parser_does(self, writer, parser, literal, x):
        text = writer(x)
        assert parser(text) == literal(text) == matrix_data(x)
