import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgplucker import atlas, incidence_matrix
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
        assert parse_alist(text.replace("0 1\n", "1 0\n", 1)).entries == ((0, 0), (0, 1), (1, 0))
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

    def test_adapts_incidence_and_relation_matrices(self):
        mat = atlas(4)[0]
        data = matrix_data(mat)
        assert (data.rows, data.cols) == mat.shape
        assert data.bits.tolist() == mat.bits.tolist()
