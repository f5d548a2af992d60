"""Matrix round trips and the plain JSON of written documents."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchain.families as fam
import matchain.dominance as dom
import matchain.io as mio
from matchain.errors import MatrixParseError


def _roundtrip_matrix(M, format):
    buf = io.StringIO()
    mio.write_matrix(M, buf, format=format)
    return mio.read_matrix(io.StringIO(buf.getvalue()), format=format)


def test_json_matrix_round_trip_is_exact():
    rng = np.random.default_rng(1)
    M = fam.complex_gaussian(rng, 9).reshape(3, 3)
    np.testing.assert_array_equal(_roundtrip_matrix(M, "json"), M)


def test_csv_matrix_round_trip_is_exact():
    rng = np.random.default_rng(2)
    M = fam.complex_gaussian(rng, 16).reshape(4, 4)
    np.testing.assert_array_equal(_roundtrip_matrix(M, "csv"), M)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.integers(min_value=1, max_value=4), finite, finite)
@settings(max_examples=60, deadline=None)
def test_matrix_round_trip_any_finite_entries(n, re, im):
    M = np.full((n, n), complex(re, im))
    M[0, 0] = complex(im, re)
    for format in ("json", "csv"):
        np.testing.assert_array_equal(_roundtrip_matrix(M, format), M)


def test_csv_token_forms():
    text = "1.5, -2i\n-0.25-1.5e-1i, 3"
    M = mio.read_matrix(io.StringIO(text), format="csv")
    np.testing.assert_array_equal(M, [[1.5, -2j], [-0.25 - 0.15j, 3.0]])
    # capital I and bare i both mean the imaginary unit
    M = mio.read_matrix(io.StringIO("1+2I"), format="csv")
    assert M[0, 0] == 1 + 2j
    M = mio.read_matrix(io.StringIO("i"), format="csv")
    assert M[0, 0] == 1j


def test_csv_skips_blank_lines():
    M = mio.read_matrix(io.StringIO("1,0\n\n0,1\n"), format="csv")
    np.testing.assert_array_equal(M, np.eye(2))


def test_csv_parse_error_reports_position():
    with pytest.raises(MatrixParseError) as exc:
        mio.read_matrix(io.StringIO("1,2\n3,x"), format="csv")
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_csv_rejects_ragged_rows():
    with pytest.raises(MatrixParseError):
        mio.read_matrix(io.StringIO("1,2\n3"), format="csv")


def test_json_requires_entries_field():
    with pytest.raises(MatrixParseError):
        mio.read_matrix(io.StringIO('{"n": 2}'))


def test_json_malformed_document():
    with pytest.raises(MatrixParseError):
        mio.read_matrix(io.StringIO("{not json"))


def test_json_rejects_non_finite():
    doc = '{"n": 1, "entries": [[[1e999, 0]]]}'
    with pytest.raises(MatrixParseError):
        mio.read_matrix(io.StringIO(doc))


def test_format_guessed_from_suffix(tmp_path):
    M = np.array([[1.0 + 2.0j]])
    jpath = tmp_path / "m.json"
    cpath = tmp_path / "m.csv"
    mio.write_matrix(M, str(jpath))
    mio.write_matrix(M, str(cpath))
    assert json.loads(jpath.read_text())["n"] == 1
    assert "," not in cpath.read_text().strip()  # single entry, no separator
    np.testing.assert_array_equal(mio.read_matrix(str(jpath)), M)
    np.testing.assert_array_equal(mio.read_matrix(str(cpath)), M)


def test_written_json_is_plain_data():
    """Serialized documents contain only JSON scalars, lists, and objects."""
    rep = dom.estimate_image_dimension(dom.problem(["toeplitz-sym"] * 2, 3), trials=2)
    doc = mio.report_to_dict(rep)
    parsed = json.loads(json.dumps(doc))
    assert parsed["dominant"] is False or parsed["dominant"] is True
    assert all(isinstance(v, int) for v in parsed["ranks"])

