"""Matrix round trips and the plain JSON of printed documents."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchain.families as fam
import matchain.dominance as dom
import matchain.io as mio
import matchain.solver as solver
from matchain.errors import MatrixParseError


def _named(text, name):
    """A text stream whose name, like an open file's, selects the reader."""
    stream = io.StringIO(text)
    stream.name = name
    return stream


def _csv_token(z):
    """One CSV entry, each part by Python's shortest round-trip repr."""
    re_, im_ = float(z.real), float(z.imag)
    if im_ == 0.0:
        return repr(re_)
    if re_ == 0.0:
        return f"{im_!r}i"
    return f"{re_!r}{'+' if im_ >= 0 else '-'}{abs(im_)!r}i"


def _csv_text(M):
    return "".join(",".join(_csv_token(z) for z in row) + "\n" for row in M)


def _roundtrip_matrix(M, format):
    """M read back from the JSON that matrix_to_dict prints, or from CSV."""
    if format == "csv":
        return mio.read_matrix(_named(_csv_text(M), "m.csv"))
    return mio.read_matrix(io.StringIO(json.dumps(mio.matrix_to_dict(M), indent=2)))


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
    M = mio.read_matrix(_named(text, "m.csv"))
    np.testing.assert_array_equal(M, [[1.5, -2j], [-0.25 - 0.15j, 3.0]])
    # capital I and bare i both mean the imaginary unit
    M = mio.read_matrix(_named("1+2I", "m.CSV"))
    assert M[0, 0] == 1 + 2j
    M = mio.read_matrix(_named("i", "m.csv"))
    assert M[0, 0] == 1j
    # a bare fraction or trailing point, a signed bare unit, and exponents
    # in both parts
    for token, z in [(".5i", 0.5j), ("5.i", 5j), ("+i", 1j), ("-I", -1j),
                     ("1e5+2E-3i", 1e5 + 2e-3j)]:
        assert mio.read_matrix(_named(token, "m.csv"))[0, 0] == z


def test_csv_skips_blank_lines():
    M = mio.read_matrix(_named("1,0\n\n0,1\n", "m.csv"))
    np.testing.assert_array_equal(M, np.eye(2))


def test_csv_parse_error_reports_position():
    with pytest.raises(MatrixParseError) as exc:
        mio.read_matrix(_named("1,2\n3,x", "m.csv"))
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_csv_rejects_ragged_rows():
    with pytest.raises(MatrixParseError):
        mio.read_matrix(_named("1,2\n3", "m.csv"))


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
    """A .csv suffix, in any case, reads CSV; any other name reads JSON."""
    M = np.array([[1.0 + 2.0j]])
    jpath = tmp_path / "m.json"
    cpath = tmp_path / "m.CSV"
    jpath.write_text(json.dumps(mio.matrix_to_dict(M)))
    cpath.write_text(_csv_text(M))
    np.testing.assert_array_equal(mio.read_matrix(str(jpath)), M)
    np.testing.assert_array_equal(mio.read_matrix(str(cpath)), M)
    with open(cpath, encoding="utf-8") as fh:
        np.testing.assert_array_equal(mio.read_matrix(fh), M)
    with pytest.raises(MatrixParseError):
        mio.read_matrix(_named(_csv_text(M), "m.txt"))


def test_kind_to_dict_writes_each_family_argument():
    """A bandwidth prints as k, a Vandermonde type as s, and a random
    subspace's basis as [re, im] pairs."""
    n, seed = 4, 11
    assert mio.kind_to_dict(fam.spec_from_argument("k-diagonal", 2, n)) == {
        "tag": "k-diagonal", "k": 2}
    assert mio.kind_to_dict(fam.spec_from_argument("vandermonde", -1, n)) == {
        "tag": "vandermonde", "s": -1}
    doc = mio.kind_to_dict(fam.spec_from_argument("subspace", 3, n, rng_seed=seed))
    assert doc == {"tag": "subspace", "k": 3,
                   "basis": mio.complex_pairs(fam.FamilySpec("subspace", n, k=3, seed=seed).basis)}
    assert json.loads(json.dumps(doc)) == doc


def test_written_json_is_plain_data():
    """Serialized documents contain only JSON scalars, lists, and objects."""
    rep = dom.estimate_image_dimension(dom.problem(["toeplitz-sym"] * 2, 3), trials=2)
    doc = mio.report_to_dict(rep)
    parsed = json.loads(json.dumps(doc))
    assert parsed["dominant"] is False or parsed["dominant"] is True
    assert all(isinstance(v, int) for v in parsed["ranks"])


def test_problem_at_a_numpy_size_prints_the_same_json():
    """A problem stores n as a Python int, so a report and a fitted chain
    at np.int64(n) print the JSON they print at n."""
    def documents(n):
        rep = dom.estimate_image_dimension(dom.problem(["skew-symmetric"] * 3, n), trials=2)
        T = fam.complex_gaussian(np.random.default_rng(3), 4).reshape(2, 2)
        chain = solver.fit_chain(T, dom.problem(["triangular-lower", "triangular-upper"], n // 2))
        return json.dumps(mio.report_to_dict(rep)), json.dumps(mio.chain_to_dict(chain))

    assert documents(np.int64(4)) == documents(4)


def test_a_fitted_chain_names_the_space_it_ran_in():
    """A chain document names the space of the chain's families, though the
    problem was built with the default full tag."""
    A = fam.complex_gaussian(np.random.default_rng(4), 25).reshape(5, 5)
    chain = solver.fit_chain((A + A[::-1, ::-1]) / 2, dom.problem(["toeplitz-sym"] * 3, 5))
    assert chain.converged
    assert mio.chain_to_dict(chain)["problem"]["target"] == "centro"
