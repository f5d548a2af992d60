"""Serialization round trips for matrices, chains, and reports."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchain.families as fam
import matchain.dominance as dom
import matchain.io as mio
from matchain.errors import MatrixParseError
from matchain.solver import FitOptions, fit_chain


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


def test_kind_round_trip():
    kinds = [
        fam.FamilyKind("toeplitz-sym"),
        fam.FamilyKind("k-diagonal", k=3),
        fam.FamilyKind("vandermonde", s=-2),
        fam.random_subspace(3, 5, rng_seed=4),
    ]
    for kind in kinds:
        doc = mio.kind_to_dict(kind)
        back = mio.kind_from_dict(json.loads(json.dumps(doc)))
        assert back.tag == kind.tag
        assert back.k == kind.k
        assert back.s == kind.s
        if kind.basis is not None:
            for a, b in zip(kind.basis, back.basis):
                np.testing.assert_array_equal(a, b)


def test_kind_from_dict_rejects_unknown_tag():
    with pytest.raises(MatrixParseError):
        mio.kind_from_dict({"tag": "wat"})


def _basis_doc(mats):
    return [[[[float(z.real), float(z.imag)] for z in row] for row in B] for B in mats]


@pytest.mark.parametrize("doc", [
    # a basis is read only for a subspace
    {"tag": "skew-symmetric", "basis": _basis_doc([np.eye(2) / np.sqrt(2)])},
    # one shape for every basis matrix
    {"tag": "subspace", "basis": _basis_doc([np.eye(2) / np.sqrt(2)]) + _basis_doc([np.eye(3)])},
    # orthonormal: the Gram matrix of [I, I] / sqrt(2) is all 1/2
    {"tag": "subspace", "basis": _basis_doc([np.eye(2) / 2, np.eye(2) / 2])},
    {"tag": "subspace", "basis": []},
    {"tag": "subspace", "k": 2, "basis": _basis_doc([np.eye(2) / np.sqrt(2)])},
    # integer arguments, and only those the family takes
    {"tag": "k-diagonal", "k": "x"},
    {"tag": "k-diagonal", "k": 2.5},
    {"tag": "vandermonde", "s": True},
    {"tag": "diagonal", "k": 3},
    {"tag": "k-diagonal", "s": 1},
    {"tag": "k-diagonal"},
], ids=["basis-outside-subspace", "ragged-basis", "non-orthonormal-basis", "empty-basis",
        "k-against-basis", "string-k", "fractional-k", "bool-s", "k-not-taken", "s-not-taken",
        "missing-k"])
def test_kind_from_dict_rejects_malformed_kinds(doc):
    with pytest.raises(MatrixParseError):
        mio.kind_from_dict(doc)


def test_chain_round_trip_is_bit_exact():
    T = np.diag(np.array([1.0, 2.0, 3.0], dtype=complex))
    chain = fit_chain(T, dom.problem(["bidiagonal"], 3), FitOptions(seed=0))
    buf = io.StringIO()
    mio.write_chain(chain, buf)
    back = mio.read_chain(io.StringIO(buf.getvalue()))
    assert back.problem == chain.problem
    assert back.residual == chain.residual
    assert back.iterations == chain.iterations
    assert back.converged == chain.converged
    for a, b in zip(chain.params, back.params):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(chain.factors, back.factors):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(chain.target, back.target)


def test_chain_schema_version_checked():
    T = np.diag(np.array([1.0, 2.0], dtype=complex))
    chain = fit_chain(T, dom.problem(["diagonal"], 2))
    doc = mio.chain_to_dict(chain)
    doc["schema_version"] = "999"
    with pytest.raises(MatrixParseError):
        mio.chain_from_dict(doc)


def test_report_round_trip():
    rep = dom.estimate_image_dimension(dom.problem(["skew-symmetric"] * 3, 4), trials=3, seed=5)
    buf = io.StringIO()
    mio.write_report(rep, buf)
    back = mio.read_report(io.StringIO(buf.getvalue()))
    assert back == rep


def test_written_json_is_plain_data():
    """Serialized documents contain only JSON scalars, lists, and objects."""
    rep = dom.estimate_image_dimension(dom.problem(["toeplitz-sym"] * 2, 3), trials=2)
    doc = mio.report_to_dict(rep)
    parsed = json.loads(json.dumps(doc))
    assert parsed["dominant"] is False or parsed["dominant"] is True
    assert all(isinstance(v, int) for v in parsed["ranks"])


def _chain_doc():
    T = np.diag(np.array([1.0, 2.0], dtype=complex))
    return mio.chain_to_dict(fit_chain(T, dom.problem(["diagonal"], 2)))


def _report_doc():
    return mio.report_to_dict(
        dom.estimate_image_dimension(dom.problem(["diagonal"], 2), trials=1))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("read, doc", [
    pytest.param(mio.read_chain, lambda: [_chain_doc()], id="chain-array"),
    pytest.param(mio.read_chain, lambda: _without(_chain_doc(), "problem"), id="chain-no-problem"),
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), residual="x"), id="chain-residual-x"),
    pytest.param(mio.read_report, lambda: [_report_doc()], id="report-array"),
    pytest.param(mio.read_report, lambda: _without(_report_doc(), "trials"), id="report-no-trials"),
    pytest.param(mio.read_report, lambda: dict(_report_doc(), trials="x"), id="report-trials-x"),
    # bool(), int() and float() would accept each of these scalars
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), converged="false"),
                 id="chain-converged-string"),
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), converged=1), id="chain-converged-int"),
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), iterations=2.5),
                 id="chain-iterations-fraction"),
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), iterations=True),
                 id="chain-iterations-bool"),
    pytest.param(mio.read_chain, lambda: dict(_chain_doc(), residual=True), id="chain-residual-bool"),
    pytest.param(mio.read_report, lambda: dict(_report_doc(), dominant="no"),
                 id="report-dominant-string"),
    pytest.param(mio.read_report, lambda: dict(_report_doc(), ranks=[12.7, 13.2]),
                 id="report-ranks-fractions"),
    pytest.param(mio.read_report, lambda: dict(_report_doc(), seed="7"), id="report-seed-string"),
    pytest.param(mio.read_report, lambda: dict(_report_doc(), tolerance=False),
                 id="report-tolerance-bool"),
])
def test_malformed_documents_raise_parse_errors(read, doc):
    with pytest.raises(MatrixParseError):
        read(io.StringIO(json.dumps(doc())))


def test_chain_with_an_unknown_target_tag_raises_a_parse_error():
    doc = _chain_doc()
    doc["problem"]["target"] = "bogus"
    with pytest.raises(MatrixParseError):
        mio.chain_from_dict(doc)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["params"][0].pop(),
    lambda doc: doc["params"].pop(),
    lambda doc: doc["params"].append(doc["params"][0]),
    lambda doc: doc["factors"].append(doc["factors"][0]),
], ids=["short-vector", "missing-vector", "extra-vector", "extra-factor"])
def test_chain_parameters_and_factors_must_match_the_problem(edit):
    doc = _chain_doc()  # one diagonal factor at n = 2: one vector of two parameters
    edit(doc)
    with pytest.raises(MatrixParseError):
        mio.chain_from_dict(doc)
