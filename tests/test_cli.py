"""End-to-end command line checks: exit codes and JSON payloads."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import matchain.cli as cli
import matchain.dominance as dom
import matchain.families as fam
import matchain.io as mio
from matchain.companion import companion_matrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env():
    """This checkout's src first on the child's PYTHONPATH, so the child
    runs the code under test without an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "matchain", *args],
        capture_output=True, text=True, env=_child_env(), **kw,
    )


def test_no_subcommand_is_a_usage_error():
    res = run_cli()
    assert res.returncode == 1
    assert "usage" in res.stderr.lower()


def test_unknown_family_is_a_usage_error():
    res = run_cli("bounds", "--family", "wat", "--n", "4")
    assert res.returncode == 1
    assert "unknown family" in res.stderr


def test_missing_input_file_is_an_io_error(tmp_path):
    res = run_cli("decompose", "--in", str(tmp_path / "nope.json"), "--chain", "diagonal")
    assert res.returncode == 2


def test_verify_dominant_chain():
    res = run_cli("verify", "--family", "skew", "--n", "8", "--r", "3", "--trials", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["dominant"] is True
    assert doc["d_estimate"] == 64
    assert doc["target_dim"] == 64
    # the first trial certifies full rank, so the second never runs
    assert doc["ranks"] == [64]
    assert doc["trials"] == 1
    assert doc["problem"]["families"] == ["skew-symmetric"] * 3


def test_verify_document_has_exactly_its_nine_keys(capsys):
    for argv in (["--family", "skew", "--n", "8", "--r", "3"],
                 ["--family", "skew", "--n", "4", "--r", "3", "--trials", "2"]):
        cli.main(["verify", *argv])
        assert set(json.loads(capsys.readouterr().out)) == {
            "schema_version", "problem", "trials", "ranks", "d_estimate",
            "target_dim", "dominant", "tolerance", "seed"}


def test_verify_non_dominant_chain_exits_3():
    res = run_cli("verify", "--family", "skew", "--n", "4", "--r", "3", "--trials", "2")
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    assert doc["dominant"] is False
    assert doc["d_estimate"] == 13


def test_verify_orthogonal_chain_on_its_own_target():
    res = run_cli("verify", "--family", "orthogonal", "--n", "8", "--r", "3", "--target", "orthogonal")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["ranks"] == [28] and doc["target_dim"] == 28 and doc["dominant"] is True


@pytest.mark.parametrize("argv, target", [
    (["--family", "skew", "--n", "8", "--r", "3", "--target", "centro"], "centro"),
    (["--family", "toeplitz", "--n", "4", "--r", "3", "--target", "centro"], "centro"),
    (["--family", "skew", "--n", "8", "--r", "3", "--target", "det"], "det"),
], ids=["skew-centro", "toeplitz-centro", "even-skew-det"])
def test_verify_refuses_a_chain_whose_products_leave_the_target(argv, target):
    """These chains' products are not centrosymmetric, or not singular, so
    no rank in the target's coordinates says anything about them."""
    res = run_cli("verify", *argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"{target} target" in res.stderr and "Traceback" not in res.stderr


def test_verify_is_reproducible():
    a = run_cli("verify", "--family", "toeplitz-sym", "--n", "5", "--r", "3",
                "--target", "centro", "--seed", "9")
    b = run_cli("verify", "--family", "toeplitz-sym", "--n", "5", "--r", "3",
                "--target", "centro", "--seed", "9")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_verify_with_an_overflowing_product_is_an_error_not_a_traceback():
    """The centre nodes have modulus 1, but a product of 1,100 factors with
    unimodular entries still overflows, and a matrix with a non-finite
    entry has no rank."""
    res = run_cli("verify", "--family", "vandermonde:1", "--n", "4", "--r", "1100")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: matrix has a non-finite entry; its rank is undefined"]


@pytest.mark.parametrize("command", [["sample"], ["verify", "--r", "2"]])
def test_a_sampled_member_that_overflows_is_an_error(command):
    """At type -2000 the powers of the sampled Gaussian nodes overflow: no
    JSON with Infinity tokens, and no message about a zero node.  A verdict
    takes its nodes at the centres, of modulus 1, whose powers stay finite,
    so it reports the chain's rank instead (6 of 9 in every trial)."""
    res = run_cli(command[0], "--family", "vandermonde:-2000", "--n", "3", *command[1:])
    if command[0] == "sample":
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: sampled member has a non-finite entry"]
    else:
        assert res.returncode == 3
        assert res.stderr == ""
        doc = json.loads(res.stdout)
        assert doc["ranks"] == [6] * 5 and doc["target_dim"] == 9


@pytest.mark.parametrize("family, n, r", [
    ("vandermonde:1", 4, 8), ("vandermonde:3", 8, 16), ("vandermonde:1", 6, 12),
    ("vandermonde:200", 4, 8),
])
def test_vandermonde_chains_of_2n_factors_are_dominant(family, n, r, capsys):
    """2n generalized Vandermonde factors reach a generic matrix, and
    verdicts at the centre nodes see it at the default tolerance (Gaussian
    nodes gave 15 of 16, 15 of 64 and 26 of 36, and overflowed at type 200).
    Seed t is the point of trial t of the default verdict, and each one
    certifies full rank on its own, so the verdict stops after one trial."""
    for seed in range(5):
        argv = ["verify", "--family", family, "--n", str(n), "--r", str(r), "--seed", str(seed)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dominant"] is True
        assert doc["ranks"] == [n * n]


def test_table_reproduces_all_rows():
    res = run_cli("table")
    assert res.returncode == 0
    assert "14/14 rows match" in res.stdout


def test_decompose_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    T = fam.complex_gaussian(rng, 16).reshape(4, 4)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(T)))
    chain = ",".join(["bidiagonal-lower", "bidiagonal-upper"] * 4)
    res = run_cli("decompose", "--in", str(path), "--chain", chain, "--seed", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-8
    assert len(doc["factors"]) == 8
    # factors in the payload multiply back to the target
    P = np.eye(4, dtype=complex)
    for F in doc["factors"]:
        P = P @ np.array([[complex(a, b) for a, b in row] for row in F])
    assert np.linalg.norm(P - T) <= 1e-6 * np.linalg.norm(T)


def test_decompose_unconverged_exits_4(tmp_path):
    rng = np.random.default_rng(5)
    T = fam.complex_gaussian(rng, 16).reshape(4, 4)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(T)))
    opts = tmp_path / "opts.json"
    opts.write_text('{"max_iterations": 1, "restarts": 1}')
    chain = ",".join(["bidiagonal-lower", "bidiagonal-upper"] * 4)
    res = run_cli("decompose", "--in", str(path), "--chain", chain,
                  "--opts", str(opts))
    assert res.returncode == 4
    doc = json.loads(res.stdout)
    assert doc["converged"] is False


def test_decompose_infeasible_chain_is_an_error(tmp_path):
    rng = np.random.default_rng(6)
    T = fam.complex_gaussian(rng, 16).reshape(4, 4)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(T)))
    res = run_cli("decompose", "--in", str(path), "--chain", "toeplitz-sym,toeplitz-sym")
    assert res.returncode == 1


def test_decompose_member_target_with_a_nonlinear_later_factor(tmp_path):
    # the target lies in the first family, but an orthogonal factor has no
    # linear coordinates of the identity: the fit starts like any other
    rng = np.random.default_rng(7)
    T = np.triu(fam.complex_gaussian(rng, 9).reshape(3, 3))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(T)))
    res = run_cli("decompose", "--in", str(path), "--chain", "upper,orthogonal")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["converged"] is True


@pytest.mark.parametrize("text,code,field", [
    # a malformed options file is a parse error
    pytest.param('{"velocity": 9}', 2, "velocity", id="unknown-field"),
    pytest.param('{"max_iterations": "5"}', 2, "max_iterations", id="string-count"),
    pytest.param('{"max_iterations": 2.5}', 2, "max_iterations", id="fractional-count"),
    pytest.param('{"restarts": true}', 2, "restarts", id="bool-count"),
    pytest.param('{"residual_tol": null}', 2, "residual_tol", id="null-tolerance"),
    pytest.param('{"seed": 1.5}', 2, "seed", id="fractional-seed"),
    # the fitter's tolerance is a constant and its first damping comes from
    # the first Jacobian: neither is an option
    pytest.param('{"residual_tol": 1e-6}', 2, "unknown option fields", id="residual-tol"),
    pytest.param('{"damping_init": 0.01}', 2, "unknown option fields", id="damping-init"),
    # well-typed but out of range
    pytest.param('{"seed": -1}', 1, "seed", id="negative-seed"),
    # options that are not a JSON object
    pytest.param('[1]', 2, "JSON object", id="not-an-object"),
])
def test_decompose_rejects_unknown_option(tmp_path, text, code, field):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(np.eye(3, dtype=complex))))
    opts = tmp_path / "opts.json"
    opts.write_text(text)
    res = run_cli("decompose", "--in", str(path), "--chain", "diagonal",
                  "--opts", str(opts))
    assert res.returncode == code
    assert field in res.stderr
    assert "Traceback" not in res.stderr


def test_decompose_opts_file_takes_the_seed_flag_unless_it_sets_a_seed(tmp_path):
    path = tmp_path / "t.json"
    T = fam.complex_gaussian(np.random.default_rng(5), 16).reshape(4, 4)
    path.write_text(json.dumps(mio.matrix_to_dict(T)))
    results = []
    for fields, flags in [('"restarts": 2', ["--seed", "7"]),
                          ('"restarts": 2, "seed": 7', ["--seed", "3"]),
                          ('"restarts": 2', [])]:
        opts = tmp_path / "opts.json"
        opts.write_text("{" + fields + "}")
        res = run_cli("decompose", "--in", str(path), "--chain", "skew,skew,skew,skew",
                      "--opts", str(opts), *flags)
        assert "Traceback" not in res.stderr
        results.append((res.returncode, res.stdout))
    seed7_by_flag, seed7_by_file, seed0 = results
    assert seed7_by_flag == seed7_by_file
    assert seed7_by_flag != seed0


_HUGE = "1" + "0" * 400  # an integer beyond the float range
_ONE = '{"n": 1, "entries": [[[1, 0]]]}'
_DIAGONAL = ("--chain", "diagonal")


@pytest.mark.parametrize("name,data,opts,args,code,message", [
    pytest.param("t.json", '{"n": 1, "entries": [[[%s, 0]]]}' % _HUGE, None, _DIAGONAL, 2,
                 "non-finite entry", id="huge-integer-entry"),
    pytest.param("t.json", "[" * 200_000, None, _DIAGONAL, 2, "invalid JSON", id="deep-nesting"),
    pytest.param("t.json", '{"n": 1, "entries": [[[1%s, 0]]]}' % ("0" * 5000), None, _DIAGONAL,
                 2, "invalid JSON", id="integer-past-the-digit-limit"),
    pytest.param("t.json", b'\xff\xfe{"n": 1, "entries": [[[1, 0]]]}', None, _DIAGONAL, 2,
                 "UTF-8", id="not-utf8-json"),
    pytest.param("t.csv", b"\xff\xfe1,2\n3,4\n", None, _DIAGONAL, 2, "UTF-8", id="not-utf8-csv"),
    # finite entries whose Frobenius norm overflows
    pytest.param("t.json", '{"n": 2, "entries": [[[1e200, 0], [1e200, 0]], [[1e200, 0], '
                 '[1e200, 0]]]}', None, _DIAGONAL, 1, "Frobenius norm", id="norm-overflows"),
    pytest.param("t.json", '{"n": 1, "entries": [[1]]}', None, _DIAGONAL, 2,
                 "is not an [re, im] pair", id="entry-not-a-pair"),
    pytest.param("t.json", '{"n": 0, "entries": []}', None, _DIAGONAL, 2,
                 "is not a positive integer", id="size-not-positive"),
    pytest.param("t.json", '{"n": 2, "entries": [[[1, 0], [0, 0]]]}', None, _DIAGONAL, 2,
                 "expected 2 rows", id="wrong-row-count"),
    pytest.param("t.json", '{"n": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]}', None, _DIAGONAL,
                 2, "row 1 does not have 2 entries", id="short-row"),
    pytest.param("t.csv", "", None, _DIAGONAL, 2, "no matrix rows found", id="empty-csv"),
    pytest.param("t.csv", "1e999", None, _DIAGONAL, 2, "non-finite entry", id="csv-overflow"),
    pytest.param("t.json", _ONE, None, ("--chain", "diagonal", "--seed", "abc"), 1,
                 "invalid int value", id="seed-not-an-integer"),
    pytest.param("t.json", _ONE, None, ("--chain", "k-diagonal:x"), 1, "bad family token",
                 id="family-argument-not-an-integer"),
    pytest.param("t.json", _ONE, None, ("--chain", ","), 1, "at least one family",
                 id="chain-without-families"),
])
def test_malformed_input_files_give_an_error_not_a_traceback(tmp_path, name, data, opts, args,
                                                              code, message):
    path = tmp_path / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    extra = []
    if opts is not None:
        (tmp_path / "opts.json").write_text(opts)
        extra = ["--opts", str(tmp_path / "opts.json")]
    res = run_cli("decompose", "--in", str(path), *args, *extra)
    assert res.returncode == code
    assert message in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["verify", "sample", "decompose"])
def test_negative_seed_is_a_usage_error(tmp_path, command):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mio.matrix_to_dict(np.eye(3, dtype=complex))))
    args = {
        "verify": ["--family", "skew", "--n", "4", "--r", "3"],
        "sample": ["--family", "skew", "--n", "4"],
        "decompose": ["--in", str(path), "--chain", "diagonal"],
    }[command]
    res = run_cli(command, *args, "--seed", "-1")
    assert res.returncode == 1
    assert "--seed" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1"])
def test_rank_tolerance_out_of_range_is_a_usage_error(command, tol):
    args = ["--family", "skew", "--n", "4", "--r", "3"] if command == "verify" else []
    res = run_cli(command, *args, f"--tol={tol}")
    assert res.returncode == 1
    assert "tolerance" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_companion_tolerance_out_of_range_is_a_usage_error(tmp_path, tol):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(mio.matrix_to_dict(np.eye(3, dtype=complex) + 0.1)))
    res = run_cli("companion", "--in", str(path), f"--tol={tol}")
    assert res.returncode == 1
    assert "tolerance" in res.stderr
    assert "Traceback" not in res.stderr


def test_companion_at_tolerance_zero_reports_an_exactly_singular_block(tmp_path, capsys):
    path = tmp_path / "a.json"
    A = np.array([[3.0, 1.0, 1.0], [3.0, 1.0, 2.0], [3.0, 1.0, 1.0]], dtype=complex)
    path.write_text(json.dumps(mio.matrix_to_dict(A)))
    assert cli.main(["companion", "--in", str(path), "--tol", "0"]) == 5
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["failed_column"]) == ("no-solution", 3)


def test_companion_generic(tmp_path):
    rng = np.random.default_rng(31)
    A = fam.complex_gaussian(rng, 16).reshape(4, 4)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(mio.matrix_to_dict(A)))
    res = run_cli("companion", "--in", str(path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["status"] == "unique"
    assert doc["failed_column"] is None
    P = np.eye(4, dtype=complex)
    for col in doc["coefficients"]:
        P = P @ companion_matrix(np.array([complex(a, b) for a, b in col]))
    assert np.linalg.norm(P - A) <= 1e-10 * np.linalg.norm(A)


def test_companion_counterexample_exits_5(tmp_path):
    rng = np.random.default_rng(32)
    A = fam.complex_gaussian(rng, 16).reshape(4, 4)
    A[0, 0] = 0.0
    A[0, 1] = 1.0
    path = tmp_path / "a.json"
    path.write_text(json.dumps(mio.matrix_to_dict(A)))
    res = run_cli("companion", "--in", str(path))
    assert res.returncode == 5
    doc = json.loads(res.stdout)
    assert doc["status"] == "no-solution"
    assert doc["failed_column"] == 2
    assert doc["coefficients"] is None


def test_bounds_symmetric_toeplitz():
    res = run_cli("bounds", "--family", "toeplitz-sym", "--n", "7")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["family_dim"] == 7
    assert doc["target"] == {"tag": "centro", "dim": 25}
    assert doc["cone"] is True
    assert doc["lower_bound"] == 4
    assert doc["generic_r"] == 4
    # the paper claims generic centrosymmetric targets only
    assert doc["surjective_r"] is None


def test_bounds_even_n_generic_count_meets_lower_bound():
    for family in ("toeplitz-sym", "hankel-persym"):
        doc = json.loads(run_cli("bounds", "--family", family, "--n", "4").stdout)
        assert doc["target"] == {"tag": "centro", "dim": 8}
        assert doc["lower_bound"] == 3
        assert doc["generic_r"] == 3
        assert doc["surjective_r"] is None


def test_bounds_skew():
    doc = json.loads(run_cli("bounds", "--family", "skew", "--n", "5").stdout)
    assert doc["target"] == {"tag": "det", "dim": 24}
    assert doc["lower_bound"] == 3
    doc = json.loads(run_cli("bounds", "--family", "skew", "--n", "8").stdout)
    assert doc["target"] == {"tag": "full", "dim": 64}
    assert doc["lower_bound"] == 3
    assert doc["generic_r"] == 3
    assert doc["surjective_r"] == 13


def test_bounds_bidiagonal_generic_count_is_certified():
    """The tridiagonal family's quoted count: a chain of generic_r factors
    has full Jacobian rank, one factor fewer does not (from n = 3)."""
    for n in range(2, 8):
        _, r = fam.bounds_facts(fam.FamilySpec("bidiagonal", n))
        assert dom.estimate_image_dimension(dom.problem(["bidiagonal"] * r, n), trials=5).dominant
        if n >= 3:
            fewer = dom.problem(["bidiagonal"] * (r - 1), n)
            assert not dom.estimate_image_dimension(fewer, trials=5).dominant
    doc = json.loads(run_cli("bounds", "--family", "bidiagonal", "--n", "5").stdout)
    assert doc["generic_r"] == 4
    assert doc["surjective_r"] == 17


def test_bounds_orthogonal_quotes_the_orthogonal_group():
    doc = json.loads(run_cli("bounds", "--family", "orthogonal", "--n", "5").stdout)
    assert doc["target"] == {"tag": "orthogonal", "dim": 10}
    assert doc["lower_bound"] == 1 and doc["lower_bound_rule"] == "ceil(10 / 10)"


def test_bounds_companion_is_not_a_cone():
    doc = json.loads(run_cli("bounds", "--family", "companion", "--n", "5").stdout)
    assert doc["cone"] is False
    assert doc["lower_bound"] == 5
    assert doc["generic_r"] == 5
    assert doc["surjective_r"] == 21


def test_sample_is_seeded_and_member():
    a = run_cli("sample", "--family", "toeplitz-sym", "--n", "5", "--seed", "7")
    b = run_cli("sample", "--family", "toeplitz-sym", "--n", "5", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    M = np.array([[complex(x, y) for x, y in row]
                  for row in json.loads(a.stdout)["entries"]])
    spec = fam.FamilySpec("toeplitz-sym", 5)
    assert fam.is_member(spec, M, 1e-12)


@pytest.mark.parametrize("argv", [
    ["bounds", "--family", "skew", "--n", "1"],
    ["bounds", "--family", "orthogonal", "--n", "1"],
    ["sample", "--family", "skew", "--n", "1"],
    ["sample", "--family", "orthogonal", "--n", "1"],
    ["verify", "--family", "skew", "--n", "1", "--r", "2"],
    ["verify", "--family", "orthogonal", "--n", "1", "--r", "2"],
] + [[command, "--family", family, "--n", "1"] + (["--r", "2"] if command == "verify" else [])
     for family in ("vandermonde", "vandermonde-t:0") for command in ("bounds", "sample", "verify")],
    ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_family_without_parameters_is_a_usage_error(argv):
    # skew-symmetric, orthogonal and type-0 Vandermonde 1 x 1 families have
    # dimension 0
    res = run_cli(*argv)
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("alias,canonical", [
    ("skew", "skew-symmetric"),
    ("upper", "triangular-upper"),
    ("lower", "triangular-lower"),
])
def test_family_aliases(alias, canonical):
    res = run_cli("sample", "--family", alias, "--n", "3", "--seed", "0")
    assert res.returncode == 0
    direct = run_cli("sample", "--family", canonical, "--n", "3", "--seed", "0")
    assert res.stdout == direct.stdout


def test_family_argument_syntax():
    res = run_cli("bounds", "--family", "k-diagonal:3", "--n", "5")
    assert res.returncode == 0
    assert json.loads(res.stdout)["family_dim"] == 25 - 2 * 3  # (2k-1)n - k(k-1)
    res = run_cli("bounds", "--family", "subspace:7", "--n", "4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["family_dim"] == 7


def test_sample_orthogonal_in_a_fresh_process():
    res = run_cli("sample", "--family", "orthogonal", "--n", "3", "--seed", "0")
    assert res.returncode == 0
    M = np.array([[complex(x, y) for x, y in row]
                  for row in json.loads(res.stdout)["entries"]])
    assert np.max(np.abs(M.T @ M - np.eye(3))) <= 1e-12
