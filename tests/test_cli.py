import hashlib
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import ortholat.suites
from ortholat.cli import main
from ortholat.linalg import (
    Spectrum,
    frob,
    hermitian_matrix,
    matrix_from_json,
    matrix_to_json,
    rng_for,
)
from ortholat.ortholattice import ortho_inf_sup, verify_theorem4

from helpers import random_hermitian
from test_ortholattice import BARELY_S, BARELY_T


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, m):
        path = tmp_path / name
        path.write_text(json.dumps(matrix_to_json(np.asarray(m, dtype=complex))))
        return str(path)
    return write


S = np.diag([1.0, 0.0])
T = 0.5 * np.ones((2, 2))


class TestVerify:
    def test_single_suite_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "--suite", "prop2", "--dim", "3", "--trials", "5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["seed"] == 1
        assert report["suites"][0]["trials"] == 5

    def test_failing_suite_exits_one_with_strict_json(self, capsys, monkeypatch):
        # a survivor fails its record and the suite, and names itself with the
        # finite ratio 2 of a count read against 1/2: exit 1 with a report, not
        # the exit 2 of a value beyond the float range
        original = ortholat.suites._theorem4_stack

        def one_survivor(pair, seeds, trials):
            reports = original(pair, seeds, trials)
            if seeds[0] == 42:   # the suite's first pair
                reports[0].details[-1] = ("uniqueness_survivors", 1.0)
            return reports
        monkeypatch.setattr(ortholat.suites, "_theorem4_stack", one_survivor)
        assert main(["verify", "--suite", "theorem4", "--trials", "5"]) == 1
        (suite,) = json.loads(capsys.readouterr().out)["suites"]
        assert suite["pass"] is False and suite["failures"] == 1
        assert (suite["worst_ratio"], suite["worst_check"]) == (2.0, "uniqueness_survivors")

    def test_determinism(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            main(["verify", "--suite", "all", "--dim", "3", "--trials", "5",
                  "--seed", "42", "--out", str(p)])
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOLAT_SEED", "77")
        out = tmp_path / "rep.json"
        main(["verify", "--suite", "bridge", "--trials", "2", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 77

    @pytest.mark.parametrize("value", ["abc", "4.5", ""])
    def test_env_seed_not_an_integer_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ORTHOLAT_SEED", value)
        assert main(["verify", "--suite", "bridge", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ORTHOLAT_SEED must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("flag", ["--tol-zero", "--tol-eq"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "5e-324"])
    def test_tolerance_out_of_range_exit_two(self, flag, value, capsys):
        # an infinite tol_zero would call every pair orthogonal, and a bound
        # below 1e-300 would overflow a residual's ratio to it
        assert main(["verify", "--suite", "prop2", "--dim", "4", "--trials", "20",
                     f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[2:].replace('-', '_')} must be finite and " \
                               f"at least 1e-300\n"

    @pytest.mark.parametrize("flag", ["--tol-zero", "--tol-eq"])
    def test_huge_finite_tolerance_accepted(self, flag, capsys):
        assert main(["verify", "--suite", "prop2", "--dim", "3", "--trials", "2",
                     flag, "1e300"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["command"] == "verify"


class TestUsage:
    # argparse's usage errors and --help return through main: its exit code,
    # with the usage on stderr and nothing on stdout for an error
    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "ortholat: error: argument command: invalid choice: "),
        (["verify", "--dim", "x"],
         "ortholat verify: error: argument --dim: invalid int value: 'x'"),
    ], ids=["unknown-command", "dim-not-an-int"])
    def test_usage_error_exits_two(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ortholat")
        assert captured.err.splitlines()[-1].startswith(message)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ortholat") and captured.err == ""


class TestOrtho:
    def test_diagonal_pair(self, matrix_file, capsys):
        code = main(["ortho", "--a", matrix_file("a.json", np.diag([3.0, 1.0])),
                     "--b", matrix_file("b.json", np.diag([1.0, 2.0]))])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(report["inf"]), np.diag([1.0, 1.0]))
        assert np.allclose(matrix_from_json(report["sup"]), np.diag([3.0, 2.0]))
        assert report["theorem4"]["holds"] is True

    def test_checks_uniqueness_at_the_seed(self, matrix_file, capsys):
        a, b = matrix_file("s.json", S), matrix_file("t.json", T)
        assert main(["ortho", "--a", a, "--b", b, "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 7
        assert len(report["theorem4"]["details"]) == 5
        assert report["theorem4"]["details"][4] == ["uniqueness_survivors", 0.0]

    def test_eigen_calls(self, matrix_file, capsys, eigen_calls):
        # one eigh of a - b serves the inf and sup fields and Theorem 4's
        # check, with the two cone defects of its existence half; every one
        # of the 10 perturbations is settled by the zero product
        a, b = matrix_file("s.json", S), matrix_file("t.json", T)
        assert main(["ortho", "--a", a, "--b", b, "--seed", "7"]) == 0
        assert dict(eigen_calls) == {"eigh": 1, "eigvalsh": 2}

    @pytest.mark.parametrize("pair", [
        lambda: (S, T),
        lambda: (random_hermitian(8, rng_for(13, 0)), random_hermitian(8, rng_for(13, 1))),
    ], ids=["fixture", "n8"])
    def test_fields_are_the_library_results(self, pair, matrix_file, capsys):
        # inf and sup from the check's own decomposition are, repr-exact,
        # what ortho_inf_sup and verify_theorem4 give on the loaded pair
        paths = [matrix_file(name, m) for name, m in zip(("a.json", "b.json"), pair())]
        a, b = (hermitian_matrix(matrix_from_json(Path(p).read_text())) for p in paths)
        assert main(["ortho", "--a", paths[0], "--b", paths[1], "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        inf, sup = ortho_inf_sup(a, b)
        assert report["inf"] == matrix_to_json(inf)
        assert report["sup"] == matrix_to_json(sup)
        assert report["theorem4"] == json.loads(json.dumps(verify_theorem4(a, b, seed=7).to_json()))

    def test_determinism(self, matrix_file, capsys):
        a, b = matrix_file("s.json", S), matrix_file("t.json", T)
        outs = []
        for _ in range(2):
            assert main(["ortho", "--a", a, "--b", b, "--seed", "7"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_closed_form_pair(self, matrix_file, capsys):
        code = main(["ortho", "--a", matrix_file("s.json", S),
                     "--b", matrix_file("t.json", T)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        inf = matrix_from_json(report["inf"]).real
        want = np.array([[(3 - math.sqrt(2)) / 4, 0.25],
                         [0.25, (1 - math.sqrt(2)) / 4]])
        assert np.max(np.abs(inf - want)) <= 1e-9

    def test_equal_pair(self, matrix_file, capsys):
        a = matrix_file("a.json", np.diag([2.0, -1.0]))
        b = matrix_file("b.json", np.diag([2.0, -1.0]))
        main(["ortho", "--a", a, "--b", b])
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(report["inf"]),
                           matrix_from_json(report["sup"]))

    def test_dimension_mismatch_exit_two(self, matrix_file, capsys):
        assert main(["ortho", "--a", matrix_file("a.json", np.eye(2)),
                     "--b", matrix_file("b.json", np.eye(3))]) == 2
        err = capsys.readouterr().err
        assert "(2, 2)" in err and "(3, 3)" in err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(matrix_to_json(np.eye(2).astype(complex))))
        bad = tmp_path / "bad.json"
        # not JSON, an n too large to allocate, not an object, an n that is
        # null, fractional, boolean or a string
        for text in ("{not json", '{"n": 1000000000, "re": [[1.0]]}', "[1, 2]",
                     '{"n": null, "re": [[1.0]]}',
                     '{"n": 2.9, "re": [[1.0, 0.0], [0.0, -1.0]]}',
                     '{"n": true, "re": [[1.0]]}', '{"n": "1", "re": [[1.0]]}'):
            bad.write_text(text)
            assert main(["ortho", "--a", str(bad), "--b", str(good)]) == 2

    def test_asymmetric_input_warns(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(matrix_to_json(
            np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))))
        code = main(["ortho", "--a", str(p), "--b", str(p)])
        assert code == 0
        assert "symmetrizing" in capsys.readouterr().err


class TestDecompose:
    def test_diagonal(self, matrix_file, capsys):
        code = main(["decompose", "--a", matrix_file("a.json", np.diag([2.0, -3.0]))])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(report["pos"]), np.diag([2.0, 0.0]))
        assert np.allclose(matrix_from_json(report["neg"]), np.diag([0.0, 3.0]))
        assert np.allclose(matrix_from_json(report["abs"]), np.diag([2.0, 3.0]))
        assert report["eigenvalues"] == [-3.0, 2.0]

    def test_one_eigendecomposition_same_report(self, matrix_file, capsys, eigen_calls):
        path = matrix_file("a.json", random_hermitian(4, rng_for(12)))
        with open(path, encoding="utf-8") as fh:
            a = hermitian_matrix(matrix_from_json(json.load(fh)))
        # the report as built by decomposing twice: once for the Jordan
        # parts, once more for the eigenvalues
        w, u = np.linalg.eigh(a)
        pos = hermitian_matrix((u * np.maximum(w, 0.0)) @ u.conj().T)
        neg = hermitian_matrix((u * np.maximum(-w, 0.0)) @ u.conj().T)
        want = json.dumps({
            "command": "decompose",
            "pos": matrix_to_json(pos),
            "neg": matrix_to_json(neg),
            "abs": matrix_to_json(pos + neg),
            "eigenvalues": np.linalg.eigh(a)[0].tolist(),
            "norm": frob(a),
        }, indent=2, sort_keys=True) + "\n"

        eigen_calls.clear()
        assert main(["decompose", "--a", path]) == 0
        assert eigen_calls == {"eigh": 1}
        assert capsys.readouterr().out == want


    def test_value_out_of_the_float_range_exit_two(self, tmp_path, capsys):
        # the Frobenius norm of 1e160 overflows to inf, which has no JSON form
        path = tmp_path / "big.json"
        path.write_text('{"n": 2, "re": [[1e160, 0], [0, 1]]}')
        out = tmp_path / "rep.json"
        with np.errstate(over="ignore"):
            code = main(["decompose", "--a", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: a value of the report left the float range, so it has no JSON form"]

    @pytest.mark.parametrize("text, message", [
        ('{"n": 2, "re": [[1, 2], [2]]}', "matrix JSON shape mismatch for n=2"),
        ('{"n": 2, "re": [[1, 2], [2, "a"]]}',
         'matrix JSON must be an object with numeric "n", "re" and "im"'),
        ('{"n": 2}', 'matrix JSON must be an object with numeric "n", "re" and "im" '
                     "(missing 're')"),
        ('{"re": [[1.0]]}', 'matrix JSON must be an object with numeric "n", "re" and "im" '
                            "(missing 'n')"),
        ('{"n": 1, "re": [["1.5"]]}', 'matrix JSON must be an object with numeric "n", "re" '
                                      'and "im" ' "(entry '1.5' is not a number)"),
        ('{"n": 1, "re": [[" 4 "]]}', 'matrix JSON must be an object with numeric "n", "re" '
                                      'and "im" ' "(entry ' 4 ' is not a number)"),
        ('{"n": 1, "re": [[true]]}', 'matrix JSON must be an object with numeric "n", "re" '
                                     'and "im" (entry True is not a number)'),
        ('{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, false], [0, 0]]}',
         'matrix JSON must be an object with numeric "n", "re" and "im" '
         "(entry False is not a number)"),
        ('{"n": 1, "re": [[1' + "0" * 400 + ']]}',
         'matrix JSON must be an object with numeric "n", "re" and "im" (int too large'),
        # a field that is not a list: the typed error naming it, not the shape
        # error of numpy's 0-d array
        ('{"n": 2, "re": null}', 'matrix JSON must be an object with numeric "n", "re" '
                                 'and "im" (re is None, not a list)'),
        ('{"n": 2, "re": 5}', 'matrix JSON must be an object with numeric "n", "re" '
                              'and "im" (re is 5, not a list)'),
        ('{"n": 2, "re": "abc"}', 'matrix JSON must be an object with numeric "n", "re" '
                                  "and \"im\" (re is 'abc', not a list)"),
        ('{"n": 2, "re": true}', 'matrix JSON must be an object with numeric "n", "re" '
                                 'and "im" (re is True, not a list)'),
        ('{"n": 2, "re": [[1, 0], [0, 1]], "im": null}',
         'matrix JSON must be an object with numeric "n", "re" and "im" '
         "(im is None, not a list)"),
        ('{"n": 1, "re": [1]}', "matrix JSON shape mismatch for n=1"),
        # an entry that is a list or an object: named, as a null entry is
        ('{"n": 2, "re": [[1, 2], [3, [4]]]}', 'matrix JSON must be an object with numeric '
                                               '"n", "re" and "im" (entry [4] is not a number)'),
        ('{"n": 2, "re": [[1, 2], [3, {}]]}', 'matrix JSON must be an object with numeric '
                                              '"n", "re" and "im" (entry {} is not a number)'),
    ], ids=["ragged", "non_numeric", "missing_re", "missing_n", "string_entry",
            "padded_string_entry", "bool_entry", "bool_im_entry", "int_beyond_floats",
            "null_re", "number_re", "string_re", "bool_re", "null_im", "flat_row",
            "list_entry", "object_entry"])
    def test_malformed_part_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["decompose", "--a", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: " + message)


class TestWitness:
    def test_fixture_found(self, matrix_file, capsys):
        code = main(["witness", "--a", matrix_file("s.json", S),
                     "--b", matrix_file("t.json", T),
                     "--restarts", "4", "--iters", "500", "--seed", "42"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["found"] is True
        assert report["margin"] >= 1e-3
        assert set(report["checks"]) == {"le_S", "le_T", "not_le_c"}

    def test_eigen_calls(self, matrix_file, capsys, eigen_calls, monkeypatch):
        # one eigh of S - T serves comparability, c and the witness's
        # eigenvectors; the three checks need eigenvalues only
        decomposed = []
        eigh = np.linalg.eigh   # the counting wrapper
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda x: decomposed.append(x.copy()) or eigh(x))
        assert main(["witness", "--a", matrix_file("s.json", S),
                     "--b", matrix_file("t.json", T)]) == 0
        assert dict(eigen_calls) == {"eigh": 1, "eigvalsh": 3}
        assert np.array_equal(decomposed[0], hermitian_matrix(S - T))

    def test_comparable_before_any_jordan_part(self, matrix_file, capsys, eigen_calls,
                                              monkeypatch):
        # S <= S + I: read off the eigenvalues of S - T, with no Jordan part
        def no_parts(self):
            raise AssertionError("a Jordan part was formed")

        monkeypatch.setattr(Spectrum, "jordan_parts", no_parts)
        assert main(["witness", "--a", matrix_file("s.json", S),
                     "--b", matrix_file("t.json", S + np.eye(2))]) == 2
        assert capsys.readouterr().err == \
            "error: S and T are comparable; their minimum is the infimum\n"
        assert dict(eigen_calls) == {"eigh": 1}

    def test_barely_non_comparable_exit_one(self, matrix_file, capsys):
        assert main(["witness", "--a", matrix_file("s.json", BARELY_S),
                     "--b", matrix_file("t.json", BARELY_T)]) == 1
        assert json.loads(capsys.readouterr().out)["found"] is False


@pytest.mark.parametrize("argv, message", [
    (["verify", "--dim", "0"], "--dim must be in [1, 64], got 0"),
    (["verify", "--suite", "prop2", "--dim", "0"], "--dim must be in [1, 64], got 0"),
    (["verify", "--dim", "65"], "--dim must be in [1, 64], got 65"),
    (["verify", "--trials", "0"], "--trials must be >= 1"),
    (["verify", "--suite", "nosuch"], "unknown suite 'nosuch'; choose from lemma1, prop2, "
                                      "prop3, theorem4, corollary5, prop6, theorem7, axioms, "
                                      "bridge, infty"),
    (["witness", "--a", "S", "--b", "T", "--restarts", "0"], "--restarts must be >= 1"),
    (["witness", "--a", "S", "--b", "T", "--iters", "0"], "--iters must be >= 1"),
    # diag(1, 0) <= diag(2, 1)
    (["witness", "--a", "S", "--b", "S_plus_I"],
     "S and T are comparable; their minimum is the infimum"),
], ids=["dim0", "prop2_dim0", "dim65", "trials0", "unknown_suite", "restarts0", "iters0",
        "comparable"])
def test_one_error_line_exit_two(matrix_file, capsys, argv, message):
    # configuration errors and a comparable pair end in main's one error
    # path: exit 2, nothing on stdout, and one error line
    fixtures = {"S": S, "T": T, "S_plus_I": S + np.eye(2)}
    argv = [matrix_file(f"{x}.json", fixtures[x]) if x in fixtures else x for x in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# sha256 of the reports on the fixture pair S, T (and on S, T scaled by
# 2**-20 and 2**20, exactly), as the CLI printed them when each residual
# floored its scale inline, with the verdict record's worst_ratio,
# worst_check and bounds in place of max_violation in ortho's: one floor
# function must leave them bit for bit. ortho-2^-20's record fails by one
# survivor, which names itself as its worst check at the ratio 2 of a count,
# and so ortho exits 1 there
@pytest.mark.parametrize("argv, operands, scale, digest, code", [
    (["ortho", "--seed", "7"], "ST", 1.0,
     "27e6c58d6cf6a581c90c216bf0d3a3eefb6b1dc12cc066b19f778f1923195483", 0),
    (["witness"], "ST", 1.0, "77b51ac10d3c1279b07b56a16370d054dc1812f5d51690c258da12a52a8f0336",
     0),
    (["decompose"], "T", 1.0, "2445849ac77e217203b8822def7f3e81c6dabb62423a6504c5d1fdb0cc30db0b",
     0),
    (["ortho", "--seed", "7"], "ST", 2.0 ** -20,
     "6ea92bf75111920b5f09d432e20961340cb37bd75594fa2723bd7f1fccb08474", 1),
    (["ortho", "--seed", "7"], "ST", 2.0 ** 20,
     "2af5af68f8620097920401269983ab6c138fca1cef22c62a1a01bb34b7356df6", 0),
], ids=["ortho", "witness", "decompose", "ortho-2^-20", "ortho-2^20"])
def test_fixture_reports_are_pinned(argv, operands, scale, digest, code, matrix_file, capsys):
    fixtures = {"S": S, "T": T}
    flags = [arg for flag, name in zip(("--a", "--b"), operands)
             for arg in (flag, matrix_file(f"{name}.json", scale * fixtures[name]))]
    assert main([*argv, *flags]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_exported_names():
    # the package's public API besides its modules: growing it means
    # editing this list
    import ortholat
    names = sorted(name for name, value in vars(ortholat).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted([
        "ComparablePair", "DimensionMismatch", "InternalInconsistency", "NoConvergence",
        "NotPositive", "OrtholatError", "PreconditionFailed",
        "CoordinateModel", "MatrixSaModel",
        "OrthReport", "abs_infty_orth_sampled", "alg_orth_general",
        "check_prop2_equivalence", "hereditary_check",
        "WitnessResult", "kadison_witness_search", "ortho_inf_sup", "verify_theorem4",
        "check_axioms", "check_theorem7",
        "DEFAULT_TOL", "Tolerances",
    ])
    assert len(names) == 22
