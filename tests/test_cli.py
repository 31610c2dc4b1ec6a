import json
import math

import numpy as np
import pytest

from ortholat.cli import main
from ortholat.linalg import (
    frob,
    hermitian_matrix,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
    rng_for,
)


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

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 2

    def test_bad_dim_exit_two(self, capsys):
        assert main(["verify", "--suite", "prop2", "--dim", "0"]) == 2

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


class TestOrtho:
    def test_diagonal_pair(self, matrix_file, capsys):
        code = main(["ortho", "--a", matrix_file("a.json", np.diag([3.0, 1.0])),
                     "--b", matrix_file("b.json", np.diag([1.0, 2.0]))])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(report["inf"]), np.diag([1.0, 1.0]))
        assert np.allclose(matrix_from_json(report["sup"]), np.diag([3.0, 2.0]))
        assert report["theorem4"]["holds"] is True

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

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(matrix_to_json(np.eye(2).astype(complex))))
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

    def test_one_eigendecomposition_same_report(self, matrix_file, capsys, monkeypatch):
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

        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert main(["decompose", "--a", path]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == want


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

    def test_comparable_exit_two(self, matrix_file, capsys):
        assert main(["witness", "--a", matrix_file("a.json", np.diag([1.0, 0.0])),
                     "--b", matrix_file("b.json", np.diag([2.0, 1.0]))]) == 2

    def test_zero_restarts_exit_two(self, matrix_file, capsys):
        assert main(["witness", "--a", matrix_file("s.json", S),
                     "--b", matrix_file("t.json", T), "--restarts", "0"]) == 2
