import numpy as np
import pytest

import ortholat.axioms
from ortholat.axioms import check_axioms, check_theorem7
from ortholat.carriers import (
    BrokenOrthModel,
    CoordinateModel,
    MatrixSaModel,
)
from ortholat.linalg import (
    jordan_decompose,
    random_hermitian,
    rel_diff,
    rng_for,
)
from ortholat.orthogonality import OrthReport

from helpers import loewner_le


class TestModels:
    def test_decomposition_matches_jordan(self):
        model = MatrixSaModel(4)
        v = random_hermitian(4, rng_for(81))
        up, un, _ = model.jordan(v)
        jp, jn, _ = jordan_decompose(v)
        assert np.array_equal(up, jp) and np.array_equal(un, jn)

    def test_coordinate_decomposition(self):
        model = CoordinateModel(3)
        v = np.array([1.0, -2.0, 0.0])
        up, un, _ = model.jordan(v)
        assert np.array_equal(up, [1.0, 0.0, 0.0])
        assert np.array_equal(un, [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("model", [MatrixSaModel, CoordinateModel])
    def test_orth_matches_exact_predicate_on_positives(self, model):
        # check_axioms and check_theorem7 judge positives by zero_product
        # alone: each positive is its own absolute value
        model = model(4)
        for i in range(50):
            rng = rng_for(82, i)
            a = model.sample_positive(rng)
            b = model.sample_positive(rng)
            exact = model.zero_product(a, b) <= model.tol.tol_zero
            derived = model.orth_residual(a, b) <= model.tol.tol_zero
            assert exact == derived

    def test_dominated_sample(self):
        model = MatrixSaModel(4)
        v = random_hermitian(4, rng_for(83))
        abs_v = model.jordan(v)[2]
        for i in range(20):
            w = model.dominated_sample(v, rng_for(84, i))
            assert loewner_le(model.jordan(w)[2], abs_v)

    def test_dominated_sample_decomposes_v_once(self, eigen_calls):
        MatrixSaModel(4).dominated_sample(random_hermitian(4, rng_for(83)), rng_for(84))
        assert dict(eigen_calls) == {"eigh": 1}

    def test_orthogonal_triple(self):
        for model in (MatrixSaModel(4), CoordinateModel(4)):
            for i in range(20):
                u, v, w = model.orthogonal_triple(rng_for(85, i))
                assert model.cone_defect(u) <= model.tol.tol_psd
                assert model.orth_residual(u, v) <= model.tol.tol_zero
                assert model.orth_residual(u, w) <= model.tol.tol_zero


class TestCheckAxioms:
    def test_matrix_carrier(self):
        rep = check_axioms(MatrixSaModel(4), trials=100, seed=1)
        assert rep.holds

    def test_coordinate_carrier(self):
        rep = check_axioms(CoordinateModel(8), trials=100, seed=2)
        assert rep.holds

    def test_zero_perturbation_is_no_survivor(self):
        # one of these trials draws a negative definite matrix, whose positive
        # part, the uniqueness perturbation, is exactly zero
        rep = check_axioms(MatrixSaModel(4), trials=250, seed=5000020)
        assert dict(rep.details)["ax4_uniqueness_survivors"] == 0.0
        assert rep.holds

    def test_broken_model_fails_uniqueness(self):
        rep = check_axioms(BrokenOrthModel(4), trials=50, seed=3)
        assert not rep.holds
        assert dict(rep.details)["ax4_uniqueness_survivors"] > 0

    def test_one_decomposition_per_axiom4_trial(self, eigen_calls):
        # a trial makes 8 eigh: jordan(u), whose parts serve axioms 1 and 4,
        # orthogonal_triple, |ut| and |vt| (shared by axioms 2, 3 and 5),
        # |k vt + wt|, sample_positive, dominated_sample (which decomposes vt
        # again for its eigenbasis) and |w5|; the Jordan parts and their
        # perturbations are positive, so none of them is decomposed
        check_axioms(MatrixSaModel(4), trials=10)
        assert eigen_calls["eigh"] == 10 * 8


class TestCheckTheorem7:
    def test_diagonal_triple(self):
        model = MatrixSaModel(3)
        u = np.diag([1.0, 0.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0, 0.0]).astype(complex)
        w = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert model.orth_residual(u, model.jordan(v + w)[2]) <= model.tol.tol_zero
        assert model.orth_residual(u, model.jordan(v - w)[2]) <= model.tol.tol_zero

    def test_block_triple(self):
        model = MatrixSaModel(3)
        for i in range(20):
            rng = rng_for(86, i)
            u = np.zeros((3, 3), dtype=complex)
            u[0, 0] = 1.0
            v = np.zeros((3, 3), dtype=complex)
            w = np.zeros((3, 3), dtype=complex)
            v[1:, 1:] = random_hermitian(2, rng)
            w[1:, 1:] = random_hermitian(2, rng)
            assert model.orth_residual(u, model.jordan(v + w)[2]) <= model.tol.tol_zero
            assert model.orth_residual(u, model.jordan(v - w)[2]) <= model.tol.tol_zero

    def test_matrix_carrier(self):
        rep = check_theorem7(MatrixSaModel(3), trials=30, seed=4)
        assert rep.holds

    def test_coordinate_carrier(self):
        rep = check_theorem7(CoordinateModel(6), trials=50, seed=5)
        assert rep.holds

    def test_eigensolver_calls(self, eigen_calls):
        # a trial: 7 eigh (jordan, a square root per part, orthogonal_triple,
        # |ut|, |v + w| and |v - w|), 4 eigvalsh (the norms of the endpoints,
        # then of the 8 samples) and 3 qr (the samples of each part,
        # orthogonal_triple)
        check_theorem7(MatrixSaModel(4), trials=10, seed=3)
        assert dict(eigen_calls) == {"eigh": 70, "eigvalsh": 40, "qr": 30}

    def test_parts_verdict_is_the_shared_sampled_check(self, monkeypatch):
        calls = []

        def violating(a, b, **kwargs):
            calls.append(kwargs)
            return OrthReport("abs_infty_orth_sampled", False, 0.5,
                              [("exact_alg_orth", 0.25), ("sampled_deviation", 0.5)])
        monkeypatch.setattr(ortholat.axioms, "abs_infty_orth_sampled", violating)
        rep = check_theorem7(CoordinateModel(4), trials=3, seed=6)
        assert not rep.holds
        assert dict(rep.details)["parts_infty_sampled"] == 0.5
        # the exact half is the sampled check's own, not computed again
        assert dict(rep.details)["parts_exact_orth"] == 0.25
        assert len(calls) == 3 and all(c["trials"] == 9 for c in calls)

    @pytest.mark.parametrize("model", [MatrixSaModel, CoordinateModel])
    def test_zero_product_calls(self, model, monkeypatch):
        # a trial: the exact half inside abs_infty_orth_sampled, then the
        # orthogonality residuals to |v + w| and |v - w|
        calls = []
        zero_product = model.zero_product
        monkeypatch.setattr(model, "zero_product",
                            lambda self, x, y: calls.append(1) or zero_product(self, x, y))
        assert check_theorem7(model(4), trials=10, seed=3).holds
        assert len(calls) == 3 * 10
