import numpy as np
import pytest

from ortholat.axioms import (
    BrokenOrthModel,
    CoordinateModel,
    MatrixSaModel,
    check_axioms,
    check_theorem7,
    make_model,
    order_unit_norm,
)
from ortholat.errors import NotOrderUnit
from ortholat.linalg import (
    jordan_decompose,
    random_hermitian,
    rel_diff,
    rng_for,
)


class TestOrderUnitNorm:
    def test_matrix_example(self):
        model = MatrixSaModel(2)
        assert order_unit_norm(np.diag([2.0, -5.0]), model) == pytest.approx(5.0)

    def test_coordinate_example(self):
        model = CoordinateModel(2)
        assert order_unit_norm(np.array([0.5, -2.0]), model) == pytest.approx(2.0)

    def test_zero(self):
        assert order_unit_norm(np.zeros((3, 3)), MatrixSaModel(3)) == 0.0
        assert order_unit_norm(np.zeros(3), CoordinateModel(3)) == 0.0

    def test_general_unit(self):
        model = CoordinateModel(2)
        assert order_unit_norm(np.array([1.0, 3.0]), model,
                               e=np.array([1.0, 2.0])) == pytest.approx(1.5)

    def test_invalid_unit(self):
        with pytest.raises(NotOrderUnit):
            order_unit_norm(np.ones(2), CoordinateModel(2), e=np.array([1.0, 0.0]))
        with pytest.raises(NotOrderUnit):
            order_unit_norm(np.eye(2), MatrixSaModel(2), e=np.diag([1.0, -1.0]))

    def test_matches_operator_norm(self):
        model = MatrixSaModel(5)
        for i in range(100):
            v = random_hermitian(5, rng_for(80, i))
            assert order_unit_norm(v, model) == pytest.approx(np.linalg.norm(v, 2))


class TestModels:
    def test_decomposition_matches_jordan(self):
        model = MatrixSaModel(4)
        v = random_hermitian(4, rng_for(81))
        up, un = model.pos_neg(v)
        jp, jn, _ = jordan_decompose(v)
        assert np.array_equal(up, jp) and np.array_equal(un, jn)

    def test_coordinate_decomposition(self):
        model = CoordinateModel(3)
        v = np.array([1.0, -2.0, 0.0])
        up, un = model.pos_neg(v)
        assert np.array_equal(up, [1.0, 0.0, 0.0])
        assert np.array_equal(un, [0.0, 2.0, 0.0])

    def test_orth_matches_exact_predicate_on_positives(self):
        model = MatrixSaModel(4)
        from ortholat.linalg import zero_product_residual
        for i in range(50):
            rng = rng_for(82, i)
            a = model.sample_positive(rng)
            b = model.sample_positive(rng)
            exact = zero_product_residual(a, b) <= model.tol.tol_zero
            derived = model.orth_residual(a, b) <= model.tol.tol_zero
            assert exact == derived

    def test_dominated_sample(self):
        model = MatrixSaModel(4)
        from ortholat.linalg import loewner_le
        v = random_hermitian(4, rng_for(83))
        abs_v = model.absolute(v)
        for i in range(20):
            w = model.dominated_sample(v, rng_for(84, i))
            assert loewner_le(model.absolute(w), abs_v)

    def test_orthogonal_triple(self):
        for carrier in ("matrix-sa", "coordinate"):
            model = make_model(carrier, 4)
            for i in range(20):
                u, v, w = model.orthogonal_triple(rng_for(85, i))
                assert model.cone_defect(u) <= model.tol.tol_psd
                assert model.orth_residual(u, v) <= model.tol.tol_zero
                assert model.orth_residual(u, w) <= model.tol.tol_zero

    def test_make_model_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_model("nosuch", 3)

    def test_model_json(self):
        assert MatrixSaModel(4).to_json() == {"carrier": "matrix-sa", "n": 4}
        assert CoordinateModel(8).to_json() == {"carrier": "coordinate", "n": 8}


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


class TestCheckTheorem7:
    def test_diagonal_triple(self):
        model = MatrixSaModel(3)
        u = np.diag([1.0, 0.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0, 0.0]).astype(complex)
        w = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert model.orth_residual(u, model.absolute(v + w)) <= model.tol.tol_zero
        assert model.orth_residual(u, model.absolute(v - w)) <= model.tol.tol_zero

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
            assert model.orth_residual(u, model.absolute(v + w)) <= model.tol.tol_zero
            assert model.orth_residual(u, model.absolute(v - w)) <= model.tol.tol_zero

    def test_matrix_carrier(self):
        rep = check_theorem7(MatrixSaModel(3), trials=30, seed=4)
        assert rep.holds

    def test_coordinate_carrier(self):
        rep = check_theorem7(CoordinateModel(6), trials=50, seed=5)
        assert rep.holds
