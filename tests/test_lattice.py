import numpy as np
import pytest

from ortholat.errors import DimensionMismatch, PreconditionFailed
from ortholat.lattice import (
    am_norm_laws,
    join,
    lattice_orth,
    meet,
    prop6_check,
    sup_norm,
    verify_corollary5,
)
from ortholat.linalg import rng_for
from ortholat.ortholattice import ortho_inf, ortho_sup


class TestLatticeOps:
    def test_meet_join(self):
        x, y = np.array([3.0, -1.0]), np.array([1.0, 2.0])
        assert np.array_equal(meet(x, y), [1.0, -1.0])
        assert np.array_equal(join(x, y), [3.0, 2.0])

    def test_idempotent(self):
        x = np.array([1.0, 2.0, -3.0])
        assert np.array_equal(meet(x, x), x)
        assert np.array_equal(join(x, x), x)

    def test_closed_forms_exact(self):
        for i in range(50):
            rng = rng_for(70, i)
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            # agreement up to one rounding of the closed-form arithmetic
            assert np.max(np.abs((x + y - np.abs(x - y)) / 2 - meet(x, y))) <= 1e-15
            assert np.max(np.abs((x + y + np.abs(x - y)) / 2 - join(x, y))) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            meet([1.0], [1.0, 2.0])


class TestLatticeOrth:
    def test_disjoint(self):
        assert lattice_orth([1.0, 0.0, -2.0], [0.0, 3.0, 0.0])

    def test_overlap(self):
        assert not lattice_orth([1.0, 1.0], [0.0, 1.0])

    def test_zero(self):
        assert lattice_orth([5.0, -1.0], [0.0, 0.0])


class TestCorollary5:
    def test_example(self):
        rep = verify_corollary5([3.0, -1.0], [1.0, 2.0])
        assert rep.holds

    def test_identical(self):
        x = np.array([1.0, -2.0])
        assert verify_corollary5(x, x).holds

    def test_random_pairs(self):
        for i in range(100):
            rng = rng_for(71, i)
            n = int(rng.integers(2, 17))
            rep = verify_corollary5(rng.standard_normal(n), rng.standard_normal(n),
                                    trials=20, seed=90 + i)
            assert rep.holds


class TestAmNormLaws:
    def test_join_law(self):
        rep = am_norm_laws([1.0, 0.0], [0.0, 0.5])
        assert rep.holds
        assert dict(rep.details)["join_norm"] == 0.0

    def test_monotone_law(self):
        # |u| = (1,1) <= (2,1) = |v| forces ||u|| <= ||v||
        rep = am_norm_laws([1.0, 1.0], [2.0, 1.0])
        assert rep.holds
        assert "norm_monotone" in dict(rep.details)

    def test_order_unit_norm_formula(self):
        assert sup_norm([0.5, -2.0]) == 2.0
        rep = am_norm_laws([0.5, 2.0], [1.0, 1.0])
        assert rep.holds

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            am_norm_laws([-1.0, 0.0], [1.0, 0.0])


class TestProp6:
    def test_disjoint_supports(self):
        rep = prop6_check([1.0, 0.0, 2.0], [0.0, 3.0, 0.0], trials=200, seed=5)
        assert rep.holds
        assert dict(rep.details)["direction"] == 1.0

    def test_overlap_witness(self):
        # w = u meet v = (0,1): ||w + w|| = 2 != 1 = ||w||
        rep = prop6_check([1.0, 1.0], [0.0, 1.0])
        assert rep.holds
        assert dict(rep.details)["direction"] == 2.0

    def test_zero_pair(self):
        assert prop6_check([0.0, 0.0], [0.0, 0.0]).holds

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            prop6_check([-1.0], [1.0])


class TestBridge:
    def test_diagonal_matrices_match_vectors(self):
        for i in range(100):
            rng = rng_for(72, i)
            n = int(rng.integers(2, 9))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            c = ortho_inf(np.diag(x).astype(complex), np.diag(y).astype(complex))
            d = ortho_sup(np.diag(x).astype(complex), np.diag(y).astype(complex))
            assert np.max(np.abs(np.diag(c).real - meet(x, y))) <= 1e-12
            assert np.max(np.abs(np.diag(d).real - join(x, y))) <= 1e-12

    def test_orth_verdicts_match(self):
        from ortholat.orthogonality import alg_orth_sa
        for i in range(50):
            rng = rng_for(73, i)
            x = rng.standard_normal(4) * rng.integers(0, 2, size=4)
            y = rng.standard_normal(4) * rng.integers(0, 2, size=4)
            assert lattice_orth(x, y) == \
                alg_orth_sa(np.diag(x).astype(complex), np.diag(y).astype(complex)).holds
