import json
import math

import numpy as np
import pytest

from ortholat.errors import DimensionMismatch, NoConvergence, NotPositive
from ortholat.linalg import (
    Spectrum,
    abs_general,
    complex_matrix,
    embed_offdiag,
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    hermitian_norm,
    is_comparable,
    is_psd,
    jordan_decompose,
    loewner_le,
    matrix_from_json,
    matrix_to_json,
    random_complex,
    random_hermitian,
    random_projection,
    random_unitary,
    rel_diff,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
from ortholat.tolerances import DEFAULT_TOL

from jacobi import jacobi_eigendecompose

TOL_RECON = 1e-9  # spectral reconstruction threshold (relative Frobenius)


def eig2_oracle(m):
    """Characteristic-polynomial eigenvalues of a 2x2 Hermitian matrix."""
    a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
    mean = (a + d) / 2.0
    r = math.hypot((a - d) / 2.0, abs(b))
    return mean - r, mean + r


E12_2 = np.array([[0, 1], [0, 0]], dtype=complex)
HALF_ONES = 0.5 * np.ones((2, 2), dtype=complex)


class TestEigendecompose:
    def test_already_diagonal(self):
        s = hermitian_eigendecompose(np.diag([3.0, 1.0]))
        assert np.allclose(s.eigenvalues, [1.0, 3.0])
        # columns are permuted identity columns
        assert np.allclose(np.abs(s.eigenvectors), np.eye(2)[:, ::-1])

    def test_rank_one_projection(self):
        s = hermitian_eigendecompose(HALF_ONES)
        lo, hi = eig2_oracle(HALF_ONES)
        assert np.allclose(s.eigenvalues, [lo, hi])
        v = s.eigenvectors[:, 1]
        assert np.allclose(np.abs(v), [1 / math.sqrt(2)] * 2)

    def test_pauli_y(self):
        m = np.array([[0, 1j], [-1j, 0]])
        s = hermitian_eigendecompose(m)
        assert np.allclose(s.eigenvalues, eig2_oracle(m))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("method", ["lapack", "jacobi"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstruction(self, method, n):
        solve = {"lapack": hermitian_eigendecompose, "jacobi": jacobi_eigendecompose}[method]
        rng = rng_for(7, n)
        a = random_hermitian(n, rng)
        s = solve(a)
        u = s.eigenvectors
        assert rel_diff((u * s.eigenvalues) @ u.conj().T, a) <= TOL_RECON
        assert rel_diff(u.conj().T @ u, np.eye(n)) <= TOL_RECON
        assert np.all(np.diff(s.eigenvalues) >= 0)

    def test_jacobi_matches_2x2_oracle(self):
        for i in range(50):
            a = random_hermitian(2, rng_for(11, i))
            s = jacobi_eigendecompose(a)
            assert np.allclose(s.eigenvalues, eig2_oracle(a), atol=1e-12)

    def test_jacobi_agrees_with_lapack(self):
        for i in range(20):
            a = random_hermitian(6, rng_for(12, i))
            s1 = jacobi_eigendecompose(a)
            s2 = hermitian_eigendecompose(a)
            assert np.allclose(s1.eigenvalues, s2.eigenvalues, atol=1e-11)

    def test_jacobi_no_convergence(self):
        a = random_hermitian(8, rng_for(13))
        with pytest.raises(NoConvergence):
            jacobi_eigendecompose(a, max_sweeps=1)

    def test_deterministic(self):
        a = random_hermitian(5, rng_for(14))
        s1 = hermitian_eigendecompose(a)
        s2 = hermitian_eigendecompose(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestJordanDecompose:
    def test_diagonal(self):
        pos, neg, absval = jordan_decompose(np.diag([2.0, -3.0]))
        assert np.allclose(pos, np.diag([2.0, 0.0]))
        assert np.allclose(neg, np.diag([0.0, 3.0]))
        assert np.allclose(absval, np.diag([2.0, 3.0]))

    def test_swap_matrix(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        pos, neg, absval = jordan_decompose(x)
        assert np.allclose(pos, HALF_ONES)
        assert np.allclose(neg, np.array([[0.5, -0.5], [-0.5, 0.5]]))
        assert np.allclose(absval, np.eye(2))

    def test_zero(self):
        pos, neg, absval = jordan_decompose(np.zeros((3, 3)))
        assert frob(pos) == frob(neg) == frob(absval) == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_properties(self, n):
        for i in range(30):
            a = random_hermitian(n, rng_for(22, n, i))
            pos, neg, absval = jordan_decompose(a)
            assert is_psd(pos) and is_psd(neg)
            assert zero_product_residual(pos, neg) <= DEFAULT_TOL.tol_zero
            assert rel_diff(pos - neg, a) <= DEFAULT_TOL.tol_eq
            assert rel_diff(pos + neg, absval) <= DEFAULT_TOL.tol_eq
            w, u = np.linalg.eigh(a)
            assert rel_diff(absval, (u * np.abs(w)) @ u.conj().T) <= DEFAULT_TOL.tol_eq


class TestSqrtPsd:
    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))

    def test_projection_is_own_root(self):
        assert np.allclose(sqrt_psd(HALF_ONES), HALF_ONES)

    def test_square_recovers(self):
        for i in range(20):
            rng = rng_for(23, i)
            g = random_complex(5, rng)
            a = hermitian_matrix(g @ g.conj().T)
            r = sqrt_psd(a)
            assert is_psd(r)
            assert rel_diff(r @ r, a) <= 1e-8

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestAbsGeneral:
    def test_matrix_unit(self):
        # E12* E12 = E22, so |E12| = diag(0, 1)
        assert np.allclose(abs_general(E12_2), np.diag([0.0, 1.0]))

    def test_hermitian_consistency(self):
        x = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(abs_general(x), np.eye(2))
        for i in range(20):
            a = random_hermitian(4, rng_for(24, i))
            assert rel_diff(abs_general(a), jordan_decompose(a)[2]) <= 1e-7

    def test_zero(self):
        assert frob(abs_general(np.zeros((2, 2)))) == 0.0

    def test_unitary_invariance(self):
        # |x| invariant under left multiplication, |x*| under right
        for i in range(20):
            rng = rng_for(25, i)
            x = random_complex(4, rng)
            u = random_unitary(4, rng)
            assert rel_diff(abs_general(u @ x), abs_general(x)) <= 1e-9
            xs = x.conj().T
            assert rel_diff(abs_general((x @ u).conj().T), abs_general(xs)) <= 1e-9


class TestEmbedOffdiag:
    def test_matrix_unit(self):
        e = embed_offdiag(E12_2)
        assert e.shape == (4, 4)
        assert rel_diff(e, e.conj().T) == 0.0
        assert np.allclose(abs_general(e), np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_zero(self):
        assert frob(embed_offdiag(np.zeros((3, 3)))) == 0.0

    def test_hermitian_input(self):
        e = embed_offdiag(np.diag([1.0, 2.0]))
        assert np.allclose(abs_general(e), np.diag([1.0, 2.0, 1.0, 2.0]))

    def test_block_identity(self):
        # |[[0, x], [x*, 0]]| = blockdiag(|x*|, |x|)
        for i in range(50):
            x = random_complex(3, rng_for(26, i))
            got = abs_general(embed_offdiag(x))
            want = np.zeros((6, 6), dtype=complex)
            want[:3, :3] = abs_general(x.conj().T)
            want[3:, 3:] = abs_general(x)
            assert rel_diff(got, want) <= 1e-8


class TestOperatorNorm:
    def test_examples(self):
        assert hermitian_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)
        # [[0, E12], [E12*, 0]] has the singular values of E12 as eigenvalues
        assert hermitian_norm(embed_offdiag(E12_2)) == pytest.approx(1.0)
        assert hermitian_norm(HALF_ONES) == pytest.approx(max(eig2_oracle(HALF_ONES)))
        assert hermitian_norm(np.zeros((3, 3))) == 0.0

    def test_cstar_identity_and_submultiplicative(self):
        for i in range(20):
            rng = rng_for(28, i)
            x = random_complex(4, rng)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            assert hermitian_norm(x.conj().T @ x) == pytest.approx(
                np.linalg.norm(x, 2) ** 2, rel=1e-9)
            assert np.linalg.norm(a @ b, 2) <= hermitian_norm(a) * hermitian_norm(b) + 1e-9


class TestConePredicates:
    def test_is_psd(self):
        assert is_psd(np.diag([1.0, 0.0]))
        assert not is_psd(np.diag([1.0, -0.5]))

    def test_loewner_le(self):
        assert loewner_le(np.diag([0.0, 0.0]), np.diag([1.0, 2.0]))
        assert not loewner_le(np.diag([1.0, 2.0]), np.diag([0.0, 0.0]))

    def test_noncomparable_fixture(self):
        s = np.diag([1.0, 0.0]).astype(complex)
        diff = s - HALF_ONES
        lo, hi = eig2_oracle(diff)
        assert lo < 0 < hi  # mixed signs: +-1/sqrt(2)
        assert lo == pytest.approx(-1 / math.sqrt(2))
        assert not is_comparable(s, HALF_ONES)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_le(np.eye(2), np.eye(3))


class TestValidation:
    def test_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            complex_matrix(np.ones((2, 3)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            complex_matrix(np.array([[np.nan, 0], [0, 0]]))

    def test_hermitize(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = hermitian_matrix(m)
        assert np.allclose(h, h.conj().T)


class TestMatrixJson:
    def test_round_trip(self):
        x = random_complex(3, rng_for(29))
        obj = matrix_to_json(x)
        text = json.dumps(obj)
        assert np.array_equal(matrix_from_json(json.loads(text)), x)

    def test_im_optional(self):
        m = matrix_from_json({"n": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        assert np.array_equal(m, np.diag([1.0, 2.0]).astype(complex))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matrix_from_json({"n": 3, "re": [[1.0]]})


class TestRandomHelpers:
    def test_unitary(self):
        u = random_unitary(5, rng_for(30))
        assert rel_diff(u.conj().T @ u, np.eye(5)) <= 1e-12

    def test_projection(self):
        p = random_projection(5, rng_for(31), rank=2)
        assert rel_diff(p @ p, p) <= 1e-12
        assert np.isclose(np.trace(p).real, 2.0)

    def test_seed_determinism(self):
        a = random_hermitian(4, rng_for(32, 1))
        b = random_hermitian(4, rng_for(32, 1))
        assert np.array_equal(a, b)
