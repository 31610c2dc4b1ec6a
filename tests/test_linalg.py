import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ortholat.carriers import CoordinateModel, MatrixSaModel
from ortholat.errors import DimensionMismatch, NoConvergence, NotPositive
from ortholat.linalg import (
    Spectrum,
    abs_general,
    complex_matrix,
    embed_offdiag,
    frob,
    hermitian_eigendecompose,
    hermitian_from_normals,
    hermitian_matrix,
    hermitian_norm,
    matrix_from_json,
    matrix_to_json,
    psd_defect,
    rel_diff,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
import ortholat
from ortholat.orthogonality import _trial_walk
from ortholat.tolerances import DEFAULT_TOL, Tolerances

from helpers import (is_psd, loewner_le, random_complex, random_hermitian, random_projection,
                     random_unitary)
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
        pos, neg, absval = hermitian_eigendecompose(np.diag([2.0, -3.0])).jordan_parts()
        assert np.allclose(pos, np.diag([2.0, 0.0]))
        assert np.allclose(neg, np.diag([0.0, 3.0]))
        assert np.allclose(absval, np.diag([2.0, 3.0]))

    def test_swap_matrix(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        pos, neg, absval = hermitian_eigendecompose(x).jordan_parts()
        assert np.allclose(pos, HALF_ONES)
        assert np.allclose(neg, np.array([[0.5, -0.5], [-0.5, 0.5]]))
        assert np.allclose(absval, np.eye(2))

    def test_zero(self):
        pos, neg, absval = hermitian_eigendecompose(np.zeros((3, 3))).jordan_parts()
        assert frob(pos) == frob(neg) == frob(absval) == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_properties(self, n):
        for i in range(30):
            a = random_hermitian(n, rng_for(22, n, i))
            pos, neg, absval = hermitian_eigendecompose(a).jordan_parts()
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
            assert rel_diff(abs_general(a), hermitian_eigendecompose(a).jordan_parts()[2]) <= 1e-7

    def test_zero(self):
        assert frob(abs_general(np.zeros((2, 2)))) == 0.0

    def test_near_singular(self):
        # singular values far below sqrt(eps) * ||x|| are kept, not clamped
        u = random_unitary(4, rng_for(3))
        x = (u * np.array([1.0, 0.5, 1e-6, -1e-7])) @ u.conj().T
        assert rel_diff(abs_general(x), hermitian_eigendecompose(x).jordan_parts()[2]) <= 1e-12

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
    def test_psd_defect(self):
        assert psd_defect(np.diag([1.0, 0.0])) == 0.0
        assert psd_defect(np.diag([1.0, -0.5])) == 0.5
        assert psd_defect(np.diag([4.0, -0.5])) == 0.125

    def test_noncomparable_fixture(self):
        s = np.diag([1.0, 0.0]).astype(complex)
        diff = s - HALF_ONES
        lo, hi = eig2_oracle(diff)
        assert lo < 0 < hi  # mixed signs: +-1/sqrt(2)
        assert lo == pytest.approx(-1 / math.sqrt(2))
        assert not loewner_le(s, HALF_ONES) and not loewner_le(HALF_ONES, s)


class TestValidation:
    def test_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            complex_matrix(np.ones((2, 3)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            complex_matrix(np.array([[np.nan, 0], [0, 0]]))

    @pytest.mark.parametrize("entry", [
        complex(0.0, np.nan),
        complex(0.0, np.inf),
        complex(np.inf, 0.0),
        complex(-np.inf, 1.0),
    ], ids=["nan-imag", "inf-imag", "inf-real", "neg-inf-real"])
    def test_nonfinite_in_one_part(self, entry):
        m = np.eye(3, dtype=complex)
        m[1, 2] = entry
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            complex_matrix(m)

    def test_zero_product_of_two_shapes(self):
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"):
            zero_product_residual(np.eye(2), np.eye(3))

    def test_hermitize(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = hermitian_matrix(m)
        assert np.allclose(h, h.conj().T)

    def test_hermitize_near_overflow(self):
        # the sum M + M* of these entries overflows; the halves do not
        m = np.array([[1e308, 1e308j], [-1e308j, -1e308]])
        h = hermitian_matrix(m)
        assert np.isfinite(h).all()
        assert np.array_equal(h, m)


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
        # a missing "im" is built from "re"'s shape, never from n, so a huge
        # n is rejected before anything of its size is allocated
        for n in (3, 1000000000):
            with pytest.raises(DimensionMismatch):
                matrix_from_json({"n": n, "re": [[1.0]]})

    @pytest.mark.parametrize("obj", [{"n": 2, "re": [[1, 2], [2]]},
                                     {"n": 2, "re": [[1, 2], [2, 1]], "im": [[0, 1], [1]]},
                                     {"n": 2, "re": [[1, 2], [3, 4, 5]]}],
                             ids=["ragged_re", "ragged_im", "long_row"])
    def test_ragged_part_is_a_shape_mismatch(self, obj):
        with pytest.raises(DimensionMismatch, match="shape mismatch for n=2"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("obj", [[1, 2], {"n": None, "re": [[1.0]]},
                                     {"n": 1, "re": {"a": 1.0}},
                                     {"n": 2.9, "re": [[1.0, 0.0], [0.0, -1.0]]},
                                     {"n": True, "re": [[1.0]]},
                                     {"n": "1", "re": [[1.0]]},
                                     {"n": 2, "re": [[1, 2], [2, "a"]]},
                                     {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, [1]], [0, 0]]}],
                             ids=["array", "null_n", "object_re", "float_n", "bool_n",
                                  "string_n", "string_entry", "nested_entry"])
    def test_wrong_types_rejected(self, obj):
        with pytest.raises(ValueError, match="must be an object"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("obj, field", [({"n": 2}, "re"), ({"re": [[1.0]]}, "n"),
                                            ({}, "n"), ({"im": [[0.0]], "n": 1}, "re")],
                             ids=["no_re", "no_n", "empty", "im_only"])
    def test_missing_field_is_named(self, obj, field):
        with pytest.raises(ValueError, match=f"must be an object.*\\(missing '{field}'\\)$"):
            matrix_from_json(obj)


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

    def test_hermitian_from_normals_is_hermitian_matrix(self):
        # bit for bit hermitian_matrix(x + iy), on a stack and on each row
        # alone: drawn rows, which are also random_hermitian and the
        # symmetrized random_complex of their generator, and hand-made rows
        # of signed zeros, subnormals and normal numbers
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 3e-310, -3e-310, 1.0, -2.5])
        for n in range(1, 65):
            g = np.empty((5, 2, n, n))
            for k in range(3):
                rng_for(34, n, k).standard_normal(out=g[k])
            g[3:] = rng_for(35, n).choice(special, size=(2, 2, n, n))
            stacked = hermitian_from_normals(g.copy())
            for k, gk in enumerate(g):
                z = np.empty((n, n), dtype=complex)
                z.real, z.imag = gk
                want = hermitian_matrix(z).tobytes()
                assert stacked[k].tobytes() == want, (n, k)
                assert hermitian_from_normals(gk.copy()).tobytes() == want, (n, k)
                if k < 3:
                    assert random_hermitian(n, rng_for(34, n, k)).tobytes() == want
                    assert hermitian_matrix(random_complex(n, rng_for(34, n, k))).tobytes() == want

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_complex_is_the_two_call_form(self, n):
        for i in range(20):
            want = rng_for(33, n, i)
            re = want.standard_normal((n, n))
            want = re + 1j * want.standard_normal((n, n))
            assert random_complex(n, rng_for(33, n, i)).tobytes() == want.tobytes()


_MASK64 = 2 ** 64 - 1
# seeds on each side of the one-word and two-word boundaries, and negative
_SEEDS = st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 5,
                          -1, -2 ** 32, -2 ** 70]) | st.integers(-2 ** 70, 2 ** 70)
_INDICES = st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)


def _draws(rng):
    return rng.standard_normal(3).tobytes() + rng.integers(2 ** 63, size=2).tobytes()


def _walked(prefixes, trials):
    """{(pair, trial): draws} of every key of a walk, and its chunks' trials."""
    got, chunks = {}, []
    for pairs, chunk, _, rngs in _trial_walk(prefixes, trials, lambda _: 16):
        for p, j, rng in zip(pairs.tolist(), chunk, rngs):
            assert (p, j) not in got
            got[p, j] = _draws(rng)
        chunks.append(chunk)
    return got, chunks


class TestSeededGenerators:
    """The trial walk hashes the keys of many trials at once; each generator
    must draw bit for bit what default_rng draws from its key."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_SEEDS, _INDICES, _INDICES), min_size=1, max_size=40),
           st.integers(0, 2), st.sampled_from([0, 2 ** 32 - 2, 2 ** 64 - 4]), st.integers(1, 3))
    def test_batch_is_default_rng(self, keys, width, first, count):
        # one block mixes keys of one and two 32-bit words a value
        prefixes = [key[:1 + width] for key in keys]
        trials = range(first, first + count)
        got, _ = _walked(prefixes, trials)
        assert list(got) == [(p, j) for p in range(len(keys)) for j in trials]
        for (p, j), draws in got.items():
            seed, *rest = prefixes[p]
            assert draws == _draws(np.random.default_rng([seed & _MASK64, *rest, j]))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_SEEDS, st.lists(_INDICES, min_size=0, max_size=2), _INDICES)
    def test_one_key_is_default_rng(self, seed, indices, trial):
        got, _ = _walked([(seed, *indices)], range(trial, trial + 1))
        want = np.random.default_rng([seed & _MASK64, *indices, trial])
        assert got == {(0, trial): _draws(want)}
        assert _draws(rng_for(seed, *indices, trial)) == got[0, trial]

    def test_blocks(self):
        # 2,500 trials cross two block edges, and no chunk holds keys of two
        # blocks
        got, chunks = _walked([(7, 3)], range(2500))
        assert sorted(j for _, j in got) == list(range(2500))
        for i in (0, 1023, 1024, 2047, 2048, 2499):
            assert got[0, i] == _draws(np.random.default_rng([7, 3, i]))
        assert all(chunk[0] // 1024 == chunk[-1] // 1024 for chunk in chunks)

    def test_seed_crossing_two_words_in_one_batch(self):
        seed = 2 ** 32 - 6
        got, _ = _walked([(seed + p,) for p in range(12)], range(3))
        for (p, j), draws in got.items():
            assert draws == _draws(np.random.default_rng([seed + p, j]))
        assert len(got) == 36

    def test_seeds_are_masked(self):
        # a seed is taken mod 2**64: negative seeds and seeds from 2**64 on
        seeds = [-1, -2 ** 32, -2 ** 70, 2 ** 64, 2 ** 64 + 5, 2 ** 70 + 3]
        got, _ = _walked([(seed, 4) for seed in seeds], range(2))
        for (p, j), draws in got.items():
            assert draws == _draws(np.random.default_rng([seeds[p] & _MASK64, 4, j]))
            assert draws == _draws(rng_for(seeds[p], 4, j))

    @pytest.mark.parametrize("indices", [(-1,), (3, -2), (-2 ** 64,)])
    def test_negative_index_raises_as_default_rng(self, indices):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng([1, *indices])
        with pytest.raises(ValueError, match="expected non-negative integer"):
            rng_for(1, *indices)

    def test_import_leaves_numpy_random_unimported(self):
        src = os.path.dirname(os.path.dirname(ortholat.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = ("import sys, ortholat.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_one_seed_words_class(self):
        from numpy.random.bit_generator import ISeedSequence
        _walked([(1,)], range(1))   # the class is made on first use
        before = len(ISeedSequence.__subclasses__())
        kinds = {type(rng.bit_generator.seed_seq)
                 for *_, rngs in _trial_walk([(2,)], range(1000), lambda _: 16) for rng in rngs}
        assert len(kinds) == 1
        assert len(ISeedSequence.__subclasses__()) == before


# The memory layouts of a stack, each a view of a freshly drawn array whose
# last two axes (a matrix's rows and columns; for vectors, the stack and the
# entries) it transposes, reverses or strides
LAYOUTS = {
    "C": lambda draw, shape: draw(shape),
    "conjugate-transposed": lambda draw, shape: draw(shape[:-2] + shape[:-3:-1]).conj().mT,
    "rows reversed": lambda draw, shape: draw(shape)[..., ::-1, :],
    "rows and columns reversed": lambda draw, shape: draw(shape)[..., ::-1, ::-1],
    "every other row and column":
        lambda draw, shape: draw(shape[:-2] + tuple(2 * d for d in shape[-2:]))[..., ::2, ::2],
}


def _stack_pair(seed, k, n, exponent, layout, vectors=False):
    """Two stacks of k elements, complex n x n matrices or real n-vectors,
    of entries up to 10**exponent with about a third exactly 0, each viewed
    in the memory layout LAYOUTS[layout]: conjugate-transposed matrices are
    read column by column, and vectors so laid out are a column-major stack."""
    rng = rng_for(seed)

    def draw(shape):
        m = rng.standard_normal(shape) * 10.0 ** exponent
        if not vectors:
            m = m + 1j * rng.standard_normal(shape) * 10.0 ** exponent
        m[rng.random(shape) < 0.3] = 0.0
        return m

    shape = (k, n) if vectors else (k, n, n)
    return LAYOUTS[layout](draw, shape), LAYOUTS[layout](draw, shape)


MATRIX_KERNELS = {
    "frob": lambda x, y: frob(x),
    "rel_diff": rel_diff,
    "zero_product_residual": zero_product_residual,
    "psd_defect": lambda x, y: psd_defect(x),
    "hermitian_matrix": lambda x, y: hermitian_matrix(x),
    "jordan_parts": lambda x, y: hermitian_eigendecompose(x).jordan_parts(),
    "abs_general": lambda x, y: abs_general(x),
    "embed_offdiag": lambda x, y: embed_offdiag(x),
}


def _model_kernels(model):
    return {
        "element": lambda x, y: model.element(x),
        "jordan": lambda x, y: model.jordan(x),
        "cone_defect": lambda x, y: model.cone_defect(x),
        "zero_product": model.zero_product,
        "rel_diff": model.rel_diff,
        "vector_norm": lambda x, y: model.vector_norm(x),
    }


def assert_stack_is_each(kernels, x, y):
    """Each kernel on the stacks (x, y) gives, bit for bit, what it gives
    each pair (x[i], y[i]) alone."""
    for name, kernel in kernels.items():
        stacked = kernel(x, y)
        parts = stacked if isinstance(stacked, tuple) else (stacked,)
        for i in range(len(x)):
            alone = kernel(x[i], y[i])
            for got, want in zip(parts, alone if isinstance(alone, tuple) else (alone,)):
                assert np.asarray(got[i]).tobytes() == np.asarray(want).tobytes(), (name, i)


_stack_property = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_stack_args = (st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6),
               st.integers(-100, 100), st.sampled_from(list(LAYOUTS)))


class TestStackedKernels:
    """The kernels that take stacks along leading axes give each element
    what it gets alone, on every memory layout of LAYOUTS (prop3 reads b*
    conjugate-transposed) and at magnitudes where products overflow."""

    @_stack_property
    @given(*_stack_args)
    def test_matrix_kernels(self, seed, k, n, exponent, layout):
        x, y = _stack_pair(seed, k, n, exponent, layout)
        with np.errstate(all="ignore"):
            assert_stack_is_each({**MATRIX_KERNELS, **_model_kernels(MatrixSaModel(n))}, x, y)

    @_stack_property
    @given(*_stack_args)
    def test_frob_is_numpys_norm(self, seed, k, n, exponent, layout):
        # one matrix, complex or real, in any layout: bit for bit numpy's
        # norm, as a numpy float
        x, _ = _stack_pair(seed, k, n, exponent, layout)
        with np.errstate(all="ignore"):
            for m in (x[0], x[0].real):
                got = frob(m)
                assert type(got) is np.float64
                assert got.tobytes() == np.linalg.norm(m).tobytes(), m.strides

    @_stack_property
    @given(*_stack_args)
    def test_vector_kernels(self, seed, k, n, exponent, layout):
        x, y = _stack_pair(seed, k, n, exponent, layout, vectors=True)
        with np.errstate(all="ignore"):
            assert_stack_is_each(_model_kernels(CoordinateModel(n)), x, y)


class TestTolerances:
    @pytest.mark.parametrize("value", [0.0, -1e-9, math.inf, -math.inf, math.nan, 5e-324,
                                       1e-301])
    @pytest.mark.parametrize("name", ["tol_zero", "tol_psd", "tol_eq"])
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and at least 1e-300$"):
            Tolerances(**{name: value})

    def test_smallest_accepted(self):
        assert DEFAULT_TOL.override(tol_eq=1e-300).tol_eq == 1e-300

    def test_huge_finite_accepted(self):
        assert DEFAULT_TOL.override(tol_zero=1e300, tol_eq=1e300).tol_eq == 1e300
