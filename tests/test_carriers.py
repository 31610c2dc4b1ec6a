"""The carrier models and the checks written once over them, on R^n
(Corollary 5, Prop 6) and against the matrix carrier."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ortholat.carriers import CoordinateModel, MatrixSaModel, carrier_operands, sup_norm
from ortholat.errors import DimensionMismatch, NotPositive
from ortholat.linalg import rng_for
from ortholat.orthogonality import (abs_infty_orth_sampled, check_prop2_equivalence,
                                    infty_deviations)
from ortholat.ortholattice import _Pair, kadison_witness_search, ortho_inf_sup, verify_theorem4
from ortholat.suites import suite_bridge
from ortholat.tolerances import DEFAULT_TOL

import references
from helpers import abs_zero_product, random_hermitian, random_unitary
from test_linalg import _stack_args, _stack_pair, _stack_property

EPS = np.finfo(float).eps

# entries 0 or of magnitude 1e-100 to 1e100: scaled by 2^k, |k| <= 27, no
# sum or difference leaves the normal range, and no diagonal matrix is
# rescaled by LAPACK before its eigendecomposition
_entry = st.floats(-1e100, 1e100, allow_nan=False).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(1, 16))
    x = np.array(draw(st.lists(_entry, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(_entry, min_size=n, max_size=n)))
    return x, y, 2.0 ** draw(st.integers(-27, 27))


_property = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestVectorProperties:
    @_property
    @given(_vector_pairs())
    def test_power_of_two_equivariance(self, pair):
        x, y, s = pair
        for got, want in zip(ortho_inf_sup(s * x, s * y), ortho_inf_sup(x, y)):
            assert got.tobytes() == (s * want).tobytes()

    @_property
    @given(_vector_pairs())
    def test_close_to_min_max(self, pair):
        x, y, _ = pair
        bound = 2.0 * EPS * np.maximum(np.abs(x), np.abs(y))
        c, d = ortho_inf_sup(x, y)
        assert np.all(np.abs(c - np.minimum(x, y)) <= bound)
        assert np.all(np.abs(d - np.maximum(x, y)) <= bound)

    @_property
    @given(_vector_pairs())
    def test_diagonal_matrices_match_vectors(self, pair):
        x, y, _ = pair
        for c, cx in zip(ortho_inf_sup(np.diag(x), np.diag(y)), ortho_inf_sup(x, y)):
            assert np.array_equal(np.diag(c).real, cx)
            assert np.array_equal(c, np.diag(np.diag(c)))


class TestSpectralMethodsAreTheCarriers:
    """jordan and dominated_sample, written once over the model's spectrum,
    give bit for bit what the per-carrier forms in references give, on a
    stack and on each element alone."""

    @pytest.mark.parametrize("carrier, jordan, dominated_sample", [
        (MatrixSaModel, references.matrix_jordan, references.matrix_dominated_sample),
        (CoordinateModel, references.coordinate_jordan,
         references.coordinate_dominated_sample),
    ], ids=["matrix", "coordinate"])
    @_stack_property
    @given(*_stack_args)
    def test_same_bits(self, carrier, jordan, dominated_sample, seed, k, n, exponent,
                       layout):
        x, _ = _stack_pair(seed, k, n, exponent, layout, vectors=carrier.rank == 1)
        rng = rng_for(seed, 1)
        t = rng.uniform(0.0, 1.0, (k, n)) * rng.choice([-1.0, 1.0], (k, n))
        rng = rng_for(seed, 1)   # the same draws as dominated_draw's rows
        draws = np.concatenate((rng.random((k, n)), rng.integers(0, 2, (k, n))), axis=1)
        model = carrier(n)
        with np.errstate(all="ignore"):
            for v, d, f in ((x, draws, t), *zip(x, draws, t)):   # the stack, then each element
                for got, want in ((model.jordan(v), jordan(v)),
                                  (model.dominated_sample(v, d), dominated_sample(v, f))):
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.shape == w.shape
                        assert g.tobytes() == w.tobytes()


def _unit(v):
    return v / np.linalg.norm(v)


def _certificate_pair(model, kind, rng):
    """One pair (x, y) of the model's elements of the given kind, unscaled.
    The near-orthogonal matrices are mostly aligned with the vector of ones,
    the certificate's probe, where ||xy 1|| is sqrt(n) ||xy||_F."""
    n = model.n
    if model.rank == 1:
        x, y = rng.standard_normal((2, n))
        if kind in ("orthogonal", "near"):   # disjoint supports, then one overlap
            y[rng.random(n) < 0.5] = 0.0
            x[y != 0.0] = 0.0
            if kind == "near":
                x[0], y[0] = 1.0, 10.0 ** rng.uniform(-10, -1)
        return x, y
    if kind == "orthogonal":   # u diag(d1) u* and u diag(d2) u*, d1 d2 = 0
        u, d = random_unitary(n, rng), rng.standard_normal((2, n))
        d[0, rng.random(n) < 0.5] = 0.0
        d[1, d[0] != 0.0] = 0.0
        return [(u * dk) @ u.conj().T for dk in d]
    if kind == "near":   # ff* and vv* with f*v = sin(theta) small, v often 1/sqrt(n)
        v = _unit(rng.standard_normal(n)) if rng.random() < 0.25 else np.ones(n) / np.sqrt(n)
        w = rng.standard_normal(n)
        for _ in range(2):   # w orthogonal to v, to rounding
            w = _unit(w - v * (v @ w))
        f = w + v * 10.0 ** rng.uniform(-10, -1)
        return np.outer(f, f), np.outer(v, v)
    return random_hermitian(n, rng), random_hermitian(n, rng)


@st.composite
def _certificate_cases(draw):
    """(model, x, y, bound): a stack of 1 to 3 pairs of one kind, each
    operand scaled by 2^e, |e| <= 40. Exactly orthogonal, random, or with an
    inf, NaN or overflowing entry, at a bound from 1e-300 to 1e6; or near
    orthogonal, at a bound that puts the first pair's ratio in [0.25, 8]."""
    model = draw(st.sampled_from([MatrixSaModel, CoordinateModel]))(draw(st.integers(1, 64)))
    kind = draw(st.sampled_from(["orthogonal", "near", "random", "not finite"]))
    if kind == "near" and model.n == 1:
        kind = "random"
    rng = rng_for(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = [_certificate_pair(model, kind, rng) for _ in range(draw(st.integers(1, 3)))]
    x, y = (np.array(ops) * 2.0 ** draw(st.integers(-40, 40)) for ops in zip(*pairs))
    if kind == "not finite":
        bad = draw(st.sampled_from([np.inf, -np.inf, np.nan, 2.0 ** 511, 2.0 ** 600]))
        target = x if draw(st.booleans()) else y
        if bad in (2.0 ** 511, 2.0 ** 600):
            target *= bad
        else:
            target.reshape(len(target), -1)[:, draw(st.integers(0, target[0].size - 1))] = bad
    bound = 10.0 ** draw(st.floats(-300, 6))
    if kind == "near":
        bound = float(np.ravel(model.zero_product(x, y))[0]) / 2.0 ** draw(st.floats(-2, 3))
    return model, x, y, bound


class TestZeroProductCertificate:
    @_property
    @given(_certificate_cases())
    def test_certifies_only_what_the_product_shows(self, case):
        # a certified pair has a computed zero product above the bound, and
        # no pair with a quantity that is not finite is certified
        model, x, y, bound = case
        axes = tuple(range(1, x.ndim))
        with np.errstate(all="ignore"):
            certified = model.zero_product_exceeds(x, y, bound)
            exceeds = model.zero_product(x, y) > bound
            finite = (np.isfinite(x).all(axes) & np.isfinite(y).all(axes)
                      & np.isfinite(model.vector_norm(x) * model.vector_norm(y)))
        assert certified.shape == exceeds.shape == (len(x),)
        assert not (certified & ~exceeds).any()
        assert not (certified & ~finite).any()


class TestVectorOrthoLattice:
    def test_meet_join(self):
        c, d = ortho_inf_sup(np.array([3.0, -1.0]), np.array([1.0, 2.0]))
        assert np.array_equal(c, [1.0, -1.0])
        assert np.array_equal(d, [3.0, 2.0])

    def test_idempotent(self):
        x = np.array([1.0, 2.0, -3.0])
        for m in ortho_inf_sup(x, x):
            assert np.array_equal(m, x)

    def test_join_norm_law(self):
        # an AM-space law on positives: ||u sup v|| = max(||u||, ||v||)
        u, v = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        assert sup_norm(ortho_inf_sup(u, v)[1]) == max(sup_norm(u), sup_norm(v))


class TestCorollary5:
    def test_example(self):
        x, y = [3.0, -1.0], [1.0, 2.0]
        rep = verify_theorem4(x, y, trials=100)
        assert rep.holds
        assert dict(rep.details)["uniqueness_survivors"] == 0.0

    def test_identical(self):
        x = np.array([1.0, -2.0])
        rep = verify_theorem4(x, x, trials=100)
        assert rep.holds
        assert dict(rep.details)["uniqueness_survivors"] == 0.0

    def test_random_pairs(self):
        for i in range(100):
            rng = rng_for(71, i)
            n = int(rng.integers(2, 17))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            rep = verify_theorem4(x, y, trials=20, seed=90 + i)
            assert rep.holds
            assert dict(rep.details)["uniqueness_survivors"] == 0.0


class TestCoordinateOrth:
    def test_disjoint(self):
        x, y = np.array([1.0, 0.0, -2.0]), np.array([0.0, 3.0, 0.0])
        assert abs_zero_product(CoordinateModel(3), x, y) == 0.0

    def test_overlap(self):
        x, y = np.array([1.0, 1.0]), np.array([0.0, 1.0])
        assert abs_zero_product(CoordinateModel(2), x, y) > DEFAULT_TOL.tol_zero

    def test_zero(self):
        assert abs_zero_product(CoordinateModel(2), np.array([5.0, -1.0]), np.zeros(2)) == 0.0


class TestProp6:
    def test_disjoint_supports(self):
        rep = abs_infty_orth_sampled([1.0, 0.0, 2.0], [0.0, 3.0, 0.0], trials=200, seed=5)
        assert rep.holds
        assert dict(rep.details)["exact_alg_orth"] == 0.0

    def test_overlap_witness(self):
        # w = u inf v = (0,1): ||w + w|| = 2 != 1 = ||w||
        w = ortho_inf_sup([1.0, 1.0], [0.0, 1.0])[0]
        assert np.array_equal(w, [0.0, 1.0])
        rep = abs_infty_orth_sampled(w, w, trials=1)
        assert not rep.holds
        assert dict(rep.details)["sampled_deviation"] == 1.0
        assert dict(rep.details)["first_violation_trial"] == 0.0

    def test_zero_pair(self):
        assert abs_infty_orth_sampled([0.0, 0.0], [0.0, 0.0]).holds


class TestNorms:
    @pytest.mark.parametrize("model, nan_u, v", [
        (MatrixSaModel, np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])),
        (CoordinateModel, np.array([np.nan, 0.0]), np.array([0.0, 1.0])),
    ], ids=["matrix", "coordinate"])
    def test_nan_entry_is_kept(self, model, nan_u, v, monkeypatch):
        # a NaN entry gives a NaN norm, and so a NaN deviation from the
        # infinity-norm identity, on both carriers; no matrix with an entry
        # that is not finite reaches the eigensolver
        decomposed = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: decomposed.append(x) or eigvalsh(x))
        assert np.isnan(model.norm(nan_u))
        assert np.isnan(infty_deviations(nan_u[None], v[None], model.norm).max(-1)).all()
        # u + k v with a NaN k is NaN everywhere: its norm is NaN, not an error
        assert np.isnan(model.norm(v + np.nan * v))
        assert model.norm(np.stack((v, nan_u, 2 * v))).tolist()[::2] == [1.0, 2.0]
        assert all(np.isfinite(x).all() for x in decomposed)

    def test_matrix_norm_example(self):
        assert MatrixSaModel.norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)

    def test_coordinate_norm_example(self):
        assert CoordinateModel.norm(np.array([0.5, -2.0])) == 2.0

    def test_zero(self):
        assert MatrixSaModel.norm(np.zeros((3, 3))) == 0.0
        assert CoordinateModel.norm(np.zeros(3)) == 0.0

    def test_matrix_norm_is_operator_norm(self):
        for i in range(100):
            v = random_hermitian(5, rng_for(80, i))
            assert MatrixSaModel.norm(v) == pytest.approx(np.linalg.norm(v, 2))

    def test_sup_norm_of_stack(self):
        stack = np.array([[0.5, -2.0], [3.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(sup_norm(stack), [2.0, 3.0, 0.0])


VEC = np.array([1.0, 2.0])
MAT = np.eye(2)


def uniqueness_falsify(a, b):
    """Theorem 4's uniqueness half: verify_theorem4 with perturbations to draw,
    which must reject the operands before the first draw."""
    with mock.patch("ortholat.orthogonality._seed_words",
                    side_effect=AssertionError("perturbation drawn before the operand check")):
        return verify_theorem4(a, b, trials=10, seed=0)


# one id for each of the two results of ortho_inf_sup
PAIR_CHECKS = [pytest.param(lambda a, b: ortho_inf_sup(a, b)[0], id="ortho_inf"),
               pytest.param(lambda a, b: ortho_inf_sup(a, b)[1], id="ortho_sup"),
               verify_theorem4, uniqueness_falsify,
               kadison_witness_search, abs_infty_orth_sampled]


class TestOperandChecks:
    """Each carrier keeps its input checks behind the dispatch."""

    def test_picks_the_carrier(self):
        assert isinstance(carrier_operands(VEC, VEC)[0], CoordinateModel)
        assert isinstance(carrier_operands(MAT, MAT)[0], MatrixSaModel)

    @pytest.mark.parametrize("check", PAIR_CHECKS)
    @pytest.mark.parametrize("a, b", [
        (np.array([np.nan, 1.0]), VEC),
        (VEC, np.array([1.0, np.inf])),
        (np.diag([np.nan, 1.0]), MAT),
        (MAT, np.diag([1.0, np.inf])),
    ], ids=["vector-a", "vector-b", "matrix-a", "matrix-b"])
    def test_non_finite_entry(self, check, a, b):
        with pytest.raises(ValueError):
            check(a, b)

    @pytest.mark.parametrize("check", PAIR_CHECKS)
    @pytest.mark.parametrize("a, b", [
        (VEC, np.ones((2, 2, 2))),
        (VEC, np.ones((2, 3))),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
        (MAT, np.ones((2, 3))),
        (np.ones(()), np.ones(())),
    ], ids=["vector-3d", "vector-matrix", "3d", "non-square", "scalar"])
    def test_operand_outside_the_carrier(self, check, a, b):
        with pytest.raises(DimensionMismatch):
            check(a, b)

    @pytest.mark.parametrize("check", PAIR_CHECKS)
    @pytest.mark.parametrize("a, b", [(VEC, np.ones(3)), (MAT, np.eye(3))],
                             ids=["vector", "matrix"])
    def test_mismatched_shapes(self, check, a, b):
        with pytest.raises(DimensionMismatch):
            check(a, b)

    @pytest.mark.parametrize("a, b", [
        ([-1.0], [1.0]),
        ([1.0], [-1.0]),
        (np.diag([1.0, -1.0]), MAT),
        (MAT, np.diag([1.0, -1.0])),
    ], ids=["vector-a", "vector-b", "matrix-a", "matrix-b"])
    def test_non_positive_operand(self, a, b):
        with pytest.raises(NotPositive):
            abs_infty_orth_sampled(a, b)


class TestBridge:
    def test_orth_verdicts_match(self):
        for i in range(50):
            rng = rng_for(73, i)
            x = rng.standard_normal(4) * rng.integers(0, 2, size=4)
            y = rng.standard_normal(4) * rng.integers(0, 2, size=4)
            model = CoordinateModel(4)
            assert (abs_zero_product(model, x, y) <= model.tol.tol_zero) == \
                check_prop2_equivalence(np.diag(x).astype(complex),
                                        np.diag(y).astype(complex)).holds

    def test_suite_bound_is_tol_eq(self, monkeypatch):
        # only the matrix carrier's inf moves
        inf = _Pair.c.func
        monkeypatch.setattr(_Pair, "c", property(
            lambda pair: inf(pair) + (1e-10 if pair.model.rank == 2 else 0.0)))
        assert suite_bridge(4, 20, 1)["pass"]
        assert not suite_bridge(4, 20, 1, DEFAULT_TOL.override(tol_eq=1e-11))["pass"]

    def test_one_decomposition_per_trial(self, eigen_calls):
        # one decomposition for the matrix carrier's pair, in stacks; the
        # vectors need none
        suite_bridge(4, 500, 42)
        assert set(eigen_calls) == {"eigh"}
        assert sum(eigen_calls.stacks["eigh"]) == 500
        assert eigen_calls["eigh"] < 500
