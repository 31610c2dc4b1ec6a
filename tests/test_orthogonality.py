import numpy as np
import pytest

from ortholat.errors import DimensionMismatch, NotPositive, PreconditionFailed
from ortholat.lattice import sup_norm
from ortholat.linalg import (
    frob,
    hermitian_norm,
    jordan_decompose,
    random_complex,
    random_hermitian,
    random_projection,
    rng_for,
    zero_product_residual,
)
from ortholat.orthogonality import (
    KGrid,
    OrderIntervalSampler,
    abs_infty_orth_sampled,
    alg_orth_general,
    alg_orth_positive,
    alg_orth_sa,
    check_prop2_equivalence,
    hereditary_check,
    infty_deviations,
    infty_orth,
)
from ortholat.tolerances import DEFAULT_TOL


def matrix_unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


class TestAlgOrthPositive:
    def test_disjoint_diagonal(self):
        assert alg_orth_positive(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).holds

    def test_self_overlap(self):
        rep = alg_orth_positive(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert not rep.holds
        assert rep.max_violation == pytest.approx(1.0)

    def test_complementary_projections(self):
        p = random_projection(5, rng_for(40))
        assert alg_orth_positive(p, np.eye(5) - p).holds

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            alg_orth_positive(np.diag([1.0, -1.0]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            alg_orth_positive(np.eye(2), np.eye(3))


class TestAlgOrthSa:
    def test_disjoint_supports(self):
        assert alg_orth_sa(np.diag([1.0, -2.0, 0.0]), np.diag([0.0, 0.0, 5.0])).holds

    def test_overlapping_supports(self):
        assert not alg_orth_sa(np.diag([1.0, -2.0, 0.0]), np.diag([0.0, 3.0, 5.0])).holds

    def test_swap_vs_identity(self):
        # |swap| = I, so the product with I cannot vanish
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert not alg_orth_sa(swap, np.eye(2)).holds


class TestAlgOrthGeneral:
    def test_disjoint_matrix_units(self):
        assert alg_orth_general(matrix_unit(4, 0, 1), matrix_unit(4, 2, 3)).holds

    def test_asymmetric_fixture(self):
        # ab* = 0 but a*b = E23 != 0
        a, b = matrix_unit(3, 0, 1), matrix_unit(3, 0, 2)
        assert np.allclose(a @ b.conj().T, 0.0)
        assert np.allclose(a.conj().T @ b, matrix_unit(3, 1, 2))
        rep = alg_orth_general(a, b)
        assert not rep.holds
        details = dict(rep.details)
        assert details["ab*"] <= DEFAULT_TOL.tol_zero
        assert details["a*b"] == pytest.approx(1.0)

    def test_zero_partner(self):
        a = random_complex(3, rng_for(41))
        assert alg_orth_general(a, np.zeros((3, 3))).holds

    def test_routes_agree_on_random_pairs(self):
        for i in range(100):
            rng = rng_for(42, i)
            a, b = random_complex(3, rng), random_complex(3, rng)
            rep = alg_orth_general(a, b)  # must not raise InternalInconsistency
            assert not rep.holds


class TestProp2Equivalence:
    def test_block_disjoint(self):
        a = np.diag([1.0, -1.0, 0.0, 0.0])
        b = np.diag([0.0, 0.0, 2.0, -3.0])
        assert check_prop2_equivalence(a, b).holds

    def test_identical(self):
        rep = check_prop2_equivalence(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert not rep.holds

    def test_unitary_conjugation_preserves(self):
        from ortholat.linalg import random_unitary
        for i in range(20):
            u = random_unitary(4, rng_for(43, i))
            a = u @ np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
            b = u @ np.diag([0.0, 0.0, 2.0, -3.0]).astype(complex) @ u.conj().T
            assert check_prop2_equivalence(a, b).holds


class TestKGrid:
    def test_contents(self):
        grid = KGrid.for_norms(3.0, 2.0)
        vals = set(np.round(grid.values, 12))
        for k in (0.0, 1.0, -1.0):
            assert k in vals
        for i in range(-6, 7):
            assert round(2.0 ** i, 12) in vals
            assert round(-(2.0 ** i), 12) in vals
        rho = 1.5
        assert rho in vals and -rho in vals
        neighborhood = [v for v in grid.values
                        if 0 < abs(abs(v) - rho) <= 0.1 * rho + 1e-12]
        assert len(neighborhood) >= 8

    def test_zero_v(self):
        grid = KGrid.for_norms(1.0, 0.0)
        assert 0.0 in grid.values


def _scalar_norm(carrier):
    """The one-element norms of the per-k loop that infty_deviations replaced."""
    if carrier == "matrix":
        return lambda x: float(np.max(np.abs(np.linalg.eigvalsh(x)), initial=0.0))
    return lambda x: float(np.max(np.abs(x), initial=0.0))


def _kernel_inputs(carrier, n, seed, v_zero=False):
    rng = rng_for(53, seed)
    if carrier == "matrix":
        u, v = random_hermitian(n, rng), random_hermitian(n, rng)
    else:
        u, v = rng.standard_normal(n), rng.standard_normal(n)
    return u, (np.zeros_like(v) if v_zero else v)


_TIE = np.array([0.0, -1.0, 1.0])  # ||u - u|| and ||u + u|| deviate equally


@pytest.mark.parametrize("carrier, u, v, grid", [
    ("matrix", *_kernel_inputs("matrix", 4, 0), None),
    ("matrix", *_kernel_inputs("matrix", 1, 1), None),
    ("matrix", *_kernel_inputs("matrix", 3, 2, v_zero=True), None),
    ("matrix", *_kernel_inputs("matrix", 3, 3), KGrid(np.array([0.75]))),
    ("matrix", np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), KGrid(_TIE)),
    ("coordinate", *_kernel_inputs("coordinate", 6, 4), None),
    ("coordinate", *_kernel_inputs("coordinate", 1, 5), None),
    ("coordinate", *_kernel_inputs("coordinate", 6, 6, v_zero=True), None),
    ("coordinate", *_kernel_inputs("coordinate", 6, 7), KGrid(np.array([-0.75]))),
    ("coordinate", np.array([1.0, 0.0]), np.array([1.0, 0.0]), KGrid(_TIE)),
], ids=["matrix", "matrix-n1", "matrix-v0", "matrix-one-k", "matrix-tie",
        "coord", "coord-n1", "coord-v0", "coord-one-k", "coord-tie"])
def test_infty_deviations_match_scalar_loop(carrier, u, v, grid):
    norm = _scalar_norm(carrier)
    if grid is None:
        want_ks = KGrid.for_norms(norm(u), norm(v)).values
    else:
        want_ks = grid.values
    want = []
    worst, worst_k = 0.0, 0.0
    for k in want_ks:
        rhs = max(norm(u), abs(k) * norm(v))
        dev = abs(norm(u + k * v) - rhs) / max(1.0, rhs)
        want.append(dev)
        if dev > worst:
            worst, worst_k = dev, k

    batched = hermitian_norm if carrier == "matrix" else sup_norm
    ks, dev = infty_deviations(u, v, batched, grid)
    assert np.array_equal(ks, want_ks)
    assert np.array_equal(dev, want)
    if carrier == "matrix":
        details = dict(infty_orth(u, v, grid).details)
        assert details["deviation"] == worst
        assert details["worst_k"] == worst_k


class TestInftyOrth:
    def test_disjoint_diagonal(self):
        assert infty_orth(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).holds

    def test_self_pair_violates_at_one(self):
        u = np.diag([1.0, 0.0])
        rep = infty_orth(u, u, KGrid(np.array([1.0])))
        assert not rep.holds
        assert rep.max_violation == pytest.approx(1.0)  # ||u+u||=2 vs max=1

    def test_zero_partner(self):
        assert infty_orth(random_hermitian(3, rng_for(44)), np.zeros((3, 3))).holds


class TestOrderIntervalSampler:
    def test_zero(self):
        assert frob(OrderIntervalSampler(np.zeros((3, 3))).draw(rng_for(0))) == 0.0

    def test_identity_interval(self):
        c = OrderIntervalSampler(np.eye(4)).draw(rng_for(5))
        w = np.linalg.eigvalsh(c)
        assert np.all(w >= -1e-12) and np.all(w <= 1.0 + 1e-12)

    def test_kernel_killed(self):
        a = np.diag([4.0, 0.0]).astype(complex)
        sampler = OrderIntervalSampler(a)
        for seed in range(20):
            c = sampler.draw(rng_for(seed))
            assert np.max(np.abs(c[1, :])) <= 1e-12
            assert np.max(np.abs(c[:, 1])) <= 1e-12

    def test_stays_in_interval(self):
        from ortholat.linalg import is_psd, random_psd
        a = random_psd(4, rng_for(45))
        sampler = OrderIntervalSampler(a)
        for i in range(30):
            c = sampler.draw(rng_for(46, i))
            assert is_psd(c)
            assert is_psd(a - c)

    def test_deterministic(self):
        a = np.eye(3) * 2.0
        assert np.array_equal(OrderIntervalSampler(a).draw(rng_for(9)),
                              OrderIntervalSampler(a).draw(rng_for(9)))

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            OrderIntervalSampler(np.diag([1.0, -1.0]))


class TestAbsInftyOrthSampled:
    def test_disjoint(self):
        rep = abs_infty_orth_sampled(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                     trials=50, seed=1)
        assert rep.holds

    def test_self_pair_fails_fast(self):
        rep = abs_infty_orth_sampled(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                                     trials=20, seed=1, stop_on_violation=True)
        assert not rep.holds
        assert dict(rep.details)["first_violation_trial"] == 0.0

    def test_zero_partner(self):
        rep = abs_infty_orth_sampled(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                                     trials=20, seed=1)
        assert rep.holds


class TestHereditaryCheck:
    def test_disjoint_diagonal(self):
        assert hereditary_check(np.diag([2.0, 0.0]), np.diag([0.0, 3.0]),
                                trials=100, seed=2).holds

    def test_complementary_projections(self):
        p = random_projection(4, rng_for(47))
        assert hereditary_check(p, np.eye(4) - p, trials=100, seed=3).holds

    def test_random_psd_blocks(self):
        from ortholat.linalg import random_psd
        rng = rng_for(48)
        a = np.zeros((4, 4), dtype=complex)
        b = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = random_psd(2, rng)
        b[2:, 2:] = random_psd(2, rng)
        assert hereditary_check(a, b, trials=100, seed=4).holds

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            hereditary_check(np.eye(2), np.eye(2))


class TestPredicateProperties:
    def test_symmetry(self):
        for i in range(30):
            rng = rng_for(49, i)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            assert alg_orth_sa(a, b).holds == alg_orth_sa(b, a).holds
            pa, pb = jordan_decompose(a)[0], jordan_decompose(b)[0]
            assert alg_orth_positive(pa, pb).holds == alg_orth_positive(pb, pa).holds

    def test_scaling_invariance(self):
        for i in range(30):
            rng = rng_for(50, i)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            s = float(rng.uniform(0.1, 10.0))
            assert alg_orth_sa(a, b).holds == alg_orth_sa(s * a, b).holds

    def test_alg_implies_infty_sampled(self):
        # exactly orthogonal pairs never show a sampled violation
        for i in range(10):
            rng = rng_for(51, i)
            a = np.zeros((4, 4), dtype=complex)
            b = np.zeros((4, 4), dtype=complex)
            from ortholat.linalg import random_psd
            a[:2, :2] = random_psd(2, rng)
            b[2:, 2:] = random_psd(2, rng)
            assert abs_infty_orth_sampled(a, b, trials=30, seed=60 + i).holds

    def test_strong_overlap_yields_violation(self):
        from ortholat.linalg import random_psd
        found = 0
        for i in range(20):
            rng = rng_for(52, i)
            c, d = random_psd(4, rng), random_psd(4, rng)
            if zero_product_residual(c, d) <= 0.1:
                continue
            rep = abs_infty_orth_sampled(c, d, trials=500, seed=70 + i,
                                         stop_on_violation=True)
            assert not rep.holds
            found += 1
        assert found > 0
