import numpy as np
import pytest

from ortholat.errors import DimensionMismatch, NotPositive, PreconditionFailed
from ortholat.lattice import sup_norm
from ortholat.linalg import (
    frob,
    hermitian_matrix,
    hermitian_norm,
    jordan_decompose,
    random_complex,
    random_hermitian,
    random_projection,
    random_psd,
    random_unitary,
    rng_for,
    sqrt_psd,
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
    interval_pairs,
    sample_chunks,
)
from ortholat.suites import _dim_for, _orthogonal_psd_pair
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


def _scalar_loop(norm, u, v, grid=None):
    """The per-k loop over one pair: its grid, its deviations, the largest
    deviation and the first k attaining it (0 when every deviation is 0)."""
    ks = KGrid.for_norms(norm(u), norm(v)).values if grid is None else grid.values
    devs = []
    worst, worst_k = 0.0, 0.0
    for k in ks:
        rhs = max(norm(u), abs(k) * norm(v))
        dev = abs(norm(u + k * v) - rhs) / max(1.0, rhs)
        devs.append(dev)
        if dev > worst:
            worst, worst_k = dev, k
    return ks, devs, worst, worst_k


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
    want_ks, want, worst, worst_k = _scalar_loop(_scalar_norm(carrier), u, v, grid)
    batched = hermitian_norm if carrier == "matrix" else sup_norm
    ks, dev = infty_deviations(u[None], v[None], batched, grid)  # a stack of one
    assert np.array_equal(ks, [want_ks])
    assert np.array_equal(dev, [want])
    if carrier == "matrix":
        details = dict(infty_orth(u, v, grid).details)
        assert details["deviation"] == worst
        assert details["worst_k"] == worst_k


@pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
def test_infty_deviations_stack_pads_each_grid(carrier):
    # v = 0 has no crossing points, so its grid is shorter than the others;
    # the tie pair attains its maximum twice, at k = -1 first
    pairs = [_kernel_inputs(carrier, 3, 10 + i) for i in range(3)]
    pairs.insert(1, _kernel_inputs(carrier, 3, 13, v_zero=True))
    tie = np.eye(3)[0] if carrier == "coordinate" else np.diag([1.0, 0.0, 0.0])
    pairs.append((tie, tie))
    norm = _scalar_norm(carrier)
    batched = hermitian_norm if carrier == "matrix" else sup_norm
    us, vs = np.array([u for u, _ in pairs]), np.array([v for _, v in pairs])

    ks, dev = infty_deviations(us, vs, batched)
    lengths = set()
    for row_ks, row_dev, (u, v) in zip(ks, dev, pairs):
        want_ks, want, worst, worst_k = _scalar_loop(norm, u, v)
        size = len(want_ks)
        lengths.add(size)
        assert np.array_equal(row_ks[:size], want_ks)
        assert np.all(row_ks[size:] == want_ks[-1])
        assert np.array_equal(row_dev[:size], want)
        assert np.all(row_dev[size:] == want[-1])
        assert row_dev.max() == worst
        assert (row_ks[np.argmax(row_dev)] if worst > 0.0 else 0.0) == worst_k
    assert len(lengths) > 1
    assert _scalar_loop(norm, tie, tie)[3] == -1.0


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


def _draw_one(root, rng):
    """The one-sample draw of [0, root^2] that the stacked sampler replaced."""
    n = root.shape[0]
    u = random_unitary(n, rng)
    t = rng.uniform(0.0, 1.0, size=n)
    return hermitian_matrix(root @ ((u * t) @ u.conj().T) @ root)


def _abs_infty_loop(a, b, trials, seed, stop_on_violation=False):
    """The one-sample-at-a-time loop of abs_infty_orth_sampled: its largest
    deviation and its first violating trial."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    root_a, root_b = sqrt_psd(ah), sqrt_psd(bh)
    norm = _scalar_norm("matrix")
    worst, first = 0.0, -1
    for i in range(trials):
        if i == 0:
            c, d = ah, bh
        else:
            rng = rng_for(seed, i)
            c, d = _draw_one(root_a, rng), _draw_one(root_b, rng)
        dev = _scalar_loop(norm, c, d)[2]
        worst = max(worst, dev)
        if first < 0 and not dev <= DEFAULT_TOL.tol_eq:
            first = i
            if stop_on_violation:
                break
    return worst, first


def _hereditary_loop(a, b, trials, seed):
    root_a, root_b = sqrt_psd(hermitian_matrix(a)), sqrt_psd(hermitian_matrix(b))
    worst = 0.0
    for i in range(trials):
        rng = rng_for(seed, i)
        c, d = _draw_one(root_a, rng), _draw_one(root_b, rng)
        worst = max(worst, zero_product_residual(c, d))
    return worst


class TestOrderIntervalSampler:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stack_matches_one_at_a_time(self, n):
        sampler = OrderIntervalSampler(random_psd(n, rng_for(54, n)))
        want = [_draw_one(sampler.root, rng_for(55, i)) for i in range(12)]
        stack = sampler.draw([sampler.raw(rng_for(55, i)) for i in range(12)])
        assert np.array_equal(stack, want)
        assert np.array_equal(sampler.draw(rng_for(55, 3)), want[3])

    def test_pairs_from_one_generator_keep_the_draw_order(self):
        a, b = random_psd(3, rng_for(56, 0)), random_psd(3, rng_for(56, 1))
        sampler_a, sampler_b = OrderIntervalSampler(a), OrderIntervalSampler(b)
        rng = rng_for(56, 2)
        want = [(_draw_one(sampler_a.root, rng), _draw_one(sampler_b.root, rng))
                for _ in range(5)]
        cs, ds = interval_pairs(sampler_a, sampler_b, [rng_for(56, 2)] * 5)
        assert np.array_equal(cs, [c for c, _ in want])
        assert np.array_equal(ds, [d for _, d in want])

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


# overlap 1e-8: the endpoints satisfy the identity, and a sample violates it
# only now and then, at a trial that depends on the seed
_NEAR = (np.diag([1.0, 1e-8, 0.0]), np.diag([0.0, 1e-8, 1.0]))
_SAME = (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_sample_chunks_double_up_to_the_cap():
    def sizes(*args):
        chunks = list(sample_chunks(*args))
        assert [i for c in chunks for i in c] == list(range(args[0], args[1]))
        return [len(c) for c in chunks]
    assert sizes(0, 40, 16, 1) == [1, 2, 4, 8, 16, 9]
    assert sizes(0, 20, 32 * 32, 1) == [1, 2, 4, 4, 4, 4, 1]  # 4096 entries a chunk
    assert sizes(0, 10, 32 * 32) == [4, 4, 2]
    assert sizes(3, 10, 16) == [7]
    assert sizes(0, 0, 16, 1) == []


class TestAbsInftyMatchesOneAtATime:
    # trial 0 is checked alone, then trials 1-2, 3-6, 7-14, ...
    @pytest.mark.parametrize("stop", [False, True], ids=["all", "stop"])
    @pytest.mark.parametrize("a, b, seed, first", [
        (*_SAME, 1, 0),
        (*_NEAR, 17, 21),  # a later trial of its chunk deviates more
        (*_NEAR, 9, 3),
        (*_NEAR, 1, 14),
        (*_NEAR, 0, -1),
    ], ids=["trial-0", "inside-chunk", "chunk-start", "chunk-end", "none"])
    def test_worst_and_first_violation(self, a, b, seed, first, stop):
        worst, want_first = _abs_infty_loop(a, b, 40, seed, stop)
        assert want_first == first
        rep = abs_infty_orth_sampled(a, b, trials=40, seed=seed, stop_on_violation=stop)
        details = dict(rep.details)
        assert rep.max_violation == worst == details["sampled_deviation"]
        assert details["first_violation_trial"] == float(first)
        assert rep.holds == (first < 0)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_few_trials(self, trials):
        worst, first = _abs_infty_loop(*_SAME, trials, 1)
        rep = abs_infty_orth_sampled(*_SAME, trials=trials, seed=1)
        assert (rep.max_violation, dict(rep.details)["first_violation_trial"]) == \
            (worst, float(first))

    def test_chunks_capped_at_large_n(self):
        a, b = _orthogonal_psd_pair(32, rng_for(58))
        rep = abs_infty_orth_sampled(a, b, trials=12, seed=2)
        assert rep.max_violation == _abs_infty_loop(a, b, 12, 2)[0]


def test_infty_suite_verdicts_do_not_depend_on_stopping():
    # the overlapping pairs of the infty suite at --dim 4 --trials 500
    checked = 0
    for seed in (42, 1):
        for i in range(50):
            rng = rng_for(seed, 9, i)
            n = _dim_for(rng, 4)
            _orthogonal_psd_pair(n, rng)
            c, d = random_psd(n, rng), random_psd(n, rng)
            if zero_product_residual(c, d) > 0.1:
                verdicts = {abs_infty_orth_sampled(c, d, trials=40, seed=seed + i,
                                                   stop_on_violation=stop).holds
                            for stop in (False, True)}
                assert len(verdicts) == 1
                checked += 1
    assert checked > 0


class TestHereditaryCheck:
    @pytest.mark.parametrize("n, trials", [(4, 0), (4, 1), (4, 100), (32, 10)])
    def test_matches_one_at_a_time(self, n, trials):
        a, b = _orthogonal_psd_pair(n, rng_for(57, n))
        rep = hereditary_check(a, b, trials=trials, seed=4)
        assert rep.max_violation == _hereditary_loop(a, b, trials, 4)

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
