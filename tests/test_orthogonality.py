import contextlib

import numpy as np
import pytest

import ortholat.orthogonality
from ortholat.carriers import (
    CoordinateModel,
    MatrixSaModel,
    OrderIntervalSampler,
    sup_norm,
)
from ortholat.errors import DimensionMismatch, NotPositive, PreconditionFailed
from ortholat.linalg import (
    frob,
    hermitian_matrix,
    hermitian_norm,
    jordan_decompose,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
from ortholat.orthogonality import (
    KGrid,
    _sampled_stack,
    abs_infty_orth_sampled,
    alg_orth_general,
    check_prop2_equivalence,
    hereditary_check,
    infty_deviations,
    sample_chunks,
)
from ortholat.suites import _dim_for, _orthogonal_general_pair, _orthogonal_psd_pair
from ortholat.tolerances import DEFAULT_TOL

from helpers import abs_zero_product, is_psd, random_projection
from references import (
    abs_infty_loop,
    draw_one as _draw_one,
    hereditary_loop,
    infty_trial_deviations,
    infty_worst,
    kgrid_for_norms,
    same_report,
)


def matrix_unit(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def exact_alg_orth(a, b):
    """The residual of ab = 0 for positive a and b, as the sampled check
    records it (NotPositive unless both are positive)."""
    return dict(abs_infty_orth_sampled(a, b, trials=0).details)["exact_alg_orth"]


class TestAlgOrthPositive:
    """Algebraic orthogonality of positives, ab = 0: the exact half of the
    sampled check."""

    def test_disjoint_diagonal(self):
        assert exact_alg_orth(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) <= DEFAULT_TOL.tol_zero

    def test_self_overlap(self):
        assert exact_alg_orth(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_complementary_projections(self):
        p = random_projection(5, rng_for(40))
        assert exact_alg_orth(p, np.eye(5) - p) <= DEFAULT_TOL.tol_zero

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            exact_alg_orth(np.diag([1.0, -1.0]), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_alg_orth(np.eye(2), np.eye(3))


class TestAlgOrthSa:
    """Algebraic orthogonality of self-adjoints, |a||b| = 0: face (1) of
    check_prop2_equivalence."""

    def test_disjoint_supports(self):
        rep = check_prop2_equivalence(np.diag([1.0, -2.0, 0.0]), np.diag([0.0, 0.0, 5.0]))
        assert rep.holds and dict(rep.details)["|a||b|"] <= DEFAULT_TOL.tol_zero

    def test_overlapping_supports(self):
        rep = check_prop2_equivalence(np.diag([1.0, -2.0, 0.0]), np.diag([0.0, 3.0, 5.0]))
        assert not rep.holds and dict(rep.details)["|a||b|"] > DEFAULT_TOL.tol_zero

    def test_swap_vs_identity(self):
        # |swap| = I, so the product with I cannot vanish
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert not check_prop2_equivalence(swap, np.eye(2)).holds


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

    def test_routes_use_three_kernels(self, monkeypatch):
        # |x| comes from the SVD, the four of the pair in one stack; only the
        # two 2n x 2n embeddings are eigensolved, in one stack
        shapes = {"eigh": [], "svd": []}
        for name, calls in shapes.items():
            def recording(x, *args, _fn=getattr(np.linalg, name), _calls=calls, **kwargs):
                _calls.append(np.shape(x))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recording)
        alg_orth_general(*_orthogonal_general_pair(3, rng_for(43)))
        assert shapes == {"eigh": [(2, 6, 6)], "svd": [(4, 3, 3)]}


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

    @pytest.mark.parametrize("model, a, b", [
        (MatrixSaModel, np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.0, 2.0])),
        (CoordinateModel, np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 2.0])),
    ], ids=["matrix", "coordinate"])
    def test_zero_product_calls(self, model, a, b, monkeypatch):
        # face (1) once and face (2) on the four cross products; a+ a- and
        # b+ b- are the Jordan decomposition's own
        calls = []
        zero_product = model.zero_product
        monkeypatch.setattr(model, "zero_product",
                            lambda self, x, y: calls.append(1) or zero_product(self, x, y))
        assert check_prop2_equivalence(a, b).holds
        assert len(calls) == 5


def _grid(u_norm, v_norm):
    """The k-grid of the one pair with norms u_norm and v_norm."""
    return KGrid.for_norms(np.array([u_norm]), np.array([v_norm])).values[0]


class TestKGrid:
    def test_contents(self):
        grid = _grid(3.0, 2.0)
        vals = set(np.round(grid, 12))
        for k in (0.0, 1.0, -1.0):
            assert k in vals
        for i in range(-6, 7):
            assert round(2.0 ** i, 12) in vals
            assert round(-(2.0 ** i), 12) in vals
        rho = 1.5
        assert rho in vals and -rho in vals
        neighborhood = [v for v in grid if 0 < abs(abs(v) - rho) <= 0.1 * rho + 1e-12]
        assert len(neighborhood) >= 8

    def test_zero_v(self):
        assert 0.0 in _grid(1.0, 0.0)

    @pytest.mark.parametrize("u_norm, v_norm", [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (3.0, 2.0), (2.0, 0.25), (0.5, 4.0),
        (np.inf, 1.0), (np.inf, np.inf), (np.nan, 1.0), (1.0, np.nan), (1e308, 1e-308)])
    def test_is_np_unique_of_its_values(self, u_norm, v_norm):
        # every row has 47 points, duplicates kept, and its distinct values
        # are the pair's own grid; inf / inf and 1e308 / 1e-308 warn, as the
        # pair's own division does
        warns = (u_norm, v_norm) in ((np.inf, np.inf), (1e308, 1e-308))
        with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
            grid = _grid(u_norm, v_norm)
        assert grid.shape == (47,)
        assert np.array_equal(np.unique(grid), kgrid_for_norms(u_norm, v_norm), equal_nan=True)


def _scalar_norm(carrier):
    """The one-element norms of the per-k loop that infty_deviations replaced."""
    if carrier == "matrix":
        return lambda x: float(np.max(np.abs(np.linalg.eigvalsh(x)), initial=0.0))
    return lambda x: float(np.max(np.abs(x), initial=0.0))


def _scalar_loop(norm, u, v):
    """The deviations of one pair, one k of its grid at a time."""
    devs = []
    for k in _grid(norm(u), norm(v)):
        rhs = max(norm(u), abs(k) * norm(v))
        devs.append(abs(norm(u + k * v) - rhs) / max(1.0, rhs))
    return devs


def _kernel_inputs(carrier, n, seed, v_zero=False):
    rng = rng_for(53, seed)
    if carrier == "matrix":
        u, v = random_hermitian(n, rng), random_hermitian(n, rng)
    else:
        u, v = rng.standard_normal(n), rng.standard_normal(n)
    return u, (np.zeros_like(v) if v_zero else v)


@pytest.mark.parametrize("carrier, u, v", [
    ("matrix", *_kernel_inputs("matrix", 4, 0)),
    ("matrix", *_kernel_inputs("matrix", 1, 1)),
    ("matrix", *_kernel_inputs("matrix", 3, 2, v_zero=True)),
    ("coordinate", *_kernel_inputs("coordinate", 6, 4)),
    ("coordinate", *_kernel_inputs("coordinate", 1, 5)),
    ("coordinate", *_kernel_inputs("coordinate", 6, 6, v_zero=True)),
], ids=["matrix", "matrix-n1", "matrix-v0", "coord", "coord-n1", "coord-v0"])
def test_infty_deviations_match_scalar_loop(carrier, u, v):
    want = _scalar_loop(_scalar_norm(carrier), u, v)
    batched = hermitian_norm if carrier == "matrix" else sup_norm
    dev = infty_deviations(u[None], v[None], batched)  # a stack of one
    assert np.array_equal(dev, [want])


@pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
def test_infty_deviations_row_maxima_are_the_reference(carrier):
    # a stack that mixes random pairs, v = 0 (no crossing point), the tie
    # pair, which attains its maximum twice, and on R^n a NaN crossing point
    # (a NaN coordinate; on matrices, eigvalsh of u + NaN v does not
    # converge); and a stack of n = 0
    norm = hermitian_norm if carrier == "matrix" else sup_norm
    pairs = [_kernel_inputs(carrier, 3, 10 + i) for i in range(3)]
    pairs.insert(1, _kernel_inputs(carrier, 3, 13, v_zero=True))
    tie = np.eye(3)[0] if carrier == "coordinate" else np.diag([1.0, 0.0, 0.0])
    pairs.append((tie, tie))
    if carrier == "coordinate":
        pairs.append((np.array([np.nan, 0.0, 0.0]), pairs[0][1]))
        assert np.isnan(kgrid_for_norms(norm(pairs[-1][0]), norm(pairs[-1][1]))).any()
    empty = np.zeros((0,) if carrier == "coordinate" else (0, 0))
    for stack in (pairs, [(empty, empty)] * 2):
        us, vs = np.array([u for u, _ in stack]), np.array([v for _, v in stack])
        got = infty_deviations(us, vs, norm).max(-1)
        want = np.array([infty_worst(u, v, norm) for u, v in stack])
        assert got.tobytes() == want.tobytes()


def test_one_grid_per_infty_deviations_call(monkeypatch):
    # the sampled check's trial-0 stack and each chunk of samples is one
    # infty_deviations call, and each call builds the grids of its whole
    # stack with one KGrid.for_norms
    calls, grids = [], []
    deviations, for_norms = infty_deviations, KGrid.for_norms

    def counting(cs, ds, norm):
        calls.append(len(cs))
        return deviations(cs, ds, norm)

    def recording(u_norms, v_norms):
        grids.append(len(u_norms))
        return for_norms(u_norms, v_norms)
    monkeypatch.setattr(ortholat.orthogonality, "infty_deviations", counting)
    monkeypatch.setattr(KGrid, "for_norms", staticmethod(recording))
    model = MatrixSaModel(3)
    a, b = (np.array(x) for x in zip(*_positive_pairs("matrix", 6)))
    _sampled_stack(model, hermitian_matrix(a), hermitian_matrix(b), list(range(6)), 30)
    assert len(calls) > 2 and grids == calls


def _matrix_deviations(u, v):
    """The deviations of the one pair (u, v) of Hermitian matrices."""
    return infty_deviations(hermitian_matrix(u)[None], hermitian_matrix(v)[None],
                            hermitian_norm)[0]


class TestInftyDeviations:
    def test_disjoint_diagonal(self):
        dev = _matrix_deviations(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert dev.max() <= DEFAULT_TOL.tol_eq

    def test_self_pair_violates_at_one(self):
        u = np.diag([1.0, 0.0])
        dev = _matrix_deviations(u, u)
        # ||u+u|| = 2 vs max = 1 at k = 1, which the grid holds three times:
        # 1, 2**0 and the crossing point
        assert dev[_grid(1.0, 1.0) == 1.0].tolist() == [pytest.approx(1.0)] * 3

    def test_zero_partner(self):
        dev = _matrix_deviations(random_hermitian(3, rng_for(44)), np.zeros((3, 3)))
        assert dev.max() <= DEFAULT_TOL.tol_eq


def _sampler(a):
    """The sampler of the one operand a, a stack of one."""
    return OrderIntervalSampler(np.asarray(a)[None])


def _draw(sampler, rng):
    """The one sample of a sampler of one operand drawn from `rng`."""
    return sampler.draw([rng], [0])[0]


def _abs_infty_loop(a, b, trials, seed, stop=True):
    """The one-sample-at-a-time loop of abs_infty_orth_sampled on matrices,
    with the per-k loop of the identity: its largest deviation and its first
    violating trial, up to that trial as the check goes, or (not `stop`)
    through all trials."""
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
        dev = max(_scalar_loop(norm, c, d))
        worst = max(worst, dev)
        if first < 0 and not dev <= DEFAULT_TOL.tol_eq:
            first = i
            if stop:
                break
    return worst, first


class TestOrderIntervalSampler:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stack_matches_one_at_a_time(self, n):
        sampler = _sampler(random_psd(n, rng_for(54, n)))
        want = [_draw_one(sampler.root[0], rng_for(55, i)) for i in range(12)]
        stack = sampler.draw([rng_for(55, i) for i in range(12)], [0] * 12)
        assert np.array_equal(stack, want)
        assert np.array_equal(_draw(sampler, rng_for(55, 3)), want[3])

    def test_zero(self):
        assert frob(_draw(_sampler(np.zeros((3, 3))), rng_for(0))) == 0.0

    def test_identity_interval(self):
        c = _draw(_sampler(np.eye(4)), rng_for(5))
        w = np.linalg.eigvalsh(c)
        assert np.all(w >= -1e-12) and np.all(w <= 1.0 + 1e-12)

    def test_kernel_killed(self):
        a = np.diag([4.0, 0.0]).astype(complex)
        sampler = _sampler(a)
        for seed in range(20):
            c = _draw(sampler, rng_for(seed))
            assert np.max(np.abs(c[1, :])) <= 1e-12
            assert np.max(np.abs(c[:, 1])) <= 1e-12

    def test_stays_in_interval(self):
        from ortholat.linalg import random_psd
        a = random_psd(4, rng_for(45))
        sampler = _sampler(a)
        for i in range(30):
            c = _draw(sampler, rng_for(46, i))
            assert is_psd(c)
            assert is_psd(a - c)

    def test_deterministic(self):
        a = np.eye(3) * 2.0
        assert np.array_equal(_draw(_sampler(a), rng_for(9)),
                              _draw(_sampler(a), rng_for(9)))

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            _sampler(np.diag([1.0, -1.0]))


class TestAbsInftyOrthSampled:
    @pytest.mark.parametrize("carrier", [np.array, np.diag], ids=["vector", "matrix"])
    def test_nan_deviation_fails(self, carrier):
        # at 1e308 the norms of u + k v overflow, and inf - inf makes the
        # deviation of trial 0 NaN: a violation, and the worst
        with pytest.warns(RuntimeWarning):
            rep = abs_infty_orth_sampled(carrier([1e308, 0.0]), carrier([0.0, 1e308]),
                                         trials=5, seed=1)
        details = dict(rep.details)
        assert not rep.holds
        assert np.isnan(rep.max_violation) and np.isnan(details["sampled_deviation"])
        assert details["first_violation_trial"] == 0.0

    def test_disjoint(self):
        rep = abs_infty_orth_sampled(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                     trials=50, seed=1)
        assert rep.holds

    def test_self_pair_fails_fast(self):
        rep = abs_infty_orth_sampled(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                                     trials=20, seed=1)
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


def test_sample_chunks_fill_up_to_the_cap():
    def sizes(*args):
        chunks = list(sample_chunks(*args))
        assert [i for c in chunks for i in c] == list(range(args[0], args[1]))
        return [len(c) for c in chunks]
    assert sizes(0, 20, 32 * 32) == [4, 4, 4, 4, 4]  # 4096 entries a chunk
    assert sizes(0, 10, 32 * 32) == [4, 4, 2]
    assert sizes(1, 10, 40 * 40) == [2, 2, 2, 2, 1]
    assert sizes(3, 10, 16) == [7]
    assert sizes(0, 0, 16) == []


class TestAbsInftyMatchesOneAtATime:
    # trial 0 is checked alone, then the later trials in chunks as large as
    # the cap allows (here one chunk); the first violation stops the check
    # and its worst deviation. Against the loop through all trials ("all")
    # the verdict and the first violation are the same, and the worst
    # deviation is no larger.
    @pytest.mark.parametrize("stop", [False, True], ids=["all", "stop"])
    @pytest.mark.parametrize("a, b, seed, first", [
        (*_SAME, 1, 0),
        (*_NEAR, 17, 21),  # a later trial deviates more
        (*_NEAR, 9, 3),
        (*_NEAR, 1, 14),
        (*_NEAR, 0, -1),
        (*_NEAR, 21, 6),  # trial 7 deviates more, which stopping leaves out
    ], ids=["trial-0", "trial-21", "trial-3", "trial-14", "none", "trial-6"])
    def test_worst_and_first_violation(self, a, b, seed, first, stop):
        worst, want_first = _abs_infty_loop(a, b, 40, seed, stop)
        assert want_first == first
        rep = abs_infty_orth_sampled(a, b, trials=40, seed=seed)
        details = dict(rep.details)
        assert rep.max_violation == details["sampled_deviation"]
        assert details["first_violation_trial"] == float(first)
        assert rep.holds == (first < 0)
        if stop or first < 0:
            assert rep.max_violation == worst
        else:
            assert rep.max_violation <= worst

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


def _chunk_sizes(monkeypatch, a, b, **kwargs):
    """The stack size of each infty_deviations call of one
    abs_infty_orth_sampled(a, b, **kwargs), and its report."""
    seen = []

    def counting(cs, ds, norm):
        seen.append(len(cs))
        return infty_deviations(cs, ds, norm)
    monkeypatch.setattr(ortholat.orthogonality, "infty_deviations", counting)
    return seen, abs_infty_orth_sampled(a, b, **kwargs)


@pytest.mark.parametrize("stop", [False, True])
def test_chunks_same_when_stopping(monkeypatch, stop):
    # 20 trials: a pair without a violation checks trial 0, then 1-19 in one
    # chunk; a pair that stops at trial 0 draws no sample
    pair = _SAME if stop else (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    seen, rep = _chunk_sizes(monkeypatch, *pair, trials=20, seed=1)
    assert rep.holds != stop and seen == ([1] if stop else [1, 19])


@pytest.mark.parametrize("stop, sizes", [(False, [1] + [4] * 9 + [3]),
                                         (True, [1] + [4] * 6)])
def test_stop_after_the_chunk_of_the_first_violation(monkeypatch, stop, sizes):
    # 4 samples of 3 x 3 a chunk: trials 1-4, 5-8, ...; at seed 17 the first
    # violation, trial 21, is in the sixth, and at seed 0 no trial violates,
    # so every chunk is drawn
    monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_ENTRIES", 4 * 9)
    seed, first = (17, 21) if stop else (0, -1)
    seen, rep = _chunk_sizes(monkeypatch, *_NEAR, trials=40, seed=seed)
    assert seen == sizes
    assert dict(rep.details)["first_violation_trial"] == float(first)
    assert rep.max_violation == _abs_infty_loop(*_NEAR, 40, seed)[0]


class TestNotPositiveNamesTheOperand:
    """The sampled checks say which operand is not positive, on either
    carrier, from the decomposition that builds its sampler."""

    CARRIERS = {"matrix": (np.eye(2), np.diag([1.0, -1.0])),
                "coordinate": (np.ones(2), np.array([1.0, -1.0]))}

    @pytest.mark.parametrize("check", [abs_infty_orth_sampled, hereditary_check])
    @pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
    def test_second_operand(self, check, carrier, eigen_calls):
        pos, neg = self.CARRIERS[carrier]
        with pytest.raises(NotPositive, match="^b is not positive"):
            check(pos, neg)
        with pytest.raises(NotPositive, match="^a is not positive"):
            check(neg, pos)
        # on matrices, one square root an operand up to the first that is
        # not positive (2 + 1 matrices decomposed); on vectors none
        decomposed = {name: sum(sizes) for name, sizes in eigen_calls.stacks.items()}
        assert decomposed == ({"eigh": 3} if carrier == "matrix" else {})


def test_infty_suite_verdicts_do_not_depend_on_stopping():
    # the overlapping pairs of the infty suite at --dim 4 --trials 500: the
    # check that stops gives the verdict of all 40 trials
    checked = 0
    for seed in (42, 1):
        for i in range(50):
            rng = rng_for(seed, 9, i)
            n = _dim_for(rng, 4)
            _orthogonal_psd_pair(n, rng)
            c, d = random_psd(n, rng), random_psd(n, rng)
            if zero_product_residual(c, d) > 0.1:
                every_trial = all(dev <= DEFAULT_TOL.tol_eq
                                  for dev in infty_trial_deviations(c, d, 40, seed + i))
                assert abs_infty_orth_sampled(c, d, trials=40, seed=seed + i).holds == \
                    every_trial
                checked += 1
    assert checked > 0


class TestHereditaryCheck:
    @pytest.mark.parametrize("n, trials", [(4, 0), (4, 1), (4, 100), (32, 10)])
    def test_matches_one_at_a_time(self, n, trials):
        a, b = _orthogonal_psd_pair(n, rng_for(57, n))
        rep = hereditary_check(a, b, trials=trials, seed=4)
        assert same_report(rep, hereditary_loop(a, b, trials, 4))

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
        # positivity is checked first, operand by operand
        with pytest.raises(NotPositive):
            hereditary_check(np.eye(2), np.diag([1.0, -1.0]))

    def test_one_decomposition_per_operand(self, eigen_calls):
        # the square root of each operand is its only eigensolve; the
        # samples take one qr per operand and chunk
        hereditary_check(np.diag([2.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 3.0, 1.0]),
                         trials=10, seed=4)
        assert dict(eigen_calls) == {"eigh": 2, "qr": 2}


def _positive_pairs(carrier, count, n=3):
    """Positive pairs of the carrier: orthogonal ones, overlapping ones and
    the near-miss, whose violations come at seed-dependent trials."""
    pairs = []
    for i in range(count):
        rng = rng_for(59, i)
        if carrier == "coordinate":
            x, y = np.abs(rng.standard_normal((2, n)))
            support = rng.uniform(size=n) < 0.5
            pairs.append((x, y) if i % 3 == 0 else
                         (x * support, y * ~support) if i % 3 == 1 else
                         (x * support, y * (support + 1e-8)))
        elif i % 3 == 2:
            pairs.append(tuple(np.diag(np.resize(m, n)) for m in (_NEAR[0].diagonal(),
                                                                   _NEAR[1].diagonal())))
        else:
            pairs.append(_orthogonal_psd_pair(n, rng) if i % 3 else
                         (random_psd(n, rng), random_psd(n, rng)))
    return pairs


def _same_verdict_as_all_trials(outcome, a, b, trials, seed):
    """The exact residual, worst deviation and first violating trial of
    abs_infty_orth_sampled(a, b, trials, seed) agree with the loop through
    all trials: the same verdict and first violation, the same exact
    residual, and no larger worst deviation (the same without a
    violation)."""
    exact, worst, first = outcome
    devs = list(infty_trial_deviations(a, b, trials, seed))
    want_first = next((i for i, dev in enumerate(devs) if not dev <= DEFAULT_TOL.tol_eq), -1)
    want_exact = dict(abs_infty_loop(a, b, trials, seed).details)["exact_alg_orth"]
    return (exact == want_exact and first == want_first
            and (worst == max(devs, default=0.0) if first < 0 else worst <= max(devs)))


class TestSampledChecksAreTheLoops:
    """abs_infty_orth_sampled and hereditary_check against their loops one
    trial at a time, on both carriers, at 0, 1 and an odd count of trials;
    a chunk cap of 3 samples also splits the samples into several chunks.
    abs_infty_orth_sampled is compared bit for bit with the loop that stops
    at its first violation ("stop"), and for its verdict with the loop
    through all trials ("all")."""

    @pytest.mark.parametrize("samples", [3, 64], ids=["chunks-3", "chunks-64"])
    @pytest.mark.parametrize("trials", [0, 1, 41])
    @pytest.mark.parametrize("stop", [False, True], ids=["all", "stop"])
    @pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
    def test_abs_infty(self, carrier, stop, trials, samples, monkeypatch):
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
        for i, (a, b) in enumerate(_positive_pairs(carrier, 6)):
            rep = abs_infty_orth_sampled(a, b, trials, 17 + i)
            if stop:
                assert same_report(rep, abs_infty_loop(a, b, trials, 17 + i))
            else:
                exact, worst, first = (r for _, r in rep.details)
                assert _same_verdict_as_all_trials((exact, worst, int(first)), a, b, trials,
                                                   17 + i)

    @pytest.mark.parametrize("samples", [3, 64], ids=["chunks-3", "chunks-64"])
    @pytest.mark.parametrize("trials", [0, 1, 41])
    @pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
    def test_hereditary(self, carrier, trials, samples, monkeypatch):
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
        model = (MatrixSaModel if carrier == "matrix" else CoordinateModel)(3)
        orthogonal = [(a, b) for a, b in _positive_pairs(carrier, 6)
                      if abs_zero_product(model, a, b) <= DEFAULT_TOL.tol_zero]
        assert len(orthogonal) >= 2
        for i, (a, b) in enumerate(orthogonal):
            assert same_report(hereditary_check(a, b, trials, 23 + i),
                               hereditary_loop(a, b, trials, 23 + i))


@pytest.mark.parametrize("empty", [np.zeros(0), np.zeros((0, 0))], ids=["vector", "matrix"])
def test_sampled_checks_of_empty_operands(empty):
    for trials in (0, 1, 5):
        assert same_report(abs_infty_orth_sampled(empty, empty, trials, 3),
                           abs_infty_loop(empty, empty, trials, 3))
        assert same_report(hereditary_check(empty, empty, trials, 3),
                           hereditary_loop(empty, empty, trials, 3))


@pytest.mark.parametrize("samples", [3, 7, 64], ids=["chunks-3", "chunks-7", "chunks-64"])
@pytest.mark.parametrize("stop", [False, True], ids=["all", "stop"])
@pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
def test_sampled_stack_is_each_pair_alone(carrier, stop, samples, monkeypatch):
    # chunks that span pairs, and pairs that stop at trial 0 or later, give
    # each pair what it gets alone, and the verdict of all its trials; no
    # chunk holds more than the cap
    monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
    pairs = _positive_pairs(carrier, 9)
    seeds = [17 + i for i in range(len(pairs))]
    a, b = (np.array(x) for x in zip(*pairs))
    a, b = (hermitian_matrix(x) if carrier == "matrix" else x for x in (a, b))
    model = (MatrixSaModel if carrier == "matrix" else CoordinateModel)(3)
    seen = []

    def counting(cs, ds, norm):
        seen.append(len(cs))
        return infty_deviations(cs, ds, norm)
    monkeypatch.setattr(ortholat.orthogonality, "infty_deviations", counting)
    exact, worst, first = _sampled_stack(model, a, b, seeds, 40)
    monkeypatch.undo()
    for pair, seed, e, w, f in zip(pairs, seeds, exact, worst, first):
        if stop:
            assert [e, w, float(f)] == [r for _, r in abs_infty_loop(*pair, 40, seed).details]
        else:
            assert _same_verdict_as_all_trials((e, w, f), *pair, 40, seed)
    # trial 0 of every pair in one stack, then chunks of the samples of the
    # pairs that have not stopped: all 39 of a pair without a violation, at
    # least those up to the first of a pair with one after trial 0
    assert seen[0] == len(pairs) and all(size <= samples for size in seen[1:])
    assert sum(39 if f < 0 else f for f in first) <= sum(seen[1:]) <= \
        39 * sum(f != 0 for f in first)


def test_sampled_stack_precondition_and_positivity():
    # the first pair that is not orthogonal, the first operand that is not
    # positive, a before b
    ok = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    model = MatrixSaModel(2)
    with pytest.raises(PreconditionFailed, match="residual 7.071e-01"):
        _sampled_stack(model, np.array([ok[0], np.eye(2)]),
                       np.array([ok[1], np.eye(2) / 2]), [0, 0], 3, hereditary=True)
    with pytest.raises(NotPositive, match=r"^a is not positive .*-2\.000e\+00"):
        _sampled_stack(model, np.array([ok[0], -2 * np.eye(2), -np.eye(2)]),
                       np.array([ok[1], -np.eye(2), ok[1]]), [0] * 3, 3)
    with pytest.raises(NotPositive, match=r"^b is not positive .*-3\.000e\+00"):
        _sampled_stack(model, np.array([ok[0], ok[0]]),
                       np.array([-3 * np.eye(2), -np.eye(2)]), [0, 0], 3)


def test_sampler_of_a_stack_is_each_operand_alone():
    operands = np.array([random_psd(3, rng_for(60, i)) for i in range(4)])
    stacked = OrderIntervalSampler(operands)
    owners = np.array([2, 0, 0, 3, 1, 2])
    rngs = [rng_for(61, i) for i in range(len(owners))]
    want = [_draw_one(sqrt_psd(operands[k]), rng_for(61, i)) for i, k in enumerate(owners)]
    assert np.array_equal(stacked.draw(rngs, owners), want)
    assert np.array_equal(stacked.root, [sqrt_psd(x) for x in operands])


@pytest.mark.parametrize("grid", [1, 100, 10 ** 6])
def test_infty_deviations_in_slices(grid, monkeypatch):
    # the k-grid stack evaluated in slices of pairs gives every pair its
    # deviations as in one evaluation
    u = np.array([random_psd(3, rng_for(62, i)) for i in range(7)])
    v = np.array([random_psd(3, rng_for(63, i)) for i in range(7)])
    want = infty_deviations(u, v, hermitian_norm)
    monkeypatch.setattr(ortholat.orthogonality, "_GRID_ENTRIES", grid)
    assert np.array_equal(infty_deviations(u, v, hermitian_norm), want)


class TestOnVectors:
    """Lemma 1, Prop 2 and algebraic orthogonality on R^n, the commutative
    case: orthogonality is disjoint support."""

    X = np.array([1.0, -2.0, 0.0, 0.0])
    DISJOINT = np.array([0.0, 0.0, 3.0, -0.5])
    OVERLAP = np.array([0.0, 1.0, 3.0, 0.0])

    def test_alg_orth_positive(self):
        assert exact_alg_orth(np.abs(self.X), np.abs(self.DISJOINT)) == 0.0
        assert exact_alg_orth(np.abs(self.X), np.abs(self.OVERLAP)) == pytest.approx(1.0 / 6.0)
        with pytest.raises(NotPositive):
            exact_alg_orth(self.X, np.abs(self.DISJOINT))

    def test_alg_orth_sa(self):
        model = CoordinateModel(4)
        for y, orthogonal in ((self.DISJOINT, True), (self.OVERLAP, False)):
            r = model.zero_product(model.jordan(self.X)[2], model.jordan(y)[2])
            assert (r <= DEFAULT_TOL.tol_zero) == orthogonal

    def test_prop2(self):
        rep = check_prop2_equivalence(self.X, self.DISJOINT)
        assert rep.holds and rep.max_violation == 0.0
        rep = check_prop2_equivalence(self.X, self.OVERLAP)
        assert not rep.holds
        assert all(r > DEFAULT_TOL.tol_eq for _, r in rep.details)

    def test_lemma1(self):
        rep = hereditary_check(np.abs(self.X), np.abs(self.DISJOINT), trials=50, seed=1)
        assert rep.holds and rep.max_violation == 0.0
        with pytest.raises(PreconditionFailed):
            hereditary_check(np.abs(self.X), np.abs(self.OVERLAP))

    def test_random_supports(self):
        # each verdict is disjointness of the supports, as on diag(x), diag(y)
        for i in range(50):
            rng = rng_for(97, i)
            x = rng.standard_normal(5) * rng.integers(0, 2, size=5)
            y = rng.standard_normal(5) * rng.integers(0, 2, size=5)
            disjoint = not np.any((x != 0) & (y != 0))
            dx, dy = np.diag(x).astype(complex), np.diag(y).astype(complex)
            assert check_prop2_equivalence(x, y).holds == disjoint
            assert check_prop2_equivalence(dx, dy).holds == disjoint
            assert (exact_alg_orth(np.abs(x), np.abs(y)) <= DEFAULT_TOL.tol_zero) == disjoint
            if disjoint:
                assert hereditary_check(np.abs(x), np.abs(y), trials=10, seed=i).holds

    @pytest.mark.parametrize("check", [abs_infty_orth_sampled, check_prop2_equivalence,
                                       hereditary_check])
    def test_mismatched_lengths(self, check):
        with pytest.raises(DimensionMismatch):
            check(np.ones(2), np.ones(3))


class TestPredicateProperties:
    def test_symmetry(self):
        for i in range(30):
            rng = rng_for(49, i)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            assert check_prop2_equivalence(a, b).holds == check_prop2_equivalence(b, a).holds
            pa, pb = jordan_decompose(a)[0], jordan_decompose(b)[0]
            assert (exact_alg_orth(pa, pb) <= DEFAULT_TOL.tol_zero) == \
                (exact_alg_orth(pb, pa) <= DEFAULT_TOL.tol_zero)

    def test_scaling_invariance(self):
        for i in range(30):
            rng = rng_for(50, i)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            s = float(rng.uniform(0.1, 10.0))
            assert check_prop2_equivalence(a, b).holds == \
                check_prop2_equivalence(s * a, b).holds

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
            rep = abs_infty_orth_sampled(c, d, trials=500, seed=70 + i)
            assert not rep.holds
            found += 1
        assert found > 0
