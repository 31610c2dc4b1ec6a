import contextlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ortholat.orthogonality
from ortholat.carriers import (
    CoordinateModel,
    MatrixSaModel,
    sup_norm,
)
from ortholat.errors import (DimensionMismatch, InternalInconsistency, NotPositive,
                             PreconditionFailed)
from ortholat.linalg import (
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    hermitian_norm,
    rng_for,
    sqrt_psd,
    zero_product_residual,
)
from ortholat.orthogonality import (
    KGrid,
    OrthReport,
    _sampled_stack,
    _trial_walk,
    abs_infty_orth_sampled,
    alg_orth_general,
    check_prop2_equivalence,
    hereditary_check,
    infty_deviations,
)
from ortholat.suites import _dim_for
from ortholat.tolerances import DEFAULT_TOL

from helpers import (abs_zero_product, interval_samples, is_psd, random_complex, random_hermitian,
                     random_projection, random_psd, random_unitary)
from references import (
    abs_infty_loop,
    orthogonal_general_pair,
    orthogonal_psd_pair,
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


class TestVerdictRecord:
    """The one rule over (value, bound): every bounded value is at most its
    bound, NaN failing, and the worst ratio is over the positive bounds."""

    def test_nan_fails_and_is_the_worst(self):
        # a NaN after a larger ratio is still the worst, as the first NaN
        rep = OrthReport("r", [("x", 5e-10), ("z", 2e-9), ("y", np.nan), ("w", np.nan)],
                         dict.fromkeys("xyzw", 1e-9))
        assert not rep.holds
        assert np.isnan(rep.worst_ratio) and rep.worst_check == "y"
        assert OrthReport("r", [("x", 5e-10)], {"x": 1e-9}).holds

    def test_count_fails_with_a_finite_ratio(self):
        # a count of 1 against its bound 0 fails the record, and a count is
        # read against 1/2, so it names itself with a finite ratio of 2 that
        # strict JSON holds; its bound stays 0
        rep = OrthReport("r", [("residual", 1e-10), ("survivors", 1.0), ("seen", 3.0)],
                         {"residual": 1e-9, "survivors": 0.0})
        assert not rep.holds
        assert (rep.worst_ratio, rep.worst_check) == (2.0, "survivors")
        assert json.loads(json.dumps(rep.to_json(), allow_nan=False))["bounds"] == {
            "residual": 1e-9, "survivors": 0.0}

    def test_no_positive_bound(self):
        # a count of 0 is a bounded detail with ratio 0; with no bounded
        # detail there is no worst
        rep = OrthReport("r", [("survivors", 0.0), ("seen", 3.0)], {"survivors": 0.0})
        assert rep.holds and (rep.worst_ratio, rep.worst_check) == (0.0, "survivors")
        rep = OrthReport("r", [("seen", 3.0)], {})
        assert rep.holds and (rep.worst_ratio, rep.worst_check) == (0.0, None)

    def test_ties_keep_the_first(self):
        rep = OrthReport("r", [("x", 1e-9), ("y", 2e-9)], {"x": 1e-9, "y": 2e-9})
        assert (rep.worst_ratio, rep.worst_check) == (1.0, "x")

    def test_routes_compare_their_own_verdicts(self):
        # the record holds when every route holds, and routes that disagree
        # are an InternalInconsistency, not a verdict
        rep = OrthReport("r", [("x", 0.0), ("y", 1.0)], {"x": 1e-9, "y": 1e-9})
        assert isinstance(rep._agreed(["x"], ["y"]), InternalInconsistency)
        assert rep._agreed(["x", "y"]) is rep and not rep.holds


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

    def test_nan_routes_all_fail(self):
        # a*b, |a*||b*| and the embedding overflow to NaN, which fails each
        # route: the verdict is "not orthogonal", not a disagreement of the
        # routes, and the worst ratio is the first NaN
        a, b = np.diag([1e200, 0.0]), np.array([[0.0, 1e200], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            rep = alg_orth_general(a, b)
        assert not rep.holds
        assert np.isnan(rep.worst_ratio) and rep.worst_check == "a*b"
        assert [name for name, r in rep.details if np.isnan(r)] == ["a*b", "|a*||b*|", "M2_embed"]

    @pytest.mark.parametrize("a, b, message", [
        (np.zeros((2, 3, 3)), np.zeros((2, 3, 3)),
         r"^expected a square matrix, got shape \(2, 3, 3\)$"),
        (np.zeros((2, 2)), np.zeros((3, 3)), r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"),
    ], ids=["stack", "two-shapes"])
    def test_one_square_matrix_each(self, a, b, message):
        with pytest.raises(DimensionMismatch, match=message):
            alg_orth_general(a, b)

    def test_routes_use_three_kernels(self, monkeypatch):
        # |x| comes from the SVD, the four of the pair in one stack; only the
        # two 2n x 2n embeddings are eigensolved, in one stack
        shapes = {"eigh": [], "svd": []}
        for name, calls in shapes.items():
            def recording(x, *args, _fn=getattr(np.linalg, name), _calls=calls, **kwargs):
                _calls.append(np.shape(x))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recording)
        alg_orth_general(*orthogonal_general_pair(3, rng_for(43)))
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
        # every row has 45 points, duplicates kept, and its distinct values
        # are the pair's own grid; inf / inf and 1e308 / 1e-308 warn, as the
        # pair's own division does
        warns = (u_norm, v_norm) in ((np.inf, np.inf), (1e308, 1e-308))
        with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
            grid = _grid(u_norm, v_norm)
        assert grid.shape == (45,)
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


def _signed_element(carrier, n, rng, exponent, zeros, support):
    """A Hermitian n x n matrix or an n-vector of normals scaled by
    2**exponent on the entries of `support` (a boolean vector, or a
    symmetric matrix), zeros of random sign off it; with `zeros`, about a
    third of its real and imaginary parts are such zeros too. A matrix is
    drawn on its lower triangle and mirrored, so that it is exactly
    Hermitian, signed zeros included."""
    def part():
        x = rng.standard_normal(support.shape) * 2.0 ** exponent
        at = ~support | (rng.random(support.shape) < (0.3 if zeros else 0.0))
        x[at] = np.copysign(0.0, rng.standard_normal(support.shape))[at]
        return x
    if carrier == "coordinate":
        return part()
    g = part() + 1j * part()
    h = np.empty(support.shape, dtype=complex)
    lower = np.tril_indices(n, -1)
    h[lower] = g[lower]
    h[lower[::-1]] = g[lower].conj()
    h[range(n), range(n)] = g.diagonal().real
    return h


def _overflowing(carrier, n):
    """A v whose norm overflows to inf: on matrices (n >= 2) a finite one,
    n * 1.7e308 in the norm; on R^n the sup norm of finite entries cannot
    overflow, so an infinite entry stands in."""
    if carrier == "matrix":
        return np.full((n, n), 1.7e308, dtype=complex)
    v = np.zeros(n)
    v[0] = np.inf
    return v


def _drawn_pair(carrier, n, rng, u_exp, v_exp, kind, zeros):
    """A pair (u, v) of elements of the carrier of `kind`: "drawn" at
    scales 2**u_exp and 2**v_exp, "orthogonal" with supports on
    complementary index sets, "zero" with v zeros of random sign and
    "overflow" with _overflowing v; with `zeros`, signed zeros within."""
    on_u = rng.random(n) < 0.5 if kind == "orthogonal" else np.ones(n, dtype=bool)
    on_v = ~on_u if kind == "orthogonal" else on_u
    if carrier == "matrix":
        on_u, on_v = np.outer(on_u, on_u), np.outer(on_v, on_v)
    u = _signed_element(carrier, n, rng, u_exp, zeros, on_u)
    v = _signed_element(carrier, n, rng, v_exp, zeros, on_v)
    if kind == "zero":
        v = np.copysign(0.0, v.real).astype(v.dtype)
    elif kind == "overflow":
        v = _overflowing(carrier, n)
    return u, v


@pytest.mark.parametrize("carrier", ["matrix", "coordinate"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
       pairs=st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                                st.sampled_from(["drawn", "orthogonal", "zero", "overflow"]),
                                st.booleans()),
                      min_size=1, max_size=4))
# k = 0 stays in the grid: on this orthogonal matrix pair u + 0 v differs
# from u in the signs of zeros, its eigvalsh norm in the last bit, and the
# row maximum is the k = 0 deviation, 5.3e-16, where every other k of the
# grid deviates by 0
@example(seed=4059, n=5, pairs=[(0, -10, "orthogonal", True)])
def test_infty_deviations_row_maxima_are_the_reference(carrier, seed, n, pairs):
    # each row maximum is the reference grid's, bit for bit and NaN
    # included, on drawn pairs at scales 2**e (e in [-40, 40]) with signed
    # zeros, on orthogonal ones (supports on complementary index sets, so
    # that every deviation is rounding), on v = 0 (of random signs) and on a
    # v whose norm overflows; and on fixed stacks that mix random pairs,
    # v = 0 (no crossing point), the tie pair, which attains its maximum
    # twice, and on R^n a NaN crossing point (a NaN coordinate; on matrices,
    # eigvalsh of u + NaN v does not converge); and a stack of n = 0
    norm = hermitian_norm if carrier == "matrix" else sup_norm
    rng = rng_for(seed)
    drawn = [_drawn_pair(carrier, n, rng, *pair) for pair in pairs]
    fixed = [_kernel_inputs(carrier, 3, 10 + i) for i in range(3)]
    fixed.insert(1, _kernel_inputs(carrier, 3, 13, v_zero=True))
    tie = np.eye(3)[0] if carrier == "coordinate" else np.diag([1.0, 0.0, 0.0])
    fixed.append((tie, tie))
    fixed.append((fixed[0][0], _overflowing(carrier, 3)))
    assert norm(fixed[-1][1]) == np.inf
    if carrier == "coordinate":
        fixed.append((np.array([np.nan, 0.0, 0.0]), fixed[0][1]))
        assert np.isnan(kgrid_for_norms(norm(fixed[-1][0]), norm(fixed[-1][1]))).any()
    empty = np.zeros((0,) if carrier == "coordinate" else (0, 0))
    with np.errstate(all="ignore"):
        for stack in (drawn, fixed, [(empty, empty)] * 2):
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
        # ||u+u|| = 2 vs max = 1 at k = 1, which the grid holds twice: 2**0
        # and the crossing point
        assert dev[_grid(1.0, 1.0) == 1.0].tolist() == [pytest.approx(1.0)] * 2

    def test_zero_partner(self):
        dev = _matrix_deviations(random_hermitian(3, rng_for(44)), np.zeros((3, 3)))
        assert dev.max() <= DEFAULT_TOL.tol_eq


def _root(a):
    """The matrix carrier's interval_root of the one operand a, a stack of
    one."""
    a = np.asarray(a)
    return MatrixSaModel(len(a)).interval_root(a[None], "a")


def _draw(root, rng):
    """The one sample of [0, a] drawn from `rng`, of the root of one
    operand a."""
    return interval_samples(MatrixSaModel(root.shape[-1]), root, [rng], [0])[0]


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
    """The matrix carrier's samples of the order interval [0, a]:
    interval_root and interval_samples."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stack_matches_one_at_a_time(self, n):
        root = _root(random_psd(n, rng_for(54, n)))
        want = [_draw_one(root[0], rng_for(55, i)) for i in range(12)]
        stack = interval_samples(MatrixSaModel(n), root, [rng_for(55, i) for i in range(12)],
                                 np.zeros(12, dtype=int))
        assert np.array_equal(stack, want)
        assert np.array_equal(_draw(root, rng_for(55, 3)), want[3])

    def test_zero(self):
        assert frob(_draw(_root(np.zeros((3, 3))), rng_for(0))) == 0.0

    def test_identity_interval(self):
        c = _draw(_root(np.eye(4)), rng_for(5))
        w = np.linalg.eigvalsh(c)
        assert np.all(w >= -1e-12) and np.all(w <= 1.0 + 1e-12)

    def test_kernel_killed(self):
        a = np.diag([4.0, 0.0]).astype(complex)
        root = _root(a)
        for seed in range(20):
            c = _draw(root, rng_for(seed))
            assert np.max(np.abs(c[1, :])) <= 1e-12
            assert np.max(np.abs(c[:, 1])) <= 1e-12

    def test_stays_in_interval(self):
        a = random_psd(4, rng_for(45))
        root = _root(a)
        for i in range(30):
            c = _draw(root, rng_for(46, i))
            assert is_psd(c)
            assert is_psd(a - c)

    def test_near_the_float_range(self):
        # a sample of a at 1.7e308 is symmetrized by halving before adding,
        # so no sum overflows: all are finite, without a warning, in [0, a]
        a = np.diag([1.7e308, 0.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = interval_samples(MatrixSaModel(2), _root(a), [rng_for(1, i) for i in range(5)],
                                     np.zeros(5, dtype=int))
        assert np.isfinite(stack).all()
        # where s + s* would overflow
        assert (stack[:, 0, 0].real > np.finfo(float).max / 2).sum() >= 2
        for c in stack:
            assert is_psd(c) and is_psd(a - c)

    def test_deterministic(self):
        a = np.eye(3) * 2.0
        assert np.array_equal(_draw(_root(a), rng_for(9)),
                              _draw(_root(a), rng_for(9)))

    def test_not_positive(self):
        # the operand's name, then sqrt_psd's reason
        with pytest.raises(NotPositive, match=r"^c is not positive \(minimum eigenvalue "
                                              r"-1\.000e\+00 below "):
            MatrixSaModel(2).interval_root(np.diag([1.0, -1.0]), "c")


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
        assert np.isnan(rep.worst_ratio) and np.isnan(details["sampled_deviation"])
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
    # the walk's chunks of samples cover its keys pair by pair in trial
    # order, each as long as _CHUNK_ENTRIES entries at `entries` a trial and
    # at most _CHUNK_SAMPLES trials allow (the last of a block may be shorter)
    def sizes(pairs, trials, entries):
        keys, lengths = [], []
        for owner, chunk, n, rngs in _trial_walk([(5, p) for p in range(pairs)], trials,
                                                 lambda _: entries):
            assert n is None and len(owner) == len(chunk) == len(list(rngs))
            keys.extend(zip(owner.tolist(), chunk))
            lengths.append(len(chunk))
        assert keys == [(p, j) for p in range(pairs) for j in trials]
        return lengths
    assert sizes(1, range(20), 32 * 32) == [4, 4, 4, 4, 4]  # 4096 entries a chunk
    assert sizes(1, range(10), 32 * 32) == [4, 4, 2]
    assert sizes(1, range(1, 10), 40 * 40) == [2, 2, 2, 2, 1]
    assert sizes(1, range(3, 10), 16) == [7]
    assert sizes(1, range(0), 16) == []
    assert sizes(3, range(1, 5), 32 * 32) == [4, 4, 4]   # a chunk spans pairs
    assert sizes(1, range(200), 1) == [64, 64, 64, 8]   # at most 64 trials
    assert sizes(1, range(1500), 5000) == [1] * 1500   # one trial over the cap
    # blocks of 1,024 keys: the last chunk of the first block ends at its edge
    assert sizes(2, range(700), 100) == [40] * 25 + [24] + [40] * 9 + [16]


def test_walk_reads_live_per_chunk():
    # a chunk holds the keys of the pairs live when it is cut; here each
    # chunk ends the pair of its first key, so the walk yields one chunk a
    # pair, from that pair's first key on
    dead, seen = set(), []
    for owner, chunk, _, rngs in _trial_walk([(9,), (10,), (11,)], range(100), lambda _: 64,
                                             live=lambda p: p not in dead):
        seen.append((owner.tolist(), chunk))
        for p, j, rng in zip(owner.tolist(), chunk, rngs):
            assert rng.random() == rng_for(9 + p, j).random()
        dead.add(seen[-1][0][0])
    assert seen == [([0] * 64, list(range(64))), ([1] * 28, list(range(28))),
                    ([2] * 56, list(range(56)))]


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
        assert rep.worst_check == "sampled_deviation"
        assert rep.worst_ratio == details["sampled_deviation"] / DEFAULT_TOL.tol_eq
        assert details["first_violation_trial"] == float(first)
        assert rep.holds == (first < 0)
        if stop or first < 0:
            assert details["sampled_deviation"] == worst
        else:
            assert details["sampled_deviation"] <= worst

    @pytest.mark.parametrize("trials", [0, 1])
    def test_few_trials(self, trials):
        worst, first = _abs_infty_loop(*_SAME, trials, 1)
        rep = abs_infty_orth_sampled(*_SAME, trials=trials, seed=1)
        details = dict(rep.details)
        assert (details["sampled_deviation"], details["first_violation_trial"]) == \
            (worst, float(first))

    def test_chunks_capped_at_large_n(self):
        a, b = orthogonal_psd_pair(32, rng_for(58))
        rep = abs_infty_orth_sampled(a, b, trials=12, seed=2)
        assert dict(rep.details)["sampled_deviation"] == _abs_infty_loop(a, b, 12, 2)[0]


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
    assert dict(rep.details)["sampled_deviation"] == _abs_infty_loop(*_NEAR, 40, seed)[0]


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
            orthogonal_psd_pair(n, rng)
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
        a, b = orthogonal_psd_pair(n, rng_for(57, n))
        rep = hereditary_check(a, b, trials=trials, seed=4)
        assert same_report(rep, hereditary_loop(a, b, trials, 4))

    def test_disjoint_diagonal(self):
        assert hereditary_check(np.diag([2.0, 0.0]), np.diag([0.0, 3.0]),
                                trials=100, seed=2).holds

    def test_complementary_projections(self):
        p = random_projection(4, rng_for(47))
        assert hereditary_check(p, np.eye(4) - p, trials=100, seed=3).holds

    def test_random_psd_blocks(self):
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
            pairs.append(orthogonal_psd_pair(n, rng) if i % 3 else
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
    reports = _sampled_stack(model, a, b, seeds, 40)
    monkeypatch.undo()
    assert len(reports) == len(pairs)
    first = [int(dict(rep.details)["first_violation_trial"]) for rep in reports]
    for pair, seed, rep, f in zip(pairs, seeds, reports, first):
        if stop:
            assert same_report(rep, abs_infty_loop(*pair, 40, seed))
        else:
            exact, worst, _ = (r for _, r in rep.details)
            assert _same_verdict_as_all_trials((exact, worst, f), *pair, 40, seed)
    # trial 0 of every pair in one stack, then chunks of the samples of the
    # pairs that have not stopped: all 39 of a pair without a violation, at
    # least those up to the first of a pair with one after trial 0
    assert seen[0] == len(pairs) and all(size <= samples for size in seen[1:])
    assert sum(39 if f < 0 else f for f in first) <= sum(seen[1:]) <= \
        39 * sum(f != 0 for f in first)


@pytest.mark.parametrize("samples", [3, 64], ids=["chunks-3", "chunks-64"])
def test_hereditary_stack_is_each_pair_alone(samples, monkeypatch):
    # each pair's hereditary report, in a stack whose chunks span pairs, is
    # the one its loop gives alone
    monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_SAMPLES", samples)
    pairs = _positive_pairs("matrix", 12)[1::3]   # the orthogonal ones
    seeds = [23 + i for i in range(len(pairs))]
    a, b = (hermitian_matrix(np.array(x)) for x in zip(*pairs))
    reports = _sampled_stack(MatrixSaModel(3), a, b, seeds, 20, hereditary=True)
    assert len(reports) == len(pairs)
    assert len({rep.worst_ratio for rep in reports}) == len(pairs)
    for pair, seed, rep in zip(pairs, seeds, reports):
        assert same_report(rep, hereditary_loop(*pair, 20, seed))


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
    model = MatrixSaModel(3)
    root = model.interval_root(operands, "a")
    owners = np.array([2, 0, 0, 3, 1, 2])
    rngs = [rng_for(61, i) for i in range(len(owners))]
    want = [_draw_one(sqrt_psd(operands[k]), rng_for(61, i)) for i, k in enumerate(owners)]
    assert np.array_equal(interval_samples(model, root, rngs, owners), want)
    assert np.array_equal(root, [sqrt_psd(x) for x in operands])


class TestCoordinateIntervalSamples:
    """The coordinate carrier's samples of the order interval [0, a] of
    R^n: t * a with t uniform in the unit box."""

    MODEL = CoordinateModel(5)
    OPERANDS = np.abs(np.array([rng_for(64, i).standard_normal(5) for i in range(4)]))

    def test_stack_is_each_operand_alone(self):
        root = self.MODEL.interval_root(self.OPERANDS, "a")
        owners = np.array([2, 0, 0, 3, 1, 2])
        got = interval_samples(self.MODEL, root, [rng_for(65, i) for i in range(6)], owners)
        for i, k in enumerate(owners):
            alone = self.MODEL.interval_root(self.OPERANDS[k], "a")[None]
            assert np.array_equal(got[i], interval_samples(
                self.MODEL, alone, [rng_for(65, i)], np.zeros(1, dtype=int))[0])
            assert np.array_equal(got[i],
                                  rng_for(65, i).uniform(0.0, 1.0, size=5) * self.OPERANDS[k])

    def test_stays_in_interval(self):
        c = interval_samples(self.MODEL, self.OPERANDS, [rng_for(66, i) for i in range(40)],
                             np.arange(40) % 4)
        assert np.all(c >= 0.0) and np.all(c <= self.OPERANDS[np.arange(40) % 4])

    @pytest.mark.parametrize("a, defect", [
        ([1.0, -1.0], r"1\.000e\+00"),
        ([[1.0, 0.0], [4.0, -1.0], [2.0, -2.0]], r"2\.500e-01"),
    ], ids=["one", "first-of-a-stack"])
    def test_not_positive(self, a, defect):
        with pytest.raises(NotPositive, match=rf"^c is not positive \(defect {defect}\)$"):
            CoordinateModel(2).interval_root(np.array(a), "c")


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
        assert rep.holds and rep.worst_ratio == 0.0
        rep = check_prop2_equivalence(self.X, self.OVERLAP)
        assert not rep.holds
        assert all(r > DEFAULT_TOL.tol_eq for _, r in rep.details)

    def test_lemma1(self):
        rep = hereditary_check(np.abs(self.X), np.abs(self.DISJOINT), trials=50, seed=1)
        assert rep.holds and rep.worst_ratio == 0.0
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
            pa, pb = (hermitian_eigendecompose(x).jordan_parts()[0] for x in (a, b))
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
            a[:2, :2] = random_psd(2, rng)
            b[2:, 2:] = random_psd(2, rng)
            assert abs_infty_orth_sampled(a, b, trials=30, seed=60 + i).holds

    def test_strong_overlap_yields_violation(self):
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
