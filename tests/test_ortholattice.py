import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ortholat.carriers
import ortholat.orthogonality
import ortholat.suites
from ortholat.carriers import MatrixSaModel
from ortholat.cli import main as cli_main
from ortholat.errors import (
    ComparablePair,
    DimensionMismatch,
    NoConvergence,
    PreconditionFailed,
)
from ortholat.linalg import (
    Spectrum,
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    matrix_to_json,
    psd_defect,
    random_hermitian,
    random_psd,
    random_unitary,
    rel_diff,
    rng_for,
    zero_product_residual,
)
from ortholat.ortholattice import (
    _Pair,
    _theorem4_stack,
    kadison_witness_search,
    ortho_inf_sup,
    verify_theorem4,
)
from ortholat.suites import _dim_for, run_suite, suite_theorem4
from ortholat.tolerances import DEFAULT_TOL, Tolerances

from helpers import loewner_le
from references import worst_of
from jacobi import jacobi_eigendecompose

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import witness_pair  # noqa: E402

S_FIX = np.diag([1.0, 0.0]).astype(complex)
T_FIX = 0.5 * np.ones((2, 2), dtype=complex)
# (S-T)^2 = I/2, so |S-T| = I/sqrt(2); closed form for the fixture pair
INF_FIX = np.array([[(3 - math.sqrt(2)) / 4, 0.25],
                    [0.25, (1 - math.sqrt(2)) / 4]])
SUP_FIX = np.array([[(3 + math.sqrt(2)) / 4, 0.25],
                    [0.25, (1 + math.sqrt(2)) / 4]])
# a pair whose difference has eigenvalues {1, -2e-9}, with ||S||_F about 10
BARELY_T = np.diag([6.0, 8.0]).astype(complex)
BARELY_S = BARELY_T + np.diag([1.0, -2e-9])


class TestOrthoInfSup:
    def test_diagonal_is_coordinatewise(self):
        c, d = ortho_inf_sup(np.diag([3.0, 1.0]), np.diag([1.0, 2.0]))
        assert np.allclose(c, np.diag([1.0, 1.0]))
        assert np.allclose(d, np.diag([3.0, 2.0]))

    def test_idempotent(self):
        a = random_hermitian(4, rng_for(60))
        for m in ortho_inf_sup(a, a):
            assert rel_diff(m, a) <= 1e-12

    def test_closed_form_fixture(self):
        c, d = ortho_inf_sup(S_FIX, T_FIX)
        assert np.max(np.abs(c - INF_FIX)) <= 1e-9
        assert np.max(np.abs(d - SUP_FIX)) <= 1e-9

    @pytest.mark.parametrize("pair", [
        lambda rng: (random_hermitian(5, rng), random_hermitian(5, rng)),
        lambda rng: (rng.standard_normal(7), rng.standard_normal(7)),
    ], ids=["matrix", "coordinate"])
    def test_closed_forms_of_one_absolute_value(self, pair):
        # the inf and the sup are the two closed forms over the one |x - y|
        # that model.jordan gives, bit for bit
        for i in range(20):
            a, b = pair(rng_for(59, i))
            model, x, y = ortholat.carriers.carrier_operands(a, b)
            abs_d = model.jordan(x - y)[2]
            c, d = ortho_inf_sup(a, b)
            assert np.array_equal(c, (x + y - abs_d) / 2.0)
            assert np.array_equal(d, (x + y + abs_d) / 2.0)

    def test_algebraic_identities(self):
        for i in range(50):
            rng = rng_for(61, i)
            n = int(rng.integers(2, 9))
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            c, d = ortho_inf_sup(a, b)
            assert rel_diff(c, ortho_inf_sup(b, a)[0]) <= 1e-12
            assert rel_diff(c + d, a + b) <= 1e-12
            assert rel_diff(d - c, hermitian_eigendecompose(a - b).jordan_parts()[2]) <= 1e-12
            # the negation duality and the sup-side facts, which
            # verify_theorem4 covers through d - a = b - c, d - b = a - c
            assert rel_diff(d, -ortho_inf_sup(-a, -b)[0]) <= 1e-12
            assert loewner_le(a, d) and loewner_le(b, d)
            assert zero_product_residual(d - a, d - b) <= DEFAULT_TOL.tol_zero
            # translation covariance and positive scaling
            t = random_hermitian(n, rng)
            assert rel_diff(ortho_inf_sup(a + t, b + t)[0], c + t) <= 1e-11
            s = float(rng.uniform(0.1, 5.0))
            assert rel_diff(ortho_inf_sup(s * a, s * b)[0], s * c) <= 1e-11

    def test_duality_on_vectors_is_exact(self):
        # negation is exact and |y - x| = |x - y| bit for bit on R^n
        for i in range(50):
            rng = rng_for(66, i)
            x, y = rng.standard_normal(7), rng.standard_normal(7)
            assert np.array_equal(ortho_inf_sup(x, y)[1], -ortho_inf_sup(-x, -y)[0])

    def test_commuting_pair_is_simultaneous_min(self):
        for i in range(20):
            rng = rng_for(62, i)
            u = random_unitary(4, rng)
            da, db = rng.standard_normal(4), rng.standard_normal(4)
            a = u @ np.diag(da).astype(complex) @ u.conj().T
            b = u @ np.diag(db).astype(complex) @ u.conj().T
            want = u @ np.diag(np.minimum(da, db)).astype(complex) @ u.conj().T
            assert rel_diff(ortho_inf_sup(a, b)[0], want) <= DEFAULT_TOL.tol_eq

    def test_ordered_pair(self):
        rng = rng_for(63)
        a = random_hermitian(4, rng)
        b = a + random_psd(4, rng)
        c, d = ortho_inf_sup(a, b)
        assert rel_diff(c, a) <= DEFAULT_TOL.tol_eq
        assert rel_diff(d, b) <= DEFAULT_TOL.tol_eq


class TestVerifyTheorem4:
    def test_random_pairs(self):
        for i in range(50):
            rng = rng_for(64, i)
            n = int(rng.integers(2, 9))
            rep = verify_theorem4(random_hermitian(n, rng), random_hermitian(n, rng))
            assert rep.holds

    def test_nan_existence_residual_is_the_worst(self):
        # at 1e160 the zero product of a - c and b - c overflows to NaN
        rng = rng_for(69, 2)
        a, b = (1e160 * random_hermitian(2, rng) for _ in range(2))
        with pytest.warns(RuntimeWarning):
            rep = verify_theorem4(a, b, trials=0)
        assert not rep.holds
        assert np.isnan(dict(rep.details)["inf_residuals_orth"])
        assert np.isnan(rep.worst_ratio) and rep.worst_check == "inf_residuals_orth"

    @pytest.mark.parametrize("suite", ["theorem4", "corollary5"])
    def test_nan_residual_is_the_suite_worst(self, suite, monkeypatch):
        original = ortholat.suites._theorem4_stack

        def nan_first(pair, seeds, trials):
            reports = original(pair, seeds, trials)
            if seeds[0] == 42:
                reports[0].details[1] = ("c_le_b", float("nan"))
            return reports
        monkeypatch.setattr(ortholat.suites, "_theorem4_stack", nan_first)
        rep = run_suite(suite, 4, 20, 42)
        assert rep["pass"] is False and rep["failures"] == 1
        assert np.isnan(rep["worst_ratio"]) and rep["worst_check"] == "c_le_b"

    def test_mixed_tolerances(self, tmp_path, capsys):
        # with tol_zero = 1e-6 the zero product is judged against 1e-6 and the
        # other residuals against 1e-9: the zero product is the largest
        # residual of this pair, but spectral_residual has the worst ratio
        rng = rng_for(2)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        rep = verify_theorem4(a, b, tol=DEFAULT_TOL.override(tol_zero=1e-6))
        bounds = {"c_le_a": 1e-9, "c_le_b": 1e-9, "inf_residuals_orth": 1e-6,
                  "spectral_residual": 1e-9, "uniqueness_survivors": 0.0}
        assert rep.bounds == bounds
        residuals = rep.details[:-1]
        assert max(residuals, key=lambda d: d[1])[0] == "inf_residuals_orth"
        ratios = {name: r / bounds[name] for name, r in residuals}
        assert rep.worst_check == max(ratios, key=ratios.get) == "spectral_residual"
        assert rep.worst_ratio == ratios["spectral_residual"]
        # ortholat ortho reports the same record
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, m in zip(paths, (a, b)):
            path.write_text(json.dumps(matrix_to_json(m)))
        assert cli_main(["ortho", "--a", str(paths[0]), "--b", str(paths[1]), "--seed", "0",
                         "--tol-zero", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["theorem4"] == rep.to_json()

    def test_fixture_residuals(self):
        rep = verify_theorem4(S_FIX, T_FIX)
        assert rep.holds
        assert rep.worst_ratio <= 0.1

    def test_identical_pair(self):
        a = random_hermitian(3, rng_for(65))
        rep = verify_theorem4(a, a)
        assert rep.holds

    @pytest.mark.parametrize("a, b", [(S_FIX, T_FIX), (np.array([1.0, -2.0, 0.5]),
                                                       np.array([0.0, 1.0, 0.5]))],
                             ids=["matrix", "coordinate"])
    def test_details_are_the_inf_side_plus_one_link(self, a, b):
        rep = verify_theorem4(a, b)
        assert rep.details[-1] == ("uniqueness_survivors", 0.0)
        assert [name for name, _ in rep.details] == [
            "c_le_a", "c_le_b", "inf_residuals_orth", "spectral_residual",
            "uniqueness_survivors"]
        assert rep.holds
        # the worst ratio is over the existence residuals, not the survivor count
        assert rep.bounds == {"c_le_a": 1e-9, "c_le_b": 1e-9, "inf_residuals_orth": 1e-9,
                              "spectral_residual": 1e-9, "uniqueness_survivors": 0.0}
        assert rep.worst_ratio == max(r for _, r in rep.details[:-1]) / 1e-9
        # x+ - x- = x holds exactly on the coordinate carrier
        if np.ndim(a) == 1:
            assert dict(rep.details)["spectral_residual"] == 0.0

    def test_jordan_mutants_are_caught(self, monkeypatch):
        # each defect of the decomposition of a - b fires the detail that
        # measures it: scaled eigenvalues break x+ - x- = x, while a PSD
        # shift s of both parts keeps x+ - x- = x and breaks (a-c)(b-c) = 0
        # (the check takes the parts from its spectrum of a - b)
        rng = rng_for(73)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        s = 0.1 * random_psd(4, rng)
        jordan_parts = Spectrum.jordan_parts

        def scaled(self):
            return [1.01 * p for p in jordan_parts(self)]

        def shifted(self):
            xp, xn, abs_x = jordan_parts(self)
            return xp + s, xn + s, abs_x + 2 * s

        reports = {}
        for mutant in (scaled, shifted):
            monkeypatch.setattr(Spectrum, "jordan_parts", mutant)
            reports[mutant.__name__] = dict(verify_theorem4(a, b, trials=0).details)
        assert reports["scaled"]["spectral_residual"] > DEFAULT_TOL.tol_eq
        assert reports["shifted"]["spectral_residual"] <= DEFAULT_TOL.tol_eq
        assert reports["shifted"]["inf_residuals_orth"] > DEFAULT_TOL.tol_zero

    @pytest.mark.parametrize("a, b, calls", [
        (S_FIX, T_FIX, {"eigh": 1, "eigvalsh": 2}),
        (np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 0.5]), {}),
    ], ids=["matrix", "coordinate"])
    def test_one_decomposition_per_call(self, a, b, calls, eigen_calls):
        # one eigh of a - b and the two cone defects of the existence half;
        # every one of the 10 perturbations is settled by the zero product
        rep = verify_theorem4(a, b, trials=10, seed=0)
        assert dict(rep.details)["uniqueness_survivors"] == 0.0
        assert dict(eigen_calls) == calls


class TestUniquenessFalsify:
    def test_manual_upward_perturbation(self):
        # c = diag(1,1); c + diag(0.1, 0) stays below a but not below b
        a, b = np.diag([3.0, 1.0]), np.diag([1.0, 2.0])
        ci = ortho_inf_sup(a, b)[0] + np.diag([0.1, 0.0])
        assert loewner_le(ci, a)
        assert not loewner_le(ci, b)

    def test_manual_downward_perturbation(self):
        # pushing the infimum down breaks residual orthogonality
        a, b = np.diag([3.0, 1.0]), np.diag([1.0, 2.0])
        ci = ortho_inf_sup(a, b)[0] - np.diag([0.1, 0.0])
        assert loewner_le(ci, a) and loewner_le(ci, b)
        assert zero_product_residual(a - ci, b - ci) > DEFAULT_TOL.tol_zero

    def test_random_pairs(self):
        for i in range(20):
            rng = rng_for(66, i)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            rep = verify_theorem4(a, b, trials=500, seed=80 + i)
            assert dict(rep.details)["uniqueness_survivors"] == 0.0
            assert rep.holds

    def test_equal_pair(self):
        a = random_hermitian(3, rng_for(67))
        rep = verify_theorem4(a, a, trials=10, seed=0)
        assert rep.details[-1] == ("uniqueness_survivors", 0.0)
        assert rep.holds


def _uniqueness_reference(a, b, trials=10, seed=0, tol=DEFAULT_TOL):
    """The survivor count of verify_theorem4's uniqueness half with all
    three checks on every perturbation: any ratio above 1 falsifies it, all
    three at most 1 make it survive, and anything else (a NaN ratio) raises."""
    ah, bh = hermitian_matrix(a), hermitian_matrix(b)
    c = ortho_inf_sup(ah, bh)[0]
    gap = frob(ah - bh)
    if gap <= tol.tol_eq:
        return 0.0
    n = ah.shape[0]
    survivors = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        delta = random_hermitian(n, rng)
        delta *= rng.uniform(1e-4, 1.0) * gap / max(frob(delta), 1e-300)
        ci = c + delta
        if not np.isfinite(ci).all():
            raise PreconditionFailed(f"perturbation {i} is not finite")
        ratios = {
            "zero-product": zero_product_residual(ah - ci, bh - ci) / tol.tol_zero,
            "a - c_i": psd_defect(ah - ci) / tol.tol_psd,
            "b - c_i": psd_defect(bh - ci) / tol.tol_psd,
        }
        if any(r > 1.0 for r in ratios.values()):
            continue
        for name, r in ratios.items():
            if not r <= 1.0:
                raise PreconditionFailed(f"perturbation {i}: the {name} residual is NaN")
        survivors += 1
    return float(survivors)


def _survivors(a, b, **kwargs):
    return dict(verify_theorem4(a, b, **kwargs).details)["uniqueness_survivors"]


def _outcome(fn, *args, **kwargs):
    """The value of fn, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, PreconditionFailed) as exc:
        return type(exc), str(exc)


def assert_same_outcome(a, b, **kwargs):
    """verify_theorem4's survivor count, or the error it raises, is the
    reference's."""
    got = _outcome(_survivors, a, b, **kwargs)
    assert got == _outcome(_uniqueness_reference, a, b, **kwargs)
    return got


class TestUniquenessReference:
    """The early-settling loop against the loop that runs every check."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8, 1e100, 6e153, 1e160])
    def test_random_pair(self, n, scale):
        # 1e100: residual products overflow to inf; 6e153 (n >= 2) and
        # 1e160: the gap itself overflows, and both loops raise
        # PreconditionFailed once a perturbation is drawn; test_nan_residuals
        # covers NaN ratios
        rng = rng_for(69, n)
        a, b = scale * random_hermitian(n, rng), scale * random_hermitian(n, rng)
        with np.errstate(all="ignore"):
            for trials in (0, 1, 10, 100):
                assert_same_outcome(a, b, trials=trials, seed=n + trials)

    def test_nan_residuals(self, monkeypatch):
        # a NaN ratio with no ratio above 1 neither breaks a condition nor
        # shows that all three hold, so it ends in a typed error
        residuals = []

        def recording(x, y):
            residuals.append(np.ravel(zero_product_residual(x, y)))
            return zero_product_residual(x, y)

        monkeypatch.setattr(ortholat.carriers, "zero_product_residual", recording)
        rng = rng_for(5, 1)
        a, b = 6e153 * random_hermitian(1, rng), 6e153 * random_hermitian(1, rng)
        with np.errstate(all="ignore"):
            assert assert_same_outcome(a, b, trials=100, seed=3) == (
                PreconditionFailed, "perturbation 3: the zero-product residual is NaN")
        assert np.isnan(np.concatenate(residuals)).any()

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_equal_pair(self, n):
        a = random_hermitian(n, rng_for(70, n))
        assert_same_outcome(a, a, trials=10, seed=1)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_survivors_run_every_check(self, n):
        loose = Tolerances(tol_zero=1e6, tol_psd=1e6)
        rng = rng_for(71, n)
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        assert assert_same_outcome(a, b, trials=20, seed=3, tol=loose) > 0.0

    def test_margin_of_exactly_one_survives(self, monkeypatch):
        # a ratio of exactly 1 breaks no condition, so it never settles; the
        # stand-ins give each matrix of a stack its residual, as the kernels
        # do, and the certificate settles none
        monkeypatch.setattr(MatrixSaModel, "zero_product_exceeds",
                            staticmethod(lambda x, y, bound: np.zeros(x.shape[:-2], dtype=bool)))
        monkeypatch.setattr(ortholat.carriers, "zero_product_residual",
                            lambda x, y: np.full(x.shape[:-2], DEFAULT_TOL.tol_zero))
        loose = DEFAULT_TOL.override(tol_psd=1e6)
        monkeypatch.setattr(ortholat.carriers, "psd_defect",
                            lambda x: np.full(x.shape[:-2], loose.tol_psd))
        a, b = np.diag([3.0, 1.0]), np.diag([1.0, 2.0])
        assert _survivors(a, b, trials=5, seed=0, tol=loose) == 5.0

    @pytest.mark.parametrize("scale, key, seed, error, drawn", [
        # the gap overflows, so perturbation 0 is not finite
        (1e160, (69, 1), 0, PreconditionFailed, 2),
        # the zero-product ratio of perturbation 3 is NaN (test_nan_residuals)
        (6e153, (5, 1), 3, PreconditionFailed, 4),
    ], ids=["not-finite", "nan-ratio"])
    def test_raised_pair_draws_no_later_chunk(self, scale, key, seed, error, drawn,
                                              monkeypatch):
        # two perturbations a chunk: the first pair draws up to the end of the
        # chunk in which it raised and no further, the second draws all 8
        monkeypatch.setattr(ortholat.orthogonality, "_CHUNK_ENTRIES", 2)
        draws = []
        sample_draw = MatrixSaModel.sample_draw
        monkeypatch.setattr(MatrixSaModel, "sample_draw",
                            lambda self, rng, out: draws.append(rng) or sample_draw(self, rng, out))
        rng, other = rng_for(*key), rng_for(73)
        a = np.array([scale * random_hermitian(1, rng), random_hermitian(1, other)])
        b = np.array([scale * random_hermitian(1, rng), random_hermitian(1, other)])
        with np.errstate(all="ignore"):
            raised, report = _theorem4_stack(
                _Pair(MatrixSaModel(1), hermitian_matrix(a), hermitian_matrix(b)), [seed, 7], 8)
        assert isinstance(raised, error)
        assert dict(report.details)["uniqueness_survivors"] == 0.0
        assert len(draws) == drawn + 8

    def test_checks_run_cheapest_first(self, monkeypatch):
        # the zero-product certificate, the zero product, then c_i <= a, then
        # c_i <= b; no condition breaks. The stand-ins log the stack each
        # check reads and give each matrix of it a residual of 0; the
        # certificate settles none.
        log = []
        monkeypatch.setattr(MatrixSaModel, "zero_product_exceeds",
                            staticmethod(lambda x, y, bound: log.append(("exceeds", x))
                                         or np.zeros(x.shape[:-2], dtype=bool)))
        monkeypatch.setattr(ortholat.carriers, "zero_product_residual",
                            lambda x, y: log.append(("zero", x)) or np.zeros(x.shape[:-2]))
        monkeypatch.setattr(ortholat.carriers, "psd_defect",
                            lambda x: log.append(("cone", x)) or np.zeros(x.shape[:-2]))
        a, b = np.diag([3.0, 1.0]), np.diag([1.0, 2.0])
        assert _survivors(a, b, trials=5, seed=0) == 5.0
        # the existence half first: c <= a, c <= b, then the zero product;
        # then the certificate and the zero product of every perturbation,
        # then c_i <= a, then c_i <= b, each on the stack of all 5
        assert [check for check, _ in log] == [
            "cone", "cone", "zero", "exceeds", "zero", "cone", "cone"]
        (_, exceeds_ra), (_, zero_ra), (_, ra), (_, rb) = (
            (check, x.reshape(-1, 2, 2)) for check, x in log[3:])
        assert len(ra) == 5
        assert np.array_equal(exceeds_ra, ra)
        assert np.array_equal(zero_ra, ra)
        for ra_i, rb_i in zip(ra, rb):
            assert np.allclose(ra_i - rb_i, a - b)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_overflowing_perturbation_rejected_at_the_draw(self, n, monkeypatch):
        # the gap overflows to inf, so the first perturbation is not finite;
        # it is rejected before any of its residuals is formed, and the one
        # zero product seen is the existence half's (a - c) orth (b - c)
        residuals = []
        monkeypatch.setattr(ortholat.carriers, "zero_product_residual",
                            lambda x, y: residuals.append(x) or np.zeros(x.shape[:-2]))
        rng = rng_for(69, n)
        a, b = 1e160 * random_hermitian(n, rng), 1e160 * random_hermitian(n, rng)
        with np.errstate(all="ignore"), pytest.raises(PreconditionFailed,
                                                      match="perturbation 0 is not finite"):
            verify_theorem4(a, b, trials=1)
        assert len(residuals) == 1
        # a stack of one: the pair's own a - c
        assert np.array_equal(residuals[0], [hermitian_matrix(a) - ortho_inf_sup(a, b)[0]])

    @pytest.mark.parametrize("seed", [42, 1, 2])
    def test_theorem4_suite_unchanged(self, seed):
        # the suite, which checks stacks of equal-n pairs, against the fold
        # in trial order of the existence half alone and the reference's
        # survivors, pair by pair
        reports, failures = [], 0
        for i in range(50):
            rng = rng_for(seed, 4, i)
            n = _dim_for(rng, 8)
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            reports.append(verify_theorem4(a, b, trials=0))
            survivors = _uniqueness_reference(a, b, 10, seed + i)
            failures += not (reports[-1].holds and survivors == 0)
        worst_ratio, worst_check = worst_of(reports)
        assert run_suite("theorem4", 8, 50, seed) == {
            "suite": "theorem4", "pass": failures == 0, "trials": 50, "worst_ratio": worst_ratio,
            "worst_check": worst_check, "failures": failures, "seed": seed}

    def test_theorem4_eigvalsh_count(self, eigen_calls):
        # each pair's a - b is decomposed once, and a - c and b - c are the
        # 2 matrices of its cone defects: the zero-product check settles
        # every perturbation, so the uniqueness half decomposes none
        suite_theorem4(64, 20, 1)
        assert sum(eigen_calls.stacks["eigvalsh"]) == 20 * 2
        assert sum(eigen_calls.stacks["eigh"]) == 20

    def test_theorem4_zero_product_count(self, monkeypatch):
        # the exact zero product runs on the existence half's 20 pairs only:
        # the certificate settles every perturbation without the product
        stacks = []
        residual = ortholat.carriers.zero_product_residual
        monkeypatch.setattr(ortholat.carriers, "zero_product_residual",
                            lambda x, y: stacks.append(len(x)) or residual(x, y))
        suite_theorem4(64, 20, 1)
        assert sum(stacks) == 20

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_zero_product_settles_random_pairs(self, n, eigen_calls):
        # at the default tolerances every random perturbation breaks residual
        # orthogonality, so no cone check runs
        for i in range(5):
            rng = rng_for(72, n, i)
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            before = eigen_calls["eigvalsh"]
            got = verify_theorem4(a, b, trials=100, seed=i)
            # the existence half's two cone defects, and none for the draws
            assert eigen_calls["eigvalsh"] == before + 2
            assert dict(got.details)["uniqueness_survivors"] == _uniqueness_reference(
                a, b, trials=100, seed=i)
            assert got.holds


def grid_search_witness_oracle(s, t, c, margin=1e-3, lo=-2.0, hi=2.0, step=0.05):
    """Brute-force search over real symmetric 2x2 m for a common lower bound
    of s, t that is not below c. Vectorized closed-form 2x2 eigenvalues."""
    vals = np.arange(lo, hi + step / 2, step)
    a, d, b = np.meshgrid(vals, vals, vals, indexing="ij")

    def min_eig_of_diff(x):
        # smallest eigenvalue of x - m for m = [[a, b], [b, d]]
        p = x[0, 0].real - a
        r = x[1, 1].real - d
        q = x[0, 1].real - b
        return (p + r) / 2 - np.hypot((p - r) / 2, q)

    feasible = (min_eig_of_diff(s) >= 0) & (min_eig_of_diff(t) >= 0)
    beats = min_eig_of_diff(c) <= -margin
    return bool(np.any(feasible & beats))


class TestKadisonWitnessSearch:
    def test_fixture_witness_found(self):
        res = kadison_witness_search(S_FIX, T_FIX)
        assert res.found
        assert res.margin >= 1e-3
        assert loewner_le(res.m, S_FIX)
        assert loewner_le(res.m, T_FIX)
        assert not loewner_le(res.m, ortho_inf_sup(S_FIX, T_FIX)[0])

    def test_oracle_confirms_existence(self):
        assert grid_search_witness_oracle(S_FIX, T_FIX, ortho_inf_sup(S_FIX, T_FIX)[0])

    def test_comparable_pair_rejected(self):
        with pytest.raises(ComparablePair):
            kadison_witness_search(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))

    def test_equal_pair_rejected(self):
        a = random_hermitian(3, rng_for(68))
        with pytest.raises(ComparablePair):
            kadison_witness_search(a, a)

    def test_deterministic(self):
        r1 = kadison_witness_search(S_FIX, T_FIX)
        r2 = kadison_witness_search(S_FIX, T_FIX)
        assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())

    def test_eigensolver_failure_is_typed(self, monkeypatch):
        def failing(x):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergence):
            kadison_witness_search(S_FIX, T_FIX)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_feasible_on_random_pairs(self, n, i):
        s, t = witness_pair(1, i, n)
        res = kadison_witness_search(s, t)
        slack = DEFAULT_TOL.tol_psd * max(frob(s), frob(t))
        assert res.found
        assert res.checks["le_S"] <= slack and res.checks["le_T"] <= slack
        assert loewner_le(res.m, s) and loewner_le(res.m, t)
        assert not loewner_le(res.m, ortho_inf_sup(s, t)[0])
        assert res.margin == -res.checks["not_le_c"] > slack

    def test_eigen_calls(self, eigen_calls):
        kadison_witness_search(S_FIX, T_FIX)
        # comparability and the construction share one eigenbasis of S - T;
        # the three checks need eigenvalues only
        assert dict(eigen_calls) == {"eigh": 1, "eigvalsh": 3}

    def test_barely_non_comparable_not_found(self):
        # S - T has eigenvalues {1, -2e-9}: past the cone slack of the
        # comparability check, but the margin 2e-9/3 is below the witness
        # slack tol_psd * ||S||_F, about 1e-8
        s, t = BARELY_S, BARELY_T
        assert not loewner_le(s, t) and not loewner_le(t, s)
        res = kadison_witness_search(s, t)
        assert not res.found
        assert res.margin == pytest.approx(2e-9 / 3, rel=1e-6)


def _comparable_reference(s, t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The comparability rule as two cone tests: S <= T or T <= S, each by
    the cone defect of its own difference."""
    return psd_defect(t - s) <= tol.tol_psd or psd_defect(s - t) <= tol.tol_psd


def _witness_rejects(s, t) -> bool:
    try:
        kadison_witness_search(s, t)
    except ComparablePair:
        return True
    return False


class TestWitnessComparability:
    """The witness reads comparability from its own spectrum of S - T."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_matches_cone_defects_on_random_pairs(self, n):
        for i in range(30):
            rng = rng_for(95, n, i)
            s = random_hermitian(n, rng)
            t = [random_hermitian(n, rng), s + random_psd(n, rng),
                 s - random_psd(n, rng)][i % 3]
            assert _witness_rejects(s, t) == _comparable_reference(s, t)

    @pytest.mark.parametrize("top", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_matches_cone_defects_at_the_slack(self, top, sign, factor):
        # S - T = sign * U diag(-delta, top/2, top) U*, with delta just inside
        # or just outside the slack tol_psd * max(1, top)
        rng = rng_for(96)
        delta = factor * DEFAULT_TOL.tol_psd * max(1.0, top)
        u = random_unitary(3, rng)
        d = hermitian_matrix((u * (sign * np.array([-delta, top / 2, top]))) @ u.conj().T)
        s = random_hermitian(3, rng)
        t = s - d
        assert _witness_rejects(s, t) == (factor < 1.0)
        assert _comparable_reference(s, t) == (factor < 1.0)

    def test_empty_pair_is_comparable(self):
        with pytest.raises(ComparablePair):
            kadison_witness_search(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kadison_witness_search(np.eye(2), np.eye(3))


class TestWitnessMargin:
    """The constructed witness against its closed-form margin lam/3."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_scale_sweep(self, scale):
        res = kadison_witness_search(scale * S_FIX, scale * T_FIX)
        assert res.found
        # S - T has eigenvalues +-1/sqrt(2), so lam/3 = sqrt(2)/6
        assert res.margin / scale == pytest.approx(math.sqrt(2) / 6, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_margin_is_lam_over_three(self, n):
        # lam from the Jacobi eigensolver, not LAPACK
        s, t = witness_pair(1, 0, n)
        w = jacobi_eigendecompose(s - t).eigenvalues
        lam = min(w[-1], -w[0])
        res = kadison_witness_search(s, t)
        assert res.margin == pytest.approx(lam / 3, rel=1e-12)


def _witness_reference(s, t, tol: Tolerances = DEFAULT_TOL):
    """The witness built from its definition at unit scale: c = S inf T by
    ortho_inf_sup, the top eigenpairs of P = (S-T)^+ and N = (S-T)^- each by
    its own Jacobi eigendecomposition, and the checks by Jacobi eigenvalues.
    Returns (found, margin, checks), rescaled."""
    sh, th = hermitian_matrix(s), hermitian_matrix(t)
    scale = max(np.abs(sh).max(), np.abs(th).max())
    su, tu = sh / scale, th / scale
    c = ortho_inf_sup(su, tu)[0]
    pos, neg, _ = hermitian_eigendecompose(su - tu).jordan_parts()
    p, q = jacobi_eigendecompose(pos), jacobi_eigendecompose(neg)
    lam = min(p.eigenvalues[-1], q.eigenvalues[-1])
    x = (p.eigenvectors[:, -1] + q.eigenvectors[:, -1]) / math.sqrt(2.0)
    m = c + (4.0 / 3.0 * lam) * np.outer(x, x.conj()) - lam * np.eye(len(x))

    def eigenvalues(a):
        return jacobi_eigendecompose(a).eigenvalues

    checks = {"le_S": eigenvalues(m - su)[-1], "le_T": eigenvalues(m - tu)[-1],
              "not_le_c": eigenvalues(c - m)[0]}
    slack = tol.tol_psd * max(frob(su), frob(tu))
    found = checks["le_S"] <= slack and checks["le_T"] <= slack and \
        -checks["not_le_c"] > slack
    return found, -checks["not_le_c"] * scale, \
        {k: v * scale for k, v in checks.items()}


def assert_same_witness(s, t, tmp_path, iters: int = 2000, restarts: int = 16):
    """The CLI report, whatever its ignored --iters/--restarts say, is the
    library's report, and that agrees with the reference construction."""
    paths = []
    for name, x in (("s.json", s), ("t.json", t)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(matrix_to_json(np.asarray(x, dtype=complex))))
    out = tmp_path / "witness.json"
    res = kadison_witness_search(s, t)
    code = cli_main(["witness", "--a", str(paths[0]), "--b", str(paths[1]),
                     "--iters", str(iters), "--restarts", str(restarts),
                     "--out", str(out)])
    assert code == (0 if res.found else 1)
    assert json.loads(out.read_text()) == {"command": "witness", **res.to_json()}
    found, margin, checks = _witness_reference(s, t)
    assert res.found == found
    assert res.margin == pytest.approx(margin, rel=1e-12)
    atol = 1e-12 * max(np.abs(s).max(), np.abs(t).max())
    for key, value in checks.items():
        assert res.checks[key] == pytest.approx(value, rel=0.0, abs=atol)
    return res


WITNESS_PAIRS = {"fixture": (S_FIX, T_FIX),
                 **{f"n{n}": witness_pair(1, 0, n) for n in (2, 3, 8)}}


class TestWitnessReference:
    """The constructed witness against the reference construction, through
    the CLI with --iters/--restarts values that must not change the report."""

    @pytest.mark.parametrize("pair", WITNESS_PAIRS)
    @pytest.mark.parametrize("restarts", [1, 2, 16])
    @pytest.mark.parametrize("iters", [1, 24, 25, 26, 200])
    def test_same_report(self, pair, restarts, iters, tmp_path):
        assert assert_same_witness(*WITNESS_PAIRS[pair], tmp_path, iters=iters,
                                   restarts=restarts).found

    @pytest.mark.parametrize("pair,restarts", [
        ("fixture", 1), ("fixture", 2), ("n2", 1), ("n2", 2),
        ("n3", 1), ("n3", 2), ("n8", 1), ("n8", 2), ("n8", 16)])
    def test_same_report_long(self, pair, restarts, tmp_path):
        assert assert_same_witness(*WITNESS_PAIRS[pair], tmp_path, iters=2000,
                                   restarts=restarts).found

    @pytest.mark.parametrize("scale", [1e-8, 1e10, 1e300, 8e307])
    def test_scaled_pair(self, scale, tmp_path):
        # at 1e300 and up ||S||_F**2 overflows, with numpy's warning; the
        # witness slack must not
        with (pytest.warns(RuntimeWarning, match="overflow") if scale >= 1e300
              else contextlib.nullcontext()):
            res = assert_same_witness(scale * S_FIX, scale * T_FIX, tmp_path,
                                      iters=300, restarts=3)
        assert res.found
        assert res.margin / scale == pytest.approx(math.sqrt(2) / 6, rel=1e-12)
